//! Analytic operation and byte counts for the kernels a tick runs, so
//! achieved rates can be derived from stage times. Every rate built from
//! these counts is a *computed* figure, not a hardware counter.
//!
//! - exact identification GEMM: `2·rows·B` flops;
//! - POD identification: `2·rows·r` (fold) `+ 2·r·B` per scored session;
//! - goal fold `z += R_wᵀ d`: `2·rank_w` flops per arrived sample inside
//!   rung `w`'s window;
//! - rung GEMMs: `2·(Nq·Nt)·rank` (goal), `2·(Nq·Nt)·r` plus
//!   `2·(Nm·Nt)·r` with inference (mode space), `2·(Nq·Nt)·k` (windowed);
//! - leading-block solves (windowed inference): `2k²` per session.
//!
//! Bytes count each operator block once per tick that uses it plus each
//! session's own data, in f64.

use crate::setup::{Assets, WINDOWS};
use crate::Workload;

const F64: f64 = 8.0;

#[derive(Clone, Debug, Default)]
pub struct OpCounter {
    w: Option<Workload>,
    nd: usize,
    nq: usize,
    np: usize,
    bank: usize,
    rank: usize,
    /// Per-rung fold rank of the goal ladder.
    goal_ranks: Vec<usize>,
    infer: bool,
    // Per-tick accumulators.
    touched: Vec<u32>,
    row_seen: Vec<bool>,
    tick_no: u32,
    pub identify_flops: f64,
    pub identify_bytes: f64,
    pub assimilate_flops: f64,
    pub assimilate_bytes: f64,
}

impl OpCounter {
    pub fn new(a: &Assets, w: Workload) -> Self {
        let nd = a.twin.solver.sensors.len();
        let n_data = a.twin.n_data();
        OpCounter {
            w: Some(w),
            nd,
            nq: a.twin.phase3.q_map.nrows(),
            np: a.twin.n_params(),
            bank: a.bank.len(),
            rank: a.pod.as_ref().map_or(0, |p| p.rank()),
            goal_ranks: a.goal.as_ref().map_or(Vec::new(), |g| {
                g.rungs.iter().map(|r| r.map.rank()).collect()
            }),
            infer: w != Workload::Goal,
            row_seen: vec![false; n_data],
            tick_no: 1,
            ..OpCounter::default()
        }
    }

    /// Samples `[lo, hi)` of a session arrive before the coming tick.
    pub fn part(&mut self, event: u32, lo: usize, hi: usize) {
        let n = (hi - lo) as f64;
        let e = event as usize;
        if self.touched.len() <= e {
            self.touched.resize(e + 1, 0);
        }
        let first_touch = self.touched[e] != self.tick_no;
        self.touched[e] = self.tick_no;
        for seen in &mut self.row_seen[lo..hi] {
            *seen = true;
        }
        match self.w {
            Some(Workload::ModeSpace) => {
                let r = self.rank as f64;
                self.identify_flops += 2.0 * n * r;
                if first_touch {
                    self.identify_flops += 2.0 * r * self.bank as f64;
                    self.identify_bytes += F64 * r * self.bank as f64;
                }
            }
            _ => {
                self.identify_flops += 2.0 * n * self.bank as f64;
            }
        }
        if let Some(Workload::Goal) = self.w {
            for (wi, &rank) in self.goal_ranks.iter().enumerate() {
                let k = WINDOWS[wi] * self.nd;
                let overlap = hi.min(k).saturating_sub(lo) as f64;
                self.assimilate_flops += 2.0 * rank as f64 * overlap;
                self.assimilate_bytes += F64 * rank as f64 * overlap;
            }
        }
        self.identify_bytes += F64 * n;
    }

    /// The tick ran; `widest` lists `(event, rung)` for every session it
    /// assimilated, at the widest rung it crossed.
    pub fn tick(&mut self, widest: &[(u32, usize)]) {
        let distinct_rows = self.row_seen.iter().filter(|&&s| s).count() as f64;
        let per_row = match self.w {
            Some(Workload::ModeSpace) => self.rank as f64,
            _ => self.bank as f64,
        };
        self.identify_bytes += F64 * distinct_rows * per_row;
        self.row_seen.fill(false);
        self.tick_no += 1;

        let nq = self.nq as f64;
        let mut rungs_used = [false; WINDOWS.len()];
        for &(_, wi) in widest {
            let k = (WINDOWS[wi] * self.nd) as f64;
            let (flops, data) = match self.w {
                Some(Workload::Goal) => {
                    let r = self.goal_ranks[wi] as f64;
                    (2.0 * nq * r, r + nq)
                }
                Some(Workload::ModeSpace) => {
                    let r = self.rank as f64;
                    let inf = if self.infer {
                        2.0 * self.np as f64 * r
                    } else {
                        0.0
                    };
                    (2.0 * nq * r + inf, r + nq)
                }
                _ => {
                    let solve = if self.infer { 2.0 * k * k } else { 0.0 };
                    (2.0 * nq * k + solve, k + nq)
                }
            };
            self.assimilate_flops += flops;
            self.assimilate_bytes += F64 * data;
            rungs_used[wi] = true;
        }
        for (wi, used) in rungs_used.iter().enumerate() {
            if !used {
                continue;
            }
            let k = (WINDOWS[wi] * self.nd) as f64;
            let op = match self.w {
                Some(Workload::Goal) => nq * self.goal_ranks[wi] as f64,
                Some(Workload::ModeSpace) => {
                    let r = self.rank as f64;
                    nq * r + if self.infer { self.np as f64 * r } else { 0.0 }
                }
                _ => nq * k + if self.infer { 0.5 * k * (k + 1.0) } else { 0.0 },
            };
            self.assimilate_bytes += F64 * op;
        }
    }
}
