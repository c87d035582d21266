//! Driving the stream engine: one thread is both the load generator and
//! the service loop (`tick` takes `&mut self`), so every latency is timed
//! from the due time of the sample that completes a rung, not from when
//! the loop got round to pushing it.

use crate::failure::Decision;
use crate::flops::OpCounter;
use crate::rng::Rng;
use crate::schedule::{Schedule, ScheduleSpec};
use crate::setup::{Assets, WINDOWS};
use crate::trace::Tracer;
use crate::Workload;
use std::time::{Duration, Instant};
use tsunami_obs::Metric;
use tsunami_stream::{forecast_band, IdentifyBackend, StreamConfig, StreamEngine};

/// Session shards, ticked in parallel on the two-thread pool.
pub const SHARDS: usize = 2;
/// Sessions per assimilation panel.
pub const CHUNK: usize = 32;
/// Open-loop idle gaps shorter than this are spun rather than slept.
const SPIN_S: f64 = 200e-6;

pub fn engine(a: &Assets, w: Workload) -> StreamEngine<'_> {
    let base = StreamConfig {
        chunk: CHUNK,
        shards: SHARDS,
        warn_threshold: a.threshold,
        audit_capacity: 4096,
        ..StreamConfig::default()
    };
    match w {
        Workload::SingleEvent | Workload::Windowed => {
            let wf = a.wf.as_ref().expect("windowed ladder");
            StreamEngine::new(
                &a.twin,
                wf,
                StreamConfig {
                    infer: true,
                    ..base
                },
            )
            .with_bank(&a.bank)
        }
        Workload::Goal => {
            let goal = a.goal.as_ref().expect("goal ladder");
            StreamEngine::goal_oriented(
                &a.twin,
                goal,
                StreamConfig {
                    infer: false,
                    ..base
                },
            )
            .with_bank(&a.bank)
        }
        Workload::ModeSpace => {
            let ms = a.ms.as_ref().expect("mode-space ladder");
            let cfg = StreamConfig {
                infer: true,
                identify: IdentifyBackend::ModeSpace,
                ..base
            };
            StreamEngine::mode_space(&a.twin, ms, cfg)
                .with_bank(&a.bank)
                .with_pod(a.pod.as_ref().expect("POD bank"))
        }
    }
}

/// How the loop advances through the schedule.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// The service loop ticks on a fixed cadence: each tick takes every
    /// sample that fell due since the previous one (a tick that overruns
    /// is followed at once by the next).
    Open { cadence: f64 },
    /// Unpaced replay: each tick takes the next `quantum` seconds of
    /// schedule time, however long the previous tick took.
    Closed { quantum: f64 },
}

/// One round's generated inputs.
pub struct Round {
    pub sched: Schedule,
    /// Each session's sample stream.
    pub data: Vec<Vec<f64>>,
    /// Sessions whose open-loop forecasts are checked against the oracle.
    pub checked: Vec<bool>,
}

impl Round {
    /// Build round `round`'s schedule and streams from the run's seed,
    /// and pick `n_checked` sessions (none of them NaN-fed) to check.
    pub fn generate(
        a: &Assets,
        spec: &ScheduleSpec,
        seed: u64,
        round: usize,
        n_checked: usize,
    ) -> Self {
        let seed = seed
            .wrapping_mul(0x1000_0000_01B3)
            .wrapping_add(round as u64);
        let sched = spec.build(seed);
        let clean = a.bank.clean_observations();
        let cols: Vec<Vec<f64>> = (0..a.n_replay).map(|j| clean.col(j)).collect();
        let noise = a.bank.noise_std();
        let data = sched
            .events
            .iter()
            .enumerate()
            .map(|(i, e)| sched.stream(i, &cols[e.scenario], noise, seed))
            .collect();
        let mut pick: Vec<usize> = (0..sched.events.len())
            .filter(|&i| sched.events[i].nan_at.is_none())
            .collect();
        Rng::fork(seed, 3).shuffle(&mut pick);
        let mut checked = vec![false; sched.events.len()];
        for &i in pick.iter().take(n_checked) {
            checked[i] = true;
        }
        Round {
            sched,
            data,
            checked,
        }
    }
}

/// One rung decision as observed after the tick that followed the
/// rung-completing sample.
pub struct DecisionRec {
    pub event: u32,
    /// Rung the engine actually classified at (`None`: not classified).
    pub classified_at: Option<usize>,
    /// Seconds from the completing sample's due time to the end of the
    /// tick that classified it (open loop only).
    pub latency: f64,
    pub decision: Decision,
    /// Forecast means, kept for the oracle-checked sessions.
    pub q_map: Option<Vec<f64>>,
}

#[derive(Default)]
pub struct LoopOut {
    pub decisions: Vec<DecisionRec>,
    /// Sessions whose best-fit scenario at the horizon is the one replayed.
    pub top1_hits: usize,
    pub sessions: usize,
    pub tick_s: Vec<f64>,
    /// Due time to tick start, per delivered part.
    pub queue_wait: Vec<f64>,
    /// Open loop: how far each tick started behind its cadence point.
    pub late: Vec<f64>,
    pub wall_s: f64,
    pub samples_offered: usize,
    pub samples_accepted: usize,
    pub ops: OpCounter,
    pub engine: Readout,
    /// The engine registry as JSON (traced runs only).
    pub registry_json: String,
}

/// Replay a round through a fresh engine. An open loop keeps the
/// forecasts of the round's checked sessions for the oracle.
pub fn replay(a: &Assets, w: Workload, round: &Round, pace: Pace, tr: &Tracer) -> LoopOut {
    let (sched, data) = (&round.sched, &round.data);
    let keep = matches!(pace, Pace::Open { .. });
    let mut eng = engine(a, w);
    let churn = w == Workload::ModeSpace;
    let last_rung = (WINDOWS.len() - 1) as u8;
    let mut ops = OpCounter::new(a, w);
    let mut out = LoopOut {
        decisions: Vec::with_capacity(sched.events.len() * WINDOWS.len()),
        queue_wait: Vec::with_capacity(sched.parts.len()),
        ..LoopOut::default()
    };
    let mut ids = vec![usize::MAX; sched.events.len()];
    let mut pending: Vec<(u32, u8, f64)> = Vec::new();
    let mut dues: Vec<f64> = Vec::new();
    let parts = &sched.parts;
    let mut next = 0;
    let mut vclock = 0.0;
    let mut cadence_point = 0.0;
    let pool_start = rayon::pool_stats();
    let t0 = Instant::now();
    while next < parts.len() {
        let now = match pace {
            Pace::Open { cadence } => {
                let now = t0.elapsed().as_secs_f64();
                // The first cadence point at which the next sample is due.
                let at = (parts[next].due / cadence).ceil() * cadence;
                cadence_point = at;
                if at > now {
                    // Sleep through long gaps, then spin the last stretch so
                    // timer wake-up delay does not shift the tick.
                    if at - now > SPIN_S {
                        std::thread::sleep(Duration::from_secs_f64(at - now - SPIN_S));
                    } else {
                        std::hint::spin_loop();
                    }
                    continue;
                }
                now
            }
            Pace::Closed { quantum } => {
                vclock = (vclock + quantum).max(parts[next].due);
                vclock
            }
        };
        while next < parts.len() && parts[next].due <= now {
            let p = parts[next];
            let ev = p.event as usize;
            if ids[ev] == usize::MAX {
                ids[ev] = eng.open();
            }
            let samples = &data[ev][p.lo as usize..p.hi as usize];
            out.samples_offered += samples.len();
            if churn {
                eng.enqueue(ids[ev], samples);
                out.samples_accepted += samples.len();
            } else {
                out.samples_accepted += eng.push(ids[ev], samples);
            }
            ops.part(p.event, p.lo as usize, p.hi as usize);
            dues.push(p.due);
            if let Some(r) = p.rung {
                pending.push((p.event, r, p.due));
            }
            next += 1;
        }
        let t_start = Instant::now();
        let tm = eng.tick();
        let t_end = Instant::now();
        tr.record("stream.tick", t_start, t_end);
        out.tick_s.push(tm.seconds);
        if let Pace::Open { .. } = pace {
            let start = t_start.duration_since(t0).as_secs_f64();
            out.late.push(start - cadence_point);
            out.queue_wait.extend(dues.iter().map(|&d| start - d));
        }
        dues.clear();
        let end = t_end.duration_since(t0).as_secs_f64();
        let mut widest: Vec<(u32, usize)> = Vec::new();
        for (ev, rung, due) in pending.drain(..) {
            let id = ids[ev as usize];
            let s = eng.session(id);
            let at = s.window();
            let classified = at.is_some_and(|c| c >= rung as usize);
            let band = s
                .forecast
                .as_ref()
                .map_or((f64::NAN, f64::NAN), forecast_band);
            out.decisions.push(DecisionRec {
                event: ev,
                classified_at: at,
                latency: end - due,
                decision: Decision {
                    classified,
                    band,
                    level: s.level,
                    nan_fed: sched.events[ev as usize].nan_at.is_some(),
                    oracle: None,
                },
                q_map: if keep && round.checked[ev as usize] {
                    s.forecast.as_ref().map(|f| f.q_map.clone())
                } else {
                    None
                },
            });
            if let Some(c) = at.filter(|_| classified) {
                match widest.iter_mut().find(|(e, _)| *e == ev) {
                    Some(entry) => entry.1 = entry.1.max(c),
                    None => widest.push((ev, c)),
                }
            }
            if rung == last_rung {
                let scen = sched.events[ev as usize].scenario;
                if best_fit(s.misfit_scores()) == Some(scen) {
                    out.top1_hits += 1;
                }
                out.sessions += 1;
                if churn {
                    eng.close(id);
                    ids[ev as usize] = usize::MAX;
                }
            }
        }
        ops.tick(&widest);
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out.ops = ops;
    out.engine = Readout::read(&eng, pool_start);
    if tr.is_on() {
        out.registry_json = eng.registry().render_json();
    }
    out
}

/// What the engine's own registry recorded over one replay.
#[derive(Clone, Debug, Default)]
pub struct Readout {
    /// Stage busy seconds summed over shards and ticks.
    pub drain_s: f64,
    pub identify_s: f64,
    pub assimilate_s: f64,
    pub classify_s: f64,
    /// Stage records (one per shard per tick).
    pub stage_records: u64,
    /// Mean per-chunk assimilation span of each rung, ms.
    pub rung_ms: Vec<f64>,
    pub drained: u64,
    pub scored: u64,
    pub folded: u64,
    pub projected: u64,
    pub panels: u64,
    pub assimilated: u64,
    pub transitions: u64,
    pub ticks: u64,
    pub pool_jobs: u64,
    pub pool_handoffs: u64,
    pub pool_wakeups: u64,
    pub peak_panel_elems: u64,
    pub scratch_bytes: u64,
}

impl Readout {
    fn read(eng: &StreamEngine<'_>, start: rayon::PoolStats) -> Self {
        let reg = eng.registry();
        let hist = |name: &str| match reg.get(name) {
            Some(Metric::Histogram(h)) => {
                let s = h.snapshot();
                (s.sum as f64 * 1e-9, s.count)
            }
            _ => (0.0, 0),
        };
        let scalar = |name: &str| match reg.get(name) {
            Some(Metric::Counter(c)) => c.get(),
            Some(Metric::Gauge(g)) => g.get(),
            _ => 0,
        };
        let rung_ms = (0..WINDOWS.len())
            .map(|w| {
                let (s, n) = hist(&format!("stream.rung.{w}.assimilate"));
                if n == 0 {
                    0.0
                } else {
                    s * 1e3 / n as f64
                }
            })
            .collect();
        Readout {
            drain_s: hist("stream.tick.drain").0,
            identify_s: hist("stream.tick.identify").0,
            assimilate_s: hist("stream.tick.assimilate").0,
            classify_s: hist("stream.tick.classify").0,
            stage_records: hist("stream.tick.drain").1,
            rung_ms,
            drained: scalar("stream.samples.drained"),
            scored: scalar("stream.samples.scored"),
            folded: scalar("stream.samples.folded"),
            projected: scalar("stream.samples.projected"),
            panels: scalar("stream.panels"),
            assimilated: scalar("stream.sessions.assimilated"),
            transitions: scalar("stream.warnings.transitions"),
            ticks: scalar("stream.ticks"),
            pool_jobs: scalar("pool.jobs").saturating_sub(start.jobs as u64),
            pool_handoffs: scalar("pool.handoffs").saturating_sub(start.handoffs as u64),
            pool_wakeups: scalar("pool.wakeups").saturating_sub(start.wakeups as u64),
            peak_panel_elems: scalar("stream.peak_panel_elems"),
            scratch_bytes: scalar("stream.scratch.bytes"),
        }
    }
}

/// Index of the smallest finite misfit; `None` if any misfit is not
/// finite (the ranking is then meaningless).
pub fn best_fit(misfit: &[f64]) -> Option<usize> {
    if misfit.iter().any(|m| !m.is_finite()) {
        return None;
    }
    misfit
        .iter()
        .enumerate()
        .min_by(|a, b| a.1.total_cmp(b.1))
        .map(|(j, _)| j)
}
