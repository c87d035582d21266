//! The benchmark's twin configuration and the offline set-up of each
//! workload: scenario generation, Phases 1–3, and ladder/POD builds.

use crate::rng::Rng;
use crate::stats;
use crate::trace::Tracer;
use crate::Workload;
use tsunami_core::{
    DigitalTwin, GoalLadder, GoalOptions, ModeSpaceLadder, ModeSpaceOptions, Phase1, Phase2,
    Phase3, PodBank, ScenarioBank, SpaceTimePrior, SyntheticEvent, TwinConfig, WindowedForecaster,
};
use tsunami_hpc::TimerRegistry;
use tsunami_linalg::random::seeded_rng;
use tsunami_linalg::DMatrix;

/// Window ladder (observation steps) shared by every stream workload.
pub const WINDOWS: [usize; 4] = [4, 8, 12, 16];
/// Scenarios generated by PDE forward solves for the stream workloads.
pub const GENERATED: usize = 16;
/// Identification bank of `stream-goal`: the generated scenarios plus
/// seeded superpositions of them.
pub const GOAL_BANK: usize = 2048;
/// Rank of the goal-oriented ladder's per-rung factors.
pub const GOAL_RANK: usize = 8;
/// POD rank shared by mode-space identification and assimilation.
pub const POD_RANK: usize = 8;
/// Identification bank of `single-event`: the event plus prior curves.
pub const SINGLE_BANK: usize = 16;

/// `demo()` coarsened to a 6×8×1 mesh with a 4×4 sensor array, 4 QoI
/// points and Nt = 16 (n_data = 256, n_params = 1536). The slower sound
/// speed relaxes the acoustic CFL limit so one offline build stays near
/// three seconds on two cores; the online dimensions are unchanged by it.
pub fn twin_config() -> TwinConfig {
    TwinConfig {
        nx: 6,
        ny: 8,
        nz: 1,
        sound_speed: Some(150.0),
        sensor_grid: (4, 4),
        n_qoi: 4,
        inv_grid: (8, 12),
        nt_obs: 16,
        ..TwinConfig::demo()
    }
}

/// Everything a workload's measurement needs, built offline.
pub struct Assets {
    pub twin: DigitalTwin,
    /// Identification bank the engine scores against.
    pub bank: ScenarioBank,
    /// Bank columns sessions replay (a prefix of the bank).
    pub n_replay: usize,
    /// Exact window ladder: the engine's operators on `single-event` and
    /// `stream-windowed`, the source of the factored ladder on
    /// `stream-goal`.
    pub wf: Option<WindowedForecaster>,
    pub goal: Option<GoalLadder>,
    pub pod: Option<PodBank>,
    pub ms: Option<ModeSpaceLadder>,
    /// The one forward-solved event of `single-event`.
    pub event: Option<SyntheticEvent>,
    /// Warning threshold: half the median peak true wave height.
    pub threshold: f64,
}

/// Run Phases 1–3 with spans around each public build.
fn offline(
    cfg: &TwinConfig,
    solver: tsunami_solver::WaveSolver,
    noise_std: f64,
    tr: &Tracer,
) -> DigitalTwin {
    let timers = TimerRegistry::new();
    let phase1 = tr.span("core.phase1", || Phase1::build(&solver, &timers));
    let spatial = cfg.build_prior();
    let phase2 = tr.span("core.phase2", || {
        Phase2::build(&phase1, &spatial, noise_std, &timers)
    });
    let phase3 = tr.span("core.phase3", || Phase3::build(&phase1, &phase2, &timers));
    let prior = SpaceTimePrior::new(cfg.build_prior(), solver.grid.nt_obs);
    DigitalTwin {
        config: cfg.clone(),
        solver,
        prior,
        noise_std,
        phase1,
        phase2,
        phase3,
        timers,
    }
}

/// `n` seeded prior samples pushed through the p2o map `F` (FFT
/// matvecs, no PDE solves), each rescaled to a seeded multiple of
/// `rms` so they compete with the generated scenarios.
fn prior_curves(twin: &DigitalTwin, n: usize, rms: f64, seed: u64) -> DMatrix {
    let mut rng = seeded_rng(seed);
    let mut m = DMatrix::zeros(twin.n_params(), n);
    for j in 0..n {
        m.set_col(j, &twin.prior.sample(&mut rng));
    }
    let mut d = twin.phase1.fast_f.matmat(&m);
    let mut scale = Rng::fork(seed, 2);
    for j in 0..n {
        let col = d.col(j);
        let norm = (col.iter().map(|v| v * v).sum::<f64>() / col.len() as f64).sqrt();
        let s = rms * (0.5 + scale.uniform()) / norm.max(1e-300);
        let v: Vec<f64> = col.iter().map(|v| v * s).collect();
        d.set_col(j, &v);
    }
    d
}

/// `n` seeded superpositions `a·d_i + b·d_k` of two distinct generated
/// curves with `a, b ∈ [0.3, 1)`: plausible linear-model events that
/// stay well separated from every pure scenario.
fn mixture_curves(clean: &DMatrix, n: usize, seed: u64) -> DMatrix {
    let g = clean.ncols();
    let mut rng = Rng::fork(seed, 4);
    let picks: Vec<(usize, usize, f64, f64)> = (0..n)
        .map(|_| {
            let i = rng.below(g);
            let k = (i + 1 + rng.below(g - 1)) % g;
            (i, k, 0.3 + 0.7 * rng.uniform(), 0.3 + 0.7 * rng.uniform())
        })
        .collect();
    DMatrix::from_fn(clean.nrows(), n, |r, j| {
        let (i, k, a, b) = picks[j];
        a * clean[(r, i)] + b * clean[(r, k)]
    })
}

fn rms_of(clean: &DMatrix, j: usize) -> f64 {
    let c = clean.col(j);
    (c.iter().map(|v| v * v).sum::<f64>() / c.len() as f64).sqrt()
}

/// Stack `head` (generated columns) and `tail` column-wise.
fn stack(head: &DMatrix, tail: &DMatrix) -> DMatrix {
    let (nh, nt) = (head.ncols(), tail.ncols());
    DMatrix::from_fn(head.nrows(), nh + nt, |i, j| {
        if j < nh {
            head[(i, j)]
        } else {
            tail[(i, j - nh)]
        }
    })
}

fn threshold(q_true: &[Vec<f64>]) -> f64 {
    let peaks: Vec<f64> = q_true
        .iter()
        .map(|q| q.iter().cloned().fold(f64::NEG_INFINITY, f64::max))
        .collect();
    0.5 * stats::median(&peaks)
}

/// Build a workload's assets. Every call repeats the whole set-up, so
/// repeated calls measure repeated set-ups.
pub fn build(w: Workload, seed: u64, tr: &Tracer) -> Assets {
    let cfg = twin_config();
    let solver = tr.span("solver.build", || cfg.build_solver());
    match w {
        Workload::SingleEvent => {
            let spec = &ScenarioBank::family(&cfg, 1, seed)[0];
            let rupture = spec.build_rupture(&cfg);
            let event = tr.span("solver.forward", || {
                SyntheticEvent::generate(&cfg, &solver, &rupture, spec.seed)
            });
            let twin = offline(&cfg, solver, event.noise_std, tr);
            let clean = DMatrix::from_fn(event.d_clean.len(), 1, |i, _| event.d_clean[i]);
            let rms = rms_of(&clean, 0);
            let tail = tr.span("core.prior_curves", || {
                prior_curves(&twin, SINGLE_BANK - 1, rms, seed)
            });
            let all = stack(&clean, &tail);
            let bank = ScenarioBank::synthetic(all.clone(), all, event.noise_std);
            let wf = tr.span("core.ladder", || twin.windowed(&WINDOWS));
            let q_true = [event.q_true.clone()];
            Assets {
                threshold: threshold(&q_true),
                twin,
                bank,
                n_replay: 1,
                wf: Some(wf),
                goal: None,
                pod: None,
                ms: None,
                event: Some(event),
            }
        }
        Workload::Windowed | Workload::Goal | Workload::ModeSpace => {
            let specs = ScenarioBank::family(&cfg, GENERATED, seed);
            let generated = tr.span("solver.forward", || {
                ScenarioBank::generate(&cfg, &solver, &specs)
            });
            let twin = offline(&cfg, solver, generated.noise_std(), tr);
            let q_true: Vec<Vec<f64>> = generated
                .scenarios
                .iter()
                .map(|s| s.event.q_true.clone())
                .collect();
            let mut a = Assets {
                threshold: threshold(&q_true),
                n_replay: GENERATED,
                wf: None,
                goal: None,
                pod: None,
                ms: None,
                event: None,
                bank: generated,
                twin,
            };
            match w {
                Workload::Windowed => {
                    a.wf = Some(tr.span("core.ladder", || a.twin.windowed(&WINDOWS)));
                }
                Workload::Goal => {
                    let clean = a.bank.clean_observations();
                    let tail = tr.span("core.mixture_curves", || {
                        mixture_curves(clean, GOAL_BANK - GENERATED, seed)
                    });
                    let all = stack(clean, &tail);
                    let noise = a.bank.noise_std();
                    a.bank = ScenarioBank::synthetic(all.clone(), all, noise);
                    let (wf, goal) = tr.span("core.ladder", || {
                        let wf = a.twin.windowed(&WINDOWS);
                        let goal = tr.span("linalg.svd", || {
                            GoalLadder::from_forecaster(&wf, &GoalOptions::rank(GOAL_RANK))
                        });
                        (wf, goal)
                    });
                    a.wf = Some(wf);
                    a.goal = Some(goal);
                }
                Workload::ModeSpace => {
                    let pod = tr.span("linalg.svd", || a.bank.compress(POD_RANK));
                    let opts = ModeSpaceOptions {
                        inference: true,
                        ..ModeSpaceOptions::default()
                    };
                    a.ms = Some(tr.span("core.ladder", || {
                        a.twin.mode_space_ladder(&WINDOWS, pod.modes(), &opts)
                    }));
                    a.pod = Some(pod);
                }
                Workload::SingleEvent => unreachable!(),
            }
            a
        }
    }
}
