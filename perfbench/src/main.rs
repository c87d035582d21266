//! End-to-end and per-layer benchmark of the tsunami digital twin.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `single-event` (offline build, then repeated full-horizon
//! Phase 4 on one forward-solved event), `stream-windowed`,
//! `stream-goal` and `stream-modespace` (the streaming engine on three
//! assimilation paths). Every workload also runs a small amount of the
//! others' work so each end-to-end metric exists on each workload; the
//! mix differs, so each workload stresses its own layers.
//!
//! A run sets up three times (`setup_s` is the median), then measures in
//! rounds: each round times a block of Phase-4 solves, replays fresh
//! sessions open-loop against a 1 ms service cadence (latency from each
//! sample's due time), and replays them again closed-loop for capacity.
//! Every timing is the interquartile mean of its per-round values.
//!
//! `--trace 0` prints the end-to-end metrics of a run with the
//! telemetry switched off; `--trace 1` repeats the run on the same seed
//! with telemetry on and prints the per-layer metrics, writing the spans
//! to `.bench_out/`. The p99 latencies are per-layer figures: on a small
//! shared virtual machine the tail of a sub-millisecond operation tracks
//! vCPU preemption by the host more than the program. The last line of
//! standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod drive;
mod failure;
mod flops;
mod layers;
mod online;
mod probe;
mod report;
mod rng;
mod schedule;
mod setup;
mod stats;
mod trace;

use drive::{LoopOut, Pace, Round};
use failure::{Failure, Oracle};
use online::P4Out;
use report::Report;
use schedule::{ScheduleSpec, Starts};
use setup::{Assets, WINDOWS};
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use tsunami_core::baseline::solve_map_cg;
use tsunami_core::metrics::ci95_coverage;
use tsunami_core::WindowedForecaster;
use tsunami_linalg::CgOptions;
use tsunami_stream::{classify_forecast, forecast_band};

/// Worker threads: the benchmark is sized for a two-core machine.
pub const THREADS: usize = 2;
/// Share of sessions fed one non-finite sample.
const NAN_FRAC: f64 = 0.01;
/// Sessions per round whose forecasts are checked against the exact oracle.
const CHECKED: usize = 8;
/// Measurement rounds. Each round runs a block of Phase-4 solves, an
/// open-loop pass and a closed-loop pass on inputs of its own. A metric
/// is the interquartile mean of its per-round values: rounds hit by a
/// stall from elsewhere on the machine fall in the trimmed quarters, and
/// slower and faster phases of the machine average out.
const ROUNDS: usize = 16;
/// Open-loop service cadence: the loop ticks every this many seconds.
const CADENCE: f64 = 1e-3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    SingleEvent,
    Windowed,
    Goal,
    ModeSpace,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "single-event" => Workload::SingleEvent,
            "stream-windowed" => Workload::Windowed,
            "stream-goal" => Workload::Goal,
            "stream-modespace" => Workload::ModeSpace,
            _ => return None,
        })
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(5.0..=600.0).contains(&seconds) {
        return Err(
            "--seconds must lie in [5, 600]: shorter runs leave too few decisions per round".into(),
        );
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Fixed amounts of work per round, scaled by `--seconds`.
pub struct Plan {
    pub spec: ScheduleSpec,
    /// Full-horizon Phase-4 solves.
    pub p4_calls: usize,
    /// Closed-loop schedule time per tick.
    pub quantum: f64,
}

pub fn plan(w: Workload, seconds: f64, nd: usize, nt: usize, n_scenarios: usize) -> Plan {
    let round_s = seconds / ROUNDS as f64;
    // Offered sessions per second: a constant at 25-40 % of the
    // engine's closed-loop capacity on two cores, low enough that a slow
    // phase of a shared machine does not tip the open loop into
    // overload, high enough that ticks batch real work. Then wall
    // seconds per observation step, share of a round given to the open
    // loop, start layout, and Phase-4 solves per second of round (at
    // least 1100 per round).
    let (rate, step_s, open_share, starts, p4_per_s) = match w {
        Workload::SingleEvent => (250.0, 0.005, 0.45, Starts::Staggered, 1500.0),
        Workload::Windowed => (
            800.0,
            0.005,
            0.45,
            Starts::Waves {
                waves: 2,
                jitter: 0.5,
            },
            0.0,
        ),
        Workload::Goal => (1000.0, 0.005, 0.45, Starts::Staggered, 0.0),
        Workload::ModeSpace => (3000.0, 0.005, 0.45, Starts::Staggered, 0.0),
    };
    let lifetime = nt as f64 * step_s;
    Plan {
        spec: ScheduleSpec {
            rate,
            span: (open_share * round_s - lifetime).max(step_s),
            step_s,
            nd,
            nt,
            windows: WINDOWS.to_vec(),
            starts,
            n_scenarios,
            nan_frac: NAN_FRAC,
            max_parts: 4,
        },
        p4_calls: ((p4_per_s * round_s) as usize).max(1100),
        quantum: step_s / 4.0,
    }
}

fn vm_hwm_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn l2(v: &[f64]) -> f64 {
    v.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Check each kept forecast against the exact windowed oracle and attach
/// the oracle's view to its decision. Returns the number of checks and
/// the number outside the rung's certified bound.
fn oracle_checks(
    a: &Assets,
    w: Workload,
    oracle: &WindowedForecaster,
    data: &[Vec<f64>],
    out: &mut LoopOut,
) -> (usize, usize) {
    let nd = a.twin.solver.sensors.len();
    let (mut checks, mut bad) = (0, 0);
    for rec in &mut out.decisions {
        let (Some(q), Some(r)) = (rec.q_map.as_ref(), rec.classified_at) else {
            continue;
        };
        let d = &data[rec.event as usize][..WINDOWS[r] * nd];
        let exact = oracle.forecast(r, d);
        let diff: Vec<f64> = q.iter().zip(&exact.q_map).map(|(x, y)| x - y).collect();
        let certified = match w {
            Workload::Goal => a.goal.as_ref().expect("goal").mean_error_bound(r, l2(d)),
            Workload::ModeSpace => a.ms.as_ref().expect("ms").mean_error_bound(r, l2(d)),
            _ => 0.0,
        };
        // Roundoff allowance on top of the certified truncation bound.
        let bound = certified + 1e-9 * (l2(&exact.q_map) + certified);
        checks += 1;
        if l2(&diff) > bound {
            bad += 1;
        }
        rec.decision.oracle = Some(Oracle {
            level: classify_forecast(&exact, a.threshold),
            band: forecast_band(&exact),
            bound,
        });
    }
    (checks, bad)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(3)
        }
    }
}

/// Everything measured over the rounds.
pub struct Measured {
    pub rounds: Vec<Round>,
    pub p4: P4Out,
    /// Phase-4 latencies per round.
    pub p4_rounds: Vec<Vec<f64>>,
    pub open: Vec<LoopOut>,
    pub closed: Vec<LoopOut>,
}

fn run(args: &Args) -> Result<(), String> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(THREADS)
        .build_global()
        .map_err(|e| e.to_string())?;
    tsunami_obs::set_enabled(args.trace);
    let (w, seed) = (args.workload, args.seed);
    let tr = Tracer::new(args.trace);

    // Set-up, repeated so its median is steady; a traced run sets up once.
    let repeats = if args.trace { 1 } else { 3 };
    let mut setup_s = Vec::new();
    let mut built: Option<Assets> = None;
    for _ in 0..repeats {
        // Drop the previous build first, so memory peaks at one twin.
        drop(built.take());
        let t = Instant::now();
        built = Some(tr.span("setup", || setup::build(w, seed, &tr)));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let a = built.expect("at least one set-up");
    let nd = a.twin.solver.sensors.len();
    let nt = a.twin.solver.grid.nt_obs;
    println!(
        "workload {} seed {seed} seconds {} trace {} threads {} (available {})",
        workload_name(w),
        args.seconds,
        u8::from(args.trace),
        rayon::current_num_threads(),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!(
        "twin: n_data {} n_params {} QoI {} | bank {} | threshold {:.4e} m",
        a.twin.n_data(),
        a.twin.n_params(),
        a.twin.phase3.q_map.nrows(),
        a.bank.len(),
        a.threshold
    );

    // Generated inputs: the program under test sees only these.
    let pl = plan(w, args.seconds, nd, nt, a.n_replay);
    let rounds: Vec<Round> = (0..ROUNDS)
        .map(|r| Round::generate(&a, &pl.spec, seed, r, CHECKED))
        .collect();
    let p4_data = match &a.event {
        Some(ev) => ev.d_obs.clone(),
        None => rounds[0].data[rounds[0].checked.iter().position(|&c| c).unwrap_or(0)].clone(),
    };
    println!(
        "per round: {} sessions at {} /s over {:.3} s, {} deliveries, step {} s, {} NaN-fed, {} Phase-4 solves; {ROUNDS} rounds",
        rounds[0].sched.events.len(),
        pl.spec.rate,
        pl.spec.span,
        rounds[0].sched.parts.len(),
        pl.spec.step_s,
        rounds[0].sched.events.iter().filter(|e| e.nan_at.is_some()).count(),
        pl.p4_calls
    );

    // Measurement: the rounds, each a Phase-4 block, an open loop and a
    // closed loop.
    let mut m = Measured {
        p4: P4Out::default(),
        p4_rounds: Vec::new(),
        open: Vec::new(),
        closed: Vec::new(),
        rounds,
    };
    let open_pace = Pace::Open { cadence: CADENCE };
    let closed_pace = Pace::Closed {
        quantum: pl.quantum,
    };
    for r in &m.rounds {
        let before = m.p4.total_ms.len();
        tr.span("phase4", || {
            online::solve(&a, &p4_data, pl.p4_calls, &tr, &mut m.p4)
        });
        m.p4_rounds.push(m.p4.total_ms[before..].to_vec());
        m.open
            .push(tr.span("open_loop", || drive::replay(&a, w, r, open_pace, &tr)));
        m.closed
            .push(tr.span("closed_loop", || drive::replay(&a, w, r, closed_pace, &tr)));
    }

    // Output checks.
    let mut correct = true;
    let mut notes = Vec::new();
    let (m_map, fc) = m.p4.first.as_ref().expect("at least one Phase-4 solve");
    if let Some(ev) = &a.event {
        let sigma2 = a.twin.noise_std * a.twin.noise_std;
        let opts = CgOptions {
            rtol: 1e-10,
            max_iter: 5000,
            ..CgOptions::default()
        };
        let (m_cg, cg) = solve_map_cg(
            &a.twin.phase1.fast_f,
            &a.twin.prior,
            sigma2,
            &ev.d_obs,
            &opts,
        );
        let diff: Vec<f64> = m_map.iter().zip(&m_cg).map(|(x, y)| x - y).collect();
        let rel = l2(&diff) / l2(m_map);
        let coverage = ci95_coverage(&fc.q_map, &fc.q_std, &ev.q_true);
        let ok = cg.converged && rel <= 1e-6 && coverage >= 0.75;
        notes.push(format!(
            "check Phase-4 posterior mean vs parameter-space CG: rel diff {rel:.2e} (tol 1e-6, {} iterations); forecast 95% CI coverage of the true QoI {coverage:.3} (tol >= 0.75): {}",
            cg.iterations,
            if ok { "ok" } else { "FAILED" }
        ));
        correct &= ok;
    }
    notes.push(format!(
        "check Phase-4 repeats bit for bit over {} solves: {}",
        m.p4.total_ms.len(),
        if m.p4.mismatches == 0 { "ok" } else { "FAILED" }
    ));
    correct &= m.p4.mismatches == 0;
    let built_oracle;
    let oracle = match &a.wf {
        Some(wf) => wf,
        None => {
            built_oracle = a.twin.windowed(&WINDOWS);
            &built_oracle
        }
    };
    let (mut checks, mut bad, mut complete) = (0, 0, true);
    for (r, (open, closed)) in m.rounds.iter().zip(m.open.iter_mut().zip(&m.closed)) {
        let (c, b) = oracle_checks(&a, w, oracle, &r.data, open);
        checks += c;
        bad += b;
        complete &=
            open.sessions == r.sched.events.len() && closed.sessions == r.sched.events.len();
    }
    notes.push(format!(
        "check stream forecasts vs the exact windowed oracle: {bad} of {checks} outside the rung's certified bound: {}",
        if bad == 0 && checks > 0 { "ok" } else { "FAILED" }
    ));
    notes.push(format!(
        "check every session reached its horizon in both loops: {}",
        if complete { "ok" } else { "FAILED" }
    ));
    correct &= bad == 0 && checks > 0 && complete;

    // Failure accounting: an operation is one warning decision or one
    // Phase-4 solve.
    let mut kinds = [0usize; 4];
    let mut decisions = 0;
    for rec in m.open.iter().flat_map(|o| &o.decisions) {
        decisions += 1;
        if let Some(f) = failure::classify(&rec.decision, a.threshold) {
            kinds[f as usize] += 1;
        }
    }
    let solves = m.p4.total_ms.len();
    let attempted = decisions + solves;
    let failed = kinds.iter().sum::<usize>() + m.p4.failed;
    notes.push(format!(
        "failures: {failed} of {attempted} operations ({decisions} decisions, {solves} Phase-4 solves): unclassified {}, all-clear on a NaN-fed session {}, non-finite band {}, outside certified bound {}, non-finite Phase-4 output {}",
        kinds[Failure::Unclassified as usize],
        kinds[Failure::AllClearOnBadData as usize],
        kinds[Failure::NonFiniteBand as usize],
        kinds[Failure::OutsideCertifiedBound as usize],
        m.p4.failed
    ));

    let mut rep = Report::default();
    if !args.trace {
        rep.put(
            "setup_s",
            stats::median(&setup_s),
            "s",
            format!("median of {} set-ups", setup_s.len()),
        );
        rep.pct_rounds("online_p50_ms", &m.p4_rounds, 0.50, "ms")?;
        rep.pct_rounds("decision_p50_ms", &decision_ms(&m.open), 0.50, "ms")?;
        let caps: Vec<f64> = m
            .rounds
            .iter()
            .zip(&m.closed)
            .map(|(r, c)| r.sched.total_steps(nt) as f64 / c.wall_s)
            .collect();
        rep.put(
            "capacity_steps_per_s",
            stats::iqm(&caps),
            "1/s",
            format!(
                "interquartile mean over {ROUNDS} closed-loop replays of {} steps: {}",
                m.rounds[0].sched.total_steps(nt),
                caps.iter()
                    .map(|c| format!("{c:.0}"))
                    .collect::<Vec<_>>()
                    .join("/")
            ),
        );
        let hits: usize = m.open.iter().map(|o| o.top1_hits).sum();
        let sessions: usize = m.open.iter().map(|o| o.sessions).sum();
        rep.put(
            "identify_top1_frac",
            hits as f64 / sessions.max(1) as f64,
            "1",
            format!("{hits} of {sessions} sessions"),
        );
        rep.put(
            "failed_frac",
            failed as f64 / attempted as f64,
            "1",
            format!("{failed} of {attempted}"),
        );
        rep.put("peak_rss_mb", vm_hwm_mib(), "MiB", "VmHWM at exit");
    } else {
        layers::report(&mut rep, args, &pl, &a, &tr, &m)?;
    }

    for n in &notes {
        println!("{n}");
    }
    if args.trace {
        let path = format!(".bench_out/trace-{}-seed{seed}.json", workload_name(w));
        let registries: Vec<&str> = m.open.iter().map(|o| o.registry_json.as_str()).collect();
        let extra = format!(
            "\"setup_timers\": {},\n\"open_loop_registries\": [{}]\n",
            layers::timers_json(&a),
            registries.join(",\n")
        );
        tr.write(Path::new(&path), &extra)
            .map_err(|e| format!("{path}: {e}"))?;
        println!("spans written to {path}");
    }
    rep.print(correct, attempted, failed)
}

/// Per round, the latency (ms) of every classified decision.
pub fn decision_ms(open: &[LoopOut]) -> Vec<Vec<f64>> {
    open.iter()
        .map(|o| {
            o.decisions
                .iter()
                .filter(|r| r.decision.classified)
                .map(|r| r.latency * 1e3)
                .collect()
        })
        .collect()
}

fn workload_name(w: Workload) -> &'static str {
    match w {
        Workload::SingleEvent => "single-event",
        Workload::Windowed => "stream-windowed",
        Workload::Goal => "stream-goal",
        Workload::ModeSpace => "stream-modespace",
    }
}
