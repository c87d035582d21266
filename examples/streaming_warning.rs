//! Streaming early warning: replay a bank of rupture scenarios as
//! interleaved live sensor feeds and watch the warning timeline sharpen.
//!
//! Every scenario becomes one concurrent observation session. Each round,
//! every session receives its next observation step (one sample per
//! sensor), then a single engine tick micro-batches all sessions that
//! crossed the same window-ladder rung through one multi-RHS windowed
//! inference + forecast. The printed timeline shows, per session, the
//! warning level firming up and the scenario identification locking on as
//! the window grows.
//!
//! ```text
//! cargo run --release --example streaming_warning
//! ```
//!
//! By default the replay runs on `TwinConfig::tiny()` (seconds). Set
//! `STREAMING_DEMO=1` for the demo-scale variant on `TwinConfig::demo()`
//! — a 4×4 sensor array over an 18-step horizon whose offline build takes
//! a couple of minutes on one core, the regime where the micro-batched
//! tick and bank-scale identification actually pay off.

use cascadia_dt::prelude::*;

/// `STREAMING_DEMO=1` selects the demo-scale configuration.
fn demo_scale() -> bool {
    std::env::var("STREAMING_DEMO")
        .map(|v| v == "1")
        .unwrap_or(false)
}

fn main() {
    println!("== Streaming assimilation: live warning timeline ==\n");
    let config = if demo_scale() {
        println!("(STREAMING_DEMO=1: demo-scale twin, offline build takes minutes)\n");
        TwinConfig::demo()
    } else {
        TwinConfig::tiny()
    };

    // 1. Offline: a bank of diverse rupture scenarios and one precomputed
    //    twin + window ladder that will serve every live stream.
    let n_sessions = 6;
    let specs = ScenarioBank::family(&config, n_sessions, 7);
    let solver = config.build_solver();
    let bank = ScenarioBank::generate(&config, &solver, &specs);
    drop(solver);
    let twin = DigitalTwin::offline(config, bank.noise_std());
    let nt = twin.solver.grid.nt_obs;
    let nd = twin.solver.sensors.len();
    let ladder: Vec<usize> = [1, 2, 4, 8, nt]
        .iter()
        .cloned()
        .filter(|&w| w <= nt)
        .collect();
    let forecaster = twin.windowed(&ladder);
    println!(
        "bank: {} scenarios · ladder: {:?} observation steps · {} sensors",
        bank.len(),
        forecaster.windows,
        nd
    );

    // 2. The streaming engine: one session per scenario, assimilated in
    //    bounded panels of 4, classified against a 1 m wave threshold.
    let stream_cfg = StreamConfig {
        chunk: 4,
        warn_threshold: 1.0,
        infer: true,
        ..StreamConfig::default()
    };
    let mut engine = StreamEngine::new(&twin, &forecaster, stream_cfg).with_bank(&bank);
    let ids: Vec<usize> = (0..bank.len()).map(|_| engine.open()).collect();
    let feeds: Vec<Vec<f64>> = (0..bank.len())
        .map(|j| bank.observations().col(j))
        .collect();
    let mut levels = vec![WarningLevel::AllClear; bank.len()];

    // 3. Replay: interleaved live feeds, one observation step per session
    //    per round, with a tick after every round.
    println!(
        "\n--- warning timeline (threshold {} m) ---",
        stream_cfg.warn_threshold
    );
    for t in 0..nt {
        for (d, &id) in feeds.iter().zip(&ids) {
            engine.push(id, &d[t * nd..(t + 1) * nd]);
        }
        let tm = engine.tick();
        if tm.sessions_assimilated == 0 {
            continue;
        }
        println!(
            "t = {:>5.1} s | {} sessions in {} panel(s), {:.2} ms ({:.0} sessions/s)",
            (t + 1) as f64 * twin.config.dt_obs,
            tm.sessions_assimilated,
            tm.panels,
            tm.seconds * 1e3,
            tm.sessions_per_sec()
        );
        for (j, &id) in ids.iter().enumerate() {
            let s = engine.session(id);
            let (Some(w), Some(fc)) = (s.window(), s.forecast.as_ref()) else {
                continue;
            };
            let peak = fc.q_map.iter().cloned().fold(f64::MIN, f64::max);
            let top = &engine.ranked_matches(id)[0];
            let flip = if s.level != levels[j] {
                " <-- level change"
            } else {
                ""
            };
            levels[j] = s.level;
            println!(
                "    S{j}: window {:>2} steps | peak {:>6.2} m ± {:>5.2} | {:<9} | best match #{} (p = {:.2}){flip}",
                forecaster.windows[w],
                peak,
                1.96 * fc.q_std.iter().cloned().fold(f64::MIN, f64::max),
                s.level,
                top.scenario,
                top.probability,
            );
        }
    }

    // 4. Scorecard: identification accuracy and engine totals.
    let correct = ids
        .iter()
        .enumerate()
        .filter(|(j, &id)| engine.ranked_matches(id)[0].scenario == *j)
        .count();
    let em = engine.metrics();
    println!("\n--- scorecard ---");
    println!("identified {correct}/{} streams correctly", bank.len());
    println!(
        "{} assimilations over {} ticks in {} panels, total {:.2} ms",
        em.assimilations,
        em.ticks,
        em.panels,
        em.seconds * 1e3
    );
    println!(
        "peak materialized panel: {} elements (chunk bound: {})",
        em.peak_panel_elems,
        twin.n_data().max(twin.n_params()) * stream_cfg.chunk
    );
    for (j, &id) in ids.iter().enumerate() {
        let s = engine.session(id);
        println!(
            "  S{j}: Mw {:>4.2} | final {:<9} | m-norm {:.3}",
            bank.scenarios[j].event.magnitude,
            s.level,
            s.m_norm.unwrap_or(0.0),
        );
    }

    // 5. Audit trail: the engine's bounded ring has recorded every
    //    warning-level transition with the evidence behind it.
    println!(
        "\n--- warning audit trail ({} transitions) ---",
        engine.audit().len()
    );
    for tr in engine.audit().iter() {
        let top = tr
            .top_scenario
            .map(|(s, p)| format!("#{s} (p = {p:.2})"))
            .unwrap_or_else(|| "-".into());
        println!(
            "  tick {:>2} S{} rung {}: {:<9} -> {:<9} | band [{:>6.2}, {:>6.2}] m | top {top}",
            tr.tick, tr.session, tr.rung, tr.from, tr.to, tr.band_lo, tr.band_hi
        );
    }
}
