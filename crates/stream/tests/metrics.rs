//! The engine's registry is the one store of its lifetime counts:
//! [`StreamEngine::metrics`], [`StreamEngine::shard_panel_peaks`], and the
//! registry's counters and gauges must all agree with the sums of the
//! per-tick [`TickMetrics`], whether the `OBS` span switch is on or off.
//!
//! This test owns its binary because it flips the process-global `OBS`
//! switch ([`tsunami_obs::set_enabled`]) and reads the global pool
//! counters.

use tsunami_core::{DigitalTwin, GoalOptions, ScenarioBank, TwinConfig};
use tsunami_obs::{Metric, Registry};
use tsunami_stream::{EngineMetrics, StreamConfig, StreamEngine, TickMetrics};

fn scalar(reg: &Registry, name: &str) -> u64 {
    match reg.get(name) {
        Some(Metric::Counter(c)) => c.get(),
        Some(Metric::Gauge(g)) => g.get(),
        other => panic!("{name}: expected a counter or gauge, got {other:?}"),
    }
}

fn histogram_count_sum(reg: &Registry, name: &str) -> (u64, u64) {
    match reg.get(name) {
        Some(Metric::Histogram(h)) => {
            let s = h.snapshot();
            (s.count, s.sum)
        }
        other => panic!("{name}: expected a histogram, got {other:?}"),
    }
}

/// The counts a run must reproduce regardless of the `OBS` switch.
fn counts(em: &EngineMetrics) -> [usize; 7] {
    [
        em.ticks,
        em.assimilations,
        em.panels,
        em.samples_ingested,
        em.peak_panel_elems,
        em.rings_allocated,
        em.scratch_bytes,
    ]
}

/// Replay every bank scenario into a fresh engine (with `bank` attached)
/// in ragged pieces, alternating direct pushes and lock-free enqueues,
/// closing and reopening one session mid-stream (with a batch still
/// staged for the closed event), and over-feeding one full session.
/// Checks every metric view against the returned tick records and gives
/// back the lifetime totals.
fn replay_and_check<'a>(
    make: impl FnOnce() -> StreamEngine<'a>,
    bank: &'a ScenarioBank,
    label: &str,
) -> [usize; 7] {
    let pool_jobs0 = rayon::pool_stats().jobs;
    let mut engine = make().with_bank(bank);
    let horizon = bank.observations().nrows();
    let cols: Vec<Vec<f64>> = (0..bank.len())
        .map(|j| bank.observations().col(j))
        .collect();
    let mut ids: Vec<usize> = cols.iter().map(|_| engine.open()).collect();
    let mut fed = vec![0usize; cols.len()];
    let mut pushed = 0usize;
    let mut ticks: Vec<TickMetrics> = Vec::new();
    let mut round = 0;
    while fed.iter().any(|&f| f < horizon) {
        for (j, col) in cols.iter().enumerate() {
            let hi = (fed[j] + 2 + (j + round) % 5).min(horizon);
            let piece = &col[fed[j]..hi];
            if (j + round) % 2 == 0 {
                pushed += engine.push(ids[j], piece);
            } else {
                engine.enqueue(ids[j], piece);
            }
            fed[j] = hi;
        }
        if round == 3 {
            engine.enqueue(ids[0], &cols[0][..5]);
            engine.close(ids[0]);
            ids[0] = engine.open();
            fed[0] = 0;
        }
        if fed[1] == horizon {
            // Past the horizon: clamped to nothing on either path.
            pushed += engine.push(ids[1], &cols[1][..3]);
            engine.enqueue(ids[1], &cols[1][..3]);
        }
        ticks.push(engine.tick());
        round += 1;
    }

    let sum = |f: fn(&TickMetrics) -> usize| ticks.iter().map(f).sum::<usize>();
    let drained = sum(|t| t.samples_drained);
    let peak = ticks.iter().map(|t| t.peak_panel_elems).max().unwrap();
    let seconds: f64 = ticks.iter().map(|t| t.seconds).sum();

    // EngineMetrics is the sum of the returned ticks.
    let em = engine.metrics();
    assert_eq!(em.ticks, ticks.len(), "{label}: ticks");
    assert_eq!(em.assimilations, sum(|t| t.sessions_assimilated), "{label}");
    assert_eq!(em.panels, sum(|t| t.panels), "{label}: panels");
    assert_eq!(em.samples_ingested, pushed + drained, "{label}: ingested");
    assert_eq!(em.peak_panel_elems, peak, "{label}: peak panel");
    assert!((em.seconds - seconds).abs() < 1e-9, "{label}: seconds");
    assert_eq!(em.rings_allocated, engine.session_count(), "{label}: rings");
    assert_eq!(
        em.pool_jobs,
        rayon::pool_stats().jobs - pool_jobs0,
        "{label}: pool jobs"
    );
    assert!(em.assimilations > 0 && drained > 0 && pushed > 0, "{label}");

    // The registry holds those same numbers.
    let reg = engine.registry();
    let expected = [
        ("stream.ticks", em.ticks),
        ("stream.sessions.assimilated", em.assimilations),
        ("stream.panels", em.panels),
        ("stream.samples.ingested", em.samples_ingested),
        ("stream.samples.drained", drained),
        ("stream.samples.scored", sum(|t| t.samples_scored)),
        ("stream.samples.folded", sum(|t| t.samples_folded)),
        ("stream.samples.projected", sum(|t| t.samples_projected)),
        ("stream.rings.allocated", em.rings_allocated),
        ("stream.peak_panel_elems", em.peak_panel_elems),
        ("stream.scratch.bytes", em.scratch_bytes),
        ("pool.jobs", rayon::pool_stats().jobs),
    ];
    for (name, want) in expected {
        assert_eq!(scalar(reg, name), want as u64, "{label}: {name}");
    }
    assert_eq!(
        scalar(reg, "stream.warnings.transitions"),
        engine.audit().total(),
        "{label}: transitions"
    );
    let (n, ns) = histogram_count_sum(reg, "stream.tick.total");
    assert_eq!(n, em.ticks as u64, "{label}: stream.tick.total count");
    assert!(
        (ns as f64 * 1e-9 - seconds).abs() < 1e-9,
        "{label}: total ns"
    );

    // Per-shard peaks: one gauge per shard, the largest is the engine's.
    let peaks = engine.shard_panel_peaks();
    assert_eq!(peaks.iter().max(), Some(&em.peak_panel_elems), "{label}");
    for (i, &p) in peaks.iter().enumerate() {
        let name = format!("stream.shard.{i}.peak_panel_elems");
        assert_eq!(scalar(reg, &name), p as u64, "{label}: {name}");
    }

    // Only the spans follow the switch.
    let shards = peaks.len() as u64;
    let spans = if tsunami_obs::enabled() {
        em.ticks as u64 * shards
    } else {
        0
    };
    for stage in ["drain", "identify", "assimilate", "classify"] {
        let name = format!("stream.tick.{stage}");
        assert_eq!(histogram_count_sum(reg, &name).0, spans, "{label}: {name}");
    }

    // Resetting the registry resets the lifetime view with it.
    let totals = counts(&em);
    reg.reset();
    let zero = engine.metrics();
    assert_eq!(counts(&zero), [0; 7], "{label}: metrics after reset");
    assert_eq!(zero.seconds, 0.0, "{label}: seconds after reset");
    assert!(
        engine.shard_panel_peaks().iter().all(|&p| p == 0),
        "{label}"
    );
    totals
}

#[test]
fn lifetime_metrics_are_the_registry_and_sum_the_ticks_with_obs_off_and_on() {
    let cfg = TwinConfig::tiny();
    let solver = cfg.build_solver();
    let specs = ScenarioBank::family(&cfg, 5, 29);
    let bank = ScenarioBank::generate(&cfg, &solver, &specs);
    drop(solver);
    let twin = DigitalTwin::offline(cfg, bank.noise_std());
    let nt = twin.solver.grid.nt_obs;
    let windows = [2, nt / 2, nt];
    let wf = twin.windowed(&windows);
    let gl = twin.goal_ladder(&windows, &GoalOptions::rank(4));

    let mut first: Vec<[usize; 7]> = Vec::new();
    for on in [false, true] {
        tsunami_obs::set_enabled(on);
        let mut run = 0;
        for shards in [1usize, 2, 4] {
            let config = StreamConfig {
                shards,
                chunk: 2,
                ..StreamConfig::default()
            };
            for name in ["windowed", "goal"] {
                let label = format!("{name}, {shards} shards, OBS {on}");
                let make = || match name {
                    "windowed" => StreamEngine::new(&twin, &wf, config),
                    _ => StreamEngine::goal_oriented(&twin, &gl, config),
                };
                let totals = replay_and_check(make, &bank, &label);
                // The switch gates spans only: every count is identical.
                if on {
                    assert_eq!(totals, first[run], "{label}: counts moved with OBS");
                } else {
                    first.push(totals);
                }
                run += 1;
            }
        }
    }
}
