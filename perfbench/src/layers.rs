//! Per-layer metrics of a traced run: spans around the public builds,
//! the twin's phase timers, the stream engine's own registry, the
//! single-threaded baseline, telemetry overhead, and the machine probe.

use crate::drive::{self, Pace, Readout};
use crate::report::Report;
use crate::setup::{self, Assets, WINDOWS};
use crate::trace::Tracer;
use crate::{probe, stats, Args, Measured, Plan, Workload, THREADS};

pub fn timers_json(a: &Assets) -> String {
    let rows: Vec<String> = a
        .twin
        .timers
        .snapshot()
        .into_iter()
        .map(|(name, s, n)| format!("{{\"name\": \"{name}\", \"seconds\": {s}, \"count\": {n}}}"))
        .collect();
    format!("[{}]", rows.join(", "))
}

/// Seconds the offline timers recorded under names starting with `prefix`.
fn timer(a: &Assets, prefix: &str) -> f64 {
    a.twin
        .timers
        .snapshot()
        .into_iter()
        .filter(|(name, _, _)| name.starts_with(prefix))
        .map(|(_, s, _)| s)
        .sum()
}

fn ratio(x: f64, y: f64) -> f64 {
    if y > 0.0 {
        x / y
    } else {
        0.0
    }
}

/// Sum the per-round registry readouts.
fn total(open: &[crate::drive::LoopOut]) -> Readout {
    let mut t = Readout {
        rung_ms: vec![0.0; WINDOWS.len()],
        ..Readout::default()
    };
    for o in open {
        let e = &o.engine;
        t.drain_s += e.drain_s;
        t.identify_s += e.identify_s;
        t.assimilate_s += e.assimilate_s;
        t.classify_s += e.classify_s;
        t.stage_records += e.stage_records;
        for (acc, v) in t.rung_ms.iter_mut().zip(&e.rung_ms) {
            *acc += v / open.len() as f64;
        }
        t.drained += e.drained;
        t.scored += e.scored;
        t.folded += e.folded;
        t.projected += e.projected;
        t.panels += e.panels;
        t.assimilated += e.assimilated;
        t.transitions += e.transitions;
        t.ticks += e.ticks;
        t.pool_jobs += e.pool_jobs;
        t.pool_handoffs += e.pool_handoffs;
        t.pool_wakeups += e.pool_wakeups;
        t.peak_panel_elems = t.peak_panel_elems.max(e.peak_panel_elems);
        t.scratch_bytes = t.scratch_bytes.max(e.scratch_bytes);
    }
    t
}

pub fn report(
    rep: &mut Report,
    args: &Args,
    pl: &Plan,
    a: &Assets,
    tr: &Tracer,
    m: &Measured,
) -> Result<(), String> {
    let w = args.workload;

    // Offline layers.
    let adjoint = timer(a, "Phase 1: form F");
    let forward = tr.seconds("solver.forward");
    rep.put(
        "solver.adjoint_s",
        adjoint,
        "s",
        "Phase 1 adjoint solves for F and Fq",
    );
    rep.put(
        "solver.forward_s",
        forward,
        "s",
        "scenario or event forward solves",
    );
    let solver = &a.twin.solver;
    let solves = (solver.sensors.len() + solver.qoi.len()) as f64
        + match w {
            Workload::SingleEvent => 1.0,
            _ => setup::GENERATED as f64,
        };
    let dofs = solver.op.n_state() as f64;
    let steps = solver.grid.total_steps() as f64;
    rep.put(
        "solver.dof_steps_per_s",
        dofs * steps * solves / (adjoint + forward),
        "1/s",
        format!("computed: {dofs} dofs x {steps} PDE steps x {solves} solves"),
    );
    rep.put(
        "fft.spectra_s",
        timer(a, "Phase 1: FFT spectra"),
        "s",
        "Phase 1",
    );
    rep.put(
        "fft.form_k_s",
        timer(a, "Phase 2: form K"),
        "s",
        "Phase 2 FFT matvecs",
    );
    rep.put(
        "prior.solves_s",
        timer(a, "Phase 2: form G"),
        "s",
        "Phase 2 prior solves, G and Gq",
    );
    rep.put(
        "linalg.factor_s",
        timer(a, "Phase 2: factorize K"),
        "s",
        "Phase 2 Cholesky",
    );
    rep.put(
        "linalg.svd_s",
        tr.seconds("linalg.svd"),
        "s",
        "POD compression or goal rung compression",
    );
    rep.put(
        "core.phase3_s",
        tr.seconds("core.phase3"),
        "s",
        "Phase3::build",
    );
    rep.put(
        "core.ladder_s",
        tr.seconds("core.ladder"),
        "s",
        "window, goal or mode-space ladder builds",
    );
    rep.pct("core.infer_ms", &m.p4.infer_ms, 0.5, "ms")?;
    rep.pct("core.predict_ms", &m.p4.predict_ms, 0.5, "ms")?;
    // Tails of sub-millisecond operations follow the machine's vCPU
    // preemption whenever steal time exceeds about one percent, so the
    // p99s are reported here, unbounded, not as end-to-end metrics.
    rep.pct("core.phase4_p99_ms", &m.p4.total_ms, 0.99, "ms")?;

    // Stream layers, from the open loops' engine registries.
    let e = total(&m.open);
    // Tick times from the closed loops: the open loops tick too rarely
    // under waves to support a p99.
    let ticks: Vec<f64> = m
        .closed
        .iter()
        .flat_map(|o| o.tick_s.iter().map(|s| s * 1e3))
        .collect();
    rep.pct("stream.tick_p50_ms", &ticks, 0.5, "ms")?;
    rep.pct("stream.tick_p99_ms", &ticks, 0.99, "ms")?;
    let per_record = |s: f64| ratio(s * 1e3, e.stage_records as f64);
    rep.put(
        "stream.drain_ms",
        per_record(e.drain_s),
        "ms",
        "mean per shard tick",
    );
    rep.put(
        "stream.identify_ms",
        per_record(e.identify_s),
        "ms",
        "mean per shard tick",
    );
    rep.put(
        "stream.assimilate_ms",
        per_record(e.assimilate_s),
        "ms",
        "mean per shard tick",
    );
    rep.put(
        "stream.classify_ms",
        per_record(e.classify_s),
        "ms",
        "mean per shard tick",
    );
    for (r, ms) in e.rung_ms.iter().enumerate() {
        rep.put(
            &format!("stream.rung.{r}.assimilate_ms"),
            *ms,
            "ms",
            "mean per panel",
        );
    }
    let waits: Vec<Vec<f64>> = m
        .open
        .iter()
        .map(|o| o.queue_wait.iter().map(|s| s * 1e3).collect())
        .collect();
    let waits: Vec<f64> = waits.concat();
    rep.pct("stream.queue_wait_p50_ms", &waits, 0.5, "ms")?;
    rep.pct("stream.queue_wait_p99_ms", &waits, 0.99, "ms")?;
    let decisions = crate::decision_ms(&m.open).concat();
    rep.pct("stream.decision_p99_ms", &decisions, 0.99, "ms")?;
    let late: Vec<f64> = m.open.iter().flat_map(|o| o.late.iter().copied()).collect();
    rep.put(
        "stream.generator_late_ms",
        stats::mean(&late) * 1e3,
        "ms",
        format!(
            "mean tick start behind its cadence point, {} ticks",
            late.len()
        ),
    );
    for (name, v) in [
        ("stream.samples_drained", e.drained),
        ("stream.samples_scored", e.scored),
        ("stream.samples_folded", e.folded),
        ("stream.samples_projected", e.projected),
        ("stream.panels", e.panels),
        ("stream.sessions_assimilated", e.assimilated),
        ("stream.transitions", e.transitions),
    ] {
        rep.put(name, v as f64, "count", "open loops");
    }
    let clamped: usize = m
        .open
        .iter()
        .map(|o| o.samples_offered - o.samples_accepted)
        .sum();
    rep.put(
        "stream.ingest_clamped",
        clamped as f64,
        "count",
        "samples refused past the horizon",
    );
    rep.put(
        "stream.fold_ratio",
        ratio(e.projected as f64, e.drained as f64),
        "1",
        "projected / drained",
    );
    rep.put(
        "stream.panel_fill",
        ratio(
            e.assimilated as f64,
            (e.panels as usize * drive::CHUNK) as f64,
        ),
        "1",
        "assimilated / (panels x chunk)",
    );
    let (mut idf, mut idb, mut asf, mut asb) = (0.0, 0.0, 0.0, 0.0);
    for o in &m.open {
        idf += o.ops.identify_flops;
        idb += o.ops.identify_bytes;
        asf += o.ops.assimilate_flops;
        asb += o.ops.assimilate_bytes;
    }
    let note = "computed from analytic counts, per busy core";
    rep.put(
        "stream.identify_gflops",
        ratio(idf, e.identify_s) * 1e-9,
        "GFLOP/s",
        note,
    );
    rep.put(
        "stream.identify_gbs",
        ratio(idb, e.identify_s) * 1e-9,
        "GB/s",
        note,
    );
    rep.put(
        "stream.assimilate_gflops",
        ratio(asf, e.assimilate_s) * 1e-9,
        "GFLOP/s",
        note,
    );
    rep.put(
        "stream.assimilate_gbs",
        ratio(asb, e.assimilate_s) * 1e-9,
        "GB/s",
        note,
    );
    rep.put(
        "stream.peak_panel_elems",
        e.peak_panel_elems as f64,
        "count",
        "largest per-shard block",
    );
    rep.put(
        "stream.scratch_bytes",
        e.scratch_bytes as f64,
        "B",
        "shard scratch arenas",
    );

    // Pool dispatch, and the single-threaded baseline.
    let ticks = e.ticks.max(1) as f64;
    rep.put(
        "pool.jobs_per_tick",
        e.pool_jobs as f64 / ticks,
        "count",
        "open loops",
    );
    rep.put(
        "pool.handoffs_per_tick",
        e.pool_handoffs as f64 / ticks,
        "count",
        "open loops",
    );
    rep.put(
        "pool.wakeups_per_tick",
        e.pool_wakeups as f64 / ticks,
        "count",
        "open loops",
    );
    let pace = Pace::Closed {
        quantum: pl.quantum,
    };
    let one = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .map_err(|e| e.to_string())?;
    let mut speedups = Vec::new();
    let mut overheads = Vec::new();
    for r in &m.rounds {
        // Back to back, so each ratio compares like machine conditions.
        let traced = drive::replay(a, w, r, pace, tr);
        let serial = tr.span("closed_loop_1_thread", || {
            one.install(|| drive::replay(a, w, r, pace, tr))
        });
        tsunami_obs::set_enabled(false);
        let quiet = drive::replay(a, w, r, pace, tr);
        tsunami_obs::set_enabled(true);
        speedups.push(serial.wall_s / traced.wall_s);
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        overheads.push(sum(&traced.tick_s) / sum(&quiet.tick_s) - 1.0);
    }
    rep.put(
        "pool.speedup",
        stats::iqm(&speedups),
        "1",
        format!(
            "closed-loop capacity at {THREADS} threads / 1 thread, interquartile mean over rounds"
        ),
    );
    rep.put(
        "obs.overhead_frac",
        stats::iqm(&overheads),
        "1",
        "traced / untraced closed-loop tick time - 1, interquartile mean over rounds",
    );

    let machine = tr.span("machine.probe", probe::run);
    println!(
        "machine probe: LLC {:.1} MiB, triad arrays {:.1} MiB in total, one thread",
        machine.llc_bytes as f64 / (1 << 20) as f64,
        machine.array_bytes as f64 / (1 << 20) as f64
    );
    rep.put("machine.triad_gbs", machine.triad_gbs, "GB/s", "one core");
    rep.put(
        "machine.fma_gflops",
        machine.fma_gflops,
        "GFLOP/s",
        "one core, multiply-add",
    );
    Ok(())
}
