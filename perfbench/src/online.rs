//! Direct Phase-4 calls: full-horizon `infer` + `forecast` on one event,
//! the paper's data-to-forecast figure.

use crate::setup::Assets;
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::Instant;
use tsunami_core::Forecast;

#[derive(Default)]
pub struct P4Out {
    pub total_ms: Vec<f64>,
    pub infer_ms: Vec<f64>,
    pub predict_ms: Vec<f64>,
    /// Solves with a non-finite output.
    pub failed: usize,
    /// The first solve's posterior mean and forecast.
    pub first: Option<(Vec<f64>, Forecast)>,
    /// Later solves that did not reproduce the first bit for bit.
    pub mismatches: usize,
}

/// Append `calls` timed solves on `d` to `out`.
pub fn solve(a: &Assets, d: &[f64], calls: usize, tr: &Tracer, out: &mut P4Out) {
    for _ in 0..calls {
        let t0 = Instant::now();
        let inf = black_box(a.twin.infer(black_box(d)));
        let t1 = Instant::now();
        let fc = black_box(a.twin.forecast(black_box(d)));
        let t2 = Instant::now();
        tr.record("core.phase4.infer", t0, t1);
        tr.record("core.phase4.predict", t1, t2);
        out.infer_ms.push((t1 - t0).as_secs_f64() * 1e3);
        out.predict_ms.push((t2 - t1).as_secs_f64() * 1e3);
        out.total_ms.push((t2 - t0).as_secs_f64() * 1e3);
        let finite = inf
            .m_map
            .iter()
            .chain(&fc.q_map)
            .chain(&fc.q_std)
            .all(|v| v.is_finite());
        if !finite {
            out.failed += 1;
        }
        match &out.first {
            None => out.first = Some((inf.m_map, fc)),
            Some((m, f)) => out.mismatches += usize::from(inf.m_map != *m || fc.q_map != f.q_map),
        }
    }
}
