//! Streaming assimilation engine: many concurrent observation streams,
//! micro-batched through the multi-RHS online spine.
//!
//! The paper's defining constraint is *real time*: pressure data arrive
//! sensor sample by sensor sample, and the forecast must sharpen as the
//! observation window grows. The goal-oriented companion work
//! (arXiv:2501.14911) precomputes window-laddered forecast operators so
//! that inference reduces to cheap online applies, and Nomura et al.
//! (arXiv:2407.03631) show that sequential Bayesian update against a
//! database of precomputed scenarios is the right shape for live event
//! identification. This crate is the subsystem that drives *live,
//! partially observed, concurrent* streams through those precomputed
//! operators:
//!
//! - [`StreamSession`] holds one stream's state: the time-major ring of
//!   arrived sensor samples, its fold state, its position on the window
//!   ladder, its accumulated per-scenario misfit, and its latest
//!   forecast/warning.
//! - [`StreamEngine`] accepts [`StreamEngine::push`] events (or lock-free
//!   [`StreamEngine::enqueue`] calls from concurrent producer threads)
//!   and, on each [`StreamEngine::tick`], folds the arrived rows into
//!   each session's small state, then groups every session that crossed
//!   the same rung into one batched `A_w · X` materialization and
//!   classifies the results.
//! - The ladder passed to the constructor selects the path
//!   ([`Assimilator`]): [`StreamEngine::new`] takes a dense
//!   [`tsunami_core::WindowedForecaster`] (the exact oracle, with
//!   optional batched window inference);
//!   [`StreamEngine::goal_oriented`] a [`tsunami_core::GoalLadder`] of
//!   per-rung factors `L_w R_wᵀ` (arXiv:2501.14911), folded as
//!   `z += R_wᵀ d`; [`StreamEngine::mode_space`] a
//!   [`tsunami_core::ModeSpaceLadder`] of reduced operators over one
//!   rank-`r` POD projection. Exact ladders reproduce the windowed
//!   engine (the goal ladder bitwise); truncated ranks carry exactly
//!   computed per-rung Frobenius bounds.
//! - Sessions are sharded by id across [`StreamConfig::shards`] shards,
//!   each with its own session table, freelist, and inbox; a tick fans
//!   the shards out across the persistent rayon-shim worker pool with one
//!   barrier per tick, and results are invariant in the shard count.
//! - Sessions are assimilated in bounded panels of at most
//!   [`StreamConfig::chunk`] columns, so the working set stays
//!   `O(Nd·Nt · chunk)` no matter how many thousands of streams are live.
//! - With a [`tsunami_core::ScenarioBank`] attached, newly arrived
//!   samples sequentially update a per-scenario log-likelihood via the
//!   blocked `rows × scenarios` GEMM kernels of [`identify`], yielding a
//!   ranked scenario match ([`ScenarioMatch`]) whose posterior sharpens
//!   as the window grows. With a [`tsunami_core::PodBank`] also attached
//!   ([`StreamEngine::with_pod`]) and [`IdentifyBackend::ModeSpace`]
//!   selected, misfits are materialized from the POD projection at
//!   `r × B` cost — on a mode-space engine the same projection
//!   assimilation reads. The posterior also drives a Fujita-style
//!   **superposition forecast** ([`superpose_forecasts`] /
//!   [`StreamEngine::superposed_forecast`]).
//! - Each assimilated forecast's 95% credible band is classified into a
//!   [`WarningLevel`] that fails closed: a non-finite band never reads
//!   [`WarningLevel::AllClear`] ([`classify_band`]).
//! - Every engine owns a [`tsunami_obs::Registry`]
//!   ([`StreamEngine::registry`]), the one store of its counts: lifetime
//!   counters and working-set and pool gauges always record, per-stage,
//!   per-shard, and per-rung span histograms only while `OBS` is on.
//!   Each tick returns its [`TickMetrics`] (latency, throughput, peak
//!   materialized panel); [`StreamEngine::metrics`] reads the lifetime
//!   [`EngineMetrics`] back from the registry. A bounded warning audit
//!   ring ([`StreamEngine::audit`]) keeps [`WarningTransition`] records —
//!   see the [`engine`] module docs for the naming scheme and the
//!   `OBS=off` kill switch.

pub mod engine;
pub mod identify;
pub mod session;

pub use engine::{
    classify_band, classify_forecast, forecast_band, superpose_forecasts, Assimilator,
    EngineMetrics, IdentifyBackend, ScenarioMatch, StreamConfig, StreamEngine, TickMetrics,
    WarningTransition,
};
pub use session::{SampleRing, StreamSession, WarningLevel};
