//! The streaming engine: micro-batching concurrent sessions through one
//! per-rung operator spine, sharded by session across workers.
//!
//! Event loop shape: producers call [`StreamEngine::push`] (exclusive) or
//! [`StreamEngine::enqueue`] (lock-free, shared — one atomic stack push)
//! as sensor packets arrive (any granularity — single samples, partial
//! steps, whole bursts), and the operator drives [`StreamEngine::tick`]
//! on its service cadence.
//!
//! The online phase is one fixed linear map per observation window: fold
//! the arrived data into a small state, apply the crossed rung's
//! operator, classify. The ladder handed to the constructor decides what
//! the state and the operator are ([`Assimilator`]):
//!
//! - [`StreamEngine::new`] (a [`WindowedForecaster`]): the state is the
//!   ring prefix itself and the operator the dense `T_w`, with the
//!   optional batched window inference ([`infer_window_batch`]).
//! - [`StreamEngine::goal_oriented`] (a [`GoalLadder`], arXiv:2501.14911):
//!   each rung folds `z_w += R_wᵀ d` into a rank-sized state (a copy on
//!   exact rungs, so the exact ladder bit-matches the windowed engine)
//!   and materializes `L_w · Z`; [`StreamConfig::infer`] is ignored.
//! - [`StreamEngine::mode_space`] (a [`ModeSpaceLadder`]): one running
//!   POD projection `a += Uᵀd`, snapshotted at every rung boundary,
//!   feeds the reduced operators `F̃_w` (and `M̃_w` with inference) —
//!   and, under [`IdentifyBackend::ModeSpace`], identification too, so
//!   each drained row is folded once ([`TickMetrics::samples_projected`]).
//!   Truncated ranks are certified by
//!   [`tsunami_core::ModeSpaceRung::trunc_bound`].
//!
//! A tick runs the same stages on every ladder, each independently per
//! shard:
//!
//! 1. **Drain** — samples enqueued since the last tick land in their
//!    sessions' rings (FIFO per shard).
//! 2. **Fold** — newly arrived rows fold into each session's running
//!    projection and per-rung fold state.
//! 3. **Identify** — with a bank attached, each session's per-scenario
//!    misfit is updated in one blocked `rows × scenarios` GEMM
//!    ([`crate::identify::score_group_gemm`]; the sequential Bayesian
//!    update of Nomura et al., arXiv:2407.03631), or materialized from
//!    the POD projection at `r × B` cost under
//!    [`IdentifyBackend::ModeSpace`] (Fujita et al.).
//! 4. **Materialize and classify** — sessions that crossed a new rung are
//!    grouped by rung and, per bounded chunk, their inputs gathered into
//!    one panel `X`, multiplied as `A_w · X`, scattered, classified
//!    against the warning threshold (failing closed on a NaN band), and
//!    audited.
//!
//! ## Sharding
//!
//! Sessions are sharded by id: session `id` lives in shard `id %
//! shards` at local slot `id / shards` ([`StreamConfig::shards`]).
//! Every shard owns its session table, freelist, and inbox, so a tick
//! fans the shards out across the worker pool with **one barrier per
//! tick** — no cross-shard locks, no per-session synchronization. With
//! `shards = 1` (the default) the engine degenerates to the exact
//! pre-shard sequential behavior. Shard results are invariant in the
//! shard count: identification updates each session's misfit
//! independently, and the batched window operators act columnwise, so
//! K-shard and 1-shard ticks agree to roundoff.
//!
//! Groups are processed in bounded chunks of [`StreamConfig::chunk`]
//! sessions: the largest dense block any shard ever materializes is
//! `(Nd·Nt) × chunk` (data side) or `(Nm·Nt) × chunk` (parameter side),
//! independent of the number of live sessions — chunked assimilation for
//! `B ≫ 10³`, now with the bound holding *per shard*
//! ([`StreamEngine::shard_panel_peaks`]).
//!
//! ## Observability
//!
//! Every engine owns a [`tsunami_obs::Registry`]
//! ([`StreamEngine::registry`]) that its ticks record into through
//! lock-free handles. It is the only store of the engine's lifetime
//! counts: [`StreamEngine::metrics`] and
//! [`StreamEngine::shard_panel_peaks`] read it back, so
//! [`Registry::reset`] resets them too (and restarts audit tick numbers).
//!
//! - **Always recorded:** lifetime counters (`stream.ticks`,
//!   `stream.sessions.assimilated`, `stream.panels`, `stream.samples.*`
//!   with `stream.samples.ingested` = direct pushes + drained samples,
//!   `stream.rings.allocated`, `stream.warnings.transitions`), the
//!   whole-tick histogram `stream.tick.total` (nanoseconds), working-set
//!   gauges (`stream.scratch.bytes`, `stream.peak_panel_elems`,
//!   `stream.shard.<i>.peak_panel_elems`), and tick-boundary pool gauges
//!   (`pool.jobs`, `pool.handoffs`, `pool.wakeups`, `pool.workers`).
//! - **Spans, gated by `OBS`:** per-stage histograms
//!   (`stream.tick.drain`, `stream.tick.identify`,
//!   `stream.tick.assimilate`, `stream.tick.classify`), per-shard
//!   stage sums (`stream.shard.<i>.tick`), and per-rung assimilation
//!   spans (`stream.rung.<w>.assimilate`, one sample per chunk).
//!   `OBS=off` (or [`tsunami_obs::set_enabled`]`(false)`) skips every
//!   stage clock read and span record; the tick checks the switch once.
//!
//! Warning-level changes additionally land in a bounded audit ring
//! ([`StreamEngine::audit`]): each [`WarningTransition`] captures the
//! session, tick, rung, credible band, top posterior scenario, and
//! assimilator at classification time. Transitions are collected in
//! per-shard scratch during the parallel fan-out and merged shard-major
//! after the barrier, so the ring needs no locks and its order is
//! deterministic for a given shard count.

use crate::identify;
use crate::session::{StreamSession, WarningLevel};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;
use std::time::Instant;
use tsunami_core::window::infer_window_batch;
use tsunami_core::{
    DigitalTwin, Forecast, ForecastBatch, GoalLadder, ModeSpaceLadder, PodBank, ScenarioBank,
    WindowedForecaster,
};
use tsunami_linalg::DMatrix;
use tsunami_obs::{AuditRing, Counter, Gauge, Histogram, Registry, Stopwatch};

/// Which scenario-identification path a tick runs (see the
/// [module docs](self)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IdentifyBackend {
    /// Exact blocked GEMM against the full clean block
    /// ([`crate::identify::score_group_gemm`]) — the oracle path.
    #[default]
    Exact,
    /// POD mode-space identification: project arrived rows onto the
    /// attached [`PodBank`]'s modes ([`crate::identify::project_group`]),
    /// then materialize all `B` misfits from the `r`-dimensional
    /// projection ([`crate::identify::score_group_pod`]). Per-tick
    /// bank-width cost drops from `rows × B` to `rows × r + r × B`;
    /// scores differ from exact by at most the per-scenario POD
    /// truncation error. Requires [`StreamEngine::with_pod`].
    ModeSpace,
}

/// Which per-rung operator family assimilates rung crossings — fixed by
/// the constructor that received the ladder (see the
/// [module docs](self)) and recorded in every audit record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Assimilator {
    /// Dense windowed operators over the ring prefix
    /// ([`StreamEngine::new`]).
    Windowed,
    /// Goal-oriented factored operators over per-rung folds
    /// ([`StreamEngine::goal_oriented`]).
    Goal,
    /// Reduced operators over rung snapshots of the POD projection
    /// ([`StreamEngine::mode_space`]).
    ModeSpace,
}

/// Engine knobs.
#[derive(Clone, Copy, Debug)]
pub struct StreamConfig {
    /// Maximum sessions per batched assimilation panel — the chunking
    /// knob that bounds the engine's peak working set. Must be ≥ 1.
    pub chunk: usize,
    /// Wave-height threshold (m) for the warning classification.
    pub warn_threshold: f64,
    /// Also run the parameter inference at each rung crossing (the
    /// windowed `K_w⁻¹` solve + FFT pass, or the reduced `M̃_w` GEMM on a
    /// mode-space ladder built with
    /// [`tsunami_core::ModeSpaceOptions::inference`]), filling
    /// [`StreamSession::m_norm`]. Ignored on a goal-oriented ladder.
    pub infer: bool,
    /// Session shards ticked in parallel (see the [module docs](self)).
    /// Must be ≥ 1; 1 recovers the exact pre-shard sequential engine.
    pub shards: usize,
    /// Scenario-identification backend ([`IdentifyBackend::Exact`] by
    /// default; [`IdentifyBackend::ModeSpace`] needs an attached
    /// [`PodBank`]).
    pub identify: IdentifyBackend,
    /// Capacity of the warning audit ring ([`StreamEngine::audit`]): the
    /// newest this many [`WarningTransition`] records are retained, older
    /// ones evicted with accounting. Must be ≥ 1.
    pub audit_capacity: usize,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            chunk: 64,
            warn_threshold: 0.1,
            infer: true,
            shards: 1,
            identify: IdentifyBackend::Exact,
            audit_capacity: 1024,
        }
    }
}

/// One scenario's standing in a session's sequential identification.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioMatch {
    /// Index into the bank's scenario list.
    pub scenario: usize,
    /// Gaussian log-likelihood of the arrived samples under this
    /// scenario's predicted data (up to the shared additive constant).
    pub log_likelihood: f64,
    /// Posterior probability over the bank (uniform prior).
    pub probability: f64,
}

/// Per-tick latency/throughput record, summed over shards (each shard
/// fills one for its own partials).
#[derive(Clone, Copy, Debug, Default)]
pub struct TickMetrics {
    /// Sessions assimilated this tick (crossed a window boundary).
    pub sessions_assimilated: usize,
    /// Batched panels dispatched this tick (summed over shards).
    pub panels: usize,
    /// Newly arrived samples folded into scenario scores this tick.
    pub samples_scored: usize,
    /// Newly arrived samples folded into goal-oriented per-rung states
    /// this tick (0 unless the ladder is a [`GoalLadder`]).
    pub samples_folded: usize,
    /// Newly arrived samples folded into POD running projections this
    /// tick — counted **once per row**: a mode-space engine's one
    /// projection serves both assimilation and mode-space
    /// identification, so this equals the rows that arrived, never 2×.
    pub samples_projected: usize,
    /// Samples accepted from the lock-free inboxes this tick (the
    /// [`StreamEngine::enqueue`] path; direct pushes count at push time).
    pub samples_drained: usize,
    /// Largest dense block materialized by any *one shard* this tick
    /// (elements) — the per-shard bounded-working-set figure.
    pub peak_panel_elems: usize,
    /// Wall-clock seconds for the whole tick.
    pub seconds: f64,
}

impl TickMetrics {
    /// Assimilation throughput of this tick.
    pub fn sessions_per_sec(&self) -> f64 {
        self.sessions_assimilated as f64 / self.seconds.max(1e-12)
    }
}

/// Running totals across the engine's lifetime — a view of its registry
/// ([`StreamEngine::metrics`]).
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineMetrics {
    /// Ticks processed.
    pub ticks: usize,
    /// Session-assimilations performed (a session counts once per rung).
    pub assimilations: usize,
    /// Batched panels dispatched.
    pub panels: usize,
    /// Total samples accepted (direct pushes at push time, enqueued
    /// samples when their shard drains them).
    pub samples_ingested: usize,
    /// Total tick wall-clock seconds.
    pub seconds: f64,
    /// Largest dense block any one shard ever materialized (elements) —
    /// the bounded-working-set guarantee, checked against `(Nd·Nt)·chunk`.
    pub peak_panel_elems: usize,
    /// Persistent-pool jobs dispatched between this engine's construction
    /// and its latest tick boundary (the `pool.jobs` gauge minus the
    /// [`rayon::pool_stats`] read taken at construction).
    pub pool_jobs: usize,
    /// Fresh sample rings allocated over the engine's lifetime. Stays flat
    /// under open→close→open churn (closed sessions return their ring to a
    /// freelist and [`StreamEngine::open`] reuses it), so indefinite
    /// service does not grow memory per event.
    pub rings_allocated: usize,
    /// Bytes currently retained by the per-shard assimilation scratch
    /// arenas (gather panel + output block, reused across ticks). A
    /// gauge, refreshed each tick: it plateaus at the high-water chunk
    /// working set and stays flat through steady-state ticks — the
    /// allocation-hardening counterpart of `rings_allocated`.
    pub scratch_bytes: usize,
}

/// One warning-level change of one session — the audit record a
/// long-running service keeps (see [`StreamEngine::audit`] and the
/// [module docs](self)).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WarningTransition {
    /// Session id whose level changed.
    pub session: usize,
    /// 0-based tick index (the `stream.ticks` count, so over the
    /// engine's lifetime unless its registry was reset) that classified
    /// the change.
    pub tick: u64,
    /// Window-ladder rung whose assimilation produced the classified
    /// forecast.
    pub rung: usize,
    /// Warning level before the transition.
    pub from: WarningLevel,
    /// Warning level after the transition.
    pub to: WarningLevel,
    /// Largest 95%-credible lower bound across the forecast's QoIs at
    /// classification time (the confident-exceedance figure;
    /// [`forecast_band`]).
    pub band_lo: f64,
    /// Largest 95%-credible upper bound across the forecast's QoIs.
    pub band_hi: f64,
    /// Top posterior scenario `(bank index, probability)` under the
    /// session's identification posterior at classification time — `None`
    /// when no scenario bank is attached.
    pub top_scenario: Option<(usize, f64)>,
    /// Operator family that produced the classified forecast.
    pub assimilator: Assimilator,
}

/// Cached handles into the engine's [`Registry`], resolved once at
/// construction so ticks record through lock-free atomics without
/// touching the registry's name table. The counters, gauges, and `total`
/// are the only store of the engine's lifetime counts and always record;
/// the stage, rung, and shard spans record only while `OBS` is on.
struct Handles {
    drain: Arc<Histogram>,
    identify: Arc<Histogram>,
    assimilate: Arc<Histogram>,
    classify: Arc<Histogram>,
    total: Arc<Histogram>,
    ticks: Arc<Counter>,
    assimilated: Arc<Counter>,
    panels: Arc<Counter>,
    drained: Arc<Counter>,
    scored: Arc<Counter>,
    folded: Arc<Counter>,
    projected: Arc<Counter>,
    transitions: Arc<Counter>,
    pool_jobs: Arc<Gauge>,
    pool_handoffs: Arc<Gauge>,
    pool_wakeups: Arc<Gauge>,
    pool_workers: Arc<Gauge>,
    scratch_bytes: Arc<Gauge>,
    peak_panel: Arc<Gauge>,
    ingested: Arc<Counter>,
    rings: Arc<Counter>,
    /// Per-rung assimilation spans, indexed by rung.
    rung_spans: Vec<Arc<Histogram>>,
    /// Per-shard whole-tick spans and panel peaks, indexed by shard.
    shard_spans: Vec<Arc<Histogram>>,
    shard_peaks: Vec<Arc<Gauge>>,
}

impl Handles {
    fn new(reg: &Registry, rungs: usize, shards: usize) -> Self {
        Handles {
            drain: reg.histogram("stream.tick.drain"),
            identify: reg.histogram("stream.tick.identify"),
            assimilate: reg.histogram("stream.tick.assimilate"),
            classify: reg.histogram("stream.tick.classify"),
            total: reg.histogram("stream.tick.total"),
            ticks: reg.counter("stream.ticks"),
            assimilated: reg.counter("stream.sessions.assimilated"),
            panels: reg.counter("stream.panels"),
            drained: reg.counter("stream.samples.drained"),
            scored: reg.counter("stream.samples.scored"),
            folded: reg.counter("stream.samples.folded"),
            projected: reg.counter("stream.samples.projected"),
            transitions: reg.counter("stream.warnings.transitions"),
            pool_jobs: reg.gauge("pool.jobs"),
            pool_handoffs: reg.gauge("pool.handoffs"),
            pool_wakeups: reg.gauge("pool.wakeups"),
            pool_workers: reg.gauge("pool.workers"),
            scratch_bytes: reg.gauge("stream.scratch.bytes"),
            peak_panel: reg.gauge("stream.peak_panel_elems"),
            ingested: reg.counter("stream.samples.ingested"),
            rings: reg.counter("stream.rings.allocated"),
            rung_spans: (0..rungs)
                .map(|w| reg.histogram(&format!("stream.rung.{w}.assimilate")))
                .collect(),
            shard_spans: (0..shards)
                .map(|i| reg.histogram(&format!("stream.shard.{i}.tick")))
                .collect(),
            shard_peaks: (0..shards)
                .map(|i| reg.gauge(&format!("stream.shard.{i}.peak_panel_elems")))
                .collect(),
        }
    }
}

/// A node of a shard's lock-free inbox (one [`StreamEngine::enqueue`]).
struct InboxNode {
    /// Global session id the samples belong to.
    id: usize,
    /// The session slot's generation at enqueue time. Checked at drain:
    /// a batch whose slot has since been closed (and possibly reopened
    /// for a *different* event under the same id) carries a stale
    /// generation and is dropped instead of contaminating the new event.
    generation: u64,
    samples: Vec<f64>,
    next: *mut InboxNode,
}

/// Lock-free multi-producer inbox: a Treiber stack of sample batches.
/// Producers push with one CAS ([`StreamEngine::enqueue`] is `&self`);
/// the owning shard detaches the whole stack with one atomic swap at
/// tick start and replays it in arrival (FIFO) order.
struct Inbox {
    head: AtomicPtr<InboxNode>,
}

// SAFETY: the raw pointers form a singly-linked list of heap nodes owned
// exclusively by this stack — producers only prepend (CAS on `head`),
// the consumer only detaches the entire list (swap), and nodes are never
// aliased after detachment. Sending or sharing the inbox moves/shares
// ownership of that whole list.
#[allow(unsafe_code)]
unsafe impl Send for Inbox {}
#[allow(unsafe_code)]
unsafe impl Sync for Inbox {}

impl Inbox {
    fn new() -> Self {
        Inbox {
            head: AtomicPtr::new(ptr::null_mut()),
        }
    }

    /// Prepend one batch (lock-free, any thread).
    fn push(&self, id: usize, generation: u64, samples: Vec<f64>) {
        let node = Box::into_raw(Box::new(InboxNode {
            id,
            generation,
            samples,
            next: ptr::null_mut(),
        }));
        let mut head = self.head.load(Ordering::Relaxed);
        loop {
            // SAFETY: `node` came from Box::into_raw above and is not yet
            // published, so this thread has exclusive access to it.
            #[allow(unsafe_code)]
            unsafe {
                (*node).next = head;
            }
            match self
                .head
                .compare_exchange_weak(head, node, Ordering::Release, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(cur) => head = cur,
            }
        }
    }

    /// Detach everything enqueued so far and return it oldest-first.
    fn drain(&self) -> Vec<(usize, u64, Vec<f64>)> {
        let mut cur = self.head.swap(ptr::null_mut(), Ordering::Acquire);
        let mut out = Vec::new();
        while !cur.is_null() {
            // SAFETY: after the swap this thread exclusively owns the
            // detached list; each node was created by Box::into_raw in
            // `push` and is reconstituted exactly once here.
            #[allow(unsafe_code)]
            let node = unsafe { Box::from_raw(cur) };
            cur = node.next;
            out.push((node.id, node.generation, node.samples));
        }
        out.reverse();
        out
    }
}

impl Drop for Inbox {
    fn drop(&mut self) {
        // Free any batches never drained by a tick.
        drop(self.drain());
    }
}

/// Per-shard assimilation scratch, reused across ticks so steady-state
/// ticks allocate nothing: the gathered input panel `X` (`k × b` ring
/// prefixes or `r × b` folds), the QoI block `nq × b`, and the reduced
/// inference block `(Nm·Nt) × b` of a mode-space ladder. The vecs
/// round-trip through [`DMatrix::from_vec`] / [`DMatrix::into_vec`] each
/// chunk ([`take_block`]); `clear` + `resize` within retained capacity
/// never reallocates once the high-water chunk shape has been seen.
#[derive(Default)]
struct ShardArena {
    panel: Vec<f64>,
    q_block: Vec<f64>,
    m_block: Vec<f64>,
}

impl ShardArena {
    fn bytes(&self) -> usize {
        (self.panel.capacity() + self.q_block.capacity() + self.m_block.capacity())
            * std::mem::size_of::<f64>()
    }
}

/// Take `buf` as a zeroed `rows × cols` block, reusing its capacity.
fn take_block(buf: &mut Vec<f64>, rows: usize, cols: usize) -> DMatrix {
    let mut v = std::mem::take(buf);
    v.clear();
    v.resize(rows * cols, 0.0);
    DMatrix::from_vec(rows, cols, v)
}

/// One session shard: its slice of the session table, freelist, and
/// lock-free inbox. Global id `id` lives in shard `id % shards` at local
/// slot `id / shards`.
struct Shard {
    /// This shard's index (fixed at construction; selects its span and
    /// peak handles and keeps the parallel fan-out self-identifying).
    idx: usize,
    sessions: Vec<StreamSession>,
    /// Local slots of closed sessions awaiting reuse.
    free: Vec<usize>,
    inbox: Inbox,
    /// Partials of the most recent tick (summed by the engine).
    last: TickMetrics,
    /// Reusable assimilation scratch (see [`ShardArena`]).
    arena: ShardArena,
    /// Warning transitions classified by this shard's current tick;
    /// merged shard-major into the engine's audit ring after the barrier
    /// (capacity retained across ticks).
    audit_scratch: Vec<WarningTransition>,
}

impl Shard {
    fn new(idx: usize) -> Self {
        Shard {
            idx,
            sessions: Vec::new(),
            free: Vec::new(),
            inbox: Inbox::new(),
            last: TickMetrics::default(),
            arena: ShardArena::default(),
            audit_scratch: Vec::new(),
        }
    }
}

/// The window ladder the constructor fixed: it selects the fold state
/// and the per-rung operator of every tick (see [`Assimilator`]).
#[derive(Clone, Copy)]
enum Ladder<'a> {
    Windowed(&'a WindowedForecaster),
    Goal(&'a GoalLadder),
    ModeSpace(&'a ModeSpaceLadder),
}

impl<'a> Ladder<'a> {
    fn assimilator(self) -> Assimilator {
        match self {
            Ladder::Windowed(_) => Assimilator::Windowed,
            Ladder::Goal(_) => Assimilator::Goal,
            Ladder::ModeSpace(_) => Assimilator::ModeSpace,
        }
    }

    /// Rung lengths in observation steps.
    fn windows(self) -> &'a [usize] {
        match self {
            Ladder::Windowed(f) => &f.windows,
            Ladder::Goal(g) => &g.windows,
            Ladder::ModeSpace(m) => &m.windows,
        }
    }

    fn nd(self) -> usize {
        match self {
            Ladder::Windowed(f) => f.nd,
            Ladder::Goal(g) => g.nd,
            Ladder::ModeSpace(m) => m.nd,
        }
    }

    /// The mode-space observation basis `U`, if any.
    fn modes(self) -> Option<&'a DMatrix> {
        match self {
            Ladder::ModeSpace(m) => Some(m.modes()),
            _ => None,
        }
    }

    /// Per-session fold length: concatenated goal states, or one rank-`r`
    /// projection snapshot per mode-space rung.
    fn fold_len(self) -> usize {
        match self {
            Ladder::Windowed(_) => 0,
            Ladder::Goal(g) => g.fold_len(),
            Ladder::ModeSpace(m) => m.windows.len() * m.rank(),
        }
    }

    /// Rung `w`'s left map `A_w` (its column count is the input length),
    /// QoI std, and where each session's input lives: the ring prefix
    /// (`None`) or the fold slice at this offset.
    fn rung(self, w: usize) -> (&'a DMatrix, &'a [f64], Option<usize>) {
        match self {
            Ladder::Windowed(f) => (&f.q_maps[w], &f.q_stds[w], None),
            Ladder::Goal(g) => (g.rungs[w].map.left(), &g.q_stds[w], Some(g.fold_offset(w))),
            Ladder::ModeSpace(m) => (&m.rungs[w].q_map, &m.q_stds[w], Some(w * m.rank())),
        }
    }
}

/// Read-only per-tick context shared by every shard's local tick.
struct TickCtx<'t> {
    twin: &'t DigitalTwin,
    ladder: Ladder<'t>,
    bank: Option<&'t ScenarioBank>,
    /// The POD bank when identification runs in mode space.
    pod: Option<&'t PodBank>,
    /// Basis of the running projection when this tick folds one: the
    /// mode-space ladder's, else the POD bank's.
    basis: Option<&'t DMatrix>,
    sq_prefix: &'t [f64],
    config: StreamConfig,
    n_shards: usize,
    /// Registry handles (shared across shards; recording is lock-free).
    handles: &'t Handles,
    /// Snapshot of [`tsunami_obs::enabled`] for this tick: when false,
    /// shards skip every span clock read and record.
    obs_on: bool,
    /// 0-based tick index stamped into audit records.
    tick_no: u64,
}

/// The streaming assimilation engine (see the [module docs](self)).
pub struct StreamEngine<'a> {
    twin: &'a DigitalTwin,
    ladder: Ladder<'a>,
    bank: Option<&'a ScenarioBank>,
    /// POD compression of the attached bank (mode-space identification).
    pod: Option<&'a PodBank>,
    /// Prefix sums of the bank's squared clean observations
    /// ([`identify::sq_prefix`]), computed once at attach time.
    bank_sq_prefix: Vec<f64>,
    config: StreamConfig,
    shards: Vec<Shard>,
    /// Round-robin cursor for [`Self::open`] shard placement.
    next_open: usize,
    /// This engine's metrics registry (see [`Self::registry`]).
    obs: Registry,
    /// Cached handles into `obs`.
    handles: Handles,
    /// Warning-transition audit ring (see [`Self::audit`]).
    audit: AuditRing<WarningTransition>,
    /// [`rayon::PoolStats::jobs`] at construction, the base of
    /// [`EngineMetrics::pool_jobs`].
    pool_jobs0: usize,
}

impl<'a> StreamEngine<'a> {
    /// A windowed engine: rung crossings apply the dense window
    /// operators to the ring prefix, with the batched window inference
    /// when [`StreamConfig::infer`] is set — the exact oracle path.
    pub fn new(
        twin: &'a DigitalTwin,
        forecaster: &'a WindowedForecaster,
        config: StreamConfig,
    ) -> Self {
        Self::with_ladder(twin, Ladder::Windowed(forecaster), config)
    }

    /// A goal-oriented engine: forecasting runs entirely through the
    /// precomputed factored ladder, so no dense [`WindowedForecaster`] —
    /// and none of its `O(Nq · Σ w·Nd)` resident memory — is needed at
    /// all. An exact ladder reproduces [`Self::new`]'s forecasts
    /// bitwise; truncated ranks stay within each rung's
    /// [`tsunami_core::GoalRung::trunc_bound`].
    pub fn goal_oriented(
        twin: &'a DigitalTwin,
        goal: &'a GoalLadder,
        config: StreamConfig,
    ) -> Self {
        Self::with_ladder(twin, Ladder::Goal(goal), config)
    }

    /// A mode-space engine: every online stage — drain, fold, identify,
    /// assimilate, classify — is rank-sized. A complete basis reproduces
    /// [`Self::new`] within cancellation slack.
    ///
    /// # Panics
    ///
    /// If `config.infer` is set but the ladder was built without
    /// [`tsunami_core::ModeSpaceOptions::inference`].
    pub fn mode_space(
        twin: &'a DigitalTwin,
        ms: &'a ModeSpaceLadder,
        config: StreamConfig,
    ) -> Self {
        assert!(
            !config.infer || ms.has_inference(),
            "infer: true on a mode-space engine needs a ladder built \
             with ModeSpaceOptions {{ inference: true, .. }}"
        );
        Self::with_ladder(twin, Ladder::ModeSpace(ms), config)
    }

    fn with_ladder(twin: &'a DigitalTwin, ladder: Ladder<'a>, config: StreamConfig) -> Self {
        assert_eq!(
            ladder.nd(),
            twin.solver.sensors.len(),
            "ladder and twin disagree on the sensor count"
        );
        assert!(config.chunk >= 1, "chunk must be at least 1");
        assert!(config.shards >= 1, "shards must be at least 1");
        assert!(
            config.audit_capacity >= 1,
            "audit_capacity must be at least 1"
        );
        let obs = Registry::new();
        let handles = Handles::new(&obs, ladder.windows().len(), config.shards);
        StreamEngine {
            twin,
            ladder,
            bank: None,
            pod: None,
            bank_sq_prefix: Vec::new(),
            config,
            shards: (0..config.shards).map(Shard::new).collect(),
            next_open: 0,
            obs,
            handles,
            audit: AuditRing::new(config.audit_capacity),
            pool_jobs0: rayon::pool_stats().jobs,
        }
    }

    /// Attach a scenario bank: every arrived sample then also updates the
    /// sequential per-scenario identification scores. Precomputes the
    /// clean-energy prefix sums the blocked GEMM scoring reads.
    pub fn with_bank(mut self, bank: &'a ScenarioBank) -> Self {
        assert_eq!(
            bank.clean_observations().nrows(),
            self.twin.n_data(),
            "bank and twin disagree on the data dimension"
        );
        self.assert_no_samples("the bank");
        // Resize every session's misfit accumulator in place (no
        // realloc when capacity suffices) instead of swapping in a
        // fresh vec per session.
        for s in self.shards.iter_mut().flat_map(|sh| &mut sh.sessions) {
            s.misfit.clear();
            s.misfit.resize(bank.len(), 0.0);
        }
        self.bank_sq_prefix = identify::sq_prefix(bank.clean_observations());
        self.bank = Some(bank);
        self
    }

    /// Attach a POD compression of the bank, enabling
    /// [`IdentifyBackend::ModeSpace`] ticks. Must agree with the attached
    /// bank in shape (call [`Self::with_bank`] first), and on a
    /// mode-space engine must hold the ladder's basis bit for bit — that
    /// is what lets identification and assimilation share one fold.
    /// Every session gains an `r`-dimensional running projection; the
    /// exact path stays available as the oracle via
    /// [`StreamConfig::identify`].
    pub fn with_pod(mut self, pod: &'a PodBank) -> Self {
        let bank = self
            .bank
            .expect("attach the bank (with_bank) before with_pod");
        assert_eq!(
            pod.modes().nrows(),
            self.twin.n_data(),
            "POD modes and twin disagree on the data dimension"
        );
        assert_eq!(
            pod.len(),
            bank.len(),
            "POD compression and bank disagree on the scenario count"
        );
        self.assert_no_samples("the POD bank");
        if let Some(u) = self.ladder.modes() {
            assert!(
                pod.modes().nrows() == u.nrows()
                    && pod.modes().ncols() == u.ncols()
                    && pod.modes().as_slice() == u.as_slice(),
                "mode-space ladder and PodBank must share the observation basis bit for bit \
                 (build the ladder from PodBank::modes())"
            );
        }
        let r = pod.rank();
        for s in self.shards.iter_mut().flat_map(|sh| &mut sh.sessions) {
            s.proj.clear();
            s.proj.resize(r, 0.0);
        }
        self.pod = Some(pod);
        self
    }

    /// The running projection's basis: the mode-space ladder's, else the
    /// attached POD bank's.
    fn basis(&self) -> Option<&'a DMatrix> {
        self.ladder.modes().or(self.pod.map(PodBank::modes))
    }

    fn assert_no_samples(&self, what: &str) {
        for s in self.shards.iter().flat_map(|sh| &sh.sessions) {
            assert!(s.samples() == 0, "attach {what} before any samples arrive");
        }
    }

    /// Map a session id to its `(shard, local slot)`, panicking with the
    /// offending id and shard when the id was never handed out by
    /// [`Self::open`] — out-of-range and foreign ids fail loudly here
    /// instead of indexing into an unrelated slot.
    fn locate(&self, id: usize, op: &str) -> (usize, usize) {
        let n = self.shards.len();
        let (si, local) = (id % n, id / n);
        let slots = self.shards[si].sessions.len();
        assert!(
            local < slots,
            "{op}: unknown session id {id} (shard {si} of {n} holds {slots} slots)"
        );
        (si, local)
    }

    /// Open an observation session; returns its id. Shards are filled
    /// round-robin (so a fresh engine hands out ids 0, 1, 2, … exactly
    /// like the unsharded engine did), and a previously
    /// [closed](Self::close) session's slot — ring and misfit allocations
    /// included — is reused when the target shard has one, so indefinite
    /// open/close service keeps a fixed memory footprint (the high-water
    /// mark of concurrently open sessions).
    pub fn open(&mut self) -> usize {
        let n = self.shards.len();
        let n_scen = self.bank.map_or(0, |b| b.len());
        let n_proj = self.basis().map_or(0, |u| u.ncols());
        let n_fold = self.ladder.fold_len();
        let si = self.next_open % n;
        self.next_open += 1;
        let nd = self.twin.solver.sensors.len();
        let capacity = self.twin.n_data();
        let shard = &mut self.shards[si];
        if let Some(local) = shard.free.pop() {
            shard.sessions[local].reopen(n_scen, n_proj, n_fold);
            return shard.sessions[local].id;
        }
        let id = si + shard.sessions.len() * n;
        shard
            .sessions
            .push(StreamSession::new(id, capacity, nd, n_scen, n_proj, n_fold));
        self.handles.rings.inc();
        id
    }

    /// Close a session once its event is over: the slot (ring buffer and
    /// misfit accumulator included) goes on its shard's freelist and a
    /// later [`Self::open`] reuses it. Closed sessions are skipped by
    /// every tick stage; their last products stay readable until reuse.
    /// Closing bumps the slot's generation, which invalidates any inbox
    /// batches still staged for the closed event (see [`Self::enqueue`]).
    pub fn close(&mut self, id: usize) {
        let (si, local) = self.locate(id, "close");
        let shard = &mut self.shards[si];
        assert!(
            shard.sessions[local].active,
            "close of already-closed session {id}"
        );
        shard.sessions[local].active = false;
        shard.sessions[local].generation += 1;
        shard.free.push(local);
    }

    /// Feed newly arrived samples (time-major continuation) into a
    /// session. Any granularity is fine — a lone sample, a partial step, a
    /// whole burst. Returns how many samples were accepted (pushes past
    /// the event horizon are clamped).
    pub fn push(&mut self, id: usize, samples: &[f64]) -> usize {
        let (si, local) = self.locate(id, "push");
        let s = &mut self.shards[si].sessions[local];
        assert!(s.active, "push into closed session {id}");
        let accepted = s.ring.push(samples);
        self.handles.ingested.add(accepted as u64);
        accepted
    }

    /// Lock-free ingest: stage samples for a session with a single atomic
    /// push onto its shard's inbox. Shared-reference, so any number of
    /// producer threads can feed a shared engine concurrently; the
    /// samples are folded into the session's ring at the start of the
    /// next [`Self::tick`] (per shard, in arrival order).
    ///
    /// Each batch is stamped with the session slot's generation at
    /// enqueue time and dropped at drain if the generations no longer
    /// match — that covers both a session that is simply closed by drain
    /// time *and* a slot that was closed and already reopened for a new
    /// event under the same id (the staged samples belong to the old
    /// event and must not leak into the new one). Pushes past the event
    /// horizon are clamped at drain, exactly as with [`Self::push`].
    pub fn enqueue(&self, id: usize, samples: &[f64]) {
        let (si, local) = self.locate(id, "enqueue");
        let shard = &self.shards[si];
        let generation = shard.sessions[local].generation;
        shard.inbox.push(id, generation, samples.to_vec());
    }

    /// Borrow a session.
    pub fn session(&self, id: usize) -> &StreamSession {
        let (si, local) = self.locate(id, "session");
        &self.shards[si].sessions[local]
    }

    /// Session slots ever created (open and closed), across all shards.
    pub fn session_count(&self) -> usize {
        self.shards.iter().map(|sh| sh.sessions.len()).sum()
    }

    /// Every session slot, shard-major order (not id order; use
    /// [`StreamSession::id`] when identity matters).
    pub fn sessions(&self) -> impl Iterator<Item = &StreamSession> {
        self.shards.iter().flat_map(|sh| sh.sessions.iter())
    }

    /// Lifetime totals, read from the engine's registry (see the
    /// [module docs](self)).
    pub fn metrics(&self) -> EngineMetrics {
        let h = &self.handles;
        let get = |c: &Counter| c.get() as usize;
        EngineMetrics {
            ticks: get(&h.ticks),
            assimilations: get(&h.assimilated),
            panels: get(&h.panels),
            samples_ingested: get(&h.ingested),
            seconds: h.total.snapshot().sum as f64 * 1e-9,
            peak_panel_elems: h.peak_panel.get() as usize,
            pool_jobs: (h.pool_jobs.get() as usize).saturating_sub(self.pool_jobs0),
            rings_allocated: get(&h.rings),
            scratch_bytes: h.scratch_bytes.get() as usize,
        }
    }

    /// Largest dense block each shard ever materialized (elements) — the
    /// per-shard bounded-working-set record, indexed by shard
    /// (`stream.shard.<i>.peak_panel_elems`).
    pub fn shard_panel_peaks(&self) -> Vec<usize> {
        let peaks = &self.handles.shard_peaks;
        peaks.iter().map(|g| g.get() as usize).collect()
    }

    /// The engine's metrics registry: per-stage tick span histograms,
    /// per-shard and per-rung spans, lifetime throughput counters, and
    /// tick-boundary pool gauges, queryable any time and renderable as
    /// Prometheus-style text or JSON
    /// ([`Registry::render_prometheus`] / [`Registry::render_json`]).
    /// See the [module docs](self) for the naming scheme. Each engine
    /// owns its registry, so concurrent engines in one process never mix
    /// their telemetry.
    pub fn registry(&self) -> &Registry {
        &self.obs
    }

    /// The warning audit ring: every warning-level transition the engine
    /// ever classified, newest [`StreamConfig::audit_capacity`] retained
    /// ([`AuditRing::evicted`] says how many older ones were dropped).
    pub fn audit(&self) -> &AuditRing<WarningTransition> {
        &self.audit
    }

    /// One session's retained warning transitions, oldest first.
    pub fn audit_for(&self, id: usize) -> impl Iterator<Item = &WarningTransition> {
        self.audit.iter().filter(move |t| t.session == id)
    }

    /// Forget every session's ladder position so the next [`Self::tick`]
    /// re-assimilates all of them from their current data. Replay /
    /// benchmarking support (identification scores are *not* reset — they
    /// are a pure function of the arrived samples).
    ///
    /// The per-rung fold state *is* reset (it is re-derived from the
    /// ring; zeroing avoids double-folding the same samples), so the next
    /// tick refolds `[0, filled)` in one pass — bit-identical to a fresh
    /// engine that received the whole stream in one push. On a mode-space
    /// engine the running projection resets with it, and under
    /// [`IdentifyBackend::ModeSpace`] so do `scored` and the data energy
    /// that share it — safe because the mode-space misfit is
    /// *materialized* from the projection each pass, never accumulated,
    /// and the refold reproduces it exactly.
    ///
    /// Warning levels reset to [`WarningLevel::AllClear`] as well, so a
    /// replay re-classifies from scratch and the audit ring records the
    /// same transition sequence the original stream produced.
    pub fn rewind(&mut self) {
        let reproject = self.ladder.modes().is_some();
        let rescore = reproject && self.pod_identify();
        for s in self
            .shards
            .iter_mut()
            .flat_map(|sh| &mut sh.sessions)
            .filter(|s| s.active)
        {
            s.window_idx = None;
            s.fold.fill(0.0);
            s.folded = 0;
            if reproject {
                s.proj.fill(0.0);
                s.projected = 0;
            }
            if rescore {
                s.scored = 0;
                s.data_energy = 0.0;
                s.data_energy_comp = 0.0;
            }
            s.level = WarningLevel::AllClear;
        }
    }

    /// True when identification runs in POD mode space.
    fn pod_identify(&self) -> bool {
        self.bank.is_some() && self.config.identify == IdentifyBackend::ModeSpace
    }

    /// Process everything that arrived since the last tick (see the
    /// [module docs](self) for the stages). Shards tick independently —
    /// in parallel across the persistent worker pool when `shards > 1`,
    /// with one barrier at the end — and their partial metrics are
    /// summed here, added to the registry, and returned.
    pub fn tick(&mut self) -> TickMetrics {
        let t0 = Instant::now();
        assert!(
            self.config.identify == IdentifyBackend::Exact || self.pod.is_some(),
            "mode-space identification requires an attached PodBank (with_pod)"
        );
        let pod = self.pod.filter(|_| self.pod_identify());
        let ctx = TickCtx {
            twin: self.twin,
            ladder: self.ladder,
            bank: self.bank,
            pod,
            basis: self.ladder.modes().or(pod.map(PodBank::modes)),
            sq_prefix: &self.bank_sq_prefix,
            config: self.config,
            n_shards: self.shards.len(),
            handles: &self.handles,
            obs_on: tsunami_obs::enabled(),
            tick_no: self.handles.ticks.get(),
        };
        if self.shards.len() > 1 {
            self.shards
                .par_iter_mut()
                .for_each(|sh| tick_shard(sh, &ctx));
        } else {
            tick_shard(&mut self.shards[0], &ctx);
        }

        let h = &self.handles;
        let mut m = TickMetrics::default();
        let mut scratch_bytes = 0;
        // Merge each shard's partials and audit scratch shard-major —
        // deterministic order for a given shard count, no locking during
        // the fan-out.
        for sh in &mut self.shards {
            let p = &sh.last;
            m.sessions_assimilated += p.sessions_assimilated;
            m.panels += p.panels;
            m.samples_scored += p.samples_scored;
            m.samples_folded += p.samples_folded;
            m.samples_projected += p.samples_projected;
            m.samples_drained += p.samples_drained;
            m.peak_panel_elems = m.peak_panel_elems.max(p.peak_panel_elems);
            scratch_bytes += sh.arena.bytes();
            h.transitions.add(sh.audit_scratch.len() as u64);
            for t in sh.audit_scratch.drain(..) {
                self.audit.push(t);
            }
        }
        let pool = rayon::pool_stats();
        let ns = t0.elapsed().as_nanos() as u64;
        m.seconds = ns as f64 * 1e-9;

        h.total.record_ns(ns);
        h.ticks.inc();
        h.assimilated.add(m.sessions_assimilated as u64);
        h.panels.add(m.panels as u64);
        h.ingested.add(m.samples_drained as u64);
        h.drained.add(m.samples_drained as u64);
        h.scored.add(m.samples_scored as u64);
        h.folded.add(m.samples_folded as u64);
        h.projected.add(m.samples_projected as u64);
        h.pool_jobs.set(pool.jobs as u64);
        h.pool_handoffs.set(pool.handoffs as u64);
        h.pool_wakeups.set(pool.wakeups as u64);
        h.pool_workers.set(pool.workers_spawned as u64);
        h.scratch_bytes.set(scratch_bytes as u64);
        h.peak_panel.set_max(m.peak_panel_elems as u64);
        m
    }

    /// The session's scenario ranking, best match first: Gaussian
    /// log-likelihoods `−misfit/(2σ²)` of the arrived samples under each
    /// bank scenario, with posterior probabilities under a uniform prior.
    /// Because the misfit accumulates per sample, the ranking sharpens as
    /// the window grows. Empty when no bank is attached.
    pub fn ranked_matches(&self, id: usize) -> Vec<ScenarioMatch> {
        let Some(bank) = self.bank else {
            return Vec::new();
        };
        let sigma2 = bank.noise_std() * bank.noise_std();
        let s = self.session(id);
        let lls: Vec<f64> = s.misfit.iter().map(|&mis| -mis / (2.0 * sigma2)).collect();
        let ll_max = lls.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let weights: Vec<f64> = lls.iter().map(|&ll| (ll - ll_max).exp()).collect();
        let z: f64 = weights.iter().sum();
        let mut out: Vec<ScenarioMatch> = lls
            .iter()
            .zip(&weights)
            .enumerate()
            .map(|(j, (&ll, &w))| ScenarioMatch {
                scenario: j,
                log_likelihood: ll,
                probability: w / z,
            })
            .collect();
        out.sort_by(|a, b| b.log_likelihood.total_cmp(&a.log_likelihood));
        out
    }

    /// Posterior-weighted scenario **superposition forecast** for a
    /// session: mix the bank's precomputed per-scenario forecasts under
    /// the session's identification posterior
    /// ([`superpose_forecasts`] over [`Self::ranked_matches`]).
    /// `bank_forecasts` holds one forecast column per bank scenario
    /// (e.g. [`tsunami_core::WindowedForecaster::forecast_batch`] on the
    /// bank's clean observations). Falls back to the identification
    /// posterior as-is — works under both identification backends.
    pub fn superposed_forecast(&self, id: usize, bank_forecasts: &ForecastBatch) -> Forecast {
        let bank = self
            .bank
            .expect("superposed forecast requires an attached bank");
        assert_eq!(
            bank_forecasts.q_map.ncols(),
            bank.len(),
            "bank forecasts and bank disagree on the scenario count"
        );
        let matches = self.ranked_matches(id);
        superpose_forecasts(&matches, bank_forecasts)
    }
}

/// Posterior-weighted superposition of scenario forecasts (the
/// multi-scenario forecast blend of Fujita et al., arXiv:2407.03631):
///
/// ```text
///   q_mix = Σ_j p_j q_j,
///   var   = σ_w² + Σ_j p_j q_j² − q_mix²,
/// ```
///
/// the mixture mean and the law-of-total-variance spread — within-scenario
/// forecast variance `σ_w²` (shared across the bank's columns) plus the
/// *between-scenario* variance of the posterior-weighted ensemble. When
/// the posterior is a point mass the mixture collapses to that scenario's
/// forecast exactly; when identification is still ambiguous the
/// between-scenario term widens the credible band to span the competing
/// scenarios — an honest forecast *before* identification has converged,
/// and a better one than any single best-fit scenario for events that lie
/// between bank members.
pub fn superpose_forecasts(matches: &[ScenarioMatch], bank_forecasts: &ForecastBatch) -> Forecast {
    assert!(!matches.is_empty(), "superposition of an empty match list");
    let t0 = Instant::now();
    let nq = bank_forecasts.q_map.nrows();
    let mut q_mix = vec![0.0; nq];
    let mut second = vec![0.0; nq];
    for m in matches {
        let p = m.probability;
        if p == 0.0 {
            continue;
        }
        assert!(
            m.scenario < bank_forecasts.q_map.ncols(),
            "match references scenario {} outside the forecast batch",
            m.scenario
        );
        for i in 0..nq {
            let q = bank_forecasts.q_map[(i, m.scenario)];
            q_mix[i] += p * q;
            second[i] += p * q * q;
        }
    }
    let q_std = (0..nq)
        .map(|i| {
            let between = (second[i] - q_mix[i] * q_mix[i]).max(0.0);
            (bank_forecasts.q_std[i] * bank_forecasts.q_std[i] + between).sqrt()
        })
        .collect();
    Forecast {
        q_map: q_mix,
        q_std,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// One shard's tick: drain, fold, identify, materialize, classify — all
/// against this shard's sessions only. Runs on a pool worker when the
/// engine ticks shards in parallel (nested bulk operations inside the
/// batched window math then stay serial on that worker), or inline on
/// the caller for `shards = 1`.
fn tick_shard(shard: &mut Shard, ctx: &TickCtx<'_>) {
    let Shard {
        idx: shard_idx,
        sessions,
        inbox,
        arena,
        last,
        audit_scratch,
        free: _,
    } = shard;
    let mut p = TickMetrics::default();
    audit_scratch.clear();
    // Span clock: off, it never reads the system clock and every lap is
    // 0; stage accumulators then stay 0 and nothing is recorded.
    let on = ctx.obs_on;
    let mut sw = Stopwatch::start(on);
    let mut identify_ns = 0u64;
    let mut assim_ns = 0u64;
    let mut classify_ns = 0u64;

    // 1. Drain the lock-free inbox in arrival order. Batches whose
    //    generation stamp no longer matches their slot — the session was
    //    closed, or closed *and reopened for a new event*, since enqueue
    //    — are dropped; horizon clamping happens in the ring exactly as
    //    for direct pushes.
    for (id, generation, samples) in inbox.drain() {
        let s = &mut sessions[id / ctx.n_shards];
        if s.active && s.generation == generation {
            p.samples_drained += s.ring.push(&samples);
        }
    }
    let drain_ns = sw.lap();

    // 2. Fold. Sessions with a common unfolded range are bucketed so each
    //    basis streams once per bucket. The running projection `a += Uᵀd`
    //    is segmented at the mode-space rung boundaries and copied into
    //    the rung's fold slice as each one is crossed, so identification
    //    and assimilation read one fold and a split of the rows across
    //    ticks never changes a snapshot's bits. Rows past the widest rung
    //    carry no assimilation information and are clipped unless
    //    identification reads the projection. The fold is identification
    //    work when identification reads it, assimilation work otherwise.
    if let Some(u) = ctx.basis {
        let r = u.ncols();
        let bounds: Vec<usize> = match ctx.ladder {
            Ladder::ModeSpace(m) => m.windows.iter().map(|&w| w * m.nd).collect(),
            _ => Vec::new(),
        };
        let cap = match bounds.last() {
            Some(&k) if ctx.pod.is_none() => k,
            _ => usize::MAX,
        };
        for ((i0, i1), mut members) in buckets(sessions, |s| s.projected) {
            let (j0, j1) = (i0.min(cap), i1.min(cap));
            let mut cuts: Vec<usize> = bounds
                .iter()
                .copied()
                .filter(|&k| k > j0 && k <= j1)
                .collect();
            cuts.push(j1);
            cuts.dedup();
            let mut prev = j0;
            for &cut in &cuts {
                if cut > prev {
                    let mut group: Vec<(&[f64], &mut [f64])> = members
                        .iter_mut()
                        .map(|s| {
                            let StreamSession { ring, proj, .. } = &mut **s;
                            (ring.prefix(cut), &mut proj[..])
                        })
                        .collect();
                    identify::project_group(u, prev, cut, &mut group);
                    prev = cut;
                }
                for (w, _) in bounds
                    .iter()
                    .enumerate()
                    .filter(|&(_, &k)| k == cut && k > j0)
                {
                    for s in members.iter_mut() {
                        let StreamSession { proj, fold, .. } = &mut **s;
                        fold[w * r..(w + 1) * r].copy_from_slice(proj);
                    }
                }
            }
            for s in members.iter_mut() {
                s.projected = i1;
            }
            p.samples_projected += (j1 - j0) * members.len();
        }
        let fold_ns = sw.lap();
        if ctx.pod.is_some() {
            identify_ns += fold_ns;
        } else {
            assim_ns += fold_ns;
        }
    }
    //    A goal ladder folds `z_w += R_wᵀ d` per rung instead, each range
    //    clipped to the rung's window (which also skips rungs already
    //    fully folded); exact rungs carry an implicit identity right
    //    factor, so their fold is a straight copy of the new rows.
    if let Ladder::Goal(goal) = ctx.ladder {
        for ((i0, i1), mut members) in buckets(sessions, |s| s.folded) {
            for (ri, rung) in goal.rungs.iter().enumerate() {
                let k = goal.windows[ri] * goal.nd;
                let (i0w, i1w) = (i0.min(k), i1.min(k));
                if i0w >= i1w {
                    continue;
                }
                let off = goal.fold_offset(ri);
                match rung.map.right() {
                    None => {
                        for s in members.iter_mut() {
                            let StreamSession { ring, fold, .. } = &mut **s;
                            let rows = &ring.prefix(i1w)[i0w..i1w];
                            fold[off + i0w..off + i1w].copy_from_slice(rows);
                        }
                    }
                    Some(rw) => {
                        let rank = rw.ncols();
                        let mut group: Vec<(&[f64], &mut [f64])> = members
                            .iter_mut()
                            .map(|s| {
                                let StreamSession { ring, fold, .. } = &mut **s;
                                (ring.prefix(i1w), &mut fold[off..off + rank])
                            })
                            .collect();
                        identify::project_group(rw, i0w, i1w, &mut group);
                    }
                }
            }
            for s in members.iter_mut() {
                s.folded = i1;
            }
            p.samples_folded += (i1 - i0) * members.len();
        }
        assim_ns += sw.lap();
    }

    // 3. Sequential identification of newly arrived samples, bucketed
    //    like the fold so the shared operand (clean block, or POD
    //    coefficients) streams once per bucket: exact misfits accumulate
    //    per range, mode-space misfits are materialized from the
    //    projection folded above — bank-width work `r × B`, not
    //    `rows × B`.
    if let Some(bank) = ctx.bank {
        for ((i0, i1), mut members) in buckets(sessions, |s| s.scored) {
            for s in members.iter_mut() {
                s.scored = i1;
            }
            match ctx.pod {
                None => {
                    let mut group: Vec<(&[f64], &mut [f64])> = members
                        .iter_mut()
                        .map(|s| {
                            let StreamSession { ring, misfit, .. } = &mut **s;
                            (ring.prefix(i1), &mut misfit[..])
                        })
                        .collect();
                    let clean = bank.clean_observations();
                    identify::score_group_gemm(clean, ctx.sq_prefix, i0, i1, &mut group);
                }
                Some(pod) => {
                    for s in members.iter_mut() {
                        s.accumulate_energy(i0, i1);
                    }
                    let mut group: Vec<(f64, &[f64], &mut [f64])> = members
                        .iter_mut()
                        .map(|s| {
                            let StreamSession {
                                data_energy,
                                proj,
                                misfit,
                                ..
                            } = &mut **s;
                            (*data_energy, &proj[..], &mut misfit[..])
                        })
                        .collect();
                    identify::score_group_pod(pod.mode_coeffs(), ctx.sq_prefix, i1, &mut group);
                }
            }
            p.samples_scored += (i1 - i0) * members.len();
        }
    }
    identify_ns += sw.lap();

    // 4. Group sessions that crossed a new rung by rung index, then per
    //    bounded chunk: gather each session's input (ring prefix or fold
    //    slice) into the panel `X`, materialize `Q = A_w · X` and the
    //    optional inference, then scatter, classify and audit — all over
    //    the shard's reusable scratch arena.
    let windows = ctx.ladder.windows();
    let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (idx, s) in sessions.iter().enumerate().filter(|(_, s)| s.active) {
        if let Some(w) = windows.iter().rposition(|&wl| wl <= s.steps()) {
            if s.window_idx.is_none_or(|cur| w > cur) {
                groups.entry(w).or_default().push(idx);
            }
        }
    }
    assim_ns += sw.lap();
    for (w, members) in groups {
        let (left, q_std, fold_off) = ctx.ladder.rung(w);
        let (nq, rows) = (left.nrows(), left.ncols());
        for chunk in members.chunks(ctx.config.chunk) {
            let b = chunk.len();
            let t0 = Instant::now();
            let mut x = take_block(&mut arena.panel, rows, b);
            for (c, &idx) in chunk.iter().enumerate() {
                let s = &sessions[idx];
                let input = match fold_off {
                    None => s.ring.prefix(rows),
                    Some(off) => &s.fold[off..off + rows],
                };
                for (row, &v) in input.iter().enumerate() {
                    x[(row, c)] = v;
                }
            }
            p.peak_panel_elems = p.peak_panel_elems.max(rows * b).max(nq * b);
            let mut q = take_block(&mut arena.q_block, nq, b);
            left.matmul_into(&x, &mut q);
            let fc_seconds = t0.elapsed().as_secs_f64() / b as f64;

            let m = match ctx.ladder {
                Ladder::Windowed(f) if ctx.config.infer => {
                    // The windowed inference zero-pads the panel to the
                    // full horizon (`(Nd·Nt) × b`) before its FFT pass:
                    // part of the tick's real working set.
                    p.peak_panel_elems = p.peak_panel_elems.max(ctx.twin.n_data() * b);
                    let (p1, p2) = (&ctx.twin.phase1, &ctx.twin.phase2);
                    Some(infer_window_batch(p1, p2, &x, f.windows[w]).m_map)
                }
                Ladder::ModeSpace(ms) if ctx.config.infer => {
                    let m_map = ms.rungs[w]
                        .m_map
                        .as_ref()
                        .expect("StreamEngine::mode_space checks the ladder infers");
                    let mut m = take_block(&mut arena.m_block, m_map.nrows(), b);
                    m_map.matmul_into(&x, &mut m);
                    Some(m)
                }
                _ => None,
            };
            if let Some(m) = &m {
                p.peak_panel_elems = p.peak_panel_elems.max(m.nrows() * b);
            }
            let work_ns = sw.lap();
            assim_ns += work_ns;

            for (c, &idx) in chunk.iter().enumerate() {
                let s = &mut sessions[idx];
                scatter_forecast(s, &q, c, q_std, fc_seconds);
                let band = forecast_band(s.forecast.as_ref().expect("forecast just scattered"));
                let prev = s.level;
                s.level = classify_band(band, ctx.config.warn_threshold);
                if s.level != prev {
                    audit_scratch.push(WarningTransition {
                        session: s.id,
                        tick: ctx.tick_no,
                        rung: w,
                        from: prev,
                        to: s.level,
                        band_lo: band.0,
                        band_hi: band.1,
                        top_scenario: ctx.bank.and_then(|bk| top_posterior(&s.misfit, bk)),
                        assimilator: ctx.ladder.assimilator(),
                    });
                }
                if let Some(m) = &m {
                    let norm = (0..m.nrows())
                        .map(|row| m[(row, c)] * m[(row, c)])
                        .sum::<f64>();
                    s.m_norm = Some(norm.sqrt());
                }
                s.window_idx = Some(w);
            }
            let cls_ns = sw.lap();
            classify_ns += cls_ns;
            if on {
                ctx.handles.rung_spans[w].record(work_ns + cls_ns);
            }
            arena.panel = x.into_vec();
            arena.q_block = q.into_vec();
            if let (Ladder::ModeSpace(_), Some(m)) = (ctx.ladder, m) {
                arena.m_block = m.into_vec();
            }
            p.panels += 1;
            p.sessions_assimilated += b;
        }
    }

    let h = ctx.handles;
    if on {
        h.drain.record(drain_ns);
        h.identify.record(identify_ns);
        h.assimilate.record(assim_ns);
        h.classify.record(classify_ns);
        h.shard_spans[*shard_idx].record(drain_ns + identify_ns + assim_ns + classify_ns);
    }
    h.shard_peaks[*shard_idx].set_max(p.peak_panel_elems as u64);
    *last = p;
}

/// Open sessions bucketed by their not-yet-consumed row range
/// `[mark(s), filled)` (sessions with nothing new are skipped): a bucket
/// shares one range, so its group streams the shared operand once.
fn buckets(
    sessions: &mut [StreamSession],
    mark: fn(&StreamSession) -> usize,
) -> BTreeMap<(usize, usize), Vec<&mut StreamSession>> {
    let mut out: BTreeMap<(usize, usize), Vec<&mut StreamSession>> = BTreeMap::new();
    for s in sessions.iter_mut().filter(|s| s.active) {
        let range = (mark(s), s.ring.filled());
        if range.0 < range.1 {
            out.entry(range).or_default().push(s);
        }
    }
    out
}

/// Write chunk column `c` of the materialized QoI block into the
/// session's forecast *in place*: the per-session vectors are sized by
/// the first assimilation and reused afterwards, so steady-state
/// scattering allocates nothing.
fn scatter_forecast(s: &mut StreamSession, q: &DMatrix, c: usize, q_std: &[f64], seconds: f64) {
    let fc = s.forecast.get_or_insert_with(|| Forecast {
        q_map: Vec::new(),
        q_std: Vec::new(),
        seconds: 0.0,
    });
    fc.q_map.clear();
    fc.q_map.extend((0..q.nrows()).map(|r| q[(r, c)]));
    fc.q_std.clear();
    fc.q_std.extend_from_slice(q_std);
    fc.seconds = seconds;
}

/// The peak of a forecast's 95% credible band across its QoIs: the
/// largest lower bound and the largest upper bound. This is the pair
/// [`classify_forecast`] decides on, exposed separately so audit records
/// can carry the evidence behind a classification. A NaN anywhere in the
/// band propagates to that end (`f64::max` would drop it), so a forecast
/// poisoned by bad data cannot pass for a quiet one.
pub fn forecast_band(fc: &Forecast) -> (f64, f64) {
    let peak = |acc: f64, v: f64| {
        if acc.is_nan() || v.is_nan() {
            f64::NAN
        } else {
            acc.max(v)
        }
    };
    let mut band = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for i in 0..fc.q_map.len() {
        let (lo, hi) = fc.ci95(i);
        band = (peak(band.0, lo), peak(band.1, hi));
    }
    band
}

/// Classify a forecast's 95% credible band against a wave-height
/// threshold: [`WarningLevel::Warning`] if the *lower* bound tops the
/// threshold anywhere (confident exceedance), [`WarningLevel::Watch`] if
/// only the upper bound does (the band straddles it), else
/// [`WarningLevel::AllClear`].
pub fn classify_forecast(fc: &Forecast, threshold: f64) -> WarningLevel {
    classify_band(forecast_band(fc), threshold)
}

/// Classify a precomputed peak band ([`forecast_band`]) against a
/// wave-height threshold (see [`classify_forecast`]). Fails closed: a
/// NaN band end reads at least [`WarningLevel::Watch`], never
/// [`WarningLevel::AllClear`].
pub fn classify_band((lo_max, hi_max): (f64, f64), threshold: f64) -> WarningLevel {
    if lo_max > threshold {
        WarningLevel::Warning
    } else if hi_max > threshold || lo_max.is_nan() || hi_max.is_nan() {
        WarningLevel::Watch
    } else {
        WarningLevel::AllClear
    }
}

/// The bank scenario with the highest posterior probability under a
/// session's accumulated misfit (uniform prior) — `O(B)`, evaluated only
/// when a warning transition needs an audit record.
fn top_posterior(misfit: &[f64], bank: &ScenarioBank) -> Option<(usize, f64)> {
    if misfit.is_empty() {
        return None;
    }
    let sigma2 = bank.noise_std() * bank.noise_std();
    let mut best = 0usize;
    let mut best_ll = f64::NEG_INFINITY;
    for (j, &mis) in misfit.iter().enumerate() {
        let ll = -mis / (2.0 * sigma2);
        if ll > best_ll {
            best = j;
            best_ll = ll;
        }
    }
    // Softmax normalizer relative to the best scenario: its own weight is
    // exactly 1, so its posterior is 1/z.
    let z: f64 = misfit
        .iter()
        .map(|&mis| (-mis / (2.0 * sigma2) - best_ll).exp())
        .sum();
    Some((best, 1.0 / z))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_thresholds_partition_severity() {
        let fc = Forecast {
            q_map: vec![0.0, 0.5, 1.0],
            q_std: vec![0.1, 0.1, 0.1],
            seconds: 0.0,
        };
        // ci95 half-width ≈ 0.196: entry 2 spans ≈ [0.804, 1.196].
        assert_eq!(classify_forecast(&fc, 2.0), WarningLevel::AllClear);
        assert_eq!(classify_forecast(&fc, 1.1), WarningLevel::Watch);
        assert_eq!(classify_forecast(&fc, 0.5), WarningLevel::Warning);

        // Fail closed: a NaN mean anywhere (first, middle, last) stays in
        // the band, and far below threshold it still reads Watch, never
        // AllClear; a confident exceedance elsewhere stays a Warning.
        for pos in 0..3 {
            let mut nan = Forecast {
                q_map: fc.q_map.clone(),
                q_std: fc.q_std.clone(),
                seconds: 0.0,
            };
            nan.q_map[pos] = f64::NAN;
            let (lo, hi) = forecast_band(&nan);
            assert!(lo.is_nan() && hi.is_nan(), "NaN at {pos} was dropped");
            assert_eq!(classify_forecast(&nan, 2.0), WarningLevel::Watch);
        }
        assert_eq!(classify_band((0.5, f64::NAN), 0.1), WarningLevel::Warning);
    }

    #[test]
    fn inbox_drains_fifo_and_frees_undrained_batches() {
        let inbox = Inbox::new();
        inbox.push(0, 0, vec![1.0]);
        inbox.push(3, 1, vec![2.0, 3.0]);
        inbox.push(0, 0, vec![4.0]);
        let drained = inbox.drain();
        assert_eq!(
            drained,
            vec![(0, 0, vec![1.0]), (3, 1, vec![2.0, 3.0]), (0, 0, vec![4.0])]
        );
        assert!(inbox.drain().is_empty());
        // Left-over batches are reclaimed by Drop (checked under Miri-less
        // builds simply by not leaking in the allocator-counting tests).
        inbox.push(1, 0, vec![5.0]);
    }

    #[test]
    fn point_mass_superposition_collapses_to_the_single_forecast() {
        // With the whole posterior on one scenario the mixture mean is
        // that scenario's forecast and the between-scenario variance
        // vanishes, so the band equals the single-scenario band exactly.
        let batch = ForecastBatch {
            q_map: DMatrix::from_fn(3, 4, |i, j| (i + 1) as f64 * 0.5 + j as f64),
            q_std: vec![0.2, 0.3, 0.4],
            seconds: 0.0,
        };
        let matches: Vec<ScenarioMatch> = (0..4)
            .map(|j| ScenarioMatch {
                scenario: j,
                log_likelihood: if j == 2 { 0.0 } else { -1e9 },
                probability: if j == 2 { 1.0 } else { 0.0 },
            })
            .collect();
        let mix = superpose_forecasts(&matches, &batch);
        let single = batch.scenario(2);
        for i in 0..3 {
            assert!((mix.q_map[i] - single.q_map[i]).abs() < 1e-12);
            assert!((mix.q_std[i] - single.q_std[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn two_scenario_superposition_widens_the_band() {
        // An even split between two scenarios must land the mean halfway
        // and inflate the std by the between-scenario spread.
        let batch = ForecastBatch {
            q_map: DMatrix::from_fn(1, 2, |_, j| if j == 0 { 1.0 } else { 3.0 }),
            q_std: vec![0.1],
            seconds: 0.0,
        };
        let matches = [
            ScenarioMatch {
                scenario: 0,
                log_likelihood: 0.0,
                probability: 0.5,
            },
            ScenarioMatch {
                scenario: 1,
                log_likelihood: 0.0,
                probability: 0.5,
            },
        ];
        let mix = superpose_forecasts(&matches, &batch);
        assert!((mix.q_map[0] - 2.0).abs() < 1e-12);
        // var = 0.1² + (0.5·1 + 0.5·9 − 4) = 0.01 + 1.0
        assert!((mix.q_std[0] - 1.01f64.sqrt()).abs() < 1e-12);
    }
}
