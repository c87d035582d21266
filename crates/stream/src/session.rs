//! Per-stream session state: the time-major sample ring and the stream's
//! position on the window ladder.

use tsunami_core::Forecast;

/// Fixed-capacity, time-major buffer of arrived sensor samples.
///
/// The windowed operators act on *leading* blocks of the data vector
/// (data are ordered time-major, so the first `k·Nd` samples are exactly
/// the first `k` observation steps), which means no sample can ever be
/// evicted: the ring is preallocated at the full event horizon `Nd·Nt`
/// and fills monotonically. Pushes past the horizon are clamped — the
/// event is over; a longer record carries no further information for
/// this twin.
pub struct SampleRing {
    buf: Vec<f64>,
    filled: usize,
}

impl SampleRing {
    /// An empty ring holding up to `capacity` samples (`Nd·Nt`).
    pub fn new(capacity: usize) -> Self {
        SampleRing {
            buf: vec![0.0; capacity],
            filled: 0,
        }
    }

    /// Append arrived samples (time-major continuation of the stream).
    /// Returns how many were accepted; the remainder fell past the
    /// horizon and is dropped.
    pub fn push(&mut self, samples: &[f64]) -> usize {
        let take = samples.len().min(self.buf.len() - self.filled);
        self.buf[self.filled..self.filled + take].copy_from_slice(&samples[..take]);
        self.filled += take;
        take
    }

    /// Number of samples arrived so far.
    pub fn filled(&self) -> usize {
        self.filled
    }

    /// Full horizon capacity `Nd·Nt`.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// True once the whole horizon has arrived.
    pub fn is_full(&self) -> bool {
        self.filled == self.buf.len()
    }

    /// The leading `k` arrived samples (`k ≤ filled`).
    pub fn prefix(&self, k: usize) -> &[f64] {
        assert!(k <= self.filled, "prefix exceeds arrived samples");
        &self.buf[..k]
    }

    /// Empty the ring for reuse by a new event, keeping the allocation.
    /// Stale samples beyond the fill point are never read (every accessor
    /// is bounded by `filled`), so no zeroing is needed.
    pub fn clear(&mut self) {
        self.filled = 0;
    }
}

/// Warning classification from a forecast's 95% credible band against the
/// operator's wave-height threshold. Ordered by severity, and it
/// *tightens* as the observation window grows: the posterior std shrinks
/// monotonically with window length, so the band narrows and a session
/// graduates from straddling the threshold to a firm call.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum WarningLevel {
    /// Even the upper credible bound stays below the threshold everywhere.
    AllClear,
    /// The credible band straddles the threshold somewhere.
    Watch,
    /// The lower credible bound exceeds the threshold somewhere: the
    /// forecast is confident the wave tops the threshold.
    Warning,
}

impl std::fmt::Display for WarningLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(match self {
            WarningLevel::AllClear => "all-clear",
            WarningLevel::Watch => "WATCH",
            WarningLevel::Warning => "WARNING",
        })
    }
}

/// One live observation stream: its arrived samples, ladder position,
/// sequential identification state, and latest online products.
pub struct StreamSession {
    /// Engine-assigned session id (index into the engine's session table).
    pub id: usize,
    /// Arrived samples, time-major.
    pub(crate) ring: SampleRing,
    /// Data entries per observation step (`Nd`).
    pub(crate) nd: usize,
    /// Ladder index of the widest window assimilated so far.
    pub(crate) window_idx: Option<usize>,
    /// Samples already folded into the sequential scenario scores.
    pub(crate) scored: usize,
    /// Per-scenario accumulated squared misfit `Σ (d_i − s_ji)²` over the
    /// scored samples (empty when no bank is attached). Under mode-space
    /// identification this is *materialized* (overwritten) from the
    /// running projection each scoring pass instead of accumulated.
    pub(crate) misfit: Vec<f64>,
    /// Running POD projection `a = Uᵀd` over the first `projected`
    /// samples (empty unless the engine has a mode-space ladder or a
    /// [`tsunami_core::PodBank`]; one fold serves both assimilation and
    /// mode-space identification).
    pub(crate) proj: Vec<f64>,
    /// Samples already folded into `proj`.
    pub(crate) projected: usize,
    /// Concatenated per-rung assimilation inputs (empty on a windowed
    /// ladder): a goal ladder's running states `z_w = R_wᵀ d_w` at its
    /// fold offsets, or a mode-space ladder's snapshots of `proj`
    /// (rung `w`'s `r`-slice at `w·r`, written as the stream crosses
    /// that rung's boundary and frozen afterwards).
    pub(crate) fold: Vec<f64>,
    /// Samples already folded into a goal ladder's `fold`.
    pub(crate) folded: usize,
    /// Running data energy `‖d‖²` over the scored samples, with its Kahan
    /// compensation term — accumulated across ticks, so compensated for
    /// the same long-horizon reason as the clean-energy prefix sums.
    pub(crate) data_energy: f64,
    pub(crate) data_energy_comp: f64,
    /// Slot generation, bumped every close. Inbox batches are stamped
    /// with the generation current at enqueue time and dropped at drain
    /// on mismatch, so a batch staged for a closed event can never leak
    /// into the next event reusing the slot (and its id).
    pub(crate) generation: u64,
    /// Latest forecast (with credible intervals).
    pub forecast: Option<Forecast>,
    /// `‖m_map‖₂` of the latest parameter inference.
    pub m_norm: Option<f64>,
    /// Latest warning classification.
    pub level: WarningLevel,
    /// Whether the session is open (closed sessions sit on the engine's
    /// freelist awaiting reuse and are skipped by every tick stage).
    pub(crate) active: bool,
}

impl StreamSession {
    pub(crate) fn new(
        id: usize,
        capacity: usize,
        nd: usize,
        n_scenarios: usize,
        n_proj: usize,
        n_fold: usize,
    ) -> Self {
        StreamSession {
            id,
            ring: SampleRing::new(capacity),
            nd,
            window_idx: None,
            scored: 0,
            misfit: vec![0.0; n_scenarios],
            proj: vec![0.0; n_proj],
            projected: 0,
            fold: vec![0.0; n_fold],
            folded: 0,
            data_energy: 0.0,
            data_energy_comp: 0.0,
            generation: 0,
            forecast: None,
            m_norm: None,
            level: WarningLevel::AllClear,
            active: true,
        }
    }

    /// Reset a closed session for a fresh event, reusing the ring and
    /// misfit allocations instead of allocating new ones — the freelist
    /// half of the engine's session-eviction story. The generation is
    /// deliberately *not* reset: it was bumped at close, and keeping the
    /// new value is what invalidates inbox batches staged for the old
    /// event under the same id.
    pub(crate) fn reopen(&mut self, n_scenarios: usize, n_proj: usize, n_fold: usize) {
        debug_assert!(!self.active, "reopen of an open session");
        self.ring.clear();
        self.window_idx = None;
        self.scored = 0;
        self.misfit.clear();
        self.misfit.resize(n_scenarios, 0.0);
        self.proj.clear();
        self.proj.resize(n_proj, 0.0);
        self.projected = 0;
        self.fold.clear();
        self.fold.resize(n_fold, 0.0);
        self.folded = 0;
        self.data_energy = 0.0;
        self.data_energy_comp = 0.0;
        self.forecast = None;
        self.m_norm = None;
        self.level = WarningLevel::AllClear;
        self.active = true;
    }

    /// Fold ring rows `[i0, i1)` into the running data energy `‖d‖²`
    /// (compensated accumulation — see the field docs).
    pub(crate) fn accumulate_energy(&mut self, i0: usize, i1: usize) {
        let StreamSession {
            ring,
            data_energy,
            data_energy_comp,
            ..
        } = self;
        for &v in &ring.prefix(i1)[i0..i1] {
            let y = v * v - *data_energy_comp;
            let t = *data_energy + y;
            *data_energy_comp = (t - *data_energy) - y;
            *data_energy = t;
        }
    }

    /// True while the session is open (not returned to the freelist).
    pub fn is_open(&self) -> bool {
        self.active
    }

    /// Number of *complete* observation steps arrived (a trailing partial
    /// step waits in the ring until its remaining sensors report).
    pub fn steps(&self) -> usize {
        self.ring.filled() / self.nd
    }

    /// Total samples arrived so far.
    pub fn samples(&self) -> usize {
        self.ring.filled()
    }

    /// Per-scenario squared misfit over the scored samples (empty when no
    /// bank is attached). Exact accumulation or mode-space
    /// materialization, depending on the engine's identification backend.
    pub fn misfit_scores(&self) -> &[f64] {
        &self.misfit
    }

    /// Ladder index of the widest window assimilated so far (`None`
    /// before the first boundary crossing).
    pub fn window(&self) -> Option<usize> {
        self.window_idx
    }

    /// True once the stream has delivered the whole horizon.
    pub fn is_complete(&self) -> bool {
        self.ring.is_full()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_fills_monotonically_and_clamps_at_horizon() {
        let mut r = SampleRing::new(10);
        assert_eq!(r.push(&[1.0, 2.0, 3.0]), 3);
        assert_eq!(r.filled(), 3);
        assert_eq!(r.push(&[4.0; 6]), 6);
        assert!(!r.is_full());
        // 9 filled, capacity 10: only one of the next three fits.
        assert_eq!(r.push(&[5.0, 6.0, 7.0]), 1);
        assert!(r.is_full());
        assert_eq!(r.push(&[8.0]), 0);
        assert_eq!(r.prefix(4), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn session_counts_complete_steps_only() {
        let mut s = StreamSession::new(0, 12, 4, 0, 0, 0);
        s.ring.push(&[0.5; 6]);
        assert_eq!(s.samples(), 6);
        assert_eq!(s.steps(), 1, "partial second step must not count");
        s.ring.push(&[0.5; 2]);
        assert_eq!(s.steps(), 2);
    }

    #[test]
    fn warning_levels_order_by_severity() {
        assert!(WarningLevel::AllClear < WarningLevel::Watch);
        assert!(WarningLevel::Watch < WarningLevel::Warning);
    }
}
