//! Seeded arrival schedules: when each session starts, which scenario it
//! replays, and when each piece of its data is due.
//!
//! Every session delivers its `nd × nt` samples time-major, but never a
//! whole step at once: each step is cut at seeded sensor boundaries into
//! one to [`ScheduleSpec::max_parts`] partial steps whose due times are
//! jittered within the step's interval. Sessions are therefore never in
//! lockstep, and every session crosses every rung of the window ladder.

use crate::rng::Rng;

/// How session start times are laid out.
#[derive(Clone, Copy, Debug)]
pub enum Starts {
    /// Evenly spaced waves of sessions; within a wave, starts are jittered
    /// by up to `jitter` of one step (near-lockstep).
    Waves { waves: usize, jitter: f64 },
    /// Independent uniform start times over the whole span.
    Staggered,
}

#[derive(Clone, Debug)]
pub struct ScheduleSpec {
    /// Sessions started per second of schedule time (the offered rate).
    pub rate: f64,
    /// Seconds over which sessions start.
    pub span: f64,
    /// Wall seconds of one observation step.
    pub step_s: f64,
    /// Sensors (samples per observation step).
    pub nd: usize,
    /// Observation steps per session (the horizon).
    pub nt: usize,
    /// Window ladder, in steps (ascending).
    pub windows: Vec<usize>,
    pub starts: Starts,
    /// Scenarios a session may replay.
    pub n_scenarios: usize,
    /// Share of sessions that receive one non-finite sample.
    pub nan_frac: f64,
    /// Most partial steps one observation step is cut into.
    pub max_parts: usize,
}

/// One session of the schedule.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    pub start: f64,
    /// Bank column whose clean curve the session replays.
    pub scenario: usize,
    /// Sample index that is replaced by NaN, if any.
    pub nan_at: Option<usize>,
}

/// One delivery: samples `[lo, hi)` of session `event`, due at `due`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Part {
    pub due: f64,
    pub event: u32,
    pub lo: u32,
    pub hi: u32,
    /// Rung whose last sample this part delivers.
    pub rung: Option<u8>,
}

#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    pub events: Vec<Event>,
    /// Every delivery, ordered by due time.
    pub parts: Vec<Part>,
}

impl ScheduleSpec {
    pub fn n_events(&self) -> usize {
        ((self.rate * self.span).round() as usize).max(1)
    }

    pub fn build(&self, seed: u64) -> Schedule {
        let n = self.n_events();
        let mut rng = Rng::fork(seed, 1);
        let starts: Vec<f64> = match self.starts {
            Starts::Waves { waves, jitter } => {
                let waves = waves.clamp(1, n);
                (0..n)
                    .map(|i| {
                        let wave = i * waves / n;
                        wave as f64 * self.span / waves as f64
                            + jitter * self.step_s * rng.uniform()
                    })
                    .collect()
            }
            Starts::Staggered => (0..n).map(|_| self.span * rng.uniform()).collect(),
        };
        let mut nan_events: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut nan_events);
        let n_nan = ((self.nan_frac * n as f64).round() as usize).clamp(1, n);
        let mut nan_at = vec![None; n];
        let first_rung = self.windows[0].max(1);
        for &i in &nan_events[..n_nan] {
            nan_at[i] = Some(rng.below(first_rung) * self.nd + rng.below(self.nd));
        }
        let events: Vec<Event> = (0..n)
            .map(|i| Event {
                start: starts[i],
                scenario: rng.below(self.n_scenarios),
                nan_at: nan_at[i],
            })
            .collect();

        let mut parts = Vec::with_capacity(n * self.nt * self.max_parts);
        for (i, ev) in events.iter().enumerate() {
            for t in 0..self.nt {
                let k = 1 + rng.below(self.max_parts.min(self.nd));
                let mut cuts: Vec<usize> = (1..self.nd).collect();
                rng.shuffle(&mut cuts);
                let mut cuts = cuts[..k - 1].to_vec();
                cuts.sort_unstable();
                cuts.push(self.nd);
                let mut offsets: Vec<f64> = (0..k).map(|_| rng.uniform()).collect();
                offsets.sort_by(f64::total_cmp);
                let rung = self.windows.iter().position(|&w| w == t + 1);
                let mut lo = 0;
                for (j, (&hi, &u)) in cuts.iter().zip(&offsets).enumerate() {
                    parts.push(Part {
                        due: ev.start + (t as f64 + u) * self.step_s,
                        event: i as u32,
                        lo: (t * self.nd + lo) as u32,
                        hi: (t * self.nd + hi) as u32,
                        rung: if j + 1 == k {
                            rung.map(|w| w as u8)
                        } else {
                            None
                        },
                    });
                    lo = hi;
                }
            }
        }
        parts.sort_by(|a, b| {
            a.due
                .total_cmp(&b.due)
                .then(a.event.cmp(&b.event))
                .then(a.lo.cmp(&b.lo))
        });
        Schedule { events, parts }
    }
}

impl Schedule {
    /// The sample stream session `i` replays: the scenario's clean curve
    /// plus seeded Gaussian noise, with its NaN injected.
    pub fn stream(&self, i: usize, clean: &[f64], noise_std: f64, seed: u64) -> Vec<f64> {
        let mut rng = Rng::fork(seed, 1_000_000 + i as u64);
        let mut d: Vec<f64> = clean
            .iter()
            .map(|&c| c + noise_std * rng.normal())
            .collect();
        if let Some(k) = self.events[i].nan_at {
            d[k] = f64::NAN;
        }
        d
    }

    /// Observation steps the whole schedule delivers.
    pub fn total_steps(&self, nt: usize) -> usize {
        self.events.len() * nt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(starts: Starts) -> ScheduleSpec {
        ScheduleSpec {
            rate: 50.0,
            span: 2.0,
            step_s: 0.05,
            nd: 16,
            nt: 16,
            windows: vec![4, 8, 12, 16],
            starts,
            n_scenarios: 16,
            nan_frac: 0.01,
            max_parts: 4,
        }
    }

    #[test]
    fn same_seed_gives_the_same_schedule() {
        let s = spec(Starts::Staggered);
        assert_eq!(s.build(7), s.build(7));
        assert_ne!(s.build(7), s.build(8));
        let w = spec(Starts::Waves {
            waves: 4,
            jitter: 0.02,
        });
        assert_eq!(w.build(3), w.build(3));
    }

    #[test]
    fn every_session_delivers_its_stream_in_order_and_crosses_every_rung() {
        let s = spec(Starts::Waves {
            waves: 4,
            jitter: 0.02,
        });
        let sched = s.build(11);
        assert_eq!(sched.events.len(), 100);
        for i in 0..sched.events.len() {
            let mine: Vec<&Part> = sched
                .parts
                .iter()
                .filter(|p| p.event as usize == i)
                .collect();
            let mut next = 0;
            for p in &mine {
                assert_eq!(p.lo, next, "session {i} delivers out of order");
                assert!(p.hi > p.lo);
                next = p.hi;
            }
            assert_eq!(next as usize, s.nd * s.nt);
            let rungs: Vec<u8> = mine.iter().filter_map(|p| p.rung).collect();
            assert_eq!(rungs, vec![0, 1, 2, 3]);
        }
        assert!(sched.parts.windows(2).all(|w| w[0].due <= w[1].due));
    }

    #[test]
    fn deliveries_are_jittered_partial_steps_not_lockstep() {
        let sched = spec(Starts::Staggered).build(5);
        // Some steps arrive in several pieces...
        assert!(sched.parts.len() > 100 * 16 + 100);
        // ...and no two sessions share a due time.
        let mut dues: Vec<f64> = sched.parts.iter().map(|p| p.due).collect();
        dues.sort_by(f64::total_cmp);
        dues.dedup();
        assert_eq!(dues.len(), sched.parts.len());
    }

    #[test]
    fn nan_injection_hits_a_fixed_share_inside_the_first_rung() {
        let s = spec(Starts::Staggered);
        let sched = s.build(9);
        let fed: Vec<usize> = sched.events.iter().filter_map(|e| e.nan_at).collect();
        assert_eq!(fed.len(), 1);
        assert!(fed.iter().all(|&k| k < s.windows[0] * s.nd));
        let i = sched
            .events
            .iter()
            .position(|e| e.nan_at.is_some())
            .unwrap();
        let d = sched.stream(i, &vec![1.0; s.nd * s.nt], 0.01, 9);
        assert_eq!(d.iter().filter(|v| !v.is_finite()).count(), 1);
    }
}
