//! Which warning decisions count as failed.
//!
//! A decision fails when it reads `AllClear` for a session that was fed
//! a non-finite sample, when its credible band is non-finite, when the
//! rung crossing got no classification in its tick, or when a
//! reduced-order level disagrees with the exact oracle although the
//! exact band sits farther from the threshold than the rung's certified
//! error bound.

use tsunami_stream::WarningLevel;

/// The exact oracle's view of one decision (checked sessions only).
#[derive(Clone, Copy, Debug)]
pub struct Oracle {
    pub level: WarningLevel,
    pub band: (f64, f64),
    /// Certified bound on any forecast-mean entry's deviation from the
    /// exact forecast (0 for an exact path, up to roundoff).
    pub bound: f64,
}

#[derive(Clone, Copy, Debug)]
pub struct Decision {
    /// The engine classified the session at this rung or a wider one.
    pub classified: bool,
    pub band: (f64, f64),
    pub level: WarningLevel,
    /// The session received a non-finite sample.
    pub nan_fed: bool,
    pub oracle: Option<Oracle>,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Failure {
    Unclassified,
    AllClearOnBadData,
    NonFiniteBand,
    OutsideCertifiedBound,
}

pub fn classify(d: &Decision, threshold: f64) -> Option<Failure> {
    if !d.classified {
        return Some(Failure::Unclassified);
    }
    if d.nan_fed && d.level == WarningLevel::AllClear {
        return Some(Failure::AllClearOnBadData);
    }
    if !(d.band.0.is_finite() && d.band.1.is_finite()) {
        return Some(Failure::NonFiniteBand);
    }
    if let Some(o) = d.oracle {
        // Each band end moves by at most `bound`, so a level can differ
        // only where an exact band end lies within `bound` of the
        // threshold.
        let near = |v: f64| (v - threshold).abs() <= o.bound;
        if o.level != d.level && !(near(o.band.0) || near(o.band.1)) {
            return Some(Failure::OutsideCertifiedBound);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(band: (f64, f64), level: WarningLevel, nan_fed: bool) -> Decision {
        Decision {
            classified: true,
            band,
            level,
            nan_fed,
            oracle: None,
        }
    }

    #[test]
    fn all_clear_on_a_nan_fed_session_is_a_failure() {
        let d = decision((0.01, 0.02), WarningLevel::AllClear, true);
        assert_eq!(classify(&d, 0.1), Some(Failure::AllClearOnBadData));
        // The same reading on trusted data is a correct decision.
        let ok = decision((0.01, 0.02), WarningLevel::AllClear, false);
        assert_eq!(classify(&ok, 0.1), None);
        // A NaN-fed session that escalates is not flagged.
        let watch = decision((0.05, 0.2), WarningLevel::Watch, true);
        assert_eq!(classify(&watch, 0.1), None);
    }

    #[test]
    fn a_non_finite_band_fails() {
        // What `forecast_band` returns once a NaN reaches the forecast:
        // classified AllClear, which is the first failure named.
        let band = (f64::NEG_INFINITY, f64::NEG_INFINITY);
        let d = decision(band, WarningLevel::AllClear, true);
        assert_eq!(classify(&d, 0.1), Some(Failure::AllClearOnBadData));
        let d = decision((f64::NAN, 0.3), WarningLevel::Watch, false);
        assert_eq!(classify(&d, 0.1), Some(Failure::NonFiniteBand));
    }

    #[test]
    fn missing_classification_fails() {
        let mut d = decision((0.2, 0.3), WarningLevel::Warning, false);
        d.classified = false;
        assert_eq!(classify(&d, 0.1), Some(Failure::Unclassified));
    }

    #[test]
    fn level_flips_are_allowed_only_within_the_certified_bound() {
        let mut d = decision((0.08, 0.3), WarningLevel::Watch, false);
        d.oracle = Some(Oracle {
            level: WarningLevel::Warning,
            band: (0.105, 0.31),
            bound: 0.01,
        });
        assert_eq!(classify(&d, 0.1), None);
        d.oracle = Some(Oracle {
            level: WarningLevel::Warning,
            band: (0.15, 0.31),
            bound: 0.01,
        });
        assert_eq!(classify(&d, 0.1), Some(Failure::OutsideCertifiedBound));
    }
}
