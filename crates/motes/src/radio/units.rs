//! Power unit conversions.
//!
//! All link-budget arithmetic happens in dB-space (additive), while power
//! *summation* — noise plus interference, superposed HACKs — must happen in
//! linear milliwatts. These two helpers are the only conversion points.

/// Converts a power level in dBm to linear milliwatts.
#[inline]
pub(crate) fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Converts linear milliwatts to dBm. Zero (or negative) input maps to
/// negative infinity, which orders correctly in comparisons.
#[inline]
pub(crate) fn mw_to_dbm(mw: f64) -> f64 {
    if mw <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * mw.log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_anchors() {
        assert!((dbm_to_mw(0.0) - 1.0).abs() < 1e-12);
        assert!((dbm_to_mw(10.0) - 10.0).abs() < 1e-9);
        assert!((dbm_to_mw(-30.0) - 0.001).abs() < 1e-12);
        assert!((mw_to_dbm(1.0)).abs() < 1e-12);
        assert!((mw_to_dbm(100.0) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn roundtrip() {
        for dbm in [-95.0, -60.0, -25.5, 0.0, 4.0] {
            let rt = mw_to_dbm(dbm_to_mw(dbm));
            assert!((rt - dbm).abs() < 1e-9, "{dbm} -> {rt}");
        }
    }

    #[test]
    fn doubling_power_adds_3db() {
        let one = dbm_to_mw(-70.0);
        let two = mw_to_dbm(one + one);
        assert!((two - (-70.0 + 3.0103)).abs() < 0.01);
    }

    #[test]
    fn zero_power_is_negative_infinity() {
        assert_eq!(mw_to_dbm(0.0), f64::NEG_INFINITY);
        assert!(mw_to_dbm(0.0) < -200.0);
    }
}
