//! The fusion function £ of Eq. 14.
//!
//! `SR' = (1-δ)(1-λ)·SIR' + (1-δ)λ·SUR' + δ·SUIR'`
//!
//! On sparse data any of the three estimators can be unavailable (no
//! similar item the user rated, no like-minded user who rated the item).
//! The paper does not spell out that case; this implementation
//! renormalizes the weights of the available estimators so the prediction
//! remains a convex combination — equivalent to conditioning Eq. 14 on
//! the evidence that exists.

/// The three Eq. 14 weights for a given `(λ, δ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusionWeights {
    /// Weight of `SIR'`: `(1-δ)(1-λ)`.
    pub sir: f64,
    /// Weight of `SUR'`: `(1-δ)λ`.
    pub sur: f64,
    /// Weight of `SUIR'`: `δ`.
    pub suir: f64,
}

impl FusionWeights {
    /// Computes the weights from `λ` and `δ`.
    pub fn new(lambda: f64, delta: f64) -> Self {
        Self {
            sir: (1.0 - delta) * (1.0 - lambda),
            sur: (1.0 - delta) * lambda,
            suir: delta,
        }
    }
}

/// Fuses the available estimators per Eq. 14, renormalizing over the ones
/// that are present. Returns `None` when no estimator produced a value.
pub fn fuse(
    sir: Option<f64>,
    sur: Option<f64>,
    suir: Option<f64>,
    lambda: f64,
    delta: f64,
) -> Option<f64> {
    let w = FusionWeights::new(lambda, delta);
    let mut num = 0.0;
    let mut den = 0.0;
    for (value, weight) in [(sir, w.sir), (sur, w.sur), (suir, w.suir)] {
        if let Some(v) = value {
            num += weight * v;
            den += weight;
        }
    }
    if den > f64::EPSILON {
        Some(num / den)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one() {
        for &(l, d) in &[(0.8, 0.1), (0.0, 0.0), (1.0, 1.0), (0.3, 0.7)] {
            let w = FusionWeights::new(l, d);
            assert!((w.sir + w.sur + w.suir - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn paper_defaults_weight_sur_highest() {
        let w = FusionWeights::new(0.8, 0.1);
        assert!((w.sur - 0.72).abs() < 1e-12);
        assert!((w.sir - 0.18).abs() < 1e-12);
        assert!((w.suir - 0.1).abs() < 1e-12);
        assert!(w.sur > w.sir && w.sir > w.suir);
    }

    #[test]
    fn full_fusion_matches_equation_fourteen() {
        let r = fuse(Some(2.0), Some(4.0), Some(3.0), 0.8, 0.1).unwrap();
        let expect = 0.18 * 2.0 + 0.72 * 4.0 + 0.1 * 3.0;
        assert!((r - expect).abs() < 1e-12);
    }

    #[test]
    fn lambda_extremes_select_components() {
        // λ=1, δ=0: pure SUR'
        assert_eq!(fuse(Some(1.0), Some(5.0), None, 1.0, 0.0), Some(5.0));
        // λ=0, δ=0: pure SIR'
        assert_eq!(fuse(Some(1.0), Some(5.0), None, 0.0, 0.0), Some(1.0));
        // δ=1: pure SUIR'
        assert_eq!(fuse(Some(1.0), Some(5.0), Some(2.5), 0.8, 1.0), Some(2.5));
    }

    #[test]
    fn missing_components_renormalize() {
        // Only SUR' present: its weight cancels out.
        assert_eq!(fuse(None, Some(4.2), None, 0.8, 0.1), Some(4.2));
        // SIR' and SUIR' present: 0.18 and 0.1 renormalize.
        let r = fuse(Some(2.0), None, Some(4.0), 0.8, 0.1).unwrap();
        let expect = (0.18 * 2.0 + 0.1 * 4.0) / 0.28;
        assert!((r - expect).abs() < 1e-12);
    }

    #[test]
    fn all_missing_yields_none() {
        assert_eq!(fuse(None, None, None, 0.8, 0.1), None);
    }

    #[test]
    fn zero_weight_component_present_but_alone_yields_none() {
        // λ=1 zeroes SIR's weight; if SIR is the only evidence the fused
        // denominator is 0 and we must abstain rather than divide by 0.
        assert_eq!(fuse(Some(3.0), None, None, 1.0, 0.0), None);
    }

    #[test]
    fn fusion_is_convex() {
        // result always lies within [min, max] of the present components
        let cases = [
            (Some(1.0), Some(5.0), Some(3.0)),
            (Some(2.0), None, Some(4.5)),
            (None, Some(3.3), None),
        ];
        for (a, b, c) in cases {
            let r = fuse(a, b, c, 0.8, 0.1).unwrap();
            let present: Vec<f64> = [a, b, c].iter().flatten().copied().collect();
            let lo = present.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = present.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            assert!(r >= lo - 1e-12 && r <= hi + 1e-12);
        }
    }
}
