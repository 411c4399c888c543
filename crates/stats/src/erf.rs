//! Error function, standard-normal CDF, PDF, and quantile function.
//!
//! `erf`/`erfc` use the rational Chebyshev approximation of W. J. Cody
//! (as popularized in Numerical Recipes' `erfc` with |relative error|
//! below 1.2e-7 everywhere, which is ample for yield computations), and
//! `phi_inv` uses Peter Acklam's rational approximation refined by one
//! Halley step against `phi`.

/// The standard normal probability density function.
///
/// ```
/// let p = statleak_stats::std_normal_pdf(0.0);
/// assert!((p - 0.3989422804014327).abs() < 1e-12);
/// ```
#[inline]
pub fn std_normal_pdf(x: f64) -> f64 {
    const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    INV_SQRT_2PI * (-0.5 * x * x).exp()
}

/// Complementary error function `erfc(x) = 1 - erf(x)`.
///
/// ```
/// assert!((statleak_stats::erfc(0.0) - 1.0).abs() < 1e-7);
/// assert!(statleak_stats::erfc(10.0) < 1e-40);
/// ```
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    // Chebyshev fit from Numerical Recipes.
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Error function `erf(x)`.
///
/// ```
/// assert!((statleak_stats::erf(1.0) - 0.8427007929497149).abs() < 1e-6);
/// ```
#[inline]
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Standard normal cumulative distribution function `Φ(x)`.
///
/// ```
/// assert!((statleak_stats::phi(0.0) - 0.5).abs() < 1e-7);
/// assert!((statleak_stats::phi(1.6448536269514722) - 0.95).abs() < 1e-6);
/// ```
#[inline]
pub fn phi(x: f64) -> f64 {
    0.5 * erfc(-x * std::f64::consts::FRAC_1_SQRT_2)
}

/// Inverse of the standard normal CDF, `Φ⁻¹(p)`.
///
/// Uses Acklam's rational approximation (relative error ~1.2e-9)
/// followed by one Halley refinement step against [`phi`], so
/// `phi(phi_inv(p))` returns `p` to ~1e-13 relative down to p ≈ 1e-310.
/// Against the exact quantile it is only as accurate as [`phi`]: within
/// ~1e-7. Below p ≈ 1e-310 the refinement would overflow, and Acklam's
/// value is returned unrefined (still finite down to the smallest
/// subnormal).
///
/// # Panics
///
/// Panics if `p` is not strictly inside `(0, 1)`.
///
/// ```
/// let z = statleak_stats::phi_inv(0.975);
/// assert!((z - 1.959963984540054).abs() < 1e-6);
/// ```
pub fn phi_inv(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "phi_inv requires p in (0,1), got {p}");
    // Coefficients for Acklam's algorithm.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement step against `phi`. Below p ≈ 1e-310 the
    // step's `exp(x²/2)` overflows and the correction is NaN; Acklam's
    // value stands there.
    let e = phi(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (0.5 * x * x).exp();
    let refined = x - u / (1.0 + 0.5 * x * u);
    if refined.is_finite() {
        refined
    } else {
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(0.5) - 0.5204998778130465).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-6);
        assert!((erf(2.0) - 0.9953222650189527).abs() < 1e-6);
        assert!((erf(-1.0) + 0.8427007929497149).abs() < 1e-6);
    }

    #[test]
    fn erfc_symmetry() {
        for &x in &[0.1, 0.7, 1.3, 2.9] {
            assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-7, "x={x}");
        }
    }

    #[test]
    fn phi_known_values() {
        assert!((phi(0.0) - 0.5).abs() < 1e-7);
        assert!((phi(1.0) - 0.8413447460685429).abs() < 1e-6);
        assert!((phi(-1.0) - 0.15865525393145707).abs() < 1e-6);
        assert!((phi(3.0) - 0.9986501019683699).abs() < 1e-6);
    }

    #[test]
    fn phi_inv_round_trip() {
        for &p in &[1e-6, 0.001, 0.025, 0.2, 0.5, 0.8, 0.95, 0.999, 1.0 - 1e-6] {
            let x = phi_inv(p);
            assert!((phi(x) - p).abs() < 1e-8, "p={p} x={x} phi={}", phi(x));
        }
    }

    #[test]
    fn phi_inv_is_finite_deep_in_the_tail() {
        // Here the Halley step's exp(x²/2) overflows; the unrefined value
        // must come back instead of NaN.
        for (p, near) in [(5e-324, -38.4674), (1e-320, -38.2691)] {
            let x = phi_inv(p);
            assert!((x - near).abs() < 1e-4, "p={p:e} x={x}");
            // One subnormal step of slack: nothing finer exists here.
            let back = phi(x);
            assert!(
                (back - p).abs() <= 1e-6 * p + 5e-324,
                "p={p:e} phi={back:e}"
            );
        }
    }

    #[test]
    fn phi_inv_standard_quantiles() {
        assert!(phi_inv(0.5).abs() < 1e-6);
        assert!((phi_inv(0.95) - 1.6448536269514722).abs() < 1e-6);
        assert!((phi_inv(0.99) - 2.3263478740408408).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "phi_inv requires p in (0,1)")]
    fn phi_inv_rejects_zero() {
        let _ = phi_inv(0.0);
    }

    #[test]
    fn pdf_integrates_to_one() {
        // Simple trapezoid over [-8, 8].
        let n = 16_000;
        let h = 16.0 / n as f64;
        let mut s = 0.0;
        for i in 0..=n {
            let x = -8.0 + i as f64 * h;
            let w = if i == 0 || i == n { 0.5 } else { 1.0 };
            s += w * std_normal_pdf(x);
        }
        assert!((s * h - 1.0).abs() < 1e-9);
    }
}
