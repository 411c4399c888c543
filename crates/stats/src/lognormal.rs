//! Lognormal distribution — the natural law of sub-threshold leakage.
//!
//! If `ln X ~ N(mu, sigma²)` then `X` is lognormal. Because sub-threshold
//! leakage depends exponentially on threshold voltage, and threshold voltage
//! is (to first order) Gaussian in the process parameters, every gate's
//! leakage current is lognormal and the full-chip leakage is a sum of
//! correlated lognormals.

use crate::erf::{phi, phi_inv};

/// A lognormal distribution parameterized by the mean `mu` and standard
/// deviation `sigma` of the underlying Gaussian `ln X`.
///
/// ```
/// use statleak_stats::LogNormal;
/// let x = LogNormal::new(0.0, 1.0);
/// assert!((x.median() - 1.0).abs() < 1e-12);
/// assert!((x.mean() - (0.5f64).exp()).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a lognormal from the ln-space moments.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is not finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite(), "mu must be finite, got {mu}");
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "sigma must be finite and non-negative, got {sigma}"
        );
        Self { mu, sigma }
    }

    /// Builds the lognormal whose *linear-space* mean and variance match the
    /// given moments (Fenton–Wilkinson moment matching).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive or `variance` is negative.
    pub fn from_moments(mean: f64, variance: f64) -> Self {
        assert!(mean > 0.0, "lognormal mean must be positive, got {mean}");
        assert!(variance >= 0.0, "variance must be non-negative");
        let ratio = 1.0 + variance / (mean * mean);
        let sigma2 = ratio.ln();
        let mu = mean.ln() - 0.5 * sigma2;
        Self::new(mu, sigma2.sqrt())
    }

    /// The ln-space mean `mu`.
    #[inline]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The ln-space standard deviation `sigma`.
    #[inline]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Linear-space mean `E[X] = exp(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }

    /// Linear-space variance `(exp(sigma²) − 1)·exp(2mu + sigma²)`.
    pub fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }

    /// Linear-space standard deviation.
    pub fn std(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The median `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// Cumulative distribution function `P(X ≤ x)`; zero for `x ≤ 0`.
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        if self.sigma == 0.0 {
            return if x >= self.median() { 1.0 } else { 0.0 };
        }
        phi((x.ln() - self.mu) / self.sigma)
    }

    /// Quantile (inverse CDF) at probability `p`.
    ///
    /// The 95th percentile — the paper's leakage objective — is
    /// `quantile(0.95)`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not strictly inside `(0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        (self.mu + self.sigma * phi_inv(p)).exp()
    }

    /// Multiplies the random variable by a positive constant `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is not strictly positive.
    pub fn scale(&self, k: f64) -> LogNormal {
        assert!(k > 0.0, "scale factor must be positive, got {k}");
        LogNormal::new(self.mu + k.ln(), self.sigma)
    }
}

impl std::fmt::Display for LogNormal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "LogN(mu={:.6}, sigma={:.6})", self.mu, self.sigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_round_trip() {
        let x = LogNormal::new(1.3, 0.7);
        let y = LogNormal::from_moments(x.mean(), x.variance());
        assert!((x.mu() - y.mu()).abs() < 1e-10);
        assert!((x.sigma() - y.sigma()).abs() < 1e-10);
    }

    #[test]
    fn cdf_median_is_half() {
        let x = LogNormal::new(-2.0, 0.9);
        assert!((x.cdf(x.median()) - 0.5).abs() < 1e-7);
    }

    #[test]
    fn quantile_cdf_inverse() {
        let x = LogNormal::new(0.4, 1.1);
        for &p in &[0.05, 0.5, 0.95, 0.99] {
            assert!((x.cdf(x.quantile(p)) - p).abs() < 1e-8);
        }
    }

    #[test]
    fn tail_is_heavy() {
        // 95th percentile well above mean for large sigma.
        let x = LogNormal::new(0.0, 1.5);
        assert!(x.quantile(0.95) > x.mean());
    }

    #[test]
    fn cdf_zero_below_support() {
        let x = LogNormal::new(0.0, 1.0);
        assert_eq!(x.cdf(0.0), 0.0);
        assert_eq!(x.cdf(-3.0), 0.0);
    }

    #[test]
    fn scale_shifts_mu() {
        let x = LogNormal::new(0.0, 0.5);
        let y = x.scale(10.0);
        assert!((y.mean() - 10.0 * x.mean()).abs() < 1e-9);
        assert!((y.sigma() - x.sigma()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "lognormal mean must be positive")]
    fn from_moments_rejects_nonpositive_mean() {
        let _ = LogNormal::from_moments(0.0, 1.0);
    }
}
