//! Run results: per-chip samples, empirical summaries with binomial
//! confidence intervals, and control-variate-adjusted estimators.

use statleak_stats::{phi, wilson_interval, BinomialInterval, Histogram, Summary};

/// Normal quantile of the default two-sided 95% confidence level used by
/// the reported intervals.
pub const DEFAULT_CI_Z: f64 = 1.959_963_985;

/// One sampled chip: circuit delay and total leakage current.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChipSample {
    /// Circuit delay (ps) under the sampled parameters.
    pub delay: f64,
    /// Total leakage current (A) under the sampled parameters.
    pub leakage: f64,
}

/// Per-sample linear-surrogate evaluations plus their analytically known
/// moments, recorded when the control-variate layer is enabled.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SurrogateData {
    /// Linearized (SSTA canonical) delay per sample (ps).
    pub delay: Vec<f64>,
    /// Conditional-mean leakage surrogate per sample (A).
    pub leakage: Vec<f64>,
    /// Exact mean of the delay surrogate (the canonical mean).
    pub delay_mean: f64,
    /// Exact sigma of the delay surrogate (shared-factor part only).
    pub delay_sigma: f64,
    /// Exact mean of the leakage surrogate (the Wilkinson total mean).
    pub leakage_mean: f64,
}

/// A control-variate-adjusted estimate: the raw sample mean, the adjusted
/// value after subtracting the known-mean surrogate, and how much variance
/// the adjustment removed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlVariateEstimate {
    /// Plain sample-mean estimate.
    pub raw: f64,
    /// Adjusted estimate `raw − β·(ȳ − E[Y])`.
    pub adjusted: f64,
    /// Fitted regression coefficient `cov(X,Y)/var(Y)`.
    pub beta: f64,
    /// Standard error of the adjusted estimate.
    pub std_error: f64,
    /// `var(X) / var(X − βY)` — how many times fewer samples the adjusted
    /// estimator needs for the same precision (≥ 1 up to fit noise).
    pub variance_reduction: f64,
}

/// Fits `β = cov(X,Y)/var(Y)` and returns the adjusted estimator for
/// `E[X]` given the exactly known `E[Y] = ey`.
fn control_variate(x: &[f64], y: &[f64], ey: f64) -> ControlVariateEstimate {
    debug_assert_eq!(x.len(), y.len());
    let n = x.len().max(1) as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut var_x = 0.0;
    let mut var_y = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        cov += (a - mx) * (b - my);
        var_x += (a - mx) * (a - mx);
        var_y += (b - my) * (b - my);
    }
    cov /= n;
    var_x /= n;
    var_y /= n;
    let beta = if var_y > 0.0 { cov / var_y } else { 0.0 };
    let adjusted = mx - beta * (my - ey);
    let var_resid = (var_x - beta * cov).max(0.0);
    ControlVariateEstimate {
        raw: mx,
        adjusted,
        beta,
        std_error: (var_resid / n).sqrt(),
        variance_reduction: if var_resid > 0.0 {
            var_x / var_resid
        } else if var_x > 0.0 {
            f64::INFINITY
        } else {
            1.0
        },
    }
}

/// The result of a Monte-Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct McResult {
    pub(crate) samples: Vec<ChipSample>,
    pub(crate) surrogates: Option<SurrogateData>,
}

impl McResult {
    /// Number of chip samples.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Per-sample data.
    pub fn chips(&self) -> &[ChipSample] {
        &self.samples
    }

    /// Summary statistics of the circuit delay (ps).
    pub fn delay_summary(&self) -> Summary {
        Summary::from_samples(&self.delays())
    }

    /// Summary statistics of the total leakage current (A).
    pub fn leakage_summary(&self) -> Summary {
        Summary::from_samples(&self.leakages())
    }

    /// Empirical timing yield `P(delay ≤ t_clk)`.
    pub fn timing_yield(&self, t_clk: f64) -> f64 {
        let ok = self.samples.iter().filter(|s| s.delay <= t_clk).count();
        ok as f64 / self.samples.len().max(1) as f64
    }

    /// Wilson score confidence interval on the empirical timing yield at
    /// normal quantile `z` (e.g. [`DEFAULT_CI_Z`] for 95%).
    pub fn timing_yield_interval(&self, t_clk: f64, z: f64) -> BinomialInterval {
        let ok = self.samples.iter().filter(|s| s.delay <= t_clk).count();
        wilson_interval(ok, self.samples.len(), z)
    }

    /// Empirical leakage percentile.
    pub fn leakage_percentile(&self, p: f64) -> f64 {
        Summary::percentile(&self.leakages(), p)
    }

    /// Empirical **joint parametric yield**: the fraction of chips that
    /// meet both the timing constraint and the leakage-current budget,
    /// `P(delay ≤ t_clk ∧ leakage ≤ i_max)`. Because fast die leak more,
    /// this is substantially below the product of the marginal yields.
    pub fn joint_yield(&self, t_clk: f64, i_max: f64) -> f64 {
        let ok = self
            .samples
            .iter()
            .filter(|s| s.delay <= t_clk && s.leakage <= i_max)
            .count();
        ok as f64 / self.samples.len().max(1) as f64
    }

    /// Histogram of the total leakage (for the distribution figures).
    pub fn leakage_histogram(&self, bins: usize) -> Histogram {
        Histogram::from_samples(&self.leakages(), bins)
    }

    /// Pearson correlation between delay and leakage across chips.
    /// Strongly negative in this technology: fast (short-channel) die leak
    /// more — the effect the statistical optimizer must respect.
    /// An empty sample set has no correlation to report and returns 0.0.
    pub fn delay_leakage_correlation(&self) -> f64 {
        let n = self.samples.len().max(1) as f64;
        let md = self.samples.iter().map(|s| s.delay).sum::<f64>() / n;
        let ml = self.samples.iter().map(|s| s.leakage).sum::<f64>() / n;
        let mut cov = 0.0;
        let mut vd = 0.0;
        let mut vl = 0.0;
        for s in &self.samples {
            cov += (s.delay - md) * (s.leakage - ml);
            vd += (s.delay - md) * (s.delay - md);
            vl += (s.leakage - ml) * (s.leakage - ml);
        }
        if vd == 0.0 || vl == 0.0 {
            0.0
        } else {
            cov / (vd.sqrt() * vl.sqrt())
        }
    }

    /// Control-variate-adjusted mean delay, available when the run was
    /// configured with the `cv` layer: subtracts the linearized-delay
    /// surrogate (whose mean is the SSTA canonical mean, known exactly).
    pub fn delay_mean_cv(&self) -> Option<ControlVariateEstimate> {
        let sur = self.surrogates.as_ref()?;
        Some(control_variate(&self.delays(), &sur.delay, sur.delay_mean))
    }

    /// Control-variate-adjusted mean leakage current, available when the
    /// run was configured with the `cv` layer: subtracts the
    /// conditional-mean surrogate `E[I | shared]`, whose expectation is the
    /// Wilkinson total mean, known exactly.
    pub fn leakage_mean_cv(&self) -> Option<ControlVariateEstimate> {
        let sur = self.surrogates.as_ref()?;
        Some(control_variate(
            &self.leakages(),
            &sur.leakage,
            sur.leakage_mean,
        ))
    }

    /// Control-variate-adjusted timing yield at `t_clk`: regresses the
    /// non-linear pass/fail indicator on the *surrogate* indicator
    /// `1{D̃ ≤ t_clk}`, whose expectation `Φ((t_clk − μ)/σ_shared)` is known
    /// in closed form because the surrogate is exactly Gaussian.
    ///
    /// Returns `None` when the run recorded no surrogates or the surrogate
    /// is deterministic (σ_shared = 0).
    pub fn timing_yield_cv(&self, t_clk: f64) -> Option<ControlVariateEstimate> {
        let sur = self.surrogates.as_ref()?;
        if sur.delay_sigma <= 0.0 {
            return None;
        }
        let x: Vec<f64> = self
            .samples
            .iter()
            .map(|s| f64::from(u8::from(s.delay <= t_clk)))
            .collect();
        let y: Vec<f64> = sur
            .delay
            .iter()
            .map(|&d| f64::from(u8::from(d <= t_clk)))
            .collect();
        let ey = phi((t_clk - sur.delay_mean) / sur.delay_sigma);
        Some(control_variate(&x, &y, ey))
    }

    fn delays(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.delay).collect()
    }

    fn leakages(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.leakage).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_result_correlation_is_zero() {
        // Regression: the per-sample sums used to divide by n = 0 and
        // return NaN before the vd/vl guard could fire.
        let r = McResult {
            samples: Vec::new(),
            surrogates: None,
        };
        assert_eq!(r.delay_leakage_correlation(), 0.0);
        assert_eq!(r.timing_yield(1.0), 0.0);
        assert_eq!(
            r.timing_yield_interval(1.0, DEFAULT_CI_Z),
            wilson_interval(0, 0, DEFAULT_CI_Z)
        );
    }

    #[test]
    fn control_variate_with_perfect_surrogate_removes_all_variance() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let est = control_variate(&x, &x, 2.5);
        assert!((est.adjusted - 2.5).abs() < 1e-12);
        assert_eq!(est.std_error, 0.0);
        assert!(est.variance_reduction.is_infinite());
    }

    #[test]
    fn control_variate_with_useless_surrogate_is_a_no_op() {
        let x = vec![1.0, 2.0, 3.0, 4.0];
        let y = vec![5.0; 4]; // zero variance -> beta = 0
        let est = control_variate(&x, &y, 5.0);
        assert_eq!(est.raw, est.adjusted);
        assert_eq!(est.beta, 0.0);
        assert!((est.variance_reduction - 1.0).abs() < 1e-12);
    }
}
