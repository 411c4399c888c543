//! Mean-shift importance sampling for tail-yield estimation, with the
//! SSTA canonical supplying the failure direction analytically.
//!
//! Estimating a miss probability `p = P(D > t_clk)` at a 99.9% yield
//! target by counting needs `≫ 1/p` samples just to see one failure. The
//! ISLE recipe (Bayrakci, Demir, Tasiran) instead samples the shared
//! factors from a Gaussian whose mean is *shifted into the failure
//! region*, and unbiases each sample with its likelihood ratio:
//!
//! ```text
//! z ~ N(s, I)   ⇒   p = E[1{D(z) > t} · w(z)],
//! w(z) = φ(z)/φ(z − s) = exp(−sᵀz + ½‖s‖²).
//! ```
//!
//! The shift `s` is the most-likely-failure point of the *linear* SSTA
//! surrogate `D̃ = μ + aᵀz` restricted to the shared factors:
//! `s = a·(t_clk − μ)/σ²` — one SSTA analysis, no search. Because the
//! weights are exact, the estimator is unbiased for the **non-linear**
//! model no matter how approximate the surrogate is; the surrogate only
//! controls how much variance the shift removes.

use rayon::prelude::*;
use statleak_obs as obs;
use statleak_stats::BinomialInterval;
use statleak_tech::{Design, FactorModel};

use crate::config::SamplerKind;
use crate::result::DEFAULT_CI_Z;
use crate::sample::{evaluate_chip, qmc_sequence, sub_seed};
use crate::surrogate::DelaySurrogate;
use crate::MonteCarlo;

/// The likelihood ratio `φ(x)/φ(x − shift)` of a sample `x` drawn from the
/// shifted Gaussian `N(shift, I)`: `exp(−shiftᵀx + ½‖shift‖²)`.
///
/// Exposed for the unbiasedness tests: averaging `w·1{x ∈ A}` over shifted
/// samples must reproduce `P(Z ∈ A)` for any event `A` and any shift.
pub fn importance_weight(shift: &[f64], sample: &[f64]) -> f64 {
    let mut dot = 0.0;
    let mut norm2 = 0.0;
    for (&s, &x) in shift.iter().zip(sample) {
        dot += s * x;
        norm2 += s * s;
    }
    (-dot + 0.5 * norm2).exp()
}

/// A tail-yield estimate with its uncertainty and cost, produced by
/// [`MonteCarlo::timing_yield_estimate`] under any sampler configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldEstimate {
    /// Estimated timing yield `P(D ≤ t_clk)`, clamped to `[0, 1]`.
    pub yield_value: f64,
    /// Estimated miss probability (the directly estimated quantity under
    /// importance sampling; `1 − yield` otherwise).
    pub miss_probability: f64,
    /// Standard error of the miss-probability estimate.
    pub std_error: f64,
    /// 95% confidence interval on the yield: Wilson score for counting
    /// estimators, normal-theory `±1.96·SE` for weighted ones.
    pub ci: BinomialInterval,
    /// Effective sample size `(Σw)²/Σw²` — equals the sample count for
    /// unweighted estimators; a small value flags likelihood-ratio
    /// degeneration.
    pub ess: f64,
    /// Non-linear full-chip evaluations spent (the cost unit of the
    /// plain-vs-IS comparison in the root package's `tests/perf_gates.rs`).
    pub evaluations: usize,
    /// `‖s‖` of the applied mean shift (0 when importance sampling is off).
    pub shift_magnitude: f64,
}

impl MonteCarlo {
    /// Estimates the timing yield at `t_clk` honoring the configured
    /// sampler and variance-reduction layers:
    ///
    /// * importance sampling on → mean-shifted estimator above (composes
    ///   with the Sobol sampler; the control-variate layer is ignored here);
    /// * otherwise → a population run; with the `cv` layer the
    ///   indicator-regression estimator [`crate::McResult::timing_yield_cv`]
    ///   supplies the point estimate and its narrowed interval.
    ///
    /// Deterministic for a fixed config: bit-identical across thread
    /// counts, like every other entry point.
    pub fn timing_yield_estimate(
        &self,
        design: &Design,
        fm: &FactorModel,
        t_clk: f64,
    ) -> YieldEstimate {
        if self.config.variance_reduction.importance_sampling {
            return self.importance_yield(design, fm, t_clk);
        }
        self.yield_estimate_from(&self.run(design, fm), t_clk)
    }

    /// Builds the yield estimate from an already-computed population run
    /// (so callers that need the population for other metrics don't pay
    /// for a second batch). Uses the control-variate estimator when the
    /// run recorded surrogates; the importance-sampling layer does not
    /// apply to population runs.
    pub fn yield_estimate_from(&self, result: &crate::McResult, t_clk: f64) -> YieldEstimate {
        let n = result.samples();
        if let Some(cve) = result.timing_yield_cv(t_clk) {
            let adjusted = cve.adjusted.clamp(0.0, 1.0);
            let z = DEFAULT_CI_Z;
            return YieldEstimate {
                yield_value: adjusted,
                miss_probability: 1.0 - adjusted,
                std_error: cve.std_error,
                ci: BinomialInterval {
                    lo: (adjusted - z * cve.std_error).max(0.0),
                    hi: (adjusted + z * cve.std_error).min(1.0),
                },
                ess: n as f64,
                evaluations: n,
                shift_magnitude: 0.0,
            };
        }
        let y = result.timing_yield(t_clk);
        YieldEstimate {
            yield_value: y,
            miss_probability: 1.0 - y,
            std_error: (y * (1.0 - y) / n.max(1) as f64).sqrt(),
            ci: result.timing_yield_interval(t_clk, DEFAULT_CI_Z),
            ess: n as f64,
            evaluations: n,
            shift_magnitude: 0.0,
        }
    }

    /// The mean-shifted estimator itself.
    fn importance_yield(&self, design: &Design, fm: &FactorModel, t_clk: f64) -> YieldEstimate {
        let _span = obs::span!("mc.importance_batch");
        let n = self.config.samples;
        obs::counter!("mc_runs_total").inc();
        obs::counter!("mc_samples_total").add(n as u64);
        obs::counter!("mc_nonlinear_evals_total").add(n as u64);

        let surrogate = DelaySurrogate::build(design, fm);
        let shift = surrogate.failure_shift(t_clk);
        let shift_magnitude = shift.iter().map(|s| s * s).sum::<f64>().sqrt();
        obs::histogram!("mc_is_shift_milli").record((shift_magnitude * 1e3) as u64);

        let seq = match self.config.sampler {
            SamplerKind::Plain => None,
            SamplerKind::Sobol => Some(qmc_sequence(design, fm, self.config.seed)),
        };
        if seq.is_some() {
            assert!(
                n as u128 <= u32::MAX as u128 + 1,
                "the Sobol index space holds 2^32 points"
            );
        }
        let seed = self.config.seed;
        let eval = |i: usize| -> (f64, f64) {
            let qmc: Vec<f64> = match &seq {
                Some(s) => {
                    let mut buf = vec![0.0; s.dims()];
                    s.normal_point(i as u32, &mut buf);
                    buf
                }
                None => Vec::new(),
            };
            let (delay, _, shared) =
                evaluate_chip(design, fm, sub_seed(seed, i), &qmc, Some(&shift));
            let w = importance_weight(&shift, &shared);
            (if delay > t_clk { w } else { 0.0 }, w)
        };
        let pairs: Vec<(f64, f64)> = self.in_pool(|| (0..n).into_par_iter().map(eval).collect());

        // Sequential, index-ordered reduction: bit-identical regardless of
        // how the map above was scheduled.
        let nf = n as f64;
        let (mut sum, mut sum_sq, mut w_sum, mut w_sum_sq) = (0.0, 0.0, 0.0, 0.0);
        let (mut w_min, mut w_max) = (f64::INFINITY, 0.0_f64);
        for &(contrib, w) in &pairs {
            sum += contrib;
            sum_sq += contrib * contrib;
            w_sum += w;
            w_sum_sq += w * w;
            w_min = w_min.min(w);
            w_max = w_max.max(w);
        }
        let miss = sum / nf;
        let var = (sum_sq / nf - miss * miss).max(0.0);
        let std_error = (var / nf).sqrt();
        let ess = if w_sum_sq > 0.0 {
            w_sum * w_sum / w_sum_sq
        } else {
            0.0
        };
        obs::histogram!("mc_is_ess").record(ess as u64);
        if w_min > 0.0 && w_max.is_finite() {
            obs::histogram!("mc_is_weight_spread_centilog")
                .record(((w_max / w_min).log10() * 100.0) as u64);
        }

        let yield_value = (1.0 - miss).clamp(0.0, 1.0);
        let z = DEFAULT_CI_Z;
        YieldEstimate {
            yield_value,
            miss_probability: miss,
            std_error,
            ci: BinomialInterval {
                lo: (yield_value - z * std_error).max(0.0),
                hi: (yield_value + z * std_error).min(1.0),
            },
            ess,
            evaluations: n,
            shift_magnitude,
        }
    }

    /// Estimates the far-tail timing miss probability `P(D > t_clk)` with a
    /// hand-picked mean shift of the die-to-die channel-length factor
    /// (`shared[0] += shift`), weighting each sample by its likelihood
    /// ratio. Predates [`Self::timing_yield_estimate`], which derives the
    /// whole shift vector from the SSTA canonical instead; kept as the
    /// single-knob reference estimator.
    ///
    /// Returns `(estimate, standard_error)`.
    ///
    /// # Panics
    ///
    /// Panics if `shift` is negative (shift toward the slow tail only).
    pub fn tail_miss_probability(
        &self,
        design: &Design,
        fm: &FactorModel,
        t_clk: f64,
        shift: f64,
    ) -> (f64, f64) {
        assert!(shift >= 0.0, "shift must point into the slow tail");
        let n = self.config.samples;
        let mut shift_vec = vec![0.0; fm.num_shared()];
        shift_vec[0] = shift;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for i in 0..n {
            let seed = sub_seed(self.config.seed, i);
            let (delay, _, shared) = evaluate_chip(design, fm, seed, &[], Some(&shift_vec));
            let x = if delay > t_clk {
                importance_weight(&shift_vec, &shared)
            } else {
                0.0
            };
            sum += x;
            sum_sq += x * x;
        }
        let mean = sum / n as f64;
        let var = (sum_sq / n as f64 - mean * mean).max(0.0);
        (mean, (var / n as f64).sqrt())
    }
}
