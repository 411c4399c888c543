//! Canonical first-order random timing quantities.

use statleak_stats::{clark_max, phi_inv, Normal, SparseVec};

/// A canonical first-order Gaussian form
/// `X = mean + Σ_k shared[k]·Z_k + local·R` over independent standard
/// normals: the shared process factors `Z_k` and an aggregated
/// node-private term `R`.
///
/// The shared sensitivities are held sparsely: with a quadtree spatial
/// model each gate touches only O(log n) of the factors, and a `max`/`add`
/// over two forms touches only the union of their patterns. All operations
/// are bit-identical to the historical dense implementation (kept in
/// [`crate::dense_ref`] for the equivalence tests and perf baselines); see
/// the [`SparseVec`] module docs for the argument.
#[derive(Debug, Clone, PartialEq)]
pub struct Canonical {
    /// Mean value.
    pub mean: f64,
    /// Sensitivities to the shared factors (sparse over the factor space).
    pub shared: SparseVec,
    /// Aggregated independent (node-local) sigma, ≥ 0.
    pub local: f64,
    /// Total variance (cached: `Σ shared² + local²`).
    pub variance: f64,
}

impl Canonical {
    /// Creates a canonical form from its parts (dense sensitivities;
    /// exact zeros are not stored).
    ///
    /// # Panics
    ///
    /// Panics if `local` is negative.
    pub fn new(mean: f64, shared: Vec<f64>, local: f64) -> Self {
        assert!(local >= 0.0, "local sigma must be non-negative");
        let variance = shared.iter().map(|a| a * a).sum::<f64>() + local * local;
        Self {
            mean,
            shared: SparseVec::from_dense(&shared),
            local,
            variance,
        }
    }

    /// A deterministic constant in a factor space of the given width.
    pub fn constant(value: f64, num_shared: usize) -> Self {
        Self {
            mean: value,
            shared: SparseVec::zeros(num_shared),
            local: 0.0,
            variance: 0.0,
        }
    }

    /// Width of the shared-factor space this form lives in.
    #[inline]
    pub fn num_shared(&self) -> usize {
        self.shared.dim()
    }

    /// The shared sensitivities as a dense vector (allocates; for tests,
    /// reporting, and Monte-Carlo style dense dot products).
    pub fn shared_dense(&self) -> Vec<f64> {
        self.shared.to_dense()
    }

    /// Standard deviation.
    #[inline]
    pub fn std(&self) -> f64 {
        self.variance.sqrt()
    }

    /// The `p`-quantile of the Gaussian: `mean + Φ⁻¹(p)·σ`.
    pub fn quantile(&self, p: f64) -> f64 {
        self.mean + phi_inv(p) * self.std()
    }

    /// Covariance with another canonical form in the same factor space
    /// (local terms are independent across forms, so only shared factors
    /// contribute).
    ///
    /// # Panics
    ///
    /// Panics (debug) if the factor spaces differ in width.
    pub fn covariance(&self, other: &Canonical) -> f64 {
        self.shared.dot(&other.shared)
    }

    /// Exact sum of two canonical forms (`local` terms add in quadrature —
    /// they are independent by construction).
    pub fn add(&self, other: &Canonical) -> Canonical {
        let mut out = self.clone();
        out.add_assign(other);
        out
    }

    /// In-place sum: `self = self + other`, touching only the union of the
    /// two sparsity patterns. Bit-identical to [`Canonical::add`] — every
    /// intermediate is computed with the same expressions in the same order
    /// — so callers may mix the two freely without perturbing results.
    pub fn add_assign(&mut self, other: &Canonical) {
        self.shared.merge_assign(&other.shared, |a, b| a + b);
        let local = (self.local * self.local + other.local * other.local).sqrt();
        self.mean += other.mean;
        self.local = local;
        self.variance = self.shared.norm2() + local * local;
    }

    /// Statistical maximum via Clark's approximation, re-canonicalized by
    /// tightness-probability blending of the shared sensitivities; the
    /// local term absorbs whatever variance the blend does not explain.
    pub fn stat_max(&self, other: &Canonical) -> Canonical {
        let mut out = self.clone();
        out.stat_max_into(other);
        out
    }

    /// In-place statistical maximum: `self = max(self, other)` without
    /// allocating, touching only the union of the two sparsity patterns.
    /// Bit-identical to [`Canonical::stat_max`] and to the dense reference:
    /// the blend evaluates the dense expression `t·a + (1−t)·b` with a
    /// literal `0.0` for the side a pattern is missing, and `Σ sᵢ²` is the
    /// same ascending-index left fold either way.
    pub fn stat_max_into(&mut self, other: &Canonical) {
        let cov = self.shared.dot(&other.shared);
        let r = clark_max(self.mean, self.variance, other.mean, other.variance, cov);
        let t = r.tightness;
        self.shared
            .merge_assign(&other.shared, |a, b| t * a + (1.0 - t) * b);
        let shared_var = self.shared.norm2();
        let local = (r.variance - shared_var).max(0.0).sqrt();
        self.mean = r.mean;
        self.local = local;
        self.variance = (shared_var + local * local).max(r.variance);
    }

    /// Resets the form to a deterministic constant, keeping the shared
    /// vector's allocation (all sensitivities dropped, width preserved).
    pub fn set_constant(&mut self, value: f64) {
        self.mean = value;
        self.shared.clear();
        self.local = 0.0;
        self.variance = 0.0;
    }

    /// Copies `other` into `self`, reusing `self`'s shared allocation.
    pub fn clone_from_canonical(&mut self, other: &Canonical) {
        self.mean = other.mean;
        self.shared.assign(&other.shared);
        self.local = other.local;
        self.variance = other.variance;
    }

    /// Collapses the canonical form to a plain Gaussian.
    pub fn to_normal(&self) -> Normal {
        Normal::new(self.mean, self.std())
    }
}

impl std::fmt::Display for Canonical {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Canon(mean={:.4}, sigma={:.4})", self.mean, self.std())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canon(mean: f64, shared: &[f64], local: f64) -> Canonical {
        Canonical::new(mean, shared.to_vec(), local)
    }

    #[test]
    fn add_is_exact() {
        let a = canon(1.0, &[0.1, 0.2], 0.3);
        let b = canon(2.0, &[0.3, -0.1], 0.4);
        let c = a.add(&b);
        assert!((c.mean - 3.0).abs() < 1e-12);
        assert!((c.shared.get(0) - 0.4).abs() < 1e-12);
        assert!((c.shared.get(1) - 0.1).abs() < 1e-12);
        assert!((c.local - 0.5).abs() < 1e-12);
        // Var(A+B) = VarA + VarB + 2Cov.
        let expect = a.variance + b.variance + 2.0 * a.covariance(&b);
        assert!((c.variance - expect).abs() < 1e-12);
    }

    #[test]
    fn covariance_only_shared() {
        let a = canon(0.0, &[0.5, 0.0], 9.0);
        let b = canon(0.0, &[0.5, 1.0], 9.0);
        assert!((a.covariance(&b) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn max_of_dominant_is_dominant() {
        let a = canon(100.0, &[1.0], 0.5);
        let b = canon(0.0, &[0.2], 0.5);
        let m = a.stat_max(&b);
        assert!((m.mean - 100.0).abs() < 1e-6);
        assert!((m.shared.get(0) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn max_variance_never_negative() {
        let a = canon(1.0, &[0.4], 0.0);
        let b = canon(1.0, &[0.4], 0.0);
        let m = a.stat_max(&b);
        assert!(m.variance >= 0.0);
        assert!(m.local >= 0.0);
    }

    #[test]
    fn max_mean_at_least_inputs() {
        let a = canon(3.0, &[0.5, 0.1], 0.2);
        let b = canon(3.1, &[0.1, 0.5], 0.2);
        let m = a.stat_max(&b);
        assert!(m.mean >= 3.1 - 1e-12);
    }

    #[test]
    fn constant_has_zero_variance() {
        let c = Canonical::constant(5.0, 4);
        assert_eq!(c.variance, 0.0);
        assert_eq!(c.num_shared(), 4);
        assert_eq!(c.shared.nnz(), 0);
    }

    #[test]
    fn to_normal_matches_moments() {
        let a = canon(2.0, &[0.3, 0.4], 0.0);
        let n = a.to_normal();
        assert!((n.mean() - 2.0).abs() < 1e-12);
        assert!((n.std() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_matches_normal() {
        let a = canon(2.0, &[0.3, 0.4], 0.0);
        assert_eq!(a.quantile(0.5), 2.0 + statleak_stats::phi_inv(0.5) * 0.5);
        assert!(a.quantile(0.99) > a.quantile(0.9));
    }

    #[test]
    fn max_against_monte_carlo_correlated() {
        use rand::{Rng, SeedableRng};
        let a = canon(10.0, &[0.8, 0.2], 0.3);
        let b = canon(10.5, &[0.3, 0.6], 0.4);
        let m = a.stat_max(&b);
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        let draw = |rng: &mut rand::rngs::StdRng| {
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        };
        let (sa, sb) = (a.shared_dense(), b.shared_dense());
        for _ in 0..n {
            let z = [draw(&mut rng), draw(&mut rng)];
            let ra = draw(&mut rng);
            let rb = draw(&mut rng);
            let xa = a.mean + sa[0] * z[0] + sa[1] * z[1] + a.local * ra;
            let xb = b.mean + sb[0] * z[0] + sb[1] * z[1] + b.local * rb;
            let x = xa.max(xb);
            sum += x;
            sum2 += x * x;
        }
        let mc_mean = sum / n as f64;
        let mc_var = sum2 / n as f64 - mc_mean * mc_mean;
        assert!((m.mean - mc_mean).abs() < 0.01, "{} vs {}", m.mean, mc_mean);
        assert!(
            (m.variance - mc_var).abs() / mc_var < 0.05,
            "{} vs {}",
            m.variance,
            mc_var
        );
    }

    #[test]
    #[should_panic(expected = "local sigma must be non-negative")]
    fn negative_local_rejected() {
        let _ = Canonical::new(0.0, vec![], -1.0);
    }

    #[test]
    fn add_assign_bit_identical_to_add() {
        let a = canon(1.25, &[0.1, -0.2, 0.37], 0.3);
        let b = canon(2.75, &[0.3, 0.11, -0.05], 0.4);
        let expected = a.add(&b);
        let mut got = a.clone();
        got.add_assign(&b);
        assert_eq!(got, expected); // exact f64 equality, not approximate
    }

    #[test]
    fn stat_max_into_bit_identical_to_stat_max() {
        // Exercise both dominance regimes and a near-tie.
        let cases = [
            (canon(10.0, &[0.8, 0.2], 0.3), canon(10.5, &[0.3, 0.6], 0.4)),
            (canon(100.0, &[1.0, 0.0], 0.5), canon(0.0, &[0.2, 0.1], 0.5)),
            (canon(3.0, &[0.5, 0.1], 0.2), canon(3.0, &[0.5, 0.1], 0.2)),
        ];
        for (a, b) in cases {
            let expected = a.stat_max(&b);
            let mut got = a.clone();
            got.stat_max_into(&b);
            assert_eq!(got, expected, "max({a}, {b})");
        }
    }

    #[test]
    fn disjoint_patterns_merge_like_dense() {
        let a = canon(1.0, &[0.5, 0.0, 0.0, 0.0], 0.1);
        let b = canon(1.2, &[0.0, 0.0, 0.4, 0.3], 0.2);
        let sum = a.add(&b);
        assert_eq!(sum.shared_dense(), vec![0.5, 0.0, 0.4, 0.3]);
        let m = a.stat_max(&b);
        assert_eq!(m.num_shared(), 4);
        assert!(m.variance > 0.0);
    }

    #[test]
    fn set_constant_keeps_width_clears_moments() {
        let mut c = canon(9.0, &[0.4, 0.2], 0.7);
        c.set_constant(1.5);
        assert_eq!(c, Canonical::constant(1.5, 2));
        assert_eq!(c.num_shared(), 2);
    }

    #[test]
    fn clone_from_canonical_copies_exactly() {
        let src = canon(4.0, &[0.6, -0.3], 0.2);
        let mut dst = Canonical::constant(0.0, 2);
        dst.clone_from_canonical(&src);
        assert_eq!(dst, src);
    }
}
