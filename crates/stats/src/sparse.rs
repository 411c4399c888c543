//! Sparse vectors over a fixed-width factor space.
//!
//! [`SparseVec`] stores only the (index, value) pairs of a conceptual dense
//! `Vec<f64>`, with indices strictly ascending. It exists for one purpose:
//! canonical-form SSTA over spatial-correlation models where each gate sees
//! only O(log n) of the shared factors, so walking the full dense vector per
//! `max`/`add`/covariance is almost entirely wasted work.
//!
//! # Bit-identity contract
//!
//! Every operation here is **bit-identical** to the corresponding dense
//! left-to-right fold, provided all values are finite. The argument:
//!
//! * Missing entries are combined with a **literal `0.0` operand** using the
//!   *same expression* the dense code evaluates (e.g. `t*a + (1.0-t)*0.0`),
//!   never short-circuited to `a` — so any entry that stays materialized
//!   has exactly the dense value (up to the sign of zero).
//! * Skipped terms in dot products and norms are `±0.0` (zero times a finite
//!   value, or a square of zero). An IEEE-754 round-to-nearest accumulator
//!   that starts at `+0.0` is unchanged bitwise by adding `±0.0`: while it is
//!   `+0.0`, `+0.0 + ±0.0 = +0.0`; once nonzero, adding a signed zero is the
//!   identity. (It can never *become* `-0.0`.) Hence folding only the stored
//!   entries, in ascending index order, reproduces the dense fold bit for
//!   bit.
//! * The only representational slack is the sign of stored zeros (a dense
//!   path may hold `-0.0` where the sparse path stores nothing). `-0.0 ==
//!   0.0` under `f64` comparison and both behave identically in every
//!   product and sum above, so the difference is unobservable — which is why
//!   [`SparseVec`]'s `PartialEq` compares *semantically* (missing ≡ zero)
//!   rather than by pattern.
//!
//! Stored zeros that arise from arithmetic (e.g. `1.0 + (-1.0)` during a
//! merge) are kept, not compacted: compaction would cost a pass and buys
//! nothing, while keeping patterns stable makes the equal-pattern fast path
//! (the common case once forms converge structurally) hit far more often.

/// A sparse `f64` vector of fixed dimension with strictly ascending indices.
///
/// See the module docs for the bit-identity contract with dense folds.
#[derive(Debug, Clone, Default)]
pub struct SparseVec {
    /// Width of the conceptual dense vector.
    dim: u32,
    /// Stored indices, strictly ascending, each `< dim`.
    idx: Vec<u32>,
    /// Stored values, parallel to `idx`.
    val: Vec<f64>,
}

impl SparseVec {
    /// An all-zero vector of the given dimension (nothing stored).
    pub fn zeros(dim: usize) -> Self {
        Self {
            dim: dim as u32,
            idx: Vec::new(),
            val: Vec::new(),
        }
    }

    /// Builds from a dense slice, dropping exact (±) zeros.
    pub fn from_dense(dense: &[f64]) -> Self {
        let mut idx = Vec::new();
        let mut val = Vec::new();
        for (k, &v) in dense.iter().enumerate() {
            if v != 0.0 {
                idx.push(k as u32);
                val.push(v);
            }
        }
        Self {
            dim: dense.len() as u32,
            idx,
            val,
        }
    }

    /// Materializes the dense equivalent.
    pub fn to_dense(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.dim as usize];
        for (&k, &v) in self.idx.iter().zip(&self.val) {
            out[k as usize] = v;
        }
        out
    }

    /// Dimension of the conceptual dense vector.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim as usize
    }

    /// Number of stored entries (may include explicit zeros from merges).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.idx.len()
    }

    /// The value at index `k` (zero if not stored).
    pub fn get(&self, k: usize) -> f64 {
        match self.idx.binary_search(&(k as u32)) {
            Ok(p) => self.val[p],
            Err(_) => 0.0,
        }
    }

    /// Iterates stored `(index, value)` pairs in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.idx
            .iter()
            .zip(&self.val)
            .map(|(&k, &v)| (k as usize, v))
    }

    /// The stored indices, strictly ascending.
    #[inline]
    pub fn indices(&self) -> &[u32] {
        &self.idx
    }

    /// The stored values, parallel to [`SparseVec::indices`].
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.val
    }

    /// Replaces the stored entries with `(idx, val)`, keeping the
    /// dimension and reusing allocations. Indices must be strictly
    /// ascending and below the dimension.
    pub fn assign_parts(&mut self, idx: &[u32], val: &[f64]) {
        debug_assert_eq!(idx.len(), val.len());
        debug_assert!(idx.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(idx.last().is_none_or(|&k| k < self.dim));
        self.idx.clear();
        self.idx.extend_from_slice(idx);
        self.val.clear();
        self.val.extend_from_slice(val);
    }

    /// Drops all stored entries (the vector becomes all-zero); the
    /// dimension and the allocations are kept.
    pub fn clear(&mut self) {
        self.idx.clear();
        self.val.clear();
    }

    /// Copies `other` into `self`, reusing `self`'s allocations.
    pub fn assign(&mut self, other: &SparseVec) {
        self.dim = other.dim;
        self.idx.clear();
        self.idx.extend_from_slice(&other.idx);
        self.val.clear();
        self.val.extend_from_slice(&other.val);
    }

    /// Sets `self` to `scale ·` the sparse row `(idx, val)` of an external
    /// CSR matrix with row width `dim`, reusing allocations. Indices must be
    /// strictly ascending.
    pub fn assign_scaled(&mut self, dim: usize, idx: &[u32], val: &[f64], scale: f64) {
        debug_assert_eq!(idx.len(), val.len());
        debug_assert!(idx.windows(2).all(|w| w[0] < w[1]));
        self.dim = dim as u32;
        self.idx.clear();
        self.idx.extend_from_slice(idx);
        self.val.clear();
        self.val.extend(val.iter().map(|a| scale * a));
    }

    /// Dot product with another sparse vector of the same dimension.
    ///
    /// Bit-identical to the dense ascending fold `Σ_k a[k]·b[k]` for finite
    /// values (skipped terms are `±0.0`; see module docs).
    pub fn dot(&self, other: &SparseVec) -> f64 {
        debug_assert_eq!(self.dim, other.dim);
        let mut acc = 0.0;
        if self.idx == other.idx {
            for (a, b) in self.val.iter().zip(&other.val) {
                acc += a * b;
            }
            return acc;
        }
        let (mut i, mut j) = (0, 0);
        while i < self.idx.len() && j < other.idx.len() {
            match self.idx[i].cmp(&other.idx[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.val[i] * other.val[j];
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Dot product with a dense slice of matching dimension; bit-identical
    /// to the dense ascending fold for finite values.
    pub fn dot_dense(&self, dense: &[f64]) -> f64 {
        debug_assert_eq!(self.dim as usize, dense.len());
        let mut acc = 0.0;
        for (&k, &v) in self.idx.iter().zip(&self.val) {
            acc += v * dense[k as usize];
        }
        acc
    }

    /// Sum of squares of the entries, folded in ascending index order;
    /// bit-identical to the dense `Σ_k v[k]²` fold.
    pub fn norm2(&self) -> f64 {
        let mut acc = 0.0;
        for &v in &self.val {
            acc += v * v;
        }
        acc
    }

    /// Element-wise in-place combine over the **union** pattern:
    /// `self[k] = f(self[k], other[k])` for every `k` stored in either
    /// vector, with a literal `0.0` passed for the missing side.
    ///
    /// `f` must satisfy `f(0.0, 0.0) ∈ {±0.0}` for the result to stay
    /// consistent with the dense computation at unstored positions (both
    /// combines used in SSTA — `a + b` and `t·a + (1−t)·b` with `t ∈ [0,1]`
    /// — do). When the two patterns are identical the merge degenerates to
    /// a dense-speed zip; otherwise a two-pass backward in-place union merge
    /// runs without scratch allocation.
    pub fn merge_assign<F: Fn(f64, f64) -> f64>(&mut self, other: &SparseVec, f: F) {
        debug_assert_eq!(self.dim, other.dim);
        if self.idx == other.idx {
            for (a, &b) in self.val.iter_mut().zip(&other.val) {
                *a = f(*a, b);
            }
            return;
        }
        if self.idx.len() == self.dim as usize {
            // `self` is structurally dense (the usual state of an arrival
            // vector a few levels into propagation), so the union is just
            // `self`'s pattern: apply `f` slot by slot against a densified
            // view of `other` — exactly the dense zip, no merge needed.
            let mut j = 0;
            for (k, a) in self.val.iter_mut().enumerate() {
                let b = if j < other.idx.len() && other.idx[j] as usize == k {
                    j += 1;
                    other.val[j - 1]
                } else {
                    0.0
                };
                *a = f(*a, b);
            }
            return;
        }
        let (la, lb) = (self.idx.len(), other.idx.len());
        // Pass 1: size of the union pattern.
        let (mut i, mut j, mut u) = (0, 0, 0);
        while i < la && j < lb {
            match self.idx[i].cmp(&other.idx[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    i += 1;
                    j += 1;
                }
            }
            u += 1;
        }
        u += (la - i) + (lb - j);
        self.idx.resize(u, 0);
        self.val.resize(u, 0.0);
        // Pass 2: merge back-to-front. The write cursor `w` never drops
        // below the read cursor `i` (remaining union slots ≥ remaining
        // `self` entries), so unread `self` entries are never clobbered.
        let (mut i, mut j, mut w) = (la, lb, u);
        while i > 0 && j > 0 {
            w -= 1;
            let a = self.idx[i - 1];
            let b = other.idx[j - 1];
            if a == b {
                i -= 1;
                j -= 1;
                self.idx[w] = a;
                self.val[w] = f(self.val[i], other.val[j]);
            } else if a > b {
                i -= 1;
                self.idx[w] = a;
                self.val[w] = f(self.val[i], 0.0);
            } else {
                j -= 1;
                self.idx[w] = b;
                self.val[w] = f(0.0, other.val[j]);
            }
        }
        while j > 0 {
            w -= 1;
            j -= 1;
            self.idx[w] = other.idx[j];
            self.val[w] = f(0.0, other.val[j]);
        }
        while i > 0 {
            w -= 1;
            i -= 1;
            self.idx[w] = self.idx[i];
            self.val[w] = f(self.val[i], 0.0);
        }
        debug_assert_eq!(w, 0);
    }
}

/// Semantic equality: two vectors are equal iff they represent the same
/// dense vector (missing ≡ zero, `-0.0 == 0.0`), regardless of which zeros
/// happen to be stored.
impl PartialEq for SparseVec {
    fn eq(&self, other: &Self) -> bool {
        if self.dim != other.dim {
            return false;
        }
        if self.idx == other.idx {
            return self.val == other.val;
        }
        let (la, lb) = (self.idx.len(), other.idx.len());
        let (mut i, mut j) = (0, 0);
        while i < la || j < lb {
            let a = if i < la { Some(self.idx[i]) } else { None };
            let b = if j < lb { Some(other.idx[j]) } else { None };
            let ok = match (a, b) {
                (Some(ka), Some(kb)) if ka == kb => {
                    i += 1;
                    j += 1;
                    self.val[i - 1] == other.val[j - 1]
                }
                (Some(ka), kb) if kb.is_none() || ka < kb.unwrap() => {
                    i += 1;
                    self.val[i - 1] == 0.0
                }
                _ => {
                    j += 1;
                    other.val[j - 1] == 0.0
                }
            };
            if !ok {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_of(pairs: &[(usize, f64)], dim: usize) -> Vec<f64> {
        let mut d = vec![0.0; dim];
        for &(k, v) in pairs {
            d[k] = v;
        }
        d
    }

    #[test]
    fn from_dense_round_trips_and_drops_zeros() {
        let d = [0.0, 1.5, -0.0, 2.0, 0.0];
        let s = SparseVec::from_dense(&d);
        assert_eq!(s.nnz(), 2);
        assert_eq!(s.to_dense(), vec![0.0, 1.5, 0.0, 2.0, 0.0]);
        assert_eq!(s.get(1), 1.5);
        assert_eq!(s.get(2), 0.0);
    }

    #[test]
    fn dot_matches_dense_fold_bitwise() {
        let a = dense_of(&[(0, 0.3), (4, -1.25), (7, 2.0)], 9);
        let b = dense_of(&[(1, 5.0), (4, 0.5), (8, 3.0)], 9);
        let (sa, sb) = (SparseVec::from_dense(&a), SparseVec::from_dense(&b));
        let dense: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert_eq!(sa.dot(&sb), dense);
        assert_eq!(sa.dot_dense(&b), dense);
    }

    #[test]
    fn norm2_matches_dense_fold_bitwise() {
        let a = dense_of(&[(2, 0.1), (3, 0.7), (11, -0.01)], 13);
        let s = SparseVec::from_dense(&a);
        let dense: f64 = a.iter().map(|x| x * x).sum();
        assert_eq!(s.norm2(), dense);
    }

    #[test]
    fn merge_assign_union_add_matches_dense() {
        let a = dense_of(&[(0, 1.0), (3, 2.0), (5, -1.0)], 8);
        let b = dense_of(&[(1, 4.0), (3, -2.0), (7, 0.5)], 8);
        let mut s = SparseVec::from_dense(&a);
        s.merge_assign(&SparseVec::from_dense(&b), |x, y| x + y);
        let dense: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert_eq!(s.to_dense(), dense);
        // The cancelled entry at 3 stays stored as an explicit zero.
        assert_eq!(s.nnz(), 5);
    }

    #[test]
    fn merge_assign_equal_pattern_fast_path() {
        let a = dense_of(&[(2, 1.0), (6, 3.0)], 7);
        let b = dense_of(&[(2, 0.5), (6, -3.0)], 7);
        let mut s = SparseVec::from_dense(&a);
        s.merge_assign(&SparseVec::from_dense(&b), |x, y| 0.25 * x + 0.75 * y);
        let dense: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 0.25 * x + 0.75 * y).collect();
        assert_eq!(s.to_dense(), dense);
    }

    #[test]
    fn merge_assign_dense_self_fast_path() {
        // A structurally full `self` (all slots stored, idx = 0..dim) takes
        // the dense-self path; results must match the dense zip bitwise for
        // both an additive and a blending combine.
        let a: Vec<f64> = (0..6).map(|k| 0.3 * k as f64 - 0.7).collect();
        let b = dense_of(&[(1, 4.0), (3, -2.0), (5, 0.5)], 6);
        let mut s = SparseVec::from_dense(&a);
        assert_eq!(s.nnz(), 6);
        s.merge_assign(&SparseVec::from_dense(&b), |x, y| x + y);
        let dense: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
        assert_eq!(s.to_dense(), dense);

        let mut s = SparseVec::from_dense(&a);
        s.merge_assign(&SparseVec::from_dense(&b), |x, y| 0.4 * x + 0.6 * y);
        let dense: Vec<f64> = a.iter().zip(&b).map(|(x, y)| 0.4 * x + 0.6 * y).collect();
        assert_eq!(s.to_dense(), dense);

        // Empty `other` still hits every stored slot with b = 0.0.
        let mut s = SparseVec::from_dense(&a);
        s.merge_assign(&SparseVec::zeros(6), |x, y| x + y);
        assert_eq!(s.to_dense(), a);
    }

    #[test]
    fn merge_assign_disjoint_and_prefix_suffix_shapes() {
        // Covers the drain loops on both sides of the backward merge.
        for (pa, pb) in [
            (vec![(0, 1.0), (1, 2.0)], vec![(5, 3.0), (6, 4.0)]),
            (vec![(5, 1.0)], vec![(0, 2.0), (1, 3.0)]),
            (vec![], vec![(2, 9.0)]),
            (vec![(2, 9.0)], vec![]),
        ] {
            let a = dense_of(&pa, 8);
            let b = dense_of(&pb, 8);
            let mut s = SparseVec::from_dense(&a);
            s.merge_assign(&SparseVec::from_dense(&b), |x, y| x + y);
            let dense: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + y).collect();
            assert_eq!(s.to_dense(), dense);
        }
    }

    #[test]
    fn semantic_equality_ignores_stored_zeros() {
        let mut a = SparseVec::from_dense(&[1.0, 0.0, 2.0]);
        let b = SparseVec::from_dense(&[1.0, 0.0, 2.0]);
        // Force a stored zero into `a` at index 1 via a cancelling merge.
        a.merge_assign(&SparseVec::from_dense(&[0.0, 1.0, 0.0]), |x, y| x + y);
        a.merge_assign(&SparseVec::from_dense(&[0.0, -1.0, 0.0]), |x, y| x + y);
        assert_eq!(a.nnz(), 3);
        assert_eq!(b.nnz(), 2);
        assert_eq!(a, b);
        assert_ne!(a, SparseVec::from_dense(&[1.0, 0.5, 2.0]));
        assert_ne!(a, SparseVec::from_dense(&[1.0, 0.0, 2.0, 0.0]));
    }

    #[test]
    fn assign_scaled_matches_dense_construction() {
        let idx = [1u32, 4, 6];
        let val = [0.5, -2.0, 1.5];
        let mut s = SparseVec::zeros(0);
        s.assign_scaled(8, &idx, &val, -3.0);
        let mut dense = vec![0.0; 8];
        for (&k, &v) in idx.iter().zip(&val) {
            dense[k as usize] = -3.0 * v;
        }
        assert_eq!(s.to_dense(), dense);
        assert_eq!(s.dim(), 8);
    }

    #[test]
    fn clear_keeps_dimension() {
        let mut s = SparseVec::from_dense(&[1.0, 2.0]);
        s.clear();
        assert_eq!(s.dim(), 2);
        assert_eq!(s.nnz(), 0);
        assert_eq!(s, SparseVec::zeros(2));
    }

    #[test]
    fn parts_round_trip_through_assign_parts() {
        let src = SparseVec::from_dense(&[0.0, 1.5, 0.0, -2.0, 0.25]);
        let mut dst = SparseVec::from_dense(&[9.0, 9.0, 9.0, 9.0, 9.0]);
        dst.assign_parts(src.indices(), src.values());
        assert_eq!(dst, src);
        assert_eq!(dst.indices(), &[1, 3, 4]);
        assert_eq!(dst.dim(), 5);
    }
}
