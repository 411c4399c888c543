//! Layer accounting for traced runs: named layer times that, together
//! with an explicit unattributed remainder, add up to the traced wall
//! time.

use std::time::Instant;

/// Accumulated busy time per layer, in milliseconds, in first-use order.
#[derive(Debug, Default)]
pub struct Layers {
    totals: Vec<(&'static str, f64)>,
}

impl Layers {
    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(layer, t.elapsed().as_secs_f64() * 1e3);
        r
    }

    /// Charges `ms` to `layer`.
    pub fn add(&mut self, layer: &'static str, ms: f64) {
        match self.totals.iter_mut().find(|(name, _)| *name == layer) {
            Some((_, total)) => *total += ms,
            None => self.totals.push((layer, ms)),
        }
    }

    /// Every layer's total divided by `n` (per-operation means).
    pub fn per_op(&self, n: usize) -> Vec<(&'static str, f64)> {
        self.totals
            .iter()
            .map(|&(name, ms)| (name, ms / n as f64))
            .collect()
    }
}

/// A traced wall time split into layers plus the part no layer claimed.
#[derive(Debug, Clone, PartialEq)]
pub struct Accounting {
    /// `(layer, ms)` pairs that count towards the wall time.
    pub layers: Vec<(&'static str, f64)>,
    /// The traced wall time the layers split, ms.
    pub wall_ms: f64,
    /// `wall_ms − Σ layers`; negative when layers overlap or were taken
    /// from different samples (e.g. medians of separate distributions).
    pub unattributed_ms: f64,
}

impl Accounting {
    /// Splits `wall_ms` into `layers` and the unattributed remainder.
    pub fn new(layers: Vec<(&'static str, f64)>, wall_ms: f64) -> Self {
        let attributed: f64 = layers.iter().map(|&(_, ms)| ms).sum();
        Self {
            layers,
            wall_ms,
            unattributed_ms: wall_ms - attributed,
        }
    }

    /// The layer-sum invariant: Σ layers + unattributed = wall, up to
    /// floating-point rounding.
    pub fn balances(&self) -> bool {
        let attributed: f64 = self.layers.iter().map(|&(_, ms)| ms).sum();
        let total = attributed + self.unattributed_ms;
        (total - self.wall_ms).abs() <= 1e-9 * self.wall_ms.abs().max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_accumulate_and_average() {
        let mut l = Layers::default();
        l.add("a", 1.5);
        l.add("b", 2.0);
        l.add("a", 2.5);
        assert_eq!(l.per_op(2), vec![("a", 2.0), ("b", 1.0)]);
        assert_eq!(l.time("c", || 7), 7);
        assert_eq!(l.per_op(1).len(), 3);
    }

    #[test]
    fn layers_plus_unattributed_equal_wall() {
        let acc = Accounting::new(vec![("a", 0.1), ("b", 0.2), ("c", 0.3)], 1.0);
        assert!(acc.balances());
        assert!((acc.unattributed_ms - 0.4).abs() < 1e-12);
        // Layers that overrun the wall leave a negative remainder, and
        // the books still balance.
        let over = Accounting::new(vec![("a", 30.0), ("b", 20.0)], 44.0);
        assert!(over.balances());
        assert_eq!(over.unattributed_ms, -6.0);
        // A tampered remainder is caught.
        let mut bad = acc.clone();
        bad.unattributed_ms += 1e-3;
        assert!(!bad.balances());
    }
}
