//! Facts about the host and processes a result was measured on.

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The compiler that built the benchmark (captured by `build.rs`).
pub fn rustc_version() -> &'static str {
    env!("PERFBENCH_RUSTC_VERSION")
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MB, or `None` where `/proc` does not report it.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// SplitMix64: the benchmark's own seeded generator for workload inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `n` distinct values below `bound`.
    pub fn distinct(&mut self, n: usize, bound: u64) -> Vec<u64> {
        assert!(
            n as u64 <= bound,
            "cannot draw {n} distinct values below {bound}"
        );
        let mut out: Vec<u64> = Vec::with_capacity(n);
        while out.len() < n {
            let v = self.next_u64() % bound;
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_repeat_per_seed_and_stay_distinct() {
        let a = SplitMix::new(7).distinct(16, 1000);
        assert_eq!(a, SplitMix::new(7).distinct(16, 1000));
        assert_ne!(a, SplitMix::new(8).distinct(16, 1000));
        let mut s = a.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 16);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_mb("self").is_some_and(|mb| mb > 0.0));
        }
    }
}
