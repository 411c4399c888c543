//! Shared helpers for the `statleak` reproduction harness.
//!
//! The entry points are the `repro` binary (regenerates every table and
//! figure of the reproduction — see `EXPERIMENTS.md`) and the `ssta_perf`
//! SSTA scaling curve (`BENCH_ssta.json`). The repository benchmark lives
//! in `perfbench/`; the CI timing gates are the `#[ignore]`d release
//! tests in the root package's `tests/perf_gates.rs`.
//!
//! `repro` keeps its resume checkpoints in [`statleak_engine::Store`],
//! the crash-safe result store `serve --store-dir` also uses (checksummed
//! `.entry` files, fsync before rename, quarantine for corrupt entries);
//! this crate has no persistence code of its own.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use statleak_core::flows::{self, FlowConfig, Setup};
use statleak_netlist::benchmarks;
use statleak_tech::{Design, FactorModel};

/// Builds the standard `(design, factor model)` pair for a benchmark with
/// the default 100 nm variation budget: the model half of the flows'
/// [`Setup`], without the minimum-delay sizing.
///
/// # Panics
///
/// Panics if the benchmark name is unknown (these helpers are only used
/// with the fixed suite).
pub fn standard_setup(name: &str) -> (Design, FactorModel) {
    let cfg = FlowConfig::builder(name)
        .build()
        .expect("default flow config");
    let circuit =
        flows::benchmark_circuit(name).unwrap_or_else(|_| panic!("unknown benchmark {name}"));
    Setup::model(circuit, &cfg).expect("exponential-kernel correlation always factors")
}

/// Peak resident set size of this process so far (bytes), read from the
/// `VmHWM` line of `/proc/self/status`. Returns `None` on platforms
/// without procfs (`ssta_perf` then records `null`).
///
/// The high-water mark is monotone over the process lifetime, so call
/// sites that want per-phase attribution must measure phases in separate
/// processes; the harness records it once per run as an upper bound on
/// working-set size.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// The benchmark list used in quick mode (small/medium circuits).
pub fn quick_suite() -> Vec<&'static str> {
    vec!["c432", "c499", "c880"]
}

/// The full evaluation suite (everything except c17).
pub fn full_suite() -> Vec<&'static str> {
    benchmarks::evaluation_names()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_setup_builds() {
        let (d, fm) = standard_setup("c432");
        assert_eq!(d.circuit().num_gates(), 160);
        assert_eq!(fm.num_shared(), 17);
    }

    #[test]
    fn suites_are_subsets_of_known() {
        for n in quick_suite().into_iter().chain(full_suite()) {
            assert!(benchmarks::spec(n).is_some(), "{n}");
        }
    }
}
