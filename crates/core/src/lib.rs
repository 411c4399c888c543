//! End-to-end flows and reporting for the `statleak` reproduction.
//!
//! This crate assembles the substrates into the experiments the paper
//! reports:
//!
//! * [`flows::prepare`] — benchmark name → [`flows::Setup::new`]:
//!   placement → factor model → minimum delay → clock target, producing
//!   the [`flows::Setup`] every flow below runs on (the CLI prepares the
//!   netlist it loaded through `Setup` directly);
//! * [`flows::baseline_on`], [`flows::deterministic_on`],
//!   [`flows::statistical_on`] — the three compared designs, the only
//!   place any of them is built;
//! * [`flows::run_comparison_on`] — the headline three-way comparison at
//!   equal timing yield: unoptimized baseline vs the guard-banded
//!   deterministic flow vs the statistical flow (table T2);
//! * [`flows::sweep_on`] — parameter sweeps over a [`SweepSpec`] axis
//!   (table T3, figures F2/F4);
//! * [`flows::yield_curves_on`] — yield-vs-clock curves (figure F3);
//! * [`flows::mc_validation_on`] — analytical-vs-Monte-Carlo accuracy
//!   (table T4);
//! * [`flows::distribution_on`] — leakage histograms before/after
//!   optimization (figure F1);
//! * [`flows::ablation_on`] — modeling ablations (experiment A1);
//! * [`joint::JointYield`] — joint timing+leakage parametric yield
//!   (experiment T5), an extension beyond the paper's single-constraint
//!   formulation;
//! * [`report`] — fixed-width console tables and CSV writers used by the
//!   `repro` binary.
//!
//! # Example
//!
//! ```
//! use statleak_core::flows::{self, FlowConfig};
//!
//! let cfg = FlowConfig::builder("c17").mc_samples(200).build()?;
//! let setup = flows::prepare(&cfg)?;
//! let outcome = flows::run_comparison_on(&setup, &cfg)?;
//! // Statistical optimization never loses to deterministic at equal yield.
//! assert!(outcome.statistical.leakage_p95 <= outcome.deterministic.leakage_p95 * 1.0001);
//! # Ok::<(), statleak_core::FlowError>(())
//! ```
//!
//! Long-lived processes that issue many requests should go through
//! `statleak-engine`, whose `Engine` caches prepared setups (and memoizes
//! flow results) behind a content-hash key.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flows;
pub mod joint;
pub mod report;

pub use flows::{
    ComparisonOutcome, ConfigError, DesignMetrics, FlowConfig, FlowConfigBuilder, FlowError,
    LibraryErrorClass, LibrarySpec, SweepSpec,
};
pub use joint::JointYield;
