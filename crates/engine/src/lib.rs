//! statleak-engine — the service layer over the statleak flows.
//!
//! The core crates (`statleak-core` and below) are stateless: every
//! `flows::prepare` call re-reads the netlist, rebuilds the timing graph,
//! and refactors the correlation model, and every flow re-runs the
//! optimizer. That is the right shape
//! for a CLI invocation and the wrong shape for anything long-lived — a
//! parameter sweep driver, a notebook, or a daemon answering requests.
//!
//! This crate adds the long-lived shape without touching the numerics:
//!
//! - [`Engine`] — a bounded LRU cache of prepared [`Session`]s keyed by a
//!   deterministic content hash of the netlist bytes, the technology
//!   model, and every [`FlowConfig`](statleak_core::flows::FlowConfig)
//!   knob that affects results.
//! - [`Session`] — an `Arc`-shared handle over one prepared setup, whose
//!   methods mirror the `statleak_core::flows` free functions and
//!   additionally memoize full results (sound because every flow is
//!   deterministic end to end: fixed MC seed, ordered reductions).
//! - [`serve`] — a newline-delimited-JSON TCP daemon over the engine,
//!   where each connection thread runs its own requests behind one FIFO
//!   admission gate, with `busy` backpressure past a high-water mark,
//!   per-request deadlines, and graceful drain on shutdown.
//!
//! ```
//! use statleak_core::flows::FlowConfig;
//! use statleak_engine::Engine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = FlowConfig::builder("c17").mc_samples(0).build()?;
//! let session = Engine::global().session(&cfg)?;
//! let first = session.run_comparison()?; // computes
//! let again = session.run_comparison()?; // memo hit: same result, no work
//! assert_eq!(first.statistical.leakage_p95, again.statistical.leakage_p95);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod cache;
pub mod json;
pub mod proto;
pub mod ring;
pub mod serve;
pub mod session;
pub mod store;

pub use audit::{AccessLog, AccessRecord};
pub use cache::{ContentHasher, Lru};
pub use json::{Json, JsonError};
pub use proto::{Op, ProtoError, Request};
pub use ring::Ring;
pub use serve::{BindError, ServeConfig, ServeReport, Server};
pub use session::{session_key, CacheStats, Engine, Session, DEFAULT_CACHE_CAPACITY};
pub use store::{Store, StoreStats};
