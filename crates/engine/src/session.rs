//! The stateful engine: cached, shareable analysis sessions.
//!
//! [`Engine`] owns a bounded LRU cache of prepared sessions keyed by a
//! content hash of the netlist bytes, the technology model, and the
//! [`FlowConfig`] knobs. A [`Session`] wraps the immutable prepared
//! [`Setup`] behind an `Arc` and exposes every experiment flow as a
//! method; results are memoized per session, so a warm request skips both
//! `prepare()` and the optimization itself.
//!
//! All flows are deterministic (seeded Monte Carlo, ordered reductions),
//! which is what makes memoization sound: a cache hit returns exactly the
//! bytes a cold run would have produced (modulo the wall-clock
//! `runtime_s` bookkeeping fields).

use crate::cache::{ContentHasher, Lru};
use statleak_core::flows::{
    self, AblationRow, ComparisonOutcome, DesignMetrics, DistributionData, FlowConfig, FlowError,
    LibrarySpec, McValidation, Setup, SweepPoint, SweepSpec,
};
use statleak_netlist::bench;
use statleak_obs as obs;
use statleak_tech::{Design, Technology};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Memoized flow results stop growing past this many entries per session
/// (further distinct requests compute without caching). Sweeps and grids
/// are hashed by their parameter bits, so ordinary clients never get near
/// the bound.
const MEMO_CAP: usize = 128;

/// Cache traffic counters, returned by [`Engine::cache_stats`] and
/// surfaced by the `stats` request of the serve protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Session lookups served from the cache.
    pub hits: u64,
    /// Session lookups that had to run `prepare()`.
    pub misses: u64,
    /// Sessions dropped because the cache was full.
    pub evictions: u64,
    /// Sessions currently cached.
    pub entries: usize,
    /// The configured bound.
    pub capacity: usize,
    /// Flow requests answered from a session's memoized results.
    pub memo_hits: u64,
}

struct SessionInner {
    key: u64,
    cfg: FlowConfig,
    setup: Setup,
    memo: Mutex<HashMap<u64, Arc<OnceLock<MemoValue>>>>,
}

/// Memoized result of one flow operation (errors are deterministic too,
/// so they are cached alongside successes).
#[derive(Clone)]
enum MemoValue {
    Comparison(Box<Result<ComparisonOutcome, FlowError>>),
    Sweep(Result<Vec<SweepPoint>, FlowError>),
    YieldCurves(Result<Vec<(f64, f64, f64, f64)>, FlowError>),
    McValidation(Result<McValidation, FlowError>),
    Distribution(Result<DistributionData, FlowError>),
    Ablation(Result<Vec<AblationRow>, FlowError>),
}

/// A prepared, immutable analysis session over one `(netlist, tech,
/// config)` triple.
///
/// Cheap to clone (an `Arc` bump) and safe to share across threads; all
/// methods take `&self`.
#[derive(Clone)]
pub struct Session {
    inner: Arc<SessionInner>,
    memo_hits: Arc<AtomicU64>,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("key", &format_args!("{:016x}", self.inner.key))
            .field("benchmark", &self.inner.cfg.benchmark)
            .finish()
    }
}

impl Session {
    /// The content-hash cache key this session is stored under.
    pub fn key(&self) -> u64 {
        self.inner.key
    }

    /// The configuration the session was prepared for.
    pub fn config(&self) -> &FlowConfig {
        &self.inner.cfg
    }

    /// The prepared experiment state (circuit, factor model, nominal
    /// sizing, clock target).
    pub fn setup(&self) -> &Setup {
        &self.inner.setup
    }

    /// Fetches or creates the memo slot for `key`; `None` when the memo
    /// table is saturated (the caller computes without caching).
    fn memo_slot(&self, key: u64) -> Option<Arc<OnceLock<MemoValue>>> {
        let mut memo = self.inner.memo.lock().expect("memo lock");
        if let Some(slot) = memo.get(&key) {
            return Some(slot.clone());
        }
        if memo.len() >= MEMO_CAP {
            return None;
        }
        let slot = Arc::new(OnceLock::new());
        memo.insert(key, slot.clone());
        Some(slot)
    }

    /// Memoizes `compute` under `key`. Concurrent callers racing on a
    /// cold slot block until the first finishes, then share its result.
    fn memoized(&self, key: u64, compute: impl FnOnce() -> MemoValue) -> MemoValue {
        match self.memo_slot(key) {
            Some(slot) => {
                if slot.get().is_some() {
                    self.memo_hits.fetch_add(1, Ordering::Relaxed);
                    obs::counter!("engine_memo_hits_total").inc();
                }
                slot.get_or_init(compute).clone()
            }
            None => compute(),
        }
    }

    fn op_key(&self, op: &str, params: impl FnOnce(&mut ContentHasher)) -> u64 {
        let mut h = ContentHasher::new();
        h.str(op);
        params(&mut h);
        h.finish()
    }

    /// The headline three-way comparison (table T2).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] on infeasible sizing.
    pub fn run_comparison(&self) -> Result<ComparisonOutcome, FlowError> {
        let key = self.op_key("comparison", |_| {});
        match self.memoized(key, || {
            MemoValue::Comparison(Box::new(flows::run_comparison_on(
                &self.inner.setup,
                &self.inner.cfg,
            )))
        }) {
            MemoValue::Comparison(r) => *r,
            _ => flows::run_comparison_on(&self.inner.setup, &self.inner.cfg),
        }
    }

    /// A parameter sweep over either axis (tables T3/F2, figure F4).
    ///
    /// # Errors
    ///
    /// Propagates [`FlowError`]; infeasible points are skipped.
    pub fn sweep(&self, spec: &SweepSpec) -> Result<Vec<SweepPoint>, FlowError> {
        let key = self.op_key("sweep", |h| {
            h.str(spec.axis());
            for &x in spec.values() {
                h.f64(x);
            }
        });
        match self.memoized(key, || {
            MemoValue::Sweep(flows::sweep_on(&self.inner.setup, &self.inner.cfg, spec))
        }) {
            MemoValue::Sweep(r) => r,
            _ => flows::sweep_on(&self.inner.setup, &self.inner.cfg, spec),
        }
    }

    /// Yield-vs-clock curves (figure F3).
    ///
    /// # Errors
    ///
    /// Propagates [`FlowError`].
    pub fn yield_curves(&self, t_grid: &[f64]) -> Result<Vec<(f64, f64, f64, f64)>, FlowError> {
        let key = self.op_key("yield_curves", |h| {
            for &x in t_grid {
                h.f64(x);
            }
        });
        match self.memoized(key, || {
            MemoValue::YieldCurves(flows::yield_curves_on(
                &self.inner.setup,
                &self.inner.cfg,
                t_grid,
            ))
        }) {
            MemoValue::YieldCurves(r) => r,
            _ => flows::yield_curves_on(&self.inner.setup, &self.inner.cfg, t_grid),
        }
    }

    /// Analytical-vs-Monte-Carlo validation (table T4).
    ///
    /// # Errors
    ///
    /// Propagates [`FlowError`].
    pub fn mc_validation(&self) -> Result<McValidation, FlowError> {
        let key = self.op_key("mc_validation", |_| {});
        match self.memoized(key, || {
            MemoValue::McValidation(flows::mc_validation_on(&self.inner.setup, &self.inner.cfg))
        }) {
            MemoValue::McValidation(r) => r,
            _ => flows::mc_validation_on(&self.inner.setup, &self.inner.cfg),
        }
    }

    /// Leakage-distribution data (figure F1).
    ///
    /// # Errors
    ///
    /// Propagates [`FlowError`].
    pub fn distribution(&self) -> Result<DistributionData, FlowError> {
        let key = self.op_key("distribution", |_| {});
        match self.memoized(key, || {
            MemoValue::Distribution(flows::distribution_on(&self.inner.setup, &self.inner.cfg))
        }) {
            MemoValue::Distribution(r) => r,
            _ => flows::distribution_on(&self.inner.setup, &self.inner.cfg),
        }
    }

    /// Modeling ablations (experiment A1).
    ///
    /// # Errors
    ///
    /// Propagates [`FlowError`].
    pub fn ablation(&self) -> Result<Vec<AblationRow>, FlowError> {
        let key = self.op_key("ablation", |_| {});
        match self.memoized(key, || {
            MemoValue::Ablation(flows::ablation_on(&self.inner.setup, &self.inner.cfg))
        }) {
            MemoValue::Ablation(r) => r,
            _ => flows::ablation_on(&self.inner.setup, &self.inner.cfg),
        }
    }

    /// Measures an arbitrary design against this session's clock target
    /// (no memoization — the design is caller-owned state).
    pub fn measure(&self, design: &Design, runtime_s: f64) -> DesignMetrics {
        flows::measure(
            design,
            &self.inner.setup.fm,
            self.inner.setup.t_clk,
            self.inner.cfg.mc_config(),
            runtime_s,
        )
    }

    /// Number of memoized flow results currently held.
    pub fn memo_len(&self) -> usize {
        self.inner.memo.lock().expect("memo lock").len()
    }
}

/// A process-wide engine: a bounded LRU cache of prepared [`Session`]s.
///
/// Thread-safe; every method takes `&self`. Use [`Engine::global`] for the
/// shared process-local instance the CLI and one-shot helpers route
/// through, or [`Engine::new`] for an isolated cache (servers, tests).
pub struct Engine {
    cache: Mutex<Lru<Arc<SessionInner>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    memo_hits: Arc<AtomicU64>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.cache_stats();
        f.debug_struct("Engine").field("stats", &stats).finish()
    }
}

/// Default capacity of [`Engine::global`] and [`Engine::default`].
pub const DEFAULT_CACHE_CAPACITY: usize = 32;

impl Default for Engine {
    fn default() -> Self {
        Self::new(DEFAULT_CACHE_CAPACITY)
    }
}

impl Engine {
    /// Creates an engine whose cache holds at most `capacity` sessions.
    pub fn new(capacity: usize) -> Self {
        Self {
            cache: Mutex::new(Lru::new(capacity)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            memo_hits: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The shared process-local engine (capacity
    /// [`DEFAULT_CACHE_CAPACITY`]), created on first use.
    pub fn global() -> &'static Engine {
        static GLOBAL: OnceLock<Engine> = OnceLock::new();
        GLOBAL.get_or_init(Engine::default)
    }

    /// Returns the cached session for `cfg`, preparing (and caching) it on
    /// a miss.
    ///
    /// The cache key is a content hash over the benchmark's netlist bytes
    /// (its `.bench` serialization), the technology parameters, and every
    /// [`FlowConfig`] knob — so two configs that differ only in, say,
    /// `mc_samples` are distinct sessions, while repeated identical
    /// requests share one.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::UnknownBenchmark`] or a correlation-model
    /// error from `prepare()`.
    pub fn session(&self, cfg: &FlowConfig) -> Result<Session, FlowError> {
        self.session_with_origin(cfg).map(|(session, _)| session)
    }

    /// Like [`Engine::session`], additionally reporting whether the
    /// session came from the cache (`true`) or was prepared cold
    /// (`false`) — the serve audit log's `cache` vs `cold` outcome.
    ///
    /// # Errors
    ///
    /// Same as [`Engine::session`].
    pub fn session_with_origin(&self, cfg: &FlowConfig) -> Result<(Session, bool), FlowError> {
        let key = session_key(cfg)?;
        if let Some(inner) = self.cache.lock().expect("cache lock").get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            obs::counter!("engine_cache_hits_total").inc();
            return Ok((self.wrap(inner), true));
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs::counter!("engine_cache_misses_total").inc();
        // Build outside the lock: a slow prepare() must not stall lookups
        // of already-cached sessions. Two threads racing on the same cold
        // key both build, and `insert` makes them converge on one copy.
        let setup = flows::prepare(cfg)?;
        let inner = Arc::new(SessionInner {
            key,
            cfg: cfg.clone(),
            setup,
            memo: Mutex::new(HashMap::new()),
        });
        let winner = {
            let mut cache = self.cache.lock().expect("cache lock");
            let (winner, evicted) = cache.insert(key, inner);
            if evicted.is_some() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                obs::counter!("engine_cache_evictions_total").inc();
            }
            obs::gauge!("engine_cache_sessions").set(cache.len() as f64);
            winner
        };
        Ok((self.wrap(winner), false))
    }

    fn wrap(&self, inner: Arc<SessionInner>) -> Session {
        Session {
            inner,
            memo_hits: self.memo_hits.clone(),
        }
    }

    /// Cache traffic counters.
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.cache.lock().expect("cache lock");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: cache.len(),
            capacity: cache.capacity(),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached session (counters are preserved).
    pub fn clear(&self) {
        self.cache.lock().expect("cache lock").clear();
    }
}

/// Computes the content-hash cache key for a configuration.
///
/// The key covers the netlist content, the technology parameters, every
/// [`FlowConfig`] knob, and the *content identity* of the configured cell
/// library ([`statleak_tech::CellLibrary::id`], which embeds a hash of the `.lib` source
/// for Liberty libraries) — so editing a library file on disk, or pointing
/// two requests at different corners of the same library, never aliases
/// into one cached session.
///
/// # Errors
///
/// Returns [`FlowError::UnknownBenchmark`] if the benchmark name resolves
/// to no built-in circuit, or [`FlowError::Library`] if a configured
/// `.lib` file cannot be loaded.
pub fn session_key(cfg: &FlowConfig) -> Result<u64, FlowError> {
    let circuit = flows::benchmark_circuit(&cfg.benchmark)?;
    let mut h = ContentHasher::new();
    // Netlist content, not just the name.
    h.str(&bench::write(&circuit));
    // Technology model. `Debug` prints every parameter with full f64
    // round-trip precision, which is exactly the content we want keyed.
    h.str(&format!("{:?}", Technology::ptm100()));
    // Library identity: the builtin id is derived from the technology
    // parameters; a Liberty id embeds the file stem, corner, and a
    // content hash of the `.lib` source.
    match &cfg.library {
        LibrarySpec::Builtin => {
            h.str("library:builtin");
        }
        spec => {
            let library = spec.build(&Technology::ptm100())?;
            h.str("library:");
            h.str(library.id());
        }
    }
    // FlowConfig knobs.
    h.str(&cfg.benchmark);
    h.f64(cfg.slack_factor);
    h.f64(cfg.eta);
    h.usize(cfg.mc_samples);
    h.str(&cfg.mc_sampling.to_string());
    h.bytes(&cfg.mc_seed.to_le_bytes());
    h.bool(cfg.wire_loads);
    let v = &cfg.variation;
    h.f64(v.sigma_l_rel);
    h.f64(v.frac_d2d);
    h.f64(v.frac_spatial);
    h.f64(v.frac_local);
    h.f64(v.sigma_vth_rand);
    h.f64(v.corr_length);
    h.usize(v.grid);
    Ok(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(benchmark: &str) -> FlowConfig {
        FlowConfig::builder(benchmark)
            .mc_samples(0)
            .build()
            .expect("valid test config")
    }

    #[test]
    fn session_key_separates_configs() {
        let base = session_key(&cfg("c17")).unwrap();
        assert_eq!(base, session_key(&cfg("c17")).unwrap());
        assert_ne!(base, session_key(&cfg("c432")).unwrap());
        let loose = FlowConfig::builder("c17")
            .mc_samples(0)
            .slack_factor(1.5)
            .build()
            .unwrap();
        assert_ne!(base, session_key(&loose).unwrap());
        let mc = |seed: u64, sampler: &str| {
            let cfg = FlowConfig::builder("c17")
                .mc_samples(0)
                .mc_seed(seed)
                .mc_sampler(sampler.parse().expect("valid sampler"))
                .build()
                .unwrap();
            session_key(&cfg).unwrap()
        };
        assert_ne!(mc(1, "plain"), mc(2, "plain"));
        assert_ne!(mc(1, "plain"), mc(1, "sobol"));
        assert_ne!(mc(1, "sobol"), mc(1, "sobol+cv"));
        assert!(matches!(
            session_key(&cfg("c9999")),
            Err(FlowError::UnknownBenchmark(_))
        ));
    }

    #[test]
    fn comparison_requests_differing_only_in_mc_seed_get_distinct_sessions() {
        let key = |line: &str| {
            let req = crate::proto::parse_request(line)
                .map_err(|(e, _)| e)
                .expect("valid request");
            session_key(crate::proto::op_config(&req.op).expect("flow op")).unwrap()
        };
        let a = key(r#"{"id":1,"op":"comparison","benchmark":"c17","mc_samples":100,"mc_seed":1}"#);
        let b = key(r#"{"id":1,"op":"comparison","benchmark":"c17","mc_samples":100,"mc_seed":2}"#);
        assert_ne!(a, b);
    }

    #[test]
    fn engine_counts_hits_misses_and_evictions() {
        let engine = Engine::new(2);
        engine.session(&cfg("c17")).unwrap();
        engine.session(&cfg("c17")).unwrap();
        engine.session(&cfg("c432")).unwrap();
        // Third distinct config evicts the LRU entry (c17).
        let wide = FlowConfig::builder("c17")
            .mc_samples(0)
            .eta(0.9)
            .build()
            .unwrap();
        engine.session(&wide).unwrap();
        let s = engine.cache_stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 3, 1));
        assert_eq!(s.entries, 2);
        assert_eq!(s.capacity, 2);
        // Re-requesting the evicted config is a miss again.
        engine.session(&cfg("c17")).unwrap();
        assert_eq!(engine.cache_stats().misses, 4);
    }

    #[test]
    fn warm_requests_are_memoized() {
        let engine = Engine::new(4);
        let session = engine.session(&cfg("c17")).unwrap();
        let cold = session.run_comparison().unwrap();
        let warm = session.run_comparison().unwrap();
        assert_eq!(cold, warm);
        // Bit for bit, not just `==` (which equates 0.0 and -0.0).
        assert_eq!(format!("{cold:?}"), format!("{warm:?}"));
        assert_eq!(engine.cache_stats().memo_hits, 1);
        assert_eq!(session.memo_len(), 1);
        // A fresh session handle from the cache shares the same memo.
        let again = engine
            .session(&cfg("c17"))
            .unwrap()
            .run_comparison()
            .unwrap();
        assert_eq!(again, cold);
        assert_eq!(engine.cache_stats().memo_hits, 2);
    }

    #[test]
    fn session_results_match_one_shot_flows() {
        let engine = Engine::new(4);
        let config = cfg("c17");
        let session = engine.session(&config).unwrap();
        let setup = flows::prepare(&config).unwrap();
        let curves = session.yield_curves(&[1.0, 1.2]).unwrap();
        assert_eq!(
            curves,
            flows::yield_curves_on(&setup, &config, &[1.0, 1.2]).unwrap()
        );
        let spec = SweepSpec::SlackFactor(vec![1.1, 1.3]);
        assert_eq!(
            session.sweep(&spec).unwrap(),
            flows::sweep_on(&setup, &config, &spec).unwrap()
        );
        let rows = session.ablation().unwrap();
        assert_eq!(rows, flows::ablation_on(&setup, &config).unwrap());
    }
}
