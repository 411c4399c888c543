//! The stateful engine: cached, shareable analysis sessions.
//!
//! [`Engine`] owns a bounded LRU cache of prepared sessions keyed by a
//! content hash of the netlist bytes, the technology model, and the
//! [`FlowConfig`] knobs. A [`Session`] wraps the immutable prepared
//! [`Setup`] behind an `Arc` and exposes every experiment flow as a
//! method; results are memoized per session, so a warm request skips both
//! `prepare()` and the optimization itself. Each method is a memo key (the
//! op name plus its parameters) and a closure over the matching
//! `flows::*_on` function, handed to one generic `memoized::<T>` that
//! stores the result type-erased and downcasts it back.
//!
//! All flows are deterministic (seeded Monte Carlo, ordered reductions),
//! which is what makes memoization sound: a cache hit returns exactly the
//! bytes a cold run would have produced (modulo the wall-clock
//! `runtime_s` bookkeeping fields).

use crate::cache::{ContentHasher, Lru};
use statleak_core::flows::{
    self, AblationRow, ComparisonOutcome, DistributionData, FlowConfig, FlowError, LibrarySpec,
    McValidation, Setup, SweepPoint, SweepSpec,
};
use statleak_netlist::bench;
use statleak_obs as obs;
use statleak_tech::Technology;
use std::any::Any;
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
    memo: Mutex<HashMap<u64, Arc<MemoSlot>>>,
}

/// One memoized flow result, type-erased: the op name leads every memo
/// key, so a key always holds the one result type its method stores.
/// Errors are deterministic too, so they are cached alongside successes.
type MemoSlot = OnceLock<Arc<dyn Any + Send + Sync>>;

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

    /// The prepared experiment state (circuit, factor model, nominal
    /// sizing, clock target).
    pub fn setup(&self) -> &Setup {
        &self.inner.setup
    }

    /// Memoizes `compute` under the key hashed from `op` and `params`.
    /// Concurrent callers racing on a cold slot block until the first
    /// finishes, then share its result.
    fn memoized<T: Clone + Send + Sync + 'static>(
        &self,
        op: &str,
        params: impl FnOnce(&mut ContentHasher),
        compute: impl FnOnce(&Setup, &FlowConfig) -> T,
    ) -> T {
        let mut h = ContentHasher::new();
        h.str(op);
        params(&mut h);
        let key = h.finish();
        let compute = || compute(&self.inner.setup, &self.inner.cfg);
        let slot = {
            let mut memo = self.inner.memo.lock().expect("memo lock");
            // Past the cap, further distinct requests compute uncached.
            (memo.len() < MEMO_CAP || memo.contains_key(&key))
                .then(|| Arc::clone(memo.entry(key).or_default()))
        };
        let Some(slot) = slot else {
            return compute();
        };
        if slot.get().is_some() {
            self.memo_hits.fetch_add(1, Ordering::Relaxed);
            obs::counter!("engine_memo_hits_total").inc();
        }
        slot.get_or_init(|| Arc::new(compute()))
            .downcast_ref::<T>()
            .expect("a memo key holds the one type its op stores")
            .clone()
    }

    /// The headline three-way comparison (table T2).
    ///
    /// # Errors
    ///
    /// Returns [`FlowError`] on infeasible sizing.
    pub fn run_comparison(&self) -> Result<ComparisonOutcome, FlowError> {
        self.memoized("comparison", |_| {}, flows::run_comparison_on)
    }

    /// A parameter sweep over either axis (tables T3/F2, figure F4).
    ///
    /// # Errors
    ///
    /// Propagates [`FlowError`]; infeasible points are skipped.
    pub fn sweep(&self, spec: &SweepSpec) -> Result<Vec<SweepPoint>, FlowError> {
        let params = |h: &mut ContentHasher| {
            h.str(spec.axis());
            for &x in spec.values() {
                h.f64(x);
            }
        };
        self.memoized("sweep", params, |setup, cfg| {
            flows::sweep_on(setup, cfg, spec)
        })
    }

    /// Yield-vs-clock curves (figure F3).
    ///
    /// # Errors
    ///
    /// Propagates [`FlowError`].
    pub fn yield_curves(&self, t_grid: &[f64]) -> Result<Vec<(f64, f64, f64, f64)>, FlowError> {
        let params = |h: &mut ContentHasher| {
            for &x in t_grid {
                h.f64(x);
            }
        };
        self.memoized("yield_curves", params, |setup, cfg| {
            flows::yield_curves_on(setup, cfg, t_grid)
        })
    }

    /// Analytical-vs-Monte-Carlo validation (table T4).
    ///
    /// # Errors
    ///
    /// Propagates [`FlowError`].
    pub fn mc_validation(&self) -> Result<McValidation, FlowError> {
        self.memoized("mc_validation", |_| {}, flows::mc_validation_on)
    }

    /// Leakage-distribution data (figure F1).
    ///
    /// # Errors
    ///
    /// Propagates [`FlowError`].
    pub fn distribution(&self) -> Result<DistributionData, FlowError> {
        self.memoized("distribution", |_| {}, flows::distribution_on)
    }

    /// Modeling ablations (experiment A1).
    ///
    /// # Errors
    ///
    /// Propagates [`FlowError`].
    pub fn ablation(&self) -> Result<Vec<AblationRow>, FlowError> {
        self.memoized("ablation", |_| {}, flows::ablation_on)
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
        self.session_for_key(session_key(cfg)?, cfg)
    }

    /// [`Engine::session_with_origin`] for a caller that already holds
    /// `key == session_key(cfg)`, so a request hashes its config once.
    pub(crate) fn session_for_key(
        &self,
        key: u64,
        cfg: &FlowConfig,
    ) -> Result<(Session, bool), FlowError> {
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
    // Hashed only when set, so every dual-Vth key (and every stored
    // answer) predates the knob unchanged.
    if cfg.triple_vth {
        h.str("vth:triple");
    }
    Ok(h.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use statleak_core::flows::FlowConfigBuilder;

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

    /// The keys of existing stores: a change here re-keys every
    /// `--store-dir` entry and every ring placement.
    #[test]
    fn session_key_is_pinned() {
        let key =
            |b: FlowConfigBuilder| format!("{:016x}", session_key(&b.build().unwrap()).unwrap());
        let c432 = || FlowConfig::builder("c432");
        assert_eq!(key(c432()), "71c6b4aea32652b7");
        assert_eq!(key(c432().slack_factor(1.3).mc_seed(7)), "84045b49cd48f39a");
        assert_ne!(key(c432().triple_vth(true)), "71c6b4aea32652b7");
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
