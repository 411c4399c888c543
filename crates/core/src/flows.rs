//! The experiment flows, and the one optimize path: every caller (the
//! `*_on` flows, the CLI, serve, `repro`) gets its compared designs from
//! [`baseline_on`], [`deterministic_on`] and [`statistical_on`], so a step
//! added to one of them reaches every caller.

use statleak_leakage::LeakageAnalysis;
use statleak_mc::{
    McConfig, McResult, MonteCarlo, SamplingScheme, VarianceReduction, YieldEstimate, DEFAULT_CI_Z,
};
use statleak_netlist::{benchmarks, placement::Placement, Circuit};
use statleak_obs as obs;
use statleak_opt::{
    deterministic_for_yield, sizing, statistical_flow, DetYieldOutcome, StatYieldOutcome,
    StatisticalOptimizer,
};
use statleak_ssta::Ssta;
use statleak_stats::{BinomialInterval, CholeskyError, Histogram};
use statleak_tech::liberty::LibertyLoadError;
use statleak_tech::{
    CellLibrary, Design, FactorModel, LibertyLibrary, Technology, VariationConfig,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

/// A configuration value rejected by [`FlowConfigBuilder::build`].
///
/// Carries the offending field name and a human-readable requirement so
/// callers (the CLI, the serve protocol) can surface precise diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigError {
    /// The builder field that failed validation.
    pub field: &'static str,
    /// What the field requires and what was supplied instead.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "`{}` {}", self.field, self.message)
    }
}

impl std::error::Error for ConfigError {}

/// Which cell library a flow evaluates through.
///
/// The default is [`LibrarySpec::Builtin`] — the technology's closed-form
/// models, whose results are bit-identical to every release before the
/// library abstraction existed. [`LibrarySpec::Liberty`] substitutes a
/// characterized `.lib` file (NLDM tables, `when`-conditioned leakage),
/// optionally resolved at a named process corner from the sibling-file
/// corner set (`mylib_ss.lib` next to `mylib.lib`).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum LibrarySpec {
    /// The technology's built-in closed-form models (reference semantics).
    #[default]
    Builtin,
    /// A Liberty `.lib` file loaded through
    /// [`statleak_tech::LibertyLibrary`].
    Liberty {
        /// Path to the base `.lib` file.
        path: PathBuf,
        /// Corner name (`ss`, `ff`, ...); `None` or `tt` selects the base
        /// file itself.
        corner: Option<String>,
    },
}

impl LibrarySpec {
    /// Parses the CLI/protocol spelling `path[,corner=<name>]`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for an empty path or an unknown option.
    pub fn parse(spec: &str) -> Result<Self, ConfigError> {
        let mut parts = spec.split(',');
        let path = parts.next().unwrap_or("").trim();
        if path.is_empty() {
            return Err(ConfigError {
                field: "library",
                message: "must start with a `.lib` file path".into(),
            });
        }
        let mut corner = None;
        for part in parts {
            let part = part.trim();
            match part.strip_prefix("corner=") {
                Some(c) if !c.is_empty() => corner = Some(c.to_ascii_lowercase()),
                _ => {
                    return Err(ConfigError {
                        field: "library",
                        message: format!("unknown option `{part}` (expected `corner=<name>`)"),
                    })
                }
            }
        }
        Ok(LibrarySpec::Liberty {
            path: PathBuf::from(path),
            corner,
        })
    }

    /// A stable one-line rendering (`builtin` or
    /// `liberty:<path>[,corner=<name>]`), the inverse of
    /// [`LibrarySpec::parse`] up to the `liberty:` prefix.
    pub fn describe(&self) -> String {
        match self {
            LibrarySpec::Builtin => "builtin".into(),
            LibrarySpec::Liberty { path, corner } => match corner {
                Some(c) => format!("liberty:{},corner={c}", path.display()),
                None => format!("liberty:{}", path.display()),
            },
        }
    }

    /// Resolves the spec into a live [`CellLibrary`] for a technology.
    ///
    /// # Errors
    ///
    /// Returns [`FlowError::Library`] when the `.lib` file cannot be
    /// read, parsed, or resolved at the requested corner.
    pub fn build(&self, tech: &Technology) -> Result<Arc<dyn CellLibrary>, FlowError> {
        match self {
            LibrarySpec::Builtin => Ok(Arc::new(statleak_tech::BuiltinLibrary::new(tech.clone()))),
            LibrarySpec::Liberty { path, corner } => {
                let lib = LibertyLibrary::load(path, corner.as_deref(), tech.clone())?;
                Ok(Arc::new(lib))
            }
        }
    }
}

/// Failure class of a [`FlowError::Library`], used by the CLI to pick the
/// exit code (I/O vs parse vs usage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LibraryErrorClass {
    /// The `.lib` file could not be read.
    Io,
    /// The `.lib` file failed to lex, parse, or decode (the message
    /// carries the line/column).
    Parse,
    /// The requested corner is not in the discovered corner set.
    UnknownCorner,
}

/// Errors surfaced by the flows.
///
/// Marked `#[non_exhaustive]`: downstream matches must keep a wildcard arm
/// so new failure classes can be added without a semver-major bump.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FlowError {
    /// The named benchmark does not exist.
    UnknownBenchmark(String),
    /// The spatial-correlation matrix failed to factor.
    Correlation(CholeskyError),
    /// A sizing step could not reach its target.
    Sizing(statleak_opt::SizeError),
    /// A [`FlowConfig`] field failed builder validation.
    Config(ConfigError),
    /// The configured cell library could not be loaded.
    Library {
        /// Failure class (I/O vs parse vs unknown corner).
        class: LibraryErrorClass,
        /// Human-readable diagnostic, including the path and (for parse
        /// failures) the line/column.
        message: String,
    },
}

impl FlowError {
    /// A stable machine-readable class name for this error, used by the
    /// repro harness to record structured failure rows and by the CLI to
    /// pick exit codes. The names are part of the output format
    /// (`results/failures.csv`) and must not change between releases.
    pub fn class(&self) -> &'static str {
        match self {
            FlowError::UnknownBenchmark(_) => "unknown-benchmark",
            FlowError::Correlation(_) => "correlation",
            FlowError::Sizing(_) => "infeasible",
            FlowError::Config(_) => "config",
            FlowError::Library { class, .. } => match class {
                LibraryErrorClass::Io => "library-io",
                LibraryErrorClass::Parse => "library-parse",
                LibraryErrorClass::UnknownCorner => "library-corner",
            },
        }
    }
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::UnknownBenchmark(n) => write!(f, "unknown benchmark `{n}`"),
            FlowError::Correlation(e) => write!(f, "correlation model: {e}"),
            FlowError::Sizing(e) => write!(f, "{e}"),
            FlowError::Config(e) => write!(f, "config: {e}"),
            FlowError::Library { message, .. } => write!(f, "library: {message}"),
        }
    }
}

impl std::error::Error for FlowError {}

impl From<CholeskyError> for FlowError {
    fn from(e: CholeskyError) -> Self {
        FlowError::Correlation(e)
    }
}

impl From<statleak_opt::SizeError> for FlowError {
    fn from(e: statleak_opt::SizeError) -> Self {
        FlowError::Sizing(e)
    }
}

impl From<ConfigError> for FlowError {
    fn from(e: ConfigError) -> Self {
        FlowError::Config(e)
    }
}

impl From<LibertyLoadError> for FlowError {
    fn from(e: LibertyLoadError) -> Self {
        let class = match &e {
            LibertyLoadError::Io { .. } => LibraryErrorClass::Io,
            LibertyLoadError::UnknownCorner { .. } => LibraryErrorClass::UnknownCorner,
            _ => LibraryErrorClass::Parse,
        };
        FlowError::Library {
            class,
            message: e.to_string(),
        }
    }
}

/// Configuration of one experiment flow.
///
/// Construct it with [`FlowConfig::builder`], which validates every knob
/// at [`FlowConfigBuilder::build`]. The struct is `#[non_exhaustive]` so
/// knobs can be added without breaking downstream crates; fields remain
/// `pub` for reading.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct FlowConfig {
    /// Benchmark name (see [`statleak_netlist::benchmarks::SUITE`]).
    pub benchmark: String,
    /// Clock target as a multiple of the minimum achievable delay.
    pub slack_factor: f64,
    /// Timing-yield requirement `η`.
    pub eta: f64,
    /// Variation model.
    pub variation: VariationConfig,
    /// Monte-Carlo samples used for validation metrics (0 = skip MC).
    pub mc_samples: usize,
    /// Sampler and variance-reduction layers for the validation MC (plain
    /// seeded sampling by default; see [`SamplingScheme`]).
    pub mc_sampling: SamplingScheme,
    /// Base seed of the validation MC sub-streams.
    pub mc_seed: u64,
    /// Install placement-driven wire loads
    /// ([`statleak_tech::wire::wire_caps_from_placement`]) instead of the
    /// fixed-stub-only load model.
    pub wire_loads: bool,
    /// The cell library every evaluation path reads through
    /// ([`LibrarySpec::Builtin`] by default).
    pub library: LibrarySpec,
    /// Optimize over the triple-Vth ladder `[Low, Mid, High]` instead of
    /// the paper's dual-Vth `[Low, High]` (see [`statistical_on`]).
    pub triple_vth: bool,
}

impl FlowConfig {
    /// Starts a fluent builder with the default experiment knobs:
    /// `T = 1.20·Dmin`, `η = 0.95`, the 100 nm variation budget, and
    /// 2000 Monte-Carlo samples.
    ///
    /// ```
    /// use statleak_core::flows::FlowConfig;
    /// let cfg = FlowConfig::builder("c432")
    ///     .slack_factor(1.3)
    ///     .mc_samples(0)
    ///     .build()?;
    /// assert_eq!(cfg.benchmark, "c432");
    /// # Ok::<(), statleak_core::flows::ConfigError>(())
    /// ```
    pub fn builder(benchmark: impl Into<String>) -> FlowConfigBuilder {
        FlowConfigBuilder(FlowConfig {
            benchmark: benchmark.into(),
            slack_factor: 1.20,
            eta: 0.95,
            variation: VariationConfig::ptm100(),
            mc_samples: 2000,
            mc_sampling: SamplingScheme::default(),
            mc_seed: McConfig::default().seed,
            wire_loads: false,
            library: LibrarySpec::Builtin,
            triple_vth: false,
        })
    }

    /// Re-opens this configuration as a builder (for derived configs).
    pub fn to_builder(&self) -> FlowConfigBuilder {
        FlowConfigBuilder(self.clone())
    }

    /// The validation-MC settings this configuration asks for (0 samples
    /// = skip MC): what [`measure`] and the CLI's MC check run with.
    pub fn mc_config(&self) -> McConfig {
        McConfig {
            samples: self.mc_samples,
            seed: self.mc_seed,
            ..Default::default()
        }
        .with_scheme(self.mc_sampling)
    }
}

/// Fluent, validating builder for [`FlowConfig`].
///
/// Setters store raw values; [`FlowConfigBuilder::build`] holds the only
/// range checks (slack factor ≥ 1, yield in the open unit interval,
/// positive finite variation sigmas) — the CLI's flags and the serve
/// protocol's fields both go through it — and reports the first violation
/// as a typed [`ConfigError`].
#[derive(Debug, Clone)]
pub struct FlowConfigBuilder(FlowConfig);

impl FlowConfigBuilder {
    /// Clock target as a multiple of the minimum achievable delay.
    pub fn slack_factor(mut self, slack_factor: f64) -> Self {
        self.0.slack_factor = slack_factor;
        self
    }

    /// Timing-yield requirement `η`.
    pub fn eta(mut self, eta: f64) -> Self {
        self.0.eta = eta;
        self
    }

    /// Full variation model override.
    pub fn variation(mut self, variation: VariationConfig) -> Self {
        self.0.variation = variation;
        self
    }

    /// Shortcut: rescale the channel-length sigma of the current
    /// variation model (keeps the d2d/spatial/local split).
    pub fn sigma_l(mut self, sigma_l_rel: f64) -> Self {
        self.0.variation = self.0.variation.with_sigma_l(sigma_l_rel);
        self
    }

    /// Monte-Carlo samples used for validation metrics (0 = skip MC).
    pub fn mc_samples(mut self, mc_samples: usize) -> Self {
        self.0.mc_samples = mc_samples;
        self
    }

    /// Sampler and variance-reduction layers for the validation MC
    /// (e.g. `"sobol+is"`; see [`SamplingScheme`]).
    pub fn mc_sampler(mut self, mc_sampling: SamplingScheme) -> Self {
        self.0.mc_sampling = mc_sampling;
        self
    }

    /// Base seed of the validation MC sub-streams.
    pub fn mc_seed(mut self, mc_seed: u64) -> Self {
        self.0.mc_seed = mc_seed;
        self
    }

    /// Install placement-driven wire loads instead of fixed stubs.
    pub fn wire_loads(mut self, wire_loads: bool) -> Self {
        self.0.wire_loads = wire_loads;
        self
    }

    /// The cell library every evaluation path reads through (see
    /// [`LibrarySpec`]; builtin closed forms by default).
    pub fn library(mut self, library: LibrarySpec) -> Self {
        self.0.library = library;
        self
    }

    /// Optimize over the triple-Vth ladder instead of dual Vth.
    pub fn triple_vth(mut self, triple_vth: bool) -> Self {
        self.0.triple_vth = triple_vth;
        self
    }

    /// Validates every knob and produces the [`FlowConfig`].
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the first out-of-range field.
    pub fn build(self) -> Result<FlowConfig, ConfigError> {
        fn positive_finite(field: &'static str, x: f64) -> Result<(), ConfigError> {
            if x.is_finite() && x > 0.0 {
                Ok(())
            } else {
                Err(ConfigError {
                    field,
                    message: format!("must be a positive finite number, got {x}"),
                })
            }
        }
        let cfg = self.0;
        if cfg.benchmark.is_empty() {
            return Err(ConfigError {
                field: "benchmark",
                message: "must name a circuit (see `statleak benchmarks`)".into(),
            });
        }
        if !(cfg.slack_factor.is_finite() && cfg.slack_factor >= 1.0) {
            return Err(ConfigError {
                field: "slack_factor",
                message: format!(
                    "must be >= 1.0 (a multiple of Dmin), got {}",
                    cfg.slack_factor
                ),
            });
        }
        if !(cfg.eta.is_finite() && cfg.eta > 0.0 && cfg.eta < 1.0) {
            return Err(ConfigError {
                field: "eta",
                message: format!("must be a yield in (0, 1), got {}", cfg.eta),
            });
        }
        positive_finite("variation.sigma_l_rel", cfg.variation.sigma_l_rel)?;
        positive_finite("variation.corr_length", cfg.variation.corr_length)?;
        if !(cfg.variation.sigma_vth_rand.is_finite() && cfg.variation.sigma_vth_rand >= 0.0) {
            return Err(ConfigError {
                field: "variation.sigma_vth_rand",
                message: format!(
                    "must be a non-negative finite voltage, got {}",
                    cfg.variation.sigma_vth_rand
                ),
            });
        }
        for (field, frac) in [
            ("variation.frac_d2d", cfg.variation.frac_d2d),
            ("variation.frac_spatial", cfg.variation.frac_spatial),
            ("variation.frac_local", cfg.variation.frac_local),
        ] {
            if !(frac.is_finite() && (0.0..=1.0).contains(&frac)) {
                return Err(ConfigError {
                    field,
                    message: format!("must be a variance fraction in [0, 1], got {frac}"),
                });
            }
        }
        if cfg.variation.grid == 0 || cfg.variation.grid > 64 {
            return Err(ConfigError {
                field: "variation.grid",
                message: format!("must be in 1..=64, got {}", cfg.variation.grid),
            });
        }
        Ok(cfg)
    }
}

/// Prepared experiment state: circuit, factor model, delay targets.
///
/// Every entry point — [`prepare`] (serve, `repro`), the CLI, and the
/// benchmark harnesses — builds it through [`Setup::new`] (or its model
/// half, [`Setup::model`]), so all of them see the same design.
#[derive(Debug, Clone)]
pub struct Setup {
    /// The benchmark circuit.
    pub circuit: Arc<Circuit>,
    /// The factor model for the configured variation.
    pub fm: FactorModel,
    /// An unsized all-low-Vth base design.
    pub base: Design,
    /// Minimum achievable (nominal) delay, ps.
    pub dmin: f64,
    /// The clock target `slack_factor · dmin`, ps.
    pub t_clk: f64,
}

impl Setup {
    /// The model half of a setup: the unsized all-low-Vth design (through
    /// the configured library, with wire loads if configured) and the
    /// factor model of the configured variation, without the minimum-delay
    /// sizing that [`Setup::new`] adds.
    ///
    /// # Errors
    ///
    /// Returns a correlation-model error, or [`FlowError::Library`] when a
    /// configured `.lib` file fails to load.
    pub fn model(
        circuit: impl Into<Arc<Circuit>>,
        cfg: &FlowConfig,
    ) -> Result<(Design, FactorModel), FlowError> {
        let circuit = circuit.into();
        let placement = Placement::by_level(&circuit);
        let tech = Technology::ptm100();
        let fm = FactorModel::build(&circuit, &placement, &tech, &cfg.variation)?;
        let library = cfg.library.build(&tech)?;
        let mut base = Design::with_library(Arc::clone(&circuit), tech, library);
        if cfg.wire_loads {
            base.set_wire_caps(statleak_tech::wire::wire_caps_from_placement(
                &circuit,
                &placement,
                &statleak_tech::wire::WireModel::ptm100(),
            ));
        }
        Ok((base, fm))
    }

    /// The prepared state of a loaded circuit under `cfg`: its
    /// [`Setup::model`] plus the minimum delay and the clock target.
    ///
    /// # Errors
    ///
    /// Same as [`Setup::model`].
    pub fn new(circuit: impl Into<Arc<Circuit>>, cfg: &FlowConfig) -> Result<Setup, FlowError> {
        let (base, fm) = Setup::model(circuit, cfg)?;
        let dmin = sizing::min_delay_estimate(&base);
        Ok(Setup {
            circuit: base.circuit_arc(),
            fm,
            base,
            dmin,
            t_clk: dmin * cfg.slack_factor,
        })
    }
}

/// Resolves a benchmark name to its circuit: the combinational suite
/// first, then the sequential (FF-cut) suite.
///
/// # Errors
///
/// Returns [`FlowError::UnknownBenchmark`] when neither suite has `name`.
pub fn benchmark_circuit(name: &str) -> Result<Circuit, FlowError> {
    benchmarks::by_name(name)
        .or_else(|| benchmarks::sequential_by_name(name).map(|(c, _)| c))
        .ok_or_else(|| FlowError::UnknownBenchmark(name.to_string()))
}

/// Builds the experiment state for a configuration: resolves the
/// benchmark name, then [`Setup::new`].
///
/// # Errors
///
/// Returns [`FlowError::UnknownBenchmark`], a correlation-model error, or
/// [`FlowError::Library`] when a configured `.lib` file fails to load.
pub fn prepare(cfg: &FlowConfig) -> Result<Setup, FlowError> {
    let _span = obs::span!("flow.prepare");
    Setup::new(benchmark_circuit(&cfg.benchmark)?, cfg)
}

/// The baseline: the all-low-Vth base sized for yield `η`, with no
/// leakage optimization.
///
/// # Errors
///
/// Returns [`FlowError::Sizing`] when sizing cannot reach the target.
pub fn baseline_on(setup: &Setup, cfg: &FlowConfig) -> Result<Design, FlowError> {
    let mut design = setup.base.clone();
    sizing::size_for_yield(&mut design, &setup.fm, setup.t_clk, cfg.eta)?;
    Ok(design)
}

/// The guard-banded deterministic dual-Vth + sizing design at yield `η`
/// (the best guard band of a 6-step search).
///
/// # Errors
///
/// Returns [`FlowError::Sizing`] when no guard band can be sized to.
pub fn deterministic_on(setup: &Setup, cfg: &FlowConfig) -> Result<DetYieldOutcome, FlowError> {
    Ok(deterministic_for_yield(
        &setup.base,
        &setup.fm,
        setup.dmin,
        setup.t_clk,
        cfg.eta,
    )?)
}

/// The statistical Vth + sizing design at yield `η`, over the dual-Vth
/// ladder or, with [`FlowConfig::triple_vth`], the triple-Vth one.
///
/// # Errors
///
/// Returns [`FlowError::Sizing`] when the yield target cannot be sized to.
pub fn statistical_on(setup: &Setup, cfg: &FlowConfig) -> Result<StatYieldOutcome, FlowError> {
    let mut proto = StatisticalOptimizer::new(setup.t_clk).with_yield_target(cfg.eta);
    if cfg.triple_vth {
        proto = proto.with_triple_vth();
    }
    Ok(statistical_flow(&setup.base, &setup.fm, &proto)?)
}

/// Metrics of one optimized (or baseline) design.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignMetrics {
    /// Nominal (no-variation) total leakage power, W.
    pub leakage_nominal: f64,
    /// Mean of the total leakage-power lognormal, W.
    pub leakage_mean: f64,
    /// 95th percentile of the total leakage-power lognormal, W.
    pub leakage_p95: f64,
    /// Analytical (SSTA) timing yield at the clock target.
    pub timing_yield: f64,
    /// Empirical Monte-Carlo yield (`None` if MC was skipped).
    pub mc_yield: Option<f64>,
    /// 95% confidence interval on the MC yield: Wilson score for the
    /// counting estimator, normal-theory for the weighted/adjusted
    /// estimators (`None` if MC was skipped).
    pub mc_yield_ci: Option<BinomialInterval>,
    /// Empirical Monte-Carlo 95th-percentile leakage power, W.
    pub mc_leakage_p95: Option<f64>,
    /// Total gate width (area proxy).
    pub width: f64,
    /// Gates assigned high Vth.
    pub high_vth: usize,
    /// Optimization wall-clock time, seconds.
    pub runtime_s: f64,
}

/// Measures a design against the clock target (and optionally MC).
///
/// The MC yield honors the configured sampler stack: with importance
/// sampling enabled the dedicated tail estimator supplies the yield and
/// its interval (while the leakage percentile still comes from an
/// unshifted population run); with control variates the
/// indicator-regression estimator narrows the interval; otherwise the
/// counting yield carries a Wilson score interval. MC is skipped when
/// `mc.samples` is 0.
pub fn measure(
    design: &Design,
    fm: &FactorModel,
    t_clk: f64,
    mc: McConfig,
    runtime_s: f64,
) -> DesignMetrics {
    let _span = obs::span!("flow.measure");
    let ssta = Ssta::analyze(design, fm);
    let power = LeakageAnalysis::analyze(design, fm).total_power(design);
    let (mc_yield, mc_yield_ci, mc_p95) = if mc.samples > 0 {
        let (est, result) = mc_check(design, fm, t_clk, mc);
        let vdd = design.tech().vdd;
        (
            Some(est.yield_value),
            Some(est.ci),
            Some(result.leakage_percentile(0.95) * vdd),
        )
    } else {
        (None, None, None)
    };
    DesignMetrics {
        leakage_nominal: design.total_leakage_power_nominal(),
        leakage_mean: power.mean(),
        leakage_p95: power.quantile(0.95),
        timing_yield: ssta.timing_yield(t_clk),
        mc_yield,
        mc_yield_ci,
        mc_leakage_p95: mc_p95,
        width: design.total_width(),
        high_vth: design.high_vth_count(),
        runtime_s,
    }
}

/// Monte-Carlo check of a design at `t_clk`: the yield estimate and the
/// population run that the leakage percentile is read from.
///
/// The population never applies the mean shift (IS is an estimator
/// transform, not a population transform), so with importance sampling
/// on the yield comes from its own shifted batch; otherwise it is read
/// off the one population run, with control variates when configured.
pub fn mc_check(
    design: &Design,
    fm: &FactorModel,
    t_clk: f64,
    config: McConfig,
) -> (YieldEstimate, McResult) {
    let population = MonteCarlo::new(McConfig {
        variance_reduction: VarianceReduction {
            importance_sampling: false,
            ..config.variance_reduction
        },
        ..config.clone()
    });
    let result = population.run(design, fm);
    let est = if config.variance_reduction.importance_sampling {
        MonteCarlo::new(config).timing_yield_estimate(design, fm, t_clk)
    } else {
        population.yield_estimate_from(&result, t_clk)
    };
    (est, result)
}

/// Outcome of the headline three-way comparison (table T2).
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonOutcome {
    /// Benchmark name.
    pub benchmark: String,
    /// Minimum achievable delay, ps.
    pub dmin: f64,
    /// Clock target, ps.
    pub t_clk: f64,
    /// All-low-Vth design sized for the yield target (no optimization).
    pub baseline: DesignMetrics,
    /// Guard-banded deterministic dual-Vth + sizing at yield ≥ η.
    pub deterministic: DesignMetrics,
    /// Statistical dual-Vth + sizing at yield ≥ η.
    pub statistical: DesignMetrics,
    /// Guard band the deterministic flow selected.
    pub det_guard_band: f64,
    /// Extra saving of statistical over deterministic on p95 leakage,
    /// `1 − p95_stat / p95_det`.
    pub stat_extra_saving: f64,
}

/// Runs the headline comparison on an already-prepared [`Setup`]: baseline
/// vs deterministic vs statistical at equal timing yield `η`.
///
/// # Errors
///
/// Returns [`FlowError`] on infeasible sizing.
pub fn run_comparison_on(setup: &Setup, cfg: &FlowConfig) -> Result<ComparisonOutcome, FlowError> {
    let measured = |design: &Design, t0: Instant| {
        let runtime_s = t0.elapsed().as_secs_f64();
        measure(design, &setup.fm, setup.t_clk, cfg.mc_config(), runtime_s)
    };

    // Baseline: size for the yield target, no leakage optimization.
    let m_base = {
        let _span = obs::span!("flow.baseline");
        let t0 = Instant::now();
        measured(&baseline_on(setup, cfg)?, t0)
    };

    // Deterministic flow (best guard band for the yield target).
    let (m_det, det_guard_band) = {
        let _span = obs::span!("flow.deterministic");
        let t0 = Instant::now();
        let det = deterministic_on(setup, cfg)?;
        (measured(&det.design, t0), det.guard_band)
    };

    // Statistical flow.
    let m_stat = {
        let _span = obs::span!("flow.statistical");
        let t0 = Instant::now();
        measured(&statistical_on(setup, cfg)?.design, t0)
    };

    let extra = 1.0 - m_stat.leakage_p95 / m_det.leakage_p95;
    Ok(ComparisonOutcome {
        benchmark: cfg.benchmark.clone(),
        dmin: setup.dmin,
        t_clk: setup.t_clk,
        baseline: m_base,
        deterministic: m_det,
        statistical: m_stat,
        det_guard_band,
        stat_extra_saving: extra,
    })
}

/// One point of a delay-target sweep (table T3 / figure F2).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// The swept parameter value (slack factor or sigma).
    pub x: f64,
    /// Deterministic p95 leakage power, W.
    pub det_p95: f64,
    /// Statistical p95 leakage power, W.
    pub stat_p95: f64,
    /// Timing yield the deterministic flow actually achieved (can fall
    /// short of `η` at very tight clocks, where no guard band suffices).
    pub det_yield: f64,
    /// Timing yield the statistical flow achieved.
    pub stat_yield: f64,
    /// Extra saving of statistical over deterministic (only an
    /// equal-yield comparison when both yields reach `η`).
    pub extra_saving: f64,
}

/// The axis of a parameter sweep. One [`sweep_on`] entry point (and one
/// `Session::sweep` method) covers every axis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SweepSpec {
    /// Sweep the clock-target tightness `T/Dmin` (T3 / F2).
    SlackFactor(Vec<f64>),
    /// Sweep the channel-length variation magnitude `σ(ΔL/L)` (F4).
    SigmaL(Vec<f64>),
}

impl SweepSpec {
    /// The swept values.
    pub fn values(&self) -> &[f64] {
        match self {
            SweepSpec::SlackFactor(v) | SweepSpec::SigmaL(v) => v,
        }
    }

    /// A stable axis name (used by reports and the serve protocol).
    pub fn axis(&self) -> &'static str {
        match self {
            SweepSpec::SlackFactor(_) => "slack_factor",
            SweepSpec::SigmaL(_) => "sigma_l",
        }
    }
}

fn sweep_point(x: f64, o: &ComparisonOutcome) -> SweepPoint {
    SweepPoint {
        x,
        det_p95: o.deterministic.leakage_p95,
        stat_p95: o.statistical.leakage_p95,
        det_yield: o.deterministic.timing_yield,
        stat_yield: o.statistical.timing_yield,
        extra_saving: o.stat_extra_saving,
    }
}

/// Runs a parameter sweep on an already-prepared [`Setup`].
///
/// Slack-factor sweeps reuse the setup directly (only the clock target
/// changes, so the parse/placement/correlation work is amortized across
/// all points); sigma sweeps rebuild the model of the setup's circuit per
/// point, which the variation change requires.
///
/// # Errors
///
/// Propagates [`FlowError`]; individual infeasible points are skipped.
pub fn sweep_on(
    setup: &Setup,
    cfg: &FlowConfig,
    spec: &SweepSpec,
) -> Result<Vec<SweepPoint>, FlowError> {
    let mut out = Vec::new();
    for &x in spec.values() {
        let mut point_cfg = cfg.clone();
        point_cfg.mc_samples = 0;
        let point_setup;
        match spec {
            SweepSpec::SlackFactor(_) => {
                point_cfg.slack_factor = x;
                let mut s = setup.clone();
                s.t_clk = s.dmin * x;
                point_setup = s;
            }
            SweepSpec::SigmaL(_) => {
                point_cfg.variation = cfg.variation.with_sigma_l(x);
                point_setup = Setup::new(Arc::clone(&setup.circuit), &point_cfg)?;
            }
        }
        match run_comparison_on(&point_setup, &point_cfg) {
            Ok(o) => out.push(sweep_point(x, &o)),
            Err(FlowError::Sizing(_)) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

/// Yield-vs-clock curves for the three designs (figure F3) on an
/// already-prepared [`Setup`]. Returns
/// `(t_over_dmin, baseline, deterministic, statistical)` rows.
///
/// # Errors
///
/// Propagates [`FlowError`].
pub fn yield_curves_on(
    setup: &Setup,
    cfg: &FlowConfig,
    t_grid: &[f64],
) -> Result<Vec<(f64, f64, f64, f64)>, FlowError> {
    let ssta_b = Ssta::analyze(&baseline_on(setup, cfg)?, &setup.fm);
    let ssta_d = Ssta::analyze(&deterministic_on(setup, cfg)?.design, &setup.fm);
    let ssta_s = Ssta::analyze(&statistical_on(setup, cfg)?.design, &setup.fm);
    Ok(t_grid
        .iter()
        .map(|&k| {
            let t = k * setup.dmin;
            (
                k,
                ssta_b.timing_yield(t),
                ssta_d.timing_yield(t),
                ssta_s.timing_yield(t),
            )
        })
        .collect())
}

/// Analytical-vs-Monte-Carlo validation of SSTA and the leakage lognormal
/// (table T4).
#[derive(Debug, Clone, PartialEq)]
pub struct McValidation {
    /// Benchmark name.
    pub benchmark: String,
    /// SSTA delay mean, ps.
    pub ssta_mean: f64,
    /// MC delay mean, ps.
    pub mc_mean: f64,
    /// SSTA delay sigma, ps.
    pub ssta_sigma: f64,
    /// MC delay sigma, ps.
    pub mc_sigma: f64,
    /// SSTA yield at the clock target.
    pub ssta_yield: f64,
    /// MC yield at the clock target.
    pub mc_yield: f64,
    /// Wilson 95% confidence interval on the MC yield.
    pub mc_yield_ci: BinomialInterval,
    /// Analytical leakage-power mean, W.
    pub leak_mean: f64,
    /// MC leakage-power mean, W.
    pub mc_leak_mean: f64,
    /// Analytical leakage-power p95, W.
    pub leak_p95: f64,
    /// MC leakage-power p95, W.
    pub mc_leak_p95: f64,
}

/// Runs the T4 validation on the *sized baseline* design of an
/// already-prepared [`Setup`].
///
/// # Errors
///
/// Propagates [`FlowError`].
pub fn mc_validation_on(setup: &Setup, cfg: &FlowConfig) -> Result<McValidation, FlowError> {
    let design = baseline_on(setup, cfg)?;
    let ssta = Ssta::analyze(&design, &setup.fm);
    let power = LeakageAnalysis::analyze(&design, &setup.fm).total_power(&design);
    let mut mc = cfg.mc_config();
    mc.samples = mc.samples.max(100);
    // The validation compares full population statistics, so the IS
    // estimator transform does not apply here.
    mc.variance_reduction.importance_sampling = false;
    let mc = MonteCarlo::new(mc).run(&design, &setup.fm);
    let vdd = design.tech().vdd;
    let d = ssta.circuit_delay();
    let md = mc.delay_summary();
    let ml = mc.leakage_summary();
    Ok(McValidation {
        benchmark: cfg.benchmark.clone(),
        ssta_mean: d.mean,
        mc_mean: md.mean,
        ssta_sigma: d.std(),
        mc_sigma: md.std,
        ssta_yield: ssta.timing_yield(setup.t_clk),
        mc_yield: mc.timing_yield(setup.t_clk),
        mc_yield_ci: mc.timing_yield_interval(setup.t_clk, DEFAULT_CI_Z),
        leak_mean: power.mean(),
        mc_leak_mean: ml.mean * vdd,
        leak_p95: power.quantile(0.95),
        mc_leak_p95: ml.p95 * vdd,
    })
}

/// Leakage-distribution data for figure F1: the baseline and the
/// statistically optimized design, each with an MC histogram and the
/// analytical lognormal parameters.
#[derive(Debug, Clone)]
pub struct DistributionData {
    /// MC leakage-power samples of the sized baseline (W).
    pub baseline_samples: Vec<f64>,
    /// MC leakage-power samples of the optimized design (W).
    pub optimized_samples: Vec<f64>,
    /// Analytical lognormal of the baseline leakage power.
    pub baseline_analytic: statleak_stats::LogNormal,
    /// Analytical lognormal of the optimized leakage power.
    pub optimized_analytic: statleak_stats::LogNormal,
}

/// Which of the two compared designs a [`DistributionData`] accessor
/// refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DistKind {
    /// The sized all-low-Vth baseline.
    Baseline,
    /// The statistically optimized design.
    Optimized,
}

impl DistributionData {
    /// The MC leakage samples of one side (W).
    pub fn samples(&self, which: DistKind) -> &[f64] {
        match which {
            DistKind::Baseline => &self.baseline_samples,
            DistKind::Optimized => &self.optimized_samples,
        }
    }

    /// Histogram of one side's samples.
    pub fn histogram(&self, which: DistKind, bins: usize) -> Histogram {
        Histogram::from_samples(self.samples(which), bins)
    }
}

/// Produces the F1 distribution data on an already-prepared [`Setup`].
///
/// # Errors
///
/// Propagates [`FlowError`].
pub fn distribution_on(setup: &Setup, cfg: &FlowConfig) -> Result<DistributionData, FlowError> {
    let baseline = baseline_on(setup, cfg)?;
    let stat = statistical_on(setup, cfg)?;
    let vdd = setup.base.tech().vdd;
    let run = |d: &Design| -> Vec<f64> {
        MonteCarlo::new(McConfig {
            samples: cfg.mc_samples.max(100),
            variance_reduction: VarianceReduction::default(),
            ..cfg.mc_config()
        })
        .run(d, &setup.fm)
        .chips()
        .iter()
        .map(|c| c.leakage * vdd)
        .collect()
    };
    Ok(DistributionData {
        baseline_samples: run(&baseline),
        optimized_samples: run(&stat.design),
        baseline_analytic: LeakageAnalysis::analyze(&baseline, &setup.fm).total_power(&baseline),
        optimized_analytic: LeakageAnalysis::analyze(&stat.design, &setup.fm)
            .total_power(&stat.design),
    })
}

/// One ablation row (experiment A1).
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Which model variant.
    pub variant: String,
    /// Circuit-delay sigma under the variant, ps.
    pub delay_sigma: f64,
    /// Leakage-power p95 under the variant, W.
    pub leak_p95: f64,
    /// Leakage sigma/mean under the variant.
    pub leak_cv: f64,
}

/// Runs the modeling ablations on the sized baseline design of an
/// already-prepared [`Setup`]: full model, no spatial correlation, no
/// Vth–L coupling, and independent-sum leakage.
///
/// # Errors
///
/// Propagates [`FlowError`].
pub fn ablation_on(setup: &Setup, cfg: &FlowConfig) -> Result<Vec<AblationRow>, FlowError> {
    let design = baseline_on(setup, cfg)?;
    let placement = Placement::by_level(&setup.circuit);
    let mut rows = Vec::new();

    let mut add = |variant: &str, fm: &FactorModel, d: &Design, independent: bool| {
        let ssta = Ssta::analyze(d, fm);
        let leak = LeakageAnalysis::analyze(d, fm);
        let power = if independent {
            leak.total_current_independent().scale(d.tech().vdd)
        } else {
            leak.total_power(d)
        };
        rows.push(AblationRow {
            variant: variant.to_string(),
            delay_sigma: ssta.circuit_delay().std(),
            leak_p95: power.quantile(0.95),
            leak_cv: power.std() / power.mean(),
        });
    };

    add("full model", &setup.fm, &design, false);

    let fm_nospatial = FactorModel::build(
        &setup.circuit,
        &placement,
        design.tech(),
        &cfg.variation.without_spatial_correlation(),
    )?;
    add("no spatial correlation", &fm_nospatial, &design, false);

    let mut tech_nocouple = design.tech().clone();
    tech_nocouple.vth_l_coeff = 0.0;
    let fm_nc = FactorModel::build(&setup.circuit, &placement, &tech_nocouple, &cfg.variation)?;
    let design_nc = {
        let mut d = design.fresh_like(tech_nocouple);
        // Copy the baseline's implementation state.
        for g in design.circuit().gates() {
            d.set_size(g, design.size(g));
            d.set_vth(g, design.vth(g));
        }
        d
    };
    add("no Vth-L coupling", &fm_nc, &design_nc, false);

    add("independent-sum leakage", &setup.fm, &design, true);

    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_no_mc(benchmark: &str) -> FlowConfig {
        FlowConfig::builder(benchmark)
            .mc_samples(0)
            .build()
            .expect("valid test config")
    }

    #[test]
    fn prepare_rejects_unknown() {
        let cfg = cfg_no_mc("c9999");
        assert!(matches!(prepare(&cfg), Err(FlowError::UnknownBenchmark(_))));
    }

    #[test]
    fn benchmark_circuit_falls_back_to_the_sequential_suite() {
        assert_eq!(benchmark_circuit("c17").unwrap().name(), "c17");
        assert!(benchmarks::by_name("s27").is_none());
        assert!(benchmark_circuit("s27").is_ok());
    }

    #[test]
    fn builder_validates_ranges() {
        let e = FlowConfig::builder("c432").slack_factor(0.8).build();
        assert!(
            matches!(
                e,
                Err(ConfigError {
                    field: "slack_factor",
                    ..
                })
            ),
            "{e:?}"
        );
        let e = FlowConfig::builder("c432").eta(1.0).build();
        assert!(matches!(e, Err(ConfigError { field: "eta", .. })), "{e:?}");
        let e = FlowConfig::builder("c432").sigma_l(f64::NAN).build();
        assert!(e.is_err());
        let e = FlowConfig::builder("").build();
        assert!(
            matches!(
                e,
                Err(ConfigError {
                    field: "benchmark",
                    ..
                })
            ),
            "{e:?}"
        );
    }

    #[test]
    fn to_builder_round_trips() {
        let cfg = FlowConfig::builder("c880")
            .slack_factor(1.35)
            .eta(0.9)
            .wire_loads(true)
            .mc_samples(17)
            .build()
            .unwrap();
        assert_eq!(cfg.to_builder().build().unwrap(), cfg);
    }

    #[test]
    fn comparison_on_c432_shows_statistical_win() {
        let cfg = cfg_no_mc("c432");
        let o = run_comparison_on(&prepare(&cfg).unwrap(), &cfg).unwrap();
        // Both optimizers beat the baseline massively.
        assert!(o.deterministic.leakage_p95 < o.baseline.leakage_p95 * 0.7);
        assert!(o.statistical.leakage_p95 < o.baseline.leakage_p95 * 0.7);
        // Statistical wins at equal yield.
        assert!(
            o.stat_extra_saving > 0.0,
            "extra saving {}",
            o.stat_extra_saving
        );
        assert!(o.statistical.timing_yield >= cfg.eta - 1e-9);
        assert!(o.deterministic.timing_yield >= cfg.eta - 1e-9);
    }

    #[test]
    fn sweep_reports_monotone_pressure() {
        let cfg = cfg_no_mc("c432");
        let setup = prepare(&cfg).unwrap();
        let pts = sweep_on(&setup, &cfg, &SweepSpec::SlackFactor(vec![1.10, 1.30])).unwrap();
        assert_eq!(pts.len(), 2);
        // Looser clock → lower leakage for both flows.
        assert!(pts[1].det_p95 <= pts[0].det_p95 * 1.01);
        assert!(pts[1].stat_p95 <= pts[0].stat_p95 * 1.01);
    }

    #[test]
    fn sweep_axes_are_named() {
        assert_eq!(SweepSpec::SlackFactor(vec![1.1]).axis(), "slack_factor");
        assert_eq!(SweepSpec::SigmaL(vec![0.05]).axis(), "sigma_l");
        assert_eq!(SweepSpec::SigmaL(vec![0.05, 0.1]).values(), &[0.05, 0.1]);
    }

    #[test]
    fn yield_curves_monotone() {
        let cfg = cfg_no_mc("c432");
        let rows = yield_curves_on(&prepare(&cfg).unwrap(), &cfg, &[1.0, 1.1, 1.2, 1.3]).unwrap();
        for w in rows.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].2 >= w[0].2);
            assert!(w[1].3 >= w[0].3);
        }
    }

    #[test]
    fn mc_validation_errors_small() {
        let cfg = FlowConfig::builder("c432")
            .mc_samples(1500)
            .build()
            .unwrap();
        let v = mc_validation_on(&prepare(&cfg).unwrap(), &cfg).unwrap();
        assert!((v.ssta_mean - v.mc_mean).abs() / v.mc_mean < 0.03);
        assert!((v.leak_mean - v.mc_leak_mean).abs() / v.mc_leak_mean < 0.05);
        assert!((v.leak_p95 - v.mc_leak_p95).abs() / v.mc_leak_p95 < 0.10);
        assert!((v.ssta_yield - v.mc_yield).abs() < 0.07);
    }

    #[test]
    fn ablation_shows_expected_ordering() {
        let cfg = cfg_no_mc("c432");
        let rows = ablation_on(&prepare(&cfg).unwrap(), &cfg).unwrap();
        assert_eq!(rows.len(), 4);
        let by = |name: &str| rows.iter().find(|r| r.variant == name).unwrap().clone();
        let full = by("full model");
        // Removing spatial correlation shrinks both delay and leakage
        // spread (independent averaging).
        assert!(by("no spatial correlation").delay_sigma < full.delay_sigma);
        assert!(by("independent-sum leakage").leak_cv < full.leak_cv);
        // Removing the Vth-L coupling shrinks the leakage spread.
        assert!(by("no Vth-L coupling").leak_cv < full.leak_cv);
    }

    #[test]
    fn distribution_samples_present() {
        let cfg = FlowConfig::builder("c17").mc_samples(200).build().unwrap();
        let d = distribution_on(&prepare(&cfg).unwrap(), &cfg).unwrap();
        assert_eq!(d.baseline_samples.len(), 200);
        assert_eq!(d.optimized_samples.len(), 200);
        // Optimization shifts the distribution left.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(mean(&d.optimized_samples) < mean(&d.baseline_samples));
        assert_eq!(d.histogram(DistKind::Optimized, 16).total(), 200);
    }

    /// A `DistributionData` with hand-picked samples, bypassing the MC run,
    /// so histogram edge cases can be pinned exactly.
    fn dist_with(baseline: Vec<f64>, optimized: Vec<f64>) -> DistributionData {
        DistributionData {
            baseline_samples: baseline,
            optimized_samples: optimized,
            baseline_analytic: statleak_stats::LogNormal::new(-14.0, 0.5),
            optimized_analytic: statleak_stats::LogNormal::new(-15.0, 0.5),
        }
    }

    #[test]
    fn histogram_single_bin_collects_everything() {
        let d = dist_with(vec![1.0, 2.0, 3.0, 4.0], vec![5.0]);
        let h = d.histogram(DistKind::Baseline, 1);
        assert_eq!(h.counts(), &[4]);
        assert_eq!(h.total(), 4);
        assert_eq!(h.dropped(), 0);
    }

    #[test]
    fn histogram_all_equal_samples_land_in_one_bin() {
        // A zero-width sample range must not panic or divide by zero: the
        // degenerate range is widened and every sample lands in bin 0.
        let d = dist_with(vec![2.5e-6; 64], vec![2.5e-6]);
        let h = d.histogram(DistKind::Baseline, 8);
        assert_eq!(h.total(), 64);
        assert_eq!(h.counts()[0], 64);
        assert!(h.counts()[1..].iter().all(|&c| c == 0));
    }

    #[test]
    fn histogram_drops_non_finite_samples() {
        let d = dist_with(
            vec![1.0, f64::NAN, 2.0, f64::INFINITY, 3.0, f64::NEG_INFINITY],
            vec![1.0],
        );
        let h = d.histogram(DistKind::Baseline, 4);
        assert_eq!(h.total(), 3, "only the finite samples are binned");
        assert_eq!(h.dropped(), 3, "NaN and infinities are counted dropped");
        assert_eq!(h.counts().iter().sum::<u64>(), 3);
        // The range comes from the finite samples alone: [1, 3] split in
        // four, with the midpoint sample in the second bin.
        assert_eq!(h.counts(), &[1, 1, 0, 1]);
    }
}
