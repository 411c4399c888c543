//! The newline-delimited JSON request/response protocol of
//! `statleak serve`.
//!
//! One request per line, one response line per request, processed in
//! order per connection. See `docs/SERVE_PROTOCOL.md` for the full
//! reference with example pairs. Every response carries `"ok"`; failures
//! carry a typed `"error"` object whose `"class"` is stable:
//!
//! | class               | meaning                                      |
//! |---------------------|----------------------------------------------|
//! | `usage`             | malformed JSON, unknown op, bad field        |
//! | `config`            | a config knob failed builder validation      |
//! | `unknown-benchmark` | the named circuit does not exist             |
//! | `correlation`       | correlation matrix failed to factor          |
//! | `infeasible`        | optimization target cannot be met            |
//! | `busy`              | `queue_depth` requests waiting, rejected     |
//! | `deadline`          | request expired before it started running    |
//! | `wrong-shard`       | another fleet node owns this session         |
//! | `shutdown`          | server is draining, no new work accepted     |
//! | `internal`          | anything else                                |

use crate::cache::ContentHasher;
use crate::json::Json;
use crate::session::{CacheStats, Session};
use crate::store::StoreStats;
use statleak_core::flows::{
    AblationRow, ComparisonOutcome, DesignMetrics, DistKind, DistributionData, FlowConfig,
    FlowError, LibrarySpec, McValidation, SweepPoint, SweepSpec,
};
use statleak_obs as obs;
use statleak_obs::{TraceContext, TraceId};

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: Json,
    /// What to do.
    pub op: Op,
    /// Per-request queue deadline in milliseconds (overrides the server
    /// default). The clock starts when the request is accepted.
    pub deadline_ms: Option<u64>,
    /// Inherited trace context from the optional `trace` field
    /// (`{"trace_id": <hex>, "parent_span_id": <int>}`). When absent the
    /// server originates a fresh context per analysis request.
    pub trace: Option<TraceContext>,
}

/// The operation a request names.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Op {
    /// Liveness check; answered inline, never waits for a turn.
    Ping,
    /// Cache/server counters; answered inline, never waits for a turn.
    Stats,
    /// Begin graceful drain; answered inline.
    Shutdown,
    /// JSON snapshot of the observability registry; answered inline.
    Metrics,
    /// Prometheus text exposition of the registry; answered inline.
    MetricsText,
    /// Table T2 three-way comparison.
    Comparison(FlowConfig),
    /// Parameter sweep over one axis.
    Sweep(FlowConfig, SweepSpec),
    /// Yield-vs-clock curves over a `T/Dmin` grid.
    YieldCurves(FlowConfig, Vec<f64>),
    /// Analytical-vs-MC validation (T4).
    McValidation(FlowConfig),
    /// Leakage distribution data (F1), histogrammed server-side.
    Distribution(FlowConfig, usize),
    /// Modeling ablations (A1).
    Ablation(FlowConfig),
    /// Several analysis ops over one shared session, run one after another
    /// and answered as a single aggregated response.
    Batch(FlowConfig, Vec<Op>),
    /// Consistent-hash routing query: which fleet node owns this
    /// session? Answered inline, never waits for a turn.
    Route(FlowConfig, RouteSpec),
}

/// Ring parameters carried by a `route` request (both optional when the
/// server was started with its own `--ring`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RouteSpec {
    /// Explicit ring override: fleet node names.
    pub ring: Option<Vec<String>>,
    /// Virtual points per node (default [`crate::ring::DEFAULT_REPLICAS`]).
    pub replicas: Option<usize>,
}

impl Op {
    /// The stable wire name of the op.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Ping => "ping",
            Op::Stats => "stats",
            Op::Shutdown => "shutdown",
            Op::Metrics => "metrics",
            Op::MetricsText => "metrics_text",
            Op::Comparison(_) => "comparison",
            Op::Sweep(..) => "sweep",
            Op::YieldCurves(..) => "yield_curves",
            Op::McValidation(_) => "mc_validation",
            Op::Distribution(..) => "distribution",
            Op::Ablation(_) => "ablation",
            Op::Batch(..) => "batch",
            Op::Route(..) => "route",
        }
    }

    /// Whether the op is answered inline by the connection handler
    /// (control ops) rather than after a turn at the admission gate.
    /// `route` is control: it only hashes, so it stays responsive under
    /// load.
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Op::Ping | Op::Stats | Op::Shutdown | Op::Metrics | Op::MetricsText | Op::Route(..)
        )
    }
}

/// Deterministic content hash of an op's name and parameters — the
/// second half of the on-disk store key (the first is
/// [`crate::session_key`]). Stable across processes and platforms, like
/// every [`ContentHasher`] digest.
pub fn op_hash(op: &Op) -> u64 {
    let mut h = ContentHasher::new();
    hash_op(&mut h, op);
    h.finish()
}

fn hash_op(h: &mut ContentHasher, op: &Op) {
    h.str(op.name());
    match op {
        Op::Sweep(_, spec) => {
            h.str(spec.axis());
            for &x in spec.values() {
                h.f64(x);
            }
        }
        Op::YieldCurves(_, grid) => {
            for &x in grid {
                h.f64(x);
            }
        }
        Op::Distribution(_, bins) => {
            h.usize(*bins);
        }
        Op::Batch(_, items) => {
            h.usize(items.len());
            for item in items {
                hash_op(h, item);
            }
        }
        // Name-only ops: the config is hashed by the session key.
        Op::Comparison(_)
        | Op::McValidation(_)
        | Op::Ablation(_)
        | Op::Route(..)
        | Op::Ping
        | Op::Stats
        | Op::Shutdown
        | Op::Metrics
        | Op::MetricsText => {}
    }
}

/// A protocol-level failure: stable class + message (+ echoed id).
#[derive(Debug, Clone, PartialEq)]
pub struct ProtoError {
    /// Stable machine-readable class (see the module table).
    pub class: &'static str,
    /// Human-readable detail.
    pub message: String,
}

impl ProtoError {
    /// An error of `class` (see the module table) saying `message`.
    pub fn new(class: &'static str, message: impl Into<String>) -> Self {
        Self {
            class,
            message: message.into(),
        }
    }

    fn usage(message: impl Into<String>) -> Self {
        Self::new("usage", message)
    }
}

impl From<FlowError> for ProtoError {
    /// Maps a flow failure onto its protocol class.
    fn from(e: FlowError) -> Self {
        Self::new(e.class(), e.to_string())
    }
}

fn field_f64(obj: &Json, key: &str) -> Result<Option<f64>, ProtoError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .map(Some)
            .ok_or_else(|| ProtoError::usage(format!("`{key}` must be a number"))),
    }
}

fn field_usize(obj: &Json, key: &str) -> Result<Option<usize>, ProtoError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_usize()
            .map(Some)
            .ok_or_else(|| ProtoError::usage(format!("`{key}` must be a non-negative integer"))),
    }
}

fn field_bool(obj: &Json, key: &str) -> Result<Option<bool>, ProtoError> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_bool()
            .map(Some)
            .ok_or_else(|| ProtoError::usage(format!("`{key}` must be a boolean"))),
    }
}

fn field_values(obj: &Json, key: &str) -> Result<Vec<f64>, ProtoError> {
    let arr = obj
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtoError::usage(format!("`{key}` must be an array of numbers")))?;
    if arr.is_empty() || arr.len() > 256 {
        return Err(ProtoError::usage(format!(
            "`{key}` must hold 1..=256 numbers, got {}",
            arr.len()
        )));
    }
    arr.iter()
        .map(|v| {
            v.as_f64()
                .ok_or_else(|| ProtoError::usage(format!("`{key}` must be an array of numbers")))
        })
        .collect()
}

/// Builds the [`FlowConfig`] from a request object's analysis fields.
fn parse_config(obj: &Json) -> Result<FlowConfig, ProtoError> {
    let benchmark = obj
        .get("benchmark")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::usage("missing string field `benchmark`"))?;
    let mut builder = FlowConfig::builder(benchmark);
    if let Some(x) = field_f64(obj, "slack_factor")? {
        builder = builder.slack_factor(x);
    }
    if let Some(x) = field_f64(obj, "eta")? {
        builder = builder.eta(x);
    }
    if let Some(x) = field_f64(obj, "sigma_l")? {
        builder = builder.sigma_l(x);
    }
    if let Some(x) = field_usize(obj, "mc_samples")? {
        builder = builder.mc_samples(x);
    }
    match obj.get("mc_sampler") {
        None | Some(Json::Null) => {}
        Some(v) => {
            let spec = v
                .as_str()
                .ok_or_else(|| ProtoError::usage("`mc_sampler` must be a string"))?;
            let scheme = spec
                .parse()
                .map_err(|e| ProtoError::usage(format!("`mc_sampler`: {e}")))?;
            builder = builder.mc_sampler(scheme);
        }
    }
    if let Some(x) = field_usize(obj, "mc_seed")? {
        builder = builder.mc_seed(x as u64);
    }
    if let Some(x) = field_bool(obj, "wire_loads")? {
        builder = builder.wire_loads(x);
    }
    match obj.get("library") {
        None | Some(Json::Null) => {}
        Some(v) => {
            let spec = v
                .as_str()
                .ok_or_else(|| ProtoError::usage("`library` must be a string"))?;
            let spec = if spec.eq_ignore_ascii_case("builtin") {
                LibrarySpec::Builtin
            } else {
                LibrarySpec::parse(spec).map_err(|e| ProtoError::usage(format!("`library` {e}")))?
            };
            builder = builder.library(spec);
        }
    }
    builder
        .build()
        .map_err(|e| ProtoError::new("config", e.to_string()))
}

/// Upper bound on sub-requests in one `batch` op.
pub const MAX_BATCH_ITEMS: usize = 64;

/// The op names that run against a session behind the admission gate
/// (batch items must be one of these).
const ANALYSIS_OPS: &[&str] = &[
    "comparison",
    "sweep",
    "yield_curves",
    "mc_validation",
    "distribution",
    "ablation",
];

/// Parses the op-specific parameters of one analysis op. `obj` is the
/// request object for a top-level op, or the item object for a batch
/// sub-request (items inherit the batch's config).
fn parse_analysis_op(name: &str, obj: &Json, cfg: FlowConfig) -> Result<Op, ProtoError> {
    match name {
        "comparison" => Ok(Op::Comparison(cfg)),
        "sweep" => {
            let values = field_values(obj, "values")?;
            let axis = obj
                .get("axis")
                .and_then(Json::as_str)
                .unwrap_or("slack_factor");
            let spec = match axis {
                "slack_factor" => SweepSpec::SlackFactor(values),
                "sigma_l" => SweepSpec::SigmaL(values),
                other => {
                    return Err(ProtoError::usage(format!(
                        "unknown sweep axis `{other}` (expected `slack_factor` or `sigma_l`)"
                    )))
                }
            };
            Ok(Op::Sweep(cfg, spec))
        }
        "yield_curves" => Ok(Op::YieldCurves(cfg, field_values(obj, "grid")?)),
        "mc_validation" => Ok(Op::McValidation(cfg)),
        "distribution" => {
            let bins = field_usize(obj, "bins")?.unwrap_or(30);
            if bins == 0 || bins > 1024 {
                return Err(ProtoError::usage(format!(
                    "`bins` must be in 1..=1024, got {bins}"
                )));
            }
            Ok(Op::Distribution(cfg, bins))
        }
        "ablation" => Ok(Op::Ablation(cfg)),
        other => Err(ProtoError::usage(format!(
            "op `{other}` is not a batchable analysis op"
        ))),
    }
}

/// Parses one request line.
///
/// # Errors
///
/// Returns the typed [`ProtoError`] plus the request id if one could be
/// extracted (so the error response can still be correlated).
pub fn parse_request(line: &str) -> Result<Request, (ProtoError, Json)> {
    let obj = Json::parse(line).map_err(|e| (ProtoError::usage(e.to_string()), Json::Null))?;
    let id = obj.get("id").cloned().unwrap_or(Json::Null);
    let fail = |e: ProtoError| (e, id.clone());
    let op_name = obj
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| fail(ProtoError::usage("missing string field `op`")))?;
    let op = match op_name {
        "ping" => Op::Ping,
        "stats" => Op::Stats,
        "shutdown" => Op::Shutdown,
        "metrics" => Op::Metrics,
        "metrics_text" => Op::MetricsText,
        "batch" => {
            let cfg = parse_config(&obj).map_err(fail)?;
            let items = obj
                .get("items")
                .and_then(Json::as_arr)
                .ok_or_else(|| fail(ProtoError::usage("`batch` requires an `items` array")))?;
            if items.is_empty() || items.len() > MAX_BATCH_ITEMS {
                return Err(fail(ProtoError::usage(format!(
                    "`items` must hold 1..={MAX_BATCH_ITEMS} sub-requests, got {}",
                    items.len()
                ))));
            }
            let mut ops = Vec::with_capacity(items.len());
            for (i, item) in items.iter().enumerate() {
                let item_err =
                    |e: ProtoError| ProtoError::usage(format!("items[{i}]: {}", e.message));
                let name = item.get("op").and_then(Json::as_str).ok_or_else(|| {
                    fail(ProtoError::usage(format!(
                        "items[{i}]: missing string field `op`"
                    )))
                })?;
                ops.push(
                    parse_analysis_op(name, item, cfg.clone()).map_err(|e| fail(item_err(e)))?,
                );
            }
            Op::Batch(cfg, ops)
        }
        "route" => {
            let cfg = parse_config(&obj).map_err(fail)?;
            let ring = match obj.get("ring") {
                None | Some(Json::Null) => None,
                Some(v) => {
                    let arr = v.as_arr().ok_or_else(|| {
                        fail(ProtoError::usage("`ring` must be an array of node names"))
                    })?;
                    if arr.is_empty() || arr.len() > 256 {
                        return Err(fail(ProtoError::usage(format!(
                            "`ring` must hold 1..=256 node names, got {}",
                            arr.len()
                        ))));
                    }
                    let mut nodes = Vec::with_capacity(arr.len());
                    for n in arr {
                        let s = n.as_str().ok_or_else(|| {
                            fail(ProtoError::usage("`ring` must be an array of node names"))
                        })?;
                        nodes.push(s.to_string());
                    }
                    Some(nodes)
                }
            };
            let replicas = field_usize(&obj, "replicas").map_err(fail)?;
            if let Some(r) = replicas {
                if r == 0 || r > 1024 {
                    return Err(fail(ProtoError::usage(format!(
                        "`replicas` must be in 1..=1024, got {r}"
                    ))));
                }
            }
            Op::Route(cfg, RouteSpec { ring, replicas })
        }
        name if ANALYSIS_OPS.contains(&name) => {
            let cfg = parse_config(&obj).map_err(fail)?;
            parse_analysis_op(name, &obj, cfg).map_err(fail)?
        }
        other => {
            return Err(fail(ProtoError::usage(format!(
                "unknown op `{other}` (see docs/SERVE_PROTOCOL.md)"
            ))))
        }
    };
    let deadline_ms = match obj.get("deadline_ms") {
        None | Some(Json::Null) => None,
        Some(v) => Some(v.as_usize().map(|x| x as u64).ok_or_else(|| {
            fail(ProtoError::usage(
                "`deadline_ms` must be a non-negative integer",
            ))
        })?),
    };
    let trace = parse_trace(&obj).map_err(fail)?;
    Ok(Request {
        id,
        op,
        deadline_ms,
        trace,
    })
}

/// Parses the optional `trace` field of a request object:
/// `{"trace_id": "<1-32 hex digits, nonzero>", "parent_span_id": <int>}`.
fn parse_trace(obj: &Json) -> Result<Option<TraceContext>, ProtoError> {
    let t = match obj.get("trace") {
        None | Some(Json::Null) => return Ok(None),
        Some(t @ Json::Obj(_)) => t,
        Some(_) => return Err(ProtoError::usage("`trace` must be an object")),
    };
    let hex = t
        .get("trace_id")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::usage("`trace` requires a string field `trace_id`"))?;
    let trace_id = TraceId::parse(hex).ok_or_else(|| {
        ProtoError::usage(format!(
            "`trace_id` must be 1-32 hex digits and nonzero, got {hex:?}"
        ))
    })?;
    let parent_span = match t.get("parent_span_id") {
        None | Some(Json::Null) => 0,
        Some(v) => v
            .as_usize()
            .map(|x| x as u64)
            .ok_or_else(|| ProtoError::usage("`parent_span_id` must be a non-negative integer"))?,
    };
    Ok(Some(TraceContext {
        trace_id,
        parent_span,
    }))
}

/// The response extra announcing the trace id a request ran under; appended
/// to every analysis response (and redirect) so clients can join their logs
/// with the server's access log, spans, and exemplars.
pub fn trace_extra(ctx: &TraceContext) -> (&'static str, Json) {
    ("trace_id", Json::str(ctx.trace_id.to_hex()))
}

/// Encodes a success response line (no trailing newline).
pub fn ok_response(id: &Json, op: &str, data: Json) -> String {
    ok_response_with(id, op, data, Vec::new())
}

/// Encodes a success response line with extra top-level fields (e.g.
/// `deadline_exceeded` on a late-but-served response).
pub fn ok_response_with(id: &Json, op: &str, data: Json, extra: Vec<(&str, Json)>) -> String {
    let mut pairs = vec![
        ("id", id.clone()),
        ("ok", Json::Bool(true)),
        ("op", Json::str(op)),
        ("data", data),
    ];
    pairs.extend(extra);
    Json::obj(pairs).to_string()
}

/// Encodes an error response line (no trailing newline).
pub fn err_response(id: &Json, error: &ProtoError) -> String {
    err_response_with(id, error, Vec::new())
}

/// Encodes an error response line with extra top-level fields (e.g.
/// `shard_of` on a `wrong-shard` rejection).
pub fn err_response_with(id: &Json, error: &ProtoError, extra: Vec<(&str, Json)>) -> String {
    let mut pairs = vec![
        ("id", id.clone()),
        ("ok", Json::Bool(false)),
        (
            "error",
            Json::obj(vec![
                ("class", Json::str(error.class)),
                ("message", Json::str(error.message.clone())),
            ]),
        ),
    ];
    pairs.extend(extra);
    Json::obj(pairs).to_string()
}

fn metrics_json(m: &DesignMetrics) -> Json {
    Json::obj(vec![
        ("leakage_nominal_w", Json::Num(m.leakage_nominal)),
        ("leakage_mean_w", Json::Num(m.leakage_mean)),
        ("leakage_p95_w", Json::Num(m.leakage_p95)),
        ("timing_yield", Json::Num(m.timing_yield)),
        ("mc_yield", m.mc_yield.map_or(Json::Null, Json::Num)),
        (
            "mc_yield_ci",
            m.mc_yield_ci.map_or(Json::Null, |ci| {
                Json::obj(vec![("lo", Json::Num(ci.lo)), ("hi", Json::Num(ci.hi))])
            }),
        ),
        (
            "mc_leakage_p95_w",
            m.mc_leakage_p95.map_or(Json::Null, Json::Num),
        ),
        ("width", Json::Num(m.width)),
        ("high_vth", Json::Num(m.high_vth as f64)),
        ("runtime_s", Json::Num(m.runtime_s)),
    ])
}

/// Encodes a [`ComparisonOutcome`].
pub fn comparison_json(o: &ComparisonOutcome) -> Json {
    Json::obj(vec![
        ("benchmark", Json::str(o.benchmark.clone())),
        ("dmin_ps", Json::Num(o.dmin)),
        ("t_clk_ps", Json::Num(o.t_clk)),
        ("baseline", metrics_json(&o.baseline)),
        ("deterministic", metrics_json(&o.deterministic)),
        ("statistical", metrics_json(&o.statistical)),
        ("det_guard_band", Json::Num(o.det_guard_band)),
        ("stat_extra_saving", Json::Num(o.stat_extra_saving)),
    ])
}

/// Encodes a sweep result.
pub fn sweep_json(axis: &str, points: &[SweepPoint]) -> Json {
    Json::obj(vec![
        ("axis", Json::str(axis)),
        (
            "points",
            Json::Arr(
                points
                    .iter()
                    .map(|p| {
                        Json::obj(vec![
                            ("x", Json::Num(p.x)),
                            ("det_p95_w", Json::Num(p.det_p95)),
                            ("stat_p95_w", Json::Num(p.stat_p95)),
                            ("det_yield", Json::Num(p.det_yield)),
                            ("stat_yield", Json::Num(p.stat_yield)),
                            ("extra_saving", Json::Num(p.extra_saving)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Encodes yield-vs-clock curve rows.
pub fn curves_json(rows: &[(f64, f64, f64, f64)]) -> Json {
    Json::obj(vec![(
        "rows",
        Json::Arr(
            rows.iter()
                .map(|&(t, b, d, s)| {
                    Json::obj(vec![
                        ("t_over_dmin", Json::Num(t)),
                        ("baseline", Json::Num(b)),
                        ("deterministic", Json::Num(d)),
                        ("statistical", Json::Num(s)),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Encodes a [`McValidation`].
pub fn validation_json(v: &McValidation) -> Json {
    Json::obj(vec![
        ("benchmark", Json::str(v.benchmark.clone())),
        ("ssta_mean_ps", Json::Num(v.ssta_mean)),
        ("mc_mean_ps", Json::Num(v.mc_mean)),
        ("ssta_sigma_ps", Json::Num(v.ssta_sigma)),
        ("mc_sigma_ps", Json::Num(v.mc_sigma)),
        ("ssta_yield", Json::Num(v.ssta_yield)),
        ("mc_yield", Json::Num(v.mc_yield)),
        (
            "mc_yield_ci",
            Json::obj(vec![
                ("lo", Json::Num(v.mc_yield_ci.lo)),
                ("hi", Json::Num(v.mc_yield_ci.hi)),
            ]),
        ),
        ("leak_mean_w", Json::Num(v.leak_mean)),
        ("mc_leak_mean_w", Json::Num(v.mc_leak_mean)),
        ("leak_p95_w", Json::Num(v.leak_p95)),
        ("mc_leak_p95_w", Json::Num(v.mc_leak_p95)),
    ])
}

fn histogram_json(d: &DistributionData, which: DistKind, bins: usize) -> Json {
    let h = d.histogram(which, bins);
    Json::obj(vec![
        (
            "centers",
            Json::nums(
                &(0..h.counts().len())
                    .map(|i| h.bin_center(i))
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "counts",
            Json::Arr(h.counts().iter().map(|&c| Json::Num(c as f64)).collect()),
        ),
        ("total", Json::Num(h.total() as f64)),
        ("dropped", Json::Num(h.dropped() as f64)),
    ])
}

/// Encodes a [`DistributionData`] with server-side histograms.
pub fn distribution_json(d: &DistributionData, bins: usize) -> Json {
    let analytic = |l: &statleak_stats::LogNormal| {
        Json::obj(vec![
            ("mean_w", Json::Num(l.mean())),
            ("p95_w", Json::Num(l.quantile(0.95))),
        ])
    };
    Json::obj(vec![
        ("bins", Json::Num(bins as f64)),
        (
            "baseline",
            Json::obj(vec![
                ("histogram", histogram_json(d, DistKind::Baseline, bins)),
                ("analytic", analytic(&d.baseline_analytic)),
            ]),
        ),
        (
            "optimized",
            Json::obj(vec![
                ("histogram", histogram_json(d, DistKind::Optimized, bins)),
                ("analytic", analytic(&d.optimized_analytic)),
            ]),
        ),
    ])
}

/// Encodes ablation rows.
pub fn ablation_json(rows: &[AblationRow]) -> Json {
    Json::obj(vec![(
        "rows",
        Json::Arr(
            rows.iter()
                .map(|r| {
                    Json::obj(vec![
                        ("variant", Json::str(r.variant.clone())),
                        ("delay_sigma_ps", Json::Num(r.delay_sigma)),
                        ("leak_p95_w", Json::Num(r.leak_p95)),
                        ("leak_cv", Json::Num(r.leak_cv)),
                    ])
                })
                .collect(),
        ),
    )])
}

/// Encodes cache stats (the `stats` op merges these with server counters).
pub fn cache_stats_json(s: &CacheStats) -> Json {
    Json::obj(vec![
        ("hits", Json::Num(s.hits as f64)),
        ("misses", Json::Num(s.misses as f64)),
        ("evictions", Json::Num(s.evictions as f64)),
        ("entries", Json::Num(s.entries as f64)),
        ("capacity", Json::Num(s.capacity as f64)),
        ("memo_hits", Json::Num(s.memo_hits as f64)),
    ])
}

/// Executes an analysis op against a cached session and encodes the data
/// payload. Control ops (`ping`/`stats`/`shutdown`) are not handled here.
///
/// # Errors
///
/// Returns the typed [`ProtoError`] for flow failures.
pub fn execute(session: &Session, op: &Op) -> Result<Json, ProtoError> {
    let flow = |r: Result<Json, FlowError>| r.map_err(ProtoError::from);
    match op {
        Op::Comparison(_) => flow(session.run_comparison().map(|o| comparison_json(&o))),
        Op::Sweep(_, spec) => flow(session.sweep(spec).map(|p| sweep_json(spec.axis(), &p))),
        Op::YieldCurves(_, grid) => flow(session.yield_curves(grid).map(|r| curves_json(&r))),
        Op::McValidation(_) => flow(session.mc_validation().map(|v| validation_json(&v))),
        Op::Distribution(_, bins) => {
            flow(session.distribution().map(|d| distribution_json(&d, *bins)))
        }
        Op::Ablation(_) => flow(session.ablation().map(|r| ablation_json(&r))),
        // The server runs a batch item by item, not as one unit.
        Op::Batch(..)
        | Op::Ping
        | Op::Stats
        | Op::Shutdown
        | Op::Metrics
        | Op::MetricsText
        | Op::Route(..) => Err(ProtoError::new(
            "internal",
            format!("op `{}` cannot execute against a single session", op.name()),
        )),
    }
}

/// The config an analysis op targets (`None` for control ops other than
/// `route`, whose config is only hashed, never prepared).
pub fn op_config(op: &Op) -> Option<&FlowConfig> {
    match op {
        Op::Comparison(cfg)
        | Op::Sweep(cfg, _)
        | Op::YieldCurves(cfg, _)
        | Op::McValidation(cfg)
        | Op::Distribution(cfg, _)
        | Op::Ablation(cfg)
        | Op::Batch(cfg, _)
        | Op::Route(cfg, _) => Some(cfg),
        Op::Ping | Op::Stats | Op::Shutdown | Op::Metrics | Op::MetricsText => None,
    }
}

/// Encodes store traffic counters plus the on-disk entry count (the
/// `stats` op's `store` section).
pub fn store_stats_json(s: &StoreStats, entries: usize) -> Json {
    Json::obj(vec![
        ("hits", Json::Num(s.hits as f64)),
        ("misses", Json::Num(s.misses as f64)),
        ("stores", Json::Num(s.stores as f64)),
        ("quarantined", Json::Num(s.quarantined as f64)),
        ("write_errors", Json::Num(s.write_errors as f64)),
        ("entries", Json::Num(entries as f64)),
    ])
}

/// Encodes an observability-registry snapshot for the `metrics` op.
pub fn obs_metrics_json(snapshot: &obs::metrics::MetricsSnapshot) -> Json {
    Json::obj(vec![
        (
            "counters",
            Json::Obj(
                snapshot
                    .counters
                    .iter()
                    .map(|&(name, v)| (name.to_string(), Json::Num(v as f64)))
                    .collect(),
            ),
        ),
        (
            "gauges",
            Json::Obj(
                snapshot
                    .gauges
                    .iter()
                    .map(|&(name, v)| (name.to_string(), Json::Num(v)))
                    .collect(),
            ),
        ),
        (
            "histograms",
            Json::Obj(
                snapshot
                    .histograms
                    .iter()
                    .map(|h| {
                        (
                            h.name.clone(),
                            Json::obj(vec![
                                ("count", Json::Num(h.count as f64)),
                                ("sum", Json::Num(h.sum as f64)),
                                ("mean", Json::Num(h.mean)),
                                ("p50", Json::Num(h.p50)),
                                ("p95", Json::Num(h.p95)),
                                ("p99", Json::Num(h.p99)),
                                // Mergeable representation: sparse
                                // power-of-two (bucket index, count)
                                // pairs, losslessly addable across nodes.
                                (
                                    "buckets",
                                    Json::Arr(
                                        h.buckets
                                            .iter()
                                            .map(|&(i, c)| {
                                                Json::Arr(vec![
                                                    Json::Num(i as f64),
                                                    Json::Num(c as f64),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                                (
                                    "exemplars",
                                    Json::Arr(
                                        h.exemplars
                                            .iter()
                                            .map(|e| {
                                                Json::obj(vec![
                                                    ("value", Json::Num(e.value as f64)),
                                                    ("trace_id", Json::str(e.trace_id.to_hex())),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Decodes one histogram object produced by [`obs_metrics_json`] back into
/// its mergeable snapshot form — the client half of fleet aggregation
/// (`statleak top` merges these across nodes).
///
/// # Errors
///
/// Returns a message naming the malformed field.
pub fn parse_histogram_json(name: &str, v: &Json) -> Result<obs::HistogramSnapshot, String> {
    let buckets_json = v
        .get("buckets")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("histogram {name}: missing `buckets` array"))?;
    let mut buckets = Vec::with_capacity(buckets_json.len());
    for pair in buckets_json {
        let pair = pair
            .as_arr()
            .filter(|p| p.len() == 2)
            .ok_or_else(|| format!("histogram {name}: bucket entries must be [index, count]"))?;
        let i = pair[0]
            .as_usize()
            .ok_or_else(|| format!("histogram {name}: bucket index must be an integer"))?;
        let c = pair[1]
            .as_f64()
            .filter(|c| *c >= 0.0)
            .ok_or_else(|| format!("histogram {name}: bucket count must be a number"))?;
        buckets.push((i, c as u64));
    }
    let sum = v
        .get("sum")
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("histogram {name}: missing `sum`"))? as u64;
    let mut exemplars = Vec::new();
    if let Some(arr) = v.get("exemplars").and_then(Json::as_arr) {
        for e in arr {
            let value = e
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("histogram {name}: exemplar missing `value`"))?;
            let trace_id = e
                .get("trace_id")
                .and_then(Json::as_str)
                .and_then(TraceId::parse)
                .ok_or_else(|| format!("histogram {name}: exemplar missing `trace_id`"))?;
            exemplars.push(obs::Exemplar {
                value: value as u64,
                trace_id,
            });
        }
    }
    Ok(obs::HistogramSnapshot::from_parts(
        name.to_string(),
        buckets,
        sum,
        exemplars,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_comparison_request() {
        let r = parse_request(
            r#"{"id":7,"op":"comparison","benchmark":"c432","slack_factor":1.3,"mc_samples":0}"#,
        )
        .unwrap();
        assert_eq!(r.id, Json::Num(7.0));
        assert_eq!(r.deadline_ms, None);
        let Op::Comparison(cfg) = &r.op else {
            panic!("wrong op: {:?}", r.op)
        };
        assert_eq!(cfg.benchmark, "c432");
        assert_eq!(cfg.slack_factor, 1.3);
        assert_eq!(cfg.mc_samples, 0);
        assert_eq!(cfg.eta, 0.95);
    }

    #[test]
    fn parses_mc_sampler_and_seed() {
        let r = parse_request(
            r#"{"op":"mc_validation","benchmark":"c432","mc_sampler":"sobol+cv","mc_seed":42,"mc_samples":500}"#,
        )
        .unwrap();
        let Op::McValidation(cfg) = &r.op else {
            panic!("wrong op: {:?}", r.op)
        };
        assert_eq!(cfg.mc_sampling.to_string(), "sobol+cv");
        assert_eq!(cfg.mc_seed, 42);
        // Unknown sampler tokens fail with a usage-class error, and the
        // field must be a string.
        let bad = parse_request(r#"{"op":"mc_validation","benchmark":"c432","mc_sampler":"qmc"}"#);
        assert_eq!(bad.unwrap_err().0.class, "usage");
        let bad = parse_request(r#"{"op":"mc_validation","benchmark":"c432","mc_sampler":3}"#);
        assert_eq!(bad.unwrap_err().0.class, "usage");
    }

    #[test]
    fn parses_sweep_axes() {
        let r = parse_request(
            r#"{"op":"sweep","benchmark":"c17","axis":"sigma_l","values":[0.05,0.1],"mc_samples":0}"#,
        )
        .unwrap();
        assert!(matches!(r.op, Op::Sweep(_, SweepSpec::SigmaL(ref v)) if v == &[0.05, 0.1]));
        let bad = parse_request(r#"{"op":"sweep","benchmark":"c17","axis":"nope","values":[1]}"#);
        assert_eq!(bad.unwrap_err().0.class, "usage");
    }

    #[test]
    fn rejects_bad_requests_with_stable_classes() {
        assert_eq!(parse_request("not json").unwrap_err().0.class, "usage");
        assert_eq!(
            parse_request(r#"{"op":"comparison"}"#).unwrap_err().0.class,
            "usage"
        );
        assert_eq!(
            parse_request(r#"{"op":"flyaway","benchmark":"c17"}"#)
                .unwrap_err()
                .0
                .class,
            "usage"
        );
        let (e, id) =
            parse_request(r#"{"id":"x","op":"comparison","benchmark":"c17","slack_factor":0.5}"#)
                .unwrap_err();
        assert_eq!(e.class, "config");
        assert_eq!(id, Json::str("x"));
    }

    #[test]
    fn parses_batch_requests_with_shared_config() {
        let r = parse_request(
            r#"{"id":1,"op":"batch","benchmark":"c17","mc_samples":0,"slack_factor":1.3,
                "items":[{"op":"comparison"},
                         {"op":"sweep","axis":"sigma_l","values":[0.05,0.1]},
                         {"op":"distribution","bins":12}]}"#,
        )
        .unwrap();
        let Op::Batch(cfg, items) = &r.op else {
            panic!("wrong op: {:?}", r.op)
        };
        assert_eq!(cfg.benchmark, "c17");
        assert_eq!(items.len(), 3);
        // Items inherit the batch-level config wholesale.
        let Op::Sweep(item_cfg, SweepSpec::SigmaL(v)) = &items[1] else {
            panic!("wrong item: {:?}", items[1])
        };
        assert_eq!(item_cfg.slack_factor, 1.3);
        assert_eq!(v, &[0.05, 0.1]);
        assert!(matches!(items[2], Op::Distribution(_, 12)));

        // Bad shapes are usage errors naming the offending item.
        for bad in [
            r#"{"op":"batch","benchmark":"c17"}"#,
            r#"{"op":"batch","benchmark":"c17","items":[]}"#,
            r#"{"op":"batch","benchmark":"c17","items":[{"op":"ping"}]}"#,
            r#"{"op":"batch","benchmark":"c17","items":[{"op":"batch","items":[]}]}"#,
            r#"{"op":"batch","benchmark":"c17","items":[{"nop":1}]}"#,
        ] {
            let (e, _) = parse_request(bad).unwrap_err();
            assert_eq!(e.class, "usage", "{bad} -> {e:?}");
        }
        let (e, _) = parse_request(
            r#"{"op":"batch","benchmark":"c17","items":[{"op":"comparison"},{"op":"nope"}]}"#,
        )
        .unwrap_err();
        assert!(e.message.contains("items[1]"), "{e:?}");
    }

    #[test]
    fn parses_route_requests() {
        let r = parse_request(
            r#"{"op":"route","benchmark":"c432","ring":["a:7878","b:7878"],"replicas":32}"#,
        )
        .unwrap();
        let Op::Route(cfg, spec) = &r.op else {
            panic!("wrong op: {:?}", r.op)
        };
        assert_eq!(cfg.benchmark, "c432");
        assert_eq!(spec.ring.as_deref().map(<[String]>::len), Some(2));
        assert_eq!(spec.replicas, Some(32));
        assert!(r.op.is_control(), "route answers inline");

        // Ring omitted entirely is fine (server-side ring applies).
        let r = parse_request(r#"{"op":"route","benchmark":"c432"}"#).unwrap();
        assert!(matches!(
            &r.op,
            Op::Route(_, spec) if spec.ring.is_none() && spec.replicas.is_none()
        ));

        for bad in [
            r#"{"op":"route","benchmark":"c432","ring":[]}"#,
            r#"{"op":"route","benchmark":"c432","ring":[3]}"#,
            r#"{"op":"route","benchmark":"c432","ring":"a"}"#,
            r#"{"op":"route","benchmark":"c432","ring":["a"],"replicas":0}"#,
        ] {
            assert_eq!(parse_request(bad).unwrap_err().0.class, "usage", "{bad}");
        }
    }

    #[test]
    fn op_hash_separates_params_but_not_configs() {
        let op = |line: &str| parse_request(line).unwrap().op;
        let a = op(r#"{"op":"sweep","benchmark":"c17","values":[1.1,1.2]}"#);
        let b = op(r#"{"op":"sweep","benchmark":"c17","values":[1.1,1.3]}"#);
        let c = op(r#"{"op":"sweep","benchmark":"c880","values":[1.1,1.2]}"#);
        assert_ne!(op_hash(&a), op_hash(&b), "values must separate");
        // The config is keyed by the session hash, not the op hash.
        assert_eq!(op_hash(&a), op_hash(&c));
        let d = op(r#"{"op":"comparison","benchmark":"c17"}"#);
        let e = op(r#"{"op":"ablation","benchmark":"c17"}"#);
        assert_ne!(op_hash(&d), op_hash(&e), "op name must separate");
        assert_eq!(op_hash(&d), op_hash(&d));
    }

    #[test]
    fn response_lines_are_single_line_json() {
        let ok = ok_response(
            &Json::Num(1.0),
            "ping",
            Json::obj(vec![("pong", Json::Bool(true))]),
        );
        assert_eq!(ok, r#"{"id":1,"ok":true,"op":"ping","data":{"pong":true}}"#);
        assert!(!ok.contains('\n'));
        let err = err_response(&Json::Null, &ProtoError::usage("nope"));
        assert_eq!(
            err,
            r#"{"id":null,"ok":false,"error":{"class":"usage","message":"nope"}}"#
        );
    }

    #[test]
    fn parses_trace_context() {
        let r = parse_request(
            r#"{"op":"ping","trace":{"trace_id":"00000000000000000000000000c0ffee","parent_span_id":9}}"#,
        )
        .unwrap();
        let ctx = r.trace.unwrap();
        assert_eq!(ctx.trace_id, TraceId(0xC0FFEE));
        assert_eq!(ctx.parent_span, 9);

        // parent_span_id is optional; short hex ids are accepted.
        let r = parse_request(r#"{"op":"ping","trace":{"trace_id":"c0ffee"}}"#).unwrap();
        assert_eq!(
            r.trace,
            Some(TraceContext {
                trace_id: TraceId(0xC0FFEE),
                parent_span: 0
            })
        );

        // Absent trace parses as None (the server then originates one).
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap().trace, None);

        for bad in [
            r#"{"op":"ping","trace":"c0ffee"}"#,
            r#"{"op":"ping","trace":{}}"#,
            r#"{"op":"ping","trace":{"trace_id":""}}"#,
            r#"{"op":"ping","trace":{"trace_id":"0"}}"#,
            r#"{"op":"ping","trace":{"trace_id":"zz"}}"#,
            r#"{"op":"ping","trace":{"trace_id":"ff","parent_span_id":-1}}"#,
        ] {
            assert_eq!(parse_request(bad).unwrap_err().0.class, "usage", "{bad}");
        }
    }

    #[test]
    fn histogram_json_round_trips_through_parse() {
        let registry = obs::Registry::new();
        let h = registry.histogram("rt_ns");
        let ctx = obs::TraceContext::new();
        {
            let _guard = obs::trace::enter(ctx);
            for v in [0u64, 3, 900, 1_000_000] {
                h.record_traced(v);
            }
        }
        let snapshot = registry.snapshot();
        let json = obs_metrics_json(&snapshot);
        let encoded = json.get("histograms").unwrap().get("rt_ns").unwrap();
        let parsed = parse_histogram_json("rt_ns", encoded).unwrap();
        assert_eq!(parsed, snapshot.histograms[0]);
        assert!(parsed.exemplars.iter().all(|e| e.trace_id == ctx.trace_id));
    }
}
