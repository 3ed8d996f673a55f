//! The `mhla serve` wire protocol: newline-delimited JSON.
//!
//! One request per line, one response line per request, both in the
//! compact rendering of the workspace's hand-rolled [`Json`] layer — no
//! serde, no framing beyond `\n`. Requests are objects dispatched on
//! their `"op"` field:
//!
//! ```json
//! {"op":"explore","program":{…mhla.program doc…},
//!  "platform":"three-level" | {…mhla.platform doc…},
//!  "objective":"cycles"|"energy"|{"energy_weight":1.0,"cycle_weight":0.1},
//!  "mode":"cold"|"improving",
//!  "axes":[{"layer":1,"capacities":[1024,2048]},…],
//!  "max_evals":100,"timeout_ms":5000}
//! {"op":"status"}
//! {"op":"shutdown"}
//! ```
//!
//! Everything after `"program"` is optional: the platform defaults to the
//! `three-level` preset, the axes to the standard grid of the platform's
//! depth, the objective to cycles, the mode to cold, the budget to
//! unlimited. [`Request::parse`] is the one parser of these inputs: `mhla
//! grid`, `sweep` and `submit` build this same line from their flags and
//! parse it too, and [`ExploreRequest::engine_inputs`] maps a parsed
//! request to the engine's inputs for a served miss and a local run
//! alike. Responses are
//!
//! ```json
//! {"ok":true,"cached":false,"result":{…}}
//! {"ok":false,"error":{"class":"invalid_program","message":"…"}}
//! ```
//!
//! with `"cached"` present on explore responses only. The `result` body
//! of an explore is rendered **once**, server-side, and cached verbatim —
//! a cache hit is byte-identical to the cold response body by
//! construction. Every failure, from a syntax error to a degenerate axis,
//! maps to a typed error class ([`error_class`]); an exhausted budget is
//! not a failure but a `"stopped"` status on the result. The server never
//! answers a request with a dropped connection or a panic.

use std::fmt;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mhla_core::explore::{
    default_axes, ExploreBudget, GridAxis, GridSweepRun, SearchMode, StopCause, SweepOptions,
    SweepStatus,
};
use mhla_core::{report, MhlaConfig, MhlaError, Objective};
use mhla_hierarchy::serdes::platform_from_value;
use mhla_hierarchy::{LayerId, Platform};
use mhla_ir::serdes::{field, opt_field, program_from_value, Json, SerdesError};
use mhla_ir::Program;

/// Hard cap on a request line, bytes. A line that exceeds it gets a
/// `bad_request` response and the connection is closed (the framing of a
/// half-read line cannot be recovered).
pub const MAX_REQUEST_BYTES: usize = 16 * 1024 * 1024;

/// A typed protocol failure: the `class` is the machine-readable error
/// taxonomy of the wire format, the `message` the human-readable detail.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ErrorBody {
    /// Machine-readable class, e.g. `"bad_request"`, `"invalid_program"`.
    pub class: String,
    /// Human-readable detail.
    pub message: String,
}

impl ErrorBody {
    /// A `bad_request` — the request line itself (syntax, shape, unknown
    /// op) rather than the exploration it asks for.
    pub fn bad_request(message: impl Into<String>) -> Self {
        ErrorBody {
            class: "bad_request".into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for ErrorBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.class, self.message)
    }
}

impl From<SerdesError> for ErrorBody {
    /// Serialization failures inside a request: the embedded program or
    /// platform document was bad. Routed through [`MhlaError`] so the
    /// class taxonomy matches the CLI's typed ingress exactly.
    fn from(e: SerdesError) -> Self {
        ErrorBody::from(MhlaError::from(e))
    }
}

impl From<MhlaError> for ErrorBody {
    fn from(e: MhlaError) -> Self {
        ErrorBody {
            class: error_class(&e).into(),
            message: e.to_string(),
        }
    }
}

/// The wire class of a typed engine error.
pub fn error_class(e: &MhlaError) -> &'static str {
    match e {
        MhlaError::InvalidProgram(_) => "invalid_program",
        MhlaError::InvalidOptions { .. } => "invalid_options",
        MhlaError::InvalidObjective { .. } => "invalid_objective",
        MhlaError::InfeasiblePoint { .. } => "infeasible_point",
        // `MhlaError` is non_exhaustive; future variants report generically.
        _ => "engine",
    }
}

/// A parsed request line.
pub enum Request {
    /// Run (or answer from cache) one grid exploration.
    Explore(Box<ExploreRequest>),
    /// Report cache/engine counters.
    Status,
    /// Begin graceful shutdown: stop accepting, cancel in-flight sweeps
    /// to certified partial frontiers, drain, exit.
    Shutdown,
}

/// The payload of an `explore` request; see the module docs for the
/// wire shape and the defaults.
pub struct ExploreRequest {
    /// The program to explore (already through the validating ingress).
    pub program: Program,
    /// The platform (preset name or inline document).
    pub platform: Platform,
    /// Explicit axes, or `None` for the platform's standard grid.
    pub axes: Option<Vec<GridAxis>>,
    /// The optimization objective.
    pub objective: Objective,
    /// The search mode.
    pub mode: SearchMode,
    /// Optional evaluation budget.
    pub max_evals: Option<usize>,
    /// Optional wall-clock budget, milliseconds from receipt.
    pub timeout_ms: Option<u64>,
}

impl ExploreRequest {
    /// How the engine runs this request — the one mapping behind a served
    /// miss and `mhla grid`/`sweep`: the configuration under the request's
    /// objective, its axes (else the standard grid of the platform's
    /// depth, [`default_axes`]) and sweep options in its mode, budgeted by
    /// `max_evals`, a deadline `timeout_ms` from now and `cancel`.
    pub fn engine_inputs(
        &self,
        cancel: Option<Arc<AtomicBool>>,
    ) -> (MhlaConfig, Vec<GridAxis>, SweepOptions) {
        let config = MhlaConfig {
            objective: self.objective,
            ..MhlaConfig::default()
        };
        let axes = self
            .axes
            .clone()
            .unwrap_or_else(|| default_axes(&self.platform));
        let budget = ExploreBudget {
            max_evals: self.max_evals,
            deadline: self
                .timeout_ms
                .map(|ms| Instant::now() + Duration::from_millis(ms)),
            cancel,
        };
        let opts = SweepOptions {
            mode: self.mode,
            budget,
            ..SweepOptions::default()
        };
        (config, axes, opts)
    }
}

impl Request {
    /// Parses one request line. Total: any input — malformed JSON, a
    /// corrupt embedded document, an unknown op — comes back as a typed
    /// [`ErrorBody`], never a panic.
    pub fn parse(line: &str) -> Result<Request, ErrorBody> {
        if line.len() > MAX_REQUEST_BYTES {
            return Err(ErrorBody::bad_request(format!(
                "request line of {} bytes exceeds the {MAX_REQUEST_BYTES}-byte cap",
                line.len()
            )));
        }
        let doc = Json::parse(line).map_err(|e| ErrorBody::bad_request(e.to_string()))?;
        let fields = doc
            .as_object("request")
            .map_err(|e| ErrorBody::bad_request(e.to_string()))?;
        let op = field(fields, "op", "request")
            .and_then(|v| v.as_str("request \"op\"").map(str::to_string))
            .map_err(|e| ErrorBody::bad_request(e.to_string()))?;
        match op.as_str() {
            "status" => Ok(Request::Status),
            "shutdown" => Ok(Request::Shutdown),
            "explore" => Ok(Request::Explore(Box::new(parse_explore(fields)?))),
            other => Err(ErrorBody::bad_request(format!(
                "unknown op \"{other}\" (expected explore, status or shutdown)"
            ))),
        }
    }
}

fn parse_explore(fields: &[(String, Json)]) -> Result<ExploreRequest, ErrorBody> {
    let program = program_from_value(
        field(fields, "program", "explore").map_err(|e| ErrorBody::bad_request(e.to_string()))?,
    )?;
    let platform = match opt_field(fields, "platform") {
        None => Platform::three_level_default(),
        Some(v) => platform_from_spec(v)?,
    };
    let axes = match opt_field(fields, "axes") {
        None => None,
        Some(v) => Some(parse_axes(v)?),
    };
    let objective = match opt_field(fields, "objective") {
        None => Objective::Cycles,
        Some(v) => parse_objective(v)?,
    };
    let mode = match opt_field(fields, "mode") {
        None => SearchMode::Cold,
        Some(v) => parse_mode(v)?,
    };
    let max_evals = match opt_field(fields, "max_evals") {
        None => None,
        Some(v) => {
            let n = v
                .as_u64("explore \"max_evals\"")
                .map_err(|e| ErrorBody::bad_request(e.to_string()))?;
            let n = usize::try_from(n)
                .map_err(|_| ErrorBody::bad_request("max_evals out of range".to_string()))?;
            if n == 0 {
                return Err(ErrorBody::bad_request("max_evals must be positive"));
            }
            Some(n)
        }
    };
    let timeout_ms = match opt_field(fields, "timeout_ms") {
        None => None,
        Some(v) => Some(
            v.as_u64("explore \"timeout_ms\"")
                .map_err(|e| ErrorBody::bad_request(e.to_string()))?,
        ),
    };
    Ok(ExploreRequest {
        program,
        platform,
        axes,
        objective,
        mode,
        max_evals,
        timeout_ms,
    })
}

/// Resolves the `"platform"` field: a preset name or an inline
/// `mhla.platform` document.
fn platform_from_spec(v: &Json) -> Result<Platform, ErrorBody> {
    match v {
        Json::Str(spec) => platform_preset(spec).unwrap_or_else(|| {
            Err(ErrorBody::bad_request(format!(
                "unknown platform preset \"{spec}\""
            )))
        }),
        doc => Ok(platform_from_value(doc)?),
    }
}

/// The platform presets — `three-level`, `four-level`,
/// `embedded[:BYTES]` and `no-dma[:BYTES]` (16 KiB scratchpad by
/// default) — shared by the wire's `"platform"` and the CLI's
/// `--platform`. `None` when `spec` names no preset; a preset with a bad
/// capacity is an error.
pub fn platform_preset(spec: &str) -> Option<Result<Platform, ErrorBody>> {
    let (name, bytes) = spec
        .split_once(':')
        .map_or((spec, None), |(n, b)| (n, Some(b)));
    let sized = |make: fn(u64) -> Platform| match bytes {
        None => Ok(make(16 * 1024)),
        Some(text) => match text.parse::<u64>() {
            Ok(n) if n > 0 => Ok(make(n)),
            _ => Err(ErrorBody::bad_request(format!(
                "platform preset: invalid capacity \"{text}\""
            ))),
        },
    };
    match (name, bytes) {
        ("three-level", None) => Some(Ok(Platform::three_level_default())),
        ("four-level", None) => Some(Ok(Platform::four_level_default())),
        ("embedded", _) => Some(sized(Platform::embedded_default)),
        ("no-dma", _) => Some(sized(Platform::without_dma)),
        _ => None,
    }
}

fn parse_axes(v: &Json) -> Result<Vec<GridAxis>, ErrorBody> {
    let items = v
        .as_array("explore \"axes\"")
        .map_err(|e| ErrorBody::bad_request(e.to_string()))?;
    let mut axes = Vec::with_capacity(items.len());
    for (i, item) in items.iter().enumerate() {
        let what = format!("axes[{i}]");
        let inner = (|| -> Result<GridAxis, SerdesError> {
            let o = item.as_object(&what)?;
            let layer = field(o, "layer", &what)?.as_u64(&format!("{what}.layer"))?;
            let layer = usize::try_from(layer).map_err(|_| SerdesError::Schema {
                what: format!("{what}.layer out of range"),
            })?;
            let mut capacities = Vec::new();
            for (j, c) in field(o, "capacities", &what)?
                .as_array(&format!("{what}.capacities"))?
                .iter()
                .enumerate()
            {
                capacities.push(c.as_u64(&format!("{what}.capacities[{j}]"))?);
            }
            Ok(GridAxis::new(LayerId(layer), capacities))
        })()
        .map_err(|e| ErrorBody::bad_request(e.to_string()))?;
        axes.push(inner);
    }
    Ok(axes)
}

fn parse_mode(v: &Json) -> Result<SearchMode, ErrorBody> {
    match v.as_str("explore \"mode\"") {
        Ok("cold") => Ok(SearchMode::Cold),
        Ok("improving") => Ok(SearchMode::Improving),
        Ok(other) => Err(ErrorBody::bad_request(format!(
            "unknown mode \"{other}\" (expected cold or improving)"
        ))),
        Err(e) => Err(ErrorBody::bad_request(e.to_string())),
    }
}

fn parse_objective(v: &Json) -> Result<Objective, ErrorBody> {
    match v {
        Json::Str(s) => match s.as_str() {
            "cycles" => Ok(Objective::Cycles),
            "energy" => Ok(Objective::Energy),
            other => Err(ErrorBody::bad_request(format!(
                "unknown objective \"{other}\" (expected cycles, energy or a weighted object)"
            ))),
        },
        Json::Obj(fields) => {
            let inner = (|| -> Result<Objective, SerdesError> {
                Ok(Objective::Weighted {
                    energy_weight: field(fields, "energy_weight", "objective")?
                        .as_f64("objective.energy_weight")?,
                    cycle_weight: field(fields, "cycle_weight", "objective")?
                        .as_f64("objective.cycle_weight")?,
                })
            })();
            inner.map_err(|e| ErrorBody::bad_request(e.to_string()))
        }
        other => Err(ErrorBody::bad_request(format!(
            "objective must be a string or a weighted object, found {}",
            other.render_compact()
        ))),
    }
}

// ---------------------------------------------------------------------------
// Canonical options (the third cache-key component)
// ---------------------------------------------------------------------------

/// The canonical options string of an explore request: objective, mode
/// and the *cleaned* axes (sorted, deduped capacities — the form the
/// engine actually sweeps), compactly rendered. Together with the two
/// content fingerprints this is the full cache key; budgets are
/// deliberately excluded (a complete result satisfies any budget).
pub fn canonical_options(objective: &Objective, mode: SearchMode, axes: &[GridAxis]) -> String {
    let objective = match objective {
        Objective::Cycles => Json::Str("cycles".into()),
        Objective::Energy => Json::Str("energy".into()),
        Objective::Weighted {
            energy_weight,
            cycle_weight,
        } => Json::Obj(vec![
            ("energy_weight".into(), Json::from_f64(*energy_weight)),
            ("cycle_weight".into(), Json::from_f64(*cycle_weight)),
        ]),
    };
    let mode = Json::Str(
        match mode {
            SearchMode::Cold => "cold",
            SearchMode::Improving => "improving",
        }
        .into(),
    );
    let axes: Vec<GridAxis> = axes
        .iter()
        .map(|a| {
            let mut caps = a.capacities.clone();
            caps.sort_unstable();
            caps.dedup();
            GridAxis::new(a.layer, caps)
        })
        .collect();
    Json::Obj(vec![
        ("objective".into(), objective),
        ("mode".into(), mode),
        ("axes".into(), axes_value(&axes)),
    ])
    .render_compact()
}

/// The wire form of grid axes, `[{"layer":1,"capacities":[…]},…]`.
pub fn axes_value(axes: &[GridAxis]) -> Json {
    Json::Arr(
        axes.iter()
            .map(|a| {
                Json::Obj(vec![
                    ("layer".into(), Json::from_u64(a.layer.0 as u64)),
                    (
                        "capacities".into(),
                        Json::Arr(a.capacities.iter().map(|&c| Json::from_u64(c)).collect()),
                    ),
                ])
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------------
// Response rendering
// ---------------------------------------------------------------------------

/// Renders a success response line around an already-rendered result
/// body. `cached` is present on explore responses only.
pub fn ok_line(cached: Option<bool>, body: &str) -> String {
    match cached {
        Some(c) => format!("{{\"ok\":true,\"cached\":{c},\"result\":{body}}}"),
        None => format!("{{\"ok\":true,\"result\":{body}}}"),
    }
}

/// Renders a typed error response line (message properly JSON-escaped).
pub fn error_line(error: &ErrorBody) -> String {
    Json::Obj(vec![
        ("ok".into(), Json::Bool(false)),
        (
            "error".into(),
            Json::Obj(vec![
                ("class".into(), Json::Str(error.class.clone())),
                ("message".into(), Json::Str(error.message.clone())),
            ]),
        ),
    ])
    .render_compact()
}

/// Renders the result body of an explore: the full point list with the
/// six cost figures of `mhla_core::report::grid_csv`, both Pareto index
/// sets, the run bookkeeping, and the content fingerprints the cache
/// keyed on. Rendered once and cached verbatim — hits are byte-identical
/// to the cold body.
pub fn result_body(run: &GridSweepRun, program_fp: u128, platform_fp: u128) -> String {
    let status = match ServedStatus::from(&run.status) {
        ServedStatus::Complete => Json::Str("complete".into()),
        ServedStatus::Stopped { cause, next_lex } => Json::Obj(vec![
            ("cause".into(), Json::Str(cause)),
            ("next_lex".into(), Json::from_u64(next_lex)),
        ]),
    };
    let points = run
        .sweep
        .points
        .iter()
        .map(|p| {
            Json::Obj(vec![
                (
                    "capacities".into(),
                    Json::Arr(p.capacities.iter().map(|&c| Json::from_u64(c)).collect()),
                ),
                (
                    "cycles_baseline".into(),
                    Json::from_u64(p.result.baseline_cycles()),
                ),
                ("cycles_mhla".into(), Json::from_u64(p.result.mhla_cycles())),
                (
                    "cycles_mhla_te".into(),
                    Json::from_u64(p.result.mhla_te_cycles()),
                ),
                (
                    "cycles_ideal".into(),
                    Json::from_u64(p.result.ideal_cycles()),
                ),
                (
                    "energy_baseline_pj".into(),
                    Json::from_f64(p.result.baseline_energy_pj()),
                ),
                (
                    "energy_mhla_pj".into(),
                    Json::from_f64(p.result.mhla_energy_pj()),
                ),
            ])
        })
        .collect();
    let index_list = |idx: Vec<usize>| {
        Json::Arr(
            idx.into_iter()
                .map(|i| Json::from_u64(i as u64))
                .collect::<Vec<Json>>(),
        )
    };
    Json::Obj(vec![
        (
            "program_fp".into(),
            Json::Str(mhla_core::fingerprint::fingerprint_hex(program_fp)),
        ),
        (
            "platform_fp".into(),
            Json::Str(mhla_core::fingerprint::fingerprint_hex(platform_fp)),
        ),
        (
            "layers".into(),
            Json::Arr(
                run.sweep
                    .layers
                    .iter()
                    .map(|l| Json::from_u64(l.0 as u64))
                    .collect(),
            ),
        ),
        (
            "evaluated".into(),
            Json::from_u64(run.sweep.points.len() as u64),
        ),
        ("candidates".into(), Json::from_u64(run.candidates as u64)),
        ("evals".into(), Json::from_u64(run.evals as u64)),
        ("status".into(), status),
        ("points".into(), Json::Arr(points)),
        (
            "pareto_cycles".into(),
            index_list(run.sweep.pareto_cycles()),
        ),
        (
            "pareto_energy".into(),
            index_list(run.sweep.pareto_energy()),
        ),
    ])
    .render_compact()
}

// ---------------------------------------------------------------------------
// Client-side result parsing
// ---------------------------------------------------------------------------

/// How far a served exploration got (the client-side mirror of
/// [`SweepStatus`], with the cause as its wire string).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ServedStatus {
    /// The whole grid was covered.
    Complete,
    /// The budget ran out first; the points are the decided down-set of
    /// the grid, with a certified frontier.
    Stopped {
        /// The wire cause (`"max_evals"`, `"deadline"`, `"cancelled"`).
        cause: String,
        /// Grid points decided ([`mhla_core::explore::SweepStatus`]).
        next_lex: u64,
    },
}

impl From<&SweepStatus> for ServedStatus {
    /// The wire form of an engine status: the cause by its wire name.
    fn from(status: &SweepStatus) -> Self {
        match *status {
            SweepStatus::Complete => ServedStatus::Complete,
            SweepStatus::Stopped { cause, next_lex } => ServedStatus::Stopped {
                cause: match cause {
                    StopCause::MaxEvals => "max_evals",
                    StopCause::Deadline => "deadline",
                    StopCause::Cancelled => "cancelled",
                }
                .into(),
                next_lex: next_lex as u64,
            },
        }
    }
}

/// One served grid point: the capacity vector plus the six cost figures.
#[derive(Clone, PartialEq, Debug)]
pub struct ServedPoint {
    /// Capacity per axis, bytes.
    pub capacities: Vec<u64>,
    /// Baseline (everything off-chip) cycles.
    pub cycles_baseline: u64,
    /// MHLA cycles before Time Extensions.
    pub cycles_mhla: u64,
    /// MHLA + Time Extensions cycles.
    pub cycles_mhla_te: u64,
    /// Ideal (all transfers hidden) cycles.
    pub cycles_ideal: u64,
    /// Baseline memory energy, picojoule.
    pub energy_baseline_pj: f64,
    /// MHLA memory energy, picojoule.
    pub energy_mhla_pj: f64,
}

/// A parsed explore result body — what `mhla submit` renders back into
/// the exact `mhla grid` CSV.
#[derive(Clone, PartialEq, Debug)]
pub struct ServedFrontier {
    /// The program fingerprint the cache keyed on, hex.
    pub program_fp: String,
    /// The platform fingerprint, hex.
    pub platform_fp: String,
    /// The swept layer per axis.
    pub layers: Vec<LayerId>,
    /// Points evaluated (the decided down-set of the grid when stopped).
    pub points: Vec<ServedPoint>,
    /// Indices of the (capacities, cycles) Pareto surface.
    pub pareto_cycles: Vec<u64>,
    /// Indices of the (capacities, energy) Pareto surface.
    pub pareto_energy: Vec<u64>,
    /// Full Cartesian product size.
    pub candidates: u64,
    /// Search legs executed server-side (0 on a cache hit's *re-serve* —
    /// the figure is the original run's).
    pub evals: u64,
    /// How far the sweep got.
    pub status: ServedStatus,
}

/// The three shapes a response line can take, as the client sees them.
pub enum Response {
    /// `{"ok":true,…}` with an explore result body.
    Frontier {
        /// Whether the server answered from its result cache.
        cached: bool,
        /// The parsed body.
        frontier: Box<ServedFrontier>,
    },
    /// `{"ok":true,…}` with a non-explore body (status, shutdown ack);
    /// carried as raw JSON for display.
    Other(Json),
    /// `{"ok":false,…}`.
    Error(ErrorBody),
}

impl Response {
    /// Parses one response line.
    ///
    /// # Errors
    ///
    /// [`SerdesError`] when the line is not a well-formed response
    /// envelope (a transport-level failure, distinct from a well-formed
    /// [`Response::Error`]).
    pub fn parse(line: &str) -> Result<Response, SerdesError> {
        let doc = Json::parse(line)?;
        let fields = doc.as_object("response")?;
        let ok = match field(fields, "ok", "response")? {
            Json::Bool(b) => *b,
            other => {
                return Err(SerdesError::Schema {
                    what: format!(
                        "response \"ok\": expected a bool, found {}",
                        other.render_compact()
                    ),
                })
            }
        };
        if !ok {
            let e = field(fields, "error", "response")?.as_object("response \"error\"")?;
            return Ok(Response::Error(ErrorBody {
                class: field(e, "class", "error")?
                    .as_str("error.class")?
                    .to_string(),
                message: field(e, "message", "error")?
                    .as_str("error.message")?
                    .to_string(),
            }));
        }
        let result = field(fields, "result", "response")?;
        match opt_field(fields, "cached") {
            Some(Json::Bool(cached)) => Ok(Response::Frontier {
                cached: *cached,
                frontier: Box::new(parse_frontier(result)?),
            }),
            Some(other) => Err(SerdesError::Schema {
                what: format!(
                    "response \"cached\": expected a bool, found {}",
                    other.render_compact()
                ),
            }),
            None => Ok(Response::Other(result.clone())),
        }
    }
}

fn parse_frontier(v: &Json) -> Result<ServedFrontier, SerdesError> {
    let o = v.as_object("result")?;
    let u64_list = |key: &str| -> Result<Vec<u64>, SerdesError> {
        field(o, key, "result")?
            .as_array(&format!("result.{key}"))?
            .iter()
            .enumerate()
            .map(|(i, x)| x.as_u64(&format!("result.{key}[{i}]")))
            .collect()
    };
    let layers = u64_list("layers")?
        .into_iter()
        .map(|l| {
            usize::try_from(l)
                .map(LayerId)
                .map_err(|_| SerdesError::Schema {
                    what: format!("result.layers: {l} out of range"),
                })
        })
        .collect::<Result<Vec<LayerId>, SerdesError>>()?;
    let mut points = Vec::new();
    for (i, p) in field(o, "points", "result")?
        .as_array("result.points")?
        .iter()
        .enumerate()
    {
        let what = format!("points[{i}]");
        let po = p.as_object(&what)?;
        let capacities = field(po, "capacities", &what)?
            .as_array(&format!("{what}.capacities"))?
            .iter()
            .enumerate()
            .map(|(j, c)| c.as_u64(&format!("{what}.capacities[{j}]")))
            .collect::<Result<Vec<u64>, SerdesError>>()?;
        if capacities.len() != layers.len() {
            return Err(SerdesError::Schema {
                what: format!(
                    "{what}.capacities: {} capacities for {} layers",
                    capacities.len(),
                    layers.len()
                ),
            });
        }
        points.push(ServedPoint {
            capacities,
            cycles_baseline: field(po, "cycles_baseline", &what)?
                .as_u64(&format!("{what}.cycles_baseline"))?,
            cycles_mhla: field(po, "cycles_mhla", &what)?.as_u64(&format!("{what}.cycles_mhla"))?,
            cycles_mhla_te: field(po, "cycles_mhla_te", &what)?
                .as_u64(&format!("{what}.cycles_mhla_te"))?,
            cycles_ideal: field(po, "cycles_ideal", &what)?
                .as_u64(&format!("{what}.cycles_ideal"))?,
            energy_baseline_pj: field(po, "energy_baseline_pj", &what)?
                .as_f64(&format!("{what}.energy_baseline_pj"))?,
            energy_mhla_pj: field(po, "energy_mhla_pj", &what)?
                .as_f64(&format!("{what}.energy_mhla_pj"))?,
        });
    }
    let status = match field(o, "status", "result")? {
        Json::Str(s) if s == "complete" => ServedStatus::Complete,
        Json::Obj(fields) => ServedStatus::Stopped {
            cause: field(fields, "cause", "status")?
                .as_str("status.cause")?
                .to_string(),
            next_lex: field(fields, "next_lex", "status")?.as_u64("status.next_lex")?,
        },
        other => {
            return Err(SerdesError::Schema {
                what: format!("result.status: unexpected {}", other.render_compact()),
            })
        }
    };
    // The body must agree with itself: `grid_csv` writes one column per
    // layer, and readers index points by the Pareto sets.
    let evaluated = field(o, "evaluated", "result")?.as_u64("result.evaluated")?;
    if evaluated != points.len() as u64 {
        return Err(SerdesError::Schema {
            what: format!("result.evaluated: {evaluated}, but {} points", points.len()),
        });
    }
    let pareto_cycles = u64_list("pareto_cycles")?;
    let pareto_energy = u64_list("pareto_energy")?;
    for (key, indices) in [
        ("pareto_cycles", &pareto_cycles),
        ("pareto_energy", &pareto_energy),
    ] {
        if let Some(i) = indices.iter().find(|&&i| i >= evaluated) {
            return Err(SerdesError::Schema {
                what: format!("result.{key}: index {i} of {evaluated} points"),
            });
        }
    }
    Ok(ServedFrontier {
        program_fp: field(o, "program_fp", "result")?
            .as_str("result.program_fp")?
            .to_string(),
        platform_fp: field(o, "platform_fp", "result")?
            .as_str("result.platform_fp")?
            .to_string(),
        layers,
        points,
        pareto_cycles,
        pareto_energy,
        candidates: field(o, "candidates", "result")?.as_u64("result.candidates")?,
        evals: field(o, "evals", "result")?.as_u64("result.evals")?,
        status,
    })
}

impl ServedFrontier {
    /// Renders the served points as the exact CSV `mhla grid` emits for
    /// the same sweep: both go through [`report::capacity_csv`], and the
    /// energies carry the engine's `f64`s through the shortest-round-trip
    /// wire encoding, so the bytes match.
    pub fn grid_csv(&self) -> String {
        report::capacity_csv(
            &self.layers,
            self.points.iter().map(|p| {
                (
                    &p.capacities[..],
                    [
                        p.cycles_baseline,
                        p.cycles_mhla,
                        p.cycles_mhla_te,
                        p.cycles_ideal,
                    ],
                    [p.energy_baseline_pj, p.energy_mhla_pj],
                )
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_parse_is_total_on_junk() {
        for junk in [
            "",
            "not json",
            "42",
            "[]",
            "{}",
            "{\"op\":7}",
            "{\"op\":\"fly\"}",
            "{\"op\":\"explore\"}",
            "{\"op\":\"explore\",\"program\":12}",
        ] {
            assert!(
                matches!(Request::parse(junk), Err(ref e) if e.class == "bad_request"
                    || e.class == "invalid_program"
                    || e.class == "invalid_options"),
                "junk {junk:?} must yield a typed error"
            );
        }
    }

    #[test]
    fn error_line_escapes_messages() {
        let line = error_line(&ErrorBody::bad_request("quote \" and \n newline"));
        let back = Json::parse(&line).expect("the error line is valid JSON");
        let fields = back.as_object("line").unwrap();
        assert!(matches!(
            field(fields, "ok", "line").unwrap(),
            Json::Bool(false)
        ));
    }

    #[test]
    fn canonical_options_cleans_axes() {
        let a = canonical_options(
            &Objective::Cycles,
            SearchMode::Cold,
            &[GridAxis::new(LayerId(1), vec![2048, 1024, 2048])],
        );
        let b = canonical_options(
            &Objective::Cycles,
            SearchMode::Cold,
            &[GridAxis::new(LayerId(1), vec![1024, 2048])],
        );
        assert_eq!(a, b, "axis order/duplicates must not split the cache key");
        let c = canonical_options(
            &Objective::Energy,
            SearchMode::Cold,
            &[GridAxis::new(LayerId(1), vec![1024, 2048])],
        );
        assert_ne!(a, c, "objectives must split the cache key");
    }

    #[test]
    fn platform_presets_resolve() {
        let p = platform_from_spec(&Json::Str("embedded:4096".into())).expect("preset");
        assert_eq!(p.layer_count(), 2);
        assert!(platform_from_spec(&Json::Str("warp-core".into())).is_err());
        assert!(platform_from_spec(&Json::Str("embedded:0".into())).is_err());
    }

    #[test]
    fn served_results_must_agree_with_themselves() {
        let point = |caps: &str| {
            format!(
                "{{\"capacities\":[{caps}],\"cycles_baseline\":9,\"cycles_mhla\":8,\
                 \"cycles_mhla_te\":7,\"cycles_ideal\":6,\"energy_baseline_pj\":2.5,\
                 \"energy_mhla_pj\":1.5}}"
            )
        };
        let line = |points: &[String], pareto_cycles: &str, evaluated: usize| {
            format!(
                "{{\"ok\":true,\"cached\":false,\"result\":{{\"program_fp\":\"a\",\
                 \"platform_fp\":\"b\",\"layers\":[1],\"evaluated\":{evaluated},\
                 \"candidates\":2,\"evals\":2,\"status\":\"complete\",\"points\":[{}],\
                 \"pareto_cycles\":[{pareto_cycles}],\"pareto_energy\":[0]}}}}",
                points.join(",")
            )
        };
        let good = [point("512"), point("1024")];
        assert!(matches!(
            Response::parse(&line(&good, "0,1", 2)),
            Ok(Response::Frontier { .. })
        ));
        let ragged = [point("512,1024,2048"), point("")];
        for bad in [
            // All three faults at once, then each alone: three capacities
            // and none under one layer, a Pareto index past the two
            // points, and `evaluated` disagreeing with the point list.
            line(&ragged, "7", 5),
            line(&ragged, "0", 2),
            line(&good, "7", 2),
            line(&good, "0", 5),
        ] {
            assert!(
                matches!(Response::parse(&bad), Err(SerdesError::Schema { .. })),
                "{bad}"
            );
        }
    }
}
