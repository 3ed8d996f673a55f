//! `mhla` — the exploration-as-a-service command line.
//!
//! Everything the workspace can do in process, driven from serialized
//! programs and platforms on disk (`mhla_ir::serdes` /
//! `mhla_hierarchy::serdes`):
//!
//! * `mhla export` — dump the nine built-in applications (and platform
//!   presets) to the versioned JSON format,
//! * `mhla analyze` — run MHLA once and print the full assignment report,
//! * `mhla report` — the one-line performance + energy figures,
//! * `mhla grid` — a multi-layer grid sweep with Pareto frontier, CSV out,
//!   honoring `--max-evals` budgets and the engine's resume machinery,
//! * `mhla sweep` — the same on one axis: a one-layer capacity sweep.
//!
//! Following the subcommand/report split (run once, emit the existing
//! report formats), the binary is a thin shell: every input crosses the
//! typed `MhlaError` ingress, so corrupted or malformed files exit with
//! code 2 and `error: …` on stderr — never a panic.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mhla_core::explore::{
    default_axes, default_capacities, try_sweep_grid_resume, try_sweep_grid_run, ExploreBudget,
    GridAxis, GridSweepRun, SearchMode, StopCause, SweepOptions, SweepStatus,
};
use mhla_core::{report, Mhla, MhlaConfig, MhlaError};
use mhla_hierarchy::serdes::{platform_from_json, platform_to_json, platform_value};
use mhla_hierarchy::{LayerId, Platform};
use mhla_ir::serdes::{program_from_json, program_to_json, program_value, Json};
use mhla_ir::Program;
use mhla_serve::{Client, Response, ServedStatus, ServerOptions};

const USAGE: &str = "\
mhla — MHLA (DATE 2005) exploration over serialized programs

USAGE:
    mhla export  [--dir DIR]
    mhla analyze (--input PROG.json | --app NAME) [--platform P]
    mhla report  (--input PROG.json | --app NAME) [--platform P]
    mhla sweep   (--input PROG.json | --app NAME) [--platform P]
                 [--layer N] [--capacities C1,C2,..] [--mode cold|improving]
                 [--max-evals N] [--resume] [--out FILE]
    mhla grid    (--input PROG.json | --app NAME) [--platform P]
                 [--axes SPEC] [--mode cold|improving] [--max-evals N]
                 [--resume] [--out FILE]
    mhla serve   [--addr A] [--workers N] [--queue N] [--cache-bytes N]
    mhla submit  (--input PROG.json | --app NAME) [--platform P]
                 [--axes SPEC] [--mode cold|improving] [--objective O]
                 [--max-evals N] [--timeout-ms N] [--addr A] [--out FILE]
    mhla status  [--addr A]
    mhla shutdown [--addr A]
    mhla help

PLATFORM (--platform):
    three-level (default) | four-level | embedded[:BYTES] | no-dma[:BYTES],
    or a path to a platform JSON file (see `mhla export`).

AXES (--axes), grid and submit:
    LAYER:CAP,CAP,..[;LAYER:CAP,..]  e.g.  1:16384,32768;2:1024,2048
    Defaults to the standard grid of the platform's layer count.
`sweep` is the grid on the one axis --layer (default: the closest on-chip
layer) over --capacities (default: 128 B to 128 KiB, powers of two); its
CSV names the capacity column after the layer, e.g. `capacity_M1`.

Budgeted runs (--max-evals) stop early with a certified partial frontier;
`sweep`/`grid --resume` continues a stopped sweep to completion in one
invocation.

`mhla serve` runs the batch exploration server (default address
127.0.0.1:7744) with a content-addressed result cache; `mhla submit`
sends one exploration to it and reconstructs the exact `mhla grid` CSV
from the response. `mhla status` prints the server's cache and engine
counters; `mhla shutdown` drains it gracefully.
Exit codes: 0 success, 2 on any error (typed message on stderr).
";

/// The default server address of `serve`/`submit`/`status`/`shutdown`.
const DEFAULT_ADDR: &str = "127.0.0.1:7744";

/// One failure class per exit path; everything renders after `error: `.
enum CliError {
    /// Bad invocation (unknown flag/subcommand, missing value, …).
    Usage(String),
    /// The OS said no.
    Io {
        path: PathBuf,
        source: std::io::Error,
    },
    /// The engine boundary said no (includes serialization failures via
    /// `From<SerdesError> for MhlaError`).
    Engine(MhlaError),
    /// The transport to an `mhla serve` instance failed.
    Net {
        addr: String,
        source: std::io::Error,
    },
    /// The server answered with a typed error response.
    Server(mhla_serve::ErrorBody),
    /// Writing to stdout failed (closed pipe downstream, disk full, …).
    Stdout(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(what) => write!(f, "{what} (run `mhla help` for usage)"),
            CliError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            CliError::Engine(e) => write!(f, "{e}"),
            CliError::Net { addr, source } => write!(f, "{addr}: {source}"),
            CliError::Server(e) => write!(f, "server: {e}"),
            CliError::Stdout(source) => write!(f, "stdout: {source}"),
        }
    }
}

/// Fallible stdout, replacing `println!` throughout: a downstream reader
/// may close the pipe mid-output (`mhla status | grep -q …`), which the
/// macros turn into a panic. Here it surfaces as [`CliError::Stdout`],
/// and `main` maps a broken pipe to a clean exit — the POSIX filter
/// convention — while every other stdout failure stays a real error.
fn out(text: &str) -> Result<(), CliError> {
    use std::io::Write as _;
    std::io::stdout()
        .lock()
        .write_all(text.as_bytes())
        .map_err(CliError::Stdout)
}

fn outln(text: &str) -> Result<(), CliError> {
    out(text)?;
    out("\n")
}

impl From<MhlaError> for CliError {
    fn from(e: MhlaError) -> Self {
        CliError::Engine(e)
    }
}

impl From<mhla_ir::SerdesError> for CliError {
    fn from(e: mhla_ir::SerdesError) -> Self {
        CliError::Engine(e.into())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        // A reader that closes the pipe early (`mhla status | grep -q`)
        // got everything it wanted; that is success, not a diagnostic.
        Err(CliError::Stdout(e)) if e.kind() == std::io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<(), CliError> {
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => return Err(CliError::Usage("missing subcommand".into())),
    };
    match cmd {
        "help" | "--help" | "-h" => out(USAGE),
        "export" => cmd_export(&Flags::parse(rest)?),
        "analyze" => cmd_analyze(&Flags::parse(rest)?),
        "report" => cmd_report(&Flags::parse(rest)?),
        "sweep" => cmd_sweep(&Flags::parse(rest)?),
        "grid" => cmd_grid(&Flags::parse(rest)?),
        "serve" => cmd_serve(&Flags::parse(rest)?),
        "submit" => cmd_submit(&Flags::parse(rest)?),
        "status" => cmd_status(&Flags::parse(rest)?),
        "shutdown" => cmd_shutdown(&Flags::parse(rest)?),
        other => Err(CliError::Usage(format!("unknown subcommand `{other}`"))),
    }
}

// ---------------------------------------------------------------------------
// Flag parsing
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Flags {
    input: Option<PathBuf>,
    app: Option<String>,
    platform: Option<String>,
    layer: Option<usize>,
    capacities: Option<Vec<u64>>,
    axes: Option<String>,
    max_evals: Option<usize>,
    mode: Option<String>,
    out: Option<PathBuf>,
    dir: Option<PathBuf>,
    resume: bool,
    addr: Option<String>,
    workers: Option<usize>,
    queue: Option<usize>,
    cache_bytes: Option<usize>,
    timeout_ms: Option<u64>,
    objective: Option<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Result<Flags, CliError> {
        let mut f = Flags::default();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            match flag {
                "--input" => f.input = Some(PathBuf::from(value(args, &mut i)?)),
                "--app" => f.app = Some(value(args, &mut i)?.to_string()),
                "--platform" => f.platform = Some(value(args, &mut i)?.to_string()),
                "--layer" => f.layer = Some(parse_number(value(args, &mut i)?, flag)?),
                "--capacities" => f.capacities = Some(parse_u64_list(value(args, &mut i)?, flag)?),
                "--axes" => f.axes = Some(value(args, &mut i)?.to_string()),
                "--max-evals" => f.max_evals = Some(parse_number(value(args, &mut i)?, flag)?),
                "--mode" => f.mode = Some(value(args, &mut i)?.to_string()),
                "--out" => f.out = Some(PathBuf::from(value(args, &mut i)?)),
                "--dir" => f.dir = Some(PathBuf::from(value(args, &mut i)?)),
                "--resume" => f.resume = true,
                "--addr" => f.addr = Some(value(args, &mut i)?.to_string()),
                "--workers" => f.workers = Some(parse_number(value(args, &mut i)?, flag)?),
                "--queue" => f.queue = Some(parse_number(value(args, &mut i)?, flag)?),
                "--cache-bytes" => f.cache_bytes = Some(parse_number(value(args, &mut i)?, flag)?),
                "--timeout-ms" => f.timeout_ms = Some(parse_number(value(args, &mut i)?, flag)?),
                "--objective" => f.objective = Some(value(args, &mut i)?.to_string()),
                other => return Err(CliError::Usage(format!("unknown flag `{other}`"))),
            }
            i += 1;
        }
        Ok(f)
    }
}

fn value<'a>(args: &'a [String], i: &mut usize) -> Result<&'a str, CliError> {
    let flag = args[*i].clone();
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or(CliError::Usage(format!("`{flag}` expects a value")))
}

fn parse_number<T: std::str::FromStr>(text: &str, flag: &str) -> Result<T, CliError> {
    text.parse()
        .map_err(|_| CliError::Usage(format!("`{flag}`: invalid number \"{text}\"")))
}

fn parse_u64_list(text: &str, flag: &str) -> Result<Vec<u64>, CliError> {
    text.split(',')
        .map(|part| parse_number(part.trim(), flag))
        .collect()
}

// ---------------------------------------------------------------------------
// Input loading
// ---------------------------------------------------------------------------

fn read_file(path: &Path) -> Result<String, CliError> {
    fs::read_to_string(path).map_err(|source| CliError::Io {
        path: path.to_path_buf(),
        source,
    })
}

fn write_file(path: &Path, text: &str) -> Result<(), CliError> {
    fs::write(path, text).map_err(|source| CliError::Io {
        path: path.to_path_buf(),
        source,
    })
}

/// Loads the program named by `--input` (serialized JSON) or `--app`
/// (built-in). Serialized programs cross the typed validate ingress.
fn load_program(f: &Flags) -> Result<Program, CliError> {
    match (&f.input, &f.app) {
        (Some(path), None) => Ok(program_from_json(&read_file(path)?)?),
        (None, Some(name)) => mhla_apps::all_apps()
            .into_iter()
            .find(|a| a.name() == name)
            .map(|a| a.program)
            .ok_or_else(|| {
                let known: Vec<String> = mhla_apps::all_apps()
                    .iter()
                    .map(|a| a.name().to_string())
                    .collect();
                CliError::Usage(format!(
                    "unknown app `{name}` (built-ins: {})",
                    known.join(", ")
                ))
            }),
        _ => Err(CliError::Usage(
            "exactly one of `--input` or `--app` is required".into(),
        )),
    }
}

/// Resolves `--platform`: a preset name or a serialized platform file.
fn load_platform(f: &Flags) -> Result<Platform, CliError> {
    let spec = f.platform.as_deref().unwrap_or("three-level");
    match spec {
        "three-level" => Ok(Platform::three_level_default()),
        "four-level" => Ok(Platform::four_level_default()),
        "embedded" => Ok(Platform::embedded_default(16 * 1024)),
        "no-dma" => Ok(Platform::without_dma(16 * 1024)),
        _ => {
            if let Some(bytes) = spec.strip_prefix("embedded:") {
                return Ok(Platform::embedded_default(parse_capacity(bytes)?));
            }
            if let Some(bytes) = spec.strip_prefix("no-dma:") {
                return Ok(Platform::without_dma(parse_capacity(bytes)?));
            }
            Ok(platform_from_json(&read_file(Path::new(spec))?)?)
        }
    }
}

fn parse_capacity(text: &str) -> Result<u64, CliError> {
    let bytes: u64 = parse_number(text, "--platform")?;
    if bytes == 0 {
        return Err(CliError::Usage(
            "`--platform`: scratchpad capacity must be positive".into(),
        ));
    }
    Ok(bytes)
}

/// Builds the sweep options shared by `sweep` and `grid` from the flags.
fn sweep_options(f: &Flags) -> Result<SweepOptions, CliError> {
    let mut opts = SweepOptions::default();
    if let Some(n) = f.max_evals {
        if n == 0 {
            return Err(CliError::Usage("`--max-evals` must be positive".into()));
        }
        opts.budget = ExploreBudget::max_evals(n);
    }
    match f.mode.as_deref() {
        None | Some("cold") => {}
        Some("improving") => opts.mode = SearchMode::Improving,
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown mode `{other}` (expected `cold` or `improving`)"
            )))
        }
    }
    Ok(opts)
}

/// The grid axes: an explicit `--axes` spec, or the standard grid for the
/// platform's depth ([`default_axes`], matching the in-process sweep
/// suites).
fn grid_axes(f: &Flags, platform: &Platform) -> Result<Vec<GridAxis>, CliError> {
    match &f.axes {
        Some(spec) => parse_axes(spec),
        None => Ok(default_axes(platform)),
    }
}

fn parse_axes(spec: &str) -> Result<Vec<GridAxis>, CliError> {
    spec.split(';')
        .map(|part| {
            let (layer, caps) = part.split_once(':').ok_or_else(|| {
                CliError::Usage(format!("`--axes`: expected LAYER:CAP,CAP,.. in \"{part}\""))
            })?;
            Ok(GridAxis::new(
                LayerId(parse_number(layer.trim(), "--axes")?),
                parse_u64_list(caps, "--axes")?,
            ))
        })
        .collect()
}

/// Writes `text` to `--out` when given, to stdout otherwise.
fn emit(text: &str, dest: Option<&PathBuf>) -> Result<(), CliError> {
    match dest {
        Some(path) => {
            write_file(path, text)?;
            outln(&format!("wrote {}", path.display()))
        }
        None => out(text),
    }
}

fn status_note(status: &SweepStatus) -> Option<String> {
    match status {
        SweepStatus::Complete => None,
        SweepStatus::Stopped { cause, next_lex } => {
            let cause = match cause {
                StopCause::MaxEvals => "evaluation budget exhausted",
                StopCause::Deadline => "deadline reached",
                StopCause::Cancelled => "cancelled",
            };
            Some(format!(
                "note: {cause} — certified partial frontier over the {next_lex} \
                 grid points decided (re-run with `--resume` or a larger \
                 `--max-evals` to continue)"
            ))
        }
    }
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

/// `mhla export`: the nine built-in applications plus platform presets, in
/// the versioned JSON format — the seed corpus for everything that accepts
/// `--input`.
fn cmd_export(f: &Flags) -> Result<(), CliError> {
    let dir = f
        .dir
        .clone()
        .unwrap_or_else(|| PathBuf::from("mhla-export"));
    fs::create_dir_all(&dir).map_err(|source| CliError::Io {
        path: dir.clone(),
        source,
    })?;
    for app in mhla_apps::all_apps() {
        let prog = dir.join(format!("{}.prog.json", app.name()));
        write_file(&prog, &program_to_json(&app.program))?;
        outln(&format!("wrote {}", prog.display()))?;
        let plat = dir.join(format!("{}.platform.json", app.name()));
        write_file(
            &plat,
            &platform_to_json(&Platform::embedded_default(app.default_scratchpad)),
        )?;
        outln(&format!("wrote {}", plat.display()))?;
    }
    for (name, platform) in [
        ("three-level", Platform::three_level_default()),
        ("four-level", Platform::four_level_default()),
    ] {
        let path = dir.join(format!("{name}.platform.json"));
        write_file(&path, &platform_to_json(&platform))?;
        outln(&format!("wrote {}", path.display()))?;
    }
    Ok(())
}

/// `mhla analyze`: one full MHLA run, human-readable — the platform, the
/// per-array assignment, and the performance/energy rows.
fn cmd_analyze(f: &Flags) -> Result<(), CliError> {
    let program = load_program(f)?;
    let platform = load_platform(f)?;
    let mhla = Mhla::try_new(&program, &platform, MhlaConfig::default())?;
    let result = mhla.try_run()?;
    outln(&platform.to_string())?;
    outln("")?;
    out(&report::describe(&program, mhla.reuse(), &result))?;
    outln("")?;
    outln(&report::performance_header())?;
    outln(&report::performance_row(program.name(), &result))?;
    outln("")?;
    outln(&report::energy_header())?;
    outln(&report::energy_row(program.name(), &result))
}

/// `mhla report`: just the figures (performance + energy rows), for
/// scripting over many programs.
fn cmd_report(f: &Flags) -> Result<(), CliError> {
    let program = load_program(f)?;
    let platform = load_platform(f)?;
    let mhla = Mhla::try_new(&program, &platform, MhlaConfig::default())?;
    let result = mhla.try_run()?;
    outln(&report::performance_header())?;
    outln(&report::performance_row(program.name(), &result))?;
    outln(&report::energy_header())?;
    outln(&report::energy_row(program.name(), &result))
}

/// `mhla sweep`: the grid on one axis — `--layer` (default: the closest
/// on-chip layer) over `--capacities` (default: [`default_capacities`]).
fn cmd_sweep(f: &Flags) -> Result<(), CliError> {
    let program = load_program(f)?;
    let platform = load_platform(f)?;
    let layer = f.layer.map_or_else(|| platform.closest(), LayerId);
    let capacities = f.capacities.clone().unwrap_or_else(default_capacities);
    explore(f, &program, &platform, &[GridAxis::new(layer, capacities)])
}

/// `mhla grid`: a multi-layer grid sweep over `--axes` (default: the
/// platform's standard grid).
fn cmd_grid(f: &Flags) -> Result<(), CliError> {
    let program = load_program(f)?;
    let platform = load_platform(f)?;
    let axes = grid_axes(f, &platform)?;
    explore(f, &program, &platform, &axes)
}

/// The exploration behind `sweep` and `grid`. CSV goes to `--out` (with
/// the Pareto frontier table on stdout) or to stdout alone; `--max-evals`
/// bounds the run and `--resume` drives the engine's resume machinery to
/// finish a stopped sweep in the same invocation.
fn explore(
    f: &Flags,
    program: &Program,
    platform: &Platform,
    axes: &[GridAxis],
) -> Result<(), CliError> {
    let opts = sweep_options(f)?;
    let config = MhlaConfig::default();
    let mut run: GridSweepRun = try_sweep_grid_run(program, platform, axes, &config, &opts)?;
    if !run.status.is_complete() && f.resume {
        let unlimited = SweepOptions {
            budget: ExploreBudget::unlimited(),
            ..opts
        };
        run = try_sweep_grid_resume(program, platform, axes, &config, &unlimited, &run)?;
    }
    if f.out.is_some() {
        out(&report::grid_frontier(&run.sweep))?;
        outln(&format!(
            "grid: {}/{} points evaluated",
            run.sweep.points.len(),
            run.candidates
        ))?;
    }
    emit(&report::grid_csv(&run.sweep), f.out.as_ref())?;
    if let Some(note) = status_note(&run.status) {
        eprintln!("{note}");
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Serving (`serve` / `submit` / `status` / `shutdown`)
// ---------------------------------------------------------------------------

fn server_addr(f: &Flags) -> String {
    f.addr.clone().unwrap_or_else(|| DEFAULT_ADDR.to_string())
}

fn net_err(addr: &str) -> impl FnOnce(std::io::Error) -> CliError + '_ {
    move |source| CliError::Net {
        addr: addr.to_string(),
        source,
    }
}

/// `mhla serve`: the batch exploration server, in the foreground until a
/// `shutdown` request drains it.
fn cmd_serve(f: &Flags) -> Result<(), CliError> {
    let addr = server_addr(f);
    let mut opts = ServerOptions::default();
    if let Some(w) = f.workers {
        if w == 0 {
            return Err(CliError::Usage("`--workers` must be positive".into()));
        }
        opts.workers = w;
    }
    if let Some(q) = f.queue {
        if q == 0 {
            return Err(CliError::Usage("`--queue` must be positive".into()));
        }
        opts.queue = q;
    }
    if let Some(b) = f.cache_bytes {
        opts.cache_bytes = b;
    }
    mhla_serve::serve(addr.as_str(), opts, |bound| {
        let _ = outln(&format!("listening on {bound}"));
        let _ = std::io::Write::flush(&mut std::io::stdout());
    })
    .map_err(net_err(&addr))
}

/// Builds the `explore` request line `submit` sends.
fn submit_request(f: &Flags, program: &Program, platform: &Platform) -> Result<String, CliError> {
    let mut fields = vec![
        ("op".to_string(), Json::Str("explore".into())),
        ("program".to_string(), program_value(program)),
        ("platform".to_string(), platform_value(platform)),
    ];
    if let Some(spec) = &f.axes {
        let axes = parse_axes(spec)?;
        fields.push((
            "axes".to_string(),
            Json::Arr(
                axes.iter()
                    .map(|a| {
                        Json::Obj(vec![
                            ("layer".into(), Json::from_u64(a.layer.0 as u64)),
                            (
                                "capacities".into(),
                                Json::Arr(
                                    a.capacities.iter().map(|&c| Json::from_u64(c)).collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ));
    }
    match f.objective.as_deref() {
        None => {}
        Some(o @ ("cycles" | "energy")) => {
            fields.push(("objective".to_string(), Json::Str(o.into())));
        }
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown objective `{other}` (expected `cycles` or `energy`)"
            )))
        }
    }
    match f.mode.as_deref() {
        None => {}
        Some(m @ ("cold" | "improving")) => {
            fields.push(("mode".to_string(), Json::Str(m.into())));
        }
        Some(other) => {
            return Err(CliError::Usage(format!(
                "unknown mode `{other}` (expected `cold` or `improving`)"
            )))
        }
    }
    if let Some(n) = f.max_evals {
        if n == 0 {
            return Err(CliError::Usage("`--max-evals` must be positive".into()));
        }
        fields.push(("max_evals".to_string(), Json::from_u64(n as u64)));
    }
    if let Some(ms) = f.timeout_ms {
        fields.push(("timeout_ms".to_string(), Json::from_u64(ms)));
    }
    Ok(Json::Obj(fields).render_compact())
}

/// `mhla submit`: one exploration against a running server; the response
/// is rendered back into the exact `mhla grid` CSV.
fn cmd_submit(f: &Flags) -> Result<(), CliError> {
    let program = load_program(f)?;
    let platform = load_platform(f)?;
    let addr = server_addr(f);
    let line = submit_request(f, &program, &platform)?;
    let mut client = Client::connect(addr.as_str()).map_err(net_err(&addr))?;
    let response = client.roundtrip(&line).map_err(net_err(&addr))?;
    match Response::parse(&response).map_err(MhlaError::from)? {
        Response::Frontier { cached, frontier } => {
            eprintln!(
                "cache {}: {}/{} points from {addr}",
                if cached { "hit" } else { "miss" },
                frontier.points.len(),
                frontier.candidates
            );
            emit(&frontier.grid_csv(), f.out.as_ref())?;
            if let ServedStatus::Stopped { cause, next_lex } = &frontier.status {
                eprintln!(
                    "note: served sweep stopped ({cause}) — certified partial frontier \
                     over the {next_lex} grid points decided (resubmit with a larger \
                     `--max-evals` to continue)"
                );
            }
            Ok(())
        }
        Response::Error(e) => Err(CliError::Server(e)),
        Response::Other(_) => Err(CliError::Usage(
            "unexpected response shape from the server".into(),
        )),
    }
}

/// `mhla status`: the server's cache and engine counters, pretty-printed.
fn cmd_status(f: &Flags) -> Result<(), CliError> {
    let addr = server_addr(f);
    let response =
        mhla_serve::request_once(addr.as_str(), "{\"op\":\"status\"}").map_err(net_err(&addr))?;
    match Response::parse(&response).map_err(MhlaError::from)? {
        Response::Other(body) => outln(&body.render()),
        Response::Error(e) => Err(CliError::Server(e)),
        Response::Frontier { .. } => Err(CliError::Usage(
            "unexpected response shape from the server".into(),
        )),
    }
}

/// `mhla shutdown`: graceful drain of a running server.
fn cmd_shutdown(f: &Flags) -> Result<(), CliError> {
    let addr = server_addr(f);
    let response =
        mhla_serve::request_once(addr.as_str(), "{\"op\":\"shutdown\"}").map_err(net_err(&addr))?;
    match Response::parse(&response).map_err(MhlaError::from)? {
        Response::Other(_) => outln(&format!("server at {addr} is draining")),
        Response::Error(e) => Err(CliError::Server(e)),
        Response::Frontier { .. } => Err(CliError::Usage(
            "unexpected response shape from the server".into(),
        )),
    }
}
