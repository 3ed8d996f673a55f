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
//! * `mhla sweep` — the same on one axis: a one-layer capacity sweep,
//! * `mhla serve` / `submit` / `status` / `shutdown` — the batch
//!   exploration server and its client.
//!
//! Following the subcommand/report split (run once, emit the existing
//! report formats), the binary is a thin shell. Each subcommand takes the
//! flags its USAGE line lists and refuses any other. `grid`, `sweep` and
//! `submit` turn their flags into the server's `explore` request line and
//! parse it with the server's own parser (`Request::parse`), so a local
//! run and a served run of the same flags read the same inputs; `analyze`
//! and `report` load their program and platform the same way. Every
//! input crosses a typed ingress, so corrupted or malformed files exit
//! with code 2 and `error: …` on stderr — never a panic.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mhla_core::explore::{
    default_capacities, try_sweep_grid_resume, try_sweep_grid_run, ExploreBudget, GridAxis,
    SweepOptions,
};
use mhla_core::{report, Mhla, MhlaConfig, MhlaError};
use mhla_hierarchy::serdes::platform_to_json;
use mhla_hierarchy::{LayerId, Platform};
use mhla_ir::serdes::{program_to_json, program_value, Json};
use mhla_serve::protocol::{axes_value, platform_preset, ExploreRequest};
use mhla_serve::{Client, ErrorBody, Request, Response, ServedStatus, ServerOptions};

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

A flag that a subcommand's line above does not list is an error.

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
from the response. `grid` and `submit` build the same request from the
same flags, so both check them alike before any work or network I/O.
`mhla status` prints the server's cache and engine counters; `mhla
shutdown` drains it gracefully.
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
    /// The protocol's request parser refused the exploration the flags
    /// describe, before any work or network I/O.
    Request(ErrorBody),
    /// The server answered with a typed error response.
    Server(ErrorBody),
    /// Writing to stdout failed (closed pipe downstream, disk full, …).
    Stdout(std::io::Error),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(what) => write!(f, "{what} (run `mhla help` for usage)"),
            CliError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            CliError::Engine(e) => write!(f, "{e}"),
            CliError::Request(e) => write!(f, "{e}"),
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

/// Every subcommand, its handler and the flags it takes: exactly those
/// its USAGE line lists.
type Command = (
    &'static str,
    fn(&Flags) -> Result<(), CliError>,
    &'static str,
);

const COMMANDS: [Command; 10] = [
    ("help", cmd_help, ""),
    ("export", cmd_export, "--dir"),
    ("analyze", cmd_analyze, "--input --app --platform"),
    ("report", cmd_report, "--input --app --platform"),
    (
        "sweep",
        cmd_sweep,
        "--input --app --platform --layer --capacities --mode --max-evals --resume --out",
    ),
    (
        "grid",
        cmd_grid,
        "--input --app --platform --axes --mode --max-evals --resume --out",
    ),
    ("serve", cmd_serve, "--addr --workers --queue --cache-bytes"),
    (
        "submit",
        cmd_submit,
        "--input --app --platform --axes --mode --objective --max-evals --timeout-ms \
         --addr --out",
    ),
    ("status", cmd_status, "--addr"),
    ("shutdown", cmd_shutdown, "--addr"),
];

fn run(args: &[String]) -> Result<(), CliError> {
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => return Err(CliError::Usage("missing subcommand".into())),
    };
    let cmd = match cmd {
        "--help" | "-h" => "help",
        cmd => cmd,
    };
    match COMMANDS.iter().find(|(name, ..)| *name == cmd) {
        Some((_, handler, allowed)) => handler(&Flags::parse(cmd, rest, allowed)?),
        None => Err(CliError::Usage(format!("unknown subcommand `{cmd}`"))),
    }
}

// ---------------------------------------------------------------------------
// Flag parsing
// ---------------------------------------------------------------------------

/// The flags of one invocation. The exploration flags the protocol
/// checks (`--mode`, `--objective`, `--max-evals`, `--timeout-ms`) stay
/// text until [`explore_line`] puts them on the wire.
#[derive(Default)]
struct Flags {
    input: Option<PathBuf>,
    app: Option<String>,
    platform: Option<String>,
    layer: Option<usize>,
    capacities: Option<Vec<u64>>,
    axes: Option<String>,
    max_evals: Option<String>,
    mode: Option<String>,
    out: Option<PathBuf>,
    dir: Option<PathBuf>,
    resume: bool,
    addr: Option<String>,
    workers: Option<usize>,
    queue: Option<usize>,
    cache_bytes: Option<usize>,
    timeout_ms: Option<String>,
    objective: Option<String>,
}

impl Flags {
    /// Reads the flags of `mhla <cmd>`, refusing any flag not among the
    /// space-separated `allowed`.
    fn parse(cmd: &str, args: &[String], allowed: &str) -> Result<Flags, CliError> {
        let mut f = Flags::default();
        let mut i = 0;
        while i < args.len() {
            let flag = args[i].as_str();
            if !allowed.split_whitespace().any(|a| a == flag) {
                return Err(CliError::Usage(format!(
                    "`mhla {cmd}` does not take `{flag}`"
                )));
            }
            match flag {
                "--input" => f.input = Some(PathBuf::from(value(args, &mut i)?)),
                "--app" => f.app = Some(value(args, &mut i)?.to_string()),
                "--platform" => f.platform = Some(value(args, &mut i)?.to_string()),
                "--layer" => f.layer = Some(parse_number(value(args, &mut i)?, flag)?),
                "--capacities" => f.capacities = Some(parse_u64_list(value(args, &mut i)?, flag)?),
                "--axes" => f.axes = Some(value(args, &mut i)?.to_string()),
                "--max-evals" => f.max_evals = Some(value(args, &mut i)?.to_string()),
                "--mode" => f.mode = Some(value(args, &mut i)?.to_string()),
                "--out" => f.out = Some(PathBuf::from(value(args, &mut i)?)),
                "--dir" => f.dir = Some(PathBuf::from(value(args, &mut i)?)),
                "--resume" => f.resume = true,
                "--addr" => f.addr = Some(value(args, &mut i)?.to_string()),
                "--workers" => f.workers = Some(parse_number(value(args, &mut i)?, flag)?),
                "--queue" => f.queue = Some(parse_number(value(args, &mut i)?, flag)?),
                "--cache-bytes" => f.cache_bytes = Some(parse_number(value(args, &mut i)?, flag)?),
                "--timeout-ms" => f.timeout_ms = Some(value(args, &mut i)?.to_string()),
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
// The explore request
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

/// The `explore` request line the flags describe — what `submit` sends
/// and what `grid`, `sweep`, `analyze` and `report` parse in process.
/// The program document (`--input`, or the serialized `--app` built-in)
/// and a platform file go in inline, a platform preset by its name,
/// `--axes` as the wire array; `--mode`, `--objective`, `--max-evals` and
/// `--timeout-ms` go in as given, for the protocol to check.
fn explore_line(f: &Flags) -> Result<String, CliError> {
    let mut fields = vec![
        ("op".to_string(), Json::Str("explore".into())),
        ("program".to_string(), program_doc(f)?),
    ];
    if let Some(spec) = &f.platform {
        fields.push(("platform".into(), platform_doc(spec)?));
    }
    if let Some(spec) = &f.axes {
        fields.push(("axes".into(), axes_value(&parse_axes(spec)?)));
    }
    for (key, text) in [("objective", &f.objective), ("mode", &f.mode)] {
        if let Some(text) = text {
            fields.push((key.into(), Json::Str(text.clone())));
        }
    }
    for (key, text) in [("max_evals", &f.max_evals), ("timeout_ms", &f.timeout_ms)] {
        if let Some(text) = text {
            // A number goes in as one; anything else as a string, which
            // the protocol refuses with a typed error.
            let number = match Json::parse(text) {
                Ok(n @ Json::Num(_)) => n,
                _ => Json::Str(text.clone()),
            };
            fields.push((key.into(), number));
        }
    }
    Ok(Json::Obj(fields).render_compact())
}

/// Parses an explore line with the server's own parser.
fn parse_request(line: &str) -> Result<ExploreRequest, CliError> {
    match Request::parse(line).map_err(CliError::Request)? {
        Request::Explore(req) => Ok(*req),
        _ => Err(CliError::Usage("not an explore request".into())),
    }
}

/// The program of `--input` (its JSON document) or `--app` (a built-in,
/// serialized).
fn program_doc(f: &Flags) -> Result<Json, CliError> {
    match (&f.input, &f.app) {
        (Some(path), None) => Ok(Json::parse(&read_file(path)?)?),
        (None, Some(name)) => mhla_apps::all_apps()
            .into_iter()
            .find(|a| a.name() == name)
            .map(|a| program_value(&a.program))
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

/// `--platform`: a preset by its name, else a platform JSON file.
fn platform_doc(spec: &str) -> Result<Json, CliError> {
    if platform_preset(spec).is_some() {
        return Ok(Json::Str(spec.to_string()));
    }
    Ok(Json::parse(&read_file(Path::new(spec))?)?)
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

/// The stderr note of a stopped exploration, run here or served.
fn stop_note(status: &ServedStatus) -> Option<String> {
    let ServedStatus::Stopped { cause, next_lex } = status else {
        return None;
    };
    let why = match cause.as_str() {
        "max_evals" => "evaluation budget exhausted",
        "deadline" => "deadline reached",
        _ => "cancelled",
    };
    Some(format!(
        "note: sweep stopped ({cause}), {why} — certified partial frontier over \
         the {next_lex} grid points decided (continue with a larger `--max-evals`, \
         or `--resume` on `grid` and `sweep`)"
    ))
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

/// `mhla help`: the usage text.
fn cmd_help(_: &Flags) -> Result<(), CliError> {
    out(USAGE)
}

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
    let ExploreRequest {
        program, platform, ..
    } = parse_request(&explore_line(f)?)?;
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
    let ExploreRequest {
        program, platform, ..
    } = parse_request(&explore_line(f)?)?;
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
    let mut req = parse_request(&explore_line(f)?)?;
    let layer = f.layer.map_or_else(|| req.platform.closest(), LayerId);
    let capacities = f.capacities.clone().unwrap_or_else(default_capacities);
    req.axes = Some(vec![GridAxis::new(layer, capacities)]);
    explore(f, &req)
}

/// `mhla grid`: a multi-layer grid sweep over `--axes` (default: the
/// platform's standard grid).
fn cmd_grid(f: &Flags) -> Result<(), CliError> {
    explore(f, &parse_request(&explore_line(f)?)?)
}

/// The exploration behind `sweep` and `grid`, run in process exactly as
/// a server runs the request ([`ExploreRequest::engine_inputs`]). CSV
/// goes to `--out` (with the Pareto frontier table on stdout) or to
/// stdout alone; `--max-evals` bounds the run and `--resume` drives the
/// engine's resume machinery to finish a stopped sweep in the same
/// invocation.
fn explore(f: &Flags, req: &ExploreRequest) -> Result<(), CliError> {
    let (program, platform) = (&req.program, &req.platform);
    let (config, axes, opts) = req.engine_inputs(None);
    let mut run = try_sweep_grid_run(program, platform, &axes, &config, &opts)?;
    if !run.status.is_complete() && f.resume {
        let unlimited = SweepOptions {
            budget: ExploreBudget::unlimited(),
            ..opts
        };
        run = try_sweep_grid_resume(program, platform, &axes, &config, &unlimited, &run)?;
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
    if let Some(note) = stop_note(&ServedStatus::from(&run.status)) {
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

/// `mhla submit`: one exploration against a running server; the response
/// is rendered back into the exact `mhla grid` CSV. The request line is
/// parsed here first, so bad input exits before any network I/O.
fn cmd_submit(f: &Flags) -> Result<(), CliError> {
    let line = explore_line(f)?;
    parse_request(&line)?;
    let addr = server_addr(f);
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
            if let Some(note) = stop_note(&frontier.status) {
                eprintln!("{note}");
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
