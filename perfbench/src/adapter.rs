//! The benchmark's one door into the repository. Every call into the
//! engine (`mhla-core`), the IR, platform and application crates, the
//! counting allocator and the batch server (`mhla-serve`) is made here,
//! so a change to those APIs edits this file only. The rest of the
//! benchmark works with the plain types defined below.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

use mhla_core::explore::{
    try_sweep_grid_pruned_with, try_sweep_grid_refined_with, try_sweep_grid_run,
    try_sweep_grid_run_in, GridAxis, GridPoint, GridSweepRun, PruneOptions, RefineOptions,
    RefineStats, SweepOptions,
};
use mhla_core::{pareto, report, EvalWorkspace, ExplorationContext, Mhla, MhlaConfig};
use mhla_hierarchy::{LayerId, Platform};
use mhla_reuse::ReuseAnalysis;
use mhla_serve::protocol::{self, ExploreRequest, Request, Response};
use mhla_serve::{CacheKey, ResultCache, Server, ServerOptions, Service, ServiceOptions};

/// Counts every allocation while counting is switched on; off (one relaxed
/// load per allocation) everywhere except the traced search replay.
#[global_allocator]
static ALLOC: mhla_alloc_counter::CountingAlloc = mhla_alloc_counter::CountingAlloc::new();

/// The optimisation objective of an exploration.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Objective {
    Cycles,
    Energy,
}

impl Objective {
    fn core(self) -> mhla_core::Objective {
        match self {
            Objective::Cycles => mhla_core::Objective::Cycles,
            Objective::Energy => mhla_core::Objective::Energy,
        }
    }

    /// The protocol spelling.
    pub fn wire(self) -> &'static str {
        match self {
            Objective::Cycles => "cycles",
            Objective::Energy => "energy",
        }
    }

    fn config(self) -> MhlaConfig {
        MhlaConfig {
            objective: self.core(),
            ..MhlaConfig::default()
        }
    }
}

/// The platform presets the benchmark explores.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Stack {
    ThreeLevel,
    FourLevel,
}

impl Stack {
    fn platform(self) -> Platform {
        match self {
            Stack::ThreeLevel => Platform::three_level_default(),
            Stack::FourLevel => Platform::four_level_default(),
        }
    }

    /// The protocol's preset name.
    pub fn wire(self) -> &'static str {
        match self {
            Stack::ThreeLevel => "three-level",
            Stack::FourLevel => "four-level",
        }
    }
}

/// One exploration axis: a layer index and the capacities to visit.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Axis {
    pub layer: usize,
    pub capacities: Vec<u64>,
}

fn grid_axes(axes: &[Axis]) -> Vec<GridAxis> {
    axes.iter()
        .map(|a| GridAxis::new(LayerId(a.layer), a.capacities.clone()))
        .collect()
}

/// A program of the application suite.
pub struct Program(mhla_ir::Program);

impl Program {
    pub fn name(&self) -> &str {
        self.0.name()
    }

    /// The program's `mhla.program` JSON document, on one line.
    pub fn to_json(&self) -> String {
        mhla_ir::serdes::program_value(&self.0).render_compact()
    }
}

/// The nine applications of the paper's evaluation.
pub fn suite() -> Vec<Program> {
    mhla_apps::all_apps()
        .into_iter()
        .map(|a| Program(a.program))
        .collect()
}

/// Parses a program document (the `ir` serdes layer).
pub fn parse_program(json: &str) -> Result<Program, String> {
    mhla_ir::serdes::program_from_json(json)
        .map(Program)
        .map_err(|e| format!("program parse: {e}"))
}

/// Which exploration engine an op runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Engine {
    /// Every grid point searched, in warm-started chunks (what the server
    /// runs).
    Exhaustive,
    /// Every grid point searched cold: each result is a standalone run's.
    ExhaustiveCold,
    /// Saturation-pruned grid sweep.
    Pruned,
    /// Certified adaptive refinement at the given depth.
    Refined { depth: usize },
}

/// Bookkeeping of one exploration, in the engine's own counts.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct ExploreCounts {
    /// Grid (or virtual lattice) points the exploration resolved.
    pub points: u64,
    /// Committed searches.
    pub evals: u64,
    /// Searches started, committed or discarded.
    pub attempted: u64,
    /// Searches discarded at commit time.
    pub speculative: u64,
    /// Points resolved without a search.
    pub skipped: u64,
    pub waves: u64,
    pub cells_closed_mask: u64,
    pub cells_opened: u64,
    pub corners_certified: u64,
}

/// The cost figures of one explored point.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Figures {
    pub cycles: u64,
    pub cycles_baseline: u64,
    pub energy_pj: f64,
    pub energy_baseline_pj: f64,
}

/// Indices of the cycles and energy Pareto surfaces.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Fronts {
    pub cycles: Vec<usize>,
    pub energy: Vec<usize>,
}

/// A finished exploration.
pub struct Exploration {
    run: GridSweepRun,
    refine: Option<RefineStats>,
    pub counts: ExploreCounts,
}

fn complete(run: &GridSweepRun) -> Result<(), String> {
    if run.status.is_complete() {
        Ok(())
    } else {
        Err(format!("exploration stopped early: {:?}", run.status))
    }
}

/// Runs one exploration from scratch: reuse analysis, context, search,
/// all inside the engine call.
pub fn explore(
    program: &Program,
    stack: Stack,
    axes: &[Axis],
    objective: Objective,
    engine: Engine,
) -> Result<Exploration, String> {
    let platform = stack.platform();
    let axes = grid_axes(axes);
    let config = objective.config();
    let e = |e: mhla_core::MhlaError| e.to_string();
    let exploration = match engine {
        Engine::Exhaustive | Engine::ExhaustiveCold => {
            let opts = SweepOptions {
                warm_start: engine == Engine::Exhaustive,
                ..SweepOptions::default()
            };
            exhaustive(try_sweep_grid_run(&program.0, &platform, &axes, &config, &opts).map_err(e)?)
        }
        Engine::Pruned => {
            let p = try_sweep_grid_pruned_with(
                &program.0,
                &platform,
                &axes,
                &config,
                &PruneOptions::default(),
            )
            .map_err(e)?;
            let s = p.stats;
            Exploration {
                counts: ExploreCounts {
                    points: s.candidates as u64,
                    evals: s.evaluated as u64,
                    attempted: (s.evaluated + p.speculative_evals) as u64,
                    speculative: p.speculative_evals as u64,
                    skipped: s.skipped() as u64,
                    waves: p.waves as u64,
                    ..ExploreCounts::default()
                },
                refine: None,
                run: GridSweepRun {
                    evals: p.search_legs,
                    seed_wins: p.seed_wins,
                    winners: Vec::new(),
                    candidates: s.candidates,
                    status: p.status,
                    sweep: p.sweep,
                },
            }
        }
        Engine::Refined { depth } => {
            let r = try_sweep_grid_refined_with(
                &program.0,
                &platform,
                &axes,
                &config,
                &RefineOptions::default().depth(depth),
            )
            .map_err(e)?;
            let s = r.stats;
            let virtual_points = usize::try_from(s.virtual_points).unwrap_or(usize::MAX);
            Exploration {
                counts: ExploreCounts {
                    points: s.virtual_points,
                    evals: s.evaluated as u64,
                    attempted: r.search_legs as u64,
                    speculative: 0,
                    skipped: s.virtual_points - s.evaluated as u64,
                    waves: r.waves as u64,
                    cells_closed_mask: s.cells_closed_mask as u64,
                    cells_opened: s.cells_opened as u64,
                    corners_certified: s.corners_certified as u64,
                },
                refine: Some(s),
                run: GridSweepRun {
                    evals: r.search_legs,
                    seed_wins: r.seed_wins,
                    winners: Vec::new(),
                    candidates: virtual_points,
                    status: r.status,
                    sweep: r.sweep,
                },
            }
        }
    };
    complete(&exploration.run)?;
    Ok(exploration)
}

fn exhaustive(run: GridSweepRun) -> Exploration {
    let points = run.sweep.points.len() as u64;
    Exploration {
        counts: ExploreCounts {
            points: run.candidates as u64,
            evals: points,
            attempted: points,
            ..ExploreCounts::default()
        },
        refine: None,
        run,
    }
}

impl Exploration {
    /// Both Pareto surfaces (the `pareto` layer).
    pub fn fronts(&self) -> Fronts {
        Fronts {
            cycles: self.run.sweep.pareto_cycles(),
            energy: self.run.sweep.pareto_energy(),
        }
    }

    /// The `mhla grid` CSV of the explored points (the `report` layer).
    pub fn csv(&self) -> String {
        report::grid_csv(&self.run.sweep)
    }

    /// Cost figures per explored point, in point order.
    pub fn figures(&self) -> Vec<Figures> {
        self.run
            .sweep
            .points
            .iter()
            .map(|p| Figures {
                cycles: p.result.mhla_te_cycles(),
                cycles_baseline: p.result.baseline_cycles(),
                energy_pj: p.result.mhla_energy_pj(),
                energy_baseline_pj: p.result.baseline_energy_pj(),
            })
            .collect()
    }

    /// Whether both frontiers hold the same points (capacities and full
    /// results, bit for bit) as `other`'s.
    pub fn same_fronts(&self, mine: &Fronts, other: &Exploration, theirs: &Fronts) -> bool {
        fn pick<'e>(e: &'e Exploration, idx: &[usize]) -> Vec<&'e GridPoint> {
            idx.iter().map(|&i| &e.run.sweep.points[i]).collect()
        }
        pick(self, &mine.cycles) == pick(other, &theirs.cycles)
            && pick(self, &mine.energy) == pick(other, &theirs.energy)
    }

    /// Whether every point `coarse` explored that this exploration also
    /// committed has a bit-identical result here (a refinement may certify
    /// a coarse point without searching it).
    pub fn agrees_with_points_of(&self, coarse: &Exploration) -> bool {
        let mine = &self.run.sweep.points;
        coarse.run.sweep.points.iter().all(|cp| {
            mine.binary_search_by(|p| p.capacities.cmp(&cp.capacities))
                .map_or(true, |i| mine[i].result == cp.result)
        })
    }

    /// Whether this exploration's frontiers dominate-or-equal `coarse`'s on
    /// both surfaces.
    pub fn fronts_dominate(&self, mine: &Fronts, coarse: &Exploration, theirs: &Fronts) -> bool {
        let surface = |e: &Exploration, idx: &[usize], energy: bool| -> Vec<Vec<f64>> {
            idx.iter()
                .map(|&i| {
                    let p = &e.run.sweep.points[i];
                    let mut c: Vec<f64> = p.capacities.iter().map(|&c| c as f64).collect();
                    c.push(if energy {
                        p.energy_pj()
                    } else {
                        p.cycles() as f64
                    });
                    c
                })
                .collect()
        };
        pareto::front_dominates(
            &surface(self, &mine.cycles, false),
            &surface(coarse, &theirs.cycles, false),
        ) && pareto::front_dominates(
            &surface(self, &mine.energy, true),
            &surface(coarse, &theirs.energy, true),
        )
    }

    /// A digest of the exploration's rendered CSV and its refinement
    /// bookkeeping: equal digests mean the same output and statistics.
    pub fn digest(&self, csv: &str) -> u64 {
        let text = format!("{csv}{:?}", self.refine);
        let h = mhla_core::fingerprint::fnv1a_128(text.as_bytes());
        (h >> 64) as u64 ^ h as u64
    }
}

/// A program's reuse analysis (the `reuse` layer).
pub struct Analysis(ReuseAnalysis);

pub fn analyze(program: &Program) -> Analysis {
    Analysis(ReuseAnalysis::analyze(&program.0))
}

/// A shared exploration context (the `core.context` layer).
pub struct Context<'p> {
    ctx: ExplorationContext<'p>,
    stack: Stack,
}

pub fn build_context<'p>(
    program: &'p Program,
    stack: Stack,
    objective: Objective,
    analysis: Analysis,
) -> Context<'p> {
    Context {
        ctx: ExplorationContext::with_reuse(
            &program.0,
            &stack.platform(),
            objective.config(),
            analysis.0,
        ),
        stack,
    }
}

/// The exhaustive engine over a prebuilt context — the server's miss path.
pub fn explore_in(context: &Context<'_>, axes: &[Axis]) -> Result<Exploration, String> {
    let run = try_sweep_grid_run_in(
        &context.ctx,
        &context.stack.platform(),
        &grid_axes(axes),
        &SweepOptions::default(),
    )
    .map_err(|e| e.to_string())?;
    complete(&run)?;
    Ok(exhaustive(run))
}

/// What replaying an exploration's searched points one by one measured.
#[derive(Clone, Copy, PartialEq, Default, Debug)]
pub struct SearchReplay {
    pub evals: u64,
    /// Wall time of the searches alone, milliseconds.
    pub ms: f64,
    pub legs: u64,
    pub allocations: u64,
    /// Points whose replayed result differs from the exploration's.
    pub mismatches: u64,
}

/// Replays up to `max_points` of the exploration's points (evenly spaced)
/// as standalone searches through [`Mhla::with_context`], timing each
/// search and counting its allocations.
pub fn replay_search(
    context: &Context<'_>,
    exploration: &Exploration,
    max_points: usize,
) -> SearchReplay {
    let sweep = &exploration.run.sweep;
    let n = sweep.points.len();
    let step = n.div_ceil(max_points.max(1)).max(1);
    let mut ws = EvalWorkspace::default();
    let mut out = SearchReplay::default();
    let mut platform = context.stack.platform();
    for point in sweep.points.iter().step_by(step) {
        let sizes: Vec<(LayerId, u64)> = sweep
            .layers
            .iter()
            .copied()
            .zip(point.capacities.iter().copied())
            .collect();
        platform.set_layer_capacities(&sizes);
        let mhla = Mhla::with_context(&context.ctx, &platform);
        let t = std::time::Instant::now();
        let ((result, stats), allocations, _) = mhla_alloc_counter::allocations_during(|| {
            mhla.run_with_stats_in(None, Some(context.ctx.moves()), &mut ws)
        });
        out.ms += t.elapsed().as_secs_f64() * 1e3;
        out.evals += 1;
        out.legs += stats.search_legs as u64;
        out.allocations += allocations;
        out.mismatches += u64::from(result != point.result);
    }
    out
}

// ---------------------------------------------------------------------------
// The server's protocol, fingerprint and cache layers
// ---------------------------------------------------------------------------

/// An `explore` request line.
pub fn explore_request(
    program_json: &str,
    stack: Stack,
    axes: &[Axis],
    objective: Objective,
) -> String {
    let axes: Vec<String> = axes
        .iter()
        .map(|a| {
            let caps: Vec<String> = a.capacities.iter().map(u64::to_string).collect();
            format!(
                "{{\"layer\":{},\"capacities\":[{}]}}",
                a.layer,
                caps.join(",")
            )
        })
        .collect();
    format!(
        "{{\"op\":\"explore\",\"program\":{program_json},\"platform\":\"{}\",\"objective\":\"{}\",\"axes\":[{}]}}",
        stack.wire(),
        objective.wire(),
        axes.join(",")
    )
}

/// The `status` request line.
pub const STATUS_REQUEST: &str = "{\"op\":\"status\"}";

/// A parsed explore request (the `serve.protocol` layer).
pub struct ParsedRequest(Box<ExploreRequest>);

pub fn parse_request(line: &str) -> Result<ParsedRequest, String> {
    match Request::parse(line) {
        Ok(Request::Explore(req)) => Ok(ParsedRequest(req)),
        Ok(_) => Err("not an explore request".to_string()),
        Err(e) => Err(e.to_string()),
    }
}

/// A request's content address (the `core.fingerprint` layer).
pub struct RequestKey(CacheKey);

pub fn request_key(req: &ParsedRequest) -> Result<RequestKey, String> {
    let r = &req.0;
    let axes = r.axes.as_ref().ok_or("request without axes")?;
    Ok(RequestKey(CacheKey {
        program_fp: mhla_core::fingerprint::program_fingerprint(&r.program),
        platform_fp: mhla_core::fingerprint::platform_fingerprint(&r.platform),
        options: protocol::canonical_options(&r.objective, r.mode, axes),
    }))
}

/// The success line of a cache hit (the `serve.protocol` renderer).
pub fn cached_line(body: &str) -> String {
    protocol::ok_line(Some(true), body)
}

/// The miss line the server renders for an exploration.
pub fn miss_line(exploration: &Exploration, key: &RequestKey) -> String {
    protocol::ok_line(
        Some(false),
        &protocol::result_body(&exploration.run, key.0.program_fp, key.0.platform_fp),
    )
}

/// Counters of a result cache.
#[derive(Clone, Copy, PartialEq, Eq, Default, Debug)]
pub struct CacheCounters {
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub bytes: u64,
    pub engine_runs: u64,
    pub points_evaluated: u64,
}

/// A content-addressed result cache (the `serve.cache` layer).
pub struct Cache(ResultCache);

impl Cache {
    pub fn new(bytes: usize) -> Self {
        Cache(ResultCache::new(bytes))
    }

    pub fn get(&mut self, key: &RequestKey) -> Option<String> {
        self.0.get(&key.0)
    }

    pub fn insert(&mut self, key: RequestKey, body: String) {
        self.0.insert(key.0, body);
    }

    pub fn counters(&self) -> CacheCounters {
        let s = self.0.stats();
        CacheCounters {
            hits: s.hits,
            misses: s.misses,
            evictions: s.evictions,
            bytes: self.0.bytes() as u64,
            ..CacheCounters::default()
        }
    }
}

// ---------------------------------------------------------------------------
// The batch server
// ---------------------------------------------------------------------------

/// An in-process `mhla serve` instance on loopback.
pub struct ServerHandle(Server);

pub fn start_server(workers: usize) -> io::Result<ServerHandle> {
    Server::bind(
        "127.0.0.1:0",
        ServerOptions {
            workers,
            ..ServerOptions::default()
        },
    )
    .map(ServerHandle)
}

impl ServerHandle {
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// Graceful shutdown; returns once every server thread has ended.
    pub fn stop(self) -> io::Result<()> {
        let reply = mhla_serve::request_once(self.0.addr(), "{\"op\":\"shutdown\"}");
        self.0.join();
        reply.map(drop)
    }
}

/// One client connection. Unlike `mhla_serve::Client`, which writes a
/// line and its newline separately, it sends each request in one write
/// with Nagle's algorithm off, so a stall it measures is the server's.
pub struct Conn {
    stream: TcpStream,
    pending: Vec<u8>,
}

pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(Conn {
        stream,
        pending: Vec::new(),
    })
}

impl Conn {
    /// Sends one request line and returns its response line.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        let mut request = Vec::with_capacity(line.len() + 1);
        request.extend_from_slice(line.as_bytes());
        request.push(b'\n');
        self.stream.write_all(&request)?;
        let mut buf = [0u8; 64 * 1024];
        loop {
            if let Some(nl) = self.pending.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = self.pending.drain(..=nl).collect();
                return String::from_utf8(line[..nl].to_vec())
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e));
            }
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.pending.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Splits a successful explore response into its `cached` flag and its
/// result body (what the server caches); `None` for any other line.
pub fn reply_body(line: &str) -> Option<(bool, &str)> {
    let rest = line.strip_prefix("{\"ok\":true,\"cached\":")?;
    let (cached, rest) = match rest.strip_prefix("true,") {
        Some(rest) => (true, rest),
        None => (false, rest.strip_prefix("false,")?),
    };
    Some((cached, rest.strip_prefix("\"result\":")?.strip_suffix('}')?))
}

/// A parsed explore response.
pub struct Served {
    pub csv: String,
    pub figures: Vec<Figures>,
    pub fronts: Fronts,
    pub complete: bool,
}

pub fn parse_served(line: &str) -> Result<Served, String> {
    match Response::parse(line).map_err(|e| e.to_string())? {
        Response::Frontier { frontier, .. } => Ok(Served {
            csv: frontier.grid_csv(),
            figures: frontier
                .points
                .iter()
                .map(|p| Figures {
                    cycles: p.cycles_mhla_te,
                    cycles_baseline: p.cycles_baseline,
                    energy_pj: p.energy_mhla_pj,
                    energy_baseline_pj: p.energy_baseline_pj,
                })
                .collect(),
            fronts: Fronts {
                cycles: frontier.pareto_cycles.iter().map(|&i| i as usize).collect(),
                energy: frontier.pareto_energy.iter().map(|&i| i as usize).collect(),
            },
            complete: frontier.status == protocol::ServedStatus::Complete,
        }),
        Response::Error(e) => Err(e.to_string()),
        Response::Other(_) => Err("not an explore response".to_string()),
    }
}

/// Reads the cache and engine counters out of a `status` response.
pub fn parse_status(line: &str) -> Result<CacheCounters, String> {
    use mhla_ir::serdes::{field, Json};
    let Response::Other(body) = Response::parse(line).map_err(|e| e.to_string())? else {
        return Err("not a status response".to_string());
    };
    let get = |section: &str, key: &str| -> Result<u64, String> {
        let o = body.as_object("status").map_err(|e| e.to_string())?;
        let s: &Json = field(o, section, "status").map_err(|e| e.to_string())?;
        let so = s.as_object(section).map_err(|e| e.to_string())?;
        field(so, key, section)
            .and_then(|v| v.as_u64(key))
            .map_err(|e| e.to_string())
    };
    Ok(CacheCounters {
        hits: get("cache", "hits")?,
        misses: get("cache", "misses")?,
        evictions: get("cache", "evictions")?,
        bytes: get("cache", "bytes")?,
        engine_runs: get("engine", "runs")?,
        points_evaluated: get("engine", "points_evaluated")?,
    })
}

/// A socket-free twin of the server's request handler.
pub struct Twin(Service);

impl Twin {
    pub fn new() -> Self {
        Twin(Service::new(ServiceOptions::default()))
    }

    pub fn handle(&self, line: &str) -> String {
        self.0.handle_line(line)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reply_body_splits_the_server_envelope() {
        let body = "{\"points\":[1,2]}";
        assert_eq!(reply_body(&cached_line(body)), Some((true, body)));
        assert_eq!(
            reply_body(&protocol::ok_line(Some(false), body)),
            Some((false, body))
        );
        assert_eq!(reply_body(&protocol::ok_line(None, body)), None);
        assert_eq!(reply_body("{\"ok\":false,\"error\":{}}"), None);
    }
}
