//! The grid workloads: one op is one (application, objective) exploration
//! of the four-level L1×L2×L3 grid, run the way `mhla grid` runs it —
//! parse the program document, explore, select both Pareto frontiers,
//! render the CSV.
//!
//! * `grid_pruned` runs the saturation-pruned engine over the nine
//!   applications × {cycles, energy};
//! * `grid_refined` runs the certified refinement at
//!   [`spec::REFINE_DEPTH`] over eight applications under the cycles
//!   objective.
//!
//! Each run does, in order: a timed set-up (for `setup_s`); per op the
//! exhaustive reference sweep, one warm-up run and one request to a
//! socket-free twin of the server's handler, which stores the answer in
//! its cache (none of them timed); then whole passes over the ops in a
//! seeded order until `--seconds` of them are measured, each pass
//! followed by one more timed set-up. Every op is checked after its timer
//! stops. Every op runs the engine, so on these workloads `miss_*` equal
//! `latency_*`; `hit_*` time the twin answering a repeat of the op from
//! its cache.

use std::time::{Duration, Instant};

use crate::adapter::{
    self, Cache, Engine, Exploration, ExploreCounts, Fronts, Objective, SearchReplay, Stack, Twin,
};
use crate::measure::{best_gains, ms, ms_since, EndToEnd, Layers, SetupTimer};
use crate::probe::ServerProbe;
use crate::stream::Rng;
use crate::{spec, sys, Args, Outcome};

/// Hit samples per op.
const HITS_PER_OP: usize = 4;

/// Back-to-back answers per hit sample; a sample is their mean. A single
/// answer takes a fraction of a millisecond, so one descheduling of the
/// virtual CPU would otherwise decide a run's tail.
const HIT_BATCH: usize = 8;

/// Set-ups timed together per sample: one takes under a millisecond.
const SETUP_BATCH: usize = 32;

/// Passes a run makes however long they take: every op is measured at
/// least this often, and a traced run alternates traced and untraced
/// passes.
const MIN_PASSES: usize = 2;

/// CPU steal a measured pass may see: this share of the machine's CPU
/// time during the pass, or one clock tick if that is more.
const STEAL_LIMIT: f64 = 0.01;

/// How many times `--seconds` a run may take to find passes within
/// [`STEAL_LIMIT`]; then it stops with those it has (at least one).
const STEAL_PATIENCE: f64 = 2.0;

/// Searched points replayed per op in a traced run.
const REPLAY_POINTS: usize = 128;

struct Op {
    app: &'static str,
    objective: Objective,
    json: String,
    line: String,
}

fn setup(apps: &[&'static str], objectives: &[Objective]) -> Result<Vec<Op>, String> {
    let programs = adapter::suite();
    let axes = spec::standard_axes(Stack::FourLevel);
    let mut ops = Vec::new();
    for &app in apps {
        let program = programs
            .iter()
            .find(|p| p.name() == app)
            .ok_or_else(|| format!("application {app} is missing from the suite"))?;
        let json = program.to_json();
        for &objective in objectives {
            ops.push(Op {
                app,
                objective,
                line: adapter::explore_request(&json, Stack::FourLevel, &axes, objective),
                json: json.clone(),
            });
        }
    }
    Ok(ops)
}

/// The server's hit path step by step (parse, fingerprint, lookup,
/// render), for the traced run's per-layer times.
fn hit_steps(line: &str, cache: &mut Cache) -> Result<[f64; 4], String> {
    let t0 = Instant::now();
    let req = adapter::parse_request(line)?;
    let t1 = Instant::now();
    let key = adapter::request_key(&req)?;
    let t2 = Instant::now();
    let body = cache.get(&key).ok_or("repeat missed the cache")?;
    let t3 = Instant::now();
    std::hint::black_box(adapter::cached_line(&body));
    let t4 = Instant::now();
    Ok([ms(t1 - t0), ms(t2 - t1), ms(t3 - t2), ms(t4 - t3)])
}

/// What one op produced, for its checks and the report.
struct OpRecord {
    latency_ms: f64,
    points: u64,
    /// Digest of the op's CSV and refinement statistics.
    digest: u64,
    /// The checks against the exhaustive sweep, made after the timer
    /// stopped.
    matches_exhaustive: bool,
    /// Percent cycles and energy reductions of the best frontier points.
    gains: (f64, f64),
    trace: Option<OpTrace>,
}

/// The per-layer record of a traced op: its spans, and layer calls timed
/// after it (reuse analysis, context build, its searches replayed one by
/// one).
struct OpTrace {
    parse_ms: f64,
    sweep_ms: f64,
    sweep_cpu_ms: f64,
    pareto_ms: f64,
    render_ms: f64,
    reuse_ms: f64,
    context_ms: f64,
    counts: ExploreCounts,
    replay: SearchReplay,
}

/// Runs one op (parse, explore, Pareto, CSV — the timed part), then checks
/// it against the exhaustive sweep of the same grid and, when traced,
/// times its layers one by one.
fn execute(
    op: &Op,
    engine: Engine,
    traced: bool,
    exhaustive: &Exploration,
) -> Result<OpRecord, String> {
    let axes = spec::standard_axes(Stack::FourLevel);
    let t0 = Instant::now();
    let program = adapter::parse_program(&op.json)?;
    let t1 = Instant::now();
    let cpu0 = if traced { sys::process_cpu_ms() } else { None };
    let exploration = adapter::explore(&program, Stack::FourLevel, &axes, op.objective, engine)?;
    let cpu1 = if traced { sys::process_cpu_ms() } else { None };
    let t2 = Instant::now();
    let fronts = exploration.fronts();
    let t3 = Instant::now();
    let csv = exploration.csv();
    let latency_ms = ms_since(t0);

    let mut record = OpRecord {
        latency_ms,
        points: exploration.counts.points,
        digest: exploration.digest(&csv),
        matches_exhaustive: match check(&exploration, &fronts, exhaustive, engine) {
            Ok(()) => true,
            Err(why) => {
                eprintln!("op {} ({}): {why}", op.app, op.objective.wire());
                false
            }
        },
        gains: best_gains(&exploration.figures(), &fronts),
        trace: None,
    };
    if traced {
        let t = Instant::now();
        let analysis = adapter::analyze(&program);
        let reuse_ms = ms_since(t);
        let t = Instant::now();
        let context = adapter::build_context(&program, Stack::FourLevel, op.objective, analysis);
        let context_ms = ms_since(t);
        record.trace = Some(OpTrace {
            parse_ms: ms(t1 - t0),
            sweep_ms: ms(t2 - t1),
            sweep_cpu_ms: cpu1.zip(cpu0).map_or(f64::NAN, |(b, a)| b - a),
            pareto_ms: ms(t3 - t2),
            render_ms: latency_ms - ms(t3 - t0),
            reuse_ms,
            context_ms,
            counts: exploration.counts,
            replay: adapter::replay_search(&context, &exploration, REPLAY_POINTS),
        });
    }
    Ok(record)
}

/// The exhaustive cold sweep of an op's grid.
fn reference_sweep(op: &Op) -> Result<Exploration, String> {
    let program = adapter::parse_program(&op.json)?;
    let axes = spec::standard_axes(Stack::FourLevel);
    adapter::explore(
        &program,
        Stack::FourLevel,
        &axes,
        op.objective,
        Engine::ExhaustiveCold,
    )
}

/// Checks an op against the exhaustive sweep; names the first check that
/// fails. A pruned sweep must select exactly the exhaustive frontiers; a
/// refinement must agree bit for bit on every coarse point it searched and
/// its frontiers must dominate-or-equal the coarse ones.
fn check(
    exploration: &Exploration,
    fronts: &Fronts,
    exhaustive: &Exploration,
    engine: Engine,
) -> Result<(), &'static str> {
    let exhaustive_fronts = exhaustive.fronts();
    match engine {
        Engine::Refined { .. } => {
            if !exploration.agrees_with_points_of(exhaustive) {
                return Err("a coarse point differs from the exhaustive sweep's");
            }
            if !exploration.fronts_dominate(fronts, exhaustive, &exhaustive_fronts) {
                return Err("frontiers trail the exhaustive coarse sweep's");
            }
        }
        _ => {
            if !exploration.same_fronts(fronts, exhaustive, &exhaustive_fronts) {
                return Err("frontiers differ from the exhaustive sweep's");
            }
        }
    }
    Ok(())
}

fn ops_of(engine: Engine) -> (&'static [&'static str], &'static [Objective]) {
    match engine {
        Engine::Refined { .. } => (&spec::REFINED_APPS, &[Objective::Cycles]),
        _ => (&spec::APPS, &[Objective::Cycles, Objective::Energy]),
    }
}

/// What each op is checked against, computed before timing.
struct Reference {
    /// The exhaustive cold sweep.
    exhaustive: Exploration,
    /// Digest of the warm-up run's output.
    digest: u64,
    /// The result body the twin answered the op's first request with.
    body: String,
}

pub fn run(args: &Args, engine: Engine) -> Result<Outcome, String> {
    let (apps, objectives) = ops_of(engine);

    let mut e2e = EndToEnd::default();
    let mut setups = SetupTimer::default();
    let mut timed_setup = || setups.sample(SETUP_BATCH, || setup(apps, objectives), |_| Ok(()));
    let ops = timed_setup()?;

    // References, the warm-up pass and the twin's cache, outside every
    // timed region. The traced run's step-by-step hit path reads a cache
    // of its own, filled with the same bodies.
    let twin = Twin::new();
    let mut cache = Cache::new(256 << 20);
    let mut references = Vec::with_capacity(ops.len());
    for op in &ops {
        let exhaustive = reference_sweep(op)?;
        let warm = execute(op, engine, false, &exhaustive)?;
        if !warm.matches_exhaustive {
            return Err(format!(
                "warm-up op {} does not match the exhaustive sweep",
                op.app
            ));
        }
        e2e.gains.push(warm.gains);
        let reply = twin.handle(&op.line);
        let body = match adapter::reply_body(&reply) {
            Some((false, body)) => body.to_string(),
            _ => {
                return Err(format!(
                    "the server's handler failed op {}: {}",
                    op.app,
                    &reply[..reply.len().min(200)]
                ))
            }
        };
        let key = adapter::request_key(&adapter::parse_request(&op.line)?)?;
        cache.insert(key, body.clone());
        references.push(Reference {
            exhaustive,
            digest: warm.digest,
            body,
        });
    }

    let mut layers = Layers::default();
    let probe = if args.trace {
        Some(ServerProbe::start()?)
    } else {
        None
    };

    // A time-limited run measures `--seconds` of passes during which the
    // hypervisor took (almost) no CPU time from this machine: its pauses
    // slow every op of a pass at once, and on a shared host they would
    // decide the run's figures. Passes over the limit still run and are
    // checked; they are left out of the timings. A traced run keeps every
    // pass, since it alternates traced and untraced ones.
    let filter = !args.trace;
    let give_up = args.seconds.mul_f64(STEAL_PATIENCE);
    let mut rng = Rng::derive(args.seed, 0, 0);
    let start = Instant::now();
    let (mut pass, mut measured, mut left_out) = (0usize, 0usize, 0usize);
    let mut measured_time = Duration::ZERO;
    let mut replies = Vec::with_capacity(HIT_BATCH);
    while (measured < MIN_PASSES || measured_time < args.seconds) && start.elapsed() < give_up {
        let traced = args.trace && pass.is_multiple_of(2);
        let mark = (
            e2e.latency_ms.len(),
            e2e.hit_ms.len(),
            e2e.busy_s,
            e2e.points,
        );
        let steal_before = sys::steal_ticks();
        let pass_start = Instant::now();
        for i in rng.permutation(ops.len()) {
            let (op, reference) = (&ops[i], &references[i]);
            e2e.attempted += 1;
            let record = match execute(op, engine, traced, &reference.exhaustive) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("op {} ({}) failed: {e}", op.app, op.objective.wire());
                    e2e.failed += 1;
                    continue;
                }
            };
            let mut ok = record.matches_exhaustive;
            if record.digest != reference.digest {
                eprintln!("op {}: output differs from the warm-up run's", op.app);
                ok = false;
            }
            e2e.latency_ms.push(record.latency_ms);
            e2e.miss_ms.push(record.latency_ms);
            e2e.busy_s += record.latency_ms / 1e3;
            e2e.points += record.points;
            if args.trace {
                if traced {
                    layers.traced_latency_ms.push(record.latency_ms);
                } else {
                    layers.untraced_latency_ms.push(record.latency_ms);
                }
            }

            // Repeats of the op, answered by the twin from its cache; each
            // must carry the body of the op's first answer.
            for _ in 0..HITS_PER_OP {
                replies.clear();
                let t = Instant::now();
                for _ in 0..HIT_BATCH {
                    replies.push(twin.handle(&op.line));
                }
                e2e.hit_ms.push(ms_since(t) / HIT_BATCH as f64);
                for reply in &replies {
                    if adapter::reply_body(reply) != Some((true, reference.body.as_str())) {
                        eprintln!("a repeat of {} was not its first answer", op.app);
                        ok = false;
                    }
                }
            }

            if let (Some(t), Some(probe)) = (&record.trace, &probe) {
                for _ in 0..HIT_BATCH {
                    let steps = hit_steps(&op.line, &mut cache)?;
                    layers.protocol_parse_ms.push(steps[0]);
                    layers.fingerprint_ms.push(steps[1]);
                    layers.protocol_render_ms.push(steps[3]);
                }
                layers.ir_parse_ms.push(t.parse_ms);
                layers.sweep_ms.push(t.sweep_ms);
                layers.sweep_cpu_ms.push(t.sweep_cpu_ms);
                layers.pareto_ms.push(t.pareto_ms);
                layers.render_ms.push(t.render_ms);
                layers.reuse_ms.push(t.reuse_ms);
                layers.context_ms.push(t.context_ms);
                layers.add_counts(&t.counts);
                layers.add_search(&t.replay);
                layers.overhead_ms.push(probe.overhead_ms()?);
                ok &= t.replay.mismatches == 0;
            }
            if !ok {
                eprintln!(
                    "op {} ({}) gave a wrong answer",
                    op.app,
                    op.objective.wire()
                );
                e2e.failed += 1;
            }
        }
        let took = pass_start.elapsed();
        let stolen = sys::steal_ticks()
            .zip(steal_before)
            .map_or(0, |(after, before)| after.saturating_sub(before));
        let allowed =
            (STEAL_LIMIT * took.as_secs_f64() * sys::CLOCK_TICKS_PER_S * sys::nproc() as f64)
                .max(1.0);
        let last_chance = measured == 0 && start.elapsed() >= give_up;
        if filter && stolen as f64 > allowed && !last_chance {
            e2e.latency_ms.truncate(mark.0);
            e2e.miss_ms.truncate(mark.0);
            e2e.hit_ms.truncate(mark.1);
            (e2e.busy_s, e2e.points) = (mark.2, mark.3);
            left_out += 1;
        } else {
            measured += 1;
            measured_time += took;
        }
        pass += 1;
        // One more set-up sample per pass, outside the pass's timing.
        timed_setup()?;
    }
    e2e.setup_s = setups.kept();

    if let Some(probe) = probe {
        probe.stop()?;
    }
    let mut counters = cache.counters();
    counters.engine_runs = layers.explorations;
    counters.points_evaluated = layers.counts.evals;
    layers.cache = counters;

    let notes = vec![
        format!(
            "{} ops per pass, {measured} passes measured, {left_out} left out for CPU steal, \
             {HITS_PER_OP} hit samples of {HIT_BATCH} answers per op",
            ops.len()
        ),
        setups.note(SETUP_BATCH),
    ];
    Ok(Outcome { e2e, layers, notes })
}
