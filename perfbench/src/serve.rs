//! The `serve_mixed` workload: an in-process `mhla serve` instance on
//! loopback with one worker, and two client connections in a closed loop
//! sending a seeded stream of explore requests (nine applications × two
//! platform presets × two objectives × seeded sub-grids of the standard
//! grids), about 80% of them repeats of an earlier request of the same
//! client.
//!
//! A set-up builds the request documents, starts a server and connects
//! the clients; half of the timed set-ups run before the timed requests,
//! half after them.
//!
//! Checks, after the timed run: every response is a success; every cache
//! hit is byte-identical to its key's first response; and each distinct
//! key's served CSV equals the CSV of the same exploration run in-process.
//!
//! The quality figures (`cycles_gain_pct`, `energy_gain_pct`) come from a
//! fixed seeded set of keys, the first block of each stack's key order
//! (every application × objective once), requested after the timed run
//! and checked the same way, so how far down the stream a run got does
//! not move them.
//!
//! The traced run replays the request log on a socket-free twin of the
//! server's handler (for `server.overhead_ms`), reads the server's
//! `status` counters, and times the layers of each distinct request
//! in-process. Since all of that happens after the run, its traced and
//! untraced requests run the same code.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::adapter::{self, Conn, Engine, ServerHandle, Twin, STATUS_REQUEST};
use crate::measure::{best_gains, ms_since, EndToEnd, Layers, SetupTimer};
use crate::stream::{ClientStream, Key, KeyId, KeySource, COMBOS, STACKS};
use crate::{spec, sys, Args, Outcome};

/// Searched points replayed per distinct request in a traced run.
const REPLAY_POINTS: usize = 128;

/// Set-ups per sample. Each starts a server whose threads notice a
/// shutdown only at their next 50 ms poll, so a larger batch would
/// multiply the time spent stopping them.
const SETUP_BATCH: usize = 1;

/// Set-up samples taken before the timed requests, and again after them.
const SETUP_SAMPLES_EACH_SIDE: usize = 16;

struct Setup {
    programs: Vec<String>,
    keys: KeySource,
    server: ServerHandle,
    conns: Vec<Conn>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let suite = adapter::suite();
    let programs = spec::APPS
        .iter()
        .map(|&app| {
            suite
                .iter()
                .find(|p| p.name() == app)
                .map(adapter::Program::to_json)
                .ok_or_else(|| format!("application {app} is missing from the suite"))
        })
        .collect::<Result<Vec<String>, String>>()?;
    let server = adapter::start_server(spec::SERVE_WORKERS).map_err(|e| e.to_string())?;
    let conns = (0..spec::SERVE_CLIENTS)
        .map(|_| adapter::connect(server.addr()))
        .collect::<Result<Vec<Conn>, _>>()
        .map_err(|e| e.to_string())?;
    Ok(Setup {
        programs,
        keys: KeySource::new(seed),
        server,
        conns,
    })
}

/// Closes a set-up's connections and stops its server.
fn retire(setup: Setup) -> Result<(), String> {
    drop(setup.conns);
    setup.server.stop().map_err(|e| e.to_string())
}

fn request_line(programs: &[String], key: &Key) -> String {
    adapter::explore_request(&programs[key.app], key.stack, &key.axes, key.objective)
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    Hit,
    Miss,
    Error,
}

/// One request as the client saw it.
struct Sent {
    key: KeyId,
    /// Send time since the run started.
    at: Duration,
    latency_ms: f64,
    kind: Kind,
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientLog {
    sent: Vec<Sent>,
    /// The first response per distinct key.
    first: HashMap<Key, String>,
    /// Repeats whose body differs from the key's first response.
    mismatches: u64,
}

fn client(
    conn: &mut Conn,
    mut stream: ClientStream,
    keys: &KeySource,
    programs: &[String],
    start: Instant,
    run_for: Duration,
) -> ClientLog {
    let mut log = ClientLog::default();
    loop {
        let at = start.elapsed();
        if at >= run_for {
            return log;
        }
        let Some(id) = stream.next() else {
            return log;
        };
        let key = keys.key(id.0, id.1);
        let line = request_line(programs, &key);
        let t = Instant::now();
        let reply = conn.roundtrip(&line);
        let latency_ms = ms_since(t);
        let kind = match &reply {
            Ok(r) => match adapter::reply_body(r) {
                Some((true, _)) => Kind::Hit,
                Some((false, _)) => Kind::Miss,
                None => {
                    eprintln!("error response: {}", &r[..r.len().min(200)]);
                    Kind::Error
                }
            },
            Err(e) => {
                eprintln!("transport error: {e}");
                Kind::Error
            }
        };
        if let (Ok(reply), true) = (reply, kind != Kind::Error) {
            match log.first.get(&key) {
                Some(first) => {
                    let same = adapter::reply_body(first).map(|(_, body)| body)
                        == adapter::reply_body(&reply).map(|(_, body)| body);
                    log.mismatches += u64::from(!same);
                }
                None => {
                    log.first.insert(key, reply);
                }
            }
        }
        log.sent.push(Sent {
            key: id,
            at,
            latency_ms,
            kind,
        });
    }
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut e2e = EndToEnd::default();
    let mut setups = SetupTimer::default();
    let mut timed_setup = || setups.sample(SETUP_BATCH, || setup(args.seed), retire);
    for _ in 1..SETUP_SAMPLES_EACH_SIDE {
        retire(timed_setup()?)?;
    }
    let Setup {
        programs,
        keys,
        server,
        mut conns,
    } = timed_setup()?;

    // Start the engine's thread pool before timing: one in-process
    // exploration outside the request stream.
    let warm = keys.key(0, 0);
    let program = adapter::parse_program(&programs[warm.app])?;
    adapter::explore(
        &program,
        warm.stack,
        &warm.axes,
        warm.objective,
        Engine::Exhaustive,
    )?;

    let start = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let stream = ClientStream::new(args.seed, c, spec::SERVE_CLIENTS);
                let (keys, programs) = (&keys, &programs);
                scope.spawn(move || client(conn, stream, keys, programs, start, args.seconds))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    e2e.busy_s = start.elapsed().as_secs_f64();

    let status = if args.trace {
        let reply = conns[0]
            .roundtrip(STATUS_REQUEST)
            .map_err(|e| e.to_string())?;
        Some(adapter::parse_status(&reply)?)
    } else {
        None
    };

    // The quality figures: the first block of keys of each stack, the
    // same for every run of a seed.
    for s in 0..STACKS.len() {
        for m in 0..COMBOS {
            let key = keys.key(s, m);
            e2e.attempted += 1;
            let checked = conns[0]
                .roundtrip(&request_line(&programs, &key))
                .map_err(|e| e.to_string())
                .and_then(|reply| check_key(&programs, &key, &reply, None));
            match checked {
                Ok((true, gains)) => e2e.gains.push(gains),
                Ok((false, _)) => {
                    eprintln!("served CSV differs from the in-process run for {key:?}");
                    e2e.failed += 1;
                }
                Err(e) => {
                    eprintln!("check of {key:?} failed: {e}");
                    e2e.failed += 1;
                }
            }
        }
    }
    drop(conns);
    server.stop().map_err(|e| e.to_string())?;
    for _ in 0..SETUP_SAMPLES_EACH_SIDE {
        retire(timed_setup()?)?;
    }
    e2e.setup_s = setups.kept();

    let mut layers = Layers::default();
    let mut firsts: Vec<(&Key, &String)> = Vec::new();
    for (c, log) in logs.iter().enumerate() {
        e2e.failed += log.mismatches;
        for (i, s) in log.sent.iter().enumerate() {
            e2e.attempted += 1;
            match s.kind {
                Kind::Hit => e2e.hit_ms.push(s.latency_ms),
                Kind::Miss => e2e.miss_ms.push(s.latency_ms),
                Kind::Error => {
                    e2e.failed += 1;
                    continue;
                }
            }
            e2e.latency_ms.push(s.latency_ms);
            e2e.points += keys.key(s.key.0, s.key.1).points();
            if args.trace {
                let traced = (i + c) % 2 == 0;
                if traced {
                    layers.traced_latency_ms.push(s.latency_ms);
                } else {
                    layers.untraced_latency_ms.push(s.latency_ms);
                }
            }
        }
        firsts.extend(log.first.iter());
    }

    // Each distinct key: the served CSV against the in-process exploration.
    for (key, first) in &firsts {
        match check_key(&programs, key, first, args.trace.then_some(&mut layers)) {
            Ok((true, _)) => {}
            Ok((false, _)) => {
                eprintln!("served CSV differs from the in-process run for {key:?}");
                e2e.failed += 1;
            }
            Err(e) => {
                eprintln!("check of {key:?} failed: {e}");
                e2e.failed += 1;
            }
        }
    }

    if let Some(status) = status {
        layers.cache = status;
        twin_replay(&logs, &keys, &programs, &mut layers);
    }

    let hits = e2e.hit_ms.len();
    let notes = vec![
        format!(
            "{} timed requests: {hits} hits, {} misses, {} distinct keys; {} workers, {} clients; \
             {} quality keys requested after the run",
            e2e.latency_ms.len(),
            e2e.miss_ms.len(),
            firsts.len(),
            spec::SERVE_WORKERS,
            spec::SERVE_CLIENTS,
            STACKS.len() * COMBOS
        ),
        setups.note(SETUP_BATCH),
    ];
    Ok(Outcome { e2e, layers, notes })
}

/// Checks one key's first response against the same exploration run
/// in-process; returns the verdict and the served frontier's gains. In a
/// traced run the in-process run goes layer by layer, timing each.
fn check_key(
    programs: &[String],
    key: &Key,
    first: &str,
    layers: Option<&mut Layers>,
) -> Result<(bool, (f64, f64)), String> {
    let served = adapter::parse_served(first)?;
    let gains = best_gains(&served.figures, &served.fronts);
    let json = &programs[key.app];
    let csv = match layers {
        None => {
            let program = adapter::parse_program(json)?;
            adapter::explore(
                &program,
                key.stack,
                &key.axes,
                key.objective,
                Engine::Exhaustive,
            )?
            .csv()
        }
        Some(layers) => {
            let line = request_line(programs, key);
            let t = Instant::now();
            let req = adapter::parse_request(&line)?;
            layers.protocol_parse_ms.push(ms_since(t));
            let t = Instant::now();
            let request_key = adapter::request_key(&req)?;
            layers.fingerprint_ms.push(ms_since(t));
            let t = Instant::now();
            let program = adapter::parse_program(json)?;
            layers.ir_parse_ms.push(ms_since(t));
            let t = Instant::now();
            let analysis = adapter::analyze(&program);
            layers.reuse_ms.push(ms_since(t));
            let t = Instant::now();
            let context = adapter::build_context(&program, key.stack, key.objective, analysis);
            layers.context_ms.push(ms_since(t));
            let cpu = sys::process_cpu_ms();
            let t = Instant::now();
            let exploration = adapter::explore_in(&context, &key.axes)?;
            layers.sweep_ms.push(ms_since(t));
            layers.sweep_cpu_ms.push(
                sys::process_cpu_ms()
                    .zip(cpu)
                    .map_or(f64::NAN, |(b, a)| b - a),
            );
            layers.add_counts(&exploration.counts);
            let t = Instant::now();
            std::hint::black_box(exploration.fronts());
            layers.pareto_ms.push(ms_since(t));
            let t = Instant::now();
            let csv = exploration.csv();
            layers.render_ms.push(ms_since(t));
            let t = Instant::now();
            std::hint::black_box(adapter::miss_line(&exploration, &request_key));
            layers.protocol_render_ms.push(ms_since(t));
            // The server's warm-started chunks may keep a better result
            // than a cold search finds, so the replay is timed, not
            // compared.
            layers.add_search(&adapter::replay_search(
                &context,
                &exploration,
                REPLAY_POINTS,
            ));
            csv
        }
    };
    Ok((served.complete && served.csv == csv, gains))
}

/// Replays every request, in send order, on a twin of the server's
/// handler; a hit's round trip minus its handling time is the server's
/// transport and queueing overhead.
fn twin_replay(logs: &[ClientLog], keys: &KeySource, programs: &[String], layers: &mut Layers) {
    let mut order: Vec<&Sent> = logs.iter().flat_map(|l| l.sent.iter()).collect();
    order.sort_by_key(|s| s.at);
    let twin = Twin::new();
    for s in order {
        let line = request_line(programs, &keys.key(s.key.0, s.key.1));
        let t = Instant::now();
        std::hint::black_box(twin.handle(&line));
        let handled = ms_since(t);
        if s.kind == Kind::Hit {
            layers.overhead_ms.push(s.latency_ms - handled);
        }
    }
}
