//! End-to-end tests over real sockets: a [`Server`] on an ephemeral
//! port, driven by the blocking [`Client`] — the same pair `mhla serve`
//! and `mhla submit` wrap.
//!
//! Pinned here (ISSUE acceptance):
//!
//! * a served frontier is **bit-identical** to the in-process engine —
//!   both the raw result body and the reconstructed `mhla grid` CSV;
//! * a repeated submission is answered **from cache** (`"cached":true`,
//!   byte-identical body, engine-run counter unchanged);
//! * a request without `axes` explores exactly the platform's standard
//!   grid (`explore::default_axes`), and the same grid spelled out is a
//!   cache hit;
//! * corrupted submissions get **typed error responses** and the
//!   connection (and process) stays alive for the next request;
//! * a **budget-stopped** partial result is *not* cached;
//! * **graceful shutdown** acknowledges, drains, and `Server::join`
//!   returns with the listener closed.

use std::io::{Read as _, Write as _};
use std::net::TcpStream;

use mhla_core::explore::{default_axes, try_sweep_grid_run, GridAxis, SweepOptions};
use mhla_core::fingerprint::{platform_fingerprint, program_fingerprint};
use mhla_core::{report, MhlaConfig};
use mhla_hierarchy::serdes::platform_value;
use mhla_hierarchy::{LayerId, Platform};
use mhla_ir::serdes::{field, program_value, Json};
use mhla_ir::Program;
use mhla_serve::protocol::{result_body, MAX_REQUEST_BYTES};
use mhla_serve::{Client, Response, ServedStatus, Server, ServerOptions, Service, ServiceOptions};

fn small_server() -> Server {
    Server::bind(
        "127.0.0.1:0",
        ServerOptions {
            workers: 2,
            queue: 8,
            ..ServerOptions::default()
        },
    )
    .expect("bind an ephemeral port")
}

fn small_axes() -> Vec<GridAxis> {
    vec![
        GridAxis::new(LayerId(1), vec![128u64, 256, 1024]),
        GridAxis::new(LayerId(2), vec![64u64, 128]),
    ]
}

fn axes_value(axes: &[GridAxis]) -> Json {
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

fn explore_line(program: &Program, platform: &Platform, extra: Vec<(String, Json)>) -> String {
    let mut fields = vec![
        ("op".into(), Json::Str("explore".into())),
        ("program".into(), program_value(program)),
        ("platform".into(), platform_value(platform)),
        ("axes".into(), axes_value(&small_axes())),
    ];
    fields.extend(extra);
    Json::Obj(fields).render_compact()
}

/// The `result` body of an ok explore response line, verbatim.
fn raw_body(line: &str) -> &str {
    let start = line.find("\"result\":").expect("result field") + "\"result\":".len();
    &line[start..line.len() - 1]
}

/// Reads a numeric counter out of a status response body.
fn counter(status: &Json, group: &str, key: &str) -> u64 {
    let o = status.as_object("status").unwrap();
    let g = field(o, group, "status").unwrap().as_object(group).unwrap();
    field(g, key, group).unwrap().as_u64(key).unwrap()
}

#[test]
fn served_frontier_is_bit_identical_to_engine_and_resubmit_hits_cache() {
    let app = mhla_apps::fir_bank::app();
    let platform = Platform::three_level(1024, 256);
    let server = small_server();
    let mut client = Client::connect(server.addr()).expect("connect");

    let line = explore_line(&app.program, &platform, vec![]);
    let cold_line = client.roundtrip(&line).expect("cold roundtrip");
    let cold = match Response::parse(&cold_line).expect("parse cold") {
        Response::Frontier { cached, frontier } => {
            assert!(!cached, "first submission must be a cache miss");
            frontier
        }
        _ => panic!("expected a frontier, got {cold_line}"),
    };

    // The in-process oracle: same program, platform, axes, defaults.
    let run = try_sweep_grid_run(
        &app.program,
        &platform,
        &small_axes(),
        &MhlaConfig::default(),
        &SweepOptions::default(),
    )
    .expect("oracle run");
    assert!(run.status.is_complete());
    let oracle_body = result_body(
        &run,
        program_fingerprint(&app.program),
        platform_fingerprint(&platform),
    );
    assert_eq!(
        raw_body(&cold_line),
        oracle_body,
        "served body must be bit-identical to the in-process engine"
    );
    assert_eq!(
        cold.grid_csv(),
        report::grid_csv(&run.sweep),
        "reconstructed CSV must be bit-identical to `mhla grid`"
    );
    assert_eq!(cold.status, ServedStatus::Complete);

    // Resubmit on the same connection: answered from cache, same bytes,
    // and the engine has still only run once.
    let warm_line = client.roundtrip(&line).expect("warm roundtrip");
    match Response::parse(&warm_line).expect("parse warm") {
        Response::Frontier { cached, frontier } => {
            assert!(cached, "resubmission must be a cache hit");
            assert_eq!(frontier, cold);
        }
        _ => panic!("expected a frontier, got {warm_line}"),
    }
    assert_eq!(raw_body(&warm_line), oracle_body);

    let status_line = client.roundtrip("{\"op\":\"status\"}").expect("status");
    match Response::parse(&status_line).expect("parse status") {
        Response::Other(status) => {
            assert_eq!(
                counter(&status, "engine", "runs"),
                1,
                "hit must skip the engine"
            );
            assert_eq!(counter(&status, "cache", "hits"), 1);
            assert_eq!(counter(&status, "cache", "misses"), 1);
        }
        _ => panic!("expected a status body, got {status_line}"),
    }

    client.roundtrip("{\"op\":\"shutdown\"}").expect("shutdown");
    server.join();
}

#[test]
fn axis_less_request_explores_the_default_grid() {
    let app = mhla_apps::sobel_edge::app();
    let platform = Platform::three_level_default();
    let axes = default_axes(&platform);
    let server = small_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let request = |axes: Option<&[GridAxis]>| {
        let mut fields = vec![
            ("op".into(), Json::Str("explore".into())),
            ("program".into(), program_value(&app.program)),
            ("platform".into(), Json::Str("three-level".into())),
        ];
        fields.extend(axes.map(|a| ("axes".to_string(), axes_value(a))));
        Json::Obj(fields).render_compact()
    };

    let bare_line = client
        .roundtrip(&request(None))
        .expect("axis-less roundtrip");
    let bare = match Response::parse(&bare_line).expect("parse axis-less") {
        Response::Frontier { cached, frontier } => {
            assert!(!cached, "first submission must be a cache miss");
            frontier
        }
        _ => panic!("expected a frontier, got {bare_line}"),
    };
    let run = try_sweep_grid_run(
        &app.program,
        &platform,
        &axes,
        &MhlaConfig::default(),
        &SweepOptions::default(),
    )
    .expect("oracle run");
    assert_eq!(
        bare.layers,
        axes.iter().map(|a| a.layer).collect::<Vec<_>>(),
        "the served grid must sweep the default axes' layers"
    );
    assert_eq!(bare.candidates, 15, "the default three-level grid");
    assert_eq!(bare.candidates, run.candidates as u64);
    assert_eq!(
        bare.grid_csv(),
        report::grid_csv(&run.sweep),
        "the axis-less CSV must be the in-process default-grid CSV"
    );

    let spelled_line = client
        .roundtrip(&request(Some(&axes)))
        .expect("spelled-out roundtrip");
    match Response::parse(&spelled_line).expect("parse spelled-out") {
        Response::Frontier { cached, frontier } => {
            assert!(cached, "the spelled-out default grid must be a cache hit");
            assert_eq!(frontier, bare);
        }
        _ => panic!("expected a frontier, got {spelled_line}"),
    }
    assert_eq!(raw_body(&spelled_line), raw_body(&bare_line));

    client.roundtrip("{\"op\":\"shutdown\"}").expect("shutdown");
    server.join();
}

#[test]
fn corrupted_submissions_get_typed_errors_and_the_connection_survives() {
    let server = small_server();
    let mut client = Client::connect(server.addr()).expect("connect");

    for (junk, class) in [
        ("not json", "bad_request"),
        ("[]", "bad_request"),
        ("{\"op\":\"fly\"}", "bad_request"),
        ("{\"op\":\"explore\",\"program\":42}", "invalid_options"),
        (
            // A well-formed document holding a corrupt program (dangling root).
            "{\"op\":\"explore\",\"program\":{\"format\":\"mhla.program\",\"version\":1,\
             \"name\":\"x\",\"arrays\":[],\"loops\":[],\"stmts\":[],\"roots\":[\"S5\"]}}",
            "invalid_program",
        ),
    ] {
        let response = client.roundtrip(junk).expect("the connection must survive");
        match Response::parse(&response).expect("typed error line") {
            Response::Error(e) => assert_eq!(e.class, class, "for {junk:?}: {}", e.message),
            _ => panic!("junk {junk:?} must get an error response, got {response}"),
        }
    }

    // The same connection still serves a valid exploration afterwards.
    let app = mhla_apps::sobel_edge::app();
    let platform = Platform::three_level(1024, 256);
    let line = explore_line(&app.program, &platform, vec![]);
    let response = client.roundtrip(&line).expect("valid roundtrip after junk");
    assert!(
        matches!(
            Response::parse(&response).expect("parse"),
            Response::Frontier { cached: false, .. }
        ),
        "expected a frontier, got {response}"
    );

    client.roundtrip("{\"op\":\"shutdown\"}").expect("shutdown");
    server.join();
}

#[test]
fn budget_stopped_partial_results_are_not_cached() {
    let app = mhla_apps::fir_bank::app();
    let platform = Platform::three_level(1024, 256);
    let server = small_server();
    let mut client = Client::connect(server.addr()).expect("connect");

    let line = explore_line(
        &app.program,
        &platform,
        vec![("max_evals".into(), Json::from_u64(2))],
    );
    for round in 0..2 {
        let response = client.roundtrip(&line).expect("roundtrip");
        match Response::parse(&response).expect("parse") {
            Response::Frontier { cached, frontier } => {
                assert!(
                    !cached,
                    "round {round}: a partial result must never be served from cache"
                );
                assert_eq!(
                    frontier.status,
                    ServedStatus::Stopped {
                        cause: "max_evals".into(),
                        next_lex: 2
                    },
                    "the 6-point grid under a 2-eval budget stops at lex 2"
                );
                assert_eq!(frontier.points.len(), 2);
            }
            _ => panic!("expected a frontier, got {response}"),
        }
    }
    let status_line = client.roundtrip("{\"op\":\"status\"}").expect("status");
    match Response::parse(&status_line).expect("parse status") {
        Response::Other(status) => {
            assert_eq!(
                counter(&status, "engine", "runs"),
                2,
                "both rounds must hit the engine"
            );
            assert_eq!(counter(&status, "cache", "insertions"), 0);
            assert_eq!(counter(&status, "cache", "uncacheable"), 0);
        }
        _ => panic!("expected a status body, got {status_line}"),
    }

    client.roundtrip("{\"op\":\"shutdown\"}").expect("shutdown");
    server.join();
}

#[test]
fn graceful_shutdown_acknowledges_drains_and_closes_the_listener() {
    let server = small_server();
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");

    let ack = client
        .roundtrip("{\"op\":\"shutdown\"}")
        .expect("shutdown ack");
    match Response::parse(&ack).expect("parse ack") {
        Response::Other(body) => {
            let o = body.as_object("ack").unwrap();
            assert!(matches!(
                field(o, "stopping", "ack").unwrap(),
                Json::Bool(true)
            ));
        }
        _ => panic!("expected a shutdown ack, got {ack}"),
    }
    assert!(server.service().is_draining());

    // join() returns: accept loop, handlers and workers all exit.
    server.join();

    // The listener is gone — a fresh connection must fail (or be reset
    // before it can answer).
    match TcpStream::connect(addr) {
        Err(_) => {}
        Ok(mut s) => {
            let dead = s.write_all(b"{\"op\":\"status\"}\n").is_err()
                || mhla_serve::request_once(addr, "{\"op\":\"status\"}").is_err();
            assert!(dead, "the drained server must not accept new requests");
        }
    }
}

#[test]
fn draining_service_refuses_new_explorations_with_a_typed_class() {
    let app = mhla_apps::fir_bank::app();
    let platform = Platform::three_level(1024, 256);
    let service = Service::new(ServiceOptions::default());
    service.begin_shutdown();
    let response = service.handle_line(&explore_line(&app.program, &platform, vec![]));
    assert!(
        response.contains("\"class\":\"shutting_down\""),
        "got {response}"
    );
    // Status still answers while draining.
    let status = service.handle_line("{\"op\":\"status\"}");
    assert!(status.contains("\"draining\":true"), "got {status}");
}

#[test]
fn oversized_request_line_gets_one_bad_request_then_close() {
    let server = small_server();

    // One line over the cap — sent raw, with no trailing newline, so the
    // server consumes every byte before the cap fires and the close after
    // the response is a clean FIN (no unread data, no reset).
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let chunk = vec![b'x'; 64 * 1024];
    let mut sent = 0usize;
    while sent < MAX_REQUEST_BYTES + 2 {
        let n = chunk.len().min(MAX_REQUEST_BYTES + 2 - sent);
        stream.write_all(&chunk[..n]).expect("write oversized line");
        sent += n;
    }
    stream.flush().expect("flush");
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .expect("read until the server closes");
    let line = reply.lines().next().expect("one response line");
    match Response::parse(line).expect("parse") {
        Response::Error(e) => assert_eq!(e.class, "bad_request", "{}", e.message),
        _ => panic!("expected bad_request, got {line}"),
    }

    // The process survives: a new connection works.
    let status = mhla_serve::request_once(server.addr(), "{\"op\":\"status\"}").expect("reconnect");
    assert!(status.contains("\"ok\":true"), "got {status}");

    mhla_serve::request_once(server.addr(), "{\"op\":\"shutdown\"}").expect("shutdown");
    server.join();
}
