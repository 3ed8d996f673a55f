//! End-to-end tests of `mhla serve` / `submit` / `status` / `shutdown`
//! as spawned processes: a real server on an ephemeral port, real client
//! invocations, and byte-comparison of the served CSV against `mhla
//! grid` over the same inputs.

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

fn mhla(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mhla"))
        .args(args)
        .output()
        .expect("spawn mhla")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mhla-serve-cli-{}-{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A spawned `mhla serve`, killed on drop if a test fails before the
/// graceful shutdown.
struct ServeGuard(Child);

impl Drop for ServeGuard {
    fn drop(&mut self) {
        if matches!(self.0.try_wait(), Ok(None)) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}

/// Starts `mhla serve` on an ephemeral port and returns the guard plus
/// the bound address parsed from its "listening on …" line.
fn start_server() -> (ServeGuard, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mhla"))
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue",
            "8",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn mhla serve");
    let pipe = child.stdout.take().expect("serve stdout");
    let mut line = String::new();
    BufReader::new(pipe)
        .read_line(&mut line)
        .expect("read the ready line");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected ready line {line:?}"))
        .to_string();
    (ServeGuard(child), addr)
}

/// Waits for a child to exit on its own (the graceful-shutdown drain).
fn wait_exit(child: &mut Child, timeout: Duration) -> std::process::ExitStatus {
    let start = Instant::now();
    while start.elapsed() < timeout {
        if let Some(status) = child.try_wait().expect("poll serve") {
            return status;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    panic!("`mhla serve` did not drain within {timeout:?}");
}

const AXES: &str = "1:1024,4096;2:128,256";

#[test]
fn submit_matches_grid_resubmit_hits_cache_and_shutdown_drains() {
    let dir = scratch("roundtrip");
    let (mut server, addr) = start_server();

    // The in-process-equivalent oracle: the grid subcommand on the same
    // program, platform and axes.
    let grid_csv = dir.join("grid.csv");
    let out = mhla(&[
        "grid",
        "--app",
        "fir_bank",
        "--platform",
        "three-level",
        "--axes",
        AXES,
        "--out",
        grid_csv.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    let cold_csv = dir.join("cold.csv");
    let out = mhla(&[
        "submit",
        "--app",
        "fir_bank",
        "--platform",
        "three-level",
        "--axes",
        AXES,
        "--addr",
        &addr,
        "--out",
        cold_csv.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("cache miss"),
        "first submit must miss: {}",
        stderr(&out)
    );
    assert_eq!(
        fs::read_to_string(&cold_csv).expect("served csv"),
        fs::read_to_string(&grid_csv).expect("grid csv"),
        "served CSV must be bit-identical to `mhla grid`"
    );

    let warm_csv = dir.join("warm.csv");
    let out = mhla(&[
        "submit",
        "--app",
        "fir_bank",
        "--platform",
        "three-level",
        "--axes",
        AXES,
        "--addr",
        &addr,
        "--out",
        warm_csv.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).contains("cache hit"),
        "resubmit must hit: {}",
        stderr(&out)
    );
    assert_eq!(
        fs::read_to_string(&warm_csv).expect("served csv"),
        fs::read_to_string(&grid_csv).expect("grid csv")
    );

    // The counters agree: one engine run, one hit, one miss.
    let out = mhla(&["status", "--addr", &addr]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let status = stdout(&out);
    for needle in ["\"hits\": 1", "\"misses\": 1", "\"runs\": 1"] {
        assert!(status.contains(needle), "missing {needle} in {status}");
    }

    let out = mhla(&["shutdown", "--addr", &addr]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("draining"));
    let status = wait_exit(&mut server.0, Duration::from_secs(30));
    assert!(status.success(), "serve must drain to exit 0, got {status}");
}

/// The first `note:` line of a run's stderr.
fn note(out: &Output) -> Option<String> {
    stderr(out)
        .lines()
        .find(|l| l.starts_with("note:"))
        .map(str::to_string)
}

#[test]
fn submit_matches_grid_in_improving_mode_and_when_stopped() {
    let dir = scratch("modes");
    let (mut server, addr) = start_server();
    for (name, extra) in [
        ("improving", ["--mode", "improving"]),
        ("stopped", ["--max-evals", "3"]),
    ] {
        let run = |cmd: &str, csv: &PathBuf, more: &[&str]| {
            let common = [
                "--app",
                "fir_bank",
                "--platform",
                "three-level",
                "--axes",
                AXES,
            ];
            let out_flag = ["--out", csv.to_str().expect("utf-8 path")];
            let out = mhla(&[&[cmd][..], &common, &extra, more, &out_flag].concat());
            assert!(out.status.success(), "{cmd} {name}: {}", stderr(&out));
            out
        };
        let grid_csv = dir.join(format!("{name}-grid.csv"));
        let grid = run("grid", &grid_csv, &[]);
        let served_csv = dir.join(format!("{name}-served.csv"));
        let served = run("submit", &served_csv, &["--addr", &addr]);
        assert_eq!(
            fs::read_to_string(&served_csv).expect("served csv"),
            fs::read_to_string(&grid_csv).expect("grid csv"),
            "{name}: served CSV must be bit-identical to `mhla grid`"
        );
        // One note renders a stop, local or served.
        assert_eq!(note(&served), note(&grid), "{name}");
        assert_eq!(note(&grid).is_some(), name == "stopped", "{name}");
    }
    let out = mhla(&["shutdown", "--addr", &addr]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    wait_exit(&mut server.0, Duration::from_secs(30));
}

/// Each subcommand's flags, read off the USAGE lines of `mhla help`.
fn usage_flags() -> Vec<(String, Vec<String>)> {
    let help = stdout(&mhla(&["help"]));
    let mut commands: Vec<(String, Vec<String>)> = Vec::new();
    for line in help
        .lines()
        .skip_while(|l| *l != "USAGE:")
        .skip(1)
        .take_while(|l| !l.trim().is_empty())
    {
        let mut words = line.split_whitespace();
        if words.next() == Some("mhla") {
            let cmd = words.next().expect("a subcommand after `mhla`");
            commands.push((cmd.to_string(), Vec::new()));
        }
        let flags = &mut commands.last_mut().expect("a `mhla` line first").1;
        flags.extend(
            line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
                .filter(|w| w.starts_with("--"))
                .map(str::to_string),
        );
    }
    commands
}

#[test]
fn every_flag_in_a_usage_line_is_accepted() {
    let dir = scratch("usage");
    let d = dir.to_str().expect("utf-8 path");
    assert!(mhla(&["export", "--dir", d]).status.success());
    let prog = dir.join("fir_bank.prog.json");
    let csv = dir.join("out.csv");
    let (mut server, addr) = start_server();
    let usage = usage_flags();
    for cmd in ["analyze", "report", "sweep", "grid", "submit"] {
        let (_, flags) = usage
            .iter()
            .find(|(c, _)| c == cmd)
            .unwrap_or_else(|| panic!("no USAGE line for {cmd}"));
        assert!(flags.iter().any(|f| f == "--platform"), "{cmd}: {flags:?}");
        // `--input` and `--app` are alternatives: one run with each.
        for skip in ["--app", "--input"] {
            let mut args = vec![cmd.to_string()];
            for flag in flags.iter().filter(|f| *f != skip) {
                let value = match flag.as_str() {
                    "--input" => prog.to_str().expect("utf-8 path"),
                    "--app" => "fir_bank",
                    "--platform" => "three-level",
                    "--layer" => "1",
                    "--capacities" => "1024,2048",
                    "--axes" => "1:1024,2048;2:128",
                    "--mode" => "improving",
                    "--objective" => "energy",
                    "--max-evals" => "1",
                    "--timeout-ms" => "60000",
                    "--addr" => &addr,
                    "--out" => csv.to_str().expect("utf-8 path"),
                    "--resume" => "",
                    other => panic!("no test value for `{cmd} {other}`"),
                };
                args.push(flag.clone());
                if !value.is_empty() {
                    args.push(value.to_string());
                }
            }
            let args: Vec<&str> = args.iter().map(String::as_str).collect();
            let out = mhla(&args);
            assert!(out.status.success(), "{args:?}: {}", stderr(&out));
        }
    }
    let out = mhla(&["shutdown", "--addr", &addr]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    wait_exit(&mut server.0, Duration::from_secs(30));
}

#[test]
fn flags_a_usage_line_does_not_list_are_refused() {
    let usage = usage_flags();
    let mut every: Vec<&String> = usage.iter().flat_map(|(_, flags)| flags).collect();
    every.sort();
    every.dedup();
    for (cmd, flags) in &usage {
        for flag in every.iter().filter(|f| !flags.contains(f)) {
            let out = mhla(&[cmd, flag, "1"]);
            assert_eq!(out.status.code(), Some(2), "{cmd} {flag}");
            assert!(
                stderr(&out).starts_with(&format!("error: `mhla {cmd}` does not take `{flag}`")),
                "{cmd} {flag}: {}",
                stderr(&out)
            );
        }
    }
}

#[test]
fn budgeted_submit_reports_the_certified_partial_frontier() {
    let (mut server, addr) = start_server();

    let out = mhla(&[
        "submit",
        "--app",
        "fir_bank",
        "--platform",
        "three-level",
        "--axes",
        AXES,
        "--max-evals",
        "2",
        "--addr",
        &addr,
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let err = stderr(&out);
    assert!(
        err.contains("stopped (max_evals)") && err.contains("--max-evals"),
        "budget note missing: {err}"
    );
    assert!(
        err.contains("2/4 points"),
        "partial point count missing: {err}"
    );
    // The stdout CSV carries exactly the two certified points (plus header).
    assert_eq!(stdout(&out).lines().count(), 3, "got {}", stdout(&out));

    let out = mhla(&["shutdown", "--addr", &addr]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    wait_exit(&mut server.0, Duration::from_secs(30));
}

#[test]
fn corrupted_submission_gets_a_typed_server_error_and_the_server_survives() {
    let dir = scratch("corrupt");
    let (mut server, addr) = start_server();

    // A well-formed file holding a corrupt program (dangling root).
    let bad = dir.join("bad.prog.json");
    fs::write(
        &bad,
        "{\"format\":\"mhla.program\",\"version\":1,\"name\":\"x\",\
         \"arrays\":[],\"loops\":[],\"stmts\":[],\"roots\":[\"S5\"]}",
    )
    .expect("write corrupt program");
    let out = mhla(&[
        "submit",
        "--input",
        bad.to_str().expect("utf-8 path"),
        "--addr",
        &addr,
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).starts_with("error:"),
        "typed error expected: {}",
        stderr(&out)
    );

    // The server survives corrupted ingress and still serves.
    let out = mhla(&["status", "--addr", &addr]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    let out = mhla(&["shutdown", "--addr", &addr]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    wait_exit(&mut server.0, Duration::from_secs(30));
}

#[test]
fn bad_serving_flags_exit_2_without_touching_the_network() {
    for args in [
        &["serve", "--workers", "0"][..],
        &["serve", "--queue", "0"],
        &["submit", "--app", "fir_bank", "--objective", "speed"],
        &["submit", "--app", "fir_bank", "--max-evals", "0"],
        &["submit"],
    ] {
        let out = mhla(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(
            stderr(&out).starts_with("error:"),
            "{args:?}: {}",
            stderr(&out)
        );
    }
}

#[test]
fn submit_against_a_dead_server_exits_2_with_a_net_error() {
    // Bind an ephemeral port, then drop it: nothing listens there.
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("probe port");
        listener.local_addr().expect("probe addr").to_string()
    };
    let out = mhla(&["submit", "--app", "fir_bank", "--addr", &addr]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(&out));
    assert!(
        stderr(&out).starts_with(&format!("error: {addr}:")),
        "net error must name the address: {}",
        stderr(&out)
    );
}
