//! End-to-end tests of the `mhla` binary: the serialized path through the
//! CLI must be *bit-identical* to the in-process engine, budgeted runs must
//! stop and resume, and corrupted inputs must exit 2 with a typed error on
//! stderr — never a panic.

use std::fs;
use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use mhla_core::explore::{try_sweep_grid_run, GridAxis, SweepOptions};
use mhla_core::{report, MhlaConfig};
use mhla_hierarchy::{LayerId, Platform};
use mhla_ir::serdes::program_from_json;

fn mhla(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mhla"))
        .args(args)
        .output()
        .expect("spawn mhla")
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("utf-8 stdout")
}

fn stderr(out: &Output) -> String {
    String::from_utf8(out.stderr.clone()).expect("utf-8 stderr")
}

/// A per-test scratch directory under the target-adjacent temp dir,
/// removed when the test passes; a failing test leaves it in place for
/// inspection.
struct Scratch(PathBuf);

impl Deref for Scratch {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            let _ = fs::remove_dir_all(&self.0);
        }
    }
}

fn scratch(test: &str) -> Scratch {
    let dir = std::env::temp_dir().join(format!("mhla-cli-{}-{test}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("create scratch dir");
    Scratch(dir)
}

#[test]
fn export_round_trips_every_builtin_app() {
    let dir = scratch("export");
    let out = mhla(&["export", "--dir", dir.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    for app in mhla_apps::all_apps() {
        let path = dir.join(format!("{}.prog.json", app.name()));
        let text = fs::read_to_string(&path).expect("exported program");
        let back = program_from_json(&text).expect("re-ingest");
        assert_eq!(back, app.program, "{} did not round-trip", app.name());
    }
    // The platform presets re-ingest through the CLI too.
    let out = mhla(&[
        "report",
        "--app",
        "fir_bank",
        "--platform",
        dir.join("fir_bank.platform.json")
            .to_str()
            .expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
}

#[test]
fn grid_over_serialized_app_is_bit_identical_to_in_process_sweep() {
    let dir = scratch("grid");
    assert!(
        mhla(&["export", "--dir", dir.to_str().expect("utf-8 path")])
            .status
            .success()
    );
    let prog = dir.join("sobel_edge.prog.json");
    let csv_path = dir.join("grid.csv");
    let axes_spec = "1:1024,4096;2:128,256";
    let out = mhla(&[
        "grid",
        "--input",
        prog.to_str().expect("utf-8 path"),
        "--platform",
        "three-level",
        "--axes",
        axes_spec,
        "--out",
        csv_path.to_str().expect("utf-8 path"),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // The same axes through the in-process engine.
    let app = mhla_apps::sobel_edge::app();
    let axes = vec![
        GridAxis::new(LayerId(1), vec![1024, 4096]),
        GridAxis::new(LayerId(2), vec![128, 256]),
    ];
    let expected = try_sweep_grid_run(
        &app.program,
        &Platform::three_level_default(),
        &axes,
        &MhlaConfig::default(),
        &SweepOptions::default(),
    )
    .expect("valid grid")
    .sweep;

    let cli_csv = fs::read_to_string(&csv_path).expect("grid csv");
    assert_eq!(
        cli_csv,
        report::grid_csv(&expected),
        "CSV must be bit-identical"
    );
    assert!(
        stdout(&out).starts_with(&report::grid_frontier(&expected)),
        "frontier table must match the in-process report"
    );
}

#[test]
fn sweep_over_serialized_app_is_bit_identical_to_in_process_sweep() {
    let dir = scratch("sweep");
    assert!(
        mhla(&["export", "--dir", dir.to_str().expect("utf-8 path")])
            .status
            .success()
    );
    let prog = dir.join("fir_bank.prog.json");
    let out = mhla(&[
        "sweep",
        "--input",
        prog.to_str().expect("utf-8 path"),
        "--platform",
        "embedded:16384",
        "--capacities",
        "512,1024,2048",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));

    // `mhla sweep` is the one-axis grid on the closest layer.
    let app = mhla_apps::fir_bank::app();
    let platform = Platform::embedded_default(16 * 1024);
    let expected = try_sweep_grid_run(
        &app.program,
        &platform,
        &[GridAxis::new(platform.closest(), vec![512, 1024, 2048])],
        &MhlaConfig::default(),
        &SweepOptions::default(),
    )
    .expect("valid grid")
    .sweep;
    let csv = stdout(&out);
    assert_eq!(csv, report::grid_csv(&expected));
    assert!(csv.starts_with("capacity_M1,cycles_baseline,"), "{csv}");
}

/// The stopped, budget + `--resume` and unbudgeted runs of one
/// exploration, as `mhla <args>`: the stopped run writes fewer rows and
/// says so on stderr; the resumed run finishes in the same invocation and
/// prints the unbudgeted run's bytes.
fn assert_budget_stops_and_resume_completes(args: &[&str]) {
    let with = |extra: &[&str]| {
        let out = mhla(&[args, extra].concat());
        assert!(out.status.success(), "{args:?} {extra:?}: {}", stderr(&out));
        out
    };
    let stopped = with(&["--max-evals", "2"]);
    assert!(stderr(&stopped).contains("budget exhausted"), "{args:?}");
    let resumed = with(&["--max-evals", "2", "--resume"]);
    let full = with(&[]);
    assert_eq!(stdout(&resumed), stdout(&full), "{args:?}");
    assert!(
        stdout(&full).lines().count() > stdout(&stopped).lines().count(),
        "{args:?}"
    );
}

#[test]
fn budgeted_grid_stops_and_resume_completes() {
    let dir = scratch("budget");
    assert!(
        mhla(&["export", "--dir", dir.to_str().expect("utf-8 path")])
            .status
            .success()
    );
    let prog = dir.join("fir_bank.prog.json");
    let prog = prog.to_str().expect("utf-8 path");
    let common = ["--input", prog, "--platform", "embedded"];
    let grid = ["grid", "--axes", "1:512,1024,2048,4096"];
    assert_budget_stops_and_resume_completes(&[&grid[..], &common[..]].concat());
    let sweep = [
        "sweep",
        "--layer",
        "1",
        "--capacities",
        "512,1024,2048,4096",
    ];
    assert_budget_stops_and_resume_completes(&[&sweep[..], &common[..]].concat());
}

#[test]
fn corrupted_input_exits_2_with_typed_error() {
    let dir = scratch("corrupt");
    assert!(
        mhla(&["export", "--dir", dir.to_str().expect("utf-8 path")])
            .status
            .success()
    );
    let good = fs::read_to_string(dir.join("wavelet.prog.json")).expect("exported program");

    // Truncated file: syntax error.
    let truncated = dir.join("truncated.prog.json");
    fs::write(&truncated, &good[..good.len() / 2]).expect("write");
    let out = mhla(&[
        "analyze",
        "--input",
        truncated.to_str().expect("utf-8 path"),
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stderr(&out).starts_with("error:"),
        "stderr: {}",
        stderr(&out)
    );

    // Wrong schema version: typed version error.
    let versioned = dir.join("versioned.prog.json");
    fs::write(
        &versioned,
        good.replace("\"version\": 1", "\"version\": 42"),
    )
    .expect("write");
    let out = mhla(&["report", "--input", versioned.to_str().expect("utf-8 path")]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("unsupported schema version 42"));

    // Missing file: IO error, not a panic.
    let out = mhla(&["grid", "--input", "/nonexistent/nope.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).starts_with("error:"));
}

#[test]
fn usage_errors_exit_2() {
    for args in [
        &["frobnicate"][..],
        &["grid"][..],
        &["sweep", "--input", "a.json", "--app", "fir_bank"][..],
        &["grid", "--app", "fir_bank", "--axes", "nonsense"][..],
        &["grid", "--app", "fir_bank", "--max-evals"][..],
        // Flags another subcommand takes are refused, not ignored.
        &[
            "sweep",
            "--app",
            "fir_bank",
            "--platform",
            "embedded",
            "--axes",
            "1:512",
        ][..],
        &[
            "grid",
            "--app",
            "fir_bank",
            "--platform",
            "embedded",
            "--layer",
            "1",
            "--capacities",
            "512",
        ][..],
        &[
            "sweep",
            "--app",
            "fir_bank",
            "--platform",
            "embedded",
            "--objective",
            "energy",
        ][..],
        &[
            "analyze",
            "--app",
            "fir_bank",
            "--max-evals",
            "3",
            "--resume",
            "--axes",
            "bogus",
        ][..],
        &["export", "--dir", "D", "--app", "fir_bank"][..],
        &["submit", "--app", "fir_bank", "--resume"][..],
    ] {
        let out = mhla(args);
        assert_eq!(out.status.code(), Some(2), "args: {args:?}");
        assert!(stderr(&out).starts_with("error:"), "args: {args:?}");
    }
    let help = mhla(&["help"]);
    assert!(help.status.success());
    assert!(stdout(&help).contains("USAGE"));
}
