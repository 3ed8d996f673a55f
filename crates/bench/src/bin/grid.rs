//! Multi-layer grid-sweep tracker: measures the shared-context L1×L2 grid
//! sweep (`mhla_core::explore::try_sweep_grid_run`) against the per-point-rebuild
//! path (a standalone `Mhla::new().run()` per grid point) over the
//! eight-application suite on `Platform::three_level_default`, prints the
//! Pareto frontier of one app, and writes `BENCH_grid.json` at the
//! workspace root.
//!
//! Run with `cargo run --release -p mhla-bench --bin grid`.
//!
//! The frontier demo goes through the fallible entry point
//! ([`try_sweep_grid_run`]); a rejected ingress prints the typed error on
//! stderr and exits with code 2.

use std::process::ExitCode;

use mhla_bench::{grid_perf_json, measure_grid_perf, write_results};
use mhla_core::explore::{default_axes, try_sweep_grid_run, SweepOptions};
use mhla_core::{report, MhlaConfig, MhlaError};
use mhla_hierarchy::Platform;

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), MhlaError> {
    let perfs = measure_grid_perf(5);

    println!("L1xL2 grid sweep: per-point rebuild vs shared exploration context");
    println!(
        "{:<18} {:>7} {:>13} {:>12} {:>9} {:>8}",
        "application", "points", "rebuild [ms]", "shared [ms]", "speedup", "points="
    );
    for p in &perfs {
        println!(
            "{:<18} {:>7} {:>13.3} {:>12.3} {:>8.2}x {:>8}",
            p.app,
            p.points,
            p.rebuild_seconds * 1e3,
            p.shared_seconds * 1e3,
            p.speedup(),
            p.points_identical,
        );
    }
    let rebuild: f64 = perfs.iter().map(|p| p.rebuild_seconds).sum();
    let shared: f64 = perfs.iter().map(|p| p.shared_seconds).sum();
    println!(
        "suite: rebuild {:.1} ms, shared {:.1} ms, speedup {:.2}x",
        rebuild * 1e3,
        shared * 1e3,
        rebuild / shared
    );

    // The joint-sizing frontier of one representative app (Figure-2/3
    // style artifact, dropped under results/).
    let app = mhla_apps::hierarchical_me::app();
    let platform = Platform::three_level_default();
    let grid = try_sweep_grid_run(
        &app.program,
        &platform,
        &default_axes(&platform),
        &MhlaConfig::default(),
        &SweepOptions::default(),
    )?
    .sweep;
    println!();
    println!(
        "{}: L1xL2 Pareto frontier (C = cycles front, E = energy front)",
        app.name()
    );
    print!("{}", report::grid_frontier(&grid));
    write_results(
        &format!("grid_{}.csv", app.name()),
        &report::grid_csv(&grid),
    );

    let json = grid_perf_json(&perfs);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_grid.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("note: could not write BENCH_grid.json: {e}"),
    }
    Ok(())
}
