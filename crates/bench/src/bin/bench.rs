//! Sweep performance tracker: measures the cold (pre-optimization
//! reference) vs fast (shared-context, incremental, warm-started,
//! parallel) capacity sweep over the eight-application suite and writes
//! the results to `BENCH_sweep.json` at the workspace root, so the perf
//! trajectory is tracked from PR to PR.
//!
//! Run with `cargo run --release -p mhla-bench --bin bench`.
//!
//! The fast path is [`mhla_core::explore::try_sweep_with`], the 1-D entry
//! of the exploration engine; the cold path is the frozen reference
//! [`mhla_core::explore::sweep_cold`].
//!
//! Tuning knob (results are identical for every setting, only wall time
//! moves): `MHLA_SWEEP_PARALLEL=0` disables the thread fan-out. A
//! malformed value is rejected with a typed [`MhlaError`] on stderr (exit
//! code 2) — a typo'd tuning run must not silently measure the
//! defaults.

use std::process::ExitCode;

use mhla_bench::{
    measure_sweep_perf_with, prev_suite_value, sweep_options_from_env, sweep_perf_json,
};
use mhla_core::explore::SweepOptions;
use mhla_core::MhlaError;

/// With `--features alloc-counter`, every measurement row also reports
/// allocation events per evaluated point (the `allocs/eval` column and
/// JSON field).
#[cfg(feature = "alloc-counter")]
#[global_allocator]
static COUNTING_ALLOC: mhla_alloc_counter::CountingAlloc = mhla_alloc_counter::CountingAlloc::new();

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
    let opts = sweep_options_from_env()?;
    let perfs = measure_sweep_perf_with(5, opts.clone());

    println!("tradeoff sweep: cold (oracle, sequential) vs fast (incremental, warm, parallel)");
    println!(
        "options: parallel {} (MHLA_SWEEP_PARALLEL to tune)",
        opts.parallel
    );
    println!(
        "{:<18} {:>7} {:>12} {:>12} {:>9} {:>12} {:>8} {:>8}",
        "application",
        "points",
        "cold [ms]",
        "fast [ms]",
        "speedup",
        "allocs/eval",
        "fronts",
        "points="
    );
    for p in &perfs {
        let allocs = p
            .allocs_per_eval
            .map_or_else(|| "-".to_string(), |a| format!("{a:.1}"));
        println!(
            "{:<18} {:>7} {:>12.3} {:>12.3} {:>8.2}x {:>12} {:>8} {:>8}",
            p.app,
            p.points,
            p.cold_seconds * 1e3,
            p.fast_seconds * 1e3,
            p.speedup(),
            allocs,
            p.fronts_identical,
            p.points_identical,
        );
    }
    let cold: f64 = perfs.iter().map(|p| p.cold_seconds).sum();
    let fast: f64 = perfs.iter().map(|p| p.fast_seconds).sum();
    println!(
        "suite: cold {:.1} ms, fast {:.1} ms, speedup {:.2}x",
        cold * 1e3,
        fast * 1e3,
        cold / fast
    );

    // Only the default configuration is tracked in BENCH_sweep.json:
    // tuning runs print their timings but must not overwrite the
    // trajectory with apples-to-oranges numbers.
    if opts == SweepOptions::default() {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join("BENCH_sweep.json");
        // The prior document's suite wall time, kept as the before/after
        // trajectory field of the regenerated one.
        let prev_fast = std::fs::read_to_string(&path)
            .ok()
            .and_then(|old| prev_suite_value(&old, "fast_seconds"));
        let json = sweep_perf_json(&perfs, prev_fast);
        match std::fs::write(&path, &json) {
            Ok(()) => println!("wrote {}", path.display()),
            Err(e) => eprintln!("note: could not write BENCH_sweep.json: {e}"),
        }
    } else {
        println!("non-default options: BENCH_sweep.json left untouched");
    }
    Ok(())
}
