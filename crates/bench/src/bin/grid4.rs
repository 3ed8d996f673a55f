//! Pruned four-level grid-sweep tracker: measures the pruned L1×L2×L3
//! grid sweep (`mhla_core::explore::try_sweep_grid_pruned_with`) against the
//! exhaustive Cartesian product over the eight-application suite on
//! `Platform::four_level_default` — under both the cycles and the energy
//! objective — verifies the pruned frontier is point-for-point the
//! exhaustive one, compares the cold and improving search modes, measures
//! the adaptive refinement, prints the frontier of one app, and writes
//! `BENCH_grid4.json` at the workspace root.
//!
//! Run with `cargo run --release -p mhla-bench --bin grid4`. Every timed
//! path runs [`REPEATS`] times per app; the document records each suite's
//! median and interquartile range.
//!
//! `MHLA_SWEEP_MAX_EVALS=<n>` switches the binary into the
//! budget-interrupt smoke mode: one app's pruned sweep runs under the
//! given evaluation budget, the completion status is printed, and the
//! interrupted run is resumed and checked bit-for-bit against the
//! uninterrupted sweep — the CI leg that proves a budgeted exploration
//! exits cleanly with a certified partial frontier. A malformed value is
//! rejected with a typed error on stderr (exit code 2) instead of
//! silently falling back.

use std::process::ExitCode;

use mhla_bench::{
    grid4_perf_json, measure_grid4_improving, measure_grid4_perf, measure_grid4_refine,
    prev_suite_value, sweep_max_evals_from_env, write_results, Grid4Perf, Grid4Refine,
    ImprovingGrid4Perf, Samples,
};
use mhla_core::explore::{
    default_axes, try_sweep_grid_pruned_resume, try_sweep_grid_pruned_with, ExploreBudget,
    PruneOptions, SweepStatus,
};
use mhla_core::{report, MhlaConfig, MhlaError, Objective};
use mhla_hierarchy::Platform;

/// Timed runs of every path per app: the suite's median and quartiles
/// come from this many whole-suite repetitions.
const REPEATS: usize = 5;

/// With `--features alloc-counter`, every measurement row also reports
/// allocation events per evaluated point (the `allocs/eval` column and
/// JSON field).
#[cfg(feature = "alloc-counter")]
#[global_allocator]
static COUNTING_ALLOC: mhla_alloc_counter::CountingAlloc = mhla_alloc_counter::CountingAlloc::new();

fn print_table(title: &str, perfs: &[Grid4Perf]) {
    println!("{title}");
    println!(
        "{:<18} {:>6} {:>6} {:>8} {:>7} {:>13} {:>12} {:>8} {:>12} {:>9}",
        "application",
        "cand",
        "eval",
        "skipped",
        "skip%",
        "exhaust [ms]",
        "pruned [ms]",
        "speedup",
        "allocs/eval",
        "identical"
    );
    for p in perfs {
        let allocs = p
            .allocs_per_eval
            .map_or_else(|| "-".to_string(), |a| format!("{a:.1}"));
        println!(
            "{:<18} {:>6} {:>6} {:>8} {:>6.1}% {:>13.3} {:>12.3} {:>7.2}x {:>12} {:>9}",
            p.app,
            p.stats.candidates,
            p.stats.evaluated,
            p.stats.skipped(),
            100.0 * p.stats.skip_ratio(),
            p.exhaustive.median() * 1e3,
            p.pruned.median() * 1e3,
            p.speedup(),
            allocs,
            p.frontier_identical && p.points_identical,
        );
    }
    let exhaustive = Samples::suite(perfs.iter().map(|p| &p.exhaustive));
    let pruned = Samples::suite(perfs.iter().map(|p| &p.pruned));
    let candidates: usize = perfs.iter().map(|p| p.stats.candidates).sum();
    let evaluated: usize = perfs.iter().map(|p| p.stats.evaluated).sum();
    println!(
        "suite: {candidates} candidates, {evaluated} evaluated ({} skipped, {:.1}%), \
         median of {REPEATS}: exhaustive {:.1} ms (IQR {:.1}), pruned {:.1} ms (IQR {:.1}) \
         ({:.2}x)",
        candidates - evaluated,
        100.0 * (candidates - evaluated) as f64 / candidates.max(1) as f64,
        exhaustive.median() * 1e3,
        exhaustive.iqr() * 1e3,
        pruned.median() * 1e3,
        pruned.iqr() * 1e3,
        exhaustive.median() / pruned.median().max(f64::MIN_POSITIVE),
    );
    println!();
}

fn print_improving_table(title: &str, perfs: &[ImprovingGrid4Perf]) -> bool {
    println!("{title}");
    println!(
        "{:<18} {:>6} {:>10} {:>9} {:>9} {:>10} {:>11} {:>10} {:>9} {:>9}",
        "application",
        "points",
        "cold-eval",
        "imp-eval",
        "wins",
        "improved",
        "max-delta",
        "dominates",
        "cold [ms]",
        "imp [ms]"
    );
    for p in perfs {
        println!(
            "{:<18} {:>6} {:>10} {:>9} {:>9} {:>10} {:>10.2}% {:>10} {:>9.3} {:>9.3}",
            p.app,
            p.points,
            p.cold_evals,
            p.improving_evals,
            p.seed_wins,
            p.improved_points,
            p.max_improvement_pct,
            p.dominates,
            p.cold.median() * 1e3,
            p.improving.median() * 1e3,
        );
    }
    let all_dominate = perfs.iter().all(|p| p.dominates);
    let improved: usize = perfs.iter().map(|p| p.improved_points).sum();
    let points: usize = perfs.iter().map(|p| p.points).sum();
    println!(
        "suite: {improved}/{points} points strictly improved; \
         dominance check (improving >= cold everywhere): {}",
        if all_dominate { "PASS" } else { "FAIL" },
    );
    println!();
    all_dominate
}

/// Prints the adaptive-refinement table — the `evals /
/// virtual_lattice_points` ratio per app plus the frontier-equivalence
/// verdict — and returns whether every app's verdict is PASS.
fn print_refine_table(title: &str, perfs: &[Grid4Refine]) -> bool {
    println!("{title}");
    println!(
        "{:<18} {:>10} {:>8} {:>7} {:>7} {:>9} {:>6} {:>10} {:>10}",
        "application",
        "virtual",
        "evals",
        "ratio",
        "closed",
        "certified",
        "waves",
        "time [ms]",
        "frontier"
    );
    for p in perfs {
        println!(
            "{:<18} {:>10} {:>8} {:>6.2}% {:>7} {:>9} {:>6} {:>10.1} {:>10}",
            p.app,
            p.stats.virtual_points,
            p.stats.evaluated,
            100.0 * p.stats.eval_ratio(),
            p.stats.cells_closed_mask,
            p.stats.corners_certified,
            p.waves,
            p.refined.median() * 1e3,
            if p.frontier_consistent {
                "PASS"
            } else {
                "FAIL"
            },
        );
    }
    let virtual_points: u64 = perfs.iter().map(|p| p.stats.virtual_points).sum();
    let evaluated: usize = perfs.iter().map(|p| p.stats.evaluated).sum();
    let all_pass = perfs.iter().all(|p| p.frontier_consistent);
    println!(
        "suite: {evaluated} evals / {virtual_points} virtual lattice points \
         ({:.2}%), frontier equivalence: {}",
        100.0 * evaluated as f64 / virtual_points.max(1) as f64,
        if all_pass { "PASS" } else { "FAIL" },
    );
    println!();
    all_pass
}

/// The budget-interrupt smoke: one app's pruned sweep under the
/// environment's evaluation budget. Prints the completion status, then
/// resumes the interrupted run and checks it point-for-point against the
/// uninterrupted sweep. Panics (nonzero exit) on any mismatch — this is
/// the machine-checked half of the "certified partial frontier"
/// guarantee that CI exercises.
fn budget_smoke(budget: ExploreBudget) -> Result<(), MhlaError> {
    let app = mhla_apps::hierarchical_me::app();
    let platform = Platform::four_level_default();
    let axes = default_axes(&platform);
    let config = MhlaConfig::default();

    let budgeted = PruneOptions::default().budget(budget);
    let partial = try_sweep_grid_pruned_with(&app.program, &platform, &axes, &config, &budgeted)?;
    match partial.status {
        SweepStatus::Complete => println!(
            "budget smoke [{}]: status Complete within budget — {} evaluated of {} candidates",
            app.name(),
            partial.stats.evaluated,
            partial.stats.candidates,
        ),
        SweepStatus::Stopped { cause, next_lex } => println!(
            "budget smoke [{}]: status Stopped({cause:?}) with {next_lex} points decided — \
             {} evaluated of {} candidates, partial cycle frontier {} point(s)",
            app.name(),
            partial.stats.evaluated,
            partial.stats.candidates,
            partial.sweep.pareto_cycles().len(),
        ),
    }

    let unlimited = PruneOptions::default();
    let resumed = try_sweep_grid_pruned_resume(
        &app.program,
        &platform,
        &axes,
        &config,
        &unlimited,
        &partial,
    )?;
    let full = try_sweep_grid_pruned_with(&app.program, &platform, &axes, &config, &unlimited)?;
    assert!(
        resumed.status.is_complete(),
        "resumed sweep must run to completion"
    );
    assert_eq!(
        resumed.sweep, full.sweep,
        "resumed sweep must match the uninterrupted run bit-for-bit"
    );
    assert_eq!(
        resumed.stats, full.stats,
        "resume must not change the stats"
    );
    println!(
        "budget smoke [{}]: resume reproduces the uninterrupted sweep bit-for-bit \
         ({} points, cycle front {}, energy front {})",
        app.name(),
        full.sweep.points.len(),
        full.sweep.pareto_cycles().len(),
        full.sweep.pareto_energy().len(),
    );
    Ok(())
}

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
    // Validates the budget variable up front (hard error on malformed
    // values); a budget in the environment switches to the smoke mode.
    if let Some(max_evals) = sweep_max_evals_from_env()? {
        return budget_smoke(ExploreBudget::max_evals(max_evals));
    }

    let cycles = measure_grid4_perf(REPEATS, &MhlaConfig::default());
    print_table(
        "L1xL2xL3 grid sweep, Objective::Cycles: exhaustive vs pruned",
        &cycles,
    );
    let energy_config = MhlaConfig {
        objective: Objective::Energy,
        ..MhlaConfig::default()
    };
    let energy = measure_grid4_perf(REPEATS, &energy_config);
    print_table(
        "L1xL2xL3 grid sweep, Objective::Energy: exhaustive vs pruned (gain-bound saturation)",
        &energy,
    );

    // The mode comparison: cold (frozen) vs improving (neighbor-seeded
    // portfolio). The dominance check is the mode's machine-checked
    // guarantee — a FAIL here is a bug, and the process exits nonzero so
    // the CI smoke leg catches it.
    let cycles_improving = measure_grid4_improving(REPEATS, &MhlaConfig::default());
    let cycles_ok = print_improving_table(
        "L1xL2xL3 grid sweep, Objective::Cycles: cold vs improving mode (SearchMode::Improving)",
        &cycles_improving,
    );
    let energy_improving = measure_grid4_improving(REPEATS, &energy_config);
    let energy_ok = print_improving_table(
        "L1xL2xL3 grid sweep, Objective::Energy: cold vs improving mode (SearchMode::Improving)",
        &energy_improving,
    );
    if !(cycles_ok && energy_ok) {
        eprintln!("error: improving-mode dominance check failed");
        std::process::exit(1);
    }

    // The adaptive refinement: the certified virtual fine lattice, the
    // fraction searched, and the frontier-equivalence verdict. A FAIL is
    // a lost certificate — the CI smoke leg exits nonzero on it.
    let refine = measure_grid4_refine(REPEATS, &MhlaConfig::default());
    let refine_ok = print_refine_table(
        "L1xL2xL3 adaptive refinement: certified virtual fine lattice vs evals",
        &refine,
    );
    if !refine_ok {
        eprintln!("error: refinement frontier-equivalence check failed");
        std::process::exit(1);
    }

    // The joint three-axis frontier of one representative app.
    let app = mhla_apps::hierarchical_me::app();
    let platform = Platform::four_level_default();
    let grid = try_sweep_grid_pruned_with(
        &app.program,
        &platform,
        &default_axes(&platform),
        &MhlaConfig::default(),
        &PruneOptions::default(),
    )?;
    println!(
        "{}: L1xL2xL3 Pareto frontier (C = cycles front, E = energy front)",
        app.name()
    );
    print!("{}", report::grid_frontier(&grid.sweep));
    write_results(
        &format!("grid4_{}.csv", app.name()),
        &report::grid_csv(&grid.sweep),
    );

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_grid4.json");
    // The prior document's cycles/pruned, energy/pruned and refine suite
    // wall times, kept as the before/after trajectory fields of the
    // regenerated one: each is the first suite after its section's key.
    let old = std::fs::read_to_string(&path).ok();
    let prev = |section: &str, key: &str| {
        let old = old.as_deref()?;
        prev_suite_value(&old[old.find(section)?..], key)
    };
    let json = grid4_perf_json(
        &cycles,
        &energy,
        &cycles_improving,
        &energy_improving,
        &refine,
        (
            prev("\"cycles\"", "pruned_seconds"),
            prev("\"energy\"", "pruned_seconds"),
            prev("\"refine\"", "refined_seconds"),
        ),
    );
    match std::fs::write(&path, &json) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("note: could not write BENCH_grid4.json: {e}"),
    }
    Ok(())
}
