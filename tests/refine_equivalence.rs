//! Acceptance harness of the adaptive frontier-driven grid refinement —
//! the PR bar, in two halves:
//!
//! * **Scale**: on all nine applications over the default four-level
//!   grid, the refined sweep certifies a virtual fine lattice of 10⁵+
//!   capacity points per app while evaluating at most 5 % of it, and
//!   completes unbudgeted.
//! * **Exactness**: on a small instance whose fine lattice is still
//!   exhaustible, the refined Pareto frontiers (cycles and energy) are
//!   *bit-identical* — same capacity vectors, same full `MhlaResult`s —
//!   to the exhaustive sweep of the materialized fine lattice, under all
//!   three objectives; a budget-interrupted refinement resumed to
//!   completion equals the uninterrupted run bit for bit.
//!
//! `MHLA_SWEEP_PARALLEL=0` runs the suite in sequential mode (the CI
//! leg); malformed values are rejected loudly.

use mhla::core::explore::{
    default_axes, refine_axis, try_sweep_grid_refined_resume, try_sweep_grid_refined_with,
    try_sweep_grid_run, ExploreBudget, GridAxis, GridSweep, RefineOptions, RefinedGridSweep,
    SweepOptions,
};
use mhla::core::{MhlaConfig, Objective};
use mhla::hierarchy::{LayerId, Platform};
use mhla::ir::Program;
use mhla_bench::grid_frontier_points;

/// The execution mode under test: parallel batches by default,
/// sequential when `MHLA_SWEEP_PARALLEL=0`.
fn refine_opts_from_env() -> RefineOptions {
    match mhla_bench::sweep_parallel_from_env() {
        Ok(parallel) => RefineOptions::with_parallel(parallel),
        Err(e) => panic!("{e}"),
    }
}

/// The refined sweep of a grid the suite knows to be valid.
fn run_refined(
    program: &Program,
    platform: &Platform,
    axes: &[GridAxis],
    config: &MhlaConfig,
    opts: RefineOptions,
) -> RefinedGridSweep {
    try_sweep_grid_refined_with(program, platform, axes, config, &opts).expect("valid grid")
}

/// The three objectives the exactness half runs under.
fn objectives() -> [Objective; 3] {
    [
        Objective::Cycles,
        Objective::Energy,
        Objective::Weighted {
            energy_weight: 0.5,
            cycle_weight: 0.5,
        },
    ]
}

/// The small instance: a three-level platform and a two-axis grid whose
/// depth-2 fine lattice (9×9 points) is cheap to exhaust.
fn small_axes() -> Vec<GridAxis> {
    vec![
        GridAxis::new(LayerId(1), vec![1024u64, 4096]),
        GridAxis::new(LayerId(2), vec![128u64, 512]),
    ]
}

/// The exhaustive reference over the *materialized* fine lattice: every
/// virtual point evaluated cold.
fn exhaustive_fine(
    program: &Program,
    platform: &Platform,
    axes: &[GridAxis],
    depth: usize,
    config: &MhlaConfig,
) -> GridSweep {
    let fine_axes: Vec<GridAxis> = axes
        .iter()
        .map(|a| GridAxis::new(a.layer, refine_axis(&a.capacities, depth)))
        .collect();
    try_sweep_grid_run(
        program,
        platform,
        &fine_axes,
        config,
        &SweepOptions {
            warm_start: false,
            ..SweepOptions::default()
        },
    )
    .expect("valid grid")
    .sweep
}

/// Asserts the exactness contract of one refined run against the
/// exhaustive fine lattice: bookkeeping adds up, every committed point
/// is bit-identical to the exhaustive point at the same capacity vector,
/// and both Pareto frontiers are point-for-point identical.
fn assert_exact(name: &str, full: &GridSweep, refined: &RefinedGridSweep) {
    assert!(refined.status.is_complete(), "{name}");
    assert_eq!(
        refined.stats.virtual_points,
        full.points.len() as u64,
        "{name}: virtual lattice size"
    );
    assert_eq!(
        refined.stats.evaluated,
        refined.sweep.points.len(),
        "{name}: bookkeeping"
    );
    for rp in &refined.sweep.points {
        let ep = full
            .points
            .iter()
            .find(|ep| ep.capacities == rp.capacities)
            .unwrap_or_else(|| panic!("{name}: refined point {:?} off the lattice", rp.capacities));
        assert_eq!(
            ep.result, rp.result,
            "{name} at {:?}: refined point diverges from exhaustive",
            rp.capacities
        );
    }
    assert_eq!(
        grid_frontier_points(full, &full.pareto_cycles()),
        grid_frontier_points(&refined.sweep, &refined.sweep.pareto_cycles()),
        "{name}: cycles frontier diverges"
    );
    assert_eq!(
        grid_frontier_points(full, &full.pareto_energy()),
        grid_frontier_points(&refined.sweep, &refined.sweep.pareto_energy()),
        "{name}: energy frontier diverges"
    );
}

#[test]
fn refined_lattice_exceeds_1e5_points_with_under_5_percent_evals_on_all_nine_apps() {
    let axes = default_axes(&Platform::four_level_default());
    let opts = refine_opts_from_env();
    for app in mhla_apps::all_apps() {
        let refined = run_refined(
            &app.program,
            &Platform::four_level_default(),
            &axes,
            &MhlaConfig::default(),
            opts.clone(),
        );
        assert!(refined.status.is_complete(), "{}", app.name());
        assert!(
            refined.stats.virtual_points >= 100_000,
            "{}: virtual lattice has only {} points",
            app.name(),
            refined.stats.virtual_points
        );
        let ratio = refined.stats.eval_ratio();
        assert!(
            ratio <= 0.05,
            "{}: evaluated {} of {} virtual points ({:.2}% > 5%)",
            app.name(),
            refined.stats.evaluated,
            refined.stats.virtual_points,
            100.0 * ratio
        );
        // The committed points carry a coherent certificate ledger.
        assert_eq!(
            refined.stats.evaluated,
            refined.sweep.points.len(),
            "{}",
            app.name()
        );
        assert!(
            refined.stats.cells_closed_floor + refined.stats.cells_closed_mask > 0,
            "{}: no cell was ever certified closed",
            app.name()
        );
    }
}

#[test]
fn refined_small_instance_is_bit_identical_to_the_exhaustive_fine_lattice() {
    let pf = Platform::three_level(4096, 512);
    let axes = small_axes();
    let depth = 2;
    for app in [mhla_apps::fir_bank::app(), mhla_apps::sobel_edge::app()] {
        for objective in objectives() {
            let config = MhlaConfig {
                objective,
                ..MhlaConfig::default()
            };
            let refined = run_refined(
                &app.program,
                &pf,
                &axes,
                &config,
                refine_opts_from_env().depth(depth),
            );
            let full = exhaustive_fine(&app.program, &pf, &axes, depth, &config);
            assert_exact(app.name(), &full, &refined);
        }
    }
}

#[test]
fn refined_budget_interrupt_and_resume_is_bit_identical() {
    let pf = Platform::three_level(4096, 512);
    let axes = small_axes();
    let app = mhla_apps::fir_bank::app();
    let config = MhlaConfig::default();
    let base = refine_opts_from_env().depth(2);
    let uninterrupted = run_refined(&app.program, &pf, &axes, &config, base.clone());
    assert!(uninterrupted.status.is_complete());
    for max in [1usize, 4, 9, 20] {
        let stopped = run_refined(
            &app.program,
            &pf,
            &axes,
            &config,
            base.clone().budget(ExploreBudget::max_evals(max)),
        );
        let resumed =
            try_sweep_grid_refined_resume(&app.program, &pf, &axes, &config, &base, &stopped)
                .expect("resume");
        assert_eq!(resumed, uninterrupted, "max_evals={max}");
    }
}
