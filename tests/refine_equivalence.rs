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
//! * **Certificates**: at depth 2 on the default four-level grid, the
//!   full certificate ledger ([`RefineStats`], waves, search legs, seed
//!   wins) of all nine applications under cycles, energy and improving
//!   cycles is pinned, so a scheduler change that keeps the frontier but
//!   certifies differently is caught too.
//!
//! `MHLA_SWEEP_PARALLEL=0` runs the suite in sequential mode (the CI
//! leg); malformed values are rejected loudly.

use mhla::core::explore::{
    default_axes, refine_axis, try_sweep_grid_refined_resume, try_sweep_grid_refined_with,
    try_sweep_grid_run, ExploreBudget, GridAxis, GridSweep, RefineOptions, RefineStats,
    RefinedGridSweep, SearchMode, SweepOptions,
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

/// The depth-2 certificate ledger on the default four-level grid: per
/// application and mode, `[evaluated, cells_opened, cells_closed_mask,
/// cells_leaf, corners_certified, search_legs, seed_wins]`. Every row
/// also has `cells_closed_floor` 0, 3 waves, 90 coarse and 3,213 virtual
/// points. Energy rows exercise the certificate's energy-margin branch,
/// improving rows the parent-corner seeds.
#[rustfmt::skip]
const LEDGER: [(&str, &str, [usize; 7]); 27] = [
    ("full_search_me",  "cycles",    [ 457,  346,  334, 2128, 2714,  457,    0]),
    ("hierarchical_me", "cycles",    [ 542,  349,  351, 2132, 2615,  542,    0]),
    ("video_encoder",   "cycles",    [ 264,  273,  658, 1293, 2412,  264,    0]),
    ("jpeg_enc",        "cycles",    [ 266,  221,  721,  866, 2070,  266,    0]),
    ("cavity_detect",   "cycles",    [ 203,  264,  864, 1024, 2578,  203,    0]),
    ("wavelet",         "cycles",    [ 504,  328,  616, 1720, 2509,  504,    0]),
    ("sobel_edge",      "cycles",    [ 113,  156,  588,  544, 1666,  113,    0]),
    ("fir_bank",        "cycles",    [ 143,  159,  588,  565, 1663,  143,    0]),
    ("lpc_voice",       "cycles",    [ 103,  159,  588,  565, 1703,  103,    0]),
    ("full_search_me",  "energy",    [ 845,  360,  160, 2400, 2368,  845,    0]),
    ("hierarchical_me", "energy",    [2366,  360,    0, 2560,  847, 2366,    0]),
    ("video_encoder",   "energy",    [ 481,  304,  165, 2003, 2340,  481,    0]),
    ("jpeg_enc",        "energy",    [ 491,  360,  270, 2290, 2722,  491,    0]),
    ("cavity_detect",   "energy",    [ 993,  346,  396, 2066, 2161,  993,    0]),
    ("wavelet",         "energy",    [1009,  347,  333, 2136, 2139, 1009,    0]),
    ("sobel_edge",      "energy",    [ 370,  283,  791, 1230, 2340,  370,    0]),
    ("fir_bank",        "energy",    [ 204,  303,  938, 1223, 2781,  204,    0]),
    ("lpc_voice",       "energy",    [ 257,  297,  608, 1511, 2704,  257,    0]),
    ("full_search_me",  "improving", [ 503,  346,  334, 2128, 2668,  716,   56]),
    ("hierarchical_me", "improving", [ 726,  349,  351, 2132, 2431, 1433,  241]),
    ("video_encoder",   "improving", [ 279,  273,  658, 1293, 2397,  434,   27]),
    ("jpeg_enc",        "improving", [ 266,  221,  721,  866, 2070,  343,    0]),
    ("cavity_detect",   "improving", [ 203,  264,  864, 1024, 2578,  288,    0]),
    ("wavelet",         "improving", [ 555,  328,  604, 1732, 2458, 1012,   86]),
    ("sobel_edge",      "improving", [ 113,  156,  588,  544, 1666,  146,    0]),
    ("fir_bank",        "improving", [ 143,  159,  588,  565, 1663,  207,    0]),
    ("lpc_voice",       "improving", [ 103,  159,  588,  565, 1703,  147,    0]),
];

#[test]
fn refined_certificate_ledger_is_pinned_at_depth_2_on_all_nine_apps() {
    let platform = Platform::four_level_default();
    let axes = default_axes(&platform);
    let apps = mhla_apps::all_apps();
    for (name, mode, [evaluated, opened, mask, leaf, certified, legs, wins]) in LEDGER {
        let app = apps
            .iter()
            .find(|a| a.name() == name)
            .unwrap_or_else(|| panic!("no app {name}"));
        let (objective, search) = match mode {
            "cycles" => (Objective::Cycles, SearchMode::Cold),
            "energy" => (Objective::Energy, SearchMode::Cold),
            _ => (Objective::Cycles, SearchMode::Improving),
        };
        let config = MhlaConfig {
            objective,
            ..MhlaConfig::default()
        };
        let opts = RefineOptions {
            mode: search,
            ..refine_opts_from_env().depth(2)
        };
        let refined = run_refined(&app.program, &platform, &axes, &config, opts);
        assert!(refined.status.is_complete(), "{name} {mode}");
        assert_eq!(
            refined.stats,
            RefineStats {
                coarse_points: 90,
                virtual_points: 3_213,
                evaluated,
                cells_opened: opened,
                cells_closed_floor: 0,
                cells_closed_mask: mask,
                cells_leaf: leaf,
                corners_certified: certified,
            },
            "{name} {mode}: certificate ledger"
        );
        assert_eq!(
            (refined.waves, refined.search_legs, refined.seed_wins),
            (3, legs, wins),
            "{name} {mode}: waves, search legs, seed wins"
        );
    }
}
