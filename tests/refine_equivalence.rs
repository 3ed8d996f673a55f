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
//!   certifies differently is caught too, and every cold row spends
//!   exactly one search leg per committed point (no search is wasted on a
//!   point the committed state already certifies).

use std::collections::HashMap;

use mhla::core::explore::{
    default_axes, refine_axis, try_sweep_grid_pruned_with, try_sweep_grid_refined_resume,
    try_sweep_grid_refined_with, try_sweep_grid_run, ExploreBudget, GridAxis, GridPoint, GridSweep,
    PruneOptions, RefineOptions, RefineStats, RefinedGridSweep, SearchMode, SweepOptions,
};
use mhla::core::{pareto, report, MhlaConfig, Objective};
use mhla::hierarchy::{LayerId, Platform};
use mhla::ir::Program;
use mhla_bench::grid_frontier_points;

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
        &SweepOptions::default(),
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
    let opts = RefineOptions::default();
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
            refined.stats.cells_closed_mask > 0,
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
                RefineOptions::default().depth(depth),
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
    let base = RefineOptions::default().depth(2);
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
/// also has 3 waves, 90 coarse and 3,213 virtual points, and every cold
/// row has `search_legs == evaluated`. Energy rows exercise the
/// certificate's energy-margin branch, improving rows the coarse-neighbour
/// and parent-corner seeds; each improving row's objective frontier
/// dominates-or-equals its app's cold cycles row's.
#[rustfmt::skip]
const LEDGER: [(&str, &str, [usize; 7]); 27] = [
    ("full_search_me",  "cycles",    [ 153,  346,  334, 2128, 3018,  153,    0]),
    ("hierarchical_me", "cycles",    [ 278,  349,  351, 2132, 2879,  278,    0]),
    ("video_encoder",   "cycles",    [  52,  273,  658, 1293, 2624,   52,    0]),
    ("jpeg_enc",        "cycles",    [  48,  221,  721,  866, 2288,   48,    0]),
    ("cavity_detect",   "cycles",    [  37,  264,  864, 1024, 2744,   37,    0]),
    ("wavelet",         "cycles",    [ 195,  328,  616, 1720, 2818,  195,    0]),
    ("sobel_edge",      "cycles",    [  14,  156,  588,  544, 1765,   14,    0]),
    ("fir_bank",        "cycles",    [  20,  159,  588,  565, 1786,   20,    0]),
    ("lpc_voice",       "cycles",    [  18,  159,  588,  565, 1788,   18,    0]),
    ("full_search_me",  "energy",    [ 601,  360,  160, 2400, 2612,  601,    0]),
    ("hierarchical_me", "energy",    [2338,  360,    0, 2560,  875, 2338,    0]),
    ("video_encoder",   "energy",    [ 328,  304,  165, 2003, 2493,  328,    0]),
    ("jpeg_enc",        "energy",    [ 351,  360,  270, 2290, 2862,  351,    0]),
    ("cavity_detect",   "energy",    [ 365,  352,  308, 2196, 2817,  365,    0]),
    ("wavelet",         "energy",    [ 426,  348,  280, 2196, 2734,  426,    0]),
    ("sobel_edge",      "energy",    [  58,  286,  693, 1349, 2670,   58,    0]),
    ("fir_bank",        "energy",    [  70,  303,  936, 1225, 2915,   70,    0]),
    ("lpc_voice",       "energy",    [ 113,  297,  607, 1512, 2848,  113,    0]),
    ("full_search_me",  "improving", [ 197,  346,  334, 2128, 2974,  333,   46]),
    ("hierarchical_me", "improving", [ 795,  349,  351, 2132, 2362, 1656,  574]),
    ("video_encoder",   "improving", [ 167,  273,  658, 1293, 2509,  313,  120]),
    ("jpeg_enc",        "improving", [  48,  221,  721,  866, 2288,   53,    0]),
    ("cavity_detect",   "improving", [  37,  264,  864, 1024, 2744,   53,    0]),
    ("wavelet",         "improving", [ 262,  328,  604, 1732, 2751,  555,   84]),
    ("sobel_edge",      "improving", [  14,  156,  588,  544, 1765,   14,    0]),
    ("fir_bank",        "improving", [  20,  159,  588,  565, 1786,   20,    0]),
    ("lpc_voice",       "improving", [  18,  159,  588,  565, 1788,   18,    0]),
];

#[test]
fn refined_certificate_ledger_is_pinned_at_depth_2_on_all_nine_apps() {
    let platform = Platform::four_level_default();
    let axes = default_axes(&platform);
    let apps = mhla_apps::all_apps();
    // The cold cycles rows come first: the improving rows compare their
    // frontiers against them.
    let mut cold_cycles: HashMap<&str, RefinedGridSweep> = HashMap::new();
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
            ..RefineOptions::default().depth(2)
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
        match mode {
            "improving" => {
                let cold = &cold_cycles[name];
                let surface = |run: &RefinedGridSweep| {
                    let front = run.sweep.pareto_objective(&config.objective);
                    report::objective_coords(&run.sweep, &front, &config.objective)
                };
                assert!(
                    pareto::front_dominates(&surface(&refined), &surface(cold)),
                    "{name}: the improving frontier trails the cold one"
                );
            }
            _ => {
                assert_eq!(
                    refined.search_legs, refined.stats.evaluated,
                    "{name} {mode}: a search was wasted"
                );
                if mode == "cycles" {
                    cold_cycles.insert(name, refined);
                }
            }
        }
    }
}

/// Refined improving phase 0 seeds like the improving pruned sweep — each
/// coarse point from its committed neighbours one coarse step down each
/// axis — so at depth 2 on the default four-level grid the refined run's
/// points on the coarse grid are exactly the pruned sweep's points, with
/// bit-identical results.
#[test]
fn refined_improving_phase_0_equals_the_pruned_improving_sweep() {
    let platform = Platform::four_level_default();
    let axes = default_axes(&platform);
    let on_coarse_grid = |caps: &[u64]| {
        caps.iter()
            .zip(&axes)
            .all(|(c, axis)| axis.capacities.contains(c))
    };
    for app in mhla_apps::all_apps() {
        for (label, objective) in [("cycles", Objective::Cycles), ("energy", Objective::Energy)] {
            let config = MhlaConfig {
                objective,
                ..MhlaConfig::default()
            };
            let pruned = try_sweep_grid_pruned_with(
                &app.program,
                &platform,
                &axes,
                &config,
                &PruneOptions {
                    mode: SearchMode::Improving,
                    ..PruneOptions::default()
                },
            )
            .expect("valid grid");
            let refined = run_refined(
                &app.program,
                &platform,
                &axes,
                &config,
                RefineOptions {
                    mode: SearchMode::Improving,
                    ..RefineOptions::default().depth(2)
                },
            );
            let phase_0: Vec<&GridPoint> = refined
                .sweep
                .points
                .iter()
                .filter(|p| on_coarse_grid(&p.capacities))
                .collect();
            let caps = |points: &[&GridPoint]| -> Vec<Vec<u64>> {
                points.iter().map(|p| p.capacities.clone()).collect()
            };
            let pruned: Vec<&GridPoint> = pruned.sweep.points.iter().collect();
            let name = format!("{} {label}", app.name());
            assert_eq!(
                caps(&phase_0),
                caps(&pruned),
                "{name}: decided coarse points"
            );
            for (r, p) in phase_0.iter().zip(&pruned) {
                assert_eq!(r.result, p.result, "{name} at {:?}", r.capacities);
            }
        }
    }
}
