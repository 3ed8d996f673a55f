//! The pruned four-level grid exploration must be *provably lossless* —
//! the PR acceptance bar, enforced here on all nine applications over the
//! default L1×L2×L3 grid of `Platform::four_level_default`, under all
//! three objectives and in both execution modes (sequential point-by-point
//! and frontier-wave parallel):
//!
//! * every point the pruned sweep evaluates is bit-identical to the same
//!   point of the exhaustive grid (and to a cold standalone `Mhla::run`);
//! * the pruned cycles and energy Pareto frontiers are *bit-identical* to
//!   the exhaustive frontiers — same capacity vectors, same full
//!   `MhlaResult`s — even though the pruned sweep never evaluated the
//!   skipped points;
//! * the pruning is real: ≥ 30 % of the candidate points are skipped
//!   across the suite under the cycles objective and ≥ 20 % under the
//!   energy objective (the gain-bound saturation rule plus the cost
//!   floor), with per-point bookkeeping that adds up;
//! * the parallel wave mode commits exactly the sequential decisions:
//!   identical `PruneStats`, identical evaluated points, identical
//!   frontiers for every wave size;
//! * disarming conditions degrade to exhaustive, never to a wrong
//!   frontier.
//!
//! `MHLA_SWEEP_PARALLEL=0` runs the whole suite in sequential mode (the
//! CI leg); malformed values are rejected loudly.

use mhla::core::explore::{
    default_axes, try_sweep_grid_pruned_with, try_sweep_grid_run, GridAxis, GridSweep,
    PruneOptions, PrunedGridSweep, SweepOptions,
};
use mhla::core::{Mhla, MhlaConfig, Objective, SearchStrategy};
use mhla::hierarchy::{LayerId, Platform};
use mhla::ir::Program;
use mhla_bench::grid_frontier_points;

/// The pruned sweep of a grid the suite knows to be valid.
fn run_pruned(
    program: &Program,
    platform: &Platform,
    axes: &[GridAxis],
    config: &MhlaConfig,
    opts: PruneOptions,
) -> PrunedGridSweep {
    try_sweep_grid_pruned_with(program, platform, axes, config, &opts).expect("valid grid")
}

/// The execution mode under test: parallel waves by default, sequential
/// when `MHLA_SWEEP_PARALLEL=0`. Parsing/validation is the bench
/// harness's (one definition of the `0 | 1 | reject` contract); anything
/// malformed fails the suite instead of silently testing the wrong mode.
fn prune_opts_from_env() -> PruneOptions {
    match mhla_bench::sweep_parallel_from_env() {
        Ok(true) => PruneOptions::default(),
        Ok(false) => PruneOptions {
            parallel: false,
            wave: 1,
            ..PruneOptions::default()
        },
        Err(e) => panic!("{e}"),
    }
}

/// The exhaustive reference: every point of the Cartesian product, cold —
/// the canonical semantics in which every grid point equals a standalone
/// run.
fn exhaustive(app: &mhla_apps::Application, axes: &[GridAxis], config: &MhlaConfig) -> GridSweep {
    try_sweep_grid_run(
        &app.program,
        &Platform::four_level_default(),
        axes,
        config,
        &SweepOptions {
            warm_start: false,
            ..SweepOptions::default()
        },
    )
    .expect("valid grid")
    .sweep
}

/// Asserts the full losslessness contract of one pruned run against its
/// exhaustive reference: bookkeeping adds up, every evaluated point is
/// bit-identical to the exhaustive point at the same capacity vector, and
/// both Pareto frontiers are point-for-point identical.
fn assert_lossless(name: &str, full: &GridSweep, pruned: &PrunedGridSweep) {
    let stats = pruned.stats;
    assert_eq!(stats.candidates, full.points.len(), "{name}");
    assert_eq!(stats.evaluated, pruned.sweep.points.len(), "{name}");
    assert_eq!(
        stats.evaluated + stats.skipped_saturated + stats.skipped_floor,
        stats.candidates,
        "{name}"
    );
    for pp in &pruned.sweep.points {
        let ep = full
            .points
            .iter()
            .find(|ep| ep.capacities == pp.capacities)
            .unwrap_or_else(|| panic!("{name}: pruned point {:?} not in the grid", pp.capacities));
        assert_eq!(
            ep.result, pp.result,
            "{name} at {:?}: pruned point diverges from exhaustive",
            pp.capacities
        );
    }
    assert_eq!(
        grid_frontier_points(full, &full.pareto_cycles()),
        grid_frontier_points(&pruned.sweep, &pruned.sweep.pareto_cycles()),
        "{name}: cycles frontier diverges"
    );
    assert_eq!(
        grid_frontier_points(full, &full.pareto_energy()),
        grid_frontier_points(&pruned.sweep, &pruned.sweep.pareto_energy()),
        "{name}: energy frontier diverges"
    );
}

/// Runs the nine-app suite under one objective, asserting losslessness per
/// app and returning the suite-wide (candidates, skipped) totals.
fn suite_under(config: &MhlaConfig, opts: PruneOptions) -> (usize, usize) {
    let axes = default_axes(&Platform::four_level_default());
    let mut suite_candidates = 0usize;
    let mut suite_skipped = 0usize;
    for app in mhla_apps::all_apps() {
        let full = exhaustive(&app, &axes, config);
        let pruned = run_pruned(
            &app.program,
            &Platform::four_level_default(),
            &axes,
            config,
            opts.clone(),
        );
        assert_lossless(app.name(), &full, &pruned);
        suite_candidates += pruned.stats.candidates;
        suite_skipped += pruned.stats.skipped();
    }
    (suite_candidates, suite_skipped)
}

#[test]
fn pruned_four_level_frontier_is_bit_identical_on_all_nine_apps() {
    let (candidates, skipped) = suite_under(&MhlaConfig::default(), prune_opts_from_env());
    // The pruning is real: at least 30 % of the default grid is skipped
    // across the suite (deterministic — skip decisions depend only on the
    // searches, not on timing or the wave structure).
    let ratio = skipped as f64 / candidates as f64;
    assert!(
        ratio >= 0.30,
        "only {skipped}/{candidates} = {:.1}% of candidate points skipped",
        100.0 * ratio
    );
}

#[test]
fn pruned_energy_objective_is_bit_identical_and_still_prunes() {
    // The energy-side saturation rule (instrumented gain bounds) plus the
    // cost floor must keep pruning meaningful under `Objective::Energy`:
    // ≥ 20 % of the suite's candidate points skipped, frontiers
    // bit-identical throughout.
    let config = MhlaConfig {
        objective: Objective::Energy,
        ..MhlaConfig::default()
    };
    let (candidates, skipped) = suite_under(&config, prune_opts_from_env());
    let ratio = skipped as f64 / candidates as f64;
    assert!(
        ratio >= 0.20,
        "only {skipped}/{candidates} = {:.1}% skipped under Objective::Energy",
        100.0 * ratio
    );
}

#[test]
fn pruned_weighted_objective_is_bit_identical() {
    // The weighted objective scales the gain-bound test by its energy
    // weight; losslessness must hold regardless of how much pruning
    // survives the margins.
    let config = MhlaConfig {
        objective: Objective::Weighted {
            energy_weight: 0.5,
            cycle_weight: 0.5,
        },
        ..MhlaConfig::default()
    };
    let (candidates, skipped) = suite_under(&config, prune_opts_from_env());
    assert!(skipped <= candidates);
}

#[test]
fn parallel_and_sequential_wave_modes_are_identical() {
    // The frontier-wave restructure must not change a single decision:
    // sequential (wave = 1), small waves and the default parallel mode
    // yield identical PruneStats, identical evaluated points and
    // identical frontiers under every objective.
    let axes = default_axes(&Platform::four_level_default());
    let apps = [
        mhla_apps::fir_bank::app(),
        mhla_apps::sobel_edge::app(),
        mhla_apps::full_search_me::app(),
    ];
    for objective in [
        Objective::Cycles,
        Objective::Energy,
        Objective::Weighted {
            energy_weight: 0.5,
            cycle_weight: 0.5,
        },
    ] {
        let config = MhlaConfig {
            objective,
            ..MhlaConfig::default()
        };
        for app in &apps {
            let sequential = run_pruned(
                &app.program,
                &Platform::four_level_default(),
                &axes,
                &config,
                PruneOptions {
                    parallel: false,
                    wave: 1,
                    ..PruneOptions::default()
                },
            );
            assert_eq!(
                sequential.speculative_evals,
                0,
                "{}: wave=1 cannot speculate",
                app.name()
            );
            for opts in [
                PruneOptions::default(),
                PruneOptions {
                    parallel: true,
                    wave: 4,
                    ..PruneOptions::default()
                },
                PruneOptions {
                    parallel: false,
                    wave: 16,
                    ..PruneOptions::default()
                },
            ] {
                let other = run_pruned(
                    &app.program,
                    &Platform::four_level_default(),
                    &axes,
                    &config,
                    opts.clone(),
                );
                assert_eq!(
                    sequential.stats,
                    other.stats,
                    "{} ({objective:?}, {opts:?}): PruneStats diverge",
                    app.name()
                );
                assert_eq!(
                    sequential.sweep,
                    other.sweep,
                    "{} ({objective:?}, {opts:?}): evaluated points diverge",
                    app.name()
                );
            }
        }
    }
}

#[test]
fn pruned_points_match_cold_standalone_runs() {
    // Spot-check the canonical semantics on one mid-size app: every
    // evaluated pruned point equals a from-scratch standalone run.
    let app = mhla_apps::sobel_edge::app();
    let platform = Platform::four_level_default();
    let config = MhlaConfig::default();
    let pruned = run_pruned(
        &app.program,
        &platform,
        &default_axes(&Platform::four_level_default()),
        &config,
        prune_opts_from_env(),
    );
    assert!(
        pruned.stats.skipped() > 0,
        "default grid must actually prune"
    );
    for point in &pruned.sweep.points {
        let pf = platform.with_layer_capacities(&[
            (LayerId(1), point.capacities[0]),
            (LayerId(2), point.capacities[1]),
            (LayerId(3), point.capacities[2]),
        ]);
        let standalone = Mhla::new(&app.program, &pf, config.clone()).run();
        assert_eq!(point.result, standalone, "at {:?}", point.capacities);
    }
}

#[test]
fn energy_saturation_arms_inside_the_clamp_region() {
    // Growth confined to the sub-reference energy-clamp region (≤ 1 KiB)
    // leaves the whole cost model bit-identical, so the saturation rule
    // must fire under Objective::Energy whenever such a point's run was
    // not bound on the grown axis. The default grid's L1 axis (256 B –
    // 1 KiB) lives entirely inside the clamp region; across the suite at
    // least one app must exhibit such a skip.
    let axes = default_axes(&Platform::four_level_default());
    let config = MhlaConfig {
        objective: Objective::Energy,
        ..MhlaConfig::default()
    };
    let saturated: usize = mhla_apps::all_apps()
        .iter()
        .map(|app| {
            run_pruned(
                &app.program,
                &Platform::four_level_default(),
                &axes,
                &config,
                prune_opts_from_env(),
            )
            .stats
            .skipped_saturated
        })
        .sum();
    assert!(
        saturated > 0,
        "the energy-side saturation rule never fired on the suite"
    );
}

#[test]
fn non_instrumented_strategies_disarm_saturation_but_stay_lossless() {
    // The exhaustive strategy records no constraint masks or margins, so
    // the saturation rule must disarm; the sweep may still floor-prune
    // but must reproduce the exhaustive frontier regardless.
    let app = mhla_apps::fir_bank::app();
    let config = MhlaConfig {
        strategy: SearchStrategy::Exhaustive { node_limit: 20_000 },
        ..MhlaConfig::default()
    };
    // A small sub-grid keeps the per-point branch-and-bound affordable.
    let axes = [
        GridAxis::new(LayerId(1), vec![32 * 1024u64, 64 * 1024]),
        GridAxis::new(LayerId(2), vec![8 * 1024u64, 16 * 1024]),
        GridAxis::new(LayerId(3), vec![512u64, 1024]),
    ];
    let full = exhaustive(&app, &axes, &config);
    let pruned = run_pruned(
        &app.program,
        &Platform::four_level_default(),
        &axes,
        &config,
        prune_opts_from_env(),
    );
    assert_eq!(pruned.stats.skipped_saturated, 0, "saturation must disarm");
    assert_lossless(app.name(), &full, &pruned);
}

#[test]
fn cost_floor_rule_fires_on_transfer_free_programs() {
    // A program whose optimum is transfer-free — one internal temporary,
    // written once and then re-read — achieves the cost floor exactly:
    // every access served at 1 cycle from the cheapest layer, zero
    // transfer energy. Under the (non-instrumented) exhaustive strategy
    // the saturation rule is disarmed, so any skipping below must come
    // from the cost-floor rule: the small point's achieved
    // (cycles, energy) is at or below every larger point's floor
    // (per-access energies are clamped equal below 1 KiB), which
    // dominates those points sight unseen.
    use mhla::ir::{ElemType, ProgramBuilder};
    let mut b = ProgramBuilder::new("tmp_scan");
    let tmp = b.array("tmp", &[64], ElemType::U8);
    b.loop_scope("w", 0, 64, 1, |b, lw| {
        let i = b.var(lw);
        b.stmt("write")
            .write(tmp, vec![i])
            .compute_cycles(1)
            .finish();
    });
    b.loop_scope("rep", 0, 200, 1, |b, _| {
        b.loop_scope("r", 0, 64, 1, |b, lr| {
            let j = b.var(lr);
            b.stmt("read").read(tmp, vec![j]).compute_cycles(1).finish();
        });
    });
    let program = b.finish();

    let platform = Platform::three_level(1024, 256);
    let axes = [
        GridAxis::new(LayerId(1), vec![512u64, 1024]),
        GridAxis::new(LayerId(2), vec![128u64, 256, 512]),
    ];
    let config = MhlaConfig {
        objective: Objective::Energy,
        strategy: SearchStrategy::Exhaustive { node_limit: 50_000 },
        ..MhlaConfig::default()
    };
    let pruned = run_pruned(&program, &platform, &axes, &config, prune_opts_from_env());
    assert_eq!(pruned.stats.skipped_saturated, 0, "saturation is disarmed");
    assert!(
        pruned.stats.skipped_floor > 0,
        "cost-floor rule must fire on a floor-achieving program: {:?}",
        pruned.stats
    );

    // Lossless regardless: the frontier matches the exhaustive grid.
    let full = try_sweep_grid_run(
        &program,
        &platform,
        &axes,
        &config,
        &SweepOptions {
            warm_start: false,
            ..SweepOptions::default()
        },
    )
    .expect("valid grid")
    .sweep;
    assert_lossless("tmp_scan", &full, &pruned);
}

#[test]
fn degenerate_axes_yield_empty_pruned_sweeps() {
    let app = mhla_apps::fir_bank::app();
    let platform = Platform::four_level_default();
    let config = MhlaConfig::default();
    let empty = run_pruned(&app.program, &platform, &[], &config, prune_opts_from_env());
    assert!(empty.sweep.points.is_empty());
    assert_eq!(empty.stats.candidates, 0);
    assert_eq!(empty.waves, 0);
    let empty_axis = run_pruned(
        &app.program,
        &platform,
        &[
            GridAxis::new(LayerId(1), vec![32 * 1024u64]),
            GridAxis::new(LayerId(2), Vec::new()),
        ],
        &config,
        prune_opts_from_env(),
    );
    assert!(empty_axis.sweep.points.is_empty());
}
