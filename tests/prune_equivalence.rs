//! The pruned four-level grid exploration must be *provably lossless* —
//! the PR acceptance bar, enforced here on all nine applications over the
//! default L1×L2×L3 grid of `Platform::four_level_default`, under all
//! three objectives:
//!
//! * every point the pruned sweep evaluates is bit-identical to the same
//!   point of the exhaustive grid (and to a cold standalone `Mhla::run`);
//! * the pruned cycles and energy Pareto frontiers are *bit-identical* to
//!   the exhaustive frontiers — same capacity vectors, same full
//!   `MhlaResult`s — even though the pruned sweep never evaluated the
//!   skipped points;
//! * the pruning is real: ≥ 30 % of the candidate points are skipped
//!   across the suite under the cycles objective and ≥ 20 % under the
//!   energy objective (the gain-bound saturation rule), with per-point
//!   bookkeeping that adds up;
//! * every point is decided before it is searched: the per-app ledger of
//!   evaluated points, skips and search legs is pinned under the cycles
//!   and energy objectives, and no search is thrown away (one cold search
//!   leg per evaluated point);
//! * budgets do not matter: a cold budget cuts a rank level at a
//!   key-order position, so `max_evals(k)` commits exactly the first `k`
//!   points the unbudgeted run searches in (rank, key) order, and every
//!   stopped run resumes to the unbudgeted run field for field, as does a
//!   run under a cancel flag that is never raised;
//! * disarming conditions degrade to exhaustive, never to a wrong
//!   frontier.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use mhla::core::explore::{
    default_axes, try_sweep_grid_pruned_resume, try_sweep_grid_pruned_with, try_sweep_grid_resume,
    try_sweep_grid_run, ExploreBudget, GridAxis, GridPoint, GridSweep, PruneOptions,
    PrunedGridSweep, StopCause, SweepOptions, SweepStatus,
};
use mhla::core::{Mhla, MhlaConfig, Objective, SearchStrategy};
use mhla::hierarchy::{LayerId, Platform};
use mhla::ir::Program;
use mhla_bench::grid_frontier_points;

/// The default pruned sweep of a grid the suite knows to be valid.
fn run_pruned(
    program: &Program,
    platform: &Platform,
    axes: &[GridAxis],
    config: &MhlaConfig,
) -> PrunedGridSweep {
    try_sweep_grid_pruned_with(program, platform, axes, config, &PruneOptions::default())
        .expect("valid grid")
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
        &SweepOptions::default(),
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
        stats.evaluated + stats.skipped_saturated,
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
fn suite_under(config: &MhlaConfig) -> (usize, usize) {
    let axes = default_axes(&Platform::four_level_default());
    let mut suite_candidates = 0usize;
    let mut suite_skipped = 0usize;
    for app in mhla_apps::all_apps() {
        let full = exhaustive(&app, &axes, config);
        let pruned = run_pruned(&app.program, &Platform::four_level_default(), &axes, config);
        assert_lossless(app.name(), &full, &pruned);
        suite_candidates += pruned.stats.candidates;
        suite_skipped += pruned.stats.skipped();
    }
    (suite_candidates, suite_skipped)
}

#[test]
fn pruned_four_level_frontier_is_bit_identical_on_all_nine_apps() {
    let (candidates, skipped) = suite_under(&MhlaConfig::default());
    // The pruning is real: at least 30 % of the default grid is skipped
    // across the suite (deterministic — skip decisions depend only on the
    // searches, not on timing).
    let ratio = skipped as f64 / candidates as f64;
    assert!(
        ratio >= 0.30,
        "only {skipped}/{candidates} = {:.1}% of candidate points skipped",
        100.0 * ratio
    );
}

#[test]
fn pruned_energy_objective_is_bit_identical_and_still_prunes() {
    // The energy-side saturation rule (instrumented gain bounds) must
    // keep pruning meaningful under `Objective::Energy`:
    // ≥ 20 % of the suite's candidate points skipped, frontiers
    // bit-identical throughout.
    let config = MhlaConfig {
        objective: Objective::Energy,
        ..MhlaConfig::default()
    };
    let (candidates, skipped) = suite_under(&config);
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
    let (candidates, skipped) = suite_under(&config);
    assert!(skipped <= candidates);
}

/// The pruned ledger on the default four-level grid: per application
/// and objective, `[evaluated, skipped_saturated, search_legs]` of the
/// default (cold) pruned sweep over the 90 candidates. `search_legs`
/// equals `evaluated` on every row: each point is decided against the
/// committed state before it is searched, so no search is discarded.
#[rustfmt::skip]
const LEDGER: [(&str, &str, [usize; 3]); 18] = [
    ("full_search_me",  "cycles", [39, 51, 39]),
    ("hierarchical_me", "cycles", [33, 57, 33]),
    ("video_encoder",   "cycles", [16, 74, 16]),
    ("jpeg_enc",        "cycles", [16, 74, 16]),
    ("cavity_detect",   "cycles", [15, 75, 15]),
    ("wavelet",         "cycles", [45, 45, 45]),
    ("sobel_edge",      "cycles", [ 6, 84,  6]),
    ("fir_bank",        "cycles", [ 8, 82,  8]),
    ("lpc_voice",       "cycles", [ 8, 82,  8]),
    ("full_search_me",  "energy", [56, 34, 56]),
    ("hierarchical_me", "energy", [86,  4, 86]),
    ("video_encoder",   "energy", [36, 54, 36]),
    ("jpeg_enc",        "energy", [38, 52, 38]),
    ("cavity_detect",   "energy", [57, 33, 57]),
    ("wavelet",         "energy", [68, 22, 68]),
    ("sobel_edge",      "energy", [17, 73, 17]),
    ("fir_bank",        "energy", [18, 72, 18]),
    ("lpc_voice",       "energy", [18, 72, 18]),
];

#[test]
fn pruned_ledger_is_pinned_on_all_nine_apps() {
    let platform = Platform::four_level_default();
    let axes = default_axes(&platform);
    let apps = mhla_apps::all_apps();
    for (name, objective, ledger) in LEDGER {
        let app = apps
            .iter()
            .find(|a| a.name() == name)
            .unwrap_or_else(|| panic!("no app {name}"));
        let config = MhlaConfig {
            objective: match objective {
                "cycles" => Objective::Cycles,
                _ => Objective::Energy,
            },
            ..MhlaConfig::default()
        };
        let pruned = run_pruned(&app.program, &platform, &axes, &config);
        assert!(pruned.status.is_complete(), "{name} {objective}");
        let stats = pruned.stats;
        assert_eq!(stats.candidates, 90, "{name} {objective}");
        assert_eq!(
            [stats.evaluated, stats.skipped_saturated, pruned.search_legs],
            ledger,
            "{name} {objective}: [evaluated, skipped, search legs]"
        );
        assert_eq!(
            pruned.search_legs, stats.evaluated,
            "{name} {objective}: a search was discarded"
        );
        assert_eq!(
            (pruned.waves, pruned.speculative_evals),
            (1, 0),
            "{name} {objective}: waves, speculative evals"
        );
    }
}

/// A grid point's place in a cold run's schedule: its rank level (the
/// sum of its indices on the sorted axes), then its capacities (the key
/// order inside a level).
fn rank_key(axes: &[GridAxis], caps: &[u64]) -> (usize, Vec<u64>) {
    let rank = axes
        .iter()
        .zip(caps)
        .map(|(axis, c)| {
            let mut sorted = axis.capacities.clone();
            sorted.sort_unstable();
            sorted.dedup();
            sorted.iter().position(|x| x == c).expect("a grid capacity")
        })
        .sum();
    (rank, caps.to_vec())
}

/// The points' places in a cold run's schedule, in that order.
fn schedule(axes: &[GridAxis], points: &[GridPoint]) -> Vec<(usize, Vec<u64>)> {
    let mut order: Vec<_> = points
        .iter()
        .map(|p| rank_key(axes, &p.capacities))
        .collect();
    order.sort();
    order
}

/// The budgets that stop a run with searches `order` partway through a
/// rank level: `k` where the `k`-th and `k + 1`-th searches share a level.
fn mid_level_cuts(order: &[(usize, Vec<u64>)]) -> Vec<usize> {
    (1..order.len())
        .filter(|&k| order[k - 1].0 == order[k].0)
        .collect()
}

#[test]
fn budget_stops_resume_to_the_unbudgeted_run_on_all_nine_apps() {
    // Every cold run takes rank levels, whatever its budget. A cancel flag
    // that is never raised (the budget a served request carries) changes
    // nothing, and a `max_evals` stop partway through a rank level resumes
    // to the unbudgeted run, field for field.
    let platform = Platform::four_level_default();
    let axes = default_axes(&platform);
    let never_raised = PruneOptions::default().budget(ExploreBudget {
        cancel: Some(Arc::new(AtomicBool::new(false))),
        ..ExploreBudget::default()
    });
    let objectives = [
        Objective::Cycles,
        Objective::Energy,
        Objective::Weighted {
            energy_weight: 0.5,
            cycle_weight: 0.5,
        },
    ];
    let mut cut = 0;
    for objective in objectives {
        let config = MhlaConfig {
            objective,
            ..MhlaConfig::default()
        };
        for app in mhla_apps::all_apps() {
            let name = format!("{} {objective:?}", app.name());
            let full = run_pruned(&app.program, &platform, &axes, &config);
            let flagged =
                try_sweep_grid_pruned_with(&app.program, &platform, &axes, &config, &never_raised)
                    .expect("valid grid");
            assert_eq!(flagged, full, "{name}: never-raised cancel flag");
            let cuts = mid_level_cuts(&schedule(&axes, &full.sweep.points));
            let Some(&k) = cuts.get(cuts.len() / 2) else {
                continue;
            };
            cut += 1;
            let budgeted = PruneOptions::default().budget(ExploreBudget::max_evals(k));
            let stopped =
                try_sweep_grid_pruned_with(&app.program, &platform, &axes, &config, &budgeted)
                    .expect("valid grid");
            assert_eq!(stopped.stats.evaluated, k, "{name}: max_evals({k})");
            let resumed = try_sweep_grid_pruned_resume(
                &app.program,
                &platform,
                &axes,
                &config,
                &PruneOptions::default(),
                &stopped,
            )
            .expect("valid prior");
            assert_eq!(resumed, full, "{name}: resumed from max_evals({k})");
        }
    }
    assert!(
        cut >= 20,
        "only {cut} of 27 runs have a level with two searches"
    );
}

#[test]
fn cold_max_evals_commits_the_first_searches_in_rank_key_order() {
    // On the four-level grid, rank-level order and lexicographic order
    // differ. A cold `max_evals(k)` budget must commit exactly the first
    // `k` points the unbudgeted run searches in (rank, key) order — in the
    // exhaustive engine and in the pruned one, whose certified points cost
    // nothing — and its resume must equal the unbudgeted run.
    let platform = Platform::four_level_default();
    let axes = default_axes(&platform);
    let config = MhlaConfig::default();
    let app = mhla_apps::wavelet::app();
    let program = &app.program;
    let sorted = |order: &[(usize, Vec<u64>)]| {
        let mut caps: Vec<Vec<u64>> = order.iter().map(|(_, c)| c.clone()).collect();
        caps.sort();
        caps
    };
    let caps_of = |points: &[GridPoint]| -> Vec<Vec<u64>> {
        points.iter().map(|p| p.capacities.clone()).collect()
    };
    let mut differs_from_lex = false;

    let full = try_sweep_grid_run(program, &platform, &axes, &config, &SweepOptions::default())
        .expect("valid grid");
    // The exhaustive engine searches every point: its schedule is the grid's.
    let whole = schedule(&axes, &full.sweep.points);
    let cuts = mid_level_cuts(&whole);
    for &k in &[cuts[0], cuts[cuts.len() / 2], cuts[cuts.len() - 1]] {
        let opts = SweepOptions {
            budget: ExploreBudget::max_evals(k),
            ..SweepOptions::default()
        };
        let stopped =
            try_sweep_grid_run(program, &platform, &axes, &config, &opts).expect("valid grid");
        let stop = SweepStatus::Stopped {
            cause: StopCause::MaxEvals,
            next_lex: k,
        };
        assert_eq!(stopped.status, stop, "exhaustive max_evals({k})");
        assert_eq!(
            caps_of(&stopped.sweep.points),
            sorted(&whole[..k]),
            "exhaustive k={k}"
        );
        differs_from_lex |= caps_of(&stopped.sweep.points) != caps_of(&full.sweep.points[..k]);
        let resumed = try_sweep_grid_resume(
            program,
            &platform,
            &axes,
            &config,
            &SweepOptions::default(),
            &stopped,
        )
        .expect("valid prior");
        assert_eq!(resumed, full, "exhaustive resumed from max_evals({k})");
    }

    let full = run_pruned(program, &platform, &axes, &config);
    let searched = schedule(&axes, &full.sweep.points);
    let cuts = mid_level_cuts(&searched);
    for &k in &[cuts[0], cuts[cuts.len() / 2], cuts[cuts.len() - 1]] {
        let budgeted = PruneOptions::default().budget(ExploreBudget::max_evals(k));
        let stopped = try_sweep_grid_pruned_with(program, &platform, &axes, &config, &budgeted)
            .expect("valid grid");
        // Decided: every grid point scheduled before the next search.
        let decided = whole.iter().take_while(|p| **p < searched[k]).count();
        let stop = SweepStatus::Stopped {
            cause: StopCause::MaxEvals,
            next_lex: decided,
        };
        assert_eq!(stopped.status, stop, "pruned max_evals({k})");
        assert_eq!(
            caps_of(&stopped.sweep.points),
            sorted(&searched[..k]),
            "pruned k={k}"
        );
        differs_from_lex |= caps_of(&stopped.sweep.points) != caps_of(&full.sweep.points[..k]);
        let resumed = try_sweep_grid_pruned_resume(
            program,
            &platform,
            &axes,
            &config,
            &PruneOptions::default(),
            &stopped,
        )
        .expect("valid prior");
        assert_eq!(resumed, full, "pruned resumed from max_evals({k})");
    }
    assert!(
        differs_from_lex,
        "no budget told rank order from lexicographic order"
    );
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
    // The exhaustive strategy's runs are untracked — no rejection floors
    // or margins — so the saturation rule must disarm: the sweep
    // evaluates every point and reproduces the exhaustive frontier.
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
    );
    assert_eq!(pruned.stats.skipped_saturated, 0, "saturation must disarm");
    assert_lossless(app.name(), &full, &pruned);
}

#[test]
fn degenerate_axes_yield_empty_pruned_sweeps() {
    let app = mhla_apps::fir_bank::app();
    let platform = Platform::four_level_default();
    let config = MhlaConfig::default();
    let empty = run_pruned(&app.program, &platform, &[], &config);
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
    );
    assert!(empty_axis.sweep.points.is_empty());
}
