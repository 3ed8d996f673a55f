//! Machine checks of the improving sweep mode's dominance guarantee
//! (`SearchMode::Improving`): frontiers are allowed to *dominate* the
//! cold frontier, never to trail it.
//!
//! The guarantee is stated on the surface the search actually optimizes —
//! the step-1 objective score (`GridPoint::objective_score`) — because
//! the seeded portfolio picks the best-scoring leg with the cold leg
//! always included:
//!
//! * per point, the improving score is ≤ the cold score (exact f64
//!   comparison — both modes evaluate through the same arithmetic);
//! * the improving objective Pareto frontier dominates-or-equals the
//!   cold one (`pareto::front_dominates`), on all nine applications;
//! * points whose cold leg won are bit-identical to the cold sweep;
//! * the PR 3 finding is pinned and resolved: on the default 4-level
//!   grid the warm portfolio *strictly* beats the cold greedy search
//!   (hierarchical_me / video_encoder / wavelet), while the original
//!   `full_search_me` observation turns out to have required
//!   capacity-infeasible seeds, which the mode now rejects.

use mhla::core::explore::{
    default_axes, try_sweep_grid_pruned_with, try_sweep_grid_run, GridAxis, GridSweep,
    GridSweepRun, PruneOptions, SearchMode, SweepOptions,
};
use mhla::core::report::objective_coords;
use mhla::core::{pareto, MhlaConfig, Objective};
use mhla::hierarchy::Platform;
use mhla::ir::Program;

/// The three objectives the dominance guarantee is checked under.
const OBJECTIVES: [Objective; 3] = [
    Objective::Cycles,
    Objective::Energy,
    Objective::Weighted {
        energy_weight: 0.5,
        cycle_weight: 0.5,
    },
];

fn cold_opts() -> SweepOptions {
    SweepOptions::default()
}

fn improving_opts() -> SweepOptions {
    SweepOptions {
        mode: SearchMode::Improving,
        ..SweepOptions::default()
    }
}

/// The exhaustive grid sweep of a grid the suite knows to be valid.
fn run_grid(
    program: &Program,
    platform: &Platform,
    axes: &[GridAxis],
    config: &MhlaConfig,
    opts: SweepOptions,
) -> GridSweepRun {
    try_sweep_grid_run(program, platform, axes, config, &opts).expect("valid grid")
}

/// Asserts the full dominance contract of one improving sweep against its
/// cold reference; returns how many points strictly improved.
fn assert_dominates(
    name: &str,
    objective: &Objective,
    cold: &GridSweep,
    improving: &GridSweep,
) -> usize {
    assert_eq!(improving.points.len(), cold.points.len(), "{name}");
    let mut improved = 0usize;
    for (imp, base) in improving.points.iter().zip(&cold.points) {
        assert_eq!(imp.capacities, base.capacities, "{name}: point order");
        let (si, sc) = (
            imp.objective_score(objective),
            base.objective_score(objective),
        );
        assert!(
            si <= sc,
            "{name} at {:?}: improving score {si} > cold {sc}",
            imp.capacities
        );
        improved += usize::from(si < sc);
    }
    let imp_front = objective_coords(improving, &improving.pareto_objective(objective), objective);
    let cold_front = objective_coords(cold, &cold.pareto_objective(objective), objective);
    assert!(
        pareto::front_dominates(&imp_front, &cold_front),
        "{name}: improving frontier trails the cold one"
    );
    improved
}

#[test]
fn improving_dominates_cold_on_all_nine_apps_four_level() {
    let platform = Platform::four_level_default();
    let axes = default_axes(&platform);
    let config = MhlaConfig::default();
    for app in mhla_apps::all_apps() {
        let cold = run_grid(&app.program, &platform, &axes, &config, cold_opts()).sweep;
        let run = run_grid(&app.program, &platform, &axes, &config, improving_opts());
        let improved = assert_dominates(app.name(), &config.objective, &cold, &run.sweep);
        // A seed win is by construction a strict improvement, and every
        // cold-kept point must be bit-identical to the cold sweep.
        assert_eq!(improved, run.seed_wins, "{}", app.name());
        for (i, (imp, base)) in run.sweep.points.iter().zip(&cold.points).enumerate() {
            if run.winners[i].is_none() {
                assert_eq!(imp.result, base.result, "{} point {i}", app.name());
            }
        }
    }
}

#[test]
fn improving_dominates_cold_under_all_objectives_three_level() {
    let platform = Platform::three_level_default();
    let axes = default_axes(&platform);
    for objective in OBJECTIVES {
        let config = MhlaConfig {
            objective,
            ..MhlaConfig::default()
        };
        for app in mhla_apps::all_apps() {
            let cold = run_grid(&app.program, &platform, &axes, &config, cold_opts()).sweep;
            let run = run_grid(&app.program, &platform, &axes, &config, improving_opts());
            assert_dominates(app.name(), &objective, &cold, &run.sweep);
        }
    }
}

/// The pinned PR 3 regression, resolved: on 4-level stacks the warm
/// portfolio can strictly beat the cold greedy search. Investigating the
/// original `full_search_me` observation with the engine's feasibility
/// gate showed that *those* specific wins came from capacity-infeasible
/// warm seeds (a lex-predecessor carried across an innermost-axis reset
/// without a capacity check — its "improvements" overflowed the
/// scratchpad), which the improving mode now rejects; see
/// `infeasible_seeds_are_rejected_on_full_search_me`. The genuine
/// strict-improvement effect is real and is pinned here where it
/// survives the gate: `hierarchical_me` (the strongest case),
/// `video_encoder` and `wavelet` all strictly improve on the default
/// 4-level grid under the cycles objective.
#[test]
fn warm_portfolio_strictly_improves_on_the_four_level_grid() {
    let platform = Platform::four_level_default();
    let axes = default_axes(&platform);
    let config = MhlaConfig::default();
    for app in [
        mhla_apps::hierarchical_me::app(),
        mhla_apps::video_encoder::app(),
        mhla_apps::wavelet::app(),
    ] {
        let cold = run_grid(&app.program, &platform, &axes, &config, cold_opts()).sweep;
        let run = run_grid(&app.program, &platform, &axes, &config, improving_opts());
        let improved = assert_dominates(app.name(), &config.objective, &cold, &run.sweep);
        assert!(
            improved > 0,
            "{}: the 4-level warm-start strict improvement no longer reproduces",
            app.name()
        );
        assert_eq!(improved, run.seed_wins, "{}", app.name());
        assert!(
            run.evals > cold.points.len(),
            "{}: improving mode must have run extra portfolio legs",
            app.name()
        );
    }
}

/// The other half of the PR 3 resolution: `full_search_me`'s prototype
/// "improvements" were only reachable from capacity-infeasible seeds.
/// The improving mode must (a) reject such seeds — every committed
/// assignment fits its point's layer capacities — and (b) therefore
/// commit only genuine results (here: none of the feasible seeds beats
/// cold on this app, so the sweep degenerates to the cold one).
#[test]
fn infeasible_seeds_are_rejected_on_full_search_me() {
    use mhla::core::ExplorationContext;
    use std::collections::HashMap;

    let app = mhla_apps::full_search_me::app();
    let platform = Platform::four_level_default();
    let axes = default_axes(&platform);
    let config = MhlaConfig::default();
    let cold = run_grid(&app.program, &platform, &axes, &config, cold_opts()).sweep;
    let run = run_grid(&app.program, &platform, &axes, &config, improving_opts());
    assert_dominates("full_search_me", &config.objective, &cold, &run.sweep);

    let ctx = ExplorationContext::new(&app.program, &platform, config.clone());
    let no_buffers = HashMap::new();
    for point in &run.sweep.points {
        let sizes: Vec<(mhla::hierarchy::LayerId, u64)> = run
            .sweep
            .layers
            .iter()
            .copied()
            .zip(point.capacities.iter().copied())
            .collect();
        let pf = platform.with_layer_capacities(&sizes);
        assert!(
            ctx.cost_model(&pf)
                .check_capacity(&point.result.assignment, &no_buffers)
                .is_ok(),
            "committed assignment at {:?} overflows a layer",
            point.capacities
        );
    }
}

#[test]
fn improving_pruned_frontier_dominates_the_cold_exhaustive_one() {
    let platform = Platform::four_level_default();
    let axes = default_axes(&platform);
    let config = MhlaConfig::default();
    for app in [
        mhla_apps::full_search_me::app(),
        mhla_apps::sobel_edge::app(),
    ] {
        let cold = run_grid(&app.program, &platform, &axes, &config, cold_opts()).sweep;
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
        // Every evaluated point scores no worse than its cold counterpart.
        for pp in &pruned.sweep.points {
            let cp = cold
                .points
                .iter()
                .find(|cp| cp.capacities == pp.capacities)
                .expect("pruned point is a grid point");
            assert!(
                pp.objective_score(&config.objective) <= cp.objective_score(&config.objective),
                "{} at {:?}",
                app.name(),
                pp.capacities
            );
        }
        // The evaluated subset's objective frontier still dominates the
        // full cold grid's.
        let imp_front = objective_coords(
            &pruned.sweep,
            &pruned.sweep.pareto_objective(&config.objective),
            &config.objective,
        );
        let cold_front = objective_coords(
            &cold,
            &cold.pareto_objective(&config.objective),
            &config.objective,
        );
        assert!(
            pareto::front_dominates(&imp_front, &cold_front),
            "{}: improving pruned frontier trails",
            app.name()
        );
        // Improving pruned sweeps decide every point against its whole
        // committed down-set: the depth-0 refinement runs one wave and
        // discards no search.
        assert_eq!(pruned.speculative_evals, 0, "{}", app.name());
        assert_eq!(pruned.waves, 1, "{}", app.name());
    }
}
