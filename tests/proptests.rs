//! Equivalence properties on *randomized* programs — the exploration
//! layer's guarantees are stated for arbitrary programs, not just the
//! nine hand-written apps, so they are checked here against the bounded
//! generator of `mhla_ir::arbitrary` (small loop nests, arrays and affine
//! access patterns built through the public `ProgramBuilder`):
//!
//! * the pruned grid sweep's evaluated points and both Pareto frontiers
//!   are bit-identical to the exhaustive Cartesian product, under all
//!   three objectives;
//! * the adaptive refinement's committed points and both Pareto
//!   frontiers are bit-identical to the exhaustive sweep of the
//!   materialized fine lattice, under all three objectives, and a
//!   budget-interrupted refinement resumed to completion equals the
//!   uninterrupted run bit for bit — from every `max_evals` cut, most of
//!   them partway through a rank level — and a cancel flag that is never
//!   raised changes nothing;
//! * a context-backed run (`Mhla::with_context`) is bit-identical to a
//!   fresh standalone run at every platform point, under all three
//!   objectives.
//!
//! CI runs this suite with a fixed `PROPTEST_SEED` as the generator smoke
//! step; locally the (deterministic, per-test-name) default seed applies.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use mhla::core::explore::{
    refine_axis, try_sweep_grid_pruned_with, try_sweep_grid_refined_resume,
    try_sweep_grid_refined_with, try_sweep_grid_run, ExploreBudget, GridAxis, PruneOptions,
    RefineOptions, SearchMode, SweepOptions,
};
use mhla::core::{
    pareto, report, Assignment, EvalWorkspace, ExplorationContext, Mhla, MhlaConfig, Objective,
};
use mhla::hierarchy::{LayerId, Platform};
use mhla::ir::arbitrary::{program_specs, ProgramSpec};
use mhla_bench::grid_frontier_points;
use proptest::prelude::*;

/// The three objectives every property is checked under.
const OBJECTIVES: [Objective; 3] = [
    Objective::Cycles,
    Objective::Energy,
    Objective::Weighted {
        energy_weight: 0.5,
        cycle_weight: 0.5,
    },
];

/// A small three-level grid whose capacities straddle the generated
/// programs' array footprints (tens to a few hundred bytes), so probes
/// genuinely fail at some points and succeed at others.
fn small_axes() -> Vec<GridAxis> {
    vec![
        GridAxis::new(LayerId(1), vec![128u64, 256, 1024]),
        GridAxis::new(LayerId(2), vec![64u64, 128]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Pruned ≡ exhaustive on random programs: evaluated points
    /// bit-identical, frontiers bit-identical.
    #[test]
    fn pruned_equals_exhaustive_on_random_programs(spec in program_specs()) {
        let program = spec.build();
        let platform = Platform::three_level(1024, 256);
        let axes = small_axes();
        for objective in OBJECTIVES {
            let config = MhlaConfig { objective, ..MhlaConfig::default() };
            let full = try_sweep_grid_run(
                &program,
                &platform,
                &axes,
                &config,
                &SweepOptions::default(),
            )
            .expect("valid grid")
            .sweep;
            let pruned = try_sweep_grid_pruned_with(
                &program,
                &platform,
                &axes,
                &config,
                &PruneOptions::default(),
            )
            .expect("valid grid");
            // Every evaluated pruned point is a point of the exhaustive
            // grid, bit-identical.
            for pp in &pruned.sweep.points {
                let ep = full
                    .points
                    .iter()
                    .find(|ep| ep.capacities == pp.capacities);
                prop_assert!(ep.is_some_and(|ep| ep.result == pp.result),
                    "pruned point {:?} diverges under {:?}", pp.capacities, objective);
            }
            prop_assert_eq!(
                grid_frontier_points(&full, &full.pareto_cycles()),
                grid_frontier_points(&pruned.sweep, &pruned.sweep.pareto_cycles()),
                "cycles frontier diverges under {:?}", objective
            );
            prop_assert_eq!(
                grid_frontier_points(&full, &full.pareto_energy()),
                grid_frontier_points(&pruned.sweep, &pruned.sweep.pareto_energy()),
                "energy frontier diverges under {:?}", objective
            );
        }
    }

    /// The improving mode's dominance guarantee on random programs: at
    /// every grid point the improving objective score is ≤ the cold one,
    /// and the improving objective Pareto frontier dominates-or-equals
    /// the cold frontier (`pareto::front_dominates`) — under all three
    /// objectives.
    #[test]
    fn improving_dominates_cold_on_random_programs(spec in program_specs()) {
        let program = spec.build();
        let platform = Platform::three_level(1024, 256);
        let axes = small_axes();
        for objective in OBJECTIVES {
            let config = MhlaConfig { objective, ..MhlaConfig::default() };
            let cold = try_sweep_grid_run(
                &program,
                &platform,
                &axes,
                &config,
                &SweepOptions::default(),
            )
            .expect("valid grid")
            .sweep;
            let run = try_sweep_grid_run(
                &program,
                &platform,
                &axes,
                &config,
                &SweepOptions { mode: SearchMode::Improving, ..SweepOptions::default() },
            )
            .expect("valid grid");
            prop_assert_eq!(run.sweep.points.len(), cold.points.len());
            let mut improved = 0usize;
            for (imp, base) in run.sweep.points.iter().zip(&cold.points) {
                prop_assert_eq!(&imp.capacities, &base.capacities);
                let (si, sc) = (
                    imp.objective_score(&objective),
                    base.objective_score(&objective),
                );
                prop_assert!(
                    si <= sc,
                    "improving score {} > cold {} at {:?} under {:?}",
                    si, sc, imp.capacities, objective
                );
                improved += usize::from(si < sc);
            }
            prop_assert_eq!(
                improved, run.seed_wins,
                "seed wins must be exactly the strict improvements under {:?}", objective
            );
            prop_assert!(
                pareto::front_dominates(
                    &report::objective_coords(
                        &run.sweep,
                        &run.sweep.pareto_objective(&objective),
                        &objective,
                    ),
                    &report::objective_coords(
                        &cold,
                        &cold.pareto_objective(&objective),
                        &objective,
                    ),
                ),
                "improving frontier trails the cold one under {:?}", objective
            );
        }
    }

    /// Refined ≡ exhaustive fine lattice on random programs: every
    /// committed point of the adaptive refinement is bit-identical to
    /// the exhaustive sweep of the materialized fine lattice, and both
    /// Pareto frontiers match point for point — under all three
    /// objectives (the refinement certificates must stay lossless for
    /// arbitrary programs, not just the nine apps).
    #[test]
    fn refined_equals_exhaustive_fine_lattice_on_random_programs(spec in program_specs()) {
        let program = spec.build();
        let platform = Platform::three_level(1024, 256);
        let axes = small_axes();
        let depth = 2;
        let fine_axes: Vec<GridAxis> = axes
            .iter()
            .map(|a| GridAxis::new(a.layer, refine_axis(&a.capacities, depth)))
            .collect();
        for objective in OBJECTIVES {
            let config = MhlaConfig { objective, ..MhlaConfig::default() };
            let full = try_sweep_grid_run(
                &program,
                &platform,
                &fine_axes,
                &config,
                &SweepOptions::default(),
            )
            .expect("valid grid")
            .sweep;
            let refined = try_sweep_grid_refined_with(
                &program,
                &platform,
                &axes,
                &config,
                &RefineOptions::default().depth(depth),
            )
            .expect("valid grid");
            prop_assert!(refined.status.is_complete());
            prop_assert_eq!(refined.stats.virtual_points, full.points.len() as u64);
            for rp in &refined.sweep.points {
                let ep = full
                    .points
                    .iter()
                    .find(|ep| ep.capacities == rp.capacities);
                prop_assert!(ep.is_some_and(|ep| ep.result == rp.result),
                    "refined point {:?} diverges under {:?}", rp.capacities, objective);
            }
            prop_assert_eq!(
                grid_frontier_points(&full, &full.pareto_cycles()),
                grid_frontier_points(&refined.sweep, &refined.sweep.pareto_cycles()),
                "cycles frontier diverges under {:?}", objective
            );
            prop_assert_eq!(
                grid_frontier_points(&full, &full.pareto_energy()),
                grid_frontier_points(&refined.sweep, &refined.sweep.pareto_energy()),
                "energy frontier diverges under {:?}", objective
            );
        }
    }

    /// Budget-interrupted refinement resumed to completion ≡ the
    /// uninterrupted run, bit for bit, on random programs.
    #[test]
    fn refined_resume_is_bit_identical_on_random_programs(spec in program_specs()) {
        let program = spec.build();
        let platform = Platform::three_level(1024, 256);
        let axes = small_axes();
        let config = MhlaConfig::default();
        let base = RefineOptions::default().depth(2);
        let uninterrupted = try_sweep_grid_refined_with(&program, &platform, &axes, &config, &base)
            .expect("valid grid");
        prop_assert!(uninterrupted.status.is_complete());
        for max in [1usize, 5] {
            let stopped = try_sweep_grid_refined_with(
                &program,
                &platform,
                &axes,
                &config,
                &base.clone().budget(ExploreBudget::max_evals(max)),
            )
            .expect("valid grid");
            let resumed = try_sweep_grid_refined_resume(
                &program, &platform, &axes, &config, &base, &stopped,
            );
            prop_assert!(resumed.is_ok());
            prop_assert_eq!(
                resumed.unwrap(), uninterrupted.clone(),
                "resume from max_evals={} diverges", max
            );
        }
    }

    /// Budget stops resume to the unbudgeted run on random programs: a
    /// cold refinement takes rank levels whatever its budget, so a cancel
    /// flag that is never raised changes nothing, and every `max_evals`
    /// cut — between levels or partway through one — resumes to the
    /// unbudgeted run field for field, under all three objectives.
    #[test]
    fn refined_budget_stops_resume_to_the_unbudgeted_run_on_random_programs(
        spec in program_specs(),
    ) {
        let program = spec.build();
        let platform = Platform::three_level(1024, 256);
        let axes = small_axes();
        let opts = RefineOptions::default().depth(1);
        let never_raised = opts.clone().budget(ExploreBudget {
            cancel: Some(Arc::new(AtomicBool::new(false))),
            ..ExploreBudget::default()
        });
        for objective in OBJECTIVES {
            let config = MhlaConfig { objective, ..MhlaConfig::default() };
            let full = try_sweep_grid_refined_with(&program, &platform, &axes, &config, &opts)
                .expect("valid grid");
            let flagged =
                try_sweep_grid_refined_with(&program, &platform, &axes, &config, &never_raised)
                    .expect("valid grid");
            prop_assert_eq!(&flagged, &full, "never-raised cancel flag under {:?}", objective);
            for k in 0..full.stats.evaluated {
                let stopped = try_sweep_grid_refined_with(
                    &program,
                    &platform,
                    &axes,
                    &config,
                    &opts.clone().budget(ExploreBudget::max_evals(k)),
                )
                .expect("valid grid");
                prop_assert_eq!(stopped.stats.evaluated, k, "max_evals({}) under {:?}", k, objective);
                let resumed =
                    try_sweep_grid_refined_resume(&program, &platform, &axes, &config, &opts, &stopped)
                        .expect("valid prior");
                prop_assert_eq!(
                    &resumed, &full,
                    "resume from max_evals({}) under {:?}", k, objective
                );
            }
        }
    }

    /// One `EvalWorkspace` reused across every point, objective and mode
    /// — the sweep engines' steady-state discipline — ≡ a fresh workspace
    /// per evaluation, bit for bit, results *and* stats, on random
    /// programs. Covers the single-seed path (`run_with_stats_in`, each
    /// point warm-started from the previous one) and the Improving-style
    /// seeded portfolio (`run_with_seeds_in` over all previously found
    /// assignments).
    #[test]
    fn workspace_reuse_equals_fresh_on_random_programs(spec in program_specs()) {
        let program = spec.build();
        let base = Platform::embedded_default(1024);
        let mut ws = EvalWorkspace::new();
        for objective in OBJECTIVES {
            let config = MhlaConfig { objective, ..MhlaConfig::default() };
            let ctx = ExplorationContext::new(&program, &base, config.clone());
            let mut warm: Option<Assignment> = None;
            let mut seeds: Vec<Assignment> = Vec::new();
            for capacity in [64u64, 192, 512, 1024] {
                let pf = base.with_layer_capacity(LayerId(1), capacity);
                let fresh = Mhla::with_context(&ctx, &pf).run_with_stats_in(
                    warm.as_ref(),
                    Some(ctx.moves()),
                    &mut EvalWorkspace::default(),
                );
                let reused = Mhla::with_context(&ctx, &pf).run_with_stats_in(
                    warm.as_ref(),
                    Some(ctx.moves()),
                    &mut ws,
                );
                prop_assert_eq!(
                    &fresh, &reused,
                    "cold run diverges at {} B under {:?}", capacity, objective
                );
                let refs: Vec<&Assignment> = seeds.iter().collect();
                let fresh_seeded = Mhla::with_context(&ctx, &pf)
                    .run_with_seeds_in(&refs, &mut EvalWorkspace::default());
                let reused_seeded = Mhla::with_context(&ctx, &pf).run_with_seeds_in(&refs, &mut ws);
                prop_assert_eq!(
                    &fresh_seeded, &reused_seeded,
                    "seeded run diverges at {} B under {:?}", capacity, objective
                );
                warm = Some(fresh.0.assignment.clone());
                seeds.push(fresh_seeded.0.assignment.clone());
            }
        }
    }

    /// Context-backed runs ≡ fresh standalone runs on random programs.
    #[test]
    fn context_equals_fresh_on_random_programs(spec in program_specs()) {
        let program = spec.build();
        let base = Platform::embedded_default(1024);
        for objective in OBJECTIVES {
            let config = MhlaConfig { objective, ..MhlaConfig::default() };
            let ctx = ExplorationContext::new(&program, &base, config.clone());
            for capacity in [64u64, 192, 1024] {
                let pf = base.with_layer_capacity(LayerId(1), capacity);
                let fresh = Mhla::new(&program, &pf, config.clone()).run();
                let (shared, _) = Mhla::with_context(&ctx, &pf).run_with_stats_in(
                    None,
                    Some(ctx.moves()),
                    &mut EvalWorkspace::default(),
                );
                prop_assert_eq!(
                    &fresh, &shared,
                    "context-backed run diverges at {capacity} B under {:?}", objective
                );
            }
        }
    }
}

/// The generator itself is exercised once outside the proptest macro so a
/// plain `cargo test proptests` failure names it directly.
#[test]
fn generator_smoke() {
    // A fixed spec builds a deterministic, valid program.
    let spec = ProgramSpec {
        arrays: 2,
        trips: vec![4, 3],
        stmts: vec![],
    };
    let p = spec.build();
    assert!(p.validate().is_ok());
    assert_eq!(p.loop_count(), 2);
    assert_eq!(p.array_count(), 2);
}
