//! Property tests for the MHLA core on randomly generated loop nests:
//! search results are always valid and capacity-feasible, greedy never
//! loses to the trivial baseline, exhaustive never loses to greedy, and
//! the TE step never violates the size constraint it is given.

use mhla_core::{assign, te, Assignment, ExplorationContext, MhlaConfig, Objective};
use mhla_hierarchy::Platform;
use mhla_ir::{AffineExpr, ElemType, Program, ProgramBuilder};
use proptest::prelude::*;
use std::collections::HashMap;

/// Description of a random two-array, up-to-three-level program.
#[derive(Clone, Debug)]
struct Spec {
    trips: [i64; 3],
    /// Per level: does a statement exist, and its coefficient pattern.
    stmts: [(bool, [i64; 3], u8); 3],
    writes_tmp: bool,
}

fn specs() -> impl Strategy<Value = Spec> {
    (
        prop::array::uniform3(2i64..=6),
        prop::array::uniform3((any::<bool>(), prop::array::uniform3(0i64..=3), 1u8..=6)),
        any::<bool>(),
    )
        .prop_map(|(trips, stmts, writes_tmp)| Spec {
            trips,
            stmts,
            writes_tmp,
        })
}

fn build(spec: &Spec) -> Program {
    let mut b = ProgramBuilder::new("random");
    let data = b.array("data", &[512], ElemType::U8);
    let tmp = b.array("tmp", &[64], ElemType::I16);

    let mut loops = Vec::new();
    for (lvl, &trip) in spec.trips.iter().enumerate() {
        let l = b.begin_loop(format!("l{lvl}"), 0, trip, 1);
        loops.push(l);
        let (present, coeffs, cycles) = spec.stmts[lvl];
        if present || lvl == 2 {
            let mut idx = AffineExpr::zero();
            for (i, &l2) in loops.iter().enumerate() {
                idx = idx + AffineExpr::scaled_var(l2, coeffs[i]);
            }
            let mut s = b
                .stmt(format!("s{lvl}"))
                .read(data, vec![idx])
                .compute_cycles(cycles as u64);
            if spec.writes_tmp {
                s = s.write(tmp, vec![AffineExpr::constant_expr(lvl as i64)]);
            }
            s.finish();
        }
    }
    for _ in 0..loops.len() {
        b.end_loop();
    }
    b.finish()
}

fn flow(
    program: &Program,
    spm: u64,
    objective: Objective,
) -> (ExplorationContext<'_>, Platform, MhlaConfig) {
    let platform = Platform::embedded_default(spm);
    let config = MhlaConfig {
        objective,
        ..MhlaConfig::default()
    };
    (
        ExplorationContext::new(program, &platform, config.clone()),
        platform,
        config,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The greedy result is structurally valid, fits every layer, and its
    /// score never exceeds the all-off-chip baseline's.
    #[test]
    fn greedy_is_valid_feasible_and_no_worse(spec in specs(), spm in 64u64..2048) {
        let program = build(&spec);
        for objective in [Objective::Cycles, Objective::Energy] {
            let (ctx, platform, config) = flow(&program, spm, objective);
            let (model, reuse) = (ctx.cost_model(&platform), ctx.reuse());
            let outcome = assign::greedy(&model, &config);
            prop_assert!(outcome
                .assignment
                .validate(reuse, platform.layer_count())
                .is_ok());
            prop_assert!(model
                .check_capacity(&outcome.assignment, &HashMap::new())
                .is_ok());
            let base = model.evaluate(&Assignment::baseline(
                program.array_count(),
                config.policy,
            ));
            prop_assert!(
                objective.score(&outcome.cost) <= objective.score(&base) + 1e-9,
                "greedy regressed below baseline"
            );
        }
    }

    /// Exhaustive search never loses to greedy (it explores a superset).
    #[test]
    fn exhaustive_dominates_greedy(spec in specs(), spm in 64u64..1024) {
        let program = build(&spec);
        let (ctx, platform, config) = flow(&program, spm, Objective::Cycles);
        let model = ctx.cost_model(&platform);
        let g = assign::greedy(&model, &config);
        let e = assign::exhaustive(&model, &config, 200_000);
        prop_assert!(
            config.objective.score(&e.cost) <= config.objective.score(&g.cost) + 1e-9,
            "exhaustive {} worse than greedy {}",
            config.objective.score(&e.cost),
            config.objective.score(&g.cost)
        );
    }

    /// The TE step's buffer claims always pass the capacity check it used,
    /// extensions imply extra buffers, and residual stall is bounded by
    /// the unextended stall.
    #[test]
    fn te_respects_its_own_size_constraint(spec in specs(), spm in 64u64..2048) {
        let program = build(&spec);
        let (ctx, platform, config) = flow(&program, spm, Objective::Cycles);
        let model = ctx.cost_model(&platform);
        let outcome = assign::greedy(&model, &config);
        let schedule = te::plan(&model, &outcome.assignment);
        prop_assert!(model
            .check_capacity(&outcome.assignment, &schedule.buffer_map())
            .is_ok());
        let mut unextended_stall = 0u64;
        for t in &schedule.transfers {
            prop_assert_eq!(t.buffers as usize, t.hoist_depth + 1);
            if t.hoist_depth > 0 {
                prop_assert!(t.ext_cycles > 0);
            }
            prop_assert!(t.ext_cycles >= t.bt_time || !t.fully_hidden);
            unextended_stall += t.stream.first_entries * t.bt_time_full
                + (t.stream.entries - t.stream.first_entries) * t.bt_time;
        }
        prop_assert!(schedule.residual_stall_cycles() <= unextended_stall);
    }

    /// Direct placement is feasible and never slower than all-off-chip.
    #[test]
    fn direct_placement_is_sane(spec in specs(), spm in 64u64..4096) {
        let program = build(&spec);
        let (ctx, platform, config) = flow(&program, spm, Objective::Cycles);
        let (model, reuse) = (ctx.cost_model(&platform), ctx.reuse());
        let direct = assign::direct_placement(&model, config.policy);
        prop_assert!(direct
            .assignment
            .validate(reuse, platform.layer_count())
            .is_ok());
        let raw = model.evaluate(&Assignment::baseline(
            program.array_count(),
            config.policy,
        ));
        prop_assert!(direct.cost.total_cycles() <= raw.total_cycles());
        prop_assert!(direct.cost.total_energy_pj() <= raw.total_energy_pj() + 1e-9);
    }

    /// Cost-model consistency: ideal ≤ total; per-layer access counts sum
    /// to the program's total access count regardless of the assignment.
    #[test]
    fn cost_model_access_accounting_is_conserved(spec in specs(), spm in 64u64..2048) {
        let program = build(&spec);
        let (ctx, platform, config) = flow(&program, spm, Objective::Cycles);
        let model = ctx.cost_model(&platform);
        let info = program.info();
        let total: u64 = program
            .arrays()
            .map(|(a, _)| info.access_counts(a).total())
            .sum();
        for outcome in [
            assign::baseline(&model, config.policy),
            assign::direct_placement(&model, config.policy),
            assign::greedy(&model, &config),
        ] {
            prop_assert!(outcome.cost.ideal_cycles() <= outcome.cost.total_cycles());
            let seen: u64 = outcome.cost.accesses_per_layer.iter().sum();
            prop_assert_eq!(seen, total, "accesses lost or duplicated");
        }
    }
}
