//! Equivalence proptests for the shared [`ExplorationContext`] on random
//! programs: one context reused across platform variants must equal a
//! context built per variant.
//!
//! * a reused context's cost model must price any assignment
//!   **bit-for-bit** like the model of a context built for that variant
//!   (including the floating-point energy fields), and derive identical
//!   transfer streams and layer usage;
//! * a [`Mhla::with_context`] run on the reused context must equal a
//!   standalone [`Mhla::new`] run, which builds its own context for its
//!   platform — covering the cached freedom loops through `te::plan` — at
//!   the context's base capacity *and* at resized capacities, on both
//!   two- and three-level platforms.

use mhla_core::{
    Assignment, EvalWorkspace, ExplorationContext, Mhla, MhlaConfig, Objective, SelectedCopy,
    TransferPolicy,
};
use mhla_hierarchy::{LayerId, Platform};
use mhla_ir::{AffineExpr, ArrayId, ElemType, Program, ProgramBuilder};
use mhla_reuse::ReuseAnalysis;
use proptest::prelude::*;

/// Description of a random two-array, up-to-three-level program (same
/// family as the incremental-equivalence proptests).
#[derive(Clone, Debug)]
struct Spec {
    trips: [i64; 3],
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

/// A random single-array state drawn from the same move space the search
/// enumerates (chains on the first on-chip layer, or a re-home).
fn random_state(
    reuse: &ReuseAnalysis,
    array: ArrayId,
    pick: prop::sample::Index,
) -> (LayerId, Vec<SelectedCopy>) {
    let mut states: Vec<(LayerId, Vec<SelectedCopy>)> = vec![(LayerId(0), Vec::new())];
    for chain in reuse.chains(array, 1) {
        let sel = chain
            .iter()
            .map(|&candidate| SelectedCopy {
                candidate,
                layer: LayerId(1),
            })
            .collect();
        states.push((LayerId(0), sel));
    }
    states.push((LayerId(1), Vec::new()));
    states[pick.index(states.len())].clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Pricing on one reused context equals pricing on a context built
    /// per platform variant, bit-for-bit, on the base platform and on
    /// resized variants, for random assignments.
    #[test]
    fn context_cost_model_matches_fresh_model(
        spec in specs(),
        spm in 64u64..4096,
        resized in 64u64..4096,
        picks in (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
        policy_full in any::<bool>(),
    ) {
        let program = build(&spec);
        let base = Platform::embedded_default(spm);
        let config = MhlaConfig::default();
        let ctx = ExplorationContext::new(&program, &base, config.clone());

        let policy = if policy_full {
            TransferPolicy::FullRefresh
        } else {
            TransferPolicy::SlidingDelta
        };
        let mut a = Assignment::baseline(program.array_count(), policy);
        for (i, pick) in [picks.0, picks.1].into_iter().enumerate() {
            let array = ArrayId::from_index(i);
            let (home, chain) = random_state(ctx.reuse(), array, pick);
            a.set_home(array, home);
            for c in chain {
                a.add_copy(c);
            }
        }

        for pf in [base.clone(), base.with_layer_capacity(LayerId(1), resized)] {
            let fresh_ctx = ExplorationContext::new(&program, &pf, config.clone());
            let fresh = fresh_ctx.cost_model(&pf);
            let shared = ctx.cost_model(&pf);
            prop_assert_eq!(fresh.evaluate(&a), shared.evaluate(&a));
            prop_assert_eq!(fresh.transfer_streams(&a), shared.transfer_streams(&a));
            prop_assert_eq!(
                fresh.layer_usage(&a, &Default::default()),
                shared.layer_usage(&a, &Default::default())
            );
        }
    }

    /// A context-backed full MHLA run (search + TE planning with the
    /// cached freedom loops) equals a standalone run, across capacities,
    /// objectives and platform depths.
    #[test]
    fn context_backed_run_matches_standalone_run(
        spec in specs(),
        spm in 64u64..4096,
        resized in 64u64..4096,
        three_level in any::<bool>(),
        energy_objective in any::<bool>(),
    ) {
        let program = build(&spec);
        let base = if three_level {
            Platform::three_level(spm.max(128), spm.max(128) / 2)
        } else {
            Platform::embedded_default(spm)
        };
        let config = MhlaConfig {
            objective: if energy_objective { Objective::Energy } else { Objective::Cycles },
            ..MhlaConfig::default()
        };
        let ctx = ExplorationContext::new(&program, &base, config.clone());

        let resized_pf = base.with_layer_capacity(base.closest(), resized);
        for pf in [base.clone(), resized_pf] {
            let standalone = Mhla::new(&program, &pf, config.clone()).run();
            let (shared, _) = Mhla::with_context(&ctx, &pf).run_with_stats_in(
                None,
                Some(ctx.moves()),
                &mut EvalWorkspace::default(),
            );
            prop_assert_eq!(&standalone, &shared);
        }
    }
}
