//! Equivalence proptests for the incremental cost evaluator and the
//! cached-option greedy search against their from-scratch oracles:
//!
//! * [`IncrementalCost`] must match the full [`CostModel::evaluate`]
//!   **bit-for-bit** (including the floating-point energy fields) after
//!   every commit of a random move sequence, and its trial evaluation must
//!   match evaluating the applied trial;
//! * its capacity probe must agree with the full
//!   [`CostModel::check_capacity`] / layer-usage path, a failed probe
//!   naming the first over-full layer and the bytes it needs;
//! * [`assign::greedy`] (incremental, cached options) must produce the
//!   same outcome as [`assign::greedy_oracle`] (clone + full evaluate per
//!   candidate move — the seed implementation) under the cycles, energy
//!   and a weighted objective.

use mhla_core::{
    assign, Assignment, EvalWorkspace, ExplorationContext, IncrementalCost, MhlaConfig, Objective,
    SelectedCopy, TransferPolicy,
};
use mhla_hierarchy::{LayerId, Platform};
use mhla_ir::{AffineExpr, ArrayId, ElemType, Program, ProgramBuilder};
use mhla_reuse::ReuseAnalysis;
use proptest::prelude::*;
use std::collections::HashMap;

/// Description of a random two-array, up-to-three-level program (same
/// family as the core proptests).
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

/// A random single-array state: either a chain of reuse candidates on the
/// on-chip layer, or (for `tmp`) a re-home. Drawn from the same move space
/// the search enumerates.
fn random_states(
    reuse: &ReuseAnalysis,
    array: ArrayId,
    picks: &[prop::sample::Index],
) -> Vec<(LayerId, Vec<SelectedCopy>)> {
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
    states.push((LayerId(1), Vec::new())); // re-home
    picks
        .iter()
        .map(|p| states[p.index(states.len())].clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// After every commit of a random move sequence, the incremental total
    /// equals the oracle bit-for-bit, trial evaluation matches evaluating
    /// the applied trial, and the capacity probe agrees with the full
    /// check.
    #[test]
    fn incremental_matches_oracle_over_move_sequences(
        spec in specs(),
        spm in 64u64..4096,
        picks in prop::collection::vec(any::<prop::sample::Index>(), 1..12),
        which in prop::collection::vec(any::<bool>(), 12),
    ) {
        let program = build(&spec);
        let platform = Platform::embedded_default(spm);
        let ctx = ExplorationContext::new(&program, &platform, MhlaConfig::default());
        let (model, reuse) = (ctx.cost_model(&platform), ctx.reuse());
        let start = Assignment::baseline(program.array_count(), TransferPolicy::default());
        let mut inc = IncrementalCost::new(&model, start.clone());

        // Initial state agrees.
        prop_assert_eq!(inc.cost(), &model.evaluate(inc.assignment()));

        for (i, pick) in picks.iter().enumerate() {
            let array = if which[i] {
                ArrayId::from_index(0)
            } else {
                ArrayId::from_index(1)
            };
            let states = random_states(reuse, array, std::slice::from_ref(pick));
            let (home, chain) = states[0].clone();

            // Trial evaluation matches evaluating the applied trial.
            let trial_cost = inc.evaluate_array_state(array, home, &chain);
            let mut applied = inc.assignment().clone();
            applied.clear_copies_of(array);
            applied.set_home(array, home);
            for &c in &chain {
                applied.add_copy(c);
            }
            prop_assert_eq!(&trial_cost, &model.evaluate(&applied));

            // Capacity probe agrees with the full check + usage sum.
            let probe = inc.onchip_required_with(array, home, &chain);
            let full = model.check_capacity(&applied, &HashMap::new());
            prop_assert_eq!(probe.is_some(), full.is_ok());
            let usage = model.layer_usage(&applied, &HashMap::new());
            if let Some(bytes) = probe {
                let onchip: u64 = usage.iter().skip(1).map(|u| u.required).sum();
                prop_assert_eq!(bytes, onchip);
            }

            // A failed probe names the first over-full on-chip layer and
            // the bytes the trial needs there: the rejection floor the
            // grid certificates read.
            let detailed = inc.probe_required(array, &model.array_residents(array, home, &chain));
            prop_assert_eq!(detailed.ok(), probe);
            if let Err((layer, required)) = detailed {
                let first = usage.iter().skip(1).find(|u| !u.fits());
                prop_assert_eq!(first.map(|u| (u.layer, u.required)), Some((layer, required)));
            }

            // Commit and re-check the running total, bit for bit.
            inc.commit_array_state(array, home, &chain);
            prop_assert_eq!(inc.assignment(), &applied);
            prop_assert_eq!(inc.cost(), &model.evaluate(&applied));
        }
    }

    /// The incremental greedy and the from-scratch oracle greedy take the
    /// same decisions: same final assignment, cost and step count.
    #[test]
    fn greedy_matches_greedy_oracle(spec in specs(), spm in 64u64..4096) {
        let program = build(&spec);
        let platform = Platform::embedded_default(spm);
        let ctx = ExplorationContext::new(&program, &platform, MhlaConfig::default());
        let model = ctx.cost_model(&platform);
        for objective in [
            Objective::Cycles,
            Objective::Energy,
            Objective::Weighted {
                energy_weight: 0.5,
                cycle_weight: 2.0,
            },
        ] {
            let config = MhlaConfig {
                objective,
                ..MhlaConfig::default()
            };
            let fast = assign::greedy(&model, &config);
            let oracle = assign::greedy_oracle(&model, &config);
            prop_assert_eq!(&fast.assignment, &oracle.assignment);
            prop_assert_eq!(&fast.cost, &oracle.cost);
            prop_assert_eq!(fast.steps, oracle.steps);
        }
    }

    /// The warm-started portfolio never scores worse than the cold search,
    /// and with no warm start it IS the cold search.
    #[test]
    fn portfolio_never_loses_to_cold(spec in specs(), spm in 64u64..2048, warm_spm in 64u64..2048) {
        let program = build(&spec);
        let platform = Platform::embedded_default(spm);
        let config = MhlaConfig::default();
        let ctx = ExplorationContext::new(&program, &platform, config.clone());

        // Warm start: the greedy solution at a (generally different)
        // capacity — exactly what the capacity sweep passes along.
        let warm_pf = Platform::embedded_default(warm_spm.min(spm));
        let warm_model = ctx.cost_model(&warm_pf);
        let warm = assign::greedy(&warm_model, &config).assignment;

        let model = ctx.cost_model(&platform);
        let cold = assign::greedy(&model, &config);
        let moves = assign::enumerate_moves(&model, &config);
        let run_portfolio = |seeds: &[&Assignment]| {
            let mut ws = EvalWorkspace::default();
            assign::greedy_portfolio_seeded_in(&model, &config, seeds, &moves, &mut ws).0
        };
        let portfolio = run_portfolio(&[&warm]);
        prop_assert!(
            config.objective.score(&portfolio.cost)
                <= config.objective.score(&cold.cost),
            "portfolio must never lose to cold"
        );
        let solo = run_portfolio(&[]);
        prop_assert_eq!(solo.assignment, cold.assignment);
        prop_assert_eq!(solo.cost, cold.cost);
    }
}
