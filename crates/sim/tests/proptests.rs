//! Property tests for the simulator on randomly generated programs and
//! scratchpad sizes: cycle counts are always sandwiched between the ideal
//! and the serial static estimates, energy matches the static model, and
//! access accounting is conserved.

use mhla_core::{assign, te, ExplorationContext, MhlaConfig};
use mhla_hierarchy::Platform;
use mhla_ir::{ElemType, Program, ProgramBuilder};
use mhla_sim::Simulator;
use proptest::prelude::*;

/// Random blocked-processing program: `blocks` tiles of `tile` bytes,
/// scanned `reps` times with `compute` cycles per element, optionally
/// with a producer nest writing the data first.
#[derive(Clone, Debug)]
struct Spec {
    blocks: i64,
    tile: i64,
    reps: i64,
    compute: u64,
    producer: bool,
}

fn specs() -> impl Strategy<Value = Spec> {
    (2i64..=12, 8i64..=64, 1i64..=4, 0u64..=6, any::<bool>()).prop_map(
        |(blocks, tile, reps, compute, producer)| Spec {
            blocks,
            tile,
            reps,
            compute,
            producer,
        },
    )
}

fn build(s: &Spec) -> Program {
    let mut b = ProgramBuilder::new("rand_sim");
    let n = (s.blocks * s.tile) as u64;
    let data = b.array("data", &[n], ElemType::U8);
    if s.producer {
        b.loop_scope("w", 0, s.blocks * s.tile, 1, |b, lw| {
            let w = b.var(lw);
            b.stmt("produce")
                .write(data, vec![w])
                .compute_cycles(2)
                .finish();
        });
    }
    let lb = b.begin_loop("blk", 0, s.blocks, 1);
    let lr = b.begin_loop("rep", 0, s.reps, 1);
    let li = b.begin_loop("i", 0, s.tile, 1);
    let (blk, i) = (b.var(lb), b.var(li));
    b.stmt("use")
        .read(data, vec![blk * s.tile + i])
        .compute_cycles(s.compute)
        .finish();
    b.end_loop();
    b.end_loop();
    b.end_loop();
    let _ = lr;
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// ideal ≤ simulated ≤ serial-static, for the greedy assignment with
    /// its TE schedule, at arbitrary scratchpad sizes.
    #[test]
    fn simulation_is_always_sandwiched(spec in specs(), spm in 16u64..4096) {
        let program = build(&spec);
        let platform = Platform::embedded_default(spm);
        let ctx = ExplorationContext::new(&program, &platform, MhlaConfig::default());
        let model = ctx.cost_model(&platform);
        let config = MhlaConfig::default();
        let outcome = assign::greedy(&model, &config);
        let schedule = te::plan(&model, &outcome.assignment);
        let sim = Simulator::new(&model, &outcome.assignment, &schedule).run();
        prop_assert!(
            sim.total_cycles() >= outcome.cost.ideal_cycles(),
            "sim {} below ideal {}",
            sim.total_cycles(),
            outcome.cost.ideal_cycles()
        );
        prop_assert!(
            sim.total_cycles() <= outcome.cost.total_cycles(),
            "sim {} above serial {}",
            sim.total_cycles(),
            outcome.cost.total_cycles()
        );
    }

    /// Simulated energy equals the static estimate (same access counts,
    /// same transfer volumes), and per-layer access totals are conserved.
    #[test]
    fn energy_and_access_accounting_match_static(spec in specs(), spm in 16u64..4096) {
        let program = build(&spec);
        let platform = Platform::embedded_default(spm);
        let ctx = ExplorationContext::new(&program, &platform, MhlaConfig::default());
        let model = ctx.cost_model(&platform);
        let outcome = assign::greedy(&model, &MhlaConfig::default());
        let schedule = te::plan(&model, &outcome.assignment);
        let sim = Simulator::new(&model, &outcome.assignment, &schedule).run();
        let rel = (sim.total_energy_pj() - outcome.cost.total_energy_pj()).abs()
            / outcome.cost.total_energy_pj().max(1.0);
        prop_assert!(rel < 1e-9, "energy mismatch {rel}");
        prop_assert_eq!(&sim.accesses_per_layer, &outcome.cost.accesses_per_layer);
        prop_assert_eq!(sim.transfers, outcome.cost.transfer_count);
    }

    /// TE can only help: simulated cycles with the TE schedule never
    /// exceed simulated cycles with prefetching disabled.
    #[test]
    fn te_never_hurts_in_simulation(spec in specs(), spm in 16u64..4096) {
        let program = build(&spec);
        let platform = Platform::embedded_default(spm);
        let ctx = ExplorationContext::new(&program, &platform, MhlaConfig::default());
        let model = ctx.cost_model(&platform);
        let outcome = assign::greedy(&model, &MhlaConfig::default());
        let schedule = te::plan(&model, &outcome.assignment);
        let with_te = Simulator::new(&model, &outcome.assignment, &schedule).run();
        let no_te = te::TeSchedule { applicable: true, transfers: Vec::new() };
        let without = Simulator::new(&model, &outcome.assignment, &no_te).run();
        prop_assert!(
            with_te.total_cycles() <= without.total_cycles(),
            "TE made it worse: {} > {}",
            with_te.total_cycles(),
            without.total_cycles()
        );
        // And busy cycles (work) are identical — TE only moves waits.
        prop_assert_eq!(with_te.busy_cycles, without.busy_cycles);
    }
}
