//! Pins `RunStats` — the per-layer rejection floors and gain-bound
//! margin rates — against *brute-force binding-layer detection* on the
//! nine applications: whenever the stats admit growing one layer (grown
//! capacity below the layer's rejection floor or the layer never
//! rejected anything, latency class preserved, energy deltas within the
//! recorded gain bounds), actually growing that layer and re-running
//! from scratch must reproduce the identical assignment with equal
//! MHLA+TE cycles and no lower energy. Contrapositively, any layer whose
//! growth changes the result must have been reported as non-growable —
//! exactly the soundness the pruned and refined grid sweeps' saturation
//! rule rests on.

use mhla::core::{EvalWorkspace, ExplorationContext, Mhla, MhlaConfig, Objective, RunStats};
use mhla::hierarchy::{
    energy::{sram_access_cycles, sram_write_pj},
    LayerId, Platform,
};

/// Doubles a scratchpad capacity without leaving its latency class
/// (`None` when the class boundary already binds). The boundary is found
/// by binary search against `sram_access_cycles` itself, so the test
/// never restates the break-point constants.
fn class_respecting_growth(cap: u64) -> Option<u64> {
    let (mut lo, mut hi) = (cap, cap * 2);
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if sram_access_cycles(mid) == sram_access_cycles(cap) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    (lo > cap).then_some(lo)
}

fn energy_weight(objective: Objective) -> f64 {
    match objective {
        Objective::Cycles => 0.0,
        Objective::Energy => 1.0,
        Objective::Weighted { energy_weight, .. } => energy_weight,
    }
}

/// Whether the stats admit growing `layer` from `cap` to `grown` under
/// the objective — the exact admission rule of the pruned and refined
/// sweeps' saturation leg (single-axis case).
fn admits_growth(
    run: &RunStats,
    layer: LayerId,
    cap: u64,
    grown: u64,
    objective: Objective,
) -> bool {
    let delta = (sram_write_pj(grown) - sram_write_pj(cap)).max(0.0);
    run.allows_growth_to(layer, grown)
        && run.allows_energy_growth([(layer, delta)], energy_weight(objective))
}

#[test]
fn admitted_growth_replays_identically_on_all_nine_apps() {
    let base = Platform::four_level_default();
    let points: [[u64; 3]; 2] = [[16 * 1024, 2 * 1024, 256], [64 * 1024, 8 * 1024, 512]];
    let layers = [LayerId(1), LayerId(2), LayerId(3)];
    let mut admitted = 0usize;
    let mut blocked_changes = 0usize;

    for app in mhla::apps::all_apps() {
        for objective in [Objective::Cycles, Objective::Energy] {
            let config = MhlaConfig {
                objective,
                ..MhlaConfig::default()
            };
            let ctx = ExplorationContext::new(&app.program, &base, config.clone());
            for caps in points {
                let sizes: Vec<(LayerId, u64)> =
                    layers.iter().copied().zip(caps.iter().copied()).collect();
                let pf = base.with_layer_capacities(&sizes);
                let (result, run) = Mhla::with_context(&ctx, &pf).run_with_stats_in(
                    None,
                    Some(ctx.moves()),
                    &mut EvalWorkspace::default(),
                );
                assert!(run.tracked && run.winning_seed.is_none(), "{}", app.name());

                for (axis, &layer) in layers.iter().enumerate() {
                    let Some(grown_cap) = class_respecting_growth(caps[axis]) else {
                        continue;
                    };
                    let mut grown_sizes = sizes.clone();
                    grown_sizes[axis] = (layer, grown_cap);
                    let grown_pf = base.with_layer_capacities(&grown_sizes);
                    let grown = Mhla::new(&app.program, &grown_pf, config.clone()).run();
                    let identical = grown.assignment == result.assignment
                        && grown.mhla_te_cycles() == result.mhla_te_cycles();
                    if admits_growth(&run, layer, caps[axis], grown_cap, objective) {
                        admitted += 1;
                        // The saturation claim, brute-forced: the grown
                        // run replays — same assignment, equal cycles,
                        // monotonically no-lower energy.
                        assert!(
                            identical,
                            "{} {:?} at {caps:?}: stats admitted growing {layer} to \
                             {grown_cap} but the result changed",
                            app.name(),
                            objective
                        );
                        assert!(
                            grown.mhla_energy_pj() >= result.mhla_energy_pj() * (1.0 - 1e-12),
                            "{} {:?} at {caps:?}: energy dropped under admitted growth",
                            app.name(),
                            objective
                        );
                    } else if !identical {
                        // Brute force found a binding layer; the stats
                        // must have blocked it (this branch existing at
                        // all proves the floors are not vacuously open).
                        blocked_changes += 1;
                    }
                }
            }
        }
    }
    assert!(
        admitted > 0,
        "the admission rule never fired — the pinning is vacuous"
    );
    assert!(
        blocked_changes > 0,
        "brute force never found a binding layer — the pinning is vacuous"
    );
}

#[test]
fn fir_bank_floor_spot_pin() {
    // A concrete floor pin: at (16 KiB, 2 KiB, 256 B) the fir_bank run is
    // bound by L2 and L1 but not by the big L3 scratchpad — the geometry
    // behind its suite-leading skip counts.
    let base = Platform::four_level_default();
    let config = MhlaConfig::default();
    let app = mhla_apps::fir_bank::app();
    let ctx = ExplorationContext::new(&app.program, &base, config.clone());
    let pf = base.with_layer_capacities(&[
        (LayerId(1), 16 * 1024),
        (LayerId(2), 2 * 1024),
        (LayerId(3), 256),
    ]);
    let (_, run) = Mhla::with_context(&ctx, &pf).run_with_stats_in(
        None,
        Some(ctx.moves()),
        &mut EvalWorkspace::default(),
    );
    let floors = &run.layer_reject_floors;
    assert_eq!(floors[1], u64::MAX, "L3 scratchpad never bound");
    assert!(floors[2] < u64::MAX, "L2 bound the run");
    assert!(floors[3] < u64::MAX, "L1 bound the run");
}
