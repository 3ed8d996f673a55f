//! Differential tests for the four-level platform preset: with the L3
//! scratchpad pinned to 0 bytes the preset collapses to the three-level
//! stack, and the grid exploration over the remaining two axes must
//! reproduce the existing three-level grid results point-for-point on all
//! nine applications.

use mhla::core::explore::{try_sweep_grid_run, GridAxis, GridSweep, SweepOptions};
use mhla::core::{Mhla, MhlaConfig};
use mhla::hierarchy::{LayerId, Platform};
use mhla::ir::Program;

/// The default-options exhaustive grid sweep.
fn run_grid(
    program: &Program,
    platform: &Platform,
    axes: &[GridAxis],
    config: &MhlaConfig,
) -> GridSweep {
    try_sweep_grid_run(program, platform, axes, config, &SweepOptions::default())
        .expect("valid grid")
        .sweep
}

#[test]
fn zero_l3_four_level_grid_reproduces_the_three_level_grid_on_all_apps() {
    // With L3 pinned to 0 bytes the four-level preset *is* the
    // three-level platform, so L2/L1 sit at LayerId(1)/LayerId(2) in both
    // and the same axes apply verbatim.
    let l2_axis = vec![2048u64, 8192, 32768];
    let l1_axis = vec![256u64, 1024];
    let config = MhlaConfig::default();
    for app in mhla_apps::all_apps() {
        let four = run_grid(
            &app.program,
            &Platform::four_level(0, 8 * 1024, 1024),
            &[
                GridAxis::new(LayerId(1), l2_axis.clone()),
                GridAxis::new(LayerId(2), l1_axis.clone()),
            ],
            &config,
        );
        let three = run_grid(
            &app.program,
            &Platform::three_level(8 * 1024, 1024),
            &[
                GridAxis::new(LayerId(1), l2_axis.clone()),
                GridAxis::new(LayerId(2), l1_axis.clone()),
            ],
            &config,
        );
        assert_eq!(four.points.len(), three.points.len(), "{}", app.name());
        for (f, t) in four.points.iter().zip(&three.points) {
            assert_eq!(f.capacities, t.capacities, "{}", app.name());
            assert_eq!(
                f.result,
                t.result,
                "{} at {:?}: zero-L3 four-level diverges from three-level",
                app.name(),
                f.capacities
            );
        }
        assert_eq!(
            four.pareto_cycles(),
            three.pareto_cycles(),
            "{}",
            app.name()
        );
        assert_eq!(
            four.pareto_energy(),
            three.pareto_energy(),
            "{}",
            app.name()
        );
    }
}

#[test]
fn four_level_grid_points_match_standalone_runs() {
    // The true four-level stack: every L1×L2×L3 grid point is
    // bit-identical to a cold standalone run on the same platform.
    let platform = Platform::four_level_default();
    let axes = [
        GridAxis::new(LayerId(1), vec![16 * 1024u64, 64 * 1024]),
        GridAxis::new(LayerId(2), vec![4 * 1024u64, 16 * 1024]),
        GridAxis::new(LayerId(3), vec![512u64, 1024]),
    ];
    let config = MhlaConfig::default();
    let app = mhla_apps::video_encoder::app();
    let grid = run_grid(&app.program, &platform, &axes, &config);
    assert_eq!(grid.points.len(), 8);
    for point in &grid.points {
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
fn deeper_hierarchies_never_lose_to_shallower_ones_at_equal_budget() {
    // Sanity for the paper's layer-assignment premise: giving the same
    // total on-chip budget one extra (smaller, cheaper) layer close to
    // the CPU must not increase energy on these kernels — the assignment
    // step can always ignore the extra layer.
    let app = mhla_apps::fir_bank::app();
    let config = MhlaConfig::default();
    let three = Mhla::new(
        &app.program,
        &Platform::three_level(8 * 1024, 1024),
        config.clone(),
    )
    .run();
    let four = Mhla::new(
        &app.program,
        &Platform::four_level(8 * 1024, 1024, 256),
        config.clone(),
    )
    .run();
    assert!(
        four.mhla_energy_pj() <= three.mhla_energy_pj() * 1.001,
        "four-level {} pJ vs three-level {} pJ",
        four.mhla_energy_pj(),
        three.mhla_energy_pj()
    );
}
