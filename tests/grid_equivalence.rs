//! The multi-layer grid sweep must be *exactly* the composition of
//! standalone runs — the PR acceptance bar:
//!
//! * every grid point on `Platform::three_level` is bit-identical to a
//!   cold standalone `Mhla::run` on the same platform (same assignment,
//!   same cost breakdowns including the floating-point energy fields,
//!   same TE schedule);
//! * on two-layer platforms a 1-axis grid degenerates to exactly the
//!   1-D sweep's output (`try_sweep_with`) — same points, same Pareto
//!   fronts — on all nine applications.

use mhla::core::explore::{
    default_capacities, try_sweep_grid_run, try_sweep_with, GridAxis, GridSweep, SweepOptions,
};
use mhla::core::{Mhla, MhlaConfig};
use mhla::hierarchy::{LayerId, Platform};
use mhla::ir::Program;

/// The exhaustive grid sweep under the default configuration.
fn run_grid(
    program: &Program,
    platform: &Platform,
    axes: &[GridAxis],
    opts: &SweepOptions,
) -> GridSweep {
    let config = MhlaConfig::default();
    try_sweep_grid_run(program, platform, axes, &config, opts)
        .expect("valid grid")
        .sweep
}

#[test]
fn grid_points_are_bit_identical_to_standalone_runs_on_three_level() {
    let platform = Platform::three_level_default();
    let axes = [
        GridAxis::new(LayerId(1), vec![2048u64, 8192, 32768]),
        GridAxis::new(LayerId(2), vec![256u64, 1024]),
    ];
    let config = MhlaConfig::default();
    for app in mhla_apps::all_apps() {
        let grid = run_grid(&app.program, &platform, &axes, &SweepOptions::default());
        assert_eq!(grid.points.len(), 6, "{}", app.name());
        for point in &grid.points {
            let pf = platform.with_layer_capacities(&[
                (LayerId(1), point.capacities[0]),
                (LayerId(2), point.capacities[1]),
            ]);
            let standalone = Mhla::new(&app.program, &pf, config.clone()).run();
            assert_eq!(
                point.result,
                standalone,
                "{} at {:?}: grid point diverges from a standalone run",
                app.name(),
                point.capacities
            );
        }
    }
}

#[test]
fn single_axis_grid_degenerates_to_the_sweep_on_all_apps() {
    let caps = default_capacities();
    let platform = Platform::embedded_default(1024);
    let config = MhlaConfig::default();
    for app in mhla_apps::all_apps() {
        let opts = SweepOptions::default();
        let s = try_sweep_with(&app.program, &platform, LayerId(1), &caps, &config, &opts)
            .expect("valid sweep")
            .sweep;
        let g = run_grid(
            &app.program,
            &platform,
            &[GridAxis::new(LayerId(1), caps.clone())],
            &opts,
        );
        assert_eq!(g.points.len(), s.points.len(), "{}", app.name());
        for (gp, sp) in g.points.iter().zip(&s.points) {
            assert_eq!(gp.capacities, vec![sp.capacity], "{}", app.name());
            assert_eq!(
                gp.result,
                sp.result,
                "{} at {} B: grid diverges from sweep",
                app.name(),
                sp.capacity
            );
        }
        assert_eq!(g.pareto_cycles(), s.pareto_cycles(), "{}", app.name());
        assert_eq!(g.pareto_energy(), s.pareto_energy(), "{}", app.name());
    }
}

#[test]
fn grid_options_do_not_change_results() {
    // Warm starts and the thread fan-out are pure wall-time knobs: the
    // grid's points are identical under every combination, so results
    // never depend on the machine's core count.
    let platform = Platform::three_level_default();
    let axes = [
        GridAxis::new(LayerId(1), vec![2048u64, 8192, 32768]),
        GridAxis::new(LayerId(2), vec![128u64, 512, 2048]),
    ];
    let app = mhla_apps::video_encoder::app();
    let reference = run_grid(&app.program, &platform, &axes, &SweepOptions::default());
    for warm_start in [false, true] {
        for parallel in [false, true] {
            let opts = SweepOptions {
                warm_start,
                parallel,
                ..SweepOptions::default()
            };
            let g = run_grid(&app.program, &platform, &axes, &opts);
            assert_eq!(g.points.len(), reference.points.len());
            for (a, b) in g.points.iter().zip(&reference.points) {
                assert_eq!(a.result, b.result, "{opts:?}");
            }
        }
    }
}
