//! The multi-layer grid sweep must be *exactly* the composition of
//! standalone runs — the PR acceptance bar: every grid point on the
//! three- and four-level platforms, under every objective, is
//! bit-identical to a cold standalone `Mhla::run` on the same platform
//! (same assignment, same cost breakdowns including the floating-point
//! energy fields, same TE schedule). Budgets change where a run stops,
//! never what it finds.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use mhla::core::explore::{
    default_axes, try_sweep_grid_resume, try_sweep_grid_run, ExploreBudget, GridAxis, StopCause,
    SweepOptions, SweepStatus,
};
use mhla::core::{Mhla, MhlaConfig, Objective};
use mhla::hierarchy::{LayerId, Platform};

#[test]
fn grid_points_are_bit_identical_to_standalone_runs_on_three_level() {
    // A 6-point three-level grid under the default objective, plus the
    // standard three- and four-level grids (`default_axes`: 15 and 90
    // points) under every objective kind — 2,835 points over the nine
    // apps. Every divergence is collected, so a failure lists them all.
    let three = Platform::three_level_default();
    let four = Platform::four_level_default();
    let small = vec![
        GridAxis::new(LayerId(1), vec![2048u64, 8192, 32768]),
        GridAxis::new(LayerId(2), vec![256u64, 1024]),
    ];
    let weighted = Objective::Weighted {
        energy_weight: 1.0,
        cycle_weight: 1.0,
    };
    let mut cases = vec![(&three, small, Objective::default())];
    for platform in [&three, &four] {
        for objective in [Objective::Cycles, Objective::Energy, weighted] {
            cases.push((platform, default_axes(platform), objective));
        }
    }
    let mut diverged = Vec::new();
    let mut checked = 0usize;
    for app in mhla_apps::all_apps() {
        for (platform, axes, objective) in &cases {
            let config = MhlaConfig {
                objective: *objective,
                ..MhlaConfig::default()
            };
            let grid = try_sweep_grid_run(
                &app.program,
                platform,
                axes,
                &config,
                &SweepOptions::default(),
            )
            .expect("valid grid")
            .sweep;
            let expected: usize = axes.iter().map(|a| a.capacities.len()).product();
            assert_eq!(grid.points.len(), expected, "{}", app.name());
            for point in &grid.points {
                let resized: Vec<(LayerId, u64)> = axes
                    .iter()
                    .zip(&point.capacities)
                    .map(|(a, &c)| (a.layer, c))
                    .collect();
                let pf = platform.with_layer_capacities(&resized);
                let standalone = Mhla::new(&app.program, &pf, config.clone()).run();
                checked += 1;
                if point.result != standalone {
                    diverged.push(format!(
                        "{} ({} layers, {objective:?}) at {:?}: {} -> {} cycles, \
                         {} -> {} pJ",
                        app.name(),
                        platform.layer_count(),
                        point.capacities,
                        standalone.mhla_te_cycles(),
                        point.result.mhla_te_cycles(),
                        standalone.mhla_energy_pj(),
                        point.result.mhla_energy_pj(),
                    ));
                }
            }
        }
    }
    assert_eq!(checked, 9 * (6 + 3 * (15 + 90)));
    assert!(
        diverged.is_empty(),
        "{} grid points diverge from a standalone run (standalone -> grid):\n{}",
        diverged.len(),
        diverged.join("\n")
    );
}

#[test]
fn grid_options_do_not_change_results() {
    // Budgets change where a run stops, never what it finds: a cancel
    // flag that is never raised returns the unbudgeted run, and every
    // `max_evals` stop — on this 3×3 grid (rank levels of 1, 2, 3, 2 and 1
    // points) most cut a level partway — resumes to it field for field.
    let platform = Platform::three_level_default();
    let axes = [
        GridAxis::new(LayerId(1), vec![2048u64, 8192, 32768]),
        GridAxis::new(LayerId(2), vec![128u64, 512, 2048]),
    ];
    let config = MhlaConfig::default();
    let app = mhla_apps::video_encoder::app();
    let run = |budget| {
        let opts = SweepOptions {
            budget,
            ..SweepOptions::default()
        };
        try_sweep_grid_run(&app.program, &platform, &axes, &config, &opts).expect("valid grid")
    };
    let full = run(ExploreBudget::unlimited());
    assert!(full.status.is_complete());
    assert_eq!(full.sweep.points.len(), 9);
    let never_raised = ExploreBudget {
        cancel: Some(Arc::new(AtomicBool::new(false))),
        ..ExploreBudget::default()
    };
    assert_eq!(run(never_raised), full);
    for k in 0..9 {
        let stopped = run(ExploreBudget::max_evals(k));
        let stop = SweepStatus::Stopped {
            cause: StopCause::MaxEvals,
            next_lex: k,
        };
        assert_eq!(stopped.status, stop);
        let resumed = try_sweep_grid_resume(
            &app.program,
            &platform,
            &axes,
            &config,
            &SweepOptions::default(),
            &stopped,
        )
        .expect("valid prior");
        assert_eq!(resumed, full, "resumed from max_evals({k})");
    }
}
