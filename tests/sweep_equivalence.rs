//! The production sweep — the exhaustive grid on one axis — must match
//! the cold sequential reference sweep: identical Pareto fronts (the PR
//! acceptance bar) and, stronger, identical (cycles, energy) at every
//! capacity point — on the full application suite.

use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use mhla::core::explore::{
    default_capacities, sweep_cold, try_sweep_grid_resume, try_sweep_grid_run, ExploreBudget,
    GridAxis, GridSweep, StopCause, SweepOptions, SweepStatus,
};
use mhla::core::{EvalWorkspace, ExplorationContext, Mhla, MhlaConfig};
use mhla::hierarchy::{LayerId, Platform};
use mhla::ir::Program;

/// The production 1-D sweep of layer 1 under `opts`: the one-axis grid.
fn fast_sweep(
    program: &Program,
    platform: &Platform,
    caps: &[u64],
    opts: &SweepOptions,
) -> GridSweep {
    let config = MhlaConfig::default();
    let axis = GridAxis::new(LayerId(1), caps);
    try_sweep_grid_run(program, platform, &[axis], &config, opts)
        .expect("valid sweep")
        .sweep
}

#[test]
fn one_axis_grid_matches_the_cold_sequential_sweep_on_all_apps() {
    let caps = default_capacities();
    let platform = Platform::embedded_default(1024);
    let config = MhlaConfig::default();
    for app in mhla_apps::all_apps() {
        let cold = sweep_cold(&app.program, &platform, LayerId(1), &caps, &config);
        let fast = fast_sweep(&app.program, &platform, &caps, &SweepOptions::default());

        assert_eq!(
            cold.pareto_cycles(),
            fast.pareto_cycles(),
            "{}: cycle Pareto fronts diverge",
            app.name()
        );
        assert_eq!(
            cold.pareto_energy(),
            fast.pareto_energy(),
            "{}: energy Pareto fronts diverge",
            app.name()
        );
        assert_eq!(cold.layers, fast.layers, "{}", app.name());
        assert_eq!(cold.points.len(), fast.points.len(), "{}", app.name());
        for (c, f) in cold.points.iter().zip(&fast.points) {
            assert_eq!(c.capacities, f.capacities, "{}", app.name());
            assert_eq!(
                c.cycles(),
                f.cycles(),
                "{} at {:?} B: cycles diverge",
                app.name(),
                c.capacities
            );
            assert_eq!(
                c.energy_pj(),
                f.energy_pj(),
                "{} at {:?} B: energy diverges",
                app.name(),
                c.capacities
            );
        }
    }
}

#[test]
fn sweep_options_do_not_change_results() {
    // Budgets change where a sweep stops, never what it finds. On one
    // axis every rank level is one point, so `max_evals(k)` stops on the
    // first `k` capacities; a cancel flag that is never raised returns the
    // unbudgeted sweep, and every stop resumes to it field for field.
    let caps = default_capacities();
    let platform = Platform::embedded_default(1024);
    let config = MhlaConfig::default();
    let app = mhla_apps::video_encoder::app();
    let axes = [GridAxis::new(LayerId(1), caps.clone())];
    let run = |budget| {
        let opts = SweepOptions {
            budget,
            ..SweepOptions::default()
        };
        try_sweep_grid_run(&app.program, &platform, &axes, &config, &opts).expect("valid sweep")
    };
    let full = run(ExploreBudget::unlimited());
    assert!(full.status.is_complete());
    assert_eq!(full.sweep.points.len(), caps.len());
    let never_raised = ExploreBudget {
        cancel: Some(Arc::new(AtomicBool::new(false))),
        ..ExploreBudget::default()
    };
    assert_eq!(run(never_raised), full);
    for k in 0..caps.len() {
        let stopped = run(ExploreBudget::max_evals(k));
        let stop = SweepStatus::Stopped {
            cause: StopCause::MaxEvals,
            next_lex: k,
        };
        assert_eq!(stopped.status, stop);
        assert_eq!(stopped.sweep.points[..], full.sweep.points[..k]);
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

#[test]
fn one_workspace_across_the_whole_suite_matches_fresh_per_point() {
    // The steady-state discipline the sweep engines rely on, pinned on
    // the full application suite: ONE EvalWorkspace carried across every
    // app and every capacity point (buffers warmed by one program are
    // handed to the next) reproduces the fresh-workspace-per-point
    // results bit for bit — results AND run stats.
    let caps = default_capacities();
    let platform = Platform::embedded_default(1024);
    let config = MhlaConfig::default();
    let mut ws = EvalWorkspace::new();
    for app in mhla_apps::all_apps() {
        let ctx = ExplorationContext::new(&app.program, &platform, config.clone());
        let mut warm = None;
        for &cap in &caps {
            let pf = platform.with_layer_capacity(LayerId(1), cap);
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
            assert_eq!(
                fresh,
                reused,
                "{} at {} B: workspace reuse diverges from fresh",
                app.name(),
                cap
            );
            warm = Some(fresh.0.assignment);
        }
    }
}

#[test]
fn sweep_handles_degenerate_capacity_lists() {
    let platform = Platform::embedded_default(1024);
    let opts = SweepOptions::default();
    let app = mhla_apps::sobel_edge::app();
    let empty = fast_sweep(&app.program, &platform, &[], &opts);
    assert!(empty.points.is_empty());
    let dup = fast_sweep(&app.program, &platform, &[256, 256, 512], &opts);
    assert_eq!(dup.points.len(), 2);
    assert!(dup.points[0].capacities < dup.points[1].capacities);
}
