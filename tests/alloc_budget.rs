//! Steady-state allocation budget for the sweep evaluation hot path.
//!
//! Compiled only under `--features alloc-counter` (the file is empty
//! otherwise), and meaningful only in `--release` — run it as
//!
//! ```text
//! cargo test --release --features alloc-counter --test alloc_budget
//! ```
//!
//! The counting allocator is registered process-wide and the suite sweep
//! is run twice: the first pass warms the per-thread evaluation scratch
//! (the in-place-resized platform and every workspace buffer grow to
//! their high-water marks), the second pass is measured. The budget is a
//! *whole-sweep* average per evaluated point, so it includes the
//! per-sweep analysis (reuse chains, program facts, move space) and the
//! per-point result assembly (assignments, breakdowns, TE schedules,
//! run stats) — the hot search loop itself is allocation-free, which is
//! what pins the average this low. A regression that reintroduces
//! per-candidate or per-point scratch allocation blows the bound by an
//! order of magnitude.

#![cfg(feature = "alloc-counter")]

use mhla::core::explore::{default_capacities, try_sweep_grid_run, GridAxis, SweepOptions};
use mhla::core::MhlaConfig;
use mhla::hierarchy::{LayerId, Platform};

#[global_allocator]
static COUNTING_ALLOC: mhla_alloc_counter::CountingAlloc = mhla_alloc_counter::CountingAlloc::new();

/// Pinned whole-sweep allocation events per evaluated point (suite
/// average, all on the calling thread, second pass). Measured ~109 on this
/// codebase; the headroom absorbs allocator/platform noise, not
/// regressions — a per-candidate allocation in the greedy loop costs
/// thousands per point.
const BUDGET_ALLOCS_PER_EVAL: f64 = 250.0;

#[test]
fn steady_state_sweep_allocations_stay_under_budget() {
    let caps = default_capacities();
    let platform = Platform::embedded_default(1024);
    let config = MhlaConfig::default();
    // A one-axis grid's rank levels hold one point each, so every point
    // runs on this thread and the second pass reuses one warmed
    // EngineScratch for the whole suite.
    let opts = SweepOptions::default();
    let axes = [GridAxis::new(LayerId(1), caps)];
    let apps = mhla_apps::all_apps();
    for app in &apps {
        try_sweep_grid_run(&app.program, &platform, &axes, &config, &opts).expect("valid sweep");
    }
    let mut total_allocs = 0u64;
    let mut total_points = 0usize;
    for app in &apps {
        let (run, allocs, _) = mhla_alloc_counter::allocations_during(|| {
            try_sweep_grid_run(&app.program, &platform, &axes, &config, &opts)
        });
        total_allocs += allocs;
        total_points += run.expect("valid sweep").sweep.points.len();
    }
    assert!(
        mhla_alloc_counter::is_counting(),
        "counting allocator not registered (zero events counted)"
    );
    let per_eval = total_allocs as f64 / total_points.max(1) as f64;
    assert!(
        per_eval <= BUDGET_ALLOCS_PER_EVAL,
        "steady-state sweep allocates {per_eval:.1} events/eval \
         ({total_allocs} over {total_points} points), budget {BUDGET_ALLOCS_PER_EVAL}"
    );
}
