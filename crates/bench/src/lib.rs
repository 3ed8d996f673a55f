//! # mhla-bench — figure regeneration harnesses
//!
//! One pipeline per experiment of the DATE 2005 paper (see DESIGN.md's
//! per-experiment index):
//!
//! * [`evaluate_app`] — the four Figure-2 bars and the two Figure-3 bars
//!   for one application, measured on the simulator (not the static
//!   estimates): out-of-the-box baseline, MHLA step 1, MHLA + TE, and the
//!   zero-wait ideal;
//! * [`fig2_fig3_suite`] — the full nine-application table;
//! * [`te_ablation_point_frac`] — TE benefit as a function of available
//!   compute (the §3 claim: "up to 33%, if there are a lot of processing
//!   loops");
//! * capacity sweeps reuse [`mhla_core::explore`] directly.
//!
//! The binaries (`fig2_performance`, `fig3_energy`, `tradeoff_curves`,
//! `te_ablation`) print the tables and drop CSVs under `results/`; the
//! `grid4` binary tracks the exploration engines' wall time in
//! `BENCH_grid4.json` at the workspace root.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mhla_apps::Application;
use mhla_core::{Mhla, MhlaConfig};
use mhla_hierarchy::Platform;
use mhla_sim::Simulator;

/// Allocation events per evaluation while running `f` (`evals`
/// evaluations). `Some` only when the binary was built with the
/// `alloc-counter` feature *and* registered the counting allocator
/// (`mhla_alloc_counter::is_counting`); plain builds and un-registered
/// binaries report `None` rather than a misleading zero.
#[cfg(feature = "alloc-counter")]
fn count_allocs_per_eval<R>(evals: usize, f: impl FnOnce() -> R) -> (R, Option<f64>) {
    let (r, events, _) = mhla_alloc_counter::allocations_during(f);
    let counting = mhla_alloc_counter::is_counting();
    (r, counting.then(|| events as f64 / evals.max(1) as f64))
}

#[cfg(not(feature = "alloc-counter"))]
fn count_allocs_per_eval<R>(evals: usize, f: impl FnOnce() -> R) -> (R, Option<f64>) {
    let _ = evals;
    (f(), None)
}

/// The suite-level `"<key>": <number>` of a previously written
/// `BENCH_*.json` document — the before/after hook: the `grid4` binary
/// reads the tracked file's prior value before overwriting it, so the
/// regenerated document records the wall-time trajectory across code
/// changes. Reads the *first* `"suite"` object after the start of
/// `content`.
pub fn prev_suite_value(content: &str, key: &str) -> Option<f64> {
    let suite = content.find("\"suite\"")?;
    let pat = format!("\"{key}\":");
    let at = content[suite..].find(&pat)? + suite + pat.len();
    let rest = content[at..].trim_start();
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Simulated figures for one application (Figure 2 + Figure 3 bars).
#[derive(Clone, PartialEq, Debug)]
pub struct AppFigures {
    /// Application name.
    pub name: String,
    /// Scratchpad capacity used, bytes.
    pub scratchpad: u64,
    /// Simulated cycles, out-of-the-box (everything off-chip).
    pub baseline_cycles: u64,
    /// Simulated cycles after MHLA step 1 (no prefetching).
    pub mhla_cycles: u64,
    /// Simulated cycles after MHLA + Time Extensions.
    pub mhla_te_cycles: u64,
    /// Ideal bound: zero-wait block transfers.
    pub ideal_cycles: u64,
    /// Simulated memory energy, baseline, picojoule.
    pub baseline_energy_pj: f64,
    /// Simulated memory energy after MHLA (TE leaves it unchanged).
    pub mhla_energy_pj: f64,
}

impl AppFigures {
    /// Step-1 cycle reduction vs. baseline, percent.
    pub fn mhla_gain_pct(&self) -> f64 {
        100.0 * (1.0 - self.mhla_cycles as f64 / self.baseline_cycles.max(1) as f64)
    }

    /// Extra reduction of TE relative to the step-1 result, percent.
    pub fn te_gain_pct(&self) -> f64 {
        100.0 * (1.0 - self.mhla_te_cycles as f64 / self.mhla_cycles.max(1) as f64)
    }

    /// Energy reduction vs. baseline, percent.
    pub fn energy_gain_pct(&self) -> f64 {
        100.0 * (1.0 - self.mhla_energy_pj / self.baseline_energy_pj.max(f64::MIN_POSITIVE))
    }

    /// How much of the MHLA→ideal stall gap TE closes, percent (100 = all
    /// transfers hidden).
    pub fn hiding_pct(&self) -> f64 {
        let gap = self.mhla_cycles.saturating_sub(self.ideal_cycles);
        if gap == 0 {
            100.0
        } else {
            let closed = self.mhla_cycles.saturating_sub(self.mhla_te_cycles);
            100.0 * closed as f64 / gap as f64
        }
    }
}

/// Runs the full measurement pipeline for one application on a platform
/// with the given scratchpad capacity.
pub fn evaluate_app_at(app: &Application, scratchpad: u64) -> AppFigures {
    let platform = Platform::embedded_default(scratchpad);

    // Out-of-the-box: direct placement (no copies, no in-place, no TE) —
    // what the toolchain produces without the MHLA tool.
    let mhla = Mhla::new(&app.program, &platform, MhlaConfig::default());
    let model = mhla.cost_model();
    let baseline = mhla_core::assign::direct_placement(&model, Default::default()).assignment;
    let baseline_te = mhla_core::te::plan(&model, &baseline);
    let base_rep = Simulator::new(&model, &baseline, &baseline_te).run();

    // MHLA step 1 only (transfers never prefetched).
    let step1_cfg = MhlaConfig {
        disable_te: true,
        ..MhlaConfig::default()
    };
    let step1 = Mhla::new(&app.program, &platform, step1_cfg);
    let step1_model = step1.cost_model();
    let r1 = step1.run();
    let rep1 = Simulator::new(&step1_model, &r1.assignment, &r1.te).run();

    // MHLA + TE.
    let r2 = mhla.run();
    let rep2 = Simulator::new(&model, &r2.assignment, &r2.te).run();

    AppFigures {
        name: app.name().to_string(),
        scratchpad,
        baseline_cycles: base_rep.total_cycles(),
        mhla_cycles: rep1.total_cycles(),
        mhla_te_cycles: rep2.total_cycles(),
        ideal_cycles: rep2.busy_cycles,
        baseline_energy_pj: base_rep.total_energy_pj(),
        mhla_energy_pj: rep2.total_energy_pj(),
    }
}

/// [`evaluate_app_at`] with the application's default scratchpad.
pub fn evaluate_app(app: &Application) -> AppFigures {
    evaluate_app_at(app, app.default_scratchpad)
}

/// The nine-application suite (Figures 2 and 3).
pub fn fig2_fig3_suite() -> Vec<AppFigures> {
    mhla_apps::all_apps().iter().map(evaluate_app).collect()
}

/// One point of the TE ablation: TE benefit with the statement compute
/// cycles scaled by `compute_scale`. More processing per fetched byte
/// makes transfers easier to hide (hiding fraction rises) but a smaller
/// share of the execution (relative boost falls) — the paper's "up to
/// 33%, if there are a lot of processing loops" lives at the crossover.
#[cfg(test)]
fn te_ablation_point(app: &Application, compute_scale: u64) -> AppFigures {
    te_ablation_point_frac(app, compute_scale, 1)
}

/// One point of the TE ablation with the statement compute cycles scaled
/// by the rational `mul/div`, so the sweep can also visit the
/// transfer-bound side (e.g. 1/4 of the original compute).
pub fn te_ablation_point_frac(app: &Application, mul: u64, div: u64) -> AppFigures {
    let mut program = app.program.clone();
    scale_compute(&mut program, mul, div.max(1));
    let scaled = Application {
        program,
        ..app.clone()
    };
    evaluate_app(&scaled)
}

/// Scales every statement's compute cycles by `mul/div`.
fn scale_compute(program: &mut mhla_ir::Program, mul: u64, div: u64) {
    // Rebuild through the public API: clone arrays/loops, scale statement
    // costs. The IR is an arena, so a structural rebuild is mechanical.
    let scaled = rebuild_with(program, |cycles| (cycles * mul.max(1)) / div);
    *program = scaled;
}

fn rebuild_with(program: &mhla_ir::Program, f: impl Fn(u64) -> u64) -> mhla_ir::Program {
    use mhla_ir::{NodeId, ProgramBuilder};
    let mut b = ProgramBuilder::new(program.name().to_string());
    for (_, a) in program.arrays() {
        b.array(a.name.clone(), &a.dims, a.elem);
    }
    fn emit(
        b: &mut mhla_ir::ProgramBuilder,
        program: &mhla_ir::Program,
        nodes: &[NodeId],
        f: &impl Fn(u64) -> u64,
    ) {
        for &n in nodes {
            match n {
                NodeId::Loop(l) => {
                    let lp = program.loop_(l);
                    b.begin_loop(lp.name.clone(), lp.lower, lp.upper, lp.step);
                    emit(b, program, &lp.body.clone(), f);
                    b.end_loop();
                }
                NodeId::Stmt(s) => {
                    let st = program.stmt(s);
                    let mut sb = b.stmt(st.name.clone());
                    for acc in &st.accesses {
                        sb = match acc.kind {
                            mhla_ir::AccessKind::Read => sb.read(acc.array, acc.index.clone()),
                            mhla_ir::AccessKind::Write => sb.write(acc.array, acc.index.clone()),
                        };
                    }
                    sb.compute_cycles(f(st.compute_cycles)).finish();
                }
            }
        }
    }
    emit(&mut b, program, program.roots(), &f);
    b.finish()
}

/// The eight-application sweep benchmark suite: [`mhla_apps::all_apps`]
/// minus the ninth (`lpc_voice`), mirroring the trade-off figures.
fn sweep_suite() -> Vec<Application> {
    let mut apps = mhla_apps::all_apps();
    apps.retain(|a| a.name() != "lpc_voice");
    assert_eq!(apps.len(), 8, "sweep suite must stay at eight apps");
    apps
}

/// Strict parsing of `MHLA_SWEEP_MAX_EVALS` (`None` when unset): the
/// evaluation budget ([`ExploreBudget`](mhla_core::explore::ExploreBudget))
/// of the `grid4` binary's budget-interrupt smoke mode.
///
/// # Errors
///
/// Any value that is not a positive integer is rejected with a typed
/// [`MhlaError::InvalidOptions`](mhla_core::MhlaError) instead of
/// silently falling back to defaults — a typo'd tuning run must not
/// masquerade as a default-configuration measurement.
pub fn sweep_max_evals_from_env() -> Result<Option<usize>, mhla_core::MhlaError> {
    parse_sweep_max_evals(env_value("MHLA_SWEEP_MAX_EVALS")?.as_deref())
}

/// Reads one environment variable, distinguishing "absent" from
/// "unreadable" (non-unicode).
fn env_value(name: &str) -> Result<Option<String>, mhla_core::MhlaError> {
    match std::env::var(name) {
        Ok(v) => Ok(Some(v)),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(e) => Err(mhla_core::MhlaError::InvalidOptions {
            what: format!("{name} unreadable: {e}"),
        }),
    }
}

/// The pure parsing behind [`sweep_max_evals_from_env`].
fn parse_sweep_max_evals(value: Option<&str>) -> Result<Option<usize>, mhla_core::MhlaError> {
    match value {
        None => Ok(None),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(mhla_core::MhlaError::InvalidOptions {
                what: format!("MHLA_SWEEP_MAX_EVALS must be a positive integer, got {v:?}"),
            }),
        },
    }
}

/// Wall-time samples of one measured path, seconds: one per repetition.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    /// The median sample (0 when empty).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// The interquartile range: the third quartile minus the first (0
    /// when empty).
    pub fn iqr(&self) -> f64 {
        self.quantile(0.75) - self.quantile(0.25)
    }

    /// The `q`-quantile, interpolated linearly between order statistics.
    fn quantile(&self, q: f64) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        let Some(last) = sorted.len().checked_sub(1) else {
            return 0.0;
        };
        let pos = q * last as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }

    /// Whole-suite samples from per-app ones: repetition `r` of the suite
    /// took the sum of every app's `r`-th sample.
    pub fn suite<'a>(per_app: impl IntoIterator<Item = &'a Samples>) -> Samples {
        let mut total: Vec<f64> = Vec::new();
        for app in per_app {
            total.resize(total.len().max(app.0.len()), 0.0);
            for (t, s) in total.iter_mut().zip(&app.0) {
                *t += s;
            }
        }
        Samples(total)
    }

    /// Runs `f` once, records its wall time and returns its result.
    fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = std::time::Instant::now();
        let r = f();
        self.0.push(t.elapsed().as_secs_f64());
        r
    }

    /// The suite JSON fields of this path: `"<key>"` is the median and
    /// `"<key>_iqr"` the interquartile range.
    fn json(&self, key: &str) -> String {
        format!(
            "\"{key}\": {:.6}, \"{key}_iqr\": {:.6}",
            self.median(),
            self.iqr()
        )
    }
}

/// Exhaustive vs pruned timings and counts for one application's
/// four-level (L1×L2×L3) grid sweep.
///
/// *Exhaustive* evaluates the full Cartesian product with
/// [`mhla_core::explore::try_sweep_grid_run`] (cold — the pruned sweep's
/// certified loop with its certificates off, so the delta is the pruning
/// itself). *Pruned* is
/// [`mhla_core::explore::try_sweep_grid_pruned_with`] under the default
/// [`PruneOptions`](mhla_core::explore::PruneOptions). Both search each
/// rank level on every core.
#[derive(Clone, PartialEq, Debug)]
pub struct Grid4Perf {
    /// Application name.
    pub app: String,
    /// The pruned sweep's own bookkeeping (candidates, evaluated, skip
    /// counts and ratios).
    pub stats: mhla_core::explore::PruneStats,
    /// Wall times of the exhaustive sweep, one per repetition.
    pub exhaustive: Samples,
    /// Wall times of the pruned sweep, one per repetition.
    pub pruned: Samples,
    /// Whether the pruned cycles and energy frontiers are point-for-point
    /// (capacities + full results) those of the exhaustive grid.
    pub frontier_identical: bool,
    /// Whether every evaluated pruned point is bit-identical to the
    /// exhaustive point at the same capacity vector.
    pub points_identical: bool,
    /// Allocation events per evaluated point of the pruned sweep,
    /// measured by the counting allocator (`None` outside
    /// `alloc-counter` builds).
    pub allocs_per_eval: Option<f64>,
}

impl Grid4Perf {
    /// exhaustive / pruned median wall-time ratio.
    pub fn speedup(&self) -> f64 {
        self.exhaustive.median() / self.pruned.median().max(f64::MIN_POSITIVE)
    }
}

/// The frontier of a grid as owned `(capacities, result)` pairs — the
/// representation the pruned-vs-exhaustive comparisons use (indices shift
/// when points are skipped; the underlying points must not).
pub fn grid_frontier_points(
    g: &mhla_core::explore::GridSweep,
    indices: &[usize],
) -> Vec<(Vec<u64>, mhla_core::MhlaResult)> {
    indices
        .iter()
        .map(|&i| (g.points[i].capacities.clone(), g.points[i].result.clone()))
        .collect()
}

/// Measures exhaustive vs pruned four-level grid sweeps over the
/// eight-app `sweep_suite` under `config`, `repeats` runs per path,
/// verifying frontier and per-point identity. The `grid4` binary measures the
/// cycles and the energy objective; under energy the gain-bound
/// saturation rule (instead of the cycles-only one) drives the pruning.
pub fn measure_grid4_perf(repeats: usize, config: &mhla_core::MhlaConfig) -> Vec<Grid4Perf> {
    use mhla_core::explore::{
        default_axes, try_sweep_grid_pruned_with, try_sweep_grid_run, PruneOptions, SweepOptions,
    };

    let platform = Platform::four_level_default();
    let axes = default_axes(&platform);
    let (opts, prune_opts) = (SweepOptions::default(), PruneOptions::default());
    sweep_suite()
        .iter()
        .map(|app| {
            let (mut exhaustive_s, mut pruned_s) = (Samples::default(), Samples::default());
            let mut exhaustive = None;
            let mut pruned = None;
            for _ in 0..repeats.max(1) {
                exhaustive = Some(exhaustive_s.time(|| {
                    try_sweep_grid_run(&app.program, &platform, &axes, config, &opts)
                        .expect("the built-in grid sweeps cleanly")
                        .sweep
                }));
                pruned = Some(pruned_s.time(|| {
                    try_sweep_grid_pruned_with(&app.program, &platform, &axes, config, &prune_opts)
                        .expect("the built-in grid sweeps cleanly")
                }));
            }
            let (exhaustive, pruned) = (exhaustive.expect("ran"), pruned.expect("ran"));
            // One extra (untimed) pruned run under the counting
            // allocator; `None` outside `alloc-counter` builds.
            let (_, allocs_per_eval) = count_allocs_per_eval(pruned.stats.evaluated, || {
                try_sweep_grid_pruned_with(&app.program, &platform, &axes, config, &prune_opts)
            });
            let frontier_identical = grid_frontier_points(&exhaustive, &exhaustive.pareto_cycles())
                == grid_frontier_points(&pruned.sweep, &pruned.sweep.pareto_cycles())
                && grid_frontier_points(&exhaustive, &exhaustive.pareto_energy())
                    == grid_frontier_points(&pruned.sweep, &pruned.sweep.pareto_energy());
            let points_identical = pruned.sweep.points.iter().all(|pp| {
                exhaustive
                    .points
                    .iter()
                    .find(|ep| ep.capacities == pp.capacities)
                    .is_some_and(|ep| ep.result == pp.result)
            });
            Grid4Perf {
                app: app.name().to_string(),
                stats: pruned.stats,
                exhaustive: exhaustive_s,
                pruned: pruned_s,
                frontier_identical,
                points_identical,
                allocs_per_eval,
            }
        })
        .collect()
}

/// Adaptive-refinement bookkeeping for one application's four-level
/// grid: the virtual fine lattice certified by
/// [`mhla_core::explore::try_sweep_grid_refined_with`] over the
/// four-level [`default_axes`](mhla_core::explore::default_axes), the
/// fraction of it actually searched, and the
/// frontier-equivalence verdict against the coarse sweep (the refined
/// frontier must dominate-or-equal the coarse one — it covers a superset
/// of the coarse lattice).
#[derive(Clone, PartialEq, Debug)]
pub struct Grid4Refine {
    /// Application name.
    pub app: String,
    /// The refinement's own bookkeeping (virtual lattice size, evals,
    /// certificate ledger).
    pub stats: mhla_core::explore::RefineStats,
    /// Refinement waves run.
    pub waves: usize,
    /// Whether every coarse-lattice point of the refined sweep is
    /// bit-identical to the pruned coarse sweep's point there, and the
    /// refined frontiers contain every coarse frontier point or a
    /// dominator of it.
    pub frontier_consistent: bool,
    /// Wall times of the refined sweep, one per repetition.
    pub refined: Samples,
}

/// Measures the adaptive refinement over the eight-app `sweep_suite` at
/// the default depth ([`mhla_core::explore::REFINE_DEPTH`]) under the
/// given config, `repeats` runs per app, checking per-app frontier
/// consistency against the pruned coarse sweep.
pub fn measure_grid4_refine(repeats: usize, config: &mhla_core::MhlaConfig) -> Vec<Grid4Refine> {
    use mhla_core::explore::{
        default_axes, try_sweep_grid_pruned_with, try_sweep_grid_refined_with, PruneOptions,
        RefineOptions,
    };
    use mhla_core::pareto;

    let platform = Platform::four_level_default();
    let axes = default_axes(&platform);
    sweep_suite()
        .iter()
        .map(|app| {
            let mut refined_s = Samples::default();
            let mut refined = None;
            for _ in 0..repeats.max(1) {
                refined = Some(refined_s.time(|| {
                    try_sweep_grid_refined_with(
                        &app.program,
                        &platform,
                        &axes,
                        config,
                        &RefineOptions::default(),
                    )
                    .expect("the built-in grid refines cleanly")
                }));
            }
            let refined = refined.expect("ran");
            let coarse = try_sweep_grid_pruned_with(
                &app.program,
                &platform,
                &axes,
                config,
                &PruneOptions::default(),
            )
            .expect("the built-in grid sweeps cleanly");
            // Every committed coarse point must reappear bit-identically
            // in the refined sweep (same cold semantics, superset
            // lattice), and the refined frontiers must dominate-or-equal
            // the coarse ones on both surfaces.
            let points_ok = coarse.sweep.points.iter().all(|cp| {
                refined
                    .sweep
                    .points
                    .iter()
                    .find(|rp| rp.capacities == cp.capacities)
                    .is_none_or(|rp| rp.result == cp.result)
            });
            let surface =
                |g: &mhla_core::explore::GridSweep, idx: &[usize], energy: bool| -> Vec<Vec<f64>> {
                    idx.iter()
                        .map(|&i| {
                            let p = &g.points[i];
                            let mut c: Vec<f64> = p.capacities.iter().map(|&c| c as f64).collect();
                            c.push(if energy {
                                p.energy_pj()
                            } else {
                                p.cycles() as f64
                            });
                            c
                        })
                        .collect()
                };
            let fronts_ok = pareto::front_dominates(
                &surface(&refined.sweep, &refined.sweep.pareto_cycles(), false),
                &surface(&coarse.sweep, &coarse.sweep.pareto_cycles(), false),
            ) && pareto::front_dominates(
                &surface(&refined.sweep, &refined.sweep.pareto_energy(), true),
                &surface(&coarse.sweep, &coarse.sweep.pareto_energy(), true),
            );
            Grid4Refine {
                app: app.name().to_string(),
                stats: refined.stats,
                waves: refined.waves,
                frontier_consistent: refined.status.is_complete() && points_ok && fronts_ok,
                refined: refined_s,
            }
        })
        .collect()
}

/// Improving-vs-cold comparison for one application's four-level grid:
/// the mode-tagged eval counts and frontier deltas of
/// [`SearchMode`](mhla_core::explore::SearchMode) — `Cold` (every point a
/// standalone run) against `Improving` (the neighbor-seeded portfolio
/// whose results dominate-or-equal the cold ones on the objective
/// surface).
#[derive(Clone, PartialEq, Debug)]
pub struct ImprovingGrid4Perf {
    /// Application name.
    pub app: String,
    /// Grid points per sweep.
    pub points: usize,
    /// Greedy search legs of the cold sweep (one per point).
    pub cold_evals: usize,
    /// Greedy search legs of the improving sweep (cold leg + distinct
    /// warm seeds per point).
    pub improving_evals: usize,
    /// Points whose committed result came from a warm seed — strict
    /// objective improvements over the cold search by construction.
    pub seed_wins: usize,
    /// Points whose improving objective score is strictly below the cold
    /// one (equals [`seed_wins`](Self::seed_wins); asserted).
    pub improved_points: usize,
    /// Largest per-point relative objective improvement, percent.
    pub max_improvement_pct: f64,
    /// Largest relative improvement the improving objective frontier
    /// offers over a cold frontier point, percent (0 when the frontiers
    /// coincide) — from [`mhla_core::pareto::front_deltas`].
    pub frontier_max_delta_pct: f64,
    /// The machine-checked guarantee: every point scores ≤ its cold
    /// counterpart and the improving objective frontier dominates-or-
    /// equals the cold one.
    pub dominates: bool,
    /// Wall times of the cold sweep (rank levels on every core), one per
    /// repetition.
    pub cold: Samples,
    /// Wall times of the improving sweep (rank levels on every core, each
    /// search carrying its committed neighbours' seeds), one per
    /// repetition.
    pub improving: Samples,
}

/// Measures cold-vs-improving four-level grid sweeps over the eight-app
/// `sweep_suite` under an explicit [`MhlaConfig`], `repeats` runs per
/// mode, verifying the dominance guarantee per app.
///
/// [`MhlaConfig`]: mhla_core::MhlaConfig
pub fn measure_grid4_improving(
    repeats: usize,
    config: &mhla_core::MhlaConfig,
) -> Vec<ImprovingGrid4Perf> {
    use mhla_core::explore::{default_axes, try_sweep_grid_run, SearchMode, SweepOptions};
    use mhla_core::{pareto, report};

    let platform = Platform::four_level_default();
    let axes = default_axes(&platform);
    let cold_opts = SweepOptions::default();
    let improving_opts = SweepOptions {
        mode: SearchMode::Improving,
        ..SweepOptions::default()
    };
    sweep_suite()
        .iter()
        .map(|app| {
            let (mut cold_s, mut improving_s) = (Samples::default(), Samples::default());
            let mut cold = None;
            let mut improving = None;
            for _ in 0..repeats.max(1) {
                cold = Some(cold_s.time(|| {
                    try_sweep_grid_run(&app.program, &platform, &axes, config, &cold_opts)
                        .expect("the built-in grid sweeps cleanly")
                }));
                improving = Some(improving_s.time(|| {
                    try_sweep_grid_run(&app.program, &platform, &axes, config, &improving_opts)
                        .expect("the built-in grid sweeps cleanly")
                }));
            }
            let (cold, improving) = (cold.expect("ran"), improving.expect("ran"));
            let objective = &config.objective;
            let mut improved = 0usize;
            let mut max_improvement_pct = 0.0f64;
            let mut per_point_ok = improving.sweep.points.len() == cold.sweep.points.len();
            for (imp, base) in improving.sweep.points.iter().zip(&cold.sweep.points) {
                let (si, sc) = (
                    imp.objective_score(objective),
                    base.objective_score(objective),
                );
                per_point_ok &= imp.capacities == base.capacities && si <= sc;
                if si < sc {
                    improved += 1;
                    max_improvement_pct = max_improvement_pct.max(100.0 * (1.0 - si / sc));
                }
            }
            let imp_front = report::objective_coords(
                &improving.sweep,
                &improving.sweep.pareto_objective(objective),
                objective,
            );
            let cold_front = report::objective_coords(
                &cold.sweep,
                &cold.sweep.pareto_objective(objective),
                objective,
            );
            let deltas = pareto::front_deltas(&imp_front, &cold_front);
            let frontier_ok = deltas.iter().all(|&d| d >= 0.0);
            let frontier_max_delta_pct = deltas
                .iter()
                .zip(&cold_front)
                .map(|(&d, q)| 100.0 * d / q[q.len() - 1].max(f64::MIN_POSITIVE))
                .fold(0.0f64, f64::max);
            assert_eq!(
                improved,
                improving.seed_wins,
                "{}: seed wins must be exactly the strict improvements",
                app.name()
            );
            ImprovingGrid4Perf {
                app: app.name().to_string(),
                points: cold.sweep.points.len(),
                cold_evals: cold.evals,
                improving_evals: improving.evals,
                seed_wins: improving.seed_wins,
                improved_points: improved,
                max_improvement_pct,
                frontier_max_delta_pct,
                dominates: per_point_ok && frontier_ok,
                cold: cold_s,
                improving: improving_s,
            }
        })
        .collect()
}

/// Renders one objective's [`ImprovingGrid4Perf`] rows as a JSON object
/// (apps + suite totals), used by [`grid4_perf_json`]'s per-objective
/// `improving` section.
fn grid4_improving_json(perfs: &[ImprovingGrid4Perf], indent: &str) -> String {
    let cold = Samples::suite(perfs.iter().map(|p| &p.cold));
    let improving = Samples::suite(perfs.iter().map(|p| &p.improving));
    let points: usize = perfs.iter().map(|p| p.points).sum();
    let cold_evals: usize = perfs.iter().map(|p| p.cold_evals).sum();
    let improving_evals: usize = perfs.iter().map(|p| p.improving_evals).sum();
    let seed_wins: usize = perfs.iter().map(|p| p.seed_wins).sum();
    let improved: usize = perfs.iter().map(|p| p.improved_points).sum();
    let all_dominate = perfs.iter().all(|p| p.dominates);
    let mut out = format!("{{\n{indent}  \"apps\": [\n");
    for (i, p) in perfs.iter().enumerate() {
        out.push_str(&format!(
            "{indent}    {{\"name\": \"{}\", \"points\": {}, \"cold_evals\": {}, \
             \"improving_evals\": {}, \"seed_wins\": {}, \"improved_points\": {}, \
             \"max_improvement_pct\": {:.3}, \"frontier_max_delta_pct\": {:.3}, \
             \"dominates\": {}, \"cold_seconds\": {:.6}, \"improving_seconds\": {:.6}}}{}\n",
            p.app,
            p.points,
            p.cold_evals,
            p.improving_evals,
            p.seed_wins,
            p.improved_points,
            p.max_improvement_pct,
            p.frontier_max_delta_pct,
            p.dominates,
            p.cold.median(),
            p.improving.median(),
            if i + 1 < perfs.len() { "," } else { "" },
        ));
    }
    out.push_str(&format!(
        "{indent}  ],\n{indent}  \"suite\": {{\"points\": {points}, \
         \"cold_evals\": {cold_evals}, \"improving_evals\": {improving_evals}, \
         \"seed_wins\": {seed_wins}, \"improved_points\": {improved}, \
         \"repeats\": {}, {}, {}, \"all_dominate\": {all_dominate}}}\n{indent}}}",
        cold.0.len(),
        cold.json("cold_seconds"),
        improving.json("improving_seconds"),
    ));
    out
}

/// Renders the [`Grid4Refine`] rows as a JSON object (apps + suite
/// totals), used by [`grid4_perf_json`]'s top-level `refine` section.
/// `prev_refined` is the prior tracked document's suite refinement wall
/// time, when known — the before/after trajectory hook.
fn grid4_refine_json(perfs: &[Grid4Refine], indent: &str, prev_refined: Option<f64>) -> String {
    let virtual_points: u64 = perfs.iter().map(|p| p.stats.virtual_points).sum();
    let evaluated: usize = perfs.iter().map(|p| p.stats.evaluated).sum();
    let certified: usize = perfs.iter().map(|p| p.stats.corners_certified).sum();
    let refined = Samples::suite(perfs.iter().map(|p| &p.refined));
    let all_consistent = perfs.iter().all(|p| p.frontier_consistent);
    let mut out = format!("{{\n{indent}  \"apps\": [\n");
    for (i, p) in perfs.iter().enumerate() {
        out.push_str(&format!(
            "{indent}    {{\"name\": \"{}\", \"virtual_points\": {}, \"evaluated\": {}, \
             \"eval_ratio\": {:.4}, \"coarse_points\": {}, \"cells_opened\": {}, \
             \"cells_closed_mask\": {}, \"cells_leaf\": {}, \
             \"corners_certified\": {}, \"waves\": {}, \"frontier_consistent\": {}, \
             \"refined_seconds\": {:.6}}}{}\n",
            p.app,
            p.stats.virtual_points,
            p.stats.evaluated,
            p.stats.eval_ratio(),
            p.stats.coarse_points,
            p.stats.cells_opened,
            p.stats.cells_closed_mask,
            p.stats.cells_leaf,
            p.stats.corners_certified,
            p.waves,
            p.frontier_consistent,
            p.refined.median(),
            if i + 1 < perfs.len() { "," } else { "" },
        ));
    }
    out.push_str(&format!(
        "{indent}  ],\n{indent}  \"suite\": {{\"virtual_points\": {virtual_points}, \
         \"evaluated\": {evaluated}, \"eval_ratio\": {:.4}, \
         \"corners_certified\": {certified}, \"repeats\": {}, {}, \
         {}\"all_consistent\": {all_consistent}}}\n{indent}}}",
        evaluated as f64 / (virtual_points.max(1)) as f64,
        refined.0.len(),
        refined.json("refined_seconds"),
        prev_json("refined", prev_refined, refined.median()),
    ));
    out
}

/// The before/after trajectory fields of one suite time:
/// `"prev_<key>_seconds"` (the prior tracked document's value) and
/// `"wall_speedup_vs_prev"`; empty when the prior value is unknown.
fn prev_json(key: &str, prev: Option<f64>, now: f64) -> String {
    prev.map(|prev| {
        format!(
            "\"prev_{key}_seconds\": {prev:.6}, \"wall_speedup_vs_prev\": {:.2}, ",
            prev / now.max(f64::MIN_POSITIVE)
        )
    })
    .unwrap_or_default()
}

/// Renders one objective's [`Grid4Perf`] rows as a JSON object (apps +
/// suite totals), used by [`grid4_perf_json`] per objective section.
/// `prev_pruned` is the prior tracked document's suite pruned wall time,
/// when known — the before/after trajectory hook.
fn grid4_objective_json(perfs: &[Grid4Perf], indent: &str, prev_pruned: Option<f64>) -> String {
    let exhaustive = Samples::suite(perfs.iter().map(|p| &p.exhaustive));
    let pruned = Samples::suite(perfs.iter().map(|p| &p.pruned));
    let candidates: usize = perfs.iter().map(|p| p.stats.candidates).sum();
    let evaluated: usize = perfs.iter().map(|p| p.stats.evaluated).sum();
    let skipped: usize = perfs.iter().map(|p| p.stats.skipped()).sum();
    let all_identical = perfs
        .iter()
        .all(|p| p.frontier_identical && p.points_identical);
    let mut out = format!("{{\n{indent}  \"apps\": [\n");
    for (i, p) in perfs.iter().enumerate() {
        let allocs = p
            .allocs_per_eval
            .map(|a| format!("\"allocs_per_eval\": {a:.1}, "))
            .unwrap_or_default();
        out.push_str(&format!(
            "{indent}    {{\"name\": \"{}\", \"candidates\": {}, \"evaluated\": {}, \
             \"skipped_saturated\": {}, \"skip_ratio\": {:.3}, \
             \"exhaustive_seconds\": {:.6}, \"pruned_seconds\": {:.6}, \
             \"speedup\": {:.2}, {allocs}\"frontier_identical\": {}, \
             \"points_identical\": {}}}{}\n",
            p.app,
            p.stats.candidates,
            p.stats.evaluated,
            p.stats.skipped_saturated,
            p.stats.skip_ratio(),
            p.exhaustive.median(),
            p.pruned.median(),
            p.speedup(),
            p.frontier_identical,
            p.points_identical,
            if i + 1 < perfs.len() { "," } else { "" },
        ));
    }
    let suite_allocs = perfs
        .iter()
        .map(|p| p.allocs_per_eval.map(|a| a * p.stats.evaluated as f64))
        .sum::<Option<f64>>()
        .map(|total| {
            format!(
                "\"allocs_per_eval\": {:.1}, ",
                total / evaluated.max(1) as f64
            )
        })
        .unwrap_or_default();
    out.push_str(&format!(
        "{indent}  ],\n{indent}  \"suite\": {{\"candidates\": {candidates}, \
         \"evaluated\": {evaluated}, \"skipped\": {skipped}, \"skip_ratio\": {:.3}, \
         \"repeats\": {}, {}, {}, \"speedup\": {:.2}, {suite_allocs}{}\
         \"all_identical\": {all_identical}}}\n{indent}}}",
        skipped as f64 / candidates.max(1) as f64,
        pruned.0.len(),
        exhaustive.json("exhaustive_seconds"),
        pruned.json("pruned_seconds"),
        exhaustive.median() / pruned.median().max(f64::MIN_POSITIVE),
        prev_json("pruned", prev_pruned, pruned.median()),
    ));
    out
}

/// What a reader of `BENCH_grid4.json` must know before comparing it
/// with documents written before the exhaustive engine moved onto the
/// certified loop.
const GRID4_NOTE: &str = "Suite times are medians over `repeats` whole-suite runs, with \
     their interquartile range under `<key>_iqr`; earlier documents summed per-app best-of-N \
     or single samples. The exhaustive reference (`exhaustive_seconds`, and `cold_seconds` \
     under `improving`) used to run on one thread (`parallel: false`) and now runs on the \
     certified loop's helper pool, so those times and the improving-vs-cold timing cannot be \
     compared with earlier documents.";

/// Renders the cycles- and energy-objective [`Grid4Perf`] rows plus the
/// per-objective [`ImprovingGrid4Perf`] mode comparison and the
/// [`Grid4Refine`] adaptive-refinement rows as the `BENCH_grid4.json`
/// document tracked at the workspace root. Each objective section
/// carries the pruned-vs-exhaustive data under `pruned` and the
/// mode-tagged eval counts / frontier deltas under `improving`; the
/// top-level `refine` section holds the virtual-lattice bookkeeping.
/// `prev_cycles`, `prev_energy` and `prev_refined` are the prior
/// document's suite wall times (cycles/pruned, energy/pruned and
/// refine); the `machine` header names the checkout and thread count the
/// timings come from, and `note` how to compare them with older
/// documents.
pub fn grid4_perf_json(
    cycles: &[Grid4Perf],
    energy: &[Grid4Perf],
    cycles_improving: &[ImprovingGrid4Perf],
    energy_improving: &[ImprovingGrid4Perf],
    refine: &[Grid4Refine],
    (prev_cycles, prev_energy, prev_refined): (Option<f64>, Option<f64>, Option<f64>),
) -> String {
    format!(
        "{{\n  \"bench\": \"grid_sweep_l1_l2_l3_pruned\",\n  \"machine\": {},\n  \
         \"note\": \"{GRID4_NOTE}\",\n  \
         \"objectives\": {{\n    \
         \"cycles\": {{\n      \"pruned\": {},\n      \"improving\": {}\n    }},\n    \
         \"energy\": {{\n      \"pruned\": {},\n      \"improving\": {}\n    }}\n  }},\n  \
         \"refine\": {}\n}}\n",
        machine_json(),
        grid4_objective_json(cycles, "      ", prev_cycles),
        grid4_improving_json(cycles_improving, "      "),
        grid4_objective_json(energy, "      ", prev_energy),
        grid4_improving_json(energy_improving, "      "),
        grid4_refine_json(refine, "  ", prev_refined),
    )
}

/// The checkout and machine a `BENCH_*.json` document was measured on:
/// `{"commit": "<git describe --always --dirty>", "nproc": <threads>}`,
/// with `"unknown"` outside a git checkout. The commit is that of the
/// tree that was timed. A document regenerated as part of a change is
/// written before the change is committed, so it reads `<parent>-dirty`:
/// its times then belong to the commit that next changes the document,
/// which `git log -1 --format=%h -- <document>` names.
fn machine_json() -> String {
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    format!("{{\"commit\": \"{commit}\", \"nproc\": {nproc}}}")
}

/// Writes `content` to `results/<name>` relative to the workspace root,
/// creating the directory as needed. Best-effort: failures are printed,
/// not fatal (benches may run in sandboxes).
pub fn write_results(name: &str, content: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(dir.join(name), content))
    {
        eprintln!("note: could not write results/{name}: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_percentages_stay_finite_for_degenerate_figures() {
        // A program whose baseline simulates to zero cycles (empty loop
        // nests, zero-trip bounds) must not turn the report into NaN/-inf:
        // every denominator in the percentage helpers is clamped.
        let zero = AppFigures {
            name: "degenerate".into(),
            scratchpad: 1024,
            baseline_cycles: 0,
            mhla_cycles: 0,
            mhla_te_cycles: 0,
            ideal_cycles: 0,
            baseline_energy_pj: 0.0,
            mhla_energy_pj: 0.0,
        };
        assert!(zero.mhla_gain_pct().is_finite());
        assert!(zero.te_gain_pct().is_finite());
        assert!(zero.energy_gain_pct().is_finite());
        assert!(zero.hiding_pct().is_finite());
        // And a zero baseline with nonzero MHLA cycles stays finite too
        // (the pathological "optimization made it worse than nothing"
        // corner an untrusted serialized program can produce).
        let worse = AppFigures {
            mhla_cycles: 10,
            ..zero
        };
        assert!(worse.mhla_gain_pct().is_finite());
    }

    #[test]
    fn env_parsing_rejects_malformed_values() {
        // Pure parser — no process-global env mutation (set_var racing a
        // concurrent getenv in a sibling test would be UB on glibc).
        assert_eq!(parse_sweep_max_evals(None).unwrap(), None);
        assert_eq!(parse_sweep_max_evals(Some("5")).unwrap(), Some(5));
        for bad in ["zero", "-1", "0", "", "4x"] {
            let err = parse_sweep_max_evals(Some(bad)).unwrap_err();
            assert!(
                matches!(err, mhla_core::MhlaError::InvalidOptions { .. }),
                "{err}"
            );
            assert!(err.to_string().contains("MHLA_SWEEP_MAX_EVALS"), "{err}");
        }
    }

    #[test]
    fn figure_shape_holds_on_a_small_app() {
        let app = mhla_apps::sobel_edge::app();
        let f = evaluate_app(&app);
        assert!(f.baseline_cycles > f.mhla_cycles, "{f:?}");
        assert!(f.mhla_cycles >= f.mhla_te_cycles, "{f:?}");
        assert!(f.mhla_te_cycles >= f.ideal_cycles, "{f:?}");
        assert!(f.baseline_energy_pj > f.mhla_energy_pj, "{f:?}");
        assert!(f.mhla_gain_pct() > 0.0);
        assert!((0.0..=100.0).contains(&f.hiding_pct()));
    }

    #[test]
    fn compute_scaling_preserves_structure() {
        let app = mhla_apps::fir_bank::app();
        let mut p = app.program.clone();
        scale_compute(&mut p, 4, 1);
        assert_eq!(p.stmt_count(), app.program.stmt_count());
        assert_eq!(p.loop_count(), app.program.loop_count());
        let (s0, _) = (p.stmts().next().unwrap(), ());
        let (o0, _) = (app.program.stmts().next().unwrap(), ());
        assert_eq!(s0.1.compute_cycles, 4 * o0.1.compute_cycles);
    }

    #[test]
    fn more_compute_means_more_hiding() {
        let app = mhla_apps::fir_bank::app();
        let lean = te_ablation_point(&app, 1);
        let fat = te_ablation_point(&app, 8);
        assert!(fat.hiding_pct() >= lean.hiding_pct() - 1e-9);
    }

    #[test]
    fn transfer_bound_side_boosts_te_share() {
        // Shrinking the compute makes transfers a larger share of the
        // execution, so TE's *relative* boost grows (until nothing can be
        // hidden any more).
        let app = mhla_apps::fir_bank::app();
        let lean = te_ablation_point_frac(&app, 1, 4);
        let base = te_ablation_point(&app, 1);
        assert!(
            lean.te_gain_pct() >= base.te_gain_pct() - 1e-9,
            "lean {} < base {}",
            lean.te_gain_pct(),
            base.te_gain_pct()
        );
    }
}
