//! Trade-off exploration over on-chip layer sizes.
//!
//! The paper's §1 claim — "performs a thorough trade-off exploration for
//! different memory layer sizes … able to find all the optimal trade-off
//! points" — maps to sweeps over the on-chip layer sizes. There is one
//! fallible entry per job; each validates its ingress and returns a typed
//! [`MhlaError`] instead of panicking:
//!
//! * [`try_sweep_grid_run`] — the exhaustive N-dimensional grid: every
//!   on-chip layer gets its own capacity axis ([`GridAxis`]) and the full
//!   Cartesian product is evaluated — the *joint* sizing of a multi-layer
//!   hierarchy (e.g. L1×L2 on [`Platform::three_level`]), whose
//!   interesting trade-offs single-axis sweeps cannot see. Pareto
//!   filtering generalizes to dominance over the capacity vector. The 1-D
//!   capacity sweep (one scratchpad layer resized over a range, e.g.
//!   [`default_capacities`]) is this grid on one axis.
//!   [`try_sweep_grid_run_in`] is the same engine over a caller-owned
//!   [`ExplorationContext`] (the batch server's miss path).
//! * [`try_sweep_grid_pruned_with`] — the sub-exhaustive production path
//!   for large grids: points that provably cannot contribute a Pareto
//!   point are skipped *without evaluation* (see its documentation for the
//!   prune rule and the losslessness argument). The rule arms under all
//!   three [`Objective`]s — the energy/weighted side rides on
//!   instrumented per-run *gain bounds* ([`RunStats`]).
//!   `tests/prune_equivalence.rs` verifies the pruned frontier bit-for-bit
//!   against the exhaustive one under every objective.
//! * [`try_sweep_grid_refined_with`] — certified adaptive refinement of a
//!   coarse grid towards a virtual fine lattice ([`refine_axis`]). The
//!   pruned sweep is this scheduler at depth 0, where the lattice is the
//!   grid itself.
//! * [`try_sweep_grid_resume`], [`try_sweep_grid_pruned_resume`] and
//!   [`try_sweep_grid_refined_resume`] continue a budget-stopped run
//!   ([`ExploreBudget`]) of the matching engine.
//!
//! [`default_axes`] is the standard grid for a platform's depth and
//! [`default_capacities`] the standard 1-D capacity range.
//!
//! Every engine runs on a shared [`ExplorationContext`]: the reuse
//! analysis, program facts, TE caches and candidate-move space are
//! computed once per program; each point only pays for its search. Every
//! engine is one certified loop (the refinement scheduler): the refined
//! engine runs it deeper than the grid, the pruned engine at depth 0, and
//! the exhaustive engine at depth 0 with its saturation certificates off,
//! so that it searches every point. The loop searches the points of one
//! rank level at the same time, on the calling thread and helper threads
//! of its own.
//!
//! [`sweep_cold`] keeps the frozen pre-optimization reference path for
//! the one-axis grid: strictly sequential, every point re-analyzed and
//! searched from scratch. The equivalence tests compare the paths; their
//! points and Pareto fronts must be identical.
//!
//! # One engine, two search modes
//!
//! All the grid engines run through one shared engine (internal
//! `SweepEngine`): axis cleaning, the lexicographic
//! Cartesian point order, per-point platform construction and evaluation,
//! the certified loop and the result assembly are written once; the
//! families differ only in the loop's depth and whether its certificates
//! arm. The engine is parameterized by a [`SearchMode`]:
//!
//! * [`SearchMode::Cold`] — what every entry point defaults to: each
//!   searched point is bit-identical to a standalone [`Mhla::run`] on the
//!   same platform, in every engine.
//! * [`SearchMode::Improving`] — each point's search is a *portfolio*
//!   seeded from the committed results of its grid neighbors one step
//!   down every axis, with the cold leg always included: every
//!   point's outcome provably scores no worse than its cold counterpart
//!   under the configured objective, and the objective Pareto frontier
//!   ([`GridSweep::pareto_objective`]) dominates-or-equals the cold one
//!   ([`pareto::front_dominates`]). On 4-level stacks the warm portfolio
//!   can *strictly* beat the cold greedy search (first observed on
//!   `full_search_me`), which is exactly why the cold mode must stay
//!   frozen and this mode is opt-in.
//!
//! Every [`GridSweep`] Pareto accessor filters through [`pareto::front`]
//! — the sort-based sweep that replaced the seed's all-pairs dominance
//! scan.

use std::any::Any;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

use mhla_hierarchy::{
    energy::{sram_access_cycles, sram_write_pj},
    LayerId, Platform,
};
use mhla_ir::Program;

use crate::context::ExplorationContext;
use crate::driver::{Mhla, MhlaResult, RunStats};
use crate::error::{self, MhlaError};
use crate::pareto;
use crate::types::{Assignment, MhlaConfig, Objective};
use crate::workspace::EvalWorkspace;

/// Why a budgeted sweep stopped early (see [`SweepStatus::Stopped`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StopCause {
    /// [`ExploreBudget::max_evals`] committed evaluations were reached.
    /// The only *deterministic* stop: the decided points are a pure
    /// function of the inputs, independent of wall time and scheduling.
    MaxEvals,
    /// [`ExploreBudget::deadline`] passed.
    Deadline,
    /// [`ExploreBudget::cancel`] was raised.
    Cancelled,
}

/// How far a (possibly budgeted) sweep got.
///
/// A stopped grid or pruned sweep has decided a *down-set* of its grid:
/// every point componentwise below a decided point is decided too. Every
/// run, cold or improving, decides whole rank levels (points of equal
/// fine-index sum) in ascending order and the budget cuts one level at a
/// key-order position, so it stops with the lower levels plus a key-order
/// prefix of one level. The refined sweep decides its coarse grid and
/// then each wave's new cell corners the same way, one batch at a time,
/// and stops inside one batch. Each
/// decided point is committed (searched, or replayed from a resumed
/// prior) or — in the pruned and refined sweeps — certified dominated by
/// a committed point below it, so the partial result's Pareto accessors
/// select a *certified* frontier: provably the exact front of the decided
/// points.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SweepStatus {
    /// The whole grid was covered.
    #[default]
    Complete,
    /// The budget ran out (or the sweep was cancelled) first.
    Stopped {
        /// What stopped the sweep.
        cause: StopCause,
        /// The number of points decided (the refined sweep counts its
        /// committed points; see each result's `status`). It is a count,
        /// not a grid index: the decided points are a down-set, not a
        /// lexicographic prefix. Pass the run back to the matching
        /// `try_*_resume` entry point to continue from exactly here.
        next_lex: usize,
    },
}

impl SweepStatus {
    /// Whether the sweep covered the whole grid.
    pub fn is_complete(&self) -> bool {
        matches!(self, SweepStatus::Complete)
    }

    /// The decided-point count of a stopped sweep (`None` when complete).
    pub fn next_lex(&self) -> Option<usize> {
        match *self {
            SweepStatus::Complete => None,
            SweepStatus::Stopped { next_lex, .. } => Some(next_lex),
        }
    }
}

/// A work bound for the sweep schedulers, threaded through
/// [`SweepOptions::budget`] / [`PruneOptions::budget`]. All three limits
/// are optional and combine; the default is unlimited.
///
/// The budget is checked for each point as the certified loop queues it
/// for a search, so a stop cuts a rank level at a key-order position. The
/// points already queued are searched and committed before the sweep
/// returns. On exhaustion the sweep does **not** error: it stops on a
/// decided down-set of the grid and returns its result with
/// [`SweepStatus::Stopped`] — a certified partial frontier plus the
/// decided count, which the matching `try_*_resume` entry continues.
#[derive(Clone, Debug, Default)]
pub struct ExploreBudget {
    /// Maximum points *searched* in this call (points the pruned and
    /// refined sweeps certify without a search, and points replayed from
    /// a resumed prior run, are free). Deterministic: the same inputs stop
    /// at the same point on every machine, cutting a rank level at a
    /// fixed key-order position.
    pub max_evals: Option<usize>,
    /// Hard wall-clock deadline. Checked as each point is queued for a
    /// search; queued and in-flight searches are never aborted, so the
    /// sweep can overshoot by one rank level's searches.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation: raise the flag from another thread and
    /// the sweep stops at the next check, returning the decided points.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl ExploreBudget {
    /// No limits (the default). `const`, so option presets can be built in
    /// `const` context and call sites stop hand-cloning default structs.
    pub const fn unlimited() -> Self {
        ExploreBudget {
            max_evals: None,
            deadline: None,
            cancel: None,
        }
    }

    /// A pure evaluation-count budget — the deterministic limit the
    /// resume tests replay against.
    pub fn max_evals(n: usize) -> Self {
        ExploreBudget {
            max_evals: Some(n),
            ..ExploreBudget::default()
        }
    }

    /// Whether the budget stops further evaluations after `committed`
    /// points. The deterministic cause is checked first so tests
    /// replaying a `max_evals` stop never race the clock.
    fn stop(&self, committed: usize) -> Option<StopCause> {
        if let Some(max) = self.max_evals {
            if committed >= max {
                return Some(StopCause::MaxEvals);
            }
        }
        if let Some(cancel) = &self.cancel {
            if cancel.load(Ordering::Relaxed) {
                return Some(StopCause::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Some(StopCause::Deadline);
            }
        }
        None
    }
}

impl PartialEq for ExploreBudget {
    /// Cancellation flags compare by identity ([`Arc::ptr_eq`]) — two
    /// budgets are interchangeable only when they observe the *same*
    /// flag.
    fn eq(&self, other: &Self) -> bool {
        self.max_evals == other.max_evals
            && self.deadline == other.deadline
            && match (&self.cancel, &other.cancel) {
                (None, None) => true,
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                _ => false,
            }
    }
}

/// Default capacities of a one-axis grid: powers of two from 128 B to
/// 128 KiB (what `mhla sweep` visits unless given `--capacities`).
pub fn default_capacities() -> Vec<u64> {
    (7..=17).map(|e| 1u64 << e).collect()
}

/// The standard exploration grid for a platform's depth — what `mhla
/// grid` and an axis-less `mhla serve` request explore, and the grid the
/// benchmark harnesses and equivalence suites sweep:
///
/// * three layers ([`Platform::three_level_default`]): L2 from 1 KiB to
///   16 KiB × L1 from 128 B to 512 B (powers of two) — 15 joint sizing
///   points;
/// * four layers ([`Platform::four_level_default`]): L3 (`M1`) from
///   16 KiB to 256 KiB (with a 192 KiB step) × L2 (`M2`) from 2 KiB to
///   32 KiB × L1 (`M3`) from 256 B to 1 KiB — 90 joint sizing points.
///   The upper parts of the L3/L2 axes extend past the nine applications'
///   working sets, which is exactly where the saturation rule of
///   [`try_sweep_grid_pruned_with`] collapses the grid: beyond the size at
///   which a layer stops rejecting anything, larger sizes provably repeat
///   the same search. The axes overlap, so the grid deliberately visits
///   non-pyramidal stacks (e.g. a 32 KiB L2 above a 16 KiB L3) —
///   [`Platform::four_level`] asserts a pyramid for the *preset*, but
///   grid exploration goes through `Platform::with_layer_capacities`,
///   whose documented contract is to not re-validate: joint sizing is
///   exactly where the interesting inversions live;
/// * any other depth: one axis on the closest layer over
///   [`default_capacities`].
pub fn default_axes(platform: &Platform) -> Vec<GridAxis> {
    let pow2 =
        |exps: std::ops::RangeInclusive<u32>| -> Vec<u64> { exps.map(|e| 1u64 << e).collect() };
    match platform.layer_count() {
        3 => vec![
            GridAxis::new(LayerId(1), pow2(10..=14)),
            GridAxis::new(LayerId(2), pow2(7..=9)),
        ],
        4 => {
            let mut l3 = pow2(14..=18);
            l3.push(192 * 1024);
            vec![
                GridAxis::new(LayerId(1), l3),
                GridAxis::new(LayerId(2), pow2(11..=15)),
                GridAxis::new(LayerId(3), pow2(8..=10)),
            ]
        }
        _ => vec![GridAxis::new(platform.closest(), default_capacities())],
    }
}

/// How each point of a sweep seeds its search — the engine parameter the
/// unified sweep engine dispatches on.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SearchMode {
    /// The default: every searched point runs the cold greedy search, so
    /// its result is bit-identical to a standalone [`Mhla::run`] on the
    /// same platform in every engine — the semantics the pruned engine's
    /// losslessness proof and the equivalence suites rely on.
    #[default]
    Cold,
    /// The *improving* mode: each point's search is a warm-start
    /// portfolio seeded from the committed results of its grid neighbors
    /// one step down every axis, in axis order, with the cold leg always
    /// included and preferred on ties. Each point's outcome therefore
    /// provably scores no worse than its cold counterpart under the
    /// configured objective — frontiers are allowed to dominate, never to
    /// trail, the cold ones (`pareto::front_dominates` is the machine
    /// check; `tests/improving_sweep.rs` and the randomized-program
    /// proptests enforce it). A point's seeds sit componentwise below it,
    /// so they are committed in an earlier rank level: points run in rank
    /// levels on the shared helper pool, as in cold mode, and results are
    /// deterministic and independent of the core count. Warm seeds are a
    /// greedy-search construct; non-greedy strategies ignore them and
    /// this mode equals [`Cold`](SearchMode::Cold).
    Improving,
}

/// Where a winning warm seed came from (see [`GridSweepRun::winners`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SeedOrigin {
    /// The committed grid neighbor along this axis (an index into the
    /// sweep's axis list): the point with exactly that axis moved back to
    /// its previous capacity. Always feasible — capacities only grew.
    Axis(usize),
}

/// Options of the exhaustive grid engine ([`try_sweep_grid_run`], any
/// number of axes — one for a 1-D capacity sweep).
///
/// **Determinism guarantee:** the engine searches every point, and each
/// point's result depends only on the point and — in
/// [`SearchMode::Improving`] — on the points below it. The core count
/// changes only wall time.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SweepOptions {
    /// Unused: no code reads this field, and its value changes nothing —
    /// in [`SearchMode::Cold`] every point runs the cold search. It
    /// remains only so that struct literals which still set it compile.
    pub warm_start: bool,
    /// The search mode (default [`SearchMode::Cold`]: every point
    /// bit-identical to a standalone [`Mhla::run`]).
    pub mode: SearchMode,
    /// The exploration budget (default unlimited). On exhaustion the
    /// sweep stops on a decided down-set of the grid and reports it
    /// through [`GridSweepRun::status`] — see [`ExploreBudget`].
    pub budget: ExploreBudget,
}

/// The pre-optimization reference for the one-axis grid: `layer` of
/// `platform` resized to each of `capacities` (sorted and deduped),
/// strictly sequentially, the reuse analysis re-derived at every point,
/// every candidate move re-priced with the full `evaluate` oracle, no warm
/// starts — the seed implementation, frozen. Kept for validation: the cold
/// [`try_sweep_grid_run`] on the same single [`GridAxis`] must yield
/// identical points and Pareto fronts (see the equivalence tests).
pub fn sweep_cold(
    program: &Program,
    platform: &Platform,
    layer: LayerId,
    capacities: &[u64],
    config: &MhlaConfig,
) -> GridSweep {
    let caps = clean_capacities(capacities);
    let points = caps
        .into_iter()
        .map(|capacity| {
            let pf = platform.with_layer_capacity(layer, capacity);
            let result = Mhla::new(program, &pf, config.clone()).run_reference();
            GridPoint {
                capacities: vec![capacity],
                result,
            }
        })
        .collect();
    GridSweep {
        layers: vec![layer],
        points,
    }
}

fn clean_capacities(capacities: &[u64]) -> Vec<u64> {
    let mut caps: Vec<u64> = capacities.to_vec();
    caps.sort_unstable();
    caps.dedup();
    caps
}

/// Every axis's capacities, cleaned ([`clean_capacities`]).
fn clean_axes(axes: &[GridAxis]) -> Vec<Vec<u64>> {
    axes.iter()
        .map(|a| clean_capacities(&a.capacities))
        .collect()
}

/// One axis of a layer-size grid sweep: the on-chip layer to resize and
/// the capacities to visit on it (sorted and deduped before use).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct GridAxis {
    /// The on-chip layer this axis resizes.
    pub layer: LayerId,
    /// Capacities to visit, bytes.
    pub capacities: Vec<u64>,
}

impl GridAxis {
    /// Builds an axis.
    pub fn new(layer: LayerId, capacities: impl Into<Vec<u64>>) -> Self {
        GridAxis {
            layer,
            capacities: capacities.into(),
        }
    }
}

/// One point of a grid sweep: a capacity per axis plus the full MHLA
/// result on the platform resized to those capacities.
#[derive(Clone, PartialEq, Debug)]
pub struct GridPoint {
    /// Capacity per axis, parallel to [`GridSweep::layers`], bytes.
    pub capacities: Vec<u64>,
    /// The full MHLA result at this capacity vector.
    pub result: MhlaResult,
}

impl GridPoint {
    /// Static MHLA+TE cycles at this point.
    pub fn cycles(&self) -> u64 {
        self.result.mhla_te_cycles()
    }

    /// Memory energy at this point, picojoule.
    pub fn energy_pj(&self) -> f64 {
        self.result.mhla_energy_pj()
    }

    /// Total on-chip bytes of this point's capacity vector.
    pub fn total_capacity(&self) -> u64 {
        self.capacities.iter().sum()
    }

    /// The step-1 objective score of this point ([`Objective::score`] of
    /// the assignment cost) — the quantity the search minimizes, and the
    /// one [`SearchMode::Improving`] provably never worsens against the
    /// cold search.
    pub fn objective_score(&self, objective: &Objective) -> f64 {
        objective.score(&self.result.assignment_cost)
    }
}

/// A grid sweep's points: every evaluated point of the capacity grid, in
/// lexicographic order of the capacity vector (the last axis varies
/// fastest).
#[derive(Clone, PartialEq, Debug)]
pub struct GridSweep {
    /// The resized layer per axis, in axis order.
    pub layers: Vec<LayerId>,
    /// Evaluated points, lexicographic by capacity vector.
    pub points: Vec<GridPoint>,
}

impl GridSweep {
    /// Indices of the Pareto surface over (capacity vector, cycles): a
    /// point survives iff no other point dominates it — capacities all ≤,
    /// cycles ≤, and at least one strictly smaller. (Capacity vectors in a
    /// grid are unique, so on a one-axis grid this degenerates to "keep iff
    /// the objective strictly improves on everything at smaller capacity".
    /// `pareto::front_quadratic` keeps the seed's all-pairs scan as the
    /// test oracle.)
    pub fn pareto_cycles(&self) -> Vec<usize> {
        self.front(|p| p.cycles() as f64)
    }

    /// Indices of the Pareto surface over (capacity vector, energy).
    pub fn pareto_energy(&self) -> Vec<usize> {
        self.front(GridPoint::energy_pj)
    }

    /// Indices of the Pareto surface over (capacity vector, objective
    /// score) — the surface [`SearchMode::Improving`]'s dominance
    /// guarantee is stated on: the *optimized* step-1 objective
    /// ([`GridPoint::objective_score`]), not the TE'd cycle estimate
    /// (Time Extensions are a separate heuristic that a better step-1
    /// score does not bound).
    pub fn pareto_objective(&self, objective: &Objective) -> Vec<usize> {
        self.front(|p| p.objective_score(objective))
    }

    /// The point with the fewest cycles (ties: smallest total capacity,
    /// then lexicographically smallest vector).
    pub fn best_cycles(&self) -> Option<&GridPoint> {
        self.best(|a, b| a.cycles().cmp(&b.cycles()))
    }

    /// The point with the least energy (ties as
    /// [`best_cycles`](Self::best_cycles)).
    pub fn best_energy(&self) -> Option<&GridPoint> {
        self.best(|a, b| a.energy_pj().total_cmp(&b.energy_pj()))
    }

    /// The filter behind every `pareto_*` accessor: [`pareto::front`] over
    /// each point's (capacities…, objective) coordinates.
    fn front(&self, objective: impl Fn(&GridPoint) -> f64) -> Vec<usize> {
        let coords: Vec<Vec<f64>> = self
            .points
            .iter()
            .map(|p| {
                let mut c: Vec<f64> = p.capacities.iter().map(|&c| c as f64).collect();
                c.push(objective(p));
                c
            })
            .collect();
        pareto::front(&coords)
    }

    /// The selector behind every `best_*` accessor: the first point winning
    /// the objective comparison (a comparator, so cycle counts stay exact
    /// `u64` comparisons while energies compare as `f64`), ties broken by
    /// (total capacity, capacity vector).
    fn best(
        &self,
        value: impl Fn(&GridPoint, &GridPoint) -> std::cmp::Ordering,
    ) -> Option<&GridPoint> {
        self.points.iter().min_by(|a, b| {
            value(a, b).then_with(|| {
                (a.total_capacity(), &a.capacities).cmp(&(b.total_capacity(), &b.capacities))
            })
        })
    }
}

/// Result of [`try_sweep_grid_run`]: the grid sweep plus the engine's
/// per-mode bookkeeping — the data the `grid4` bench's mode columns and
/// the improving-vs-cold comparisons are built from.
#[derive(Clone, PartialEq, Debug)]
pub struct GridSweepRun {
    /// The evaluated grid.
    pub sweep: GridSweep,
    /// Greedy search legs executed across all points (the cold leg plus
    /// one per distinct warm seed per point); `0` under non-greedy
    /// strategies, which report no leg counts.
    pub evals: usize,
    /// Points whose committed result came from a warm seed instead of the
    /// cold leg — strict improvements over the cold search by
    /// construction (the portfolio keeps cold on ties).
    pub seed_wins: usize,
    /// Per point (lexicographic order): where the winning seed came from
    /// ([`SeedOrigin`]), `None` where the cold leg won — so always `None`
    /// in [`SearchMode::Cold`], which runs no warm leg.
    pub winners: Vec<Option<SeedOrigin>>,
    /// Points of the full Cartesian product (what a complete run
    /// evaluates).
    pub candidates: usize,
    /// How far the sweep got. Always [`SweepStatus::Complete`] under an
    /// unlimited [`SweepOptions::budget`]; when `Stopped`, the `next_lex`
    /// points are the decided down-set of the grid — whole rank levels
    /// plus a key-order prefix of one level, in either [`SearchMode`] —
    /// so the sweep's Pareto accessors select the *certified* partial
    /// frontier of exactly that set, and [`try_sweep_grid_resume`]
    /// continues deterministically.
    pub status: SweepStatus,
}

/// Sweeps an N-dimensional layer-size grid exhaustively: for every point
/// of the Cartesian product of the axes' capacities (each axis sorted and
/// deduped), resizes the named layers of `platform` and runs the full
/// MHLA flow — the *joint* trade-off exploration of a multi-layer
/// hierarchy (e.g. L1×L2 on [`Platform::three_level`]).
///
/// Validates the program ([`Program::validate`]), the platform, the
/// configuration and the axes up front, then runs the budget-aware
/// certified loop of [`try_sweep_grid_pruned_with`] with its saturation
/// certificates off, so that every point is searched. Production path:
/// one shared [`ExplorationContext`] (reuse analysis, program facts, TE
/// caches, move space computed once); every run, cold or improving,
/// searches one rank level at a time on the calling thread and helper
/// threads (see the pruned sweep's *One certified loop*). In
/// [`SearchMode::Cold`] each point's result is
/// bit-identical to a cold standalone [`Mhla::run`] on the same platform
/// (asserted by the equivalence tests). One axis is the 1-D capacity
/// sweep, `mhla sweep`.
///
/// # Errors
///
/// [`MhlaError::InvalidProgram`] / [`InvalidOptions`](MhlaError::InvalidOptions) /
/// [`InvalidObjective`](MhlaError::InvalidObjective) on bad ingress,
/// [`MhlaError::InfeasiblePoint`] on an impossible axis (the off-chip
/// layer, a layer out of range, a zero capacity), and
/// [`MhlaError::InvalidOptions`] when two axes name the same layer or the
/// grid has more than 2²⁰ (1,048,576) points. Budget exhaustion is *not* an
/// error — the run comes back `Ok` with [`SweepStatus::Stopped`] and a
/// certified partial frontier (see [`GridSweepRun::status`]), which
/// [`try_sweep_grid_resume`] continues.
pub fn try_sweep_grid_run(
    program: &Program,
    platform: &Platform,
    axes: &[GridAxis],
    config: &MhlaConfig,
    opts: &SweepOptions,
) -> Result<GridSweepRun, MhlaError> {
    error::validate_run_ingress(program, platform, config)?;
    error::validate_axes(platform, axes)?;
    // Everything capacity-independent — reuse analysis, program facts, TE
    // caches, candidate moves — is computed once here and borrowed by
    // every point.
    let ctx = ExplorationContext::new(program, platform, config.clone());
    exhaustive_grid(&ctx, platform, axes, opts, None)
}

/// [`try_sweep_grid_run`] over a caller-provided [`ExplorationContext`] —
/// the entry point for callers that serve many requests against the same
/// program (the `mhla serve` batch server): the context's reuse analysis,
/// program facts, TE caches and move space are paid for once and reused
/// across calls, while each call still validates its own ingress and runs
/// under its own [`SweepOptions::budget`].
///
/// The context must have been built against the same `platform`
/// layer-stack *shape* the axes address (capacities are free to differ —
/// the sweep resizes them per point; context construction only reads the
/// stack shape). Results are bit-identical to [`try_sweep_grid_run`] with
/// the context's program and config — `tests/serve_equivalence.rs` pins
/// this.
///
/// # Errors
///
/// As [`try_sweep_grid_run`].
pub fn try_sweep_grid_run_in(
    ctx: &ExplorationContext<'_>,
    platform: &Platform,
    axes: &[GridAxis],
    opts: &SweepOptions,
) -> Result<GridSweepRun, MhlaError> {
    error::validate_run_ingress(ctx.program(), platform, ctx.config())?;
    error::validate_axes(platform, axes)?;
    exhaustive_grid(ctx, platform, axes, opts, None)
}

/// The shared tail of the exhaustive entry points, ingress validated and
/// context in hand: the certified loop at depth 0 with its saturation
/// certificates off, mapped onto the exhaustive bookkeeping. With the
/// certificates off every point is committed and no run stats are read,
/// so a `prior` replays its points (and winners) alone.
fn exhaustive_grid(
    ctx: &ExplorationContext<'_>,
    platform: &Platform,
    axes: &[GridAxis],
    opts: &SweepOptions,
    prior: Option<Replay<'_>>,
) -> Result<GridSweepRun, MhlaError> {
    let depth_0 = RefineOptions {
        depth: 0,
        mode: opts.mode,
        budget: opts.budget.clone(),
    };
    let (run, winners) = certified_grid(ctx, platform, axes, &depth_0, false, prior)?;
    Ok(GridSweepRun {
        evals: run.search_legs,
        seed_wins: run.seed_wins,
        winners,
        candidates: usize::try_from(run.stats.virtual_points).unwrap_or(usize::MAX),
        status: run.status,
        sweep: run.sweep,
    })
}

/// Resumes a stopped [`try_sweep_grid_run`] and returns the *merged* run
/// (prior points plus the continuation), again budget-aware:
/// `opts.budget` bounds the continuation, so repeated resumes cover the
/// grid in installments.
///
/// Must be called with the same program/platform/axes/config/options the
/// prior run used (checked where cheaply possible). Resuming a
/// [`SweepStatus::Complete`] run returns it unchanged.
///
/// The continuation re-runs the schedule with the prior's points replayed
/// in place (in [`SearchMode::Improving`] they seed their successors
/// exactly as they did), so the merged run — points,
/// [`evals`](GridSweepRun::evals), [`seed_wins`](GridSweepRun::seed_wins)
/// and [`winners`](GridSweepRun::winners) — is bit-identical to the
/// uninterrupted run in both modes.
///
/// # Errors
///
/// As [`try_sweep_grid_run`], plus [`MhlaError::InvalidOptions`] when
/// `prior` does not fit the given axes: other layers, counts that
/// disagree with its points or the grid, or a point that is off the grid,
/// listed twice, or not among the points the schedule decides before its
/// first fresh search.
pub fn try_sweep_grid_resume(
    program: &Program,
    platform: &Platform,
    axes: &[GridAxis],
    config: &MhlaConfig,
    opts: &SweepOptions,
    prior: &GridSweepRun,
) -> Result<GridSweepRun, MhlaError> {
    error::validate_run_ingress(program, platform, config)?;
    error::validate_axes(platform, axes)?;
    let next_lex = match prior.status {
        SweepStatus::Complete => return Ok(prior.clone()),
        SweepStatus::Stopped { next_lex, .. } => next_lex,
    };
    check_prior_layers(axes, &prior.sweep.layers)?;
    let points = prior.sweep.points.len();
    if next_lex != points
        || prior.winners.len() != points
        || lattice_points(&clean_axes(axes), 0) != Some(prior.candidates as u64)
    {
        return Err(bad_prior("the prior run's counts do not match this grid"));
    }
    let replay = Replay {
        points: &prior.sweep.points,
        run_stats: &[],
        winners: &prior.winners,
        search_legs: prior.evals,
        seed_wins: prior.seed_wins,
    };
    let ctx = ExplorationContext::new(program, platform, config.clone());
    exhaustive_grid(&ctx, platform, axes, opts, Some(replay))
}

/// [`MhlaError::InvalidOptions`] for a resume whose prior run does not fit
/// the grid it is resumed on.
fn bad_prior(why: &str) -> MhlaError {
    MhlaError::InvalidOptions {
        what: format!("resume: {why}"),
    }
}

/// The layer check every resume entry makes: the prior run swept the
/// same layers, in the same axis order.
fn check_prior_layers(axes: &[GridAxis], prior_layers: &[LayerId]) -> Result<(), MhlaError> {
    if prior_layers.iter().ne(axes.iter().map(|a| &a.layer)) {
        return Err(bad_prior("the prior run swept different layers"));
    }
    Ok(())
}

/// The shared sweep engine: one implementation of per-point platform
/// construction and search evaluation, the certified loop and result
/// assembly — used by every grid engine ([`try_sweep_grid_run`],
/// [`try_sweep_grid_pruned_with`] and [`try_sweep_grid_refined_with`]).
/// The engines differ in the loop's depth and certificates; everything a
/// point *is* lives here.
struct SweepEngine<'e> {
    ctx: &'e ExplorationContext<'e>,
    platform: &'e Platform,
    layers: &'e [LayerId],
    /// The loop's (fine) axes, cleaned.
    axis_caps: &'e [Vec<u64>],
}

/// Per-thread evaluation scratch of the sweep engines: one working
/// [`Platform`] resized *in place* per grid point (instead of a fresh
/// platform build per point) and one [`EvalWorkspace`] reused across
/// every point the thread evaluates. Two kinds of thread evaluate points,
/// and each reuses its scratch for as long as it lives:
///
/// * an exploration's calling thread — among them `mhla serve`'s worker
///   threads, which persist across requests;
/// * the exploration's helper threads ([`Helpers`]), which live for one
///   exploration.
///
/// The working platform's layer *names* go stale (in-place resizing
/// skips the allocating rename) — by design: nothing in the evaluation
/// path reads them, and sweep results carry capacities, not platforms.
/// The numeric fields are re-derived from the same scaling laws as
/// [`Platform::with_layer_capacities`], so results are bit-identical
/// (pinned by the hierarchy crate's resize tests and the sweep
/// equivalence suites).
struct EngineScratch {
    /// `(base, work, axes)` of the engine last evaluated on this thread:
    /// the pristine platform the working copy was cloned from, the
    /// working copy itself, and the axis layers the engine resizes.
    /// Rebuilt (rarely) when a different engine shows up on the thread;
    /// the workspace below survives such switches.
    platform: Option<(Platform, Platform, Vec<LayerId>)>,
    /// The thread's evaluation workspace.
    ws: EvalWorkspace,
}

impl EngineScratch {
    /// The working platform resized, in place, to `caps` on the engine's
    /// axis layers, plus the workspace — the per-point borrow of the
    /// sweep hot path. Every point sets *all* axis capacities, so values
    /// left by the previous point are fully overwritten.
    fn point<'s>(
        &'s mut self,
        engine: &SweepEngine<'_>,
        caps: &[u64],
    ) -> (&'s Platform, &'s mut EvalWorkspace) {
        let stale = match &self.platform {
            Some((base, _, axes)) => base != engine.platform || axes != engine.layers,
            None => true,
        };
        if stale {
            self.platform = Some((
                engine.platform.clone(),
                engine.platform.clone(),
                engine.layers.to_vec(),
            ));
        }
        // Internal invariant, not user-reachable: the branch above fills
        // the slot before this read.
        #[allow(clippy::expect_used)]
        let (_, work, axes) = self.platform.as_mut().expect("platform prepared above");
        for (&layer, &cap) in axes.iter().zip(caps) {
            work.set_layer_capacity(layer, cap);
        }
        (work, &mut self.ws)
    }
}

thread_local! {
    /// One [`EngineScratch`] per evaluation thread: an exploration's
    /// caller (a serve worker for the server's lifetime) and its helpers
    /// (one exploration each) — see [`EngineScratch`].
    static ENGINE_SCRATCH: RefCell<EngineScratch> = RefCell::new(EngineScratch {
        platform: None,
        ws: EvalWorkspace::new(),
    });
}

impl SweepEngine<'_> {
    /// One point's search: the portfolio of the cold leg and one warm leg
    /// per distinct seed ([`Mhla::run_with_seeds_in`]) — the cold search
    /// alone when `seeds` is empty, as it always is in
    /// [`SearchMode::Cold`]. Returns the result, the run stats and the
    /// origin of the winning seed, if it has one. Runs on the thread's
    /// [`EngineScratch`]: in-place platform resize, reused workspace.
    fn evaluate(&self, caps: &[u64], seeds: &[Seed]) -> Searched {
        ENGINE_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            let (pf, ws) = scratch.point(self, caps);
            let refs: Vec<&Assignment> = seeds.iter().map(|(_, a)| a).collect();
            let (result, stats) = Mhla::with_context(self.ctx, pf).run_with_seeds_in(&refs, ws);
            let winner = stats.winning_seed.and_then(|k| seeds[k].0);
            (result, stats, winner)
        })
    }
}

/// Bookkeeping of one [`try_sweep_grid_pruned_with`] run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct PruneStats {
    /// Points of the full Cartesian product.
    pub candidates: usize,
    /// Points actually evaluated (searched).
    pub evaluated: usize,
    /// Points skipped by the saturation rule.
    pub skipped_saturated: usize,
}

impl PruneStats {
    /// Points skipped without evaluation.
    pub fn skipped(&self) -> usize {
        self.skipped_saturated
    }

    /// Fraction of the Cartesian product skipped (0 on an empty grid).
    pub fn skip_ratio(&self) -> f64 {
        self.skipped() as f64 / self.candidates.max(1) as f64
    }
}

/// Result of [`try_sweep_grid_pruned_with`]: the evaluated subset of the grid (in
/// lexicographic order, like [`GridSweep`]) plus the prune bookkeeping.
#[derive(Clone, PartialEq, Debug)]
pub struct PrunedGridSweep {
    /// The evaluated points. Skipped points are absent, but the Pareto
    /// surfaces ([`GridSweep::pareto_cycles`] / `pareto_energy`) are
    /// point-for-point those of the exhaustive grid.
    pub sweep: GridSweep,
    /// How many points were evaluated vs skipped.
    pub stats: PruneStats,
    /// Refinement waves executed. The pruned sweep is the depth-0
    /// refinement, so this is `1` once a nonempty grid completes (its one
    /// wave closes the grid's cells) and `0` on an empty grid or a run
    /// the budget stopped.
    pub waves: usize,
    /// Always `0`: every point is decided against the committed state
    /// before it is searched, so no search result is ever discarded.
    pub speculative_evals: usize,
    /// Greedy search legs executed across all evaluated points; `0` under
    /// non-greedy strategies, which report no leg counts. In
    /// [`SearchMode::Cold`] every evaluation is exactly one cold leg, so
    /// this equals `stats.evaluated`; in [`SearchMode::Improving`] each
    /// point adds one leg per distinct committed neighbor seed.
    pub search_legs: usize,
    /// Points whose committed result came from a warm seed instead of the
    /// cold leg — always `0` in [`SearchMode::Cold`].
    pub seed_wins: usize,
    /// How far the sweep got. When `Stopped`, the run decided a down-set
    /// of the grid (see [`SweepStatus`]) — each point evaluated, or
    /// skipped against a committed evaluation below it — so `next_lex` is
    /// `stats.evaluated + stats.skipped()` and the losslessness argument
    /// applies to the decided set verbatim: the result's Pareto accessors
    /// select the certified frontier of that set, and
    /// [`try_sweep_grid_pruned_resume`] continues deterministically.
    pub status: SweepStatus,
    /// Resume state of a stopped run (empty when
    /// [`status`](Self::status) is [`SweepStatus::Complete`], so
    /// resumed-to-complete runs compare equal to uninterrupted ones).
    checkpoint: RefineCheckpoint,
}

impl PrunedGridSweep {
    /// The pruned view of a depth-0 refinement: its lattice is the grid,
    /// its certified corners are the skipped points, and — every decided
    /// point being committed or certified — a stop's cursor is the
    /// decided count.
    fn from_depth_0(run: RefinedGridSweep) -> Self {
        let s = run.stats;
        let status = match run.status {
            SweepStatus::Complete => SweepStatus::Complete,
            SweepStatus::Stopped { cause, .. } => SweepStatus::Stopped {
                cause,
                next_lex: s.evaluated + s.corners_certified,
            },
        };
        PrunedGridSweep {
            sweep: run.sweep,
            stats: PruneStats {
                candidates: usize::try_from(s.virtual_points).unwrap_or(usize::MAX),
                evaluated: s.evaluated,
                skipped_saturated: s.corners_certified,
            },
            waves: run.waves,
            speculative_evals: 0,
            search_legs: run.search_legs,
            seed_wins: run.seed_wins,
            status,
            checkpoint: run.checkpoint,
        }
    }
}

/// Tuning knobs for [`try_sweep_grid_pruned_with`].
#[derive(Clone, PartialEq, Debug, Default)]
pub struct PruneOptions {
    /// The search mode (default [`SearchMode::Cold`] — every evaluated
    /// point runs cold and standalone-identical, the canonical
    /// losslessness semantics). In [`SearchMode::Improving`] each
    /// evaluated point runs the neighbor-seeded portfolio instead and the
    /// prune rule switches to its mode-aware form — see
    /// [`try_sweep_grid_pruned_with`]'s *Improving mode* section.
    pub mode: SearchMode,
    /// The exploration budget (default unlimited): `max_evals` bounds
    /// searches — prune skips are free — and the stop lands on a decided
    /// down-set of the grid, so the partial frontier stays certified (see
    /// [`PrunedGridSweep::status`]).
    pub budget: ExploreBudget,
}

impl PruneOptions {
    /// This option set with its budget replaced.
    pub fn budget(mut self, budget: ExploreBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// The sub-exhaustive grid sweep: like [`try_sweep_grid_run`], but
/// capacity vectors that provably cannot contribute a Pareto point are
/// skipped *without running the search*. Lossless: every skipped point
/// is dominated on both the cycles and the energy surface by an evaluated
/// point, so [`GridSweep::pareto_cycles`] / `pareto_energy` of the result
/// select exactly the frontier of the exhaustive grid
/// (`tests/prune_equivalence.rs` asserts this bit-for-bit on all nine
/// applications, under all three objectives).
///
/// Every evaluated point runs *cold* (no warm start), so each result is
/// bit-identical to a standalone [`Mhla::run`] on the same platform — the
/// canonical semantics the losslessness proof and the equivalence harness
/// build on. One conservative prune rule applies — **per-layer
/// saturation with gain bounds**. Capacities enter the greedy search
/// three ways: *feasibility* (monotone — anything that fits keeps fitting
/// as layers grow), *per-access cycles* (constant inside one scratchpad
/// latency class), and *per-access energies* (the clamped √-capacity
/// scaling law). Each evaluated run records how its layers actually
/// *bound* it ([`RunStats`]): per layer, the smallest byte requirement of
/// any capacity rejection there — a failed greedy probe that first
/// overflowed there, a TE extension refused there, an array direct
/// placement turned away there — as the layer's *rejection floor*
/// ([`RunStats::allows_growth_to`]), and the run's minimum *decision
/// margin* per energy-sensitive operation
/// ([`RunStats::gain_margin_rates`](crate::RunStats::gain_margin_rates)),
/// an instrumented gain bound derived from the cost model's cached access
/// and transfer-volume totals. If point `p` differs from an evaluated
/// point `q ≤ p` only on layers that never bound `q`'s run or that stay
/// below their rejection floor, each staying inside its latency class,
/// and the summed per-layer energy deltas (times the objective's energy
/// weight) stay strictly below `q`'s margin, the run at `p` replays `q`'s
/// decision for decision — failed probes still fail, successful ones
/// still succeed, no gain comparison can flip — yielding the same
/// assignment and TE schedule, hence *equal cycles* and, because
/// per-access energies are monotone in capacity, *no lower energy*. `p`
/// is dominated by `q` on both surfaces and is skipped. Under the cycles
/// objective the energy weight is zero and the margin test is vacuous
/// (the classic rule); under the energy/weighted objectives it arms
/// wherever the margins allow — always for growth inside the
/// sub-reference energy-clamp region (zero delta), and beyond it whenever
/// no decision of `q`'s run sat close to a tie.
///
/// The rule only ever skips points dominated by an *evaluated* point, so
/// dominance transitivity keeps every surface intact (anything a skipped
/// point would dominate is already dominated by its dominator). When its
/// preconditions do not hold (a non-greedy strategy, or margins too tight
/// for the requested growth), the rule disarms itself and the sweep
/// degrades towards exhaustive — never towards a wrong frontier.
///
/// # One certified loop
///
/// The sweep is [`try_sweep_grid_refined_with`]'s scheduler at depth 0:
/// the refined lattice is the grid itself, a point's key is its
/// lexicographic index, and the coarse phase is the whole run. The loop
/// decides each point against everything committed before it — skipped
/// when a committed run's saturation certificate covers it, searched and
/// committed otherwise. A certificate reads only committed points
/// componentwise *below* the point, so any visit order that puts a point
/// after its whole down-set decides it identically. No decision is
/// revisited and no search is thrown away: in cold mode
/// [`PrunedGridSweep::search_legs`] equals the evaluated count.
///
/// The loop runs in *steps* of three phases: replay or certify the
/// step's points against the committed state, search the others, commit
/// the results in key order. Points of equal fine-index sum — one *rank
/// level* — are mutually incomparable, so none certifies another, and
/// none seeds another in [`SearchMode::Improving`], whose seeds sit one
/// step down an axis. Every run takes one rank level per step, levels
/// ascending, and searches the level's points at the same time on the
/// calling thread and up to `available_parallelism() - 1` helper threads;
/// each improving search carries its seeds with it. The helpers live for
/// one call; they start once the caller has spent 1 ms alone on searches
/// a helper could have taken, so small grids never pay for them.
///
/// The budget is checked for each point as a step queues it for a
/// search, and the points already queued are searched and committed
/// before the stop returns. A stopped run has therefore decided the
/// lower rank levels plus a key-order prefix of one level — `max_evals`
/// cuts that level at a fixed position, and a deadline or a cancel flag
/// usually stops before the next level's searches start. That set is
/// down-closed: it holds everything componentwise below each of its
/// points, so its certificates are exactly those of the uninterrupted
/// run, and a resume that replays it re-derives the same state. Points,
/// statistics and frontiers are the same for every core count.
///
/// Measured back to back on one 2-core machine (release build, parent
/// commit first; the one-point-per-step loop before, rank levels after):
///
/// | run | before | after | speedup |
/// |-----|-------:|------:|--------:|
/// | `grid4` bin, cycles suite, best of 3 (`BENCH_grid4.json`) | 72.9 ms | 63.7 ms | 1.14× |
/// | `grid4` bin, energy suite, best of 2 | 361.8 ms | 234.2 ms | 1.54× |
/// | `perfbench --workload grid_pruned`, median `points_per_s` of 10 alternating 10 s pairs | 3 713/s | 5 426/s | 1.46× |
/// | the same pairs, median `latency_p90_ms` | 62.3 ms | 40.7 ms | 1.53× |
///
/// # Improving mode
///
/// Under [`SearchMode::Improving`] ([`PruneOptions::mode`]) every
/// evaluated point runs the neighbor-seeded portfolio instead of the cold
/// search, and the guarantee changes shape: results are no longer
/// standalone-identical, but every committed point scores no worse than
/// its cold counterpart under the configured objective, and the
/// *objective* Pareto frontier ([`GridSweep::pareto_objective`])
/// dominates-or-equals the cold exhaustive one. The saturation rule stays
/// sound because it only ever replays *cold-kept* runs (a seed win sets
/// [`RunStats::winning_seed`], so such points certify nothing) — a
/// skipped point's cold counterpart is then dominated on the objective
/// surface by its dominator exactly as in cold mode.
///
/// # Errors
///
/// As [`try_sweep_grid_run`]. Budget exhaustion is *not* an error — the
/// run comes back `Ok` with [`SweepStatus::Stopped`] and a certified
/// partial frontier (see [`PrunedGridSweep::status`]).
pub fn try_sweep_grid_pruned_with(
    program: &Program,
    platform: &Platform,
    axes: &[GridAxis],
    config: &MhlaConfig,
    opts: &PruneOptions,
) -> Result<PrunedGridSweep, MhlaError> {
    error::validate_run_ingress(program, platform, config)?;
    error::validate_axes(platform, axes)?;
    prune_grid(program, platform, axes, config, opts, None)
}

/// Resumes a stopped [`try_sweep_grid_pruned_with`] and returns the
/// *merged* run, again budget-aware. Must be called with the same
/// program/platform/axes/config/options the prior run used (checked where
/// cheaply possible); resuming a complete run returns it unchanged.
///
/// The deterministic scheduler re-runs from the start with the prior
/// run's committed points replayed for free (the budget counts fresh
/// searches only), so the merged run — points, [`PruneStats`], search
/// legs, seed wins, status and frontiers — is bit-identical to the
/// uninterrupted run's.
///
/// # Errors
///
/// As [`try_sweep_grid_pruned_with`], plus [`MhlaError::InvalidOptions`]
/// when `prior` does not fit the given axes (as
/// [`try_sweep_grid_resume`], with [`PruneStats`] as its counts).
pub fn try_sweep_grid_pruned_resume(
    program: &Program,
    platform: &Platform,
    axes: &[GridAxis],
    config: &MhlaConfig,
    opts: &PruneOptions,
    prior: &PrunedGridSweep,
) -> Result<PrunedGridSweep, MhlaError> {
    error::validate_run_ingress(program, platform, config)?;
    error::validate_axes(platform, axes)?;
    let next_lex = match prior.status {
        SweepStatus::Complete => return Ok(prior.clone()),
        SweepStatus::Stopped { next_lex, .. } => next_lex,
    };
    check_prior_layers(axes, &prior.sweep.layers)?;
    let stats = prior.stats;
    if lattice_points(&clean_axes(axes), 0) != Some(stats.candidates as u64)
        || stats.evaluated != prior.sweep.points.len()
        || stats.evaluated + stats.skipped() != next_lex
        || prior.checkpoint.run_stats.len() != prior.sweep.points.len()
    {
        return Err(bad_prior("the prior run's counts do not match this grid"));
    }
    let replay = Replay {
        points: &prior.sweep.points,
        run_stats: &prior.checkpoint.run_stats,
        winners: &[],
        search_legs: prior.search_legs,
        seed_wins: prior.seed_wins,
    };
    prune_grid(program, platform, axes, config, opts, Some(replay))
}

/// The shared body of [`try_sweep_grid_pruned_with`] and
/// [`try_sweep_grid_pruned_resume`] (ingress validated): the refinement
/// scheduler at depth 0, mapped onto the pruned bookkeeping.
fn prune_grid(
    program: &Program,
    platform: &Platform,
    axes: &[GridAxis],
    config: &MhlaConfig,
    opts: &PruneOptions,
    prior: Option<Replay<'_>>,
) -> Result<PrunedGridSweep, MhlaError> {
    let depth_0 = RefineOptions {
        depth: 0,
        mode: opts.mode,
        budget: opts.budget.clone(),
    };
    refine_grid(program, platform, axes, config, &depth_0, prior).map(PrunedGridSweep::from_depth_0)
}

/// Default per-axis subdivision depth of [`try_sweep_grid_refined_with`]: each
/// coarse axis interval gains up to `2^REFINE_DEPTH - 1` interior points,
/// so the default three-axis grid4 lattice virtualizes 10⁵+ points.
pub const REFINE_DEPTH: usize = 4;

/// Tuning knobs for [`try_sweep_grid_refined_with`].
#[derive(Clone, PartialEq, Debug)]
pub struct RefineOptions {
    /// Per-axis subdivision depth (1..=16, validated; default
    /// [`REFINE_DEPTH`]). Depth `d` refines each adjacent coarse pair
    /// `(lo, hi)` with up to `2^d - 1` interior midpoints (integer
    /// midpoints; exhausted ranges stop early), defining the *virtual
    /// fine lattice* the result's frontier is certified against.
    pub depth: usize,
    /// The search mode (default [`SearchMode::Cold`], the canonical
    /// exhaustive-equivalence semantics). Under [`SearchMode::Improving`]
    /// each evaluated corner runs the seeded portfolio — phase-0 points
    /// seed from their committed neighbours one *coarse* step down each
    /// axis, exactly like the improving pruned sweep (so the two agree at
    /// every coarse point), refined corners from their parent cell's
    /// committed corner assignments — and the guarantee weakens to
    /// objective-surface dominance, exactly as in the pruned sweep's
    /// improving mode.
    pub mode: SearchMode,
    /// The exploration budget (default unlimited): `max_evals` bounds
    /// *fresh* searches in this call — points replayed from a resumed
    /// prior run and points certified without a search are free — and
    /// the stop lands between searches, inside one batch of the loop (see
    /// [`SweepStatus`]), resumable via [`try_sweep_grid_refined_resume`].
    pub budget: ExploreBudget,
}

impl Default for RefineOptions {
    fn default() -> Self {
        RefineOptions {
            depth: REFINE_DEPTH,
            mode: SearchMode::Cold,
            budget: ExploreBudget::default(),
        }
    }
}

impl RefineOptions {
    /// This option set with its subdivision depth replaced.
    pub fn depth(mut self, depth: usize) -> Self {
        self.depth = depth;
        self
    }

    /// This option set with its budget replaced.
    pub fn budget(mut self, budget: ExploreBudget) -> Self {
        self.budget = budget;
        self
    }
}

/// Bookkeeping of one [`try_sweep_grid_refined_with`] run.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct RefineStats {
    /// Points of the coarse (phase-0) lattice — each evaluated or
    /// certified.
    pub coarse_points: usize,
    /// Points of the virtual fine lattice the frontier is certified
    /// against (the Cartesian product of the refined axes — never
    /// materialized).
    pub virtual_points: u64,
    /// Points committed (evaluated or replayed from a resumed prior run).
    pub evaluated: usize,
    /// Cells subdivided into children.
    pub cells_opened: usize,
    /// Cells closed by the saturation certificate: a committed run's
    /// rejection floors prove every interior point replays it.
    pub cells_closed_mask: usize,
    /// Cells at maximal depth (or with no splittable axis): their box
    /// contains only corners, all evaluated or certified.
    pub cells_leaf: usize,
    /// Points certified dominated when their turn came — a run committed
    /// before them covers them with its saturation certificate (rejection
    /// floors, within the energy gain margins) — and therefore never
    /// searched: the per-point complement of the cell-level certificate.
    /// At depth 0 these are the pruned sweep's skipped points.
    pub corners_certified: usize,
}

impl RefineStats {
    /// Committed points as a fraction of the virtual fine lattice (0 on
    /// an empty grid).
    pub fn eval_ratio(&self) -> f64 {
        self.evaluated as f64 / self.virtual_points.max(1) as f64
    }
}

/// Result of [`try_sweep_grid_refined_with`]: the committed points (sorted
/// lexicographically, like [`GridSweep`]) plus the refinement
/// bookkeeping. The Pareto accessors select, point for point, the
/// frontier of the exhaustive *virtual fine lattice*
/// (`tests/refine_equivalence.rs` asserts this bit-for-bit).
#[derive(Clone, PartialEq, Debug)]
pub struct RefinedGridSweep {
    /// The committed points, lexicographic on capacities.
    pub sweep: GridSweep,
    /// How many cells were opened vs closed, and the eval/virtual ratio.
    pub stats: RefineStats,
    /// Refinement waves executed (one classification pass plus one
    /// corner batch per wave).
    pub waves: usize,
    /// Greedy search legs executed across fresh evaluations.
    pub search_legs: usize,
    /// Points whose committed result came from a warm seed — always `0`
    /// in [`SearchMode::Cold`].
    pub seed_wins: usize,
    /// How far the refinement got. When `Stopped`, `next_lex` is the
    /// *committed point count* (not a grid index — the fine lattice is
    /// never materialized); every committed point is final and
    /// [`try_sweep_grid_refined_resume`] continues deterministically.
    pub status: SweepStatus,
    /// Resume state of a stopped run: the per-point [`RunStats`],
    /// aligned with `sweep.points`. Empty when complete, so
    /// resumed-to-complete runs compare equal to uninterrupted ones.
    checkpoint: RefineCheckpoint,
}

/// What a stopped refinement carries to resume exactly: each committed
/// point's [`RunStats`] (the saturation certificates need the rejection
/// floors and gain margins; everything else is rebuilt by re-running
/// the deterministic scheduler with the committed points replayed).
#[derive(Clone, PartialEq, Debug, Default)]
struct RefineCheckpoint {
    run_stats: Vec<RunStats>,
}

/// The committed state of a stopped run that its resume replays: the
/// points, plus the search counters already paid for.
struct Replay<'p> {
    points: &'p [GridPoint],
    /// Aligned with `points`; empty for an exhaustive prior, whose loop
    /// reads no run stats (its points replay as [`RunStats::unknown`],
    /// which certifies nothing).
    run_stats: &'p [RunStats],
    /// Aligned with `points`; empty for a pruned or refined prior, whose
    /// winners are not kept.
    winners: &'p [Option<SeedOrigin>],
    search_legs: usize,
    seed_wins: usize,
}

/// One point's search outcome as the certified loop commits it: the
/// result, its run stats and the grid seed whose leg won (`None` when the
/// cold leg won, and for refined corners, whose seeds are not grid
/// neighbours).
type Searched = (MhlaResult, RunStats, Option<SeedOrigin>);

/// One warm seed of an improving-mode search: a committed assignment and,
/// for a grid neighbour, its axis (`None` for a refined corner).
type Seed = (Option<SeedOrigin>, Assignment);

/// One search of the certified loop as the helper pool runs it: the
/// point's lattice key and the seeds it owns — none in cold mode.
type Job = (u64, Vec<Seed>);

/// The refined (virtual fine) axis for one coarse axis: every coarse
/// point plus up to `2^depth - 1` integer midpoints per adjacent pair,
/// sorted ascending and deduplicated by construction. `coarse` must be
/// sorted and deduplicated (as the sweep entry points' capacity
/// cleaning leaves it).
pub fn refine_axis(coarse: &[u64], depth: usize) -> Vec<u64> {
    let mut out = Vec::new();
    for (k, &hi) in coarse.iter().enumerate() {
        if k > 0 {
            refine_pair(coarse[k - 1], hi, depth, &mut out);
        }
        out.push(hi);
    }
    out
}

/// In-order midpoint recursion of [`refine_axis`]: emits the interior
/// points of `(lo, hi)` in ascending order, stopping where integer
/// midpoints are exhausted (`hi - lo < 2`).
fn refine_pair(lo: u64, hi: u64, depth: usize, out: &mut Vec<u64>) {
    if depth == 0 {
        return;
    }
    let mid = lo + (hi - lo) / 2;
    if mid == lo || mid == hi {
        return;
    }
    refine_pair(lo, mid, depth - 1, out);
    out.push(mid);
    refine_pair(mid, hi, depth - 1, out);
}

/// The length of [`refine_axis`]`(coarse, depth)`, counted without
/// building it: the midpoint recursion puts `min(gap, 2^depth) - 1`
/// points inside each coarse gap. `depth` must be at most 63.
fn refine_axis_len(coarse: &[u64], depth: usize) -> u64 {
    let span = 1u64 << depth;
    coarse.windows(2).fold(coarse.len() as u64, |len, w| {
        len + (w[1] - w[0]).min(span) - 1
    })
}

/// Points of the depth-`depth` refinement lattice over the cleaned
/// `coarse` axes (the grid itself at depth 0), counted without building
/// it; `None` when they overflow a `u64`.
fn lattice_points(coarse: &[Vec<u64>], depth: usize) -> Option<u64> {
    coarse.iter().try_fold(1u64, |total, axis| {
        total.checked_mul(refine_axis_len(axis, depth))
    })
}

/// The most points a grid's cleaned axes may span. The certified loop
/// lists every coarse point, with per-point bookkeeping, before its first
/// search and before it reads any budget, so a larger grid is refused up
/// front instead of allocated: at this bound that bookkeeping stays near
/// 85 MB, and searching every point takes minutes.
const MAX_GRID_POINTS: u64 = 1 << 20;

/// The refined axes of a refinement over the cleaned `coarse` axes, or
/// [`MhlaError::InvalidOptions`] when the coarse grid has more than
/// [`MAX_GRID_POINTS`] points or the refinement lattice more than a `u64`
/// holds (the scheduler packs lattice points into `u64` keys) — checked
/// before anything is built.
fn fine_axes(coarse: &[Vec<u64>], depth: usize) -> Result<Vec<Vec<u64>>, MhlaError> {
    if lattice_points(coarse, 0).is_none_or(|points| points > MAX_GRID_POINTS) {
        return Err(MhlaError::InvalidOptions {
            what: format!("the grid has more than {MAX_GRID_POINTS} points"),
        });
    }
    if lattice_points(coarse, depth).is_none() {
        return Err(MhlaError::InvalidOptions {
            what: format!("the depth-{depth} refinement lattice has more than u64::MAX points"),
        });
    }
    Ok(coarse.iter().map(|a| refine_axis(a, depth)).collect())
}

/// The virtual fine lattice of one refinement, in index form. A lattice
/// point is its per-axis index into the fine axes; its *key* packs those
/// indices mixed-radix into one `u64`, axis 0 most significant, so (the
/// fine axes being strictly increasing) ascending keys are the
/// lexicographic capacity order. [`fine_axes`] rejects lattices whose
/// point count overflows a `u64`, so every key fits.
struct Lattice<'a> {
    /// The refined axes ([`refine_axis`]).
    fine: &'a [Vec<u64>],
    /// The axis layers, aligned with `fine`.
    layers: &'a [LayerId],
    /// Place value of each axis in a key.
    strides: Vec<u64>,
    /// Per axis: the fine indices of the coarse points — the bounds of
    /// the depth-0 windows.
    coarse: Vec<Vec<usize>>,
}

impl<'a> Lattice<'a> {
    fn new(fine: &'a [Vec<u64>], layers: &'a [LayerId], coarse_axes: &[Vec<u64>]) -> Self {
        let mut strides = vec![1u64; fine.len()];
        for a in (1..fine.len()).rev() {
            strides[a - 1] = strides[a] * fine[a].len() as u64;
        }
        let coarse = coarse_axes
            .iter()
            .zip(fine)
            .map(|(axis, f)| {
                axis.iter()
                    .map(|&c| f.partition_point(|&x| x < c))
                    .collect()
            })
            .collect();
        Lattice {
            fine,
            layers,
            strides,
            coarse,
        }
    }

    /// Points of the lattice.
    fn points(&self) -> u64 {
        self.fine.iter().map(|a| a.len() as u64).product()
    }

    /// The key of the capacity vector `caps`, or `None` when it is not a
    /// lattice point.
    fn key_of(&self, caps: &[u64]) -> Option<u64> {
        if caps.len() != self.fine.len() {
            return None;
        }
        caps.iter()
            .zip(self.fine)
            .zip(&self.strides)
            .try_fold(0, |key, ((c, axis), &s)| {
                Some(key + axis.binary_search(c).ok()? as u64 * s)
            })
    }

    /// Unpacks `key` into per-axis fine indices.
    fn unpack(&self, key: u64, idx: &mut [usize]) {
        for ((i, &s), axis) in idx.iter_mut().zip(&self.strides).zip(self.fine) {
            *i = (key / s % axis.len() as u64) as usize;
        }
    }

    /// The capacity vector of the point `key`.
    fn caps(&self, key: u64) -> Vec<u64> {
        self.fine
            .iter()
            .zip(&self.strides)
            .map(|(axis, &s)| axis[(key / s % axis.len() as u64) as usize])
            .collect()
    }

    /// Depth-0 windows along axis `a`: one per adjacent coarse pair, one
    /// degenerate window on a single-point axis.
    fn windows(&self, a: usize) -> usize {
        self.coarse[a].len().saturating_sub(1).max(1)
    }

    /// The id (mixed-radix over the per-axis window counts, axis 0 most
    /// significant) of a depth-0 window containing the point at `idx` —
    /// either one for a point on a window boundary.
    fn window_of(&self, idx: &[usize]) -> usize {
        idx.iter().enumerate().fold(0, |id, (a, &i)| {
            let k = self.coarse[a]
                .partition_point(|&c| c <= i)
                .saturating_sub(1);
            id * self.windows(a) + k.min(self.windows(a) - 1)
        })
    }

    /// The fine index of the integer midpoint of the fine range `lo..hi`
    /// on axis `a` — [`refine_axis`] emitted it if the range's cell sits
    /// below the maximal depth — or `None` when no integer lies strictly
    /// inside.
    fn midpoint(&self, a: usize, lo: usize, hi: usize) -> Option<usize> {
        let axis = &self.fine[a];
        let (l, h) = (axis[lo], axis[hi]);
        let mid = l + (h - l) / 2;
        if mid == l || mid == h {
            return None;
        }
        let m = lo + axis[lo..hi].partition_point(|&c| c < mid);
        debug_assert_eq!(axis[m], mid, "a split midpoint is a fine-axis point");
        Some(m)
    }

    /// Calls `f` with the key of every point of the product of the
    /// per-axis fine-index lists `values` (each ascending), in ascending
    /// key order.
    fn for_each_key(&self, values: &[Vec<usize>], f: &mut impl FnMut(u64)) {
        fn walk(strides: &[u64], values: &[Vec<usize>], base: u64, f: &mut impl FnMut(u64)) {
            let (Some((&stride, strides)), Some((axis, values))) =
                (strides.split_first(), values.split_first())
            else {
                return f(base);
            };
            for &i in axis {
                walk(strides, values, base + i as u64 * stride, f);
            }
        }
        walk(&self.strides, values, 0, f);
    }
}

/// The open cells of one refinement wave, flat. Cell `c` is the
/// fine-index box `lo..=hi` (`lo == hi` on single-point axes) inside the
/// depth-0 window `window[c]`, which it never leaves; all cells of a
/// wave share one subdivision depth. Invariant: when a cell is
/// classified, all its corners are decided (committed or certified).
struct Cells {
    axes: usize,
    /// Per cell: `lo`, then `hi`.
    flat: Vec<usize>,
    window: Vec<usize>,
}

impl Cells {
    fn new(axes: usize) -> Self {
        Cells {
            axes,
            flat: Vec::new(),
            window: Vec::new(),
        }
    }

    /// The depth-0 cells: one per depth-0 window, in window-id order.
    fn initial(lat: &Lattice<'_>) -> Self {
        let n = lat.fine.len();
        let mut cells = Cells::new(n);
        let (mut lo, mut hi) = (vec![0; n], vec![0; n]);
        for w in 0..(0..n).map(|a| lat.windows(a)).product::<usize>() {
            let mut rem = w;
            for a in (0..n).rev() {
                let (k, cf) = (rem % lat.windows(a), &lat.coarse[a]);
                rem /= lat.windows(a);
                lo[a] = cf[k];
                hi[a] = cf[(k + 1).min(cf.len() - 1)];
            }
            cells.push(&lo, &hi, w);
        }
        cells
    }

    fn len(&self) -> usize {
        self.window.len()
    }

    fn is_empty(&self) -> bool {
        self.window.is_empty()
    }

    /// Cell `c`'s `lo` and `hi`.
    fn cell(&self, c: usize) -> (&[usize], &[usize]) {
        self.flat[2 * self.axes * c..2 * self.axes * (c + 1)].split_at(self.axes)
    }

    fn push(&mut self, lo: &[usize], hi: &[usize], window: usize) {
        self.flat.extend_from_slice(lo);
        self.flat.extend_from_slice(hi);
        self.window.push(window);
    }
}

/// The score-perturbation budget the growth from capacity `from` to
/// capacity `to` spends at one scratchpad layer: its *write-energy* delta
/// — the unit the gain-bound sensitivities are expressed in (reads scale
/// as `δw / 1.2` and bursts as `δw` exactly, both folded into
/// [`ArrayContribution::energy_sensitivity`](crate::ArrayContribution)).
/// Zero inside the sub-reference clamp region, where growth leaves the
/// whole cost model bit-identical.
fn scratchpad_energy_delta_pj(from: u64, to: u64) -> f64 {
    (sram_write_pj(to) - sram_write_pj(from)).max(0.0)
}

/// The saturation certificates as boxes. A committed tracked, cold-kept
/// run at fine point `q` replays at every lattice point `p` with
/// `q ≤ p ≤ reach` — each grown axis growable
/// ([`RunStats::allows_growth_to`], against the recorded per-layer
/// rejection floors) and inside `q`'s scratchpad latency class — as far
/// as the run's energy gain margins allow. Per axis, both conditions are
/// downward-closed in the target capacity above `q` (`allows_growth_to`
/// compares against a floor and [`sram_access_cycles`] is monotone), so
/// `reach` is exact and found by binary search; the margin test is joint
/// over the axes and monotone in the target, so it runs per query, at the
/// box's far corner. Records are bucketed by every depth-0 window their
/// box meets: a cell never leaves its window, and a box containing a
/// point meets every window containing it, so a query scans one bucket.
struct MaskBoxes {
    /// Per record: `q`, then `reach`.
    flat: Vec<usize>,
    /// Per record: its committed point (an index into
    /// [`RefineState::run_stats`]).
    point: Vec<usize>,
    /// Per depth-0 window: the records whose box meets it.
    buckets: Vec<Vec<usize>>,
}

impl MaskBoxes {
    fn new(lat: &Lattice<'_>) -> Self {
        let windows = (0..lat.fine.len()).map(|a| lat.windows(a)).product();
        MaskBoxes {
            flat: Vec::new(),
            point: Vec::new(),
            buckets: vec![Vec::new(); windows],
        }
    }

    /// Records the certificate of `run`, committed at fine point `q` as
    /// committed point number `point`.
    fn insert(&mut self, lat: &Lattice<'_>, q: &[usize], run: &RunStats, point: usize) {
        let record = self.point.len();
        self.point.push(point);
        self.flat.extend_from_slice(q);
        // Per axis, the range of depth-0 windows the box meets.
        let mut windows: Vec<(usize, usize)> = Vec::with_capacity(q.len());
        for (a, &qi) in q.iter().enumerate() {
            let (axis, layer) = (&lat.fine[a], lat.layers[a]);
            let class = sram_access_cycles(axis[qi]);
            let reach =
                qi + axis[qi..].partition_point(|&t| {
                    t == axis[qi]
                        || (run.allows_growth_to(layer, t) && sram_access_cycles(t) == class)
                }) - 1;
            self.flat.push(reach);
            let cf = &lat.coarse[a];
            windows.push((
                cf[1..].partition_point(|&c| c < qi),
                cf[..lat.windows(a)].partition_point(|&c| c <= reach) - 1,
            ));
        }
        let mut digit: Vec<usize> = windows.iter().map(|w| w.0).collect();
        'buckets: loop {
            let id = digit
                .iter()
                .enumerate()
                .fold(0, |id, (a, &d)| id * lat.windows(a) + d);
            self.buckets[id].push(record);
            for a in (0..digit.len()).rev() {
                if digit[a] < windows[a].1 {
                    digit[a] += 1;
                    continue 'buckets;
                }
                digit[a] = windows[a].0;
            }
            break;
        }
    }

    /// Whether some record certifies the whole box `lo..=hi` (a point
    /// when `lo == hi`) of depth-0 window `window`: `q ≤ lo` and
    /// `hi ≤ reach` on every axis and, under a nonzero energy weight, the
    /// growth from `q` to `hi` within the run's gain margins
    /// ([`RunStats::allows_energy_growth`], which admits everything at
    /// weight zero).
    fn covers(
        &self,
        lat: &Lattice<'_>,
        run_stats: &[RunStats],
        (lo, hi): (&[usize], &[usize]),
        window: usize,
        energy_weight: f64,
    ) -> bool {
        let n = lo.len();
        self.buckets[window].iter().any(|&r| {
            let (q, reach) = self.flat[2 * n * r..2 * n * (r + 1)].split_at(n);
            q.iter().zip(lo).all(|(q, l)| q <= l)
                && hi.iter().zip(reach).all(|(h, top)| h <= top)
                && (energy_weight == 0.0
                    || run_stats[self.point[r]].allows_energy_growth(
                        q.iter()
                            .zip(hi)
                            .enumerate()
                            .filter(|(_, (q, h))| q != h)
                            .map(|(a, (&q, &h))| {
                                let axis = &lat.fine[a];
                                (lat.layers[a], scratchpad_energy_delta_pj(axis[q], axis[h]))
                            }),
                        energy_weight,
                    ))
        })
    }
}

/// The constants of one refinement run: its lattice and how its
/// certificates arm.
struct Refinement<'a> {
    lattice: Lattice<'a>,
    improving: bool,
    /// Whether committed runs' saturation certificates decide points (off
    /// for the exhaustive engine). Only tracked runs — the instrumented
    /// greedy search — carry a certificate, so a run under any other
    /// strategy certifies nothing either way.
    saturation_armed: bool,
    energy_weight: f64,
}

/// Where a refinement batch's improving-mode seeds come from: the
/// committed neighbours one coarse step down each axis (phase 0 — the
/// coarse lattice seeds like the improving pruned sweep) or the corner
/// assignments of the cell of `cells` that generated the point (refined
/// corners).
enum RefineSeeds<'m> {
    Grid,
    Corners(&'m Cells),
}

/// The mutable committed state of one refinement run, threaded through
/// the batches and keyed by packed lattice keys ([`Lattice`]).
/// `points`, `run_stats` and `winners` stay aligned index for index;
/// the lexicographic sort happens once at assembly.
struct RefineState {
    /// Committed results of a resumed prior run, replayed for free.
    replay: HashMap<u64, Searched>,
    /// Improving-mode committed assignments, the seed store (empty in
    /// cold mode).
    improved: HashMap<u64, Assignment>,
    /// Saturation-certificate boxes of the committed cold-kept tracked
    /// runs.
    masks: MaskBoxes,
    points: Vec<GridPoint>,
    run_stats: Vec<RunStats>,
    winners: Vec<Option<SeedOrigin>>,
    /// Keys committed or certified (corner dedup across cells).
    /// Certification only depends on committed state, which only grows,
    /// so both are permanent.
    decided: HashSet<u64>,
    /// Points certified dominated by a committed run — decided without a
    /// search, never committed.
    corners_certified: usize,
    /// Fresh searches this call — what the budget counts.
    fresh: usize,
    seed_wins: usize,
    search_legs: usize,
}

impl RefineState {
    /// The state a run starts from: empty, or a resumed `prior`'s points
    /// waiting to be replayed. A prior point off the lattice, or listed
    /// twice, makes the prior invalid.
    fn new(rf: &Refinement<'_>, prior: Option<Replay<'_>>) -> Result<Self, MhlaError> {
        let lat = &rf.lattice;
        let mut replay = HashMap::new();
        let (mut search_legs, mut seed_wins) = (0, 0);
        if let Some(p) = prior {
            for (i, pt) in p.points.iter().enumerate() {
                let key = lat
                    .key_of(&pt.capacities)
                    .ok_or_else(|| bad_prior("a prior point is off this lattice"))?;
                let run = p
                    .run_stats
                    .get(i)
                    .cloned()
                    .unwrap_or_else(RunStats::unknown);
                let winner = p.winners.get(i).copied().flatten();
                if replay
                    .insert(key, (pt.result.clone(), run, winner))
                    .is_some()
                {
                    return Err(bad_prior("a prior point is listed twice"));
                }
            }
            (search_legs, seed_wins) = (p.search_legs, p.seed_wins);
        }
        Ok(RefineState {
            replay,
            improved: HashMap::new(),
            masks: MaskBoxes::new(lat),
            points: Vec::new(),
            run_stats: Vec::new(),
            winners: Vec::new(),
            decided: HashSet::new(),
            corners_certified: 0,
            fresh: 0,
            seed_wins,
            search_legs,
        })
    }

    /// Commits the point `key` with its search outcome — a `fresh` search,
    /// or a replayed prior result.
    fn commit(
        &mut self,
        rf: &Refinement<'_>,
        key: u64,
        caps: Vec<u64>,
        (result, run, winner): Searched,
        fresh: bool,
    ) {
        if fresh {
            self.fresh += 1;
            self.search_legs += run.search_legs;
            self.seed_wins += usize::from(run.winning_seed.is_some());
        }
        if rf.saturation_armed && run.cold_kept() {
            let mut q = vec![0; caps.len()];
            rf.lattice.unpack(key, &mut q);
            self.masks
                .insert(&rf.lattice, &q, &run, self.run_stats.len());
        }
        if rf.improving {
            self.improved.insert(key, result.assignment.clone());
        }
        self.decided.insert(key);
        self.run_stats.push(run);
        self.winners.push(winner);
        self.points.push(GridPoint {
            capacities: caps,
            result,
        });
    }

    /// The point-level certificate of one undecided point (fine indices
    /// `idx`) against the committed state: some committed run's
    /// saturation box ([`MaskBoxes`]) contains it. A certified point is
    /// dominated on both result surfaces (the objective-score surface in
    /// improving mode) by a committed point and needs no search. An
    /// undecided point is never a record's own `q`, so box containment is
    /// strict capacity dominance here.
    fn point_certified(&self, rf: &Refinement<'_>, idx: &[usize]) -> bool {
        let lat = &rf.lattice;
        rf.saturation_armed
            && self.masks.covers(
                lat,
                &self.run_stats,
                (idx, idx),
                lat.window_of(idx),
                rf.energy_weight,
            )
    }

    /// The seeds the search of the point `key` (fine indices `idx`,
    /// generated by cell `parent`) carries: in phase 0 the committed
    /// neighbours one coarse step down each axis, in axis order; in a
    /// wave the generating cell's committed corners at or below the
    /// point, in lexicographic order. Every seed sits componentwise below
    /// the point, so it fits, and it was committed in an earlier rank
    /// level or batch. Empty in cold mode, which commits no seeds.
    /// Duplicate assignments cost no search leg: the portfolio skips them.
    fn seeds(
        &self,
        rf: &Refinement<'_>,
        key: u64,
        idx: &[usize],
        parent: usize,
        from: &RefineSeeds<'_>,
    ) -> Vec<Seed> {
        let lat = &rf.lattice;
        let mut seeds = Vec::new();
        if self.improved.is_empty() {
            return seeds;
        }
        match from {
            RefineSeeds::Grid => {
                for (a, (&i, coarse)) in idx.iter().zip(&lat.coarse).enumerate() {
                    let k = coarse.partition_point(|&c| c < i);
                    debug_assert_eq!(coarse.get(k), Some(&i), "phase-0 points are coarse");
                    if k == 0 {
                        continue;
                    }
                    let neighbour = key - (i - coarse[k - 1]) as u64 * lat.strides[a];
                    if let Some(seed) = self.improved.get(&neighbour) {
                        seeds.push((Some(SeedOrigin::Axis(a)), seed.clone()));
                    }
                }
            }
            RefineSeeds::Corners(cells) => {
                let (lo, hi) = cells.cell(parent);
                let corners: Vec<Vec<usize>> = lo
                    .iter()
                    .zip(hi)
                    .zip(idx)
                    .map(|((&l, &h), &i)| {
                        let ends: &[usize] = if l == h { &[l] } else { &[l, h] };
                        ends.iter().copied().filter(|&c| c <= i).collect()
                    })
                    .collect();
                lat.for_each_key(&corners, &mut |corner| {
                    if let Some(seed) = self.improved.get(&corner) {
                        seeds.push((None, seed.clone()));
                    }
                });
            }
        }
        seeds
    }
}

/// How long an idle helper, or a caller waiting on its helpers, spins
/// before it parks. Certifying a rank level takes microseconds, while a
/// parked thread on a virtual machine can wake tens to hundreds of
/// microseconds after its notification.
const HELPER_SPIN: Duration = Duration::from_micros(200);

/// How much search time an exploration's caller spends, alone, on the
/// searches a helper could have taken before it starts handing searches
/// to helpers. A helper's spawn and its fresh [`EvalWorkspace`] cost
/// about 0.1–0.2 ms once per exploration, which explorations with few
/// concurrent searches, or short ones, do not repay.
const HANDOFF_AFTER: Duration = Duration::from_millis(1);

/// One step's jobs as the caller and the helpers of a [`Helpers`] pool
/// share them.
struct Board<J, R> {
    /// The unclaimed jobs with their positions: the shared cursor.
    jobs: std::iter::Enumerate<std::vec::IntoIter<J>>,
    /// Finished results by job position.
    results: Vec<Option<R>>,
    /// The payload of a job that panicked on a helper.
    panic: Option<Box<dyn Any + Send>>,
    /// Set when the pool drops: helpers exit.
    shutdown: bool,
}

/// The state a [`Helpers`] pool's threads share. The two counters are
/// hints for spinning threads: they change only under the lock, and a
/// thread takes the lock before it reads the board, so the lock orders
/// every job and result (the counters' Release stores pair with the
/// spinners' Acquire loads only to end the spin early).
struct PoolShared<J, R> {
    board: Mutex<Board<J, R>>,
    /// Helpers park here until a step is posted or the pool shuts down.
    posted: Condvar,
    /// The caller parks here until the step's last job has finished.
    drained: Condvar,
    /// Bumped under the lock on every post and on shutdown: what idle
    /// helpers spin on.
    epoch: AtomicUsize,
    /// Jobs of the current step not finished yet, changed under the
    /// lock: what the waiting caller spins on.
    unfinished: AtomicUsize,
}

/// The helper threads of one exploration. The caller posts a step's jobs
/// ([`Helpers::run`]) and works through them alongside the helpers:
/// every thread claims the next job from one shared cursor, and the
/// results come back in job order whichever thread ran each job.
///
/// Helpers are scoped threads, spawned at the first step that has a job
/// for them — at most `max`, never more than a step's jobs minus one —
/// and they live until the pool drops, so each keeps its thread-local
/// [`EngineScratch`] for the whole exploration. Until then the caller
/// runs every step alone and times the jobs a helper could have taken —
/// the last half of each step — and the pool hands off from the step
/// after those jobs add up to [`HANDOFF_AFTER`]: few or short concurrent
/// jobs do not repay the helpers' one-off costs.
struct Helpers<'scope, 'env, J, R> {
    scope: &'scope thread::Scope<'scope, 'env>,
    shared: &'scope PoolShared<J, R>,
    work: &'scope (dyn Fn(J) -> R + Sync),
    /// Helpers the pool may spawn; `None` until a step first needs one,
    /// then one fewer than the cores available to the process.
    max: Option<usize>,
    spawned: usize,
    /// Time the caller spent alone on jobs a helper could have taken.
    missed: Duration,
}

/// Runs `body` with a [`Helpers`] pool whose jobs run `work`, and shuts
/// the helpers down when `body` returns or unwinds.
fn with_helpers<J: Send, R: Send, T>(
    max: Option<usize>,
    work: &(dyn Fn(J) -> R + Sync),
    body: impl FnOnce(&mut Helpers<'_, '_, J, R>) -> T,
) -> T {
    let shared = PoolShared {
        board: Mutex::new(Board {
            jobs: Vec::new().into_iter().enumerate(),
            results: Vec::new(),
            panic: None,
            shutdown: false,
        }),
        posted: Condvar::new(),
        drained: Condvar::new(),
        epoch: AtomicUsize::new(0),
        unfinished: AtomicUsize::new(0),
    };
    thread::scope(|scope| {
        let mut pool = Helpers {
            scope,
            shared: &shared,
            work,
            max,
            spawned: 0,
            missed: Duration::ZERO,
        };
        body(&mut pool)
    })
}

impl<'scope, J: Send, R: Send> Helpers<'scope, '_, J, R> {
    /// Runs one step's jobs and returns their results in job order. A job
    /// that panicked on a helper panics here, on the caller, once the
    /// step's other jobs have finished.
    fn run(&mut self, jobs: Vec<J>) -> Vec<R> {
        let n = jobs.len();
        if n >= 2 && self.missed >= HANDOFF_AFTER && self.spawn(n - 1) {
            return self.shared.run(jobs, self.work);
        }
        let alone = n - n / 2;
        let mut results = Vec::with_capacity(n);
        for (i, job) in jobs.into_iter().enumerate() {
            let start = Instant::now();
            results.push((self.work)(job));
            if i >= alone {
                self.missed += start.elapsed();
            }
        }
        results
    }

    /// Spawns helpers up to `wanted` (capped by `max`); whether any runs.
    /// A failed spawn caps the pool at the helpers already running.
    fn spawn(&mut self, wanted: usize) -> bool {
        let max = *self.max.get_or_insert_with(|| cores() - 1);
        while self.spawned < wanted.min(max) {
            let (shared, work) = (self.shared, self.work);
            let helper = thread::Builder::new()
                .name("mhla-explore".into())
                .spawn_scoped(self.scope, move || shared.serve(work));
            if helper.is_err() {
                self.max = Some(self.spawned);
                break;
            }
            self.spawned += 1;
        }
        self.spawned > 0
    }
}

impl<J, R> Drop for Helpers<'_, '_, J, R> {
    fn drop(&mut self) {
        let mut board = self.shared.lock();
        board.shutdown = true;
        self.shared.epoch.fetch_add(1, Ordering::Release);
        drop(board);
        self.shared.posted.notify_all();
    }
}

impl<J, R> PoolShared<J, R> {
    /// The board. No job runs under the lock, so a panicking job cannot
    /// leave it half-updated; a poisoned lock is taken as it is.
    fn lock(&self) -> MutexGuard<'_, Board<J, R>> {
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The caller's side of a pooled step: posts `jobs`, claims and runs
    /// jobs until none is left, then waits for the helpers' last ones.
    fn run(&self, jobs: Vec<J>, work: &(dyn Fn(J) -> R + Sync)) -> Vec<R> {
        let n = jobs.len();
        let mut board = self.lock();
        board.jobs = jobs.into_iter().enumerate();
        board.results.clear();
        board.results.resize_with(n, || None);
        self.unfinished.store(n, Ordering::Release);
        self.epoch.fetch_add(1, Ordering::Release);
        drop(board);
        self.posted.notify_all();
        loop {
            let claimed = self.lock().jobs.next();
            let Some((k, job)) = claimed else { break };
            let result = work(job);
            self.finish(k, Ok(result));
        }
        spin_until(|| self.unfinished.load(Ordering::Acquire) == 0);
        let mut board = self.lock();
        while self.unfinished.load(Ordering::Acquire) > 0 {
            board = self
                .drained
                .wait(board)
                .unwrap_or_else(PoisonError::into_inner);
        }
        if let Some(payload) = board.panic.take() {
            drop(board);
            panic::resume_unwind(payload);
        }
        board.results.drain(..).flatten().collect()
    }

    /// Records job `k`'s outcome and wakes the caller after the step's
    /// last job.
    fn finish(&self, k: usize, outcome: thread::Result<R>) {
        let mut board = self.lock();
        match outcome {
            Ok(result) => board.results[k] = Some(result),
            Err(payload) => {
                board.panic.get_or_insert(payload);
            }
        }
        if self.unfinished.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.drained.notify_one();
        }
    }

    /// A helper's loop: claim a job, run it, record its outcome — a panic
    /// included, for the caller to raise — until the pool shuts down.
    /// With nothing to claim it spins on the epoch, then parks.
    fn serve(&self, work: &(dyn Fn(J) -> R + Sync)) {
        loop {
            let mut board = self.lock();
            let (k, job) = loop {
                if board.shutdown {
                    return;
                }
                if let Some(claimed) = board.jobs.next() {
                    break claimed;
                }
                let seen = self.epoch.load(Ordering::Acquire);
                drop(board);
                spin_until(|| self.epoch.load(Ordering::Acquire) != seen);
                board = self.lock();
                while !board.shutdown && self.epoch.load(Ordering::Acquire) == seen {
                    board = self
                        .posted
                        .wait(board)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            drop(board);
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| work(job)));
            self.finish(k, outcome);
        }
    }
}

/// The cores available to the process, read once: the query reads
/// cgroup files, which takes tens of microseconds.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Spins until `done` holds or [`HELPER_SPIN`] has passed.
fn spin_until(done: impl Fn() -> bool) {
    let start = Instant::now();
    while !done() && start.elapsed() < HELPER_SPIN {
        std::hint::spin_loop();
    }
}

impl<'e> SweepEngine<'e> {
    /// Decides one ascending batch of `(key, generating cell)` points in
    /// steps, each step against everything committed before it. A step
    /// works in three phases:
    ///
    /// 1. replay or certify, one point at a time: a point replayed from a
    ///    resumed prior run is committed for free; otherwise a point the
    ///    committed state certifies ([`RefineState::point_certified`]) is
    ///    decided without a search; otherwise it is queued;
    /// 2. search the queued points on the caller and `pool`'s helpers,
    ///    each job carrying its seeds ([`RefineState::seeds`]);
    /// 3. commit the results in key order.
    ///
    /// A certificate only reads committed points componentwise below the
    /// point, and so does a seed; points of equal fine-index sum (one
    /// *rank level*) are mutually incomparable, so none certifies or
    /// seeds another, and any order that decides a point after its whole
    /// down-set decides it identically. Every run therefore takes one rank
    /// level per step — levels ascending, keys ascending inside a level —
    /// and searches the level's points concurrently, whatever its mode.
    ///
    /// The budget, which counts fresh searches only, is checked for each
    /// point as it is queued. When it stops, the queued points are still
    /// searched and committed, and `Ok(Some(cause))` returns: the lower
    /// levels and a key-order prefix of one level are decided, the rest of
    /// the batch is not. Either way the loop never searches a point the
    /// committed state already certifies.
    ///
    /// A resumed prior's points all come up before the first fresh
    /// search of a resume; one that comes up later makes the prior
    /// invalid ([`MhlaError::InvalidOptions`]).
    fn refine_eval_batch(
        &self,
        rf: &Refinement<'_>,
        batch: &[(u64, usize)],
        seeds_from: &RefineSeeds<'_>,
        budget: &ExploreBudget,
        st: &mut RefineState,
        pool: &mut Helpers<'_, '_, Job, (u64, Searched)>,
    ) -> Result<Option<StopCause>, MhlaError> {
        let lat = &rf.lattice;
        let n = lat.fine.len();
        // Every point's fine indices, unpacked once.
        let mut idx = vec![0; batch.len() * n];
        for (&(key, _), at) in batch.iter().zip(idx.chunks_exact_mut(n)) {
            lat.unpack(key, at);
        }
        let rank: Vec<usize> = idx.chunks_exact(n).map(|at| at.iter().sum()).collect();
        // Batch positions by rank, keys ascending inside a level: a
        // counting sort.
        let mut next = vec![0; rank.iter().max().map_or(1, |&r| r + 2)];
        for &r in &rank {
            next[r + 1] += 1;
        }
        for r in 1..next.len() {
            next[r] += next[r - 1];
        }
        let mut order = vec![0; batch.len()];
        for (p, &r) in rank.iter().enumerate() {
            order[next[r]] = p;
            next[r] += 1;
        }
        let mut stop = None;
        for step in order.chunk_by(|&a, &b| rank[a] == rank[b]) {
            let mut jobs: Vec<Job> = Vec::new();
            for &p in step {
                let (key, parent) = batch[p];
                let at = &idx[p * n..(p + 1) * n];
                debug_assert!(!st.decided.contains(&key), "batch points are undecided");
                if let Some(replayed) = st.replay.remove(&key) {
                    if st.fresh > 0 || !jobs.is_empty() {
                        return Err(late_prior_point());
                    }
                    st.commit(rf, key, lat.caps(key), replayed, false);
                    continue;
                }
                if st.point_certified(rf, at) {
                    st.decided.insert(key);
                    st.corners_certified += 1;
                    continue;
                }
                stop = budget.stop(st.fresh + jobs.len());
                if stop.is_some() {
                    break;
                }
                jobs.push((key, st.seeds(rf, key, at, parent, seeds_from)));
            }
            for (key, searched) in pool.run(jobs) {
                st.commit(rf, key, lat.caps(key), searched, true);
            }
            if stop.is_some() {
                break;
            }
        }
        Ok(stop)
    }

    /// The adaptive refinement scheduler (the body of
    /// [`try_sweep_grid_refined_with`], and at depth 0 of
    /// [`try_sweep_grid_pruned_with`] and — with `certify` off —
    /// [`try_sweep_grid_run`]): phase 0 decides the coarse lattice, then
    /// refinement waves classify every open cell against the state
    /// committed *before* the wave — saturation certificate first, split
    /// second — and decide the new child corners as one ascending batch.
    ///
    /// The engine's `axis_caps` are the *fine* axes; `coarse_axes` are
    /// the caller's cleaned coarse axes, on which phase 0's improving-mode
    /// neighbour seeds resolve. The fine lattice is never materialized;
    /// points are packed lattice keys until they are searched or
    /// committed.
    ///
    /// With a `prior` run, its committed points replay for free at the
    /// positions the uninterrupted schedule evaluated them, so the
    /// continuation re-derives the identical state and the merged result
    /// is bit-identical to the uninterrupted run's. A prior whose points
    /// are not exactly those the schedule decides before its first fresh
    /// search is refused with [`MhlaError::InvalidOptions`].
    ///
    /// The exploration's searches run on the caller and on helper threads
    /// ([`Helpers`]) that live as long as this call. Returns the run and,
    /// aligned with its points, each point's winning grid seed.
    fn run_refined(
        &self,
        coarse_axes: &[Vec<u64>],
        opts: &RefineOptions,
        certify: bool,
        prior: Option<Replay<'_>>,
    ) -> Result<(RefinedGridSweep, Vec<Option<SeedOrigin>>), MhlaError> {
        let config = self.ctx.config();
        let rf = Refinement {
            lattice: Lattice::new(self.axis_caps, self.layers, coarse_axes),
            improving: opts.mode == SearchMode::Improving,
            saturation_armed: certify,
            energy_weight: config.objective.energy_weight(),
        };
        let search = |(key, seeds): Job| (key, self.evaluate(&rf.lattice.caps(key), &seeds));
        with_helpers(None, &search, |pool| {
            self.refine_waves(&rf, opts, prior, pool)
        })
    }

    /// [`Self::run_refined`]'s phase 0 and waves, searching on `pool`.
    fn refine_waves(
        &self,
        rf: &Refinement<'_>,
        opts: &RefineOptions,
        prior: Option<Replay<'_>>,
        pool: &mut Helpers<'_, '_, Job, (u64, Searched)>,
    ) -> Result<(RefinedGridSweep, Vec<Option<SeedOrigin>>), MhlaError> {
        let lat = &rf.lattice;
        let n = lat.fine.len();
        let mut st = RefineState::new(rf, prior)?;
        let mut stats = RefineStats {
            virtual_points: lat.points(),
            ..RefineStats::default()
        };
        let mut waves = 0usize;

        // Phase 0: the coarse lattice, in lexicographic order.
        let mut coarse = Vec::new();
        lat.for_each_key(&lat.coarse, &mut |key| coarse.push((key, 0)));
        stats.coarse_points = coarse.len();
        if let Some(cause) =
            self.refine_eval_batch(rf, &coarse, &RefineSeeds::Grid, &opts.budget, &mut st, pool)?
        {
            let next_lex = st.points.len();
            return self.assemble_refined(
                st,
                stats,
                waves,
                SweepStatus::Stopped { cause, next_lex },
            );
        }

        let mut open = Cells::initial(lat);
        let mut depth = 0;
        let mut status = SweepStatus::Complete;
        let mut mids: Vec<Option<usize>> = Vec::with_capacity(n);
        let mut grid: Vec<Vec<usize>> = vec![Vec::with_capacity(3); n];
        let (mut child_lo, mut child_hi) = (vec![0; n], vec![0; n]);
        while !open.is_empty() {
            waves += 1;
            let mut next = Cells::new(n);
            // Every child corner, tagged with the cell that generated it.
            let mut pending: Vec<(u64, usize)> = Vec::new();
            for c in 0..open.len() {
                let (lo, hi) = open.cell(c);
                if rf.saturation_armed
                    && st.masks.covers(
                        lat,
                        &st.run_stats,
                        (lo, hi),
                        open.window[c],
                        rf.energy_weight,
                    )
                {
                    stats.cells_closed_mask += 1;
                    continue;
                }
                // Split at every splittable axis's integer midpoint — or
                // a leaf: at maximal depth, or with no axis left to split
                // (then the box contains only corners, all decided).
                mids.clear();
                if depth < opts.depth {
                    mids.extend((0..n).map(|a| lat.midpoint(a, lo[a], hi[a])));
                }
                let splits = mids.iter().flatten().count();
                if splits == 0 {
                    stats.cells_leaf += 1;
                    continue;
                }
                stats.cells_opened += 1;
                // The children, lexicographic: split axis `a` takes its
                // lower half where the child number's bit for `a` (axis 0
                // most significant) is clear.
                for m in 0..1usize << splits {
                    let mut bit = splits;
                    for a in 0..n {
                        (child_lo[a], child_hi[a]) = match mids[a] {
                            None => (lo[a], hi[a]),
                            Some(mid) => {
                                bit -= 1;
                                if m >> bit & 1 == 0 {
                                    (lo[a], mid)
                                } else {
                                    (mid, hi[a])
                                }
                            }
                        };
                    }
                    next.push(&child_lo, &child_hi, open.window[c]);
                }
                // The children's corners: every combination of each
                // axis's lo, midpoint and hi.
                for (a, values) in grid.iter_mut().enumerate() {
                    values.clear();
                    values.push(lo[a]);
                    values.extend(mids[a]);
                    if hi[a] != lo[a] {
                        values.push(hi[a]);
                    }
                }
                lat.for_each_key(&grid, &mut |key| pending.push((key, c)));
            }
            // One entry per undecided key, ascending. The stable sort
            // keeps a key's entries in classification order, so the
            // first — the generating cell whose corners seed it in
            // improving mode — survives the dedup.
            pending.sort_by_key(|&(key, _)| key);
            pending.dedup_by_key(|&mut (key, _)| key);
            pending.retain(|(key, _)| !st.decided.contains(key));
            if let Some(cause) = self.refine_eval_batch(
                rf,
                &pending,
                &RefineSeeds::Corners(&open),
                &opts.budget,
                &mut st,
                pool,
            )? {
                let next_lex = st.points.len();
                status = SweepStatus::Stopped { cause, next_lex };
                break;
            }
            open = next;
            depth += 1;
        }
        self.assemble_refined(st, stats, waves, status)
    }

    /// Final assembly: points (and their aligned [`RunStats`] and
    /// winners) sorted lexicographically so the result — like every grid
    /// sweep — is independent of the commit schedule, checkpoint kept
    /// only on a stop. A resumed prior point that never came up makes the
    /// prior invalid.
    fn assemble_refined(
        &self,
        st: RefineState,
        mut stats: RefineStats,
        waves: usize,
        status: SweepStatus,
    ) -> Result<(RefinedGridSweep, Vec<Option<SeedOrigin>>), MhlaError> {
        if !st.replay.is_empty() {
            return Err(late_prior_point());
        }
        stats.evaluated = st.points.len();
        stats.corners_certified = st.corners_certified;
        let mut zipped: Vec<((GridPoint, RunStats), Option<SeedOrigin>)> = st
            .points
            .into_iter()
            .zip(st.run_stats)
            .zip(st.winners)
            .collect();
        zipped.sort_by(|a, b| a.0 .0.capacities.cmp(&b.0 .0.capacities));
        let ((points, run_stats), winners): ((Vec<GridPoint>, Vec<RunStats>), Vec<_>) =
            zipped.into_iter().unzip();
        let checkpoint = match status {
            SweepStatus::Complete => RefineCheckpoint::default(),
            SweepStatus::Stopped { .. } => RefineCheckpoint { run_stats },
        };
        let run = RefinedGridSweep {
            sweep: GridSweep {
                layers: self.layers.to_vec(),
                points,
            },
            stats,
            waves,
            search_legs: st.search_legs,
            seed_wins: st.seed_wins,
            status,
            checkpoint,
        };
        Ok((run, winners))
    }
}

/// The adaptive frontier-driven refinement sweep: evaluates the coarse
/// grid, then recursively subdivides only the capacity cells that can
/// still change the Pareto front, until the virtual fine lattice
/// (`2^`[`REFINE_DEPTH`] interior points per coarse interval per axis)
/// is reached or closed. A cell is closed without subdivision only under
/// the **saturation certificate** — [`try_sweep_grid_pruned_with`]'s
/// prune rule lifted from points to boxes: a committed cold-kept run at
/// `q ≤ cell.lo` whose per-layer rejection floors
/// ([`RunStats::allows_growth_to`]) prove growth to `cell.hi` replays
/// it — every changed axis growable, inside one scratchpad latency class,
/// within the energy gain margins. Monotonicity extends the proof to
/// every interior point of the box. Each committed run's certificate is
/// kept as the box of lattice points it reaches, so the test is a
/// per-axis index comparison.
///
/// One certified loop decides the points: the coarse lattice first, then
/// each wave's new child corners, one batch at a time. Each point is
/// decided against everything committed before it — certified when a
/// committed run's box contains it, searched and committed otherwise — so
/// no search lands on a point the committed state already certifies. A
/// batch is decided one rank level at a time, in either mode, with the
/// level's searches running concurrently (see
/// [`try_sweep_grid_pruned_with`]'s *One certified loop*, which is this
/// scheduler at depth 0, where the lattice is the grid itself).
///
/// The scheduler keys lattice points by their per-axis fine indices,
/// packed into one `u64`, and builds capacity vectors only for the
/// points it searches or commits.
///
/// The certificate only ever closes boxes whose every unevaluated point
/// is dominated by a *committed* point, so — by the same transitivity
/// argument as the pruned sweep — the result's Pareto accessors select,
/// bit for bit, the frontier of the exhaustive virtual fine lattice
/// (`tests/refine_equivalence.rs`), at a small fraction of its
/// evaluations ([`RefineStats::eval_ratio`]).
///
/// Validates the program, platform, configuration, axes and refinement
/// options up front, then runs the budget-aware refinement scheduler.
///
/// # Errors
///
/// As [`try_sweep_grid_run`], plus [`MhlaError::InvalidOptions`] for an
/// out-of-range subdivision depth (depth 0 is
/// [`try_sweep_grid_pruned_with`]) or a fine lattice with more points
/// than a `u64` holds. Budget exhaustion is *not* an error — the run
/// comes back `Ok` with [`SweepStatus::Stopped`].
pub fn try_sweep_grid_refined_with(
    program: &Program,
    platform: &Platform,
    axes: &[GridAxis],
    config: &MhlaConfig,
    opts: &RefineOptions,
) -> Result<RefinedGridSweep, MhlaError> {
    error::validate_run_ingress(program, platform, config)?;
    error::validate_axes(platform, axes)?;
    error::validate_refine_options(opts)?;
    refine_grid(program, platform, axes, config, opts, None)
}

/// Resumes a stopped [`try_sweep_grid_refined_with`] and returns the
/// *merged* run, again budget-aware. Must be called with the same
/// program/platform/axes/config/options the prior run used (checked
/// where cheaply possible); resuming a complete run returns it
/// unchanged.
///
/// The deterministic scheduler re-runs from the start with the prior
/// run's committed points replayed for free (the budget counts fresh
/// searches only), so the merged result — points, certificates, stats
/// and frontiers — is bit-identical to the uninterrupted run's.
///
/// # Errors
///
/// As [`try_sweep_grid_refined_with`], plus
/// [`MhlaError::InvalidOptions`] when `prior` does not fit the given axes
/// and depth (as [`try_sweep_grid_resume`], with [`RefineStats`] as its
/// counts).
pub fn try_sweep_grid_refined_resume(
    program: &Program,
    platform: &Platform,
    axes: &[GridAxis],
    config: &MhlaConfig,
    opts: &RefineOptions,
    prior: &RefinedGridSweep,
) -> Result<RefinedGridSweep, MhlaError> {
    error::validate_run_ingress(program, platform, config)?;
    error::validate_axes(platform, axes)?;
    error::validate_refine_options(opts)?;
    let next_lex = match prior.status {
        SweepStatus::Complete => return Ok(prior.clone()),
        SweepStatus::Stopped { next_lex, .. } => next_lex,
    };
    check_prior_layers(axes, &prior.sweep.layers)?;
    let (stats, points) = (prior.stats, prior.sweep.points.len());
    let coarse = clean_axes(axes);
    if lattice_points(&coarse, opts.depth) != Some(stats.virtual_points)
        || lattice_points(&coarse, 0) != Some(stats.coarse_points as u64)
        || stats.evaluated != points
        || next_lex != points
        || prior.checkpoint.run_stats.len() != points
    {
        return Err(bad_prior(
            "the prior run's counts do not match this lattice",
        ));
    }
    let replay = Replay {
        points: &prior.sweep.points,
        run_stats: &prior.checkpoint.run_stats,
        winners: &[],
        search_legs: prior.search_legs,
        seed_wins: prior.seed_wins,
    };
    refine_grid(program, platform, axes, config, opts, Some(replay))
}

/// The shared body of the pruned and refined entry points, ingress
/// already validated: [`certified_grid`] with the certificates armed.
fn refine_grid(
    program: &Program,
    platform: &Platform,
    axes: &[GridAxis],
    config: &MhlaConfig,
    opts: &RefineOptions,
    prior: Option<Replay<'_>>,
) -> Result<RefinedGridSweep, MhlaError> {
    let ctx = ExplorationContext::new(program, platform, config.clone());
    certified_grid(&ctx, platform, axes, opts, true, prior).map(|(run, _)| run)
}

/// The error of a resume whose prior holds a point that the schedule
/// never reaches, or reaches only after its first fresh search: such a
/// prior is not a run this grid stopped.
fn late_prior_point() -> MhlaError {
    bad_prior("a prior point is not among those the run decides before its first search")
}

/// The shared body of every grid engine, ingress validated and context
/// in hand: clean the axes, shortcut the empty grid, and run the
/// certified refinement scheduler `opts.depth` levels deep — its
/// saturation certificates armed only when `certify` is set. Returns the
/// run and each point's winning grid seed (see
/// [`SweepEngine::run_refined`]).
fn certified_grid(
    ctx: &ExplorationContext<'_>,
    platform: &Platform,
    axes: &[GridAxis],
    opts: &RefineOptions,
    certify: bool,
    prior: Option<Replay<'_>>,
) -> Result<(RefinedGridSweep, Vec<Option<SeedOrigin>>), MhlaError> {
    let layers: Vec<LayerId> = axes.iter().map(|a| a.layer).collect();
    let coarse = clean_axes(axes);
    if coarse.is_empty() || coarse.iter().any(Vec::is_empty) {
        let empty = RefinedGridSweep {
            sweep: GridSweep {
                layers,
                points: Vec::new(),
            },
            stats: RefineStats::default(),
            waves: 0,
            search_legs: 0,
            seed_wins: 0,
            status: SweepStatus::Complete,
            checkpoint: RefineCheckpoint::default(),
        };
        return Ok((empty, Vec::new()));
    }
    let fine = fine_axes(&coarse, opts.depth)?;
    let engine = SweepEngine {
        ctx,
        platform,
        layers: &layers,
        axis_caps: &fine,
    };
    engine.run_refined(&coarse, opts, certify, prior)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhla_ir::{ElemType, ProgramBuilder};

    fn blocked() -> Program {
        let mut b = ProgramBuilder::new("blocked");
        let data = b.array("data", &[4096], ElemType::U8);
        let lb = b.begin_loop("blk", 0, 16, 1);
        let lr = b.begin_loop("rep", 0, 8, 1);
        let li = b.begin_loop("i", 0, 256, 1);
        let (blk, i) = (b.var(lb), b.var(li));
        b.stmt("use")
            .read(data, vec![blk * 256 + i])
            .compute_cycles(2)
            .finish();
        b.end_loop();
        b.end_loop();
        b.end_loop();
        let _ = lr;
        b.finish()
    }

    /// The default-options exhaustive grid sweep.
    fn grid(p: &Program, pf: &Platform, axes: &[GridAxis]) -> GridSweep {
        let (config, opts) = (MhlaConfig::default(), SweepOptions::default());
        try_sweep_grid_run(p, pf, axes, &config, &opts)
            .unwrap()
            .sweep
    }

    /// The default-options 1-D sweep of layer 1: the grid on one axis.
    fn sweep_1d(p: &Program, pf: &Platform, caps: &[u64]) -> GridSweep {
        grid(p, pf, &[GridAxis::new(LayerId(1), caps)])
    }

    #[test]
    fn sweep_is_monotone_enough_and_pareto_is_sane() {
        let p = blocked();
        let pf = Platform::embedded_default(1024);
        let caps: Vec<u64> = vec![32, 64, 128, 256, 512, 1024, 4096];
        let s = sweep_1d(&p, &pf, &caps);
        assert_eq!(s.points.len(), caps.len());
        // Capacities ascend.
        for w in s.points.windows(2) {
            assert!(w[0].capacities < w[1].capacities);
        }
        // The Pareto front is non-empty, ascending in capacity and strictly
        // descending in cycles.
        let front = s.pareto_cycles();
        assert!(!front.is_empty());
        for w in front.windows(2) {
            assert!(s.points[w[0]].cycles() > s.points[w[1]].cycles());
        }
        // Best-cycles point beats the smallest-capacity point.
        let best = s.best_cycles().unwrap();
        assert!(best.cycles() <= s.points[0].cycles());
    }

    #[test]
    fn bigger_scratchpads_never_hurt_cycles_on_the_front() {
        let p = blocked();
        let pf = Platform::embedded_default(1024);
        let s = sweep_1d(&p, &pf, &default_capacities());
        let front = s.pareto_energy();
        for w in front.windows(2) {
            assert!(s.points[w[0]].energy_pj() > s.points[w[1]].energy_pj());
        }
    }

    #[test]
    fn duplicate_capacities_are_deduped() {
        let p = blocked();
        let pf = Platform::embedded_default(1024);
        let s = sweep_1d(&p, &pf, &[256, 256, 512]);
        assert_eq!(s.points.len(), 2);
    }

    #[test]
    fn grid_covers_the_cartesian_product_in_lexicographic_order() {
        let p = blocked();
        let pf = Platform::three_level(4096, 512);
        let axes = [
            GridAxis::new(LayerId(1), vec![1024u64, 4096]),
            GridAxis::new(LayerId(2), vec![512u64, 128, 256]),
        ];
        let g = grid(&p, &pf, &axes);
        assert_eq!(g.layers, vec![LayerId(1), LayerId(2)]);
        assert_eq!(g.points.len(), 6);
        let caps: Vec<Vec<u64>> = g.points.iter().map(|p| p.capacities.clone()).collect();
        assert_eq!(
            caps,
            vec![
                vec![1024, 128],
                vec![1024, 256],
                vec![1024, 512],
                vec![4096, 128],
                vec![4096, 256],
                vec![4096, 512],
            ],
            "axis capacities sorted, last axis fastest"
        );
    }

    #[test]
    fn grid_points_match_standalone_runs() {
        let p = blocked();
        let pf = Platform::three_level(4096, 512);
        let axes = [
            GridAxis::new(LayerId(1), vec![1024u64, 4096]),
            GridAxis::new(LayerId(2), vec![128u64, 512]),
        ];
        let g = grid(&p, &pf, &axes);
        for point in &g.points {
            let standalone = pf.with_layer_capacities(&[
                (LayerId(1), point.capacities[0]),
                (LayerId(2), point.capacities[1]),
            ]);
            let cold = crate::Mhla::new(&p, &standalone, MhlaConfig::default()).run();
            assert_eq!(point.result, cold, "at {:?}", point.capacities);
        }
    }

    #[test]
    fn grid_pareto_surface_is_mutually_non_dominated() {
        let p = blocked();
        let pf = Platform::three_level(4096, 512);
        let axes = [
            GridAxis::new(LayerId(1), vec![512u64, 1024, 4096]),
            GridAxis::new(LayerId(2), vec![64u64, 128, 512]),
        ];
        let g = grid(&p, &pf, &axes);
        let front = g.pareto_cycles();
        assert!(!front.is_empty());
        for &i in &front {
            for &j in &front {
                if i == j {
                    continue;
                }
                let dominated = g.points[j]
                    .capacities
                    .iter()
                    .zip(&g.points[i].capacities)
                    .all(|(cj, ci)| cj <= ci)
                    && g.points[j].cycles() <= g.points[i].cycles()
                    && (g.points[j].capacities != g.points[i].capacities
                        || g.points[j].cycles() < g.points[i].cycles());
                assert!(!dominated, "{i} dominated by {j} on the front");
            }
        }
        // The best-cycles point is always on the cycle front.
        let best = g.best_cycles().unwrap();
        assert!(front.iter().any(|&i| g.points[i].result == best.result));
    }

    #[test]
    fn skip_ratio_is_zero_not_nan_on_an_empty_grid() {
        let empty = PruneStats::default();
        assert_eq!(empty.candidates, 0);
        assert_eq!(empty.skip_ratio(), 0.0);
        assert!(!empty.skip_ratio().is_nan());
        // And the ordinary case still divides by the real candidate count.
        let some = PruneStats {
            candidates: 10,
            evaluated: 6,
            skipped_saturated: 4,
        };
        assert_eq!(some.skip_ratio(), 0.4);
    }

    #[test]
    fn improving_grid_covers_every_point_and_never_scores_worse() {
        let p = blocked();
        let pf = Platform::three_level(4096, 512);
        let axes = [
            GridAxis::new(LayerId(1), vec![512u64, 1024, 4096]),
            GridAxis::new(LayerId(2), vec![64u64, 256, 512]),
        ];
        let config = MhlaConfig::default();
        let cold = try_sweep_grid_run(&p, &pf, &axes, &config, &SweepOptions::default())
            .unwrap()
            .sweep;
        let run = try_sweep_grid_run(
            &p,
            &pf,
            &axes,
            &config,
            &SweepOptions {
                mode: SearchMode::Improving,
                ..SweepOptions::default()
            },
        )
        .unwrap();
        assert_eq!(run.sweep.points.len(), cold.points.len());
        assert_eq!(run.winners.len(), cold.points.len());
        assert!(run.evals >= cold.points.len(), "cold leg runs everywhere");
        for (i, (imp, base)) in run.sweep.points.iter().zip(&cold.points).enumerate() {
            assert_eq!(imp.capacities, base.capacities, "lexicographic order");
            assert!(
                imp.objective_score(&config.objective) <= base.objective_score(&config.objective),
                "point {i} regressed"
            );
            if run.winners[i].is_none() {
                assert_eq!(imp.result, base.result, "cold-kept point {i} must be cold");
            }
        }
        assert_eq!(
            run.seed_wins,
            run.winners.iter().filter(|w| w.is_some()).count()
        );
    }

    #[test]
    fn improving_mode_is_deterministic_across_scheduling_options() {
        let p = blocked();
        let pf = Platform::three_level(4096, 512);
        let axes = [
            GridAxis::new(LayerId(1), vec![512u64, 1024, 4096]),
            GridAxis::new(LayerId(2), vec![64u64, 256, 512]),
        ];
        let config = MhlaConfig::default();
        // Improving runs take rank levels with or without a budget; a
        // budget that is never reached must not change the run.
        let improving = |budget| SweepOptions {
            mode: SearchMode::Improving,
            budget,
            ..SweepOptions::default()
        };
        let unbudgeted = improving(ExploreBudget::unlimited());
        let reference = try_sweep_grid_run(&p, &pf, &axes, &config, &unbudgeted).unwrap();
        let stepped = improving(ExploreBudget::max_evals(usize::MAX));
        let other = try_sweep_grid_run(&p, &pf, &axes, &config, &stepped).unwrap();
        assert!(reference.status.is_complete());
        assert_eq!(reference, other);
    }

    #[test]
    fn phase_0_seeds_are_the_committed_axis_neighbours() {
        let axes = vec![vec![128u64, 256, 512], vec![64u64, 128]];
        let layers = [LayerId(1), LayerId(2)];
        let a = Assignment::baseline(1, Default::default());
        let mut b = Assignment::baseline(1, Default::default());
        b.set_home(mhla_ir::ArrayId::from_index(0), LayerId(1));
        for depth in [0, 1] {
            let fine = fine_axes(&axes, depth).unwrap();
            let rf = Refinement {
                lattice: Lattice::new(&fine, &layers, &axes),
                improving: true,
                saturation_armed: false,
                energy_weight: 0.0,
            };
            let lat = &rf.lattice;
            let key = |caps: &[u64]| lat.key_of(caps).unwrap();
            let mut st = RefineState::new(&rf, None).unwrap();
            st.improved.insert(key(&[128, 128]), a.clone());
            st.improved.insert(key(&[256, 64]), b.clone());
            let seeds = |caps: &[u64]| {
                let mut idx = [0; 2];
                lat.unpack(key(caps), &mut idx);
                st.seeds(&rf, key(caps), &idx, 0, &RefineSeeds::Grid)
            };
            // [256, 128]'s neighbors: axis 0 back to [128, 128] (committed
            // as `a`), axis 1 back to [256, 64] (committed as `b`) — one
            // coarse step down, whatever the refinement depth.
            assert_eq!(
                seeds(&[256, 128]),
                vec![
                    (Some(SeedOrigin::Axis(0)), a.clone()),
                    (Some(SeedOrigin::Axis(1)), b.clone()),
                ],
                "depth {depth}"
            );
            // The grid minimum has no neighbors at all; neighbors that
            // were never committed are simply absent.
            assert!(seeds(&[128, 64]).is_empty(), "depth {depth}");
            assert!(seeds(&[512, 128]).is_empty(), "depth {depth}");
            assert_eq!(st.improved.get(&key(&[128, 128])), Some(&a));
        }
    }

    #[test]
    fn grid_handles_degenerate_axis_lists() {
        let p = blocked();
        let pf = Platform::three_level(4096, 512);
        let empty = grid(&p, &pf, &[]);
        assert!(empty.points.is_empty());
        let empty_axis = grid(
            &p,
            &pf,
            &[
                GridAxis::new(LayerId(1), vec![1024u64]),
                GridAxis::new(LayerId(2), Vec::new()),
            ],
        );
        assert!(empty_axis.points.is_empty());
    }

    #[test]
    fn refine_axis_emits_sorted_integer_midpoints() {
        assert_eq!(refine_axis(&[8, 16], 1), vec![8, 12, 16]);
        assert_eq!(refine_axis(&[8, 16], 2), vec![8, 10, 12, 14, 16]);
        // Depth 0 is the coarse axis itself; exhausted integer ranges
        // stop early instead of repeating points.
        assert_eq!(refine_axis(&[8, 16], 0), vec![8, 16]);
        assert_eq!(refine_axis(&[7, 8], 8), vec![7, 8]);
        assert_eq!(refine_axis(&[4], 3), vec![4]);
        // Multi-interval axes refine each adjacent pair independently.
        assert_eq!(refine_axis(&[4, 8, 10], 1), vec![4, 6, 8, 9, 10]);
        // Deep refinement saturates at the full integer range.
        assert_eq!(refine_axis(&[1, 9], 16), (1..=9).collect::<Vec<u64>>());
        // The closed-form length the ingress check counts with.
        for (coarse, depth) in [
            (&[8u64, 16][..], 0),
            (&[8, 16], 1),
            (&[8, 16], 2),
            (&[8, 16], 3),
            (&[7, 8], 8),
            (&[4], 3),
            (&[4, 8, 10], 1),
            (&[1, 9], 16),
            (&[3, 100, 101, 1000], 5),
        ] {
            assert_eq!(
                refine_axis_len(coarse, depth),
                refine_axis(coarse, depth).len() as u64,
                "{coarse:?} at depth {depth}"
            );
        }
    }

    #[test]
    fn refined_small_grid_matches_the_exhaustive_fine_lattice() {
        let p = blocked();
        let pf = Platform::three_level(4096, 512);
        let axes = [
            GridAxis::new(LayerId(1), vec![1024u64, 4096]),
            GridAxis::new(LayerId(2), vec![128u64, 512]),
        ];
        let config = MhlaConfig::default();
        let opts = RefineOptions::default().depth(2);
        let refined = try_sweep_grid_refined_with(&p, &pf, &axes, &config, &opts).unwrap();
        assert!(refined.status.is_complete());
        let fine_axes: Vec<GridAxis> = axes
            .iter()
            .map(|a| GridAxis::new(a.layer, refine_axis(&a.capacities, opts.depth)))
            .collect();
        let exhaustive = grid(&p, &pf, &fine_axes);
        assert_eq!(refined.stats.virtual_points, exhaustive.points.len() as u64);
        assert!(refined.stats.evaluated <= exhaustive.points.len());
        let frontier = |g: &GridSweep, idx: Vec<usize>| -> Vec<GridPoint> {
            idx.into_iter().map(|i| g.points[i].clone()).collect()
        };
        assert_eq!(
            frontier(&refined.sweep, refined.sweep.pareto_cycles()),
            frontier(&exhaustive, exhaustive.pareto_cycles()),
            "cycles frontier"
        );
        assert_eq!(
            frontier(&refined.sweep, refined.sweep.pareto_energy()),
            frontier(&exhaustive, exhaustive.pareto_energy()),
            "energy frontier"
        );
    }

    #[test]
    fn refined_budget_stop_resumes_bit_identically() {
        let p = blocked();
        let pf = Platform::three_level(4096, 512);
        let axes = [
            GridAxis::new(LayerId(1), vec![1024u64, 4096]),
            GridAxis::new(LayerId(2), vec![128u64, 512]),
        ];
        let config = MhlaConfig::default();
        let base = RefineOptions::default().depth(1);
        let uninterrupted = try_sweep_grid_refined_with(&p, &pf, &axes, &config, &base).unwrap();
        assert!(uninterrupted.status.is_complete());
        for max in [1usize, 3, 5] {
            let stopped = try_sweep_grid_refined_with(
                &p,
                &pf,
                &axes,
                &config,
                &base.clone().budget(ExploreBudget::max_evals(max)),
            )
            .unwrap();
            assert_eq!(
                stopped.status.next_lex(),
                Some(stopped.sweep.points.len()),
                "max={max}: the cursor is the committed point count"
            );
            let resumed = try_sweep_grid_refined_resume(&p, &pf, &axes, &config, &base, &stopped)
                .expect("resume");
            assert_eq!(resumed, uninterrupted, "max={max}");
        }
    }

    #[test]
    fn refined_improving_front_dominates_the_cold_front() {
        let p = blocked();
        let pf = Platform::three_level(4096, 512);
        let axes = [
            GridAxis::new(LayerId(1), vec![1024u64, 4096]),
            GridAxis::new(LayerId(2), vec![128u64, 512]),
        ];
        let config = MhlaConfig::default();
        let opts = RefineOptions {
            depth: 1,
            mode: SearchMode::Improving,
            ..RefineOptions::default()
        };
        let improving = try_sweep_grid_refined_with(&p, &pf, &axes, &config, &opts).unwrap();
        assert!(improving.status.is_complete());
        let cold = try_sweep_grid_refined_with(
            &p,
            &pf,
            &axes,
            &config,
            &RefineOptions::default().depth(1),
        )
        .unwrap();
        let surface = |run: &RefinedGridSweep| -> Vec<Vec<f64>> {
            let front = run.sweep.pareto_objective(&config.objective);
            crate::report::objective_coords(&run.sweep, &front, &config.objective)
        };
        assert!(
            pareto::front_dominates(&surface(&improving), &surface(&cold)),
            "the improving refined front dominates-or-equals the cold one"
        );
    }

    #[test]
    fn grid_engines_reject_bad_options() {
        let p = blocked();
        let pf = Platform::three_level(4096, 512);
        let axes = [GridAxis::new(LayerId(1), vec![1024u64, 4096])];
        let config = MhlaConfig::default();
        for depth in [0usize, 17] {
            assert!(matches!(
                try_sweep_grid_refined_with(
                    &p,
                    &pf,
                    &axes,
                    &config,
                    &RefineOptions::default().depth(depth),
                ),
                Err(MhlaError::InvalidOptions { .. })
            ));
        }
        // Two axes on one layer: the later axis would overwrite the
        // earlier one's capacity at every point — every engine refuses
        // with the same typed error.
        let pf = Platform::three_level_default();
        let dup = [
            GridAxis::new(LayerId(1), vec![1024u64, 4096]),
            GridAxis::new(LayerId(1), vec![2048u64, 8192]),
        ];
        let refused = |r: Result<(), MhlaError>| matches!(r, Err(MhlaError::InvalidOptions { .. }));
        let (sweep, prune, refine) = (
            SweepOptions::default(),
            PruneOptions::default(),
            RefineOptions::default(),
        );
        assert!(refused(
            try_sweep_grid_run(&p, &pf, &dup, &config, &sweep).map(drop)
        ));
        let ctx = ExplorationContext::new(&p, &pf, config.clone());
        assert!(refused(
            try_sweep_grid_run_in(&ctx, &pf, &dup, &sweep).map(drop)
        ));
        assert!(refused(
            try_sweep_grid_pruned_with(&p, &pf, &dup, &config, &prune).map(drop)
        ));
        assert!(refused(
            try_sweep_grid_refined_with(&p, &pf, &dup, &config, &refine).map(drop)
        ));
        // A fine lattice whose point count a `u64` cannot hold (the
        // scheduler's packed point keys) is refused before any search:
        // 64 capacities per axis at depth 16 are 4,128,769 fine points
        // per axis, ~7·10¹⁹ in all.
        let wide: Vec<u64> = (1..=64u64).map(|k| k << 20).collect();
        let huge = [1, 2, 3].map(|l| GridAxis::new(LayerId(l), wide.clone()));
        assert!(refused(
            try_sweep_grid_refined_with(
                &p,
                &Platform::four_level_default(),
                &huge,
                &config,
                &refine.clone().depth(16),
            )
            .map(drop)
        ));
    }

    #[test]
    fn refined_handles_degenerate_axis_lists() {
        let p = blocked();
        let pf = Platform::three_level(4096, 512);
        let empty = try_sweep_grid_refined_with(
            &p,
            &pf,
            &[],
            &MhlaConfig::default(),
            &RefineOptions::default(),
        )
        .unwrap();
        assert!(empty.sweep.points.is_empty());
        assert!(empty.status.is_complete());
        // A single-point axis cannot refine but still sweeps cleanly
        // alongside a refining one.
        let single = try_sweep_grid_refined_with(
            &p,
            &pf,
            &[
                GridAxis::new(LayerId(1), vec![4096u64]),
                GridAxis::new(LayerId(2), vec![128u64, 512]),
            ],
            &MhlaConfig::default(),
            &RefineOptions::default().depth(1),
        )
        .unwrap();
        assert!(single.status.is_complete());
        assert!(single
            .sweep
            .points
            .iter()
            .all(|pt| pt.capacities[0] == 4096));
        assert!(single.stats.virtual_points >= 3);
    }

    /// A job the pool tests run twice as a pool's first step: the caller
    /// runs that step alone, and the second run — the helpers' share —
    /// takes [`HANDOFF_AFTER`], so every later step of two or more jobs
    /// is handed off.
    const WARM_UP: usize = usize::MAX;

    /// Lets a job on the caller wait until some job has run on another
    /// thread, so a test knows a helper took part. The wait is bounded,
    /// and after one timeout no job waits again: a pool that never hands
    /// off fails the test's assertions instead of hanging it.
    struct Handshake {
        ran_off_caller: Mutex<bool>,
        signal: Condvar,
    }

    impl Handshake {
        fn new() -> Self {
            Handshake {
                ran_off_caller: Mutex::new(false),
                signal: Condvar::new(),
            }
        }

        fn off_caller(&self) {
            *self.ran_off_caller.lock().unwrap() = true;
            self.signal.notify_all();
        }

        fn wait(&self) {
            let ran = self.ran_off_caller.lock().unwrap();
            let (mut ran, _) = self
                .signal
                .wait_timeout_while(ran, Duration::from_secs(10), |ran| !*ran)
                .unwrap();
            *ran = true;
        }
    }

    #[test]
    fn helper_pool_returns_results_in_job_order() {
        let caller = thread::current().id();
        let handshake = Handshake::new();
        let work = |job: usize| {
            if job == WARM_UP {
                thread::sleep(HANDOFF_AFTER);
                return (job, true);
            }
            let on_caller = thread::current().id() == caller;
            if on_caller {
                handshake.wait();
            } else {
                handshake.off_caller();
            }
            (job * 2, on_caller)
        };
        let steps = with_helpers(Some(1), &work, |pool| {
            pool.run(vec![WARM_UP; 2]);
            (0..4)
                .map(|step| pool.run((step * 10..step * 10 + 8).collect()))
                .collect::<Vec<_>>()
        });
        for (step, results) in steps.iter().enumerate() {
            let doubled: Vec<usize> = results.iter().map(|&(r, _)| r).collect();
            let expected: Vec<usize> = (step * 10..step * 10 + 8).map(|j| j * 2).collect();
            assert_eq!(doubled, expected, "step {step}");
        }
        let on_caller = steps.iter().flatten().filter(|r| r.1).count();
        assert!(on_caller > 0, "the caller ran no job");
        assert!(on_caller < 32, "no helper ran a job");
    }

    #[test]
    fn helper_pool_without_helpers_runs_everything_on_the_caller() {
        let caller = thread::current().id();
        let work = |job: usize| {
            if job == WARM_UP {
                thread::sleep(HANDOFF_AFTER);
            }
            (job, thread::current().id())
        };
        let results = with_helpers(Some(0), &work, |pool| {
            assert!(pool.run(vec![WARM_UP; 2]).iter().all(|r| r.1 == caller));
            (0..3)
                .flat_map(|step| pool.run((step * 5..step * 5 + 5).collect()))
                .collect::<Vec<_>>()
        });
        assert_eq!(
            results.iter().map(|r| r.0).collect::<Vec<_>>(),
            (0..15).collect::<Vec<_>>()
        );
        assert!(results.iter().all(|r| r.1 == caller));
    }

    #[test]
    fn a_job_that_panics_on_a_helper_panics_on_the_caller() {
        let caller = thread::current().id();
        let handshake = Handshake::new();
        let work = |job: usize| {
            if job == WARM_UP {
                thread::sleep(HANDOFF_AFTER);
                return job;
            }
            if thread::current().id() == caller {
                handshake.wait();
                return job;
            }
            handshake.off_caller();
            panic!("job {job} failed on a helper");
        };
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            with_helpers(Some(1), &work, |pool| {
                pool.run(vec![WARM_UP; 2]);
                pool.run((0..8).collect())
            })
        }));
        let payload = outcome.expect_err("the helper's panic reaches the caller");
        let message = payload.downcast_ref::<String>().map_or("", String::as_str);
        assert!(message.ends_with("failed on a helper"), "{message}");
    }

    use mhla_ir::Program;
}
