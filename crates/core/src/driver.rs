//! High-level driver tying the two MHLA steps together.

use mhla_hierarchy::Platform;
use mhla_ir::Program;
use std::borrow::Cow;

use mhla_reuse::ReuseAnalysis;

use crate::assign;
use crate::context::ExplorationContext;
use crate::cost::{CostBreakdown, CostModel};
use crate::error::MhlaError;
use crate::te::{self, TeSchedule};
use crate::types::{Assignment, MhlaConfig};
use crate::workspace::EvalWorkspace;

/// The complete result of one MHLA run (both steps) on one platform.
#[derive(Clone, PartialEq, Debug)]
pub struct MhlaResult {
    /// Step-1 output: the selected layer assignment.
    pub assignment: Assignment,
    /// The out-of-the-box (direct placement) assignment.
    pub baseline_assignment: Assignment,
    /// Static cost of the out-of-the-box code.
    pub baseline_cost: CostBreakdown,
    /// Static cost of the assignment with *unhidden* transfers (MHLA bar
    /// of Figure 2).
    pub assignment_cost: CostBreakdown,
    /// Step-2 output: the prefetch schedule (MHLA + TE bar).
    pub te: TeSchedule,
    /// Greedy/exhaustive search steps taken (diagnostics).
    pub search_steps: u64,
}

impl MhlaResult {
    /// Static cycles of the out-of-the-box code.
    pub fn baseline_cycles(&self) -> u64 {
        self.baseline_cost.total_cycles()
    }

    /// Static cycles after step 1 (transfers stall the CPU).
    pub fn mhla_cycles(&self) -> u64 {
        self.assignment_cost.total_cycles()
    }

    /// Static cycle estimate after step 2 (transfers hidden per the TE
    /// schedule; residual stalls remain).
    pub fn mhla_te_cycles(&self) -> u64 {
        self.assignment_cost.ideal_cycles() + self.te.residual_stall_cycles()
    }

    /// The ideal bound: zero-wait block transfers (Figure 2's dashed line).
    pub fn ideal_cycles(&self) -> u64 {
        self.assignment_cost.ideal_cycles()
    }

    /// Memory energy of the out-of-the-box code, picojoule.
    pub fn baseline_energy_pj(&self) -> f64 {
        self.baseline_cost.total_energy_pj()
    }

    /// Memory energy after MHLA, picojoule. TE does not change it (the
    /// model counts memory accesses only, as in the paper).
    pub fn mhla_energy_pj(&self) -> f64 {
        self.assignment_cost.total_energy_pj()
    }
}

/// How the layer capacities bound one production run — the side channel
/// the pruned grid sweep ([`explore`](crate::explore)) uses to recognize
/// *capacity-saturated* directions. Not part of [`MhlaResult`], so results
/// stay byte-for-byte comparable across all run paths.
#[derive(Clone, PartialEq, Debug)]
pub struct RunStats {
    /// Per layer: the run's *gain-bound margin rate* — the largest
    /// write-energy delta `δw_l` (pJ, at energy weight 1) the layer alone
    /// could absorb without flipping any decision of the run. This is the
    /// energy-side saturation rule's per-layer gain-bound data. Growing a
    /// scratchpad raises its read/write/burst energies in lock-step
    /// (`δw = 1.2·δr = δ_burst` under the scaling laws); every
    /// contribution's energy then moves by exactly
    /// `Σ_l δw_l · sensitivity[l]`
    /// ([`ArrayContribution::energy_sensitivity`](crate::ArrayContribution)
    /// — per-layer access-execution and transfer-volume totals of the
    /// cost model), so every decision of the cold greedy search (and the
    /// final baseline-fallback comparison) closes its margin at a known
    /// per-layer risk rate; `gain_margin_rates[l]` is the minimum over
    /// decisions of `margin / risk_l`. Joint growth is admitted by
    /// [`allows_energy_growth`](Self::allows_energy_growth) when
    /// `Σ_l energy_weight · δw_l / gain_margin_rates[l] < 1`: no decision
    /// flips, the run replays move for move, cycles stay equal (within
    /// one latency class) and energy can only rise — the growth is
    /// dominated sight unseen. `INFINITY` where no decision is sensitive
    /// (ties between sensitivity-identical twin moves are exempt — their
    /// gaps are growth-invariant); `0.0` where some decision sits exactly
    /// at a perturbable tie (only perturbation-free growth — the cycles
    /// objective, or growth inside the sub-reference energy-clamp region
    /// — replays then). Empty for untracked runs.
    pub gain_margin_rates: Vec<f64>,
    /// Which external warm seed's leg won the portfolio (index into the
    /// seed list handed to [`Mhla::run_with_seeds_in`]); `None` when the
    /// cold leg was kept (always `None` for untracked runs). The improving
    /// sweep mode uses this to report which grid neighbor seeded each
    /// point's winning search.
    pub winning_seed: Option<usize>,
    /// Greedy search legs executed by the portfolio (cold leg + distinct
    /// warm seeds); `0` for untracked runs. The sweeps aggregate this into
    /// their per-mode evaluation counts.
    pub search_legs: usize,
    /// Per layer: the smallest byte requirement of any capacity rejection
    /// at that layer across the run's three rejection sites (cold greedy
    /// probes at their first-overflow layer, direct placement, TE buffer
    /// checks); `u64::MAX` where the layer never rejected anything. The
    /// one record of how the capacities bound the run, consulted through
    /// [`allows_growth_to`](Self::allows_growth_to). Empty for untracked
    /// runs.
    pub layer_reject_floors: Vec<u64>,
    /// The run tracked constraints at all (greedy strategy only; other
    /// strategies report `false` and are never treated as saturated).
    pub tracked: bool,
}

impl RunStats {
    /// Whether the run provably reproduces itself when the given layer
    /// grows *to* `to_capacity` (bytes) — the per-layer saturation leg of
    /// the pruned and refined sweeps' losslessness argument. Only a
    /// tracked run whose cold leg won replays; then either the layer
    /// never rejected anything (floor `u64::MAX`: every stop there was
    /// capacity-independent, so any growth replays the same assignment,
    /// the same TE schedule, equal cycles under a capacity-independent
    /// cycle landscape, and monotonically ≥ energy), or the grown
    /// capacity still sits strictly below the layer's rejection floor —
    /// every one of the run's failed capacity checks there needed more
    /// bytes than `to_capacity` offers, and the requirements are
    /// capacity-independent, so the same checks fail in the same order and
    /// the run replays verbatim. A layer past the recorded floors admits
    /// nothing.
    pub fn allows_growth_to(&self, layer: mhla_hierarchy::LayerId, to_capacity: u64) -> bool {
        self.cold_kept()
            && self
                .layer_reject_floors
                .get(layer.index())
                .is_some_and(|&floor| floor == u64::MAX || to_capacity < floor)
    }

    /// A tracked run whose cold (baseline-started) leg won the portfolio —
    /// the only runs whose certificates the sweeps keep.
    pub(crate) fn cold_kept(&self) -> bool {
        self.tracked && self.winning_seed.is_none()
    }

    /// Whether the run's decisions provably survive the given per-layer
    /// write-energy growth — `deltas` being `(layer, δw_l)` pairs of the
    /// grown scratchpads. Each decision's total perturbation is a convex
    /// combination of its per-layer allowances, so growth is admitted
    /// when `Σ_l energy_weight · δw_l / gain_margin_rates[l] < 1` (with a
    /// small safety factor absorbing f64 rounding). A perturbation of
    /// exactly zero — the cycles objective, or growth confined to the
    /// sub-reference energy-clamp region — is always admitted; a layer
    /// with no recorded rate (untracked run) admits nothing. A *negative*
    /// energy weight inverts the perturbation direction the one-sided
    /// risk rates were recorded under, so any nonzero perturbation is
    /// refused outright (zero-delta growth still replays bit-identically
    /// and is admitted).
    pub fn allows_energy_growth<I>(&self, deltas: I, energy_weight: f64) -> bool
    where
        I: IntoIterator<Item = (mhla_hierarchy::LayerId, f64)>,
    {
        let mut budget = 0.0f64;
        for (layer, delta_pj) in deltas {
            if delta_pj <= 0.0 || energy_weight == 0.0 {
                continue;
            }
            if energy_weight < 0.0 {
                return false;
            }
            let rate = self
                .gain_margin_rates
                .get(layer.index())
                .copied()
                .unwrap_or(0.0);
            if rate == 0.0 {
                return false;
            }
            budget += energy_weight * delta_pj / rate;
        }
        budget < 1.0 - 1e-9
    }

    /// The conservative default for paths that do not track constraints
    /// (exhaustive search, the frozen reference flow, replayed points of
    /// an exhaustive grid run): never saturated.
    pub(crate) fn unknown() -> Self {
        RunStats {
            gain_margin_rates: Vec::new(),
            winning_seed: None,
            search_legs: 0,
            layer_reject_floors: Vec::new(),
            tracked: false,
        }
    }
}

/// Runs MHLA (assignment + time extensions) on a program/platform pair.
///
/// A run is a platform view of one [`ExplorationContext`]: the reuse
/// analysis, array classification, program facts, TE caches and move
/// space all come from the context, and only the search is per run.
/// [`new`](Mhla::new) builds the run's own context;
/// [`with_context`](Mhla::with_context) borrows a shared one. Borrows the
/// program and platform for the duration of the run; the returned
/// [`MhlaResult`] is owned.
#[derive(Debug)]
pub struct Mhla<'a> {
    ctx: Cow<'a, ExplorationContext<'a>>,
    platform: &'a Platform,
}

impl<'a> Mhla<'a> {
    /// Prepares a run: builds its [`ExplorationContext`] (reuse analysis,
    /// program facts, TE caches, move space) against `platform`.
    pub fn new(program: &'a Program, platform: &'a Platform, config: MhlaConfig) -> Self {
        Mhla {
            ctx: Cow::Owned(ExplorationContext::new(program, platform, config)),
            platform,
        }
    }

    /// Fallible [`new`](Mhla::new): validates the program
    /// ([`Program::validate`]), the platform and the configuration
    /// *before* running the reuse analysis, so malformed inputs arriving
    /// from outside the process are rejected with a typed error instead
    /// of panicking somewhere inside the analysis.
    ///
    /// # Errors
    ///
    /// [`MhlaError::InvalidProgram`] /
    /// [`InvalidOptions`](MhlaError::InvalidOptions) /
    /// [`InvalidObjective`](MhlaError::InvalidObjective).
    pub fn try_new(
        program: &'a Program,
        platform: &'a Platform,
        config: MhlaConfig,
    ) -> Result<Self, MhlaError> {
        crate::error::validate_run_ingress(program, platform, &config)?;
        Ok(Mhla::new(program, platform, config))
    }

    /// Prepares a run over a shared [`ExplorationContext`]: nothing is
    /// derived, so constructing the run (and its cost model) is free. The
    /// configuration is the context's, and `platform` must have the
    /// layer-stack shape the context was built against (its capacities
    /// are free). This is how the capacity/grid sweeps evaluate thousands
    /// of platform variants of one program.
    pub fn with_context(ctx: &'a ExplorationContext<'a>, platform: &'a Platform) -> Self {
        Mhla {
            ctx: Cow::Borrowed(ctx),
            platform,
        }
    }

    /// The reuse analysis (shared with callers that need candidate data).
    pub fn reuse(&self) -> &ReuseAnalysis {
        self.ctx.reuse()
    }

    /// The run configuration.
    pub fn config(&self) -> &MhlaConfig {
        self.ctx.config()
    }

    /// The cost model of this run: the context's facts on this run's
    /// platform.
    pub fn cost_model(&self) -> CostModel<'_> {
        self.ctx.cost_model(self.platform)
    }

    /// Executes both steps and returns the result.
    ///
    /// The reported baseline is the *direct placement* out-of-the-box code
    /// (see [`assign::direct_placement`]): no copies, no in-place, no
    /// prefetching, but data sections linked on-chip where they fit — what
    /// a 2005 toolchain produced without the MHLA tool.
    pub fn run(&self) -> MhlaResult {
        self.run_with_seeds_in(&[], &mut EvalWorkspace::default()).0
    }

    /// Fallible [`run`](Mhla::run): validates the run's ingress before the
    /// search. A run from [`new`](Mhla::new) has already analysed its
    /// program, so untrusted input goes through [`try_new`](Mhla::try_new);
    /// what this check still guards is the platform of a
    /// [`with_context`](Mhla::with_context) run.
    ///
    /// # Errors
    ///
    /// As [`try_new`](Mhla::try_new).
    pub fn try_run(&self) -> Result<MhlaResult, MhlaError> {
        crate::error::validate_run_ingress(self.ctx.program(), self.platform, self.config())?;
        Ok(self.run())
    }

    /// [`run`](Mhla::run), optionally warm-starting the greedy search from
    /// a known-feasible assignment (for example a smaller capacity's
    /// solution), with every evaluation scratch buffer drawn from `ws` —
    /// the per-thread workspace the sweep engines and the serve worker
    /// pool reuse across points/requests. Additionally reports how the
    /// layer capacities bound the run ([`RunStats`]; a pure side channel —
    /// only the greedy strategy tracks constraints, other strategies
    /// report the conservative "unknown", never-saturated stats).
    ///
    /// The warm start is a *portfolio* entry, not a replacement: the
    /// cold (baseline-started) search always runs too, and the
    /// warm-started solution is kept only when it scores strictly better.
    /// Greedy is a local search — continuing from a smaller capacity's
    /// fixed point can get trapped above the cold solution (per-access
    /// energy/latency rescale with capacity, so move gains shift between
    /// points) — and this guarantee makes a warm-started run never score
    /// worse than the cold one. It can score better (on 4-level stacks a
    /// warm leg sometimes wins), which is why the sweeps' cold mode passes
    /// no warm start. Warm starts apply only to the greedy strategy;
    /// exhaustive search ignores them.
    ///
    /// `_moves` is unused: no code reads it, and its value changes
    /// nothing — every run searches its context's move space
    /// ([`ExplorationContext::moves`]). It remains only so that callers
    /// which still pass it compile.
    pub fn run_with_stats_in(
        &self,
        warm: Option<&Assignment>,
        _moves: Option<&assign::MoveSet>,
        ws: &mut EvalWorkspace,
    ) -> (MhlaResult, RunStats) {
        match warm {
            Some(w) => self.run_with_seeds_in(&[w], ws),
            None => self.run_with_seeds_in(&[], ws),
        }
    }

    /// [`run_with_stats_in`](Mhla::run_with_stats_in) over an arbitrary
    /// list of external warm seeds — the per-point search of
    /// [`SearchMode::Improving`](crate::explore::SearchMode). The cold leg
    /// always runs, every distinct seed gets a warm leg, and the best leg
    /// wins (ties prefer cold, then the earliest seed), so the result
    /// provably scores no worse than [`run`](Mhla::run) under the
    /// configured objective. [`RunStats::winning_seed`] names the winner.
    /// Non-greedy strategies ignore the seeds (the portfolio is a greedy
    /// construct) and behave exactly like [`run`](Mhla::run).
    ///
    /// A fresh workspace reproduces the allocating path exactly; a warm
    /// (reused) one is bit-identical because every buffer is reset before
    /// use — so sweep engines keep one workspace per worker thread and
    /// evaluate every grid point through it. Non-greedy strategies ignore
    /// the workspace.
    pub fn run_with_seeds_in(
        &self,
        seeds: &[&Assignment],
        ws: &mut EvalWorkspace,
    ) -> (MhlaResult, RunStats) {
        let model = self.cost_model();
        let config = self.config();
        let (outcome, stats) = match config.strategy {
            crate::types::SearchStrategy::Greedy => {
                assign::greedy_portfolio_seeded_in(&model, config, seeds, self.ctx.moves(), ws)
            }
            _ => (assign::search(&model, config), RunStats::unknown()),
        };
        self.finish(&model, outcome, stats, ws)
    }

    /// The frozen pre-optimization flow: the greedy search re-prices every
    /// candidate move with the full [`CostModel::evaluate`] oracle
    /// ([`assign::greedy_oracle`]) instead of the incremental evaluator.
    ///
    /// Produces the same result as [`run`](Mhla::run); kept as the oracle
    /// the equivalence tests compare against (`sweep_cold` in
    /// `tests/sweep_equivalence.rs`).
    pub fn run_reference(&self) -> MhlaResult {
        let model = self.cost_model();
        let config = self.config();
        let outcome = match config.strategy {
            crate::types::SearchStrategy::Greedy => assign::greedy_oracle(&model, config),
            _ => assign::search(&model, config),
        };
        self.finish(
            &model,
            outcome,
            RunStats::unknown(),
            &mut EvalWorkspace::default(),
        )
        .0
    }

    /// The shared tail of every flow: baseline fallback, Time Extensions,
    /// result assembly. One implementation so the reference and production
    /// paths can only differ in the search itself — which is exactly what
    /// the cold/fast equivalence tests compare. `stats` is the greedy
    /// portfolio's record when the caller tracked one, or the conservative
    /// [`RunStats::unknown`]; direct placement and TE record their
    /// capacity rejections into its floors (a no-op when untracked), so
    /// each floor is the minimum over the run's three rejection sites.
    fn finish(
        &self,
        model: &CostModel<'_>,
        mut outcome: assign::SearchOutcome,
        mut stats: RunStats,
        ws: &mut EvalWorkspace,
    ) -> (MhlaResult, RunStats) {
        let config = self.config();
        let baseline = assign::direct_placement_stats_in(
            model,
            config.policy,
            &mut stats.layer_reject_floors,
            ws,
        );
        // The search is a heuristic and can, on rare corner cases, end in
        // a local optimum worse than the out-of-the-box placement. A real
        // tool never returns an assignment worse than its input: fall back
        // to the baseline when it scores better.
        //
        // This comparison is itself a capacity-perturbable decision: both
        // scores shift when scratchpad energies grow, by exactly the
        // per-layer write-energy deltas times each assignment's energy
        // sensitivity, so the gap closes at per-layer rate
        // |sensitivity difference|. Its margin rates join the search's in
        // `RunStats` so the pruned sweep's replay argument covers the
        // fallback too (identical assignments are exempt — both sides
        // perturb identically, as are layers with equal sensitivity).
        // Only computed when a search trace exists — no tracked margin
        // means no consumer.
        let fallback_gap: Option<f64> = if !stats.tracked
            || config.objective.energy_weight() <= 0.0
            || outcome.assignment == baseline.assignment
        {
            None
        } else {
            // The sensitivity vectors land in the workspace (`sens_a` the
            // outcome side, `sens_b` the baseline side) and are folded
            // into the margin rates below.
            model.assignment_energy_sensitivity_into(
                &outcome.assignment,
                &mut ws.pool,
                &mut ws.sens_a,
            );
            model.assignment_energy_sensitivity_into(
                &baseline.assignment,
                &mut ws.pool,
                &mut ws.sens_b,
            );
            let base_score = config.objective.score(&baseline.cost);
            let out_score = config.objective.score(&outcome.cost);
            // Margins within f64 rounding distance of the score scale are
            // ties (mirrors `SearchTrace::fold`'s tie floor).
            let tie_floor = base_score.abs().max(out_score.abs()).max(1.0) * 1e-9;
            let gap = (base_score - out_score).abs();
            Some(if gap <= tie_floor { 0.0 } else { gap })
        };
        if config.objective.score(&baseline.cost) < config.objective.score(&outcome.cost) {
            outcome = baseline.clone();
        }
        if let Some(gap) = fallback_gap {
            for (rate, (o, b)) in stats
                .gain_margin_rates
                .iter_mut()
                .zip(ws.sens_a.iter().zip(&ws.sens_b))
            {
                let risk = (o - b).abs();
                let f = if risk > 0.0 {
                    gap / risk
                } else {
                    f64::INFINITY
                };
                *rate = rate.min(f);
            }
        }
        let te = if config.disable_te {
            TeSchedule {
                applicable: self.platform.dma().is_some(),
                transfers: Vec::new(),
            }
        } else {
            te::plan_with_stats(model, &outcome.assignment, &mut stats.layer_reject_floors)
        };
        let result = MhlaResult {
            assignment: outcome.assignment,
            baseline_assignment: baseline.assignment,
            baseline_cost: baseline.cost,
            assignment_cost: outcome.cost,
            te,
            search_steps: outcome.steps,
        };
        (result, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhla_ir::{ElemType, ProgramBuilder};

    fn me_like() -> Program {
        let mut b = ProgramBuilder::new("me");
        let cur = b.array("cur", &[16, 144], ElemType::U8);
        let prev = b.array("prev", &[32, 144], ElemType::U8);
        let lmb = b.begin_loop("mb", 0, 9, 1);
        let ldy = b.begin_loop("dy", 0, 8, 1);
        let ly = b.begin_loop("y", 0, 16, 1);
        let lx = b.begin_loop("x", 0, 16, 1);
        let (mb, dy, y, x) = (b.var(lmb), b.var(ldy), b.var(ly), b.var(lx));
        b.stmt("sad")
            .read(cur, vec![y.clone(), mb.clone() * 16 + x.clone()])
            .read(prev, vec![dy + y, mb * 16 + x])
            .compute_cycles(2)
            .finish();
        b.end_loop();
        b.end_loop();
        b.end_loop();
        b.end_loop();
        b.finish()
    }

    #[test]
    fn full_flow_orders_the_four_bars() {
        let p = me_like();
        let pf = Platform::embedded_default(4 * 1024);
        let result = Mhla::new(&p, &pf, MhlaConfig::default()).run();
        // baseline ≥ mhla ≥ mhla+te ≥ ideal — the shape of Figure 2.
        assert!(result.baseline_cycles() > result.mhla_cycles());
        assert!(result.mhla_cycles() >= result.mhla_te_cycles());
        assert!(result.mhla_te_cycles() >= result.ideal_cycles());
        // Energy: MHLA wins, TE leaves it unchanged by construction.
        assert!(result.mhla_energy_pj() < result.baseline_energy_pj());
    }

    #[test]
    fn disable_te_keeps_step1_only() {
        let p = me_like();
        let pf = Platform::embedded_default(4 * 1024);
        let config = MhlaConfig {
            disable_te: true,
            ..MhlaConfig::default()
        };
        let result = Mhla::new(&p, &pf, config).run();
        assert!(result.te.transfers.is_empty());
        assert_eq!(result.mhla_te_cycles(), result.ideal_cycles());
    }

    #[test]
    fn paper_band_sanity_on_me_kernel() {
        // The paper reports 40–60% step-1 gains on ME-class kernels at
        // reasonable scratchpad sizes; our model must land in a generous
        // envelope around that (exact % depends on platform constants).
        let p = me_like();
        let pf = Platform::embedded_default(4 * 1024);
        let result = Mhla::new(&p, &pf, MhlaConfig::default()).run();
        let gain = 1.0 - result.mhla_cycles() as f64 / result.baseline_cycles() as f64;
        assert!(gain > 0.30, "step-1 gain {gain:.2} too small");
        assert!(gain < 0.95, "step-1 gain {gain:.2} implausibly large");
    }

    #[test]
    fn growth_admission_stops_at_the_rejection_floor() {
        use mhla_hierarchy::LayerId;
        let cold = RunStats {
            gain_margin_rates: vec![f64::INFINITY; 3],
            winning_seed: None,
            search_legs: 1,
            layer_reject_floors: vec![u64::MAX, u64::MAX, 100],
            tracked: true,
        };
        assert!(cold.allows_growth_to(LayerId(2), 99));
        assert!(!cold.allows_growth_to(LayerId(2), 100));
        assert!(cold.allows_growth_to(LayerId(1), u64::MAX));
        assert!(!cold.allows_growth_to(LayerId(3), 0));
        let seeded = RunStats {
            winning_seed: Some(0),
            ..cold.clone()
        };
        for run in [seeded, RunStats::unknown()] {
            for layer in 0..4 {
                assert!(!run.allows_growth_to(LayerId(layer), 0), "{run:?}");
            }
        }
    }

    use mhla_ir::Program;
}
