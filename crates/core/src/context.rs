//! Shared, capacity-independent exploration state.
//!
//! The trade-off exploration evaluates one program against many platform
//! variants — the same layer stack with different scratchpad capacities.
//! Almost everything the pipeline derives from the program is *capacity
//! independent*: the reuse analysis, the array classification, the
//! structural program facts (`ProgramInfo`, timeline, per-array access
//! lists), the candidate-move space, and the Time-Extension stream caches
//! (per-candidate transfer geometry and freedom loops).
//!
//! [`ExplorationContext`] computes all of it **once per program** and hands
//! [`Mhla`](crate::Mhla) / [`CostModel`] / [`te::plan`](crate::te::plan)
//! cheap per-platform views: a sweep point borrows the context instead of
//! re-deriving the facts, so the per-point cost collapses to the search
//! itself. It is the only place program facts are built: every run is a
//! platform view of one context — [`Mhla::new`](crate::Mhla::new) builds
//! and owns one, [`Mhla::with_context`](crate::Mhla::with_context) borrows
//! one, and every grid sweep in [`explore`](crate::explore), the one-axis
//! capacity sweep included, borrows one across all its points.

use mhla_hierarchy::Platform;
use mhla_ir::{AccessKind, LoopId, Program, ProgramInfo, StmtId, Timeline};
use mhla_reuse::ReuseAnalysis;

use crate::assign::{self, MoveSet};
use crate::classify::{classify_arrays, ArrayClass};
use crate::cost::{stream_template, CostModel, StreamTemplate};
use crate::types::MhlaConfig;

/// Capacity-independent facts derived from one program (plus its reuse
/// analysis and array classification): everything a [`CostModel`] needs
/// that does not depend on layer capacities.
///
/// Built once by [`ExplorationContext`] and then *borrowed* by every
/// per-platform cost model of that context.
#[derive(Clone, Debug)]
pub struct ProgramFacts<'p> {
    /// Structural program facts (parents, depths, execution counts).
    pub(crate) info: ProgramInfo<'p>,
    /// The program's logical timeline.
    pub(crate) timeline: Timeline,
    /// Array classes (external/internal) in array order.
    pub(crate) classes: Vec<ArrayClass>,
    /// Per statement: executions (cached).
    pub(crate) stmt_execs: Vec<u64>,
    /// Per array: the (statement, access kind) pairs touching it, in
    /// statement/access order. Together with [`stmt_execs`](Self::stmt_execs)
    /// these are the access totals behind every
    /// [`ArrayContribution`](crate::ArrayContribution) — including its
    /// per-layer energy sensitivities, the gain-bound data of the pruned
    /// grid sweep's saturation rule
    /// ([`RunStats`](crate::RunStats)).
    pub(crate) array_accesses: Vec<Vec<(StmtId, AccessKind)>>,
    /// Pure datapath cycles of one program run.
    pub(crate) total_compute: u64,
    /// Sorted, deduped union of every interval endpoint a resident can
    /// have (array spans and candidate spans) — the coordinate set of the
    /// incremental occupancy ledger in
    /// [`IncrementalCost`](crate::IncrementalCost).
    pub(crate) occupancy_times: Vec<u64>,
    /// Time-Extension caches (candidate transfer geometry + freedom
    /// loops).
    pub(crate) te: TeCache,
}

/// Per-candidate Time-Extension caches: the capacity-independent parts of
/// the block-transfer stream derivation.
#[derive(Clone, Debug)]
pub(crate) struct TeCache {
    /// Per `[array][candidate]`: transfer geometry (entry counts, bytes).
    pub(crate) geometry: Vec<Vec<StreamTemplate>>,
    /// Per `[array][candidate]`: the hoistable loop levels, innermost
    /// first, as bounded by dependency analysis.
    pub(crate) freedom: Vec<Vec<Vec<LoopId>>>,
}

impl<'p> ProgramFacts<'p> {
    /// Derives the facts, Time-Extension caches included, from a program,
    /// its reuse analysis and a classification. `O(program size +
    /// candidates)`.
    fn new(program: &'p Program, reuse: &ReuseAnalysis, classes: Vec<ArrayClass>) -> Self {
        let info = program.info();
        let timeline = program.timeline();
        let stmt_execs: Vec<u64> = program
            .stmts()
            .map(|(s, _)| info.stmt_executions(s))
            .collect();
        let total_compute = program
            .roots()
            .iter()
            .map(|&r| info.compute_cycles(r))
            .sum();
        let mut array_accesses = vec![Vec::new(); program.array_count()];
        for (sid, stmt) in program.stmts() {
            for acc in &stmt.accesses {
                array_accesses[acc.array.index()].push((sid, acc.kind));
            }
        }
        let occupancy_times = occupancy_times(program, reuse, &timeline);
        let mut geometry = Vec::with_capacity(program.array_count());
        let mut freedom = Vec::with_capacity(program.array_count());
        for (aid, decl) in program.arrays() {
            let elem = decl.elem.bytes();
            let cands = reuse.array(aid).candidates();
            geometry.push(
                cands
                    .iter()
                    .map(|cc| stream_template(&info, cc, elem))
                    .collect(),
            );
            freedom.push(
                cands
                    .iter()
                    .map(|cc| crate::te::candidate_freedom(program, &info, aid, cc.at_loop))
                    .collect(),
            );
        }
        ProgramFacts {
            info,
            timeline,
            classes,
            stmt_execs,
            array_accesses,
            total_compute,
            occupancy_times,
            te: TeCache { geometry, freedom },
        }
    }
}

/// Every interval endpoint a resident buffer can have: array access spans
/// (on-chip homes) and candidate spans (copy buffers). Sorted and deduped —
/// the incremental occupancy ledger indexes byte deltas by position in this
/// list.
fn occupancy_times(program: &Program, reuse: &ReuseAnalysis, timeline: &Timeline) -> Vec<u64> {
    let mut times = Vec::new();
    for (aid, _) in program.arrays() {
        if let Some(span) = timeline.array_span(aid) {
            times.push(span.start);
            times.push(span.end);
        }
        for cc in reuse.array(aid).candidates() {
            let span = match cc.at_loop {
                Some(l) => timeline.loop_span(l),
                None => match timeline.array_span(aid) {
                    Some(s) => s,
                    None => continue,
                },
            };
            times.push(span.start);
            times.push(span.end);
        }
    }
    times.sort_unstable();
    times.dedup();
    times
}

/// The shared exploration context: one program's capacity-independent
/// facts, computed once and borrowed by every sweep point.
///
/// Owns the reuse analysis, the array classification, the
/// [`ProgramFacts`] (with the TE caches) and the enumerated candidate-move
/// space. The move space depends on the platform's *shape* (which layers
/// are on-chip) but not on layer capacities, so one context serves every
/// capacity variant of the platform it was built against.
///
/// ```
/// use mhla_core::{EvalWorkspace, ExplorationContext, Mhla, MhlaConfig};
/// use mhla_hierarchy::{LayerId, Platform};
/// use mhla_ir::{ElemType, ProgramBuilder};
///
/// let mut b = ProgramBuilder::new("scan");
/// let tab = b.array("tab", &[256], ElemType::U8);
/// b.loop_scope("rep", 0, 64, 1, |b, _| {
///     b.loop_scope("i", 0, 256, 1, |b, li| {
///         let i = b.var(li);
///         b.stmt("s").read(tab, vec![i]).compute_cycles(2).finish();
///     });
/// });
/// let program = b.finish();
///
/// let base = Platform::embedded_default(1024);
/// let ctx = ExplorationContext::new(&program, &base, MhlaConfig::default());
/// let mut ws = EvalWorkspace::new();
/// for capacity in [256u64, 512, 1024] {
///     let pf = base.with_layer_capacity(LayerId(1), capacity);
///     let (result, _) =
///         Mhla::with_context(&ctx, &pf).run_with_stats_in(None, None, &mut ws);
///     assert!(result.mhla_cycles() <= result.baseline_cycles());
/// }
/// ```
#[derive(Clone, Debug)]
pub struct ExplorationContext<'p> {
    program: &'p Program,
    config: MhlaConfig,
    reuse: ReuseAnalysis,
    facts: ProgramFacts<'p>,
    moves: MoveSet,
}

impl<'p> ExplorationContext<'p> {
    /// Builds the context: reuse analysis, classification, program facts,
    /// TE caches and the candidate-move space. `platform` provides the
    /// layer-stack *shape* only; its capacities are irrelevant.
    pub fn new(program: &'p Program, platform: &Platform, config: MhlaConfig) -> Self {
        let reuse = ReuseAnalysis::analyze(program);
        Self::with_reuse(program, platform, config, reuse)
    }

    /// [`new`](Self::new) from an already-computed reuse analysis.
    pub fn with_reuse(
        program: &'p Program,
        platform: &Platform,
        config: MhlaConfig,
        reuse: ReuseAnalysis,
    ) -> Self {
        let classes = classify_arrays(program, &config.class_overrides);
        let facts = ProgramFacts::new(program, &reuse, classes);
        let moves = {
            let model = CostModel::with_facts(program, platform, &reuse, &facts);
            assign::enumerate_moves(&model, &config)
        };
        ExplorationContext {
            program,
            config,
            reuse,
            facts,
            moves,
        }
    }

    /// The analysed program.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The run configuration the context was built for.
    pub fn config(&self) -> &MhlaConfig {
        &self.config
    }

    /// The shared reuse analysis.
    pub fn reuse(&self) -> &ReuseAnalysis {
        &self.reuse
    }

    /// The shared program facts (TE caches included).
    pub fn facts(&self) -> &ProgramFacts<'p> {
        &self.facts
    }

    /// The enumerated candidate-move space, shared across sweep points.
    pub fn moves(&self) -> &MoveSet {
        &self.moves
    }

    /// A cost model for one platform variant, borrowing the shared facts
    /// (no re-derivation). The platform must have the layer-stack shape
    /// the context was built against; its capacities are free. This is
    /// the public way to build a [`CostModel`].
    pub fn cost_model<'s>(&'s self, platform: &'s Platform) -> CostModel<'s> {
        CostModel::with_facts(self.program, platform, &self.reuse, &self.facts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Mhla;
    use crate::types::Assignment;
    use mhla_hierarchy::LayerId;
    use mhla_ir::{ElemType, ProgramBuilder};

    fn scan() -> Program {
        let mut b = ProgramBuilder::new("scan");
        let tab = b.array("tab", &[256], ElemType::U8);
        b.loop_scope("rep", 0, 64, 1, |b, _| {
            b.loop_scope("i", 0, 256, 1, |b, li| {
                let i = b.var(li);
                b.stmt("s").read(tab, vec![i]).compute_cycles(2).finish();
            });
        });
        b.finish()
    }

    #[test]
    fn context_backed_run_matches_standalone() {
        let p = scan();
        let base = Platform::embedded_default(1024);
        let ctx = ExplorationContext::new(&p, &base, MhlaConfig::default());
        for cap in [128u64, 512, 2048] {
            let pf = base.with_layer_capacity(LayerId(1), cap);
            let fresh = Mhla::new(&p, &pf, MhlaConfig::default()).run();
            let (shared, _) = Mhla::with_context(&ctx, &pf).run_with_stats_in(
                None,
                Some(ctx.moves()),
                &mut crate::EvalWorkspace::default(),
            );
            assert_eq!(fresh, shared, "cap {cap}");
        }
    }

    /// One context reused for another capacity variant of its platform
    /// prices like a context built for that variant.
    #[test]
    fn context_cost_model_evaluates_like_a_fresh_one() {
        let p = scan();
        let pf = Platform::embedded_default(512);
        let ctx =
            ExplorationContext::new(&p, &Platform::embedded_default(1024), MhlaConfig::default());
        let fresh_ctx = ExplorationContext::new(&p, &pf, MhlaConfig::default());
        let fresh = fresh_ctx.cost_model(&pf);
        let shared = ctx.cost_model(&pf);
        let a = Assignment::baseline(p.array_count(), Default::default());
        assert_eq!(fresh.evaluate(&a), shared.evaluate(&a));
        assert_eq!(fresh.transfer_streams(&a), shared.transfer_streams(&a));
    }

    #[test]
    fn te_caches_are_populated_for_every_candidate() {
        let p = scan();
        let pf = Platform::embedded_default(1024);
        let ctx = ExplorationContext::new(&p, &pf, MhlaConfig::default());
        let te = &ctx.facts().te;
        for (aid, _) in p.arrays() {
            let n = ctx.reuse().array(aid).candidates().len();
            assert_eq!(te.geometry[aid.index()].len(), n);
            assert_eq!(te.freedom[aid.index()].len(), n);
        }
    }
}
