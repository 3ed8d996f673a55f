//! Reusable per-thread evaluation workspaces.
//!
//! A sweep fans the greedy search out over 10⁵+ grid points; every heap
//! allocation inside one evaluation is multiplied by the whole lattice
//! (and, under `mhla serve`, by the whole worker pool). The
//! [`EvalWorkspace`] owns every scratch buffer one evaluation needs — the
//! per-move trial cache, the contender/sensitivity buffers of the greedy
//! loop, the [`IncPool`] feeding the incremental evaluator, and the spare
//! assignments the portfolio legs start from — so steady-state evaluation
//! reuses allocations across points instead of rebuilding them.
//!
//! **Bit-identity invariant:** every buffer is fully reset before use, so
//! evaluating through a warm (reused) workspace produces byte-for-byte
//! the result of a fresh `EvalWorkspace::default()` — which in turn is
//! byte-for-byte the historical allocating path. The equivalence
//! proptests in `crates/core/tests/` and `tests/sweep_equivalence.rs`
//! pin this.

use mhla_hierarchy::LayerId;

use crate::assign::SearchTrace;
use crate::cost::{ArrayContribution, IncPool, ResidentEvents, TransferStream};
use crate::types::Assignment;

/// Cached trial data of one candidate move: its array's cost contribution
/// and its layer residents under the move's `(home, chain)` state, the
/// residents already located in the program's event-time set
/// ([`ResidentEvents`]) so a capacity probe reads them as they are. Both
/// depend only on that one array's state, so they stay valid across
/// greedy steps (and across the portfolio's legs) as long as the array's
/// home is unchanged — `home` records the home the entry was computed
/// under, `None` meaning *invalid* (the platform changed between sweep
/// points, so every cached price is stale).
#[derive(Debug, Default)]
pub(crate) struct CacheSlot {
    pub(crate) home: Option<LayerId>,
    pub(crate) contrib: ArrayContribution,
    pub(crate) events: Vec<ResidentEvents>,
}

/// Scratch buffers of one evaluation thread, reused across sweep points.
///
/// Construct once per thread (`EvalWorkspace::default()` allocates
/// nothing) and pass to the `_in` run entry points
/// ([`Mhla::run_with_stats_in`](crate::Mhla::run_with_stats_in),
/// [`Mhla::run_with_seeds_in`](crate::Mhla::run_with_seeds_in)); the
/// convenience entry points without a workspace argument build a
/// throwaway one, which is exactly the historical allocating behavior.
#[derive(Debug, Default)]
pub struct EvalWorkspace {
    /// Per-move trial cache of the greedy search, invalidated (not
    /// deallocated) at every portfolio start.
    pub(crate) cache: Vec<CacheSlot>,
    /// Improving feasible moves of the current greedy step:
    /// `(ratio, gain, ratio-scale)`.
    pub(crate) contenders: Vec<(f64, f64, f64)>,
    /// Flat per-contender sensitivity differences (`layer_count` entries
    /// per contender).
    pub(crate) svec_buf: Vec<f64>,
    /// Stream-pricing scratch for cache refills.
    pub(crate) streams: Vec<TransferStream>,
    /// Recyclable buffers of the incremental evaluator.
    pub(crate) pool: IncPool,
    /// The untracked trace warm portfolio legs run under.
    pub(crate) warm_trace: SearchTrace,
    /// Indices (into the seed list) of the warm seeds already searched.
    pub(crate) ran_idx: Vec<usize>,
    /// Spare assignments: losing portfolio legs return theirs here, the
    /// next leg's start state draws from it instead of cloning.
    pub(crate) seed_spares: Vec<Assignment>,
    /// Whole-assignment sensitivity scratch of the baseline-fallback
    /// margin computation (two vectors: outcome side, baseline side).
    pub(crate) sens_a: Vec<f64>,
    pub(crate) sens_b: Vec<f64>,
}

impl EvalWorkspace {
    /// A fresh workspace (no buffers allocated yet — they grow on first
    /// use and are reused from then on).
    pub fn new() -> Self {
        EvalWorkspace::default()
    }

    /// Sizes the trial cache for `n` candidate moves and invalidates
    /// every slot (capacities may have changed since the previous sweep
    /// point, so all cached prices are stale). Slot buffers are kept.
    pub(crate) fn prepare_cache(&mut self, n: usize) {
        self.cache.truncate(n);
        for slot in self.cache.iter_mut() {
            slot.home = None;
        }
        self.cache.resize_with(n, CacheSlot::default);
    }

    /// Draws a start assignment for a portfolio leg, copied from `seed`,
    /// reusing a spare's buffers when one is available.
    pub(crate) fn start_from_seed(&mut self, seed: &Assignment) -> Assignment {
        match self.seed_spares.pop() {
            Some(mut a) => {
                a.copy_from(seed);
                a
            }
            None => seed.clone(),
        }
    }

    /// Draws a baseline start assignment (every array homed off-chip, no
    /// copies), reusing a spare's buffers when one is available.
    pub(crate) fn start_baseline(
        &mut self,
        array_count: usize,
        policy: crate::types::TransferPolicy,
    ) -> Assignment {
        match self.seed_spares.pop() {
            Some(mut a) => {
                a.reset_baseline(array_count, policy);
                a
            }
            None => Assignment::baseline(array_count, policy),
        }
    }

    /// Returns a losing portfolio leg's outcome buffers to the workspace.
    pub(crate) fn recycle_outcome(&mut self, outcome: crate::assign::SearchOutcome) {
        self.seed_spares.push(outcome.assignment);
        self.pool.give_breakdown(outcome.cost);
    }
}
