//! # mhla-core — Memory Hierarchical Layer Assignment with Time Extensions
//!
//! This crate implements the technique of the DATE 2005 paper *"A Memory
//! Hierarchical Layer Assigning and Prefetching Technique to Overcome the
//! Memory Performance/Energy Bottleneck"* (Dasygenis, Brockmeyer, Durinck,
//! Catthoor, Soudris, Thanailakis), on top of the MHLA formulation of
//! DATE 2003 (Brockmeyer et al., reference \[1\] of the paper).
//!
//! The exploration flow has the paper's two steps:
//!
//! 1. **Selection and assignment** ([`assign`]): decide, per array, where it
//!    is homed and which data-reuse copy candidates are staged into which
//!    on-chip layer, subject to layer capacities *after in-place
//!    optimization*, optimizing energy, cycles or a weighted mix
//!    ([`Objective`]). Both the published greedy gain/size steering and an
//!    exhaustive branch-and-bound (for small instances / validation) are
//!    provided.
//! 2. **Time extensions** ([`te`]): the paper's contribution — Figure 1's
//!    greedy algorithm that schedules each copy's DMA block transfers
//!    earlier ("prefetching"), hiding transfer time behind CPU processing
//!    of preceding loops, subject to the on-chip size constraint (extended
//!    copy lifetimes cost buffers) and data dependencies. Platforms without
//!    a memory transfer engine get no extensions, exactly as the paper
//!    notes.
//!
//! There is one public entry per job, each validating its ingress and
//! returning a typed [`MhlaError`] instead of panicking:
//!
//! * one run: [`Mhla::try_new`] + [`Mhla::try_run`]. Every run is a
//!   platform view of one [`ExplorationContext`]: `try_new` builds the
//!   run's own, and [`Mhla::with_context`] + [`Mhla::run_with_stats_in`] /
//!   [`Mhla::run_with_seeds_in`] is the allocation-free per-point form
//!   the sweeps use on a shared one;
//! * exploration ([`explore`]), which sweeps on-chip capacities and
//!   produces the Pareto trade-off points the paper's Figures 2 and 3 are
//!   drawn from: [`explore::try_sweep_grid_run`] /
//!   [`explore::try_sweep_grid_run_in`] (exhaustive grid; one
//!   [`explore::GridAxis`] is the 1-D capacity sweep),
//!   [`explore::try_sweep_grid_pruned_with`] (lossless
//!   pruning), [`explore::try_sweep_grid_refined_with`] (certified
//!   refinement), each with a `try_*_resume` for budget-stopped runs, over
//!   [`explore::default_axes`] unless the caller names its own axes;
//! * multi-task partitioning ([`multitask::try_partition_scratchpad`]),
//!   the paper's stated future work: statically partitioning the
//!   scratchpad among several tasks, each running the full flow in its
//!   partition.
//!
//! [`CostModel`] provides the static cycle/energy estimates
//! ([`ExplorationContext::cost_model`] builds one; the cycle-accurate
//! counterpart lives in `mhla-sim`).
//!
//! # Example
//!
//! ```
//! use mhla_hierarchy::Platform;
//! use mhla_ir::{ElemType, ProgramBuilder};
//! use mhla_core::{MhlaConfig, Mhla};
//!
//! // A table scanned 64 times: staging it on-chip is a clear win.
//! let mut b = ProgramBuilder::new("scan");
//! let tab = b.array("tab", &[256], ElemType::U8);
//! let lr = b.begin_loop("rep", 0, 64, 1);
//! let li = b.begin_loop("i", 0, 256, 1);
//! let iv = b.var(li);
//! b.stmt("s").read(tab, vec![iv]).compute_cycles(2).finish();
//! b.end_loop();
//! b.end_loop();
//! let program = b.finish();
//!
//! let platform = Platform::embedded_default(1024);
//! let result = Mhla::new(&program, &platform, MhlaConfig::default()).run();
//! assert!(result.assignment.copies().len() == 1, "the table is staged");
//! assert!(result.te.applicable, "platform has a DMA engine");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The engine boundary is fallible: user-reachable paths return typed
// [`MhlaError`]s instead of panicking. Surviving `expect`s are internal
// invariants, each carrying an explicit `#[allow]` + justification.
#![warn(clippy::unwrap_used, clippy::expect_used)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod assign;
pub mod context;
pub mod cost;
pub mod error;
pub mod explore;
pub mod fingerprint;
pub mod multitask;
pub mod pareto;
pub mod report;
pub mod te;
pub mod workspace;

mod classify;
mod driver;
mod types;

pub use classify::{classify_arrays, ArrayClass};
pub use context::{ExplorationContext, ProgramFacts};
pub use cost::{ArrayContribution, CostBreakdown, CostModel, IncPool, IncrementalCost, LayerUsage};
pub use driver::{Mhla, MhlaResult, RunStats};
pub use error::{
    validate_config, validate_objective, validate_platform, validate_program, MhlaError,
};
pub use types::{
    Assignment, AssignmentError, MhlaConfig, Objective, SearchStrategy, SelectedCopy,
    TransferPolicy,
};
pub use workspace::EvalWorkspace;
