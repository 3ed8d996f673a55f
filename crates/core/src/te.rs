//! MHLA step 2: Time Extensions — the paper's contribution (Figure 1).
//!
//! Time extensions selectively *prefetch* copy candidates: the DMA
//! initiation of a block transfer (BT) is scheduled earlier so that the
//! transfer overlaps CPU processing of preceding loops, "hiding as much as
//! possible the cycles required in accessing off-chip memory, respecting
//! data dependencies and on-chip size requirements".
//!
//! The algorithm, verbatim from Figure 1:
//!
//! 1. Collect every DMA block transfer; estimate its time `BT_time`,
//!    its sort factor `BT_time / size`, and its *freedom loops* (the loop
//!    levels between the data dependency and the BT, across which the
//!    initiation may legally be hoisted).
//! 2. Sort the BT list by sort factor (descending — most hiding benefit
//!    per byte of buffering first) and process greedily.
//! 3. For each BT, extend loop by loop: every hoisted level adds the CPU
//!    cycles of one of its iterations (`compute_loop_cycles`) to the hidden
//!    window `ext_cycles`, and costs one extra copy buffer (the copy's
//!    lifetime now overlaps its predecessor's — the `fits_size` check
//!    prices this against the layer capacity *after in-place*). Stop when
//!    the size constraint would be violated ("this extension is not valid
//!    and no further actions are performed for this BT") or when
//!    `ext_cycles ≥ BT_time` ("fully time extended").
//! 4. `dma_priority()`: assign DMA service priorities. The paper names but
//!    does not specify this routine; we prioritize by ascending slack
//!    (`ext_cycles − BT_time`), i.e. the least-hidden transfer is served
//!    first — see DESIGN.md.
//!
//! Platforms without a memory transfer engine get `applicable = false` and
//! no extensions ("In case that our architecture does not support a memory
//! transfer engine, TE are not applicable").

use std::collections::HashMap;

use mhla_ir::{AccessKind, LoopId, NodeId};
use mhla_reuse::CandidateId;

use crate::cost::{CostModel, TransferStream};
use crate::types::Assignment;

/// The Time-Extension decision for one block-transfer stream.
#[derive(Clone, PartialEq, Debug)]
pub struct BlockTransfer {
    /// The underlying transfer stream (copy, layers, sizes, entry counts).
    pub stream: TransferStream,
    /// DMA cycles of one steady-state transfer instance.
    pub bt_time: u64,
    /// DMA cycles of a first (full-fill) transfer instance.
    pub bt_time_full: u64,
    /// Figure 1's sort factor: `BT_time / size`.
    pub sort_factor: f64,
    /// Hoistable loop levels, innermost (the owner) first, as bounded by
    /// dependency analysis.
    pub freedom: Vec<LoopId>,
    /// Selected extension depth: 0 = no TE, k = hoisted across the first
    /// `k` freedom loops.
    pub hoist_depth: usize,
    /// CPU cycles the extension hides (`ext_cycles` in Figure 1).
    pub ext_cycles: u64,
    /// Copy buffers required (1 + hoist_depth).
    pub buffers: u32,
    /// Whether `ext_cycles ≥ BT_time` (the transfer is fully hidden in
    /// steady state).
    pub fully_hidden: bool,
    /// DMA service priority (0 = most urgent).
    pub priority: u32,
}

impl BlockTransfer {
    /// Residual stall of one steady-state instance after the extension.
    pub fn residual_stall(&self) -> u64 {
        self.bt_time.saturating_sub(self.ext_cycles)
    }
}

/// Result of the TE step.
#[derive(Clone, PartialEq, Debug)]
pub struct TeSchedule {
    /// Whether the platform supports TE at all (has a DMA engine).
    pub applicable: bool,
    /// Per-stream decisions, in DMA priority order.
    pub transfers: Vec<BlockTransfer>,
}

impl TeSchedule {
    /// Buffer multipliers to feed capacity checks (copies with TE need
    /// `1 + hoist_depth` buffers).
    pub fn buffer_map(&self) -> HashMap<CandidateId, u32> {
        self.transfers
            .iter()
            .filter(|t| t.buffers > 1)
            .map(|t| (t.stream.copy.candidate, t.buffers))
            .collect()
    }

    /// Static estimate of the block-transfer stall cycles remaining after
    /// TE (first fills pay their residual against `bt_time_full`).
    pub fn residual_stall_cycles(&self) -> u64 {
        self.transfers
            .iter()
            .map(|t| {
                let first = t.stream.first_entries * t.bt_time_full.saturating_sub(t.ext_cycles);
                let steady = (t.stream.entries - t.stream.first_entries) * t.residual_stall();
                first + steady
            })
            .sum()
    }

    /// How many transfers got at least one loop of extension.
    pub fn extended_count(&self) -> usize {
        self.transfers.iter().filter(|t| t.hoist_depth > 0).count()
    }
}

/// Runs the TE step (Figure 1) on a fixed assignment.
pub fn plan(model: &CostModel<'_>, assignment: &Assignment) -> TeSchedule {
    plan_with_stats(model, assignment, &mut [])
}

/// [`plan`], additionally recording every layer at which the `fits_size`
/// buffer check overflowed and rejected an extension into that layer's
/// entry of `floors` (the run's per-layer *rejection floors*,
/// [`reject`](crate::types::reject)): the smallest byte requirement of
/// any rejected buffer check there. A layer that never blocked an
/// extension keeps its floor: every stop there was "fully time extended"
/// or exhausted freedom — capacity-independent conditions — so the same
/// schedule reproduces verbatim when only such layers grow (one leg of
/// the pruned grid sweep's saturation argument); a constrained layer
/// grown to a capacity still below its floor rejects the same buffer
/// checks, extending the replay to bounded growth (the trial buffer
/// sizes are capacity-independent). The schedule is byte-for-byte the
/// one [`plan`] returns.
pub(crate) fn plan_with_stats(
    model: &CostModel<'_>,
    assignment: &Assignment,
    floors: &mut [u64],
) -> TeSchedule {
    let streams = model.transfer_streams(assignment);
    let Some(dma) = model.platform().dma() else {
        // No memory transfer engine: TE not applicable (paper, §1).
        let transfers = streams
            .into_iter()
            .map(|stream| no_te(model, stream))
            .collect();
        return TeSchedule {
            applicable: false,
            transfers,
        };
    };

    // --- Figure 1, first loop: build the BT list with times, sort factors
    // and freedom loops. -------------------------------------------------
    let mut bts: Vec<BlockTransfer> = Vec::new();
    for stream in streams {
        let src = model.platform().layer(stream.src);
        let dst = model.platform().layer(stream.dst);
        let steady_bytes = if stream.entries > stream.first_entries {
            stream.steady_bytes
        } else {
            stream.full_bytes
        };
        let bt_time = dma.transfer_cycles(steady_bytes, src, dst);
        let bt_time_full = dma.transfer_cycles(stream.full_bytes, src, dst);
        let size = stream.buffer_bytes.max(1);
        let freedom = model.freedom_loops(stream.copy.candidate).to_vec();
        bts.push(BlockTransfer {
            sort_factor: bt_time as f64 / size as f64,
            bt_time,
            bt_time_full,
            freedom,
            hoist_depth: 0,
            ext_cycles: 0,
            buffers: 1,
            fully_hidden: bt_time == 0,
            priority: 0,
            stream,
        });
    }

    // --- sort(BT_list, BT_sort_factor): greedy order. --------------------
    bts.sort_by(|a, b| {
        b.sort_factor
            .partial_cmp(&a.sort_factor)
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    // --- Figure 1, second loop: extend each BT while it fits. ------------
    let mut buffers: HashMap<CandidateId, u32> = HashMap::new();
    for bt in &mut bts {
        let mut ext_cycles = 0u64;
        let mut hoist = 0usize;
        for (k, &fl) in bt.freedom.iter().enumerate() {
            // fits_size(BT(i), loop): one more buffer for this copy.
            let mut trial = buffers.clone();
            trial.insert(bt.stream.copy.candidate, (k + 2) as u32);
            if let Err(e) = model.check_capacity(assignment, &trial) {
                // Extension not valid: stop extending this BT.
                if let crate::types::AssignmentError::CapacityExceeded {
                    layer, required, ..
                } = e
                {
                    crate::types::reject(floors, layer, required);
                }
                break;
            }
            // cpu_cycles = compute_loop_cycles(): one iteration window of
            // the hoisted level under the current assignment.
            let cpu_cycles = model.cycles_per_iteration(assignment, fl);
            ext_cycles += cpu_cycles;
            hoist = k + 1;
            buffers.insert(bt.stream.copy.candidate, (hoist + 1) as u32);
            if ext_cycles >= bt.bt_time {
                // Fully time extended.
                break;
            }
        }
        bt.hoist_depth = hoist;
        bt.ext_cycles = ext_cycles;
        bt.buffers = (hoist + 1) as u32;
        bt.fully_hidden = ext_cycles >= bt.bt_time;
    }

    // --- dma_priority(): ascending slack, most urgent first. -------------
    bts.sort_by_key(|t| t.ext_cycles as i64 - t.bt_time as i64);
    for (i, bt) in bts.iter_mut().enumerate() {
        bt.priority = i as u32;
    }

    TeSchedule {
        applicable: true,
        transfers: bts,
    }
}

fn no_te(model: &CostModel<'_>, stream: TransferStream) -> BlockTransfer {
    // Without an engine the "transfer time" is CPU copy time; recorded for
    // reporting but never extended.
    let elem = model
        .program()
        .array(stream.copy.candidate.array)
        .elem
        .bytes()
        .max(1);
    let per_elem =
        model.platform().access_cycles(stream.src) + model.platform().access_cycles(stream.dst);
    let bt_time = (stream.steady_bytes / elem) * per_elem;
    let bt_time_full = (stream.full_bytes / elem) * per_elem;
    BlockTransfer {
        sort_factor: bt_time as f64 / stream.buffer_bytes.max(1) as f64,
        bt_time,
        bt_time_full,
        freedom: Vec::new(),
        hoist_depth: 0,
        ext_cycles: 0,
        buffers: 1,
        fully_hidden: false,
        priority: 0,
        stream,
    }
}

/// Dependency analysis (`dep_analysis` + `loops_between` in Figure 1): the
/// loop levels across which one copy candidate's BT initiation may be
/// hoisted. Capacity-independent, so the
/// [`ExplorationContext`](crate::ExplorationContext) derives it once per
/// candidate and the planner reads it from there.
///
/// Walking outward from the owning loop, a level can be crossed only if no
/// statement inside it writes the source array — otherwise the data for
/// the next iteration might not have been produced yet (RAW dependency).
/// Whole-array copies (one fill before the nest) get no freedom loops in
/// this model; their single transfer is charged at startup.
pub(crate) fn candidate_freedom(
    program: &mhla_ir::Program,
    info: &mhla_ir::ProgramInfo<'_>,
    array: mhla_ir::ArrayId,
    owner: Option<LoopId>,
) -> Vec<LoopId> {
    let Some(owner) = owner else {
        return Vec::new();
    };

    let writes_inside = |l: LoopId| -> bool {
        info.subtree_stmts(NodeId::Loop(l)).iter().any(|&s| {
            program
                .stmt(s)
                .accesses
                .iter()
                .any(|a| a.array == array && a.kind == AccessKind::Write)
        })
    };

    let mut freedom = Vec::new();
    let mut level = Some(owner);
    while let Some(l) = level {
        if writes_inside(l) {
            break;
        }
        freedom.push(l);
        level = info.parent(NodeId::Loop(l));
    }
    freedom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{MhlaConfig, SelectedCopy, TransferPolicy};
    use crate::ExplorationContext;
    use mhla_hierarchy::{LayerId, Platform};
    use mhla_ir::{ElemType, Program, ProgramBuilder};
    use mhla_reuse::ReuseAnalysis;

    /// Blocked streaming kernel: each block-loop iteration consumes a
    /// 64-byte tile and computes on it long enough to hide its fetch.
    /// `for blk in 0..32 { for i in 0..64 { read data[64*blk + i] (heavy) } }`
    fn blocked(compute: u64) -> (Program, mhla_ir::ArrayId, LoopId) {
        let mut b = ProgramBuilder::new("blocked");
        let data = b.array("data", &[2048], ElemType::U8);
        let lb = b.begin_loop("blk", 0, 32, 1);
        let li = b.begin_loop("i", 0, 64, 1);
        let (blk, i) = (b.var(lb), b.var(li));
        b.stmt("use")
            .read(data, vec![blk * 64 + i])
            .compute_cycles(compute)
            .finish();
        b.end_loop();
        b.end_loop();
        (b.finish(), data, lb)
    }

    fn staged_assignment(
        p: &Program,
        reuse: &ReuseAnalysis,
        array: mhla_ir::ArrayId,
        at: LoopId,
    ) -> Assignment {
        let idx = reuse
            .array(array)
            .candidates()
            .iter()
            .position(|c| c.at_loop == Some(at))
            .unwrap();
        let mut a = Assignment::baseline(p.array_count(), TransferPolicy::FullRefresh);
        a.add_copy(SelectedCopy {
            candidate: CandidateId { array, index: idx },
            layer: LayerId(1),
        });
        a
    }

    #[test]
    fn te_hides_the_tile_fetch_with_double_buffering() {
        let (p, data, lb) = blocked(4);
        let pf = Platform::embedded_default(1024);
        let ctx = ExplorationContext::new(&p, &pf, MhlaConfig::default());
        let (model, reuse) = (ctx.cost_model(&pf), ctx.reuse());
        let a = staged_assignment(&p, reuse, data, lb);

        let te = plan(&model, &a);
        assert!(te.applicable);
        assert_eq!(te.transfers.len(), 1);
        let bt = &te.transfers[0];
        // One blk iteration: 64 × (4 compute + 1 SPM access) = 320 cycles;
        // BT: 30 setup + 64 B at 0.25 B/cyc = 286 cycles → hidden by one level.
        assert_eq!(bt.bt_time, 286);
        assert_eq!(bt.hoist_depth, 1);
        assert_eq!(bt.ext_cycles, 320);
        assert!(bt.fully_hidden);
        assert_eq!(bt.buffers, 2, "double buffering");
        assert_eq!(te.residual_stall_cycles(), 0);
        assert_eq!(te.buffer_map()[&bt.stream.copy.candidate], 2);
    }

    #[test]
    fn te_extends_deeper_when_one_level_is_not_enough() {
        // Tiny compute: one blk iteration hides only part of the BT.
        let (p, data, lb) = blocked(0);
        let pf = Platform::embedded_default(4096);
        let ctx = ExplorationContext::new(&p, &pf, MhlaConfig::default());
        let (model, reuse) = (ctx.cost_model(&pf), ctx.reuse());
        let a = staged_assignment(&p, reuse, data, lb);
        let te = plan(&model, &a);
        let bt = &te.transfers[0];
        // One blk iteration = 64 SPM accesses = 64 cycles < 286-cycle BT →
        // the greedy walks to the next freedom level.
        assert!(bt.hoist_depth >= 1);
        assert!(bt.ext_cycles >= 64);
    }

    #[test]
    fn size_constraint_blocks_extension() {
        let (p, data, lb) = blocked(4);
        // Exactly one 64-B buffer fits: the double buffer does not.
        let pf = Platform::embedded_default(64);
        let ctx = ExplorationContext::new(&p, &pf, MhlaConfig::default());
        let (model, reuse) = (ctx.cost_model(&pf), ctx.reuse());
        let a = staged_assignment(&p, reuse, data, lb);
        let te = plan(&model, &a);
        let bt = &te.transfers[0];
        assert_eq!(bt.hoist_depth, 0, "no room for a second buffer");
        assert_eq!(bt.ext_cycles, 0);
        assert!(!bt.fully_hidden);
        assert!(te.residual_stall_cycles() > 0);
        assert!(te.buffer_map().is_empty());
    }

    #[test]
    fn raw_dependency_blocks_hoisting() {
        // Producer writes the block consumed in the same blk iteration:
        // prefetching the next tile would read unproduced data.
        let mut b = ProgramBuilder::new("rawdep");
        let data = b.array("data", &[2048], ElemType::U8);
        let lb = b.begin_loop("blk", 0, 32, 1);
        let li = b.begin_loop("i", 0, 64, 1);
        let (blk, i) = (b.var(lb), b.var(li));
        b.stmt("produce")
            .write(data, vec![blk.clone() * 64 + i.clone()])
            .finish();
        b.stmt("consume")
            .read(data, vec![blk * 64 + i])
            .compute_cycles(4)
            .finish();
        b.end_loop();
        b.end_loop();
        let p = b.finish();
        let pf = Platform::embedded_default(1024);
        let ctx = ExplorationContext::new(&p, &pf, MhlaConfig::default());
        let (model, reuse) = (ctx.cost_model(&pf), ctx.reuse());
        let a = staged_assignment(&p, reuse, data, lb);
        let te = plan(&model, &a);
        let bt = &te.transfers[0];
        assert!(bt.freedom.is_empty(), "writes inside block all hoisting");
        assert_eq!(bt.hoist_depth, 0);
    }

    #[test]
    fn no_dma_means_not_applicable() {
        let (p, data, lb) = blocked(4);
        let pf = Platform::without_dma(1024);
        let ctx = ExplorationContext::new(&p, &pf, MhlaConfig::default());
        let (model, reuse) = (ctx.cost_model(&pf), ctx.reuse());
        let a = staged_assignment(&p, reuse, data, lb);
        let te = plan(&model, &a);
        assert!(!te.applicable);
        assert!(te.transfers.iter().all(|t| t.hoist_depth == 0));
        assert_eq!(te.extended_count(), 0);
    }

    #[test]
    fn priorities_serve_least_hidden_first() {
        // Two staged tiles with different compute coverage.
        let mut b = ProgramBuilder::new("two");
        let fat = b.array("fat", &[4096], ElemType::U8);
        let thin = b.array("thin", &[256], ElemType::U8);
        let lb = b.begin_loop("blk", 0, 16, 1);
        // fat: 256-B tile, light compute (hard to hide).
        let lf = b.begin_loop("f", 0, 256, 1);
        let (blk, f) = (b.var(lb), b.var(lf));
        b.stmt("uf").read(fat, vec![blk.clone() * 256 + f]).finish();
        b.end_loop();
        // thin: 16-B tile, heavy compute (easy to hide).
        let lt = b.begin_loop("t", 0, 16, 1);
        let t = b.var(lt);
        b.stmt("ut")
            .read(thin, vec![blk * 16 + t])
            .compute_cycles(32)
            .finish();
        b.end_loop();
        b.end_loop();
        let p = b.finish();
        let pf = Platform::embedded_default(2048);
        let ctx = ExplorationContext::new(&p, &pf, MhlaConfig::default());
        let (model, reuse) = (ctx.cost_model(&pf), ctx.reuse());

        let mut a = Assignment::baseline(p.array_count(), TransferPolicy::FullRefresh);
        for (arr, at) in [(fat, lb), (thin, lb)] {
            let idx = reuse
                .array(arr)
                .candidates()
                .iter()
                .position(|c| c.at_loop == Some(at))
                .unwrap();
            a.add_copy(SelectedCopy {
                candidate: CandidateId {
                    array: arr,
                    index: idx,
                },
                layer: LayerId(1),
            });
        }
        let te = plan(&model, &a);
        assert_eq!(te.transfers.len(), 2);
        // Priority order == ascending slack; the first entry is the most
        // urgent (least hidden) transfer.
        let slack0 = te.transfers[0].ext_cycles as i64 - te.transfers[0].bt_time as i64;
        let slack1 = te.transfers[1].ext_cycles as i64 - te.transfers[1].bt_time as i64;
        assert!(slack0 <= slack1);
        assert_eq!(te.transfers[0].priority, 0);
        assert_eq!(te.transfers[1].priority, 1);
    }

    use mhla_ir::LoopId;
}
