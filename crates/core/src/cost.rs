//! Static cost model: cycles, energy and capacity usage of an assignment.
//!
//! The model follows the paper's conventions:
//!
//! * **Energy counts memory-hierarchy accesses only** ("in our models we
//!   only consider accesses to the memory hierarchy") — CPU datapath energy
//!   is out of scope, and Time Extensions therefore cannot change energy.
//! * **Cycles** decompose into pure compute, CPU access latency, and block-
//!   transfer time. The step-1 estimate charges the full transfer time as
//!   stall (the CPU waits at each block transfer); the *ideal* bound
//!   charges none of it (every transfer hidden — the paper's "0 wait
//!   cycles block transfer time" line in Figure 2). The TE step and the
//!   simulator land in between.

use std::cell::RefCell;
use std::collections::HashMap;

use mhla_hierarchy::{LayerId, Platform};
use mhla_ir::{AccessKind, ArrayId, LoopId, NodeId, Program, ProgramInfo, StmtId, Timeline};
use mhla_lifetime::{peak_occupancy, Resident};
use mhla_reuse::{CandidateId, CopyCandidate, ReuseAnalysis};

use crate::classify::ArrayClass;
use crate::context::ProgramFacts;
use crate::types::{Assignment, AssignmentError, Objective, SelectedCopy, TransferPolicy};

/// One block-transfer stream: the transfer geometry of one selected copy.
#[derive(Clone, PartialEq, Debug)]
pub struct TransferStream {
    /// The copy this stream feeds.
    pub copy: SelectedCopy,
    /// Layer the data comes from (parent copy's layer or the array home).
    pub src: LayerId,
    /// Layer the copy buffer lives in.
    pub dst: LayerId,
    /// Loop owning the refreshes (`None` for the whole-array copy).
    pub owner: Option<LoopId>,
    /// Buffer size in bytes (one buffer).
    pub buffer_bytes: u64,
    /// Total BT instances per program run.
    pub entries: u64,
    /// How many of the `entries` are *first* entries (full fill); the rest
    /// are steady-state refreshes.
    pub first_entries: u64,
    /// Bytes of a first (full) transfer.
    pub full_bytes: u64,
    /// Bytes of a steady-state transfer under the active policy
    /// (= `full_bytes` for [`TransferPolicy::FullRefresh`]).
    pub steady_bytes: u64,
    /// Write-back bytes per entry (0 for read-only regions).
    pub writeback_bytes: u64,
}

impl TransferStream {
    /// Total bytes moved per program run (fills + refreshes + write-backs).
    pub fn total_bytes(&self) -> u64 {
        self.first_entries * self.full_bytes
            + (self.entries - self.first_entries) * self.steady_bytes
            + self.entries * self.writeback_bytes
    }
}

/// Per-layer capacity usage of an assignment.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LayerUsage {
    /// The layer.
    pub layer: LayerId,
    /// Bytes required after in-place optimization (peak concurrent live).
    pub required: u64,
    /// Bytes required without lifetime sharing (sum of resident sizes).
    pub without_inplace: u64,
    /// Layer capacity (`u64::MAX` for unbounded off-chip).
    pub capacity: u64,
}

impl LayerUsage {
    /// Whether the residents fit.
    pub fn fits(&self) -> bool {
        self.required <= self.capacity
    }
}

/// Cycle and energy totals of an assignment under the static model.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct CostBreakdown {
    /// Pure datapath cycles.
    pub compute_cycles: u64,
    /// CPU memory-access latency cycles.
    pub cpu_access_cycles: u64,
    /// Block-transfer cycles, charged as stall in the step-1 estimate.
    pub transfer_cycles: u64,
    /// Block-transfer instances per program run.
    pub transfer_count: u64,
    /// Energy of CPU accesses, picojoule.
    pub cpu_access_energy_pj: f64,
    /// Energy of block transfers, picojoule.
    pub transfer_energy_pj: f64,
    /// CPU accesses per layer (indexed by layer).
    pub accesses_per_layer: Vec<u64>,
}

impl CostBreakdown {
    /// Step-1 estimate: every block transfer stalls the CPU.
    pub fn total_cycles(&self) -> u64 {
        self.compute_cycles + self.cpu_access_cycles + self.transfer_cycles
    }

    /// Ideal bound: every block transfer fully hidden (the paper's
    /// "0 wait cycles" line).
    pub fn ideal_cycles(&self) -> u64 {
        self.compute_cycles + self.cpu_access_cycles
    }

    /// Total memory energy, picojoule.
    pub fn total_energy_pj(&self) -> f64 {
        self.cpu_access_energy_pj + self.transfer_energy_pj
    }
}

/// The cost contribution of one array under one (home, copy-chain) state:
/// the CPU accesses it serves plus the block transfers of its chain.
///
/// [`CostModel::evaluate`] is the sum of these over all arrays (plus the
/// constant compute cycles); [`IncrementalCost`] re-prices only the touched
/// array's contribution per candidate move.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ArrayContribution {
    /// CPU memory-access latency cycles of this array's accesses.
    pub cpu_access_cycles: u64,
    /// Energy of this array's CPU accesses, picojoule.
    pub cpu_access_energy_pj: f64,
    /// This array's CPU accesses per layer.
    pub accesses_per_layer: Vec<u64>,
    /// Block-transfer cycles of this array's chain.
    pub transfer_cycles: u64,
    /// Block-transfer energy of this array's chain, picojoule.
    pub transfer_energy_pj: f64,
    /// Block-transfer instances of this array's chain.
    pub transfer_count: u64,
    /// Per layer: how many *write-energy units* this contribution charges
    /// the layer — `∂(energy)/∂(write energy of the layer)` under the
    /// scratchpad scaling laws, where one CPU write or one DMA burst
    /// element-end counts 1 and one CPU read counts
    /// `1 / SRAM_WRITE_FACTOR` (reads scale in lock-step with writes:
    /// `E_w = 1.2·E_r`, and burst energy equals write energy). When a
    /// scratchpad layer is resized, this contribution's energy moves by
    /// exactly `Σ_l δw_l · energy_sensitivity[l]` with `δw_l` the layer's
    /// write-energy delta — the *gain-bound* data the pruned grid sweep's
    /// energy-side saturation rule is built on (see
    /// [`RunStats`](crate::RunStats)).
    pub energy_sensitivity: Vec<f64>,
}

impl ArrayContribution {
    /// Zeroes the contribution for `layers` layers, keeping the vector
    /// allocations — the workspace-reuse paths re-price contributions in
    /// place instead of building fresh ones per candidate move.
    pub(crate) fn reset(&mut self, layers: usize) {
        self.cpu_access_cycles = 0;
        self.cpu_access_energy_pj = 0.0;
        self.transfer_cycles = 0;
        self.transfer_energy_pj = 0.0;
        self.transfer_count = 0;
        self.accesses_per_layer.clear();
        self.accesses_per_layer.resize(layers, 0);
        self.energy_sensitivity.clear();
        self.energy_sensitivity.resize(layers, 0.0);
    }
}

impl CostBreakdown {
    /// Adds one array's contribution to the running totals.
    ///
    /// Summation order is canonical (ascending array index) in both
    /// [`CostModel::evaluate`] and [`IncrementalCost`], so incremental
    /// totals are bit-for-bit identical to the oracle's — including the
    /// floating-point energy fields.
    fn absorb(&mut self, c: &ArrayContribution) {
        self.cpu_access_cycles += c.cpu_access_cycles;
        self.cpu_access_energy_pj += c.cpu_access_energy_pj;
        self.transfer_cycles += c.transfer_cycles;
        self.transfer_energy_pj += c.transfer_energy_pj;
        self.transfer_count += c.transfer_count;
        for (total, &a) in self
            .accesses_per_layer
            .iter_mut()
            .zip(&c.accesses_per_layer)
        {
            *total += a;
        }
    }
}

/// Capacity-independent geometry of one candidate's block-transfer
/// stream: entry counts and byte volumes, everything of a
/// [`TransferStream`] that does not depend on the chain's layers or the
/// active refresh policy.
///
/// Derived by [`stream_template`]; the [`ExplorationContext`]
/// (`crate::ExplorationContext`) caches one per candidate, so no run
/// re-derives them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct StreamTemplate {
    /// Total BT instances per program run.
    pub(crate) entries: u64,
    /// How many of the `entries` are *first* entries (full fill).
    pub(crate) first_entries: u64,
    /// Bytes of a first (full) transfer.
    pub(crate) full_bytes: u64,
    /// Steady-state bytes under [`TransferPolicy::SlidingDelta`].
    pub(crate) delta_bytes: u64,
    /// Write-back bytes per entry (0 for read-only regions).
    pub(crate) writeback_bytes: u64,
}

impl StreamTemplate {
    /// Steady-state transfer bytes under a refresh policy.
    pub(crate) fn steady_bytes(&self, policy: TransferPolicy) -> u64 {
        match policy {
            TransferPolicy::FullRefresh => self.full_bytes,
            TransferPolicy::SlidingDelta => self.delta_bytes,
        }
    }
}

/// Derives one candidate's [`StreamTemplate`] (`elem` is the array's
/// element size in bytes) — the transfer geometry the context caches.
pub(crate) fn stream_template(
    info: &ProgramInfo<'_>,
    cc: &CopyCandidate,
    elem: u64,
) -> StreamTemplate {
    let (entries, first_entries) = match cc.at_loop {
        Some(l) => (cc.entries, info.loop_entries(l)),
        None => (1, 1),
    };
    let full_bytes = cc.bytes;
    let delta_bytes = if cc.footprint.exact {
        cc.footprint.delta_elements() * elem
    } else {
        full_bytes
    };
    let writeback_bytes = (cc.writebacks * elem).checked_div(entries).unwrap_or(0);
    StreamTemplate {
        entries,
        first_entries: first_entries.min(entries),
        full_bytes,
        delta_bytes,
        writeback_bytes,
    }
}

/// Static estimator for a fixed (program, platform) pair.
///
/// A per-platform view of one program's derived facts ([`ProgramFacts`]:
/// `ProgramInfo`, timeline, per-array access lists, TE caches), which an
/// [`ExplorationContext`](crate::ExplorationContext) builds once and lends
/// out: [`ExplorationContext::cost_model`](crate::ExplorationContext::cost_model)
/// is the public constructor, and a model costs nothing to construct.
/// [`evaluate`](CostModel::evaluate) prices any assignment in
/// `O(accesses + copies)` with no re-analysis.
#[derive(Debug)]
pub struct CostModel<'a> {
    program: &'a Program,
    platform: &'a Platform,
    reuse: &'a ReuseAnalysis,
    facts: &'a ProgramFacts<'a>,
}

impl<'a> CostModel<'a> {
    /// Builds a cost model over a context's program facts. The facts must
    /// describe `program` and `reuse` (the
    /// [`ExplorationContext`](crate::ExplorationContext) guarantees this).
    pub(crate) fn with_facts(
        program: &'a Program,
        platform: &'a Platform,
        reuse: &'a ReuseAnalysis,
        facts: &'a ProgramFacts<'a>,
    ) -> Self {
        CostModel {
            program,
            platform,
            reuse,
            facts,
        }
    }

    /// The analysed program.
    pub fn program(&self) -> &'a Program {
        self.program
    }

    /// The platform being priced against.
    pub fn platform(&self) -> &'a Platform {
        self.platform
    }

    /// The reuse analysis in use.
    pub fn reuse(&self) -> &'a ReuseAnalysis {
        self.reuse
    }

    /// Array classes (external/internal) in array order.
    pub fn classes(&self) -> &[ArrayClass] {
        &self.facts.classes
    }

    /// The program's logical timeline.
    pub fn timeline(&self) -> &Timeline {
        &self.facts.timeline
    }

    /// The cached structural facts of the program.
    pub fn info(&self) -> &ProgramInfo<'a> {
        &self.facts.info
    }

    /// The full shared fact bundle this model prices against.
    pub fn facts(&self) -> &ProgramFacts<'a> {
        self.facts
    }

    /// A candidate's freedom loops (the TE planner's hoistable levels),
    /// from the context's cache.
    pub(crate) fn freedom_loops(&self, id: CandidateId) -> &[LoopId] {
        &self.facts.te.freedom[id.array.index()][id.index]
    }

    /// The layer serving a given access of a statement: the innermost
    /// selected copy whose region covers the statement, or the array home.
    pub fn serving_layer(&self, assignment: &Assignment, stmt: StmtId, array: ArrayId) -> LayerId {
        let mut layer = assignment.home(array);
        for copy in assignment.copies() {
            if copy.candidate.array != array {
                continue;
            }
            let covers = match self.reuse.candidate(copy.candidate).at_loop {
                None => true,
                Some(l) => self.facts.info.encloses(l, NodeId::Stmt(stmt)),
            };
            if covers {
                layer = layer.max(copy.layer);
            }
        }
        layer
    }

    /// Appends the block-transfer streams of one array's copy chain
    /// (`chain` outermost first, as [`Assignment::copies_of`] returns it).
    fn chain_streams(
        &self,
        home: LayerId,
        chain: &[SelectedCopy],
        policy: TransferPolicy,
        out: &mut Vec<TransferStream>,
    ) {
        let mut src = home;
        for &copy in chain {
            let cc = self.reuse.candidate(copy.candidate);
            let t = self.facts.te.geometry[copy.candidate.array.index()][copy.candidate.index];
            out.push(TransferStream {
                copy,
                src,
                dst: copy.layer,
                owner: cc.at_loop,
                buffer_bytes: cc.bytes,
                entries: t.entries,
                first_entries: t.first_entries,
                full_bytes: t.full_bytes,
                steady_bytes: t.steady_bytes(policy),
                writeback_bytes: t.writeback_bytes,
            });
            src = copy.layer;
        }
    }

    /// Derives the block-transfer streams of an assignment: one per
    /// selected copy, with the source resolved through the chain.
    pub fn transfer_streams(&self, assignment: &Assignment) -> Vec<TransferStream> {
        let mut out = Vec::new();
        for aid in 0..assignment.array_count() {
            let array = ArrayId::from_index(aid);
            let chain = assignment.copies_of(array);
            self.chain_streams(
                assignment.home(array),
                &chain,
                assignment.policy(),
                &mut out,
            );
        }
        out
    }

    /// Cycles and energy to run one stream's transfers (all instances).
    fn price_stream(&self, s: &TransferStream) -> (u64, f64, u64) {
        let src = self.platform.layer(s.src);
        let dst = self.platform.layer(s.dst);
        let elem = self
            .program
            .array(s.copy.candidate.array)
            .elem
            .bytes()
            .max(1);
        let mut cycles = 0u64;
        let mut energy = 0f64;
        let mut count = 0u64;
        let steady_entries = s.entries - s.first_entries;
        match self.platform.dma() {
            Some(dma) => {
                for (n, bytes) in [
                    (s.first_entries, s.full_bytes),
                    (steady_entries, s.steady_bytes),
                    (s.entries, s.writeback_bytes),
                ] {
                    if n == 0 || bytes == 0 {
                        continue;
                    }
                    cycles += n * dma.transfer_cycles(bytes, src, dst);
                    energy += n as f64 * dma.transfer_energy_pj(bytes, elem, src, dst);
                    count += n;
                }
            }
            None => {
                // CPU-performed copy: element loads + stores, blocking.
                let per_elem_cycles =
                    self.platform.access_cycles(s.src) + self.platform.access_cycles(s.dst);
                let per_elem_energy = src.read_energy_pj + dst.write_energy_pj;
                for (n, bytes) in [
                    (s.first_entries, s.full_bytes),
                    (steady_entries, s.steady_bytes),
                    (s.entries, s.writeback_bytes),
                ] {
                    if n == 0 || bytes == 0 {
                        continue;
                    }
                    let elems = bytes / elem;
                    cycles += n * elems * per_elem_cycles;
                    energy += n as f64 * elems as f64 * per_elem_energy;
                    count += n;
                }
            }
        }
        (cycles, energy, count)
    }

    /// Prices one array's (home, chain) state: its CPU accesses plus its
    /// chain's block transfers. `chain` must be ordered outermost first
    /// (ascending layer), as [`Assignment::copies_of`] returns it.
    pub fn array_contribution(
        &self,
        array: ArrayId,
        home: LayerId,
        chain: &[SelectedCopy],
        policy: TransferPolicy,
    ) -> ArrayContribution {
        let mut c = ArrayContribution::default();
        let mut streams = Vec::new();
        self.array_contribution_into(array, home, chain, policy, &mut streams, &mut c);
        c
    }

    /// [`array_contribution`](Self::array_contribution) into caller-owned
    /// buffers: `out` is reset and re-priced in place, `streams` is a
    /// scratch the chain's transfer streams are staged in. The
    /// workspace-reuse evaluation paths price thousands of candidate
    /// moves through two long-lived allocations instead of two per move;
    /// the arithmetic (and its order) is exactly the allocating
    /// method's, so results are bit-identical.
    pub(crate) fn array_contribution_into(
        &self,
        array: ArrayId,
        home: LayerId,
        chain: &[SelectedCopy],
        policy: TransferPolicy,
        streams: &mut Vec<TransferStream>,
        out: &mut ArrayContribution,
    ) {
        let c = out;
        c.reset(self.platform.layer_count());
        for &(sid, kind) in &self.facts.array_accesses[array.index()] {
            let execs = self.facts.stmt_execs[sid.index()];
            let mut layer = home;
            for copy in chain {
                let covers = match self.reuse.candidate(copy.candidate).at_loop {
                    None => true,
                    Some(l) => self.facts.info.encloses(l, NodeId::Stmt(sid)),
                };
                if covers {
                    layer = layer.max(copy.layer);
                }
            }
            let l = self.platform.layer(layer);
            c.cpu_access_cycles += execs * self.platform.access_cycles(layer);
            c.cpu_access_energy_pj += execs as f64 * l.access_energy_pj(kind == AccessKind::Write);
            c.accesses_per_layer[layer.index()] += execs;
            c.energy_sensitivity[layer.index()] += if kind == AccessKind::Write {
                execs as f64
            } else {
                execs as f64 / mhla_hierarchy::energy::SRAM_WRITE_FACTOR
            };
        }
        streams.clear();
        self.chain_streams(home, chain, policy, streams);
        let has_dma = self.platform.dma().is_some();
        for stream in streams.iter() {
            let (cycles, energy, count) = self.price_stream(stream);
            c.transfer_cycles += cycles;
            c.transfer_energy_pj += energy;
            c.transfer_count += count;
            // Transfer sensitivity: each moved element is one read at the
            // source and one write at the destination — at burst energy
            // (= write energy) per end under DMA, at CPU read/write energy
            // on the CPU-copy path. Element counts mirror `price_stream`
            // exactly (integer division per instance kind).
            let elem = self
                .program
                .array(stream.copy.candidate.array)
                .elem
                .bytes()
                .max(1);
            let steady_entries = stream.entries - stream.first_entries;
            let mut elems = 0u64;
            for (n, bytes) in [
                (stream.first_entries, stream.full_bytes),
                (steady_entries, stream.steady_bytes),
                (stream.entries, stream.writeback_bytes),
            ] {
                if n == 0 || bytes == 0 {
                    continue;
                }
                elems += n * (bytes / elem);
            }
            let src_units = if has_dma {
                elems as f64
            } else {
                elems as f64 / mhla_hierarchy::energy::SRAM_WRITE_FACTOR
            };
            c.energy_sensitivity[stream.src.index()] += src_units;
            c.energy_sensitivity[stream.dst.index()] += elems as f64;
        }
    }

    /// The whole-assignment energy sensitivity, written into `out` through
    /// pooled scratch: per layer, the sum of every array's
    /// [`ArrayContribution::energy_sensitivity`] — how many write-energy
    /// units the assignment's total energy moves per unit of the layer's
    /// write-energy delta. Used by the driver to record a decision margin
    /// for the baseline-fallback comparison; allocation-free.
    pub(crate) fn assignment_energy_sensitivity_into(
        &self,
        assignment: &Assignment,
        pool: &mut IncPool,
        out: &mut Vec<f64>,
    ) {
        out.clear();
        out.resize(self.platform.layer_count(), 0.0);
        for aid in 0..assignment.array_count() {
            let array = ArrayId::from_index(aid);
            assignment.copies_of_into(array, &mut pool.chain);
            self.array_contribution_into(
                array,
                assignment.home(array),
                &pool.chain,
                assignment.policy(),
                &mut pool.streams,
                &mut pool.trial,
            );
            for (total, s) in out.iter_mut().zip(&pool.trial.energy_sensitivity) {
                *total += s;
            }
        }
    }

    /// Prices an assignment under the static model.
    ///
    /// This is the oracle the incremental evaluator is validated against:
    /// it sums [`array_contribution`](CostModel::array_contribution)s in
    /// ascending array order, the same canonical order
    /// [`IncrementalCost`] maintains.
    pub fn evaluate(&self, assignment: &Assignment) -> CostBreakdown {
        let mut b = CostBreakdown {
            compute_cycles: self.facts.total_compute,
            accesses_per_layer: vec![0; self.platform.layer_count()],
            ..CostBreakdown::default()
        };
        for aid in 0..assignment.array_count() {
            let array = ArrayId::from_index(aid);
            let chain = assignment.copies_of(array);
            b.absorb(&self.array_contribution(
                array,
                assignment.home(array),
                &chain,
                assignment.policy(),
            ));
        }
        b
    }

    /// [`evaluate`](CostModel::evaluate) pricing through pooled scratch
    /// buffers instead of per-array allocations. Bit-identical to
    /// `evaluate` (same contributions absorbed in the same ascending
    /// array order); used by the driver's result-assembly tail so the
    /// sweep hot path prices the direct-placement baseline without
    /// rebuilding chain/stream/contribution vectors per point.
    pub(crate) fn evaluate_in(&self, assignment: &Assignment, pool: &mut IncPool) -> CostBreakdown {
        let mut b = CostBreakdown {
            compute_cycles: self.facts.total_compute,
            accesses_per_layer: vec![0; self.platform.layer_count()],
            ..CostBreakdown::default()
        };
        for aid in 0..assignment.array_count() {
            let array = ArrayId::from_index(aid);
            assignment.copies_of_into(array, &mut pool.chain);
            self.array_contribution_into(
                array,
                assignment.home(array),
                &pool.chain,
                assignment.policy(),
                &mut pool.streams,
                &mut pool.trial,
            );
            b.absorb(&pool.trial);
        }
        b
    }

    /// CPU cycles of ONE iteration of `loop_id` under an assignment:
    /// compute plus access latencies of everything executed inside, with
    /// no block-transfer time (that is what Time Extensions hide the
    /// transfers *behind* — Figure 1's `compute_loop_cycles()`).
    pub fn cycles_per_iteration(&self, assignment: &Assignment, loop_id: LoopId) -> u64 {
        let info = &self.facts.info;
        let iterations = info.loop_iterations(loop_id).max(1);
        let mut total = 0u64;
        for s in info.subtree_stmts(NodeId::Loop(loop_id)) {
            let execs = self.facts.stmt_execs[s.index()];
            let stmt = self.program.stmt(s);
            let mut per_exec = stmt.compute_cycles;
            for acc in &stmt.accesses {
                let layer = self.serving_layer(assignment, s, acc.array);
                per_exec += self.platform.access_cycles(layer);
            }
            total += execs * per_exec;
        }
        total / iterations
    }

    /// The residents occupying one layer under an assignment.
    ///
    /// `buffers` gives the buffer multiplier per copy (Time Extensions
    /// request 2+ for prefetched copies); copies absent from the map hold a
    /// single buffer.
    pub fn residents(
        &self,
        assignment: &Assignment,
        layer: LayerId,
        buffers: &HashMap<CandidateId, u32>,
    ) -> Vec<Resident> {
        let mut out = Vec::new();
        for (aid, _) in self.program.arrays() {
            if assignment.home(aid) == layer && layer.index() != 0 {
                if let Some(r) = Resident::for_array(self.program, &self.facts.timeline, aid) {
                    out.push(r);
                }
            }
        }
        for copy in assignment.copies() {
            if copy.layer != layer {
                continue;
            }
            let cc = self.reuse.candidate(copy.candidate);
            let mult = buffers.get(&copy.candidate).copied().unwrap_or(1).max(1);
            if let Some(mut r) = Resident::for_candidate(
                self.program,
                &self.facts.timeline,
                copy.candidate,
                cc,
                false,
            ) {
                r.bytes *= mult as u64;
                out.push(r);
            }
        }
        out
    }

    /// Capacity usage per layer (after in-place) with the given buffer
    /// multipliers.
    pub fn layer_usage(
        &self,
        assignment: &Assignment,
        buffers: &HashMap<CandidateId, u32>,
    ) -> Vec<LayerUsage> {
        self.platform
            .layers()
            .map(|(lid, layer)| {
                let residents = self.residents(assignment, lid, buffers);
                LayerUsage {
                    layer: lid,
                    required: peak_occupancy(&residents),
                    without_inplace: residents.iter().map(|r| r.bytes).sum(),
                    capacity: layer.capacity.unwrap_or(u64::MAX),
                }
            })
            .collect()
    }

    /// Checks that every layer fits its residents (after in-place).
    ///
    /// # Errors
    ///
    /// Returns [`AssignmentError::CapacityExceeded`] for the first overfull
    /// layer.
    pub fn check_capacity(
        &self,
        assignment: &Assignment,
        buffers: &HashMap<CandidateId, u32>,
    ) -> Result<(), AssignmentError> {
        for usage in self.layer_usage(assignment, buffers) {
            if !usage.fits() {
                return Err(AssignmentError::CapacityExceeded {
                    layer: usage.layer,
                    required: usage.required,
                    capacity: usage.capacity,
                });
            }
        }
        Ok(())
    }

    /// The residents one array's (home, chain) state places on each layer,
    /// single-buffered (the step-1 search never double-buffers; Time
    /// Extensions price extra buffers through the full path).
    ///
    /// Like [`array_contribution`](CostModel::array_contribution), this
    /// depends only on the one array's state — the greedy search caches
    /// it per candidate move, located in the event-time set
    /// (`array_events_into`).
    pub fn array_residents(
        &self,
        array: ArrayId,
        home: LayerId,
        chain: &[SelectedCopy],
    ) -> Vec<(LayerId, Resident)> {
        let mut out = Vec::new();
        self.for_each_array_resident(array, home, chain, |layer, r| out.push((layer, r)));
        out
    }

    /// Calls `f` on every resident of [`array_residents`](Self::array_residents),
    /// in the same order, without collecting them.
    fn for_each_array_resident(
        &self,
        array: ArrayId,
        home: LayerId,
        chain: &[SelectedCopy],
        mut f: impl FnMut(LayerId, Resident),
    ) {
        if home.index() != 0 {
            if let Some(r) = Resident::for_array(self.program, &self.facts.timeline, array) {
                f(home, r);
            }
        }
        for copy in chain {
            let cc = self.reuse.candidate(copy.candidate);
            if let Some(r) = Resident::for_candidate(
                self.program,
                &self.facts.timeline,
                copy.candidate,
                cc,
                false,
            ) {
                f(copy.layer, r);
            }
        }
    }

    /// The occupancy-ledger events of one array's (home, chain) state:
    /// its [`array_residents`](Self::array_residents), each located in
    /// the event-time set, into a caller-owned buffer (cleared first).
    /// The greedy search indexes a trial once, when it fills the trial's
    /// cache slot, so no capacity probe pays for a binary search.
    pub(crate) fn array_events_into(
        &self,
        array: ArrayId,
        home: LayerId,
        chain: &[SelectedCopy],
        out: &mut Vec<ResidentEvents>,
    ) {
        out.clear();
        self.for_each_array_resident(array, home, chain, |layer, r| {
            out.extend(self.resident_events(layer, &r));
        });
    }

    /// One resident located in the event-time set; `None` when it
    /// occupies nothing on chip (off-chip, zero bytes or an empty
    /// interval).
    fn resident_events(&self, layer: LayerId, r: &Resident) -> Option<ResidentEvents> {
        if layer.index() == 0 || r.bytes == 0 || r.interval.is_empty() {
            return None;
        }
        Some(ResidentEvents {
            slot: layer.index() - 1,
            start: self.time_index(r.interval.start),
            end: self.time_index(r.interval.end),
            bytes: r.bytes as i64,
        })
    }

    /// Index of an endpoint in the precomputed event-time set. Every
    /// resident the cost model can produce has its endpoints in the set.
    fn time_index(&self, t: u64) -> usize {
        // Internal invariant, not user-reachable: ProgramFacts
        // precomputes the endpoint set of every resident the cost model
        // can produce.
        #[allow(clippy::expect_used)]
        self.facts
            .occupancy_times
            .binary_search(&t)
            .expect("resident endpoint missing from precomputed occupancy times")
    }
}

/// One on-chip resident as the occupancy ledger books it: the layer slot
/// (`LayerId(slot + 1)`), the positions of its interval's endpoints in the
/// program's event-time set, and its bytes.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct ResidentEvents {
    slot: usize,
    start: usize,
    end: usize,
    bytes: i64,
}

impl ResidentEvents {
    /// Adds `sign` times this resident's events to a delta table of
    /// `times`-wide rows, one per slot.
    fn book(&self, table: &mut [i64], times: usize, sign: i64) {
        let row = self.slot * times;
        table[row + self.start] += sign * self.bytes;
        table[row + self.end] -= sign * self.bytes;
    }
}

/// Peak of one layer's delta row: max prefix sum (and ≥ 0, matching
/// [`peak_occupancy`]'s empty-pool behavior).
fn peak(delta: &[i64]) -> u64 {
    let mut cur = 0i64;
    let mut peak = 0i64;
    for &d in delta {
        cur += d;
        peak = peak.max(cur);
    }
    peak as u64
}

/// Per-layer incremental peak-occupancy ledger.
///
/// Every resident interval endpoint comes from a small, program-fixed set
/// (array access spans and candidate spans — precomputed as
/// `ProgramFacts::occupancy_times`). The ledger keeps, per on-chip layer, a
/// row of byte deltas indexed by position in that sorted time set; the
/// peak occupancy is the running maximum of its prefix sums — exactly what
/// [`peak_occupancy`] computes from a resident pool, without materializing
/// the pool. Residents arrive pre-located ([`ResidentEvents`]), so booking
/// and probing never search the time set.
///
/// A capacity probe asks for the peaks with one array's committed
/// residents swapped for a trial's. The ledger answers it against a
/// *probe base* ([`ProbeBase`]): the committed rows with that array's
/// residents taken out, plus each row's peak. The base is built on the
/// first probe of an array and kept until the next probe of another array
/// or the next booking; the greedy search enumerates its options grouped
/// by array, so that is one build per array per step. A probe then
/// re-scans only the rows the trial places residents on and reads the
/// base peak for every other row.
#[derive(Debug)]
struct OccupancyLedger {
    /// Length of one row: the size of the event-time set.
    times: usize,
    /// On-chip layer capacities by slot (`u64::MAX` when unbounded).
    capacities: Vec<u64>,
    /// Committed byte deltas, one row of `times` entries per slot.
    deltas: Vec<i64>,
    /// The probe base, rebuilt on demand by the `&self` probes.
    base: RefCell<ProbeBase>,
}

/// The committed occupancy rows with one array's residents taken out —
/// the part of a capacity probe that every trial state of that array
/// shares.
#[derive(Debug, Default)]
struct ProbeBase {
    /// The array whose residents `deltas` leaves out; `None` when no base
    /// is built (at construction, and after every booking).
    array: Option<ArrayId>,
    /// The committed rows minus the array's residents.
    deltas: Vec<i64>,
    /// Per slot: the peak of the base row.
    peaks: Vec<u64>,
    /// One base row plus a trial's residents, re-scanned per probe.
    trial_row: Vec<i64>,
}

impl OccupancyLedger {
    /// Builds an empty ledger, drawing its buffers from `pool`.
    fn new_in(model: &CostModel<'_>, pool: &mut IncPool) -> Self {
        let times = model.facts().occupancy_times.len();
        let mut capacities = std::mem::take(&mut pool.capacities);
        capacities.clear();
        capacities.extend(
            model
                .platform()
                .on_chip_layers()
                .map(|(_, l)| l.capacity.unwrap_or(u64::MAX)),
        );
        let mut deltas = std::mem::take(&mut pool.deltas);
        deltas.clear();
        deltas.resize(capacities.len() * times, 0);
        let mut base = std::mem::take(&mut pool.base);
        base.array = None;
        OccupancyLedger {
            times,
            capacities,
            deltas,
            base: RefCell::new(base),
        }
    }

    /// Returns the ledger's buffers to `pool` for the next evaluator.
    fn recycle(self, pool: &mut IncPool) {
        pool.capacities = self.capacities;
        pool.deltas = self.deltas;
        pool.base = self.base.into_inner();
    }

    /// One slot's row of a delta table laid out like `deltas`.
    fn row<'d>(&self, table: &'d [i64], slot: usize) -> &'d [i64] {
        &table[slot * self.times..(slot + 1) * self.times]
    }

    /// Books (`sign = 1`) or unbooks (`sign = -1`) one resident's events,
    /// dropping the probe base.
    fn apply(&mut self, e: &ResidentEvents, sign: i64) {
        e.book(&mut self.deltas, self.times, sign);
        self.base.get_mut().array = None;
    }

    /// Capacity probe: the peak of every on-chip layer with `committed`
    /// (the residents `array` has booked) swapped for `trial`. `Err` names
    /// the first overflowing layer (in platform order) together with the
    /// bytes the trial state needs there — a capacity-independent
    /// requirement, so any capacity still below it provably rejects the
    /// same probe. `Ok` is the summed on-chip requirement.
    fn probe(
        &self,
        array: ArrayId,
        committed: &[ResidentEvents],
        trial: &[ResidentEvents],
    ) -> Result<u64, (LayerId, u64)> {
        let mut guard = self.base.borrow_mut();
        let base = &mut *guard;
        if base.array != Some(array) {
            base.array = Some(array);
            base.deltas.clear();
            base.deltas.extend_from_slice(&self.deltas);
            for e in committed {
                e.book(&mut base.deltas, self.times, -1);
            }
            base.peaks.clear();
            base.peaks
                .extend((0..self.capacities.len()).map(|slot| peak(self.row(&base.deltas, slot))));
        }
        let mut total = 0u64;
        for (slot, &capacity) in self.capacities.iter().enumerate() {
            let required = if trial.iter().any(|e| e.slot == slot) {
                base.trial_row.clear();
                base.trial_row
                    .extend_from_slice(self.row(&base.deltas, slot));
                for e in trial.iter().filter(|e| e.slot == slot) {
                    base.trial_row[e.start] += e.bytes;
                    base.trial_row[e.end] -= e.bytes;
                }
                peak(&base.trial_row)
            } else {
                base.peaks[slot]
            };
            if required > capacity {
                return Err((LayerId(slot + 1), required));
            }
            total += required;
        }
        Ok(total)
    }

    /// Total on-chip bytes required by the committed state.
    fn onchip_required(&self) -> u64 {
        (0..self.capacities.len())
            .map(|slot| peak(self.row(&self.deltas, slot)))
            .sum()
    }
}

/// Recyclable buffers of an [`IncrementalCost`] evaluator.
///
/// One greedy search leg builds an evaluator (per-array contributions,
/// per-array resident events, the occupancy ledger's rows and probe base)
/// and tears it down again; a sweep runs thousands of legs over the same
/// program. The pool carries those buffers from one evaluator to the
/// next — [`IncrementalCost::new_in`] draws from it,
/// [`IncrementalCost::into_parts`] returns to it — so steady-state legs
/// reuse every allocation. A fresh default pool reproduces the
/// allocating path exactly; results are bit-identical either way (the
/// buffers are fully reset before use).
#[derive(Debug, Default)]
pub struct IncPool {
    contribs: Vec<ArrayContribution>,
    events: Vec<Vec<ResidentEvents>>,
    capacities: Vec<u64>,
    deltas: Vec<i64>,
    base: ProbeBase,
    streams: Vec<TransferStream>,
    chain: Vec<SelectedCopy>,
    current: CostBreakdown,
    trial: ArrayContribution,
}

impl IncPool {
    /// Recycles a [`CostBreakdown`] (typically a losing search leg's)
    /// into the pool so the next evaluator's running total reuses its
    /// per-layer vector.
    pub(crate) fn give_breakdown(&mut self, b: CostBreakdown) {
        self.current = b;
    }
}

/// Incremental re-pricing of single-array moves over a working assignment.
///
/// The greedy search evaluates hundreds of candidate moves per step, each
/// touching exactly one array. The full [`CostModel::evaluate`] re-prices
/// every access of every array; this evaluator caches the per-array
/// [`ArrayContribution`]s and layer residents, so a candidate move costs
/// `O(accesses-of-that-array)` to price, and a capacity probe re-scans
/// only the layers the trial occupies, against a per-array base of the
/// occupancy ledger (`OccupancyLedger`) — no assignment clone, no
/// timeline re-walk, no resident-pool rebuild.
///
/// Totals are maintained by re-summing the cached contributions in
/// ascending array order, the exact summation order of the oracle, so
/// [`cost`](IncrementalCost::cost) is **bit-for-bit identical** to
/// `model.evaluate(assignment)` at every point (see the equivalence
/// proptests in `crates/core/tests/`). The greedy search prices its
/// trial moves as scores only (`trial_score`): the same additions in the
/// same order, without building a [`CostBreakdown`].
#[derive(Debug)]
pub struct IncrementalCost<'m, 'a> {
    model: &'m CostModel<'a>,
    assignment: Assignment,
    contribs: Vec<ArrayContribution>,
    /// Per array: the ledger events of the residents its current state
    /// places.
    events: Vec<Vec<ResidentEvents>>,
    occupancy: OccupancyLedger,
    current: CostBreakdown,
    /// Stream-pricing scratch for in-place contribution refills.
    streams: Vec<TransferStream>,
}

impl<'m, 'a> IncrementalCost<'m, 'a> {
    /// Builds the evaluator, pricing `assignment` once in full.
    pub fn new(model: &'m CostModel<'a>, assignment: Assignment) -> Self {
        IncrementalCost::new_in(model, assignment, &mut IncPool::default())
    }

    /// [`new`](Self::new) drawing every internal buffer from `pool` —
    /// the allocation-free construction of the workspace-reuse paths.
    pub fn new_in(model: &'m CostModel<'a>, assignment: Assignment, pool: &mut IncPool) -> Self {
        let policy = assignment.policy();
        let n = assignment.array_count();
        let mut contribs = std::mem::take(&mut pool.contribs);
        contribs.resize_with(n, ArrayContribution::default);
        let mut events = std::mem::take(&mut pool.events);
        events.resize_with(n, Vec::new);
        let mut streams = std::mem::take(&mut pool.streams);
        let mut chain = std::mem::take(&mut pool.chain);
        let mut occupancy = OccupancyLedger::new_in(model, pool);
        for aid in 0..n {
            let array = ArrayId::from_index(aid);
            assignment.copies_of_into(array, &mut chain);
            let home = assignment.home(array);
            model.array_contribution_into(
                array,
                home,
                &chain,
                policy,
                &mut streams,
                &mut contribs[aid],
            );
            model.array_events_into(array, home, &chain, &mut events[aid]);
            for e in &events[aid] {
                occupancy.apply(e, 1);
            }
        }
        pool.chain = chain;
        let mut inc = IncrementalCost {
            model,
            assignment,
            contribs,
            events,
            occupancy,
            current: std::mem::take(&mut pool.current),
            streams,
        };
        inc.refresh_total();
        inc
    }

    /// Tears the evaluator down into its committed `(assignment, cost)`
    /// pair, returning every internal buffer to `pool` for the next
    /// [`new_in`](Self::new_in).
    pub fn into_parts(self, pool: &mut IncPool) -> (Assignment, CostBreakdown) {
        let IncrementalCost {
            assignment,
            contribs,
            events,
            occupancy,
            current,
            streams,
            ..
        } = self;
        pool.contribs = contribs;
        pool.events = events;
        pool.streams = streams;
        occupancy.recycle(pool);
        (assignment, current)
    }

    /// Re-sums the cached contributions into `current`, in canonical
    /// ascending array order (bit-identical to the oracle's summation),
    /// reusing the running total's per-layer vector.
    fn refresh_total(&mut self) {
        let mut b = CostBreakdown {
            compute_cycles: self.model.facts.total_compute,
            accesses_per_layer: std::mem::take(&mut self.current.accesses_per_layer),
            ..CostBreakdown::default()
        };
        b.accesses_per_layer.clear();
        b.accesses_per_layer
            .resize(self.model.platform.layer_count(), 0);
        for c in &self.contribs {
            b.absorb(c);
        }
        self.current = b;
    }

    /// The working assignment.
    pub fn assignment(&self) -> &Assignment {
        &self.assignment
    }

    /// The cached contribution of one array's *committed* state — the
    /// "current side" of the greedy search's gain computations (the margin
    /// bookkeeping diffs its energy sensitivity against a trial's).
    pub fn contribution(&self, array: ArrayId) -> &ArrayContribution {
        &self.contribs[array.index()]
    }

    /// The cost of the working assignment (equals
    /// `model.evaluate(self.assignment())` bit-for-bit).
    pub fn cost(&self) -> &CostBreakdown {
        &self.current
    }

    /// Prices the assignment with `array`'s state replaced by
    /// `(home, chain)`, without mutating anything. `chain` must be ordered
    /// outermost first (ascending layer).
    pub fn evaluate_array_state(
        &self,
        array: ArrayId,
        home: LayerId,
        chain: &[SelectedCopy],
    ) -> CostBreakdown {
        let trial = self
            .model
            .array_contribution(array, home, chain, self.assignment.policy());
        self.evaluate_with_contribution(array, &trial)
    }

    /// [`evaluate_array_state`](IncrementalCost::evaluate_array_state) with
    /// the trial contribution already computed — the greedy search caches
    /// contributions per candidate move (they depend only on the touched
    /// array's state), so a re-evaluation costs `O(arrays)` additions.
    pub fn evaluate_with_contribution(
        &self,
        array: ArrayId,
        trial: &ArrayContribution,
    ) -> CostBreakdown {
        let mut b = CostBreakdown {
            compute_cycles: self.model.facts.total_compute,
            accesses_per_layer: vec![0; self.model.platform.layer_count()],
            ..CostBreakdown::default()
        };
        for (i, c) in self.contribs.iter().enumerate() {
            b.absorb(if i == array.index() { trial } else { c });
        }
        b
    }

    /// `objective.score(&self.evaluate_with_contribution(array, trial))`,
    /// bit for bit, without building the breakdown: the same additions in
    /// the same ascending array order, skipping the per-layer access
    /// counts the score never reads. The greedy search prices every trial
    /// move through this.
    pub(crate) fn trial_score(
        &self,
        objective: &Objective,
        array: ArrayId,
        trial: &ArrayContribution,
    ) -> f64 {
        let (mut cpu_cycles, mut cpu_energy) = (0u64, 0f64);
        let (mut transfer_cycles, mut transfer_energy) = (0u64, 0f64);
        for (i, c) in self.contribs.iter().enumerate() {
            let c = if i == array.index() { trial } else { c };
            cpu_cycles += c.cpu_access_cycles;
            cpu_energy += c.cpu_access_energy_pj;
            transfer_cycles += c.transfer_cycles;
            transfer_energy += c.transfer_energy_pj;
        }
        objective.score_totals(
            self.model.facts.total_compute + cpu_cycles + transfer_cycles,
            cpu_energy + transfer_energy,
        )
    }

    /// Capacity probe for the trial state: `None` when some on-chip layer
    /// overflows (after in-place sharing), otherwise the total on-chip
    /// bytes required — the denominator of the greedy gain/size ratio.
    pub fn onchip_required_with(
        &self,
        array: ArrayId,
        home: LayerId,
        chain: &[SelectedCopy],
    ) -> Option<u64> {
        let mut trial = Vec::new();
        self.model.array_events_into(array, home, chain, &mut trial);
        self.probe_events(array, &trial).ok()
    }

    /// [`onchip_required_with`](Self::onchip_required_with) over trial
    /// residents already computed, reporting the *first overflowing layer*
    /// (in platform order) and the bytes the trial state needed there on
    /// failure. The greedy search
    /// records these: a run whose failed probes all stopped at layers a
    /// grid sweep does not grow reproduces identically on the grown
    /// platform — the per-layer saturation argument of the pruned grid
    /// sweep — and because the required bytes are capacity-independent,
    /// any capacity still *below* the recorded requirement provably
    /// rejects the same probe, extending the replay argument to bounded
    /// growth ([`RunStats::allows_growth_to`](crate::RunStats::allows_growth_to)).
    pub fn probe_required(
        &self,
        array: ArrayId,
        trial: &[(LayerId, Resident)],
    ) -> Result<u64, (LayerId, u64)> {
        let trial: Vec<ResidentEvents> = trial
            .iter()
            .filter_map(|(layer, r)| self.model.resident_events(*layer, r))
            .collect();
        self.probe_events(array, &trial)
    }

    /// [`probe_required`](Self::probe_required) with the trial's residents
    /// already located in the event-time set
    /// ([`CostModel::array_events_into`]) — the probe of the greedy loop,
    /// which indexes each trial once per cache fill. Every capacity probe
    /// runs through here.
    pub(crate) fn probe_events(
        &self,
        array: ArrayId,
        trial: &[ResidentEvents],
    ) -> Result<u64, (LayerId, u64)> {
        self.occupancy
            .probe(array, &self.events[array.index()], trial)
    }

    /// Total on-chip bytes required by the working assignment.
    pub fn onchip_required(&self) -> u64 {
        self.occupancy.onchip_required()
    }

    /// Commits `array`'s new state, updating the cached contribution,
    /// resident events, occupancy ledger and totals. Only the touched
    /// array's cached state is invalidated (and the ledger's probe base).
    pub fn commit_array_state(&mut self, array: ArrayId, home: LayerId, chain: &[SelectedCopy]) {
        self.assignment.clear_copies_of(array);
        self.assignment.set_home(array, home);
        for &c in chain {
            self.assignment.add_copy(c);
        }
        let policy = self.assignment.policy();
        let model = self.model;
        model.array_contribution_into(
            array,
            home,
            chain,
            policy,
            &mut self.streams,
            &mut self.contribs[array.index()],
        );
        let events = &mut self.events[array.index()];
        for e in events.iter() {
            self.occupancy.apply(e, -1);
        }
        model.array_events_into(array, home, chain, events);
        for e in events.iter() {
            self.occupancy.apply(e, 1);
        }
        self.refresh_total();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::MhlaConfig;
    use crate::ExplorationContext;
    use mhla_ir::{ElemType, ProgramBuilder};

    /// `for rep in 0..64 { for i in 0..256 { read tab[i] } }`
    fn scan() -> (Program, ArrayId, LoopId) {
        let mut b = ProgramBuilder::new("scan");
        let tab = b.array("tab", &[256], ElemType::U8);
        let lr = b.begin_loop("rep", 0, 64, 1);
        let li = b.begin_loop("i", 0, 256, 1);
        let iv = b.var(li);
        b.stmt("s").read(tab, vec![iv]).compute_cycles(2).finish();
        b.end_loop();
        b.end_loop();
        (b.finish(), tab, lr)
    }

    /// The default-config context of `p`, built against `pf`'s shape.
    fn context<'a>(p: &'a Program, pf: &Platform) -> ExplorationContext<'a> {
        ExplorationContext::new(p, pf, MhlaConfig::default())
    }

    #[test]
    fn baseline_puts_all_accesses_off_chip() {
        let (p, _, _) = scan();
        let pf = Platform::embedded_default(1024);
        let ctx = context(&p, &pf);
        let m = ctx.cost_model(&pf);
        let base = Assignment::baseline(1, TransferPolicy::default());
        let cost = m.evaluate(&base);
        let accesses = 64 * 256;
        assert_eq!(cost.compute_cycles, 2 * accesses);
        assert_eq!(
            cost.cpu_access_cycles,
            accesses * mhla_hierarchy::energy::SDRAM_ACCESS_CYCLES
        );
        assert_eq!(cost.transfer_cycles, 0);
        assert_eq!(cost.accesses_per_layer, vec![accesses, 0]);
        let expect_e = accesses as f64 * mhla_hierarchy::energy::SDRAM_ACCESS_PJ;
        assert!((cost.cpu_access_energy_pj - expect_e).abs() < 1e-6);
    }

    #[test]
    fn staging_the_table_moves_accesses_on_chip() {
        let (p, tab, _) = scan();
        let pf = Platform::embedded_default(1024);
        let ctx = context(&p, &pf);
        let m = ctx.cost_model(&pf);

        let mut a = Assignment::baseline(1, TransferPolicy::default());
        // Whole-array candidate is index 0.
        a.add_copy(SelectedCopy {
            candidate: CandidateId {
                array: tab,
                index: 0,
            },
            layer: LayerId(1),
        });
        let cost = m.evaluate(&a);
        let accesses = 64 * 256;
        assert_eq!(cost.accesses_per_layer, vec![0, accesses]);
        assert_eq!(cost.cpu_access_cycles, accesses, "1 cycle per SPM access");
        // One fill transfer of 256 B.
        assert_eq!(cost.transfer_count, 1);
        let dma = pf.dma().unwrap();
        let expect = dma.transfer_cycles(256, pf.layer(LayerId(0)), pf.layer(LayerId(1)));
        assert_eq!(cost.transfer_cycles, expect);
        // Far cheaper than baseline on both axes.
        let base = m.evaluate(&Assignment::baseline(1, TransferPolicy::default()));
        assert!(cost.total_cycles() < base.total_cycles() / 2);
        assert!(cost.total_energy_pj() < base.total_energy_pj() / 2.0);
        // Ideal bound strips the transfer cycles.
        assert_eq!(
            cost.ideal_cycles(),
            cost.total_cycles() - cost.transfer_cycles
        );
    }

    #[test]
    fn copy_at_rep_loop_refreshes_every_iteration() {
        let (p, tab, lr) = scan();
        let pf = Platform::embedded_default(1024);
        let ctx = context(&p, &pf);
        let m = ctx.cost_model(&pf);
        let idx = ctx
            .reuse()
            .array(tab)
            .candidates()
            .iter()
            .position(|c| c.at_loop == Some(lr))
            .unwrap();
        let mut a = Assignment::baseline(1, TransferPolicy::FullRefresh);
        a.add_copy(SelectedCopy {
            candidate: CandidateId {
                array: tab,
                index: idx,
            },
            layer: LayerId(1),
        });
        let streams = m.transfer_streams(&a);
        assert_eq!(streams.len(), 1);
        assert_eq!(streams[0].entries, 64);
        assert_eq!(streams[0].total_bytes(), 64 * 256);
        // Sliding-delta collapses the refreshes (footprint does not move
        // with rep): only the first fill transfers data.
        let mut a2 = a.clone();
        a2 = {
            let mut x = Assignment::baseline(1, TransferPolicy::SlidingDelta);
            for c in a2.copies() {
                x.add_copy(*c);
            }
            x
        };
        let streams2 = m.transfer_streams(&a2);
        assert_eq!(streams2[0].steady_bytes, 0, "window never slides");
        assert_eq!(streams2[0].total_bytes(), 256);
    }

    #[test]
    fn capacity_checking_uses_inplace_peak() {
        let (p, tab, _) = scan();
        let pf = Platform::embedded_default(128); // too small for 256 B
        let ctx = context(&p, &pf);
        let m = ctx.cost_model(&pf);
        let mut a = Assignment::baseline(1, TransferPolicy::default());
        a.add_copy(SelectedCopy {
            candidate: CandidateId {
                array: tab,
                index: 0,
            },
            layer: LayerId(1),
        });
        let err = m.check_capacity(&a, &HashMap::new()).unwrap_err();
        assert!(matches!(err, AssignmentError::CapacityExceeded { .. }));
        // Double-buffering request doubles the requirement.
        let pf_big = Platform::embedded_default(384);
        let m2 = ctx.cost_model(&pf_big);
        assert!(m2.check_capacity(&a, &HashMap::new()).is_ok());
        let mut buffers = HashMap::new();
        buffers.insert(
            CandidateId {
                array: tab,
                index: 0,
            },
            2,
        );
        assert!(m2.check_capacity(&a, &buffers).is_err(), "2x256 > 384");
    }

    #[test]
    fn without_dma_copies_run_on_the_cpu() {
        let (p, tab, _) = scan();
        let pf = Platform::without_dma(1024);
        let ctx = context(&p, &pf);
        let m = ctx.cost_model(&pf);
        let mut a = Assignment::baseline(1, TransferPolicy::default());
        a.add_copy(SelectedCopy {
            candidate: CandidateId {
                array: tab,
                index: 0,
            },
            layer: LayerId(1),
        });
        let cost = m.evaluate(&a);
        // 256 elements × (8 + 1) cycles (CPU copy loop: SDRAM read + SPM
        // write per element).
        assert_eq!(cost.transfer_cycles, 256 * 9);
        // Still wins overall.
        let base = m.evaluate(&Assignment::baseline(1, TransferPolicy::default()));
        assert!(cost.total_cycles() < base.total_cycles());
    }

    #[test]
    fn internal_array_homed_on_chip_has_no_transfers() {
        // tmp written then read; home it on-chip.
        let mut b = ProgramBuilder::new("p");
        let tmp = b.array("tmp", &[64], ElemType::U8);
        b.loop_scope("i", 0, 64, 1, |b, li| {
            let i = b.var(li);
            b.stmt("w").write(tmp, vec![i]).finish();
        });
        b.loop_scope("j", 0, 64, 1, |b, lj| {
            let j = b.var(lj);
            b.stmt("r").read(tmp, vec![j]).finish();
        });
        let p = b.finish();
        let pf = Platform::embedded_default(1024);
        let ctx = context(&p, &pf);
        let m = ctx.cost_model(&pf);
        let mut a = Assignment::baseline(1, TransferPolicy::default());
        a.set_home(tmp, LayerId(1));
        let cost = m.evaluate(&a);
        assert_eq!(cost.transfer_count, 0);
        assert_eq!(cost.accesses_per_layer, vec![0, 128]);
        let usage = m.layer_usage(&a, &HashMap::new());
        assert_eq!(usage[1].required, 64);
    }

    use mhla_ir::{LoopId, Program};
    use proptest::prelude::*;

    /// Every state the greedy search can give `array` on a three-level
    /// platform: off-chip home with no copies or with one of its reuse
    /// chains on ascending on-chip layers, or a re-home on chip.
    fn array_states(reuse: &ReuseAnalysis, array: ArrayId) -> Vec<(LayerId, Vec<SelectedCopy>)> {
        let mut states = vec![
            (LayerId(0), Vec::new()),
            (LayerId(1), Vec::new()),
            (LayerId(2), Vec::new()),
        ];
        for chain in reuse.chains(array, 2) {
            let layer_sets: &[&[usize]] = match chain.len() {
                1 => &[&[1], &[2]],
                _ => &[&[1, 2]],
            };
            for layers in layer_sets {
                let sel = chain
                    .iter()
                    .zip(layers.iter())
                    .map(|(&candidate, &l)| SelectedCopy {
                        candidate,
                        layer: LayerId(l),
                    })
                    .collect();
                states.push((LayerId(0), sel));
            }
        }
        states
    }

    /// The probe result the full capacity check implies: the first
    /// over-full on-chip layer with its requirement, else the summed
    /// on-chip requirement.
    fn oracle_probe(m: &CostModel<'_>, assignment: &Assignment) -> Result<u64, (LayerId, u64)> {
        let usage = m.layer_usage(assignment, &HashMap::new());
        match usage.iter().skip(1).find(|u| !u.fits()) {
            Some(u) => Err((u.layer, u.required)),
            None => Ok(usage.iter().skip(1).map(|u| u.required).sum()),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Over random move sequences on a three-level platform, the
        /// score-only trial pricing equals scoring the full trial
        /// breakdown bit for bit under every objective kind, and the
        /// per-array probe base answers every probe exactly as the full
        /// capacity check does — including the first over-full layer and
        /// its requirement. Each step probes one array and commits an
        /// independently drawn one, so a base outliving a commit to
        /// another array would show.
        #[test]
        fn trial_score_and_probe_match_the_oracles(
            spec in mhla_ir::arbitrary::program_specs(),
            l2 in 32u64..2048,
            l1 in 16u64..512,
            steps in prop::collection::vec(
                (
                    any::<prop::sample::Index>(),
                    any::<prop::sample::Index>(),
                    any::<bool>(),
                    any::<prop::sample::Index>(),
                    any::<prop::sample::Index>(),
                ),
                1..16,
            ),
        ) {
            let p = spec.build();
            let pf = Platform::three_level(l2.max(l1 + 1), l1);
            let ctx = context(&p, &pf);
            let (m, reuse) = (ctx.cost_model(&pf), ctx.reuse());
            let objectives = [
                Objective::Cycles,
                Objective::Energy,
                Objective::Weighted {
                    energy_weight: 0.25,
                    cycle_weight: 3.0,
                },
            ];
            let mut inc = IncrementalCost::new(
                &m,
                Assignment::baseline(p.array_count(), TransferPolicy::default()),
            );
            let mut events = Vec::new();
            let pick = |array: prop::sample::Index, state: prop::sample::Index| {
                let array = ArrayId::from_index(array.index(p.array_count()));
                let states = array_states(reuse, array);
                let (home, chain) = states[state.index(states.len())].clone();
                (array, home, chain)
            };
            for (array_pick, state_pick, commit, commit_array, commit_state) in steps {
                let (array, home, chain) = &pick(array_pick, state_pick);
                let array = *array;
                let trial = m.array_contribution(array, *home, chain, inc.assignment().policy());
                let full = inc.evaluate_array_state(array, *home, chain);
                for objective in &objectives {
                    prop_assert_eq!(
                        inc.trial_score(objective, array, &trial).to_bits(),
                        objective.score(&full).to_bits()
                    );
                }
                let mut applied = inc.assignment().clone();
                applied.clear_copies_of(array);
                applied.set_home(array, *home);
                for &c in chain {
                    applied.add_copy(c);
                }
                m.array_events_into(array, *home, chain, &mut events);
                prop_assert_eq!(inc.probe_events(array, &events), oracle_probe(&m, &applied));
                if commit {
                    let (array, home, chain) = pick(commit_array, commit_state);
                    inc.commit_array_state(array, home, &chain);
                }
            }
        }
    }
}
