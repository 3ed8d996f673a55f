//! MHLA step 1: selection and assignment of arrays and copy candidates to
//! memory layers.
//!
//! Two search procedures over the same move space:
//!
//! * [`greedy`] — the published steering: repeatedly apply the feasible
//!   move with the best `gain / extra on-chip bytes` ratio until no move
//!   improves the objective. This is the DATE 2003 heuristic the prototype
//!   tool uses.
//! * [`exhaustive`] — branch-and-bound over per-array options; exact on
//!   small instances, used to validate the greedy and for the optimality
//!   tests.
//!
//! A *move* either stages a copy chain for an array into on-chip layers or
//! re-homes an internal array on-chip. Feasibility = every on-chip layer's
//! residents fit after in-place optimization ([`CostModel::check_capacity`]).

use std::collections::HashMap;

use mhla_hierarchy::LayerId;
use mhla_ir::ArrayId;

use crate::classify::ArrayClass;
use crate::cost::{CostBreakdown, CostModel, IncrementalCost};
use crate::types::{reject, Assignment, MhlaConfig, Objective, SelectedCopy, TransferPolicy};
use crate::workspace::EvalWorkspace;
use crate::RunStats;

impl Objective {
    /// Scalar score of a cost breakdown (lower is better).
    pub fn score(&self, cost: &CostBreakdown) -> f64 {
        self.score_totals(cost.total_cycles(), cost.total_energy_pj())
    }

    /// The score of a `(total cycles, total energy)` pair — the one
    /// objective formula, shared by [`score`](Self::score) and the greedy
    /// search's score-only trial pricing.
    pub(crate) fn score_totals(&self, cycles: u64, energy_pj: f64) -> f64 {
        match self {
            Objective::Energy => energy_pj,
            Objective::Cycles => cycles as f64,
            Objective::Weighted {
                energy_weight,
                cycle_weight,
            } => energy_weight * energy_pj + cycle_weight * cycles as f64,
        }
    }

    /// The objective's weight on the energy axis — the multiplier of the
    /// gain-bound perturbation analysis. Zero for [`Objective::Cycles`]
    /// (the score never sees energy); the *signed* weight for
    /// [`Objective::Weighted`] — a negative weight inverts the
    /// perturbation direction the one-sided margin rates assume, so
    /// consumers must disarm (see
    /// [`RunStats::allows_energy_growth`](crate::RunStats::allows_energy_growth)).
    pub(crate) fn energy_weight(&self) -> f64 {
        match self {
            Objective::Cycles => 0.0,
            Objective::Energy => 1.0,
            Objective::Weighted { energy_weight, .. } => *energy_weight,
        }
    }
}

/// One candidate modification of an assignment.
#[derive(Clone, PartialEq, Debug)]
enum Move {
    /// Replace the array's copy chain.
    SetChain(ArrayId, Vec<SelectedCopy>),
    /// Home an internal array in an on-chip layer (clearing its copies).
    Rehome(ArrayId, LayerId),
}

impl Move {
    fn apply(&self, a: &mut Assignment) {
        match self {
            Move::SetChain(array, chain) => {
                a.clear_copies_of(*array);
                for c in chain {
                    a.add_copy(*c);
                }
            }
            Move::Rehome(array, layer) => {
                a.clear_copies_of(*array);
                a.set_home(*array, *layer);
            }
        }
    }

    /// The array this move touches.
    fn array(&self) -> ArrayId {
        match self {
            Move::SetChain(a, _) | Move::Rehome(a, _) => *a,
        }
    }

    /// The `(home, chain)` state this move puts its array in, given the
    /// array's current home.
    fn state(&self, current_home: LayerId) -> (LayerId, &[SelectedCopy]) {
        match self {
            Move::SetChain(_, chain) => (current_home, chain.as_slice()),
            Move::Rehome(_, layer) => (*layer, &[]),
        }
    }
}

/// Enumerates the per-array options (chains over on-chip layers, re-homes).
fn array_options(model: &CostModel<'_>, config: &MhlaConfig, array: ArrayId) -> Vec<Move> {
    let platform = model.platform();
    let onchip: Vec<LayerId> = platform.on_chip_layers().map(|(l, _)| l).collect();
    let max_chain = if config.max_chain == 0 {
        onchip.len()
    } else {
        config.max_chain.min(onchip.len())
    };
    let mut moves = Vec::new();
    // Copy chains: candidate chains × increasing layer sequences.
    for chain in model.reuse().chains(array, max_chain) {
        // Assign chain elements to strictly increasing on-chip layers,
        // innermost ending anywhere; enumerate combinations.
        let k = chain.len();
        if k > onchip.len() {
            continue;
        }
        // Choose k layers out of the on-chip stack (they are already
        // ordered outer→inner).
        let combos = layer_combinations(&onchip, k);
        for layers in combos {
            let sel: Vec<SelectedCopy> = chain
                .iter()
                .zip(&layers)
                .map(|(&candidate, &layer)| SelectedCopy { candidate, layer })
                .collect();
            moves.push(Move::SetChain(array, sel));
        }
    }
    // Re-homing for internal arrays.
    if model.classes()[array.index()] == ArrayClass::Internal {
        for &l in &onchip {
            moves.push(Move::Rehome(array, l));
        }
    }
    moves
}

fn layer_combinations(layers: &[LayerId], k: usize) -> Vec<Vec<LayerId>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(k);
    fn go(
        layers: &[LayerId],
        k: usize,
        start: usize,
        cur: &mut Vec<LayerId>,
        out: &mut Vec<Vec<LayerId>>,
    ) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for i in start..layers.len() {
            cur.push(layers[i]);
            go(layers, k, i + 1, cur, out);
            cur.pop();
        }
    }
    go(layers, k, 0, &mut cur, &mut out);
    out
}

/// Result of an assignment search.
#[derive(Clone, PartialEq, Debug)]
pub struct SearchOutcome {
    /// The chosen assignment.
    pub assignment: Assignment,
    /// Its static cost.
    pub cost: CostBreakdown,
    /// Moves applied (greedy) or leaves visited (exhaustive) — diagnostics.
    pub steps: u64,
}

/// The published greedy gain/size steering.
///
/// Starting from the out-of-the-box assignment, repeatedly evaluates every
/// per-array option and applies the one with the best
/// `objective gain / additional on-chip bytes` ratio (pure gains with no
/// size increase rank highest). Stops when no feasible option improves the
/// objective.
pub fn greedy(model: &CostModel<'_>, config: &MhlaConfig) -> SearchOutcome {
    let moves = enumerate_moves(model, config);
    greedy_portfolio_seeded_in(model, config, &[], &moves, &mut EvalWorkspace::default()).0
}

/// Decision-stability record of one greedy run: the smallest requirement
/// each layer's capacity rejected, and how far every decision sits from
/// flipping when the platform's per-access energies are perturbed.
#[derive(Clone, Debug, Default)]
pub(crate) struct SearchTrace {
    /// Per layer: the run's *margin rate* — the largest write-energy
    /// delta `δw_l` (pJ) the layer alone could absorb without flipping
    /// any decision, were it the only layer growing. Growing scratchpad
    /// capacities moves every contribution's energy by exactly
    /// `Σ_l δw_l · energy_sensitivity[l]`
    /// ([`ArrayContribution::energy_sensitivity`]); each decision — a
    /// rejected move's gain staying `≤ 0`, the chosen move's gain staying
    /// `> 0`, the chosen ratio staying the strict maximum — flips only if
    /// the summed perturbation closes its margin, and it closes at a
    /// known per-layer *risk rate* (the decision's one-sided sensitivity
    /// at that layer). `margin_rates[l]` is the minimum over decisions of
    /// `margin / risk_l`; joint growth of several layers is admitted when
    /// `Σ_l energy_weight · δw_l / margin_rates[l] < 1` (each decision's
    /// total perturbation is then a sub-unit convex combination of its
    /// per-layer allowances). `INFINITY` where no decision is sensitive;
    /// index 0 (the never-resized off-chip layer) is always `INFINITY`.
    pub(crate) margin_rates: Vec<f64>,
    /// Per layer: the smallest byte requirement of any failed capacity
    /// probe that first overflowed there (`u64::MAX` where none did).
    /// A probe's requirement is capacity-independent, so a capacity grown
    /// to *below* this floor still rejects every one of the run's failed
    /// probes at that layer — the bounded-growth extension of the
    /// saturation replay argument
    /// ([`RunStats::allows_growth_to`](crate::RunStats::allows_growth_to)).
    pub(crate) reject_floors: Vec<u64>,
    /// Whether the margin bookkeeping runs at all. The rates are only
    /// consulted under a positive energy weight, so the cycles objective
    /// and the throwaway traces of the warm portfolio legs skip the
    /// per-move sensitivity work on the hot path entirely (the
    /// conservative rates are then all `0.0` — admit nothing beyond
    /// zero-perturbation growth).
    pub(crate) track_margins: bool,
}

impl SearchTrace {
    pub(crate) fn new(layer_count: usize, track_margins: bool) -> Self {
        SearchTrace {
            margin_rates: if track_margins {
                vec![f64::INFINITY; layer_count]
            } else {
                vec![0.0; layer_count]
            },
            reject_floors: vec![u64::MAX; layer_count],
            track_margins,
        }
    }

    /// Resets the trace for reuse as a throwaway (untracked) warm-leg
    /// trace, keeping its buffers. Equivalent to `new(layer_count, false)`.
    pub(crate) fn reset_untracked(&mut self, layer_count: usize) {
        self.track_margins = false;
        self.margin_rates.clear();
        self.margin_rates.resize(layer_count, 0.0);
        self.reject_floors.clear();
        self.reject_floors.resize(layer_count, u64::MAX);
    }

    /// Folds one decision into the per-layer rates: `margin ≥ 0` in score
    /// units, `risk(l) ≥ 0` the decision's flip rate per unit `δw_l`, and
    /// `tie_floor` the score magnitude below which a margin is treated as
    /// an exact tie (zero rate at its risky layers). The replayed run
    /// recomputes its scores in f64, so margins within rounding distance
    /// of the score magnitude (~ulps) cannot be trusted to survive —
    /// flooring them to zero keeps the admission rule sound where the
    /// relative safety factor alone would reserve less headroom than the
    /// noise.
    fn fold(&mut self, margin: f64, tie_floor: f64, risk: impl Fn(usize) -> f64) {
        let margin = if margin <= tie_floor { 0.0 } else { margin };
        for l in 1..self.margin_rates.len() {
            let r = risk(l);
            if r > 0.0 {
                self.margin_rates[l] = self.margin_rates[l].min(margin / r);
            }
        }
    }
}

/// The enumerated candidate-move space of one (program, reuse, config).
///
/// Depends on the program structure, the reuse analysis and the *shape* of
/// the platform (which layers are on-chip) — not on layer capacities — so
/// a capacity sweep enumerates it once (usually inside an
/// [`ExplorationContext`](crate::ExplorationContext)) and shares it across
/// every point.
#[derive(Clone, Debug)]
pub struct MoveSet {
    moves: Vec<Move>,
}

impl MoveSet {
    /// Number of candidate moves.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Whether the move space is empty.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }
}

/// Enumerates the candidate-move space (see [`MoveSet`]).
pub fn enumerate_moves(model: &CostModel<'_>, config: &MhlaConfig) -> MoveSet {
    MoveSet {
        moves: enumerate_options(model, config),
    }
}

/// The greedy search portfolio over a list of external warm seeds — the
/// per-point search primitive of every sweep engine, drawing every
/// scratch buffer from `ws`.
///
/// The cold (baseline-started) leg always runs first; each *distinct*
/// seed then gets its own leg continuing from that assignment (seeds must
/// be feasible — the sweeps pass committed results of componentwise
/// smaller capacity points, which stay feasible as layers grow, and at a
/// larger capacity every previously selected move stays feasible, so a
/// warm leg starts near a fixed point and converges in a step or two).
/// The returned outcome is the best-scoring leg, with ties resolved
/// toward the cold leg first and then toward the earliest seed, so the
/// result is deterministic and *provably scores no worse than the cold
/// search* — the dominance guarantee the improving sweeps build on
/// ([`SearchMode::Improving`](crate::explore::SearchMode)).
/// The [`RunStats`] carry the cold leg's trace (its rejection floors and
/// decision margins, to which a [`Mhla`](crate::Mhla) run then adds
/// direct placement and TE), which seed (if any) won, and the legs run.
/// With an empty or all-duplicate seed list this is exactly the cold
/// search ([`greedy`], one leg).
///
/// A fresh workspace reproduces the allocating path exactly; a warm
/// (reused) workspace is bit-identical because every buffer is fully
/// reset or invalidated before use (the trial cache by `home = None`,
/// since the platform's capacities — and with them every cached price —
/// may have changed since the previous point).
pub fn greedy_portfolio_seeded_in(
    model: &CostModel<'_>,
    config: &MhlaConfig,
    seeds: &[&Assignment],
    moves: &MoveSet,
    ws: &mut EvalWorkspace,
) -> (SearchOutcome, RunStats) {
    let options = &moves.moves;
    let layer_count = model.platform().layer_count();
    ws.prepare_cache(options.len());
    // Margin rates are only consulted under a positive energy weight —
    // skip the sensitivity bookkeeping otherwise (the cycles objective,
    // and the common sweep paths that never read the margins). The cold
    // trace is built fresh: its vectors escape into the `RunStats`.
    let mut trace = SearchTrace::new(layer_count, config.objective.energy_weight() > 0.0);
    let baseline = ws.start_baseline(model.program().array_count(), config.policy);
    let cold = greedy_search(model, config, baseline, options, ws, &mut trace);
    let cold_score = config.objective.score(&cold.cost);
    let mut stats = RunStats {
        gain_margin_rates: trace.margin_rates,
        winning_seed: None,
        search_legs: 1,
        layer_reject_floors: trace.reject_floors,
        tracked: true,
    };
    // A greedy result is a fixed point: searching from it goes nowhere.
    // Seeds coinciding with the cold solution (the common case in a
    // capacity sweep — adjacent points often share the optimum) or with
    // an already-searched seed provably return a known result unchanged,
    // so they are skipped without a leg.
    ws.ran_idx.clear();
    let mut best_warm: Option<(usize, SearchOutcome, f64)> = None;
    for (k, &seed) in seeds.iter().enumerate() {
        if *seed == cold.assignment || ws.ran_idx.iter().any(|&j| seeds[j] == seed) {
            continue;
        }
        ws.ran_idx.push(k);
        let start = ws.start_from_seed(seed);
        // Warm legs run under the pooled untracked trace (taken out of
        // the workspace for the call; the cold trace above is the only
        // one whose data outlives the search).
        let mut warm_trace = std::mem::take(&mut ws.warm_trace);
        warm_trace.reset_untracked(layer_count);
        let warmed = greedy_search(model, config, start, options, ws, &mut warm_trace);
        ws.warm_trace = warm_trace;
        stats.search_legs += 1;
        let score = config.objective.score(&warmed.cost);
        // Strict `<` on both contests: ties keep the cold result (the
        // bit-identical-to-standalone guarantee of the cold sweeps) and,
        // among warm legs, the earliest seed (determinism).
        if score < cold_score && best_warm.as_ref().is_none_or(|(_, _, s)| score < *s) {
            if let Some(loser) = best_warm.replace((k, warmed, score)) {
                ws.recycle_outcome(loser.1);
            }
        } else {
            ws.recycle_outcome(warmed);
        }
    }
    match best_warm {
        Some((k, warmed, _)) => {
            stats.winning_seed = Some(k);
            ws.recycle_outcome(cold);
            (warmed, stats)
        }
        None => (cold, stats),
    }
}

/// The option space depends only on the model and config — enumerated
/// once per search (or once per sweep point for the portfolio), not once
/// per greedy step.
fn enumerate_options(model: &CostModel<'_>, config: &MhlaConfig) -> Vec<Move> {
    model
        .program()
        .arrays()
        .flat_map(|(aid, _)| array_options(model, config, aid))
        .collect()
}

/// The "free win" ratio scale: a move costing no extra on-chip bytes is
/// ranked by `gain * FREE_WIN_SCALE`, a sized move by `gain / extra` — one
/// formula, so a ratio's sensitivity to gain perturbations is its scale
/// factor (used by the decision-margin bookkeeping below).
const FREE_WIN_SCALE: f64 = 1e12;

/// One greedy run over a fixed option list with a per-move trial cache.
///
/// Candidate moves are priced through [`IncrementalCost`], as scores
/// (`trial_score`: `O(arrays)` additions, no [`CostBreakdown`] built),
/// and only moves that improve the score are probed for capacity. A probe
/// re-scans only the layers the trial occupies, against the ledger's base
/// for the trial's array, and reads the trial's residents as its cache
/// slot located them. The full [`CostModel::evaluate`] is never called
/// inside the loop, and neither is the assignment cloned per candidate.
///
/// `trace` accumulates the run's [`SearchTrace`]:
///
/// * the byte requirement of every failed capacity probe, folded into its
///   first-overflow layer's rejection floor — the signal the pruned grid
///   sweep uses to recognize how far each layer can grow before it binds
///   the search; and
/// * the per-layer *decision-margin rates*. Every decision of the loop is
///   a comparison of f64 scores: a rejected move's gain staying `<= 0`,
///   the chosen move's gain staying `> 0`, and the chosen move's ratio
///   staying the strict maximum. When scratchpad capacities grow, each
///   contribution's energy moves by exactly `Σ_l δw_l · sensitivity[l]`,
///   so each decision closes its margin at a per-layer *risk rate* — the
///   one-sided (current − trial) sensitivity difference at that layer,
///   scaled for ratio contests. [`SearchTrace::fold`] turns every
///   decision into per-layer allowances. Exemptions, all exact: a layer
///   at which the decision's risky-side sensitivity is zero (the gain
///   cannot move toward the flip there — this subsumes trial states
///   identical to the committed state), and ratio contests between moves
///   with bitwise-equal sensitivity differences and equal scales (their
///   gap is invariant under *any* capacity growth — the
///   symmetric-twin-array case, where margins would otherwise read zero).
fn greedy_search(
    model: &CostModel<'_>,
    config: &MhlaConfig,
    start: Assignment,
    options: &[Move],
    ws: &mut EvalWorkspace,
    trace: &mut SearchTrace,
) -> SearchOutcome {
    // Field-level borrows: the trial cache, the contender buffers and the
    // incremental evaluator's pool live side by side in the workspace.
    // `cache` must already be sized for `options` (`prepare_cache`).
    let EvalWorkspace {
        cache,
        contenders,
        svec_buf,
        streams,
        pool,
        ..
    } = ws;
    let mut inc = IncrementalCost::new_in(model, start, pool);
    let mut current_score = config.objective.score(inc.cost());
    let mut current_size = inc.onchip_required();
    let mut steps = 0u64;
    let layer_count = model.platform().layer_count();
    // Improving, feasible moves of the current step: (ratio, gain,
    // ratio-scale) plus, in `svec_buf`, each contender's per-layer
    // sensitivity difference (a flat reusable buffer, `layer_count`
    // entries per contender) — the contest the chosen move must win with
    // margin.

    loop {
        let mut best: Option<(f64, usize, u64)> = None;
        let mut best_contender = 0usize;
        contenders.clear();
        svec_buf.clear();
        // Margins within f64 rounding distance of the score scale are
        // ties (see `SearchTrace::fold`).
        let tie_floor = current_score.abs().max(1.0) * 1e-9;
        for (idx, mv) in options.iter().enumerate() {
            let array = mv.array();
            let (home, chain) = mv.state(inc.assignment().home(array));
            if cache[idx].home != Some(home) {
                let slot = &mut cache[idx];
                slot.home = Some(home);
                model.array_contribution_into(
                    array,
                    home,
                    chain,
                    inc.assignment().policy(),
                    streams,
                    &mut slot.contrib,
                );
                model.array_events_into(array, home, chain, &mut slot.events);
            }
            let entry = &cache[idx];
            // Gain first, capacity second: both are pure filters, so the
            // order cannot change the chosen move, and the cheap gain test
            // rejects most moves without paying for a capacity probe.
            let gain = current_score - inc.trial_score(&config.objective, array, &entry.contrib);
            if gain <= 0.0 {
                // The rejection must survive growth: its gain rises at
                // layer `l` at rate `(cur − trial) sensitivity⁺`. Layers
                // where the difference is `≤ 0` are risk-free (this
                // covers trial states identical to the committed one).
                if trace.track_margins {
                    let cur = &inc.contribution(array).energy_sensitivity;
                    let tr = &entry.contrib.energy_sensitivity;
                    trace.fold(-gain, tie_floor, |l| (cur[l] - tr[l]).max(0.0));
                }
                continue;
            }
            let size = match inc.probe_events(array, &entry.events) {
                Ok(size) => size,
                Err((layer, required)) => {
                    reject(&mut trace.reject_floors, layer, required);
                    continue; // some on-chip layer overflows
                }
            };
            let extra = size.saturating_sub(current_size);
            // Ratio steering: free wins (no extra bytes) dominate any
            // sized move but are still ordered among themselves by gain.
            let (ratio, scale) = if extra == 0 {
                (gain * FREE_WIN_SCALE, FREE_WIN_SCALE)
            } else {
                (gain / extra as f64, 1.0 / extra as f64)
            };
            if trace.track_margins {
                let cur = inc.contribution(array);
                svec_buf.extend(
                    cur.energy_sensitivity
                        .iter()
                        .zip(&entry.contrib.energy_sensitivity)
                        .map(|(c, t)| c - t),
                );
                contenders.push((ratio, gain, scale));
            }
            if best.as_ref().is_none_or(|(r, ..)| ratio > *r) {
                best = Some((ratio, idx, size));
                best_contender = contenders.len().saturating_sub(1);
            }
        }
        match best {
            Some((ratio_c, idx, size)) => {
                // Margins of the selection: the chosen gain stays
                // positive (it falls at layer `l` at rate
                // `(−svec_c[l])⁺`), and the chosen ratio stays strictly
                // above every other contender's (the gap closes at the
                // chosen side's fall rate plus the other side's rise
                // rate, each times its ratio scale) — unless the two
                // moves' sensitivity differences and scales are
                // identical, in which case the gap is invariant.
                if trace.track_margins {
                    let (_, gain_c, scale_c) = contenders[best_contender];
                    let svec = |i: usize| &svec_buf[i * layer_count..(i + 1) * layer_count];
                    let svec_c = svec(best_contender);
                    trace.fold(gain_c, tie_floor, |l| (-svec_c[l]).max(0.0));
                    for (i, &(ratio_i, _, scale_i)) in contenders.iter().enumerate() {
                        if i == best_contender {
                            continue;
                        }
                        let svec_i = svec(i);
                        if scale_i == scale_c && svec_i == svec_c {
                            continue; // gap invariant under any growth
                        }
                        trace.fold(ratio_c - ratio_i, tie_floor, |l| {
                            scale_c * (-svec_c[l]).max(0.0) + scale_i * (svec_i[l]).max(0.0)
                        });
                    }
                }
                let mv = &options[idx];
                let array = mv.array();
                let (home, chain) = mv.state(inc.assignment().home(array));
                inc.commit_array_state(array, home, chain);
                current_score = config.objective.score(inc.cost());
                current_size = size;
                steps += 1;
            }
            None => break,
        }
    }
    let (assignment, cost) = inc.into_parts(pool);
    SearchOutcome {
        assignment,
        cost,
        steps,
    }
}

/// The pre-incremental greedy: clones the assignment and runs the full
/// [`CostModel::evaluate`] + capacity check for every candidate move.
///
/// Kept as the *oracle* implementation: [`greedy`] must produce the same
/// outcome. The equivalence tests compare against it (`sweep_cold` in
/// `tests/sweep_equivalence.rs` runs it through
/// [`Mhla::run_reference`](crate::Mhla::run_reference)).
pub fn greedy_oracle(model: &CostModel<'_>, config: &MhlaConfig) -> SearchOutcome {
    let no_buffers = HashMap::new();
    let mut current = Assignment::baseline(model.program().array_count(), config.policy);
    let mut current_cost = model.evaluate(&current);
    let mut current_size = onchip_required_oracle(model, &current, &no_buffers);
    let mut steps = 0u64;

    loop {
        let mut best: Option<(f64, Move, CostBreakdown, u64)> = None;
        for (aid, _) in model.program().arrays() {
            for mv in array_options(model, config, aid) {
                let mut trial = current.clone();
                mv.apply(&mut trial);
                if model.check_capacity(&trial, &no_buffers).is_err() {
                    continue;
                }
                let cost = model.evaluate(&trial);
                let gain = config.objective.score(&current_cost) - config.objective.score(&cost);
                if gain <= 0.0 {
                    continue;
                }
                let size = onchip_required_oracle(model, &trial, &no_buffers);
                let extra = size.saturating_sub(current_size);
                let ratio = if extra == 0 {
                    gain * 1e12
                } else {
                    gain / extra as f64
                };
                if best.as_ref().is_none_or(|(r, ..)| ratio > *r) {
                    best = Some((ratio, mv, cost, size));
                }
            }
        }
        match best {
            Some((_, mv, cost, size)) => {
                mv.apply(&mut current);
                current_cost = cost;
                current_size = size;
                steps += 1;
            }
            None => break,
        }
    }
    SearchOutcome {
        assignment: current,
        cost: current_cost,
        steps,
    }
}

fn onchip_required_oracle(
    model: &CostModel<'_>,
    a: &Assignment,
    buffers: &HashMap<mhla_reuse::CandidateId, u32>,
) -> u64 {
    model
        .layer_usage(a, buffers)
        .iter()
        .skip(1)
        .map(|u| u.required)
        .sum()
}

/// Exhaustive branch-and-bound over per-array options.
///
/// Exact (up to the option space, which both searches share) but
/// exponential; intended for small instances and for validating the
/// greedy. Visits at most `node_limit` leaves, then returns the incumbent.
pub fn exhaustive(model: &CostModel<'_>, config: &MhlaConfig, node_limit: u64) -> SearchOutcome {
    let no_buffers = HashMap::new();
    let arrays: Vec<ArrayId> = model.program().arrays().map(|(a, _)| a).collect();
    let options: Vec<Vec<Move>> = arrays
        .iter()
        .map(|&a| {
            // First option: leave the array alone (empty chain, home as-is).
            let mut v = vec![Move::SetChain(a, Vec::new())];
            v.extend(array_options(model, config, a));
            v
        })
        .collect();

    let baseline = Assignment::baseline(model.program().array_count(), config.policy);
    let base_cost = model.evaluate(&baseline);
    let mut best = SearchOutcome {
        assignment: baseline.clone(),
        cost: base_cost,
        steps: 0,
    };
    let mut best_score = config.objective.score(&best.cost);
    let mut visited = 0u64;

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        model: &CostModel<'_>,
        config: &MhlaConfig,
        options: &[Vec<Move>],
        depth: usize,
        current: &mut Assignment,
        no_buffers: &HashMap<mhla_reuse::CandidateId, u32>,
        best: &mut SearchOutcome,
        best_score: &mut f64,
        visited: &mut u64,
        node_limit: u64,
    ) {
        if *visited >= node_limit {
            return;
        }
        if depth == options.len() {
            *visited += 1;
            if model.check_capacity(current, no_buffers).is_err() {
                return;
            }
            let cost = model.evaluate(current);
            let score = config.objective.score(&cost);
            if score < *best_score {
                *best_score = score;
                *best = SearchOutcome {
                    assignment: current.clone(),
                    cost,
                    steps: *visited,
                };
            }
            return;
        }
        for mv in &options[depth] {
            let saved = current.clone();
            mv.apply(current);
            // Prune: partial assignments that already blow a capacity
            // cannot be fixed by later arrays (options only add residents).
            if model.check_capacity(current, no_buffers).is_ok() {
                dfs(
                    model,
                    config,
                    options,
                    depth + 1,
                    current,
                    no_buffers,
                    best,
                    best_score,
                    visited,
                    node_limit,
                );
            }
            *current = saved;
        }
    }

    let mut current = baseline;
    dfs(
        model,
        config,
        &options,
        0,
        &mut current,
        &no_buffers,
        &mut best,
        &mut best_score,
        &mut visited,
        node_limit,
    );
    best.steps = visited;
    best
}

/// Runs the configured search strategy.
pub fn search(model: &CostModel<'_>, config: &MhlaConfig) -> SearchOutcome {
    match config.strategy {
        crate::types::SearchStrategy::Greedy => greedy(model, config),
        crate::types::SearchStrategy::Exhaustive { node_limit } => {
            exhaustive(model, config, node_limit)
        }
    }
}

/// The out-of-the-box assignment and its cost (the paper's 100% bar).
pub fn baseline(model: &CostModel<'_>, policy: TransferPolicy) -> SearchOutcome {
    let a = Assignment::baseline(model.program().array_count(), policy);
    let cost = model.evaluate(&a);
    SearchOutcome {
        assignment: a,
        cost,
        steps: 0,
    }
}

/// The *direct placement* baseline: what a programmer gets without the MHLA
/// tool on a platform that nevertheless has on-chip SRAM — the toolchain
/// places data sections by static fit, with no copies, no lifetime sharing
/// and no prefetching.
///
/// Arrays eligible for on-chip linkage are the *internal temporaries*
/// (compiler-managed `.bss`/stack data, which toolchains of the era did
/// link into on-chip SRAM). Inputs, outputs and constant tables stay
/// off-chip — `.rodata` lived in flash/SDRAM, and promoting it on-chip is
/// precisely the manual tuning MHLA automates. Placement is greedy by
/// access density (accesses per byte), filling the closest layer first,
/// and capacity is checked by *sum* of sizes — out-of-the-box code does
/// not share storage between lifetimes.
pub fn direct_placement(model: &CostModel<'_>, policy: TransferPolicy) -> SearchOutcome {
    direct_placement_stats_in(model, policy, &mut [], &mut EvalWorkspace::default())
}

/// [`direct_placement`], priced through the workspace's pooled scratch
/// and additionally recording every layer whose remaining capacity
/// *rejected* an eligible array into that layer's entry of `floors` (the
/// run's per-layer *rejection floors*, [`reject`]): the smallest total
/// requirement (bytes already placed + rejected array) of any rejection
/// there. A layer that never turned an array away keeps its floor, and
/// growing it reproduces the identical placement — one leg of the pruned
/// grid sweep's saturation argument; a constrained layer grown to a
/// capacity still below its floor rejects the same arrays, so the
/// placement also replays (the used bytes at each rejection replay by
/// induction). Arrays that fit nowhere are recorded at every on-chip
/// layer.
pub(crate) fn direct_placement_stats_in(
    model: &CostModel<'_>,
    policy: TransferPolicy,
    floors: &mut [u64],
    ws: &mut EvalWorkspace,
) -> SearchOutcome {
    let program = model.program();
    let info = program.info();
    let mut a = Assignment::baseline(program.array_count(), policy);

    // Eligible arrays, densest first.
    let mut eligible: Vec<(ArrayId, u64, f64)> = program
        .arrays()
        .filter_map(|(aid, decl)| {
            let counts = info.access_counts(aid);
            let internal = model.classes()[aid.index()] == ArrayClass::Internal;
            if !internal || counts.total() == 0 {
                return None;
            }
            Some((
                aid,
                decl.bytes(),
                counts.total() as f64 / decl.bytes() as f64,
            ))
        })
        .collect();
    eligible.sort_by(|x, y| y.2.partial_cmp(&x.2).unwrap_or(std::cmp::Ordering::Equal));

    // Fill layers closest-first by remaining capacity (tracking the bytes
    // already placed per slot for the rejection floors).
    let mut remaining: Vec<(LayerId, u64, u64)> = model
        .platform()
        .on_chip_layers()
        .map(|(l, layer)| (l, layer.capacity.unwrap_or(u64::MAX), 0u64))
        .collect();
    remaining.reverse(); // closest first
    for (aid, bytes, _) in eligible {
        for slot in remaining.iter_mut() {
            if bytes <= slot.1 {
                a.set_home(aid, slot.0);
                slot.1 -= bytes;
                slot.2 += bytes;
                break;
            }
            reject(floors, slot.0, slot.2.saturating_add(bytes));
        }
    }
    let cost = model.evaluate_in(&a, &mut ws.pool);
    SearchOutcome {
        assignment: a,
        cost,
        steps: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExplorationContext;
    use mhla_hierarchy::Platform;
    use mhla_ir::{ElemType, Program, ProgramBuilder};

    fn run(
        p: &Program,
        pf: &Platform,
        config: &MhlaConfig,
    ) -> (SearchOutcome, SearchOutcome, CostBreakdown) {
        let ctx = ExplorationContext::new(p, pf, config.clone());
        let model = ctx.cost_model(pf);
        let g = greedy(&model, config);
        let e = exhaustive(&model, config, 1_000_000);
        let b = model.evaluate(&Assignment::baseline(p.array_count(), config.policy));
        (g, e, b)
    }

    /// Table scanned repeatedly — the canonical staging win.
    fn scan_program() -> Program {
        let mut b = ProgramBuilder::new("scan");
        let tab = b.array("tab", &[256], ElemType::U8);
        let lr = b.begin_loop("rep", 0, 64, 1);
        let li = b.begin_loop("i", 0, 256, 1);
        let iv = b.var(li);
        b.stmt("s").read(tab, vec![iv]).compute_cycles(1).finish();
        b.end_loop();
        b.end_loop();
        let _ = lr;
        b.finish()
    }

    #[test]
    fn greedy_stages_the_scanned_table() {
        let p = scan_program();
        let pf = Platform::embedded_default(1024);
        let (g, _, base) = run(&p, &pf, &MhlaConfig::default());
        assert_eq!(g.assignment.copies().len(), 1);
        assert!(g.cost.total_cycles() < base.total_cycles() / 2);
        assert!(g.cost.total_energy_pj() < base.total_energy_pj() / 2.0);
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_instances() {
        let p = scan_program();
        let pf = Platform::embedded_default(1024);
        for objective in [Objective::Cycles, Objective::Energy] {
            let config = MhlaConfig {
                objective,
                ..MhlaConfig::default()
            };
            let (g, e, _) = run(&p, &pf, &config);
            assert_eq!(
                objective.score(&g.cost),
                objective.score(&e.cost),
                "greedy should be optimal here"
            );
        }
    }

    #[test]
    fn nothing_is_staged_when_scratchpad_is_too_small() {
        let p = scan_program();
        let pf = Platform::embedded_default(16); // 16 B: nothing useful fits
        let (g, e, base) = run(&p, &pf, &MhlaConfig::default());
        // The only feasible candidates are tiny inner-loop footprints with
        // no gain; greedy must not regress below baseline.
        assert!(g.cost.total_cycles() <= base.total_cycles());
        assert!(e.cost.total_cycles() <= base.total_cycles());
    }

    #[test]
    fn capacity_constrains_the_choice() {
        // Two tables; only one fits.
        let mut b = ProgramBuilder::new("two");
        let hot = b.array("hot", &[256], ElemType::U8);
        let cold = b.array("cold", &[256], ElemType::U8);
        let lr = b.begin_loop("rep", 0, 64, 1);
        let li = b.begin_loop("i", 0, 256, 1);
        let iv = b.var(li);
        b.stmt("h").read(hot, vec![iv.clone()]).finish();
        b.end_loop();
        let lj = b.begin_loop("j", 0, 16, 1);
        let jv = b.var(lj);
        b.stmt("c").read(cold, vec![jv * 16]).finish();
        b.end_loop();
        b.end_loop();
        let _ = (lr, li, lj);
        let p = b.finish();
        let pf = Platform::embedded_default(256);
        let (g, e, _) = run(&p, &pf, &MhlaConfig::default());
        // The hot table (64×256 accesses) must win the single slot.
        for outcome in [&g, &e] {
            let staged: Vec<_> = outcome
                .assignment
                .copies()
                .iter()
                .map(|c| c.candidate.array)
                .collect();
            assert!(staged.contains(&hot), "hot table staged: {staged:?}");
            assert!(!staged.contains(&cold), "cold table must not fit");
        }
    }

    #[test]
    fn internal_temporary_gets_rehomed() {
        // tmp produced then consumed, fits on-chip: homing beats copying.
        let mut b = ProgramBuilder::new("p");
        let tmp = b.array("tmp", &[128], ElemType::U8);
        b.loop_scope("i", 0, 128, 1, |b, li| {
            let i = b.var(li);
            b.stmt("w").write(tmp, vec![i]).finish();
        });
        b.loop_scope("rep", 0, 32, 1, |b, _| {
            b.loop_scope("j", 0, 128, 1, |b, lj| {
                let j = b.var(lj);
                b.stmt("r").read(tmp, vec![j]).finish();
            });
        });
        let p = b.finish();
        let pf = Platform::embedded_default(1024);
        let (g, _, base) = run(&p, &pf, &MhlaConfig::default());
        assert_eq!(
            g.assignment.home(tmp),
            LayerId(1),
            "temporary homed on-chip"
        );
        assert!(g.assignment.copies().is_empty());
        assert_eq!(g.cost.transfer_count, 0, "no transfers at all");
        assert!(g.cost.total_cycles() < base.total_cycles());
    }

    #[test]
    fn greedy_never_worsens_the_baseline() {
        let p = scan_program();
        for cap in [32u64, 128, 512, 4096, 65536] {
            let pf = Platform::embedded_default(cap);
            let (g, _, base) = run(&p, &pf, &MhlaConfig::default());
            assert!(
                g.cost.total_cycles() <= base.total_cycles(),
                "regression at cap {cap}"
            );
        }
    }

    #[test]
    fn weighted_objective_interpolates() {
        let p = scan_program();
        let pf = Platform::embedded_default(1024);
        let config = MhlaConfig {
            objective: Objective::Weighted {
                energy_weight: 0.5,
                cycle_weight: 0.5,
            },
            ..MhlaConfig::default()
        };
        let (g, _, base) = run(&p, &pf, &config);
        assert!(config.objective.score(&g.cost) < config.objective.score(&base));
    }
}
