//! Sort-based Pareto dominance filtering (minimization).
//!
//! The trade-off exploration reports Pareto surfaces over points of the
//! form `(capacity vector…, objective)`. The seed implementation filtered
//! them with an all-pairs dominance scan — `O(n²)`, fine at hundreds of
//! points, hopeless at the 10⁵+ points a pruned 4-level grid can visit.
//! This module provides the shared replacement:
//!
//! * [`front`] — the production filter. Points are sorted lexicographically
//!   (`O(n log n)`); in sorted order every dominator precedes what it
//!   dominates, so one forward sweep suffices. The sweep itself is
//!   `O(n)` for 2-D points, `O(n log n)` for 3-D points (a monotone
//!   staircase over the trailing two coordinates), and falls back to an
//!   incumbent-front cull for ≥ 4-D points (`O(n·f)` with `f` the front
//!   size — still far below all-pairs on real grids, where fronts are
//!   small).
//! * [`front_quadratic`] — the frozen all-pairs oracle, kept `pub` so the
//!   equivalence tests and benches can compare the two on arbitrary point
//!   clouds (see `crates/core/tests/pareto_filter.rs`).
//!
//! Semantics, identical for both: point `i` survives iff no point `j` has
//! every coordinate ≤ `i`'s with the two points not exactly equal.
//! Duplicate points never dominate each other, so all copies of a
//! surviving point survive. Indices are returned in ascending input order.

use std::collections::BTreeMap;

/// Total-ordering wrapper so `f64` coordinates can key a [`BTreeMap`]
/// (ordered by [`f64::total_cmp`]).
#[derive(Clone, Copy, PartialEq, Debug)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

fn lex_cmp(a: &[f64], b: &[f64]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b) {
        let c = x.total_cmp(y);
        if c != std::cmp::Ordering::Equal {
            return c;
        }
    }
    std::cmp::Ordering::Equal
}

/// `a ≤ b` in every coordinate.
fn le(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x <= y)
}

/// The all-pairs dominance oracle: `O(n²·d)`, the seed semantics frozen.
///
/// Kept public for the equivalence tests and benches; production code uses
/// [`front`].
///
/// # Panics
///
/// Panics if the points do not all have the same dimension.
pub fn front_quadratic(points: &[Vec<f64>]) -> Vec<usize> {
    check_dims(points);
    (0..points.len())
        .filter(|&i| {
            !(0..points.len())
                .any(|j| j != i && le(&points[j], &points[i]) && points[j] != points[i])
        })
        .collect()
}

fn check_dims(points: &[Vec<f64>]) {
    if let Some(first) = points.first() {
        assert!(
            points.iter().all(|p| p.len() == first.len()),
            "all points of a Pareto filter must have the same dimension"
        );
    }
}

/// Indices of the Pareto-minimal points, ascending by input index.
///
/// Sort-based: `O(n log n)` for points of dimension ≤ 3 (the 1-D/2-D
/// capacity sweeps), incumbent-cull beyond. Produces exactly the same set
/// as [`front_quadratic`] — proptested on arbitrary clouds, including ties
/// and exact duplicates, in `crates/core/tests/pareto_filter.rs`.
///
/// Coordinates must be finite: the equality-with-the-oracle contract
/// covers finite inputs only (with a NaN coordinate the swept `<`
/// comparisons and the oracle's incomparable-`≤` semantics diverge).
/// The sweep surfaces never produce non-finite costs.
///
/// # Panics
///
/// Panics if the points do not all have the same dimension, or (debug
/// builds) if any coordinate is not finite.
pub fn front(points: &[Vec<f64>]) -> Vec<usize> {
    check_dims(points);
    debug_assert!(
        points.iter().all(|p| p.iter().all(|c| c.is_finite())),
        "pareto::front requires finite coordinates"
    );
    if points.is_empty() {
        return Vec::new();
    }
    let dim = points[0].len();
    if dim == 0 {
        // Zero-dimensional points are all equal: nothing dominates.
        return (0..points.len()).collect();
    }

    // Lexicographic order: every dominator of a point sorts strictly
    // before it (componentwise ≤ and not equal ⇒ lexicographically
    // smaller), and exact duplicates sort adjacent.
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by(|&a, &b| lex_cmp(&points[a], &points[b]));

    // Collapse exact duplicates: equal points never dominate each other
    // and dominate / are dominated identically, so the sweep runs on the
    // unique vectors and every member of a surviving group survives.
    let mut reps: Vec<usize> = Vec::with_capacity(order.len());
    let mut group_of: Vec<usize> = vec![0; points.len()];
    for &i in &order {
        match reps.last() {
            Some(&r) if points[r] == points[i] => group_of[i] = reps.len() - 1,
            _ => {
                group_of[i] = reps.len();
                reps.push(i);
            }
        }
    }

    let survive = match dim {
        1 => {
            // Unique scalars in ascending order: only the minimum survives.
            let mut s = vec![false; reps.len()];
            s[0] = true;
            s
        }
        2 => sweep_2d(points, &reps),
        3 => sweep_3d(points, &reps),
        _ => cull(points, &reps),
    };

    (0..points.len())
        .filter(|&i| survive[group_of[i]])
        .collect()
}

/// 2-D sweep over unique, lex-sorted points: a point is dominated iff some
/// earlier point's second coordinate is ≤ its own (the earlier point's
/// first coordinate is ≤ by the sort, and uniqueness provides strictness).
fn sweep_2d(points: &[Vec<f64>], reps: &[usize]) -> Vec<bool> {
    let mut survive = vec![false; reps.len()];
    let mut best = f64::INFINITY;
    for (k, &r) in reps.iter().enumerate() {
        let y = points[r][1];
        survive[k] = y < best;
        best = best.min(y);
    }
    survive
}

/// 3-D sweep: process groups of equal first coordinate in ascending order.
/// A monotone staircase (second coordinate ↑, third coordinate ↓) holds the
/// 2-D front of everything with a strictly smaller first coordinate;
/// membership costs one `O(log n)` prefix query. Within a group, the plain
/// 2-D sweep applies.
fn sweep_3d(points: &[Vec<f64>], reps: &[usize]) -> Vec<bool> {
    let mut survive = vec![true; reps.len()];
    let mut stair: BTreeMap<OrdF64, f64> = BTreeMap::new();
    let query = |stair: &BTreeMap<OrdF64, f64>, y: f64| -> Option<f64> {
        stair.range(..=OrdF64(y)).next_back().map(|(_, &z)| z)
    };
    let mut i = 0;
    while i < reps.len() {
        let mut j = i + 1;
        while j < reps.len() && points[reps[j]][0] == points[reps[i]][0] {
            j += 1;
        }
        // Dominance from strictly-smaller first coordinates (staircase) and
        // from within the group (2-D sweep over the trailing coordinates).
        let mut best_z = f64::INFINITY;
        for k in i..j {
            let (y, z) = (points[reps[k]][1], points[reps[k]][2]);
            let from_before = query(&stair, y).is_some_and(|zq| zq <= z);
            survive[k] = !from_before && z < best_z;
            best_z = best_z.min(z);
        }
        // Fold the group's survivors into the staircase (dominated members
        // add nothing: their dominator subsumes every future query).
        for k in i..j {
            if !survive[k] {
                continue;
            }
            let (y, z) = (points[reps[k]][1], points[reps[k]][2]);
            if query(&stair, y).is_some_and(|zq| zq <= z) {
                continue;
            }
            // Entries at larger keys with ≥ z are now subsumed; they form a
            // prefix of the tail range because the staircase is monotone.
            let doomed: Vec<OrdF64> = stair
                .range(OrdF64(y)..)
                .take_while(|(_, &ze)| ze >= z)
                .map(|(&k, _)| k)
                .collect();
            for k in doomed {
                stair.remove(&k);
            }
            stair.insert(OrdF64(y), z);
        }
        i = j;
    }
    survive
}

/// Per-point slack of one point set against a reference set, for points
/// of the form `(budget coordinates…, objective)` — the *delta report*
/// behind the improving-vs-cold frontier comparisons.
///
/// For every reference point `q` in `theirs`, the returned entry is
/// `q.objective − min{ p.objective : p ∈ ours, p.budget ≤ q.budget }` —
/// how much better (`> 0`), equal (`0`) or worse (`< 0`) `ours` does
/// within `q`'s budget. `NEG_INFINITY` when no point of `ours` fits the
/// budget at all (`ours` trails unconditionally there).
///
/// # Panics
///
/// Panics if the points do not all share one nonzero dimension.
pub fn front_deltas(ours: &[Vec<f64>], theirs: &[Vec<f64>]) -> Vec<f64> {
    check_dims(ours);
    check_dims(theirs);
    if let (Some(p), Some(q)) = (ours.first(), theirs.first()) {
        assert_eq!(p.len(), q.len(), "front_deltas: dimension mismatch");
        assert!(!p.is_empty(), "front_deltas: zero-dimensional points");
    }
    theirs
        .iter()
        .map(|q| {
            let (budget, objective) = q.split_at(q.len() - 1);
            ours.iter()
                .filter(|p| le(&p[..budget.len()], budget))
                .map(|p| objective[0] - p[p.len() - 1])
                .fold(f64::NEG_INFINITY, f64::max)
        })
        .collect()
}

/// Whether the point set `ours` *dominates-or-equals* the reference set
/// `theirs`: every reference point is matched by some point of `ours`
/// with every coordinate ≤ (minimization). Equivalent to every
/// [`front_deltas`] entry being ≥ 0 — the machine check of the improving
/// sweep mode's "dominates, never trails" guarantee. Trivially true for
/// an empty `theirs`.
///
/// # Panics
///
/// Panics as [`front_deltas`] does.
pub fn front_dominates(ours: &[Vec<f64>], theirs: &[Vec<f64>]) -> bool {
    front_deltas(ours, theirs).iter().all(|&d| d >= 0.0)
}

/// ≥ 4-D fallback: lex-sorted incumbent cull. Every dominator is itself on
/// the running front (dominance is transitive), so each point is tested
/// against the front only — `O(n·f·d)` after the sort.
fn cull(points: &[Vec<f64>], reps: &[usize]) -> Vec<bool> {
    let mut survive = vec![true; reps.len()];
    let mut front: Vec<usize> = Vec::new();
    for (k, &r) in reps.iter().enumerate() {
        if front.iter().any(|&q| le(&points[q], &points[r])) {
            survive[k] = false;
        } else {
            front.push(r);
        }
    }
    survive
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(raw: &[&[f64]]) -> Vec<Vec<f64>> {
        raw.iter().map(|p| p.to_vec()).collect()
    }

    #[test]
    fn empty_and_singleton() {
        assert!(front(&[]).is_empty());
        assert_eq!(front(&pts(&[&[3.0, 4.0]])), vec![0]);
    }

    #[test]
    fn two_dim_staircase() {
        // Classic (capacity, objective) shape with one dominated point.
        let p = pts(&[&[1.0, 9.0], &[2.0, 5.0], &[3.0, 7.0], &[4.0, 1.0]]);
        assert_eq!(front(&p), vec![0, 1, 3]);
        assert_eq!(front_quadratic(&p), vec![0, 1, 3]);
    }

    #[test]
    fn duplicates_all_survive() {
        let p = pts(&[&[2.0, 2.0], &[1.0, 3.0], &[2.0, 2.0]]);
        assert_eq!(front(&p), vec![0, 1, 2]);
        assert_eq!(front_quadratic(&p), vec![0, 1, 2]);
        // …but a duplicated dominated point is dropped in every copy.
        let q = pts(&[&[2.0, 3.0], &[1.0, 1.0], &[2.0, 3.0]]);
        assert_eq!(front(&q), vec![1]);
        assert_eq!(front_quadratic(&q), vec![1]);
    }

    #[test]
    fn equal_objective_keeps_the_cheaper_point() {
        let p = pts(&[&[1.0, 5.0], &[2.0, 5.0]]);
        assert_eq!(front(&p), vec![0]);
    }

    #[test]
    fn three_dim_matches_oracle_on_a_lattice() {
        let mut p = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                p.push(vec![x as f64, y as f64, ((x * y) % 5) as f64]);
            }
        }
        assert_eq!(front(&p), front_quadratic(&p));
    }

    #[test]
    fn four_dim_matches_oracle() {
        let mut p = Vec::new();
        for i in 0..81u32 {
            let digits = [i % 3, (i / 3) % 3, (i / 9) % 3, (i / 27) % 3];
            p.push(digits.iter().map(|&d| d as f64).collect());
        }
        assert_eq!(front(&p), front_quadratic(&p));
    }

    #[test]
    fn one_dim_keeps_only_the_minimum() {
        let p = pts(&[&[3.0], &[1.0], &[2.0], &[1.0]]);
        assert_eq!(front(&p), vec![1, 3]);
        assert_eq!(front_quadratic(&p), vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "same dimension")]
    fn mixed_dimensions_are_rejected() {
        let _ = front(&pts(&[&[1.0], &[1.0, 2.0]]));
    }

    #[test]
    fn front_deltas_report_improvement_match_and_trail() {
        let ours = pts(&[&[1.0, 5.0], &[2.0, 3.0]]);
        let theirs = pts(&[&[1.0, 6.0], &[2.0, 3.0], &[3.0, 1.0]]);
        let d = front_deltas(&ours, &theirs);
        assert_eq!(d, vec![1.0, 0.0, -2.0]);
        assert!(!front_dominates(&ours, &theirs));
        // Dominance holds exactly when every delta is non-negative.
        assert!(front_dominates(&ours, &theirs[..2]));
        // A reference point below every budget has no qualifying match.
        let tiny = pts(&[&[0.5, 0.5]]);
        assert_eq!(front_deltas(&ours, &tiny), vec![f64::NEG_INFINITY]);
        assert!(!front_dominates(&ours, &tiny));
        // Empty reference: trivially dominated.
        assert!(front_dominates(&ours, &[]));
    }

    #[test]
    fn front_dominance_is_reflexive_and_respects_strict_improvement() {
        let a = pts(&[&[1.0, 4.0], &[2.0, 2.0]]);
        assert!(front_dominates(&a, &a));
        let better = pts(&[&[1.0, 3.0], &[2.0, 2.0]]);
        assert!(front_dominates(&better, &a));
        assert!(!front_dominates(&a, &better));
        assert!(front_deltas(&better, &a).iter().any(|&d| d > 0.0));
    }
}
