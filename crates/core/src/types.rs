//! Assignment representation, configuration and error types.

use std::error::Error;
use std::fmt;

use mhla_hierarchy::LayerId;
use mhla_ir::ArrayId;
use mhla_reuse::CandidateId;

/// How copy buffers are refreshed by block transfers.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum TransferPolicy {
    /// Every entry of the owning loop refreshes the full buffer.
    FullRefresh,
    /// Sliding-window update: the first entry fills the buffer, subsequent
    /// entries transfer only the newly needed elements (when the footprint
    /// analysis proved the window slides).
    #[default]
    SlidingDelta,
}

/// What the assignment search minimizes.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub enum Objective {
    /// Minimize memory energy (the paper's Figure 3 axis).
    Energy,
    /// Minimize execution cycles (the paper's Figure 2 axis).
    #[default]
    Cycles,
    /// Minimize `energy_weight·E + cycle_weight·T` (normalized units:
    /// picojoule and cycles respectively).
    Weighted {
        /// Weight on energy (per picojoule).
        energy_weight: f64,
        /// Weight on cycles (per cycle).
        cycle_weight: f64,
    },
}

/// Which search procedure the assignment step uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum SearchStrategy {
    /// The published greedy gain/size steering.
    #[default]
    Greedy,
    /// Exhaustive branch-and-bound over per-array options; exact but only
    /// viable for small instances. Aborts (falling back to the incumbent)
    /// after visiting `node_limit` search nodes.
    Exhaustive {
        /// Maximum number of search-tree nodes to expand.
        node_limit: u64,
    },
}

/// Configuration of the whole MHLA run.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MhlaConfig {
    /// Optimization objective of the assignment step.
    pub objective: Objective,
    /// Search strategy of the assignment step.
    pub strategy: SearchStrategy,
    /// Block-transfer refresh policy.
    pub policy: TransferPolicy,
    /// Maximum copy-chain length per array (bounded by the number of
    /// on-chip layers; 0 means "use the platform depth").
    pub max_chain: usize,
    /// Per-array class overrides (see [`ArrayClass`](crate::ArrayClass));
    /// arrays not listed are classified automatically.
    pub class_overrides: Vec<(ArrayId, crate::classify::ArrayClass)>,
    /// Disable the Time-Extension step even when a DMA engine exists
    /// (used for step-1-only measurements, e.g. the paper's "MHLA" bars).
    pub disable_te: bool,
}

/// Records one capacity rejection at `layer` that needed `required` bytes
/// there: lowers the layer's rejection floor
/// ([`RunStats::layer_reject_floors`](crate::RunStats::layer_reject_floors)).
/// The one writer shared by the greedy search, the TE planner and direct
/// placement; an empty `floors` (an untracked run) records nothing.
pub(crate) fn reject(floors: &mut [u64], layer: LayerId, required: u64) {
    if let Some(f) = floors.get_mut(layer.index()) {
        *f = (*f).min(required);
    }
}

/// One selected copy: a candidate staged into an on-chip layer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct SelectedCopy {
    /// Which candidate is staged.
    pub candidate: CandidateId,
    /// Destination layer of the copy buffer.
    pub layer: LayerId,
}

impl fmt::Display for SelectedCopy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.candidate, self.layer)
    }
}

/// A complete layer assignment: a home layer per array plus the selected
/// copies.
///
/// Invariants (checked by [`Assignment::validate`] against a reuse
/// analysis): per array, the selected copies form a nested chain with
/// strictly increasing layers starting above the array's home layer.
#[derive(Clone, PartialEq, Debug)]
pub struct Assignment {
    array_home: Vec<LayerId>,
    copies: Vec<SelectedCopy>,
    policy: TransferPolicy,
}

impl Assignment {
    /// The out-of-the-box assignment: every array homed in the furthest
    /// (off-chip) layer, no copies.
    pub fn baseline(array_count: usize, policy: TransferPolicy) -> Self {
        Assignment {
            array_home: vec![LayerId(0); array_count],
            copies: Vec::new(),
            policy,
        }
    }

    /// Home layer of an array.
    pub fn home(&self, array: ArrayId) -> LayerId {
        self.array_home[array.index()]
    }

    /// Re-homes an array.
    pub fn set_home(&mut self, array: ArrayId, layer: LayerId) {
        self.array_home[array.index()] = layer;
    }

    /// All selected copies (no particular order across arrays; nested
    /// outer-to-inner per array).
    pub fn copies(&self) -> &[SelectedCopy] {
        &self.copies
    }

    /// Selected copies of one array, outermost first.
    pub fn copies_of(&self, array: ArrayId) -> Vec<SelectedCopy> {
        let mut v = Vec::new();
        self.copies_of_into(array, &mut v);
        v
    }

    /// [`copies_of`](Self::copies_of) into a caller-owned buffer
    /// (cleared first) — same stable sort, so the chain order is
    /// identical to the allocating accessor's.
    pub(crate) fn copies_of_into(&self, array: ArrayId, out: &mut Vec<SelectedCopy>) {
        out.clear();
        out.extend(
            self.copies
                .iter()
                .copied()
                .filter(|c| c.candidate.array == array),
        );
        out.sort_by_key(|c| c.layer);
    }

    /// Overwrites this assignment with `other`'s state, reusing this
    /// assignment's vector allocations (a capacity-preserving
    /// `clone_from` for the workspace-reuse search paths).
    pub(crate) fn copy_from(&mut self, other: &Assignment) {
        self.array_home.clear();
        self.array_home.extend_from_slice(&other.array_home);
        self.copies.clear();
        self.copies.extend_from_slice(&other.copies);
        self.policy = other.policy;
    }

    /// Resets this assignment to [`baseline`](Self::baseline) state in
    /// place, reusing its vector allocations.
    pub(crate) fn reset_baseline(&mut self, array_count: usize, policy: TransferPolicy) {
        self.array_home.clear();
        self.array_home.resize(array_count, LayerId(0));
        self.copies.clear();
        self.policy = policy;
    }

    /// Adds a copy selection.
    pub fn add_copy(&mut self, copy: SelectedCopy) {
        self.copies.push(copy);
    }

    /// Removes every copy of `array`.
    pub fn clear_copies_of(&mut self, array: ArrayId) {
        self.copies.retain(|c| c.candidate.array != array);
    }

    /// The transfer policy used for pricing block transfers.
    pub fn policy(&self) -> TransferPolicy {
        self.policy
    }

    /// Number of arrays covered.
    pub fn array_count(&self) -> usize {
        self.array_home.len()
    }

    /// Checks the structural invariants against a reuse analysis.
    ///
    /// # Errors
    ///
    /// Returns an [`AssignmentError`] naming the first violated invariant.
    pub fn validate(
        &self,
        reuse: &mhla_reuse::ReuseAnalysis,
        layer_count: usize,
    ) -> Result<(), AssignmentError> {
        for (i, &home) in self.array_home.iter().enumerate() {
            if home.index() >= layer_count {
                return Err(AssignmentError::LayerOutOfRange {
                    what: format!("array A{i} home"),
                });
            }
        }
        for c in &self.copies {
            if c.layer.index() >= layer_count {
                return Err(AssignmentError::LayerOutOfRange {
                    what: format!("copy {c}"),
                });
            }
            if c.layer.index() == 0 {
                return Err(AssignmentError::CopyInOffChip { copy: *c });
            }
            let home = self.home(c.candidate.array);
            if c.layer <= home {
                return Err(AssignmentError::CopyBelowHome { copy: *c });
            }
        }
        // Per-array chain checks.
        for aid in 0..self.array_home.len() {
            let array = ArrayId::from_index(aid);
            let chain = self.copies_of(array);
            let ar = reuse.array(array);
            for w in chain.windows(2) {
                let (outer, inner) = (w[0], w[1]);
                if outer.layer == inner.layer {
                    return Err(AssignmentError::DuplicateLayer { array });
                }
                if !ar.can_chain(outer.candidate.index, inner.candidate.index) {
                    return Err(AssignmentError::NotNested {
                        outer: outer.candidate,
                        inner: inner.candidate,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Violations of [`Assignment`] invariants.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum AssignmentError {
    /// A layer id does not exist on the platform.
    LayerOutOfRange {
        /// Description of the offending reference.
        what: String,
    },
    /// A copy was placed in the off-chip layer (meaningless).
    CopyInOffChip {
        /// The offending selection.
        copy: SelectedCopy,
    },
    /// A copy was placed at or below its array's home layer.
    CopyBelowHome {
        /// The offending selection.
        copy: SelectedCopy,
    },
    /// Two copies of one array share a layer.
    DuplicateLayer {
        /// The array with the clashing copies.
        array: ArrayId,
    },
    /// A copy chain is not geometrically nested.
    NotNested {
        /// Outer chain element.
        outer: CandidateId,
        /// Inner chain element that does not nest.
        inner: CandidateId,
    },
    /// The selected residents exceed a layer capacity even after in-place.
    CapacityExceeded {
        /// The overfull layer.
        layer: LayerId,
        /// Bytes required after in-place optimization.
        required: u64,
        /// Bytes available.
        capacity: u64,
    },
}

impl fmt::Display for AssignmentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssignmentError::LayerOutOfRange { what } => {
                write!(f, "layer out of range for {what}")
            }
            AssignmentError::CopyInOffChip { copy } => {
                write!(f, "copy {copy} placed in the off-chip layer")
            }
            AssignmentError::CopyBelowHome { copy } => {
                write!(f, "copy {copy} not above its array's home layer")
            }
            AssignmentError::DuplicateLayer { array } => {
                write!(f, "array {array} has two copies in one layer")
            }
            AssignmentError::NotNested { outer, inner } => {
                write!(f, "copy chain {outer} -> {inner} is not nested")
            }
            AssignmentError::CapacityExceeded {
                layer,
                required,
                capacity,
            } => write!(
                f,
                "layer {layer} needs {required} B but only has {capacity} B"
            ),
        }
    }
}

impl Error for AssignmentError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_has_everything_off_chip() {
        let a = Assignment::baseline(3, TransferPolicy::FullRefresh);
        for i in 0..3 {
            assert_eq!(a.home(ArrayId::from_index(i)), LayerId(0));
        }
        assert!(a.copies().is_empty());
        assert_eq!(a.policy(), TransferPolicy::FullRefresh);
    }

    #[test]
    fn copies_of_sorts_outer_to_inner() {
        let mut a = Assignment::baseline(1, TransferPolicy::default());
        let arr = ArrayId::from_index(0);
        a.add_copy(SelectedCopy {
            candidate: CandidateId {
                array: arr,
                index: 2,
            },
            layer: LayerId(2),
        });
        a.add_copy(SelectedCopy {
            candidate: CandidateId {
                array: arr,
                index: 0,
            },
            layer: LayerId(1),
        });
        let chain = a.copies_of(arr);
        assert_eq!(chain.len(), 2);
        assert!(chain[0].layer < chain[1].layer);
    }

    #[test]
    fn clear_copies_only_touches_one_array() {
        let mut a = Assignment::baseline(2, TransferPolicy::default());
        for i in 0..2 {
            a.add_copy(SelectedCopy {
                candidate: CandidateId {
                    array: ArrayId::from_index(i),
                    index: 0,
                },
                layer: LayerId(1),
            });
        }
        a.clear_copies_of(ArrayId::from_index(0));
        assert_eq!(a.copies().len(), 1);
        assert_eq!(a.copies()[0].candidate.array, ArrayId::from_index(1));
    }

    #[test]
    fn error_display_names_the_violation() {
        let e = AssignmentError::CapacityExceeded {
            layer: LayerId(1),
            required: 2048,
            capacity: 1024,
        };
        let s = e.to_string();
        assert!(s.contains("2048"));
        assert!(s.contains("1024"));
    }
}
