//! Typed errors and ingress validation — the fallible boundary around
//! the whole exploration engine.
//!
//! Every `try_` entry point ([`Mhla::try_new`](crate::Mhla::try_new), the
//! `try_sweep*` family of [`explore`](crate::explore)) validates its
//! inputs up front — the [`Program`] (via [`Program::validate`]), the
//! [`Platform`] (capacities, layer ordering) and the
//! [`Objective`]/[`MhlaConfig`] — and returns a typed [`MhlaError`]
//! instead of panicking, so programs arriving from outside the process
//! (files, RPCs, fuzzers) are rejected with a diagnosis rather than a
//! crash. The infallible API stays as thin wrappers over the `try_`
//! variants; on inputs it accepts today it behaves bit-identically.

use std::error::Error;
use std::fmt;

use mhla_hierarchy::{LayerKind, Platform};
use mhla_ir::{Program, ValidateError};

use crate::explore::GridAxis;
use crate::types::{MhlaConfig, Objective};

/// Everything that can go wrong at the engine boundary.
///
/// Every variant is an *ingress* rejection: the input can never be
/// processed. Running out of an exploration budget is not an error — the
/// sweeps return `Ok` with a certified partial result
/// ([`SweepStatus::Stopped`](crate::explore::SweepStatus)) that their
/// `try_*_resume` entries continue.
#[derive(Clone, PartialEq, Debug)]
#[non_exhaustive]
pub enum MhlaError {
    /// The program failed structural validation ([`Program::validate`]).
    InvalidProgram(ValidateError),
    /// The platform or run configuration is unusable (a zero-capacity
    /// on-chip layer, a class override naming a nonexistent array, a
    /// malformed tuning variable, …).
    InvalidOptions {
        /// Human-readable diagnosis.
        what: String,
    },
    /// The objective is degenerate: a NaN or infinite weight, or every
    /// weight zero (nothing to minimize). Negative weights are *legal* —
    /// the exploration layer supports them (its floor rules disarm).
    InvalidObjective {
        /// Human-readable diagnosis.
        what: String,
    },
    /// A sweep axis names an impossible grid point: the off-chip layer, a
    /// layer the platform does not have, or a zero capacity.
    InfeasiblePoint {
        /// Human-readable diagnosis.
        what: String,
    },
}

impl fmt::Display for MhlaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MhlaError::InvalidProgram(e) => write!(f, "invalid program: {e}"),
            MhlaError::InvalidOptions { what } => write!(f, "invalid options: {what}"),
            MhlaError::InvalidObjective { what } => write!(f, "invalid objective: {what}"),
            MhlaError::InfeasiblePoint { what } => write!(f, "infeasible point: {what}"),
        }
    }
}

impl Error for MhlaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MhlaError::InvalidProgram(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ValidateError> for MhlaError {
    fn from(e: ValidateError) -> Self {
        MhlaError::InvalidProgram(e)
    }
}

impl From<mhla_ir::SerdesError> for MhlaError {
    /// Lifts a serialization-layer failure onto the engine boundary, so a
    /// caller ingesting programs/platforms from disk reports one error
    /// type. A document whose *decoded program* failed validation keeps
    /// its [`ValidateError`] ([`MhlaError::InvalidProgram`]); syntax,
    /// schema and version failures are input problems
    /// ([`MhlaError::InvalidOptions`]).
    fn from(e: mhla_ir::SerdesError) -> Self {
        match e {
            mhla_ir::SerdesError::Invalid(v) => MhlaError::InvalidProgram(v),
            other => MhlaError::InvalidOptions {
                what: other.to_string(),
            },
        }
    }
}

/// Validates a program for engine ingress ([`Program::validate`]).
///
/// # Errors
///
/// [`MhlaError::InvalidProgram`] naming the first structural defect.
pub fn validate_program(program: &Program) -> Result<(), MhlaError> {
    program.validate()?;
    Ok(())
}

/// Validates a platform for engine ingress: at least two layers, layer 0
/// an unbounded off-chip memory, every on-chip layer a nonzero bounded
/// capacity. Monotonicity is deliberately *not* required — grid sweeps
/// legitimately visit non-pyramidal stacks
/// ([`Platform::with_layer_capacities`] documents this).
///
/// # Errors
///
/// [`MhlaError::InvalidOptions`] naming the violation.
pub fn validate_platform(platform: &Platform) -> Result<(), MhlaError> {
    if platform.layer_count() < 2 {
        return Err(MhlaError::InvalidOptions {
            what: "a platform needs at least two memory layers".into(),
        });
    }
    let furthest = platform.layer(platform.furthest());
    if furthest.kind != LayerKind::OffChipSdram || furthest.capacity.is_some() {
        return Err(MhlaError::InvalidOptions {
            what: "layer 0 must be an unbounded off-chip memory".into(),
        });
    }
    for (id, layer) in platform.on_chip_layers() {
        match layer.capacity {
            Some(c) if c > 0 => {}
            _ => {
                return Err(MhlaError::InvalidOptions {
                    what: format!("on-chip layer {id} must have a nonzero capacity"),
                })
            }
        }
    }
    Ok(())
}

/// Validates an objective: weights must be finite and not all zero.
/// Negative weights pass — the engine supports them (gain-bound and floor
/// rules disarm where no sound bound exists).
///
/// # Errors
///
/// [`MhlaError::InvalidObjective`] naming the degenerate weight.
pub fn validate_objective(objective: &Objective) -> Result<(), MhlaError> {
    match *objective {
        Objective::Energy | Objective::Cycles => Ok(()),
        Objective::Weighted {
            energy_weight,
            cycle_weight,
        } => {
            if !energy_weight.is_finite() || !cycle_weight.is_finite() {
                return Err(MhlaError::InvalidObjective {
                    what: format!(
                        "weights must be finite, got energy {energy_weight} / cycles {cycle_weight}"
                    ),
                });
            }
            if energy_weight == 0.0 && cycle_weight == 0.0 {
                return Err(MhlaError::InvalidObjective {
                    what: "both weights are zero: nothing to minimize".into(),
                });
            }
            Ok(())
        }
    }
}

/// Validates a run configuration against its program: a well-formed
/// objective and class overrides that name existing arrays.
///
/// # Errors
///
/// [`MhlaError::InvalidObjective`] / [`MhlaError::InvalidOptions`].
pub fn validate_config(program: &Program, config: &MhlaConfig) -> Result<(), MhlaError> {
    validate_objective(&config.objective)?;
    for (array, _) in &config.class_overrides {
        if array.index() >= program.array_count() {
            return Err(MhlaError::InvalidOptions {
                what: format!(
                    "class override names array {array}, program has {} array(s)",
                    program.array_count()
                ),
            });
        }
    }
    Ok(())
}

/// The shared ingress check of every `try_` run entry point: program,
/// platform, configuration.
pub(crate) fn validate_run_ingress(
    program: &Program,
    platform: &Platform,
    config: &MhlaConfig,
) -> Result<(), MhlaError> {
    validate_program(program)?;
    validate_platform(platform)?;
    validate_config(program, config)
}

/// Validates sweep axes against the platform: every axis must name an
/// on-chip layer of the platform and visit nonzero capacities
/// ([`MhlaError::InfeasiblePoint`] otherwise), and no two axes may name
/// the same layer ([`MhlaError::InvalidOptions`]: the later axis would
/// overwrite the earlier one's capacity at every point). (Empty axis
/// lists are legal and yield an empty sweep, as before.)
pub(crate) fn validate_axes(platform: &Platform, axes: &[GridAxis]) -> Result<(), MhlaError> {
    for (i, axis) in axes.iter().enumerate() {
        if axis.layer.index() == 0 {
            return Err(MhlaError::InfeasiblePoint {
                what: "an axis resizes the off-chip layer".into(),
            });
        }
        if axis.layer.index() >= platform.layer_count() {
            return Err(MhlaError::InfeasiblePoint {
                what: format!(
                    "axis layer {} out of range (platform has {} layers)",
                    axis.layer,
                    platform.layer_count()
                ),
            });
        }
        if axis.capacities.contains(&0) {
            return Err(MhlaError::InfeasiblePoint {
                what: format!("axis for layer {} visits a zero capacity", axis.layer),
            });
        }
        if axes[..i].iter().any(|a| a.layer == axis.layer) {
            return Err(MhlaError::InvalidOptions {
                what: format!("axes must name distinct layers ({} repeats)", axis.layer),
            });
        }
    }
    Ok(())
}

/// Validates the refinement-specific options of
/// [`try_sweep_grid_refined_with`](crate::explore::try_sweep_grid_refined_with):
/// the subdivision depth must be in `1..=16` (depth 0 is the pruned grid
/// sweep,
/// [`try_sweep_grid_pruned_with`](crate::explore::try_sweep_grid_pruned_with);
/// past 16 the virtual lattice bookkeeping overflows long before any
/// capacity range benefits).
pub(crate) fn validate_refine_options(
    opts: &crate::explore::RefineOptions,
) -> Result<(), MhlaError> {
    if opts.depth == 0 || opts.depth > 16 {
        return Err(MhlaError::InvalidOptions {
            what: format!("refinement depth {} out of range (1..=16)", opts.depth),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mhla_hierarchy::LayerId;
    use mhla_ir::{ElemType, ProgramBuilder};

    fn tiny() -> Program {
        let mut b = ProgramBuilder::new("t");
        let a = b.array("a", &[8], ElemType::U8);
        b.loop_scope("i", 0, 8, 1, |b, li| {
            let iv = b.var(li);
            b.stmt("s").read(a, vec![iv]).finish();
        });
        b.finish()
    }

    #[test]
    fn valid_ingress_passes() {
        let p = tiny();
        let pf = Platform::embedded_default(1024);
        assert!(validate_run_ingress(&p, &pf, &MhlaConfig::default()).is_ok());
    }

    #[test]
    fn degenerate_objectives_are_rejected_but_negative_weights_pass() {
        for (ew, cw) in [
            (f64::NAN, 1.0),
            (1.0, f64::INFINITY),
            (f64::NEG_INFINITY, 0.0),
            (0.0, 0.0),
        ] {
            let obj = Objective::Weighted {
                energy_weight: ew,
                cycle_weight: cw,
            };
            assert!(
                matches!(
                    validate_objective(&obj),
                    Err(MhlaError::InvalidObjective { .. })
                ),
                "({ew}, {cw}) must be rejected"
            );
        }
        let negative = Objective::Weighted {
            energy_weight: -1.0,
            cycle_weight: 1.0,
        };
        assert!(validate_objective(&negative).is_ok());
    }

    #[test]
    fn out_of_range_class_override_is_rejected() {
        let p = tiny();
        let config = MhlaConfig {
            class_overrides: vec![(
                mhla_ir::ArrayId::from_index(7),
                crate::classify::ArrayClass::Internal,
            )],
            ..MhlaConfig::default()
        };
        let err = validate_config(&p, &config).unwrap_err();
        assert!(matches!(err, MhlaError::InvalidOptions { .. }));
        assert!(err.to_string().contains("class override"), "{err}");
    }

    #[test]
    fn bad_axes_are_infeasible_points() {
        let pf = Platform::embedded_default(1024);
        let off_chip = [GridAxis::new(LayerId(0), vec![64u64])];
        assert!(matches!(
            validate_axes(&pf, &off_chip),
            Err(MhlaError::InfeasiblePoint { .. })
        ));
        let out_of_range = [GridAxis::new(LayerId(9), vec![64u64])];
        assert!(matches!(
            validate_axes(&pf, &out_of_range),
            Err(MhlaError::InfeasiblePoint { .. })
        ));
        let zero_cap = [GridAxis::new(LayerId(1), vec![64u64, 0])];
        assert!(matches!(
            validate_axes(&pf, &zero_cap),
            Err(MhlaError::InfeasiblePoint { .. })
        ));
        assert!(validate_axes(&pf, &[]).is_ok(), "empty axes stay legal");
    }

    #[test]
    fn duplicate_axis_layers_are_invalid_options() {
        let three = Platform::three_level_default();
        let dup = [
            GridAxis::new(LayerId(1), vec![64u64]),
            GridAxis::new(LayerId(1), vec![128u64]),
        ];
        let err = validate_axes(&three, &dup).unwrap_err();
        assert!(matches!(err, MhlaError::InvalidOptions { .. }), "{err}");
        assert!(err.to_string().contains("distinct"), "{err}");
    }

    #[test]
    fn refine_options_bound_depth() {
        use crate::explore::RefineOptions;
        for depth in [0usize, 17] {
            let err = validate_refine_options(&RefineOptions::default().depth(depth)).unwrap_err();
            assert!(matches!(err, MhlaError::InvalidOptions { .. }));
            assert!(err.to_string().contains("depth"), "{err}");
        }
        assert!(validate_refine_options(&RefineOptions::default()).is_ok());
    }

    #[test]
    fn display_and_source_are_wired() {
        let e = MhlaError::from(ValidateError::DuplicateArrayName { name: "x".into() });
        assert!(e.to_string().contains("invalid program"));
        assert!(std::error::Error::source(&e).is_some());
    }
}
