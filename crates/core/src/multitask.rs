//! Multi-task extension (the paper's stated future work).
//!
//! The DATE 2005 paper closes §3 with: "Although, we only consider single
//! threaded applications, we plan to extend our technique to multiple
//! tasks with multiple threads." This module implements the natural static
//! formulation of that extension: several independent tasks share one
//! platform, the on-chip scratchpad is **statically partitioned** among
//! them, and each task runs the full MHLA flow (assignment + TE) inside
//! its partition.
//!
//! The partitioning itself is solved exactly by dynamic programming over a
//! budget grid: every task is evaluated at each candidate partition size
//! (a per-task capacity sweep — one cold one-axis grid of
//! [`explore`](crate::explore), so the task is analysed once) and the
//! allocation minimizing the summed objective is selected. This is the
//! multi-task analogue of the paper's "thorough trade-off exploration for
//! different memory layer sizes".

use mhla_hierarchy::Platform;
use mhla_ir::Program;

use crate::driver::MhlaResult;
use crate::error::{self, MhlaError};
use crate::explore::{try_sweep_grid_run, GridAxis, SweepOptions};
use crate::types::{MhlaConfig, Objective};

/// Result of a multi-task partitioning run.
#[derive(Clone, PartialEq, Debug)]
pub struct MultiTaskResult {
    /// Scratchpad bytes allocated to each task (parallel to the input).
    pub partitions: Vec<u64>,
    /// Per-task MHLA results at the chosen partition sizes.
    pub results: Vec<MhlaResult>,
}

impl MultiTaskResult {
    /// Summed MHLA+TE cycles over all tasks (time-multiplexed execution).
    pub fn total_cycles(&self) -> u64 {
        self.results.iter().map(|r| r.mhla_te_cycles()).sum()
    }

    /// Summed memory energy over all tasks, picojoule.
    pub fn total_energy_pj(&self) -> f64 {
        self.results.iter().map(|r| r.mhla_energy_pj()).sum()
    }

    /// Summed baseline cycles (each task out-of-the-box).
    pub fn baseline_cycles(&self) -> u64 {
        self.results.iter().map(|r| r.baseline_cycles()).sum()
    }
}

/// Statically partitions the scratchpad of `platform` among `tasks` and
/// runs the full MHLA flow per task.
///
/// `granularity` is the allocation quantum in bytes (e.g. 512); the
/// partition sizes are multiples of it and sum to at most the scratchpad
/// capacity. Tasks can receive a zero partition (they then run entirely
/// from off-chip memory). Every task program, the platform and the
/// configuration are validated up front, and unusable inputs come back
/// as typed errors instead of panics.
///
/// # Errors
///
/// [`MhlaError::InvalidProgram`] for a structurally broken task,
/// [`MhlaError::InvalidOptions`] for an empty task set, a zero or
/// oversized granularity, more partition sizes than a grid may list (see
/// [`try_sweep_grid_run`]), an unbounded scratchpad layer or a bad
/// configuration, [`MhlaError::InvalidObjective`] for degenerate
/// weights.
pub fn try_partition_scratchpad(
    tasks: &[&Program],
    platform: &Platform,
    config: &MhlaConfig,
    granularity: u64,
) -> Result<MultiTaskResult, MhlaError> {
    if tasks.is_empty() {
        return Err(MhlaError::InvalidOptions {
            what: "need at least one task".into(),
        });
    }
    if granularity == 0 {
        return Err(MhlaError::InvalidOptions {
            what: "granularity must be positive".into(),
        });
    }
    error::validate_platform(platform)?;
    for task in tasks {
        error::validate_program(task)?;
        error::validate_config(task, config)?;
    }
    let layer = platform.closest();
    let Some(capacity) = platform.layer(layer).capacity else {
        return Err(MhlaError::InvalidOptions {
            what: "closest layer must be bounded to partition it".into(),
        });
    };
    let slots = (capacity / granularity) as usize;
    if slots == 0 {
        return Err(MhlaError::InvalidOptions {
            what: "granularity exceeds the scratchpad capacity".into(),
        });
    }

    // Evaluate each task at every candidate partition size. Index 0 means
    // "no on-chip partition" (modelled as a 1-byte scratchpad, which fits
    // nothing useful). Each task's sizes are one cold, unbudgeted grid on
    // `layer`, whose points equal standalone runs; at granularity 1, slots
    // 0 and 1 share the 1-byte point.
    let score = |r: &MhlaResult| match config.objective {
        Objective::Energy => r.mhla_energy_pj(),
        Objective::Cycles => r.mhla_te_cycles() as f64,
        Objective::Weighted {
            energy_weight,
            cycle_weight,
        } => energy_weight * r.mhla_energy_pj() + cycle_weight * r.mhla_te_cycles() as f64,
    };
    let sizes: Vec<u64> = (0..=slots)
        .map(|slot| (slot as u64 * granularity).max(1))
        .collect();
    let axis = [GridAxis::new(layer, sizes)];
    let mut evaluated: Vec<Vec<(f64, MhlaResult)>> = Vec::with_capacity(tasks.len());
    for task in tasks {
        let points = try_sweep_grid_run(task, platform, &axis, config, &SweepOptions::default())?
            .sweep
            .points;
        let per_size = axis[0]
            .capacities
            .iter()
            .map(|&bytes| {
                let at = points.partition_point(|p| p.capacities[0] < bytes);
                let result = points[at].result.clone();
                (score(&result), result)
            })
            .collect();
        evaluated.push(per_size);
    }

    // Exact allocation by dynamic programming over the budget grid:
    // dp[t][c] = best summed score using tasks 0..=t and c slots.
    let n = tasks.len();
    let mut dp = vec![vec![f64::INFINITY; slots + 1]; n];
    let mut choice = vec![vec![0usize; slots + 1]; n];
    for c in 0..=slots {
        for (s, ev) in evaluated[0].iter().enumerate().take(c + 1) {
            let v = ev.0;
            if v < dp[0][c] {
                dp[0][c] = v;
                choice[0][c] = s;
            }
        }
    }
    for t in 1..n {
        for c in 0..=slots {
            for s in 0..=c {
                let v = dp[t - 1][c - s] + evaluated[t][s].0;
                if v < dp[t][c] {
                    dp[t][c] = v;
                    choice[t][c] = s;
                }
            }
        }
    }

    // Walk back the choices.
    let mut partitions = vec![0u64; n];
    let mut results = Vec::with_capacity(n);
    let mut c = slots;
    for t in (0..n).rev() {
        let s = choice[t][c];
        partitions[t] = s as u64 * granularity;
        c -= s;
        results.push(evaluated[t][s].1.clone());
    }
    results.reverse();
    Ok(MultiTaskResult {
        partitions,
        results,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Mhla;
    use mhla_ir::{ElemType, ProgramBuilder};

    /// A table-scan task whose working set is `bytes` large.
    fn scan_task(name: &str, bytes: u64, reps: i64) -> Program {
        let mut b = ProgramBuilder::new(name);
        let tab = b.array("tab", &[bytes], ElemType::U8);
        let lr = b.begin_loop("rep", 0, reps, 1);
        let li = b.begin_loop("i", 0, bytes as i64, 1);
        let iv = b.var(li);
        b.stmt("s").read(tab, vec![iv]).compute_cycles(2).finish();
        b.end_loop();
        b.end_loop();
        let _ = lr;
        b.finish()
    }

    #[test]
    fn partitions_sum_to_at_most_the_capacity() {
        let t1 = scan_task("hot", 512, 64);
        let t2 = scan_task("cold", 512, 2);
        let platform = Platform::embedded_default(1024);
        let r =
            try_partition_scratchpad(&[&t1, &t2], &platform, &MhlaConfig::default(), 256).unwrap();
        assert_eq!(r.partitions.len(), 2);
        assert!(r.partitions.iter().sum::<u64>() <= 1024);
    }

    #[test]
    fn hot_task_wins_the_scratchpad() {
        // Both tasks want 512 B; only one fits. The one with 32x more
        // traffic must get it.
        let hot = scan_task("hot", 512, 64);
        let cold = scan_task("cold", 512, 2);
        let platform = Platform::embedded_default(512);
        let r = try_partition_scratchpad(&[&cold, &hot], &platform, &MhlaConfig::default(), 512)
            .unwrap();
        assert_eq!(r.partitions, vec![0, 512], "hot task gets the space");
    }

    #[test]
    fn multitask_beats_equal_split_when_loads_are_skewed() {
        let hot = scan_task("hot", 1024, 64);
        let cold = scan_task("cold", 1024, 1);
        let platform = Platform::embedded_default(1024);
        let config = MhlaConfig::default();
        let optimal = try_partition_scratchpad(&[&hot, &cold], &platform, &config, 256).unwrap();

        // Manual equal split: both tasks at 512 B.
        let half = platform.with_layer_capacity(mhla_hierarchy::LayerId(1), 512);
        let equal: u64 = [&hot, &cold]
            .iter()
            .map(|t| Mhla::new(t, &half, config.clone()).run().mhla_te_cycles())
            .sum();
        assert!(
            optimal.total_cycles() <= equal,
            "DP allocation {} worse than naive equal split {equal}",
            optimal.total_cycles()
        );
        // And the whole thing still beats running both out of the box.
        assert!(optimal.total_cycles() < optimal.baseline_cycles());
    }

    /// At granularity 1 slots 0 and 1 share the grid's 1-byte point;
    /// every result equals a standalone run at its partition size (the
    /// 1-byte platform for a zero partition).
    #[test]
    fn partition_results_equal_standalone_runs_at_granularity_1() {
        let hot = scan_task("hot", 64, 64);
        let cold = scan_task("cold", 64, 1);
        let platform = Platform::embedded_default(64);
        let config = MhlaConfig::default();
        let tasks = [&cold, &hot];
        let r = try_partition_scratchpad(&tasks, &platform, &config, 1).unwrap();
        assert_eq!(r.partitions, vec![0, 64], "the cold task runs off-chip");
        for ((task, &bytes), result) in tasks.iter().zip(&r.partitions).zip(&r.results) {
            let pf = platform.with_layer_capacity(platform.closest(), bytes.max(1));
            let standalone = Mhla::new(task, &pf, config.clone()).run();
            assert_eq!(*result, standalone, "partition of {bytes} B");
        }
    }

    #[test]
    fn empty_task_set_is_rejected() {
        let platform = Platform::embedded_default(1024);
        let err =
            try_partition_scratchpad(&[], &platform, &MhlaConfig::default(), 256).unwrap_err();
        assert!(matches!(err, MhlaError::InvalidOptions { .. }), "{err}");
        assert!(err.to_string().contains("at least one task"), "{err}");
    }

    #[test]
    fn zero_granularity_is_rejected() {
        let t = scan_task("t", 64, 2);
        let platform = Platform::embedded_default(1024);
        let err =
            try_partition_scratchpad(&[&t], &platform, &MhlaConfig::default(), 0).unwrap_err();
        assert!(matches!(err, MhlaError::InvalidOptions { .. }), "{err}");
        assert!(err.to_string().contains("granularity"), "{err}");
    }

    #[test]
    fn single_task_gets_everything_useful() {
        let t = scan_task("solo", 512, 64);
        let platform = Platform::embedded_default(1024);
        let r = try_partition_scratchpad(&[&t], &platform, &MhlaConfig::default(), 256).unwrap();
        // It needs 512 B; the DP may hand it any amount ≥ that with equal
        // score, but never less.
        assert!(r.partitions[0] >= 512);
        assert!(r.total_cycles() < r.baseline_cycles());
    }
}
