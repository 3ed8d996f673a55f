//! Top-level pipeline coverage for `multitask`: two concurrent tasks
//! driven through scratchpad partitioning and full per-task MHLA runs,
//! with the cycle/energy accounting checked for additive consistency —
//! every total must equal the sum of standalone runs at the chosen
//! partition sizes.

use mhla::core::multitask::try_partition_scratchpad;
use mhla::core::{Mhla, MhlaConfig};
use mhla::hierarchy::{LayerId, Platform};

#[test]
fn two_task_pipeline_accounting_is_additive_consistent() {
    let tasks = [mhla_apps::fir_bank::app(), mhla_apps::sobel_edge::app()];
    let programs = [&tasks[0].program, &tasks[1].program];
    let platform = Platform::embedded_default(8 * 1024);
    let config = MhlaConfig::default();
    let granularity = 1024u64;

    let r =
        try_partition_scratchpad(&programs, &platform, &config, granularity).expect("valid tasks");

    // Shape: one partition and one result per task, within budget and on
    // the allocation grid.
    assert_eq!(r.partitions.len(), 2);
    assert_eq!(r.results.len(), 2);
    assert!(r.partitions.iter().sum::<u64>() <= 8 * 1024);
    for &p in &r.partitions {
        assert_eq!(p % granularity, 0, "partition off the allocation grid");
    }

    // Additive consistency: re-running each task standalone at its chosen
    // partition size must reproduce the per-task results bit-for-bit, and
    // the totals must be exactly the sums.
    let mut cycles_sum = 0u64;
    let mut baseline_sum = 0u64;
    let mut energy_sum = 0.0f64;
    for (i, program) in programs.iter().enumerate() {
        // A zero partition is modelled as a 1-byte scratchpad, exactly as
        // the partitioner prices it.
        let bytes = r.partitions[i].max(1);
        let pf = platform.with_layer_capacity(LayerId(1), bytes);
        let standalone = Mhla::new(program, &pf, config.clone()).run();
        assert_eq!(
            standalone, r.results[i],
            "task {i} diverges from a standalone run at {bytes} B"
        );
        cycles_sum += standalone.mhla_te_cycles();
        baseline_sum += standalone.baseline_cycles();
        energy_sum += standalone.mhla_energy_pj();
    }
    assert_eq!(
        r.total_cycles(),
        cycles_sum,
        "cycle accounting not additive"
    );
    assert_eq!(
        r.baseline_cycles(),
        baseline_sum,
        "baseline accounting not additive"
    );
    assert!(
        (r.total_energy_pj() - energy_sum).abs() < 1e-9,
        "energy accounting not additive: {} vs {}",
        r.total_energy_pj(),
        energy_sum
    );

    // The partitioned pipeline still beats running both out of the box.
    assert!(r.total_cycles() < r.baseline_cycles());
}

#[test]
fn partitioning_respects_task_pressure() {
    // A heavy and a light task competing for one scratchpad: the DP must
    // never allocate bytes that buy nothing. Whatever split it picks, the
    // summed objective must be no worse than an even split.
    let tasks = [mhla_apps::fir_bank::app(), mhla_apps::wavelet::app()];
    let programs = [&tasks[0].program, &tasks[1].program];
    let platform = Platform::embedded_default(4 * 1024);
    let config = MhlaConfig::default();
    let optimal =
        try_partition_scratchpad(&programs, &platform, &config, 1024).expect("valid tasks");

    let half = platform.with_layer_capacity(LayerId(1), 2 * 1024);
    let even: u64 = programs
        .iter()
        .map(|p| Mhla::new(p, &half, config.clone()).run().mhla_te_cycles())
        .sum();
    assert!(
        optimal.total_cycles() <= even,
        "DP split {} worse than even split {even}",
        optimal.total_cycles()
    );
}
