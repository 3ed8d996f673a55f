//! Multi-task extension demo (the paper's stated future work): two
//! applications share one platform; the scratchpad is statically
//! partitioned between them by exact dynamic programming over a per-task
//! capacity sweep.
//!
//! Run with `cargo run --release --example multitask`.

use mhla::core::multitask::try_partition_scratchpad;
use mhla::core::MhlaConfig;
use mhla::hierarchy::Platform;

fn main() {
    let me = mhla_apps::full_search_me::app();
    let fir = mhla_apps::fir_bank::app();
    let platform = Platform::embedded_default(16 * 1024);

    println!(
        "two tasks on one platform ({} B scratchpad):\n  A: {}\n  B: {}\n",
        16 * 1024,
        me.description,
        fir.description
    );

    let r = try_partition_scratchpad(
        &[&me.program, &fir.program],
        &platform,
        &MhlaConfig::default(),
        1024,
    )
    .expect("the built-in apps partition cleanly");

    println!("optimal static partition (1 KiB granularity):");
    for (i, (app, bytes)) in [&me, &fir].iter().zip(&r.partitions).enumerate() {
        let res = &r.results[i];
        println!(
            "  {:<18} {:>6} B -> {:>12} cycles (baseline {:>12}, {:.1}% saved)",
            app.name(),
            bytes,
            res.mhla_te_cycles(),
            res.baseline_cycles(),
            100.0 * (1.0 - res.mhla_te_cycles() as f64 / res.baseline_cycles() as f64)
        );
    }
    println!(
        "\ncombined: {} cycles vs {} out of the box ({:.1}% saved), {:.2} uJ",
        r.total_cycles(),
        r.baseline_cycles(),
        100.0 * (1.0 - r.total_cycles() as f64 / r.baseline_cycles() as f64),
        r.total_energy_pj() / 1e6
    );
}
