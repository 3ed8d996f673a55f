//! Trade-off exploration: sweep the scratchpad size for one application and
//! print the (capacity, cycles, energy) curve with its Pareto points —
//! the exploration the paper's prototype tool performs ("able to find all
//! the optimal trade-off points").
//!
//! Run with `cargo run --release --example tradeoff_exploration`.

use mhla::core::explore::{default_capacities, try_sweep_grid_run, GridAxis, SweepOptions};
use mhla::core::{report, MhlaConfig};
use mhla::hierarchy::{LayerId, Platform};

fn main() {
    let app = mhla_apps::cavity_detect::app();
    let platform = Platform::embedded_default(1024);
    // A capacity sweep is the exploration grid on one axis.
    let axis = GridAxis::new(LayerId(1), default_capacities());

    println!("capacity sweep for `{}`:\n", app.name());
    let s = try_sweep_grid_run(
        &app.program,
        &platform,
        &[axis],
        &MhlaConfig::default(),
        &SweepOptions::default(),
    )
    .expect("the built-in app sweeps cleanly")
    .sweep;

    let front_c = s.pareto_cycles();
    let front_e = s.pareto_energy();
    println!(
        "{:>10} {:>14} {:>14} {:>12} {:>8}",
        "capacity", "cycles(te)", "energy [uJ]", "pareto-cyc", "pareto-E"
    );
    for (i, p) in s.points.iter().enumerate() {
        println!(
            "{:>10} {:>14} {:>14.2} {:>12} {:>8}",
            p.capacities[0],
            p.cycles(),
            p.energy_pj() / 1e6,
            if front_c.contains(&i) { "*" } else { "" },
            if front_e.contains(&i) { "*" } else { "" },
        );
    }

    let best = s.best_cycles().expect("non-empty sweep");
    println!(
        "\nbest performance point: {} B scratchpad ({} cycles)",
        best.capacities[0],
        best.cycles()
    );
    println!("\nCSV (paste into a plotting tool):");
    print!("{}", report::grid_csv(&s));
}
