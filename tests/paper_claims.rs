//! Pins the paper's headline claims as regression tests: the numbers in
//! EXPERIMENTS.md must keep reproducing. Bands are deliberately wider than
//! the measured values (platform constants may be retuned) but narrow
//! enough that a broken analysis or scheduler fails loudly.

use mhla::core::explore::{default_capacities, try_sweep_grid_run, GridAxis, SweepOptions};
use mhla::core::MhlaConfig;
use mhla::hierarchy::{LayerId, Platform};
use mhla_bench::{evaluate_app, te_ablation_point_frac};

/// §3 / Figure 2: "the first step boost performance from 40% to 60%
/// compared to the out of the box code for specific memory sizes".
#[test]
fn step1_gains_sit_in_the_papers_neighbourhood() {
    let figures: Vec<_> = mhla_apps::all_apps().iter().map(evaluate_app).collect();
    for f in &figures {
        assert!(
            f.mhla_gain_pct() > 10.0,
            "{}: step-1 gain {:.1}% collapsed",
            f.name,
            f.mhla_gain_pct()
        );
        assert!(
            f.mhla_gain_pct() < 85.0,
            "{}: step-1 gain {:.1}% implausible",
            f.name,
            f.mhla_gain_pct()
        );
    }
    let in_band = figures
        .iter()
        .filter(|f| (40.0..=70.0).contains(&f.mhla_gain_pct()))
        .count();
    assert!(
        in_band >= 6,
        "only {in_band}/9 apps inside the paper's 40-70% band"
    );
    // The flagship: full-search ME around the paper's 60% headline.
    let me = figures.iter().find(|f| f.name == "full_search_me").unwrap();
    assert!(
        (45.0..=70.0).contains(&me.mhla_gain_pct()),
        "full-search ME at {:.1}%, paper headline is 60%",
        me.mhla_gain_pct()
    );
}

/// §3 / Figure 2: TE "can boost performance of up 33%, if there are a lot
/// of processing loops that can hide prefetching block transfers" and
/// "pushes performance towards the ideal case".
#[test]
fn te_boost_reaches_double_digits_and_pushes_toward_ideal() {
    let figures: Vec<_> = mhla_apps::all_apps().iter().map(evaluate_app).collect();
    let best_te = figures.iter().map(|f| f.te_gain_pct()).fold(0.0, f64::max);
    assert!(
        best_te >= 10.0,
        "best TE boost {best_te:.1}% — the prefetching stopped working"
    );
    // On apps where double buffers fit, TE must close most of the gap to
    // the ideal bound.
    let well_hidden = figures.iter().filter(|f| f.hiding_pct() > 85.0).count();
    assert!(
        well_hidden >= 6,
        "only {well_hidden}/9 apps get >85% of their stall hidden"
    );
    // The transfer-bound ablation approaches the paper's 33% figure.
    let wavelet = mhla_apps::wavelet::app();
    let lean = te_ablation_point_frac(&wavelet, 1, 4);
    assert!(
        lean.te_gain_pct() >= 18.0,
        "transfer-bound wavelet TE boost {:.1}% too small",
        lean.te_gain_pct()
    );
}

/// §3 / Figure 3: "an optimum memory allocation and assignment can also
/// reduce energy consumption significantly up to 70%".
#[test]
fn energy_savings_are_significant_on_every_app() {
    for f in mhla_apps::all_apps().iter().map(evaluate_app) {
        assert!(
            f.energy_gain_pct() >= 35.0,
            "{}: energy saving {:.1}% not significant",
            f.name,
            f.energy_gain_pct()
        );
    }
}

/// §1/§2: "performs a thorough trade-off exploration for different memory
/// layer sizes … able to find all the optimal trade-off points".
#[test]
fn exploration_finds_a_nontrivial_pareto_front() {
    let app = mhla_apps::cavity_detect::app();
    let platform = Platform::embedded_default(1024);
    let s = try_sweep_grid_run(
        &app.program,
        &platform,
        &[GridAxis::new(LayerId(1), default_capacities())],
        &MhlaConfig::default(),
        &SweepOptions::default(),
    )
    .expect("valid sweep")
    .sweep;
    let front = s.pareto_cycles();
    assert!(
        front.len() >= 3,
        "degenerate Pareto front: {} point(s)",
        front.len()
    );
    // The front actually trades capacity for cycles.
    let first = &s.points[front[0]];
    let last = &s.points[*front.last().unwrap()];
    assert!(last.capacities > first.capacities);
    assert!(
        (first.cycles() as f64) > 1.1 * last.cycles() as f64,
        "the extra capacity buys less than 10% cycles"
    );
}

/// §1: "In case that our architecture does not support a memory transfer
/// engine, TE are not applicable."
#[test]
fn te_is_not_applicable_without_an_engine() {
    use mhla::core::Mhla;
    for app in mhla_apps::all_apps().into_iter().take(3) {
        let platform = Platform::without_dma(app.default_scratchpad);
        let r = Mhla::new(&app.program, &platform, MhlaConfig::default()).run();
        assert!(!r.te.applicable, "{}", app.name());
        assert_eq!(r.te.extended_count(), 0, "{}", app.name());
    }
}
