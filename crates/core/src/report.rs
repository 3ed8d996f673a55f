//! Human-readable and CSV reporting of MHLA results.

use std::fmt::Write as _;

use mhla_hierarchy::LayerId;
use mhla_ir::Program;
use mhla_reuse::ReuseAnalysis;

use crate::driver::MhlaResult;
use crate::explore::GridSweep;
use crate::pareto;
use crate::types::Objective;

/// Renders the paper's four Figure-2 bars for one application as text.
///
/// ```text
/// app            baseline     mhla   mhla+te    ideal
/// me              1234567   456789    345678   300000
/// ```
pub fn performance_row(name: &str, r: &MhlaResult) -> String {
    format!(
        "{name:<18} {:>12} {:>12} {:>12} {:>12}",
        r.baseline_cycles(),
        r.mhla_cycles(),
        r.mhla_te_cycles(),
        r.ideal_cycles()
    )
}

/// Header matching [`performance_row`].
pub fn performance_header() -> String {
    format!(
        "{:<18} {:>12} {:>12} {:>12} {:>12}",
        "application", "baseline", "mhla", "mhla+te", "ideal"
    )
}

/// Renders one Figure-3 energy row (baseline vs MHLA, µJ, plus savings).
pub fn energy_row(name: &str, r: &MhlaResult) -> String {
    let base = r.baseline_energy_pj() / 1e6;
    let opt = r.mhla_energy_pj() / 1e6;
    let saving = if r.baseline_energy_pj() > 0.0 {
        100.0 * (1.0 - r.mhla_energy_pj() / r.baseline_energy_pj())
    } else {
        0.0
    };
    format!("{name:<18} {base:>12.2} {opt:>12.2} {saving:>9.1}%")
}

/// Header matching [`energy_row`].
pub fn energy_header() -> String {
    format!(
        "{:<18} {:>12} {:>12} {:>10}",
        "application", "base [uJ]", "mhla [uJ]", "saving"
    )
}

/// Describes an assignment: homes, copies, TE decisions.
pub fn describe(program: &Program, reuse: &ReuseAnalysis, r: &MhlaResult) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "assignment for `{}`:", program.name());
    for (aid, decl) in program.arrays() {
        let home = r.assignment.home(aid);
        let _ = writeln!(
            out,
            "  {} `{}` ({} B) -> {home}",
            aid,
            decl.name,
            decl.bytes()
        );
        for copy in r.assignment.copies_of(aid) {
            let cc = reuse.candidate(copy.candidate);
            let _ = writeln!(out, "    copy {cc} -> {}", copy.layer);
        }
    }
    let _ = writeln!(
        out,
        "time extensions: {} ({} of {} transfers extended)",
        if r.te.applicable {
            "applicable"
        } else {
            "not applicable"
        },
        r.te.extended_count(),
        r.te.transfers.len()
    );
    for bt in &r.te.transfers {
        let _ = writeln!(
            out,
            "    prio {} {}: bt_time {} cyc, ext {} cyc, {} buffer(s){}",
            bt.priority,
            bt.stream.copy,
            bt.bt_time,
            bt.ext_cycles,
            bt.buffers,
            if bt.fully_hidden { ", hidden" } else { "" }
        );
    }
    out
}

/// The cost columns of [`capacity_csv`], after the capacity columns.
const COST_COLUMNS: [&str; 6] = [
    "cycles_baseline",
    "cycles_mhla",
    "cycles_mhla_te",
    "cycles_ideal",
    "energy_baseline_pj",
    "energy_mhla_pj",
];

/// RFC 4180 field escaping: fields containing a comma, quote, CR or LF are
/// quoted (with quotes doubled); everything else passes through unchanged.
fn csv_field(s: &str) -> String {
    if s.contains(['"', ',', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// The one CSV format of an exploration, whether its points are in
/// process ([`grid_csv`]) or came back from `mhla serve`: one capacity
/// column per axis, `capacity_<layer>` (CSV-escaped), then the cost
/// columns `cycles_baseline`, `cycles_mhla`, `cycles_mhla_te`,
/// `cycles_ideal`, `energy_baseline_pj` and `energy_mhla_pj`, energies in
/// picojoule with one decimal. Each row is a point's capacity vector, its
/// four cycle counts and its two energies in that column order, written
/// as given.
pub fn capacity_csv<'a>(
    layers: &[LayerId],
    rows: impl IntoIterator<Item = (&'a [u64], [u64; 4], [f64; 2])>,
) -> String {
    let mut out = String::new();
    for l in layers {
        let _ = write!(out, "{},", csv_field(&format!("capacity_{l}")));
    }
    out.push_str(&COST_COLUMNS.join(","));
    out.push('\n');
    for (capacities, [baseline, mhla, mhla_te, ideal], [energy_baseline, energy_mhla]) in rows {
        for c in capacities {
            let _ = write!(out, "{c},");
        }
        let _ = writeln!(
            out,
            "{baseline},{mhla},{mhla_te},{ideal},{energy_baseline:.1},{energy_mhla:.1}"
        );
    }
    out
}

/// CSV of a grid sweep in the [`capacity_csv`] format — one capacity
/// column per axis, so a one-axis grid (`mhla sweep`) writes
/// `capacity_<layer>` too.
///
/// # Panics
///
/// Panics if a point's capacity vector does not match the axis count —
/// such a `GridSweep` is malformed.
pub fn grid_csv(g: &GridSweep) -> String {
    capacity_csv(
        &g.layers,
        g.points.iter().map(|p| {
            assert_eq!(
                p.capacities.len(),
                g.layers.len(),
                "grid point has {} capacities for {} axes",
                p.capacities.len(),
                g.layers.len()
            );
            let r = &p.result;
            (
                &p.capacities[..],
                [
                    r.baseline_cycles(),
                    r.mhla_cycles(),
                    r.mhla_te_cycles(),
                    r.ideal_cycles(),
                ],
                [r.baseline_energy_pj(), r.mhla_energy_pj()],
            )
        }),
    )
}

/// Renders a grid sweep's Pareto frontier as a table: one row per point on
/// the cycle and/or energy surface, flagged `C` / `E` / `CE`, in
/// lexicographic capacity order.
///
/// ```text
/// M1 [B]   M2 [B]   front      mhla+te    energy [uJ]
/// 1024     256      CE         345678     12.34
/// ```
pub fn grid_frontier(g: &GridSweep) -> String {
    let cycles: std::collections::BTreeSet<usize> = g.pareto_cycles().into_iter().collect();
    let energy: std::collections::BTreeSet<usize> = g.pareto_energy().into_iter().collect();
    let mut out = String::new();
    for l in &g.layers {
        let _ = write!(out, "{:<9}", format!("{l} [B]"));
    }
    let _ = writeln!(
        out,
        "{:<7} {:>12} {:>14}",
        "front", "mhla+te", "energy [uJ]"
    );
    for (i, p) in g.points.iter().enumerate() {
        let (on_c, on_e) = (cycles.contains(&i), energy.contains(&i));
        if !on_c && !on_e {
            continue;
        }
        for c in &p.capacities {
            let _ = write!(out, "{c:<9}");
        }
        let flag = match (on_c, on_e) {
            (true, true) => "CE",
            (true, false) => "C",
            _ => "E",
        };
        let _ = writeln!(
            out,
            "{flag:<7} {:>12} {:>14.2}",
            p.cycles(),
            p.energy_pj() / 1e6
        );
    }
    out
}

/// `(capacities…, objective score)` coordinates of a grid's points at the
/// given indices — the representation the frontier-dominance utilities
/// ([`pareto::front_dominates`] / [`pareto::front_deltas`]) consume.
pub fn objective_coords(g: &GridSweep, indices: &[usize], objective: &Objective) -> Vec<Vec<f64>> {
    indices
        .iter()
        .map(|&i| {
            let p = &g.points[i];
            let mut c: Vec<f64> = p.capacities.iter().map(|&c| c as f64).collect();
            c.push(p.objective_score(objective));
            c
        })
        .collect()
}

/// Renders the improving-vs-cold comparison of two sweeps of the *same*
/// grid (same axes, same lexicographic point order — e.g.
/// [`try_sweep_grid_run`](crate::explore::try_sweep_grid_run) in both
/// [`SearchMode`](crate::explore::SearchMode)s): one row per strictly
/// improved point (capacities, cold and improving objective score, the
/// relative improvement), then a summary line with the objective-frontier
/// dominance verdict.
///
/// ```text
/// M1 [B]   M2 [B]   M3 [B]             cold      improving    delta
/// 16384    2048     256            345678.0       341002.0    1.35%
/// 12 of 90 points strictly improved; frontier dominates-or-equals: yes
/// ```
///
/// # Panics
///
/// Panics if the two sweeps do not cover the same points in the same
/// order — comparing different grids is meaningless.
pub fn improving_delta_table(
    cold: &GridSweep,
    improving: &GridSweep,
    objective: &Objective,
) -> String {
    assert_eq!(
        cold.points.len(),
        improving.points.len(),
        "improving_delta_table: grids differ in size"
    );
    let mut out = String::new();
    for l in &cold.layers {
        let _ = write!(out, "{:<9}", format!("{l} [B]"));
    }
    let _ = writeln!(out, "{:>16} {:>14} {:>8}", "cold", "improving", "delta");
    let mut improved = 0usize;
    for (c, i) in cold.points.iter().zip(&improving.points) {
        assert_eq!(
            c.capacities, i.capacities,
            "improving_delta_table: grids differ in point order"
        );
        let (sc, si) = (c.objective_score(objective), i.objective_score(objective));
        if si >= sc {
            continue;
        }
        improved += 1;
        for cap in &c.capacities {
            let _ = write!(out, "{cap:<9}");
        }
        let _ = writeln!(
            out,
            "{sc:>16.1} {si:>14.1} {:>7.2}%",
            100.0 * (1.0 - si / sc)
        );
    }
    let dominates = pareto::front_dominates(
        &objective_coords(improving, &improving.pareto_objective(objective), objective),
        &objective_coords(cold, &cold.pareto_objective(objective), objective),
    );
    let _ = writeln!(
        out,
        "{improved} of {} points strictly improved; frontier dominates-or-equals: {}",
        cold.points.len(),
        if dominates { "yes" } else { "NO" }
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Mhla;
    use crate::explore::{try_sweep_grid_run, GridAxis, SweepOptions};
    use crate::types::MhlaConfig;
    use mhla_hierarchy::Platform;
    use mhla_ir::{ElemType, ProgramBuilder};

    /// A grid sweep under the default configuration.
    fn grid(p: &Program, pf: &Platform, axes: &[GridAxis], opts: &SweepOptions) -> GridSweep {
        try_sweep_grid_run(p, pf, axes, &MhlaConfig::default(), opts)
            .unwrap()
            .sweep
    }

    fn result() -> (Program, ReuseAnalysis, MhlaResult) {
        let mut b = ProgramBuilder::new("tiny");
        let tab = b.array("tab", &[64], ElemType::U8);
        let lr = b.begin_loop("rep", 0, 16, 1);
        let li = b.begin_loop("i", 0, 64, 1);
        let iv = b.var(li);
        b.stmt("s").read(tab, vec![iv]).finish();
        b.end_loop();
        b.end_loop();
        let _ = lr;
        let p = b.finish();
        let pf = Platform::embedded_default(256);
        let mhla = Mhla::new(&p, &pf, MhlaConfig::default());
        let reuse = mhla.reuse().clone();
        let r = mhla.run();
        (p, reuse, r)
    }

    #[test]
    fn rows_align_with_headers() {
        let (_, _, r) = result();
        let h = performance_header();
        let row = performance_row("tiny", &r);
        assert_eq!(h.len(), row.len(), "\n{h}\n{row}");
        let eh = energy_header();
        let er = energy_row("tiny", &r);
        assert!(er.contains('%'));
        assert!(!eh.is_empty());
    }

    #[test]
    fn describe_names_arrays_and_te() {
        let (p, reuse, r) = result();
        let text = describe(&p, &reuse, &r);
        assert!(text.contains("`tab`"), "{text}");
        assert!(text.contains("time extensions: applicable"), "{text}");
    }

    #[test]
    fn grid_csv_and_frontier_cover_every_axis() {
        let (p, _, _) = result();
        let pf = mhla_hierarchy::Platform::three_level(1024, 128);
        let g = grid(
            &p,
            &pf,
            &[
                GridAxis::new(mhla_hierarchy::LayerId(1), vec![256u64, 1024]),
                GridAxis::new(mhla_hierarchy::LayerId(2), vec![64u64, 128]),
            ],
            &SweepOptions::default(),
        );
        let csv = grid_csv(&g);
        assert!(
            csv.starts_with("capacity_M1,capacity_M2,cycles_baseline"),
            "{csv}"
        );
        assert_eq!(csv.lines().count(), 1 + g.points.len());
        let table = grid_frontier(&g);
        assert!(
            table.contains("M1 [B]") && table.contains("M2 [B]"),
            "{table}"
        );
        assert!(table.lines().count() >= 2, "frontier non-empty:\n{table}");
    }

    #[test]
    fn grid_csv_three_axis_header_matches_every_row() {
        // Guard against silent header drift when grids grow axes (bit us
        // when PR 2 generalized the grid to N dimensions).
        let (p, _, _) = result();
        let pf = mhla_hierarchy::Platform::four_level(4096, 1024, 128);
        let g = grid(
            &p,
            &pf,
            &[
                GridAxis::new(mhla_hierarchy::LayerId(1), vec![2048u64, 4096]),
                GridAxis::new(mhla_hierarchy::LayerId(2), vec![512u64, 1024]),
                GridAxis::new(mhla_hierarchy::LayerId(3), vec![64u64, 128]),
            ],
            &SweepOptions::default(),
        );
        assert_eq!(g.points.len(), 8);
        let csv = grid_csv(&g);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(
            header,
            "capacity_M1,capacity_M2,capacity_M3,cycles_baseline,cycles_mhla,\
             cycles_mhla_te,cycles_ideal,energy_baseline_pj,energy_mhla_pj"
        );
        let cols = header.split(',').count();
        assert_eq!(cols, 3 + 6);
        let mut rows = 0;
        for line in lines {
            assert_eq!(line.split(',').count(), cols, "row arity drift: {line}");
            rows += 1;
        }
        assert_eq!(rows, g.points.len());
    }

    #[test]
    fn improving_delta_table_reports_improvements_and_dominance() {
        use crate::explore::SearchMode;
        let (p, _, _) = result();
        let pf = mhla_hierarchy::Platform::three_level(1024, 128);
        let axes = [
            GridAxis::new(mhla_hierarchy::LayerId(1), vec![256u64, 1024]),
            GridAxis::new(mhla_hierarchy::LayerId(2), vec![64u64, 128]),
        ];
        let config = MhlaConfig::default();
        let cold = grid(&p, &pf, &axes, &SweepOptions::default());
        let improving = grid(
            &p,
            &pf,
            &axes,
            &SweepOptions {
                mode: SearchMode::Improving,
                ..SweepOptions::default()
            },
        );
        let table = improving_delta_table(&cold, &improving, &config.objective);
        assert!(
            table.contains("M1 [B]") && table.contains("improving"),
            "{table}"
        );
        assert!(
            table.contains("frontier dominates-or-equals: yes"),
            "{table}"
        );
        // An identical pair trivially dominates with zero improvements.
        let self_table = improving_delta_table(&cold, &cold, &config.objective);
        assert!(self_table.contains("0 of 4 points"), "{self_table}");
    }

    #[test]
    fn csv_fields_are_escaped() {
        assert_eq!(csv_field("capacity_M1"), "capacity_M1");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_field("two\nlines"), "\"two\nlines\"");
    }

    #[test]
    fn one_axis_grid_csv_has_one_line_per_point_plus_header() {
        let (p, _, _) = result();
        let pf = Platform::embedded_default(256);
        let g = grid(
            &p,
            &pf,
            &[GridAxis::new(mhla_hierarchy::LayerId(1), vec![64u64, 128])],
            &SweepOptions::default(),
        );
        let csv = grid_csv(&g);
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("capacity_M1,cycles_baseline,"), "{csv}");
    }

    use mhla_ir::Program;
}
