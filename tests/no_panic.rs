//! The fallible boundary's two contracts, checked on randomized inputs:
//!
//! 1. **No panic on corrupted programs.** Arbitrary valid programs from
//!    `mhla_ir::arbitrary` are structurally corrupted (dangling ids, rank
//!    mismatches, shared/orphaned nodes, rogue iterators, zero steps,
//!    duplicate array names — `Corruption::ALL`) and fed to every `try_`
//!    entry point. Each must return `Err(MhlaError::InvalidProgram(_))`;
//!    none may panic (`catch_unwind` guards every call).
//!
//! 2. **Certified partial frontiers under budgets.** An interrupted sweep
//!    (`ExploreBudget::max_evals`, a preset cancel flag, or an expired
//!    deadline), cold or improving, stops on a decided down-set of the
//!    grid — on these 3×2 grids, rank-level order and lexicographic order
//!    agree, so it is a lexicographic prefix: its points are
//!    bit-identical to the unbudgeted run's prefix, its Pareto accessors
//!    select exactly the frontier of that prefix, and resuming from the
//!    partial result reproduces the full, unbudgeted sweep. A prior that
//!    is not a stopped run of the grid it is resumed on is refused with
//!    `InvalidOptions`, never a panic.
//!
//! 3. **No panic on malformed serialized programs.** The `serdes` ingress
//!    (`program_from_json`) must reject malformed, truncated and
//!    wrong-version documents with a typed `SerdesError` that lifts onto
//!    `MhlaError` — syntax/schema/version failures as `InvalidOptions`,
//!    validation failures as `InvalidProgram` — and must never panic,
//!    whatever the bytes.
//!
//! 4. **No panic on server-shaped corruption.** The serve ingress
//!    (`mhla_serve::Service::handle_line`) is total: nesting at and past
//!    the parser's 128-level cap, `1e999`/`NaN`/`Infinity` number text,
//!    documents over the request-size cap, corrupted embedded programs
//!    and degenerate axes (zero-length, zero-capacity, off-chip,
//!    out-of-range, two axes on one layer, an oversized grid) all produce
//!    one typed response line — the same error classes the CLI's ingress
//!    reports — never a panic.
//!
//! CI runs this suite in release mode (the `no_panic` leg); locally the
//! deterministic per-test-name seed applies.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use mhla::core::explore::{
    default_axes, try_sweep_grid_pruned_resume, try_sweep_grid_pruned_with,
    try_sweep_grid_refined_resume, try_sweep_grid_refined_with, try_sweep_grid_resume,
    try_sweep_grid_run, ExploreBudget, GridAxis, GridSweep, GridSweepRun, PruneOptions,
    PrunedGridSweep, RefineOptions, RefinedGridSweep, SearchMode, StopCause, SweepOptions,
    SweepStatus,
};
use mhla::core::multitask::try_partition_scratchpad;
use mhla::core::{Mhla, MhlaConfig, MhlaError};
use mhla::hierarchy::{LayerId, Platform};
use mhla::ir::arbitrary::{corrupted_programs, program_specs};
use mhla::ir::serdes::{
    field, program_from_json, program_to_json, program_value, Json, SerdesError,
};
use mhla_serve::protocol::MAX_REQUEST_BYTES;
use mhla_serve::{Service, ServiceOptions};
use proptest::prelude::*;

/// A small two-axis grid (6 points) whose capacities straddle the
/// generated programs' footprints, so budgets genuinely cut sweeps short
/// at interesting places.
fn small_axes() -> Vec<GridAxis> {
    vec![
        GridAxis::new(LayerId(1), vec![128u64, 256, 1024]),
        GridAxis::new(LayerId(2), vec![64u64, 128]),
    ]
}

/// Runs one fallible entry point under `catch_unwind` and requires a
/// typed `InvalidProgram` rejection — any panic or acceptance fails the
/// case.
fn expect_invalid_program<T>(what: &str, f: impl FnOnce() -> Result<T, MhlaError>) {
    match catch_unwind(AssertUnwindSafe(f)) {
        Err(_) => panic!("{what} panicked on a corrupted program"),
        Ok(Ok(_)) => panic!("{what} accepted a corrupted program"),
        Ok(Err(MhlaError::InvalidProgram(_))) => {}
        Ok(Err(e)) => panic!("{what} rejected with the wrong class: {e}"),
    }
}

/// The capacity vectors of a Pareto surface, for comparing frontiers
/// across sweeps whose point indices differ.
fn front_caps(sweep: &GridSweep, front: &[usize]) -> Vec<Vec<u64>> {
    front
        .iter()
        .map(|&i| sweep.points[i].capacities.clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Contract 1: every `try_` entry point rejects every corruption of
    /// every generated program with `InvalidProgram` — and never panics.
    #[test]
    fn corrupted_programs_are_rejected_not_panicked(
        (program, corruption) in corrupted_programs(),
    ) {
        let bad = corruption.apply(&program);
        let config = MhlaConfig::default();
        let flat = Platform::embedded_default(1024);
        let platform = Platform::three_level(1024, 256);
        let axes = small_axes();

        expect_invalid_program("Mhla::try_new", || {
            Mhla::try_new(&bad, &flat, config.clone())
        });
        expect_invalid_program("try_sweep_grid_run (one axis)", || {
            try_sweep_grid_run(
                &bad,
                &flat,
                &[GridAxis::new(LayerId(1), vec![256u64, 512])],
                &config,
                &SweepOptions::default(),
            )
        });
        expect_invalid_program("try_sweep_grid_run (cold)", || {
            try_sweep_grid_run(&bad, &platform, &axes, &config, &SweepOptions::default())
        });
        expect_invalid_program("try_sweep_grid_run (improving)", || {
            try_sweep_grid_run(
                &bad,
                &platform,
                &axes,
                &config,
                &SweepOptions {
                    mode: SearchMode::Improving,
                    ..SweepOptions::default()
                },
            )
        });
        expect_invalid_program("try_sweep_grid_pruned_with", || {
            try_sweep_grid_pruned_with(&bad, &platform, &axes, &config, &PruneOptions::default())
        });
        expect_invalid_program("try_partition_scratchpad", || {
            try_partition_scratchpad(&[&bad], &flat, &config, 256)
        });
    }
}

/// Contract 3, pinned fixtures: malformed, truncated and wrong-version
/// documents are rejected with the right `MhlaError` class — never a
/// panic, never an acceptance.
#[test]
fn malformed_serialized_programs_are_rejected_not_panicked() {
    // Every fixture here fails before validation, so each lifts onto
    // `InvalidOptions`; the dangling-root case below is the one class
    // that reaches validation and becomes `InvalidProgram`.
    let fixtures: &[&str] = &[
        // Not JSON at all.
        "",
        "not json",
        "{\"format\": \"mhla.program\",",
        // JSON, wrong document shape.
        "[]",
        "{}",
        "{\"format\": \"mhla.platform\", \"version\": 1}",
        // Wrong version.
        "{\"format\": \"mhla.program\", \"version\": 2, \"name\": \"x\", \
         \"arrays\": [], \"loops\": [], \"stmts\": [], \"roots\": []}",
        // Id out of step with the arena position.
        "{\"format\": \"mhla.program\", \"version\": 1, \"name\": \"x\", \
         \"arrays\": [{\"id\": 3, \"name\": \"a\", \"dims\": [4], \"elem\": \"u8\"}], \
         \"loops\": [], \"stmts\": [], \"roots\": []}",
        // Unknown element type and bad node syntax.
        "{\"format\": \"mhla.program\", \"version\": 1, \"name\": \"x\", \
         \"arrays\": [{\"id\": 0, \"name\": \"a\", \"dims\": [4], \"elem\": \"u128\"}], \
         \"loops\": [], \"stmts\": [], \"roots\": []}",
        "{\"format\": \"mhla.program\", \"version\": 1, \"name\": \"x\", \
         \"arrays\": [], \"loops\": [], \"stmts\": [], \"roots\": [\"Q0\"]}",
    ];
    for input in fixtures {
        match catch_unwind(AssertUnwindSafe(|| program_from_json(input))) {
            Err(_) => panic!("program_from_json panicked on {input:?}"),
            Ok(Ok(_)) => panic!("program_from_json accepted {input:?}"),
            Ok(Err(e)) => {
                assert!(
                    matches!(MhlaError::from(e), MhlaError::InvalidOptions { .. }),
                    "fixture {input:?} must lift onto InvalidOptions"
                );
            }
        }
    }

    // A well-formed document whose *program* is malformed (dangling root)
    // keeps its ValidateError through the MhlaError lift.
    let dangling = "{\"format\": \"mhla.program\", \"version\": 1, \"name\": \"x\", \
         \"arrays\": [], \"loops\": [], \"stmts\": [], \"roots\": [\"S5\"]}";
    match program_from_json(dangling) {
        Err(e @ SerdesError::Invalid(_)) => {
            assert!(matches!(MhlaError::from(e), MhlaError::InvalidProgram(_)));
        }
        other => panic!("expected a validation rejection, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Contract 3, randomized: any truncation of any serialized program
    /// either parses back to the identical program (full length) or is
    /// rejected with a typed error — never a panic.
    #[test]
    fn truncated_serialized_programs_never_panic(
        spec in program_specs(),
        pct in 0u64..=100,
    ) {
        let program = spec.build();
        let text = program_to_json(&program);
        // Snap to a char boundary (the document is ASCII today, but the
        // contract must not depend on that).
        let mut cut = (text.len() * pct as usize) / 100;
        while !text.is_char_boundary(cut) {
            cut -= 1;
        }
        let truncated = &text[..cut];
        match catch_unwind(AssertUnwindSafe(|| program_from_json(truncated))) {
            Err(_) => prop_assert!(false, "panicked on a {cut}-byte truncation"),
            Ok(Ok(back)) => {
                prop_assert_eq!(cut, text.len(), "a strict prefix must not parse");
                prop_assert_eq!(back, program);
            }
            Ok(Err(_)) => {}
        }
    }

    /// Contract 3, corrupted programs: every structural corruption
    /// round-trips *textually* through the format and is then rejected at
    /// ingress by the embedded validation — as `Invalid`, lifting onto
    /// `InvalidProgram`.
    #[test]
    fn serialized_corrupted_programs_are_rejected_by_validation(
        (program, corruption) in corrupted_programs(),
    ) {
        let bad = corruption.apply(&program);
        let text = program_to_json(&bad);
        match catch_unwind(AssertUnwindSafe(|| program_from_json(&text))) {
            Err(_) => prop_assert!(false, "panicked deserializing a corrupted program"),
            Ok(Ok(_)) => prop_assert!(false, "accepted a corrupted program"),
            Ok(Err(e)) => {
                prop_assert!(
                    matches!(e, SerdesError::Invalid(_)),
                    "expected a validation rejection, got {}", e
                );
                prop_assert!(matches!(
                    MhlaError::from(e),
                    MhlaError::InvalidProgram(_)
                ));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Contract 2, cold mode: a `max_evals` budget commits exactly the
    /// first `k` points in (rank, key) order — on this grid the first `k`
    /// lex points — bit-identical to the unbudgeted run's prefix; the
    /// partial frontier is the frontier of that prefix; and resuming
    /// reproduces the full run, bookkeeping included.
    #[test]
    fn cold_budget_stops_on_certified_prefix_and_resumes(
        spec in program_specs(),
        k in 1u8..=5,
    ) {
        let program = spec.build();
        let platform = Platform::three_level(1024, 256);
        let axes = small_axes();
        let config = MhlaConfig::default();
        let opts = SweepOptions::default();
        let k = k as usize;

        let full = try_sweep_grid_run(&program, &platform, &axes, &config, &opts).unwrap();
        prop_assert!(full.status.is_complete());

        let budgeted = SweepOptions {
            budget: ExploreBudget::max_evals(k),
            ..opts.clone()
        };
        let partial =
            try_sweep_grid_run(&program, &platform, &axes, &config, &budgeted).unwrap();
        prop_assert_eq!(
            partial.status,
            SweepStatus::Stopped { cause: StopCause::MaxEvals, next_lex: k },
            "6-point grid, budget {} must stop exactly there", k
        );
        prop_assert_eq!(&partial.sweep.points[..], &full.sweep.points[..k]);
        // The certified partial frontier IS the frontier of the prefix.
        let prefix = GridSweep {
            layers: full.sweep.layers.clone(),
            points: full.sweep.points[..k].to_vec(),
        };
        prop_assert_eq!(partial.sweep.pareto_cycles(), prefix.pareto_cycles());
        prop_assert_eq!(partial.sweep.pareto_energy(), prefix.pareto_energy());

        let resumed =
            try_sweep_grid_resume(&program, &platform, &axes, &config, &opts, &partial).unwrap();
        prop_assert_eq!(&resumed, &full, "cold resume must be bit-identical");
    }

    /// Contract 2, improving mode (rank levels on the helper pool, like
    /// cold mode): the budgeted prefix and the resume are bit-identical
    /// to the full run including the leg/winner bookkeeping.
    #[test]
    fn improving_budget_resume_is_bit_identical(
        spec in program_specs(),
        k in 1u8..=5,
    ) {
        let program = spec.build();
        let platform = Platform::three_level(1024, 256);
        let axes = small_axes();
        let config = MhlaConfig::default();
        let opts = SweepOptions {
            mode: SearchMode::Improving,
            ..SweepOptions::default()
        };
        let k = k as usize;

        let full = try_sweep_grid_run(&program, &platform, &axes, &config, &opts).unwrap();
        let budgeted = SweepOptions {
            budget: ExploreBudget::max_evals(k),
            ..opts.clone()
        };
        let partial =
            try_sweep_grid_run(&program, &platform, &axes, &config, &budgeted).unwrap();
        prop_assert_eq!(partial.status.next_lex(), Some(k));
        prop_assert_eq!(&partial.sweep.points[..], &full.sweep.points[..k]);

        let resumed =
            try_sweep_grid_resume(&program, &platform, &axes, &config, &opts, &partial).unwrap();
        prop_assert_eq!(&resumed, &full, "improving resume must be bit-identical");
    }

    /// Contract 2, pruned sweep: the budgeted run stops on a fully
    /// *decided* prefix — its evaluated points match the exhaustive
    /// sweep's results, its frontiers are exactly the exhaustive
    /// frontiers of that prefix (the skip rules lose nothing), and the
    /// resume reproduces the uninterrupted pruned run.
    #[test]
    fn pruned_budget_frontier_is_certified_and_resumes(
        spec in program_specs(),
        k in 1u8..=5,
    ) {
        let program = spec.build();
        let platform = Platform::three_level(1024, 256);
        let axes = small_axes();
        let config = MhlaConfig::default();
        let opts = PruneOptions::default();
        let k = k as usize;

        let full =
            try_sweep_grid_pruned_with(&program, &platform, &axes, &config, &opts).unwrap();
        let budgeted = PruneOptions {
            budget: ExploreBudget::max_evals(k),
            ..opts.clone()
        };
        let partial =
            try_sweep_grid_pruned_with(&program, &platform, &axes, &config, &budgeted).unwrap();
        prop_assert!(partial.stats.evaluated <= k);

        if let SweepStatus::Stopped { next_lex, .. } = partial.status {
            // The exhaustive (unpruned, cold) grid is the certificate
            // oracle: its prefix of the decided points (on this grid a lex
            // prefix) must have the same Pareto surfaces as the pruned
            // partial result.
            let exhaustive =
                try_sweep_grid_run(&program, &platform, &axes, &config, &SweepOptions::default())
                    .unwrap();
            let prefix = GridSweep {
                layers: exhaustive.sweep.layers.clone(),
                points: exhaustive.sweep.points[..next_lex].to_vec(),
            };
            prop_assert_eq!(
                front_caps(&partial.sweep, &partial.sweep.pareto_cycles()),
                front_caps(&prefix, &prefix.pareto_cycles()),
                "partial cycle frontier must certify the decided prefix"
            );
            prop_assert_eq!(
                front_caps(&partial.sweep, &partial.sweep.pareto_energy()),
                front_caps(&prefix, &prefix.pareto_energy()),
                "partial energy frontier must certify the decided prefix"
            );
            // Every evaluated point is standalone-identical.
            for p in &partial.sweep.points {
                let oracle = prefix
                    .points
                    .iter()
                    .find(|o| o.capacities == p.capacities)
                    .expect("evaluated point inside the decided prefix");
                prop_assert_eq!(&p.result, &oracle.result);
            }
        } else {
            // A tiny budget can still complete the grid when the tail is
            // all skips; then the result must equal the full run.
            prop_assert_eq!(&partial.sweep, &full.sweep);
        }

        let resumed = try_sweep_grid_pruned_resume(
            &program, &platform, &axes, &config, &opts, &partial,
        )
        .unwrap();
        prop_assert!(resumed.status.is_complete());
        prop_assert_eq!(&resumed.sweep, &full.sweep);
        prop_assert_eq!(resumed.stats, full.stats);
    }

    /// A cancel flag raised before the run and an already-expired
    /// deadline both stop every scheduler at lex index 0 with zero
    /// points, reporting the right cause — and the stopped result
    /// resumes to the full sweep.
    #[test]
    fn preset_cancel_and_expired_deadline_stop_cleanly(spec in program_specs()) {
        let program = spec.build();
        let platform = Platform::three_level(1024, 256);
        let axes = small_axes();
        let config = MhlaConfig::default();

        let cancelled = ExploreBudget {
            cancel: Some(Arc::new(AtomicBool::new(true))),
            ..ExploreBudget::default()
        };
        let expired = ExploreBudget {
            deadline: Some(Instant::now()),
            ..ExploreBudget::default()
        };
        for (budget, cause) in [
            (cancelled, StopCause::Cancelled),
            (expired, StopCause::Deadline),
        ] {
            let run = try_sweep_grid_run(
                &program,
                &platform,
                &axes,
                &config,
                &SweepOptions { budget: budget.clone(), ..SweepOptions::default() },
            )
            .unwrap();
            prop_assert_eq!(run.status, SweepStatus::Stopped { cause, next_lex: 0 });
            prop_assert!(run.sweep.points.is_empty());

            let pruned = try_sweep_grid_pruned_with(
                &program,
                &platform,
                &axes,
                &config,
                &PruneOptions { budget: budget.clone(), ..PruneOptions::default() },
            )
            .unwrap();
            prop_assert_eq!(pruned.status, SweepStatus::Stopped { cause, next_lex: 0 });
            prop_assert!(pruned.sweep.points.is_empty());
        }

        // Resuming a run stopped before its first point replays the whole
        // grid.
        let opts = SweepOptions::default();
        let stopped = try_sweep_grid_run(
            &program,
            &platform,
            &axes,
            &config,
            &SweepOptions {
                budget: ExploreBudget {
                    cancel: Some(Arc::new(AtomicBool::new(true))),
                    ..ExploreBudget::default()
                },
                ..opts.clone()
            },
        )
        .unwrap();
        let resumed =
            try_sweep_grid_resume(&program, &platform, &axes, &config, &opts, &stopped).unwrap();
        let full = try_sweep_grid_run(&program, &platform, &axes, &config, &opts).unwrap();
        prop_assert_eq!(&resumed.sweep, &full.sweep);
    }
}

/// Requires `resume`, run under `catch_unwind`, to refuse `prior` with a
/// typed `InvalidOptions` once `edit` has changed it — any panic or
/// acceptance fails the test.
fn refuses<P: Clone, T>(
    what: &str,
    prior: &P,
    edit: impl FnOnce(&mut P),
    resume: impl FnOnce(&P) -> Result<T, MhlaError>,
) {
    let mut p = prior.clone();
    edit(&mut p);
    match catch_unwind(AssertUnwindSafe(|| resume(&p))) {
        Err(_) => panic!("{what}: the resume panicked"),
        Ok(Ok(_)) => panic!("{what}: the resume accepted the prior"),
        Ok(Err(MhlaError::InvalidOptions { .. })) => {}
        Ok(Err(e)) => panic!("{what}: refused with the wrong class: {e}"),
    }
}

/// A labelled edit that turns a stopped run into a prior no resume may
/// accept.
type Edit<P> = (&'static str, fn(&mut P));

/// A stopped status with its decided count moved by `by`.
fn shifted(status: SweepStatus, by: isize) -> SweepStatus {
    match status {
        SweepStatus::Stopped { cause, next_lex } => SweepStatus::Stopped {
            cause,
            next_lex: next_lex.saturating_add_signed(by),
        },
        SweepStatus::Complete => panic!("the prior must be a stopped run"),
    }
}

/// Contract 2, the resume entries: each refuses, with `InvalidOptions`
/// and never a panic, a prior that is not a stopped run of the grid it is
/// resumed on — one from other layers, one with a point off the lattice
/// or listed twice, an exhaustive run with a middle point cut out, and
/// runs whose counts were edited.
#[test]
fn resume_entries_refuse_priors_that_do_not_fit() {
    let app = mhla_apps::wavelet::app();
    let program = &app.program;
    let platform = Platform::four_level_default();
    let axes = default_axes(&platform);
    let config = MhlaConfig::default();
    let budget = ExploreBudget::max_evals(4);
    let (grid_opts, prune_opts) = (SweepOptions::default(), PruneOptions::default());
    let refine_opts = RefineOptions::default().depth(1);

    let grid = try_sweep_grid_run(
        program,
        &platform,
        &axes,
        &config,
        &SweepOptions {
            budget: budget.clone(),
            ..SweepOptions::default()
        },
    )
    .unwrap();
    let pruned = try_sweep_grid_pruned_with(
        program,
        &platform,
        &axes,
        &config,
        &prune_opts.clone().budget(budget.clone()),
    )
    .unwrap();
    let refined = try_sweep_grid_refined_with(
        program,
        &platform,
        &axes,
        &config,
        &refine_opts.clone().budget(budget),
    )
    .unwrap();
    let resume_grid = |prior: &GridSweepRun| {
        try_sweep_grid_resume(program, &platform, &axes, &config, &grid_opts, prior)
    };
    let resume_pruned = |prior: &PrunedGridSweep| {
        try_sweep_grid_pruned_resume(program, &platform, &axes, &config, &prune_opts, prior)
    };
    let resume_refined = |prior: &RefinedGridSweep| {
        try_sweep_grid_refined_resume(program, &platform, &axes, &config, &refine_opts, prior)
    };
    // The unedited priors are stopped runs, and they resume.
    assert_eq!(grid.sweep.points.len(), 4);
    assert_eq!(pruned.stats.evaluated, 4);
    assert_eq!(refined.stats.evaluated, 4);
    assert!(resume_grid(&grid).unwrap().status.is_complete());
    assert!(resume_pruned(&pruned).unwrap().status.is_complete());
    assert!(resume_refined(&refined).unwrap().status.is_complete());

    // Priors from other layers, with a point off the lattice (257 B lies
    // on no L1 axis, coarse or fine), or with edited counts; an exhaustive
    // run with a point listed twice, or with a middle point removed and
    // its cursor adjusted: its counts agree, but the resume reaches the
    // removed point — a fresh search — before two of the points it must
    // replay.
    let hole: fn(&mut GridSweepRun) = |p| {
        p.sweep.points.remove(1);
        p.winners.remove(1);
        p.status = shifted(p.status, -1);
    };
    let grid_edits: [Edit<GridSweepRun>; 6] = [
        ("other layers", |p| p.sweep.layers.reverse()),
        ("off-lattice point", |p| {
            p.sweep.points[1].capacities[2] = 257
        }),
        ("point listed twice", |p| {
            p.sweep.points[1] = p.sweep.points[0].clone()
        }),
        ("middle point removed", hole),
        ("next_lex edited", |p| p.status = shifted(p.status, 1)),
        ("candidates edited", |p| p.candidates += 1),
    ];
    for (what, edit) in grid_edits {
        refuses(&format!("grid, {what}"), &grid, edit, resume_grid);
    }
    let pruned_edits: [Edit<PrunedGridSweep>; 6] = [
        ("other layers", |p| p.sweep.layers.reverse()),
        ("off-lattice point", |p| {
            p.sweep.points[1].capacities[2] = 257
        }),
        ("next_lex edited", |p| p.status = shifted(p.status, 1)),
        ("evaluated edited", |p| p.stats.evaluated += 1),
        ("skipped edited", |p| p.stats.skipped_saturated += 1),
        ("candidates edited", |p| p.stats.candidates += 1),
    ];
    for (what, edit) in pruned_edits {
        refuses(&format!("pruned, {what}"), &pruned, edit, resume_pruned);
    }
    let refined_edits: [Edit<RefinedGridSweep>; 6] = [
        ("other layers", |p| p.sweep.layers.reverse()),
        ("off-lattice point", |p| {
            p.sweep.points[1].capacities[2] = 257
        }),
        ("next_lex edited", |p| p.status = shifted(p.status, 1)),
        ("evaluated edited", |p| p.stats.evaluated += 1),
        ("virtual points edited", |p| p.stats.virtual_points += 1),
        ("coarse points edited", |p| p.stats.coarse_points += 1),
    ];
    for (what, edit) in refined_edits {
        refuses(&format!("refined, {what}"), &refined, edit, resume_refined);
    }

    // Under a zero budget the resume of the run with a hole stops at the
    // removed point's search, so the points after it are never reached.
    let no_search = SweepOptions {
        budget: ExploreBudget::max_evals(0),
        ..SweepOptions::default()
    };
    refuses(
        "grid, middle point removed, zero budget",
        &grid,
        hole,
        |p| try_sweep_grid_resume(program, &platform, &axes, &config, &no_search, p),
    );
}

// ---------------------------------------------------------------------------
// Contract 4: the serve ingress
// ---------------------------------------------------------------------------

/// One line through a fresh service, under `catch_unwind`: the response
/// must exist (a panic fails the test) and parse as a response envelope.
fn serve_one(line: &str) -> String {
    let service = Service::new(ServiceOptions::default());
    match catch_unwind(AssertUnwindSafe(|| service.handle_line(line))) {
        Ok(response) => response,
        Err(_) => panic!(
            "Service::handle_line panicked on {:?}…",
            &line[..line.len().min(120)]
        ),
    }
}

/// The `error.class` of a response line, or `None` for an ok response.
fn served_error_class(response: &str) -> Option<String> {
    let doc = Json::parse(response).expect("every response line is valid JSON");
    let fields = doc.as_object("response").expect("response object");
    match field(fields, "ok", "response").expect("ok field") {
        Json::Bool(true) => None,
        _ => {
            let e = field(fields, "error", "response")
                .expect("error body")
                .as_object("error")
                .expect("error object");
            Some(
                field(e, "class", "error")
                    .expect("class")
                    .as_str("class")
                    .expect("class string")
                    .to_string(),
            )
        }
    }
}

/// An explore request line around an app program, with extra fields.
fn serve_request(extra: &[(&str, Json)]) -> String {
    let program = mhla::apps::fir_bank::app().program;
    let mut fields = vec![
        ("op".to_string(), Json::Str("explore".into())),
        ("program".to_string(), program_value(&program)),
        ("platform".to_string(), Json::Str("three-level".into())),
    ];
    for (k, v) in extra {
        fields.push(((*k).to_string(), v.clone()));
    }
    Json::Obj(fields).render_compact()
}

fn axis_json(layer: u64, capacities: &[u64]) -> Json {
    Json::Obj(vec![
        ("layer".into(), Json::from_u64(layer)),
        (
            "capacities".into(),
            Json::Arr(capacities.iter().map(|&c| Json::from_u64(c)).collect()),
        ),
    ])
}

fn axes_json(layer: u64, capacities: &[u64]) -> Json {
    Json::Arr(vec![axis_json(layer, capacities)])
}

/// Nesting at the parser's 128-level cap: depths below it fail on shape,
/// depths at/past it on the recursion guard — all as one `bad_request`
/// line, stack intact.
#[test]
fn deep_nesting_at_the_parser_cap_is_rejected_not_panicked() {
    for depth in [1usize, 64, 127, 128, 129, 512, 4096] {
        // The whole document is the nest…
        let doc = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert_eq!(
            served_error_class(&serve_one(&doc)).as_deref(),
            Some("bad_request"),
            "bare nest, depth {depth}"
        );
        // …and the nest hides inside an otherwise-plausible request.
        let embedded = format!(
            "{{\"op\":\"explore\",\"program\":{}{}}}",
            "[".repeat(depth),
            "]".repeat(depth)
        );
        let class = served_error_class(&serve_one(&embedded));
        assert!(
            matches!(class.as_deref(), Some("bad_request" | "invalid_options")),
            "embedded nest, depth {depth}: got {class:?}"
        );
    }
}

/// Number text the engine must never trust: overflow exponents parse as
/// raw text and fail typed at the field conversion; `NaN`/`Infinity` are
/// not JSON at all.
#[test]
fn hostile_number_text_is_rejected_not_panicked() {
    for line in [
        "NaN".to_string(),
        "Infinity".to_string(),
        "{\"op\":\"explore\",\"program\":NaN}".to_string(),
        "{\"op\":\"explore\",\"program\":Infinity}".to_string(),
        "{\"op\":\"explore\",\"program\":1e999}".to_string(),
        "{\"op\":\"explore\",\"program\":-1e999}".to_string(),
        serve_request(&[("max_evals", Json::Num("1e999".into()))]),
        serve_request(&[("max_evals", Json::Num("-1".into()))]),
        serve_request(&[("timeout_ms", Json::Num("1e999".into()))]),
        serve_request(&[(
            "objective",
            Json::Obj(vec![
                ("energy_weight".into(), Json::Num("1e999".into())),
                ("cycle_weight".into(), Json::Num("1".into())),
            ]),
        )]),
    ] {
        let class = served_error_class(&serve_one(&line));
        assert!(
            matches!(class.as_deref(), Some("bad_request" | "invalid_options")),
            "{:?}… must fail typed, got {class:?}",
            &line[..line.len().min(80)]
        );
    }
}

/// A document over the request-size cap is answered (one `bad_request`
/// line) rather than parsed, panicked on, or silently dropped.
#[test]
fn oversized_documents_are_rejected_not_panicked() {
    let oversized = format!("{{\"op\":\"{}\"}}", "x".repeat(MAX_REQUEST_BYTES));
    assert_eq!(
        served_error_class(&serve_one(&oversized)).as_deref(),
        Some("bad_request")
    );
}

/// Degenerate axes: zero-length axis lists are a legal (empty) sweep;
/// zero capacities, the off-chip layer and out-of-range layers report
/// `infeasible_point` — the same class the library entry points raise.
#[test]
fn degenerate_axes_get_the_library_error_classes() {
    let empty = serve_one(&serve_request(&[("axes", Json::Arr(vec![]))]));
    assert_eq!(served_error_class(&empty), None, "got {empty}");
    assert!(
        empty.contains("\"points\":[]") && empty.contains("\"status\":\"complete\""),
        "zero axes must serve an empty complete frontier: {empty}"
    );

    for (what, axes) in [
        ("zero capacity", axes_json(1, &[0])),
        (
            "zero capacity among good ones",
            axes_json(1, &[256, 0, 1024]),
        ),
        ("off-chip layer", axes_json(0, &[1024])),
        ("out-of-range layer", axes_json(9, &[1024])),
    ] {
        let response = serve_one(&serve_request(&[("axes", axes)]));
        assert_eq!(
            served_error_class(&response).as_deref(),
            Some("infeasible_point"),
            "{what}: got {response}"
        );
    }
    // An axis with no capacities is a zero-candidate (empty) sweep.
    let no_caps = serve_one(&serve_request(&[("axes", axes_json(1, &[]))]));
    assert_eq!(served_error_class(&no_caps), None, "got {no_caps}");

    // Two axes on one layer: the second would overwrite the first's
    // capacity at every point, so the engine refuses the grid.
    let dup = Json::Arr(vec![
        axis_json(1, &[1024, 4096]),
        axis_json(1, &[2048, 8192]),
    ]);
    let response = serve_one(&serve_request(&[("axes", dup)]));
    assert_eq!(
        served_error_class(&response).as_deref(),
        Some("invalid_options"),
        "duplicate axis layers: got {response}"
    );

    // An oversized grid: 1,025 × 1,025 points is past the engine's grid
    // bound, so it is refused before the loop lists its points, however
    // small the budget.
    let caps: Vec<u64> = (1..=1025).map(|i| i * 64).collect();
    let huge = Json::Arr(vec![axis_json(1, &caps), axis_json(2, &caps)]);
    let response = serve_one(&serve_request(&[
        ("axes", huge),
        ("max_evals", Json::from_u64(1)),
    ]));
    assert_eq!(
        served_error_class(&response).as_deref(),
        Some("invalid_options"),
        "oversized grid: got {}",
        &response[..response.len().min(200)]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Contract 4, randomized: every structural corruption of every
    /// generated program, wire-encoded into an explore request, comes
    /// back as the `invalid_program` class — exactly what contract 1
    /// pins for the library entry points — and never panics.
    #[test]
    fn corrupted_programs_over_the_wire_are_rejected_not_panicked(
        (program, corruption) in corrupted_programs(),
    ) {
        let bad = corruption.apply(&program);
        let line = Json::Obj(vec![
            ("op".into(), Json::Str("explore".into())),
            ("program".into(), program_value(&bad)),
        ])
        .render_compact();
        prop_assert_eq!(
            served_error_class(&serve_one(&line)).as_deref(),
            Some("invalid_program")
        );
    }
}
