//! The MHLA benchmark: end-to-end and per-layer metrics of the exploration
//! engine and the batch server, from one command.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid_pruned --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads: `grid_pruned`, `grid_refined` (see `grid.rs`) and
//! `serve_mixed` (see `serve.rs`). With `--trace 0` the run reports the
//! end-to-end metrics, with `--trace 1` the per-layer ones. The output is a
//! header of `#` lines followed by one JSON result line.

mod adapter;
mod grid;
mod measure;
mod probe;
mod serve;
mod spec;
mod stats;
mod stream;
mod sys;

use std::process::ExitCode;
use std::time::Duration;

use measure::{EndToEnd, Layers};

/// The command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <grid_pruned|grid_refined|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a workload brings back.
pub struct Outcome {
    pub e2e: EndToEnd,
    pub layers: Layers,
    /// Extra header lines.
    pub notes: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = (std::time::Instant::now(), sys::steal_ticks());
    let outcome = match args.workload.as_str() {
        "grid_pruned" => grid::run(&args, adapter::Engine::Pruned),
        "grid_refined" => grid::run(
            &args,
            adapter::Engine::Refined {
                depth: spec::REFINE_DEPTH,
            },
        ),
        "serve_mixed" => serve::run(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };

    let metrics = if args.trace {
        outcome.layers.metrics()
    } else {
        outcome.e2e.metrics()
    };
    println!(
        "# commit {} | nproc {} | {} | {} | workload {} | seed {} | seconds {} | trace {}",
        sys::commit(),
        sys::nproc(),
        sys::RUSTC_VERSION,
        sys::BUILD_PROFILE,
        args.workload,
        args.seed,
        args.seconds.as_secs_f64(),
        u8::from(args.trace)
    );
    for note in &outcome.notes {
        println!("# {note}");
    }
    // Time the hypervisor gave to other machines slows every timing here;
    // the share of the run's CPU time it took is printed to explain them.
    if let (Some(before), Some(after)) = (started.1, sys::steal_ticks()) {
        let run_ticks =
            started.0.elapsed().as_secs_f64() * sys::CLOCK_TICKS_PER_S * sys::nproc() as f64;
        println!(
            "# cpu steal {:.1}% of the run",
            100.0 * after.saturating_sub(before) as f64 / run_ticks
        );
    }
    for m in metrics.items() {
        println!(
            "# {:<32} {:>14.6} {:<6} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    let finite = metrics.items().iter().all(|m| m.value.is_finite());
    let e2e = &outcome.e2e;
    println!(
        "{}",
        stats::result_line(
            e2e.failed == 0 && finite,
            e2e.attempted,
            e2e.failed,
            &metrics
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload serve_mixed --seed 42 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, "serve_mixed");
        assert_eq!(a.seed, 42);
        assert_eq!(a.seconds, Duration::from_secs(10));
        assert!(a.trace);
        assert!(args("--workload x --seed 1 --seconds 10").is_err());
        assert!(args("--workload x --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload x --seed -1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload x --seed 1 --seconds 1 --trace 2").is_err());
    }
}
