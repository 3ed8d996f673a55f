//! What a run accumulates, and how it becomes the reported metrics: the
//! end-to-end metrics of an untraced run and the per-layer metrics of a
//! traced one.

use std::time::{Duration, Instant};

use crate::adapter::{CacheCounters, ExploreCounts, Figures, Fronts, SearchReplay};
use crate::stats::{mean, median, Metrics};
use crate::sys;

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    ms(t.elapsed())
}

/// Percent reductions of the best cycles and best energy frontier points
/// against the out-of-the-box baseline at the same point.
pub fn best_gains(figures: &[Figures], fronts: &Fronts) -> (f64, f64) {
    let best_cycles = fronts
        .cycles
        .iter()
        .map(|&i| figures[i])
        .min_by_key(|f| f.cycles);
    let best_energy = fronts
        .energy
        .iter()
        .map(|&i| figures[i])
        .min_by(|a, b| a.energy_pj.total_cmp(&b.energy_pj));
    let gain = |v: f64, base: f64| 100.0 * (1.0 - v / base);
    (
        best_cycles.map_or(f64::NAN, |f| {
            gain(f.cycles as f64, f.cycles_baseline as f64)
        }),
        best_energy.map_or(f64::NAN, |f| gain(f.energy_pj, f.energy_baseline_pj)),
    )
}

/// Fewest set-up samples without CPU steal that `setup_s` is taken over;
/// with fewer, it is taken over every sample.
const SETUP_CLEAN_SAMPLES: usize = 5;

/// The timed set-ups of a run. A set-up takes about a millisecond, and on
/// a virtual machine the speed such short work runs at drifts by half
/// over seconds, so a run takes its samples spread over its whole length
/// rather than all at its start. A sample during which the hypervisor
/// took CPU time from the machine is left out.
#[derive(Default)]
pub struct SetupTimer {
    /// Seconds per set-up of each sample, and whether CPU steal hit it.
    samples: Vec<(f64, bool)>,
}

impl SetupTimer {
    /// Times one sample of `batch` back-to-back calls of `setup` and
    /// returns the last state; `retire` disposes of the others, outside
    /// the timed region.
    pub fn sample<T>(
        &mut self,
        batch: usize,
        mut setup: impl FnMut() -> Result<T, String>,
        mut retire: impl FnMut(T) -> Result<(), String>,
    ) -> Result<T, String> {
        let steal_before = sys::steal_ticks();
        let t = Instant::now();
        let mut made = (0..batch)
            .map(|_| setup())
            .collect::<Result<Vec<T>, String>>()?;
        let took = t.elapsed().as_secs_f64() / batch.max(1) as f64;
        let stolen = sys::steal_ticks()
            .zip(steal_before)
            .map_or(0, |(after, before)| after.saturating_sub(before));
        self.samples.push((took, stolen > 0));
        let last = made.pop().ok_or("a set-up batch is empty")?;
        for state in made {
            retire(state)?;
        }
        Ok(last)
    }

    /// The samples `setup_s` is the median of.
    pub fn kept(&self) -> Vec<f64> {
        let clean: Vec<f64> = self.samples.iter().filter(|s| !s.1).map(|s| s.0).collect();
        if clean.len() >= SETUP_CLEAN_SAMPLES {
            clean
        } else {
            self.samples.iter().map(|s| s.0).collect()
        }
    }

    /// A header line: batch size, samples kept and taken.
    pub fn note(&self, batch: usize) -> String {
        format!(
            "set-up: {} of {} samples of {batch} kept (the others saw CPU steal)",
            self.kept().len(),
            self.samples.len()
        )
    }
}

/// The end-to-end record of one run.
#[derive(Default)]
pub struct EndToEnd {
    /// Seconds per set-up, one value per kept sample.
    pub setup_s: Vec<f64>,
    /// Per-op latency, milliseconds.
    pub latency_ms: Vec<f64>,
    /// Wall time the ops were measured over, seconds.
    pub busy_s: f64,
    /// Grid (or virtual lattice) points resolved by successful ops.
    pub points: u64,
    pub hit_ms: Vec<f64>,
    pub miss_ms: Vec<f64>,
    /// (cycles, energy) gain per distinct op, percent.
    pub gains: Vec<(f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
}

impl EndToEnd {
    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let n = self.latency_ms.len();
        m.put(
            "setup_s",
            median(&self.setup_s).unwrap_or(f64::NAN),
            "s",
            format!("median of {} set-up samples", self.setup_s.len()),
        );
        m.put_percentile("latency_p50_ms", &self.latency_ms, 50.0);
        m.put_percentile("latency_p90_ms", &self.latency_ms, 90.0);
        m.put(
            "ops_per_s",
            n as f64 / self.busy_s,
            "1/s",
            format!("{n} ops in {:.3} s", self.busy_s),
        );
        m.put(
            "points_per_s",
            self.points as f64 / self.busy_s,
            "1/s",
            format!("{} points", self.points),
        );
        m.put(
            "success_ratio",
            (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64,
            "ratio",
            format!("{} of {} ops failed", self.failed, self.attempted),
        );
        m.put(
            "peak_rss_mb",
            sys::peak_rss_mb().unwrap_or(f64::NAN),
            "MB",
            "VmHWM of the process",
        );
        let cycles: Vec<f64> = self.gains.iter().map(|g| g.0).collect();
        let energy: Vec<f64> = self.gains.iter().map(|g| g.1).collect();
        let note = format!("mean over {} distinct ops", self.gains.len());
        m.put(
            "cycles_gain_pct",
            mean(&cycles).unwrap_or(f64::NAN),
            "%",
            note.clone(),
        );
        m.put(
            "energy_gain_pct",
            mean(&energy).unwrap_or(f64::NAN),
            "%",
            note,
        );
        m.put_percentile("hit_p50_ms", &self.hit_ms, 50.0);
        // p90, not p99: a hit takes a fraction of a millisecond, and on a
        // virtual machine the hypervisor's pauses alone move its p99 by
        // half from run to run.
        m.put_percentile("hit_p90_ms", &self.hit_ms, 90.0);
        m.put_percentile("miss_p50_ms", &self.miss_ms, 50.0);
        m.put_percentile("miss_p90_ms", &self.miss_ms, 90.0);
        m
    }
}

/// The per-layer record of a traced run. Timings are per call, in
/// milliseconds.
#[derive(Default)]
pub struct Layers {
    pub search: SearchReplay,
    /// Engine call wall and process CPU time per exploration.
    pub sweep_ms: Vec<f64>,
    pub sweep_cpu_ms: Vec<f64>,
    pub counts: ExploreCounts,
    pub explorations: u64,
    pub ir_parse_ms: Vec<f64>,
    pub reuse_ms: Vec<f64>,
    pub context_ms: Vec<f64>,
    pub pareto_ms: Vec<f64>,
    pub render_ms: Vec<f64>,
    pub protocol_parse_ms: Vec<f64>,
    pub protocol_render_ms: Vec<f64>,
    pub fingerprint_ms: Vec<f64>,
    pub overhead_ms: Vec<f64>,
    pub cache: CacheCounters,
    pub traced_latency_ms: Vec<f64>,
    pub untraced_latency_ms: Vec<f64>,
}

impl Layers {
    pub fn add_counts(&mut self, c: &ExploreCounts) {
        let t = &mut self.counts;
        t.points += c.points;
        t.evals += c.evals;
        t.attempted += c.attempted;
        t.speculative += c.speculative;
        t.skipped += c.skipped;
        t.waves += c.waves;
        t.cells_closed_mask += c.cells_closed_mask;
        t.cells_opened += c.cells_opened;
        t.corners_certified += c.corners_certified;
        self.explorations += 1;
    }

    pub fn add_search(&mut self, r: &SearchReplay) {
        let s = &mut self.search;
        s.evals += r.evals;
        s.ms += r.ms;
        s.legs += r.legs;
        s.allocations += r.allocations;
        s.mismatches += r.mismatches;
    }

    pub fn metrics(&self) -> Metrics {
        let mut m = Metrics::default();
        let s = &self.search;
        let evals = s.evals.max(1) as f64;
        let eval_ms = s.ms / evals;
        let replays = format!("{} replayed searches", s.evals);
        m.put("search.eval_ms", eval_ms, "ms", replays.clone());
        m.put(
            "search.legs",
            s.legs as f64 / evals,
            "count",
            replays.clone(),
        );
        m.put(
            "search.allocs_per_eval",
            s.allocations as f64 / evals,
            "count",
            replays,
        );

        let x = self.explorations.max(1) as f64;
        let per = format!("mean over {} explorations", self.explorations);
        let c = &self.counts;
        let sweep_ms = mean(&self.sweep_ms).unwrap_or(f64::NAN);
        let sweep_cpu_ms = mean(&self.sweep_cpu_ms).unwrap_or(f64::NAN);
        m.put("explore.sweep_ms", sweep_ms, "ms", per.clone());
        m.put("explore.sweep_cpu_ms", sweep_cpu_ms, "ms", per.clone());
        m.put(
            "explore.sched_cpu_ms",
            sweep_cpu_ms - c.evals as f64 / x * eval_ms,
            "ms",
            "sweep_cpu_ms - evals x search.eval_ms",
        );
        for (name, total) in [
            ("explore.evals", c.evals),
            ("explore.points", c.points),
            ("explore.speculative_evals", c.speculative),
            ("explore.waves", c.waves),
            ("explore.cells_closed_mask", c.cells_closed_mask),
            ("explore.cells_opened", c.cells_opened),
            ("explore.corners_certified", c.corners_certified),
        ] {
            m.put(name, total as f64 / x, "count", per.clone());
        }
        m.put(
            "explore.skip_ratio",
            c.skipped as f64 / c.points.max(1) as f64,
            "ratio",
            "points resolved without a search / points",
        );
        m.put(
            "explore.eval_ratio",
            c.evals as f64 / c.attempted.max(1) as f64,
            "ratio",
            "committed searches / searches started",
        );

        for (name, samples) in [
            ("ir.parse_ms", &self.ir_parse_ms),
            ("reuse.analyze_ms", &self.reuse_ms),
            ("context.build_ms", &self.context_ms),
            ("pareto.front_ms", &self.pareto_ms),
            ("report.render_ms", &self.render_ms),
            ("protocol.parse_ms", &self.protocol_parse_ms),
            ("protocol.render_ms", &self.protocol_render_ms),
            ("fingerprint.ms", &self.fingerprint_ms),
            ("server.overhead_ms", &self.overhead_ms),
        ] {
            m.put(
                name,
                median(samples).unwrap_or(f64::NAN),
                "ms",
                format!("median of {}", samples.len()),
            );
        }

        let k = &self.cache;
        for (name, v) in [
            ("cache.hits", k.hits),
            ("cache.misses", k.misses),
            ("cache.evictions", k.evictions),
            ("service.engine_runs", k.engine_runs),
            ("service.points_evaluated", k.points_evaluated),
        ] {
            m.put(name, v as f64, "count", "run total");
        }
        m.put("cache.bytes", k.bytes as f64, "B", "at the end of the run");
        m.put(
            "cache.hit_ratio",
            k.hits as f64 / (k.hits + k.misses).max(1) as f64,
            "ratio",
            "run total",
        );

        let traced = median(&self.traced_latency_ms).unwrap_or(f64::NAN);
        let untraced = median(&self.untraced_latency_ms).unwrap_or(f64::NAN);
        m.put_percentile("trace.latency_p50_ms", &self.traced_latency_ms, 50.0);
        m.put_percentile(
            "trace.untraced_latency_p50_ms",
            &self.untraced_latency_ms,
            50.0,
        );
        m.put(
            "trace.overhead_pct",
            100.0 * (traced / untraced - 1.0),
            "%",
            "traced vs untraced latency_p50_ms, same run",
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_up_samples_hit_by_steal_are_left_out_while_enough_remain() {
        let timer = |flags: &[bool]| SetupTimer {
            samples: flags
                .iter()
                .enumerate()
                .map(|(i, &stolen)| (i as f64, stolen))
                .collect(),
        };
        let t = timer(&[false, true, false, false, true, false, false]);
        assert_eq!(t.kept(), vec![0.0, 2.0, 3.0, 5.0, 6.0]);
        // Too few clean samples: every sample counts.
        let t = timer(&[false, true, true, false]);
        assert_eq!(t.kept(), vec![0.0, 1.0, 2.0, 3.0]);
    }
}
