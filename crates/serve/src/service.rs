//! The transport-free request handler.
//!
//! [`Service`] owns everything the server shares between connections —
//! the content-addressed [`ResultCache`], the per-program analysis cache,
//! the shutdown flag and the counters — and turns one request line into
//! one response line. The TCP layer ([`crate::server`]) is a thin shell
//! around [`Service::handle_line`]; tests (including the no-panic
//! ingress matrix) drive the service directly, without sockets.
//!
//! Two caches, two different things:
//!
//! * the **result cache** stores finished, fully-rendered exploration
//!   bodies, content-addressed — a hit skips the engine entirely;
//! * the **analysis cache** stores the expensive program-level
//!   preprocessing ([`ReuseAnalysis`]) keyed by program fingerprint, so a
//!   *miss* for a known program still skips the reuse analysis and only
//!   pays for the sweep itself ([`ExplorationContext::with_reuse`] +
//!   [`try_sweep_grid_run_in`]).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use mhla_core::explore::try_sweep_grid_run_in;
use mhla_core::fingerprint::{platform_fingerprint, program_fingerprint};
use mhla_core::ExplorationContext;
use mhla_ir::serdes::Json;
use mhla_ir::Program;
use mhla_reuse::ReuseAnalysis;

use crate::cache::{CacheKey, ResultCache};
use crate::protocol::{
    canonical_options, error_line, ok_line, result_body, ErrorBody, ExploreRequest, Request,
};

/// Tuning knobs of a [`Service`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServiceOptions {
    /// Byte budget of the result cache.
    pub cache_bytes: usize,
}

impl Default for ServiceOptions {
    fn default() -> Self {
        ServiceOptions {
            cache_bytes: 64 * 1024 * 1024,
        }
    }
}

/// Entry cap of the per-program analysis cache.
const ANALYSIS_ENTRIES: usize = 32;

/// One cached program analysis: the owned program (the engine borrows
/// it for the exploration context) plus its reuse analysis.
struct Analysis {
    program: Program,
    reuse: ReuseAnalysis,
}

/// The analysis LRU: program fingerprint → shared analysis.
struct AnalysisCache {
    entries: HashMap<u128, (u64, Arc<Analysis>)>,
    cap: usize,
    tick: u64,
}

impl AnalysisCache {
    fn new(cap: usize) -> Self {
        AnalysisCache {
            entries: HashMap::new(),
            cap: cap.max(1),
            tick: 0,
        }
    }

    fn get(&mut self, fp: u128) -> Option<Arc<Analysis>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&fp).map(|(t, a)| {
            *t = tick;
            Arc::clone(a)
        })
    }

    fn insert(&mut self, fp: u128, analysis: Arc<Analysis>) {
        self.tick += 1;
        while self.entries.len() >= self.cap && !self.entries.contains_key(&fp) {
            let stalest = self
                .entries
                .iter()
                .min_by_key(|(_, (t, _))| *t)
                .map(|(&k, _)| k);
            match stalest {
                Some(k) => {
                    self.entries.remove(&k);
                }
                None => break,
            }
        }
        self.entries.insert(fp, (self.tick, analysis));
    }
}

/// The shared state behind every connection; see the module docs.
pub struct Service {
    cache: Mutex<ResultCache>,
    analyses: Mutex<AnalysisCache>,
    /// Raised by a `shutdown` request. Every in-flight budget carries a
    /// clone, so raising it stops running sweeps at certified partial
    /// frontiers.
    cancel: Arc<AtomicBool>,
    draining: AtomicBool,
    requests: AtomicU64,
    engine_runs: AtomicU64,
    points_evaluated: AtomicU64,
}

impl Service {
    /// A fresh service.
    pub fn new(opts: ServiceOptions) -> Self {
        Service {
            cache: Mutex::new(ResultCache::new(opts.cache_bytes)),
            analyses: Mutex::new(AnalysisCache::new(ANALYSIS_ENTRIES)),
            cancel: Arc::new(AtomicBool::new(false)),
            draining: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            engine_runs: AtomicU64::new(0),
            points_evaluated: AtomicU64::new(0),
        }
    }

    /// Whether a graceful shutdown has begun.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed)
    }

    /// Begins graceful shutdown: refuse new explorations, cancel running
    /// sweeps (they stop at certified partial frontiers).
    pub fn begin_shutdown(&self) {
        self.draining.store(true, Ordering::Relaxed);
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Handles one request line, producing one response line. Total:
    /// never panics, whatever the input — hostile ingress maps to typed
    /// error responses (`tests/no_panic.rs` contract 4 pins this).
    pub fn handle_line(&self, line: &str) -> String {
        self.requests.fetch_add(1, Ordering::Relaxed);
        match Request::parse(line) {
            Err(e) => error_line(&e),
            Ok(Request::Status) => ok_line(None, &self.status_body()),
            Ok(Request::Shutdown) => {
                self.begin_shutdown();
                ok_line(None, "{\"stopping\":true}")
            }
            Ok(Request::Explore(req)) => match self.explore(*req) {
                Ok((cached, body)) => ok_line(Some(cached), &body),
                Err(e) => error_line(&e),
            },
        }
    }

    /// One exploration: cache lookup, then (on a miss) a context-reuse
    /// engine run under the request's budget. Returns `(cached, body)`.
    fn explore(&self, req: ExploreRequest) -> Result<(bool, String), ErrorBody> {
        if self.is_draining() {
            return Err(ErrorBody {
                class: "shutting_down".into(),
                message: "the server is draining; no new explorations accepted".into(),
            });
        }
        let program_fp = program_fingerprint(&req.program);
        let platform_fp = platform_fingerprint(&req.platform);
        let (config, axes, opts) = req.engine_inputs(Some(Arc::clone(&self.cancel)));
        let key = CacheKey {
            program_fp,
            platform_fp,
            options: canonical_options(&req.objective, req.mode, &axes),
        };
        if let Some(body) = self.lock_cache().get(&key) {
            return Ok((true, body));
        }

        let analysis = self.analysis_for(program_fp, req.program);
        let ctx = ExplorationContext::with_reuse(
            &analysis.program,
            &req.platform,
            config,
            analysis.reuse.clone(),
        );
        let run = try_sweep_grid_run_in(&ctx, &req.platform, &axes, &opts)?;
        self.engine_runs.fetch_add(1, Ordering::Relaxed);
        self.points_evaluated
            .fetch_add(run.sweep.points.len() as u64, Ordering::Relaxed);
        let body = result_body(&run, program_fp, platform_fp);
        if run.status.is_complete() {
            self.lock_cache().insert(key, body.clone());
        }
        Ok((false, body))
    }

    /// The shared analysis of a program, computing and caching it on
    /// first sight. The `Arc` is cloned out of the lock, so concurrent
    /// sweeps over the same program never serialize on the cache mutex.
    fn analysis_for(&self, fp: u128, program: Program) -> Arc<Analysis> {
        if let Some(hit) = self.lock_analyses().get(fp) {
            return hit;
        }
        // Analyze outside the lock: two workers may race the same new
        // program, costing one duplicate analysis, never a wrong result.
        let analysis = Arc::new(Analysis {
            reuse: ReuseAnalysis::analyze(&program),
            program,
        });
        self.lock_analyses().insert(fp, Arc::clone(&analysis));
        analysis
    }

    fn status_body(&self) -> String {
        let (stats, entries, bytes, capacity) = {
            let cache = self.lock_cache();
            (
                cache.stats(),
                cache.len(),
                cache.bytes(),
                cache.capacity_bytes(),
            )
        };
        let programs = self.lock_analyses().entries.len();
        Json::Obj(vec![
            (
                "cache".into(),
                Json::Obj(vec![
                    ("hits".into(), Json::from_u64(stats.hits)),
                    ("misses".into(), Json::from_u64(stats.misses)),
                    ("evictions".into(), Json::from_u64(stats.evictions)),
                    ("insertions".into(), Json::from_u64(stats.insertions)),
                    ("uncacheable".into(), Json::from_u64(stats.uncacheable)),
                    ("entries".into(), Json::from_u64(entries as u64)),
                    ("bytes".into(), Json::from_u64(bytes as u64)),
                    ("capacity_bytes".into(), Json::from_u64(capacity as u64)),
                ]),
            ),
            (
                "engine".into(),
                Json::Obj(vec![
                    (
                        "runs".into(),
                        Json::from_u64(self.engine_runs.load(Ordering::Relaxed)),
                    ),
                    (
                        "points_evaluated".into(),
                        Json::from_u64(self.points_evaluated.load(Ordering::Relaxed)),
                    ),
                    ("programs_analyzed".into(), Json::from_u64(programs as u64)),
                ]),
            ),
            (
                "requests".into(),
                Json::from_u64(self.requests.load(Ordering::Relaxed)),
            ),
            ("draining".into(), Json::Bool(self.is_draining())),
        ])
        .render_compact()
    }

    /// Mutex poisoning cannot happen (`handle_line` is panic-free by the
    /// no-panic contract), but `#![forbid(unsafe_code)]` leaves no cheap
    /// recovery either — recover the inner value instead of unwrapping.
    fn lock_cache(&self) -> std::sync::MutexGuard<'_, ResultCache> {
        match self.cache.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn lock_analyses(&self) -> std::sync::MutexGuard<'_, AnalysisCache> {
        match self.analyses.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}
