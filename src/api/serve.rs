//! `themis-serve`: a resident campaign service with a persistent warm plan
//! cache.
//!
//! Every run used to be a cold process: schedules and cost tables were
//! rebuilt per invocation, so the warm-plan speedups of the
//! [`themis_core::SimPlanCache`] evaporated across process boundaries. This
//! module keeps them alive: a [`Service`] owns **one** [`SimPlanCache`] (plus
//! a result-level cell cache) for its whole lifetime and answers a stream of
//! JSONL requests — campaigns, stream campaigns, shard specs, orchestrated
//! multi-process sweeps — against it. The `themis-serve` binary in
//! `crates/bench` wraps a `Service` in a stdin/stdout or Unix-domain-socket
//! daemon.
//!
//! ## Protocol
//!
//! One JSON object per line in, one JSON object per line out (the
//! dependency-free [`crate::api::json`] format — no new dependencies):
//!
//! ```text
//! → {"id":1,"kind":"ping"}
//! ← {"id":1,"status":"ok","kind":"ping","result":{...},"cache":{...}}
//! → {"id":2,"kind":"campaign","cells":[{"platform":{...},"job":{...}},...]}
//! ← {"id":2,"status":"ok","kind":"campaign","result":<campaign report>,"cache":{...}}
//! → {"id":3,"kind":"nope"}
//! ← {"id":3,"status":"error","error":"unknown request kind `nope` (...)"}
//! ```
//!
//! A malformed line never crashes the service — it answers with a structured
//! `status:"error"` response and keeps serving. Lines longer than
//! [`ServeOptions::max_line_bytes`] are drained without ever being buffered
//! and answered the same way, so a runaway client cannot exhaust the
//! daemon's memory. Request kinds:
//!
//! | kind            | payload                                  | result |
//! |-----------------|------------------------------------------|--------|
//! | `ping`          | —                                        | resident cache sizes |
//! | `campaign`      | `cells: [{platform, job}]`               | the [`CampaignReport`], bit-identical to [`Runner::execute`] |
//! | `stream`        | `cells: [{platform, stream}]`            | the [`StreamCampaignReport`], bit-identical to [`Runner::execute_streams`] |
//! | `shard`         | `spec: <shard-spec JSON>`                | the [`crate::api::ShardReport`] |
//! | `sweep`         | campaign/stream cells + orchestration    | a merged multi-process sweep ([`crate::api::orchestrator`]) |
//! | `cache-stats`   | —                                        | cumulative cache counters |
//! | `cache-publish` | `path` (optional)                        | merge-publishes the schedule cache to its file |
//! | `metrics`       | —                                        | telemetry snapshot (JSON + Prometheus text) |
//! | `shutdown`      | —                                        | acknowledges, then the serve loop exits |
//!
//! Every `ok` response carries a `cache` block with the request's **delta**
//! hit/miss counters (cells served from the resident result cache, schedules
//! served from the plan cache) — the second identical campaign request
//! reports `cells.hits > 0` without simulating anything.
//!
//! ## Deadlines, backpressure, and panic isolation
//!
//! Beyond `ok` and `error`, two structured statuses make overload and
//! slowness first-class protocol citizens instead of hung connections:
//!
//! * **`timeout`** — `campaign`/`stream` requests may carry a `deadline_ms`
//!   field (or inherit [`ServeOptions::default_deadline_ms`]). The deadline
//!   becomes a [`CancelToken`] polled at the simulation event-loop epochs;
//!   an expired request answers `status:"timeout"` and its partially
//!   computed cell is *forgotten*, never memoised. Counted in
//!   `serve.timeouts`.
//! * **`overloaded`** — with [`ServeOptions::max_in_flight`] set, heavy
//!   requests past the in-flight budget are **shed immediately** with
//!   `status:"overloaded"` + `retry_after_ms` rather than queued, so a
//!   flood degrades into prompt retry advice instead of unbounded latency.
//!   Light kinds (`ping`, `cache-stats`, `cache-publish`, `metrics`,
//!   `shutdown`) bypass admission so health checks work under load. Counted
//!   in `serve.shed`.
//!
//! A panicking request handler (or cell computation) is caught, answered as
//! a structured `status:"error"` response, and counted in `serve.panics`;
//! only the panicking cell's cache slot is poisoned — the daemon and every
//! concurrent request keep running. Both defaults are off: with no deadline
//! and no budget configured, behavior (and every report byte) is identical
//! to the unhardened service.
//!
//! ## Cell dedup across concurrent requests
//!
//! Identical cells are deduplicated with a single-flight result cache: when
//! two in-flight requests (e.g. two socket connections) race on the same
//! (platform, job) cell, the first computes it and the second *waits for that
//! computation* instead of re-simulating. Results are evicted FIFO beyond
//! [`ServeOptions::max_resident_cells`], bounding the daemon's working set.

use crate::api::json::Json;
use crate::api::orchestrator::{Orchestrator, OrchestratorOptions};
use crate::api::report::{CampaignReport, RunResult};
use crate::api::runner::{CampaignCell, RunSpec, Runner};
use crate::api::shard::{
    job_from_json, job_to_json, platform_from_json, platform_to_json, stream_job_from_json,
    stream_job_to_json, ShardSpec, ShardStrategy,
};
use crate::api::stream::{StreamCampaignReport, StreamRunResult, StreamSpec};
use crate::error::ThemisError;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};
use themis_core::telemetry::{CacheStats, Registry};
use themis_core::SimPlanCache;
use themis_sim::{CancelToken, SimWorkspace};

/// Configuration of a [`Service`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Path of the `shard-worker` binary used by `sweep` requests. `None`
    /// disables orchestrated sweeps (they answer with an error response).
    pub worker: Option<PathBuf>,
    /// Schedule-cache file shared across processes: loaded by
    /// [`Service::load_cache_file`] at startup, merge-published by
    /// [`Service::publish_cache_file`] (and the `cache-publish` request).
    pub cache_file: Option<PathBuf>,
    /// Scratch directory for orchestrated sweeps (spec/partial/progress
    /// files).
    pub work_dir: PathBuf,
    /// FIFO capacity of the resident result cache; older cells are evicted
    /// beyond it so a long-running daemon's memory stays bounded.
    pub max_resident_cells: usize,
    /// Worker threads per spawned shard worker in `sweep` requests.
    pub worker_threads: usize,
    /// Upper bound on one request line, in bytes. A longer line is drained
    /// without buffering it and answered with a structured `status:"error"`
    /// response, so a hostile or buggy client can never balloon the daemon's
    /// memory. Default 16 MiB.
    pub max_line_bytes: usize,
    /// Admission budget: how many *heavy* requests (campaign, stream, shard,
    /// sweep, extension kinds) may be in flight at once. Requests beyond the
    /// budget are **shed** with a `status:"overloaded"` response carrying a
    /// `retry_after_ms` hint instead of queueing unboundedly. `0` (the
    /// default) disables admission control entirely — the unconfigured
    /// service behaves exactly as before.
    pub max_in_flight: usize,
    /// Deadline applied to requests that do not carry their own
    /// `deadline_ms` field, in milliseconds. `None` (the default) means no
    /// implicit deadline.
    pub default_deadline_ms: Option<u64>,
    /// The `retry_after_ms` hint attached to `status:"overloaded"` responses.
    pub retry_after_ms: u64,
}

/// Default request-line cap: 16 MiB (comfortably above any real campaign
/// request, far below anything that could hurt a resident daemon).
pub const DEFAULT_MAX_LINE_BYTES: usize = 16 * 1024 * 1024;

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            worker: None,
            cache_file: None,
            work_dir: PathBuf::from("serve-work"),
            max_resident_cells: 4096,
            worker_threads: 1,
            max_line_bytes: DEFAULT_MAX_LINE_BYTES,
            max_in_flight: 0,
            default_deadline_ms: None,
            retry_after_ms: DEFAULT_RETRY_AFTER_MS,
        }
    }
}

/// Default `retry_after_ms` hint on shed responses: long enough for a typical
/// cell to finish, short enough that a polite client retries promptly.
pub const DEFAULT_RETRY_AFTER_MS: u64 = 100;

/// The resident campaign service: a persistent warm [`SimPlanCache`], a
/// single-flight result cache, and a JSONL request handler.
///
/// All methods take `&self`; a `Service` wrapped in an [`Arc`] serves many
/// connections concurrently, and concurrent requests share (and deduplicate
/// against) the same caches.
///
/// ```
/// use themis::api::serve::Service;
///
/// let service = Service::default();
/// let request = r#"{"id":1,"kind":"ping"}"#;
/// let response = service.handle_line(request);
/// assert!(response.contains("\"status\":\"ok\""));
/// // Malformed requests answer with structured errors instead of crashing.
/// assert!(service.handle_line("{oops").contains("\"status\":\"error\""));
/// ```
#[derive(Debug)]
pub struct Service {
    options: ServeOptions,
    plan: SimPlanCache,
    cells: CellCache,
    shutdown: AtomicBool,
    /// Heavy requests currently being dispatched; the admission budget
    /// ([`ServeOptions::max_in_flight`]) caps it and [`Service::wait_idle`]
    /// drains it.
    in_flight: AtomicUsize,
    /// Per-instance telemetry: per-kind request counters, latency histograms,
    /// and the sim counters of every workspace this service creates. The
    /// `metrics` request kind snapshots it.
    telemetry: Registry,
}

impl Default for Service {
    fn default() -> Self {
        Service::new(ServeOptions::default())
    }
}

impl Service {
    /// Creates a service with empty caches.
    pub fn new(options: ServeOptions) -> Self {
        let cells = CellCache::new(options.max_resident_cells);
        Service {
            options,
            plan: SimPlanCache::new(),
            cells,
            shutdown: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            telemetry: Registry::new(),
        }
    }

    /// The service's telemetry registry (what a `metrics` request snapshots).
    pub fn telemetry(&self) -> &Registry {
        &self.telemetry
    }

    /// The service's configuration.
    pub fn options(&self) -> &ServeOptions {
        &self.options
    }

    /// The resident precompiled-plan cache shared by every request.
    pub fn plan(&self) -> &SimPlanCache {
        &self.plan
    }

    /// Number of results currently resident in the cell cache.
    pub fn resident_cells(&self) -> usize {
        self.cells.len()
    }

    /// `true` once a `shutdown` request has been handled (or
    /// [`Service::begin_shutdown`] was called — e.g. from a signal handler);
    /// serve loops exit and socket daemons stop accepting.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    /// Requests a graceful shutdown from outside the protocol (the
    /// `themis-serve` binary calls this from its SIGTERM handler): serve
    /// loops stop accepting new work; in-flight requests run to completion
    /// and are drained with [`Service::wait_idle`].
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
    }

    /// Number of heavy requests currently being dispatched.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Relaxed)
    }

    /// Blocks until no heavy request is in flight (the graceful-drain half of
    /// shutdown) or `timeout` elapses. Returns `true` when idle was reached.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while self.in_flight() > 0 {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        true
    }

    /// Warm-starts the schedule cache from [`ServeOptions::cache_file`]
    /// (missing file = cold start). Returns the number of loaded schedules.
    ///
    /// # Errors
    ///
    /// Propagates [`themis_core::ScheduleError`] read/parse failures.
    pub fn load_cache_file(&self) -> Result<usize, ThemisError> {
        match &self.options.cache_file {
            Some(path) => Ok(self.plan.schedules().load_from_file(path)?),
            None => Ok(0),
        }
    }

    /// Merge-publishes the schedule cache to [`ServeOptions::cache_file`]
    /// ([`themis_core::ScheduleCache::publish_to_file`] — concurrent
    /// publishers never lose entries). Returns the number of published
    /// schedules, or 0 when no cache file is configured.
    ///
    /// # Errors
    ///
    /// Propagates [`themis_core::ScheduleError`] lock/write failures.
    pub fn publish_cache_file(&self) -> Result<usize, ThemisError> {
        match &self.options.cache_file {
            Some(path) => Ok(self.plan.schedules().publish_to_file(path)?),
            None => Ok(0),
        }
    }

    /// Handles one request line and renders the response line (without a
    /// trailing newline). Never panics on malformed input: parse and
    /// validation failures become `status:"error"` responses.
    pub fn handle_line(&self, line: &str) -> String {
        self.handle_line_with(line, |_, _, _| None)
    }

    /// Like [`Service::handle_line`], with an extension hook consulted for
    /// request kinds the built-in protocol does not know (the `themis-serve`
    /// binary plugs the figure-suite runner in this way). The hook returns
    /// `None` to decline, or `Some(result)` to answer.
    pub fn handle_line_with(
        &self,
        line: &str,
        ext: impl FnOnce(&Service, &str, &Json) -> Option<Result<Json, ThemisError>>,
    ) -> String {
        // The latency histogram covers the whole request, parse to rendered
        // response, so JSON cost shows in the daemon's own metrics.
        let started = Instant::now();
        let request = match Json::parse(line) {
            Ok(request) => request,
            Err(err) => return render_error(&Json::Null, &format!("malformed request: {err}")),
        };
        let id = request.get("id").cloned().unwrap_or(Json::Null);
        let kind = match request.field("kind").and_then(Json::as_str) {
            Ok(kind) => kind.to_string(),
            Err(err) => return render_error(&id, &format!("invalid request: {err}")),
        };
        let before = self.counters();
        self.telemetry
            .counter(format!("serve.requests.{kind}"))
            .inc();
        // Bounded admission: heavy kinds are shed — never queued — beyond
        // the in-flight budget, so a client flood degrades into prompt
        // `overloaded` responses instead of unbounded latency and memory.
        let _permit = if is_heavy_kind(&kind) {
            match InFlightPermit::acquire(self) {
                Some(permit) => Some(permit),
                None => {
                    self.telemetry.counter("serve.shed").inc();
                    return render_overloaded(&id, &kind, self.options.retry_after_ms);
                }
            }
        } else {
            None
        };
        // Panic isolation: a panicking handler answers a structured error on
        // this request and leaves the daemon (and every other request) alive.
        // Cell computations carry their own inner guard (see
        // `compute_isolated`) so a panicking cell also releases its
        // single-flight slot; this outer net catches everything else.
        let result = catch_unwind(AssertUnwindSafe(|| self.dispatch(&kind, &request, ext)))
            .unwrap_or_else(|payload| {
                self.telemetry.counter("serve.panics").inc();
                Err(ThemisError::Serve {
                    reason: format!("request panicked: {}", panic_message(payload.as_ref())),
                })
            });
        let latency = format!("serve.latency_ns.{kind}");
        let response = match result {
            Ok(result) => {
                let delta = self.counters().delta(&before);
                Json::obj([
                    ("id", id),
                    ("status", Json::Str("ok".to_string())),
                    ("kind", Json::Str(kind)),
                    ("result", result),
                    ("cache", delta.to_json(self)),
                ])
                .render()
            }
            Err(err) if err.is_cancelled() => {
                self.telemetry.counter("serve.timeouts").inc();
                render_timeout(&id, &kind)
            }
            Err(err) => {
                self.telemetry.counter(format!("serve.errors.{kind}")).inc();
                render_error(&id, &err.to_string())
            }
        };
        // Freeing a large request tree is part of its cost too.
        drop(request);
        self.telemetry
            .histogram(latency)
            .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        response
    }

    /// Serves requests line by line from `reader`, writing one response line
    /// per request to `writer`, until end-of-input or a `shutdown` request.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error on the reader or writer.
    pub fn serve<R: BufRead, W: Write>(&self, reader: R, writer: W) -> std::io::Result<()> {
        self.serve_with(reader, writer, |_, _, _| None)
    }

    /// Like [`Service::serve`], consulting `ext` for unknown request kinds
    /// (see [`Service::handle_line_with`]).
    ///
    /// # Errors
    ///
    /// Returns the first I/O error on the reader or writer.
    pub fn serve_with<R: BufRead, W: Write>(
        &self,
        mut reader: R,
        mut writer: W,
        ext: impl Fn(&Service, &str, &Json) -> Option<Result<Json, ThemisError>>,
    ) -> std::io::Result<()> {
        loop {
            let response = match read_bounded_line(&mut reader, self.options.max_line_bytes)? {
                LineOutcome::Eof => break,
                LineOutcome::Oversized(len) => render_error(
                    &Json::Null,
                    &format!(
                        "request line too long: {len} bytes exceeds the {} byte limit",
                        self.options.max_line_bytes
                    ),
                ),
                LineOutcome::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    self.handle_line_with(&line, &ext)
                }
            };
            writer.write_all(response.as_bytes())?;
            writer.write_all(b"\n")?;
            writer.flush()?;
            if self.shutdown_requested() {
                break;
            }
        }
        Ok(())
    }

    /// Routes one parsed request to its handler.
    fn dispatch(
        &self,
        kind: &str,
        request: &Json,
        ext: impl FnOnce(&Service, &str, &Json) -> Option<Result<Json, ThemisError>>,
    ) -> Result<Json, ThemisError> {
        match kind {
            "ping" => Ok(self.resident_json()),
            "campaign" => self.handle_campaign(request),
            "stream" => self.handle_stream(request),
            "shard" => self.handle_shard(request),
            "sweep" => self.handle_sweep(request),
            "cache-stats" => Ok(self.cache_stats_json()),
            "cache-publish" => self.handle_cache_publish(request),
            "metrics" => Ok(self.handle_metrics()),
            "shutdown" => {
                self.shutdown.store(true, Ordering::Relaxed);
                Ok(Json::obj([("shutting_down", Json::Bool(true))]))
            }
            other => match ext(self, other, request) {
                Some(result) => result,
                None => Err(ThemisError::Serve {
                    reason: format!(
                        "unknown request kind `{other}` (expected ping, campaign, stream, \
                         shard, sweep, cache-stats, cache-publish, metrics, or shutdown)"
                    ),
                }),
            },
        }
    }

    /// Executes a `campaign` request: each cell through the single-flight
    /// result cache on the resident plan. Bit-identical to
    /// [`Runner::execute`] on the same specs.
    fn handle_campaign(&self, request: &Json) -> Result<Json, ThemisError> {
        let mut workspace = SimWorkspace::with_telemetry(self.telemetry.clone());
        if let Some(token) = self.deadline_token(request)? {
            workspace.set_cancel(token);
        }
        let mut results = Vec::new();
        for cell in request.field("cells")?.as_arr()? {
            let spec = RunSpec::new(
                platform_from_json(cell.field("platform")?)?,
                job_from_json(cell.field("job")?)?,
            );
            // Canonical key: re-render the parsed spec, so formatting
            // differences between clients cannot split the cache.
            let key = format!(
                "campaign:{}:{}",
                platform_to_json(&spec.platform).render(),
                job_to_json(&spec.job).render()
            );
            let value = self.compute_isolated(&key, || {
                spec.execute_planned(&self.plan, &mut workspace)
                    .map(CellValue::Campaign)
            })?;
            match value {
                CellValue::Campaign(result) => results.push(result),
                _ => unreachable!("campaign keys hold campaign results"),
            }
        }
        Ok(CampaignReport::new(results).to_json_value())
    }

    /// Executes a `stream` request; the stream analogue of
    /// [`Service::handle_campaign`].
    fn handle_stream(&self, request: &Json) -> Result<Json, ThemisError> {
        let mut workspace = SimWorkspace::with_telemetry(self.telemetry.clone());
        if let Some(token) = self.deadline_token(request)? {
            workspace.set_cancel(token);
        }
        let mut results = Vec::new();
        for cell in request.field("cells")?.as_arr()? {
            let spec = StreamSpec::new(
                platform_from_json(cell.field("platform")?)?,
                stream_job_from_json(cell.field("stream")?)?,
            );
            let key = format!(
                "stream:{}:{}",
                platform_to_json(&spec.platform).render(),
                stream_job_to_json(&spec.job).render()
            );
            let value = self.compute_isolated(&key, || {
                spec.execute_planned(&self.plan, &mut workspace)
                    .map(CellValue::Stream)
            })?;
            match value {
                CellValue::Stream(result) => results.push(result),
                _ => unreachable!("stream keys hold stream results"),
            }
        }
        Ok(StreamCampaignReport::new(results).to_json_value())
    }

    /// The request's cooperative-cancellation token: its `deadline_ms` field
    /// if present, the service's [`ServeOptions::default_deadline_ms`]
    /// otherwise, `None` when neither is configured (the common case — no
    /// token means the simulation event loops skip the deadline poll
    /// entirely).
    fn deadline_token(&self, request: &Json) -> Result<Option<CancelToken>, ThemisError> {
        let ms = match request.get("deadline_ms") {
            Some(value) => Some(value.as_f64()?),
            None => self.options.default_deadline_ms.map(|ms| ms as f64),
        };
        Ok(ms.map(|ms| CancelToken::with_timeout(Duration::from_secs_f64(ms.max(0.0) / 1000.0))))
    }

    /// Runs one cell computation through the single-flight cache with panic
    /// isolation and timeout-aware memoisation:
    ///
    /// * a panic inside the simulator becomes a structured error (counted in
    ///   `serve.panics`) that poisons **only this cell's slot** — the daemon
    ///   and every concurrent request keep running;
    /// * a cancelled (deadline-exceeded) run is *forgotten* instead of
    ///   memoised, so a later request with a saner deadline recomputes the
    ///   cell instead of replaying the timeout forever.
    fn compute_isolated(
        &self,
        key: &str,
        compute: impl FnOnce() -> Result<CellValue, ThemisError>,
    ) -> Result<CellValue, ThemisError> {
        let result = self.cells.get_or_compute(key.to_string(), || {
            match catch_unwind(AssertUnwindSafe(compute)) {
                Ok(result) => result,
                Err(payload) => {
                    self.telemetry.counter("serve.panics").inc();
                    Err(ThemisError::Serve {
                        reason: format!(
                            "cell computation panicked: {}",
                            panic_message(payload.as_ref())
                        ),
                    })
                }
            }
        });
        if let Err(err) = &result {
            if err.is_cancelled() {
                self.cells.forget(key);
            }
        }
        result
    }

    /// Runs an extension-hook computation through the resident single-flight
    /// cell cache with the same guarantees as built-in cells: identical keys
    /// — sequential or racing across threads — compute once, a panic poisons
    /// only this key's slot (structured error, `serve.panics` counted), and a
    /// cancelled run is forgotten instead of memoised. For use from the
    /// `ext` hook of [`Service::handle_line_with`]; prefix keys with the
    /// extension's kind to stay clear of the built-in `campaign:`/`stream:`
    /// namespaces.
    ///
    /// # Errors
    ///
    /// Returns the computation's own error (memoised, so a deterministic
    /// failure fails identically on every repeat), or a
    /// [`ThemisError::Serve`] if `key` collides with a non-extension cell.
    pub fn compute_cell(
        &self,
        key: &str,
        compute: impl FnOnce() -> Result<Json, ThemisError>,
    ) -> Result<Json, ThemisError> {
        match self.compute_isolated(key, || compute().map(CellValue::Ext))? {
            CellValue::Ext(value) => Ok(value),
            _ => Err(ThemisError::Serve {
                reason: format!("cell key `{key}` already holds a built-in cell result"),
            }),
        }
    }

    /// Executes a `shard` request against the resident plan cache.
    fn handle_shard(&self, request: &Json) -> Result<Json, ThemisError> {
        let spec = ShardSpec::from_json(&request.field("spec")?.render())?;
        let report = spec.execute_with_cache(&Runner::sequential(), &self.plan)?;
        Ok(Json::parse(&report.to_json())?)
    }

    /// Executes a `sweep` request: plans shards over the request's cells and
    /// drives them through the multi-process [`Orchestrator`].
    fn handle_sweep(&self, request: &Json) -> Result<Json, ThemisError> {
        let worker = self
            .options
            .worker
            .clone()
            .ok_or_else(|| ThemisError::Serve {
                reason: "sweep requests need a configured shard-worker binary \
                         (start themis-serve with --worker)"
                    .to_string(),
            })?;
        let mut options = OrchestratorOptions::new(worker);
        options.work_dir = self.options.work_dir.clone();
        options.cache_file = self.options.cache_file.clone();
        options.threads_per_worker = self.options.worker_threads;
        if let Some(shards) = request.get("shards") {
            options.shards = shards.as_usize()?;
        }
        if let Some(strategy) = request.get("strategy") {
            options.strategy = match strategy.as_str()? {
                "round-robin" => ShardStrategy::RoundRobin,
                "cost-balanced" => ShardStrategy::CostBalanced,
                other => {
                    return Err(ThemisError::Serve {
                        reason: format!("unknown shard strategy `{other}`"),
                    })
                }
            };
        }
        if let Some(attempts) = request.get("max_attempts") {
            options.max_attempts = attempts.as_usize()?.max(1) as u32;
        }
        if let Some(timeout) = request.get("stall_timeout_ms") {
            options.stall_timeout = Duration::from_millis(timeout.as_f64()? as u64);
        }
        if let Some(id) = request.get("sweep_id") {
            options.sweep_id = Some(id.as_str()?.to_string());
        }
        if let Some(hook) = request.get("fail_first_attempt") {
            for entry in hook.as_arr()? {
                options
                    .fail_first_attempt
                    .push((entry.field("shard")?.as_usize()?, {
                        match entry.get("after_cells") {
                            Some(cells) => cells.as_usize()?,
                            None => 0,
                        }
                    }));
            }
        }
        let orchestrator = Orchestrator::new(options);
        let entries = request.field("entries")?.as_arr()?;
        let outcome = match request.field("cells")?.as_str()? {
            "campaign" => {
                let specs = entries
                    .iter()
                    .map(|cell| {
                        Ok(RunSpec::new(
                            platform_from_json(cell.field("platform")?)?,
                            job_from_json(cell.field("job")?)?,
                        ))
                    })
                    .collect::<Result<Vec<_>, ThemisError>>()?;
                orchestrator.run_campaign(&specs)?
            }
            "stream" => {
                let specs = entries
                    .iter()
                    .map(|cell| {
                        Ok(StreamSpec::new(
                            platform_from_json(cell.field("platform")?)?,
                            stream_job_from_json(cell.field("stream")?)?,
                        ))
                    })
                    .collect::<Result<Vec<_>, ThemisError>>()?;
                orchestrator.run_streams(&specs)?
            }
            other => {
                return Err(ThemisError::Serve {
                    reason: format!("unknown sweep cell kind `{other}`"),
                })
            }
        };
        Ok(Json::obj([
            ("merged", Json::parse(&outcome.merged.to_json())?),
            (
                "attempts",
                Json::Arr(
                    outcome
                        .attempts
                        .iter()
                        .map(|&a| Json::Num(a as f64))
                        .collect(),
                ),
            ),
            ("retries", Json::Num(outcome.retries() as f64)),
            (
                "resumed_shards",
                Json::Arr(
                    outcome
                        .resumed_shards
                        .iter()
                        .map(|&shard| Json::Num(shard as f64))
                        .collect(),
                ),
            ),
            (
                "failures",
                Json::Arr(
                    outcome
                        .failures
                        .iter()
                        .map(|failure| {
                            Json::obj([
                                ("shard", Json::Num(failure.shard as f64)),
                                ("attempt", Json::Num(failure.attempt as f64)),
                                ("kind", Json::Str(failure.kind.as_str().to_string())),
                                ("reason", Json::Str(failure.reason.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "shards",
                Json::Arr(
                    outcome
                        .shard_perf
                        .iter()
                        .map(|perf| match perf {
                            Some(perf) => perf.to_json(),
                            None => Json::Null,
                        })
                        .collect(),
                ),
            ),
        ]))
    }

    /// Handles `cache-publish`: merge-publishes the schedule cache to the
    /// request's `path` or the configured cache file.
    fn handle_cache_publish(&self, request: &Json) -> Result<Json, ThemisError> {
        let published = match request.get("path") {
            Some(path) => self
                .plan
                .schedules()
                .publish_to_file(std::path::Path::new(path.as_str()?))?,
            None => {
                if self.options.cache_file.is_none() {
                    return Err(ThemisError::Serve {
                        reason: "cache-publish needs a `path` or a configured --cache file"
                            .to_string(),
                    });
                }
                self.publish_cache_file()?
            }
        };
        Ok(Json::obj([("published", Json::Num(published as f64))]))
    }

    /// Snapshot of all cumulative counters, for per-request deltas: one
    /// [`CacheStats`] per memo layer.
    fn counters(&self) -> CacheCounters {
        CacheCounters {
            cells: self.cells.stats(),
            schedules: self.plan.schedules().stats(),
            cost_tables: self.plan.cost_tables().stats(),
        }
    }

    /// The `metrics` result: the full telemetry snapshot (JSON and
    /// Prometheus text exposition) plus the cache layers' cumulative hit
    /// rates.
    fn handle_metrics(&self) -> Json {
        let snapshot = self.telemetry.snapshot();
        // Corruption quarantines and lock takeovers happen inside
        // `themis_core`, which only sees the process-wide registry — surface
        // them here so one `metrics` request covers both layers.
        let global = themis_core::telemetry::global().snapshot();
        let totals = self.counters();
        Json::obj([
            ("snapshot", snapshot.to_json()),
            ("prometheus", Json::Str(snapshot.to_prometheus())),
            (
                "global",
                Json::obj([
                    (
                        "cache.corrupt_quarantined",
                        Json::Num(global.counter("cache.corrupt_quarantined") as f64),
                    ),
                    (
                        "cache.lock_takeover",
                        Json::Num(global.counter("cache.lock_takeover") as f64),
                    ),
                ]),
            ),
            ("caches", self.cache_stats_json()),
            (
                "hit_rates",
                Json::obj([
                    ("cells", Json::Num(totals.cells.hit_rate())),
                    ("schedules", Json::Num(totals.schedules.hit_rate())),
                    ("cost_tables", Json::Num(totals.cost_tables.hit_rate())),
                ]),
            ),
        ])
    }

    /// The `ping` result: resident cache sizes.
    fn resident_json(&self) -> Json {
        Json::obj([
            ("pong", Json::Bool(true)),
            ("resident", self.resident_sizes_json()),
        ])
    }

    /// Resident entry counts per cache pool.
    fn resident_sizes_json(&self) -> Json {
        Json::obj([
            ("cells", Json::Num(self.cells.len() as f64)),
            ("schedules", Json::Num(self.plan.schedules().len() as f64)),
            (
                "cost_tables",
                Json::Num(self.plan.cost_tables().len() as f64),
            ),
        ])
    }

    /// The `cache-stats` result: cumulative counters plus resident sizes.
    fn cache_stats_json(&self) -> Json {
        let totals = self.counters();
        Json::obj([
            ("cells", totals.cells.to_json()),
            ("schedules", totals.schedules.to_json()),
            ("cost_tables", totals.cost_tables.to_json()),
            ("resident", self.resident_sizes_json()),
        ])
    }
}

/// Result of one bounded line read.
enum LineOutcome {
    /// End of input with nothing pending.
    Eof,
    /// A complete line within the cap (without its newline).
    Line(String),
    /// The line exceeded the cap; it was consumed but **not** buffered. The
    /// payload is the line's total length in bytes.
    Oversized(usize),
}

/// Reads one `\n`-terminated line from `reader`, buffering at most `cap`
/// bytes. A longer line is drained chunk by chunk through the reader's
/// internal buffer — memory use stays O(cap) no matter how long the client's
/// line is — and reported as [`LineOutcome::Oversized`] so the serve loop can
/// answer with a structured error and keep the connection in sync.
fn read_bounded_line<R: BufRead>(reader: &mut R, cap: usize) -> std::io::Result<LineOutcome> {
    let mut buf: Vec<u8> = Vec::new();
    let mut total = 0usize;
    let mut oversized = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF: flush whatever an unterminated final line accumulated.
            return Ok(if oversized {
                LineOutcome::Oversized(total)
            } else if total == 0 {
                LineOutcome::Eof
            } else {
                LineOutcome::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        let (line_bytes, consumed, done) = match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => (pos, pos + 1, true),
            None => (chunk.len(), chunk.len(), false),
        };
        total += line_bytes;
        if !oversized {
            if total > cap {
                oversized = true;
                buf = Vec::new();
            } else {
                buf.extend_from_slice(&chunk[..line_bytes]);
            }
        }
        reader.consume(consumed);
        if done {
            return Ok(if oversized {
                LineOutcome::Oversized(total)
            } else {
                LineOutcome::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
    }
}

/// Renders a `status:"error"` response line.
fn render_error(id: &Json, reason: &str) -> String {
    Json::obj([
        ("id", id.clone()),
        ("status", Json::Str("error".to_string())),
        ("error", Json::Str(reason.to_string())),
    ])
    .render()
}

/// Renders a `status:"overloaded"` load-shed response with its retry hint.
fn render_overloaded(id: &Json, kind: &str, retry_after_ms: u64) -> String {
    Json::obj([
        ("id", id.clone()),
        ("status", Json::Str("overloaded".to_string())),
        ("kind", Json::Str(kind.to_string())),
        ("retry_after_ms", Json::Num(retry_after_ms as f64)),
        (
            "error",
            Json::Str("in-flight request budget exhausted; retry later".to_string()),
        ),
    ])
    .render()
}

/// Renders a `status:"timeout"` deadline-exceeded response.
fn render_timeout(id: &Json, kind: &str) -> String {
    Json::obj([
        ("id", id.clone()),
        ("status", Json::Str("timeout".to_string())),
        ("kind", Json::Str(kind.to_string())),
        (
            "error",
            Json::Str("request deadline exceeded; the simulation was cancelled".to_string()),
        ),
    ])
    .render()
}

/// Heavy kinds run simulations or spawn processes and are subject to
/// admission control; light kinds (cheap introspection and shutdown) always
/// pass so a saturated daemon stays observable and stoppable. Unknown kinds
/// count as heavy — extension hooks (e.g. the figure-suite runner) do real
/// work too.
fn is_heavy_kind(kind: &str) -> bool {
    !matches!(
        kind,
        "ping" | "cache-stats" | "cache-publish" | "metrics" | "shutdown"
    )
}

/// Best-effort panic payload message (panics carry `&str` or `String` in
/// practice).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// RAII admission slot: acquired before dispatching a heavy request,
/// released (and the `serve.in_flight` gauge updated) on drop — error paths
/// and panics included.
struct InFlightPermit<'a> {
    service: &'a Service,
}

impl<'a> InFlightPermit<'a> {
    /// Tries to take one admission slot. Returns `None` when the budget
    /// ([`ServeOptions::max_in_flight`] > 0) is exhausted.
    fn acquire(service: &'a Service) -> Option<Self> {
        let cap = service.options.max_in_flight;
        let admitted = service
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |current| {
                if cap > 0 && current >= cap {
                    None
                } else {
                    Some(current + 1)
                }
            })
            .is_ok();
        if !admitted {
            return None;
        }
        service
            .telemetry
            .gauge("serve.in_flight")
            .set(service.in_flight.load(Ordering::Relaxed) as u64);
        Some(InFlightPermit { service })
    }
}

impl Drop for InFlightPermit<'_> {
    fn drop(&mut self) {
        let now = self.service.in_flight.fetch_sub(1, Ordering::AcqRel) - 1;
        self.service
            .telemetry
            .gauge("serve.in_flight")
            .set(now as u64);
    }
}

/// Cumulative cache counters at one instant — one [`CacheStats`] per memo
/// layer, so deltas and serialization reuse the shared view instead of
/// hand-rolled per-field subtraction.
#[derive(Debug, Clone, Copy)]
struct CacheCounters {
    cells: CacheStats,
    schedules: CacheStats,
    cost_tables: CacheStats,
}

impl CacheCounters {
    fn delta(&self, before: &CacheCounters) -> CacheCounters {
        CacheCounters {
            cells: self.cells.delta(&before.cells),
            schedules: self.schedules.delta(&before.schedules),
            cost_tables: self.cost_tables.delta(&before.cost_tables),
        }
    }

    /// The response `cache` block: this request's deltas plus resident sizes.
    fn to_json(self, service: &Service) -> Json {
        Json::obj([
            ("cells", self.cells.to_json()),
            ("schedules", self.schedules.to_json()),
            ("cost_tables", self.cost_tables.to_json()),
            ("resident_cells", Json::Num(service.resident_cells() as f64)),
        ])
    }
}

/// One memoised cell result.
#[derive(Debug, Clone)]
enum CellValue {
    /// A collective-campaign cell.
    Campaign(RunResult),
    /// A stream-campaign cell.
    Stream(StreamRunResult),
    /// An extension-hook cell ([`Service::compute_cell`]).
    Ext(Json),
}

/// State of one cell slot: being computed by its first requester, or done.
#[derive(Debug)]
enum SlotState {
    /// The inserting request is computing; others wait on the condvar.
    InFlight,
    /// Finished (errors are memoised as display strings — deterministic
    /// failures fail identically on every repeat).
    Done(Result<CellValue, String>),
}

/// One single-flight slot.
#[derive(Debug)]
struct CellSlot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

/// Insertion-ordered slot map (FIFO eviction beyond the capacity).
#[derive(Debug, Default)]
struct SlotMap {
    map: HashMap<String, Arc<CellSlot>>,
    order: VecDeque<String>,
}

/// The single-flight result cache: identical cells across concurrent
/// in-flight requests are computed once; repeats are served without touching
/// the simulator.
#[derive(Debug)]
struct CellCache {
    slots: Mutex<SlotMap>,
    hits: AtomicU64,
    misses: AtomicU64,
    cap: usize,
}

impl CellCache {
    fn new(cap: usize) -> Self {
        CellCache {
            slots: Mutex::new(SlotMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            cap: cap.max(1),
        }
    }

    fn len(&self) -> usize {
        self.slots
            .lock()
            .expect("cell cache lock is never poisoned")
            .map
            .len()
    }

    fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Cumulative hit/miss counters as the unified [`CacheStats`] view.
    fn stats(&self) -> CacheStats {
        CacheStats::new(self.hits(), self.misses())
    }

    /// Returns the memoised value for `key`, or runs `compute` (outside every
    /// lock) and memoises the outcome. Concurrent callers with the same key
    /// wait for the first computation instead of re-running it; their lookups
    /// count as hits.
    fn get_or_compute(
        &self,
        key: String,
        compute: impl FnOnce() -> Result<CellValue, ThemisError>,
    ) -> Result<CellValue, ThemisError> {
        let (slot, owner) = {
            let mut slots = self
                .slots
                .lock()
                .expect("cell cache lock is never poisoned");
            match slots.map.get(&key) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(CellSlot {
                        state: Mutex::new(SlotState::InFlight),
                        ready: Condvar::new(),
                    });
                    slots.map.insert(key.clone(), Arc::clone(&slot));
                    slots.order.push_back(key);
                    // FIFO eviction: waiters hold their own Arc to an evicted
                    // slot, so dropping the map entry only forgets the memo.
                    while slots.order.len() > self.cap {
                        let oldest = slots.order.pop_front().expect("len > cap >= 1");
                        slots.map.remove(&oldest);
                    }
                    (slot, true)
                }
            }
        };
        if owner {
            self.misses.fetch_add(1, Ordering::Relaxed);
            // Even if `compute` unwinds, the slot must reach `Done` —
            // otherwise every concurrent waiter on this cell blocks forever
            // on a condvar nobody will ever signal.
            let mut completion = SlotCompletionGuard {
                slot: &slot,
                completed: false,
            };
            let result = compute();
            let memo = match &result {
                Ok(value) => Ok(value.clone()),
                Err(err) => Err(err.to_string()),
            };
            *slot.state.lock().expect("cell slot lock is never poisoned") = SlotState::Done(memo);
            completion.completed = true;
            slot.ready.notify_all();
            result
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
            let mut state = slot.state.lock().expect("cell slot lock is never poisoned");
            while matches!(*state, SlotState::InFlight) {
                state = slot
                    .ready
                    .wait(state)
                    .expect("cell slot lock is never poisoned");
            }
            match &*state {
                SlotState::Done(Ok(value)) => Ok(value.clone()),
                SlotState::Done(Err(reason)) => Err(ThemisError::Serve {
                    reason: reason.clone(),
                }),
                SlotState::InFlight => unreachable!("the wait loop exits only on Done"),
            }
        }
    }

    /// Drops the memo for `key` (waiters already holding the slot's `Arc`
    /// still observe its final state). Used for request-scoped failures —
    /// deadline timeouts — that must not poison the cell for later requests.
    fn forget(&self, key: &str) {
        let mut slots = self
            .slots
            .lock()
            .expect("cell cache lock is never poisoned");
        if slots.map.remove(key).is_some() {
            slots.order.retain(|entry| entry != key);
        }
    }
}

/// Backstop ensuring an owner that unwinds mid-computation still completes
/// its slot: waiters get a structured error instead of a hang.
struct SlotCompletionGuard<'a> {
    slot: &'a CellSlot,
    completed: bool,
}

impl Drop for SlotCompletionGuard<'_> {
    fn drop(&mut self) {
        if !self.completed {
            *self
                .slot
                .state
                .lock()
                .expect("cell slot lock is never poisoned") = SlotState::Done(Err(
                "cell computation panicked before completing".to_string(),
            ));
            self.slot.ready.notify_all();
        }
    }
}

/// Serializes campaign cells (the `cells` payload of `campaign` and the
/// `entries` payload of a campaign `sweep`) for a request line.
pub fn campaign_cells_to_json(specs: &[RunSpec]) -> Json {
    Json::Arr(
        specs
            .iter()
            .map(|spec| {
                Json::obj([
                    ("platform", platform_to_json(&spec.platform)),
                    ("job", job_to_json(&spec.job)),
                ])
            })
            .collect(),
    )
}

/// Serializes stream cells (the `cells` payload of `stream` and the
/// `entries` payload of a stream `sweep`) for a request line.
pub fn stream_cells_to_json(specs: &[StreamSpec]) -> Json {
    Json::Arr(
        specs
            .iter()
            .map(|spec| {
                Json::obj([
                    ("platform", platform_to_json(&spec.platform)),
                    ("stream", stream_job_to_json(&spec.job)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::job::Job;
    use crate::api::platform::Platform;
    use themis_core::SchedulerKind;
    use themis_net::presets::PresetTopology;

    fn specs() -> Vec<RunSpec> {
        let platform = Platform::preset(PresetTopology::Sw2d);
        SchedulerKind::all()
            .into_iter()
            .map(|kind| {
                RunSpec::new(
                    platform.clone(),
                    Job::all_reduce_mib(16.0).chunks(4).scheduler(kind),
                )
            })
            .collect()
    }

    fn campaign_request(id: usize, specs: &[RunSpec]) -> String {
        Json::obj([
            ("id", Json::Num(id as f64)),
            ("kind", Json::Str("campaign".to_string())),
            ("cells", campaign_cells_to_json(specs)),
        ])
        .render()
    }

    #[test]
    fn second_identical_request_is_served_from_the_cell_cache() {
        let service = Service::default();
        let specs = specs();
        let first = Json::parse(&service.handle_line(&campaign_request(1, &specs))).unwrap();
        let second = Json::parse(&service.handle_line(&campaign_request(2, &specs))).unwrap();
        assert_eq!(first.field("status").unwrap().as_str().unwrap(), "ok");
        // Bit-identical reports.
        assert_eq!(
            first.field("result").unwrap(),
            second.field("result").unwrap()
        );
        // The second request hit the resident cache on every cell.
        let cells = second.field("cache").unwrap().field("cells").unwrap();
        assert_eq!(
            cells.field("hits").unwrap().as_usize().unwrap(),
            specs.len()
        );
        assert_eq!(cells.field("misses").unwrap().as_usize().unwrap(), 0);
    }

    #[test]
    fn single_flight_cell_cache_deduplicates_and_evicts() {
        let cache = CellCache::new(2);
        let value = || {
            Ok(CellValue::Campaign(RunResult {
                config: crate::api::report::RunConfig {
                    topology: "t".to_string(),
                    scheduler: SchedulerKind::Baseline,
                    collective: themis_collectives::CollectiveKind::AllReduce,
                    size: themis_net::DataSize::from_mib(1.0),
                    chunks: 1,
                },
                report: themis_sim::SimReport {
                    scheduler_name: "s".to_string(),
                    topology_name: "t".to_string(),
                    total_time_ns: 0.0,
                    activity_window_ns: 1.0,
                    dims: Vec::new(),
                    op_log: Vec::new(),
                },
            }))
        };
        cache.get_or_compute("a".to_string(), value).unwrap();
        cache.get_or_compute("a".to_string(), value).unwrap();
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // Capacity 2: inserting c then d evicts the oldest keys.
        cache.get_or_compute("b".to_string(), value).unwrap();
        cache.get_or_compute("c".to_string(), value).unwrap();
        assert_eq!(cache.len(), 2);
        // Errors are memoised too.
        let err = cache.get_or_compute("boom".to_string(), || {
            Err(ThemisError::Serve {
                reason: "exploded".to_string(),
            })
        });
        assert!(err.is_err());
    }

    #[test]
    fn bounded_reader_handles_exact_caps_and_unterminated_tails() {
        let mut reader = std::io::Cursor::new(b"abcd\nefgh".to_vec());
        match read_bounded_line(&mut reader, 4).unwrap() {
            LineOutcome::Line(line) => assert_eq!(line, "abcd"),
            _ => panic!("a line exactly at the cap must pass"),
        }
        // The unterminated final line is still delivered at EOF.
        match read_bounded_line(&mut reader, 4).unwrap() {
            LineOutcome::Line(line) => assert_eq!(line, "efgh"),
            _ => panic!("unterminated tail must be delivered"),
        }
        assert!(matches!(
            read_bounded_line(&mut reader, 4).unwrap(),
            LineOutcome::Eof
        ));
    }

    #[test]
    fn oversized_request_lines_answer_a_structured_error_and_keep_serving() {
        let options = ServeOptions {
            max_line_bytes: 128,
            ..ServeOptions::default()
        };
        let service = Service::new(options);
        let long = format!(
            "{{\"id\":1,\"kind\":\"ping\",\"pad\":\"{}\"}}\n",
            "x".repeat(4096)
        );
        let input = format!("{long}{{\"id\":2,\"kind\":\"ping\"}}\n");
        let mut out = Vec::new();
        service
            .serve(std::io::Cursor::new(input.into_bytes()), &mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        let mut lines = text.lines();
        let first = Json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(first.field("status").unwrap().as_str().unwrap(), "error");
        let reason = first.field("error").unwrap().as_str().unwrap().to_string();
        assert!(reason.contains("too long"), "{reason}");
        // The oversized line was drained, so the next request still parses.
        let second = Json::parse(lines.next().unwrap()).unwrap();
        assert_eq!(second.field("status").unwrap().as_str().unwrap(), "ok");
        assert!(lines.next().is_none());
    }
}
