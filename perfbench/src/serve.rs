//! `serve-jsonl`: a `themis-serve` daemon over stdin/stdout, one client,
//! one connection.
//!
//! Set-up spawns the daemon (the release binary next to this one) and warms
//! a seeded hot set: 256 campaign cells with the op log off, one op-log cell
//! per preset, and 8 stream jobs. The timed phase then sends requests in
//! blocks of ten, at seeded positions within each block:
//!
//! * 8 `campaign` requests of 12-36 cells, op log off: three quarters of the
//!   cells come from the hot set (cell-cache reads), a quarter are fresh
//!   (cell-cache writes, with simulation);
//! * 1 `campaign` request of one op-log cell from the hot set (a small
//!   request with a large render);
//! * 1 `stream` request: one hot stream job under the three schedulers, fresh.
//!
//! A fresh cell is a hot cell on a renamed platform: a structurally
//! identical cluster under a unique name. The cell cache keys on the name, so
//! the cell simulates again; the plan caches key on structure, so its
//! schedule and cost table are reused. Scheduling therefore happens in
//! set-up, and the daemon's plan caches stay the size of the hot set however
//! many requests a run sends.
//!
//! A request's window runs from the write of its line until the whole
//! response line has been read. Everything else happens outside it: the
//! response is checked byte for byte against the in-process
//! `CampaignReport::to_json()` / `StreamCampaignReport::to_json()` of the
//! same cells, and in the traced run the client also parses the response and
//! replays the request through an in-process `Service`.

use crate::common::{
    median, ms, peak_rss_mb, process_clock, process_cpu, thread_cpu, Metric, Outcome, Rng, Sample,
    Tracer,
};
use crate::inprocess::{push_schedule_metric, Cell};
use crate::Workload;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, ChildStdin, ChildStdout, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};
use themis::api::json::Json;
use themis::api::serve::{campaign_cells_to_json, stream_cells_to_json};
use themis::prelude::*;

const HOT_CELLS: usize = 256;
const HOT_STREAMS: usize = 8;
/// Cells per set-up warm-up request.
const WARM_BATCH: usize = 32;
/// Collectives in each hot stream job, shuffled over the jobs by the seed.
/// Every seed gets the same counts: the daemon's memory grows with their
/// sum, and drawn counts moved `peak_rss_mb` by 20% from seed to seed.
const STREAM_COLLECTIVES: [u64; HOT_STREAMS] = [4, 5, 5, 6, 6, 7, 7, 8];
/// Requests per block: 8 campaign, 1 op-log, 1 stream.
const BLOCK: usize = 10;

/// The seeded inputs: the hot set and the lines that warm it.
struct Inputs {
    seed: u64,
    hot: Vec<RunSpec>,
    hot_oplog: Vec<RunSpec>,
    /// One stream job per entry, with the platform it runs on; requests run
    /// it under all three schedulers.
    hot_streams: Vec<(StreamJob, Platform)>,
    warm_lines: Vec<String>,
}

/// A cell with a seeded size (16-1024 MiB, whole KiB) and scheduler.
fn random_cell(rng: &mut Rng, preset: PresetTopology, chunks: usize, op_log: bool) -> RunSpec {
    let platform = Platform::preset(preset);
    let options = platform.options().with_op_log(op_log);
    let size = DataSize::from_bytes(rng.range(16 * 1024, 1024 * 1024) * 1024);
    let scheduler = SchedulerKind::all()[rng.range(0, 2) as usize];
    RunSpec::new(
        platform.with_options(options),
        Job::all_reduce(size).chunks(chunks).scheduler(scheduler),
    )
}

fn stream_specs(job: &StreamJob, platform: &Platform) -> Vec<StreamSpec> {
    SchedulerKind::all()
        .into_iter()
        .map(|scheduler| StreamSpec::new(platform.clone(), job.clone().scheduler(scheduler)))
        .collect()
}

/// The same platform under a name no other request uses.
fn renamed(platform: &Platform, tag: &str) -> Platform {
    let topology = platform
        .topology()
        .renamed(format!("{}@{tag}", platform.name()));
    Platform::custom(topology).with_options(platform.options())
}

fn line(id: u64, kind: &str, cells: Json) -> String {
    let mut line = Json::obj([
        ("id", Json::Num(id as f64)),
        ("kind", Json::Str(kind.to_string())),
        ("cells", cells),
    ])
    .render();
    line.push('\n');
    line
}

impl Inputs {
    fn new(seed: u64) -> Self {
        let mut rng = Rng::new(seed);
        let presets = PresetTopology::next_generation();
        // Presets and chunk counts in equal shares, so the daemon's cached
        // results, and with them its memory, weigh the same for every seed.
        let hot: Vec<RunSpec> = (0..HOT_CELLS)
            .map(|i| {
                let chunks = [16, 64][i / presets.len() % 2];
                random_cell(&mut rng, presets[i % presets.len()], chunks, false)
            })
            .collect();
        // One op-log cell per preset, 64 chunks: the response sizes, and so
        // the render work and the daemon's peak memory, do not depend on the
        // seed.
        let hot_oplog: Vec<RunSpec> = presets
            .iter()
            .map(|&preset| random_cell(&mut rng, preset, 64, true))
            .collect();
        let mut counts = STREAM_COLLECTIVES;
        rng.shuffle(&mut counts);
        let hot_streams: Vec<(StreamJob, Platform)> = (0..HOT_STREAMS)
            .map(|s| {
                let collectives = (0..counts[s]).map(|c| {
                    QueuedCollective::all_reduce_mib(format!("grad{c}"), rng.range(16, 256) as f64)
                        .issued_at(c as f64 * rng.range(0, 200_000) as f64)
                });
                let job = StreamJob::named(format!("stream{s}"))
                    .collectives(collectives)
                    .chunks(16);
                (job, Platform::preset(presets[s % presets.len()]))
            })
            .collect();
        let mut warm_lines: Vec<String> = hot
            .chunks(WARM_BATCH)
            .chain([hot_oplog.as_slice()])
            .enumerate()
            .map(|(n, cells)| line(n as u64, "campaign", campaign_cells_to_json(cells)))
            .collect();
        for (job, platform) in &hot_streams {
            let id = warm_lines.len() as u64;
            warm_lines.push(line(
                id,
                "stream",
                stream_cells_to_json(&stream_specs(job, platform)),
            ));
        }
        Inputs {
            seed,
            hot,
            hot_oplog,
            hot_streams,
            warm_lines,
        }
    }

    /// Timed request `i`, fully determined by the seed and `i`.
    fn request(&self, i: usize) -> Request {
        let block = (i / BLOCK) as u64;
        let mut layout = Rng::new(self.seed ^ block.wrapping_mul(0xA24B_AED4_963E_E407));
        let oplog_at = layout.range(0, BLOCK as u64 - 1) as usize;
        let stream_at = (oplog_at + 1 + layout.range(0, BLOCK as u64 - 2) as usize) % BLOCK;
        let mut rng = Rng::new(self.seed ^ (i as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03));
        let id = 1_000 + i as u64;
        let pick = |rng: &mut Rng, n: usize| rng.range(0, n as u64 - 1) as usize;
        if i % BLOCK == oplog_at {
            let cells = vec![self.hot_oplog[pick(&mut rng, self.hot_oplog.len())].clone()];
            Request::campaign(id, cells)
        } else if i % BLOCK == stream_at {
            let (job, platform) = &self.hot_streams[pick(&mut rng, HOT_STREAMS)];
            Request::stream(id, stream_specs(job, &renamed(platform, &format!("r{i}"))))
        } else {
            let n = rng.range(12, 36) as usize;
            let fresh = n / 4;
            let mut cells: Vec<RunSpec> = (0..n)
                .map(|c| {
                    let hot = &self.hot[pick(&mut rng, HOT_CELLS)];
                    if c < fresh {
                        RunSpec::new(renamed(&hot.platform, &format!("r{i}c{c}")), hot.job)
                    } else {
                        hot.clone()
                    }
                })
                .collect();
            rng.shuffle(&mut cells);
            Request::campaign(id, cells)
        }
    }
}

enum Cells {
    Campaign(Vec<RunSpec>),
    Stream(Vec<StreamSpec>),
}

struct Request {
    id: u64,
    cells: Cells,
    line: String,
}

impl Request {
    fn campaign(id: u64, cells: Vec<RunSpec>) -> Self {
        let line = line(id, "campaign", campaign_cells_to_json(&cells));
        Request {
            id,
            cells: Cells::Campaign(cells),
            line,
        }
    }

    fn stream(id: u64, cells: Vec<StreamSpec>) -> Self {
        let line = line(id, "stream", stream_cells_to_json(&cells));
        Request {
            id,
            cells: Cells::Stream(cells),
            line,
        }
    }

    fn kind(&self) -> &'static str {
        match self.cells {
            Cells::Campaign(_) => "campaign",
            Cells::Stream(_) => "stream",
        }
    }

    fn len(&self) -> usize {
        match &self.cells {
            Cells::Campaign(cells) => cells.len(),
            Cells::Stream(cells) => cells.len(),
        }
    }

    /// The in-process result of the same cells, rendered, with the number of
    /// simulated operations behind it.
    fn expected(&self, tracer: &mut Tracer, id: u64) -> Result<(String, usize), String> {
        let err = |e: ThemisError| e.to_string();
        match &self.cells {
            Cells::Campaign(cells) => {
                let results = Runner::sequential().execute(cells).map_err(err)?;
                let ops = results.iter().map(RunSpec::ops).sum();
                let report = CampaignReport::new(results);
                Ok((
                    tracer.span("api.report.to_json", id, |_| report.to_json()),
                    ops,
                ))
            }
            Cells::Stream(cells) => {
                let results = Runner::sequential().execute_streams(cells).map_err(err)?;
                let ops = results.iter().map(StreamSpec::ops).sum();
                let report = StreamCampaignReport::new(results);
                Ok((
                    tracer.span("api.report.to_json", id, |_| report.to_json()),
                    ops,
                ))
            }
        }
    }
}

/// A `themis-serve` child speaking JSONL over its stdin/stdout, its stderr
/// captured to a file.
struct Daemon {
    child: Child,
    /// The daemon's CPU-time clock.
    clock: i32,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    stderr: PathBuf,
    buffer: String,
}

impl Daemon {
    fn spawn() -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("cannot locate the binary: {e}"))?;
        let bin = exe.with_file_name("themis-serve");
        let stderr = exe.with_file_name(format!("perfbench-serve-{}.stderr", std::process::id()));
        let file = std::fs::File::create(&stderr)
            .map_err(|e| format!("cannot create {}: {e}", stderr.display()))?;
        let mut child = Command::new(&bin)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(file)
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let clock = process_clock(child.id())?;
        Ok(Daemon {
            child,
            clock,
            stdin,
            stdout,
            stderr,
            buffer: String::new(),
        })
    }

    /// Writes one request line and reads the whole response line into
    /// `self.buffer` (newline stripped).
    fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("the daemon's stdin is closed")?;
        stdin
            .write_all(line.as_bytes())
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("write failed: {e}"))?;
        self.buffer.clear();
        match self.stdout.read_line(&mut self.buffer) {
            Ok(0) => Err("the daemon closed its stdout".to_string()),
            Ok(_) => {
                if self.buffer.ends_with('\n') {
                    self.buffer.pop();
                }
                Ok(())
            }
            Err(e) => Err(format!("read failed: {e}")),
        }
    }

    /// Sends a request that must answer `ok`, without parsing the response.
    fn call_ok(&mut self, line: &str) -> Result<(), String> {
        self.send(line)?;
        let (head, _) = self.buffer.split_once(",\"kind\":").unwrap_or_default();
        if head.ends_with(",\"status\":\"ok\"") {
            Ok(())
        } else {
            Err(format!("request failed: {}", truncated(&self.buffer)))
        }
    }

    /// Sends a request that must answer `ok`, returning the parsed response.
    fn call(&mut self, line: &str) -> Result<Json, String> {
        self.call_ok(line)?;
        Json::parse(&self.buffer).map_err(|e| format!("bad response: {e}"))
    }

    /// Closes stdin and waits up to ten seconds for the exit, then kills.
    fn close(&mut self) -> Result<ExitStatus, String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("the daemon did not exit within 10 s".to_string());
                }
                Err(e) => return Err(format!("wait failed: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.close();
        let _ = std::fs::remove_file(&self.stderr);
    }
}

fn truncated(text: &str) -> &str {
    let end = text
        .char_indices()
        .nth(200)
        .map_or(text.len(), |(at, _)| at);
    &text[..end]
}

/// Checks one response against the expected rendered result: id, status
/// `ok`, kind, and a `result` byte-equal to `expected`. Returns the
/// response's `cache` block.
fn check_response<'a>(
    response: &'a str,
    request: &Request,
    expected: &str,
) -> Result<&'a str, String> {
    let prefix = format!(
        "{{\"id\":{},\"status\":\"ok\",\"kind\":\"{}\",\"result\":",
        request.id,
        request.kind()
    );
    let body = response
        .strip_prefix(&prefix)
        .ok_or_else(|| format!("request {}: {}", request.id, truncated(response)))?;
    let cache_at = body
        .rfind(",\"cache\":")
        .ok_or_else(|| format!("request {}: response without a cache block", request.id))?;
    if &body[..cache_at] != expected {
        return Err(format!(
            "request {}: result differs from the in-process report",
            request.id
        ));
    }
    body[cache_at + ",\"cache\":".len()..]
        .strip_suffix('}')
        .ok_or_else(|| format!("request {}: unterminated response", request.id))
}

/// Per-layer samples of the traced phase.
#[derive(Default)]
struct Layers {
    replay: Option<Service>,
    before: Option<(Json, Json)>,
    handle_ms: Vec<f64>,
    parse_request_ms: Vec<f64>,
    request_bytes: usize,
    parse_response_ms: Vec<f64>,
    e2e_ms: Vec<f64>,
    cell_hits: u64,
    cell_lookups: u64,
    ops: usize,
    cells: usize,
}

pub struct ServeJsonl {
    inputs: Inputs,
    daemon: Daemon,
    checks: Vec<Result<(), String>>,
    layers: Layers,
}

pub fn setup(seed: u64) -> Result<ServeJsonl, String> {
    let inputs = Inputs::new(seed);
    let mut daemon = Daemon::spawn()?;
    daemon.call_ok("{\"id\":0,\"kind\":\"ping\"}\n")?;
    for line in &inputs.warm_lines {
        daemon.call_ok(line)?;
    }
    Ok(ServeJsonl {
        inputs,
        daemon,
        checks: Vec::new(),
        layers: Layers::default(),
    })
}

/// `metrics` and `cache-stats` results of the daemon.
fn daemon_counters(daemon: &mut Daemon) -> Result<(Json, Json), String> {
    let metrics = daemon.call("{\"id\":1,\"kind\":\"metrics\"}\n")?;
    let stats = daemon.call("{\"id\":2,\"kind\":\"cache-stats\"}\n")?;
    let result = |r: Json| r.get("result").cloned().ok_or("response without result");
    Ok((result(metrics)?, result(stats)?))
}

fn field(value: &Json, path: &[&str]) -> f64 {
    path.iter()
        .try_fold(value, |v, key| v.get(key))
        .and_then(|v| v.as_f64().ok())
        .unwrap_or(0.0)
}

impl ServeJsonl {
    /// Outside the window: the in-process result, the byte check, and in
    /// the traced run the client-side parse and the in-process replay.
    fn check(&mut self, request: &Request, tracer: &mut Tracer) -> Result<(), String> {
        let id = request.id;
        let (expected, ops) = request.expected(tracer, id)?;
        let cache = check_response(&self.daemon.buffer, request, &expected)?;
        if !tracer.enabled() {
            return Ok(());
        }
        let layers = &mut self.layers;
        let cache =
            Json::parse(cache).map_err(|e| format!("request {id}: bad cache block: {e}"))?;
        let (hits, misses) = (
            field(&cache, &["cells", "hits"]),
            field(&cache, &["cells", "misses"]),
        );
        layers.cell_hits += hits as u64;
        layers.cell_lookups += (hits + misses) as u64;
        layers.ops += ops;
        layers.cells += request.len();
        let response = &self.daemon.buffer;
        let started = Instant::now();
        let parsed = tracer.span("core.json.parse_response", id, |_| Json::parse(response));
        layers.parse_response_ms.push(ms(started.elapsed()));
        parsed.map_err(|e| format!("request {id}: response does not parse: {e}"))?;
        let body = request.line.trim_end();
        let started = Instant::now();
        let parsed = tracer.span("core.json.parse_request", id, |_| Json::parse(body));
        layers.parse_request_ms.push(ms(started.elapsed()));
        layers.request_bytes += body.len();
        parsed.map_err(|e| format!("request {id}: request does not parse: {e}"))?;
        let replay = layers
            .replay
            .as_ref()
            .expect("the replay service starts with the traced phase");
        let started = Instant::now();
        let answer = tracer.span("api.serve.handle_line", id, |_| replay.handle_line(body));
        layers.handle_ms.push(ms(started.elapsed()));
        if !answer.contains("\"status\":\"ok\"") {
            return Err(format!(
                "request {id}: in-process replay failed: {}",
                truncated(&answer)
            ));
        }
        Ok(())
    }

    /// At the first traced request: the daemon's counters before the traced
    /// phase, and an in-process service warmed like the daemon.
    fn start_traced_phase(&mut self) -> Result<(), String> {
        let replay = Service::new(ServeOptions::default());
        for line in &self.inputs.warm_lines {
            let answer = replay.handle_line(line.trim_end());
            if !answer.contains("\"status\":\"ok\"") {
                return Err(format!("in-process warm-up failed: {}", truncated(&answer)));
            }
        }
        self.layers.replay = Some(replay);
        self.layers.before = Some(daemon_counters(&mut self.daemon)?);
        Ok(())
    }
}

impl Workload for ServeJsonl {
    fn cycle(&self) -> usize {
        BLOCK
    }

    fn request(&mut self, i: usize, tracer: &mut Tracer) -> Sample {
        if tracer.enabled() && self.layers.replay.is_none() {
            if let Err(problem) = self.start_traced_phase() {
                self.checks.push(Err(problem));
            }
        }
        let request = self.inputs.request(i);
        let clock = self.daemon.clock;
        let (cpu0, daemon0, wall0) = (thread_cpu(), process_cpu(clock), Instant::now());
        let sent = tracer.span("serve.stdio.round_trip", request.id, |_| {
            self.daemon.send(&request.line)
        });
        let wall = wall0.elapsed();
        let sample = Sample {
            wall,
            cpu: thread_cpu() - cpu0 + process_cpu(clock) - daemon0,
            cells: request.len() as u64,
        };
        if tracer.enabled() {
            self.layers.e2e_ms.push(ms(wall));
        }
        let check = sent.and_then(|()| self.check(&request, tracer));
        self.checks.push(check);
        sample
    }

    fn child_cpu(&self) -> Duration {
        process_cpu(self.daemon.clock)
    }

    fn peak_rss_mb(&mut self) -> f64 {
        peak_rss_mb(&self.daemon.child.id().to_string()).unwrap_or(0.0)
    }

    /// Records every request's check, then shuts the daemon down: the
    /// `shutdown` request must answer `ok`, the process must exit 0, and its
    /// stderr must not report a panic.
    fn finish(&mut self, out: &mut Outcome) {
        for check in self.checks.drain(..) {
            out.record(check);
        }
        out.record(self.daemon.call_ok("{\"id\":3,\"kind\":\"shutdown\"}\n"));
        out.record(match self.daemon.close() {
            Ok(status) if status.success() => Ok(()),
            Ok(status) => Err(format!("the daemon exited with {status}")),
            Err(problem) => Err(problem),
        });
        let stderr = std::fs::read_to_string(&self.daemon.stderr).unwrap_or_default();
        out.record(if stderr.contains("panicked") {
            Err(format!("the daemon panicked: {}", truncated(&stderr)))
        } else {
            Ok(())
        });
    }

    fn layers(&mut self, tracer: &mut Tracer, out: &mut Outcome) {
        let after = daemon_counters(&mut self.daemon);
        let ping = self.daemon.call("{\"id\":4,\"kind\":\"ping\"}\n");
        let layers = &self.layers;
        out.push(Metric::new(
            "json.parse_request_ms",
            median(&layers.parse_request_ms),
            "ms",
            layers.parse_request_ms.len(),
        ));
        let parse_s = layers.parse_request_ms.iter().sum::<f64>() / 1e3;
        out.push(Metric::new(
            "json.parse_mb_per_s",
            layers.request_bytes as f64 / 1e6 / parse_s,
            "MB/s",
            layers.parse_request_ms.len(),
        ));
        let render = tracer.durations_ms("api.report.to_json");
        out.push(Metric::new(
            "json.render_ms",
            median(&render),
            "ms",
            render.len(),
        ));
        out.push(Metric::new(
            "json.parse_response_ms",
            median(&layers.parse_response_ms),
            "ms",
            layers.parse_response_ms.len(),
        ));
        let handle = median(&layers.handle_ms);
        out.push(Metric::new(
            "serve.handle_ms",
            handle,
            "ms",
            layers.handle_ms.len(),
        ));
        let transport: Vec<f64> = layers
            .e2e_ms
            .iter()
            .zip(&layers.handle_ms)
            .map(|(e2e, handle)| e2e - handle)
            .collect();
        out.push(
            Metric::new(
                "serve.transport_ms",
                median(&transport),
                "ms",
                transport.len(),
            )
            .note("paired e2e - handle"),
        );
        out.push(Metric::new(
            "serve.cell_hit_ratio",
            layers.cell_hits as f64 / layers.cell_lookups.max(1) as f64,
            "ratio",
            layers.cell_lookups as usize,
        ));
        out.push(Metric::new(
            "sim.ops_per_cell",
            layers.ops as f64 / layers.cells.max(1) as f64,
            "count",
            layers.cells,
        ));
        match ping {
            Ok(ping) => out.push(Metric::new(
                "serve.resident_cells",
                field(&ping, &["result", "resident", "cells"]),
                "count",
                1,
            )),
            Err(problem) => out.record(Err(problem)),
        }
        match (layers.before.as_ref(), after) {
            (Some((m0, s0)), Ok((m1, s1))) => {
                // Means per request from the daemon's own histograms.
                let diff = |name: &str, part: &str| {
                    let path = ["snapshot", "histograms", name, part];
                    field(&m1, &path) - field(m0, &path)
                };
                let handled = diff("serve.latency_ns.campaign", "count")
                    + diff("serve.latency_ns.stream", "count");
                let per_request_ms = |names: &[&str]| {
                    names.iter().map(|n| diff(n, "sum")).sum::<f64>() / 1e6 / handled.max(1.0)
                };
                let n = handled as usize;
                for (metric, histograms) in [
                    (
                        "serve.daemon_ms",
                        &["serve.latency_ns.campaign", "serve.latency_ns.stream"][..],
                    ),
                    ("phase.schedule_ms", &["phase.schedule_ns"]),
                    ("phase.cost_precompute_ms", &["phase.cost_precompute_ns"]),
                    ("pipeline.event_loop_ms", &["sim.pipeline.event_loop_ns"]),
                    ("stream.event_loop_ms", &["sim.stream.event_loop_ns"]),
                ] {
                    let value = per_request_ms(histograms);
                    out.push(Metric::new(metric, value, "ms", n).note("daemon, mean per request"));
                }
                for (metric, pool) in [
                    ("schedule.hit_ratio", "schedules"),
                    ("cost_table.hit_ratio", "cost_tables"),
                ] {
                    let hits = field(&s1, &[pool, "hits"]) - field(s0, &[pool, "hits"]);
                    let misses = field(&s1, &[pool, "misses"]) - field(s0, &[pool, "misses"]);
                    out.push(
                        Metric::new(
                            metric,
                            hits / (hits + misses).max(1.0),
                            "ratio",
                            (hits + misses) as usize,
                        )
                        .note("daemon, over the traced half"),
                    );
                }
            }
            (_, Err(problem)) => out.record(Err(problem)),
            (None, Ok(_)) => {
                out.record(Err("no counters from before the traced phase".to_string()))
            }
        }
        let jobs: Vec<(Job, &Platform)> = self
            .inputs
            .hot
            .iter()
            .map(|s| (s.job, &s.platform))
            .collect();
        push_schedule_metric(out, tracer, &jobs);
    }
}
