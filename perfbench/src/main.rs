//! `themis-perfbench`: the end-to-end and per-layer benchmark of the Themis
//! reproduction.
//!
//! ```text
//! bash perfbench/run.sh --workload <campaign-sweep|training-stream|serve-jsonl>
//!                       --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop: one caller sends a request, waits for
//! the whole reply, then sends the next. The inputs come from the seed only.
//! With `--trace 0` the run prints the end-to-end metrics; with `--trace 1`
//! it spends half its time untraced and half traced, records spans around
//! the calls into each layer, writes them out as JSON lines next to the
//! binary, and prints the per-layer metrics. Either way every output is
//! checked, and the last line of stdout is one JSON object:
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}`.
//! See `perfbench/README.md` for why each workload and metric exists.

mod campaign;
mod common;
mod gains;
mod inprocess;
mod serve;
mod training;

use common::{closed_loop, median, quantile, Metric, Outcome, Phase, Sample, SetupTimes, Tracer};
use std::process::ExitCode;
use std::time::Duration;

/// The seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Set-ups per run, before the timed phase (the last one's product is
/// measured) and after it (products dropped at once); `setup_s` is the
/// median of all of them, so one burst of interference at start-up does not
/// set it.
const SETUPS_BEFORE: usize = 5;
const SETUPS_AFTER: usize = 10;

/// Consecutive slices of a timed phase; each host metric is the median of
/// its per-slice values.
const SLICES: usize = 5;

/// Requests a timed phase (or slice) sends at least, so at least ten
/// samples lie beyond the 90th percentile.
const MIN_REQUESTS: usize = 100;

/// One benchmark workload: inputs made during set-up, a timed request, and
/// output checks and layer probes outside every timed window.
pub trait Workload {
    /// Requests per pass over the workload's input pool; a timed phase ends
    /// only after whole passes.
    fn cycle(&self) -> usize;

    /// Sends timed request `i` and waits for its reply. Checks of the reply
    /// happen outside the returned sample.
    fn request(&mut self, i: usize, tracer: &mut Tracer) -> Sample;

    /// On-CPU time child processes have spent so far (the daemon's).
    fn child_cpu(&self) -> Duration {
        Duration::ZERO
    }

    /// `VmHWM` of the process that did the work, MB.
    fn peak_rss_mb(&mut self) -> f64;

    /// Output checks left after the timed phase, and orderly shutdown: one
    /// `record` per timed request and per shutdown step.
    fn finish(&mut self, out: &mut Outcome);

    /// The per-layer metrics of the traced run (spans around calls into each
    /// layer, counters the program exposes).
    fn layers(&mut self, tracer: &mut Tracer, out: &mut Outcome);
}

/// Every per-layer metric and its unit. A workload that bypasses a layer
/// reports it as 0 with 0 samples.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("schedule.us_per_cell", "us"),
    ("schedule.hit_ratio", "ratio"),
    ("cost_table.hit_ratio", "ratio"),
    ("phase.schedule_ms", "ms"),
    ("phase.cost_precompute_ms", "ms"),
    ("pipeline.us_per_cell", "us"),
    ("pipeline.ns_per_op", "ns"),
    ("pipeline.event_loop_ms", "ms"),
    ("stream.ms_per_cell", "ms"),
    ("stream.ns_per_op", "ns"),
    ("stream.event_loop_ms", "ms"),
    ("sim.ops_per_cell", "count"),
    ("workloads.stream_build_us", "us"),
    ("workloads.iteration_us", "us"),
    ("json.parse_request_ms", "ms"),
    ("json.parse_mb_per_s", "MB/s"),
    ("json.render_ms", "ms"),
    ("json.parse_response_ms", "ms"),
    ("serve.handle_ms", "ms"),
    ("serve.daemon_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.cell_hit_ratio", "ratio"),
    ("serve.resident_cells", "count"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args
            .next()
            .ok_or_else(|| format!("`{flag}` expects a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "invalid --seed")?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| "invalid --seconds")?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds: f64 = seconds.unwrap_or(30.0);
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("themis-perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "campaign-sweep" => bench(&args, campaign::setup),
        "training-stream" => bench(&args, training::setup),
        "serve-jsonl" => bench(&args, serve::setup),
        other => Err(format!(
            "unknown workload `{other}` (expected campaign-sweep, training-stream or serve-jsonl)"
        )),
    };
    match outcome {
        Ok(outcome) => {
            outcome.print(&args.workload, args.seed, args.trace);
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("themis-perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload: set-up (repeated), the timed phase, checks, and the
/// metrics of the run's kind.
fn bench<W: Workload>(
    args: &Args,
    setup: impl Fn(u64) -> Result<W, String>,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    common::pin_to_current_cpu()?;
    let mut setups = SetupTimes::default();
    let mut set_up = || {
        let workload = setup(args.seed)?;
        let children = workload.child_cpu();
        Ok((workload, children))
    };
    let mut workload = setups.measure(SETUPS_BEFORE, &mut set_up)?;
    let cycle = workload.cycle();
    if !args.trace {
        let mut off = Tracer::new(false);
        let mut slices: Vec<Phase> = Vec::with_capacity(SLICES);
        for _ in 0..SLICES {
            let offset: usize = slices.iter().map(|s| s.cpu_ms.len()).sum();
            slices.push(closed_loop(
                args.seconds / SLICES as f64,
                cycle,
                MIN_REQUESTS,
                |i| workload.request(offset + i, &mut off),
            ));
        }
        let rss_mb = workload.peak_rss_mb();
        workload.finish(&mut out);
        // Each host metric is the median of its per-slice values, so a burst
        // of interference that covers one or two slices does not move it.
        let n: usize = slices.iter().map(|s| s.cpu_ms.len()).sum();
        let over_slices =
            |f: &dyn Fn(&Phase) -> f64| median(&slices.iter().map(f).collect::<Vec<_>>());
        let raw = |cpu: f64, wall: f64| format!("on-CPU {cpu:.4}, wall {wall:.4}");
        out.push(
            Metric::new(
                "cells_per_s",
                over_slices(&|s| s.cells_per_s(&s.host_ms())),
                "1/s",
                n,
            )
            .note(raw(
                over_slices(&|s| s.cells_per_s(&s.cpu_ms)),
                over_slices(&|s| s.cells_per_s(&s.wall_ms)),
            )),
        );
        for (name, q) in [("request_p50_ms", 0.5), ("request_p90_ms", 0.9)] {
            out.push(
                Metric::new(name, over_slices(&|s| quantile(&s.host_ms(), q)), "ms", n).note(raw(
                    over_slices(&|s| quantile(&s.cpu_ms, q)),
                    over_slices(&|s| quantile(&s.wall_ms, q)),
                )),
            );
        }
        drop(workload);
        drop(setups.measure(SETUPS_AFTER, &mut set_up)?);
        out.push(
            Metric::new("setup_s", median(&setups.host_s), "s", setups.host_s.len())
                .note(raw(median(&setups.cpu_s), median(&setups.wall_s))),
        );
        out.push(Metric::new("peak_rss_mb", rss_mb, "MB", 1));
        gains::push(&mut out, args.seed)?;
        return Ok(out);
    }

    // Traced run: half the time untraced, then half with spans on; the
    // difference between the two medians is the tracing overhead.
    let mut off = Tracer::new(false);
    let untraced = closed_loop(args.seconds / 2.0, cycle, MIN_REQUESTS, |i| {
        workload.request(i, &mut off)
    });
    let mut tracer = Tracer::new(true);
    let offset = untraced.cpu_ms.len();
    let traced = closed_loop(args.seconds / 2.0, cycle, MIN_REQUESTS, |i| {
        tracer.span("request", (offset + i) as u64, |t| {
            workload.request(offset + i, t)
        })
    });
    workload.layers(&mut tracer, &mut out);
    workload.finish(&mut out);
    let overhead = (median(&traced.host_ms()) / median(&untraced.host_ms()) - 1.0) * 100.0;
    out.push(Metric::new(
        "trace.overhead_pct",
        overhead,
        "%",
        traced.cpu_ms.len(),
    ));
    for &(name, unit) in LAYER_METRICS {
        if !out.metrics.iter().any(|m| m.name == name) {
            out.push(Metric::new(name, 0.0, unit, 0).note("layer not exercised by this workload"));
        }
    }
    out.metrics.sort_by_key(|m| {
        LAYER_METRICS
            .iter()
            .position(|&(name, _)| name == m.name)
            .unwrap_or(usize::MAX)
    });
    let path = std::env::current_exe()
        .map_err(|err| format!("cannot locate the benchmark binary: {err}"))?
        .with_file_name(format!(
            "perfbench-trace-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
    tracer
        .write_jsonl(&path)
        .map_err(|err| format!("cannot write {}: {err}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(out)
}
