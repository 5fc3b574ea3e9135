//! The machinery both in-process workloads share: a seeded pool of requests,
//! each one `Runner` call with a fresh sequential `Runner` (so a fresh plan
//! cache: every request reschedules and reprices its cost tables), checked
//! against the set-up's first pass and, outside every timed window, against
//! the retained reference engine.

use crate::common::{median, ms, peak_rss_mb, thread_cpu, Metric, Outcome, Sample, Tracer};
use crate::Workload;
use std::hint::black_box;
use std::time::Instant;
use themis::core::telemetry::{self, CacheStats, Snapshot};
use themis::prelude::*;

/// A campaign cell kind the in-process workloads run: pipeline cells
/// (`RunSpec`) or stream cells (`StreamSpec`).
pub trait Cell: CampaignCell<Output: PartialEq> + Sized {
    /// Span name of the timed call.
    const CALL: &'static str;
    /// Span name of one warm-plan `execute_planned` call.
    const PLANNED: &'static str;
    /// The engine's per-layer metrics: event-loop ms per request (and the
    /// registry histogram behind it), time per cell (name, unit, units per
    /// ms), and ns per simulated op.
    const EVENT_LOOP: (&'static str, &'static str);
    const PER_CELL: (&'static str, &'static str, f64);
    const NS_PER_OP: &'static str;

    /// The timed call: `Runner::execute` or `Runner::execute_streams`.
    fn run(runner: &Runner, specs: &[Self]) -> Result<Vec<Self::Output>, ThemisError>;

    /// The same cell on the retained reference engine.
    fn on_reference_engine(&self) -> Self;

    /// Simulated operations in one result.
    fn ops(output: &Self::Output) -> usize;

    /// The collectives this cell schedules, as jobs on its platform.
    fn jobs(&self) -> Vec<(Job, &Platform)>;
}

pub fn execute<C: Cell>(specs: &[C]) -> Result<Vec<C::Output>, String> {
    C::run(&Runner::sequential(), black_box(specs)).map_err(|err| err.to_string())
}

/// Extra checks and layer probes of one workload beyond what every
/// in-process workload does.
pub trait Extras {
    fn finish(&self, _out: &mut Outcome) {}
    fn layers(&self, _tracer: &mut Tracer, _out: &mut Outcome) {}
}

pub struct InProcess<C: Cell, E> {
    pool: Vec<Vec<C>>,
    /// The set-up's first pass; every timed result must equal it.
    expected: Vec<Vec<C::Output>>,
    /// Pool entry and check outcome of each timed request.
    checks: Vec<(usize, Result<(), String>)>,
    /// Global-registry change over each traced request.
    traced_diffs: Vec<Snapshot>,
    extras: E,
}

impl<C: Cell, E: Extras> InProcess<C, E> {
    /// Set-up: the cold first pass over every pool entry.
    pub fn new(pool: Vec<Vec<C>>, extras: E) -> Result<Self, String> {
        let expected = pool
            .iter()
            .map(|specs| execute(specs))
            .collect::<Result<_, _>>()?;
        Ok(InProcess {
            pool,
            expected,
            checks: Vec::new(),
            traced_diffs: Vec::new(),
            extras,
        })
    }
}

impl<C: Cell, E: Extras> Workload for InProcess<C, E> {
    fn cycle(&self) -> usize {
        self.pool.len()
    }

    fn request(&mut self, i: usize, tracer: &mut Tracer) -> Sample {
        let k = i % self.pool.len();
        let specs = &self.pool[k];
        let before = tracer.enabled().then(|| telemetry::global().snapshot());
        let (cpu0, wall0) = (thread_cpu(), Instant::now());
        let result = tracer.span(C::CALL, i as u64, |_| execute(specs));
        let sample = Sample {
            wall: wall0.elapsed(),
            cpu: thread_cpu() - cpu0,
            cells: specs.len() as u64,
        };
        if let Some(before) = before {
            self.traced_diffs
                .push(telemetry::global().snapshot().diff(&before));
        }
        let check = match result {
            Ok(got) if got == self.expected[k] => Ok(()),
            Ok(_) => Err(format!("request {i}: result differs from the first pass")),
            Err(err) => Err(format!("request {i}: {err}")),
        };
        self.checks.push((k, check));
        sample
    }

    fn peak_rss_mb(&mut self) -> f64 {
        peak_rss_mb("self").unwrap_or(0.0)
    }

    fn finish(&mut self, out: &mut Outcome) {
        let reference_ok: Vec<bool> = self
            .pool
            .iter()
            .zip(&self.expected)
            .map(|(specs, expected)| {
                let reference: Vec<C> = specs.iter().map(C::on_reference_engine).collect();
                execute(&reference).as_ref() == Ok(expected)
            })
            .collect();
        for (k, check) in self.checks.drain(..) {
            out.record(check.and_then(|()| {
                reference_ok[k]
                    .then_some(())
                    .ok_or_else(|| format!("pool entry {k}: fast and reference engines differ"))
            }));
        }
        self.extras.finish(out);
    }

    fn layers(&mut self, tracer: &mut Tracer, out: &mut Outcome) {
        let n = self.traced_diffs.len();
        for (metric, histogram) in [
            ("phase.schedule_ms", "phase.schedule_ns"),
            ("phase.cost_precompute_ms", "phase.cost_precompute_ns"),
            C::EVENT_LOOP,
        ] {
            let per_request: Vec<f64> = self
                .traced_diffs
                .iter()
                .map(|d| d.span_total_ns(histogram) as f64 / 1e6)
                .collect();
            out.push(Metric::new(metric, median(&per_request), "ms", n));
        }

        let mut jobs: Vec<(Job, &Platform)> = Vec::new();
        for (job, platform) in self.pool.iter().flatten().flat_map(C::jobs) {
            if !jobs
                .iter()
                .any(|(j, p)| *j == job && p.name() == platform.name())
            {
                jobs.push((job, platform));
            }
        }
        push_schedule_metric(out, tracer, &jobs);

        // Plan-cache reuse within one request, then the engine alone on the
        // warm plan.
        let (mut schedules, mut tables) = (CacheStats::default(), CacheStats::default());
        let (mut total_ops, mut total_ms, mut per_cell_ms) = (0usize, 0f64, Vec::new());
        for (k, specs) in self.pool.iter().enumerate() {
            let plan = SimPlanCache::new();
            let warm = tracer.span("api.runner.execute_with_cache", k as u64, |_| {
                Runner::sequential().execute_with_cache(specs, &plan)
            });
            out.record(if warm.as_ref().ok() == Some(&self.expected[k]) {
                Ok(())
            } else {
                Err(format!(
                    "pool entry {k}: planned run differs from the first pass"
                ))
            });
            let (s, t) = (plan.schedules().stats(), plan.cost_tables().stats());
            schedules = CacheStats::new(schedules.hits + s.hits, schedules.misses + s.misses);
            tables = CacheStats::new(tables.hits + t.hits, tables.misses + t.misses);
            let mut workspace = SimWorkspace::default();
            for (c, spec) in specs.iter().enumerate() {
                let started = Instant::now();
                let result = tracer.span(C::PLANNED, c as u64, |_| {
                    spec.execute_planned(&plan, &mut workspace)
                });
                let elapsed = ms(started.elapsed());
                if let Ok(result) = result {
                    total_ops += C::ops(&result);
                    total_ms += elapsed;
                    per_cell_ms.push(elapsed);
                }
            }
        }
        for (metric, stats) in [
            ("schedule.hit_ratio", schedules),
            ("cost_table.hit_ratio", tables),
        ] {
            out.push(Metric::new(
                metric,
                stats.hit_rate(),
                "ratio",
                stats.lookups() as usize,
            ));
        }
        let cells = per_cell_ms.len();
        let (name, unit, per_ms) = C::PER_CELL;
        out.push(Metric::new(
            name,
            median(&per_cell_ms) * per_ms,
            unit,
            cells,
        ));
        out.push(Metric::new(
            C::NS_PER_OP,
            total_ms * 1e6 / total_ops.max(1) as f64,
            "ns",
            total_ops,
        ));
        out.push(Metric::new(
            "sim.ops_per_cell",
            total_ops as f64 / cells.max(1) as f64,
            "count",
            cells,
        ));
        self.extras.layers(tracer, out);
    }
}

/// `schedule.us_per_cell`: `Job::schedule_on` once per distinct cell.
pub fn push_schedule_metric(out: &mut Outcome, tracer: &mut Tracer, jobs: &[(Job, &Platform)]) {
    let mut us = Vec::new();
    for (c, (job, platform)) in jobs.iter().enumerate() {
        let started = Instant::now();
        let scheduled = tracer.span("core.schedule_on", c as u64, |_| job.schedule_on(platform));
        let elapsed = started.elapsed();
        out.record(match scheduled {
            Ok(schedule) => {
                black_box(schedule);
                us.push(ms(elapsed) * 1e3);
                Ok(())
            }
            Err(err) => Err(format!("schedule_on: {err}")),
        });
    }
    out.push(Metric::new(
        "schedule.us_per_cell",
        median(&us),
        "us",
        us.len(),
    ));
}
