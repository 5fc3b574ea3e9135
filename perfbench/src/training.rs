//! `training-stream`: training-iteration gradient streams, run in process.
//!
//! The inputs are the `StreamJob::from_training` streams of ResNet-152, GNMT
//! and DLRM (Transformer-1T's model-parallel strategy has no single-network
//! stream), each with its issue times scaled by a seeded factor in
//! [0.75, 1.25]: a faster or slower NPU against the same network, which
//! changes how much the queued collectives overlap. One request is one
//! `Runner::execute_streams` call over 54 cells: the three models on the six
//! next-generation presets under Baseline, Themis+FIFO and Themis+SCF.
//! Requests cycle through a pool of four such sets, each with its own
//! scales. No JSON is involved.

use crate::common::{median, ms, Metric, Outcome, Rng, Tracer};
use crate::inprocess::{Cell, Extras, InProcess};
use std::hint::black_box;
use std::time::Instant;
use themis::prelude::*;

const MODELS: [Workload; 3] = [Workload::ResNet152, Workload::Gnmt, Workload::Dlrm];

const POLICIES: [CommunicationPolicy; 3] = [
    CommunicationPolicy::Baseline,
    CommunicationPolicy::ThemisFifo,
    CommunicationPolicy::ThemisScf,
];

/// `model`'s stream under `policy`, with issue times scaled by `scale`.
fn stream(model: Workload, policy: CommunicationPolicy, scale: f64) -> Result<StreamJob, String> {
    let job = StreamJob::from_training(&TrainingJob::new(model).policy(policy))
        .map_err(|err| err.to_string())?;
    let entries: Vec<QueuedCollective> = job
        .entries()
        .iter()
        .map(|c| {
            QueuedCollective::new(c.label(), c.kind(), c.size()).issued_at(c.issue_ns() * scale)
        })
        .collect();
    Ok(StreamJob::named(job.name())
        .collectives(entries)
        .scheduler(job.scheduler_kind())
        .chunks(job.chunk_count()))
}

/// Distinct requests the timed phase cycles through.
const POOL: usize = 4;

/// The seeded request pool: each entry has one cell per (model, policy,
/// preset), every model with its own seeded issue-time scale. Each model's
/// scales are stratified (one from each quarter of [0.75, 1.25], in seeded
/// order), so every seed spans the range evenly and no seed's requests are
/// all cheap or all dear.
fn pool(seed: u64) -> Result<Vec<Vec<StreamSpec>>, String> {
    let mut rng = Rng::new(seed);
    let mut scales = vec![[0.0; MODELS.len()]; POOL];
    for m in 0..MODELS.len() {
        let mut strata: Vec<usize> = (0..POOL).collect();
        rng.shuffle(&mut strata);
        for (entry, stratum) in scales.iter_mut().zip(strata) {
            entry[m] = 0.75 + 0.5 * (stratum as f64 + rng.unit()) / POOL as f64;
        }
    }
    let mut pool = Vec::with_capacity(POOL);
    for entry in scales {
        let mut cells = Vec::new();
        for (model, scale) in MODELS.into_iter().zip(entry) {
            for policy in POLICIES {
                let job = stream(model, policy, scale)?;
                for preset in PresetTopology::next_generation() {
                    cells.push(StreamSpec::new(Platform::preset(preset), job.clone()));
                }
            }
        }
        pool.push(cells);
    }
    Ok(pool)
}

pub fn setup(seed: u64) -> Result<InProcess<StreamSpec, Iterations>, String> {
    InProcess::new(pool(seed)?, Iterations)
}

impl Cell for StreamSpec {
    const CALL: &'static str = "api.runner.execute_streams";
    const PLANNED: &'static str = "sim.stream.execute_planned";
    const EVENT_LOOP: (&'static str, &'static str) =
        ("stream.event_loop_ms", "sim.stream.event_loop_ns");
    const PER_CELL: (&'static str, &'static str, f64) = ("stream.ms_per_cell", "ms", 1.0);
    const NS_PER_OP: &'static str = "stream.ns_per_op";

    fn run(runner: &Runner, specs: &[Self]) -> Result<Vec<StreamRunResult>, ThemisError> {
        runner.execute_streams(specs)
    }

    fn on_reference_engine(&self) -> Self {
        let options = self.platform.options().with_reference_engine(true);
        StreamSpec::new(
            self.platform.clone().with_options(options),
            self.job.clone(),
        )
    }

    fn ops(output: &StreamRunResult) -> usize {
        output.report.dims.iter().map(|d| d.ops_executed).sum()
    }

    fn jobs(&self) -> Vec<(Job, &Platform)> {
        self.job
            .entries()
            .iter()
            .map(|entry| {
                let job = Job::new(entry.kind(), entry.size())
                    .chunks(self.job.chunk_count())
                    .scheduler(self.job.scheduler_kind());
                (job, &self.platform)
            })
            .collect()
    }
}

/// The `themis_workloads` layer beyond the streams: stream derivation and
/// the whole training iterations behind `iter_speedup`, all four paper
/// workloads on the six presets.
pub struct Iterations;

fn iteration_cells() -> impl Iterator<Item = (TrainingJob, Platform)> {
    Workload::all().into_iter().flat_map(|workload| {
        PresetTopology::next_generation()
            .into_iter()
            .flat_map(move |preset| {
                [
                    CommunicationPolicy::Baseline,
                    CommunicationPolicy::ThemisScf,
                ]
                .map(|policy| {
                    (
                        TrainingJob::new(workload).policy(policy),
                        Platform::preset(preset),
                    )
                })
            })
    })
}

impl Extras for Iterations {
    /// The iterations must match the reference engine bit for bit too.
    fn finish(&self, out: &mut Outcome) {
        for (job, platform) in iteration_cells() {
            let options = platform.options().with_reference_engine(true);
            let reference = platform.clone().with_options(options);
            let same = matches!(
                (job.run_on(&platform), job.run_on(&reference)),
                (Ok(fast), Ok(slow)) if fast == slow
            );
            out.record(same.then_some(()).ok_or_else(|| {
                format!(
                    "{} on {}: iteration differs on the reference engine",
                    job.workload().name(),
                    platform.name()
                )
            }));
        }
    }

    fn layers(&self, tracer: &mut Tracer, out: &mut Outcome) {
        let mut build_us = Vec::new();
        for (m, model) in MODELS.into_iter().enumerate() {
            for policy in POLICIES {
                let job = TrainingJob::new(model).policy(policy);
                let started = Instant::now();
                let built = tracer.span("api.stream_job.from_training", m as u64, |_| {
                    StreamJob::from_training(&job)
                });
                build_us.push(ms(started.elapsed()) * 1e3);
                out.record(built.map(|b| drop(black_box(b))).map_err(|e| e.to_string()));
            }
        }
        out.push(Metric::new(
            "workloads.stream_build_us",
            median(&build_us),
            "us",
            build_us.len(),
        ));
        let mut iteration_us = Vec::new();
        for (c, (job, platform)) in iteration_cells().enumerate() {
            let started = Instant::now();
            let iteration = tracer.span("api.training_job.run_on", c as u64, |_| {
                job.run_on(&platform)
            });
            iteration_us.push(ms(started.elapsed()) * 1e3);
            out.record(
                iteration
                    .map(|i| {
                        black_box(i);
                    })
                    .map_err(|e| e.to_string()),
            );
        }
        out.push(Metric::new(
            "workloads.iteration_us",
            median(&iteration_us),
            "us",
            iteration_us.len(),
        ));
    }
}
