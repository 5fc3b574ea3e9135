//! `campaign-sweep`: the paper's All-Reduce matrix, run in process.
//!
//! One request is one `Runner::execute` call over a 108-cell matrix: the six
//! next-generation presets x three seeded sizes (16-1024 MiB) x chunks
//! {16, 64} x three schedulers, with the `Campaign` default options (op log
//! on), as `themis-experiments` runs it. Requests cycle through a seeded
//! pool of matrices. No JSON is involved.

use crate::common::Rng;
use crate::inprocess::{Cell, Extras, InProcess};
use themis::prelude::*;

/// Distinct matrices the requests cycle through.
const POOL: usize = 8;

/// The seeded request pool: `POOL` expanded 108-cell matrices.
pub fn pool(seed: u64) -> Vec<Vec<RunSpec>> {
    let mut rng = Rng::new(seed);
    (0..POOL)
        .map(|_| {
            let sizes: Vec<f64> = (0..3).map(|_| rng.range(16, 1024) as f64).collect();
            Campaign::new()
                .topologies(PresetTopology::next_generation())
                .sizes_mib(sizes)
                .chunk_counts([16, 64])
                .expand()
                .expect("the benchmark matrix is valid")
        })
        .collect()
}

pub struct NoExtras;

impl Extras for NoExtras {}

pub fn setup(seed: u64) -> Result<InProcess<RunSpec, NoExtras>, String> {
    InProcess::new(pool(seed), NoExtras)
}

impl Cell for RunSpec {
    const CALL: &'static str = "api.runner.execute";
    const PLANNED: &'static str = "sim.pipeline.execute_planned";
    const EVENT_LOOP: (&'static str, &'static str) =
        ("pipeline.event_loop_ms", "sim.pipeline.event_loop_ns");
    const PER_CELL: (&'static str, &'static str, f64) = ("pipeline.us_per_cell", "us", 1e3);
    const NS_PER_OP: &'static str = "pipeline.ns_per_op";

    fn run(runner: &Runner, specs: &[Self]) -> Result<Vec<RunResult>, ThemisError> {
        runner.execute(specs)
    }

    fn on_reference_engine(&self) -> Self {
        let options = self.platform.options().with_reference_engine(true);
        RunSpec::new(self.platform.clone().with_options(options), self.job)
    }

    fn ops(output: &RunResult) -> usize {
        output.report.dims.iter().map(|d| d.ops_executed).sum()
    }

    fn jobs(&self) -> Vec<(Job, &Platform)> {
        vec![(self.job, &self.platform)]
    }
}
