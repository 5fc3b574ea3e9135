//! The two simulated end-to-end metrics. Both are outputs of the model, not
//! host timings: deterministic for a seed, so a change that only speeds the
//! simulator up must leave them bit-identical. The paper's figures are
//! simulated too, and this model is not validated against hardware.
//!
//! Every workload prints both (each run reports every end-to-end metric),
//! computed by this one function from the seed: `allreduce_bw_gain` over the
//! campaign-sweep matrices, `iter_speedup` over the training iterations of
//! all four paper workloads on the six next-generation presets.

use crate::campaign;
use crate::common::{mean, Metric, Outcome};
use themis::prelude::*;

/// Paper Fig. 12 mean iteration speedups of Themis+SCF over Baseline.
const PAPER_ITER_SPEEDUP: [(Workload, f64); 4] = [
    (Workload::ResNet152, 1.49),
    (Workload::Gnmt, 1.30),
    (Workload::Dlrm, 1.30),
    (Workload::Transformer1T, 1.25),
];

/// Mean over matched (platform, size, chunks) cells of Themis+SCF ÷ Baseline
/// average bandwidth utilisation.
fn allreduce_bw_gain(results: &[RunResult]) -> Vec<f64> {
    results
        .iter()
        .filter(|r| r.config.scheduler == SchedulerKind::ThemisScf)
        .filter_map(|scf| {
            let c = &scf.config;
            let base = results.iter().find(|r| {
                r.config.scheduler == SchedulerKind::Baseline
                    && r.config.topology == c.topology
                    && r.config.size == c.size
                    && r.config.chunks == c.chunks
            })?;
            Some(scf.average_bw_utilization() / base.average_bw_utilization())
        })
        .collect()
}

/// Baseline ÷ Themis+SCF iteration time of `workload` on every
/// next-generation preset.
fn iter_speedups(workload: Workload) -> Result<Vec<f64>, String> {
    PresetTopology::next_generation()
        .into_iter()
        .map(|preset| {
            let platform = Platform::preset(preset);
            let job = TrainingJob::new(workload);
            let base = job.policy(CommunicationPolicy::Baseline).run_on(&platform);
            let scf = job.policy(CommunicationPolicy::ThemisScf).run_on(&platform);
            match (base, scf) {
                (Ok(base), Ok(scf)) => Ok(base.total_ns() / scf.total_ns()),
                (Err(err), _) | (_, Err(err)) => Err(format!("{}: {err}", workload.name())),
            }
        })
        .collect()
}

pub fn push(out: &mut Outcome, seed: u64) -> Result<(), String> {
    let mut gains = Vec::new();
    for specs in campaign::pool(seed) {
        gains.extend(allreduce_bw_gain(&crate::inprocess::execute(&specs)?));
    }
    out.push(
        Metric::new("allreduce_bw_gain", mean(&gains), "x", gains.len())
            .note("simulated; paper: 1.72x mean (Sec. 6.1)"),
    );
    let mut all = Vec::new();
    let mut notes = Vec::new();
    for (workload, paper) in PAPER_ITER_SPEEDUP {
        let speedups = iter_speedups(workload)?;
        notes.push(format!(
            "{} {:.2}x (paper {paper:.2}x)",
            workload.name(),
            mean(&speedups)
        ));
        all.extend(speedups);
    }
    out.push(
        Metric::new("iter_speedup", mean(&all), "x", all.len())
            .note(format!("simulated; {}", notes.join(", "))),
    );
    Ok(())
}
