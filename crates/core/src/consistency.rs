//! Chunk schedule consistency (Sec. 4.6).
//!
//! All NPUs must execute the same order of chunk operations on every
//! dimension, otherwise runtime variation can deadlock the collective
//! (Sec. 4.6.2). Inter-dimension consistency follows from the scheduler being
//! a pure function of offline parameters; intra-dimension consistency is
//! obtained by running a fast, deterministic simulation of the schedule that
//! estimates the order in which chunk operations become available on every
//! dimension. That order is then *enforced* at runtime: even if a chunk op
//! becomes ready early on some NPU, it is not executed before its turn.
//!
//! This module implements that deterministic pre-simulation. Because it is a
//! pure function of the schedule and the latency model, every NPU computes an
//! identical [`EnforcedOrder`].

use crate::error::ScheduleError;
use crate::intra_dim::IntraDimPolicy;
use crate::latency_model::LatencyModel;
use crate::schedule::CollectiveSchedule;
use themis_net::NetworkTopology;

/// The enforced intra-dimension execution order: for every dimension, the
/// ordered list of `(chunk_index, stage_index)` operations it must execute.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EnforcedOrder {
    per_dim: Vec<Vec<(usize, usize)>>,
}

impl EnforcedOrder {
    /// The ordered `(chunk_index, stage_index)` list for `dim`.
    pub fn for_dim(&self, dim: usize) -> &[(usize, usize)] {
        self.per_dim.get(dim).map_or(&[], Vec::as_slice)
    }

    /// Number of dimensions covered by the order.
    pub fn num_dims(&self) -> usize {
        self.per_dim.len()
    }

    /// Total number of chunk operations across all dimensions.
    pub fn total_ops(&self) -> usize {
        self.per_dim.iter().map(Vec::len).sum()
    }
}

#[derive(Debug, Clone, Copy)]
struct ReadyOp {
    arrival: u64,
    chunk: usize,
    stage: usize,
    /// Full runtime (fixed delay + transfer), ns.
    full_runtime_ns: f64,
    /// Transfer-only runtime, ns.
    transfer_ns: f64,
}

#[derive(Debug, Clone, Copy)]
struct ActiveOp {
    finish_ns: f64,
    chunk: usize,
    stage: usize,
}

/// Runs the deterministic pre-simulation of Sec. 4.6.2 and returns the
/// enforced per-dimension execution order for `schedule` on `topo`.
///
/// The pre-simulation executes one chunk operation at a time per dimension
/// using the same [`LatencyModel`] the scheduler used, and resolves ready-queue
/// choices with the schedule's intra-dimension policy. Ties are broken
/// deterministically (by completion time, then dimension, then chunk index),
/// so every replica of this computation yields the same order.
///
/// # Errors
///
/// Returns an error if the schedule references out-of-range dimensions or has
/// invalid chunk sizes.
pub fn enforced_intra_dim_order(
    schedule: &CollectiveSchedule,
    topo: &NetworkTopology,
) -> Result<EnforcedOrder, ScheduleError> {
    let model = LatencyModel::new(topo);
    let policy: IntraDimPolicy = schedule.intra_dim_policy();
    let num_dims = topo.num_dims();
    let chunks = schedule.chunks();

    // Pre-compute per-chunk, per-stage `(full runtime, transfer-only)` costs.
    // The full runtime (including the fixed delay) is paid when a dimension
    // restarts after being idle; back-to-back ops only pay their transfer
    // term, mirroring the pipeline simulator so that the enforced order
    // matches the order the simulator would naturally pick.
    let mut stage_runtimes: Vec<Vec<(f64, f64)>> = Vec::with_capacity(chunks.len());
    for chunk in chunks {
        let entries = chunk.stage_entry_bytes(topo);
        let mut runtimes = Vec::with_capacity(chunk.stages.len());
        for (stage, entry) in chunk.stages.iter().zip(entries) {
            let full = model.chunk_runtime_ns(stage.dim, stage.op, entry)?;
            let transfer = model.chunk_load_ns(stage.dim, stage.op, entry)?;
            runtimes.push((full, transfer));
        }
        stage_runtimes.push(runtimes);
    }

    let mut ready: Vec<Vec<ReadyOp>> = vec![Vec::new(); num_dims];
    let mut active: Vec<Option<ActiveOp>> = vec![None; num_dims];
    let mut order: Vec<Vec<(usize, usize)>> = vec![Vec::new(); num_dims];
    let mut last_busy_end = vec![f64::NEG_INFINITY; num_dims];
    let mut arrival_counter: u64 = 0;
    let mut now = 0.0f64;

    // Seed: every chunk's first stage is ready at time zero, in chunk order.
    for (chunk_idx, chunk) in chunks.iter().enumerate() {
        if let Some(first) = chunk.stages.first() {
            let (full, transfer) = stage_runtimes[chunk_idx][0];
            ready[first.dim].push(ReadyOp {
                arrival: arrival_counter,
                chunk: chunk_idx,
                stage: 0,
                full_runtime_ns: full,
                transfer_ns: transfer,
            });
            arrival_counter += 1;
        }
    }

    loop {
        // Start ops on idle dimensions.
        for dim in 0..num_dims {
            if active[dim].is_some() || ready[dim].is_empty() {
                continue;
            }
            let keys: Vec<(u64, f64)> = ready[dim]
                .iter()
                .map(|op| (op.arrival, op.transfer_ns))
                .collect();
            let picked = policy.pick(&keys).expect("ready queue is non-empty");
            let op = ready[dim].remove(picked);
            let resuming_after_idle = now > last_busy_end[dim] + 1e-6;
            let runtime = if resuming_after_idle {
                op.full_runtime_ns
            } else {
                op.transfer_ns
            };
            active[dim] = Some(ActiveOp {
                finish_ns: now + runtime,
                chunk: op.chunk,
                stage: op.stage,
            });
            order[dim].push((op.chunk, op.stage));
        }

        // Find the earliest completion.
        let next_finish = active
            .iter()
            .enumerate()
            .filter_map(|(dim, op)| op.map(|o| (o.finish_ns, dim)))
            .min_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.1.cmp(&b.1))
            });
        let Some((finish_ns, _)) = next_finish else {
            break; // Nothing active: all done (ready queues are drained eagerly).
        };
        now = finish_ns;

        // Complete every op finishing at `now`, in (dim) order for determinism.
        let mut completed: Vec<(usize, ActiveOp)> = Vec::new();
        for (dim, slot) in active.iter_mut().enumerate() {
            if let Some(op) = *slot {
                if op.finish_ns <= now + 1e-9 {
                    completed.push((dim, op));
                    *slot = None;
                }
            }
        }
        completed.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.chunk.cmp(&b.1.chunk)));
        for (dim, op) in completed {
            last_busy_end[dim] = now;
            let next_stage = op.stage + 1;
            if next_stage < chunks[op.chunk].stages.len() {
                let target_dim = chunks[op.chunk].stages[next_stage].dim;
                let (full, transfer) = stage_runtimes[op.chunk][next_stage];
                ready[target_dim].push(ReadyOp {
                    arrival: arrival_counter,
                    chunk: op.chunk,
                    stage: next_stage,
                    full_runtime_ns: full,
                    transfer_ns: transfer,
                });
                arrival_counter += 1;
            }
        }
    }

    Ok(EnforcedOrder { per_dim: order })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::CollectiveRequest;
    use crate::scheduler::CollectiveScheduler;
    use crate::{BaselineScheduler, ThemisScheduler};
    use themis_net::presets::PresetTopology;
    use themis_net::{DimensionSpec, NetworkTopology, TopologyKind};

    fn fig5_topology() -> NetworkTopology {
        NetworkTopology::builder("fig5-4x4")
            .dimension(
                DimensionSpec::with_aggregate_bandwidth(TopologyKind::Switch, 4, 800.0, 0.0)
                    .unwrap(),
            )
            .dimension(
                DimensionSpec::with_aggregate_bandwidth(TopologyKind::Switch, 4, 400.0, 0.0)
                    .unwrap(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn covers_every_chunk_stage_exactly_once() {
        let topo = fig5_topology();
        let request = CollectiveRequest::all_reduce_mib(256.0);
        let schedule = ThemisScheduler::new(8).schedule(&request, &topo).unwrap();
        let order = enforced_intra_dim_order(&schedule, &topo).unwrap();
        assert_eq!(order.num_dims(), 2);
        // 8 chunks × 4 stages = 32 ops in total.
        assert_eq!(order.total_ops(), 32);
        // Every (chunk, stage) pair appears exactly once across dimensions.
        let mut seen = std::collections::HashSet::new();
        for dim in 0..order.num_dims() {
            for &(chunk, stage) in order.for_dim(dim) {
                assert!(
                    seen.insert((chunk, stage)),
                    "duplicate op ({chunk}, {stage})"
                );
                // The op's dimension matches where the schedule placed it.
                assert_eq!(schedule.chunks()[chunk].stages[stage].dim, dim);
            }
        }
        assert_eq!(seen.len(), 32);
    }

    #[test]
    fn chunk_stages_appear_in_pipeline_order_per_chunk() {
        let topo = PresetTopology::SwSwSw3dHetero.build();
        let request = CollectiveRequest::all_reduce_mib(128.0);
        let schedule = ThemisScheduler::new(16).schedule(&request, &topo).unwrap();
        let order = enforced_intra_dim_order(&schedule, &topo).unwrap();
        // Reconstruct, for each chunk, the order its stages were started in
        // (across all dimensions combined with a global sequence preserved per
        // dimension). A later stage can never be *enqueued* before an earlier
        // one finishes, so within a dimension the same chunk's stages must be
        // in increasing stage order.
        for dim in 0..order.num_dims() {
            let mut last_stage_per_chunk = std::collections::HashMap::new();
            for &(chunk, stage) in order.for_dim(dim) {
                if let Some(&prev) = last_stage_per_chunk.get(&chunk) {
                    assert!(
                        stage > prev,
                        "chunk {chunk} regressed from stage {prev} to {stage}"
                    );
                }
                last_stage_per_chunk.insert(chunk, stage);
            }
        }
    }

    #[test]
    fn is_deterministic_across_replicas() {
        let topo = PresetTopology::RingSwSwSw4d.build();
        let request = CollectiveRequest::all_reduce_mib(100.0);
        let schedule = ThemisScheduler::new(32).schedule(&request, &topo).unwrap();
        let a = enforced_intra_dim_order(&schedule, &topo).unwrap();
        let b = enforced_intra_dim_order(&schedule, &topo).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn baseline_order_is_fifo_by_chunk_index_on_dim1() {
        let topo = fig5_topology();
        let request = CollectiveRequest::all_reduce_mib(256.0);
        let schedule = BaselineScheduler::new(4).schedule(&request, &topo).unwrap();
        let order = enforced_intra_dim_order(&schedule, &topo).unwrap();
        // With identical chunk schedules, dim 0 executes the RS stages of the
        // chunks in chunk order first.
        let dim0 = order.for_dim(0);
        let rs_ops: Vec<(usize, usize)> = dim0
            .iter()
            .copied()
            .filter(|&(_, stage)| stage == 0)
            .collect();
        assert_eq!(rs_ops, vec![(0, 0), (1, 0), (2, 0), (3, 0)]);
    }

    #[test]
    fn empty_dimension_order_is_empty() {
        let order = EnforcedOrder::default();
        assert_eq!(order.num_dims(), 0);
        assert_eq!(order.total_ops(), 0);
        assert!(order.for_dim(3).is_empty());
    }
}
