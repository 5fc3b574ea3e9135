//! Training-iteration simulation (Fig. 12).
//!
//! One training iteration is a forward pass followed by back-propagation. The
//! simulator decomposes its latency into four components — forward compute,
//! backward compute, exposed model-parallel communication and exposed
//! data-parallel communication — exactly the bars of Fig. 12:
//!
//! * compute times come from the roofline [`ComputeModel`];
//! * communication times come from scheduling the workload's collectives with
//!   the selected policy (baseline / Themis / ideal) and executing them on the
//!   chunk-pipeline simulator;
//! * DLRM's All-To-All overlaps with the bottom-MLP compute and only its
//!   non-overlapped remainder is exposed (Sec. 5.2 / Sec. 6.2);
//! * Transformer-1T's data-parallel gradient All-Reduce runs only on the
//!   network dimensions outside the 128-NPU model-parallel group.

use crate::compute::ComputeModel;
use crate::error::WorkloadError;
use crate::layer::LayerKind;
use crate::models::DnnModel;
use crate::parallelism::ParallelismStrategy;
use crate::stream::collective_stream;
use std::fmt;
use themis_collectives::CollectiveKind;
use themis_core::{CollectiveRequest, IdealEstimator, SchedulerKind, SimPlanCache};
use themis_net::{DataSize, NetworkTopology};
use themis_sim::stream::{StreamEntry, StreamSimulator};
use themis_sim::{CollectiveExecutor, SimOptions, SimWorkspace, StreamReport};

/// The shared-cache context threaded through one training-iteration
/// simulation: an optional warm [`SimPlanCache`] plus the reusable simulation
/// workspace.
struct PlanCtx<'a> {
    plan: Option<&'a SimPlanCache>,
    workspace: &'a mut SimWorkspace,
}

/// The communication scheduling policy used for a training run
/// (the rows of Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommunicationPolicy {
    /// Multi-rail hierarchical baseline scheduling (Sec. 2.3).
    Baseline,
    /// Themis with FIFO intra-dimension scheduling.
    ThemisFifo,
    /// Themis with Smallest-Chunk-First intra-dimension scheduling.
    ThemisScf,
    /// The 100 % BW utilisation bound of Table 3.
    Ideal,
}

impl CommunicationPolicy {
    /// The policies shown in Fig. 12, in row order.
    pub fn fig12_rows() -> [CommunicationPolicy; 3] {
        [
            CommunicationPolicy::Baseline,
            CommunicationPolicy::ThemisScf,
            CommunicationPolicy::Ideal,
        ]
    }

    /// All policies.
    pub fn all() -> [CommunicationPolicy; 4] {
        [
            CommunicationPolicy::Baseline,
            CommunicationPolicy::ThemisFifo,
            CommunicationPolicy::ThemisScf,
            CommunicationPolicy::Ideal,
        ]
    }

    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            CommunicationPolicy::Baseline => "Baseline",
            CommunicationPolicy::ThemisFifo => "Themis+FIFO",
            CommunicationPolicy::ThemisScf => "Themis+SCF",
            CommunicationPolicy::Ideal => "Ideal",
        }
    }
}

impl fmt::Display for CommunicationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Configuration of one training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingConfig {
    /// The DNN being trained.
    pub model: DnnModel,
    /// How the model is partitioned across the machine.
    pub strategy: ParallelismStrategy,
    /// Per-NPU compute model.
    pub compute: ComputeModel,
    /// Per-NPU mini-batch size (Sec. 5.2: 32 / 128 / 512 / 16 for ResNet-152,
    /// GNMT, DLRM and Transformer-1T respectively).
    pub per_npu_minibatch: usize,
    /// Bytes per gradient element (2 for FP16, the paper's setting).
    pub gradient_bytes_per_param: f64,
    /// Chunks per collective used by the schedulers (paper default: 64).
    pub chunks_per_collective: usize,
}

impl TrainingConfig {
    /// Creates a configuration with the paper's defaults for precision (FP16)
    /// and chunk granularity (64), an A100-like compute model, and the given
    /// model / strategy / batch size.
    pub fn new(model: DnnModel, strategy: ParallelismStrategy, per_npu_minibatch: usize) -> Self {
        TrainingConfig {
            model,
            strategy,
            compute: ComputeModel::a100_like(),
            per_npu_minibatch,
            gradient_bytes_per_param: 2.0,
            chunks_per_collective: 64,
        }
    }

    pub(crate) fn validate(&self) -> Result<(), WorkloadError> {
        if self.per_npu_minibatch == 0 {
            return Err(WorkloadError::InvalidParameter {
                reason: "per-NPU mini-batch must be at least 1".to_string(),
            });
        }
        if !self.gradient_bytes_per_param.is_finite() || self.gradient_bytes_per_param <= 0.0 {
            return Err(WorkloadError::InvalidParameter {
                reason: format!(
                    "gradient precision must be positive, got {} bytes/param",
                    self.gradient_bytes_per_param
                ),
            });
        }
        if self.chunks_per_collective == 0 {
            return Err(WorkloadError::InvalidParameter {
                reason: "chunks per collective must be at least 1".to_string(),
            });
        }
        Ok(())
    }
}

/// The latency breakdown of one training iteration (the bars of Fig. 12).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct IterationBreakdown {
    /// Forward-pass compute time, ns.
    pub forward_compute_ns: f64,
    /// Back-propagation compute time, ns.
    pub backward_compute_ns: f64,
    /// Exposed model-parallel communication time, ns.
    pub exposed_mp_comm_ns: f64,
    /// Exposed data-parallel communication time, ns.
    pub exposed_dp_comm_ns: f64,
    /// Average weighted network BW utilisation achieved during the exposed
    /// collectives (the paper's Sec. 3 metric), weighted by collective
    /// duration. `1.0` for the Ideal policy and when there is no exposed
    /// communication.
    pub comm_utilization: f64,
}

impl IterationBreakdown {
    /// Total iteration latency, ns.
    pub fn total_ns(&self) -> f64 {
        self.forward_compute_ns
            + self.backward_compute_ns
            + self.exposed_mp_comm_ns
            + self.exposed_dp_comm_ns
    }

    /// Total exposed communication (MP + DP), ns.
    pub fn exposed_comm_ns(&self) -> f64 {
        self.exposed_mp_comm_ns + self.exposed_dp_comm_ns
    }

    /// Total compute (forward + backward), ns.
    pub fn compute_ns(&self) -> f64 {
        self.forward_compute_ns + self.backward_compute_ns
    }

    /// Fraction of the iteration spent in exposed communication.
    pub fn comm_fraction(&self) -> f64 {
        let total = self.total_ns();
        if total <= 0.0 {
            0.0
        } else {
            self.exposed_comm_ns() / total
        }
    }

    /// Speedup of this breakdown relative to `other` (other total / this total).
    pub fn speedup_over(&self, other: &IterationBreakdown) -> f64 {
        if self.total_ns() <= 0.0 {
            return f64::INFINITY;
        }
        other.total_ns() / self.total_ns()
    }
}

/// The outcome of a streamed training iteration
/// ([`TrainingSimulator::simulate_iteration_streamed`]): the compute times and
/// the full [`StreamReport`] of the gradient-collective queue.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedIteration {
    /// Forward-pass compute time, ns.
    pub forward_compute_ns: f64,
    /// Back-propagation compute time, ns.
    pub backward_compute_ns: f64,
    /// Communication that drained after the backward compute finished
    /// (`max(0, stream finish − backward compute)`), ns.
    pub exposed_comm_ns: f64,
    /// The simulated collective stream (clock zero = back-propagation start).
    pub stream: StreamReport,
}

impl StreamedIteration {
    /// Total iteration latency: compute plus the exposed tail of the
    /// communication stream, ns.
    pub fn total_ns(&self) -> f64 {
        self.forward_compute_ns + self.backward_compute_ns + self.exposed_comm_ns
    }

    /// Time during which two or more collectives of the stream were in flight
    /// together, ns.
    pub fn overlap_ns(&self) -> f64 {
        self.stream.overlap_ns
    }

    /// Makespan of the communication stream (first issue to last completion),
    /// ns.
    pub fn comm_makespan_ns(&self) -> f64 {
        self.stream.makespan_ns()
    }

    /// Speedup of this iteration relative to `other` (other total / this
    /// total).
    pub fn speedup_over(&self, other: &StreamedIteration) -> f64 {
        if self.total_ns() <= 0.0 {
            return f64::INFINITY;
        }
        other.total_ns() / self.total_ns()
    }
}

/// Simulates training iterations of a configured workload.
#[derive(Debug, Clone)]
pub struct TrainingSimulator {
    config: TrainingConfig,
    sim_options: SimOptions,
}

impl TrainingSimulator {
    /// Creates a simulator for `config` with default simulation options.
    pub fn new(config: TrainingConfig) -> Self {
        TrainingSimulator {
            config,
            sim_options: SimOptions::default(),
        }
    }

    /// Replaces the chunk-pipeline simulation options.
    #[must_use]
    pub fn with_sim_options(mut self, options: SimOptions) -> Self {
        self.sim_options = options;
        self
    }

    /// The training configuration.
    pub fn config(&self) -> &TrainingConfig {
        &self.config
    }

    /// Communication time and achieved weighted BW utilisation of one
    /// collective under `policy` on `topo`.
    fn comm_time_ns(
        &self,
        topo: &NetworkTopology,
        kind: CollectiveKind,
        bytes: f64,
        policy: CommunicationPolicy,
        ctx: &mut PlanCtx<'_>,
    ) -> Result<(f64, f64), WorkloadError> {
        if bytes < 1.0 {
            return Ok((0.0, 1.0));
        }
        let request = CollectiveRequest::new(kind, DataSize::from_bytes(bytes.round() as u64));
        match policy {
            CommunicationPolicy::Ideal => Ok((
                IdealEstimator::new().communication_time_ns(&request, topo)?,
                1.0,
            )),
            CommunicationPolicy::Baseline => {
                self.run_scheduler(topo, &request, SchedulerKind::Baseline, ctx)
            }
            CommunicationPolicy::ThemisFifo => {
                self.run_scheduler(topo, &request, SchedulerKind::ThemisFifo, ctx)
            }
            CommunicationPolicy::ThemisScf => {
                self.run_scheduler(topo, &request, SchedulerKind::ThemisScf, ctx)
            }
        }
    }

    fn run_scheduler(
        &self,
        topo: &NetworkTopology,
        request: &CollectiveRequest,
        kind: SchedulerKind,
        ctx: &mut PlanCtx<'_>,
    ) -> Result<(f64, f64), WorkloadError> {
        let executor = CollectiveExecutor::new(topo).with_options(self.sim_options.clone());
        let chunks = self.config.chunks_per_collective;
        let report = match ctx.plan {
            // Warm-cache path: schedule and cost table served from the shared
            // plan, event-loop state from the reusable workspace.
            // Bit-identical to the uncached run below.
            Some(plan) => executor.run_kind_planned(kind, chunks, request, plan, ctx.workspace)?,
            None => executor.run_kind(kind, chunks, request)?,
        };
        Ok((report.total_time_ns, report.average_bw_utilization()))
    }

    /// Simulates one training iteration on `topo` with the iteration's
    /// collectives issued as a *stream* during back-propagation (wait-free
    /// back-propagation): each layer's collective enters the network queue the
    /// moment its backward compute completes, and queued collectives overlap
    /// in flight according to
    /// [`SimOptions::cross_collective_overlap`] — disable the flag for the
    /// sequential-timeline reference.
    ///
    /// The stream clock starts at the beginning of back-propagation, so the
    /// exposed communication is the part of the stream that drains after the
    /// backward compute finishes.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid configurations, for the model-parallel
    /// strategy (see [`collective_stream`]) and for scheduling/simulation
    /// failures.
    pub fn simulate_iteration_streamed(
        &self,
        topo: &NetworkTopology,
        scheduler: SchedulerKind,
    ) -> Result<StreamedIteration, WorkloadError> {
        let batch = self.config.per_npu_minibatch as f64;
        let model = &self.config.model;
        let forward_compute_ns = self
            .config
            .compute
            .time_for_flops_ns(model.forward_flops_per_sample() * batch);
        let backward_compute_ns = self
            .config
            .compute
            .time_for_flops_ns(model.backward_flops_per_sample() * batch);

        let entries: Vec<StreamEntry> = collective_stream(&self.config)?
            .into_iter()
            .map(|c| {
                let request = c.request();
                StreamEntry::new(c.label, c.issue_ns, request)
            })
            .collect();
        let mut boxed = scheduler.build(self.config.chunks_per_collective);
        let stream =
            StreamSimulator::new(topo, self.sim_options.clone()).run(boxed.as_mut(), &entries)?;
        let comm_finish_ns = stream.finish_ns;
        Ok(StreamedIteration {
            forward_compute_ns,
            backward_compute_ns,
            exposed_comm_ns: (comm_finish_ns - backward_compute_ns).max(0.0),
            stream,
        })
    }

    /// Simulates one training iteration on `topo` under `policy` and returns
    /// the Fig. 12 latency breakdown.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid configurations or when the parallelization
    /// strategy cannot be mapped onto `topo`.
    pub fn simulate_iteration(
        &self,
        topo: &NetworkTopology,
        policy: CommunicationPolicy,
    ) -> Result<IterationBreakdown, WorkloadError> {
        let mut workspace = SimWorkspace::new();
        self.simulate_iteration_ctx(
            topo,
            policy,
            &mut PlanCtx {
                plan: None,
                workspace: &mut workspace,
            },
        )
    }

    /// Like [`TrainingSimulator::simulate_iteration`], but scheduling every
    /// collective of the iteration through a shared [`SimPlanCache`] and
    /// running the simulations on the caller's reusable [`SimWorkspace`].
    /// Training sweeps that revisit the same (topology, collective, policy)
    /// cells — e.g. the Fig. 4 / Fig. 12 figure suites — schedule and cost
    /// each distinct collective once across the whole sweep. Results are
    /// bit-identical to the uncached path.
    ///
    /// # Errors
    ///
    /// Same contract as [`TrainingSimulator::simulate_iteration`].
    pub fn simulate_iteration_planned(
        &self,
        topo: &NetworkTopology,
        policy: CommunicationPolicy,
        plan: &SimPlanCache,
        workspace: &mut SimWorkspace,
    ) -> Result<IterationBreakdown, WorkloadError> {
        self.simulate_iteration_ctx(
            topo,
            policy,
            &mut PlanCtx {
                plan: Some(plan),
                workspace,
            },
        )
    }

    fn simulate_iteration_ctx(
        &self,
        topo: &NetworkTopology,
        policy: CommunicationPolicy,
        ctx: &mut PlanCtx<'_>,
    ) -> Result<IterationBreakdown, WorkloadError> {
        self.config.validate()?;
        match self.config.strategy {
            ParallelismStrategy::DataParallel => self.simulate_data_parallel(topo, policy, ctx),
            ParallelismStrategy::DlrmHybrid => self.simulate_dlrm_hybrid(topo, policy, ctx),
            ParallelismStrategy::ModelParallelZero2 {
                model_parallel_npus,
            } => self.simulate_model_parallel_zero2(topo, policy, model_parallel_npus, ctx),
        }
    }

    fn simulate_data_parallel(
        &self,
        topo: &NetworkTopology,
        policy: CommunicationPolicy,
        ctx: &mut PlanCtx<'_>,
    ) -> Result<IterationBreakdown, WorkloadError> {
        let batch = self.config.per_npu_minibatch as f64;
        let model = &self.config.model;
        let forward_compute_ns = self
            .config
            .compute
            .time_for_flops_ns(model.forward_flops_per_sample() * batch);
        let backward_compute_ns = self
            .config
            .compute
            .time_for_flops_ns(model.backward_flops_per_sample() * batch);
        // Gradient All-Reduce over the whole machine, exposed at the end of
        // back-propagation.
        let gradient_bytes = model.total_parameters() as f64 * self.config.gradient_bytes_per_param;
        let (exposed_dp_comm_ns, comm_utilization) =
            self.comm_time_ns(topo, CollectiveKind::AllReduce, gradient_bytes, policy, ctx)?;
        Ok(IterationBreakdown {
            forward_compute_ns,
            backward_compute_ns,
            exposed_mp_comm_ns: 0.0,
            exposed_dp_comm_ns,
            comm_utilization,
        })
    }

    fn simulate_dlrm_hybrid(
        &self,
        topo: &NetworkTopology,
        policy: CommunicationPolicy,
        ctx: &mut PlanCtx<'_>,
    ) -> Result<IterationBreakdown, WorkloadError> {
        let batch = self.config.per_npu_minibatch as f64;
        let model = &self.config.model;

        let forward_compute_ns = self
            .config
            .compute
            .time_for_flops_ns(model.forward_flops_per_sample() * batch);
        let backward_compute_ns = self
            .config
            .compute
            .time_for_flops_ns(model.backward_flops_per_sample() * batch);

        // Data-parallel gradient All-Reduce of the dense (MLP) parameters only;
        // the embedding tables are model-parallel and are not all-reduced.
        let dense_gradient_bytes = model.parameters_excluding_kind(LayerKind::Embedding) as f64
            * self.config.gradient_bytes_per_param;
        let (exposed_dp_comm_ns, dp_utilization) = self.comm_time_ns(
            topo,
            CollectiveKind::AllReduce,
            dense_gradient_bytes,
            policy,
            ctx,
        )?;

        // Pooled-embedding All-To-All in the forward pass and its mirror in
        // back-propagation. Both overlap with the bottom-MLP compute; only the
        // non-overlapped remainder is exposed (Sec. 5.2 / Sec. 6.2).
        let a2a_bytes = model.activation_bytes_of_kind(LayerKind::Embedding) * batch;
        let (a2a_fwd_ns, _) =
            self.comm_time_ns(topo, CollectiveKind::AllToAll, a2a_bytes, policy, ctx)?;
        let a2a_bwd_ns = a2a_fwd_ns;
        let bottom_mlp_flops: f64 = model
            .layers()
            .iter()
            .take_while(|l| l.kind() != LayerKind::Embedding)
            .map(|l| l.forward_flops_per_sample())
            .sum();
        let overlap_fwd_ns = self
            .config
            .compute
            .time_for_flops_ns(bottom_mlp_flops * batch);
        let overlap_bwd_ns = self
            .config
            .compute
            .time_for_flops_ns(2.0 * bottom_mlp_flops * batch);
        let exposed_mp_comm_ns =
            (a2a_fwd_ns - overlap_fwd_ns).max(0.0) + (a2a_bwd_ns - overlap_bwd_ns).max(0.0);

        Ok(IterationBreakdown {
            forward_compute_ns,
            backward_compute_ns,
            exposed_mp_comm_ns,
            exposed_dp_comm_ns,
            comm_utilization: dp_utilization,
        })
    }

    fn simulate_model_parallel_zero2(
        &self,
        topo: &NetworkTopology,
        policy: CommunicationPolicy,
        model_parallel_npus: usize,
        ctx: &mut PlanCtx<'_>,
    ) -> Result<IterationBreakdown, WorkloadError> {
        let batch = self.config.per_npu_minibatch as f64;
        let model = &self.config.model;
        if model_parallel_npus < 2 || model_parallel_npus >= topo.num_npus() {
            return Err(WorkloadError::IncompatibleTopology {
                reason: format!(
                    "model-parallel group of {model_parallel_npus} NPUs is not valid on a \
                     {}-NPU machine",
                    topo.num_npus()
                ),
            });
        }
        let (mp_topo, dp_topo) = topo
            .split_for_group(
                model_parallel_npus,
                "model-parallel-group",
                "data-parallel-group",
            )
            .map_err(|err| WorkloadError::IncompatibleTopology {
                reason: err.to_string(),
            })?;
        let mp_degree = mp_topo.num_npus() as f64;

        // Tensor-parallel compute: each NPU executes 1/mp_degree of the model
        // FLOPs for its mini-batch. ZeRO's forward-in-back-propagation
        // (activation recomputation) is counted towards the forward pass
        // (Sec. 6.2), hence the 2× forward term.
        let forward_flops = model.forward_flops_per_sample() * batch / mp_degree;
        let backward_flops = model.backward_flops_per_sample() * batch / mp_degree;
        let forward_compute_ns = self.config.compute.time_for_flops_ns(2.0 * forward_flops);
        let backward_compute_ns = self.config.compute.time_for_flops_ns(backward_flops);

        // Model-parallel communication: one activation All-Reduce per
        // tensor-parallel layer in the forward pass and one
        // gradient All-Reduce per layer in back-propagation, all on the
        // model-parallel sub-topology and all exposed.
        let mp_layers: Vec<_> = model
            .layers()
            .iter()
            .filter(|l| l.kind() == LayerKind::Attention)
            .collect();
        let mut exposed_mp_comm_ns = 0.0;
        let mut mp_utilization = 1.0;
        if let Some(first) = mp_layers.first() {
            let activation_bytes = first.activation_bytes_per_sample() * batch;
            let (per_layer_ns, utilization) = self.comm_time_ns(
                &mp_topo,
                CollectiveKind::AllReduce,
                activation_bytes,
                policy,
                ctx,
            )?;
            // Identical collectives: simulate one and scale by the layer count
            // and the two passes (forward + backward).
            exposed_mp_comm_ns = per_layer_ns * mp_layers.len() as f64 * 2.0;
            mp_utilization = utilization;
        }

        // ZeRO-2 data-parallel gradient synchronisation of this NPU's 1/mp
        // shard of the parameters, on the data-parallel dimensions only
        // (the last network dimension for the Table 2 topologies).
        let shard_gradient_bytes =
            model.total_parameters() as f64 * self.config.gradient_bytes_per_param / mp_degree;
        let (exposed_dp_comm_ns, dp_utilization) = self.comm_time_ns(
            &dp_topo,
            CollectiveKind::AllReduce,
            shard_gradient_bytes,
            policy,
            ctx,
        )?;

        // Duration-weighted utilisation over the exposed collectives.
        let exposed_total = exposed_mp_comm_ns + exposed_dp_comm_ns;
        let comm_utilization = if exposed_total > 0.0 {
            (mp_utilization * exposed_mp_comm_ns + dp_utilization * exposed_dp_comm_ns)
                / exposed_total
        } else {
            1.0
        };

        Ok(IterationBreakdown {
            forward_compute_ns,
            backward_compute_ns,
            exposed_mp_comm_ns,
            exposed_dp_comm_ns,
            comm_utilization,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;
    use themis_net::presets::PresetTopology;

    #[test]
    fn planned_iterations_match_uncached_iterations_bit_for_bit() {
        // One warm plan + workspace across every (workload, policy) cell —
        // including the sub-topology collectives of Transformer-1T's ZeRO-2
        // strategy and DLRM's All-To-Alls — must not change a single bit.
        let topo = PresetTopology::SwSwSw3dHetero.build();
        let plan = SimPlanCache::new();
        let mut workspace = SimWorkspace::new();
        for workload in [Workload::ResNet152, Workload::Dlrm, Workload::Transformer1T] {
            let simulator = TrainingSimulator::new(workload.config());
            for policy in CommunicationPolicy::all() {
                let direct = simulator.simulate_iteration(&topo, policy).unwrap();
                let planned = simulator
                    .simulate_iteration_planned(&topo, policy, &plan, &mut workspace)
                    .unwrap();
                assert_eq!(direct, planned, "{workload} under {policy:?}");
            }
        }
        assert!(!plan.schedules().is_empty());
        assert!(plan.cost_tables().hits() > 0);
    }

    #[test]
    fn breakdown_arithmetic() {
        let breakdown = IterationBreakdown {
            forward_compute_ns: 10.0,
            backward_compute_ns: 20.0,
            exposed_mp_comm_ns: 5.0,
            exposed_dp_comm_ns: 15.0,
            comm_utilization: 0.8,
        };
        assert_eq!(breakdown.total_ns(), 50.0);
        assert_eq!(breakdown.exposed_comm_ns(), 20.0);
        assert_eq!(breakdown.compute_ns(), 30.0);
        assert!((breakdown.comm_fraction() - 0.4).abs() < 1e-9);
        let other = IterationBreakdown {
            forward_compute_ns: 40.0,
            backward_compute_ns: 40.0,
            exposed_mp_comm_ns: 10.0,
            exposed_dp_comm_ns: 10.0,
            comm_utilization: 1.0,
        };
        assert!((breakdown.speedup_over(&other) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn resnet_data_parallel_breakdown_shape() {
        let topo = PresetTopology::SwSwSw3dHomo.build();
        let sim = TrainingSimulator::new(Workload::ResNet152.config());
        let breakdown = sim
            .simulate_iteration(&topo, CommunicationPolicy::Baseline)
            .unwrap();
        // Pure data parallelism: no exposed MP communication; backward compute
        // is about twice the forward compute.
        assert_eq!(breakdown.exposed_mp_comm_ns, 0.0);
        assert!(breakdown.exposed_dp_comm_ns > 0.0);
        let ratio = breakdown.backward_compute_ns / breakdown.forward_compute_ns;
        assert!((ratio - 2.0).abs() < 0.01, "ratio {ratio}");
        // ResNet-152 on 1024 NPUs is communication-heavy (Sec. 5.2).
        assert!(breakdown.comm_fraction() > 0.3);
    }

    #[test]
    fn themis_reduces_exposed_communication_for_every_workload() {
        let topo = PresetTopology::SwSwSw3dHomo.build();
        for workload in Workload::all() {
            let sim = TrainingSimulator::new(workload.config());
            let baseline = sim
                .simulate_iteration(&topo, CommunicationPolicy::Baseline)
                .unwrap();
            let themis = sim
                .simulate_iteration(&topo, CommunicationPolicy::ThemisScf)
                .unwrap();
            let ideal = sim
                .simulate_iteration(&topo, CommunicationPolicy::Ideal)
                .unwrap();
            assert!(
                themis.exposed_comm_ns() <= baseline.exposed_comm_ns() * 1.001,
                "{workload:?}: Themis exposed {:.0} vs baseline {:.0}",
                themis.exposed_comm_ns(),
                baseline.exposed_comm_ns()
            );
            assert!(
                ideal.exposed_comm_ns() <= themis.exposed_comm_ns() * 1.001,
                "{workload:?}: ideal should bound Themis"
            );
            // Compute time is policy-independent.
            assert!((themis.compute_ns() - baseline.compute_ns()).abs() < 1e-3);
        }
    }

    #[test]
    fn dlrm_all_to_all_is_mostly_overlapped() {
        let topo = PresetTopology::RingFcRingSw4d.build();
        let sim = TrainingSimulator::new(Workload::Dlrm.config());
        let breakdown = sim
            .simulate_iteration(&topo, CommunicationPolicy::ThemisScf)
            .unwrap();
        // The paper counts only the data-parallel All-Reduce as exposed for
        // DLRM; the All-To-All largely hides behind the bottom-MLP compute, so
        // exposed MP communication must be far smaller than exposed DP.
        assert!(breakdown.exposed_dp_comm_ns > 0.0);
        assert!(breakdown.exposed_mp_comm_ns < breakdown.exposed_dp_comm_ns);
    }

    #[test]
    fn transformer_mp_communication_dominates() {
        let topo = PresetTopology::SwSwSw3dHetero.build();
        let sim = TrainingSimulator::new(Workload::Transformer1T.config());
        let breakdown = sim
            .simulate_iteration(&topo, CommunicationPolicy::Baseline)
            .unwrap();
        // Sec. 6.2: for Transformer-1T the model-parallel communication is the
        // dominant exposed component, and the forward bar includes the ZeRO
        // forward-in-back-propagation.
        assert!(breakdown.exposed_mp_comm_ns > breakdown.exposed_dp_comm_ns);
        assert!(breakdown.forward_compute_ns >= breakdown.backward_compute_ns * 0.99);
        assert!(breakdown.exposed_mp_comm_ns > 0.0);
    }

    #[test]
    fn transformer_dp_traffic_uses_only_the_remainder_dimensions() {
        // On every Table 2 topology the 128-NPU model-parallel group leaves
        // exactly the last dimension for data parallelism, so the simulation
        // must succeed on all of them.
        let sim = TrainingSimulator::new(Workload::Transformer1T.config());
        for preset in PresetTopology::next_generation() {
            let topo = preset.build();
            let breakdown = sim
                .simulate_iteration(&topo, CommunicationPolicy::ThemisScf)
                .unwrap();
            assert!(breakdown.total_ns() > 0.0, "{}", preset.name());
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let topo = PresetTopology::Sw2d.build();
        let mut config = Workload::ResNet152.config();
        config.per_npu_minibatch = 0;
        assert!(TrainingSimulator::new(config)
            .simulate_iteration(&topo, CommunicationPolicy::Baseline)
            .is_err());

        let mut config = Workload::ResNet152.config();
        config.gradient_bytes_per_param = 0.0;
        assert!(TrainingSimulator::new(config)
            .simulate_iteration(&topo, CommunicationPolicy::Baseline)
            .is_err());

        let mut config = Workload::Transformer1T.config();
        config.strategy = ParallelismStrategy::ModelParallelZero2 {
            model_parallel_npus: 1024,
        };
        assert!(TrainingSimulator::new(config)
            .simulate_iteration(&topo, CommunicationPolicy::Baseline)
            .is_err());
    }

    #[test]
    fn streamed_iteration_overlaps_and_never_beats_compute() {
        let topo = PresetTopology::SwSwSw3dHomo.build();
        for workload in [Workload::ResNet152, Workload::Gnmt, Workload::Dlrm] {
            let streamed_sim = TrainingSimulator::new(workload.config());
            let sequential_sim = TrainingSimulator::new(workload.config())
                .with_sim_options(SimOptions::default().with_cross_collective_overlap(false));
            let streamed = streamed_sim
                .simulate_iteration_streamed(&topo, SchedulerKind::ThemisScf)
                .unwrap();
            let sequential = sequential_sim
                .simulate_iteration_streamed(&topo, SchedulerKind::ThemisScf)
                .unwrap();
            // Compute is policy-independent; streaming only shrinks the
            // exposed communication tail.
            assert_eq!(streamed.forward_compute_ns, sequential.forward_compute_ns);
            assert_eq!(streamed.backward_compute_ns, sequential.backward_compute_ns);
            assert!(
                streamed.comm_makespan_ns() <= sequential.comm_makespan_ns() + 1e-6,
                "{workload:?}: streamed {:.0} vs sequential {:.0}",
                streamed.comm_makespan_ns(),
                sequential.comm_makespan_ns()
            );
            assert!(streamed.total_ns() <= sequential.total_ns() + 1e-6);
            assert!(streamed.total_ns() >= streamed.compute_only());
        }
    }

    #[test]
    fn streamed_iteration_rejects_model_parallel_workloads() {
        let topo = PresetTopology::SwSwSw3dHomo.build();
        let sim = TrainingSimulator::new(Workload::Transformer1T.config());
        assert!(sim
            .simulate_iteration_streamed(&topo, SchedulerKind::ThemisScf)
            .is_err());
    }

    impl StreamedIteration {
        fn compute_only(&self) -> f64 {
            self.forward_compute_ns + self.backward_compute_ns
        }
    }

    #[test]
    fn policy_labels() {
        assert_eq!(CommunicationPolicy::fig12_rows().len(), 3);
        assert_eq!(CommunicationPolicy::all().len(), 4);
        assert_eq!(CommunicationPolicy::ThemisScf.to_string(), "Themis+SCF");
        assert_eq!(CommunicationPolicy::Ideal.label(), "Ideal");
    }
}
