//! # themis
//!
//! A from-scratch Rust reproduction of **Themis: A Network Bandwidth-Aware
//! Collective Scheduling Policy for Distributed Training of DL Models**
//! (Rashidi, Won, Srinivasan, Sridharan, Krishna — ISCA 2022).
//!
//! Themis schedules the *chunks* of a collective communication operation
//! (All-Reduce, Reduce-Scatter, All-Gather) across the dimensions of a
//! hierarchical, multi-dimensional training platform so that every dimension's
//! bandwidth stays busy. This facade crate re-exports the whole workspace:
//!
//! * [`net`] — the multi-dimensional network topology substrate (Table 2
//!   platforms, bandwidth/latency units, provisioning analysis).
//! * [`collectives`] — topology-aware collective algorithms, their cost model
//!   and data-level functional implementations.
//! * [`core`] — the schedulers: the multi-rail hierarchical baseline, Themis
//!   (Algorithm 1), and the ideal 100 %-utilisation bound.
//! * [`sim`] — the discrete-event chunk-pipeline simulator and its reports.
//! * [`workloads`] — DNN workload models (ResNet-152, GNMT, DLRM,
//!   Transformer-1T), parallelization strategies and the training-iteration
//!   simulator.
//!
//! On top of those it provides [`api`], the high-level experiment layer:
//! [`api::Platform`] / [`api::Job`] describe one run, [`api::Campaign`]
//! declares a sweep over schedulers × topologies × sizes × chunk counts, and
//! [`api::Runner`] executes the expanded matrix sequentially or on a thread
//! pool. Every entry point returns `Result<_, `[`ThemisError`]`>`, the single
//! error type of the facade. Import [`prelude`] to get the whole surface.
//!
//! ## Quickstart
//!
//! ```
//! use themis::prelude::*;
//!
//! # fn main() -> Result<(), ThemisError> {
//! // Sweep a 256 MiB gradient All-Reduce over a 1024-NPU next-generation
//! // platform from Table 2, under every Table 3 scheduler.
//! let report = Campaign::new()
//!     .topologies([PresetTopology::SwSwSw3dHomo])
//!     .sizes_mib([256.0])
//!     .run(&Runner::parallel())?;
//!
//! let size = DataSize::from_mib(256.0);
//! let baseline = report
//!     .find("3D-SW_SW_SW_homo", SchedulerKind::Baseline, size)
//!     .expect("the campaign ran this cell");
//! let themis = report
//!     .find("3D-SW_SW_SW_homo", SchedulerKind::ThemisScf, size)
//!     .expect("the campaign ran this cell");
//!
//! assert!(themis.total_time_ns() < baseline.total_time_ns());
//! assert!(themis.average_bw_utilization() > baseline.average_bw_utilization());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod api;
pub mod error;
pub mod prelude;

pub use themis_collectives as collectives;
pub use themis_core as core;
pub use themis_net as net;
pub use themis_sim as sim;
pub use themis_workloads as workloads;

pub use api::{
    merge_reports, CacheStats, Campaign, CampaignCell, CampaignReport, Job, MergedReport,
    MergedResults, Platform, QueuedCollective, RunConfig, RunResult, RunSpec, Runner, ScheduledRun,
    ShardPlan, ShardReport, ShardSpec, ShardStrategy, StreamCampaign, StreamCampaignReport,
    StreamJob, StreamRunConfig, StreamRunResult, StreamSpec, TrainingJob,
};
pub use error::ThemisError;

pub use themis_collectives::{algorithm_for, AlgorithmKind, CollectiveKind, CostModel, PhaseOp};
pub use themis_core::{
    BaselineScheduler, ChunkSchedule, CollectiveRequest, CollectiveSchedule, CollectiveScheduler,
    CostTable, CostTableCache, IdealEstimator, IntraDimPolicy, Registry, ScheduleCache,
    ScheduleKey, SchedulerKind, SimPlanCache, Snapshot, StageOp, ThemisConfig, ThemisScheduler,
};
pub use themis_net::{
    presets::PresetTopology, Bandwidth, DataSize, DimensionSpec, NetworkTopology, TopologyKind,
};
pub use themis_sim::{
    sim_report_trace, stream_report_trace, CollectiveExecutor, CollectiveSpan, FaultEvent,
    FaultKind, FaultPlan, FaultTimeline, PipelineSimulator, SimOptions, SimReport, SimWorkspace,
    StreamEntry, StreamReport, StreamSimulator,
};
pub use themis_workloads::{
    collective_stream, CommunicationPolicy, ComputeModel, FaultScenario, IterationBreakdown,
    StreamedCollective, StreamedIteration, TrainingConfig, TrainingSimulator, Workload,
};
