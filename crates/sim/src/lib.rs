//! # themis-sim
//!
//! A discrete-event chunk-pipeline simulator for multi-dimensional collective
//! communication, standing in for the ASTRA-sim substrate used by the Themis
//! paper (ISCA 2022).
//!
//! The simulator executes a [`themis_core::CollectiveSchedule`] on a
//! [`themis_net::NetworkTopology`]: every network dimension is a resource that
//! executes chunk phase operations (Reduce-Scatter / All-Gather / All-To-All
//! stages); a chunk moves to the next dimension of its schedule as soon as the
//! previous stage finishes. Because the per-dimension collectives are
//! contention-free and topology-aware (Sec. 5.1 of the paper), the simulator
//! models each dimension as a single shared-bandwidth channel with the
//! `A_K + N_K × B_K` cost model — the same model the scheduler uses, which is
//! what makes the schedule-consistency guarantee of Sec. 4.6 hold.
//!
//! The main entry points are:
//!
//! * [`PipelineSimulator`] — executes one collective schedule and produces a
//!   [`SimReport`] (completion time, per-dimension busy time and wire bytes,
//!   the paper's weighted average BW utilisation, and the frontend-activity
//!   timeline of Fig. 9).
//! * [`CollectiveExecutor`] — convenience wrapper that schedules *and*
//!   simulates a collective with a given scheduler.
//! * [`stream`] — the streaming multi-collective queue engine: executes a
//!   queue of collectives with event-driven admission and per-dimension
//!   in-flight overlap (chunks of collective *k+1* start on dimensions
//!   collective *k* has vacated). With
//!   [`SimOptions::cross_collective_overlap`] off it runs the collectives
//!   strictly back to back, the sequential timeline of the training-loop
//!   model.
//!
//! ```
//! use themis_core::{CollectiveRequest, CollectiveScheduler, ThemisScheduler};
//! use themis_net::presets::PresetTopology;
//! use themis_sim::{PipelineSimulator, SimOptions};
//!
//! # fn main() -> Result<(), themis_sim::SimError> {
//! let topo = PresetTopology::SwSwSw3dHomo.build();
//! let request = CollectiveRequest::all_reduce_mib(256.0);
//! let schedule = ThemisScheduler::new(64)
//!     .schedule(&request, &topo)
//!     .map_err(themis_sim::SimError::from)?;
//! let report = PipelineSimulator::new(&topo, SimOptions::default()).run(&schedule)?;
//! assert!(report.average_bw_utilization() > 0.5);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cancel;
pub mod error;
pub mod executor;
pub mod faults;
pub mod options;
pub mod pipeline;
pub(crate) mod readyq;
pub(crate) mod soa;
pub mod stats;
pub mod stream;
pub mod trace;
pub mod workspace;

pub use cancel::CancelToken;
pub use error::SimError;
pub use executor::CollectiveExecutor;
pub use faults::{FaultEvent, FaultKind, FaultPlan, FaultTimeline};
pub use options::SimOptions;
pub use pipeline::PipelineSimulator;
pub use stats::{DimReport, SimReport};
pub use stream::{CollectiveSpan, StreamEntry, StreamReport, StreamSimulator};
pub use trace::{sim_report_trace, stream_report_trace};
pub use workspace::SimWorkspace;
