//! The scheduler abstraction shared by the baseline and Themis policies.

use crate::error::ScheduleError;
use crate::intra_dim::IntraDimPolicy;
use crate::schedule::{CollectiveRequest, CollectiveSchedule};
use crate::{BaselineScheduler, ThemisScheduler};
use std::fmt;
use themis_net::NetworkTopology;

/// A chunk scheduler: turns a [`CollectiveRequest`] into a
/// [`CollectiveSchedule`] for a specific topology.
///
/// Schedulers are stateful across a single collective (the Themis scheduler
/// tracks per-dimension loads while assigning chunks) but independent across
/// collectives: every call to [`CollectiveScheduler::schedule`] starts from a
/// reset state, exactly as `SCHEDULE_COLLECTIVE` does in Algorithm 1.
pub trait CollectiveScheduler {
    /// Human-readable policy name (used in reports, e.g. `"Themis+SCF"`).
    fn name(&self) -> String;

    /// The intra-dimension chunk execution policy this scheduler pairs with.
    fn intra_dim_policy(&self) -> IntraDimPolicy;

    /// Produces the chunk schedules for `request` on `topo`.
    ///
    /// # Errors
    ///
    /// Returns a [`ScheduleError`] for invalid requests (zero size), invalid
    /// configurations or topology mismatches.
    fn schedule(
        &mut self,
        request: &CollectiveRequest,
        topo: &NetworkTopology,
    ) -> Result<CollectiveSchedule, ScheduleError>;

    /// Like [`CollectiveScheduler::schedule`], but reusing pre-computed
    /// splitter output (`chunk_bytes[i]` is the initial size of chunk `i`).
    ///
    /// Campaign cells that differ only in their scheduler share the same
    /// splitter output, so the schedule cache computes the split once and
    /// hands it to every scheduler kind. The split must equal what the
    /// scheduler's own splitter would produce; the default implementation
    /// ignores the hint and re-splits internally, which is always correct.
    ///
    /// # Errors
    ///
    /// Same contract as [`CollectiveScheduler::schedule`].
    fn schedule_presplit(
        &mut self,
        request: &CollectiveRequest,
        topo: &NetworkTopology,
        chunk_bytes: &[f64],
    ) -> Result<CollectiveSchedule, ScheduleError> {
        let _ = chunk_bytes;
        self.schedule(request, topo)
    }
}

/// Convenience selector for the scheduling configurations evaluated in the
/// paper (Table 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulerKind {
    /// Multi-rail hierarchical baseline with FIFO intra-dimension scheduling.
    Baseline,
    /// Themis inter-dimension scheduling with FIFO intra-dimension scheduling.
    ThemisFifo,
    /// Themis inter-dimension scheduling with Smallest-Chunk-First
    /// intra-dimension scheduling.
    ThemisScf,
}

impl SchedulerKind {
    /// All evaluated scheduler kinds, in the paper's order.
    pub fn all() -> [SchedulerKind; 3] {
        [
            SchedulerKind::Baseline,
            SchedulerKind::ThemisFifo,
            SchedulerKind::ThemisScf,
        ]
    }

    /// The display name used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Baseline => "Baseline",
            SchedulerKind::ThemisFifo => "Themis+FIFO",
            SchedulerKind::ThemisScf => "Themis+SCF",
        }
    }

    /// Instantiates the scheduler with the given chunk granularity.
    pub fn build(&self, chunks_per_collective: usize) -> Box<dyn CollectiveScheduler> {
        match self {
            SchedulerKind::Baseline => Box::new(BaselineScheduler::new(chunks_per_collective)),
            SchedulerKind::ThemisFifo => Box::new(
                ThemisScheduler::new(chunks_per_collective)
                    .with_intra_dim_policy(IntraDimPolicy::Fifo),
            ),
            SchedulerKind::ThemisScf => Box::new(
                ThemisScheduler::new(chunks_per_collective)
                    .with_intra_dim_policy(IntraDimPolicy::SmallestChunkFirst),
            ),
        }
    }
}

impl fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_net::presets::PresetTopology;

    #[test]
    fn labels_match_table3() {
        assert_eq!(SchedulerKind::Baseline.label(), "Baseline");
        assert_eq!(SchedulerKind::ThemisFifo.label(), "Themis+FIFO");
        assert_eq!(SchedulerKind::ThemisScf.label(), "Themis+SCF");
        assert_eq!(SchedulerKind::all().len(), 3);
    }

    #[test]
    fn built_schedulers_report_expected_policies() {
        let topo = PresetTopology::Sw2d.build();
        let request = CollectiveRequest::all_reduce_mib(64.0);
        for kind in SchedulerKind::all() {
            let mut scheduler = kind.build(8);
            let schedule = scheduler.schedule(&request, &topo).unwrap();
            schedule.validate(&topo).unwrap();
            assert_eq!(schedule.chunks().len(), 8);
            match kind {
                SchedulerKind::Baseline | SchedulerKind::ThemisFifo => {
                    assert_eq!(schedule.intra_dim_policy(), IntraDimPolicy::Fifo)
                }
                SchedulerKind::ThemisScf => assert_eq!(
                    schedule.intra_dim_policy(),
                    IntraDimPolicy::SmallestChunkFirst
                ),
            }
        }
    }
}
