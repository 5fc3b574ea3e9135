//! Stream reports: per-collective spans plus exposed-communication and
//! overlap breakdowns.

use crate::stats::{DimReport, SimReport};

/// The execution span of one collective inside a stream.
///
/// Absolute times (`issue_ns`, `start_ns`, `finish_ns`) are on the stream's
/// clock; the embedded [`SimReport`] is expressed in the collective's own time
/// frame (its op trace and presence intervals start at zero), so it compares
/// directly with a standalone [`crate::PipelineSimulator`] run.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveSpan {
    /// Position of this collective in the caller's entry list.
    pub index: usize,
    /// Label of the collective.
    pub label: String,
    /// Issue time (clamped to the simulation clock), ns.
    pub issue_ns: f64,
    /// Time the collective's first chunk op started executing, ns.
    pub start_ns: f64,
    /// Time the collective's last chunk op completed, ns.
    pub finish_ns: f64,
    /// Total time during which at least one op of this collective was
    /// executing somewhere on the network, ns.
    pub active_ns: f64,
    /// Portion of `active_ns` during which at least one *other* collective was
    /// also executing — the communication this collective overlapped with its
    /// queue neighbours, ns.
    pub overlapped_ns: f64,
    /// The collective's own simulation report (collective-local time frame).
    pub report: SimReport,
}

impl CollectiveSpan {
    /// Wall-clock span of the collective: first op start to last completion,
    /// ns.
    pub fn span_ns(&self) -> f64 {
        (self.finish_ns - self.start_ns).max(0.0)
    }

    /// Time the collective waited in the queue after being issued, ns.
    pub fn queue_delay_ns(&self) -> f64 {
        (self.start_ns - self.issue_ns).max(0.0)
    }

    /// The communication of this collective that no other collective
    /// overlapped (it alone occupied the network), ns.
    pub fn sole_active_ns(&self) -> f64 {
        (self.active_ns - self.overlapped_ns).max(0.0)
    }
}

/// The result of simulating a stream of collectives.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamReport {
    /// Name of the scheduler that produced the executed schedules.
    pub scheduler_name: String,
    /// Topology name the stream executed on.
    pub topology_name: String,
    /// Time at which the last collective completed, ns.
    pub finish_ns: f64,
    /// Per-collective spans, in admission (issue) order.
    pub spans: Vec<CollectiveSpan>,
    /// Aggregate per-dimension statistics across the whole stream (absolute
    /// time frame).
    pub dims: Vec<DimReport>,
    /// Total time during which at least one collective was executing, ns.
    pub network_busy_ns: f64,
    /// Total time during which at least *two* collectives were executing
    /// simultaneously — the in-flight overlap the sequential timeline model
    /// cannot express, ns.
    pub overlap_ns: f64,
}

impl StreamReport {
    /// An empty report (no collectives).
    pub(crate) fn empty(scheduler_name: &str, topology_name: &str, dims: Vec<DimReport>) -> Self {
        StreamReport {
            scheduler_name: scheduler_name.to_string(),
            topology_name: topology_name.to_string(),
            finish_ns: 0.0,
            spans: Vec::new(),
            dims,
            network_busy_ns: 0.0,
            overlap_ns: 0.0,
        }
    }

    /// Time between the first (clamped) issue and the last completion, ns.
    /// `0.0` for an empty stream.
    pub fn makespan_ns(&self) -> f64 {
        let first_issue = self
            .spans
            .iter()
            .map(|s| s.issue_ns)
            .fold(f64::INFINITY, f64::min);
        if first_issue.is_finite() {
            (self.finish_ns - first_issue).max(0.0)
        } else {
            0.0
        }
    }

    /// Sum of the collectives' isolated completion times (each collective's
    /// own report duration), ns. For a back-to-back stream with no issue gaps
    /// this equals the makespan; under streaming it exceeds the makespan by
    /// the overlapped time.
    pub fn total_communication_ns(&self) -> f64 {
        self.spans.iter().map(|s| s.report.total_time_ns).sum()
    }

    /// Fraction of the network-busy time during which two or more collectives
    /// were in flight together. `0.0` when the network never carried traffic.
    pub fn overlap_fraction(&self) -> f64 {
        if self.network_busy_ns <= 0.0 {
            0.0
        } else {
            (self.overlap_ns / self.network_busy_ns).clamp(0.0, 1.0)
        }
    }

    /// The exposed (serialized) communication of the stream: time the network
    /// was busy with exactly one collective in flight, ns. Streaming converts
    /// exposed communication into `overlap_ns`.
    pub fn exposed_communication_ns(&self) -> f64 {
        (self.network_busy_ns - self.overlap_ns).max(0.0)
    }

    /// The span for the caller's entry `index`, if it ran.
    pub fn span_for_entry(&self, index: usize) -> Option<&CollectiveSpan> {
        self.spans.iter().find(|s| s.index == index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(index: usize, issue: f64, start: f64, finish: f64) -> CollectiveSpan {
        CollectiveSpan {
            index,
            label: format!("c{index}"),
            issue_ns: issue,
            start_ns: start,
            finish_ns: finish,
            active_ns: finish - start,
            overlapped_ns: 0.0,
            report: SimReport {
                scheduler_name: "test".to_string(),
                topology_name: "topo".to_string(),
                total_time_ns: finish - start,
                activity_window_ns: 100.0,
                dims: Vec::new(),
                op_log: Vec::new(),
            },
        }
    }

    #[test]
    fn empty_report_has_zero_makespan() {
        let report = StreamReport::empty("Themis+SCF", "topo", Vec::new());
        assert_eq!(report.makespan_ns(), 0.0);
        assert_eq!(report.total_communication_ns(), 0.0);
        assert_eq!(report.overlap_fraction(), 0.0);
        assert_eq!(report.exposed_communication_ns(), 0.0);
        assert!(report.span_for_entry(0).is_none());
    }

    #[test]
    fn makespan_is_zero_for_degenerate_reports() {
        // No collective ran, so a stray finish time must not show up as
        // makespan or communication.
        let mut report = StreamReport::empty("s", "t", Vec::new());
        report.finish_ns = 1_000.0;
        assert_eq!(report.makespan_ns(), 0.0);
        assert_eq!(report.total_communication_ns(), 0.0);
    }

    #[test]
    fn span_arithmetic() {
        let mut s = span(3, 5.0, 10.0, 30.0);
        s.overlapped_ns = 8.0;
        assert_eq!(s.span_ns(), 20.0);
        assert_eq!(s.queue_delay_ns(), 5.0);
        assert_eq!(s.sole_active_ns(), 12.0);
    }

    #[test]
    fn makespan_spans_first_issue_to_last_finish() {
        let mut report = StreamReport::empty("s", "t", Vec::new());
        report.spans = vec![span(0, 10.0, 10.0, 50.0), span(1, 0.0, 50.0, 90.0)];
        report.finish_ns = 90.0;
        report.network_busy_ns = 80.0;
        report.overlap_ns = 20.0;
        assert_eq!(report.makespan_ns(), 90.0);
        assert_eq!(report.total_communication_ns(), 80.0);
        assert!((report.overlap_fraction() - 0.25).abs() < 1e-12);
        assert_eq!(report.exposed_communication_ns(), 60.0);
        assert_eq!(report.span_for_entry(1).unwrap().start_ns, 50.0);
    }
}
