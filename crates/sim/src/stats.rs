//! Simulation reports: completion time, per-dimension utilisation and the
//! frontend-activity timeline.

use themis_collectives::PhaseOp;
use themis_core::StageOp;
use themis_net::NetworkTopology;

/// A chunk-op completion as recorded inside the simulation loops: indices and
/// times only, no label. Labels are interned and resolved once when the final
/// report is assembled ([`LabelInterner`]), so the hot loop never formats or
/// clones a `String`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct RawOp {
    pub dim: usize,
    pub chunk: usize,
    pub stage: usize,
    pub start_ns: f64,
    pub end_ns: f64,
}

/// Interned stage-op labels: every possible `(dimension, phase op)` label of a
/// topology is formatted exactly once, and op records clone the interned
/// string instead of re-running the formatting machinery per executed op.
#[derive(Debug)]
pub(crate) struct LabelInterner {
    /// Indexed by `dim * 3 + phase-op index`.
    labels: Vec<String>,
}

impl LabelInterner {
    const OPS: [PhaseOp; 3] = [
        PhaseOp::ReduceScatter,
        PhaseOp::AllGather,
        PhaseOp::AllToAll,
    ];

    /// Pre-formats all labels for a `num_dims`-dimensional topology.
    pub(crate) fn for_dims(num_dims: usize) -> Self {
        let mut labels = Vec::with_capacity(num_dims * Self::OPS.len());
        for dim in 0..num_dims {
            for op in Self::OPS {
                labels.push(StageOp::new(dim, op).to_string());
            }
        }
        LabelInterner { labels }
    }

    /// The interned label of `stage` (clones the pre-formatted string).
    pub(crate) fn label(&self, stage: &StageOp) -> String {
        let op_index = match stage.op {
            PhaseOp::ReduceScatter => 0,
            PhaseOp::AllGather => 1,
            PhaseOp::AllToAll => 2,
        };
        self.labels[stage.dim * Self::OPS.len() + op_index].clone()
    }

    /// Materialises a [`RawOp`] into the public [`OpRecord`], resolving the
    /// label through the intern table. `stage_op` must be the stage the raw op
    /// executed.
    pub(crate) fn materialise(&self, raw: &RawOp, stage_op: &StageOp) -> OpRecord {
        OpRecord {
            dim: raw.dim,
            chunk: raw.chunk,
            stage: raw.stage,
            label: self.label(stage_op),
            start_ns: raw.start_ns,
            end_ns: raw.end_ns,
        }
    }
}

/// Per-dimension statistics collected during a simulation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DimReport {
    /// Aggregate per-NPU bandwidth of the dimension, bytes per nanosecond.
    pub bandwidth_bytes_per_ns: f64,
    /// Time the dimension spent executing at least one chunk op, ns.
    pub busy_ns: f64,
    /// Total bytes each NPU injected into the dimension (`N_K` of Sec. 4.4).
    pub wire_bytes: f64,
    /// Number of chunk operations executed on the dimension.
    pub ops_executed: usize,
    /// Intervals `[start, end)` (ns) during which the dimension had at least
    /// one chunk present (active or queued) — the paper's "frontend activity".
    pub presence_intervals: Vec<(f64, f64)>,
}

impl DimReport {
    /// The time (ns) this dimension would need to push its wire bytes at full
    /// bandwidth — the lower bound on its busy time.
    pub fn transfer_time_ns(&self) -> f64 {
        if self.bandwidth_bytes_per_ns > 0.0 {
            self.wire_bytes / self.bandwidth_bytes_per_ns
        } else {
            0.0
        }
    }

    /// Fraction of `total_ns` during which the dimension was transferring data
    /// at full bandwidth (the per-dimension BW utilisation).
    pub fn bw_utilization(&self, total_ns: f64) -> f64 {
        if total_ns <= 0.0 {
            return 0.0;
        }
        (self.transfer_time_ns() / total_ns).clamp(0.0, 1.0)
    }

    /// Total presence time (ns): how long at least one chunk was present.
    pub fn presence_ns(&self) -> f64 {
        self.presence_intervals.iter().map(|(s, e)| e - s).sum()
    }
}

/// One executed chunk operation, as recorded by the simulator's trace
/// (the data behind the pipeline diagrams of Fig. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct OpRecord {
    /// Dimension the op executed on.
    pub dim: usize,
    /// Chunk index within the collective.
    pub chunk: usize,
    /// Stage index within the chunk's pipeline schedule.
    pub stage: usize,
    /// Human-readable stage label (e.g. `RS@dim1`).
    pub label: String,
    /// Start time, ns.
    pub start_ns: f64,
    /// End time, ns.
    pub end_ns: f64,
}

impl OpRecord {
    /// Duration of the op, ns.
    pub fn duration_ns(&self) -> f64 {
        self.end_ns - self.start_ns
    }
}

/// The result of simulating one collective schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Name of the scheduler that produced the executed schedule.
    pub scheduler_name: String,
    /// Topology name the schedule was executed on.
    pub topology_name: String,
    /// Total completion time of the collective, ns.
    pub total_time_ns: f64,
    /// Width of the activity windows used by [`SimReport::activity_rates`], ns.
    pub activity_window_ns: f64,
    /// Per-dimension statistics.
    pub dims: Vec<DimReport>,
    /// Trace of every executed chunk op, in completion order.
    pub op_log: Vec<OpRecord>,
}

impl SimReport {
    /// Creates an empty report for `topo` (used internally by the simulator).
    pub(crate) fn empty(
        topo: &NetworkTopology,
        scheduler_name: &str,
        activity_window_ns: f64,
    ) -> Self {
        SimReport {
            scheduler_name: scheduler_name.to_string(),
            topology_name: topo.name().to_string(),
            total_time_ns: 0.0,
            activity_window_ns,
            dims: topo
                .dims()
                .iter()
                .map(|d| DimReport {
                    bandwidth_bytes_per_ns: d.aggregate_bandwidth().as_bytes_per_ns(),
                    ..DimReport::default()
                })
                .collect(),
            op_log: Vec::new(),
        }
    }

    /// The executed ops of one dimension, ordered by start time.
    pub fn ops_on_dim(&self, dim: usize) -> Vec<&OpRecord> {
        let mut ops: Vec<&OpRecord> = self.op_log.iter().filter(|op| op.dim == dim).collect();
        ops.sort_by(|a, b| {
            a.start_ns
                .partial_cmp(&b.start_ns)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        ops
    }

    /// Renders the op trace as a per-dimension ASCII timeline of `width`
    /// characters (a textual version of the Fig. 5 pipeline diagrams). Each
    /// lane shows `#` where the dimension is executing a chunk op and `.`
    /// where it is idle.
    pub fn ascii_timeline(&self, width: usize) -> String {
        if self.total_time_ns <= 0.0 || width == 0 {
            return String::new();
        }
        let scale = width as f64 / self.total_time_ns;
        let mut lines = Vec::with_capacity(self.dims.len());
        for dim in 0..self.dims.len() {
            let mut lane = vec!['.'; width];
            for op in self.ops_on_dim(dim) {
                let start = ((op.start_ns * scale).floor() as usize).min(width - 1);
                let end = ((op.end_ns * scale).ceil() as usize).clamp(start + 1, width);
                for cell in lane.iter_mut().take(end).skip(start) {
                    *cell = '#';
                }
            }
            lines.push(format!(
                "dim{}: {}",
                dim + 1,
                lane.into_iter().collect::<String>()
            ));
        }
        lines.join("\n")
    }

    /// Completion time in microseconds.
    pub fn total_time_us(&self) -> f64 {
        self.total_time_ns / 1_000.0
    }

    /// Number of network dimensions.
    pub fn num_dims(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension BW utilisation over the collective's lifetime.
    pub fn per_dim_utilization(&self) -> Vec<f64> {
        self.dims
            .iter()
            .map(|d| d.bw_utilization(self.total_time_ns))
            .collect()
    }

    /// The paper's average BW utilisation (Sec. 3): the weighted average of the
    /// per-dimension utilisations, weighted by each dimension's bandwidth
    /// budget. Equivalently `Σ_d wire_bytes_d / (T × Σ_d BW_d)`.
    pub fn average_bw_utilization(&self) -> f64 {
        let total_bw: f64 = self.dims.iter().map(|d| d.bandwidth_bytes_per_ns).sum();
        if total_bw <= 0.0 || self.total_time_ns <= 0.0 {
            return 0.0;
        }
        let weighted: f64 = self
            .dims
            .iter()
            .map(|d| d.bw_utilization(self.total_time_ns) * d.bandwidth_bytes_per_ns)
            .sum();
        (weighted / total_bw).clamp(0.0, 1.0)
    }

    /// Total bytes each NPU injected across all dimensions.
    pub fn total_wire_bytes(&self) -> f64 {
        self.dims.iter().map(|d| d.wire_bytes).sum()
    }

    /// Per-dimension idle time: completion time minus busy time.
    pub fn per_dim_idle_ns(&self) -> Vec<f64> {
        self.dims
            .iter()
            .map(|d| (self.total_time_ns - d.busy_ns).max(0.0))
            .collect()
    }

    /// The frontend-activity rate timeline of Fig. 9: for every dimension, the
    /// fraction of each `activity_window_ns` window during which the dimension
    /// had at least one chunk present. All dimensions use the same number of
    /// windows (covering `[0, total_time_ns)`).
    pub fn activity_rates(&self) -> Vec<Vec<f64>> {
        let window = self.activity_window_ns;
        if window <= 0.0 || self.total_time_ns <= 0.0 {
            return vec![Vec::new(); self.dims.len()];
        }
        let num_windows = (self.total_time_ns / window).ceil() as usize;
        self.dims
            .iter()
            .map(|dim| {
                let mut rates = vec![0.0f64; num_windows];
                for &(start, end) in &dim.presence_intervals {
                    let first = (start / window).floor() as usize;
                    let last = ((end / window).ceil() as usize).min(num_windows);
                    for (w, rate) in rates.iter_mut().enumerate().take(last).skip(first) {
                        let w_start = w as f64 * window;
                        let w_end = w_start + window;
                        let overlap = (end.min(w_end) - start.max(w_start)).max(0.0);
                        *rate += overlap / window;
                    }
                }
                for rate in &mut rates {
                    *rate = rate.clamp(0.0, 1.0);
                }
                rates
            })
            .collect()
    }

    /// Speedup of this run relative to `other` (other time / this time).
    pub fn speedup_over(&self, other: &SimReport) -> f64 {
        if self.total_time_ns <= 0.0 {
            return f64::INFINITY;
        }
        other.total_time_ns / self.total_time_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_net::presets::PresetTopology;

    fn report_with(dims: Vec<DimReport>, total_ns: f64) -> SimReport {
        SimReport {
            scheduler_name: "test".to_string(),
            topology_name: "test-topo".to_string(),
            total_time_ns: total_ns,
            activity_window_ns: 100.0,
            dims,
            op_log: Vec::new(),
        }
    }

    #[test]
    fn per_dim_and_average_utilization() {
        // dim0: 100 B/ns, moved 50_000 B in 1000 ns → 50 % busy with transfers.
        // dim1: 50 B/ns, moved 50_000 B in 1000 ns → 100 %.
        let dims = vec![
            DimReport {
                bandwidth_bytes_per_ns: 100.0,
                wire_bytes: 50_000.0,
                busy_ns: 500.0,
                ops_executed: 1,
                presence_intervals: vec![(0.0, 500.0)],
            },
            DimReport {
                bandwidth_bytes_per_ns: 50.0,
                wire_bytes: 50_000.0,
                busy_ns: 1000.0,
                ops_executed: 1,
                presence_intervals: vec![(0.0, 1000.0)],
            },
        ];
        let report = report_with(dims, 1000.0);
        let per_dim = report.per_dim_utilization();
        assert!((per_dim[0] - 0.5).abs() < 1e-9);
        assert!((per_dim[1] - 1.0).abs() < 1e-9);
        // Weighted by BW: (0.5×100 + 1.0×50) / 150 = 2/3.
        assert!((report.average_bw_utilization() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(report.total_wire_bytes(), 100_000.0);
        assert_eq!(report.per_dim_idle_ns(), vec![500.0, 0.0]);
        assert_eq!(report.num_dims(), 2);
        assert_eq!(report.total_time_us(), 1.0);
    }

    #[test]
    fn activity_rates_cover_presence_intervals() {
        let dims = vec![DimReport {
            bandwidth_bytes_per_ns: 1.0,
            wire_bytes: 0.0,
            busy_ns: 0.0,
            ops_executed: 0,
            presence_intervals: vec![(0.0, 150.0), (250.0, 300.0)],
        }];
        let report = report_with(dims, 400.0);
        let rates = report.activity_rates();
        assert_eq!(rates.len(), 1);
        assert_eq!(rates[0].len(), 4);
        assert!((rates[0][0] - 1.0).abs() < 1e-9); // [0, 100): fully present
        assert!((rates[0][1] - 0.5).abs() < 1e-9); // [100, 200): 50 ns present
        assert!((rates[0][2] - 0.5).abs() < 1e-9); // [200, 300): 50 ns present
        assert!((rates[0][3] - 0.0).abs() < 1e-9); // [300, 400): idle
    }

    #[test]
    fn speedup_compares_total_times() {
        let fast = report_with(vec![], 500.0);
        let slow = report_with(vec![], 1_000.0);
        assert!((fast.speedup_over(&slow) - 2.0).abs() < 1e-9);
        assert!((slow.speedup_over(&fast) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_report_matches_topology() {
        let topo = PresetTopology::SwSwSw3dHetero.build();
        let report = SimReport::empty(&topo, "Baseline", 100_000.0);
        assert_eq!(report.num_dims(), 3);
        assert_eq!(report.scheduler_name, "Baseline");
        assert_eq!(report.topology_name, "3D-SW_SW_SW_hetero");
        assert_eq!(report.dims[0].bandwidth_bytes_per_ns, 200.0);
        assert_eq!(report.average_bw_utilization(), 0.0);
    }

    #[test]
    fn ascii_timeline_marks_busy_and_idle_spans() {
        let mut report = report_with(
            vec![
                DimReport {
                    bandwidth_bytes_per_ns: 1.0,
                    ..DimReport::default()
                };
                2
            ],
            100.0,
        );
        report.op_log = vec![
            OpRecord {
                dim: 0,
                chunk: 0,
                stage: 0,
                label: "RS@dim1".to_string(),
                start_ns: 0.0,
                end_ns: 50.0,
            },
            OpRecord {
                dim: 1,
                chunk: 0,
                stage: 1,
                label: "RS@dim2".to_string(),
                start_ns: 50.0,
                end_ns: 100.0,
            },
        ];
        assert_eq!(report.op_log[0].duration_ns(), 50.0);
        assert_eq!(report.ops_on_dim(0).len(), 1);
        assert_eq!(report.ops_on_dim(1)[0].label, "RS@dim2");
        let timeline = report.ascii_timeline(10);
        let lines: Vec<&str> = timeline.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("dim1: #####....."));
        assert!(lines[1].starts_with("dim2: .....#####"));
        assert!(report.ascii_timeline(0).is_empty());
    }

    #[test]
    fn dim_report_helpers() {
        let dim = DimReport {
            bandwidth_bytes_per_ns: 10.0,
            wire_bytes: 1000.0,
            busy_ns: 120.0,
            ops_executed: 3,
            presence_intervals: vec![(0.0, 60.0), (80.0, 120.0)],
        };
        assert_eq!(dim.transfer_time_ns(), 100.0);
        assert_eq!(dim.presence_ns(), 100.0);
        assert!((dim.bw_utilization(200.0) - 0.5).abs() < 1e-9);
        assert_eq!(dim.bw_utilization(0.0), 0.0);
    }
}
