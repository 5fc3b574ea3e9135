//! Schedule data structures produced by the chunk schedulers.

use crate::error::ScheduleError;
use std::fmt;
use themis_collectives::{CollectiveKind, PhaseOp};
use themis_net::{DataSize, NetworkTopology};

/// A collective operation requested by the training workload (Fig. 6, step 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CollectiveRequest {
    kind: CollectiveKind,
    size: DataSize,
}

impl CollectiveRequest {
    /// Creates a request for a collective of `kind` over `size` bytes of data
    /// resident on each NPU.
    pub fn new(kind: CollectiveKind, size: DataSize) -> Self {
        CollectiveRequest { kind, size }
    }

    /// Convenience constructor for an All-Reduce of `mib` mebibytes.
    pub fn all_reduce_mib(mib: f64) -> Self {
        CollectiveRequest::new(CollectiveKind::AllReduce, DataSize::from_mib(mib))
    }

    /// The collective pattern.
    pub fn kind(&self) -> CollectiveKind {
        self.kind
    }

    /// The per-NPU data size participating in the collective.
    pub fn size(&self) -> DataSize {
        self.size
    }
}

impl fmt::Display for CollectiveRequest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} of {}", self.kind, self.size)
    }
}

/// One stage of a chunk's pipeline: a phase op executed on a dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StageOp {
    /// Network dimension index (0-based; dim 0 is the paper's "dim1").
    pub dim: usize,
    /// Phase operation executed on the dimension.
    pub op: PhaseOp,
}

impl StageOp {
    /// Creates a stage op.
    pub fn new(dim: usize, op: PhaseOp) -> Self {
        StageOp { dim, op }
    }

    /// Shorthand for a Reduce-Scatter stage on `dim`.
    pub fn rs(dim: usize) -> Self {
        StageOp::new(dim, PhaseOp::ReduceScatter)
    }

    /// Shorthand for an All-Gather stage on `dim`.
    pub fn ag(dim: usize) -> Self {
        StageOp::new(dim, PhaseOp::AllGather)
    }
}

impl fmt::Display for StageOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@dim{}", self.op, self.dim + 1)
    }
}

/// The pipeline schedule of a single chunk: the ordered list of stage ops it
/// traverses, plus its initial size.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkSchedule {
    /// Index of the chunk within its collective (0-based).
    pub chunk_index: usize,
    /// Per-NPU size of the chunk before its first stage, in bytes.
    pub initial_bytes: f64,
    /// Ordered stages the chunk traverses.
    pub stages: Vec<StageOp>,
}

impl ChunkSchedule {
    /// The per-NPU resident size of the chunk at the *entry* of every stage,
    /// in bytes (`stage_entry_bytes()[i]` is the size entering `stages[i]`).
    pub fn stage_entry_bytes(&self, topo: &NetworkTopology) -> Vec<f64> {
        let mut sizes = Vec::with_capacity(self.stages.len());
        let mut current = self.initial_bytes;
        for stage in &self.stages {
            sizes.push(current);
            let p = topo.dims().get(stage.dim).map_or(1, |d| d.size());
            current = stage.op.resident_size_after(current, p);
        }
        sizes
    }

    /// The dimensions traversed during the Reduce-Scatter phase, in order.
    pub fn reduce_scatter_order(&self) -> Vec<usize> {
        self.stages
            .iter()
            .filter(|s| s.op == PhaseOp::ReduceScatter)
            .map(|s| s.dim)
            .collect()
    }

    /// The dimensions traversed during the All-Gather phase, in order.
    pub fn all_gather_order(&self) -> Vec<usize> {
        self.stages
            .iter()
            .filter(|s| s.op == PhaseOp::AllGather)
            .map(|s| s.dim)
            .collect()
    }

    /// Validates this chunk schedule against a topology and collective kind:
    /// each phase of the collective must visit every dimension exactly once,
    /// and all Reduce-Scatter stages must precede all All-Gather stages.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::InvalidConfig`] describing the violation.
    pub fn validate(
        &self,
        topo: &NetworkTopology,
        kind: CollectiveKind,
    ) -> Result<(), ScheduleError> {
        let num_dims = topo.num_dims();
        let expected_stages = kind.num_stages(num_dims);
        if self.stages.len() != expected_stages {
            return Err(ScheduleError::InvalidConfig {
                reason: format!(
                    "chunk {} has {} stages, expected {expected_stages} for {kind} on a \
                     {num_dims}-dimensional network",
                    self.chunk_index,
                    self.stages.len()
                ),
            });
        }
        // Visited-dimension sets as bitmasks: validation runs on every
        // simulator invocation, so it must not allocate. Topologies far
        // exceed u128 dimensions nowhere (practical machines have ≤ 5), but
        // the width is checked to keep the arithmetic sound.
        if num_dims > u128::BITS as usize {
            return Err(ScheduleError::InvalidConfig {
                reason: format!("{num_dims} network dimensions exceed the supported maximum 128"),
            });
        }
        let full: u128 = if num_dims == u128::BITS as usize {
            u128::MAX
        } else {
            (1u128 << num_dims) - 1
        };
        for phase in kind.phases() {
            let mut seen: u128 = 0;
            for stage in self.stages.iter().filter(|s| s.op == *phase) {
                if stage.dim >= num_dims {
                    return Err(ScheduleError::InvalidConfig {
                        reason: format!(
                            "chunk {} references dimension {}",
                            self.chunk_index, stage.dim
                        ),
                    });
                }
                let bit = 1u128 << stage.dim;
                if seen & bit != 0 {
                    return Err(ScheduleError::InvalidConfig {
                        reason: format!(
                            "chunk {} visits dimension {} twice during {phase}",
                            self.chunk_index, stage.dim
                        ),
                    });
                }
                seen |= bit;
            }
            if seen != full {
                return Err(ScheduleError::InvalidConfig {
                    reason: format!(
                        "chunk {} does not visit every dimension during {phase}",
                        self.chunk_index
                    ),
                });
            }
        }
        // The only synchronisation point (Observation 1): RS before AG.
        if kind == CollectiveKind::AllReduce {
            let last_rs = self
                .stages
                .iter()
                .rposition(|s| s.op == PhaseOp::ReduceScatter)
                .unwrap_or(0);
            let first_ag = self
                .stages
                .iter()
                .position(|s| s.op == PhaseOp::AllGather)
                .unwrap_or(self.stages.len());
            if first_ag < last_rs {
                return Err(ScheduleError::InvalidConfig {
                    reason: format!(
                        "chunk {} starts an All-Gather stage before completing its \
                         Reduce-Scatter stages",
                        self.chunk_index
                    ),
                });
            }
        }
        Ok(())
    }
}

/// The full schedule of one collective: one [`ChunkSchedule`] per chunk plus
/// the intra-dimension execution policy.
#[derive(Debug, Clone)]
pub struct CollectiveSchedule {
    request: CollectiveRequest,
    scheduler_name: String,
    intra_dim_policy: crate::intra_dim::IntraDimPolicy,
    chunks: Vec<ChunkSchedule>,
    /// Lazy cache of [`CollectiveSchedule::cost_fingerprint`]: the schedule
    /// is immutable after construction, so the chunk walk is paid once per
    /// schedule instead of once per cost-table cache lookup. Excluded from
    /// equality and serialisation — it is derived content.
    cost_fingerprint: std::sync::OnceLock<u64>,
}

impl PartialEq for CollectiveSchedule {
    fn eq(&self, other: &Self) -> bool {
        self.request == other.request
            && self.scheduler_name == other.scheduler_name
            && self.intra_dim_policy == other.intra_dim_policy
            && self.chunks == other.chunks
    }
}

impl CollectiveSchedule {
    /// Assembles a collective schedule.
    pub fn new(
        request: CollectiveRequest,
        scheduler_name: impl Into<String>,
        intra_dim_policy: crate::intra_dim::IntraDimPolicy,
        chunks: Vec<ChunkSchedule>,
    ) -> Self {
        CollectiveSchedule {
            request,
            scheduler_name: scheduler_name.into(),
            intra_dim_policy,
            chunks,
            cost_fingerprint: std::sync::OnceLock::new(),
        }
    }

    /// The request this schedule was generated for.
    pub fn request(&self) -> &CollectiveRequest {
        &self.request
    }

    /// Name of the scheduler that produced this schedule.
    pub fn scheduler_name(&self) -> &str {
        &self.scheduler_name
    }

    /// The intra-dimension chunk execution policy (Sec. 4.3).
    pub fn intra_dim_policy(&self) -> crate::intra_dim::IntraDimPolicy {
        self.intra_dim_policy
    }

    /// Per-chunk pipeline schedules.
    pub fn chunks(&self) -> &[ChunkSchedule] {
        &self.chunks
    }

    /// Total bytes of the collective covered by the chunks (should equal the
    /// request size).
    pub fn total_chunk_bytes(&self) -> f64 {
        self.chunks.iter().map(|c| c.initial_bytes).sum()
    }

    /// A fingerprint of everything the per-op *cost* of this schedule depends
    /// on: the chunk sizes and the per-chunk stage lists (dimension + phase
    /// op), hashed with FNV-1a. The scheduler name, intra-dimension policy and
    /// request are deliberately excluded — they do not enter the Sec. 4.4
    /// latency model, so schedules that differ only there (e.g. Themis+FIFO
    /// vs Themis+SCF, which emit the same chunk stage orders) share one
    /// fingerprint and therefore one cached cost table.
    pub fn cost_fingerprint(&self) -> u64 {
        *self.cost_fingerprint.get_or_init(|| {
            const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
            const PRIME: u64 = 0x0000_0100_0000_01b3;
            let mut hash = OFFSET;
            let mut mix = |value: u64| {
                for byte in value.to_le_bytes() {
                    hash ^= u64::from(byte);
                    hash = hash.wrapping_mul(PRIME);
                }
            };
            mix(self.chunks.len() as u64);
            for chunk in &self.chunks {
                mix(chunk.initial_bytes.to_bits());
                mix(chunk.stages.len() as u64);
                for stage in &chunk.stages {
                    mix(stage.dim as u64);
                    mix(match stage.op {
                        themis_collectives::PhaseOp::ReduceScatter => 0,
                        themis_collectives::PhaseOp::AllGather => 1,
                        themis_collectives::PhaseOp::AllToAll => 2,
                    });
                }
            }
            hash
        })
    }

    /// Validates every chunk schedule (see [`ChunkSchedule::validate`]).
    ///
    /// # Errors
    ///
    /// Returns the first validation error encountered.
    pub fn validate(&self, topo: &NetworkTopology) -> Result<(), ScheduleError> {
        for chunk in &self.chunks {
            chunk.validate(topo, self.request.kind())?;
        }
        Ok(())
    }

    /// Total bytes each NPU sends on every dimension under this schedule
    /// (`N_K` of Sec. 4.4), indexed by dimension.
    pub fn wire_bytes_per_dim(&self, topo: &NetworkTopology) -> Vec<f64> {
        use themis_collectives::algorithm_for;
        let mut totals = vec![0.0; topo.num_dims()];
        for chunk in &self.chunks {
            let sizes = chunk.stage_entry_bytes(topo);
            for (stage, entry) in chunk.stages.iter().zip(sizes) {
                if let Some(spec) = topo.dims().get(stage.dim) {
                    let alg = algorithm_for(spec.kind());
                    totals[stage.dim] += alg.wire_bytes_per_npu(stage.op, spec.size(), entry);
                }
            }
        }
        totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_net::{DimensionSpec, TopologyKind};

    fn topo_4x4() -> NetworkTopology {
        NetworkTopology::builder("4x4")
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

    fn baseline_chunk(index: usize, bytes: f64) -> ChunkSchedule {
        ChunkSchedule {
            chunk_index: index,
            initial_bytes: bytes,
            stages: vec![
                StageOp::rs(0),
                StageOp::rs(1),
                StageOp::ag(1),
                StageOp::ag(0),
            ],
        }
    }

    #[test]
    fn request_accessors() {
        let req = CollectiveRequest::all_reduce_mib(256.0);
        assert_eq!(req.kind(), CollectiveKind::AllReduce);
        assert_eq!(req.size(), DataSize::from_mib(256.0));
        assert!(req.to_string().contains("All-Reduce"));
    }

    #[test]
    fn stage_entry_sizes_follow_fig5() {
        // Fig. 5: a 64 MB chunk on a 4×4 network → 64, 16, 4, 16 MB entries.
        let topo = topo_4x4();
        let mb = 1024.0 * 1024.0;
        let chunk = baseline_chunk(0, 64.0 * mb);
        let entries = chunk.stage_entry_bytes(&topo);
        assert_eq!(entries.len(), 4);
        assert!((entries[0] - 64.0 * mb).abs() < 1e-6);
        assert!((entries[1] - 16.0 * mb).abs() < 1e-6);
        assert!((entries[2] - 4.0 * mb).abs() < 1e-6);
        assert!((entries[3] - 16.0 * mb).abs() < 1e-6);
    }

    #[test]
    fn phase_orders_are_extracted() {
        let chunk = ChunkSchedule {
            chunk_index: 0,
            initial_bytes: 1.0,
            stages: vec![
                StageOp::rs(1),
                StageOp::rs(0),
                StageOp::ag(0),
                StageOp::ag(1),
            ],
        };
        assert_eq!(chunk.reduce_scatter_order(), vec![1, 0]);
        assert_eq!(chunk.all_gather_order(), vec![0, 1]);
    }

    #[test]
    fn validation_accepts_all_four_2d_orders() {
        // Sec. 4.1 lists the 4 valid All-Reduce schedules on a 2D topology.
        let topo = topo_4x4();
        let orders = [
            vec![
                StageOp::rs(0),
                StageOp::rs(1),
                StageOp::ag(1),
                StageOp::ag(0),
            ],
            vec![
                StageOp::rs(1),
                StageOp::rs(0),
                StageOp::ag(1),
                StageOp::ag(0),
            ],
            vec![
                StageOp::rs(0),
                StageOp::rs(1),
                StageOp::ag(0),
                StageOp::ag(1),
            ],
            vec![
                StageOp::rs(1),
                StageOp::rs(0),
                StageOp::ag(0),
                StageOp::ag(1),
            ],
        ];
        for stages in orders {
            let chunk = ChunkSchedule {
                chunk_index: 0,
                initial_bytes: 1024.0,
                stages,
            };
            chunk.validate(&topo, CollectiveKind::AllReduce).unwrap();
        }
    }

    #[test]
    fn validation_rejects_bad_schedules() {
        let topo = topo_4x4();
        // Missing an AG stage.
        let missing = ChunkSchedule {
            chunk_index: 0,
            initial_bytes: 1.0,
            stages: vec![StageOp::rs(0), StageOp::rs(1), StageOp::ag(1)],
        };
        assert!(missing.validate(&topo, CollectiveKind::AllReduce).is_err());
        // Duplicate dimension during RS.
        let duplicate = ChunkSchedule {
            chunk_index: 0,
            initial_bytes: 1.0,
            stages: vec![
                StageOp::rs(0),
                StageOp::rs(0),
                StageOp::ag(1),
                StageOp::ag(0),
            ],
        };
        assert!(duplicate
            .validate(&topo, CollectiveKind::AllReduce)
            .is_err());
        // AG before RS finishes.
        let interleaved = ChunkSchedule {
            chunk_index: 0,
            initial_bytes: 1.0,
            stages: vec![
                StageOp::rs(0),
                StageOp::ag(1),
                StageOp::rs(1),
                StageOp::ag(0),
            ],
        };
        assert!(interleaved
            .validate(&topo, CollectiveKind::AllReduce)
            .is_err());
        // Out-of-range dimension.
        let out_of_range = ChunkSchedule {
            chunk_index: 0,
            initial_bytes: 1.0,
            stages: vec![
                StageOp::rs(0),
                StageOp::rs(2),
                StageOp::ag(2),
                StageOp::ag(0),
            ],
        };
        assert!(out_of_range
            .validate(&topo, CollectiveKind::AllReduce)
            .is_err());
    }

    #[test]
    fn collective_schedule_totals_and_validation() {
        let topo = topo_4x4();
        let mb = 1024.0 * 1024.0;
        let chunks: Vec<ChunkSchedule> = (0..4).map(|i| baseline_chunk(i, 64.0 * mb)).collect();
        let schedule = CollectiveSchedule::new(
            CollectiveRequest::all_reduce_mib(256.0),
            "baseline",
            crate::intra_dim::IntraDimPolicy::Fifo,
            chunks,
        );
        assert_eq!(schedule.chunks().len(), 4);
        assert!((schedule.total_chunk_bytes() - 256.0 * mb).abs() < 1.0);
        schedule.validate(&topo).unwrap();
        assert_eq!(schedule.scheduler_name(), "baseline");

        // Dimension wire bytes: dim0 carries RS(64 MB) + AG(16 MB) per chunk
        // = 48 + 48 = 96 MB; dim1 carries RS(16 MB) + AG(4 MB) = 12 + 12 = 24 MB.
        let wire = schedule.wire_bytes_per_dim(&topo);
        assert!((wire[0] - 4.0 * 96.0 * mb).abs() < 1.0);
        assert!((wire[1] - 4.0 * 24.0 * mb).abs() < 1.0);
    }

    #[test]
    fn stage_op_display() {
        assert_eq!(StageOp::rs(0).to_string(), "RS@dim1");
        assert_eq!(StageOp::ag(2).to_string(), "AG@dim3");
    }
}
