//! The per-chunk, per-dimension latency model of Sec. 4.4.
//!
//! The total latency of a chunk operation on dimension `K` is
//!
//! ```text
//! Latency(dimK) = A_K + N_K × B_K
//!     A_K = number_of_steps × step_latency
//!     N_K = bytes the NPU sends on dimK for this chunk
//!     B_K = per-byte latency = 1 / aggregate bandwidth
//! ```
//!
//! [`CostModel`] evaluates this expression for a chunk on a dimension. The
//! same model is used by the Themis `LatencyModel` component (to predict
//! loads) and by the discrete-event simulator (to execute chunk stages), which
//! guarantees the schedule-consistency property of Sec. 4.6.1.

use crate::algorithm::{algorithm_for, AlgorithmKind};
use crate::error::CollectiveError;
use crate::kind::PhaseOp;
use themis_net::{DimensionSpec, TopologyKind};

/// Configuration of in-network (switch) collective offload (Sec. 4.5).
///
/// Offload reduces both the traffic each NPU injects (`N_K`) and the fixed
/// per-collective delay (`A_K`) on switch dimensions. The reduction factors
/// are expressed as multipliers in `(0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffloadConfig {
    /// Multiplier applied to the bytes-on-wire on switch dimensions.
    pub traffic_factor: f64,
    /// Multiplier applied to the fixed delay on switch dimensions.
    pub fixed_delay_factor: f64,
}

impl OffloadConfig {
    /// In-network reduction halves the wire traffic (data crosses each link
    /// once instead of once per direction of the reduction tree) and performs
    /// the reduction in a single switch traversal.
    pub fn typical_sharp_like() -> Self {
        OffloadConfig {
            traffic_factor: 0.5,
            fixed_delay_factor: 0.5,
        }
    }

    fn validated(self) -> Result<Self, CollectiveError> {
        for factor in [self.traffic_factor, self.fixed_delay_factor] {
            if !(factor.is_finite() && factor > 0.0 && factor <= 1.0) {
                return Err(CollectiveError::InvalidSize { bytes: factor });
            }
        }
        Ok(self)
    }
}

/// The predicted cost of one chunk phase op on one dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkCost {
    /// Fixed delay `A_K` in nanoseconds (steps × step latency).
    pub fixed_delay_ns: f64,
    /// Bandwidth-proportional transfer time `N_K × B_K` in nanoseconds.
    pub transfer_ns: f64,
    /// Bytes the NPU injects into the dimension for this chunk (`N_K`).
    pub wire_bytes: f64,
    /// Resident per-NPU chunk size *after* the op completes, in bytes.
    pub resident_bytes_after: f64,
    /// Algorithm used on the dimension.
    pub algorithm: AlgorithmKind,
    /// Number of algorithm steps.
    pub steps: u64,
}

impl ChunkCost {
    /// Total predicted latency (`A_K + N_K × B_K`) in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.fixed_delay_ns + self.transfer_ns
    }
}

/// Evaluates the Sec. 4.4 latency model on dimensions of a topology.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostModel {
    offload: Option<OffloadConfig>,
}

impl CostModel {
    /// Cost model without in-network collective offload (the paper's default
    /// evaluation configuration).
    pub fn new() -> Self {
        CostModel { offload: None }
    }

    /// Cost model with in-network collective offload enabled on switch
    /// dimensions (Sec. 4.5).
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::InvalidSize`] if either factor is outside
    /// `(0, 1]` or not finite.
    pub fn with_offload(config: OffloadConfig) -> Result<Self, CollectiveError> {
        Ok(CostModel {
            offload: Some(config.validated()?),
        })
    }

    /// `true` if in-network offload is enabled.
    pub fn offload_enabled(&self) -> bool {
        self.offload.is_some()
    }

    /// A structural fingerprint of the model's parameters (FNV-1a over the
    /// offload configuration), suitable for keying cost-table caches: two
    /// models with equal fingerprints evaluate every chunk cost identically.
    ///
    /// The factors are hashed by their IEEE-754 bit patterns; they are
    /// validated finite and positive, so bit equality coincides with value
    /// equality.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut hash = OFFSET;
        let mut mix = |value: u64| {
            for byte in value.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(PRIME);
            }
        };
        match self.offload {
            None => mix(0),
            Some(config) => {
                mix(1);
                mix(config.traffic_factor.to_bits());
                mix(config.fixed_delay_factor.to_bits());
            }
        }
        hash
    }

    /// Evaluates the cost of running `op` for a resident chunk of
    /// `chunk_bytes` on `dim`.
    ///
    /// # Errors
    ///
    /// Returns [`CollectiveError::InvalidSize`] if `chunk_bytes` is negative
    /// or not finite.
    pub fn chunk_cost(
        &self,
        dim: &DimensionSpec,
        op: PhaseOp,
        chunk_bytes: f64,
    ) -> Result<ChunkCost, CollectiveError> {
        if !chunk_bytes.is_finite() || chunk_bytes < 0.0 {
            return Err(CollectiveError::InvalidSize { bytes: chunk_bytes });
        }
        let algorithm = algorithm_for(dim.kind());
        let p = dim.size();
        let steps = algorithm.steps(op, p);
        let mut fixed_delay_ns = steps as f64 * dim.step_latency_ns();
        let mut wire_bytes = algorithm.wire_bytes_per_npu(op, p, chunk_bytes);
        if let Some(offload) = self.offload {
            if dim.kind() == TopologyKind::Switch {
                wire_bytes *= offload.traffic_factor;
                fixed_delay_ns *= offload.fixed_delay_factor;
            }
        }
        let transfer_ns = wire_bytes / dim.aggregate_bandwidth().as_bytes_per_ns();
        Ok(ChunkCost {
            fixed_delay_ns,
            transfer_ns,
            wire_bytes,
            resident_bytes_after: op.resident_size_after(chunk_bytes, p),
            algorithm,
            steps,
        })
    }

    /// The fixed delay `A_K` of a dimension for a phase op (used to initialise
    /// the Themis `DimLoadTracker`, Sec. 4.4).
    pub fn fixed_delay_ns(&self, dim: &DimensionSpec, op: PhaseOp) -> f64 {
        let algorithm = algorithm_for(dim.kind());
        let mut delay = algorithm.steps(op, dim.size()) as f64 * dim.step_latency_ns();
        if let Some(offload) = self.offload {
            if dim.kind() == TopologyKind::Switch {
                delay *= offload.fixed_delay_factor;
            }
        }
        delay
    }

    /// The bandwidth-only transfer time (no fixed delay) of moving
    /// `chunk_bytes` through `dim` for `op`, in nanoseconds. Convenience for
    /// threshold computations.
    pub fn transfer_only_ns(&self, dim: &DimensionSpec, op: PhaseOp, chunk_bytes: f64) -> f64 {
        let algorithm = algorithm_for(dim.kind());
        let mut wire_bytes = algorithm.wire_bytes_per_npu(op, dim.size(), chunk_bytes.max(0.0));
        if let Some(offload) = self.offload {
            if dim.kind() == TopologyKind::Switch {
                wire_bytes *= offload.traffic_factor;
            }
        }
        wire_bytes / dim.aggregate_bandwidth().as_bytes_per_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_net::TopologyKind;

    fn switch_dim(p: usize, aggregate_gbps: f64, latency_ns: f64) -> DimensionSpec {
        DimensionSpec::with_aggregate_bandwidth(TopologyKind::Switch, p, aggregate_gbps, latency_ns)
            .unwrap()
    }

    #[test]
    fn fig5_example_stage_latency_ratio() {
        // Fig. 5: a 4×4 2D network with BW(dim1) = 2 × BW(dim2). A 64 MB chunk
        // Reduce-Scattered on dim1 takes 1 unit; the resulting 16 MB chunk
        // Reduce-Scattered on dim2 takes 0.5 units.
        let mb = 1024.0 * 1024.0;
        let model = CostModel::new();
        let dim1 = switch_dim(4, 800.0, 0.0);
        let dim2 = switch_dim(4, 400.0, 0.0);
        let stage1 = model
            .chunk_cost(&dim1, PhaseOp::ReduceScatter, 64.0 * mb)
            .unwrap();
        let stage2 = model
            .chunk_cost(&dim2, PhaseOp::ReduceScatter, stage1.resident_bytes_after)
            .unwrap();
        assert!((stage1.resident_bytes_after - 16.0 * mb).abs() < 1e-6);
        let ratio = stage2.total_ns() / stage1.total_ns();
        assert!((ratio - 0.5).abs() < 1e-9, "ratio was {ratio}");
    }

    #[test]
    fn cost_includes_fixed_delay() {
        let model = CostModel::new();
        // 8-NPU switch: halving-doubling, 3 steps of 700 ns each.
        let dim = switch_dim(8, 400.0, 700.0);
        let cost = model.chunk_cost(&dim, PhaseOp::AllGather, 0.0).unwrap();
        assert_eq!(cost.steps, 3);
        assert_eq!(cost.fixed_delay_ns, 2100.0);
        assert_eq!(cost.transfer_ns, 0.0);
        assert_eq!(cost.total_ns(), 2100.0);
        assert_eq!(model.fixed_delay_ns(&dim, PhaseOp::AllGather), 2100.0);
    }

    #[test]
    fn transfer_time_matches_bandwidth() {
        let model = CostModel::new();
        // 800 Gbps = 100 bytes/ns; 2-NPU switch sends half the chunk.
        let dim = switch_dim(2, 800.0, 0.0);
        let cost = model
            .chunk_cost(&dim, PhaseOp::ReduceScatter, 200_000.0)
            .unwrap();
        assert!((cost.wire_bytes - 100_000.0).abs() < 1e-9);
        assert!((cost.transfer_ns - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn ring_dimension_uses_ring_algorithm() {
        let model = CostModel::new();
        let dim =
            DimensionSpec::with_aggregate_bandwidth(TopologyKind::Ring, 4, 1000.0, 20.0).unwrap();
        let cost = model
            .chunk_cost(&dim, PhaseOp::ReduceScatter, 1_000_000.0)
            .unwrap();
        assert_eq!(cost.algorithm, AlgorithmKind::Ring);
        assert_eq!(cost.steps, 3);
        assert_eq!(cost.fixed_delay_ns, 60.0);
    }

    #[test]
    fn rejects_invalid_chunk_sizes() {
        let model = CostModel::new();
        let dim = switch_dim(4, 400.0, 0.0);
        for bad in [-1.0, f64::NAN, f64::INFINITY] {
            assert!(
                model.chunk_cost(&dim, PhaseOp::AllGather, bad).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn offload_reduces_switch_cost_only() {
        let plain = CostModel::new();
        let offloaded = CostModel::with_offload(OffloadConfig::typical_sharp_like()).unwrap();
        assert!(offloaded.offload_enabled());
        let sw = switch_dim(8, 400.0, 700.0);
        let ring =
            DimensionSpec::with_aggregate_bandwidth(TopologyKind::Ring, 8, 400.0, 700.0).unwrap();
        let chunk = 1e7;

        let sw_plain = plain
            .chunk_cost(&sw, PhaseOp::ReduceScatter, chunk)
            .unwrap();
        let sw_off = offloaded
            .chunk_cost(&sw, PhaseOp::ReduceScatter, chunk)
            .unwrap();
        assert!(sw_off.total_ns() < sw_plain.total_ns());
        assert!((sw_off.wire_bytes - sw_plain.wire_bytes * 0.5).abs() < 1e-6);

        let ring_plain = plain
            .chunk_cost(&ring, PhaseOp::ReduceScatter, chunk)
            .unwrap();
        let ring_off = offloaded
            .chunk_cost(&ring, PhaseOp::ReduceScatter, chunk)
            .unwrap();
        assert_eq!(ring_plain, ring_off);
    }

    #[test]
    fn offload_config_validation() {
        for bad in [0.0, -0.5, 1.5, f64::NAN] {
            let cfg = OffloadConfig {
                traffic_factor: bad,
                fixed_delay_factor: 0.5,
            };
            assert!(CostModel::with_offload(cfg).is_err(), "{bad}");
        }
    }

    #[test]
    fn transfer_only_excludes_latency() {
        let model = CostModel::new();
        let dim = switch_dim(4, 800.0, 700.0);
        let chunk = 400_000.0;
        let cost = model
            .chunk_cost(&dim, PhaseOp::ReduceScatter, chunk)
            .unwrap();
        let transfer_only = model.transfer_only_ns(&dim, PhaseOp::ReduceScatter, chunk);
        assert!((cost.transfer_ns - transfer_only).abs() < 1e-9);
        assert!(cost.total_ns() > transfer_only);
    }

    #[test]
    fn fingerprints_distinguish_cost_model_parameters() {
        let plain = CostModel::new();
        assert_eq!(plain.fingerprint(), CostModel::default().fingerprint());
        let offloaded = CostModel::with_offload(OffloadConfig::typical_sharp_like()).unwrap();
        assert_ne!(plain.fingerprint(), offloaded.fingerprint());
        let other = CostModel::with_offload(OffloadConfig {
            traffic_factor: 0.5,
            fixed_delay_factor: 0.25,
        })
        .unwrap();
        assert_ne!(offloaded.fingerprint(), other.fingerprint());
        assert_eq!(offloaded.fingerprint(), offloaded.fingerprint());
    }

    #[test]
    fn larger_chunks_cost_more() {
        let model = CostModel::new();
        let dim = switch_dim(16, 1200.0, 700.0);
        let mut last = 0.0;
        for size in [1e5, 1e6, 1e7, 1e8] {
            let cost = model
                .chunk_cost(&dim, PhaseOp::ReduceScatter, size)
                .unwrap();
            assert!(cost.total_ns() > last);
            last = cost.total_ns();
        }
    }
}
