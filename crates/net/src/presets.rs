//! The evaluated platforms of the paper.
//!
//! [`current_generation_2d`] models the "current topology" of Fig. 4 (a DGX-2
//! style system with 1200 Gbps intra-node and 100 Gbps NIC bandwidth per NPU),
//! and [`next_generation_suite`] returns the six next-generation 1024-NPU
//! topologies of Table 2.

use crate::dimension::{DimensionSpec, TopologyKind};
use crate::error::NetError;
use crate::topology::NetworkTopology;

/// Identifier of one of the predefined platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PresetTopology {
    /// The "current" 2D platform of Fig. 4 (16×64, 1200/100 Gbps).
    Current2d,
    /// `2D-SW_SW`: 16×64, aggregate BW (1200, 800) Gbps.
    Sw2d,
    /// `3D-SW_SW_SW_homo`: 16×8×8, aggregate BW (800, 800, 800) Gbps.
    SwSwSw3dHomo,
    /// `3D-SW_SW_SW_hetero`: 16×8×8, aggregate BW (1600, 800, 400) Gbps.
    SwSwSw3dHetero,
    /// `3D-FC_Ring_SW`: 8×16×8, aggregate BW (1400, 800, 400) Gbps.
    FcRingSw3d,
    /// `4D-Ring_SW_SW_SW`: 4×4×8×8, aggregate BW (2000, 1600, 800, 400) Gbps.
    RingSwSwSw4d,
    /// `4D-Ring_FC_Ring_SW`: 4×8×4×8, aggregate BW (3000, 1400, 1200, 800) Gbps.
    RingFcRingSw4d,
}

impl PresetTopology {
    /// All presets (the current system followed by the Table 2 suite).
    pub fn all() -> [PresetTopology; 7] {
        [
            PresetTopology::Current2d,
            PresetTopology::Sw2d,
            PresetTopology::SwSwSw3dHomo,
            PresetTopology::SwSwSw3dHetero,
            PresetTopology::FcRingSw3d,
            PresetTopology::RingSwSwSw4d,
            PresetTopology::RingFcRingSw4d,
        ]
    }

    /// The six next-generation presets of Table 2 (excludes the current system).
    pub fn next_generation() -> [PresetTopology; 6] {
        [
            PresetTopology::Sw2d,
            PresetTopology::SwSwSw3dHomo,
            PresetTopology::SwSwSw3dHetero,
            PresetTopology::FcRingSw3d,
            PresetTopology::RingSwSwSw4d,
            PresetTopology::RingFcRingSw4d,
        ]
    }

    /// Canonical name used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            PresetTopology::Current2d => "Current-2D",
            PresetTopology::Sw2d => "2D-SW_SW",
            PresetTopology::SwSwSw3dHomo => "3D-SW_SW_SW_homo",
            PresetTopology::SwSwSw3dHetero => "3D-SW_SW_SW_hetero",
            PresetTopology::FcRingSw3d => "3D-FC_Ring_SW",
            PresetTopology::RingSwSwSw4d => "4D-Ring_SW_SW_SW",
            PresetTopology::RingFcRingSw4d => "4D-Ring_FC_Ring_SW",
        }
    }

    /// Builds the concrete [`NetworkTopology`] for this preset.
    pub fn build(&self) -> NetworkTopology {
        // All presets are statically valid; `expect` documents that invariant.
        let build = |dims: Vec<DimensionSpec>| {
            NetworkTopology::new(self.name(), dims).expect("preset topologies are statically valid")
        };
        let dim = |kind, size, link_gbps, links, latency_ns| {
            DimensionSpec::new(kind, size, link_gbps, links, latency_ns)
                .expect("preset dimensions are statically valid")
        };
        use TopologyKind::{FullyConnected as Fc, Ring, Switch as Sw};
        match self {
            // Current platform (Sec. 3.2): dim1 1200 Gbps, dim2 100 Gbps.
            PresetTopology::Current2d => build(vec![
                dim(Sw, 16, 200.0, 6, 700.0),
                dim(Sw, 64, 100.0, 1, 1700.0),
            ]),
            PresetTopology::Sw2d => build(vec![
                dim(Sw, 16, 200.0, 6, 700.0),
                dim(Sw, 64, 800.0, 1, 1700.0),
            ]),
            PresetTopology::SwSwSw3dHomo => build(vec![
                dim(Sw, 16, 200.0, 4, 700.0),
                dim(Sw, 8, 200.0, 4, 700.0),
                dim(Sw, 8, 800.0, 1, 1700.0),
            ]),
            PresetTopology::SwSwSw3dHetero => build(vec![
                dim(Sw, 16, 200.0, 8, 700.0),
                dim(Sw, 8, 200.0, 4, 700.0),
                dim(Sw, 8, 400.0, 1, 1700.0),
            ]),
            PresetTopology::FcRingSw3d => build(vec![
                dim(Fc, 8, 200.0, 7, 700.0),
                dim(Ring, 16, 200.0, 4, 700.0),
                dim(Sw, 8, 400.0, 1, 1700.0),
            ]),
            PresetTopology::RingSwSwSw4d => build(vec![
                dim(Ring, 4, 1000.0, 2, 20.0),
                dim(Sw, 4, 200.0, 8, 700.0),
                dim(Sw, 8, 200.0, 4, 700.0),
                dim(Sw, 8, 400.0, 1, 1700.0),
            ]),
            PresetTopology::RingFcRingSw4d => build(vec![
                dim(Ring, 4, 1500.0, 2, 20.0),
                dim(Fc, 8, 200.0, 7, 700.0),
                dim(Ring, 4, 200.0, 6, 700.0),
                dim(Sw, 8, 800.0, 1, 1700.0),
            ]),
        }
    }
}

/// The "current generation" 2-dimensional platform used as the reference point
/// in Fig. 4 (1200 Gbps intra-node, 100 Gbps NIC, 16×64 = 1024 NPUs).
pub fn current_generation_2d() -> NetworkTopology {
    PresetTopology::Current2d.build()
}

/// The six next-generation platforms of Table 2, in the paper's order.
pub fn next_generation_suite() -> Vec<NetworkTopology> {
    PresetTopology::next_generation()
        .iter()
        .map(PresetTopology::build)
        .collect()
}

/// Looks a preset up by its paper name (e.g., `"3D-FC_Ring_SW"`).
///
/// # Errors
///
/// Returns [`NetError::UnknownPreset`] if the name does not match any preset.
pub fn preset_by_name(name: &str) -> Result<NetworkTopology, NetError> {
    PresetTopology::all()
        .iter()
        .find(|p| p.name().eq_ignore_ascii_case(name))
        .map(PresetTopology::build)
        .ok_or_else(|| NetError::UnknownPreset {
            name: name.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_have_1024_npus() {
        for preset in PresetTopology::all() {
            let topo = preset.build();
            assert_eq!(topo.num_npus(), 1024, "{}", topo.name());
        }
    }

    #[test]
    fn table2_sizes_match_paper() {
        assert_eq!(PresetTopology::Sw2d.build().dim_sizes(), vec![16, 64]);
        assert_eq!(
            PresetTopology::SwSwSw3dHomo.build().dim_sizes(),
            vec![16, 8, 8]
        );
        assert_eq!(
            PresetTopology::SwSwSw3dHetero.build().dim_sizes(),
            vec![16, 8, 8]
        );
        assert_eq!(
            PresetTopology::FcRingSw3d.build().dim_sizes(),
            vec![8, 16, 8]
        );
        assert_eq!(
            PresetTopology::RingSwSwSw4d.build().dim_sizes(),
            vec![4, 4, 8, 8]
        );
        assert_eq!(
            PresetTopology::RingFcRingSw4d.build().dim_sizes(),
            vec![4, 8, 4, 8]
        );
    }

    #[test]
    fn table2_aggregate_bandwidths_match_paper() {
        let agg = |p: PresetTopology| -> Vec<f64> {
            p.build()
                .dims()
                .iter()
                .map(|d| d.aggregate_bandwidth().as_gbps())
                .collect()
        };
        assert_eq!(agg(PresetTopology::Sw2d), vec![1200.0, 800.0]);
        assert_eq!(agg(PresetTopology::SwSwSw3dHomo), vec![800.0, 800.0, 800.0]);
        assert_eq!(
            agg(PresetTopology::SwSwSw3dHetero),
            vec![1600.0, 800.0, 400.0]
        );
        assert_eq!(agg(PresetTopology::FcRingSw3d), vec![1400.0, 800.0, 400.0]);
        assert_eq!(
            agg(PresetTopology::RingSwSwSw4d),
            vec![2000.0, 1600.0, 800.0, 400.0]
        );
        assert_eq!(
            agg(PresetTopology::RingFcRingSw4d),
            vec![3000.0, 1400.0, 1200.0, 800.0]
        );
    }

    #[test]
    fn table2_latencies_match_paper() {
        let lat = |p: PresetTopology| -> Vec<f64> {
            p.build()
                .dims()
                .iter()
                .map(|d| d.step_latency_ns())
                .collect()
        };
        assert_eq!(lat(PresetTopology::Sw2d), vec![700.0, 1700.0]);
        assert_eq!(
            lat(PresetTopology::RingSwSwSw4d),
            vec![20.0, 700.0, 700.0, 1700.0]
        );
        assert_eq!(
            lat(PresetTopology::RingFcRingSw4d),
            vec![20.0, 700.0, 700.0, 1700.0]
        );
    }

    #[test]
    fn table2_topology_kinds_match_names() {
        use TopologyKind::*;
        let kinds = |p: PresetTopology| -> Vec<TopologyKind> {
            p.build().dims().iter().map(|d| d.kind()).collect()
        };
        assert_eq!(
            kinds(PresetTopology::FcRingSw3d),
            vec![FullyConnected, Ring, Switch]
        );
        assert_eq!(
            kinds(PresetTopology::RingSwSwSw4d),
            vec![Ring, Switch, Switch, Switch]
        );
        assert_eq!(
            kinds(PresetTopology::RingFcRingSw4d),
            vec![Ring, FullyConnected, Ring, Switch]
        );
    }

    #[test]
    fn current_platform_bandwidths() {
        let topo = current_generation_2d();
        assert_eq!(topo.dim_bandwidth(0).unwrap().as_gbps(), 1200.0);
        assert_eq!(topo.dim_bandwidth(1).unwrap().as_gbps(), 100.0);
    }

    #[test]
    fn next_generation_suite_has_six_entries() {
        let suite = next_generation_suite();
        assert_eq!(suite.len(), 6);
        assert_eq!(suite[0].name(), "2D-SW_SW");
        assert_eq!(suite[5].name(), "4D-Ring_FC_Ring_SW");
    }

    #[test]
    fn preset_lookup_by_name() {
        assert_eq!(preset_by_name("3D-FC_Ring_SW").unwrap().num_dims(), 3);
        assert_eq!(preset_by_name("3d-fc_ring_sw").unwrap().num_dims(), 3);
        assert!(matches!(
            preset_by_name("5D-everything"),
            Err(NetError::UnknownPreset { .. })
        ));
    }
}
