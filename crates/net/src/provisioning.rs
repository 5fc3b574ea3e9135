//! Bandwidth-provisioning analysis (Sec. 6.3 of the paper).
//!
//! For any two dimensions `dimK` and `dimL` with `K < L`, the paper compares
//! the actual bandwidth of `dimL` against the "just enough" value
//! `BW(dimK) / (P_K × P_{K+1} × ... × P_{L-1})`:
//!
//! * **Just enough** — the baseline (and Themis) can fully utilise both
//!   dimensions.
//! * **Over-provisioned** — `dimL` has more bandwidth than the baseline
//!   schedule can use; Themis redistributes load and recovers the excess.
//! * **Under-provisioned** — `dimL` has less bandwidth than even a balanced
//!   schedule needs; no scheduling policy can fully drive both dimensions, so
//!   the design point should be avoided.

use crate::topology::NetworkTopology;
use std::fmt;

/// Classification of a pair of dimensions according to Sec. 6.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProvisioningClass {
    /// `BW(dimK) = P_K × ... × P_{L-1} × BW(dimL)` (within tolerance).
    JustEnough,
    /// `BW(dimK) < P_K × ... × P_{L-1} × BW(dimL)`: the outer dimension has
    /// excess bandwidth that only a dynamic scheduler (Themis) can exploit.
    OverProvisioned,
    /// `BW(dimK) > P_K × ... × P_{L-1} × BW(dimL)`: the outer dimension is a
    /// hard bottleneck; no chunk schedule can fully drive both dimensions.
    UnderProvisioned,
}

impl fmt::Display for ProvisioningClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            ProvisioningClass::JustEnough => "just-enough",
            ProvisioningClass::OverProvisioned => "over-provisioned",
            ProvisioningClass::UnderProvisioned => "under-provisioned",
        };
        f.write_str(text)
    }
}

/// Result of classifying one `(dimK, dimL)` pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairClassification {
    /// Inner dimension index (`K`).
    pub inner: usize,
    /// Outer dimension index (`L`, with `L > K`).
    pub outer: usize,
    /// The actual bandwidth of the outer dimension, Gbps.
    pub outer_bandwidth_gbps: f64,
    /// The "just enough" bandwidth of the outer dimension implied by the
    /// baseline schedule, Gbps.
    pub just_enough_bandwidth_gbps: f64,
    /// Ratio `outer_bandwidth / just_enough_bandwidth` (>1 means over-provisioned).
    pub provisioning_ratio: f64,
    /// The classification.
    pub class: ProvisioningClass,
}

/// Full per-topology provisioning report.
#[derive(Debug, Clone, PartialEq)]
pub struct ProvisioningReport {
    /// Topology name the report was generated for.
    pub topology: String,
    /// Classification of every ordered dimension pair `(K, L)` with `K < L`.
    pub pairs: Vec<PairClassification>,
}

impl ProvisioningReport {
    /// `true` if any pair is under-provisioned (a design point the paper says
    /// should be prohibited).
    pub fn has_underprovisioned_pair(&self) -> bool {
        self.pairs
            .iter()
            .any(|p| p.class == ProvisioningClass::UnderProvisioned)
    }

    /// `true` if any pair is over-provisioned (i.e. Themis has head-room that
    /// the baseline scheduling cannot exploit).
    pub fn has_overprovisioned_pair(&self) -> bool {
        self.pairs
            .iter()
            .any(|p| p.class == ProvisioningClass::OverProvisioned)
    }
}

impl fmt::Display for ProvisioningReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "provisioning report for {}", self.topology)?;
        for pair in &self.pairs {
            writeln!(
                f,
                "  dim{} vs dim{}: {:.1} Gbps vs just-enough {:.1} Gbps (ratio {:.2}) => {}",
                pair.inner + 1,
                pair.outer + 1,
                pair.outer_bandwidth_gbps,
                pair.just_enough_bandwidth_gbps,
                pair.provisioning_ratio,
                pair.class
            )?;
        }
        Ok(())
    }
}

/// Relative tolerance used to treat a pair as "just enough".
const JUST_ENOUGH_TOLERANCE: f64 = 0.05;

/// Classifies a single `(inner, outer)` dimension pair of `topo`.
///
/// # Panics
///
/// Panics if `inner >= outer` or `outer` is out of range; use
/// [`classify_topology`] for a checked sweep over all pairs.
pub fn classify_pair(topo: &NetworkTopology, inner: usize, outer: usize) -> PairClassification {
    assert!(
        inner < outer,
        "inner dimension index must be smaller than outer"
    );
    assert!(
        outer < topo.num_dims(),
        "outer dimension index out of range"
    );
    let inner_bw = topo.dims()[inner].aggregate_bandwidth().as_gbps();
    let outer_bw = topo.dims()[outer].aggregate_bandwidth().as_gbps();
    // The baseline shrinks the chunk by P_K × ... × P_{L-1} before it reaches
    // dimL, so "just enough" outer bandwidth is inner bandwidth divided by
    // that product.
    let shrink: usize = (inner..outer).map(|d| topo.dims()[d].size()).product();
    let just_enough = inner_bw / shrink as f64;
    let ratio = outer_bw / just_enough;
    let class = if (ratio - 1.0).abs() <= JUST_ENOUGH_TOLERANCE {
        ProvisioningClass::JustEnough
    } else if ratio > 1.0 {
        ProvisioningClass::OverProvisioned
    } else {
        ProvisioningClass::UnderProvisioned
    };
    PairClassification {
        inner,
        outer,
        outer_bandwidth_gbps: outer_bw,
        just_enough_bandwidth_gbps: just_enough,
        provisioning_ratio: ratio,
        class,
    }
}

/// Classifies every ordered dimension pair of `topo`.
pub fn classify_topology(topo: &NetworkTopology) -> ProvisioningReport {
    let mut pairs = Vec::new();
    for inner in 0..topo.num_dims() {
        for outer in (inner + 1)..topo.num_dims() {
            pairs.push(classify_pair(topo, inner, outer));
        }
    }
    ProvisioningReport {
        topology: topo.name().to_string(),
        pairs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dimension::{DimensionSpec, TopologyKind};
    use crate::presets::PresetTopology;

    fn two_dim(bw1: f64, bw2: f64, p1: usize, p2: usize) -> NetworkTopology {
        NetworkTopology::builder("pair")
            .dimension(
                DimensionSpec::with_aggregate_bandwidth(TopologyKind::Switch, p1, bw1, 0.0)
                    .unwrap(),
            )
            .dimension(
                DimensionSpec::with_aggregate_bandwidth(TopologyKind::Switch, p2, bw2, 0.0)
                    .unwrap(),
            )
            .build()
            .unwrap()
    }

    #[test]
    fn just_enough_case() {
        // BW(dim1) = 4 × BW(dim2) and P1 = 4 → just enough (Sec. 3.3 example).
        let topo = two_dim(400.0, 100.0, 4, 4);
        let pair = classify_pair(&topo, 0, 1);
        assert_eq!(pair.class, ProvisioningClass::JustEnough);
        assert!((pair.provisioning_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn over_provisioned_case() {
        // Fig. 5: BW(dim1) = 2 × BW(dim2) with P1 = 4 → dim2 over-provisioned.
        let topo = two_dim(200.0, 100.0, 4, 4);
        let pair = classify_pair(&topo, 0, 1);
        assert_eq!(pair.class, ProvisioningClass::OverProvisioned);
        assert!(pair.provisioning_ratio > 1.0);
    }

    #[test]
    fn under_provisioned_case() {
        // dim1 has far more bandwidth than dim2 can absorb even after shrink.
        let topo = two_dim(1200.0, 100.0, 4, 4);
        let pair = classify_pair(&topo, 0, 1);
        assert_eq!(pair.class, ProvisioningClass::UnderProvisioned);
        assert!(pair.provisioning_ratio < 1.0);
    }

    #[test]
    fn current_platform_is_roughly_just_enough_or_under() {
        // Sec. 3.3: on the current platform the baseline utilises all of dim1
        // and 75 of the 100 Gbps of dim2 — i.e. dim2 is slightly over-provisioned.
        let topo = PresetTopology::Current2d.build();
        let report = classify_topology(&topo);
        assert_eq!(report.pairs.len(), 1);
        let pair = &report.pairs[0];
        assert!((pair.just_enough_bandwidth_gbps - 75.0).abs() < 1e-9);
        assert_eq!(pair.class, ProvisioningClass::OverProvisioned);
    }

    #[test]
    fn next_gen_platforms_are_overprovisioned_somewhere() {
        for preset in PresetTopology::next_generation() {
            let report = classify_topology(&preset.build());
            assert!(
                report.has_overprovisioned_pair(),
                "{} should have at least one over-provisioned pair",
                preset.name()
            );
        }
    }

    #[test]
    fn report_display_mentions_every_pair() {
        let report = classify_topology(&PresetTopology::SwSwSw3dHomo.build());
        assert_eq!(report.pairs.len(), 3);
        let text = report.to_string();
        assert!(text.contains("dim1 vs dim2"));
        assert!(text.contains("dim2 vs dim3"));
    }

    #[test]
    #[should_panic(expected = "inner dimension index must be smaller")]
    fn classify_pair_rejects_bad_order() {
        let topo = two_dim(100.0, 100.0, 4, 4);
        classify_pair(&topo, 1, 1);
    }
}
