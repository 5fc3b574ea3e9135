//! The "Ideal" configuration of Table 3: assumes 100 % of the network
//! bandwidth of every dimension is utilised, so the communication latency is
//! simply `collective size / total BW`. No chunk scheduling scheme can beat
//! this bound, which is why the paper uses it as the upper bound for the
//! achievable speed-up.

use crate::error::ScheduleError;
use crate::schedule::CollectiveRequest;
use themis_net::NetworkTopology;

/// Computes the 100 %-utilisation lower bound on communication time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct IdealEstimator;

impl IdealEstimator {
    /// Creates an ideal estimator.
    pub fn new() -> Self {
        IdealEstimator
    }

    /// Communication latency of `request` on `topo` assuming every dimension's
    /// bandwidth is fully utilised (Table 3: `collective size / total BW`).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::EmptyCollective`] for a zero-size collective.
    pub fn communication_time_ns(
        &self,
        request: &CollectiveRequest,
        topo: &NetworkTopology,
    ) -> Result<f64, ScheduleError> {
        if request.size().is_zero() {
            return Err(ScheduleError::EmptyCollective);
        }
        let total_bw = topo.total_bandwidth().as_bytes_per_ns();
        Ok(request.size().as_bytes_f64() / total_bw)
    }

    /// Convenience wrapper returning microseconds.
    ///
    /// # Errors
    ///
    /// Same as [`IdealEstimator::communication_time_ns`].
    pub fn communication_time_us(
        &self,
        request: &CollectiveRequest,
        topo: &NetworkTopology,
    ) -> Result<f64, ScheduleError> {
        Ok(self.communication_time_ns(request, topo)? / 1_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use themis_collectives::CollectiveKind;
    use themis_net::presets::PresetTopology;
    use themis_net::DataSize;

    #[test]
    fn ideal_time_is_size_over_total_bandwidth() {
        // 3D-SW_SW_SW_homo: 3 × 800 Gbps = 2400 Gbps = 300 bytes/ns.
        let topo = PresetTopology::SwSwSw3dHomo.build();
        let request = CollectiveRequest::new(CollectiveKind::AllReduce, DataSize::from_gib(1.0));
        let ideal = IdealEstimator::new();
        let time = ideal.communication_time_ns(&request, &topo).unwrap();
        let expected = DataSize::from_gib(1.0).as_bytes_f64() / 300.0;
        assert!((time - expected).abs() < 1e-6);
        assert!(
            (ideal.communication_time_us(&request, &topo).unwrap() - expected / 1e3).abs() < 1e-6
        );
    }

    #[test]
    fn more_total_bandwidth_means_lower_ideal_time() {
        let request = CollectiveRequest::all_reduce_mib(512.0);
        let ideal = IdealEstimator::new();
        let homo = ideal
            .communication_time_ns(&request, &PresetTopology::SwSwSw3dHomo.build())
            .unwrap();
        let ring4d = ideal
            .communication_time_ns(&request, &PresetTopology::RingFcRingSw4d.build())
            .unwrap();
        // 4D-Ring_FC_Ring_SW has 6400 Gbps total vs 2400 Gbps.
        assert!(ring4d < homo);
    }

    #[test]
    fn zero_size_is_rejected() {
        let topo = PresetTopology::Sw2d.build();
        let request = CollectiveRequest::new(CollectiveKind::AllReduce, DataSize::ZERO);
        assert!(IdealEstimator::new()
            .communication_time_ns(&request, &topo)
            .is_err());
    }
}
