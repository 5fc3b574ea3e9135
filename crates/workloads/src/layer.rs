//! Layer-level workload description.
//!
//! A [`Layer`] carries the quantities the training simulator needs: parameter
//! count (for gradient-synchronisation traffic), forward FLOPs per sample (for
//! roofline compute time) and the per-sample activation size (for
//! model-parallel communication). The backward pass is modelled as
//! `backward_flops_factor ×` the forward FLOPs (2× for ordinary layers, which
//! compute both input and weight gradients).

use crate::error::WorkloadError;

/// Broad category of a layer, used by the parallelization strategies to decide
/// how the layer's parameters are partitioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Convolutional layer (data-parallel in all evaluated workloads).
    Convolution,
    /// Dense / fully-connected layer (data-parallel, or tensor-parallel for
    /// Transformer-1T).
    Dense,
    /// Recurrent layer (GNMT's LSTM stacks; data-parallel).
    Recurrent,
    /// Embedding table (DLRM's sparse features; model-parallel).
    Embedding,
    /// Attention / transformer block (tensor-parallel for Transformer-1T).
    Attention,
}

/// One layer (or group of similar layers) of a DNN.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    name: String,
    kind: LayerKind,
    parameters: u64,
    forward_flops_per_sample: f64,
    backward_flops_factor: f64,
    activation_bytes_per_sample: f64,
}

impl Layer {
    /// Creates a layer description.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParameter`] for negative or non-finite
    /// FLOP/activation values or a non-positive backward factor.
    pub fn new(
        name: impl Into<String>,
        kind: LayerKind,
        parameters: u64,
        forward_flops_per_sample: f64,
        backward_flops_factor: f64,
        activation_bytes_per_sample: f64,
    ) -> Result<Self, WorkloadError> {
        if !forward_flops_per_sample.is_finite() || forward_flops_per_sample < 0.0 {
            return Err(WorkloadError::InvalidParameter {
                reason: format!(
                    "forward FLOPs must be non-negative, got {forward_flops_per_sample}"
                ),
            });
        }
        if !backward_flops_factor.is_finite() || backward_flops_factor < 0.0 {
            return Err(WorkloadError::InvalidParameter {
                reason: format!(
                    "backward factor must be non-negative, got {backward_flops_factor}"
                ),
            });
        }
        if !activation_bytes_per_sample.is_finite() || activation_bytes_per_sample < 0.0 {
            return Err(WorkloadError::InvalidParameter {
                reason: format!(
                    "activation bytes must be non-negative, got {activation_bytes_per_sample}"
                ),
            });
        }
        Ok(Layer {
            name: name.into(),
            kind,
            parameters,
            forward_flops_per_sample,
            backward_flops_factor,
            activation_bytes_per_sample,
        })
    }

    /// Layer (group) name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Layer category.
    pub fn kind(&self) -> LayerKind {
        self.kind
    }

    /// Number of trainable parameters.
    pub fn parameters(&self) -> u64 {
        self.parameters
    }

    /// Bytes of trainable parameters at `bytes_per_param` precision
    /// (2 for FP16 gradients, the paper's setting).
    pub fn parameter_bytes(&self, bytes_per_param: f64) -> f64 {
        self.parameters as f64 * bytes_per_param
    }

    /// Forward-pass FLOPs for one sample.
    pub fn forward_flops_per_sample(&self) -> f64 {
        self.forward_flops_per_sample
    }

    /// Backward-pass FLOPs for one sample
    /// (`backward_flops_factor × forward_flops_per_sample`).
    pub fn backward_flops_per_sample(&self) -> f64 {
        self.forward_flops_per_sample * self.backward_flops_factor
    }

    /// Output activation size for one sample, bytes.
    pub fn activation_bytes_per_sample(&self) -> f64 {
        self.activation_bytes_per_sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_derived_quantities() {
        let layer = Layer::new("fc", LayerKind::Dense, 1_000_000, 2e6, 2.0, 4096.0).unwrap();
        assert_eq!(layer.name(), "fc");
        assert_eq!(layer.kind(), LayerKind::Dense);
        assert_eq!(layer.parameters(), 1_000_000);
        assert_eq!(layer.parameter_bytes(2.0), 2_000_000.0);
        assert_eq!(layer.forward_flops_per_sample(), 2e6);
        assert_eq!(layer.backward_flops_per_sample(), 4e6);
        assert_eq!(layer.activation_bytes_per_sample(), 4096.0);
    }

    #[test]
    fn rejects_invalid_values() {
        assert!(Layer::new("x", LayerKind::Dense, 0, -1.0, 2.0, 0.0).is_err());
        assert!(Layer::new("x", LayerKind::Dense, 0, 1.0, -2.0, 0.0).is_err());
        assert!(Layer::new("x", LayerKind::Dense, 0, 1.0, 2.0, f64::NAN).is_err());
        assert!(Layer::new("x", LayerKind::Dense, 0, f64::INFINITY, 2.0, 0.0).is_err());
    }

    #[test]
    fn zero_parameter_layers_are_allowed() {
        // e.g. pooling / activation-only stages grouped into a layer.
        let layer = Layer::new("pool", LayerKind::Convolution, 0, 1e5, 1.0, 1024.0).unwrap();
        assert_eq!(layer.parameter_bytes(2.0), 0.0);
    }
}
