//! The four evaluated workloads with the paper's default configurations.

use crate::models;
use crate::parallelism::ParallelismStrategy;
use crate::training::TrainingConfig;
use std::fmt;

/// One of the paper's evaluation workloads (Sec. 5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// ResNet-152, data-parallel, per-NPU mini-batch 32.
    ResNet152,
    /// GNMT, data-parallel, per-NPU mini-batch 128.
    Gnmt,
    /// DLRM, hybrid parallel, per-NPU mini-batch 512.
    Dlrm,
    /// Transformer-1T, model-parallel (128 NPUs) + ZeRO-2, per-NPU mini-batch 16.
    Transformer1T,
}

impl Workload {
    /// All workloads, in the paper's order.
    pub fn all() -> [Workload; 4] {
        [
            Workload::ResNet152,
            Workload::Gnmt,
            Workload::Dlrm,
            Workload::Transformer1T,
        ]
    }

    /// Display name used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Workload::ResNet152 => "ResNet-152",
            Workload::Gnmt => "GNMT",
            Workload::Dlrm => "DLRM",
            Workload::Transformer1T => "Transformer-1T",
        }
    }

    /// The paper's per-NPU mini-batch size for this workload (Sec. 5.2).
    pub fn per_npu_minibatch(&self) -> usize {
        match self {
            Workload::ResNet152 => 32,
            Workload::Gnmt => 128,
            Workload::Dlrm => 512,
            Workload::Transformer1T => 16,
        }
    }

    /// The paper's parallelization strategy for this workload (Sec. 5.2).
    pub fn strategy(&self) -> ParallelismStrategy {
        match self {
            Workload::ResNet152 | Workload::Gnmt => ParallelismStrategy::DataParallel,
            Workload::Dlrm => ParallelismStrategy::DlrmHybrid,
            Workload::Transformer1T => ParallelismStrategy::ModelParallelZero2 {
                model_parallel_npus: 128,
            },
        }
    }

    /// Builds the workload's DNN model description.
    pub fn model(&self) -> crate::models::DnnModel {
        match self {
            Workload::ResNet152 => models::resnet152(),
            Workload::Gnmt => models::gnmt(),
            Workload::Dlrm => models::dlrm(),
            Workload::Transformer1T => models::transformer_1t(),
        }
    }

    /// The full training configuration with the paper's defaults.
    pub fn config(&self) -> TrainingConfig {
        TrainingConfig::new(self.model(), self.strategy(), self.per_npu_minibatch())
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_minibatch_sizes() {
        assert_eq!(Workload::ResNet152.per_npu_minibatch(), 32);
        assert_eq!(Workload::Gnmt.per_npu_minibatch(), 128);
        assert_eq!(Workload::Dlrm.per_npu_minibatch(), 512);
        assert_eq!(Workload::Transformer1T.per_npu_minibatch(), 16);
    }

    #[test]
    fn strategies_match_sec52() {
        assert_eq!(
            Workload::ResNet152.strategy(),
            ParallelismStrategy::DataParallel
        );
        assert_eq!(Workload::Gnmt.strategy(), ParallelismStrategy::DataParallel);
        assert_eq!(Workload::Dlrm.strategy(), ParallelismStrategy::DlrmHybrid);
        assert_eq!(
            Workload::Transformer1T.strategy(),
            ParallelismStrategy::ModelParallelZero2 {
                model_parallel_npus: 128
            }
        );
    }

    #[test]
    fn configs_use_fp16_gradients_and_64_chunks() {
        for workload in Workload::all() {
            let config = workload.config();
            assert_eq!(config.gradient_bytes_per_param, 2.0);
            assert_eq!(config.chunks_per_collective, 64);
            assert_eq!(config.per_npu_minibatch, workload.per_npu_minibatch());
            assert_eq!(config.model.name(), workload.name());
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Workload::ResNet152.to_string(), "ResNet-152");
        assert_eq!(Workload::Transformer1T.to_string(), "Transformer-1T");
        assert_eq!(Workload::all().len(), 4);
    }
}
