//! Parallelization strategies (Sec. 5.2).

use std::fmt;

/// How a workload is partitioned across the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParallelismStrategy {
    /// Pure data parallelism: every NPU holds the full model and processes its
    /// own mini-batch shard; weight gradients are All-Reduced across the whole
    /// machine at the end of back-propagation (ResNet-152, GNMT).
    DataParallel,
    /// DLRM's hybrid partitioning: the MLP layers are data-parallel while the
    /// embedding tables are model-parallel; pooled embeddings are exchanged
    /// through All-To-All collectives that overlap with the bottom-MLP compute.
    DlrmHybrid,
    /// Transformer-1T: tensor model parallelism over the first network
    /// dimensions covering `model_parallel_npus` NPUs, ZeRO-2 data parallelism
    /// across the remaining dimensions.
    ModelParallelZero2 {
        /// Number of NPUs in one model-parallel group (the paper uses 128).
        model_parallel_npus: usize,
    },
}

impl ParallelismStrategy {
    /// `true` if the strategy has a model-parallel component.
    pub fn has_model_parallelism(&self) -> bool {
        !matches!(self, ParallelismStrategy::DataParallel)
    }

    /// The size of the model-parallel group, if any.
    pub fn model_parallel_degree(&self) -> Option<usize> {
        match self {
            ParallelismStrategy::ModelParallelZero2 {
                model_parallel_npus,
            } => Some(*model_parallel_npus),
            _ => None,
        }
    }
}

impl fmt::Display for ParallelismStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParallelismStrategy::DataParallel => f.write_str("data-parallel"),
            ParallelismStrategy::DlrmHybrid => f.write_str("hybrid (DP MLPs + MP embeddings)"),
            ParallelismStrategy::ModelParallelZero2 {
                model_parallel_npus,
            } => {
                write!(
                    f,
                    "model-parallel({model_parallel_npus}) + ZeRO-2 data-parallel"
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_parallel_metadata() {
        assert!(!ParallelismStrategy::DataParallel.has_model_parallelism());
        assert!(ParallelismStrategy::DlrmHybrid.has_model_parallelism());
        let zero2 = ParallelismStrategy::ModelParallelZero2 {
            model_parallel_npus: 128,
        };
        assert!(zero2.has_model_parallelism());
        assert_eq!(zero2.model_parallel_degree(), Some(128));
        assert_eq!(
            ParallelismStrategy::DataParallel.model_parallel_degree(),
            None
        );
        assert_eq!(
            ParallelismStrategy::DlrmHybrid.model_parallel_degree(),
            None
        );
    }

    #[test]
    fn display_labels() {
        assert_eq!(
            ParallelismStrategy::DataParallel.to_string(),
            "data-parallel"
        );
        assert!(ParallelismStrategy::DlrmHybrid
            .to_string()
            .contains("MP embeddings"));
        assert!(ParallelismStrategy::ModelParallelZero2 {
            model_parallel_npus: 128
        }
        .to_string()
        .contains("128"));
    }
}
