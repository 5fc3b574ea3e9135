//! The Themis `Splitter` component (Fig. 6, step 2): divides a collective into
//! multiple equal-size chunks that can be scheduled independently.

use crate::error::ScheduleError;
use themis_net::DataSize;

/// Splits collectives into equally sized chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Splitter {
    chunks_per_collective: usize,
}

impl Splitter {
    /// The default chunk granularity used throughout the paper's evaluation
    /// (Sec. 5.3): 64 chunks per collective.
    pub const DEFAULT_CHUNKS_PER_COLLECTIVE: usize = 64;

    /// Creates a splitter producing `chunks_per_collective` chunks.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::ZeroChunks`] if `chunks_per_collective` is zero.
    pub fn new(chunks_per_collective: usize) -> Result<Self, ScheduleError> {
        if chunks_per_collective == 0 {
            return Err(ScheduleError::ZeroChunks);
        }
        Ok(Splitter {
            chunks_per_collective,
        })
    }

    /// Number of chunks produced per collective.
    pub fn chunks_per_collective(&self) -> usize {
        self.chunks_per_collective
    }

    /// Splits `size` into per-chunk byte counts (as `f64`, the unit the cost
    /// model works in). Chunk sizes differ by at most one byte and always sum
    /// to the collective size.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::EmptyCollective`] for a zero-byte collective.
    pub fn split(&self, size: DataSize) -> Result<Vec<f64>, ScheduleError> {
        if size.is_zero() {
            return Err(ScheduleError::EmptyCollective);
        }
        Ok(size
            .split_even(self.chunks_per_collective)
            .into_iter()
            .map(|c| c.as_bytes_f64())
            .collect())
    }
}

impl Default for Splitter {
    fn default() -> Self {
        Splitter {
            chunks_per_collective: Self::DEFAULT_CHUNKS_PER_COLLECTIVE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_256mb_into_four_64mb_chunks() {
        // The running example of Sec. 2.3 / Fig. 5.
        let splitter = Splitter::new(4).unwrap();
        let chunks = splitter.split(DataSize::from_mib(256.0)).unwrap();
        assert_eq!(chunks.len(), 4);
        for chunk in &chunks {
            assert!((chunk - 64.0 * 1024.0 * 1024.0).abs() < 1.0);
        }
    }

    #[test]
    fn chunks_sum_to_collective_size() {
        let splitter = Splitter::new(7).unwrap();
        let size = DataSize::from_bytes(1_000_003);
        let chunks = splitter.split(size).unwrap();
        let total: f64 = chunks.iter().sum();
        assert_eq!(total as u64, size.as_bytes());
    }

    #[test]
    fn default_matches_paper_configuration() {
        let splitter = Splitter::default();
        assert_eq!(splitter.chunks_per_collective(), 64);
    }

    #[test]
    fn rejects_zero_chunks_and_zero_size() {
        assert!(matches!(Splitter::new(0), Err(ScheduleError::ZeroChunks)));
        let splitter = Splitter::new(4).unwrap();
        assert!(matches!(
            splitter.split(DataSize::ZERO),
            Err(ScheduleError::EmptyCollective)
        ));
    }
}
