//! Timing model of the on-chip crypto unit.
//!
//! The paper assumes a fully pipelined hardware engine with a fixed
//! end-to-end latency: 50 cycles in the main experiments (a DES ASIC,
//! §3.1), 102 cycles in the sensitivity study (Fig. 10). The timing
//! model charges that latency once per line; contention for the unit's
//! issue slots is the secure controller's business.

/// Latency model of the pipelined block-cipher unit.
///
/// # Examples
///
/// ```
/// use padlock_crypto::CryptoUnitModel;
///
/// assert_eq!(CryptoUnitModel::paper_default().pipeline_latency(), 50);
/// assert_eq!(CryptoUnitModel::paper_slow().pipeline_latency(), 102);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CryptoUnitModel {
    latency: u64,
}

impl CryptoUnitModel {
    /// The paper's main configuration: a 50-cycle unit.
    pub fn paper_default() -> Self {
        Self::new(50)
    }

    /// The paper's Fig. 10 sensitivity configuration: a 102-cycle unit.
    pub fn paper_slow() -> Self {
        Self::new(102)
    }

    /// A unit whose blocks take `latency` cycles end to end.
    ///
    /// # Panics
    ///
    /// Panics if `latency` is zero.
    pub fn new(latency: u64) -> Self {
        assert!(latency > 0, "crypto latency must be positive");
        Self { latency }
    }

    /// End-to-end latency of one block through the engine.
    pub fn pipeline_latency(&self) -> u64 {
        self.latency
    }
}

impl Default for CryptoUnitModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults() {
        assert_eq!(CryptoUnitModel::paper_default().pipeline_latency(), 50);
        assert_eq!(CryptoUnitModel::paper_slow().pipeline_latency(), 102);
        assert_eq!(CryptoUnitModel::default(), CryptoUnitModel::paper_default());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_latency_panics() {
        let _ = CryptoUnitModel::new(0);
    }
}
