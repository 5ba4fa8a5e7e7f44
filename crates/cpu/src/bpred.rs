//! Branch direction prediction.
//!
//! SimpleScalar's default (used by the paper's baseline) is a bimodal
//! table of 2-bit saturating counters.

/// 2-bit saturating counter helper: 0,1 = not taken; 2,3 = taken.
#[inline]
fn bump(counter: u8, taken: bool) -> u8 {
    if taken {
        (counter + 1).min(3)
    } else {
        counter.saturating_sub(1)
    }
}

/// A bimodal predictor: a PC-indexed table of 2-bit counters.
///
/// # Examples
///
/// ```
/// use padlock_cpu::BimodalPredictor;
///
/// let mut p = BimodalPredictor::new(2048);
/// p.update(0x40, true);
/// p.update(0x40, true);
/// assert!(p.predict(0x40));
/// ```
#[derive(Debug, Clone)]
pub struct BimodalPredictor {
    table: Vec<u8>,
    mask: u64,
}

impl BimodalPredictor {
    /// Creates a predictor with `entries` counters (power of two),
    /// initialised weakly not-taken.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two.
    pub fn new(entries: usize) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        Self {
            table: vec![1u8; entries],
            mask: entries as u64 - 1,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & self.mask) as usize
    }

    /// Predicts the direction of the branch at `pc`.
    pub fn predict(&self, pc: u64) -> bool {
        self.table[self.index(pc)] >= 2
    }

    /// Updates state with the architectural outcome.
    pub fn update(&mut self, pc: u64, taken: bool) {
        let i = self.index(pc);
        self.table[i] = bump(self.table[i], taken);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_saturate() {
        assert_eq!(bump(3, true), 3);
        assert_eq!(bump(0, false), 0);
        assert_eq!(bump(1, true), 2);
        assert_eq!(bump(2, false), 1);
    }

    #[test]
    fn bimodal_learns_a_steady_branch() {
        let mut p = BimodalPredictor::new(64);
        assert!(!p.predict(0x100)); // weakly not-taken initial state
        p.update(0x100, true);
        p.update(0x100, true);
        assert!(p.predict(0x100));
        // Hysteresis: a single flip does not change the prediction.
        p.update(0x100, false);
        assert!(p.predict(0x100));
        p.update(0x100, false);
        assert!(!p.predict(0x100));
    }

    #[test]
    fn bimodal_aliases_modulo_table_size() {
        let mut p = BimodalPredictor::new(64);
        p.update(0x0, true);
        p.update(0x0, true);
        // pc 64*4 = 256 maps to the same entry ((pc>>2) & 63).
        assert!(p.predict(0x400));
    }

    #[test]
    fn bimodal_accuracy_on_biased_stream() {
        let mut p = BimodalPredictor::new(2048);
        let mut correct = 0u32;
        let mut state = 12345u64;
        for i in 0..10_000u64 {
            let pc = 0x1000 + (i % 16) * 4;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let taken = (state >> 33) % 10 < 9; // 90% taken
            if p.predict(pc) == taken {
                correct += 1;
            }
            p.update(pc, taken);
        }
        let acc = f64::from(correct) / 10_000.0;
        assert!(acc > 0.80, "accuracy {acc}");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_rejected() {
        let _ = BimodalPredictor::new(100);
    }
}
