//! The write buffer between L2 and memory.
//!
//! The paper (Figs. 2 and 4, §3.4) defers all stores through a write
//! buffer: evicted dirty L2 lines (and, with the SNC, evicted sequence
//! numbers) sit here while the crypto unit enciphers them, then drain to
//! memory on idle bus cycles. Writes are therefore off the critical path;
//! what remains observable is bus traffic and the rare full-buffer stall,
//! both of which this model captures. The model buffers line writebacks
//! only: a memory channel sends packed sequence-number spills to the bus
//! as transactions of their own once their data is ready.

use std::collections::VecDeque;

/// One pending writeback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteBufferEntry {
    /// Line-aligned target address.
    pub addr: u64,
    /// Cycle at which the entry's data is ready to leave (encryption
    /// complete).
    pub ready_at: u64,
}

/// A fixed-capacity FIFO write buffer of line writebacks.
///
/// # Examples
///
/// ```
/// use padlock_cache::WriteBuffer;
///
/// let mut wb = WriteBuffer::new(8);
/// assert!(wb.push(0x1000, /*ready_at=*/ 150));
/// // Nothing drains before the data is ready:
/// assert!(wb.pop_ready(100).is_none());
/// assert_eq!(wb.pop_ready(150).unwrap().addr, 0x1000);
/// ```
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    capacity: usize,
    entries: VecDeque<WriteBufferEntry>,
}

impl WriteBuffer {
    /// Creates a buffer holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write buffer capacity must be positive");
        Self {
            capacity,
            entries: VecDeque::with_capacity(capacity),
        }
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the buffer is full (a new writeback would stall).
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Enqueues a writeback that becomes drainable at `ready_at`.
    ///
    /// Returns `false` when the buffer is full; the caller models the
    /// stall and retries.
    pub fn push(&mut self, addr: u64, ready_at: u64) -> bool {
        if self.is_full() {
            return false;
        }
        self.entries.push_back(WriteBufferEntry { addr, ready_at });
        true
    }

    /// Pops the oldest entry whose data is ready by `now`, if the head
    /// entry qualifies (FIFO order is preserved; a not-ready head blocks
    /// younger ready entries, matching a simple hardware FIFO).
    pub fn pop_ready(&mut self, now: u64) -> Option<WriteBufferEntry> {
        if self.entries.front()?.ready_at <= now {
            self.entries.pop_front()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_is_preserved() {
        let mut wb = WriteBuffer::new(4);
        wb.push(1, 0);
        wb.push(2, 0);
        assert_eq!(wb.pop_ready(0).unwrap().addr, 1);
        assert_eq!(wb.pop_ready(0).unwrap().addr, 2);
        assert!(wb.pop_ready(0).is_none());
    }

    #[test]
    fn entries_wait_for_encryption() {
        let mut wb = WriteBuffer::new(4);
        wb.push(1, 50);
        assert!(wb.pop_ready(49).is_none());
        assert!(wb.pop_ready(50).is_some());
    }

    #[test]
    fn head_of_line_blocking_models_hardware_fifo() {
        let mut wb = WriteBuffer::new(4);
        wb.push(1, 100);
        wb.push(2, 0);
        // Entry 2 is ready but behind entry 1.
        assert!(wb.pop_ready(50).is_none());
        assert_eq!(wb.pop_ready(100).unwrap().addr, 1);
        assert_eq!(wb.pop_ready(100).unwrap().addr, 2);
    }

    #[test]
    fn full_buffer_rejects_and_counts_stalls() {
        // Each rejected push is a stall the caller models.
        let mut wb = WriteBuffer::new(2);
        let stalls = (1..=3).filter(|&addr| !wb.push(addr, 0)).count();
        assert_eq!(stalls, 1);
        assert!(wb.is_full());
        assert_eq!(wb.len(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = WriteBuffer::new(0);
    }
}
