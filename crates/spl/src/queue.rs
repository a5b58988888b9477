//! Per-core SPL input and output queues (the decoupled interface of
//! Figure 2(b)).

use crate::function::Entry;
use remap_snap::{SnapError, Visit, Visitor};

/// A sealed input-queue entry awaiting fabric issue.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SealedEntry {
    /// The staged data with valid bits.
    pub entry: Entry,
    /// Requested SPL configuration.
    pub cfg: u16,
    /// Resolved destination core for compute operations (`usize::MAX` means
    /// "barrier — destination is every participant").
    pub dest_core: usize,
}

remap_snap::visit_fields!(SealedEntry: entry, cfg, dest_core);

/// A core's SPL input queue: one staging entry under construction plus a
/// FIFO of sealed entries waiting for the fabric.
#[derive(Debug, Clone)]
pub struct InputQueue {
    staging: Entry,
    pub(crate) sealed: Vec<SealedEntry>,
    capacity: usize,
    /// Peak occupancy observed (for reports).
    pub peak: usize,
}

impl InputQueue {
    /// Creates an empty input queue holding up to `capacity` sealed entries.
    pub fn new(capacity: usize) -> InputQueue {
        InputQueue {
            staging: Entry::default(),
            sealed: Vec::new(),
            capacity,
            peak: 0,
        }
    }

    /// Stages bytes into the entry under construction (always succeeds: the
    /// staging register is renamed per entry).
    pub fn stage(&mut self, offset: u8, nbytes: u8, value: u64) {
        self.staging.stage(offset, nbytes, value);
    }

    /// Seals the staging entry with the given configuration and destination.
    /// Fails (returning `false`) when the sealed FIFO is full — the caller
    /// retries, modelling back-pressure on the producing core.
    pub fn seal(&mut self, cfg: u16, dest_core: usize) -> bool {
        if self.sealed.len() >= self.capacity {
            return false;
        }
        self.sealed.push(SealedEntry {
            entry: self.staging,
            cfg,
            dest_core,
        });
        self.staging = Entry::default();
        self.peak = self.peak.max(self.sealed.len());
        true
    }

    /// The entry at the head of the sealed FIFO.
    pub fn head(&self) -> Option<&SealedEntry> {
        self.sealed.first()
    }

    /// Pops the head entry (fabric issue).
    pub fn pop(&mut self) -> Option<SealedEntry> {
        if self.sealed.is_empty() {
            None
        } else {
            Some(self.sealed.remove(0))
        }
    }

    /// Number of sealed entries waiting.
    pub fn len(&self) -> usize {
        self.sealed.len()
    }

    /// Whether no sealed entries are waiting.
    pub fn is_empty(&self) -> bool {
        self.sealed.is_empty()
    }

    /// Whether a [`InputQueue::seal`] would be accepted right now (pure
    /// mirror of its admission check, for the quiescence analysis).
    pub fn can_seal(&self) -> bool {
        self.sealed.len() < self.capacity
    }
}

remap_snap::visit_fields!(Entry: bytes, valid);

/// Checkpoint support: the queue contents. The fabric validates the
/// configuration and destination of each sealed entry.
impl Visit for InputQueue {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        self.staging.visit(v)?;
        v.vec(&mut self.sealed, self.capacity)?;
        v.usize(&mut self.peak)
    }
}

/// A core's SPL output queue: results the core pops with `spl_store`.
///
/// Space is *reserved* when an operation issues to the fabric and filled
/// when it completes, so the fabric never produces a result it cannot
/// deliver (back-pressure at issue).
#[derive(Debug, Clone)]
pub struct OutputQueue {
    ready: Vec<u64>,
    reserved: usize,
    capacity: usize,
    /// Peak occupancy observed.
    pub peak: usize,
}

impl OutputQueue {
    /// Creates an empty output queue of the given capacity.
    pub fn new(capacity: usize) -> OutputQueue {
        OutputQueue {
            ready: Vec::new(),
            reserved: 0,
            capacity,
            peak: 0,
        }
    }

    /// Attempts to reserve a result slot; `false` when the queue (including
    /// reservations) is full.
    pub fn reserve(&mut self) -> bool {
        if self.ready.len() + self.reserved >= self.capacity {
            return false;
        }
        self.reserved += 1;
        true
    }

    /// Releases a reservation without delivering (used when a multi-output
    /// operation cannot reserve *all* of its destinations this cycle).
    ///
    /// # Panics
    ///
    /// Panics if no slot was reserved.
    pub fn unreserve(&mut self) {
        assert!(self.reserved > 0, "unreserve without reservation");
        self.reserved -= 1;
    }

    /// Delivers a result into a previously reserved slot.
    ///
    /// # Panics
    ///
    /// Panics if no slot was reserved.
    pub fn deliver(&mut self, value: u64) {
        assert!(self.reserved > 0, "deliver without reservation");
        self.reserved -= 1;
        self.ready.push(value);
        self.peak = self.peak.max(self.ready.len() + self.reserved);
    }

    /// Pops the oldest ready result.
    pub fn pop(&mut self) -> Option<u64> {
        if self.ready.is_empty() {
            None
        } else {
            Some(self.ready.remove(0))
        }
    }

    /// Ready results currently queued.
    pub fn len(&self) -> usize {
        self.ready.len()
    }

    /// Whether no results are ready.
    pub fn is_empty(&self) -> bool {
        self.ready.is_empty()
    }
}

/// Checkpoint support: the queue contents, refused on load when ready plus
/// reserved slots exceed the capacity.
impl Visit for OutputQueue {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        v.vec(&mut self.ready, self.capacity)?;
        v.usize(&mut self.reserved)?;
        if V::READS && self.reserved > self.capacity - self.ready.len() {
            return Err(SnapError::Corrupt(format!(
                "output queue over capacity ({} ready + {} reserved > {})",
                self.ready.len(),
                self.reserved,
                self.capacity
            )));
        }
        v.usize(&mut self.peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn input_queue_fifo_and_backpressure() {
        let mut q = InputQueue::new(2);
        q.stage(0, 4, 1);
        assert!(q.seal(10, 0));
        q.stage(0, 4, 2);
        assert!(q.seal(11, 0));
        q.stage(0, 4, 3);
        assert!(!q.seal(12, 0), "queue full");
        assert_eq!(q.len(), 2);
        let a = q.pop().unwrap();
        assert_eq!(a.cfg, 10);
        assert_eq!(a.entry.u32(0), 1);
        // After pop, the pending staged value (3) can be sealed.
        assert!(q.seal(12, 0));
        assert_eq!(q.pop().unwrap().cfg, 11);
        assert_eq!(q.pop().unwrap().cfg, 12);
        assert!(q.pop().is_none());
        assert_eq!(q.peak, 2);
    }

    #[test]
    fn staging_resets_after_seal() {
        let mut q = InputQueue::new(4);
        q.stage(0, 4, 0xffff_ffff);
        assert!(q.seal(1, 0));
        q.stage(4, 4, 7);
        assert!(q.seal(2, 0));
        q.pop();
        let e = q.pop().unwrap();
        assert_eq!(e.entry.u32(0), 0, "old bytes must not leak into new entry");
        assert_eq!(e.entry.u32(4), 7);
    }

    #[test]
    fn output_queue_reserve_deliver_pop() {
        let mut q = OutputQueue::new(2);
        assert!(q.reserve());
        assert!(q.reserve());
        assert!(!q.reserve(), "capacity includes reservations");
        q.deliver(5);
        assert_eq!(q.len(), 1);
        assert!(!q.reserve(), "still full: one ready + one reserved");
        q.deliver(6);
        assert_eq!(q.pop(), Some(5));
        assert_eq!(q.pop(), Some(6));
        assert_eq!(q.pop(), None);
        assert!(q.reserve());
    }

    #[test]
    #[should_panic(expected = "deliver without reservation")]
    fn deliver_without_reserve_panics() {
        let mut q = OutputQueue::new(2);
        q.deliver(1);
    }
}
