//! Idealized dedicated hardware-queue network (the OOO2+Comm baseline).
//!
//! The paper compares ReMAP against a cluster of OOO2 cores with a dedicated
//! point-to-point communication network in the style of the synchronization
//! array of decoupled software pipelining, assumed to have *zero hardware
//! cost*. We model it as a set of deep FIFO queues of 64-bit values with
//! single-cycle access; the core model charges the (1-cycle) access latency.

use remap_snap::{SnapError, Visit, Visitor};

/// A bank of idealized hardware FIFO queues.
#[derive(Debug, Clone)]
pub struct HwQueueNet {
    queues: Vec<Vec<u64>>,
    capacity: usize,
    /// Total values transferred (for reports/power).
    pub transfers: u64,
}

impl HwQueueNet {
    /// Creates `n_queues` queues holding up to `capacity` values each.
    pub fn new(n_queues: usize, capacity: usize) -> HwQueueNet {
        HwQueueNet {
            queues: vec![Vec::new(); n_queues],
            capacity,
            transfers: 0,
        }
    }

    /// Number of queues.
    pub fn n_queues(&self) -> usize {
        self.queues.len()
    }

    /// Per-queue capacity (values a queue holds before backpressuring).
    /// Exported geometry for the static message-flow verifier.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pushes `value` into queue `q`; `false` when full (sender retries).
    pub fn send(&mut self, q: usize, value: u64) -> bool {
        if self.queues[q].len() >= self.capacity {
            return false;
        }
        self.queues[q].push(value);
        self.transfers += 1;
        true
    }

    /// Pops the oldest value of queue `q`, if any.
    pub fn recv(&mut self, q: usize) -> Option<u64> {
        if self.queues[q].is_empty() {
            None
        } else {
            Some(self.queues[q].remove(0))
        }
    }

    /// Current depth of queue `q`.
    pub fn len(&self, q: usize) -> usize {
        self.queues[q].len()
    }

    /// Whether queue `q` is empty.
    pub fn is_empty(&self, q: usize) -> bool {
        self.queues[q].is_empty()
    }

    /// Whether queue `q` would reject a send right now (quiescence probe).
    pub fn is_full(&self, q: usize) -> bool {
        self.queues[q].len() >= self.capacity
    }
}

/// Checkpoint support: every queue's contents.
impl Visit for HwQueueNet {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        v.exact_len(self.queues.len())?;
        for q in &mut self.queues {
            v.vec(q, self.capacity)?;
        }
        v.u64(&mut self.transfers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut net = HwQueueNet::new(2, 4);
        assert!(net.send(0, 1));
        assert!(net.send(0, 2));
        assert!(net.send(1, 9));
        assert_eq!(net.recv(0), Some(1));
        assert_eq!(net.recv(0), Some(2));
        assert_eq!(net.recv(0), None);
        assert_eq!(net.recv(1), Some(9));
        assert_eq!(net.transfers, 3);
    }

    #[test]
    fn geometry_accessors() {
        let net = HwQueueNet::new(3, 7);
        assert_eq!(net.n_queues(), 3);
        assert_eq!(net.capacity(), 7);
    }

    #[test]
    fn capacity_backpressure() {
        let mut net = HwQueueNet::new(1, 2);
        assert!(net.send(0, 1));
        assert!(net.send(0, 2));
        assert!(!net.send(0, 3), "full queue rejects");
        net.recv(0);
        assert!(net.send(0, 3));
        assert_eq!(net.len(0), 2);
    }
}
