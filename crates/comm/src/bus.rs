//! The dedicated inter-cluster barrier bus (§II-B.2).
//!
//! In a system with multiple SPL clusters, barrier arrivals are broadcast
//! between clusters over a narrow dedicated bus carrying the barrier ID and
//! application ID (16 data lines plus control). The bus serializes messages
//! and adds a fixed transfer latency.

use remap_snap::{SnapError, Visit, Visitor};
use std::collections::VecDeque;

/// One barrier-update message on the bus.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BusMessage {
    /// Barrier ID (8 bits on the wire).
    pub barrier_id: u32,
    /// Application ID (8 bits on the wire).
    pub app_id: u32,
    /// Source cluster.
    pub from_cluster: usize,
    /// Cycle at which the message is visible to the other clusters.
    pub deliver_at: u64,
}

/// A serializing broadcast bus with fixed per-message latency. Messages
/// deliver in send order: `next_free` only grows and the latency is fixed,
/// so the queue is in `deliver_at` order by construction.
///
/// ```
/// use remap_comm::BarrierBus;
/// let mut bus = BarrierBus::new(4);
/// bus.send(1, 0, 0, 100);          // cluster 0 announces barrier 1 at cycle 100
/// assert!(bus.deliver(103).is_empty(), "still in flight");
/// let msgs = bus.deliver(104);
/// assert_eq!(msgs.len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BarrierBus {
    latency: u64,
    queue: VecDeque<BusMessage>,
    next_free: u64,
    /// Messages transferred (for power accounting).
    pub messages: u64,
}

impl BarrierBus {
    /// Creates a bus with the given per-message latency in core cycles.
    pub fn new(latency: u64) -> BarrierBus {
        BarrierBus {
            latency,
            ..BarrierBus::default()
        }
    }

    /// Width of the bus in data lines (16 per the paper: 8-bit barrier ID +
    /// 8-bit application ID).
    pub fn data_lines(&self) -> u32 {
        16
    }

    /// Enqueues a barrier-update broadcast at `now`. Messages serialize: a
    /// message starts only when the bus is free.
    pub fn send(&mut self, barrier_id: u32, app_id: u32, from_cluster: usize, now: u64) {
        let start = now.max(self.next_free);
        let deliver_at = start + self.latency;
        self.next_free = deliver_at;
        self.messages += 1;
        self.queue.push_back(BusMessage {
            barrier_id,
            app_id,
            from_cluster,
            deliver_at,
        });
    }

    /// Returns (and removes) all messages that have arrived by `now`.
    pub fn deliver(&mut self, now: u64) -> Vec<BusMessage> {
        let n = self.queue.partition_point(|m| m.deliver_at <= now);
        self.queue.drain(..n).collect()
    }

    /// Removes (and counts) all messages that have arrived by `now` without
    /// returning them. Allocation-free: the per-cycle path of callers that
    /// only need delivery side-effects (energy counters already accumulated
    /// at [`BarrierBus::send`]) uses this instead of [`BarrierBus::deliver`].
    pub fn drain_ready(&mut self, now: u64) -> usize {
        let n = self.queue.partition_point(|m| m.deliver_at <= now);
        self.queue.drain(..n);
        n
    }

    /// Messages still in flight.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
    }
}

remap_snap::visit_fields!(BusMessage: barrier_id, app_id, from_cluster, deliver_at);

/// Checkpoint support: the in-flight messages and arbitration state. A
/// decoded queue out of `deliver_at` order is refused.
impl Visit for BarrierBus {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        v.deque(&mut self.queue, 1 << 20)?;
        if V::READS
            && !self
                .queue
                .make_contiguous()
                .is_sorted_by_key(|m| m.deliver_at)
        {
            return Err(SnapError::Corrupt("bus queue out of delivery order".into()));
        }
        v.u64s([&mut self.next_free, &mut self.messages])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_serialize_on_the_bus() {
        let mut bus = BarrierBus::new(4);
        bus.send(1, 0, 0, 10); // delivers at 14
        bus.send(2, 0, 1, 10); // bus busy until 14 → delivers at 18
        assert_eq!(bus.in_flight(), 2);
        let at14 = bus.deliver(14);
        assert_eq!(at14.len(), 1);
        assert_eq!(at14[0].barrier_id, 1);
        assert!(bus.deliver(17).is_empty());
        let at18 = bus.deliver(18);
        assert_eq!(at18.len(), 1);
        assert_eq!(at18[0].barrier_id, 2);
        assert_eq!(bus.messages, 2);
    }

    #[test]
    fn idle_bus_restarts_immediately() {
        let mut bus = BarrierBus::new(4);
        bus.send(1, 0, 0, 10);
        bus.deliver(14);
        bus.send(2, 0, 0, 100);
        assert_eq!(bus.deliver(104).len(), 1);
    }

    #[test]
    fn paper_width() {
        assert_eq!(BarrierBus::new(1).data_lines(), 16);
    }

    #[test]
    fn drain_ready_matches_deliver() {
        let mut bus = BarrierBus::new(4);
        bus.send(1, 0, 0, 10); // delivers at 14
        bus.send(2, 0, 1, 10); // serialized → delivers at 18
        assert_eq!(bus.drain_ready(13), 0);
        assert_eq!(bus.drain_ready(14), 1);
        assert_eq!(bus.in_flight(), 1);
        assert_eq!(bus.drain_ready(100), 1);
        assert_eq!(bus.in_flight(), 0);
    }

    #[test]
    fn snapshot_refuses_a_queue_out_of_delivery_order() {
        use remap_snap::{Reader, Writer};
        let mut bus = BarrierBus::new(4);
        bus.send(1, 0, 0, 10);
        bus.send(2, 0, 1, 10);
        let encode = |bus: &mut BarrierBus| {
            let mut w = Writer::default();
            bus.visit(&mut w).unwrap();
            w.into_vec()
        };
        let bytes = encode(&mut bus);
        let mut back = BarrierBus::new(4);
        back.visit(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.deliver(18).len(), 2, "in-order queue restores");
        bus.queue.swap(0, 1);
        let bytes = encode(&mut bus);
        let err = back.visit(&mut Reader::new(&bytes)).unwrap_err();
        assert!(matches!(err, SnapError::Corrupt(_)), "{err:?}");
    }
}
