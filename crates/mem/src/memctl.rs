//! A simple per-cluster memory controller: bounded in-flight DRAM
//! requests with FCFS slot arbitration and a bank-conflict penalty.
//!
//! The controller is timing-only, like the MSHR file: it never refuses a
//! demand request, it just schedules it. Each request occupies one of a
//! fixed number of *slots* (the in-flight bound — think channel queue
//! entries) for its whole service time, and one of a fixed number of
//! line-interleaved *banks* for the bank-busy window. A request issued at
//! `t_req` starts at the earliest cycle both a slot and its bank are free,
//! so queueing delay and bank conflicts surface as added latency — this is
//! what makes bandwidth, not just latency, part of the model.
//!
//! Determinism note for the quiescence skip engine: controller state is
//! mutated only by `request`, which the hierarchy calls during a core's
//! *real* step (a demand miss or a prefetch issued on one). The pure
//! readiness probes (`Hierarchy::load_ready` and friends) never touch the
//! controller, so skip and tick mode observe identical schedules.

use remap_snap::{SnapError, Visit, Visitor};

/// One memory controller serving a cluster of cores.
#[derive(Debug, Clone)]
pub struct MemCtl {
    /// Busy-until cycle per in-flight slot.
    slots: Vec<u64>,
    /// Busy-until cycle per bank.
    banks: Vec<u64>,
    /// Cycles a bank stays busy after a request starts (the conflict
    /// penalty a same-bank successor pays).
    bank_busy: u32,
    /// log2 of the line size, for line-interleaved bank hashing.
    line_shift: u32,
    /// High-water mark of simultaneously busy slots.
    queue_peak: u32,
}

impl MemCtl {
    /// A controller with `slots` in-flight entries over `banks` banks.
    pub fn new(slots: usize, banks: usize, bank_busy: u32, line_bytes: u64) -> MemCtl {
        MemCtl {
            slots: vec![0; slots.max(1)],
            banks: vec![0; banks.max(1)],
            bank_busy,
            line_shift: line_bytes.max(1).trailing_zeros(),
            queue_peak: 0,
        }
    }

    /// Schedules a DRAM fetch of `line` requested at `t_req` with service
    /// time `service`; returns the completion cycle. Never refuses — a
    /// saturated controller simply pushes the start time out.
    pub fn request(&mut self, t_req: u64, line: u64, service: u32) -> u64 {
        let occupied = self.slots.iter().filter(|&&busy| busy > t_req).count() as u32 + 1;
        self.queue_peak = self.queue_peak.max(occupied.min(self.slots.len() as u32));
        // FCFS over the slot pool: take the slot that frees first.
        let slot = self
            .slots
            .iter()
            .enumerate()
            .min_by_key(|(_, &busy)| busy)
            .map(|(i, _)| i)
            .unwrap_or(0);
        let bank = ((line >> self.line_shift) as usize) % self.banks.len();
        let t0 = t_req.max(self.slots[slot]).max(self.banks[bank]);
        let done = t0 + service as u64;
        self.slots[slot] = done;
        self.banks[bank] = t0 + self.bank_busy as u64;
        done
    }

    /// True when a slot is free at `t` — the gate for *prefetch* requests,
    /// which must not steal bandwidth a demand would queue for.
    pub fn slot_available(&self, t: u64) -> bool {
        self.slots.iter().any(|&busy| busy <= t)
    }

    /// High-water mark of simultaneously busy slots.
    pub fn queue_peak(&self) -> u32 {
        self.queue_peak
    }
}

/// Checkpoint support: the dynamic scheduling state.
impl Visit for MemCtl {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        v.exact(&mut self.slots)?;
        v.exact(&mut self.banks)?;
        v.u32(&mut self.queue_peak)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_request_costs_exactly_service_time() {
        let mut mc = MemCtl::new(4, 8, 20, 32);
        assert_eq!(mc.request(100, 0x1000, 200), 300);
        assert_eq!(mc.queue_peak(), 1);
    }

    #[test]
    fn same_bank_requests_serialize_by_the_penalty() {
        let mut mc = MemCtl::new(4, 8, 20, 32);
        // 8 banks × 32-byte lines: addresses 256 bytes apart share a bank.
        let a = mc.request(0, 0x0, 200);
        let b = mc.request(0, 0x100, 200);
        assert_eq!(a, 200);
        assert_eq!(b, 220, "second hit waits out the bank-busy window");
    }

    #[test]
    fn different_banks_overlap_fully() {
        let mut mc = MemCtl::new(4, 8, 20, 32);
        assert_eq!(mc.request(0, 0x0, 200), 200);
        assert_eq!(mc.request(0, 0x20, 200), 200, "next line, next bank");
    }

    #[test]
    fn slot_exhaustion_queues_the_request() {
        let mut mc = MemCtl::new(2, 8, 20, 32);
        mc.request(0, 0x0, 200);
        mc.request(0, 0x20, 200);
        assert!(!mc.slot_available(100));
        // Third request waits for the first slot to free at 200.
        assert_eq!(mc.request(0, 0x40, 200), 400);
        assert_eq!(mc.queue_peak(), 2, "peak is capped at the slot count");
        assert!(mc.slot_available(400));
    }
}
