//! Per-core activity statistics, consumed by reports and the power model.

use remap_isa::InstClass;

/// Counters accumulated by a [`Core`](crate::Core) as it executes.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct CoreStats {
    /// Cycles this core has been stepped.
    pub cycles: u64,
    /// Instructions retired.
    pub committed: u64,
    /// Retired instructions by class (indexed via [`class_index`]).
    pub committed_by_class: [u64; 12],
    /// Instructions fetched (including wrong-path instructions that were
    /// later squashed).
    pub fetched: u64,
    /// Instructions dispatched into the ROB.
    pub dispatched: u64,
    /// Instructions issued to functional units.
    pub issued: u64,
    /// Instructions squashed by branch mispredicts.
    pub squashed: u64,
    /// Conditional/indirect control transfers retired.
    pub branches: u64,
    /// Retired control transfers that had been mispredicted.
    pub mispredicts: u64,
    /// Cycles the front end stalled because the ROB was full.
    pub rob_full_stalls: u64,
    /// Cycles the front end stalled because an issue queue was full.
    pub iq_full_stalls: u64,
    /// Cycles commit was blocked waiting on an SPL queue (full input queue
    /// or empty output queue).
    pub spl_wait_cycles: u64,
    /// Cycles commit was blocked waiting on a hardware queue or barrier.
    pub hw_wait_cycles: u64,
    /// Cycles commit was blocked on a memory fence draining stores.
    pub fence_wait_cycles: u64,
    /// Architectural register-file reads (for power).
    pub regfile_reads: u64,
    /// Architectural register-file writes (for power).
    pub regfile_writes: u64,
    /// `spl_load`/`spl_init`/`spl_store` instructions retired.
    pub spl_ops: u64,
    /// Cycles during which at least one instruction committed.
    pub busy_cycles: u64,
}

remap_snap::visit_fields!(
    CoreStats: cycles, committed, committed_by_class, fetched, dispatched, issued, squashed,
    branches, mispredicts, rob_full_stalls, iq_full_stalls, spl_wait_cycles, hw_wait_cycles,
    fence_wait_cycles, regfile_reads, regfile_writes, spl_ops, busy_cycles
);

/// Maps an [`InstClass`] to its slot in `committed_by_class`.
pub fn class_index(c: InstClass) -> usize {
    match c {
        InstClass::IntAlu => 0,
        InstClass::IntMul => 1,
        InstClass::IntDiv => 2,
        InstClass::Fp => 3,
        InstClass::Load => 4,
        InstClass::Store => 5,
        InstClass::Atomic => 6,
        InstClass::Branch => 7,
        InstClass::Spl => 8,
        InstClass::Hwq => 9,
        InstClass::Sync => 10,
        InstClass::Other => 11,
    }
}

impl CoreStats {
    /// Retired instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Mispredicts per retired branch.
    pub fn mispredict_rate(&self) -> f64 {
        if self.branches == 0 {
            0.0
        } else {
            self.mispredicts as f64 / self.branches as f64
        }
    }

    /// Retired count for one class.
    pub fn committed_of(&self, c: InstClass) -> u64 {
        self.committed_by_class[class_index(c)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_handles_zero_cycles() {
        assert_eq!(CoreStats::default().ipc(), 0.0);
    }

    #[test]
    fn class_indices_are_distinct() {
        use InstClass::*;
        let all = [
            IntAlu, IntMul, IntDiv, Fp, Load, Store, Atomic, Branch, Spl, Hwq, Sync, Other,
        ];
        let mut seen = std::collections::HashSet::new();
        for c in all {
            assert!(seen.insert(class_index(c)), "duplicate index for {c:?}");
        }
    }

    #[test]
    fn rates() {
        let s = CoreStats {
            cycles: 100,
            committed: 50,
            branches: 10,
            mispredicts: 2,
            ..Default::default()
        };
        assert_eq!(s.ipc(), 0.5);
        assert_eq!(s.mispredict_rate(), 0.2);
    }
}
