//! The per-cluster Barrier table (§II-B.2 of the paper).

use remap_snap::{SnapError, Visit, Visitor};

/// Result of a thread arriving at a barrier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArriveOutcome {
    /// Not all participants have arrived yet.
    Waiting {
        /// Arrived count after this arrival.
        arrived: u32,
        /// Total expected.
        total: u32,
    },
    /// All participants have arrived and are active: the barrier releases.
    /// Contains the participating cores in arrival order.
    Release(Vec<usize>),
    /// All participants have arrived but some are switched out; the ReMAP
    /// controller must raise an exception to switch the missing threads back
    /// in (§II-B.2). Contains the inactive thread IDs.
    MissingThreads(Vec<u32>),
}

#[derive(Debug, Default, Clone)]
struct BarrierEntry {
    barrier_id: u32,
    app_id: u32,
    total: u32,
    arrived: u32,
    cores: Vec<usize>,
    threads: Vec<u32>,
    active: Vec<bool>,
}

/// Tracks active barriers within one SPL cluster.
///
/// The table holds as many entries as cores attached to the cluster (each
/// core could be in a different barrier). Per the paper each entry needs
/// 8 bytes: 16 bits of IDs, 4+4 bits of arrived/total counts, 4 bits of
/// participating cores, 32 bits of participating thread IDs and 4 active
/// bits.
#[derive(Debug, Clone, Default)]
pub struct BarrierTable {
    entries: Vec<BarrierEntry>,
    capacity: usize,
    /// Barriers released through this table (for reports).
    pub releases: u64,
}

impl BarrierTable {
    /// Creates a table with one entry slot per attached core.
    pub fn new(cores_per_cluster: usize) -> BarrierTable {
        BarrierTable {
            entries: Vec::new(),
            capacity: cores_per_cluster,
            releases: 0,
        }
    }

    /// Bits per table entry (the paper's 8-byte sizing).
    pub fn entry_bits(&self) -> u32 {
        16 + 4 + 4 + 4 + 32 + 4
    }

    /// Records `thread` (running on `core`, application `app_id`) arriving
    /// at `barrier_id`, which synchronizes `total` threads.
    ///
    /// # Panics
    ///
    /// Panics if more distinct barriers are active than table entries, or if
    /// the same thread arrives twice at the same barrier instance.
    pub fn arrive(
        &mut self,
        barrier_id: u32,
        app_id: u32,
        total: u32,
        core: usize,
        thread: u32,
    ) -> ArriveOutcome {
        let idx = match self
            .entries
            .iter()
            .position(|e| e.barrier_id == barrier_id && e.app_id == app_id)
        {
            Some(i) => i,
            None => {
                assert!(
                    self.entries.len() < self.capacity,
                    "barrier table overflow: {} active barriers",
                    self.entries.len()
                );
                self.entries.push(BarrierEntry {
                    barrier_id,
                    app_id,
                    total,
                    arrived: 0,
                    cores: Vec::new(),
                    threads: Vec::new(),
                    active: Vec::new(),
                });
                self.entries.len() - 1
            }
        };
        let e = &mut self.entries[idx];
        assert!(
            !e.threads.contains(&thread),
            "thread {thread} arrived twice at barrier {barrier_id}"
        );
        e.arrived += 1;
        e.cores.push(core);
        e.threads.push(thread);
        e.active.push(true);
        if e.arrived < e.total {
            return ArriveOutcome::Waiting {
                arrived: e.arrived,
                total: e.total,
            };
        }
        if e.active.iter().all(|&a| a) {
            let e = self.entries.remove(idx);
            self.releases += 1;
            ArriveOutcome::Release(e.cores)
        } else {
            let missing = e
                .threads
                .iter()
                .zip(&e.active)
                .filter(|(_, &a)| !a)
                .map(|(&t, _)| t)
                .collect();
            ArriveOutcome::MissingThreads(missing)
        }
    }

    /// Marks a participating thread as switched out (`false`) or back in
    /// (`true`). Affects every barrier the thread participates in.
    pub fn set_active(&mut self, thread: u32, active: bool) {
        for e in &mut self.entries {
            for (t, a) in e.threads.iter().zip(e.active.iter_mut()) {
                if *t == thread {
                    *a = active;
                }
            }
        }
    }

    /// Re-checks a fully-arrived barrier after missing threads were switched
    /// back in; releases it if everyone is now active.
    pub fn try_release(&mut self, barrier_id: u32, app_id: u32) -> Option<Vec<usize>> {
        let idx = self
            .entries
            .iter()
            .position(|e| e.barrier_id == barrier_id && e.app_id == app_id)?;
        let e = &self.entries[idx];
        if e.arrived == e.total && e.active.iter().all(|&a| a) {
            let e = self.entries.remove(idx);
            self.releases += 1;
            Some(e.cores)
        } else {
            None
        }
    }

    /// Number of barriers currently tracked.
    pub fn active_barriers(&self) -> usize {
        self.entries.len()
    }
}

/// Cores, threads and arrival flags share one length prefix.
impl Visit for BarrierEntry {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        v.u32(&mut self.barrier_id)?;
        v.u32(&mut self.app_id)?;
        v.u32(&mut self.total)?;
        v.u32(&mut self.arrived)?;
        v.vec(&mut self.cores, 1 << 20)?;
        if V::READS {
            self.threads.resize(self.cores.len(), 0);
            self.active.resize(self.cores.len(), false);
        }
        v.each(&mut self.threads)?;
        v.each(&mut self.active)
    }
}

/// Checkpoint support: the table contents.
impl Visit for BarrierTable {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        v.vec(&mut self.entries, self.capacity)?;
        v.u64(&mut self.releases)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waits_then_releases_in_arrival_order() {
        let mut t = BarrierTable::new(4);
        assert_eq!(
            t.arrive(1, 0, 3, 0, 10),
            ArriveOutcome::Waiting {
                arrived: 1,
                total: 3
            }
        );
        assert_eq!(
            t.arrive(1, 0, 3, 2, 12),
            ArriveOutcome::Waiting {
                arrived: 2,
                total: 3
            }
        );
        match t.arrive(1, 0, 3, 1, 11) {
            ArriveOutcome::Release(cores) => assert_eq!(cores, vec![0, 2, 1]),
            other => panic!("expected release, got {other:?}"),
        }
        assert_eq!(t.active_barriers(), 0);
        assert_eq!(t.releases, 1);
    }

    #[test]
    fn distinct_barriers_tracked_independently() {
        let mut t = BarrierTable::new(4);
        t.arrive(1, 0, 2, 0, 10);
        t.arrive(2, 0, 2, 1, 11);
        assert_eq!(t.active_barriers(), 2);
        assert!(matches!(
            t.arrive(2, 0, 2, 2, 12),
            ArriveOutcome::Release(_)
        ));
        assert!(matches!(
            t.arrive(1, 0, 2, 3, 13),
            ArriveOutcome::Release(_)
        ));
    }

    #[test]
    fn same_id_different_app_is_different_barrier() {
        let mut t = BarrierTable::new(4);
        t.arrive(1, 0, 2, 0, 10);
        assert_eq!(
            t.arrive(1, 1, 2, 1, 11),
            ArriveOutcome::Waiting {
                arrived: 1,
                total: 2
            }
        );
        assert_eq!(t.active_barriers(), 2);
    }

    #[test]
    fn inactive_thread_triggers_exception_path() {
        let mut t = BarrierTable::new(4);
        t.arrive(5, 0, 2, 0, 100);
        t.set_active(100, false); // thread switched out while waiting
        match t.arrive(5, 0, 2, 1, 101) {
            ArriveOutcome::MissingThreads(m) => assert_eq!(m, vec![100]),
            other => panic!("expected missing threads, got {other:?}"),
        }
        // Still pending; switching the thread back in releases it.
        assert_eq!(t.try_release(5, 0), None);
        t.set_active(100, true);
        assert_eq!(t.try_release(5, 0), Some(vec![0, 1]));
    }

    #[test]
    #[should_panic(expected = "arrived twice")]
    fn double_arrival_panics() {
        let mut t = BarrierTable::new(4);
        t.arrive(1, 0, 3, 0, 10);
        t.arrive(1, 0, 3, 0, 10);
    }

    #[test]
    #[should_panic(expected = "barrier table overflow")]
    fn overflow_panics() {
        let mut t = BarrierTable::new(1);
        t.arrive(1, 0, 2, 0, 10);
        t.arrive(2, 0, 2, 1, 11);
    }

    #[test]
    fn entry_sizing_matches_paper() {
        let t = BarrierTable::new(4);
        assert_eq!(t.entry_bits(), 64, "8 bytes per entry");
    }
}
