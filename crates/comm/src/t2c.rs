//! The Thread-to-Core table (§II-B.1 of the paper).

use remap_snap::{SnapError, Visit, Visitor};
use std::error::Error;
use std::fmt;

/// Errors from table operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum T2cError {
    /// The core still has SPL results in flight toward it; switch-out must
    /// wait until the counter drains (§II-B.1).
    InFlight(u8),
    /// No thread is bound to the core.
    NotBound,
}

impl fmt::Display for T2cError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            T2cError::InFlight(n) => write!(f, "{n} SPL instructions in flight to this core"),
            T2cError::NotBound => write!(f, "no thread bound to this core"),
        }
    }
}

impl Error for T2cError {}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct T2cEntry {
    thread: u32,
    app: u32,
    in_flight: u8,
}

/// The per-SPL Thread-to-Core table: one entry per attached core holding the
/// running thread's ID, its application ID, and the count of in-flight SPL
/// instructions destined for that core.
///
/// Per the paper each entry is an 11.5 B CAM record (16 bits of IDs, 5 bits
/// of in-flight count, 2 bits of hard-wired core ID); [`entry_bits`] exposes
/// that sizing for the area model.
///
/// An SPL instruction naming a destination *thread* resolves it here at
/// issue. If the thread is not present the instruction does not issue —
/// preventing a producer from filling the fabric when its consumer has been
/// switched out. The in-flight counters gate switch-out: a thread may leave
/// its core only when no results are still heading toward it.
///
/// [`entry_bits`]: ThreadToCoreTable::entry_bits
#[derive(Debug, Clone)]
pub struct ThreadToCoreTable {
    entries: Vec<Option<T2cEntry>>,
    /// Reverse index for grid-scale tables: thread ID → bitmask of bound
    /// cores, giving O(1) [`lookup`](Self::lookup) instead of a scan over
    /// every core slot. Maintained only when the core count fits one mask
    /// word; larger tables fall back to the linear CAM walk.
    by_thread: std::collections::HashMap<u32, u64>,
    max_in_flight: u8,
}

impl ThreadToCoreTable {
    /// Creates a table for `n_cores` cores with the paper's limit of 24
    /// in-flight instructions (the fabric has 24 rows).
    pub fn new(n_cores: usize) -> ThreadToCoreTable {
        ThreadToCoreTable {
            entries: vec![None; n_cores],
            by_thread: std::collections::HashMap::new(),
            max_in_flight: 24,
        }
    }

    /// Drops `core`'s bit from the reverse index entry of `thread`.
    fn unindex(&mut self, thread: u32, core: usize) {
        if core < 64 {
            if let Some(mask) = self.by_thread.get_mut(&thread) {
                *mask &= !(1u64 << core);
                if *mask == 0 {
                    self.by_thread.remove(&thread);
                }
            }
        }
    }

    /// Number of core slots.
    pub fn n_cores(&self) -> usize {
        self.entries.len()
    }

    /// Bits per CAM entry: 16 for thread+app IDs (256 each), 5 for the
    /// in-flight count, 2 for the hard-coded core ID.
    pub fn entry_bits(&self) -> u32 {
        16 + 5 + 2
    }

    /// Binds `thread` of application `app` to `core` (thread switch-in).
    /// Any previous binding of the core is replaced.
    pub fn bind(&mut self, core: usize, thread: u32, app: u32) {
        if let Some(old) = self.entries[core] {
            self.unindex(old.thread, core);
        }
        if core < 64 {
            *self.by_thread.entry(thread).or_insert(0) |= 1u64 << core;
        }
        self.entries[core] = Some(T2cEntry {
            thread,
            app,
            in_flight: 0,
        });
    }

    /// Unbinds the thread on `core` (switch-out).
    ///
    /// # Errors
    ///
    /// [`T2cError::InFlight`] when SPL results are still bound for this core
    /// — the thread must keep running until the counter reaches zero;
    /// [`T2cError::NotBound`] if the core is idle.
    pub fn unbind(&mut self, core: usize) -> Result<(), T2cError> {
        match self.entries[core] {
            None => Err(T2cError::NotBound),
            Some(e) if e.in_flight > 0 => Err(T2cError::InFlight(e.in_flight)),
            Some(e) => {
                self.unindex(e.thread, core);
                self.entries[core] = None;
                Ok(())
            }
        }
    }

    /// The core currently running `thread`, if any (the CAM lookup performed
    /// when an SPL instruction issues). O(1) through the reverse index; the
    /// lowest-numbered bound core wins, matching the original CAM scan.
    pub fn lookup(&self, thread: u32) -> Option<usize> {
        if self.entries.len() <= 64 {
            return self
                .by_thread
                .get(&thread)
                .map(|mask| mask.trailing_zeros() as usize);
        }
        self.entries
            .iter()
            .position(|e| matches!(e, Some(x) if x.thread == thread))
    }

    /// The thread bound to `core`, if any.
    pub fn thread_on(&self, core: usize) -> Option<u32> {
        self.entries[core].map(|e| e.thread)
    }

    /// Registers an in-flight SPL instruction destined for `core`. Returns
    /// `false` (and does not count it) when the per-core limit of 24 is
    /// reached — the instruction must not issue this cycle.
    pub fn inc_in_flight(&mut self, core: usize) -> bool {
        match &mut self.entries[core] {
            Some(e) if e.in_flight < self.max_in_flight => {
                e.in_flight += 1;
                true
            }
            _ => false,
        }
    }

    /// Retires an in-flight SPL instruction (its result reached the output
    /// queue of `core`).
    pub fn dec_in_flight(&mut self, core: usize) {
        if let Some(e) = &mut self.entries[core] {
            e.in_flight = e.in_flight.saturating_sub(1);
        }
    }

    /// Current in-flight count toward `core`.
    pub fn in_flight(&self, core: usize) -> u8 {
        self.entries[core].map(|e| e.in_flight).unwrap_or(0)
    }

    /// Whether another in-flight SPL instruction toward `core` would be
    /// admitted right now (pure probe: the quiescence analysis uses this to
    /// mirror [`ThreadToCoreTable::inc_in_flight`] without mutating).
    pub fn has_capacity(&self, core: usize) -> bool {
        matches!(&self.entries[core], Some(e) if e.in_flight < self.max_in_flight)
    }
}

remap_snap::visit_fields!(T2cEntry: thread, app, in_flight);

/// Checkpoint support: the bindings. The reverse index is derived and is
/// rebuilt on load.
impl Visit for ThreadToCoreTable {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        v.exact(&mut self.entries)?;
        if V::READS {
            self.by_thread.clear();
            for (core, e) in self.entries.iter().enumerate().take(64) {
                if let Some(e) = e {
                    *self.by_thread.entry(e.thread).or_insert(0) |= 1u64 << core;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_lookup_unbind() {
        let mut t = ThreadToCoreTable::new(4);
        t.bind(2, 7, 1);
        assert_eq!(t.lookup(7), Some(2));
        assert_eq!(t.thread_on(2), Some(7));
        assert_eq!(t.lookup(8), None);
        t.unbind(2).unwrap();
        assert_eq!(t.lookup(7), None);
    }

    #[test]
    fn unbind_blocked_by_in_flight() {
        let mut t = ThreadToCoreTable::new(4);
        t.bind(0, 1, 1);
        assert!(t.inc_in_flight(0));
        assert_eq!(t.unbind(0), Err(T2cError::InFlight(1)));
        t.dec_in_flight(0);
        assert_eq!(t.unbind(0), Ok(()));
    }

    #[test]
    fn unbound_core_errors() {
        let mut t = ThreadToCoreTable::new(2);
        assert_eq!(t.unbind(0), Err(T2cError::NotBound));
        assert!(!t.inc_in_flight(0), "cannot target an idle core");
    }

    #[test]
    fn in_flight_limit_is_24() {
        let mut t = ThreadToCoreTable::new(1);
        t.bind(0, 1, 1);
        for _ in 0..24 {
            assert!(t.inc_in_flight(0));
        }
        assert!(
            !t.inc_in_flight(0),
            "fabric has 24 rows; 25th must not issue"
        );
        assert_eq!(t.in_flight(0), 24);
    }

    #[test]
    fn rebinding_replaces() {
        let mut t = ThreadToCoreTable::new(2);
        t.bind(0, 1, 1);
        t.bind(0, 2, 1);
        assert_eq!(t.lookup(1), None);
        assert_eq!(t.lookup(2), Some(0));
    }

    #[test]
    fn duplicate_bindings_resolve_to_the_lowest_core() {
        // The reverse index must keep the original CAM-scan semantics: the
        // lowest-numbered core bound to the thread wins.
        let mut t = ThreadToCoreTable::new(8);
        t.bind(5, 7, 1);
        t.bind(2, 7, 1);
        assert_eq!(t.lookup(7), Some(2));
        t.unbind(2).unwrap();
        assert_eq!(t.lookup(7), Some(5));
        t.bind(5, 9, 1); // rebind drops the old thread's index entry
        assert_eq!(t.lookup(7), None);
        assert_eq!(t.lookup(9), Some(5));
    }

    #[test]
    fn entry_sizing_matches_paper() {
        let t = ThreadToCoreTable::new(4);
        // 23 bits/entry × 4 entries = 92 bits = 11.5 bytes of CAM.
        assert_eq!(t.entry_bits() * 4, 92);
    }
}
