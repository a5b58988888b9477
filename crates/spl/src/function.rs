//! SPL function configurations: hardware requirements plus semantics.

use std::fmt;
use std::sync::Arc;

/// A sealed 16-byte input-queue entry (one SPL row width of data).
///
/// `spl_load` instructions place register bytes at chosen alignments; the
/// accessors here are what function closures use to pull typed operands back
/// out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Entry {
    /// Raw entry bytes.
    pub bytes: [u8; 16],
    /// Valid bits, one per byte (Figure 2(b)).
    pub valid: u16,
}

impl Entry {
    /// Stages `nbytes` low-order bytes of `value` at byte `offset`,
    /// saturating at the entry boundary.
    pub fn stage(&mut self, offset: u8, nbytes: u8, value: u64) {
        for i in 0..nbytes.min(16) {
            let idx = offset as usize + i as usize;
            if idx < 16 {
                // Bytes past the register width stage as zero; shifting by
                // >= 64 would otherwise overflow.
                self.bytes[idx] = if i < 8 {
                    (value >> (8 * i as u32)) as u8
                } else {
                    0
                };
                self.valid |= 1 << idx;
            }
        }
    }

    /// Little-endian `u32` at byte `offset`.
    pub fn u32(&self, offset: usize) -> u32 {
        let mut b = [0u8; 4];
        for (i, out) in b.iter_mut().enumerate() {
            *out = self.bytes.get(offset + i).copied().unwrap_or(0);
        }
        u32::from_le_bytes(b)
    }

    /// Little-endian `i32` at byte `offset`.
    pub fn i32(&self, offset: usize) -> i32 {
        self.u32(offset) as i32
    }

    /// Little-endian `u64` at byte `offset`.
    pub fn u64(&self, offset: usize) -> u64 {
        (self.u32(offset) as u64) | ((self.u32(offset + 4) as u64) << 32)
    }

    /// Single byte at `offset` (0 if out of range).
    pub fn u8(&self, offset: usize) -> u8 {
        self.bytes.get(offset).copied().unwrap_or(0)
    }

    /// Whether the byte at `offset` has been staged.
    pub fn is_valid(&self, offset: usize) -> bool {
        offset < 16 && (self.valid >> offset) & 1 == 1
    }
}

/// Destination of a compute operation's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// Result returns to the initiating core's output queue (individual
    /// computation, Figure 1(a)).
    SelfCore,
    /// Result is bypassed to the output queue of the core running the given
    /// thread (producer→consumer communication, Figure 1(b)). The thread is
    /// resolved to a core through the Thread-to-Core table at issue time.
    Thread(u32),
}

/// Semantics of a compute configuration: input entry and the function's
/// row registers → 64-bit result.
pub type ComputeFn = Arc<dyn Fn(&Entry, &mut [u64]) -> u64 + Send + Sync>;
/// Semantics of a barrier configuration: participants' entries → result.
pub type BarrierFn = Arc<dyn Fn(&[Entry]) -> u64 + Send + Sync>;

/// What kind of operation a configuration performs.
#[derive(Clone)]
pub enum FunctionKind {
    /// Ordinary computation on one input entry.
    Compute {
        /// Where the result goes.
        dest: Dest,
        /// Semantics: input entry and row registers → 64-bit result.
        eval: ComputeFn,
    },
    /// Barrier synchronization with an integrated global function
    /// (Figure 1(c)): consumes one entry per participant, broadcasts one
    /// result to every participant.
    Barrier {
        /// Semantics: participants' entries (in participant order) → result.
        eval: BarrierFn,
    },
}

impl fmt::Debug for FunctionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FunctionKind::Compute { dest, .. } => f
                .debug_struct("Compute")
                .field("dest", dest)
                .finish_non_exhaustive(),
            FunctionKind::Barrier { .. } => f.debug_struct("Barrier").finish_non_exhaustive(),
        }
    }
}

/// A configured SPL function: a name, the number of virtual rows it needs,
/// its semantics, and — for streaming computations — the row registers it
/// keeps between operations.
///
/// The row count is the *hardware requirement* from which the fabric derives
/// latency (one SPL cycle per row) and, when it exceeds the physical rows of
/// the partition, the virtualization initiation interval.
#[derive(Debug, Clone)]
pub struct SplFunction {
    name: String,
    rows: u32,
    kind: FunctionKind,
    /// Row flip-flop state carried from one operation to the next. Each
    /// fabric the function is registered on owns its own copy, and
    /// snapshots carry it.
    pub(crate) regs: Vec<u64>,
}

impl SplFunction {
    /// Creates a compute configuration.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`.
    pub fn compute(
        name: impl Into<String>,
        rows: u32,
        dest: Dest,
        eval: impl Fn(&Entry) -> u64 + Send + Sync + 'static,
    ) -> SplFunction {
        SplFunction::stateful(name, rows, dest, &[], move |e, _| eval(e))
    }

    /// Creates a compute configuration whose rows keep state between
    /// operations (a streaming reduction or filter): `regs` are the row
    /// registers' reset values, which `eval` reads and updates.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`.
    pub fn stateful(
        name: impl Into<String>,
        rows: u32,
        dest: Dest,
        regs: &[u64],
        eval: impl Fn(&Entry, &mut [u64]) -> u64 + Send + Sync + 'static,
    ) -> SplFunction {
        assert!(rows > 0, "a function needs at least one row");
        SplFunction {
            name: name.into(),
            rows,
            kind: FunctionKind::Compute {
                dest,
                eval: Arc::new(eval),
            },
            regs: regs.to_vec(),
        }
    }

    /// Creates a barrier configuration with an integrated global function.
    ///
    /// # Panics
    ///
    /// Panics if `rows == 0`.
    pub fn barrier(
        name: impl Into<String>,
        rows: u32,
        eval: impl Fn(&[Entry]) -> u64 + Send + Sync + 'static,
    ) -> SplFunction {
        assert!(rows > 0, "a function needs at least one row");
        SplFunction {
            name: name.into(),
            rows,
            kind: FunctionKind::Barrier {
                eval: Arc::new(eval),
            },
            regs: Vec::new(),
        }
    }

    /// The function's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Virtual rows required.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// The operation kind and semantics.
    pub fn kind(&self) -> &FunctionKind {
        &self.kind
    }

    /// Whether this is a barrier configuration (the paper flags this in the
    /// SPL function configuration).
    pub fn is_barrier(&self) -> bool {
        matches!(self.kind, FunctionKind::Barrier { .. })
    }

    /// Number of row registers kept between operations.
    pub fn n_regs(&self) -> usize {
        self.regs.len()
    }

    /// Runs a compute configuration on one entry, updating its row
    /// registers (`None` for a barrier configuration).
    pub(crate) fn compute_on(&mut self, e: &Entry) -> Option<u64> {
        match &self.kind {
            FunctionKind::Compute { eval, .. } => Some(eval(e, &mut self.regs)),
            FunctionKind::Barrier { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entry_staging_and_accessors() {
        let mut e = Entry::default();
        e.stage(0, 4, 0xdead_beef);
        e.stage(4, 4, 0x1234_5678);
        e.stage(12, 1, 0xff);
        assert_eq!(e.u32(0), 0xdead_beef);
        assert_eq!(e.u32(4), 0x1234_5678);
        assert_eq!(e.u8(12), 0xff);
        assert_eq!(e.u64(0), 0x1234_5678_dead_beef);
        assert!(e.is_valid(0));
        assert!(e.is_valid(7));
        assert!(!e.is_valid(8));
        assert!(e.is_valid(12));
        assert_eq!(e.i32(0), 0xdead_beefu32 as i32);
    }

    #[test]
    fn entry_stage_clips_at_boundary() {
        let mut e = Entry::default();
        e.stage(14, 4, 0xaabb_ccdd); // only 2 bytes fit
        assert_eq!(e.u8(14), 0xdd);
        assert_eq!(e.u8(15), 0xcc);
        assert!(!e.is_valid(16));
    }

    #[test]
    fn compute_function_metadata() {
        let f = SplFunction::compute("mc", 10, Dest::Thread(3), |e| e.u32(0) as u64);
        assert_eq!(f.name(), "mc");
        assert_eq!(f.rows(), 10);
        assert!(!f.is_barrier());
        match f.kind() {
            FunctionKind::Compute { dest, eval } => {
                assert_eq!(*dest, Dest::Thread(3));
                let mut e = Entry::default();
                e.stage(0, 4, 9);
                assert_eq!(eval(&e, &mut []), 9);
            }
            _ => panic!("expected compute"),
        }
    }

    #[test]
    fn barrier_function_metadata() {
        let f = SplFunction::barrier("gmin", 4, |entries| {
            entries.iter().map(|e| e.u32(0)).min().unwrap_or(0) as u64
        });
        assert!(f.is_barrier());
        match f.kind() {
            FunctionKind::Barrier { eval } => {
                let mut a = Entry::default();
                a.stage(0, 4, 30);
                let mut b = Entry::default();
                b.stage(0, 4, 12);
                assert_eq!(eval(&[a, b]), 12);
            }
            _ => panic!("expected barrier"),
        }
    }

    #[test]
    #[should_panic(expected = "at least one row")]
    fn zero_rows_panics() {
        let _ = SplFunction::compute("bad", 0, Dest::SelfCore, |_| 0);
    }

    #[test]
    fn debug_not_empty() {
        let f = SplFunction::compute("x", 1, Dest::SelfCore, |_| 0);
        assert!(!format!("{f:?}").is_empty());
    }
}
