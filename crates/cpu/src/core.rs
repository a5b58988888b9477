//! The cycle-level out-of-order core.
//!
//! Pipeline structure (modeled after the SESC-style cores of Table II):
//!
//! * **Fetch** — one instruction group per L1I access, up to `fetch_width`
//!   instructions; conditional branches consult the hybrid predictor and the
//!   BTB, calls/returns use the RAS; fetch groups end at taken transfers.
//! * **Dispatch/Rename** — up to `fetch_width` per cycle into the ROB, with
//!   ROB-based renaming (the map table points at in-flight producers) and
//!   issue-queue occupancy limits (32 int / 16 FP).
//! * **Issue/Execute** — oldest-first select of up to `issue_width` ready
//!   instructions per cycle, constrained by functional-unit counts; loads
//!   obey conservative memory disambiguation with exact-match store-to-load
//!   forwarding.
//! * **Writeback** — completed values broadcast to waiting consumers;
//!   mispredicted branches squash all younger work and redirect fetch.
//! * **Commit** — up to `retire_width` per cycle, in order. Stores drain
//!   through a post-commit store buffer. ReMAP queue operations take effect
//!   at commit (`spl_load`/`spl_init` push with back-pressure) or execute
//!   non-speculatively at the ROB head (`spl_store`, `hwq_recv`, atomics,
//!   fences, hardware barriers), which models the paper's decoupled
//!   queue-based SPL interface.

use crate::bpred::{Prediction, Predictor};
use crate::config::CoreConfig;
use crate::ports::{CorePorts, PortPush};
use crate::stats::{class_index, CoreStats};
use remap_isa::{Inst, InstClass, Program, Reg};
use remap_snap::{SnapError, Visit, Visitor};
use std::collections::VecDeque;

/// Byte address where code is mapped for I-cache indexing; keeps code
/// addresses disjoint from any data the workloads use.
pub const CODE_BASE: u64 = 0x4000_0000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    Ready(i64),
    Wait(u64),
}

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Waiting for operands / functional unit (or for the ROB head, for
    /// at-head-only operations).
    #[default]
    Waiting,
    /// In a functional unit; completes at the contained cycle.
    Executing(u64),
    /// Result available.
    Done,
}

/// Most ROB entries a core may have: one bit per entry in each [`Slots`]
/// mask.
const MAX_ROB: usize = 64;

/// The ROB walk state as position masks: bit `i` of each mask describes
/// `rob[i]`. The issue walk and the quiescence probe find their next
/// candidate with one `trailing_zeros` and touch the ~112-byte entries
/// only on a match. Every mask is derived from the entries; dispatch,
/// wakeup, issue, commit and squash keep it current, and debug builds
/// recount it every cycle.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Slots {
    /// Issue candidates: waiting, in the issue queue, not at-head-only,
    /// with both sources ready.
    ready: u64,
    /// Waiting loads.
    loads: u64,
    /// Memory-ordering entries: stores, fences, atomics and `hwbar`.
    orders: u64,
    /// The `orders` entries that block every younger load: a fence,
    /// atomic or `hwbar`, or a store whose address is still unknown.
    gates: u64,
}

impl Slots {
    /// The masks recounted from the entries.
    fn of(rob: &VecDeque<RobEntry>) -> Slots {
        let mut s = Slots::default();
        rob.iter().enumerate().for_each(|(i, e)| s.push(i, e));
        s
    }

    /// Sets the bits the entry `e` at position `i` carries (dispatch).
    fn push(&mut self, i: usize, e: &RobEntry) {
        let bit = 1u64 << i;
        if e.issue_ready() {
            self.ready |= bit;
        }
        if e.status == Status::Waiting && e.inst.class() == InstClass::Load {
            self.loads |= bit;
        }
        if Core::orders_memory(e.inst) {
            self.orders |= bit;
            if !matches!(e.inst, Inst::Sw { .. } | Inst::Sb { .. }) || e.mem_addr.is_none() {
                self.gates |= bit;
            }
        }
    }

    /// Clears the bits of the entry at position `i` once it issues: it is
    /// no longer a candidate or a waiting load, and a store now has its
    /// address. (Only stores among issued entries can gate.)
    fn issued(&mut self, i: usize) {
        let keep = !(1u64 << i);
        self.ready &= keep;
        self.loads &= keep;
        self.gates &= keep;
    }

    /// Drops the oldest position (one retired entry).
    fn retire(&mut self) {
        self.map(|m| m >> 1);
    }

    /// Keeps the `keep` oldest positions (squash).
    fn truncate(&mut self, keep: usize) {
        let low = below(keep);
        self.map(|m| m & low);
    }

    /// Applies `f` to every mask.
    fn map(&mut self, f: impl Fn(u64) -> u64) {
        for m in [
            &mut self.ready,
            &mut self.loads,
            &mut self.orders,
            &mut self.gates,
        ] {
            *m = f(*m);
        }
    }

    /// Issue candidates, less the loads above the memory-order gate (the
    /// lowest `gates` bit): [`Core::load_check`] can only answer `Blocked`
    /// for those. With no gate, nothing is excluded.
    fn candidates(&self) -> u64 {
        let gate = self.gates & self.gates.wrapping_neg();
        let above = !(gate | gate.wrapping_sub(1));
        self.ready & !(self.loads & above)
    }
}

/// The positions below `n` (`n` ≤ 64).
fn below(n: usize) -> u64 {
    u64::MAX.checked_shr((MAX_ROB - n) as u32).unwrap_or(0)
}

/// The positions of the set bits of `m`, lowest first.
fn bits(mut m: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let i = m.trailing_zeros() as usize;
        m &= m.wrapping_sub(1);
        (i < MAX_ROB).then_some(i)
    })
}

#[derive(Debug, Default, Clone)]
struct RobEntry {
    seq: u64,
    pc: u32,
    inst: Inst,
    src: [Src; 2],
    status: Status,
    value: i64,
    /// Effective address and size for memory operations (set at execute).
    mem_addr: Option<u64>,
    mem_size: u8,
    /// Whether this entry still holds an issue-queue slot.
    in_iq: bool,
    /// Prediction snapshot for control transfers.
    pred: Option<Prediction>,
    /// Predicted next PC decided at fetch.
    pred_next: u32,
    /// Actual next PC (set at execute for control transfers).
    actual_next: u32,
    mispredicted: bool,
    /// For at-head multi-cycle operations: busy until this cycle.
    head_busy_until: u64,
    /// For at-head operations: has the port action been performed?
    head_done: bool,
    /// Head of this entry's wakeup chain: the most recently dispatched
    /// consumer waiting on this result, encoded `consumer_seq << 1 | slot`
    /// (`NO_WAITER` when empty). Completion walks the chain and touches
    /// exactly the waiting consumers instead of scanning the whole ROB.
    waiters: u64,
    /// Per-source links continuing the producer's wakeup chain through
    /// this consumer (one chain slot per source operand).
    next_waiter: [u64; 2],
}

impl RobEntry {
    /// Whether the entry is an issue candidate: waiting, in the issue
    /// queue, not an at-head-only operation, with both sources ready.
    fn issue_ready(&self) -> bool {
        self.status == Status::Waiting
            && self.in_iq
            && !self.inst.is_at_head_only()
            && self.src.iter().all(|s| matches!(s, Src::Ready(_)))
    }

    /// The status/`in_iq` byte snapshot format v2 carries per entry.
    fn walk_byte(&self) -> u8 {
        let kind = match self.status {
            Status::Waiting => 0,
            Status::Executing(_) => 1,
            Status::Done => 2,
        };
        kind | u8::from(self.in_iq) << 2
    }
}

/// Empty wakeup-chain link.
const NO_WAITER: u64 = u64::MAX;

/// What a core is waiting for, judged from its ROB head. Reported in
/// deadlock and escalation diagnostics so a hung run names the resource
/// (queue, barrier, SPL result) each core is parked on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockedOn {
    /// `spl_store` waiting for a result in the SPL output queue.
    SplResult,
    /// `spl_load` staging stalled on a full input entry/queue.
    SplStage,
    /// `spl_init` waiting to seal into the SPL input queue.
    SplIssue {
        /// SPL configuration being requested.
        cfg: u16,
    },
    /// `hwq_send` waiting for space in a hardware queue.
    HwqSend {
        /// Queue id.
        q: u8,
    },
    /// `hwq_recv` waiting for a message in a hardware queue.
    HwqRecv {
        /// Queue id.
        q: u8,
    },
    /// `hwbar` waiting for the barrier's release.
    HwBarrier {
        /// Barrier id.
        id: u8,
    },
    /// `fence` (or halt) draining the store buffer.
    Fence,
    /// Atomic waiting for operands or older stores.
    Atomic,
    /// Store waiting for a post-commit store-buffer slot.
    StoreBuffer,
    /// Demand load refused by a full miss-status-register file (the
    /// non-blocking memory hierarchy cannot start another fill).
    MshrFull {
        /// Which cache's MSHR file is exhausted.
        cache: &'static str,
        /// Address of the held load.
        line: u64,
    },
    /// Demand load held because the coherence-directory bank serving the
    /// line has no free lookup port.
    DirectoryWait {
        /// Address of the held load.
        line: u64,
    },
    /// Ordinary pipeline activity (not parked on an external resource).
    Pipeline,
    /// The core has committed its halt.
    Halted,
}

impl std::fmt::Display for BlockedOn {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockedOn::SplResult => write!(f, "spl_store (awaiting SPL result)"),
            BlockedOn::SplStage => write!(f, "spl_load (input queue full)"),
            BlockedOn::SplIssue { cfg } => write!(f, "spl_init cfg {cfg} (input queue full)"),
            BlockedOn::HwqSend { q } => write!(f, "hwq_send queue {q} (full)"),
            BlockedOn::HwqRecv { q } => write!(f, "hwq_recv queue {q} (empty)"),
            BlockedOn::HwBarrier { id } => write!(f, "hwbar {id} (not released)"),
            BlockedOn::Fence => write!(f, "fence (draining stores)"),
            BlockedOn::Atomic => write!(f, "atomic (operands/stores pending)"),
            BlockedOn::StoreBuffer => write!(f, "store buffer full"),
            BlockedOn::MshrFull { cache, line } => {
                write!(f, "{cache} MSHRs full (load {line:#x} held)")
            }
            BlockedOn::DirectoryWait { line } => {
                write!(f, "directory bank busy (load {line:#x} held)")
            }
            BlockedOn::Pipeline => write!(f, "pipeline (no external resource)"),
            BlockedOn::Halted => write!(f, "halted"),
        }
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct Fetched {
    pc: u32,
    inst: Inst,
    pred: Option<Prediction>,
    pred_next: u32,
}

#[derive(Debug, Default, Clone, Copy)]
struct StoreBufEntry {
    addr: u64,
    size: u8,
    value: u64,
}

/// A single out-of-order core executing one [`Program`].
///
/// The core is stepped one cycle at a time with [`Core::step`]; all
/// interaction with memory and the SPL/communication devices goes through
/// the [`CorePorts`] implementation supplied to `step`, so the same core
/// model serves every system configuration in the paper.
#[derive(Debug, Clone)]
pub struct Core {
    id: usize,
    cfg: CoreConfig,
    program: Program,
    pred: Predictor,
    regs: [i64; Reg::COUNT],
    map: [Option<u64>; Reg::COUNT],
    /// Reorder buffer, oldest at the front. A ring buffer so commit can
    /// retire from the head without shifting the (large) entries; seqs are
    /// contiguous from the front, so the entry of a seq is found by index
    /// arithmetic ([`Core::rob_index_of`]).
    rob: VecDeque<RobEntry>,
    /// The ROB walk masks (see [`Slots`]).
    slots: Slots,
    /// Issue-queue occupancy (int, fp), maintained incrementally so
    /// dispatch and the quiescence probe do not rescan the ROB every cycle.
    iq_occ: (usize, usize),
    fetch_buf: Vec<Fetched>,
    fetch_pc: u32,
    /// In-flight I-cache access: instructions arrive at this cycle. The
    /// group itself lives in `fetch_group`, a scratch buffer reused across
    /// fetches so the per-cycle path never allocates.
    fetch_inflight_at: Option<u64>,
    /// The fetch group in flight (or being assembled); reused allocation.
    fetch_group: Vec<Fetched>,
    /// Fetch is blocked on an unpredictable indirect jump.
    fetch_blocked: bool,
    /// Fetch may not start a new group before this cycle (BTB-miss bubble).
    fetch_bubble_until: u64,
    store_buf: Vec<StoreBufEntry>,
    store_drain_done: u64,
    int_div_free_at: u64,
    fp_div_free_at: u64,
    halted: bool,
    cycle: u64,
    next_seq: u64,
    /// Scratch list of ROB indices completed this cycle (reused allocation).
    wb_completed: Vec<usize>,
    /// Seqs of entries currently `Executing` (unsorted); writeback visits
    /// only these instead of walking every ROB slot.
    exec_seqs: Vec<u64>,
    /// Earliest completion time among `Executing` entries (`u64::MAX` when
    /// none): lets writeback skip its ROB walk on cycles where nothing can
    /// complete. May go stale-low after a squash, which only costs one
    /// empty walk that recomputes it.
    exec_next_done: u64,
    stats: CoreStats,
}

impl Core {
    /// Creates a core with the given configuration executing `program` from
    /// instruction 0. All registers start at zero.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.rob` exceeds 64 entries (Table II's ROB, and every
    /// shipped configuration's, is 64).
    pub fn new(id: usize, cfg: CoreConfig, program: Program) -> Core {
        assert!(
            cfg.rob <= MAX_ROB,
            "ROB of {} entries exceeds the {MAX_ROB} a walk mask holds",
            cfg.rob
        );
        Core {
            id,
            cfg,
            program,
            pred: Predictor::new(cfg.bpred_bits, cfg.btb_entries, cfg.ras),
            regs: [0; Reg::COUNT],
            map: [None; Reg::COUNT],
            rob: VecDeque::with_capacity(cfg.rob),
            slots: Slots::default(),
            iq_occ: (0, 0),
            fetch_buf: Vec::new(),
            fetch_pc: 0,
            fetch_inflight_at: None,
            fetch_group: Vec::new(),
            fetch_blocked: false,
            fetch_bubble_until: 0,
            store_buf: Vec::new(),
            store_drain_done: 0,
            int_div_free_at: 0,
            fp_div_free_at: 0,
            halted: false,
            cycle: 0,
            next_seq: 0,
            wb_completed: Vec::new(),
            exec_seqs: Vec::with_capacity(cfg.rob),
            exec_next_done: u64::MAX,
            stats: CoreStats::default(),
        }
    }

    /// This core's index (used for all port calls).
    pub fn id(&self) -> usize {
        self.id
    }

    /// The program this core executes.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The core's pipeline configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Whether a `halt` instruction has retired.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Current cycle count.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Activity statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Branch predictor statistics.
    pub fn pred_stats(&self) -> &crate::bpred::PredStats {
        self.pred.stats()
    }

    /// Architectural (retired) value of a register.
    pub fn reg(&self, r: Reg) -> i64 {
        self.regs[r.index()]
    }

    /// Sets an architectural register before the program starts (thread id,
    /// argument pointers). Must not be called once stepping has begun.
    ///
    /// # Panics
    ///
    /// Panics if the core has already been stepped.
    pub fn set_reg(&mut self, r: Reg, v: i64) {
        assert_eq!(self.cycle, 0, "set_reg after execution started");
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Advances the core by one cycle against the given environment.
    ///
    /// Returns `true` while the core is still running (not halted).
    pub fn step<P: CorePorts + ?Sized>(&mut self, ports: &mut P) -> bool {
        if self.halted {
            return false;
        }
        debug_assert_eq!(self.slots, Slots::of(&self.rob), "walk masks out of sync");
        debug_assert!(self.exec_seqs_in_sync(), "exec_seqs out of sync");
        self.cycle += 1;
        self.stats.cycles += 1;
        self.drain_store_buffer(ports);
        self.commit(ports);
        self.writeback();
        self.issue(ports);
        self.dispatch();
        self.fetch(ports);
        !self.halted
    }

    // --- quiescence ---------------------------------------------------------

    /// Quiescence probe: the earliest future cycle at which stepping this
    /// core can change any observable state beyond the per-cycle counters
    /// that [`Core::skip_cycles`] replicates.
    ///
    /// * `None` — the core could fetch, dispatch, issue, write back, commit,
    ///   or touch a device on its very next cycle; it must be stepped.
    /// * `Some(w)` with `w < u64::MAX` — every cycle strictly before `w` is
    ///   provably inert (the earliest of `fetch_inflight_at`, the fetch-bubble
    ///   expiry, a ROB completion, the store-buffer drain, a divider or
    ///   at-head-op busy window).
    /// * `Some(u64::MAX)` — purely reactive: only an external device event
    ///   (SPL delivery, queue/barrier activity on another core) can wake it.
    ///
    /// Port readiness is judged through the pure `*_ready` probes of
    /// [`CorePorts`]; their conservative defaults make unknown environments
    /// unskippable rather than incorrect.
    pub fn next_event<P: CorePorts + ?Sized>(&self, ports: &P) -> Option<u64> {
        if self.halted {
            return Some(u64::MAX);
        }
        let next = self.cycle + 1;
        let mut wake = u64::MAX;

        // Store-buffer drain: an idle buffer starts draining immediately; an
        // active drain completes (and starts the next) at `store_drain_done`.
        if !self.store_buf.is_empty() {
            if self.store_drain_done == 0 || next >= self.store_drain_done {
                return None;
            }
            wake = wake.min(self.store_drain_done);
        }

        // Commit: what the ROB head would do next cycle.
        if let Some(e) = self.rob.front() {
            match e.status {
                Status::Executing(_) => {} // covered by the writeback scan below
                Status::Waiting if e.inst.is_at_head_only() => {
                    if e.head_done {
                        if next >= e.head_busy_until {
                            return None;
                        }
                        wake = wake.min(e.head_busy_until);
                    } else {
                        match e.inst {
                            Inst::SplStore { .. } => {
                                if ports.spl_store_ready(self.id) {
                                    return None;
                                }
                            }
                            Inst::HwqRecv { q, .. } => {
                                if ports.hwq_recv_ready(self.id, q) {
                                    return None;
                                }
                            }
                            Inst::HwBar { id } => {
                                if ports.hwbar_ready(self.id, id) {
                                    return None;
                                }
                            }
                            Inst::Fence => {
                                if self.store_buf.is_empty() {
                                    return None;
                                }
                            }
                            Inst::AmoAdd { .. } => {
                                let ready = e.src.iter().all(|s| matches!(s, Src::Ready(_)));
                                if ready && self.store_buf.is_empty() {
                                    return None;
                                }
                            }
                            _ => return None,
                        }
                    }
                }
                Status::Waiting => {} // waiting to issue; the issue scan decides
                Status::Done => match e.inst {
                    Inst::Halt => {
                        if self.store_buf.is_empty() {
                            return None;
                        }
                    }
                    Inst::SplInit { cfg } => {
                        if ports.spl_init_ready(self.id, cfg) {
                            return None;
                        }
                    }
                    Inst::HwqSend { q, .. } => {
                        if ports.hwq_send_ready(self.id, q) {
                            return None;
                        }
                    }
                    Inst::Sw { .. } | Inst::Sb { .. } => {
                        if self.store_buf.len() < self.cfg.store_buffer {
                            return None;
                        }
                    }
                    _ => return None, // would retire
                },
            }
        }

        // Writeback: completions land at their timestamps.
        let front = self.rob.front().map_or(0, |e| e.seq);
        for &seq in &self.exec_seqs {
            let Status::Executing(t) = self.rob[(seq - front) as usize].status else {
                unreachable!("exec_seqs entry not executing");
            };
            if t <= next {
                return None;
            }
            wake = wake.min(t);
        }

        // Issue: a candidate issues immediately unless gated by a busy
        // divider or a blocked load (whose unblocking is itself a core
        // event). Loads behind the memory-order gate are blocked outright.
        for i in bits(self.slots.candidates()) {
            let e = &self.rob[i];
            match e.inst.class() {
                InstClass::IntDiv => {
                    if self.int_div_free_at <= next {
                        return None;
                    }
                    wake = wake.min(self.int_div_free_at);
                }
                InstClass::Fp
                    if matches!(
                        e.inst,
                        Inst::Fp {
                            op: remap_isa::FpOp::Div,
                            ..
                        }
                    ) =>
                {
                    if self.fp_div_free_at <= next {
                        return None;
                    }
                    wake = wake.min(self.fp_div_free_at);
                }
                InstClass::Load => match self.load_check(i) {
                    LoadPath::Blocked => {}
                    LoadPath::Memory(addr) => {
                        // A miss the hierarchy would refuse (MSHR file
                        // full) is not progress; the file's earliest fill
                        // completion is the wake.
                        if ports.load_ready(self.id, addr) {
                            return None;
                        }
                        let w = ports.load_wake(self.id);
                        if w <= next {
                            return None;
                        }
                        wake = wake.min(w);
                    }
                    LoadPath::Forward(..) => return None,
                },
                _ => return None,
            }
        }

        // Dispatch: the head of the fetch buffer enters the ROB unless the
        // ROB or its issue queue is full (those stall cycles are counted by
        // `skip_cycles`).
        if !self.fetch_buf.is_empty() && self.rob.len() < self.cfg.rob {
            let f = &self.fetch_buf[0];
            if Self::needs_iq(f.inst) {
                let (int_occ, fp_occ) = self.iq_occupancy();
                let full = if f.inst.class() == InstClass::Fp {
                    fp_occ >= self.cfg.fp_iq
                } else {
                    int_occ >= self.cfg.int_iq
                };
                if !full {
                    return None;
                }
            } else {
                return None;
            }
        }

        // Fetch: an in-flight I-cache access lands at its timestamp (once
        // the buffer has room); an idle fetch engine starts a new access as
        // soon as the bubble expires.
        let buf_room = self.fetch_buf.len() < 2 * self.cfg.fetch_width as usize;
        match self.fetch_inflight_at {
            Some(t) => {
                if buf_room {
                    if t <= next {
                        return None;
                    }
                    wake = wake.min(t);
                }
            }
            None => {
                if !self.fetch_blocked && buf_room {
                    if next >= self.fetch_bubble_until {
                        return None;
                    }
                    wake = wake.min(self.fetch_bubble_until);
                }
            }
        }

        Some(wake)
    }

    /// Diagnoses what this core is currently parked on, from its ROB head.
    /// Pure (no ports needed): it reports the *kind* of resource, not
    /// whether the resource would be ready this cycle.
    pub fn blocked_on(&self) -> BlockedOn {
        if self.halted {
            return BlockedOn::Halted;
        }
        let Some(e) = self.rob.front() else {
            return BlockedOn::Pipeline;
        };
        match (e.inst, e.status) {
            // At-head operations stuck waiting for their port action.
            (Inst::SplStore { .. }, Status::Waiting) if !e.head_done => BlockedOn::SplResult,
            (Inst::HwqRecv { q, .. }, Status::Waiting) if !e.head_done => BlockedOn::HwqRecv { q },
            (Inst::HwBar { id }, Status::Waiting) => BlockedOn::HwBarrier { id },
            (Inst::Fence, Status::Waiting) => BlockedOn::Fence,
            (Inst::AmoAdd { .. }, Status::Waiting) => BlockedOn::Atomic,
            // Commit-time pushes stuck on device back-pressure.
            (Inst::SplLoad { .. }, Status::Done) => BlockedOn::SplStage,
            (Inst::SplInit { cfg }, Status::Done) => BlockedOn::SplIssue { cfg },
            (Inst::HwqSend { q, .. }, Status::Done) => BlockedOn::HwqSend { q },
            (Inst::Sw { .. } | Inst::Sb { .. }, Status::Done) => BlockedOn::StoreBuffer,
            _ => BlockedOn::Pipeline,
        }
    }

    /// Like [`Core::blocked_on`], but additionally consults the environment
    /// so memory-system holds get named: a head load the hierarchy refuses
    /// reports [`BlockedOn::DirectoryWait`] (no free directory-bank port)
    /// or [`BlockedOn::MshrFull`] (full MSHR file) instead of the generic
    /// pipeline bucket.
    pub fn blocked_on_with<P: CorePorts + ?Sized>(&self, ports: &P) -> BlockedOn {
        let b = self.blocked_on();
        if b == BlockedOn::Pipeline {
            if let Some(e) = self.rob.front() {
                if e.status == Status::Waiting && e.inst.class() == InstClass::Load {
                    if let LoadPath::Memory(addr) = self.load_check(0) {
                        if !ports.load_ready(self.id, addr) {
                            if ports.load_blocked_by_dir(self.id, addr) {
                                return BlockedOn::DirectoryWait { line: addr };
                            }
                            return BlockedOn::MshrFull {
                                cache: "L1D",
                                line: addr,
                            };
                        }
                    }
                }
            }
        }
        b
    }

    /// Bulk-advances the core over `delta` cycles that [`Core::next_event`]
    /// proved inert, replicating exactly the per-cycle counters a ticked run
    /// would have accumulated: `cycle`/`stats.cycles`, the commit-side wait
    /// counter of a stalled ROB head, and the dispatch-side ROB/IQ-full
    /// stall counters. Calling this for cycles `next_event` did not clear
    /// breaks bit-parity with the ticked path.
    pub fn skip_cycles(&mut self, delta: u64) {
        self.cycle += delta;
        self.stats.cycles += delta;
        // Commit-side wait counter: mirrors the stat a stalled head charges
        // once per cycle. In a quiescent state the port-dependent branches
        // are fully determined (a ready port would have been a wake).
        if let Some(e) = self.rob.front() {
            match e.status {
                Status::Waiting if e.inst.is_at_head_only() && !e.head_done => match e.inst {
                    Inst::SplStore { .. } => self.stats.spl_wait_cycles += delta,
                    Inst::HwqRecv { .. } => self.stats.hw_wait_cycles += delta,
                    Inst::HwBar { .. } => self.stats.hw_wait_cycles += delta,
                    Inst::Fence if !self.store_buf.is_empty() => {
                        self.stats.fence_wait_cycles += delta
                    }
                    _ => {}
                },
                Status::Done => match e.inst {
                    Inst::Halt if !self.store_buf.is_empty() => {
                        self.stats.fence_wait_cycles += delta
                    }
                    Inst::SplInit { .. } => self.stats.spl_wait_cycles += delta,
                    Inst::HwqSend { .. } => self.stats.hw_wait_cycles += delta,
                    _ => {}
                },
                _ => {}
            }
        }
        // Dispatch-side stall counters: one per cycle while the fetch-buffer
        // head cannot enter the ROB.
        if !self.fetch_buf.is_empty() {
            if self.rob.len() >= self.cfg.rob {
                self.stats.rob_full_stalls += delta;
            } else {
                let f = &self.fetch_buf[0];
                if Self::needs_iq(f.inst) {
                    let (int_occ, fp_occ) = self.iq_occupancy();
                    let full = if f.inst.class() == InstClass::Fp {
                        fp_occ >= self.cfg.fp_iq
                    } else {
                        int_occ >= self.cfg.int_iq
                    };
                    if full {
                        self.stats.iq_full_stalls += delta;
                    }
                }
            }
        }
    }

    /// Whether `inst` occupies an issue-queue slot (shared by dispatch and
    /// the quiescence analysis).
    fn needs_iq(inst: Inst) -> bool {
        (matches!(
            inst.class(),
            InstClass::IntAlu
                | InstClass::IntMul
                | InstClass::IntDiv
                | InstClass::Fp
                | InstClass::Load
                | InstClass::Store
                | InstClass::Branch
        ) && !matches!(inst, Inst::Jal { .. }))
            // Queue pushes read a register in the pipeline like stores.
            || matches!(inst, Inst::SplLoad { .. } | Inst::HwqSend { .. })
    }

    // --- fetch --------------------------------------------------------------

    fn fetch<P: CorePorts + ?Sized>(&mut self, ports: &mut P) {
        // Land a completed I-cache access.
        if let Some(done_at) = self.fetch_inflight_at {
            if self.cycle >= done_at && self.fetch_buf.len() < 2 * self.cfg.fetch_width as usize {
                self.fetch_inflight_at = None;
                self.stats.fetched += self.fetch_group.len() as u64;
                // `append` moves the elements but leaves `fetch_group`'s
                // capacity in place for the next group.
                self.fetch_buf.append(&mut self.fetch_group);
            }
        }
        if self.fetch_inflight_at.is_some()
            || self.fetch_blocked
            || self.halted
            || self.cycle < self.fetch_bubble_until
            || self.fetch_buf.len() >= 2 * self.cfg.fetch_width as usize
        {
            return;
        }
        // Assemble the next fetch group into the reused scratch buffer.
        let mut group = std::mem::take(&mut self.fetch_group);
        group.clear();
        let mut pc = self.fetch_pc;
        let first_pc = pc;
        let mut blocked = false;
        let mut bubble = false;
        for _ in 0..self.cfg.fetch_width {
            let inst = self.program.fetch(pc).unwrap_or(Inst::Halt);
            let mut f = Fetched {
                pc,
                inst,
                pred: None,
                pred_next: pc + 1,
            };
            match inst {
                Inst::Branch { target, .. } => {
                    let p = self.pred.predict(pc, true);
                    let taken = p.taken;
                    if taken && p.target.is_none() {
                        // BTB miss on a predicted-taken branch: we still know
                        // the target statically, but charge a fetch bubble.
                        bubble = true;
                    }
                    f.pred = Some(p);
                    f.pred_next = if taken { target } else { pc + 1 };
                    group.push(f);
                    pc = f.pred_next;
                    if taken {
                        break;
                    }
                    continue;
                }
                Inst::Jal { rd, target } => {
                    if rd == Reg::R31 {
                        self.pred.ras_push(pc + 1);
                    }
                    f.pred_next = target;
                    group.push(f);
                    pc = target;
                    break;
                }
                Inst::Jalr { rd, rs1 } => {
                    if rd == Reg::R0 && rs1 == Reg::R31 {
                        if let Some(t) = self.pred.ras_pop() {
                            f.pred_next = t;
                            group.push(f);
                            pc = t;
                            break;
                        }
                    }
                    // Unpredictable indirect jump: fetch stalls until resolve.
                    group.push(f);
                    blocked = true;
                    break;
                }
                Inst::Halt => {
                    group.push(f);
                    blocked = true; // nothing useful to fetch past a halt
                    break;
                }
                _ => {
                    group.push(f);
                    pc += 1;
                }
            }
        }
        self.fetch_pc = pc;
        self.fetch_blocked = blocked;
        if bubble {
            self.fetch_bubble_until = self.cycle + 2;
        }
        let lat = ports.inst_fetch(self.id, CODE_BASE + 4 * first_pc as u64);
        self.fetch_group = group;
        self.fetch_inflight_at = Some(self.cycle + lat as u64);
    }

    // --- dispatch -----------------------------------------------------------

    /// Issue-queue occupancy (int, fp): the incrementally maintained
    /// counters, checked against a full recount in debug builds.
    fn iq_occupancy(&self) -> (usize, usize) {
        debug_assert_eq!(self.iq_occ, self.iq_recount(), "iq_occ out of sync");
        self.iq_occ
    }

    /// Reference recount of issue-queue occupancy (debug checking and
    /// post-squash rebuild).
    fn iq_recount(&self) -> (usize, usize) {
        let mut int = 0;
        let mut fp = 0;
        for e in &self.rob {
            if e.in_iq {
                if e.inst.class() == InstClass::Fp {
                    fp += 1;
                } else {
                    int += 1;
                }
            }
        }
        (int, fp)
    }

    /// Whether an instruction participates in memory ordering: it either
    /// writes memory or forbids younger loads from issuing past it.
    fn orders_memory(inst: Inst) -> bool {
        matches!(
            inst,
            Inst::Sw { .. }
                | Inst::Sb { .. }
                | Inst::AmoAdd { .. }
                | Inst::Fence
                | Inst::HwBar { .. }
        )
    }

    /// Whether `exec_seqs` matches a fresh recount from the ROB (debug
    /// checking).
    fn exec_seqs_in_sync(&self) -> bool {
        // Allocation-free equality-as-multisets: every executing entry
        // appears exactly once in `exec_seqs`, and the lengths match (this
        // runs under debug_assert inside the alloc-free hot loop).
        let execing = self
            .rob
            .iter()
            .filter(|e| matches!(e.status, Status::Executing(_)));
        let mut n = 0usize;
        let exec_ok = execing
            .inspect(|_| n += 1)
            .all(|e| self.exec_seqs.iter().filter(|&&s| s == e.seq).count() == 1);
        exec_ok && n == self.exec_seqs.len()
    }

    /// Delivers a completed result to exactly the consumers registered in
    /// the producer's wakeup chain, emptying it.
    fn wake_waiters(&mut self, producer: usize) {
        let v = self.rob[producer].value;
        let pseq = self.rob[producer].seq;
        let mut link = std::mem::replace(&mut self.rob[producer].waiters, NO_WAITER);
        while link != NO_WAITER {
            let (cseq, slot) = (link >> 1, (link & 1) as usize);
            let ci = self.rob_index_of(cseq).expect("waiter resident");
            let c = &mut self.rob[ci];
            debug_assert_eq!(c.src[slot], Src::Wait(pseq), "stale wakeup link");
            c.src[slot] = Src::Ready(v);
            link = std::mem::replace(&mut c.next_waiter[slot], NO_WAITER);
            if c.issue_ready() {
                self.slots.ready |= 1 << ci;
            }
        }
    }

    /// Releases the issue-queue slot held by a ROB entry (writeback or
    /// squash path).
    fn iq_release(iq_occ: &mut (usize, usize), e: &RobEntry) {
        if e.inst.class() == InstClass::Fp {
            iq_occ.1 -= 1;
        } else {
            iq_occ.0 -= 1;
        }
    }

    /// Locates the ROB index of the in-flight producer `seq`, if still
    /// present. ROB seqs are contiguous (commit pops from the front, squash
    /// truncates the back and rewinds `next_seq`), so residency is pure
    /// index arithmetic.
    #[inline]
    fn rob_index_of(&self, seq: u64) -> Option<usize> {
        let front = self.rob.front()?.seq;
        if seq < front {
            return None; // already committed
        }
        let i = (seq - front) as usize;
        debug_assert!(
            i < self.rob.len() && self.rob[i].seq == seq,
            "non-contiguous ROB seqs"
        );
        Some(i)
    }

    fn resolve_src(&self, r: Reg) -> Src {
        if r.is_zero() {
            return Src::Ready(0);
        }
        match self.map[r.index()] {
            Some(seq) => match self.rob_index_of(seq).map(|i| &self.rob[i]) {
                Some(e) if e.status == Status::Done => Src::Ready(e.value),
                Some(_) => Src::Wait(seq),
                // Producer already committed: value is architectural.
                None => Src::Ready(self.regs[r.index()]),
            },
            None => Src::Ready(self.regs[r.index()]),
        }
    }

    fn dispatch(&mut self) {
        let (mut int_occ, mut fp_occ) = self.iq_occupancy();
        for _ in 0..self.cfg.fetch_width {
            if self.fetch_buf.is_empty() {
                break;
            }
            if self.rob.len() >= self.cfg.rob {
                self.stats.rob_full_stalls += 1;
                break;
            }
            let f = self.fetch_buf[0];
            let class = f.inst.class();
            let needs_iq = Self::needs_iq(f.inst);
            if needs_iq {
                if class == InstClass::Fp {
                    if fp_occ >= self.cfg.fp_iq {
                        self.stats.iq_full_stalls += 1;
                        break;
                    }
                } else if int_occ >= self.cfg.int_iq {
                    self.stats.iq_full_stalls += 1;
                    break;
                }
            }
            self.fetch_buf.remove(0);
            let srcs = f.inst.sources();
            let src = [
                srcs[0].map_or(Src::Ready(0), |r| self.resolve_src(r)),
                srcs[1].map_or(Src::Ready(0), |r| self.resolve_src(r)),
            ];
            self.stats.regfile_reads += srcs.iter().flatten().count() as u64;
            let seq = self.next_seq;
            self.next_seq += 1;
            // SplLoad also stages its value at execute like an ALU op; at-head
            // ops and pure pushes sit in the ROB without an IQ slot.
            let status = match f.inst {
                Inst::Nop | Inst::SplInit { .. } => Status::Done,
                Inst::Jal { .. } => Status::Done,
                Inst::Halt => Status::Done,
                _ => Status::Waiting,
            };
            let value = match f.inst {
                Inst::Jal { .. } => f.pc as i64 + 1,
                _ => 0,
            };
            if let Some(d) = f.inst.dest() {
                self.map[d.index()] = Some(seq);
            }
            let mut entry = RobEntry {
                seq,
                pc: f.pc,
                inst: f.inst,
                src,
                status,
                value,
                mem_addr: None,
                mem_size: 0,
                in_iq: needs_iq,
                pred: f.pred,
                pred_next: f.pred_next,
                actual_next: f.pred_next,
                mispredicted: false,
                head_busy_until: 0,
                head_done: false,
                waiters: NO_WAITER,
                next_waiter: [NO_WAITER; 2],
            };
            // Enter the producers' wakeup chains (consumers are strictly
            // younger than their producers, so the producer is resident).
            for slot in 0..2 {
                if let Src::Wait(pseq) = entry.src[slot] {
                    let pi = self.rob_index_of(pseq).expect("in-flight producer");
                    entry.next_waiter[slot] = self.rob[pi].waiters;
                    self.rob[pi].waiters = (seq << 1) | slot as u64;
                }
            }
            if needs_iq {
                if class == InstClass::Fp {
                    fp_occ += 1;
                } else {
                    int_occ += 1;
                }
            }
            self.slots.push(self.rob.len(), &entry);
            self.rob.push_back(entry);
            self.stats.dispatched += 1;
        }
        self.iq_occ = (int_occ, fp_occ);
    }

    // --- issue / execute ------------------------------------------------------

    fn issue<P: CorePorts + ?Sized>(&mut self, ports: &mut P) {
        let mut issued = 0u32;
        let mut int_alus = self.cfg.int_alus;
        let mut fp_alus = self.cfg.fp_alus;
        let mut branch_units = self.cfg.branch_units;
        let mut ldst_units = self.cfg.ldst_units;
        let lat = self.cfg.lat;
        let cycle = self.cycle;

        // Visit the candidates oldest first, touching no other entry. Each
        // issue may clear the gate (a store gets its address), so the
        // candidates above it are taken afresh from the masks.
        let mut cand = self.slots.candidates();
        debug_assert!(self.gated_loads_blocked(), "gated load could issue");
        while issued < self.cfg.issue_width && cand != 0 {
            let i = cand.trailing_zeros() as usize;
            cand &= cand - 1;
            let e = &self.rob[i];
            let class = e.inst.class();
            // Functional-unit availability.
            let fu_ok = match class {
                InstClass::IntAlu | InstClass::IntMul | InstClass::Spl | InstClass::Hwq => {
                    int_alus > 0
                }
                InstClass::IntDiv => int_alus > 0 && self.int_div_free_at <= cycle,
                InstClass::Fp => {
                    if matches!(
                        e.inst,
                        Inst::Fp {
                            op: remap_isa::FpOp::Div,
                            ..
                        }
                    ) {
                        fp_alus > 0 && self.fp_div_free_at <= cycle
                    } else {
                        fp_alus > 0
                    }
                }
                InstClass::Branch => branch_units > 0,
                InstClass::Load | InstClass::Store => ldst_units > 0,
                _ => true,
            };
            if !fu_ok {
                continue;
            }
            // Memory ordering rules for loads.
            if class == InstClass::Load {
                let (size, sign) = match self.rob[i].inst {
                    Inst::Lw { .. } => (4u8, true),
                    Inst::Lb { .. } => (1u8, true),
                    Inst::Lbu { .. } => (1u8, false),
                    _ => unreachable!("load class"),
                };
                let (addr, raw, l) = match self.load_check(i) {
                    LoadPath::Blocked => continue,
                    LoadPath::Forward(addr, raw) => (addr, raw, lat.agu + 1),
                    LoadPath::Memory(addr) => {
                        if !ports.load_ready(self.id, addr) {
                            // The hierarchy cannot start another fill (MSHR
                            // file full): hold the load without consuming a
                            // load/store unit and retry next cycle.
                            continue;
                        }
                        let (raw, mlat) = ports.load(self.id, addr, size, self.rob[i].pc);
                        (addr, raw as i64, lat.agu + mlat)
                    }
                };
                let e = &mut self.rob[i];
                e.mem_addr = Some(addr);
                e.mem_size = size;
                e.value = match (size, sign) {
                    (1, true) => raw as u8 as i8 as i64,
                    (1, false) => raw as u8 as i64,
                    (4, true) => raw as u32 as i32 as i64,
                    _ => raw,
                };
                ldst_units -= 1;
                issued += 1;
                self.start_exec(i, cycle + l as u64);
                continue;
            }

            // Non-load execution.
            let a = self.src_val(i, 0);
            let b = self.src_val(i, 1);
            let e = &mut self.rob[i];
            let done_at;
            match e.inst {
                Inst::Alu { op, .. } => {
                    e.value = op.apply(a, b);
                    let l = match e.inst.class() {
                        InstClass::IntMul => lat.int_mul,
                        InstClass::IntDiv => lat.int_div,
                        _ => lat.int_alu,
                    };
                    done_at = cycle + l as u64;
                    if e.inst.class() == InstClass::IntDiv {
                        self.int_div_free_at = done_at;
                    }
                    int_alus -= 1;
                }
                Inst::AluImm { op, imm, .. } => {
                    e.value = op.apply(a, imm as i64);
                    let l = match e.inst.class() {
                        InstClass::IntMul => lat.int_mul,
                        InstClass::IntDiv => lat.int_div,
                        _ => lat.int_alu,
                    };
                    done_at = cycle + l as u64;
                    if e.inst.class() == InstClass::IntDiv {
                        self.int_div_free_at = done_at;
                    }
                    int_alus -= 1;
                }
                Inst::Fp { op, .. } => {
                    e.value = op.apply(a, b);
                    let l = if op == remap_isa::FpOp::Div {
                        lat.fp_div
                    } else {
                        lat.fp_op
                    };
                    done_at = cycle + l as u64;
                    if op == remap_isa::FpOp::Div {
                        self.fp_div_free_at = done_at;
                    }
                    fp_alus -= 1;
                }
                Inst::Branch { cond, target, .. } => {
                    let taken = cond.eval(a, b);
                    e.actual_next = if taken { target } else { e.pc + 1 };
                    e.mispredicted = e.actual_next != e.pred_next;
                    done_at = cycle + 1;
                    branch_units -= 1;
                }
                Inst::Jalr { .. } => {
                    e.value = e.pc as i64 + 1;
                    e.actual_next = a as u32;
                    e.mispredicted = e.actual_next != e.pred_next;
                    done_at = cycle + 1;
                    branch_units -= 1;
                }
                Inst::Sw { offset, .. } | Inst::Sb { offset, .. } => {
                    // AGU: compute the effective address; data (src 1) rides
                    // along. The cache access happens post-commit.
                    let addr = (a + offset as i64) as u64;
                    e.mem_addr = Some(addr);
                    e.mem_size = if matches!(e.inst, Inst::Sw { .. }) {
                        4
                    } else {
                        1
                    };
                    e.value = b;
                    done_at = cycle + lat.agu as u64;
                    ldst_units -= 1;
                }
                Inst::SplLoad { .. } | Inst::HwqSend { .. } => {
                    // Reads its operand; the queue push happens at commit.
                    e.value = a;
                    done_at = cycle + lat.int_alu as u64;
                    int_alus -= 1;
                }
                other => unreachable!("unexpected instruction in issue: {other}"),
            }
            let store = class == InstClass::Store;
            issued += 1;
            self.start_exec(i, done_at);
            if store {
                // The store has its address now; if it was the gate, the
                // loads it held above it become candidates.
                cand = self.slots.candidates() & !below(i + 1);
                debug_assert!(self.gated_loads_blocked(), "gated load could issue");
            }
        }
    }

    /// Puts the entry at ROB index `i` into a functional unit until
    /// `done_at`.
    fn start_exec(&mut self, i: usize, done_at: u64) {
        let e = &mut self.rob[i];
        e.status = Status::Executing(done_at);
        self.exec_seqs.push(e.seq);
        self.exec_next_done = self.exec_next_done.min(done_at);
        self.slots.issued(i);
        self.stats.issued += 1;
    }

    /// Whether `load_check` answers `Blocked` for every ready load the
    /// memory-order gate keeps out of the candidates (debug checking).
    fn gated_loads_blocked(&self) -> bool {
        bits(self.slots.ready & !self.slots.candidates())
            .all(|i| self.load_check(i) == LoadPath::Blocked)
    }

    fn src_val(&self, i: usize, s: usize) -> i64 {
        match self.rob[i].src[s] {
            Src::Ready(v) => v,
            Src::Wait(_) => panic!("src not ready"),
        }
    }

    /// Memory-disambiguation check for the load at ROB index `i`.
    fn load_check(&self, i: usize) -> LoadPath {
        // Address must be computable: base ready (guaranteed by caller).
        let base = match self.rob[i].src[0] {
            Src::Ready(v) => v,
            Src::Wait(_) => return LoadPath::Blocked,
        };
        let (offset, size) = match self.rob[i].inst {
            Inst::Lw { offset, .. } => (offset, 4u8),
            Inst::Lb { offset, .. } | Inst::Lbu { offset, .. } => (offset, 1u8),
            _ => unreachable!(),
        };
        let addr = (base + offset as i64) as u64;
        let end = addr + size as u64;
        // Older in-ROB stores and ordering points, oldest first: the scan
        // visits the `orders` bits below the load, not the whole older ROB
        // prefix.
        let mut forward: Option<i64> = None;
        for j in bits(self.slots.orders & below(i)) {
            let e = &self.rob[j];
            // Loads may not issue past an unretired fence, atomic, or
            // hardware barrier: these order memory across threads (a fence
            // after a barrier guarantees younger loads observe remote
            // stores made before the barrier).
            if matches!(
                e.inst,
                Inst::AmoAdd { .. } | Inst::Fence | Inst::HwBar { .. }
            ) {
                return LoadPath::Blocked;
            }
            debug_assert!(matches!(e.inst, Inst::Sw { .. } | Inst::Sb { .. }));
            match e.mem_addr {
                None => return LoadPath::Blocked, // unknown older store address
                Some(sa) => {
                    let send = sa + e.mem_size as u64;
                    if sa < end && addr < send {
                        if sa == addr && e.mem_size == size && e.status == Status::Done {
                            forward = Some(e.value);
                        } else if sa == addr && e.mem_size == size {
                            return LoadPath::Blocked; // data not ready yet
                        } else {
                            return LoadPath::Blocked; // partial overlap
                        }
                    }
                }
            }
        }
        if let Some(v) = forward {
            return LoadPath::Forward(addr, v); // raw; sign handling at issue
        }
        // Post-commit store buffer: scan youngest-first so the most recent
        // matching store forwards its value.
        for s in self.store_buf.iter().rev() {
            let send = s.addr + s.size as u64;
            if s.addr < end && addr < send {
                if s.addr == addr && s.size == size {
                    return LoadPath::Forward(addr, s.value as i64);
                }
                return LoadPath::Blocked;
            }
        }
        LoadPath::Memory(addr)
    }

    // --- writeback ------------------------------------------------------------

    fn writeback(&mut self) {
        let cycle = self.cycle;
        // Nothing in a functional unit can complete before `exec_next_done`,
        // so most stall cycles skip the ROB walk entirely.
        if cycle < self.exec_next_done {
            self.wb_completed.clear();
            return;
        }
        // Partition the executing list into due completions and survivors;
        // only entries actually in a functional unit are touched. The
        // completed-index list is a reused scratch buffer so steady-state
        // cycles do not allocate.
        let mut completed = std::mem::take(&mut self.wb_completed);
        completed.clear();
        let mut next_done = u64::MAX;
        let front = self.rob.front().map_or(0, |e| e.seq);
        let mut exec = std::mem::take(&mut self.exec_seqs);
        let mut kept = 0;
        for k in 0..exec.len() {
            let seq = exec[k];
            let i = (seq - front) as usize;
            let Status::Executing(done_at) = self.rob[i].status else {
                unreachable!("exec_seqs entry not executing");
            };
            if cycle >= done_at {
                completed.push(i);
            } else {
                next_done = next_done.min(done_at);
                exec[kept] = seq;
                kept += 1;
            }
        }
        exec.truncate(kept);
        self.exec_seqs = exec;
        self.exec_next_done = next_done;
        // Completions are handed to consumers oldest-first (the list is in
        // issue order, not ROB order) so control resolution below squashes
        // on the oldest mispredict.
        completed.sort_unstable();
        let mut iq = self.iq_occ;
        for &i in &completed {
            let e = &mut self.rob[i];
            e.status = Status::Done;
            if e.in_iq {
                Self::iq_release(&mut iq, e);
            }
            e.in_iq = false;
            self.wake_waiters(i);
        }
        self.iq_occ = iq;
        // Resolve control transfers oldest-first; squash on the first
        // mispredict found.
        for &i in &completed {
            let e = &self.rob[i];
            if !e.inst.is_control() {
                continue;
            }
            if let Inst::Branch { target, .. } = e.inst {
                let taken = e.actual_next == target && target != e.pc + 1 || {
                    // `actual_next == pc+1` means not taken unless the target
                    // *is* pc+1 (degenerate branch) — treat as taken there.
                    e.actual_next == target && target == e.pc + 1
                };
                if let Some(p) = e.pred {
                    self.pred.update(e.pc, taken, target, p);
                }
            }
            if e.mispredicted {
                let redirect = e.actual_next;
                let seq = e.seq;
                self.squash_after(seq, redirect);
                break;
            }
        }
        // A resolved indirect jump unblocks fetch even when it predicted
        // correctly (fetch stopped at it with no predicted path only when the
        // RAS could not guess; in that case it is flagged mispredicted and the
        // squash path redirected us already). Handle the RAS-miss case: the
        // entry predicted `pc+1` as a placeholder.
        if self.fetch_blocked {
            for &i in &completed {
                if matches!(self.rob[i].inst, Inst::Jalr { .. }) {
                    self.fetch_blocked = false;
                    self.fetch_pc = self.rob[i].actual_next;
                    // Discard any speculative wrong-path fetch state.
                    self.fetch_buf.clear();
                    self.fetch_inflight_at = None;
                    self.fetch_group.clear();
                }
            }
        }
        self.wb_completed = completed;
    }

    fn squash_after(&mut self, seq: u64, redirect: u32) {
        let keep = self
            .rob_index_of(seq)
            .map(|p| p + 1)
            .unwrap_or(self.rob.len());
        let squashed = self.rob.len() - keep;
        self.stats.squashed += squashed as u64;
        self.rob.truncate(keep);
        self.slots.truncate(keep);
        // Rewind the seq counter over the squashed (never-committed) tail:
        // nothing references those seqs any more, and reissuing them keeps
        // ROB seqs contiguous so producer lookups stay O(1).
        if let Some(last) = self.rob.back() {
            self.next_seq = last.seq + 1;
        }
        // Purge squashed seqs from `exec_seqs` before any are reissued.
        let cut = self.next_seq;
        self.exec_seqs.retain(|&s| s < cut);
        self.iq_occ = self.iq_recount();
        // Rebuild the rename map and the wakeup chains from surviving
        // entries (squashed consumers may sit in survivors' chains).
        self.map = [None; Reg::COUNT];
        for e in &mut self.rob {
            if let Some(d) = e.inst.dest() {
                self.map[d.index()] = Some(e.seq);
            }
            e.waiters = NO_WAITER;
            e.next_waiter = [NO_WAITER; 2];
        }
        for i in 0..self.rob.len() {
            for slot in 0..2 {
                if let Src::Wait(pseq) = self.rob[i].src[slot] {
                    let cseq = self.rob[i].seq;
                    let pi = self
                        .rob_index_of(pseq)
                        .expect("producer older than consumer");
                    self.rob[i].next_waiter[slot] = self.rob[pi].waiters;
                    self.rob[pi].waiters = (cseq << 1) | slot as u64;
                }
            }
        }
        self.fetch_buf.clear();
        self.fetch_inflight_at = None;
        self.fetch_group.clear();
        self.fetch_blocked = false;
        self.fetch_pc = redirect;
        // One-cycle redirect penalty on top of the refetch latency.
        self.fetch_bubble_until = self.cycle + 1;
    }

    // --- commit ------------------------------------------------------------------

    fn drain_store_buffer<P: CorePorts + ?Sized>(&mut self, ports: &mut P) {
        if self.store_buf.is_empty() {
            return;
        }
        if self.store_drain_done == 0 {
            // Start draining the oldest store; data becomes globally visible
            // now (the functional write happens at drain start).
            let s = self.store_buf[0];
            let lat = ports.store(self.id, s.addr, s.size, s.value);
            self.store_drain_done = self.cycle + lat as u64;
        }
        if self.cycle >= self.store_drain_done {
            self.store_buf.remove(0);
            self.store_drain_done = 0;
        }
    }

    fn commit<P: CorePorts + ?Sized>(&mut self, ports: &mut P) {
        let mut retired = 0;
        while retired < self.cfg.retire_width && !self.rob.is_empty() {
            // At-head operations are executed here, non-speculatively.
            if self.rob[0].status == Status::Waiting
                && self.rob[0].inst.is_at_head_only()
                && !self.try_head_op(ports)
            {
                break;
            }
            let e = &self.rob[0];
            if e.status != Status::Done {
                break;
            }
            // Halt behaves like an implicit fence: all stores must be
            // globally visible before the thread terminates.
            if e.inst == Inst::Halt && !self.store_buf.is_empty() {
                self.stats.fence_wait_cycles += 1;
                break;
            }
            // Queue pushes take effect now, with back-pressure.
            match e.inst {
                Inst::SplLoad { offset, nbytes, .. } => {
                    if ports.spl_load(self.id, offset, nbytes, e.value as u64) == PortPush::Stall {
                        self.stats.spl_wait_cycles += 1;
                        break;
                    }
                    self.stats.spl_ops += 1;
                }
                Inst::SplInit { cfg } => {
                    if ports.spl_init(self.id, cfg) == PortPush::Stall {
                        self.stats.spl_wait_cycles += 1;
                        break;
                    }
                    self.stats.spl_ops += 1;
                }
                Inst::HwqSend { q, .. }
                    if ports.hwq_send(self.id, q, e.value as u64) == PortPush::Stall =>
                {
                    self.stats.hw_wait_cycles += 1;
                    break;
                }
                Inst::Sw { .. } | Inst::Sb { .. } => {
                    if self.store_buf.len() >= self.cfg.store_buffer {
                        break; // store buffer full
                    }
                    let e = &self.rob[0];
                    self.store_buf.push(StoreBufEntry {
                        addr: e.mem_addr.expect("store executed"),
                        size: e.mem_size,
                        value: e.value as u64,
                    });
                }
                _ => {}
            }
            let e = self.rob.pop_front().expect("non-empty ROB");
            self.slots.retire();
            if let Some(d) = e.inst.dest() {
                self.regs[d.index()] = e.value;
                self.stats.regfile_writes += 1;
                if self.map[d.index()] == Some(e.seq) {
                    self.map[d.index()] = None;
                }
            }
            self.stats.committed += 1;
            self.stats.committed_by_class[class_index(e.inst.class())] += 1;
            if e.inst.is_control() {
                self.stats.branches += 1;
                if e.mispredicted {
                    self.stats.mispredicts += 1;
                }
            }
            if matches!(e.inst.class(), InstClass::Spl) {
                // spl_store retirement counted here; loads/inits above.
                if matches!(e.inst, Inst::SplStore { .. }) {
                    self.stats.spl_ops += 1;
                }
            }
            if e.inst == Inst::Halt {
                self.halted = true;
                break;
            }
            retired += 1;
        }
        if retired > 0 {
            self.stats.busy_cycles += 1;
        }
    }

    /// Attempts to execute the at-head operation at ROB index 0. Returns
    /// `false` if commit must stall this cycle.
    fn try_head_op<P: CorePorts + ?Sized>(&mut self, ports: &mut P) -> bool {
        let lat = self.cfg.lat;
        let cycle = self.cycle;
        let e = &mut self.rob[0];
        // Wait out a previously started multi-cycle head operation.
        if e.head_done {
            if cycle >= e.head_busy_until {
                e.status = Status::Done;
                self.wake_waiters(0);
                return true;
            }
            return false;
        }
        match e.inst {
            Inst::SplStore { .. } => match ports.spl_store(self.id) {
                Some(v) => {
                    e.value = v as i64;
                    e.head_done = true;
                    e.head_busy_until = cycle + lat.spl_queue as u64;
                    false
                }
                None => {
                    self.stats.spl_wait_cycles += 1;
                    false
                }
            },
            Inst::HwqRecv { q, .. } => match ports.hwq_recv(self.id, q) {
                Some(v) => {
                    e.value = v as i64;
                    e.head_done = true;
                    e.head_busy_until = cycle + lat.hwq as u64;
                    false
                }
                None => {
                    self.stats.hw_wait_cycles += 1;
                    false
                }
            },
            Inst::HwBar { id } => {
                if ports.hwbar(self.id, id) {
                    e.status = Status::Done;
                    true
                } else {
                    self.stats.hw_wait_cycles += 1;
                    false
                }
            }
            Inst::Fence => {
                if self.store_buf.is_empty() {
                    e.status = Status::Done;
                    true
                } else {
                    self.stats.fence_wait_cycles += 1;
                    false
                }
            }
            Inst::AmoAdd { .. } => {
                let base = match e.src[0] {
                    Src::Ready(v) => v,
                    Src::Wait(_) => return false,
                };
                let delta = match e.src[1] {
                    Src::Ready(v) => v,
                    Src::Wait(_) => return false,
                };
                if !self.store_buf.is_empty() {
                    return false; // atomics drain older stores first
                }
                let (old, mlat) = ports.amo_add(self.id, base as u64, delta);
                let e = &mut self.rob[0];
                e.value = old;
                e.head_done = true;
                e.head_busy_until = cycle + mlat as u64;
                false
            }
            other => unreachable!("not an at-head op: {other}"),
        }
    }
}

impl Default for Src {
    fn default() -> Src {
        Src::Ready(0)
    }
}

impl Visit for Src {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        let t = v.tag(matches!(self, Src::Wait(_)) as u8, 2, "operand source")?;
        if V::READS {
            *self = [Src::Ready(0), Src::Wait(0)][t as usize];
        }
        match self {
            Src::Ready(x) => v.i64(x),
            Src::Wait(seq) => v.u64(seq),
        }
    }
}

impl Visit for Status {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        let t = match self {
            Status::Waiting => 0,
            Status::Executing(_) => 1,
            Status::Done => 2,
        };
        let t = v.tag(t, 3, "ROB status")?;
        if V::READS {
            *self = [Status::Waiting, Status::Executing(0), Status::Done][t as usize];
        }
        match self {
            Status::Executing(at) => v.u64(at),
            _ => Ok(()),
        }
    }
}

// The instruction word is not visited: the core re-derives it from the PC
// on load.
remap_snap::visit_fields!(Fetched: pc, pred, pred_next);

remap_snap::visit_fields!(StoreBufEntry: addr, size, value);

// The instruction word is not visited: the core re-derives it from the PC
// on load.
remap_snap::visit_fields!(
    RobEntry: seq, pc, src, status, value, mem_addr, mem_size, in_iq, pred, pred_next, actual_next,
    mispredicted, head_busy_until, head_done, waiters, next_waiter
);

/// Checkpoint support: all dynamic core state. Instruction words are never
/// visited: every `inst` is re-derived from its `pc` against the (static)
/// program on load, which keeps the snapshot compact and makes
/// program/snapshot mismatches surface as decode failures.
impl Visit for Core {
    fn visit<V: Visitor>(&mut self, v: &mut V) -> Result<(), SnapError> {
        let cfg = self.cfg;
        self.pred.visit(v)?;
        v.each(&mut self.regs)?;
        v.each(&mut self.map)?;
        v.deque(&mut self.rob, cfg.rob)?;
        let program = &self.program;
        let inst = |pc| program.fetch(pc).unwrap_or(Inst::Halt);
        if V::READS {
            self.rob.iter_mut().for_each(|e| e.inst = inst(e.pc));
            self.slots = Slots::of(&self.rob);
        }
        // Format v2 carries a status/in_iq byte per entry and, further on,
        // the seqs of the memory-ordering entries. Both are derived from the
        // entries; decoded bytes that disagree with them are refused.
        for e in &self.rob {
            let mut b = e.walk_byte();
            v.u8(&mut b)?;
            derived("ROB walk byte", b, e.walk_byte())?;
        }
        self.iq_occ.visit(v)?;
        // fetch_buf may hold up to 2*fetch_width-1 entries plus one more
        // landed group of fetch_width.
        v.vec(&mut self.fetch_buf, 3 * cfg.fetch_width as usize)?;
        v.u32(&mut self.fetch_pc)?;
        self.fetch_inflight_at.visit(v)?;
        v.vec(&mut self.fetch_group, cfg.fetch_width as usize)?;
        v.bool(&mut self.fetch_blocked)?;
        v.u64(&mut self.fetch_bubble_until)?;
        v.vec(&mut self.store_buf, cfg.store_buffer)?;
        v.u64s([
            &mut self.store_drain_done,
            &mut self.int_div_free_at,
            &mut self.fp_div_free_at,
        ])?;
        v.bool(&mut self.halted)?;
        v.u64s([&mut self.cycle, &mut self.next_seq])?;
        let orders = self.slots.orders;
        let n = v.len(orders.count_ones() as usize, cfg.rob)?;
        derived(
            "memory-ordering entry count",
            n,
            orders.count_ones() as usize,
        )?;
        for e in bits(orders).map(|i| &self.rob[i]) {
            let mut seq = e.seq;
            v.u64(&mut seq)?;
            derived("memory-ordering seq", seq, e.seq)?;
        }
        v.vec(&mut self.exec_seqs, cfg.rob)?;
        v.u64(&mut self.exec_next_done)?;
        self.stats.visit(v)?;
        if V::READS {
            let fetched = self.fetch_buf.iter_mut().chain(&mut self.fetch_group);
            fetched.for_each(|f| f.inst = inst(f.pc));
            self.wb_completed.clear();
            debug_assert!(self.exec_seqs_in_sync(), "restored exec_seqs out of sync");
        }
        Ok(())
    }
}

/// Refuses a decoded value that disagrees with the one derived from the
/// decoded ROB entries.
fn derived<T: PartialEq + std::fmt::Display>(
    what: &str,
    read: T,
    want: T,
) -> Result<(), SnapError> {
    if read == want {
        Ok(())
    } else {
        Err(SnapError::Corrupt(format!(
            "{what} {read}, entries say {want}"
        )))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadPath {
    Blocked,
    /// Forward this raw value from an older store to the load at this
    /// effective address.
    Forward(u64, i64),
    /// Go to the memory hierarchy at this effective address.
    Memory(u64),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::NullPorts;
    use remap_isa::{Asm, Reg::*};

    fn run(program: Program) -> (Core, NullPorts) {
        let mut core = Core::new(0, CoreConfig::ooo1(), program);
        let mut ports = NullPorts {
            mem_latency: 2,
            ..NullPorts::default()
        };
        for _ in 0..200_000 {
            if !core.step(&mut ports) {
                break;
            }
        }
        assert!(core.halted(), "program did not halt");
        (core, ports)
    }

    /// Steps `program` to its halt under a slow memory and checks the
    /// quiescence probe on every cycle: whenever `next_event` claims the
    /// next cycle is inert (a wake strictly beyond `cycle + 1`), stepping
    /// must neither fetch, dispatch, issue, commit nor squash. Returns the
    /// finished core, the number of inert claims and the number of cycles
    /// on which a ready load sat behind the memory-order gate (the
    /// `debug_assert` in `issue` checks each such load against
    /// `load_check`).
    fn probe_soundness(
        cfg: CoreConfig,
        program: &Program,
        init: &[(u64, u32)],
    ) -> (Core, u64, u64) {
        let mut core = Core::new(0, cfg, program.clone());
        // A long memory latency opens plenty of provably idle gaps.
        let mut ports = NullPorts {
            mem_latency: 25,
            ..NullPorts::default()
        };
        for &(addr, v) in init {
            ports.mem.write_u32(addr, v);
        }
        let (mut quiet, mut gated) = (0u64, 0u64);
        for _ in 0..200_000 {
            if core.halted() {
                break;
            }
            if core.slots.ready & !core.slots.candidates() != 0 {
                gated += 1;
            }
            let claim_inert = match core.next_event(&ports) {
                Some(w) => w > core.cycle() + 1,
                None => false,
            };
            let before = core.stats().clone();
            core.step(&mut ports);
            if claim_inert {
                quiet += 1;
                let after = core.stats();
                assert_eq!(after.fetched, before.fetched, "fetched while inert");
                assert_eq!(
                    after.dispatched, before.dispatched,
                    "dispatched while inert"
                );
                assert_eq!(after.issued, before.issued, "issued while inert");
                assert_eq!(after.committed, before.committed, "committed while inert");
                assert_eq!(after.squashed, before.squashed, "squashed while inert");
            }
        }
        assert!(core.halted(), "program did not halt");
        (core, quiet, gated)
    }

    /// [`probe_soundness`] under OOO1 and under a 4-issue OOO2 variant with
    /// four load/store units, where loads on both sides of a store can
    /// issue in the same walk as the store (so the gate must move once the
    /// store gets its address). Returns the OOO1 core and the summed counts.
    fn probe_both(program: Program, init: &[(u64, u32)]) -> (Core, u64, u64) {
        let wide = CoreConfig {
            issue_width: 4,
            ldst_units: 4,
            ..CoreConfig::ooo2()
        };
        let (c2, q2, g2) = probe_soundness(wide, &program, init);
        let (c1, q1, g1) = probe_soundness(CoreConfig::ooo1(), &program, init);
        assert_eq!(c1.regs, c2.regs, "OOO1 and OOO2 disagree");
        (c1, q1 + q2, g1 + g2)
    }

    /// Soundness of the quiescence probe and of the memory-order gate on
    /// programs whose loads are held behind each kind of gate entry: a
    /// fence, an atomic, a store whose base register comes from a slow
    /// load, and wrong-path work cut off by a mispredict squash.
    #[test]
    fn next_event_none_whenever_core_could_progress() {
        // Loads that follow a store and a fence in a loop.
        let mut a = Asm::new("fence");
        a.li(R1, 0);
        a.li(R2, 20);
        a.label("loop");
        a.sw(R1, R1, 64);
        a.fence();
        a.lw(R3, R1, 64);
        a.lw(R4, R1, 128);
        a.add(R5, R5, R3);
        a.addi(R1, R1, 1);
        a.bne(R1, R2, "loop");
        a.halt();
        let (core, quiet, gated) = probe_both(a.assemble().unwrap(), &[]);
        assert!(quiet > 0 && gated > 0, "fence: quiet {quiet} gated {gated}");
        assert_eq!(core.reg(R1), 20);

        // Loads that follow an atomic on a shared counter.
        let mut a = Asm::new("amo");
        a.li(R1, 0);
        a.li(R2, 20);
        a.li(R6, 0x800);
        a.li(R7, 1);
        a.label("loop");
        a.amoadd(R8, R6, R7);
        a.lw(R3, R1, 256);
        a.lw(R4, R6, 0);
        a.add(R5, R5, R4);
        a.addi(R1, R1, 4);
        a.addi(R2, R2, -1);
        a.bne(R2, R0, "loop");
        a.halt();
        let (core, quiet, gated) = probe_both(a.assemble().unwrap(), &[]);
        assert!(quiet > 0 && gated > 0, "amo: quiet {quiet} gated {gated}");
        assert_eq!(core.reg(R8), 19, "last atomic saw 19 earlier increments");

        // Loads behind a store whose base comes from a slow pointer load:
        // the store's address stays unknown for a whole memory latency. The
        // load just before the store wakes with it, so the gate is found
        // before the store issues in the same walk.
        let mut a = Asm::new("store-addr");
        a.li(R1, 0x1000);
        a.li(R2, 0);
        a.li(R3, 12);
        a.label("loop");
        a.lw(R10, R1, 0);
        a.lw(R11, R10, 8);
        a.sw(R2, R10, 0);
        a.lw(R4, R1, 4);
        a.lw(R5, R10, 0);
        a.add(R6, R6, R5);
        a.addi(R1, R1, 8);
        a.addi(R2, R2, 1);
        a.bne(R2, R3, "loop");
        a.halt();
        let ptrs: Vec<(u64, u32)> = (0..12u64)
            .map(|i| (0x1000 + 8 * i, 0x2000 + 16 * i as u32))
            .collect();
        let (core, quiet, gated) = probe_both(a.assemble().unwrap(), &ptrs);
        assert!(
            quiet > 0 && gated > 0,
            "store-addr: quiet {quiet} gated {gated}"
        );
        assert_eq!(
            core.reg(R6),
            (0..12).sum::<i64>(),
            "each load forwards its store"
        );

        // A data-dependent branch on a slow load: the wrong path's stores
        // and loads are squashed while gated.
        let mut a = Asm::new("squash");
        a.li(R1, 0x3000);
        a.li(R2, 0);
        a.li(R3, 16);
        a.label("loop");
        a.lw(R4, R1, 0);
        a.sw(R2, R1, 128);
        a.beq(R4, R0, "skip");
        a.lw(R10, R1, 0);
        a.sw(R4, R10, 0);
        a.lw(R5, R1, 128);
        a.add(R6, R6, R5);
        a.label("skip");
        a.lw(R7, R1, 132);
        a.addi(R1, R1, 4);
        a.addi(R2, R2, 1);
        a.bne(R2, R3, "loop");
        a.halt();
        // An irregular taken/not-taken pattern defeats the predictor.
        let flags: Vec<(u64, u32)> = (0..16u64)
            .map(|i| {
                (
                    0x3000 + 4 * i,
                    [0, 0x3800, 0, 0, 0x3900, 0x3a00, 0][i as usize % 7],
                )
            })
            .collect();
        let (core, quiet, gated) = probe_both(a.assemble().unwrap(), &flags);
        assert!(
            quiet > 0 && gated > 0,
            "squash: quiet {quiet} gated {gated}"
        );
        assert!(core.stats().squashed > 0, "no mispredict squash happened");
        let taken: i64 = (0..16).filter(|i| [1, 4, 5].contains(&(i % 7))).sum();
        assert_eq!(
            core.reg(R6),
            taken,
            "taken iterations read back their own index"
        );
    }

    /// One step of a seeded xorshift stream.
    fn xorshift(seed: &mut u32) -> u32 {
        *seed ^= *seed << 13;
        *seed ^= *seed >> 17;
        *seed ^= *seed << 5;
        *seed
    }

    /// A random ROB entry at `seq`: one of the instruction kinds the walk
    /// masks tell apart, in a random status, issue-queue state, operand
    /// readiness and store-address state.
    fn random_entry(seed: &mut u32, seq: u64) -> RobEntry {
        const KINDS: [Inst; 9] = [
            Inst::Lw {
                rd: R1,
                base: R2,
                offset: 0,
            },
            Inst::Lbu {
                rd: R1,
                base: R2,
                offset: 1,
            },
            Inst::Sw {
                rs: R1,
                base: R2,
                offset: 4,
            },
            Inst::Sb {
                rs: R1,
                base: R2,
                offset: 5,
            },
            Inst::Fence,
            Inst::AmoAdd {
                rd: R1,
                base: R2,
                rs: R3,
            },
            Inst::HwBar { id: 0 },
            Inst::Alu {
                op: remap_isa::AluOp::Add,
                rd: R1,
                rs1: R2,
                rs2: R3,
            },
            Inst::Nop,
        ];
        let r = xorshift(seed);
        let src = |k: u32| {
            if r >> k & 3 != 0 {
                Src::Ready(0)
            } else {
                Src::Wait(0)
            }
        };
        RobEntry {
            seq,
            inst: KINDS[r as usize % KINDS.len()],
            status: [
                Status::Waiting,
                Status::Waiting,
                Status::Executing(9),
                Status::Done,
            ][(r >> 8) as usize % 4],
            in_iq: r >> 10 & 3 != 0,
            src: [src(12), src(14)],
            mem_addr: (r >> 16 & 1 != 0).then_some(0x100),
            ..RobEntry::default()
        }
    }

    /// The walk's candidates by a plain scan over the entries: ready and
    /// not (a waiting load younger than the oldest gating entry).
    fn plain_candidates(rob: &VecDeque<RobEntry>) -> Vec<usize> {
        let gates = |e: &RobEntry| match e.inst {
            Inst::Fence | Inst::AmoAdd { .. } | Inst::HwBar { .. } => true,
            Inst::Sw { .. } | Inst::Sb { .. } => e.mem_addr.is_none(),
            _ => false,
        };
        let gate = rob.iter().find(|e| gates(e)).map_or(u64::MAX, |e| e.seq);
        let waiting = |e: &RobEntry| e.status == Status::Waiting;
        let ready = |e: &RobEntry| {
            waiting(e)
                && e.in_iq
                && !e.inst.is_at_head_only()
                && e.src.iter().all(|s| matches!(s, Src::Ready(_)))
        };
        let load = |e: &RobEntry| waiting(e) && e.inst.class() == InstClass::Load;
        let cands = rob.iter().enumerate();
        cands
            .filter(|(_, e)| ready(e) && !(load(e) && e.seq > gate))
            .map(|(i, _)| i)
            .collect()
    }

    /// Asserts the incrementally kept masks equal a recount and that the
    /// walk visits exactly the plain scan's candidates, in ROB order.
    fn assert_walk(slots: &Slots, rob: &VecDeque<RobEntry>, what: &str) {
        assert_eq!(*slots, Slots::of(rob), "{what}: masks drifted");
        let walk: Vec<usize> = bits(slots.candidates()).collect();
        assert_eq!(walk, plain_candidates(rob), "{what}: walk order");
    }

    /// The mask walk visits exactly what a plain scan over the entries
    /// selects, on seeded random ROBs kept by dispatch, issue, commit and
    /// squash, including full 64-entry ROBs whose ring buffer has wrapped.
    #[test]
    fn walk_candidates_match_a_plain_scan() {
        let mut seed = 0x9e37_79b9u32;
        let mut wrapped = false;
        for len in [0usize, 1, 7, 9, 31, 63, 64] {
            let mut rob: VecDeque<RobEntry> = VecDeque::with_capacity(MAX_ROB);
            let cap = rob.capacity();
            for head in [0, 5, cap - 3] {
                // Move the ring's head, so the entries wrap past its end.
                rob.clear();
                rob.extend((0..head).map(|_| RobEntry::default()));
                while rob.pop_front().is_some() {}
                let mut slots = Slots::default();
                for seq in 100..100 + len as u64 {
                    let e = random_entry(&mut seed, seq);
                    slots.push(rob.len(), &e);
                    rob.push_back(e);
                }
                wrapped |= !rob.as_slices().1.is_empty();
                assert_walk(&slots, &rob, &format!("len {len} head {head} dispatch"));
                // Issue, commit and squash in a seeded order until empty.
                while !rob.is_empty() {
                    let what = format!("len {len} head {head} at {}", rob.len());
                    match xorshift(&mut seed) % 4 {
                        0 | 1 => {
                            let Some(i) = bits(slots.candidates()).next() else {
                                rob.pop_front();
                                slots.retire();
                                assert_walk(&slots, &rob, &what);
                                continue;
                            };
                            let e = &mut rob[i];
                            e.status = Status::Executing(12);
                            if matches!(e.inst, Inst::Sw { .. } | Inst::Sb { .. }) {
                                e.mem_addr = Some(0x200);
                            }
                            slots.issued(i);
                        }
                        2 => {
                            rob.pop_front();
                            slots.retire();
                        }
                        _ => {
                            let keep = xorshift(&mut seed) as usize % (rob.len() + 1);
                            rob.truncate(keep);
                            slots.truncate(keep);
                        }
                    }
                    assert_walk(&slots, &rob, &what);
                }
            }
        }
        assert!(wrapped, "no case wrapped the ring");
    }

    /// The extreme positions of a full ROB: a dispatch into bit 63, a
    /// commit shift out of a full ROB, and squashes keeping 0, 63 and 64
    /// entries.
    #[test]
    fn walk_masks_at_the_edges_of_a_full_rob() {
        let mut seed = 0x0bad_cafe_u32;
        let mut rob: VecDeque<RobEntry> = VecDeque::with_capacity(MAX_ROB);
        let mut slots = Slots::default();
        for seq in 0..MAX_ROB as u64 - 1 {
            let e = random_entry(&mut seed, seq);
            slots.push(rob.len(), &e);
            rob.push_back(e);
        }
        let last = RobEntry {
            seq: 63,
            inst: Inst::Lw {
                rd: R1,
                base: R2,
                offset: 0,
            },
            in_iq: true,
            ..RobEntry::default()
        };
        slots.push(rob.len(), &last);
        rob.push_back(last);
        assert_eq!(rob.len(), MAX_ROB);
        assert_eq!(slots.ready >> 63, 1, "dispatch into bit 63");
        assert_eq!(slots.loads >> 63, 1, "dispatch into bit 63");
        assert_walk(&slots, &rob, "full");
        for keep in [0, 63, 64] {
            let (mut r, mut s) = (rob.clone(), slots);
            r.truncate(keep);
            s.truncate(keep);
            assert_walk(&s, &r, &format!("squash keeping {keep}"));
        }
        rob.pop_front();
        slots.retire();
        assert_eq!(slots.ready >> 62, 1, "commit shifts the youngest down");
        assert_walk(&slots, &rob, "commit from full");
    }

    /// When the store holding the memory-order gate issues, the loads it
    /// gated become candidates in the same walk: on a core with load/store
    /// units to spare, the gated load issues in the store's cycle.
    #[test]
    fn gate_store_frees_its_loads_in_the_same_walk() {
        let mut a = Asm::new("t");
        a.li(R1, 0x100);
        a.li(R2, 5);
        a.sw(R2, R1, 0);
        a.lw(R3, R1, 64);
        a.halt();
        let wide = CoreConfig {
            issue_width: 4,
            ldst_units: 4,
            ..CoreConfig::ooo2()
        };
        let mut core = Core::new(0, wide, a.assemble().unwrap());
        let mut ports = NullPorts {
            mem_latency: 2,
            ..NullPorts::default()
        };
        let mut issued_at = [None; 2];
        while core.step(&mut ports) {
            for e in &core.rob {
                let k = match e.inst {
                    Inst::Sw { .. } => 0,
                    Inst::Lw { .. } => 1,
                    _ => continue,
                };
                if e.status != Status::Waiting {
                    issued_at[k].get_or_insert(core.cycle());
                }
            }
        }
        assert!(issued_at[0].is_some(), "the store never issued");
        assert_eq!(issued_at[0], issued_at[1], "store and load issue cycles");
    }

    /// Snapshots carry the walk state only as bytes derived from the
    /// entries: a mid-run core round-trips to equal masks and equal bytes,
    /// and a walk byte that disagrees with its decoded entry is refused.
    #[test]
    fn snapshot_walk_bytes_are_derived_and_checked() {
        use remap_snap::{Reader, Writer};
        let mut a = Asm::new("t");
        a.li(R1, 0x1000);
        a.li(R2, 0);
        a.li(R3, 12);
        a.label("loop");
        a.lw(R10, R1, 0);
        a.sw(R2, R10, 0);
        a.lw(R5, R10, 0);
        a.fence();
        a.addi(R1, R1, 8);
        a.addi(R2, R2, 1);
        a.bne(R2, R3, "loop");
        a.halt();
        let program = a.assemble().unwrap();
        let mut core = Core::new(0, CoreConfig::ooo1(), program.clone());
        let mut ports = NullPorts {
            mem_latency: 25,
            ..NullPorts::default()
        };
        while core.slots.orders.count_ones() < 2 || core.slots.gates == 0 {
            assert!(core.step(&mut ports), "no mid-run state with gates");
        }
        let encode = |c: &mut Core| {
            let mut w = Writer::default();
            c.visit(&mut w).unwrap();
            w.into_vec()
        };
        let bytes = encode(&mut core);
        let mut back = Core::new(0, CoreConfig::ooo1(), program.clone());
        back.visit(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back.slots, core.slots, "decoded masks");
        assert_eq!(encode(&mut back), bytes, "re-encoded bytes");
        // The first walk byte follows the predictor, registers, rename map
        // and ROB entries; flip its `in_iq` bit.
        let mut w = Writer::default();
        core.pred.visit(&mut w).unwrap();
        w.each(&mut core.regs).unwrap();
        w.each(&mut core.map).unwrap();
        w.deque(&mut core.rob, MAX_ROB).unwrap();
        let mut bad = bytes.clone();
        bad[w.into_vec().len()] ^= 0b100;
        let mut fresh = Core::new(0, CoreConfig::ooo1(), program);
        let err = fresh.visit(&mut Reader::new(&bad)).unwrap_err();
        assert!(
            matches!(&err, SnapError::Corrupt(why) if why.contains("walk byte")),
            "{err:?}"
        );
    }

    #[test]
    #[should_panic(expected = "ROB of 65 entries exceeds")]
    fn rob_above_64_entries_is_refused() {
        let mut a = Asm::new("t");
        a.halt();
        let cfg = CoreConfig {
            rob: 65,
            ..CoreConfig::ooo1()
        };
        Core::new(0, cfg, a.assemble().unwrap());
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut a = Asm::new("t");
        a.li(R1, 6);
        a.li(R2, 7);
        a.mul(R3, R1, R2);
        a.halt();
        let (core, _) = run(a.assemble().unwrap());
        assert_eq!(core.reg(R3), 42);
        assert_eq!(core.stats().committed, 4);
    }

    #[test]
    fn loop_executes_correct_count() {
        let mut a = Asm::new("t");
        a.li(R1, 0);
        a.li(R2, 100);
        a.label("loop");
        a.addi(R1, R1, 1);
        a.bne(R1, R2, "loop");
        a.halt();
        let (core, _) = run(a.assemble().unwrap());
        assert_eq!(core.reg(R1), 100);
        assert!(core.stats().branches >= 100);
    }

    #[test]
    fn loads_and_stores_round_trip() {
        let mut a = Asm::new("t");
        a.li(R1, 0x100);
        a.li(R2, -123);
        a.sw(R2, R1, 0);
        a.lw(R3, R1, 0);
        a.halt();
        let (core, ports) = run(a.assemble().unwrap());
        assert_eq!(core.reg(R3), -123);
        assert_eq!(ports.mem.read_u32(0x100) as i32, -123);
    }

    #[test]
    fn store_to_load_forwarding_value() {
        // The load issues while the store is still in flight; forwarding or
        // blocking must still produce the right value.
        let mut a = Asm::new("t");
        a.li(R1, 0x200);
        a.li(R2, 77);
        a.sw(R2, R1, 0);
        a.lw(R3, R1, 0);
        a.addi(R4, R3, 1);
        a.halt();
        let (core, _) = run(a.assemble().unwrap());
        assert_eq!(core.reg(R4), 78);
    }

    #[test]
    fn byte_load_sign_extension() {
        let mut a = Asm::new("t");
        a.li(R1, 0x300);
        a.li(R2, 0xFF);
        a.sb(R2, R1, 0);
        a.fence();
        a.lb(R3, R1, 0);
        a.lbu(R4, R1, 0);
        a.halt();
        let (core, _) = run(a.assemble().unwrap());
        assert_eq!(core.reg(R3), -1);
        assert_eq!(core.reg(R4), 255);
    }

    #[test]
    fn call_return_via_ras() {
        let mut a = Asm::new("t");
        a.li(R1, 5);
        a.jal(R31, "func");
        a.addi(R1, R1, 100); // executed after return
        a.halt();
        a.label("func");
        a.addi(R1, R1, 1);
        a.jalr(R0, R31);
        let (core, _) = run(a.assemble().unwrap());
        assert_eq!(core.reg(R1), 106);
    }

    #[test]
    fn fp_ops() {
        let mut a = Asm::new("t");
        // Build 2.0 and 0.5 bit patterns via integer ops is painful; use
        // memory.
        a.li(R1, 0x400);
        a.lw(R2, R1, 0); // low half of 2.0
        a.lw(R3, R1, 4); // high half
        a.slli(R3, R3, 32);
        a.or(R2, R2, R3);
        a.lw(R4, R1, 8);
        a.lw(R5, R1, 12);
        a.slli(R5, R5, 32);
        a.or(R4, R4, R5);
        a.fmul(R6, R2, R4);
        a.halt();
        let program = a.assemble().unwrap();
        let mut core = Core::new(0, CoreConfig::ooo1(), program);
        let mut ports = NullPorts {
            mem_latency: 1,
            ..NullPorts::default()
        };
        ports.mem.write_u64(0x400, 2.0f64.to_bits());
        ports.mem.write_u64(0x408, 0.5f64.to_bits());
        while core.step(&mut ports) {}
        assert_eq!(f64::from_bits(core.reg(R6) as u64), 1.0);
    }

    #[test]
    fn amo_add_at_head() {
        let mut a = Asm::new("t");
        a.li(R1, 0x500);
        a.li(R2, 3);
        a.amoadd(R3, R1, R2);
        a.amoadd(R4, R1, R2);
        a.halt();
        let (core, ports) = run(a.assemble().unwrap());
        assert_eq!(core.reg(R3), 0);
        assert_eq!(core.reg(R4), 3);
        assert_eq!(ports.mem.read_u32(0x500), 6);
    }

    #[test]
    fn spl_ops_flow_through_ports() {
        let mut a = Asm::new("t");
        a.li(R1, 42);
        a.spl_load(R1, 0, 4);
        a.spl_init(7);
        a.spl_store(R2);
        a.halt();
        let program = a.assemble().unwrap();
        let mut core = Core::new(0, CoreConfig::ooo1(), program);
        let mut ports = NullPorts {
            mem_latency: 1,
            ..NullPorts::default()
        };
        ports.spl_results.push_back(99);
        while core.step(&mut ports) {}
        assert_eq!(ports.spl_staged, vec![(0, 4, 42)]);
        assert_eq!(ports.spl_inits, vec![7]);
        assert_eq!(core.reg(R2), 99);
        assert_eq!(core.stats().spl_ops, 3);
    }

    #[test]
    fn ooo2_is_faster_on_ilp() {
        // Independent ALU chains: the dual-issue core should finish sooner.
        let mk = || {
            let mut a = Asm::new("ilp");
            a.li(R1, 0);
            a.li(R2, 0);
            a.li(R3, 0);
            a.li(R4, 0);
            for _ in 0..200 {
                a.addi(R1, R1, 1);
                a.addi(R2, R2, 2);
                a.addi(R3, R3, 3);
                a.addi(R4, R4, 4);
            }
            a.halt();
            a.assemble().unwrap()
        };
        let mut c1 = Core::new(0, CoreConfig::ooo1(), mk());
        let mut c2 = Core::new(0, CoreConfig::ooo2(), mk());
        let mut p1 = NullPorts {
            mem_latency: 1,
            ..NullPorts::default()
        };
        let mut p2 = NullPorts {
            mem_latency: 1,
            ..NullPorts::default()
        };
        while c1.step(&mut p1) {}
        while c2.step(&mut p2) {}
        assert_eq!(c1.reg(R1), 200);
        assert_eq!(c2.reg(R4), 800);
        assert!(
            (c2.cycle() as f64) < 0.7 * c1.cycle() as f64,
            "OOO2 ({}) should be well under OOO1 ({})",
            c2.cycle(),
            c1.cycle()
        );
    }

    #[test]
    fn mispredicts_squash_wrong_path() {
        // A data-dependent unpredictable branch pattern.
        let mut a = Asm::new("t");
        a.li(R1, 0);
        a.li(R2, 50);
        a.li(R5, 0);
        a.label("loop");
        a.andi(R3, R1, 1);
        a.beq(R3, R0, "even");
        a.addi(R5, R5, 2);
        a.j("next");
        a.label("even");
        a.addi(R5, R5, 1);
        a.label("next");
        a.addi(R1, R1, 1);
        a.bne(R1, R2, "loop");
        a.halt();
        let (core, _) = run(a.assemble().unwrap());
        // 25 even (+1) + 25 odd (+2)
        assert_eq!(core.reg(R5), 75);
    }

    #[test]
    fn fence_drains_stores() {
        let mut a = Asm::new("t");
        a.li(R1, 0x600);
        a.li(R2, 5);
        a.sw(R2, R1, 0);
        a.fence();
        a.halt();
        let (core, ports) = run(a.assemble().unwrap());
        assert!(core.stats().committed >= 5);
        assert_eq!(ports.mem.read_u32(0x600), 5);
    }

    #[test]
    fn set_reg_seeds_arguments() {
        let mut a = Asm::new("t");
        a.addi(R2, R10, 1);
        a.halt();
        let mut core = Core::new(0, CoreConfig::ooo1(), a.assemble().unwrap());
        core.set_reg(R10, 41);
        let mut ports = NullPorts {
            mem_latency: 1,
            ..NullPorts::default()
        };
        while core.step(&mut ports) {}
        assert_eq!(core.reg(R2), 42);
    }

    #[test]
    #[should_panic(expected = "set_reg after execution")]
    fn set_reg_after_start_panics() {
        let mut a = Asm::new("t");
        a.halt();
        let mut core = Core::new(0, CoreConfig::ooo1(), a.assemble().unwrap());
        let mut ports = NullPorts::default();
        core.step(&mut ports);
        core.set_reg(R1, 1);
    }

    #[test]
    fn pointer_chase_is_slow_but_correct() {
        // Build a linked list in memory and chase it.
        let mut a = Asm::new("t");
        a.li(R1, 0x1000);
        a.li(R2, 0);
        a.li(R3, 16);
        a.label("loop");
        a.lw(R1, R1, 0);
        a.addi(R2, R2, 1);
        a.bne(R2, R3, "loop");
        a.halt();
        let program = a.assemble().unwrap();
        let mut core = Core::new(0, CoreConfig::ooo1(), program);
        let mut ports = NullPorts {
            mem_latency: 10,
            ..NullPorts::default()
        };
        // next[i] pointers: 0x1000 -> 0x1040 -> 0x1080 ... wrap to 0x1000.
        for i in 0..16u64 {
            let a0 = 0x1000 + i * 0x40;
            let nxt = 0x1000 + ((i + 1) % 16) * 0x40;
            ports.mem.write_u32(a0, nxt as u32);
        }
        while core.step(&mut ports) {}
        assert_eq!(core.reg(R1), 0x1000, "wrapped around the list");
        // 16 serialized 10-cycle loads dominate: at least 160 cycles.
        assert!(core.cycle() > 160);
    }
}
