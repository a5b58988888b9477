//! Spans, counters and the per-layer metrics derived from them.

use remap::System;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`build`, `verify`, `simulate`, `check`, `ckpt_run`,
    /// `snapshot`, `write`, `read`, `restore`) or grouping (`pass`,
    /// `config`).
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    /// Seconds since the tracer was created.
    pub end_s: f64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Canonical index of the configuration the span belongs to.
    pub config: Option<usize>,
}

/// Records nested spans in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// An open span, closed by [`Tracer::exit`].
#[must_use]
pub struct Open(usize);

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span inside the innermost open one.
    pub fn enter(&mut self, name: &'static str, config: Option<usize>) -> Open {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_s: self.origin.elapsed().as_secs_f64(),
            end_s: f64::NAN,
            parent: self.open.last().copied(),
            config,
        });
        self.open.push(idx);
        Open(idx)
    }

    /// Closes a span (spans close innermost first).
    pub fn exit(&mut self, span: Open) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(span.0), "spans must close innermost first");
        self.spans[span.0].end_s = self.origin.elapsed().as_secs_f64();
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Seconds one [`Calibrator::unit`] takes on the reference host (a quiet
/// 2-vCPU Xeon KVM guest at 2.1 GHz). Speed-normalized times are host
/// seconds scaled to that host speed.
pub const CAL_REF_S: f64 = 5e-4;

/// Measures how fast the host runs at this moment with a fixed unit of
/// work: xorshift-indexed read-modify-writes over a 4 MiB table, past the
/// private caches. Co-tenant contention slows it much as it slows the
/// simulator, so dividing by its time removes most of a shared host's
/// speed swings from a measurement.
#[derive(Debug)]
pub struct Calibrator {
    table: Vec<u32>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// A calibrator with its table allocated and touched.
    pub fn new() -> Calibrator {
        Calibrator {
            table: vec![1; 1 << 20],
        }
    }

    /// Host seconds of one unit of calibration work.
    pub fn unit(&mut self) -> f64 {
        let t = Instant::now();
        let mask = self.table.len() - 1;
        let mut x: u32 = 0x9e37_79b9;
        for _ in 0..30_000 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let slot = &mut self.table[x as usize & mask];
            if *slot & 1 == 0 {
                *slot = slot.wrapping_add(x);
            } else {
                *slot ^= x >> 3;
            }
        }
        std::hint::black_box(self.table[x as usize & mask]);
        t.elapsed().as_secs_f64()
    }
}

/// `(total, self)` seconds per span name over the closed spans
/// `spans[first..]`, none of which has a parent before `first`'s own. A
/// span's self time is its duration minus that of its direct children.
pub fn layer_seconds(spans: &[Span], first: usize) -> BTreeMap<&'static str, (f64, f64)> {
    let spans = &spans[first..];
    let mut own: Vec<f64> = spans.iter().map(|s| s.end_s - s.start_s).collect();
    for s in spans {
        if let Some(p) = s.parent.and_then(|p| p.checked_sub(first)) {
            own[p] -= s.end_s - s.start_s;
        }
    }
    let mut out: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(own) {
        let e = out.entry(s.name).or_default();
        e.0 += s.end_s - s.start_s;
        e.1 += own;
    }
    out
}

/// Per-call timing of the traced run loop.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepTimes {
    /// Seconds in `step_or_skip` calls that advanced one cycle.
    pub tick_s: f64,
    /// Seconds in calls that bulk-skipped before stepping.
    pub skip_s: f64,
    /// Calls that advanced one cycle.
    pub tick_calls: u64,
    /// Calls that bulk-skipped.
    pub skip_calls: u64,
    /// Cycles those calls skipped.
    pub skipped_cycles: u64,
}

/// Counters summed over the configurations of a pass, read from each
/// finished system's public statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Static-verifier errors over every built system (must be 0).
    pub verify_errors: u64,
    /// Cycles simulated by every `run*` call (and the traced loop).
    pub sim_cycles: u64,
    /// Of those, cycles the skip engine bulk-advanced.
    pub sim_skipped: u64,
    /// Per-core `CoreStats.cycles` those calls added, summed over cores.
    pub sim_core_cycles: u64,
    /// Instructions those calls committed.
    pub sim_committed: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Fetched instructions.
    pub fetched: u64,
    /// Squashed instructions.
    pub squashed: u64,
    /// Conditional branches resolved.
    pub branches: u64,
    /// Mispredicted branches.
    pub mispredicts: u64,
    /// Cycles dispatch stalled on a full ROB.
    pub rob_full_stalls: u64,
    /// Cycles the ROB head waited on the SPL.
    pub spl_wait_cycles: u64,
    /// Cycles the ROB head waited on hardware queues or barriers.
    pub hw_wait_cycles: u64,
    /// L1D hits.
    pub l1d_hits: u64,
    /// L1D misses.
    pub l1d_misses: u64,
    /// L1I hits.
    pub l1i_hits: u64,
    /// L1I misses.
    pub l1i_misses: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// Snoop broadcasts.
    pub snoops: u64,
    /// Cache-to-cache transfers.
    pub c2c_transfers: u64,
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// Secondary misses merged into an MSHR.
    pub mshr_merges: u64,
    /// Prefetches issued.
    pub prefetch_issued: u64,
    /// Prefetches that were used (on time or late).
    pub prefetch_used: u64,
    /// Directory lookups.
    pub dir_lookups: u64,
    /// Directory probes sent.
    pub dir_probes_sent: u64,
    /// Probes a broadcast would have sent that the directory avoided.
    pub dir_probes_avoided: u64,
    /// Directory bank conflicts.
    pub dir_bank_conflicts: u64,
    /// SPL compute operations.
    pub spl_compute_ops: u64,
    /// SPL barrier operations.
    pub spl_barrier_ops: u64,
    /// SPL row activations.
    pub spl_row_activations: u64,
    /// SPL rows stalled.
    pub spl_stall_rows: u64,
    /// Faults injected.
    pub faults_injected: u64,
    /// Faults detected and recovered.
    pub faults_recovered: u64,
    /// Faults that corrupted state silently.
    pub faults_silent: u64,
    /// Checkpoint intervals crossed by `run_with_checkpoints` (writes happen
    /// at least once per interval; a bulk skip can merge two).
    pub checkpoints: u64,
    /// Bytes of the mid-run cut snapshots.
    pub snap_bytes: u64,
}

/// How far a system has run: the quantities a `run*` call advances.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Progress {
    /// Current cycle.
    pub cycles: u64,
    /// Cycles bulk-advanced by the skip engine.
    pub skipped: u64,
    /// Per-core `CoreStats.cycles`, summed over cores.
    pub core_cycles: u64,
    /// Committed instructions.
    pub committed: u64,
}

impl Progress {
    /// The progress of `sys` so far.
    pub fn of(sys: &System) -> Progress {
        Progress {
            cycles: sys.cycle(),
            skipped: sys.skipped_cycles(),
            core_cycles: (0..sys.n_cores()).map(|c| sys.core_stats(c).cycles).sum(),
            committed: sys.total_committed(),
        }
    }
}

impl Counters {
    /// Accounts for `run*` calls that took a system from `before` to
    /// `after`.
    pub fn add_run(&mut self, before: Progress, after: Progress) {
        self.sim_cycles += after.cycles - before.cycles;
        self.sim_skipped += after.skipped - before.skipped;
        self.sim_core_cycles += after.core_cycles - before.core_cycles;
        self.sim_committed += after.committed - before.committed;
    }

    /// Adds the architectural statistics of one finished system.
    pub fn add_system(&mut self, sys: &System) {
        let hier = sys.hierarchy();
        for c in 0..sys.n_cores() {
            let s = sys.core_stats(c);
            self.committed += s.committed;
            self.fetched += s.fetched;
            self.squashed += s.squashed;
            self.branches += s.branches;
            self.mispredicts += s.mispredicts;
            self.rob_full_stalls += s.rob_full_stalls;
            self.spl_wait_cycles += s.spl_wait_cycles;
            self.hw_wait_cycles += s.hw_wait_cycles;
            let (l1i, l1d, l2) = hier.cache_stats(c);
            self.l1d_hits += l1d.hits;
            self.l1d_misses += l1d.misses;
            self.l1i_hits += l1i.hits;
            self.l1i_misses += l1i.misses;
            self.l2_misses += l2.misses;
        }
        let bus = hier.bus_stats();
        self.snoops += bus.snoops;
        self.c2c_transfers += bus.c2c_transfers;
        self.dram_accesses += bus.dram_accesses;
        let m = hier.mlp_stats();
        self.mshr_merges += m.mshr_merges;
        self.prefetch_issued += m.prefetch_issued;
        self.prefetch_used += m.prefetch_useful + m.prefetch_late;
        let d = hier.dir_stats();
        self.dir_lookups += d.lookups;
        self.dir_probes_sent += d.probes_sent;
        self.dir_probes_avoided += d.probes_avoided;
        self.dir_bank_conflicts += d.bank_conflicts;
        for cl in 0..sys.n_clusters() {
            let s = sys.spl_stats(cl);
            self.spl_compute_ops += s.compute_ops;
            self.spl_barrier_ops += s.barrier_ops;
            self.spl_row_activations += s.row_activations;
            self.spl_stall_rows += s.stall_rows;
        }
        let f = sys.fault_report();
        self.faults_injected += f.total_injected();
        self.faults_recovered += f.total_recovered();
        self.faults_silent += f.total_silent();
    }
}

/// `num / den`, or 0 when nothing was attempted (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// Host-time inputs of the per-layer metrics, each the median over the
/// run's traced passes.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTimes {
    /// `build` spans.
    pub build_s: f64,
    /// `verify` spans.
    pub verify_s: f64,
    /// `simulate` and `ckpt_run` spans.
    pub simulate_s: f64,
    /// `check` spans (oracle, energy and digest).
    pub check_s: f64,
    /// `ckpt_run` spans.
    pub ckpt_run_s: f64,
    /// `snapshot` spans.
    pub snapshot_s: f64,
    /// `write` spans.
    pub write_s: f64,
    /// `read` spans.
    pub read_s: f64,
    /// `restore` spans.
    pub restore_s: f64,
}

/// The per-layer metrics of one traced run. `untraced_skipped` is the skip
/// count of `System::run` on the same configurations; `c.sim_skipped`
/// comes from the traced loop.
pub fn per_layer(
    c: &Counters,
    t: &LayerTimes,
    steps: &StepTimes,
    untraced_skipped: u64,
    overhead_s: f64,
) -> Vec<Metric> {
    let f = |v: u64| v as f64;
    let stepped = c.sim_cycles.saturating_sub(c.sim_skipped);
    vec![
        ("workloads.build_s", t.build_s, "s"),
        ("verify.verify_s", t.verify_s, "s"),
        ("verify.errors", f(c.verify_errors), "count"),
        ("check.check_s", t.check_s, "s"),
        ("core.simulate_s", t.simulate_s, "s"),
        ("core.cycles", f(c.sim_cycles), "count"),
        ("core.skipped_cycles", f(untraced_skipped), "count"),
        ("core.traced_skipped_cycles", f(c.sim_skipped), "count"),
        (
            "core.skip_rate",
            ratio(f(untraced_skipped), f(c.sim_cycles)),
            "ratio",
        ),
        (
            "core.ns_per_stepped_cycle",
            ratio(t.simulate_s * 1e9, f(stepped)),
            "ns",
        ),
        (
            "core.ns_per_core_cycle",
            ratio(t.simulate_s * 1e9, f(c.sim_core_cycles)),
            "ns",
        ),
        ("core.tick_s", steps.tick_s, "s"),
        ("core.skip_s", steps.skip_s, "s"),
        ("core.tick_calls", f(steps.tick_calls), "count"),
        ("core.skip_calls", f(steps.skip_calls), "count"),
        ("cpu.committed", f(c.committed), "count"),
        ("cpu.fetched", f(c.fetched), "count"),
        ("cpu.squashed", f(c.squashed), "count"),
        (
            "cpu.commit_per_fetch",
            ratio(f(c.committed), f(c.fetched)),
            "ratio",
        ),
        (
            "cpu.mispredict_rate",
            ratio(f(c.mispredicts), f(c.branches)),
            "ratio",
        ),
        ("cpu.rob_full_stalls", f(c.rob_full_stalls), "count"),
        ("cpu.spl_wait_cycles", f(c.spl_wait_cycles), "count"),
        ("cpu.hw_wait_cycles", f(c.hw_wait_cycles), "count"),
        ("mem.l1d_accesses", f(c.l1d_hits + c.l1d_misses), "count"),
        (
            "mem.l1d_hit_ratio",
            ratio(f(c.l1d_hits), f(c.l1d_hits + c.l1d_misses)),
            "ratio",
        ),
        (
            "mem.l1i_hit_ratio",
            ratio(f(c.l1i_hits), f(c.l1i_hits + c.l1i_misses)),
            "ratio",
        ),
        ("mem.l2_misses", f(c.l2_misses), "count"),
        ("mem.snoops", f(c.snoops), "count"),
        ("mem.c2c_transfers", f(c.c2c_transfers), "count"),
        ("mem.dram_accesses", f(c.dram_accesses), "count"),
        ("mem.mshr_merges", f(c.mshr_merges), "count"),
        (
            "mem.prefetch_accuracy",
            ratio(f(c.prefetch_used), f(c.prefetch_issued)),
            "ratio",
        ),
        ("mem.dir_lookups", f(c.dir_lookups), "count"),
        ("mem.dir_probes_sent", f(c.dir_probes_sent), "count"),
        (
            "mem.dir_probe_avoid_ratio",
            ratio(
                f(c.dir_probes_avoided),
                f(c.dir_probes_sent + c.dir_probes_avoided),
            ),
            "ratio",
        ),
        ("mem.dir_bank_conflicts", f(c.dir_bank_conflicts), "count"),
        ("spl.compute_ops", f(c.spl_compute_ops), "count"),
        ("spl.barrier_ops", f(c.spl_barrier_ops), "count"),
        ("spl.row_activations", f(c.spl_row_activations), "count"),
        ("spl.stall_rows", f(c.spl_stall_rows), "count"),
        ("fault.injected", f(c.faults_injected), "count"),
        ("fault.recovered", f(c.faults_recovered), "count"),
        ("fault.silent", f(c.faults_silent), "count"),
        ("snap.ckpt_run_s", t.ckpt_run_s, "s"),
        ("snap.checkpoints", f(c.checkpoints), "count"),
        ("snap.snapshot_s", t.snapshot_s, "s"),
        ("snap.write_s", t.write_s, "s"),
        ("snap.read_s", t.read_s, "s"),
        ("snap.restore_s", t.restore_s, "s"),
        ("snap.bytes", f(c.snap_bytes), "bytes"),
        ("trace.overhead_s", overhead_s, "s"),
    ]
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
