//! # remap-ledger
//!
//! The ReMAP simulator's benchmark: end-to-end host metrics of three
//! workloads and a per-layer host-time ledger, measured by calling the
//! simulator's public API from outside it.
//!
//! A *pass* builds, statically verifies, simulates and validates every
//! configuration of a workload once, in an order permuted by the seed.
//! Every call into a layer is wrapped in a [`Span`]; the per-layer seconds
//! of a pass are the spans' durations, and the counters are read from the
//! public statistics of each finished [`System`]. A configuration fails on
//! a [`remap::RunError`], an oracle mismatch, or an architectural-digest
//! mismatch (see [`digest`]).

pub mod ledger;

use ledger::{
    median, Calibrator, Counters, LayerTimes, Metric, Progress, StepTimes, Tracer, CAL_REF_S,
};
use remap::{FaultPlan, SiteCfg, Snapshot, System};
use remap_workloads::barriers::{BarrierBench, BarrierMode};
use remap_workloads::comm::CommBench;
use remap_workloads::comp::CompBench;
use remap_workloads::{CommMode, CompMode};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Seed the recorded digests were taken with.
pub const DEFAULT_SEED: u64 = 1;
/// Cycle limit of every simulation (none comes near it).
pub const MAX_CYCLES: u64 = 400_000_000;
/// Problem size of the Figure 8–11 region configurations (the paper's
/// region-measurement size, `REGION_N` in the repository's figure benches).
pub const REGION_N: usize = 2048;
/// Checkpoints written per configuration by `run_with_checkpoints` in the
/// `resilience` workload.
pub const CHECKPOINTS_PER_CONFIG: u64 = 2;
/// Cycles without any commit after which the traced run loop declares a
/// deadlock (the same window `System::run` uses).
const STALL_WINDOW: u64 = 200_000;

/// Digests recorded at [`DEFAULT_SEED`]: `workload \t label \t cycles \t digest`.
const RECORDED: &str = include_str!("../digests.txt");

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All 70 Figure 8–11 region configurations on one or two cores.
    Region,
    /// The barrier benchmarks on 16-, 36- and 64-core grids.
    Grid,
    /// Faulted runs under checkpointing and a mid-run cut-and-restore.
    Resilience,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Region, Workload::Grid, Workload::Resilience];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Region => "region",
            Workload::Grid => "grid",
            Workload::Resilience => "resilience",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// What a configuration simulates.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// A computation-only kernel.
    Comp(CompBench, CompMode),
    /// A communicating kernel.
    Comm(CommBench, CommMode),
    /// A barrier kernel.
    Barrier(BarrierBench, BarrierMode),
}

/// One configuration of a workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Unique, seed-independent label (`"adpcm [2Th+CompComm] n=2048"`).
    pub label: String,
    /// Benchmark and mode.
    pub kind: Kind,
    /// Problem size.
    pub n: usize,
    /// Installed fault plan, if any.
    pub plan: Option<FaultPlan>,
    /// Whether an oracle mismatch of this configuration is the known SPL
    /// parity-replay ordering defect (see `NOTES.md`): it still counts as a
    /// failure, but not as an unexplained one.
    pub known_defect: bool,
}

impl Config {
    fn new(kind: Kind, n: usize) -> Config {
        let (bench, mode) = match kind {
            Kind::Comp(b, m) => (b.name(), m.label().to_string()),
            Kind::Comm(b, m) => (b.name(), m.label().to_string()),
            Kind::Barrier(b, m) => (b.name(), m.label()),
        };
        Config {
            label: format!("{bench} [{mode}] n={n}"),
            kind,
            n,
            plan: None,
            known_defect: false,
        }
    }

    /// Builds the system, with the fault plan installed.
    pub fn build(&self) -> System {
        let mut sys = match self.kind {
            Kind::Comp(b, m) => b.build(m, self.n),
            Kind::Comm(b, m) => b.build(m, self.n),
            Kind::Barrier(b, m) => b.build(m, self.n),
        };
        if let Some(plan) = &self.plan {
            sys.set_fault_plan(plan);
        }
        sys
    }

    /// Validates a finished system against the benchmark's host oracle.
    ///
    /// # Errors
    ///
    /// The oracle's mismatch description.
    pub fn check(&self, sys: &System) -> Result<(), String> {
        match self.kind {
            Kind::Comp(b, _) => b.check(sys, self.n),
            Kind::Comm(b, _) => b.check(sys, self.n),
            Kind::Barrier(b, _) => b.check(sys, self.n),
        }
    }
}

/// Problem size of a barrier benchmark on the grid: the median-to-large
/// points of its Figure 12–14 sweep, so no 16–64-thread run is trivially
/// short.
fn grid_n(b: BarrierBench) -> usize {
    match b {
        BarrierBench::Ll2 => 256,
        BarrierBench::Ll3 => 1024,
        BarrierBench::Ll6 => 128,
        BarrierBench::Dijkstra => 120,
    }
}

/// Problem size of a barrier benchmark in the `resilience` workload:
/// smaller than on the grid, since each configuration runs twice and
/// writes 36-/64-core snapshots; at least one element per thread.
fn resilience_n(b: BarrierBench) -> usize {
    match b {
        BarrierBench::Dijkstra => 80,
        _ => 64,
    }
}

/// Configurations the known SPL parity-replay defect makes fail their
/// oracle on some or all fault seeds (bench name, mode).
const KNOWN_DEFECT: [(CommBench, CommMode); 6] = [
    (CommBench::Adpcm, CommMode::CompComm2T),
    (CommBench::Cjpeg, CommMode::CompComm2T),
    (CommBench::Cjpeg, CommMode::Comp1T),
    (CommBench::Unepic, CommMode::Comm2T),
    (CommBench::Unepic, CommMode::CompComm2T),
    (CommBench::Wc, CommMode::Comm2T),
];

/// The protected fault plan of the `resilience` workload: every parity and
/// sequence-number protection on, every injection site at a fixed rate.
pub fn fault_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::quiet(seed);
    plan.spl_bitflip = SiteCfg::rate(2_000);
    plan.hwq_drop = SiteCfg::rate(2_000);
    plan.hwq_dup = SiteCfg::rate(1_000);
    plan.hwq_delay = SiteCfg::rate(4_000);
    plan.barrier_delay = SiteCfg::rate(20_000);
    plan.cache_corrupt = SiteCfg::rate(500);
    plan
}

/// A workload's configurations in canonical (seed-independent) order. The
/// seed only enters the `resilience` fault plan; run order is permuted
/// separately by [`permutation`].
pub fn configs(w: Workload, seed: u64) -> Vec<Config> {
    let mut v = Vec::new();
    match w {
        Workload::Region => {
            for b in CompBench::ALL {
                for m in CompMode::ALL {
                    v.push(Config::new(Kind::Comp(b, m), REGION_N));
                }
            }
            for b in CommBench::ALL {
                for m in CommMode::ALL {
                    v.push(Config::new(Kind::Comm(b, m), REGION_N));
                }
            }
        }
        Workload::Grid => {
            for b in BarrierBench::ALL {
                let mut modes = vec![
                    BarrierMode::Sw(16),
                    BarrierMode::Remap(16),
                    BarrierMode::HwIdeal(16),
                ];
                if b.supports_comp() {
                    modes.push(BarrierMode::RemapComp(16));
                }
                modes.extend([BarrierMode::Remap(36), BarrierMode::Remap(64)]);
                for m in modes {
                    v.push(Config::new(Kind::Barrier(b, m), grid_n(b)));
                }
            }
        }
        Workload::Resilience => {
            let mut kinds = Vec::new();
            for b in [
                CommBench::Hmmer,
                CommBench::Astar,
                CommBench::Adpcm,
                CommBench::Cjpeg,
            ] {
                for m in [CommMode::CompComm2T, CommMode::Comm2T] {
                    kinds.push(Kind::Comm(b, m));
                }
            }
            // The remaining configurations named by the known defect.
            for (b, m) in KNOWN_DEFECT {
                if !kinds
                    .iter()
                    .any(|k| matches!(*k, Kind::Comm(kb, km) if kb == b && km == m))
                {
                    kinds.push(Kind::Comm(b, m));
                }
            }
            for k in kinds {
                let mut c = Config::new(k, REGION_N);
                c.known_defect = matches!(k, Kind::Comm(b, m) if KNOWN_DEFECT.contains(&(b, m)));
                v.push(c);
            }
            for b in [BarrierBench::Ll6, BarrierBench::Dijkstra] {
                for m in [BarrierMode::Remap(36), BarrierMode::Remap(64)] {
                    v.push(Config::new(Kind::Barrier(b, m), resilience_n(b)));
                }
            }
            for c in &mut v {
                c.plan = Some(fault_plan(seed));
            }
        }
    }
    v
}

/// SplitMix64 step (the simulator's fault streams use the same mixer).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Seeded Fisher–Yates permutation of `0..len`: the run order of a pass.
pub fn permutation(len: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..len).collect();
    let mut state = seed;
    for i in (1..len).rev() {
        state = splitmix64(state);
        order.swap(i, (state % (i as u64 + 1)) as usize);
    }
    order
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn put(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Architectural digest of a finished system: cycles, committed
/// instructions, energy bits and every per-layer counter the ledger reads
/// (core, predictor, cache, bus, MLP, directory, SPL and fault). Skipped
/// cycles and host times are excluded, so skip-engine and host changes
/// keep it; any change to simulated behaviour moves it.
pub fn digest(sys: &System) -> u64 {
    let mut h = Fnv::new();
    h.put(sys.cycle());
    h.put(sys.total_committed());
    h.put(
        sys.energy(&remap_power::PowerModel::new())
            .total_pj()
            .to_bits(),
    );
    let hier = sys.hierarchy();
    for c in 0..sys.n_cores() {
        let s = sys.core_stats(c);
        for v in [
            s.cycles,
            s.committed,
            s.fetched,
            s.dispatched,
            s.issued,
            s.squashed,
            s.branches,
            s.mispredicts,
            s.rob_full_stalls,
            s.iq_full_stalls,
            s.spl_wait_cycles,
            s.hw_wait_cycles,
            s.fence_wait_cycles,
            s.regfile_reads,
            s.regfile_writes,
            s.spl_ops,
            s.busy_cycles,
        ]
        .into_iter()
        .chain(s.committed_by_class)
        {
            h.put(v);
        }
        let p = sys.pred_stats(c);
        for v in [
            p.lookups,
            p.dir_mispredicts,
            p.target_mispredicts,
            p.ras_ops,
        ] {
            h.put(v);
        }
        let (l1i, l1d, l2) = hier.cache_stats(c);
        for cs in [l1i, l1d, l2] {
            for v in [cs.hits, cs.misses, cs.writebacks, cs.invalidations] {
                h.put(v);
            }
        }
    }
    let bus = hier.bus_stats();
    for v in [
        bus.upgrades,
        bus.c2c_transfers,
        bus.dram_accesses,
        bus.snoops,
    ] {
        h.put(v);
    }
    let m = hier.mlp_stats();
    for v in [
        m.mshr_hits_under_miss,
        m.mshr_merges,
        m.prefetch_issued,
        m.prefetch_useful,
        m.prefetch_late,
        m.mc_queue_peak,
    ] {
        h.put(v);
    }
    let d = hier.dir_stats();
    for v in [
        d.lookups,
        d.probes_sent,
        d.probes_avoided,
        d.bank_conflicts,
        d.conflict_cycles,
        d.back_invalidations,
        d.max_sharers as u64,
        d.hop_cycles,
    ] {
        h.put(v);
    }
    for cl in 0..sys.n_clusters() {
        let s = sys.spl_stats(cl);
        for v in [
            s.compute_ops,
            s.barrier_ops,
            s.row_activations,
            s.stall_rows,
            s.stall_output_full,
            s.results_delivered,
        ] {
            h.put(v);
        }
    }
    let f = sys.fault_report();
    for site in [f.spl, f.hwq, f.barrier, f.cache] {
        for v in [site.injected, site.detected, site.recovered, site.silent] {
            h.put(v);
        }
    }
    h.put(f.hwq_retries);
    h.put(f.barrier_demotions);
    h.0
}

/// Digest of a whole workload: its per-configuration digests folded in
/// canonical order.
pub fn combine(digests: &[u64]) -> u64 {
    let mut h = Fnv::new();
    for &d in digests {
        h.put(d);
    }
    h.0
}

/// One recorded configuration: cycles and digest at [`DEFAULT_SEED`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recorded {
    /// Simulated cycles.
    pub cycles: u64,
    /// Architectural digest.
    pub digest: u64,
}

/// The recorded table of one workload, keyed by configuration label.
pub fn recorded(w: Workload) -> BTreeMap<String, Recorded> {
    RECORDED
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let f: Vec<&str> = l.split('\t').collect();
            if f.len() != 4 || f[0] != w.name() {
                return None;
            }
            let rec = Recorded {
                cycles: f[2].parse().ok()?,
                digest: u64::from_str_radix(f[3], 16).ok()?,
            };
            Some((f[1].to_string(), rec))
        })
        .collect()
}

/// Renders a workload's results in the recorded-table format.
pub fn render_recorded(w: Workload, cfgs: &[Config], results: &[ConfigResult]) -> String {
    let mut s = String::new();
    for (c, r) in cfgs.iter().zip(results) {
        s.push_str(&format!(
            "{}\t{}\t{}\t{:016x}\n",
            w.name(),
            c.label,
            r.cycles,
            r.digest
        ));
    }
    s
}

/// Why a configuration failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Human-readable cause.
    pub reason: String,
    /// Whether the failure is the documented known defect (an oracle
    /// mismatch on a [`Config::known_defect`] configuration).
    pub known: bool,
}

/// Outcome of one configuration in one pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigResult {
    /// Architectural digest of the (checkpointed) run.
    pub digest: u64,
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed: u64,
    /// Why it failed, if it did.
    pub failure: Option<Failure>,
}

/// Everything one pass measured.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Whether per-step tick/skip timing was on.
    pub traced: bool,
    /// Host seconds of the whole pass.
    pub wall_s: f64,
    /// Per-configuration results, in canonical order.
    pub results: Vec<ConfigResult>,
    /// Architectural and harness counters summed over the pass.
    pub counters: Counters,
    /// Per-step timing of the traced run loop (zero when untraced).
    pub steps: StepTimes,
    /// Seconds per layer, summed from the pass's spans: `(total, self)`.
    pub layers: BTreeMap<&'static str, (f64, f64)>,
    /// Host seconds per configuration, in canonical order.
    pub configs: Vec<ConfigTimes>,
}

/// Host seconds one configuration took in one pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ConfigTimes {
    /// The whole configuration.
    pub wall_s: f64,
    /// Building and verifying its systems.
    pub setup_s: f64,
    /// Inside `System::run*` (and the traced loop).
    pub sim_s: f64,
    /// Host speed around the configuration relative to the reference
    /// host: [`CAL_REF_S`] over the mean of the calibration units timed
    /// just before and just after it.
    pub speed: f64,
}

impl Pass {
    /// Total seconds of one layer's spans.
    pub fn layer_s(&self, name: &str) -> f64 {
        self.layers.get(name).map_or(0.0, |l| l.0)
    }

    /// Host seconds spent inside `System::run*` (and the traced loop).
    pub fn simulate_s(&self) -> f64 {
        self.layer_s("simulate") + self.layer_s("ckpt_run")
    }

    /// Failed configurations.
    pub fn failed(&self) -> usize {
        self.results.iter().filter(|r| r.failure.is_some()).count()
    }
}

/// Runs configurations and accounts for them.
pub struct Runner<'a> {
    /// The workload being run.
    pub workload: Workload,
    /// Its configurations, canonical order.
    pub cfgs: &'a [Config],
    /// Recorded cycles and digests (empty when recording).
    pub expect: &'a BTreeMap<String, Recorded>,
    /// Whether recorded digests apply to this run's seed.
    pub check_digests: bool,
    /// Run order: a permutation of `0..cfgs.len()`.
    pub order: &'a [usize],
    /// Directory for checkpoint and snapshot files.
    pub dir: &'a Path,
    /// Host-speed probe timed between configurations.
    pub cal: Calibrator,
}

impl Runner<'_> {
    /// Runs one pass: every configuration once, in run order.
    pub fn pass(&mut self, tracer: &mut Tracer, traced: bool) -> Pass {
        let first_span = tracer.spans().len();
        let start = Instant::now();
        let root = tracer.enter("pass", None);
        let mut pass = Pass {
            traced,
            results: vec![
                ConfigResult {
                    digest: 0,
                    cycles: 0,
                    committed: 0,
                    failure: None,
                };
                self.cfgs.len()
            ],
            ..Pass::default()
        };
        let mut unit_s = vec![0.0; self.cfgs.len()];
        let mut before = self.cal.unit();
        for &i in self.order {
            let span = tracer.enter("config", Some(i));
            let r = self.config(i, tracer, &mut pass, traced);
            tracer.exit(span);
            pass.results[i] = r;
            let after = self.cal.unit();
            unit_s[i] = (before + after) / 2.0;
            before = after;
        }
        tracer.exit(root);
        pass.wall_s = start.elapsed().as_secs_f64();
        pass.layers = ledger::layer_seconds(tracer.spans(), first_span);
        pass.configs = unit_s
            .iter()
            .map(|u| ConfigTimes {
                speed: CAL_REF_S / u,
                ..ConfigTimes::default()
            })
            .collect();
        for sp in &tracer.spans()[first_span..] {
            let Some(c) = sp.config else { continue };
            let t = &mut pass.configs[c];
            let d = sp.end_s - sp.start_s;
            match sp.name {
                "config" => t.wall_s += d,
                "build" | "verify" => t.setup_s += d,
                "simulate" | "ckpt_run" => t.sim_s += d,
                _ => {}
            }
        }
        pass
    }

    fn config(&self, i: usize, tracer: &mut Tracer, pass: &mut Pass, traced: bool) -> ConfigResult {
        let cfg = &self.cfgs[i];
        let expect = self.expect.get(&cfg.label);
        let sys = self.setup(i, tracer, &mut pass.counters);
        let mut r = match self.workload {
            Workload::Resilience => self.checkpointed(i, sys, expect, tracer, pass, traced),
            _ => self.plain(i, sys, tracer, pass, traced),
        };
        if r.failure.as_ref().is_none_or(|f| f.known) && self.check_digests {
            match expect {
                None => {
                    r.failure = Some(Failure {
                        reason: "no recorded digest".into(),
                        known: false,
                    })
                }
                Some(e) if e.digest != r.digest => {
                    r.failure = Some(Failure {
                        reason: format!(
                            "digest {:016x} differs from recorded {:016x}",
                            r.digest, e.digest
                        ),
                        known: false,
                    })
                }
                Some(_) => {}
            }
        }
        r
    }

    /// Builds and statically verifies one system.
    fn setup(&self, i: usize, tracer: &mut Tracer, counters: &mut Counters) -> System {
        let s = tracer.enter("build", Some(i));
        let sys = self.cfgs[i].build();
        tracer.exit(s);
        let s = tracer.enter("verify", Some(i));
        let diags = sys.verify();
        tracer.exit(s);
        counters.verify_errors += diags
            .iter()
            .filter(|d| d.severity == remap_verify::Severity::Error)
            .count() as u64;
        sys
    }

    /// Runs a system to completion, with per-step timing when traced.
    fn simulate(
        &self,
        i: usize,
        sys: &mut System,
        tracer: &mut Tracer,
        steps: &mut StepTimes,
        traced: bool,
    ) -> Result<(), String> {
        let s = tracer.enter("simulate", Some(i));
        let r = if traced {
            traced_run(sys, MAX_CYCLES, steps)
        } else {
            sys.run(MAX_CYCLES).map(|_| ()).map_err(|e| e.to_string())
        };
        tracer.exit(s);
        r
    }

    /// Validates a finished system and digests it.
    fn finish(
        &self,
        i: usize,
        sys: &System,
        tracer: &mut Tracer,
        run: Result<(), String>,
    ) -> ConfigResult {
        let cfg = &self.cfgs[i];
        let s = tracer.enter("check", Some(i));
        let failure = match run {
            Err(e) => Some(Failure {
                reason: format!("run error: {e}"),
                known: false,
            }),
            Ok(()) => cfg.check(sys).err().map(|e| Failure {
                reason: format!("oracle: {e}"),
                known: cfg.known_defect,
            }),
        };
        let digest = digest(sys);
        tracer.exit(s);
        ConfigResult {
            digest,
            cycles: sys.cycle(),
            committed: sys.total_committed(),
            failure,
        }
    }

    fn plain(
        &self,
        i: usize,
        mut sys: System,
        tracer: &mut Tracer,
        pass: &mut Pass,
        traced: bool,
    ) -> ConfigResult {
        let run = self.simulate(i, &mut sys, tracer, &mut pass.steps, traced);
        pass.counters
            .add_run(Progress::default(), Progress::of(&sys));
        pass.counters.add_system(&sys);
        self.finish(i, &sys, tracer, run)
    }

    /// The `resilience` protocol: a checkpointed run, then a cut at mid-run
    /// through the snapshot file path into a fresh system, continued to the
    /// end. Both runs must reach the same digest.
    fn checkpointed(
        &self,
        i: usize,
        mut sys: System,
        expect: Option<&Recorded>,
        tracer: &mut Tracer,
        pass: &mut Pass,
        traced: bool,
    ) -> ConfigResult {
        let ckpt = self.dir.join("ckpt.snap");
        let cut_file = self.dir.join("cut.snap");
        // The interval is a host-side setting only (checkpointing never
        // perturbs the run), so the recorded cycle count sets it for every
        // seed.
        let every = expect
            .map_or(1_000_000, |e| e.cycles / (CHECKPOINTS_PER_CONFIG + 1))
            .max(1);
        let s = tracer.enter("ckpt_run", Some(i));
        let run = sys
            .run_with_checkpoints(MAX_CYCLES, every, &ckpt)
            .map(|_| ())
            .map_err(|e| e.to_string());
        tracer.exit(s);
        pass.counters
            .add_run(Progress::default(), Progress::of(&sys));
        pass.counters.add_system(&sys);
        let mut r = self.finish(i, &sys, tracer, run);
        pass.counters.checkpoints += r.cycles / every;
        remove_snapshots(&ckpt);
        drop(sys);
        if r.failure.as_ref().is_some_and(|f| !f.known) {
            return r;
        }

        // One system, snapshot or image alive at a time (besides the
        // snapshot being restored), so peak memory does not depend on the
        // run order.
        let mut donor = self.setup(i, tracer, &mut pass.counters);
        let cut = (r.cycles / 2).max(1);
        let s = tracer.enter("simulate", Some(i));
        donor.run_until(cut);
        tracer.exit(s);
        pass.counters
            .add_run(Progress::default(), Progress::of(&donor));
        let s = tracer.enter("snapshot", Some(i));
        let snap = donor.snapshot();
        tracer.exit(s);
        drop(donor);
        pass.counters.snap_bytes += snap.as_bytes().len() as u64;
        let s = tracer.enter("write", Some(i));
        let written = snap.write_to(&cut_file).map_err(|e| e.to_string());
        tracer.exit(s);
        drop(snap);
        let s = tracer.enter("read", Some(i));
        let read = written
            .and_then(|()| Snapshot::read_with_fallback(&cut_file).map_err(|e| e.to_string()));
        tracer.exit(s);
        remove_snapshots(&cut_file);
        let mut fresh = self.setup(i, tracer, &mut pass.counters);
        let restored = read.and_then(|snap| {
            let s = tracer.enter("restore", Some(i));
            let r = fresh.restore(&snap).map_err(|e| e.to_string());
            tracer.exit(s);
            r
        });
        let before = Progress::of(&fresh);
        let resumed = match restored {
            Ok(()) => {
                let run = self.simulate(i, &mut fresh, tracer, &mut pass.steps, traced);
                pass.counters.add_run(before, Progress::of(&fresh));
                self.finish(i, &fresh, tracer, run)
            }
            Err(e) => ConfigResult {
                digest: 0,
                cycles: 0,
                committed: 0,
                failure: Some(Failure {
                    reason: format!("cut at {cut}: {e}"),
                    known: false,
                }),
            },
        };
        if resumed.digest != r.digest {
            r.failure = Some(Failure {
                reason: format!(
                    "resumed digest {:016x} differs from checkpointed {:016x}{}",
                    resumed.digest,
                    r.digest,
                    resumed
                        .failure
                        .map(|f| format!(" ({})", f.reason))
                        .unwrap_or_default()
                ),
                known: false,
            });
        }
        r
    }
}

/// Removes a snapshot file and the siblings `write_to` leaves beside it.
fn remove_snapshots(path: &Path) {
    for suffix in ["", ".prev", ".tmp"] {
        let mut p = path.as_os_str().to_os_string();
        p.push(suffix);
        let _ = std::fs::remove_file(PathBuf::from(p));
    }
}

/// `System::run` driven from outside through `System::step_or_skip`, timing
/// every call as a tick (advanced one cycle) or a skip (bulk-advanced
/// first). It reproduces `run`'s cycles and architectural state, but probes
/// for quiescence on every call rather than after commit-less steps with a
/// backoff, so it skips more cycles.
///
/// # Errors
///
/// Timeout at `max_cycles`, or a deadlock when nothing commits for the
/// `System::run` stall window.
pub fn traced_run(sys: &mut System, max_cycles: u64, steps: &mut StepTimes) -> Result<(), String> {
    let mut last_committed = sys.total_committed();
    let mut last_progress = sys.cycle();
    while !sys.all_halted() {
        let c0 = sys.cycle();
        if c0 >= max_cycles {
            return Err(format!("timeout at cycle {c0}"));
        }
        let t = Instant::now();
        sys.step_or_skip(max_cycles);
        let dt = t.elapsed().as_secs_f64();
        let advanced = sys.cycle() - c0;
        if advanced > 1 {
            steps.skip_s += dt;
            steps.skip_calls += 1;
            steps.skipped_cycles += advanced - 1;
        } else {
            steps.tick_s += dt;
            steps.tick_calls += 1;
        }
        if sys.total_committed() != last_committed {
            last_committed = sys.total_committed();
            last_progress = sys.cycle();
        } else if sys.cycle() - last_progress > STALL_WINDOW {
            return Err(format!("deadlock at cycle {}", sys.cycle()));
        }
    }
    Ok(())
}

/// Host seconds of a run, `(setup, wall, simulate)`: for each
/// configuration its median over the passes, summed over configurations. A
/// burst of host contention slows one configuration in one pass, and the
/// per-configuration median drops it. With `normalized`, each sample is
/// first scaled by the host speed measured around it ([`ConfigTimes::speed`]).
pub fn run_seconds(passes: &[Pass], normalized: bool) -> (f64, f64, f64) {
    let n = passes.first().map_or(0, |p| p.configs.len());
    let sum_of_medians = |f: fn(&ConfigTimes) -> f64| -> f64 {
        (0..n)
            .map(|i| {
                let samples: Vec<f64> = passes
                    .iter()
                    .map(|p| {
                        let t = &p.configs[i];
                        f(t) * if normalized { t.speed } else { 1.0 }
                    })
                    .collect();
                median(&samples)
            })
            .sum()
    };
    (
        sum_of_medians(|t| t.setup_s),
        sum_of_medians(|t| t.wall_s),
        sum_of_medians(|t| t.sim_s),
    )
}

/// The end-to-end metrics of an untraced run: speed-normalized host times
/// ([`run_seconds`]) and the process's peak resident memory.
pub fn end_to_end(passes: &[Pass]) -> Vec<Metric> {
    let (setup_s, wall_s, sim_s) = run_seconds(passes, true);
    let c = passes.first().map(|p| p.counters).unwrap_or_default();
    vec![
        ("setup_s", setup_s, "s"),
        ("wall_s", wall_s, "s"),
        (
            "sim_kcps",
            ledger::ratio(c.sim_cycles as f64 / 1e3, sim_s),
            "kcycles/s",
        ),
        (
            "sim_kips",
            ledger::ratio(c.sim_committed as f64 / 1e3, sim_s),
            "kinstr/s",
        ),
        ("peak_rss_mb", ledger::peak_rss_mb().unwrap_or(0.0), "MiB"),
    ]
}

/// The per-layer metrics of a traced run, whose passes alternate untraced
/// and traced: host times are medians over the traced passes, and the
/// counters (identical in every pass except the traced loop's skip count)
/// come from the last traced pass.
///
/// # Panics
///
/// If `passes` lacks an untraced or a traced pass.
pub fn traced_metrics(passes: &[Pass]) -> Vec<Metric> {
    let (traced, untraced): (Vec<&Pass>, Vec<&Pass>) = passes.iter().partition(|p| p.traced);
    let med = |ps: &[&Pass], f: &dyn Fn(&Pass) -> f64| {
        median(&ps.iter().map(|p| f(p)).collect::<Vec<_>>())
    };
    let t = |name: &'static str| med(&traced, &|p| p.layer_s(name));
    let times = LayerTimes {
        build_s: t("build"),
        verify_s: t("verify"),
        simulate_s: med(&traced, &|p| p.simulate_s()),
        check_s: t("check"),
        ckpt_run_s: t("ckpt_run"),
        snapshot_s: t("snapshot"),
        write_s: t("write"),
        read_s: t("read"),
        restore_s: t("restore"),
    };
    let last = traced.last().expect("a traced run has a traced pass");
    let mut steps = last.steps;
    steps.tick_s = med(&traced, &|p| p.steps.tick_s);
    steps.skip_s = med(&traced, &|p| p.steps.skip_s);
    let overhead = med(&traced, &|p| p.wall_s) - med(&untraced, &|p| p.wall_s);
    ledger::per_layer(
        &last.counters,
        &times,
        &steps,
        untraced[0].counters.sim_skipped,
        overhead,
    )
}
