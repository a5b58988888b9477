//! Tier-1 gate for the quiescence skip engine: every workload configuration
//! must produce a bit-identical run whether idle stretches are bulk-skipped
//! (the default) or simulated cycle by cycle (`REMAP_NO_SKIP`).
//!
//! "Bit-identical" covers everything a run can report: total cycles, every
//! per-core statistic (including per-cycle stall counters, which the skip
//! engine replicates arithmetically), branch-predictor counters, all three
//! cache levels per core, the coherence-bus counters, and per-cluster SPL
//! fabric statistics.

use remap_suite::system::System;
use remap_suite::workloads::barriers::{BarrierBench, BarrierMode};
use remap_suite::workloads::comm::CommBench;
use remap_suite::workloads::comp::CompBench;
use remap_suite::workloads::{CommMode, CompMode};

const MAX_CYCLES: u64 = 50_000_000;

const COMP_MODES: [CompMode; 3] = [CompMode::SeqOoo1, CompMode::SeqOoo2, CompMode::Spl];
const COMM_MODES: [CommMode; 7] = [
    CommMode::SeqOoo1,
    CommMode::SeqOoo2,
    CommMode::Comp1T,
    CommMode::Comm2T,
    CommMode::CompComm2T,
    CommMode::Ooo2Comm,
    CommMode::SwQueue2T,
];

fn barrier_modes(b: BarrierBench) -> Vec<BarrierMode> {
    let mut m = vec![
        BarrierMode::Seq,
        BarrierMode::Sw(4),
        BarrierMode::Remap(4),
        BarrierMode::HwIdeal(4),
    ];
    if b.supports_comp() {
        m.push(BarrierMode::RemapComp(4));
    }
    m
}

/// Runs `skipped` (skip engine on) and `ticked` (skip engine off) to
/// completion and asserts every observable statistic matches. Returns the
/// skipped run's report.
fn assert_parity(
    label: &str,
    mut skipped: System,
    mut ticked: System,
) -> remap_suite::system::RunReport {
    skipped.set_skip(true);
    ticked.set_skip(false);
    let rs = skipped
        .run(MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{label} (skip on) failed: {e:?}"));
    let rt = ticked
        .run(MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{label} (skip off) failed: {e:?}"));
    assert_eq!(rt.skipped_cycles, 0, "{label}: ticked run must not skip");
    assert_eq!(rs.cycles, rt.cycles, "{label}: cycle count diverged");
    for c in 0..skipped.n_cores() {
        assert_eq!(
            rs.core_stats[c], rt.core_stats[c],
            "{label}: core {c} stats diverged"
        );
        assert_eq!(
            skipped.pred_stats(c),
            ticked.pred_stats(c),
            "{label}: core {c} predictor stats diverged"
        );
        assert_eq!(
            skipped.hierarchy().cache_stats(c),
            ticked.hierarchy().cache_stats(c),
            "{label}: core {c} cache stats diverged"
        );
    }
    assert_eq!(
        skipped.hierarchy().bus_stats(),
        ticked.hierarchy().bus_stats(),
        "{label}: coherence-bus stats diverged"
    );
    assert_eq!(skipped.n_clusters(), ticked.n_clusters(), "{label}");
    for cl in 0..skipped.n_clusters() {
        assert_eq!(
            skipped.spl_stats(cl),
            ticked.spl_stats(cl),
            "{label}: cluster {cl} SPL stats diverged"
        );
    }
    assert_eq!(
        rs.faults, rt.faults,
        "{label}: fault counters diverged (zeros when no plan is set)"
    );
    assert_eq!(
        rs.mlp, rt.mlp,
        "{label}: MSHR/prefetch/memory-controller counters diverged"
    );
    assert_eq!(rs.dir, rt.dir, "{label}: directory counters diverged");
    rs
}

#[test]
fn computation_workloads_skip_parity() {
    for b in CompBench::ALL {
        for m in COMP_MODES {
            let label = format!("{} {m:?}", b.name());
            assert_parity(&label, b.build(m, 64), b.build(m, 64));
        }
    }
}

#[test]
fn communication_workloads_skip_parity() {
    for b in CommBench::ALL {
        for m in COMM_MODES {
            let label = format!("{} {m:?}", b.name());
            assert_parity(&label, b.build(m, 64), b.build(m, 64));
        }
    }
}

#[test]
fn barrier_workloads_skip_parity_and_actually_skip() {
    let mut total_skipped = 0;
    for b in BarrierBench::ALL {
        let n = match b {
            BarrierBench::Dijkstra => 20,
            _ => 32,
        };
        for m in barrier_modes(b) {
            let label = format!("{b:?} {m:?}");
            total_skipped += assert_parity(&label, b.build(m, n), b.build(m, n)).skipped_cycles;
        }
    }
    // Barrier workloads spend most of their time spinning at rendezvous
    // points; if the engine never skips there the tentpole is vacuous.
    assert!(
        total_skipped > 0,
        "skip engine bulk-advanced zero cycles across all barrier workloads"
    );
}

/// Chaos grid: the same parity contract with a [`FaultPlan`] installed.
/// Fault decisions are event-indexed, not cycle-indexed, so the same seed
/// must produce the same injections, the same recovery costs, and the same
/// counters whether idle stretches are bulk-skipped or ticked through —
/// retry back-off windows and delayed barrier releases are exactly the
/// wake points the skip engine must not jump over.
///
/// [`FaultPlan`]: remap_suite::fault::FaultPlan
#[test]
fn faulted_workloads_skip_parity() {
    use remap_suite::fault::{FaultPlan, SiteCfg};

    let mut plan = FaultPlan::quiet(0xFA_17);
    plan.spl_bitflip = SiteCfg::rate(50_000);
    plan.hwq_drop = SiteCfg::rate(50_000);
    plan.hwq_dup = SiteCfg::rate(25_000);
    plan.hwq_delay = SiteCfg::rate(25_000);
    plan.barrier_delay = SiteCfg::rate(100_000);
    plan.cache_corrupt = SiteCfg::rate(50_000);

    let faulted = |mut sys: System| {
        sys.set_fault_plan(&plan);
        sys
    };
    let mut total_injected = 0;
    let mut grid: Vec<(String, System, System)> = Vec::new();
    for b in [CompBench::ALL[0], CompBench::ALL[3]] {
        grid.push((
            format!("{} Spl faulted", b.name()),
            faulted(b.build(CompMode::Spl, 64)),
            faulted(b.build(CompMode::Spl, 64)),
        ));
    }
    for (b, m) in [
        (CommBench::ALL[0], CommMode::CompComm2T),
        (CommBench::ALL[2], CommMode::Ooo2Comm),
    ] {
        grid.push((
            format!("{} {m:?} faulted", b.name()),
            faulted(b.build(m, 64)),
            faulted(b.build(m, 64)),
        ));
    }
    for b in [BarrierBench::Ll2, BarrierBench::Dijkstra] {
        let n = match b {
            BarrierBench::Dijkstra => 20,
            _ => 32,
        };
        grid.push((
            format!("{b:?} Remap(4) faulted"),
            faulted(b.build(BarrierMode::Remap(4), n)),
            faulted(b.build(BarrierMode::Remap(4), n)),
        ));
    }
    for (label, skipped, ticked) in grid {
        let rs = assert_parity(&label, skipped, ticked);
        total_injected += rs.faults.total_injected();
    }
    assert!(
        total_injected > 0,
        "chaos grid injected zero faults; the faulted parity check is vacuous"
    );
}

/// Multi-cluster systems stagger barrier releases across clusters (local
/// release immediately, remote after the bus latency), which exercises
/// wake-point math the four-thread grid cannot: a pending release scheduled
/// for a *future* SPL edge must not be skipped over.
#[test]
fn multi_cluster_barrier_skip_parity() {
    for b in BarrierBench::ALL {
        let n = match b {
            BarrierBench::Dijkstra => 40,
            _ => 64,
        };
        for m in [
            BarrierMode::Remap(8),
            BarrierMode::Remap(16),
            BarrierMode::HwIdeal(16),
        ] {
            let label = format!("{b:?} {m:?}");
            assert_parity(&label, b.build(m, n), b.build(m, n));
        }
    }
}

/// Grid scale-out parity: 36- and 64-core meshes route full misses through
/// the banked directory (bank-port wake points published via
/// `quiescent_wake`) and stagger barrier releases by Manhattan hops. The
/// contract is unchanged: skipping is bit-identical to ticking, and the
/// directory must actually be filtering (non-vacuous counters).
#[test]
fn grid_skip_parity_16_36_64_cores() {
    let mut total_avoided = 0;
    for b in [BarrierBench::Ll3, BarrierBench::Dijkstra] {
        let n = match b {
            BarrierBench::Dijkstra => 40,
            _ => 64,
        };
        for p in [16, 36, 64] {
            let m = BarrierMode::Remap(p);
            let label = format!("{b:?} {m:?}");
            let rs = assert_parity(&label, b.build(m, n), b.build(m, n));
            total_avoided += rs.dir.probes_avoided;
        }
    }
    assert!(
        total_avoided > 0,
        "directory avoided zero probes across all grid runs; the filter is vacuous"
    );
}

/// The directory is timing-plus-routing only, so a dir-off (broadcast
/// reference) grid run must satisfy the same skip/tick parity — including
/// under fault injection, where wake points interact with event-indexed
/// fault draws.
#[test]
fn grid_skip_parity_broadcast_reference() {
    use remap_suite::fault::{FaultPlan, SiteCfg};

    let no_dir = |mut sys: System| {
        sys.set_dir(false);
        sys
    };
    let b = BarrierBench::Ll3;
    for p in [16, 36] {
        let m = BarrierMode::Remap(p);
        let label = format!("{b:?} {m:?} no-dir");
        let rs = assert_parity(&label, no_dir(b.build(m, 64)), no_dir(b.build(m, 64)));
        assert_eq!(rs.dir, Default::default(), "{label}: dir counters not zero");
    }
    let mut plan = FaultPlan::quiet(0xFA_17);
    plan.cache_corrupt = SiteCfg::rate(25_000);
    plan.barrier_delay = SiteCfg::rate(100_000);
    let faulted = |mut sys: System| {
        sys.set_fault_plan(&plan);
        sys
    };
    let m = BarrierMode::Remap(36);
    let label = "Ll3 Remap(36) faulted";
    let rs = assert_parity(label, faulted(b.build(m, 64)), faulted(b.build(m, 64)));
    assert!(
        rs.faults.total_injected() > 0,
        "faulted 36-core grid run injected nothing; the check is vacuous"
    );
}

/// Cycles between the digest cuts of [`assert_periodic_parity`]: a prime,
/// so the cuts drift across SPL edges and barrier phases.
const CUT_EVERY: u64 = 997;

/// Advances a skip-on and a skip-off copy of one configuration with
/// `run_until` in steps of [`CUT_EVERY`] cycles and, at every cut, compares
/// the state digest of every part except `skip` (the skip engine's own
/// bookkeeping). A failure names the first cut where the two differ and
/// the parts that differ, instead of a final statistic.
fn assert_periodic_parity(label: &str, mut skipped: System, mut ticked: System) {
    skipped.set_skip(true);
    ticked.set_skip(false);
    let mut cut = 0;
    loop {
        cut += CUT_EVERY;
        assert!(cut <= MAX_CYCLES, "{label}: no halt by cycle {cut}");
        let running = skipped.run_until(cut);
        assert_eq!(
            running,
            ticked.run_until(cut),
            "{label}: halt diverged by {cut}"
        );
        let (ds, dt) = (skipped.state_digest(), ticked.state_digest());
        assert_eq!(ds.len(), dt.len(), "{label}: state digest geometry");
        let diff: Vec<&str> = ds
            .iter()
            .zip(&dt)
            .filter(|(s, t)| s != t && s.0 != "skip")
            .map(|(s, _)| s.0.as_str())
            .collect();
        assert!(
            diff.is_empty(),
            "{label}: first divergence by cycle {cut}, in {diff:?}"
        );
        if !running {
            return;
        }
    }
}

/// [`assert_periodic_parity`] over the canonical matrix: the cores' derived
/// walk state and the barrier bus's bookkeeping must match the ticked run
/// at every cut, not only in the final report.
#[test]
fn canonical_workloads_periodic_digest_parity() {
    use remap_suite::workloads::catalog;
    let skipped = catalog::canonical();
    for ((label, s), (_, t)) in skipped.into_iter().zip(catalog::canonical()) {
        assert_periodic_parity(&label, s, t);
    }
}

/// [`assert_periodic_parity`] on 16/36/64-core grids, where the barrier
/// bus carries cross-cluster arrivals across bulk skips.
#[test]
fn grid_workloads_periodic_digest_parity() {
    for (b, p, n) in [
        (BarrierBench::Dijkstra, 64, 80),
        (BarrierBench::Ll6, 36, 64),
        (BarrierBench::Ll3, 16, 64),
    ] {
        let m = BarrierMode::Remap(p);
        assert_periodic_parity(&format!("{b:?} {m:?} n={n}"), b.build(m, n), b.build(m, n));
    }
}
