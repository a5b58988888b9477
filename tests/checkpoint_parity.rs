//! Tier-1 gate for deterministic checkpoint/restore: running a workload
//! to an arbitrary cycle, snapshotting, restoring into a FRESH system of
//! identical configuration, and continuing must be bit-identical to the
//! uninterrupted run — across the canonical configuration matrix, under
//! fault injection, and on the 16/36/64-core grids with the directory on
//! and off.
//!
//! Cut points land wherever the cycle fraction falls: `run_until` clamps
//! bulk skips at the target, so on barrier workloads the snapshot is
//! routinely taken *inside* a quiescence window, and on busy workloads
//! outside one — both must restore exactly.
//!
//! "Bit-identical" covers everything a run can report except
//! `skipped_cycles` (a resumed run re-plans its bulk skips from the
//! restore point, so skip *accounting* legitimately differs while every
//! architectural statistic must not) and `wall_seconds` (host timing).
//! Beyond the reports, per-component state digests must match: on every
//! component between a restored system and its donor right after the
//! restore, and on every component but the skip bookkeeping between the
//! uninterrupted and the resumed run at completion. Restoring into a
//! system that has already run past the cut (a rewind) must meet the same
//! contract.

use remap_suite::system::{RunError, RunReport, Snapshot, System};
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

/// Asserts every architectural observable of two completed runs matches.
fn assert_same_observables(label: &str, a: &System, ra: &RunReport, b: &System, rb: &RunReport) {
    assert_eq!(ra.cycles, rb.cycles, "{label}: cycle count diverged");
    for c in 0..a.n_cores() {
        assert_eq!(
            ra.core_stats[c], rb.core_stats[c],
            "{label}: core {c} stats diverged"
        );
        assert_eq!(
            a.pred_stats(c),
            b.pred_stats(c),
            "{label}: core {c} predictor stats diverged"
        );
        assert_eq!(
            a.hierarchy().cache_stats(c),
            b.hierarchy().cache_stats(c),
            "{label}: core {c} cache stats diverged"
        );
    }
    assert_eq!(
        a.hierarchy().bus_stats(),
        b.hierarchy().bus_stats(),
        "{label}: coherence-bus stats diverged"
    );
    for cl in 0..a.n_clusters() {
        assert_eq!(
            a.spl_stats(cl),
            b.spl_stats(cl),
            "{label}: cluster {cl} SPL stats diverged"
        );
    }
    assert_eq!(ra.faults, rb.faults, "{label}: fault counters diverged");
    assert_eq!(ra.mlp, rb.mlp, "{label}: MLP counters diverged");
    assert_eq!(ra.dir, rb.dir, "{label}: directory counters diverged");
}

/// Asserts two state digests agree on every component except `skip` (when
/// `skip_may_differ`); a mismatch names the diverging components.
fn assert_same_digest(
    label: &str,
    a: &[(String, u64)],
    b: &[(String, u64)],
    skip_may_differ: bool,
) {
    assert_eq!(a.len(), b.len(), "{label}: state digest geometry");
    let diff: Vec<&str> = a
        .iter()
        .zip(b)
        .filter(|(x, y)| x != y && !(skip_may_differ && x.0 == "skip"))
        .map(|(x, _)| x.0.as_str())
        .collect();
    assert!(
        diff.is_empty(),
        "{label}: state digest diverged in {diff:?}"
    );
}

/// The checkpoint contract for one configuration. `reference` runs
/// uninterrupted; `donor` runs to each cut cycle and is snapshotted; each
/// snapshot restores into one of the `fresh` (never-run) systems, which
/// then continues to completion. Finally the donor itself continues —
/// snapshotting must not perturb it. Returns the total `skipped_cycles`
/// of the resumed runs (for vacuity checks at the call sites).
fn assert_checkpoint_parity(
    label: &str,
    mut reference: System,
    mut donor: System,
    fresh: Vec<System>,
) -> u64 {
    let rr = reference
        .run(MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{label} (reference) failed: {e:?}"));
    let final_digest = reference.state_digest();
    let slices = fresh.len() as u64 + 1;
    let mut resumed_skipped = 0;
    for (k, mut f) in fresh.into_iter().enumerate() {
        let cut = (rr.cycles * (k as u64 + 1) / slices).max(1);
        assert!(
            donor.run_until(cut),
            "{label}: donor halted before cut cycle {cut}"
        );
        assert_eq!(
            donor.cycle(),
            cut,
            "{label}: run_until must clamp bulk skips exactly at the cut"
        );
        let snap = donor.snapshot();
        f.restore(&snap)
            .unwrap_or_else(|e| panic!("{label}: restore at cycle {cut} refused: {e}"));
        let at_cut = format!("{label} restored@{cut}");
        assert_same_digest(&at_cut, &donor.state_digest(), &f.state_digest(), false);
        let rf = f
            .run(MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{label} (resumed from {cut}) failed: {e:?}"));
        resumed_skipped += rf.skipped_cycles;
        let resumed = format!("{label} cut@{cut}");
        assert_same_observables(&resumed, &reference, &rr, &f, &rf);
        assert_same_digest(&resumed, &final_digest, &f.state_digest(), true);
    }
    let rd = donor
        .run(MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{label} (donor continue) failed: {e:?}"));
    let continued = format!("{label} donor");
    assert_same_observables(&continued, &reference, &rr, &donor, &rd);
    assert_same_digest(&continued, &final_digest, &donor.state_digest(), true);
    resumed_skipped
}

#[test]
fn computation_workloads_checkpoint_parity() {
    for b in CompBench::ALL {
        for m in COMP_MODES {
            let label = format!("{} {m:?}", b.name());
            let build = || b.build(m, 64);
            assert_checkpoint_parity(&label, build(), build(), vec![build(), build()]);
        }
    }
}

#[test]
fn communication_workloads_checkpoint_parity() {
    for b in CommBench::ALL {
        for m in COMM_MODES {
            let label = format!("{} {m:?}", b.name());
            let build = || b.build(m, 64);
            assert_checkpoint_parity(&label, build(), build(), vec![build(), build()]);
        }
    }
}

#[test]
fn barrier_workloads_checkpoint_parity_including_mid_skip_cuts() {
    let mut resumed_skipped = 0;
    for b in BarrierBench::ALL {
        let n = match b {
            BarrierBench::Dijkstra => 20,
            _ => 32,
        };
        for m in barrier_modes(b) {
            let label = format!("{b:?} {m:?}");
            let build = || b.build(m, n);
            resumed_skipped +=
                assert_checkpoint_parity(&label, build(), build(), vec![build(), build()]);
        }
    }
    // Barrier workloads spend most of their time quiescent; resumed runs
    // must keep bulk-skipping, or the mid-skip claim is vacuous.
    assert!(
        resumed_skipped > 0,
        "resumed barrier runs bulk-advanced zero cycles"
    );
}

/// Restoring must rebuild the event-indexed fault streams exactly: the
/// resumed half of the run draws the same injections the uninterrupted
/// run does, and the restored counters carry the pre-cut half.
#[test]
fn faulted_workloads_checkpoint_parity() {
    use remap_suite::fault::{FaultPlan, SiteCfg};

    let mut plan = FaultPlan::quiet(0xFA_17);
    plan.spl_bitflip = SiteCfg::rate(50_000);
    plan.hwq_drop = SiteCfg::rate(50_000);
    plan.hwq_dup = SiteCfg::rate(25_000);
    plan.hwq_delay = SiteCfg::rate(25_000);
    plan.barrier_delay = SiteCfg::rate(100_000);
    plan.cache_corrupt = SiteCfg::rate(50_000);

    let mut total_injected = 0;
    let mut run = |label: String, build: &dyn Fn() -> System| {
        let faulted = || {
            let mut sys = build();
            sys.set_fault_plan(&plan);
            sys
        };
        let mut reference = faulted();
        let rr = reference
            .run(MAX_CYCLES)
            .unwrap_or_else(|e| panic!("{label} failed: {e:?}"));
        total_injected += rr.faults.total_injected();
        assert_checkpoint_parity(&label, faulted(), faulted(), vec![faulted(), faulted()]);
    };
    for b in [CompBench::ALL[0], CompBench::ALL[3]] {
        run(format!("{} Spl faulted", b.name()), &|| {
            b.build(CompMode::Spl, 64)
        });
    }
    for (b, m) in [
        (CommBench::ALL[0], CommMode::CompComm2T),
        (CommBench::ALL[2], CommMode::Ooo2Comm),
    ] {
        run(format!("{} {m:?} faulted", b.name()), &|| b.build(m, 64));
    }
    for b in [BarrierBench::Ll2, BarrierBench::Dijkstra] {
        let n = match b {
            BarrierBench::Dijkstra => 20,
            _ => 32,
        };
        run(format!("{b:?} Remap(4) faulted"), &|| {
            b.build(BarrierMode::Remap(4), n)
        });
    }
    assert!(
        total_injected > 0,
        "faulted checkpoint grid injected zero faults; the check is vacuous"
    );
}

/// Grid scale-out: snapshots must carry the banked sharer directory,
/// per-bank busy windows, and staggered cross-cluster releases of the
/// 16/36/64-core meshes — with the directory on and (broadcast
/// reference) off.
#[test]
fn grid_checkpoint_parity_16_36_64_cores() {
    let b = BarrierBench::Ll3;
    for p in [16, 36, 64] {
        let m = BarrierMode::Remap(p);
        let build = || b.build(m, 64);
        assert_checkpoint_parity(&format!("{b:?} {m:?}"), build(), build(), vec![build()]);
    }
    for p in [16, 36] {
        let m = BarrierMode::Remap(p);
        let build = || {
            let mut sys = b.build(m, 64);
            sys.set_dir(false);
            sys
        };
        assert_checkpoint_parity(
            &format!("{b:?} {m:?} no-dir"),
            build(),
            build(),
            vec![build()],
        );
    }
}

/// Rewind: snapshot a donor at cut A, run it on to cut B, then restore A
/// into that same, used donor. Every component must be back at A — a
/// decoder that overwrote only what the snapshot lists would keep state
/// from between A and B, which restores into fresh systems cannot show —
/// and the rewound run must finish like the uninterrupted one.
fn assert_rewind_parity(label: &str, build: impl Fn() -> System) {
    let mut reference = build();
    let rr = reference
        .run(MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{label} (reference) failed: {e:?}"));
    let final_digest = reference.state_digest();
    let (a, b) = ((rr.cycles / 3).max(1), rr.cycles * 2 / 3);
    let mut donor = build();
    assert!(donor.run_until(a), "{label}: donor halted before cut {a}");
    let snap = donor.snapshot();
    let at_a = donor.state_digest();
    assert!(donor.run_until(b), "{label}: donor halted before cut {b}");
    let hierarchy = |d: &[(String, u64)]| d.iter().find(|(n, _)| n == "hierarchy").cloned();
    assert_ne!(
        hierarchy(&at_a),
        hierarchy(&donor.state_digest()),
        "{label}: the hierarchy did not change between the cuts; the rewind is vacuous"
    );
    donor
        .restore(&snap)
        .unwrap_or_else(|e| panic!("{label}: rewind from {b} to {a} refused: {e}"));
    let rewound = format!("{label} rewound {b}->{a}");
    assert_same_digest(&rewound, &at_a, &donor.state_digest(), false);
    let rd = donor
        .run(MAX_CYCLES)
        .unwrap_or_else(|e| panic!("{rewound} failed: {e:?}"));
    assert_same_observables(&rewound, &reference, &rr, &donor, &rd);
    assert_same_digest(&rewound, &final_digest, &donor.state_digest(), true);
}

#[test]
fn rewind_into_a_used_system_checkpoint_parity() {
    let hmmer = *CommBench::ALL.iter().find(|b| b.name() == "hmmer").unwrap();
    assert_rewind_parity("hmmer CompComm2T", || hmmer.build(CommMode::CompComm2T, 64));
    let m = BarrierMode::Remap(16);
    assert_rewind_parity(&format!("Ll3 {m:?}"), || BarrierBench::Ll3.build(m, 64));
}

/// A snapshot's size follows the state a run has touched, not the caches'
/// capacity: a 64-core grid, freshly built and after 500 cycles.
#[test]
fn grid_snapshots_stay_small() {
    for cut in [0, 500] {
        let mut sys = BarrierBench::Ll3.build(BarrierMode::Remap(64), 64);
        assert!(sys.run_until(cut), "halted before cycle {cut}");
        let len = sys.snapshot().as_bytes().len();
        // The dense encoding grew with L2 capacity — every line of every
        // 1 MB L2 at 17 B, 38.2 MB for this system at cycle 0; the sparse
        // one carries only touched sets (0.91 MB and 1.04 MB here).
        assert!(len < 2 << 20, "Remap(64) snapshot at cycle {cut}: {len} B");
    }
}

/// A snapshot of an older format version is refused by its version, never
/// misread — even with a valid checksum.
#[test]
fn older_format_versions_are_refused() {
    let hmmer = *CommBench::ALL.iter().find(|b| b.name() == "hmmer").unwrap();
    let mut sys = hmmer.build(CommMode::CompComm2T, 64);
    assert!(sys.run_until(500));
    let mut img = sys.snapshot().as_bytes().to_vec();
    let at = remap_snap::MAGIC.len();
    img[at..at + 4].copy_from_slice(&1u32.to_le_bytes());
    let body = img.len() - remap_snap::TRAILER_LEN;
    let sum = remap_snap::fnv1a(&img[..body]);
    img[body..].copy_from_slice(&sum.to_le_bytes());
    match Snapshot::from_bytes(img) {
        Err(RunError::BadSnapshot { reason }) => assert!(
            reason.contains("unsupported snapshot format version 1"),
            "{reason}"
        ),
        other => panic!("expected BadSnapshot, got {other:?}"),
    }
}

/// Pins the snapshot layout: the FNV-1a of the framed snapshot at a fixed
/// cut, for one configuration of each workload family, a faulted run, and a
/// 16-core grid. Any payload layout change must update these values and
/// bump `FORMAT_VERSION` together — older files must be refused, never
/// misread.
#[test]
fn snapshot_format_is_pinned() {
    use remap_suite::fault::{FaultPlan, SiteCfg};

    assert_eq!(remap_snap::FORMAT_VERSION, 2);
    let comp = |name: &str| *CompBench::ALL.iter().find(|b| b.name() == name).unwrap();
    let comm = |name: &str| *CommBench::ALL.iter().find(|b| b.name() == name).unwrap();
    let mut plan = FaultPlan::quiet(0xFA_17);
    plan.spl_bitflip = SiteCfg::rate(50_000);
    plan.hwq_drop = SiteCfg::rate(50_000);
    plan.hwq_dup = SiteCfg::rate(25_000);
    plan.hwq_delay = SiteCfg::rate(25_000);
    plan.cache_corrupt = SiteCfg::rate(50_000);
    let faulted = {
        let mut s = comm("hmmer").build(CommMode::CompComm2T, 64);
        s.set_fault_plan(&plan);
        s
    };
    let pins: [(&str, System, usize, u64); 5] = [
        (
            "mpeg2dec Spl",
            comp("mpeg2dec").build(CompMode::Spl, 64),
            22_995,
            0x0cc6_4b0f_fd76_3dc9,
        ),
        (
            "hmmer CompComm2T",
            comm("hmmer").build(CommMode::CompComm2T, 64),
            44_433,
            0xfb82_5b23_611c_0db8,
        ),
        (
            "Ll3 RemapComp(4)",
            BarrierBench::Ll3.build(BarrierMode::RemapComp(4), 32),
            82_716,
            0x43a8_f339_ad73_fd92,
        ),
        (
            "hmmer CompComm2T faulted",
            faulted,
            45_212,
            0x2f45_7910_1308_f5f3,
        ),
        (
            "Ll3 Remap(16)",
            BarrierBench::Ll3.build(BarrierMode::Remap(16), 64),
            273_047,
            0x9fc7_c709_7e92_042f,
        ),
    ];
    for (label, mut sys, len, fnv) in pins {
        assert!(sys.run_until(500), "{label}: halted before the cut");
        let snap = sys.snapshot();
        assert_eq!(snap.as_bytes().len(), len, "{label}: snapshot length");
        assert_eq!(
            remap_snap::fnv1a(snap.as_bytes()),
            fnv,
            "{label}: snapshot bytes changed; bump FORMAT_VERSION with the pins"
        );
    }
}
