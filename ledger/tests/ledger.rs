//! Tests of the benchmark's own logic: metric derivations, digests, the
//! traced run loop, the resilience protocol, the recorded digests and the
//! environment refusal.

use remap_ledger::ledger::{
    layer_seconds, per_layer, ratio, Calibrator, Counters, LayerTimes, StepTimes, Tracer,
};
use remap_ledger::{
    combine, configs, digest, permutation, recorded, traced_run, Config, Runner, Workload,
    DEFAULT_SEED, MAX_CYCLES,
};
use std::collections::BTreeMap;
use std::process::Command;

/// A workload configuration shrunk to a debug-build-friendly size.
fn small(w: Workload, label_prefix: &str, n: usize) -> Config {
    let mut c = configs(w, DEFAULT_SEED)
        .into_iter()
        .find(|c| c.label.starts_with(label_prefix))
        .unwrap_or_else(|| panic!("no config {label_prefix}"));
    c.n = n;
    c
}

fn metric(m: &[(&'static str, f64, &'static str)], name: &str) -> f64 {
    m.iter()
        .find(|(n, _, _)| *n == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .1
}

#[test]
fn derived_ratios_are_zero_when_nothing_was_attempted() {
    assert_eq!(ratio(5.0, 0.0), 0.0);
    assert_eq!(ratio(1.0, 4.0), 0.25);
    let m = per_layer(
        &Counters::default(),
        &LayerTimes::default(),
        &StepTimes::default(),
        0,
        0.0,
    );
    for name in [
        "core.skip_rate",
        "cpu.commit_per_fetch",
        "mem.prefetch_accuracy",
        "mem.l1d_hit_ratio",
        "mem.dir_probe_avoid_ratio",
        "core.ns_per_stepped_cycle",
    ] {
        assert_eq!(metric(&m, name), 0.0, "{name}");
    }
    assert!(m.iter().all(|(_, v, _)| v.is_finite()));
    // A non-zero base gives the plain quotient.
    let c = Counters {
        committed: 3,
        fetched: 4,
        prefetch_issued: 10,
        prefetch_used: 7,
        sim_cycles: 100,
        ..Counters::default()
    };
    let m = per_layer(&c, &LayerTimes::default(), &StepTimes::default(), 25, 0.0);
    assert_eq!(metric(&m, "cpu.commit_per_fetch"), 0.75);
    assert_eq!(metric(&m, "mem.prefetch_accuracy"), 0.7);
    assert_eq!(metric(&m, "core.skip_rate"), 0.25);
}

#[test]
fn digest_is_stable_across_two_runs_and_tells_configs_apart() {
    let run = |c: &Config| {
        let mut sys = c.build();
        sys.run(MAX_CYCLES).expect("runs");
        c.check(&sys).expect("validates");
        digest(&sys)
    };
    let a = small(Workload::Region, "adpcm [2Th+CompComm]", 64);
    let b = small(Workload::Region, "adpcm [2Th+Comm]", 64);
    assert_eq!(run(&a), run(&a));
    assert_ne!(run(&a), run(&b));
}

#[test]
fn traced_and_untraced_runs_agree_on_cycles_commits_and_digest() {
    for c in [
        small(Workload::Region, "g721enc [1Th+Comp]", 64),
        small(Workload::Grid, "LL3 [Barrier-p16]", 64),
    ] {
        let mut plain = c.build();
        plain.run(MAX_CYCLES).expect("runs");
        let mut traced = c.build();
        let mut steps = StepTimes::default();
        traced_run(&mut traced, MAX_CYCLES, &mut steps).expect("runs");
        c.check(&traced).expect("validates");
        assert_eq!(traced.cycle(), plain.cycle(), "{}", c.label);
        assert_eq!(traced.total_committed(), plain.total_committed());
        assert_eq!(digest(&traced), digest(&plain), "{}", c.label);
        // One step per call: every stepped cycle is exactly one call.
        assert_eq!(
            steps.tick_calls + steps.skip_calls,
            traced.cycle() - steps.skipped_cycles
        );
        assert_eq!(steps.skipped_cycles, traced.skipped_cycles());
    }
}

#[test]
fn resilience_pass_resumes_to_the_checkpointed_digest() {
    let cfgs = vec![
        small(Workload::Resilience, "hmmer [2Th+CompComm]", 64),
        small(Workload::Resilience, "LL6 [Barrier-p36]", 16),
    ];
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("resilience-pass");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let expect = BTreeMap::new();
    let order = permutation(cfgs.len(), 3);
    let mut runner = Runner {
        workload: Workload::Resilience,
        cfgs: &cfgs,
        expect: &expect,
        check_digests: false,
        order: &order,
        dir: &dir,
        cal: Calibrator::new(),
    };
    let mut tracer = Tracer::new();
    for traced in [false, true] {
        let pass = runner.pass(&mut tracer, traced);
        for (c, r) in cfgs.iter().zip(&pass.results) {
            assert_eq!(r.failure, None, "{}", c.label);
        }
        assert!(pass.counters.snap_bytes > 0);
        assert!(pass.layer_s("restore") > 0.0 && pass.layer_s("ckpt_run") > 0.0);
        assert!(pass.counters.faults_injected > 0, "the plan must inject");
    }
    assert!(
        std::fs::read_dir(&dir).expect("dir").next().is_none(),
        "snapshot files removed"
    );
}

#[test]
fn self_time_subtracts_direct_children_only() {
    use remap_ledger::ledger::Span;
    let span = |name, start_s, end_s, parent| Span {
        name,
        start_s,
        end_s,
        parent,
        config: None,
    };
    let spans = vec![
        span("before", 0.0, 1.0, None),
        span("pass", 1.0, 11.0, None),
        span("config", 1.0, 9.0, Some(1)),
        span("build", 1.0, 2.0, Some(2)),
        span("simulate", 2.0, 7.0, Some(2)),
    ];
    let l = layer_seconds(&spans, 1);
    assert!(!l.contains_key("before"));
    assert_eq!(l["pass"], (10.0, 2.0));
    assert_eq!(l["config"], (8.0, 2.0));
    assert_eq!(l["simulate"], (5.0, 5.0));
}

#[test]
fn permutation_is_a_seeded_permutation() {
    let a = permutation(70, 5);
    let mut sorted = a.clone();
    sorted.sort_unstable();
    assert_eq!(sorted, (0..70).collect::<Vec<_>>());
    assert_eq!(a, permutation(70, 5));
    assert_ne!(a, permutation(70, 6));
}

#[test]
fn recorded_digests_cover_every_config_and_match_benchmark_json() {
    let bench = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    for w in Workload::ALL {
        let rec = recorded(w);
        let cfgs = configs(w, DEFAULT_SEED);
        assert_eq!(rec.len(), cfgs.len(), "{}", w.name());
        let digests: Vec<u64> = cfgs
            .iter()
            .map(|c| {
                rec.get(&c.label)
                    .unwrap_or_else(|| panic!("{}", c.label))
                    .digest
            })
            .collect();
        let combined = format!("{:016x}", combine(&digests));
        assert!(
            bench.contains(&format!("Seed-1 digest {combined}")),
            "{} digest {combined} not in BENCHMARK.json",
            w.name()
        );
    }
}

#[test]
fn benchmark_json_lists_exactly_the_reported_metrics() {
    let bench = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark");
    let section = |key: &str| -> Vec<String> {
        let start = bench.find(&format!("\"{key}\"")).expect("section");
        let body = &bench[start..];
        let end = body.find(']').expect("section end");
        body[..end]
            .split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name end")].to_string())
            .collect()
    };
    let layer: Vec<String> = per_layer(
        &Counters::default(),
        &LayerTimes::default(),
        &StepTimes::default(),
        0,
        0.0,
    )
    .iter()
    .map(|m| m.0.to_string())
    .collect();
    assert_eq!(section("per_layer"), layer);
    let e2e: Vec<String> = remap_ledger::end_to_end(&[remap_ledger::Pass::default()])
        .iter()
        .map(|m| m.0.to_string())
        .collect();
    let mut want = section("end_to_end");
    want.sort();
    let mut got = e2e;
    got.sort();
    assert_eq!(want, got);
}

#[test]
fn refuses_to_run_under_model_changing_environment() {
    for knob in [
        "REMAP_NO_MLP",
        "REMAP_NO_DIR",
        "REMAP_NO_SKIP",
        "REMAP_CKPT_EVERY",
        "REMAP_CKPT_PATH",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_ledger"))
            .args(["--workload", "region", "--seconds", "0"])
            .env(knob, "1")
            .output()
            .expect("spawn ledger");
        assert_eq!(out.status.code(), Some(2), "{knob}");
        assert!(out.stdout.is_empty(), "{knob}: printed a result");
        assert!(String::from_utf8_lossy(&out.stderr).contains(knob));
    }
}

#[test]
fn run_seconds_sums_per_config_medians_and_scales_by_host_speed() {
    use remap_ledger::{run_seconds, ConfigTimes, Pass};
    let pass = |times: [(f64, f64); 2]| Pass {
        configs: times
            .iter()
            .map(|&(wall_s, speed)| ConfigTimes {
                wall_s,
                setup_s: wall_s / 10.0,
                sim_s: wall_s / 2.0,
                speed,
            })
            .collect(),
        ..Pass::default()
    };
    // Config 0 reads 1, 1, 9 s (a contention burst in the last pass);
    // config 1 reads 2 s on a host running at half the reference speed.
    let passes = [
        pass([(1.0, 1.0), (2.0, 0.5)]),
        pass([(1.0, 1.0), (2.0, 0.5)]),
        pass([(9.0, 1.0), (2.0, 0.5)]),
    ];
    let (setup, wall, sim) = run_seconds(&passes, false);
    assert_eq!((wall, sim), (3.0, 1.5));
    assert!((setup - 0.3).abs() < 1e-12);
    let (_, wall, sim) = run_seconds(&passes, true);
    assert_eq!((wall, sim), (2.0, 1.0));
    assert_eq!(run_seconds(&[], true), (0.0, 0.0, 0.0));
}
