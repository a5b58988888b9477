//! `ledger`: runs one benchmark workload of the ReMAP simulator from a
//! single thread and prints its end-to-end metrics (or, with `--trace 1`,
//! its per-layer metrics) as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path ledger/Cargo.toml -- \
//!     --workload region|grid|resilience|all [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! `--workload all` runs each workload in its own child process, so peak
//! memory is per workload.

use remap_ledger::ledger::{self, median, Calibrator, Metric, Tracer};
use remap_ledger::{
    combine, configs, end_to_end, permutation, recorded, render_recorded, run_seconds,
    traced_metrics, Pass, Runner, Workload, DEFAULT_SEED,
};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// Environment knobs that silently change the simulated model or the run
/// loop. Results taken under any of them are not comparable, so the
/// benchmark refuses to run.
pub const REFUSED_ENV: [&str; 5] = [
    "REMAP_NO_MLP",
    "REMAP_NO_DIR",
    "REMAP_NO_SKIP",
    "REMAP_CKPT_EVERY",
    "REMAP_CKPT_PATH",
];

const USAGE: &str = "usage: ledger --workload region|grid|resilience|all [--seed N] \
[--seconds S] [--trace 0|1] [--out DIR] [--print-digests]";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    print_digests: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".ledger_out"),
        print_digests: false,
    };
    let mut workload = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                a.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("--seconds takes a non-negative number")?
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--print-digests" => a.print_digests = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    match workload.as_deref() {
        None => return Err("--workload is required".into()),
        Some("all") => {}
        Some(w) => {
            a.workload = Some(Workload::parse(w).ok_or(format!("unknown workload {w}"))?);
        }
    }
    Ok(a)
}

/// The first refused knob present in the environment.
fn refused_env() -> Option<&'static str> {
    REFUSED_ENV
        .into_iter()
        .find(|k| std::env::var_os(k).is_some())
}

/// Commit of the checkout the benchmark runs in, if it is a git checkout.
fn commit() -> String {
    Command::new("git")
        .args(["--git-dir=.git", "rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

fn host_line() -> String {
    let par = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "host: parallelism={par} commit={} rustc=\"{}\" threads_used=1",
        commit(),
        env!("LEDGER_RUSTC")
    )
}

fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn json_str(s: &str) -> String {
    let mut o = String::with_capacity(s.len() + 2);
    o.push('"');
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            c if (c as u32) < 0x20 => o.push_str(&format!("\\u{:04x}", c as u32)),
            c => o.push(c),
        }
    }
    o.push('"');
    o
}

/// Runs every workload in its own child process.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("error: cannot locate own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut rest = Vec::new();
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            rest.push(a.clone());
        }
    }
    let mut code = ExitCode::SUCCESS;
    for w in Workload::ALL {
        println!("== workload {} ==", w.name());
        let status = Command::new(&exe)
            .args(["--workload", w.name()])
            .args(&rest)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("workload {} exited with {s}", w.name());
                code = ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("workload {}: cannot start: {e}", w.name());
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(k) = refused_env() {
        eprintln!(
            "error: {k} is set; it changes the simulated model or the run loop, so results \
             would not be comparable. Unset it to benchmark."
        );
        return ExitCode::from(2);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = args.workload else {
        return run_all(&argv);
    };
    match run(w, &args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs passes of one workload for the requested time and reports them.
/// Returns whether every output was correct.
fn run(w: Workload, args: &Args) -> Result<bool, String> {
    let host = host_line();
    println!("{host}");
    let cfgs = configs(w, args.seed);
    let expect = recorded(w);
    let order = permutation(cfgs.len(), args.seed);
    let scratch = args.out.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch)
        .map_err(|e| format!("cannot create {}: {e}", scratch.display()))?;
    // Region and grid inputs do not depend on the seed, so their recorded
    // digests hold for every seed; resilience's fault plan does.
    let check_digests =
        !args.print_digests && (w != Workload::Resilience || args.seed == DEFAULT_SEED);
    let mut runner = Runner {
        workload: w,
        cfgs: &cfgs,
        expect: &expect,
        check_digests,
        order: &order,
        dir: &scratch,
        cal: Calibrator::new(),
    };

    let mut tracer = Tracer::new();
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    // Untraced passes first; a traced run alternates untraced and traced
    // passes so the overhead and the counter parity come from one process.
    loop {
        let traced = args.trace && passes.len() % 2 == 1;
        passes.push(runner.pass(&mut tracer, traced));
        let need = if args.trace { 2 } else { 1 };
        if passes.len() >= need && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(&args.out);

    if args.print_digests {
        print!("{}", render_recorded(w, &cfgs, &passes[0].results));
    }

    // Every pass, traced or not, must reproduce the first one exactly.
    let mut unexplained: Vec<String> = Vec::new();
    for (k, p) in passes.iter().enumerate().skip(1) {
        for (i, (a, b)) in passes[0].results.iter().zip(&p.results).enumerate() {
            if a != b {
                unexplained.push(format!(
                    "{}: pass {k}{} digest {:016x} cycles {} committed {} failure {:?} \
                     differs from pass 0",
                    cfgs[i].label,
                    if p.traced { " (traced)" } else { "" },
                    b.digest,
                    b.cycles,
                    b.committed,
                    b.failure
                ));
            }
        }
    }
    // One operation is one configuration at this seed. The passes after the
    // first repeat it for timing and must reproduce it exactly (checked
    // above), so they are not counted again: `attempted` and `failed` then
    // depend on the seed alone, not on how many passes fit in the time.
    let attempted = cfgs.len();
    let failed = passes[0].failed();
    let mut known = std::collections::BTreeSet::new();
    for p in &passes {
        for (i, r) in p.results.iter().enumerate() {
            match &r.failure {
                Some(f) if f.known => {
                    known.insert(format!("{}: {}", cfgs[i].label, f.reason));
                }
                Some(f) => unexplained.push(format!("{}: {}", cfgs[i].label, f.reason)),
                None => {}
            }
        }
    }
    let verify_errors = passes[0].counters.verify_errors;
    if verify_errors > 0 {
        unexplained.push(format!("{verify_errors} static-verifier errors"));
    }
    for k in &known {
        println!("known defect: {k}");
    }
    for u in &unexplained {
        println!("FAILED: {u}");
    }
    let correct = unexplained.is_empty();

    let digests: Vec<u64> = passes[0].results.iter().map(|r| r.digest).collect();
    let rec: Vec<u64> = cfgs
        .iter()
        .map(|c| expect.get(&c.label).map_or(0, |r| r.digest))
        .collect();
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    println!(
        "workload={} seed={} passes={} pass_wall_s=[{}] configs={} attempted={attempted} \
         failed={failed} fail_rate={} digest={:016x} recorded_seed{DEFAULT_SEED}={:016x}",
        w.name(),
        args.seed,
        passes.len(),
        walls.join(","),
        cfgs.len(),
        failed as f64 / attempted as f64,
        combine(&digests),
        combine(&rec)
    );

    // The metrics are speed-normalized; say what the raw clock read.
    let (setup_s, wall_s, sim_s) = run_seconds(&passes, false);
    let speeds: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.configs.iter().map(|t| t.speed))
        .collect();
    println!(
        "raw: setup_s={setup_s} wall_s={wall_s} simulate_s={sim_s} host_speed={}",
        median(&speeds)
    );
    let metrics = if args.trace {
        let m = traced_metrics(&passes);
        write_trace(w, args, &host, &cfgs, &tracer)?;
        m
    } else {
        end_to_end(&passes)
    };
    for (name, v, unit) in &metrics {
        println!("{name} = {v} {unit}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    Ok(correct)
}

/// Writes the run's spans, with per-layer self times, to
/// `<out>/trace-<workload>-seed<seed>.json`.
fn write_trace(
    w: Workload,
    args: &Args,
    host: &str,
    cfgs: &[remap_ledger::Config],
    tracer: &Tracer,
) -> Result<(), String> {
    let spans = tracer.spans();
    let selfs = ledger::layer_seconds(spans, 0);
    let mut s = String::new();
    s.push_str(&format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"host\": {},\n\"self_s\": {{",
        w.name(),
        args.seed,
        json_str(host)
    ));
    let body: Vec<String> = selfs
        .iter()
        .map(|(k, (_, own))| format!("\"{k}\": {own}"))
        .collect();
    s.push_str(&body.join(", "));
    s.push_str("},\n\"spans\": [\n");
    let lines: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(i, sp)| {
            format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"start_s\": {}, \"end_s\": {}, \"parent\": {}, \
                 \"config\": {}}}",
                sp.name,
                sp.start_s,
                sp.end_s,
                sp.parent.map_or("null".into(), |p| p.to_string()),
                sp.config
                    .map_or("null".into(), |c| json_str(&cfgs[c].label))
            )
        })
        .collect();
    s.push_str(&lines.join(",\n"));
    s.push_str("\n]}\n");
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let path = args
        .out
        .join(format!("trace-{}-seed{}.json", w.name(), args.seed));
    std::fs::write(&path, s).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("trace: {} spans written to {}", spans.len(), path.display());
    Ok(())
}
