//! `perfbench`: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload forward|campaign|soak [--seed N] [--seconds S] [--trace 0|1] [--size bench|tiny]
//! ```
//!
//! One process, one thread. The workload is set up [`SETUP_REPS`] times
//! (the median is `setup_s`), then measured in passes for `--seconds`.
//! The last line of standard output is the JSON result; `--trace 1` reports
//! the per-layer metrics instead of the end-to-end ones and writes the spans
//! to `.bench_trace/`. See `perfbench/README.md` for every metric.

mod campaign;
mod clock;
mod metrics;
mod replay;
mod run;
mod soak;
mod suite;
mod trace;

use clock::Probe;
use lp_kernels::Scale;
use metrics::{Values, END_TO_END};
use run::{median, Workload};
use std::process::ExitCode;
use trace::Tracer;

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// The held-out seed: never used while tuning the benchmark or a change; a
/// claimed gain must also hold on it.
const HELD_OUT_SEED: u64 = 7919;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

const WORKLOADS: [&str; 3] = ["forward", "campaign", "soak"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload {} [--seed N (default {DEFAULT_SEED}, held-out {HELD_OUT_SEED})] \
         [--seconds S] [--trace 0|1] [--size bench|tiny]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--size" => {
                args.tiny = match value()?.as_str() {
                    "bench" => false,
                    "tiny" => true,
                    v => return Err(format!("--size takes bench or tiny, not {v:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown or missing --workload {:?}", args.workload));
    }
    Ok(args)
}

/// Builds the workload once: everything before its first timed operation.
fn setup(args: &Args, tr: &mut Tracer) -> Box<dyn Workload> {
    let scale = if args.tiny { Scale::Test } else { Scale::Bench };
    match args.workload.as_str() {
        "forward" => Box::new(suite::Suite::setup(scale, args.seed, tr)),
        "campaign" => Box::new(campaign::Campaign::setup(scale, args.seed, tr)),
        _ => {
            let plan = if args.tiny {
                soak::Plan {
                    cycles: 4,
                    steps: 2,
                    width: 48,
                }
            } else {
                soak::BENCH_PLAN
            };
            Box::new(soak::Soak::setup(plan, args.seed))
        }
    }
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut probe = Probe::new();
    let mut tr = Tracer::new(probe.origin());
    tr.enabled = args.trace;

    let mut setups = Vec::new();
    let mut workload = None;
    for _ in 0..SETUP_REPS {
        drop(workload.take());
        let (w, at) = probe.time(|| setup(&args, &mut tr));
        setups.push(at);
        workload = Some(w);
    }
    let mut w = workload.expect("at least one set-up");
    let out = run::drive(w.as_mut(), &mut probe, &mut tr, args.seconds, args.trace);
    let setup_s: Vec<f64> = setups
        .iter()
        .map(|at| probe.norm_s(at.start_ns, at.end_ns))
        .collect();
    let setup_raw_s: Vec<f64> = setups.iter().map(|at| at.raw_s()).collect();

    let mut vals = Values::new();
    if args.trace {
        w.layers(&tr, &probe, &mut vals);
        let plain = out.work_per_s(&probe, false).unwrap_or(f64::NAN);
        let traced = out.work_per_s(&probe, true).unwrap_or(f64::NAN);
        vals.insert(
            "bench.trace_overhead_pct".into(),
            (plain / traced - 1.0) * 100.0,
        );
        println!("# traced work_per_s {traced:.6e}, untraced {plain:.6e}");
    } else {
        vals.insert("setup_s".into(), median(&setup_s));
        vals.insert("peak_rss_mb".into(), peak_rss_mb().unwrap_or(f64::NAN));
        let work_per_s = out.work_per_s(&probe, false).unwrap_or(f64::NAN);
        vals.insert("work_per_s".into(), work_per_s);
        println!("# {}_per_s {work_per_s:.6e} 1/s", w.work_unit());
    }
    for (name, value, unit) in w.model() {
        println!("# {name} {value} {unit}");
    }

    let e2e_ok = args.trace
        || END_TO_END
            .iter()
            .all(|(n, _)| vals.get(*n).is_some_and(|v| v.is_finite() && *v > 0.0));
    let correct = out.unexpected == 0 && out.nondeterministic == 0 && w.self_check() && e2e_ok;
    println!(
        "# workload {} seed {} size {} passes {} ops/pass {} attempted {} failed {} (unexpected {}) nondeterministic {}",
        args.workload,
        args.seed,
        if args.tiny { "tiny" } else { "bench" },
        out.passes,
        w.len(),
        out.attempted,
        out.failed,
        out.unexpected,
        out.nondeterministic
    );
    println!("# model digest {:016x}", out.digest());
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# host: {cpus} available cpus, 1 thread used");
    println!(
        "# raw seconds: setup median {:.4}, timed ops {:.3}",
        median(&setup_raw_s),
        out.raw_s
    );
    if args.trace {
        let path = format!(".bench_trace/{}-seed{}.json", args.workload, args.seed);
        match std::fs::create_dir_all(".bench_trace")
            .and_then(|_| std::fs::write(&path, tr.to_chrome_json()))
        {
            Ok(()) => println!("# spans written to {path}"),
            Err(e) => eprintln!("perfbench: cannot write {path}: {e}"),
        }
    }
    let catalogue: Vec<(String, &str)> = if args.trace {
        metrics::per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    println!(
        "{}",
        metrics::result_line(correct, out.attempted, out.failed, &catalogue, &vals)
    );
    ExitCode::SUCCESS
}
