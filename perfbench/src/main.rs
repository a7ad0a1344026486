//! Layer-split benchmark for the OCPT reproduction.
//!
//! ```text
//! perfbench --workload <mesh_traffic|storage_contended|fault_matrix>
//!           --seed <u64> --seconds <n> --trace <0|1> [--quick] [--state-dir <dir>]
//! ```
//!
//! `--trace 0` is the timed pass: it repeats one pass over the workload's
//! runs until `--seconds` have gone by (at least twice) and reports the
//! end-to-end metrics, host times from each run's fastest pass and
//! set-up time from samples taken between passes. `--trace 1` is the
//! profiled pass: spans, twin runs and a storage replay give the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `perfbench/run.py`
//! builds this binary and passes host provenance in the environment;
//! `perfbench/README.md` documents every workload and metric.

mod heap;
mod profile;
mod spans;
mod workload;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use ocpt_telemetry::json::Obj;

use profile::{profiled_pass, Metric};
use spans::Spans;
use workload::{merge, peak_rss_mb, run_job, setup_only, Counts, Job, Ops, Workload};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
    state_dir: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <mesh_traffic|storage_contended|fault_matrix> \
                     --seed <u64> --seconds <n> --trace <0|1> [--quick] [--state-dir <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut quick, mut state_dir) = (false, None);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or(bad("a workload"))?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("a whole number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--state-dir" => state_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        quick,
        state_dir,
    })
}

/// Host seconds of one run of a timed pass.
#[derive(Clone, Copy)]
struct Times {
    /// The whole pipeline: run, analysis and dropping the results.
    wall_s: f64,
    /// `ocpt_harness::run`.
    run_s: f64,
    /// Post-run checks and reports.
    analysis_s: f64,
}

/// One timed pass over the workload's runs.
struct Pass {
    /// Per run, in run order.
    times: Vec<Times>,
    counts: Counts,
    ops: Ops,
}

impl Pass {
    fn total(&self, f: impl Fn(&Times) -> f64) -> f64 {
        self.times.iter().map(f).sum()
    }
}

fn timed_pass(jobs: &[Job]) -> Pass {
    let mut spans = Spans::off();
    let mut ops = Ops::default();
    let mut times = Vec::with_capacity(jobs.len());
    let mut parts = Vec::with_capacity(jobs.len());
    for job in jobs {
        let start = Instant::now();
        let o = run_job(job, &mut spans);
        times.push(Times {
            wall_s: start.elapsed().as_secs_f64(),
            run_s: o.run_s,
            analysis_s: o.analysis_s,
        });
        ops.absorb(o.ops);
        parts.push(o.counts);
    }
    Pass { times, counts: merge(parts), ops }
}

/// Host time spent sampling set-up before each timed pass and after the
/// last one. One sample costs about 0.1 ms, so a block holds about a
/// thousand samples.
const SETUP_BLOCK: Duration = Duration::from_millis(150);

/// The quantile of the set-up samples reported as `setup_s`. The host's
/// speed wanders within a run, and the first block runs on a cold heap; a
/// low quantile of samples spread over the whole run reads the set-up
/// cost at the host's top speed and repeats across runs far better than
/// the median.
const SETUP_QUANTILE: f64 = 0.01;

/// Set-up samples, taken apart from the timed passes: every run of a
/// pass is set up and dropped, over and over for `budget`, and each
/// pass total is one sample.
fn sample_setup(jobs: &[Job], budget: Duration, samples: &mut Vec<f64>) {
    let start = Instant::now();
    while start.elapsed() < budget {
        samples.push(jobs.iter().map(setup_only).sum());
    }
}

/// The `q`-quantile of `v` (nearest rank), 0 when empty.
fn quantile(mut v: Vec<f64>, q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    v.get(((v.len() as f64 - 1.0) * q).round() as usize).copied().unwrap_or(0.0)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ns_to_ms(v: &[u64]) -> Vec<f64> {
    v.iter().map(|&ns| ns as f64 / 1e6).collect()
}

/// The end-to-end metrics, in `BENCHMARK.json` order. A host time is the
/// sum over a pass's runs of each run's fastest time over the passes: the
/// host's speed wanders by up to ~1.7x within seconds, and the fastest of
/// several passes reads each run at the host's usual top speed, where a
/// median over a few passes moves with the share of slow seconds.
/// Simulated values come from the (identical) counts of every pass.
fn end_to_end(passes: &[Pass], setup_s: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let host = |f: fn(&Times) -> f64| -> f64 {
        (0..passes[0].times.len())
            .map(|i| passes.iter().map(|p| f(&p.times[i])).fold(f64::INFINITY, f64::min))
            .sum()
    };
    let c = &passes[0].counts;
    let app = c.app_msgs.max(1) as f64;
    let durable = ns_to_ms(&c.durable_ns);
    vec![
        ("wall_s", host(|t| t.wall_s), "s"),
        ("sim_msgs_per_s", (c.app_msgs + c.ctrl_msgs) as f64 / host(|t| t.run_s), "msg/s"),
        ("analysis_s", host(|t| t.analysis_s), "s"),
        ("setup_s", setup_s, "s"),
        ("peak_rss_mb", peak_rss_mb, "MiB"),
        ("round_p50_ms", median(ns_to_ms(&c.round_ns)), "ms"),
        ("durable_round_p50_ms", median(durable.clone()), "ms"),
        ("durable_round_max_ms", durable.iter().copied().fold(0.0, f64::max), "ms"),
        ("write_stall_s", c.stall_ns as f64 / 1e9 / c.storage_writes.max(1) as f64, "s"),
        ("ctrl_msgs_per_round", c.ctrl_msgs as f64 / c.complete_rounds.max(1) as f64, "msg/round"),
        ("piggyback_bytes_per_msg", c.piggyback_bytes as f64 / app, "B/msg"),
        ("log_bytes_per_msg", c.log_bytes as f64 / app, "B/msg"),
    ]
}

/// Compare this invocation's deterministic outputs with the ones an
/// earlier invocation stored for the same workload, seed and sources.
fn check_fingerprint(args: &Args, counts: &Counts) -> Result<(), String> {
    let Some(dir) = &args.state_dir else { return Ok(()) };
    let source = std::env::var("PERFBENCH_SOURCE_DIGEST").unwrap_or_else(|_| "unknown".into());
    let quick = if args.quick { "-quick" } else { "" };
    let path = dir.join(format!("{}-{}{quick}-{source}.txt", args.workload.name(), args.seed));
    let now = format!("{counts:?}\n");
    match std::fs::read_to_string(&path) {
        Ok(before) if before == now => Ok(()),
        Ok(_) => Err(format!("outputs differ from the earlier run recorded in {}", path.display())),
        Err(_) => std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, now))
            .map_err(|e| format!("cannot record fingerprint {}: {e}", path.display())),
    }
}

/// Host and build provenance plus the workload's shape; the exact
/// parameters of every run follow on `run-config` lines.
fn provenance(args: &Args, jobs: &[Job]) -> String {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    Obj::new()
        .u64("nproc", nproc)
        .str("rustc", &env("PERFBENCH_RUSTC"))
        .str("git_rev", &env("PERFBENCH_GIT_REV"))
        .str("source_digest", &env("PERFBENCH_SOURCE_DIGEST"))
        .str("workload", args.workload.name())
        .u64("seed", args.seed)
        .u64("seconds", args.seconds)
        .u64("trace", u64::from(args.trace))
        .str("quick", if args.quick { "yes" } else { "no" })
        .u64("runs_per_pass", jobs.len() as u64)
        .finish()
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut obj = Obj::new();
    for &(name, value, unit) in metrics {
        obj = obj.raw(name, &Obj::new().f64("value", value).str("unit", unit).finish());
    }
    obj.finish()
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let jobs = workload::jobs(args.workload, args.seed, args.quick);
    println!("perfbench provenance {}", provenance(&args, &jobs));
    for j in &jobs {
        println!("perfbench run-config {} {} {:?}", j.label, j.algo().name(), j.config());
    }

    let mut wrong = Vec::new();
    let mut setup = Vec::new();
    // The timed invocation repeats passes for `--seconds`, at least twice;
    // the profiled one times a single plain pass (the overhead reference
    // and the determinism check) before profiling.
    let (min_passes, budget) =
        if args.trace { (1, Duration::ZERO) } else { (2, Duration::from_secs(args.seconds)) };
    let mut passes = Vec::new();
    // The peak resident set is read after the first pass: later passes
    // reuse a heap whose fragmentation depends on how many set-up samples
    // and passes the host's speed allowed.
    let mut peak = 0.0;
    let start = Instant::now();
    while passes.len() < min_passes || start.elapsed() < budget {
        if !args.trace {
            sample_setup(&jobs, SETUP_BLOCK, &mut setup);
        }
        let p = timed_pass(&jobs);
        println!(
            "perfbench pass {} wall_s={} run_s={} analysis_s={} sim_events={} msgs={} rounds={} \
             writes={}",
            passes.len() + 1,
            p.total(|t| t.wall_s),
            p.total(|t| t.run_s),
            p.total(|t| t.analysis_s),
            p.counts.sim_events,
            p.counts.app_msgs + p.counts.ctrl_msgs,
            p.counts.complete_rounds,
            p.counts.storage_writes
        );
        passes.push(p);
        if passes.len() == 1 {
            peak = peak_rss_mb();
        }
    }
    if !args.trace {
        sample_setup(&jobs, SETUP_BLOCK, &mut setup);
        println!(
            "perfbench setup samples={} p1={} p10={} p50={} p90={}",
            setup.len(),
            quantile(setup.clone(), 0.01),
            quantile(setup.clone(), 0.1),
            quantile(setup.clone(), 0.5),
            quantile(setup.clone(), 0.9)
        );
    }

    let mut ops = Ops::default();
    for p in &mut passes {
        ops.absorb(std::mem::take(&mut p.ops));
    }
    let first = &passes[0];
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.counts != first.counts {
            wrong.push(format!("pass {} outputs differ from pass 1 (same seed)", i + 1));
        }
    }

    let metrics = if args.trace {
        let prof = profiled_pass(&jobs, first.total(|t| t.wall_s));
        if prof.counts != first.counts {
            wrong.push("profiled pass outputs differ from the plain pass (same seed)".into());
        }
        wrong.extend(prof.wrong);
        ops.absorb(prof.ops);
        println!("perfbench spans (name count total_s self_s)");
        for (name, t) in &prof.spans {
            println!("perfbench span {name} {} {} {}", t.count, t.total_s, t.self_s);
        }
        prof.metrics
    } else {
        end_to_end(&passes, quantile(setup, SETUP_QUANTILE), peak)
    };
    wrong.extend(check_fingerprint(&args, &first.counts).err());

    let mut seen = std::collections::BTreeSet::new();
    for f in ops.failures.iter().filter(|f| seen.insert(f.as_str())) {
        println!("perfbench failed-op {f}");
    }
    for w in &wrong {
        println!("perfbench wrong {w}");
    }
    for (name, value, unit) in &metrics {
        println!("perfbench metric {name} {value} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        wrong.is_empty() && ops.wrong.is_empty(),
        ops.attempted,
        ops.failed,
        metrics_json(&metrics)
    );
}
