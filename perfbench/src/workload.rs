//! The three workloads and the pipeline every simulated run goes through:
//! `ocpt_harness::run`, then the post-run checks and reports (consistency
//! oracles, recovery analysis, trace export, readback and the observatory).

use ocpt_baselines::OcptAdapter;
use ocpt_core::{LoggingKind, OcptConfig};
use ocpt_harness::experiments::{e10_fault_patterns, scale_config, ExpParams};
use ocpt_harness::{log_recovery_report, Algo, RunConfig, RunResult, Runner};
use ocpt_sim::{derive_seed, ProcessId, SimDuration, TraceKind};
use ocpt_telemetry::{critical_path, health, parse_jsonl, timeline, DEFAULT_BUCKETS};

use crate::heap;
use crate::spans::Spans;

/// A named benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// N=64 flat full mesh under heavy traffic: scheduler, protocol
    /// handlers and the causality observer; storage nearly idle.
    MeshTraffic,
    /// N=600 hierarchical waves, all writers overlapping at the server.
    StorageContended,
    /// The logging-strategy × fault matrix with post-run analysis.
    FaultMatrix,
}

impl Workload {
    /// Every workload the benchmark runs by name. `BENCHMARK.json`
    /// measures `mesh_traffic` and `fault_matrix`; `storage_contended`
    /// is bimodal across seeds and is run by hand (see `README.md`).
    pub const ALL: [Workload; 3] =
        [Workload::MeshTraffic, Workload::StorageContended, Workload::FaultMatrix];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MeshTraffic => "mesh_traffic",
            Workload::StorageContended => "storage_contended",
            Workload::FaultMatrix => "fault_matrix",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(s: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// How a run is faulted.
#[derive(Clone, Copy, Debug)]
enum FaultShape {
    None,
    /// E10 pattern `i` of `e10_fault_patterns`; the run stops at the crash.
    Stop(usize),
    /// E10's single crash, ridden through (live recovery).
    Live,
}

/// One simulated run of a unit.
#[derive(Clone, Debug)]
pub struct Job {
    /// Human label (strategy × fault, or the seed).
    pub label: String,
    workload: Workload,
    base: ExpParams,
    kind: LoggingKind,
    fault: FaultShape,
    crash_ms: u64,
}

/// Seeds `mesh_traffic` runs back to back in one pass. Its write stall
/// comes from chance overlaps of a few writers and varies by ~30% from
/// run to run; twelve runs keep the pass total steady across seeds.
const MESH_SEEDS: u64 = 12;

/// The runs one pass over `workload` makes for `seed`. `quick` shrinks
/// every run to toy size for the smoke test.
pub fn jobs(workload: Workload, seed: u64, quick: bool) -> Vec<Job> {
    let job = |label: String, base: ExpParams, kind, fault, crash_ms| Job {
        label,
        workload,
        base,
        kind,
        fault,
        crash_ms,
    };
    match workload {
        Workload::MeshTraffic => {
            let (n, ms, interval_ms) = if quick { (8, 1_000, 250) } else { (64, 20_000, 2_000) };
            (0..MESH_SEEDS)
                .map(|i| {
                    let base = ExpParams {
                        n,
                        seed: derive_seed(seed, i),
                        workload_ms: ms,
                        msg_gap: SimDuration::from_millis(2),
                        ckpt_interval: SimDuration::from_millis(interval_ms),
                        state_bytes: 64 * 1024,
                    };
                    job(
                        format!("seed={}", base.seed),
                        base,
                        LoggingKind::Selective,
                        FaultShape::None,
                        0,
                    )
                })
                .collect()
        }
        Workload::StorageContended => {
            // N and the recorder stay at full size in quick mode: the
            // hierarchical waves start above 512 processes.
            let base = ExpParams {
                n: 600,
                seed: derive_seed(seed, 0),
                workload_ms: if quick { 200 } else { 1_000 },
                ..ExpParams::default()
            };
            vec![job(
                format!("seed={}", base.seed),
                base,
                LoggingKind::Selective,
                FaultShape::None,
                0,
            )]
        }
        Workload::FaultMatrix => {
            let base = if quick {
                ExpParams {
                    n: 4,
                    seed: derive_seed(seed, 0),
                    workload_ms: 1_000,
                    msg_gap: SimDuration::from_millis(5),
                    ckpt_interval: SimDuration::from_millis(250),
                    state_bytes: 512 * 1024,
                }
            } else {
                ExpParams {
                    n: 16,
                    seed: derive_seed(seed, 0),
                    workload_ms: 10_000,
                    msg_gap: SimDuration::from_millis(5),
                    ckpt_interval: SimDuration::from_secs(1),
                    state_bytes: 2 * 1024 * 1024,
                }
            };
            let crash_ms = if quick { 600 } else { 4_000 };
            let names = e10_fault_patterns(&base, crash_ms);
            let mut out = Vec::new();
            for kind in LoggingKind::ALL {
                out.push(job(
                    format!("{}/none", kind.name()),
                    base,
                    kind,
                    FaultShape::None,
                    crash_ms,
                ));
                for (i, (fault, _)) in names.iter().enumerate() {
                    let label = format!("{}/{fault}", kind.name());
                    out.push(job(label, base, kind, FaultShape::Stop(i), crash_ms));
                }
                let label = format!("{}/live", kind.name());
                out.push(job(label, base, kind, FaultShape::Live, crash_ms));
            }
            // Every run simulates its own seed: runs that shared one would
            // repeat the same rounds, and the round latencies of a pass
            // would rest on a single traffic pattern.
            for (i, j) in out.iter_mut().enumerate() {
                j.base.seed = derive_seed(seed, i as u64);
            }
            out
        }
    }
}

impl Job {
    /// Build this run's configuration, fault plan included.
    pub fn config(&self) -> RunConfig {
        let mut cfg = match self.workload {
            Workload::MeshTraffic => self.base.config(),
            Workload::StorageContended => {
                let mut cfg = scale_config(self.base.n, self.base.seed);
                cfg.workload_duration = SimDuration::from_millis(self.base.workload_ms);
                cfg.trace = true;
                cfg
            }
            Workload::FaultMatrix => {
                let mut cfg = self.base.config();
                cfg.trace = true;
                cfg
            }
        };
        let pattern = |i: usize| e10_fault_patterns(&self.base, self.crash_ms).swap_remove(i).1;
        match self.fault {
            FaultShape::None => {}
            FaultShape::Stop(i) => {
                cfg.faults = pattern(i);
                cfg.stop_on_crash = true;
            }
            FaultShape::Live => {
                cfg.faults = pattern(0);
                cfg.stop_on_crash = false;
            }
        }
        cfg
    }

    fn faulted(&self) -> bool {
        !matches!(self.fault, FaultShape::None)
    }

    /// The algorithm `ocpt_harness::run` would be given for this job.
    pub fn algo(&self) -> Algo {
        Algo::ocpt_logging(self.kind)
    }
}

/// A `storage_start` record: virtual time (ns), process and bytes.
pub type Start = (u64, u32, u64);

/// Everything a pass produced that must repeat exactly for the same
/// seed: simulated values and layer counts. Summed over runs, except the
/// peaks (maxima) and the latency samples (concatenated).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Simulated runs.
    pub runs: u64,
    /// Application messages sent.
    pub app_msgs: u64,
    /// Control messages sent.
    pub ctrl_msgs: u64,
    /// Piggyback bytes on application messages.
    pub piggyback_bytes: u64,
    /// Scheduler dispatches.
    pub sim_events: u64,
    /// Largest pending-event population.
    pub peak_pending: u64,
    /// Stable-storage write requests.
    pub storage_writes: u64,
    /// Bytes written to stable storage.
    pub storage_bytes: u64,
    /// Largest number of concurrent writers.
    pub peak_writers: u64,
    /// Sum of write stalls, simulated ns.
    pub stall_ns: u64,
    /// Rounds completed by every process.
    pub complete_rounds: u64,
    /// Durable message-log bytes in the checkpoint store.
    pub log_bytes: u64,
    /// Protocol-complete round latencies, simulated ns.
    pub round_ns: Vec<u64>,
    /// First snapshot → last `durable_at` per fully durable round, ns.
    pub durable_ns: Vec<u64>,
    /// Orphaned determinants found by the recovery analysis.
    pub orphans: u64,
    /// In-transit messages the recovery analysis cannot restore.
    pub lost_in_transit: u64,
    /// Bytes of exported `ocpt-trace` JSONL.
    pub trace_bytes: u64,
    /// Traces `parse_jsonl` rejected.
    pub readback_failures: u64,
    /// Global checkpoints the Theorem-2 oracles verified.
    pub verified: u64,
    /// FNV-1a digest of every run's metrics snapshot and observatory
    /// reports, in run order.
    pub digest: u64,
}

impl Counts {
    fn absorb(&mut self, o: Counts) {
        self.runs += o.runs;
        self.app_msgs += o.app_msgs;
        self.ctrl_msgs += o.ctrl_msgs;
        self.piggyback_bytes += o.piggyback_bytes;
        self.sim_events += o.sim_events;
        self.peak_pending = self.peak_pending.max(o.peak_pending);
        self.storage_writes += o.storage_writes;
        self.storage_bytes += o.storage_bytes;
        self.peak_writers = self.peak_writers.max(o.peak_writers);
        self.stall_ns += o.stall_ns;
        self.complete_rounds += o.complete_rounds;
        self.log_bytes += o.log_bytes;
        self.round_ns.extend(o.round_ns);
        self.durable_ns.extend(o.durable_ns);
        self.orphans += o.orphans;
        self.lost_in_transit += o.lost_in_transit;
        self.trace_bytes += o.trace_bytes;
        self.readback_failures += o.readback_failures;
        self.verified += o.verified;
        self.digest = fnv(self.digest, &o.digest.to_le_bytes());
    }
}

/// Operations attempted and failed. A run, a consistency verification, a
/// recovery analysis and a trace readback are one operation each.
/// `wrong` holds the failures that are wrong results (a protocol error,
/// a Theorem-2 oracle violation) rather than refused operations.
#[derive(Clone, Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// One line per wrong result.
    pub wrong: Vec<String>,
}

impl Ops {
    fn fail(&mut self, what: String, wrong: bool) {
        self.failed += 1;
        if wrong {
            self.wrong.push(what.clone());
        }
        self.failures.push(what);
    }

    /// Add another tally to this one.
    pub fn absorb(&mut self, o: Ops) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.failures.extend(o.failures);
        self.wrong.extend(o.wrong);
    }
}

/// One run through the pipeline.
pub struct JobOut {
    /// `ocpt_harness::run`, host seconds.
    pub run_s: f64,
    /// Post-run checks and reports, host seconds.
    pub analysis_s: f64,
    /// Peak growth of live heap bytes over the run. Measured only when
    /// `spans` is on.
    pub heap_peak: u64,
    /// Deterministic outputs.
    pub counts: Counts,
    /// Operation tally.
    pub ops: Ops,
    /// The run's `storage_start` records (with `spans` on and the
    /// recorder on).
    pub starts: Option<Vec<Start>>,
}

/// Run `job` through `ocpt_harness::run` with `tweak` applied to its
/// config, inside a span called `name`; returns the result, the run's
/// host seconds and (with `spans` on) the peak heap growth.
fn run_timed(
    job: &Job,
    tweak: impl FnOnce(&mut RunConfig),
    name: &'static str,
    spans: &mut Spans,
) -> (RunResult, f64, u64) {
    let mut cfg = job.config();
    tweak(&mut cfg);
    let algo = job.algo();
    let go = |spans: &mut Spans| spans.time(name, |_| ocpt_harness::run(&algo, cfg));
    let ((result, run_s), heap) =
        if spans.is_on() { heap::peak_growth(|| go(spans)) } else { (go(spans), 0) };
    (result, run_s, heap)
}

/// Set `job` up once without running it: the config and fault plan,
/// then `Runner::new` with the job's protocol. Returns the host seconds.
/// `ocpt_harness::run` does the same work before the first event, plus
/// one arithmetic step that sizes the finalize window.
pub fn setup_only(job: &Job) -> f64 {
    let start = std::time::Instant::now();
    let cfg = job.config();
    let ocfg = OcptConfig {
        logging: job.kind,
        state_bytes: cfg.state_bytes,
        checkpoint_interval: cfg.checkpoint_interval,
        ..OcptConfig::default()
    };
    let runner = Runner::new(cfg, move |pid, n, seed| OcptAdapter::new(pid, n, ocfg, seed));
    let secs = start.elapsed().as_secs_f64();
    drop(std::hint::black_box(runner));
    secs
}

/// Run `job` through the pipeline: `ocpt_harness::run`, then the
/// post-run checks and reports.
pub fn run_job(job: &Job, spans: &mut Spans) -> JobOut {
    let (result, run_s, heap_peak) = run_timed(job, |_| {}, "harness.run", spans);
    let mut ops = Ops { attempted: 1, ..Ops::default() };
    let mut counts = run_counts(&result);
    let label = &job.label;
    if let Some(e) = &result.protocol_error {
        ops.fail(format!("{label}: protocol error: {e}"), true);
    }
    let ((), analysis_s) = spans.time("analysis", |sp| {
        if result.observer.is_some() {
            ops.attempted += 1;
            match sp.time("causality.verify", |_| result.verify_consistency()).0 {
                Ok(k) => counts.verified += k,
                Err(e) => ops.fail(format!("{label}: verify_consistency: {e}"), true),
            }
        }
        if job.faulted() {
            ops.attempted += 1;
            match sp.time("core.recovery_analysis", |_| log_recovery_report(&result)).0 {
                Ok(rep) => {
                    counts.orphans += rep.orphans;
                    counts.lost_in_transit += rep.lost_in_transit;
                }
                Err(e) => ops.fail(format!("{label}: log_recovery_report: {e}"), false),
            }
        }
        if result.trace.is_enabled() {
            ops.attempted += 1;
            let text = sp.time("telemetry.export", |_| result.trace_jsonl()).0;
            counts.trace_bytes += text.len() as u64;
            match sp.time("telemetry.parse", |_| parse_jsonl(&text)).0 {
                Ok(file) => {
                    let (h, c, t) = sp
                        .time("telemetry.observatory", |_| {
                            (health(&file), critical_path(&file), timeline(&file, DEFAULT_BUCKETS))
                        })
                        .0;
                    if h.events != file.recs.len() as u64 || c.n != result.n || t.n != result.n {
                        ops.fail(format!("{label}: observatory disagrees with the trace"), true);
                    }
                    for part in [h.to_json(), c.to_folded(), t.to_json()] {
                        counts.digest = fnv(counts.digest, part.as_bytes());
                    }
                }
                Err(e) => {
                    counts.readback_failures += 1;
                    ops.fail(format!("{label}: parse_jsonl: {e}"), false);
                }
            }
        }
    });
    let starts = (spans.is_on() && result.trace.is_enabled()).then(|| storage_starts(&result));
    JobOut { run_s, analysis_s, heap_peak, counts, ops, starts }
}

/// A twin of `job` with one `RunConfig` switch changed: the run only,
/// no analysis. Returns run seconds, peak heap growth and, when the twin
/// records a trace, its storage starts.
pub fn run_twin(
    job: &Job,
    tweak: impl FnOnce(&mut RunConfig),
    spans: &mut Spans,
) -> (f64, u64, Option<Vec<Start>>) {
    let (result, run_s, heap) = run_timed(job, tweak, "twin.run", spans);
    let starts = result.trace.is_enabled().then(|| storage_starts(&result));
    (run_s, heap, starts)
}

/// The deterministic numbers of one run.
fn run_counts(r: &RunResult) -> Counts {
    let mut c = Counts {
        runs: 1,
        app_msgs: r.app_messages,
        ctrl_msgs: r.ctrl_messages,
        piggyback_bytes: r.piggyback_bytes,
        sim_events: r.sim_events,
        peak_pending: r.peak_pending,
        storage_writes: r.storage.total_requests,
        storage_bytes: r.storage.total_bytes,
        peak_writers: r.storage.peak_writers.max(0) as u64,
        stall_ns: r.storage.total_stall.as_nanos(),
        complete_rounds: r.complete_rounds,
        digest: fnv(FNV_OFFSET, r.metrics_json().as_bytes()),
        ..Counts::default()
    };
    let pids = || ProcessId::all(r.n);
    for s in r.round_stats.iter().filter(|s| s.completes == r.n) {
        c.round_ns.push(s.latency_ns());
        let durable: Option<Vec<u64>> =
            pids().map(|p| r.store.get(p, s.seq).map(|k| k.durable_at.as_nanos())).collect();
        if let Some(last) = durable.and_then(|d| d.into_iter().max()) {
            c.durable_ns.push(last.saturating_sub(s.first_snapshot_ns));
        }
    }
    let top = r.round_stats.iter().map(|s| s.seq).max().unwrap_or(0).max(r.recovery_line);
    for csn in 1..=top {
        for p in pids() {
            c.log_bytes += r.store.get(p, csn).map_or(0, |k| k.log.len() as u64);
        }
    }
    c
}

/// Merge per-run counts in run order.
pub fn merge(parts: impl IntoIterator<Item = Counts>) -> Counts {
    let mut all = Counts { digest: FNV_OFFSET, ..Counts::default() };
    for c in parts {
        all.absorb(c);
    }
    all
}

/// The run's `storage_start` records, read from the flight recorder: the
/// byte count is the second word of the record's detail.
fn storage_starts(r: &RunResult) -> Vec<Start> {
    r.trace
        .of_kind(TraceKind::StorageStart)
        .map(|e| {
            let bytes = e
                .detail
                .split_whitespace()
                .nth(1)
                .and_then(|w| w.strip_suffix('B'))
                .and_then(|w| w.parse().ok())
                .expect("storage_start detail is `<kind> <bytes>B writers=<k>`");
            (e.at.as_nanos(), e.pid.0, bytes)
        })
        .collect()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// The process's peak resident set, MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    proc_status_kb("VmHWM:") / 1024.0
}

fn proc_status_kb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0.0)
}
