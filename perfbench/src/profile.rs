//! The profiled pass: one pass over the workload with a span around every
//! public call, then twin runs that toggle one `RunConfig` switch each and
//! a replay of the run's storage writes through `StorageServer`. It yields
//! the per-layer metrics; the end-to-end metrics come from the timed pass.

use std::collections::BTreeMap;

use ocpt_sim::{ProcessId, SimDuration, SimTime, StorageReqId};
use ocpt_storage::{StorageConfig, StorageServer};

use crate::spans::{SpanTotals, Spans};
use crate::workload::{merge, run_job, run_twin, Counts, Job, Ops, Start};

/// A named metric value with its unit.
pub type Metric = (&'static str, f64, &'static str);

/// What the profiled pass measured.
pub struct Profile {
    /// The per-layer metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Totals and self times per span name.
    pub spans: BTreeMap<&'static str, SpanTotals>,
    /// Deterministic outputs of the profiled pass (must equal the plain
    /// pass's).
    pub counts: Counts,
    /// Operation tally of the profiled pass.
    pub ops: Ops,
    /// Mismatches the replay and the twins found.
    pub wrong: Vec<String>,
}

/// Run the profiled pass over `jobs`. `plain_wall_s` is the wall time of
/// an unprofiled pass over the same jobs, for the overhead figure.
pub fn profiled_pass(jobs: &[Job], plain_wall_s: f64) -> Profile {
    let mut sp = Spans::on();
    let mut outs = Vec::with_capacity(jobs.len());
    let ((), wall_s) = sp.time("pass", |sp| {
        for job in jobs {
            outs.push(sp.time("job", |sp| run_job(job, sp)).0);
        }
    });

    let mut wrong = Vec::new();
    let (mut observer_s, mut recorder_s, mut primary_recorder_s) = (0.0, 0.0, 0.0);
    let mut observer_heap = 0u64;
    let mut replay_writes = 0u64;
    for (job, out) in jobs.iter().zip(&mut outs) {
        let cfg = job.config();
        if cfg.observe {
            let (run_s, heap, _) =
                sp.time("twin.observe_off", |sp| run_twin(job, |c| c.observe = false, sp)).0;
            observer_s += out.run_s - run_s;
            observer_heap = observer_heap.max(out.heap_peak.saturating_sub(heap));
        }
        let (run_s, _, twin_starts) =
            sp.time("twin.recorder_toggled", |sp| run_twin(job, |c| c.trace = !c.trace, sp)).0;
        if cfg.trace {
            recorder_s += out.run_s - run_s;
            primary_recorder_s += out.run_s - run_s;
        } else {
            recorder_s += run_s - out.run_s;
        }
        let starts =
            out.starts.take().or(twin_starts).expect("one run of the pair records a trace");
        if starts.len() as u64 != out.counts.storage_writes {
            wrong.push(format!(
                "{}: {} storage_start records for {} writes",
                job.label,
                starts.len(),
                out.counts.storage_writes
            ));
        }
        // The untimed first replay absorbs allocator work left over from
        // dropping the twin's result; the second is the measurement.
        let warm = replay(cfg.storage, &starts);
        let completed = sp.time("storage.replay", |_| replay(cfg.storage, &starts)).0;
        if warm != starts.len() || completed != starts.len() {
            wrong.push(format!("{}: replay completed {completed} of {}", job.label, starts.len()));
        }
        replay_writes += starts.len() as u64;
    }

    let counts = merge(outs.iter().map(|o| o.counts.clone()));
    let mut ops = Ops::default();
    for o in outs {
        ops.absorb(o.ops);
    }
    let run_s = sp.total_s("harness.run");
    let replay_s = sp.total_s("storage.replay");
    let c = &counts;
    let msgs = (c.app_msgs + c.ctrl_msgs).max(1) as f64;
    let metrics = vec![
        ("harness.run_s", run_s, "s"),
        ("harness.runs", c.runs as f64, "count"),
        ("harness.unattributed_s", run_s - observer_s - primary_recorder_s, "s"),
        ("sim.events", c.sim_events as f64, "count"),
        ("sim.events_per_msg", c.sim_events as f64 / msgs, "events/msg"),
        ("sim.peak_pending", c.peak_pending as f64, "count"),
        ("sim.recorder_s", recorder_s, "s"),
        ("storage.writes", c.storage_writes as f64, "count"),
        ("storage.bytes", c.storage_bytes as f64, "B"),
        ("storage.peak_writers", c.peak_writers as f64, "count"),
        ("storage.replay_s", replay_s, "s"),
        ("storage.replay_ns_per_write", replay_s * 1e9 / replay_writes.max(1) as f64, "ns"),
        ("core.ctrl_msgs", c.ctrl_msgs as f64, "count"),
        ("core.piggyback_bytes", c.piggyback_bytes as f64, "B"),
        ("core.log_bytes", c.log_bytes as f64, "B"),
        ("core.recovery_analysis_s", sp.total_s("core.recovery_analysis"), "s"),
        ("core.orphans", c.orphans as f64, "count"),
        ("core.lost_in_transit", c.lost_in_transit as f64, "count"),
        ("causality.observer_s", observer_s, "s"),
        ("causality.observer_rss_mb", observer_heap as f64 / MIB, "MiB"),
        ("causality.verify_s", sp.total_s("causality.verify"), "s"),
        ("telemetry.trace_mb", c.trace_bytes as f64 / MIB, "MiB"),
        ("telemetry.export_s", sp.total_s("telemetry.export"), "s"),
        ("telemetry.parse_s", sp.total_s("telemetry.parse"), "s"),
        ("telemetry.observatory_s", sp.total_s("telemetry.observatory"), "s"),
        ("telemetry.readback_failures", c.readback_failures as f64, "count"),
        ("failed_op_share", ops.failed as f64 / ops.attempted.max(1) as f64, "share"),
        ("profile.overhead_share", (wall_s - plain_wall_s) / plain_wall_s, "share"),
    ];
    Profile { metrics, spans: sp.totals(), counts, ops, wrong }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Replay `starts` (in recorded order) through a fresh server with one
/// wakeup per completion, draining every write. Returns the number of
/// completed writes.
fn replay(cfg: StorageConfig, starts: &[Start]) -> usize {
    let mut server = StorageServer::new(cfg);
    let mut next = starts.iter().enumerate().peekable();
    let mut completed = 0;
    loop {
        let due = server.next_completion();
        match (next.peek(), due) {
            (Some(&(i, &(at, pid, bytes))), _) if due.is_none_or(|d| at <= d.as_nanos()) => {
                let req = StorageReqId(i as u64);
                server.submit(SimTime::from_nanos(at), ProcessId(pid), req, bytes);
                next.next();
            }
            (_, Some(d)) => {
                // The completion estimate is floating-point; +1 ns makes
                // sure the wakeup lands at or after the write finishes.
                server.advance(d + SimDuration::from_nanos(1));
                completed += server.take_completed().len();
            }
            (None, None) => return completed,
            (Some(_), None) => unreachable!("a pending start is always taken without a due write"),
        }
    }
}
