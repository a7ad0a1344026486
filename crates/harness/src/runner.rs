//! The simulation driver: runs any [`CheckpointProtocol`] over the
//! deterministic DES kernel, the stable-storage model and a workload,
//! collecting every metric the experiments report.
//!
//! One `Runner` = one run = one (algorithm, workload, seed) triple. The
//! driver owns everything the protocol must not see: the virtual clock,
//! the network, application state, the storage server and the omniscient
//! consistency observer.

use std::collections::{BTreeMap, HashMap};

use ocpt_baselines::api::{wire_cost, CheckpointProtocol, ProtoAction};
use ocpt_causality::GlobalObserver;
use ocpt_core::AppSnapshot;
use ocpt_metrics::{Counters, Summary};
use ocpt_sim::{
    Event, FaultPlan, MsgId, Network, ProcessId, Scheduler, SchedulerKind, SimConfig, SimDuration,
    SimRng, SimTime, StorageReqId, TimerId, Trace, TraceKind,
};
use ocpt_storage::{CheckpointStore, StorageConfig, StorageServer, StoredCheckpoint};

use crate::workload::{WorkloadSpec, WorkloadState};

/// Tick discriminators.
const TICK_SEND: u64 = 1;
const TICK_CKPT: u64 = 2;

/// Simulated memory bandwidth for state capture (bytes/sec); used to charge
/// the latency of taking a snapshot (and of CIC's forced checkpoints before
/// message processing).
const CAPTURE_BW_BPS: f64 = 4.0e9;

/// Configuration of one run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// System size, seed, delays, FIFO-ness, horizon.
    pub sim: SimConfig,
    /// Application traffic.
    pub workload: WorkloadSpec,
    /// Period of driver-triggered checkpoint initiations;
    /// `SimDuration::MAX` disables checkpointing entirely.
    pub checkpoint_interval: SimDuration,
    /// Offset each process's initiation phase by `i/n` of the interval
    /// (used for uncoordinated checkpointing; coordinated algorithms
    /// ignore non-coordinator ticks anyway).
    pub stagger_initiation: bool,
    /// Stable-storage server parameters.
    pub storage: StorageConfig,
    /// Declared size of a process state image.
    pub state_bytes: u64,
    /// Workload generation stops at this virtual time; the run then
    /// quiesces (protocol timers and control traffic may continue).
    pub workload_duration: SimDuration,
    /// Injected failures.
    pub faults: FaultPlan,
    /// Stop the run at the first crash (recovery analysed offline).
    pub stop_on_crash: bool,
    /// Garbage-collect durable checkpoints older than the recovery line
    /// (the paper: "all checkpoints taken before the latest committed
    /// global checkpoint can be deleted to save space"). Off by default so
    /// post-run analysis can inspect the full history.
    pub gc_old_checkpoints: bool,
    /// Record a trace (event-by-event; for tests and examples).
    pub trace: bool,
    /// Feed the consistency observer. Its memory is O(N²) words of
    /// per-process clocks, one fixed-size record per message and one
    /// clock per in-flight message; on for tests, off for the largest
    /// benches.
    pub observe: bool,
    /// Which event-queue implementation drives the run (the timing wheel
    /// by default; the reference heap exists for differential testing —
    /// both produce byte-identical runs).
    pub scheduler: SchedulerKind,
}

impl RunConfig {
    /// A reasonable default run: given size and seed, uniform-mesh
    /// workload, 1 s checkpoint interval, 5 s of workload.
    pub fn new(n: usize, seed: u64) -> Self {
        RunConfig {
            sim: SimConfig::new(n, seed).with_horizon(SimDuration::from_secs(60)),
            workload: WorkloadSpec::uniform_mesh(SimDuration::from_millis(5)),
            checkpoint_interval: SimDuration::from_secs(1),
            // Decentralized algorithms have no synchronized clocks, so the
            // realistic default offsets each process's initiation phase by
            // i/n of the interval. Coordinator-based algorithms only act on
            // the coordinator's tick (phase 0), so this is harmless there.
            stagger_initiation: true,
            storage: StorageConfig::default_nfs(),
            state_bytes: 4 * 1024 * 1024,
            workload_duration: SimDuration::from_secs(5),
            faults: FaultPlan::none(),
            stop_on_crash: true,
            gc_old_checkpoints: false,
            trace: false,
            observe: true,
            scheduler: SchedulerKind::default(),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum WriteKind {
    State,
    Extra,
}

/// Run-loop control flow returned by event dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Flow {
    Continue,
    Break,
}

#[derive(Debug)]
struct PendingWrite {
    pid: ProcessId,
    seq: u64,
    kind: WriteKind,
    blob: bytes::Bytes,
    bytes: u64,
}

#[derive(Debug, Default)]
struct CkptProgress {
    snapshot: Option<AppSnapshot>,
    state_issued: bool,
    state_durable: bool,
    extra_issued: bool,
    extra_durable: bool,
    completed: bool,
    durable_recorded: bool,
    storage_done_notified: bool,
    state_blob: Option<bytes::Bytes>,
    log_blob: Option<bytes::Bytes>,
}

impl CkptProgress {
    fn writes_durable(&self) -> bool {
        (!self.state_issued || self.state_durable) && (!self.extra_issued || self.extra_durable)
    }
    fn fully_durable(&self) -> bool {
        self.completed && self.state_issued && self.writes_durable()
    }
}

/// Storage-side results of a run.
#[derive(Clone, Copy, Debug)]
pub struct StorageReport {
    /// Peak concurrent writers at the stable storage — the paper's
    /// headline contention number.
    pub peak_writers: i64,
    /// Time-weighted mean concurrent writers.
    pub mean_writers: f64,
    /// Total time ≥ 2 writers were active.
    pub contended_time: SimDuration,
    /// Sum over writes of (actual − contention-free) latency.
    pub total_stall: SimDuration,
    /// Mean write latency in seconds.
    pub write_latency_mean: f64,
    /// Max write latency in seconds.
    pub write_latency_max: f64,
    /// Total bytes written.
    pub total_bytes: u64,
    /// Total write requests.
    pub total_requests: u64,
}

/// Per-round completion statistics, one entry per checkpoint round the
/// run observed (surviving recovery rollback: rounds discarded by a
/// rollback past them are dropped with the rest of their bookkeeping).
/// The observatory's health reports build their round-latency
/// percentiles from these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundStat {
    /// Checkpoint round (CSN).
    pub seq: u64,
    /// Virtual time of the first tentative snapshot of the round.
    pub first_snapshot_ns: u64,
    /// Virtual time of the last per-process completion seen.
    pub last_complete_ns: u64,
    /// Processes that completed the round (== n when globally complete).
    pub completes: usize,
}

impl RoundStat {
    /// First snapshot → last completion, nanoseconds (0 when the clocks
    /// are inconsistent, which a correct run never produces).
    pub fn latency_ns(&self) -> u64 {
        self.last_complete_ns.saturating_sub(self.first_snapshot_ns)
    }
}

/// Everything a run produces.
#[derive(Debug)]
pub struct RunResult {
    /// Algorithm name.
    pub algo: &'static str,
    /// Number of processes.
    pub n: usize,
    /// The seed the run was driven by (trace/metrics provenance).
    pub seed: u64,
    /// The event-queue implementation that drove the run.
    pub scheduler: SchedulerKind,
    /// Driver counters merged with per-process protocol counters.
    pub counters: Counters,
    /// Application messages sent.
    pub app_messages: u64,
    /// Application payload bytes sent.
    pub app_payload_bytes: u64,
    /// Bytes added to application messages by piggybacks.
    pub piggyback_bytes: u64,
    /// Protocol (control) messages sent.
    pub ctrl_messages: u64,
    /// Bytes of control traffic.
    pub ctrl_bytes: u64,
    /// Virtual time when the run quiesced.
    pub makespan: SimTime,
    /// Total time application sends were blocked by the protocol.
    pub blocked_time: SimDuration,
    /// Total pre-processing delay from forced checkpoints.
    pub forced_delay: SimDuration,
    /// Checkpoint completion latency (first snapshot of round → last
    /// completion of round), seconds, over complete rounds.
    pub ckpt_latency: Summary,
    /// Per-round completion statistics, ascending by `seq` (the raw
    /// material `ckpt_latency` summarizes, kept per round for the
    /// observatory's percentile reports).
    pub round_stats: Vec<RoundStat>,
    /// Rounds completed by every process.
    pub complete_rounds: u64,
    /// Greatest sequence number durable on all processes.
    pub recovery_line: u64,
    /// Peak bytes staged in volatile memory.
    pub staging_peak: u64,
    /// Storage metrics.
    pub storage: StorageReport,
    /// The consistency oracle (when `observe` was on).
    pub observer: Option<GlobalObserver>,
    /// Durable checkpoint store (blobs for recovery analysis).
    pub store: CheckpointStore,
    /// Final application state per process.
    pub app_final: Vec<AppSnapshot>,
    /// Ground-truth application state at each checkpoint's cut,
    /// keyed by `(pid, seq)` — what a correct recovery must restore.
    /// Ordered map: consumers may iterate it straight into reports.
    pub cut_states: BTreeMap<(u32, u64), AppSnapshot>,
    /// Live protocol instances' snapshot of checkpoint counts etc. is in
    /// `counters`; the trace is here when enabled.
    pub trace: Trace,
    /// First crash, if any was injected.
    pub crash: Option<(ProcessId, SimTime)>,
    /// Fatal protocol error (impossible paper sub-case reached) — tests
    /// assert this is `None`.
    pub protocol_error: Option<String>,
    /// Simulator events dispatched over the whole run.
    pub sim_events: u64,
    /// Peak in-flight event population (high-water mark of the
    /// scheduler's pending count). Kind-independent: both scheduler
    /// implementations observe the same pending count at every step.
    pub peak_pending: u64,
    /// High-water mark of the timing wheel's payload-arena occupancy —
    /// peak physical slots, including tombstoned corpses awaiting lazy
    /// reclamation. Implementation telemetry: 0 under the reference
    /// heap, and `>= peak_pending` under the wheel.
    pub arena_hwm: u64,
    /// Events scheduled into the past and clamped to `now` (release-build
    /// timing-model bug detector; always 0 in debug builds, which panic).
    pub clamped_events: u64,
    /// In-flight message deliveries discarded because their destination
    /// crashed (fail-stop) before they arrived.
    pub messages_lost_at_crash: u64,
    /// Wall-clock seconds the run took (self-measurement, not sim time).
    pub wall_secs: f64,
}

impl RunResult {
    /// Simulator throughput: events dispatched per wall-clock second.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.sim_events as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Serialize the recorded trace as versioned `ocpt-trace` JSONL
    /// (DESIGN.md §8). With tracing disabled this is a header declaring
    /// zero events. Byte-deterministic: a pure function of
    /// `(config, seed)`, regardless of `--jobs` or [`SchedulerKind`].
    pub fn trace_jsonl(&self) -> String {
        let meta =
            ocpt_telemetry::TraceMeta { algo: self.algo.to_string(), n: self.n, seed: self.seed };
        ocpt_telemetry::to_jsonl(&meta, self.trace.events())
    }

    /// The run's metrics snapshot as one deterministic JSON object:
    /// headline numbers, the storage report, checkpoint-latency summary
    /// and every counter. Wall-clock self-measurements (`wall_secs`,
    /// events/sec) are deliberately excluded so the snapshot, like the
    /// trace, is a pure function of `(config, seed)` — except the
    /// `scheduler` stamp and `arena_hwm`, which identify (and are
    /// telemetry of) the event-queue implementation that drove the run.
    pub fn metrics_json(&self) -> String {
        use ocpt_telemetry::json::Obj;
        let mut counters = Obj::new();
        for (k, v) in self.counters.iter() {
            counters = counters.u64(k, v);
        }
        let latency = Obj::new()
            .u64("count", self.ckpt_latency.count())
            .f64("mean_s", self.ckpt_latency.mean())
            .f64("min_s", self.ckpt_latency.min())
            .f64("max_s", self.ckpt_latency.max())
            .f64("stddev_s", self.ckpt_latency.stddev())
            .finish();
        let storage = Obj::new()
            .u64("peak_writers", self.storage.peak_writers.max(0) as u64)
            .f64("mean_writers", self.storage.mean_writers)
            .f64("contended_s", self.storage.contended_time.as_secs_f64())
            .f64("total_stall_s", self.storage.total_stall.as_secs_f64())
            .f64("write_latency_mean_s", self.storage.write_latency_mean)
            .f64("write_latency_max_s", self.storage.write_latency_max)
            .u64("total_bytes", self.storage.total_bytes)
            .u64("total_requests", self.storage.total_requests)
            .finish();
        Obj::new()
            .str("schema", "ocpt-metrics")
            .u64("version", 2)
            .str("algo", self.algo)
            .u64("n", self.n as u64)
            .u64("seed", self.seed)
            .str("scheduler", self.scheduler.name())
            .u64("makespan_ns", self.makespan.as_nanos())
            .u64("app_messages", self.app_messages)
            .u64("app_payload_bytes", self.app_payload_bytes)
            .u64("piggyback_bytes", self.piggyback_bytes)
            .u64("ctrl_messages", self.ctrl_messages)
            .u64("ctrl_bytes", self.ctrl_bytes)
            .f64("blocked_s", self.blocked_time.as_secs_f64())
            .f64("forced_delay_s", self.forced_delay.as_secs_f64())
            .u64("complete_rounds", self.complete_rounds)
            .u64("recovery_line", self.recovery_line)
            .u64("staging_peak", self.staging_peak)
            .u64("sim_events", self.sim_events)
            .u64("peak_pending", self.peak_pending)
            .u64("arena_hwm", self.arena_hwm)
            .raw("ckpt_latency", &latency)
            .raw("storage", &storage)
            .raw("counters", &counters.finish())
            .finish()
            + "\n"
    }

    /// Check every complete global checkpoint for consistency against both
    /// oracles. Returns the number of checkpoints verified.
    pub fn verify_consistency(&self) -> Result<u64, String> {
        let obs = self.observer.as_ref().ok_or("run had observe=false")?;
        let mut checked = 0;
        for csn in obs.complete_csns() {
            let report = obs.judge(csn).expect("complete csn must judge");
            if !report.is_consistent() {
                return Err(format!(
                    "S_{csn} inconsistent: {} orphan(s), e.g. {:?}",
                    report.orphans.len(),
                    report.orphans.first()
                ));
            }
            if obs.vclock_consistent(csn) != Some(true) {
                return Err(format!("S_{csn}: vclock oracle disagrees"));
            }
            checked += 1;
        }
        Ok(checked)
    }
}

/// The driver.
pub struct Runner<P: CheckpointProtocol> {
    cfg: RunConfig,
    procs: Vec<P>,
    app: Vec<AppSnapshot>,
    /// App state before each process's most recent event (for cuts that
    /// step one event back).
    prev_app: Vec<AppSnapshot>,
    /// App state at each checkpoint's consistency cut — the ground truth
    /// the recovery tests compare restored states against.
    cut_states: BTreeMap<(u32, u64), AppSnapshot>,
    crashed: Vec<bool>,
    sched: Scheduler<P::Env>,
    net: Network,
    server: StorageServer,
    store: CheckpointStore,
    observer: Option<GlobalObserver>,
    trace: Trace,
    wl: Vec<WorkloadState>,
    wl_rng: Vec<SimRng>,
    next_msg: u64,
    next_req: u64,
    timers: Vec<HashMap<u64, TimerId>>,
    pending_writes: HashMap<StorageReqId, PendingWrite>,
    /// Each process writes over one connection: at most one of its
    /// requests is at the server; the rest wait here in FIFO order.
    write_queue: Vec<std::collections::VecDeque<PendingWrite>>,
    write_busy: Vec<bool>,
    /// Per-checkpoint write progress. Iterated (`retain`) during recovery
    /// rollback, so ordered — `timers`/`pending_writes` above stay hashed
    /// because they are only ever point-accessed by key.
    progress: BTreeMap<(u32, u64), CkptProgress>,
    counters: Counters,
    blocked_since: Vec<Option<SimTime>>,
    blocked_time: SimDuration,
    forced_delay: SimDuration,
    /// Round-latency bookkeeping. `complete_count` is *iterated* in
    /// `finish` and `ckpt_latency` folds floats in that order, so these
    /// must be ordered maps for byte-identical reports.
    first_snapshot_at: BTreeMap<u64, SimTime>,
    last_complete_at: BTreeMap<u64, SimTime>,
    complete_count: BTreeMap<u64, usize>,
    staged_now: u64,
    staging_peak: u64,
    app_payload_bytes: u64,
    piggyback_bytes: u64,
    ctrl_messages: u64,
    ctrl_bytes: u64,
    crash: Option<(ProcessId, SimTime)>,
    protocol_error: Option<String>,
    algo: &'static str,
    /// Reusable action buffer: every protocol callback fills it and
    /// `execute` drains it, so the dispatch loop allocates nothing at
    /// steady state (callbacks never nest — actions only schedule).
    scratch: Vec<ProtoAction<P::Env>>,
}

impl<P: CheckpointProtocol> Runner<P> {
    /// Build a runner; `make` constructs the protocol instance per process.
    pub fn new(cfg: RunConfig, make: impl Fn(ProcessId, usize, u64) -> P) -> Self {
        cfg.sim.validate().expect("invalid sim config");
        cfg.faults.validate(cfg.sim.n).expect("invalid fault plan");
        let n = cfg.sim.n;
        let seed = cfg.sim.seed;
        let procs: Vec<P> = ProcessId::all(n).map(|p| make(p, n, seed)).collect();
        let fifo_needed = procs.iter().any(|p| p.needs_fifo());
        let fifo = cfg.sim.fifo || fifo_needed;
        let algo = procs[0].name();
        Runner {
            app: ProcessId::all(n)
                .map(|p| AppSnapshot::initial(p.0 as u64, cfg.state_bytes))
                .collect(),
            prev_app: ProcessId::all(n)
                .map(|p| AppSnapshot::initial(p.0 as u64, cfg.state_bytes))
                .collect(),
            cut_states: BTreeMap::new(),
            crashed: vec![false; n],
            sched: Scheduler::with_kind(cfg.scheduler),
            net: Network::new(n, cfg.sim.delay, fifo, seed),
            server: StorageServer::new(cfg.storage),
            store: CheckpointStore::new(n),
            observer: cfg.observe.then(|| GlobalObserver::new(n)),
            trace: if cfg.trace { Trace::enabled() } else { Trace::disabled() },
            wl: (0..n).map(|_| WorkloadState::new(cfg.workload)).collect(),
            wl_rng: (0..n).map(|i| SimRng::derive(seed, 0x574C ^ (i as u64) << 8)).collect(),
            next_msg: 0,
            next_req: 0,
            timers: vec![HashMap::new(); n],
            pending_writes: HashMap::new(),
            write_queue: (0..n).map(|_| std::collections::VecDeque::new()).collect(),
            write_busy: vec![false; n],
            progress: BTreeMap::new(),
            counters: Counters::new(),
            blocked_since: vec![None; n],
            blocked_time: SimDuration::ZERO,
            forced_delay: SimDuration::ZERO,
            first_snapshot_at: BTreeMap::new(),
            last_complete_at: BTreeMap::new(),
            complete_count: BTreeMap::new(),
            staged_now: 0,
            staging_peak: 0,
            app_payload_bytes: 0,
            piggyback_bytes: 0,
            ctrl_messages: 0,
            ctrl_bytes: 0,
            crash: None,
            protocol_error: None,
            procs,
            cfg,
            algo,
            scratch: Vec::new(),
        }
    }

    fn capture_delay(&self) -> SimDuration {
        SimDuration::from_secs_f64(self.cfg.state_bytes as f64 / CAPTURE_BW_BPS)
    }

    /// Execute the whole run.
    pub fn run(mut self) -> RunResult {
        // simlint: allow(wall-clock, "wall-clock self-measurement of the runner; never feeds simulation state")
        let wall_start = std::time::Instant::now();
        let n = self.cfg.sim.n;
        // Faults.
        for f in self.cfg.faults.faults() {
            self.sched.schedule_at(f.at, Event::Crash { pid: f.pid });
            if let Some(d) = f.down_for {
                self.sched.schedule_at(f.at + d, Event::Recover { pid: f.pid });
            }
        }
        // First workload sends.
        for pid in ProcessId::all(n) {
            let gap = self.wl[pid.index()].next_gap(&mut self.wl_rng[pid.index()]);
            self.sched.schedule_after(gap, Event::Tick { pid, kind: TICK_SEND });
        }
        // Checkpoint initiations.
        if self.cfg.checkpoint_interval != SimDuration::MAX {
            for pid in ProcessId::all(n) {
                let phase = if self.cfg.stagger_initiation {
                    self.cfg.checkpoint_interval * pid.0 as u64 / n as u64
                } else {
                    SimDuration::ZERO
                };
                self.sched.schedule_after(
                    self.cfg.checkpoint_interval + phase,
                    Event::Tick { pid, kind: TICK_CKPT },
                );
            }
        }

        let hard_stop = SimTime::ZERO + self.cfg.sim.horizon;
        // Batched delivery windows: every pop opens a `(now, target)`
        // window, and `pop_matching` drains every further event of the
        // same instant and process as one batch — one trip through the
        // loop preamble per window instead of per event. Only the front
        // event can ever match, so the `(at, seq)` dispatch order (and
        // with it every trace byte) is untouched. Faults dispatch alone:
        // they mutate `crashed`/purge the queue, which must not happen
        // mid-window.
        'run: while let Some((now, ev)) = self.sched.pop() {
            if now > hard_stop {
                self.counters.inc("run.hit_horizon");
                break;
            }
            if self.protocol_error.is_some() {
                break;
            }
            let window = (!ev.is_fault()).then(|| ev.target());
            if self.dispatch(now, ev) == Flow::Break {
                break;
            }
            if let Some(pid) = window {
                while self.protocol_error.is_none() {
                    let Some(ev) = self.sched.pop_matching(now, pid) else {
                        break;
                    };
                    if self.dispatch(now, ev) == Flow::Break {
                        break 'run;
                    }
                }
            }
        }
        self.finish(wall_start)
    }

    /// Dispatch one popped event. Returns [`Flow::Break`] when the run
    /// loop must stop (crash with `stop_on_crash`, failed recovery).
    fn dispatch(&mut self, now: SimTime, ev: Event<P::Env>) -> Flow {
        match ev {
            Event::Tick { pid, kind: TICK_SEND } => self.on_send_tick(now, pid),
            Event::Tick { pid, kind: TICK_CKPT } => self.on_ckpt_tick(now, pid),
            Event::Tick { .. } => unreachable!("unknown tick"),
            Event::Deliver { src, dst, msg_id, msg } => self.on_deliver(now, src, dst, msg_id, msg),
            Event::Timer { pid, tag, .. } => {
                if self.crashed[pid.index()] {
                    return Flow::Continue;
                }
                self.timers[pid.index()].remove(&tag);
                let mut out = std::mem::take(&mut self.scratch);
                self.procs[pid.index()].on_timer(tag, &mut out);
                self.execute(now, pid, &mut out);
                self.scratch = out;
            }
            Event::StorageDone { .. } => self.pump_storage(now),
            Event::Crash { pid } => {
                self.counters.inc("fault.crashes");
                self.crashed[pid.index()] = true;
                self.crash.get_or_insert((pid, now));
                self.trace.record(now, pid, TraceKind::Crash, "fail-stop");
                // Volatile state (unfinalized tentative checkpoints and
                // in-memory logs) is lost.
                self.sched.drop_events_for(pid);
                if self.cfg.stop_on_crash {
                    return Flow::Break;
                }
            }
            Event::Recover { pid } => {
                self.counters.inc("fault.recover_events");
                self.trace.record(now, pid, TraceKind::Recover, "system rollback");
                if let Err(e) = self.perform_system_recovery(now, pid) {
                    self.protocol_error = Some(e);
                    return Flow::Break;
                }
            }
        }
        Flow::Continue
    }

    fn on_send_tick(&mut self, now: SimTime, pid: ProcessId) {
        if self.crashed[pid.index()] {
            return;
        }
        let workload_end = SimTime::ZERO + self.cfg.workload_duration;
        if now >= workload_end {
            return;
        }
        if !self.procs[pid.index()].can_send_app() {
            // Blocked by the protocol (Koo–Toueg phase 1): retry shortly
            // and account the delay.
            if self.blocked_since[pid.index()].is_none() {
                self.blocked_since[pid.index()] = Some(now);
            }
            self.counters.inc("app.send_deferred");
            self.sched.schedule_after(
                SimDuration::from_micros(200),
                Event::Tick { pid, kind: TICK_SEND },
            );
            return;
        }
        if let Some(t0) = self.blocked_since[pid.index()].take() {
            self.blocked_time += now - t0;
        }
        let n = self.cfg.sim.n;
        let rng = &mut self.wl_rng[pid.index()];
        let Some(dst) = self.wl[pid.index()].next_dst(n, pid, rng) else {
            return;
        };
        let len = self.wl[pid.index()].next_payload_len(rng);
        let msg_id = MsgId(self.next_msg);
        self.next_msg += 1;
        let payload = ocpt_core::AppPayload { id: msg_id.0, len };
        let mut out = std::mem::take(&mut self.scratch);
        let env = self.procs[pid.index()].wrap_app(dst, msg_id, payload, &mut out);
        if let Some(obs) = self.observer.as_mut() {
            obs.on_send(pid, msg_id);
        }
        self.prev_app[pid.index()] = self.app[pid.index()];
        self.app[pid.index()].apply_send(payload);
        let bytes = self.procs[pid.index()].env_wire_bytes(&env);
        self.app_payload_bytes += len as u64;
        self.piggyback_bytes += bytes - wire_cost::app(len, 0);
        self.counters.inc("app.messages");
        let at = self.net.send(now, pid, dst, bytes);
        if self.trace.is_enabled() {
            let tel = self.procs[pid.index()].env_telemetry(&env);
            self.trace.record_coded(
                now,
                pid,
                TraceKind::AppSend,
                TraceKind::AppSend.default_code(),
                tel.seq,
                format!("M{} -> {dst}", msg_id.0),
            );
        }
        self.sched.schedule_at(at, Event::Deliver { src: pid, dst, msg_id, msg: env });
        self.execute(now, pid, &mut out);
        self.scratch = out;
        // Draw the next send.
        let gap = self.wl[pid.index()].next_gap(&mut self.wl_rng[pid.index()]);
        self.sched.schedule_after(gap, Event::Tick { pid, kind: TICK_SEND });
    }

    fn on_ckpt_tick(&mut self, now: SimTime, pid: ProcessId) {
        if self.crashed[pid.index()] {
            return;
        }
        // Initiate only while at least one more interval of application
        // traffic remains, so no round is forced to converge in silence
        // (the convergence-in-silence behaviour has dedicated tests).
        let workload_end = SimTime::ZERO + self.cfg.workload_duration;
        if now + self.cfg.checkpoint_interval <= workload_end {
            let mut out = std::mem::take(&mut self.scratch);
            self.procs[pid.index()].initiate(&mut out);
            self.execute(now, pid, &mut out);
            self.scratch = out;
            self.sched
                .schedule_after(self.cfg.checkpoint_interval, Event::Tick { pid, kind: TICK_CKPT });
        }
    }

    fn on_deliver(
        &mut self,
        now: SimTime,
        src: ProcessId,
        dst: ProcessId,
        msg_id: MsgId,
        env: P::Env,
    ) {
        if self.crashed[dst.index()] {
            self.counters.inc("net.dropped_to_crashed");
            return;
        }
        let tel = if self.trace.is_enabled() {
            self.procs[dst.index()].env_telemetry(&env)
        } else {
            ocpt_baselines::api::EnvTelemetry::default()
        };
        let mut out = std::mem::take(&mut self.scratch);
        let res = self.procs[dst.index()].on_arrival(src, msg_id, env, &mut out);
        let delivered = match res {
            Ok(d) => d,
            Err(e) => {
                self.protocol_error = Some(e);
                out.clear();
                self.scratch = out;
                return;
            }
        };
        self.execute(now, dst, &mut out);
        if let Some(payload) = delivered {
            if let Some(obs) = self.observer.as_mut() {
                obs.on_recv(dst, msg_id);
            }
            self.prev_app[dst.index()] = self.app[dst.index()];
            self.app[dst.index()].apply_recv(payload);
            self.counters.inc("app.delivered");
            self.trace.record_coded_with(
                now,
                dst,
                TraceKind::AppRecv,
                TraceKind::AppRecv.default_code(),
                tel.seq,
                || format!("M{} <- {src}", msg_id.0),
            );
            if let Err(e) = self.procs[dst.index()].after_delivery(src, msg_id, payload, &mut out) {
                self.protocol_error = Some(e);
                out.clear();
                self.scratch = out;
                return;
            }
            self.execute(now, dst, &mut out);
        } else {
            self.trace.record_coded_with(
                now,
                dst,
                TraceKind::CtrlRecv,
                tel.code.unwrap_or(TraceKind::CtrlRecv.default_code()),
                tel.seq,
                || format!("from {src}"),
            );
        }
        self.scratch = out;
    }

    /// Full-system rollback recovery: every process restores the state of
    /// the durable recovery line `S_line`, in-flight messages are flushed,
    /// in-transit messages across the line are re-injected from the
    /// durable sender logs, and the workload resumes. The paper's model:
    /// finalized checkpoints with equal sequence number form a consistent
    /// global checkpoint (Theorem 2), so `S_line` is a correct restart
    /// point and rollback never cascades.
    fn perform_system_recovery(
        &mut self,
        now: SimTime,
        recovered: ProcessId,
    ) -> Result<(), String> {
        let n = self.cfg.sim.n;
        let line = self.store.recovery_line();
        self.trace.note(now, recovered, "recovery.line", format!("S_{line}"));
        self.counters.inc("recovery.performed");
        self.crashed[recovered.index()] = false;

        // Protocol support check first: algorithms without live recovery
        // fail fast here, before any state is touched.
        for pid in ProcessId::all(n) {
            self.procs[pid.index()].restore_from_line(line)?;
        }

        // The observer's pre-crash record is consumed here (to find the
        // in-transit messages), then replaced with a fresh epoch: events
        // beyond the rollback line are erased from history.
        let resend: Vec<(ProcessId, ProcessId, ocpt_core::AppPayload)> = if line > 0 {
            if let Some(obs) = self.observer.as_ref() {
                let report = obs.judge(line).ok_or("recovery line not judged")?;
                if !report.is_consistent() {
                    return Err(format!("recovery line S_{line} inconsistent?!"));
                }
                let mut v = Vec::new();
                for pid in ProcessId::all(n) {
                    let ckpt = self
                        .store
                        .get(pid, line)
                        .ok_or_else(|| format!("{pid}: no durable checkpoint {line}"))?;
                    let log = if ckpt.log.is_empty() {
                        ocpt_core::MessageLog::new()
                    } else {
                        ocpt_core::MessageLog::decode(ckpt.log.clone())
                            .ok_or("corrupt durable log")?
                    };
                    for e in log.sent() {
                        let crosses_line = report.in_transit.iter().any(|t| t.msg.0 == e.msg_id.0);
                        if !crosses_line {
                            continue;
                        }
                        // Only payload-carrying entries can regenerate the
                        // message. A determinant-only sender log (the
                        // receiver-based strategy) knows the send happened
                        // but has no bytes to re-inject — that in-transit
                        // message is lost, which is exactly what E10's
                        // `lost_in_transit` column counts.
                        if e.kind == ocpt_core::EntryKind::Payload {
                            v.push((pid, e.peer, e.payload));
                        } else {
                            self.counters.inc("recovery.resend_unavailable");
                            self.trace.record_coded(
                                now,
                                pid,
                                TraceKind::AppSend,
                                "recovery.resend_unavailable",
                                None,
                                format!("M{}", e.payload.id),
                            );
                        }
                    }
                }
                v.sort_by_key(|(src, dst, p)| (src.0, dst.0, p.id));
                v
            } else {
                Vec::new()
            }
        } else {
            Vec::new()
        };

        // Flush channels, timers and ticks; keep only future faults.
        self.sched.clear_except_faults();
        for t in &mut self.timers {
            t.clear();
        }
        // Obsolete in-flight storage work and post-line durable records.
        self.pending_writes.clear();
        for q in &mut self.write_queue {
            q.clear();
        }
        self.write_busy.iter_mut().for_each(|b| *b = false);
        let dropped = self.store.truncate_above(line);
        self.counters.add("recovery.checkpoints_invalidated", dropped as u64);
        self.progress.retain(|&(_, seq), _| seq <= line);
        self.cut_states.retain(|&(_, seq), _| seq <= line);
        self.first_snapshot_at.retain(|&seq, _| seq <= line);
        self.last_complete_at.retain(|&seq, _| seq <= line);
        self.complete_count.retain(|&seq, _| seq <= line);
        self.staged_now = 0;

        // Restore every process's application state.
        let mut lost_events = 0u64;
        for pid in ProcessId::all(n) {
            let restored = if line > 0 {
                let ckpt = self.store.get(pid, line).expect("checked above");
                let plan = ocpt_core::plan_recovery(line, ckpt.state.clone(), ckpt.log.clone())
                    .map_err(|e| format!("{pid}: {e}"))?;
                plan.restored
            } else {
                AppSnapshot::initial(pid.0 as u64, self.cfg.state_bytes)
            };
            lost_events +=
                self.app[pid.index()].counter - restored.counter.min(self.app[pid.index()].counter);
            self.app[pid.index()] = restored;
            self.prev_app[pid.index()] = restored;
            self.crashed[pid.index()] = false;
        }
        self.counters.add("recovery.events_lost", lost_events);

        // Fresh observation epoch.
        if self.observer.is_some() {
            self.observer = Some(GlobalObserver::new(n));
        }

        // Re-inject in-transit messages from the durable sender logs: the
        // send is already part of the restored sender state, so only the
        // network and the receiver see the message again.
        for (src, dst, payload) in resend {
            let Some(env) = self.procs[src.index()].replay_envelope(payload) else {
                continue;
            };
            let msg_id = MsgId(self.next_msg);
            self.next_msg += 1;
            if let Some(obs) = self.observer.as_mut() {
                obs.on_send(src, msg_id);
            }
            let bytes = self.procs[src.index()].env_wire_bytes(&env);
            let at = self.net.send(now, src, dst, bytes);
            self.sched.schedule_at(at, Event::Deliver { src, dst, msg_id, msg: env });
            self.counters.inc("recovery.resent_msgs");
            self.trace.record_coded(
                now,
                src,
                TraceKind::AppSend,
                "recovery.resend",
                None,
                format!("M{}", payload.id),
            );
        }

        // Resume: workload ticks and checkpoint ticks for everyone.
        for pid in ProcessId::all(n) {
            let gap = self.wl[pid.index()].next_gap(&mut self.wl_rng[pid.index()]);
            self.sched.schedule_after(gap, Event::Tick { pid, kind: TICK_SEND });
            if self.cfg.checkpoint_interval != SimDuration::MAX {
                self.sched.schedule_after(
                    self.cfg.checkpoint_interval,
                    Event::Tick { pid, kind: TICK_CKPT },
                );
            }
        }
        Ok(())
    }

    fn stage(&mut self, bytes: u64) {
        self.staged_now += bytes;
        self.staging_peak = self.staging_peak.max(self.staged_now);
    }

    fn unstage(&mut self, bytes: u64) {
        self.staged_now = self.staged_now.saturating_sub(bytes);
    }

    /// Apply every queued protocol action, draining (but not freeing)
    /// the buffer so callers can recycle it through `self.scratch`.
    fn execute(&mut self, now: SimTime, pid: ProcessId, actions: &mut Vec<ProtoAction<P::Env>>) {
        for a in actions.drain(..) {
            match a {
                ProtoAction::Snapshot { seq } => {
                    let snap = self.app[pid.index()];
                    self.progress.entry((pid.0, seq)).or_default().snapshot = Some(snap);
                    self.stage(self.cfg.state_bytes);
                    self.counters.inc("ckpt.snapshots");
                    self.first_snapshot_at.entry(seq).or_insert(now);
                    self.trace.record_seq_with(now, pid, TraceKind::TentativeCkpt, seq, || {
                        format!("CT({seq})")
                    });
                }
                ProtoAction::MarkCut { seq, back } => {
                    if let Some(obs) = self.observer.as_mut() {
                        let pos = obs.position(pid) - back as u64;
                        obs.on_finalize(pid, seq, pos, now);
                    }
                    let state =
                        if back == 0 { self.app[pid.index()] } else { self.prev_app[pid.index()] };
                    self.cut_states.insert((pid.0, seq), state);
                }
                ProtoAction::FlushState { seq } => {
                    let blob = {
                        let p = self.progress.entry((pid.0, seq)).or_default();
                        p.state_issued = true;
                        p.snapshot.expect("FlushState before Snapshot").encode()
                    };
                    self.submit_write(now, pid, seq, WriteKind::State, blob, self.cfg.state_bytes);
                }
                ProtoAction::FlushExtra { seq, bytes, log } => {
                    let blob = log.map(|l| l.encode()).unwrap_or_default();
                    self.progress.entry((pid.0, seq)).or_default().extra_issued = true;
                    self.stage(bytes);
                    self.submit_write(now, pid, seq, WriteKind::Extra, blob, bytes);
                }
                ProtoAction::Complete { seq } => {
                    let newly = {
                        let p = self.progress.entry((pid.0, seq)).or_default();
                        let newly = !p.completed;
                        p.completed = true;
                        newly
                    };
                    if newly {
                        let t = self.last_complete_at.get(&seq).copied().unwrap_or(now).max(now);
                        self.last_complete_at.insert(seq, t);
                        *self.complete_count.entry(seq).or_insert(0) += 1;
                        self.counters.inc("ckpt.completes");
                        self.trace.record_seq_with(now, pid, TraceKind::FinalizeCkpt, seq, || {
                            format!("C({seq})")
                        });
                        self.maybe_durable(now, pid, seq);
                    }
                }
                ProtoAction::Send { dst, env } => {
                    let bytes = self.procs[pid.index()].env_wire_bytes(&env);
                    self.ctrl_messages += 1;
                    self.ctrl_bytes += bytes;
                    let msg_id = MsgId(self.next_msg);
                    self.next_msg += 1;
                    let at = self.net.send(now, pid, dst, bytes);
                    if self.trace.is_enabled() {
                        let tel = self.procs[pid.index()].env_telemetry(&env);
                        self.trace.record_coded(
                            now,
                            pid,
                            TraceKind::CtrlSend,
                            tel.code.unwrap_or(TraceKind::CtrlSend.default_code()),
                            tel.seq,
                            format!("-> {dst}"),
                        );
                    }
                    self.sched.schedule_at(at, Event::Deliver { src: pid, dst, msg_id, msg: env });
                }
                ProtoAction::SetTimer { tag, delay } => {
                    let id = self.sched.set_timer(pid, delay, tag);
                    if let Some(old) = self.timers[pid.index()].insert(tag, id) {
                        self.sched.cancel_timer(old);
                    }
                }
                ProtoAction::CancelTimer { tag } => {
                    if let Some(id) = self.timers[pid.index()].remove(&tag) {
                        self.sched.cancel_timer(id);
                    }
                }
                ProtoAction::ForcedBeforeProcessing { .. } => {
                    self.counters.inc("ckpt.forced_before_processing");
                    self.forced_delay += self.capture_delay();
                }
            }
        }
    }

    fn submit_write(
        &mut self,
        now: SimTime,
        pid: ProcessId,
        seq: u64,
        kind: WriteKind,
        blob: bytes::Bytes,
        bytes: u64,
    ) {
        let w = PendingWrite { pid, seq, kind, blob, bytes };
        if self.write_busy[pid.index()] {
            // One connection per process: queue behind the in-flight write.
            self.write_queue[pid.index()].push_back(w);
            self.counters.inc("storage.writes_queued");
            return;
        }
        self.start_write(now, w);
    }

    fn start_write(&mut self, now: SimTime, w: PendingWrite) {
        let pid = w.pid;
        self.write_busy[pid.index()] = true;
        let req = StorageReqId(self.next_req);
        self.next_req += 1;
        self.server.submit(now, pid, req, w.bytes);
        self.counters.inc("storage.writes");
        // `in_flight()` is sampled right after submit, so the detail
        // records the concurrent-writer count *including* this write —
        // the contention signal the paper's E1 is about.
        let writers = self.server.in_flight();
        self.trace.record_coded_with(
            now,
            pid,
            TraceKind::StorageStart,
            TraceKind::StorageStart.default_code(),
            Some(w.seq),
            || format!("{:?} {}B writers={writers}", w.kind, w.bytes),
        );
        self.pending_writes.insert(req, w);
        self.schedule_storage_wakeup(now);
    }

    fn pump_storage(&mut self, now: SimTime) {
        self.server.advance(now);
        let completions = self.server.take_completed();
        for c in completions {
            let Some(w) = self.pending_writes.remove(&c.req) else {
                continue;
            };
            let released = match w.kind {
                WriteKind::State => self.cfg.state_bytes,
                WriteKind::Extra => w.bytes,
            };
            self.unstage(released);
            self.trace.record_seq_with(c.at, w.pid, TraceKind::StorageDone, w.seq, || {
                format!("{:?} {}B", w.kind, w.bytes)
            });
            let notify = {
                let p = self.progress.entry((w.pid.0, w.seq)).or_default();
                match w.kind {
                    WriteKind::State => {
                        p.state_durable = true;
                        p.state_blob = Some(w.blob);
                    }
                    WriteKind::Extra => {
                        p.extra_durable = true;
                        p.log_blob = Some(w.blob);
                    }
                }
                let notify = p.writes_durable() && !p.storage_done_notified;
                if notify {
                    p.storage_done_notified = true;
                }
                notify
            };
            if notify {
                let mut out = std::mem::take(&mut self.scratch);
                self.procs[w.pid.index()].on_storage_done(w.seq, &mut out);
                self.execute(now, w.pid, &mut out);
                self.scratch = out;
            }
            self.maybe_durable(now, w.pid, w.seq);
            // Free the connection and start the next queued write.
            self.write_busy[w.pid.index()] = false;
            if let Some(next) = self.write_queue[w.pid.index()].pop_front() {
                self.start_write(now, next);
            }
        }
        if self.server.in_flight() > 0 {
            self.schedule_storage_wakeup(now);
        }
    }

    /// Schedule the next storage wakeup. The completion estimate comes from
    /// floating-point bandwidth math, so it can round to an instant a hair
    /// *before* the write actually finishes; a +1ns margin (and never in
    /// the past) guarantees forward progress.
    fn schedule_storage_wakeup(&mut self, now: SimTime) {
        if let Some(t) = self.server.next_completion() {
            let at = (t + SimDuration::from_nanos(1)).max(now + SimDuration::from_nanos(1));
            self.sched.schedule_at(
                at,
                Event::StorageDone { pid: ProcessId::P0, req: StorageReqId(u64::MAX) },
            );
        }
    }

    fn maybe_durable(&mut self, now: SimTime, pid: ProcessId, seq: u64) {
        let blobs = {
            let p = self.progress.entry((pid.0, seq)).or_default();
            if p.fully_durable() && !p.durable_recorded {
                p.durable_recorded = true;
                Some((
                    p.state_blob.clone().unwrap_or_default(),
                    p.log_blob.clone().unwrap_or_default(),
                ))
            } else {
                None
            }
        };
        if let Some((state, log)) = blobs {
            self.store.put(StoredCheckpoint { pid, csn: seq, state, log, durable_at: now });
            self.counters.inc("ckpt.durable");
            if self.cfg.gc_old_checkpoints {
                let line = self.store.recovery_line();
                if line > 0 {
                    let dropped = self.store.gc_below(line);
                    self.counters.add("storage.gc_reclaimed", dropped as u64);
                }
            }
        }
    }

    // simlint: allow(wall-clock, "carries the runner's own wall-clock start; never feeds simulation state")
    fn finish(mut self, wall_start: std::time::Instant) -> RunResult {
        // Let any still-active storage writes complete "after the end" so
        // durability accounting is complete.
        while self.server.in_flight() > 0 {
            let t = self.server.next_completion().expect("in-flight implies completion");
            self.pump_storage(t + SimDuration::from_nanos(1));
        }
        let makespan = self.sched.now();
        let n = self.cfg.sim.n;
        let sim_events = self.sched.events_dispatched();
        let peak_pending = self.sched.peak_pending();
        let arena_hwm = self.sched.arena_stats().hwm;
        let clamped_events = self.sched.clamped_events();
        let messages_lost_at_crash = self.sched.messages_lost_at_crash();
        let mut counters = self.counters;
        if clamped_events > 0 {
            counters.add("sched.clamped_events", clamped_events);
        }
        if messages_lost_at_crash > 0 {
            counters.add("sched.messages_lost_at_crash", messages_lost_at_crash);
        }
        for p in &self.procs {
            counters.merge(p.stats());
        }
        let mut ckpt_latency = Summary::new();
        let mut complete_rounds = 0;
        let mut round_stats = Vec::with_capacity(self.first_snapshot_at.len());
        for (&seq, first) in &self.first_snapshot_at {
            round_stats.push(RoundStat {
                seq,
                first_snapshot_ns: first.as_nanos(),
                last_complete_ns: self
                    .last_complete_at
                    .get(&seq)
                    .map_or(first.as_nanos(), |t| t.as_nanos()),
                completes: self.complete_count.get(&seq).copied().unwrap_or(0),
            });
        }
        for (seq, &cnt) in &self.complete_count {
            if cnt == n {
                complete_rounds += 1;
                if let (Some(a), Some(b)) =
                    (self.first_snapshot_at.get(seq), self.last_complete_at.get(seq))
                {
                    ckpt_latency.record(b.saturating_since(*a).as_secs_f64());
                }
            }
        }
        let storage = StorageReport {
            peak_writers: self.server.peak_writers(),
            mean_writers: self.server.mean_writers(makespan),
            contended_time: self.server.contended_time(makespan),
            total_stall: self.server.total_stall(),
            write_latency_mean: self.server.latency().mean(),
            write_latency_max: self.server.latency().max(),
            total_bytes: self.server.total_bytes(),
            total_requests: self.server.total_requests(),
        };
        RunResult {
            algo: self.algo,
            n,
            seed: self.cfg.sim.seed,
            scheduler: self.cfg.scheduler,
            counters,
            app_messages: self.next_msg - self.ctrl_messages,
            app_payload_bytes: self.app_payload_bytes,
            piggyback_bytes: self.piggyback_bytes,
            ctrl_messages: self.ctrl_messages,
            ctrl_bytes: self.ctrl_bytes,
            makespan,
            blocked_time: self.blocked_time,
            forced_delay: self.forced_delay,
            ckpt_latency,
            round_stats,
            complete_rounds,
            recovery_line: self.store.recovery_line(),
            staging_peak: self.staging_peak,
            storage,
            observer: self.observer,
            store: self.store,
            app_final: self.app,
            cut_states: self.cut_states,
            trace: self.trace,
            crash: self.crash,
            protocol_error: self.protocol_error,
            sim_events,
            peak_pending,
            arena_hwm,
            clamped_events,
            messages_lost_at_crash,
            wall_secs: wall_start.elapsed().as_secs_f64(),
        }
    }
}
