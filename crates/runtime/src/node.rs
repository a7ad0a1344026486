//! One node of the threaded cluster: an OS thread driving an
//! [`OcptProcess`] over real channels, real bytes and a wall clock.
//!
//! Everything that was virtual in the simulator is real here: envelopes
//! are encoded with `ocpt_core::wire` and decoded on receipt, the
//! convergence timer is `recv_timeout` against `Instant`s, and the shared
//! consistency observer is fed in true arrival order — so the test-suite's
//! Theorem 2 check runs against genuine thread interleavings.
//!
//! Each node has a **single** `std::sync::mpsc` inbox carrying both peer
//! network bytes and driver commands ([`NodeInput`]); merging the streams
//! into one channel preserves arrival order without needing a
//! multi-channel `select!`.

use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ocpt_causality::GlobalObserver;
use ocpt_core::{
    decode_envelope, encode_envelope, Action, AppPayload, AppSnapshot, Csn, Envelope, OcptConfig,
    OcptProcess,
};
use ocpt_sim::{MsgId, ProcessId};

use crate::storage::StableStore;
use crate::sync::Mutex;

/// Driver → node commands.
#[derive(Clone, Debug)]
pub enum Command {
    /// Send an application message of `len` bytes to `dst`.
    SendApp {
        /// Destination node.
        dst: ProcessId,
        /// Payload size.
        len: u32,
    },
    /// Take a scheduled checkpoint now (initiate if `Normal`).
    Checkpoint,
    /// Stop the node thread.
    Shutdown,
}

/// Everything that can arrive on a node's (single, merged) inbox.
#[derive(Clone, Debug)]
pub enum NodeInput {
    /// Encoded envelope bytes from a peer.
    Net(ProcessId, Bytes),
    /// A driver command.
    Cmd(Command),
}

/// Node → driver status events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StatusEvent {
    /// The node finalized checkpoint `csn`.
    Finalized {
        /// Reporting node.
        pid: ProcessId,
        /// Finalized sequence number.
        csn: Csn,
    },
    /// The node hit a protocol error (fatal; tests assert this never fires).
    Error {
        /// Reporting node.
        pid: ProcessId,
        /// Description.
        detail: String,
    },
    /// The node stopped.
    Stopped {
        /// Reporting node.
        pid: ProcessId,
        /// Final checkpoint sequence number.
        csn: Csn,
        /// Checkpoints finalized over the node's lifetime.
        finalized: u64,
    },
}

/// Everything a node thread needs.
pub struct NodeCtx {
    /// This node's id.
    pub pid: ProcessId,
    /// System size.
    pub n: usize,
    /// Protocol configuration.
    pub cfg: OcptConfig,
    /// Merged inbox: peer bytes and driver commands in arrival order.
    pub inbox: Receiver<NodeInput>,
    /// Peer inboxes, indexed by destination.
    pub peers: Vec<Sender<NodeInput>>,
    /// Status stream to the driver.
    pub status: Sender<StatusEvent>,
    /// Shared stable storage.
    pub store: Arc<StableStore>,
    /// Shared consistency oracle.
    pub observer: Arc<Mutex<GlobalObserver>>,
}

/// The node main loop. Runs until `Command::Shutdown`.
pub fn run_node(ctx: NodeCtx) {
    let NodeCtx { pid, n, cfg, inbox, peers, status, store, observer } = ctx;
    let mut proto = OcptProcess::new(pid, n, cfg);
    let mut app = AppSnapshot::initial(pid.0 as u64, cfg.state_bytes);
    let mut next_msg: u64 = 0;
    let mut conv_deadline: Option<(Instant, Csn)> = None;
    let mut pending_snapshot: Option<AppSnapshot> = None;
    let mut finalized: u64 = 0;

    // Executes protocol actions; returns false on fatal error.
    let handle_actions = |proto: &OcptProcess,
                          actions: Vec<Action>,
                          app: &AppSnapshot,
                          pending_snapshot: &mut Option<AppSnapshot>,
                          conv_deadline: &mut Option<(Instant, Csn)>,
                          finalized: &mut u64,
                          trigger_back: &mut u32| {
        for a in actions {
            match a {
                Action::TakeTentative { .. } => {
                    *pending_snapshot = Some(*app);
                }
                Action::Finalize { csn, log, excluded } => {
                    let snap = pending_snapshot.take().unwrap_or(*app);
                    store.put(pid, csn, snap.encode(), log.encode());
                    *finalized += 1;
                    *trigger_back = u32::from(excluded.is_some());
                    {
                        let mut obs = observer.lock();
                        let pos = obs.position(pid) - *trigger_back as u64;
                        obs.on_finalize(pid, csn, pos, ocpt_sim::SimTime::ZERO);
                    }
                    let _ = status.send(StatusEvent::Finalized { pid, csn });
                }
                Action::SendCtrl { dst, cm } => {
                    let raw = encode_envelope(&Envelope::Ctrl(cm), n);
                    let _ = peers[dst.index()].send(NodeInput::Net(pid, raw));
                }
                Action::SetTimer { csn } => {
                    *conv_deadline =
                        Some((Instant::now() + to_std(proto.config().convergence_timeout), csn));
                }
                Action::CancelTimer => {
                    *conv_deadline = None;
                }
            }
        }
    };

    let mut trigger_back = 0u32;
    'main: loop {
        // Fire the convergence timer whenever its deadline has passed —
        // checked both on timeout wakeups and between messages, so heavy
        // traffic cannot starve it.
        if let Some((at, csn)) = conv_deadline {
            if Instant::now() >= at {
                conv_deadline = None;
                let mut out = Vec::new();
                proto.on_timer(csn, &mut out);
                handle_actions(
                    &proto,
                    out,
                    &app,
                    &mut pending_snapshot,
                    &mut conv_deadline,
                    &mut finalized,
                    &mut trigger_back,
                );
            }
        }
        let timeout = conv_deadline
            .map(|(at, _)| at.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(50));
        let input = match inbox.recv_timeout(timeout) {
            Ok(input) => input,
            Err(RecvTimeoutError::Timeout) => continue 'main,
            Err(RecvTimeoutError::Disconnected) => break 'main,
        };
        match input {
            NodeInput::Net(src, raw) => {
                let (env, _) = match decode_envelope(raw) {
                    Ok(v) => v,
                    Err(e) => {
                        let _ = status.send(StatusEvent::Error { pid, detail: e.to_string() });
                        break 'main;
                    }
                };
                match env {
                    Envelope::Ctrl(cm) => {
                        let mut out = Vec::new();
                        if let Err(e) = proto.on_ctrl_receive(src, cm, &mut out) {
                            let _ = status.send(StatusEvent::Error { pid, detail: e.to_string() });
                            break 'main;
                        }
                        handle_actions(
                            &proto,
                            out,
                            &app,
                            &mut pending_snapshot,
                            &mut conv_deadline,
                            &mut finalized,
                            &mut trigger_back,
                        );
                    }
                    Envelope::App { pb, payload } => {
                        // Process first (paper §3.4.3), then the case analysis.
                        let msg_id = MsgId(payload.id);
                        observer.lock().on_recv(pid, msg_id);
                        app.apply_recv(payload);
                        let mut out = Vec::new();
                        if let Err(e) = proto.on_app_receive(src, msg_id, payload, &pb, &mut out) {
                            let _ = status.send(StatusEvent::Error { pid, detail: e.to_string() });
                            break 'main;
                        }
                        handle_actions(
                            &proto,
                            out,
                            &app,
                            &mut pending_snapshot,
                            &mut conv_deadline,
                            &mut finalized,
                            &mut trigger_back,
                        );
                    }
                }
            }
            NodeInput::Cmd(Command::SendApp { dst, len }) => {
                // Globally unique message id: node id in the high bits.
                let msg_id = MsgId(((pid.0 as u64) << 40) | next_msg);
                next_msg += 1;
                let payload = AppPayload { id: msg_id.0, len };
                // Record the send before the bytes can possibly be
                // received (observer lock orders it).
                observer.lock().on_send(pid, msg_id);
                app.apply_send(payload);
                let pb = proto.on_app_send(dst, msg_id, payload);
                let raw = encode_envelope(&Envelope::App { pb, payload }, n);
                let _ = peers[dst.index()].send(NodeInput::Net(pid, raw));
            }
            NodeInput::Cmd(Command::Checkpoint) => {
                let mut out = Vec::new();
                proto.initiate_checkpoint(&mut out);
                handle_actions(
                    &proto,
                    out,
                    &app,
                    &mut pending_snapshot,
                    &mut conv_deadline,
                    &mut finalized,
                    &mut trigger_back,
                );
            }
            NodeInput::Cmd(Command::Shutdown) => break 'main,
        }
    }
    let _ = status.send(StatusEvent::Stopped { pid, csn: proto.csn(), finalized });
}

fn to_std(d: ocpt_sim::SimDuration) -> Duration {
    Duration::from_nanos(d.as_nanos())
}
