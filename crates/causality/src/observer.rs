//! The omniscient observer: records every application-level event of a run
//! and checks collected global checkpoints for consistency.
//!
//! The observer is *outside* the system model — it sees everything
//! instantly, which no real process can. Protocol code never reads it; the
//! harness feeds it and the tests interrogate it. This is how we turn the
//! paper's Theorem 2 ("finalized checkpoints with equal sequence number form
//! a consistent global checkpoint") into a machine-checked property.

use std::collections::HashMap;
#[cfg(debug_assertions)]
use std::collections::HashSet;

use ocpt_sim::{MsgId, ProcessId, SimTime};

use crate::cut::Cut;
use crate::vclock::{pairwise_consistent, VClock};

/// Where one endpoint of a message sits in a process's local event order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventPos {
    /// Process on which the event occurred.
    pub pid: ProcessId,
    /// Zero-based index in that process's application-event sequence.
    pub idx: u64,
}

/// Observed endpoints of one application message: a fixed-size record,
/// appended at the send and completed at the receive.
#[derive(Clone, Copy, Debug)]
struct MsgRecord {
    id: MsgId,
    send: EventPos,
    recv: Option<EventPos>,
}

/// A message sent but not yet received: the slot of its record and the
/// sender's clock right after the send event (piggybacked oracle-side).
/// The receive takes the clock out, so only in-flight messages hold one.
#[derive(Debug)]
struct InFlight {
    slot: usize,
    clock: VClock,
}

/// One finalized checkpoint of one process, as the oracle saw it.
///
/// Kept in a per-process `Vec` sorted by `csn` — checkpoint sequence
/// numbers are dense and per-process lookups dominate, so this replaces
/// three `HashMap<(ProcessId, u64), _>` tables (position, clock, time)
/// with a single binary-searched record table and no per-entry hashing.
#[derive(Clone, Debug)]
struct CkptRecord {
    csn: u64,
    pos: u64,
    clock: VClock,
    time: SimTime,
}

/// An orphan message with respect to some cut: received inside, sent outside.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Orphan {
    /// The offending message.
    pub msg: MsgId,
    /// Its send endpoint.
    pub send: EventPos,
    /// Its receive endpoint.
    pub recv: EventPos,
}

/// A message in transit across a cut: sent inside, received outside (or
/// never). Not an inconsistency, but recovery must be able to regenerate it
/// — the paper's sent-message logging exists for exactly this.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InTransit {
    /// The message.
    pub msg: MsgId,
    /// Its send endpoint.
    pub send: EventPos,
}

/// Verdict for one global checkpoint `S_k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CutReport {
    /// The checkpoint sequence number.
    pub csn: u64,
    /// Orphan messages (must be empty for consistency).
    pub orphans: Vec<Orphan>,
    /// In-transit messages (allowed; must be covered by sender logs).
    pub in_transit: Vec<InTransit>,
}

impl CutReport {
    /// True iff the global checkpoint is consistent (no orphans).
    pub fn is_consistent(&self) -> bool {
        self.orphans.is_empty()
    }
}

/// The observer. Feed it every application send/receive and every
/// checkpoint-finalization cut position; then ask it to judge each `S_k`.
#[derive(Debug)]
pub struct GlobalObserver {
    n: usize,
    /// Next local application-event index per process.
    next_idx: Vec<u64>,
    /// Vector clock per process (oracle #2).
    clocks: Vec<VClock>,
    /// Clock of each process *before* its most recent event — needed for
    /// checkpoint cuts that step one event back (OCPT's excluded trigger).
    prev_clocks: Vec<VClock>,
    /// Message records in send order. Ids need not follow send order (the
    /// threaded runtime numbers messages `(pid << 40) | k`), so every
    /// report built from this table is sorted by id before it leaves —
    /// reports feed byte-identity-pinned output.
    msgs: Vec<MsgRecord>,
    /// Messages sent and not yet received, by id. Only ever accessed by
    /// key, never iterated, so hash order cannot reach any output.
    in_flight: HashMap<MsgId, InFlight>,
    /// Every id ever sent, for the duplicate-send and duplicate-receive
    /// assertions (debug builds only).
    #[cfg(debug_assertions)]
    sent: HashSet<MsgId>,
    /// Finalized checkpoints per process, sorted by `csn`.
    ckpts: Vec<Vec<CkptRecord>>,
}

impl GlobalObserver {
    /// An observer for `n` processes.
    pub fn new(n: usize) -> Self {
        GlobalObserver {
            n,
            next_idx: vec![0; n],
            clocks: (0..n).map(|_| VClock::zero(n)).collect(),
            prev_clocks: (0..n).map(|_| VClock::zero(n)).collect(),
            msgs: Vec::new(),
            in_flight: HashMap::new(),
            #[cfg(debug_assertions)]
            sent: HashSet::new(),
            ckpts: vec![Vec::new(); n],
        }
    }

    /// The checkpoint record of `(pid, csn)`, if finalized.
    fn ckpt(&self, pid: ProcessId, csn: u64) -> Option<&CkptRecord> {
        let table = &self.ckpts[pid.index()];
        table.binary_search_by_key(&csn, |r| r.csn).ok().map(|i| &table[i])
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Record a send event at `pid`; returns its local index. The sender's
    /// clock is retained internally for the matching receive.
    pub fn on_send(&mut self, pid: ProcessId, msg: MsgId) -> u64 {
        let idx = self.bump(pid);
        // clone_from reuses the previous snapshot's allocation: no per-event
        // Vec allocation on this (hot) path.
        self.prev_clocks[pid.index()].clone_from(&self.clocks[pid.index()]);
        self.clocks[pid.index()].tick(pid);
        #[cfg(debug_assertions)]
        assert!(self.sent.insert(msg), "duplicate send for {msg:?}");
        let slot = self.msgs.len();
        self.msgs.push(MsgRecord { id: msg, send: EventPos { pid, idx }, recv: None });
        self.in_flight.insert(msg, InFlight { slot, clock: self.clocks[pid.index()].clone() });
        idx
    }

    /// Record a receive event at `pid` of message `msg`; returns the local
    /// index. The clock merge uses the clock retained at `on_send`, which
    /// is dropped here (a receive of a never-sent or already-received
    /// message is a harness bug and panics in debug builds; in release it
    /// merges and records nothing).
    pub fn on_recv(&mut self, pid: ProcessId, msg: MsgId) -> u64 {
        let idx = self.bump(pid);
        self.prev_clocks[pid.index()].clone_from(&self.clocks[pid.index()]);
        match self.in_flight.remove(&msg) {
            Some(InFlight { slot, clock }) => {
                self.clocks[pid.index()].merge(&clock);
                self.msgs[slot].recv = Some(EventPos { pid, idx });
            }
            None => {
                #[cfg(debug_assertions)]
                assert!(!self.sent.contains(&msg), "duplicate receive for {msg:?}");
                debug_assert!(false, "receive of unknown message {msg:?}");
            }
        }
        self.clocks[pid.index()].tick(pid);
        idx
    }

    /// Record that `pid` finalized its checkpoint `csn` with the cut sitting
    /// at `pos` local events (i.e. the restored state contains exactly the
    /// first `pos` application events of `pid`). `pos` must be the current
    /// event count or one less (a cut placed just before the most recent
    /// event — the paper's excluded-trigger finalization).
    pub fn on_finalize(&mut self, pid: ProcessId, csn: u64, pos: u64, at: SimTime) {
        // The oracle clock of a checkpoint at position `pos`: we tick the
        // local component so two checkpoints at identical positions on
        // different processes stay concurrent, matching the "checkpoint is
        // a local event" convention. [OCPT §2.2]
        let cur = self.next_idx[pid.index()];
        debug_assert!(pos == cur || pos + 1 == cur, "cut must be at or one before the present");
        let mut clock = if pos == cur {
            self.clocks[pid.index()].clone()
        } else {
            self.prev_clocks[pid.index()].clone()
        };
        clock.tick(pid);
        let table = &mut self.ckpts[pid.index()];
        match table.binary_search_by_key(&csn, |r| r.csn) {
            Ok(_) => debug_assert!(false, "{pid} finalized csn {csn} twice"),
            Err(i) => table.insert(i, CkptRecord { csn, pos, clock, time: at }),
        }
    }

    fn bump(&mut self, pid: ProcessId) -> u64 {
        let idx = self.next_idx[pid.index()];
        self.next_idx[pid.index()] += 1;
        idx
    }

    /// Current local event counts (useful for building ad-hoc cuts).
    pub fn positions(&self) -> Vec<u64> {
        self.next_idx.clone()
    }

    /// Current local event count of one process.
    pub fn position(&self, pid: ProcessId) -> u64 {
        self.next_idx[pid.index()]
    }

    /// Sequence numbers for which **all** `n` processes have finalized.
    pub fn complete_csns(&self) -> Vec<u64> {
        // Intersect the per-process (sorted) csn sequences, seeded from the
        // process with the fewest finalizations.
        let Some(smallest) = self.ckpts.iter().min_by_key(|t| t.len()) else {
            return Vec::new();
        };
        smallest
            .iter()
            .map(|r| r.csn)
            .filter(|&csn| ProcessId::all(self.n).all(|pid| self.ckpt(pid, csn).is_some()))
            .collect()
    }

    /// The cut induced by `S_csn`, if complete.
    pub fn cut_of(&self, csn: u64) -> Option<Cut> {
        let mut cut = Cut::empty(self.n);
        for pid in ProcessId::all(self.n) {
            cut.set(pid, self.ckpt(pid, csn)?.pos);
        }
        Some(cut)
    }

    /// Judge an arbitrary cut against the recorded messages.
    pub fn judge_cut(&self, csn: u64, cut: &Cut) -> CutReport {
        let mut orphans = Vec::new();
        let mut in_transit = Vec::new();
        for &MsgRecord { id: msg, send, recv } in &self.msgs {
            let sent_inside = cut.contains(send.pid, send.idx);
            match recv {
                Some(recv) => {
                    let recvd_inside = cut.contains(recv.pid, recv.idx);
                    if recvd_inside && !sent_inside {
                        orphans.push(Orphan { msg, send, recv });
                    } else if sent_inside && !recvd_inside {
                        in_transit.push(InTransit { msg, send });
                    }
                }
                None => {
                    if sent_inside {
                        in_transit.push(InTransit { msg, send });
                    }
                }
            }
        }
        // Send order is usually id order, and sorting already-sorted input
        // is a single linear pass.
        orphans.sort_unstable_by_key(|o| o.msg);
        in_transit.sort_unstable_by_key(|t| t.msg);
        CutReport { csn, orphans, in_transit }
    }

    /// Judge the global checkpoint `S_csn` (must be complete).
    ///
    /// Returns `None` if some process has not finalized `csn`.
    pub fn judge(&self, csn: u64) -> Option<CutReport> {
        let cut = self.cut_of(csn)?;
        Some(self.judge_cut(csn, &cut))
    }

    /// Oracle #2: are the vector clocks of `S_csn` pairwise concurrent?
    ///
    /// Agreement between [`Self::judge`] and this check is itself asserted
    /// by property tests.
    pub fn vclock_consistent(&self, csn: u64) -> Option<bool> {
        let mut clocks = Vec::with_capacity(self.n);
        for pid in ProcessId::all(self.n) {
            clocks.push(&self.ckpt(pid, csn)?.clock);
        }
        Some(pairwise_consistent(&clocks))
    }

    /// When `pid` finalized `csn` (reporting).
    pub fn finalize_time(&self, pid: ProcessId, csn: u64) -> Option<SimTime> {
        self.ckpt(pid, csn).map(|r| r.time)
    }

    /// Total number of observed application messages.
    pub fn message_count(&self) -> usize {
        self.msgs.len()
    }

    /// All messages with their endpoints (receive endpoint `None` while in
    /// flight), sorted by id. Used by the rollback/domino analysis.
    pub fn messages(&self) -> Vec<(MsgId, EventPos, Option<EventPos>)> {
        let mut all: Vec<_> = self.msgs.iter().map(|r| (r.id, r.send, r.recv)).collect();
        all.sort_unstable_by_key(|&(id, _, _)| id);
        all
    }

    /// The recorded checkpoint cut positions of one process, sorted by
    /// sequence number: `(csn, position)`.
    pub fn checkpoints_of(&self, pid: ProcessId) -> Vec<(u64, u64)> {
        self.ckpts[pid.index()].iter().map(|r| (r.csn, r.pos)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProcessId {
        ProcessId(i)
    }

    /// Reconstructs paper Figure 1: S1 consistent, S2 has orphan M5.
    ///
    /// Three processes; M5 is sent by P1 *after* its S2 checkpoint position
    /// but received by P2 *before* its S2 checkpoint position.
    #[test]
    fn fig1_consistent_and_inconsistent_cuts() {
        let mut o = GlobalObserver::new(3);
        // M1: P0 -> P1 early.
        o.on_send(p(0), MsgId(1));
        o.on_recv(p(1), MsgId(1));
        // S1 cut: after those events on P0/P1, before anything on P2.
        let s1 = Cut::from_positions(vec![1, 1, 0]);
        // M5: P1 -> P2.
        o.on_send(p(1), MsgId(5));
        o.on_recv(p(2), MsgId(5));
        // S2 cut: P1 cut before send(M5) would be pos 1; but we cut P1 at 1
        // (send M5 is event idx 1, outside) and P2 at 1 (recv M5 inside).
        let s2 = Cut::from_positions(vec![1, 1, 1]);
        let r1 = o.judge_cut(1, &s1);
        assert!(r1.is_consistent());
        let r2 = o.judge_cut(2, &s2);
        assert!(!r2.is_consistent());
        assert_eq!(r2.orphans.len(), 1);
        assert_eq!(r2.orphans[0].msg, MsgId(5));
    }

    #[test]
    fn in_transit_detected_but_consistent() {
        let mut o = GlobalObserver::new(2);
        o.on_send(p(0), MsgId(1));
        // Cut: send inside, receive hasn't happened yet.
        let cut = Cut::from_positions(vec![1, 0]);
        let r = o.judge_cut(0, &cut);
        assert!(r.is_consistent());
        assert_eq!(r.in_transit.len(), 1);
        // Receive later, outside the cut — still in transit w.r.t. the cut.
        o.on_recv(p(1), MsgId(1));
        let r = o.judge_cut(0, &cut);
        assert!(r.is_consistent());
        assert_eq!(r.in_transit.len(), 1);
    }

    #[test]
    fn finalize_completion_tracking() {
        let mut o = GlobalObserver::new(2);
        o.on_finalize(p(0), 1, 0, SimTime::ZERO);
        assert!(o.judge(1).is_none());
        assert!(o.complete_csns().is_empty());
        o.on_finalize(p(1), 1, 0, SimTime::from_nanos(5));
        assert_eq!(o.complete_csns(), vec![1]);
        let r = o.judge(1).unwrap();
        assert!(r.is_consistent());
        assert_eq!(o.finalize_time(p(1), 1), Some(SimTime::from_nanos(5)));
    }

    #[test]
    fn vclock_oracle_agrees_on_simple_case() {
        let mut o = GlobalObserver::new(2);
        // P0 sends M; P1 receives; P1 then finalizes *after* the receive
        // while P0 finalizes *before* the send — orphan.
        o.on_finalize(p(0), 1, 0, SimTime::ZERO);
        o.on_send(p(0), MsgId(1));
        o.on_recv(p(1), MsgId(1));
        o.on_finalize(p(1), 1, 1, SimTime::ZERO);
        let r = o.judge(1).unwrap();
        assert!(!r.is_consistent());
        assert_eq!(o.vclock_consistent(1), Some(false));
    }

    #[test]
    fn vclock_oracle_consistent_case() {
        let mut o = GlobalObserver::new(2);
        o.on_send(p(0), MsgId(1));
        o.on_recv(p(1), MsgId(1));
        // Both finalize after everything — consistent.
        o.on_finalize(p(0), 1, 1, SimTime::ZERO);
        o.on_finalize(p(1), 1, 1, SimTime::ZERO);
        let r = o.judge(1).unwrap();
        assert!(r.is_consistent());
        assert_eq!(o.vclock_consistent(1), Some(true));
    }

    #[test]
    fn received_messages_release_their_sender_clocks() {
        let mut o = GlobalObserver::new(3);
        o.on_send(p(0), MsgId(1));
        o.on_send(p(1), MsgId(2));
        o.on_send(p(2), MsgId(3));
        assert_eq!(o.in_flight.len(), 3);
        o.on_recv(p(2), MsgId(2));
        o.on_recv(p(0), MsgId(3));
        assert_eq!(o.in_flight.len(), 1);
        o.on_recv(p(1), MsgId(1));
        assert!(o.in_flight.is_empty());
        // The endpoint records outlive the clocks.
        assert_eq!(o.message_count(), 3);
        assert!(o.messages().iter().all(|(_, _, recv)| recv.is_some()));
    }

    #[test]
    fn message_count() {
        let mut o = GlobalObserver::new(2);
        o.on_send(p(0), MsgId(1));
        o.on_recv(p(1), MsgId(1));
        o.on_send(p(1), MsgId(2));
        assert_eq!(o.message_count(), 2);
    }
}
