//! Differential property test: `GlobalObserver` against a minimal reference
//! observer.
//!
//! The reference keeps the straightforward layout: one `BTreeMap` record
//! per message id, each holding both endpoints and the sender's clock for
//! the whole run, and per-process `BTreeMap`s of finalized checkpoints.
//! Random schedules of sends, out-of-order deliveries (some messages are
//! never delivered), finalizes (at the present or one event back) and
//! ad-hoc cut judgements are applied to both in lock-step, with message ids
//! drawn either harness-style (one global counter) or runtime-style
//! (`(pid << 40) | k`, which interleaved senders emit out of id order).
//! Every query the observer answers must agree exactly.

use std::collections::BTreeMap;

use ocpt_causality::{
    pairwise_consistent, Cut, CutReport, EventPos, GlobalObserver, InTransit, Orphan, VClock,
};
use ocpt_sim::{MsgId, ProcessId, SimTime};
use proptest::prelude::*;

/// Reference record: both endpoints plus the sender's clock, kept forever.
#[derive(Default)]
struct RefMsg {
    send: Option<EventPos>,
    recv: Option<EventPos>,
    send_clock: Option<VClock>,
}

/// The reference observer.
struct RefObserver {
    n: usize,
    next_idx: Vec<u64>,
    clocks: Vec<VClock>,
    prev_clocks: Vec<VClock>,
    msgs: BTreeMap<MsgId, RefMsg>,
    /// Per process: csn → (position, clock).
    ckpts: Vec<BTreeMap<u64, (u64, VClock)>>,
}

impl RefObserver {
    fn new(n: usize) -> Self {
        RefObserver {
            n,
            next_idx: vec![0; n],
            clocks: vec![VClock::zero(n); n],
            prev_clocks: vec![VClock::zero(n); n],
            msgs: BTreeMap::new(),
            ckpts: vec![BTreeMap::new(); n],
        }
    }

    fn bump(&mut self, pid: ProcessId) -> u64 {
        let i = pid.index();
        self.prev_clocks[i] = self.clocks[i].clone();
        self.next_idx[i] += 1;
        self.next_idx[i] - 1
    }

    fn on_send(&mut self, pid: ProcessId, msg: MsgId) -> u64 {
        let idx = self.bump(pid);
        self.clocks[pid.index()].tick(pid);
        let rec = self.msgs.entry(msg).or_default();
        rec.send = Some(EventPos { pid, idx });
        rec.send_clock = Some(self.clocks[pid.index()].clone());
        idx
    }

    fn on_recv(&mut self, pid: ProcessId, msg: MsgId) -> u64 {
        let idx = self.bump(pid);
        let rec = self.msgs.get_mut(&msg).expect("receive of a sent message");
        self.clocks[pid.index()].merge(rec.send_clock.as_ref().expect("send clock"));
        self.clocks[pid.index()].tick(pid);
        rec.recv = Some(EventPos { pid, idx });
        idx
    }

    fn on_finalize(&mut self, pid: ProcessId, csn: u64, pos: u64) {
        let i = pid.index();
        let mut clock = if pos == self.next_idx[i] {
            self.clocks[i].clone()
        } else {
            self.prev_clocks[i].clone()
        };
        clock.tick(pid);
        self.ckpts[i].insert(csn, (pos, clock));
    }

    fn complete_csns(&self) -> Vec<u64> {
        self.ckpts[0]
            .keys()
            .copied()
            .filter(|k| self.ckpts.iter().all(|t| t.contains_key(k)))
            .collect()
    }

    fn judge_cut(&self, csn: u64, cut: &Cut) -> CutReport {
        let mut orphans = Vec::new();
        let mut in_transit = Vec::new();
        for (&msg, rec) in &self.msgs {
            let send = rec.send.expect("every record was sent");
            let sent_inside = cut.contains(send.pid, send.idx);
            let recvd_inside = rec.recv.is_some_and(|r| cut.contains(r.pid, r.idx));
            if let (Some(recv), true, false) = (rec.recv, recvd_inside, sent_inside) {
                orphans.push(Orphan { msg, send, recv });
            }
            if sent_inside && !recvd_inside {
                in_transit.push(InTransit { msg, send });
            }
        }
        CutReport { csn, orphans, in_transit }
    }

    fn judge(&self, csn: u64) -> Option<CutReport> {
        let mut cut = Cut::empty(self.n);
        for pid in ProcessId::all(self.n) {
            cut.set(pid, self.ckpts[pid.index()].get(&csn)?.0);
        }
        Some(self.judge_cut(csn, &cut))
    }

    fn vclock_consistent(&self, csn: u64) -> Option<bool> {
        let clocks: Option<Vec<VClock>> =
            self.ckpts.iter().map(|t| t.get(&csn).map(|c| c.1.clone())).collect();
        Some(pairwise_consistent(&clocks?))
    }

    fn messages(&self) -> Vec<(MsgId, EventPos, Option<EventPos>)> {
        self.msgs.iter().map(|(&id, r)| (id, r.send.expect("sent"), r.recv)).collect()
    }

    fn checkpoints_of(&self, pid: ProcessId) -> Vec<(u64, u64)> {
        self.ckpts[pid.index()].iter().map(|(&csn, &(pos, _))| (csn, pos)).collect()
    }
}

/// SplitMix-style mixer: spreads one drawn word over several choices.
fn mix(x: u64) -> u64 {
    let z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A cut with every process at a position drawn from `seed`, anywhere
/// between 0 and its present event count.
fn random_cut(positions: &[u64], seed: u64) -> Cut {
    Cut::from_positions(
        positions.iter().enumerate().map(|(i, &cur)| mix(seed ^ i as u64) % (cur + 1)).collect(),
    )
}

/// Drive both observers through the schedule decoded from `ops`, checking
/// per-step agreement; returns them for the end-of-run comparison.
fn run(
    n: usize,
    runtime_ids: bool,
    ops: &[(u8, u64, u64)],
) -> Result<(GlobalObserver, RefObserver), TestCaseError> {
    let mut obs = GlobalObserver::new(n);
    let mut reference = RefObserver::new(n);
    // Sent, not yet delivered: (destination, id).
    let mut flight: Vec<(ProcessId, MsgId)> = Vec::new();
    let mut next_global = 0u64;
    let mut next_local = vec![0u64; n];
    let mut next_csn = vec![1u64; n];
    for &(sel, a, b) in ops {
        let pid = ProcessId((a % n as u64) as u32);
        match sel % 8 {
            // Sends dominate so that messages pile up in flight.
            0..=2 => {
                let id = if runtime_ids {
                    next_local[pid.index()] += 1;
                    MsgId(((pid.0 as u64) << 40) | (next_local[pid.index()] - 1))
                } else {
                    next_global += 1;
                    MsgId(next_global - 1)
                };
                let dst = ProcessId(((pid.index() + 1 + (b % (n as u64 - 1)) as usize) % n) as u32);
                prop_assert_eq!(obs.on_send(pid, id), reference.on_send(pid, id));
                flight.push((dst, id));
            }
            // Deliver any in-flight message, not the oldest: out of order.
            3 | 4 => {
                if !flight.is_empty() {
                    let (dst, id) = flight.remove((b % flight.len() as u64) as usize);
                    prop_assert_eq!(obs.on_recv(dst, id), reference.on_recv(dst, id));
                }
            }
            // Finalize at the present or one event back; now and then skip
            // a csn so that some rounds never complete.
            5 | 6 => {
                let cur = obs.position(pid);
                let pos = if cur > 0 && b & 1 == 1 { cur - 1 } else { cur };
                let csn = next_csn[pid.index()];
                next_csn[pid.index()] += if b & 6 == 6 { 2 } else { 1 };
                obs.on_finalize(pid, csn, pos, SimTime::ZERO);
                reference.on_finalize(pid, csn, pos);
            }
            _ => {
                let cut = random_cut(&obs.positions(), b);
                prop_assert_eq!(obs.judge_cut(a, &cut), reference.judge_cut(a, &cut));
            }
        }
        prop_assert_eq!(obs.positions(), reference.next_idx.clone());
    }
    Ok((obs, reference))
}

proptest! {
    /// Every query agrees with the reference, mid-run and at the end.
    #[test]
    fn observer_matches_reference(
        n in 2usize..6,
        runtime_ids in any::<bool>(),
        ops in prop::collection::vec((any::<u8>(), any::<u64>(), any::<u64>()), 1..250),
        cut_seeds in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let (obs, reference) = run(n, runtime_ids, &ops)?;
        let positions = obs.positions();
        for (k, &seed) in cut_seeds.iter().enumerate() {
            let cut = random_cut(&positions, seed);
            prop_assert_eq!(obs.judge_cut(k as u64, &cut), reference.judge_cut(k as u64, &cut));
        }
        prop_assert_eq!(obs.complete_csns(), reference.complete_csns());
        let max_csn = reference.ckpts.iter().filter_map(|t| t.keys().last()).max().copied();
        for csn in 0..=max_csn.unwrap_or(0) + 1 {
            prop_assert_eq!(obs.judge(csn), reference.judge(csn));
            prop_assert_eq!(obs.vclock_consistent(csn), reference.vclock_consistent(csn));
        }
        prop_assert_eq!(obs.messages(), reference.messages());
        prop_assert_eq!(obs.message_count(), reference.msgs.len());
        for pid in ProcessId::all(n) {
            prop_assert_eq!(obs.checkpoints_of(pid), reference.checkpoints_of(pid));
            prop_assert_eq!(obs.position(pid), reference.next_idx[pid.index()]);
        }
    }
}
