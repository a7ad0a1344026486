//! Uncoordinated (fully asynchronous) checkpointing — the domino-effect
//! baseline (paper §1).
//!
//! Each process checkpoints on its own schedule with no coordination and
//! no piggybacks. Cheap in the failure-free path; the price appears at
//! recovery, where finding a consistent global state can cascade rollbacks
//! (the *domino effect*) — possibly all the way to the initial state.
//! Experiment E7 computes the recovery line for an injected failure with
//! the standard rollback-propagation fixpoint (in `ocpt-harness`, using
//! the observer's exact message record) and compares the work lost against
//! OCPT's bounded rollback.

use ocpt_core::AppPayload;
use ocpt_metrics::Counters;
use ocpt_sim::{MsgId, ProcessId};

use crate::api::{wire_cost, CheckpointProtocol, ProtoAction};

/// Envelope for uncoordinated runs: bare application messages.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UncoordEnv {
    /// The payload.
    pub payload: AppPayload,
}

/// One process's uncoordinated-checkpointing state.
#[derive(Debug, Default)]
pub struct Uncoordinated {
    seq: u64,
    stats: Counters,
}

impl Uncoordinated {
    /// Local checkpoint count so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

impl CheckpointProtocol for Uncoordinated {
    type Env = UncoordEnv;

    fn name(&self) -> &'static str {
        "uncoordinated"
    }

    fn wrap_app(
        &mut self,
        _dst: ProcessId,
        _msg_id: MsgId,
        payload: AppPayload,
        _out: &mut Vec<ProtoAction<UncoordEnv>>,
    ) -> UncoordEnv {
        self.stats.inc("app.sent");
        UncoordEnv { payload }
    }

    fn on_arrival(
        &mut self,
        _src: ProcessId,
        _msg_id: MsgId,
        env: UncoordEnv,
        _out: &mut Vec<ProtoAction<UncoordEnv>>,
    ) -> Result<Option<AppPayload>, String> {
        self.stats.inc("app.received");
        Ok(Some(env.payload))
    }

    fn initiate(&mut self, out: &mut Vec<ProtoAction<UncoordEnv>>) {
        self.seq += 1;
        self.stats.inc("ckpt.taken");
        out.push(ProtoAction::Snapshot { seq: self.seq });
        out.push(ProtoAction::MarkCut { seq: self.seq, back: 0 });
        out.push(ProtoAction::FlushState { seq: self.seq });
        out.push(ProtoAction::Complete { seq: self.seq });
    }

    fn env_wire_bytes(&self, env: &UncoordEnv) -> u64 {
        wire_cost::app(env.payload.len, 0)
    }

    fn stats(&self) -> &Counters {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoints_are_local_and_sequential() {
        let mut u = Uncoordinated::default();
        let mut out = Vec::new();
        u.initiate(&mut out);
        u.initiate(&mut out);
        assert_eq!(u.seq(), 2);
        assert_eq!(u.stats().get("ckpt.taken"), 2);
        assert!(out.contains(&ProtoAction::Complete { seq: 2 }));
    }

    #[test]
    fn no_piggyback_no_control() {
        let mut u = Uncoordinated::default();
        let mut out = Vec::new();
        let env = u.wrap_app(ProcessId(1), MsgId(0), AppPayload { id: 1, len: 10 }, &mut out);
        assert!(out.is_empty());
        assert_eq!(u.env_wire_bytes(&env), wire_cost::app(10, 0));
        let d = u.on_arrival(ProcessId(1), MsgId(1), env, &mut out).unwrap();
        assert!(d.is_some());
        assert!(out.is_empty());
    }
}
