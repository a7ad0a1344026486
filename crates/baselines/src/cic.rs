//! Index-based communication-induced checkpointing (Briatico-style),
//! standing in for the CIC class the paper cites as [1, 8].
//!
//! Every checkpoint carries an index; every application message piggybacks
//! the sender's index. A receiver whose index is behind the piggybacked
//! one must take a **forced checkpoint, before processing the message** —
//! the exact behaviour the paper criticises in §1 ("communication-induced
//! checkpoints have to be taken in general before processing a received
//! message, which may significantly prolong the response time"). The set
//! of checkpoints with equal index forms a consistent global checkpoint.
//!
//! Experiments E3/E8 use this baseline to quantify forced-checkpoint
//! counts and the pre-processing latency OCPT avoids.

use ocpt_core::AppPayload;
use ocpt_metrics::Counters;
use ocpt_sim::{MsgId, ProcessId};

use crate::api::{wire_cost, CheckpointProtocol, EnvTelemetry, ProtoAction};

/// Envelope for CIC runs: application messages piggyback the index.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CicEnv {
    /// The payload.
    pub payload: AppPayload,
    /// Sender's checkpoint index at send time.
    pub sn: u64,
}

/// One process's CIC state.
#[derive(Debug, Default)]
pub struct Cic {
    /// Current checkpoint index.
    sn: u64,
    /// Index at the previous scheduled tick; a basic checkpoint is skipped
    /// if a forced one already advanced the index this interval (keeps the
    /// per-interval checkpoint budget comparable to OCPT's).
    sn_at_last_tick: u64,
    stats: Counters,
}

impl Cic {
    /// Current index (for tests and drivers).
    pub fn sn(&self) -> u64 {
        self.sn
    }

    /// Take a checkpoint covering indices `(old, new]`: the consistency cut
    /// for every skipped index sits at this same snapshot.
    fn checkpoint_to(&mut self, new_sn: u64, forced: bool, out: &mut Vec<ProtoAction<CicEnv>>) {
        let old = self.sn;
        self.sn = new_sn;
        self.stats.inc(if forced { "ckpt.forced" } else { "ckpt.basic" });
        out.push(ProtoAction::Snapshot { seq: new_sn });
        // A jump from index `old` to `new_sn` plugs every hole in between:
        // the checkpoint with index k (old < k ≤ new_sn) is this snapshot.
        for k in (old + 1)..=new_sn {
            out.push(ProtoAction::MarkCut { seq: k, back: 0 });
        }
        out.push(ProtoAction::FlushState { seq: new_sn });
        out.push(ProtoAction::Complete { seq: new_sn });
        if forced {
            out.push(ProtoAction::ForcedBeforeProcessing { seq: new_sn });
        }
    }
}

impl CheckpointProtocol for Cic {
    type Env = CicEnv;

    fn name(&self) -> &'static str {
        "cic"
    }

    fn wrap_app(
        &mut self,
        _dst: ProcessId,
        _msg_id: MsgId,
        payload: AppPayload,
        _out: &mut Vec<ProtoAction<CicEnv>>,
    ) -> CicEnv {
        self.stats.inc("app.sent");
        CicEnv { payload, sn: self.sn }
    }

    fn on_arrival(
        &mut self,
        _src: ProcessId,
        _msg_id: MsgId,
        env: CicEnv,
        out: &mut Vec<ProtoAction<CicEnv>>,
    ) -> Result<Option<AppPayload>, String> {
        self.stats.inc("app.received");
        if env.sn > self.sn {
            // Forced checkpoint BEFORE processing the message.
            self.checkpoint_to(env.sn, true, out);
        }
        Ok(Some(env.payload))
    }

    fn initiate(&mut self, out: &mut Vec<ProtoAction<CicEnv>>) {
        // Basic checkpoint: every process, every interval — unless a forced
        // checkpoint already advanced the index since the last tick.
        if self.sn > self.sn_at_last_tick {
            self.sn_at_last_tick = self.sn;
            self.stats.inc("ckpt.basic_skipped");
            return;
        }
        let next = self.sn + 1;
        self.checkpoint_to(next, false, out);
        self.sn_at_last_tick = self.sn;
    }

    fn env_wire_bytes(&self, env: &CicEnv) -> u64 {
        // Piggyback: 8-byte index.
        wire_cost::app(env.payload.len, 8)
    }

    fn env_telemetry(&self, env: &CicEnv) -> EnvTelemetry {
        EnvTelemetry::in_round(env.sn)
    }

    fn stats(&self) -> &Counters {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pl(len: u32) -> AppPayload {
        AppPayload { id: 1, len }
    }

    #[test]
    fn basic_checkpoint_increments_index() {
        let mut c = Cic::default();
        let mut out = Vec::new();
        c.initiate(&mut out);
        assert_eq!(c.sn(), 1);
        assert!(out.contains(&ProtoAction::Snapshot { seq: 1 }));
        assert!(out.contains(&ProtoAction::FlushState { seq: 1 }));
        assert!(!out.iter().any(|a| matches!(a, ProtoAction::ForcedBeforeProcessing { .. })));
    }

    #[test]
    fn higher_index_forces_checkpoint_before_processing() {
        let mut c = Cic::default();
        let mut out = Vec::new();
        let d = c
            .on_arrival(ProcessId(0), MsgId(0), CicEnv { payload: pl(10), sn: 3 }, &mut out)
            .unwrap();
        assert_eq!(d, Some(pl(10)));
        assert_eq!(c.sn(), 3);
        assert!(out.contains(&ProtoAction::ForcedBeforeProcessing { seq: 3 }));
        // Cut marked for every plugged index 1..=3.
        for k in 1..=3 {
            assert!(out.contains(&ProtoAction::MarkCut { seq: k, back: 0 }), "cut {k}");
        }
        assert_eq!(c.stats().get("ckpt.forced"), 1);
    }

    #[test]
    fn equal_or_lower_index_processes_directly() {
        let mut c = Cic::default();
        let mut out = Vec::new();
        c.initiate(&mut out); // sn = 1
        out.clear();
        let d = c
            .on_arrival(ProcessId(0), MsgId(0), CicEnv { payload: pl(5), sn: 1 }, &mut out)
            .unwrap();
        assert_eq!(d, Some(pl(5)));
        assert!(out.is_empty());
        let d = c
            .on_arrival(ProcessId(0), MsgId(1), CicEnv { payload: pl(5), sn: 0 }, &mut out)
            .unwrap();
        assert_eq!(d, Some(pl(5)));
        assert!(out.is_empty());
    }

    #[test]
    fn piggyback_carries_current_index() {
        let mut c = Cic::default();
        let mut out = Vec::new();
        c.initiate(&mut out);
        c.initiate(&mut out);
        let env = c.wrap_app(ProcessId(1), MsgId(0), pl(1), &mut out);
        assert_eq!(env.sn, 2);
    }

    #[test]
    fn wire_bytes_include_index() {
        let c = Cic::default();
        let env = CicEnv { payload: pl(100), sn: 1 };
        assert_eq!(c.env_wire_bytes(&env), wire_cost::app(100, 8));
    }
}
