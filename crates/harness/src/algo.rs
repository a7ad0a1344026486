//! Algorithm selection and run dispatch.
//!
//! Experiments pick algorithms by value from this enum; `run` monomorphises
//! a [`Runner`] per variant so each protocol runs with zero dynamic
//! dispatch in the hot loop.

use ocpt_baselines::{ChandyLamport, Cic, KooToueg, OcptAdapter, Staggered, Uncoordinated};
use ocpt_core::{LoggingKind, OcptConfig, WritePolicy};
use ocpt_sim::ProcessId;

use crate::runner::{RunConfig, RunResult, Runner};

/// A runnable checkpointing algorithm.
#[derive(Clone, Debug)]
pub enum Algo {
    /// The paper's algorithm with an explicit configuration.
    Ocpt(OcptConfig),
    /// Chandy–Lamport iterated snapshots.
    ChandyLamport,
    /// Koo–Toueg blocking coordinated checkpointing.
    KooToueg,
    /// Vaidya-style staggered checkpointing.
    Staggered,
    /// Index-based communication-induced checkpointing.
    Cic,
    /// Uncoordinated periodic checkpointing.
    Uncoordinated,
}

impl Algo {
    /// The paper's algorithm with default settings.
    pub fn ocpt() -> Self {
        Algo::Ocpt(OcptConfig::default())
    }

    /// The paper's algorithm with the unoptimized control layer (A1).
    pub fn ocpt_naive() -> Self {
        Algo::Ocpt(OcptConfig::naive_control())
    }

    /// The paper's basic algorithm without control messages (may fail to
    /// converge — used to demonstrate the convergence problem).
    pub fn ocpt_basic() -> Self {
        Algo::Ocpt(OcptConfig::basic_only())
    }

    /// The paper's algorithm with an alternative message-logging strategy
    /// (E10's axis; `LoggingKind::Selective` is `Algo::ocpt()` itself).
    pub fn ocpt_logging(kind: LoggingKind) -> Self {
        Algo::Ocpt(OcptConfig { logging: kind, ..OcptConfig::default() })
    }

    /// Display name (matches `RunResult::algo` for the plain variants).
    pub fn name(&self) -> &'static str {
        match self {
            Algo::Ocpt(c) if !c.control_messages => "ocpt-basic",
            Algo::Ocpt(c) if !c.optimize_ck_bgn => "ocpt-naive",
            Algo::Ocpt(c) if c.logging != LoggingKind::Selective => match c.logging {
                LoggingKind::Selective => unreachable!(),
                LoggingKind::SenderBased => "ocpt-sender",
                LoggingKind::ReceiverBased => "ocpt-receiver",
                LoggingKind::CausalCompressed => "ocpt-causal",
            },
            Algo::Ocpt(_) => "ocpt",
            Algo::ChandyLamport => "chandy-lamport",
            Algo::KooToueg => "koo-toueg",
            Algo::Staggered => "staggered",
            Algo::Cic => "cic",
            Algo::Uncoordinated => "uncoordinated",
        }
    }

    /// All comparison algorithms (the paper's + every baseline).
    pub fn comparison_set() -> Vec<Algo> {
        vec![
            Algo::ocpt(),
            Algo::ChandyLamport,
            Algo::KooToueg,
            Algo::Staggered,
            Algo::Cic,
            Algo::Uncoordinated,
        ]
    }
}

/// Run `algo` under `cfg` and collect the results.
pub fn run(algo: &Algo, cfg: RunConfig) -> RunResult {
    let state_bytes = cfg.state_bytes;
    match algo {
        Algo::Ocpt(ocfg) => {
            let mut ocfg =
                OcptConfig { state_bytes, checkpoint_interval: cfg.checkpoint_interval, ..*ocfg };
            // Size the deferred-write spread for this run: wide enough that
            // consecutive offsets exceed one write's service time (or the
            // cascade re-creates the contention it exists to avoid), but
            // never past ~half the interval so writes drain before the
            // next round. The configured window acts as a lower bound for
            // explicit ablations.
            let write_s = state_bytes as f64 / cfg.storage.bandwidth_bps
                + cfg.storage.per_request_overhead.as_secs_f64();
            let needed = ocpt_sim::SimDuration::from_secs_f64(write_s * cfg.sim.n as f64 * 1.25);
            let half = cfg.checkpoint_interval.mul_f64(0.45);
            ocfg.finalize_write = match ocfg.finalize_write {
                WritePolicy::Jittered { window } => {
                    WritePolicy::Jittered { window: window.max(needed).min(half) }
                }
                WritePolicy::Phased { window } => {
                    WritePolicy::Phased { window: window.max(needed).min(half) }
                }
                w => w,
            };
            let mut result =
                Runner::new(cfg, move |pid, n, seed| OcptAdapter::new(pid, n, ocfg, seed)).run();
            // Distinguish the variants in reports.
            if !ocfg.control_messages {
                result.algo = "ocpt-basic";
            } else if !ocfg.optimize_ck_bgn {
                result.algo = "ocpt-naive";
            } else if ocfg.logging != LoggingKind::Selective {
                result.algo = Algo::Ocpt(ocfg).name();
            }
            result
        }
        Algo::ChandyLamport => {
            Runner::new(cfg, move |pid, n, _| ChandyLamport::new(pid, n, state_bytes)).run()
        }
        Algo::KooToueg => Runner::new(cfg, |pid, n, _| KooToueg::new(pid, n)).run(),
        Algo::Staggered => Runner::new(cfg, |pid, n, _| Staggered::new(pid, n)).run(),
        Algo::Cic => Runner::new(cfg, |_, _, _| Cic::default()).run(),
        Algo::Uncoordinated => Runner::new(cfg, |_, _, _| Uncoordinated::default()).run(),
    }
}

/// Convenience used all over the tests: run and assert the run was clean
/// (no protocol error) and, when the observer is on, fully consistent.
pub fn run_checked(algo: &Algo, cfg: RunConfig) -> RunResult {
    let observing = cfg.observe;
    let result = run(algo, cfg);
    assert!(
        result.protocol_error.is_none(),
        "{}: protocol error: {:?}",
        result.algo,
        result.protocol_error
    );
    // Uncoordinated checkpointing makes no consistency promise — that is
    // precisely its failure mode (domino effect); everyone else must
    // produce only consistent global checkpoints.
    if observing && result.crash.is_none() && result.algo != "uncoordinated" {
        result.verify_consistency().unwrap_or_else(|e| panic!("{}: {e}", result.algo));
    }
    result
}

/// The coordinator process id (re-export for experiment code readability).
pub const COORDINATOR: ProcessId = ProcessId::P0;
