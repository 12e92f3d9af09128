//! `giant_d`: one failure-free coordinator-D run at t = 2^16, n = 2^23 on
//! two shards. The lane pipeline and the work ledger do nearly all the
//! work (2^23 units, 131 070 messages, no faults); this is where ledger
//! compaction and the shard pipeline show. The seed does not change it.

use doall_core::ProtocolD;
use doall_sim::{Adversary, Engine, Report, Round, RunConfig, RunError};
use doall_workload::Scenario;

use super::{Layers, MemSplit, Op, Outcome, Workload};
use crate::probe::{span, timed, ClockCost, Span};

/// System size.
pub const T: u64 = 1 << 16;
/// Units of work.
pub const N: u64 = 1 << 23;
/// Engine shards (one per host core).
pub const SHARDS: usize = 2;

/// The `giant_d` workload.
#[derive(Clone, Debug, Default)]
pub struct GiantD;

type DMsg = <ProtocolD as doall_sim::Protocol>::Msg;

fn config() -> RunConfig {
    RunConfig::new(N as usize, Round::MAX).with_shards(SHARDS)
}

impl Workload for GiantD {
    type Prepared = Engine<ProtocolD, Box<dyn Adversary<DMsg>>>;
    type Raw = Result<Report, RunError>;

    fn setup(&self) -> Self::Prepared {
        let procs = ProtocolD::processes_with_coordinator(N, T).expect("valid (n, t)");
        let adversary = Scenario::FailureFree.adversary::<DMsg>();
        Engine::new(procs, adversary, config()).expect("failure-free adversary accepts any t")
    }

    fn run(&self, mut engine: Self::Prepared, pieces: &mut Vec<Span>) -> Self::Raw {
        // One piece per round (a few milliseconds each); pausing at every
        // round boundary executes the same rounds as one `run_until(None)`.
        loop {
            let stop = engine.round() + 1u64;
            let (done, s) = span(|| engine.run_until(Some(stop)));
            pieces.push(s);
            if done? {
                break;
            }
        }
        let (report, s) = span(|| engine.into_report().0);
        pieces.push(s);
        Ok(report)
    }

    fn check(&self, result: Self::Raw) -> Outcome {
        outcome(Op::sync(N as usize, &result), result.ok().map(|r| r.mem))
    }

    fn traced(&self, clock: ClockCost) -> (Outcome, Layers) {
        let mut layers = Layers::default();
        let (procs, build_s) =
            timed(|| ProtocolD::processes_with_coordinator(N, T).expect("valid (n, t)"));
        layers.add("core.build_s", build_s);
        let result =
            super::traced_sync(procs, &Scenario::FailureFree, config(), true, clock, &mut layers);
        // The wrapped processes are larger; memory is read untraced.
        (outcome(Op::sync(N as usize, &result), None), layers)
    }
}

fn outcome(op: Op, mem: Option<doall_sim::MemBudget>) -> Outcome {
    let all = mem.unwrap_or_default();
    Outcome { ops: vec![op], fleet: vec![], mem: MemSplit { all, ..MemSplit::default() } }
}
