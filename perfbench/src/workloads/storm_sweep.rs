//! `storm_sweep`: a sequential sweep (`shards = 1`) of synchronous
//! Protocol A and B runs at t = 1024, n = 4096 under seeded crash storms
//! (`Scenario::Random`, up to t − 1 crashes), with one run in four under
//! a send- or receive-omission window on the active process instead, so
//! the delivery-filtering inbox build runs. The message plane, fate
//! ruling and takeover logic dominate; the ledger is tiny and no lanes
//! run. It is the bypass side of `giant_d`.

use doall_core::{ProtocolA, ProtocolB};
use doall_sim::{Adversary, Engine, Protocol, Report, Round, RunConfig, RunError};
use doall_workload::Scenario;

use super::{add_mem, InputRng, Layers, Op, Outcome, TracedEngine, Workload};
use crate::probe::{span, timed, ClockCost, Span};

/// System size of every run.
pub const T: u64 = 1024;
/// Units of work of every run.
pub const N: u64 = 4096;
/// Runs per pass.
pub const RUNS: usize = 60;
/// Per-round crash probability of the storms.
pub const CRASH_P: f64 = 0.02;

/// Which protocol a run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// Protocol A (§2).
    A,
    /// Protocol B (§2).
    B,
}

/// One run of the sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct RunSpec {
    /// The protocol.
    pub proto: Proto,
    /// The failure scenario.
    pub scenario: Scenario,
}

/// The `storm_sweep` workload: its runs, generated from the seed.
#[derive(Clone, Debug)]
pub struct StormSweep {
    /// The runs, in sweep order.
    pub runs: Vec<RunSpec>,
}

impl StormSweep {
    /// The sweep for `seed`: runs alternate A and B; every fourth run has
    /// an omission window on process 0 (the first active process), the
    /// others a random crash storm.
    pub fn new(seed: u64) -> Self {
        let mut rng = InputRng::new(seed, 2);
        let runs = (0..RUNS)
            .map(|i| {
                let proto = if i % 2 == 0 { Proto::A } else { Proto::B };
                let scenario = if i % 4 == 3 {
                    Scenario::Omission {
                        pid: 0,
                        send: i % 8 == 3,
                        from: 1 + rng.below(N),
                        rounds: 64 + rng.below(4 * T),
                    }
                } else {
                    Scenario::Random {
                        seed: rng.next_u64(),
                        p: CRASH_P,
                        max_crashes: (T - 1) as u32,
                    }
                };
                RunSpec { proto, scenario }
            })
            .collect();
        StormSweep { runs }
    }
}

fn config() -> RunConfig {
    RunConfig::new(N as usize, Round::MAX).with_shards(1)
}

/// An engine of either protocol, built and paused before round 1.
pub enum Prepared {
    /// A Protocol A engine.
    A(Engine<ProtocolA, Box<dyn Adversary<<ProtocolA as Protocol>::Msg>>>),
    /// A Protocol B engine.
    B(Engine<ProtocolB, Box<dyn Adversary<<ProtocolB as Protocol>::Msg>>>),
}

/// A traced engine of either protocol (or why it could not be built).
enum Traced {
    A(Result<TracedEngine<ProtocolA>, RunError>),
    B(Result<TracedEngine<ProtocolB>, RunError>),
}

fn engine<P>(procs: Vec<P>, scenario: &Scenario) -> Engine<P, Box<dyn Adversary<P::Msg>>>
where
    P: Protocol + Send,
    P::Msg: Send + Sync + 'static,
{
    Engine::new(procs, scenario.adversary::<P::Msg>(), config()).expect("scenario validates")
}

fn finish<P>(mut e: Engine<P, Box<dyn Adversary<P::Msg>>>) -> Result<Report, RunError>
where
    P: Protocol + Send,
    P::Msg: Send + Sync,
{
    e.run_until(None).map(|_| e.into_report().0)
}

impl Workload for StormSweep {
    type Prepared = Vec<Prepared>;
    type Raw = Vec<Result<Report, RunError>>;

    fn setup(&self) -> Vec<Prepared> {
        self.runs
            .iter()
            .map(|r| match r.proto {
                Proto::A => {
                    Prepared::A(engine(ProtocolA::processes(N, T).expect("valid"), &r.scenario))
                }
                Proto::B => {
                    Prepared::B(engine(ProtocolB::processes(N, T).expect("valid"), &r.scenario))
                }
            })
            .collect()
    }

    fn run(&self, engines: Vec<Prepared>, pieces: &mut Vec<Span>) -> Self::Raw {
        // One piece per engine run.
        engines
            .into_iter()
            .map(|e| {
                let (result, s) = span(|| match e {
                    Prepared::A(e) => finish(e),
                    Prepared::B(e) => finish(e),
                });
                pieces.push(s);
                result
            })
            .collect()
    }

    fn check(&self, results: Self::Raw) -> Outcome {
        // Every engine is built before the sweep runs, so their peaks add.
        let mut out = Outcome::default();
        for result in &results {
            if let Ok(r) = result {
                add_mem(&mut out.mem.all, &r.mem);
            }
            out.ops.push(Op::sync(N as usize, result));
        }
        out
    }

    fn traced(&self, clock: ClockCost) -> (Outcome, Layers) {
        // Mirrors the untraced pass: every engine is built, then each runs.
        let mut layers = Layers::default();
        let engines: Vec<Traced> = self
            .runs
            .iter()
            .map(|r| match r.proto {
                Proto::A => {
                    let (procs, s) = timed(|| ProtocolA::processes(N, T).expect("valid"));
                    layers.add("core.build_s", s);
                    Traced::A(TracedEngine::new(procs, &r.scenario, config(), &mut layers))
                }
                Proto::B => {
                    let (procs, s) = timed(|| ProtocolB::processes(N, T).expect("valid"));
                    layers.add("core.build_s", s);
                    Traced::B(TracedEngine::new(procs, &r.scenario, config(), &mut layers))
                }
            })
            .collect();
        let mut out = Outcome::default();
        for e in engines {
            let result = match e {
                Traced::A(e) => e.and_then(|e| e.run(false, clock, &mut layers)),
                Traced::B(e) => e.and_then(|e| e.run(false, clock, &mut layers)),
            };
            out.ops.push(Op::sync(N as usize, &result));
        }
        // The wrapped processes are larger; memory is read untraced.
        (out, layers)
    }
}
