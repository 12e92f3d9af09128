//! The three workloads and what they share: per-operation counts, the
//! Do-All contract check, and the traced engine helpers that split a run
//! by layer from outside the program.

pub mod giant_d;
pub mod serve_mixed;
pub mod storm_sweep;

use std::collections::BTreeMap;

use doall_sim::asynch::{AsyncConfig, AsyncEngine, AsyncProtocol, AsyncReport, AsyncRunError};
use doall_sim::{Adversary, Engine, MemBudget, Metrics, Protocol, Report, RunConfig, RunError};
use doall_workload::Scenario;

use crate::probe::{timed, ClockCost, Span};
use crate::wrap::{AdversaryTally, Timed, TimedAdversary};

/// Exact counts of one operation (one engine run or one job).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Units of work the operation must cover.
    pub n: u64,
    /// Units performed, with multiplicity.
    pub work_total: u64,
    /// Messages sent.
    pub messages: u64,
    /// Messages that reached retired recipients.
    pub dead_letters: u64,
    /// Simulated rounds (sync) or final virtual timestamp (async).
    pub rounds: u128,
    /// Rounds (sync) or timestamp batches (async) the engine executed.
    pub executed: u64,
    /// Crashed processes.
    pub crashes: u32,
    /// Messages suppressed by omission faults.
    pub omissions: u64,
    /// Crash-recovery restarts.
    pub recoveries: u32,
    /// Processes that terminated normally.
    pub terminations: u32,
    /// Whether the asynchronous engine ran it.
    pub asynch: bool,
}

impl OpCounts {
    fn new(n: usize, m: &Metrics, executed: u64, asynch: bool) -> Self {
        OpCounts {
            n: n as u64,
            work_total: m.work_total,
            messages: m.messages,
            dead_letters: m.dead_letters,
            rounds: m.rounds.get(),
            executed,
            crashes: m.crashes,
            omissions: m.omissions,
            recoveries: m.recoveries,
            terminations: m.terminations,
            asynch,
        }
    }

    /// Counts of a synchronous report over `n` units.
    pub fn of_sync(n: usize, r: &Report) -> Self {
        Self::new(n, &r.metrics, r.executed_rounds, false)
    }

    /// Counts of an asynchronous report over `n` units.
    pub fn of_async(n: usize, r: &AsyncReport) -> Self {
        Self::new(n, &r.metrics, r.executed, true)
    }

    /// The paper's effort: work plus messages.
    pub fn effort(&self) -> u64 {
        self.work_total + self.messages
    }
}

/// The Do-All contract: some process survived, and every unit was done.
pub fn check_contract(survived: bool, metrics: &Metrics) -> Result<(), String> {
    if !survived {
        return Err("no process survived".into());
    }
    if !metrics.all_work_done() {
        return Err(format!("{} units never performed", metrics.missing_units().len()));
    }
    Ok(())
}

/// One operation's outcome: its counts, or why it failed.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// What the operation counted (zeroes if it errored).
    pub counts: OpCounts,
    /// `Err` if the run errored, was rejected, or broke the contract.
    pub verdict: Result<(), String>,
}

impl Op {
    /// Checks a synchronous report over `n` units.
    pub fn of_sync(n: usize, r: &Report) -> Op {
        Op {
            counts: OpCounts::of_sync(n, r),
            verdict: check_contract(r.has_survivor(), &r.metrics),
        }
    }

    /// Checks an asynchronous report over `n` units.
    pub fn of_async(n: usize, r: &AsyncReport) -> Op {
        Op {
            counts: OpCounts::of_async(n, r),
            verdict: check_contract(r.has_survivor(), &r.metrics),
        }
    }

    /// An operation that failed before producing counts.
    pub fn failed(reason: String) -> Op {
        Op { counts: OpCounts::default(), verdict: Err(reason) }
    }

    /// Checks a synchronous engine result.
    pub fn sync(n: usize, result: &Result<Report, RunError>) -> Op {
        match result {
            Ok(r) => Op::of_sync(n, r),
            Err(e) => Op::failed(e.to_string()),
        }
    }
}

/// Virtual-time aggregates of a served stream, checked exactly.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FleetCounts {
    /// Jobs that ran to completion.
    pub completed: u64,
    /// Deepest the deferred queue got.
    pub max_queue_depth: u64,
    /// Busy slot-time over total slot-time.
    pub utilization: f64,
    /// 99th-percentile sojourn (submission to completion).
    pub p99_sojourn: u128,
    /// Virtual instant of the last event.
    pub horizon: u128,
}

/// Memory the engines of one pass held at once, by [`MemBudget`] pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemSplit {
    /// All engines (sync and async).
    pub all: MemBudget,
    /// The asynchronous engines alone.
    pub asynch: MemBudget,
}

/// Adds `b` into `a`, pool by pool.
pub fn add_mem(a: &mut MemBudget, b: &MemBudget) {
    a.soa_bytes += b.soa_bytes;
    a.flight_bytes += b.flight_bytes;
    a.ledger_bytes += b.ledger_bytes;
    a.proc_bytes += b.proc_bytes;
}

/// The larger of `a` and `b` by total, pool split kept.
pub fn max_mem(a: MemBudget, b: MemBudget) -> MemBudget {
    if b.total_bytes() > a.total_bytes() {
        b
    } else {
        a
    }
}

/// What the timed section of one pass over a workload produced.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Outcome {
    /// Every operation, in a fixed order.
    pub ops: Vec<Op>,
    /// Stream aggregates, one per session (served workloads only).
    pub fleet: Vec<FleetCounts>,
    /// Peak engine memory of the pass.
    pub mem: MemSplit,
}

impl Outcome {
    /// Summed effort over every operation.
    pub fn effort(&self) -> u64 {
        self.ops.iter().map(|o| o.counts.effort()).sum()
    }
}

/// Per-layer values of one traced pass, plus pooled latency samples.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Additive layer values (seconds and counts), by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Latency samples for the percentile metrics, by sample family.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Adds `v` to metric `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.values.entry(name).or_insert(0.0) += v;
    }

    /// The current value of `name` (0 when never added).
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Records one latency sample in `family`.
    pub fn sample(&mut self, family: &'static str, v: f64) {
        self.samples.entry(family).or_default().push(v);
    }
}

/// A workload: inputs generated from the seed, then set-up, run and check
/// as separate steps so that only the first two are timed, plus a traced
/// pass that splits the run by layer.
///
/// The run times itself in pieces (a round, an engine run, a session) of
/// a few milliseconds each, the same pieces in the same order on every
/// pass, so that each piece's fastest pass can be found.
pub trait Workload {
    /// Everything built before the first round.
    type Prepared;
    /// What the run returns, before checking.
    type Raw;

    /// Set-up: protocol constructors, scenario lowering, engine
    /// construction, job building and submission.
    fn setup(&self) -> Self::Prepared;

    /// The timed section: runs every engine or job to completion, pushing
    /// the span of each piece onto `pieces`.
    fn run(&self, prepared: Self::Prepared, pieces: &mut Vec<Span>) -> Self::Raw;

    /// Checks the run's results (untimed).
    fn check(&self, raw: Self::Raw) -> Outcome;

    /// One pass with every layer boundary wrapped and timed. Its outcome
    /// must equal the untraced pass's.
    fn traced(&self, clock: ClockCost) -> (Outcome, Layers);
}

/// The engine type of a traced synchronous run.
type WrappedEngine<P> = Engine<Timed<P>, TimedAdversary<Box<dyn Adversary<<P as Protocol>::Msg>>>>;

/// A synchronous engine over wrapped processes and adversary, built and
/// paused before round 1.
pub struct TracedEngine<P: Protocol> {
    engine: WrappedEngine<P>,
    adversary: AdversaryTally,
    shards: f64,
}

impl<P> TracedEngine<P>
where
    P: Protocol + Send,
    P::Msg: Send + Sync + 'static,
{
    /// Lowers `scenario` and builds the engine, timing both into `layers`.
    pub fn new(
        procs: Vec<P>,
        scenario: &Scenario,
        cfg: RunConfig,
        layers: &mut Layers,
    ) -> Result<Self, RunError> {
        let shards = cfg.shards.map_or(1, |s| s.get()) as f64;
        let (adversary, lower_s) = timed(|| scenario.adversary::<P::Msg>());
        layers.add("workload.lower_s", lower_s);
        let (adversary, tally) = TimedAdversary::new(adversary);
        let (engine, new_s) = timed(|| Engine::new(Timed::wrap_all(procs), adversary, cfg));
        layers.add("engine.new_s", new_s);
        Ok(TracedEngine { engine: engine?, adversary: tally, shards })
    }

    /// Runs to completion, adding the run's layer split to `layers`.
    /// `per_round` also times each executed round (stepping
    /// `run_until(round + 1)`).
    pub fn run(
        mut self,
        per_round: bool,
        clock: ClockCost,
        layers: &mut Layers,
    ) -> Result<Report, RunError> {
        let engine = &mut self.engine;
        let mut run_s = 0.0;
        if per_round {
            loop {
                let stop = engine.round() + 1u64;
                let (done, s) = timed(|| engine.run_until(Some(stop)));
                run_s += s;
                layers.sample("round_us", s * 1e6);
                if done? {
                    break;
                }
            }
        } else {
            let (done, s) = timed(|| engine.run_until(None));
            done?;
            run_s = s;
        }
        layers.add("engine.run_s", run_s);
        layers.sample("run_ms", run_s * 1e3);
        let ((report, procs), report_s) = timed(|| self.engine.into_report());
        layers.add("engine.report_s", report_s);

        let steps = Timed::tally(&procs);
        let adv = self.adversary.get();
        // Sharded workers step concurrently: on the wall clock the step
        // phase costs its summed time over the shard count (balanced lanes).
        let step_s = steps.busy_s(clock);
        let self_s = run_s
            - step_s / self.shards
            - adv.busy_s(clock)
            - (steps.overhead_s(clock) / self.shards + adv.overhead_s(clock));
        layers.add("core.steps", steps.calls as f64);
        layers.add("core.step_s", step_s);
        layers.add("engine.self_s", self_s);
        layers.add("adversary.calls", adv.calls as f64);
        layers.add("adversary.s", adv.busy_s(clock));
        Ok(report)
    }
}

/// Builds and runs one synchronous engine with wrapped protocol and
/// adversary (see [`TracedEngine`]).
pub fn traced_sync<P>(
    procs: Vec<P>,
    scenario: &Scenario,
    cfg: RunConfig,
    per_round: bool,
    clock: ClockCost,
    layers: &mut Layers,
) -> Result<Report, RunError>
where
    P: Protocol + Send,
    P::Msg: Send + Sync + 'static,
{
    TracedEngine::new(procs, scenario, cfg, layers)?.run(per_round, clock, layers)
}

/// Drives one asynchronous engine with wrapped protocol and adversary,
/// adding its layer split to `layers`.
pub fn traced_async<P>(
    procs: Vec<P>,
    scenario: &Scenario,
    cfg: AsyncConfig,
    clock: ClockCost,
    layers: &mut Layers,
) -> Result<AsyncReport, AsyncRunError>
where
    P: AsyncProtocol,
    P::Msg: 'static,
{
    let (adversary, lower_s) = timed(|| scenario.async_adversary::<P::Msg>());
    layers.add("workload.lower_s", lower_s);
    let (adversary, adv_tally) = TimedAdversary::new(adversary);
    let (engine, new_s) = timed(|| AsyncEngine::new(Timed::wrap_all(procs), adversary, cfg));
    layers.add("asynch.new_s", new_s);
    let mut engine = engine?;
    let (done, run_s) = timed(|| engine.run_until(None));
    done?;
    let handlers = Timed::tally(engine.processes());
    let adv = adv_tally.get();
    let report = engine.into_report();

    let self_s = run_s
        - handlers.busy_s(clock)
        - adv.busy_s(clock)
        - (handlers.overhead_s(clock) + adv.overhead_s(clock));
    layers.add("asynch.run_s", run_s);
    layers.add("asynch.self_s", self_s);
    layers.add("core.handlers", handlers.calls as f64);
    layers.add("core.handler_s", handlers.busy_s(clock));
    layers.add("adversary.calls", adv.calls as f64);
    layers.add("adversary.s", adv.busy_s(clock));
    Ok(report)
}

/// splitmix64: the benchmark's own input generator, so its inputs never
/// depend on the program's random-number code.
#[derive(Clone, Debug)]
pub struct InputRng(u64);

impl InputRng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = InputRng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}
