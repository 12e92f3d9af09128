//! `serve_mixed`: a seeded Poisson stream of small jobs (t = 64, n = 256)
//! mixing sync B, sync D, async A and async B (uniform delay), with every
//! third job under a seeded `Random` crash storm, served in windows of 50
//! jobs, one `Session` each. The pool and arrival gap keep the virtual
//! queue bounded and the admission cap is never reached, so no job is
//! rejected. Per-job set-up, the async event queue with handler dispatch,
//! and the `Session` scheduler dominate; the giant-scale paths do nothing.

use doall_core::{AsyncProtocolA, AsyncProtocolB, ProtocolB, ProtocolD};
use doall_service::{Admission, FleetReport, Job, JobReport, JobSpec, Pool, Session, Verdict};
use doall_sim::asynch::{AsyncConfig, AsyncProtocol, DelayDist};
use doall_sim::{Protocol, Round, RunConfig};
use doall_workload::Scenario;

use super::{max_mem, FleetCounts, InputRng, Layers, Op, Outcome, Workload};
use crate::probe::{span, timed, ClockCost, Span};

/// System size of every job.
pub const T: u64 = 64;
/// Units of work of every job.
pub const N: u64 = 256;
/// Jobs per stream.
pub const JOBS: usize = 1000;
/// Jobs per session: each session is one timed piece of the run.
pub const SESSION_JOBS: usize = 50;
/// Pool slots: room for eight jobs at once.
pub const POOL_SLOTS: usize = 8 * T as usize;
/// Mean virtual gap between arrivals.
pub const MEAN_GAP: u64 = 64;
/// Per-round (sync) / per-invocation (async) crash probability of the
/// storm jobs.
pub const CRASH_P: f64 = 0.01;
/// Delay bound of the async jobs (uniform in `1..=MAX_DELAY`).
pub const MAX_DELAY: u64 = 4;

/// Which protocol and plane a job uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Protocol B on the synchronous engine.
    SyncB,
    /// Protocol D on the synchronous engine.
    SyncD,
    /// Asynchronous Protocol A.
    AsyncA,
    /// Asynchronous Protocol B.
    AsyncB,
}

/// One job of the stream.
#[derive(Clone, Debug, PartialEq)]
pub struct JobInput {
    /// Virtual arrival instant.
    pub at: u128,
    /// Protocol and plane.
    pub kind: Kind,
    /// Failure scenario.
    pub scenario: Scenario,
    /// Delay seed (async jobs).
    pub seed: u64,
}

/// The `serve_mixed` workload: its job stream, generated from the seed.
#[derive(Clone, Debug)]
pub struct ServeMixed {
    /// The jobs in arrival order, `SESSION_JOBS` to a session; arrival
    /// instants restart at each session.
    pub jobs: Vec<JobInput>,
}

impl ServeMixed {
    /// The stream for `seed`. Kinds cycle B, D, async A, async B; every
    /// third job gets a crash storm. Arrivals are a Bernoulli process
    /// (one arrival per virtual instant with probability 1/`MEAN_GAP`),
    /// the integer-exact discrete form of a Poisson stream.
    pub fn new(seed: u64) -> Self {
        const KINDS: [Kind; 4] = [Kind::SyncB, Kind::SyncD, Kind::AsyncA, Kind::AsyncB];
        let mut rng = InputRng::new(seed, 3);
        let mut at = 0u128;
        let jobs = (0..JOBS)
            .map(|i| {
                if i % SESSION_JOBS == 0 {
                    at = 0;
                }
                at += 1;
                while rng.below(MEAN_GAP) != 0 {
                    at += 1;
                }
                let scenario = if i % 3 == 0 {
                    Scenario::Random {
                        seed: rng.next_u64(),
                        p: CRASH_P,
                        max_crashes: (T - 1) as u32,
                    }
                } else {
                    Scenario::FailureFree
                };
                JobInput { at, kind: KINDS[i % 4], scenario, seed: rng.next_u64() }
            })
            .collect();
        ServeMixed { jobs }
    }

    /// The sessions with every job submitted; protocol constructor time
    /// is added to `build_s`.
    fn sessions(&self, build_s: &mut f64) -> Vec<Session> {
        self.jobs
            .chunks(SESSION_JOBS)
            .enumerate()
            .map(|(k, jobs)| {
                let mut session = Session::new(Pool::new(POOL_SLOTS), Admission::new(SESSION_JOBS));
                for (i, job) in jobs.iter().enumerate() {
                    session.submit(job.at, build_job(k * SESSION_JOBS + i, job, build_s));
                }
                session
            })
            .collect()
    }
}

fn sync_spec<P: Protocol>(procs: Vec<P>, job: &JobInput) -> JobSpec<P> {
    JobSpec::new(procs, N as usize).scenario(job.scenario.clone()).shards(1)
}

fn async_spec<P: AsyncProtocol>(procs: Vec<P>, job: &JobInput) -> JobSpec<P> {
    JobSpec::new(procs, N as usize)
        .scenario(job.scenario.clone())
        .seed(job.seed)
        .delay(DelayDist::Uniform, MAX_DELAY)
}

/// The sync config a `sync_spec` compiles to (see `JobSpec::run`).
fn sync_config() -> RunConfig {
    RunConfig::new(N as usize, Round::MAX).with_shards(1)
}

/// The async config an `async_spec` compiles to.
fn async_config(job: &JobInput) -> AsyncConfig {
    AsyncConfig::new(N as usize, job.seed).with_delay(DelayDist::Uniform, MAX_DELAY)
}

/// Job `i` as a boxed [`Job`], its protocol constructor timed into
/// `build_s`.
fn build_job(i: usize, job: &JobInput, build_s: &mut f64) -> Job {
    let label = format!("j{i}");
    match job.kind {
        Kind::SyncB => {
            let (procs, s) = timed(|| ProtocolB::processes(N, T).expect("valid (n, t)"));
            *build_s += s;
            sync_spec(procs, job).label(label).into_job()
        }
        Kind::SyncD => {
            let (procs, s) = timed(|| ProtocolD::processes(N, T).expect("valid (n, t)"));
            *build_s += s;
            sync_spec(procs, job).label(label).into_job()
        }
        Kind::AsyncA => {
            let (procs, s) = timed(|| AsyncProtocolA::processes(N, T).expect("valid (n, t)"));
            *build_s += s;
            async_spec(procs, job).label(label).into_async_job()
        }
        Kind::AsyncB => {
            let (procs, s) = timed(|| AsyncProtocolB::processes(N, T).expect("valid (n, t)"));
            *build_s += s;
            async_spec(procs, job).label(label).into_async_job()
        }
    }
}

/// How a job is run again outside the session: directly through its
/// `JobSpec` (for the scheduler's self time), or through the traced engine
/// helpers (for the layer split).
#[derive(Clone, Copy)]
enum Replay {
    Direct,
    Traced(ClockCost),
}

type Replayed = (Result<JobReport, String>, f64);

fn replay_sync<P>(procs: Vec<P>, job: &JobInput, how: Replay, layers: &mut Layers) -> Replayed
where
    P: Protocol + Send + 'static,
    P::Msg: Send + Sync + 'static,
{
    let (report, s) = match how {
        Replay::Direct => {
            let spec = sync_spec(procs, job);
            timed(|| spec.run())
        }
        Replay::Traced(clock) => {
            timed(|| super::traced_sync(procs, &job.scenario, sync_config(), false, clock, layers))
        }
    };
    (report.map(JobReport::Sync).map_err(|e| e.to_string()), s)
}

fn replay_async<P>(procs: Vec<P>, job: &JobInput, how: Replay, layers: &mut Layers) -> Replayed
where
    P: AsyncProtocol + Send + 'static,
    P::Msg: 'static,
{
    let (report, s) = match how {
        Replay::Direct => {
            let spec = async_spec(procs, job);
            timed(|| spec.run_async())
        }
        Replay::Traced(clock) => {
            timed(|| super::traced_async(procs, &job.scenario, async_config(job), clock, layers))
        }
    };
    (report.map(JobReport::Async).map_err(|e| e.to_string()), s)
}

/// Runs `job` again (constructors untimed) and returns its report and the
/// seconds the run took.
fn replay(job: &JobInput, how: Replay, layers: &mut Layers) -> Replayed {
    let valid = "valid (n, t)";
    match job.kind {
        Kind::SyncB => replay_sync(ProtocolB::processes(N, T).expect(valid), job, how, layers),
        Kind::SyncD => replay_sync(ProtocolD::processes(N, T).expect(valid), job, how, layers),
        Kind::AsyncA => {
            replay_async(AsyncProtocolA::processes(N, T).expect(valid), job, how, layers)
        }
        Kind::AsyncB => {
            replay_async(AsyncProtocolB::processes(N, T).expect(valid), job, how, layers)
        }
    }
}

impl Workload for ServeMixed {
    type Prepared = Vec<Session>;
    type Raw = Vec<FleetReport>;

    fn setup(&self) -> Vec<Session> {
        self.sessions(&mut 0.0)
    }

    fn run(&self, sessions: Vec<Session>, pieces: &mut Vec<Span>) -> Vec<FleetReport> {
        // One piece per session.
        sessions
            .into_iter()
            .map(|session| {
                let (fleet, s) = span(|| session.run());
                pieces.push(s);
                fleet
            })
            .collect()
    }

    fn check(&self, fleets: Vec<FleetReport>) -> Outcome {
        let mut out = Outcome::default();
        for rec in fleets.iter().flat_map(|f| &f.records) {
            let op = match (&rec.verdict, &rec.report) {
                (Verdict::Completed, Some(JobReport::Sync(r))) => {
                    out.mem.all = max_mem(out.mem.all, r.mem);
                    Op::of_sync(N as usize, r)
                }
                (Verdict::Completed, Some(JobReport::Async(r))) => {
                    out.mem.all = max_mem(out.mem.all, r.mem);
                    out.mem.asynch = max_mem(out.mem.asynch, r.mem);
                    Op::of_async(N as usize, r)
                }
                (verdict, _) => {
                    Op::failed(format!("job {}: {verdict:?} {:?}", rec.label, rec.error))
                }
            };
            out.ops.push(op);
        }
        out.fleet = fleets
            .iter()
            .map(|f| FleetCounts {
                completed: f.metrics.completed as u64,
                max_queue_depth: f.metrics.max_queue_depth as u64,
                utilization: f.metrics.utilization,
                p99_sojourn: f.metrics.p99_sojourn,
                horizon: f.metrics.horizon,
            })
            .collect();
        out
    }

    fn traced(&self, clock: ClockCost) -> (Outcome, Layers) {
        let mut layers = Layers::default();
        let mut build_s = 0.0;
        let (sessions, setup_s) = timed(|| self.sessions(&mut build_s));
        layers.add("core.build_s", build_s);
        layers.add("service.submit_s", setup_s - build_s);
        let (fleets, run_s) = timed(|| sessions.into_iter().map(Session::run).collect::<Vec<_>>());
        layers.add("service.run_s", run_s);

        // Served runs are bit-identical to direct ones by construction;
        // a replay that differs fails the job. Arrival instants strictly
        // increase within a session, so records are in job order. The
        // direct replays run back to back, as the sessions ran them,
        // before any traced one.
        let served: Vec<_> = fleets
            .iter()
            .flat_map(|f| &f.records)
            .map(|r| r.report.clone().ok_or(format!("{:?}", r.error)))
            .collect();
        let mut replay_ok = Vec::with_capacity(self.jobs.len());
        let mut direct_s = 0.0;
        for (job, served) in self.jobs.iter().zip(&served) {
            let (report, s) = replay(job, Replay::Direct, &mut layers);
            direct_s += s;
            layers.sample("job_ms", s * 1e3);
            replay_ok.push(report == *served);
        }
        let mut traced_s = 0.0;
        for ((job, served), ok) in self.jobs.iter().zip(&served).zip(&mut replay_ok) {
            let (report, s) = replay(job, Replay::Traced(clock), &mut layers);
            traced_s += s;
            *ok &= report == *served;
        }
        layers.add("service.sched_self_s", run_s - direct_s);
        layers.add("trace.plain_s", direct_s);
        layers.add("trace.traced_s", traced_s);
        let mut out = self.check(fleets);
        for (op, ok) in out.ops.iter_mut().zip(replay_ok) {
            if !ok && op.verdict.is_ok() {
                op.verdict = Err("a direct or traced replay differs from the served run".into());
            }
        }
        // The wrapped processes are larger; memory is read untraced.
        (out, layers)
    }
}
