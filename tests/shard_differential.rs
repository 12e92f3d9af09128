//! Differential test for sharded parallel stepping: for every shard
//! count, the engine must produce a [`Report`] identical to the
//! sequential engine's — metrics (totals, per-class counts, dead
//! letters, per-unit work multiplicities), the full recorded trace, and
//! final statuses. Sharding is purely a wall-clock knob (DESIGN.md
//! §2.13): the engine thread steps and settles the first chunk of each
//! round's due list, worker threads step the other chunks into private
//! effect buffers, and the engine thread settles those in pid order,
//! which is exactly the sequential visitation order.
//!
//! Shard counts cover uneven splits (3, 5, 7, 13), powers of two
//! (2, 16, 32), and more shards than every fixture has processes (t = 16
//! with 32 shards leaves empty tail shards; 16 shards leaves one pid per
//! shard).
//!
//! Beyond full-Report equality, the proptest at the bottom pins the
//! *inbox-order* contract of the round pipeline (DESIGN.md §2.13): each
//! recipient must observe exactly the `(sender, payload)` sequence the
//! sequential engine delivers, in the same order, at every shard count —
//! settling lanes and queueing their sends may never reorder
//! same-recipient traffic.

use doall::sim::{
    run, run_returning, Classify, CrashSchedule, CrashSpec, Effects, Inbox, NoFailures, Pid,
    Protocol, Report, Round, RunConfig, Unit,
};
use doall::workload::Scenario;
use doall::{Lockstep, ProtocolA, ProtocolB, ProtocolC, ProtocolD};
use proptest::prelude::*;

const SHARDS: [usize; 7] = [2, 3, 5, 7, 13, 16, 32];

/// Runs the same (procs, scenario) pair sequentially and at every shard
/// count, asserting full-Report equality (trace recording on).
fn assert_shard_invariant<P>(build: impl Fn() -> Vec<P>, scenario: &Scenario, n: u64)
where
    P: Protocol + Send,
    P::Msg: Send + Sync + 'static,
{
    let cfg =
        |shards: usize| RunConfig::new(n as usize, Round::MAX).with_trace().with_shards(shards);
    let sequential: Report = run(build(), scenario.adversary::<P::Msg>(), cfg(1))
        .unwrap_or_else(|e| panic!("sequential run failed under {}: {e}", scenario.label()));
    for shards in SHARDS {
        let sharded =
            run(build(), scenario.adversary::<P::Msg>(), cfg(shards)).unwrap_or_else(|e| {
                panic!("{shards}-shard run failed under {}: {e}", scenario.label())
            });
        assert_eq!(
            sequential,
            sharded,
            "{shards}-shard report diverged from sequential under {}",
            scenario.label()
        );
    }
}

#[test]
fn protocol_a_matches_sequential_across_shard_counts() {
    for scenario in [
        Scenario::FailureFree,
        Scenario::DeadOnArrival { k: 15 },
        Scenario::TakeoverCascade { victims: 15 },
        Scenario::CheckpointSplit { victims: 8, nth_send: 2, prefix: 1 },
    ] {
        assert_shard_invariant(|| ProtocolA::processes(64, 16).unwrap(), &scenario, 64);
    }
}

#[test]
fn protocol_b_matches_sequential_across_shard_counts() {
    for scenario in [
        Scenario::FailureFree,
        Scenario::MassExtinction { from: 1, k: 15, round: 1 },
        Scenario::TakeoverCascade { victims: 15 },
    ] {
        assert_shard_invariant(|| ProtocolB::processes(64, 16).unwrap(), &scenario, 64);
    }
}

#[test]
fn protocol_d_matches_sequential_across_shard_counts() {
    for scenario in [Scenario::FailureFree, Scenario::MassExtinction { from: 2, k: 6, round: 2 }] {
        assert_shard_invariant(|| ProtocolD::processes(64, 8).unwrap(), &scenario, 64);
        assert_shard_invariant(
            || ProtocolD::processes_with_coordinator(64, 8).unwrap(),
            &scenario,
            64,
        );
    }
}

/// Protocol C's takeover deadlines drive the engine's sparse
/// fast-forward: the round clock jumps across huge idle gaps, which the
/// sharded stepper must cross at exactly the same rounds.
#[test]
fn fast_forward_heavy_c_matches_sequential_across_shard_counts() {
    assert_shard_invariant(|| ProtocolC::processes(16, 16).unwrap(), &Scenario::FailureFree, 16);
    assert_shard_invariant(
        || ProtocolC::processes(8, 16).unwrap(),
        &Scenario::DeadOnArrival { k: 15 },
        8,
    );
    assert_shard_invariant(
        || ProtocolC::processes(16, 16).unwrap(),
        &Scenario::DeepIdle { k: 15, round: Round::new(1 << 40) },
        16,
    );
}

/// Lockstep broadcasts after every unit — the densest message plane the
/// baselines offer, so the stepping lanes' effect buffers carry real
/// load.
#[test]
fn lockstep_broadcast_storm_matches_sequential_across_shard_counts() {
    assert_shard_invariant(|| Lockstep::processes(128, 16).unwrap(), &Scenario::FailureFree, 128);
}

/// The trigger-based random adversary consumes its RNG stream in
/// interception order; the sharded engine intercepts on the engine thread
/// in pid order, so the stream — and therefore who crashes — must be
/// bit-identical at every shard count.
#[test]
fn random_crashes_match_sequential_across_shard_counts() {
    for seed in 0..8u64 {
        let scenario = Scenario::Random { seed, p: 0.05, max_crashes: 15 };
        assert_shard_invariant(|| ProtocolB::processes(64, 16).unwrap(), &scenario, 64);
    }
}

/// Beyond fail-stop: crash-recovery (the revival queue) and slowdown
/// (fault-plan-wrapped processes) under sharded stepping.
#[test]
fn fault_models_match_sequential_across_shard_counts() {
    let recover = Scenario::CrashRecovery { pid: 0, round: 3, downtime: 16, wipe: false };
    assert_shard_invariant(|| ProtocolB::processes(64, 16).unwrap(), &recover, 64);

    let slow = Scenario::Slowdown { pid: 0, from: 2, factor: 4, rounds: 32 };
    assert_shard_invariant(
        || slow.fault_plan().wrap(ProtocolB::processes(64, 16).unwrap()),
        &slow,
        64,
    );

    let omit = Scenario::Omission { pid: 0, send: true, from: 1, rounds: 8 };
    assert_shard_invariant(|| ProtocolB::processes(64, 16).unwrap(), &omit, 64);
}

/// Omission faults pinned to **shard-boundary pids**: with t = 16 the
/// chunk sizes are 8 (2 shards), 6 (3), 4 (5), 3 (7), 2 (13), 1 (16/32),
/// so the pids below sit on a first-pid-of-shard or last-pid-of-shard
/// seam for at least one tested shard count. A send- or receive-side
/// filter applied exactly at a seam is where an off-by-one in the step
/// chunk split or the receive-omission pre-pass would surface.
#[test]
fn boundary_omissions_match_sequential_across_shard_counts() {
    for pid in [0u64, 3, 4, 6, 7, 8, 11, 12, 15] {
        for send in [true, false] {
            let omit = Scenario::Omission { pid, send, from: 1, rounds: 8 };
            assert_shard_invariant(|| ProtocolB::processes(64, 16).unwrap(), &omit, 64);
        }
    }
}

/// A broadcast storm (Lockstep broadcasts to everyone after every unit)
/// with an omission window at a shard seam: every op is a t-wide span
/// crossing all shard boundaries, while the filter clips one boundary
/// pid's traffic — the densest case for the CSR count/fill passes and
/// the receive-omission pre-pass that cuts spans into runs.
#[test]
fn broadcast_storm_with_boundary_omission_matches_sequential() {
    for pid in [7u64, 8] {
        for send in [true, false] {
            let omit = Scenario::Omission { pid, send, from: 2, rounds: 16 };
            assert_shard_invariant(|| Lockstep::processes(128, 16).unwrap(), &omit, 128);
        }
    }
}

/// SplitMix64 — the per-(seed, pid, round) decision hash of the recorder
/// fixture below.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Ping(u64);

impl Classify for Ping {
    fn class(&self) -> &'static str {
        "ping"
    }
}

/// A process that logs its inbox verbatim: every receipt is appended to
/// `log` as `(sender, payload)` in iteration order. Each round it emits a
/// hash-drawn mix of unicasts, boundary-crossing multicasts, and
/// *same-recipient payload pairs* (two sends to one pid in one round —
/// the case a reordering settle or inbox build could swap), then terminates
/// after `rounds` actions.
#[derive(Clone)]
struct Recorder {
    me: usize,
    t: usize,
    seed: u64,
    rounds: u64,
    acted: u64,
    log: Vec<(usize, u64)>,
}

impl Recorder {
    fn procs(t: usize, seed: u64) -> Vec<Recorder> {
        (0..t)
            .map(|me| Recorder { me, t, seed, rounds: 6 + seed % 5, acted: 0, log: Vec::new() })
            .collect()
    }
}

impl Protocol for Recorder {
    type Msg = Ping;

    fn step(&mut self, round: Round, inbox: Inbox<'_, Ping>, eff: &mut Effects<Ping>) {
        for (from, msg) in inbox.iter() {
            self.log.push((from.index(), msg.0));
        }
        self.acted += 1;
        let h = mix(self.seed ^ ((self.me as u64) << 32) ^ round.get() as u64);
        if h.is_multiple_of(3) {
            eff.perform(Unit::new(1 + (h >> 8) as usize % 4));
        }
        let to = Pid::new((h >> 16) as usize % self.t);
        match (h >> 4) % 3 {
            0 => eff.send(to, Ping(h >> 24)),
            1 => {
                let lo = (h >> 16) as usize % self.t;
                let hi = lo + 1 + (h >> 34) as usize % (self.t - lo);
                eff.multicast(lo..hi, Ping(h >> 24));
            }
            _ => {
                // Two payloads to the same recipient in one round: their
                // relative order is the sharpest thing the pipeline must
                // preserve.
                eff.send(to, Ping(h >> 24));
                eff.send(to, Ping(h >> 25));
            }
        }
        if self.acted >= self.rounds {
            eff.terminate();
        }
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        (self.acted < self.rounds).then_some(now)
    }
}

/// Runs `t` recorders to completion at a shard count and returns the
/// report plus every process's receipt log.
fn run_logs<A>(t: usize, seed: u64, shards: usize, adversary: A) -> (Report, Vec<Vec<(usize, u64)>>)
where
    A: doall::sim::Adversary<Ping>,
{
    let cfg = RunConfig::new(4, 100_000).with_trace().with_shards(shards);
    let (report, procs) =
        run_returning(Recorder::procs(t, seed), adversary, cfg).expect("recorders always retire");
    (report, procs.into_iter().map(|p| p.log).collect())
}

/// Up to `crashes` scripted crashes with assorted delivery filters, so the
/// sharded run also exercises the crash-clipped delivery paths.
fn recorder_schedule(t: usize, seed: u64, crashes: u64) -> CrashSchedule {
    let mut sched = CrashSchedule::new();
    for c in 0..crashes {
        let h = mix(seed ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let spec = match h % 3 {
            0 => CrashSpec::silent(),
            1 => CrashSpec::after_round(),
            _ => CrashSpec::prefix((h >> 40) as usize % (t + 1)),
        };
        sched = sched.crash_at(Pid::new(h as usize % t), 1 + (h >> 16) % 8, spec);
    }
    sched
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The round pipeline preserves each recipient's
    /// `(sender, payload)` inbox sequence exactly: at every shard count
    /// the receipt logs — not just the aggregate Report — match the
    /// sequential engine's, under no-failure runs (whole ops) and under
    /// scripted crashes (the clipped paths).
    #[test]
    fn two_phase_exchange_preserves_per_recipient_order(
        t in 8usize..=28,
        seed in any::<u64>(),
        crashes in 0u64..4,
    ) {
        let (seq_report, seq_logs) = if crashes == 0 {
            run_logs(t, seed, 1, NoFailures)
        } else {
            run_logs(t, seed, 1, recorder_schedule(t, seed, crashes))
        };
        for shards in [5usize, 16] {
            let (report, logs) = if crashes == 0 {
                run_logs(t, seed, shards, NoFailures)
            } else {
                run_logs(t, seed, shards, recorder_schedule(t, seed, crashes))
            };
            prop_assert_eq!(&seq_report, &report, "report diverged at {} shards", shards);
            prop_assert_eq!(&seq_logs, &logs, "inbox order diverged at {} shards", shards);
        }
    }
}
