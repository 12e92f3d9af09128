//! Engine-level integration tests: model-rule enforcement, delivery
//! semantics, fast-forward equivalence, adversary composition.

use doall::sim::{
    run, Classify, CrashSchedule, CrashSpec, Deliver, Effects, Inbox, NoFailures, Pid, Protocol,
    Round, RunConfig, RunError, Unit,
};

/// Ping-pong between two processes for a configurable number of volleys,
/// with an optional idle gap between volleys (to exercise fast-forward).
#[derive(Clone, Debug)]
struct Ball(u64);
impl Classify for Ball {
    fn class(&self) -> &'static str {
        "ball"
    }
}

struct Player {
    me: usize,
    volleys: u64,
    gap: u64,
    next_serve: Option<Round>,
    hits: u64,
}

impl Player {
    fn pair(volleys: u64, gap: u64) -> Vec<Player> {
        vec![
            Player { me: 0, volleys, gap, next_serve: Some(Round::ONE), hits: 0 },
            Player { me: 1, volleys, gap, next_serve: None, hits: 0 },
        ]
    }
}

impl Protocol for Player {
    type Msg = Ball;

    fn step(&mut self, round: Round, inbox: Inbox<'_, Ball>, eff: &mut Effects<Ball>) {
        if let Some((from, ball)) = inbox.iter().next() {
            self.hits += 1;
            if ball.0 >= self.volleys {
                eff.terminate();
                // Tell the peer to stop too.
                eff.send(from, Ball(ball.0 + 1));
                return;
            }
            // Return the ball after `gap` idle rounds.
            self.next_serve = Some(round + self.gap);
            self.hits += 0;
        }
        if self.next_serve == Some(round) {
            let n = self.hits + 1;
            let peer = Pid::new(1 - self.me);
            let count = if self.me == 0 { 2 * self.hits + 1 } else { 2 * self.hits };
            eff.send(peer, Ball(count));
            self.next_serve = None;
            if count >= self.volleys {
                eff.terminate();
            }
            let _ = n;
        }
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        self.next_serve.map(|r| r.max(now))
    }
}

#[test]
fn fast_forward_is_metric_equivalent_to_dense_execution() {
    // A run with huge idle gaps must produce identical message/work counts
    // and exactly the gap-scaled round count.
    let small = run(Player::pair(5, 2), NoFailures, RunConfig::new(0, 10_000)).unwrap();
    let large =
        run(Player::pair(5, 1_000_000), NoFailures, RunConfig::new(0, u64::MAX - 1)).unwrap();
    assert_eq!(small.metrics.messages, large.metrics.messages);
    assert!(large.metrics.rounds > 1_000_000u64, "gaps must count toward time");
}

/// A protocol that tries to perform two units in one round must be caught
/// by the model-rule assertion.
#[test]
#[should_panic(expected = "at most one unit of work per round")]
fn double_work_per_round_is_rejected() {
    struct Greedy;
    #[derive(Clone, Debug)]
    struct NoMsg;
    impl Classify for NoMsg {}
    impl Protocol for Greedy {
        type Msg = NoMsg;
        fn step(&mut self, _: Round, _: Inbox<'_, NoMsg>, eff: &mut Effects<NoMsg>) {
            eff.perform(Unit::new(1));
            eff.perform(Unit::new(2));
        }
        fn next_wakeup(&self, now: Round) -> Option<Round> {
            Some(now)
        }
    }
    let _ = run(vec![Greedy], NoFailures, RunConfig::new(2, 10));
}

#[test]
fn self_addressed_messages_are_delivered_next_round() {
    struct Echoist {
        sent: bool,
        got: bool,
    }
    #[derive(Clone, Debug)]
    struct Note;
    impl Classify for Note {}
    impl Protocol for Echoist {
        type Msg = Note;
        fn step(&mut self, _: Round, inbox: Inbox<'_, Note>, eff: &mut Effects<Note>) {
            if !self.sent {
                eff.send(Pid::new(0), Note);
                self.sent = true;
            } else if !inbox.is_empty() {
                self.got = true;
                eff.terminate();
            }
        }
        fn next_wakeup(&self, now: Round) -> Option<Round> {
            Some(now)
        }
    }
    let report =
        run(vec![Echoist { sent: false, got: false }], NoFailures, RunConfig::new(0, 10)).unwrap();
    assert_eq!(report.metrics.rounds, 2u64);
    assert_eq!(report.metrics.messages, 1);
}

/// A purely reactive protocol: never wakes on its own, acts only on
/// messages. Used to pin down fast-forward × adversary interactions.
struct Reactive;
#[derive(Clone, Debug)]
struct Nudge;
impl Classify for Nudge {}
impl Protocol for Reactive {
    type Msg = Nudge;
    fn step(&mut self, _: Round, _: Inbox<'_, Nudge>, _: &mut Effects<Nudge>) {}
    fn next_wakeup(&self, _: Round) -> Option<Round> {
        None
    }
}

/// Sleeps until `fire_at`, then performs one unit and terminates — the
/// minimal protocol for exercising fast-forward against round caps and
/// adversary schedules.
struct FireAt {
    fire_at: Round,
    done: bool,
}

impl FireAt {
    fn new(fire_at: impl Into<Round>) -> Self {
        FireAt { fire_at: fire_at.into(), done: false }
    }
}

impl Protocol for FireAt {
    type Msg = Nudge;
    fn step(&mut self, round: Round, _: Inbox<'_, Nudge>, eff: &mut Effects<Nudge>) {
        if round >= self.fire_at && !self.done {
            eff.perform(Unit::new(1));
            eff.terminate();
            self.done = true;
        }
    }
    fn next_wakeup(&self, now: Round) -> Option<Round> {
        if self.done {
            None
        } else {
            Some(self.fire_at.max(now))
        }
    }
}

#[test]
fn adversary_event_fires_on_a_round_where_no_process_wakes() {
    // No process ever wakes; the only future activity is the adversary's.
    // The engine must fast-forward *to the adversary's scheduled rounds*
    // (not deadlock, not execute 59 idle rounds) and let it crash both
    // processes at exactly the scheduled times.
    let adv = CrashSchedule::new().crash_at(Pid::new(0), 50, CrashSpec::silent()).crash_at(
        Pid::new(1),
        60,
        CrashSpec::silent(),
    );
    let report = run(vec![Reactive, Reactive], adv, RunConfig::new(0, 1_000)).unwrap();
    assert_eq!(report.metrics.rounds, 60u64);
    assert_eq!(report.metrics.crashes, 2);
    assert_eq!(report.statuses[0], doall::sim::Status::Crashed(Round::new(50)));
    assert_eq!(report.statuses[1], doall::sim::Status::Crashed(Round::new(60)));
    assert_eq!(report.survivor_count(), 0);
}

#[test]
fn wakeup_exactly_at_max_rounds_is_not_a_round_limit_error() {
    // A process whose only action is at round == max_rounds must still get
    // that round: the cap is inclusive.
    let report = run(vec![FireAt::new(500)], NoFailures, RunConfig::new(1, 500)).unwrap();
    assert_eq!(report.metrics.rounds, 500u64);
    assert_eq!(report.survivor_count(), 1);
    assert!(report.metrics.all_work_done());

    // One round later is out of budget.
    let err = run(vec![FireAt::new(501)], NoFailures, RunConfig::new(1, 500)).unwrap_err();
    assert!(matches!(err, doall::sim::RunError::RoundLimit { limit, .. } if limit == 500u64));
}

#[test]
fn fast_forward_resumes_after_all_but_one_process_retires() {
    // Kill everyone but a distant-deadline straggler in round 1: the engine
    // must skip ~10^6 idle rounds in O(1) once the crashes have happened,
    // and the straggler must still act at its deadline.
    let t = 8;
    let mut adv = CrashSchedule::new();
    for p in 0..t - 1 {
        adv = adv.crash_at(Pid::new(p), 1, CrashSpec::silent());
    }
    let mut procs: Vec<FireAt> = (0..t - 1).map(|_| FireAt::new(1)).collect();
    procs.push(FireAt::new(1_000_000));
    let report = run(procs, adv, RunConfig::new(1, 2_000_000)).unwrap();
    assert_eq!(report.metrics.rounds, 1_000_000u64);
    assert_eq!(report.metrics.crashes, (t - 1) as u32);
    assert_eq!(report.survivor_count(), 1);
    assert_eq!(report.survivors_iter().next(), Some(Pid::new(t - 1)));
    // Only the straggler's unit was performed: the victims died in round 1
    // before acting (silent crash), so exactly one unit total.
    assert_eq!(report.metrics.work_total, 1);
}

#[test]
fn crash_schedule_and_subset_delivery_compose() {
    // Two schedules on the same round, one clean and one subset: the
    // engine applies each victim's own spec.
    struct Spammer {
        me: usize,
        t: usize,
    }
    #[derive(Clone, Debug)]
    struct Blast;
    impl Classify for Blast {}
    impl Protocol for Spammer {
        type Msg = Blast;
        fn step(&mut self, round: Round, _: Inbox<'_, Blast>, eff: &mut Effects<Blast>) {
            let others = (0..self.t).filter(|p| *p != self.me).map(Pid::new);
            eff.broadcast(others, Blast);
            if round == 3u64 {
                eff.terminate();
            }
        }
        fn next_wakeup(&self, now: Round) -> Option<Round> {
            Some(now)
        }
    }
    let procs = (0..4).map(|me| Spammer { me, t: 4 }).collect();
    let adv = CrashSchedule::new().crash_at(Pid::new(0), 2, CrashSpec::silent()).crash_at(
        Pid::new(1),
        2,
        CrashSpec { deliver: Deliver::Subset([Pid::new(3)].into()), count_work: true },
    );
    let report = run(procs, adv, RunConfig::new(0, 10)).unwrap();
    // Round 1: 4 broadcasts × 3. Round 2: p0 suppressed (0), p1 subset (1),
    // p2 + p3 full (3 each). Round 3: p2 + p3 full.
    assert_eq!(report.metrics.messages, 12 + 7 + 6);
    assert_eq!(report.metrics.crashes, 2);
}

#[test]
fn round_limit_reports_partial_metrics() {
    // A protocol that never terminates trips the round cap with its
    // accumulated metrics intact.
    struct Forever;
    #[derive(Clone, Debug)]
    struct NoMsg;
    impl Classify for NoMsg {}
    impl Protocol for Forever {
        type Msg = NoMsg;
        fn step(&mut self, round: Round, _: Inbox<'_, NoMsg>, eff: &mut Effects<NoMsg>) {
            if round <= 3u64 {
                eff.perform(Unit::new(round.get() as usize));
            }
        }
        fn next_wakeup(&self, now: Round) -> Option<Round> {
            Some(now)
        }
    }
    match run(vec![Forever], NoFailures, RunConfig::new(3, 50)) {
        Err(doall::sim::RunError::RoundLimit { limit, metrics, .. }) => {
            assert_eq!(limit, 50u64);
            assert_eq!(metrics.work_total, 3);
        }
        other => panic!("expected RoundLimit, got {other:?}"),
    }
}

#[test]
fn terminated_processes_stop_receiving() {
    // After termination, inbound messages become dead letters.
    struct Quitter {
        me: usize,
    }
    #[derive(Clone, Debug)]
    struct Ping;
    impl Classify for Ping {}
    impl Protocol for Quitter {
        type Msg = Ping;
        fn step(&mut self, round: Round, _: Inbox<'_, Ping>, eff: &mut Effects<Ping>) {
            if self.me == 0 {
                eff.terminate();
            } else if round <= 3u64 {
                eff.send(Pid::new(0), Ping);
                if round == 3u64 {
                    eff.terminate();
                }
            }
        }
        fn next_wakeup(&self, now: Round) -> Option<Round> {
            Some(now)
        }
    }
    let report =
        run(vec![Quitter { me: 0 }, Quitter { me: 1 }], NoFailures, RunConfig::new(0, 10)).unwrap();
    assert_eq!(report.metrics.messages, 3);
    // Pings 1 and 2 arrive after p0 retired; ping 3 is still in flight
    // when the run ends (everyone has retired), so it is never delivered.
    assert_eq!(report.metrics.dead_letters, 2);
}

/// Process `me` idles through round 1 and performs unit `me + 1` in
/// round 2, so with more processes than units the high pids invent units
/// beyond `n`.
struct Inventor {
    me: usize,
}

#[derive(Clone, Debug)]
struct Quiet;
impl Classify for Quiet {}

impl Protocol for Inventor {
    type Msg = Quiet;
    fn step(&mut self, round: Round, _: Inbox<'_, Quiet>, eff: &mut Effects<Quiet>) {
        if round == 2u64 {
            eff.perform(Unit::new(self.me + 1));
            eff.terminate();
        }
    }
    fn next_wakeup(&self, now: Round) -> Option<Round> {
        Some(now)
    }
}

/// A unit beyond `n` fails the run with the lowest offending pid, on the
/// sequential path and the sharded lane pipeline alike.
#[test]
fn unit_beyond_n_is_an_error_on_every_sync_path() {
    for shards in [1, 2, 5] {
        let procs: Vec<Inventor> = (0..6).map(|me| Inventor { me }).collect();
        let err = run(procs, NoFailures, RunConfig::new(4, 10).with_shards(shards)).unwrap_err();
        match err {
            RunError::UnitOutOfRange { round, pid, unit, n } => {
                assert_eq!((round, pid, unit, n), (Round::new(2), Pid::new(4), Unit::new(5), 4));
            }
            other => panic!("shards {shards}: expected UnitOutOfRange, got {other}"),
        }
    }
}

/// The async plane (arena engine and reference scheduler) rejects a unit
/// beyond `n` the same way.
#[test]
fn unit_beyond_n_is_an_error_on_the_async_plane() {
    use doall::sim::asynch::reference::run_async_reference;
    use doall::sim::asynch::{run_async, AsyncConfig, AsyncEffects, AsyncProtocol, AsyncRunError};

    struct AsyncInventor {
        me: usize,
    }
    impl AsyncProtocol for AsyncInventor {
        type Msg = Quiet;
        fn on_start(&mut self, eff: &mut AsyncEffects<Quiet>) {
            eff.perform(Unit::new(self.me + 1));
            eff.terminate();
        }
        fn on_messages(&mut self, _: Inbox<'_, Quiet>, _: &mut AsyncEffects<Quiet>) {}
        fn on_retirement(&mut self, _: Pid, _: &mut AsyncEffects<Quiet>) {}
    }
    let procs = || (0..3).map(|me| AsyncInventor { me }).collect::<Vec<_>>();
    let cfg = AsyncConfig::new(2, 7);
    for err in [
        run_async(procs(), NoFailures, cfg.clone()).unwrap_err(),
        run_async_reference(procs(), NoFailures, cfg.clone()).unwrap_err(),
    ] {
        match err {
            AsyncRunError::UnitOutOfRange { pid, unit, n, .. } => {
                assert_eq!((pid, unit, n), (Pid::new(2), Unit::new(3), 2));
            }
            other => panic!("expected UnitOutOfRange, got {other}"),
        }
    }
}

/// Performs unit `me + 1` in round 1, then idles: process 3 terminates in
/// round 2, process 2 turns purely reactive, and the rest wake every round
/// without sending or working — a livelock only the watchdog can see.
struct Idler {
    me: usize,
}

impl Protocol for Idler {
    type Msg = Quiet;
    fn step(&mut self, round: Round, _: Inbox<'_, Quiet>, eff: &mut Effects<Quiet>) {
        if round == 1u64 {
            eff.perform(Unit::new(self.me + 1));
        } else if self.me == 3 {
            eff.terminate();
        }
    }
    fn next_wakeup(&self, now: Round) -> Option<Round> {
        (self.me != 2 || now == 1u64).then_some(now)
    }
}

/// The watchdog trips `Stalled` once more than `stall_window` executed
/// rounds pass without progress, and its diagnosis names the round, the
/// last progress, the stuck processes and what each waits on — the same
/// verdict with and without sharded stepping.
#[test]
fn idle_wakeups_trip_the_stall_watchdog() {
    let mut verdicts = Vec::new();
    for shards in [1, 3] {
        let procs: Vec<Idler> = (0..4).map(|me| Idler { me }).collect();
        let cfg = RunConfig::new(4, 1000).with_stall_window(5).with_shards(shards);
        match run(procs, NoFailures, cfg).unwrap_err() {
            RunError::Stalled { round, window, diagnosis, metrics } => {
                // Work in round 1 and a termination in round 2 are the last
                // progress; rounds 3..=8 are six idle rounds, one past the
                // window.
                assert_eq!((round, window), (Round::new(8), 5));
                assert_eq!(diagnosis.round, Round::new(8));
                assert_eq!(diagnosis.last_progress, Round::new(2));
                assert_eq!(diagnosis.stalled, vec![Pid::new(0), Pid::new(1), Pid::new(2)]);
                let wakeups = vec![
                    (Pid::new(0), Some(Round::new(9))),
                    (Pid::new(1), Some(Round::new(9))),
                    (Pid::new(2), None),
                ];
                assert_eq!(diagnosis.wakeups, wakeups);
                assert_eq!((diagnosis.pending_ops, diagnosis.pending_revivals), (0, 0));
                assert_eq!((metrics.work_total, metrics.terminations), (4, 1));
                verdicts.push((round, diagnosis, metrics));
            }
            other => panic!("shards {shards}: expected Stalled, got {other}"),
        }
    }
    assert_eq!(verdicts[0], verdicts[1]);
}

/// A ping-pong pair that never works or retires until the last volley
/// makes progress only by delivering: with a one-round window the
/// watchdog must still let it finish, at every shard count alike.
#[test]
fn deliveries_alone_keep_the_stall_watchdog_quiet() {
    let mut reports = Vec::new();
    for shards in [1, 3] {
        let cfg = RunConfig::new(0, 1000).with_stall_window(1).with_shards(shards);
        let report = run(Player::pair(40, 0), NoFailures, cfg)
            .unwrap_or_else(|e| panic!("shards {shards}: deliveries are progress, got {e}"));
        assert_eq!(report.metrics.work_total, 0);
        assert_eq!(report.metrics.messages, 41);
        reports.push(report);
    }
    assert_eq!(reports[0], reports[1]);
}
