//! Differential property test for the span-multicast message plane: a
//! *reference engine* that expands every send op into per-recipient
//! `(from, to, payload)` triples — the pre-PR-3 representation — must
//! produce byte-identical [`Report`]s (statuses and all metrics, including
//! `messages_by_class`, dead letters, and per-unit work multiplicities) to
//! the production engine's CSR span delivery, over randomly drawn
//! unicast/multicast patterns, crash schedules, and fast-forward gaps.
//!
//! The reference also models receive omission, consulting the adversary
//! once per live (message, recipient) in send order, so it stays an
//! independent check of the production engine's omission pre-pass and of
//! its sharded stepping: the last proptest draws send- and receive-side
//! omission windows as well as crash schedules, and runs the production
//! engine at several shard counts.

use doall::sim::{
    run, Adversary, AdversaryCtx, Classify, CrashSchedule, CrashSpec, Effects, Fate, Inbox,
    MemBudget, Metrics, Pid, Protocol, Report, Round, RunConfig, Status, Trace, Unit,
};
use doall::workload::Scenario;
use proptest::prelude::*;

/// A payload with two metric classes, so `messages_by_class` is exercised.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Chat(u64);

impl Classify for Chat {
    fn class(&self) -> &'static str {
        if self.0.is_multiple_of(2) {
            "even"
        } else {
            "odd"
        }
    }
}

/// SplitMix64: the per-(seed, pid, round) decision hash.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A scripted chatterbox: acts every `stride` rounds from `start`, for
/// `actions` actions, each drawn from a deterministic hash — some mix of a
/// work unit, a unicast, one or two span multicasts (possibly covering
/// dead pids), and a note; the final action terminates. Also echoes the
/// first few received messages, so reactive sends (and their ordering) are
/// covered too. Strides are drawn up to ~1000 rounds, which drives the
/// engine's fast-forward path between actions.
#[derive(Clone)]
struct Chatter {
    me: usize,
    t: usize,
    n: usize,
    seed: u64,
    start: Round,
    stride: u128,
    actions: u64,
    acted: u64,
    echoes_left: u32,
    checksum: u64,
}

impl Chatter {
    fn procs(t: usize, n: usize, seed: u64) -> Vec<Chatter> {
        (0..t)
            .map(|me| {
                let h = mix(seed ^ (me as u64).wrapping_mul(0xA24B_AED4_963E_E407));
                let strides: [u128; 7] = [1, 2, 3, 5, 8, 40, 1000];
                Chatter {
                    me,
                    t,
                    n,
                    seed,
                    start: Round::from(1 + h % 25),
                    stride: strides[(h >> 32) as usize % strides.len()],
                    actions: 1 + (h >> 48) % 10,
                    acted: 0,
                    echoes_left: (h >> 16) as u32 % 4,
                    checksum: 0,
                }
            })
            .collect()
    }

    fn scheduled(&self, round: Round) -> bool {
        self.acted < self.actions
            && round >= self.start
            && (round - self.start).is_multiple_of(self.stride)
    }
}

impl Protocol for Chatter {
    type Msg = Chat;

    fn step(&mut self, round: Round, inbox: Inbox<'_, Chat>, eff: &mut Effects<Chat>) {
        for (from, msg) in inbox.iter() {
            self.checksum = mix(self.checksum ^ (from.index() as u64) ^ msg.0);
            if self.echoes_left > 0 {
                self.echoes_left -= 1;
                eff.send(from, Chat(self.checksum));
            }
        }
        if !self.scheduled(round) {
            return;
        }
        self.acted += 1;
        let h = mix(self.seed ^ (self.me as u64) << 32 ^ round.get() as u64);
        if h.is_multiple_of(3) {
            eff.perform(Unit::new(1 + (h >> 8) as usize % self.n));
        }
        match (h >> 16) % 4 {
            0 => {
                let to = Pid::new((h >> 24) as usize % self.t);
                eff.send(to, Chat(h >> 40));
            }
            1 => {
                let lo = (h >> 24) as usize % self.t;
                let hi = lo + 1 + (h >> 34) as usize % (self.t - lo);
                eff.multicast(lo..hi, Chat(h >> 40));
            }
            2 => {
                // Two ops in one round: a span and a unicast.
                let lo = (h >> 24) as usize % self.t;
                eff.multicast(lo..self.t, Chat(h >> 40));
                eff.send(Pid::new((h >> 45) as usize % self.t), Chat(h >> 50));
            }
            _ => eff.note("mumble"),
        }
        if self.acted == self.actions {
            eff.terminate();
        }
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        if self.acted >= self.actions {
            return None;
        }
        if now <= self.start {
            return Some(self.start);
        }
        Some(self.start + (now - self.start).div_ceil(self.stride) * self.stride)
    }
}

/// The reference engine: same model semantics as `doall::sim::run`, but
/// every send op is immediately expanded into one owned `(from, to,
/// payload)` triple per recipient — per-recipient clones, per-recipient
/// metric recording, per-recipient delivery — the representation the span
/// engine replaced.
fn run_reference<P, A>(mut procs: Vec<P>, mut adversary: A, cfg: RunConfig) -> Option<Report>
where
    P: Protocol,
    A: Adversary<P::Msg>,
{
    let t = procs.len();
    let mut statuses = vec![Status::Alive; t];
    let mut alive = vec![true; t];
    let mut live = t;
    let mut metrics = Metrics::new(cfg.n);
    let record_work = |m: &mut Metrics, unit: Unit| {
        m.record_work(unit).expect("reference engine: every unit lies within 1..=n");
    };
    let mut pending: Vec<(Pid, Pid, P::Msg)> = Vec::new();
    let mut next_pending: Vec<(Pid, Pid, P::Msg)> = Vec::new();
    let mut eff: Effects<P::Msg> = Effects::new();
    let mut round: Round = Round::ONE;

    loop {
        if round > cfg.max_rounds {
            return None;
        }
        // Deliver: naive per-recipient inbox build; a receive-omission
        // adversary rules on each live delivery in send order.
        let mut inboxes: Vec<Vec<(Pid, P::Msg)>> = vec![Vec::new(); t];
        let filters = adversary.filters_deliveries();
        for (from, to, payload) in pending.drain(..) {
            if !alive[to.index()] {
                metrics.dead_letters += 1;
            } else if filters && adversary.omits_delivery(round, from, to) {
                metrics.omissions += 1;
            } else {
                inboxes[to.index()].push((from, payload));
            }
        }

        for idx in 0..t {
            if !alive[idx] {
                continue;
            }
            let pid = Pid::new(idx);
            eff.reset();
            procs[idx].step(round, Inbox::from_pairs(&inboxes[idx]), &mut eff);
            let ctx = AdversaryCtx::new(&alive, metrics.crashes);
            let fate = adversary.intercept(round, pid, &eff, ctx);
            match fate {
                Fate::Survive => {
                    if let Some(unit) = eff.work() {
                        record_work(&mut metrics, unit);
                    }
                    for op in eff.sends() {
                        for to in op.to.iter() {
                            let payload = op.payload.clone();
                            metrics.messages += 1;
                            *metrics.messages_by_class.entry(payload.class()).or_insert(0) += 1;
                            next_pending.push((pid, to, payload));
                        }
                    }
                    if eff.is_terminated() {
                        statuses[idx] = Status::Terminated(round);
                        alive[idx] = false;
                        live -= 1;
                        metrics.terminations += 1;
                    }
                }
                Fate::Crash(spec) => {
                    if spec.count_work {
                        if let Some(unit) = eff.work() {
                            record_work(&mut metrics, unit);
                        }
                    }
                    let mut i = 0usize;
                    for op in eff.sends() {
                        for to in op.to.iter() {
                            if spec.deliver.lets_through(i, to) {
                                let payload = op.payload.clone();
                                metrics.messages += 1;
                                *metrics.messages_by_class.entry(payload.class()).or_insert(0) += 1;
                                next_pending.push((pid, to, payload));
                            }
                            i += 1;
                        }
                    }
                    statuses[idx] = Status::Crashed(round);
                    alive[idx] = false;
                    live -= 1;
                    metrics.crashes += 1;
                }
                Fate::Omit(filter) => {
                    // Send omission: the process survives, works, and its
                    // filtered messages count as omissions.
                    if let Some(unit) = eff.work() {
                        record_work(&mut metrics, unit);
                    }
                    let mut i = 0usize;
                    for op in eff.sends() {
                        for to in op.to.iter() {
                            if filter.lets_through(i, to) {
                                let payload = op.payload.clone();
                                metrics.messages += 1;
                                *metrics.messages_by_class.entry(payload.class()).or_insert(0) += 1;
                                next_pending.push((pid, to, payload));
                            } else {
                                metrics.omissions += 1;
                            }
                            i += 1;
                        }
                    }
                    if eff.is_terminated() {
                        statuses[idx] = Status::Terminated(round);
                        alive[idx] = false;
                        live -= 1;
                        metrics.terminations += 1;
                    }
                }
                Fate::CrashRecover { .. } => {
                    unreachable!("the differential fixtures use fail-stop adversaries only")
                }
            }
        }

        if live == 0 {
            metrics.rounds = round;
            return Some(Report {
                metrics,
                trace: Trace::new(),
                statuses,
                mem: MemBudget::default(),
                executed_rounds: 0,
            });
        }

        std::mem::swap(&mut pending, &mut next_pending);
        next_pending.clear();

        if pending.is_empty() {
            let next = round.next();
            let wake = (0..t)
                .filter(|&i| alive[i])
                .filter_map(|i| procs[i].next_wakeup(next))
                .map(|w| w.max(next))
                .min();
            let adv = adversary.next_event(next).map(|r| r.max(next));
            round = match (wake, adv) {
                (Some(w), Some(a)) => w.min(a),
                (Some(w), None) => w,
                (None, Some(a)) => a,
                (None, None) => return None, // deadlock: Chatters never do this
            };
        } else {
            round = round.next();
        }
    }
}

/// A random crash schedule: up to 5 crashes with every delivery-filter
/// shape (silent, after-round, prefix, arbitrary subset).
fn crash_schedule(t: usize, seed: u64) -> CrashSchedule {
    let mut sched = CrashSchedule::new();
    let crashes = mix(seed) % 6;
    for c in 0..crashes {
        let h = mix(seed ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let pid = Pid::new(h as usize % t);
        let round = 1 + (h >> 16) % 60;
        let spec = match (h >> 32) % 4 {
            0 => CrashSpec::silent(),
            1 => CrashSpec::after_round(),
            2 => CrashSpec::prefix((h >> 40) as usize % (t + 1)),
            _ => {
                let members = (0..t).filter(|&p| (h >> (p % 24)) & 1 == 1).map(Pid::new);
                CrashSpec::subset(members)
            }
        };
        sched = sched.crash_at(pid, round, spec);
    }
    sched
}

/// The drawn adversary: `kind` 0 is [`crash_schedule`], 1 and 2 are a
/// send- or receive-side [`Scenario::Omission`] window on a drawn process.
fn drawn_adversary(kind: u8, t: usize, seed: u64) -> Box<dyn Adversary<Chat>> {
    if kind == 0 {
        return Box::new(crash_schedule(t, seed));
    }
    let h = mix(seed ^ 0x5EED);
    let window = Scenario::Omission {
        pid: h % t as u64,
        send: kind == 1,
        from: 1 + (h >> 16) % 40,
        rounds: 1 + (h >> 32) % 80,
    };
    window.adversary::<Chat>()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

    /// The span engine and the per-recipient reference engine agree on the
    /// complete Report: statuses, message counts (total, per class, dead
    /// letters), per-unit work multiplicities, and the final round.
    #[test]
    fn span_engine_matches_per_recipient_reference(
        t in 1usize..=10,
        n in 1usize..=12,
        seed in any::<u64>(),
    ) {
        let cfg = RunConfig::new(n, 200_000);
        let sched = crash_schedule(t, seed);
        let fast = run(Chatter::procs(t, n, seed), sched.clone(), cfg.clone())
            .expect("chatters always retire");
        let reference = run_reference(Chatter::procs(t, n, seed), sched, cfg)
            .expect("reference run must complete identically");
        prop_assert_eq!(&fast.metrics, &reference.metrics);
        prop_assert_eq!(&fast.statuses, &reference.statuses);
    }

    /// The reference and the production engine at shard counts 1, 3 and 5
    /// agree on the complete Report under crash schedules and under send-
    /// and receive-side omission windows.
    #[test]
    fn engine_matches_reference_under_omission_at_every_shard_count(
        t in 1usize..=10,
        n in 1usize..=12,
        seed in any::<u64>(),
        kind in 0u8..3,
    ) {
        let cfg = RunConfig::new(n, 200_000);
        let reference = run_reference(Chatter::procs(t, n, seed), drawn_adversary(kind, t, seed), cfg.clone())
            .expect("reference run must complete");
        for shards in [1usize, 3, 5] {
            let report = run(
                Chatter::procs(t, n, seed),
                drawn_adversary(kind, t, seed),
                cfg.clone().with_shards(shards),
            ).expect("chatters always retire");
            prop_assert_eq!(&report.metrics, &reference.metrics, "metrics at {} shards", shards);
            prop_assert_eq!(&report.statuses, &reference.statuses, "statuses at {} shards", shards);
        }
    }

    /// Sanity on the generator itself: some drawn systems really do send
    /// multicasts and suffer crashes (the comparison is not vacuous).
    #[test]
    fn chatter_runs_produce_traffic(seed in any::<u64>()) {
        let report = run(
            Chatter::procs(8, 8, seed),
            crash_schedule(8, seed),
            RunConfig::new(8, 200_000),
        ).expect("chatters always retire");
        // Every process retired one way or the other.
        prop_assert_eq!(
            u64::from(report.metrics.crashes + report.metrics.terminations),
            8u64
        );
    }
}

/// Sanity on the omission draws: both window kinds really suppress
/// messages on some seeds, so the omission comparison is not vacuous.
#[test]
fn drawn_omission_windows_suppress_messages() {
    for kind in [1u8, 2] {
        let omitted: u64 = (0..32u64)
            .map(|seed| {
                let report = run(
                    Chatter::procs(8, 8, seed),
                    drawn_adversary(kind, 8, seed),
                    RunConfig::new(8, 200_000),
                )
                .expect("chatters always retire");
                report.metrics.omissions
            })
            .sum();
        assert!(omitted > 0, "omission kind {kind} never suppressed a message");
    }
}
