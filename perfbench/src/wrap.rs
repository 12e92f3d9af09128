//! Transparent timing wrappers around the simulator's trait objects.
//!
//! [`Timed`] wraps a protocol state machine (synchronous [`Protocol`] or
//! asynchronous [`AsyncProtocol`]); [`TimedAdversary`] wraps an adversary
//! of either plane. Each forwards every call unchanged and counts it.
//! Only one call in [`SAMPLE_EVERY`] is timed, so a giant run with ~10⁸
//! steps pays two clock reads on an eighth of them; the estimate scales
//! the sampled time back up by the call count. Wrapping never changes a
//! `Report` (the crate's `transparent` test pins this).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use doall_sim::asynch::{AsyncAdversary, AsyncEffects, AsyncProtocol, Time};
use doall_sim::{Adversary, AdversaryCtx, Effects, Fate, Inbox, Pid, Protocol, Round};

use crate::probe::ClockCost;

/// One call in this many is timed.
pub const SAMPLE_EVERY: u32 = 8;

/// Calls counted and time sampled at one layer boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls forwarded.
    pub calls: u64,
    /// Calls that were timed.
    pub sampled: u64,
    /// Nanoseconds the timed calls read, clock cost included.
    pub sampled_ns: u64,
}

impl Tally {
    /// Adds `other`'s counts to this tally.
    pub fn merge(&mut self, other: &Tally) {
        self.calls += other.calls;
        self.sampled += other.sampled;
        self.sampled_ns += other.sampled_ns;
    }

    /// Estimated seconds inside the wrapped calls: the mean sampled call,
    /// less the clock's own reading of an empty region, times the calls.
    pub fn busy_s(&self, clock: ClockCost) -> f64 {
        if self.sampled == 0 {
            return 0.0;
        }
        let per_call = (self.sampled_ns as f64 / self.sampled as f64 - clock.bias_ns).max(0.0);
        per_call * self.calls as f64 / 1e9
    }

    /// Host seconds the timing itself added around the wrapped calls.
    pub fn overhead_s(&self, clock: ClockCost) -> f64 {
        self.sampled as f64 * clock.overhead_ns / 1e9
    }
}

/// Counts calls and times every [`SAMPLE_EVERY`]-th one.
#[derive(Clone, Debug, Default)]
struct Sampler {
    tally: Tally,
    phase: u32,
}

impl Sampler {
    fn with_phase(phase: u32) -> Self {
        Sampler { tally: Tally::default(), phase: phase % SAMPLE_EVERY }
    }

    #[inline]
    fn call<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.tally.calls += 1;
        self.phase += 1;
        if self.phase < SAMPLE_EVERY {
            return f();
        }
        self.phase = 0;
        let t0 = Instant::now();
        let out = f();
        self.tally.sampled_ns += t0.elapsed().as_nanos() as u64;
        self.tally.sampled += 1;
        out
    }
}

/// A protocol state machine whose handlers are counted and sampled.
#[derive(Clone, Debug)]
pub struct Timed<P> {
    inner: P,
    sampler: Sampler,
}

impl<P> Timed<P> {
    /// Wraps every process. Sampling phases are staggered by pid, so each
    /// round times a spread of processes rather than the same eighth.
    pub fn wrap_all(procs: Vec<P>) -> Vec<Timed<P>> {
        (0..)
            .zip(procs)
            .map(|(i, inner)| Timed { inner, sampler: Sampler::with_phase(i) })
            .collect()
    }

    /// The summed tally of `procs`.
    pub fn tally(procs: &[Timed<P>]) -> Tally {
        let mut total = Tally::default();
        for p in procs {
            total.merge(&p.sampler.tally);
        }
        total
    }
}

impl<P: Protocol> Protocol for Timed<P> {
    type Msg = P::Msg;

    fn step(&mut self, round: Round, inbox: Inbox<'_, P::Msg>, eff: &mut Effects<P::Msg>) {
        self.sampler.call(|| self.inner.step(round, inbox, eff));
    }

    fn next_wakeup(&self, now: Round) -> Option<Round> {
        self.inner.next_wakeup(now)
    }

    fn on_recover(&mut self, round: Round, wipe: bool) {
        self.inner.on_recover(round, wipe);
    }
}

impl<P: AsyncProtocol> AsyncProtocol for Timed<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, eff: &mut AsyncEffects<P::Msg>) {
        self.sampler.call(|| self.inner.on_start(eff));
    }

    fn on_messages(&mut self, inbox: Inbox<'_, P::Msg>, eff: &mut AsyncEffects<P::Msg>) {
        self.sampler.call(|| self.inner.on_messages(inbox, eff));
    }

    fn on_retirement(&mut self, retired: Pid, eff: &mut AsyncEffects<P::Msg>) {
        self.sampler.call(|| self.inner.on_retirement(retired, eff));
    }

    fn on_tick(&mut self, eff: &mut AsyncEffects<P::Msg>) {
        self.sampler.call(|| self.inner.on_tick(eff));
    }

    fn on_recover(&mut self, wipe: bool, eff: &mut AsyncEffects<P::Msg>) {
        self.sampler.call(|| self.inner.on_recover(wipe, eff));
    }
}

/// An adversary whose decisions are counted and sampled. The engine owns
/// (and drops) its adversary, so the tally lives behind a shared handle.
pub struct TimedAdversary<A> {
    inner: A,
    sampler: Rc<RefCell<Sampler>>,
}

impl<A> TimedAdversary<A> {
    /// Wraps `inner`; read the tally through the returned handle.
    pub fn new(inner: A) -> (Self, AdversaryTally) {
        let sampler = Rc::new(RefCell::new(Sampler::default()));
        (TimedAdversary { inner, sampler: Rc::clone(&sampler) }, AdversaryTally(sampler))
    }
}

/// Read handle on a [`TimedAdversary`]'s tally.
pub struct AdversaryTally(Rc<RefCell<Sampler>>);

impl AdversaryTally {
    /// The calls counted so far.
    pub fn get(&self) -> Tally {
        self.0.borrow().tally
    }
}

impl<M, A: Adversary<M>> Adversary<M> for TimedAdversary<A> {
    fn intercept(
        &mut self,
        round: Round,
        pid: Pid,
        effects: &Effects<M>,
        ctx: AdversaryCtx<'_>,
    ) -> Fate {
        self.sampler.borrow_mut().call(|| self.inner.intercept(round, pid, effects, ctx))
    }

    fn next_event(&self, now: Round) -> Option<Round> {
        self.sampler.borrow_mut().call(|| self.inner.next_event(now))
    }

    fn filters_deliveries(&self) -> bool {
        self.inner.filters_deliveries()
    }

    fn omits_delivery(&mut self, now: Round, from: Pid, to: Pid) -> bool {
        self.sampler.borrow_mut().call(|| self.inner.omits_delivery(now, from, to))
    }

    fn validate(&self, t: usize) -> Result<(), String> {
        self.inner.validate(t)
    }
}

impl<M, A: AsyncAdversary<M>> AsyncAdversary<M> for TimedAdversary<A> {
    fn intercept(
        &mut self,
        time: Time,
        pid: Pid,
        invocation: u64,
        effects: &AsyncEffects<M>,
        ctx: AdversaryCtx<'_>,
    ) -> Fate {
        self.sampler.borrow_mut().call(|| self.inner.intercept(time, pid, invocation, effects, ctx))
    }

    fn scheduled_events(&self) -> Vec<(Time, Pid)> {
        self.inner.scheduled_events()
    }

    fn filters_deliveries(&self) -> bool {
        self.inner.filters_deliveries()
    }

    fn omits_delivery(&mut self, now: Time, from: Pid, to: Pid) -> bool {
        self.sampler.borrow_mut().call(|| self.inner.omits_delivery(now, from, to))
    }

    fn validate(&self, t: usize) -> Result<(), String> {
        self.inner.validate(t)
    }
}
