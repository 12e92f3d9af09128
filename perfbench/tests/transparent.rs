//! The timing wrappers are transparent: a wrapped run's report equals the
//! unwrapped one, for every protocol the workloads use, under the fault
//! scenarios each is run with there (crash storms everywhere, omission
//! windows on the A/B sweep), and through the traced helpers that step
//! the engine round by round.

use doall_core::{AsyncProtocolA, AsyncProtocolB, ProtocolA, ProtocolB, ProtocolD};
use doall_perfbench::probe::clock_cost;
use doall_perfbench::workloads::{traced_async, traced_sync, Layers};
use doall_perfbench::wrap::{Timed, TimedAdversary};
use doall_sim::asynch::{run_async, AsyncConfig, AsyncProtocol, DelayDist};
use doall_sim::{run, Protocol, Round, RunConfig};
use doall_workload::Scenario;

fn storms(t: u64) -> Vec<Scenario> {
    vec![
        Scenario::FailureFree,
        Scenario::Random { seed: 11, p: 0.02, max_crashes: (t - 1) as u32 },
        Scenario::Random { seed: 12, p: 0.2, max_crashes: (t - 1) as u32 },
    ]
}

fn storms_and_omissions(t: u64, n: u64) -> Vec<Scenario> {
    let mut s = storms(t);
    s.push(Scenario::Omission { pid: 0, send: true, from: 3, rounds: n });
    s.push(Scenario::Omission { pid: 0, send: false, from: 5, rounds: 4 * n });
    s
}

fn check_sync<P>(procs: impl Fn() -> Vec<P>, n: u64, scenarios: &[Scenario], shards: usize)
where
    P: Protocol + Send + 'static,
    P::Msg: Send + Sync + 'static,
{
    let clock = clock_cost();
    for scenario in scenarios {
        let cfg = || RunConfig::new(n as usize, Round::MAX).with_shards(shards);
        let plain = run(procs(), scenario.adversary::<P::Msg>(), cfg()).expect("plain run");
        let (adversary, tally) = TimedAdversary::new(scenario.adversary::<P::Msg>());
        let wrapped = run(Timed::wrap_all(procs()), adversary, cfg()).expect("wrapped run");
        assert_eq!(plain, wrapped, "{scenario:?}");
        assert_eq!(plain.executed_rounds, wrapped.executed_rounds, "{scenario:?}");
        assert!(tally.get().calls > 0, "{scenario:?}");
        for per_round in [false, true] {
            let mut layers = Layers::default();
            let traced = traced_sync(procs(), scenario, cfg(), per_round, clock, &mut layers)
                .expect("traced run");
            assert_eq!(plain, traced, "{scenario:?} per_round={per_round}");
            assert_eq!(plain.executed_rounds, traced.executed_rounds);
            assert!(layers.get("core.steps") > 0.0);
        }
    }
}

fn check_async<P>(procs: impl Fn() -> Vec<P>, n: u64, scenarios: &[Scenario])
where
    P: AsyncProtocol + 'static,
    P::Msg: 'static,
{
    let clock = clock_cost();
    for scenario in scenarios {
        let cfg = || AsyncConfig::new(n as usize, 7).with_delay(DelayDist::Uniform, 4);
        let plain = run_async(procs(), scenario.async_adversary::<P::Msg>(), cfg()).expect("plain");
        let (adversary, tally) = TimedAdversary::new(scenario.async_adversary::<P::Msg>());
        let wrapped = run_async(Timed::wrap_all(procs()), adversary, cfg()).expect("wrapped");
        assert_eq!(plain, wrapped, "{scenario:?}");
        assert_eq!(plain.executed, wrapped.executed, "{scenario:?}");
        assert!(tally.get().calls > 0, "{scenario:?}");
        let mut layers = Layers::default();
        let traced = traced_async(procs(), scenario, cfg(), clock, &mut layers).expect("traced");
        assert_eq!(plain, traced, "{scenario:?}");
        assert!(layers.get("core.handlers") > 0.0);
    }
}

#[test]
fn sync_protocol_a_and_b() {
    let scenarios = storms_and_omissions(64, 256);
    check_sync(|| ProtocolA::processes(256, 64).unwrap(), 256, &scenarios, 1);
    check_sync(|| ProtocolB::processes(256, 64).unwrap(), 256, &scenarios, 1);
}

#[test]
fn sync_protocol_d_sequential_and_sharded() {
    for shards in [1, 2] {
        check_sync(|| ProtocolD::processes(256, 64).unwrap(), 256, &storms(64), shards);
        let coordinated = || ProtocolD::processes_with_coordinator(1024, 128).unwrap();
        check_sync(coordinated, 1024, &storms(128), shards);
    }
}

#[test]
fn async_protocol_a_and_b() {
    check_async(|| AsyncProtocolA::processes(256, 64).unwrap(), 256, &storms(64));
    check_async(|| AsyncProtocolB::processes(256, 64).unwrap(), 256, &storms(64));
}
