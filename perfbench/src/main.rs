//! Runs one benchmark workload and prints its metrics.
//!
//! ```text
//! perfbench --workload <giant_d|storm_sweep|serve_mixed> --seed <n>
//!           --seconds <s> --trace <0|1> [--print-pin]
//! ```
//!
//! Untraced (`--trace 0`) passes repeat the workload until `--seconds`
//! have passed. Each pass times its run in short pieces (a round, an
//! engine run, a session); `wall_s` and `cpu_s` add up each piece's
//! fastest pass, which comes close to the run as the host executes it
//! when no other tenant slows the core; `setup_s`, itself one short
//! piece, is the fastest of at least 21 set-ups.
//! With `--trace 1`, half the time runs untraced passes (the reference for
//! counts, memory and the tracing overhead) and half runs traced passes,
//! which report the per-layer metrics. Every pass is checked: the Do-All
//! contract on each operation, the same counts as the first pass, and the
//! pinned counts of `pins.txt` when the seed has a pin. The last line of
//! standard output is one JSON object; the exit code is 1 if any operation
//! failed and 2 on a usage error. `--print-pin` prints the seed's
//! `pins.txt` line after one pass instead.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use doall_perfbench::pins::{self, Summary};
use doall_perfbench::probe::{self, timed, Span};
use doall_perfbench::report::{self, Metric};
use doall_perfbench::workloads::giant_d::GiantD;
use doall_perfbench::workloads::serve_mixed::ServeMixed;
use doall_perfbench::workloads::storm_sweep::StormSweep;
use doall_perfbench::workloads::{Layers, Outcome, Workload};

const USAGE: &str = "usage: perfbench --workload <giant_d|storm_sweep|serve_mixed> \
                     --seed <n> --seconds <s> --trace <0|1> [--print-pin]";

/// Set-up is timed at least this often per run, extra set-ups being
/// built and dropped after the passes.
const MIN_SETUP_SAMPLES: usize = 21;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    print_pin: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut print_pin) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--print-pin" {
            print_pin = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(bad)?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["giant_d", "storm_sweep", "serve_mixed"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace,
        print_pin,
    })
}

/// One untraced pass: set-up and run timed, then checked.
struct Pass {
    setup_s: f64,
    span: Span,
    pieces: Vec<Span>,
    outcome: Outcome,
}

fn untraced_pass<W: Workload>(w: &W) -> Pass {
    let (prepared, setup_s) = timed(|| w.setup());
    let mut pieces = Vec::new();
    let (raw, span) = probe::span(|| w.run(prepared, &mut pieces));
    Pass { setup_s, span, pieces, outcome: w.check(raw) }
}

/// The sum over pieces of each piece's fastest reading across `passes`
/// (which all have the same pieces). Another tenant on the host's core
/// slows a pass by up to 2× for stretches of seconds to minutes; a piece
/// of milliseconds still meets a quiet moment in some pass, so this sum
/// moves with the program far more than with the host.
fn fastest_sum(passes: &[Pass], read: impl Fn(&Span) -> f64) -> f64 {
    (0..passes[0].pieces.len())
        .map(|i| passes.iter().map(|p| read(&p.pieces[i])).fold(f64::INFINITY, f64::min))
        .sum()
}

/// Operations of `o` that failed or whose counts differ from `reference`.
fn failures(o: &Outcome, reference: &Outcome) -> usize {
    if o.fleet != reference.fleet || o.ops.len() != reference.ops.len() {
        return o.ops.len();
    }
    o.ops
        .iter()
        .zip(&reference.ops)
        .filter(|(a, b)| a.verdict.is_err() || a.counts != b.counts)
        .count()
}

fn bench<W: Workload>(w: &W, args: &Args) -> ExitCode {
    let name = args.workload.as_str();
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let untraced_budget = if args.trace { budget / 2 } else { budget };

    // A further pass starts only if one more like the last still ends
    // within the budget, so a run lasts about `--seconds`.
    let fits = |budget: Duration, last: Duration| started.elapsed() + last <= budget;
    let mut passes = vec![untraced_pass(w)];
    // The peak of a process that has run the workload once: later passes
    // add allocator fragmentation, which grows with the pass count and so
    // with the host's speed.
    let peak_rss = probe::peak_rss_bytes() as f64;
    if args.print_pin {
        println!("{}", Summary::of(&passes[0].outcome).line(name, args.seed));
        return ExitCode::SUCCESS;
    }
    let mut last = started.elapsed();
    while fits(untraced_budget, last) {
        let t0 = Instant::now();
        passes.push(untraced_pass(w));
        last = t0.elapsed();
    }
    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    while setups.len() < MIN_SETUP_SAMPLES {
        let (prepared, s) = timed(|| w.setup());
        drop(prepared);
        setups.push(s);
    }

    let mut traced = Vec::new();
    if args.trace {
        let clock = probe::clock_cost();
        loop {
            let t0 = Instant::now();
            traced.push(w.traced(clock));
            if !fits(budget, t0.elapsed()) {
                break;
            }
        }
    }

    // Correctness: the contract on every operation, identical counts on
    // every pass (traced ones included), and the pin when there is one.
    let reference = &passes[0].outcome;
    let outcomes = passes.iter().map(|p| &p.outcome).chain(traced.iter().map(|(o, _)| o));
    let mut attempted = 0;
    let mut failed = 0;
    for o in outcomes {
        attempted += o.ops.len();
        failed += failures(o, reference);
    }
    if passes.iter().any(|p| p.pieces.len() != passes[0].pieces.len()) {
        eprintln!("passes timed different pieces");
        failed = attempted;
    }
    for op in reference.ops.iter().filter(|o| o.verdict.is_err()).take(5) {
        eprintln!("failed operation: {:?}", op.verdict);
    }
    let summary = Summary::of(reference);
    match pins::pinned(name, args.seed) {
        Some(pin) if pin != summary => {
            eprintln!("counts drifted from pins.txt:\n  pinned {pin:?}\n  now    {summary:?}");
            failed = attempted;
        }
        Some(_) => eprintln!("{name} seed {}: counts match pins.txt", args.seed),
        None => eprintln!(
            "{name} seed {}: no pinned counts; checked the contract and pass-to-pass identity",
            args.seed
        ),
    }

    let walls: Vec<f64> = passes.iter().map(|p| p.span.wall_s).collect();
    let metrics = if args.trace {
        let mut pooled = Layers::default();
        let plain_wall = doall_perfbench::stats::median(&walls);
        let values: Vec<_> = traced
            .iter()
            .map(|(o, layers)| {
                for (family, s) in &layers.samples {
                    pooled.samples.entry(family).or_default().extend(s);
                }
                report::layer_values(layers, o, reference, peak_rss, plain_wall)
            })
            .collect();
        report::per_layer(&values, &pooled)
    } else {
        let wall_s = fastest_sum(&passes, |s| s.wall_s);
        let single = |name, unit, value| Metric { name, unit, value, samples: vec![] };
        vec![
            single("wall_s", "s", wall_s),
            single("cpu_s", "s", fastest_sum(&passes, |s| s.cpu_s)),
            single("effort_per_s", "1/s", reference.effort() as f64 / wall_s),
            Metric {
                name: "setup_s",
                unit: "s",
                value: setups.iter().copied().fold(f64::INFINITY, f64::min),
                samples: setups,
            },
            single("peak_rss_mb", "MB", peak_rss / 1e6),
        ]
    };
    // Printed for reading, not in the result line: the share of failed
    // operations, and the whole passes as the host ran them, contention
    // and all (`pass_wall_s` median over passes).
    let mut extra = vec![Metric {
        name: "failed_ratio",
        unit: "ratio",
        value: failed as f64 / attempted.max(1) as f64,
        samples: vec![],
    }];
    if !args.trace {
        extra.push(Metric::median_of("pass_wall_s", "s", walls));
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# {name} seed={} seconds={} trace={} cores={cores}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# passes={} pieces/pass={}", passes.len(), passes[0].pieces.len());
    for m in metrics.iter().chain(&extra) {
        println!("{}", m.line());
    }
    println!("{}", report::json_line(failed == 0, attempted, failed, &metrics));
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload.as_str() {
        "giant_d" => bench(&GiantD, &args),
        "storm_sweep" => bench(&StormSweep::new(args.seed), &args),
        _ => bench(&ServeMixed::new(args.seed), &args),
    }
}
