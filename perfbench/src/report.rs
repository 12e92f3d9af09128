//! Metric names, the per-layer derivation, and the printed result.

use std::collections::BTreeMap;

use crate::stats::{median, percentile, quartiles, tail_level};
use crate::workloads::{Layers, Outcome};

/// End-to-end metrics (untraced run): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("effort_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (traced run): name and unit.
pub const PER_LAYER: [(&str, &str); 49] = [
    ("core.build_s", "s"),
    ("core.steps", "count"),
    ("core.step_s", "s"),
    ("core.step_ns", "ns"),
    ("core.handlers", "count"),
    ("core.handler_s", "s"),
    ("engine.new_s", "s"),
    ("engine.run_s", "s"),
    ("engine.report_s", "s"),
    ("engine.executed_rounds", "count"),
    ("engine.skipped_rounds", "count"),
    ("engine.self_s", "s"),
    ("engine.ns_per_step", "ns"),
    ("engine.round_us_p50", "us"),
    ("engine.round_us_p99", "us"),
    ("engine.run_ms_p50", "ms"),
    ("engine.run_ms_p90", "ms"),
    ("adversary.s", "s"),
    ("adversary.calls", "count"),
    ("adversary.crashes", "count"),
    ("adversary.omissions", "count"),
    ("adversary.recoveries", "count"),
    ("msgs.sent", "count"),
    ("msgs.dead_letters", "count"),
    ("msgs.delivered_ratio", "ratio"),
    ("msgs.per_round", "msgs/round"),
    ("work.total", "count"),
    ("work.useful_ratio", "ratio"),
    ("mem.soa_bytes", "bytes"),
    ("mem.flight_bytes", "bytes"),
    ("mem.ledger_bytes", "bytes"),
    ("mem.proc_bytes", "bytes"),
    ("mem.total_bytes", "bytes"),
    ("mem.unaccounted_bytes", "bytes"),
    ("asynch.new_s", "s"),
    ("asynch.run_s", "s"),
    ("asynch.self_s", "s"),
    ("asynch.batches", "count"),
    ("asynch.mem_bytes", "bytes"),
    ("service.submit_s", "s"),
    ("service.run_s", "s"),
    ("service.sched_self_s", "s"),
    ("service.job_ms_p50", "ms"),
    ("service.job_ms_p99", "ms"),
    ("service.max_queue_depth", "count"),
    ("service.utilization", "ratio"),
    ("service.p99_sojourn", "rounds"),
    ("workload.lower_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// One printed metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Reported value (a median or percentile for timings).
    pub value: f64,
    /// The samples behind the value (empty for single readings).
    pub samples: Vec<f64>,
}

impl Metric {
    /// A metric reported as the median of `samples`.
    pub fn median_of(name: &'static str, unit: &'static str, samples: Vec<f64>) -> Metric {
        Metric { name, unit, value: median(&samples), samples }
    }

    /// The human-readable table line.
    pub fn line(&self) -> String {
        let mut s = format!("{:<26} {:>16.6} {:<10}", self.name, self.value, self.unit);
        let n = self.samples.len();
        let constant = self.samples.windows(2).all(|w| w[0] == w[1]);
        if n > 1 && !constant {
            let [q1, _, q3] = quartiles(&self.samples);
            s += &format!(" n={n} q1={q1:.6} q3={q3:.6}");
            if let Some(p) = tail_level(n) {
                s += &format!(" p{p}={:.6}", percentile(&self.samples, p));
            }
        } else if n > 0 {
            s += &format!(" n={n}");
        }
        s
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Derives every per-layer metric of one traced pass. `outcome` is the
/// traced pass's (its counts equal the untraced reference's); `untraced`
/// supplies the memory split, `peak_rss` the process's peak, and
/// `plain_wall_s` the untraced timed section for the overhead ratio.
pub fn layer_values(
    layers: &Layers,
    outcome: &Outcome,
    untraced: &Outcome,
    peak_rss: f64,
    plain_wall_s: f64,
) -> BTreeMap<&'static str, f64> {
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (name, _) in PER_LAYER {
        v.insert(name, layers.get(name));
    }
    let ops = &outcome.ops;
    let sum = |f: &dyn Fn(&crate::workloads::OpCounts) -> f64| -> f64 {
        ops.iter().map(|o| f(&o.counts)).sum()
    };
    let steps = layers.get("core.steps");
    v.insert("core.step_ns", ratio(layers.get("core.step_s"), steps) * 1e9);
    v.insert("engine.ns_per_step", ratio(layers.get("engine.self_s"), steps) * 1e9);
    let sync_executed = sum(&|c| if c.asynch { 0.0 } else { c.executed as f64 });
    let sync_rounds = sum(&|c| if c.asynch { 0.0 } else { c.rounds as f64 });
    v.insert("engine.executed_rounds", sync_executed);
    v.insert("engine.skipped_rounds", sync_rounds - sync_executed);
    v.insert("adversary.crashes", sum(&|c| f64::from(c.crashes)));
    v.insert("adversary.omissions", sum(&|c| c.omissions as f64));
    v.insert("adversary.recoveries", sum(&|c| f64::from(c.recoveries)));
    let sent = sum(&|c| c.messages as f64);
    let dead = sum(&|c| c.dead_letters as f64);
    v.insert("msgs.sent", sent);
    v.insert("msgs.dead_letters", dead);
    v.insert("msgs.delivered_ratio", ratio(sent - dead, sent));
    v.insert("msgs.per_round", ratio(sent, sum(&|c| c.executed as f64)));
    let work = sum(&|c| c.work_total as f64);
    v.insert("work.total", work);
    v.insert("work.useful_ratio", ratio(sum(&|c| c.n as f64), work));
    let mem = untraced.mem.all;
    v.insert("mem.soa_bytes", mem.soa_bytes as f64);
    v.insert("mem.flight_bytes", mem.flight_bytes as f64);
    v.insert("mem.ledger_bytes", mem.ledger_bytes as f64);
    v.insert("mem.proc_bytes", mem.proc_bytes as f64);
    v.insert("mem.total_bytes", mem.total_bytes() as f64);
    v.insert("mem.unaccounted_bytes", peak_rss - mem.total_bytes() as f64);
    v.insert("asynch.batches", sum(&|c| if c.asynch { c.executed as f64 } else { 0.0 }));
    v.insert("asynch.mem_bytes", untraced.mem.asynch.total_bytes() as f64);
    let fleet = &outcome.fleet;
    if !fleet.is_empty() {
        let deepest = fleet.iter().map(|f| f.max_queue_depth).max().unwrap_or(0);
        let utilization = fleet.iter().map(|f| f.utilization).sum::<f64>() / fleet.len() as f64;
        let p99 = fleet.iter().map(|f| f.p99_sojourn).max().unwrap_or(0);
        v.insert("service.max_queue_depth", deepest as f64);
        v.insert("service.utilization", utilization);
        v.insert("service.p99_sojourn", p99 as f64);
    }
    // Served workloads replay each job untraced in the same pass; the
    // engine workloads compare with the untraced passes' timed section.
    let (traced, plain) = if layers.get("trace.plain_s") > 0.0 {
        (layers.get("trace.traced_s"), layers.get("trace.plain_s"))
    } else {
        (layers.get("engine.run_s") + layers.get("engine.report_s"), plain_wall_s)
    };
    v.insert("trace.overhead_ratio", ratio(traced, plain));
    v
}

/// Latency percentiles: metric, sample family, level.
const PERCENTILES: [(&str, &str, f64); 6] = [
    ("engine.round_us_p50", "round_us", 50.0),
    ("engine.round_us_p99", "round_us", 99.0),
    ("engine.run_ms_p50", "run_ms", 50.0),
    ("engine.run_ms_p90", "run_ms", 90.0),
    ("service.job_ms_p50", "job_ms", 50.0),
    ("service.job_ms_p99", "job_ms", 99.0),
];

/// Per-layer metrics over all traced passes: the median of each pass's
/// value, with the latency percentiles read from the pooled samples.
pub fn per_layer(passes: &[BTreeMap<&'static str, f64>], pooled: &Layers) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            if let Some(&(_, family, p)) = PERCENTILES.iter().find(|(n, ..)| *n == name) {
                let samples = pooled.samples.get(family).cloned().unwrap_or_default();
                let value = if samples.is_empty() { 0.0 } else { percentile(&samples, p) };
                return Metric { name, unit, value, samples };
            }
            Metric::median_of(name, unit, passes.iter().map(|p| p[name]).collect())
        })
        .collect()
}

/// The result line: one JSON object with the verdict and the metrics.
pub fn json_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let m = [Metric { name: "wall_s", unit: "s", value: 1.25, samples: vec![] }];
        assert_eq!(
            json_line(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = spec.matches("\"name\":").count();
        assert_eq!(names, 3 + END_TO_END.len() + PER_LAYER.len());
    }
}
