//! Exact counts pinned per workload and seed (`pins.txt`). The simulated
//! counts are deterministic, so any drift from a pin is a failure.

use crate::workloads::Outcome;

/// The pinned summary of one pass over a workload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Summary {
    /// Messages sent, summed over the operations.
    pub messages: u64,
    /// Work performed, summed.
    pub work_total: u64,
    /// Rounds / timestamp batches the engines executed, summed.
    pub executed: u64,
    /// Crashes, summed.
    pub crashes: u64,
    /// Omitted messages, summed.
    pub omissions: u64,
    /// Operations completed (engine runs, or jobs the session completed).
    pub completions: u64,
    /// Virtual p99 sojourn of a served stream, the largest over its
    /// sessions (0 otherwise).
    pub p99_sojourn: u128,
    /// FNV-1a digest of every operation's counts and the fleet aggregates.
    pub digest: u64,
}

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, v: u128) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

impl Summary {
    /// Summarises a checked pass.
    pub fn of(outcome: &Outcome) -> Summary {
        let mut s = Summary::default();
        let mut h = Fnv(0xCBF2_9CE4_8422_2325);
        for op in &outcome.ops {
            let c = &op.counts;
            s.messages += c.messages;
            s.work_total += c.work_total;
            s.executed += c.executed;
            s.crashes += u64::from(c.crashes);
            s.omissions += c.omissions;
            s.completions += u64::from(op.verdict.is_ok());
            for v in [
                u128::from(c.n),
                u128::from(c.work_total),
                u128::from(c.messages),
                u128::from(c.dead_letters),
                c.rounds,
                u128::from(c.executed),
                u128::from(c.crashes),
                u128::from(c.omissions),
                u128::from(c.recoveries),
                u128::from(c.terminations),
            ] {
                h.eat(v);
            }
        }
        if !outcome.fleet.is_empty() {
            s.completions = outcome.fleet.iter().map(|f| f.completed).sum();
            s.p99_sojourn = outcome.fleet.iter().map(|f| f.p99_sojourn).max().unwrap_or(0);
        }
        for f in &outcome.fleet {
            for v in [
                u128::from(f.completed),
                u128::from(f.max_queue_depth),
                u128::from(f.utilization.to_bits()),
                f.p99_sojourn,
                f.horizon,
            ] {
                h.eat(v);
            }
        }
        s.digest = h.0;
        s
    }

    /// The `pins.txt` line for `workload` at `seed`.
    pub fn line(&self, workload: &str, seed: u64) -> String {
        format!(
            "{workload} {seed} {} {} {} {} {} {} {} {:016x}",
            self.messages,
            self.work_total,
            self.executed,
            self.crashes,
            self.omissions,
            self.completions,
            self.p99_sojourn,
            self.digest
        )
    }

    fn parse(fields: &[&str]) -> Option<Summary> {
        let [messages, work_total, executed, crashes, omissions, completions, p99, digest] = fields
        else {
            return None;
        };
        Some(Summary {
            messages: messages.parse().ok()?,
            work_total: work_total.parse().ok()?,
            executed: executed.parse().ok()?,
            crashes: crashes.parse().ok()?,
            omissions: omissions.parse().ok()?,
            completions: completions.parse().ok()?,
            p99_sojourn: p99.parse().ok()?,
            digest: u64::from_str_radix(digest, 16).ok()?,
        })
    }
}

const PINS: &str = include_str!("../pins.txt");

/// The pinned summary for `workload` at `seed`, if the table has one. A
/// seed of `*` pins a workload whose inputs do not depend on the seed.
///
/// # Panics
///
/// Panics on a malformed pin line for that workload and seed.
pub fn pinned(workload: &str, seed: u64) -> Option<Summary> {
    PINS.lines().filter(|l| !l.starts_with('#')).find_map(|line| {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            [w, s, rest @ ..] if *w == workload && (*s == "*" || s.parse() == Ok(seed)) => {
                Some(Summary::parse(rest).expect("malformed line in pins.txt"))
            }
            _ => None,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_line_parses_back() {
        let s = Summary {
            messages: 131_070,
            work_total: 1 << 26,
            executed: 1030,
            crashes: 3,
            omissions: 9,
            completions: 1,
            p99_sojourn: 77,
            digest: 0xDEAD_BEEF_0123_4567,
        };
        let line = s.line("giant_d", 5);
        let fields: Vec<&str> = line.split_whitespace().collect();
        assert_eq!(Summary::parse(&fields[2..]), Some(s));
        assert_eq!(Summary::parse(&fields[3..]), None);
    }

    #[test]
    fn every_pin_line_is_well_formed() {
        for line in PINS.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
            let fields: Vec<&str> = line.split_whitespace().collect();
            assert!(fields.len() == 10, "{line}");
            assert!(fields[1] == "*" || fields[1].parse::<u64>().is_ok(), "{line}");
            assert!(Summary::parse(&fields[2..]).is_some(), "{line}");
        }
    }
}
