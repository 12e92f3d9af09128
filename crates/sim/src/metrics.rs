//! Work / message / time accounting — the paper's three complexity measures.

use std::collections::BTreeMap;
use std::fmt;

use serde::Serialize;

use crate::ids::{Round, Unit};

/// Counters for the paper's complexity measures.
///
/// * **work** — units performed, *including multiplicity* (a unit redone by
///   a later process counts again);
/// * **messages** — point-to-point messages sent. A broadcast to `k`
///   recipients counts `k`. For a process that crashes mid-broadcast, only
///   the delivered subset counts (the rest never left the process);
/// * **rounds** — the round by which every process has retired;
/// * **effort** — work + messages (the quantity the paper optimizes).
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize)]
pub struct Metrics {
    /// Total units of work performed, counting repetitions.
    pub work_total: u64,
    /// Total messages sent.
    pub messages: u64,
    /// Message counts broken down by [`Classify`](crate::Classify) class.
    pub messages_by_class: BTreeMap<&'static str, u64>,
    /// The round by which all processes had retired (crashed or
    /// terminated); equivalently the last executed round of the run.
    pub rounds: Round,
    /// Number of processes that crashed.
    pub crashes: u32,
    /// Number of processes that terminated voluntarily.
    pub terminations: u32,
    /// Messages that arrived at already-retired recipients (sent but never
    /// processed). Included in `messages`.
    pub dead_letters: u64,
    /// Messages suppressed by omission faults (send- or receive-side).
    /// These never left (or never reached) a process, so they are **not**
    /// included in `messages`.
    pub omissions: u64,
    /// Number of crash-recovery restarts (a process may recover at most
    /// once per [`Fate::CrashRecover`](crate::Fate::CrashRecover) verdict,
    /// but may crash and recover repeatedly over a run).
    pub recoveries: u32,
    /// Per-unit multiplicities (see [`WorkLedger`]).
    pub units: WorkLedger,
}

impl Metrics {
    /// Creates zeroed metrics for an `n`-unit workload.
    pub fn new(n: usize) -> Self {
        Metrics { units: WorkLedger::new(n), ..Default::default() }
    }

    /// The paper's *effort* measure: work plus messages.
    pub fn effort(&self) -> u64 {
        self.work_total + self.messages
    }

    /// Whether every unit `1..=n` was performed at least once.
    pub fn all_work_done(&self) -> bool {
        self.units.all_done()
    }

    /// Units that were never performed (should be empty whenever at least
    /// one process survives — the paper's correctness condition).
    pub fn missing_units(&self) -> Vec<Unit> {
        self.units.missing()
    }

    /// Units performed more than once, with their multiplicities.
    pub fn redone_units(&self) -> Vec<(Unit, u32)> {
        self.units.redone()
    }

    /// Total *wasted* work: performances beyond the first per unit.
    pub fn wasted_work(&self) -> u64 {
        self.work_total - self.units.performed()
    }

    /// Counts one performance of `unit`.
    ///
    /// # Errors
    ///
    /// Returns the unit back, recording nothing, if it lies outside
    /// `1..=n`: a protocol that invents a unit is a bug.
    pub fn record_work(&mut self, unit: Unit) -> Result<(), Unit> {
        if unit.get() > self.units.n {
            return Err(unit);
        }
        self.units.record_index(unit.zero_based());
        self.work_total += 1;
        Ok(())
    }

    /// Bulk counter for span sends: one map lookup per *op*, not per
    /// recipient, while the counted values stay per-recipient (a
    /// `k`-recipient broadcast still counts `k`). Per-message call sites
    /// (the async plane's per-recipient reference scheduler) pass `k = 1`.
    pub(crate) fn record_messages(&mut self, class: &'static str, k: u64) {
        if k == 0 {
            return;
        }
        self.messages += k;
        *self.messages_by_class.entry(class).or_insert(0) += k;
    }
}

/// The per-unit work ledger: how many times each unit `1..=n` was
/// performed, exactly, in far less than a counter per unit.
///
/// * `done` is a bitset with one bit per unit, set on the unit's first
///   performance — `⌈n/64⌉` words, so 1 MiB at `n = 2^23`;
/// * `extra` counts performances *beyond the first*, only for units done
///   more than once. It is a sorted `(unit, extra)` list while it holds at
///   most `n/4` units, at 8 bytes an entry and never more than twice its
///   length in capacity, so at most 16 bytes per redone unit; the first
///   redone unit past `n/4` promotes it, once, to a dense `u32` column of
///   `n` counters (4n bytes, still at most 16 bytes per redone unit). The
///   form follows from the recorded units alone, never from a setting.
///
/// A unit's multiplicity is its bit plus its extra count; completion,
/// missing units and the performed count are read word by word off the
/// bitset. Two ledgers with the same multiplicities have the same form
/// (it depends only on how many units were redone), so the derived
/// equality is equality of multiplicities.
#[derive(Clone, Default, PartialEq, Eq, Serialize)]
pub struct WorkLedger {
    n: usize,
    done: Vec<u64>,
    extra: Extra,
}

#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
enum Extra {
    /// Ascending by zero-based unit; every count is at least 1.
    Sparse(Vec<(u32, u32)>),
    /// Indexed by zero-based unit; zero for units done at most once.
    Dense(Vec<u32>),
}

impl Default for Extra {
    fn default() -> Self {
        Extra::Sparse(Vec::new())
    }
}

impl WorkLedger {
    /// An empty ledger for units `1..=n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `2^32`: units are stored as zero-based `u32`.
    pub fn new(n: usize) -> Self {
        assert!(n as u64 <= 1 << 32, "a work ledger holds at most 2^32 units");
        WorkLedger { n, done: vec![0; n.div_ceil(64)], extra: Extra::default() }
    }

    /// The number of units `n` the ledger covers.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Counts one performance of the unit at zero-based index `i < n`.
    pub(crate) fn record_index(&mut self, i: usize) {
        let (word, bit) = (&mut self.done[i / 64], 1u64 << (i % 64));
        if *word & bit == 0 {
            *word |= bit;
            return;
        }
        let n = self.n;
        match &mut self.extra {
            Extra::Dense(counts) => counts[i] += 1,
            Extra::Sparse(list) => match list.binary_search_by_key(&(i as u32), |&(u, _)| u) {
                Ok(k) => list[k].1 += 1,
                Err(_) if list.len() >= n / 4 => {
                    let mut counts = vec![0u32; n];
                    for &(u, c) in list.iter() {
                        counts[u as usize] = c;
                    }
                    counts[i] = 1;
                    self.extra = Extra::Dense(counts);
                }
                Err(k) => {
                    // Double by hand: `reserve_exact` keeps the capacity
                    // at most twice the length (16 bytes per entry).
                    if list.len() == list.capacity() {
                        list.reserve_exact(list.len().max(1));
                    }
                    list.insert(k, (i as u32, 1));
                }
            },
        }
    }

    /// How many times `unit` was performed (0 outside `1..=n`).
    pub fn count(&self, unit: Unit) -> u32 {
        let i = unit.zero_based();
        if i >= self.n {
            return 0;
        }
        let first = (self.done[i / 64] >> (i % 64)) as u32 & 1;
        first + self.extra_at(i)
    }

    fn extra_at(&self, i: usize) -> u32 {
        match &self.extra {
            Extra::Dense(counts) => counts[i],
            Extra::Sparse(list) => {
                list.binary_search_by_key(&(i as u32), |&(u, _)| u).map_or(0, |k| list[k].1)
            }
        }
    }

    /// Every unit's multiplicity, for units `1..=n` in order.
    pub fn counts(&self) -> impl Iterator<Item = u32> + '_ {
        (1..=self.n).map(|u| self.count(Unit::new(u)))
    }

    /// Units performed at least once (the bitset's popcount).
    pub fn performed(&self) -> u64 {
        self.done.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// Whether every unit `1..=n` was performed at least once.
    pub fn all_done(&self) -> bool {
        self.performed() == self.n as u64
    }

    /// Units never performed, ascending.
    pub fn missing(&self) -> Vec<Unit> {
        let mut out = Vec::new();
        for (w, &word) in self.done.iter().enumerate() {
            let mut zeros = !word;
            while zeros != 0 {
                let i = w * 64 + zeros.trailing_zeros() as usize;
                if i >= self.n {
                    break;
                }
                out.push(Unit::new(i + 1));
                zeros &= zeros - 1;
            }
        }
        out
    }

    /// Units performed more than once, ascending, with their multiplicities.
    pub fn redone(&self) -> Vec<(Unit, u32)> {
        match &self.extra {
            Extra::Sparse(list) => {
                list.iter().map(|&(u, c)| (Unit::new(u as usize + 1), c + 1)).collect()
            }
            Extra::Dense(counts) => counts
                .iter()
                .enumerate()
                .filter(|&(_, &c)| c > 0)
                .map(|(i, &c)| (Unit::new(i + 1), c + 1))
                .collect(),
        }
    }

    /// Heap bytes held: the bitset plus the overflow's capacity.
    pub fn bytes(&self) -> u64 {
        let extra = match &self.extra {
            Extra::Sparse(list) => list.capacity() * std::mem::size_of::<(u32, u32)>(),
            Extra::Dense(counts) => counts.capacity() * 4,
        };
        (self.done.capacity() * 8 + extra) as u64
    }
}

impl fmt::Debug for WorkLedger {
    /// A summary: the full table would print `n` numbers.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkLedger")
            .field("n", &self.n)
            .field("performed", &self.performed())
            .field("redone", &self.redone())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_is_work_plus_messages() {
        let mut m = Metrics::new(3);
        m.record_work(Unit::new(1)).unwrap();
        m.record_work(Unit::new(1)).unwrap();
        m.record_messages("ordinary", 1);
        assert_eq!(m.work_total, 2);
        assert_eq!(m.messages, 1);
        assert_eq!(m.effort(), 3);
    }

    #[test]
    fn completion_and_missing_units() {
        let mut m = Metrics::new(3);
        m.record_work(Unit::new(1)).unwrap();
        m.record_work(Unit::new(3)).unwrap();
        assert!(!m.all_work_done());
        assert_eq!(m.missing_units(), vec![Unit::new(2)]);
        m.record_work(Unit::new(2)).unwrap();
        assert!(m.all_work_done());
        assert!(m.missing_units().is_empty());
    }

    #[test]
    fn wasted_work_counts_repeats_only() {
        let mut m = Metrics::new(2);
        m.record_work(Unit::new(1)).unwrap();
        m.record_work(Unit::new(1)).unwrap();
        m.record_work(Unit::new(1)).unwrap();
        m.record_work(Unit::new(2)).unwrap();
        assert_eq!(m.wasted_work(), 2);
        assert_eq!(m.redone_units(), vec![(Unit::new(1), 3)]);
    }

    #[test]
    fn class_breakdown_sums_to_total() {
        let mut m = Metrics::new(0);
        m.record_messages("ordinary", 1);
        m.record_messages("ordinary", 1);
        m.record_messages("go_ahead", 1);
        assert_eq!(m.messages, 3);
        assert_eq!(m.messages_by_class["ordinary"], 2);
        assert_eq!(m.messages_by_class["go_ahead"], 1);
        let sum: u64 = m.messages_by_class.values().sum();
        assert_eq!(sum, m.messages);
    }

    #[test]
    fn bulk_recording_matches_per_message_recording() {
        let mut bulk = Metrics::new(0);
        bulk.record_messages("ordinary", 5);
        bulk.record_messages("go_ahead", 2);
        let mut one_by_one = Metrics::new(0);
        for _ in 0..5 {
            one_by_one.record_messages("ordinary", 1);
        }
        for _ in 0..2 {
            one_by_one.record_messages("go_ahead", 1);
        }
        assert_eq!(bulk, one_by_one);
        // A zero-recipient record must not create a map entry.
        bulk.record_messages("phantom", 0);
        assert!(!bulk.messages_by_class.contains_key("phantom"));
        assert_eq!(bulk.messages, 7);
    }

    #[test]
    fn units_beyond_n_are_rejected() {
        let mut m = Metrics::new(4);
        assert_eq!(m.record_work(Unit::new(5)), Err(Unit::new(5)));
        assert_eq!(m, Metrics::new(4), "a rejected unit records nothing");
        m.record_work(Unit::new(4)).unwrap();
        assert_eq!(m.units.count(Unit::new(4)), 1);
        assert_eq!(m.units.count(Unit::new(5)), 0);
    }

    #[test]
    fn dense_redo_promotes_once_and_keeps_counts() {
        // n = 8: the sparse form holds up to n/4 = 2 redone units; the
        // third promotes the overflow to a counter column.
        let mut m = Metrics::new(8);
        for u in 1..=8 {
            m.record_work(Unit::new(u)).unwrap();
        }
        assert_eq!(m.units.bytes(), 8, "one bitset word, no overflow");
        for u in [3, 1, 3] {
            m.record_work(Unit::new(u)).unwrap();
        }
        assert_eq!(m.units.bytes(), 8 + 2 * 8);
        m.record_work(Unit::new(8)).unwrap();
        assert_eq!(m.units.bytes(), 8 + 8 * 4, "promoted to n counters");
        assert_eq!(m.units.counts().collect::<Vec<_>>(), vec![2, 1, 3, 1, 1, 1, 1, 2]);
        assert_eq!(m.redone_units(), vec![(Unit::new(1), 2), (Unit::new(3), 3), (Unit::new(8), 2)]);
        assert_eq!(m.wasted_work(), 4);
        assert!(m.all_work_done());
    }

    #[test]
    fn missing_units_stop_at_n_inside_the_last_word() {
        let mut m = Metrics::new(70);
        for u in (1..=70).filter(|u| u % 10 != 0) {
            m.record_work(Unit::new(u)).unwrap();
        }
        let tens: Vec<Unit> = (1..=7).map(|k| Unit::new(10 * k)).collect();
        assert_eq!(m.missing_units(), tens);
        assert_eq!(m.units.performed(), 63);
        assert!(!m.all_work_done());
    }
}
