//! Host probes: process CPU time (from the process CPU-time clock, and
//! from `/proc`), peak RSS from `/proc`, and the cost of the clock the
//! timing wrappers read.

use std::hint::black_box;
use std::time::Instant;

/// Clock ticks per second of the CPU times in `/proc/<pid>/stat`. Linux
/// reports them in `USER_HZ`, which its user-space ABI fixes at 100.
const USER_HZ: f64 = 100.0;

/// User + system CPU seconds from the contents of `/proc/<pid>/stat`
/// (fields 14 and 15). The command name (field 2) is parenthesised and
/// may itself hold spaces and parentheses, so parsing starts after the
/// last `)`.
pub fn parse_stat_cpu_s(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    // `rest` starts at field 3 (state); utime/stime are fields 14/15.
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size in bytes from the contents of
/// `/proc/<pid>/status` (the `VmHWM:` line, reported in kB).
pub fn parse_vm_hwm_bytes(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb: u64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") | None => Some(kb * 1024),
        Some(_) => None,
    }
}

/// CPU seconds (user + system, all threads) this process has used so far,
/// in whole clock ticks (10 ms).
///
/// # Panics
///
/// Panics when `/proc/self/stat` is missing or malformed: the benchmark
/// needs Linux `/proc`.
pub fn cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_s(&stat).expect("parse /proc/self/stat")
}

/// `CLOCK_PROCESS_CPUTIME_ID` of Linux `<time.h>`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

// `Timespec` below has the 64-bit layout, and `/proc` is Linux's.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the clocks and `/proc` of 64-bit Linux");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds (user + system) this process has used so far, summed over
/// every thread it ran, exited ones included, to the nanosecond. The
/// ticks of [`cpu_s`] are too coarse for one round or one engine run.
///
/// # Panics
///
/// Panics if the process CPU-time clock cannot be read.
#[allow(unsafe_code)]
pub fn process_cpu_s() -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` with the 64-bit
    // Linux layout, and the clock id is one the kernel always provides.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// This process's peak resident set size in bytes.
///
/// # Panics
///
/// As [`cpu_s`], for `/proc/self/status`.
pub fn peak_rss_bytes() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_bytes(&status).expect("parse VmHWM in /proc/self/status")
}

/// Wall and CPU seconds of one measured section.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Host wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU seconds (user + system, all threads).
    pub cpu_s: f64,
}

/// Runs `f`, measuring its wall and process CPU time.
pub fn span<T>(f: impl FnOnce() -> T) -> (T, Span) {
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    (out, Span { wall_s, cpu_s: process_cpu_s() - cpu0 })
}

/// Runs `f`, measuring only its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// What one timed call costs the timing wrappers, in nanoseconds.
#[derive(Clone, Copy, Debug)]
pub struct ClockCost {
    /// What an empty timed region reads: subtracted from every timed call.
    pub bias_ns: f64,
    /// Host time one timed region adds around the call: subtracted from
    /// the enclosing engine's self time.
    pub overhead_ns: f64,
}

/// Measures [`ClockCost`] on this host (median of several short loops).
pub fn clock_cost() -> ClockCost {
    const ITERS: u32 = 100_000;
    let mut bias = Vec::new();
    let mut overhead = Vec::new();
    for _ in 0..9 {
        let mut inside = 0u128;
        let t0 = Instant::now();
        for _ in 0..ITERS {
            let t = Instant::now();
            inside += black_box(t.elapsed()).as_nanos();
        }
        overhead.push(t0.elapsed().as_nanos() as f64 / f64::from(ITERS));
        bias.push(inside as f64 / f64::from(ITERS));
    }
    ClockCost { bias_ns: crate::stats::median(&bias), overhead_ns: crate::stats::median(&overhead) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_cpu_ticks_after_a_hostile_command_name() {
        // Fields: pid (comm) state ppid pgrp session tty tpgid flags
        // minflt cminflt majflt cmajflt utime stime ...
        let stat = "4242 (a b) c)) S 1 4242 4242 0 -1 4194560 \
                    120 0 3 0 250 75 0 0 20 0 2 0 1000 1234 56";
        assert_eq!(parse_stat_cpu_s(stat), Some(3.25));
    }

    #[test]
    fn rejects_truncated_stat() {
        assert_eq!(parse_stat_cpu_s("4242 (x) S 1 2 3"), None);
        assert_eq!(parse_stat_cpu_s("no parenthesis"), None);
    }

    #[test]
    fn parses_vm_hwm() {
        let status = "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t  348160 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_bytes(status), Some(348_160 * 1024));
        assert_eq!(parse_vm_hwm_bytes("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_bytes("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn live_probes_read_this_process() {
        assert!(peak_rss_bytes() > 0);
        let c0 = cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        black_box(x);
        assert!(cpu_s() >= c0);
    }

    #[test]
    fn process_cpu_clock_agrees_with_proc_stat() {
        let (p0, c0) = (process_cpu_s(), cpu_s());
        let mut x = 0u64;
        for i in 0..200_000_000u64 {
            x = black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        black_box(x);
        let (fine, ticks) = (process_cpu_s() - p0, cpu_s() - c0);
        assert!(fine > 0.0, "{fine}");
        // Both count the same CPU time; the ticks are 10 ms apart.
        assert!((fine - ticks).abs() < 0.05, "clock {fine} s, /proc {ticks} s");
    }

    #[test]
    fn clock_cost_is_positive_and_small() {
        let c = clock_cost();
        assert!(c.bias_ns >= 0.0 && c.bias_ns < 10_000.0, "{c:?}");
        assert!(c.overhead_ns > 0.0 && c.overhead_ns < 10_000.0, "{c:?}");
    }
}
