//! What the benchmark reads about its own process and its host: CPU
//! time through `getrusage`, peak memory from `/proc/self/status`, the
//! hypervisor's steal share from `/proc/stat`, and the host fingerprint
//! printed with every run.

use std::hint::black_box;
use std::time::{Duration, Instant};

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
/// `long` counters that are not read.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

fn rusage(who: i32) -> RUsage {
    let mut usage = RUsage::default();
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout of 64-bit Linux, and `who` is one of the two values the
    // call accepts; the call writes only inside that struct.
    let rc = unsafe { getrusage(who, &mut usage) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    usage
}

fn cpu_of(u: &RUsage) -> Duration {
    let micros = |t: &Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Duration::from_micros(micros(&u.utime) + micros(&u.stime))
}

/// User + system CPU time of this process (all threads) plus every
/// child process it has waited for.
pub fn cpu_time() -> Duration {
    cpu_of(&rusage(RUSAGE_SELF)) + cpu_of(&rusage(RUSAGE_CHILDREN))
}

/// Peak resident set of this process image, in MB: `VmHWM`, which starts
/// afresh at `exec` (`ru_maxrss` keeps the high-water mark of the process
/// that forked this one, e.g. `cargo run`). 0 when unreadable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nanoseconds per element of a fixed in-cache multiply-add loop: the
/// host's current speed, independent of the program under test. Shared
/// cores and frequency changes move it; the steal share does not see them.
pub fn calibration_ns() -> f64 {
    const REPS: usize = 4_000;
    let mut a = [1.0f32; 4096];
    let t = Instant::now();
    for _ in 0..REPS {
        for v in a.iter_mut() {
            *v = *v * 0.999 + 0.001;
        }
        black_box(&mut a);
    }
    t.elapsed().as_secs_f64() * 1e9 / (REPS * a.len()) as f64
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)` over user..steal.
#[derive(Debug, Clone, Copy, Default)]
pub struct StatSample {
    steal: u64,
    total: u64,
}

impl StatSample {
    /// Reads `/proc/stat` now; an unreadable file gives an empty sample
    /// (steal share then reads 0).
    pub fn now() -> Self {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|text| parse_stat(&text))
            .unwrap_or_default()
    }

    /// Share of host CPU time stolen by the hypervisor between `self`
    /// and `later`.
    pub fn steal_share(&self, later: &StatSample) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

fn parse_stat(text: &str) -> Option<StatSample> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal
    (fields.len() == 8).then(|| StatSample {
        steal: fields[7],
        total: fields.iter().sum(),
    })
}

/// One line of JSON naming the host: CPU model, cores, detected SIMD
/// features and the build profile.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"cpu\": {}, \"nproc\": {nproc}, \"features\": [{}], \"profile\": \"{profile}\"}}",
        json_string(&cpu),
        simd_features()
            .iter()
            .map(|f| format!("\"{f}\""))
            .collect::<Vec<_>>()
            .join(", ")
    )
}

#[cfg(target_arch = "x86_64")]
fn simd_features() -> Vec<&'static str> {
    let mut out = Vec::new();
    if std::arch::is_x86_feature_detected!("sse4.1") {
        out.push("sse4.1");
    }
    if std::arch::is_x86_feature_detected!("avx2") {
        out.push("avx2");
    }
    if std::arch::is_x86_feature_detected!("avx512f") {
        out.push("avx512f");
    }
    out
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_features() -> Vec<&'static str> {
    Vec::new()
}

/// Minimal JSON string escaping for the fingerprint and span names.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steal_share_from_two_samples() {
        let a = parse_stat("cpu  100 0 50 800 0 0 0 50 0 0\ncpu0 1 2 3").expect("parses");
        let b = parse_stat("cpu  200 0 100 1600 0 0 0 100 0 0\n").expect("parses");
        assert!((a.steal_share(&b) - 50.0 / 1000.0).abs() < 1e-12);
        assert!(parse_stat("cpu  1 2\n").is_none());
    }

    #[test]
    fn cpu_time_is_monotone() {
        let a = cpu_time();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_time() >= a);
        assert!(peak_rss_mb() > 0.0);
    }
}
