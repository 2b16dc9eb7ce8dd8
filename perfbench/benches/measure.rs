//! Measurement helpers: quantiles, process counters from `/proc`, and the
//! decision digest.

use std::time::Instant;

use qdn_core::types::Decision;

pub use qdn_sim::stats::quantile;

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of the middle half of `values` (the interquartile mean): it
/// ignores the windows a burst of interference slowed or a lull sped up,
/// as a median does, but unlike a median it averages over the rest
/// instead of resting on the one window in the middle.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

/// Seconds since `start`.
pub fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Seconds on a CPU of every thread of process `pid` since it started,
/// summed from the first field (nanoseconds) of
/// `/proc/<pid>/task/<tid>/schedstat`. Unlike the clock-tick counters of
/// `/proc/<pid>/stat`, it is exact to the nanosecond.
pub fn thread_cpu_seconds(pid: &str) -> Result<f64, String> {
    let dir = format!("/proc/{pid}/task");
    let mut ns = 0u64;
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("read {dir}: {e}"))? {
        let path = entry
            .map_err(|e| format!("read {dir}: {e}"))?
            .path()
            .join("schedstat");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        ns += text
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| format!("{}: no run time", path.display()))?;
    }
    Ok(ns as f64 / 1e9)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
}

/// CPU mask (CPUs 0-63) thread `tid` may run on; 0 is the calling thread.
pub fn affinity(tid: i32) -> Result<u64, String> {
    let mut mask = 0u64;
    // SAFETY: `mask` is a valid, writable 8-byte CPU set and its size is
    // passed.
    if unsafe { sched_getaffinity(tid, 8, &mut mask) } < 0 {
        return Err(format!("read the CPU affinity of thread {tid}"));
    }
    Ok(mask)
}

/// Lets thread `tid` (0: the calling thread) run only on the CPUs of
/// `mask`.
pub fn set_affinity(tid: i32, mask: u64) -> Result<(), String> {
    // SAFETY: `mask` is a valid 8-byte CPU set and its size is passed.
    if unsafe { sched_setaffinity(tid, 8, &mask) } != 0 {
        return Err(format!("set the CPU affinity of thread {tid} to {mask:#x}"));
    }
    Ok(())
}

/// The CPUs this process may run on, ascending.
pub fn cpus() -> Result<Vec<usize>, String> {
    let mask = affinity(0)?;
    Ok((0..64).filter(|i| mask >> i & 1 == 1).collect())
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// Seconds the calling thread has run on a CPU, exact to the nanosecond.
/// Unlike wall time it leaves out the time the thread waited for a CPU
/// while other threads ran on it.
pub fn this_thread_cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields on
    // x86_64 and aarch64 Linux) and the clock id is a constant Linux
    // accepts for every thread.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Pins each thread of process `pid` named `<prefix><i>` to the `i`-th
/// CPU this process may use (modulo their number); returns the pinned
/// threads' ids, in order of `i`.
pub fn pin_threads(pid: &str, prefix: &str) -> Result<Vec<String>, String> {
    let cpus = cpus()?;
    let dir = format!("/proc/{pid}/task");
    let mut pinned = Vec::new();
    for entry in std::fs::read_dir(&dir).map_err(|e| format!("read {dir}: {e}"))? {
        let path = entry.map_err(|e| format!("read {dir}: {e}"))?.path();
        let comm = std::fs::read_to_string(path.join("comm")).unwrap_or_default();
        let Some(index) = comm
            .trim()
            .strip_prefix(prefix)
            .and_then(|i| i.parse::<usize>().ok())
        else {
            continue;
        };
        let tid: i32 = path
            .file_name()
            .and_then(|n| n.to_str())
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("{}: not a thread id", path.display()))?;
        set_affinity(tid, 1 << cpus[index % cpus.len()])?;
        pinned.push((index, tid.to_string()));
    }
    pinned.sort();
    Ok(pinned.into_iter().map(|(_, tid)| tid).collect())
}

/// Nanoseconds thread `tid` of process `pid` has run on a CPU: the first
/// field of its `schedstat`, exact for a thread that is not running.
pub fn thread_cpu_ns(pid: &str, tid: &str) -> Result<u64, String> {
    let path = format!("/proc/{pid}/task/{tid}/schedstat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    text.split_whitespace()
        .next()
        .and_then(|v| v.parse::<u64>().ok())
        .ok_or_else(|| format!("{path}: no run time"))
}

/// Peak resident set size (`VmHWM`) of process `pid`, in MiB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// FNV-1a over the wire form of a decision sequence: equal digests mean
/// byte-identical decisions, slot by slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds in a tagged 64-bit word.
    pub fn push_word(&mut self, tag: u64, word: u64) {
        self.bytes(&tag.to_le_bytes());
        self.bytes(&word.to_le_bytes());
    }

    pub fn value(&self) -> u64 {
        self.0
    }

    /// Folds in slot `t`'s decision.
    pub fn push(&mut self, t: u64, decision: &Decision) {
        self.bytes(&t.to_le_bytes());
        let wire = serde_json::to_string(decision).expect("decisions serialize");
        self.bytes(wire.as_bytes());
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Digest of a whole decision sequence, slot `i` at index `i`.
pub fn digest_of(decisions: &[Decision]) -> Digest {
    let mut d = Digest::new();
    for (t, decision) in decisions.iter().enumerate() {
        d.push(t as u64, decision);
    }
    d
}

/// Checks `decision` against the slot's capacities with the simulator's
/// independent auditor; returns a description of the first violation.
pub fn audit(
    network: &qdn_net::QdnNetwork,
    snapshot: &qdn_net::CapacitySnapshot,
    decision: &Decision,
) -> Result<(), String> {
    match qdn_sim::audit::audit_decision(network, snapshot, decision).first() {
        None => Ok(()),
        Some(v) => Err(v.to_string()),
    }
}
