//! Metrics, quantiles, digests and the result line.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

/// One named metric with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// What a workload run hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Output checks that did not hold; the run fails when non-empty.
    pub mismatches: Vec<String>,
    /// Human-readable lines for standard error.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.mismatches.push(what());
        }
    }
}

/// Linear-interpolated quantile of `v` (`q` in 0..=1); `v` need not be sorted.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

pub fn pct(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        100.0 * part / whole
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// FNV-1a over a stream of simulated outputs: every op folds its outputs
/// in, so equal digests at equal op counts mean equal outputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn debug(&mut self, x: &impl std::fmt::Debug) {
        let mut s = String::new();
        let _ = write!(s, "{x:?}");
        self.bytes(s.as_bytes());
    }
}

/// Simulated outputs recorded for cross-run comparison: `key -> value`
/// lines in a file per (workload, seed) beside the benchmark. A run compares
/// every key an earlier run of the same checkout recorded, then adds its
/// own. Keys name op-count checkpoints, so runs of different lengths and
/// traced/untraced runs overlap on their common prefix.
pub struct Record {
    path: PathBuf,
    earlier: BTreeMap<String, String>,
    now: BTreeMap<String, String>,
}

impl Record {
    pub fn open(workload: &str, seed: u64) -> Record {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("state");
        let path = dir.join(format!("{workload}-{seed}.txt"));
        let earlier = std::fs::read_to_string(&path)
            .unwrap_or_default()
            .lines()
            .filter_map(|l| l.split_once(' '))
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        Record {
            path,
            earlier,
            now: BTreeMap::new(),
        }
    }

    pub fn put(&mut self, key: impl Into<String>, value: impl std::fmt::Display) {
        self.now.insert(key.into(), value.to_string());
    }

    /// Checks against earlier runs and saves the union. Returns mismatches.
    pub fn finish(self) -> Vec<String> {
        let mismatches: Vec<String> = self
            .now
            .iter()
            .filter_map(|(k, v)| match self.earlier.get(k) {
                Some(old) if old != v => Some(format!(
                    "{k}: {v} differs from {old} recorded by an earlier run"
                )),
                _ => None,
            })
            .collect();
        if mismatches.is_empty() {
            let mut all = self.earlier;
            all.extend(self.now);
            let text: String = all.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
            if let Some(dir) = self.path.parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            let _ = std::fs::write(&self.path, text);
        }
        mismatches
    }
}

/// Op-count checkpoints at which digests are recorded: 16, 32, 64, ...
pub fn is_checkpoint(ops: u64) -> bool {
    ops >= 16 && ops.is_power_of_two()
}

/// The result line: one JSON object with exactly the keys the driver reads.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Completed work over the timed window, kept per op so that rates can be
/// taken per slice of the window.
#[derive(Debug, Default)]
pub struct Timeline {
    /// Seconds from the window's start to each op's end.
    ends: Vec<f64>,
    /// Simulated syscalls each op completed.
    syscalls: Vec<u64>,
}

/// Slices of the timed window; rates are the median over slices, so a
/// burst of contention from outside the process moves one slice, not the
/// result.
const SLICES: usize = 10;

impl Timeline {
    pub fn push(&mut self, end_s: f64, syscalls: u64) {
        self.ends.push(end_s);
        self.syscalls.push(syscalls);
    }

    fn rates(&self, total_s: f64, weight: impl Fn(usize) -> f64) -> Vec<f64> {
        let width = total_s / SLICES as f64;
        let mut sums = [0.0; SLICES];
        for (i, &end) in self.ends.iter().enumerate() {
            let s = ((end / width) as usize).min(SLICES - 1);
            sums[s] += weight(i);
        }
        sums.iter().map(|x| x / width).collect()
    }

    /// Median over slices of ops completed per second.
    pub fn ops_per_s(&self, total_s: f64) -> f64 {
        median(&self.rates(total_s, |_| 1.0))
    }

    /// Median over slices of simulated syscalls completed per second.
    pub fn syscalls_per_s(&self, total_s: f64) -> f64 {
        median(&self.rates(total_s, |i| self.syscalls[i] as f64))
    }

    pub fn slice_ops(&self, total_s: f64) -> Vec<f64> {
        self.rates(total_s, |_| 1.0)
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of the calling thread, in ns.
fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call, and the clock id is a
    // constant the kernel accepts; on failure `ts` stays zeroed.
    unsafe {
        clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts);
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// A point on the benchmark thread's CPU clock. Host time is measured on
/// this clock, not on the wall clock: the benchmark is single-threaded and
/// never waits, so the two agree except for time other processes or the
/// hypervisor take the CPU away, which this clock leaves out.
#[derive(Debug, Clone, Copy)]
pub struct Cpu(u64);

impl Cpu {
    pub fn now() -> Cpu {
        Cpu(thread_cpu_ns())
    }

    /// CPU ns since this point.
    pub fn ns(self) -> u128 {
        u128::from(thread_cpu_ns().saturating_sub(self.0))
    }

    /// CPU seconds since this point.
    pub fn secs(self) -> f64 {
        self.ns() as f64 / 1e9
    }
}
