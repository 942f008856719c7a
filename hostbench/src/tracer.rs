//! Per-layer spans recorded from the benchmark's side of each call.
//!
//! A span wraps one call into a public function of a workspace crate and is
//! named `<crate>.<call>`, so the crate prefix is the layer. The calls the
//! benchmark makes never nest, so a span's duration is its layer's self
//! time, on the thread's CPU clock like every host time of the benchmark.
//! With tracing off, `span` only calls the closure: no clock is read.

use crate::report::Cpu;
use std::collections::BTreeMap;

/// The layers, named after their crates (`ow-simhw` is `simhw`, ...).
pub const LAYERS: [&str; 6] = ["simhw", "kernel", "apps", "faultinject", "trace", "core"];

#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotal {
    pub ns: u128,
    pub calls: u64,
}

#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: BTreeMap<&'static str, SpanTotal>,
}

impl Tracer {
    /// Turns recording on or off for the calls that follow.
    pub fn set(&mut self, on: bool) {
        self.on = on;
    }

    /// Runs `f`, recording its duration under `name` when tracing is on.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let t0 = Cpu::now();
        let out = f();
        let ns = t0.ns();
        let s = self.spans.entry(name).or_default();
        s.ns += ns;
        s.calls += 1;
        out
    }

    /// Sum over every span whose name starts with `prefix`.
    pub fn sum_prefix(&self, prefix: &str) -> SpanTotal {
        self.spans
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .fold(SpanTotal::default(), |a, (_, s)| SpanTotal {
                ns: a.ns + s.ns,
                calls: a.calls + s.calls,
            })
    }

    /// Mean milliseconds per call over the spans starting with `prefix`
    /// (0 when the workload never makes that call).
    pub fn mean_ms(&self, prefix: &str) -> f64 {
        let s = self.sum_prefix(prefix);
        if s.calls == 0 {
            0.0
        } else {
            s.ns as f64 / 1e6 / s.calls as f64
        }
    }

    /// Total recorded nanoseconds over all spans.
    pub fn total_ns(&self) -> u128 {
        self.spans.values().map(|s| s.ns).sum()
    }
}
