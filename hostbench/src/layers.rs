//! The per-layer report of a traced run. Every workload prints the same
//! list; a layer the workload never calls reads 0.

use crate::report::{metric, pct, Metric};
use crate::sim::Counts;
use crate::tracer::{Tracer, LAYERS};
use ow_bench::tables::TABLE6_MODES;

/// Host time of traced and untraced ops in a `--trace 1` run, which
/// alternates the two so that both see the same mix of inputs.
#[derive(Debug, Default)]
pub struct OpSplit {
    pub traced_ops: u64,
    pub traced_ns: u128,
    pub untraced_ops: u64,
    pub untraced_ns: u128,
}

impl OpSplit {
    pub fn add(&mut self, traced: bool, ns: u128) {
        if traced {
            self.traced_ops += 1;
            self.traced_ns += ns;
        } else {
            self.untraced_ops += 1;
            self.untraced_ns += ns;
        }
    }

    fn mean(ns: u128, ops: u64) -> f64 {
        if ops == 0 {
            0.0
        } else {
            ns as f64 / ops as f64
        }
    }
}

/// `ramp`: plateau host µs per drive divided by the mean over the first
/// 500 batches, where the workload measures it (`steady`), else 0.
pub fn layer_metrics(t: &Tracer, c: &Counts, split: &OpSplit, ramp: f64) -> Vec<Metric> {
    let ops = split.traced_ops.max(1) as f64;
    let per_op = |x: u64| x as f64 / ops;
    let per_reboot = |x: f64| {
        if c.microreboots == 0 {
            0.0
        } else {
            x / c.microreboots as f64
        }
    };
    let drive = t.sum_prefix("apps.drive.");
    let mut m = vec![
        metric("simhw.machine_new_ms", t.mean_ms("simhw.machine_new"), "ms"),
        metric(
            "simhw.tlb_miss_pct",
            pct(c.mmu.tlb_misses as f64, c.mmu.accesses as f64),
            "%",
        ),
        metric(
            "simhw.asid_switches",
            per_op(c.mmu.asid_switches),
            "count/op",
        ),
        metric(
            "simhw.tlb_invalidations",
            per_op(c.mmu.invalidations),
            "count/op",
        ),
        metric("simhw.sim_cycles_per_op", per_op(c.sim_cycles), "cycles/op"),
        metric("kernel.boot_cold_ms", t.mean_ms("kernel.boot_cold"), "ms"),
        metric("kernel.do_panic_ms", t.mean_ms("kernel.do_panic"), "ms"),
        metric("kernel.syscalls_per_op", per_op(c.syscalls), "count/op"),
        metric(
            "kernel.host_ns_per_syscall",
            if c.syscalls == 0 {
                0.0
            } else {
                drive.ns as f64 / c.syscalls as f64
            },
            "ns",
        ),
        metric(
            "kernel.pt_switches_per_op",
            per_op(c.pt_switches),
            "count/op",
        ),
        metric("apps.setup_ms", t.mean_ms("apps.setup"), "ms"),
        metric("apps.drive_us", 1e3 * t.mean_ms("apps.drive."), "us"),
    ];
    for app in ["mysqld", "httpd", "volano"] {
        let name = format!("apps.drive.{app}");
        m.push(metric(
            format!("apps.drive_us.{app}"),
            1e3 * t.mean_ms(&name),
            "us",
        ));
    }
    m.extend([
        metric("apps.drive_us_ramp", ramp, "ratio"),
        metric("apps.verify_ms", t.mean_ms("apps.verify"), "ms"),
        metric(
            "apps.intact_pct",
            pct(c.intact as f64, c.verifies as f64),
            "%",
        ),
        metric(
            "faultinject.inject_ms",
            t.mean_ms("faultinject.inject"),
            "ms",
        ),
        metric(
            "faultinject.effective_pct",
            pct(c.effective as f64, c.experiments as f64),
            "%",
        ),
        metric(
            "faultinject.wild_writes_landed",
            per_op(c.landed),
            "count/op",
        ),
        metric(
            "faultinject.wild_writes_trapped",
            per_op(c.trapped),
            "count/op",
        ),
        metric(
            "faultinject.wild_writes_blocked",
            per_op(c.blocked),
            "count/op",
        ),
        metric(
            "trace.flight_recover_ms",
            t.mean_ms("trace.flight_recover"),
            "ms",
        ),
        metric(
            "trace.corrupt_records",
            per_op(c.corrupt_records),
            "count/op",
        ),
        metric("trace.events_per_op", per_op(c.flight_events), "count/op"),
        metric("core.microreboot_ms", t.mean_ms("core.microreboot."), "ms"),
    ]);
    for mode in TABLE6_MODES {
        let name = format!("core.microreboot.{}", mode.name);
        m.push(metric(
            format!("core.microreboot_ms.{}", mode.name),
            t.mean_ms(&name),
            "ms",
        ));
    }
    m.extend([
        metric(
            "core.sim_crash_boot_s",
            per_reboot(c.sim_crash_boot_s),
            "sim_s",
        ),
        metric(
            "core.sim_resurrection_s",
            per_reboot(c.sim_resurrection_s),
            "sim_s",
        ),
        metric("core.sim_morph_s", per_reboot(c.sim_morph_s), "sim_s"),
        metric("core.sim_rollback_s", per_reboot(c.sim_rollback_s), "sim_s"),
        metric(
            "core.adopt_pct",
            pct(c.adopted as f64, 3.0 * c.microreboots as f64),
            "%",
        ),
        metric(
            "core.rollback_taken_pct",
            pct(c.rollbacks as f64, c.microreboots as f64),
            "%",
        ),
        metric("core.read_bytes", per_reboot(c.read_bytes as f64), "B"),
    ]);
    // Where the traced ops' host time went, by layer; the rest of the op is
    // the benchmark's own loop and any call no span wraps.
    let wall = split.traced_ns as f64;
    for layer in LAYERS {
        let ns = t.sum_prefix(&format!("{layer}.")).ns as f64;
        m.push(metric(format!("{layer}.share_pct"), pct(ns, wall), "%"));
    }
    m.push(metric(
        "bench.span_coverage_pct",
        pct(t.total_ns() as f64, wall),
        "%",
    ));
    let traced = OpSplit::mean(split.traced_ns, split.traced_ops);
    let untraced = OpSplit::mean(split.untraced_ns, split.untraced_ops);
    m.push(metric(
        "bench.trace_overhead_pct",
        if untraced == 0.0 {
            0.0
        } else {
            100.0 * (traced / untraced - 1.0)
        },
        "%",
    ));
    m
}
