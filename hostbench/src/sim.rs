//! Shared calls into the workspace crates, each wrapped in its layer span,
//! and the simulated counts the per-layer report is built from.

use crate::tracer::Tracer;
use ow_apps::Workload;
use ow_bench::tables::Table6Mode;
use ow_core::{MicrorebootReport, OtherworldConfig};
use ow_kernel::{Kernel, KernelConfig, RobustnessFixes};
use ow_simhw::machine::MachineConfig;
use ow_simhw::{Machine, MmuStats};
use ow_trace::metrics::Counter;

/// Builds the machine `ow_kernel::standard_machine` builds, from the
/// `ow-simhw` calls it makes, inside one `simhw` span.
pub fn machine(t: &mut Tracer, config: MachineConfig) -> Machine {
    t.span("simhw.machine_new", || {
        let mut m = Machine::new(config);
        m.add_device("sda", 8 * 1024 * 1024);
        m.add_device("swap0", 4 * 1024 * 1024);
        m.add_device("swap1", 4 * 1024 * 1024);
        m
    })
}

/// `ow_bench::boot_eval`, call by call: the evaluation machine (costs on,
/// tagged TLB) with a cold-booted kernel and the full registry.
pub fn boot_eval(t: &mut Tracer, user_protection: bool) -> Kernel {
    let m = machine(t, ow_bench::eval_machine_config());
    let config = KernelConfig {
        user_protection,
        fixes: RobustnessFixes::default(),
        ..KernelConfig::default()
    };
    t.span("kernel.boot_cold", || {
        Kernel::boot_cold(m, config, ow_apps::full_registry()).expect("eval kernel boots")
    })
}

/// The recovery configuration `ow_bench::tables::table6_measure` uses for
/// `mode` (every resource class resurrected, default crash kernel).
pub fn table6_config(mode: &Table6Mode) -> OtherworldConfig {
    OtherworldConfig {
        morph: mode.morph,
        strategy: mode.strategy,
        resurrect_sockets: true,
        resurrect_pipes: true,
        rollback: mode.rollback,
        ..OtherworldConfig::default()
    }
}

/// The live kernel's `Counter::Syscalls`, read from its trace-ring header.
pub fn syscalls(k: &Kernel) -> u64 {
    let Some(ring) = k.trace else { return 0 };
    let addr =
        ring.base_addr() + ow_layout::trace::hdr_off::COUNTERS + 8 * Counter::Syscalls as u64;
    k.machine.phys.read_u64(addr).unwrap_or(0)
}

/// Drives one batch inside the `apps.drive.<app>` span.
pub fn drive(t: &mut Tracer, w: &mut Box<dyn Workload>, k: &mut Kernel, pid: u64) {
    let name = match w.name() {
        "mysqld" => "apps.drive.mysqld",
        "httpd" => "apps.drive.httpd",
        "volano" => "apps.drive.volano",
        "vi" => "apps.drive.vi",
        "joe" => "apps.drive.joe",
        _ => "apps.drive.blcr",
    };
    t.span(name, || w.drive(k, pid));
}

/// Simulated counts gathered over the traced ops (and, for the `sim_*`
/// end-to-end metrics, over fixed prefixes of the run).
#[derive(Debug, Clone, Default)]
pub struct Counts {
    pub sim_cycles: u64,
    pub syscalls: u64,
    pub pt_switches: u64,
    pub mmu: MmuStats,
    pub flight_events: u64,
    pub corrupt_records: u64,
    pub experiments: u64,
    pub effective: u64,
    pub landed: u64,
    pub trapped: u64,
    pub blocked: u64,
    pub microreboots: u64,
    pub adopted: u64,
    pub rollbacks: u64,
    pub read_bytes: u64,
    pub sim_crash_boot_s: f64,
    pub sim_resurrection_s: f64,
    pub sim_morph_s: f64,
    pub sim_rollback_s: f64,
    pub verifies: u64,
    pub intact: u64,
}

impl Counts {
    /// Adds the MMU events between two readings of one machine's stats.
    pub fn add_mmu(&mut self, after: MmuStats, before: MmuStats) {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        self.mmu.accesses += d(after.accesses, before.accesses);
        self.mmu.tlb_misses += d(after.tlb_misses, before.tlb_misses);
        self.mmu.asid_switches += d(after.asid_switches, before.asid_switches);
        self.mmu.invalidations += d(after.invalidations, before.invalidations);
    }

    pub fn add_report(&mut self, r: &MicrorebootReport) {
        self.microreboots += 1;
        self.adopted +=
            u64::from(r.adoption.frames) + u64::from(r.adoption.swap) + u64::from(r.adoption.cache);
        self.rollbacks += u64::from(r.rollback.is_some());
        self.read_bytes += r.stats.total_bytes;
        self.sim_crash_boot_s += r.crash_boot_seconds;
        self.sim_resurrection_s += r.resurrection_seconds;
        self.sim_morph_s += r.morph_seconds;
        self.sim_rollback_s += r.rollback_seconds;
    }

    pub fn add_verify(&mut self, intact: bool) {
        self.verifies += 1;
        self.intact += u64::from(intact);
    }
}
