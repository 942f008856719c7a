//! `recover`: clean recoveries, no fault injection.
//!
//! Op `i` takes app `TABLE5_APPS[i % 5]` and recovers it once under each of
//! the five `TABLE6_MODES`. Each recovery gets a fresh evaluation kernel,
//! set up and driven six batches untimed (as `table6_measure` does); the
//! timed part runs from `do_panic` through `microreboot`, reconnect and
//! settle to `verify`. The op's latency is the sum of its five timed parts.

use crate::layers::{layer_metrics, OpSplit};
use crate::report::{
    self, is_checkpoint, median, metric, pct, Cpu, Digest, Outcome, Record, Timeline,
};
use crate::sim::{self, Counts};
use crate::tracer::Tracer;
use crate::Args;
use ow_apps::workload::{pid_of, TABLE5_APPS};
use ow_apps::{make_workload, VerifyResult, Workload};
use ow_bench::tables::{Table6Mode, TABLE6_MODES};
use ow_core::microreboot;
use ow_kernel::PanicCause;
use ow_simhw::stream_seed;
use std::time::{Duration, Instant};

/// Untimed warm-up ops in each set-up.
const WARMUP_OPS: u64 = 40;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Ops re-run after the timed loop to check their outputs repeat.
const REPLAY_OPS: u64 = 5;
/// Batches driven before the panic, as in `table6_measure`.
const PRE_CRASH_BATCHES: u32 = 6;
/// The warm-up's inputs are fixed: set-up does the same work for every
/// `--seed`, so `setup_s` varies only with the host.
const WARMUP_SEED: u64 = 0x5741_524d; // "WARM"
/// Ops whose inputs are re-run protected for `sim_overhead_pct`, and the
/// batches measured on each.
const OVERHEAD_OPS: u64 = 150;
const OVERHEAD_BATCHES: u32 = 60;
/// Stream tag deriving the ops' workload seeds from a seed.
const TAG: u64 = 0x5245_434f; // "RECO"

/// Op `i`'s app and workload seed.
fn op_input(seed: u64, i: u64) -> (&'static str, u64) {
    let app = TABLE5_APPS[(i % TABLE5_APPS.len() as u64) as usize];
    (app, stream_seed(stream_seed(seed, TAG), i))
}

/// One op's results.
#[derive(Debug, Default)]
struct Op {
    /// Host ns of the five timed parts.
    timed_ns: u128,
    /// Simulated seconds from panic to verified, summed over the five.
    interrupt_s: f64,
    /// Every recovery verified intact.
    intact: bool,
    /// Recoveries whose microreboot failed outright.
    failed: u64,
    /// Simulated syscalls over the op's whole life (set-up drive included).
    syscalls: u64,
}

fn span_name(mode: &Table6Mode) -> &'static str {
    match mode.name {
        "cold_eager" => "core.microreboot.cold_eager",
        "cold_lazy" => "core.microreboot.cold_lazy",
        "warm_eager" => "core.microreboot.warm_eager",
        "warm_lazy" => "core.microreboot.warm_lazy",
        _ => "core.microreboot.rollback",
    }
}

fn recovery(
    t: &mut Tracer,
    c: &mut Counts,
    d: &mut Digest,
    op: &mut Op,
    app: &'static str,
    seed: u64,
    mode: &Table6Mode,
) {
    let mut k = sim::boot_eval(t, false);
    let mut w = t.span("apps.make_workload", || make_workload(app, seed));
    let pid = t.span("apps.setup", || w.setup(&mut k));
    for _ in 0..PRE_CRASH_BATCHES {
        sim::drive(t, &mut w, &mut k, pid);
    }
    let syscalls_before = sim::syscalls(&k);
    let generation = k.generation;
    let config = sim::table6_config(mode);

    let t0 = Cpu::now();
    let t_fail = k.seconds();
    t.span("kernel.do_panic", || {
        k.do_panic(PanicCause::Oops("hostbench recover"))
    });
    let rebooted = t.span(span_name(mode), || microreboot(k, &config));
    let (mut k2, report) = match rebooted {
        Ok(ok) => ok,
        Err(e) => {
            op.timed_ns += t0.ns();
            op.failed += 1;
            op.intact = false;
            d.debug(&e);
            return;
        }
    };
    let new_pid = pid_of(&k2, w.name()).unwrap_or(pid);
    t.span("apps.reconnect", || w.reconnect(&mut k2, new_pid));
    t.span("kernel.run_step", || {
        for _ in 0..8 {
            k2.run_step();
        }
    });
    let verdict = t.span("apps.verify", || w.verify(&mut k2, new_pid));
    op.timed_ns += t0.ns();

    let interrupt_s = k2.seconds() - t_fail;
    let after = sim::syscalls(&k2);
    // A rollback resumes the same generation and its counters; a
    // microreboot arms a fresh ring.
    let syscalls = if k2.generation == generation {
        after.max(syscalls_before)
    } else {
        syscalls_before + after
    };
    let intact = verdict == VerifyResult::Intact;
    op.interrupt_s += interrupt_s;
    op.intact &= intact;
    op.syscalls += syscalls;
    c.add_report(&report);
    c.add_verify(intact);
    c.syscalls += syscalls;
    c.sim_cycles += k2.machine.clock.now();
    c.pt_switches += k2.pt_switches;
    c.add_mmu(k2.machine.mmu.stats(), Default::default());
    for x in [interrupt_s.to_bits(), syscalls, k2.machine.clock.now()] {
        d.u64(x);
    }
    d.debug(&verdict);
    d.debug(&report.adoption);
    d.debug(&report.rollback);
    d.u64(report.stats.total_bytes);
    t.span("simhw.machine_drop", || drop(k2));
}

fn run_op(t: &mut Tracer, c: &mut Counts, d: &mut Digest, app: &'static str, seed: u64) -> Op {
    let mut op = Op {
        intact: true,
        ..Op::default()
    };
    for mode in &TABLE6_MODES {
        recovery(t, c, d, &mut op, app, seed, mode);
    }
    op
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut record = Record::open("recover", args.seed);
    let mut scratch = Counts::default();

    // --- Set-up: a fixed warm-up, several times ---
    let mut setup_s = Vec::new();
    let mut warm = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Cpu::now();
        let mut d = Digest::default();
        for i in 0..WARMUP_OPS {
            let (app, seed) = op_input(WARMUP_SEED, i);
            run_op(&mut Tracer::default(), &mut scratch, &mut d, app, seed);
        }
        setup_s.push(t0.secs());
        warm.push(d);
    }
    out.check(warm.iter().all(|d| *d == warm[0]), || {
        format!("set-up outputs differ between set-ups: {warm:?}")
    });
    let setup_rss_mib = report::peak_rss_mib();
    out.notes.push(format!(
        "process start to first timed op: {:.3} s",
        process_start.elapsed().as_secs_f64()
    ));

    // --- Timed ops ---
    let mut t = Tracer::default();
    let mut counts = Counts::default();
    let mut split = OpSplit::default();
    let mut digest = Digest::default();
    let (mut lat_ms, mut interrupts) = (Vec::new(), Vec::new());
    let mut intact_ops = 0u64;
    let mut timeline = Timeline::default();
    let deadline = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let cpu0 = Cpu::now();
    let mut i = 0u64;
    let mut replay_ref = None;
    while i < REPLAY_OPS || start.elapsed() < deadline {
        let (app, seed) = op_input(args.seed, i);
        let traced = args.trace && crate::traced_op(i);
        t.set(traced);
        let t0 = Cpu::now();
        let op = if traced {
            run_op(&mut t, &mut counts, &mut digest, app, seed)
        } else {
            run_op(&mut t, &mut scratch, &mut digest, app, seed)
        };
        split.add(traced, t0.ns());
        t.set(false);
        i += 1;
        lat_ms.push(op.timed_ns as f64 / 1e6);
        interrupts.push(op.interrupt_s);
        intact_ops += u64::from(op.intact);
        timeline.push(cpu0.secs(), op.syscalls);
        out.failed += u64::from(op.failed > 0);
        if i == REPLAY_OPS {
            replay_ref = Some(digest);
        }
        if is_checkpoint(i) {
            record.put(format!("ops.{i}"), format!("{:016x}", digest.0));
        }
    }
    let elapsed = cpu0.secs();
    let wall = start.elapsed().as_secs_f64();
    out.attempted = i;

    // --- Output checks (untimed): the first ops again, same outputs ---
    let mut d = Digest::default();
    for j in 0..REPLAY_OPS {
        let (app, seed) = op_input(args.seed, j);
        run_op(&mut Tracer::default(), &mut scratch, &mut d, app, seed);
    }
    out.check(replay_ref == Some(d), || {
        format!("the first {REPLAY_OPS} ops differ when run again")
    });
    // Protection overhead as Table 3 measures it, for the apps this
    // workload recovers: after the six pre-crash batches, a window of
    // batches protected vs unprotected on the same inputs, per app over the
    // first ops' seeds, each app weighted equally.
    let mut cycles = [[0u64; 2]; TABLE5_APPS.len()];
    for j in 0..OVERHEAD_OPS {
        let (app, seed) = op_input(args.seed, j);
        let row = ow_bench::perf::protection_overhead(
            |s| make_workload(app, s),
            seed,
            PRE_CRASH_BATCHES,
            OVERHEAD_BATCHES,
        );
        let a = (j % TABLE5_APPS.len() as u64) as usize;
        cycles[a][0] += row.base.cycles;
        cycles[a][1] += row.protected.cycles;
    }
    let sim_overhead_pct = cycles
        .iter()
        .map(|c| pct(c[1] as f64 - c[0] as f64, c[0] as f64))
        .sum::<f64>()
        / TABLE5_APPS.len() as f64;
    record.put("sim_overhead_pct", sim_overhead_pct);
    out.mismatches.extend(record.finish());

    let sim_interrupt_s = median(&interrupts);
    out.notes.push(format!(
        "recover: {i} ops ({} recoveries) in {elapsed:.2} CPU s ({wall:.2} s wall), {intact_ops} all-intact; setups {setup_s:?}; ops/s by slice {:?}",
        i * TABLE6_MODES.len() as u64,
        timeline.slice_ops(elapsed)
    ));
    out.end_to_end = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("ops_per_s", timeline.ops_per_s(elapsed), "1/s"),
        metric("op_ms_p50", report::quantile(&lat_ms, 0.5), "ms"),
        metric("op_ms_p90", report::quantile(&lat_ms, 0.9), "ms"),
        metric("success_pct", pct(intact_ops as f64, i as f64), "%"),
        metric(
            "sim_syscalls_per_s",
            timeline.syscalls_per_s(elapsed),
            "1/s",
        ),
        metric("peak_rss_mib", setup_rss_mib, "MiB"),
        metric("sim_interrupt_s", sim_interrupt_s, "sim_s"),
        metric("sim_overhead_pct", sim_overhead_pct, "%"),
    ];
    out.per_layer = layer_metrics(&t, &counts, &split, 0.0);
    out
}
