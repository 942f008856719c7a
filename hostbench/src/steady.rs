//! `steady`: six long-lived kernels, no crash.
//!
//! mysqld, httpd and volano (the Table 3 apps), each unprotected and
//! protected on the evaluation machine, with one workload seed per app
//! shared by both modes. Set-up boots them and drives each `WARMUP_BATCHES`
//! batches, past the climb in host cost per batch of a young kernel. One op
//! is one `Workload::drive` round over all six; every `CHECK_EVERY` rounds
//! each kernel is verified against its workload's shadow model, inside the
//! op that triggers the check.

use crate::layers::{layer_metrics, OpSplit};
use crate::report::{
    self, is_checkpoint, median, metric, pct, Cpu, Digest, Outcome, Record, Timeline,
};
use crate::sim::{self, Counts};
use crate::tracer::Tracer;
use crate::Args;
use ow_apps::{make_workload, VerifyResult, Workload};
use ow_bench::tables::TABLE6_MODES;
use ow_core::microreboot;
use ow_kernel::{Kernel, PanicCause};
use ow_simhw::stream_seed;
use std::time::{Duration, Instant};

const KERNELS: [(&str, bool); 6] = [
    ("mysqld", false),
    ("httpd", false),
    ("volano", false),
    ("mysqld", true),
    ("httpd", true),
    ("volano", true),
];
/// Warm-up batches per kernel. Host cost per batch climbs over about the
/// first 2000 batches of a fresh kernel, then stays flat.
const WARMUP_BATCHES: u32 = 2500;
/// Batches at the start of the warm-up timed for `apps.drive_us_ramp`.
const RAMP_BATCHES: u32 = 500;
/// Rounds between shadow-model checks.
const CHECK_EVERY: u64 = 32;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Rounds re-run on the reference set-up to check outputs repeat.
const REPLAY_ROUNDS: u64 = 4 * CHECK_EVERY;
/// Stream tag deriving the apps' workload seeds from a seed.
const TAG: u64 = 0x5354_4459; // "STDY"

struct Live {
    k: Kernel,
    w: Box<dyn Workload>,
    pid: u64,
    protected: bool,
}

/// Boots and warms the six kernels; returns them with the host ns the
/// first `RAMP_BATCHES` batches took over all six.
fn set_up(seed: u64) -> (Vec<Live>, u128) {
    let mut t = Tracer::default();
    let mut ramp_ns = 0;
    let live = KERNELS
        .iter()
        .enumerate()
        .map(|(n, &(app, protected))| {
            let mut k = sim::boot_eval(&mut t, protected);
            let mut w = make_workload(app, stream_seed(stream_seed(seed, TAG), (n % 3) as u64));
            let pid = w.setup(&mut k);
            let t0 = Cpu::now();
            for b in 0..WARMUP_BATCHES {
                if b == RAMP_BATCHES {
                    ramp_ns += t0.ns();
                }
                w.drive(&mut k, pid);
            }
            Live {
                k,
                w,
                pid,
                protected,
            }
        })
        .collect();
    (live, ramp_ns)
}

fn fold_state(d: &mut Digest, live: &[Live]) {
    for l in live {
        d.u64(l.k.machine.clock.now());
        d.u64(sim::syscalls(&l.k));
        d.debug(&l.k.machine.mmu.stats());
    }
}

/// Per-round simulated totals, split by protection mode.
#[derive(Debug, Default)]
struct Round {
    cycles: [u64; 2],
    syscalls: u64,
    checks: u64,
    intact: u64,
}

/// One op: a drive round over all six, plus the check when it is due.
fn round(t: &mut Tracer, c: &mut Counts, live: &mut [Live], n: u64, d: &mut Digest) -> Round {
    let mut r = Round::default();
    for l in live.iter_mut() {
        let (c0, s0, m0, p0) = (
            l.k.machine.clock.now(),
            sim::syscalls(&l.k),
            l.k.machine.mmu.stats(),
            l.k.pt_switches,
        );
        sim::drive(t, &mut l.w, &mut l.k, l.pid);
        let cycles = l.k.machine.clock.now() - c0;
        let syscalls = sim::syscalls(&l.k) - s0;
        r.cycles[usize::from(l.protected)] += cycles;
        r.syscalls += syscalls;
        c.sim_cycles += cycles;
        c.syscalls += syscalls;
        c.pt_switches += l.k.pt_switches - p0;
        c.add_mmu(l.k.machine.mmu.stats(), m0);
        d.u64(cycles);
        d.u64(syscalls);
    }
    if n.is_multiple_of(CHECK_EVERY) {
        for l in live.iter_mut() {
            let v = t.span("apps.verify", || l.w.verify(&mut l.k, l.pid));
            let intact = v == VerifyResult::Intact;
            r.checks += 1;
            r.intact += u64::from(intact);
            c.add_verify(intact);
            d.u64(u64::from(intact));
        }
    }
    r
}

/// Crashes each kernel and recovers it the way `table6_measure`'s
/// cold/eager column does; returns the summed simulated interruption.
fn crash_all(live: Vec<Live>, d: &mut Digest) -> f64 {
    let config = sim::table6_config(&TABLE6_MODES[0]);
    let mut total = 0.0;
    for Live { mut k, mut w, .. } in live {
        let t_fail = k.seconds();
        k.do_panic(PanicCause::Oops("hostbench steady"));
        let Ok((mut k2, _)) = microreboot(k, &config) else {
            d.u64(0);
            continue;
        };
        if let Some(pid) = ow_apps::workload::pid_of(&k2, w.name()) {
            w.reconnect(&mut k2, pid);
            for _ in 0..8 {
                k2.run_step();
            }
            let v = w.verify(&mut k2, pid);
            d.debug(&v);
        }
        total += k2.seconds() - t_fail;
    }
    total
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut record = Record::open("steady", args.seed);

    // --- Set-up, several times: the first is kept as the replay
    // reference, the last is timed ---
    let mut setup_s = Vec::new();
    let mut states = Vec::new();
    let mut reference = None;
    let mut timed = None;
    for n in 0..SETUPS {
        let t0 = Cpu::now();
        let (live, ramp_ns) = set_up(args.seed);
        setup_s.push(t0.secs());
        let mut d = Digest::default();
        fold_state(&mut d, &live);
        states.push(d);
        if n == 0 {
            reference = Some(live);
        } else if n + 1 == SETUPS {
            timed = Some((live, ramp_ns));
        }
    }
    out.check(states.iter().all(|d| *d == states[0]), || {
        format!("set-up outputs differ between set-ups: {states:?}")
    });
    let (mut live, ramp_ns) = timed.expect("at least two set-ups");
    let mut reference = reference.expect("at least one set-up");
    let setup_rss_mib = report::peak_rss_mib();
    out.notes.push(format!(
        "process start to first timed op: {:.3} s",
        process_start.elapsed().as_secs_f64()
    ));

    // --- Timed ops ---
    let mut t = Tracer::default();
    let mut counts = Counts::default();
    let mut scratch = Counts::default();
    let mut split = OpSplit::default();
    let mut digest = Digest::default();
    let mut lat_ms = Vec::new();
    let (mut cycles, mut checks, mut intact) = ([0u64; 2], 0u64, 0u64);
    let mut timeline = Timeline::default();
    let mut replay_ref = None;
    let deadline = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let cpu0 = Cpu::now();
    let mut n = 0u64;
    while n < REPLAY_ROUNDS || start.elapsed() < deadline {
        let traced = args.trace && crate::traced_op(n);
        t.set(traced);
        let t0 = Cpu::now();
        let c = if traced { &mut counts } else { &mut scratch };
        let r = round(&mut t, c, &mut live, n + 1, &mut digest);
        let ns = t0.ns();
        t.set(false);
        split.add(traced, ns);
        lat_ms.push(ns as f64 / 1e6);
        n += 1;
        cycles[0] += r.cycles[0];
        cycles[1] += r.cycles[1];
        timeline.push(cpu0.secs(), r.syscalls);
        checks += r.checks;
        intact += r.intact;
        if n == REPLAY_ROUNDS {
            replay_ref = Some(digest);
        }
        if is_checkpoint(n) {
            record.put(format!("ops.{n}"), format!("{:016x}", digest.0));
        }
    }
    let elapsed = cpu0.secs();
    let wall = start.elapsed().as_secs_f64();
    out.attempted = n;
    drop(live);

    // --- Output checks (untimed): the reference set-up runs the first
    // rounds again, then every kernel is crashed and recovered ---
    let mut d = Digest::default();
    for m in 1..=REPLAY_ROUNDS {
        round(
            &mut Tracer::default(),
            &mut scratch,
            &mut reference,
            m,
            &mut d,
        );
    }
    out.check(replay_ref == Some(d), || {
        format!("the first {REPLAY_ROUNDS} rounds differ when run again")
    });
    let mut crash_digest = Digest::default();
    let sim_interrupt_s = crash_all(reference, &mut crash_digest);
    record.put("replay.sim_interrupt_s", sim_interrupt_s);
    record.put("replay.crash", format!("{:016x}", crash_digest.0));
    out.mismatches.extend(record.finish());

    // Drive time per batch once warm, over the first batches of a fresh
    // kernel.
    let first_us = ramp_ns as f64 / 1e3 / (RAMP_BATCHES as f64 * KERNELS.len() as f64);
    let ramp = if first_us == 0.0 {
        0.0
    } else {
        1e3 * t.mean_ms("apps.drive.") / first_us
    };
    out.notes.push(format!(
        "steady: {n} rounds in {elapsed:.2} CPU s ({wall:.2} s wall), {intact}/{checks} checks intact; setups {setup_s:?}; ops/s by slice {:?}",
        timeline.slice_ops(elapsed)
    ));
    out.end_to_end = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("ops_per_s", timeline.ops_per_s(elapsed), "1/s"),
        metric("op_ms_p50", report::quantile(&lat_ms, 0.5), "ms"),
        metric("op_ms_p90", report::quantile(&lat_ms, 0.9), "ms"),
        metric("success_pct", pct(intact as f64, checks as f64), "%"),
        metric(
            "sim_syscalls_per_s",
            timeline.syscalls_per_s(elapsed),
            "1/s",
        ),
        metric("peak_rss_mib", setup_rss_mib, "MiB"),
        metric("sim_interrupt_s", sim_interrupt_s, "sim_s"),
        metric(
            "sim_overhead_pct",
            pct(cycles[1] as f64 - cycles[0] as f64, cycles[0] as f64),
            "%",
        ),
    ];
    out.per_layer = layer_metrics(&t, &counts, &split, ramp);
    out
}
