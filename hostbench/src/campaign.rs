//! `campaign`: the Table 5 fault-injection campaign, one experiment per op.
//!
//! Inputs: rounds of ten cells, `TABLE5_APPS` x {unprotected, protected}.
//! Each cell is a `CampaignConfig` with `EFFECTIVE_PER_CELL` effective
//! experiments and a campaign seed derived from `--seed`; both modes of an
//! app share it, as `table5` does. Experiments run in `run_campaign`'s order
//! with its stop rule, through `run_experiment` (untraced) or a call-by-call
//! copy of it whose calls are wrapped in layer spans (traced).

use crate::layers::{layer_metrics, OpSplit};
use crate::report::{
    self, is_checkpoint, median, metric, pct, Cpu, Digest, Outcome, Record, Timeline,
};
use crate::sim::{self, Counts};
use crate::tracer::Tracer;
use crate::Args;
use ow_apps::workload::TABLE5_APPS;
use ow_apps::{make_workload, VerifyResult, Workload};
use ow_core::{
    microreboot, MicrorebootFailure, OtherworldConfig, PolicySource, ResurrectionPolicy,
};
use ow_faultinject::{
    experiment_seed, fault_stream_seed, inject_batch, run_campaign, run_experiment,
    workload_stream_seed, CampaignConfig, CampaignResult, DamageReport, ExperimentRecord,
    Outcome as Exp,
};
use ow_kernel::{Kernel, KernelConfig, PanicCause};
use ow_simhw::machine::MachineConfig;
use ow_simhw::{stream_seed, CostModel, SimRng};
use ow_trace::layout::EventKind;
use ow_trace::FlightRecord;
use std::time::{Duration, Instant};

/// Effective experiments per cell (the stop rule of each cell's campaign).
const EFFECTIVE_PER_CELL: usize = 4;
/// Untimed warm-up rounds in each set-up.
const WARMUP_ROUNDS: u64 = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// The warm-up's inputs are fixed: set-up does the same work for every
/// `--seed`, so `setup_s` varies only with the host.
const WARMUP_SEED: u64 = 0x5741_524d; // "WARM"
/// Stream tag deriving the cells' campaign seeds from a seed.
const TAG: u64 = 0x4341_4d50; // "CAMP"
/// `run_experiment`'s cause-annotation length.
const CAUSE_TAIL_EVENTS: usize = 10;

struct Cell {
    app: &'static str,
    cfg: CampaignConfig,
}

impl Cell {
    /// Prefix of the keys of this cell's experiments.
    fn prefix(&self) -> String {
        let protected = u8::from(self.cfg.user_protection);
        format!("{}.{protected}.{:x}.", self.app, self.cfg.seed)
    }

    /// Names experiment `i` of this cell across processes (see `main`).
    fn key(&self, i: u64) -> String {
        format!("{}{i}", self.prefix())
    }
}

/// Runs experiment `i` of `cell` unless an earlier attempt of this run
/// showed that it ends the process, in which case it counts as a failed
/// op, merged as `run_campaign` merges a contained harness panic. Under a
/// supervising parent, the experiment's key is printed first, so that the
/// parent can tell which experiment a process died in.
fn attempt(args: &Args, cell: &Cell, i: u64, run: impl FnOnce() -> ExpOut) -> ExpOut {
    let key = cell.key(i);
    if args.skip.contains(&key) {
        return Err(format!("process aborted in experiment {key}"));
    }
    if args.worker {
        println!("{}{key}", crate::STARTED);
    }
    run()
}

/// Round `r`'s ten cells for `seed`.
fn round(seed: u64, r: u64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (a, &app) in TABLE5_APPS.iter().enumerate() {
        let campaign_seed = stream_seed(stream_seed(seed, TAG), r * 16 + a as u64);
        for user_protection in [false, true] {
            cells.push(Cell {
                app,
                cfg: CampaignConfig {
                    effective_experiments: EFFECTIVE_PER_CELL,
                    user_protection,
                    seed: campaign_seed,
                    jobs: 1,
                    ..CampaignConfig::default()
                },
            });
        }
    }
    cells
}

type ExpOut = Result<(ExperimentRecord, DamageReport), String>;

/// `run_campaign`'s merge step; returns whether the cell wants more.
fn merge(result: &mut CampaignResult, out: ExpOut, limit: usize) -> bool {
    let (record, damage) = out.unwrap_or_else(|panic_msg| {
        (
            ExperimentRecord {
                outcome: Exp::ResurrectFailure(format!("harness panic contained: {panic_msg}")),
                cause: "panic contained by the campaign engine".into(),
                events: Default::default(),
            },
            DamageReport::default(),
        )
    });
    result.damage.merge(&damage);
    result.flight.merge(&record.events);
    match &record.outcome {
        Exp::NoCrash => {
            result.discarded += 1;
            return true;
        }
        Exp::Success => result.success += 1,
        Exp::BootFailure(_) => result.boot_failure += 1,
        Exp::ResurrectFailure(_) => result.resurrect_failure += 1,
        Exp::DataCorruption(_) => result.data_corruption += 1,
    }
    result.effective += 1;
    result.records.push(record);
    result.effective < limit
}

/// Simulated outputs of one experiment that `ExperimentRecord` leaves out.
#[derive(Debug, Default, Clone, Copy)]
struct ExpSim {
    /// Cycles of the batches driven before the injection point.
    pre_inject_cycles: u64,
    /// Simulated seconds from the panic to the verified application.
    interrupt_s: Option<f64>,
}

/// `ow_faultinject::campaign::machine_config` (crate-private there).
fn machine_config() -> MachineConfig {
    MachineConfig {
        ram_frames: 8192,
        cpus: 2,
        tlb_entries: 64,
        tlb_tagged: true,
        cost: CostModel::zero_io(),
    }
}

/// `recover_flight`: the flight record located through the handoff block.
fn recover_flight(t: &mut Tracer, k: &Kernel) -> FlightRecord {
    t.span("trace.flight_recover", || {
        ow_kernel::layout::HandoffBlock::read(&k.machine.phys)
            .map(|(h, _)| FlightRecord::recover(&k.machine.phys, h.trace_base, h.trace_frames))
            .unwrap_or_default()
    })
}

fn account_end(c: &mut Counts, k: &Kernel, flight: &FlightRecord) {
    c.sim_cycles += k.machine.clock.now();
    c.pt_switches += k.pt_switches;
    c.add_mmu(k.machine.mmu.stats(), Default::default());
    c.flight_events += flight.events.len() as u64;
    c.corrupt_records += flight.corrupt_records;
    c.syscalls += flight.metrics.counter(ow_trace::metrics::Counter::Syscalls);
}

/// `run_experiment`, call by call, each call inside its layer's span. Must
/// return exactly what `run_experiment` returns for the same inputs.
fn experiment(
    t: &mut Tracer,
    c: &mut Counts,
    app: &'static str,
    cfg: &CampaignConfig,
    seed: u64,
) -> (ExperimentRecord, DamageReport, ExpSim) {
    let mut sim = ExpSim::default();
    let mut w = t.span("apps.make_workload", || {
        make_workload(app, workload_stream_seed(seed))
    });
    let mut rng = SimRng::seed_from_u64(fault_stream_seed(seed));
    let kernel_config = KernelConfig {
        user_protection: cfg.user_protection,
        fixes: cfg.fixes,
        ..KernelConfig::default()
    };
    let machine = sim::machine(t, machine_config());
    let booted = t.span("kernel.boot_cold", || {
        Kernel::boot_cold(machine, kernel_config, ow_apps::full_registry())
    });
    c.experiments += 1;
    let mut k = match booted {
        Ok(k) => k,
        Err(e) => {
            c.effective += 1;
            let rec = ExperimentRecord {
                outcome: Exp::BootFailure(format!("cold boot: {e}")),
                cause: "no trace (cold boot failed)".into(),
                events: Default::default(),
            };
            return (rec, DamageReport::default(), sim);
        }
    };
    let pid = t.span("apps.setup", || w.setup(&mut k));

    let inject_at = rng.gen_range(4..cfg.max_batches / 2);
    let after_setup = k.machine.clock.now();
    let mut damage = DamageReport::default();
    let mut injected = false;
    for batch in 0..cfg.max_batches {
        if batch == inject_at {
            sim.pre_inject_cycles = k.machine.clock.now() - after_setup;
            let (_, d) = t.span("faultinject.inject", || {
                inject_batch(&mut k, &mut rng, cfg.faults_per_experiment)
            });
            damage = d;
            injected = true;
        }
        sim::drive(t, &mut w, &mut k, pid);
        if k.panicked.is_some() {
            break;
        }
        if injected {
            if let Some(pf) = k.pending_fault {
                if pf.cause == PanicCause::Stall && !pf.in_syscall {
                    k.pending_fault = None;
                    t.span("kernel.do_panic", || k.do_panic(PanicCause::Stall));
                    break;
                }
            }
        }
    }
    c.landed += u64::from(damage.landed);
    c.trapped += u64::from(damage.trapped);
    c.blocked += u64::from(damage.blocked);

    let flight = recover_flight(t, &k);
    account_end(c, &k, &flight);
    let (cause, events) = t.span("trace.summary", || {
        (
            flight.tail_summary(CAUSE_TAIL_EVENTS),
            flight.event_counts(),
        )
    });
    let record = |outcome: Exp| ExperimentRecord {
        outcome,
        cause: cause.clone(),
        events,
    };
    if k.panicked.is_none() {
        t.span("simhw.machine_drop", || drop(k));
        return (record(Exp::NoCrash), damage, sim);
    }
    c.effective += 1;
    let t_fail = k.seconds();
    let cycles_dead = k.machine.clock.now();
    let mmu_dead = k.machine.mmu.stats();
    let pt_dead = k.pt_switches;

    let ow_config = OtherworldConfig {
        policy: PolicySource::Inline(ResurrectionPolicy::only([w.name()])),
        morph: cfg.morph,
        strategy: cfg.strategy,
        supervisor: ow_core::SupervisorConfig {
            enabled: false,
            ..ow_core::SupervisorConfig::default()
        },
        ..OtherworldConfig::default()
    };
    let rebooted = t.span("core.microreboot.cold_eager", || microreboot(k, &ow_config));
    let (mut k2, report) = match rebooted {
        Ok(ok) => ok,
        Err(MicrorebootFailure::SystemHalted(why) | MicrorebootFailure::CrashBootFailed(why)) => {
            return (record(Exp::BootFailure(why)), damage, sim)
        }
        Err(MicrorebootFailure::RecoveryFailed(why)) => {
            return (record(Exp::ResurrectFailure(why)), damage, sim)
        }
        Err(MicrorebootFailure::NotPanicked) => unreachable!("panicked checked above"),
    };
    c.add_report(&report);
    // The crash kernel runs on the same machine: count what it added.
    c.sim_cycles += k2.machine.clock.now().saturating_sub(cycles_dead);
    c.add_mmu(k2.machine.mmu.stats(), mmu_dead);
    c.pt_switches += k2.pt_switches.saturating_sub(pt_dead);

    let Some(proc_report) = report.proc_named(w.name()) else {
        let rec = record(Exp::ResurrectFailure("process list unreadable".into()));
        return (rec, damage, sim);
    };
    if !proc_report.outcome.is_success() {
        let why = format!("{:?}", proc_report.outcome);
        return (record(Exp::ResurrectFailure(why)), damage, sim);
    }
    let new_pid = proc_report.new_pid.expect("successful outcomes have a pid");
    t.span("apps.reconnect", || w.reconnect(&mut k2, new_pid));
    t.span("kernel.run_step", || {
        for _ in 0..8 {
            k2.run_step();
        }
    });
    let verdict = t.span("apps.verify", || w.verify(&mut k2, new_pid));
    sim.interrupt_s = Some(k2.seconds() - t_fail);
    c.add_verify(verdict == VerifyResult::Intact);
    t.span("simhw.machine_drop", || drop(k2));
    let outcome = match verdict {
        VerifyResult::Intact => Exp::Success,
        VerifyResult::Corrupted(why) => Exp::DataCorruption(why),
        VerifyResult::Missing => Exp::ResurrectFailure("gone after restart".into()),
    };
    (record(outcome), damage, sim)
}

fn untraced(app: &'static str, cfg: &CampaignConfig, seed: u64) -> ExpOut {
    ow_core::supervisor::contain(|| {
        let mut w = make_workload(app, workload_stream_seed(seed));
        run_experiment(&mut w, cfg, seed)
    })
}

fn fold(d: &mut Digest, out: &ExpOut) {
    match out {
        Ok((rec, dmg)) => {
            d.debug(rec);
            d.debug(dmg);
        }
        Err(msg) => d.bytes(msg.as_bytes()),
    }
}

/// The set-up's warm-up: `WARMUP_ROUNDS` rounds of fixed inputs, untraced.
fn warm_up(args: &Args) -> Digest {
    let mut digest = Digest::default();
    for r in 0..WARMUP_ROUNDS {
        for cell in round(WARMUP_SEED, r) {
            let mut result = CampaignResult::default();
            for i in 0.. {
                let seed = experiment_seed(cell.cfg.seed, i);
                let out = attempt(args, &cell, i, || untraced(cell.app, &cell.cfg, seed));
                fold(&mut digest, &out);
                if !merge(&mut result, out, cell.cfg.effective_experiments) {
                    break;
                }
            }
        }
    }
    digest
}

pub fn run(args: &Args, process_start: Instant) -> Outcome {
    let mut out = Outcome::default();
    let mut record = Record::open("campaign", args.seed);

    // --- Set-up: inputs plus a fixed warm-up, several times ---
    let mut setup_s = Vec::new();
    let mut warm_digests = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Cpu::now();
        warm_digests.push(warm_up(args));
        setup_s.push(t0.secs());
    }
    out.check(warm_digests.iter().all(|d| *d == warm_digests[0]), || {
        format!("set-up outputs differ between set-ups: {warm_digests:?}")
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
    let mut lat_ms = Vec::new();
    let mut digest = Digest::default();
    let mut round0 = Vec::new();
    let (mut effective, mut success) = (0usize, 0usize);
    let mut timeline = Timeline::default();
    let deadline = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let cpu0 = Cpu::now();
    let mut ops = 0u64;
    'rounds: for r in 0.. {
        for cell in round(args.seed, r) {
            if r > 0 && start.elapsed() >= deadline {
                break 'rounds;
            }
            let mut result = CampaignResult::default();
            for i in 0.. {
                let seed = experiment_seed(cell.cfg.seed, i);
                let traced = args.trace && crate::traced_op(ops);
                t.set(traced);
                let t0 = Cpu::now();
                let res = attempt(args, &cell, i, || {
                    if traced {
                        ow_core::supervisor::contain(|| {
                            let (rec, dmg, _) =
                                experiment(&mut t, &mut counts, cell.app, &cell.cfg, seed);
                            (rec, dmg)
                        })
                    } else {
                        untraced(cell.app, &cell.cfg, seed)
                    }
                });
                let ns = t0.ns();
                t.set(false);
                split.add(traced, ns);
                lat_ms.push(ns as f64 / 1e6);
                ops += 1;
                if res.is_err() {
                    out.failed += 1;
                }
                let syscalls = res
                    .as_ref()
                    .map_or(0, |(rec, _)| rec.events.get(EventKind::SyscallEnter));
                timeline.push(cpu0.secs(), syscalls);
                fold(&mut digest, &res);
                if is_checkpoint(ops) {
                    record.put(format!("ops.{ops}"), format!("{:016x}", digest.0));
                }
                if !merge(&mut result, res, cell.cfg.effective_experiments) {
                    break;
                }
            }
            effective += result.effective;
            success += result.success;
            if r == 0 {
                round0.push(result);
            }
        }
    }
    let elapsed = cpu0.secs();
    let wall = start.elapsed().as_secs_f64();
    out.attempted = ops;

    // --- Output checks (untimed): round 0 against run_campaign, and the
    // call-by-call copy against both ---
    let cells0 = round(args.seed, 0);
    let mut rep = Tracer::default();
    let mut rep_counts = Counts::default();
    let mut interrupts = Vec::new();
    let mut pre_inject: Vec<Vec<u64>> = vec![Vec::new(); cells0.len()];
    for (n, cell) in cells0.iter().enumerate() {
        let prefix = cell.prefix();
        if let Some(key) = args.skip.iter().find(|k| k.starts_with(&prefix)) {
            out.notes.push(format!(
                "cell {prefix}* not checked: experiment {key} ends the process"
            ));
            continue;
        }
        if args.worker {
            println!("{}check.{prefix}", crate::STARTED);
        }
        let reference = run_campaign(|s| make_workload(cell.app, s), &cell.cfg);
        out.check(round0[n] == reference, || {
            format!(
                "{} protected={}: timed outcomes differ from run_campaign",
                cell.app, cell.cfg.user_protection
            )
        });
        let mut copy = CampaignResult::default();
        let mut cycles = Vec::new();
        for i in 0.. {
            let seed = experiment_seed(cell.cfg.seed, i);
            let res = ow_core::supervisor::contain(|| {
                let (rec, dmg, s) =
                    experiment(&mut rep, &mut rep_counts, cell.app, &cell.cfg, seed);
                cycles.push(s.pre_inject_cycles);
                interrupts.extend(s.interrupt_s);
                (rec, dmg)
            });
            if !merge(&mut copy, res, cell.cfg.effective_experiments) {
                break;
            }
        }
        pre_inject[n] = cycles;
        out.check(copy == reference, || {
            format!(
                "{} protected={}: call-by-call run_experiment differs from run_campaign",
                cell.app, cell.cfg.user_protection
            )
        });
    }
    // Both modes of an app run the same experiment seeds, so up to the
    // injection point they drive identical batches: compare them over the
    // experiments both cells ran, each app weighted equally.
    let per_app: Vec<f64> = pre_inject
        .chunks(2)
        .filter_map(|pair| {
            let n = pair[0].len().min(pair[1].len());
            let base: u64 = pair[0][..n].iter().sum();
            let prot: u64 = pair[1][..n].iter().sum();
            (base > 0).then(|| pct(prot as f64 - base as f64, base as f64))
        })
        .collect();
    let sim_overhead_pct = per_app.iter().sum::<f64>() / per_app.len() as f64;
    let sim_interrupt_s = median(&interrupts);
    record.put("round0.sim_interrupt_s", sim_interrupt_s);
    record.put("round0.sim_overhead_pct", sim_overhead_pct);
    record.put("round0.sim_cycles", rep_counts.sim_cycles);
    record.put("round0.syscalls", rep_counts.syscalls);
    out.mismatches.extend(record.finish());

    out.notes.push(format!(
        "campaign: {ops} experiments ({effective} effective, {success} successful) in {elapsed:.2} CPU s ({wall:.2} s wall); setups {setup_s:?}; ops/s by slice {:?}",
        timeline.slice_ops(elapsed)
    ));
    out.end_to_end = vec![
        metric("setup_s", median(&setup_s), "s"),
        metric("ops_per_s", timeline.ops_per_s(elapsed), "1/s"),
        metric("op_ms_p50", report::quantile(&lat_ms, 0.5), "ms"),
        metric("op_ms_p90", report::quantile(&lat_ms, 0.9), "ms"),
        metric("success_pct", pct(success as f64, effective as f64), "%"),
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
