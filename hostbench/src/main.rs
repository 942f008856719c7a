//! Host wall-clock benchmark of the Otherworld reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path hostbench/Cargo.toml -- \
//!     --workload campaign|recover|steady --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload is generated from `--seed` and runs single-threaded. With
//! `--trace 0` the last line of standard output is a JSON object with the
//! end-to-end metrics; with `--trace 1` it holds the per-layer metrics, taken
//! from spans around every call the benchmark makes into a workspace crate.
//! Host time is named `*_ms`, `*_us`, `*_s` or `*_per_s`; simulated
//! quantities are named `sim_*` and repeat exactly for a seed. The run exits
//! non-zero when an output check fails. See `NOTES.md` beside this file.

mod campaign;
mod layers;
mod recover;
mod report;
mod sim;
mod steady;
mod tracer;

use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Running under a supervising parent (`--worker`).
    pub worker: bool,
    /// Experiments that ended an earlier attempt of this run (`--worker`'s
    /// comma-separated value).
    pub skip: Vec<String>,
}

/// Prefix of the line a worker prints before each experiment.
pub const STARTED: &str = "hostbench-started ";

/// Attempts of one run before giving up.
const MAX_ATTEMPTS: usize = 8;

/// Whether op `n` of a `--trace 1` run is traced: about half of them, in an
/// order unrelated to the workloads' own cycles (apps, checks), so traced
/// and untraced ops see the same mix and their difference is the tracing
/// overhead.
pub fn traced_op(n: u64) -> bool {
    ow_simhw::mix64(n) & 1 == 1
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        worker: false,
        skip: Vec::new(),
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            "--worker" => {
                args.worker = true;
                args.skip = value
                    .split(',')
                    .filter(|k| !k.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// Runs this invocation in a child process and starts it again when an
/// experiment ends it (the simulator can abort the whole process, e.g. on a
/// huge allocation sized from corrupt simulated memory), telling the new
/// child to count that experiment as failed instead of running it.
fn supervise(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("hostbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut skip: Vec<String> = Vec::new();
    for _ in 0..MAX_ATTEMPTS {
        let spawned = Command::new(&exe)
            .args(argv)
            .arg("--worker")
            .arg(skip.join(","))
            .stdout(Stdio::piped())
            .spawn();
        let mut child = match spawned {
            Ok(child) => child,
            Err(e) => {
                eprintln!("hostbench: cannot start worker: {e}");
                return ExitCode::FAILURE;
            }
        };
        let mut last_started = None;
        let mut lines = Vec::new();
        if let Some(stdout) = child.stdout.take() {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                match line.strip_prefix(STARTED) {
                    Some(key) => last_started = Some(key.to_string()),
                    None => lines.push(line),
                }
            }
        }
        let status = match child.wait() {
            Ok(status) => status,
            Err(e) => {
                eprintln!("hostbench: lost the worker: {e}");
                return ExitCode::FAILURE;
            }
        };
        if let Some(code) = status.code() {
            for line in lines {
                println!("{line}");
            }
            return ExitCode::from(u8::try_from(code).unwrap_or(1));
        }
        let Some(key) = last_started else {
            eprintln!("hostbench: worker ended by {status} before any experiment");
            return ExitCode::FAILURE;
        };
        eprintln!(
            "hostbench: experiment {key} ended the worker ({status}); running again without it"
        );
        skip.push(key);
    }
    eprintln!("hostbench: giving up after {MAX_ATTEMPTS} attempts");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(argv.iter().cloned()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}");
            return ExitCode::from(2);
        }
    };
    // Only `campaign` injects faults, the one way a run can take the whole
    // process down.
    if args.workload == "campaign" && !args.worker {
        return supervise(&argv);
    }
    let outcome = match args.workload.as_str() {
        "campaign" => campaign::run(&args, process_start),
        "recover" => recover::run(&args, process_start),
        "steady" => steady::run(&args, process_start),
        other => {
            eprintln!("hostbench: unknown workload {other:?} (campaign, recover, steady)");
            return ExitCode::from(2);
        }
    };
    for note in &outcome.notes {
        eprintln!("hostbench: {note}");
    }
    eprintln!(
        "hostbench: peak RSS over the whole run: {:.2} MiB",
        report::peak_rss_mib()
    );
    let metrics = if args.trace {
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    let correct = outcome.mismatches.is_empty();
    for m in &outcome.mismatches {
        eprintln!("hostbench: output check failed: {m}");
    }
    println!(
        "{}",
        report::result_json(correct, outcome.attempted, outcome.failed, metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
