//! Machine memory recycling cannot change a campaign result.
//!
//! Simulated RAM and disks are recycled through a per-thread pool: the
//! first experiment on a thread gets freshly allocated memory, every later
//! one gets buffers an earlier machine dropped and scrubbed. Each
//! experiment here runs both ways — alone on a new thread (empty pool) and
//! back to back with the others on one thread (warm pool) — and must
//! produce the same record and damage report.

use ow_apps::workload::make_workload;
use ow_faultinject::{
    experiment_seed, run_experiment, workload_stream_seed, CampaignConfig, DamageReport,
    ExperimentRecord,
};

const APPS: [&str; 2] = ["vi", "mysqld"];
const EXPERIMENTS: u64 = 6;

fn configs() -> Vec<(&'static str, CampaignConfig)> {
    let mut out = Vec::new();
    for app in APPS {
        for user_protection in [false, true] {
            let cfg = CampaignConfig {
                user_protection,
                seed: 0x2ec9_c1ed,
                ..CampaignConfig::default()
            };
            out.push((app, cfg));
        }
    }
    out
}

fn experiment(app: &str, cfg: &CampaignConfig, index: u64) -> (ExperimentRecord, DamageReport) {
    let seed = experiment_seed(cfg.seed, index);
    let mut workload = make_workload(app, workload_stream_seed(seed));
    run_experiment(&mut workload, cfg, seed)
}

#[test]
fn warm_pool_and_fresh_memory_give_identical_experiments() {
    let mut warm = Vec::new();
    for (app, cfg) in configs() {
        for index in 0..EXPERIMENTS {
            warm.push(experiment(app, &cfg, index));
        }
    }
    let mut fresh = Vec::new();
    for (app, cfg) in configs() {
        for index in 0..EXPERIMENTS {
            let cfg = cfg.clone();
            fresh.push(
                std::thread::spawn(move || experiment(app, &cfg, index))
                    .join()
                    .expect("experiment thread"),
            );
        }
    }
    assert_eq!(warm.len(), fresh.len());
    for (i, (w, f)) in warm.iter().zip(&fresh).enumerate() {
        assert_eq!(
            w, f,
            "experiment {i} differs between warm pool and fresh memory"
        );
    }
    // The sample must exercise recovery, not only quiet runs.
    assert!(
        warm.iter()
            .any(|(record, _)| record.outcome != ow_faultinject::Outcome::NoCrash),
        "no experiment crashed"
    );
}
