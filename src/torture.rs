//! Shared plumbing for the crash-torture harness.
//!
//! The torture harness runs the *same* campaign three ways:
//!
//! * **baseline** — one uninterrupted run, producing the reference
//!   [`campaign::CampaignReport::canonical_json`] bytes;
//! * **child** — one run with a fault schedule installed from
//!   [`faults::SCHEDULE_ENV`], which may kill the process mid-write;
//! * **supervised** — a [`campaign::supervise`] loop re-executing the
//!   child with a fresh schedule per attempt until it survives.
//!
//! Everything that defines the campaign (workload set, seeds, budgets,
//! file layout) lives here so the `campaign-torture` binary and the
//! `crash_torture` integration test cannot drift apart: byte-identity of
//! the final reports is only meaningful if both sides ran the same
//! campaign.

use campaign::{Campaign, CampaignJob, CampaignOptions};
use racefuzzer::{FuzzConfig, ParallelOptions};
use std::path::{Path, PathBuf};

/// Trials per predicted pair. Small so a full torture sweep stays fast.
pub const TRIALS_PER_PAIR: usize = 3;

/// Per-trial step budget. Three of the four workloads finish well under
/// this; `buster` never does, so each of its trials fails with a
/// `StepBudget` failure, gets retried, writes failure artifacts, and ends
/// quarantined — exercising the artifact durability sites on every run.
pub const MAX_STEPS: u64 = 220;

/// Every durable-write fault site the campaign driver owns. Kill sweeps
/// schedule aborts across all of these.
pub const DURABLE_SITES: [&str; 6] = [
    "campaign.checkpoint.write",
    "campaign.checkpoint.sync",
    "campaign.checkpoint.rename",
    "campaign.artifact.write",
    "campaign.artifact.sync",
    "campaign.artifact.rename",
];

/// The four torture workloads: distinct shapes of Phase-2 behaviour so a
/// mid-run kill can land between any two kinds of durable write.
///
/// * `handshake` — one spawned writer, two racy globals (clean pairs);
/// * `guarded` — a lock-protected counter plus one unprotected flag
///   (prediction must keep one pair and the campaign fuzzes it);
/// * `fanout` — two writer threads, two independent races;
/// * `buster` — a loop that always exceeds [`MAX_STEPS`], so every trial
///   fails, retries, persists artifacts, and quarantines.
pub fn workloads() -> Vec<(&'static str, &'static str)> {
    vec![
        (
            "handshake",
            r#"
            global x = 0;
            global y = 0;
            proc writer() { x = 1; y = 2; }
            proc main() {
                var t = spawn writer();
                var a = x;
                var b = y;
                join t;
            }
            "#,
        ),
        (
            "guarded",
            r#"
            class Lock { }
            global l;
            global c = 0;
            global d = 0;
            proc worker() {
                sync (l) { c = c + 1; }
                d = 1;
            }
            proc main() {
                l = new Lock;
                var t = spawn worker();
                sync (l) { c = c + 2; }
                var v = d;
                join t;
            }
            "#,
        ),
        (
            "fanout",
            r#"
            global a = 0;
            global b = 0;
            proc left() { a = 1; }
            proc right() { b = 1; }
            proc main() {
                var t1 = spawn left();
                var t2 = spawn right();
                var u = a;
                var v = b;
                join t1;
                join t2;
            }
            "#,
        ),
        (
            "buster",
            r#"
            global g = 0;
            proc adder() {
                var i = 0;
                while (i < 40) { g = g + 1; i = i + 1; }
            }
            proc main() {
                var t = spawn adder();
                var j = 0;
                while (j < 40) { g = g + 1; j = j + 1; }
                join t;
            }
            "#,
        ),
    ]
}

/// Compiles the torture workloads into campaign jobs.
pub fn jobs() -> Vec<CampaignJob> {
    workloads()
        .into_iter()
        .map(|(name, source)| {
            let program = cil::compile(source)
                .unwrap_or_else(|error| panic!("torture workload '{name}': {error}"));
            CampaignJob::new(name, program, "main")
        })
        .collect()
}

/// The checkpoint file inside a torture state directory.
pub fn checkpoint_path(dir: &Path) -> PathBuf {
    dir.join("checkpoint.json")
}

/// The crash-ledger file inside a torture state directory.
pub fn ledger_path(dir: &Path) -> PathBuf {
    dir.join("ledger.json")
}

/// The failure-artifact directory inside a torture state directory.
pub fn artifact_dir(dir: &Path) -> PathBuf {
    dir.join("artifacts")
}

/// Campaign options rooted at `dir`. Deterministic by construction: fixed
/// seeds, no wall-clock deadline, and a step-budget ceiling equal to the
/// initial budget so retries never change behaviour between runs.
pub fn options(dir: &Path, workers: usize) -> CampaignOptions {
    CampaignOptions {
        trials_per_pair: TRIALS_PER_PAIR,
        base_seed: 7,
        fuzz: FuzzConfig {
            max_steps: MAX_STEPS,
            ..FuzzConfig::default()
        },
        max_attempts: 2,
        backoff_factor: 2,
        max_step_budget: MAX_STEPS,
        artifact_dir: Some(artifact_dir(dir)),
        checkpoint_path: Some(checkpoint_path(dir)),
        crash_ledger_path: Some(ledger_path(dir)),
        parallel: ParallelOptions::with_workers(workers),
        ..CampaignOptions::default()
    }
}

/// Builds the torture campaign rooted at `dir`, creating its artifact
/// directory so the first durable write cannot fail on a missing parent.
pub fn build(dir: &Path, workers: usize) -> Campaign {
    std::fs::create_dir_all(artifact_dir(dir)).expect("create torture state dir");
    Campaign::new(jobs(), options(dir, workers))
}
