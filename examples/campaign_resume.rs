//! Fault-tolerant campaigns: interrupt a run mid-flight, resume it from
//! its checkpoint, and replay a failure artifact — all on the paper's
//! Figure 1 workload.
//!
//! Run with: `cargo run --example campaign_resume`

use racefuzzer_suite::prelude::*;

fn main() {
    let workdir = std::env::temp_dir().join(format!("campaign-demo-{}", std::process::id()));
    std::fs::create_dir_all(&workdir).expect("temp dir is writable");
    let checkpoint = workdir.join("checkpoint.json");
    let artifacts = workdir.join("artifacts");

    let jobs = || {
        vec![
            CampaignJob::new("figure1", racefuzzer_suite::workloads::figure1(), "main"),
            CampaignJob::new("figure2", racefuzzer_suite::workloads::figure2(3), "main"),
        ]
    };
    let options = CampaignOptions {
        trials_per_pair: 25,
        checkpoint_path: Some(checkpoint.clone()),
        ..CampaignOptions::default()
    };

    // --- 1. Start the campaign, but stop after one pair, as if the
    // process had been killed mid-run. Everything completed so far is in
    // the checkpoint file.
    let first = Campaign::new(
        jobs(),
        CampaignOptions {
            stop_after_pairs: Some(1),
            ..options.clone()
        },
    )
    .run()
    .expect("campaign I/O works");
    assert!(first.interrupted);
    let done_pairs: usize = first.jobs.iter().map(|job| job.reports.len()).sum();
    println!(
        "interrupted after {done_pairs} pair(s); checkpoint at {}",
        checkpoint.display()
    );

    // --- 2. A fresh Campaign value (fresh process, as far as the driver
    // can tell) resumes from the checkpoint and finishes the rest.
    let resumed = Campaign::new(jobs(), options)
        .run()
        .expect("campaign I/O works");
    assert!(resumed.resumed, "progress was restored from disk");
    assert!(resumed.completed());
    for job in &resumed.jobs {
        println!(
            "{}: {} predicted pair(s), {} real, {} quarantined",
            job.name,
            job.potential.len(),
            job.real_races().len(),
            job.quarantined.len(),
        );
    }

    // --- 3. Failure artifacts. Give Figure 1 an impossible step budget so
    // every trial fails, is retried on a doubled budget, and is finally
    // quarantined — leaving a JSON repro artifact per failing seed.
    let starved = Campaign::new(
        vec![CampaignJob::new(
            "figure1",
            racefuzzer_suite::workloads::figure1(),
            "main",
        )],
        CampaignOptions {
            trials_per_pair: 5,
            fuzz: racefuzzer::FuzzConfig {
                max_steps: 4, // Figure 1 needs far more than 4 statements
                ..racefuzzer::FuzzConfig::default()
            },
            max_attempts: 2,
            max_step_budget: 8,
            artifact_dir: Some(artifacts.clone()),
            ..CampaignOptions::default()
        },
    );
    let report = starved.run().expect("campaign I/O works");
    assert!(report.completed());
    let quarantined = report.quarantine_count();
    println!(
        "\nstarved campaign: {} pair(s) quarantined, {} failure(s) recorded",
        quarantined,
        report.failure_count()
    );

    // Load one artifact back and replay it deterministically: the replay
    // reproduces the exact recorded failure (here: step-budget exhaustion).
    let artifact_path = std::fs::read_dir(&artifacts)
        .expect("artifact dir exists")
        .next()
        .expect("at least one artifact")
        .expect("dir entry readable")
        .path();
    let artifact = FailureArtifact::load(&artifact_path).expect("artifact parses");
    println!(
        "replaying artifact {} (pair ({}, {}), seed {}, kind {})",
        artifact_path.file_name().unwrap().to_string_lossy(),
        artifact.pair.first(),
        artifact.pair.second(),
        artifact.seed,
        artifact.kind,
    );
    let reproduction = starved
        .reproduce(&artifact)
        .expect("digest matches: same program");
    assert!(
        reproduction.matches(&artifact),
        "the failure replays identically"
    );
    println!(
        "reproduced: {}",
        reproduction.kind.expect("failure reproduced")
    );

    std::fs::remove_dir_all(&workdir).ok();
}
