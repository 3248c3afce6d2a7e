//! Crash-safety satellites: corrupt-artifact handling, v2 → v3 checkpoint
//! migration, artifacts from builds with a selectable trial engine, and the
//! heap-cell budget as a reported verdict.

use campaign::{
    durable, ArtifactError, Campaign, CampaignJob, CampaignOptions, FailureArtifact, FailureKind,
    QuarantineReason,
};
use racefuzzer::FuzzConfig;
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crash-safety-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The program the `checkpoint_v2.json` fixture was recorded on (digest
/// `94f8464ec7dd588d`) — byte-for-byte the fixture generator's source.
fn migration_program() -> cil::Program {
    cil::compile(
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
    )
    .unwrap()
}

/// A racy spin loop that can never finish inside its step budget, so every
/// trial fails and the campaign persists failure artifacts.
fn budget_buster() -> cil::Program {
    cil::compile(
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
    )
    .unwrap()
}

fn artifact_paths(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    paths.sort();
    paths
}

#[test]
fn flipped_artifact_byte_is_refused_not_replayed() {
    let dir = temp_dir("flip");
    let options = CampaignOptions {
        trials_per_pair: 2,
        fuzz: FuzzConfig {
            max_steps: 220,
            ..FuzzConfig::default()
        },
        max_attempts: 2,
        max_step_budget: 220, // budget can never grow: every trial fails
        artifact_dir: Some(dir.clone()),
        ..CampaignOptions::default()
    };
    let campaign = Campaign::new(
        vec![CampaignJob::new("buster", budget_buster(), "main")],
        options,
    );
    let report = campaign.run().unwrap();
    assert!(report.quarantine_count() > 0, "buster pairs quarantine");
    let paths = artifact_paths(&dir);
    assert!(paths.len() >= 2, "expected several artifacts, got {paths:?}");

    // Flip one byte in the middle of the first artifact.
    let victim = &paths[0];
    let mut bytes = std::fs::read(victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x20;
    std::fs::write(victim, &bytes).unwrap();

    // Loading it directly reports corruption instead of trusting it.
    let error = FailureArtifact::load(victim).unwrap_err();
    assert!(
        matches!(error, ArtifactError::Malformed(_)),
        "CRC catches the flip: {error}"
    );

    // The campaign-level sweep skips it with a structured reason and
    // still replays the intact artifacts.
    let sweep = campaign.reproduce_dir(&dir).unwrap();
    assert_eq!(sweep.skipped.len(), 1);
    let (skipped_path, reason) = &sweep.skipped[0];
    assert_eq!(skipped_path, victim);
    assert!(
        matches!(reason, QuarantineReason::CorruptArtifact(_)),
        "structured reason, got {reason:?}"
    );
    assert_eq!(sweep.reproduced.len(), paths.len() - 1);
    for (_, reproduction) in &sweep.reproduced {
        assert_eq!(reproduction.kind, Some(FailureKind::StepBudget));
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn artifact_from_a_different_program_is_a_digest_mismatch() {
    let dir = temp_dir("digest");
    let options = CampaignOptions {
        trials_per_pair: 1,
        fuzz: FuzzConfig {
            max_steps: 220,
            ..FuzzConfig::default()
        },
        max_attempts: 2,
        max_step_budget: 220,
        artifact_dir: Some(dir.clone()),
        ..CampaignOptions::default()
    };
    let recorded = Campaign::new(
        vec![CampaignJob::new("job", budget_buster(), "main")],
        options.clone(),
    );
    recorded.run().unwrap();
    let paths = artifact_paths(&dir);
    assert!(!paths.is_empty());
    let artifact = FailureArtifact::load(&paths[0]).unwrap();

    // Same job name, different program: replay must refuse, not run.
    let imposter = Campaign::new(
        vec![CampaignJob::new("job", migration_program(), "main")],
        options,
    );
    let error = imposter.reproduce(&artifact).unwrap_err();
    assert!(
        matches!(error, ArtifactError::DigestMismatch { .. }),
        "got {error}"
    );
    // And the directory sweep records it as a skip, not a crash.
    let sweep = imposter.reproduce_dir(&dir).unwrap();
    assert!(sweep.reproduced.is_empty());
    assert_eq!(sweep.skipped.len(), paths.len());
    for (_, reason) in &sweep.skipped {
        let QuarantineReason::CorruptArtifact(detail) = reason else {
            panic!("expected CorruptArtifact, got {reason:?}");
        };
        assert!(
            detail.contains("recorded on program"),
            "reason names the mismatched digests: {detail}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v2_checkpoint_resumes_under_format_version_3() {
    let dir = temp_dir("migrate");
    let checkpoint = dir.join("checkpoint.json");
    std::fs::copy(
        concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/checkpoint_v2.json"),
        &checkpoint,
    )
    .unwrap();

    // Options must match what the fixture was recorded with.
    let options = CampaignOptions {
        trials_per_pair: 4,
        base_seed: 1,
        checkpoint_path: Some(checkpoint.clone()),
        ..CampaignOptions::default()
    };
    let job = || vec![CampaignJob::new("migrate", migration_program(), "main")];
    let resumed = Campaign::new(job(), options.clone()).run().unwrap();
    assert!(resumed.resumed, "the v2 checkpoint must be adopted");
    assert!(resumed.completed());

    // Same final report as a run that never saw the old checkpoint.
    let fresh_options = CampaignOptions {
        checkpoint_path: None,
        ..options
    };
    let fresh = Campaign::new(job(), fresh_options).run().unwrap();
    assert_eq!(
        resumed.canonical_json(),
        fresh.canonical_json(),
        "migrated resume must reproduce the uninterrupted report"
    );

    // The checkpoint was rewritten in the current sealed format.
    let text = std::fs::read_to_string(&checkpoint).unwrap();
    assert!(text.contains("\"format_version\": 3"));
    assert!(text.contains("#crc32="), "v3 checkpoints carry a CRC footer");
    std::fs::remove_dir_all(&dir).ok();
}

/// A v3 artifact as builds with a selectable trial engine wrote it: a
/// step-budget failure of [`budget_buster`] recorded under the tree-walk
/// engine, so it carries `"engine": "tree_walk"`.
const TREE_WALK_ARTIFACT: &str = include_str!("fixtures/artifact_v3_tree_walk.json");

#[test]
fn artifacts_with_an_engine_key_load_replay_and_drop_it() {
    let dir = temp_dir("engine-key");
    let campaign = Campaign::new(
        vec![CampaignJob::new("buster", budget_buster(), "main")],
        CampaignOptions::default(),
    );
    let body = durable::unseal(TREE_WALK_ARTIFACT).unwrap().body();
    assert!(body.contains("\"engine\": \"tree_walk\""));
    let unknown_tag = durable::seal(&body.replace("\"tree_walk\"", "\"jit\""));
    for (name, text) in [
        ("tree_walk.json", TREE_WALK_ARTIFACT),
        ("unknown_tag.json", unknown_tag.as_str()),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let artifact = FailureArtifact::load(&path).unwrap();
        assert_eq!(artifact.kind, FailureKind::StepBudget, "{name}");
        let reproduction = campaign.reproduce(&artifact).unwrap();
        assert!(
            reproduction.matches(&artifact),
            "{name}: replays its step-budget failure"
        );

        // Re-saving writes the current format, which has no engine key.
        artifact.save(&path).unwrap();
        let resaved = std::fs::read_to_string(&path).unwrap();
        assert!(!resaved.contains("\"engine\""), "{name}: {resaved}");
        assert_eq!(FailureArtifact::load(&path).unwrap(), artifact, "{name}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn heap_budget_is_a_reported_verdict_not_a_quarantine() {
    let program = cil::compile(
        r#"
        class Node { }
        global flag = 0;
        global sink;
        proc hog() {
            var i = 0;
            while (i < 60) { sink = new Node; i = i + 1; }
            flag = 1;
        }
        proc main() {
            var t = spawn hog();
            var v = flag;
            join t;
        }
        "#,
    )
    .unwrap();
    let options = CampaignOptions {
        trials_per_pair: 3,
        fuzz: FuzzConfig {
            max_heap_cells: Some(16),
            ..FuzzConfig::default()
        },
        ..CampaignOptions::default()
    };
    let report = Campaign::new(vec![CampaignJob::new("hog", program, "main")], options)
        .run()
        .unwrap();
    assert!(report.completed());
    let job = &report.jobs[0];
    assert!(!job.potential.is_empty(), "phase 1 predicts the flag race");
    // The budget verdict is counted per pair, never retried or quarantined.
    assert!(job.quarantined.is_empty(), "got {:?}", job.quarantined);
    assert_eq!(report.failure_count(), 0);
    assert!(
        job.reports.iter().any(|r| r.memory_trials > 0),
        "some trials must end on the heap budget: {:?}",
        job.reports
    );
    for pair_report in &job.reports {
        assert_eq!(pair_report.trials, 3, "every trial still counted");
    }
}
