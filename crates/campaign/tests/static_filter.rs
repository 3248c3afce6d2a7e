//! Integration tests for the campaign's static pre-analysis modes: pruned
//! pairs are quarantined with a structured reason (and survive
//! checkpoint/resume), audit mode cross-checks confirmed races, and the
//! filter never changes which races a campaign confirms. One case mixes
//! pruning with crash-ledger skips and repeated stops, and checks that one
//! worker and four commit the same checkpoint bytes.

use campaign::journal::journal_path;
use campaign::{
    Campaign, CampaignJob, CampaignOptions, CrashLedger, QuarantineReason, StaticFilterMode,
};
use detector::{Policy, PredictConfig};
use racefuzzer::{FuzzConfig, ParallelOptions};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// A program with one real race (`@racy` vs the unsynchronized main-thread
/// write) and fork/join-ordered accesses that the Eraser-style lockset
/// policy flags anyway — static MHP refutes those false alarms.
fn mixed_program() -> cil::Program {
    cil::compile(
        r#"
        global x = 0;
        global y = 0;
        proc child() {
            x = x + 1;
            y = y + 1;
        }
        proc main() {
            y = 1;
            var t = spawn child();
            x = 2;
            join t;
            y = 3;
        }
        "#,
    )
    .unwrap()
}

fn lockset_options() -> CampaignOptions {
    CampaignOptions {
        trials_per_pair: 10,
        predict: PredictConfig {
            policy: Policy::Lockset,
            ..PredictConfig::default()
        },
        fuzz: FuzzConfig {
            postpone_limit: 200,
            max_steps: 200_000,
            ..FuzzConfig::default()
        },
        ..CampaignOptions::default()
    }
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("campaign-static-filter-tests");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

#[test]
fn prune_mode_quarantines_refuted_pairs_without_losing_races() {
    let program = mixed_program();
    let job = || vec![CampaignJob::new("mixed", program.clone(), "main")];

    let baseline = Campaign::new(job(), lockset_options()).run().unwrap();
    let pruned = Campaign::new(
        job(),
        CampaignOptions {
            static_filter: StaticFilterMode::Prune,
            ..lockset_options()
        },
    )
    .run()
    .unwrap();
    assert!(baseline.completed() && pruned.completed());

    // The lockset policy predicts fork/join-ordered `y` pairs that cannot
    // actually run in parallel; the filter removes at least one of them.
    let stats = pruned.jobs[0].statically_pruned();
    assert!(
        !stats.is_empty(),
        "expected static pruning on lockset-predicted pairs, got none \
         (potential: {:?})",
        pruned.jobs[0].potential
    );
    for entry in &pruned.jobs[0].quarantined {
        assert!(matches!(
            entry.reason,
            QuarantineReason::StaticallyPruned(_)
        ));
        assert_eq!(entry.attempts, 0);
    }

    // Zero confirmed-race regressions: every race the unfiltered campaign
    // confirms is still confirmed with pruning on.
    let baseline_real: BTreeSet<_> = baseline.jobs[0].real_races().into_iter().collect();
    let pruned_real: BTreeSet<_> = pruned.jobs[0].real_races().into_iter().collect();
    assert_eq!(baseline_real, pruned_real);
    assert!(!pruned_real.is_empty(), "the mixed program has a real race");

    // Reports stay parallel to `potential` (pruned pairs keep empty slots).
    assert_eq!(pruned.jobs[0].reports.len(), pruned.jobs[0].potential.len());
}

#[test]
fn audit_mode_fuzzes_everything_and_reports_no_soundness_bugs() {
    let report = Campaign::new(
        vec![CampaignJob::new("mixed", mixed_program(), "main")],
        CampaignOptions {
            static_filter: StaticFilterMode::Audit,
            ..lockset_options()
        },
    )
    .run()
    .unwrap();
    assert!(report.completed());
    // Audit mode runs trials for every pair…
    assert!(report.jobs[0]
        .reports
        .iter()
        .all(|pair_report| pair_report.trials > 0));
    assert!(report.jobs[0].quarantined.is_empty());
    // …and a sound filter never refutes a confirmed race.
    assert_eq!(report.jobs[0].soundness_bugs, Vec::<String>::new());
}

#[test]
fn pruned_quarantines_survive_checkpoint_resume() {
    let path = temp_path("prune-resume.json");
    std::fs::remove_file(&path).ok();
    let options = |stop| CampaignOptions {
        static_filter: StaticFilterMode::Prune,
        checkpoint_path: Some(path.clone()),
        stop_after_pairs: stop,
        ..lockset_options()
    };
    let job = || vec![CampaignJob::new("mixed", mixed_program(), "main")];

    let first = Campaign::new(job(), options(Some(1))).run().unwrap();
    assert!(first.interrupted);
    let resumed = Campaign::new(job(), options(None)).run().unwrap();
    assert!(resumed.completed() && resumed.resumed);

    let uninterrupted = Campaign::new(job(), {
        let mut fresh = options(None);
        fresh.checkpoint_path = None;
        fresh
    })
    .run()
    .unwrap();
    assert_eq!(
        format!("{:?}", resumed.jobs[0].quarantined),
        format!("{:?}", uninterrupted.jobs[0].quarantined)
    );
    assert_eq!(
        format!("{:?}", resumed.jobs[0].reports),
        format!("{:?}", uninterrupted.jobs[0].reports)
    );
    std::fs::remove_file(&path).ok();
}

/// `mixed_program` with a second really racy global, so that several
/// pairs survive the filter and get fuzzed one invocation at a time.
fn two_race_program() -> cil::Program {
    cil::compile(
        r#"
        global x = 0;
        global y = 0;
        global z = 0;
        proc child() {
            x = x + 1;
            y = y + 1;
            z = z + 1;
        }
        proc main() {
            y = 1;
            var t = spawn child();
            x = 2;
            z = 3;
            join t;
            y = 3;
        }
        "#,
    )
    .unwrap()
}

#[test]
fn crash_ledger_prune_and_stops_commit_the_same_bytes_at_any_worker_count() {
    let job = || vec![CampaignJob::new("two-race", two_race_program(), "main")];
    let mut runs = Vec::new();
    for workers in [1, 4] {
        let checkpoint = temp_path(&format!("merged-loop-w{workers}.json"));
        let journal = journal_path(&checkpoint);
        let ledger_path = temp_path(&format!("merged-loop-w{workers}.ledger"));
        std::fs::remove_file(&checkpoint).ok();
        std::fs::remove_file(&journal).ok();
        // The supervisor saw pair 0 kill the process twice.
        let mut ledger = CrashLedger::empty();
        ledger.note("two-race", 0, 2);
        ledger.save(&ledger_path).unwrap();
        let options = CampaignOptions {
            static_filter: StaticFilterMode::Prune,
            checkpoint_path: Some(checkpoint.clone()),
            crash_ledger_path: Some(ledger_path.clone()),
            stop_after_pairs: Some(1),
            parallel: ParallelOptions::with_workers(workers),
            ..lockset_options()
        };
        // Resume one fuzzed pair at a time until the campaign completes,
        // keeping the checkpoint and journal bytes after every stop.
        let mut stops = Vec::new();
        let last = loop {
            let report = Campaign::new(job(), options.clone()).run().unwrap();
            stops.push((
                std::fs::read(&checkpoint).unwrap(),
                std::fs::read(&journal).unwrap(),
            ));
            if report.completed() {
                break report;
            }
            assert!(report.interrupted, "workers={workers}");
            assert!(
                stops.len() < 64,
                "workers={workers}: the campaign never completes"
            );
        };
        let quarantined = &last.jobs[0].quarantined;
        assert!(
            matches!(quarantined[0].reason, QuarantineReason::CrashLoop(2)),
            "workers={workers}: {quarantined:?}"
        );
        assert!(
            quarantined
                .iter()
                .any(|entry| matches!(entry.reason, QuarantineReason::StaticallyPruned(_))),
            "workers={workers}: {quarantined:?}"
        );
        assert!(!last.jobs[0].real_races().is_empty(), "workers={workers}");
        assert!(
            stops.len() > 2,
            "workers={workers}: {} stop(s)",
            stops.len()
        );
        runs.push((stops, last.canonical_json()));
        for path in [&checkpoint, &journal, &ledger_path] {
            std::fs::remove_file(path).ok();
        }
    }
    assert!(
        runs[0].0 == runs[1].0,
        "checkpoint bytes differ between 1 and 4 workers"
    );
    assert_eq!(runs[0].1, runs[1].1);
}
