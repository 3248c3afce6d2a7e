//! The checkpoint journal at campaign level: crash images taken between
//! per-pair commits, damaged the ways a crash or a disk can damage them,
//! must resume to the report an uninterrupted run produces.
//!
//! A crash image is a copy of the checkpoint base and journal taken while
//! a trial runs, so it holds exactly what the commits before that trial
//! made durable — what a `kill -9` at that instant would leave behind.

use campaign::journal::journal_path;
use campaign::{
    Campaign, CampaignJob, CampaignOptions, Checkpoint, FuzzRunner, RecoveryAction, TrialRunner,
};
use detector::RacePair;
use interp::SetupError;
use racefuzzer::{FuzzConfig, FuzzOutcome, ParallelOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

const TRIALS: usize = 3;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaign-journal-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn jobs() -> Vec<CampaignJob> {
    let hash_set = workloads::hash_set();
    vec![
        CampaignJob::new("figure1", workloads::figure1(), "main"),
        CampaignJob::new("figure2", workloads::figure2(3), "main"),
        CampaignJob::new(hash_set.name, hash_set.program, hash_set.entry),
    ]
}

fn options(checkpoint: Option<PathBuf>) -> CampaignOptions {
    CampaignOptions {
        trials_per_pair: TRIALS,
        checkpoint_path: checkpoint,
        ..CampaignOptions::default()
    }
}

fn reference() -> String {
    Campaign::new(jobs(), options(None))
        .run()
        .unwrap()
        .canonical_json()
}

/// The production runner, copying the checkpoint files to
/// `<images>/<pair>/` at the first trial of every pair.
struct CrashImages {
    state: PathBuf,
    images: PathBuf,
    calls: AtomicUsize,
}

impl TrialRunner for CrashImages {
    fn run_trial(
        &self,
        program: &cil::Program,
        entry: &str,
        pair: RacePair,
        config: &FuzzConfig,
    ) -> Result<FuzzOutcome, SetupError> {
        let call = self.calls.fetch_add(1, Ordering::Relaxed);
        if call.is_multiple_of(TRIALS) {
            let image = self.images.join(format!("{:03}", call / TRIALS));
            std::fs::create_dir_all(&image).unwrap();
            for name in ["checkpoint.json", "checkpoint.json.journal"] {
                let from = self.state.join(name);
                if from.exists() {
                    std::fs::copy(&from, image.join(name)).unwrap();
                }
            }
        }
        FuzzRunner.run_trial(program, entry, pair, config)
    }
}

/// Runs the campaign once with a checkpoint under `dir`, imaging the
/// checkpoint files before every pair. Returns the image directories.
fn crash_images(dir: &Path) -> Vec<PathBuf> {
    let state = dir.join("state");
    let images = dir.join("images");
    std::fs::create_dir_all(&state).unwrap();
    let runner = CrashImages {
        state: state.clone(),
        images: images.clone(),
        calls: AtomicUsize::new(0),
    };
    let report = Campaign::new(jobs(), options(Some(state.join("checkpoint.json"))))
        .run_with(&runner)
        .unwrap();
    assert!(report.completed());
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&images)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    dirs.sort();
    dirs
}

fn records(image: &Path) -> usize {
    std::fs::read_to_string(journal_path(&image.join("checkpoint.json")))
        .map(|text| text.lines().count().saturating_sub(1))
        .unwrap_or(0)
}

/// The first crash image whose journal holds at least `at_least` records,
/// copied to a fresh state directory; returns its checkpoint path.
fn restore(images: &[PathBuf], at_least: usize, into: &Path) -> PathBuf {
    let image = images
        .iter()
        .find(|image| records(image) >= at_least)
        .unwrap_or_else(|| panic!("no crash image with {at_least} journal records"));
    std::fs::create_dir_all(into).unwrap();
    for name in ["checkpoint.json", "checkpoint.json.journal"] {
        std::fs::copy(image.join(name), into.join(name)).unwrap();
    }
    into.join("checkpoint.json")
}

fn committed_pairs(checkpoint: &Checkpoint) -> usize {
    checkpoint.jobs.iter().map(|job| job.reports.len()).sum()
}

fn journal_sidelined(report: &campaign::CampaignReport, checkpoint: &Path) -> bool {
    report.recovery.iter().any(|event| {
        event.action == RecoveryAction::SidelinedCorrupt && event.path == journal_path(checkpoint)
    })
}

#[test]
fn journal_recovery_resumes_to_the_uninterrupted_report() {
    let expected = reference();
    let dir = temp_dir("recovery");
    let images = crash_images(&dir);

    // (a) A torn final record: the valid prefix is applied, the journal is
    // sidelined, and the resumed report is the uninterrupted one.
    let path = restore(&images, 3, &dir.join("torn"));
    let journal = journal_path(&path);
    let text = std::fs::read_to_string(&journal).unwrap();
    let last = text[..text.len() - 1].rfind('\n').unwrap() + 1;
    std::fs::write(&journal, &text[..last]).unwrap();
    let before_last = Checkpoint::load(&path).unwrap();
    std::fs::write(&journal, &text[..text.len() - 20]).unwrap();
    assert_eq!(
        format!("{:?}", Checkpoint::load(&path).unwrap().jobs),
        format!("{:?}", before_last.jobs),
        "only the torn record is lost"
    );
    let resumed = Campaign::new(jobs(), options(Some(path.clone())))
        .run()
        .unwrap();
    assert!(resumed.resumed && resumed.completed());
    assert!(journal_sidelined(&resumed, &path), "{:?}", resumed.recovery);
    assert_eq!(resumed.canonical_json(), expected);

    // (b) A stale journal — a crash after a compaction renamed its base
    // into place but before the journal reset — is ignored: no record is
    // applied twice, and nothing is sidelined.
    let path = restore(&images, 3, &dir.join("stale"));
    let state = Checkpoint::load(&path).unwrap();
    let pairs = committed_pairs(&state);
    state.save(&path).unwrap(); // the compaction's new base
    let reloaded = Checkpoint::load(&path).unwrap();
    assert_eq!(committed_pairs(&reloaded), pairs, "journal not re-applied");
    assert_eq!(format!("{:?}", reloaded.jobs), format!("{:?}", state.jobs));
    let resumed = Campaign::new(jobs(), options(Some(path.clone())))
        .run()
        .unwrap();
    assert!(resumed.resumed && resumed.completed());
    assert!(resumed.recovery.is_empty(), "{:?}", resumed.recovery);
    assert_eq!(resumed.canonical_json(), expected);

    // (c) A bad record in the middle: the records after it are never
    // applied, even though their own frames are intact.
    let path = restore(&images, 3, &dir.join("middle"));
    let journal = journal_path(&path);
    let text = std::fs::read_to_string(&journal).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
    std::fs::write(&journal, format!("{}\n{}\n", lines[0], lines[1])).unwrap();
    let first_record_only = Checkpoint::load(&path).unwrap();
    lines[2] = lines[2].replacen("\"trials\":", "\"trials\": ", 1);
    std::fs::write(&journal, lines.join("\n") + "\n").unwrap();
    let loaded = Checkpoint::load(&path).unwrap();
    assert_eq!(
        format!("{:?}", loaded.jobs),
        format!("{:?}", first_record_only.jobs),
        "records after the bad one must not apply"
    );
    let resumed = Campaign::new(jobs(), options(Some(path.clone())))
        .run()
        .unwrap();
    assert!(journal_sidelined(&resumed, &path), "{:?}", resumed.recovery);
    assert_eq!(resumed.canonical_json(), expected);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_crash_image_resumes_to_the_uninterrupted_report() {
    let expected = reference();
    let dir = temp_dir("images");
    let images = crash_images(&dir);
    assert!(
        images.len() >= 6,
        "need several pairs, got {}",
        images.len()
    );
    assert!(
        images.iter().any(|image| records(image) >= 3),
        "some image must catch a journal with several records"
    );
    for (index, image) in images.iter().enumerate() {
        let path = restore(
            std::slice::from_ref(image),
            0,
            &dir.join(format!("r{index}")),
        );
        let resumed = Campaign::new(jobs(), options(Some(path))).run().unwrap();
        assert!(resumed.completed());
        assert_eq!(
            resumed.canonical_json(),
            expected,
            "image {}",
            image.display()
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn final_base_is_the_full_rewrite_and_parallel_matches_sequential() {
    let dir = temp_dir("final");
    let mut written = Vec::new();
    for (name, workers) in [("sequential", 1), ("parallel", 4)] {
        let path = dir.join(name).join("checkpoint.json");
        // Interrupt once, then resume: both runs end in a compaction.
        for stop in [Some(4), None] {
            let report = Campaign::new(
                jobs(),
                CampaignOptions {
                    stop_after_pairs: stop,
                    parallel: ParallelOptions::with_workers(workers),
                    ..options(Some(path.clone()))
                },
            )
            .run()
            .unwrap();
            // The base is what one full rewrite of the final state writes.
            let probe = dir.join(format!("{name}-probe.json"));
            Checkpoint {
                header: campaign::CheckpointHeader {
                    trials_per_pair: TRIALS,
                    base_seed: 1,
                },
                jobs: report.jobs.clone(),
            }
            .save(&probe)
            .unwrap();
            assert_eq!(
                std::fs::read(&path).unwrap(),
                std::fs::read(&probe).unwrap()
            );
            // And the journal beside it is a bare header bound to it.
            let header = std::fs::read_to_string(journal_path(&path)).unwrap();
            let crc = campaign::durable::crc32(&std::fs::read(&path).unwrap());
            assert_eq!(header, format!("campaign-journal base-crc32={crc:08x}\n"));
        }
        written.push((
            std::fs::read(&path).unwrap(),
            std::fs::read(journal_path(&path)).unwrap(),
        ));
    }
    assert_eq!(written[0], written[1], "parallel checkpoint files differ");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn v2_checkpoint_without_a_journal_still_resumes() {
    let dir = temp_dir("v2");
    let checkpoint = dir.join("checkpoint.json");
    std::fs::copy(
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/checkpoint_v2.json"
        ),
        &checkpoint,
    )
    .unwrap();
    assert!(!journal_path(&checkpoint).exists());
    let program = cil::compile(
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
    .unwrap();
    let options = CampaignOptions {
        trials_per_pair: 4,
        base_seed: 1,
        checkpoint_path: Some(checkpoint.clone()),
        ..CampaignOptions::default()
    };
    let job = || vec![CampaignJob::new("migrate", program.clone(), "main")];
    let resumed = Campaign::new(job(), options.clone()).run().unwrap();
    assert!(resumed.resumed && resumed.completed());
    assert!(resumed.recovery.is_empty(), "{:?}", resumed.recovery);
    let fresh = Campaign::new(
        job(),
        CampaignOptions {
            checkpoint_path: None,
            ..options
        },
    )
    .run()
    .unwrap();
    assert_eq!(resumed.canonical_json(), fresh.canonical_json());
    // The resume compacted into a v3 base with a journal bound to it.
    let base = std::fs::read(&checkpoint).unwrap();
    assert!(String::from_utf8_lossy(&base).contains("\"format_version\": 3"));
    let header = std::fs::read_to_string(journal_path(&checkpoint)).unwrap();
    assert_eq!(
        header,
        format!(
            "campaign-journal base-crc32={:08x}\n",
            campaign::durable::crc32(&base)
        )
    );
    std::fs::remove_dir_all(&dir).ok();
}
