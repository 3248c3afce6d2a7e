//! Integration tests for the fault-tolerant campaign driver: budgets with
//! retry/quarantine, panic isolation with replayable artifacts, and
//! checkpoint/resume identity.

use campaign::{
    program_digest, ArtifactError, Campaign, CampaignJob, CampaignOptions, FailureArtifact,
    FailureKind, FuzzRunner, TrialRunner,
};
use detector::RacePair;
use interp::SetupError;
use racefuzzer::{FuzzConfig, FuzzOutcome};
use std::path::PathBuf;

/// A racy program whose executions need a few hundred steps: the spin loop
/// makes tiny step budgets fail while realistic ones succeed.
fn slow_racy_program() -> cil::Program {
    cil::compile(
        r#"
        global x = 0;
        global i = 0;
        proc child() { x = 1; }
        proc main() {
            var t = spawn child();
            while (i < 40) { i = i + 1; }
            x = 2;
            join t;
        }
        "#,
    )
    .unwrap()
}

fn figure1_job() -> CampaignJob {
    let workload = workloads::figure1();
    CampaignJob::new("figure1", workload, "main")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("campaign-it-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn budget_exhaustion_retries_with_backoff_until_success() {
    let options = CampaignOptions {
        trials_per_pair: 5,
        fuzz: FuzzConfig {
            max_steps: 16, // far below what the spin loop needs
            ..FuzzConfig::default()
        },
        max_attempts: 6,
        backoff_factor: 4,
        max_step_budget: 1_000_000,
        ..CampaignOptions::default()
    };
    let campaign = Campaign::new(
        vec![CampaignJob::new("slow", slow_racy_program(), "main")],
        options,
    );
    let report = campaign.run().unwrap();
    assert!(report.completed());
    let job = &report.jobs[0];
    assert!(!job.potential.is_empty(), "phase 1 should predict the race");
    // Every trial eventually completed: no quarantine, full trial counts.
    assert!(job.quarantined.is_empty());
    for pair_report in &job.reports {
        assert_eq!(pair_report.trials, 5);
    }
    // But the tiny initial budget did fail and was retried.
    assert!(report.failure_count() > 0);
    assert!(job
        .failures
        .iter()
        .all(|failure| failure.kind == FailureKind::StepBudget));
    // Retries grew the budget.
    assert!(job.failures.iter().any(|failure| failure.attempt > 1));
    let budgets: Vec<u64> = job.failures.iter().map(|f| f.step_budget).collect();
    assert!(budgets.iter().any(|&b| b > 16));
}

#[test]
fn persistent_budget_exhaustion_quarantines_the_pair() {
    let options = CampaignOptions {
        trials_per_pair: 5,
        fuzz: FuzzConfig {
            max_steps: 16,
            ..FuzzConfig::default()
        },
        max_attempts: 3,
        backoff_factor: 2,
        max_step_budget: 16, // the budget can never grow: every retry fails
        ..CampaignOptions::default()
    };
    let campaign = Campaign::new(
        vec![CampaignJob::new("slow", slow_racy_program(), "main")],
        options,
    );
    let report = campaign.run().unwrap();
    assert!(report.completed());
    let job = &report.jobs[0];
    assert_eq!(job.quarantined.len(), job.potential.len());
    let quarantine = &job.quarantined[0];
    assert_eq!(quarantine.attempts, 3);
    assert!(quarantine.reason.to_string().contains("step_budget"));
    assert!(job.is_quarantined(quarantine.pair));
    // The pair's report exists but covers no completed trials.
    assert_eq!(job.reports[0].trials, 0);
    // done flag still set: quarantine is a recorded outcome, not a wedge.
    assert!(job.done);
}

/// A runner that panics on one specific seed; everything else is real.
struct PanicOnSeed {
    seed: u64,
    inner: FuzzRunner,
}

impl TrialRunner for PanicOnSeed {
    fn run_trial(
        &self,
        program: &cil::Program,
        entry: &str,
        pair: RacePair,
        config: &FuzzConfig,
    ) -> Result<FuzzOutcome, SetupError> {
        assert!(
            config.seed != self.seed,
            "injected fault: seed {} is cursed",
            self.seed
        );
        self.inner.run_trial(program, entry, pair, config)
    }
}

#[test]
fn panicking_trial_writes_artifact_and_reproduce_replays_it() {
    let artifact_dir = temp_dir("artifacts");
    let options = CampaignOptions {
        trials_per_pair: 6,
        base_seed: 1,
        max_attempts: 2,
        artifact_dir: Some(artifact_dir.clone()),
        ..CampaignOptions::default()
    };
    let campaign = Campaign::new(vec![figure1_job()], options);
    let runner = PanicOnSeed {
        seed: 4,
        inner: FuzzRunner,
    };
    let report = campaign.run_with(&runner).unwrap();
    assert!(report.completed());
    let job = &report.jobs[0];

    // The cursed seed failed both attempts of the first pair → quarantine…
    assert!(!job.quarantined.is_empty());
    assert!(job.quarantined[0].reason.to_string().contains("panic"));
    assert!(job.quarantined[0].reason.to_string().contains("cursed"));
    // …but trials with other seeds completed first.
    assert_eq!(job.reports[0].trials, 3); // seeds 1..=3 before 4 failed
                                          // Every predicted pair hits the cursed seed: two attempts each.
    assert_eq!(job.quarantined.len(), job.potential.len());
    let panic_failures: Vec<_> = job
        .failures
        .iter()
        .filter(|failure| matches!(failure.kind, FailureKind::Panic(_)))
        .collect();
    assert_eq!(panic_failures.len(), 2 * job.quarantined.len());

    // One artifact exists per failing (pair, seed); load it back.
    let entries: Vec<_> = std::fs::read_dir(&artifact_dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    assert!(!entries.is_empty());
    let artifact = FailureArtifact::load(&entries[0]).unwrap();
    assert_eq!(artifact.seed, 4);
    assert_eq!(artifact.attempt, 2); // the last attempt overwrote the first
    assert!(matches!(&artifact.kind, FailureKind::Panic(message)
        if message.contains("cursed")));

    // Reproduce with the same faulty runner: the identical panic replays.
    let replay_runner = PanicOnSeed {
        seed: 4,
        inner: FuzzRunner,
    };
    let reproduction = campaign.reproduce_with(&replay_runner, &artifact).unwrap();
    assert!(reproduction.matches(&artifact));
    assert_eq!(reproduction.kind, Some(artifact.kind.clone()));

    // Reproduce against the wrong program: rejected by the digest check.
    let other = Campaign::new(
        vec![CampaignJob::new("figure1", slow_racy_program(), "main")],
        CampaignOptions::default(),
    );
    assert!(matches!(
        other.reproduce(&artifact),
        Err(ArtifactError::DigestMismatch { .. })
    ));

    std::fs::remove_dir_all(&artifact_dir).ok();
}

#[test]
fn interrupted_campaign_resumes_to_identical_reports() {
    let dir = temp_dir("resume");
    let checkpoint = dir.join("checkpoint.json");
    let jobs = || {
        vec![
            figure1_job(),
            CampaignJob::new("figure2", workloads::figure2(3), "main"),
        ]
    };
    let base_options = CampaignOptions {
        trials_per_pair: 8,
        ..CampaignOptions::default()
    };

    // Reference: one uninterrupted run, no checkpointing.
    let reference = Campaign::new(jobs(), base_options.clone()).run().unwrap();
    assert!(reference.completed());
    let total_pairs: usize = reference.jobs.iter().map(|job| job.potential.len()).sum();
    assert!(
        total_pairs >= 2,
        "need at least two pairs to interrupt between"
    );

    // Interrupted run: complete one pair per invocation, "killing" the
    // campaign after each — state must survive entirely via the checkpoint.
    let mut resumed_any = false;
    let final_report = loop {
        let options = CampaignOptions {
            checkpoint_path: Some(checkpoint.clone()),
            stop_after_pairs: Some(1),
            ..base_options.clone()
        };
        let report = Campaign::new(jobs(), options).run().unwrap();
        resumed_any |= report.resumed;
        if !report.interrupted {
            break report;
        }
    };
    assert!(resumed_any, "later invocations must resume from disk");
    assert!(final_report.completed());

    // The acceptance bar: identical final PairReports, byte for byte.
    assert_eq!(
        format!(
            "{:?}",
            final_report
                .jobs
                .iter()
                .map(|j| &j.reports)
                .collect::<Vec<_>>()
        ),
        format!(
            "{:?}",
            reference
                .jobs
                .iter()
                .map(|j| &j.reports)
                .collect::<Vec<_>>()
        ),
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// A runner that panics for every trial of one program (matched by digest).
struct PanicOnProgram {
    digest: u64,
    inner: FuzzRunner,
}

impl TrialRunner for PanicOnProgram {
    fn run_trial(
        &self,
        program: &cil::Program,
        entry: &str,
        pair: RacePair,
        config: &FuzzConfig,
    ) -> Result<FuzzOutcome, SetupError> {
        assert!(
            program_digest(program) != self.digest,
            "injected fault: this workload always crashes"
        );
        self.inner.run_trial(program, entry, pair, config)
    }
}

#[test]
fn campaign_over_all_workloads_survives_one_bad_workload() {
    // The acceptance scenario: every Table-1 workload, with one of them
    // (cache4j) panicking on every trial.
    let fleet = workloads::all();
    let bad_name = "cache4j";
    let bad_digest = program_digest(
        &fleet
            .iter()
            .find(|workload| workload.name == bad_name)
            .expect("cache4j is in the fleet")
            .program,
    );
    let jobs: Vec<CampaignJob> = fleet
        .into_iter()
        .map(|workload| CampaignJob::new(workload.name, workload.program, workload.entry))
        .collect();
    let options = CampaignOptions {
        trials_per_pair: 2, // keep the full-fleet test fast
        max_attempts: 2,
        ..CampaignOptions::default()
    };
    let campaign = Campaign::new(jobs, options);
    let runner = PanicOnProgram {
        digest: bad_digest,
        inner: FuzzRunner,
    };
    let report = campaign.run_with(&runner).unwrap();

    // The campaign finished; the bad workload's pairs are all quarantined
    // with the injected reason; every other pair still yielded a full
    // PairReport.
    assert!(report.completed());
    let mut saw_real_race = false;
    for job in &report.jobs {
        assert!(job.error.is_none(), "{}: {:?}", job.name, job.error);
        assert_eq!(job.reports.len(), job.potential.len(), "{}", job.name);
        if job.name == bad_name {
            assert!(!job.potential.is_empty());
            assert_eq!(job.quarantined.len(), job.potential.len());
            assert!(job.quarantined[0]
                .reason
                .to_string()
                .contains("always crashes"));
        } else {
            assert!(job.quarantined.is_empty(), "{} was quarantined", job.name);
            for pair_report in &job.reports {
                assert_eq!(pair_report.trials, 2, "{}", job.name);
            }
            saw_real_race |= !job.real_races().is_empty();
        }
    }
    assert!(saw_real_race, "healthy workloads still confirm races");
}

fn render_reports(report: &campaign::CampaignReport) -> String {
    format!(
        "{:?}",
        report
            .jobs
            .iter()
            .map(|job| &job.reports)
            .collect::<Vec<_>>()
    )
}

#[test]
fn parallel_campaign_matches_sequential_and_survives_interruption() {
    let dir = temp_dir("parallel-resume");
    let checkpoint = dir.join("checkpoint.json");
    let jobs = || {
        vec![
            figure1_job(),
            CampaignJob::new("figure2", workloads::figure2(3), "main"),
        ]
    };
    let base_options = CampaignOptions {
        trials_per_pair: 8,
        ..CampaignOptions::default()
    };

    // Reference: one uninterrupted sequential run.
    let reference = Campaign::new(jobs(), base_options.clone()).run().unwrap();
    assert!(reference.completed());

    // A full parallel run commits the same reports, failures, and
    // quarantines as the sequential one.
    let parallel_options = CampaignOptions {
        parallel: racefuzzer::ParallelOptions::with_workers(4),
        ..base_options.clone()
    };
    let parallel = Campaign::new(jobs(), parallel_options.clone())
        .run()
        .unwrap();
    assert!(parallel.completed());
    assert_eq!(render_reports(&parallel), render_reports(&reference));
    assert_eq!(parallel.failure_count(), reference.failure_count());
    assert_eq!(parallel.quarantine_count(), reference.quarantine_count());

    // Kill a parallel campaign after every committed pair; each resumed
    // invocation picks up from the checkpoint with 4 workers. Uncommitted
    // worker results are discarded at interruption and redone — the final
    // reports must still match the sequential reference byte for byte.
    let mut resumed_any = false;
    let final_report = loop {
        let options = CampaignOptions {
            checkpoint_path: Some(checkpoint.clone()),
            stop_after_pairs: Some(1),
            ..parallel_options.clone()
        };
        let report = Campaign::new(jobs(), options).run().unwrap();
        resumed_any |= report.resumed;
        if !report.interrupted {
            break report;
        }
    };
    assert!(resumed_any, "later invocations must resume from disk");
    assert!(final_report.completed());
    assert_eq!(render_reports(&final_report), render_reports(&reference));

    std::fs::remove_dir_all(&dir).ok();
}
