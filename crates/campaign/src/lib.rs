//! Fault-tolerant fuzzing campaigns over the two-phase RaceFuzzer pipeline.
//!
//! [`racefuzzer::analyze`] assumes every trial terminates cleanly. At
//! campaign scale — every predicted pair of every workload, hundreds of
//! trials each — that assumption fails in exactly the ways the paper's §5
//! experiments had to survive: a workload model livelocks under one seed, a
//! scheduler bug panics, a pathological pair never finishes inside any
//! budget. This crate wraps Phase 1 + Phase 2 in a driver that treats those
//! events as *data*, not process death:
//!
//! * **Panic isolation** — every trial runs under
//!   [`std::panic::catch_unwind`]; a panicking trial becomes a structured
//!   [`TrialFailure`] and the campaign keeps going.
//! * **Trial budgets** — each trial gets a step budget and (optionally) a
//!   wall-clock deadline; exhaustion is a failure, retried with an
//!   exponentially larger step budget, and pairs that keep failing are
//!   **quarantined** with a recorded reason instead of wedging the run.
//! * **Failure artifacts** — every failure persists a self-contained JSON
//!   [`FailureArtifact`] (program digest, full config incl. seed, target
//!   pair, failure kind); [`Campaign::reproduce`] replays it
//!   deterministically, because an execution is a pure function of
//!   `(program, race set, config)` (paper §2.2).
//! * **Checkpoint/resume** — campaign state (completed [`PairReport`]s,
//!   quarantine decisions, the pair cursor) is made durable after every
//!   pair; a killed campaign resumes from the checkpoint and finishes with
//!   reports identical to an uninterrupted run. A pair's commit appends
//!   one CRC-framed delta record to the checkpoint's [`journal`]; the full
//!   checkpoint is rewritten only when the journal outgrows it, and at the
//!   end of every run, so a commit costs one pair, not the whole campaign.
//! * **Crash safety** — every durable write goes through [`durable`]
//!   (temp file, fsync, atomic rename, CRC-32 footer; journal appends are
//!   fdatasynced and framed with a per-record CRC) and is instrumented
//!   with deterministic failpoints (the `faults` crate, compiled out of
//!   release builds); startup runs a [`recovery`] scan that sidelines torn
//!   files instead of trusting them; and the [`supervisor`] loop restarts
//!   a campaign whose *process* keeps dying, quarantining pairs that
//!   crash-loop via the durable [`supervisor::CrashLedger`].
//!
//! # Examples
//!
//! ```
//! use campaign::{Campaign, CampaignJob, CampaignOptions};
//!
//! let program = cil::compile(
//!     r#"
//!     global z = 0;
//!     proc child() { z = 1; }
//!     proc main() {
//!         var t = spawn child();
//!         if (z == 1) { throw Error1; }
//!         join t;
//!     }
//!     "#,
//! )
//! .unwrap();
//! let jobs = vec![CampaignJob::new("figure1", program, "main")];
//! let options = CampaignOptions {
//!     trials_per_pair: 10,
//!     ..CampaignOptions::default()
//! };
//! let report = Campaign::new(jobs, options).run().unwrap();
//! assert!(report.completed());
//! assert!(!report.jobs[0].real_races().is_empty());
//! ```

pub mod artifact;
pub mod checkpoint;
pub mod durable;
pub mod journal;
pub mod json;
pub mod recovery;
pub mod supervisor;

pub use artifact::{
    program_digest, ArtifactError, FailureArtifact, FailureKind, TrialFailure,
};
pub use checkpoint::{Checkpoint, CheckpointHeader};
pub use recovery::{RecoveryAction, RecoveryEvent};
pub use supervisor::{supervise, ChildExit, CrashLedger, SupervisorOptions, SupervisorOutcome};

use crate::json::Json;
use detector::{PredictConfig, RacePair};
use interp::SetupError;
use journal::CheckpointWriter;
use racefuzzer::{
    fuzz_pair_once, fuzz_pair_once_cached, CandidateSource, EntryCache, FuzzConfig, FuzzOutcome,
    PairCache, PairReport, ParallelOptions, Provenance, SnapshotMode, SnapshotOptions,
    SnapshotStats,
};
use sana::{PruneReason, StaticRaceFilter};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// One unit of campaign work: a compiled program plus its entry procedure.
#[derive(Clone, Debug)]
pub struct CampaignJob {
    /// Job name — used in checkpoints, artifacts, and reports.
    pub name: String,
    /// The program under test.
    pub program: cil::Program,
    /// Entry procedure for the test driver.
    pub entry: String,
}

impl CampaignJob {
    /// Convenience constructor.
    pub fn new(name: &str, program: cil::Program, entry: &str) -> Self {
        CampaignJob {
            name: name.to_owned(),
            program,
            entry: entry.to_owned(),
        }
    }
}

/// How the campaign uses the `sana` static pre-analysis.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum StaticFilterMode {
    /// No static analysis; every predicted pair is fuzzed.
    #[default]
    Off,
    /// Statically refuted pairs are quarantined (with
    /// [`QuarantineReason::StaticallyPruned`]) instead of fuzzed.
    Prune,
    /// Every pair is fuzzed; a *confirmed* race on a statically refuted
    /// pair is recorded in [`JobOutcome::soundness_bugs`] — evidence of a
    /// bug in the static analysis or the dynamic detector.
    Audit,
}

/// Tunables for a campaign run.
#[derive(Clone, Debug)]
pub struct CampaignOptions {
    /// Phase-1 (prediction) configuration.
    pub predict: PredictConfig,
    /// Trials per predicted pair (the paper uses 100).
    pub trials_per_pair: usize,
    /// Seed of the first trial; trial `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Template for each trial's scheduler configuration. Its `max_steps`
    /// is the *initial* per-trial step budget; its `wall_clock` (if any) is
    /// the per-trial deadline. `seed` is overwritten per trial.
    pub fuzz: FuzzConfig,
    /// Attempts per trial before the pair is quarantined (first run plus
    /// retries). Must be at least 1.
    pub max_attempts: u32,
    /// Step-budget multiplier applied on each retry.
    pub backoff_factor: u64,
    /// Ceiling the growing step budget never exceeds.
    pub max_step_budget: u64,
    /// Directory for failure artifacts; `None` disables persistence (the
    /// failures are still recorded in the report).
    pub artifact_dir: Option<PathBuf>,
    /// Checkpoint file; `None` disables checkpoint/resume.
    pub checkpoint_path: Option<PathBuf>,
    /// Stop (reporting `interrupted = true`) after this many pairs have
    /// been completed *by this invocation* — a deterministic interruption
    /// point for testing resume, and a way to slice long campaigns.
    pub stop_after_pairs: Option<usize>,
    /// Static pre-analysis mode (default [`StaticFilterMode::Off`]).
    pub static_filter: StaticFilterMode,
    /// Where candidate pairs come from (default: the dynamic Phase-1
    /// detector, the paper's protocol). [`CandidateSource::Static`] skips
    /// profiling entirely; [`CandidateSource::Union`] appends the static
    /// generator's extra pairs after the dynamic predictions.
    pub source: CandidateSource,
    /// Phase-2 worker pool (default: one worker, which is the calling
    /// thread). With more than one worker, pairs are fuzzed concurrently —
    /// each trial still isolated by `catch_unwind` inside its worker — but
    /// results are *committed* (report, failure artifacts, checkpoint)
    /// strictly in pair order through a reorder buffer, so reports,
    /// artifact files, and every intermediate checkpoint are identical at
    /// any worker count.
    pub parallel: ParallelOptions,
    /// Crash ledger written by the [`supervisor`]; pairs listed there are
    /// quarantined with [`QuarantineReason::CrashLoop`] before any trial
    /// runs. `None` disables the check.
    pub crash_ledger_path: Option<PathBuf>,
    /// Snapshot acceleration for the Phase-2 trials (default: prologue
    /// forking, racefuzzer's default). Campaigns create one shared
    /// [`EntryCache`] per job and one [`PairCache`] per pair, so the
    /// entry prologue is interpreted once per job and every trial, retries
    /// included, forks from it. The retry backoff loop is safe to mix with
    /// caching: the prologue ends at a scheduler loop-top, where the
    /// *current* config's step budget governs all later steps.
    pub snapshots: SnapshotOptions,
    /// How long the parallel commit thread waits for an in-flight pair
    /// before checking whether the worker that claimed it has died. This is
    /// a *liveness probe interval*, not a per-pair deadline: as long as the
    /// claiming worker is alive the commit thread keeps waiting, so slow
    /// trials are never misreported as worker loss.
    pub worker_stall: Duration,
}

impl Default for CampaignOptions {
    fn default() -> Self {
        CampaignOptions {
            predict: PredictConfig::default(),
            trials_per_pair: 100,
            base_seed: 1,
            fuzz: FuzzConfig::default(),
            max_attempts: 3,
            backoff_factor: 2,
            max_step_budget: 32_000_000,
            artifact_dir: None,
            checkpoint_path: None,
            stop_after_pairs: None,
            static_filter: StaticFilterMode::Off,
            source: CandidateSource::default(),
            parallel: ParallelOptions::default(),
            crash_ledger_path: None,
            snapshots: SnapshotOptions::default(),
            worker_stall: Duration::from_secs(30),
        }
    }
}

/// Why a pair was pulled from rotation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QuarantineReason {
    /// Its trials kept failing (the final failure, rendered).
    TrialFailures(String),
    /// The static pre-analysis refuted the pair before any trial ran.
    StaticallyPruned(PruneReason),
    /// The [`supervisor`] saw this pair kill the campaign process this
    /// many consecutive times; it is skipped on orders of the crash
    /// ledger.
    CrashLoop(u32),
    /// A failure artifact for this work was torn, bit-flipped, or recorded
    /// on a different program; the payload is the load/validation error.
    CorruptArtifact(String),
}

impl QuarantineReason {
    /// Stable machine-readable tag (checkpoint/artifact `reason` field).
    pub fn tag(&self) -> &'static str {
        match self {
            QuarantineReason::TrialFailures(_) => "trial_failures",
            QuarantineReason::StaticallyPruned(_) => "statically_pruned",
            QuarantineReason::CrashLoop(_) => "crash_loop",
            QuarantineReason::CorruptArtifact(_) => "corrupt_artifact",
        }
    }

    /// The variant's payload, rendered (checkpoint `detail` field).
    pub fn detail(&self) -> String {
        match self {
            QuarantineReason::TrialFailures(message) => message.clone(),
            QuarantineReason::StaticallyPruned(reason) => reason.tag().to_owned(),
            QuarantineReason::CrashLoop(crashes) => crashes.to_string(),
            QuarantineReason::CorruptArtifact(message) => message.clone(),
        }
    }
}

impl fmt::Display for QuarantineReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QuarantineReason::TrialFailures(message) => write!(f, "{message}"),
            QuarantineReason::StaticallyPruned(reason) => {
                write!(f, "statically pruned: {reason}")
            }
            QuarantineReason::CrashLoop(crashes) => {
                write!(f, "killed the campaign process {crashes} consecutive times")
            }
            QuarantineReason::CorruptArtifact(message) => {
                write!(f, "corrupt artifact: {message}")
            }
        }
    }
}

/// A pair pulled from rotation: its trials kept failing, or the static
/// filter refuted it up front.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuarantinedPair {
    /// The quarantined pair.
    pub pair: RacePair,
    /// Seed of the trial that exhausted its attempts (the campaign's
    /// `base_seed` for statically pruned pairs, which run no trials).
    pub seed: u64,
    /// Attempts consumed before quarantine (0 for statically pruned pairs).
    pub attempts: u32,
    /// Why the pair was pulled.
    pub reason: QuarantineReason,
}

/// Per-job campaign results — also the unit of checkpointing.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// Job name.
    pub name: String,
    /// Entry procedure.
    pub entry: String,
    /// [`program_digest`] of the job's program (validates resume).
    pub program_digest: u64,
    /// `true` once Phase 1 has run (distinguishes "not yet predicted"
    /// from "predicted zero pairs").
    pub predicted: bool,
    /// Phase-1 output.
    pub potential: Vec<RacePair>,
    /// Which phase proposed each pair, parallel to `potential` (all
    /// [`Provenance::Dynamic`] for pre-provenance checkpoints).
    pub provenance: Vec<Provenance>,
    /// Per-pair Phase-2 statistics for completed pairs (parallel prefix of
    /// `potential`; a quarantined pair's report covers the trials that
    /// finished before quarantine).
    pub reports: Vec<PairReport>,
    /// Pairs pulled from rotation, with reasons.
    pub quarantined: Vec<QuarantinedPair>,
    /// [`StaticFilterMode::Audit`] findings: rendered descriptions of
    /// confirmed races on statically refuted pairs. A non-empty list means
    /// the static analysis (or the dynamic detector) has a soundness bug.
    pub soundness_bugs: Vec<String>,
    /// Every trial failure observed (including ones later resolved by a
    /// retry with a larger budget).
    pub failures: Vec<TrialFailure>,
    /// Index of the next pair to fuzz (the campaign cursor).
    pub next_pair: usize,
    /// Job-level fatal error (bad entry procedure, panicking predictor).
    pub error: Option<String>,
    /// `true` once the job needs no more work.
    pub done: bool,
}

impl JobOutcome {
    fn fresh(job: &CampaignJob) -> Self {
        JobOutcome {
            name: job.name.clone(),
            entry: job.entry.clone(),
            program_digest: program_digest(&job.program),
            predicted: false,
            potential: Vec::new(),
            provenance: Vec::new(),
            reports: Vec::new(),
            quarantined: Vec::new(),
            soundness_bugs: Vec::new(),
            failures: Vec::new(),
            next_pair: 0,
            error: None,
            done: false,
        }
    }

    /// Pairs confirmed real by the completed trials.
    pub fn real_races(&self) -> Vec<RacePair> {
        self.reports
            .iter()
            .filter(|report| report.is_real())
            .map(|report| report.target)
            .collect()
    }

    /// `true` if `pair` was quarantined.
    pub fn is_quarantined(&self, pair: RacePair) -> bool {
        self.quarantined.iter().any(|entry| entry.pair == pair)
    }

    /// Pairs the static filter refuted, with the per-pair refutation
    /// reason (the campaign's pruning statistics).
    pub fn statically_pruned(&self) -> Vec<(RacePair, PruneReason)> {
        self.quarantined
            .iter()
            .filter_map(|entry| match &entry.reason {
                QuarantineReason::StaticallyPruned(reason) => Some((entry.pair, *reason)),
                _ => None,
            })
            .collect()
    }
}

/// The result of [`Campaign::run`].
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Per-job outcomes, in job order.
    pub jobs: Vec<JobOutcome>,
    /// `true` if the run stopped early at [`CampaignOptions::stop_after_pairs`].
    pub interrupted: bool,
    /// `true` if progress was restored from a checkpoint.
    pub resumed: bool,
    /// What the startup recovery scan cleaned up (stale temp files, torn
    /// checkpoints/artifacts sidelined to `.corrupt-N`). Run-relative, so
    /// excluded from [`CampaignReport::canonical_json`].
    pub recovery: Vec<RecoveryEvent>,
}

impl CampaignReport {
    /// `true` if every job ran to completion (possibly with quarantines or
    /// job-level errors — those are *recorded* outcomes, not missing work).
    pub fn completed(&self) -> bool {
        !self.interrupted && self.jobs.iter().all(|job| job.done)
    }

    /// Total trial failures across jobs.
    pub fn failure_count(&self) -> usize {
        self.jobs.iter().map(|job| job.failures.len()).sum()
    }

    /// Total quarantined pairs across jobs.
    pub fn quarantine_count(&self) -> usize {
        self.jobs.iter().map(|job| job.quarantined.len()).sum()
    }

    /// Aggregate snapshot-cache statistics over every completed pair, or
    /// `None` if no pair carried them (acceleration off, or a checkpoint
    /// written by a pre-snapshot campaign). Advisory only — excluded from
    /// [`CampaignReport::canonical_json`].
    pub fn snapshot_stats(&self) -> Option<SnapshotStats> {
        let mut total: Option<SnapshotStats> = None;
        for report in self.jobs.iter().flat_map(|job| &job.reports) {
            if let Some(stats) = &report.snapshots {
                total.get_or_insert_with(SnapshotStats::default).merge(stats);
            }
        }
        total
    }

    /// The report's canonical byte form: everything the campaign *found*,
    /// excluding how it got there (`resumed`, recovery events). A run
    /// killed and resumed a hundred times produces the same canonical
    /// bytes as an uninterrupted one — the crash-torture harness's
    /// equality oracle.
    ///
    /// The `"detector":"epoch"` entry names the one Phase-1 engine. It is
    /// kept so the bytes match those of reports written when the engine
    /// was selectable.
    pub fn canonical_json(&self) -> String {
        Json::obj(vec![
            ("format_version", Json::u64(artifact::FORMAT_VERSION)),
            ("detector", Json::str("epoch")),
            ("interrupted", Json::Bool(self.interrupted)),
            (
                "jobs",
                Json::Arr(self.jobs.iter().map(checkpoint::job_to_json).collect()),
            ),
        ])
        .to_text()
    }
}

/// The trial engine a campaign drives. The default ([`FuzzRunner`]) is the
/// real Phase-2 scheduler; tests inject runners that panic or spin to
/// exercise the fault-tolerance paths without corrupting a real engine.
///
/// `run_trial` takes `&self` because one runner is shared by every worker
/// of a parallel campaign; runners needing mutable state should use
/// interior mutability (atomics suffice for the fault-injection runners in
/// this workspace's tests).
pub trait TrialRunner {
    /// Runs one race-directed trial.
    ///
    /// # Errors
    ///
    /// Returns [`SetupError`] if `entry` does not name a zero-argument
    /// procedure.
    fn run_trial(
        &self,
        program: &cil::Program,
        entry: &str,
        pair: RacePair,
        config: &FuzzConfig,
    ) -> Result<FuzzOutcome, SetupError>;

    /// [`TrialRunner::run_trial`] with an optional snapshot cache. The
    /// default ignores the cache, so fault-injection runners (and any
    /// external runner that is not the real scheduler) stay correct
    /// without changes; only engines that can honour the byte-identity
    /// contract should override this.
    ///
    /// # Errors
    ///
    /// Returns [`SetupError`] if `entry` does not name a zero-argument
    /// procedure.
    fn run_trial_cached(
        &self,
        program: &cil::Program,
        entry: &str,
        pair: RacePair,
        config: &FuzzConfig,
        cache: Option<&PairCache>,
    ) -> Result<FuzzOutcome, SetupError> {
        let _ = cache;
        self.run_trial(program, entry, pair, config)
    }
}

/// The production trial runner: [`racefuzzer::fuzz_pair_once`].
#[derive(Clone, Copy, Debug, Default)]
pub struct FuzzRunner;

impl TrialRunner for FuzzRunner {
    fn run_trial(
        &self,
        program: &cil::Program,
        entry: &str,
        pair: RacePair,
        config: &FuzzConfig,
    ) -> Result<FuzzOutcome, SetupError> {
        fuzz_pair_once(program, entry, pair, config)
    }

    fn run_trial_cached(
        &self,
        program: &cil::Program,
        entry: &str,
        pair: RacePair,
        config: &FuzzConfig,
        cache: Option<&PairCache>,
    ) -> Result<FuzzOutcome, SetupError> {
        fuzz_pair_once_cached(program, entry, pair, config, cache)
    }
}

/// Result of replaying a [`FailureArtifact`].
#[derive(Debug)]
pub struct Reproduction {
    /// The failure the replay produced; `None` if the trial completed
    /// normally (the failure did not reproduce).
    pub kind: Option<FailureKind>,
    /// The trial outcome, when the trial returned one (absent for panics).
    pub outcome: Option<FuzzOutcome>,
}

impl Reproduction {
    /// `true` if the replay reproduced the artifact's recorded failure.
    pub fn matches(&self, artifact: &FailureArtifact) -> bool {
        self.kind.as_ref() == Some(&artifact.kind)
    }
}

/// A fault-tolerant fuzzing campaign over a set of jobs.
#[derive(Clone, Debug)]
pub struct Campaign {
    /// The jobs, in execution order.
    pub jobs: Vec<CampaignJob>,
    /// Tunables.
    pub options: CampaignOptions,
}

enum Guarded {
    Completed(FuzzOutcome),
    Failed(FailureKind, Option<FuzzOutcome>),
    Setup(String),
}

/// Everything one pair's trials produced, before any of it touches job
/// state. Workers build these off-thread; the main thread commits them in
/// pair order ([`Campaign::commit_pair`]).
struct PairRun {
    report: PairReport,
    failures: Vec<TrialFailure>,
    quarantine: Option<QuarantinedPair>,
    fatal: Option<String>,
}

/// What one [`Campaign::run_with`] invocation threads through its pair
/// loops: the checkpoint writer and the count of pairs it committed.
struct RunProgress {
    checkpoint: CheckpointWriter,
    pairs_this_run: usize,
}

/// How a job's pair loop ended.
enum PairsProgress {
    /// Every pair is committed.
    Finished,
    /// A job-fatal setup error; the job is marked done with an error.
    JobStopped,
    /// [`CampaignOptions::stop_after_pairs`] was reached.
    Interrupted,
}

impl Campaign {
    /// Creates a campaign.
    pub fn new(jobs: Vec<CampaignJob>, options: CampaignOptions) -> Self {
        Campaign { jobs, options }
    }

    /// Runs the campaign with the production trial runner.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError`] only for filesystem failures writing
    /// checkpoints or artifacts — trial and job failures are recorded in
    /// the report, never returned.
    pub fn run(&self) -> Result<CampaignReport, ArtifactError> {
        self.run_with(&FuzzRunner)
    }

    /// Runs the campaign with a caller-supplied trial runner.
    ///
    /// # Errors
    ///
    /// See [`Campaign::run`].
    pub fn run_with(
        &self,
        runner: &(dyn TrialRunner + Sync),
    ) -> Result<CampaignReport, ArtifactError> {
        let mut events = Vec::new();
        if let Some(dir) = &self.options.artifact_dir {
            recovery::scan_artifact_dir(dir, &mut events);
        }
        let ledger = self.load_ledger(&mut events);
        let (mut jobs, resumed) = self.restore_or_fresh(&mut events);
        let mut progress = RunProgress {
            checkpoint: CheckpointWriter::new(
                self.options.checkpoint_path.clone(),
                self.checkpoint_header(),
            ),
            pairs_this_run: 0,
        };
        if resumed {
            // Fold the loaded journal into a fresh base, so this run's
            // records extend a journal bound to it.
            progress.checkpoint.compact(&jobs)?;
        }
        let mut interrupted = false;

        for index in 0..self.jobs.len() {
            if jobs[index].done {
                continue;
            }
            let job = &self.jobs[index];

            if !jobs[index].predicted {
                match guarded_predict(job, &self.options.predict, self.options.source) {
                    Ok((potential, provenance)) => {
                        jobs[index].potential = potential;
                        jobs[index].provenance = provenance;
                        jobs[index].predicted = true;
                    }
                    Err(message) => {
                        jobs[index].error = Some(message);
                        jobs[index].done = true;
                        progress.checkpoint.save(&jobs)?;
                        continue;
                    }
                }
                progress.checkpoint.save(&jobs)?;
            }

            // The static filter is rebuilt (not checkpointed) on resume: it
            // is a deterministic function of the program, so the rebuilt
            // filter refutes exactly the pairs the interrupted run refuted.
            let filter = match self.options.static_filter {
                StaticFilterMode::Off => None,
                StaticFilterMode::Prune | StaticFilterMode::Audit => {
                    StaticRaceFilter::for_entry(&job.program, &job.entry)
                }
            };

            let pairs = self.run_pairs(
                runner,
                index,
                &mut jobs,
                filter.as_ref(),
                &ledger,
                &mut progress,
            )?;
            match pairs {
                PairsProgress::Finished => {
                    if !jobs[index].done {
                        jobs[index].done = true;
                        progress.checkpoint.save(&jobs)?;
                    }
                }
                PairsProgress::JobStopped => {}
                PairsProgress::Interrupted => {
                    interrupted = true;
                    break;
                }
            }
        }

        // Leave the whole state in the base: the bytes a full rewrite after
        // the last commit would have written.
        progress.checkpoint.finish(&jobs)?;
        Ok(CampaignReport {
            jobs,
            interrupted,
            resumed,
            recovery: events,
        })
    }

    /// Loads the crash ledger, sidelining it (and starting empty) if it is
    /// torn or corrupt — a bad ledger must not wedge the campaign.
    fn load_ledger(&self, events: &mut Vec<RecoveryEvent>) -> CrashLedger {
        let Some(path) = &self.options.crash_ledger_path else {
            return CrashLedger::empty();
        };
        recovery::sweep_tmp(path, events);
        if !path.exists() {
            return CrashLedger::empty();
        }
        match CrashLedger::load(path) {
            Ok(ledger) => ledger,
            Err(error) => {
                if recovery::sideline(path).is_ok() {
                    events.push(RecoveryEvent {
                        path: path.clone(),
                        action: RecoveryAction::SidelinedCorrupt,
                        reason: error.to_string(),
                    });
                }
                CrashLedger::empty()
            }
        }
    }

    /// The per-job snapshot entry cache, or `None` when acceleration is
    /// off. When the trial template records schedules or carries a
    /// wall-clock deadline, racefuzzer drops the cache before each trial
    /// starts, so such a pair reports all-zero [`SnapshotStats`].
    fn entry_cache(&self) -> Option<Arc<EntryCache>> {
        (self.options.snapshots.mode != SnapshotMode::Off)
            .then(|| EntryCache::new(self.options.snapshots))
    }

    /// The pair loop. Crash-ledger and prune verdicts are settled up front
    /// on the calling thread — both are deterministic and cheap — and the
    /// calling thread commits every pair strictly in pair order: report,
    /// failure artifacts, checkpoint. With one worker it also runs each
    /// pair itself, just before committing it. With more, workers steal
    /// pair offsets off an atomic cursor and fuzz them concurrently (every
    /// trial still isolated by `catch_unwind`), and finished pairs wait in
    /// a reorder buffer for their turn. Reports, artifact files, and every
    /// intermediate checkpoint are the same bytes at any worker count.
    fn run_pairs(
        &self,
        runner: &(dyn TrialRunner + Sync),
        index: usize,
        jobs: &mut [JobOutcome],
        filter: Option<&StaticRaceFilter>,
        ledger: &CrashLedger,
        progress: &mut RunProgress,
    ) -> Result<PairsProgress, ArtifactError> {
        let job = &self.jobs[index];
        let start = jobs[index].next_pair;
        let targets: Vec<RacePair> = jobs[index].potential[start..].to_vec();
        let crash_looped: Vec<Option<u32>> = (0..targets.len())
            .map(|offset| ledger.lookup(&jobs[index].name, start + offset))
            .collect();
        let refuted: Vec<Option<PruneReason>> = targets
            .iter()
            .enumerate()
            .map(|(offset, target)| {
                if crash_looped[offset].is_none()
                    && self.options.static_filter == StaticFilterMode::Prune
                {
                    filter.and_then(|f| f.refute(&job.program, target))
                } else {
                    None
                }
            })
            .collect();
        let work: Vec<usize> = (0..targets.len())
            .filter(|&offset| refuted[offset].is_none() && crash_looped[offset].is_none())
            .collect();

        // Shared read-side across workers: the entry prologue is computed
        // by whichever trial gets there first and reused by all.
        let entry_cache = self.entry_cache();
        let fuzz = |offset: usize| {
            run_pair(
                runner,
                &job.program,
                &job.entry,
                targets[offset],
                &self.options,
                entry_cache.as_ref(),
            )
        };
        // One worker is the calling thread itself: no pool at all.
        let worker_count = if self.options.parallel.workers > 1 {
            self.options.parallel.workers.min(work.len())
        } else {
            0
        };
        let cursor = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let claimed: Vec<AtomicUsize> = (0..targets.len()).map(|_| AtomicUsize::new(0)).collect();
        let alive: Vec<AtomicBool> = (0..worker_count).map(|_| AtomicBool::new(true)).collect();

        std::thread::scope(|scope| {
            let mut pool = (worker_count > 0).then(|| {
                let (sender, receiver) = mpsc::channel::<(usize, PairRun)>();
                for worker_id in 0..worker_count {
                    let sender = sender.clone();
                    let (cursor, stop, work, fuzz) = (&cursor, &stop, &work, &fuzz);
                    let (claimed, alive) = (&claimed, &alive);
                    scope.spawn(move || {
                        // Flips the liveness flag on *any* exit path, panics
                        // included, so the commit thread can tell a slow
                        // trial from a result that will never arrive.
                        let _liveness = WorkerGuard(&alive[worker_id]);
                        loop {
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                            let slot = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(&offset) = work.get(slot) else {
                                break;
                            };
                            claimed[offset].store(worker_id + 1, Ordering::Release);
                            if faults::hit("campaign.worker") == faults::Fault::Error {
                                return; // injected worker death: deliver nothing
                            }
                            let Ok(run) = catch_unwind(AssertUnwindSafe(|| fuzz(offset))) else {
                                return; // worker-level panic: die without delivering
                            };
                            if sender.send((offset, run)).is_err() {
                                break; // the commit loop returned early
                            }
                        }
                    });
                }
                Deliveries {
                    receiver,
                    buffer: BTreeMap::new(),
                    claimed: &claimed,
                    alive: &alive,
                }
            });

            for offset in 0..targets.len() {
                let target = targets[offset];
                if let Some(crashes) = crash_looped[offset] {
                    self.commit_crashloop(&mut jobs[index], target, crashes);
                    progress.checkpoint.save(jobs)?;
                    continue;
                }
                if let Some(reason) = refuted[offset] {
                    self.commit_pruned(&mut jobs[index], target, reason);
                    progress.checkpoint.save(jobs)?;
                    continue;
                }
                let run = match &mut pool {
                    None => fuzz(offset),
                    Some(pool) => pool.take(offset, target, &self.options),
                };
                let fatal = self.commit_pair(job, &mut jobs[index], run)?;
                self.audit_pair(job, &mut jobs[index], filter, target);
                if let Some(message) = fatal {
                    stop.store(true, Ordering::Relaxed);
                    jobs[index].error = Some(message);
                    jobs[index].done = true;
                    progress.checkpoint.save(jobs)?;
                    return Ok(PairsProgress::JobStopped);
                }
                jobs[index].next_pair += 1;
                progress.checkpoint.save(jobs)?;
                progress.pairs_this_run += 1;
                if Some(progress.pairs_this_run) == self.options.stop_after_pairs {
                    // Workers stop stealing; whatever they finish after this
                    // point is discarded, and the resumed run redoes it —
                    // repeated work is deterministic work.
                    stop.store(true, Ordering::Relaxed);
                    return Ok(PairsProgress::Interrupted);
                }
            }
            Ok(PairsProgress::Finished)
        })
    }

    /// Commits a statically refuted pair: an empty report keeps `reports` a
    /// parallel prefix of `potential`, and no trials are spent.
    fn commit_pruned(&self, state: &mut JobOutcome, target: RacePair, reason: PruneReason) {
        state.reports.push(PairReport::empty(target));
        state.quarantined.push(QuarantinedPair {
            pair: target,
            seed: self.options.base_seed,
            attempts: 0,
            reason: QuarantineReason::StaticallyPruned(reason),
        });
        state.next_pair += 1;
    }

    /// Commits a pair the crash ledger ordered skipped: same shape as
    /// [`Campaign::commit_pruned`], different reason.
    fn commit_crashloop(&self, state: &mut JobOutcome, target: RacePair, crashes: u32) {
        state.reports.push(PairReport::empty(target));
        state.quarantined.push(QuarantinedPair {
            pair: target,
            seed: self.options.base_seed,
            attempts: 0,
            reason: QuarantineReason::CrashLoop(crashes),
        });
        state.next_pair += 1;
    }

    /// Commits one pair's [`PairRun`] to job state: artifacts and failure
    /// records first (in seed order), then the report and any quarantine.
    /// Returns the job-fatal message, if the pair hit a setup error.
    fn commit_pair(
        &self,
        job: &CampaignJob,
        state: &mut JobOutcome,
        run: PairRun,
    ) -> Result<Option<String>, ArtifactError> {
        for failure in run.failures {
            self.persist_artifact(job, state, &failure)?;
            state.failures.push(failure);
        }
        if run.fatal.is_some() {
            // A setup error abandons the pair without pushing its partial
            // report.
            return Ok(run.fatal);
        }
        state.reports.push(run.report);
        if let Some(entry) = run.quarantine {
            state.quarantined.push(entry);
        }
        Ok(None)
    }

    /// [`StaticFilterMode::Audit`]: record a soundness bug if a pair just
    /// confirmed by fuzzing is one the static filter would have refuted.
    fn audit_pair(
        &self,
        job: &CampaignJob,
        state: &mut JobOutcome,
        filter: Option<&StaticRaceFilter>,
        target: RacePair,
    ) {
        if self.options.static_filter != StaticFilterMode::Audit {
            return;
        }
        let confirmed = state
            .reports
            .last()
            .is_some_and(|report| report.target == target && report.is_real());
        if !confirmed {
            return;
        }
        if let Some(reason) = filter.and_then(|f| f.refute(&job.program, &target)) {
            state.soundness_bugs.push(format!(
                "pair {} was confirmed by fuzzing but statically refuted as {}",
                target.describe(&job.program),
                reason
            ));
        }
    }

    fn persist_artifact(
        &self,
        job: &CampaignJob,
        state: &JobOutcome,
        failure: &TrialFailure,
    ) -> Result<(), ArtifactError> {
        let Some(dir) = &self.options.artifact_dir else {
            return Ok(());
        };
        std::fs::create_dir_all(dir).map_err(|error| ArtifactError::Io(error.to_string()))?;
        let artifact = FailureArtifact {
            job: state.name.clone(),
            entry: job.entry.clone(),
            program_digest: state.program_digest,
            pair: failure.pair,
            seed: failure.seed,
            attempt: failure.attempt,
            kind: failure.kind.clone(),
            max_steps: failure.step_budget,
            postpone_limit: self.options.fuzz.postpone_limit,
            location_precise: self.options.fuzz.location_precise,
            switch_only_at_sync: self.options.fuzz.switch_only_at_sync,
            wall_clock_ms: artifact::duration_ms(self.options.fuzz.wall_clock),
            max_heap_cells: self.options.fuzz.max_heap_cells,
            // The failing pair is the one currently being fuzzed — its
            // report has not been committed yet, so its index is the
            // report count. Pre-provenance jobs default to Dynamic.
            provenance: state
                .provenance
                .get(state.reports.len())
                .copied()
                .unwrap_or(Provenance::Dynamic),
        };
        // Later attempts overwrite earlier ones: one artifact per failing
        // (pair, seed), always describing the most recent failure.
        artifact.save(&dir.join(artifact.file_name()))
    }

    fn restore_or_fresh(&self, events: &mut Vec<RecoveryEvent>) -> (Vec<JobOutcome>, bool) {
        let fresh: Vec<JobOutcome> = self.jobs.iter().map(JobOutcome::fresh).collect();
        let Some(path) = &self.options.checkpoint_path else {
            return (fresh, false);
        };
        // The recovery scan sweeps stale temp files and sidelines a torn
        // or corrupt checkpoint (recorded as an event); either way the
        // campaign starts from the best state that *verifiably* survived.
        let Some(checkpoint) = recovery::recover_checkpoint(path, events) else {
            return (fresh, false);
        };
        if checkpoint.header != self.checkpoint_header() {
            return (fresh, false);
        }
        // Adopt saved progress job-by-job where name and program digest
        // both match; anything else (renamed job, recompiled program)
        // starts over — stale progress is worse than repeated work.
        let mut resumed_any = false;
        let jobs = fresh
            .into_iter()
            .map(|fresh_job| {
                match checkpoint.jobs.iter().find(|saved| {
                    saved.name == fresh_job.name
                        && saved.program_digest == fresh_job.program_digest
                }) {
                    Some(saved) => {
                        resumed_any = true;
                        saved.clone()
                    }
                    None => fresh_job,
                }
            })
            .collect();
        (jobs, resumed_any)
    }

    fn checkpoint_header(&self) -> CheckpointHeader {
        CheckpointHeader {
            trials_per_pair: self.options.trials_per_pair,
            base_seed: self.options.base_seed,
        }
    }

    /// Deterministically replays a failure artifact against this campaign's
    /// job of the same name.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::DigestMismatch`] if the job's program is
    /// not the program the failure was recorded on, or
    /// [`ArtifactError::Malformed`] if no job matches the artifact's name.
    pub fn reproduce(&self, artifact: &FailureArtifact) -> Result<Reproduction, ArtifactError> {
        self.reproduce_with(&FuzzRunner, artifact)
    }

    /// [`Campaign::reproduce`] with a caller-supplied trial runner.
    ///
    /// # Errors
    ///
    /// See [`Campaign::reproduce`].
    pub fn reproduce_with(
        &self,
        runner: &dyn TrialRunner,
        artifact: &FailureArtifact,
    ) -> Result<Reproduction, ArtifactError> {
        let job = self
            .jobs
            .iter()
            .find(|job| job.name == artifact.job)
            .ok_or_else(|| {
                ArtifactError::Malformed(format!("campaign has no job named '{}'", artifact.job))
            })?;
        reproduce_on(&job.program, &job.entry, runner, artifact)
    }

    /// Replays every artifact in `dir`, skipping (not crashing on) the
    /// ones that are torn, bit-flipped, or recorded on a different
    /// program. Each skip carries a structured
    /// [`QuarantineReason::CorruptArtifact`]; paths are visited in sorted
    /// order so the sweep is deterministic.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] only if the directory itself cannot
    /// be read — per-artifact problems are `skipped` entries, not errors.
    pub fn reproduce_dir(&self, dir: &Path) -> Result<ArtifactSweep, ArtifactError> {
        let entries =
            std::fs::read_dir(dir).map_err(|error| ArtifactError::Io(error.to_string()))?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(Result::ok)
            .map(|entry| entry.path())
            .filter(|path| {
                path.file_name()
                    .and_then(|name| name.to_str())
                    .is_some_and(|name| name.ends_with(".json"))
            })
            .collect();
        paths.sort();
        let mut sweep = ArtifactSweep {
            reproduced: Vec::new(),
            skipped: Vec::new(),
        };
        for path in paths {
            let artifact = match FailureArtifact::load(&path) {
                Ok(artifact) => artifact,
                Err(error) => {
                    sweep
                        .skipped
                        .push((path, QuarantineReason::CorruptArtifact(error.to_string())));
                    continue;
                }
            };
            match self.reproduce(&artifact) {
                Ok(reproduction) => sweep.reproduced.push((path, reproduction)),
                Err(error) => sweep
                    .skipped
                    .push((path, QuarantineReason::CorruptArtifact(error.to_string()))),
            }
        }
        Ok(sweep)
    }
}

/// Result of [`Campaign::reproduce_dir`]: what replayed, what was skipped
/// and why.
#[derive(Debug)]
pub struct ArtifactSweep {
    /// Artifacts that loaded, validated, and replayed.
    pub reproduced: Vec<(PathBuf, Reproduction)>,
    /// Artifacts skipped, with the structured reason (torn file, CRC
    /// mismatch, digest mismatch, unknown job).
    pub skipped: Vec<(PathBuf, QuarantineReason)>,
}

/// The commit thread's side of a campaign's worker pool: pairs arrive in
/// any order and wait here for their turn.
struct Deliveries<'a> {
    receiver: mpsc::Receiver<(usize, PairRun)>,
    /// Runs that arrived before their turn, by pair offset.
    buffer: BTreeMap<usize, PairRun>,
    /// Which worker claimed each offset (worker id + 1; 0 = unclaimed).
    claimed: &'a [AtomicUsize],
    /// Which workers are still running. A worker that dies without
    /// delivering — injected via the `campaign.worker` failpoint, or a
    /// panic outside the per-trial guard — must not hang the commit loop
    /// forever.
    alive: &'a [AtomicBool],
}

impl Deliveries<'_> {
    /// Waits for the run of the pair at `offset`, or synthesizes a worker
    /// loss if the worker that claimed it died before delivering.
    fn take(&mut self, offset: usize, target: RacePair, options: &CampaignOptions) -> PairRun {
        loop {
            if let Some(run) = self.buffer.remove(&offset) {
                return run;
            }
            match self.receiver.recv_timeout(options.worker_stall) {
                Ok((arrived, run)) => {
                    if arrived == offset {
                        return run;
                    }
                    self.buffer.insert(arrived, run);
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    // Every worker has exited and this pair never arrived:
                    // the claiming worker died mid-pair.
                    return worker_loss_run(target, options);
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Only declare the pair lost if the worker that claimed
                    // it is gone; a live worker is just running long
                    // trials, so keep waiting.
                    let claim = self.claimed[offset].load(Ordering::Acquire);
                    if claim != 0 && !self.alive[claim - 1].load(Ordering::Acquire) {
                        // Final drain: the claimer may have delivered this
                        // pair and died on a later one.
                        while let Ok((arrived, run)) = self.receiver.try_recv() {
                            self.buffer.insert(arrived, run);
                        }
                        return self
                            .buffer
                            .remove(&offset)
                            .unwrap_or_else(|| worker_loss_run(target, options));
                    }
                }
            }
        }
    }
}

/// Sets its worker's liveness flag to `false` when dropped — however the
/// worker exits.
struct WorkerGuard<'a>(&'a AtomicBool);

impl Drop for WorkerGuard<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

/// The [`PairRun`] the commit thread synthesizes for a pair whose worker
/// died before delivering: one attributed failure, quarantined, and the
/// campaign moves on.
fn worker_loss_run(target: RacePair, options: &CampaignOptions) -> PairRun {
    let kind = FailureKind::WorkerLoss(
        "worker thread died before delivering this pair's trials".to_owned(),
    );
    PairRun {
        report: PairReport::empty(target),
        failures: vec![TrialFailure {
            pair: target,
            seed: options.base_seed,
            attempt: 1,
            step_budget: options.fuzz.max_steps,
            kind: kind.clone(),
        }],
        quarantine: Some(QuarantinedPair {
            pair: target,
            seed: options.base_seed,
            attempts: 1,
            reason: QuarantineReason::TrialFailures(kind.to_string()),
        }),
        fatal: None,
    }
}

/// Replays `artifact` against `program` with `runner`.
///
/// The replay uses the artifact's recorded configuration (seed and the step
/// budget in force at the failure) with the machine-dependent wall-clock
/// deadline removed, so the result is deterministic.
///
/// # Errors
///
/// Returns [`ArtifactError::DigestMismatch`] if `program` is not the
/// program the failure was recorded on.
pub fn reproduce_on(
    program: &cil::Program,
    entry: &str,
    runner: &dyn TrialRunner,
    artifact: &FailureArtifact,
) -> Result<Reproduction, ArtifactError> {
    let digest = program_digest(program);
    if digest != artifact.program_digest {
        return Err(ArtifactError::DigestMismatch {
            artifact: artifact.program_digest,
            program: digest,
        });
    }
    let config = artifact.fuzz_config();
    // Replays run uncached: a reproduction is a single trial, so there is
    // no prefix to share and nothing to amortise.
    match guarded_trial(runner, program, entry, artifact.pair, &config, None) {
        Guarded::Completed(outcome) => Ok(Reproduction {
            kind: None,
            outcome: Some(outcome),
        }),
        Guarded::Failed(kind, outcome) => Ok(Reproduction {
            kind: Some(kind),
            outcome,
        }),
        Guarded::Setup(message) => Err(ArtifactError::Malformed(format!(
            "artifact entry procedure is invalid: {message}"
        ))),
    }
}

/// Runs every trial of one pair — retries, backoff, quarantine — without
/// touching any shared state. The commit thread calls it inline with one
/// worker, and pool workers call it with more; the difference is only
/// *where* it runs and when the resulting [`PairRun`] is committed.
fn run_pair(
    runner: &dyn TrialRunner,
    program: &cil::Program,
    entry: &str,
    target: RacePair,
    options: &CampaignOptions,
    entry_cache: Option<&Arc<EntryCache>>,
) -> PairRun {
    // One cache (statistics) per pair, sharing the job-wide entry
    // prologue. Retries with grown step budgets share it too — the
    // prologue ends at a scheduler loop-top, where the budget check always
    // consults the *current* config, so a trial resumed under a larger
    // budget behaves exactly as if it had re-executed its prefix.
    let cache = entry_cache.map(|shared| PairCache::new(Arc::clone(shared)));
    let mut run = PairRun {
        report: PairReport::empty(target),
        failures: Vec::new(),
        quarantine: None,
        fatal: None,
    };
    'trials: for trial in 0..options.trials_per_pair {
        let seed = options.base_seed + trial as u64;
        let mut budget = options.fuzz.max_steps;
        let mut attempt: u32 = 1;
        loop {
            let config = FuzzConfig {
                seed,
                max_steps: budget,
                ..options.fuzz.clone()
            };
            match guarded_trial(runner, program, entry, target, &config, cache.as_deref()) {
                Guarded::Completed(outcome) => {
                    run.report.absorb(seed, &outcome, program);
                    break;
                }
                Guarded::Setup(message) => {
                    run.fatal = Some(format!("setup error: {message}"));
                    break 'trials;
                }
                Guarded::Failed(kind, _) => {
                    run.failures.push(TrialFailure {
                        pair: target,
                        seed,
                        attempt,
                        step_budget: budget,
                        kind: kind.clone(),
                    });
                    if attempt >= options.max_attempts.max(1) {
                        run.quarantine = Some(QuarantinedPair {
                            pair: target,
                            seed,
                            attempts: attempt,
                            reason: QuarantineReason::TrialFailures(kind.to_string()),
                        });
                        break 'trials;
                    }
                    attempt += 1;
                    budget = budget
                        .saturating_mul(options.backoff_factor.max(1))
                        .min(options.max_step_budget);
                }
            }
        }
    }
    // Advisory statistics: excluded from `PairReport`'s `Debug` identity
    // and from the canonical checkpoint bytes.
    if let Some(cache) = &cache {
        run.report.snapshots = Some(cache.stats());
    }
    run
}

fn guarded_trial(
    runner: &dyn TrialRunner,
    program: &cil::Program,
    entry: &str,
    pair: RacePair,
    config: &FuzzConfig,
    cache: Option<&PairCache>,
) -> Guarded {
    let result = catch_unwind(AssertUnwindSafe(|| {
        runner.run_trial_cached(program, entry, pair, config, cache)
    }));
    match result {
        Err(payload) => Guarded::Failed(FailureKind::Panic(panic_message(payload.as_ref())), None),
        Ok(Err(setup)) => Guarded::Setup(setup.to_string()),
        Ok(Ok(outcome)) => match &outcome.termination {
            interp::Termination::StepLimit => {
                Guarded::Failed(FailureKind::StepBudget, Some(outcome))
            }
            interp::Termination::DeadlineExceeded => {
                Guarded::Failed(FailureKind::Deadline, Some(outcome))
            }
            // A blown heap budget is a *verdict on the program under
            // test* — a reported termination absorbed into
            // `PairReport::memory_trials` — not a harness failure, so it
            // is never retried or quarantined.
            interp::Termination::EngineError(interp::ExecError::MemoryBudget { .. }) => {
                Guarded::Completed(outcome)
            }
            interp::Termination::EngineError(error) => {
                Guarded::Failed(FailureKind::EngineError(error.to_string()), Some(outcome))
            }
            _ => Guarded::Completed(outcome),
        },
    }
}

fn guarded_predict(
    job: &CampaignJob,
    predict: &PredictConfig,
    source: CandidateSource,
) -> Result<(Vec<RacePair>, Vec<Provenance>), String> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        racefuzzer::gather_candidates(&job.program, &job.entry, predict, source)
    }));
    match result {
        Err(payload) => Err(format!(
            "prediction panicked: {}",
            panic_message(payload.as_ref())
        )),
        Ok(Err(setup)) => Err(format!("setup error: {setup}")),
        Ok(Ok(gathered)) => Ok(gathered),
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(text) = payload.downcast_ref::<&str>() {
        (*text).to_owned()
    } else if let Some(text) = payload.downcast_ref::<String>() {
        text.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure1_like() -> cil::Program {
        cil::compile(
            r#"
            global z = 0;
            proc child() { z = 1; }
            proc main() {
                var t = spawn child();
                if (z == 1) { throw Error1; }
                join t;
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn healthy_campaign_matches_plain_analyze() {
        let program = figure1_like();
        let options = CampaignOptions {
            trials_per_pair: 20,
            ..CampaignOptions::default()
        };
        let campaign = Campaign::new(
            vec![CampaignJob::new("fig1", program.clone(), "main")],
            options,
        );
        let report = campaign.run().unwrap();
        assert!(report.completed());
        assert!(!report.resumed);
        assert_eq!(report.failure_count(), 0);

        let plain = racefuzzer::analyze(
            &program,
            "main",
            &racefuzzer::AnalyzeOptions::with_trials(20),
        )
        .unwrap();
        assert_eq!(
            format!("{:?}", report.jobs[0].reports),
            format!("{:?}", plain.pairs)
        );
    }

    #[test]
    fn canonical_json_keeps_its_bytes() {
        // Written by the build in which the Phase-1 detector and the trial
        // engine were still options; the `"detector": "epoch"` entry
        // stays, so old and new reports compare byte for byte.
        let options = CampaignOptions {
            trials_per_pair: 4,
            ..CampaignOptions::default()
        };
        let report = Campaign::new(
            vec![CampaignJob::new("fig1", figure1_like(), "main")],
            options,
        )
        .run()
        .unwrap();
        assert_eq!(
            report.canonical_json(),
            include_str!("../tests/fixtures/canonical_report_v3.json")
        );
    }

    #[test]
    fn setup_error_is_a_job_error_not_a_crash() {
        let program = figure1_like();
        let campaign = Campaign::new(
            vec![CampaignJob::new("broken", program, "no_such_proc")],
            CampaignOptions::default(),
        );
        let report = campaign.run().unwrap();
        assert!(report.completed());
        assert!(report.jobs[0].error.is_some());
    }
}
