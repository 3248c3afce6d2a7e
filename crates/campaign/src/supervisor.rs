//! The self-healing supervisor loop and its crash ledger.
//!
//! A campaign process can die outright — an injected abort, an OOM kill, a
//! real segfault in the engine. Checkpoint/resume already makes the *state*
//! survive; this module makes the *run* survive: [`supervise`] restarts the
//! child after each abnormal exit with exponential backoff, resetting the
//! backoff whenever the checkpoint cursor shows forward progress.
//!
//! The pathological case is a pair whose trials deterministically kill the
//! process: resume alone would re-run it forever. The supervisor watches
//! the checkpoint cursor across crashes; when the same in-flight pair is on
//! deck for [`SupervisorOptions::crash_quarantine_threshold`] consecutive
//! crashes, it records the pair in the **crash ledger** — a durable,
//! CRC-footed file the next campaign run loads and obeys, quarantining the
//! pair with [`crate::QuarantineReason::CrashLoop`] before running a single
//! trial of it.
//!
//! The child abstraction is a trait so unit tests can supervise a closure;
//! the `campaign-torture` binary supervises a real re-exec'd process.

use crate::artifact::{check_version, unseal_document, ArtifactError, FORMAT_VERSION};
use crate::checkpoint::Checkpoint;
use crate::durable;
use crate::json::Json;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// One crash-loop quarantine decision.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LedgerEntry {
    /// Job whose pair kept killing the process.
    pub job: String,
    /// Index into the job's `potential` list (the checkpoint cursor value
    /// at each crash).
    pub pair_index: usize,
    /// Consecutive crashes observed on this pair before quarantining.
    pub crashes: u32,
}

/// The durable crash ledger: instructions from the supervisor to future
/// campaign runs about pairs that must not be fuzzed in-process again.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CrashLedger {
    /// Quarantine instructions, in the order they were decided.
    pub entries: Vec<LedgerEntry>,
}

impl CrashLedger {
    /// A ledger with no entries.
    pub fn empty() -> Self {
        CrashLedger::default()
    }

    /// The crash count for `(job, pair_index)`, if the pair is listed.
    pub fn lookup(&self, job: &str, pair_index: usize) -> Option<u32> {
        self.entries
            .iter()
            .find(|entry| entry.job == job && entry.pair_index == pair_index)
            .map(|entry| entry.crashes)
    }

    /// Adds or updates an entry.
    pub fn note(&mut self, job: &str, pair_index: usize, crashes: u32) {
        if let Some(entry) = self
            .entries
            .iter_mut()
            .find(|entry| entry.job == job && entry.pair_index == pair_index)
        {
            entry.crashes = entry.crashes.max(crashes);
        } else {
            self.entries.push(LedgerEntry {
                job: job.to_owned(),
                pair_index,
                crashes,
            });
        }
    }

    /// Serializes the ledger document.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("format_version", Json::u64(FORMAT_VERSION)),
            (
                "entries",
                Json::Arr(
                    self.entries
                        .iter()
                        .map(|entry| {
                            Json::obj(vec![
                                ("job", Json::str(&entry.job)),
                                ("pair_index", Json::usize(entry.pair_index)),
                                ("crashes", Json::u64(u64::from(entry.crashes))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Deserializes a ledger document.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError`] on structural or version mismatch.
    pub fn from_json(value: &Json) -> Result<CrashLedger, ArtifactError> {
        let version = value
            .get("format_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| ArtifactError::Malformed("missing format_version".into()))?;
        check_version(version)?;
        let entries = value
            .get("entries")
            .and_then(Json::as_arr)
            .ok_or_else(|| ArtifactError::Malformed("bad ledger entries".into()))?
            .iter()
            .map(|entry| {
                Ok(LedgerEntry {
                    job: entry
                        .get("job")
                        .and_then(Json::as_str)
                        .ok_or_else(|| ArtifactError::Malformed("bad ledger job".into()))?
                        .to_owned(),
                    pair_index: entry
                        .get("pair_index")
                        .and_then(Json::as_usize)
                        .ok_or_else(|| ArtifactError::Malformed("bad ledger pair_index".into()))?,
                    crashes: entry
                        .get("crashes")
                        .and_then(Json::as_u32)
                        .ok_or_else(|| ArtifactError::Malformed("bad ledger crashes".into()))?,
                })
            })
            .collect::<Result<Vec<_>, ArtifactError>>()?;
        Ok(CrashLedger { entries })
    }

    /// Durably writes the ledger (failpoint sites
    /// `campaign.ledger.{write,sync,rename}`).
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        let sealed = durable::seal(&self.to_json().to_text());
        durable::write_durable(path, "campaign.ledger", sealed.as_bytes())
            .map_err(|error| ArtifactError::Io(error.to_string()))
    }

    /// Loads a ledger, verifying the CRC footer.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError`] if the file is unreadable, torn, or
    /// invalid.
    pub fn load(path: &Path) -> Result<CrashLedger, ArtifactError> {
        let text =
            std::fs::read_to_string(path).map_err(|error| ArtifactError::Io(error.to_string()))?;
        let (value, _) = unseal_document(&text)?;
        CrashLedger::from_json(&value)
    }
}

/// How one child invocation ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChildExit {
    /// The child finished its campaign (exit 0).
    Clean,
    /// The child died abnormally; the payload describes the exit status.
    Crashed(String),
}

/// One supervisable unit of campaign work. The torture binary implements
/// this by re-exec'ing itself; unit tests implement it with closures.
pub trait Child {
    /// Runs the child once. `attempt` is 1-based.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::Error`] only for supervisor-level failures
    /// (cannot spawn at all) — a crashing child is a [`ChildExit::Crashed`],
    /// not an error.
    fn run(&mut self, attempt: u32) -> std::io::Result<ChildExit>;
}

impl<F> Child for F
where
    F: FnMut(u32) -> std::io::Result<ChildExit>,
{
    fn run(&mut self, attempt: u32) -> std::io::Result<ChildExit> {
        self(attempt)
    }
}

/// Tunables for [`supervise`].
#[derive(Clone, Debug)]
pub struct SupervisorOptions {
    /// The campaign's checkpoint file — the supervisor reads (never
    /// writes) it to measure progress between crashes.
    pub checkpoint_path: PathBuf,
    /// Where crash-loop quarantine decisions are recorded.
    pub ledger_path: PathBuf,
    /// Append-only human-readable recovery log; `None` disables logging.
    pub log_path: Option<PathBuf>,
    /// Abnormal exits tolerated before the supervisor gives up.
    pub max_restarts: u32,
    /// Backoff before the first restart (and after any crash that made
    /// progress).
    pub initial_backoff: Duration,
    /// Backoff multiplier for consecutive crashes without progress.
    pub backoff_factor: u32,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Consecutive crashes on the same in-flight pair before it is written
    /// to the crash ledger.
    pub crash_quarantine_threshold: u32,
}

impl SupervisorOptions {
    /// Defaults for the given state paths.
    pub fn new(checkpoint_path: PathBuf, ledger_path: PathBuf) -> Self {
        SupervisorOptions {
            checkpoint_path,
            ledger_path,
            log_path: None,
            max_restarts: 64,
            initial_backoff: Duration::from_millis(10),
            backoff_factor: 2,
            max_backoff: Duration::from_secs(2),
            crash_quarantine_threshold: 3,
        }
    }
}

/// What a supervision run did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SupervisorOutcome {
    /// Child invocations (including the final clean one, if any).
    pub attempts: u32,
    /// Abnormal child exits observed.
    pub crashes: u32,
    /// Crash-loop pairs written to the ledger by this supervision run.
    pub quarantined: u32,
    /// `true` if `max_restarts` was exhausted before a clean exit.
    pub gave_up: bool,
}

/// The per-job progress fingerprint used to compare checkpoints across
/// crashes: `(job name, next_pair, done)` for every job.
type Cursor = Vec<(String, usize, bool)>;

fn read_cursor(path: &Path) -> Option<Cursor> {
    let checkpoint = Checkpoint::load(path).ok()?;
    Some(
        checkpoint
            .jobs
            .iter()
            .map(|job| (job.name.clone(), job.next_pair, job.done))
            .collect(),
    )
}

/// The pair the child was working on when it crashed: the cursor of the
/// first unfinished job.
fn in_flight(cursor: &Cursor) -> Option<(&str, usize)> {
    cursor
        .iter()
        .find(|(_, _, done)| !done)
        .map(|(job, next_pair, _)| (job.as_str(), *next_pair))
}

fn log_line(options: &SupervisorOptions, line: &str) {
    let Some(path) = &options.log_path else {
        return;
    };
    if let Ok(mut file) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        let _ = writeln!(file, "{line}");
    }
}

/// Runs `child` to completion, restarting it after abnormal exits with
/// exponential backoff and quarantining crash-looping pairs via the ledger.
///
/// # Errors
///
/// Returns [`std::io::Error`] only if the child cannot be started at all;
/// crashes are handled, counted, and survived.
pub fn supervise(
    child: &mut dyn Child,
    options: &SupervisorOptions,
) -> std::io::Result<SupervisorOutcome> {
    let mut outcome = SupervisorOutcome {
        attempts: 0,
        crashes: 0,
        quarantined: 0,
        gave_up: false,
    };
    let mut backoff = options.initial_backoff;
    let mut last_cursor: Option<Cursor> = None;
    let mut consecutive: u32 = 0;
    loop {
        outcome.attempts += 1;
        let status = child.run(outcome.attempts)?;
        match status {
            ChildExit::Clean => {
                log_line(
                    options,
                    &format!(
                        "clean exit on attempt {} after {} crash(es)",
                        outcome.attempts, outcome.crashes
                    ),
                );
                return Ok(outcome);
            }
            ChildExit::Crashed(status) => {
                outcome.crashes += 1;
                let cursor = read_cursor(&options.checkpoint_path);
                let progressed = cursor != last_cursor;
                if progressed {
                    consecutive = 1;
                    backoff = options.initial_backoff;
                } else {
                    consecutive += 1;
                    backoff = backoff
                        .saturating_mul(options.backoff_factor.max(1))
                        .min(options.max_backoff);
                }
                log_line(
                    options,
                    &format!(
                        "crash #{} on attempt {} ({status}); progressed={progressed} \
                         consecutive={consecutive} backoff={}ms",
                        outcome.crashes,
                        outcome.attempts,
                        backoff.as_millis()
                    ),
                );
                if outcome.crashes > options.max_restarts {
                    outcome.gave_up = true;
                    log_line(
                        options,
                        &format!("giving up after {} crashes", outcome.crashes),
                    );
                    return Ok(outcome);
                }
                if consecutive >= options.crash_quarantine_threshold {
                    if let Some((job, pair_index)) = cursor.as_ref().and_then(|c| in_flight(c)) {
                        let mut ledger = CrashLedger::load(&options.ledger_path)
                            .unwrap_or_else(|_| CrashLedger::empty());
                        ledger.note(job, pair_index, consecutive);
                        if ledger.save(&options.ledger_path).is_ok() {
                            outcome.quarantined += 1;
                            log_line(
                                options,
                                &format!(
                                    "quarantining {job} pair #{pair_index} after \
                                     {consecutive} consecutive crashes"
                                ),
                            );
                            // Give the next run (which will skip the pair) a
                            // fresh crash budget.
                            consecutive = 0;
                        }
                    }
                }
                last_cursor = cursor;
                std::thread::sleep(backoff);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("supervisor-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn options(dir: &Path) -> SupervisorOptions {
        SupervisorOptions {
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            ..SupervisorOptions::new(dir.join("checkpoint.json"), dir.join("ledger.json"))
        }
    }

    #[test]
    fn ledger_round_trips_durably() {
        let dir = scratch("ledger");
        let path = dir.join("ledger.json");
        let mut ledger = CrashLedger::empty();
        ledger.note("fig1", 3, 4);
        ledger.note("fig2", 0, 3);
        ledger.note("fig1", 3, 2); // keeps the max
        ledger.save(&path).unwrap();
        let loaded = CrashLedger::load(&path).unwrap();
        assert_eq!(loaded, ledger);
        assert_eq!(loaded.lookup("fig1", 3), Some(4));
        assert_eq!(loaded.lookup("fig1", 4), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn supervisor_restarts_until_clean() {
        let dir = scratch("restarts");
        let mut runs = 0u32;
        let outcome = supervise(
            &mut |attempt: u32| {
                runs += 1;
                Ok(if attempt < 4 {
                    ChildExit::Crashed("signal 6".to_owned())
                } else {
                    ChildExit::Clean
                })
            },
            &options(&dir),
        )
        .unwrap();
        assert_eq!(runs, 4);
        assert_eq!(outcome.attempts, 4);
        assert_eq!(outcome.crashes, 3);
        assert!(!outcome.gave_up);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn supervisor_gives_up_at_max_restarts() {
        let dir = scratch("gives-up");
        let opts = SupervisorOptions {
            max_restarts: 5,
            ..options(&dir)
        };
        let outcome = supervise(
            &mut |_: u32| Ok(ChildExit::Crashed("always".to_owned())),
            &opts,
        )
        .unwrap();
        assert!(outcome.gave_up);
        assert_eq!(outcome.crashes, 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeated_crashes_on_one_pair_reach_the_ledger() {
        let dir = scratch("crash-loop");
        let opts = SupervisorOptions {
            max_restarts: 10,
            ..options(&dir)
        };
        // A fake checkpoint that never advances: job "stuck" is forever at
        // pair 2.
        let checkpoint_path = opts.checkpoint_path.clone();
        let write_stuck_checkpoint = {
            let text = r#"{
  "format_version": 2,
  "trials_per_pair": 5,
  "base_seed": 1,
  "jobs": [
    {
      "name": "stuck", "entry": "main", "program_digest": "0000000000000001",
      "predicted": true, "potential": [[0, 1], [2, 3], [4, 5], [6, 7]],
      "reports": [], "quarantined": [], "soundness_bugs": [], "failures": [],
      "next_pair": 2, "error": null, "done": false
    }
  ]
}"#;
            move || std::fs::write(&checkpoint_path, text).unwrap()
        };
        let outcome = supervise(
            &mut |attempt: u32| {
                write_stuck_checkpoint();
                Ok(if attempt < 5 {
                    ChildExit::Crashed("abort".to_owned())
                } else {
                    ChildExit::Clean
                })
            },
            &opts,
        )
        .unwrap();
        assert!(outcome.quarantined >= 1);
        let ledger = CrashLedger::load(&opts.ledger_path).unwrap();
        assert_eq!(ledger.lookup("stuck", 2), Some(3));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cursor_advances_through_journal_records_between_compactions() {
        use crate::checkpoint::CheckpointHeader;
        use crate::journal::CheckpointWriter;
        use crate::JobOutcome;
        use cil::flat::InstrId;
        use detector::RacePair;
        use racefuzzer::{PairReport, Provenance};

        let dir = scratch("journal-cursor");
        let opts = SupervisorOptions {
            max_restarts: 20,
            log_path: Some(dir.join("recovery.log")),
            ..options(&dir)
        };
        let potential: Vec<RacePair> = (0..40)
            .map(|i| RacePair::new(InstrId(i), InstrId(i + 100)))
            .collect();
        let mut jobs = vec![JobOutcome {
            name: "moving".to_owned(),
            entry: "main".to_owned(),
            program_digest: 1,
            predicted: true,
            provenance: vec![Provenance::Dynamic; potential.len()],
            potential,
            reports: Vec::new(),
            quarantined: Vec::new(),
            soundness_bugs: Vec::new(),
            failures: Vec::new(),
            next_pair: 0,
            error: None,
            done: false,
        }];
        let header = CheckpointHeader {
            trials_per_pair: 5,
            base_seed: 1,
        };
        let mut writer = CheckpointWriter::new(Some(opts.checkpoint_path.clone()), header);
        writer.compact(&jobs).unwrap();
        let base = std::fs::read(&opts.checkpoint_path).unwrap();
        // Each crashing attempt commits one pair as a journal record and
        // never compacts: only the journal shows the progress.
        let outcome = supervise(
            &mut |attempt: u32| {
                let target = jobs[0].potential[jobs[0].next_pair];
                jobs[0].reports.push(PairReport::empty(target));
                jobs[0].next_pair += 1;
                writer.save(&jobs).unwrap();
                Ok(if attempt < 6 {
                    ChildExit::Crashed("abort".to_owned())
                } else {
                    ChildExit::Clean
                })
            },
            &opts,
        )
        .unwrap();
        assert_eq!(std::fs::read(&opts.checkpoint_path).unwrap(), base);
        assert_eq!(outcome.crashes, 5);
        assert_eq!(outcome.quarantined, 0, "every crash made progress");
        let log = std::fs::read_to_string(dir.join("recovery.log")).unwrap();
        assert_eq!(log.matches("progressed=true").count(), 5, "{log}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn progress_resets_the_crash_count() {
        let dir = scratch("progress");
        let opts = SupervisorOptions {
            max_restarts: 20,
            ..options(&dir)
        };
        // The cursor advances on every crash: never the same pair twice, so
        // nothing should ever be quarantined.
        let checkpoint_path = opts.checkpoint_path.clone();
        let outcome = supervise(
            &mut |attempt: u32| {
                let text = format!(
                    r#"{{
  "format_version": 2,
  "trials_per_pair": 5,
  "base_seed": 1,
  "jobs": [
    {{
      "name": "moving", "entry": "main", "program_digest": "0000000000000001",
      "predicted": true, "potential": [[0, 1], [2, 3], [4, 5], [6, 7], [8, 9], [10, 11], [12, 13], [14, 15]],
      "reports": [], "quarantined": [], "soundness_bugs": [], "failures": [],
      "next_pair": {attempt}, "error": null, "done": false
    }}
  ]
}}"#
                );
                std::fs::write(&checkpoint_path, text).unwrap();
                Ok(if attempt < 7 {
                    ChildExit::Crashed("abort".to_owned())
                } else {
                    ChildExit::Clean
                })
            },
            &opts,
        )
        .unwrap();
        assert_eq!(outcome.quarantined, 0);
        assert!(!opts.ledger_path.exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
