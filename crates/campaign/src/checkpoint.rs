//! Campaign checkpointing: a durable commit after every pair, resume on
//! load.
//!
//! The checkpoint records the campaign's full cursor — which jobs have
//! predicted, which pairs are fuzzed, every completed [`PairReport`],
//! quarantine decisions, and trial failures — so a killed campaign resumed
//! from disk finishes with reports identical to an uninterrupted run.
//!
//! On disk the checkpoint is a **base** plus a **journal**
//! ([`crate::journal`]). The base, at the checkpoint path, is this
//! module's sealed document: written through [`crate::durable`] (temp
//! file, fsync, atomic rename, CRC-32 footer), so a crash mid-write leaves
//! the previous base intact and a torn file is *detected* on load rather
//! than trusted. The per-pair commit does not rewrite it: it appends one
//! CRC-framed delta record to `<checkpoint>.journal`, and the base is
//! rewritten only by a compaction. [`Checkpoint::load`] is the single
//! reader: base, then every whole and consistent journal record in order.
//! A torn or inconsistent record ends the replay there — the recovery
//! scan sidelines that journal, and the campaign redoes the lost pairs
//! deterministically.
//!
//! Granularity is one pair: a kill mid-pair loses only that pair's trials,
//! and re-running them is deterministic (seeds are `base_seed + trial`), so
//! nothing observable changes.
//!
//! This build writes format version 3 and still reads version 2 (no CRC
//! footer, no `memory_trials`).

use crate::artifact::{
    check_version, unseal_document, ArtifactError, FailureKind, TrialFailure, FORMAT_VERSION,
};
use crate::durable;
use crate::journal;
use crate::json::Json;
use crate::{JobOutcome, QuarantineReason, QuarantinedPair};
use sana::PruneReason;
use cil::flat::InstrId;
use detector::RacePair;
use racefuzzer::{PairReport, Provenance};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Header data validated on resume: a checkpoint taken under different
/// campaign parameters would silently produce different reports, so it is
/// rejected instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointHeader {
    /// Trials per pair the checkpointed campaign was running.
    pub trials_per_pair: usize,
    /// First trial seed.
    pub base_seed: u64,
}

/// A loaded checkpoint: header plus per-job progress.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Campaign parameters at checkpoint time.
    pub header: CheckpointHeader,
    /// Per-job progress, in campaign job order.
    pub jobs: Vec<JobOutcome>,
}

impl Checkpoint {
    /// Serializes the checkpoint document.
    pub fn to_json(&self) -> Json {
        document_json(&self.header, &self.jobs)
    }

    /// Deserializes a checkpoint document.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError`] on structural or version mismatch.
    pub fn from_json(value: &Json) -> Result<Checkpoint, ArtifactError> {
        let version = value
            .get("format_version")
            .and_then(Json::as_u64)
            .ok_or_else(|| ArtifactError::Malformed("missing format_version".into()))?;
        check_version(version)?;
        let header = CheckpointHeader {
            trials_per_pair: value
                .get("trials_per_pair")
                .and_then(Json::as_usize)
                .ok_or_else(|| ArtifactError::Malformed("bad trials_per_pair".into()))?,
            base_seed: value
                .get("base_seed")
                .and_then(Json::as_u64)
                .ok_or_else(|| ArtifactError::Malformed("bad base_seed".into()))?,
        };
        let jobs = value
            .get("jobs")
            .and_then(Json::as_arr)
            .ok_or_else(|| ArtifactError::Malformed("bad jobs".into()))?
            .iter()
            .map(job_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Checkpoint { header, jobs })
    }

    /// Durably writes the checkpoint to `path`: CRC-footed, staged through
    /// a temp file, fsynced, atomically renamed (failpoint sites
    /// `campaign.checkpoint.{write,sync,rename}`).
    ///
    /// This writes a base only. A journal left at `<path>.journal` is bound
    /// to the base it was started on, so it no longer applies.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        let sealed = sealed_document(&self.header, &self.jobs);
        durable::write_durable(path, journal::SITE, sealed.as_bytes())
            .map_err(|error| ArtifactError::Io(error.to_string()))
    }

    /// Loads the checkpoint at `path`: the base, verifying its CRC footer
    /// (a v2 base without one still loads), then the records of the
    /// journal at `<path>.journal` that are bound to this base, up to the
    /// first torn or inconsistent one.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError`] if the base is unreadable, torn, or
    /// invalid. A bad journal record is not an error: the state before it
    /// is one the campaign really passed through.
    pub fn load(path: &Path) -> Result<Checkpoint, ArtifactError> {
        Checkpoint::load_journaled(path).map(|(checkpoint, _)| checkpoint)
    }

    /// [`Checkpoint::load`], also returning why the journal replay stopped
    /// early, if it did (the recovery scan sidelines such a journal).
    pub(crate) fn load_journaled(
        path: &Path,
    ) -> Result<(Checkpoint, Option<String>), ArtifactError> {
        let text =
            std::fs::read_to_string(path).map_err(|error| ArtifactError::Io(error.to_string()))?;
        let (value, _) = unseal_document(&text)?;
        let mut checkpoint = Checkpoint::from_json(&value)?;
        let bad_record = journal::replay(
            &journal::journal_path(path),
            durable::crc32(text.as_bytes()),
            &mut checkpoint.jobs,
        );
        Ok((checkpoint, bad_record))
    }
}

fn document_json(header: &CheckpointHeader, jobs: &[JobOutcome]) -> Json {
    Json::obj(vec![
        ("format_version", Json::u64(FORMAT_VERSION)),
        ("trials_per_pair", Json::usize(header.trials_per_pair)),
        ("base_seed", Json::u64(header.base_seed)),
        ("jobs", Json::Arr(jobs.iter().map(job_to_json).collect())),
    ])
}

/// The sealed base document for `header` and `jobs`: exactly the bytes
/// [`Checkpoint::save`] writes.
pub(crate) fn sealed_document(header: &CheckpointHeader, jobs: &[JobOutcome]) -> String {
    durable::seal(&document_json(header, jobs).to_text())
}

pub(crate) fn pair_to_json(pair: &RacePair) -> Json {
    Json::Arr(vec![
        Json::u64(u64::from(pair.first().0)),
        Json::u64(u64::from(pair.second().0)),
    ])
}

pub(crate) fn pair_from_json(value: &Json) -> Result<RacePair, ArtifactError> {
    let items = value
        .as_arr()
        .filter(|items| items.len() == 2)
        .ok_or_else(|| ArtifactError::Malformed("bad pair".into()))?;
    let first = items[0]
        .as_u32()
        .ok_or_else(|| ArtifactError::Malformed("bad pair".into()))?;
    let second = items[1]
        .as_u32()
        .ok_or_else(|| ArtifactError::Malformed("bad pair".into()))?;
    Ok(RacePair::new(InstrId(first), InstrId(second)))
}

fn opt_u64(value: Option<u64>) -> Json {
    match value {
        Some(value) => Json::u64(value),
        None => Json::Null,
    }
}

pub(crate) fn report_to_json(report: &PairReport) -> Json {
    Json::obj(vec![
        ("target", pair_to_json(&report.target)),
        ("trials", Json::usize(report.trials)),
        ("hits", Json::usize(report.hits)),
        (
            "real_pairs",
            Json::Arr(report.real_pairs.iter().map(pair_to_json).collect()),
        ),
        ("exception_trials", Json::usize(report.exception_trials)),
        (
            "exceptions",
            Json::Obj(
                report
                    .exceptions
                    .iter()
                    .map(|(name, count)| (name.to_string(), Json::usize(*count)))
                    .collect(),
            ),
        ),
        ("deadlock_trials", Json::usize(report.deadlock_trials)),
        ("memory_trials", Json::usize(report.memory_trials)),
        ("first_hit_seed", opt_u64(report.first_hit_seed)),
        (
            "first_exception_seed",
            opt_u64(report.first_exception_seed),
        ),
    ])
}

pub(crate) fn report_from_json(value: &Json) -> Result<PairReport, ArtifactError> {
    let field = |key: &str| {
        value
            .get(key)
            .ok_or_else(|| ArtifactError::Malformed(format!("report missing '{key}'")))
    };
    let usize_field = |key: &str| -> Result<usize, ArtifactError> {
        field(key)?
            .as_usize()
            .ok_or_else(|| ArtifactError::Malformed(format!("bad report field '{key}'")))
    };
    let real_pairs: BTreeSet<RacePair> = field("real_pairs")?
        .as_arr()
        .ok_or_else(|| ArtifactError::Malformed("bad real_pairs".into()))?
        .iter()
        .map(pair_from_json)
        .collect::<Result<_, _>>()?;
    // Keys re-enter the shared-`Arc<str>` representation the reports use
    // in memory; a resumed report therefore merges with live reports
    // without any key-type conversion.
    let exceptions: BTreeMap<std::sync::Arc<str>, usize> = match field("exceptions")? {
        Json::Obj(fields) => fields
            .iter()
            .map(|(name, count)| {
                count
                    .as_usize()
                    .map(|count| (std::sync::Arc::from(name.as_str()), count))
                    .ok_or_else(|| ArtifactError::Malformed("bad exception count".into()))
            })
            .collect::<Result<_, _>>()?,
        _ => return Err(ArtifactError::Malformed("bad exceptions".into())),
    };
    let mut report = PairReport::empty(pair_from_json(field("target")?)?);
    report.trials = usize_field("trials")?;
    report.hits = usize_field("hits")?;
    report.real_pairs = real_pairs;
    report.exception_trials = usize_field("exception_trials")?;
    report.exceptions = exceptions;
    report.deadlock_trials = usize_field("deadlock_trials")?;
    // Absent in format v2 checkpoints, which predate the heap budget.
    report.memory_trials = value
        .get("memory_trials")
        .and_then(Json::as_usize)
        .unwrap_or(0);
    report.first_hit_seed = value.get("first_hit_seed").and_then(Json::as_u64);
    report.first_exception_seed = value.get("first_exception_seed").and_then(Json::as_u64);
    Ok(report)
}

pub(crate) fn failure_to_json(failure: &TrialFailure) -> Json {
    Json::obj(vec![
        ("pair", pair_to_json(&failure.pair)),
        ("seed", Json::u64(failure.seed)),
        ("attempt", Json::u64(u64::from(failure.attempt))),
        ("step_budget", Json::u64(failure.step_budget)),
        ("kind", Json::str(failure.kind.tag())),
        (
            "message",
            match failure.kind.message() {
                Some(message) => Json::str(message),
                None => Json::Null,
            },
        ),
    ])
}

pub(crate) fn failure_from_json(value: &Json) -> Result<TrialFailure, ArtifactError> {
    let kind_tag = value
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| ArtifactError::Malformed("bad failure kind".into()))?;
    let message = value.get("message").and_then(Json::as_str);
    let kind = failure_kind_from_parts(kind_tag, message)?;
    Ok(TrialFailure {
        pair: pair_from_json(
            value
                .get("pair")
                .ok_or_else(|| ArtifactError::Malformed("failure missing pair".into()))?,
        )?,
        seed: value
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| ArtifactError::Malformed("bad failure seed".into()))?,
        attempt: value
            .get("attempt")
            .and_then(Json::as_u32)
            .ok_or_else(|| ArtifactError::Malformed("bad failure attempt".into()))?,
        step_budget: value
            .get("step_budget")
            .and_then(Json::as_u64)
            .ok_or_else(|| ArtifactError::Malformed("bad failure step_budget".into()))?,
        kind,
    })
}

fn failure_kind_from_parts(
    tag: &str,
    message: Option<&str>,
) -> Result<FailureKind, ArtifactError> {
    FailureKind::from_parts(tag, message)
        .ok_or_else(|| ArtifactError::Malformed(format!("unknown failure kind '{tag}'")))
}

pub(crate) fn quarantine_to_json(entry: &QuarantinedPair) -> Json {
    Json::obj(vec![
        ("pair", pair_to_json(&entry.pair)),
        ("seed", Json::u64(entry.seed)),
        ("attempts", Json::u64(u64::from(entry.attempts))),
        ("reason", Json::str(entry.reason.tag())),
        ("detail", Json::Str(entry.reason.detail())),
    ])
}

fn quarantine_reason_from_parts(
    tag: &str,
    detail: &str,
) -> Result<QuarantineReason, ArtifactError> {
    match tag {
        "trial_failures" => Ok(QuarantineReason::TrialFailures(detail.to_owned())),
        "statically_pruned" => PruneReason::from_tag(detail)
            .map(QuarantineReason::StaticallyPruned)
            .ok_or_else(|| ArtifactError::Malformed(format!("unknown prune reason '{detail}'"))),
        "crash_loop" => detail
            .parse::<u32>()
            .map(QuarantineReason::CrashLoop)
            .map_err(|_| ArtifactError::Malformed(format!("bad crash_loop count '{detail}'"))),
        "corrupt_artifact" => Ok(QuarantineReason::CorruptArtifact(detail.to_owned())),
        _ => Err(ArtifactError::Malformed(format!(
            "unknown quarantine reason '{tag}'"
        ))),
    }
}

pub(crate) fn quarantine_from_json(value: &Json) -> Result<QuarantinedPair, ArtifactError> {
    let tag = value
        .get("reason")
        .and_then(Json::as_str)
        .ok_or_else(|| ArtifactError::Malformed("bad quarantine reason".into()))?;
    let detail = value.get("detail").and_then(Json::as_str).unwrap_or("");
    Ok(QuarantinedPair {
        pair: pair_from_json(
            value
                .get("pair")
                .ok_or_else(|| ArtifactError::Malformed("quarantine missing pair".into()))?,
        )?,
        seed: value
            .get("seed")
            .and_then(Json::as_u64)
            .ok_or_else(|| ArtifactError::Malformed("bad quarantine seed".into()))?,
        attempts: value
            .get("attempts")
            .and_then(Json::as_u32)
            .ok_or_else(|| ArtifactError::Malformed("bad quarantine attempts".into()))?,
        reason: quarantine_reason_from_parts(tag, detail)?,
    })
}

pub(crate) fn provenance_to_json(provenance: &Provenance) -> Json {
    Json::str(provenance.tag())
}

pub(crate) fn provenance_from_json(value: &Json) -> Result<Provenance, ArtifactError> {
    value
        .as_str()
        .and_then(Provenance::from_tag)
        .ok_or_else(|| ArtifactError::Malformed("bad provenance tag".into()))
}

pub(crate) fn job_to_json(job: &JobOutcome) -> Json {
    Json::obj(vec![
        ("name", Json::str(&job.name)),
        ("entry", Json::str(&job.entry)),
        (
            "program_digest",
            Json::Str(format!("{:016x}", job.program_digest)),
        ),
        ("predicted", Json::Bool(job.predicted)),
        (
            "potential",
            Json::Arr(job.potential.iter().map(pair_to_json).collect()),
        ),
        (
            "provenance",
            Json::Arr(job.provenance.iter().map(provenance_to_json).collect()),
        ),
        (
            "reports",
            Json::Arr(job.reports.iter().map(report_to_json).collect()),
        ),
        (
            "quarantined",
            Json::Arr(job.quarantined.iter().map(quarantine_to_json).collect()),
        ),
        (
            "soundness_bugs",
            Json::Arr(job.soundness_bugs.iter().map(|bug| Json::str(bug)).collect()),
        ),
        (
            "failures",
            Json::Arr(job.failures.iter().map(failure_to_json).collect()),
        ),
        ("next_pair", Json::usize(job.next_pair)),
        (
            "error",
            match &job.error {
                Some(message) => Json::str(message),
                None => Json::Null,
            },
        ),
        ("done", Json::Bool(job.done)),
    ])
}

fn job_from_json(value: &Json) -> Result<JobOutcome, ArtifactError> {
    let field = |key: &str| {
        value
            .get(key)
            .ok_or_else(|| ArtifactError::Malformed(format!("job missing '{key}'")))
    };
    let digest_text = field("program_digest")?
        .as_str()
        .ok_or_else(|| ArtifactError::Malformed("bad program_digest".into()))?;
    let potential: Vec<RacePair> = field("potential")?
        .as_arr()
        .ok_or_else(|| ArtifactError::Malformed("bad potential".into()))?
        .iter()
        .map(pair_from_json)
        .collect::<Result<_, _>>()?;
    // Pre-provenance checkpoints have no `provenance` array; every pair in
    // them came from dynamic Phase 1.
    let provenance = match value.get("provenance") {
        Some(entry) => entry
            .as_arr()
            .ok_or_else(|| ArtifactError::Malformed("bad provenance".into()))?
            .iter()
            .map(provenance_from_json)
            .collect::<Result<_, _>>()?,
        None => vec![Provenance::Dynamic; potential.len()],
    };
    Ok(JobOutcome {
        name: field("name")?
            .as_str()
            .ok_or_else(|| ArtifactError::Malformed("bad job name".into()))?
            .to_owned(),
        entry: field("entry")?
            .as_str()
            .ok_or_else(|| ArtifactError::Malformed("bad job entry".into()))?
            .to_owned(),
        program_digest: u64::from_str_radix(digest_text, 16)
            .map_err(|_| ArtifactError::Malformed("bad program_digest".into()))?,
        predicted: field("predicted")?
            .as_bool()
            .ok_or_else(|| ArtifactError::Malformed("bad predicted".into()))?,
        potential,
        provenance,
        reports: field("reports")?
            .as_arr()
            .ok_or_else(|| ArtifactError::Malformed("bad reports".into()))?
            .iter()
            .map(report_from_json)
            .collect::<Result<_, _>>()?,
        quarantined: field("quarantined")?
            .as_arr()
            .ok_or_else(|| ArtifactError::Malformed("bad quarantined".into()))?
            .iter()
            .map(quarantine_from_json)
            .collect::<Result<_, _>>()?,
        soundness_bugs: field("soundness_bugs")?
            .as_arr()
            .ok_or_else(|| ArtifactError::Malformed("bad soundness_bugs".into()))?
            .iter()
            .map(|bug| {
                bug.as_str()
                    .map(str::to_owned)
                    .ok_or_else(|| ArtifactError::Malformed("bad soundness bug".into()))
            })
            .collect::<Result<_, _>>()?,
        failures: field("failures")?
            .as_arr()
            .ok_or_else(|| ArtifactError::Malformed("bad failures".into()))?
            .iter()
            .map(failure_from_json)
            .collect::<Result<_, _>>()?,
        next_pair: field("next_pair")?
            .as_usize()
            .ok_or_else(|| ArtifactError::Malformed("bad next_pair".into()))?,
        error: value.get("error").and_then(Json::as_str).map(str::to_owned),
        done: field("done")?
            .as_bool()
            .ok_or_else(|| ArtifactError::Malformed("bad done".into()))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_job() -> JobOutcome {
        let pair = RacePair::new(InstrId(2), InstrId(9));
        let mut report = PairReport::empty(pair);
        report.trials = 7;
        report.hits = 3;
        report.real_pairs.insert(pair);
        report.exception_trials = 1;
        report.exceptions.insert(std::sync::Arc::from("Error1"), 1);
        report.first_hit_seed = Some(4);
        report.first_exception_seed = Some(6);
        JobOutcome {
            name: "figure1".to_owned(),
            entry: "main".to_owned(),
            program_digest: 0xdead_beef_0000_1111,
            predicted: true,
            potential: vec![pair],
            provenance: vec![Provenance::Both],
            reports: vec![report],
            quarantined: vec![
                QuarantinedPair {
                    pair,
                    seed: 11,
                    attempts: 3,
                    reason: QuarantineReason::TrialFailures("step_budget".to_owned()),
                },
                QuarantinedPair {
                    pair,
                    seed: 1,
                    attempts: 0,
                    reason: QuarantineReason::StaticallyPruned(PruneReason::MhpImpossible),
                },
                QuarantinedPair {
                    pair,
                    seed: 2,
                    attempts: 0,
                    reason: QuarantineReason::StaticallyPruned(PruneReason::FootprintNoAlias),
                },
            ],
            soundness_bugs: vec!["pair #2/#9 confirmed but refuted".to_owned()],
            failures: vec![TrialFailure {
                pair,
                seed: 11,
                attempt: 2,
                step_budget: 2048,
                kind: FailureKind::Panic("boom".to_owned()),
            }],
            next_pair: 1,
            error: None,
            done: false,
        }
    }

    #[test]
    fn checkpoint_round_trips() {
        let checkpoint = Checkpoint {
            header: CheckpointHeader {
                trials_per_pair: 25,
                base_seed: 1,
            },
            jobs: vec![sample_job()],
        };
        let text = checkpoint.to_json().to_text();
        let loaded = Checkpoint::from_json(&json::parse(&text).unwrap()).unwrap();
        assert_eq!(loaded.header, checkpoint.header);
        assert_eq!(
            format!("{:?}", loaded.jobs),
            format!("{:?}", checkpoint.jobs)
        );
        // Canonical writing: serialize(parse(text)) == text.
        assert_eq!(loaded.to_json().to_text(), text);
    }

    #[test]
    fn atomic_save_then_load() {
        let dir = std::env::temp_dir().join("campaign-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        let checkpoint = Checkpoint {
            header: CheckpointHeader {
                trials_per_pair: 5,
                base_seed: 9,
            },
            jobs: vec![sample_job()],
        };
        checkpoint.save(&path).unwrap();
        assert!(!durable::tmp_path(&path).exists());
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.header, checkpoint.header);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_checkpoint_is_rejected_not_trusted() {
        let dir = std::env::temp_dir().join(format!("campaign-torn-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        let checkpoint = Checkpoint {
            header: CheckpointHeader {
                trials_per_pair: 5,
                base_seed: 9,
            },
            jobs: vec![sample_job()],
        };
        checkpoint.save(&path).unwrap();
        // Simulate a torn write: drop the second half of the file.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(Checkpoint::load(&path).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn deeply_nested_legacy_checkpoint_is_an_error_not_a_crash() {
        let dir = std::env::temp_dir().join(format!("campaign-nest-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        // No CRC footer, so it is read as a legacy document and parsed.
        std::fs::write(&path, "[".repeat(1_000_000)).unwrap();
        let error = Checkpoint::load(&path).unwrap_err();
        assert!(
            matches!(&error, ArtifactError::Malformed(message) if message.contains("nesting")),
            "{error}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v2_checkpoint_without_footer_still_loads() {
        let dir = std::env::temp_dir().join(format!("campaign-v2-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        let checkpoint = Checkpoint {
            header: CheckpointHeader {
                trials_per_pair: 5,
                base_seed: 9,
            },
            jobs: vec![sample_job()],
        };
        // Rewrite the document the way a v2 build would have: version 2,
        // no memory_trials line, bare JSON with no CRC footer. (The
        // memory_trials line carries a trailing comma, so dropping the
        // whole line keeps the JSON valid.)
        let text: String = checkpoint
            .to_json()
            .to_text()
            .replace("\"format_version\": 3,", "\"format_version\": 2,")
            .lines()
            .filter(|line| !line.trim_start().starts_with("\"memory_trials\""))
            .collect::<Vec<_>>()
            .join("\n");
        std::fs::write(&path, text).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        assert_eq!(loaded.header, checkpoint.header);
        assert_eq!(loaded.jobs[0].reports[0].memory_trials, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
