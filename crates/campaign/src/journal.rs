//! The checkpoint journal: a per-pair commit appends one delta record
//! instead of rewriting the whole checkpoint.
//!
//! A campaign commits after every pair. Rewriting the full checkpoint each
//! time costs time proportional to everything committed so far, so a run's
//! total commit cost would grow quadratically with its length. Instead the
//! checkpoint on disk is two files:
//!
//! * the **base**, at the checkpoint path: a complete sealed checkpoint
//!   document ([`crate::checkpoint`]), written only by a *compaction*
//!   through [`durable::write_durable`];
//! * the **journal**, at `<checkpoint>.journal`: a header line binding it
//!   to one base, then one line per commit since that base was written.
//!
//! ```text
//! campaign-journal base-crc32=1a2b3c4d
//! 9f8e7d6c [{"job":0,"at":[3,0,0,0],"reports":[{..}],"next_pair":4}]
//! ```
//!
//! Each record line is the CRC-32 of its JSON payload, a space, and the
//! payload: an array with one entry per job that changed since the
//! previous commit. An entry carries the job index, the lengths `at` of
//! its `reports`, `quarantined`, `failures` and `soundness_bugs` *before*
//! the record, the new tails of those vectors, and whichever of
//! `potential`/`provenance` (once predicted), `next_pair`, `error` and
//! `done` changed. Every one of those fields only ever grows or is set
//! once, which is what makes a delta a complete description of a commit.
//!
//! **Binding.** The header names the CRC-32 of the base's sealed bytes. A
//! journal whose header does not match its base is *stale* — left by a
//! crash after a compaction renamed the new base into place but before it
//! reset the journal — and is ignored, so no record is ever applied twice.
//!
//! **Reading.** [`crate::Checkpoint::load`] applies records in order up
//! to the first one that is torn (no line terminator), fails its CRC, or
//! does not extend the state it claims to extend. Records are only ever
//! appended, so the prefix before a bad record is a state the campaign
//! really passed through; anything after it is dropped and redone
//! deterministically.
//!
//! **Compaction.** The per-run `CheckpointWriter` rewrites the base and
//! starts a fresh journal when the journal would grow larger than the base
//! (so the bytes written over a run stay linear in its length), at every
//! return from a campaign run, right after a resume, and whenever an
//! append or its sync fails.

use crate::artifact::ArtifactError;
use crate::checkpoint::{
    failure_from_json, failure_to_json, pair_from_json, pair_to_json, provenance_from_json,
    provenance_to_json, quarantine_from_json, quarantine_to_json, report_from_json, report_to_json,
    sealed_document, CheckpointHeader,
};
use crate::durable;
use crate::json::{self, Json};
use crate::{JobOutcome, QuarantinedPair, TrialFailure};
use detector::RacePair;
use racefuzzer::{PairReport, Provenance};
use std::fs::{File, OpenOptions};
use std::path::{Path, PathBuf};

/// Failpoint prefix of every checkpoint write: base, journal header, and
/// appended record alike.
pub(crate) const SITE: &str = "campaign.checkpoint";

const HEADER_PREFIX: &str = "campaign-journal base-crc32=";

/// The journal path for the checkpoint at `path`: `<path>.journal`.
pub fn journal_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".journal");
    path.with_file_name(name)
}

fn header_line(base_crc: u32) -> String {
    format!("{HEADER_PREFIX}{base_crc:08x}\n")
}

/// The lengths of a job's four append-only vectors, in record order:
/// `reports`, `quarantined`, `failures`, `soundness_bugs`.
fn lengths(job: &JobOutcome) -> [usize; 4] {
    [
        job.reports.len(),
        job.quarantined.len(),
        job.failures.len(),
        job.soundness_bugs.len(),
    ]
}

/// What the writer knows to be durable for one job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Persisted {
    lengths: [usize; 4],
    predicted: bool,
    next_pair: usize,
    errored: bool,
    done: bool,
}

impl Persisted {
    fn of(job: &JobOutcome) -> Self {
        Persisted {
            lengths: lengths(job),
            predicted: job.predicted,
            next_pair: job.next_pair,
            errored: job.error.is_some(),
            done: job.done,
        }
    }

    /// `true` if `now` only extends `self`, so a delta can describe it.
    fn extended_by(&self, now: &Persisted) -> bool {
        self.lengths
            .iter()
            .zip(&now.lengths)
            .all(|(old, new)| old <= new)
            && (!self.predicted || now.predicted)
            && self.next_pair <= now.next_pair
            && (!self.errored || now.errored)
            && (!self.done || now.done)
    }
}

/// The per-run checkpoint writer: appends one journal record per commit
/// and compacts into a fresh base when the rules in the module docs say
/// so. Without a checkpoint path every call is a no-op.
#[derive(Debug)]
pub(crate) struct CheckpointWriter {
    path: Option<PathBuf>,
    header: CheckpointHeader,
    /// Per-job durable state, as of the last successful save.
    persisted: Vec<Persisted>,
    /// Append handle on a journal bound to the current base; `None` makes
    /// the next save compact.
    journal: Option<File>,
    base_bytes: usize,
    journal_bytes: usize,
    /// `true` once a record has been appended since the last compaction.
    dirty: bool,
}

impl CheckpointWriter {
    pub(crate) fn new(path: Option<PathBuf>, header: CheckpointHeader) -> Self {
        CheckpointWriter {
            path,
            header,
            persisted: Vec::new(),
            journal: None,
            base_bytes: 0,
            journal_bytes: 0,
            dirty: false,
        }
    }

    /// Commits `jobs`: one appended and synced journal record holding what
    /// changed since the last save, or a compaction when the journal would
    /// outgrow the base or the append fails.
    pub(crate) fn save(&mut self, jobs: &[JobOutcome]) -> Result<(), ArtifactError> {
        if self.path.is_none() {
            return Ok(());
        }
        let Some(record) = self.record(jobs) else {
            return self.compact(jobs);
        };
        if record.is_empty() {
            return Ok(());
        }
        let payload = Json::Arr(record).to_line();
        let line = format!("{:08x} {payload}\n", durable::crc32(payload.as_bytes()));
        if self.journal_bytes + line.len() > self.base_bytes {
            return self.compact(jobs);
        }
        let journal = self.journal.as_mut().expect("record() checked the journal");
        match durable::append_durable(journal, SITE, line.as_bytes()) {
            Ok(()) => {
                self.journal_bytes += line.len();
                self.persisted = jobs.iter().map(Persisted::of).collect();
                self.dirty = true;
                Ok(())
            }
            // The record may be half on disk; a compaction supersedes it.
            Err(_) => self.compact(jobs),
        }
    }

    /// Compacts if anything was appended since the last compaction: the
    /// base on disk then holds the whole state, byte-identical to a full
    /// rewrite at this point.
    pub(crate) fn finish(&mut self, jobs: &[JobOutcome]) -> Result<(), ArtifactError> {
        if self.dirty {
            self.compact(jobs)?;
        }
        Ok(())
    }

    /// The delta entries from the persisted state to `jobs`, or `None` if
    /// no delta can describe it (no journal bound to the current base, a
    /// different job list, or state that shrank).
    fn record(&self, jobs: &[JobOutcome]) -> Option<Vec<Json>> {
        if self.journal.is_none() || jobs.len() != self.persisted.len() {
            return None;
        }
        let mut entries = Vec::new();
        for (index, (job, old)) in jobs.iter().zip(&self.persisted).enumerate() {
            let now = Persisted::of(job);
            if now == *old {
                continue;
            }
            if !old.extended_by(&now) {
                return None;
            }
            entries.push(delta_json(index, job, old));
        }
        Some(entries)
    }

    /// Writes the full base, then starts a fresh journal bound to it.
    pub(crate) fn compact(&mut self, jobs: &[JobOutcome]) -> Result<(), ArtifactError> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let io = |error: std::io::Error| ArtifactError::Io(error.to_string());
        self.journal = None;
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(io)?;
            }
        }
        let sealed = sealed_document(&self.header, jobs);
        durable::write_durable(path, SITE, sealed.as_bytes()).map_err(io)?;
        self.base_bytes = sealed.len();
        self.persisted = jobs.iter().map(Persisted::of).collect();
        self.dirty = false;
        // Until the new header lands, the journal on disk is bound to the
        // previous base and readers ignore it. If it never lands, the base
        // alone is the whole state and the next save compacts again.
        let journal = journal_path(path);
        let header = header_line(durable::crc32(sealed.as_bytes()));
        if durable::write_durable(&journal, SITE, header.as_bytes()).is_ok() {
            self.journal = OpenOptions::new().append(true).open(&journal).ok();
            self.journal_bytes = header.len();
        }
        Ok(())
    }
}

fn tail<T>(items: &[T], from: usize, encode: fn(&T) -> Json) -> Option<Json> {
    (items.len() > from).then(|| Json::Arr(items[from..].iter().map(encode).collect()))
}

/// One record entry: how job `index` got from `old` to `job`.
fn delta_json(index: usize, job: &JobOutcome, old: &Persisted) -> Json {
    let mut fields = vec![
        ("job", Json::usize(index)),
        (
            "at",
            Json::Arr(old.lengths.iter().map(|&n| Json::usize(n)).collect()),
        ),
    ];
    if job.predicted && !old.predicted {
        fields.push((
            "potential",
            Json::Arr(job.potential.iter().map(pair_to_json).collect()),
        ));
        fields.push((
            "provenance",
            Json::Arr(job.provenance.iter().map(provenance_to_json).collect()),
        ));
    }
    let [reports, quarantined, failures, bugs] = old.lengths;
    let tails = [
        ("reports", tail(&job.reports, reports, report_to_json)),
        (
            "quarantined",
            tail(&job.quarantined, quarantined, quarantine_to_json),
        ),
        ("failures", tail(&job.failures, failures, failure_to_json)),
        (
            "soundness_bugs",
            tail(&job.soundness_bugs, bugs, |bug| Json::str(bug)),
        ),
    ];
    fields.extend(
        tails
            .into_iter()
            .filter_map(|(key, value)| value.map(|value| (key, value))),
    );
    if job.next_pair != old.next_pair {
        fields.push(("next_pair", Json::usize(job.next_pair)));
    }
    if let (Some(error), false) = (&job.error, old.errored) {
        fields.push(("error", Json::str(error)));
    }
    if job.done && !old.done {
        fields.push(("done", Json::Bool(true)));
    }
    Json::obj(fields)
}

/// A decoded record entry.
struct Delta {
    job: usize,
    at: [usize; 4],
    predicted: Option<(Vec<RacePair>, Vec<Provenance>)>,
    reports: Vec<PairReport>,
    quarantined: Vec<QuarantinedPair>,
    failures: Vec<TrialFailure>,
    soundness_bugs: Vec<String>,
    next_pair: Option<usize>,
    error: Option<String>,
    done: bool,
}

fn decode_list<T>(
    entry: &Json,
    key: &str,
    decode: impl Fn(&Json) -> Result<T, ArtifactError>,
) -> Result<Vec<T>, ArtifactError> {
    match entry.get(key) {
        None => Ok(Vec::new()),
        Some(value) => value
            .as_arr()
            .ok_or_else(|| ArtifactError::Malformed(format!("bad '{key}'")))?
            .iter()
            .map(decode)
            .collect(),
    }
}

fn decode_delta(entry: &Json) -> Result<Delta, ArtifactError> {
    let bad = |what: &str| ArtifactError::Malformed(format!("bad '{what}'"));
    let at: Vec<usize> = entry
        .get("at")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("at"))?
        .iter()
        .map(|n| n.as_usize().ok_or_else(|| bad("at")))
        .collect::<Result<_, _>>()?;
    let predicted = match entry.get("potential") {
        None => None,
        Some(_) => Some((
            decode_list(entry, "potential", pair_from_json)?,
            decode_list(entry, "provenance", provenance_from_json)?,
        )),
    };
    Ok(Delta {
        job: entry
            .get("job")
            .and_then(Json::as_usize)
            .ok_or_else(|| bad("job"))?,
        at: at.try_into().map_err(|_| bad("at"))?,
        predicted,
        reports: decode_list(entry, "reports", report_from_json)?,
        quarantined: decode_list(entry, "quarantined", quarantine_from_json)?,
        failures: decode_list(entry, "failures", failure_from_json)?,
        soundness_bugs: decode_list(entry, "soundness_bugs", |bug| {
            bug.as_str()
                .map(str::to_owned)
                .ok_or_else(|| bad("soundness_bugs"))
        })?,
        next_pair: match entry.get("next_pair") {
            None => None,
            Some(value) => Some(value.as_usize().ok_or_else(|| bad("next_pair"))?),
        },
        error: match entry.get("error") {
            None => None,
            Some(value) => Some(value.as_str().ok_or_else(|| bad("error"))?.to_owned()),
        },
        done: match entry.get("done") {
            None => false,
            Some(value) => value.as_bool().ok_or_else(|| bad("done"))?,
        },
    })
}

/// Checks that `delta` extends `job` exactly as the writer would have:
/// from the lengths it names, setting once-only fields only once, and
/// keeping `reports` and the cursor within the predicted pairs.
fn check(delta: &Delta, job: &JobOutcome) -> Result<(), String> {
    if delta.at != lengths(job) {
        return Err(format!(
            "extends lengths {:?} but job '{}' has {:?}",
            delta.at,
            job.name,
            lengths(job)
        ));
    }
    let potential = match &delta.predicted {
        Some((potential, provenance)) => {
            if job.predicted || potential.len() != provenance.len() {
                return Err(format!("re-predicts job '{}'", job.name));
            }
            potential.len()
        }
        None => job.potential.len(),
    };
    let next_pair = delta.next_pair.unwrap_or(job.next_pair);
    if next_pair < job.next_pair
        || next_pair > potential
        || job.reports.len() + delta.reports.len() > potential
    {
        return Err(format!("moves job '{}' past its pairs", job.name));
    }
    if (delta.error.is_some() && job.error.is_some()) || (delta.done && job.done) {
        return Err(format!(
            "sets a once-only field of job '{}' twice",
            job.name
        ));
    }
    Ok(())
}

fn apply(delta: Delta, job: &mut JobOutcome) {
    if let Some((potential, provenance)) = delta.predicted {
        job.predicted = true;
        job.potential = potential;
        job.provenance = provenance;
    }
    job.reports.extend(delta.reports);
    job.quarantined.extend(delta.quarantined);
    job.failures.extend(delta.failures);
    job.soundness_bugs.extend(delta.soundness_bugs);
    if let Some(next_pair) = delta.next_pair {
        job.next_pair = next_pair;
    }
    if delta.error.is_some() {
        job.error = delta.error;
    }
    job.done |= delta.done;
}

/// Decodes, checks and applies one record line (without its terminator).
/// Nothing is applied unless every entry checks.
fn apply_record(line: &[u8], jobs: &mut [JobOutcome]) -> Result<(), String> {
    let (crc, payload) = match (line.get(..8), line.get(8), line.get(9..)) {
        (Some(crc), Some(b' '), Some(payload)) => (crc, payload),
        _ => return Err("malformed frame".to_owned()),
    };
    let crc = std::str::from_utf8(crc)
        .ok()
        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
        .ok_or("malformed CRC")?;
    if durable::crc32(payload) != crc {
        return Err("CRC mismatch (torn or corrupt write)".to_owned());
    }
    let payload = std::str::from_utf8(payload).map_err(|_| "invalid UTF-8")?;
    let value = json::parse(payload).map_err(|error| error.to_string())?;
    let deltas = value
        .as_arr()
        .ok_or("record is not an array")?
        .iter()
        .map(decode_delta)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|error| error.to_string())?;
    for (position, delta) in deltas.iter().enumerate() {
        let job = jobs
            .get(delta.job)
            .ok_or_else(|| format!("names job #{} of {}", delta.job, jobs.len()))?;
        if deltas[..position]
            .iter()
            .any(|other| other.job == delta.job)
        {
            return Err(format!("names job #{} twice", delta.job));
        }
        check(delta, job)?;
    }
    for delta in deltas {
        let index = delta.job;
        apply(delta, &mut jobs[index]);
    }
    Ok(())
}

/// Applies the journal at `path` to `jobs` (loaded from a base whose
/// sealed bytes hash to `base_crc`). Returns why replay stopped early, if
/// it did; a missing or stale journal applies nothing and is not an error.
pub(crate) fn replay(path: &Path, base_crc: u32, jobs: &mut [JobOutcome]) -> Option<String> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(error) if error.kind() == std::io::ErrorKind::NotFound => return None,
        Err(error) => return Some(format!("unreadable journal: {error}")),
    };
    let header = header_line(base_crc);
    let Some(mut rest) = bytes.strip_prefix(header.as_bytes()) else {
        return None; // bound to another base: stale
    };
    let mut number = 1usize;
    while !rest.is_empty() {
        let Some(end) = rest.iter().position(|&b| b == b'\n') else {
            return Some(format!("journal record {number} is torn (no terminator)"));
        };
        if let Err(reason) = apply_record(&rest[..end], jobs) {
            return Some(format!("journal record {number}: {reason}"));
        }
        rest = &rest[end + 1..];
        number += 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
    use crate::QuarantineReason;
    use cil::flat::InstrId;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("journal-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    const HEADER: CheckpointHeader = CheckpointHeader {
        trials_per_pair: 4,
        base_seed: 1,
    };

    fn fresh(name: &str) -> JobOutcome {
        JobOutcome {
            name: name.to_owned(),
            entry: "main".to_owned(),
            program_digest: 7,
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

    /// Every intermediate state of a two-job campaign, one per commit.
    fn history() -> Vec<Vec<JobOutcome>> {
        let mut jobs = vec![fresh("a"), fresh("b")];
        let mut states = Vec::new();
        for index in 0..2 {
            jobs[index].predicted = true;
            // Many predicted pairs, few fuzzed: a base large enough for
            // several records to fit in its journal.
            jobs[index].potential = (0..40)
                .map(|i| RacePair::new(InstrId(i), InstrId(i + 100)))
                .collect();
            jobs[index].provenance = vec![Provenance::Dynamic; 40];
            states.push(jobs.clone());
            for pair in 0..3 {
                let target = jobs[index].potential[pair];
                let mut report = PairReport::empty(target);
                report.trials = 4;
                report.hits = pair;
                jobs[index].reports.push(report);
                if pair == 1 {
                    jobs[index].quarantined.push(QuarantinedPair {
                        pair: target,
                        seed: 1,
                        attempts: 0,
                        reason: QuarantineReason::CrashLoop(3),
                    });
                }
                jobs[index].next_pair += 1;
                states.push(jobs.clone());
            }
            jobs[index].done = true;
            states.push(jobs.clone());
        }
        states
    }

    fn render(jobs: &[JobOutcome]) -> String {
        sealed_document(&HEADER, jobs)
    }

    fn journal_lines(path: &Path) -> Vec<String> {
        std::fs::read_to_string(journal_path(path))
            .unwrap()
            .lines()
            .map(str::to_owned)
            .collect()
    }

    #[test]
    fn every_commit_reloads_exactly() {
        let dir = scratch("reload");
        let path = dir.join("checkpoint.json");
        let mut writer = CheckpointWriter::new(Some(path.clone()), HEADER);
        for state in history() {
            writer.save(&state).unwrap();
            let loaded = Checkpoint::load_journaled(&path).unwrap();
            assert_eq!(loaded.1, None);
            assert_eq!(render(&loaded.0.jobs), render(&state));
        }
        // The doubling rule kept the journal no larger than its base.
        let base = std::fs::metadata(&path).unwrap().len();
        let journal = std::fs::metadata(journal_path(&path)).unwrap().len();
        assert!(journal <= base, "journal {journal} > base {base}");
        // Finishing compacts: the base alone is the full rewrite.
        let last = history().pop().unwrap();
        writer.finish(&last).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), render(&last));
        assert_eq!(journal_lines(&path).len(), 1, "only the header is left");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn records_hold_only_the_delta() {
        let dir = scratch("delta");
        let path = dir.join("checkpoint.json");
        let states = history();
        let mut writer = CheckpointWriter::new(Some(path.clone()), HEADER);
        writer.save(&states[0]).unwrap(); // first save: a compaction
        writer.save(&states[1]).unwrap(); // one report on job a
        let lines = journal_lines(&path);
        assert_eq!(lines.len(), 2);
        let payload = &lines[1][9..];
        assert_eq!(
            payload,
            "[{\"job\":0,\"at\":[0,0,0,0],\"reports\":[{\"target\":[0,100],\"trials\":4,\
             \"hits\":0,\"real_pairs\":[],\"exception_trials\":0,\"exceptions\":{},\
             \"deadlock_trials\":0,\"memory_trials\":0,\"first_hit_seed\":null,\
             \"first_exception_seed\":null}],\"next_pair\":1}]"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn inconsistent_record_is_rejected_whole() {
        let dir = scratch("inconsistent");
        let path = dir.join("checkpoint.json");
        let states = history();
        let mut writer = CheckpointWriter::new(Some(path.clone()), HEADER);
        writer.save(&states[0]).unwrap();
        writer.save(&states[1]).unwrap();
        // Append a well-framed copy of record 1: it claims to extend
        // lengths the state has already moved past.
        let lines = journal_lines(&path);
        let copy = format!("{}\n{}\n{}\n", lines[0], lines[1], lines[1]);
        std::fs::write(journal_path(&path), copy).unwrap();
        let (loaded, bad) = Checkpoint::load_journaled(&path).unwrap();
        assert!(bad.unwrap().contains("record 2: extends lengths"));
        assert_eq!(render(&loaded.jobs), render(&states[1]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shrinking_state_compacts_instead_of_appending() {
        let dir = scratch("shrink");
        let path = dir.join("checkpoint.json");
        let states = history();
        let mut writer = CheckpointWriter::new(Some(path.clone()), HEADER);
        writer.save(&states[3]).unwrap();
        writer.save(&states[1]).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), render(&states[1]));
        assert_eq!(journal_lines(&path).len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
