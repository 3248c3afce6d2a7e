//! Self-contained failure repro artifacts.
//!
//! When a trial fails — panics, blows its step budget, misses its deadline,
//! or poisons the engine — the campaign persists everything needed to
//! replay it: the target pair, the full [`FuzzConfig`] including the seed,
//! and a digest of the program so a stale artifact is rejected instead of
//! silently replaying against the wrong binary. Replay needs no event log
//! (paper §2.2: the execution is a pure function of program, race set, and
//! seed), so the artifact is a few hundred bytes of JSON.

use crate::durable;
use crate::json::{self, Json};
use detector::RacePair;
use racefuzzer::{FuzzConfig, Provenance};
use std::path::Path;
use std::time::Duration;

/// Artifact/checkpoint format version, bumped on incompatible change.
/// Version 2: structured quarantine reasons (`reason` tag + `detail`) and
/// the per-job `soundness_bugs` list.
/// Version 3: CRC-32 footer on every durable document (torn-write
/// detection), the `max_heap_cells` replay knob, per-report
/// `memory_trials`, and the `worker_loss` failure kind. Some v3 artifacts
/// also carry an `engine` key from when the trial engine was selectable;
/// trials now always run on the bytecode engine, so readers ignore it.
pub const FORMAT_VERSION: u64 = 3;

/// Oldest format version this build still reads. Version 2 documents have
/// no CRC footer and no memory-budget fields; they load with those fields
/// defaulted, so a committed v2 checkpoint resumes under this build.
pub const MIN_READ_VERSION: u64 = 2;

pub(crate) fn check_version(version: u64) -> Result<(), ArtifactError> {
    if (MIN_READ_VERSION..=FORMAT_VERSION).contains(&version) {
        Ok(())
    } else {
        Err(ArtifactError::VersionMismatch {
            found: version,
            expected: FORMAT_VERSION,
        })
    }
}

/// Unseals a durable document and enforces the framing rule: format v3+
/// documents *must* carry a valid CRC footer — a v3 body without one is a
/// torn write that happened to truncate at a JSON boundary, not a legacy
/// file.
///
/// Returns the parsed JSON and its claimed `format_version`.
pub(crate) fn unseal_document(text: &str) -> Result<(Json, u64), ArtifactError> {
    let unsealed = durable::unseal(text).map_err(ArtifactError::Malformed)?;
    let value = json::parse(unsealed.body())
        .map_err(|error| ArtifactError::Malformed(error.to_string()))?;
    let version = value
        .get("format_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| ArtifactError::Malformed("missing format_version".into()))?;
    if version >= 3 && matches!(unsealed, durable::Unsealed::Legacy(_)) {
        return Err(ArtifactError::Malformed(format!(
            "format v{version} document has no CRC footer (torn write?)"
        )));
    }
    Ok((value, version))
}

/// FNV-1a 64-bit digest of a compiled program's code.
///
/// Hashes procedure names and boundaries plus the debug rendering of every
/// instruction — enough to change whenever the compiled code changes, while
/// ignoring incidental state like interner contents for unused names.
pub fn program_digest(program: &cil::Program) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &byte in bytes {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for proc in &program.procs {
        eat(program.name(proc.name).as_bytes());
        eat(&proc.entry.0.to_le_bytes());
        eat(&proc.end.0.to_le_bytes());
        eat(&(proc.param_count as u64).to_le_bytes());
    }
    for instr in &program.instrs {
        eat(format!("{instr:?}").as_bytes());
        eat(b";");
    }
    hash
}

/// Why a trial failed (harness failures, not program-under-test bugs —
/// deadlocks and uncaught exceptions are *results*, recorded in the
/// [`racefuzzer::PairReport`], not failures).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The trial panicked; the payload is the panic message.
    Panic(String),
    /// The trial hit its step budget ([`FuzzConfig::max_steps`]).
    StepBudget,
    /// The trial hit its wall-clock deadline ([`FuzzConfig::wall_clock`]).
    Deadline,
    /// The interpreter detected an internal invariant violation; the
    /// payload is the rendered [`interp::ExecError`].
    EngineError(String),
    /// The worker thread running the trial died without delivering a
    /// result (parallel campaigns only); the payload describes what the
    /// commit thread observed. The pair itself may be innocent — the
    /// failure is attributed so the campaign can keep committing instead
    /// of hanging on a result that will never arrive.
    WorkerLoss(String),
}

impl FailureKind {
    /// Stable tag used in artifacts and quarantine reasons.
    pub fn tag(&self) -> &'static str {
        match self {
            FailureKind::Panic(_) => "panic",
            FailureKind::StepBudget => "step_budget",
            FailureKind::Deadline => "deadline",
            FailureKind::EngineError(_) => "engine_error",
            FailureKind::WorkerLoss(_) => "worker_loss",
        }
    }

    /// Message payload, if the kind carries one.
    pub fn message(&self) -> Option<&str> {
        match self {
            FailureKind::Panic(message)
            | FailureKind::EngineError(message)
            | FailureKind::WorkerLoss(message) => Some(message.as_str()),
            _ => None,
        }
    }

    /// `true` if retrying with a larger step budget could plausibly help.
    pub fn is_budget_related(&self) -> bool {
        matches!(self, FailureKind::StepBudget | FailureKind::Deadline)
    }

    pub(crate) fn from_parts(tag: &str, message: Option<&str>) -> Option<FailureKind> {
        match tag {
            "panic" => Some(FailureKind::Panic(message.unwrap_or("").to_owned())),
            "step_budget" => Some(FailureKind::StepBudget),
            "deadline" => Some(FailureKind::Deadline),
            "engine_error" => Some(FailureKind::EngineError(message.unwrap_or("").to_owned())),
            "worker_loss" => Some(FailureKind::WorkerLoss(message.unwrap_or("").to_owned())),
            _ => None,
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.message() {
            Some(message) => write!(f, "{}: {message}", self.tag()),
            None => f.write_str(self.tag()),
        }
    }
}

/// One trial failure, as observed by the campaign driver.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TrialFailure {
    /// The pair whose trial failed.
    pub pair: RacePair,
    /// The failing trial's seed.
    pub seed: u64,
    /// 1-based attempt number (first run = 1, first retry = 2, …).
    pub attempt: u32,
    /// The step budget in force when the failure happened.
    pub step_budget: u64,
    /// What happened.
    pub kind: FailureKind,
}

/// Everything needed to replay one failed trial, serializable to JSON.
#[derive(Clone, Debug, PartialEq)]
pub struct FailureArtifact {
    /// Campaign job name (e.g. the workload name).
    pub job: String,
    /// Entry procedure.
    pub entry: String,
    /// [`program_digest`] of the program the failure was observed on.
    pub program_digest: u64,
    /// The target pair.
    pub pair: RacePair,
    /// The failing seed.
    pub seed: u64,
    /// Attempt number at which this failure was recorded.
    pub attempt: u32,
    /// What happened.
    pub kind: FailureKind,
    /// Scheduler configuration of the failing trial. `seed` and the step
    /// budget live here too; the artifact replays with `wall_clock = None`
    /// (machine-dependent; see [`FuzzConfig::wall_clock`]) — the original
    /// value is preserved in `wall_clock_ms` for the record.
    pub max_steps: u64,
    /// [`FuzzConfig::postpone_limit`] of the failing trial.
    pub postpone_limit: u64,
    /// [`FuzzConfig::location_precise`] of the failing trial.
    pub location_precise: bool,
    /// [`FuzzConfig::switch_only_at_sync`] of the failing trial.
    pub switch_only_at_sync: bool,
    /// Original wall-clock budget in milliseconds, if any.
    pub wall_clock_ms: Option<u64>,
    /// [`FuzzConfig::max_heap_cells`] of the failing trial (absent in
    /// format v2 artifacts, which predate the heap budget).
    pub max_heap_cells: Option<u64>,
    /// Which candidate source proposed the target pair (artifacts that
    /// predate static candidate generation load as
    /// [`Provenance::Dynamic`]).
    pub provenance: Provenance,
}

impl FailureArtifact {
    /// The deterministic replay configuration: identical to the failing
    /// trial except the machine-dependent wall-clock budget is dropped.
    pub fn fuzz_config(&self) -> FuzzConfig {
        FuzzConfig {
            seed: self.seed,
            max_steps: self.max_steps,
            wall_clock: None,
            postpone_limit: self.postpone_limit,
            record_schedule: false,
            location_precise: self.location_precise,
            switch_only_at_sync: self.switch_only_at_sync,
            max_heap_cells: self.max_heap_cells,
        }
    }

    /// Serializes to the JSON object form.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("format_version", Json::u64(FORMAT_VERSION)),
            ("job", Json::str(&self.job)),
            ("entry", Json::str(&self.entry)),
            (
                "program_digest",
                Json::Str(format!("{:016x}", self.program_digest)),
            ),
            (
                "pair",
                Json::Arr(vec![
                    Json::u64(u64::from(self.pair.first().0)),
                    Json::u64(u64::from(self.pair.second().0)),
                ]),
            ),
            ("seed", Json::u64(self.seed)),
            ("attempt", Json::u64(u64::from(self.attempt))),
            ("kind", Json::str(self.kind.tag())),
            (
                "message",
                match self.kind.message() {
                    Some(message) => Json::str(message),
                    None => Json::Null,
                },
            ),
            ("max_steps", Json::u64(self.max_steps)),
            ("postpone_limit", Json::u64(self.postpone_limit)),
            ("location_precise", Json::Bool(self.location_precise)),
            ("switch_only_at_sync", Json::Bool(self.switch_only_at_sync)),
            (
                "wall_clock_ms",
                match self.wall_clock_ms {
                    Some(ms) => Json::u64(ms),
                    None => Json::Null,
                },
            ),
            (
                "max_heap_cells",
                match self.max_heap_cells {
                    Some(cells) => Json::u64(cells),
                    None => Json::Null,
                },
            ),
            ("provenance", Json::str(self.provenance.tag())),
        ])
    }

    /// Deserializes from the JSON object form.
    pub fn from_json(value: &Json) -> Result<FailureArtifact, ArtifactError> {
        let field = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| ArtifactError::Malformed(format!("missing field '{key}'")))
        };
        let version = field("format_version")?
            .as_u64()
            .ok_or_else(|| ArtifactError::Malformed("bad format_version".into()))?;
        check_version(version)?;
        let digest_text = field("program_digest")?
            .as_str()
            .ok_or_else(|| ArtifactError::Malformed("bad program_digest".into()))?;
        let program_digest = u64::from_str_radix(digest_text, 16)
            .map_err(|_| ArtifactError::Malformed("bad program_digest".into()))?;
        let pair_items = field("pair")?
            .as_arr()
            .filter(|items| items.len() == 2)
            .ok_or_else(|| ArtifactError::Malformed("bad pair".into()))?;
        let first = pair_items[0]
            .as_u32()
            .ok_or_else(|| ArtifactError::Malformed("bad pair".into()))?;
        let second = pair_items[1]
            .as_u32()
            .ok_or_else(|| ArtifactError::Malformed("bad pair".into()))?;
        let kind_tag = field("kind")?
            .as_str()
            .ok_or_else(|| ArtifactError::Malformed("bad kind".into()))?;
        let message = value.get("message").and_then(Json::as_str);
        let kind = FailureKind::from_parts(kind_tag, message)
            .ok_or_else(|| ArtifactError::Malformed(format!("unknown kind '{kind_tag}'")))?;
        let req_u64 = |key: &str| -> Result<u64, ArtifactError> {
            field(key)?
                .as_u64()
                .ok_or_else(|| ArtifactError::Malformed(format!("bad field '{key}'")))
        };
        let req_bool = |key: &str| -> Result<bool, ArtifactError> {
            field(key)?
                .as_bool()
                .ok_or_else(|| ArtifactError::Malformed(format!("bad field '{key}'")))
        };
        Ok(FailureArtifact {
            job: field("job")?
                .as_str()
                .ok_or_else(|| ArtifactError::Malformed("bad job".into()))?
                .to_owned(),
            entry: field("entry")?
                .as_str()
                .ok_or_else(|| ArtifactError::Malformed("bad entry".into()))?
                .to_owned(),
            program_digest,
            pair: RacePair::new(cil::flat::InstrId(first), cil::flat::InstrId(second)),
            seed: req_u64("seed")?,
            attempt: u32::try_from(req_u64("attempt")?)
                .map_err(|_| ArtifactError::Malformed("bad attempt".into()))?,
            kind,
            max_steps: req_u64("max_steps")?,
            postpone_limit: req_u64("postpone_limit")?,
            location_precise: req_bool("location_precise")?,
            switch_only_at_sync: req_bool("switch_only_at_sync")?,
            wall_clock_ms: value.get("wall_clock_ms").and_then(Json::as_u64),
            max_heap_cells: value.get("max_heap_cells").and_then(Json::as_u64),
            provenance: value
                .get("provenance")
                .and_then(Json::as_str)
                .and_then(Provenance::from_tag)
                .unwrap_or(Provenance::Dynamic),
        })
    }

    /// Durably writes the artifact to `path`: CRC-footed, staged through a
    /// temp file, fsynced, atomically renamed (failpoint sites
    /// `campaign.artifact.{write,sync,rename}`).
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path) -> Result<(), ArtifactError> {
        let sealed = durable::seal(&self.to_json().to_text());
        durable::write_durable(path, "campaign.artifact", sealed.as_bytes())
            .map_err(|error| ArtifactError::Io(error.to_string()))
    }

    /// Reads an artifact back from `path`, verifying the CRC footer (a v2
    /// artifact without one still loads).
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError`] if the file is unreadable, torn,
    /// unparsable, or from an unreadable format version.
    pub fn load(path: &Path) -> Result<FailureArtifact, ArtifactError> {
        let text =
            std::fs::read_to_string(path).map_err(|error| ArtifactError::Io(error.to_string()))?;
        let (value, _) = unseal_document(&text)?;
        FailureArtifact::from_json(&value)
    }

    /// Canonical artifact file name for this failure.
    pub fn file_name(&self) -> String {
        format!(
            "{}-pair{}-{}-seed{}.json",
            self.job,
            self.pair.first().0,
            self.pair.second().0,
            self.seed
        )
    }
}

/// Errors loading or validating an artifact.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArtifactError {
    /// Filesystem failure (message from [`std::io::Error`]).
    Io(String),
    /// Unparsable or structurally invalid JSON.
    Malformed(String),
    /// Written by a different artifact format version.
    VersionMismatch {
        /// Version found in the file.
        found: u64,
        /// Version this build writes.
        expected: u64,
    },
    /// The artifact's program digest does not match the program supplied
    /// for replay.
    DigestMismatch {
        /// Digest recorded in the artifact.
        artifact: u64,
        /// Digest of the supplied program.
        program: u64,
    },
}

impl std::fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArtifactError::Io(message) => write!(f, "artifact I/O error: {message}"),
            ArtifactError::Malformed(message) => write!(f, "malformed artifact: {message}"),
            ArtifactError::VersionMismatch { found, expected } => write!(
                f,
                "artifact format version {found} (this build reads {expected})"
            ),
            ArtifactError::DigestMismatch { artifact, program } => write!(
                f,
                "artifact was recorded on program {artifact:016x}, got {program:016x}"
            ),
        }
    }
}

impl std::error::Error for ArtifactError {}

/// Converts an optional wall-clock budget to whole milliseconds.
pub(crate) fn duration_ms(duration: Option<Duration>) -> Option<u64> {
    duration.map(|d| u64::try_from(d.as_millis()).unwrap_or(u64::MAX))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cil::flat::InstrId;

    fn sample() -> FailureArtifact {
        FailureArtifact {
            job: "figure1".to_owned(),
            entry: "main".to_owned(),
            program_digest: 0x00ab_cdef_0123_4567,
            pair: RacePair::new(InstrId(3), InstrId(17)),
            seed: 42,
            attempt: 2,
            kind: FailureKind::Panic("index out of bounds: the len is 0".to_owned()),
            max_steps: 4096,
            postpone_limit: 20_000,
            location_precise: true,
            switch_only_at_sync: false,
            wall_clock_ms: Some(250),
            max_heap_cells: Some(1 << 20),
            provenance: Provenance::Both,
        }
    }

    #[test]
    fn artifact_round_trips_through_json() {
        let artifact = sample();
        let text = artifact.to_json().to_text();
        let parsed = FailureArtifact::from_json(&crate::json::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, artifact);
    }

    #[test]
    fn kinds_without_messages_round_trip() {
        for kind in [FailureKind::StepBudget, FailureKind::Deadline] {
            let artifact = FailureArtifact {
                kind: kind.clone(),
                ..sample()
            };
            let text = artifact.to_json().to_text();
            let parsed = FailureArtifact::from_json(&crate::json::parse(&text).unwrap()).unwrap();
            assert_eq!(parsed.kind, kind);
        }
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut value = sample().to_json();
        if let Json::Obj(fields) = &mut value {
            fields[0].1 = Json::u64(FORMAT_VERSION + 1);
        }
        assert!(matches!(
            FailureArtifact::from_json(&value),
            Err(ArtifactError::VersionMismatch { .. })
        ));
    }

    #[test]
    fn v2_artifact_without_footer_still_loads() {
        // A pre-CRC artifact: format_version 2, no max_heap_cells, bare
        // JSON with no footer.
        let mut value = sample().to_json();
        if let Json::Obj(fields) = &mut value {
            fields[0].1 = Json::u64(2);
            fields.retain(|(key, _)| key != "max_heap_cells" && key != "provenance");
        }
        let dir = std::env::temp_dir().join(format!("artifact-v2-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("legacy.json");
        std::fs::write(&path, value.to_text()).unwrap();
        let loaded = FailureArtifact::load(&path).unwrap();
        assert_eq!(loaded.max_heap_cells, None);
        assert_eq!(loaded.provenance, Provenance::Dynamic);
        assert_eq!(loaded.seed, sample().seed);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flipped_byte_is_detected_at_load() {
        let dir = std::env::temp_dir().join(format!("artifact-crc-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        sample().save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            FailureArtifact::load(&path),
            Err(ArtifactError::Malformed(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn digest_tracks_code_changes() {
        let one = cil::compile("global x = 0; proc main() { x = 1; }").unwrap();
        let two = cil::compile("global x = 0; proc main() { x = 2; }").unwrap();
        let one_again = cil::compile("global x = 0; proc main() { x = 1; }").unwrap();
        assert_ne!(program_digest(&one), program_digest(&two));
        assert_eq!(program_digest(&one), program_digest(&one_again));
    }
}
