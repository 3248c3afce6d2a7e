//! Startup recovery scan: sideline what a crash tore, sweep what it left.
//!
//! Every campaign start walks its durable state *before* trusting any of
//! it. Four things can be on disk after a kill:
//!
//! 1. A stale `*.tmp` staging file — the crash hit between temp-file write
//!    and rename. The published file is intact; the temp file is garbage
//!    and removed.
//! 2. A torn or corrupt published file — short write plus crash, or disk
//!    corruption. The CRC check ([`crate::durable::unseal`]) catches it;
//!    the file is renamed to `<name>.corrupt-N` (never deleted — it is
//!    evidence) and the campaign redoes the lost pairs deterministically.
//! 3. A checkpoint journal whose replay stopped at a torn, CRC-invalid or
//!    inconsistent record ([`crate::journal`]). The records before it were
//!    applied — a state the campaign really passed through — and the
//!    journal is sidelined like any corrupt file.
//! 4. Healthy files, which load normally. A journal bound to a different
//!    base (a crash inside a compaction) is stale, not corrupt: it is
//!    ignored and replaced by the resumed run's first compaction.
//!
//! Nothing in this module panics on bad input: a corrupt file is an
//! *expected* input after a crash, and the whole point of the campaign's
//! durability story is that it degrades to redone work, not to a wedged
//! run.

use crate::artifact::FailureArtifact;
use crate::checkpoint::Checkpoint;
use crate::durable;
use crate::journal;
use crate::ArtifactError;
use std::path::{Path, PathBuf};

/// What the recovery scan did to one file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryAction {
    /// A torn/corrupt file was renamed to `<name>.corrupt-N`.
    SidelinedCorrupt,
    /// A stale `*.tmp` staging file was removed.
    RemovedStaleTmp,
}

/// One recovery decision, recorded in the [`crate::CampaignReport`] so a
/// resumed run says what it cleaned up instead of doing it silently.
#[derive(Clone, Debug)]
pub struct RecoveryEvent {
    /// The file acted on (the original path, pre-sideline).
    pub path: PathBuf,
    /// What was done.
    pub action: RecoveryAction,
    /// Why — the load error for sidelined files.
    pub reason: String,
}

impl std::fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.action {
            RecoveryAction::SidelinedCorrupt => {
                write!(f, "sidelined corrupt {}: {}", self.path.display(), self.reason)
            }
            RecoveryAction::RemovedStaleTmp => {
                write!(f, "removed stale temp file {}", self.path.display())
            }
        }
    }
}

/// Renames `path` to the first free `<name>.corrupt-N`, preserving the
/// corrupt bytes for post-mortem instead of deleting them.
///
/// # Errors
///
/// Returns the rename error if every attempt fails.
pub fn sideline(path: &Path) -> std::io::Result<PathBuf> {
    let mut error = None;
    for n in 0..1000u32 {
        let mut name = path
            .file_name()
            .map(|name| name.to_os_string())
            .unwrap_or_default();
        name.push(format!(".corrupt-{n}"));
        let target = path.with_file_name(name);
        if target.exists() {
            continue;
        }
        match std::fs::rename(path, &target) {
            Ok(()) => return Ok(target),
            Err(e) => error = Some(e),
        }
    }
    Err(error.unwrap_or_else(|| std::io::Error::other("no free .corrupt-N name")))
}

/// Removes the staging temp file for `path`, if a crash left one behind.
pub fn sweep_tmp(path: &Path, events: &mut Vec<RecoveryEvent>) {
    let tmp = durable::tmp_path(path);
    if tmp.exists() && std::fs::remove_file(&tmp).is_ok() {
        events.push(RecoveryEvent {
            path: tmp,
            action: RecoveryAction::RemovedStaleTmp,
            reason: "crash between staging write and rename".to_owned(),
        });
    }
}

/// Loads the checkpoint at `path`, sidelining it (and returning `None`) if
/// its base is torn or corrupt. A missing file is simply `None` with no
/// event. A journal with a bad record is sidelined too, after the records
/// before it have been applied.
pub fn recover_checkpoint(path: &Path, events: &mut Vec<RecoveryEvent>) -> Option<Checkpoint> {
    sweep_tmp(path, events);
    let journal = journal::journal_path(path);
    sweep_tmp(&journal, events);
    if !path.exists() {
        return None;
    }
    match Checkpoint::load_journaled(path) {
        Ok((checkpoint, None)) => Some(checkpoint),
        Ok((checkpoint, Some(reason))) => {
            if sideline(&journal).is_ok() {
                events.push(RecoveryEvent {
                    path: journal,
                    action: RecoveryAction::SidelinedCorrupt,
                    reason,
                });
            }
            Some(checkpoint)
        }
        Err(error) => {
            if sideline(path).is_ok() {
                events.push(RecoveryEvent {
                    path: path.to_owned(),
                    action: RecoveryAction::SidelinedCorrupt,
                    reason: error.to_string(),
                });
            }
            None
        }
    }
}

/// Scans an artifact directory: removes stale `*.tmp` staging files and
/// sidelines artifacts that no longer load (torn writes, bit flips).
/// Artifacts from an unreadable *future* format version are left alone —
/// they are not corrupt, this build is just old.
pub fn scan_artifact_dir(dir: &Path, events: &mut Vec<RecoveryEvent>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .collect();
    paths.sort();
    for path in paths {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.ends_with(".tmp") {
            if std::fs::remove_file(&path).is_ok() {
                events.push(RecoveryEvent {
                    path,
                    action: RecoveryAction::RemovedStaleTmp,
                    reason: "crash between staging write and rename".to_owned(),
                });
            }
            continue;
        }
        if !name.ends_with(".json") {
            continue;
        }
        match FailureArtifact::load(&path) {
            Ok(_) => {}
            Err(ArtifactError::VersionMismatch { .. }) => {}
            Err(error) => {
                if sideline(&path).is_ok() {
                    events.push(RecoveryEvent {
                        path,
                        action: RecoveryAction::SidelinedCorrupt,
                        reason: error.to_string(),
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("recovery-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn stale_tmp_is_swept() {
        let dir = scratch("tmp");
        let path = dir.join("state.json");
        std::fs::write(durable::tmp_path(&path), b"half a checkpo").unwrap();
        let mut events = Vec::new();
        assert!(recover_checkpoint(&path, &mut events).is_none());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].action, RecoveryAction::RemovedStaleTmp);
        assert!(!durable::tmp_path(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_checkpoint_is_sidelined_not_panicking() {
        let dir = scratch("sideline");
        let path = dir.join("state.json");
        std::fs::write(&path, "{\"format_version\": 3, \"tr").unwrap();
        let mut events = Vec::new();
        assert!(recover_checkpoint(&path, &mut events).is_none());
        assert!(!path.exists(), "corrupt file moved aside");
        assert!(path.with_file_name("state.json.corrupt-0").exists());
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].action, RecoveryAction::SidelinedCorrupt);
        // A second corrupt file gets the next free suffix.
        std::fs::write(&path, "also garbage").unwrap();
        let mut events = Vec::new();
        assert!(recover_checkpoint(&path, &mut events).is_none());
        assert!(path.with_file_name("state.json.corrupt-1").exists());
        std::fs::remove_dir_all(&dir).ok();
    }
}
