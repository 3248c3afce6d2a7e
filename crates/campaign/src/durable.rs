//! Torn-write-tolerant durable state: the write disciplines every
//! campaign file goes through.
//!
//! A campaign's durable state (checkpoints, their journals, failure
//! artifacts, the crash ledger) must survive a kill at an *arbitrary
//! instant*. This module provides the pieces of that guarantee:
//!
//! * [`write_durable`] — temp file → `fsync` → atomic rename → best-effort
//!   directory sync, with named failpoint sites (`<prefix>.write`,
//!   `<prefix>.sync`, `<prefix>.rename`) on each step and **one retry**
//!   with a fresh temp file on transient failure, so a single injected
//!   `EIO` self-heals without a restart. Whole documents — a checkpoint
//!   base, an artifact, the ledger, a fresh journal's header — use it.
//! * [`append_durable`] — append → `fdatasync` on an already-published
//!   file, through the same `<prefix>.write` / `<prefix>.sync` sites. This
//!   is the per-pair checkpoint commit ([`crate::journal`]); it has no
//!   retry of its own because its caller's fallback is a full
//!   [`write_durable`] rewrite.
//! * [`seal`] / [`unseal`] — a CRC-32 footer (`#crc32=XXXXXXXX`) appended
//!   to every document, so a *published* torn file (short write + crash,
//!   or a lying disk) is detected at read time and sidelined by the
//!   recovery scan instead of being trusted or panicking the loader.
//!   Journal records carry their own per-line CRC for the same reason.
//!
//! The rename is what makes the write atomic; the fsync before it is what
//! makes the rename meaningful (no file visible with unwritten contents);
//! the CRC is the backstop for the failure modes fsync cannot promise
//! away. An append is not atomic at all — a crash can leave any prefix of
//! it — which is why the journal reader trusts only whole, CRC-valid
//! records.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// CRC-32 (IEEE, reflected — the zlib/PNG polynomial) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    // Small table built on first use; this is cold I/O-path code.
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    0xedb8_8320 ^ (crc >> 1)
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        table
    });
    let mut crc = 0xffff_ffffu32;
    for &byte in bytes {
        crc = table[((crc ^ u32::from(byte)) & 0xff) as usize] ^ (crc >> 8);
    }
    !crc
}

/// The footer marker sealing a durable document.
pub const CRC_FOOTER: &str = "#crc32=";

/// Appends the CRC-32 footer line to `body`.
pub fn seal(body: &str) -> String {
    format!("{body}\n{CRC_FOOTER}{:08x}\n", crc32(body.as_bytes()))
}

/// A successfully unsealed document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unsealed<'a> {
    /// The document carried a valid CRC footer.
    Sealed(&'a str),
    /// No footer at all — a legacy (pre-CRC, format v2) document. The
    /// caller decides whether that is acceptable for the claimed format
    /// version.
    Legacy(&'a str),
}

impl<'a> Unsealed<'a> {
    /// The document body either way.
    pub fn body(&self) -> &'a str {
        match self {
            Unsealed::Sealed(body) | Unsealed::Legacy(body) => body,
        }
    }
}

/// Splits and verifies the CRC footer.
///
/// # Errors
///
/// Returns a description if a footer is present but wrong — a torn or
/// bit-flipped file, never to be trusted.
pub fn unseal(text: &str) -> Result<Unsealed<'_>, String> {
    let trimmed = text.trim_end_matches(['\n', '\r']);
    let Some(at) = trimmed.rfind(&format!("\n{CRC_FOOTER}")) else {
        // A footer fragment with no preceding newline (torn at byte 0 of
        // the body) can only be the degenerate empty document; treat any
        // leading footer as corruption too.
        if trimmed.starts_with(CRC_FOOTER) {
            return Err("document is only a CRC footer".to_owned());
        }
        return Ok(Unsealed::Legacy(text));
    };
    let body = &trimmed[..at];
    let footer = &trimmed[at + 1 + CRC_FOOTER.len()..];
    let Ok(expected) = u32::from_str_radix(footer.trim(), 16) else {
        return Err(format!("unparsable CRC footer '{footer}'"));
    };
    let actual = crc32(body.as_bytes());
    if actual != expected {
        return Err(format!(
            "CRC mismatch: footer says {expected:08x}, content hashes to {actual:08x} (torn or corrupt write)"
        ));
    }
    Ok(Unsealed::Sealed(body))
}

/// The temp-file path `write_durable` stages through (also what the
/// recovery scan sweeps for).
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

fn injected(site: &str) -> io::Error {
    io::Error::other(format!("injected fault at {site}"))
}

/// Writes `bytes` to `path` with the full durability discipline, emulating
/// any fault scheduled on `<site_prefix>.{write,sync,rename}`. A transient
/// failure (injected or real) is retried once with a fresh temp file.
///
/// A scheduled *short write* is **not** an error: the truncated bytes go
/// through the rest of the pipeline and get published, exactly like a torn
/// write surviving a crash — it is the reader's CRC check that must catch
/// it.
///
/// # Errors
///
/// Returns the underlying [`io::Error`] if both attempts fail.
pub fn write_durable(path: &Path, site_prefix: &str, bytes: &[u8]) -> io::Result<()> {
    let mut last = None;
    for _ in 0..2 {
        match write_once(path, site_prefix, bytes) {
            Ok(()) => return Ok(()),
            Err(error) => last = Some(error),
        }
    }
    Err(last.expect("two attempts, so a last error"))
}

fn write_once(path: &Path, site_prefix: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = tmp_path(path);
    let write_site = format!("{site_prefix}.write");
    let payload: &[u8] = match faults::hit(&write_site) {
        faults::Fault::None => bytes,
        faults::Fault::Error => return Err(injected(&write_site)),
        faults::Fault::ShortWrite(keep) => &bytes[..bytes.len().min(keep as usize)],
    };
    let mut file = File::create(&tmp)?;
    file.write_all(payload)?;
    let sync_site = format!("{site_prefix}.sync");
    match faults::hit(&sync_site) {
        faults::Fault::Error => return Err(injected(&sync_site)),
        _ => file.sync_all()?,
    }
    drop(file);
    let rename_site = format!("{site_prefix}.rename");
    if faults::hit(&rename_site) == faults::Fault::Error {
        return Err(injected(&rename_site));
    }
    std::fs::rename(&tmp, path)?;
    // Make the rename itself durable. Failure here is not worth a retry
    // loop: the data is safe, only the directory entry might replay.
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    Ok(())
}

/// Appends `bytes` to `file` and makes them durable with `fdatasync`,
/// emulating any fault scheduled on `<site_prefix>.{write,sync}`. There is
/// no retry: callers fall back to a full [`write_durable`] rewrite.
///
/// As in [`write_durable`], a scheduled *short write* is not an error: the
/// truncated bytes are appended and synced, like a torn append surviving
/// a crash, and the reader's per-record CRC must catch it.
///
/// # Errors
///
/// Returns the underlying (or injected) [`io::Error`].
pub fn append_durable(file: &mut File, site_prefix: &str, bytes: &[u8]) -> io::Result<()> {
    let write_site = format!("{site_prefix}.write");
    let payload: &[u8] = match faults::hit(&write_site) {
        faults::Fault::None => bytes,
        faults::Fault::Error => return Err(injected(&write_site)),
        faults::Fault::ShortWrite(keep) => &bytes[..bytes.len().min(keep as usize)],
    };
    file.write_all(payload)?;
    let sync_site = format!("{site_prefix}.sync");
    match faults::hit(&sync_site) {
        faults::Fault::Error => Err(injected(&sync_site)),
        _ => file.sync_data(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic zlib check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn seal_unseal_round_trips() {
        let body = "{\"hello\": 1}";
        let sealed = seal(body);
        assert_eq!(unseal(&sealed).unwrap(), Unsealed::Sealed(body));
    }

    #[test]
    fn unsealed_legacy_documents_pass_through() {
        let body = "{\"format_version\": 2}";
        assert_eq!(unseal(body).unwrap(), Unsealed::Legacy(body));
    }

    #[test]
    fn torn_documents_are_rejected() {
        let sealed = seal("{\"a\": [1, 2, 3]}");
        // Flip one content byte: footer no longer matches.
        let mut bytes = sealed.clone().into_bytes();
        bytes[2] ^= 0x20;
        let flipped = String::from_utf8(bytes).unwrap();
        assert!(unseal(&flipped).is_err());
        // Truncation that keeps the footer marker but cuts the body.
        let cut = format!("{}{}", &sealed[..4], &sealed[sealed.len() - 17..]);
        assert!(unseal(&cut).is_err());
    }

    #[test]
    fn durable_write_then_read() {
        let dir = std::env::temp_dir().join(format!("durable-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.json");
        write_durable(&path, "test.durable", seal("{\"x\": 1}").as_bytes()).unwrap();
        assert!(!tmp_path(&path).exists());
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(unseal(&text).unwrap().body(), "{\"x\": 1}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
