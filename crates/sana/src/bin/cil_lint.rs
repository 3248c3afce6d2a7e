//! `cil-lint` — static diagnostics for CIL programs.
//!
//! ```text
//! cil-lint [--entry NAME] [--races] [--format text|json] [--baseline FILE]
//!          [--write-baseline FILE] [--update-baselines] <file.cil>...
//! ```
//!
//! For each file: compile, run the `sana` lints (unprotected shared
//! accesses, inconsistent lock discipline, static lock-order cycles and
//! inversions, structural IR errors), and print one span-mapped line per
//! diagnostic:
//!
//! ```text
//! examples/cil/figure1.cil:10:13: unprotected-shared-access: #4 `store z` ...
//! ```
//!
//! `--races` switches to the static race-candidate generator: instead of
//! the lock-discipline lints, every statically conflicting access pair that
//! survives the refutation filter is reported as a `may-race` diagnostic —
//! the same candidate set `CandidateSource::Static` feeds to Phase 2.
//!
//! `--format json` emits a JSON array of `{"file","line","col","kind",
//! "message"}` objects on stdout instead of text lines, for tooling.
//!
//! Exit codes (CI treats any non-zero as failure, `-D warnings`-style):
//!
//! - `0` — no diagnostics, or every diagnostic is covered by `--baseline`
//!   (a *stale* baseline entry — more expected than found — is reported as
//!   a note but does not fail, so fixing a race never breaks CI);
//! - `1` — diagnostics beyond the baseline (regressions);
//! - `2` — a file failed to read or compile, or bad usage.
//!
//! A baseline file records the *expected* diagnostic counts as lines of
//! `<count> <file> <kind>`; `--write-baseline FILE` emits the current state
//! to a new file, and `--update-baselines` rewrites the `--baseline` file
//! in place, so known-racy fixtures (the whole point of this suite) stay
//! green while any new diagnostic fails CI until acknowledged.

use std::collections::BTreeMap;
use std::process::ExitCode;

use sana::lint::{
    lint_named, lint_program, race_candidate_lints, race_candidates_named, Diagnostic,
};

fn usage() -> ExitCode {
    eprintln!(
        "usage: cil-lint [--entry NAME] [--races] [--format text|json] [--baseline FILE] \
         [--write-baseline FILE] [--update-baselines] <file.cil>..."
    );
    ExitCode::from(2)
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

/// Escapes a string for inclusion in a JSON string literal.
fn json_escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            ch if (ch as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", ch as u32)),
            ch => out.push(ch),
        }
    }
    out
}

fn diagnostic_json(file: &str, diagnostic: &Diagnostic) -> String {
    format!(
        "{{\"file\": \"{}\", \"line\": {}, \"col\": {}, \"kind\": \"{}\", \"message\": \"{}\"}}",
        json_escape(file),
        diagnostic.span.line,
        diagnostic.span.col,
        diagnostic.kind.tag(),
        json_escape(&diagnostic.message)
    )
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut entry = "main".to_string();
    let mut baseline_path: Option<String> = None;
    let mut write_baseline: Option<String> = None;
    let mut update_baselines = false;
    let mut races = false;
    let mut format = Format::Text;
    let mut files: Vec<String> = Vec::new();

    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--entry" => match iter.next() {
                Some(name) => entry = name,
                None => return usage(),
            },
            "--baseline" => match iter.next() {
                Some(path) => baseline_path = Some(path),
                None => return usage(),
            },
            "--write-baseline" => match iter.next() {
                Some(path) => write_baseline = Some(path),
                None => return usage(),
            },
            "--update-baselines" => update_baselines = true,
            "--races" => races = true,
            "--format" => match iter.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                _ => return usage(),
            },
            "--help" | "-h" => return usage(),
            _ => files.push(arg),
        }
    }
    if files.is_empty() {
        return usage();
    }
    if update_baselines && baseline_path.is_none() {
        eprintln!("cil-lint: --update-baselines requires --baseline FILE");
        return ExitCode::from(2);
    }
    files.sort();

    let baseline: BTreeMap<(String, String), usize> = match &baseline_path {
        None => BTreeMap::new(),
        Some(path) if update_baselines => {
            // Rewriting from scratch: a missing baseline file is fine.
            match std::fs::read_to_string(path) {
                Ok(text) => parse_baseline(&text),
                Err(_) => BTreeMap::new(),
            }
        }
        Some(path) => match std::fs::read_to_string(path) {
            Ok(text) => parse_baseline(&text),
            Err(error) => {
                eprintln!("cil-lint: cannot read baseline `{path}`: {error}");
                return ExitCode::from(2);
            }
        },
    };

    let mut observed: BTreeMap<(String, String), usize> = BTreeMap::new();
    let mut total = 0usize;
    let mut json_items: Vec<String> = Vec::new();
    for path in &files {
        let source = match std::fs::read_to_string(path) {
            Ok(source) => source,
            Err(error) => {
                eprintln!("cil-lint: cannot read `{path}`: {error}");
                return ExitCode::from(2);
            }
        };
        let program = match cil::compile(&source) {
            Ok(program) => program,
            Err(error) => {
                eprintln!("{path}:{error}");
                return ExitCode::from(2);
            }
        };
        // No such entry proc: analyze from the first procedure so
        // library-style files still get structural checks.
        let diagnostics = if races {
            race_candidates_named(&program, &entry)
                .unwrap_or_else(|| race_candidate_lints(&program, cil::flat::ProcId(0)))
        } else {
            lint_named(&program, &entry)
                .unwrap_or_else(|| lint_program(&program, cil::flat::ProcId(0)))
        };
        for diagnostic in &diagnostics {
            match format {
                Format::Text => println!("{path}:{diagnostic}"),
                Format::Json => json_items.push(diagnostic_json(path, diagnostic)),
            }
            *observed
                .entry((path.clone(), diagnostic.kind.tag().to_string()))
                .or_insert(0) += 1;
            total += 1;
        }
    }
    if format == Format::Json {
        if json_items.is_empty() {
            println!("[]");
        } else {
            println!("[\n  {}\n]", json_items.join(",\n  "));
        }
    }

    let baseline_text = |observed: &BTreeMap<(String, String), usize>| {
        let mut text = String::from(
            "# cil-lint baseline: `<count> <file> <kind>` per line.\n\
             # Regenerate with: cil-lint --update-baselines --baseline <this file> <files>...\n",
        );
        for ((file, kind), count) in observed {
            text.push_str(&format!("{count} {file} {kind}\n"));
        }
        text
    };

    if let Some(path) = write_baseline {
        if let Err(error) = std::fs::write(&path, baseline_text(&observed)) {
            eprintln!("cil-lint: cannot write baseline `{path}`: {error}");
            return ExitCode::from(2);
        }
        println!("cil-lint: wrote baseline `{path}` ({total} diagnostic(s))");
        return ExitCode::SUCCESS;
    }
    if update_baselines {
        let path = baseline_path.expect("checked above");
        if baseline_text(&baseline) == baseline_text(&observed) {
            println!("cil-lint: baseline `{path}` already up to date");
        } else if let Err(error) = std::fs::write(&path, baseline_text(&observed)) {
            eprintln!("cil-lint: cannot write baseline `{path}`: {error}");
            return ExitCode::from(2);
        } else {
            println!("cil-lint: updated baseline `{path}` ({total} diagnostic(s))");
        }
        return ExitCode::SUCCESS;
    }

    // Regression check: only *new* diagnostics fail. A count above the
    // baseline is a regression; a count below it is a stale entry — noted
    // so someone re-baselines, but a fixed race never breaks CI.
    let mut regressions = 0usize;
    let mut stale = 0usize;
    if baseline_path.is_some() {
        let keys: std::collections::BTreeSet<_> =
            observed.keys().chain(baseline.keys()).cloned().collect();
        for key in keys {
            let now = observed.get(&key).copied().unwrap_or(0);
            let expected = baseline.get(&key).copied().unwrap_or(0);
            let (file, kind) = &key;
            if now > expected {
                eprintln!(
                    "cil-lint: {file}: {kind}: expected {expected} diagnostic(s), found {now}"
                );
                regressions += 1;
            } else if now < expected {
                eprintln!(
                    "cil-lint: note: {file}: {kind}: baseline expects {expected} but only \
                     {now} found (stale entry; run --update-baselines)"
                );
                stale += 1;
            }
        }
    }

    if regressions > 0 {
        eprintln!("cil-lint: {regressions} regression(s) against baseline");
        ExitCode::from(1)
    } else if baseline_path.is_none() && total > 0 {
        eprintln!("cil-lint: {total} diagnostic(s)");
        ExitCode::from(1)
    } else {
        if stale > 0 {
            eprintln!("cil-lint: {stale} stale baseline entr(y/ies), exit 0");
        }
        ExitCode::SUCCESS
    }
}

fn parse_baseline(text: &str) -> BTreeMap<(String, String), usize> {
    let mut baseline = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, ' ');
        let (Some(count), Some(file), Some(kind)) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        if let Ok(count) = count.parse::<usize>() {
            baseline.insert((file.to_string(), kind.to_string()), count);
        }
    }
    baseline
}
