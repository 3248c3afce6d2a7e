//! Human-readable execution traces.
//!
//! The paper's replay feature is meant for *debugging* ("a useful tool for
//! debugging real races"): re-run with the seed and inspect what happened.
//! [`render_trace`] replays a race-directed execution and prints one line
//! per scheduled statement — thread, disassembled instruction, source
//! position — with the created races and thread deaths marked inline.

use crate::algorithm::fuzz_pair_once;
use crate::config::FuzzConfig;
use detector::RacePair;
use interp::{Execution, NullObserver, SetupError, StepResult, Termination};
use std::fmt::Write as _;

/// Replays `(pair, seed)` and renders the full schedule as text.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` does not name a zero-argument
/// procedure.
///
/// # Examples
///
/// ```
/// use detector::RacePair;
///
/// let program = cil::compile(
///     r#"
///     global x = 0;
///     proc child() { @w x = 1; }
///     proc main() {
///         var t = spawn child();
///         @r var v = x;
///         join t;
///     }
///     "#,
/// )
/// .unwrap();
/// let pair = RacePair::new(program.tagged_access("w"), program.tagged_access("r"));
/// let trace = racefuzzer::render_trace(&program, "main", pair, 1).unwrap();
/// assert!(trace.contains("REAL RACE"));
/// ```
pub fn render_trace(
    program: &cil::Program,
    entry: &str,
    pair: RacePair,
    seed: u64,
) -> Result<String, SetupError> {
    let outcome = fuzz_pair_once(program, entry, pair, &FuzzConfig::seeded(seed).recording())?;
    let schedule = outcome
        .schedule
        .clone()
        .expect("recording config captures the schedule");

    let mut exec = Execution::new(program, entry)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace of RaceSet {pair}, seed {seed} ({} steps)",
        schedule.len()
    );

    for (index, &thread) in schedule.iter().enumerate() {
        for race in &outcome.races {
            if race.step == index as u64 {
                let _ = writeln!(
                    out,
                    "      ── REAL RACE: {} with {:?} at {:?} ──",
                    race.pair, race.partners, race.loc
                );
            }
        }
        let action = match exec.next_instr(thread) {
            Some(instr) => cil::pretty::describe_instr(program, instr),
            None => "<resumes from wait>".to_string(),
        };
        let result = exec.step(thread, &mut NullObserver);
        let suffix = match result {
            StepResult::Exited => "  [thread exited]",
            StepResult::Uncaught(_) => "  [UNCAUGHT EXCEPTION — thread died]",
            _ => "",
        };
        let _ = writeln!(out, "{index:>5}  {thread}  {action}{suffix}");
    }

    match &outcome.termination {
        Termination::AllExited => {
            let _ = writeln!(out, "=== all threads exited ===");
        }
        Termination::Deadlock(threads) => {
            let _ = writeln!(out, "=== ERROR: actual deadlock found: {threads:?} ===");
        }
        other => {
            let _ = writeln!(out, "=== {other:?} ===");
        }
    }
    for exception in &outcome.uncaught {
        let _ = writeln!(
            out,
            "uncaught {} in {} at {}",
            program.name(exception.name),
            exception.thread,
            cil::pretty::describe_instr(program, exception.at)
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn racy_program() -> cil::Program {
        cil::compile(
            r#"
            global x = 0;
            proc child() { @w x = 1; }
            proc main() {
                var t = spawn child();
                @r var v = x;
                if (v == 1) { throw Seen; }
                join t;
            }
            "#,
        )
        .unwrap()
    }

    #[test]
    fn trace_covers_every_step_and_marks_races() {
        let program = racy_program();
        let pair = RacePair::new(program.tagged_access("w"), program.tagged_access("r"));
        let trace = render_trace(&program, "main", pair, 1).unwrap();
        assert!(trace.contains("REAL RACE"), "{trace}");
        assert!(trace.contains("t0"), "{trace}");
        assert!(trace.contains("t1"), "{trace}");
        assert!(
            trace.contains("all threads exited") || trace.contains("UNCAUGHT"),
            "{trace}"
        );
    }

    #[test]
    fn trace_is_deterministic() {
        let program = racy_program();
        let pair = RacePair::new(program.tagged_access("w"), program.tagged_access("r"));
        let a = render_trace(&program, "main", pair, 9).unwrap();
        let b = render_trace(&program, "main", pair, 9).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_render_different_traces() {
        let program = racy_program();
        let pair = RacePair::new(program.tagged_access("w"), program.tagged_access("r"));
        let traces: std::collections::HashSet<String> = (0..10)
            .map(|seed| render_trace(&program, "main", pair, seed).unwrap())
            .collect();
        assert!(traces.len() > 1, "schedules explore");
    }
}
