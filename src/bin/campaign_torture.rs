//! Crash-torture driver for the campaign's durability story.
//!
//! Three modes, sharing the campaign definition in
//! [`racefuzzer_suite::torture`]:
//!
//! * `campaign-torture baseline <dir> <workers>` — one uninterrupted run;
//!   prints the canonical report to stdout. Ignores any fault schedule in
//!   the environment.
//! * `campaign-torture child <dir> <workers>` — one run with the fault
//!   schedule from `RF_FAILPOINTS` installed (fired faults appended to
//!   `RF_FAULT_LOG` if set). A scheduled abort kills the process
//!   mid-write; otherwise prints the canonical report to stdout.
//! * `campaign-torture supervise <dir> <workers> <seed> <rounds>` — the
//!   self-healing loop: re-executes this binary in `child` mode under
//!   [`campaign::supervise`], arming attempt *i* with the seed-driven
//!   schedule `Schedule::seeded(seed + i, ...)` while rounds remain and
//!   nothing afterwards, then verifies the recovered report is
//!   byte-identical to a fresh baseline run in a sibling directory.
//!   Exits non-zero on give-up, a failed final run, or a report mismatch.
//!
//! Exit codes: 0 success, 2 usage or campaign error, 3 bad fault
//! schedule, 4 torture verification failure.

use racefuzzer_suite::torture;
use std::path::{Path, PathBuf};
use std::process::Command;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let code = match args.get(1).map(String::as_str) {
        Some("baseline") => baseline(&args[2..]),
        Some("child") => child(&args[2..]),
        Some("supervise") => supervise_mode(&args[2..]),
        _ => {
            eprintln!(
                "usage: campaign-torture baseline <dir> <workers>\n\
                 \x20      campaign-torture child <dir> <workers>\n\
                 \x20      campaign-torture supervise <dir> <workers> <seed> <rounds>"
            );
            2
        }
    };
    std::process::exit(code);
}

fn parse_dir_workers(args: &[String]) -> Option<(PathBuf, usize)> {
    let dir = PathBuf::from(args.first()?);
    let workers = args.get(1)?.parse().ok()?;
    Some((dir, workers))
}

fn run_and_print(dir: &Path, workers: usize) -> i32 {
    match torture::build(dir, workers).run() {
        Ok(report) => {
            print!("{}", report.canonical_json());
            0
        }
        Err(error) => {
            eprintln!("campaign error: {error}");
            2
        }
    }
}

fn baseline(args: &[String]) -> i32 {
    let Some((dir, workers)) = parse_dir_workers(args) else {
        eprintln!("baseline: expected <dir> <workers>");
        return 2;
    };
    faults::clear();
    run_and_print(&dir, workers)
}

fn child(args: &[String]) -> i32 {
    let Some((dir, workers)) = parse_dir_workers(args) else {
        eprintln!("child: expected <dir> <workers>");
        return 2;
    };
    if let Err(error) = faults::install_from_env() {
        eprintln!("bad {}: {}", faults::SCHEDULE_ENV, error.0);
        return 3;
    }
    run_and_print(&dir, workers)
}

fn supervise_mode(args: &[String]) -> i32 {
    let Some((dir, workers)) = parse_dir_workers(args) else {
        eprintln!("supervise: expected <dir> <workers> <seed> <rounds>");
        return 2;
    };
    let (Some(Ok(seed)), Some(Ok(rounds))) = (
        args.get(2).map(|a| a.parse::<u64>()),
        args.get(3).map(|a| a.parse::<u32>()),
    ) else {
        eprintln!("supervise: expected <dir> <workers> <seed> <rounds>");
        return 2;
    };
    if !faults::compiled() {
        eprintln!(
            "supervise: fault injection is compiled out of this build, so the sweep \
             would torture nothing; rebuild with `--features failpoints`"
        );
        return 2;
    }
    faults::clear();

    // Reference run, untouched by faults, in a sibling state directory.
    let baseline_dir = dir.join("baseline");
    let expected = match torture::build(&baseline_dir, workers).run() {
        Ok(report) => report.canonical_json(),
        Err(error) => {
            eprintln!("baseline campaign error: {error}");
            return 2;
        }
    };

    let torture_dir = dir.join("torture");
    std::fs::create_dir_all(&torture_dir).expect("create torture dir");
    let exe = std::env::current_exe().expect("current_exe");
    let fault_log = torture_dir.join("faults.log");
    let mut last_stdout = Vec::new();
    let mut child = |attempt: u32| -> std::io::Result<campaign::ChildExit> {
        let mut cmd = Command::new(&exe);
        cmd.arg("child")
            .arg(&torture_dir)
            .arg(workers.to_string())
            .env_remove(faults::SCHEDULE_ENV)
            .env(faults::LOG_ENV, &fault_log);
        if attempt <= rounds {
            let schedule =
                faults::Schedule::seeded(seed + u64::from(attempt), &torture::DURABLE_SITES, 4, 12);
            if !schedule.is_empty() {
                cmd.env(faults::SCHEDULE_ENV, schedule.render());
            }
        }
        let output = cmd.output()?;
        if output.status.success() {
            last_stdout = output.stdout;
            Ok(campaign::ChildExit::Clean)
        } else {
            Ok(campaign::ChildExit::Crashed(format!("{}", output.status)))
        }
    };

    let options = campaign::SupervisorOptions {
        log_path: Some(torture_dir.join("recovery.log")),
        max_restarts: rounds + 16,
        // Seed-driven schedules change every attempt, so crash loops are
        // transient; keep the ledger out of the way so the recovered
        // report stays comparable to the fault-free baseline.
        crash_quarantine_threshold: rounds + 1,
        initial_backoff: std::time::Duration::from_millis(1),
        max_backoff: std::time::Duration::from_millis(50),
        ..campaign::SupervisorOptions::new(
            torture::checkpoint_path(&torture_dir),
            torture::ledger_path(&torture_dir),
        )
    };
    let outcome = match campaign::supervise(&mut child, &options) {
        Ok(outcome) => outcome,
        Err(error) => {
            eprintln!("supervisor could not start the child: {error}");
            return 2;
        }
    };
    eprintln!(
        "supervise: attempts={} crashes={} quarantined={} gave_up={}",
        outcome.attempts, outcome.crashes, outcome.quarantined, outcome.gave_up
    );
    if outcome.gave_up {
        eprintln!("torture FAILED: supervisor gave up");
        return 4;
    }
    if last_stdout != expected.as_bytes() {
        eprintln!(
            "torture FAILED: recovered report differs from baseline\n--- expected\n{expected}\n--- got\n{}",
            String::from_utf8_lossy(&last_stdout)
        );
        return 4;
    }
    println!(
        "torture OK: {} crashes survived, report byte-identical",
        outcome.crashes
    );
    0
}
