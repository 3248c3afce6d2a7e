//! Crash-torture: kill the campaign at scheduled fault points, resume it,
//! and require the recovered report to be byte-identical to an
//! uninterrupted run.
//!
//! The harness drives the `campaign-torture` binary (built with live
//! failpoints via dev-dependency feature unification — see the root
//! `Cargo.toml`) through four sweeps per worker configuration:
//!
//! * **kill sweep** — attempt *i* schedules `abort` at hit *i* of every
//!   durable-write site, so the process dies at the *i*-th durable
//!   operation of each run: between staging write and fsync, between
//!   fsync and rename, mid-artifact-save, everywhere. The supervisor
//!   restarts it until an attempt survives.
//! * **torn sweep** — a short write publishes a CRC-invalid checkpoint or
//!   artifact, then an abort kills the process before the next save can
//!   replace it. Recovery must sideline the torn file and redo the lost
//!   work deterministically.
//! * **journal sweep** — the same for the per-pair commit: a short write
//!   tears a checkpoint-journal record and an abort follows; then kills
//!   land inside compactions, before the base rename and between it and
//!   the journal reset.
//! * **error sweep** — injected I/O errors on every site; the durable
//!   writer's retry (for a journal append, a fallback compaction) absorbs
//!   them and the run completes cleanly with no supervisor involvement.
//!
//! Across both worker configurations (1 and 4) and four workloads the
//! sweeps schedule well over 200 fault points; the test counts them and
//! fails if coverage ever shrinks below that floor.

use campaign::{supervise, ChildExit, SupervisorOptions};
use faults::{FaultAction, Plan, Schedule};
use racefuzzer_suite::torture;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

const BIN: &str = env!("CARGO_BIN_EXE_campaign-torture");

/// Attempts beyond this never get a schedule; the kill sweep always ends
/// with a fault-free run long before reaching it.
const MAX_ARMED_ATTEMPTS: u32 = 80;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("crash-torture-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn plan(site: &str, hit: u64, action: FaultAction) -> Plan {
    Plan {
        site: site.to_owned(),
        hit,
        action,
    }
}

/// Runs one child with `schedule` installed (empty = fault-free) and
/// returns its raw output.
fn run_child(
    dir: &Path,
    workers: usize,
    schedule: &Schedule,
    fault_log: &Path,
) -> std::process::Output {
    let mut cmd = Command::new(BIN);
    cmd.arg("child")
        .arg(dir)
        .arg(workers.to_string())
        .env_remove(faults::SCHEDULE_ENV)
        .env(faults::LOG_ENV, fault_log);
    if !schedule.is_empty() {
        cmd.env(faults::SCHEDULE_ENV, schedule.render());
    }
    cmd.output().expect("spawn campaign-torture child")
}

fn baseline(dir: &Path, workers: usize) -> Vec<u8> {
    let output = Command::new(BIN)
        .arg("baseline")
        .arg(dir)
        .arg(workers.to_string())
        .output()
        .expect("spawn campaign-torture baseline");
    assert!(
        output.status.success(),
        "baseline run failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(!output.stdout.is_empty(), "baseline printed no report");
    output.stdout
}

/// Supervises crashing children until one survives, returning
/// `(crashes, armed_attempts, final stdout)`. `schedule_for` arms attempt
/// `i` (1-based); `None` runs it fault-free.
fn supervised_sweep(
    dir: &Path,
    workers: usize,
    fault_log: &Path,
    schedule_for: impl Fn(u32) -> Option<Schedule>,
) -> (u32, u32, Vec<u8>) {
    let mut last_stdout = Vec::new();
    let mut armed = 0u32;
    let mut child = |attempt: u32| -> std::io::Result<ChildExit> {
        let schedule = schedule_for(attempt).unwrap_or_default();
        if !schedule.is_empty() {
            armed = armed.max(attempt);
        }
        let output = run_child(dir, workers, &schedule, fault_log);
        if output.status.success() {
            last_stdout = output.stdout;
            Ok(ChildExit::Clean)
        } else {
            Ok(ChildExit::Crashed(format!("{}", output.status)))
        }
    };
    let options = SupervisorOptions {
        log_path: Some(dir.join("recovery.log")),
        max_restarts: MAX_ARMED_ATTEMPTS + 16,
        // The sweeps are about durability, not crash-loop quarantine: a
        // ledger entry would (correctly) change the final report, so keep
        // the threshold out of reach and assert no ledger appears.
        crash_quarantine_threshold: MAX_ARMED_ATTEMPTS + 1,
        initial_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(20),
        ..SupervisorOptions::new(torture::checkpoint_path(dir), torture::ledger_path(dir))
    };
    let outcome = supervise(&mut child, &options).expect("supervisor spawns children");
    assert!(
        !outcome.gave_up,
        "supervisor gave up after {} crashes",
        outcome.crashes
    );
    assert_eq!(outcome.quarantined, 0, "sweep must not reach the ledger");
    assert!(
        !torture::ledger_path(dir).exists(),
        "no crash ledger expected"
    );
    let log = std::fs::read_to_string(dir.join("recovery.log")).unwrap_or_default();
    assert!(
        log.lines().count() >= outcome.crashes as usize,
        "recovery log records every crash"
    );
    (outcome.crashes, armed, last_stdout)
}

/// One full torture pass for a worker count. Returns the number of
/// scheduled fault points.
fn torture_config(workers: usize) -> usize {
    let label = format!("w{workers}");
    let mut scheduled = 0usize;

    let base_dir = scratch(&format!("{label}-base"));
    let expected = baseline(&base_dir, workers);

    // Kill sweep: attempt i aborts at hit i of all six durable sites.
    let kill_dir = scratch(&format!("{label}-kill"));
    let fault_log = kill_dir.join("faults.log");
    std::fs::create_dir_all(&kill_dir).unwrap();
    let (kill_crashes, kill_armed, recovered) =
        supervised_sweep(&kill_dir, workers, &fault_log, |attempt| {
            (attempt <= MAX_ARMED_ATTEMPTS).then(|| {
                Schedule::new(
                    torture::DURABLE_SITES
                        .iter()
                        .map(|site| plan(site, u64::from(attempt), FaultAction::Abort))
                        .collect(),
                )
            })
        });
    scheduled += torture::DURABLE_SITES.len() * kill_armed as usize;
    assert!(
        kill_crashes >= 5,
        "kill sweep should crash the campaign many times, got {kill_crashes}"
    );
    assert_eq!(
        recovered, expected,
        "[{label}] kill sweep: recovered report differs from baseline"
    );

    // Torn sweep: publish a CRC-invalid file via a short write, then kill
    // the process before the next save can replace it.
    let torn_dir = scratch(&format!("{label}-torn"));
    let torn_log = torn_dir.join("faults.log");
    let torn_schedules: Vec<Schedule> = vec![
        Schedule::new(vec![
            plan("campaign.checkpoint.write", 1, FaultAction::ShortWrite(0)),
            plan("campaign.checkpoint.write", 2, FaultAction::Abort),
        ]),
        Schedule::new(vec![
            plan("campaign.checkpoint.write", 2, FaultAction::ShortWrite(9)),
            plan("campaign.checkpoint.write", 3, FaultAction::Abort),
        ]),
        Schedule::new(vec![
            plan("campaign.checkpoint.write", 3, FaultAction::ShortWrite(33)),
            plan("campaign.checkpoint.write", 4, FaultAction::Abort),
        ]),
        Schedule::new(vec![
            plan("campaign.artifact.write", 1, FaultAction::ShortWrite(7)),
            plan("campaign.artifact.write", 2, FaultAction::Abort),
        ]),
        Schedule::new(vec![
            plan("campaign.artifact.write", 2, FaultAction::ShortWrite(0)),
            plan("campaign.artifact.write", 3, FaultAction::Abort),
        ]),
        Schedule::new(vec![
            plan("campaign.artifact.write", 4, FaultAction::ShortWrite(21)),
            plan("campaign.checkpoint.write", 6, FaultAction::Abort),
        ]),
    ];
    scheduled += torn_schedules
        .iter()
        .map(|s| s.plans().len())
        .sum::<usize>();
    let (torn_crashes, _, recovered) = supervised_sweep(&torn_dir, workers, &torn_log, |attempt| {
        torn_schedules.get(attempt as usize - 1).cloned()
    });
    assert!(torn_crashes >= 3, "torn sweep crashes, got {torn_crashes}");
    assert_eq!(
        recovered, expected,
        "[{label}] torn sweep: recovered report differs from baseline"
    );

    // Journal sweep: the torn sweep aimed at the per-pair commit, from a
    // fresh state directory. A fresh run's first checkpoint save is a
    // compaction (write hits 1 and 2: the base, then the fresh journal's
    // header) and so is a resumed run's start, so checkpoint writes from
    // hit 3 on are journal appends. Tear one, then kill the process at the
    // next hit: recovery must apply the records before the tear and
    // sideline the journal. Then kill inside later compactions: before the
    // base rename (the old base and journal must replay), and between the
    // base rename and the journal reset (the old journal is stale and must
    // be ignored, not applied twice).
    let journal_dir = scratch(&format!("{label}-journal"));
    let journal_log = journal_dir.join("faults.log");
    let journal_schedules: Vec<Schedule> = vec![
        Schedule::new(vec![
            plan("campaign.checkpoint.write", 4, FaultAction::ShortWrite(17)),
            plan("campaign.checkpoint.write", 5, FaultAction::Abort),
        ]),
        Schedule::new(vec![
            plan("campaign.checkpoint.write", 5, FaultAction::ShortWrite(100)),
            plan("campaign.checkpoint.write", 6, FaultAction::Abort),
        ]),
        Schedule::new(vec![plan(
            "campaign.checkpoint.rename",
            3,
            FaultAction::Abort,
        )]),
        Schedule::new(vec![plan(
            "campaign.checkpoint.rename",
            4,
            FaultAction::Abort,
        )]),
    ];
    scheduled += journal_schedules
        .iter()
        .map(|s| s.plans().len())
        .sum::<usize>();
    let (journal_crashes, _, recovered) =
        supervised_sweep(&journal_dir, workers, &journal_log, |attempt| {
            journal_schedules.get(attempt as usize - 1).cloned()
        });
    assert_eq!(
        journal_crashes as usize,
        journal_schedules.len(),
        "[{label}] every journal-sweep schedule kills its attempt"
    );
    assert!(
        std::fs::read_dir(&journal_dir).unwrap().any(|entry| entry
            .unwrap()
            .file_name()
            .to_string_lossy()
            .starts_with("checkpoint.json.journal.corrupt-")),
        "[{label}] the torn journal record must be detected and sidelined"
    );
    assert_eq!(
        recovered, expected,
        "[{label}] journal sweep: recovered report differs from baseline"
    );

    // Error sweep: injected I/O errors; the one-retry durable writer
    // self-heals, so each run completes cleanly with no supervisor. One
    // stage (write/sync/rename) per run, because the stages of a single
    // save share its one retry — two injections inside the same save
    // would exhaust it, which is a genuine double-fault, not recovery
    // failure. Hits are spaced ≥2 apart for the same reason: the retry
    // consumes the next hit count of every stage it reaches.
    let err_dir = scratch(&format!("{label}-err"));
    let err_log = err_dir.join("faults.log");
    let mut fired_errors = 0usize;
    for stage in ["write", "sync", "rename"] {
        std::fs::remove_dir_all(&err_dir).ok();
        std::fs::create_dir_all(&err_dir).unwrap();
        let err_schedule = Schedule::new(
            ["campaign.checkpoint", "campaign.artifact"]
                .iter()
                .flat_map(|prefix| {
                    [1u64, 3, 5, 8, 13, 21, 27, 33].iter().map(move |&hit| {
                        plan(&format!("{prefix}.{stage}"), hit, FaultAction::Error)
                    })
                })
                .collect(),
        );
        scheduled += err_schedule.plans().len();
        let output = run_child(&err_dir, workers, &err_schedule, &err_log);
        assert!(
            output.status.success(),
            "[{label}] {stage} error sweep child failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert_eq!(
            output.stdout, expected,
            "[{label}] {stage} error sweep: report under injected I/O errors differs"
        );
        let log = std::fs::read_to_string(&err_log).unwrap_or_default();
        fired_errors += log.lines().filter(|l| l.starts_with("fired ")).count();
    }
    assert!(
        fired_errors >= 8,
        "error sweeps should actually fire injections, saw {fired_errors} lines"
    );

    // Every crash in the supervised sweeps was one fired abort.
    let fired_kills = std::fs::read_to_string(&fault_log).unwrap_or_default();
    assert!(
        fired_kills.lines().filter(|l| l.contains("=abort")).count() >= kill_crashes as usize,
        "each kill-sweep crash corresponds to a fired abort"
    );

    for dir in [base_dir, kill_dir, torn_dir, journal_dir, err_dir] {
        std::fs::remove_dir_all(dir).ok();
    }
    scheduled
}

#[test]
fn crash_torture_reports_are_byte_identical() {
    assert!(
        faults::compiled(),
        "test builds must compile failpoints in (dev-dependency feature unification)"
    );
    let scheduled: usize = [1usize, 4]
        .iter()
        .map(|&workers| torture_config(workers))
        .sum();
    assert!(
        scheduled >= 200,
        "torture coverage shrank: only {scheduled} scheduled fault points (need >= 200)"
    );
}

/// The binary's own `supervise` mode — the CI entry point — must succeed
/// end-to-end with a seed-driven schedule sweep and leave a recovery log.
#[test]
fn torture_bin_supervise_mode_recovers() {
    let dir = scratch("bin-supervise");
    let output = Command::new(BIN)
        .arg("supervise")
        .arg(&dir)
        .arg("1")
        .arg("20260808")
        .arg("8")
        .env_remove(faults::SCHEDULE_ENV)
        .output()
        .expect("spawn campaign-torture supervise");
    assert!(
        output.status.success(),
        "supervise mode failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        String::from_utf8_lossy(&output.stdout).contains("torture OK"),
        "expected success banner"
    );
    assert!(
        dir.join("torture").join("recovery.log").exists(),
        "supervise mode writes the recovery log"
    );
    std::fs::remove_dir_all(dir).ok();
}
