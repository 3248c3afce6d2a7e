//! Atomicity-violation-directed testing: race-free programs whose
//! intended-atomic regions are split across critical sections.

use racefuzzer::{analyze_atomicity, fuzz_atomicity_once, FuzzConfig};

/// The canonical split check-then-act: every access is lock-protected
/// (no data race anywhere), but the read and the write live in separate
/// critical sections — a concurrent withdraw between them is lost.
fn split_region_bank() -> cil::Program {
    cil::compile(
        r#"
        class Lock { }
        global l;
        global balance = 100;

        proc deposit_split(amount) {
            var current;
            sync (l) { @dep_read current = balance; }
            // The region is open here: another thread can run.
            sync (l) { @dep_write balance = current + amount; }
        }

        proc withdraw(amount) {
            sync (l) { @wd_write balance = balance - amount; }
        }

        proc main() {
            l = new Lock;
            var t1 = spawn deposit_split(50);
            var t2 = spawn withdraw(30);
            join t1;
            join t2;
            var final_balance;
            sync (l) { final_balance = balance; }
            assert final_balance == 120 : "an update was lost";
        }
        "#,
    )
    .unwrap()
}

#[test]
fn split_region_is_race_free_but_not_atomic() {
    let program = split_region_bank();
    // A race detector is silent: every access holds the lock.
    let races =
        detector::predict_races(&program, "main", &detector::PredictConfig::with_runs(10)).unwrap();
    assert!(races.is_empty(), "no data race exists: {races:?}");

    // The atomicity pipeline predicts and forces the violation.
    let report = analyze_atomicity(&program, "main", 40, 1, &FuzzConfig::default()).unwrap();
    assert!(
        !report.candidates.is_empty(),
        "split region must be predicted"
    );
    let real = report.real_violations();
    assert!(!real.is_empty(), "violation must be forced: {report:?}");
    // The forced interleaving loses an update → the assert fires in some
    // trials.
    assert!(
        report.reports.iter().any(|r| r.exception_trials > 0),
        "the lost update is observable: {report:?}"
    );
}

#[test]
fn single_section_version_has_no_candidates() {
    let program = cil::compile(
        r#"
        class Lock { }
        global l;
        global balance = 100;

        proc deposit_atomic(amount) {
            sync (l) {
                var current = balance;
                balance = current + amount;
            }
        }

        proc withdraw(amount) {
            sync (l) { balance = balance - amount; }
        }

        proc main() {
            l = new Lock;
            var t1 = spawn deposit_atomic(50);
            var t2 = spawn withdraw(30);
            join t1;
            join t2;
            var final_balance;
            sync (l) { final_balance = balance; }
            assert final_balance == 120 : "all updates kept";
        }
        "#,
    )
    .unwrap();
    let report = analyze_atomicity(&program, "main", 10, 1, &FuzzConfig::default()).unwrap();
    assert!(
        report.candidates.is_empty(),
        "properly atomic code has no split regions: {:?}",
        report.candidates
    );
}

#[test]
fn violation_replays_from_seed() {
    let program = split_region_bank();
    let report = analyze_atomicity(&program, "main", 40, 1, &FuzzConfig::default()).unwrap();
    let pair = report
        .reports
        .iter()
        .find(|r| r.is_real())
        .expect("a real violation exists");
    let seed = pair.first_seed.expect("violating seed recorded");
    let a = fuzz_atomicity_once(&program, "main", &pair.target, &FuzzConfig::seeded(seed)).unwrap();
    let b = fuzz_atomicity_once(&program, "main", &pair.target, &FuzzConfig::seeded(seed)).unwrap();
    assert!(a.violated());
    assert_eq!(a.violations, b.violations);
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.output, b.output);
}

#[test]
fn violation_events_carry_threads_and_location() {
    let program = split_region_bank();
    let report = analyze_atomicity(&program, "main", 40, 1, &FuzzConfig::default()).unwrap();
    let pair = report.reports.iter().find(|r| r.is_real()).unwrap();
    let outcome = fuzz_atomicity_once(
        &program,
        "main",
        &pair.target,
        &FuzzConfig::seeded(pair.first_seed.unwrap()),
    )
    .unwrap();
    let event = &outcome.violations[0];
    assert_ne!(event.region_thread, event.remote_thread);
    assert!(matches!(event.loc, interp::Loc::Global(_)));
}
