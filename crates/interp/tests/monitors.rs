//! Fine-grained Java monitor semantics: these details matter because the
//! workload models (and the JDK bugs they reproduce) depend on them.

use interp::{
    run_with, Limits, NullObserver, RandomScheduler, RoundRobinScheduler, RunOutcome, Termination,
};

fn run_rr(source: &str, quantum: u64) -> (cil::Program, RunOutcome) {
    let program = cil::compile(source).expect("test program compiles");
    let outcome = run_with(
        &program,
        "main",
        &mut RoundRobinScheduler::new(quantum),
        &mut NullObserver,
        Limits::default(),
    )
    .unwrap();
    (program, outcome)
}

#[test]
fn wait_releases_only_the_waited_monitor() {
    // Java: wait(l) releases l but *keeps* any other monitors the thread
    // holds. The helper holds `other` across its wait; main must be able
    // to acquire `l` (to notify) but NOT `other` until the helper exits.
    let source = r#"
        class Lock { }
        global l;
        global other;
        global order = 0;
        proc helper() {
            sync (other) {
                sync (l) {
                    wait l;
                }
                // Still holding `other` here.
                order = 1;
            }
        }
        proc main() {
            l = new Lock;
            other = new Lock;
            var t = spawn helper();
            // Let the helper reach its wait.
            var i = 0;
            while (i < 30) { nop; i = i + 1; }
            sync (l) { notify l; }
            sync (other) {
                // Only acquirable after the helper released it.
                assert order == 1 : "helper finished while holding other";
            }
            join t;
        }
    "#;
    for seed in 0..10 {
        let program = cil::compile(source).unwrap();
        let outcome = run_with(
            &program,
            "main",
            &mut RandomScheduler::seeded(seed),
            &mut NullObserver,
            Limits::default(),
        )
        .unwrap();
        // Either the helper reached the wait before the notify (handoff
        // works, asserts hold), or the notify was lost and the run
        // deadlocks — both are legal Java behaviours; what must NEVER
        // happen is the assertion failing.
        assert!(
            outcome.uncaught.is_empty(),
            "seed {seed}: {:?}",
            outcome.uncaught
        );
    }
}

#[test]
fn wait_restores_reentrant_depth() {
    // A thread that waits inside a doubly-entered monitor must reacquire
    // at depth 2: a single inner unlock leaves it still holding the lock.
    let (_, outcome) = run_rr(
        r#"
        class Lock { }
        global l;
        global stage = 0;
        proc waiter() {
            sync (l) {
                sync (l) {
                    wait l;
                    // Reacquired at depth 2; leaving the inner sync keeps
                    // the monitor.
                }
                stage = 2;
            }
        }
        proc main() {
            l = new Lock;
            var t = spawn waiter();
            var i = 0;
            while (i < 30) { nop; i = i + 1; }
            sync (l) { stage = 1; notify l; }
            join t;
            assert stage == 2 : "waiter resumed through both levels";
        }
        "#,
        3,
    );
    assert_eq!(outcome.termination, Termination::AllExited);
    assert!(outcome.uncaught.is_empty(), "{:?}", outcome.uncaught);
}

#[test]
fn notify_moves_exactly_one_waiter() {
    let (_, outcome) = run_rr(
        r#"
        class Lock { }
        global l;
        global go = false;
        global woken = 0;
        proc waiter() {
            sync (l) {
                while (!go) { wait l; }
                woken = woken + 1;
            }
        }
        proc main() {
            l = new Lock;
            var a = spawn waiter();
            var b = spawn waiter();
            var i = 0;
            while (i < 60) { nop; i = i + 1; }
            sync (l) { go = true; notify l; }
            // One waiter proceeds; the other re-waits (go stays true but
            // it needs another notify to leave the wait set).
            sync (l) { notify l; }
            join a;
            join b;
            print woken;
        }
        "#,
        3,
    );
    assert_eq!(outcome.termination, Termination::AllExited);
    assert_eq!(outcome.output, vec!["2"]);
}

#[test]
fn uncaught_exception_releases_sync_monitors_but_not_raw_locks() {
    let (program, outcome) = run_rr(
        r#"
        class Lock { }
        global m;
        global raw;
        global reached = 0;
        proc crasher() {
            lock raw;
            sync (m) { throw Boom; }
        }
        proc main() {
            m = new Lock;
            raw = new Lock;
            var t = spawn crasher();
            join t;
            sync (m) { reached = 1; }   // released during unwind
            lock raw;                   // never released: blocks for ever
            reached = 2;
        }
        "#,
        3,
    );
    // The crasher dies with Boom; main acquires the monitor but then
    // blocks on the raw lock → deadlock with reached == 1.
    assert!(outcome.has_uncaught(&program, "Boom"));
    assert!(
        outcome.deadlocked(),
        "raw lock is never released: {:?}",
        outcome.termination
    );
}

#[test]
fn interrupting_a_lock_blocked_thread_does_not_wake_it() {
    // Java: monitor acquisition is not interruptible.
    let (_, outcome) = run_rr(
        r#"
        class Lock { }
        global l;
        global entered = false;
        proc contender() {
            sync (l) { entered = true; }
        }
        proc main() {
            l = new Lock;
            sync (l) {
                var t = spawn contender();
                var i = 0;
                while (i < 20) { nop; i = i + 1; }
                interrupt t;
                var j = 0;
                while (j < 20) { nop; j = j + 1; }
                // Contender must still be blocked (not killed by the
                // interrupt) — entered stays false until we release.
                assert !entered : "interrupt must not break lock waits";
            }
        }
        "#,
        3,
    );
    assert!(outcome.uncaught.is_empty(), "{:?}", outcome.uncaught);
}

#[test]
fn throw_from_catch_block_propagates() {
    let (program, outcome) = run_rr(
        r#"
        proc main() {
            try {
                try { throw Inner; }
                catch (Inner) { throw Outer; }
            } catch (Inner) {
                print "wrong handler";
            }
        }
        "#,
        1,
    );
    assert!(outcome.has_uncaught(&program, "Outer"));
    assert!(outcome.output.is_empty());
}

#[test]
fn finally_like_monitor_release_under_nested_sync_throw() {
    let (_, outcome) = run_rr(
        r#"
        class Lock { }
        global a;
        global b;
        global ok = 0;
        proc thrower() {
            try {
                sync (a) { sync (b) { throw Deep; } }
            } catch (Deep) { nop; }
        }
        proc main() {
            a = new Lock;
            b = new Lock;
            var t = spawn thrower();
            join t;
            sync (a) { sync (b) { ok = 1; } }
            assert ok == 1 : "both monitors released by unwinding";
        }
        "#,
        5,
    );
    assert_eq!(outcome.termination, Termination::AllExited);
    assert!(outcome.uncaught.is_empty(), "{:?}", outcome.uncaught);
}

#[test]
fn join_on_already_dead_thread_returns_immediately() {
    let (_, outcome) = run_rr(
        r#"
        global done = 0;
        proc quick() { done = 1; }
        proc main() {
            var t = spawn quick();
            var i = 0;
            while (i < 50) { nop; i = i + 1; }
            join t;
            join t;       // joining twice is fine
            print done;
        }
        "#,
        50,
    );
    assert_eq!(outcome.output, vec!["1"]);
}
