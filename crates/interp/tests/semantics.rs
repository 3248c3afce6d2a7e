//! End-to-end semantic tests for the interpreter: monitors, wait/notify,
//! interrupts, exceptions, unwinding, and the event stream.

use interp::{
    run_with, Event, Execution, Limits, NullObserver, RandomScheduler, RecordingObserver,
    RoundRobinScheduler, RunOutcome, RunToBlockScheduler, Scheduler, Termination, Value,
};

fn compile(source: &str) -> cil::Program {
    cil::compile(source).expect("test program should compile")
}

fn run(source: &str) -> RunOutcome {
    let program = compile(source);
    run_with(
        &program,
        "main",
        &mut RunToBlockScheduler::new(),
        &mut NullObserver,
        Limits::default(),
    )
    .unwrap()
}

fn run_random(source: &str, seed: u64) -> (cil::Program, RunOutcome) {
    let program = compile(source);
    let outcome = run_with(
        &program,
        "main",
        &mut RandomScheduler::seeded(seed),
        &mut NullObserver,
        Limits::default(),
    )
    .unwrap();
    (program, outcome)
}

#[test]
fn arithmetic_and_control_flow() {
    let outcome = run(r#"
        proc main() {
            var total = 0;
            var i = 1;
            while (i <= 5) {
                total = total + i * i;
                i = i + 1;
            }
            if (total == 55) { print "ok"; } else { print total; }
            print 7 / 2;
            print 7 % 2;
            print -3;
        }
        "#);
    assert_eq!(outcome.output, vec!["ok", "3", "1", "-3"]);
    assert_eq!(outcome.termination, Termination::AllExited);
}

#[test]
fn objects_arrays_and_len() {
    let outcome = run(r#"
        class Node { value, next }
        proc main() {
            var head = new Node;
            head.value = 10;
            head.next = new Node;
            head.next.value = 20;
            var arr = new [3];
            arr[0] = head.value;
            arr[1] = head.next.value;
            arr[2] = len(arr);
            print arr[0] + arr[1] + arr[2];
        }
        "#);
    assert_eq!(outcome.output, vec!["33"]);
}

#[test]
fn procedure_calls_and_recursion() {
    let outcome = run(r#"
        proc fib(n) {
            if (n < 2) { return n; }
            var a = fib(n - 1);
            var b = fib(n - 2);
            return a + b;
        }
        proc main() { var r = fib(10); print r; }
        "#);
    assert_eq!(outcome.output, vec!["55"]);
}

#[test]
fn division_by_zero_throws_catchable_exception() {
    let outcome = run(r#"
        proc main() {
            try {
                var x = 1 / 0;
                print "unreachable";
            } catch (ArithmeticException) {
                print "caught";
            }
        }
        "#);
    assert_eq!(outcome.output, vec!["caught"]);
    assert!(outcome.uncaught.is_empty());
}

#[test]
fn uncaught_exception_kills_thread_and_is_reported() {
    let (program, outcome) = run_random(
        r#"
        proc main() { throw Boom("detail"); }
        "#,
        0,
    );
    assert_eq!(outcome.uncaught.len(), 1);
    assert!(outcome.has_uncaught(&program, "Boom"));
    assert_eq!(outcome.termination, Termination::AllExited);
}

#[test]
fn null_pointer_and_bounds_exceptions() {
    let outcome = run(r#"
        proc main() {
            var n;
            try { n.field = 1; } catch (NullPointerException) { print "npe"; }
            var a = new [2];
            try { a[5] = 1; } catch (ArrayIndexOutOfBoundsException) { print "oob"; }
            try { a[0-1] = 1; } catch (ArrayIndexOutOfBoundsException) { print "neg"; }
            try { var b = new [0-3]; } catch (ArrayIndexOutOfBoundsException) { print "negsize"; }
        }
        "#);
    assert_eq!(outcome.output, vec!["npe", "oob", "neg", "negsize"]);
}

#[test]
fn type_errors_are_catchable() {
    let outcome = run(r#"
        proc main() {
            try { var x = 1 + true; } catch (TypeError) { print "t1"; }
            try { if (3) { nop; } } catch (TypeError) { print "t2"; }
            var o = new [1];
            try { o.missing = 1; } catch (TypeError) { print "t3"; }
        }
        "#);
    assert_eq!(outcome.output, vec!["t1", "t2", "t3"]);
}

#[test]
fn assert_failure_throws_assertion_error() {
    let (program, outcome) = run_random(
        r#"
        proc main() { assert 1 == 2 : "numbers differ"; }
        "#,
        0,
    );
    assert!(outcome.has_uncaught(&program, "AssertionError"));
    assert_eq!(
        outcome.uncaught[0].message.as_deref(),
        Some("numbers differ")
    );
}

#[test]
fn catch_filter_skips_unmatched_and_rethrows_outward() {
    let outcome = run(r#"
        proc main() {
            try {
                try { throw Inner; } catch (Other) { print "wrong"; }
            } catch (Inner) {
                print "outer caught";
            }
        }
        "#);
    assert_eq!(outcome.output, vec!["outer caught"]);
}

#[test]
fn exception_propagates_across_call_frames() {
    let outcome = run(r#"
        proc deep(n) {
            if (n == 0) { throw Deep; }
            deep(n - 1);
        }
        proc main() {
            try { deep(5); } catch (Deep) { print "unwound"; }
        }
        "#);
    assert_eq!(outcome.output, vec!["unwound"]);
}

#[test]
fn sync_releases_monitor_on_exception() {
    // An exception thrown inside a sync block must release the monitor,
    // or the second thread would deadlock. This is the Java monitorexit-
    // on-abrupt-completion rule that the JDK collection bugs depend on.
    let source = r#"
        class Lock { }
        global l;
        global done = 0;
        proc crasher() {
            try {
                sync (l) { throw Boom; }
            } catch (Boom) { nop; }
        }
        proc main() {
            l = new Lock;
            var t = spawn crasher();
            join t;
            sync (l) { done = 1; }
            print done;
        }
    "#;
    let outcome = run(source);
    assert_eq!(outcome.output, vec!["1"]);
    assert_eq!(outcome.termination, Termination::AllExited);
}

#[test]
fn reentrant_monitor_allows_nested_sync() {
    let outcome = run(r#"
        class Lock { }
        global l;
        proc main() {
            l = new Lock;
            sync (l) { sync (l) { print "nested"; } print "inner released"; }
        }
        "#);
    assert_eq!(outcome.output, vec!["nested", "inner released"]);
}

#[test]
fn unlock_without_hold_is_illegal_monitor_state() {
    let outcome = run(r#"
        class Lock { }
        global l;
        proc main() {
            l = new Lock;
            try { unlock l; } catch (IllegalMonitorStateException) { print "imse"; }
            try { wait l; } catch (IllegalMonitorStateException) { print "imse2"; }
            try { notify l; } catch (IllegalMonitorStateException) { print "imse3"; }
        }
        "#);
    assert_eq!(outcome.output, vec!["imse", "imse2", "imse3"]);
}

#[test]
fn wait_notify_handoff() {
    let source = r#"
        class Lock { }
        global l;
        global ready = false;
        global result = 0;
        proc producer() {
            sync (l) {
                ready = true;
                result = 42;
                notify l;
            }
        }
        proc main() {
            l = new Lock;
            var t = spawn producer();
            sync (l) {
                while (!ready) { wait l; }
            }
            print result;
            join t;
        }
    "#;
    // Try several schedules; the handoff must work in all of them.
    for seed in 0..20 {
        let (_, outcome) = run_random(source, seed);
        assert_eq!(outcome.termination, Termination::AllExited, "seed {seed}");
        assert_eq!(outcome.output, vec!["42"], "seed {seed}");
    }
}

#[test]
fn notifyall_wakes_every_waiter() {
    let source = r#"
        class Lock { }
        global l;
        global go = false;
        global count = 0;
        proc waiter() {
            sync (l) {
                while (!go) { wait l; }
                count = count + 1;
            }
        }
        proc main() {
            l = new Lock;
            var a = spawn waiter();
            var b = spawn waiter();
            var c = spawn waiter();
            sync (l) { go = true; notifyall l; }
            join a; join b; join c;
            print count;
        }
    "#;
    for seed in 0..10 {
        let (_, outcome) = run_random(source, seed);
        assert_eq!(outcome.output, vec!["3"], "seed {seed}");
    }
}

#[test]
fn lost_notify_deadlocks_like_java() {
    // notify before wait is lost; the waiter then blocks forever. The
    // deterministic run-to-block schedule forces exactly this order.
    let source = r#"
        class Lock { }
        global l;
        proc main() {
            l = new Lock;
            var t = spawn sleeper();
            sync (l) { notify l; }
            join t;
        }
        proc sleeper() {
            sync (l) { wait l; }
        }
    "#;
    let program = compile(source);
    // Force main to run to completion of its notify before the sleeper
    // starts: run-to-block does exactly that.
    let outcome = run_with(
        &program,
        "main",
        &mut RunToBlockScheduler::new(),
        &mut NullObserver,
        Limits::default(),
    )
    .unwrap();
    assert!(
        outcome.deadlocked(),
        "expected deadlock, got {:?}",
        outcome.termination
    );
}

#[test]
fn interrupt_wakes_waiting_thread_with_exception() {
    let source = r#"
        class Lock { }
        global l;
        global saw = 0;
        proc waiter() {
            sync (l) {
                try { wait l; } catch (InterruptedException) { saw = 1; }
            }
        }
        proc main() {
            l = new Lock;
            var t = spawn waiter();
            interrupt t;
            join t;
            print saw;
        }
    "#;
    for seed in 0..20 {
        let (_, outcome) = run_random(source, seed);
        assert_eq!(outcome.termination, Termination::AllExited, "seed {seed}");
        assert_eq!(outcome.output, vec!["1"], "seed {seed}");
    }
}

#[test]
fn interrupt_during_sleep_throws() {
    let source = r#"
        global saw = 0;
        proc sleeper() {
            try {
                sleep 100;
                sleep 100;
                sleep 100;
            } catch (InterruptedException) { saw = 1; }
        }
        proc main() {
            var t = spawn sleeper();
            interrupt t;
            join t;
            print saw;
        }
    "#;
    // Under round-robin the interrupt lands between sleeps.
    let program = compile(source);
    let outcome = run_with(
        &program,
        "main",
        &mut RoundRobinScheduler::new(1),
        &mut NullObserver,
        Limits::default(),
    )
    .unwrap();
    assert_eq!(outcome.output, vec!["1"]);
}

#[test]
fn interrupt_flag_cleared_after_interrupted_exception() {
    let outcome = run(r#"
        proc worker() {
            try { sleep 1; } catch (InterruptedException) { print "first"; }
            // Flag was consumed; a second sleep succeeds.
            sleep 1;
            print "second";
        }
        proc main() {
            var t = spawn worker();
            interrupt t;
            join t;
        }
        "#);
    // run-to-block runs main (spawn, interrupt) ... then join blocks and the
    // worker runs with the flag already set.
    assert_eq!(outcome.output, vec!["first", "second"]);
}

#[test]
fn join_returns_after_child_exit_and_sees_writes() {
    let source = r#"
        global result = 0;
        proc child() { result = 99; }
        proc main() {
            var t = spawn child();
            join t;
            print result;
        }
    "#;
    for seed in 0..10 {
        let (_, outcome) = run_random(source, seed);
        assert_eq!(outcome.output, vec!["99"], "seed {seed}");
    }
}

#[test]
fn spawn_passes_arguments_by_value() {
    let outcome = run(r#"
        global sum = 0;
        class Lock { }
        global l;
        proc add(a, b) { sync (l) { sum = sum + a + b; } }
        proc main() {
            l = new Lock;
            var t1 = spawn add(1, 2);
            var t2 = spawn add(10, 20);
            join t1; join t2;
            print sum;
        }
        "#);
    assert_eq!(outcome.output, vec!["33"]);
}

#[test]
fn event_stream_has_paper_shape() {
    // MEM with locksets, Acquire/Release, Send/Recv for spawn and join.
    let source = r#"
        class Lock { }
        global l;
        global x = 0;
        proc child() { sync (l) { x = 1; } }
        proc main() {
            l = new Lock;
            var t = spawn child();
            join t;
        }
    "#;
    let program = compile(source);
    let mut recorder = RecordingObserver::default();
    let outcome = run_with(
        &program,
        "main",
        &mut RunToBlockScheduler::new(),
        &mut recorder,
        Limits::default(),
    )
    .unwrap();
    assert_eq!(outcome.termination, Termination::AllExited);

    let mem_with_lock = recorder.events.iter().any(
        |event| matches!(event, Event::Mem { is_write: true, locks, .. } if !locks.is_empty()),
    );
    assert!(
        mem_with_lock,
        "write to x under the monitor carries lockset"
    );

    let sends = recorder
        .events
        .iter()
        .filter(|event| matches!(event, Event::Send { .. }))
        .count();
    let recvs = recorder
        .events
        .iter()
        .filter(|event| matches!(event, Event::Recv { .. }))
        .count();
    // spawn edge + two terminations (one consumed by join).
    assert_eq!(sends, 3, "events: {:#?}", recorder.events);
    assert_eq!(recvs, 2);

    let acquires = recorder
        .events
        .iter()
        .filter(|event| matches!(event, Event::Acquire { .. }))
        .count();
    let releases = recorder
        .events
        .iter()
        .filter(|event| matches!(event, Event::Release { .. }))
        .count();
    assert_eq!(acquires, 1);
    assert_eq!(releases, 1);
}

#[test]
fn next_access_resolves_locations_without_executing() {
    let source = r#"
        global g = 0;
        proc main() {
            g = 5;
        }
    "#;
    let program = compile(source);
    let exec = Execution::new(&program, "main").unwrap();
    let main = interp::ThreadId(0);
    let access = exec.next_access(main).expect("store is next");
    assert!(access.is_write);
    assert!(matches!(access.loc, interp::Loc::Global(_)));
    // No state changed.
    assert_eq!(exec.steps(), 0);
    assert_eq!(exec.global_value("g"), Some(&Value::Int(0)));
}

#[test]
fn next_access_none_for_faulting_address() {
    let source = r#"
        proc main() {
            var o;
            o.f = 1;   // o is null: the store will throw, not access memory
        }
    "#;
    let program = compile(source);
    let mut exec = Execution::new(&program, "main").unwrap();
    let main = interp::ThreadId(0);
    // Step through `var o;` (one Assign).
    assert_eq!(exec.step(main, &mut NullObserver), interp::StepResult::Ran);
    assert_eq!(exec.next_access(main), None);
}

#[test]
fn blocked_lock_disables_thread() {
    let source = r#"
        class Lock { }
        global l;
        global stage = 0;
        proc holder() {
            sync (l) {
                stage = 1;
                while (stage == 1) { nop; }
            }
        }
        proc main() {
            l = new Lock;
            var t = spawn holder();
            while (stage == 0) { nop; }
            lock l;
        }
    "#;
    let program = compile(source);
    let mut exec = Execution::new(&program, "main").unwrap();
    let main = interp::ThreadId(0);
    // Drive main until it reaches `lock l` and the holder holds the lock.
    let mut scheduler = RoundRobinScheduler::new(1);
    for _ in 0..200 {
        if let Some(instr) = exec.next_instr(main) {
            if matches!(
                program.instr(instr),
                cil::flat::Instr::Lock { monitor: false, .. }
            ) {
                break;
            }
        }
        let pick = scheduler.pick(&exec, &exec.enabled()).unwrap();
        exec.step(pick, &mut NullObserver);
    }
    // The child holds l inside its sync; main's `lock l` must be disabled.
    assert!(!exec.is_enabled(main), "main blocked on held lock");
    assert!(exec.enabled().contains(&interp::ThreadId(1)));
}

#[test]
fn output_and_steps_are_identical_across_replays() {
    let source = r#"
        class Lock { }
        global l;
        global x = 0;
        proc worker(n) {
            var i = 0;
            while (i < 10) {
                sync (l) { x = x + n; }
                i = i + 1;
            }
        }
        proc main() {
            l = new Lock;
            var a = spawn worker(1);
            var b = spawn worker(100);
            join a; join b;
            print x;
        }
    "#;
    let program = compile(source);
    for seed in [3u64, 17, 255] {
        let mut first_events = RecordingObserver::default();
        let first = run_with(
            &program,
            "main",
            &mut RandomScheduler::seeded(seed),
            &mut first_events,
            Limits::default(),
        )
        .unwrap();
        let mut second_events = RecordingObserver::default();
        let second = run_with(
            &program,
            "main",
            &mut RandomScheduler::seeded(seed),
            &mut second_events,
            Limits::default(),
        )
        .unwrap();
        assert_eq!(first.steps, second.steps);
        assert_eq!(first.output, second.output);
        assert_eq!(
            first_events.events, second_events.events,
            "event-level replay"
        );
    }
}

#[test]
fn entry_errors_are_reported() {
    let program = compile("proc helper(a) { }  proc main() { }");
    assert!(matches!(
        Execution::new(&program, "nope"),
        Err(interp::SetupError::NoSuchProc(_))
    ));
    assert!(matches!(
        Execution::new(&program, "helper"),
        Err(interp::SetupError::EntryHasParams(_, 1))
    ));
}
