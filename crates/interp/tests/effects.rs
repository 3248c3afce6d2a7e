//! `Execution::effects` classifies every instruction kind: the counter
//! moves on a step if and only if the step changed state another thread
//! can read, apart from monitor ownership (heap, globals, output, the
//! thread table, another thread's status or interrupt flag, and whether
//! the stepping thread waits or has exited).
//!
//! Each case runs a small program on the bytecode engine (cold statements
//! take its `Op::Fallback` route into the tree-walker) and checks every
//! step of an instruction lowered from a statement tagged `@probe`, once
//! without an event observer (the fast memory ops) and once with one (the
//! general path). Threads are scheduled highest id first, so a spawned
//! thread runs until it blocks or ends before its parent continues.

use cil::flat::{Instr, InstrId};
use interp::{Execution, NullObserver, Observer, RecordingObserver, Status, ThreadId};
use std::collections::BTreeSet;

/// Everything another thread can read, apart from the lock table.
fn shared(exec: &Execution<'_>, stepping: ThreadId) -> String {
    let program = exec.program();
    let heap: Vec<String> = (0..exec.heap().len() as u32)
        .map(|id| format!("{:?}", exec.heap().cell(interp::ObjId(id))))
        .collect();
    let globals: Vec<String> = program
        .globals
        .iter()
        .map(|global| format!("{:?}", exec.global_value(program.name(global.name))))
        .collect();
    let threads: Vec<String> = (0..exec.thread_count() as u32)
        .map(ThreadId)
        .map(|thread| {
            if thread == stepping {
                let status = exec.status(thread);
                format!(
                    "waiting {} exited {}",
                    matches!(status, Status::Waiting { .. }),
                    *status == Status::Exited
                )
            } else {
                format!("{:?}", exec.thread_state(thread))
            }
        })
        .collect();
    format!(
        "{heap:?} {globals:?} {threads:?} {:?} {:?}",
        exec.output(),
        exec.uncaught()
    )
}

/// Runs `source` and returns, for every step of a probed instruction, the
/// instruction's kind, whether shared state changed, and whether the
/// effects counter moved.
fn probe(source: &str, events: bool) -> Vec<(&'static str, bool, bool)> {
    let program = cil::compile(source).unwrap_or_else(|error| panic!("{error}\n{source}"));
    let probes: BTreeSet<InstrId> = program.tagged("probe").iter().copied().collect();
    assert!(!probes.is_empty(), "no @probe statement:\n{source}");
    let mut exec = Execution::new(&program, "main").expect("main resolves");
    let mut null = NullObserver;
    let mut recording = RecordingObserver::default();
    let observer: &mut dyn Observer = if events { &mut recording } else { &mut null };
    let mut seen = Vec::new();
    for _ in 0..10_000 {
        let Some(thread) = (0..exec.thread_count() as u32)
            .rev()
            .map(ThreadId)
            .find(|&thread| exec.is_enabled(thread))
        else {
            break;
        };
        let probed = exec.next_instr(thread).filter(|pc| probes.contains(pc));
        let before = (shared(&exec, thread), exec.effects());
        exec.step(thread, observer);
        if let Some(pc) = probed {
            seen.push((
                kind(program.instr(pc)),
                shared(&exec, thread) != before.0,
                exec.effects() != before.1,
            ));
        }
    }
    assert!(exec.engine_error().is_none());
    seen
}

/// Every `Instr` kind, by name. [`kind`] must name each one.
#[rustfmt::skip]
const KINDS: [&str; 28] = [
    "Assign", "LoadGlobal", "StoreGlobal", "LoadField", "StoreField", "LoadElem", "StoreElem",
    "New", "NewArray", "Lock", "Unlock", "Wait", "Notify", "NotifyAll", "Spawn", "Join",
    "Interrupt", "Sleep", "Call", "Return", "Jump", "Branch", "Assert", "Throw", "EnterTry",
    "ExitTry", "Print", "Nop",
];

/// The kind of `instr`. Exhaustive: a new instruction kind does not
/// compile until it is named here and given a case below.
fn kind(instr: &Instr) -> &'static str {
    match instr {
        Instr::Assign { .. } => "Assign",
        Instr::LoadGlobal { .. } => "LoadGlobal",
        Instr::StoreGlobal { .. } => "StoreGlobal",
        Instr::LoadField { .. } => "LoadField",
        Instr::StoreField { .. } => "StoreField",
        Instr::LoadElem { .. } => "LoadElem",
        Instr::StoreElem { .. } => "StoreElem",
        Instr::New { .. } => "New",
        Instr::NewArray { .. } => "NewArray",
        Instr::Lock { .. } => "Lock",
        Instr::Unlock { .. } => "Unlock",
        Instr::Wait { .. } => "Wait",
        Instr::Notify { .. } => "Notify",
        Instr::NotifyAll { .. } => "NotifyAll",
        Instr::Spawn { .. } => "Spawn",
        Instr::Join { .. } => "Join",
        Instr::Interrupt { .. } => "Interrupt",
        Instr::Sleep { .. } => "Sleep",
        Instr::Call { .. } => "Call",
        Instr::Return { .. } => "Return",
        Instr::Jump { .. } => "Jump",
        Instr::Branch { .. } => "Branch",
        Instr::Assert { .. } => "Assert",
        Instr::Throw { .. } => "Throw",
        Instr::EnterTry { .. } => "EnterTry",
        Instr::ExitTry => "ExitTry",
        Instr::Print { .. } => "Print",
        Instr::Nop => "Nop",
    }
}

/// Procedures the cases call; their `@probe` statements count only when a
/// case runs them.
const PRELUDE: &str = r#"
    class Lock { }
    class Cell { f }
    global l;
    global g = 0;
    global done = 0;
    proc ident(x) { @probe return x; }
    proc exits() { @probe return; }
    proc spins() { var i = 0; while (i < 3) { i = i + 1; } }
    proc waiter() { sync (l) { try { wait l; } catch (InterruptedException) { } } }
    proc fails() { @probe assert 1 == 2; }
    proc throws() { @probe throw Boom; }
    proc late_waiter() { sync (l) { try { @probe wait l; } catch (InterruptedException) { } } }
    proc late_sleeper() { sync (l) { nop; } try { @probe sleep 1; } catch (InterruptedException) { } }
"#;

/// `(case, kind probed, whether its steps change shared state, body of
/// main)`.
const CASES: &[(&str, &str, bool, &str)] = &[
    ("assign", "Assign", false, "var x = 1; @probe var y = x + 1;"),
    ("global load", "LoadGlobal", false, "@probe var x = g;"),
    ("global store", "StoreGlobal", true,
        "var i = 0; while (i < 2) { @probe g = i + 1; i = i + 1; }"),
    ("field load", "LoadField", false,
        "var c = new Cell; c.f = 1; var i = 0; while (i < 2) { @probe var v = c.f; i = i + 1; }"),
    ("field store", "StoreField", true,
        "var c = new Cell; var i = 0; while (i < 2) { @probe c.f = i + 1; i = i + 1; }"),
    ("element load", "LoadElem", false,
        "var a = new [2]; var i = 0; while (i < 2) { @probe var v = a[i]; i = i + 1; }"),
    ("element store", "StoreElem", true,
        "var a = new [2]; var i = 0; while (i < 2) { @probe a[i] = i + 1; i = i + 1; }"),
    ("allocation", "New", true, "@probe var c = new Cell;"),
    ("array allocation", "NewArray", true, "@probe var a = new [3];"),
    ("lock and unlock", "Lock", false, "l = new Lock; var k = l; @probe lock k; @probe unlock k;"),
    ("unlock", "Unlock", false, "l = new Lock; var k = l; lock k; lock k; @probe unlock k; unlock k;"),
    ("sync block", "Lock", false, "l = new Lock; var k = l; @probe sync (k) { nop; }"),
    ("wait", "Wait", true,
        "l = new Lock; var k = l; var t = spawn waiter(); sync (k) { notify k; } join t; \
         sync (k) { @probe wait k; }"),
    ("interrupted wait", "Wait", false,
        "l = new Lock; var k = l; var t; sync (k) { t = spawn late_waiter(); interrupt t; } join t;"),
    ("notify a waiter", "Notify", true,
        "l = new Lock; var k = l; var t = spawn waiter(); sync (k) { @probe notify k; } join t;"),
    ("notify nobody", "Notify", false, "l = new Lock; var k = l; sync (k) { @probe notify k; }"),
    ("notify all waiters", "NotifyAll", true,
        "l = new Lock; var k = l; var t = spawn waiter(); var u = spawn waiter(); \
         sync (k) { @probe notifyall k; } join t; join u;"),
    ("notify all of nobody", "NotifyAll", false,
        "l = new Lock; var k = l; sync (k) { @probe notifyall k; }"),
    ("spawn", "Spawn", true, "@probe var t = spawn spins(); join t;"),
    ("join", "Join", false, "var t = spawn spins(); @probe join t;"),
    ("interrupt a waiter", "Interrupt", true,
        "l = new Lock; var t = spawn waiter(); @probe interrupt t; join t;"),
    ("interrupt an exited thread", "Interrupt", false,
        "var t = spawn spins(); join t; @probe interrupt t;"),
    ("sleep", "Sleep", false, "@probe sleep 5;"),
    ("interrupted sleep, caught", "Sleep", false,
        "l = new Lock; var k = l; var t; sync (k) { t = spawn late_sleeper(); interrupt t; } join t;"),
    ("call", "Call", false, "@probe var x = ident(3);"),
    ("return to a caller", "Return", false, "var x = ident(3);"),
    ("return from a thread", "Return", true, "var t = spawn exits(); join t;"),
    ("loop", "Branch", false, "var i = 0; @probe while (i < 2) { i = i + 1; }"),
    ("jump", "Jump", false, "var i = 0; while (i < 2) { i = i + 1; } @probe if (i == 2) { i = 3; } else { i = 4; }"),
    ("passing assert", "Assert", false, "@probe assert 1 == 1;"),
    ("failing assert", "Assert", true, "var t = spawn fails(); join t;"),
    ("caught throw", "Throw", false, "try { @probe throw Boom; } catch (Boom) { }"),
    ("uncaught throw", "Throw", true, "var t = spawn throws(); join t;"),
    ("try", "EnterTry", false, "@probe try { nop; } catch (Boom) { }"),
    ("leave try", "ExitTry", false, "@probe try { nop; } catch (Boom) { }"),
    ("print", "Print", true, "@probe print 1;"),
    ("nop", "Nop", false, "@probe nop;"),
];

#[test]
fn effects_move_exactly_when_shared_state_changes() {
    let mut covered = BTreeSet::new();
    for &(case, probed, changes, body) in CASES {
        let source = format!("{PRELUDE}\nproc main() {{ {body} }}");
        for events in [false, true] {
            let steps = probe(&source, events);
            for &(kind, changed, moved) in &steps {
                assert_eq!(
                    moved, changed,
                    "{case} (events {events}): a {kind} step changed shared state: {changed}, \
                     moved the effects counter: {moved}"
                );
            }
            let hits: Vec<bool> = steps
                .iter()
                .filter(|&&(kind, _, _)| kind == probed)
                .map(|&(_, changed, _)| changed)
                .collect();
            assert!(
                !hits.is_empty(),
                "{case}: no {probed} step probed: {steps:?}"
            );
            assert!(
                hits.iter().all(|&changed| changed == changes),
                "{case}: {probed} steps changed shared state {hits:?}, expected {changes}"
            );
        }
        covered.insert(probed);
    }
    let all: BTreeSet<&str> = KINDS.into_iter().collect();
    assert_eq!(covered, all, "every instruction kind has a case");
}
