//! Micro-bench for the per-step cost of the two execution engines.
//!
//! Isolates interpreter dispatch from everything Phase 2 adds on top
//! (scheduling, race sets, snapshots): a single-threaded padded loop is
//! run to completion under
//!
//! * `tree_walk` — the original AST-walking `exec_instr`,
//! * `bytecode` — the register-bytecode VM with superinstruction fusion
//!   and inline field caches (the default engine).
//!
//! Two loop bodies are swept: `locals` (pure register arithmetic, the
//! fused load-op-store / compare-and-branch / index-increment shapes) and
//! `fields` (field and element traffic, exercising the inline caches and
//! the memory-access fast paths).
//!
//! Run with `cargo bench -p rf-bench --bench dispatch_ops`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use interp::{ExecEngine, Execution, NullObserver, StepResult, ThreadId};

/// Pure-local arithmetic: every statement in the loop is a fusible
/// padded-loop shape.
const LOCALS_LOOP: &str = r#"
    global sink = 0;
    proc main() {
        var i = 0;
        var acc = 0;
        while (i < 2000) { acc = acc + i * 2 - 1; i = i + 1; }
        sink = acc;
    }
"#;

/// Field and array traffic: inline-cache hits and element fast paths
/// dominate instead of register arithmetic.
const FIELDS_LOOP: &str = r#"
    class Acc { total, step }
    global sink = 0;
    proc main() {
        var a = new Acc;
        var xs = new [8];
        a.total = 0;
        a.step = 3;
        xs[7] = 0;
        var i = 0;
        var k = 0;
        while (i < 1500) {
            a.total = a.total + a.step;
            k = i - i / 8 * 8;
            xs[k] = a.total;
            i = i + 1;
        }
        sink = a.total + xs[7];
    }
"#;

/// Runs the single main thread to completion, panicking on anything but a
/// clean exit (keeps the measured work honest).
fn run_to_exit(exec: &mut Execution<'_>) {
    let main = ThreadId(0);
    loop {
        match exec.step(main, &mut NullObserver) {
            StepResult::Ran => {}
            StepResult::Exited => return,
            other => panic!("benchmark program must exit cleanly, got {other:?}"),
        }
    }
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch_ops");
    group.sample_size(40);
    for (shape, source) in [("locals", LOCALS_LOOP), ("fields", FIELDS_LOOP)] {
        let program = cil::compile(source).expect("bench program compiles");
        assert!(
            program.bytecode().fused_count() > 0,
            "bench loops must exercise fused superinstructions"
        );
        group.bench_function(BenchmarkId::new("tree_walk", shape), |b| {
            b.iter(|| {
                let mut exec = Execution::new(&program, "main").expect("entry exists");
                exec.set_engine(ExecEngine::TreeWalk);
                run_to_exit(&mut exec);
                black_box(exec.steps())
            })
        });
        group.bench_function(BenchmarkId::new("bytecode", shape), |b| {
            b.iter(|| {
                let mut exec = Execution::new(&program, "main").expect("entry exists");
                run_to_exit(&mut exec);
                black_box(exec.steps())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
