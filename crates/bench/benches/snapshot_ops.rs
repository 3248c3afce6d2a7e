//! Micro-bench for the copy-on-write snapshot primitives behind the
//! Phase-2 acceleration: `Execution::snapshot` (capture), `resume`
//! (fork a fresh execution from a snapshot), `restore` (rewind a live
//! execution in place), and the alternative they replace — building a
//! fresh `Execution` and re-stepping the whole prefix.
//!
//! State size is swept by growing the single-thread prefix: each loop
//! iteration allocates a heap object and writes a field, so a longer
//! prefix means more steps to replay *and* a larger heap to capture.
//! The acceleration argument is visible directly in the numbers:
//! capture and resume are O(live state) with small constants (Arc-backed
//! structural sharing), while the fresh re-execution is O(steps) with an
//! interpreter-dispatch constant.
//!
//! Run with `cargo bench -p rf-bench --bench snapshot_ops`.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use interp::{Execution, NullObserver, Snapshot, ThreadId};

/// A single-thread program whose prefix performs `iters` loop rounds,
/// each allocating one heap object — the knob that scales both replay
/// length and captured-state size together.
fn program(iters: usize) -> cil::Program {
    let source = format!(
        r#"
        class Obj {{ f }}
        global sink = 0;
        proc main() {{
            var i = 0;
            var acc = 0;
            while (i < {iters}) {{
                var o = new Obj;
                o.f = i;
                acc = acc + o.f;
                i = i + 1;
            }}
            sink = acc;
        }}
        "#
    );
    cil::compile(&source).expect("bench program compiles")
}

/// Steps the execution's main thread `steps` times.
fn advance(exec: &mut Execution<'_>, steps: u64) {
    let main = ThreadId(0);
    for _ in 0..steps {
        exec.step(main, &mut NullObserver);
    }
}

/// Builds an execution advanced deep into the allocation loop and the
/// snapshot taken there. `steps` is chosen to stay inside the loop for
/// every swept size (7 interpreter steps per iteration).
fn warmed(program: &cil::Program, iters: usize) -> (Execution<'_>, Snapshot, u64) {
    let steps = (iters as u64).saturating_mul(7).saturating_sub(4).max(1);
    let mut exec = Execution::new(program, "main").expect("entry exists");
    advance(&mut exec, steps);
    let snap = exec.snapshot();
    assert_eq!(snap.steps(), steps, "prefix must stay inside the loop");
    (exec, snap, steps)
}

fn bench_size(c: &mut Criterion, iters: usize) {
    let program = program(iters);
    let (exec, snap, steps) = warmed(&program, iters);
    println!("snapshot_ops: {iters} iters = {steps} steps");

    let mut group = c.benchmark_group("snapshot_ops");

    // Capture: one Arc-clone-deep copy of the live state.
    group.bench_function(BenchmarkId::new("snapshot", iters), |b| {
        b.iter(|| black_box(exec.snapshot()));
    });

    // Fork: materialise an independent execution from the snapshot.
    group.bench_function(BenchmarkId::new("resume", iters), |b| {
        b.iter(|| black_box(Execution::resume(&program, &snap)).steps());
    });

    // Rewind in place: the scratch-reuse path the trial pool takes.
    group.bench_function(BenchmarkId::new("restore", iters), |b| {
        let mut scratch = Execution::resume(&program, &snap);
        b.iter(|| {
            scratch.restore(&snap);
            black_box(scratch.steps())
        });
    });

    // The baseline snapshots replace: fresh setup plus full re-stepping.
    group.bench_function(BenchmarkId::new("fresh-reexec", iters), |b| {
        b.iter(|| {
            let mut fresh = Execution::new(&program, "main").expect("entry exists");
            advance(&mut fresh, steps);
            black_box(fresh.steps())
        });
    });

    group.finish();
}

fn benches(c: &mut Criterion) {
    for iters in [10, 100, 1000] {
        bench_size(c, iters);
    }
}

criterion_group!(snapshot_ops, benches);
criterion_main!(snapshot_ops);
