//! Criterion bench for the paper's runtime columns (Table 1, columns 3–5):
//! normal execution vs hybrid-instrumented execution vs the RaceFuzzer
//! scheduler.
//!
//! The paper's claim (§1, §5.2): hybrid detection is far slower than
//! normal execution because it tracks *every* shared access with vector
//! clocks and locksets, while RaceFuzzer is close to normal speed because
//! it only consults synchronization operations and the single racing pair.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use detector::{DetectorEngine, Policy, RacePair};
use interp::{run_with, Limits, NullObserver, RoundRobinScheduler};
use racefuzzer::{fuzz_pair_once, FuzzConfig};
use workloads::Workload;

fn bench_workload(c: &mut Criterion, workload: &Workload, pair_tags: Option<(&str, &str)>) {
    let program = &workload.program;
    let limits = Limits::default();
    let mut group = c.benchmark_group(workload.name);

    group.bench_function(BenchmarkId::new("normal", workload.name), |b| {
        b.iter(|| {
            run_with(
                program,
                workload.entry,
                &mut RoundRobinScheduler::new(23),
                &mut NullObserver,
                limits,
            )
            .expect("runs")
        })
    });

    group.bench_function(BenchmarkId::new("hybrid", workload.name), |b| {
        b.iter(|| {
            let mut engine = DetectorEngine::new(Policy::Hybrid);
            run_with(
                program,
                workload.entry,
                &mut RoundRobinScheduler::new(23),
                &mut engine,
                limits,
            )
            .expect("runs")
        })
    });

    group.bench_function(BenchmarkId::new("happens-before", workload.name), |b| {
        b.iter(|| {
            let mut engine = DetectorEngine::new(Policy::HappensBefore);
            run_with(
                program,
                workload.entry,
                &mut RoundRobinScheduler::new(23),
                &mut engine,
                limits,
            )
            .expect("runs")
        })
    });

    if let Some((tag_a, tag_b)) = pair_tags {
        // Tags may cover several accesses (read-modify-writes); take the
        // first of one side and the last of the other so RMW statements
        // pair their load with their store.
        let first = *program
            .tagged_accesses(tag_a)
            .first()
            .expect("tag covers an access");
        let second = *program
            .tagged_accesses(tag_b)
            .last()
            .expect("tag covers an access");
        let pair = RacePair::new(first, second);
        let config = FuzzConfig {
            postpone_limit: 500,
            ..FuzzConfig::default()
        };
        let mut seed = 0u64;
        group.bench_function(BenchmarkId::new("racefuzzer", workload.name), |b| {
            b.iter(|| {
                seed += 1;
                fuzz_pair_once(
                    program,
                    workload.entry,
                    pair,
                    &FuzzConfig {
                        seed,
                        ..config.clone()
                    },
                )
                .expect("runs")
            })
        });
    }

    group.finish();
}

fn benches(c: &mut Criterion) {
    bench_workload(
        c,
        &workloads::raytracer(),
        Some(("checksum_rmw", "checksum_rmw")),
    );
    bench_workload(c, &workloads::cache4j(), Some(("sleep_set", "sleep_check")));
    bench_workload(
        c,
        &workloads::vector(),
        Some(("vec_size_read", "vec_size_read")),
    );
    bench_workload(c, &workloads::sor(), Some(("aw0", "br0")));

    // A compute-heavy two-thread kernel to expose the per-access tracing
    // cost (the paper's "many orders of magnitude" / `> 3600s` cells on
    // the HPC benchmarks — its hybrid implementation was unoptimized).
    let hot_loop = cil::compile(
        r#"
        global acc = 0;
        proc worker(n) {
            var i = 0;
            while (i < n) {
                acc = acc + i;
                i = i + 1;
            }
        }
        proc main() {
            var t = spawn worker(2000);
            var i = 0;
            while (i < 2000) {
                acc = acc + i;
                i = i + 1;
            }
            join t;
        }
        "#,
    )
    .expect("hot loop compiles");
    let mut group = c.benchmark_group("hot-loop-4k-shared-accesses");
    group.sample_size(10);
    group.bench_function("normal", |b| {
        b.iter(|| {
            run_with(
                &hot_loop,
                "main",
                &mut RoundRobinScheduler::new(23),
                &mut NullObserver,
                Limits::default(),
            )
            .expect("runs")
        })
    });
    group.bench_function("hybrid-memoised (ours)", |b| {
        b.iter(|| {
            let mut engine = DetectorEngine::new(Policy::Hybrid);
            run_with(
                &hot_loop,
                "main",
                &mut RoundRobinScheduler::new(23),
                &mut engine,
                Limits::default(),
            )
            .expect("runs")
        })
    });
    group.bench_function("hybrid-unoptimized (paper)", |b| {
        b.iter(|| {
            let mut engine = DetectorEngine::new_unoptimized(Policy::Hybrid);
            run_with(
                &hot_loop,
                "main",
                &mut RoundRobinScheduler::new(23),
                &mut engine,
                Limits::default(),
            )
            .expect("runs")
        })
    });
    group.finish();
}

criterion_group!(overhead, benches);
criterion_main!(overhead);
