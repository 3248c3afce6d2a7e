//! The paper's "embarrassingly parallel" claim (§1): "Since different
//! invocations of RaceFuzzer are independent of each other, performance of
//! RaceFuzzer can be increased linearly with the number of processors or
//! cores."
//!
//! This harness splits a fixed trial budget across N OS threads. The
//! program is compiled **once** and shared as an `Arc<cil::Program>` —
//! compiled programs are `Send + Sync` (the interner is `Arc`-backed) — and
//! each worker fuzzes a disjoint, contiguous seed range. When the budget
//! does not divide evenly, the remainder is spread one trial each over the
//! first workers, so exactly `--trials` trials run at every worker count.
//!
//! Results are written as `BENCH_parallel_scaling.json`. With `--check` the
//! process exits non-zero if the 4-worker speedup falls below 2.0x on a
//! machine with at least 4 cores — the regression gate for the parallel
//! Phase-2 machinery.
//!
//! Usage: `parallel_scaling [--trials N] [--out PATH] [--check]`

use campaign::json::Json;
use detector::RacePair;
use racefuzzer::{fuzz_pair_once_cached, EntryCache, FuzzConfig, PairCache, SnapshotOptions};
use rf_bench::{peak_rss_kib, TextTable};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const SOURCE: &str = r#"
    class Lock { }
    global l;
    global x = 0;
    proc thread2() {
        @s10 x = 1;
        sync (l) { nop; }
    }
    proc main() {
        var warm = 0;
        var i = 0;
        while (i < 40) { warm = warm + i; i = i + 1; }
        l = new Lock;
        var t = spawn thread2();
        sync (l) {
            nop; nop; nop; nop; nop; nop; nop; nop; nop; nop;
            nop; nop; nop; nop; nop; nop; nop; nop; nop; nop;
            nop; nop; nop; nop; nop; nop; nop; nop; nop; nop;
            nop; nop; nop; nop; nop; nop; nop; nop; nop; nop;
        }
        @s8 var v = x;
        if (v == 0) { throw Error; }
        join t;
    }
"#;

struct Args {
    trials: u64,
    out: String,
    check: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        trials: 20_000,
        out: "BENCH_parallel_scaling.json".to_owned(),
        check: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--trials" => {
                args.trials = iter
                    .next()
                    .and_then(|value| value.parse().ok())
                    .expect("--trials takes a number");
            }
            "--out" => args.out = iter.next().expect("--out takes a path"),
            "--check" => args.check = true,
            other => panic!("unknown argument `{other}`"),
        }
    }
    args
}

/// Splits `0..trials` into `workers` contiguous seed ranges whose lengths
/// differ by at most one: the first `trials % workers` ranges carry the
/// remainder, so the ranges always cover exactly `trials` seeds.
fn seed_ranges(trials: u64, workers: u64) -> Vec<std::ops::Range<u64>> {
    let base = trials / workers;
    let remainder = trials % workers;
    let mut ranges = Vec::with_capacity(workers as usize);
    let mut start = 0;
    for worker in 0..workers {
        let len = base + u64::from(worker < remainder);
        ranges.push(start..start + len);
        start += len;
    }
    debug_assert_eq!(start, trials, "ranges must cover the whole budget");
    ranges
}

fn run_trials(
    program: &cil::Program,
    pair: RacePair,
    seeds: std::ops::Range<u64>,
    cache: &PairCache,
) -> (u64, u64) {
    let mut hits = 0;
    let mut errors = 0;
    for seed in seeds {
        let outcome = fuzz_pair_once_cached(
            program,
            "main",
            pair,
            &FuzzConfig::seeded(seed),
            Some(cache),
        )
        .expect("fuzz runs");
        hits += u64::from(outcome.race_created());
        errors += u64::from(!outcome.uncaught.is_empty());
    }
    (hits, errors)
}

struct Measurement {
    workers: usize,
    wall_ms: u64,
    trials_per_sec: u64,
    speedup: f64,
    race_probability: f64,
    snapshot_hit_rate: f64,
    peak_rss_kib: Option<u64>,
}

impl Measurement {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workers", Json::usize(self.workers)),
            ("wall_ms", Json::u64(self.wall_ms)),
            ("trials_per_sec", Json::u64(self.trials_per_sec)),
            ("speedup", Json::Str(format!("{:.2}", self.speedup))),
            (
                "race_probability",
                Json::Str(format!("{:.3}", self.race_probability)),
            ),
            (
                "snapshot_hit_rate",
                Json::Str(format!("{:.3}", self.snapshot_hit_rate)),
            ),
            (
                "peak_rss_kib",
                match self.peak_rss_kib {
                    Some(kib) => Json::u64(kib),
                    None => Json::Null,
                },
            ),
        ])
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let trials = args.trials;
    println!("parallel RaceFuzzer scaling — {trials} independent trials\n");

    // One compilation, shared by every worker at every worker count.
    let program = Arc::new(cil::compile(SOURCE).expect("benchmark program compiles"));
    let pair = RacePair::new(program.tagged_access("s8"), program.tagged_access("s10"));

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut table = TextTable::new([
        "workers",
        "wall time",
        "trials/s",
        "speedup",
        "P(race)",
        "snap hits",
        "peak RSS",
    ]);
    let mut measurements: Vec<Measurement> = Vec::new();
    let mut baseline = None;

    for workers in [1usize, 2, 4, 8] {
        // One snapshot cache per worker count, shared read-side by every
        // worker of the row — the same sharing the parallel analyze pool
        // uses — so the hit-rate column reflects cross-thread reuse.
        let cache = PairCache::new(EntryCache::new(SnapshotOptions::default()));
        let start = Instant::now();
        let handles: Vec<_> = seed_ranges(trials, workers as u64)
            .into_iter()
            .map(|seeds| {
                let program = Arc::clone(&program);
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || run_trials(&program, pair, seeds, &cache))
            })
            .collect();
        let (hits, _errors) = handles
            .into_iter()
            .map(|handle| handle.join().expect("worker completes"))
            .fold((0, 0), |(hit_acc, err_acc), (hit, err)| {
                (hit_acc + hit, err_acc + err)
            });
        let elapsed = start.elapsed().as_secs_f64();
        let baseline_time = *baseline.get_or_insert(elapsed);
        let measurement = Measurement {
            workers,
            wall_ms: (elapsed * 1e3) as u64,
            trials_per_sec: (trials as f64 / elapsed) as u64,
            speedup: baseline_time / elapsed,
            race_probability: hits as f64 / trials as f64,
            snapshot_hit_rate: cache.stats().hit_rate(),
            peak_rss_kib: peak_rss_kib(),
        };
        table.row([
            workers.to_string(),
            format!("{elapsed:.2}s"),
            measurement.trials_per_sec.to_string(),
            format!("{:.2}x", measurement.speedup),
            format!("{:.3}", measurement.race_probability),
            format!("{:.3}", measurement.snapshot_hit_rate),
            measurement
                .peak_rss_kib
                .map(|kib| format!("{kib} KiB"))
                .unwrap_or_else(|| "-".to_owned()),
        ]);
        measurements.push(measurement);
    }

    println!("{}", table.render());
    println!(
        "this machine reports {cores} core(s): expect near-linear speedup up to \
         that worker count (and flat at 1.0x on a single core); P(race) = 1.0 \
         throughout — trials are fully independent."
    );

    let document = Json::obj(vec![
        ("benchmark", Json::str("parallel_scaling")),
        ("failpoints_compiled", Json::Bool(faults::compiled())),
        ("trials", Json::u64(trials)),
        ("cores", Json::usize(cores)),
        (
            "measurements",
            Json::Arr(measurements.iter().map(Measurement::to_json).collect()),
        ),
    ]);
    std::fs::write(&args.out, document.to_text()).expect("write benchmark json");
    println!("wrote {}", args.out);

    if args.check && faults::compiled() {
        eprintln!(
            "FAIL: fault-injection sites are compiled into this build; \
             the perf gate must measure the zero-cost configuration"
        );
        return ExitCode::FAILURE;
    }
    if args.check {
        let four_worker = measurements
            .iter()
            .find(|m| m.workers == 4)
            .expect("4-worker row is always measured");
        if cores >= 4 && four_worker.speedup < 2.0 {
            eprintln!(
                "FAIL: 4-worker speedup {:.2}x is below the 2.0x bar on a {cores}-core machine",
                four_worker.speedup
            );
            return ExitCode::FAILURE;
        }
        println!(
            "check passed: 4-worker speedup {:.2}x on {cores} core(s)",
            four_worker.speedup
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::seed_ranges;

    #[test]
    fn remainder_is_distributed_not_dropped() {
        let ranges = seed_ranges(20_001, 8);
        let total: u64 = ranges.iter().map(|range| range.end - range.start).sum();
        assert_eq!(total, 20_001);
        assert_eq!(ranges[0], 0..2501); // first worker takes the extra trial
        assert_eq!(ranges.last().unwrap().end, 20_001);
        let lens: Vec<u64> = ranges.iter().map(|r| r.end - r.start).collect();
        assert!(lens.iter().max().unwrap() - lens.iter().min().unwrap() <= 1);
    }
}
