//! Measures the snapshot-accelerated Phase-2 replay path: how much of each
//! trial the copy-on-write forking layer avoids re-executing.
//!
//! RaceFuzzer trials over one `(program, entry)` re-run the same
//! deterministic prefix — the single-threaded entry prologue, then every
//! scheduling decision shared with an earlier seed — before they diverge.
//! This harness quantifies the three execution strategies on workloads with
//! deliberately long prologues:
//!
//! * `fresh` — `fuzz_pair_once` in a loop: a new interpreter per trial
//!   (the pre-snapshot baseline),
//! * `scratch` — `fuzz_pair`: no snapshots, but one reused
//!   [`racefuzzer::algorithm::TrialScratch`] across trials,
//! * `prologue` — snapshot cache in [`SnapshotMode::PrologueOnly`],
//! * `trie` — the full per-pair decision-prefix trie
//!   ([`SnapshotMode::PrefixTrie`], the default).
//!
//! A counting global allocator reports allocations per trial, proving the
//! scratch/snapshot reuse removes allocator traffic rather than shifting
//! noise, and `VmHWM` is recorded so cache residency shows up as a number.
//! A final sweep runs `analyze` over every Table-1 workload with snapshots
//! off vs on, five times per mode with the modes alternating, and records
//! each row's median and min–max — the no-regression panorama (identity of
//! the *reports* is pinned separately by the `snapshot_identity` test
//! suite).
//!
//! Results are written as `BENCH_snapshot_replay.json`. With `--check` the
//! process exits non-zero if the trie's speedup over `fresh` falls below
//! 2.0x on any gated long-prologue workload, or if allocator traffic on an
//! alloc-gated workload rises above the pooled floor (the interpreter's
//! thread-local scratch pools keep per-trial setup allocations bounded;
//! the gate pins that floor against regression). The strategies are all
//! single-threaded, so the gate holds on single-core machines too; it
//! refuses to run on builds with fault-injection sites compiled in.
//!
//! Usage: `snapshot_replay [--trials N] [--out PATH] [--check]`

use campaign::json::Json;
use detector::{predict_races, PredictConfig, RacePair};
use racefuzzer::{
    analyze, fuzz_pair, fuzz_pair_once, fuzz_pair_once_cached, AnalyzeOptions, EntryCache,
    FuzzConfig, PairCache, SnapshotMode, SnapshotOptions,
};
use rf_bench::{peak_rss_kib, CountingAlloc, TextTable};
use std::process::ExitCode;
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The speedup bar for the prefix trie over the fresh-interpreter baseline
/// on gated (long-prologue) workloads.
///
/// Recalibrated from 2.5x when the register-bytecode engine became the
/// default: snapshots win by *skipping re-execution*, so making execution
/// itself ~2x faster shrinks the relative win even as absolute trials/s
/// rise in every mode (deep-suffix fresh 1.7k → 3.1k trials/s, trie
/// 5.1k → 6.8k at the switch). The bar guards the snapshot layer against
/// its own regressions, not against the interpreter getting faster.
const GATE_SPEEDUP: f64 = 2.0;

/// Ceiling on allocations per trial for every strategy on alloc-gated
/// workloads. The interpreter's scratch pools (locals buffers, thread
/// records, VM registers, inline-cache tables) bring the measured floor to
/// ~9-13; the bar leaves headroom for allocator noise while still catching
/// any per-step or per-trial allocation creeping back in.
const GATE_ALLOCS_PER_TRIAL: u64 = 16;

/// A benchmark program with a named shape. `gate` marks the long-prologue
/// workloads the `--check` bar applies to. `seed_period` cycles the seed
/// space (`seed = i % period`) to model campaign retries and replays,
/// where the same seed recurs and the trie resumes it from its deepest
/// snapshot; `None` gives every trial a distinct seed.
struct BenchWorkload {
    name: &'static str,
    source: &'static str,
    gate: bool,
    /// Apply the `GATE_ALLOCS_PER_TRIAL` bar. Only meaningful on workloads
    /// whose trials observe no real races: confirmed-race bookkeeping
    /// (`RealRaceEvent` partner lists) legitimately allocates per event.
    alloc_gate: bool,
    seed_period: Option<u64>,
}

/// The snapshot layer's favourite shape: a long pure-local warmup (no
/// shared-memory access, so the entry prologue covers all of it), then a
/// short racy suffix. `fresh` pays the warmup every trial; `prologue` and
/// `trie` pay it once.
const LONG_PROLOGUE: &str = r#"
    global z = 0;
    global sink = 0;
    proc child() { z = 1; }
    proc main() {
        var i = 0;
        var acc = 0;
        while (i < 600) { acc = acc + i * 2 - 1; i = i + 1; }
        var t = spawn child();
        if (z == 1) { throw Error1; }
        sink = acc;
        join t;
    }
"#;

/// Long prologue *and* a long racy section: after the spawn the threads
/// interleave over many scheduler choice points, so trials with shared
/// decision prefixes resume from deep trie nodes, not just the prologue.
const DEEP_SUFFIX: &str = r#"
    global z = 0;
    global done = 0;
    proc child() {
        var j = 0;
        while (j < 120) { z = z + 1; j = j + 1; }
        done = 1;
    }
    proc main() {
        var i = 0;
        var acc = 0;
        while (i < 1400) { acc = acc + i; i = i + 1; }
        var t = spawn child();
        var k = 0;
        while (k < 120) {
            if (z > done) { nop; }
            k = k + 1;
        }
        join t;
    }
"#;

/// Control: a near-empty prologue. The snapshot layer has almost nothing to
/// skip here, so this row shows the overhead floor (and is never gated).
const SHORT_PROLOGUE: &str = r#"
    global z = 0;
    proc child() { z = 1; }
    proc main() {
        var t = spawn child();
        if (z == 1) { throw Error1; }
        join t;
    }
"#;

const WORKLOADS: [BenchWorkload; 4] = [
    BenchWorkload {
        name: "long_prologue",
        source: LONG_PROLOGUE,
        gate: true,
        alloc_gate: true,
        seed_period: None,
    },
    BenchWorkload {
        name: "deep_suffix",
        source: DEEP_SUFFIX,
        gate: true,
        alloc_gate: false,
        seed_period: None,
    },
    BenchWorkload {
        name: "retry_replay",
        source: DEEP_SUFFIX,
        gate: true,
        alloc_gate: false,
        seed_period: Some(32),
    },
    BenchWorkload {
        name: "short_prologue",
        source: SHORT_PROLOGUE,
        gate: false,
        alloc_gate: true,
        seed_period: None,
    },
];

struct Args {
    trials: u64,
    out: String,
    check: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        trials: 2_000,
        out: "BENCH_snapshot_replay.json".to_owned(),
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

fn first_pair(program: &cil::Program) -> RacePair {
    let potential = predict_races(program, "main", &PredictConfig::default())
        .expect("prediction succeeds on benchmark programs");
    potential[0]
}

/// One measured strategy on one workload.
struct ModeResult {
    mode: &'static str,
    wall_ms: f64,
    trials_per_sec: u64,
    speedup: f64,
    hit_rate: Option<f64>,
    fast_forwarded_steps: Option<u64>,
    allocs_per_trial: u64,
}

impl ModeResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("mode", Json::str(self.mode)),
            ("wall_ms", Json::Str(format!("{:.2}", self.wall_ms))),
            ("trials_per_sec", Json::u64(self.trials_per_sec)),
            ("speedup", Json::Str(format!("{:.2}", self.speedup))),
            (
                "hit_rate",
                match self.hit_rate {
                    Some(rate) => Json::Str(format!("{rate:.3}")),
                    None => Json::Null,
                },
            ),
            (
                "fast_forwarded_steps",
                match self.fast_forwarded_steps {
                    Some(steps) => Json::u64(steps),
                    None => Json::Null,
                },
            ),
            ("allocs_per_trial", Json::u64(self.allocs_per_trial)),
        ])
    }
}

/// Runs `trials` seeds through `body` and measures wall time plus
/// allocator traffic. `body` is handed each seed in order.
fn measure<F: FnMut(u64)>(trials: u64, mut body: F) -> (f64, u64) {
    let allocs_before = CountingAlloc::allocations();
    let start = Instant::now();
    for seed in 0..trials {
        body(seed);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let allocs = CountingAlloc::allocations() - allocs_before;
    (elapsed, allocs / trials.max(1))
}

fn cache_for(mode: SnapshotMode) -> std::sync::Arc<PairCache> {
    PairCache::new(EntryCache::new(SnapshotOptions::with_mode(mode)))
}

fn run_workload(workload: &BenchWorkload, trials: u64, table: &mut TextTable) -> Vec<ModeResult> {
    let program = cil::compile(workload.source).expect("benchmark program compiles");
    let pair = first_pair(&program);
    let period = workload.seed_period.unwrap_or(u64::MAX);
    let mut results: Vec<ModeResult> = Vec::new();
    let mut baseline = None;

    for mode in ["fresh", "scratch", "prologue", "trie"] {
        if mode == "scratch" && workload.seed_period.is_some() {
            continue; // `fuzz_pair` runs consecutive seeds; it cannot cycle
        }
        let cache = match mode {
            "prologue" => Some(cache_for(SnapshotMode::PrologueOnly)),
            "trie" => Some(cache_for(SnapshotMode::PrefixTrie)),
            _ => None,
        };
        let (elapsed, allocs_per_trial) = match mode {
            "fresh" => measure(trials, |seed| {
                fuzz_pair_once(&program, "main", pair, &FuzzConfig::seeded(seed % period))
                    .expect("trial runs");
            }),
            "scratch" => {
                // `fuzz_pair` drives all trials through one reused scratch;
                // it folds a PairReport, which the other strategies skip, but
                // that fold is a few counter bumps per trial — noise next to
                // the interpreter work being measured.
                let allocs_before = CountingAlloc::allocations();
                let start = Instant::now();
                fuzz_pair(
                    &program,
                    "main",
                    pair,
                    trials as usize,
                    0,
                    &FuzzConfig::default(),
                )
                .expect("trials run");
                let elapsed = start.elapsed().as_secs_f64();
                let allocs = CountingAlloc::allocations() - allocs_before;
                (elapsed, allocs / trials.max(1))
            }
            _ => {
                let cache = cache.as_deref().expect("cached modes carry a cache");
                measure(trials, |seed| {
                    fuzz_pair_once_cached(
                        &program,
                        "main",
                        pair,
                        &FuzzConfig::seeded(seed % period),
                        Some(cache),
                    )
                    .expect("trial runs");
                })
            }
        };
        let stats = cache.as_deref().map(|cache| cache.stats());
        let baseline_time = *baseline.get_or_insert(elapsed);
        let result = ModeResult {
            mode,
            wall_ms: elapsed * 1e3,
            trials_per_sec: (trials as f64 / elapsed) as u64,
            speedup: baseline_time / elapsed,
            hit_rate: stats.map(|stats| stats.hit_rate()),
            fast_forwarded_steps: stats.map(|stats| stats.fast_forwarded_steps),
            allocs_per_trial,
        };
        table.row([
            workload.name.to_owned(),
            mode.to_owned(),
            format!("{:.1}ms", result.wall_ms),
            result.trials_per_sec.to_string(),
            format!("{:.2}x", result.speedup),
            result
                .hit_rate
                .map(|rate| format!("{rate:.3}"))
                .unwrap_or_else(|| "-".to_owned()),
            result
                .fast_forwarded_steps
                .map(|steps| (steps / trials.max(1)).to_string())
                .unwrap_or_else(|| "-".to_owned()),
            result.allocs_per_trial.to_string(),
        ]);
        results.push(result);
    }
    results
}

/// Timings per mode per Table-1 row in the sweep. One timing per row
/// swung by up to 0.58x between runs of one build on a 2-vCPU VM.
const SWEEP_REPS: usize = 5;

/// The Table-1 panorama: `analyze` end to end (Phase 1 + Phase 2, every
/// predicted pair) with snapshots off vs the default trie, as a
/// no-regression ratio on realistic programs. Each row is timed
/// [`SWEEP_REPS`] times per mode, the two modes alternating which runs
/// first, and reports the median and min–max of each mode's wall time and
/// of the per-repetition off/trie ratio.
fn run_sweep(table: &mut TextTable) -> Vec<Json> {
    let mut rows = Vec::new();
    for workload in workloads::all() {
        let mut off = Vec::with_capacity(SWEEP_REPS);
        let mut trie = Vec::with_capacity(SWEEP_REPS);
        for rep in 0..SWEEP_REPS {
            let mut modes = [SnapshotMode::Off, SnapshotMode::PrefixTrie];
            if rep % 2 == 1 {
                modes.reverse();
            }
            for mode in modes {
                let options = AnalyzeOptions::with_trials(30).snapshot_mode(mode);
                let start = Instant::now();
                analyze(&workload.program, workload.entry, &options).expect("analysis succeeds");
                let wall = start.elapsed().as_secs_f64();
                match mode {
                    SnapshotMode::Off => off.push(wall),
                    _ => trie.push(wall),
                }
            }
        }
        let ratios: Vec<f64> = off
            .iter()
            .zip(&trie)
            .map(|(off, trie)| off / trie.max(f64::EPSILON))
            .collect();
        let [off, trie, ratio] = [off, trie, ratios].map(Spread::of);
        table.row([
            workload.name.to_owned(),
            off.render(1e3, "ms"),
            trie.render(1e3, "ms"),
            ratio.render(1.0, "x"),
        ]);
        rows.push(Json::obj(vec![
            ("workload", Json::str(workload.name)),
            ("reps", Json::u64(SWEEP_REPS as u64)),
            ("off_ms", Json::Str(format!("{:.2}", off.median * 1e3))),
            ("off_ms_min", Json::Str(format!("{:.2}", off.min * 1e3))),
            ("off_ms_max", Json::Str(format!("{:.2}", off.max * 1e3))),
            ("trie_ms", Json::Str(format!("{:.2}", trie.median * 1e3))),
            ("trie_ms_min", Json::Str(format!("{:.2}", trie.min * 1e3))),
            ("trie_ms_max", Json::Str(format!("{:.2}", trie.max * 1e3))),
            ("ratio", Json::Str(format!("{:.2}", ratio.median))),
            ("ratio_min", Json::Str(format!("{:.2}", ratio.min))),
            ("ratio_max", Json::Str(format!("{:.2}", ratio.max))),
        ]));
    }
    rows
}

/// Median and range of a few timings or ratios.
#[derive(Clone, Copy)]
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(mut values: Vec<f64>) -> Spread {
        values.sort_by(f64::total_cmp);
        let mid = values.len() / 2;
        let median = if values.len() % 2 == 1 {
            values[mid]
        } else {
            (values[mid - 1] + values[mid]) / 2.0
        };
        Spread {
            median,
            min: values[0],
            max: values[values.len() - 1],
        }
    }

    fn render(&self, scale: f64, unit: &str) -> String {
        format!(
            "{:.2}{unit} [{:.2}–{:.2}]",
            self.median * scale,
            self.min * scale,
            self.max * scale
        )
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let trials = args.trials;
    println!("snapshot-accelerated replay — {trials} trials per strategy\n");

    let mut table = TextTable::new([
        "workload",
        "mode",
        "wall",
        "trials/s",
        "speedup",
        "hit rate",
        "ff steps/trial",
        "allocs/trial",
    ]);
    let mut workload_rows = Vec::new();
    let mut gate_failures = Vec::new();
    for workload in &WORKLOADS {
        let results = run_workload(workload, trials, &mut table);
        let trie = results
            .iter()
            .find(|result| result.mode == "trie")
            .expect("the trie strategy is always measured");
        if workload.gate && trie.speedup < GATE_SPEEDUP {
            gate_failures.push(format!(
                "{}: trie speedup {:.2}x < {GATE_SPEEDUP}x",
                workload.name, trie.speedup
            ));
        }
        if workload.alloc_gate {
            for result in &results {
                if result.allocs_per_trial > GATE_ALLOCS_PER_TRIAL {
                    gate_failures.push(format!(
                        "{}/{}: {} allocs/trial > {GATE_ALLOCS_PER_TRIAL}",
                        workload.name, result.mode, result.allocs_per_trial
                    ));
                }
            }
        }
        workload_rows.push(Json::obj(vec![
            ("workload", Json::str(workload.name)),
            ("gate", Json::Bool(workload.gate)),
            (
                "modes",
                Json::Arr(results.iter().map(ModeResult::to_json).collect()),
            ),
        ]));
    }
    println!("{}", table.render());

    let mut sweep_table = TextTable::new(["workload", "off", "trie", "ratio"]);
    let sweep = run_sweep(&mut sweep_table);
    println!(
        "Table-1 end-to-end sweep (analyze, 30 trials/pair; median [min–max] of \
         {SWEEP_REPS} timings per mode):\n"
    );
    println!("{}", sweep_table.render());

    let peak_rss = peak_rss_kib();
    if let Some(kib) = peak_rss {
        println!("peak RSS: {kib} KiB");
    }

    let document = Json::obj(vec![
        ("benchmark", Json::str("snapshot_replay")),
        ("failpoints_compiled", Json::Bool(faults::compiled())),
        ("trials", Json::u64(trials)),
        (
            "peak_rss_kib",
            match peak_rss {
                Some(kib) => Json::u64(kib),
                None => Json::Null,
            },
        ),
        ("workloads", Json::Arr(workload_rows)),
        ("table1_sweep", Json::Arr(sweep)),
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
        if !gate_failures.is_empty() {
            for failure in &gate_failures {
                eprintln!("FAIL: {failure}");
            }
            return ExitCode::FAILURE;
        }
        println!(
            "check passed: trie speedup >= {GATE_SPEEDUP}x on every long-prologue \
             workload; <= {GATE_ALLOCS_PER_TRIAL} allocs/trial on alloc-gated workloads"
        );
    }
    ExitCode::SUCCESS
}
