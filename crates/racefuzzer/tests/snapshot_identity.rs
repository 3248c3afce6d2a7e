//! Snapshot acceleration must be invisible in the results.
//!
//! The copy-on-write forking layer (`racefuzzer::snapshot`) promises that
//! an [`racefuzzer::AnalysisReport`] is a pure function of
//! `(program, entry, options)` minus the snapshot settings: prologue
//! forking, prefix-trie fast-forwarding, and snapshot eviction may only
//! change how much of each trial is *re-executed*, never a single reported
//! number. These tests pin that promise over every Table-1 workload, all
//! three modes, sequential and parallel pools, adversarial seed sweeps,
//! a 1-snapshot memory budget, and prologues long enough that every resume
//! jumps the RNG instead of stepping it.

use proptest::prelude::*;
use racefuzzer::snapshot::{EntryCache, PairCache};
use racefuzzer::{
    analyze, fuzz_pair_once, fuzz_pair_once_cached, AnalysisReport, AnalyzeOptions, FuzzConfig,
    SnapshotMode, SnapshotOptions, SnapshotStats,
};
use std::fmt::Write as _;

/// Trials per pair: small enough to keep the sweep fast, large enough to
/// exercise hits, exceptions, deadlocks, and first-seed bookkeeping.
const TRIALS: usize = 6;

fn options(mode: SnapshotMode, workers: usize) -> AnalyzeOptions {
    let mut options = AnalyzeOptions::with_trials(TRIALS)
        .workers(workers)
        .snapshot_mode(mode);
    // A chunk of 4 never divides 6 trials evenly, so the parallel merge
    // handles ragged seed ranges on every pair.
    options.parallel.chunk = 4;
    options
}

fn render(report: &AnalysisReport) -> String {
    format!("{report:#?}")
}

#[test]
fn modes_and_worker_counts_are_byte_identical() {
    // Debug builds trim the worker sweep to keep `cargo test` affordable;
    // the release CI job runs the full {1, 2, 4, 7} acceptance matrix.
    let worker_counts: &[usize] = if cfg!(debug_assertions) {
        &[1, 4]
    } else {
        &[1, 2, 4, 7]
    };
    let mut failures = Vec::new();
    let mut trie_hits = 0u64;
    for workload in workloads::all() {
        let baseline = analyze(
            &workload.program,
            workload.entry,
            &options(SnapshotMode::Off, 1),
        )
        .expect("baseline analysis succeeds");
        let expected = render(&baseline);
        for mode in SnapshotMode::ALL {
            for &workers in worker_counts {
                if mode == SnapshotMode::Off && workers == 1 {
                    continue; // the baseline itself
                }
                let report = analyze(&workload.program, workload.entry, &options(mode, workers))
                    .expect("accelerated analysis succeeds");
                if render(&report) != expected {
                    failures.push(format!(
                        "{} mode={} workers={workers}",
                        workload.name,
                        mode.name()
                    ));
                }
                if mode == SnapshotMode::PrefixTrie {
                    trie_hits += report
                        .pairs
                        .iter()
                        .filter_map(|pair| pair.snapshots)
                        .map(|stats| stats.cache_hits)
                        .sum::<u64>();
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "snapshot modes diverged from the uncached baseline: {failures:?}"
    );
    // Guard against the acceleration silently disabling itself: across the
    // whole Table-1 sweep the trie must have actually resumed trials.
    assert!(trie_hits > 0, "prefix trie never produced a cache hit");
}

/// The Figure-1-style program used for targeted per-seed sweeps: a long
/// pure-local prologue (the snapshot layer's favourite shape), then a
/// classic check-then-act race that throws in one order.
fn racy_program() -> cil::Program {
    cil::compile(
        r#"
        global z = 0;
        global sink = 0;
        proc child() { z = 1; }
        proc main() {
            var i = 0;
            var acc = 0;
            while (i < 40) { acc = acc + i; i = i + 1; }
            var t = spawn child();
            if (z == 1) { throw Error1; }
            sink = acc;
            join t;
        }
        "#,
    )
    .expect("fixture compiles")
}

fn first_pair(program: &cil::Program) -> detector::RacePair {
    let potential = detector::predict_races(program, "main", &detector::PredictConfig::default())
        .expect("prediction succeeds");
    potential[0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any seed, replayed through a progressively warmer trie, matches the
    /// uncached execution outcome for outcome — including a second pass
    /// over the same seeds, which resumes from the deepest cached node.
    #[test]
    fn cached_trials_match_uncached_for_arbitrary_seeds(
        base_seed in any::<u32>(),
        budget_kib in 1u64..512,
    ) {
        let program = racy_program();
        let target = first_pair(&program);
        let entry_cache = EntryCache::new(SnapshotOptions {
            mode: SnapshotMode::PrefixTrie,
            budget_bytes: budget_kib << 10,
            ..SnapshotOptions::default()
        });
        let cache = PairCache::new(entry_cache);
        for pass in 0..2 {
            for offset in 0..8u64 {
                let config = FuzzConfig::seeded(u64::from(base_seed) + offset);
                let plain = fuzz_pair_once(&program, "main", target, &config)
                    .expect("uncached trial succeeds");
                let cached = fuzz_pair_once_cached(&program, "main", target, &config, Some(&cache))
                    .expect("cached trial succeeds");
                prop_assert_eq!(
                    format!("{plain:#?}"),
                    format!("{cached:#?}"),
                    "pass {} seed {}",
                    pass,
                    config.seed
                );
            }
        }
        let stats = cache.stats();
        prop_assert!(stats.trials == 16);
        prop_assert!(stats.cache_hits > 0, "no trial resumed from a snapshot");
    }
}

#[test]
fn one_snapshot_budget_still_matches_and_evicts() {
    let program = racy_program();
    let target = first_pair(&program);
    // A 1-byte budget caps the trie at a single resident snapshot: each
    // installation immediately evicts the previous one (the newest
    // snapshot is spared by its own installation). `min_capture_gain: 0`
    // forces capture at every eligible loop-top so eviction pressure is
    // actually exercised on this small fixture.
    let entry_cache = EntryCache::new(SnapshotOptions {
        mode: SnapshotMode::PrefixTrie,
        budget_bytes: 1,
        min_capture_gain: 0,
        ..SnapshotOptions::default()
    });
    let cache = PairCache::new(entry_cache);
    for seed in 0..64u64 {
        let config = FuzzConfig::seeded(seed);
        let plain =
            fuzz_pair_once(&program, "main", target, &config).expect("uncached trial succeeds");
        let cached = fuzz_pair_once_cached(&program, "main", target, &config, Some(&cache))
            .expect("cached trial succeeds");
        assert_eq!(
            format!("{plain:#?}"),
            format!("{cached:#?}"),
            "seed {seed} diverged under eviction pressure"
        );
        assert!(
            cache.resident_snapshots() <= 1,
            "budget of 1 byte must cap residency at one snapshot"
        );
    }
    let stats = cache.stats();
    assert!(stats.captures > 1, "trie never captured under pressure");
    assert!(stats.evictions > 0, "budget pressure never evicted");
}

/// Schedule recording and wall-clock budgets disable acceleration rather
/// than risk divergence; the cached entry point must still work (and still
/// match) with such configs.
#[test]
fn recording_config_bypasses_the_cache_safely() {
    let program = racy_program();
    let target = first_pair(&program);
    let cache = PairCache::new(EntryCache::new(SnapshotOptions::default()));
    for seed in 0..8u64 {
        let config = FuzzConfig::seeded(seed).recording();
        let plain =
            fuzz_pair_once(&program, "main", target, &config).expect("uncached trial succeeds");
        let cached = fuzz_pair_once_cached(&program, "main", target, &config, Some(&cache))
            .expect("cached trial succeeds");
        assert_eq!(format!("{plain:#?}"), format!("{cached:#?}"));
        assert_eq!(plain.schedule, cached.schedule, "schedules must survive");
    }
    assert_eq!(
        cache.stats().trials,
        0,
        "recording configs must not consult the cache"
    );
}

/// A `main` whose local warm-up runs 50,000 iterations, with or without an
/// allocation in each, before two workers race on `hits` and `last`. A
/// resume from its prologue, and a trie walk past it, discards hundreds of
/// thousands of RNG draws — far above the count where `Rng::discard` stops
/// stepping and jumps. The workers' local loops after their racy writes
/// give the trie loop-tops worth a snapshot.
fn long_warmup_program(allocating: bool) -> cil::Program {
    let alloc = if allocating { "pad = new Pad;" } else { "" };
    cil::compile(&format!(
        r#"
        class Pad {{ a, b }}
        global hits = 0;
        global last = 0;
        global sink = 0;
        proc worker(k, n) {{
            var j = 0;
            while (j < n) {{
                hits = hits + k;
                var x = 0;
                while (x < 120) {{ x = x + 1; }}
                j = j + 1;
            }}
            last = k;
        }}
        proc main() {{
            var acc = 7;
            var pad = null;
            var i = 0;
            while (i < 50000) {{
                acc = (acc * 31 + i) % 1000003;
                {alloc}
                i = i + 1;
            }}
            var t1 = spawn worker(1, 3);
            var t2 = spawn worker(2, 3);
            join t1;
            join t2;
            sink = acc;
            print hits;
        }}
        "#
    ))
    .expect("fixture compiles")
}

/// Seeds per long-warm-up pair.
const LONG_WARMUP_SEEDS: [u64; 4] = [5, 6, 7, 8];

/// Per long-warm-up program (local, then allocating): the `SnapshotStats`
/// of each predicted pair after two passes of the [`LONG_WARMUP_SEEDS`]
/// trials under `PrefixTrie`, as `[trials, cache_hits,
/// fast_forwarded_steps, captures, evictions]`. Recorded by this test
/// while `Rng::discard` still stepped one draw at a time.
#[rustfmt::skip]
const EXPECTED_LONG_WARMUP_TRIE_STATS: &[(&str, &[[u64; 5]])] = &[
    ("local warm-up", &[[8, 8, 1604285, 14, 0], [8, 8, 1602367, 9, 0], [8, 8, 1600032, 0, 0]]),
    ("allocating warm-up", &[[8, 8, 2400032, 30, 22], [8, 8, 2402654, 9, 1], [8, 8, 2400032, 0, 0]]),
];

/// Every mode's trials on the long warm-ups match the uncached trial, in a
/// first pass and in a second pass that resumes each seed from the
/// deepest snapshot on its own path, and the trie's statistics are the
/// ones it had while the generator was stepped past the warm-up.
#[test]
fn long_warmup_resumes_match_across_modes() {
    let mut table = String::new();
    let mut observed: Vec<(&str, Vec<[u64; 5]>)> = Vec::new();
    for (name, allocating) in [("local warm-up", false), ("allocating warm-up", true)] {
        let program = long_warmup_program(allocating);
        let entries =
            SnapshotMode::ALL.map(|mode| EntryCache::new(SnapshotOptions::with_mode(mode)));
        let mut stats: Vec<[u64; 5]> = Vec::new();
        let potential =
            detector::predict_races(&program, "main", &detector::PredictConfig::default())
                .expect("prediction succeeds");
        assert!(!potential.is_empty(), "{name}: no predicted pair");
        for pair in potential {
            let [off, prologue, trie] = entries.clone().map(PairCache::new);
            let plain: Vec<String> = LONG_WARMUP_SEEDS
                .iter()
                .map(|&seed| {
                    let outcome = fuzz_pair_once(&program, "main", pair, &FuzzConfig::seeded(seed))
                        .expect("uncached trial succeeds");
                    format!("{outcome:#?}")
                })
                .collect();
            let passes = [vec![&off, &prologue, &trie], vec![&trie]];
            for (pass, caches) in passes.iter().enumerate() {
                for (&seed, plain) in LONG_WARMUP_SEEDS.iter().zip(&plain) {
                    let config = FuzzConfig::seeded(seed);
                    for cache in caches {
                        let cached =
                            fuzz_pair_once_cached(&program, "main", pair, &config, Some(cache))
                                .expect("cached trial succeeds");
                        assert_eq!(
                            &format!("{cached:#?}"),
                            plain,
                            "{name}: {pair:?} seed {seed} (pass {pass}) under {}",
                            cache.options().mode.name()
                        );
                    }
                }
            }
            let SnapshotStats {
                trials,
                cache_hits,
                fast_forwarded_steps,
                captures,
                evictions,
            } = trie.stats();
            stats.push([
                trials,
                cache_hits,
                fast_forwarded_steps,
                captures,
                evictions,
            ]);
        }
        let _ = writeln!(table, "    ({name:?}, &{stats:?}),");
        observed.push((name, stats));
    }
    let expected: Vec<(&str, Vec<[u64; 5]>)> = EXPECTED_LONG_WARMUP_TRIE_STATS
        .iter()
        .map(|&(name, stats)| (name, stats.to_vec()))
        .collect();
    assert!(
        observed == expected,
        "long-warm-up trie statistics differ from the recorded ones; observed:\n{table}"
    );
}
