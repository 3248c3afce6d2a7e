//! Snapshot acceleration must be invisible in the results.
//!
//! The copy-on-write forking layer (`racefuzzer::snapshot`) promises that
//! an [`racefuzzer::AnalysisReport`] is a pure function of
//! `(program, entry, options)` minus the snapshot settings: prologue
//! forking may only change how much of each trial is *re-executed*, never
//! a single reported number. These tests pin that promise over every
//! Table-1 workload, both modes, sequential and parallel pools, adversarial
//! seed sweeps, and prologues long enough that every resume jumps the RNG
//! instead of stepping it. The `prologue_handoff_` cases pin
//! that `analyze`, which forks Phase 2 from the prologue Phase 1 captured,
//! matches the lazy path that computes the prologue on its first trial.

use proptest::prelude::*;
use racefuzzer::snapshot::{EntryCache, PairCache};
use racefuzzer::{
    analyze, fuzz_pair_once, fuzz_pair_once_cached, gather_candidates, AnalysisReport,
    AnalyzeOptions, CandidateSource, FuzzConfig, PairReport, SnapshotMode, SnapshotOptions,
    SnapshotStats,
};
use std::sync::Arc;
use std::time::Duration;

/// Trials per pair: small enough to keep the sweep fast, large enough to
/// exercise hits, exceptions, deadlocks, and first-seed bookkeeping.
const TRIALS: usize = 6;

fn options(mode: SnapshotMode, workers: usize) -> AnalyzeOptions {
    AnalyzeOptions::with_trials(TRIALS)
        .workers(workers)
        .snapshot_mode(mode)
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
    let mut stats_failures = Vec::new();
    let mut prologue_hits = 0u64;
    for workload in workloads::all() {
        let baseline = analyze(
            &workload.program,
            workload.entry,
            &options(SnapshotMode::Off, 1),
        )
        .expect("baseline analysis succeeds");
        let expected = render(&baseline);
        for mode in SnapshotMode::ALL {
            // Per-pair `SnapshotStats` depend only on the prologue, so they
            // must not move with the worker count either.
            let mut first_stats: Option<Vec<Option<SnapshotStats>>> = None;
            for &workers in worker_counts {
                let report = if mode == SnapshotMode::Off && workers == 1 {
                    baseline.clone()
                } else {
                    analyze(&workload.program, workload.entry, &options(mode, workers))
                        .expect("accelerated analysis succeeds")
                };
                let label = format!("{} mode={} workers={workers}", workload.name, mode.name());
                if render(&report) != expected {
                    failures.push(label.clone());
                }
                let stats: Vec<Option<SnapshotStats>> =
                    report.pairs.iter().map(|pair| pair.snapshots).collect();
                if mode == SnapshotMode::PrologueOnly {
                    prologue_hits += stats.iter().flatten().map(|s| s.cache_hits).sum::<u64>();
                }
                match &first_stats {
                    None => first_stats = Some(stats),
                    Some(first) if *first != stats => stats_failures.push(label),
                    Some(_) => {}
                }
            }
        }
    }
    assert!(
        failures.is_empty(),
        "snapshot modes diverged from the uncached baseline: {failures:?}"
    );
    assert!(
        stats_failures.is_empty(),
        "snapshot statistics moved with the worker count: {stats_failures:?}"
    );
    // Guard against the acceleration silently disabling itself: across the
    // whole Table-1 sweep the prologue must have actually resumed trials.
    assert!(prologue_hits > 0, "the prologue never produced a cache hit");
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

    /// Any seed, forked from the prologue, matches the uncached execution
    /// outcome for outcome, and every trial resumes.
    #[test]
    fn cached_trials_match_uncached_for_arbitrary_seeds(base_seed in any::<u32>()) {
        let program = racy_program();
        let target = first_pair(&program);
        let cache = PairCache::new(EntryCache::new(SnapshotOptions::default()));
        for offset in 0..16u64 {
            let config = FuzzConfig::seeded(u64::from(base_seed) + offset);
            let plain = fuzz_pair_once(&program, "main", target, &config)
                .expect("uncached trial succeeds");
            let cached = fuzz_pair_once_cached(&program, "main", target, &config, Some(&cache))
                .expect("cached trial succeeds");
            prop_assert_eq!(
                format!("{plain:#?}"),
                format!("{cached:#?}"),
                "seed {}",
                config.seed
            );
        }
        let stats = cache.stats();
        prop_assert!(stats.trials == 16);
        prop_assert!(stats.cache_hits == 16, "a trial did not resume from the prologue");
    }
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
/// resume from its prologue discards hundreds of thousands of RNG draws —
/// far above the count where `Rng::discard` stops stepping and jumps.
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

/// Both modes' trials on the long warm-ups match the uncached trial, and
/// every prologue-mode trial resumes past the whole warm-up.
#[test]
fn long_warmup_resumes_match_across_modes() {
    for (name, allocating) in [("local warm-up", false), ("allocating warm-up", true)] {
        let program = long_warmup_program(allocating);
        let entries =
            SnapshotMode::ALL.map(|mode| EntryCache::new(SnapshotOptions::with_mode(mode)));
        let potential =
            detector::predict_races(&program, "main", &detector::PredictConfig::default())
                .expect("prediction succeeds");
        assert!(!potential.is_empty(), "{name}: no predicted pair");
        for pair in potential {
            let caches = entries.clone().map(PairCache::new);
            for seed in LONG_WARMUP_SEEDS {
                let config = FuzzConfig::seeded(seed);
                let plain = fuzz_pair_once(&program, "main", pair, &config)
                    .expect("uncached trial succeeds");
                for cache in &caches {
                    let cached =
                        fuzz_pair_once_cached(&program, "main", pair, &config, Some(cache))
                            .expect("cached trial succeeds");
                    assert_eq!(
                        format!("{cached:#?}"),
                        format!("{plain:#?}"),
                        "{name}: {pair:?} seed {seed} under {}",
                        cache.options().mode.name()
                    );
                }
            }
            let [off, prologue] = caches.map(|cache| cache.stats());
            assert_eq!(
                off,
                SnapshotStats::default(),
                "{name}: Off consulted the cache"
            );
            assert_eq!(
                prologue.cache_hits,
                LONG_WARMUP_SEEDS.len() as u64,
                "{name}"
            );
            assert!(
                prologue.fast_forwarded_steps > 50_000 * prologue.cache_hits,
                "{name}: the prologue stopped inside the warm-up"
            );
        }
    }
}

/// `analyze` rebuilt from the public per-layer calls, with the prologue
/// computed lazily on the first trial: `gather_candidates`, one
/// `EntryCache::new`, then per pair a `PairCache` and per trial
/// `fuzz_pair_once_cached`. Needs a snapshot mode other than `Off` and no
/// static pruning.
fn lazy_analyze(program: &cil::Program, options: &AnalyzeOptions) -> AnalysisReport {
    let (potential, provenance) =
        gather_candidates(program, "main", &options.predict, options.source)
            .expect("candidates gather");
    let shared = EntryCache::new(options.snapshots);
    let pairs = potential
        .iter()
        .map(|&target| {
            let cache = PairCache::new(Arc::clone(&shared));
            let mut report = PairReport::empty(target);
            for trial in 0..options.trials_per_pair {
                let seed = options.base_seed + trial as u64;
                let config = FuzzConfig {
                    seed,
                    ..options.fuzz.clone()
                };
                let outcome = fuzz_pair_once_cached(program, "main", target, &config, Some(&cache))
                    .expect("cached trial succeeds");
                report.absorb(seed, &outcome, program);
            }
            report.snapshots = Some(cache.stats());
            report
        })
        .collect();
    AnalysisReport {
        potential,
        provenance,
        pairs,
        pruned: Vec::new(),
    }
}

/// Asserts that `analyze` and [`lazy_analyze`] give byte-identical reports
/// and identical per-pair `SnapshotStats`, and that the case fuzzed at
/// least one pair.
fn assert_handoff_matches(name: &str, program: &cil::Program, options: &AnalyzeOptions) {
    let handed = analyze(program, "main", options).expect("analysis succeeds");
    let lazy = lazy_analyze(program, options);
    assert!(!handed.pairs.is_empty(), "{name}: no pair to fuzz");
    assert_eq!(render(&handed), render(&lazy), "{name}: reports differ");
    let stats = |report: &AnalysisReport| -> Vec<Option<SnapshotStats>> {
        report.pairs.iter().map(|pair| pair.snapshots).collect()
    };
    assert_eq!(
        stats(&handed),
        stats(&lazy),
        "{name}: snapshot statistics differ"
    );
}

fn handoff_options() -> AnalyzeOptions {
    AnalyzeOptions::with_trials(4)
}

#[test]
fn prologue_handoff_matches_lazy_path_on_workloads_and_long_warmups() {
    for workload in workloads::all() {
        assert_eq!(workload.entry, "main", "{}: entry", workload.name);
        let options = handoff_options();
        if analyze(&workload.program, "main", &options)
            .expect("analysis succeeds")
            .pairs
            .is_empty()
        {
            continue;
        }
        assert_handoff_matches(workload.name, &workload.program, &options);
    }
    for allocating in [false, true] {
        let program = long_warmup_program(allocating);
        let name = format!("long warm-up (allocating: {allocating})");
        assert_handoff_matches(&name, &program, &handoff_options());
    }
}

/// A `main` whose prologue allocates, takes a lock on a local object and
/// catches an exception it threw, then writes `out` (the prologue's end)
/// one statement before it spawns two workers that race on `shared`.
/// `prefix` runs first; `rounds` sets the prologue's length.
fn busy_prologue_program(prefix: &str, rounds: u32) -> cil::Program {
    cil::compile(&format!(
        r#"
        class Box {{ v }}
        global shared = 0;
        global out = 0;
        proc worker(k) {{ shared = shared + k; }}
        proc main() {{
            {prefix}
            var b = new Box;
            var acc = 0;
            var i = 0;
            while (i < {rounds}) {{
                var c = new Box;
                sync (b) {{ acc = acc + i; }}
                try {{
                    if (i % 7 == 0) {{ throw Oops; }}
                }} catch (Oops) {{
                    acc = acc + 1;
                }}
                i = i + 1;
            }}
            out = acc;
            var t1 = spawn worker(1);
            var t2 = spawn worker(2);
            shared = acc;
            join t1;
            join t2;
            out = shared;
        }}
        "#
    ))
    .expect("fixture compiles")
}

#[test]
fn prologue_handoff_matches_lazy_path_on_allocating_locking_catching_prefix() {
    let program = busy_prologue_program("", 200);
    assert_handoff_matches("busy prologue", &program, &handoff_options());
}

#[test]
fn prologue_handoff_matches_lazy_path_without_a_prologue() {
    for (name, prefix) in [
        ("spawn first", "var t0 = spawn worker(3); join t0;"),
        ("global first", "out = 1;"),
    ] {
        let program = busy_prologue_program(prefix, 20);
        assert_handoff_matches(name, &program, &handoff_options());
    }
}

#[test]
fn prologue_handoff_matches_lazy_path_with_mismatched_heap_budgets() {
    let program = busy_prologue_program("", 200);
    // Phase 2's budget runs out inside the prologue, Phase 1's never does:
    // the lazy prologue ends at the budget error, the captured one past it.
    let mut tight_phase2 = handoff_options();
    tight_phase2.fuzz.max_heap_cells = Some(120);
    assert_handoff_matches("tight Phase-2 budget", &program, &tight_phase2);
    // Both budgets hold, but they differ.
    let mut loose_phase2 = handoff_options();
    loose_phase2.fuzz.max_heap_cells = Some(1 << 20);
    assert_handoff_matches("loose Phase-2 budget", &program, &loose_phase2);
    // Phase 1's budget runs out inside the prologue; static candidates
    // give Phase 2 pairs to fuzz.
    let mut tight_phase1 = handoff_options().source(CandidateSource::Union);
    tight_phase1.predict.limits.max_heap_cells = Some(120);
    assert_handoff_matches("tight Phase-1 budget", &program, &tight_phase1);
}

#[test]
fn prologue_handoff_matches_lazy_path_with_step_limits_inside_the_prefix() {
    let program = busy_prologue_program("", 200);
    // Phase 1 stops inside the prologue, at its end, and between its end
    // and the first `spawn`; static candidates give Phase 2 pairs to fuzz.
    let prologue = busy_prologue_steps(&program);
    for max_steps in [prologue / 2, prologue, prologue + 1] {
        let mut options = handoff_options().source(CandidateSource::Union);
        options.predict.limits.max_steps = max_steps;
        assert_handoff_matches(
            &format!("Phase-1 max_steps {max_steps}"),
            &program,
            &options,
        );
    }
    // Phase 2 stops inside the prologue, or exactly at its end.
    for max_steps in [prologue / 2, prologue] {
        let mut options = handoff_options();
        options.fuzz.max_steps = max_steps;
        assert_handoff_matches(
            &format!("Phase-2 max_steps {max_steps}"),
            &program,
            &options,
        );
    }
}

/// Statements in [`busy_prologue_program`]'s prologue, as the snapshot
/// layer reports them: the fast-forward of one prologue-only trial.
fn busy_prologue_steps(program: &cil::Program) -> u64 {
    let options = AnalyzeOptions::with_trials(1);
    let report = lazy_analyze(program, &options);
    let stats = report.pairs[0].snapshots.expect("cached pair");
    assert_eq!(stats.cache_hits, 1, "the prologue is not empty");
    stats.fast_forwarded_steps
}

#[test]
fn prologue_handoff_matches_lazy_path_with_a_zero_phase1_deadline() {
    for (name, program) in [
        ("short prologue", busy_prologue_program("", 20)),
        ("long prologue", long_warmup_program(false)),
    ] {
        let mut options = handoff_options().source(CandidateSource::Union);
        options.predict.limits.deadline = Some(Duration::ZERO);
        assert_handoff_matches(name, &program, &options);
    }
}

#[test]
fn prologue_handoff_matches_lazy_path_under_switch_only_at_sync() {
    let program = busy_prologue_program("", 200);
    let mut options = handoff_options();
    options.fuzz.switch_only_at_sync = true;
    assert_handoff_matches("switch_only_at_sync", &program, &options);
}

#[test]
fn prologue_handoff_matches_lazy_path_with_static_candidates() {
    let program = busy_prologue_program("", 200);
    let options = handoff_options().source(CandidateSource::Static);
    assert_handoff_matches("static candidates", &program, &options);
}
