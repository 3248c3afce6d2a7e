//! Phase 2 keeps `Enabled(s)` and the candidate set `Enabled(s) \ postponed`
//! between scheduler decisions, and re-derives them only after a step that
//! can change some thread's enabledness (DESIGN.md §5.1). Every RNG draw,
//! every executed statement and every snapshot-cache callback stay where
//! they were, so no outcome may move.
//!
//! The oracle is the decision loop Phase 2 ran before, frozen below against
//! the public `interp` API: it re-derives the enabled set at the top of
//! every decision and again at its end, and re-checks each postponed thread
//! and each candidate on the way. Every case compares the `Debug` form of
//! the whole `FuzzOutcome` (races, termination, steps, output, uncaught
//! exceptions, schedule) on the workloads, the `.cil` corpus and generated
//! programs, under every option that changes the loop's path.
//!
//! The snapshot cache cannot be driven from outside its crate, so the
//! `PrefixTrie` case compares each pair's `SnapshotStats` with the values
//! the frozen loop's trials produced, recorded in [`EXPECTED_TRIE_STATS`].
//!
//! The loop also replays the §4 monitor's spin windows from per-thread
//! cycle tables instead of interpreting them (DESIGN.md §5.2). The `spin_`
//! cases aim at that: lock-polling and barrier spins, spins whose every
//! iteration has an effect (which must be interpreted), and budgets,
//! monitor limits, capture ticks and options that stop a replay inside a
//! window. Their trie statistics, in [`EXPECTED_SPIN_TRIE_STATS`], were
//! recorded on the loop as it was before spin windows were replayed.
//!
//! The `long_warmup` case resumes every trial past a 50,000-iteration
//! warm-up, where `Rng::discard` jumps instead of stepping; its trie
//! statistics, in [`EXPECTED_LONG_WARMUP_TRIE_STATS`], were recorded
//! while `discard` still stepped.

mod support;

use proptest::prelude::*;
use racefuzzer_suite::cil::flat::{Instr, InstrId};
use racefuzzer_suite::detector::predict_deadlocks;
use racefuzzer_suite::interp::{Execution, NullObserver, Rng, StepResult, Termination, ThreadId};
use racefuzzer_suite::prelude::*;
use racefuzzer_suite::racefuzzer::{
    fuzz_once, fuzz_pair_once_cached, EntryCache, FuzzOutcome, PairCache, PairReport,
    RealRaceEvent, SnapshotMode, SnapshotOptions, SnapshotStats,
};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::PathBuf;
use support::arb_program;

/// The Phase-2 decision loop as it stood before the candidate set was kept
/// between decisions, minus the snapshot-cache hooks (which never change
/// what a trial computes).
fn frozen_loop(
    program: &cil::Program,
    race_set: &BTreeSet<InstrId>,
    config: &FuzzConfig,
) -> FuzzOutcome {
    let mut exec = Execution::new(program, "main").expect("entry resolves");
    exec.set_heap_budget(config.max_heap_cells);
    let race_list: Vec<InstrId> = race_set.iter().copied().collect();
    let in_race_set = |instr: InstrId| race_list.binary_search(&instr).is_ok();
    let stop_mask = exec.stop_mask(&race_list);

    let mut rng = Rng::seeded(config.seed);
    let mut postponed: Vec<(ThreadId, u64)> = Vec::new();
    let mut races: Vec<RealRaceEvent> = Vec::new();
    let mut decisions: u64 = 0;
    let mut schedule: Option<Vec<ThreadId>> = config.record_schedule.then(Vec::new);
    let started = config.wall_clock.map(|_| std::time::Instant::now());
    let mut enabled = Vec::new();
    let mut expired = Vec::new();
    let mut candidates = Vec::new();

    let termination = loop {
        if let Some(error) = exec.engine_error() {
            break Termination::EngineError(error.clone());
        }
        if exec.steps() >= config.max_steps {
            break Termination::StepLimit;
        }
        if decisions.is_multiple_of(256) {
            if let (Some(budget), Some(started)) = (config.wall_clock, started) {
                if started.elapsed() >= budget {
                    break Termination::DeadlineExceeded;
                }
            }
        }
        exec.enabled_into(&mut enabled);
        if enabled.is_empty() {
            break if !exec.has_alive() {
                Termination::AllExited
            } else {
                Termination::Deadlock(exec.alive())
            };
        }
        decisions += 1;

        expired.clear();
        expired.extend(
            postponed
                .iter()
                .filter(|&&(_, since)| decisions.saturating_sub(since) > config.postpone_limit)
                .map(|&(thread, _)| thread),
        );
        for &thread in &expired {
            postponed.retain(|&(held, _)| held != thread);
            if exec.is_enabled(thread) {
                step(&mut exec, thread, &mut schedule);
            }
        }
        postponed.retain(|&(thread, _)| exec.is_enabled(thread));

        candidates.clear();
        if expired.is_empty() && postponed.is_empty() {
            candidates.extend_from_slice(&enabled);
        } else {
            candidates.extend(enabled.iter().copied().filter(|thread| {
                exec.is_enabled(*thread) && postponed.iter().all(|&(held, _)| held != *thread)
            }));
        }
        if candidates.is_empty() {
            if postponed.is_empty() {
                continue;
            }
            let index = rng.below(postponed.len());
            let (freed, _) = postponed.remove(index);
            if exec.is_enabled(freed) {
                step(&mut exec, freed, &mut schedule);
            }
            continue;
        }

        let chosen = candidates[rng.below(candidates.len())];
        let next = exec.next_instr(chosen);
        let targeted = next.is_some_and(in_race_set);

        if !targeted {
            step(&mut exec, chosen, &mut schedule);
            if config.switch_only_at_sync {
                let ran =
                    exec.run_quiescent(chosen, &stop_mask, config.max_steps, &mut NullObserver);
                if let Some(trace) = &mut schedule {
                    trace.extend(std::iter::repeat_n(chosen, ran as usize));
                }
            }
        } else {
            let chosen_access = exec.next_access(chosen);
            let racing: Vec<ThreadId> = if config.location_precise {
                match chosen_access {
                    None => Vec::new(),
                    Some(mine) => postponed
                        .iter()
                        .map(|&(thread, _)| thread)
                        .filter(|&thread| {
                            exec.next_access(thread)
                                .is_some_and(|theirs| mine.conflicts_with(&theirs))
                        })
                        .collect(),
                }
            } else {
                postponed.iter().map(|&(thread, _)| thread).collect()
            };

            if racing.is_empty() {
                postponed.push((chosen, decisions));
            } else {
                let my_instr = next.expect("targeted statement exists");
                for &partner in &racing {
                    let partner_instr = exec
                        .next_instr(partner)
                        .expect("postponed thread is runnable");
                    races.push(RealRaceEvent {
                        step: exec.steps(),
                        pair: RacePair::new(my_instr, partner_instr),
                        loc: chosen_access.map(|access| access.loc),
                        ran_first: chosen,
                        partners: vec![partner],
                    });
                }
                if rng.coin() {
                    step(&mut exec, chosen, &mut schedule);
                } else {
                    postponed.push((chosen, decisions));
                    for &partner in &racing {
                        step(&mut exec, partner, &mut schedule);
                        postponed.retain(|&(thread, _)| thread != partner);
                    }
                }
            }
        }

        if postponed.is_empty() {
            continue;
        }
        exec.enabled_into(&mut enabled);
        if !enabled.is_empty()
            && enabled
                .iter()
                .all(|thread| postponed.iter().any(|&(held, _)| held == *thread))
        {
            let index = rng.below(postponed.len());
            let (freed, _) = postponed.remove(index);
            if exec.is_enabled(freed) {
                step(&mut exec, freed, &mut schedule);
            }
        }
    };

    FuzzOutcome {
        seed: config.seed,
        races,
        termination,
        uncaught: exec.uncaught().to_vec(),
        steps: exec.steps(),
        output: exec.output().to_vec(),
        schedule,
    }
}

fn step(exec: &mut Execution<'_>, thread: ThreadId, schedule: &mut Option<Vec<ThreadId>>) {
    if let Some(trace) = schedule {
        trace.push(thread);
    }
    let result = exec.step(thread, &mut NullObserver);
    assert_ne!(
        result,
        StepResult::NotEnabled,
        "the frozen loop stepped a disabled thread"
    );
}

/// Asserts `fuzz_once` equals the frozen loop on `race_set` under `config`.
fn assert_matches(
    name: &str,
    program: &cil::Program,
    race_set: &BTreeSet<InstrId>,
    config: &FuzzConfig,
) {
    let actual = fuzz_once(program, "main", race_set, config).expect("entry resolves");
    let expected = frozen_loop(program, race_set, config);
    assert_eq!(
        format!("{actual:?}"),
        format!("{expected:?}"),
        "{name}: race set {race_set:?} diverges from the frozen loop under {config:?}"
    );
}

fn pair_set(pair: RacePair) -> BTreeSet<InstrId> {
    pair.instrs().into_iter().collect()
}

/// The Phase-1 predicted pairs of `program`.
fn predicted(program: &cil::Program) -> Vec<RacePair> {
    predict_races(program, "main", &PredictConfig::default()).expect("prediction runs")
}

/// Trial seeds per pair.
const SEEDS: [u64; 3] = [1, 2, 3];

/// Per workload, in `workloads::all()` order: the `SnapshotStats` of each
/// predicted pair after the [`SEEDS`] trials, as
/// `[trials, cache_hits, fast_forwarded_steps, captures, evictions]`.
/// Recorded by this test while the frozen loop was still Phase 2's loop:
/// the cache's hooks are internal to its crate, so the frozen loop cannot
/// recompute them here.
#[rustfmt::skip]
const EXPECTED_TRIE_STATS: &[(&str, &[[u64; 5]])] = &[
    ("moldyn", &[[3, 3, 3, 5, 0], [3, 3, 3, 0, 0], [3, 3, 3, 5, 0], [3, 3, 3, 3, 0], [3, 3, 3, 3, 0], [3, 3, 3, 3, 0], [3, 3, 3, 3, 0], [3, 3, 3, 3, 0], [3, 3, 3, 3, 0], [3, 3, 3, 3, 0]]),
    ("raytracer", &[[3, 0, 0, 0, 0], [3, 0, 0, 0, 0]]),
    ("montecarlo", &[[3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0]]),
    ("cache4j", &[[3, 3, 3, 6, 0], [3, 3, 3, 6, 0], [3, 3, 3, 4, 0], [3, 3, 3, 3, 0], [3, 3, 3, 3, 0], [3, 3, 3, 3, 0], [3, 3, 3, 3, 0], [3, 3, 3, 3, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0]]),
    ("sor", &[[3, 3, 3, 6, 0], [3, 3, 3, 5, 0], [3, 3, 3, 3, 0], [3, 3, 3, 3, 0], [3, 3, 259, 5, 0], [3, 3, 3, 5, 0], [3, 3, 3, 4, 0], [3, 3, 3, 3, 0]]),
    ("hedc", &[[3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 3, 0], [3, 3, 3, 3, 0], [3, 3, 3, 3, 0], [3, 3, 3, 3, 0], [3, 3, 3, 3, 0], [3, 3, 3, 3, 0], [3, 3, 3, 3, 0], [3, 3, 3, 3, 0]]),
    ("weblech", &[[3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0]]),
    ("jspider", &[[3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0]]),
    ("jigsaw", &[[3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0], [3, 3, 3, 0, 0]]),
    ("Vector 1.1", &[[3, 3, 12, 0, 0], [3, 3, 12, 0, 0], [3, 3, 12, 0, 0], [3, 3, 12, 0, 0], [3, 3, 12, 0, 0], [3, 3, 12, 0, 0], [3, 3, 12, 0, 0], [3, 3, 12, 0, 0], [3, 3, 12, 0, 0], [3, 3, 12, 0, 0]]),
    ("LinkedList", &[[3, 3, 9, 0, 0], [3, 3, 9, 0, 0], [3, 3, 9, 0, 0], [3, 3, 9, 0, 0], [3, 3, 9, 0, 0], [3, 3, 9, 0, 0], [3, 3, 9, 0, 0], [3, 3, 9, 0, 0], [3, 3, 9, 0, 0], [3, 3, 9, 0, 0], [3, 3, 9, 0, 0], [3, 3, 9, 0, 0]]),
    ("ArrayList", &[[3, 3, 12, 0, 0], [3, 3, 12, 0, 0], [3, 3, 12, 0, 0], [3, 3, 12, 0, 0], [3, 3, 12, 0, 0], [3, 3, 12, 0, 0], [3, 3, 12, 0, 0], [3, 3, 12, 0, 0]]),
    ("HashSet", &[[3, 3, 524, 1, 0], [3, 3, 524, 1, 0], [3, 3, 524, 1, 0], [3, 3, 524, 1, 0], [3, 3, 524, 1, 0], [3, 3, 524, 1, 0], [3, 3, 524, 1, 0], [3, 3, 524, 1, 0], [3, 3, 524, 1, 0], [3, 3, 524, 1, 0], [3, 3, 524, 1, 0], [3, 3, 524, 1, 0]]),
    ("TreeSet", &[[3, 3, 15, 3, 0], [3, 3, 15, 3, 0], [3, 3, 15, 3, 0], [3, 3, 15, 3, 0], [3, 3, 15, 3, 0], [3, 3, 15, 3, 0], [3, 3, 15, 4, 0], [3, 3, 15, 3, 0], [3, 3, 15, 3, 0], [3, 3, 15, 3, 0], [3, 3, 15, 3, 0], [3, 3, 15, 3, 0], [3, 3, 15, 3, 0], [3, 3, 15, 3, 0]]),
];

/// Every predicted pair of every workload, three seeds each, with the
/// snapshot cache off and with the prefix trie: the same outcomes as the
/// frozen loop, and under the trie the same cache statistics.
#[test]
fn workload_pairs_match_the_frozen_loop() {
    let mut table = String::new();
    let mut mismatched = Vec::new();
    for (index, workload) in workloads::all().into_iter().enumerate() {
        let program = &workload.program;
        let entry = EntryCache::new(SnapshotOptions::with_mode(SnapshotMode::PrefixTrie));
        let mut stats: Vec<[u64; 5]> = Vec::new();
        for pair in predicted(program) {
            let race_set = pair_set(pair);
            let trie = PairCache::new(entry.clone());
            let off = PairCache::new(EntryCache::new(SnapshotOptions::off()));
            let mut report = PairReport::empty(pair);
            for seed in SEEDS {
                let config = FuzzConfig::seeded(seed);
                let outcome = frozen_loop(program, &race_set, &config);
                report.absorb(seed, &outcome, program);
                let expected = format!("{outcome:?}");
                for cache in [&off, &trie] {
                    let actual = fuzz_pair_once_cached(program, "main", pair, &config, Some(cache))
                        .expect("entry resolves");
                    assert_eq!(
                        format!("{actual:?}"),
                        expected,
                        "{}: {pair:?} seed {seed} under {:?} diverges from the frozen loop",
                        workload.name,
                        cache.options().mode
                    );
                }
            }
            // `fuzz_pair` runs its trials on one reused trial scratch.
            let reused = fuzz_pair(
                program,
                "main",
                pair,
                SEEDS.len(),
                SEEDS[0],
                &FuzzConfig::default(),
            )
            .expect("entry resolves");
            assert_eq!(
                format!("{reused:?}"),
                format!("{report:?}"),
                "{}: {pair:?} diverges from the frozen loop on a reused trial scratch",
                workload.name
            );
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
        let _ = writeln!(table, "    ({:?}, &{stats:?}),", workload.name);
        if EXPECTED_TRIE_STATS.get(index) != Some(&(workload.name, stats.as_slice())) {
            mismatched.push(workload.name);
        }
    }
    assert!(
        mismatched.is_empty(),
        "prefix-trie statistics differ from the frozen loop's on {mismatched:?}; observed:\n{table}"
    );
}

/// Runs every predicted pair of every workload under `config` (with the
/// seed replaced), on `pairs_per_workload` pairs each.
fn assert_workloads_match(label: &str, config: &FuzzConfig, pairs_per_workload: usize) {
    for workload in workloads::all() {
        for pair in predicted(&workload.program)
            .into_iter()
            .take(pairs_per_workload)
        {
            for seed in SEEDS {
                let config = FuzzConfig {
                    seed,
                    ..config.clone()
                };
                assert_matches(
                    &format!("{} ({label})", workload.name),
                    &workload.program,
                    &pair_set(pair),
                    &config,
                );
            }
        }
    }
}

/// The livelock monitor evicts after `postpone_limit` decisions; small
/// limits make evictions — the one path that steps threads before the
/// candidates are drawn from — happen at almost every decision.
#[test]
fn postpone_limits_match_the_frozen_loop() {
    for postpone_limit in [1, 3, 50, FuzzConfig::default().postpone_limit] {
        let config = FuzzConfig {
            postpone_limit,
            ..FuzzConfig::default()
        };
        assert_workloads_match(&format!("postpone_limit {postpone_limit}"), &config, 4);
    }
}

#[test]
fn ablations_and_recording_match_the_frozen_loop() {
    let imprecise = FuzzConfig {
        location_precise: false,
        ..FuzzConfig::default()
    };
    assert_workloads_match("location_precise: false", &imprecise, 4);
    let at_sync = FuzzConfig {
        switch_only_at_sync: true,
        ..FuzzConfig::default()
    };
    assert_workloads_match("switch_only_at_sync", &at_sync, 4);
    let recording = FuzzConfig {
        max_steps: 50_000,
        ..FuzzConfig::default().recording()
    };
    assert_workloads_match("record_schedule", &recording, 2);
}

/// Step budgets that end trials while a thread is postponed (the livelock
/// monitor's wait is 20,000 decisions), and heap budgets that poison the
/// machine mid-trial.
#[test]
fn budgets_match_the_frozen_loop() {
    for max_steps in [1, 40, 700, 5_000] {
        let config = FuzzConfig {
            max_steps,
            ..FuzzConfig::default()
        };
        assert_workloads_match(&format!("max_steps {max_steps}"), &config, 3);
    }
    for cells in [0, 8, 64] {
        let config = FuzzConfig {
            max_heap_cells: Some(cells),
            ..FuzzConfig::default()
        };
        assert_workloads_match(&format!("max_heap_cells {cells}"), &config, 3);
    }
}

/// Deadlock mode targets `lock` statements: a postponed thread can become
/// disabled while it waits, which is where the loop prunes its postponed
/// set. Race sets are `hunt_deadlocks`' (`DeadlockOptions::default()`).
#[test]
fn deadlock_race_sets_match_the_frozen_loop() {
    let options = DeadlockOptions::default();
    let mut programs: Vec<(String, cil::Program)> = workloads::all()
        .into_iter()
        .map(|workload| (workload.name.to_owned(), workload.program))
        .collect();
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/cil");
    for name in [
        "dining_philosophers.cil",
        "figure1.cil",
        "figure2.cil",
        "split_region.cil",
    ] {
        let source = std::fs::read_to_string(corpus.join(name)).expect("corpus file reads");
        programs.push((
            name.to_owned(),
            cil::compile(&source).expect("corpus file compiles"),
        ));
    }
    let mut sets = 0;
    for (name, program) in &programs {
        let candidates =
            predict_deadlocks(program, "main", options.observation_runs, options.max_cycle)
                .expect("deadlock prediction runs");
        for candidate in candidates {
            sets += 1;
            for seed in SEEDS {
                let config = FuzzConfig {
                    seed,
                    ..options.fuzz.clone()
                };
                assert_matches(name, program, &candidate.inner_sites(), &config);
            }
        }
    }
    assert!(sets > 0, "some program has a deadlock candidate");
}

/// Corpus programs on their predicted pairs, under the default loop and
/// with an aggressive livelock monitor.
#[test]
fn corpus_pairs_match_the_frozen_loop() {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/cil");
    for name in [
        "dining_philosophers.cil",
        "figure1.cil",
        "figure2.cil",
        "split_region.cil",
        "spin_barrier.cil",
        "spin_poll.cil",
    ] {
        let source = std::fs::read_to_string(corpus.join(name)).expect("corpus file reads");
        let program = cil::compile(&source).expect("corpus file compiles");
        for pair in predicted(&program) {
            for postpone_limit in [2, FuzzConfig::default().postpone_limit] {
                for seed in SEEDS {
                    let config = FuzzConfig {
                        seed,
                        postpone_limit,
                        ..FuzzConfig::default()
                    };
                    assert_matches(name, &program, &pair_set(pair), &config);
                }
            }
        }
    }
}

/// Threads that throw out of `sync` blocks while peers block on the same
/// monitor: the unwinding step releases the monitor, which enables the
/// peers.
const THROW_IN_SYNC: &str = r#"
    class Lock { }
    global lk;
    global x = 0;
    global y = 0;
    proc thrower(n) {
        var i = 0;
        while (i < n) {
            try {
                sync (lk) {
                    x = x + 1;
                    if (x > 0) { throw Boom; }
                }
            } catch (Boom) { y = y + 1; }
            i = i + 1;
        }
        sync (lk) { sync (lk) { throw Fatal; } }
    }
    proc blocker() {
        var i = 0;
        while (i < 3) {
            sync (lk) { x = x - 1; }
            y = y + 2;
            i = i + 1;
        }
    }
    proc main() {
        lk = new Lock;
        var a = spawn thrower(3);
        var b = spawn blocker();
        var c = spawn blocker();
        x = 5;
        join b;
        join c;
        join a;
        y = 0;
    }
"#;

/// `wait`/`notify`/`notifyall`, interrupts of waiting and joining threads,
/// and explicit `lock`/`unlock`: every status change another thread can
/// cause.
const WAIT_NOTIFY_INTERRUPT: &str = r#"
    class Lock { }
    global lk;
    global flag = 0;
    global data = 0;
    proc consumer() {
        try {
            sync (lk) {
                while (flag == 0) { wait lk; }
                data = data + 1;
            }
        } catch (InterruptedException) { data = data - 1; }
    }
    proc producer() {
        data = 10;
        lock lk;
        flag = 1;
        notifyall lk;
        unlock lk;
    }
    proc joiner(t) {
        try { join t; } catch (InterruptedException) { data = 7; }
        data = data + 2;
    }
    proc main() {
        lk = new Lock;
        var c1 = spawn consumer();
        var c2 = spawn consumer();
        var j = spawn joiner(c1);
        var p = spawn producer();
        interrupt c2;
        interrupt j;
        join p;
        sync (lk) { flag = 1; notify lk; notify lk; }
        join c1;
        join c2;
        join j;
    }
"#;

/// Monitor releases by unwinding, wait sets, interrupts and joins, with
/// race sets that postpone at each predicted pair, at every `lock`, and at
/// every memory access.
#[test]
fn sync_surface_programs_match_the_frozen_loop() {
    for (name, source) in [
        ("throw in sync", THROW_IN_SYNC),
        ("wait/notify/interrupt", WAIT_NOTIFY_INTERRUPT),
    ] {
        let program = cil::compile(source).unwrap_or_else(|error| panic!("{name}: {error}"));
        let matching = |keep: fn(&Instr) -> bool| -> BTreeSet<InstrId> {
            (0..program.instr_count() as u32)
                .map(InstrId)
                .filter(|&id| keep(program.instr(id)))
                .collect()
        };
        let mut race_sets: Vec<BTreeSet<InstrId>> =
            predicted(&program).into_iter().map(pair_set).collect();
        race_sets.push(matching(|instr| matches!(instr, Instr::Lock { .. })));
        race_sets.push(matching(Instr::is_memory_access));
        for race_set in &race_sets {
            for postpone_limit in [1, 5, FuzzConfig::default().postpone_limit] {
                for seed in 1..=8 {
                    let config = FuzzConfig {
                        seed,
                        postpone_limit,
                        ..FuzzConfig::default()
                    };
                    assert_matches(name, &program, race_set, &config);
                }
            }
        }
    }
}

/// Two threads poll a flag under one monitor while main is postponed at a
/// write they read after the handshake (the montecarlo shape), and a third
/// thread takes the monitor once, after a short local delay: depending on
/// the seed it waits for a monitor that a spinner releases in the middle
/// of a window, or arrives after the window.
const SPIN_POLL_SHAPES: &str = r#"
    class Lock { }
    class Cfg { a }
    global l;
    global cfg;
    global ready = false;
    global seen = 0;
    proc poller(id) {
        var ok = false;
        while (!ok) { sync (l) { ok = ready; } }
        var x = cfg.a;
        sync (l) { seen = seen + x + id; }
    }
    proc latecomer() {
        var i = 0;
        while (i < 4) { i = i + 1; }
        sync (l) { seen = seen + 100; }
    }
    proc main() {
        l = new Lock;
        cfg = new Cfg;
        var p1 = spawn poller(1);
        var p2 = spawn poller(2);
        var q = spawn latecomer();
        cfg.a = 7;
        sync (l) { ready = true; }
        join p1;
        join p2;
        join q;
        print seen;
    }
"#;

/// Two spinners on a plain flag, each running `effect` on every
/// iteration, while main is postponed at the write they read after the
/// flag. Every effect but `""` must keep the window interpreted.
fn spin_with(effect: &str) -> String {
    format!(
        r#"
        class Cell {{ v }}
        global ready = false;
        global data = 0;
        global g = 0;
        global cell;
        global sink = 0;
        proc spinner(c, peer) {{
            var ok = false;
            var n = 0;
            while (!ok) {{
                {effect}
                ok = ready;
            }}
            sink = data + n;
        }}
        proc main() {{
            cell = new Cell;
            cell.v = 0;
            var a = spawn spinner(cell, null);
            var b = spawn spinner(cell, a);
            data = 1;
            ready = true;
            join a;
            join b;
            print cell.v;
            print g;
            print sink;
        }}
    "#
    )
}

/// The spin-window programs: the two corpus files, the polling shapes, a
/// pure spin, and one spin per kind of effect. The heap-write and
/// interrupt spins toggle what they write, so a replay that skipped their
/// effects would leave a different value or interrupt flag behind.
fn spin_programs() -> Vec<(String, cil::Program)> {
    let corpus = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/cil");
    let mut programs: Vec<(String, String)> = ["spin_poll.cil", "spin_barrier.cil"]
        .into_iter()
        .map(|name| {
            let source = std::fs::read_to_string(corpus.join(name)).expect("corpus file reads");
            (name.to_owned(), source)
        })
        .collect();
    programs.push(("polling shapes".to_owned(), SPIN_POLL_SHAPES.to_owned()));
    for (name, effect) in [
        ("pure spin", ""),
        ("allocating spin", "var o = new Cell;"),
        ("printing spin", "print n;"),
        ("global-store spin", "g = 1 - g;"),
        ("heap-write spin", "c.v = 1 - c.v;"),
        (
            "interrupting spin",
            "if (peer != null) { interrupt peer; } \
             try { sleep 1; } catch (InterruptedException) { n = 1 - n; }",
        ),
    ] {
        programs.push((name.to_owned(), spin_with(effect)));
    }
    programs
        .into_iter()
        .map(|(name, source)| {
            let program = cil::compile(&source).unwrap_or_else(|error| panic!("{name}: {error}"));
            (name, program)
        })
        .collect()
}

/// Seeds per spin-window case.
const SPIN_SEEDS: [u64; 4] = [1, 2, 3, 4];

/// Every predicted pair of every spin program under `config` (seed
/// replaced), against the frozen loop.
fn assert_spins_match(label: &str, config: &FuzzConfig) {
    for (name, program) in spin_programs() {
        for pair in predicted(&program) {
            for seed in SPIN_SEEDS {
                let config = FuzzConfig {
                    seed,
                    ..config.clone()
                };
                assert_matches(
                    &format!("{name} ({label})"),
                    &program,
                    &pair_set(pair),
                    &config,
                );
            }
        }
    }
}

/// Spin windows under the default loop, under livelock monitors that end
/// a window before, while and well after its tables are found, and under
/// step budgets that fall inside a window.
#[test]
fn spin_windows_match_the_frozen_loop() {
    assert_spins_match("defaults", &FuzzConfig::default());
    for postpone_limit in [1, 3, 50, 300] {
        let config = FuzzConfig {
            postpone_limit,
            ..FuzzConfig::default()
        };
        assert_spins_match(&format!("postpone_limit {postpone_limit}"), &config);
    }
    for max_steps in [500, 5_000, 12_345] {
        let config = FuzzConfig {
            max_steps,
            ..FuzzConfig::default()
        };
        assert_spins_match(&format!("max_steps {max_steps}"), &config);
    }
}

/// Spin windows under the options that change the loop's path: decisions
/// that run to the next synchronization operation, a recorded schedule,
/// the location ablation, and race sets of every `lock` statement
/// (deadlock mode, where a postponed thread waits for a monitor a spinner
/// moves) and of every memory access.
#[test]
fn spin_window_options_match_the_frozen_loop() {
    let at_sync = FuzzConfig {
        switch_only_at_sync: true,
        ..FuzzConfig::default()
    };
    assert_spins_match("switch_only_at_sync", &at_sync);
    assert_spins_match("record_schedule", &FuzzConfig::default().recording());
    let imprecise = FuzzConfig {
        location_precise: false,
        ..FuzzConfig::default()
    };
    assert_spins_match("location_precise: false", &imprecise);
    for (name, program) in spin_programs() {
        let locks: BTreeSet<InstrId> = (0..program.instr_count() as u32)
            .map(InstrId)
            .filter(|&id| matches!(program.instr(id), Instr::Lock { .. }))
            .collect();
        let accesses: BTreeSet<InstrId> = (0..program.instr_count() as u32)
            .map(InstrId)
            .filter(|&id| program.instr(id).is_memory_access())
            .collect();
        for race_set in [locks, accesses] {
            for postpone_limit in [300, FuzzConfig::default().postpone_limit] {
                for seed in SPIN_SEEDS {
                    let config = FuzzConfig {
                        seed,
                        postpone_limit,
                        ..DeadlockOptions::default().fuzz
                    };
                    assert_matches(&name, &program, &race_set, &config);
                }
            }
        }
    }
}

/// The option sets the trie cases run under: the defaults, livelock
/// monitors that end a window before, while and after its tables are
/// found, and a step budget that falls inside a window.
fn spin_trie_configs() -> Vec<(String, FuzzConfig)> {
    let mut configs = vec![("defaults".to_owned(), FuzzConfig::default())];
    for postpone_limit in [1, 3, 50, 300] {
        let config = FuzzConfig {
            postpone_limit,
            ..FuzzConfig::default()
        };
        configs.push((format!("postpone_limit {postpone_limit}"), config));
    }
    let config = FuzzConfig {
        max_steps: 12_345,
        ..FuzzConfig::default()
    };
    configs.push(("max_steps 12345".to_owned(), config));
    configs
}

/// Per spin program (in `spin_programs` order), per option set (in
/// `spin_trie_configs` order) and per capture policy (`min_capture_gain`
/// 0, then the default): the `SnapshotStats` of each predicted pair after
/// the [`SPIN_SEEDS`] trials under `PrefixTrie`, as `[trials, cache_hits,
/// fast_forwarded_steps, captures, evictions]`. Recorded on the loop as it
/// was before spin windows were replayed.
#[rustfmt::skip]
const EXPECTED_SPIN_TRIE_STATS: &[(&str, &str, u64, &[[u64; 5]])] = &[
    ("spin_poll.cil", "defaults", 0, &[[4, 4, 15, 50, 0], [4, 4, 15, 50, 0]]),
    ("spin_poll.cil", "defaults", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("spin_poll.cil", "postpone_limit 1", 0, &[[4, 4, 15, 50, 0], [4, 4, 15, 48, 0]]),
    ("spin_poll.cil", "postpone_limit 1", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("spin_poll.cil", "postpone_limit 3", 0, &[[4, 4, 15, 50, 0], [4, 4, 15, 49, 0]]),
    ("spin_poll.cil", "postpone_limit 3", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("spin_poll.cil", "postpone_limit 50", 0, &[[4, 4, 15, 50, 0], [4, 4, 15, 50, 0]]),
    ("spin_poll.cil", "postpone_limit 50", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("spin_poll.cil", "postpone_limit 300", 0, &[[4, 4, 15, 50, 0], [4, 4, 15, 50, 0]]),
    ("spin_poll.cil", "postpone_limit 300", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("spin_poll.cil", "max_steps 12345", 0, &[[4, 4, 15, 50, 0], [4, 4, 15, 50, 0]]),
    ("spin_poll.cil", "max_steps 12345", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("spin_barrier.cil", "defaults", 0, &[[4, 4, 29, 44, 0], [4, 4, 29, 43, 0], [4, 4, 30, 44, 0]]),
    ("spin_barrier.cil", "defaults", 256, &[[4, 4, 4, 1, 0], [4, 4, 4, 0, 0], [4, 4, 4, 8, 0]]),
    ("spin_barrier.cil", "postpone_limit 1", 0, &[[4, 4, 29, 47, 0], [4, 4, 29, 46, 0], [4, 4, 27, 47, 0]]),
    ("spin_barrier.cil", "postpone_limit 1", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("spin_barrier.cil", "postpone_limit 3", 0, &[[4, 4, 29, 45, 0], [4, 4, 29, 45, 0], [4, 4, 32, 45, 0]]),
    ("spin_barrier.cil", "postpone_limit 3", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("spin_barrier.cil", "postpone_limit 50", 0, &[[4, 4, 29, 44, 0], [4, 4, 29, 43, 0], [4, 4, 30, 45, 0]]),
    ("spin_barrier.cil", "postpone_limit 50", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("spin_barrier.cil", "postpone_limit 300", 0, &[[4, 4, 29, 44, 0], [4, 4, 29, 43, 0], [4, 4, 30, 45, 0]]),
    ("spin_barrier.cil", "postpone_limit 300", 256, &[[4, 4, 4, 1, 0], [4, 4, 4, 0, 0], [4, 4, 4, 4, 0]]),
    ("spin_barrier.cil", "max_steps 12345", 0, &[[4, 4, 29, 43, 0], [4, 4, 29, 43, 0], [4, 4, 30, 16, 0]]),
    ("spin_barrier.cil", "max_steps 12345", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("polling shapes", "defaults", 0, &[[4, 4, 15, 48, 0]]),
    ("polling shapes", "defaults", 256, &[[4, 4, 4, 0, 0]]),
    ("polling shapes", "postpone_limit 1", 0, &[[4, 4, 15, 48, 0]]),
    ("polling shapes", "postpone_limit 1", 256, &[[4, 4, 4, 0, 0]]),
    ("polling shapes", "postpone_limit 3", 0, &[[4, 4, 15, 48, 0]]),
    ("polling shapes", "postpone_limit 3", 256, &[[4, 4, 4, 0, 0]]),
    ("polling shapes", "postpone_limit 50", 0, &[[4, 4, 15, 48, 0]]),
    ("polling shapes", "postpone_limit 50", 256, &[[4, 4, 4, 0, 0]]),
    ("polling shapes", "postpone_limit 300", 0, &[[4, 4, 15, 48, 0]]),
    ("polling shapes", "postpone_limit 300", 256, &[[4, 4, 4, 0, 0]]),
    ("polling shapes", "max_steps 12345", 0, &[[4, 4, 15, 48, 0]]),
    ("polling shapes", "max_steps 12345", 256, &[[4, 4, 4, 0, 0]]),
    ("pure spin", "defaults", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 44, 0]]),
    ("pure spin", "defaults", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("pure spin", "postpone_limit 1", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 44, 0], [4, 4, 17, 44, 0]]),
    ("pure spin", "postpone_limit 1", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("pure spin", "postpone_limit 3", 0, &[[4, 4, 17, 43, 0], [4, 4, 17, 44, 0], [4, 4, 17, 44, 0]]),
    ("pure spin", "postpone_limit 3", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("pure spin", "postpone_limit 50", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 44, 0]]),
    ("pure spin", "postpone_limit 50", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("pure spin", "postpone_limit 300", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 44, 0]]),
    ("pure spin", "postpone_limit 300", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("pure spin", "max_steps 12345", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 44, 0]]),
    ("pure spin", "max_steps 12345", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("allocating spin", "defaults", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 44, 0]]),
    ("allocating spin", "defaults", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("allocating spin", "postpone_limit 1", 0, &[[4, 4, 17, 43, 0], [4, 4, 17, 44, 0], [4, 4, 17, 44, 0]]),
    ("allocating spin", "postpone_limit 1", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("allocating spin", "postpone_limit 3", 0, &[[4, 4, 17, 43, 0], [4, 4, 17, 43, 0], [4, 4, 17, 46, 0]]),
    ("allocating spin", "postpone_limit 3", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("allocating spin", "postpone_limit 50", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 44, 0]]),
    ("allocating spin", "postpone_limit 50", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("allocating spin", "postpone_limit 300", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 44, 0]]),
    ("allocating spin", "postpone_limit 300", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("allocating spin", "max_steps 12345", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 44, 0]]),
    ("allocating spin", "max_steps 12345", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("printing spin", "defaults", 0, &[[4, 4, 17, 41, 0], [4, 4, 17, 47, 0], [4, 4, 17, 45, 0]]),
    ("printing spin", "defaults", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("printing spin", "postpone_limit 1", 0, &[[4, 4, 17, 43, 0], [4, 4, 17, 45, 0], [4, 4, 17, 44, 0]]),
    ("printing spin", "postpone_limit 1", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("printing spin", "postpone_limit 3", 0, &[[4, 4, 17, 44, 0], [4, 4, 17, 44, 0], [4, 4, 17, 45, 0]]),
    ("printing spin", "postpone_limit 3", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("printing spin", "postpone_limit 50", 0, &[[4, 4, 17, 41, 0], [4, 4, 17, 47, 0], [4, 4, 17, 45, 0]]),
    ("printing spin", "postpone_limit 50", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("printing spin", "postpone_limit 300", 0, &[[4, 4, 17, 41, 0], [4, 4, 17, 47, 0], [4, 4, 17, 45, 0]]),
    ("printing spin", "postpone_limit 300", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("printing spin", "max_steps 12345", 0, &[[4, 4, 17, 41, 0], [4, 4, 17, 47, 0], [4, 4, 17, 45, 0]]),
    ("printing spin", "max_steps 12345", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("global-store spin", "defaults", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 42, 0], [4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 44, 0]]),
    ("global-store spin", "defaults", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("global-store spin", "postpone_limit 1", 0, &[[4, 4, 17, 43, 0], [4, 4, 17, 44, 0], [4, 4, 17, 43, 0], [4, 4, 17, 44, 0], [4, 4, 17, 44, 0]]),
    ("global-store spin", "postpone_limit 1", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("global-store spin", "postpone_limit 3", 0, &[[4, 4, 17, 43, 0], [4, 4, 17, 44, 0], [4, 4, 17, 43, 0], [4, 4, 17, 43, 0], [4, 4, 17, 46, 0]]),
    ("global-store spin", "postpone_limit 3", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("global-store spin", "postpone_limit 50", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 42, 0], [4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 44, 0]]),
    ("global-store spin", "postpone_limit 50", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("global-store spin", "postpone_limit 300", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 42, 0], [4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 44, 0]]),
    ("global-store spin", "postpone_limit 300", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("global-store spin", "max_steps 12345", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 42, 0], [4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 44, 0]]),
    ("global-store spin", "max_steps 12345", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("heap-write spin", "defaults", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 42, 0], [4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 44, 0]]),
    ("heap-write spin", "defaults", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("heap-write spin", "postpone_limit 1", 0, &[[4, 4, 17, 43, 0], [4, 4, 17, 44, 0], [4, 4, 17, 43, 0], [4, 4, 17, 44, 0], [4, 4, 17, 44, 0]]),
    ("heap-write spin", "postpone_limit 1", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("heap-write spin", "postpone_limit 3", 0, &[[4, 4, 17, 43, 0], [4, 4, 17, 44, 0], [4, 4, 17, 43, 0], [4, 4, 17, 43, 0], [4, 4, 17, 46, 0]]),
    ("heap-write spin", "postpone_limit 3", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("heap-write spin", "postpone_limit 50", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 42, 0], [4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 44, 0]]),
    ("heap-write spin", "postpone_limit 50", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("heap-write spin", "postpone_limit 300", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 42, 0], [4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 44, 0]]),
    ("heap-write spin", "postpone_limit 300", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("heap-write spin", "max_steps 12345", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 42, 0], [4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 44, 0]]),
    ("heap-write spin", "max_steps 12345", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("interrupting spin", "defaults", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 45, 0]]),
    ("interrupting spin", "defaults", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("interrupting spin", "postpone_limit 1", 0, &[[4, 4, 17, 45, 0], [4, 4, 17, 46, 0], [4, 4, 17, 45, 0]]),
    ("interrupting spin", "postpone_limit 1", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("interrupting spin", "postpone_limit 3", 0, &[[4, 4, 17, 43, 0], [4, 4, 17, 46, 0], [4, 4, 17, 45, 0]]),
    ("interrupting spin", "postpone_limit 3", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("interrupting spin", "postpone_limit 50", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 45, 0]]),
    ("interrupting spin", "postpone_limit 50", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("interrupting spin", "postpone_limit 300", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 45, 0]]),
    ("interrupting spin", "postpone_limit 300", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
    ("interrupting spin", "max_steps 12345", 0, &[[4, 4, 17, 42, 0], [4, 4, 17, 47, 0], [4, 4, 17, 45, 0]]),
    ("interrupting spin", "max_steps 12345", 256, &[[4, 4, 4, 0, 0], [4, 4, 4, 0, 0], [4, 4, 4, 0, 0]]),
];

/// Spin windows with the prefix trie attached, capturing at every
/// eligible loop-top (so capture ticks fall inside windows) and at the
/// default gain, under each of `spin_trie_configs`: the frozen loop's
/// outcomes, and the cache statistics the loop produced before it
/// replayed windows.
#[test]
fn spin_windows_under_the_trie_match_the_frozen_loop() {
    let mut table = String::new();
    let mut observed: Vec<(String, String, u64, Vec<[u64; 5]>)> = Vec::new();
    for (name, program) in spin_programs() {
        for (label, base) in spin_trie_configs() {
            for min_capture_gain in [0, SnapshotOptions::default().min_capture_gain] {
                let options = SnapshotOptions {
                    min_capture_gain,
                    ..SnapshotOptions::with_mode(SnapshotMode::PrefixTrie)
                };
                let entry = EntryCache::new(options);
                let mut stats: Vec<[u64; 5]> = Vec::new();
                for pair in predicted(&program) {
                    let trie = PairCache::new(entry.clone());
                    for seed in SPIN_SEEDS {
                        let config = FuzzConfig {
                            seed,
                            ..base.clone()
                        };
                        let expected = frozen_loop(&program, &pair_set(pair), &config);
                        let actual =
                            fuzz_pair_once_cached(&program, "main", pair, &config, Some(&trie))
                                .expect("entry resolves");
                        assert_eq!(
                            format!("{actual:?}"),
                            format!("{expected:?}"),
                            "{name}: {pair:?} seed {seed} under the trie ({label}, gain \
                             {min_capture_gain}) diverges from the frozen loop"
                        );
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
                let _ = writeln!(
                    table,
                    "    ({name:?}, {label:?}, {min_capture_gain}, &{stats:?}),"
                );
                observed.push((name.clone(), label.clone(), min_capture_gain, stats));
            }
        }
    }
    let expected: Vec<(String, String, u64, Vec<[u64; 5]>)> = EXPECTED_SPIN_TRIE_STATS
        .iter()
        .map(|&(name, label, gain, stats)| {
            (name.to_owned(), label.to_owned(), gain, stats.to_vec())
        })
        .collect();
    assert!(
        observed == expected,
        "spin-window trie statistics differ from the recorded ones; observed:\n{table}"
    );
}

/// Iterations of the local warm-up in [`long_warmup_source`].
const LONG_WARMUP: u64 = 50_000;

/// A `main` that runs a local warm-up of [`LONG_WARMUP`] iterations, with
/// or without an allocation in each, before it spawns two workers that
/// race on `hits` and `last`. Every resume from its prologue, and every
/// trie walk past it, discards hundreds of thousands of RNG draws: far
/// above the count where `Rng::discard` stops stepping and jumps. Each
/// worker's local loop after its racy write is long enough for the trie to
/// capture there.
fn long_warmup_source(allocating: bool) -> String {
    let alloc = if allocating { "pad = new Pad;" } else { "" };
    format!(
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
            while (i < {LONG_WARMUP}) {{
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
    )
}

/// Seeds per long-warm-up pair.
const LONG_WARMUP_SEEDS: [u64; 4] = [1, 2, 3, 4];

/// Per long-warm-up program (local, then allocating): the `SnapshotStats`
/// of each predicted pair after two passes of the [`LONG_WARMUP_SEEDS`]
/// trials under `PrefixTrie`, as `[trials, cache_hits,
/// fast_forwarded_steps, captures, evictions]`. Recorded by this test
/// while `Rng::discard` still stepped one draw at a time.
#[rustfmt::skip]
const EXPECTED_LONG_WARMUP_TRIE_STATS: &[(&str, &[[u64; 5]])] = &[
    ("local warm-up", &[[8, 8, 1605020, 15, 0], [8, 8, 1602848, 11, 0], [8, 8, 1600032, 0, 0]]),
    ("allocating warm-up", &[[8, 8, 2400032, 26, 18], [8, 8, 2400032, 24, 16], [8, 8, 2400032, 0, 0]]),
];

/// Long warm-ups under all three snapshot modes: resumes and trie walks
/// jump the generator past the warm-up's draws, and every outcome must
/// still be the frozen loop's, with the trie statistics the stepping
/// generator produced.
#[test]
fn long_warmup_pairs_match_the_frozen_loop() {
    let mut table = String::new();
    let mut observed: Vec<(&str, Vec<[u64; 5]>)> = Vec::new();
    for (name, allocating) in [("local warm-up", false), ("allocating warm-up", true)] {
        let program = cil::compile(&long_warmup_source(allocating)).expect("fixture compiles");
        let entries =
            SnapshotMode::ALL.map(|mode| EntryCache::new(SnapshotOptions::with_mode(mode)));
        let mut stats: Vec<[u64; 5]> = Vec::new();
        for pair in predicted(&program) {
            let [off, prologue, trie] = entries.clone().map(PairCache::new);
            let expected: Vec<String> = LONG_WARMUP_SEEDS
                .iter()
                .map(|&seed| {
                    let config = FuzzConfig::seeded(seed);
                    format!("{:?}", frozen_loop(&program, &pair_set(pair), &config))
                })
                .collect();
            // The second pass resumes each seed from the deepest snapshot
            // on its own path, past the first non-forced choice.
            let passes = [vec![&off, &prologue, &trie], vec![&trie]];
            for (pass, caches) in passes.iter().enumerate() {
                for (&seed, expected) in LONG_WARMUP_SEEDS.iter().zip(&expected) {
                    let config = FuzzConfig::seeded(seed);
                    for cache in caches {
                        let actual =
                            fuzz_pair_once_cached(&program, "main", pair, &config, Some(cache))
                                .expect("entry resolves");
                        assert_eq!(
                            &format!("{actual:?}"),
                            expected,
                            "{name}: {pair:?} seed {seed} (pass {pass}) under {:?} diverges \
                             from the frozen loop",
                            cache.options().mode
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Generated programs on every predicted pair, with the default and a
    /// one-decision livelock monitor.
    #[test]
    fn generated_programs_match_the_frozen_loop(
        (source, _) in arb_program(2, true),
        seed in 0u64..1_000
    ) {
        let program = cil::compile(&source).expect("generated source compiles");
        for pair in predicted(&program) {
            for postpone_limit in [1, FuzzConfig::default().postpone_limit] {
                let config = FuzzConfig { seed, postpone_limit, ..FuzzConfig::default() };
                assert_matches("generated", &program, &pair_set(pair), &config);
            }
        }
    }
}
