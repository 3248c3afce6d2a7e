//! Phase-2 trial execution: a work-stealing pool over (pair, seed-range)
//! chunks.
//!
//! The paper's §1 observes that "since different invocations of RaceFuzzer
//! are independent of each other, performance of RaceFuzzer can be
//! increased linearly with the number of processors or cores". This module
//! makes that concrete: one compiled [`cil::Program`] (now `Send + Sync`)
//! is shared by every worker, the (pair, trial) space is cut into chunks on
//! a shared queue, and idle workers steal the next chunk with an atomic
//! cursor — no worker ever waits on another. A sequential run is the
//! one-worker share of the same work: with one worker the pool runs on the
//! calling thread and spawns nothing.
//!
//! **Determinism.** Trial `i` of a pair always runs with seed
//! `base_seed + i` no matter which worker executes it, and each chunk folds
//! its trials into a partial [`PairReport`] in seed order. After the pool
//! joins, partials are merged ([`PairReport::merge`]) in chunk order —
//! chunks cover ascending, disjoint seed ranges — so the final report is
//! byte-identical to the trial-by-trial fold regardless of worker count or
//! steal order. The determinism test suite asserts exactly this for
//! workers ∈ {1, 2, 4, 7} over every Table-1 workload.

use crate::algorithm::{fuzz_once_session, TrialScratch};
use crate::config::FuzzConfig;
use crate::runner::PairReport;
use crate::snapshot::PairCache;
use detector::RacePair;
use interp::SetupError;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Maximum trials per work unit. Small chunks steal better when pairs
/// have wildly different per-trial costs; large chunks amortise queue
/// traffic.
const CHUNK: usize = 32;

/// Sizing of the Phase-2 worker pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelOptions {
    /// OS threads running trials. `0` or `1` runs the pool's one worker on
    /// the calling thread: no thread is spawned.
    pub workers: usize,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions { workers: 1 }
    }
}

impl ParallelOptions {
    /// A pool of `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        ParallelOptions { workers }
    }

    /// One worker per available core.
    pub fn auto() -> Self {
        Self::with_workers(
            std::thread::available_parallelism()
                .map(|cores| cores.get())
                .unwrap_or(1),
        )
    }
}

/// One stealable work unit: trials `start..end` of `targets[slot]`.
struct Chunk {
    slot: usize,
    start: usize,
    end: usize,
}

/// Fuzzes every target `trials` times, returning one [`PairReport`] per
/// target (parallel to `targets`). This is the only Phase-2 pair loop:
/// [`crate::analyze`] and [`crate::fuzz_pair`] both run through it.
///
/// With optional per-pair snapshot caches (parallel to `targets`), every
/// worker forks from the pair's shared entry prologue and bumps its atomic
/// statistics, while scratch interpreter state stays worker-local. Reports
/// are byte-identical to the cache-less trial-by-trial fold at any worker
/// count; the caches only add the advisory [`PairReport::snapshots`]
/// statistics.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` does not name a zero-argument
/// procedure.
///
/// # Panics
///
/// A panicking trial panics the pool: the payload is resent on the calling
/// thread ([`std::panic::resume_unwind`]), so drivers that isolate panics
/// (the `campaign` crate) observe them at any worker count.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fuzz_pairs(
    program: &cil::Program,
    entry: &str,
    targets: &[RacePair],
    trials: usize,
    base_seed: u64,
    template: &FuzzConfig,
    options: &ParallelOptions,
    caches: Option<&[Arc<PairCache>]>,
) -> Result<Vec<PairReport>, SetupError> {
    fuzz_chunks(
        program,
        entry,
        targets,
        trials,
        base_seed,
        template,
        options.workers,
        CHUNK,
        caches,
    )
}

/// [`fuzz_pairs`] with the chunk size as a parameter, so tests can force
/// ragged seed ranges.
#[allow(clippy::too_many_arguments)]
fn fuzz_chunks(
    program: &cil::Program,
    entry: &str,
    targets: &[RacePair],
    trials: usize,
    base_seed: u64,
    template: &FuzzConfig,
    workers: usize,
    chunk_size: usize,
    caches: Option<&[Arc<PairCache>]>,
) -> Result<Vec<PairReport>, SetupError> {
    debug_assert!(caches.is_none_or(|caches| caches.len() == targets.len()));
    debug_assert!(
        targets.iter().all(|target| target
            .instrs()
            .iter()
            .all(|&instr| program.instr(instr).is_memory_access())),
        "race set statements must be shared-memory accesses"
    );
    let mut chunks = Vec::new();
    for slot in 0..targets.len() {
        let mut start = 0;
        while start < trials {
            let end = (start + chunk_size).min(trials);
            chunks.push(Chunk { slot, start, end });
            start = end;
        }
    }

    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut completed = Vec::new();
        // Worker-local interpreter scratch, reused across every chunk this
        // worker steals.
        let mut scratch = TrialScratch::new();
        loop {
            // The steal: an atomic fetch-add over the shared queue.
            // Whichever worker drains its chunk first takes the next one.
            let index = cursor.fetch_add(1, Ordering::Relaxed);
            let Some(chunk) = chunks.get(index) else {
                break;
            };
            let target = targets[chunk.slot];
            let cache = caches.map(|caches| &*caches[chunk.slot]);
            let race_set: BTreeSet<cil::flat::InstrId> = target.instrs().into_iter().collect();
            let mut partial = PairReport::empty(target);
            let mut failed = None;
            for trial in chunk.start..chunk.end {
                let seed = base_seed + trial as u64;
                let config = FuzzConfig {
                    seed,
                    ..template.clone()
                };
                match fuzz_once_session(
                    program,
                    entry,
                    &race_set,
                    &config,
                    cache,
                    Some(&mut scratch),
                ) {
                    Ok(outcome) => partial.absorb(seed, &outcome, program),
                    Err(error) => {
                        failed = Some(error);
                        break;
                    }
                }
            }
            let stop = failed.is_some();
            completed.push((index, failed.map_or(Ok(partial), Err)));
            if stop {
                // Every chunk below this one is claimed and runs to its
                // end, so the merge reaches the first failure in chunk
                // order before any chunk left unclaimed.
                break;
            }
        }
        completed
    };
    let worker_count = workers.max(1).min(chunks.len().max(1));
    let worker_results: Vec<Vec<(usize, Result<PairReport, SetupError>)>> = if worker_count == 1 {
        vec![worker()]
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..worker_count).map(|_| scope.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|handle| match handle.join() {
                    Ok(results) => results,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        })
    };

    // Deterministic merge: chunk partials are folded in global chunk order.
    // Chunks of one pair cover ascending disjoint seed ranges, so this is
    // the trial-by-trial fold in seed order.
    let mut by_chunk: Vec<Option<Result<PairReport, SetupError>>> =
        (0..chunks.len()).map(|_| None).collect();
    for (index, result) in worker_results.into_iter().flatten() {
        by_chunk[index] = Some(result);
    }
    let mut reports: Vec<PairReport> = targets
        .iter()
        .map(|&target| PairReport::empty(target))
        .collect();
    for (chunk, slot_result) in chunks.iter().zip(by_chunk) {
        match slot_result.expect("every chunk before the first failure ran") {
            Ok(partial) => reports[chunk.slot].merge(&partial),
            Err(error) => return Err(error),
        }
    }
    // Advisory snapshot statistics, attached after the deterministic merge
    // (they are excluded from report identity).
    if let Some(caches) = caches {
        for (report, cache) in reports.iter_mut().zip(caches) {
            report.snapshots = Some(cache.stats());
        }
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{EntryCache, SnapshotOptions};
    use crate::{fuzz_pair_once, gather_candidates, CandidateSource};

    #[test]
    fn auto_sizes_at_least_one_worker() {
        assert_eq!(ParallelOptions::default(), ParallelOptions::with_workers(1));
        assert!(ParallelOptions::auto().workers >= 1);
    }

    /// A chunk of 3 never divides 8 trials evenly: every pair gets chunks
    /// of 3 + 3 + 2, so the merge handles ragged tails on every pair, at
    /// one worker (on the calling thread) and across thread pools.
    #[test]
    fn ragged_chunks_match_the_per_trial_fold_at_every_worker_count() {
        const TRIALS: usize = 8;
        const BASE_SEED: u64 = 1;
        let template = FuzzConfig::default();
        for workloads::Workload {
            name,
            program,
            entry,
            ..
        } in workloads::all()
        {
            let (targets, _) = gather_candidates(
                &program,
                entry,
                &Default::default(),
                CandidateSource::DynamicPhase1,
            )
            .expect("prediction succeeds");
            assert!(!targets.is_empty(), "{name}: no pair to fuzz");
            let expected: Vec<String> = targets
                .iter()
                .map(|&target| {
                    let mut report = PairReport::empty(target);
                    for trial in 0..TRIALS {
                        let seed = BASE_SEED + trial as u64;
                        let config = FuzzConfig {
                            seed,
                            ..template.clone()
                        };
                        let outcome =
                            fuzz_pair_once(&program, entry, target, &config).expect("trial runs");
                        report.absorb(seed, &outcome, &program);
                    }
                    format!("{report:#?}")
                })
                .collect();
            let mut first_stats = None;
            for workers in [1, 2, 4, 7] {
                let shared = EntryCache::new(SnapshotOptions::default());
                let caches: Vec<Arc<PairCache>> = targets
                    .iter()
                    .map(|_| PairCache::new(Arc::clone(&shared)))
                    .collect();
                for caches in [None, Some(&caches[..])] {
                    let reports = fuzz_chunks(
                        &program, entry, &targets, TRIALS, BASE_SEED, &template, workers, 3, caches,
                    )
                    .expect("pool runs");
                    let rendered: Vec<String> = reports
                        .iter()
                        .map(|report| format!("{report:#?}"))
                        .collect();
                    assert_eq!(
                        rendered,
                        expected,
                        "{name} workers={workers} cached={}",
                        caches.is_some()
                    );
                    if caches.is_some() {
                        let stats: Vec<_> = reports.iter().map(|report| report.snapshots).collect();
                        assert!(stats.iter().all(Option::is_some));
                        assert_eq!(
                            *first_stats.get_or_insert(stats.clone()),
                            stats,
                            "{name} workers={workers}"
                        );
                    }
                }
            }
        }
    }
}
