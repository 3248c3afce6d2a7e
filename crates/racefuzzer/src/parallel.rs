//! Parallel Phase-2 trial execution: a work-stealing pool over
//! (pair, seed-range) chunks.
//!
//! The paper's §1 observes that "since different invocations of RaceFuzzer
//! are independent of each other, performance of RaceFuzzer can be
//! increased linearly with the number of processors or cores". This module
//! makes that concrete: one compiled [`cil::Program`] (now `Send + Sync`)
//! is shared by every worker, the (pair, trial) space is cut into chunks on
//! a shared queue, and idle workers steal the next chunk with an atomic
//! cursor — no worker ever waits on another.
//!
//! **Determinism.** Trial `i` of a pair always runs with seed
//! `base_seed + i` no matter which worker executes it, and each chunk folds
//! its trials into a partial [`PairReport`] in seed order. After the pool
//! joins, partials are merged ([`PairReport::merge`]) in chunk order —
//! chunks cover ascending, disjoint seed ranges — so the final report is
//! byte-identical to the sequential fold regardless of worker count or
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

/// Sizing of the Phase-2 worker pool.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ParallelOptions {
    /// OS threads running trials. `0` or `1` means sequential execution on
    /// the calling thread (the exact pre-existing code path — no pool, no
    /// queue, no merge).
    pub workers: usize,
    /// Maximum trials per work unit. Small chunks steal better when pairs
    /// have wildly different per-trial costs; large chunks amortise queue
    /// traffic. `0` means one chunk per pair.
    pub chunk: usize,
}

impl Default for ParallelOptions {
    fn default() -> Self {
        ParallelOptions {
            workers: 1,
            chunk: 32,
        }
    }
}

impl ParallelOptions {
    /// A pool of `workers` threads with the default chunk size.
    pub fn with_workers(workers: usize) -> Self {
        ParallelOptions {
            workers,
            ..Self::default()
        }
    }

    /// One worker per available core.
    pub fn auto() -> Self {
        Self::with_workers(
            std::thread::available_parallelism()
                .map(|cores| cores.get())
                .unwrap_or(1),
        )
    }

    /// `true` when a pool (rather than the sequential path) will run.
    pub fn is_parallel(&self) -> bool {
        self.workers > 1
    }

    fn chunk_size(&self, trials: usize) -> usize {
        if self.chunk == 0 {
            trials.max(1)
        } else {
            self.chunk
        }
    }
}

/// One stealable work unit: trials `start..end` of `targets[slot]`.
struct Chunk {
    slot: usize,
    start: usize,
    end: usize,
}

/// Fuzzes every target `trials` times across a worker pool, returning one
/// [`PairReport`] per target (parallel to `targets`).
///
/// Reports are byte-identical to running [`crate::fuzz_pair`] on each
/// target sequentially with the same `base_seed` and `template`.
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
/// (the `campaign` crate) observe them exactly as on the sequential path.
pub fn fuzz_pairs_parallel(
    program: &cil::Program,
    entry: &str,
    targets: &[RacePair],
    trials: usize,
    base_seed: u64,
    template: &FuzzConfig,
    options: &ParallelOptions,
) -> Result<Vec<PairReport>, SetupError> {
    fuzz_pairs_parallel_cached(
        program, entry, targets, trials, base_seed, template, options, None,
    )
}

/// [`fuzz_pairs_parallel`] with optional per-pair snapshot caches
/// (parallel to `targets`). Every worker forks from the pair's shared
/// entry prologue and bumps its atomic statistics, while scratch
/// interpreter state stays worker-local. Reports are still byte-identical
/// to the sequential, cache-less fold; the caches only add the advisory
/// [`PairReport::snapshots`] statistics.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fuzz_pairs_parallel_cached(
    program: &cil::Program,
    entry: &str,
    targets: &[RacePair],
    trials: usize,
    base_seed: u64,
    template: &FuzzConfig,
    options: &ParallelOptions,
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
    let chunk_size = options.chunk_size(trials);
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
    let worker_count = options.workers.max(1).min(chunks.len().max(1));
    let worker_results: Vec<Vec<(usize, Result<PairReport, SetupError>)>> =
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..worker_count)
                .map(|_| {
                    scope.spawn(|| {
                        let mut completed = Vec::new();
                        // Worker-local interpreter scratch, reused across
                        // every chunk this worker steals.
                        let mut scratch = TrialScratch::new();
                        loop {
                            // The steal: an atomic fetch-add over the shared
                            // queue. Whichever worker drains its chunk first
                            // takes the next one.
                            let index = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(chunk) = chunks.get(index) else {
                                break;
                            };
                            let target = targets[chunk.slot];
                            let cache = caches.map(|caches| &*caches[chunk.slot]);
                            let race_set: BTreeSet<cil::flat::InstrId> =
                                target.instrs().into_iter().collect();
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
                            completed.push((
                                index,
                                match failed {
                                    None => Ok(partial),
                                    Some(error) => Err(error),
                                },
                            ));
                        }
                        completed
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| match handle.join() {
                    Ok(results) => results,
                    Err(payload) => std::panic::resume_unwind(payload),
                })
                .collect()
        });

    // Deterministic merge: chunk partials are folded in global chunk order.
    // Chunks of one pair cover ascending disjoint seed ranges, so this is
    // the same fold the sequential path performs trial by trial.
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
        match slot_result.expect("the pool drained every chunk") {
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

    #[test]
    fn chunk_size_zero_means_one_chunk_per_pair() {
        let options = ParallelOptions {
            workers: 4,
            chunk: 0,
        };
        assert_eq!(options.chunk_size(100), 100);
        assert_eq!(options.chunk_size(0), 1);
    }

    #[test]
    fn sequential_options_are_not_parallel() {
        assert!(!ParallelOptions::default().is_parallel());
        assert!(!ParallelOptions::with_workers(0).is_parallel());
        assert!(ParallelOptions::with_workers(2).is_parallel());
        assert!(ParallelOptions::auto().workers >= 1);
    }
}
