//! The two-phase driver: predict races, then fuzz each predicted pair.
//!
//! This is the experimental protocol of the paper's §5: run Phase 1 once to
//! get potential racing pairs, then invoke the Phase 2 scheduler ~100 times
//! per pair with different seeds, recording how often the race is actually
//! created (Table 1's "probability of hitting a race"), which pairs turn
//! out real, and which raise exceptions.

use crate::algorithm::{fuzz_once_session, TrialScratch};
use crate::config::FuzzConfig;
use crate::parallel::{fuzz_pairs_parallel_cached, ParallelOptions};
use crate::snapshot::{EntryCache, PairCache, SnapshotMode, SnapshotOptions, SnapshotStats};
use detector::{predict_races_with_prologue, PredictConfig, RacePair};
use interp::{run_with, Limits, NullObserver, Prologue, RandomScheduler, SetupError};
use sana::{PruneReason, StaticRaceFilter};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Where Phase 2's candidate pairs come from.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CandidateSource {
    /// The paper's protocol: the dynamic hybrid detector's predictions
    /// from profiling runs (Phase 1).
    #[default]
    DynamicPhase1,
    /// The static candidate generator only — no profiling run at all;
    /// pairs are every statically unrefutable conflicting access pair.
    Static,
    /// Dynamic predictions first (in prediction order), then the static
    /// candidates the profiling run missed.
    Union,
}

impl CandidateSource {
    /// Stable machine-readable tag (used in artifacts and checkpoints).
    pub fn tag(&self) -> &'static str {
        match self {
            CandidateSource::DynamicPhase1 => "dynamic-phase1",
            CandidateSource::Static => "static",
            CandidateSource::Union => "union",
        }
    }

    /// Parses a [`CandidateSource::tag`] back.
    pub fn from_tag(tag: &str) -> Option<CandidateSource> {
        match tag {
            "dynamic-phase1" => Some(CandidateSource::DynamicPhase1),
            "static" => Some(CandidateSource::Static),
            "union" => Some(CandidateSource::Union),
            _ => None,
        }
    }
}

/// Which phase(s) proposed a candidate pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Provenance {
    /// Predicted by the dynamic Phase-1 detector only.
    #[default]
    Dynamic,
    /// Generated by the static analysis only.
    Static,
    /// Proposed by both phases independently.
    Both,
}

impl Provenance {
    /// Stable machine-readable tag (used in artifacts and checkpoints).
    pub fn tag(&self) -> &'static str {
        match self {
            Provenance::Dynamic => "dynamic",
            Provenance::Static => "static",
            Provenance::Both => "both",
        }
    }

    /// Parses a [`Provenance::tag`] back.
    pub fn from_tag(tag: &str) -> Option<Provenance> {
        match tag {
            "dynamic" => Some(Provenance::Dynamic),
            "static" => Some(Provenance::Static),
            "both" => Some(Provenance::Both),
            _ => None,
        }
    }
}

/// Options for [`analyze`].
#[derive(Clone, Debug)]
pub struct AnalyzeOptions {
    /// Phase-1 (prediction) configuration.
    pub predict: PredictConfig,
    /// RaceFuzzer trials per predicted pair (the paper uses 100).
    pub trials_per_pair: usize,
    /// Seed of the first trial; trial `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Template for each trial's scheduler configuration (its `seed` field
    /// is overwritten per trial).
    pub fuzz: FuzzConfig,
    /// Run the `sana` static pre-analysis between the phases and skip
    /// Phase-2 fuzzing of statically refuted pairs.
    pub static_prune: bool,
    /// Where candidate pairs come from (dynamic Phase 1 by default).
    pub source: CandidateSource,
    /// Phase-2 worker-pool sizing. The default (1 worker) runs the exact
    /// sequential path; more workers fan (pair, seed-range) chunks out over
    /// a work-stealing pool with byte-identical reports.
    pub parallel: ParallelOptions,
    /// Snapshot acceleration ([`SnapshotMode::PrologueOnly`] by default):
    /// trials fork from a copy-on-write snapshot of the single-threaded
    /// entry prologue instead of replaying from instruction zero. Reports
    /// are byte-identical in every mode; only wall-clock changes.
    pub snapshots: SnapshotOptions,
}

impl Default for AnalyzeOptions {
    fn default() -> Self {
        AnalyzeOptions {
            predict: PredictConfig::default(),
            trials_per_pair: 100,
            base_seed: 1,
            fuzz: FuzzConfig::default(),
            static_prune: false,
            source: CandidateSource::default(),
            parallel: ParallelOptions::default(),
            snapshots: SnapshotOptions::default(),
        }
    }
}

impl AnalyzeOptions {
    /// Like the default, but with `trials` RaceFuzzer runs per pair.
    pub fn with_trials(trials: usize) -> Self {
        AnalyzeOptions {
            trials_per_pair: trials,
            ..Self::default()
        }
    }

    /// Builder-style: run Phase 2 on a pool of `workers` threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.parallel.workers = workers;
        self
    }

    /// Builder-style: select where candidate pairs come from.
    pub fn source(mut self, source: CandidateSource) -> Self {
        self.source = source;
        self
    }

    /// Builder-style: select the snapshot-acceleration mode.
    pub fn snapshot_mode(mut self, mode: SnapshotMode) -> Self {
        self.snapshots.mode = mode;
        self
    }
}

/// Collects Phase-2 candidate pairs from the configured source, with a
/// parallel provenance vector.
///
/// - [`CandidateSource::DynamicPhase1`] — `predict_races` output in
///   prediction order, every pair [`Provenance::Dynamic`] (byte-identical
///   to the pre-`CandidateSource` behaviour);
/// - [`CandidateSource::Static`] — the `sana` candidate generator's sorted
///   output, no profiling run, every pair [`Provenance::Static`];
/// - [`CandidateSource::Union`] — dynamic pairs first in prediction order
///   (marked [`Provenance::Both`] when the generator also proposes them),
///   then the static-only remainder in sorted order.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` does not name a zero-argument
/// procedure.
pub fn gather_candidates(
    program: &cil::Program,
    entry: &str,
    predict: &PredictConfig,
    source: CandidateSource,
) -> Result<(Vec<RacePair>, Vec<Provenance>), SetupError> {
    gather(program, entry, predict, source)
        .map(|(potential, provenance, _)| (potential, provenance))
}

/// Candidate pairs, their provenance, and the entry prologue Phase 1
/// passed through.
type Gathered = (Vec<RacePair>, Vec<Provenance>, Option<Prologue>);

/// [`gather_candidates`], plus the entry prologue Phase 1 passed through
/// when it ran ([`detector::predict_races_with_prologue`]).
fn gather(
    program: &cil::Program,
    entry: &str,
    predict: &PredictConfig,
    source: CandidateSource,
) -> Result<Gathered, SetupError> {
    let static_report = |entry: &str| -> Result<sana::StaticCandidateReport, SetupError> {
        let proc = program
            .proc_named(entry)
            .ok_or_else(|| SetupError::NoSuchProc(entry.to_owned()))?;
        let params = program.procs[proc.index()].param_count;
        if params > 0 {
            // The fuzzing phase invokes the entry with no arguments, so
            // fail as early (and with the same error) as the dynamic path.
            return Err(SetupError::EntryHasParams(entry.to_owned(), params));
        }
        Ok(sana::candidates::generate_for_entry(program, proc))
    };
    match source {
        CandidateSource::DynamicPhase1 => {
            let (potential, prologue) = predict_races_with_prologue(program, entry, predict)?;
            let provenance = vec![Provenance::Dynamic; potential.len()];
            Ok((potential, provenance, prologue))
        }
        CandidateSource::Static => {
            let report = static_report(entry)?;
            let provenance = vec![Provenance::Static; report.candidates.len()];
            Ok((report.candidates, provenance, None))
        }
        CandidateSource::Union => {
            let (dynamic, prologue) = predict_races_with_prologue(program, entry, predict)?;
            let report = static_report(entry)?;
            let dynamic_set: BTreeSet<RacePair> = dynamic.iter().copied().collect();
            let mut potential = Vec::new();
            let mut provenance = Vec::new();
            for pair in dynamic {
                provenance.push(if report.contains(&pair) {
                    Provenance::Both
                } else {
                    Provenance::Dynamic
                });
                potential.push(pair);
            }
            for pair in report.candidates {
                if !dynamic_set.contains(&pair) {
                    potential.push(pair);
                    provenance.push(Provenance::Static);
                }
            }
            Ok((potential, provenance, prologue))
        }
    }
}

/// Statistics from fuzzing one predicted pair.
#[derive(Clone)]
pub struct PairReport {
    /// The pair handed to the scheduler.
    pub target: RacePair,
    /// Trials run.
    pub trials: usize,
    /// Trials in which a real race was created.
    pub hits: usize,
    /// Distinct statement pairs actually brought into a race (subsets of
    /// the target's statements; may include same-statement pairs).
    pub real_pairs: BTreeSet<RacePair>,
    /// Trials in which at least one thread died of an exception.
    pub exception_trials: usize,
    /// Exception name → number of trials in which it killed a thread. Keys
    /// are the program's interned name strings shared by refcount
    /// (`Arc<str>`), not per-trial copies — [`PairReport::absorb`] runs on
    /// the trial hot path.
    pub exceptions: BTreeMap<Arc<str>, usize>,
    /// Trials that ended in a real deadlock.
    pub deadlock_trials: usize,
    /// Trials cut off by the heap-cell budget
    /// ([`FuzzConfig::max_heap_cells`]) — counted apart from harness
    /// failures because they are a property of the program under test.
    pub memory_trials: usize,
    /// Seed of the first race-creating trial (for replay).
    pub first_hit_seed: Option<u64>,
    /// Seed of the first exception-raising trial (for replay).
    pub first_exception_seed: Option<u64>,
    /// Snapshot-cache statistics for this pair, when acceleration ran.
    ///
    /// **Advisory**: it says how the trials ran, not what they found, so
    /// this field is excluded from the report's `Debug` output (which the
    /// determinism suites compare) and from campaign checkpoints.
    pub snapshots: Option<SnapshotStats>,
}

impl fmt::Debug for PairReport {
    // Manual impl: everything except the advisory `snapshots` field, so
    // `{:#?}`-based identity oracles see only semantic content.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PairReport")
            .field("target", &self.target)
            .field("trials", &self.trials)
            .field("hits", &self.hits)
            .field("real_pairs", &self.real_pairs)
            .field("exception_trials", &self.exception_trials)
            .field("exceptions", &self.exceptions)
            .field("deadlock_trials", &self.deadlock_trials)
            .field("memory_trials", &self.memory_trials)
            .field("first_hit_seed", &self.first_hit_seed)
            .field("first_exception_seed", &self.first_exception_seed)
            .finish()
    }
}

impl PairReport {
    /// A report for `target` with no trials absorbed yet.
    pub fn empty(target: RacePair) -> Self {
        PairReport {
            target,
            trials: 0,
            hits: 0,
            real_pairs: BTreeSet::new(),
            exception_trials: 0,
            exceptions: BTreeMap::new(),
            deadlock_trials: 0,
            memory_trials: 0,
            first_hit_seed: None,
            first_exception_seed: None,
            snapshots: None,
        }
    }

    /// Folds one trial's outcome into the running statistics.
    ///
    /// [`fuzz_pair`] calls this once per trial; incremental drivers (e.g.
    /// a checkpointing campaign) call it as each trial completes, in seed
    /// order, and get byte-identical reports.
    pub fn absorb(&mut self, seed: u64, outcome: &crate::FuzzOutcome, program: &cil::Program) {
        self.trials += 1;
        if outcome.race_created() {
            self.hits += 1;
            self.real_pairs.extend(outcome.real_pairs());
            self.first_hit_seed.get_or_insert(seed);
        }
        if !outcome.uncaught.is_empty() {
            self.exception_trials += 1;
            self.first_exception_seed.get_or_insert(seed);
            let mut names: BTreeSet<Arc<str>> = BTreeSet::new();
            for exception in &outcome.uncaught {
                names.insert(program.name_shared(exception.name));
            }
            for name in names {
                *self.exceptions.entry(name).or_insert(0) += 1;
            }
        }
        if outcome.deadlocked() {
            self.deadlock_trials += 1;
        }
        if outcome.memory_limited() {
            self.memory_trials += 1;
        }
    }

    /// Estimated probability that a trial creates the race (Table 1,
    /// column 11).
    pub fn hit_probability(&self) -> f64 {
        if self.trials == 0 {
            0.0
        } else {
            self.hits as f64 / self.trials as f64
        }
    }

    /// `true` if the pair was confirmed real (raced in some trial).
    pub fn is_real(&self) -> bool {
        self.hits > 0
    }

    /// Folds a partial report covering **later seeds** into this one.
    ///
    /// The parallel executor absorbs each (pair, seed-range) chunk into its
    /// own partial report, then merges the partials in ascending seed-range
    /// order; because every statistic is either order-insensitive (counts,
    /// sets) or first-seed-wins (`first_hit_seed`), the merged report is
    /// byte-identical to absorbing every trial sequentially.
    pub fn merge(&mut self, later: &PairReport) {
        debug_assert_eq!(
            self.target, later.target,
            "merging reports of different pairs"
        );
        self.trials += later.trials;
        self.hits += later.hits;
        self.real_pairs.extend(later.real_pairs.iter().copied());
        self.exception_trials += later.exception_trials;
        for (name, count) in &later.exceptions {
            *self.exceptions.entry(Arc::clone(name)).or_insert(0) += count;
        }
        self.deadlock_trials += later.deadlock_trials;
        self.memory_trials += later.memory_trials;
        if self.first_hit_seed.is_none() {
            self.first_hit_seed = later.first_hit_seed;
        }
        if self.first_exception_seed.is_none() {
            self.first_exception_seed = later.first_exception_seed;
        }
        match (&mut self.snapshots, &later.snapshots) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (mine @ None, Some(theirs)) => *mine = Some(*theirs),
            _ => {}
        }
    }
}

/// The full report of a two-phase analysis.
#[derive(Clone, Debug)]
pub struct AnalysisReport {
    /// Phase-1 output: potential racing pairs (Table 1, "Hybrid # races").
    pub potential: Vec<RacePair>,
    /// Which phase proposed each pair, parallel to `potential`.
    pub provenance: Vec<Provenance>,
    /// Per-pair Phase-2 statistics, parallel to `potential`. A statically
    /// pruned pair keeps its slot with an empty (zero-trial) report.
    pub pairs: Vec<PairReport>,
    /// Pairs refuted by the static pre-analysis (empty unless
    /// [`AnalyzeOptions::static_prune`] was set), with the refutation
    /// reason.
    pub pruned: Vec<(RacePair, PruneReason)>,
}

impl AnalysisReport {
    /// Pairs confirmed real by Phase 2 (Table 1, "RF (real)").
    pub fn real_races(&self) -> Vec<RacePair> {
        self.pairs
            .iter()
            .filter(|pair| pair.is_real())
            .map(|pair| pair.target)
            .collect()
    }

    /// Distinct target pairs whose fuzzing raised an exception (Table 1,
    /// "# of Exceptions RF").
    pub fn exception_pairs(&self) -> Vec<RacePair> {
        self.pairs
            .iter()
            .filter(|pair| pair.exception_trials > 0)
            .map(|pair| pair.target)
            .collect()
    }

    /// Union of exception names seen across all pairs. The shared
    /// `Arc<str>` keys still compare as plain strings
    /// (`names.contains("Error1")`).
    pub fn exception_names(&self) -> BTreeSet<Arc<str>> {
        self.pairs
            .iter()
            .flat_map(|pair| pair.exceptions.keys().cloned())
            .collect()
    }

    /// Target pairs whose fuzzing produced a real deadlock.
    pub fn deadlock_pairs(&self) -> Vec<RacePair> {
        self.pairs
            .iter()
            .filter(|pair| pair.deadlock_trials > 0)
            .map(|pair| pair.target)
            .collect()
    }

    /// Mean per-real-pair hit probability (Table 1, column 11); `None` if
    /// no pair is real.
    pub fn mean_hit_probability(&self) -> Option<f64> {
        let real: Vec<&PairReport> = self.pairs.iter().filter(|pair| pair.is_real()).collect();
        if real.is_empty() {
            return None;
        }
        Some(real.iter().map(|pair| pair.hit_probability()).sum::<f64>() / real.len() as f64)
    }
}

/// Fuzzes one predicted pair `trials` times with consecutive seeds.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` does not name a zero-argument
/// procedure.
pub fn fuzz_pair(
    program: &cil::Program,
    entry: &str,
    target: RacePair,
    trials: usize,
    base_seed: u64,
    template: &FuzzConfig,
) -> Result<PairReport, SetupError> {
    fuzz_pair_with(program, entry, target, trials, base_seed, template, None)
}

/// [`fuzz_pair`] with an optional snapshot cache; one [`TrialScratch`] is
/// reused across all trials so even the cache-less path allocates its
/// interpreter state once instead of per trial.
pub(crate) fn fuzz_pair_with(
    program: &cil::Program,
    entry: &str,
    target: RacePair,
    trials: usize,
    base_seed: u64,
    template: &FuzzConfig,
    cache: Option<&PairCache>,
) -> Result<PairReport, SetupError> {
    debug_assert!(
        target
            .instrs()
            .iter()
            .all(|&instr| program.instr(instr).is_memory_access()),
        "race set statements must be shared-memory accesses"
    );
    let race_set: BTreeSet<cil::flat::InstrId> = target.instrs().into_iter().collect();
    let mut scratch = TrialScratch::new();
    let mut report = PairReport::empty(target);
    for trial in 0..trials {
        let seed = base_seed + trial as u64;
        let config = FuzzConfig {
            seed,
            ..template.clone()
        };
        let outcome = fuzz_once_session(
            program,
            entry,
            &race_set,
            &config,
            cache,
            Some(&mut scratch),
        )?;
        report.absorb(seed, &outcome, program);
    }
    if let Some(cache) = cache {
        report.snapshots = Some(cache.stats());
    }
    Ok(report)
}

/// What [`analyze`] settles before its first trial.
struct Plan {
    potential: Vec<RacePair>,
    provenance: Vec<Provenance>,
    /// The static filter's verdict per pair, parallel to `potential`.
    refutations: Vec<Option<PruneReason>>,
    /// The entry state every pair's cache shares, when snapshots are on.
    entry_cache: Option<Arc<EntryCache>>,
}

/// Phase 1 (or the static generator), the static filter, and the shared
/// entry cache, seeded with the prologue Phase 1 ran through so that
/// Phase 2 does not run the warm-up again.
fn plan(program: &cil::Program, entry: &str, options: &AnalyzeOptions) -> Result<Plan, SetupError> {
    let (potential, provenance, prologue) =
        gather(program, entry, &options.predict, options.source)?;
    let filter = if options.static_prune {
        StaticRaceFilter::for_entry(program, entry)
    } else {
        None
    };
    // Static refutations are decided up front (the filter is deterministic
    // and cheap); only unpruned pairs enter Phase 2, on either path.
    let refutations = potential
        .iter()
        .map(|target| filter.as_ref().and_then(|f| f.refute(program, target)))
        .collect();
    // One `EntryCache` (shared prologue) spans every pair of the run; each
    // pair gets its own `PairCache` for its statistics.
    let entry_cache = (options.snapshots.mode != SnapshotMode::Off).then(|| {
        EntryCache::with_prologue(
            options.snapshots,
            prologue,
            &options.predict.limits,
            &options.fuzz,
        )
    });
    Ok(Plan {
        potential,
        provenance,
        refutations,
        entry_cache,
    })
}

/// Runs the complete two-phase analysis: Phase 1 prediction, then Phase 2
/// fuzzing of every predicted pair.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` does not name a zero-argument
/// procedure.
pub fn analyze(
    program: &cil::Program,
    entry: &str,
    options: &AnalyzeOptions,
) -> Result<AnalysisReport, SetupError> {
    let Plan {
        potential,
        provenance,
        refutations,
        entry_cache,
    } = plan(program, entry, options)?;
    let pruned: Vec<(RacePair, PruneReason)> = potential
        .iter()
        .zip(&refutations)
        .filter_map(|(&target, reason)| reason.map(|reason| (target, reason)))
        .collect();
    let mut pairs = Vec::with_capacity(potential.len());
    if options.parallel.is_parallel() {
        let fuzzed: Vec<RacePair> = potential
            .iter()
            .zip(&refutations)
            .filter(|(_, reason)| reason.is_none())
            .map(|(&target, _)| target)
            .collect();
        let caches: Option<Vec<Arc<PairCache>>> = entry_cache.as_ref().map(|shared| {
            fuzzed
                .iter()
                .map(|_| PairCache::new(Arc::clone(shared)))
                .collect()
        });
        let mut reports = fuzz_pairs_parallel_cached(
            program,
            entry,
            &fuzzed,
            options.trials_per_pair,
            options.base_seed,
            &options.fuzz,
            &options.parallel,
            caches.as_deref(),
        )?
        .into_iter();
        for (&target, reason) in potential.iter().zip(&refutations) {
            // A pruned pair keeps its slot with an empty (zero-trial)
            // report so `pairs` stays parallel to `potential`.
            pairs.push(match reason {
                Some(_) => PairReport::empty(target),
                None => reports.next().expect("one report per fuzzed pair"),
            });
        }
    } else {
        for (&target, reason) in potential.iter().zip(&refutations) {
            if reason.is_some() {
                pairs.push(PairReport::empty(target));
                continue;
            }
            let cache = entry_cache
                .as_ref()
                .map(|shared| PairCache::new(Arc::clone(shared)));
            pairs.push(fuzz_pair_with(
                program,
                entry,
                target,
                options.trials_per_pair,
                options.base_seed,
                &options.fuzz,
                cache.as_deref(),
            )?);
        }
    }
    Ok(AnalysisReport {
        potential,
        provenance,
        pairs,
        pruned,
    })
}

/// Baseline for Table 1's "Simple" column: run `trials` plain
/// random-scheduler executions and count the trials in which each exception
/// killed a thread.
///
/// # Errors
///
/// Returns [`SetupError`] if `entry` does not name a zero-argument
/// procedure.
pub fn simple_random_exceptions(
    program: &cil::Program,
    entry: &str,
    trials: usize,
    base_seed: u64,
    limits: Limits,
) -> Result<BTreeMap<String, usize>, SetupError> {
    let mut counts = BTreeMap::new();
    for trial in 0..trials {
        let outcome = run_with(
            program,
            entry,
            &mut RandomScheduler::seeded(base_seed + trial as u64),
            &mut NullObserver,
            limits,
        )?;
        let mut names: BTreeSet<String> = BTreeSet::new();
        for exception in &outcome.uncaught {
            names.insert(program.name(exception.name).to_owned());
        }
        for name in names {
            *counts.entry(name).or_insert(0) += 1;
        }
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 20,000-iteration local warm-up, then two racing workers.
    fn long_warmup_program() -> cil::Program {
        cil::compile(
            r#"
            global hits = 0;
            proc worker(k) { hits = hits + k; }
            proc main() {
                var acc = 7;
                var i = 0;
                while (i < 20000) { acc = (acc * 31 + i) % 1000003; i = i + 1; }
                var t1 = spawn worker(1);
                var t2 = spawn worker(2);
                join t1;
                join t2;
                hits = acc;
            }
            "#,
        )
        .expect("fixture compiles")
    }

    fn prologue_ready(options: &AnalyzeOptions) -> bool {
        let plan = plan(&long_warmup_program(), "main", options).expect("plan succeeds");
        assert!(!plan.potential.is_empty(), "no pair to fuzz");
        plan.entry_cache.expect("snapshots are on").prologue_ready()
    }

    #[test]
    fn analyze_hands_the_phase1_prologue_to_its_first_trial() {
        assert!(prologue_ready(&AnalyzeOptions::with_trials(1)));
        assert!(prologue_ready(
            &AnalyzeOptions::with_trials(1).source(CandidateSource::Union)
        ));
    }

    #[test]
    fn analyze_keeps_the_prologue_lazy_when_phase1_did_not_run_it_as_phase2_would() {
        let mut heap = AnalyzeOptions::with_trials(1);
        heap.fuzz.max_heap_cells = Some(1 << 20);
        let mut steps = AnalyzeOptions::with_trials(1);
        steps.fuzz.max_steps = 1_000;
        let mut sync = AnalyzeOptions::with_trials(1);
        sync.fuzz.switch_only_at_sync = true;
        let source = AnalyzeOptions::with_trials(1).source(CandidateSource::Static);
        for options in [heap, steps, sync, source] {
            assert!(!prologue_ready(&options), "{options:?}");
        }
    }
}
