//! The three workloads and the passes that run them.
//!
//! All three are sequential: one process, one busy thread. A *pass* runs a
//! workload's whole job list once; a run repeats passes until its time is
//! up. Pass `p` fuzzes with trial seeds
//! `seed + p * trials_per_pair ..`, so consecutive passes cover disjoint
//! seed blocks and pass 0 starts at the run's seed.

use crate::gen;
use crate::stats::{self, Fnv};
use crate::trace::{SpanId, Trace};
use campaign::{
    Campaign, CampaignJob, CampaignOptions, CampaignReport, Checkpoint, FuzzRunner,
    StaticFilterMode, TrialRunner,
};
use detector::RacePair;
use interp::SetupError;
use racefuzzer::{
    analyze, fuzz_pair_once_cached, gather_candidates, AnalysisReport, AnalyzeOptions,
    CandidateSource, EntryCache, FuzzConfig, FuzzOutcome, PairCache, PairReport, SnapshotStats,
};
use sana::StaticRaceFilter;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `racefuzzer::analyze` over the fourteen Table-1 models with the
    /// paper's protocol: default `PredictConfig`, the default snapshot
    /// mode, no static pruning, a fixed number of trials per pair. It is
    /// the paper's own evaluation, and Phase-2 execution of realistic
    /// models is nearly all of its time, so interpreter and scheduler
    /// changes show here — and so does a snapshot policy that costs more
    /// than it skips, since the trie has little to skip on these models.
    Table1,
    /// `analyze` over seeded generated programs with a ~10^5-iteration
    /// thread-local warm-up and a short racy suffix (see `gen`). The
    /// snapshot layer skips nearly every step here, Phase 1 (which runs
    /// the whole warm-up three times, uncached) takes its largest share,
    /// and interpreter execution is small: a snapshot or detector change
    /// shows its win here and its cost on `table1`.
    LongPrologue,
    /// `Campaign::run_with`, sequential, over the six short-trial models
    /// (raytracer and the five JDK collections) with union candidates,
    /// static pruning, and checkpoint and artifact directories on local
    /// disk. The run stops at half its pairs and then resumes, so it
    /// exercises the campaign layer's durable writes (a checkpoint rewrite
    /// after every pair) and its reads (recovery scan and resume), plus
    /// `sana` and the union candidate path, while Phase 2 stays small.
    Campaign,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::Table1, Kind::LongPrologue, Kind::Campaign];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Table1 => "table1",
            Kind::LongPrologue => "long-prologue",
            Kind::Campaign => "campaign",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }
}

/// `Full` is the measured configuration; `Tiny` exists for the smoke test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// The six models whose trials are short, for the campaign workload.
const CAMPAIGN_MODELS: [&str; 6] = [
    "raytracer",
    "Vector 1.1",
    "LinkedList",
    "ArrayList",
    "HashSet",
    "TreeSet",
];

/// Models kept by the tiny sizes of `table1` and `campaign`.
const TINY_MODELS: [&str; 2] = ["raytracer", "Vector 1.1"];

/// One program's CIL source, before compilation.
#[derive(Clone)]
pub struct Source {
    pub name: String,
    pub text: String,
    pub entry: String,
}

/// Timings of one set-up.
pub struct SetupSample {
    pub total: Duration,
    pub compile: Duration,
    pub bytecode: Duration,
}

/// The Table-1 model sources this workload loads (every model, or the
/// campaign's six).
pub fn catalog(kind: Kind, size: Size) -> Vec<Source> {
    if kind == Kind::LongPrologue {
        return Vec::new();
    }
    workloads::all()
        .into_iter()
        .filter(|model| match (kind, size) {
            (_, Size::Tiny) => TINY_MODELS.contains(&model.name),
            (Kind::Campaign, Size::Full) => CAMPAIGN_MODELS.contains(&model.name),
            _ => true,
        })
        .map(|model| Source {
            name: model.name.to_owned(),
            text: model.source,
            entry: model.entry.to_owned(),
        })
        .collect()
}

/// Generates or loads the programs, then compiles each (parse, check,
/// lower) and builds its bytecode image.
pub fn setup(
    kind: Kind,
    size: Size,
    seed: u64,
    catalog: &[Source],
) -> Result<(Vec<CampaignJob>, SetupSample), String> {
    let start = Instant::now();
    let sources = match kind {
        Kind::LongPrologue => generated(seed, size),
        Kind::Table1 | Kind::Campaign => catalog.to_vec(),
    };
    let mut compile = Duration::ZERO;
    let mut bytecode = Duration::ZERO;
    let mut jobs = Vec::with_capacity(sources.len());
    for source in sources {
        let before = Instant::now();
        let program = cil::compile(&source.text)
            .map_err(|error| format!("{}: compile error: {error}", source.name))?;
        let compiled = Instant::now();
        std::hint::black_box(program.bytecode());
        bytecode += compiled.elapsed();
        compile += compiled - before;
        jobs.push(CampaignJob {
            name: source.name,
            program,
            entry: source.entry,
        });
    }
    let sample = SetupSample {
        total: start.elapsed(),
        compile,
        bytecode,
    };
    Ok((jobs, sample))
}

fn generated(seed: u64, size: Size) -> Vec<Source> {
    let sizes = match size {
        Size::Full => gen::Sizes {
            programs: 6,
            warmup: 100_000,
        },
        Size::Tiny => gen::Sizes {
            programs: 3,
            warmup: 2_000,
        },
    };
    gen::shapes(seed, sizes)
        .iter()
        .enumerate()
        .map(|(index, shape)| Source {
            name: format!("gen{index}-t{}", shape.threads),
            text: gen::render(shape, seed.wrapping_add(index as u64)),
            entry: "main".to_owned(),
        })
        .collect()
}

/// What one pass produced.
pub struct PassOutcome {
    /// FNV-1a of the reports' `Debug` form (`canonical_json` for the
    /// campaign), in job order.
    pub digest: u64,
    /// The pairs confirmed real, keyed by job index.
    pub real: BTreeSet<(usize, RacePair)>,
    /// Trials attempted (a campaign's retries included).
    pub trials: u64,
    /// Failed trials, when the pass could see trial outcomes: a budget or
    /// engine-error termination, or a campaign failure.
    pub failed: Option<u64>,
    /// The analyze reports (empty for the campaign).
    pub reports: Vec<AnalysisReport>,
    /// The campaign's canonical report (empty for analyze workloads).
    pub canonical: String,
    /// Wall and CPU time of each job (of the whole campaign), untraced
    /// passes only.
    pub job_times: Vec<(Duration, Duration)>,
}

/// Per-layer numbers of one traced pass, before aggregation.
pub struct LayerPass {
    pub metrics: BTreeMap<&'static str, f64>,
    pub trial_us: Vec<f64>,
    pub pair_ms: Vec<f64>,
}

/// Counts gathered from trial outcomes in a traced pass.
#[derive(Default)]
struct TrialCounts {
    trials: u64,
    hits: u64,
    failed: u64,
    steps: u64,
    snapshots: SnapshotStats,
}

impl TrialCounts {
    fn observe(&mut self, outcome: &FuzzOutcome) {
        self.trials += 1;
        self.hits += u64::from(outcome.race_created());
        self.failed += u64::from(outcome.termination.is_abnormal());
        self.steps += outcome.steps;
    }
}

pub struct Bench {
    pub kind: Kind,
    pub size: Size,
    pub seed: u64,
    pub trials_per_pair: usize,
    jobs: Vec<CampaignJob>,
    /// Fuzzed (unpruned) campaign pairs; the first invocation stops at half.
    stop_after: usize,
    /// Checkpoint and artifact directory of the campaign passes.
    work_dir: PathBuf,
}

impl Bench {
    pub fn new(
        kind: Kind,
        size: Size,
        seed: u64,
        jobs: Vec<CampaignJob>,
        work_dir: PathBuf,
    ) -> Result<Bench, String> {
        let trials_per_pair = match (kind, size) {
            (_, Size::Tiny) => 1,
            (Kind::Table1, Size::Full) => 5,
            (Kind::LongPrologue, Size::Full) => 4,
            (Kind::Campaign, Size::Full) => 10,
        };
        let mut bench = Bench {
            kind,
            size,
            seed,
            trials_per_pair,
            jobs,
            stop_after: 0,
            work_dir,
        };
        if kind == Kind::Campaign {
            let fuzzed = bench.candidates(None)?.fuzzed;
            bench.stop_after = (fuzzed / 2).max(1) as usize;
        }
        Ok(bench)
    }

    /// The trial base seed of pass `pass`.
    pub fn pass_seed(&self, pass: usize) -> u64 {
        self.seed
            .wrapping_add((pass as u64).wrapping_mul(self.trials_per_pair as u64))
    }

    fn analyze_options(&self, base_seed: u64) -> AnalyzeOptions {
        AnalyzeOptions {
            trials_per_pair: self.trials_per_pair,
            base_seed,
            ..AnalyzeOptions::default()
        }
    }

    fn campaign_options(&self, base_seed: u64, stop_after: Option<usize>) -> CampaignOptions {
        CampaignOptions {
            trials_per_pair: self.trials_per_pair,
            base_seed,
            source: CandidateSource::Union,
            static_filter: StaticFilterMode::Prune,
            checkpoint_path: Some(self.work_dir.join("checkpoint.json")),
            artifact_dir: Some(self.work_dir.join("artifacts")),
            stop_after_pairs: stop_after,
            ..CampaignOptions::default()
        }
    }

    /// One untraced pass: the public entry point and nothing else.
    pub fn pass(&mut self, pass: usize) -> Result<PassOutcome, String> {
        let base_seed = self.pass_seed(pass);
        match self.kind {
            Kind::Table1 | Kind::LongPrologue => {
                let options = self.analyze_options(base_seed);
                let mut reports = Vec::with_capacity(self.jobs.len());
                let mut job_times = Vec::with_capacity(self.jobs.len());
                for job in &self.jobs {
                    let clocks = Clocks::start();
                    let report = analyze(&job.program, &job.entry, &options)
                        .map_err(|error| format!("{}: {error}", job.name))?;
                    job_times.push(clocks.stop());
                    reports.push(report);
                }
                let mut outcome = self.analyze_outcome(reports, None);
                outcome.job_times = job_times;
                Ok(outcome)
            }
            Kind::Campaign => {
                let clocks = Clocks::start();
                let (_, second) = self.campaign_pass(base_seed, &FuzzRunner, None)?;
                let mut outcome = campaign_outcome(&second);
                outcome.job_times = vec![clocks.stop()];
                Ok(outcome)
            }
        }
    }

    /// One traced pass over the same inputs as [`Bench::pass`], rebuilt
    /// from the layers' public calls with a span around each.
    /// Returns the pass's wall time too: the duration of its root span.
    pub fn traced_pass(
        &mut self,
        pass: usize,
        trace: &mut Trace,
    ) -> Result<(PassOutcome, LayerPass, Duration), String> {
        let base_seed = self.pass_seed(pass);
        let root = trace.enter("pass", SpanId::default());
        let result = match self.kind {
            Kind::Table1 | Kind::LongPrologue => self.analyze_traced(base_seed, trace),
            Kind::Campaign => self.campaign_traced(base_seed, trace),
        };
        trace.exit(root);
        let (outcome, mut layer) = result?;
        if self.kind == Kind::Campaign {
            // Probed after the pass so that it does not count in its wall.
            let save_ms = checkpoint_save_ms(
                &self.work_dir.join("checkpoint.json"),
                &self.work_dir.join("save-probe.json"),
            )?;
            layer.metrics.insert("campaign.checkpoint_save_ms", save_ms);
        }
        Ok((outcome, layer, trace.spans()[root].duration()))
    }

    fn analyze_outcome(&self, reports: Vec<AnalysisReport>, failed: Option<u64>) -> PassOutcome {
        let mut digest = Fnv::default();
        for (job, report) in self.jobs.iter().zip(&reports) {
            digest.write(&job.name);
            digest.write(&format!("{report:?}"));
        }
        let real: BTreeSet<(usize, RacePair)> = reports
            .iter()
            .enumerate()
            .flat_map(|(job, report)| report.real_races().into_iter().map(move |pair| (job, pair)))
            .collect();
        let trials = reports
            .iter()
            .flat_map(|report| &report.pairs)
            .map(|pair| pair.trials as u64)
            .sum();
        PassOutcome {
            digest: digest.finish(),
            real,
            trials,
            failed,
            reports,
            canonical: String::new(),
            job_times: Vec::new(),
        }
    }

    /// `analyze`'s sequence, step by step: `gather_candidates`, one
    /// `EntryCache`, then per pair a `PairCache` and per trial
    /// `fuzz_pair_once_cached` followed by `PairReport::absorb`.
    fn analyze_traced(
        &self,
        base_seed: u64,
        trace: &mut Trace,
    ) -> Result<(PassOutcome, LayerPass), String> {
        let options = self.analyze_options(base_seed);
        let mut counts = TrialCounts::default();
        let mut predicted = 0u64;
        let mut reports = Vec::with_capacity(self.jobs.len());
        for (index, job) in self.jobs.iter().enumerate() {
            let id = SpanId {
                program: index as u32,
                ..SpanId::default()
            };
            let (potential, provenance) = trace
                .span("detector.predict", id, || {
                    gather_candidates(&job.program, &job.entry, &options.predict, options.source)
                })
                .map_err(|error| format!("{}: {error}", job.name))?;
            predicted += potential.len() as u64;
            let shared = trace.span("snapshot.entry_cache", id, || {
                EntryCache::new(options.snapshots)
            });
            let mut pairs = Vec::with_capacity(potential.len());
            for (pair_index, &target) in potential.iter().enumerate() {
                let pair_id = SpanId {
                    pair: pair_index as u32,
                    ..id
                };
                let pair_span = trace.enter("racefuzzer.pair", pair_id);
                let cache = PairCache::new(Arc::clone(&shared));
                let mut report = PairReport::empty(target);
                for trial in 0..self.trials_per_pair {
                    let seed = base_seed.wrapping_add(trial as u64);
                    let config = FuzzConfig {
                        seed,
                        ..options.fuzz.clone()
                    };
                    let trial_id = SpanId {
                        trial: trial as u32,
                        ..pair_id
                    };
                    let outcome = trace
                        .span("racefuzzer.trial", trial_id, || {
                            let outcome = fuzz_pair_once_cached(
                                &job.program,
                                &job.entry,
                                target,
                                &config,
                                Some(&cache),
                            )?;
                            report.absorb(seed, &outcome, &job.program);
                            Ok::<_, SetupError>(outcome)
                        })
                        .map_err(|error| format!("{}: {error}", job.name))?;
                    counts.observe(&outcome);
                }
                let stats = cache.stats();
                counts.snapshots.merge(&stats);
                report.snapshots = Some(stats);
                trace.exit(pair_span);
                pairs.push(report);
            }
            reports.push(AnalysisReport {
                potential,
                provenance,
                pairs,
                pruned: Vec::new(),
            });
        }

        let mut layer = layer_pass(trace, &counts);
        let metrics = &mut layer.metrics;
        metrics.insert(
            "detector.predict_s",
            trace.total("detector.predict").as_secs_f64(),
        );
        metrics.insert("detector.pairs", predicted as f64);
        metrics.insert("detector.runs", self.detector_runs(&options.predict.seeds));
        let outcome = self.analyze_outcome(reports, Some(counts.failed));
        Ok((outcome, layer))
    }

    fn detector_runs(&self, seeds: &[u64]) -> f64 {
        // One fair round-robin run plus one random run per seed.
        ((1 + seeds.len()) * self.jobs.len()) as f64
    }

    /// Replaces the jobs with freshly set-up copies of the same programs.
    pub fn set_jobs(&mut self, jobs: Vec<CampaignJob>) {
        self.jobs = jobs;
    }

    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }

    /// Total instructions over the compiled programs.
    pub fn instrs(&self) -> u64 {
        self.jobs
            .iter()
            .map(|job| job.program.instr_count() as u64)
            .sum()
    }

    /// Runs a campaign over the jobs, lending them to it for the call.
    fn run_campaign(
        &mut self,
        options: CampaignOptions,
        runner: &(dyn TrialRunner + Sync),
    ) -> Result<CampaignReport, String> {
        let campaign = Campaign::new(std::mem::take(&mut self.jobs), options);
        let report = campaign.run_with(runner);
        self.jobs = campaign.jobs;
        report.map_err(|error| format!("campaign: {error}"))
    }

    /// The campaign's candidate pairs, computed with the same public calls
    /// the campaign makes: `gather_candidates` for the dynamic pairs, the
    /// `sana` candidate generator, `StaticRaceFilter::for_entry`, and a
    /// `refute` per union pair. With a trace, each call is a span.
    fn candidates(&self, mut trace: Option<&mut Trace>) -> Result<CandidateCounts, String> {
        let predict = self.campaign_options(self.seed, None).predict;
        let mut counts = CandidateCounts::default();
        for (index, job) in self.jobs.iter().enumerate() {
            let id = SpanId {
                program: index as u32,
                ..SpanId::default()
            };
            let mut timed = |name: &'static str, body: &mut dyn FnMut()| -> Duration {
                match trace.as_deref_mut() {
                    Some(trace) => {
                        let span = trace.enter(name, id);
                        body();
                        trace.exit(span);
                        trace.spans()[span].duration()
                    }
                    None => {
                        body();
                        Duration::ZERO
                    }
                }
            };
            let mut dynamic = Ok((Vec::new(), Vec::new()));
            let predict_time = timed("detector.predict", &mut || {
                dynamic = gather_candidates(
                    &job.program,
                    &job.entry,
                    &predict,
                    CandidateSource::DynamicPhase1,
                );
            });
            let (dynamic, _) = dynamic.map_err(|error| format!("{}: {error}", job.name))?;
            let proc = job
                .program
                .proc_named(&job.entry)
                .ok_or_else(|| format!("{}: no entry procedure", job.name))?;
            let mut generated = None;
            let generate_time = timed("sana.build", &mut || {
                generated = Some(sana::candidates::generate_for_entry(&job.program, proc));
            });
            let generated = generated.expect("generator ran");
            let mut filter = None;
            let filter_time = timed("sana.build", &mut || {
                filter = StaticRaceFilter::for_entry(&job.program, &job.entry);
            });
            let seen: BTreeSet<RacePair> = dynamic.iter().copied().collect();
            let union: Vec<RacePair> = dynamic
                .iter()
                .copied()
                .chain(
                    generated
                        .candidates
                        .iter()
                        .copied()
                        .filter(|pair| !seen.contains(pair)),
                )
                .collect();
            let mut pruned = 0u64;
            let refute_time = timed("sana.refute", &mut || {
                pruned = union
                    .iter()
                    .filter(|pair| {
                        filter
                            .as_ref()
                            .and_then(|filter| filter.refute(&job.program, pair))
                            .is_some()
                    })
                    .count() as u64;
            });
            counts.dynamic += dynamic.len() as u64;
            counts.generated += generated.candidates.len() as u64;
            counts.pruned += pruned;
            counts.fuzzed += union.len() as u64 - pruned;
            counts.per_job.push(JobCost {
                once: predict_time + generate_time + refute_time,
                filter: filter_time,
            });
        }
        Ok(counts)
    }

    /// Runs the campaign to half its pairs, then resumes it to completion,
    /// in a fresh work directory. Returns both reports.
    fn campaign_pass(
        &mut self,
        base_seed: u64,
        runner: &(dyn TrialRunner + Sync),
        mut trace: Option<(&mut Trace, &TimingRunner)>,
    ) -> Result<(CampaignReport, CampaignReport), String> {
        fresh_dir(&self.work_dir)?;
        let mut reports = Vec::with_capacity(2);
        for (name, stop_after) in [
            ("campaign.run", Some(self.stop_after)),
            ("campaign.resume", None),
        ] {
            let options = self.campaign_options(base_seed, stop_after);
            let span = trace
                .as_mut()
                .map(|(trace, _)| trace.enter(name, SpanId::default()));
            let report = self.run_campaign(options, runner);
            if let (Some((trace, timing)), Some(span)) = (trace.as_mut(), span) {
                timing.drain_into(trace);
                trace.exit(span);
            }
            reports.push(report?);
        }
        let second = reports.pop().expect("resumed report");
        let first = reports.pop().expect("interrupted report");
        if !first.interrupted || !second.resumed || !second.completed() {
            return Err(format!(
                "campaign: expected an interrupted run then a resumed, completed one \
                 (interrupted={}, resumed={}, completed={})",
                first.interrupted,
                second.resumed,
                second.completed()
            ));
        }
        Ok((first, second))
    }

    fn campaign_traced(
        &mut self,
        base_seed: u64,
        trace: &mut Trace,
    ) -> Result<(PassOutcome, LayerPass), String> {
        let candidates = self.candidates(Some(trace))?;
        let timing = TimingRunner::new(trace);
        let (first, second) = self.campaign_pass(base_seed, &timing, Some((trace, &timing)))?;

        let mut counts = timing.counts();
        for report in [&first, &second] {
            if let Some(stats) = report.snapshot_stats() {
                counts.snapshots.merge(&stats);
            }
        }
        let mut layer = layer_pass(trace, &counts);
        let run = trace.total("campaign.run") + trace.total("campaign.resume");
        let trial = trace.total("racefuzzer.trial");
        // The campaign repeats the candidate calls timed above: Phase 1
        // and the generator once per job, the filter once per invocation
        // that reaches the job (twice for the job the interruption splits).
        let split = first.jobs.iter().position(|job| job.predicted && !job.done);
        let inside: Duration = candidates
            .per_job
            .iter()
            .enumerate()
            .map(|(index, cost)| cost.once + cost.filter * if Some(index) == split { 2 } else { 1 })
            .sum();
        let checkpoint = self.work_dir.join("checkpoint.json");
        let checkpoint_bytes = std::fs::metadata(&checkpoint)
            .map_err(|error| format!("campaign: checkpoint missing: {error}"))?
            .len();
        let metrics = &mut layer.metrics;
        metrics.insert(
            "detector.predict_s",
            trace.total("detector.predict").as_secs_f64(),
        );
        metrics.insert("detector.pairs", candidates.dynamic as f64);
        let seeds = self.campaign_options(base_seed, None).predict.seeds;
        metrics.insert("detector.runs", self.detector_runs(&seeds));
        metrics.insert("sana.build_s", trace.total("sana.build").as_secs_f64());
        metrics.insert("sana.refute_s", trace.total("sana.refute").as_secs_f64());
        metrics.insert("sana.static_candidates", candidates.generated as f64);
        metrics.insert("sana.pruned", candidates.pruned as f64);
        metrics.insert("campaign.trial_s", trial.as_secs_f64());
        metrics.insert(
            "campaign.commit_s",
            run.saturating_sub(trial)
                .saturating_sub(inside)
                .as_secs_f64(),
        );
        metrics.insert(
            "campaign.resume_s",
            trace.total("campaign.resume").as_secs_f64(),
        );
        metrics.insert("campaign.checkpoint_bytes", checkpoint_bytes as f64);
        metrics.insert("campaign.failures", second.failure_count() as f64);
        metrics.insert("campaign.quarantined", second.quarantine_count() as f64);
        Ok((campaign_outcome(&second), layer))
    }

    /// The campaign without interruption, checkpoint or artifacts: the
    /// reference the resumed run's canonical report must equal.
    pub fn campaign_reference(&mut self, pass: usize) -> Result<String, String> {
        let base_seed = self.pass_seed(pass);
        let mut options = self.campaign_options(base_seed, None);
        options.checkpoint_path = None;
        options.artifact_dir = None;
        Ok(self.run_campaign(options, &FuzzRunner)?.canonical_json())
    }

    /// Replays, without snapshots, the first confirmed pair of each
    /// program from its first race-creating seed; the replay must create
    /// the race again.
    pub fn replay_check(&self, reports: &[AnalysisReport]) -> Result<(), String> {
        for (job, report) in self.jobs.iter().zip(reports) {
            let Some(pair) = report.pairs.iter().find(|pair| pair.is_real()) else {
                continue;
            };
            let seed = pair.first_hit_seed.expect("a real pair has a first hit");
            let outcome = racefuzzer::replay(&job.program, &job.entry, pair.target, seed)
                .map_err(|error| format!("{}: {error}", job.name))?;
            if !outcome.race_created() {
                return Err(format!(
                    "{}: replaying seed {seed} did not recreate the race on {}",
                    job.name,
                    pair.target.describe(&job.program)
                ));
            }
        }
        Ok(())
    }
}

/// Wall and process CPU clocks started together.
struct Clocks {
    wall: Instant,
    cpu: Duration,
}

impl Clocks {
    fn start() -> Self {
        Clocks {
            cpu: stats::process_cpu_time(),
            wall: Instant::now(),
        }
    }

    fn stop(&self) -> (Duration, Duration) {
        let wall = self.wall.elapsed();
        (wall, stats::process_cpu_time().saturating_sub(self.cpu))
    }
}

/// Candidate counts of the campaign's jobs.
#[derive(Default)]
struct CandidateCounts {
    dynamic: u64,
    generated: u64,
    pruned: u64,
    fuzzed: u64,
    per_job: Vec<JobCost>,
}

/// Measured time of one job's candidate calls.
struct JobCost {
    /// Phase 1, the generator and the refutations: once per campaign.
    once: Duration,
    /// Building the static filter: once per campaign invocation.
    filter: Duration,
}

fn campaign_outcome(report: &CampaignReport) -> PassOutcome {
    let canonical = report.canonical_json();
    let mut digest = Fnv::default();
    digest.write(&canonical);
    let completed: u64 = report
        .jobs
        .iter()
        .flat_map(|job| &job.reports)
        .map(|pair| pair.trials as u64)
        .sum();
    let failures = report.failure_count() as u64;
    let real: BTreeSet<(usize, RacePair)> = report
        .jobs
        .iter()
        .enumerate()
        .flat_map(|(index, job)| job.real_races().into_iter().map(move |pair| (index, pair)))
        .collect();
    PassOutcome {
        digest: digest.finish(),
        real,
        // Each attempt either completed (and was absorbed into its pair's
        // report) or failed (and was recorded as a failure).
        trials: completed + failures,
        failed: Some(failures),
        reports: Vec::new(),
        canonical,
        job_times: Vec::new(),
    }
}

/// The layer metrics every traced pass reports, from its spans and trial
/// counts. Layers a workload does not run report 0.
fn layer_pass(trace: &Trace, counts: &TrialCounts) -> LayerPass {
    let trial_s = trace.total("racefuzzer.trial").as_secs_f64();
    let trial_us: Vec<f64> = trace
        .durations("racefuzzer.trial")
        .iter()
        .map(|duration| duration.as_secs_f64() * 1e6)
        .collect();
    let pair_ms = pair_durations_ms(trace);
    let snapshots = &counts.snapshots;
    let executed = counts.steps.saturating_sub(snapshots.fast_forwarded_steps);
    let mut metrics = BTreeMap::new();
    for name in [
        "detector.predict_s",
        "detector.pairs",
        "detector.runs",
        "sana.build_s",
        "sana.refute_s",
        "sana.static_candidates",
        "sana.pruned",
        "campaign.trial_s",
        "campaign.commit_s",
        "campaign.checkpoint_bytes",
        "campaign.checkpoint_save_ms",
        "campaign.resume_s",
        "campaign.failures",
        "campaign.quarantined",
    ] {
        metrics.insert(name, 0.0);
    }
    metrics.insert("racefuzzer.trial_s", trial_s);
    metrics.insert("racefuzzer.trials", counts.trials as f64);
    metrics.insert("racefuzzer.hit_trials", counts.hits as f64);
    metrics.insert(
        "racefuzzer.hit_rate",
        stats::ratio(counts.hits as f64, counts.trials as f64),
    );
    metrics.insert(
        "racefuzzer.failed_share",
        stats::ratio(counts.failed as f64, counts.trials as f64),
    );
    metrics.insert("interp.steps", counts.steps as f64);
    metrics.insert(
        "interp.steps_per_s",
        stats::ratio(counts.steps as f64, trial_s),
    );
    metrics.insert("snapshot.hit_rate", snapshots.hit_rate());
    metrics.insert(
        "snapshot.fast_forwarded_steps",
        snapshots.fast_forwarded_steps as f64,
    );
    metrics.insert(
        "snapshot.skipped_share",
        stats::ratio(
            snapshots.fast_forwarded_steps as f64,
            (snapshots.fast_forwarded_steps + executed) as f64,
        ),
    );
    metrics.insert("snapshot.captures", snapshots.captures as f64);
    metrics.insert("snapshot.evictions", snapshots.evictions as f64);
    LayerPass {
        metrics,
        trial_us,
        pair_ms,
    }
}

/// Wall time per fuzzed pair: the `racefuzzer.pair` spans of an analyze
/// pass, or, in a campaign (which exposes no pair boundary), the stretch
/// from a pair's first trial to its last.
fn pair_durations_ms(trace: &Trace) -> Vec<f64> {
    let pairs = trace.durations("racefuzzer.pair");
    if !pairs.is_empty() {
        return pairs.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    }
    let mut spans: BTreeMap<u32, (Duration, Duration)> = BTreeMap::new();
    for span in trace
        .spans()
        .iter()
        .filter(|s| s.name == "racefuzzer.trial")
    {
        let entry = spans.entry(span.id.pair).or_insert((span.start, span.end));
        entry.0 = entry.0.min(span.start);
        entry.1 = entry.1.max(span.end);
    }
    spans
        .values()
        .map(|(start, end)| end.saturating_sub(*start).as_secs_f64() * 1e3)
        .collect()
}

/// Times one `Checkpoint::save` of the final checkpoint (median of five),
/// in milliseconds.
fn checkpoint_save_ms(checkpoint: &Path, probe: &Path) -> Result<f64, String> {
    let loaded = Checkpoint::load(checkpoint).map_err(|error| format!("checkpoint: {error}"))?;
    let mut samples = Vec::new();
    for _ in 0..5 {
        let start = Instant::now();
        loaded
            .save(probe)
            .map_err(|error| format!("checkpoint: {error}"))?;
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(stats::median(&samples))
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|error| format!("{}: {error}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|error| format!("{}: {error}", dir.display()))
}

/// A [`TrialRunner`] that times [`FuzzRunner`]: the campaign's own hook
/// for swapping the trial engine. It keeps one record per trial, which
/// [`TimingRunner::drain_into`] turns into spans once the campaign returns
/// the thread.
struct TimingRunner {
    origin: Instant,
    records: Mutex<Records>,
}

#[derive(Default)]
struct Records {
    trials: Vec<TrialRecord>,
    counts: TrialCounts,
    last_pair: Option<RacePair>,
    pair_index: u32,
}

struct TrialRecord {
    start: Duration,
    end: Duration,
    pair: u32,
}

impl TimingRunner {
    fn new(trace: &Trace) -> Self {
        TimingRunner {
            origin: Instant::now() - trace.now(),
            records: Mutex::new(Records::default()),
        }
    }

    fn drain_into(&self, trace: &mut Trace) {
        let mut records = self.records.lock().expect("timing records lock");
        for record in records.trials.drain(..) {
            let id = SpanId {
                pair: record.pair,
                ..SpanId::default()
            };
            trace.record("racefuzzer.trial", record.start, record.end, id);
        }
    }

    fn counts(&self) -> TrialCounts {
        let mut records = self.records.lock().expect("timing records lock");
        std::mem::take(&mut records.counts)
    }
}

impl TrialRunner for TimingRunner {
    fn run_trial(
        &self,
        program: &cil::Program,
        entry: &str,
        pair: RacePair,
        config: &FuzzConfig,
    ) -> Result<FuzzOutcome, SetupError> {
        self.run_trial_cached(program, entry, pair, config, None)
    }

    fn run_trial_cached(
        &self,
        program: &cil::Program,
        entry: &str,
        pair: RacePair,
        config: &FuzzConfig,
        cache: Option<&PairCache>,
    ) -> Result<FuzzOutcome, SetupError> {
        let start = self.origin.elapsed();
        let result = FuzzRunner.run_trial_cached(program, entry, pair, config, cache);
        let end = self.origin.elapsed();
        let mut records = self.records.lock().expect("timing records lock");
        if records.last_pair != Some(pair) {
            records.last_pair = Some(pair);
            records.pair_index += 1;
        }
        let pair_index = records.pair_index;
        records.trials.push(TrialRecord {
            start,
            end,
            pair: pair_index,
        });
        if let Ok(outcome) = &result {
            records.counts.observe(outcome);
        }
        result
    }
}
