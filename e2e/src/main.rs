//! End-to-end benchmark of the RaceFuzzer pipeline.
//!
//! Drives the crates' public API from outside — `cil::compile`,
//! `Program::bytecode`, `racefuzzer::analyze` and
//! `campaign::Campaign::run_with` — over one of three workloads (see
//! `workload::Kind`), and prints every metric by name with its unit. The
//! last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! With `--trace 0` it reports the end-to-end metrics, measured with no
//! tracing. With `--trace 1` it alternates untraced passes with traced
//! passes that rebuild the same work from each layer's public calls with a
//! span around each call, and reports the per-layer split; the spans of
//! the last traced pass are written to `.e2e-work/spans/`.
//!
//! Every run checks its outputs: pass 0's reports against the committed
//! expectation for the seed (when there is one), traced reports against
//! untraced ones, confirmed races against a snapshot-free replay, and the
//! interrupted-and-resumed campaign against an uninterrupted one.
//!
//! Usage: `e2e-bench --workload table1|long-prologue|campaign --seed N
//! --seconds S --trace 0|1 [--size full|tiny]`

mod expected;
mod gen;
mod stats;
mod trace;
mod workload;

use stats::median;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Trace;
use workload::{Bench, Kind, LayerPass, PassOutcome, Size};

/// End-to-end metrics (`--trace 0`), with their units.
const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("trials_per_s", "1/s"),
    ("confirmed_races", "count"),
    ("trials_per_confirmed_race", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics (`--trace 1`), with their units.
const PER_LAYER: [(&str, &str); 38] = [
    ("cil.compile_s", "s"),
    ("cil.bytecode_s", "s"),
    ("cil.instrs", "count"),
    ("detector.predict_s", "s"),
    ("detector.pairs", "count"),
    ("detector.runs", "count"),
    ("sana.build_s", "s"),
    ("sana.refute_s", "s"),
    ("sana.static_candidates", "count"),
    ("sana.pruned", "count"),
    ("racefuzzer.trial_s", "s"),
    ("racefuzzer.trials", "count"),
    ("racefuzzer.hit_trials", "count"),
    ("racefuzzer.hit_rate", "ratio"),
    ("racefuzzer.failed_share", "ratio"),
    ("racefuzzer.trial_p50_us", "us"),
    ("racefuzzer.trial_p99_us", "us"),
    ("racefuzzer.trial_samples", "count"),
    ("racefuzzer.pair_p50_ms", "ms"),
    ("racefuzzer.pair_p90_ms", "ms"),
    ("racefuzzer.pair_samples", "count"),
    ("interp.steps", "count"),
    ("interp.steps_per_s", "1/s"),
    ("snapshot.hit_rate", "ratio"),
    ("snapshot.fast_forwarded_steps", "count"),
    ("snapshot.skipped_share", "ratio"),
    ("snapshot.captures", "count"),
    ("snapshot.evictions", "count"),
    ("campaign.trial_s", "s"),
    ("campaign.commit_s", "s"),
    ("campaign.checkpoint_bytes", "bytes"),
    ("campaign.checkpoint_save_ms", "ms"),
    ("campaign.resume_s", "s"),
    ("campaign.failures", "count"),
    ("campaign.quarantined", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.wall_s", "s"),
];

/// Set-ups made back to back before each pass; the last one's programs
/// are the ones the pass runs.
const SETUP_REPEATS: usize = 5;

/// Passes a run makes even when they overrun `--seconds` (per mode: a
/// traced run counts untraced-and-traced pairs).
const MIN_PASSES: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut size = Size::Full;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} takes a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                kind = Some(
                    Kind::from_name(&value)
                        .ok_or_else(|| bad("expected table1, long-prologue or campaign"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected a whole number"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("expected a non-negative number"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                };
            }
            "--size" => {
                size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad("expected full or tiny")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        size,
    })
}

/// What a run reports.
struct Report {
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("e2e-bench: {message}");
            eprintln!(
                "usage: e2e-bench --workload table1|long-prologue|campaign --seed N \
                 --seconds S --trace 0|1 [--size full|tiny]"
            );
            return ExitCode::from(2);
        }
    };
    let work_dir =
        PathBuf::from(".e2e-work").join(format!("{}-{}", args.kind.name(), std::process::id()));
    let result = run(&args, &work_dir);
    // The campaign's checkpoint and artifact directory is scratch space.
    let _ = std::fs::remove_dir_all(&work_dir);
    let report = match result {
        Ok(report) => report,
        Err(message) => {
            eprintln!("e2e-bench: {message}");
            return ExitCode::FAILURE;
        }
    };
    for problem in &report.problems {
        eprintln!("e2e-bench: CHECK FAILED: {problem}");
    }
    for (name, value, unit) in &report.metrics {
        println!("{name:>32} = {value} {unit}");
    }
    println!("{}", to_json(&report));
    if report.problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every set-up of a run. Set-up is a millisecond or less, so `setup_s` is
/// the best of bursts spread over the whole run, like the passes, rather
/// than of one burst at its start; within a burst the caches are warm.
struct Setups {
    kind: Kind,
    size: Size,
    seed: u64,
    catalog: Vec<workload::Source>,
    samples: Vec<workload::SetupSample>,
}

impl Setups {
    fn run(&mut self) -> Result<Vec<campaign::CampaignJob>, String> {
        let mut jobs = Vec::new();
        for _ in 0..SETUP_REPEATS {
            let sample;
            (jobs, sample) = workload::setup(self.kind, self.size, self.seed, &self.catalog)?;
            self.samples.push(sample);
        }
        Ok(jobs)
    }

    fn best(&self, time: fn(&workload::SetupSample) -> Duration) -> f64 {
        self.samples
            .iter()
            .map(time)
            .min()
            .unwrap_or_default()
            .as_secs_f64()
    }
}

fn run(args: &Args, work_dir: &Path) -> Result<Report, String> {
    let mut setups = Setups {
        kind: args.kind,
        size: args.size,
        seed: args.seed,
        catalog: workload::catalog(args.kind, args.size),
        samples: Vec::new(),
    };
    let jobs = setups.run()?;
    let mut bench = Bench::new(args.kind, args.size, args.seed, jobs, work_dir.to_owned())?;
    println!(
        "workload={} seed={} size={:?} trace={} trials/pair={} jobs={}",
        args.kind.name(),
        args.seed,
        args.size,
        u8::from(args.trace),
        bench.trials_per_pair,
        bench.job_count()
    );
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    if args.trace {
        measure_layers(&mut bench, &mut setups, deadline, args)
    } else {
        measure_end_to_end(&mut bench, &mut setups, deadline)
    }
}

/// Repeats untraced passes until the deadline. Times are best-of-run, job
/// by job: on a shared host other tenants slow whole stretches of a run
/// (CPU time included) by up to half, so each job's fastest pass is the
/// one least disturbed, and summing those is far steadier between runs
/// than any per-pass median.
fn measure_end_to_end(
    bench: &mut Bench,
    setups: &mut Setups,
    deadline: Instant,
) -> Result<Report, String> {
    let mut walls = Vec::new();
    let mut best: Vec<(f64, f64)> = Vec::new();
    let mut first = None;
    // Pairs confirmed, and trials run, over the first MIN_PASSES passes:
    // more trials per pair than one pass, so fewer pairs flip between
    // seeds, and still a fixed amount of work per seed.
    let mut confirmed = BTreeSet::new();
    let mut confirm_trials = 0;
    let mut pass = 0;
    while pass < MIN_PASSES || Instant::now() < deadline {
        if pass > 0 {
            bench.set_jobs(setups.run()?);
        }
        let start = Instant::now();
        let outcome = bench.pass(pass)?;
        walls.push(start.elapsed().as_secs_f64());
        best.resize(outcome.job_times.len(), (f64::INFINITY, f64::INFINITY));
        for (slot, (wall, cpu)) in best.iter_mut().zip(&outcome.job_times) {
            slot.0 = slot.0.min(wall.as_secs_f64());
            slot.1 = slot.1.min(cpu.as_secs_f64());
        }
        if pass < MIN_PASSES {
            confirmed.extend(outcome.real.iter().copied());
            confirm_trials += outcome.trials;
        }
        first.get_or_insert(outcome);
        pass += 1;
    }
    let peak_rss_mib = stats::peak_rss_mib();
    let first = first.expect("at least one pass ran");
    println!("passes={pass} walls_s={walls:.3?}");
    let wall_s: f64 = best.iter().map(|(wall, _)| wall).sum();
    let cpu_s: f64 = best.iter().map(|(_, cpu)| cpu).sum();

    let mut problems = check_first(bench, &first)?;
    // Rebuild pass 0 from the layers' public calls: its reports must be
    // identical, and it sees each trial's outcome for failure accounting.
    let mut scratch = Trace::new();
    let (rebuilt, _, _) = bench.traced_pass(0, &mut scratch)?;
    if rebuilt.digest != first.digest {
        problems.push("reports rebuilt from public calls differ from the run's".to_owned());
    }
    let failed = rebuilt.failed.unwrap_or(0);
    let metrics = vec![
        ("setup_s", setups.best(|sample| sample.total)),
        ("wall_s", wall_s),
        ("cpu_s", cpu_s),
        ("trials_per_s", first.trials as f64 / wall_s),
        ("confirmed_races", confirmed.len() as f64),
        (
            "trials_per_confirmed_race",
            stats::ratio(confirm_trials as f64, confirmed.len() as f64),
        ),
        ("peak_rss_mib", peak_rss_mib),
    ];
    Ok(Report {
        problems,
        attempted: first.trials,
        failed,
        metrics: with_units(&metrics, &END_TO_END),
    })
}

/// Alternates an untraced pass with a traced pass over the same seeds
/// until the deadline; reports per-layer medians over the traced passes,
/// and the tracing overhead as the ratio of the fastest passes.
fn measure_layers(
    bench: &mut Bench,
    setups: &mut Setups,
    deadline: Instant,
    args: &Args,
) -> Result<Report, String> {
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut coverage = Vec::new();
    let mut layers: Vec<LayerPass> = Vec::new();
    let mut problems = Vec::new();
    let mut first: Option<(PassOutcome, u64)> = None;
    let mut last_trace = None;
    let mut pass = 0;
    while pass < MIN_PASSES || Instant::now() < deadline {
        if pass > 0 {
            bench.set_jobs(setups.run()?);
        }
        let start = Instant::now();
        let plain = bench.pass(pass)?;
        plain_walls.push(start.elapsed().as_secs_f64());
        let mut trace = Trace::new();
        let (traced, layer, wall) = bench.traced_pass(pass, &mut trace)?;
        if traced.digest != plain.digest {
            problems.push(format!(
                "pass {pass}: traced reports differ from untraced reports"
            ));
        }
        traced_walls.push(wall.as_secs_f64());
        coverage.push(trace.coverage(wall));
        layers.push(layer);
        if first.is_none() {
            first = Some((plain, traced.failed.unwrap_or(0)));
        }
        last_trace = Some(trace);
        pass += 1;
    }
    println!("passes={pass}");
    let (first, failed) = first.expect("at least one pass ran");
    problems.extend(check_first(bench, &first)?);

    let trace = last_trace.expect("at least one traced pass");
    write_spans(&trace, args)?;
    for (layer, seconds) in trace.layer_self_time() {
        println!("  self time, last traced pass: {layer:>10} {seconds:.6} s");
    }

    let mut values: Vec<(&'static str, f64)> = Vec::new();
    for (name, _) in PER_LAYER {
        let per_pass: Vec<f64> = layers
            .iter()
            .filter_map(|layer| layer.metrics.get(name).copied())
            .collect();
        if !per_pass.is_empty() {
            values.push((name, median(&per_pass)));
        }
    }
    let trial_us: Vec<f64> = layers
        .iter()
        .flat_map(|l| l.trial_us.iter().copied())
        .collect();
    let pair_ms: Vec<f64> = layers
        .iter()
        .flat_map(|l| l.pair_ms.iter().copied())
        .collect();
    values.extend([
        (
            "racefuzzer.trial_p50_us",
            stats::percentile(&trial_us, 0.50),
        ),
        (
            "racefuzzer.trial_p99_us",
            stats::percentile(&trial_us, 0.99),
        ),
        ("racefuzzer.trial_samples", trial_us.len() as f64),
        ("racefuzzer.pair_p50_ms", stats::percentile(&pair_ms, 0.50)),
        ("racefuzzer.pair_p90_ms", stats::percentile(&pair_ms, 0.90)),
        ("racefuzzer.pair_samples", pair_ms.len() as f64),
        ("trace.coverage", median(&coverage)),
        (
            "trace.overhead",
            fastest(&traced_walls) / fastest(&plain_walls).max(f64::EPSILON) - 1.0,
        ),
        ("trace.wall_s", median(&traced_walls)),
    ]);
    values.extend([
        ("cil.compile_s", setups.best(|sample| sample.compile)),
        ("cil.bytecode_s", setups.best(|sample| sample.bytecode)),
        ("cil.instrs", bench.instrs() as f64),
    ]);
    Ok(Report {
        problems,
        attempted: first.trials,
        failed,
        metrics: with_units(&values, &PER_LAYER),
    })
}

/// The checks on pass 0 that both modes share: the committed expectation,
/// a snapshot-free replay of confirmed races, and, for the campaign, an
/// uninterrupted reference run.
fn check_first(bench: &mut Bench, first: &PassOutcome) -> Result<Vec<String>, String> {
    let mut problems = Vec::new();
    let name = bench.kind.name();
    let confirmed = first.real.len() as u64;
    println!(
        "expect: workload={name} seed={} confirmed={} digest={:#018x}",
        bench.seed, confirmed, first.digest
    );
    if let Some(expected) = bench
        .size
        .eq(&Size::Full)
        .then(|| expected::lookup(name, bench.seed))
        .flatten()
    {
        if expected.confirmed != confirmed || expected.digest != first.digest {
            problems.push(format!(
                "seed {}: expected {} confirmed races with digest {:#018x}, got {} with {:#018x}",
                bench.seed, expected.confirmed, expected.digest, confirmed, first.digest
            ));
        }
    }
    if confirmed == 0 {
        problems.push("no race was confirmed".to_owned());
    }
    match bench.kind {
        Kind::Table1 | Kind::LongPrologue => {
            if let Err(problem) = bench.replay_check(&first.reports) {
                problems.push(problem);
            }
        }
        Kind::Campaign => {
            if bench.campaign_reference(0)? != first.canonical {
                problems.push(
                    "the interrupted-and-resumed campaign differs from an uninterrupted run"
                        .to_owned(),
                );
            }
        }
    }
    Ok(problems)
}

fn fastest(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

fn with_units(
    values: &[(&str, f64)],
    table: &[(&'static str, &'static str)],
) -> Vec<(&'static str, f64, &'static str)> {
    table
        .iter()
        .filter_map(|&(name, unit)| {
            values
                .iter()
                .find(|(have, _)| *have == name)
                .map(|&(_, value)| (name, if value.is_finite() { value } else { 0.0 }, unit))
        })
        .collect()
}

fn write_spans(trace: &Trace, args: &Args) -> Result<(), String> {
    let dir = PathBuf::from(".e2e-work").join("spans");
    std::fs::create_dir_all(&dir).map_err(|error| format!("{}: {error}", dir.display()))?;
    let path = dir.join(format!("{}-seed{}.tsv", args.kind.name(), args.seed));
    std::fs::write(&path, trace.to_tsv())
        .map_err(|error| format!("{}: {error}", path.display()))?;
    println!("spans: {}", path.display());
    Ok(())
}

fn to_json(report: &Report) -> String {
    let mut metrics = String::new();
    for (index, (name, value, unit)) in report.metrics.iter().enumerate() {
        if index > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        report.problems.is_empty(),
        report.attempted.max(1),
        report.failed
    )
}
