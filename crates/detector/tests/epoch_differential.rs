//! Differential property test: the epoch-optimized engine is candidate-set
//! equivalent to the naive full-clock engine.
//!
//! The epoch engine's correctness argument (the FastTrack ownership lemma
//! plus signature-identical memoisation) is checked here mechanically: on
//! randomly generated concurrent programs, under every policy and many
//! schedules, `EpochEngine` and `DetectorEngine` must produce *identical*
//! racing-pair lists — not just equal sets modulo order, byte-identical
//! stable-order output.

use detector::{predict_races, predict_with, DetectorEngine, EpochEngine, Policy, PredictConfig};
use interp::{run_with, Limits, RandomScheduler};
use proptest::prelude::*;

/// Generated workers mix locked/unlocked reads/writes of three globals
/// under two locks, so traces exercise empty, overlapping, and disjoint
/// locksets as well as fork/join ordering.
fn render_program(threads: &[Vec<(u8, bool, u8)>]) -> String {
    use std::fmt::Write as _;
    let mut source = String::from(
        "class Lock { }\nglobal lk0;\nglobal lk1;\nglobal g0 = 0;\nglobal g1 = 0;\nglobal g2 = 0;\n",
    );
    for (t, ops) in threads.iter().enumerate() {
        let _ = writeln!(source, "proc worker{t}() {{\n    var tmp = 0;");
        for &(global, write, locking) in ops {
            let global = global % 3;
            let body = if write {
                format!("g{global} = tmp + 1;")
            } else {
                format!("tmp = g{global};")
            };
            match locking % 4 {
                0 => {
                    let _ = writeln!(source, "    {body}");
                }
                1 => {
                    let _ = writeln!(source, "    sync (lk0) {{ {body} }}");
                }
                2 => {
                    let _ = writeln!(source, "    sync (lk1) {{ {body} }}");
                }
                _ => {
                    let _ = writeln!(source, "    sync (lk0) {{ sync (lk1) {{ {body} }} }}");
                }
            }
        }
        source.push_str("}\n");
    }
    source.push_str("proc main() {\n    lk0 = new Lock;\n    lk1 = new Lock;\n");
    for t in 0..threads.len() {
        let _ = writeln!(source, "    var t{t} = spawn worker{t}();");
    }
    for t in 0..threads.len() {
        let _ = writeln!(source, "    join t{t};");
    }
    source.push_str("}\n");
    source
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn epoch_and_naive_engines_agree_on_random_programs(
        threads in proptest::collection::vec(
            proptest::collection::vec(
                (any::<u8>(), any::<bool>(), any::<u8>()),
                1..8,
            ),
            1..4,
        ),
        seed in 0u64..500,
    ) {
        let source = render_program(&threads);
        let program = cil::compile(&source).expect("generated source compiles");
        for policy in [Policy::Hybrid, Policy::HappensBefore, Policy::Lockset] {
            let mut naive = DetectorEngine::new(policy);
            run_with(
                &program,
                "main",
                &mut RandomScheduler::seeded(seed),
                &mut naive,
                Limits::default(),
            )
            .expect("run succeeds");
            let mut epoch = EpochEngine::new(policy);
            run_with(
                &program,
                "main",
                &mut RandomScheduler::seeded(seed),
                &mut epoch,
                Limits::default(),
            )
            .expect("run succeeds");
            let naive_races: Vec<_> = naive.races().collect();
            let epoch_races: Vec<_> = epoch.races().collect();
            prop_assert_eq!(
                epoch_races,
                naive_races,
                "{:?} diverged on:\n{}",
                policy,
                source
            );
        }
    }

    #[test]
    fn predict_races_matches_the_naive_engine(
        threads in proptest::collection::vec(
            proptest::collection::vec(
                (any::<u8>(), any::<bool>(), any::<u8>()),
                1..6,
            ),
            1..3,
        ),
    ) {
        let source = render_program(&threads);
        let program = cil::compile(&source).expect("generated source compiles");
        for policy in [Policy::Hybrid, Policy::HappensBefore, Policy::Lockset] {
            let config = PredictConfig {
                policy,
                ..PredictConfig::default()
            };
            let naive = predict_with(&program, "main", &config, DetectorEngine::new, |engine| {
                engine.races().collect()
            })
            .expect("prediction runs");
            prop_assert_eq!(
                predict_races(&program, "main", &config).expect("prediction runs"),
                naive,
                "{:?} diverged on:\n{}",
                policy,
                source
            );
        }
    }
}
