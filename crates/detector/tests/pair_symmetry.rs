//! Candidate-pair symmetry regression tests.
//!
//! Phase 1 can *discover* a racing statement pair in either order — which
//! thread's access is stored first depends on the schedule, the seed, and
//! the engine implementation. If `(s1, s2)` and `(s2, s1)` ever surfaced as
//! distinct candidates, Phase 2 would fuzz the same pair twice (and the
//! campaign would double-count it). [`RacePair`] canonicalizes on
//! construction; these tests pin that contract at every boundary where an
//! order flip can happen.

use detector::{
    predict_races, predict_with, DetectorEngine, EpochEngine, Policy, PredictConfig, RacePair,
};
use cil::flat::InstrId;
use interp::{Event, Loc, Observer, ObjId, ThreadId};

/// Phase-1 predictions from both engines: the epoch engine through the
/// public [`predict_races`], the naive one through the generic loop.
fn predictions(
    program: &cil::Program,
    config: &PredictConfig,
) -> [(&'static str, Vec<RacePair>); 2] {
    let naive = predict_with(program, "main", config, DetectorEngine::new, |engine| {
        engine.races().collect()
    });
    [
        ("epoch", predict_races(program, "main", config).unwrap()),
        ("naive", naive.unwrap()),
    ]
}

/// Two threads race through two distinct statements on the same global.
/// Depending on which thread the scheduler runs first, the engine sees the
/// accesses — and would naively report the pair — in opposite orders.
const OPPOSITE_ORDERS: &str = r#"
    global x = 0;
    proc writer() { @w x = 1; }
    proc main() {
        var t = spawn writer();
        @r var v = x;
        join t;
    }
"#;

#[test]
fn construction_order_cannot_split_a_pair() {
    let a = RacePair::new(InstrId(12), InstrId(7));
    let b = RacePair::new(InstrId(7), InstrId(12));
    assert_eq!(a, b);
    assert!(a.is_canonical() && b.is_canonical());
}

#[test]
fn both_discovery_orders_yield_the_same_candidate() {
    let program = cil::compile(OPPOSITE_ORDERS).unwrap();
    let expected = RacePair::new(program.tagged_access("w"), program.tagged_access("r"));

    // Feed both engines hand-rolled event streams with the two accesses in
    // either order: same single canonical candidate every time.
    let mem = |thread: u32, instr: InstrId| Event::Mem {
        thread: ThreadId(thread),
        instr,
        loc: Loc::Global(cil::flat::GlobalId(0)),
        is_write: true,
        locks: Vec::<ObjId>::new(),
    };
    let (w, r) = (program.tagged_access("w"), program.tagged_access("r"));
    for order in [[(0, w), (1, r)], [(0, r), (1, w)]] {
        let mut naive = DetectorEngine::new(Policy::Hybrid);
        let mut epoch = EpochEngine::new(Policy::Hybrid);
        for (thread, instr) in order {
            naive.on_event(&mem(thread, instr));
            epoch.on_event(&mem(thread, instr));
        }
        assert_eq!(naive.into_races(), vec![expected]);
        assert_eq!(epoch.into_races(), vec![expected]);
    }
}

#[test]
fn prediction_output_is_canonical_and_duplicate_free() {
    let program = cil::compile(OPPOSITE_ORDERS).unwrap();
    // Many seeds: the racing accesses are observed in both orders across
    // these runs, and the union must still hold one candidate.
    let config = PredictConfig {
        seeds: (1..=16).collect(),
        ..PredictConfig::default()
    };
    for (detector, races) in predictions(&program, &config) {
        assert_eq!(races.len(), 1, "{detector}: exactly one candidate");
        assert!(races[0].is_canonical());
        assert_eq!(
            races[0],
            RacePair::new(program.tagged_access("w"), program.tagged_access("r"))
        );
    }
}

#[test]
fn self_pair_survives_canonicalization() {
    // Same statement racing with itself across threads must not be lost or
    // duplicated by the ordering rule.
    let source = r#"
        global c = 0;
        proc worker() { @inc c = c + 1; }
        proc main() {
            var a = spawn worker();
            var b = spawn worker();
            join a; join b;
        }
    "#;
    let program = cil::compile(source).unwrap();
    for (detector, races) in predictions(&program, &PredictConfig::default()) {
        assert!(races.iter().all(RacePair::is_canonical), "{detector}");
        // No (a, b)/(b, a) twins anywhere in the output.
        for (i, left) in races.iter().enumerate() {
            for right in &races[i + 1..] {
                assert_ne!(
                    (left.first(), left.second()),
                    (right.second(), right.first()),
                    "{detector}: symmetric duplicate in {races:?}"
                );
            }
        }
    }
}
