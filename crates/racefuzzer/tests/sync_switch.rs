//! The §4 optimisation (thread switches only before synchronization
//! operations) must preserve RaceFuzzer's guarantees: the predicted race
//! is still created with probability 1 and replays from the seed.

use detector::RacePair;
use racefuzzer::{fuzz_pair_once, FuzzConfig};

fn figure2_program(pad: usize) -> cil::Program {
    // Inline copy of the Figure-2 shape (the workloads crate is not a
    // dependency of racefuzzer).
    let padding = "nop;\n".repeat(pad);
    cil::compile(&format!(
        r#"
        class Lock {{ }}
        global l;
        global x = 0;
        proc thread2() {{
            @s10 x = 1;
            sync (l) {{ nop; }}
        }}
        proc main() {{
            l = new Lock;
            var t = spawn thread2();
            sync (l) {{
                {padding}
            }}
            @s8 var v = x;
            if (v == 0) {{ throw Error; }}
            join t;
        }}
        "#
    ))
    .unwrap()
}

#[test]
fn sync_switching_preserves_probability_one() {
    let program = figure2_program(60);
    let pair = RacePair::new(program.tagged_access("s8"), program.tagged_access("s10"));
    let mut errors = 0;
    for seed in 0..40 {
        let config = FuzzConfig {
            seed,
            switch_only_at_sync: true,
            ..FuzzConfig::default()
        };
        let outcome = fuzz_pair_once(&program, "main", pair, &config).unwrap();
        assert!(outcome.race_created(), "seed {seed}: race still certain");
        if !outcome.uncaught.is_empty() {
            errors += 1;
        }
    }
    assert!(
        (8..=32).contains(&errors),
        "random resolution still ~half: {errors}/40"
    );
}

#[test]
fn sync_switching_takes_fewer_scheduling_decisions() {
    // With several compute threads in play, per-statement scheduling
    // produces many context switches; the §4 mode runs each sync-free
    // stretch in one slice, so the schedule has far fewer transitions.
    let program = cil::compile(
        r#"
        global x = 0;
        global a = 0;
        global b = 0;
        proc writer() { @w x = 1; }
        proc compute_a() {
            var i = 0;
            while (i < 40) { i = i + 1; }
            a = i;
        }
        proc compute_b() {
            var i = 0;
            while (i < 40) { i = i + 1; }
            b = i;
        }
        proc main() {
            var t = spawn writer();
            var ca = spawn compute_a();
            var cb = spawn compute_b();
            @r var v = x;
            join t;
            join ca;
            join cb;
        }
        "#,
    )
    .unwrap();
    let pair = RacePair::new(program.tagged_access("r"), program.tagged_access("w"));
    let transitions = |switches: bool| -> usize {
        let mut total = 0;
        for seed in 0..10u64 {
            let config = FuzzConfig {
                seed,
                record_schedule: true,
                switch_only_at_sync: switches,
                ..FuzzConfig::default()
            };
            let outcome = fuzz_pair_once(&program, "main", pair, &config).unwrap();
            assert!(outcome.race_created(), "seed {seed}");
            let schedule = outcome.schedule.unwrap();
            total += schedule.windows(2).filter(|w| w[0] != w[1]).count();
        }
        total
    };
    let with_optimisation = transitions(true);
    let without = transitions(false);
    assert!(
        with_optimisation * 2 < without,
        "far fewer context switches: {with_optimisation} vs {without}"
    );
}

#[test]
fn sync_switching_replays_exactly() {
    let program = figure2_program(25);
    let pair = RacePair::new(program.tagged_access("s8"), program.tagged_access("s10"));
    for seed in [1u64, 13, 77] {
        let config = FuzzConfig {
            seed,
            record_schedule: true,
            switch_only_at_sync: true,
            ..FuzzConfig::default()
        };
        let a = fuzz_pair_once(&program, "main", pair, &config).unwrap();
        let b = fuzz_pair_once(&program, "main", pair, &config).unwrap();
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.races, b.races);
    }
}
