//! Replay-based debugging (paper §2.2: "Deterministic replay is a powerful
//! feature … it allows the user to replay and debug a race condition"):
//! find a harmful race, then render its full execution trace — every
//! scheduled statement, the race-creation point, and the thread death —
//! from nothing but the seed.
//!
//! Run with: `cargo run --example trace_debugging`

use racefuzzer_suite::prelude::*;

fn main() {
    let program = cil::compile(
        r#"
        class Job { input, output }
        global job;

        proc worker() {
            var j = job;
            @read_input var data = j.input;
            var result = data * 2;          // TypeError when input is still null
            j.output = result;
        }

        proc main() {
            var j = new Job;
            job = j;
            var t = spawn worker();
            @write_input j.input = 21;
            join t;
            var out = j.output;
            print out;
        }
        "#,
    )
    .expect("the example program is valid CIL");

    let pair = RacePair::new(
        program.tagged_access("read_input"),
        program.tagged_access("write_input"),
    );

    // Find a seed whose resolution kills the worker.
    let report =
        fuzz_pair(&program, "main", pair, 50, 1, &FuzzConfig::default()).expect("fuzzing runs");
    println!(
        "race created in {}/{} trials; crashes in {} of them",
        report.hits, report.trials, report.exception_trials
    );
    let seed = report
        .first_exception_seed
        .expect("some trial crashes the worker");

    // One seed is the entire bug report: render the trace.
    let trace = render_trace(&program, "main", pair, seed).expect("trace renders");
    println!("\n{trace}");
}
