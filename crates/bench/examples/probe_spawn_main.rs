fn main() {
    let source = r#"
        global x = 0;
        global first = true;
        proc worker() { @w x = 1; }
        proc main() {
            var f = first;
            if (f) {
                first = false;
                var t = spawn main();
                join t;
                @late x = 2;
            } else {
                spawn worker();
            }
        }
    "#;
    let program = cil::compile(source).expect("compiles");
    let filter = sana::StaticRaceFilter::for_entry(&program, "main").expect("main");
    let pair = detector::RacePair::new(program.tagged_access("late"), program.tagged_access("w"));
    println!("refute(late, w) = {:?}", filter.refute(&program, &pair));

    let options = racefuzzer::AnalyzeOptions {
        trials_per_pair: 50,
        static_prune: false,
        ..racefuzzer::AnalyzeOptions::default()
    };
    let report = racefuzzer::analyze(&program, "main", &options).expect("analysis runs");
    for real in report.real_races() {
        println!(
            "confirmed: {} refuted_as={:?}",
            real.describe(&program),
            filter.refute(&program, &real)
        );
    }
}
