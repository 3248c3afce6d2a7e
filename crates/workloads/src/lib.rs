//! CIL models of the paper's benchmark programs (§5.1, Table 1).
//!
//! The paper evaluates RaceFuzzer on ~600 KLoC of Java: three Java Grande
//! kernels, five applications, the Jigsaw web server, and five JDK
//! collection classes under multi-threaded test drivers. Those programs
//! cannot be run on this substrate, so each is modelled as a CIL program
//! that reproduces its **concurrency skeleton**: the same synchronization
//! idioms (monitors, busy-wait barriers, lock-protected flag handshakes,
//! fork/join phases), the same documented real races, and the same bugs
//! (cache4j's `_sleep` race, the JDK `containsAll`-over-unlocked-iterator
//! exceptions). What is *not* modelled is the numeric payload — a model's
//! "computation" is a few arithmetic statements — so SLOC and wall-clock
//! columns are reported for the models themselves.
//!
//! Each [`Workload`] records the paper's Table 1 row ([`PaperRow`]) so the
//! benchmark harness can print paper-vs-measured side by side.
//!
//! # Examples
//!
//! ```
//! let raytracer = workloads::raytracer();
//! assert_eq!(raytracer.name, "raytracer");
//! assert!(raytracer.program.proc_named(raytracer.entry).is_some());
//! ```

pub mod apps;
pub mod collections;
pub mod figures;
pub mod jgf;

pub use figures::{figure1, figure2};

use cil::Program;

/// The paper's Table 1 row for a benchmark (the numbers this reproduction
/// aims to match in *shape*, not absolutely).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PaperRow {
    /// Reported source lines of the Java original.
    pub sloc: u32,
    /// Column 6: potential races from hybrid detection.
    pub hybrid_races: u32,
    /// Column 7: real races confirmed by RaceFuzzer.
    pub real_races: u32,
    /// Column 8: races known from prior studies (`None` = no prior study).
    pub known_races: Option<u32>,
    /// Column 9: racing pairs for which RaceFuzzer raised an exception.
    pub rf_exceptions: u32,
    /// Column 10: exceptions under the default/simple scheduler.
    pub simple_exceptions: u32,
    /// Column 11: probability of hitting a race (`None` = no real race).
    pub probability: Option<f64>,
}

/// One modelled benchmark: a compiled CIL program plus metadata.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Benchmark name, matching the paper's Table 1.
    pub name: &'static str,
    /// What the model reproduces and what it simplifies.
    pub description: &'static str,
    /// The compiled model.
    pub program: Program,
    /// The CIL source `program` was compiled from — lets static tools
    /// (`cil lint`, the pruning benchmark) re-analyze the fixture and map
    /// diagnostics back to source spans.
    pub source: String,
    /// Entry procedure for the test driver.
    pub entry: &'static str,
    /// The paper's Table 1 row for comparison.
    pub paper: PaperRow,
}

/// All fourteen Table 1 benchmarks, in the paper's row order.
pub fn all() -> Vec<Workload> {
    vec![
        jgf::moldyn(),
        jgf::raytracer(),
        jgf::montecarlo(),
        apps::cache4j(),
        apps::sor(),
        apps::hedc(),
        apps::weblech(),
        apps::jspider(),
        apps::jigsaw(),
        collections::vector(),
        collections::linked_list(),
        collections::array_list(),
        collections::hash_set(),
        collections::tree_set(),
    ]
}

/// Convenience re-exports of the individual constructors.
pub use apps::{cache4j, hedc, jigsaw, jspider, sor, weblech};
pub use collections::{array_list, hash_set, linked_list, tree_set, vector};
pub use jgf::{moldyn, montecarlo, raytracer};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_fourteen_table1_rows() {
        let workloads = all();
        assert_eq!(workloads.len(), 14);
        let names: Vec<&str> = workloads.iter().map(|w| w.name).collect();
        assert_eq!(
            names,
            vec![
                "moldyn",
                "raytracer",
                "montecarlo",
                "cache4j",
                "sor",
                "hedc",
                "weblech",
                "jspider",
                "jigsaw",
                "Vector 1.1",
                "LinkedList",
                "ArrayList",
                "HashSet",
                "TreeSet",
            ]
        );
    }

    #[test]
    fn every_workload_entry_exists_and_takes_no_params() {
        for workload in all() {
            let proc = workload
                .program
                .proc_named(workload.entry)
                .unwrap_or_else(|| panic!("{}: entry missing", workload.name));
            assert_eq!(
                workload.program.procs[proc.index()].param_count,
                0,
                "{}: entry takes params",
                workload.name
            );
        }
    }

    #[test]
    fn every_workload_terminates_under_default_scheduling() {
        // A fair preemptive scheduler models the JVM default; the paper
        // notes (§4) that the JGF kernels' busy-wait barriers *require*
        // scheduler fairness, so run-to-block would spin forever on moldyn.
        for workload in all() {
            let outcome = interp::run_with(
                &workload.program,
                workload.entry,
                &mut interp::RoundRobinScheduler::new(23),
                &mut interp::NullObserver,
                interp::Limits::default(),
            )
            .unwrap_or_else(|error| panic!("{}: {error}", workload.name));
            assert!(
                matches!(
                    outcome.termination,
                    interp::Termination::AllExited | interp::Termination::Deadlock(_)
                ),
                "{}: {:?}",
                workload.name,
                outcome.termination
            );
        }
    }
}
