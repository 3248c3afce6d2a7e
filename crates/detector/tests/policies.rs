//! Cross-policy comparisons: the three detectors ordered by predictive
//! power, on programs that separate them (the paper's §1/§6 positioning).
//!
//! * **Lockset (Eraser)** — most predictive, noisiest: flags fork/join- and
//!   handshake-ordered accesses too.
//! * **Hybrid** — lockset + start/join/notify–wait happens-before edges:
//!   the paper's Phase 1 sweet spot.
//! * **Happens-before** (with lock edges) — precise for the observed run,
//!   cannot predict; misses races hidden by accidental lock ordering.

use detector::{predict_races, Policy, PredictConfig};

fn predict(source: &str, policy: Policy) -> usize {
    let program = cil::compile(source).expect("test source compiles");
    let config = PredictConfig {
        policy,
        ..PredictConfig::with_runs(10)
    };
    predict_races(&program, "main", &config)
        .expect("prediction runs")
        .len()
}

#[test]
fn fork_ordered_writes_separate_eraser_from_hybrid() {
    // Parent writes x, then spawns a child that writes x: ordered by the
    // spawn edge. Hybrid is silent; Eraser (no happens-before at all)
    // flags it.
    let source = r#"
        global x = 0;
        proc child() { x = 2; }
        proc main() {
            x = 1;
            var t = spawn child();
            join t;
        }
    "#;
    assert_eq!(predict(source, Policy::Hybrid), 0);
    assert_eq!(predict(source, Policy::HappensBefore), 0);
    assert!(
        predict(source, Policy::Lockset) >= 1,
        "Eraser false positive"
    );
}

#[test]
fn lock_ordering_separates_hybrid_from_happens_before() {
    // Two threads write `x` under *different* locks, but both also touch a
    // common lock between the accesses. In any observed execution the
    // common lock's release→acquire edge orders the writes, so the pure
    // happens-before detector stays silent in most runs — while hybrid
    // (which deliberately ignores lock edges) predicts the race every time.
    let source = r#"
        class Lock { }
        global common;
        global x = 0;
        proc worker(v) {
            sync (common) { nop; }
            x = v;
            sync (common) { nop; }
        }
        proc main() {
            common = new Lock;
            var a = spawn worker(1);
            var b = spawn worker(2);
            join a;
            join b;
        }
    "#;
    let hybrid = predict(source, Policy::Hybrid);
    assert!(hybrid >= 1, "hybrid predicts the x race");
    // Pure HB detection depends on the observed interleaving; across the
    // same runs it can only report a subset of hybrid's pairs.
    let hb = predict(source, Policy::HappensBefore);
    assert!(
        hb <= hybrid,
        "HB ⊆ hybrid on this program: {hb} vs {hybrid}"
    );
}

#[test]
fn figure1_policy_ordering() {
    // On the paper's Figure 1, hybrid finds the z race and the x false
    // alarm; Eraser finds at least as much; HB finds at most as much.
    let program = workload_figure1();
    let count = |policy| {
        let config = PredictConfig {
            policy,
            ..PredictConfig::with_runs(20)
        };
        predict_races(&program, "main", &config).unwrap().len()
    };
    let lockset = count(Policy::Lockset);
    let hybrid = count(Policy::Hybrid);
    let hb = count(Policy::HappensBefore);
    assert!(lockset >= hybrid, "{lockset} >= {hybrid}");
    assert!(hybrid >= hb, "{hybrid} >= {hb}");
    assert_eq!(hybrid, 2, "z pair + x false alarm");
}

fn workload_figure1() -> cil::Program {
    cil::compile(
        r#"
        class Lock { }
        global l;
        global x = 0;
        global y = 0;
        global z = 0;
        proc thread1() {
            x = 1;
            sync (l) { y = 1; }
            var t = z;
            if (t == 1) { throw Error1; }
        }
        proc thread2() {
            z = 1;
            sync (l) {
                var t = y;
                if (t == 1) {
                    var u = x;
                    if (u != 1) { throw Error2; }
                }
            }
        }
        proc main() {
            l = new Lock;
            var t1 = spawn thread1();
            var t2 = spawn thread2();
            join t1;
            join t2;
        }
        "#,
    )
    .unwrap()
}

#[test]
fn notify_wait_edge_suppresses_hybrid_but_not_eraser() {
    let source = r#"
        class Lock { }
        global l;
        global ready = false;
        global payload = 0;
        proc consumer() {
            sync (l) {
                while (!ready) { wait l; }
            }
            var v = payload;    // ordered by the notify edge
        }
        proc main() {
            l = new Lock;
            var t = spawn consumer();
            payload = 42;
            sync (l) { ready = true; notify l; }
            join t;
        }
    "#;
    // Hybrid tracks the notify→wait SND/RCV edge: when the consumer goes
    // through an actual wait, the payload accesses are ordered. (In runs
    // where the consumer never waits — flag already true — the lock
    // release→acquire ordering is invisible to hybrid, so it may still
    // report the pair; Eraser always does.)
    let hybrid = predict(source, Policy::Hybrid);
    let lockset = predict(source, Policy::Lockset);
    assert!(lockset >= 1);
    assert!(hybrid <= lockset);
}
