//! Regression test: a worker thread dying mid-pair must not hang the
//! parallel campaign. The commit thread's liveness probe notices the dead
//! claimer, marks that pair as lost, and keeps committing the rest.
//!
//! This lives in its own integration-test binary because the fault
//! schedule is process-global: installing `campaign.worker@1=err` here
//! must not leak into unrelated campaign tests running in parallel
//! threads.

use campaign::{Campaign, CampaignJob, CampaignOptions, FailureKind, QuarantineReason};
use racefuzzer::ParallelOptions;
use std::time::Duration;

#[test]
fn dead_worker_is_detected_and_the_campaign_finishes() {
    let program = cil::compile(
        r#"
        global a = 0;
        global b = 0;
        global c = 0;
        proc w1() { a = 1; }
        proc w2() { b = 1; }
        proc w3() { c = 1; }
        proc main() {
            var t1 = spawn w1();
            var t2 = spawn w2();
            var t3 = spawn w3();
            var x = a;
            var y = b;
            var z = c;
            join t1;
            join t2;
            join t3;
        }
        "#,
    )
    .unwrap();
    let options = CampaignOptions {
        trials_per_pair: 3,
        parallel: ParallelOptions::with_workers(4),
        // Short liveness-probe interval so the test detects the dead
        // worker quickly; before the fix this campaign blocked forever on
        // the lost pair's result.
        worker_stall: Duration::from_millis(150),
        ..CampaignOptions::default()
    };

    // The first worker to claim a pair dies before delivering it.
    faults::install(
        faults::Schedule::parse("campaign.worker@1=err").unwrap(),
    );
    let report = Campaign::new(vec![CampaignJob::new("fanout", program, "main")], options)
        .run()
        .unwrap();
    faults::clear();

    assert!(report.completed(), "campaign must terminate, not hang");
    let job = &report.jobs[0];
    assert!(
        job.potential.len() >= 3,
        "need several pairs so work continues past the lost one: {:?}",
        job.potential
    );

    // Exactly one pair was lost with the dying worker...
    assert_eq!(job.quarantined.len(), 1, "got {:?}", job.quarantined);
    let lost = &job.quarantined[0];
    assert!(
        matches!(&lost.reason, QuarantineReason::TrialFailures(detail) if detail.contains("worker")),
        "reason names the dead worker: {:?}",
        lost.reason
    );
    let worker_losses: Vec<_> = job
        .failures
        .iter()
        .filter(|f| matches!(f.kind, FailureKind::WorkerLoss(_)))
        .collect();
    assert_eq!(worker_losses.len(), 1, "got {:?}", job.failures);
    assert_eq!(worker_losses[0].pair, lost.pair);

    // ...recorded as an empty placeholder report, while every other pair
    // was still fuzzed and committed in full.
    assert_eq!(job.reports.len(), job.potential.len());
    for pair_report in &job.reports {
        if pair_report.target == lost.pair {
            assert_eq!(pair_report.trials, 0, "lost pair ran no trials");
        } else {
            assert_eq!(pair_report.trials, 3);
        }
    }
}
