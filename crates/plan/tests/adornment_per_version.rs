//! Goal-driven adornment is made once per data version. This file holds
//! exactly one test so that nothing else in the process touches the global
//! `magic_adornments_total` counter while it is read.

use ontorew_plan::{PlanKind, Planner, StrategyTaken};
use ontorew_telemetry::global_registry;

/// Two executions of one prepared selective query on the same data version
/// add exactly one statistics adornment to `magic_adornments_total` (the
/// counter grows by the adornments one rewrite reaches); an execution on a
/// new version adorns once more, by the same amount.
#[test]
fn two_executions_on_one_version_adorn_once() {
    let planner = Planner::new(ontorew_workloads::registrar_ontology());
    let prepared = planner.prepare(&ontorew_workloads::registrar_queries()[0]);
    assert_eq!(prepared.plan().kind(), PlanKind::GoalDriven);
    let mut store = ontorew_workloads::registrar_abox(200, 8, 5);
    store.freeze();
    let adornments = || {
        global_registry()
            .counter(
                "magic_adornments_total",
                "Distinct (predicate, adornment) pairs reached by goal-driven rewrites.",
                &[],
            )
            .get()
    };
    let added_by = |version: u64| {
        let before = adornments();
        let execution = prepared.execute_versioned(&store, version);
        assert_eq!(execution.provenance.strategy, StrategyTaken::GoalDriven);
        adornments() - before
    };

    let one_adornment = added_by(1);
    assert!(one_adornment > 0, "the first execution adorns");
    assert_eq!(
        added_by(1),
        0,
        "the second execution on version 1 reuses it"
    );
    assert_eq!(added_by(2), one_adornment, "a new version adorns once more");
    assert_eq!(added_by(2), 0);
}
