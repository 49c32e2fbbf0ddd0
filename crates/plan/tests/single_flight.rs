//! Single-flight materialization. This file holds exactly one test so that
//! nothing else in the process touches the global `plan_materializations_total`
//! counter while it is read.

use ontorew_plan::{Planner, PlannerConfig};
use ontorew_telemetry::global_registry;
use std::sync::Barrier;

/// Two threads miss the same data version at the same moment (both released
/// by one barrier, as the benchmark's two clients are by a commit): exactly
/// one of them chases, the other waits for that result and is served — and
/// counted — as a cache hit.
#[test]
fn concurrent_misses_on_one_version_materialize_once() {
    let planner = Planner::with_config(
        ontorew_workloads::registrar_ontology(),
        PlannerConfig::default(),
    );
    let store = ontorew_workloads::registrar_abox(1500, 8, 3);
    let registry = global_registry();
    let computed = |mode: &str| {
        registry
            .counter(
                "plan_materializations_total",
                "Materializations computed, by mode (scratch, incremental, dred).",
                &[("mode", mode)],
            )
            .get()
    };
    let total = || computed("scratch") + computed("incremental") + computed("dred");
    let hits = || {
        registry
            .counter(
                "plan_materialization_cache_hits_total",
                "Materialization cache hits (version token matched).",
                &[],
            )
            .get()
    };
    let (computed_before, hits_before) = (total(), hits());

    let barrier = Barrier::new(2);
    let outcomes: Vec<(usize, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    let (materialization, cached) = planner.materialize(&store, Some(7));
                    (materialization.facts, cached)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("materializing thread panicked"))
            .collect()
    });

    assert_eq!(total() - computed_before, 1, "one chase for two misses");
    assert_eq!(hits() - hits_before, 1, "the waiter counts as a hit");
    assert_eq!(outcomes[0].0, outcomes[1].0, "both see the same model");
    assert_eq!(
        outcomes.iter().filter(|(_, cached)| *cached).count(),
        1,
        "{outcomes:?}"
    );
}
