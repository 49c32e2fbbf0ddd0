//! Parallel trigger search.
//!
//! Trigger enumeration (homomorphism search per rule) dominates chase time on
//! large instances and is embarrassingly parallel: every search task only
//! reads the shared instance. This module partitions the work across a scoped
//! thread pool (crossbeam) and merges the per-task trigger lists, and offers
//! [`chase_parallel`], a drop-in variant of [`crate::chase`] that uses the
//! parallel search inside each round. Like the sequential engine it is
//! semi-naive by default: each worker only searches for triggers whose body
//! uses the previous round's delta.
//!
//! Work is split at **two** granularities. Across rules, as before — but
//! also *within* a rule: the semi-naive pivot decomposition enumerates each
//! rule's triggers as a disjoint union over (pivot atom, pivot match), so a
//! rule whose pivot can draw from a large delta is split into `(pivot,
//! chunk)` slices ([`find_rule_triggers_delta_chunk`]) that different
//! threads search independently. Single-rule recursive programs (transitive
//! closure) — where the rule-level split left every thread but one idle —
//! now use the whole pool.

use crate::engine::{ChaseConfig, ChaseResult, ChaseStrategy};
use crate::trigger::{
    find_rule_triggers, find_rule_triggers_delta_chunk, find_rule_triggers_delta_pivot_generic,
    find_rule_triggers_with, RulePlan, Trigger,
};
use ontorew_model::prelude::*;
use ontorew_telemetry::{global_registry, Histogram};
use ontorew_unify::JoinStrategy;
use std::sync::{Arc, OnceLock};

/// Slices produced per parallel delta search — how finely the round's work
/// split across the pool.
fn parallel_chunk_histogram() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        global_registry().histogram(
            "chase_parallel_chunks",
            "Work slices per parallel delta trigger search.",
            &[],
        )
    })
}

/// Enumerate every trigger of `program` on `instance`, searching rules in
/// parallel across `threads` worker threads.
pub fn find_triggers_parallel(
    program: &TgdProgram,
    instance: &Instance,
    threads: usize,
) -> Vec<Trigger> {
    let rules: Vec<(usize, &Tgd)> = program.iter().enumerate().collect();
    run_partitioned(&rules, threads, |(rule_index, rule)| {
        find_rule_triggers(rule_index, rule, instance)
    })
}

/// [`find_triggers_parallel`] with per-rule join strategies taken from
/// `plans` (see [`RulePlan::join_strategy`]): cyclic rules over enough facts
/// search with the generic join, the rest backtrack.
pub fn find_triggers_parallel_with(
    program: &TgdProgram,
    plans: &[RulePlan],
    instance: &Instance,
    threads: usize,
) -> Vec<Trigger> {
    let rules: Vec<(usize, &Tgd)> = program.iter().enumerate().collect();
    run_partitioned(&rules, threads, |(rule_index, rule)| {
        find_rule_triggers_with(
            rule_index,
            rule,
            instance,
            plans[rule_index].join_strategy(instance),
        )
    })
}

/// A delta chunk below this many pivot rows is not worth a dedicated slice:
/// the spawn/merge overhead would exceed the search it parallelises.
const MIN_DELTA_ROWS_PER_CHUNK: usize = 32;

/// One slice of a round's delta-restricted trigger search: rule
/// `rule_index`, pivot atom `pivot`, residue class `chunk` of
/// `chunk_count`.
#[derive(Clone, Copy)]
struct DeltaSlice {
    rule_index: usize,
    pivot: usize,
    chunk: usize,
    chunk_count: usize,
    /// Search this slice with the generic join instead of backtracking.
    /// Generic-join slices are always whole pivots (`chunk_count == 1`):
    /// the variable-at-a-time search has no row-stride to split on, but the
    /// per-pivot searches are already independent work units.
    generic: bool,
}

/// Enumerate every trigger of `program` on `instance` whose body uses at
/// least one fact of `delta` (see
/// [`crate::trigger::find_rule_triggers_delta`]), searching in parallel.
/// Rules whose body predicates miss the delta entirely are skipped without
/// a search; rules whose pivot draws from a large delta are split into
/// per-pivot chunks so even a single eligible rule saturates the pool.
pub fn find_triggers_delta_parallel(
    program: &TgdProgram,
    plans: &[RulePlan],
    instance: &Instance,
    delta: &Instance,
    threads: usize,
) -> Vec<Trigger> {
    let threads = threads.max(1);
    let mut slices: Vec<DeltaSlice> = Vec::new();
    for (rule_index, rule) in program.iter().enumerate() {
        if !plans[rule_index].body_touches(delta) {
            continue;
        }
        let generic = plans[rule_index].join_strategy(instance) == JoinStrategy::GenericJoin;
        for (pivot, atom) in rule.body.iter().enumerate() {
            // The pivot atom is matched against the delta first; the number
            // of delta rows under its predicate bounds that enumeration and
            // decides how many ways to split it (generic-join slices are
            // whole pivots).
            let pivot_rows = delta.relation_size(atom.predicate);
            let chunk_count = if generic {
                1
            } else {
                (pivot_rows / MIN_DELTA_ROWS_PER_CHUNK).clamp(1, threads)
            };
            for chunk in 0..chunk_count {
                slices.push(DeltaSlice {
                    rule_index,
                    pivot,
                    chunk,
                    chunk_count,
                    generic,
                });
            }
        }
    }
    parallel_chunk_histogram().observe(slices.len() as u64);
    let rules = program.rules();
    run_partitioned(&slices, threads, |slice| {
        if slice.generic {
            find_rule_triggers_delta_pivot_generic(
                slice.rule_index,
                &rules[slice.rule_index],
                instance,
                delta,
                slice.pivot,
            )
        } else {
            find_rule_triggers_delta_chunk(
                slice.rule_index,
                &rules[slice.rule_index],
                instance,
                delta,
                slice.pivot,
                slice.chunk,
                slice.chunk_count,
            )
        }
    })
}

/// Partition `items` into `threads` contiguous runs and run `search` over
/// each run on its own scoped thread, concatenating the per-item trigger
/// lists in item order (so the merged list is deterministic for a given
/// slicing).
fn run_partitioned<T: Copy + Sync>(
    items: &[T],
    threads: usize,
    search: impl Fn(T) -> Vec<Trigger> + Sync,
) -> Vec<Trigger> {
    let threads = threads.max(1);
    if items.is_empty() {
        return Vec::new();
    }
    let chunk_size = items.len().div_ceil(threads);
    let mut all = Vec::new();
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::new();
        for chunk in items.chunks(chunk_size) {
            let search = &search;
            handles.push(scope.spawn(move |_| {
                let mut local = Vec::new();
                for entry in chunk {
                    local.extend(search(*entry));
                }
                local
            }));
        }
        for h in handles {
            all.extend(h.join().expect("trigger worker panicked"));
        }
    })
    .expect("crossbeam scope failed");
    all
}

/// Run the chase using parallel trigger search inside each round.
///
/// Produces the same result as [`crate::chase`] (up to the naming of invented
/// nulls) because it shares the sequential engine's round driver — only the
/// per-round trigger search is parallelised. Honours `config.strategy`
/// exactly like the sequential engine.
pub fn chase_parallel(
    program: &TgdProgram,
    database: &Instance,
    config: &ChaseConfig,
    threads: usize,
) -> ChaseResult {
    let plans: Vec<RulePlan> = program.iter().map(RulePlan::new).collect();
    let graph = config
        .track_provenance
        .then(|| crate::provenance::DerivationGraph::seeded(database));
    let (result, _added) = crate::engine::run_chase_rounds(
        program,
        &plans,
        database.clone(),
        None,
        crate::layered::TriggerKeySet::default(),
        graph,
        false,
        config,
        |instance, delta| match (config.strategy, delta) {
            // Full parallel search when there is no delta to restrict to
            // (the naive strategy, or the semi-naive strategy's round 1).
            (ChaseStrategy::Naive, _) | (ChaseStrategy::SemiNaive, None) => {
                find_triggers_parallel_with(program, &plans, instance, threads)
            }
            (ChaseStrategy::SemiNaive, Some(delta)) => {
                find_triggers_delta_parallel(program, &plans, instance, delta, threads)
            }
        },
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::chase;
    use crate::equiv::equivalent_up_to_null_renaming;
    use ontorew_model::parse_program;

    fn transitive_closure_setup() -> (TgdProgram, Instance) {
        let p = parse_program(
            "[R1] edge(X, Y) -> path(X, Y).\n\
             [R2] path(X, Y), edge(Y, Z) -> path(X, Z).",
        )
        .unwrap();
        let mut db = Instance::new();
        for i in 0..10u32 {
            db.insert_fact("edge", &[&format!("n{i}"), &format!("n{}", i + 1)]);
        }
        (p, db)
    }

    #[test]
    fn parallel_trigger_search_matches_sequential() {
        let (p, db) = transitive_closure_setup();
        let sequential = crate::trigger::find_triggers(&p, &db);
        let parallel = find_triggers_parallel(&p, &db, 4);
        assert_eq!(sequential.len(), parallel.len());
    }

    #[test]
    fn parallel_delta_search_matches_sequential_delta_search() {
        let (p, db) = transitive_closure_setup();
        let plans: Vec<RulePlan> = p.iter().map(RulePlan::new).collect();
        let mut delta = Instance::new();
        delta.insert_fact("edge", &["n0", "n1"]);
        let sequential: usize = p
            .iter()
            .enumerate()
            .map(|(i, r)| crate::trigger::find_rule_triggers_delta(i, r, &db, &delta).len())
            .sum();
        let parallel = find_triggers_delta_parallel(&p, &plans, &db, &delta, 4);
        assert_eq!(sequential, parallel.len());
    }

    #[test]
    fn chunked_delta_search_matches_sequential_on_large_deltas() {
        // A delta big enough to be split within the single recursive rule:
        // the partitioned search must return exactly the sequential trigger
        // set (same homomorphisms, no duplicates).
        let (p, _) = transitive_closure_setup();
        let plans: Vec<RulePlan> = p.iter().map(RulePlan::new).collect();
        let mut db = Instance::new();
        let mut delta = Instance::new();
        for i in 0..200u32 {
            db.insert_fact("edge", &[&format!("n{i}"), &format!("n{}", i + 1)]);
            db.insert_fact("path", &[&format!("n{i}"), &format!("n{}", i + 1)]);
            delta.insert_fact("path", &[&format!("n{i}"), &format!("n{}", i + 1)]);
        }
        let sequential: Vec<Trigger> = p
            .iter()
            .enumerate()
            .flat_map(|(i, r)| crate::trigger::find_rule_triggers_delta(i, r, &db, &delta))
            .collect();
        let parallel = find_triggers_delta_parallel(&p, &plans, &db, &delta, 8);
        assert_eq!(sequential.len(), parallel.len());
        // Same multiset of (rule, homomorphism) pairs.
        let key = |t: &Trigger| (t.rule_index, format!("{:?}", t.homomorphism));
        let mut seq_keys: Vec<_> = sequential.iter().map(key).collect();
        let mut par_keys: Vec<_> = parallel.iter().map(key).collect();
        seq_keys.sort();
        par_keys.sort();
        assert_eq!(seq_keys, par_keys);
    }

    #[test]
    fn parallel_chase_matches_sequential_on_datalog() {
        let (p, db) = transitive_closure_setup();
        let seq = chase(&p, &db, &ChaseConfig::default());
        let par = chase_parallel(&p, &db, &ChaseConfig::default(), 4);
        assert!(seq.is_universal_model());
        assert!(par.is_universal_model());
        // Datalog programs invent no nulls, so the instances must be equal.
        assert_eq!(seq.instance, par.instance);
    }

    #[test]
    fn parallel_chase_matches_sequential_on_wide_datalog_rounds() {
        // Large per-round deltas exercise the within-rule chunk split end to
        // end (200 path-facts per round from one recursive rule).
        let p = parse_program(
            "[R1] edge(X, Y) -> path(X, Y).\n\
             [R2] path(X, Y), edge(Y, Z) -> path(X, Z).",
        )
        .unwrap();
        let mut db = Instance::new();
        for i in 0..200u32 {
            db.insert_fact("edge", &[&format!("m{i}"), &format!("m{}", i + 1)]);
        }
        let config = ChaseConfig::restricted(8);
        let seq = chase(&p, &db, &config);
        let par = chase_parallel(&p, &db, &config, 8);
        assert_eq!(seq.instance, par.instance);
        assert_eq!(seq.fired, par.fired);
        assert_eq!(seq.outcome, par.outcome);
    }

    #[test]
    fn parallel_naive_strategy_matches_semi_naive() {
        let (p, db) = transitive_closure_setup();
        let naive = chase_parallel(&p, &db, &ChaseConfig::naive(), 4);
        let semi = chase_parallel(&p, &db, &ChaseConfig::default(), 4);
        assert!(naive.is_universal_model());
        assert!(semi.is_universal_model());
        assert_eq!(naive.instance, semi.instance);
        assert_eq!(naive.fired, semi.fired);
    }

    #[test]
    fn parallel_chase_with_existentials_is_isomorphic_in_size() {
        let p = parse_program("[R1] person(X) -> hasParent(X, Y).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("person", &["alice"]);
        db.insert_fact("person", &["bob"]);
        let seq = chase(&p, &db, &ChaseConfig::default());
        let par = chase_parallel(&p, &db, &ChaseConfig::default(), 2);
        assert_eq!(seq.instance.len(), par.instance.len());
        assert_eq!(seq.instance.nulls().len(), par.instance.nulls().len());
        assert!(equivalent_up_to_null_renaming(&seq.instance, &par.instance));
    }

    #[test]
    fn cyclic_rule_chase_uses_generic_join_and_matches_sequential() {
        // Triangle-closing rule over enough edges that the per-rule strategy
        // graduates to the generic join (both sequentially and in the
        // parallel engine's whole-pivot slices).
        let p =
            parse_program("[R1] follows(X, Y), follows(Y, Z), follows(Z, X) -> triangle(X, Y, Z).")
                .unwrap();
        let mut db = Instance::new();
        for i in 0..80u32 {
            db.insert_fact(
                "follows",
                &[&format!("u{i}"), &format!("u{}", (i * 7 + 1) % 80)],
            );
            db.insert_fact(
                "follows",
                &[&format!("u{i}"), &format!("u{}", (i + 1) % 80)],
            );
        }
        let plans: Vec<RulePlan> = p.iter().map(RulePlan::new).collect();
        assert!(plans[0].cyclic);
        assert_eq!(plans[0].join_strategy(&db), JoinStrategy::GenericJoin);
        let seq = chase(&p, &db, &ChaseConfig::default());
        let par = chase_parallel(&p, &db, &ChaseConfig::default(), 4);
        assert!(seq.is_universal_model());
        assert_eq!(seq.instance, par.instance);
        assert_eq!(seq.fired, par.fired);
        // And the trigger sets match the backtracking search exactly.
        let bt = crate::trigger::find_rule_triggers(0, &p.rules()[0], &db);
        let gj = find_rule_triggers_with(0, &p.rules()[0], &db, JoinStrategy::GenericJoin);
        let key = |t: &Trigger| format!("{:?}", t.homomorphism);
        let mut bt_keys: Vec<_> = bt.iter().map(key).collect();
        let mut gj_keys: Vec<_> = gj.iter().map(key).collect();
        bt_keys.sort();
        gj_keys.sort();
        assert_eq!(bt_keys, gj_keys);
    }

    #[test]
    fn single_thread_degenerates_gracefully() {
        let (p, db) = transitive_closure_setup();
        let par = chase_parallel(&p, &db, &ChaseConfig::default(), 1);
        assert!(par.is_universal_model());
    }

    #[test]
    fn more_threads_than_rules_is_fine() {
        let (p, db) = transitive_closure_setup();
        let par = find_triggers_parallel(&p, &db, 64);
        assert!(!par.is_empty());
    }
}
