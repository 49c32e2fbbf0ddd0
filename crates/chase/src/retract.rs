//! Incremental deletion by delete-and-rederive (DRed) over the derivation
//! graph.
//!
//! [`chase_retract`] removes a set of asserted (base) facts from a finished,
//! provenance-tracked chase and repairs the materialization without
//! re-chasing from scratch. Every step is a worklist over the graph's
//! adjacency indexes, so the work is proportional to the facts and edges the
//! retraction can reach — never to the graph:
//!
//! 1. **Overdelete** — the downward closure of the removed facts along the
//!    *uses* index (fact → edges with it as a premise) is marked doomed (a
//!    deliberate overapproximation: a doomed fact may have other support).
//! 2. **Rederive** — doomed facts with a surviving alternative derivation
//!    are revived: first by probing the *derivers* (fact → edges concluding
//!    it) of each doomed fact, then by following the uses of every revived
//!    fact. The reviving edge becomes the fact's new support, so supports
//!    stay well-founded: a revived fact rests on undoomed facts and on facts
//!    revived before it. Reviver edges are all fired edges (replaying an
//!    existential firing keeps its recorded nulls — sound, the result stays
//!    a universal model) plus the *witness* edges of existential-free rules
//!    (their head image is exactly what firing would produce). Witness edges
//!    of existential rules never revive directly: their image may contain
//!    terms the premises do not justify.
//! 3. **Prune** — only the edges touching a dead fact are tombstoned; the
//!    trigger keys they retired are *dropped* (the verdict is stale).
//! 4. **Reprocess dropped keys** — every dropped key is re-examined against
//!    the repaired instance: if the rule body still matches the key's
//!    frontier image, the trigger is re-fired (or a new witness is recorded
//!    under the restricted variant). This covers the derivations the
//!    original run never recorded — e.g. a second body homomorphism sharing
//!    the frontier image of an edge that died, or a restricted trigger whose
//!    satisfying witness was deleted.
//! 5. **Continue** — the refired facts seed an ordinary semi-naive
//!    continuation (`crate::engine::run_chase_rounds`), closing the
//!    instance under the program again.
//!
//! The repair is written into a fresh top layer over the base's graph
//! (tombstones, withdrawn assertions and re-elected supports as an overlay),
//! so the base stays valid and shares its layers with the result.
//!
//! Equivalence to a scratch chase over (inputs − removed): exact up to null
//! renaming for Datalog programs and for the semi-oblivious variant (firing
//! there is determined per frontier image). Under the restricted variant
//! with existential rules the firing *order* is deletion-history dependent,
//! so the result may keep redundant nulls a scratch chase would avoid (or
//! vice versa) — it is still a universal model of the surviving database,
//! homomorphically equivalent to the scratch chase, hence with identical
//! certain answers. The property tests pin exactly this contract.

use crate::engine::{
    chase, run_chase_rounds, sequential_round_search, ChaseConfig, ChaseOutcome, ChaseResult,
    ChaseStrategy, ChaseVariant,
};
use crate::layered::TriggerKeySet;
use crate::provenance::{DerivationEdge, EdgeId, FactId};
use crate::trigger::{RulePlan, Trigger, TriggerKey};
use ontorew_model::prelude::*;
use ontorew_telemetry::span;
use ontorew_unify::find_homomorphism;
use std::collections::HashMap;

/// The result of an incremental retraction (see [`chase_retract`]).
#[derive(Clone, Debug)]
pub struct RetractedChase {
    /// The repaired chase state over `base − removed`, closed under the
    /// program, with an updated derivation graph.
    pub result: ChaseResult,
    /// Facts actually removed from the instance (requested base facts plus
    /// cascaded derived facts, minus everything rederived).
    pub removed: usize,
    /// The facts behind `removed`: what left the instance.
    pub removed_facts: Vec<Atom>,
    /// Facts that entered the instance: re-fired heads plus everything the
    /// continuation derived from them.
    pub added: Instance,
    /// Size of the overdeleted downward closure (before rederivation).
    pub overdeleted: usize,
    /// Doomed facts revived because an alternative derivation survived.
    pub rederived: usize,
    /// Triggers re-fired while reprocessing dropped keys.
    pub refired: usize,
    /// True when the base was not a terminated fixpoint and the retraction
    /// fell back to a scratch chase of the surviving base facts.
    pub scratch: bool,
}

/// Incrementally retract the base facts of `removed` from a finished chase.
///
/// `base` must have been produced with [`ChaseConfig::track_provenance`]
/// (this function panics otherwise — without the derivation graph there is
/// nothing to walk). Facts of `removed` that are unknown, already dead, or
/// derived-only (never asserted) are ignored: retraction withdraws
/// assertions, and a fact that is still derivable stays derivable.
///
/// If `base.outcome` is not [`ChaseOutcome::Terminated`] the recorded graph
/// is only a partial account of the instance, so the function falls back to
/// a scratch chase over (base facts − removed) — sound, just not
/// incremental.
pub fn chase_retract(
    program: &TgdProgram,
    base: &ChaseResult,
    removed: &Instance,
    config: &ChaseConfig,
) -> RetractedChase {
    let base_graph = base.provenance.as_ref().expect(
        "chase_retract requires a derivation graph: run the base chase with \
         ChaseConfig::track_provenance enabled (with_provenance(true))",
    );
    let mut run_span = span("chase.retract");
    run_span.attr("delta", removed.len());
    let config = ChaseConfig {
        strategy: ChaseStrategy::SemiNaive,
        track_provenance: true,
        ..*config
    };
    if base.outcome != ChaseOutcome::Terminated {
        // The graph may be missing the edges of a budget-truncated round:
        // rebuild from the surviving asserted facts instead.
        let db = Instance::from_atoms(base_graph.base_facts().filter(|a| !removed.contains(a)));
        let result = chase(program, &db, &config);
        return RetractedChase {
            result,
            removed: removed.len(),
            removed_facts: removed.atoms().collect(),
            added: Instance::new(),
            overdeleted: 0,
            rederived: 0,
            refired: 0,
            scratch: true,
        };
    }

    // O(#layers): the clone shares every frozen layer of the base. The
    // freeze is a no-op on the graphs the chase entry points return; it
    // guarantees the adjacency indexes cover every recorded edge.
    let mut graph = base_graph.clone();
    graph.freeze();
    let plans: Vec<RulePlan> = program.iter().map(RulePlan::new).collect();

    // 1. Withdraw the assertions. Only live base facts seed the overdelete;
    // a derived-only fact cannot be retracted (it is entailed regardless).
    // `doomed[fact]` is `None` while the fact is condemned and `Some(edge)`
    // once `edge` rederived it.
    let mut doomed: HashMap<FactId, Option<EdgeId>> = HashMap::new();
    let mut queue: Vec<FactId> = Vec::new();
    for atom in removed.atoms() {
        if let Some(id) = graph.id_of(&atom) {
            if graph.withdraw(id) {
                doomed.insert(id, None);
                queue.push(id);
            }
        }
    }

    // 2. Overdelete: close doomed downward through every edge using a doomed
    // premise — fired edges because their conclusions were genuinely derived
    // from the premises, and witness edges because an earlier retraction may
    // have left one as a fact's only recorded support (a withdrawn assertion
    // that stayed because the witness rederived it). Overdeleting through a
    // witness edge is only ever an overapproximation: its conclusions all
    // have their own legitimate edges, which the rederivation pass consults.
    // Facts still asserted (base) are never doomed by cascade.
    while let Some(fact) = queue.pop() {
        for edge in graph.uses(fact) {
            for &conclusion in graph.edge(edge).conclusions {
                let state = graph.state(conclusion);
                if state.alive && !state.base && doomed.insert(conclusion, None).is_none() {
                    queue.push(conclusion);
                }
            }
        }
    }
    let overdeleted = doomed.len();

    // 3. Rederive: an edge revives its doomed conclusions when all its
    // premises are supported — undoomed (a live edge has live premises) or
    // revived earlier. Growth is monotone from the undoomed facts, so no
    // doomed fact can support itself through a cycle. Candidates are the
    // derivers of the doomed facts, then the uses of each revived fact.
    let revives = |edge: &DerivationEdge<'_>, doomed: &HashMap<FactId, Option<EdgeId>>| {
        (!edge.satisfied || plans[edge.rule].existentials.is_empty())
            && edge
                .premises
                .iter()
                .all(|p| doomed.get(p).is_none_or(|revived| revived.is_some()))
    };
    let mut condemned: Vec<FactId> = doomed.keys().copied().collect();
    condemned.sort_unstable();
    for &fact in &condemned {
        if let Some(edge) = graph
            .derivers(fact)
            .find(|&edge| revives(&graph.edge(edge), &doomed))
        {
            doomed.insert(fact, Some(edge));
            queue.push(fact);
        }
    }
    while let Some(fact) = queue.pop() {
        for edge in graph.uses(fact) {
            let recorded = graph.edge(edge);
            if !revives(&recorded, &doomed) {
                continue;
            }
            for &conclusion in recorded.conclusions {
                if doomed.get(&conclusion) == Some(&None) {
                    doomed.insert(conclusion, Some(edge));
                    queue.push(conclusion);
                }
            }
        }
    }

    // 4. Settle the verdicts: revived facts take their reviving edge as
    // support, the rest are tombstoned and leave the instance.
    let mut dead: Vec<FactId> = Vec::new();
    for &fact in &condemned {
        match doomed[&fact] {
            Some(edge) => graph.set_support(fact, edge),
            None => {
                graph.kill_fact(fact);
                dead.push(fact);
            }
        }
    }
    let rederived = overdeleted - dead.len();
    let removed_facts: Vec<Atom> = dead.iter().map(|&id| graph.atom(id)).collect();
    let mut instance = base.instance.clone();
    let removed_count = instance.remove_atoms(removed_facts.iter());

    // 5. Prune the graph: an edge survives only if every premise and every
    // conclusion is still alive, so exactly the edges adjacent to a dead
    // fact go. Their keys are *dropped* — the verdict is stale.
    let mut dropped: Vec<TriggerKey> = Vec::new();
    for &fact in &dead {
        let touching: Vec<EdgeId> = graph.uses(fact).chain(graph.derivers(fact)).collect();
        for edge in touching {
            if graph.kill_edge(edge) {
                dropped.push(graph.edge(edge).key());
            }
        }
    }
    dropped.sort();
    dropped.dedup();

    // 6. Reprocess the dropped keys against the repaired instance. The
    // original run may have skipped alternative derivations sharing a key
    // (the per-key dedup) or satisfied a trigger against a now-deleted
    // witness; re-matching the body seeded with the frontier image recovers
    // exactly those triggers. Round semantics: every key is judged against
    // the stage-start instance, insertions land afterwards.
    let mut refired = 0usize;
    let mut new_facts: Vec<Atom> = Vec::new();
    for key in dropped {
        let rule = &program.rules()[key.rule_index];
        let plan = &plans[key.rule_index];
        let mut seed = Substitution::new();
        for (v, t) in plan.frontier.iter().zip(key.frontier_image.iter()) {
            seed.bind(*v, *t);
        }
        let Some(homomorphism) = find_homomorphism(&rule.body, &instance, &seed) else {
            // No surviving body match: the trigger is gone for good.
            continue;
        };
        let trigger = Trigger {
            rule_index: key.rule_index,
            homomorphism,
        };
        let witness = match config.variant {
            ChaseVariant::Oblivious => None,
            ChaseVariant::Restricted => {
                trigger.satisfying_image(&rule.head, &plan.frontier, &instance)
            }
        };
        let satisfied = witness.is_some();
        let conclusions =
            witness.unwrap_or_else(|| trigger.fire_with(&rule.head, &plan.existentials));
        graph.record_edge(
            key.rule_index,
            &key.frontier_image,
            &rule.body,
            &trigger.homomorphism,
            &conclusions,
            satisfied,
        );
        if !satisfied {
            new_facts.extend(conclusions);
            refired += 1;
        }
    }
    let mut refired_delta = Instance::new();
    for fact in new_facts {
        if instance.insert(fact.clone()) {
            refired_delta.insert(fact);
        }
    }

    // 7. Close under the program again: the refired facts are the seed of an
    // ordinary semi-naive continuation.
    let mut added = refired_delta.clone();
    let mut result = if refired_delta.is_empty() {
        graph.freeze();
        ChaseResult {
            instance,
            rounds: 0,
            fired: 0,
            outcome: ChaseOutcome::Terminated,
            fired_keys: TriggerKeySet::default(),
            provenance: Some(graph),
        }
    } else {
        let (result, derived) = run_chase_rounds(
            program,
            &plans,
            instance,
            Some(refired_delta),
            TriggerKeySet::default(),
            Some(graph),
            true,
            &config,
            sequential_round_search(program, &plans, &config),
        );
        added.extend_from(&derived);
        result
    };
    result.fired += refired;
    run_span.attr("overdeleted", overdeleted);
    run_span.attr("rederived", rederived);
    run_span.attr("refired", refired);
    RetractedChase {
        result,
        removed: removed_count,
        removed_facts,
        added,
        overdeleted,
        rederived,
        refired,
        scratch: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::is_model;
    use crate::equiv::{equivalent_up_to_null_renaming, homomorphically_equivalent};
    use ontorew_model::parse_program;

    fn tracked() -> ChaseConfig {
        ChaseConfig::default().with_provenance(true)
    }

    fn retract_facts(
        program: &TgdProgram,
        base: &ChaseResult,
        facts: &[Atom],
        config: &ChaseConfig,
    ) -> RetractedChase {
        let removed = Instance::from_atoms(facts.iter().cloned());
        chase_retract(program, base, &removed, config)
    }

    #[test]
    fn datalog_retraction_matches_scratch_exactly() {
        let p = parse_program(
            "[R1] edge(X, Y) -> path(X, Y).\n\
             [R2] path(X, Y), edge(Y, Z) -> path(X, Z).",
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert_fact("edge", &["a", "b"]);
        db.insert_fact("edge", &["b", "c"]);
        db.insert_fact("edge", &["c", "d"]);
        let base = chase(&p, &db, &tracked());
        let out = retract_facts(&p, &base, &[Atom::fact("edge", &["b", "c"])], &tracked());
        assert!(!out.scratch);
        assert!(out.result.is_universal_model());
        // Scratch oracle over the surviving database.
        let mut survivors = db.clone();
        survivors.remove(&Atom::fact("edge", &["b", "c"]));
        let oracle = chase(&p, &survivors, &tracked());
        assert_eq!(out.result.instance, oracle.instance);
        // path(a,b) and path(c,d) survive; the b→c bridge is gone.
        assert!(out
            .result
            .instance
            .contains(&Atom::fact("path", &["a", "b"])));
        assert!(!out
            .result
            .instance
            .contains(&Atom::fact("path", &["a", "c"])));
        assert!(!out
            .result
            .instance
            .contains(&Atom::fact("path", &["a", "d"])));
        assert!(out.removed >= 4); // edge(b,c), path(b,c), path(b,d), path(a,c), path(a,d)
        assert!(is_model(&p, &out.result.instance));
    }

    #[test]
    fn alternative_derivations_are_rederived() {
        // d(x) holds through two independent rules; deleting one premise
        // must keep it.
        let p = parse_program(
            "[R1] a(X) -> d(X).\n\
             [R2] b(X) -> d(X).",
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert_fact("a", &["x"]);
        db.insert_fact("b", &["x"]);
        let base = chase(&p, &db, &tracked());
        let out = retract_facts(&p, &base, &[Atom::fact("a", &["x"])], &tracked());
        assert!(out.result.instance.contains(&Atom::fact("d", &["x"])));
        assert!(!out.result.instance.contains(&Atom::fact("a", &["x"])));
        assert!(out.rederived >= 1 || out.refired >= 1);
        assert!(is_model(&p, &out.result.instance));
    }

    #[test]
    fn same_key_alternative_homomorphisms_are_recovered() {
        // Two body matches share the frontier image {a}; the recorded edge
        // used one of them. Deleting that premise must re-fire from the
        // surviving alternative instead of killing s(a, _).
        let p = parse_program("[R1] r(X, Y) -> s(X, Z).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("r", &["a", "b1"]);
        db.insert_fact("r", &["a", "b2"]);
        for config in [tracked(), ChaseConfig::oblivious(64).with_provenance(true)] {
            let base = chase(&p, &db, &config);
            for doomed in ["b1", "b2"] {
                let out = retract_facts(&p, &base, &[Atom::fact("r", &["a", doomed])], &config);
                assert_eq!(
                    out.result.instance.relation_size(Predicate::new("s", 2)),
                    1,
                    "s(a, _) must survive deleting r(a, {doomed})"
                );
                assert!(out.result.is_universal_model());
                assert!(is_model(&p, &out.result.instance));
            }
        }
    }

    #[test]
    fn deleting_a_restricted_witness_refires_the_trigger() {
        // The restricted chase never fired person(alice)'s trigger: the
        // asserted parent satisfied it (a witness edge). Deleting the
        // witness must re-activate and fire the trigger with a fresh null.
        let p = parse_program("[R1] person(X) -> hasParent(X, Y).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("person", &["alice"]);
        db.insert_fact("hasParent", &["alice", "zoe"]);
        let base = chase(&p, &db, &tracked());
        assert_eq!(base.fired, 0);
        let out = retract_facts(
            &p,
            &base,
            &[Atom::fact("hasParent", &["alice", "zoe"])],
            &tracked(),
        );
        assert!(out.result.is_universal_model());
        assert_eq!(out.refired, 1);
        assert_eq!(out.result.instance.nulls().len(), 1);
        assert!(is_model(&p, &out.result.instance));
        // And equivalent to the scratch oracle.
        let mut survivors = db.clone();
        survivors.remove(&Atom::fact("hasParent", &["alice", "zoe"]));
        let oracle = chase(&p, &survivors, &tracked());
        assert!(equivalent_up_to_null_renaming(
            &out.result.instance,
            &oracle.instance
        ));
    }

    #[test]
    fn existential_witness_edges_do_not_resurrect_deleted_facts() {
        // hasParent(alice, zoe) witnessed R1's trigger. zoe is *not*
        // justified by person(alice); deleting the witness must not use the
        // witness edge to revive it.
        let p = parse_program("[R1] person(X) -> hasParent(X, Y).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("person", &["alice"]);
        db.insert_fact("hasParent", &["alice", "zoe"]);
        let base = chase(&p, &db, &tracked());
        let out = retract_facts(
            &p,
            &base,
            &[Atom::fact("hasParent", &["alice", "zoe"])],
            &tracked(),
        );
        assert!(!out
            .result
            .instance
            .contains(&Atom::fact("hasParent", &["alice", "zoe"])));
    }

    #[test]
    fn oblivious_retraction_is_isomorphic_to_scratch() {
        let p = parse_program(
            "[R1] r(X, Y) -> s(X, Z).\n\
             [R2] s(X, Z) -> t(Z).",
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert_fact("r", &["a", "b"]);
        db.insert_fact("r", &["c", "d"]);
        let config = ChaseConfig::oblivious(64).with_provenance(true);
        let base = chase(&p, &db, &config);
        let out = retract_facts(&p, &base, &[Atom::fact("r", &["a", "b"])], &config);
        let mut survivors = db.clone();
        survivors.remove(&Atom::fact("r", &["a", "b"]));
        let oracle = chase(&p, &survivors, &config);
        assert!(out.result.is_universal_model());
        assert!(equivalent_up_to_null_renaming(
            &out.result.instance,
            &oracle.instance
        ));
    }

    #[test]
    fn retracting_a_derived_only_fact_is_a_no_op() {
        let p = parse_program("[R1] a(X) -> b(X).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("a", &["x"]);
        let base = chase(&p, &db, &tracked());
        // b(x) is derived, never asserted: the retraction withdraws nothing.
        let out = retract_facts(&p, &base, &[Atom::fact("b", &["x"])], &tracked());
        assert_eq!(out.removed, 0);
        assert_eq!(out.result.instance, base.instance);
        // Unknown facts are ignored too.
        let out = retract_facts(&p, &base, &[Atom::fact("zzz", &["q"])], &tracked());
        assert_eq!(out.removed, 0);
    }

    #[test]
    fn retracting_an_asserted_and_derived_fact_keeps_it_derivable() {
        // b(x) is both asserted and derivable from a(x): withdrawing the
        // assertion keeps the fact (with derived status).
        let p = parse_program("[R1] a(X) -> b(X).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("a", &["x"]);
        db.insert_fact("b", &["x"]);
        let base = chase(&p, &db, &tracked());
        let out = retract_facts(&p, &base, &[Atom::fact("b", &["x"])], &tracked());
        assert!(out.result.instance.contains(&Atom::fact("b", &["x"])));
        assert_eq!(out.removed, 0);
        assert!(out.rederived >= 1 || out.refired >= 1);
        // But now deleting a(x) takes b(x) with it.
        let out2 = chase_retract(
            &p,
            &out.result,
            &Instance::from_atoms([Atom::fact("a", &["x"])]),
            &tracked(),
        );
        assert!(out2.result.instance.is_empty());
    }

    #[test]
    fn chained_retractions_stay_consistent() {
        // Alternate deletes over a transitive closure and compare against
        // the scratch oracle after each step.
        let p = parse_program(
            "[R1] edge(X, Y) -> path(X, Y).\n\
             [R2] path(X, Y), edge(Y, Z) -> path(X, Z).",
        )
        .unwrap();
        let mut db = Instance::new();
        for i in 0..6u32 {
            db.insert_fact("edge", &[&format!("n{i}"), &format!("n{}", i + 1)]);
        }
        let mut state = chase(&p, &db, &tracked());
        for i in [1u32, 4, 2] {
            let doomed = Atom::fact("edge", &[&format!("n{i}"), &format!("n{}", i + 1)]);
            db.remove(&doomed);
            state = chase_retract(&p, &state, &Instance::from_atoms([doomed]), &tracked()).result;
            let oracle = chase(&p, &db, &tracked());
            assert_eq!(state.instance, oracle.instance);
            assert!(state.is_universal_model());
        }
    }

    #[test]
    fn retraction_composes_with_incremental_insertion() {
        // delete then insert then delete, via the incremental paths only,
        // against a scratch oracle at the end.
        let p = parse_program(
            "[R1] edge(X, Y) -> path(X, Y).\n\
             [R2] path(X, Y), edge(Y, Z) -> path(X, Z).",
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert_fact("edge", &["a", "b"]);
        db.insert_fact("edge", &["b", "c"]);
        let mut state = chase(&p, &db, &tracked());

        let doomed = Atom::fact("edge", &["a", "b"]);
        db.remove(&doomed);
        state = chase_retract(&p, &state, &Instance::from_atoms([doomed]), &tracked()).result;

        let mut delta = Instance::new();
        delta.insert_fact("edge", &["c", "d"]);
        db.extend_from(&delta);
        state = crate::engine::chase_incremental(&p, &state, &delta, &tracked()).result;
        assert!(state.provenance.is_some());

        let doomed = Atom::fact("edge", &["c", "d"]);
        db.remove(&doomed);
        state = chase_retract(&p, &state, &Instance::from_atoms([doomed]), &tracked()).result;

        let oracle = chase(&p, &db, &tracked());
        assert_eq!(state.instance, oracle.instance);
    }

    #[test]
    fn restricted_existential_retraction_is_homomorphically_equivalent() {
        let p = parse_program(
            "[R1] emp(X) -> works(X, D), dept(D).\n\
             [R2] works(X, D) -> emp(X).",
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert_fact("emp", &["alice"]);
        db.insert_fact("emp", &["bob"]);
        db.insert_fact("works", &["bob", "sales"]);
        let base = chase(&p, &db, &tracked());
        let out = retract_facts(
            &p,
            &base,
            &[Atom::fact("works", &["bob", "sales"])],
            &tracked(),
        );
        assert!(out.result.is_universal_model());
        assert!(is_model(&p, &out.result.instance));
        let mut survivors = db.clone();
        survivors.remove(&Atom::fact("works", &["bob", "sales"]));
        let oracle = chase(&p, &survivors, &tracked());
        // Restricted + existentials: firing order is history dependent, so
        // only homomorphic equivalence (= same certain answers) is promised.
        assert!(homomorphically_equivalent(
            &out.result.instance,
            &oracle.instance
        ));
    }

    #[test]
    fn non_terminated_base_falls_back_to_scratch() {
        let p = parse_program(
            "[R1] person(X) -> hasParent(X, Y).\n\
             [R2] hasParent(X, Y) -> person(Y).",
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert_fact("person", &["alice"]);
        db.insert_fact("person", &["bob"]);
        let base = chase(&p, &db, &ChaseConfig::restricted(3).with_provenance(true));
        assert_ne!(base.outcome, ChaseOutcome::Terminated);
        let out = retract_facts(
            &p,
            &base,
            &[Atom::fact("person", &["bob"])],
            &ChaseConfig::restricted(3).with_provenance(true),
        );
        assert!(out.scratch);
        assert!(!out
            .result
            .instance
            .contains(&Atom::fact("person", &["bob"])));
        assert!(out
            .result
            .instance
            .contains(&Atom::fact("person", &["alice"])));
    }

    #[test]
    #[should_panic(expected = "requires a derivation graph")]
    fn retraction_without_provenance_panics() {
        let p = parse_program("[R1] a(X) -> b(X).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("a", &["x"]);
        let base = chase(&p, &db, &ChaseConfig::default());
        let _ = retract_facts(
            &p,
            &base,
            &[Atom::fact("a", &["x"])],
            &ChaseConfig::default(),
        );
    }

    #[test]
    fn graph_stays_queryable_after_retraction() {
        let p = parse_program(
            "[R1] edge(X, Y) -> path(X, Y).\n\
             [R2] path(X, Y), edge(Y, Z) -> path(X, Z).",
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert_fact("edge", &["a", "b"]);
        db.insert_fact("edge", &["b", "c"]);
        let base = chase(&p, &db, &tracked());
        let out = retract_facts(&p, &base, &[Atom::fact("edge", &["a", "b"])], &tracked());
        let graph = out.result.provenance.as_ref().unwrap();
        // Dead facts are no longer explainable; survivors still are.
        assert!(graph.why(&Atom::fact("path", &["a", "b"])).is_none());
        let steps = graph.why(&Atom::fact("path", &["b", "c"])).unwrap();
        assert_eq!(steps[0].rule, Some(0));
        // Node count reflects the retraction.
        assert_eq!(graph.node_count(), out.result.instance.len());
    }
}
