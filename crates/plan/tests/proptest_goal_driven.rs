//! Property-based equivalence for the goal-driven (magic-sets) pipeline.
//!
//! The magic-sets guarantee: chasing the adorned/guarded program over the
//! instance plus the query's demand seeds answers the original query exactly
//! like a full-model chase — while deriving only goal-relevant facts. The
//! properties here check that guarantee over random Datalog-heavy programs
//! and constant-binding queries, under **both** chase variants (restricted
//! and oblivious), both at the magic-rewrite level and through the planner's
//! natural path (whatever plan it picks must agree with a forced full
//! chase). The paper's Examples 1–3 are pinned against the new pipeline at
//! the bottom.

use ontorew_chase::{chase, ChaseConfig, ChaseVariant};
use ontorew_core::examples::{example1, example2, example2_query, example3};
use ontorew_model::prelude::*;
use ontorew_plan::{
    rewrite_goal_driven, Inadmissible, PlanKind, Planner, PlannerConfig, PlannerError,
};
use ontorew_storage::evaluate_cq;
use proptest::prelude::*;

const CLASSES: usize = 5;
const ROLES: usize = 3;

/// One generated rule of a Datalog family rich enough to exercise every
/// magic-sets code path: hierarchies, typing, sideways joins (bindings must
/// flow left-to-right), transitive closure (adornment self-demand), and —
/// only for the planner-level property — existential invention (the
/// unguarded cascade).
#[derive(Clone, Debug)]
enum RuleSpec {
    /// `c<i>(X) -> c<j>(X)`
    Subclass(usize, usize),
    /// `r<i>(X, Y) -> c<j>(X)`
    RoleDomain(usize, usize),
    /// `c<i>(X), r<j>(X, Y) -> c<k>(Y)` — SIP passes X into the role scan.
    Join(usize, usize, usize),
    /// `r<i>(X, Y), r<i>(Y, Z) -> r<i>(X, Z)` — transitive closure.
    Transitive(usize),
    /// `c<i>(X) -> r<j>(X, Y)` — existential; unguardable.
    Existential(usize, usize),
}

fn datalog_rule() -> impl Strategy<Value = RuleSpec> {
    prop_oneof![
        (0..CLASSES, 0..CLASSES).prop_map(|(i, j)| RuleSpec::Subclass(i, j)),
        (0..ROLES, 0..CLASSES).prop_map(|(i, j)| RuleSpec::RoleDomain(i, j)),
        (0..CLASSES, 0..ROLES, 0..CLASSES).prop_map(|(i, j, k)| RuleSpec::Join(i, j, k)),
        (0..ROLES).prop_map(RuleSpec::Transitive),
    ]
}

fn any_rule() -> impl Strategy<Value = RuleSpec> {
    // The vendored proptest has no weighted arms; repeat the Datalog arm to
    // bias draws roughly 4:1 toward guardable rules.
    prop_oneof![
        datalog_rule(),
        datalog_rule(),
        datalog_rule(),
        datalog_rule(),
        (0..CLASSES, 0..ROLES).prop_map(|(i, j)| RuleSpec::Existential(i, j)),
    ]
}

fn program_of(specs: &[RuleSpec]) -> TgdProgram {
    let mut text = String::new();
    for (n, spec) in specs.iter().enumerate() {
        match spec {
            RuleSpec::Subclass(i, j) if i != j => {
                text.push_str(&format!("[S{n}] c{i}(X) -> c{j}(X).\n"));
            }
            RuleSpec::Subclass(..) => {}
            RuleSpec::RoleDomain(i, j) => {
                text.push_str(&format!("[D{n}] r{i}(X, Y) -> c{j}(X).\n"));
            }
            RuleSpec::Join(i, j, k) => {
                text.push_str(&format!("[J{n}] c{i}(X), r{j}(X, Y) -> c{k}(Y).\n"));
            }
            RuleSpec::Transitive(i) => {
                text.push_str(&format!("[T{n}] r{i}(X, Y), r{i}(Y, Z) -> r{i}(X, Z).\n"));
            }
            RuleSpec::Existential(i, j) => {
                text.push_str(&format!("[E{n}] c{i}(X) -> r{j}(X, Y).\n"));
            }
        }
    }
    if text.is_empty() {
        text.push_str("[S0] c1(X) -> c0(X).\n");
    }
    parse_program(&text).expect("generated program parses")
}

fn facts_strategy() -> impl Strategy<Value = Vec<(String, Vec<String>)>> {
    let constants = || prop::sample::select(vec!["a", "b", "c", "d", "e"]);
    let class_fact =
        (0..CLASSES, constants()).prop_map(|(i, x)| (format!("c{i}"), vec![x.to_string()]));
    let role_fact = (0..ROLES, constants(), constants())
        .prop_map(|(i, x, y)| (format!("r{i}"), vec![x.to_string(), y.to_string()]));
    prop::collection::vec(prop_oneof![class_fact, role_fact], 1..14)
}

/// Queries binding at least one constant — the goal-driven pipeline's
/// candidates — plus the occasional all-free scan (which must fall back).
fn query_strategy() -> impl Strategy<Value = ConjunctiveQuery> {
    let constants = || prop::sample::select(vec!["a", "b", "z"]);
    prop_oneof![
        (0..ROLES, constants())
            .prop_map(|(i, k)| parse_query(&format!("q(X) :- r{i}(\"{k}\", X)")).unwrap()),
        (0..CLASSES, constants())
            .prop_map(|(i, k)| parse_query(&format!("q() :- c{i}(\"{k}\")")).unwrap()),
        (0..CLASSES, 0..ROLES, constants()).prop_map(|(i, j, k)| {
            parse_query(&format!("q(Y) :- r{j}(\"{k}\", Y), c{i}(Y)")).unwrap()
        }),
        (0..CLASSES).prop_map(|i| parse_query(&format!("q(X) :- c{i}(X)")).unwrap()),
    ]
}

fn store_of(facts: &[(String, Vec<String>)]) -> Instance {
    let mut store = Instance::new();
    for (p, args) in facts {
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        store.insert_fact(p, &refs);
    }
    store
}

fn variant_config(variant: ChaseVariant) -> ChaseConfig {
    match variant {
        ChaseVariant::Restricted => ChaseConfig::restricted(64),
        ChaseVariant::Oblivious => ChaseConfig::oblivious(64),
    }
}

proptest! {
    /// Magic-rewrite-level equivalence on pure Datalog (always terminating):
    /// whenever the rewrite is admissible, chasing the restricted program
    /// over instance + seeds answers the original query exactly like the
    /// full chase — under both chase variants.
    #[test]
    fn goal_driven_answers_equal_full_chase_answers(
        specs in prop::collection::vec(datalog_rule(), 1..10),
        facts in facts_strategy(),
        query in query_strategy(),
    ) {
        let program = program_of(&specs);
        let Ok(magic) = rewrite_goal_driven(&program, &query) else {
            // Inadmissible (free query, nothing guardable): the fallback
            // path is covered by the planner-level property below.
            return Ok(());
        };
        let store = store_of(&facts);
        for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
            let config = variant_config(variant);
            let full = chase(&program, &store, &config);
            prop_assert!(full.is_universal_model(), "Datalog chase terminates");
            let mut seeded = store.clone();
            for seed in &magic.seeds {
                seeded.insert(seed.clone());
            }
            let restricted = chase(&magic.program, &seeded, &config);
            prop_assert!(restricted.is_universal_model());
            // Ignoring the demand (magic_*) relations, the restricted chase
            // derives a subset of the full model.
            let non_magic: usize = restricted
                .instance
                .predicates()
                .filter(|p| !p.name_str().starts_with(ontorew_plan::MAGIC_PREFIX))
                .map(|p| restricted.instance.relation_size(p))
                .sum();
            prop_assert!(
                non_magic <= full.instance.len(),
                "the restriction must not derive more than the full model"
            );
            let goal = evaluate_cq(
                &restricted.instance,
                &query,
            )
            .without_nulls();
            let full_answers = evaluate_cq(
                &full.instance,
                &query,
            )
            .without_nulls();
            prop_assert_eq!(
                goal, full_answers,
                "variant {:?} diverged on {} over {:?}", variant, query, program
            );
        }
    }

    /// Planner-level equivalence with existentials in the mix: whatever the
    /// planner picks for a chase-terminating program (goal-driven when
    /// admissible, plain chase otherwise), the answers equal a forced
    /// full-chase plan's — and both claim exactness — under both variants.
    #[test]
    fn planner_chosen_plan_agrees_with_forced_chase(
        specs in prop::collection::vec(any_rule(), 1..10),
        facts in facts_strategy(),
        query in query_strategy(),
    ) {
        let program = program_of(&specs);
        for variant in [ChaseVariant::Restricted, ChaseVariant::Oblivious] {
            let planner = Planner::with_config(
                program.clone(),
                PlannerConfig {
                    chase: variant_config(variant),
                    ..PlannerConfig::default()
                },
            );
            if !planner.classification().chase_terminates() {
                // Existential draws may leave weak acyclicity: out of chase
                // territory, the goal-driven pipeline is never chosen.
                prop_assert_ne!(planner.prepare(&query).plan().kind(), PlanKind::GoalDriven);
                return Ok(());
            }
            let store = store_of(&facts);
            let chosen = planner.prepare(&query);
            let natural = chosen.execute(&store);
            let forced = planner
                .prepare_forced(&query, PlanKind::Chase)
                .unwrap()
                .execute(&store);
            prop_assert!(natural.is_exact());
            prop_assert!(forced.is_exact());
            prop_assert!(
                natural.answers.iter().eq(forced.answers.iter()),
                "{:?} plan diverged from forced chase on {} over {:?}: {:?} vs {:?}",
                chosen.plan().kind(), query, program, natural.answers, forced.answers
            );
            if chosen.plan().kind() == PlanKind::GoalDriven {
                let summary = natural.provenance.goal_driven.expect("summary reported");
                prop_assert!(summary.relevant_rules <= program.len());
            }
        }
    }
}

/// Example 1 (FO-rewritable *and* weakly acyclic) stays a hybrid plan: the
/// goal-driven pipeline only competes in pure chase territory.
#[test]
fn example1_is_untouched_by_the_goal_driven_pipeline() {
    let planner = Planner::new(example1());
    let prepared = planner.prepare(&parse_query("ans(X, Z) :- r(X, Z)").unwrap());
    assert_eq!(prepared.plan().kind(), PlanKind::Hybrid);
}

/// Example 2 (chase territory) is *inadmissible* for the goal restriction —
/// its existential rule R2 cascades until nothing guardable survives — so
/// the planner falls back to the full-model chase plan and the answers are
/// untouched.
#[test]
fn example2_falls_back_to_the_full_chase() {
    assert_eq!(
        rewrite_goal_driven(&example2(), &example2_query()).err(),
        Some(Inadmissible::NoGuardedRules)
    );
    let planner = Planner::new(example2());
    let prepared = planner.prepare(&example2_query());
    assert_eq!(prepared.plan().kind(), PlanKind::Chase);
    assert!(prepared.explain().contains("goal-driven inadmissible"));
    let mut store = Instance::new();
    store.insert_fact("s", &["c", "c", "a"]);
    store.insert_fact("t", &["d", "a"]);
    let execution = prepared.execute(&store);
    assert!(execution.is_exact());
    assert!(execution.answers.as_boolean());
    // Forcing the pipeline anyway is a structured error, not a wrong plan.
    assert!(matches!(
        planner.prepare_forced(&example2_query(), PlanKind::GoalDriven),
        Err(PlannerError::GoalDrivenInadmissible { .. })
    ));
}

/// Example 3 (FO-rewritable via WR *and* jointly acyclic) keeps its hybrid
/// plan; the goal-driven pipeline only competes when rewriting is off the
/// table.
#[test]
fn example3_keeps_its_hybrid_plan() {
    let planner = Planner::new(example3());
    assert!(planner.classification().fo_rewritable());
    assert!(planner.classification().chase_terminates());
    let prepared = planner.prepare(&parse_query("ans(A, B) :- s(A, A, B)").unwrap());
    assert_eq!(prepared.plan().kind(), PlanKind::Hybrid);
}
