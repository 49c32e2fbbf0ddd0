use super::*;
use ontorew_chase::{chase, ChaseConfig};
use ontorew_model::parse_program;
use ontorew_storage::evaluate_cq;

/// A Datalog registrar ontology: transitive prerequisite closure feeding a
/// per-student obligation predicate. Full, single-head, weakly acyclic —
/// everything is guardable.
fn registrar() -> TgdProgram {
    parse_program(
        r#"
        [G1] enrolled(S, C) -> student(S).
        [G2] enrolled(S, C) -> course(C).
        [G3] prereq(C1, C2) -> requires(C1, C2).
        [G4] requires(C1, C2), prereq(C2, C3) -> requires(C1, C3).
        [G5] enrolled(S, C), requires(C, P) -> mustComplete(S, P).
        "#,
    )
    .unwrap()
}

fn registrar_store() -> Instance {
    let mut store = Instance::new();
    // Two students, a three-course prerequisite chain, one shared course.
    store.insert_fact("enrolled", &["ann", "db3"]);
    store.insert_fact("enrolled", &["bob", "ml1"]);
    store.insert_fact("prereq", &["db3", "db2"]);
    store.insert_fact("prereq", &["db2", "db1"]);
    store.insert_fact("prereq", &["ml1", "db1"]);
    store
}

fn answers_goal_driven(
    magic: &MagicProgram,
    store: &Instance,
    query: &ConjunctiveQuery,
    config: &ChaseConfig,
) -> ontorew_storage::AnswerSet {
    let mut instance = store.clone();
    for seed in &magic.seeds {
        instance.insert(seed.clone());
    }
    let result = chase(&magic.program, &instance, config);
    assert!(
        result.is_universal_model(),
        "magic chase must terminate here"
    );
    evaluate_cq(&result.instance, query).without_nulls()
}

fn answers_full(
    program: &TgdProgram,
    store: &Instance,
    query: &ConjunctiveQuery,
    config: &ChaseConfig,
) -> ontorew_storage::AnswerSet {
    let result = chase(program, store, config);
    assert!(result.is_universal_model());
    evaluate_cq(&result.instance, query).without_nulls()
}

#[test]
fn selective_query_is_admissible_and_equivalent() {
    let program = registrar();
    let query = ontorew_model::parse_query(r#"q(P) :- mustComplete("ann", P)"#).unwrap();
    let magic = rewrite_goal_driven(&program, &query).expect("registrar query is selective");

    // The slice drops G1/G2 (student/course are not reachable from the goal).
    assert_eq!(magic.total_rules, 5);
    assert_eq!(magic.relevant_rules, 3);
    assert_eq!(magic.guarded_rules, 3);
    assert!(magic.unrestricted.is_empty());
    assert_eq!(
        magic.seeds,
        vec![Atom::new(
            "magic_mustComplete_bf",
            vec![Term::constant("ann")]
        )]
    );

    let store = registrar_store();
    for config in [ChaseConfig::restricted(64), ChaseConfig::oblivious(64)] {
        let goal = answers_goal_driven(&magic, &store, &query, &config);
        let full = answers_full(&program, &store, &query, &config);
        assert_eq!(goal, full, "goal-driven answers must match the full chase");
        assert_eq!(goal.len(), 2); // db3 requires db2 directly and db1 transitively.
    }

    // The restriction actually prunes: bob's obligations are never derived.
    let mut instance = store.clone();
    for seed in &magic.seeds {
        instance.insert(seed.clone());
    }
    let result = chase(&magic.program, &instance, &ChaseConfig::restricted(64));
    let bob = ontorew_model::parse_query(r#"q(P) :- mustComplete("bob", P)"#).unwrap();
    assert_eq!(evaluate_cq(&result.instance, &bob).len(), 0);
}

#[test]
fn all_free_query_atom_seeds_a_propositional_magic_fact() {
    let program = registrar();
    // One selective atom plus one all-free atom over a restricted predicate.
    let query =
        ontorew_model::parse_query(r#"q(P, S) :- mustComplete("ann", P), student(S)"#).unwrap();
    let magic = rewrite_goal_driven(&program, &query).unwrap();
    assert!(magic
        .seeds
        .iter()
        .any(|s| s.predicate.name_str() == "magic_student_f" && s.terms.is_empty()));

    let store = registrar_store();
    let config = ChaseConfig::restricted(64);
    assert_eq!(
        answers_goal_driven(&magic, &store, &query, &config),
        answers_full(&program, &store, &query, &config)
    );
}

#[test]
fn queries_binding_no_constants_are_inadmissible() {
    let program = registrar();
    let query = ontorew_model::parse_query("q(S) :- student(S)").unwrap();
    assert_eq!(
        rewrite_goal_driven(&program, &query).err(),
        Some(Inadmissible::NoBoundSeed)
    );
}

#[test]
fn existential_cascade_makes_example2_inadmissible() {
    // Example 2's existential rule r(Y2, Y3) makes r unrestricted, which
    // cascades through s back to r: nothing guardable survives.
    let program = ontorew_core::examples::example2();
    let query = ontorew_core::examples::example2_query();
    assert_eq!(
        rewrite_goal_driven(&program, &query).err(),
        Some(Inadmissible::NoGuardedRules)
    );
}

#[test]
fn reserved_prefix_is_rejected() {
    let program = parse_program("magic_p(X) -> q(X).").unwrap();
    let query = ontorew_model::parse_query(r#"a(X) :- q(X)"#).unwrap();
    assert_eq!(
        rewrite_goal_driven(&program, &query).err(),
        Some(Inadmissible::ReservedPrefix("magic_p".to_string()))
    );
}

#[test]
fn multi_head_rules_join_the_unguarded_cascade() {
    let program = parse_program(
        r#"
        [M1] base(X) -> left(X), right(X).
        [M2] left(X), edge(X, Y) -> reach(Y).
        [M3] reach(X), edge(X, Y) -> reach(Y).
        "#,
    )
    .unwrap();
    let query = ontorew_model::parse_query(r#"q() :- reach("t")"#).unwrap();
    let magic = rewrite_goal_driven(&program, &query).unwrap();
    // M1 is multi-head: left (and right) are derived in full; reach stays
    // restricted and its rules are guarded.
    assert!(magic.unrestricted.contains("left"));
    assert_eq!(magic.guarded_rules, 2);

    let mut store = Instance::new();
    store.insert_fact("base", &["a"]);
    store.insert_fact("edge", &["a", "b"]);
    store.insert_fact("edge", &["b", "t"]);
    store.insert_fact("edge", &["z", "w"]);
    let config = ChaseConfig::restricted(64);
    assert_eq!(
        answers_goal_driven(&magic, &store, &query, &config),
        answers_full(&program, &store, &query, &config)
    );
}

#[test]
fn sip_passes_bindings_through_the_most_bound_atom_first() {
    let program = registrar();
    let query = ontorew_model::parse_query(r#"q(P) :- mustComplete("ann", P)"#).unwrap();
    let magic = rewrite_goal_driven(&program, &query).unwrap();
    // G5's body is enrolled(S, C), requires(C, P): with S bound by the
    // guard, enrolled binds one position and requires none, so the greedy
    // SIP binds C through enrolled before demanding requires — the requires
    // demand must be bf, not ff.
    let demands_requires_bf = magic
        .program
        .rules()
        .iter()
        .any(|r| r.head.len() == 1 && r.head[0].predicate.name_str() == "magic_requires_bf");
    assert!(demands_requires_bf, "{:?}", magic.dump());
    // And the transitive rule G4 re-demands requires under the same
    // adornment (requires^bf depends on itself), closing the worklist.
    let g4_adorned = magic
        .program
        .rules()
        .iter()
        .any(|r| r.label_str() == "G4@bf");
    assert!(g4_adorned, "{:?}", magic.dump());
}

#[test]
fn sip_reorders_bodies_written_selective_atom_last() {
    // Same registrar semantics, but G5's body is written with requires
    // *first*: a textual left-to-right SIP would demand requires^ff (derive
    // the whole transitive closure), while the greedy SIP pulls enrolled
    // forward (it binds S from the guard) and still demands requires^bf.
    let program = parse_program(
        r#"
        [B3] prereq(C1, C2) -> requires(C1, C2).
        [B4] requires(C1, C2), prereq(C2, C3) -> requires(C1, C3).
        [B5] requires(C, P), enrolled(S, C) -> mustComplete(S, P).
        "#,
    )
    .unwrap();
    let query = ontorew_model::parse_query(r#"q(P) :- mustComplete("ann", P)"#).unwrap();
    let magic = rewrite_goal_driven(&program, &query).unwrap();
    let demanded: Vec<&str> = magic
        .program
        .rules()
        .iter()
        .filter(|r| r.head.len() == 1)
        .map(|r| r.head[0].predicate.name_str())
        .filter(|name| name.starts_with("magic_requires"))
        .collect();
    assert!(
        demanded.contains(&"magic_requires_bf"),
        "{:?}",
        magic.dump()
    );
    assert!(
        !demanded.contains(&"magic_requires_ff"),
        "textual order leaked into the SIP: {:?}",
        magic.dump()
    );
    // The adorned copy's body is in SIP order: guard, enrolled, requires.
    let adorned = magic
        .program
        .rules()
        .iter()
        .find(|r| r.label_str() == "B5@bf")
        .expect("B5 must be adorned");
    assert_eq!(adorned.body[1].predicate.name_str(), "enrolled");
    assert_eq!(adorned.body[2].predicate.name_str(), "requires");

    let store = registrar_store();
    let config = ChaseConfig::restricted(64);
    assert_eq!(
        answers_goal_driven(&magic, &store, &query, &config),
        answers_full(&program, &store, &query, &config)
    );
}

#[test]
fn selectivity_oracle_breaks_bound_count_ties() {
    struct Prefer(&'static str);
    impl SipSelectivity for Prefer {
        fn estimate(&self, atom: &Atom, _adornment: &Adornment) -> f64 {
            if atom.predicate.name_str() == self.0 {
                1.0
            } else {
                100.0
            }
        }
    }
    // Both body atoms bind X from the guard, so only the oracle's estimate
    // distinguishes them.
    let program = parse_program("[T] a(X, Y), b(X, Y) -> pair(X, Y).").unwrap();
    let query = ontorew_model::parse_query(r#"q(Y) :- pair("k", Y)"#).unwrap();

    let magic = rewrite_goal_driven_with(&program, &query, &Prefer("b")).unwrap();
    let adorned = magic
        .program
        .rules()
        .iter()
        .find(|r| r.label_str() == "T@bf")
        .expect("T must be adorned");
    assert_eq!(adorned.body[1].predicate.name_str(), "b");

    // The structural default is a full tie here and degrades to textual
    // order, keeping rewrites deterministic without statistics.
    let magic = rewrite_goal_driven(&program, &query).unwrap();
    let adorned = magic
        .program
        .rules()
        .iter()
        .find(|r| r.label_str() == "T@bf")
        .expect("T must be adorned");
    assert_eq!(adorned.body[1].predicate.name_str(), "a");
}

#[test]
fn dump_reports_the_adorned_program() {
    let program = registrar();
    let query = ontorew_model::parse_query(r#"q(P) :- mustComplete("ann", P)"#).unwrap();
    let magic = rewrite_goal_driven(&program, &query).unwrap();
    let dump = magic.dump();
    assert!(
        dump[0].contains("3 of 5 original rules relevant"),
        "{dump:?}"
    );
    assert!(
        dump.iter()
            .any(|l| l.starts_with("seed: magic_mustComplete_bf")),
        "{dump:?}"
    );
    assert!(dump.iter().any(|l| l.contains("G5@bf")), "{dump:?}");
}
