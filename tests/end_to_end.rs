//! Cross-crate integration tests on synthetic workloads: rewriting vs chase
//! agreement, classification of generated families, and the OBDA facade.

use ontorew::prelude::*;
use ontorew::workloads::{
    chain_program, hierarchy_program, random_abox, random_program, star_program,
    sticky_family_program, university_abox, AboxConfig, RandomProgramConfig,
};

#[test]
fn chain_rewriting_has_linear_size_and_agrees_with_chase() {
    for n in [1usize, 4, 8, 16] {
        let program = chain_program(n);
        let query = parse_query(&format!("q(X) :- p{n}(X)")).unwrap();
        let rewriting = rewrite(&program, &query, &RewriteConfig::default());
        assert!(rewriting.complete);
        assert_eq!(rewriting.ucq.len(), n + 1, "chain of length {n}");

        let mut data = Instance::new();
        data.insert_fact("p0", &["seed"]);
        data.insert_fact(&format!("p{n}"), &["top"]);
        let by_rewriting = evaluate_ucq(&data, &rewriting.ucq);
        let by_chase = certain_answers(&program, &data, &query, &ChaseConfig::default());
        assert!(by_chase.complete);
        assert_eq!(by_rewriting.len(), by_chase.answers.len());
        assert!(by_rewriting.contains_constants(&["seed"]));
        assert!(by_rewriting.contains_constants(&["top"]));
    }
}

#[test]
fn generated_families_classify_as_expected() {
    let chain = chain_program(10);
    let report = ontorew::core::classify(&chain);
    assert!(report.linear && report.swr.is_swr && report.weakly_acyclic);

    let hierarchy = hierarchy_program(3);
    let report = ontorew::core::classify(&hierarchy);
    assert!(report.linear && report.swr.is_swr);

    let star = star_program(5);
    let report = ontorew::core::classify(&star);
    // Star rules drop an existential join variable: not sticky, but each rule
    // is harmless (no recursion), so the program stays SWR and acyclic-GRD.
    assert!(!report.sticky);
    assert!(report.swr.is_swr);
    assert!(report.acyclic_grd);

    let sticky_open = sticky_family_program(6, false);
    let report = ontorew::core::classify(&sticky_open);
    assert!(report.linear && report.sticky && report.swr.is_swr);
    assert!(report.weakly_acyclic);

    let sticky_closed = sticky_family_program(6, true);
    let report = ontorew::core::classify(&sticky_closed);
    assert!(report.linear && report.swr.is_swr);
    // The closed family has a cyclic rule-dependency graph, but it is still
    // weakly acyclic: the invented value always lands in the second position,
    // which no rule ever propagates.
    assert!(report.weakly_acyclic);
    assert!(!report.acyclic_grd);
}

/// §5's class inclusions on random simple programs: every Linear,
/// Multilinear or Sticky draw is SWR, and every SWR draw is WR.
#[test]
fn random_simple_programs_respect_the_class_inclusions() {
    // Draws that witness each inclusion, so the test cannot pass vacuously.
    let (mut baseline_witnesses, mut swr_witnesses) = (0, 0);
    let mut violations = Vec::new();
    for seed in 0..40u64 {
        let program = random_program(&RandomProgramConfig {
            rules: 8,
            predicates: 6,
            max_arity: 3,
            max_body_atoms: 2,
            existential_probability: 0.3,
            seed,
        });
        let report = ontorew::core::classify(&program);
        if report.linear || report.multilinear || report.sticky {
            if !report.swr.is_swr {
                violations.push(format!("seed {seed}: in a baseline class but not SWR"));
            }
            baseline_witnesses += 1;
        }
        if report.swr.is_swr {
            if report.wr.verdict != ontorew::core::WrVerdict::WeaklyRecursive {
                violations.push(format!("seed {seed}: SWR but not WR"));
            }
            swr_witnesses += 1;
        }
    }
    assert!(violations.is_empty(), "{violations:?}");
    assert!(baseline_witnesses > 0 && swr_witnesses > 0);
}

#[test]
fn swr_random_programs_have_terminating_rewritings() {
    // Over a spread of seeds: whenever the classifier says SWR, the rewriting
    // engine must reach a fixpoint (Theorem 1), within a generous budget.
    let mut checked = 0;
    for seed in 0..12u64 {
        let program = random_program(&RandomProgramConfig {
            rules: 8,
            predicates: 6,
            max_arity: 2,
            max_body_atoms: 2,
            existential_probability: 0.3,
            seed,
        });
        if !ontorew::core::is_swr(&program) {
            continue;
        }
        let signature = program.signature();
        let predicate = signature.predicates().next().unwrap();
        let vars: Vec<String> = (0..predicate.arity).map(|i| format!("V{i}")).collect();
        let query = parse_query(&format!(
            "q({}) :- {}({})",
            vars.join(", "),
            predicate.name,
            vars.join(", ")
        ))
        .unwrap();
        // Subsumption pruning is O(n²) containment checks over the final UCQ;
        // for this stress test only termination matters, so skip it.
        let rewriting = rewrite(
            &program,
            &query,
            &RewriteConfig::with_depth(20)
                .with_max_queries(20_000)
                .without_pruning(),
        );
        assert!(
            rewriting.complete,
            "SWR program with diverging rewriting (seed {seed}):\n{program}"
        );
        checked += 1;
    }
    assert!(checked >= 3, "too few SWR draws to be meaningful");
}

#[test]
fn rewriting_agrees_with_chase_on_random_swr_programs() {
    for seed in 0..8u64 {
        let program = random_program(&RandomProgramConfig {
            rules: 6,
            predicates: 5,
            max_arity: 2,
            max_body_atoms: 2,
            existential_probability: 0.25,
            seed,
        });
        if !ontorew::core::is_swr(&program) || !ontorew_chase::is_weakly_acyclic(&program) {
            continue;
        }
        let data = random_abox(
            &program,
            &AboxConfig {
                facts: 120,
                constants: 25,
                seed,
            },
        );
        // Boolean query over the first predicate.
        let predicate = program.signature().predicates().next().unwrap();
        let vars: Vec<String> = (0..predicate.arity).map(|i| format!("V{i}")).collect();
        let query =
            parse_query(&format!("q() :- {}({})", predicate.name, vars.join(", "))).unwrap();

        let by_rewriting = answer_by_rewriting(&program, &query, &data, &RewriteConfig::default());
        let by_chase = certain_answers(&program, &data, &query, &ChaseConfig::default());
        if by_rewriting.is_exact() && by_chase.complete {
            assert_eq!(
                by_rewriting.answers.as_boolean(),
                by_chase.answers.as_boolean(),
                "disagreement on seed {seed}:\n{program}"
            );
        }
    }
}

#[test]
fn university_obda_scales_and_stays_consistent() {
    let ontology = ontorew::core::examples::university_ontology();
    let data = university_abox(200, 10, 30, 9);
    let system = ObdaSystem::new(ontology, data);
    for text in [
        "q(X) :- person(X)",
        "q(X) :- employee(X)",
        "q(T) :- teaches(T, C), attends(S, C)",
        "q(S, P) :- advisedBy(S, P), professor(P)",
    ] {
        let query = parse_query(text).unwrap();
        let report = ontorew::obda::cross_check(&system, &query);
        assert!(report.is_consistent(), "{text}: {report:?}");
    }
}

#[test]
fn sql_rendering_of_a_real_rewriting_mentions_every_relation() {
    let program = chain_program(3);
    let query = parse_query("q(X) :- p3(X)").unwrap();
    let rewriting = rewrite(&program, &query, &RewriteConfig::default());
    let sql = ontorew::storage::ucq_to_sql(&rewriting.ucq);
    for relation in ["p0", "p1", "p2", "p3"] {
        assert!(
            sql.contains(&format!("FROM {relation} AS")),
            "missing {relation} in:\n{sql}"
        );
    }
    assert_eq!(sql.matches("SELECT DISTINCT").count(), 4);
}
