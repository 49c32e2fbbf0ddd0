//! Fixed ontology suites: realistic, hand-written TGD sets modelled on the
//! benchmark ontologies an OBDA evaluation would use.
//!
//! The paper reports no datasets (it is a PhD-symposium paper), but its
//! motivation — the Optique project, OBDA over enterprise relational data —
//! points at two families of workloads which we reconstruct here as TGD
//! programs over our own vocabulary:
//!
//! * [`lubm_style_ontology`] — a university-domain ontology in the spirit of
//!   LUBM: a class hierarchy, domain/range typing, mandatory participation
//!   axioms. Entirely Linear/SWR, i.e. the "easy" FO-rewritable case.
//! * [`sensor_network_ontology`] — an Optique-style measurement/equipment
//!   ontology: qualified joins, chained navigation and multi-atom bodies that
//!   leave the DL-Lite fragment while (mostly) staying FO-rewritable — the
//!   territory where SWR/WR earn their keep.
//! * [`supply_chain_ontology`] — a deliberately *non*-FO-rewritable workload
//!   (transitive part-of plus a feedback rule) for the approximation and
//!   materialization-fallback tests.
//! * [`registrar_ontology`] — a pure-Datalog curriculum workload (transitive
//!   prerequisite closure, so not FO-rewritable, but weakly acyclic): the
//!   chase-territory suite whose selective queries exercise the goal-driven
//!   (magic-sets) pipeline, where materializing the full model is the worst
//!   case the restriction avoids.
//!
//! Each suite comes with a data generator producing an ABox of a requested
//! size over the suite's vocabulary, so benchmarks can sweep data size with a
//! fixed ontology.

use ontorew_model::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn parse(text: &str) -> TgdProgram {
    parse_program(text).expect("suite ontology must parse")
}

/// A LUBM-style university ontology: 24 Linear TGDs (class hierarchy,
/// domain/range typing, mandatory participation).
pub fn lubm_style_ontology() -> TgdProgram {
    parse(
        "[L1] fullProfessor(X) -> professor(X).\n\
         [L2] associateProfessor(X) -> professor(X).\n\
         [L3] assistantProfessor(X) -> professor(X).\n\
         [L4] professor(X) -> faculty(X).\n\
         [L5] lecturer(X) -> faculty(X).\n\
         [L6] faculty(X) -> employee(X).\n\
         [L7] employee(X) -> person(X).\n\
         [L8] undergraduateStudent(X) -> student(X).\n\
         [L9] graduateStudent(X) -> student(X).\n\
         [L10] student(X) -> person(X).\n\
         [L11] teachingAssistant(X) -> graduateStudent(X).\n\
         [L12] researchAssistant(X) -> graduateStudent(X).\n\
         [L13] teaches(X, C) -> faculty(X).\n\
         [L14] teaches(X, C) -> course(C).\n\
         [L15] takesCourse(S, C) -> student(S).\n\
         [L16] takesCourse(S, C) -> course(C).\n\
         [L17] advisorOf(A, S) -> professor(A).\n\
         [L18] advisorOf(A, S) -> graduateStudent(S).\n\
         [L19] worksFor(X, D) -> employee(X).\n\
         [L20] worksFor(X, D) -> department(D).\n\
         [L21] department(D) -> subOrganizationOf(D, U).\n\
         [L22] subOrganizationOf(D, U) -> university(U).\n\
         [L23] professor(X) -> teaches(X, C).\n\
         [L24] graduateStudent(S) -> advisorOf(A, S).",
    )
}

/// A random ABox over the LUBM-style vocabulary with roughly
/// `students + professors + courses` individuals and a proportional number of
/// role assertions. Seeded and reproducible.
pub fn lubm_style_abox(students: usize, professors: usize, courses: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Instance::new();
    for c in 0..courses {
        db.insert_fact("course", &[&format!("course{c}")]);
    }
    for p in 0..professors {
        let name = format!("prof{p}");
        match p % 3 {
            0 => db.insert_fact("fullProfessor", &[&name]),
            1 => db.insert_fact("associateProfessor", &[&name]),
            _ => db.insert_fact("assistantProfessor", &[&name]),
        };
        db.insert_fact("worksFor", &[&name, &format!("dept{}", p % 8)]);
        if courses > 0 {
            for _ in 0..rng.gen_range(1..=2usize) {
                let c = rng.gen_range(0..courses);
                db.insert_fact("teaches", &[&name, &format!("course{c}")]);
            }
        }
    }
    for s in 0..students {
        let name = format!("student{s}");
        if s % 4 == 0 {
            db.insert_fact("graduateStudent", &[&name]);
            if professors > 0 {
                let p = rng.gen_range(0..professors);
                db.insert_fact("advisorOf", &[&format!("prof{p}"), &name]);
            }
        } else {
            db.insert_fact("undergraduateStudent", &[&name]);
        }
        if courses > 0 {
            for _ in 0..rng.gen_range(1..=3usize) {
                let c = rng.gen_range(0..courses);
                db.insert_fact("takesCourse", &[&name, &format!("course{c}")]);
            }
        }
    }
    db
}

/// The benchmark queries usually asked over the LUBM-style suite.
pub fn lubm_style_queries() -> Vec<ConjunctiveQuery> {
    [
        "q(X) :- person(X)",
        "q(X) :- faculty(X)",
        "q(X, C) :- teaches(X, C)",
        "q(S) :- graduateStudent(S), advisorOf(A, S)",
        "q(S, C) :- takesCourse(S, C), teaches(P, C), professor(P)",
        "q(U) :- worksFor(X, D), subOrganizationOf(D, U)",
    ]
    .iter()
    .map(|q| parse_query(q).expect("suite query must parse"))
    .collect()
}

/// An Optique-style sensor/measurement ontology: 14 TGDs with qualified joins
/// and navigation chains that leave the DL-Lite/Linear fragment.
pub fn sensor_network_ontology() -> TgdProgram {
    parse(
        "[S1] temperatureSensor(X) -> sensor(X).\n\
         [S2] pressureSensor(X) -> sensor(X).\n\
         [S3] sensor(X) -> device(X).\n\
         [S4] sensor(X) -> installedOn(X, E).\n\
         [S5] installedOn(X, E) -> equipment(E).\n\
         [S6] equipment(E) -> locatedIn(E, F).\n\
         [S7] locatedIn(E, F) -> facility(F).\n\
         [S8] measurement(M) -> producedBy(M, S).\n\
         [S9] producedBy(M, S) -> sensor(S).\n\
         [S10] producedBy(M, S), installedOn(S, E) -> monitors(M, E).\n\
         [S11] monitors(M, E), locatedIn(E, F) -> observedAt(M, F).\n\
         [S12] alarm(A), raisedBy(A, M) -> measurement(M).\n\
         [S13] criticalAlarm(A) -> alarm(A).\n\
         [S14] raisedBy(A, M), producedBy(M, S) -> implicates(A, S).",
    )
}

/// A random ABox over the sensor vocabulary: `sensors` sensors spread over
/// `equipment` pieces of equipment, `measurements` measurements and a 2%
/// alarm rate. Seeded and reproducible.
pub fn sensor_network_abox(
    sensors: usize,
    equipment: usize,
    measurements: usize,
    seed: u64,
) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Instance::new();
    for e in 0..equipment {
        db.insert_fact("equipment", &[&format!("eq{e}")]);
        db.insert_fact(
            "locatedIn",
            &[&format!("eq{e}"), &format!("plant{}", e % 4)],
        );
    }
    for s in 0..sensors {
        let name = format!("sensor{s}");
        if s % 2 == 0 {
            db.insert_fact("temperatureSensor", &[&name]);
        } else {
            db.insert_fact("pressureSensor", &[&name]);
        }
        if equipment > 0 {
            let e = rng.gen_range(0..equipment);
            db.insert_fact("installedOn", &[&name, &format!("eq{e}")]);
        }
    }
    for m in 0..measurements {
        let name = format!("m{m}");
        db.insert_fact("measurement", &[&name]);
        if sensors > 0 {
            let s = rng.gen_range(0..sensors);
            db.insert_fact("producedBy", &[&name, &format!("sensor{s}")]);
        }
        if m % 50 == 0 {
            let alarm = format!("alarm{m}");
            db.insert_fact("criticalAlarm", &[&alarm]);
            db.insert_fact("raisedBy", &[&alarm, &name]);
        }
    }
    db
}

/// The benchmark queries for the sensor suite.
pub fn sensor_network_queries() -> Vec<ConjunctiveQuery> {
    [
        "q(S) :- sensor(S)",
        "q(E) :- equipment(E)",
        "q(M, F) :- observedAt(M, F)",
        "q(A, S) :- implicates(A, S), criticalAlarm(A)",
        "q(M) :- monitors(M, E), locatedIn(E, F), facility(F)",
    ]
    .iter()
    .map(|q| parse_query(q).expect("suite query must parse"))
    .collect()
}

/// A supply-chain ontology that is *not* FO-rewritable: transitive part-of
/// plus a feedback rule, for approximation and materialization-fallback
/// tests.
pub fn supply_chain_ontology() -> TgdProgram {
    parse(
        "[P1] component(X) -> part(X).\n\
         [P2] assembly(X) -> part(X).\n\
         [P3] partOf(X, Y), partOf(Y, Z) -> partOf(X, Z).\n\
         [P4] partOf(X, Y), assembly(Y) -> component(X).\n\
         [P5] suppliedBy(X, S) -> supplier(S).\n\
         [P6] part(X) -> suppliedBy(X, S).",
    )
}

/// A random bill-of-materials ABox: a forest of part-of trees with `parts`
/// parts of fanout ~3, plus supplier assertions. Seeded and reproducible.
pub fn supply_chain_abox(parts: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut db = Instance::new();
    for p in 0..parts {
        let name = format!("part{p}");
        if p < parts / 10 + 1 {
            db.insert_fact("assembly", &[&name]);
        } else {
            db.insert_fact("component", &[&name]);
        }
        if p > 0 {
            // Attach to a random earlier part: yields trees of bounded depth.
            let parent = rng.gen_range(0..p);
            db.insert_fact("partOf", &[&name, &format!("part{parent}")]);
        }
        if p % 5 == 0 {
            db.insert_fact("suppliedBy", &[&name, &format!("supplier{}", p % 7)]);
        }
    }
    db
}

/// A social-graph ontology: linear typing and endorsement rules over a
/// `follows` relation. FO-rewritable *and* weakly acyclic, so its queries
/// compile to hybrid plans — but unlike every other suite, its benchmark
/// queries are **cyclic** (triangles, cliques), the shape where the
/// worst-case-optimal generic join beats atom-at-a-time backtracking.
pub fn social_graph_ontology() -> TgdProgram {
    parse(
        "[F1] follows(X, Y) -> member(X).\n\
         [F2] follows(X, Y) -> member(Y).\n\
         [F3] influencer(X) -> member(X).\n\
         [F4] member(X) -> hasProfile(X, P).\n\
         [F5] endorses(X, Y) -> follows(X, Y).",
    )
}

/// A hub-heavy follower graph: `hubs` celebrity accounts forming a complete
/// directed graph, `users` regular accounts each following three hubs, their
/// ring successor and one random account, with the hubs following back every
/// tenth user. The celebrity follow-backs give hub vertices in- *and*
/// out-degree Θ(users), so enumerating 2-paths through a hub — what a
/// backtracking triangle join does — costs Θ(users²) while the triangle
/// count (and a worst-case-optimal join's work) stays near-linear. Seeded
/// and reproducible.
pub fn social_graph_abox(users: usize, hubs: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let hubs = hubs.max(2);
    let users = users.max(1);
    let hub_name = |h: usize| format!("hub{h}");
    let user_name = |u: usize| format!("user{u}");
    let mut db = Instance::new();
    for a in 0..hubs {
        db.insert_fact("influencer", &[&hub_name(a)]);
        for b in 0..hubs {
            if a != b {
                db.insert_fact("follows", &[&hub_name(a), &hub_name(b)]);
            }
        }
    }
    for u in 0..users {
        let name = user_name(u);
        for i in 0..3 {
            db.insert_fact("follows", &[&name, &hub_name((u + i) % hubs)]);
        }
        db.insert_fact("follows", &[&name, &user_name((u + 1) % users)]);
        let other = rng.gen_range(0..users);
        db.insert_fact("follows", &[&name, &user_name(other)]);
        if u % 10 == 0 {
            for h in 0..hubs {
                db.insert_fact("follows", &[&hub_name(h), &name]);
            }
        }
    }
    db
}

/// The benchmark queries for the social-graph suite: a triangle and a
/// (DAG-oriented) 4-clique — cyclic bodies where the generic join is
/// worst-case optimal and backtracking is not — plus an anchored 2-path as
/// the acyclic control the cost model should keep on backtracking.
pub fn social_graph_queries() -> Vec<ConjunctiveQuery> {
    [
        "q(X, Y, Z) :- follows(X, Y), follows(Y, Z), follows(Z, X)",
        "q(X, Y, Z, W) :- follows(X, Y), follows(X, Z), follows(X, W), \
         follows(Y, Z), follows(Y, W), follows(Z, W)",
        "q(Z) :- follows(\"user0\", Y), follows(Y, Z)",
    ]
    .iter()
    .map(|q| parse_query(q).expect("suite query must parse"))
    .collect()
}

/// A registrar (curriculum) ontology: pure Datalog, so the chase terminates
/// (weakly acyclic), but the transitive prerequisite closure `G4` keeps it
/// outside every FO-rewritable class — the planner's chase territory. The
/// interesting workload shape: `mustComplete` fans out to every transitively
/// required course of every enrollment, so the full universal model is large
/// while a per-student query touches a sliver of it.
pub fn registrar_ontology() -> TgdProgram {
    parse(
        "[G1] enrolled(S, C) -> student(S).\n\
         [G2] enrolled(S, C) -> course(C).\n\
         [G3] prereq(C1, C2) -> requires(C1, C2).\n\
         [G4] requires(C1, C2), prereq(C2, C3) -> requires(C1, C3).\n\
         [G5] enrolled(S, C), requires(C, P) -> mustComplete(S, P).",
    )
}

/// A random registrar ABox: `students` students with ~2 enrollments each
/// over `students / 4` courses, the courses organised into prerequisite
/// chains of length `chain` (so `requires` closes to ~`chain / 2` ancestors
/// per course). Seeded and reproducible.
pub fn registrar_abox(students: usize, chain: usize, seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let chain = chain.max(2);
    let courses = (students / 4).max(chain);
    let mut db = Instance::new();
    for c in 0..courses {
        // Consecutive courses within a block of `chain` form a prereq chain.
        if c % chain != 0 {
            db.insert_fact(
                "prereq",
                &[&format!("course{c}"), &format!("course{}", c - 1)],
            );
        }
    }
    for s in 0..students {
        let name = format!("student{s}");
        for _ in 0..2 {
            let c = rng.gen_range(0..courses);
            db.insert_fact("enrolled", &[&name, &format!("course{c}")]);
        }
    }
    db
}

/// The benchmark queries for the registrar suite: the first is the
/// *selective* one (a single student's transitive obligations — the
/// goal-driven pipeline's home turf), the second a broad scan that no goal
/// restriction can prune.
pub fn registrar_queries() -> Vec<ConjunctiveQuery> {
    [
        "q(P) :- mustComplete(\"student42\", P)",
        "q(S) :- student(S)",
    ]
    .iter()
    .map(|q| parse_query(q).expect("suite query must parse"))
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lubm_suite_parses_and_has_the_documented_size() {
        let p = lubm_style_ontology();
        assert_eq!(p.len(), 24);
        assert!(p.iter().all(|r| r.body.len() == 1), "LUBM suite is Linear");
        assert!(!lubm_style_queries().is_empty());
    }

    #[test]
    fn lubm_abox_scales_and_is_reproducible() {
        let small = lubm_style_abox(50, 5, 10, 7);
        let large = lubm_style_abox(500, 50, 100, 7);
        assert!(large.len() > small.len());
        assert_eq!(lubm_style_abox(50, 5, 10, 7), lubm_style_abox(50, 5, 10, 7));
        assert!(small.relation_size(Predicate::new("takesCourse", 2)) >= 50);
    }

    #[test]
    fn sensor_suite_leaves_the_linear_fragment() {
        let p = sensor_network_ontology();
        assert_eq!(p.len(), 14);
        assert!(p.iter().any(|r| r.body.len() >= 2));
    }

    #[test]
    fn sensor_abox_covers_the_vocabulary() {
        let db = sensor_network_abox(20, 5, 200, 3);
        assert_eq!(db.relation_size(Predicate::new("measurement", 1)), 200);
        assert_eq!(db.relation_size(Predicate::new("producedBy", 2)), 200);
        assert!(db.relation_size(Predicate::new("criticalAlarm", 1)) >= 1);
        assert!(!sensor_network_queries().is_empty());
    }

    #[test]
    fn registrar_suite_is_datalog_with_a_transitive_closure() {
        let p = registrar_ontology();
        assert_eq!(p.len(), 5);
        assert!(
            p.iter().all(|r| r.is_full() && r.head.len() == 1),
            "registrar suite is pure Datalog (chase-terminating)"
        );
        assert!(p
            .iter()
            .any(|r| r.body.len() == 2 && r.body[0].predicate == r.head[0].predicate));
        let db = registrar_abox(400, 8, 11);
        assert_eq!(registrar_abox(400, 8, 11), registrar_abox(400, 8, 11));
        let enrolled = db.relation_size(Predicate::new("enrolled", 2));
        assert!(
            (400..=800).contains(&enrolled),
            "~2 enrollments per student"
        );
        assert!(db.relation_size(Predicate::new("prereq", 2)) >= 80);
        assert!(!registrar_queries().is_empty());
    }

    #[test]
    fn social_graph_suite_is_cyclic_where_it_counts() {
        let p = social_graph_ontology();
        assert!(
            p.iter().all(|r| r.body.len() == 1),
            "social suite is Linear (FO-rewritable)"
        );
        let db = social_graph_abox(300, 8, 5);
        assert_eq!(social_graph_abox(300, 8, 5), social_graph_abox(300, 8, 5));
        let follows = db.relation_size(Predicate::new("follows", 2));
        // hubs² + ~5 per user + follow-backs.
        assert!(follows > 300 * 5, "hub graph must be dense: {follows}");
        let queries = social_graph_queries();
        assert_eq!(queries.len(), 3);
        assert!(
            ontorew_unify::is_cyclic(&queries[0].body),
            "triangle query must be GYO-cyclic"
        );
        assert!(
            ontorew_unify::is_cyclic(&queries[1].body),
            "clique query must be GYO-cyclic"
        );
        assert!(
            !ontorew_unify::is_cyclic(&queries[2].body),
            "anchored 2-path is the acyclic control"
        );
    }

    #[test]
    fn supply_chain_suite_contains_the_transitive_rule() {
        let p = supply_chain_ontology();
        assert!(p
            .iter()
            .any(|r| r.body.len() == 2 && r.body[0].predicate == r.head[0].predicate));
        let db = supply_chain_abox(100, 1);
        assert_eq!(db.relation_size(Predicate::new("partOf", 2)), 99);
    }
}
