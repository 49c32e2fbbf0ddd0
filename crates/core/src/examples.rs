//! The running examples of the paper, as ready-made programs and queries.
//!
//! These constructors are used by the test-suite, the example binaries and
//! the planner's unit tests, so that every reproduction refers to a single
//! definition of each example.

use ontorew_model::prelude::*;
use ontorew_model::{parse_program, parse_query};

/// Example 1 (§5) — the SWR set whose position graph is Figure 1:
///
/// ```text
/// R1 : s(y1, y2, y3), t(y4) -> r(y1, y3)
/// R2 : v(y1, y2), q(y2)     -> s(y1, y3, y2)
/// R3 : r(y1, y2)            -> v(y1, y2)
/// ```
pub fn example1() -> TgdProgram {
    parse_program(
        "[R1] s(Y1, Y2, Y3), t(Y4) -> r(Y1, Y3).\n\
         [R2] v(Y1, Y2), q(Y2) -> s(Y1, Y3, Y2).\n\
         [R3] r(Y1, Y2) -> v(Y1, Y2).",
    )
    .expect("example 1 parses")
}

/// Example 2 (§6) — the non-simple set whose position graph (Figure 2) is
/// misleadingly harmless and whose P-node graph (Figure 3) exposes the
/// dangerous cycle:
///
/// ```text
/// R1 : t(y1, y2), r(y3, y4) -> s(y1, y3, y2)
/// R2 : s(y1, y1, y2)        -> r(y2, y3)
/// ```
pub fn example2() -> TgdProgram {
    parse_program(
        "[R1] t(Y1, Y2), r(Y3, Y4) -> s(Y1, Y3, Y2).\n\
         [R2] s(Y1, Y1, Y2) -> r(Y2, Y3).",
    )
    .expect("example 2 parses")
}

/// The boolean query `q() :- r("a", x)` used in Example 2 to witness the
/// unbounded rewriting.
pub fn example2_query() -> ConjunctiveQuery {
    parse_query(r#"q() :- r("a", X)"#).expect("example 2 query parses")
}

/// Example 3 (§6) — FO-rewritable but outside Linear, Multilinear, Sticky,
/// Sticky-Join and SWR; the flagship separation example for WR:
///
/// ```text
/// R1 : r(y1, y2)            -> t(y3, y1, y1)
/// R2 : s(y1, y2, y3)        -> r(y1, y2)
/// R3 : u(y1), t(y1, y1, y2) -> s(y1, y1, y2)
/// ```
pub fn example3() -> TgdProgram {
    parse_program(
        "[R1] r(Y1, Y2) -> t(Y3, Y1, Y1).\n\
         [R2] s(Y1, Y2, Y3) -> r(Y1, Y2).\n\
         [R3] u(Y1), t(Y1, Y1, Y2) -> s(Y1, Y1, Y2).",
    )
    .expect("example 3 parses")
}

/// A small DL-Lite style university ontology used by the OBDA examples and
/// the end-to-end benchmarks (this is the kind of "lightweight Description
/// Logic" workload §1 of the paper positions TGDs against).
pub fn university_ontology() -> TgdProgram {
    parse_program(
        "[U1] professor(X) -> faculty(X).\n\
         [U2] lecturer(X) -> faculty(X).\n\
         [U3] faculty(X) -> employee(X).\n\
         [U4] phdStudent(X) -> student(X).\n\
         [U5] student(X) -> person(X).\n\
         [U6] employee(X) -> person(X).\n\
         [U7] professor(X) -> teaches(X, C).\n\
         [U8] teaches(X, C) -> course(C).\n\
         [U9] attends(S, C) -> course(C).\n\
         [U10] attends(S, C) -> student(S).\n\
         [U11] phdStudent(X) -> advisedBy(X, Y).\n\
         [U12] advisedBy(X, Y) -> professor(Y).",
    )
    .expect("university ontology parses")
}

/// A representative query over the university ontology: people who teach a
/// course that someone attends.
pub fn university_query() -> ConjunctiveQuery {
    parse_query("q(T) :- teaches(T, C), attends(S, C)").expect("university query parses")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::classify;
    use crate::swr::is_swr;
    use crate::wr::{is_wr, WrVerdict};

    #[test]
    fn example1_matches_the_paper_claims() {
        let p = example1();
        assert_eq!(p.len(), 3);
        assert!(p.is_simple());
        assert!(is_swr(&p));
        assert_eq!(is_wr(&p), Some(true));
    }

    #[test]
    fn example2_matches_the_paper_claims() {
        let p = example2();
        assert_eq!(p.len(), 2);
        assert!(!p.is_simple());
        assert!(!is_swr(&p));
        assert_eq!(is_wr(&p), Some(false));
        assert!(example2_query().is_boolean());
    }

    #[test]
    fn example3_matches_the_paper_claims() {
        let p = example3();
        let report = classify(&p);
        assert!(!report.linear && !report.multilinear);
        assert!(!report.sticky && !report.sticky_join);
        assert!(!report.swr.is_swr);
        assert_eq!(report.wr.verdict, WrVerdict::WeaklyRecursive);
    }

    #[test]
    fn university_ontology_is_fo_rewritable() {
        let p = university_ontology();
        let report = classify(&p);
        assert!(report.linear);
        assert!(report.swr.is_swr);
        assert!(report.fo_rewritable());
        assert_eq!(university_query().arity(), 1);
    }
}
