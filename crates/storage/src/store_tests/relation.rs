//! Relation-level checks of [`Instance`] as the extensional store: the
//! guarantees the evaluator relies on from one stored relation (dedup,
//! ground rows, posting lists that follow inserts and removals, selective
//! candidate probes, frozen segments shared by clones).

mod tests {
    use ontorew_model::{Atom, Instance, Predicate, Term};

    fn c(n: &str) -> Term {
        Term::constant(n)
    }

    fn teaches() -> Predicate {
        Predicate::new("teaches", 2)
    }

    fn sample() -> Instance {
        let mut r = Instance::new();
        r.insert_fact("teaches", &["alice", "db101"]);
        r.insert_fact("teaches", &["bob", "ai102"]);
        r.insert_fact("teaches", &["alice", "ml103"]);
        r
    }

    fn postings(r: &Instance, col: usize, value: &str) -> usize {
        r.relation(teaches())
            .map_or(0, |rel| rel.postings_len(col, &c(value)))
    }

    #[test]
    fn insert_deduplicates() {
        let mut r = sample();
        assert_eq!(r.len(), 3);
        assert!(!r.insert_fact("teaches", &["alice", "db101"]));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn contains_and_scan() {
        let r = sample();
        assert!(r.contains(&Atom::fact("teaches", &["bob", "ai102"])));
        assert!(!r.contains(&Atom::fact("teaches", &["bob", "db101"])));
        assert_eq!(r.relation(teaches()).unwrap().rows().count(), 3);
    }

    #[test]
    #[should_panic(expected = "non-ground")]
    fn variables_are_rejected() {
        let mut r = Instance::new();
        r.insert(Atom::new("r", vec![Term::variable("X")]));
    }

    #[test]
    fn remove_drops_the_tuple_and_keeps_indexes_fresh() {
        let mut r = sample();
        r.freeze();
        let gone = Atom::fact("teaches", &["alice", "db101"]);
        assert!(r.remove(&gone));
        assert!(!r.remove(&gone));
        assert_eq!(r.len(), 2);
        assert!(!r.contains(&gone));
        assert_eq!(postings(&r, 0, "alice"), 1);
        // Reinsertion after removal is a fresh insert.
        assert!(r.insert(gone));
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn lookup_stays_correct_after_inserts() {
        let mut r = sample();
        assert_eq!(postings(&r, 0, "alice"), 2);
        // Insert after lookups; the eager index must be maintained.
        r.insert_fact("teaches", &["alice", "pl104"]);
        assert_eq!(postings(&r, 0, "alice"), 3);
        assert_eq!(postings(&r, 0, "zoe"), 0);
    }

    #[test]
    fn lookup_agrees_with_scan() {
        let r = sample();
        let scanned = r
            .tuples(teaches())
            .filter(|row| row[1] == c("ai102"))
            .count();
        assert_eq!(scanned, postings(&r, 1, "ai102"));
    }

    #[test]
    fn candidates_pick_the_most_selective_column() {
        let r = sample();
        let count = |terms: Vec<Term>| r.candidates(&Atom::new("teaches", terms)).count();
        // alice appears twice in column 0, db101 once in column 1.
        assert_eq!(count(vec![c("alice"), c("db101")]), 1);
        assert_eq!(count(vec![c("alice"), Term::variable("C")]), 2);
        assert_eq!(count(vec![Term::variable("T"), Term::variable("C")]), 3);
    }

    #[test]
    fn frozen_relations_share_segments_and_keep_answering() {
        let mut r = sample();
        r.freeze();
        let copy = r.clone();
        assert!(copy
            .relation(teaches())
            .unwrap()
            .shares_segments_with(r.relation(teaches()).unwrap()));
        assert_eq!(copy.tuples(teaches()).count(), 3);
        assert_eq!(postings(&copy, 0, "alice"), 2);
        // Growth after the freeze stays private to the clone.
        let mut grown = copy.clone();
        grown.insert_fact("teaches", &["zoe", "db101"]);
        assert_eq!(grown.len(), 4);
        assert_eq!(r.len(), 3);
        let taught_db101 = Atom::new("teaches", vec![Term::variable("T"), c("db101")]);
        assert_eq!(grown.candidates(&taught_db101).count(), 2);
        assert_eq!(r.candidates(&taught_db101).count(), 1);
    }
}
