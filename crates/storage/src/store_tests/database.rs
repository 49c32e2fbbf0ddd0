//! Database-level checks of [`Instance`](ontorew_model::Instance) as the
//! extensional store: facts in, queries of size and signature out, removal
//! down to empty, and frozen clones that share every segment while their
//! growth stays private.

mod tests {
    use ontorew_model::{Atom, Instance, Predicate};

    #[test]
    fn insert_and_query() {
        let mut db = Instance::new();
        assert!(db.insert_fact("teaches", &["alice", "db101"]));
        assert!(!db.insert_fact("teaches", &["alice", "db101"]));
        assert!(db.contains(&Atom::fact("teaches", &["alice", "db101"])));
        assert_eq!(db.len(), 1);
        assert_eq!(db.relation_size(Predicate::new("teaches", 2)), 1);
        assert_eq!(db.relation_size(Predicate::new("absent", 1)), 0);
    }

    #[test]
    fn remove_atom_round_trip() {
        let mut db = Instance::new();
        db.insert_fact("r", &["a", "b"]);
        db.insert_fact("r", &["c", "d"]);
        db.freeze();
        assert!(db.remove(&Atom::fact("r", &["a", "b"])));
        assert!(!db.remove(&Atom::fact("r", &["a", "b"])));
        assert!(!db.remove(&Atom::fact("zzz", &["a"])));
        assert_eq!(db.len(), 1);
        assert!(db.contains(&Atom::fact("r", &["c", "d"])));
        // Emptying a relation removes it from the signature.
        assert!(db.remove(&Atom::fact("r", &["c", "d"])));
        assert!(db.is_empty());
        assert_eq!(db.signature().len(), 0);
        assert_eq!(db.predicates().count(), 0);
    }

    /// The instance a row-by-row copy of `db` would produce.
    fn rebuilt(db: &Instance) -> Instance {
        let mut inst = Instance::new();
        for p in db.predicates() {
            for row in db.relation(p).unwrap().rows() {
                inst.insert(Atom::from_predicate(p, row.clone()));
            }
        }
        inst
    }

    fn sample_store() -> Instance {
        let mut db = Instance::new();
        for i in 0..20 {
            db.insert_fact("r", &[&format!("a{i}"), "b"]);
        }
        db.insert_fact("s", &["c"]);
        db
    }

    #[test]
    fn to_instance_of_a_frozen_store_shares_every_segment() {
        let mut db = sample_store();
        db.freeze();
        db.insert_fact("r", &["tail", "b"]);
        // A relation emptied by removal is left behind with no rows.
        db.insert_fact("empty", &["x"]);
        db.remove(&Atom::fact("empty", &["x"]));
        let before = db.clone();
        let mut inst = db.clone();
        assert_eq!(inst, rebuilt(&db));
        assert_eq!(inst.predicates().count(), 2, "empty relations are skipped");
        // Growth of the clone stays in its own tails.
        assert!(inst.insert_fact("r", &["new", "b"]));
        assert!(inst.insert_fact("u", &["d"]));
        assert_eq!(db.len(), 22);
        assert!(!db.contains(&Atom::fact("r", &["new", "b"])));
        assert!(!db.contains(&Atom::fact("u", &["d"])));
        assert!(db.relation(Predicate::new("u", 1)).is_none());
        for p in [Predicate::new("r", 2), Predicate::new("s", 1)] {
            let (now, then) = (db.relation(p).unwrap(), before.relation(p).unwrap());
            assert_eq!(now.len(), then.len());
            assert!(now.shares_segments_with(then));
            assert!(inst.relation(p).unwrap().shares_segments_with(now));
        }
    }

    #[test]
    fn signature_reflects_contents() {
        let mut db = Instance::new();
        db.insert_fact("r", &["a", "b"]);
        db.insert_fact("s", &["c"]);
        let sig = db.signature();
        assert!(sig.contains(Predicate::new("r", 2)));
        assert!(sig.contains(Predicate::new("s", 1)));
        assert_eq!(sig.len(), 2);
    }
}
