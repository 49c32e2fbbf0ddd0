//! The relational store: a collection of [`Relation`]s.

use crate::relation::Relation;
use ontorew_model::prelude::*;
use std::collections::HashMap;

/// An in-memory relational database: one [`Relation`] per predicate.
///
/// This is the extensional layer of an OBDA deployment — the part the paper
/// assumes is "managed by the DBMS". It interconverts with the [`Instance`]
/// representation used by the chase, and both directions are the same
/// operation: clone each relation's [`IndexedRelation`]. A clone shares
/// every frozen segment by `Arc` and copies only the mutable tail, so on a
/// frozen store (every published snapshot is one) a conversion costs
/// O(#relations + #segments) and duplicates no row. Whatever the other side
/// then inserts — a chase's seeds and derived facts — lands in its own
/// tails; the shared segments are immutable.
#[derive(Clone, Debug, Default)]
pub struct RelationalStore {
    relations: HashMap<Predicate, Relation>,
}

impl RelationalStore {
    /// An empty store.
    pub fn new() -> Self {
        RelationalStore::default()
    }

    /// Build a store from an [`Instance`] by cloning its relations: frozen
    /// segments are shared, only the tails are copied. A frozen instance
    /// (a cached chase materialization) converts in O(#segments); the
    /// unfrozen result of a restricted chase copies exactly what that chase
    /// added on top of the frozen store it started from.
    pub fn from_instance(instance: &Instance) -> Self {
        let mut store = RelationalStore::new();
        for p in instance.predicates() {
            let rel = instance.relation(p).expect("predicates() yields non-empty");
            store
                .relations
                .insert(p, crate::relation::Relation::from_indexed(p, rel.clone()));
        }
        store
    }

    /// The store as an [`Instance`], built from clones of its relations:
    /// frozen segments are shared, only the tails are copied — so on a
    /// frozen store this is O(#relations + #segments) and the instance can
    /// be chased in place without touching the store.
    pub fn to_instance(&self) -> Instance {
        Instance::from_relations(
            self.relations
                .iter()
                .map(|(p, rel)| (*p, rel.indexed().clone())),
        )
    }

    /// Insert a ground atom; returns `true` if it was new.
    pub fn insert_atom(&mut self, atom: &Atom) -> bool {
        self.relations
            .entry(atom.predicate)
            .or_insert_with(|| Relation::new(atom.predicate))
            .insert(atom.terms.clone())
    }

    /// Insert a fact given by predicate name and constant names.
    pub fn insert_fact(&mut self, predicate: &str, constants: &[&str]) -> bool {
        self.insert_atom(&Atom::fact(predicate, constants))
    }

    /// Remove a ground atom; returns `true` if it was present. The affected
    /// relation is rebuilt from its retained tuples (see
    /// [`Relation::remove`]); every other relation keeps sharing its frozen
    /// segments, so a retraction epoch costs O(affected relations).
    pub fn remove_atom(&mut self, atom: &Atom) -> bool {
        match self.relations.get_mut(&atom.predicate) {
            Some(rel) => {
                let removed = rel.remove(&atom.terms);
                if removed && rel.is_empty() {
                    self.relations.remove(&atom.predicate);
                }
                removed
            }
            None => false,
        }
    }

    /// Freeze every relation (see [`Relation::freeze`]): publish all mutable
    /// tails as `Arc`-shared segments, making the next `clone()` of this
    /// store O(#relations + #segments) instead of O(#tuples). The epoch
    /// store calls this before publishing each snapshot.
    pub fn freeze(&mut self) {
        for rel in self.relations.values_mut() {
            rel.freeze();
        }
    }

    /// True if the store contains the ground atom.
    pub fn contains_atom(&self, atom: &Atom) -> bool {
        self.relations
            .get(&atom.predicate)
            .map(|r| r.contains(&atom.terms))
            .unwrap_or(false)
    }

    /// The relation for `predicate`, if it has any tuples.
    pub fn relation(&self, predicate: Predicate) -> Option<&Relation> {
        self.relations.get(&predicate)
    }

    /// Total tuples across the relations named by `atoms` (the size signal
    /// of the default join-strategy choice).
    pub fn body_size(&self, atoms: &[Atom]) -> usize {
        atoms.iter().map(|a| self.relation_size(a.predicate)).sum()
    }

    /// Mutable access to the relation for `predicate`, creating it if absent.
    pub fn relation_mut(&mut self, predicate: Predicate) -> &mut Relation {
        self.relations
            .entry(predicate)
            .or_insert_with(|| Relation::new(predicate))
    }

    /// Number of tuples in the relation for `predicate` (0 if absent).
    pub fn relation_size(&self, predicate: Predicate) -> usize {
        self.relations
            .get(&predicate)
            .map(Relation::len)
            .unwrap_or(0)
    }

    /// Total number of tuples across all relations.
    pub fn len(&self) -> usize {
        self.relations.values().map(Relation::len).sum()
    }

    /// True if the store holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The predicates present in the store.
    pub fn predicates(&self) -> impl Iterator<Item = Predicate> + '_ {
        self.relations.keys().copied()
    }

    /// The signature induced by the store.
    pub fn signature(&self) -> Signature {
        self.predicates().collect()
    }
}

impl ontorew_unify::RelationSource for RelationalStore {
    fn relation_of(
        &self,
        predicate: Predicate,
    ) -> Option<&ontorew_model::instance::IndexedRelation> {
        self.relation(predicate).map(Relation::indexed)
    }
}

impl From<&Instance> for RelationalStore {
    fn from(instance: &Instance) -> Self {
        RelationalStore::from_instance(instance)
    }
}

impl From<Instance> for RelationalStore {
    fn from(instance: Instance) -> Self {
        RelationalStore::from_instance(&instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_query() {
        let mut db = RelationalStore::new();
        assert!(db.insert_fact("teaches", &["alice", "db101"]));
        assert!(!db.insert_fact("teaches", &["alice", "db101"]));
        assert!(db.contains_atom(&Atom::fact("teaches", &["alice", "db101"])));
        assert_eq!(db.len(), 1);
        assert_eq!(db.relation_size(Predicate::new("teaches", 2)), 1);
        assert_eq!(db.relation_size(Predicate::new("absent", 1)), 0);
    }

    #[test]
    fn remove_atom_round_trip() {
        let mut db = RelationalStore::new();
        db.insert_fact("r", &["a", "b"]);
        db.insert_fact("r", &["c", "d"]);
        db.freeze();
        assert!(db.remove_atom(&Atom::fact("r", &["a", "b"])));
        assert!(!db.remove_atom(&Atom::fact("r", &["a", "b"])));
        assert!(!db.remove_atom(&Atom::fact("zzz", &["a"])));
        assert_eq!(db.len(), 1);
        assert!(db.contains_atom(&Atom::fact("r", &["c", "d"])));
        // Emptying a relation removes it from the signature.
        assert!(db.remove_atom(&Atom::fact("r", &["c", "d"])));
        assert!(db.is_empty());
        assert_eq!(db.signature().len(), 0);
    }

    #[test]
    fn instance_round_trip() {
        let mut inst = Instance::new();
        inst.insert_fact("r", &["a", "b"]);
        inst.insert_fact("s", &["c"]);
        let store = RelationalStore::from_instance(&inst);
        assert_eq!(store.len(), 2);
        assert_eq!(store.to_instance(), inst);
    }

    /// The instance a row-by-row copy of `store` would produce.
    fn rebuilt(store: &RelationalStore) -> Instance {
        let mut inst = Instance::new();
        for p in store.predicates() {
            for row in store.relation(p).unwrap().scan() {
                inst.insert(Atom::from_predicate(p, row.clone()));
            }
        }
        inst
    }

    fn sample_store() -> RelationalStore {
        let mut db = RelationalStore::new();
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
        db.relation_mut(Predicate::new("empty", 1));
        let before = db.clone();
        let mut inst = db.to_instance();
        assert_eq!(inst, rebuilt(&db));
        assert_eq!(inst.predicates().count(), 2, "empty relations are skipped");
        // Growth of the instance stays in its own tails.
        assert!(inst.insert_fact("r", &["new", "b"]));
        assert!(inst.insert_fact("u", &["d"]));
        assert_eq!(db.len(), 22);
        assert!(!db.contains_atom(&Atom::fact("r", &["new", "b"])));
        assert!(!db.contains_atom(&Atom::fact("u", &["d"])));
        assert!(db.relation(Predicate::new("u", 1)).is_none());
        for p in [Predicate::new("r", 2), Predicate::new("s", 1)] {
            let (now, then) = (db.relation(p).unwrap(), before.relation(p).unwrap());
            assert_eq!(now.len(), then.len());
            assert!(now.shares_segments_with(then));
            assert!(inst
                .relation(p)
                .unwrap()
                .shares_segments_with(now.indexed()));
        }
    }

    #[test]
    fn to_instance_of_an_unfrozen_store_equals_a_row_by_row_copy() {
        let db = sample_store();
        let inst = db.to_instance();
        assert_eq!(inst, rebuilt(&db));
        assert_eq!(inst.len(), db.len());
        for p in db.predicates() {
            assert!(inst.tuples(p).eq(db.relation(p).unwrap().scan()));
        }
    }

    #[test]
    fn signature_reflects_contents() {
        let mut db = RelationalStore::new();
        db.insert_fact("r", &["a", "b"]);
        db.insert_fact("s", &["c"]);
        let sig = db.signature();
        assert!(sig.contains(Predicate::new("r", 2)));
        assert!(sig.contains(Predicate::new("s", 1)));
        assert_eq!(sig.len(), 2);
    }

    #[test]
    fn relation_mut_creates_on_demand() {
        let mut db = RelationalStore::new();
        let p = Predicate::new("new_rel", 1);
        assert!(db.relation(p).is_none());
        db.relation_mut(p).insert(vec![Term::constant("x")]);
        assert_eq!(db.relation_size(p), 1);
    }

    #[test]
    fn from_conversions() {
        let mut inst = Instance::new();
        inst.insert_fact("r", &["a", "b"]);
        let s1: RelationalStore = (&inst).into();
        let s2: RelationalStore = inst.clone().into();
        assert_eq!(s1.len(), s2.len());
    }
}
