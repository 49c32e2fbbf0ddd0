//! Conjunctive-query evaluation over a stored [`Instance`].
//!
//! Evaluation is a caller of the two join engines of `ontorew-unify`; it
//! has no search of its own:
//!
//! * **Backtracking.** Acyclic bodies, and cyclic ones over little data, run
//!   the one backtracking search, [`Backtrack`]: a slot frame with an
//!   existential cut placed after the last answer variable, atoms ordered
//!   by estimated rows (relation sizes, or [`StoreStatistics`] when the
//!   configuration carries them).
//! * **Generic join.** Cyclic bodies over enough data go to the generic
//!   join ([`generic_join_visit`]).
//! * **One sink.** Either engine's visitor projects each match into an
//!   [`AnswerSink`], a hash set probed with a reused row buffer: a duplicate
//!   costs a lookup, and only a new answer allocates. Every disjunct of a
//!   union (and every grounded disjunct of a rewriting) writes into the
//!   same sink, which is sorted once into an [`AnswerSet`] at the end.
//!
//! A union is evaluated disjunct after disjunct on the calling thread: the
//! server already runs one worker per core.

use crate::cost::estimate_join_cost;
use crate::stats::StoreStatistics;
use ontorew_model::prelude::*;
use ontorew_unify::{choose_join_strategy, generic_join_visit, is_cyclic, Backtrack, JoinStrategy};
use std::collections::{BTreeSet, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Configuration of the CQ evaluator.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalConfig<'a> {
    /// Optional relation statistics; when present, the planner orders atoms
    /// by estimated matching rows instead of raw relation cardinality.
    pub statistics: Option<&'a StoreStatistics>,
    /// Join strategy: `Some` forces atom-at-a-time backtracking or the
    /// variable-at-a-time generic join; `None` picks per query — through the
    /// cost model ([`estimate_join_cost`]) when `statistics` are present,
    /// through the [`choose_join_strategy`] size threshold otherwise.
    pub strategy: Option<JoinStrategy>,
}

/// Counters collected while evaluating one conjunctive query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of body atoms joined.
    pub atoms: usize,
    /// Rows fetched from relations (via index or scan) by the backtracking
    /// search; the existential cut stops fetching below its level once a
    /// match is found.
    pub rows_fetched: usize,
    /// Answer tuples handed to the sink: counted after the existential cut
    /// and before deduplication.
    pub answers_emitted: usize,
}

/// The answers of a query: a set of tuples of ground terms, one column per
/// answer variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AnswerSet {
    /// The answer variables, in output order.
    pub columns: Vec<Variable>,
    rows: BTreeSet<Vec<Term>>,
}

impl AnswerSet {
    /// An empty answer set with the given columns.
    pub fn empty(columns: Vec<Variable>) -> Self {
        AnswerSet {
            columns,
            rows: BTreeSet::new(),
        }
    }

    /// Number of answer tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if there are no answers.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// For boolean queries: true if the (empty) answer tuple is present.
    pub fn as_boolean(&self) -> bool {
        !self.rows.is_empty()
    }

    /// Insert an answer tuple.
    pub fn insert(&mut self, row: Vec<Term>) {
        debug_assert_eq!(row.len(), self.columns.len());
        self.rows.insert(row);
    }

    /// True if the answer set contains the tuple.
    pub fn contains(&self, row: &[Term]) -> bool {
        self.rows.contains(row)
    }

    /// True if the answer set contains the tuple of constants named by
    /// `names`.
    pub fn contains_constants(&self, names: &[&str]) -> bool {
        let row: Vec<Term> = names.iter().map(|n| Term::constant(n)).collect();
        self.contains(&row)
    }

    /// Iterate over the answer tuples in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Vec<Term>> {
        self.rows.iter()
    }

    /// Move every answer of `other` (same columns assumed) into this one.
    pub fn merge(&mut self, mut other: AnswerSet) {
        self.rows.append(&mut other.rows);
    }

    /// Keep only answers made entirely of constants (no labelled nulls).
    ///
    /// Certain-answer semantics requires answers to be tuples of constants;
    /// chase-materialised instances contain nulls which must not leak into
    /// answers.
    pub fn retain_certain(&mut self) {
        self.rows.retain(|row| row.iter().all(|t| !t.is_null()));
    }

    /// A copy holding only the answers made entirely of constants; see
    /// [`AnswerSet::retain_certain`], which filters in place.
    pub fn without_nulls(&self) -> AnswerSet {
        AnswerSet {
            columns: self.columns.clone(),
            rows: self
                .rows
                .iter()
                .filter(|row| row.iter().all(|t| !t.is_null()))
                .cloned()
                .collect(),
        }
    }
}

/// The answer sink's hasher: one rotate, xor and multiply per word (the Fx
/// hash). Rows are short lists of interned ids, which it mixes well enough,
/// at a fraction of SipHash's cost per probe: on the benchmark's
/// `univ-hot-read` workload (2 shared cores) the median `storage.eval_us`
/// read 9 µs in six of seven traced runs with it, 10–16 µs with SipHash.
#[derive(Clone, Copy, Debug, Default)]
struct RowHasher(u64);

impl Hasher for RowHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.write_u64(u64::from(byte));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u32(&mut self, word: u32) {
        self.write_u64(u64::from(word));
    }

    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// Where evaluation writes its answers: a hash set of rows that every
/// disjunct of a union shares, turned into an [`AnswerSet`] once at the end.
#[derive(Debug)]
pub struct AnswerSink {
    columns: Vec<Variable>,
    rows: HashSet<Vec<Term>, BuildHasherDefault<RowHasher>>,
    /// The row being projected, reused for every emission.
    buffer: Vec<Term>,
}

impl AnswerSink {
    /// An empty sink for answers with the given columns.
    pub fn new(columns: Vec<Variable>) -> Self {
        AnswerSink {
            columns,
            rows: HashSet::default(),
            buffer: Vec::new(),
        }
    }

    /// Insert the row in `buffer`, copying it only when it is new.
    fn insert_buffered(&mut self) {
        debug_assert_eq!(self.buffer.len(), self.columns.len());
        if !self.rows.contains(self.buffer.as_slice()) {
            self.rows.insert(self.buffer.clone());
        }
    }

    /// The answers, sorted (`BTreeSet`'s bulk build sorts its input once).
    pub fn finish(self) -> AnswerSet {
        AnswerSet {
            columns: self.columns,
            rows: self.rows.into_iter().collect(),
        }
    }
}

/// Evaluate a conjunctive query over the store with the default
/// configuration.
pub fn evaluate_cq(store: &Instance, query: &ConjunctiveQuery) -> AnswerSet {
    evaluate_cq_instrumented(store, query, &EvalConfig::default()).0
}

/// Evaluate a conjunctive query with an explicit [`EvalConfig`], returning
/// the answers together with the evaluation counters.
pub fn evaluate_cq_instrumented(
    store: &Instance,
    query: &ConjunctiveQuery,
    config: &EvalConfig<'_>,
) -> (AnswerSet, EvalStats) {
    let mut sink = AnswerSink::new(query.answer_vars.clone());
    let stats = evaluate_into(
        store,
        &query.body,
        &answer_template(query),
        config,
        &mut sink,
    );
    (sink.finish(), stats)
}

/// A query's answer variables as the answer template of [`evaluate_into`].
fn answer_template(query: &ConjunctiveQuery) -> Vec<Term> {
    query
        .answer_vars
        .iter()
        .map(|v| Term::Variable(*v))
        .collect()
}

/// Evaluate `body` and write one row per match into `sink`, shaped by the
/// answer template `answer`: a variable takes its binding, a constant is
/// copied as is (the grounded disjuncts of a rewriting carry constants in
/// their answer). A template variable that the body does not mention is
/// never bound, so the body yields no answer.
pub fn evaluate_into(
    store: &Instance,
    body: &[Atom],
    answer: &[Term],
    config: &EvalConfig<'_>,
    sink: &mut AnswerSink,
) -> EvalStats {
    let mut stats = EvalStats {
        atoms: body.len(),
        ..EvalStats::default()
    };
    let body_vars = ontorew_model::atom::variables_of(body);
    let answerable = answer.iter().all(|t| match t {
        Term::Variable(v) => body_vars.contains(v),
        _ => true,
    });
    if !answerable {
        return stats;
    }
    let strategy = config.strategy.unwrap_or_else(|| match config.statistics {
        Some(statistics) => estimate_join_cost(statistics, body).strategy(),
        None => choose_join_strategy(body, is_cyclic(body), store),
    });
    if strategy == JoinStrategy::GenericJoin {
        generic_join_visit(body, store, &Substitution::new(), &mut |hom| {
            sink.buffer.clear();
            sink.buffer
                .extend(answer.iter().map(|t| hom.apply_term(*t)));
            stats.answers_emitted += 1;
            sink.insert_buffered();
        });
        return stats;
    }
    let estimate = |atom: &Atom| match config.statistics {
        Some(statistics) => statistics.estimated_matches(atom),
        None => store.relation_size(atom.predicate),
    };
    let answer_vars: Vec<Variable> = answer.iter().filter_map(Term::as_variable).collect();
    let mut search = Backtrack::new(body, store, &[], &answer_vars, &estimate);
    let output: Vec<Output> = answer
        .iter()
        .map(|t| match t.as_variable().and_then(|v| search.slot(v)) {
            Some(slot) => Output::Slot(slot),
            None => Output::Ground(*t),
        })
        .collect();
    let counts = search.run(|_, frame| {
        sink.buffer.clear();
        sink.buffer.extend(output.iter().map(|o| match *o {
            Output::Ground(t) => t,
            Output::Slot(slot) => frame[slot],
        }));
        sink.insert_buffered();
    });
    stats.rows_fetched = counts.rows_fetched;
    stats.answers_emitted = counts.emitted;
    stats
}

/// One output column: a constant of the answer template, or a slot.
#[derive(Clone, Copy, Debug)]
enum Output {
    Ground(Term),
    Slot(usize),
}

/// Evaluate a union of conjunctive queries over the store (set union of the
/// disjuncts' answers).
pub fn evaluate_ucq(store: &Instance, ucq: &UnionOfConjunctiveQueries) -> AnswerSet {
    evaluate_ucq_configured(store, ucq, &EvalConfig::default())
}

/// Evaluate a UCQ with an explicit [`EvalConfig`] applied to every disjunct,
/// all writing into one [`AnswerSink`].
pub fn evaluate_ucq_configured(
    store: &Instance,
    ucq: &UnionOfConjunctiveQueries,
    config: &EvalConfig<'_>,
) -> AnswerSet {
    let columns = ucq
        .disjuncts
        .first()
        .map(|q| q.answer_vars.clone())
        .unwrap_or_default();
    let mut sink = AnswerSink::new(columns);
    evaluate_ucq_into(store, ucq, config, &mut sink);
    sink.finish()
}

/// Evaluate every disjunct of a UCQ into `sink`, one after the other on the
/// calling thread.
pub fn evaluate_ucq_into(
    store: &Instance,
    ucq: &UnionOfConjunctiveQueries,
    config: &EvalConfig<'_>,
    sink: &mut AnswerSink,
) {
    for q in &ucq.disjuncts {
        evaluate_into(store, &q.body, &answer_template(q), config, sink);
    }
}

/// Evaluate a boolean conjunctive query.
pub fn evaluate_boolean(store: &Instance, query: &ConjunctiveQuery) -> bool {
    evaluate_cq(store, query).as_boolean()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(n: &str) -> Term {
        Term::variable(n)
    }

    fn university_store() -> Instance {
        let mut db = Instance::new();
        db.insert_fact("teaches", &["alice", "db101"]);
        db.insert_fact("teaches", &["bob", "ai102"]);
        db.insert_fact("teaches", &["alice", "ml103"]);
        db.insert_fact("attends", &["carol", "db101"]);
        db.insert_fact("attends", &["dave", "ai102"]);
        db.insert_fact("attends", &["carol", "ml103"]);
        db.insert_fact("course", &["db101"]);
        db.insert_fact("course", &["ai102"]);
        db.insert_fact("course", &["ml103"]);
        db
    }

    #[test]
    fn single_atom_query() {
        let db = university_store();
        let q = ConjunctiveQuery::new(
            vec![Variable::new("X")],
            vec![Atom::new("teaches", vec![v("X"), v("C")])],
        );
        let answers = evaluate_cq(&db, &q);
        assert_eq!(answers.len(), 2); // alice, bob (set semantics)
        assert!(answers.contains_constants(&["alice"]));
        assert!(answers.contains_constants(&["bob"]));
    }

    #[test]
    fn join_query() {
        let db = university_store();
        // Students attending a course taught by alice.
        let q = ConjunctiveQuery::new(
            vec![Variable::new("S")],
            vec![
                Atom::new("teaches", vec![Term::constant("alice"), v("C")]),
                Atom::new("attends", vec![v("S"), v("C")]),
            ],
        );
        let answers = evaluate_cq(&db, &q);
        assert_eq!(answers.len(), 1);
        assert!(answers.contains_constants(&["carol"]));
    }

    #[test]
    fn multi_column_answers() {
        let db = university_store();
        let q = ConjunctiveQuery::new(
            vec![Variable::new("T"), Variable::new("S")],
            vec![
                Atom::new("teaches", vec![v("T"), v("C")]),
                Atom::new("attends", vec![v("S"), v("C")]),
            ],
        );
        let answers = evaluate_cq(&db, &q);
        // (alice, carol) arises from two courses but answers are a set.
        assert_eq!(answers.len(), 2);
        assert!(answers.contains_constants(&["alice", "carol"]));
        assert!(answers.contains_constants(&["bob", "dave"]));
    }

    #[test]
    fn boolean_queries() {
        let db = university_store();
        let yes = ConjunctiveQuery::boolean(vec![Atom::new(
            "teaches",
            vec![Term::constant("alice"), v("C")],
        )]);
        let no = ConjunctiveQuery::boolean(vec![Atom::new(
            "teaches",
            vec![Term::constant("zoe"), v("C")],
        )]);
        assert!(evaluate_boolean(&db, &yes));
        assert!(!evaluate_boolean(&db, &no));
    }

    #[test]
    fn query_over_missing_relation_is_empty() {
        let db = university_store();
        let q = ConjunctiveQuery::new(
            vec![Variable::new("X")],
            vec![Atom::new("enrolled", vec![v("X")])],
        );
        assert!(evaluate_cq(&db, &q).is_empty());
    }

    #[test]
    fn repeated_variable_in_query_atom() {
        let mut db = Instance::new();
        db.insert_fact("edge", &["a", "b"]);
        db.insert_fact("edge", &["c", "c"]);
        let q = ConjunctiveQuery::new(
            vec![Variable::new("X")],
            vec![Atom::new("edge", vec![v("X"), v("X")])],
        );
        let answers = evaluate_cq(&db, &q);
        assert_eq!(answers.len(), 1);
        assert!(answers.contains_constants(&["c"]));
    }

    #[test]
    fn ucq_evaluation_is_the_union() {
        let db = university_store();
        let q1 = ConjunctiveQuery::new(
            vec![Variable::new("X")],
            vec![Atom::new("teaches", vec![v("X"), Term::constant("db101")])],
        );
        let q2 = ConjunctiveQuery::new(
            vec![Variable::new("X")],
            vec![Atom::new("attends", vec![v("X"), Term::constant("db101")])],
        );
        let ucq = UnionOfConjunctiveQueries::new(vec![q1, q2]);
        let answers = evaluate_ucq(&db, &ucq);
        assert_eq!(answers.len(), 2);
        assert!(answers.contains_constants(&["alice"]));
        assert!(answers.contains_constants(&["carol"]));
    }

    /// Every homomorphism of `body` into `db`, by nested loops over
    /// [`Instance::atoms`]: no index, no atom order, no cut, and no code of
    /// the search under test.
    fn nested_loop(body: &[Atom], db: &Instance) -> Vec<Substitution> {
        let facts: Vec<Atom> = db.atoms().collect();
        let mut partial = vec![Substitution::new()];
        for atom in body {
            let mut next = Vec::new();
            for sub in &partial {
                for fact in facts.iter().filter(|f| f.predicate == atom.predicate) {
                    let mut extended = sub.clone();
                    let fits = atom
                        .terms
                        .iter()
                        .zip(&fact.terms)
                        .all(|(p, value)| match *p {
                            Term::Variable(x) => match extended.get(x) {
                                Some(bound) => bound == *value,
                                None => {
                                    extended.bind(x, *value);
                                    true
                                }
                            },
                            ground => ground == *value,
                        });
                    if fits {
                        next.push(extended);
                    }
                }
            }
            partial = next;
        }
        partial
    }

    /// The union of the disjuncts' answers by [`nested_loop`]: the
    /// reference no part of the evaluator takes part in.
    fn naive_union(db: &Instance, ucq: &UnionOfConjunctiveQueries) -> BTreeSet<Vec<Term>> {
        let mut rows = BTreeSet::new();
        for q in &ucq.disjuncts {
            for h in nested_loop(&q.body, db) {
                let row: Vec<Term> = q
                    .answer_vars
                    .iter()
                    .map(|v| h.apply_term(Term::Variable(*v)))
                    .collect();
                if row.iter().all(Term::is_ground) {
                    rows.insert(row);
                }
            }
        }
        rows
    }

    fn rows_of(answers: &AnswerSet) -> BTreeSet<Vec<Term>> {
        answers.iter().cloned().collect()
    }

    #[test]
    fn parallel_ucq_evaluation_matches_sequential() {
        // Every disjunct writes into one sink on the calling thread: the
        // sink must hold exactly the union.
        let mut db = Instance::new();
        for i in 0..40 {
            db.insert_fact(
                &format!("p{i}"),
                &[&format!("c{i}"), &format!("d{}", i % 7)],
            );
            db.insert_fact("shared", &[&format!("d{}", i % 7)]);
        }
        // 40 disjuncts, joining each p_i with the shared relation.
        let disjuncts: Vec<ConjunctiveQuery> = (0..40)
            .map(|i| {
                ConjunctiveQuery::new(
                    vec![Variable::new("X")],
                    vec![
                        Atom::new(&format!("p{i}"), vec![v("X"), v("Y")]),
                        Atom::new("shared", vec![v("Y")]),
                    ],
                )
            })
            .collect();
        let ucq = UnionOfConjunctiveQueries::new(disjuncts);
        let answers = evaluate_ucq(&db, &ucq);
        assert_eq!(answers.len(), 40);
        assert_eq!(rows_of(&answers), naive_union(&db, &ucq));
        let mut by_disjunct = BTreeSet::new();
        for q in &ucq.disjuncts {
            by_disjunct.extend(rows_of(&evaluate_cq(&db, q)));
        }
        assert_eq!(rows_of(&answers), by_disjunct);
    }

    #[test]
    fn existential_cut_keeps_answers_and_fetches_fewer_rows() {
        // Each advisor teaches one course that 200 students attend: without
        // the cut, every (S, P) pair would enumerate all 200 attendees.
        let mut db = Instance::new();
        for s in 0..10 {
            db.insert_fact("advisedBy", &[&format!("s{s}"), &format!("p{}", s % 2)]);
        }
        for p in 0..2 {
            db.insert_fact("teaches", &[&format!("p{p}"), &format!("c{p}")]);
        }
        for a in 0..200 {
            let student = format!("t{a}");
            db.insert_fact("attends", &[&student, &format!("c{}", a % 2)]);
            db.insert_fact("person", &[&student]);
        }
        let q = ConjunctiveQuery::new(
            vec![Variable::new("S")],
            vec![
                Atom::new("advisedBy", vec![v("S"), v("P")]),
                Atom::new("teaches", vec![v("P"), v("C")]),
                Atom::new("attends", vec![v("S2"), v("C")]),
                Atom::new("person", vec![v("S2")]),
            ],
        );
        let (answers, stats) = evaluate_cq_instrumented(&db, &q, &EvalConfig::default());
        let ucq = UnionOfConjunctiveQueries::new(vec![q.clone()]);
        assert_eq!(answers.len(), 10);
        assert_eq!(rows_of(&answers), naive_union(&db, &ucq));
        // The join order is teaches, advisedBy, attends, person, and S is
        // bound after the second atom. One witness per (S, P): 2 teaches +
        // 10 advisedBy + 10 attends + 10 person rows, against 2 + 10 +
        // 1,000 + 1,000 without the cut.
        assert_eq!(stats.answers_emitted, 10, "{stats:?}");
        assert_eq!(stats.rows_fetched, 32, "{stats:?}");
    }

    #[test]
    fn boolean_query_fetches_one_witness() {
        let mut db = Instance::new();
        for i in 0..100 {
            db.insert_fact("edge", &["hub", &format!("n{i}")]);
        }
        let q = ConjunctiveQuery::boolean(vec![Atom::new("edge", vec![v("X"), v("Y")])]);
        let (answers, stats) = evaluate_cq_instrumented(&db, &q, &EvalConfig::default());
        assert!(answers.as_boolean());
        assert_eq!(stats.rows_fetched, 1, "{stats:?}");
        assert_eq!(stats.answers_emitted, 1, "{stats:?}");
        let none = ConjunctiveQuery::boolean(vec![Atom::new("edge", vec![v("X"), v("X")])]);
        assert!(!evaluate_boolean(&db, &none));
    }

    #[test]
    fn wide_relations_have_no_arity_limit() {
        let mut db = Instance::new();
        for i in 0..30 {
            let cols: Vec<String> = (0..10).map(|c| format!("v{}", (i + c) % 7)).collect();
            let refs: Vec<&str> = cols.iter().map(String::as_str).collect();
            db.insert_fact("wide", &refs);
            db.insert_fact("tag", &[&format!("v{}", i % 7)]);
        }
        let mut terms: Vec<Term> = (0..10).map(|c| v(&format!("X{c}"))).collect();
        terms[3] = v("X0"); // a repeated variable
        terms[9] = Term::constant("v2");
        let q = ConjunctiveQuery::new(
            vec![Variable::new("X0"), Variable::new("X5")],
            vec![Atom::new("wide", terms), Atom::new("tag", vec![v("X5")])],
        );
        let answers = evaluate_cq(&db, &q);
        let ucq = UnionOfConjunctiveQueries::new(vec![q]);
        assert_eq!(rows_of(&answers), naive_union(&db, &ucq));
    }

    #[test]
    fn generic_join_visitor_matches_the_collected_join() {
        let mut db = Instance::new();
        for i in 0..60u32 {
            db.insert_fact("e", &[&format!("u{i}"), &format!("u{}", (i * 7 + 1) % 60)]);
            db.insert_fact("e", &[&format!("u{i}"), &format!("u{}", (i + 1) % 60)]);
        }
        let body = vec![
            Atom::new("e", vec![v("X"), v("Y")]),
            Atom::new("e", vec![v("Y"), v("Z")]),
            Atom::new("e", vec![v("X"), v("Z")]),
        ];
        let seed = Substitution::new();
        let collected: BTreeSet<String> = ontorew_unify::generic_join_all(&body, &db, &seed)
            .iter()
            .map(|s| format!("{s:?}"))
            .collect();
        let mut visited = BTreeSet::new();
        generic_join_visit(&body, &db, &seed, &mut |s| {
            visited.insert(format!("{s:?}"));
        });
        assert_eq!(visited, collected);
        // The evaluator's generic-join branch projects the same matches.
        let q = ConjunctiveQuery::new(vec![Variable::new("X"), Variable::new("Z")], body);
        let (answers, _) = evaluate_cq_instrumented(
            &db,
            &q,
            &EvalConfig {
                strategy: Some(JoinStrategy::GenericJoin),
                ..EvalConfig::default()
            },
        );
        let ucq = UnionOfConjunctiveQueries::new(vec![q]);
        assert_eq!(rows_of(&answers), naive_union(&db, &ucq));
    }

    #[test]
    fn answers_with_nulls_can_be_filtered() {
        let mut db = Instance::new();
        db.insert(Atom {
            predicate: Predicate::new("p", 1),
            terms: vec![Term::Null(Null(1))],
        });
        db.insert_fact("p", &["a"]);
        let q = ConjunctiveQuery::new(vec![Variable::new("X")], vec![Atom::new("p", vec![v("X")])]);
        let answers = evaluate_cq(&db, &q);
        assert_eq!(answers.len(), 2);
        assert_eq!(answers.without_nulls().len(), 1);
    }

    #[test]
    fn all_evaluator_configurations_agree_on_answers() {
        let db = university_store();
        let stats = crate::stats::StoreStatistics::collect(&db);
        let q = ConjunctiveQuery::new(
            vec![Variable::new("S")],
            vec![
                Atom::new("attends", vec![v("S"), v("C")]),
                Atom::new("teaches", vec![Term::constant("alice"), v("C")]),
                Atom::new("course", vec![v("C")]),
            ],
        );
        let baseline = evaluate_cq(&db, &q);
        let configs = [
            EvalConfig {
                strategy: Some(JoinStrategy::Backtracking),
                ..EvalConfig::default()
            },
            EvalConfig {
                strategy: Some(JoinStrategy::GenericJoin),
                ..EvalConfig::default()
            },
            EvalConfig {
                statistics: Some(&stats),
                ..EvalConfig::default()
            },
        ];
        for config in configs {
            let (answers, _) = evaluate_cq_instrumented(&db, &q, &config);
            assert_eq!(answers, baseline, "config {config:?} changed the answers");
        }
    }

    #[test]
    fn planner_reduces_fetched_rows_on_selective_queries() {
        // A selective constant on the second atom: the planner starts from
        // it (1 row), then probes `attends` by course (10 rows), where body
        // order would scan all 200 attendees first.
        let mut db = Instance::new();
        for i in 0..200 {
            db.insert_fact("attends", &[&format!("s{i}"), &format!("c{}", i % 20)]);
        }
        db.insert_fact("teaches", &["alice", "c3"]);
        let q = ConjunctiveQuery::new(
            vec![Variable::new("S")],
            vec![
                Atom::new("attends", vec![v("S"), v("C")]),
                Atom::new("teaches", vec![Term::constant("alice"), v("C")]),
            ],
        );
        let (answers, planned) = evaluate_cq_instrumented(&db, &q, &EvalConfig::default());
        let ucq = UnionOfConjunctiveQueries::new(vec![q]);
        assert_eq!(rows_of(&answers), naive_union(&db, &ucq));
        assert_eq!(planned.rows_fetched, 11, "{planned:?}");
        assert_eq!(planned.answers_emitted, 10, "{planned:?}");
    }

    #[test]
    fn statistics_driven_planning_matches_size_driven_planning_answers() {
        let db = university_store();
        let stats = crate::stats::StoreStatistics::collect(&db);
        let q = ConjunctiveQuery::new(
            vec![Variable::new("T"), Variable::new("S")],
            vec![
                Atom::new("teaches", vec![v("T"), v("C")]),
                Atom::new("attends", vec![v("S"), v("C")]),
            ],
        );
        let with_stats = evaluate_cq_instrumented(
            &db,
            &q,
            &EvalConfig {
                statistics: Some(&stats),
                ..EvalConfig::default()
            },
        )
        .0;
        assert_eq!(with_stats, evaluate_cq(&db, &q));
    }

    #[test]
    fn generic_join_strategy_matches_backtracking_on_cyclic_queries() {
        let mut db = Instance::new();
        for i in 0..150u32 {
            db.insert_fact(
                "follows",
                &[&format!("u{i}"), &format!("u{}", (i * 17 + 3) % 150)],
            );
            db.insert_fact(
                "follows",
                &[&format!("u{i}"), &format!("u{}", (i + 1) % 150)],
            );
        }
        let triangle = ConjunctiveQuery::new(
            vec![Variable::new("X"), Variable::new("Y"), Variable::new("Z")],
            vec![
                Atom::new("follows", vec![v("X"), v("Y")]),
                Atom::new("follows", vec![v("Y"), v("Z")]),
                Atom::new("follows", vec![v("Z"), v("X")]),
            ],
        );
        let forced = |strategy| {
            evaluate_cq_instrumented(
                &db,
                &triangle,
                &EvalConfig {
                    strategy: Some(strategy),
                    ..EvalConfig::default()
                },
            )
            .0
        };
        let backtracking = forced(JoinStrategy::Backtracking);
        let generic = forced(JoinStrategy::GenericJoin);
        assert_eq!(generic, backtracking);
        // The auto choice goes to the generic join here (cyclic + big) and
        // must give the same answers.
        assert_eq!(
            choose_join_strategy(&triangle.body, true, &db),
            JoinStrategy::GenericJoin
        );
        assert_eq!(evaluate_cq(&db, &triangle), backtracking);
    }

    #[test]
    fn evaluation_agrees_with_naive_homomorphism_search() {
        // Cross-check the evaluator against the nested-loop reference.
        let db = university_store();
        let q = ConjunctiveQuery::new(
            vec![Variable::new("T")],
            vec![
                Atom::new("teaches", vec![v("T"), v("C")]),
                Atom::new("course", vec![v("C")]),
                Atom::new("attends", vec![v("S"), v("C")]),
            ],
        );
        let fast = evaluate_cq(&db, &q);
        let ucq = UnionOfConjunctiveQueries::new(vec![q]);
        assert_eq!(rows_of(&fast), naive_union(&db, &ucq));
    }
}
