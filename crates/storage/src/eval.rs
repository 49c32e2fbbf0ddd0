//! Conjunctive-query evaluation over a stored [`Instance`].
//!
//! Evaluation is an index-nested-loop join: atoms are ordered greedily so
//! that each atom shares as many variables as possible with the atoms already
//! joined (and constants are exploited first), and for each atom the matching
//! tuples are fetched through the relation's eagerly maintained per-column
//! hash indexes (the most selective bound column wins), so evaluation only
//! needs shared access to the store.

use crate::cost::estimate_join_cost;
use crate::stats::StoreStatistics;
use ontorew_model::prelude::*;
use ontorew_unify::{choose_join_strategy, generic_join_all, JoinStrategy};
use std::collections::BTreeSet;

/// Configuration of the CQ evaluator.
///
/// The defaults reproduce the standard evaluation path (greedy atom
/// reordering, lazy per-column hash indexes). Switching the flags off is used
/// by the planner-ablation benchmark to quantify what each optimisation buys.
#[derive(Clone, Copy, Debug)]
pub struct EvalConfig<'a> {
    /// Reorder body atoms greedily (bound variables, ground terms, size).
    pub reorder_atoms: bool,
    /// Use per-column hash indexes for atoms with a ground column; when
    /// false, every atom is matched by a full scan.
    pub use_indexes: bool,
    /// Optional relation statistics; when present, the planner orders atoms
    /// by estimated matching rows instead of raw relation cardinality.
    pub statistics: Option<&'a StoreStatistics>,
    /// Join strategy: `Some` forces atom-at-a-time backtracking or the
    /// variable-at-a-time generic join; `None` picks per query — through the
    /// cost model ([`estimate_join_cost`]) when `statistics` are present,
    /// through the [`choose_join_strategy`] size threshold otherwise.
    pub strategy: Option<JoinStrategy>,
}

impl Default for EvalConfig<'_> {
    fn default() -> Self {
        EvalConfig {
            reorder_atoms: true,
            use_indexes: true,
            statistics: None,
            strategy: None,
        }
    }
}

/// Counters collected while evaluating one conjunctive query.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of body atoms joined.
    pub atoms: usize,
    /// Rows fetched from relations (via index or scan).
    pub rows_fetched: usize,
    /// Atom lookups answered through a hash index.
    pub index_probes: usize,
    /// Atom lookups answered by a full scan.
    pub full_scans: usize,
    /// Number of answer tuples produced (before set deduplication).
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

    /// Merge another answer set (same columns assumed) into this one.
    pub fn union_with(&mut self, other: &AnswerSet) {
        for row in &other.rows {
            self.rows.insert(row.clone());
        }
    }

    /// Keep only answers made entirely of constants (no labelled nulls).
    ///
    /// Certain-answer semantics requires answers to be tuples of constants;
    /// chase-materialised instances contain nulls which must not leak into
    /// answers.
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
    let strategy = config.strategy.unwrap_or_else(|| match config.statistics {
        Some(stats) => estimate_join_cost(stats, &query.body).strategy(),
        None => choose_join_strategy(&query.body, store),
    });
    if strategy == JoinStrategy::GenericJoin {
        return evaluate_cq_generic_join(store, query);
    }
    let mut answers = AnswerSet::empty(query.answer_vars.clone());
    let order = if config.reorder_atoms {
        plan_order(store, &query.body, config.statistics)
    } else {
        query.body.to_vec()
    };
    let mut stats = EvalStats {
        atoms: order.len(),
        ..EvalStats::default()
    };
    let mut bindings = Substitution::new();
    join(
        store,
        &order,
        0,
        &mut bindings,
        config,
        &mut stats,
        &mut |final_bindings, stats| {
            let row: Vec<Term> = query
                .answer_vars
                .iter()
                .map(|v| final_bindings.apply_term(Term::Variable(*v)))
                .collect();
            if row.iter().all(Term::is_ground) {
                stats.answers_emitted += 1;
                answers.insert(row);
            }
        },
    );
    (answers, stats)
}

/// The worst-case-optimal evaluation path: hand the body to
/// [`generic_join_all`] (variable-at-a-time over the relation segment
/// indexes) and project the substitutions onto the answer variables. The
/// answers are identical to the backtracking path — only the join order and
/// cost differ.
fn evaluate_cq_generic_join(store: &Instance, query: &ConjunctiveQuery) -> (AnswerSet, EvalStats) {
    let mut answers = AnswerSet::empty(query.answer_vars.clone());
    let mut stats = EvalStats {
        atoms: query.body.len(),
        ..EvalStats::default()
    };
    for hom in generic_join_all(&query.body, store, &Substitution::new()) {
        let row: Vec<Term> = query
            .answer_vars
            .iter()
            .map(|v| hom.apply_term(Term::Variable(*v)))
            .collect();
        if row.iter().all(Term::is_ground) {
            stats.answers_emitted += 1;
            answers.insert(row);
        }
    }
    (answers, stats)
}

/// Unions smaller than this are always evaluated sequentially: spawning a
/// scoped thread costs more than joining a handful of indexed disjuncts.
const PARALLEL_UCQ_MIN_DISJUNCTS: usize = 8;

/// Evaluate a union of conjunctive queries over the store (set union of the
/// disjuncts' answers).
///
/// Disjuncts are independent — each one only reads the shared store — so
/// large unions (the shape UCQ rewritings of hierarchy-heavy ontologies
/// produce) are fanned out across `available_parallelism` scoped threads;
/// small unions are evaluated inline. Answers are a set union either way, so
/// the result is identical to the sequential evaluation.
pub fn evaluate_ucq(store: &Instance, ucq: &UnionOfConjunctiveQueries) -> AnswerSet {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    evaluate_ucq_with(store, ucq, threads)
}

/// Evaluate a UCQ with an explicit thread budget (`<= 1` forces the
/// sequential path). Exposed for the plan executor and for tests that pin
/// the configuration.
pub fn evaluate_ucq_with(
    store: &Instance,
    ucq: &UnionOfConjunctiveQueries,
    threads: usize,
) -> AnswerSet {
    evaluate_ucq_configured(store, ucq, threads, &EvalConfig::default())
}

/// Evaluate a UCQ with an explicit [`EvalConfig`] applied to every disjunct
/// — the plan executor's path, which threads the store statistics through so
/// each disjunct's join strategy is chosen by the cost model.
pub fn evaluate_ucq_configured(
    store: &Instance,
    ucq: &UnionOfConjunctiveQueries,
    threads: usize,
    config: &EvalConfig<'_>,
) -> AnswerSet {
    let columns = ucq
        .disjuncts
        .first()
        .map(|q| q.answer_vars.clone())
        .unwrap_or_default();
    let mut answers = AnswerSet::empty(columns);
    let threads = threads.max(1);
    if threads == 1 || ucq.len() < PARALLEL_UCQ_MIN_DISJUNCTS.max(2 * threads) {
        for q in &ucq.disjuncts {
            let part = evaluate_cq_instrumented(store, q, config).0;
            answers.union_with(&part);
        }
        return answers;
    }
    // Contiguous chunks, one scoped worker per chunk: rewriting disjuncts of
    // one query have similar shapes (and therefore similar cost), so static
    // partitioning balances well without a work queue.
    let chunk_size = ucq.disjuncts.len().div_ceil(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = ucq
            .disjuncts
            .chunks(chunk_size)
            .map(|chunk| {
                scope.spawn(move || {
                    let mut local: Option<AnswerSet> = None;
                    for q in chunk {
                        let part = evaluate_cq_instrumented(store, q, config).0;
                        match &mut local {
                            Some(acc) => acc.union_with(&part),
                            None => local = Some(part),
                        }
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            if let Some(part) = handle.join().expect("UCQ evaluation worker panicked") {
                answers.union_with(&part);
            }
        }
    });
    answers
}

/// Evaluate a boolean conjunctive query.
pub fn evaluate_boolean(store: &Instance, query: &ConjunctiveQuery) -> bool {
    evaluate_cq(store, query).as_boolean()
}

/// Greedy join ordering: repeatedly pick the atom maximising
/// (number of already-bound variables, number of ground terms, -estimated
/// matching rows). Without statistics the estimate is the raw relation size;
/// with statistics it is refined by the distinct counts of the ground
/// columns.
fn plan_order(store: &Instance, atoms: &[Atom], statistics: Option<&StoreStatistics>) -> Vec<Atom> {
    let mut remaining: Vec<Atom> = atoms.to_vec();
    let mut bound: BTreeSet<Variable> = BTreeSet::new();
    let mut ordered = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let (best, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let vars = a.variable_set();
                let bound_vars = vars.iter().filter(|v| bound.contains(v)).count() as i64;
                let ground = a.terms.iter().filter(|t| t.is_ground()).count() as i64;
                let size = match statistics {
                    Some(stats) => stats.estimated_matches(a) as i64,
                    None => store.relation_size(a.predicate) as i64,
                };
                (
                    i,
                    bound_vars * 1_000_000 + ground * 10_000 - size.min(9_999),
                )
            })
            .max_by_key(|(_, score)| *score)
            .expect("remaining is non-empty");
        let atom = remaining.remove(best);
        bound.extend(atom.variable_set());
        ordered.push(atom);
    }
    ordered
}

fn join(
    store: &Instance,
    atoms: &[Atom],
    idx: usize,
    bindings: &mut Substitution,
    config: &EvalConfig<'_>,
    stats: &mut EvalStats,
    on_answer: &mut dyn FnMut(&Substitution, &mut EvalStats),
) {
    if idx == atoms.len() {
        on_answer(bindings, stats);
        return;
    }
    let atom = bindings.apply_atom(&atoms[idx]);
    let relation = match store.relation(atom.predicate) {
        Some(r) => r,
        None => return, // empty relation: no matches
    };

    // Choose an access path: the most selective bound-column index, or a
    // full scan (always a scan when indexes are disabled for ablation).
    let candidates = if config.use_indexes {
        relation.candidates(&atom.terms)
    } else {
        relation.scan_candidates()
    };
    if candidates.used_index() {
        stats.index_probes += 1;
    } else {
        stats.full_scans += 1;
    }

    for row in candidates {
        stats.rows_fetched += 1;
        if let Some(extension) = match_row(&atom, row) {
            let saved = bindings.clone();
            for (v, t) in extension.iter() {
                bindings.bind(v, t);
            }
            join(store, atoms, idx + 1, bindings, config, stats, on_answer);
            *bindings = saved;
        }
    }
}

/// Match a partially ground atom against a stored row, returning the new
/// bindings needed, or `None` if it does not match.
fn match_row(atom: &Atom, row: &[Term]) -> Option<Substitution> {
    let mut extension = Substitution::new();
    for (pattern, value) in atom.terms.iter().zip(row.iter()) {
        match pattern {
            Term::Variable(v) => match extension.get(*v) {
                Some(existing) if existing != *value => return None,
                Some(_) => {}
                None => extension.bind(*v, *value),
            },
            ground => {
                if ground != value {
                    return None;
                }
            }
        }
    }
    Some(extension)
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

    #[test]
    fn parallel_ucq_evaluation_matches_sequential() {
        let mut db = Instance::new();
        for i in 0..40 {
            db.insert_fact(
                &format!("p{i}"),
                &[&format!("c{i}"), &format!("d{}", i % 7)],
            );
            db.insert_fact("shared", &[&format!("d{}", i % 7)]);
        }
        // 40 disjuncts (over the parallel threshold), joining each p_i with
        // the shared relation.
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
        let sequential = evaluate_ucq_with(&db, &ucq, 1);
        assert_eq!(sequential.len(), 40);
        for threads in [2, 3, 8, 64] {
            let parallel = evaluate_ucq_with(&db, &ucq, threads);
            assert_eq!(parallel, sequential, "threads={threads} changed answers");
        }
        assert_eq!(evaluate_ucq(&db, &ucq), sequential);
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
                reorder_atoms: false,
                use_indexes: false,
                ..EvalConfig::default()
            },
            EvalConfig {
                reorder_atoms: false,
                use_indexes: true,
                ..EvalConfig::default()
            },
            EvalConfig {
                reorder_atoms: true,
                use_indexes: false,
                ..EvalConfig::default()
            },
            EvalConfig {
                reorder_atoms: true,
                use_indexes: true,
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
    fn disabling_indexes_forces_full_scans() {
        let db = university_store();
        let q = ConjunctiveQuery::new(
            vec![Variable::new("S")],
            vec![
                Atom::new("teaches", vec![Term::constant("alice"), v("C")]),
                Atom::new("attends", vec![v("S"), v("C")]),
            ],
        );
        let (_, with_indexes) = evaluate_cq_instrumented(&db, &q, &EvalConfig::default());
        let (_, without_indexes) = evaluate_cq_instrumented(
            &db,
            &q,
            &EvalConfig {
                use_indexes: false,
                ..EvalConfig::default()
            },
        );
        assert!(with_indexes.index_probes > 0);
        assert_eq!(without_indexes.index_probes, 0);
        assert!(without_indexes.full_scans > 0);
        assert!(without_indexes.rows_fetched >= with_indexes.rows_fetched);
    }

    #[test]
    fn planner_reduces_fetched_rows_on_selective_queries() {
        // A selective constant on the second atom: without reordering the
        // evaluator starts from the large unselective atom.
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
        let (planned_answers, planned) = evaluate_cq_instrumented(&db, &q, &EvalConfig::default());
        let (naive_answers, naive) = evaluate_cq_instrumented(
            &db,
            &q,
            &EvalConfig {
                reorder_atoms: false,
                ..EvalConfig::default()
            },
        );
        assert_eq!(planned_answers, naive_answers);
        assert!(
            planned.rows_fetched < naive.rows_fetched,
            "planned {planned:?} vs naive {naive:?}"
        );
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
            ontorew_unify::choose_join_strategy(&triangle.body, &db),
            JoinStrategy::GenericJoin
        );
        assert_eq!(evaluate_cq(&db, &triangle), backtracking);
    }

    #[test]
    fn evaluation_agrees_with_naive_homomorphism_search() {
        // Cross-check the indexed join against the backtracking homomorphism
        // search from ontorew-unify on a small random-ish instance.
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
        let homs = ontorew_unify::all_homomorphisms(&q.body, &db, &Substitution::new());
        let mut slow: BTreeSet<Vec<Term>> = BTreeSet::new();
        for h in homs {
            slow.insert(vec![h.apply_term(v("T"))]);
        }
        let fast_rows: BTreeSet<Vec<Term>> = fast.iter().cloned().collect();
        assert_eq!(fast_rows, slow);
    }
}
