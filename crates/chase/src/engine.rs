//! The chase engine: oblivious (semi-oblivious) and restricted variants.
//!
//! The chase expands a database `D` with the consequences of a TGD program
//! `P`, inventing labelled nulls for existential head variables. Its result
//! is a *universal model* of `(P, D)`: a database that satisfies `(P, D)` and
//! maps homomorphically into every other database satisfying it, which is why
//! evaluating a CQ over the chase (and discarding tuples with nulls) yields
//! exactly the certain answers.
//!
//! Two firing policies are provided:
//!
//! * **Semi-oblivious** ([`ChaseVariant::Oblivious`]): every trigger is fired
//!   once per frontier image, whether or not its head is already satisfied.
//!   Simple and insensitive to firing order, but produces larger instances.
//! * **Restricted / standard** ([`ChaseVariant::Restricted`]): a trigger is
//!   fired only if its head cannot already be satisfied in the current
//!   instance; produces smaller instances.
//!
//! Orthogonally, two evaluation strategies are provided:
//!
//! * **Semi-naive** ([`ChaseStrategy::SemiNaive`], the default): each round
//!   only searches for triggers whose body uses at least one fact derived in
//!   the previous round (the *delta*), probing the instance's per-column
//!   hash indexes. The delta invariant — every trigger is enumerated exactly
//!   once, in the first round in which its body image exists — eliminates
//!   both the full-instance rescan and the replay of previously fired
//!   triggers that make the naive loop superlinear.
//! * **Naive** ([`ChaseStrategy::Naive`]): re-runs the full trigger search
//!   every round and skips already-fired triggers through their keys. Kept
//!   as the reference implementation; the equivalence property tests check
//!   that both strategies produce the same result up to null renaming.
//!
//! Neither variant terminates on every program (the problem is undecidable);
//! the engine therefore runs under a budget ([`ChaseConfig`]) and reports how
//! it stopped ([`ChaseOutcome`]).

use crate::layered::TriggerKeySet;
use crate::provenance::DerivationGraph;
use crate::trigger::{
    find_rule_triggers, find_rule_triggers_delta_with, find_rule_triggers_with, HeadCheck,
    RulePlan, Trigger, TriggerKey,
};
use ontorew_model::prelude::*;
use ontorew_telemetry::{global_registry, span, Counter, Gauge, Histogram};
use ontorew_unify::choose_join_strategy;
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};

/// Cached handles into the global metrics registry for the chase's hot
/// loop — looked up once, then recording is a relaxed atomic per event.
struct ChaseMetrics {
    rounds: Arc<Counter>,
    triggers_found: Arc<Counter>,
    triggers_fired: Arc<Counter>,
    facts_derived: Arc<Counter>,
    delta_size: Arc<Histogram>,
    rules_active: Arc<Gauge>,
}

fn chase_metrics() -> &'static ChaseMetrics {
    static METRICS: OnceLock<ChaseMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = global_registry();
        ChaseMetrics {
            rounds: r.counter("chase_rounds_total", "Chase rounds executed.", &[]),
            triggers_found: r.counter(
                "chase_triggers_found_total",
                "Triggers returned by round searches.",
                &[],
            ),
            triggers_fired: r.counter(
                "chase_triggers_fired_total",
                "Triggers actually fired (head instantiated).",
                &[],
            ),
            facts_derived: r.counter(
                "chase_facts_derived_total",
                "New facts inserted by chase rounds.",
                &[],
            ),
            delta_size: r.histogram(
                "chase_round_delta_size",
                "Facts derived per chase round (the next round's delta).",
                &[],
            ),
            rules_active: r.gauge(
                "chase_rules_active",
                "Rules in the program of the most recent chase run.",
                &[],
            ),
        }
    })
}

/// Which chase variant to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaseVariant {
    /// Fire every trigger (once per rule + frontier image).
    Oblivious,
    /// Fire only triggers whose head is not yet satisfied.
    Restricted,
}

/// How trigger search is evaluated across rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaseStrategy {
    /// Full trigger search every round, deduplicated by trigger key. The
    /// reference implementation — quadratic in practice.
    Naive,
    /// Delta-driven rounds: only triggers using at least one fact from the
    /// previous round's delta are searched (index-backed). The default.
    SemiNaive,
}

/// Budget and policy for a chase run.
#[derive(Clone, Copy, Debug)]
pub struct ChaseConfig {
    /// The firing policy.
    pub variant: ChaseVariant,
    /// The evaluation strategy (semi-naive by default).
    pub strategy: ChaseStrategy,
    /// Maximum number of rounds (breadth-first levels). Each round fires all
    /// triggers found on the instance produced by the previous round.
    pub max_rounds: usize,
    /// Maximum number of facts in the chased instance; the run stops once the
    /// instance grows beyond this bound.
    pub max_facts: usize,
    /// Record a [`DerivationGraph`] during the run: stable fact ids plus one
    /// edge per retired trigger key (fired or, under the restricted variant,
    /// found satisfied). Off by default — the insert-only fast path pays
    /// nothing for provenance it will never consult. Required by
    /// [`crate::chase_retract`] and the `WHY` explanation walk.
    pub track_provenance: bool,
}

impl Default for ChaseConfig {
    fn default() -> Self {
        ChaseConfig {
            variant: ChaseVariant::Restricted,
            strategy: ChaseStrategy::SemiNaive,
            max_rounds: 64,
            max_facts: 1_000_000,
            track_provenance: false,
        }
    }
}

impl ChaseConfig {
    /// A restricted chase with the given round budget.
    pub fn restricted(max_rounds: usize) -> Self {
        ChaseConfig {
            variant: ChaseVariant::Restricted,
            max_rounds,
            ..ChaseConfig::default()
        }
    }

    /// A semi-oblivious chase with the given round budget.
    pub fn oblivious(max_rounds: usize) -> Self {
        ChaseConfig {
            variant: ChaseVariant::Oblivious,
            max_rounds,
            ..ChaseConfig::default()
        }
    }

    /// Set the fact budget.
    pub fn with_max_facts(mut self, max_facts: usize) -> Self {
        self.max_facts = max_facts;
        self
    }

    /// Set the evaluation strategy.
    pub fn with_strategy(mut self, strategy: ChaseStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The default configuration with the naive reference strategy.
    pub fn naive() -> Self {
        ChaseConfig::default().with_strategy(ChaseStrategy::Naive)
    }

    /// Enable or disable derivation-graph recording.
    pub fn with_provenance(mut self, track: bool) -> Self {
        self.track_provenance = track;
        self
    }
}

/// How a chase run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaseOutcome {
    /// A fixpoint was reached: no (active) trigger remained.
    Terminated,
    /// The round budget was exhausted before reaching a fixpoint.
    RoundBudgetExhausted,
    /// The fact budget was exhausted before reaching a fixpoint.
    FactBudgetExhausted,
}

/// The result of running the chase.
#[derive(Clone, Debug)]
pub struct ChaseResult {
    /// The chased instance (a universal model when `outcome == Terminated`).
    pub instance: Instance,
    /// Number of rounds executed.
    pub rounds: usize,
    /// Number of triggers fired.
    pub fired: usize,
    /// How the run ended.
    pub outcome: ChaseOutcome,
    /// The (rule, frontier image) keys of every trigger this run fired *or*
    /// (under the restricted variant) found already satisfied. This is the
    /// run's per-key satisfaction cache — at most one head-homomorphism
    /// search per key, within a round and across rounds — and the state an
    /// incremental continuation ([`chase_incremental`]) seeds from so it
    /// neither re-fires a frontier image nor re-checks a retired head.
    /// Empty when `provenance` is recorded: key and edge are one-to-one
    /// there, so the graph's key index holds the verdicts instead.
    pub fired_keys: TriggerKeySet,
    /// The derivation graph of the run, recorded when
    /// [`ChaseConfig::track_provenance`] is set (`None` otherwise). Base
    /// facts are the input database; each edge records one retired trigger
    /// key with its premises and conclusions (see [`DerivationGraph`]).
    pub provenance: Option<DerivationGraph>,
}

impl ChaseResult {
    /// True if the chase reached a fixpoint (its instance is a universal
    /// model).
    pub fn is_universal_model(&self) -> bool {
        self.outcome == ChaseOutcome::Terminated
    }
}

/// Run the chase of `program` on `database` under `config`.
///
/// Both strategies share one breadth-first round driver; they differ only in
/// how a round enumerates triggers. The naive strategy re-runs the full
/// search and relies on the trigger keys to skip replays; the semi-naive
/// strategy searches only for triggers whose body uses at least one fact of
/// the previous round's delta (round 1 treats the whole input database as
/// the delta). **Delta invariant:** under the semi-naive strategy every
/// trigger is enumerated in exactly one round — the first in which its whole
/// body image exists — so the keys only deduplicate distinct homomorphisms
/// sharing a frontier image (the semi-oblivious firing policy), never
/// replays: there are none.
pub fn chase(program: &TgdProgram, database: &Instance, config: &ChaseConfig) -> ChaseResult {
    let plans: Vec<RulePlan> = program.iter().map(RulePlan::new).collect();
    let graph = config
        .track_provenance
        .then(|| DerivationGraph::seeded(database));
    let (result, _added) = run_chase_rounds(
        program,
        &plans,
        database.clone(),
        None,
        TriggerKeySet::default(),
        graph,
        false,
        config,
        sequential_round_search(program, &plans, config),
    );
    result
}

/// The sequential per-round trigger search shared by [`chase`] and
/// [`chase_incremental`]: a full search when there is no delta to restrict
/// to (the naive strategy always; the semi-naive one in a round whose delta
/// would be the whole instance), the delta-restricted index-backed search
/// otherwise.
pub(crate) fn sequential_round_search<'a>(
    program: &'a TgdProgram,
    plans: &'a [RulePlan],
    config: &'a ChaseConfig,
) -> impl FnMut(&Instance, Option<&Instance>) -> Vec<Trigger> + 'a {
    move |instance, delta| {
        let mut triggers = Vec::new();
        for (rule_index, rule) in program.iter().enumerate() {
            // Per-rule, per-round strategy: generic join for cyclic bodies
            // over enough facts, backtracking otherwise.
            let strategy = choose_join_strategy(&rule.body, plans[rule_index].cyclic, instance);
            match (config.strategy, delta) {
                (ChaseStrategy::Naive, _) | (ChaseStrategy::SemiNaive, None) => {
                    triggers.extend(find_rule_triggers_with(
                        rule_index, rule, instance, strategy,
                    ));
                }
                (ChaseStrategy::SemiNaive, Some(delta)) => {
                    if plans[rule_index].body_touches(delta) {
                        triggers.extend(find_rule_triggers_delta_with(
                            rule_index, rule, instance, delta, strategy,
                        ));
                    }
                }
            }
        }
        triggers
    }
}

/// The result of an incremental chase continuation (see
/// [`chase_incremental`]).
#[derive(Clone, Debug)]
pub struct IncrementalChase {
    /// The updated chase state over the merged database: `base ∪ delta`
    /// closed under the program (a universal model of the merged database
    /// when `result.outcome == Terminated` and the base was a fixpoint).
    pub result: ChaseResult,
    /// Exactly the facts of `result.instance` that are **not** in the base
    /// instance: the new delta facts plus everything derived from them.
    /// Callers maintaining a copy-on-write store extend it with these facts
    /// instead of rebuilding from the full instance — O(closure of the
    /// delta), not O(store).
    pub added: Instance,
}

/// Continue a finished chase over the facts of `delta`, reusing the
/// semi-naive delta machinery: instead of re-chasing `base ∪ delta` from
/// scratch, round 1 searches only for triggers whose body uses at least one
/// *inserted* fact, and the base's fired-key set guarantees no frontier
/// image fires twice across the two runs.
///
/// Guarantees, assuming `base` is a fixpoint of `program`
/// (`base.outcome == Terminated`):
///
/// * the continuation enumerates exactly the triggers that exist on
///   `base.instance ∪ delta` but not on `base.instance` (the delta
///   invariant), so when it terminates, `result.instance` is a universal
///   model of `(program, base-database ∪ delta)` — certain answers computed
///   over it equal those of a scratch chase of the merged database;
/// * under the semi-oblivious variant the result is moreover isomorphic
///   (equal up to null renaming) to the scratch chase, because firing is
///   determined per frontier image;
/// * under the restricted variant the result may keep nulls a scratch chase
///   would avoid (the base fired triggers before the delta could satisfy
///   them) — still a universal model, just not always a core.
///
/// If `base` was *not* a fixpoint the continuation is still sound (it only
/// fires genuine triggers) but inherits the base's incompleteness.
///
/// The evaluation strategy is forced to semi-naive; the variant and budgets
/// of `config` apply to the continuation itself.
pub fn chase_incremental(
    program: &TgdProgram,
    base: &ChaseResult,
    delta: &Instance,
    config: &ChaseConfig,
) -> IncrementalChase {
    let mut run_span = span("chase.incremental");
    run_span.attr("delta", delta.len());
    let config = ChaseConfig {
        strategy: ChaseStrategy::SemiNaive,
        ..*config
    };
    let plans: Vec<RulePlan> = program.iter().map(RulePlan::new).collect();
    // O(#segments) when the base instance is frozen — the planner freezes
    // cached materializations for exactly this reason. The graph and the
    // key set are layered the same way: the clones share every frozen
    // layer of the base and the continuation writes into a fresh top.
    let mut instance = base.instance.clone();
    // The continuation extends the base's derivation graph (when both the
    // config asks for provenance and the base recorded one): inserted delta
    // facts become base (asserted) facts, revived if they were tombstoned by
    // an earlier retraction.
    let mut graph = if config.track_provenance {
        base.provenance.clone()
    } else {
        None
    };
    let fired_keys = match (&graph, &base.provenance) {
        // The one place verdicts are copied: a provenance-tracked base
        // continued *without* provenance has its keys only in the graph.
        (None, Some(recorded)) => {
            let mut keys = TriggerKeySet::default();
            for edge in recorded.edges() {
                keys.insert(edge.rule, edge.frontier_image);
            }
            keys
        }
        _ => base.fired_keys.clone(),
    };
    let mut seed = Instance::new();
    for atom in delta.atoms() {
        if let Some(g) = graph.as_mut() {
            g.assert_base(&atom);
        }
        if instance.insert(atom.clone()) {
            seed.insert(atom);
        }
    }
    if seed.is_empty() {
        // Every delta fact was already present: the base state is final
        // (up to the assertions just recorded).
        if let Some(g) = graph.as_mut() {
            g.freeze();
        }
        return IncrementalChase {
            result: ChaseResult {
                instance,
                rounds: 0,
                fired: 0,
                outcome: base.outcome,
                fired_keys,
                provenance: graph.or_else(|| base.provenance.clone()),
            },
            added: Instance::new(),
        };
    }
    let mut added = seed.clone();
    let (result, derived) = run_chase_rounds(
        program,
        &plans,
        instance,
        Some(seed),
        fired_keys,
        graph,
        true,
        &config,
        sequential_round_search(program, &plans, &config),
    );
    added.extend_from(&derived);
    run_span.attr("added", added.len());
    IncrementalChase { result, added }
}

/// The breadth-first round driver shared by [`chase`] and
/// [`chase_incremental`]: budget checks, trigger-key deduplication, the
/// firing policy, and delta maintenance all live here, so the fresh and
/// incremental runs cannot drift apart. `search_round(instance, delta)`
/// supplies one round's triggers in rule order — the full search for the
/// naive strategy, the delta-restricted search for the semi-naive one.
///
/// `initial_delta` controls round 1: `None` means "the delta is the whole
/// instance" (a fresh chase, where a plain full search finds the same
/// triggers cheaper), `Some(seed)` restricts even the first round to
/// triggers using the seed (an incremental continuation). The per-(rule,
/// frontier image) verdict cache is the key index of `graph` when one is
/// recorded and `fired_keys` otherwise: a retired key has fired or been
/// found satisfied before — within a round, across rounds, or in the base
/// run a continuation extends — and is never checked again (satisfaction is
/// monotone: the instance only grows). Returns the result, its graph and
/// key set frozen so the next continuation shares them, together with the
/// instance of facts inserted during this run — tracked only when
/// `track_added` is set (the incremental continuation needs it; a fresh
/// chase should not pay the extra copy per derived fact).
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_chase_rounds(
    program: &TgdProgram,
    plans: &[RulePlan],
    initial: Instance,
    initial_delta: Option<Instance>,
    mut fired_keys: TriggerKeySet,
    mut graph: Option<DerivationGraph>,
    track_added: bool,
    config: &ChaseConfig,
    mut search_round: impl FnMut(&Instance, Option<&Instance>) -> Vec<Trigger>,
) -> (ChaseResult, Instance) {
    let metrics = chase_metrics();
    metrics.rules_active.set(plans.len() as i64);
    let mut instance = initial;
    let mut fired = 0usize;
    let mut rounds = 0usize;
    let mut added = Instance::new();
    // `None` means "the delta is the whole instance" (round 1 of a fresh
    // chase); afterwards the delta is the set of facts the previous round
    // derived. Only the semi-naive strategy reads it.
    let mut delta: Option<Instance> = initial_delta;
    let mut frontier_image: Vec<Term> = Vec::new();

    let outcome = 'rounds: loop {
        if rounds >= config.max_rounds {
            break ChaseOutcome::RoundBudgetExhausted;
        }
        rounds += 1;

        // Collect the facts produced in this round, firing against the
        // instance as it stood at the beginning of the round (breadth-first,
        // level-saturating strategy — a fair firing order). With provenance
        // on, every verdict is recorded as an edge right away — the graph's
        // key index is what deduplicates the rest of the round. A round cut
        // short by the fact budget leaves edges whose conclusions were not
        // all inserted; `outcome != Terminated` is what tells
        // `chase_retract` the graph cannot be trusted as a full account of
        // the instance.
        let mut round_span = span("chase.round");
        let triggers = search_round(&instance, delta.as_ref());
        metrics.rounds.inc();
        metrics.triggers_found.add(triggers.len() as u64);
        round_span.attr("round", rounds);
        round_span.attr("found", triggers.len());
        let fired_before = fired;
        let len_before = instance.len();
        let mut new_facts: Vec<Atom> = Vec::new();
        // One compiled head check per rule for the round, reseeded per
        // trigger: the round fires against a fixed instance.
        let mut heads: Vec<Option<HeadCheck<'_>>> = Vec::new();
        heads.resize_with(plans.len(), || None);
        for trigger in triggers {
            let rule = &program.rules()[trigger.rule_index];
            let plan = &plans[trigger.rule_index];
            frontier_image.clear();
            frontier_image.extend(
                plan.frontier
                    .iter()
                    .map(|v| trigger.homomorphism.apply_term(Term::Variable(*v))),
            );
            // The per-key cache: triggers sharing a (rule, frontier image)
            // — several homomorphisms differing only in non-frontier
            // variables — get exactly one satisfaction check and one firing
            // between them. For the restricted chase a satisfied trigger is
            // retired as well: its head is already entailed, so it never
            // needs to fire later (the instance only grows).
            let retired = match graph.as_ref() {
                Some(g) => g.has_key(trigger.rule_index, &frontier_image),
                None => !fired_keys.insert(trigger.rule_index, &frontier_image),
            };
            if retired {
                continue;
            }
            // A satisfied restricted trigger never fires, but with
            // provenance on its satisfying head image is recorded as a
            // *witness edge*: the alternative derivation a later retraction
            // must know about before deleting one of the head facts.
            let witness = match config.variant {
                ChaseVariant::Oblivious => None,
                ChaseVariant::Restricted => {
                    let head = heads[trigger.rule_index].get_or_insert_with(|| {
                        HeadCheck::new(&rule.head, &plan.frontier, &instance)
                    });
                    if graph.is_some() {
                        head.satisfying_image(&frontier_image)
                    } else if head.satisfied(&frontier_image) {
                        continue;
                    } else {
                        None
                    }
                }
            };
            let produced = match &witness {
                Some(_) => None,
                None => Some(trigger.fire_with(&rule.head, &plan.existentials)),
            };
            if let Some(g) = graph.as_mut() {
                g.record_edge(
                    trigger.rule_index,
                    &frontier_image,
                    &rule.body,
                    &trigger.homomorphism,
                    produced
                        .as_deref()
                        .or(witness.as_deref())
                        .expect("one of the two"),
                    witness.is_some(),
                );
            }
            if let Some(produced) = produced {
                new_facts.extend(produced);
                fired += 1;
            }
        }

        metrics.triggers_fired.add((fired - fired_before) as u64);
        round_span.attr("fired", fired - fired_before);

        // The naive strategy never reads the delta, so it skips the
        // bookkeeping and only tracks growth.
        let mut next_delta = Instance::new();
        let mut grew = false;
        for fact in new_facts {
            match config.strategy {
                ChaseStrategy::SemiNaive => {
                    // Duplicate derivations dominate late rounds; test
                    // membership first so only genuinely new facts pay the
                    // clone into the delta.
                    if !instance.contains(&fact) {
                        instance.insert(fact.clone());
                        if track_added {
                            added.insert(fact.clone());
                        }
                        next_delta.insert(fact);
                        grew = true;
                    }
                }
                ChaseStrategy::Naive => {
                    if track_added {
                        if instance.insert(fact.clone()) {
                            added.insert(fact);
                            grew = true;
                        }
                    } else if instance.insert(fact) {
                        grew = true;
                    }
                }
            }
            if instance.len() > config.max_facts {
                break 'rounds ChaseOutcome::FactBudgetExhausted;
            }
        }

        let derived = (instance.len() - len_before) as u64;
        metrics.facts_derived.add(derived);
        metrics.delta_size.observe(derived);
        round_span.attr("derived", derived);

        if !grew {
            break ChaseOutcome::Terminated;
        }
        delta = Some(next_delta);
    };

    fired_keys.freeze();
    if let Some(g) = graph.as_mut() {
        g.freeze();
    }
    (
        ChaseResult {
            instance,
            rounds,
            fired,
            outcome,
            fired_keys,
            provenance: graph,
        },
        added,
    )
}

/// Check whether `instance` satisfies every TGD of `program` (i.e. it is a
/// model of the program). Used by tests and by the consistency cross-checks.
///
/// Triggers sharing a (rule, frontier image) have the same satisfaction
/// verdict, so each key is head-checked at most once.
pub fn is_model(program: &TgdProgram, instance: &Instance) -> bool {
    for rule in program.iter() {
        let plan = RulePlan::new(rule);
        let mut head = HeadCheck::new(&rule.head, &plan.frontier, instance);
        let mut checked: HashSet<TriggerKey> = HashSet::new();
        for trigger in find_rule_triggers(0, rule, instance) {
            let key = trigger.key_with(&plan.frontier);
            if checked.contains(&key) {
                continue;
            }
            if !head.satisfied(&key.frontier_image) {
                return false;
            }
            checked.insert(key);
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontorew_model::parse_program;

    fn person_db() -> Instance {
        let mut db = Instance::new();
        db.insert_fact("person", &["alice"]);
        db
    }

    /// Run a closure over both strategies, so every engine test covers the
    /// semi-naive default and the naive reference.
    fn for_both_strategies(test: impl Fn(ChaseStrategy)) {
        test(ChaseStrategy::SemiNaive);
        test(ChaseStrategy::Naive);
    }

    #[test]
    fn default_config_is_semi_naive_restricted() {
        let config = ChaseConfig::default();
        assert_eq!(config.strategy, ChaseStrategy::SemiNaive);
        assert_eq!(config.variant, ChaseVariant::Restricted);
        assert_eq!(ChaseConfig::naive().strategy, ChaseStrategy::Naive);
    }

    #[test]
    fn datalog_program_reaches_fixpoint() {
        // Transitive closure — a full (Datalog) program always terminates.
        let p = parse_program(
            "[R1] edge(X, Y) -> path(X, Y).\n\
             [R2] path(X, Y), edge(Y, Z) -> path(X, Z).",
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert_fact("edge", &["a", "b"]);
        db.insert_fact("edge", &["b", "c"]);
        db.insert_fact("edge", &["c", "d"]);
        for_both_strategies(|strategy| {
            let result = chase(&p, &db, &ChaseConfig::default().with_strategy(strategy));
            assert!(result.is_universal_model());
            assert!(result.instance.contains(&Atom::fact("path", &["a", "d"])));
            assert_eq!(result.instance.relation_size(Predicate::new("path", 2)), 6);
            assert!(is_model(&p, &result.instance));
        });
    }

    #[test]
    fn restricted_chase_terminates_when_witnesses_exist() {
        // person(X) -> hasParent(X, Y) would diverge obliviously, but with a
        // known parent the restricted chase has nothing to do.
        let p = parse_program("[R1] person(X) -> hasParent(X, Y).").unwrap();
        let mut db = person_db();
        db.insert_fact("hasParent", &["alice", "zoe"]);
        for_both_strategies(|strategy| {
            let result = chase(
                &p,
                &db,
                &ChaseConfig::restricted(16).with_strategy(strategy),
            );
            assert!(result.is_universal_model());
            assert_eq!(result.fired, 0);
            assert_eq!(result.instance.len(), db.len());
        });
    }

    #[test]
    fn restricted_chase_invents_nulls_when_needed() {
        let p = parse_program("[R1] person(X) -> hasParent(X, Y).").unwrap();
        for_both_strategies(|strategy| {
            let result = chase(
                &p,
                &person_db(),
                &ChaseConfig::restricted(16).with_strategy(strategy),
            );
            assert!(result.is_universal_model());
            assert_eq!(result.instance.nulls().len(), 1);
            assert!(is_model(&p, &result.instance));
        });
    }

    #[test]
    fn oblivious_chase_fires_even_satisfied_triggers() {
        let p = parse_program("[R1] person(X) -> hasParent(X, Y).").unwrap();
        let mut db = person_db();
        db.insert_fact("hasParent", &["alice", "zoe"]);
        for_both_strategies(|strategy| {
            let result = chase(&p, &db, &ChaseConfig::oblivious(16).with_strategy(strategy));
            assert!(result.is_universal_model());
            // The trigger fired although alice already had a parent.
            assert_eq!(result.fired, 1);
            assert_eq!(result.instance.nulls().len(), 1);
        });
    }

    #[test]
    fn diverging_program_hits_round_budget() {
        // person(X) -> hasParent(X, Y); hasParent(X, Y) -> person(Y)
        // generates an infinite ancestor chain.
        let p = parse_program(
            "[R1] person(X) -> hasParent(X, Y).\n\
             [R2] hasParent(X, Y) -> person(Y).",
        )
        .unwrap();
        for_both_strategies(|strategy| {
            let result = chase(
                &p,
                &person_db(),
                &ChaseConfig::restricted(5).with_strategy(strategy),
            );
            assert_eq!(result.outcome, ChaseOutcome::RoundBudgetExhausted);
            assert!(result.instance.len() > 5);
        });
    }

    #[test]
    fn fact_budget_is_honoured() {
        let p = parse_program(
            "[R1] person(X) -> hasParent(X, Y).\n\
             [R2] hasParent(X, Y) -> person(Y).",
        )
        .unwrap();
        for_both_strategies(|strategy| {
            let config = ChaseConfig::restricted(1000)
                .with_max_facts(20)
                .with_strategy(strategy);
            let result = chase(&p, &person_db(), &config);
            assert_eq!(result.outcome, ChaseOutcome::FactBudgetExhausted);
            assert!(result.instance.len() <= 22); // budget plus the last fired head
        });
    }

    #[test]
    fn semi_oblivious_does_not_refire_same_frontier_image() {
        // r(X, Y) -> s(X, Z): two facts with the same X must fire only once
        // under the semi-oblivious policy (frontier is {X}).
        let p = parse_program("[R1] r(X, Y) -> s(X, Z).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("r", &["a", "b1"]);
        db.insert_fact("r", &["a", "b2"]);
        for_both_strategies(|strategy| {
            let result = chase(&p, &db, &ChaseConfig::oblivious(16).with_strategy(strategy));
            assert!(result.is_universal_model());
            assert_eq!(result.fired, 1);
            assert_eq!(result.instance.relation_size(Predicate::new("s", 2)), 1);
        });
    }

    #[test]
    fn multi_head_rules_fire_atomically() {
        let p = parse_program("[R1] emp(X) -> works(X, D), dept(D).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("emp", &["alice"]);
        for_both_strategies(|strategy| {
            let result = chase(&p, &db, &ChaseConfig::restricted(8).with_strategy(strategy));
            assert!(result.is_universal_model());
            // One null shared between works and dept.
            assert_eq!(result.instance.nulls().len(), 1);
            assert_eq!(result.instance.relation_size(Predicate::new("works", 2)), 1);
            assert_eq!(result.instance.relation_size(Predicate::new("dept", 1)), 1);
        });
    }

    #[test]
    fn chase_of_empty_database_is_empty() {
        let p = parse_program("[R1] person(X) -> hasParent(X, Y).").unwrap();
        for_both_strategies(|strategy| {
            let result = chase(
                &p,
                &Instance::new(),
                &ChaseConfig::default().with_strategy(strategy),
            );
            assert!(result.is_universal_model());
            assert!(result.instance.is_empty());
            assert_eq!(result.rounds, 1);
        });
    }

    #[test]
    fn late_joining_facts_still_trigger_rules() {
        // A two-atom body whose second atom is only derived in a later round:
        // the semi-naive search must find the join when either side is new.
        let p = parse_program(
            "[R1] a(X) -> b(X).\n\
             [R2] b(X), c(X) -> d(X).\n\
             [R3] a(X) -> c(X).",
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert_fact("a", &["x"]);
        db.insert_fact("c", &["y"]);
        let result = chase(&p, &db, &ChaseConfig::default());
        assert!(result.is_universal_model());
        assert!(result.instance.contains(&Atom::fact("d", &["x"])));
        assert!(!result.instance.contains(&Atom::fact("d", &["y"])));
    }

    #[test]
    fn incremental_chase_matches_scratch_on_datalog() {
        let p = parse_program(
            "[R1] edge(X, Y) -> path(X, Y).\n\
             [R2] path(X, Y), edge(Y, Z) -> path(X, Z).",
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert_fact("edge", &["a", "b"]);
        db.insert_fact("edge", &["b", "c"]);
        let base = chase(&p, &db, &ChaseConfig::default());
        assert!(base.is_universal_model());

        let mut delta = Instance::new();
        delta.insert_fact("edge", &["c", "d"]);
        let incremental = chase_incremental(&p, &base, &delta, &ChaseConfig::default());

        let mut merged = db.clone();
        merged.extend_from(&delta);
        let scratch = chase(&p, &merged, &ChaseConfig::default());
        // Datalog invents no nulls: the instances must be literally equal.
        assert!(incremental.result.is_universal_model());
        assert_eq!(incremental.result.instance, scratch.instance);
        // `added` is exactly the difference to the base.
        assert!(incremental.added.contains(&Atom::fact("edge", &["c", "d"])));
        assert!(incremental.added.contains(&Atom::fact("path", &["a", "d"])));
        assert_eq!(
            incremental.added.len(),
            scratch.instance.len() - base.instance.len()
        );
        // The continuation fired only delta-driven triggers, far fewer than
        // the scratch run enumerated.
        assert!(incremental.result.fired < scratch.fired);
    }

    #[test]
    fn incremental_oblivious_chase_is_isomorphic_to_scratch() {
        // Semi-oblivious firing is determined per frontier image, so the
        // incremental result must equal the scratch chase up to null
        // renaming — the seeded fired-key set prevents an old frontier image
        // from re-firing on a delta-driven re-match.
        let p = parse_program("[R1] r(X, Y) -> s(X, Z).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("r", &["a", "b1"]);
        let base = chase(&p, &db, &ChaseConfig::oblivious(16));
        assert_eq!(base.fired, 1);

        // The delta re-matches the same frontier image {a} and adds a new
        // one {c}.
        let mut delta = Instance::new();
        delta.insert_fact("r", &["a", "b2"]);
        delta.insert_fact("r", &["c", "b3"]);
        let incremental = chase_incremental(&p, &base, &delta, &ChaseConfig::oblivious(16));
        let mut merged = db.clone();
        merged.extend_from(&delta);
        let scratch = chase(&p, &merged, &ChaseConfig::oblivious(16));
        assert!(incremental.result.is_universal_model());
        // The continuation's own stats: only the new frontier image {c}
        // fires; {a} is retired by the seeded key set.
        assert_eq!(incremental.result.fired, 1, "only {{c}} fires");
        assert!(crate::equiv::equivalent_up_to_null_renaming(
            &incremental.result.instance,
            &scratch.instance
        ));
    }

    #[test]
    fn incremental_restricted_chase_is_a_universal_model() {
        // The restricted continuation may keep nulls a scratch chase would
        // avoid (the base fired before the delta could satisfy its head),
        // but it must still be a model of the merged database with the same
        // certain answers.
        let p = parse_program("[R1] person(X) -> hasParent(X, Y).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("person", &["alice"]);
        let base = chase(&p, &db, &ChaseConfig::default());
        assert_eq!(base.instance.nulls().len(), 1);

        let mut delta = Instance::new();
        delta.insert_fact("hasParent", &["alice", "zoe"]);
        delta.insert_fact("person", &["bob"]);
        let incremental = chase_incremental(&p, &base, &delta, &ChaseConfig::default());
        assert!(incremental.result.is_universal_model());
        let mut merged = db.clone();
        merged.extend_from(&delta);
        assert!(incremental.result.instance.contains_instance(&merged));
        assert!(is_model(&p, &incremental.result.instance));
        // bob still needs an invented parent; alice's witness predates the
        // delta and legitimately remains.
        assert_eq!(incremental.result.instance.nulls().len(), 2);
    }

    #[test]
    fn incremental_chase_with_known_delta_is_a_no_op() {
        let p = parse_program("[R1] a(X) -> b(X).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("a", &["x"]);
        let base = chase(&p, &db, &ChaseConfig::default());
        // Every delta fact already present (including a derived one).
        let mut delta = Instance::new();
        delta.insert_fact("a", &["x"]);
        delta.insert_fact("b", &["x"]);
        let incremental = chase_incremental(&p, &base, &delta, &ChaseConfig::default());
        assert_eq!(incremental.result.rounds, 0);
        assert_eq!(incremental.result.fired, 0);
        assert!(incremental.added.is_empty());
        assert_eq!(incremental.result.instance, base.instance);
        assert!(incremental.result.is_universal_model());
    }

    #[test]
    fn incremental_chase_joins_delta_facts_with_old_facts() {
        // A two-atom body joining an old fact with a delta fact: the
        // continuation must find the cross trigger.
        let p = parse_program("[R1] b(X), c(X) -> d(X).").unwrap();
        let mut db = Instance::new();
        db.insert_fact("b", &["x"]);
        let base = chase(&p, &db, &ChaseConfig::default());
        let mut delta = Instance::new();
        delta.insert_fact("c", &["x"]);
        let incremental = chase_incremental(&p, &base, &delta, &ChaseConfig::default());
        assert!(incremental
            .result
            .instance
            .contains(&Atom::fact("d", &["x"])));
        assert!(incremental.added.contains(&Atom::fact("d", &["x"])));
    }

    #[test]
    fn repeated_incremental_commits_converge_to_the_scratch_chase() {
        // A commit loop: extend the chase state one batch at a time and
        // compare against chasing the accumulated database from scratch.
        let p = parse_program(
            "[R1] edge(X, Y) -> path(X, Y).\n\
             [R2] path(X, Y), edge(Y, Z) -> path(X, Z).",
        )
        .unwrap();
        let mut db = Instance::new();
        db.insert_fact("edge", &["n0", "n1"]);
        let mut state = chase(&p, &db, &ChaseConfig::default());
        for i in 1..8 {
            let mut delta = Instance::new();
            delta.insert_fact("edge", &[&format!("n{i}"), &format!("n{}", i + 1)]);
            db.extend_from(&delta);
            state = chase_incremental(&p, &state, &delta, &ChaseConfig::default()).result;
            assert!(state.is_universal_model());
        }
        let scratch = chase(&p, &db, &ChaseConfig::default());
        assert_eq!(state.instance, scratch.instance);
    }

    #[test]
    fn is_model_detects_violations() {
        let p = parse_program("[R1] person(X) -> agent(X).").unwrap();
        let mut db = person_db();
        assert!(!is_model(&p, &db));
        db.insert_fact("agent", &["alice"]);
        assert!(is_model(&p, &db));
    }
}
