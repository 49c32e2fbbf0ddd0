//! Magic-sets / sideways-information-passing rewriting for goal-driven
//! chase evaluation.
//!
//! Chase plans materialize the *entire* universal model even when the query
//! touches a sliver of it. This crate rewrites a program from the query's
//! goal: predicates are **adorned** with bound/free annotations propagated
//! through rule bodies in *selectivity order* (SIP) — at each step the
//! remaining body atom with the most bound positions (ties broken by a
//! [`SipSelectivity`] estimate, then by textual position) passes its
//! bindings sideways — each reachable `(predicate, adornment)` pair gets a
//! **magic predicate** recording which bindings are actually demanded, and
//! rules that can be guarded get a magic **guard atom** prepended so they
//! only fire for demanded bindings. Chasing the
//! rewritten program over the original instance (plus ground magic *seed*
//! facts extracted from the query's constants) derives only goal-relevant
//! facts — the classic magic-sets guarantee — while answering the original
//! query identically.
//!
//! Not every program admits the restriction. Rules with existential head
//! variables or multiple head atoms cannot be guarded (restricting their
//! firing would lose labelled nulls the query may need), so their head
//! predicates must be derived in full, which in turn forces their body
//! predicates to be derived in full, and so on — an *unguarded cascade*.
//! [`rewrite_goal_driven`] computes the cascade to a fixpoint and returns
//! [`Inadmissible`] when nothing guardable survives (or the query binds no
//! constants), letting the planner fall back to a full-model chase.
//!
//! The output [`MagicProgram`] carries the transformed program, the seed
//! facts, and the counts the planner surfaces through `EXPLAIN` and
//! provenance (`goal-driven{relevant_rules, adorned_rules, ...}`).

use ontorew_model::prelude::*;
use ontorew_telemetry::{global_registry, span, Counter};
use std::collections::{BTreeSet, HashSet, VecDeque};
use std::sync::{Arc, OnceLock};

/// Reserved prefix for generated magic predicates. Programs or queries that
/// already use it are rejected rather than silently colliding.
pub const MAGIC_PREFIX: &str = "magic_";

struct MagicMetrics {
    adornments: Arc<Counter>,
}

fn magic_metrics() -> &'static MagicMetrics {
    static METRICS: OnceLock<MagicMetrics> = OnceLock::new();
    METRICS.get_or_init(|| MagicMetrics {
        adornments: global_registry().counter(
            "magic_adornments_total",
            "Distinct (predicate, adornment) pairs reached by goal-driven rewrites.",
            &[],
        ),
    })
}

/// A bound/free annotation over a predicate's argument positions
/// (`true` = bound). Rendered as the classic `bf`-suffix: `requires^bf`.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Adornment(Vec<bool>);

impl Adornment {
    /// The adornment of `atom` given the set of already-bound variables:
    /// a position is bound when its term is a constant or a known variable.
    pub fn of_atom(atom: &Atom, known: &HashSet<Variable>) -> Self {
        Adornment(
            atom.terms
                .iter()
                .map(|t| match t.as_variable() {
                    Some(v) => known.contains(&v),
                    None => true,
                })
                .collect(),
        )
    }

    /// Number of bound positions — the arity of the magic predicate.
    pub fn bound_count(&self) -> usize {
        self.0.iter().filter(|b| **b).count()
    }

    /// True when the given argument position is bound.
    pub fn bound_at(&self, position: usize) -> bool {
        self.0.get(position).copied().unwrap_or(false)
    }

    /// True when at least one position is bound.
    pub fn has_bound(&self) -> bool {
        self.0.iter().any(|b| *b)
    }

    /// The `bf`-string suffix, e.g. `"bf"` for (bound, free).
    pub fn suffix(&self) -> String {
        self.0.iter().map(|b| if *b { 'b' } else { 'f' }).collect()
    }

    /// The terms of `atom` at this adornment's bound positions, in order —
    /// the argument list of the corresponding magic atom.
    pub fn bound_terms(&self, atom: &Atom) -> Vec<Term> {
        atom.terms
            .iter()
            .zip(&self.0)
            .filter(|(_, bound)| **bound)
            .map(|(t, _)| *t)
            .collect()
    }
}

impl std::fmt::Display for Adornment {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.suffix())
    }
}

/// Estimates how selective a body atom is under a given adornment, steering
/// the SIP: when two candidate atoms bind equally many positions, the one
/// with the *smaller* estimate passes its bindings first, so downstream
/// magic predicates carry the tightest demand the data supports.
///
/// The scale is oracle-relative — estimates are only compared against other
/// estimates from the same oracle, never across oracles — so a data-blind
/// implementation can return structural scores while a statistics-backed one
/// returns expected match counts.
pub trait SipSelectivity {
    /// Estimated number of facts matching `atom` when the positions marked
    /// bound in `adornment` carry concrete values.
    fn estimate(&self, atom: &Atom, adornment: &Adornment) -> f64;
}

/// Data-blind fallback oracle: an atom's estimate is its number of *free*
/// positions, so with equal bound counts the atom leaving fewer variables
/// open is deemed more selective. Combined with the most-bound-first greedy
/// this reproduces the classic "bound is better" SIP without any statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct StructuralSipSelectivity;

impl SipSelectivity for StructuralSipSelectivity {
    fn estimate(&self, atom: &Atom, adornment: &Adornment) -> f64 {
        (atom.terms.len() - adornment.bound_count()) as f64
    }
}

/// The order in which a rule body's atoms pass bindings sideways: greedily
/// pick the remaining atom with the most bound positions under the variables
/// known so far, breaking ties by the selectivity estimate and then by
/// textual position (so the ordering is deterministic and degrades to the
/// classic left-to-right SIP when nothing distinguishes the atoms).
fn sip_order(
    body: &[Atom],
    initially_known: &HashSet<Variable>,
    selectivity: &dyn SipSelectivity,
) -> Vec<usize> {
    let mut known = initially_known.clone();
    let mut remaining: Vec<usize> = (0..body.len()).collect();
    let mut order = Vec::with_capacity(body.len());
    while !remaining.is_empty() {
        let mut best_slot = 0usize;
        let mut best: Option<(usize, f64, usize)> = None;
        for (slot, &idx) in remaining.iter().enumerate() {
            let adornment = Adornment::of_atom(&body[idx], &known);
            let bound = adornment.bound_count();
            let estimate = selectivity.estimate(&body[idx], &adornment);
            let better = match &best {
                None => true,
                Some((b, e, i)) => {
                    bound > *b || (bound == *b && (estimate < *e || (estimate == *e && idx < *i)))
                }
            };
            if better {
                best = Some((bound, estimate, idx));
                best_slot = slot;
            }
        }
        let idx = remaining.remove(best_slot);
        known.extend(body[idx].variables());
        order.push(idx);
    }
    order
}

/// Why a program/query pair does not admit a goal-driven rewrite. The
/// planner treats any of these as "fall back to the full-model chase" —
/// they are expected outcomes, not errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Inadmissible {
    /// A program or query predicate already starts with [`MAGIC_PREFIX`];
    /// generating magic predicates would collide with user names.
    ReservedPrefix(String),
    /// The unguarded cascade (existential / multi-head rules forcing their
    /// inputs to be derived in full) swallowed every rule: nothing is left
    /// to guard, so the rewrite would just be the full chase.
    NoGuardedRules,
    /// No query atom binds a constant over a restricted predicate: the goal
    /// demands *all* bindings, so the restriction cannot prune anything.
    NoBoundSeed,
}

impl std::fmt::Display for Inadmissible {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Inadmissible::ReservedPrefix(name) => {
                write!(f, "predicate {name:?} uses the reserved `magic_` prefix")
            }
            Inadmissible::NoGuardedRules => {
                write!(
                    f,
                    "no guardable rules: existential/multi-head rules force the full model"
                )
            }
            Inadmissible::NoBoundSeed => {
                write!(f, "query binds no constants over a restricted predicate")
            }
        }
    }
}

impl std::error::Error for Inadmissible {}

/// The result of a goal-driven rewrite: the restricted program to chase,
/// the ground magic seeds to add to the instance first, and the counts the
/// planner reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MagicProgram {
    /// The transformed program: magic rules + guarded adorned copies +
    /// unguarded relevant rules verbatim. Rules outside the query's
    /// relevance slice are dropped.
    pub program: TgdProgram,
    /// Ground magic facts seeding the demand from the query's constants.
    pub seeds: Vec<Atom>,
    /// Rules in the original program (for the "relevant of N" report).
    pub total_rules: usize,
    /// Rules of the original program reachable backwards from the query.
    pub relevant_rules: usize,
    /// Relevant rules that could be guarded (full, single-head, restricted
    /// head predicate).
    pub guarded_rules: usize,
    /// Adorned guarded copies emitted (one per reachable (rule, adornment)).
    pub adorned_rules: usize,
    /// Magic (demand-propagation) rules emitted.
    pub magic_rules: usize,
    /// Distinct (predicate, adornment) pairs reached by the SIP worklist.
    pub adornments: usize,
    /// Predicates the restricted chase still derives in full (targets of
    /// the unguarded cascade), by name — surfaced in `EXPLAIN`.
    pub unrestricted: BTreeSet<String>,
}

impl MagicProgram {
    /// Human-readable dump of the adorned program for `EXPLAIN`: seeds
    /// first, then every rule of the transformed program.
    pub fn dump(&self) -> Vec<String> {
        let mut lines = Vec::new();
        lines.push(format!(
            "adorned program: {} rules ({} magic, {} guarded copies of {} rules, \
             {} adornments; {} of {} original rules relevant)",
            self.program.len(),
            self.magic_rules,
            self.adorned_rules,
            self.guarded_rules,
            self.adornments,
            self.relevant_rules,
            self.total_rules,
        ));
        if !self.unrestricted.is_empty() {
            let list: Vec<&str> = self.unrestricted.iter().map(String::as_str).collect();
            lines.push(format!("derived in full: {}", list.join(", ")));
        }
        for seed in &self.seeds {
            lines.push(format!("seed: {seed}"));
        }
        for rule in self.program.rules() {
            lines.push(format!("{rule}"));
        }
        lines
    }
}

/// Internal per-rewrite state.
struct Rewriter<'a> {
    program: &'a TgdProgram,
    /// Head predicates of any rule (IDB): everything else comes from the
    /// store and needs no guarding.
    derived: HashSet<Predicate>,
    /// Derived predicates the cascade forces to full derivation.
    unrestricted: HashSet<Predicate>,
    /// Relevant rules, in original order, with a flag: can it be guarded?
    relevant: Vec<(&'a Tgd, bool)>,
}

impl<'a> Rewriter<'a> {
    fn new(program: &'a TgdProgram, query: &ConjunctiveQuery) -> Result<Self, Inadmissible> {
        for pred in program.predicates() {
            if pred.name_str().starts_with(MAGIC_PREFIX) {
                return Err(Inadmissible::ReservedPrefix(pred.name_str().to_string()));
            }
        }
        for atom in &query.body {
            if atom.predicate.name_str().starts_with(MAGIC_PREFIX) {
                return Err(Inadmissible::ReservedPrefix(
                    atom.predicate.name_str().to_string(),
                ));
            }
        }

        let derived: HashSet<Predicate> = program
            .rules()
            .iter()
            .flat_map(|r| r.head.iter().map(|a| a.predicate))
            .collect();

        // Relevance slice: rules reachable backwards from the query body.
        let mut relevant_preds: HashSet<Predicate> =
            query.body.iter().map(|a| a.predicate).collect();
        let mut queue: VecDeque<Predicate> = relevant_preds.iter().copied().collect();
        let mut relevant_rule_idx: HashSet<usize> = HashSet::new();
        while let Some(pred) = queue.pop_front() {
            for (idx, rule) in program.rules().iter().enumerate() {
                if rule.head.iter().any(|a| a.predicate == pred) && relevant_rule_idx.insert(idx) {
                    for atom in &rule.body {
                        if relevant_preds.insert(atom.predicate) {
                            queue.push_back(atom.predicate);
                        }
                    }
                }
            }
        }
        let mut relevant: Vec<(&Tgd, bool)> = program
            .rules()
            .iter()
            .enumerate()
            .filter(|(idx, _)| relevant_rule_idx.contains(idx))
            .map(|(_, r)| (r, true))
            .collect();

        // Unguarded cascade: a rule with existential head variables or more
        // than one head atom cannot be guarded (restricting it would lose
        // nulls/joint derivations), so its head predicates — and, for it to
        // fire completely, its derived body predicates — must be derived in
        // full. Fully-derived head predicates in turn make every producer of
        // that predicate unguarded (a predicate is restricted all-or-nothing).
        let mut unrestricted: HashSet<Predicate> = HashSet::new();
        loop {
            let mut changed = false;
            for (rule, guardable) in relevant.iter_mut() {
                let inherently_unguardable = !rule.is_full() || rule.head.len() > 1;
                let head_unrestricted = rule
                    .head
                    .iter()
                    .any(|a| unrestricted.contains(&a.predicate));
                if inherently_unguardable || head_unrestricted {
                    *guardable = false;
                    for atom in rule.head.iter().chain(rule.body.iter()) {
                        if derived.contains(&atom.predicate) && unrestricted.insert(atom.predicate)
                        {
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }

        Ok(Rewriter {
            program,
            derived,
            unrestricted,
            relevant,
        })
    }

    /// A predicate the magic restriction applies to: derived by some rule
    /// and not forced to full derivation by the cascade.
    fn restricted(&self, pred: &Predicate) -> bool {
        self.derived.contains(pred) && !self.unrestricted.contains(pred)
    }

    fn rewrite(
        self,
        query: &ConjunctiveQuery,
        selectivity: &dyn SipSelectivity,
    ) -> Result<MagicProgram, Inadmissible> {
        let guarded_rules = self.relevant.iter().filter(|(_, g)| *g).count();
        if guarded_rules == 0 {
            return Err(Inadmissible::NoGuardedRules);
        }

        // Seeds: each query atom over a restricted predicate demands the
        // bindings fixed by its constants. An atom with no constants seeds
        // the all-free (propositional) magic fact — uniform demand for the
        // whole predicate, still restricted to the query's slice.
        let no_vars: HashSet<Variable> = HashSet::new();
        let mut seeds: Vec<Atom> = Vec::new();
        let mut worklist: VecDeque<(Predicate, Adornment)> = VecDeque::new();
        let mut seen: HashSet<(Predicate, Adornment)> = HashSet::new();
        let mut any_bound_seed = false;
        for atom in &query.body {
            if !self.restricted(&atom.predicate) {
                continue;
            }
            let adornment = Adornment::of_atom(atom, &no_vars);
            any_bound_seed |= adornment.has_bound();
            seeds.push(magic_atom(
                &atom.predicate,
                &adornment,
                adornment.bound_terms(atom),
            ));
            if seen.insert((atom.predicate, adornment.clone())) {
                worklist.push_back((atom.predicate, adornment));
            }
        }
        if !any_bound_seed {
            return Err(Inadmissible::NoBoundSeed);
        }
        seeds.sort();
        seeds.dedup();

        // SIP worklist: for each demanded (predicate, adornment), adorn
        // every guarded producer — prepend the magic guard, then walk the
        // body in selectivity order propagating bound variables sideways
        // and emitting one magic rule per restricted body atom. Magic rule
        // labels keep the atom's *textual* index so they are stable across
        // oracles. The adorned copy's body keeps the SIP order too, handing
        // the chase a join order that binds selective atoms first.
        let mut adorned: Vec<Tgd> = Vec::new();
        let mut magic: Vec<Tgd> = Vec::new();
        while let Some((pred, adornment)) = worklist.pop_front() {
            for (rule, guardable) in &self.relevant {
                if !*guardable {
                    continue;
                }
                let head = &rule.head[0];
                if head.predicate != pred {
                    continue;
                }
                let guard = magic_atom(&pred, &adornment, adornment.bound_terms(head));
                let mut known: HashSet<Variable> = adornment
                    .bound_terms(head)
                    .iter()
                    .filter_map(Term::as_variable)
                    .collect();
                let order = sip_order(&rule.body, &known, selectivity);
                let mut prefix: Vec<Atom> = vec![guard.clone()];
                for &i in &order {
                    let body_atom = &rule.body[i];
                    if self.restricted(&body_atom.predicate) {
                        let body_adornment = Adornment::of_atom(body_atom, &known);
                        let magic_head = magic_atom(
                            &body_atom.predicate,
                            &body_adornment,
                            body_adornment.bound_terms(body_atom),
                        );
                        magic.push(Tgd::labelled(
                            &format!("mg:{}@{}#{}", rule.label_str(), adornment.suffix(), i),
                            prefix.clone(),
                            vec![magic_head],
                        ));
                        let key = (body_atom.predicate, body_adornment);
                        if !seen.contains(&key) {
                            seen.insert(key.clone());
                            worklist.push_back(key);
                        }
                    }
                    known.extend(body_atom.variables());
                    prefix.push(body_atom.clone());
                }
                let mut body = vec![guard];
                body.extend(order.iter().map(|&i| rule.body[i].clone()));
                adorned.push(Tgd::labelled(
                    &format!("{}@{}", rule.label_str(), adornment.suffix()),
                    body,
                    rule.head.clone(),
                ));
            }
        }

        let adornments = seen.len();
        magic_metrics().adornments.add(adornments as u64);

        let mut rules: Vec<Tgd> = magic;
        let magic_rules = rules.len();
        let adorned_rules = adorned.len();
        rules.extend(adorned);
        // Unguarded relevant rules ride along verbatim: the cascade already
        // arranged for their inputs to be derived in full.
        for (rule, guardable) in &self.relevant {
            if !*guardable {
                rules.push((*rule).clone());
            }
        }

        Ok(MagicProgram {
            program: TgdProgram::from_rules(rules),
            seeds,
            total_rules: self.program.len(),
            relevant_rules: self.relevant.len(),
            guarded_rules,
            adorned_rules,
            magic_rules,
            adornments,
            unrestricted: self
                .unrestricted
                .iter()
                .map(|p| p.name_str().to_string())
                .collect(),
        })
    }
}

/// Build the magic atom `magic_<pred>_<adornment>(terms)`.
fn magic_atom(pred: &Predicate, adornment: &Adornment, terms: Vec<Term>) -> Atom {
    let name = format!("{MAGIC_PREFIX}{}_{}", pred.name_str(), adornment.suffix());
    Atom::from_predicate(Predicate::new(&name, terms.len()), terms)
}

/// Rewrite `program` for goal-driven evaluation of `query`.
///
/// On success the returned [`MagicProgram`] chases to exactly the
/// goal-relevant part of the universal model: add [`MagicProgram::seeds`]
/// to the instance, chase [`MagicProgram::program`], and evaluate the
/// *original* query over the result. On [`Inadmissible`] the caller should
/// fall back to the full-model chase.
pub fn rewrite_goal_driven(
    program: &TgdProgram,
    query: &ConjunctiveQuery,
) -> Result<MagicProgram, Inadmissible> {
    rewrite_goal_driven_with(program, query, &StructuralSipSelectivity)
}

/// Like [`rewrite_goal_driven`], but with an explicit [`SipSelectivity`]
/// oracle steering the sideways-information-passing order. The planner
/// passes a statistics-backed oracle here so demand flows through the atoms
/// the data says are selective, not the atoms the rule author wrote first;
/// any oracle yields a correct rewrite — only the tightness of the magic
/// restriction (and thus chase work) varies.
pub fn rewrite_goal_driven_with(
    program: &TgdProgram,
    query: &ConjunctiveQuery,
    selectivity: &dyn SipSelectivity,
) -> Result<MagicProgram, Inadmissible> {
    let mut guard = span("magic.adorn");
    let result = Rewriter::new(program, query)?.rewrite(query, selectivity);
    if let Ok(magic) = &result {
        guard.attr("relevant_rules", magic.relevant_rules);
        guard.attr("adorned_rules", magic.adorned_rules);
        guard.attr("magic_rules", magic.magic_rules);
        guard.attr("adornments", magic.adornments);
    }
    result
}

#[cfg(test)]
mod tests;
