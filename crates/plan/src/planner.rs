//! The planner: classify once, compile a plan per query, execute anywhere.

use crate::execution::{
    CardinalityEstimate, ChaseSummary, Execution, GoalDrivenSummary, MaterializationMode,
    Provenance, StrategyTaken, Timings,
};
use crate::plan::{MaterializationGuarantee, PlanKind, QueryPlan};
use ontorew_chase::{
    chase, chase_incremental, chase_retract, ChaseConfig, ChaseOutcome, ChaseResult,
    DerivationGraph,
};
use ontorew_core::{classify, ClassificationReport};
use ontorew_magic::{
    rewrite_goal_driven, rewrite_goal_driven_with, Adornment, MagicProgram, SipSelectivity,
};
use ontorew_model::prelude::*;
use ontorew_rewrite::{evaluate_rewriting_configured, rewrite, RewriteConfig, Rewriting};
use ontorew_storage::{estimate_join_cost, evaluate_cq, AnswerSet, EvalConfig, StoreStatistics};
use ontorew_telemetry::{global_registry, span};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Weak};
use std::time::Instant;

/// Count one materialization by how it was obtained (the `mode` label of
/// `plan_materializations_total`).
fn record_materialization_mode(mode: &MaterializationMode) {
    let label = match mode {
        MaterializationMode::Scratch => "scratch",
        MaterializationMode::Incremental { .. } => "incremental",
        MaterializationMode::Dred { .. } => "dred",
    };
    global_registry()
        .counter(
            "plan_materializations_total",
            "Materializations computed, by mode (scratch, incremental, dred).",
            &[("mode", label)],
        )
        .inc();
}

/// The certain answers of `query` over a chased `instance`: its answers with
/// every row that holds a labelled null dropped, filtered in place.
fn certain_answers_over(instance: &Instance, query: &ConjunctiveQuery) -> AnswerSet {
    let mut answers = evaluate_cq(instance, query);
    answers.retain_certain();
    answers
}

/// A restricted (magic-sets) chase run by a goal-driven or best-effort
/// execution.
struct MagicChase {
    result: ontorew_chase::ChaseResult,
    /// Facts the chase added: its instance's size minus the seeded store's.
    derived: usize,
    materialize_us: u64,
}

/// The labelled nulls of a chased instance, shared between the versions that
/// did not change it.
type NullSet = Arc<std::collections::BTreeSet<ontorew_model::term::Null>>;

/// The null set of a chase state after `added` entered its instance, in
/// O(nulls of `added`): a continuation can propagate *base* nulls into newly
/// derived facts, so only genuinely new nulls extend the shared set (which
/// is reused as is when there are none).
fn extend_null_set(nulls: &NullSet, added: &Instance) -> NullSet {
    let fresh: Vec<_> = added
        .nulls()
        .into_iter()
        .filter(|null| !nulls.contains(null))
        .collect();
    let mut extended = Arc::clone(nulls);
    if !fresh.is_empty() {
        Arc::make_mut(&mut extended).extend(fresh);
    }
    extended
}

/// The null set of a chase state after `removed` left its instance, in
/// O(nulls of `removed`): a null leaves the set only when the last fact
/// mentioning it left `survivors` — checked through the column indexes.
fn shrink_null_set(mut nulls: NullSet, removed: &[Atom], survivors: &Instance) -> NullSet {
    let vanished: Vec<_> = removed
        .iter()
        .flat_map(|fact| fact.terms.iter())
        .filter_map(Term::as_null)
        .filter(|null| !survivors.mentions(&Term::Null(*null)))
        .collect();
    if !vanished.is_empty() {
        let set = Arc::make_mut(&mut nulls);
        for null in &vanished {
            set.remove(null);
        }
    }
    nulls
}

/// [`SipSelectivity`] oracle backed by measured store statistics: an adorned
/// atom's estimate is its relation's cardinality divided by the distinct
/// counts of its bound columns (uniformity/independence) — the expected
/// matches once the SIP has fixed those positions. Derived predicates with
/// no stored relation estimate as infinite, so demand flows through measured
/// data first and reaches derived atoms carrying the most bindings.
struct StatisticsSipSelectivity<'a> {
    statistics: &'a StoreStatistics,
}

impl SipSelectivity for StatisticsSipSelectivity<'_> {
    fn estimate(&self, atom: &Atom, adornment: &Adornment) -> f64 {
        let Some(relation) = self.statistics.relation(atom.predicate) else {
            return f64::INFINITY;
        };
        let mut estimate = relation.cardinality as f64;
        for position in 0..atom.terms.len() {
            if adornment.bound_at(position) {
                let distinct = relation
                    .columns
                    .get(position)
                    .map(|c| c.distinct.max(1))
                    .unwrap_or(1) as f64;
                estimate /= distinct;
            }
        }
        estimate
    }
}

/// Configuration of a [`Planner`].
#[derive(Clone, Copy, Debug)]
pub struct PlannerConfig {
    /// Rewriting budgets. `None` (the default) uses the size-aware
    /// [`RewriteConfig::for_program`] heuristic.
    pub rewrite: Option<RewriteConfig>,
    /// Chase budgets for materialization-based plans.
    pub chase: ChaseConfig,
    /// Hybrid cost signal: above this rewriting fan-out, a hybrid plan
    /// prefers materialization when it is affordable (cached, or the store
    /// is below [`PlannerConfig::small_store_facts`]).
    pub hybrid_disjunct_cutoff: usize,
    /// Stores at or below this many facts count as cheap to materialize —
    /// used by hybrid plans and by the best-effort chase union.
    pub small_store_facts: usize,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            rewrite: None,
            chase: ChaseConfig::default(),
            hybrid_disjunct_cutoff: 256,
            small_store_facts: 10_000,
        }
    }
}

/// How many data versions of chase materializations the planner keeps. Epoch
/// traffic only ever needs the latest one or two; the small surplus absorbs
/// multi-tenant interleavings.
///
/// The cache is strictly in-memory state, **never persisted** by the
/// durability layer: after a crash or restart only base facts are recovered
/// (WAL + segments), so the first chase-backed query of the new process
/// rebuilds its materialization from scratch
/// ([`MaterializationMode::Scratch`]) and the version chain re-grows from
/// there. Materializations are derived data — persisting them would mean
/// proving on recovery that a half-written chase store is consistent with
/// the replayed WAL, for a cost that one warm-up chase already bounds.
const MATERIALIZATION_CACHE_VERSIONS: usize = 4;

/// How many recorded insert deltas the planner keeps, and the longest delta
/// chain an incremental materialization will compose. Commit-per-fact
/// tenants produce many tiny edges; 64 of them bridge a realistic gap
/// between queries without letting the walk grow unbounded.
const MATERIALIZATION_DELTA_EDGES: usize = 64;

/// A chase materialization of one data version: the chased instance, its
/// guarantees, the chase state an incremental continuation extends, and the
/// run statistics.
#[derive(Debug)]
pub struct Materialization {
    /// True if the chase reached a fixpoint (the instance is a universal
    /// model, so evaluation yields exactly the certain answers). An
    /// incremental materialization is complete iff its base was and its own
    /// continuation reached a fixpoint.
    pub complete: bool,
    /// Facts in the chased instance.
    pub facts: usize,
    /// Labelled nulls invented by the chase.
    pub nulls: usize,
    /// Chase rounds executed (of the latest scratch run or continuation).
    pub rounds: usize,
    /// Wall-clock cost of producing this materialization (chase + freeze
    /// for scratch; incremental chase + store extension for incremental),
    /// microseconds.
    pub micros: u64,
    /// How this materialization was obtained; reported in provenance.
    pub mode: MaterializationMode,
    /// Facts of the source store the materialization was computed from — a
    /// cheap sanity guard against version-token misuse.
    source_facts: usize,
    /// The chase state (frozen instance + fired keys) that
    /// [`chase_incremental`] seeds from when this version is extended, and
    /// whose instance queries are evaluated over.
    chased: ChaseResult,
    /// The labelled nulls of the chased instance. Kept as a shared set so
    /// an incremental extension can compute its exact null count in
    /// O(delta nulls) — a continuation can propagate *base* nulls into new
    /// facts, so `added`'s nulls alone would double-count.
    null_set: NullSet,
}

impl Materialization {
    /// The one constructor: freeze the chased instance — so it clones in
    /// O(#segments), which is what makes later incremental extensions and
    /// evaluations over it cheap (the size-tiered merge builds new segments;
    /// the source's stay as they are) — and take the run statistics.
    /// `micros` runs from `start` to the end of the freeze.
    fn new(
        mut chased: ChaseResult,
        complete: bool,
        null_set: NullSet,
        mode: MaterializationMode,
        source_facts: usize,
        start: Instant,
    ) -> Self {
        chased.instance.freeze();
        Materialization {
            complete,
            facts: chased.instance.len(),
            nulls: null_set.len(),
            rounds: chased.rounds,
            micros: start.elapsed().as_micros() as u64,
            mode,
            source_facts,
            chased,
            null_set,
        }
    }

    /// The chased instance (frozen), which queries are evaluated over and
    /// `WHY NOT` explanations probe for blocked rule bodies.
    pub fn instance(&self) -> &Instance {
        &self.chased.instance
    }

    /// The derivation graph recorded during the chase, when the planner's
    /// [`ChaseConfig::track_provenance`] was on — what `WHY` walks and what
    /// DRed retraction repairs. `None` for untracked materializations.
    pub fn provenance(&self) -> Option<&DerivationGraph> {
        self.chased.provenance.as_ref()
    }

    fn summary(&self) -> ChaseSummary {
        ChaseSummary {
            facts: self.facts,
            nulls: self.nulls,
            rounds: self.rounds,
            complete: self.complete,
        }
    }
}

/// How many data versions of store statistics the planner keeps. Statistics
/// are a single store scan, so the cache is small and simply cleared at
/// capacity instead of tracking recency.
const STATISTICS_CACHE_VERSIONS: usize = 8;

/// Stores above this many facts are not scanned for statistics during
/// execution: the cost model falls back to the legacy size-threshold
/// signals rather than pay an unamortised O(store) pass.
const STATISTICS_MAX_FACTS: usize = 1 << 20;

/// Abstract cost units per derived fact of a chase run: a chase step does an
/// order of magnitude more work per fact (trigger search, null invention,
/// index maintenance) than a join touches per row.
const CHASE_COST_PER_FACT: f64 = 16.0;

/// At most this many rewriting disjuncts are individually costed; wider
/// unions are sampled and scaled, keeping the cost decision itself cheap.
const UCQ_COST_SAMPLE: usize = 128;

/// Per-version store statistics, guarded by the source store's fact count
/// exactly like the materialization cache.
#[derive(Default)]
struct StatisticsCache {
    entries: HashMap<u64, (usize, Arc<StoreStatistics>)>,
}

/// Whether a recorded delta batch inserted or deleted its facts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum DeltaKind {
    Insert,
    Delete,
}

/// A recorded commit batch: `version` was produced from `parent` by
/// inserting or deleting `facts`, resulting in a store of `resulting_facts`
/// facts (the end-to-end guard an incremental extension is validated
/// against). The batch is behind an `Arc` so recording and chain-walking
/// never copy atoms while the cache lock is held.
#[derive(Clone, Debug)]
struct DeltaEdge {
    parent: u64,
    kind: DeltaKind,
    facts: Arc<[Atom]>,
    resulting_facts: usize,
}

/// The planner state shared by every [`PreparedQuery`] it hands out.
pub(crate) struct PlannerShared {
    program: TgdProgram,
    classification: ClassificationReport,
    rewrite_config: RewriteConfig,
    chase_config: ChaseConfig,
    hybrid_disjunct_cutoff: usize,
    small_store_facts: usize,
    /// Chase materializations keyed by caller-supplied data version, with a
    /// recency tick per entry (eviction is least-recently-used — versions
    /// are tenant-tagged, so "smallest version" would always sacrifice the
    /// lowest-tagged tenant). One materialization serves every chase-plan
    /// query against that version.
    materializations: Mutex<MaterializationCache>,
    /// Signalled (under `materializations`) whenever an in-flight
    /// materialization lands or is abandoned.
    landed: Condvar,
    /// Store statistics keyed by data version, feeding the cost model.
    statistics: Mutex<StatisticsCache>,
}

/// Held by the thread materializing `version`; dropping it (on success,
/// fallback or unwind alike) clears the in-flight slot and wakes the
/// waiters, which then find the cached result or take over.
struct Landing<'a> {
    shared: &'a PlannerShared,
    version: u64,
}

impl Drop for Landing<'_> {
    fn drop(&mut self) {
        self.shared
            .materializations
            .lock()
            .in_flight
            .remove(&self.version);
        self.shared.landed.notify_all();
    }
}

/// What a successful delta-chain walk hands back: the ancestor's version,
/// its cached materialization, and the kinded batches to replay (oldest
/// first).
type IncrementalBase = (u64, Arc<Materialization>, Vec<(DeltaKind, Arc<[Atom]>)>);

#[derive(Default)]
struct MaterializationCache {
    entries: HashMap<u64, (u64, Arc<Materialization>)>,
    /// Recorded insert batches keyed by resulting version, tick-stamped for
    /// eviction. `deltas[v] = (tick, edge)` says `v = edge.parent ∪
    /// edge.facts` — the chain a cache miss walks backwards to find a
    /// cached ancestor it can extend instead of re-chasing.
    deltas: HashMap<u64, (u64, DeltaEdge)>,
    tick: u64,
    /// Versions some thread is materializing right now. A second miss on
    /// the same version waits on [`PlannerShared::landed`] for that result
    /// instead of computing it again.
    in_flight: HashSet<u64>,
}

impl MaterializationCache {
    /// A read-only look (no recency refresh) at the entry for `version`,
    /// if it matches the store's size guard: for callers that only decide
    /// or report from the cached state.
    fn peek(&self, version: u64, source_facts: usize) -> Option<Arc<Materialization>> {
        match self.entries.get(&version) {
            Some((_, m)) if m.source_facts == source_facts => Some(Arc::clone(m)),
            _ => None,
        }
    }

    /// A cached entry for `version` matching the store's size guard,
    /// refreshing its recency.
    fn get(&mut self, version: u64, source_facts: usize) -> Option<Arc<Materialization>> {
        self.tick += 1;
        let tick = self.tick;
        match self.entries.get_mut(&version) {
            Some((last_used, m)) if m.source_facts == source_facts => {
                *last_used = tick;
                Some(Arc::clone(m))
            }
            _ => None,
        }
    }

    /// Insert `materialization` under `version`, evicting the
    /// least-recently-used entry at capacity.
    fn insert(&mut self, version: u64, materialization: Arc<Materialization>) {
        self.tick += 1;
        if self.entries.len() >= MATERIALIZATION_CACHE_VERSIONS
            && !self.entries.contains_key(&version)
        {
            if let Some(victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (last_used, _))| *last_used)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&victim);
            }
        }
        // Gauges of what grows, fed from counters the cache and the graph
        // already keep (the provenance ones describe the newest entry).
        let registry = global_registry();
        if let Some(graph) = materialization.provenance() {
            for (name, help, value) in [
                (
                    "provenance_nodes",
                    "Live facts in the newest cached derivation graph.",
                    graph.node_count(),
                ),
                (
                    "provenance_edges",
                    "Live edges in the newest cached derivation graph.",
                    graph.edge_count(),
                ),
                (
                    "provenance_bytes",
                    "Estimated heap bytes of the newest cached derivation graph.",
                    graph.bytes_estimate(),
                ),
            ] {
                registry.gauge(name, help, &[]).set(value as i64);
            }
        }
        self.entries.insert(version, (self.tick, materialization));
        registry
            .gauge(
                "plan_materialization_cache_entries",
                "Chase materializations currently cached.",
                &[],
            )
            .set(self.entries.len() as i64);
    }

    /// Record that `version` was produced from `parent` by inserting
    /// `facts`, evicting the oldest edge at capacity.
    fn record_delta(&mut self, parent: u64, version: u64, edge: DeltaEdge) {
        debug_assert_eq!(parent, edge.parent);
        self.tick += 1;
        if self.deltas.len() >= MATERIALIZATION_DELTA_EDGES && !self.deltas.contains_key(&version) {
            if let Some(victim) = self
                .deltas
                .iter()
                .min_by_key(|(_, (tick, _))| *tick)
                .map(|(k, _)| *k)
            {
                self.deltas.remove(&victim);
            }
        }
        self.deltas.insert(version, (self.tick, edge));
    }

    /// Walk the delta chain backwards from `version` looking for a cached,
    /// **complete** ancestor materialization: returns the ancestor and the
    /// batches to replay (oldest first), as shared handles so the caller
    /// can compose them *after* dropping the cache lock. The walk requires
    /// the edge into `version` to agree with the observed store size
    /// (`source_facts`) — the same guard `get` applies — and is bounded by
    /// the edge-store capacity, so it always terminates even on
    /// (impossible) cyclic version tokens.
    fn incremental_base(&mut self, version: u64, source_facts: usize) -> Option<IncrementalBase> {
        let newest = self.deltas.get(&version)?;
        if newest.1.resulting_facts != source_facts {
            return None;
        }
        let mut batches: Vec<(DeltaKind, Arc<[Atom]>)> = Vec::new();
        let mut at = version;
        for _ in 0..MATERIALIZATION_DELTA_EDGES {
            let (_, edge) = self.deltas.get(&at)?;
            batches.push((edge.kind, Arc::clone(&edge.facts)));
            at = edge.parent;
            if let Some((_, base)) = self.entries.get(&at) {
                if base.complete {
                    let base = Arc::clone(base);
                    batches.reverse();
                    self.tick += 1;
                    let tick = self.tick;
                    if let Some((last_used, _)) = self.entries.get_mut(&at) {
                        *last_used = tick;
                    }
                    return Some((at, base, batches));
                }
                // An incomplete (budget-cut) ancestor cannot be extended
                // soundly-and-completely; keep walking in case an older
                // complete one exists.
            }
        }
        None
    }
}

impl PlannerShared {
    /// Fetch or compute the statistics of `store` for the cost model. With a
    /// version token the scan happens once per data version; without one it
    /// only happens on stores cheap enough to scan per execution (the
    /// planner's small-store bound). `None` means the cost model has nothing
    /// to work with and callers fall back to size-threshold signals.
    fn store_statistics(
        &self,
        store: &Instance,
        version: Option<u64>,
    ) -> Option<Arc<StoreStatistics>> {
        let source_facts = store.len();
        let Some(v) = version else {
            if source_facts > self.small_store_facts {
                return None;
            }
            return Some(Arc::new(StoreStatistics::collect(store)));
        };
        if source_facts > STATISTICS_MAX_FACTS {
            return None;
        }
        {
            let cache = self.statistics.lock();
            if let Some((facts, stats)) = cache.entries.get(&v) {
                if *facts == source_facts {
                    return Some(Arc::clone(stats));
                }
            }
        }
        // Collect outside the lock: other tenants' lookups must not wait on
        // the O(store) scan. A racing duplicate scan is harmless.
        let stats = Arc::new(StoreStatistics::collect(store));
        let mut cache = self.statistics.lock();
        if cache.entries.len() >= STATISTICS_CACHE_VERSIONS && !cache.entries.contains_key(&v) {
            cache.entries.clear();
        }
        cache.entries.insert(v, (source_facts, Arc::clone(&stats)));
        Some(stats)
    }

    /// Fetch or compute the materialization of `store`. With a version
    /// token, the result is cached and shared across queries; without one,
    /// every call chases afresh. On a miss at a version whose insert
    /// lineage is recorded (see [`Planner::record_delta`]) and whose
    /// ancestor materialization is cached and complete, the ancestor is
    /// **incrementally extended** — O(closure of the delta) — instead of
    /// re-chasing the whole store. The chase (either kind) runs outside the
    /// cache lock, and at most once per version: a concurrent miss on the
    /// same version waits for the first computation and is served (and
    /// counted) as a cache hit.
    fn materialize(&self, store: &Instance, version: Option<u64>) -> (Arc<Materialization>, bool) {
        let source_facts = store.len();
        let mut mat_span = span("plan.materialize");
        let mut _landing = None;
        if let Some(v) = version {
            let mut cache = self.materializations.lock();
            loop {
                // The size guard inside `get` catches a caller reusing a
                // version token for different data; recomputing is then the
                // safe choice.
                if let Some(m) = cache.get(v, source_facts) {
                    global_registry()
                        .counter(
                            "plan_materialization_cache_hits_total",
                            "Materialization cache hits (version token matched).",
                            &[],
                        )
                        .inc();
                    mat_span.attr("cached", true);
                    return (m, true);
                }
                if !cache.in_flight.contains(&v) {
                    break;
                }
                // Single flight: another thread missed this version first.
                // Its result is a hit for us once it lands.
                cache = self
                    .landed
                    .wait(cache)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
            cache.in_flight.insert(v);
            _landing = Some(Landing {
                shared: self,
                version: v,
            });
            let lineage = cache.incremental_base(v, source_facts);
            drop(cache);
            if let Some((from, base, batches)) = lineage {
                let result = if batches.iter().any(|(kind, _)| *kind == DeltaKind::Delete) {
                    // At least one delete edge: replay the lineage stage by
                    // stage — incremental chase for inserts, DRed for
                    // deletes (needs the ancestor's derivation graph).
                    self.materialize_retraction(store, v, from, &base, &batches)
                } else {
                    // Pure-insert lineage: compose the recorded batches
                    // outside the lock (other tenants' cache lookups must
                    // not wait on O(delta) copying) and extend in one
                    // incremental chase.
                    let delta: Vec<Atom> = batches
                        .iter()
                        .flat_map(|(_, batch)| batch.iter().cloned())
                        .collect();
                    self.materialize_incremental(store, v, from, &base, delta)
                };
                if let Some(materialization) = result {
                    record_materialization_mode(&materialization.mode);
                    mat_span.attr("mode", materialization.mode);
                    return (materialization, false);
                }
                // Validation failed (stale tokens, mismatched lineage, no
                // derivation graph to retract over): fall through to the
                // scratch chase.
            }
        }
        mat_span.attr("mode", MaterializationMode::Scratch);
        let start = Instant::now();
        // The chase's working copy shares the store's frozen segments: only
        // the derived facts are new rows.
        let result = chase(&self.program, store, &self.chase_config);
        let complete = result.is_universal_model();
        let null_set = Arc::new(result.instance.nulls());
        let materialization = Arc::new(Materialization::new(
            result,
            complete,
            null_set,
            MaterializationMode::Scratch,
            source_facts,
            start,
        ));
        record_materialization_mode(&MaterializationMode::Scratch);
        if let Some(v) = version {
            self.materializations
                .lock()
                .insert(v, Arc::clone(&materialization));
        }
        (materialization, false)
    }

    /// Extend the cached `base` materialization (of version `from`) by the
    /// composed insert `delta`, producing and caching the materialization
    /// of `version`. Returns `None` when the end-to-end size guard fails —
    /// the extended source does not match the observed store — in which
    /// case the caller falls back to a scratch chase.
    fn materialize_incremental(
        &self,
        store: &Instance,
        version: u64,
        from: u64,
        base: &Arc<Materialization>,
        delta: Vec<Atom>,
    ) -> Option<Arc<Materialization>> {
        let start = Instant::now();
        // End-to-end guard: the base's source plus the genuinely-new delta
        // facts must reproduce the observed store size. This catches stale
        // or colliding version tokens the same way `get`'s size guard does,
        // before any chase work is wasted. Checking novelty against the
        // *chased* instance (the source store is not retained) is
        // conservative: a delta fact the base had merely derived makes the
        // guard under-count and fall back to a scratch chase — correct,
        // just not incremental.
        let mut new_source = base.source_facts;
        {
            let mut seen = Instance::new();
            for fact in &delta {
                if !base.chased.instance.contains(fact) && seen.insert(fact.clone()) {
                    new_source += 1;
                }
            }
        }
        if new_source != store.len() {
            return None;
        }
        // The genuinely-new facts (deduplicated, not already chased) are
        // what the continuation actually seeds — the honest delta size for
        // provenance, as opposed to the raw composed batch length.
        let delta_facts = new_source - base.source_facts;
        let delta_instance = Instance::from_atoms(delta);
        let incremental = chase_incremental(
            &self.program,
            &base.chased,
            &delta_instance,
            &self.chase_config,
        );
        // The continuation's copy-on-write instance clone reuses the base's
        // segments: only the delta's closure is new rows.
        let complete = base.complete && incremental.result.is_universal_model();
        let materialization = Arc::new(Materialization::new(
            incremental.result,
            complete,
            extend_null_set(&base.null_set, &incremental.added),
            MaterializationMode::Incremental { from, delta_facts },
            store.len(),
            start,
        ));
        self.materializations
            .lock()
            .insert(version, Arc::clone(&materialization));
        Some(materialization)
    }

    /// Replay a mixed insert/delete lineage on top of the cached `base`
    /// materialization (of version `from`): consecutive same-kind batches
    /// are coalesced, insert runs extend the chase state with
    /// [`chase_incremental`], delete runs repair it with [`chase_retract`]
    /// (DRed over the derivation graph). Returns `None` when the base
    /// carries no derivation graph (the planner's chase config ran without
    /// `track_provenance`) or when the end-to-end source guard fails — the
    /// caller then falls back to a scratch chase.
    fn materialize_retraction(
        &self,
        store: &Instance,
        version: u64,
        from: u64,
        base: &Arc<Materialization>,
        batches: &[(DeltaKind, Arc<[Atom]>)],
    ) -> Option<Arc<Materialization>> {
        let start = Instant::now();
        // DRed rederives through the recorded derivation graph; without one
        // there is nothing to repair from.
        base.chased.provenance.as_ref()?;
        let config = ChaseConfig {
            track_provenance: true,
            ..self.chase_config
        };
        // Coalesce consecutive same-kind batches so a burst of
        // commit-per-fact edges costs one chase call per direction change.
        let mut runs: Vec<(DeltaKind, Vec<Atom>)> = Vec::new();
        for (kind, batch) in batches {
            match runs.last_mut() {
                Some((run_kind, facts)) if run_kind == kind => {
                    facts.extend(batch.iter().cloned());
                }
                _ => runs.push((*kind, batch.iter().cloned().collect())),
            }
        }
        let mut delta_facts = 0usize;
        let mut removed_facts = 0usize;
        let mut complete = base.complete;
        let mut null_set = Arc::clone(&base.null_set);
        let mut current: Option<ChaseResult> = None;
        for (kind, facts) in runs {
            let prev: &ChaseResult = current.as_ref().unwrap_or(&base.chased);
            match kind {
                DeltaKind::Insert => {
                    // Count the genuinely new facts (novelty against the
                    // chased state is conservative, same as the pure-insert
                    // path) but seed the chase with the *full* batch: the
                    // graph must record every committed fact as a base
                    // assertion even when it was previously only derived,
                    // or a later retraction could cascade it away.
                    let mut seen = Instance::new();
                    for fact in &facts {
                        if !prev.instance.contains(fact) && seen.insert(fact.clone()) {
                            delta_facts += 1;
                        }
                    }
                    let incremental = chase_incremental(
                        &self.program,
                        prev,
                        &Instance::from_atoms(facts),
                        &config,
                    );
                    complete = complete && incremental.result.is_universal_model();
                    null_set = extend_null_set(&null_set, &incremental.added);
                    current = Some(incremental.result);
                }
                DeltaKind::Delete => {
                    let retracted =
                        chase_retract(&self.program, prev, &Instance::from_atoms(facts), &config);
                    removed_facts += retracted.removed;
                    // A scratch fallback inside the retraction re-chased
                    // the surviving source from nothing, so its own
                    // fixpoint verdict stands alone.
                    complete =
                        (complete || retracted.scratch) && retracted.result.is_universal_model();
                    null_set = if retracted.scratch {
                        Arc::new(retracted.result.instance.nulls())
                    } else {
                        let survivors = &retracted.result.instance;
                        let shrunk = shrink_null_set(null_set, &retracted.removed_facts, survivors);
                        extend_null_set(&shrunk, &retracted.added)
                    };
                    current = Some(retracted.result);
                }
            }
        }
        let result = current?;
        // End-to-end guard, the retraction-aware analogue of the insert
        // path's size check: after replaying the lineage, the surviving
        // base assertions of the derivation graph *are* the source facts
        // the lineage claims — they must match the observed store. The
        // graph keeps the count live.
        let asserted = result.provenance.as_ref()?.base_fact_count();
        if asserted != store.len() {
            return None;
        }
        let materialization = Arc::new(Materialization::new(
            result,
            complete,
            null_set,
            MaterializationMode::Dred {
                from,
                delta_facts,
                removed_facts,
            },
            store.len(),
            start,
        ));
        self.materializations
            .lock()
            .insert(version, Arc::clone(&materialization));
        Some(materialization)
    }
}

/// The single entry point for query answering: classifies the program once
/// at construction, compiles each query into an explicit [`QueryPlan`], and
/// executes plans with a uniform provenance report.
///
/// Cloning a `Planner` is cheap (the state is shared), and every method
/// takes `&self` — a planner can serve any number of threads, which is how
/// the `ontorew-serve` layer uses it.
///
/// ```
/// use ontorew_model::{parse_program, parse_query, Instance};
/// use ontorew_plan::{PlanKind, Planner, StrategyTaken};
///
/// // Linear (FO-rewritable) *and* weakly acyclic: both strategies are
/// // complete, so the plan is hybrid and cost signals decide per execution
/// // (here: narrow fan-out, so the rewriting runs).
/// let program = parse_program("[R1] student(X) -> person(X).").unwrap();
/// let planner = Planner::new(program);
/// let prepared = planner.prepare(&parse_query("q(X) :- person(X)").unwrap());
/// assert_eq!(prepared.plan().kind(), PlanKind::Hybrid);
///
/// let mut store = Instance::new();
/// store.insert_fact("student", &["sara"]);
/// let execution = prepared.execute(&store);
/// assert!(execution.is_exact());
/// assert_eq!(execution.provenance.strategy, StrategyTaken::Rewriting);
/// assert!(execution.answers.contains_constants(&["sara"]));
/// ```
#[derive(Clone)]
pub struct Planner {
    inner: Arc<PlannerShared>,
}

impl Planner {
    /// Build a planner for `program` with default budgets (size-aware
    /// rewriting limits). Runs the full classification once.
    pub fn new(program: TgdProgram) -> Self {
        Planner::with_config(program, PlannerConfig::default())
    }

    /// Build a planner with explicit budgets.
    pub fn with_config(program: TgdProgram, config: PlannerConfig) -> Self {
        let classification = classify(&program);
        let rewrite_config = config
            .rewrite
            .unwrap_or_else(|| RewriteConfig::for_program(&program));
        Planner {
            inner: Arc::new(PlannerShared {
                program,
                classification,
                rewrite_config,
                chase_config: config.chase,
                hybrid_disjunct_cutoff: config.hybrid_disjunct_cutoff,
                small_store_facts: config.small_store_facts,
                materializations: Mutex::new(MaterializationCache::default()),
                landed: Condvar::new(),
                statistics: Mutex::new(StatisticsCache::default()),
            }),
        }
    }

    /// The program this planner answers under.
    pub fn program(&self) -> &TgdProgram {
        &self.inner.program
    }

    /// The classification report (computed once at construction).
    pub fn classification(&self) -> &ClassificationReport {
        &self.inner.classification
    }

    /// The rewriting budgets plans are compiled under.
    pub fn rewrite_config(&self) -> &RewriteConfig {
        &self.inner.rewrite_config
    }

    /// The chase budgets materialization-based plans run under.
    pub fn chase_config(&self) -> &ChaseConfig {
        &self.inner.chase_config
    }

    /// The plan kind the trichotomy alone dictates for this program — what
    /// [`Planner::prepare`] compiles before per-query refinement (a
    /// budget-cut rewriting can still demote `Rewrite` to `BestEffort`, or
    /// an unexpectedly terminating saturation promote `BestEffort` to
    /// `Rewrite`). This is the right summary for system-level reports.
    pub fn plan_kind(&self) -> PlanKind {
        let classification = &self.inner.classification;
        match (
            classification.fo_rewritable(),
            classification.chase_terminates(),
        ) {
            (true, true) => PlanKind::Hybrid,
            (true, false) => PlanKind::Rewrite,
            (false, true) => PlanKind::Chase,
            (false, false) => PlanKind::BestEffort,
        }
    }

    /// Fetch or compute the chase materialization of `store`, cached per
    /// `version` token (callers that mutate data must bump the token —
    /// `ontorew-serve` passes its tenant-tagged epoch). Returns the
    /// materialization and whether it came from the cache. A miss at a
    /// version whose insert lineage was recorded (see
    /// [`Planner::record_delta`]) extends the cached ancestor incrementally
    /// instead of re-chasing the store.
    pub fn materialize(
        &self,
        store: &Instance,
        version: Option<u64>,
    ) -> (Arc<Materialization>, bool) {
        self.inner.materialize(store, version)
    }

    /// A read-only peek (no recency refresh, no computation) at the cached
    /// materialization of `version`, guarded by the observed store size the
    /// same way [`Planner::materialize`]'s lookup is. The serving layer
    /// uses this to report derivation-graph statistics in `STATS` without
    /// forcing a chase.
    pub fn cached_materialization(
        &self,
        version: u64,
        source_facts: usize,
    ) -> Option<Arc<Materialization>> {
        self.inner
            .materializations
            .lock()
            .peek(version, source_facts)
    }

    /// Record that data version `version` was produced from `parent` by
    /// inserting `facts`, with `resulting_facts` total facts afterwards.
    ///
    /// This is the bridge that makes `INSERT → QUERY` O(delta) on
    /// chase-plan programs: the serving layer calls it on every commit, and
    /// the next [`PreparedQuery::execute_versioned`] at `version` finds the
    /// edge, walks the chain back to a cached materialization, and runs
    /// [`chase_incremental`] over the composed batches instead of
    /// re-chasing the store. Recording is bounded (old edges are evicted)
    /// and purely advisory — an unverifiable or missing lineage simply
    /// falls back to the scratch chase.
    pub fn record_delta(&self, parent: u64, version: u64, facts: &[Atom], resulting_facts: usize) {
        self.record_edge(DeltaKind::Insert, parent, version, facts, resulting_facts);
    }

    /// Record that data version `version` was produced from `parent` by
    /// **deleting** `facts`, with `resulting_facts` total facts afterwards.
    ///
    /// The delete counterpart of [`Planner::record_delta`]: a later cache
    /// miss whose lineage contains a delete edge is replayed stage by stage
    /// — insert batches through [`chase_incremental`], delete batches
    /// through [`chase_retract`] (DRed) — instead of re-chasing the store.
    /// DRed needs the cached ancestor's derivation graph, so this only pays
    /// off when the planner's [`ChaseConfig::track_provenance`] is on;
    /// otherwise the lineage is rejected and the next materialization
    /// chases from scratch (still correct, just not incremental).
    pub fn record_retraction(
        &self,
        parent: u64,
        version: u64,
        facts: &[Atom],
        resulting_facts: usize,
    ) {
        self.record_edge(DeltaKind::Delete, parent, version, facts, resulting_facts);
    }

    /// The body of [`Planner::record_delta`] and
    /// [`Planner::record_retraction`].
    fn record_edge(
        &self,
        kind: DeltaKind,
        parent: u64,
        version: u64,
        facts: &[Atom],
        resulting_facts: usize,
    ) {
        // Copy the batch before taking the cache lock; the critical section
        // is then a plain map insert.
        let edge = DeltaEdge {
            parent,
            kind,
            facts: facts.into(),
            resulting_facts,
        };
        self.inner
            .materializations
            .lock()
            .record_delta(parent, version, edge);
    }

    /// Compile `query` into a [`PreparedQuery`] whose plan is chosen from
    /// the classification report plus per-query cost signals (rewriting
    /// fan-out under the size-aware budget, program size, store size at
    /// execution time).
    pub fn prepare(&self, query: &ConjunctiveQuery) -> PreparedQuery {
        let start = Instant::now();
        let classification = &self.inner.classification;
        let classes = {
            let members = classification.member_classes();
            if members.is_empty() {
                "no implemented class applies".to_string()
            } else {
                members.join(", ")
            }
        };
        let fo = classification.fo_rewritable();
        let terminating = classification.chase_terminates();

        let (plan, reason) = if !fo && terminating {
            // Chase territory. When the query is selective enough for a
            // magic-sets/SIP rewrite, chase only the goal-relevant slice of
            // the model instead of materializing all of it.
            match rewrite_goal_driven(&self.inner.program, query) {
                Ok(magic) => (
                    QueryPlan::GoalDriven {
                        magic: Arc::new(magic),
                    },
                    format!(
                        "not known FO-rewritable, but the chase terminates ({classes}) and \
                         the query is selective: goal-driven (magic-sets) restricted chase"
                    ),
                ),
                Err(why) => (
                    QueryPlan::ChaseThenEvaluate {
                        materialized: MaterializationGuarantee::Terminating,
                    },
                    format!(
                        "not known FO-rewritable, but the chase terminates ({classes}): \
                         materialization is sound and complete (goal-driven inadmissible: {why})"
                    ),
                ),
            }
        } else {
            // Rewriting is (or may be) the right strategy: compile it now —
            // the expensive, amortisable step every cached plan shares.
            let rewriting = Arc::new(rewrite(
                &self.inner.program,
                query,
                &self.inner.rewrite_config,
            ));
            match (fo, terminating, rewriting.complete) {
                (true, true, _) => (
                    QueryPlan::Hybrid { rewriting },
                    format!(
                        "FO-rewritable and chase-terminating ({classes}): \
                         cost signals choose per execution"
                    ),
                ),
                (true, false, true) => (
                    QueryPlan::RewriteThenEvaluate { rewriting },
                    format!("FO-rewritable ({classes}): perfect rewriting, AC0 evaluation"),
                ),
                (true, false, false) => (
                    QueryPlan::BestEffort {
                        magic: rewrite_goal_driven(&self.inner.program, query)
                            .ok()
                            .map(Arc::new),
                        rewriting,
                    },
                    format!(
                        "FO-rewritable ({classes}) but the saturation budget was exhausted: \
                         sound approximation"
                    ),
                ),
                (false, false, true) => (
                    QueryPlan::RewriteThenEvaluate { rewriting },
                    "outside every implemented class, yet the saturation reached a fixpoint: \
                     perfect rewriting"
                        .to_string(),
                ),
                (false, false, false) => (
                    QueryPlan::BestEffort {
                        magic: rewrite_goal_driven(&self.inner.program, query)
                            .ok()
                            .map(Arc::new),
                        rewriting,
                    },
                    format!(
                        "{}: bounded rewriting (plus bounded chase on small stores) — \
                         sound approximation",
                        match classification.fo_rewritability_verdict() {
                            ontorew_core::FoRewritabilityVerdict::NotKnownRewritable =>
                                "provably outside WR and every other implemented class",
                            _ => "classification undetermined within budget",
                        }
                    ),
                ),
                (false, true, _) => unreachable!("handled by the chase branch above"),
            }
        };
        global_registry()
            .counter(
                "plan_plans_total",
                "Plans compiled, by chosen kind.",
                &[("kind", plan.kind().label())],
            )
            .inc();
        PreparedQuery {
            shared: Arc::clone(&self.inner),
            query: query.clone(),
            plan,
            reason,
            prepare_us: start.elapsed().as_micros() as u64,
            adorned: Mutex::new(None),
        }
    }

    /// Compile `query` under a *forced* plan kind, bypassing the
    /// classification-driven choice. This is the escape hatch behind the
    /// deprecated `ontorew_obda::Strategy` override and of the tests that
    /// compare plan kinds; the provenance still reports guarantees honestly
    /// (a forced rewrite of a non-terminating saturation is flagged as a
    /// sound approximation).
    ///
    /// Forcing a guarantee-bearing kind (`Rewrite`/`Chase`/`Hybrid`) on an
    /// *unclassifiable* program — neither FO-rewritable nor
    /// chase-terminating, where every strategy is only a bounded
    /// approximation — is a structured [`PlannerError`] instead of a plan
    /// that silently cannot keep its promise; `BestEffort` (the honest kind
    /// for such programs) is always accepted. Forcing `GoalDriven` on a
    /// query the magic-sets rewrite rejects errors with the reason.
    pub fn prepare_forced(
        &self,
        query: &ConjunctiveQuery,
        kind: PlanKind,
    ) -> Result<PreparedQuery, PlannerError> {
        let start = Instant::now();
        let fo = self.inner.classification.fo_rewritable();
        let terminating = self.inner.classification.chase_terminates();
        if !fo && !terminating && kind != PlanKind::BestEffort {
            return Err(PlannerError::UnclassifiableForcedPlan { kind });
        }
        let reason = format!("plan forced to {kind} by the caller");
        let plan = match kind {
            PlanKind::Chase => QueryPlan::ChaseThenEvaluate {
                materialized: if terminating {
                    MaterializationGuarantee::Terminating
                } else {
                    MaterializationGuarantee::Bounded
                },
            },
            PlanKind::GoalDriven => match rewrite_goal_driven(&self.inner.program, query) {
                Ok(magic) => QueryPlan::GoalDriven {
                    magic: Arc::new(magic),
                },
                Err(why) => {
                    return Err(PlannerError::GoalDrivenInadmissible {
                        reason: why.to_string(),
                    })
                }
            },
            PlanKind::Rewrite | PlanKind::Hybrid | PlanKind::BestEffort => {
                let rewriting = Arc::new(rewrite(
                    &self.inner.program,
                    query,
                    &self.inner.rewrite_config,
                ));
                match kind {
                    PlanKind::Rewrite => QueryPlan::RewriteThenEvaluate { rewriting },
                    PlanKind::Hybrid => QueryPlan::Hybrid { rewriting },
                    _ => QueryPlan::BestEffort {
                        magic: rewrite_goal_driven(&self.inner.program, query)
                            .ok()
                            .map(Arc::new),
                        rewriting,
                    },
                }
            }
        };
        Ok(PreparedQuery {
            shared: Arc::clone(&self.inner),
            query: query.clone(),
            plan,
            reason,
            prepare_us: start.elapsed().as_micros() as u64,
            adorned: Mutex::new(None),
        })
    }

    /// Convenience: prepare and execute in one call (no plan reuse, no
    /// materialization caching). Long-lived callers should prepare once and
    /// execute many times instead.
    pub fn answer(&self, query: &ConjunctiveQuery, store: &Instance) -> Execution {
        self.prepare(query).execute(store)
    }
}

impl std::fmt::Debug for Planner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Planner")
            .field("rules", &self.inner.program.len())
            .field("fo_rewritable", &self.inner.classification.fo_rewritable())
            .field(
                "chase_terminates",
                &self.inner.classification.chase_terminates(),
            )
            .finish()
    }
}

/// Why [`Planner::prepare_forced`] refused to compile a plan. The
/// classification-driven [`Planner::prepare`] never fails — it always has
/// an honest fallback; forcing removes the fallback, so the refusal is a
/// structured error rather than a panic or a silently-degraded plan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlannerError {
    /// A guarantee-bearing kind (`Rewrite`/`Chase`/`Hybrid`) was forced on
    /// a program that is neither FO-rewritable nor chase-terminating: no
    /// execution of that plan could keep the kind's guarantee. Use
    /// `BestEffort` (or [`Planner::prepare`]) for such programs.
    UnclassifiableForcedPlan {
        /// The kind the caller tried to force.
        kind: PlanKind,
    },
    /// `GoalDriven` was forced but the magic-sets rewrite rejected the
    /// program/query pair (no guardable rules, no bound constants, or a
    /// reserved-prefix collision).
    GoalDrivenInadmissible {
        /// The admissibility failure, human-readable.
        reason: String,
    },
}

impl std::fmt::Display for PlannerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlannerError::UnclassifiableForcedPlan { kind } => write!(
                f,
                "cannot force a {kind} plan: the program is neither FO-rewritable nor \
                 chase-terminating, so no {kind} execution can guarantee its answers \
                 (use besteffort)"
            ),
            PlannerError::GoalDrivenInadmissible { reason } => {
                write!(f, "cannot force a goal_driven plan: {reason}")
            }
        }
    }
}

impl std::error::Error for PlannerError {}

/// A query compiled against one planner: the plan, the trichotomy reason,
/// and an executor. Prepared queries are immutable and thread-safe — the
/// serving layer caches them behind `Arc`s and executes them concurrently.
pub struct PreparedQuery {
    shared: Arc<PlannerShared>,
    query: ConjunctiveQuery,
    plan: QueryPlan,
    reason: String,
    prepare_us: u64,
    /// The magic program re-adorned under one data version's statistics,
    /// keyed by the identity of the statistics it was built from (the
    /// planner caches one `Arc` per version, so every execution of a
    /// version finds its adornment here). A `Weak` key pins no statistics
    /// the planner has already evicted.
    adorned: Mutex<Option<(Weak<StoreStatistics>, Arc<MagicProgram>)>>,
}

impl PreparedQuery {
    /// The query this plan answers.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The compiled plan.
    pub fn plan(&self) -> &QueryPlan {
        &self.plan
    }

    /// The trichotomy reason behind the plan choice.
    pub fn reason(&self) -> &str {
        &self.reason
    }

    /// Time spent compiling this plan, microseconds.
    pub fn prepare_us(&self) -> u64 {
        self.prepare_us
    }

    /// True when executing this plan is guaranteed to yield exactly the
    /// certain answers on *any* store: a perfect rewriting, a terminating
    /// chase, or a hybrid (which always has at least one of the two to run
    /// — a budget-cut hybrid rewriting falls back to the terminating
    /// materialization at execution time).
    pub fn guarantees_exact(&self) -> bool {
        match &self.plan {
            QueryPlan::RewriteThenEvaluate { rewriting } => rewriting.complete,
            QueryPlan::ChaseThenEvaluate { materialized } => {
                *materialized == MaterializationGuarantee::Terminating
            }
            QueryPlan::Hybrid { rewriting } => {
                rewriting.complete || self.shared.classification.chase_terminates()
            }
            // The goal-driven executor answers from the restricted chase
            // only when that chase reaches a fixpoint (a universal model of
            // the goal-relevant slice) and falls back to the full
            // materialization otherwise — so the plan is exact whenever the
            // full chase is guaranteed to terminate.
            QueryPlan::GoalDriven { .. } => self.shared.classification.chase_terminates(),
            QueryPlan::BestEffort { .. } => false,
        }
    }

    /// A multi-line, human-readable dump of the plan — what the serving
    /// protocol's `EXPLAIN` prints.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("plan: {}\n", self.plan.kind()));
        out.push_str(&format!("query: {}\n", self.query));
        out.push_str(&format!("reason: {}\n", self.reason));
        let classes = self.shared.classification.member_classes();
        out.push_str(&format!(
            "classes: {}\n",
            if classes.is_empty() {
                "(none)".to_string()
            } else {
                classes.join(", ")
            }
        ));
        match &self.plan {
            QueryPlan::ChaseThenEvaluate { materialized } => {
                out.push_str(&format!(
                    "materialization: {} (rounds<={}, facts<={})\n",
                    match materialized {
                        MaterializationGuarantee::Terminating => "terminating chase",
                        MaterializationGuarantee::Bounded => "budget-bounded chase",
                    },
                    self.shared.chase_config.max_rounds,
                    self.shared.chase_config.max_facts
                ));
            }
            QueryPlan::GoalDriven { magic } => {
                for line in magic.dump() {
                    out.push_str(&line);
                    out.push('\n');
                }
            }
            plan => {
                let rewriting = plan.rewriting().expect("non-chase plans carry a rewriting");
                out.push_str(&format!(
                    "rewriting: {} disjuncts ({} ucq + {} grounded), complete={}, \
                     generated={}, depth={}\n",
                    rewriting.len(),
                    rewriting.ucq.len(),
                    rewriting.grounded.len(),
                    rewriting.complete,
                    rewriting.stats.generated,
                    rewriting.stats.depth_reached
                ));
                if matches!(plan, QueryPlan::Hybrid { .. }) {
                    out.push_str(&format!(
                        "hybrid cutoff: prefer materialization above {} disjuncts \
                         when affordable\n",
                        self.shared.hybrid_disjunct_cutoff
                    ));
                }
                if let Some(magic) = plan.magic() {
                    out.push_str(&format!(
                        "best-effort chase: goal-restricted ({} adorned rules, {} seeds)\n",
                        magic.adorned_rules,
                        magic.seeds.len()
                    ));
                }
            }
        }
        out
    }

    /// Like [`PreparedQuery::explain`], but additionally peeks (read-only,
    /// no recency refresh) at the planner's materialization cache for
    /// `version`: when a chase-based execution at this version would hit a
    /// cached materialization, the dump reports how that materialization
    /// was obtained (scratch, incremental, or DRed). It also runs the cost
    /// model over the store's statistics and prints the per-strategy
    /// estimates the executor would decide with.
    pub fn explain_versioned(&self, store: &Instance, version: u64) -> String {
        let mut out = self.explain();
        let cached = self
            .peek(store, Some(version))
            .map(|m| (m.mode, m.complete, m.facts));
        match cached {
            Some((mode, complete, facts)) => out.push_str(&format!(
                "cached materialization: {mode}, complete={complete}, facts={facts}\n"
            )),
            None => out.push_str("cached materialization: (none)\n"),
        }
        match self.shared.store_statistics(store, Some(version)) {
            Some(stats) => {
                let cost = estimate_join_cost(&stats, &self.query.body);
                let generic = if cost.generic_join.is_finite() {
                    format!("{:.0}", cost.generic_join)
                } else {
                    "n/a (acyclic)".to_string()
                };
                out.push_str(&format!(
                    "cost model: join strategy={} backtracking={:.0} generic_join={generic}\n",
                    cost.strategy(),
                    cost.backtracking,
                ));
                out.push_str(&format!(
                    "cost model: estimated rows={:.0}\n",
                    cost.estimated_rows
                ));
                if let Some(rewriting) = self.plan.rewriting() {
                    let rewrite_cost = self.rewriting_cost(rewriting, &stats);
                    let cached = cached.is_some_and(|(_, complete, _)| complete);
                    let materialize_cost =
                        self.materialization_cost(store, Some(version), cached, &stats);
                    out.push_str(&format!(
                        "cost model: rewriting={rewrite_cost:.0} materialization=\
                         {materialize_cost:.0}\n"
                    ));
                }
            }
            None => out.push_str("cost model: (store too large to scan)\n"),
        }
        out
    }

    /// Execute the plan over `store` with no data-version token: chase-based
    /// plans materialize afresh on every call.
    pub fn execute(&self, store: &Instance) -> Execution {
        self.run(store, None)
    }

    /// Execute the plan over `store`, identifying the store's content by
    /// `version`: chase materializations are cached in the planner and
    /// shared across queries and executions of the same version. Callers
    /// must bump the token whenever the data changes (`ontorew-serve` uses
    /// its snapshot epoch, tagged per tenant).
    pub fn execute_versioned(&self, store: &Instance, version: u64) -> Execution {
        self.run(store, Some(version))
    }

    fn run(&self, store: &Instance, version: Option<u64>) -> Execution {
        let start = Instant::now();
        let mut run_span = span("plan.run");
        run_span.attr("kind", self.plan.kind().label());
        let statistics = self.shared.store_statistics(store, version);
        let stats = statistics.as_deref();
        let mut execution = match &self.plan {
            QueryPlan::RewriteThenEvaluate { rewriting } => self.run_rewriting(
                rewriting,
                store,
                stats,
                StrategyTaken::Rewriting,
                self.reason.clone(),
            ),
            QueryPlan::ChaseThenEvaluate { .. } => {
                self.run_materialization(store, version, self.reason.clone())
            }
            QueryPlan::Hybrid { rewriting } => self.run_hybrid(rewriting, store, version, stats),
            QueryPlan::GoalDriven { magic } => {
                self.run_goal_driven(magic, store, version, statistics.as_ref())
            }
            QueryPlan::BestEffort { rewriting, magic } => self.run_best_effort(
                rewriting,
                magic.as_ref(),
                store,
                version,
                statistics.as_ref(),
            ),
        };
        // Estimated vs. actual cardinality of the original query, so EXPLAIN
        // and serialized provenance expose misestimates. The estimate is
        // computed from the *source* store's statistics even for
        // materialization-backed runs — the divergence is the signal.
        if let Some(stats) = stats {
            let cost = estimate_join_cost(stats, &self.query.body);
            execution.provenance.cardinality = Some(CardinalityEstimate {
                strategy: cost.strategy().label().to_string(),
                estimated_rows: cost.estimated_rows.round() as u64,
                actual_rows: execution.answers.len(),
                backtracking_cost: cost.backtracking,
                generic_join_cost: cost.generic_join,
            });
        }
        execution.provenance.timings.total_us = start.elapsed().as_micros() as u64;
        run_span.attr("strategy", format!("{:?}", execution.provenance.strategy));
        run_span.attr("answers", execution.answers.len());
        execution
    }

    fn run_rewriting(
        &self,
        rewriting: &Arc<Rewriting>,
        store: &Instance,
        statistics: Option<&StoreStatistics>,
        strategy: StrategyTaken,
        reason: String,
    ) -> Execution {
        let start = Instant::now();
        let mut eval_span = span("plan.evaluate");
        eval_span.attr("disjuncts", rewriting.len());
        let config = EvalConfig {
            statistics,
            ..EvalConfig::default()
        };
        let answers = evaluate_rewriting_configured(rewriting, &self.query, store, &config);
        drop(eval_span);
        Execution {
            answers,
            provenance: Provenance {
                plan: self.plan.kind(),
                strategy,
                exact: rewriting.complete,
                reason,
                rewriting_disjuncts: Some(rewriting.len()),
                rewriting_complete: Some(rewriting.complete),
                chase: None,
                materialization_cached: None,
                materialization: None,
                goal_driven: None,
                cardinality: None,
                timings: Timings {
                    materialize_us: 0,
                    evaluate_us: start.elapsed().as_micros() as u64,
                    total_us: 0,
                },
            },
        }
    }

    fn run_materialization(
        &self,
        store: &Instance,
        version: Option<u64>,
        reason: String,
    ) -> Execution {
        let (materialization, cached) = self.shared.materialize(store, version);
        let start = Instant::now();
        let eval_span = span("plan.evaluate");
        let answers = certain_answers_over(materialization.instance(), &self.query);
        drop(eval_span);
        Execution {
            answers,
            provenance: Provenance {
                plan: self.plan.kind(),
                strategy: StrategyTaken::Materialization,
                exact: materialization.complete,
                reason,
                rewriting_disjuncts: None,
                rewriting_complete: None,
                chase: Some(materialization.summary()),
                materialization_cached: Some(cached),
                materialization: Some(materialization.mode),
                goal_driven: None,
                cardinality: None,
                timings: Timings {
                    materialize_us: if cached { 0 } else { materialization.micros },
                    evaluate_us: start.elapsed().as_micros() as u64,
                    total_us: 0,
                },
            },
        }
    }

    /// The estimated cost (abstract row-touch units) of evaluating the
    /// rewriting over `store`: per disjunct, the cheaper of the two
    /// simulated join strategies; unions wider than [`UCQ_COST_SAMPLE`] are
    /// sampled and scaled so the decision itself stays cheap.
    fn rewriting_cost(&self, rewriting: &Rewriting, statistics: &StoreStatistics) -> f64 {
        let bodies = rewriting
            .ucq
            .disjuncts
            .iter()
            .map(|q| q.body.as_slice())
            .chain(rewriting.grounded.iter().map(|g| g.body.as_slice()));
        let total = rewriting.ucq.disjuncts.len() + rewriting.grounded.len();
        let mut sampled = 0usize;
        let mut cost = 0.0f64;
        for body in bodies.take(UCQ_COST_SAMPLE) {
            cost += estimate_join_cost(statistics, body).cheapest();
            sampled += 1;
        }
        if sampled > 0 && total > sampled {
            cost *= total as f64 / sampled as f64;
        }
        cost
    }

    /// The estimated cost of the materialization pipeline: chasing the full
    /// model (zero when a matching materialization is already cached) plus
    /// one evaluation of the original query over it.
    fn materialization_cost(
        &self,
        store: &Instance,
        version: Option<u64>,
        cached: bool,
        statistics: &StoreStatistics,
    ) -> f64 {
        let chase = if cached {
            0.0
        } else {
            self.full_model_estimate(store, version) as f64 * CHASE_COST_PER_FACT
        };
        chase + estimate_join_cost(statistics, &self.query.body).cheapest()
    }

    /// The hybrid cost decision, made per execution because the store
    /// contents (and the materialization cache state) are only known now.
    /// An incomplete rewriting always falls back to the terminating
    /// materialization (correctness, not cost). Otherwise both pipelines are
    /// costed by the statistics-fed model — chase units for an uncached
    /// materialization plus one query evaluation, versus the summed
    /// per-disjunct cost of the union — and the cheaper one runs. When the
    /// store is too large to have statistics, the legacy size-threshold
    /// signals decide instead.
    fn run_hybrid(
        &self,
        rewriting: &Arc<Rewriting>,
        store: &Instance,
        version: Option<u64>,
        statistics: Option<&StoreStatistics>,
    ) -> Execution {
        // A read-only peek (no recency refresh): riding the cache is decided
        // here, but the actual use happens in `run_materialization`, which
        // refreshes recency through the normal lookup.
        let cached = self.peek(store, version);
        let materialization_cached = cached.is_some();
        let cached_complete = cached.is_some_and(|m| m.complete);
        if !rewriting.complete {
            return self.run_materialization(
                store,
                version,
                format!(
                    "{}; hybrid chose materialization (rewriting budget exhausted)",
                    self.reason
                ),
            );
        }
        if cached_complete && rewriting.len() > 1 {
            return self.run_materialization(
                store,
                version,
                format!(
                    "{}; hybrid chose materialization (a complete materialization is \
                     already cached)",
                    self.reason
                ),
            );
        }
        if let Some(stats) = statistics {
            let rewrite_cost = self.rewriting_cost(rewriting, stats);
            let materialize_cost =
                self.materialization_cost(store, version, materialization_cached, stats);
            return if materialize_cost < rewrite_cost {
                self.run_materialization(
                    store,
                    version,
                    format!(
                        "{}; hybrid chose materialization (estimated cost {materialize_cost:.0} \
                         vs rewriting {rewrite_cost:.0})",
                        self.reason
                    ),
                )
            } else {
                self.run_rewriting(
                    rewriting,
                    store,
                    statistics,
                    StrategyTaken::Rewriting,
                    format!(
                        "{}; hybrid chose rewriting (estimated cost {rewrite_cost:.0} vs \
                         materialization {materialize_cost:.0})",
                        self.reason
                    ),
                )
            };
        }
        // No statistics (store above the scan bound): legacy size signals.
        let wide_fanout = rewriting.len() > self.shared.hybrid_disjunct_cutoff;
        let affordable = materialization_cached || store.len() <= self.shared.small_store_facts;
        if wide_fanout && affordable {
            self.run_materialization(
                store,
                version,
                format!(
                    "{}; hybrid chose materialization (wide rewriting fan-out and a small \
                     store)",
                    self.reason
                ),
            )
        } else {
            let why = if wide_fanout {
                "materialization not affordable"
            } else {
                "narrow rewriting fan-out"
            };
            self.run_rewriting(
                rewriting,
                store,
                statistics,
                StrategyTaken::Rewriting,
                format!("{}; hybrid chose rewriting ({why})", self.reason),
            )
        }
    }

    /// Chase the magic-restricted program: seed the instance with the
    /// query's demand facts and run the adorned program, deriving only the
    /// goal-relevant slice of the universal model. The caller evaluates the
    /// original query over the result and, when the restricted chase did not
    /// reach a fixpoint, decides the fallback.
    ///
    /// No row of the store is copied: the seeded clone shares the
    /// snapshot's frozen segments (O(#relations + #segments)), the chase's
    /// own working copy shares them again, and the seeds and derived facts
    /// land in per-relation tails. Only an *unfrozen* store (one built in
    /// place and never published) has its tails copied as well.
    fn run_magic_chase(&self, magic: &Arc<MagicProgram>, store: &Instance) -> MagicChase {
        let mut chase_span = span("magic.chase");
        let start = Instant::now();
        let mut instance = store.clone();
        for seed in &magic.seeds {
            instance.insert(seed.clone());
        }
        // Nobody reads a derivation graph of the restricted model: it is
        // thrown away with the result, so it is not recorded.
        let config = self.shared.chase_config.with_provenance(false);
        let result = chase(&magic.program, &instance, &config);
        chase_span.attr("facts", result.instance.len());
        chase_span.attr("rounds", result.rounds);
        chase_span.attr("terminated", result.outcome == ChaseOutcome::Terminated);
        MagicChase {
            derived: result.instance.len().saturating_sub(instance.len()),
            result,
            materialize_us: start.elapsed().as_micros() as u64,
        }
    }

    /// The planner's estimate of how many facts a *full* materialization of
    /// this store would hold: the cached materialization's exact size when
    /// one exists for this data version, otherwise a store-size heuristic.
    fn full_model_estimate(&self, store: &Instance, version: Option<u64>) -> usize {
        self.peek(store, version)
            .map(|m| m.facts)
            .unwrap_or_else(|| store.len().saturating_mul(1 + self.shared.program.len()))
    }

    /// The cached materialization of `store` at `version`, if any, without
    /// refreshing its recency (see `MaterializationCache::peek`).
    fn peek(&self, store: &Instance, version: Option<u64>) -> Option<Arc<Materialization>> {
        let v = version?;
        self.shared.materializations.lock().peek(v, store.len())
    }

    /// The goal-driven plan to chase: the prepared (structurally-adorned)
    /// magic program, unless statistics are available — then the program is
    /// re-adorned with the statistics-backed SIP oracle so demand flows
    /// through the atoms the *data* says are selective. The re-adornment is
    /// made once per statistics object, i.e. once per data version, and
    /// kept in the prepared query's slot; if it is somehow inadmissible (it
    /// never should be when the prepared one was) the prepared program is
    /// kept instead. When the data picks the prepared program's own order,
    /// the slot shares that program rather than holding an equal copy: the
    /// plan cache keeps one slot per cached query, so a second copy would
    /// nearly double what a cached goal-driven plan costs in memory.
    fn statistics_adorned(
        &self,
        magic: &Arc<MagicProgram>,
        statistics: Option<&Arc<StoreStatistics>>,
    ) -> Arc<MagicProgram> {
        let Some(statistics) = statistics else {
            return Arc::clone(magic);
        };
        if let Some((built_from, adorned)) = &*self.adorned.lock() {
            if Weak::as_ptr(built_from) == Arc::as_ptr(statistics) {
                return Arc::clone(adorned);
            }
        }
        let adorned = match rewrite_goal_driven_with(
            &self.shared.program,
            &self.query,
            &StatisticsSipSelectivity { statistics },
        ) {
            Ok(adorned) if adorned != **magic => Arc::new(adorned),
            _ => Arc::clone(magic),
        };
        *self.adorned.lock() = Some((Arc::downgrade(statistics), Arc::clone(&adorned)));
        adorned
    }

    /// Goal-driven execution: chase only the query-relevant slice. Two
    /// escape hatches keep it no worse than the chase plan it replaces —
    /// when a *complete* full materialization of this version is already
    /// cached, one CQ evaluation over it beats re-running even a restricted
    /// chase; and when the restricted chase exhausts its budget the
    /// executor falls back to the full materialization pipeline so the
    /// plan's exactness guarantee survives.
    fn run_goal_driven(
        &self,
        magic: &Arc<MagicProgram>,
        store: &Instance,
        version: Option<u64>,
        statistics: Option<&Arc<StoreStatistics>>,
    ) -> Execution {
        if self.peek(store, version).is_some_and(|m| m.complete) {
            return self.run_materialization(
                store,
                version,
                format!(
                    "{}; a complete materialization is already cached — evaluated over it",
                    self.reason
                ),
            );
        }
        let magic = self.statistics_adorned(magic, statistics);
        let MagicChase {
            result,
            derived: facts_derived,
            materialize_us,
        } = self.run_magic_chase(&magic, store);
        if result.outcome != ChaseOutcome::Terminated {
            return self.run_materialization(
                store,
                version,
                format!(
                    "{}; the restricted chase exhausted its budget — fell back to the full \
                     materialization",
                    self.reason
                ),
            );
        }
        let facts = result.instance.len();
        let nulls = result.instance.nulls().len();
        let start = Instant::now();
        let eval_span = span("plan.evaluate");
        let answers = certain_answers_over(&result.instance, &self.query);
        drop(eval_span);
        Execution {
            answers,
            provenance: Provenance {
                plan: self.plan.kind(),
                strategy: StrategyTaken::GoalDriven,
                // The restricted chase reached a fixpoint: its instance is a
                // universal model of the goal-relevant slice, so evaluating
                // the original query over it yields exactly the certain
                // answers.
                exact: true,
                reason: self.reason.clone(),
                rewriting_disjuncts: None,
                rewriting_complete: None,
                chase: Some(ChaseSummary {
                    facts,
                    nulls,
                    rounds: result.rounds,
                    complete: true,
                }),
                materialization_cached: Some(false),
                materialization: None,
                goal_driven: Some(GoalDrivenSummary {
                    relevant_rules: magic.relevant_rules,
                    adorned_rules: magic.adorned_rules,
                    facts_derived,
                    full_model_estimate: self.full_model_estimate(store, version),
                }),
                cardinality: None,
                timings: Timings {
                    materialize_us,
                    evaluate_us: start.elapsed().as_micros() as u64,
                    total_us: 0,
                },
            },
        }
    }

    /// Best effort for the unclassified case: the bounded rewriting is
    /// always evaluated (sound); then the chase budget is spent where it
    /// counts — on the goal-restricted (magic) program when the query
    /// admits one, else on a full bounded chase when the store is small
    /// enough. Both unions are sound, and if the chase reaches a fixpoint
    /// the combined answers are exact after all.
    fn run_best_effort(
        &self,
        rewriting: &Arc<Rewriting>,
        magic: Option<&Arc<MagicProgram>>,
        store: &Instance,
        version: Option<u64>,
        statistics: Option<&Arc<StoreStatistics>>,
    ) -> Execution {
        let mut execution = self.run_rewriting(
            rewriting,
            store,
            statistics.map(Arc::as_ref),
            StrategyTaken::Rewriting,
            self.reason.clone(),
        );
        if rewriting.complete {
            return execution;
        }
        if let Some(magic) = magic {
            // Spend the chase budget on goal-relevant facts first: the
            // restricted program derives the slice the query can actually
            // see, so the budget goes much further than a full chase would.
            let magic = self.statistics_adorned(magic, statistics);
            let MagicChase {
                result,
                derived: facts_derived,
                materialize_us,
            } = self.run_magic_chase(&magic, store);
            let terminated = result.outcome == ChaseOutcome::Terminated;
            let nulls = result.instance.nulls().len();
            let start = Instant::now();
            let more = certain_answers_over(&result.instance, &self.query);
            execution.answers.merge(more);
            let provenance = &mut execution.provenance;
            provenance.strategy = StrategyTaken::Combined;
            // A terminated restricted chase is a universal model of the
            // goal-relevant slice — the combined answers are exact.
            provenance.exact = terminated;
            if terminated {
                provenance.reason = format!(
                    "{}; the goal-restricted chase reached a fixpoint, so the combined \
                     answers are exact",
                    provenance.reason
                );
            }
            provenance.chase = Some(ChaseSummary {
                facts: result.instance.len(),
                nulls,
                rounds: result.rounds,
                complete: terminated,
            });
            provenance.goal_driven = Some(GoalDrivenSummary {
                relevant_rules: magic.relevant_rules,
                adorned_rules: magic.adorned_rules,
                facts_derived,
                full_model_estimate: self.full_model_estimate(store, version),
            });
            provenance.timings.materialize_us = materialize_us;
            provenance.timings.evaluate_us += start.elapsed().as_micros() as u64;
            return execution;
        }
        if store.len() > self.shared.small_store_facts {
            return execution;
        }
        let (materialization, cached) = self.shared.materialize(store, version);
        let start = Instant::now();
        let more = certain_answers_over(materialization.instance(), &self.query);
        execution.answers.merge(more);
        let provenance = &mut execution.provenance;
        provenance.strategy = StrategyTaken::Combined;
        provenance.exact = materialization.complete;
        if materialization.complete {
            provenance.reason = format!(
                "{}; the bounded chase reached a fixpoint, so the combined answers are exact",
                provenance.reason
            );
        }
        provenance.chase = Some(materialization.summary());
        provenance.materialization_cached = Some(cached);
        provenance.materialization = Some(materialization.mode);
        provenance.timings.materialize_us = if cached { 0 } else { materialization.micros };
        provenance.timings.evaluate_us += start.elapsed().as_micros() as u64;
        execution
    }
}

impl std::fmt::Debug for PreparedQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PreparedQuery")
            .field("query", &format!("{}", self.query))
            .field("plan", &self.plan.kind())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontorew_core::examples::{example1, example2, example2_query, example3};
    use ontorew_model::{parse_program, parse_query};

    /// Example 1 of the paper: SWR (hence FO-rewritable) *and* weakly
    /// acyclic — both guarantees hold, so the trichotomy compiles a hybrid
    /// plan and the executor picks rewriting for its narrow fan-out.
    #[test]
    fn example1_maps_to_a_hybrid_plan() {
        let planner = Planner::new(example1());
        assert!(planner.classification().fo_rewritable());
        assert!(planner.classification().chase_terminates());
        let prepared = planner.prepare(&parse_query("ans(X, Z) :- r(X, Z)").unwrap());
        assert_eq!(prepared.plan().kind(), PlanKind::Hybrid);

        let mut store = Instance::new();
        store.insert_fact("s", &["a", "b", "c"]);
        store.insert_fact("t", &["d"]);
        let execution = prepared.execute(&store);
        assert!(execution.is_exact());
        assert_eq!(execution.provenance.strategy, StrategyTaken::Rewriting);
        assert!(execution.answers.contains_constants(&["a", "c"]));
    }

    /// Example 2: provably outside WR, but weakly acyclic — the only
    /// complete strategy is materialization, and that is the plan.
    #[test]
    fn example2_maps_to_a_chase_plan() {
        let planner = Planner::new(example2());
        assert!(!planner.classification().fo_rewritable());
        assert!(planner.classification().chase_terminates());
        let prepared = planner.prepare(&example2_query());
        assert!(matches!(
            prepared.plan(),
            QueryPlan::ChaseThenEvaluate {
                materialized: MaterializationGuarantee::Terminating
            }
        ));

        let mut store = Instance::new();
        store.insert_fact("s", &["c", "c", "a"]);
        store.insert_fact("t", &["d", "a"]);
        let execution = prepared.execute(&store);
        assert!(execution.is_exact());
        assert_eq!(
            execution.provenance.strategy,
            StrategyTaken::Materialization
        );
        assert!(execution.answers.as_boolean());
        assert!(execution.provenance.reason.contains("chase terminates"));
    }

    /// Example 3: outside every previously known FO-rewritable class yet WR
    /// — rewriting is complete (the paper's separation), and since the
    /// program is also jointly acyclic both guarantees hold.
    #[test]
    fn example3_maps_to_a_hybrid_plan_via_wr() {
        let planner = Planner::new(example3());
        let c = planner.classification();
        assert!(!c.swr.is_swr && c.fo_rewritable(), "WR separates from SWR");
        assert!(c.chase_terminates(), "jointly acyclic");
        let query = parse_query("ans(A, B) :- s(A, A, B)").unwrap();
        let prepared = planner.prepare(&query);
        assert_eq!(prepared.plan().kind(), PlanKind::Hybrid);
        assert!(
            prepared
                .plan()
                .rewriting()
                .expect("hybrid carries a rewriting")
                .complete
        );
    }

    /// A DL-Lite-style ontology with an infinite ancestor chain: rewriting
    /// is the only complete strategy, so the plan is a pure rewrite.
    #[test]
    fn non_terminating_rewritable_ontology_maps_to_a_rewrite_plan() {
        let program = parse_program(
            "[R1] student(X) -> person(X).\n\
             [R2] person(X) -> hasParent(X, Y).\n\
             [R3] hasParent(X, Y) -> person(Y).",
        )
        .unwrap();
        let planner = Planner::new(program);
        assert!(planner.classification().fo_rewritable());
        assert!(!planner.classification().chase_terminates());
        let prepared = planner.prepare(&parse_query("q(X) :- person(X)").unwrap());
        assert_eq!(prepared.plan().kind(), PlanKind::Rewrite);
        let mut store = Instance::new();
        store.insert_fact("student", &["sara"]);
        let execution = prepared.execute(&store);
        assert!(execution.is_exact());
        assert_eq!(execution.answers.len(), 1);
    }

    /// Example 2 plus a rule that breaks weak acyclicity: no guarantee
    /// holds, so the plan is best-effort — and on a small store the executor
    /// unions the bounded chase into the bounded rewriting.
    #[test]
    fn unclassified_program_maps_to_best_effort() {
        let program = parse_program(
            "[R1] t(Y1, Y2), r(Y3, Y4) -> s(Y1, Y3, Y2).\n\
             [R2] s(Y1, Y1, Y2) -> r(Y2, Y3).\n\
             [R3] r(X, Y) -> t(Y, Z).",
        )
        .unwrap();
        let planner = Planner::new(program);
        assert!(!planner.classification().fo_rewritable());
        assert!(!planner.classification().chase_terminates());
        let prepared = planner.prepare(&parse_query(r#"q() :- r("a", X)"#).unwrap());
        assert_eq!(prepared.plan().kind(), PlanKind::BestEffort);

        let mut store = Instance::new();
        store.insert_fact("s", &["c", "c", "a"]);
        store.insert_fact("t", &["d", "a"]);
        let execution = prepared.execute(&store);
        // The derivation r("a", _) needs one R2 application; both the
        // bounded rewriting and the bounded chase find it (soundness), so
        // the answer is certain even though exactness may not be guaranteed.
        assert!(execution.answers.as_boolean());
        assert_eq!(execution.provenance.strategy, StrategyTaken::Combined);
        assert!(execution.provenance.chase.is_some());
    }

    /// The hybrid cost decision is made by the statistics-fed model: on a
    /// cold store, chasing `store × rules` facts costs far more than
    /// evaluating the union (the reason reports both estimates), and the
    /// forced-chase pipeline must agree on the answers. The warm case —
    /// where a cached materialization makes the chase pipeline one CQ
    /// evaluation — is covered by
    /// `cached_materialization_redirects_warm_hybrids`.
    #[test]
    fn hybrid_cost_model_compares_estimated_pipeline_costs() {
        let mut text = String::new();
        for i in 0..400 {
            text.push_str(&format!("[H{i}] sub{i}(X) -> top(X).\n"));
        }
        let program = parse_program(&text).unwrap();
        let query = parse_query("q(X) :- top(X)").unwrap();
        let mut store = Instance::new();
        store.insert_fact("sub3", &["a"]);
        store.insert_fact("sub7", &["b"]);
        store.insert_fact("top", &["c"]);

        let planner = Planner::new(program.clone());
        let prepared = planner.prepare(&query);
        assert_eq!(prepared.plan().kind(), PlanKind::Hybrid);
        assert!(prepared.plan().disjuncts() > 256, "401 disjuncts expected");
        let chosen = prepared.execute(&store);
        // Cold, 3 facts: evaluating 401 indexed point lookups is cheaper
        // than chasing 401 rules — the model must see that and say why.
        assert_eq!(chosen.provenance.strategy, StrategyTaken::Rewriting);
        assert!(
            chosen.provenance.reason.contains("estimated cost"),
            "{}",
            chosen.provenance.reason
        );
        assert!(chosen.is_exact());
        assert_eq!(chosen.answers.len(), 3);
        // The estimate-vs-actual record is attached for EXPLAIN consumers.
        let cardinality = chosen.provenance.cardinality.as_ref().expect("statistics");
        assert_eq!(cardinality.actual_rows, 3);
        assert_eq!(cardinality.strategy, "backtracking");

        // The forced materialization pipeline agrees on the answers.
        let by_chase = planner
            .prepare_forced(&query, PlanKind::Chase)
            .expect("classifiable")
            .execute(&store);
        assert_eq!(by_chase.provenance.strategy, StrategyTaken::Materialization);
        assert_eq!(
            by_chase.answers.iter().collect::<Vec<_>>(),
            chosen.answers.iter().collect::<Vec<_>>()
        );
    }

    /// Once a complete materialization of the current data version is
    /// cached, hybrid plans switch to it: evaluating one CQ over the
    /// universal model beats evaluating a multi-disjunct union.
    #[test]
    fn hybrid_switches_to_a_warm_materialization() {
        let planner = Planner::new(example1());
        let query = parse_query("ans(X, Z) :- r(X, Z)").unwrap();
        let prepared = planner.prepare(&query);
        assert_eq!(prepared.plan().kind(), PlanKind::Hybrid);
        assert!(prepared.plan().disjuncts() > 1);
        let mut store = Instance::new();
        store.insert_fact("s", &["a", "b", "c"]);
        store.insert_fact("t", &["d"]);

        // Cold: narrow fan-out, no materialization — rewriting runs.
        let cold = prepared.execute_versioned(&store, 3);
        assert_eq!(cold.provenance.strategy, StrategyTaken::Rewriting);
        // Materialize the same version (as a chase-plan query would), and
        // the hybrid executor now rides the cached universal model.
        let (materialization, _) = planner.materialize(&store, Some(3));
        assert!(materialization.complete);
        let warm = prepared.execute_versioned(&store, 3);
        assert_eq!(warm.provenance.strategy, StrategyTaken::Materialization);
        assert!(warm.is_exact());
        assert_eq!(warm.provenance.materialization_cached, Some(true));
        assert!(warm.provenance.reason.contains("already cached"));
        assert_eq!(
            warm.answers.iter().collect::<Vec<_>>(),
            cold.answers.iter().collect::<Vec<_>>()
        );
        // Unversioned executions still pick the rewriting (no cache to ride).
        let unversioned = prepared.execute(&store);
        assert_eq!(unversioned.provenance.strategy, StrategyTaken::Rewriting);
    }

    /// Versioned executions share one chase materialization per version;
    /// bumping the version recomputes.
    #[test]
    fn materializations_are_cached_per_version() {
        let planner = Planner::new(example2());
        let prepared = planner.prepare(&example2_query());
        let mut store = Instance::new();
        store.insert_fact("s", &["c", "c", "a"]);
        store.insert_fact("t", &["d", "a"]);

        let first = prepared.execute_versioned(&store, 7);
        assert_eq!(first.provenance.materialization_cached, Some(false));
        let second = prepared.execute_versioned(&store, 7);
        assert_eq!(second.provenance.materialization_cached, Some(true));
        assert_eq!(second.provenance.timings.materialize_us, 0);
        // Another query against the same version also hits the shared cache.
        let other = planner.prepare(&parse_query("p() :- s(X, Y, Z)").unwrap());
        let reused = other.execute_versioned(&store, 7);
        assert_eq!(reused.provenance.materialization_cached, Some(true));

        store.insert_fact("t", &["d2", "c"]);
        let bumped = prepared.execute_versioned(&store, 8);
        assert_eq!(bumped.provenance.materialization_cached, Some(false));
    }

    /// Materialization eviction is least-recently-used, not
    /// smallest-version — tenant-tagged versions must not starve the
    /// lowest-tagged tenant.
    #[test]
    fn materialization_eviction_is_lru_not_lowest_version() {
        let planner = Planner::new(example2());
        let mut store = Instance::new();
        store.insert_fact("t", &["d", "a"]);
        // Fill the 4-slot cache with versions 10, 20, 30, 40.
        for v in [10, 20, 30, 40] {
            assert!(!planner.materialize(&store, Some(v)).1);
        }
        // Touch the *lowest* version so it is the most recently used...
        assert!(planner.materialize(&store, Some(10)).1);
        // ...then overflow: the LRU victim must be 20, not 10.
        assert!(!planner.materialize(&store, Some(50)).1);
        assert!(
            planner.materialize(&store, Some(10)).1,
            "the recently-touched lowest version must survive"
        );
        assert!(
            !planner.materialize(&store, Some(20)).1,
            "the least-recently-used version is the victim"
        );
    }

    /// A hybrid plan whose rewriting was budget-cut still *guarantees*
    /// exactness (execution falls back to the terminating chase), and
    /// PREPARE-time and QUERY-time exactness must not contradict.
    #[test]
    fn budget_cut_hybrid_remains_exact() {
        let mut text = String::new();
        for i in 0..40 {
            text.push_str(&format!("[H{i}] sub{i}(X) -> top(X).\n"));
        }
        let program = parse_program(&text).unwrap();
        let planner = Planner::with_config(
            program,
            PlannerConfig {
                // Far too small for the 41-disjunct perfect rewriting.
                rewrite: Some(RewriteConfig::default().with_max_queries(3)),
                ..PlannerConfig::default()
            },
        );
        let prepared = planner.prepare(&parse_query("q(X) :- top(X)").unwrap());
        assert_eq!(prepared.plan().kind(), PlanKind::Hybrid);
        assert!(!prepared.plan().rewriting().unwrap().complete);
        assert!(prepared.guarantees_exact(), "chase fallback is exact");
        let mut store = Instance::new();
        store.insert_fact("sub7", &["a"]);
        let execution = prepared.execute(&store);
        assert_eq!(
            execution.provenance.strategy,
            StrategyTaken::Materialization
        );
        assert!(execution.is_exact());
        assert_eq!(execution.answers.len(), 1);
    }

    /// A recorded insert delta lets a cache miss extend the previous
    /// version's materialization incrementally — and the answers must equal
    /// the scratch chase's.
    #[test]
    fn recorded_deltas_enable_incremental_materialization() {
        let planner = Planner::new(example2());
        let prepared = planner.prepare(&example2_query());
        let mut store = Instance::new();
        store.insert_fact("t", &["d", "a"]);

        let cold = prepared.execute_versioned(&store, 1);
        assert_eq!(
            cold.provenance.materialization,
            Some(MaterializationMode::Scratch)
        );
        assert!(!cold.answers.as_boolean());

        // Commit a batch, record the edge, query the new version.
        let batch = vec![Atom::fact("s", &["c", "c", "a"])];
        for fact in &batch {
            store.insert(fact.clone());
        }
        planner.record_delta(1, 2, &batch, store.len());
        let warm = prepared.execute_versioned(&store, 2);
        assert_eq!(
            warm.provenance.materialization,
            Some(MaterializationMode::Incremental {
                from: 1,
                delta_facts: 1
            })
        );
        assert!(warm.is_exact(), "complete base + terminated continuation");
        assert!(warm.answers.as_boolean(), "s + t now derive r(a, _)");

        // Scratch ground truth on a fresh planner.
        let scratch = Planner::new(example2())
            .prepare(&example2_query())
            .execute(&store);
        assert_eq!(
            warm.answers.iter().collect::<Vec<_>>(),
            scratch.answers.iter().collect::<Vec<_>>()
        );
    }

    /// Delta chains compose: several commits between queries are walked
    /// back to the cached ancestor in one incremental extension.
    #[test]
    fn delta_chains_compose_across_multiple_commits() {
        let planner = Planner::new(example2());
        let prepared = planner.prepare(&parse_query("p() :- s(X, Y, Z)").unwrap());
        let mut store = Instance::new();
        store.insert_fact("t", &["d", "a"]);
        let _ = prepared.execute_versioned(&store, 10);

        let mut version = 10;
        for i in 0..3 {
            let batch = vec![Atom::fact("t", &[&format!("d{i}"), "a"])];
            for fact in &batch {
                store.insert(fact.clone());
            }
            planner.record_delta(version, version + 1, &batch, store.len());
            version += 1;
        }
        // No query ran at versions 11 and 12: the miss at 13 composes all
        // three edges back to the materialization of version 10.
        let execution = prepared.execute_versioned(&store, version);
        assert_eq!(
            execution.provenance.materialization,
            Some(MaterializationMode::Incremental {
                from: 10,
                delta_facts: 3
            })
        );
        // And the extended version is itself cached now.
        let again = prepared.execute_versioned(&store, version);
        assert_eq!(again.provenance.materialization_cached, Some(true));
    }

    /// A provenance-tracking planner: what the serving layer runs so DRed
    /// retraction and WHY walks have a derivation graph to work with.
    fn provenance_config() -> PlannerConfig {
        PlannerConfig {
            chase: ChaseConfig::default().with_provenance(true),
            ..PlannerConfig::default()
        }
    }

    /// A recorded delete edge lets a cache miss repair the previous
    /// version's materialization with DRed instead of re-chasing — and the
    /// answers must equal a scratch chase of the shrunken store.
    #[test]
    fn recorded_retractions_enable_dred_materialization() {
        let planner = Planner::with_config(example2(), provenance_config());
        let prepared = planner.prepare(&example2_query());
        let mut store = Instance::new();
        store.insert_fact("s", &["c", "c", "a"]);
        store.insert_fact("t", &["d", "a"]);
        let cold = prepared.execute_versioned(&store, 1);
        assert_eq!(
            cold.provenance.materialization,
            Some(MaterializationMode::Scratch)
        );
        assert!(cold.answers.as_boolean(), "s + t derive r(a, _)");

        // Retract the s fact: the derived r atom (and everything chased
        // from it) loses its only support.
        let removed = vec![Atom::fact("s", &["c", "c", "a"])];
        store.remove(&removed[0]);
        planner.record_retraction(1, 2, &removed, store.len());
        let warm = prepared.execute_versioned(&store, 2);
        assert!(
            matches!(
                warm.provenance.materialization,
                Some(MaterializationMode::Dred {
                    from: 1,
                    delta_facts: 0,
                    removed_facts,
                }) if removed_facts >= 1
            ),
            "{:?}",
            warm.provenance.materialization
        );
        assert!(warm.is_exact());
        assert!(!warm.answers.as_boolean(), "the derivation is gone");

        let scratch = Planner::new(example2())
            .prepare(&example2_query())
            .execute(&store);
        assert_eq!(
            warm.answers.iter().collect::<Vec<_>>(),
            scratch.answers.iter().collect::<Vec<_>>()
        );
    }

    /// Without provenance tracking there is no derivation graph to retract
    /// over: the delete lineage is rejected and the planner re-chases from
    /// scratch — correct, just not incremental.
    #[test]
    fn retraction_without_provenance_falls_back_to_scratch() {
        let planner = Planner::new(example2());
        let prepared = planner.prepare(&example2_query());
        let mut store = Instance::new();
        store.insert_fact("s", &["c", "c", "a"]);
        store.insert_fact("t", &["d", "a"]);
        let _ = prepared.execute_versioned(&store, 1);

        let removed = vec![Atom::fact("s", &["c", "c", "a"])];
        store.remove(&removed[0]);
        planner.record_retraction(1, 2, &removed, store.len());
        let execution = prepared.execute_versioned(&store, 2);
        assert_eq!(
            execution.provenance.materialization,
            Some(MaterializationMode::Scratch)
        );
        assert!(!execution.answers.as_boolean());
    }

    /// Insert and delete edges interleave in one lineage: the replay runs
    /// the incremental chase and DRed stage by stage and lands on the same
    /// answers as a scratch chase of the final store.
    #[test]
    fn mixed_insert_delete_lineage_composes() {
        let planner = Planner::with_config(example2(), provenance_config());
        let prepared = planner.prepare(&example2_query());
        let mut store = Instance::new();
        store.insert_fact("t", &["d", "a"]);
        let _ = prepared.execute_versioned(&store, 1);

        let inserted_s = vec![Atom::fact("s", &["c", "c", "a"])];
        store.insert(inserted_s[0].clone());
        planner.record_delta(1, 2, &inserted_s, store.len());
        let inserted_t = vec![Atom::fact("t", &["e", "a"])];
        store.insert(inserted_t[0].clone());
        planner.record_delta(2, 3, &inserted_t, store.len());
        store.remove(&inserted_s[0]);
        planner.record_retraction(3, 4, &inserted_s, store.len());

        // No query ran at versions 2 and 3: the miss at 4 replays all
        // three edges (insert, insert, delete) from the version-1 base.
        let execution = prepared.execute_versioned(&store, 4);
        assert!(
            matches!(
                execution.provenance.materialization,
                Some(MaterializationMode::Dred {
                    from: 1,
                    delta_facts: 2,
                    ..
                })
            ),
            "{:?}",
            execution.provenance.materialization
        );
        assert!(!execution.answers.as_boolean(), "the s fact is gone again");
        let scratch = Planner::new(example2())
            .prepare(&example2_query())
            .execute(&store);
        assert_eq!(
            execution.answers.iter().collect::<Vec<_>>(),
            scratch.answers.iter().collect::<Vec<_>>()
        );
        // And the repaired version is itself cached now.
        let again = prepared.execute_versioned(&store, 4);
        assert_eq!(again.provenance.materialization_cached, Some(true));
    }

    /// The versioned explain peeks at the cache and reports the mode of
    /// the materialization a chase execution at this version would hit.
    #[test]
    fn versioned_explain_reports_the_cached_mode() {
        let planner = Planner::new(example2());
        let prepared = planner.prepare(&example2_query());
        let mut store = Instance::new();
        store.insert_fact("t", &["d", "a"]);
        assert!(prepared
            .explain_versioned(&store, 5)
            .contains("cached materialization: (none)"));
        let _ = prepared.execute_versioned(&store, 5);
        let explain = prepared.explain_versioned(&store, 5);
        assert!(
            explain.contains("cached materialization: scratch"),
            "{explain}"
        );
    }

    /// A continuation can propagate *base* nulls into newly derived facts;
    /// the incremental null count must not double-count them.
    #[test]
    fn incremental_null_count_is_exact_when_base_nulls_propagate() {
        let program = parse_program(
            "[R1] person(X) -> hasParent(X, N).\n\
             [R2] hasParent(X, P), vip(X) -> q(P).",
        )
        .unwrap();
        let planner = Planner::new(program);
        let mut store = Instance::new();
        store.insert_fact("person", &["alice"]);
        let (base, _) = planner.materialize(&store, Some(1));
        assert_eq!(base.nulls, 1, "hasParent(alice, n1)");

        let batch = vec![Atom::fact("vip", &["alice"])];
        store.insert(batch[0].clone());
        planner.record_delta(1, 2, &batch, store.len());
        let (extended, _) = planner.materialize(&store, Some(2));
        assert_eq!(
            extended.mode,
            MaterializationMode::Incremental {
                from: 1,
                delta_facts: 1
            }
        );
        // The continuation derives q(n1), re-using the base's null: still
        // exactly one distinct null, both in the stat and in the store.
        assert_eq!(extended.nulls, 1);
        assert_eq!(extended.nulls, extended.instance().nulls().len());
    }

    /// The DRed replay maintains the null set by the delta in both
    /// directions: a retraction that re-fires an existential trigger adds
    /// the invented null, and one that removes the last fact mentioning a
    /// null drops it — no rescan of the instance, same count as one.
    #[test]
    fn dred_null_count_follows_the_delta() {
        let program = parse_program("[R1] person(X) -> hasParent(X, N).").unwrap();
        let planner = Planner::with_config(program, provenance_config());
        let mut store = Instance::new();
        store.insert_fact("person", &["alice"]);
        store.insert_fact("person", &["bob"]);
        store.insert_fact("hasParent", &["alice", "zoe"]);
        let (base, _) = planner.materialize(&store, Some(1));
        assert_eq!(base.nulls, 1, "only bob needs an invented parent");

        // Withdrawing alice's witness re-fires her trigger: one more null.
        let witness = vec![Atom::fact("hasParent", &["alice", "zoe"])];
        store.remove(&witness[0]);
        planner.record_retraction(1, 2, &witness, store.len());
        let (refired, _) = planner.materialize(&store, Some(2));
        assert!(matches!(refired.mode, MaterializationMode::Dred { .. }));
        assert_eq!(refired.nulls, 2);
        assert_eq!(refired.nulls, refired.instance().nulls().len());

        // Removing bob takes his invented parent — and its null — along.
        let bob = vec![Atom::fact("person", &["bob"])];
        store.remove(&bob[0]);
        planner.record_retraction(2, 3, &bob, store.len());
        let (shrunk, _) = planner.materialize(&store, Some(3));
        assert!(matches!(shrunk.mode, MaterializationMode::Dred { .. }));
        assert_eq!(shrunk.nulls, 1);
        assert_eq!(shrunk.nulls, shrunk.instance().nulls().len());
    }

    /// A lineage that does not reproduce the observed store (wrong
    /// resulting size) is rejected and the planner re-chases from scratch.
    #[test]
    fn invalid_delta_lineage_falls_back_to_scratch() {
        let planner = Planner::new(example2());
        let prepared = planner.prepare(&example2_query());
        let mut store = Instance::new();
        store.insert_fact("t", &["d", "a"]);
        let _ = prepared.execute_versioned(&store, 1);

        // The recorded batch claims one new fact, but the store actually
        // grew by two (a second fact slipped in without being recorded).
        let batch = vec![Atom::fact("s", &["c", "c", "a"])];
        store.insert(batch[0].clone());
        store.insert_fact("t", &["d2", "c"]);
        planner.record_delta(1, 2, &batch, store.len() - 1);
        let execution = prepared.execute_versioned(&store, 2);
        assert_eq!(
            execution.provenance.materialization,
            Some(MaterializationMode::Scratch),
            "mismatched lineage must not be extended"
        );
        assert!(execution.answers.as_boolean());
    }

    /// A stale version token (same number, different data) is detected by
    /// the source-size guard instead of serving wrong answers.
    #[test]
    fn version_token_misuse_recomputes_instead_of_serving_stale_data() {
        let planner = Planner::new(example2());
        let prepared = planner.prepare(&example2_query());
        let mut store = Instance::new();
        store.insert_fact("t", &["d", "a"]);
        assert!(!prepared.execute_versioned(&store, 1).answers.as_boolean());
        store.insert_fact("s", &["c", "c", "a"]);
        // Same (wrong) token, new data: the guard forces a fresh chase.
        let execution = prepared.execute_versioned(&store, 1);
        assert_eq!(execution.provenance.materialization_cached, Some(false));
        assert!(execution.answers.as_boolean());
    }

    /// Forced plans bypass the trichotomy but keep the provenance honest.
    #[test]
    fn forced_plans_report_their_guarantees_honestly() {
        // Forcing the chase on a non-terminating ontology: bounded, sound,
        // not exact.
        let program = parse_program(
            "[R1] person(X) -> hasParent(X, Y).\n\
             [R2] hasParent(X, Y) -> person(Y).",
        )
        .unwrap();
        let planner = Planner::new(program);
        let query = parse_query("q(X) :- person(X)").unwrap();
        let forced = planner.prepare_forced(&query, PlanKind::Chase).unwrap();
        assert!(matches!(
            forced.plan(),
            QueryPlan::ChaseThenEvaluate {
                materialized: MaterializationGuarantee::Bounded
            }
        ));
        let mut store = Instance::new();
        store.insert_fact("person", &["alice"]);
        let execution = forced.execute(&store);
        assert!(!execution.is_exact(), "bounded chase is an approximation");
        assert!(execution.answers.contains_constants(&["alice"]));
        // Forcing the rewriting on the same ontology is complete (linear).
        let rewritten = planner
            .prepare_forced(&query, PlanKind::Rewrite)
            .unwrap()
            .execute(&store);
        assert!(rewritten.is_exact());
        assert!(execution.provenance.reason.contains("forced"));

        // Example 2: the rewriting diverges, so a forced rewrite is cut at
        // its budget and not exact, while the planner's chase plan is.
        let planner = Planner::new(example2());
        let mut store = Instance::new();
        store.insert_fact("s", &["c", "c", "a"]);
        store.insert_fact("t", &["d", "a"]);
        let forced = planner
            .prepare_forced(&example2_query(), PlanKind::Rewrite)
            .unwrap()
            .execute(&store);
        assert!(!forced.is_exact(), "a cut rewriting is an approximation");
        let chosen = planner.prepare(&example2_query()).execute(&store);
        assert_eq!(chosen.provenance.plan, PlanKind::Chase);
        assert!(chosen.is_exact() && chosen.answers.as_boolean());
    }

    /// The explain dump names the plan, the reason and the cost artifacts.
    #[test]
    fn explain_dumps_the_plan() {
        let planner = Planner::new(example1());
        let prepared = planner.prepare(&parse_query("ans(X, Z) :- r(X, Z)").unwrap());
        let explain = prepared.explain();
        assert!(explain.contains("plan: hybrid"), "{explain}");
        assert!(explain.contains("reason:"), "{explain}");
        assert!(explain.contains("rewriting:"), "{explain}");
        assert!(explain.contains("classes:"), "{explain}");

        let chase_plan = Planner::new(example2()).prepare(&example2_query());
        let explain = chase_plan.explain();
        assert!(explain.contains("plan: chase"), "{explain}");
        assert!(
            explain.contains("materialization: terminating chase"),
            "{explain}"
        );
    }

    /// The registrar suite is chase territory (Datalog transitive closure:
    /// not FO-rewritable, weakly acyclic), and its selective query binds a
    /// constant over a guardable predicate — the planner picks the
    /// goal-driven pipeline and its restricted chase answers exactly like
    /// the full materialization, deriving far fewer facts.
    #[test]
    fn registrar_selective_query_maps_to_a_goal_driven_plan() {
        let planner = Planner::new(ontorew_workloads::registrar_ontology());
        assert!(!planner.classification().fo_rewritable());
        assert!(planner.classification().chase_terminates());
        let queries = ontorew_workloads::registrar_queries();
        let selective = &queries[0];
        let broad = &queries[1];

        let prepared = planner.prepare(selective);
        assert_eq!(prepared.plan().kind(), PlanKind::GoalDriven);
        assert!(prepared.guarantees_exact());

        let store = ontorew_workloads::registrar_abox(200, 8, 5);
        let execution = prepared.execute(&store);
        assert_eq!(execution.provenance.strategy, StrategyTaken::GoalDriven);
        assert!(execution.is_exact());
        let full = planner
            .prepare_forced(selective, PlanKind::Chase)
            .unwrap()
            .execute(&store);
        assert_eq!(execution.answers, full.answers);
        let summary = execution.provenance.goal_driven.expect("summary reported");
        assert!(summary.relevant_rules >= 3);
        assert!(summary.adorned_rules >= 2);
        assert!(
            summary.facts_derived < full.provenance.chase.unwrap().facts,
            "the restricted chase derives a strict subset of the model"
        );

        // The broad scan binds no constants: inadmissible, fall back to the
        // plain chase plan with the reason recorded.
        let broad_plan = planner.prepare(broad);
        assert_eq!(broad_plan.plan().kind(), PlanKind::Chase);
        assert!(
            broad_plan.explain().contains("goal-driven inadmissible"),
            "{}",
            broad_plan.explain()
        );
    }

    /// `facts_derived` counts what the restricted chase added — neither the
    /// store it started from nor the demand seeds — while the chase summary
    /// keeps counting the whole restricted instance.
    #[test]
    fn goal_driven_summary_counts_only_derived_facts() {
        let planner = Planner::new(ontorew_workloads::registrar_ontology());
        let query = parse_query("q(P) :- mustComplete(\"student3\", P)").unwrap();
        let prepared = planner.prepare(&query);
        let QueryPlan::GoalDriven { magic } = prepared.plan() else {
            panic!("selective registrar queries are goal-driven");
        };
        let seeds = magic.seeds.len();
        let store = ontorew_workloads::registrar_abox(16, 4, 5);
        let execution = prepared.execute(&store);
        assert_eq!(execution.provenance.strategy, StrategyTaken::GoalDriven);
        let chase = execution.provenance.chase.expect("chase summary");
        let summary = execution
            .provenance
            .goal_driven
            .expect("goal-driven summary");
        assert_eq!(chase.facts, store.len() + seeds + summary.facts_derived);
        assert_eq!(
            (store.len(), seeds, chase.facts, summary.facts_derived),
            (33, 1, 44, 10)
        );
    }

    /// When the data picks the prepared program's own SIP order, the
    /// statistics slot shares that program instead of holding a copy.
    #[test]
    fn an_adornment_equal_to_the_prepared_program_is_shared() {
        let planner = Planner::new(ontorew_workloads::registrar_ontology());
        let prepared = planner.prepare(&ontorew_workloads::registrar_queries()[0]);
        let store = ontorew_workloads::registrar_abox(200, 8, 5);
        let execution = prepared.execute(&store);
        assert_eq!(execution.provenance.strategy, StrategyTaken::GoalDriven);
        let QueryPlan::GoalDriven { magic } = prepared.plan() else {
            panic!("expected a goal-driven plan");
        };
        let slot = prepared.adorned.lock();
        let (_, adorned) = slot.as_ref().expect("the execution adorned the program");
        assert!(Arc::ptr_eq(adorned, magic));
    }

    /// The restricted model of a goal-driven execution is thrown away with
    /// the reply, so even a provenance-tracking planner (what the server
    /// runs) must not record a derivation graph for it — and the answers
    /// still equal the full chase's.
    #[test]
    fn goal_driven_executions_record_no_provenance() {
        let planner =
            Planner::with_config(ontorew_workloads::registrar_ontology(), provenance_config());
        assert!(planner.chase_config().track_provenance);
        let selective = &ontorew_workloads::registrar_queries()[0];
        let prepared = planner.prepare(selective);
        let store = ontorew_workloads::registrar_abox(200, 8, 5);
        let QueryPlan::GoalDriven { magic } = prepared.plan() else {
            panic!("selective registrar queries are goal-driven");
        };
        let restricted = prepared.run_magic_chase(magic, &store).result;
        assert!(restricted.is_universal_model());
        assert!(restricted.provenance.is_none());

        let execution = prepared.execute(&store);
        assert_eq!(execution.provenance.strategy, StrategyTaken::GoalDriven);
        let full = planner
            .prepare_forced(selective, PlanKind::Chase)
            .unwrap()
            .execute(&store);
        assert_eq!(execution.answers, full.answers);
        // The full materialization of the same planner does record one.
        assert!(planner.materialize(&store, None).0.provenance().is_some());
    }

    /// A goal-driven execution over a frozen snapshot copies none of its
    /// rows: the restricted chase starts from the snapshot's own segments,
    /// writes only into tails, and leaves every relation of the snapshot
    /// exactly as it was — with the full chase's answers.
    #[test]
    fn goal_driven_executions_share_the_frozen_snapshot() {
        let planner = Planner::new(ontorew_workloads::registrar_ontology());
        let selective = &ontorew_workloads::registrar_queries()[0];
        let prepared = planner.prepare(selective);
        let mut store = ontorew_workloads::registrar_abox(300, 8, 5);
        store.freeze();
        let before = store.clone();

        let QueryPlan::GoalDriven { magic } = prepared.plan() else {
            panic!("selective registrar queries are goal-driven");
        };
        let restricted = prepared.run_magic_chase(magic, &store).result;
        assert!(restricted.is_universal_model());
        assert!(restricted.instance.len() > store.len());
        for p in store.predicates() {
            let rel = store.relation(p).unwrap();
            let chased = restricted.instance.relation(p).unwrap();
            assert!(chased.shares_segments_with(rel), "{p} was copied");
        }

        let execution = prepared.execute_versioned(&store, 7);
        assert_eq!(execution.provenance.strategy, StrategyTaken::GoalDriven);
        let full = planner
            .prepare_forced(selective, PlanKind::Chase)
            .unwrap()
            .execute(&store);
        assert_eq!(execution.answers, full.answers);
        assert_eq!(store.len(), before.len());
        for p in before.predicates() {
            let (now, then) = (store.relation(p).unwrap(), before.relation(p).unwrap());
            assert_eq!(now.len(), then.len(), "{p} changed size");
            assert_eq!(now.segment_count(), then.segment_count(), "{p}");
            assert!(now.shares_segments_with(then), "{p} lost its segments");
        }
    }

    /// 200 one-fact commits, each followed by a materialization: every
    /// cached version continues the first one's derivation graph without
    /// copying it, the layer stack stays logarithmic, and the footprint of
    /// the cached versions grows with the commits — not with commits ×
    /// model.
    #[test]
    fn one_fact_commits_share_the_model_across_cached_versions() {
        let planner =
            Planner::with_config(ontorew_workloads::registrar_ontology(), provenance_config());
        let mut store = ontorew_workloads::registrar_abox(400, 8, 5);
        let (first, _) = planner.materialize(&store, Some(0));
        let model = first.provenance().unwrap();
        let model_bytes = model.bytes_estimate();
        // Logical bytes summed over the versions currently cached.
        let cached_bytes = |latest: u64, store: &Instance| -> usize {
            (0..MATERIALIZATION_CACHE_VERSIONS as u64)
                .filter_map(|back| latest.checked_sub(back))
                .filter_map(|v| {
                    planner.cached_materialization(v, store.len() - (latest - v) as usize)
                })
                .map(|m| m.provenance().unwrap().bytes_estimate())
                .sum()
        };
        let mut after_warm_up = 0;
        for commit in 1..=200u64 {
            let fact = Atom::fact("enrolled", &[&format!("newcomer{commit}"), "course3"]);
            assert!(store.insert(fact.clone()));
            planner.record_delta(commit - 1, commit, &[fact], store.len());
            let (materialization, cached) = planner.materialize(&store, Some(commit));
            assert!(!cached);
            assert!(matches!(
                materialization.mode,
                MaterializationMode::Incremental { delta_facts: 1, .. }
            ));
            let graph = materialization.provenance().unwrap();
            assert!(
                graph.shares_layers_with(model),
                "commit {commit} copied the model"
            );
            assert!(graph.layer_count() <= 10, "{} layers", graph.layer_count());
            assert_eq!(graph.node_count(), materialization.facts);
            assert_eq!(graph.base_fact_count(), store.len());
            if commit == 8 {
                after_warm_up = cached_bytes(commit, &store);
            }
        }
        let growth = cached_bytes(200, &store) - after_warm_up;
        // Each commit adds an enrollment, a student and ~4 obligations to
        // each of the (at most four) cached graphs: a few KB per commit.
        assert!(growth < 192 * 4 * 4096, "grew {growth} bytes");
        assert!(
            growth < 4 * model_bytes,
            "grew {growth} vs model {model_bytes}"
        );
    }

    /// The goal-driven `EXPLAIN` dumps the adorned program: seeds, magic
    /// rules and guarded copies.
    #[test]
    fn goal_driven_explain_dumps_the_adorned_program() {
        let planner = Planner::new(ontorew_workloads::registrar_ontology());
        let prepared = planner.prepare(&ontorew_workloads::registrar_queries()[0]);
        let explain = prepared.explain();
        assert!(explain.contains("plan: goal_driven"), "{explain}");
        assert!(explain.contains("adorned program:"), "{explain}");
        assert!(
            explain.contains("seed: magic_mustComplete_bf(\"student42\")"),
            "{explain}"
        );
        assert!(explain.contains("G5@bf"), "{explain}");
    }

    /// Forcing a guarantee-bearing kind on an unclassifiable program is a
    /// structured error, not a panic or a silently degraded plan;
    /// `BestEffort` (the honest kind) is always accepted.
    #[test]
    fn forcing_plans_on_unclassifiable_programs_is_a_structured_error() {
        let program = parse_program(
            "[R1] t(Y1, Y2), r(Y3, Y4) -> s(Y1, Y3, Y2).\n\
             [R2] s(Y1, Y1, Y2) -> r(Y2, Y3).\n\
             [R3] r(X, Y) -> t(Y, Z).",
        )
        .unwrap();
        let planner = Planner::new(program);
        assert!(!planner.classification().fo_rewritable());
        assert!(!planner.classification().chase_terminates());
        let query = parse_query(r#"q() :- r("a", X)"#).unwrap();
        for kind in [PlanKind::Rewrite, PlanKind::Chase, PlanKind::Hybrid] {
            match planner.prepare_forced(&query, kind) {
                Err(PlannerError::UnclassifiableForcedPlan { kind: k }) => assert_eq!(k, kind),
                other => panic!("expected UnclassifiableForcedPlan, got {other:?}"),
            }
        }
        let err = planner.prepare_forced(&query, PlanKind::Chase).unwrap_err();
        assert!(err.to_string().contains("neither FO-rewritable"), "{err}");
        assert!(planner.prepare_forced(&query, PlanKind::BestEffort).is_ok());
    }

    /// Forcing `GoalDriven` on a program/query the magic rewrite rejects
    /// reports the admissibility failure.
    #[test]
    fn forcing_goal_driven_on_an_inadmissible_query_reports_the_reason() {
        // Example 2: the existential rule R2 makes every rule unguardable.
        let planner = Planner::new(example2());
        match planner.prepare_forced(&example2_query(), PlanKind::GoalDriven) {
            Err(PlannerError::GoalDrivenInadmissible { reason }) => {
                assert!(reason.contains("no guardable rules"), "{reason}");
            }
            other => panic!("expected GoalDrivenInadmissible, got {other:?}"),
        }
        // The registrar's selective query is admissible even when forced.
        let registrar = Planner::new(ontorew_workloads::registrar_ontology());
        let forced = registrar
            .prepare_forced(
                &ontorew_workloads::registrar_queries()[0],
                PlanKind::GoalDriven,
            )
            .unwrap();
        assert_eq!(forced.plan().kind(), PlanKind::GoalDriven);
    }

    /// The paper's running Examples 1–3 through the new evaluator: each
    /// example's query is answered by its planner-chosen pipeline, and the
    /// same query forced through both join strategies over the same store
    /// yields byte-identical answers, with the cost model's estimate-vs-
    /// actual record attached to the planner execution.
    #[test]
    fn paper_examples_agree_across_join_strategies() {
        use ontorew_storage::{evaluate_cq_instrumented, EvalConfig, JoinStrategy};
        #[allow(clippy::type_complexity)]
        let cases: [(TgdProgram, ConjunctiveQuery, Vec<(&str, Vec<&str>)>); 3] = [
            (
                example1(),
                parse_query("ans(X, Z) :- r(X, Z)").unwrap(),
                vec![("s", vec!["a", "b", "c"]), ("t", vec!["d"])],
            ),
            (
                example2(),
                example2_query(),
                vec![("s", vec!["c", "c", "a"]), ("t", vec!["d", "a"])],
            ),
            (
                example3(),
                parse_query("ans(X, Y) :- r(X, Y)").unwrap(),
                vec![("s", vec!["a", "b", "c"]), ("u", vec!["a"])],
            ),
        ];
        for (program, query, facts) in cases {
            let mut store = Instance::new();
            for (pred, row) in &facts {
                store.insert_fact(pred, row);
            }
            let planner = Planner::new(program);
            let execution = planner.prepare(&query).execute_versioned(&store, 0);
            let cardinality = execution
                .provenance
                .cardinality
                .as_ref()
                .expect("small stores always have statistics");
            assert_eq!(cardinality.actual_rows, execution.answers.len());
            // Both join strategies, forced over the raw store, agree with
            // each other (the planner's answers may additionally contain
            // ontology-derived tuples, so they are compared superset-wise).
            let forced = |strategy| {
                evaluate_cq_instrumented(
                    &store,
                    &query,
                    &EvalConfig {
                        strategy: Some(strategy),
                        ..EvalConfig::default()
                    },
                )
                .0
            };
            let backtracking = forced(JoinStrategy::Backtracking);
            let generic = forced(JoinStrategy::GenericJoin);
            assert_eq!(generic, backtracking, "{query}");
            for row in backtracking.iter() {
                assert!(execution.answers.contains(row), "{query}: {row:?}");
            }
        }
    }

    /// `Planner::answer` is the one-shot convenience path.
    #[test]
    fn one_shot_answer_path() {
        let program = parse_program("[R1] student(X) -> person(X).").unwrap();
        let planner = Planner::new(program);
        let mut store = Instance::new();
        store.insert_fact("student", &["sara"]);
        let execution = planner.answer(&parse_query("q(X) :- person(X)").unwrap(), &store);
        assert!(execution.is_exact());
        assert!(execution.answers.contains_constants(&["sara"]));
        assert!(execution.provenance.timings.total_us >= execution.provenance.timings.evaluate_us);
    }
}
