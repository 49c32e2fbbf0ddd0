//! [`QueryService`]: the embeddable serving engine for one tenant.
//!
//! One `QueryService` owns an ontology (fixed for the service's lifetime, as
//! a compiled artifact cache demands) through its [`Planner`], the sharded
//! prepared-plan cache (private, or shared across tenants by the
//! [`crate::tenant::TenantRegistry`]), the epoch-swapped data store and the
//! metrics. It is entirely `&self`-based and meant to be shared behind an
//! `Arc` by any number of threads — the TCP server does exactly that, but
//! the service is just as usable in-process (the examples and benchmarks
//! drive it directly).
//!
//! The request path is the three-step pipeline the crate docs advertise:
//! **canonicalize** (fingerprint the query), **cache** (fetch or compile the
//! [`PreparedQuery`] plan), **execute** (run the plan over an immutable
//! snapshot, with chase materializations cached per epoch inside the
//! planner).

use crate::cache::{CacheConfig, CacheStats, ShardedPlanCache};
use crate::metrics::{LatencyStats, ServeMetrics};
use crate::snapshot::{EpochStore, Snapshot};
use ontorew_model::prelude::*;
use ontorew_plan::{
    explain_absent, ChaseConfig, PlanKind, Planner, PlannerConfig, PreparedQuery, Provenance,
    WhyNot, WhyStep,
};
use ontorew_rewrite::fingerprint::query_identity;
use ontorew_rewrite::{fingerprint_program, PreparedKey, ProgramFingerprint, RewriteConfig};
use ontorew_storage::persist::{TenantStorage, TenantStorageState, WalOpKind, WalRecord};
use ontorew_storage::AnswerSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a [`QueryService`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServiceConfig {
    /// Rewriting engine limits used when compiling uncached plans. `None`
    /// (the default) uses the size-aware `RewriteConfig::for_program`
    /// heuristic.
    pub rewrite: Option<RewriteConfig>,
    /// Prepared-plan cache shape (ignored by services attached to a shared
    /// cache).
    pub cache: CacheConfig,
}

/// The result of preparing a query (compiling it to a cached plan).
#[derive(Clone)]
pub struct Prepared {
    /// The cache key the plan is stored under.
    pub key: PreparedKey,
    /// The compiled plan.
    pub prepared: Arc<PreparedQuery>,
    /// True if the plan was already cached.
    pub cache_hit: bool,
}

impl Prepared {
    /// The kind of the compiled plan (part of how the cache entry is
    /// reported on the wire: `key=<fp> plan=<kind>`).
    pub fn plan_kind(&self) -> PlanKind {
        self.prepared.plan().kind()
    }

    /// Total rewriting fan-out of the plan (0 for pure chase plans).
    pub fn disjuncts(&self) -> usize {
        self.prepared.plan().disjuncts()
    }

    /// True when the plan guarantees exact certain answers (perfect
    /// rewriting or terminating chase — hybrid plans qualify even when
    /// their rewriting was budget-cut, because execution falls back to the
    /// terminating materialization). Delegates to
    /// [`PreparedQuery::guarantees_exact`].
    pub fn is_exact_plan(&self) -> bool {
        self.prepared.guarantees_exact()
    }
}

/// The result of answering a query.
pub struct QueryResponse {
    /// The answers, evaluated over exactly one snapshot.
    pub answers: AnswerSet,
    /// The epoch of the snapshot the answers came from.
    pub epoch: u64,
    /// The cache key of the plan that was executed.
    pub key: PreparedKey,
    /// The kind of the executed plan.
    pub plan: PlanKind,
    /// True if the plan came from the cache (no compilation ran).
    pub cache_hit: bool,
    /// True if the answers are exactly the certain answers; false means a
    /// sound approximation from a budget-bounded run.
    pub exact: bool,
    /// The full provenance report of the plan execution (strategy taken,
    /// reason, timings, materialization cache state).
    pub provenance: Provenance,
    /// End-to-end service time for this request, microseconds.
    pub micros: u64,
}

/// The result of a `WHY` / `WHY NOT` explanation request. One shape serves
/// both verbs: a present fact carries its derivation steps (target first), an
/// absent fact carries the blocked-candidate analysis — whichever verb the
/// client used, it learns the truth about the snapshot.
#[derive(Clone, Debug)]
pub struct FactExplanation {
    /// The epoch of the snapshot the explanation describes.
    pub epoch: u64,
    /// True when the fact is in the materialized model of that snapshot
    /// (asserted or derived).
    pub present: bool,
    /// Derivation steps, target first (empty when the fact is absent).
    pub steps: Vec<WhyStep>,
    /// Why the fact is absent: per-rule candidates with their blocked
    /// premises (`None` when the fact is present).
    pub absent: Option<WhyNot>,
    /// End-to-end service time for this request, microseconds.
    pub micros: u64,
}

/// Derivation-graph footprint of the current epoch's cached materialization
/// (all zero when no materialization is cached for the epoch).
#[derive(Clone, Copy, Debug, Default)]
pub struct ProvenanceStats {
    /// Alive fact nodes in the derivation graph.
    pub nodes: usize,
    /// Derivation edges (fired + witness).
    pub edges: usize,
    /// Rough heap footprint of the graph, bytes.
    pub bytes: usize,
}

/// A point-in-time summary of service state and counters.
#[derive(Clone, Copy, Debug)]
pub struct ServiceStats {
    /// `QUERY` requests served.
    pub queries: u64,
    /// `PREPARE`/`EXPLAIN` requests served.
    pub prepares: u64,
    /// `INSERT` requests served.
    pub inserts: u64,
    /// `DELETE` requests served (retraction epochs committed).
    pub deletes: u64,
    /// `WHY` / `WHY NOT` explanations served.
    pub whys: u64,
    /// Requests rejected with an error.
    pub errors: u64,
    /// Cache counters (of the plan cache, which may be shared across
    /// tenants).
    pub cache: CacheStats,
    /// Latency percentiles over the recent window.
    pub latency: LatencyStats,
    /// Currently published epoch.
    pub epoch: u64,
    /// Facts in the current epoch.
    pub facts: usize,
    /// Derivation-graph footprint of the epoch's cached materialization.
    pub provenance: ProvenanceStats,
    /// Durable-state gauges (all zero for an in-memory service): WAL size,
    /// manifest-referenced segment files, recoveries survived.
    pub durability: TenantStorageState,
    /// Seconds since this service instance was created.
    pub uptime_s: u64,
}

/// Errors a service request can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The request is malformed at the service level (non-ground insert,
    /// bad tenant name, unknown tenant, ...) — reported rather than
    /// silently ignored.
    BadRequest(String),
    /// The request was valid but could not be made durable (WAL append
    /// failed). Nothing was committed; the client may retry.
    Unavailable(String),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServiceError::Unavailable(msg) => write!(f, "unavailable: {msg}"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// The concurrent query-answering service for one ontology. See the module
/// docs.
pub struct QueryService {
    planner: Planner,
    program_fp: ProgramFingerprint,
    config: ServiceConfig,
    cache: Arc<ShardedPlanCache>,
    store: EpochStore,
    metrics: ServeMetrics,
    /// Disambiguates this service's data versions inside the planner's
    /// materialization cache when the plan cache (and hence prepared plans,
    /// for identical programs) is shared across tenants: the version token
    /// is `tenant_tag << 32 | epoch`.
    tenant_tag: u64,
    /// The durable backing of this tenant, when serving from a data
    /// directory: every commit write-ahead-logs through it before
    /// publishing. `None` for a purely in-memory service.
    durability: Option<Arc<TenantStorage>>,
}

impl QueryService {
    /// Build a stand-alone service for `program` with `initial` data as
    /// epoch 0 and a private plan cache.
    pub fn new(program: TgdProgram, initial: Instance, config: ServiceConfig) -> Self {
        let cache = Arc::new(ShardedPlanCache::new(config.cache));
        QueryService::with_shared_cache(program, initial, config, cache, 0)
    }

    /// Build a service that shares `cache` with other tenants. `tenant_tag`
    /// must be unique per service sharing the cache (the tenant registry
    /// assigns it) and below 2^32.
    pub fn with_shared_cache(
        program: TgdProgram,
        initial: Instance,
        config: ServiceConfig,
        cache: Arc<ShardedPlanCache>,
        tenant_tag: u64,
    ) -> Self {
        QueryService::durable(program, initial, 0, config, cache, tenant_tag, None)
    }

    /// Build a service backed by durable storage, resuming at `epoch` (the
    /// recovery path — `epoch` is what checkpoint + WAL replay reached; 0
    /// for a freshly created tenant). When `durability` is `Some`, every
    /// `INSERT`/`DELETE` epoch is write-ahead-logged through it before
    /// publication.
    ///
    /// Cached chase materializations are *not* persisted: after recovery
    /// the first chase-plan query materializes from scratch and later
    /// epochs resume the incremental/DRed paths (see the planner docs).
    #[allow(clippy::too_many_arguments)]
    pub fn durable(
        program: TgdProgram,
        initial: Instance,
        epoch: u64,
        config: ServiceConfig,
        cache: Arc<ShardedPlanCache>,
        tenant_tag: u64,
        durability: Option<Arc<TenantStorage>>,
    ) -> Self {
        let program_fp = fingerprint_program(&program);
        // The serving layer always tracks provenance: `WHY` explanations
        // walk the derivation graph, and `DELETE` repairs materializations
        // with DRed, which needs the graph of the cached ancestor. Embedders
        // that want the leaner chase can use the planner directly.
        let planner = Planner::with_config(
            program,
            PlannerConfig {
                rewrite: config.rewrite,
                chase: ChaseConfig::default().with_provenance(true),
                ..PlannerConfig::default()
            },
        );
        QueryService {
            planner,
            program_fp,
            config,
            cache,
            store: EpochStore::with_epoch(initial, epoch),
            metrics: ServeMetrics::new(),
            tenant_tag,
            durability,
        }
    }

    /// The ontology this service answers under.
    pub fn program(&self) -> &TgdProgram {
        self.planner.program()
    }

    /// The configuration this service was built with (the tenant registry
    /// reuses it for tenants created around an existing service).
    pub fn config(&self) -> ServiceConfig {
        self.config
    }

    /// The planner compiling this service's plans.
    pub fn planner(&self) -> &Planner {
        &self.planner
    }

    /// The fingerprint of the ontology (half of every cache key, and the
    /// tenant registry's notion of program identity).
    pub fn program_fingerprint(&self) -> ProgramFingerprint {
        self.program_fp
    }

    /// The plan cache this service reads through (possibly shared).
    pub fn cache(&self) -> &Arc<ShardedPlanCache> {
        &self.cache
    }

    /// The current data snapshot (for direct evaluation by embedders).
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.store.snapshot()
    }

    /// The cache key `query` resolves to under this service's program,
    /// along with the canonical text that confirms cache hits (the 64-bit
    /// fingerprint pair alone is not collision-resistant).
    fn identity_of(&self, query: &ConjunctiveQuery) -> (PreparedKey, String) {
        let (canonical, fingerprint) = query_identity(query);
        (
            PreparedKey {
                program: self.program_fp,
                query: fingerprint,
            },
            canonical,
        )
    }

    /// The cache key `query` resolves to under this service's program.
    pub fn key_of(&self, query: &ConjunctiveQuery) -> PreparedKey {
        self.identity_of(query).0
    }

    /// The version token executions run under: the current epoch, tagged by
    /// tenant so shared planners never mix materializations across tenants.
    fn version_of(&self, epoch: u64) -> u64 {
        (self.tenant_tag << 32) | epoch
    }

    /// Compile `query` into its plan, caching the artifact. Repeat
    /// preparations (of this query or any α-renamed / atom-permuted variant)
    /// are cache hits.
    pub fn prepare(&self, query: &ConjunctiveQuery) -> Prepared {
        let start = Instant::now();
        let (key, canonical) = self.identity_of(query);
        let (prepared, cache_hit) = self
            .cache
            .get_or_compute(key, &canonical, || self.planner.prepare(query));
        self.metrics.prepares.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .record_latency_us(start.elapsed().as_micros() as u64);
        Prepared {
            key,
            prepared,
            cache_hit,
        }
    }

    /// The `EXPLAIN` entry point: fetch or compile the plan (cached like
    /// `prepare`) and return it together with its human-readable dump. The
    /// dump is version-aware — it reports the cached-materialization state
    /// and the cost model's per-strategy estimates against the current
    /// snapshot, so operators see the numbers the executor would decide
    /// with.
    pub fn explain(&self, query: &ConjunctiveQuery) -> (Prepared, String) {
        let prepared = self.prepare(query);
        let snapshot = self.store.snapshot();
        let dump = prepared
            .prepared
            .explain_versioned(snapshot.store(), self.version_of(snapshot.epoch()));
        (prepared, dump)
    }

    /// Answer `query`: fetch or compile its plan, then execute it over the
    /// current snapshot. The entire evaluation runs against one immutable
    /// epoch — concurrent inserts are invisible until the next request —
    /// and chase materializations are cached per (tenant, epoch) inside the
    /// planner.
    pub fn query(&self, query: &ConjunctiveQuery) -> Result<QueryResponse, ServiceError> {
        let start = Instant::now();
        let (key, canonical) = self.identity_of(query);
        let (prepared, cache_hit) = self
            .cache
            .get_or_compute(key, &canonical, || self.planner.prepare(query));
        let snapshot = self.store.snapshot();
        let execution =
            prepared.execute_versioned(snapshot.store(), self.version_of(snapshot.epoch()));
        let micros = start.elapsed().as_micros() as u64;
        self.metrics.queries.fetch_add(1, Ordering::Relaxed);
        self.metrics.record_latency_us(micros);
        let registry = ontorew_telemetry::global_registry();
        registry
            .counter("queries_total", "QUERY requests served.", &[])
            .inc();
        registry
            .counter(
                if cache_hit {
                    "plan_cache_hits_total"
                } else {
                    "plan_cache_misses_total"
                },
                "Plan cache lookups, by outcome.",
                &[],
            )
            .inc();
        Ok(QueryResponse {
            answers: execution.answers,
            epoch: snapshot.epoch(),
            key,
            plan: prepared.plan().kind(),
            cache_hit,
            exact: execution.provenance.exact,
            provenance: execution.provenance,
            micros,
        })
    }

    /// Ingest a batch of ground facts as one new epoch. The whole batch
    /// becomes visible atomically. Returns `(new epoch, facts added)`.
    ///
    /// The batch is also threaded through to the planner as a delta edge
    /// between the two (tenant-tagged) data versions, so a chase-plan
    /// `QUERY` right after an `INSERT` extends the previous epoch's cached
    /// materialization incrementally — O(closure of the batch) — instead of
    /// re-chasing the whole store.
    pub fn insert_facts(&self, facts: &[Atom]) -> Result<(u64, usize), ServiceError> {
        for fact in facts {
            if !fact.is_ground() {
                self.metrics.errors.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::BadRequest(format!(
                    "fact {fact} contains a variable"
                )));
            }
        }
        let mut added = 0usize;
        let mut total = 0usize;
        let epoch = self
            .store
            .commit_logged(
                |epoch| self.log_epoch(epoch, WalOpKind::Insert, facts),
                |store| {
                    for fact in facts {
                        if store.insert(fact.clone()) {
                            added += 1;
                        }
                    }
                    total = store.len();
                },
            )
            .map_err(|e| self.not_durable(e))?;
        self.planner.record_delta(
            self.version_of(epoch - 1),
            self.version_of(epoch),
            facts,
            total,
        );
        self.metrics.inserts.fetch_add(1, Ordering::Relaxed);
        Ok((epoch, added))
    }

    /// Retract a batch of ground facts as one new epoch. The whole batch
    /// disappears atomically; held snapshots of earlier epochs are
    /// untouched. Returns `(new epoch, facts actually removed)` — facts that
    /// were not present count as not removed, but the epoch still advances
    /// (mirroring how duplicate inserts behave).
    ///
    /// The batch is threaded through to the planner as a **delete** edge, so
    /// a chase-plan `QUERY` right after a `DELETE` repairs the previous
    /// epoch's cached materialization with DRed (delete-and-rederive over
    /// the derivation graph) — O(affected derivations) — instead of
    /// re-chasing the whole store.
    pub fn delete_facts(&self, facts: &[Atom]) -> Result<(u64, usize), ServiceError> {
        for fact in facts {
            if !fact.is_ground() {
                self.metrics.errors.fetch_add(1, Ordering::Relaxed);
                return Err(ServiceError::BadRequest(format!(
                    "fact {fact} contains a variable"
                )));
            }
        }
        let mut removed = 0usize;
        let mut total = 0usize;
        let epoch = self
            .store
            .commit_logged(
                |epoch| self.log_epoch(epoch, WalOpKind::Delete, facts),
                |store| {
                    for fact in facts {
                        if store.remove(fact) {
                            removed += 1;
                        }
                    }
                    total = store.len();
                },
            )
            .map_err(|e| self.not_durable(e))?;
        self.planner.record_retraction(
            self.version_of(epoch - 1),
            self.version_of(epoch),
            facts,
            total,
        );
        self.metrics.deletes.fetch_add(1, Ordering::Relaxed);
        Ok((epoch, removed))
    }

    /// Explain `fact` against the current snapshot's materialized model:
    /// derivation steps when it is present, blocked candidates when it is
    /// absent. Serves both `WHY` and `WHY NOT` (the verbs differ only in
    /// which outcome the client expected).
    ///
    /// Materializes the snapshot if no cached materialization exists yet
    /// (same per-version cache as `QUERY`, so a warm epoch explains in
    /// microseconds).
    pub fn explain_fact(&self, fact: &Atom) -> Result<FactExplanation, ServiceError> {
        let start = Instant::now();
        if !fact.is_ground() {
            self.metrics.errors.fetch_add(1, Ordering::Relaxed);
            return Err(ServiceError::BadRequest(format!(
                "fact {fact} contains a variable"
            )));
        }
        let snapshot = self.store.snapshot();
        let (materialization, _cached) = self
            .planner
            .materialize(snapshot.store(), Some(self.version_of(snapshot.epoch())));
        let present = materialization.instance().contains(fact);
        let steps = if present {
            materialization
                .provenance()
                .and_then(|graph| graph.why(fact))
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        let absent = (!present)
            .then(|| explain_absent(self.planner.program(), materialization.instance(), fact));
        let micros = start.elapsed().as_micros() as u64;
        self.metrics.whys.fetch_add(1, Ordering::Relaxed);
        self.metrics.record_latency_us(micros);
        Ok(FactExplanation {
            epoch: snapshot.epoch(),
            present,
            steps,
            absent,
            micros,
        })
    }

    /// The write-ahead hook `commit_logged` runs before publishing an
    /// epoch: a no-op for in-memory services, a WAL append for durable
    /// ones.
    fn log_epoch(&self, epoch: u64, kind: WalOpKind, facts: &[Atom]) -> std::io::Result<()> {
        match &self.durability {
            Some(storage) => storage.log_commit(&WalRecord {
                epoch,
                kind,
                facts: facts.to_vec(),
            }),
            None => Ok(()),
        }
    }

    fn not_durable(&self, e: std::io::Error) -> ServiceError {
        self.metrics.errors.fetch_add(1, Ordering::Relaxed);
        ServiceError::Unavailable(format!("commit not durable: {e}"))
    }

    /// The durable backing of this tenant, if any (the compactor and the
    /// registry's flush path go through this).
    pub fn durability(&self) -> Option<&Arc<TenantStorage>> {
        self.durability.as_ref()
    }

    /// Checkpoint the current snapshot to durable storage: spill segments,
    /// publish the manifest, truncate the WAL. `Ok(None)` for in-memory
    /// services. Runs off the commit path (commits block only for the
    /// manifest publish + WAL truncation).
    pub fn checkpoint(&self) -> std::io::Result<Option<TenantStorageState>> {
        let Some(storage) = &self.durability else {
            return Ok(None);
        };
        let snapshot = self.store.snapshot();
        storage
            .checkpoint(snapshot.store(), snapshot.epoch())
            .map(Some)
    }

    /// Force this tenant's WAL to stable storage regardless of fsync
    /// policy (graceful shutdown). No-op for in-memory services.
    pub fn sync_wal(&self) -> std::io::Result<()> {
        match &self.durability {
            Some(storage) => storage.sync(),
            None => Ok(()),
        }
    }

    /// Count one protocol-level error (bad request line etc.) so it shows in
    /// `STATS`.
    pub fn record_error(&self) {
        self.metrics.errors.fetch_add(1, Ordering::Relaxed);
    }

    /// `DELETE` requests this service has served (the tenant registry
    /// surfaces this as the per-tenant retraction counter).
    pub fn retractions(&self) -> u64 {
        self.metrics.deletes.load(Ordering::Relaxed)
    }

    /// Current counters, cache statistics and latency percentiles.
    pub fn stats(&self) -> ServiceStats {
        let snapshot = self.store.snapshot();
        // Peek (never compute) the epoch's cached materialization for the
        // derivation-graph footprint — STATS must stay cheap.
        let provenance = self
            .planner
            .cached_materialization(self.version_of(snapshot.epoch()), snapshot.len())
            .and_then(|m| {
                m.provenance().map(|graph| ProvenanceStats {
                    nodes: graph.node_count(),
                    edges: graph.edge_count(),
                    bytes: graph.bytes_estimate(),
                })
            })
            .unwrap_or_default();
        ServiceStats {
            queries: self.metrics.queries.load(Ordering::Relaxed),
            prepares: self.metrics.prepares.load(Ordering::Relaxed),
            inserts: self.metrics.inserts.load(Ordering::Relaxed),
            deletes: self.metrics.deletes.load(Ordering::Relaxed),
            whys: self.metrics.whys.load(Ordering::Relaxed),
            errors: self.metrics.errors.load(Ordering::Relaxed),
            cache: self.cache.stats(),
            latency: self.metrics.latency_stats(),
            epoch: snapshot.epoch(),
            facts: snapshot.len(),
            provenance,
            durability: self
                .durability
                .as_ref()
                .map(|storage| storage.state())
                .unwrap_or_default(),
            uptime_s: self.metrics.uptime_s(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontorew_model::{parse_program, parse_query};
    use ontorew_plan::StrategyTaken;

    fn university_service() -> QueryService {
        let program = ontorew_core::examples::university_ontology();
        let mut store = Instance::new();
        store.insert_fact("professor", &["alice"]);
        store.insert_fact("teaches", &["alice", "db101"]);
        store.insert_fact("attends", &["sara", "db101"]);
        store.insert_fact("student", &["sara"]);
        QueryService::new(program, store, ServiceConfig::default())
    }

    #[test]
    fn query_answers_match_answer_by_rewriting() {
        let service = university_service();
        let q = parse_query("q(X) :- person(X)").unwrap();
        let served = service.query(&q).unwrap();
        let direct = ontorew_rewrite::answer_by_rewriting(
            service.program(),
            &q,
            service.snapshot().store(),
            &RewriteConfig::default(),
        );
        assert_eq!(served.answers, direct.answers);
        assert!(served.exact);
        assert_eq!(served.epoch, 0);
        // The university ontology satisfies both guarantees: hybrid plan,
        // rewriting strategy (narrow fan-out).
        assert_eq!(served.plan, PlanKind::Hybrid);
        assert_eq!(served.provenance.strategy, StrategyTaken::Rewriting);
    }

    #[test]
    fn repeat_queries_hit_the_cache() {
        let service = university_service();
        let q = parse_query("q(X) :- person(X)").unwrap();
        assert!(!service.query(&q).unwrap().cache_hit);
        assert!(service.query(&q).unwrap().cache_hit);
        // An α-renamed, atom-permuted variant also hits.
        let v = parse_query("people(Z) :- person(Z)").unwrap();
        assert!(service.query(&v).unwrap().cache_hit);
        let stats = service.stats();
        assert_eq!(stats.queries, 3);
        assert_eq!(stats.cache.hits, 2);
    }

    #[test]
    fn prepare_then_query_skips_compilation() {
        let service = university_service();
        let q = parse_query("q(T) :- teaches(T, C), attends(S, C)").unwrap();
        let prepared = service.prepare(&q);
        assert!(!prepared.cache_hit);
        assert_eq!(prepared.plan_kind(), PlanKind::Hybrid);
        assert!(prepared.disjuncts() >= 1);
        assert!(prepared.is_exact_plan());
        let response = service.query(&q).unwrap();
        assert!(response.cache_hit);
        assert_eq!(response.key, prepared.key);
        assert!(response.answers.contains_constants(&["alice"]));
    }

    #[test]
    fn explain_reports_the_plan() {
        let service = university_service();
        let q = parse_query("q(X) :- person(X)").unwrap();
        let (prepared, dump) = service.explain(&q);
        assert_eq!(prepared.plan_kind(), PlanKind::Hybrid);
        assert!(dump.contains("plan: hybrid"), "{dump}");
        assert!(dump.contains("reason:"), "{dump}");
        // The versioned dump carries the cost model's estimates for the
        // current snapshot.
        assert!(dump.contains("cost model: join strategy="), "{dump}");
        assert!(dump.contains("cost model: estimated rows="), "{dump}");
        assert!(dump.contains("cached materialization:"), "{dump}");
        // EXPLAIN warms the cache like PREPARE does.
        assert!(service.query(&q).unwrap().cache_hit);
    }

    #[test]
    fn inserts_are_visible_to_later_queries_only() {
        let service = university_service();
        let q = parse_query("q(X) :- person(X)").unwrap();
        let before = service.query(&q).unwrap();
        let (epoch, added) = service
            .insert_facts(&[Atom::fact("student", &["zoe"])])
            .unwrap();
        assert_eq!((epoch, added), (1, 1));
        let after = service.query(&q).unwrap();
        assert_eq!(after.epoch, 1);
        assert_eq!(after.answers.len(), before.answers.len() + 1);
        assert!(after.answers.contains_constants(&["zoe"]));
    }

    #[test]
    fn non_ground_inserts_are_rejected() {
        let service = university_service();
        let bad = Atom::new("student", vec![Term::variable("X")]);
        let err = service.insert_facts(&[bad]).unwrap_err();
        assert!(matches!(err, ServiceError::BadRequest(_)));
        assert_eq!(service.stats().errors, 1);
        assert_eq!(service.stats().epoch, 0, "no epoch was published");
    }

    #[test]
    fn ontology_reasoning_happens_through_the_cache_path() {
        // person(X) must include professors via faculty ⊆ employee ⊆ person.
        let program = parse_program(
            "[R1] professor(X) -> faculty(X).\n\
             [R2] faculty(X) -> employee(X).\n\
             [R3] employee(X) -> person(X).",
        )
        .unwrap();
        let mut store = Instance::new();
        store.insert_fact("professor", &["kim"]);
        let service = QueryService::new(program, store, ServiceConfig::default());
        let q = parse_query("q(X) :- person(X)").unwrap();
        let cold = service.query(&q).unwrap();
        let warm = service.query(&q).unwrap();
        assert!(cold.answers.contains_constants(&["kim"]));
        assert_eq!(cold.answers, warm.answers);
        assert!(warm.cache_hit);
    }

    #[test]
    fn chase_plans_reuse_the_epoch_materialization() {
        // Example 2: the planner compiles a chase plan; repeated queries on
        // one epoch share the materialization, and a new epoch invalidates
        // it through the version token.
        let program = ontorew_core::examples::example2();
        let mut store = Instance::new();
        store.insert_fact("s", &["c", "c", "a"]);
        store.insert_fact("t", &["d", "a"]);
        let service = QueryService::new(program, store, ServiceConfig::default());
        let q = ontorew_core::examples::example2_query();
        let cold = service.query(&q).unwrap();
        assert_eq!(cold.plan, PlanKind::Chase);
        assert!(cold.exact);
        assert!(cold.answers.as_boolean());
        assert_eq!(cold.provenance.materialization_cached, Some(false));
        let warm = service.query(&q).unwrap();
        assert_eq!(warm.provenance.materialization_cached, Some(true));
        service
            .insert_facts(&[Atom::fact("t", &["d2", "c"])])
            .unwrap();
        let fresh = service.query(&q).unwrap();
        assert_eq!(fresh.epoch, 1);
        assert_eq!(fresh.provenance.materialization_cached, Some(false));
        // The insert was threaded through as a delta edge: the new epoch's
        // materialization extended epoch 0's instead of re-chasing.
        assert!(matches!(
            fresh.provenance.materialization,
            Some(ontorew_plan::MaterializationMode::Incremental { delta_facts: 1, .. })
        ));
    }

    #[test]
    fn insert_then_query_extends_the_materialization_incrementally() {
        // A commit loop on a chase-plan tenant: after the first query, every
        // insert→query cycle rides the incremental path, and the answers
        // always match a scratch evaluation of the same snapshot.
        let program = ontorew_core::examples::example2();
        let service = QueryService::new(program.clone(), Instance::new(), ServiceConfig::default());
        let q = ontorew_core::examples::example2_query();
        assert!(!service.query(&q).unwrap().answers.as_boolean());
        service
            .insert_facts(&[Atom::fact("t", &["d", "a"])])
            .unwrap();
        service
            .insert_facts(&[Atom::fact("s", &["c", "c", "a"])])
            .unwrap();
        // Two unqueried commits: the miss composes both edges.
        let response = service.query(&q).unwrap();
        assert_eq!(response.epoch, 2);
        assert!(matches!(
            response.provenance.materialization,
            Some(ontorew_plan::MaterializationMode::Incremental { delta_facts: 2, .. })
        ));
        assert!(response.exact);
        assert!(response.answers.as_boolean());
        let scratch = Planner::new(program)
            .prepare(&q)
            .execute(service.snapshot().store());
        assert!(response.answers.iter().eq(scratch.answers.iter()));
    }

    #[test]
    fn deletes_are_visible_and_ride_the_dred_path() {
        let program = ontorew_core::examples::example2();
        let mut store = Instance::new();
        store.insert_fact("s", &["c", "c", "a"]);
        store.insert_fact("t", &["d", "a"]);
        let service = QueryService::new(program.clone(), store, ServiceConfig::default());
        let q = ontorew_core::examples::example2_query();
        assert!(service.query(&q).unwrap().answers.as_boolean());
        let (epoch, removed) = service
            .delete_facts(&[Atom::fact("s", &["c", "c", "a"])])
            .unwrap();
        assert_eq!((epoch, removed), (1, 1));
        let after = service.query(&q).unwrap();
        assert_eq!(after.epoch, 1);
        // The retraction was threaded through as a delete edge: the new
        // epoch's materialization was repaired by DRed, not re-chased.
        assert!(matches!(
            after.provenance.materialization,
            Some(ontorew_plan::MaterializationMode::Dred { from: _, delta_facts: 0, removed_facts }) if removed_facts >= 1
        ));
        let scratch = Planner::new(program)
            .prepare(&q)
            .execute(service.snapshot().store());
        assert!(after.answers.iter().eq(scratch.answers.iter()));
        assert!(
            !after.answers.as_boolean(),
            "the derivation chain collapsed"
        );
    }

    #[test]
    fn deleting_an_absent_fact_still_advances_the_epoch() {
        let service = university_service();
        let (epoch, removed) = service
            .delete_facts(&[Atom::fact("student", &["nobody"])])
            .unwrap();
        assert_eq!((epoch, removed), (1, 0));
        assert_eq!(service.stats().deletes, 1);
    }

    #[test]
    fn non_ground_deletes_are_rejected() {
        let service = university_service();
        let bad = Atom::new("student", vec![Term::variable("X")]);
        let err = service.delete_facts(&[bad]).unwrap_err();
        assert!(matches!(err, ServiceError::BadRequest(_)));
        assert_eq!(service.stats().epoch, 0, "no epoch was published");
    }

    #[test]
    fn why_explains_presence_and_absence() {
        let service = university_service();
        // A derived fact: person(sara) via student(sara) -> person(sara).
        let derived = service
            .explain_fact(&Atom::fact("person", &["sara"]))
            .unwrap();
        assert!(derived.present);
        assert_eq!(derived.epoch, 0);
        assert_eq!(derived.steps[0].fact, Atom::fact("person", &["sara"]));
        assert!(
            derived.steps[0].rule.is_some(),
            "the target is derived, not asserted: {:?}",
            derived.steps
        );
        assert!(derived
            .steps
            .iter()
            .any(|s| s.fact == Atom::fact("student", &["sara"]) && s.rule.is_none()));
        assert!(derived.absent.is_none());
        // A base fact explains as itself.
        let base = service
            .explain_fact(&Atom::fact("student", &["sara"]))
            .unwrap();
        assert!(base.present);
        assert_eq!(base.steps.len(), 1);
        assert!(base.steps[0].rule.is_none());
        // An absent fact reports blocked candidates instead.
        let absent = service
            .explain_fact(&Atom::fact("person", &["bob"]))
            .unwrap();
        assert!(!absent.present);
        assert!(absent.steps.is_empty());
        let why_not = absent.absent.unwrap();
        assert!(
            !why_not.candidates.is_empty(),
            "person has deriving rules, so candidates must be reported"
        );
        assert!(why_not
            .candidates
            .iter()
            .all(|c| !c.missing.is_empty() || c.needs_invented_value));
        assert_eq!(service.stats().whys, 3);
    }

    #[test]
    fn why_tracks_retractions_across_epochs() {
        let service = university_service();
        assert!(
            service
                .explain_fact(&Atom::fact("person", &["sara"]))
                .unwrap()
                .present
        );
        // Withdrawing the assertion alone is not enough: U10 rederives
        // student(sara) from attends(sara, db101), and WHY now explains it
        // as derived instead of asserted.
        service
            .delete_facts(&[Atom::fact("student", &["sara"])])
            .unwrap();
        let rederived = service
            .explain_fact(&Atom::fact("student", &["sara"]))
            .unwrap();
        assert_eq!(rederived.epoch, 1);
        assert!(rederived.present, "U10 rederives the fact from attends");
        assert!(
            rederived.steps[0].rule.is_some(),
            "no longer asserted: {:?}",
            rederived.steps
        );
        // Removing the remaining support makes it genuinely absent.
        service
            .delete_facts(&[Atom::fact("attends", &["sara", "db101"])])
            .unwrap();
        let after = service
            .explain_fact(&Atom::fact("student", &["sara"]))
            .unwrap();
        assert_eq!(after.epoch, 2);
        assert!(!after.present, "the retracted fact must explain as absent");
        assert!(after.absent.is_some());
    }

    #[test]
    fn stats_report_retractions_and_the_provenance_footprint() {
        let program = ontorew_core::examples::example2();
        let mut store = Instance::new();
        store.insert_fact("s", &["c", "c", "a"]);
        store.insert_fact("t", &["d", "a"]);
        let service = QueryService::new(program, store, ServiceConfig::default());
        let q = ontorew_core::examples::example2_query();
        // Before any materialization the footprint is zero.
        assert_eq!(service.stats().provenance.nodes, 0);
        service.query(&q).unwrap();
        let stats = service.stats();
        assert!(stats.provenance.nodes >= 2, "{:?}", stats.provenance);
        assert!(stats.provenance.edges >= 1, "{:?}", stats.provenance);
        assert!(stats.provenance.bytes > 0, "{:?}", stats.provenance);
        assert_eq!(stats.deletes, 0);
        service
            .delete_facts(&[Atom::fact("t", &["d", "a"])])
            .unwrap();
        assert_eq!(service.stats().deletes, 1);
        assert_eq!(service.retractions(), 1);
    }
}
