//! Multi-tenant serving: one server process, many ontologies.
//!
//! A [`TenantRegistry`] maps tenant names to per-tenant engines — each a
//! [`QueryService`] with its own [`Planner`] (classification, plan
//! compilation, per-epoch materialization cache) and its own `EpochStore` —
//! while **one prepared-plan cache is shared across all tenants**. The cache
//! key is `(program fingerprint, query fingerprint)`, so two tenants serving
//! the same ontology (a common fleet shape: many isolated datasets, one
//! schema) share every compiled plan, and tenants serving different
//! ontologies can never collide. Each tenant gets a unique tag that
//! namespaces its data versions inside shared planners, so per-epoch chase
//! materializations stay tenant-local.
//!
//! The TCP protocol drives this through the `TENANT CREATE/USE/DROP/LIST`
//! verbs; embedders can use the registry directly.
//!
//! [`Planner`]: ontorew_plan::Planner

use crate::cache::{CacheStats, ShardedPlanCache};
use crate::service::{QueryService, ServiceConfig, ServiceError};
use ontorew_model::prelude::*;
use ontorew_rewrite::ProgramFingerprint;
use ontorew_storage::persist::TenantStorage;
use ontorew_storage::FsyncPolicy;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The reserved name of the tenant a server starts with (and the one
/// connections speak to before any `TENANT USE`).
pub const DEFAULT_TENANT: &str = "default";

/// A summary row of one registered tenant.
#[derive(Clone, Debug)]
pub struct TenantInfo {
    /// The tenant's name.
    pub name: String,
    /// Fingerprint of the tenant's ontology.
    pub program: ProgramFingerprint,
    /// Rules in the tenant's ontology.
    pub rules: usize,
    /// Currently published epoch of the tenant's store.
    pub epoch: u64,
    /// Facts in the current epoch.
    pub facts: usize,
    /// Retraction epochs (`DELETE` batches) this tenant has committed.
    pub retractions: u64,
}

/// Where and how the registry persists its tenants.
#[derive(Clone, Debug)]
pub struct DurabilitySettings {
    /// The data directory: one subdirectory per tenant.
    pub root: PathBuf,
    /// The WAL fsync cadence every tenant is opened with.
    pub fsync: FsyncPolicy,
}

/// The registry of tenants sharing one server and one prepared-plan cache.
pub struct TenantRegistry {
    config: ServiceConfig,
    cache: Arc<ShardedPlanCache>,
    tenants: RwLock<BTreeMap<String, Arc<QueryService>>>,
    next_tag: AtomicU64,
    /// `Some` when tenants persist to a data directory. Creations and drops
    /// serialize on [`Self::lifecycle`] so two racing `TENANT CREATE`s can
    /// never wipe each other's directory; the read path never touches it.
    durability: Option<DurabilitySettings>,
    lifecycle: Mutex<()>,
}

impl TenantRegistry {
    /// A registry whose `default` tenant serves `program` over `initial`.
    pub fn new(program: TgdProgram, initial: Instance, config: ServiceConfig) -> Self {
        let cache = Arc::new(ShardedPlanCache::new(config.cache));
        let default = Arc::new(QueryService::with_shared_cache(
            program,
            initial,
            config,
            Arc::clone(&cache),
            0,
        ));
        let mut tenants = BTreeMap::new();
        tenants.insert(DEFAULT_TENANT.to_string(), default);
        TenantRegistry {
            config,
            cache,
            tenants: RwLock::new(tenants),
            next_tag: AtomicU64::new(1),
            durability: None,
            lifecycle: Mutex::new(()),
        }
    }

    /// Wrap an already-built service as the `default` tenant (the
    /// single-tenant entry path of [`crate::server::serve`]). Later tenants
    /// share the service's cache and inherit its configuration.
    pub fn around(service: Arc<QueryService>) -> Self {
        let cache = Arc::clone(service.cache());
        let config = service.config();
        let mut tenants = BTreeMap::new();
        tenants.insert(DEFAULT_TENANT.to_string(), service);
        TenantRegistry {
            config,
            cache,
            tenants: RwLock::new(tenants),
            next_tag: AtomicU64::new(1),
            durability: None,
            lifecycle: Mutex::new(()),
        }
    }

    /// A durable registry: recover every tenant under `settings.root`, or
    /// create the `default` tenant from `program` + `initial` on a fresh
    /// data directory. This is the server's startup path — after it
    /// returns, every acknowledged epoch of every non-tombstoned tenant is
    /// back in memory and new commits are write-ahead-logged.
    ///
    /// When the default tenant already exists on disk, its persisted
    /// program and recovered store win over the `program`/`initial`
    /// arguments (restarting with different seed flags must not fork
    /// history).
    pub fn recover(
        program: TgdProgram,
        initial: Instance,
        config: ServiceConfig,
        settings: DurabilitySettings,
    ) -> io::Result<Self> {
        std::fs::create_dir_all(&settings.root)?;
        let cache = Arc::new(ShardedPlanCache::new(config.cache));
        let mut tenants = BTreeMap::new();
        let mut next_tag = 0u64;

        let mut names = TenantStorage::list(&settings.root)?;
        if !names.iter().any(|n| n == DEFAULT_TENANT) {
            // Fresh directory (or the default was tombstoned by hand):
            // create it from the seed arguments, checkpointing the initial
            // store so epoch 0 is durable without ever having been logged.
            let storage = TenantStorage::create(
                &settings.root,
                DEFAULT_TENANT,
                &program.to_string(),
                settings.fsync,
            )?;
            let mut seed = initial;
            seed.freeze();
            storage.checkpoint(&seed, 0)?;
            let service = Arc::new(QueryService::durable(
                program,
                seed,
                0,
                config,
                Arc::clone(&cache),
                next_tag,
                Some(Arc::new(storage)),
            ));
            tenants.insert(DEFAULT_TENANT.to_string(), service);
            next_tag += 1;
            names.retain(|n| n != DEFAULT_TENANT);
        }

        for name in names {
            let recovered = TenantStorage::open(&settings.root, &name, settings.fsync)?
                .expect("list() only yields recoverable tenants");
            let recovered_program = parse_program(&recovered.program_text).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("tenant {name:?}: persisted program does not parse: {e}"),
                )
            })?;
            let service = Arc::new(QueryService::durable(
                recovered_program,
                recovered.store,
                recovered.epoch,
                config,
                Arc::clone(&cache),
                next_tag,
                Some(Arc::new(recovered.storage)),
            ));
            tenants.insert(name, service);
            next_tag += 1;
        }

        Ok(TenantRegistry {
            config,
            cache,
            tenants: RwLock::new(tenants),
            next_tag: AtomicU64::new(next_tag),
            durability: Some(settings),
            lifecycle: Mutex::new(()),
        })
    }

    /// The durability settings, when this registry persists to disk.
    pub fn durability(&self) -> Option<&DurabilitySettings> {
        self.durability.as_ref()
    }

    /// Every registered service (name order) — the compactor and the
    /// shutdown flush iterate these.
    pub fn services(&self) -> Vec<Arc<QueryService>> {
        self.tenants.read().values().cloned().collect()
    }

    /// Fsync every tenant's WAL (graceful shutdown). The first error is
    /// returned, but all tenants are attempted.
    pub fn sync_all(&self) -> io::Result<()> {
        let mut first_err = None;
        for service in self.services() {
            if let Err(e) = service.sync_wal() {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// The shared prepared-plan cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The default tenant (always present).
    pub fn default_tenant(&self) -> Arc<QueryService> {
        self.get(DEFAULT_TENANT)
            .expect("the default tenant is never dropped")
    }

    /// Look up a tenant by name.
    pub fn get(&self, name: &str) -> Option<Arc<QueryService>> {
        self.tenants.read().get(name).cloned()
    }

    /// Number of registered tenants.
    pub fn len(&self) -> usize {
        self.tenants.read().len()
    }

    /// True when only the default tenant exists... never: the registry
    /// always holds at least the default tenant, so this is never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Create a tenant named `name` serving `program` over an empty store.
    /// Fails if the name is taken or invalid (names are `[A-Za-z0-9_-]+`,
    /// at most 64 bytes).
    pub fn create(
        &self,
        name: &str,
        program: TgdProgram,
    ) -> Result<Arc<QueryService>, ServiceError> {
        validate_tenant_name(name)?;
        // Creations and drops serialize on the lifecycle lock (a durable
        // create wipes any stale directory at this name, so two racing
        // creates must never both reach the disk); the registry lock is
        // only taken for the final insert.
        let _lifecycle = self.lifecycle.lock();
        if self.tenants.read().contains_key(name) {
            return Err(ServiceError::BadRequest(format!(
                "tenant {name:?} already exists"
            )));
        }
        let storage = match &self.durability {
            Some(settings) => {
                let storage = TenantStorage::create(
                    &settings.root,
                    name,
                    &program.to_string(),
                    settings.fsync,
                )
                .map_err(|e| {
                    ServiceError::Unavailable(format!("cannot persist tenant {name:?}: {e}"))
                })?;
                // Checkpoint the (empty) birth state so the manifest exists
                // from the first moment.
                storage.checkpoint(&Instance::new(), 0).map_err(|e| {
                    ServiceError::Unavailable(format!("cannot persist tenant {name:?}: {e}"))
                })?;
                Some(Arc::new(storage))
            }
            None => None,
        };
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let service = Arc::new(QueryService::durable(
            program,
            Instance::new(),
            0,
            self.config,
            Arc::clone(&self.cache),
            tag,
            storage,
        ));
        self.tenants
            .write()
            .insert(name.to_string(), Arc::clone(&service));
        Ok(service)
    }

    /// Drop the tenant named `name`. The default tenant cannot be dropped;
    /// connections currently using a dropped tenant keep their handle (and
    /// its store) alive until they switch or disconnect. Durable tenants
    /// are **tombstoned** on disk — recovery skips them rather than
    /// silently forgetting, and re-creating the name starts from scratch.
    pub fn drop_tenant(&self, name: &str) -> Result<(), ServiceError> {
        if name == DEFAULT_TENANT {
            return Err(ServiceError::BadRequest(
                "the default tenant cannot be dropped".into(),
            ));
        }
        let _lifecycle = self.lifecycle.lock();
        match self.tenants.write().remove(name) {
            Some(service) => {
                if let Some(storage) = service.durability() {
                    storage.tombstone().map_err(|e| {
                        ServiceError::Unavailable(format!(
                            "tenant {name:?} dropped in memory but not tombstoned on disk: {e}"
                        ))
                    })?;
                }
                Ok(())
            }
            None => Err(ServiceError::BadRequest(format!("no tenant {name:?}"))),
        }
    }

    /// Summaries of every registered tenant, in name order.
    pub fn list(&self) -> Vec<TenantInfo> {
        self.tenants
            .read()
            .iter()
            .map(|(name, service)| {
                let snapshot = service.snapshot();
                TenantInfo {
                    name: name.clone(),
                    program: service.program_fingerprint(),
                    rules: service.program().len(),
                    epoch: snapshot.epoch(),
                    facts: snapshot.len(),
                    retractions: service.retractions(),
                }
            })
            .collect()
    }
}

/// Tenant names travel on the wire as a single token: alphanumerics plus
/// `-`/`_`, bounded length.
fn validate_tenant_name(name: &str) -> Result<(), ServiceError> {
    if name.is_empty() || name.len() > 64 {
        return Err(ServiceError::BadRequest(
            "tenant names must be 1-64 characters".into(),
        ));
    }
    if !name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
    {
        return Err(ServiceError::BadRequest(format!(
            "invalid tenant name {name:?}: use letters, digits, '-' and '_'"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ontorew_model::{parse_program, parse_query};

    fn registry() -> TenantRegistry {
        let program = parse_program("[R1] student(X) -> person(X).").unwrap();
        let mut store = Instance::new();
        store.insert_fact("student", &["sara"]);
        TenantRegistry::new(program, store, ServiceConfig::default())
    }

    #[test]
    fn default_tenant_serves_immediately() {
        let registry = registry();
        assert_eq!(registry.len(), 1);
        let q = parse_query("q(X) :- person(X)").unwrap();
        let response = registry.default_tenant().query(&q).unwrap();
        assert_eq!(response.answers.len(), 1);
    }

    #[test]
    fn tenants_are_isolated_but_share_the_plan_cache() {
        let registry = registry();
        let program = parse_program("[R1] student(X) -> person(X).").unwrap();
        let hr = registry.create("hr", program).unwrap();
        assert_eq!(registry.len(), 2);

        // Same ontology, different data: the plan compiled for the default
        // tenant is a cache hit for the new tenant...
        let q = parse_query("q(X) :- person(X)").unwrap();
        assert!(!registry.default_tenant().query(&q).unwrap().cache_hit);
        let hr_response = hr.query(&q).unwrap();
        assert!(hr_response.cache_hit, "plans are shared across tenants");
        // ...but the data is not.
        assert!(hr_response.answers.is_empty());
        hr.insert_facts(&[Atom::fact("student", &["zoe"])]).unwrap();
        assert!(hr.query(&q).unwrap().answers.contains_constants(&["zoe"]));
        assert_eq!(
            registry.default_tenant().query(&q).unwrap().answers.len(),
            1,
            "default tenant unaffected"
        );
    }

    #[test]
    fn chase_materializations_stay_tenant_local() {
        // Two tenants with the same *chase-plan* ontology and equal-sized
        // stores: the shared plan must not leak one tenant's
        // materialization to the other (the tenant tag namespaces the
        // version token; equal store sizes defeat the size guard, so this
        // test pins the tag logic).
        let program = ontorew_core::examples::example2();
        let registry =
            TenantRegistry::new(program.clone(), Instance::new(), ServiceConfig::default());
        let a = registry.create("a", program.clone()).unwrap();
        let b = registry.create("b", program).unwrap();
        // Same fact count in both tenants, different content.
        a.insert_facts(&[
            Atom::fact("s", &["c", "c", "a"]),
            Atom::fact("t", &["d", "a"]),
        ])
        .unwrap();
        b.insert_facts(&[
            Atom::fact("s", &["x", "y", "z"]),
            Atom::fact("t", &["d", "w"]),
        ])
        .unwrap();
        let q = ontorew_core::examples::example2_query();
        let on_a = a.query(&q).unwrap();
        let on_b = b.query(&q).unwrap();
        assert_eq!(on_a.plan, ontorew_plan::PlanKind::Chase);
        assert!(on_a.answers.as_boolean(), "tenant a derives r(a, _)");
        assert!(!on_b.answers.as_boolean(), "tenant b must not see a's data");
    }

    #[test]
    fn wrapped_registries_inherit_the_service_config() {
        // serve() wraps an embedder-built service; tenants created on the
        // wire must compile under the embedder's budgets, not defaults.
        let custom = ontorew_rewrite::RewriteConfig::default().with_max_queries(7);
        let service = Arc::new(QueryService::new(
            parse_program("[R1] student(X) -> person(X).").unwrap(),
            Instance::new(),
            ServiceConfig {
                rewrite: Some(custom),
                ..ServiceConfig::default()
            },
        ));
        let registry = TenantRegistry::around(Arc::clone(&service));
        let tenant = registry
            .create("hr", parse_program("[R1] a(X) -> b(X).").unwrap())
            .unwrap();
        assert_eq!(tenant.planner().rewrite_config().max_queries, 7);
        assert_eq!(service.planner().rewrite_config().max_queries, 7);
    }

    #[test]
    fn create_validates_names_and_rejects_duplicates() {
        let registry = registry();
        let program = parse_program("[R1] a(X) -> b(X).").unwrap();
        assert!(registry.create("ok-name_1", program.clone()).is_ok());
        assert!(registry.create("ok-name_1", program.clone()).is_err());
        assert!(registry.create("", program.clone()).is_err());
        assert!(registry.create("bad name", program.clone()).is_err());
        assert!(registry.create(&"x".repeat(65), program).is_err());
    }

    #[test]
    fn default_tenant_cannot_be_dropped() {
        let registry = registry();
        assert!(registry.drop_tenant(DEFAULT_TENANT).is_err());
        assert!(registry.drop_tenant("ghost").is_err());
        let program = parse_program("[R1] a(X) -> b(X).").unwrap();
        registry.create("temp", program).unwrap();
        assert_eq!(registry.len(), 2);
        registry.drop_tenant("temp").unwrap();
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn list_reports_every_tenant() {
        let registry = registry();
        let program = parse_program("[R1] a(X) -> b(X).").unwrap();
        registry.create("beta", program).unwrap();
        let rows = registry.list();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "beta");
        assert_eq!(rows[1].name, "default");
        assert_eq!(rows[1].facts, 1);
        assert_ne!(rows[0].program, rows[1].program);
    }

    fn temp_root(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ontorew-registry-{}-{}-{}",
            tag,
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn settings(root: &std::path::Path) -> DurabilitySettings {
        DurabilitySettings {
            root: root.to_path_buf(),
            fsync: FsyncPolicy::Off,
        }
    }

    #[test]
    fn durable_registry_recovers_tenants_and_skips_tombstones() {
        let root = temp_root("recover");
        let program = parse_program("[R1] student(X) -> person(X).").unwrap();
        let mut seed = Instance::new();
        seed.insert_fact("student", &["sara"]);
        {
            let registry = TenantRegistry::recover(
                program.clone(),
                seed,
                ServiceConfig::default(),
                settings(&root),
            )
            .unwrap();
            registry
                .default_tenant()
                .insert_facts(&[Atom::fact("student", &["zoe"])])
                .unwrap();
            let hr = registry
                .create(
                    "hr",
                    parse_program("[R1] worksIn(X, D) -> employee(X).").unwrap(),
                )
                .unwrap();
            hr.insert_facts(&[Atom::fact("worksIn", &["ann", "cs"])])
                .unwrap();
            let tmp = registry
                .create("tmp", parse_program("[R1] a(X) -> b(X).").unwrap())
                .unwrap();
            tmp.insert_facts(&[Atom::fact("a", &["x"])]).unwrap();
            registry.drop_tenant("tmp").unwrap();
        }
        // Restart with a *different* seed: the persisted default must win.
        let registry = TenantRegistry::recover(
            program,
            Instance::new(),
            ServiceConfig::default(),
            settings(&root),
        )
        .unwrap();
        assert_eq!(registry.len(), 2, "tombstoned tenant must stay gone");
        assert!(registry.get("tmp").is_none());
        let q = parse_query("q(X) :- person(X)").unwrap();
        let answers = registry.default_tenant().query(&q).unwrap().answers;
        assert!(answers.contains_constants(&["sara"]));
        assert!(answers.contains_constants(&["zoe"]));
        assert_eq!(registry.default_tenant().snapshot().epoch(), 1);
        // The recovered tenant answers through its *persisted* program.
        let hr = registry.get("hr").unwrap();
        let q = parse_query("q(X) :- employee(X)").unwrap();
        assert!(hr.query(&q).unwrap().answers.contains_constants(&["ann"]));
        assert!(hr.stats().durability.recoveries >= 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn dropped_durable_tenant_can_be_recreated_from_scratch() {
        let root = temp_root("recreate");
        let program = parse_program("[R1] student(X) -> person(X).").unwrap();
        let registry = TenantRegistry::recover(
            program,
            Instance::new(),
            ServiceConfig::default(),
            settings(&root),
        )
        .unwrap();
        let beta_program = parse_program("[R1] a(X) -> b(X).").unwrap();
        let beta = registry.create("beta", beta_program.clone()).unwrap();
        beta.insert_facts(&[Atom::fact("a", &["old"])]).unwrap();
        registry.drop_tenant("beta").unwrap();
        // Recreating the name starts empty — no ghost of the old store.
        let beta = registry.create("beta", beta_program).unwrap();
        assert_eq!(beta.snapshot().len(), 0);
        assert_eq!(beta.snapshot().epoch(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn retraction_counters_are_per_tenant() {
        let registry = registry();
        let program = parse_program("[R1] a(X) -> b(X).").unwrap();
        let beta = registry.create("beta", program).unwrap();
        beta.insert_facts(&[Atom::fact("a", &["x"])]).unwrap();
        beta.delete_facts(&[Atom::fact("a", &["x"])]).unwrap();
        beta.delete_facts(&[Atom::fact("a", &["ghost"])]).unwrap();
        let rows = registry.list();
        assert_eq!(rows[0].name, "beta");
        assert_eq!(rows[0].retractions, 2);
        assert_eq!(rows[1].retractions, 0, "default tenant never deleted");
    }
}
