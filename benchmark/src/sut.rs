//! The system under test: every public entry point of the repository that the
//! benchmark calls, and nothing else.
//!
//! No other file of this package names an `ontorew_*` crate (a test checks
//! it). Later changes may not edit `benchmark/`, so the signatures of the
//! items listed here must stay source-compatible; a change that has to break
//! one is a benchmark change of its own, with the baseline measured again.
//!
//! * serving: `serve_registry`, `ServerConfig.workers`, `ServerHandle::{addr,
//!   shutdown}`, `ServeClient::{connect, query, insert, delete, why,
//!   tenant_create, tenant_use, tenant_drop, quit}`, `QueryReply.{count, rows,
//!   plan, strategy, exact}`, `TenantRegistry::{new, recover, default_tenant,
//!   get, create, drop_tenant, cache_stats}`, `DurabilitySettings`,
//!   `ServiceConfig::default`, `QueryService::{key_of, prepare, query,
//!   insert_facts, delete_facts, explain_fact, snapshot}`, `Prepared.{prepared,
//!   cache_hit, plan_kind}`, `QueryResponse.{answers, plan, provenance}`,
//!   `Snapshot::{store, epoch}`, `EpochStore::{new, commit_facts}`,
//!   `Compactor::{start, stats, shutdown}`, `CompactorConfig::default`,
//!   `proto::{parse_request, Request, encode_cell}`;
//! * planning: `Planner::new`, `PreparedQuery::execute_versioned`,
//!   `PlanKind::label`, `Execution.{answers, provenance}`,
//!   `Provenance.{strategy, timings}`, `StrategyTaken` (its `Display`);
//! * the paper's machinery: `classify`, `is_swr`, `is_wr`, `check_wr`
//!   (`WrReport.graph_size`), `rewrite`, `RewriteConfig::for_program`,
//!   `Rewriting.{ucq, stats, len}`, `rewrite_goal_driven`,
//!   `MagicProgram.{program, seeds}`, `chase`, `chase_incremental`,
//!   `chase_retract`, `ChaseConfig::{default, with_provenance}`,
//!   `ChaseResult.{instance, rounds, provenance, is_universal_model}`,
//!   `IncrementalChase.added`, `RetractedChase.{removed, overdeleted,
//!   scratch}`, `DerivationGraph::why`, `certain_answers`;
//! * evaluation and storage: `RelationalStore::{new, from_instance, freeze,
//!   contains_atom, clone}`, `evaluate_cq`, `evaluate_cq_instrumented`,
//!   `EvalConfig`, `EvalStats.{rows_fetched, answers_emitted}`, `JoinStrategy`,
//!   `StoreStatistics::collect`, `estimate_join_cost` (`JoinCost::strategy`),
//!   `AnswerSet::{iter, len, without_nulls}`;
//! * durability: `FsyncPolicy::Always`, `Wal::{open, append}`, `WalRecord`,
//!   `WalOpKind`, `TenantStorage::{create, open, checkpoint}`,
//!   `RecoveredTenant.replayed`, `Manifest::read` (`segments[].{file, bytes,
//!   crc}`), `read_segment`, and the layout of a data directory:
//!   `<root>/default/{MANIFEST, wal.log, segments/}`;
//! * model and data: `parse_query`, `Atom::fact`, `Term::as_constant`,
//!   `Instance::{new, insert, atoms, tuples, len, clone}`, `Predicate::new`,
//!   `TgdProgram::{from_rules, iter, len, clone}` and its `Display` (one rule
//!   per line, the text `TENANT CREATE` takes), `ConjunctiveQuery.body`; the
//!   workload suites `university_ontology`, `university_abox`,
//!   `registrar_ontology`, `registrar_abox`, `social_graph_ontology`,
//!   `social_graph_abox`, `chain_program`, `star_program`, `hierarchy_program`;
//! * telemetry (read only): the `global_registry` counters
//!   `wal_append_bytes_total`, `checkpoints_total`,
//!   `chase_triggers_found_total`, `chase_triggers_fired_total` and the
//!   histogram `wal_fsync_seconds`; `install_collector` / `take_collector` to
//!   switch the program's own span collection on for the traced run.

pub use ontorew_chase::{certain_answers, chase, chase_incremental, chase_retract, ChaseConfig};
pub use ontorew_core::examples::university_ontology;
pub use ontorew_core::{check_wr, classify, is_swr, is_wr};
pub use ontorew_magic::rewrite_goal_driven;
pub use ontorew_model::{
    parse_query, Atom, ConjunctiveQuery, Instance, Predicate, Term, TgdProgram,
};
pub use ontorew_plan::{Planner, StrategyTaken};
pub use ontorew_rewrite::{rewrite, RewriteConfig};
pub use ontorew_serve::proto::{encode_cell, parse_request, Request};
pub use ontorew_serve::{
    serve_registry, Compactor, CompactorConfig, DurabilitySettings, EpochStore, QueryService,
    ServeClient, ServerConfig, ServerHandle, ServiceConfig, TenantRegistry,
};
pub use ontorew_storage::persist::{
    read_segment, Manifest, TenantStorage, Wal, WalOpKind, WalRecord,
};
pub use ontorew_storage::{
    estimate_join_cost, evaluate_cq, evaluate_cq_instrumented, AnswerSet, EvalConfig, FsyncPolicy,
    JoinStrategy, RelationalStore, StoreStatistics,
};
pub use ontorew_telemetry::{global_registry, install_collector, take_collector};
pub use ontorew_workloads::{
    chain_program, hierarchy_program, registrar_abox, registrar_ontology, social_graph_abox,
    social_graph_ontology, star_program, university_abox,
};

#[cfg(test)]
mod tests {
    /// The API surface is pinned in one place: no other source file may name
    /// a crate of the repository.
    #[test]
    fn only_this_file_names_the_crates_under_test() {
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        for entry in std::fs::read_dir(src).unwrap() {
            let path = entry.unwrap().path();
            if path.file_name().unwrap() == "sut.rs" {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let crate_prefix = ["ontorew", "_"].concat();
            let offenders: Vec<&str> = text
                .lines()
                .filter(|l| l.contains(&crate_prefix) && !l.contains("ontorew_benchmark"))
                .collect();
            assert!(offenders.is_empty(), "{}: {offenders:?}", path.display());
        }
    }
}
