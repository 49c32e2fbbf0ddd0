//! The benchmark's metrics by name: unit, direction, regression bound, and for
//! every per-layer metric the end-to-end metric and workload it is predicted
//! to move. `BENCHMARK.json` is generated from these tables.

use crate::workload::SPECS;
use std::collections::BTreeMap;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 12;

/// Metric values of one run, by metric name.
pub type Values = BTreeMap<&'static str, f64>;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Every bound is the contract's maximum. On this sandbox a run is up to a
/// quarter slower than the same run ten minutes earlier, for minutes at a time
/// and on every workload at once (see the README's spread table), so a tighter
/// bound would reject the benchmark's own repeat.
///
/// Every end-to-end metric is reported on every workload and is never zero.
/// The issue's workload-specific metrics (commit, onboarding, recovery and
/// disk-amplification numbers, and `fail_share`, which is zero when all is
/// well) therefore live among the per-layer metrics; failures are carried by
/// the `failed`/`attempted` counts of the result line.
#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd { name: "ops_per_s", unit: "ops/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "query_p50_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "query_p99_us", unit: "us", better: "lower", bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower", bound: 0.25 },
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// What is timed or read to get it.
    pub source: &'static str,
    /// `(end-to-end metric, workload)` pairs an improvement should move.
    pub moves: &'static [(&'static str, &'static str)],
    /// Workloads on which the prediction is no change.
    pub unchanged: &'static [&'static str],
}

const HOT: &str = "univ-hot-read";
const CHURN: &str = "univ-churn-compile";
const GOAL: &str = "registrar-goal-read";
const CRUD: &str = "registrar-crud-durable";
const SOCIAL: &str = "social-cyclic-join";

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    source: &'static str,
    moves: &'static [(&'static str, &'static str)],
    unchanged: &'static [&'static str],
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        source,
        moves,
        unchanged,
    }
}

const WIRE: &[(&str, &str)] = &[
    ("query_p50_us", HOT),
    ("ops_per_s", HOT),
    ("ops_per_s", SOCIAL),
];
const CACHE: &[(&str, &str)] = &[("query_p99_us", CHURN)];
const COMPILE: &[(&str, &str)] = &[("query_p99_us", CHURN), ("ops_per_s", CHURN)];
const ONBOARD: &[(&str, &str)] = &[("ops_per_s", CHURN), ("setup_s", HOT)];
const EVAL: &[(&str, &str)] = &[("query_p50_us", HOT), ("query_p99_us", CRUD)];
const JOIN: &[(&str, &str)] = &[("ops_per_s", SOCIAL), ("query_p50_us", SOCIAL)];
const MAGIC: &[(&str, &str)] = &[("query_p50_us", GOAL), ("ops_per_s", GOAL)];
const CHASE: &[(&str, &str)] = &[("query_p99_us", GOAL), ("setup_s", GOAL), ("setup_s", CRUD)];
const MAINTAIN: &[(&str, &str)] = &[("query_p99_us", CRUD), ("ops_per_s", CRUD)];
const COMMIT: &[(&str, &str)] = &[("ops_per_s", CRUD)];
const RECOVER: &[(&str, &str)] = &[("setup_s", CRUD)];
const UNIV: &[&str] = &[HOT, CHURN];
const IN_MEMORY: &[&str] = &[HOT, CHURN, GOAL, SOCIAL];
const NOT_SOCIAL: &[&str] = &[HOT, CHURN, GOAL, CRUD];

#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 64] = [
    layer("workloads.abox_gen_s", "s", "lower", "the workload's ABox generator", &[("setup_s", HOT)], &[]),
    layer("serve.wire_overhead_us", "us", "lower", "TCP query p50 minus in-process QueryService::query p50", WIRE, &[]),
    layer("serve.proto.parse_request_us", "us", "lower", "proto::parse_request on each replayed request line", WIRE, &[]),
    layer("serve.proto.render_us_per_row", "us/row", "lower", "encode_cell over the reply rows", WIRE, &[]),
    layer("serve.cache.hit_rate", "ratio", "higher", "TenantRegistry::cache_stats over the window", CACHE, &[HOT]),
    layer("serve.cache.evictions", "count", "lower", "TenantRegistry::cache_stats over the window", CACHE, &[HOT]),
    layer("serve.cache.lookup_us", "us", "lower", "QueryService::prepare on a hit", CACHE, &[]),
    layer("rewrite.fingerprint_us", "us", "lower", "QueryService::key_of", &[("query_p50_us", HOT)], &[]),
    layer("plan.prepare_us", "us", "lower", "QueryService::prepare on a miss (Planner::prepare)", COMPILE, &[HOT, GOAL, CRUD]),
    layer("rewrite.rewrite_us", "us", "lower", "rewrite on the workload's query sample", COMPILE, &[HOT, GOAL, CRUD]),
    layer("rewrite.disjuncts_per_query", "count", "lower", "Rewriting::len", COMPILE, &[HOT, GOAL, CRUD]),
    layer("rewrite.generated_per_kept", "ratio", "lower", "RewriteStats generated / final_disjuncts", COMPILE, &[HOT, GOAL, CRUD]),
    layer("plan.new_us", "us", "lower", "Planner::new on the onboarded programs", ONBOARD, &[]),
    layer("core.classify_us", "us", "lower", "classify on the onboarded programs", ONBOARD, &[]),
    layer("core.swr_check_us", "us", "lower", "is_swr on the onboarded programs", ONBOARD, &[]),
    layer("core.wr_check_us", "us", "lower", "is_wr on the onboarded programs", ONBOARD, &[]),
    layer("core.pnode_nodes", "count", "lower", "check_wr graph_size (P-node graph nodes)", ONBOARD, &[]),
    layer("plan.execute_us", "us", "lower", "PreparedQuery::execute_versioned", EVAL, &[]),
    layer("plan.goal_driven_share", "ratio", "higher", "share of selective replies with strategy=goal-driven", MAGIC, UNIV),
    layer("storage.eval_us", "us", "lower", "Provenance.timings.evaluate_us of each execution", EVAL, &[]),
    layer("storage.rows_examined_per_answer", "ratio", "lower", "evaluate_cq_instrumented EvalStats rows_fetched / answers_emitted", EVAL, &[]),
    layer("storage.stats_us", "us", "lower", "StoreStatistics::collect", EVAL, &[]),
    layer("unify.backtrack_us.triangle", "us", "lower", "evaluate_cq_instrumented, forced Backtracking", JOIN, NOT_SOCIAL),
    layer("unify.backtrack_us.clique4", "us", "lower", "evaluate_cq_instrumented, forced Backtracking", JOIN, NOT_SOCIAL),
    layer("unify.backtrack_us.path2", "us", "lower", "evaluate_cq_instrumented, forced Backtracking", JOIN, NOT_SOCIAL),
    layer("unify.generic_join_us.triangle", "us", "lower", "evaluate_cq_instrumented, forced GenericJoin", JOIN, NOT_SOCIAL),
    layer("unify.generic_join_us.clique4", "us", "lower", "evaluate_cq_instrumented, forced GenericJoin", JOIN, NOT_SOCIAL),
    layer("unify.generic_join_us.path2", "us", "lower", "evaluate_cq_instrumented, forced GenericJoin", JOIN, NOT_SOCIAL),
    layer("storage.cost_pick_correct_share", "ratio", "higher", "estimate_join_cost pick vs the measured winner", JOIN, NOT_SOCIAL),
    layer("magic.rewrite_us", "us", "lower", "rewrite_goal_driven", MAGIC, UNIV),
    layer("magic.restricted_chase_us", "us", "lower", "chase of the adorned program over data + seeds", MAGIC, UNIV),
    layer("magic.restricted_facts_per_full_facts", "ratio", "lower", "restricted chase facts / full chase facts", MAGIC, UNIV),
    layer("chase.full_us", "us", "lower", "chase with provenance, as the serving layer runs it", CHASE, UNIV),
    layer("chase.rounds", "count", "lower", "ChaseResult::rounds", CHASE, UNIV),
    layer("chase.triggers_fired_per_found", "ratio", "higher", "chase_triggers_fired_total / chase_triggers_found_total", CHASE, UNIV),
    layer("chase.provenance_overhead_share", "ratio", "lower", "chase with vs without with_provenance(true)", CHASE, UNIV),
    layer("chase.incremental_us_per_commit", "us", "lower", "chase_incremental of one inserted fact", MAINTAIN, IN_MEMORY),
    layer("chase.retract_us_per_commit", "us", "lower", "chase_retract of one base fact", MAINTAIN, IN_MEMORY),
    layer("chase.overdeleted_per_deleted", "ratio", "lower", "RetractedChase overdeleted / removed", MAINTAIN, IN_MEMORY),
    layer("chase.why_us", "us", "lower", "DerivationGraph::why", MAINTAIN, IN_MEMORY),
    layer("serve.snapshot.commit_us", "us", "lower", "EpochStore::commit_facts of one fact", COMMIT, IN_MEMORY),
    layer("model.freeze_us", "us", "lower", "RelationalStore::freeze of the loaded store", COMMIT, IN_MEMORY),
    layer("model.insert_us_per_fact", "us/fact", "lower", "Instance::insert over the base facts", COMMIT, IN_MEMORY),
    layer("storage.persist.wal_append_us", "us", "lower", "Wal::append of a one-fact record, fsync always", COMMIT, IN_MEMORY),
    layer("storage.persist.wal_fsyncs_per_commit", "ratio", "lower", "wal_fsync_seconds count / appends", COMMIT, IN_MEMORY),
    layer("storage.persist.wal_bytes_per_commit", "bytes", "lower", "Wal::append log growth / appends", COMMIT, IN_MEMORY),
    layer("storage.persist.checkpoint_us", "us", "lower", "TenantStorage::checkpoint of the loaded store", COMMIT, IN_MEMORY),
    layer("storage.persist.segment_bytes", "bytes", "lower", "bytes of the segment files a checkpoint writes", COMMIT, IN_MEMORY),
    layer("serve.durability.compactions", "count", "lower", "Compactor::stats checkpoints during the window", COMMIT, IN_MEMORY),
    layer("storage.persist.open_us", "us", "lower", "TenantStorage::open of the window's data directory", RECOVER, IN_MEMORY),
    layer("storage.persist.replayed_records", "count", "lower", "RecoveredTenant::replayed", RECOVER, IN_MEMORY),
    layer("storage.persist.read_segment_us_per_mb", "us/MB", "lower", "read_segment over the manifest's segments", RECOVER, IN_MEMORY),
    layer("model.parse_query_us", "us", "lower", "parse_query on the workload's query sample", &[("query_p50_us", HOT)], &[]),
    layer("telemetry.trace_overhead_share", "ratio", "lower", "(traced replay - untraced replay) / untraced replay, same ops", &[], &[]),
    layer("trace.program_spans_per_op", "count", "lower", "spans the program's own collector gathered per replayed op", &[], &[]),
    layer("inprocess.query_p50_us", "us", "lower", "QueryService::query in the untraced replay", &[("query_p50_us", HOT)], &[]),
    layer("commit_p50_us", "us", "lower", "INSERT/DELETE acknowledgement over the wire", COMMIT, IN_MEMORY),
    layer("commit_p99_us", "us", "lower", "INSERT/DELETE acknowledgement over the wire (tail)", COMMIT, IN_MEMORY),
    layer("read_after_write_p50_us", "us", "lower", "first broad QUERY on a connection after its own commit", MAINTAIN, IN_MEMORY),
    layer("onboard_p50_ms", "ms", "lower", "TENANT CREATE acknowledgement over the wire", &[("ops_per_s", CHURN)], &[HOT, GOAL, CRUD, SOCIAL]),
    layer("recovery_ms", "ms", "lower", "TenantRegistry::recover of a copy of the data directory, median of 7", RECOVER, IN_MEMORY),
    layer("first_query_after_recovery_ms", "ms", "lower", "first broad query after each recovery, median of 7", RECOVER, IN_MEMORY),
    layer("disk_bytes_per_user_byte", "ratio", "lower", "WAL + segment bytes written / bytes of inserted fact text", COMMIT, IN_MEMORY),
    layer("fail_share", "ratio", "lower", "failed / attempted over the traced run; any rise is a regression", &[], &[]),
];

fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = SPECS
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_string(s.name),
                json_string(s.why)
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better),
                m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_string(m.name),
                json_string(m.unit),
                json_string(m.better)
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// `{"name": {"value": v, "unit": "u"}, ...}` for the result line. A metric
/// without a value reads 0: the layer was not exercised by this workload.
pub fn metrics_json<'a>(
    names: impl Iterator<Item = (&'a str, &'a str)>,
    values: &Values,
) -> String {
    let fields: Vec<String> = names
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_string(name),
                json_string(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn well_formed(name: &str, max: usize, extra: &str) -> bool {
        !name.is_empty()
            && name.len() <= max
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = BTreeSet::new();
        let names = END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, m.better))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit, m.better)));
        for (name, unit, better) in names {
            assert!(well_formed(name, 64, "_.-"), "name {name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "name {name}"
            );
            assert!(well_formed(unit, 16, "_/%.-"), "unit {unit}");
            assert!(matches!(better, "lower" | "higher"), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
        for spec in &SPECS {
            assert!(well_formed(spec.name, 64, "_.-"));
            assert!(seen.insert(spec.name), "{} is used twice", spec.name);
            assert!(
                spec.why.len() <= 200 && !spec.why.contains('\n'),
                "{}",
                spec.name
            );
        }
        assert!((2..=8).contains(&SPECS.len()));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!((1..=60).contains(&RUN_SECONDS));
    }

    #[test]
    fn bounds_are_legal_and_setup_has_the_largest() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "{}", m.name);
        }
    }

    #[test]
    fn every_predicted_link_names_an_end_to_end_metric_and_a_workload() {
        let metrics: BTreeSet<&str> = END_TO_END.iter().map(|m| m.name).collect();
        let workloads: BTreeSet<&str> = SPECS.iter().map(|s| s.name).collect();
        for m in &PER_LAYER {
            for (metric, workload) in m.moves {
                assert!(metrics.contains(metric), "{}: {metric}", m.name);
                assert!(workloads.contains(workload), "{}: {workload}", m.name);
                assert!(
                    !m.unchanged.contains(workload),
                    "{}: {workload} both ways",
                    m.name
                );
            }
            for workload in m.unchanged {
                assert!(workloads.contains(workload), "{}: {workload}", m.name);
            }
        }
    }

    #[test]
    fn the_checked_in_manifest_is_the_generated_one() {
        assert_eq!(include_str!("../../BENCHMARK.json"), manifest());
        assert!(manifest().len() <= 64 * 1024);
    }

    #[test]
    fn the_readme_explains_every_metric_and_workload() {
        let readme = include_str!("../README.md");
        for name in END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(readme.contains(&format!("`{name}`")), "README lacks {name}");
        }
        for spec in &SPECS {
            assert!(
                readme.contains(&format!("`{}`", spec.name)),
                "README lacks {}",
                spec.name
            );
        }
    }

    #[test]
    fn result_metrics_default_to_zero_and_escape_nothing_odd() {
        let mut values = Values::new();
        values.insert("ops_per_s", 12.5);
        let json = metrics_json(
            [("ops_per_s", "ops/s"), ("query_p50_us", "us")].into_iter(),
            &values,
        );
        assert_eq!(
            json,
            "{\"ops_per_s\": {\"value\": 12.5, \"unit\": \"ops/s\"}, \"query_p50_us\": {\"value\": 0, \"unit\": \"us\"}}"
        );
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
    }
}
