//! E11 (ablation): what the evaluator's optimisations buy on the OBDA hot
//! path — greedy join reordering and lazy per-column hash indexes — measured
//! on a rewritten query over the sensor-network suite.
//!
//! The rewriting-based answering loop of E8 evaluates every disjunct of the
//! rewriting over the extensional store; this ablation isolates that
//! evaluation step and toggles `EvalConfig::reorder_atoms` /
//! `EvalConfig::use_indexes`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ontorew_model::parse_query;
use ontorew_rewrite::{rewrite, RewriteConfig};
use ontorew_storage::{evaluate_cq_instrumented, EvalConfig, StoreStatistics};
use ontorew_workloads::{sensor_network_abox, sensor_network_ontology};

fn bench(c: &mut Criterion) {
    let ontology = sensor_network_ontology();
    let query = parse_query("q(A, S) :- implicates(A, S), criticalAlarm(A)").unwrap();
    let rewriting = rewrite(&ontology, &query, &RewriteConfig::default());

    println!("E11: evaluator ablation on q(A, S) :- implicates(A, S), criticalAlarm(A)");
    println!("data size   config                      rows fetched   answers");
    for &measurements in &[1_000usize, 5_000, 20_000] {
        let data = sensor_network_abox(measurements / 50 + 10, 8, measurements, 7);
        let store = data;
        let stats = StoreStatistics::collect(&store);
        let configs: [(&str, EvalConfig<'_>); 4] = [
            (
                "baseline (no planner/index)",
                EvalConfig {
                    reorder_atoms: false,
                    use_indexes: false,
                    ..EvalConfig::default()
                },
            ),
            (
                "indexes only",
                EvalConfig {
                    reorder_atoms: false,
                    use_indexes: true,
                    ..EvalConfig::default()
                },
            ),
            ("planner + indexes", EvalConfig::default()),
            (
                "planner + indexes + stats",
                EvalConfig {
                    statistics: Some(&stats),
                    ..EvalConfig::default()
                },
            ),
        ];
        for (label, config) in &configs {
            let mut fetched = 0usize;
            let mut answers = 0usize;
            for disjunct in rewriting.ucq.iter() {
                let (rows, counters) = evaluate_cq_instrumented(&store, disjunct, config);
                fetched += counters.rows_fetched;
                answers = answers.max(rows.len());
            }
            println!("{measurements:>9}   {label:<27} {fetched:>12}   {answers:>7}");
        }
    }

    let data = sensor_network_abox(200, 8, 10_000, 7);
    let store = data;
    let stats = StoreStatistics::collect(&store);
    let mut group = c.benchmark_group("planner_ablation");
    group.sample_size(20);
    let cases: [(&str, EvalConfig<'_>); 3] = [
        (
            "no_planner_no_index",
            EvalConfig {
                reorder_atoms: false,
                use_indexes: false,
                ..EvalConfig::default()
            },
        ),
        ("planner_index", EvalConfig::default()),
        (
            "planner_index_stats",
            EvalConfig {
                statistics: Some(&stats),
                ..EvalConfig::default()
            },
        ),
    ];
    for (label, config) in cases {
        group.bench_with_input(BenchmarkId::new("ucq_eval", label), &config, |b, cfg| {
            b.iter(|| {
                let mut total = 0usize;
                for disjunct in rewriting.ucq.iter() {
                    let (rows, _) =
                        evaluate_cq_instrumented(std::hint::black_box(&store), disjunct, cfg);
                    total += rows.len();
                }
                total
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
