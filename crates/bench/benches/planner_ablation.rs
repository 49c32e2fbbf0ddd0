//! E11 (ablation): what the evaluator's choices buy on the OBDA hot path —
//! atoms ordered by relation size or by collected statistics, and the join
//! strategy forced to backtracking or to the generic join — measured on a
//! rewritten query over the sensor-network suite.
//!
//! The rewriting-based answering loop of E8 evaluates every disjunct of the
//! rewriting over the extensional store; this ablation isolates that
//! evaluation step and varies `EvalConfig::statistics` and
//! `EvalConfig::strategy`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ontorew_model::parse_query;
use ontorew_rewrite::{rewrite, RewriteConfig};
use ontorew_storage::{evaluate_cq_instrumented, EvalConfig, JoinStrategy, StoreStatistics};
use ontorew_workloads::{sensor_network_abox, sensor_network_ontology};

/// The configurations compared: atom order by relation size or by
/// statistics, and each join strategy forced.
fn configs(stats: &StoreStatistics) -> [(&'static str, EvalConfig<'_>); 4] {
    [
        ("size-ordered", EvalConfig::default()),
        (
            "statistics-ordered",
            EvalConfig {
                statistics: Some(stats),
                ..EvalConfig::default()
            },
        ),
        (
            "forced-backtracking",
            EvalConfig {
                strategy: Some(JoinStrategy::Backtracking),
                ..EvalConfig::default()
            },
        ),
        (
            "forced-generic-join",
            EvalConfig {
                strategy: Some(JoinStrategy::GenericJoin),
                ..EvalConfig::default()
            },
        ),
    ]
}

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
        let configs = configs(&stats);
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
    let cases = configs(&stats);
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
