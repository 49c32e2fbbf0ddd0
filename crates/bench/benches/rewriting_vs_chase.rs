//! E8: end-to-end query answering — rewriting + evaluation versus chase
//! materialization — on the university workload, sweeping the data size.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ontorew_chase::{certain_answers, ChaseConfig};
use ontorew_core::examples::{university_ontology, university_query};
use ontorew_rewrite::{answer_by_rewriting, rewrite, RewriteConfig};
use ontorew_workloads::university_abox;

fn bench(c: &mut Criterion) {
    println!(
        "{}",
        ontorew_bench::experiment_rewriting_vs_chase(&[50, 200])
    );

    let ontology = university_ontology();
    let query = university_query();
    // The rewriting itself (independent of the data size).
    c.bench_function("rewriting_vs_chase/rewrite_only", |b| {
        b.iter(|| rewrite(&ontology, &query, &RewriteConfig::default()))
    });

    let mut group = c.benchmark_group("rewriting_vs_chase/answer");
    group.sample_size(10);
    for students in [100usize, 500, 2_000] {
        let data = university_abox(students, students / 10 + 1, students / 5 + 1, 17);
        group.throughput(Throughput::Elements(data.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("rewriting", students),
            &students,
            |b, _| {
                b.iter(|| answer_by_rewriting(&ontology, &query, &data, &RewriteConfig::default()))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("materialization", students),
            &students,
            |b, _| b.iter(|| certain_answers(&ontology, &data, &query, &ChaseConfig::default())),
        );
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
