//! E12: the serving layer — uncached `answer_by_rewriting` versus the
//! prepared-query cache path of `ontorew-serve`, on the university workload.

use criterion::{criterion_group, criterion_main, Criterion};
use ontorew_core::examples::university_ontology;
use ontorew_rewrite::{answer_by_rewriting, RewriteConfig};
use ontorew_serve::{QueryService, ServiceConfig};
use ontorew_workloads::university_abox;

fn bench(c: &mut Criterion) {
    println!("{}", ontorew_bench::experiment_serve_throughput(500, 20, 2));

    let ontology = university_ontology();
    let data = university_abox(2_000, 201, 401, 17);
    let store = data;
    let queries = ontorew_bench::serving_query_mix();
    let service = QueryService::new(ontology.clone(), store.clone(), ServiceConfig::default());
    // Warm the cache so the served path measures the steady state.
    for q in &queries {
        service.query(q).expect("warmup");
    }

    let mut group = c.benchmark_group("serve_throughput");
    group.sample_size(10);
    group.bench_function("uncached_mix", |b| {
        b.iter(|| {
            for q in &queries {
                answer_by_rewriting(&ontology, q, &store, &RewriteConfig::default());
            }
        })
    });
    group.bench_function("served_warm_mix", |b| {
        b.iter(|| {
            for q in &queries {
                service.query(q).expect("served");
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
