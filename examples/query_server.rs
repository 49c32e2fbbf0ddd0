//! Serve ontological queries over TCP, in process: spawn the query server,
//! drive it with the blocking client, and watch the prepared-query cache
//! amortise the rewriting.
//!
//! ```text
//! cargo run --example query_server
//! ```

use ontorew::core::examples::university_ontology;
use ontorew::model::Instance;
use ontorew::serve::{serve, QueryService, ServeClient, ServerConfig, ServiceConfig};
use std::sync::Arc;

fn main() {
    // A service over the university ontology with a handful of facts.
    let mut store = Instance::new();
    store.insert_fact("professor", &["alice"]);
    store.insert_fact("teaches", &["alice", "db101"]);
    store.insert_fact("attends", &["sara", "db101"]);
    store.insert_fact("phdStudent", &["gina"]);
    store.insert_fact("advisedBy", &["gina", "alice"]);
    let service = Arc::new(QueryService::new(
        university_ontology(),
        store,
        ServiceConfig::default(),
    ));

    // Bind an ephemeral port and connect a client to it.
    let handle = serve(Arc::clone(&service), ServerConfig::default()).expect("server binds");
    println!("server listening on {}", handle.addr());
    let mut client = ServeClient::connect(handle.addr()).expect("client connects");

    // First time a query shape is seen, the UCQ rewriting is compiled...
    let q = "q(X) :- person(X)";
    let cold = client.query(q).expect("cold query");
    println!(
        "cold  {q}: {} answers (cache {})",
        cold.count,
        if cold.cache_hit { "hit" } else { "miss" }
    );
    for row in &cold.rows {
        println!("      -> {}", row.join(", "));
    }

    // ... every α-renamed / atom-permuted variant after that skips straight
    // to evaluation.
    for variant in ["q(X) :- person(X)", "people(Someone) :- person(Someone)"] {
        let warm = client.query(variant).expect("warm query");
        println!(
            "warm  {variant}: {} answers (cache {})",
            warm.count,
            if warm.cache_hit { "hit" } else { "miss" }
        );
    }

    // Ingestion swaps a new snapshot epoch; readers never block.
    let (added, epoch) = client
        .insert("student(zoe); attends(zoe, db101)")
        .expect("insert");
    println!("insert: {added} facts added, now at epoch {epoch}");
    let after = client.query(q).expect("query after insert");
    println!(
        "warm  {q}: {} answers at epoch {}",
        after.count, after.epoch
    );

    // EXPLAIN dumps the plan the cache is serving (the university ontology
    // is FO-rewritable *and* weakly acyclic, so the planner compiled a
    // hybrid plan).
    let explained = client.explain(q).expect("explain");
    println!(
        "explain {q}: plan={} ({} info lines)",
        explained
            .fields
            .get("plan")
            .map(String::as_str)
            .unwrap_or("?"),
        explained.info.len()
    );

    // One server can host many ontologies: tenants have isolated stores and
    // planners, but share the prepared-plan cache.
    client
        .tenant_create("hr", "[H1] worksIn(X, D) -> employee(X).")
        .expect("tenant create");
    client.tenant_use("hr").expect("tenant use");
    client.insert("worksIn(ann, cs)").expect("tenant insert");
    let hr = client.query("q(X) :- employee(X)").expect("tenant query");
    println!("tenant hr: {} employees (isolated from default)", hr.count);
    client.tenant_use("default").expect("back to default");

    // The service-side view of all of this.
    let stats = service.stats();
    println!(
        "stats: {} queries, cache {} hits / {} misses (hit rate {:.0}%), p50 {}us",
        stats.queries,
        stats.cache.hits,
        stats.cache.misses,
        stats.cache.hit_rate() * 100.0,
        stats.latency.p50_us
    );

    client.quit().expect("quit");
    handle.shutdown();
    println!("server stopped");
}
