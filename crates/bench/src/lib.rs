//! # ontorew-bench
//!
//! The benchmark harness that regenerates every figure and experiment
//! (E1–E16). Each experiment is available both as a Criterion bench target
//! (`cargo bench -p ontorew-bench`) and as a plain function used by the
//! `run_experiments` binary, which prints the tables (or, with `--json`,
//! NDJSON consumed by `scripts/record_baseline.sh`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use ontorew_chase::{certain_answers, chase, ChaseConfig, ChaseStrategy};
use ontorew_core::examples::{
    example1, example2, example2_query, example3, university_ontology, university_query,
};
use ontorew_core::{
    check_wr_with, classify, is_swr, PNodeGraph, PNodeGraphConfig, PositionGraph, WrVerdict,
};
use ontorew_model::parse_query;
use ontorew_model::prelude::*;
use ontorew_obda::{cross_check, ObdaSystem, Strategy};
use ontorew_rewrite::{
    answer_by_rewriting, approximate_rewrite, rewrite, rewriting_growth, RewriteConfig,
};
use ontorew_workloads::{
    chain_program, hierarchy_program, random_program, star_program, university_abox,
    RandomProgramConfig,
};
use std::fmt::Write as _;
use std::time::Instant;

/// E1 — Figure 1: build the position graph of Example 1 and report its shape
/// and the SWR verdict. Returns the printable table.
pub fn experiment_fig1() -> String {
    let program = example1();
    let graph = PositionGraph::build(&program);
    let mut out = String::new();
    writeln!(out, "E1 / Figure 1 — position graph of Example 1").unwrap();
    writeln!(
        out,
        "nodes={} edges={} m-edges={} s-edges={} dangerous-cycle={} SWR={}",
        graph.node_count(),
        graph.edge_count(),
        graph.m_edge_count(),
        graph.s_edge_count(),
        graph.has_dangerous_cycle(),
        is_swr(&program)
    )
    .unwrap();
    for (from, to, labels) in graph.edges() {
        let labels: Vec<String> = labels.iter().map(|l| format!("{l:?}")).collect();
        writeln!(out, "  {from} -> {to} [{}]", labels.join(",")).unwrap();
    }
    out
}

/// E2 — Figure 2 + the unbounded rewriting of Example 2: position-graph shape
/// plus the growth of the rewriting with the depth bound.
pub fn experiment_fig2(depths: &[usize]) -> String {
    let program = example2();
    let graph = PositionGraph::build(&program);
    let mut out = String::new();
    writeln!(
        out,
        "E2 / Figure 2 — position graph of Example 2 + rewriting growth"
    )
    .unwrap();
    writeln!(
        out,
        "position graph: nodes={} edges={} s-edges={} dangerous-cycle={} (the false negative)",
        graph.node_count(),
        graph.edge_count(),
        graph.s_edge_count(),
        graph.has_dangerous_cycle()
    )
    .unwrap();
    writeln!(out, "depth  generated-CQs  complete").unwrap();
    for (depth, generated, complete) in rewriting_growth(&program, &example2_query(), depths) {
        writeln!(out, "{depth:>5}  {generated:>13}  {complete}").unwrap();
    }
    out
}

/// E3 — Figure 3: build the P-node graph of Example 2 and report the
/// dangerous cycle and the WR verdict.
pub fn experiment_fig3() -> String {
    let program = example2();
    let graph = PNodeGraph::build(&program, &PNodeGraphConfig::default());
    let report = ontorew_core::check_wr(&program);
    let mut out = String::new();
    writeln!(out, "E3 / Figure 3 — P-node graph of Example 2").unwrap();
    writeln!(
        out,
        "nodes={} edges={} dangerous-cycle={} WR-verdict={:?}",
        graph.node_count(),
        graph.edge_count(),
        graph.has_dangerous_cycle(),
        report.verdict
    )
    .unwrap();
    if let Some(nodes) = graph.dangerous_nodes() {
        writeln!(out, "dangerous SCC:").unwrap();
        for n in nodes {
            writeln!(out, "  {n}").unwrap();
        }
    }
    out
}

/// E4 — Example 3: membership in every class (the separation the paper uses
/// to motivate WR).
pub fn experiment_example3() -> String {
    let report = classify(&example3());
    let mut out = String::new();
    writeln!(out, "E4 / Example 3 — class separation").unwrap();
    writeln!(
        out,
        "linear={} multilinear={} sticky={} sticky-join(adv.)={} SWR={} WR={:?} FO-rewritable={}",
        report.linear,
        report.multilinear,
        report.sticky,
        report.sticky_join,
        report.swr.is_swr,
        report.wr.verdict,
        report.fo_rewritable()
    )
    .unwrap();
    out
}

/// E5 — class subsumption on generated simple-TGD families: every Linear /
/// Multilinear / Sticky program drawn must be SWR (§5 of the paper), and every
/// SWR program must be WR.
pub fn experiment_class_subsumption(seeds: u64, rules_per_program: usize) -> String {
    let mut total = 0usize;
    let mut linear_and_swr = 0usize;
    let mut sticky_and_swr = 0usize;
    let mut swr_count = 0usize;
    let mut swr_and_wr = 0usize;
    let mut violations = 0usize;
    for seed in 0..seeds {
        let program = random_program(&RandomProgramConfig {
            rules: rules_per_program,
            predicates: 6,
            max_arity: 3,
            max_body_atoms: 2,
            existential_probability: 0.3,
            seed,
        });
        total += 1;
        let report = classify(&program);
        if report.linear || report.multilinear || report.sticky {
            if report.swr.is_swr {
                if report.linear {
                    linear_and_swr += 1;
                }
                if report.sticky {
                    sticky_and_swr += 1;
                }
            } else {
                violations += 1;
            }
        }
        if report.swr.is_swr {
            swr_count += 1;
            if report.wr.verdict == WrVerdict::WeaklyRecursive {
                swr_and_wr += 1;
            }
        }
    }
    let mut out = String::new();
    writeln!(
        out,
        "E5 — class subsumption on {total} random simple programs"
    )
    .unwrap();
    writeln!(
        out,
        "linear⊆SWR witnesses={linear_and_swr}  sticky⊆SWR witnesses={sticky_and_swr}  SWR programs={swr_count}  SWR∧WR={swr_and_wr}  subsumption violations={violations}"
    )
    .unwrap();
    out
}

/// E6 — SWR check scaling: wall-clock time of the SWR membership test on
/// chains, stars and random programs of growing size.
pub fn experiment_swr_scaling(sizes: &[usize]) -> String {
    let mut out = String::new();
    writeln!(out, "E6 — SWR (position graph) check scaling").unwrap();
    writeln!(out, "family      rules  micros  is_swr").unwrap();
    for &n in sizes {
        for (family, program) in [
            ("chain", chain_program(n)),
            ("star", star_program(n)),
            (
                "random",
                random_program(&RandomProgramConfig {
                    rules: n,
                    predicates: (n / 2).max(2),
                    ..RandomProgramConfig::default()
                }),
            ),
        ] {
            let start = Instant::now();
            let verdict = is_swr(&program);
            let micros = start.elapsed().as_micros();
            writeln!(out, "{family:<10} {n:>6} {micros:>7}  {verdict}").unwrap();
        }
    }
    out
}

/// E7 — WR check scaling vs the SWR check on the same inputs (the PTIME →
/// PSPACE gap of §7).
pub fn experiment_wr_scaling(sizes: &[usize], max_nodes: usize) -> String {
    let mut out = String::new();
    writeln!(out, "E7 — WR (P-node graph) vs SWR check scaling").unwrap();
    writeln!(out, "family      rules  swr_us    wr_us  wr_nodes  verdict").unwrap();
    for &n in sizes {
        for (family, program) in [
            ("chain", chain_program(n)),
            ("star", star_program(n)),
            (
                "hierarchy",
                hierarchy_program((n as f64).log2().ceil() as usize),
            ),
        ] {
            let start = Instant::now();
            let _ = is_swr(&program);
            let swr_us = start.elapsed().as_micros();
            let start = Instant::now();
            let report = check_wr_with(&program, &PNodeGraphConfig { max_nodes });
            let wr_us = start.elapsed().as_micros();
            writeln!(
                out,
                "{family:<10} {:>6} {swr_us:>7} {wr_us:>8} {:>9}  {:?}",
                program.len(),
                report.graph_size.0,
                report.verdict
            )
            .unwrap();
        }
    }
    out
}

/// E8 — end-to-end answering: rewriting+evaluation vs chase materialization
/// on the university workload, sweeping the ABox size.
pub fn experiment_rewriting_vs_chase(student_counts: &[usize]) -> String {
    let ontology = university_ontology();
    let query = university_query();
    let rewriting = rewrite(&ontology, &query, &RewriteConfig::default());
    let mut out = String::new();
    writeln!(
        out,
        "E8 — rewriting vs materialization (university workload)"
    )
    .unwrap();
    writeln!(
        out,
        "rewriting: {} disjuncts, complete={}",
        rewriting.ucq.len(),
        rewriting.complete
    )
    .unwrap();
    writeln!(
        out,
        "students  facts  rewrite_ms  chase_ms  chase_facts  answers"
    )
    .unwrap();
    for &students in student_counts {
        let data = university_abox(students, students / 10 + 1, students / 5 + 1, 17);
        let facts = data.len();
        let store = &data;

        let start = Instant::now();
        let by_rewriting = answer_by_rewriting(&ontology, &query, store, &RewriteConfig::default());
        let rewrite_ms = start.elapsed().as_millis();

        let start = Instant::now();
        let by_chase = certain_answers(&ontology, &data, &query, &ChaseConfig::default());
        let chase_ms = start.elapsed().as_millis();

        assert_eq!(
            by_rewriting.answers.len(),
            by_chase.answers.len(),
            "strategies disagree at {students} students"
        );
        writeln!(
            out,
            "{students:>8} {facts:>6} {rewrite_ms:>11} {chase_ms:>9} {:>12} {:>8}",
            by_chase.chase.facts,
            by_rewriting.answers.len()
        )
        .unwrap();
    }
    out
}

/// A transitive-closure chain database: edges `n0 -> n1 -> ... -> n_size`.
/// Shared between the E11 experiment and the `chase_scaling` bench.
pub fn chain_edges(size: usize) -> Instance {
    let mut db = Instance::new();
    for i in 0..size {
        db.insert_fact("edge", &[&format!("n{i}"), &format!("n{}", i + 1)]);
    }
    db
}

/// The Datalog transitive-closure program used by the E11 experiment and the
/// `chase_scaling` bench.
pub fn transitive_closure_program() -> TgdProgram {
    parse_program(
        "[R1] edge(X, Y) -> path(X, Y).\n\
         [R2] path(X, Y), edge(Y, Z) -> path(X, Z).",
    )
    .expect("transitive closure parses")
}

/// E11 — chase engine scaling: wall-clock of the naive (full rescan) vs the
/// semi-naive (delta-driven, index-backed) restricted chase on Datalog
/// transitive closure and on the university workload, at growing sizes.
pub fn experiment_chase_scaling(chain_lengths: &[usize], student_counts: &[usize]) -> String {
    let mut out = String::new();
    writeln!(
        out,
        "E11 — chase engine scaling: naive vs semi-naive (restricted chase)"
    )
    .unwrap();
    writeln!(
        out,
        "workload      size   facts  naive_ms  semi_ms  speedup  chase_facts"
    )
    .unwrap();
    let mut row =
        |workload: &str, size: usize, program: &TgdProgram, db: &Instance, rounds: usize| {
            let naive_config = ChaseConfig::restricted(rounds).with_strategy(ChaseStrategy::Naive);
            let start = Instant::now();
            let naive = chase(program, db, &naive_config);
            let naive_us = start.elapsed().as_micros() as f64;
            let start = Instant::now();
            let semi = chase(program, db, &ChaseConfig::restricted(rounds));
            let semi_us = start.elapsed().as_micros() as f64;
            assert_eq!(
                naive.instance.len(),
                semi.instance.len(),
                "engines disagree on {workload} at size {size}"
            );
            writeln!(
                out,
                "{workload:<12} {size:>5} {:>7} {:>9.1} {:>8.1} {:>7.1}x {:>12}",
                db.len(),
                naive_us / 1_000.0,
                semi_us / 1_000.0,
                naive_us / semi_us.max(1.0),
                semi.instance.len()
            )
            .unwrap();
        };
    let tc = transitive_closure_program();
    for &n in chain_lengths {
        row("tc-chain", n, &tc, &chain_edges(n), n + 2);
    }
    let ontology = university_ontology();
    for &students in student_counts {
        let db = university_abox(students, students / 10 + 1, students / 5 + 1, 17);
        row("university", students, &ontology, &db, 64);
    }
    out
}

/// The E12 serving mix: multi-atom join queries with class-membership atoms
/// over the university ontology — the DL-Lite-style conjunctive shape §1 of
/// the paper motivates, where the class hierarchy makes the rewriting
/// fixpoint (not the indexed evaluation) dominate the uncached cost, so a
/// prepared-query cache has real work to amortise. Shared between E12 and
/// the `serve_throughput` bench.
pub fn serving_query_mix() -> Vec<ConjunctiveQuery> {
    [
        "q(S, P) :- advisedBy(S, P), professor(P), employee(P), person(S)",
        "q(X) :- person(X), employee(X), faculty(X)",
        "q(T, C) :- teaches(T, C), employee(T), person(T)",
        "q(S) :- advisedBy(S, P), teaches(P, C), attends(S2, C), person(S2)",
        "q(P) :- professor(P), teaches(P, C), course(C)",
    ]
    .iter()
    .map(|text| parse_query(text).expect("serving mix query parses"))
    .collect()
}

pub use ontorew_serve::percentile;

/// E12 — serving throughput: the uncached `answer_by_rewriting` path vs the
/// `ontorew-serve` query service (cold cache, then warm repeat-query
/// traffic), plus the same warm traffic through the TCP server from
/// concurrent load-generator clients. Cross-checks every path against the
/// chase ground truth before timing anything.
pub fn experiment_serve_throughput(students: usize, repeats: usize, tcp_threads: usize) -> String {
    use ontorew_serve::{serve, QueryService, ServeClient, ServerConfig, ServiceConfig};
    use std::sync::Arc;

    let ontology = university_ontology();
    let abox = university_abox(students, students / 10 + 1, students / 5 + 1, 17);
    let store = &abox;
    let queries = serving_query_mix();
    let mut out = String::new();
    writeln!(
        out,
        "E12 — concurrent query service: prepared-query cache + snapshot isolation"
    )
    .unwrap();
    writeln!(
        out,
        "university workload: students={students} facts={} mix={} queries repeats={repeats}",
        store.len(),
        queries.len()
    )
    .unwrap();

    let service = Arc::new(QueryService::new(
        ontology.clone(),
        store.clone(),
        ServiceConfig::default(),
    ));

    // Correctness first: the served answers must equal both the unserved
    // rewriting path and the chase ground truth.
    for q in &queries {
        let served = service.query(q).expect("serve answers");
        let direct = answer_by_rewriting(&ontology, q, store, &RewriteConfig::default());
        let truth = certain_answers(&ontology, &abox, q, &ChaseConfig::default());
        assert!(served.exact && direct.is_exact() && truth.complete);
        assert!(
            served.answers.iter().eq(direct.answers.iter())
                && served.answers.iter().eq(truth.answers.iter()),
            "serving path disagrees on {q}"
        );
    }
    writeln!(
        out,
        "answers: identical across serve / answer_by_rewriting / chase on all {} queries",
        queries.len()
    )
    .unwrap();
    writeln!(
        out,
        "mode          requests      qps  p50_us  p99_us  hit_rate"
    )
    .unwrap();
    let mut row = |mode: &str, latencies: &mut Vec<u64>, hit_rate: Option<f64>| -> f64 {
        latencies.sort_unstable();
        let total_us: u64 = latencies.iter().sum();
        let qps = latencies.len() as f64 / (total_us.max(1) as f64 / 1_000_000.0);
        writeln!(
            out,
            "{mode:<12} {:>9} {:>8.0} {:>7} {:>7}  {}",
            latencies.len(),
            qps,
            percentile(latencies, 0.50),
            percentile(latencies, 0.99),
            hit_rate
                .map(|r| format!("{:>7.1}%", r * 100.0))
                .unwrap_or_else(|| "      -".to_string()),
        )
        .unwrap();
        qps
    };

    // Uncached baseline: every request pays the full rewriting fixpoint.
    let mut uncached_us: Vec<u64> = Vec::with_capacity(repeats * queries.len());
    for _ in 0..repeats {
        for q in &queries {
            let start = Instant::now();
            let result = answer_by_rewriting(&ontology, q, store, &RewriteConfig::default());
            uncached_us.push(start.elapsed().as_micros() as u64);
            assert!(result.is_exact());
        }
    }
    let uncached_qps = row("uncached", &mut uncached_us, None);

    // Served: a fresh service so the cold pass is genuinely cold.
    let timed = Arc::new(QueryService::new(
        ontology.clone(),
        store.clone(),
        ServiceConfig::default(),
    ));
    let mut cold_us: Vec<u64> = Vec::new();
    let mut warm_us: Vec<u64> = Vec::new();
    for rep in 0..repeats {
        for q in &queries {
            let start = Instant::now();
            let response = timed.query(q).expect("serve answers");
            let us = start.elapsed().as_micros() as u64;
            assert_eq!(response.cache_hit, rep > 0, "unexpected cache state");
            if rep == 0 {
                cold_us.push(us);
            } else {
                warm_us.push(us);
            }
        }
    }
    let stats = timed.stats();
    row("serve-cold", &mut cold_us, Some(0.0));
    let warm_qps = row("serve-warm", &mut warm_us, Some(stats.cache.hit_rate()));

    // The same warm traffic through TCP, from concurrent clients.
    let handle = serve(Arc::clone(&timed), ServerConfig::default()).expect("server binds");
    let per_thread = (repeats.max(2) / 2) * queries.len();
    let wall = Instant::now();
    let threads: Vec<_> = (0..tcp_threads.max(1))
        .map(|_| {
            let addr = handle.addr();
            let texts: Vec<String> = queries.iter().map(|q| format!("{q}")).collect();
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("client connects");
                let mut latencies = Vec::with_capacity(per_thread);
                for i in 0..per_thread {
                    let text = &texts[i % texts.len()];
                    let start = Instant::now();
                    let reply = client.query(text).expect("tcp query");
                    latencies.push(start.elapsed().as_micros() as u64);
                    assert!(reply.cache_hit, "tcp traffic must be warm");
                }
                client.quit().expect("quit");
                latencies
            })
        })
        .collect();
    let mut tcp_us: Vec<u64> = Vec::new();
    for t in threads {
        tcp_us.extend(t.join().expect("tcp thread"));
    }
    let wall_s = wall.elapsed().as_secs_f64();
    handle.shutdown();
    // Concurrent wall-clock throughput (not the sum of per-request times).
    tcp_us.sort_unstable();
    let tcp_qps = tcp_us.len() as f64 / wall_s.max(1e-9);
    writeln!(
        out,
        "tcp-warm x{:<2} {:>9} {:>8.0} {:>7} {:>7}  {:>7}",
        tcp_threads,
        tcp_us.len(),
        tcp_qps,
        percentile(&tcp_us, 0.50),
        percentile(&tcp_us, 0.99),
        "warm"
    )
    .unwrap();
    writeln!(
        out,
        "warm-cache speedup over uncached: {:.1}x",
        warm_qps / uncached_qps.max(1e-9)
    )
    .unwrap();
    out
}

/// E13 — planner vs forced strategies on the university mix: per query, the
/// planner-chosen plan is timed against a forced rewrite plan and a forced
/// chase plan (all three warm: plans prepared once, materializations cached
/// per data version, exactly as the serving layer executes them). Answers
/// must agree on every query; the planner must match the best forced
/// strategy, because its cost signals pick one of them. A second section
/// runs Example 2, where the forced rewriting is budget-cut (incomplete)
/// and only the planner's chase plan is exact — the trichotomy choosing
/// *correctness*, not just speed.
pub fn experiment_planner_vs_forced(students: usize, repeats: usize) -> String {
    use ontorew_plan::{PlanKind, Planner};

    let ontology = university_ontology();
    let abox = university_abox(students, students / 10 + 1, students / 5 + 1, 17);
    let store = abox;
    let planner = Planner::new(ontology);
    let mut out = String::new();
    writeln!(
        out,
        "E13 — planner vs forced strategies (university mix, {} facts)",
        store.len()
    )
    .unwrap();
    writeln!(
        out,
        "program plan kind: {} ({})",
        planner.plan_kind(),
        planner.classification().member_classes().join(", ")
    )
    .unwrap();
    writeln!(
        out,
        "query                                          plan     chosen_us  rewrite_us  chase_us  agree  planner_best"
    )
    .unwrap();
    let median = |plan: &ontorew_plan::PreparedQuery| -> u64 {
        let mut times: Vec<u64> = (0..repeats.max(1))
            .map(|_| {
                let start = Instant::now();
                let _ = plan.execute_versioned(&store, 0);
                start.elapsed().as_micros() as u64
            })
            .collect();
        times.sort_unstable();
        times[times.len() / 2]
    };
    let mut all_agree = true;
    let mut all_best = true;
    for query in serving_query_mix() {
        let chosen = planner.prepare(&query);
        let forced_rewrite = planner
            .prepare_forced(&query, PlanKind::Rewrite)
            .expect("classifiable");
        let forced_chase = planner
            .prepare_forced(&query, PlanKind::Chase)
            .expect("classifiable");
        // Warm pass first — every plan executes once before any is timed, so
        // the shared version-0 materialization exists for all of them and
        // the hybrid's cost signals see the same warm state the forced
        // plans are timed under.
        let chosen_answers = chosen.execute_versioned(&store, 0).answers;
        let rewrite_answers = forced_rewrite.execute_versioned(&store, 0).answers;
        let chase_answers = forced_chase.execute_versioned(&store, 0).answers;
        let chosen_us = median(&chosen);
        let rewrite_us = median(&forced_rewrite);
        let chase_us = median(&forced_chase);
        let agree = chosen_answers.iter().eq(rewrite_answers.iter())
            && chosen_answers.iter().eq(chase_answers.iter());
        // "Matching" the best forced strategy allows for timer noise: the
        // planner's pick is one of the two pipelines, so anything beyond
        // 1.5x the winner would mean it picked the wrong one.
        let best = rewrite_us.min(chase_us);
        let planner_best = chosen_us <= best + best / 2 + 50;
        all_agree &= agree;
        all_best &= planner_best;
        writeln!(
            out,
            "{:<46} {:<8} {chosen_us:>9} {rewrite_us:>11} {chase_us:>9}  {agree:<5}  {planner_best}",
            format!("{query}"),
            chosen.plan().kind().to_string(),
        )
        .unwrap();
    }
    writeln!(
        out,
        "university mix: agree={all_agree} planner_matches_best={all_best}"
    )
    .unwrap();

    // Example 2: outside WR, weakly acyclic. The planner's chase plan is
    // exact; a forced rewriting is cut off at its budget and only sound.
    let planner = Planner::new(example2());
    let mut db = Instance::new();
    db.insert_fact("s", &["c", "c", "a"]);
    db.insert_fact("t", &["d", "a"]);
    let query = example2_query();
    let chosen = planner.prepare(&query).execute_versioned(&db, 0);
    let forced = planner
        .prepare_forced(&query, PlanKind::Rewrite)
        .expect("classifiable")
        .execute_versioned(&db, 0);
    writeln!(
        out,
        "example2: planner plan={} exact={} answer={}; forced rewrite exact={} answer={}",
        chosen.provenance.plan,
        chosen.provenance.exact,
        chosen.answers.as_boolean(),
        forced.provenance.exact,
        forced.answers.as_boolean()
    )
    .unwrap();
    out
}

/// E14 — copy-on-write ingestion and incremental chase maintenance.
///
/// **Part A (ingestion)**: `commits` commits of `batch` facts each against
/// epoch stores preloaded to different sizes. The copy-on-write publish
/// (freeze + segment-sharing clone) is timed against the pre-PR 5 behavior
/// — a full deep clone of the working store per commit — on identical
/// batches. The COW per-commit cost must be flat in the preload size (it
/// scales with the batch and the amortised segment merges), while the
/// legacy clone grows linearly with the store.
///
/// **Part B (insert→query)**: a commit loop against chase materializations
/// of the university workload (forced chase plans, as a chase-plan tenant
/// executes them). One planner receives the insert batches as recorded
/// delta edges (the serving layer's path since PR 5) and extends its cached
/// materialization incrementally; the other gets no lineage and re-chases
/// the store from scratch on every new data version. Answers are asserted
/// identical on every iteration before anything is reported.
pub fn experiment_ingestion_incremental(
    preload_sizes: &[usize],
    commits: usize,
    batch: usize,
    students: usize,
    inserts: usize,
) -> String {
    use ontorew_plan::{MaterializationMode, PlanKind, Planner};
    use ontorew_serve::EpochStore;

    let mut out = String::new();
    writeln!(
        out,
        "E14 — copy-on-write ingestion + incremental chase maintenance"
    )
    .unwrap();

    // Part A: commit cost vs store size.
    writeln!(
        out,
        "ingestion: {commits} commits x {batch} facts (cow = freeze+share, clone = pre-PR5 deep copy)"
    )
    .unwrap();
    writeln!(
        out,
        "preload  cow_us/commit  clone_us/commit  cow_facts/s  speedup"
    )
    .unwrap();
    let mut speedup_at_largest = 0.0f64;
    for &preload in preload_sizes {
        let mut base = Instance::new();
        for i in 0..preload {
            base.insert_fact("pair", &[&format!("p{i}"), &format!("q{i}")]);
        }
        let epoch_store = EpochStore::new(base.clone());
        let start = Instant::now();
        for k in 0..commits {
            let facts: Vec<Atom> = (0..batch)
                .map(|j| Atom::fact("pair", &[&format!("cow{k}_{j}"), "y"]))
                .collect();
            epoch_store.commit_facts(&facts);
        }
        let cow_us = start.elapsed().as_micros() as f64;

        // The legacy publish: mutate a working copy, then deep-clone the
        // whole store (nothing frozen, so clone() copies every row).
        let mut working = base;
        let start = Instant::now();
        for k in 0..commits {
            for j in 0..batch {
                working.insert_fact("pair", &[&format!("old{k}_{j}"), "y"]);
            }
            let published = working.clone();
            std::hint::black_box(&published);
        }
        let clone_us = start.elapsed().as_micros() as f64;

        let speedup = clone_us / cow_us.max(1.0);
        speedup_at_largest = speedup;
        writeln!(
            out,
            "{preload:>7} {:>13.1} {:>16.1} {:>12.0} {:>8.1}x",
            cow_us / commits as f64,
            clone_us / commits as f64,
            (commits * batch) as f64 / (cow_us / 1_000_000.0).max(1e-9),
            speedup
        )
        .unwrap();
    }
    writeln!(
        out,
        "commit speedup at {} preloaded facts: {speedup_at_largest:.1}x",
        preload_sizes.last().copied().unwrap_or(0)
    )
    .unwrap();

    // Part B: insert→query with and without incremental maintenance.
    let ontology = university_ontology();
    let abox = university_abox(students, students / 10 + 1, students / 5 + 1, 17);
    let query = parse_query("q(X) :- person(X)").expect("person query parses");
    let incremental_planner = Planner::new(ontology.clone());
    let scratch_planner = Planner::new(ontology);
    let inc_plan = incremental_planner
        .prepare_forced(&query, PlanKind::Chase)
        .expect("classifiable");
    let scr_plan = scratch_planner
        .prepare_forced(&query, PlanKind::Chase)
        .expect("classifiable");
    let mut store = abox;
    // Warm version 0 on both planners (the chase-plan tenant's steady state).
    let _ = inc_plan.execute_versioned(&store, 0);
    let _ = scr_plan.execute_versioned(&store, 0);

    let mut inc_query_us: Vec<u64> = Vec::with_capacity(inserts);
    let mut scr_query_us: Vec<u64> = Vec::with_capacity(inserts);
    let mut inc_mat_us: u64 = 0;
    let mut scr_mat_us: u64 = 0;
    for k in 0..inserts as u64 {
        let student = format!("late{k}");
        let facts = vec![
            Atom::fact("student", &[&student]),
            Atom::fact("attends", &[&student, "course0"]),
        ];
        for fact in &facts {
            store.insert(fact.clone());
        }
        incremental_planner.record_delta(k, k + 1, &facts, store.len());

        let start = Instant::now();
        let incremental = inc_plan.execute_versioned(&store, k + 1);
        inc_query_us.push(start.elapsed().as_micros() as u64);
        let start = Instant::now();
        let scratch = scr_plan.execute_versioned(&store, k + 1);
        scr_query_us.push(start.elapsed().as_micros() as u64);

        assert!(
            incremental.answers.iter().eq(scratch.answers.iter()),
            "incremental and scratch answers diverge at insert {k}"
        );
        assert!(
            matches!(
                incremental.provenance.materialization,
                Some(MaterializationMode::Incremental { .. })
            ),
            "insert {k} did not ride the incremental path"
        );
        assert_eq!(
            scratch.provenance.materialization,
            Some(MaterializationMode::Scratch)
        );
        inc_mat_us += incremental.provenance.timings.materialize_us;
        scr_mat_us += scratch.provenance.timings.materialize_us;
    }
    inc_query_us.sort_unstable();
    scr_query_us.sort_unstable();
    writeln!(
        out,
        "insert->query over {} facts, {inserts} single-student commits (forced chase plans):",
        store.len()
    )
    .unwrap();
    writeln!(out, "mode         p50_us  p99_us  materialize_us/commit").unwrap();
    writeln!(
        out,
        "incremental {:>7} {:>7} {:>21.1}",
        percentile(&inc_query_us, 0.50),
        percentile(&inc_query_us, 0.99),
        inc_mat_us as f64 / inserts.max(1) as f64
    )
    .unwrap();
    writeln!(
        out,
        "scratch     {:>7} {:>7} {:>21.1}",
        percentile(&scr_query_us, 0.50),
        percentile(&scr_query_us, 0.99),
        scr_mat_us as f64 / inserts.max(1) as f64
    )
    .unwrap();
    writeln!(
        out,
        "incremental materialization speedup on small deltas: {:.1}x (answers identical)",
        scr_mat_us as f64 / (inc_mat_us as f64).max(1.0)
    )
    .unwrap();
    out
}

/// E15 — DRed retraction, WHY latency, and the provenance overhead ablation.
///
/// **Part A (delete→query)**: the delete-side mirror of E14 Part B. The
/// university store is preloaded with `deletes` extra students, then a
/// commit loop retracts them one at a time. One planner chases with
/// provenance tracking on and receives the retractions as recorded delete
/// edges, so each cache miss replays DRed (overdelete through the
/// derivation graph, then well-founded rederivation) over the cached
/// ancestor; the other planner gets no lineage and re-chases from scratch
/// on every data version. Answers are asserted identical on every commit,
/// and the incremental executions are asserted to ride the `Dred` path.
///
/// **Part B (WHY latency)**: after the retraction loop, sample `why_samples`
/// derived facts from the surviving materialization and time the
/// derivation-graph walk behind the wire protocol's `WHY` verb.
///
/// **Part C (provenance ablation)**: chase the same store with
/// `track_provenance` off and on and report the insert-side overhead of
/// recording the derivation graph (the price every serving tenant pays for
/// DRed + WHY; the PR 6 target is < 10%).
pub fn experiment_retraction_dred(students: usize, deletes: usize, why_samples: usize) -> String {
    use ontorew_plan::{MaterializationMode, PlanKind, Planner, PlannerConfig};

    let mut out = String::new();
    writeln!(
        out,
        "E15 — DRed incremental deletion + WHY latency + provenance overhead"
    )
    .unwrap();

    // Part A: delete→query with and without incremental maintenance.
    let ontology = university_ontology();
    let abox = university_abox(students, students / 10 + 1, students / 5 + 1, 17);
    let query = parse_query("q(X) :- person(X)").expect("person query parses");
    let incremental_planner = Planner::with_config(
        ontology.clone(),
        PlannerConfig {
            chase: ChaseConfig::default().with_provenance(true),
            ..PlannerConfig::default()
        },
    );
    let scratch_planner = Planner::new(ontology.clone());
    let inc_plan = incremental_planner
        .prepare_forced(&query, PlanKind::Chase)
        .expect("classifiable");
    let scr_plan = scratch_planner
        .prepare_forced(&query, PlanKind::Chase)
        .expect("classifiable");
    let mut store = abox.clone();
    // The victims: extra students present in the warmed materialization,
    // retracted one per commit below.
    for k in 0..deletes {
        let student = format!("late{k}");
        store.insert_fact("student", &[&student]);
        store.insert_fact("attends", &[&student, "course0"]);
    }
    let _ = inc_plan.execute_versioned(&store, 0);
    let _ = scr_plan.execute_versioned(&store, 0);

    let mut inc_query_us: Vec<u64> = Vec::with_capacity(deletes);
    let mut scr_query_us: Vec<u64> = Vec::with_capacity(deletes);
    let mut inc_mat_us: u64 = 0;
    let mut scr_mat_us: u64 = 0;
    for k in 0..deletes as u64 {
        let student = format!("late{k}");
        let facts = vec![
            Atom::fact("student", &[&student]),
            Atom::fact("attends", &[&student, "course0"]),
        ];
        for fact in &facts {
            store.remove(fact);
        }
        incremental_planner.record_retraction(k, k + 1, &facts, store.len());

        let start = Instant::now();
        let incremental = inc_plan.execute_versioned(&store, k + 1);
        inc_query_us.push(start.elapsed().as_micros() as u64);
        let start = Instant::now();
        let scratch = scr_plan.execute_versioned(&store, k + 1);
        scr_query_us.push(start.elapsed().as_micros() as u64);

        assert!(
            incremental.answers.iter().eq(scratch.answers.iter()),
            "DRed and scratch answers diverge at delete {k}"
        );
        assert!(
            matches!(
                incremental.provenance.materialization,
                Some(MaterializationMode::Dred { .. })
            ),
            "delete {k} did not ride the DRed path"
        );
        assert_eq!(
            scratch.provenance.materialization,
            Some(MaterializationMode::Scratch)
        );
        inc_mat_us += incremental.provenance.timings.materialize_us;
        scr_mat_us += scratch.provenance.timings.materialize_us;
    }
    inc_query_us.sort_unstable();
    scr_query_us.sort_unstable();
    writeln!(
        out,
        "delete->query over {} facts, {deletes} single-student retractions (forced chase plans):",
        store.len()
    )
    .unwrap();
    writeln!(out, "mode         p50_us  p99_us  materialize_us/commit").unwrap();
    writeln!(
        out,
        "dred        {:>7} {:>7} {:>21.1}",
        percentile(&inc_query_us, 0.50),
        percentile(&inc_query_us, 0.99),
        inc_mat_us as f64 / deletes.max(1) as f64
    )
    .unwrap();
    writeln!(
        out,
        "scratch     {:>7} {:>7} {:>21.1}",
        percentile(&scr_query_us, 0.50),
        percentile(&scr_query_us, 0.99),
        scr_mat_us as f64 / deletes.max(1) as f64
    )
    .unwrap();
    writeln!(
        out,
        "dred materialization speedup on small retractions: {:.1}x (answers identical)",
        scr_mat_us as f64 / (inc_mat_us as f64).max(1.0)
    )
    .unwrap();

    // Part B: WHY latency over the surviving derivation graph.
    let (materialization, _) = incremental_planner.materialize(&store, Some(deletes as u64));
    let graph = materialization
        .provenance()
        .expect("provenance-tracking planner records a derivation graph");
    let mut why_ns: Vec<u64> = Vec::with_capacity(why_samples);
    for i in 0..why_samples {
        let fact = Atom::fact("person", &[&format!("student{}", i % students.max(1))]);
        let start = Instant::now();
        let steps = graph.why(&fact);
        why_ns.push(start.elapsed().as_nanos() as u64);
        assert!(
            steps.is_some_and(|s| !s.is_empty()),
            "WHY found no derivation for a fact the materialization contains"
        );
    }
    why_ns.sort_unstable();
    writeln!(
        out,
        "WHY latency over {} graph nodes / {} edges ({why_samples} derived facts): p50={:.1}us p99={:.1}us",
        graph.node_count(),
        graph.edge_count(),
        percentile(&why_ns, 0.50) as f64 / 1_000.0,
        percentile(&why_ns, 0.99) as f64 / 1_000.0
    )
    .unwrap();

    // Part C: what does recording the derivation graph cost on insert?
    let ontology_ref = &ontology;
    let plain_config = ChaseConfig::restricted(64);
    let tracked_config = ChaseConfig::restricted(64).with_provenance(true);
    let mut plain_us = u64::MAX;
    let mut tracked_us = u64::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        let plain = chase(ontology_ref, &abox, &plain_config);
        plain_us = plain_us.min(start.elapsed().as_micros() as u64);
        let start = Instant::now();
        let tracked = chase(ontology_ref, &abox, &tracked_config);
        tracked_us = tracked_us.min(start.elapsed().as_micros() as u64);
        assert_eq!(
            plain.instance.len(),
            tracked.instance.len(),
            "provenance tracking changed the chase result"
        );
    }
    writeln!(
        out,
        "provenance ablation (restricted chase of {} facts): plain={}us tracked={}us overhead={:.1}%",
        abox.len(),
        plain_us,
        tracked_us,
        (tracked_us as f64 - plain_us as f64) / (plain_us as f64).max(1.0) * 100.0
    )
    .unwrap();
    out
}

/// E9 — rewriting soundness & completeness: cross-check the two strategies on
/// the university workload and on the paper's examples.
pub fn experiment_rewriting_soundness() -> String {
    let mut out = String::new();
    writeln!(out, "E9 — rewriting vs chase cross-checks").unwrap();
    let system = ObdaSystem::new(university_ontology(), university_abox(80, 8, 16, 23));
    for text in [
        "q(X) :- person(X)",
        "q(X) :- employee(X)",
        "q(T) :- teaches(T, C), attends(S, C)",
        "q(S, P) :- advisedBy(S, P), professor(P)",
    ] {
        let query = parse_query(text).unwrap();
        let report = cross_check(&system, &query);
        writeln!(
            out,
            "{text:<45} rewriting={:>4} chase={:>4} consistent={}",
            report.rewriting_answers,
            report.materialization_answers,
            report.is_consistent()
        )
        .unwrap();
    }
    // Example 2 through the Auto strategy (falls back to materialization).
    let mut data = Instance::new();
    data.insert_fact("s", &["c", "c", "a"]);
    data.insert_fact("t", &["d", "a"]);
    let system = ObdaSystem::new(example2(), data);
    let result = system.answer(&example2_query(), Strategy::Auto);
    writeln!(
        out,
        "example2 boolean query via Auto: strategy={:?} exact={} answer={}",
        result.strategy,
        result.exact,
        result.answers.as_boolean()
    )
    .unwrap();
    out
}

/// E10 — approximation quality on the non-WR Example 2: how the bounded
/// rewriting's coverage (vs the chase ground truth) grows with depth.
pub fn experiment_approximation_quality(depths: &[usize]) -> String {
    let program = example2();
    let query = example2_query();
    // Ground truth: a database where the answer requires 2 rule applications.
    let mut data = Instance::new();
    data.insert_fact("t", &["d", "a"]);
    data.insert_fact("t", &["d2", "c"]);
    data.insert_fact("r", &["e", "f"]);
    data.insert_fact("s", &["c", "c", "a"]);
    let store = &data;
    let truth = certain_answers(&program, &data, &query, &ChaseConfig::default());
    let mut out = String::new();
    writeln!(out, "E10 — bounded-rewriting approximation on Example 2").unwrap();
    writeln!(
        out,
        "chase ground truth: answer={} (complete={})",
        truth.answers.as_boolean(),
        truth.complete
    )
    .unwrap();
    writeln!(out, "depth  disjuncts  answered  recurrent-patterns").unwrap();
    for &depth in depths {
        let approx = approximate_rewrite(&program, &query, depth);
        let answers = ontorew_rewrite::evaluate_rewriting(&approx.rewriting, &query, store);
        writeln!(
            out,
            "{depth:>5} {:>10} {:>9} {:>19}",
            approx.rewriting.len(),
            answers.as_boolean(),
            approx.analysis.recurrent_patterns().len()
        )
        .unwrap();
    }
    out
}

/// E16 — durability: the cost of the write-ahead log on the commit path,
/// per fsync policy, against the in-memory baseline; plus recovery time as
/// a function of store size.
///
/// **Part A (commit overhead)**: preload a `students`-scale university
/// ABox, then time `commits` single-fact `INSERT` commits through four
/// configurations — in-memory (no WAL), and durable with `fsync=off`,
/// `fsync=every-8` and `fsync=always`. The interesting number is the
/// `every-8 / in-memory` latency ratio: the amortized-group-commit
/// configuration is the recommended production default and should stay
/// within small multiples of the in-memory commit.
///
/// **Part B (recovery time)**: for each size, seed a durable tenant (the
/// seed is checkpointed to segments at epoch 0), append `commits` WAL
/// records on top, then drop everything and time a cold
/// [`TenantRegistry::recover`] — segment load plus WAL replay.
///
/// [`TenantRegistry::recover`]: ontorew_serve::TenantRegistry::recover
pub fn experiment_durability(students: usize, commits: usize, sizes: &[usize]) -> String {
    use ontorew_serve::{DurabilitySettings, QueryService, ServiceConfig, TenantRegistry};
    use ontorew_storage::FsyncPolicy;

    fn temp_root(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "ontorew-e16-{}-{}-{}",
            tag,
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    let mut out = String::new();
    writeln!(
        out,
        "E16 — durability: WAL commit overhead + recovery time (university ontology)"
    )
    .unwrap();

    // Part A: commit latency per policy at `students` scale.
    let ontology = university_ontology();
    let abox = university_abox(students, students / 10 + 1, students / 5 + 1, 17);
    writeln!(
        out,
        "commit overhead: {} preloaded facts, {commits} single-fact commits",
        abox.len()
    )
    .unwrap();
    writeln!(out, "policy      commit_p50_us  commit_p99_us  wal_bytes").unwrap();
    let policies: [(&str, Option<FsyncPolicy>); 4] = [
        ("in-memory", None),
        ("off", Some(FsyncPolicy::Off)),
        ("every-8", Some(FsyncPolicy::EveryN(8))),
        ("always", Some(FsyncPolicy::Always)),
    ];
    let mut in_memory_p50 = 0u64;
    let mut every_n_p50 = 0u64;
    for (label, policy) in policies {
        let store = abox.clone();
        let (service, root) = match policy {
            None => (
                std::sync::Arc::new(QueryService::new(
                    ontology.clone(),
                    store,
                    ServiceConfig::default(),
                )),
                None,
            ),
            Some(fsync) => {
                let root = temp_root("commit");
                let registry = TenantRegistry::recover(
                    ontology.clone(),
                    store,
                    ServiceConfig::default(),
                    DurabilitySettings {
                        root: root.clone(),
                        fsync,
                    },
                )
                .expect("durable registry");
                (registry.default_tenant(), Some(root))
            }
        };
        let mut latencies: Vec<u64> = Vec::with_capacity(commits);
        for k in 0..commits {
            let student = format!("wal{k}");
            let fact = Atom::fact("student", &[student.as_str()]);
            let start = Instant::now();
            service.insert_facts(&[fact]).expect("commit");
            latencies.push(start.elapsed().as_micros() as u64);
        }
        latencies.sort_unstable();
        let p50 = ontorew_serve::percentile(&latencies, 0.50);
        if label == "in-memory" {
            in_memory_p50 = p50;
        }
        if label == "every-8" {
            every_n_p50 = p50;
        }
        writeln!(
            out,
            "{label:<11} {:>13} {:>14} {:>10}",
            p50,
            ontorew_serve::percentile(&latencies, 0.99),
            service.stats().durability.wal_bytes
        )
        .unwrap();
        drop(service);
        if let Some(root) = root {
            let _ = std::fs::remove_dir_all(&root);
        }
    }
    writeln!(
        out,
        "every-8 vs in-memory commit p50 ratio: {:.2}x",
        every_n_p50 as f64 / in_memory_p50.max(1) as f64
    )
    .unwrap();

    // Part B: recovery time vs store size (segments + a WAL tail to replay).
    writeln!(
        out,
        "recovery time ({commits} WAL records on top of a checkpointed seed):"
    )
    .unwrap();
    writeln!(out, "seed_students  facts  segments  recovery_ms").unwrap();
    for &n in sizes {
        let root = temp_root("recover");
        let seed = university_abox(n, n / 10 + 1, n / 5 + 1, 17);
        let settings = DurabilitySettings {
            root: root.clone(),
            fsync: FsyncPolicy::Off,
        };
        {
            let registry = TenantRegistry::recover(
                ontology.clone(),
                seed,
                ServiceConfig::default(),
                settings.clone(),
            )
            .expect("seed registry");
            let service = registry.default_tenant();
            for k in 0..commits {
                let student = format!("tail{k}");
                service
                    .insert_facts(&[Atom::fact("student", &[student.as_str()])])
                    .expect("tail commit");
            }
        }
        let start = Instant::now();
        let registry = TenantRegistry::recover(
            ontology.clone(),
            Instance::new(),
            ServiceConfig::default(),
            settings,
        )
        .expect("recover registry");
        let recovery_ms = start.elapsed().as_secs_f64() * 1e3;
        let service = registry.default_tenant();
        let stats = service.stats();
        writeln!(
            out,
            "{n:>13} {:>6} {:>9} {:>12.1}",
            stats.facts, stats.durability.segments_on_disk, recovery_ms
        )
        .unwrap();
        drop(service);
        drop(registry);
        let _ = std::fs::remove_dir_all(&root);
    }
    out
}

/// E17 — tracing overhead: what the span instrumentation costs on the warm
/// serving path (the E12 repeat-query traffic). Three measurements:
///
/// 1. the *disabled* path — spans compiled in but no collector installed
///    (the production default): an inactive [`ontorew_telemetry::span`] is
///    one relaxed atomic load, so the per-request overhead is
///    `spans/request x inactive-span cost` and must stay within 2% of the
///    warm request latency;
/// 2. the *enabled* path — a per-request collector installed and drained,
///    exactly as `serve` does when `TRACE ON` is armed;
/// 3. the raw warm throughput in both modes, so the enabled overhead is
///    visible as a qps delta, not just a microbenchmark.
pub fn experiment_tracing_overhead(students: usize, repeats: usize) -> String {
    use ontorew_serve::{QueryService, ServiceConfig};
    use ontorew_telemetry::{install_collector, span, take_collector};
    use std::sync::Arc;

    let ontology = university_ontology();
    let abox = university_abox(students, students / 10 + 1, students / 5 + 1, 17);
    let store = abox;
    let queries = serving_query_mix();
    let mut out = String::new();
    writeln!(
        out,
        "E17 — tracing overhead: span instrumentation on the warm serving path"
    )
    .unwrap();
    writeln!(
        out,
        "university workload: students={students} facts={} mix={} queries repeats={repeats}",
        store.len(),
        queries.len()
    )
    .unwrap();

    let service = Arc::new(QueryService::new(ontology, store, ServiceConfig::default()));
    // Warm every plan (and the per-epoch materialization) before timing.
    for q in &queries {
        service.query(q).expect("warm answers");
    }

    // 1) The inactive span itself: no collector on this thread, so each
    // span() is a relaxed load and SpanGuard::drop is a no-op.
    const SPAN_ITERS: u64 = 2_000_000;
    let start = Instant::now();
    for _ in 0..SPAN_ITERS {
        let _guard = span("bench.noop");
    }
    let span_ns = start.elapsed().as_nanos() as f64 / SPAN_ITERS as f64;
    writeln!(out, "inactive span cost: {span_ns:.1} ns/span").unwrap();

    // Spans per request on this mix (traced once, averaged).
    install_collector(4096);
    for q in &queries {
        service.query(q).expect("traced answers");
    }
    let (spans, _elapsed_us) = take_collector();
    assert!(!spans.is_empty(), "the count pass produced no spans");
    let spans_per_request = spans.len() as f64 / queries.len() as f64;
    writeln!(out, "spans per warm request: {spans_per_request:.1}").unwrap();

    // 2+3) Warm traffic with tracing off, then with a per-request collector.
    let time_mode = |traced: bool| -> Vec<u64> {
        let mut latencies = Vec::with_capacity(repeats * queries.len());
        for _ in 0..repeats {
            for q in &queries {
                let start = Instant::now();
                if traced {
                    install_collector(4096);
                }
                let response = service.query(q).expect("warm answers");
                if traced {
                    let (spans, _) = take_collector();
                    assert!(!spans.is_empty(), "traced request produced no spans");
                }
                latencies.push(start.elapsed().as_micros() as u64);
                assert!(response.cache_hit, "overhead traffic must be warm");
            }
        }
        latencies.sort_unstable();
        latencies
    };
    let off_us = time_mode(false);
    let on_us = time_mode(true);
    let qps = |lat: &[u64]| lat.len() as f64 / (lat.iter().sum::<u64>().max(1) as f64 / 1e6);
    let (off_qps, on_qps) = (qps(&off_us), qps(&on_us));
    writeln!(out, "mode       requests      qps  p50_us  p99_us").unwrap();
    writeln!(
        out,
        "trace-off {:>9} {:>8.0} {:>7} {:>7}",
        off_us.len(),
        off_qps,
        percentile(&off_us, 0.50),
        percentile(&off_us, 0.99),
    )
    .unwrap();
    writeln!(
        out,
        "trace-on  {:>9} {:>8.0} {:>7} {:>7}",
        on_us.len(),
        on_qps,
        percentile(&on_us, 0.50),
        percentile(&on_us, 0.99),
    )
    .unwrap();

    // The bound the observability work must hold: the disabled path adds
    // spans_per_request relaxed loads to a warm request.
    let p50_off_ns = percentile(&off_us, 0.50).max(1) as f64 * 1e3;
    let disabled_pct = 100.0 * spans_per_request * span_ns / p50_off_ns;
    let enabled_pct = 100.0 * (off_qps - on_qps).max(0.0) / off_qps.max(1e-9);
    writeln!(
        out,
        "disabled-path overhead: {disabled_pct:.3}% of warm p50 (bound 2%)"
    )
    .unwrap();
    writeln!(out, "tracing enabled overhead: {enabled_pct:.1}% qps").unwrap();
    assert!(
        disabled_pct <= 2.0,
        "disabled-path tracing overhead {disabled_pct:.3}% exceeds the 2% bound"
    );
    out
}

/// E18 — goal-driven (magic-sets) evaluation vs the full chase on the
/// registrar workload. The selective query (`mustComplete` for one student)
/// maps to a goal-driven plan: the chase runs only the adorned slice the
/// query's bindings demand, instead of materializing every student's
/// transcript. Both pipelines execute unversioned — the full chase pays its
/// materialization on every iteration, which is exactly the cost the
/// restriction avoids — and must return identical answers. p50 over `iters`
/// runs per pipeline.
pub fn experiment_goal_driven(student_counts: &[usize], iters: usize) -> String {
    use ontorew_plan::{PlanKind, Planner, PreparedQuery};
    use ontorew_workloads::{registrar_abox, registrar_ontology, registrar_queries};

    let mut out = String::new();
    writeln!(
        out,
        "E18 — goal-driven (magic-sets) vs full chase (registrar workload, selective query)"
    )
    .unwrap();
    writeln!(
        out,
        "students   facts  goal_p50_us  chase_p50_us  speedup  goal_facts  full_facts  agree"
    )
    .unwrap();
    let p50 = |plan: &PreparedQuery, store: &Instance| -> u64 {
        let mut times: Vec<u64> = (0..iters.max(1))
            .map(|_| {
                let start = Instant::now();
                let _ = plan.execute(store);
                start.elapsed().as_micros() as u64
            })
            .collect();
        times.sort_unstable();
        times[times.len() / 2]
    };
    let mut all_agree = true;
    let mut speedup_at_smallest = 0.0_f64;
    for (n, &students) in student_counts.iter().enumerate() {
        let abox = registrar_abox(students, 8, 42);
        let store = abox;
        let planner = Planner::new(registrar_ontology());
        let selective = registrar_queries().remove(0);
        let goal = planner.prepare(&selective);
        assert_eq!(
            goal.plan().kind(),
            PlanKind::GoalDriven,
            "the selective registrar query must map to a goal-driven plan"
        );
        let full = planner
            .prepare_forced(&selective, PlanKind::Chase)
            .expect("classifiable");
        let goal_exec = goal.execute(&store);
        let full_exec = full.execute(&store);
        assert!(goal_exec.provenance.exact && full_exec.provenance.exact);
        let agree = goal_exec.answers.iter().eq(full_exec.answers.iter());
        all_agree &= agree;
        let goal_facts = goal_exec
            .provenance
            .goal_driven
            .as_ref()
            .map(|g| g.facts_derived)
            .unwrap_or(0);
        let full_facts = full_exec
            .provenance
            .chase
            .as_ref()
            .map(|c| c.facts)
            .unwrap_or(0);
        let goal_us = p50(&goal, &store);
        let chase_us = p50(&full, &store);
        let speedup = chase_us as f64 / goal_us.max(1) as f64;
        if n == 0 {
            speedup_at_smallest = speedup;
        }
        writeln!(
            out,
            "{students:>8} {:>7} {goal_us:>12} {chase_us:>13} {speedup:>8.1} {goal_facts:>11} {full_facts:>11}  {agree}",
            store.len(),
        )
        .unwrap();
    }
    writeln!(out, "answers identical across pipelines: {all_agree}").unwrap();
    writeln!(
        out,
        "goal-driven speedup at smallest scale: {speedup_at_smallest:.1}x (target >= 5x)"
    )
    .unwrap();
    assert!(
        all_agree,
        "goal-driven answers diverged from the full chase"
    );
    out
}

/// E19 — worst-case-optimal (generic) join vs backtracking on the cyclic
/// social-graph queries, plus the cost model's pick. Per scale and query,
/// both join strategies are forced through the raw evaluator (p50 over
/// `iters` runs, answers must be identical), then the measured cost model
/// ([`ontorew_storage::estimate_join_cost`] over collected
/// [`ontorew_storage::StoreStatistics`]) picks a strategy without seeing the
/// timings; the pick must land within the E13 tolerance of the measured
/// winner. On the hub-heavy graph the backtracking triangle join enumerates
/// Θ(users²) 2-paths through the celebrity vertices, so the generic join's
/// speedup grows with scale — the `speedup` column at the largest scale is
/// the headline number.
pub fn experiment_generic_join(user_counts: &[usize], iters: usize) -> String {
    use ontorew_storage::{
        estimate_join_cost, evaluate_cq_instrumented, EvalConfig, JoinStrategy, StoreStatistics,
    };
    use ontorew_workloads::{social_graph_abox, social_graph_queries};

    let mut out = String::new();
    writeln!(
        out,
        "E19 — generic (worst-case-optimal) join vs backtracking (social-graph workload)"
    )
    .unwrap();
    writeln!(
        out,
        "users   facts  query     backtrack_us  generic_us  speedup  answers  cost_pick     cost_ok  agree"
    )
    .unwrap();
    let p50 = |store: &Instance, q: &ConjunctiveQuery, strategy: JoinStrategy| -> u64 {
        let config = EvalConfig {
            strategy: Some(strategy),
            ..EvalConfig::default()
        };
        let mut times: Vec<u64> = (0..iters.max(1))
            .map(|_| {
                let start = Instant::now();
                let _ = evaluate_cq_instrumented(store, q, &config);
                start.elapsed().as_micros() as u64
            })
            .collect();
        times.sort_unstable();
        times[times.len() / 2]
    };
    let names = ["triangle", "4-clique", "2-path"];
    let mut all_agree = true;
    let mut all_cost_ok = true;
    let mut best_speedup_at_largest = 0.0_f64;
    for (n, &users) in user_counts.iter().enumerate() {
        let abox = social_graph_abox(users, 8, 42);
        let store = abox;
        let statistics = StoreStatistics::collect(&store);
        for (q, name) in social_graph_queries().iter().zip(names) {
            let bt = evaluate_cq_instrumented(
                &store,
                q,
                &EvalConfig {
                    strategy: Some(JoinStrategy::Backtracking),
                    ..EvalConfig::default()
                },
            )
            .0;
            let gj = evaluate_cq_instrumented(
                &store,
                q,
                &EvalConfig {
                    strategy: Some(JoinStrategy::GenericJoin),
                    ..EvalConfig::default()
                },
            )
            .0;
            let agree = bt.iter().eq(gj.iter());
            all_agree &= agree;
            let bt_us = p50(&store, q, JoinStrategy::Backtracking);
            let gj_us = p50(&store, q, JoinStrategy::GenericJoin);
            let speedup = bt_us as f64 / gj_us.max(1) as f64;
            if n + 1 == user_counts.len() && speedup > best_speedup_at_largest {
                best_speedup_at_largest = speedup;
            }
            let pick = estimate_join_cost(&statistics, &q.body).strategy();
            let picked_us = match pick {
                JoinStrategy::Backtracking => bt_us,
                JoinStrategy::GenericJoin => gj_us,
            };
            let best = bt_us.min(gj_us);
            // E13 tolerance: the pick must be within 1.5x of the measured
            // winner plus timer noise.
            let cost_ok = picked_us <= best + best / 2 + 50;
            all_cost_ok &= cost_ok;
            writeln!(
                out,
                "{users:>5} {:>7}  {name:<9} {bt_us:>11} {gj_us:>11} {speedup:>7.1}x {:>8}  {:<13} {cost_ok:<7}  {agree}",
                store.len(),
                bt.len(),
                pick.label(),
            )
            .unwrap();
        }
    }
    writeln!(out, "answers identical across join strategies: {all_agree}").unwrap();
    writeln!(
        out,
        "cost model within tolerance of the measured winner on every query: {all_cost_ok}"
    )
    .unwrap();
    writeln!(
        out,
        "best generic-join speedup at largest scale: {best_speedup_at_largest:.1}x (target >= 5x)"
    )
    .unwrap();
    assert!(all_agree, "generic join diverged from backtracking:\n{out}");
    assert!(all_cost_ok, "cost model picked a losing strategy:\n{out}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_experiment_produces_a_report() {
        assert!(experiment_fig1().contains("SWR=true"));
        assert!(experiment_fig2(&[1, 2, 3]).contains("dangerous-cycle=false"));
        assert!(experiment_fig3().contains("NotWeaklyRecursive"));
        assert!(experiment_example3().contains("FO-rewritable=true"));
        assert!(experiment_class_subsumption(6, 6).contains("subsumption violations=0"));
        assert!(experiment_swr_scaling(&[4, 8]).contains("chain"));
        assert!(experiment_wr_scaling(&[4], 500).contains("wr_nodes"));
        assert!(experiment_rewriting_vs_chase(&[20]).contains("students"));
        assert!(experiment_rewriting_soundness().contains("consistent=true"));
        assert!(experiment_approximation_quality(&[1, 3]).contains("ground truth"));
        assert!(experiment_chase_scaling(&[8], &[30]).contains("speedup"));
        let e12 = experiment_serve_throughput(60, 4, 2);
        assert!(e12.contains("identical across serve"));
        assert!(e12.contains("warm-cache speedup"));
        let e14 = experiment_ingestion_incremental(&[200, 800], 10, 5, 60, 4);
        assert!(e14.contains("commit speedup"), "{e14}");
        assert!(e14.contains("incremental materialization speedup"), "{e14}");
        let e15 = experiment_retraction_dred(60, 4, 8);
        assert!(e15.contains("dred materialization speedup"), "{e15}");
        assert!(e15.contains("WHY latency"), "{e15}");
        assert!(e15.contains("provenance ablation"), "{e15}");
        let e13 = experiment_planner_vs_forced(60, 3);
        assert!(e13.contains("agree=true"), "{e13}");
        assert!(!e13.contains("agree=false"), "{e13}");
        assert!(
            e13.contains("planner plan=chase exact=true answer=true"),
            "{e13}"
        );
        assert!(e13.contains("forced rewrite exact=false"), "{e13}");
        let e16 = experiment_durability(60, 8, &[30]);
        assert!(e16.contains("commit overhead"), "{e16}");
        assert!(e16.contains("every-8 vs in-memory"), "{e16}");
        assert!(e16.contains("recovery time"), "{e16}");
        let e17 = experiment_tracing_overhead(60, 4);
        assert!(e17.contains("disabled-path overhead"), "{e17}");
        assert!(e17.contains("tracing enabled overhead"), "{e17}");
        let e18 = experiment_goal_driven(&[120], 3);
        assert!(
            e18.contains("answers identical across pipelines: true"),
            "{e18}"
        );
        assert!(e18.contains("goal-driven speedup"), "{e18}");
        let e19 = experiment_generic_join(&[240], 3);
        assert!(
            e19.contains("answers identical across join strategies: true"),
            "{e19}"
        );
        assert!(
            e19.contains("cost model within tolerance of the measured winner on every query: true"),
            "{e19}"
        );
    }
}
