//! Layer probes of the traced run: each public function of the per-layer
//! table is timed directly on the workload's own data, a fixed number of
//! calls or a fixed time, and the median is reported.

use crate::metrics::Values;
use crate::stats::{median_f64, median_u64};
use crate::sut;
use crate::wire::{copy_dir, counter, enrolled};
use crate::workload::{
    onboard_programs, path2_query, selective_query, Kind, Op, Request, World, CLIQUE4, TRIANGLE,
};
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// How long a probe runs: until `calls` calls or `time`, whichever is first
/// (and always at least one call).
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    pub calls: usize,
    pub time: Duration,
}

impl Budget {
    pub const FULL: Budget = Budget {
        calls: 30,
        time: Duration::from_secs(1),
    };
    /// `--quick`: smoke use only.
    pub const QUICK: Budget = Budget {
        calls: 5,
        time: Duration::from_millis(150),
    };
}

/// Median wall time, in microseconds, of `run(prepare(i))` over the budget.
/// Only `run` is timed.
fn time_us<S, R>(
    budget: Budget,
    mut prepare: impl FnMut(usize) -> S,
    mut run: impl FnMut(S) -> R,
) -> f64 {
    let started = Instant::now();
    let mut nanos = Vec::with_capacity(budget.calls);
    while nanos.is_empty() || (nanos.len() < budget.calls && started.elapsed() < budget.time) {
        let input = prepare(nanos.len());
        let begin = Instant::now();
        std::hint::black_box(run(input));
        nanos.push(begin.elapsed().as_nanos() as u64);
    }
    median_u64(&mut nanos) as f64 / 1e3
}

fn fsync_count() -> u64 {
    sut::global_registry()
        .histogram_us("wal_fsync_seconds", "", &[])
        .count()
}

fn single(atom: sut::Atom) -> sut::Instance {
    let mut instance = sut::Instance::new();
    instance.insert(atom);
    instance
}

/// Run every probe that applies to `world`'s workload. `ops` is the replayed
/// prefix of client 0's stream (the query sample is taken from it);
/// `data_dir` is the durable workload's data directory as the window left it.
pub fn run(
    world: &World,
    ops: &[Op],
    budget: Budget,
    scratch: &Path,
    data_dir: Option<&Path>,
) -> io::Result<Values> {
    let mut values = Values::new();
    let program = &world.data.program;
    let abox = &world.data.abox;
    let store = sut::RelationalStore::from_instance(abox);
    let kind = world.spec.kind;

    // Up to 64 distinct queries of the replayed prefix.
    let mut texts: Vec<&str> = ops
        .iter()
        .filter_map(|op| match &op.request {
            Request::Query(text) => Some(text.as_str()),
            _ => None,
        })
        .collect();
    texts.sort_unstable();
    texts.dedup();
    texts.truncate(64);
    let queries: Vec<sut::ConjunctiveQuery> = texts
        .iter()
        .map(|t| sut::parse_query(t).expect("workload queries parse"))
        .collect();
    let cycle = |i: usize| &queries[i % queries.len()];

    values.insert(
        "model.parse_query_us",
        time_us(budget, |i| texts[i % texts.len()], sut::parse_query),
    );
    values.insert(
        "storage.stats_us",
        time_us(budget, |_| (), |()| sut::StoreStatistics::collect(&store)),
    );

    // The classifiers run on what gets onboarded: the generated programs on
    // `univ-churn-compile`, the workload's own ontology elsewhere.
    let onboarded = match kind {
        Kind::UnivChurnCompile => onboard_programs(),
        _ => vec![program.clone()],
    };
    let each_program =
        |name: &'static str, values: &mut Values, f: &dyn Fn(&sut::TgdProgram) -> f64| {
            let mut per_program: Vec<f64> = onboarded.iter().map(f).collect();
            values.insert(name, median_f64(&mut per_program));
        };
    let per = Budget {
        calls: budget.calls.div_ceil(onboarded.len()),
        time: budget.time / onboarded.len() as u32,
    };
    each_program("plan.new_us", &mut values, &|p| {
        time_us(per, |_| p.clone(), sut::Planner::new)
    });
    each_program("core.classify_us", &mut values, &|p| {
        time_us(per, |_| (), |()| sut::classify(p))
    });
    each_program("core.swr_check_us", &mut values, &|p| {
        time_us(per, |_| (), |()| sut::is_swr(p))
    });
    each_program("core.wr_check_us", &mut values, &|p| {
        time_us(per, |_| (), |()| sut::is_wr(p))
    });
    each_program("core.pnode_nodes", &mut values, &|p| {
        sut::check_wr(p).graph_size.0 as f64
    });

    let rewritable = !matches!(kind, Kind::RegistrarGoalRead | Kind::RegistrarCrudDurable);
    let (mut fetched, mut emitted) = (0usize, 0usize);
    let mut examine = |on: &sut::RelationalStore, query: &sut::ConjunctiveQuery| {
        let (_, stats) = sut::evaluate_cq_instrumented(on, query, &sut::EvalConfig::default());
        fetched += stats.rows_fetched;
        emitted += stats.answers_emitted;
    };
    if rewritable {
        let config = sut::RewriteConfig::for_program(program);
        values.insert(
            "rewrite.rewrite_us",
            time_us(budget, cycle, |q| sut::rewrite(program, q, &config)),
        );
        let (mut disjuncts, mut generated) = (0usize, 0usize);
        for query in &queries {
            let rewriting = sut::rewrite(program, query, &config);
            disjuncts += rewriting.len();
            generated += rewriting.stats.generated;
            for disjunct in rewriting.ucq.iter() {
                examine(&store, disjunct);
            }
        }
        values.insert(
            "rewrite.disjuncts_per_query",
            disjuncts as f64 / queries.len() as f64,
        );
        values.insert(
            "rewrite.generated_per_kept",
            generated as f64 / disjuncts.max(1) as f64,
        );
    } else {
        registrar_probes(world, &queries, budget, &mut values, &mut examine);
    }
    values.insert(
        "storage.rows_examined_per_answer",
        fetched as f64 / emitted.max(1) as f64,
    );

    if kind == Kind::SocialCyclicJoin {
        join_probes(&store, budget, &mut values);
    }
    if kind == Kind::RegistrarCrudDurable {
        maintenance_probes(world, &store, budget, &mut values);
        let dir = data_dir.expect("the durable workload keeps its data directory");
        persistence_probes(world, &store, budget, scratch, dir, &mut values)?;
    }
    Ok(values)
}

/// `magic.*` and `chase.*` on the registrar ontology.
fn registrar_probes(
    world: &World,
    queries: &[sut::ConjunctiveQuery],
    budget: Budget,
    values: &mut Values,
    examine: &mut dyn FnMut(&sut::RelationalStore, &sut::ConjunctiveQuery),
) {
    let program = &world.data.program;
    let abox = &world.data.abox;
    // Selective queries only: the broad one is inadmissible for magic sets.
    let selective: Vec<&sut::ConjunctiveQuery> = queries
        .iter()
        .filter(|q| sut::rewrite_goal_driven(program, q).is_ok())
        .collect();
    let fallback = sut::parse_query(&selective_query(42)).expect("selective query parses");
    let selective = if selective.is_empty() {
        vec![&fallback]
    } else {
        selective
    };
    let pick = |i: usize| selective[i % selective.len()];

    values.insert(
        "magic.rewrite_us",
        time_us(budget, pick, |q| sut::rewrite_goal_driven(program, q)),
    );
    let plain = sut::ChaseConfig::default();
    let seeded = |i: usize| {
        let magic = sut::rewrite_goal_driven(program, pick(i)).expect("filtered above");
        let mut instance = abox.clone();
        for seed in &magic.seeds {
            instance.insert(seed.clone());
        }
        (magic, instance)
    };
    let mut restricted_facts = Vec::new();
    values.insert(
        "magic.restricted_chase_us",
        time_us(budget, seeded, |(magic, instance)| {
            let result = sut::chase(&magic.program, &instance, &plain);
            restricted_facts.push(result.instance.len() as f64);
            result.rounds
        }),
    );

    let serving = plain.with_provenance(true);
    let (found, fired) = (
        counter("chase_triggers_found_total"),
        counter("chase_triggers_fired_total"),
    );
    let full = sut::chase(program, abox, &serving);
    let found = counter("chase_triggers_found_total") - found;
    let fired = counter("chase_triggers_fired_total") - fired;
    values.insert("chase.rounds", full.rounds as f64);
    values.insert(
        "chase.triggers_fired_per_found",
        fired as f64 / found.max(1) as f64,
    );
    values.insert(
        "magic.restricted_facts_per_full_facts",
        median_f64(&mut restricted_facts) / full.instance.len() as f64,
    );
    let with = time_us(
        budget,
        |_| (),
        |()| sut::chase(program, abox, &serving).rounds,
    );
    let without = time_us(
        budget,
        |_| (),
        |()| sut::chase(program, abox, &plain).rounds,
    );
    values.insert("chase.full_us", with);
    values.insert(
        "chase.provenance_overhead_share",
        (with - without) / without,
    );

    let model = sut::RelationalStore::from_instance(&full.instance);
    for query in queries {
        examine(&model, query);
    }
}

/// Both join strategies forced on the three social queries, and whether the
/// cost model picks the measured winner.
fn join_probes(store: &sut::RelationalStore, budget: Budget, values: &mut Values) {
    let statistics = sut::StoreStatistics::collect(store);
    let shapes: [(&str, String, &'static str, &'static str); 3] = [
        (
            "triangle",
            TRIANGLE.to_string(),
            "unify.backtrack_us.triangle",
            "unify.generic_join_us.triangle",
        ),
        (
            "clique4",
            CLIQUE4.to_string(),
            "unify.backtrack_us.clique4",
            "unify.generic_join_us.clique4",
        ),
        (
            "path2",
            path2_query(0),
            "unify.backtrack_us.path2",
            "unify.generic_join_us.path2",
        ),
    ];
    let mut correct = 0;
    for (_, text, backtrack_name, generic_name) in &shapes {
        let query = sut::parse_query(text).expect("social queries parse");
        let forced = |strategy| {
            let config = sut::EvalConfig {
                strategy: Some(strategy),
                ..sut::EvalConfig::default()
            };
            time_us(
                budget,
                |_| (),
                |()| sut::evaluate_cq_instrumented(store, &query, &config).1,
            )
        };
        let backtrack = forced(sut::JoinStrategy::Backtracking);
        let generic = forced(sut::JoinStrategy::GenericJoin);
        values.insert(backtrack_name, backtrack);
        values.insert(generic_name, generic);
        let winner = match generic < backtrack {
            true => sut::JoinStrategy::GenericJoin,
            false => sut::JoinStrategy::Backtracking,
        };
        if sut::estimate_join_cost(&statistics, &query.body).strategy() == winner {
            correct += 1;
        }
    }
    values.insert(
        "storage.cost_pick_correct_share",
        correct as f64 / shapes.len() as f64,
    );
}

/// Incremental maintenance, provenance and the in-memory commit path.
fn maintenance_probes(
    world: &World,
    store: &sut::RelationalStore,
    budget: Budget,
    values: &mut Values,
) {
    let program = &world.data.program;
    let abox = &world.data.abox;
    let registrar = world.registrar.as_ref().expect("registrar world");
    let config = sut::ChaseConfig::default().with_provenance(true);
    let base = sut::chase(program, abox, &config);

    // Inserts: a course the student is not enrolled in yet. Deletes: one of
    // the student's base enrollments.
    let fresh = |i: usize| {
        let student = (i * 37) % registrar.initial.len();
        let course = registrar
            .courses
            .iter()
            .find(|c| !registrar.initial[student].contains(*c))
            .expect("nobody is enrolled everywhere");
        enrolled(student, course)
    };
    let existing = |i: usize| {
        let student = (i * 37) % registrar.initial.len();
        let course = registrar.initial[student]
            .iter()
            .next()
            .expect("every student is enrolled");
        enrolled(student, course)
    };
    values.insert(
        "chase.incremental_us_per_commit",
        time_us(
            budget,
            |i| single(fresh(i)),
            |delta| {
                sut::chase_incremental(program, &base, &delta, &config)
                    .added
                    .len()
            },
        ),
    );
    let (mut overdeleted, mut removed) = (0usize, 0usize);
    values.insert(
        "chase.retract_us_per_commit",
        time_us(
            budget,
            |i| single(existing(i)),
            |gone| {
                let retracted = sut::chase_retract(program, &base, &gone, &config);
                overdeleted += retracted.overdeleted;
                removed += retracted.removed;
                retracted.scratch
            },
        ),
    );
    values.insert(
        "chase.overdeleted_per_deleted",
        overdeleted as f64 / removed.max(1) as f64,
    );

    let graph = base.provenance.as_ref().expect("chased with provenance");
    let derived: Vec<sut::Atom> = (0..registrar.initial.len())
        .filter_map(|student| {
            let must = registrar.must_complete(&registrar.initial[student]);
            let course = must.iter().next()?;
            Some(sut::Atom::fact(
                "mustComplete",
                &[&format!("student{student}"), course],
            ))
        })
        .take(64)
        .collect();
    values.insert(
        "chase.why_us",
        time_us(
            budget,
            |i| &derived[i % derived.len()],
            |fact| graph.why(fact).map(|s| s.len()),
        ),
    );

    let epochs = sut::EpochStore::new(store.clone());
    values.insert(
        "serve.snapshot.commit_us",
        time_us(
            budget,
            |i| [fresh(i)],
            |facts| epochs.commit_facts(&facts).epoch,
        ),
    );
    values.insert(
        "model.freeze_us",
        time_us(
            budget,
            |_| sut::RelationalStore::from_instance(abox),
            |mut s| s.freeze(),
        ),
    );
    let atoms: Vec<sut::Atom> = abox.atoms().collect();
    let load = time_us(
        budget,
        |_| atoms.clone(),
        |atoms| {
            let mut instance = sut::Instance::new();
            for atom in atoms {
                instance.insert(atom);
            }
            instance.len()
        },
    );
    values.insert("model.insert_us_per_fact", load / atoms.len() as f64);
}

/// WAL, checkpoint and recovery pieces, under `fsync always`.
fn persistence_probes(
    world: &World,
    store: &sut::RelationalStore,
    budget: Budget,
    scratch: &Path,
    data_dir: &Path,
    values: &mut Values,
) -> io::Result<()> {
    let always = sut::FsyncPolicy::Always;
    let root = scratch.join("probe");
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root)?;

    let mut wal = sut::Wal::open(&root.join("probe.wal"), always)?;
    let fsyncs = fsync_count();
    let mut error = None;
    let (mut appends, mut last_size) = (0u64, 0u64);
    let record = |i: usize| sut::WalRecord {
        epoch: i as u64 + 1,
        kind: sut::WalOpKind::Insert,
        facts: vec![enrolled(i, "course0")],
    };
    values.insert(
        "storage.persist.wal_append_us",
        time_us(budget, record, |record| match wal.append(&record) {
            Ok(size) => {
                appends += 1;
                last_size = size;
            }
            Err(e) => error = Some(e),
        }),
    );
    if let Some(e) = error {
        return Err(e);
    }
    values.insert(
        "storage.persist.wal_fsyncs_per_commit",
        (fsync_count() - fsyncs) as f64 / appends as f64,
    );
    values.insert(
        "storage.persist.wal_bytes_per_commit",
        last_size as f64 / appends as f64,
    );

    let storage =
        sut::TenantStorage::create(&root, "tenant", &world.data.program.to_string(), always)?;
    let mut frozen = store.clone();
    frozen.freeze();
    let mut error = None;
    values.insert(
        "storage.persist.checkpoint_us",
        time_us(
            budget,
            |i| i as u64 + 1,
            |epoch| {
                if let Err(e) = storage.checkpoint(&frozen, epoch) {
                    error = Some(e);
                }
            },
        ),
    );
    if let Some(e) = error {
        return Err(e);
    }
    let manifest = sut::Manifest::read(&root.join("tenant").join("MANIFEST"))?
        .ok_or_else(|| io::Error::other("checkpoint left no manifest"))?;
    let segment_bytes: u64 = manifest.segments.iter().map(|s| s.bytes).sum();
    values.insert("storage.persist.segment_bytes", segment_bytes as f64);

    // Recovery pieces on the window's own data directory. Opening a tenant
    // heals its WAL tail in place, so every call gets a fresh copy.
    let mut replayed = 0usize;
    let mut error = None;
    values.insert(
        "storage.persist.open_us",
        time_us(
            budget,
            |i| {
                let copy = root.join(format!("open-{i}"));
                copy_dir(data_dir, &copy).map(|()| copy)
            },
            |copy| match copy.and_then(|copy| sut::TenantStorage::open(&copy, "default", always)) {
                Ok(Some(recovered)) => replayed = recovered.replayed,
                Ok(None) => {
                    error = Some(io::Error::other(
                        "the data directory holds no default tenant",
                    ))
                }
                Err(e) => error = Some(e),
            },
        ),
    );
    if let Some(e) = error {
        return Err(e);
    }
    values.insert("storage.persist.replayed_records", replayed as f64);

    let tenant = data_dir.join("default");
    let manifest = sut::Manifest::read(&tenant.join("MANIFEST"))?
        .ok_or_else(|| io::Error::other("the data directory has no manifest"))?;
    let megabytes = manifest.segments.iter().map(|s| s.bytes).sum::<u64>() as f64 / 1e6;
    let mut error = None;
    let all = time_us(
        budget,
        |_| (),
        |()| {
            for entry in &manifest.segments {
                if let Err(e) =
                    sut::read_segment(&tenant.join("segments").join(&entry.file), entry.crc)
                {
                    error = Some(e);
                }
            }
        },
    );
    if let Some(e) = error {
        return Err(e);
    }
    values.insert(
        "storage.persist.read_segment_us_per_mb",
        all / megabytes.max(1e-9),
    );
    std::fs::remove_dir_all(&root)
}
