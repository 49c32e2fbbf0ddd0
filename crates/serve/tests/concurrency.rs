//! Concurrency integration tests: QUERY traffic hammered from N threads
//! while a writer commits INSERT batches that swap the snapshot epoch.
//!
//! The invariant under test is snapshot isolation: every response must be
//! internally consistent — all answers drawn from exactly one epoch, never a
//! torn read. The workload makes tears detectable: each epoch `k` commits
//! the *pair* of facts `marker(mk, a)` and `marker(mk, b)` in one batch, so
//! in any published epoch `e` the relation holds exactly `2e` rows and every
//! key has both its `a` and its `b` row. A reader that observed a store
//! mid-mutation (or mixed two epochs) would see an unpaired key or a row
//! count that disagrees with the epoch it reports.

use ontorew_model::parse_query;
use ontorew_model::prelude::*;
use ontorew_model::Instance;
use ontorew_serve::{serve, QueryService, ServeClient, ServerConfig, ServiceConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Check one response: `rows` (key, tag) pairs claimed to come from `epoch`.
/// Panics with a description of the tear if the invariant is violated.
fn assert_snapshot_consistent(rows: &[(String, String)], epoch: u64, context: &str) {
    assert_eq!(
        rows.len() as u64,
        epoch * 2,
        "{context}: epoch {epoch} must hold exactly {} marker rows, saw {}",
        epoch * 2,
        rows.len()
    );
    let mut by_key: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (key, tag) in rows {
        by_key.entry(key).or_default().push(tag);
    }
    for (key, mut tags) in by_key {
        tags.sort();
        assert_eq!(
            tags,
            vec!["a", "b"],
            "{context}: key {key} is unpaired — torn read"
        );
    }
}

#[test]
fn service_queries_never_observe_torn_epochs() {
    // An empty ontology keeps the rewriting trivial: the test isolates the
    // snapshot machinery, not the rewriting engine.
    let service = Arc::new(QueryService::new(
        TgdProgram::new(),
        Instance::new(),
        ServiceConfig::default(),
    ));
    let query = parse_query("q(X, Y) :- marker(X, Y)").unwrap();
    const EPOCHS: usize = 300;
    const READERS: usize = 4;

    let writer_done = Arc::new(AtomicBool::new(false));
    let writer = {
        let service = Arc::clone(&service);
        let writer_done = Arc::clone(&writer_done);
        std::thread::spawn(move || {
            for k in 0..EPOCHS {
                let key = format!("m{k}");
                let (epoch, added) = service
                    .insert_facts(&[
                        Atom::fact("marker", &[&key, "a"]),
                        Atom::fact("marker", &[&key, "b"]),
                    ])
                    .expect("insert batch");
                assert_eq!(epoch, k as u64 + 1);
                assert_eq!(added, 2);
            }
            writer_done.store(true, Ordering::SeqCst);
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let service = Arc::clone(&service);
            let writer_done = Arc::clone(&writer_done);
            std::thread::spawn(move || {
                let query = parse_query("q(X, Y) :- marker(X, Y)").unwrap();
                let mut last_epoch = 0u64;
                let mut observed = 0usize;
                while !writer_done.load(Ordering::SeqCst) || observed == 0 {
                    let response = service.query(&query).expect("query");
                    assert!(
                        response.epoch >= last_epoch,
                        "reader {r}: epochs went backwards"
                    );
                    last_epoch = response.epoch;
                    let rows: Vec<(String, String)> = response
                        .answers
                        .iter()
                        .map(|row| (row[0].to_string(), row[1].to_string()))
                        .collect();
                    let rows: Vec<(String, String)> = rows
                        .iter()
                        .map(|(k, t)| (k.trim_matches('"').into(), t.trim_matches('"').into()))
                        .collect();
                    assert_snapshot_consistent(&rows, response.epoch, &format!("reader {r}"));
                    observed += 1;
                }
                observed
            })
        })
        .collect();

    writer.join().unwrap();
    let mut total_reads = 0usize;
    for r in readers {
        total_reads += r.join().unwrap();
    }
    assert!(total_reads >= READERS, "every reader made progress");
    // Final state: all epochs landed.
    let final_response = service.query(&query).unwrap();
    assert_eq!(final_response.epoch, EPOCHS as u64);
    assert_eq!(final_response.answers.len(), EPOCHS * 2);
}

#[test]
fn retraction_epochs_are_never_half_applied() {
    // A writer alternates INSERT and DELETE epochs over one marker pair:
    // epoch 2k+1 commits `marker(mk, a)` + `marker(mk, b)` as one batch,
    // epoch 2k+2 retracts the same pair as one batch. The invariant for
    // every reader — including ones holding old snapshots across many later
    // retractions — is that the marker relation holds exactly 2 rows on odd
    // epochs and 0 on even ones, with every present key fully paired. A
    // half-applied retraction (one of the pair gone, the other visible)
    // would break the pairing or the parity.
    let service = Arc::new(QueryService::new(
        TgdProgram::new(),
        Instance::new(),
        ServiceConfig::default(),
    ));
    let query = parse_query("q(X, Y) :- marker(X, Y)").unwrap();
    const CYCLES: usize = 150;
    const READERS: usize = 4;

    let writer_done = Arc::new(AtomicBool::new(false));
    let writer = {
        let service = Arc::clone(&service);
        let writer_done = Arc::clone(&writer_done);
        std::thread::spawn(move || {
            for k in 0..CYCLES {
                let key = format!("m{k}");
                let pair = [
                    Atom::fact("marker", &[&key, "a"]),
                    Atom::fact("marker", &[&key, "b"]),
                ];
                let (epoch, added) = service.insert_facts(&pair).expect("insert batch");
                assert_eq!((epoch, added), (2 * k as u64 + 1, 2));
                let (epoch, removed) = service.delete_facts(&pair).expect("delete batch");
                assert_eq!((epoch, removed), (2 * k as u64 + 2, 2));
            }
            writer_done.store(true, Ordering::SeqCst);
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let service = Arc::clone(&service);
            let writer_done = Arc::clone(&writer_done);
            std::thread::spawn(move || {
                let query = parse_query("q(X, Y) :- marker(X, Y)").unwrap();
                let mut last_epoch = 0u64;
                let mut held = Vec::new();
                let mut observed = 0usize;
                while !writer_done.load(Ordering::SeqCst) || observed == 0 {
                    let response = service.query(&query).expect("query");
                    assert!(
                        response.epoch >= last_epoch,
                        "reader {r}: epochs went backwards"
                    );
                    last_epoch = response.epoch;
                    let expected = if response.epoch % 2 == 1 { 2 } else { 0 };
                    let rows: Vec<(String, String)> = response
                        .answers
                        .iter()
                        .map(|row| {
                            (
                                row[0].to_string().trim_matches('"').to_string(),
                                row[1].to_string().trim_matches('"').to_string(),
                            )
                        })
                        .collect();
                    assert_eq!(
                        rows.len(),
                        expected,
                        "reader {r}: epoch {} should hold {expected} marker rows — \
                         half-applied retraction",
                        response.epoch
                    );
                    if !rows.is_empty() {
                        assert_snapshot_consistent(
                            &rows,
                            1, // one pair present on odd epochs
                            &format!("reader {r} at epoch {}", response.epoch),
                        );
                    }
                    // Hold snapshots across later retraction epochs.
                    if observed.is_multiple_of(16) {
                        held.push(service.snapshot());
                    }
                    observed += 1;
                }
                // Held snapshots still answer exactly as of their epoch: the
                // parity invariant holds no matter how many retractions have
                // been committed since.
                for snap in &held {
                    let count = snap
                        .store()
                        .relation(Predicate::new("marker", 2))
                        .map_or(0, |rel| rel.rows().count());
                    let expected = if snap.epoch() % 2 == 1 { 2 } else { 0 };
                    assert_eq!(
                        count,
                        expected,
                        "reader {r}: held snapshot of epoch {} mutated under a later \
                         retraction",
                        snap.epoch()
                    );
                }
                observed
            })
        })
        .collect();

    writer.join().unwrap();
    for r in readers {
        assert!(r.join().unwrap() >= 1);
    }
    // Final state: every pair retracted, the store is empty again.
    let final_response = service.query(&query).unwrap();
    assert_eq!(final_response.epoch, 2 * CYCLES as u64);
    assert!(final_response.answers.is_empty());
    assert_eq!(service.stats().deletes, CYCLES as u64);
}

#[test]
fn segmented_store_hammer_under_single_fact_commits() {
    // The worst case for the segmented copy-on-write store: one-fact
    // commits, so every epoch freezes a tiny tail and the size-tiered merge
    // policy constantly rebuilds segments, while readers hold snapshots of
    // many different epochs and probe them through both index candidates
    // and full scans. A torn segment (a reader observing a half-built merge
    // or a moving tail) would show up as a wrong row count, an unpaired
    // probe, or a panic.
    use ontorew_serve::EpochStore;

    let mut initial = Instance::new();
    for i in 0..64 {
        initial.insert_fact("base", &[&format!("b{i}"), "seed"]);
    }
    let store = Arc::new(EpochStore::new(initial));
    const COMMITS: usize = 400;
    const READERS: usize = 4;

    let writer_done = Arc::new(AtomicBool::new(false));
    let writer = {
        let store = Arc::clone(&store);
        let writer_done = Arc::clone(&writer_done);
        std::thread::spawn(move || {
            for k in 0..COMMITS {
                let receipt = store.commit_facts(&[Atom::fact("base", &[&format!("k{k}"), "x"])]);
                assert_eq!(receipt.epoch, k as u64 + 1);
                assert_eq!(receipt.facts, 64 + k + 1);
            }
            writer_done.store(true, Ordering::SeqCst);
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let store = Arc::clone(&store);
            let writer_done = Arc::clone(&writer_done);
            std::thread::spawn(move || {
                let p = Predicate::new("base", 2);
                let mut held = Vec::new();
                let mut observed = 0usize;
                while !writer_done.load(Ordering::SeqCst) || observed == 0 {
                    let snap = store.snapshot();
                    let rel = snap.store().relation(p).expect("base relation");
                    // Scan count must match the epoch exactly.
                    assert_eq!(
                        rel.rows().count() as u64,
                        64 + snap.epoch(),
                        "reader {r}: scan disagrees with epoch {}",
                        snap.epoch()
                    );
                    // Index probes against frozen and freshly merged
                    // segments: the seed rows are always there.
                    assert_eq!(rel.postings_len(1, &Term::constant("seed")), 64);
                    let probe = [Term::variable("K"), Term::constant("seed")];
                    assert_eq!(rel.candidates(&probe).count(), 64);
                    // Hold every 32nd snapshot to keep old segment stacks
                    // alive across later merges.
                    if observed.is_multiple_of(32) {
                        held.push(snap);
                    }
                    observed += 1;
                }
                // Held snapshots still answer exactly as of their epoch.
                for snap in &held {
                    let rel = snap.store().relation(p).expect("base relation");
                    assert_eq!(rel.rows().count() as u64, 64 + snap.epoch());
                }
                observed
            })
        })
        .collect();

    writer.join().unwrap();
    for r in readers {
        assert!(r.join().unwrap() >= 1);
    }
    let final_snap = store.snapshot();
    assert_eq!(final_snap.len(), 64 + COMMITS);
    // The size-tiered merge kept the segment stack logarithmic despite 400
    // one-fact commits.
    let rel = final_snap
        .store()
        .relation(Predicate::new("base", 2))
        .unwrap();
    assert!(
        rel.segment_count() <= 16,
        "segment stack should stay logarithmic, got {}",
        rel.segment_count()
    );
}

#[test]
fn tcp_queries_never_observe_torn_epochs() {
    let service = Arc::new(QueryService::new(
        TgdProgram::new(),
        Instance::new(),
        ServiceConfig::default(),
    ));
    let handle = serve(
        service,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 6,
            ..Default::default()
        },
    )
    .expect("server binds");
    let addr = handle.addr();
    const EPOCHS: usize = 120;
    const READERS: usize = 3;

    let writer_done = Arc::new(AtomicBool::new(false));
    let writer = {
        let writer_done = Arc::clone(&writer_done);
        std::thread::spawn(move || {
            let mut client = ServeClient::connect(addr).expect("writer connects");
            for k in 0..EPOCHS {
                let (added, epoch) = client
                    .insert(&format!("marker(m{k}, a); marker(m{k}, b)"))
                    .expect("insert");
                assert_eq!((added, epoch), (2, k as u64 + 1));
            }
            writer_done.store(true, Ordering::SeqCst);
            client.quit().expect("writer quits");
        })
    };

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let writer_done = Arc::clone(&writer_done);
            std::thread::spawn(move || {
                let mut client = ServeClient::connect(addr).expect("reader connects");
                let mut last_epoch = 0u64;
                let mut observed = 0usize;
                while !writer_done.load(Ordering::SeqCst) || observed == 0 {
                    let reply = client.query("q(X, Y) :- marker(X, Y)").expect("query");
                    assert!(reply.epoch >= last_epoch, "reader {r}: epoch regression");
                    last_epoch = reply.epoch;
                    let rows: Vec<(String, String)> = reply
                        .rows
                        .iter()
                        .map(|row| (row[0].clone(), row[1].clone()))
                        .collect();
                    assert_snapshot_consistent(&rows, reply.epoch, &format!("tcp reader {r}"));
                    observed += 1;
                }
                client.quit().expect("reader quits");
                observed
            })
        })
        .collect();

    writer.join().unwrap();
    for r in readers {
        assert!(r.join().unwrap() >= 1);
    }
    // The cache served the repeated query shape: exactly one distinct query
    // was ever compiled.
    let stats = handle.service().stats();
    assert_eq!(stats.cache.entries, 1);
    assert!(stats.cache.hits >= (READERS as u64), "{stats:?}");
    handle.shutdown();
}
