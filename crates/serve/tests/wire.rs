//! Wire tests of the reply path: the exact bytes of each kind of reply, a
//! reply far larger than the loopback socket buffers, and a peer that sends
//! a request and then never reads its reply.

use ontorew_model::{parse_program, Instance};
use ontorew_serve::{serve, QueryService, ServeClient, ServerConfig, ServerHandle, ServiceConfig};
use ontorew_telemetry::global_ring;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn start(program: &str, store: Instance) -> ServerHandle {
    start_with(program, store, None)
}

/// Start a two-worker server, with the slow-query log at `slow_query`.
fn start_with(program: &str, store: Instance, slow_query: Option<Duration>) -> ServerHandle {
    let program = parse_program(program).expect("test ontology parses");
    let service = Arc::new(QueryService::new(program, store, ServiceConfig::default()));
    serve(
        service,
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            slow_query,
            ..Default::default()
        },
    )
    .expect("server binds")
}

/// Send every request line in one write, the last one being `QUIT`, and
/// return everything the server wrote until it closed the connection.
fn session(handle: &ServerHandle, requests: &[&str]) -> String {
    let mut stream = TcpStream::connect(handle.addr()).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut script = requests.join("\n");
    script.push('\n');
    stream.write_all(script.as_bytes()).unwrap();
    let mut transcript = String::new();
    stream.read_to_string(&mut transcript).unwrap();
    transcript
}

/// Replace what changes from run to run with `*`: latencies (`us=`,
/// `p50_us=`, `p99_us=`, a span's `12us @3us`), uptime, request ids, and
/// the per-tenant request counts of `STATS`, which roll up a histogram
/// shared by every server in the process.
fn mask(transcript: &str) -> String {
    const VOLATILE: &[&str] = &["us", "id", "p50_us", "p99_us", "uptime_s", "requests"];
    let token = |t: &str| -> String {
        if let Some((key, _)) = t.split_once('=').filter(|(k, _)| VOLATILE.contains(k)) {
            return format!("{key}=*");
        }
        let (at, rest) = t.strip_prefix('@').map_or(("", t), |r| ("@", r));
        match rest.strip_suffix("us") {
            Some(digits) if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) => {
                format!("{at}*us")
            }
            _ => t.to_string(),
        }
    };
    let lines: Vec<String> = transcript
        .split('\n')
        .map(|line| line.split(' ').map(token).collect::<Vec<_>>().join(" "))
        .collect();
    lines.join("\n")
}

const GOLDEN_ONTOLOGY: &str = "[R1] student(X) -> person(X). [R2] teaches(Y, C) -> person(Y).";

fn golden_store() -> Instance {
    let mut store = Instance::new();
    store.insert_fact("student", &["sara"]);
    store.insert_fact("student", &["ben jones"]);
    store.insert_fact("student", &["say \"hi\""]);
    store.insert_fact("teaches", &["ada", "db101"]);
    store
}

/// The masked transcript of [`reply_bytes_match_the_protocol_exactly`].
/// The boolean query's one answer is the empty row, `ROW ` with its
/// trailing space.
const GOLDEN_TRANSCRIPT: &str = r#"OK ANSWERS count=4 epoch=0 plan=hybrid strategy=rewriting cache=miss exact=true us=*
ROW sara
ROW "ben jones"
ROW "say \"hi\""
ROW ada
END
OK ANSWERS count=1 epoch=0 plan=hybrid strategy=rewriting cache=miss exact=true us=*
ROW 
END
OK ANSWERS count=1 epoch=0 plan=hybrid strategy=rewriting cache=miss exact=true us=*
ROW ada db101
END
OK WHY present=true steps=2 epoch=0 fact=person(sara)
INFO person(sara) derived rule=0 from student(sara)
INFO student(sara) asserted
END
OK WHYNOT present=false candidates=2 epoch=0 fact=person(zed)
INFO rule=0 body=student(zed) missing=student(zed) invents=false
INFO rule=1 body=teaches(zed, C) missing=teaches(zed, C) invents=false
END
OK PLAN key=pa9b48a92cec91863/qea6233a46e246111 plan=hybrid disjuncts=1 exact=true cached=false
INFO plan: hybrid
INFO query: q(X) :- student(X)
INFO reason: FO-rewritable and chase-terminating (Linear, Multilinear, Guarded, Frontier-Guarded, Sticky, Sticky-Join, Acyclic-GRD, Weakly-Acyclic, Jointly-Acyclic, Weakly-Sticky, Warded, SWR, WR): cost signals choose per execution
INFO classes: Linear, Multilinear, Guarded, Frontier-Guarded, Sticky, Sticky-Join, Acyclic-GRD, Weakly-Acyclic, Jointly-Acyclic, Weakly-Sticky, Warded, SWR, WR
INFO rewriting: 1 disjuncts (1 ucq + 0 grounded), complete=true, generated=1, depth=0
INFO hybrid cutoff: prefer materialization above 256 disjuncts when affordable
INFO cached materialization: scratch, complete=true, facts=8
INFO cost model: join strategy=backtracking backtracking=3 generic_join=n/a (acyclic)
INFO cost model: estimated rows=3
INFO cost model: rewriting=3 materialization=3
END
OK STATS queries=3 prepares=1 inserts=0 deletes=0 whys=2 errors=0 cache_hits=0 cache_misses=4 cache_entries=4 hit_rate=0.0000 epoch=0 facts=4 prov_nodes=8 prov_edges=4 prov_bytes=904 p50_us=* p99_us=* uptime_s=* tenants=1 wal_bytes=0 segments_on_disk=0 checkpoint_epoch=0 recoveries=0
INFO tenant=default requests=* p50_us=* p99_us=*
END
ERR unknown verb "FROB"; expected PREPARE, EXPLAIN, QUERY, INSERT, DELETE, WHY, WHY NOT, TENANT, STATS, METRICS, TRACE, PING, QUIT, SHUTDOWN
OK INSERTED added=1 epoch=1
OK TRACE enabled=true
OK ANSWERS count=4 epoch=1 plan=hybrid strategy=rewriting cache=hit exact=true us=*
ROW sara
ROW "ben jones"
ROW "say \"hi\""
ROW "x; y"
END
TRACE id=* spans=3 us=*
INFO serve.request *us @*us id=* verb=QUERY tenant=default
INFO   plan.run *us @*us kind=hybrid strategy=Rewriting answers=4
INFO     plan.evaluate *us @*us disjuncts=1
END
OK TRACE enabled=false
TRACE id=* spans=1 us=*
INFO serve.request *us @*us id=* verb=TRACE tenant=default
END
OK PONG
OK BYE
"#;

/// The reply of every kind of request, byte for byte as the protocol
/// specifies it. Buffering the replies must not change one byte.
#[test]
fn reply_bytes_match_the_protocol_exactly() {
    let handle = start(GOLDEN_ONTOLOGY, golden_store());
    let transcript = session(
        &handle,
        &[
            "QUERY q(X) :- person(X)",
            "QUERY q() :- person(sara)",
            "QUERY q(X, Y) :- teaches(X, Y)",
            "WHY person(sara)",
            "WHY NOT person(zed)",
            "EXPLAIN q(X) :- student(X)",
            "STATS",
            "FROB",
            "INSERT student(\"x; y\")",
            "TRACE ON",
            "QUERY q(X) :- student(X)",
            "TRACE OFF",
            "PING",
            "QUIT",
        ],
    );
    assert_eq!(
        mask(&transcript),
        GOLDEN_TRANSCRIPT,
        "raw transcript:\n{transcript}"
    );
    handle.shutdown();
}

/// Rows of the large reply: with its `ROW ` prefix, quotes and escapes each
/// line is over 1 KiB, so the reply is over 8 MiB, more than the loopback
/// send and receive buffers hold together.
const BIG_ROWS: usize = 8 * 1024;

/// The second column of row `i`: quoted on the wire (it holds spaces), with
/// both escapes.
fn big_value(i: usize) -> String {
    format!("row {i} \\ \" {}", "x".repeat(1024))
}

fn big_store() -> Instance {
    let mut store = Instance::new();
    for i in 0..BIG_ROWS {
        store.insert_fact("big", &[&i.to_string(), &big_value(i)]);
    }
    store
}

const BIG_QUERY: &str = "q(X, Y) :- big(X, Y)";

#[test]
fn a_reply_larger_than_the_socket_buffers_round_trips_intact() {
    let handle = start("", big_store());
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    let reply = client.query(BIG_QUERY).unwrap();
    assert_eq!(reply.count, BIG_ROWS);
    assert_eq!(reply.rows.len(), reply.count);
    let bytes: usize = reply.rows.iter().flatten().map(String::len).sum();
    assert!(
        bytes > 8 << 20,
        "the reply holds only {bytes} bytes of cells"
    );
    let mut rows = reply.rows;
    rows.sort_by_key(|row| row[0].parse::<usize>().unwrap());
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(row, &[i.to_string(), big_value(i)], "row {i}");
    }
    // The connection is still framed correctly after the large reply.
    client.ping().unwrap();
    handle.shutdown();
}

/// A peer that sends a `QUERY` and never reads its reply holds its worker
/// until a write has waited out the write timeout (5 s), and not one timeout
/// longer: the unsent rest of the reply is dropped, not flushed again on the
/// way out. The other worker serves meanwhile, and the freed one serves
/// again afterwards.
#[test]
fn a_peer_that_stops_reading_is_cut_at_the_write_timeout() {
    // An armed slow-query log (whose threshold nothing reaches) puts every
    // request's trace in the global ring, with the time spent in the request.
    let handle = start_with("", big_store(), Some(Duration::from_secs(3600)));
    let mut stalled = TcpStream::connect(handle.addr()).unwrap();
    stalled
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let sent = Instant::now();
    stalled
        .write_all(format!("QUERY {BIG_QUERY}\n").as_bytes())
        .unwrap();

    let mut live = ServeClient::connect(handle.addr()).unwrap();
    live.ping().unwrap();
    assert_eq!(live.query("q(X) :- big(X, Y)").unwrap().count, BIG_ROWS);
    assert_eq!(
        handle.active_connections(),
        2,
        "the stalled peer still holds its worker"
    );

    // The loopback stack lets a stalled peer's window open a little at a
    // time, and each write that makes progress restarts the timeout, so
    // only the end of the request is pinned down, not how long it ran.
    while handle.active_connections() > 1 {
        assert!(
            sent.elapsed() < Duration::from_secs(120),
            "the stalled connection was never cut"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let cut = sent.elapsed();
    let stalled_request = global_ring()
        .snapshot()
        .into_iter()
        .find(|trace| trace.verb == "QUERY" && trace.total_us >= 4_000_000)
        .expect("the stalled request's trace is in the ring");
    let in_request = Duration::from_micros(stalled_request.total_us);
    assert!(
        in_request >= Duration::from_secs(5),
        "the request ended after {in_request:?}, before a write timed out"
    );
    assert!(
        cut < in_request + Duration::from_secs(3),
        "the worker was held {:?} after the failed write",
        cut - in_request
    );

    // The freed worker serves a new connection while `live` keeps the
    // other worker busy.
    let mut next = ServeClient::connect(handle.addr()).unwrap();
    next.ping().unwrap();
    live.ping().unwrap();

    // What reached the stalled peer is an incomplete reply.
    let mut received = Vec::new();
    let _ = stalled.read_to_end(&mut received);
    assert!(received.starts_with(format!("OK ANSWERS count={BIG_ROWS} ").as_bytes()));
    assert!(!received.ends_with(b"END\n"), "the reply arrived whole");
    handle.shutdown();
}

/// A constant ending in a backslash is stored and answered as it was sent.
#[test]
fn backslashes_survive_the_wire() {
    let handle = start("", Instance::new());
    let mut client = ServeClient::connect(handle.addr()).unwrap();
    client
        .insert(r#"r("x y\\"); r("a\"b\\c"); r(bare\)"#)
        .unwrap();
    let mut rows: Vec<String> = client
        .query("q(X) :- r(X)")
        .unwrap()
        .rows
        .into_iter()
        .flatten()
        .collect();
    rows.sort();
    assert_eq!(rows, ["a\"b\\c", "bare\\", "x y\\"]);
    handle.shutdown();
}
