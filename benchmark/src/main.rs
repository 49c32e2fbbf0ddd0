//! The repo benchmark: five wire-level OBDA workloads, named end-to-end and
//! per-layer metrics, and a traced run. See `README.md`.
//!
//! ```text
//! ontorew-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ontorew-benchmark --manifest            print BENCHMARK.json
//! ontorew-benchmark --interactions        print the per-layer prediction table
//! ontorew-benchmark --compare A B         two saved outputs against the bounds
//! ontorew-benchmark --spread A B C ...    inter-quartile spread over saved outputs
//! ```
//!
//! One invocation runs one workload once, in its own process (so that
//! `peak_rss_mb` is that workload's); `run.sh` loops over the five. Every
//! metric is printed as `workload metric value unit`, and the last line of
//! standard output is the JSON result object of the benchmark contract.

mod gen;
mod metrics;
mod probes;
mod stats;
mod sut;
mod trace;
mod wire;
mod workload;

use metrics::{Values, END_TO_END, PER_LAYER, RUN_SECONDS};
use stats::{median_f64, percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use wire::{Sample, WireRun};
use workload::{Op, OpStream, Spec, World, SPECS};

/// Times a workload is set up in one untraced run; the median is `setup_s`.
const SETUPS: usize = 5;

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    traced: bool,
    quick: bool,
}

fn usage() -> String {
    let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    format!(
        "usage: ontorew-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]\n\
         \x20      ontorew-benchmark --manifest | --interactions | --compare A B | --spread A B C ...\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut parsed = Args {
        workload: &SPECS[0],
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        quick: false,
    };
    let mut seconds_given = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{what} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                workload = Some(
                    workload::spec_named(name).ok_or_else(|| format!("no workload {name:?}"))?,
                );
            }
            "--seed" => {
                parsed.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                parsed.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds_given = true;
            }
            "--trace" => {
                parsed.traced = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--quick" => parsed.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    parsed.workload = workload.ok_or("--workload is required")?;
    if parsed.quick && !seconds_given {
        parsed.seconds = 2.0;
    }
    Ok(parsed)
}

fn sorted_us(samples: impl Iterator<Item = Sample>) -> Vec<u64> {
    let mut v: Vec<u64> = samples.map(|s| s.dur_ns).collect();
    v.sort_unstable();
    v
}

fn p_us(sorted_ns: &[u64], p: f64) -> Option<f64> {
    (!sorted_ns.is_empty()).then(|| percentile(sorted_ns, p) as f64 / 1e3)
}

/// Every number the wire window yields: the end-to-end metrics, the
/// workload-specific wire-level metrics, and per-class medians (under
/// `class.<name>.p50_us`, printed but part of no contract list).
fn wire_values(
    spec: &Spec,
    run: &WireRun,
    values: &mut Values,
    extra: &mut Vec<(String, f64, &'static str)>,
) {
    let in_window = |s: &&Sample| s.at_ns < run.window_ns;
    let samples: Vec<Sample> = run.samples.iter().filter(in_window).copied().collect();
    values.insert("ops_per_s", samples.len() as f64 / run.elapsed_s);
    let mut setup = run.setup_s.clone();
    values.insert("setup_s", median_f64(&mut setup));
    values.insert("peak_rss_mb", run.peak_rss_mb);
    values.insert("workloads.abox_gen_s", run.abox_gen_s);

    // Ops started per segment: how even the window was.
    let mut per_segment = [0u64; stats::SEGMENTS];
    for s in &samples {
        per_segment
            [(s.at_ns as u128 * stats::SEGMENTS as u128 / run.window_ns as u128) as usize] += 1;
    }
    for (i, n) in per_segment.iter().enumerate() {
        extra.push((format!("segment.{i}.ops"), *n as f64, "count"));
    }

    let queries: Vec<Sample> = samples.iter().filter(|s| s.is_query).copied().collect();
    if !queries.is_empty() {
        let sorted = sorted_us(queries.iter().copied());
        values.insert("query_p50_us", percentile(&sorted, 50.0) as f64 / 1e3);
        let points: Vec<(u64, u64)> = queries.iter().map(|s| (s.at_ns, s.dur_ns)).collect();
        let tail = stats::tail(&points, run.window_ns, spec.tail_percentile);
        values.insert("query_p99_us", tail.value as f64 / 1e3);
        extra.push((
            "query_p99_us.percentile".into(),
            tail.percentile,
            "percentile",
        ));
        extra.push(("query_p99_us.samples".into(), tail.samples as f64, "count"));
        extra.push((
            "query_p99_us.segmented".into(),
            tail.segmented as u8 as f64,
            "bool",
        ));
    }
    for (index, class) in spec.classes.iter().enumerate() {
        let sorted = sorted_us(
            samples
                .iter()
                .filter(|s| s.class as usize == index)
                .copied(),
        );
        if let Some(p50) = p_us(&sorted, 50.0) {
            extra.push((format!("class.{class}.p50_us"), p50, "us"));
            extra.push((format!("class.{class}.ops"), sorted.len() as f64, "count"));
        }
    }

    let class = |name: &str| spec.class_named(name);
    let of = |classes: &[Option<u8>]| {
        sorted_us(
            samples
                .iter()
                .filter(|s| classes.contains(&Some(s.class)))
                .copied(),
        )
    };
    let commits = of(&[class("insert"), class("delete")]);
    if let (Some(p50), Some(p99)) = (p_us(&commits, 50.0), p_us(&commits, 99.0)) {
        values.insert("commit_p50_us", p50);
        values.insert("commit_p99_us", p99);
    }
    let fresh_reads = sorted_us(samples.iter().filter(|s| s.read_after_write).copied());
    if let Some(p50) = p_us(&fresh_reads, 50.0) {
        values.insert("read_after_write_p50_us", p50);
    }
    if let Some(p50) = p_us(&of(&[class("onboard")]), 50.0) {
        values.insert("onboard_p50_ms", p50 / 1e3);
    }
    if let Some(selective) = class("selective") {
        let all = samples.iter().filter(|s| s.class == selective).count();
        let goal = samples
            .iter()
            .filter(|s| s.class == selective && s.goal_driven)
            .count();
        values.insert("plan.goal_driven_share", goal as f64 / all.max(1) as f64);
    }
    if let Some(recovery) = &run.recovery {
        values.insert("recovery_ms", median_f64(&mut recovery.recovery_ms.clone()));
        values.insert(
            "first_query_after_recovery_ms",
            median_f64(&mut recovery.first_query_ms.clone()),
        );
    }
    if run.user_bytes > 0 {
        let written = run.wal_bytes_written + run.segment_bytes_written;
        values.insert(
            "disk_bytes_per_user_byte",
            written as f64 / run.user_bytes as f64,
        );
    }
    let lookups = run.cache_hits + run.cache_misses;
    values.insert(
        "serve.cache.hit_rate",
        run.cache_hits as f64 / lookups.max(1) as f64,
    );
    values.insert("serve.cache.evictions", run.cache_evictions as f64);
    values.insert("serve.durability.compactions", run.compactions as f64);
}

/// What one run of one workload reports.
struct Outcome {
    values: Values,
    /// Printed and saved, but in neither contract list.
    extra: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

fn scratch_dir(spec: &Spec) -> PathBuf {
    PathBuf::from(format!(
        "benchmark/out/work-{}-{}",
        spec.name,
        std::process::id()
    ))
}

/// The untraced run: the end-to-end metrics.
fn run_untraced(spec: &'static Spec, args: &Args) -> std::io::Result<Outcome> {
    let world = World::new(spec, args.seed);
    let scratch = scratch_dir(spec);
    std::fs::create_dir_all(&scratch)?;
    let setups = if args.quick { 1 } else { SETUPS };
    let run = wire::run(
        &world,
        args.seed,
        Duration::from_secs_f64(args.seconds),
        setups,
        &scratch,
        false,
    )?;
    std::fs::remove_dir_all(&scratch)?;
    let mut values = Values::new();
    let mut extra = vec![("oracle_s".to_string(), world.oracle_s, "s")];
    wire_values(spec, &run, &mut values, &mut extra);
    Ok(Outcome {
        values,
        extra,
        attempted: run.attempted,
        failed: run.failed,
        notes: run.notes,
    })
}

/// The traced run: a shorter untraced wire window (for the numbers only the
/// wire can give), the in-process replay with and without spans, and the
/// layer probes.
fn run_traced(spec: &'static Spec, args: &Args) -> std::io::Result<Outcome> {
    let world = World::new(spec, args.seed);
    let scratch = scratch_dir(spec);
    std::fs::create_dir_all(&scratch)?;
    let window = Duration::from_secs_f64(args.seconds * 0.4);
    let run = wire::run(&world, args.seed, window, 1, &scratch, true)?;
    let mut values = Values::new();
    let mut extra = Vec::new();
    wire_values(spec, &run, &mut values, &mut extra);
    let (mut attempted, mut failed, mut notes) = (run.attempted, run.failed, run.notes.clone());

    let mut stream = OpStream::new(&world, args.seed, 0);
    let replay_ops = if args.quick {
        spec.replay_ops / 4
    } else {
        spec.replay_ops
    };
    let ops: Vec<Op> = (0..replay_ops).map(|_| stream.next_op()).collect();
    // Each pass starts from a freshly built registry, so all three see the
    // same cache misses, materializations and commits: counts repeat exactly.
    let mut pass =
        |recorder: Option<&mut trace::Recorder>, label: &str| -> std::io::Result<trace::Replay> {
            let dir = spec
                .durable()
                .then(|| scratch.join(format!("replay-{label}")));
            let registry = wire::build_registry(spec, &world.data, dir.as_deref())?;
            let replay = trace::replay(&world, &registry, &ops, recorder);
            drop(registry);
            if let Some(dir) = dir {
                std::fs::remove_dir_all(dir)?;
            }
            attempted += replay.attempted;
            failed += replay.failed;
            notes.extend(replay.notes.iter().cloned());
            Ok(replay)
        };
    // Untraced, traced, untraced: the overhead is taken against the mean of
    // the two untraced passes, which cancels drift across the three. It is
    // the median over the ops of each op's own relative overhead: a sum would
    // be decided by the few slowest ops (a tenant creation, a full chase),
    // whose times differ between passes for reasons other than tracing.
    let plain = pass(None, "plain")?;
    let mut recorder = trace::Recorder::new();
    let traced = pass(Some(&mut recorder), "traced")?;
    let again = pass(None, "again")?;

    let mut overheads: Vec<f64> = (0..ops.len())
        .map(|i| {
            let untraced = (plain.op_ns[i] + again.op_ns[i]) as f64 / 2.0;
            (traced.op_ns[i] as f64 - untraced) / untraced.max(1.0)
        })
        .collect();
    values.insert("telemetry.trace_overhead_share", median_f64(&mut overheads));
    values.insert(
        "trace.program_spans_per_op",
        traced.program_spans as f64 / ops.len() as f64,
    );
    let mut in_process = plain.query_ns.clone();
    if !in_process.is_empty() {
        let p50 = stats::median_u64(&mut in_process) as f64 / 1e3;
        values.insert("inprocess.query_p50_us", p50);
        if let Some(wire_p50) = values.get("query_p50_us").copied() {
            values.insert("serve.wire_overhead_us", wire_p50 - p50);
        }
    }
    let by_name = trace::durations_by_name(&recorder.spans);
    let span_metrics = [
        ("serve.proto.parse_request", "serve.proto.parse_request_us"),
        ("rewrite.fingerprint", "rewrite.fingerprint_us"),
        ("serve.cache.lookup", "serve.cache.lookup_us"),
        ("plan.prepare", "plan.prepare_us"),
        ("plan.execute", "plan.execute_us"),
        ("storage.eval", "storage.eval_us"),
    ];
    for (span, metric) in span_metrics {
        if let Some(durations) = by_name.get(span) {
            values.insert(
                metric,
                stats::median_u64(&mut durations.clone()) as f64 / 1e3,
            );
        }
    }
    if let Some(render) = by_name.get("serve.proto.render") {
        let rows = traced.rows_rendered.max(1) as f64;
        values.insert(
            "serve.proto.render_us_per_row",
            render.iter().sum::<u64>() as f64 / 1e3 / rows,
        );
    }
    // Self time per span name, for the human-readable output.
    let selfs = trace::self_times(&recorder.spans);
    let mut self_by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for (span, self_ns) in recorder.spans.iter().zip(&selfs) {
        *self_by_name.entry(span.name).or_default() += self_ns;
    }
    for (name, self_ns) in self_by_name {
        extra.push((format!("self_ms.{name}"), self_ns as f64 / 1e6, "ms"));
    }
    let out = Path::new("benchmark/out");
    trace::write_ndjson(
        &out.join(format!("trace-{}-{}.ndjson", spec.name, args.seed)),
        spec.name,
        &recorder.spans,
    )?;

    let budget = if args.quick {
        probes::Budget::QUICK
    } else {
        probes::Budget::FULL
    };
    let data_dir = run.data_dir.as_deref();
    values.extend(probes::run(&world, &ops, budget, &scratch, data_dir)?);
    std::fs::remove_dir_all(&scratch)?;
    values.insert("fail_share", failed as f64 / attempted.max(1) as f64);
    Ok(Outcome {
        values,
        extra,
        attempted,
        failed,
        notes,
    })
}

fn print_outcome(spec: &Spec, traced: bool, outcome: &Outcome) {
    let contract: Vec<(&str, &str)> = match traced {
        false => END_TO_END.iter().map(|m| (m.name, m.unit)).collect(),
        true => PER_LAYER.iter().map(|m| (m.name, m.unit)).collect(),
    };
    for (name, unit) in &contract {
        let value = outcome.values.get(name).copied().unwrap_or(0.0);
        println!("{} {name} {value} {unit}", spec.name);
    }
    // An untraced run also prints the wire-level numbers the contract files
    // under the traced run. (Not the reverse: the traced run's window is too
    // short for its end-to-end numbers to be worth reading.)
    for (name, value) in &outcome.values {
        if let Some(m) = PER_LAYER.iter().find(|m| !traced && m.name == *name) {
            println!("{} {name} {value} {}", spec.name, m.unit);
        }
    }
    for (name, value, unit) in &outcome.extra {
        println!("{} {name} {value} {unit}", spec.name);
    }
    println!("{} attempted {} count", spec.name, outcome.attempted);
    println!("{} failed {} count", spec.name, outcome.failed);
    for note in &outcome.notes {
        eprintln!("{}: FAILED {note}", spec.name);
    }
}

fn result_json(traced: bool, outcome: &Outcome) -> String {
    let metrics = match traced {
        false => {
            metrics::metrics_json(END_TO_END.iter().map(|m| (m.name, m.unit)), &outcome.values)
        }
        true => metrics::metrics_json(PER_LAYER.iter().map(|m| (m.name, m.unit)), &outcome.values),
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed
    )
}

/// `(workload, metric) -> value` of every `workload metric value unit` line
/// of a saved output.
fn read_output(path: &str) -> Result<BTreeMap<(String, String), f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Ok(text
        .lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split_whitespace().collect();
            match fields[..] {
                [workload, metric, value, _unit] => Some((
                    (workload.to_string(), metric.to_string()),
                    value.parse().ok()?,
                )),
                _ => None,
            }
        })
        .collect())
}

/// Compare the end-to-end metrics of two saved outputs of the full set;
/// `Err` lists the pairs that differ by more than their bound.
fn compare(a: &str, b: &str) -> Result<(), String> {
    let (a, b) = (read_output(a)?, read_output(b)?);
    let mut over = Vec::new();
    for spec in &SPECS {
        for metric in &END_TO_END {
            let key = (spec.name.to_string(), metric.name.to_string());
            let (Some(x), Some(y)) = (a.get(&key), b.get(&key)) else {
                over.push(format!(
                    "{} {}: missing from one side",
                    spec.name, metric.name
                ));
                continue;
            };
            let difference = (y - x).abs() / x.abs().max(f64::MIN_POSITIVE);
            println!(
                "{} {} {x} {y} {:+.2}% (bound {:.0}%)",
                spec.name,
                metric.name,
                (y - x) / x * 100.0,
                metric.bound * 100.0
            );
            if difference > metric.bound {
                over.push(format!(
                    "{} {}: {:.1}% apart",
                    spec.name,
                    metric.name,
                    difference * 100.0
                ));
            }
        }
        // `fail_share` is exact: any failed operation is a regression.
        let failed = (spec.name.to_string(), "failed".to_string());
        if a.get(&failed) != Some(&0.0) || b.get(&failed) != Some(&0.0) {
            over.push(format!("{}: failed operations", spec.name));
        }
    }
    match over.is_empty() {
        true => Ok(()),
        false => Err(over.join("\n")),
    }
}

/// The contract's steadiness check over saved outputs of runs with different
/// seeds: per workload and end-to-end metric, the inter-quartile distance as
/// a share of the median, next to the bound.
fn spread(paths: &[String]) -> Result<(), String> {
    let outputs: Vec<_> = paths
        .iter()
        .map(|p| read_output(p))
        .collect::<Result<_, _>>()?;
    for spec in &SPECS {
        for metric in &END_TO_END {
            let key = (spec.name.to_string(), metric.name.to_string());
            let values: Vec<f64> = outputs
                .iter()
                .filter_map(|o| o.get(&key).copied())
                .collect();
            if values.len() < 2 {
                continue;
            }
            println!(
                "{} {} spread {:.4} bound {} median {} runs {}",
                spec.name,
                metric.name,
                stats::iqr_share(&values),
                metric.bound,
                median_f64(&mut values.clone()),
                values.len()
            );
        }
    }
    Ok(())
}

/// The interaction table of the README: which end-to-end metric each
/// per-layer metric is predicted to move, and where it should move nothing.
fn interactions() {
    println!("| per-layer metric | unit | measured by | should move | no change on |");
    println!("|---|---|---|---|---|");
    for m in &PER_LAYER {
        let moves: Vec<String> = m
            .moves
            .iter()
            .map(|(metric, w)| format!("`{metric}` @ `{w}`"))
            .collect();
        let unchanged: Vec<String> = m.unchanged.iter().map(|w| format!("`{w}`")).collect();
        println!(
            "| `{}` | {} | {} | {} | {} |",
            m.name,
            m.unit,
            m.source,
            if moves.is_empty() {
                "-".into()
            } else {
                moves.join(", ")
            },
            if unchanged.is_empty() {
                "-".into()
            } else {
                unchanged.join(", ")
            }
        );
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let report = |result: Result<(), String>| match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::FAILURE
        }
    };
    match raw.first().map(String::as_str) {
        Some("--manifest") => {
            print!("{}", metrics::manifest());
            return ExitCode::SUCCESS;
        }
        Some("--interactions") => {
            interactions();
            return ExitCode::SUCCESS;
        }
        Some("--compare") if raw.len() == 3 => return report(compare(&raw[1], &raw[2])),
        Some("--spread") if raw.len() >= 3 => return report(spread(&raw[1..])),
        _ => {}
    }
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(why) => {
            eprintln!("{why}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let spec = args.workload;
    let outcome = std::fs::create_dir_all("benchmark/out").and_then(|()| match args.traced {
        false => run_untraced(spec, &args),
        true => run_traced(spec, &args),
    });
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: {e}", spec.name);
            let _ = std::fs::remove_dir_all(scratch_dir(spec));
            return ExitCode::FAILURE;
        }
    };
    print_outcome(spec, args.traced, &outcome);
    println!("{}", result_json(args.traced, &outcome));
    ExitCode::SUCCESS
}
