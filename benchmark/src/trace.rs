//! The traced run's op spans: the benchmark's own span recorder, the
//! self-time arithmetic, and the in-process replay that performs each op as
//! the sequence `QueryService` itself performs (parse, `key_of`, `prepare`,
//! `execute_versioned`, render) with a span around every call.
//!
//! No file outside `benchmark/` is instrumented: the spans are recorded
//! here, around the calls into each layer.

use crate::sut;
use crate::workload::{answer_of, Expect, Op, World};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One recorded span. Spans of one op share `op`; `parent` is the span that
/// caused this one.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans in memory; they are written out when the run ends.
pub struct Recorder {
    origin: Instant,
    pub spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, op: u32) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn rename(&mut self, id: u32, name: &'static str) {
        self.spans[id as usize].name = name;
    }

    /// Add a closed child of `parent` from a duration the callee reported
    /// about itself, laid out from `start_ns`. Returns where it ends.
    pub fn reported_child(
        &mut self,
        parent: u32,
        name: &'static str,
        start_ns: u64,
        dur_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u32;
        let op = self.spans[parent as usize].op;
        self.spans.push(Span {
            id,
            parent: Some(parent),
            op,
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
        });
        start_ns + dur_ns
    }
}

/// Self time of every span: its duration minus the part of its interval its
/// children cover. A child is clipped to its parent's interval first, so a
/// child can never take more than the parent has.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent as usize];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            covered[parent as usize] += end - start;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
        .collect()
}

/// Durations (ns) of the spans, grouped by name.
pub fn durations_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for span in spans {
        by_name
            .entry(span.name)
            .or_default()
            .push(span.end_ns - span.start_ns);
    }
    by_name
}

pub fn write_ndjson(path: &Path, workload: &str, spans: &[Span]) -> io::Result<()> {
    let selfs = self_times(spans);
    let mut out = io::BufWriter::new(std::fs::File::create(path)?);
    for (span, self_ns) in spans.iter().zip(selfs) {
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"op\":{},\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
            span.op, span.id, span.name, span.start_ns, span.end_ns
        )?;
    }
    out.flush()
}

/// What one replay pass measured.
#[derive(Default)]
pub struct Replay {
    /// Wall time of every op (parse to rendered reply), nanoseconds.
    pub op_ns: Vec<u64>,
    /// Untraced pass: wall time of each `QueryService::query` call.
    pub query_ns: Vec<u64>,
    pub rows_rendered: u64,
    /// Spans the program's own telemetry collected (traced pass).
    pub program_spans: u64,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

/// The reply rows as the server writes them.
fn render(answers: &sut::AnswerSet) -> String {
    let mut out = String::new();
    for row in answers.iter() {
        out.push_str("ROW");
        for term in row {
            out.push(' ');
            match term.as_constant() {
                Some(c) => out.push_str(&sut::encode_cell(c.name())),
                None => out.push_str(&sut::encode_cell(&term.to_string())),
            }
        }
        out.push('\n');
    }
    out.push_str("END\n");
    out
}

fn check_answers(
    op: &Op,
    answers: &sut::AnswerSet,
    plan: &str,
    strategy: sut::StrategyTaken,
) -> Result<(), String> {
    if op.plan.is_some_and(|expected| plan != expected) {
        return Err(format!("{:?}: plan {plan} not {:?}", op.request, op.plan));
    }
    if op
        .strategy
        .is_some_and(|expected| strategy.to_string() != expected)
    {
        return Err(format!(
            "{:?}: strategy {strategy} not {:?}",
            op.request, op.strategy
        ));
    }
    match &op.expect {
        Expect::Answer(expected) if answer_of(answers) != *expected => Err(format!(
            "{:?}: {} rows, oracle {}",
            op.request,
            answers.len(),
            expected.count
        )),
        _ => Ok(()),
    }
}

/// Replay `ops` in-process against `registry`'s default tenant. With a
/// recorder, every call into a layer gets a span and the program's own span
/// collection is switched on; without one, queries go through
/// `QueryService::query` as the server would call it.
pub fn replay(
    world: &World,
    registry: &sut::TenantRegistry,
    ops: &[Op],
    mut recorder: Option<&mut Recorder>,
) -> Replay {
    let default = registry.default_tenant();
    let mut out = Replay::default();
    for (index, op) in ops.iter().enumerate() {
        let op_id = index as u32;
        let line = op.line(world);
        // The registry hands out version tags in creation order: 0 for the
        // default tenant, 1 for the only other tenant a workload sets up. A
        // wrong guess would only cost the replay a cache entry of its own.
        let target = match op.tenant {
            Some(name) => Target {
                registry,
                service: registry.get(name).expect("set-up created the tenant"),
                tag: 1,
            },
            None => Target {
                registry,
                service: Arc::clone(&default),
                tag: 0,
            },
        };
        if recorder.is_some() {
            sut::install_collector(4096);
        }
        let begin = Instant::now();
        let root = recorder.as_deref_mut().map(|rec| rec.enter("op", op_id));
        let result = run_op(&mut recorder, op_id, &line, op, &target, &mut out);
        if let (Some(rec), Some(root)) = (recorder.as_deref_mut(), root) {
            rec.exit(root);
        }
        out.op_ns.push(begin.elapsed().as_nanos() as u64);
        if recorder.is_some() {
            out.program_spans += sut::take_collector().0.len() as u64;
        }
        out.attempted += 1;
        if let Err(why) = result {
            out.failed += 1;
            if out.notes.len() < 5 {
                out.notes.push(why);
            }
        }
    }
    out
}

fn expect_one(changed: usize, what: &str) -> Result<(), String> {
    match changed {
        1 => Ok(()),
        n => Err(format!("{what}: changed {n} facts, expected 1")),
    }
}

fn expect_present(op: &Op, present: bool) -> Result<(), String> {
    match &op.expect {
        Expect::Present(expected) if *expected != present => Err(format!(
            "{:?}: present={present}, model says {expected}",
            op.request
        )),
        _ => Ok(()),
    }
}

/// Where a replayed op goes: the tenant's service, the registry for tenant
/// lifecycle ops, and the tenant's version tag.
struct Target<'a> {
    registry: &'a sut::TenantRegistry,
    service: Arc<sut::QueryService>,
    tag: u64,
}

/// Run `f` inside a span named `name` when recording, bare otherwise.
fn spanned<R>(
    rec: &mut Option<&mut Recorder>,
    name: &'static str,
    op_id: u32,
    f: impl FnOnce() -> R,
) -> R {
    let span = rec.as_deref_mut().map(|rec| rec.enter(name, op_id));
    let result = f();
    if let (Some(rec), Some(span)) = (rec.as_deref_mut(), span) {
        rec.exit(span);
    }
    result
}

/// One replayed op: parse the line and call the service as the server does,
/// each call in its span when recording.
fn run_op(
    rec: &mut Option<&mut Recorder>,
    op_id: u32,
    line: &str,
    op: &Op,
    target: &Target<'_>,
    out: &mut Replay,
) -> Result<(), String> {
    let Target {
        registry,
        service,
        tag,
    } = target;
    let fail = |e: &dyn std::fmt::Display| e.to_string();
    let parse = || sut::parse_request(line);
    match spanned(rec, "serve.proto.parse_request", op_id, parse)? {
        sut::Request::Query(query) => match rec.as_deref_mut() {
            Some(rec) => traced_query(rec, op_id, op, service, *tag, &query, out),
            None => {
                let begin = Instant::now();
                let response = service.query(&query).map_err(|e| fail(&e))?;
                out.query_ns.push(begin.elapsed().as_nanos() as u64);
                std::hint::black_box(render(&response.answers));
                out.rows_rendered += response.answers.len() as u64;
                let plan = response.plan.label();
                check_answers(op, &response.answers, plan, response.provenance.strategy)
            }
        },
        sut::Request::Insert(facts) => {
            let commit = || service.insert_facts(&facts);
            let (_, added) =
                spanned(rec, "serve.commit.insert", op_id, commit).map_err(|e| fail(&e))?;
            expect_one(added, line)
        }
        sut::Request::Delete(facts) => {
            let commit = || service.delete_facts(&facts);
            let (_, removed) =
                spanned(rec, "serve.commit.delete", op_id, commit).map_err(|e| fail(&e))?;
            expect_one(removed, line)
        }
        sut::Request::Why(fact) => {
            let explanation = spanned(rec, "serve.why", op_id, || service.explain_fact(&fact));
            expect_present(op, explanation.map_err(|e| fail(&e))?.present)
        }
        sut::Request::TenantCreate { name, program } => {
            let create = || registry.create(&name, program);
            spanned(rec, "serve.tenant.create", op_id, create)
                .map(drop)
                .map_err(|e| fail(&e))
        }
        sut::Request::TenantDrop(name) => spanned(rec, "serve.tenant.drop", op_id, || {
            registry.drop_tenant(&name)
        })
        .map_err(|e| fail(&e)),
        other => Err(format!("the op streams never send {other:?}")),
    }
}

/// A query, performed as the sequence `QueryService::query` itself performs,
/// with a span around each call into a layer.
fn traced_query(
    rec: &mut Recorder,
    op_id: u32,
    op: &Op,
    service: &sut::QueryService,
    tag: u64,
    query: &sut::ConjunctiveQuery,
    out: &mut Replay,
) -> Result<(), String> {
    let span = rec.enter("rewrite.fingerprint", op_id);
    std::hint::black_box(service.key_of(query));
    rec.exit(span);

    let span = rec.enter("serve.cache.lookup", op_id);
    let prepared = service.prepare(query);
    if !prepared.cache_hit {
        rec.rename(span, "plan.prepare");
    }
    rec.exit(span);

    let snapshot = service.snapshot();
    let version = (tag << 32) | snapshot.epoch();
    let span = rec.enter("plan.execute", op_id);
    let execution = prepared
        .prepared
        .execute_versioned(snapshot.store(), version);
    rec.exit(span);
    let timings = execution.provenance.timings;
    let start = rec.spans[span as usize].start_ns;
    let next = rec.reported_child(
        span,
        "chase.materialize",
        start,
        timings.materialize_us * 1000,
    );
    rec.reported_child(span, "storage.eval", next, timings.evaluate_us * 1000);

    let span = rec.enter("serve.proto.render", op_id);
    std::hint::black_box(render(&execution.answers));
    rec.exit(span);
    out.rows_rendered += execution.answers.len() as u64;
    let plan = prepared.plan_kind().label();
    check_answers(op, &execution.answers, plan, execution.provenance.strategy)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 50, 70),
            span(3, Some(1), 15, 25),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn children_never_take_more_than_the_parent_has() {
        // A reported child that claims to outlast its parent is clipped, and
        // self time saturates at zero instead of wrapping.
        let spans = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 50, 500),
            span(2, Some(0), 150, 260),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 0);
        let total: u64 = spans[0].end_ns - spans[0].start_ns;
        assert!(selfs[0] <= total);
    }

    #[test]
    fn replay_records_one_span_tree_per_op_and_checks_every_answer() {
        use crate::workload::{spec_named, Expect, OpStream};
        let spec = spec_named("registrar-goal-read").unwrap();
        let world = World::new(spec, 1);
        let mut stream = OpStream::new(&world, 1, 0);
        let mut ops: Vec<Op> = (0..12).map(|_| stream.next_op()).collect();
        let registry = crate::wire::build_registry(spec, &world.data, None).unwrap();

        let plain = replay(&world, &registry, &ops, None);
        assert_eq!(
            (plain.attempted, plain.failed),
            (12, 0),
            "{:?}",
            plain.notes
        );
        assert_eq!(plain.query_ns.len(), 12);

        let mut recorder = Recorder::new();
        let traced = replay(&world, &registry, &ops, Some(&mut recorder));
        assert_eq!(
            (traced.attempted, traced.failed),
            (12, 0),
            "{:?}",
            traced.notes
        );
        assert_eq!(traced.rows_rendered, plain.rows_rendered);
        assert!(
            traced.program_spans > 0,
            "the program's own collector was on"
        );
        let roots: Vec<&Span> = recorder
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .collect();
        assert_eq!(roots.len(), 12);
        for (op, root) in roots.iter().enumerate() {
            assert_eq!((root.name, root.op), ("op", op as u32));
        }
        let by_name = durations_by_name(&recorder.spans);
        for name in [
            "serve.proto.parse_request",
            "rewrite.fingerprint",
            "plan.execute",
        ] {
            assert_eq!(by_name[name].len(), 12, "{name}");
        }
        // Hits and misses together cover every op; the second pass hit.
        assert_eq!(by_name["serve.cache.lookup"].len(), 12);
        for (span, self_ns) in recorder.spans.iter().zip(self_times(&recorder.spans)) {
            assert!(self_ns <= span.end_ns - span.start_ns, "{}", span.name);
        }

        // One corrupted oracle answer, one failure.
        let Expect::Answer(answer) = &mut ops[0].expect else {
            panic!("a query op carries its answer");
        };
        answer.hash ^= 1;
        assert_eq!(replay(&world, &registry, &ops, None).failed, 1);
    }

    #[test]
    fn recorder_nests_spans_by_call_order() {
        let mut rec = Recorder::new();
        let root = rec.enter("op", 7);
        let a = rec.enter("a", 7);
        rec.exit(a);
        let b = rec.enter("b", 7);
        rec.rename(b, "b2");
        rec.exit(b);
        rec.exit(root);
        let end = rec.reported_child(b, "c", rec.spans[b as usize].start_ns, 5);
        assert_eq!(end, rec.spans[b as usize].start_ns + 5);
        let parents: Vec<_> = rec.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), Some(2)]);
        assert_eq!(rec.spans[2].name, "b2");
        assert!(rec
            .spans
            .iter()
            .all(|s| s.op == 7 && s.end_ns >= s.start_ns));
        let selfs = self_times(&rec.spans);
        for (s, self_ns) in rec.spans.iter().zip(&selfs) {
            assert!(*self_ns <= s.end_ns - s.start_ns);
        }
    }
}
