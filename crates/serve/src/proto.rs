//! The wire protocol: newline-delimited text requests and responses.
//!
//! One request per line, case-sensitive verb first; one response per
//! request. `QUERY` responses are multi-line (header, `ROW` lines, `END`);
//! all other responses are a single line. See the grammar below — this
//! module is the reference implementation, and the README mirrors it.
//!
//! ```text
//! PREPARE <cq>          compile + cache the plan of <cq>
//!   -> OK PREPARED key=<fp> plan=<kind> disjuncts=<n> exact=<bool> cached=<bool>
//! EXPLAIN <cq>          compile (cached like PREPARE) and dump the plan
//!   -> OK PLAN key=<fp> plan=<kind> disjuncts=<n> exact=<bool> cached=<bool>
//!      INFO <one line of the plan dump>       (repeated)
//!      END
//! QUERY <cq>            answer <cq> over the current snapshot
//!   -> OK ANSWERS count=<n> epoch=<e> plan=<kind> strategy=<s>
//!      cache=<hit|miss> exact=<bool> us=<t>            (one line)
//!      ROW <c1> <c2> ...      (count lines; cells as `write_cell` encodes them)
//!      END
//! INSERT <fact>[; <fact>]*   commit one batch of facts as one new epoch
//!   -> OK INSERTED added=<n> epoch=<e>
//! DELETE <fact>[; <fact>]*   retract one batch of facts as one new epoch
//!   -> OK DELETED removed=<n> epoch=<e>
//! WHY <fact>            explain how the fact is derived in this snapshot
//!   -> OK WHY fact=<f> present=<bool> steps=<n> epoch=<e>
//!      INFO <one derivation step, target first>      (repeated)
//!      END                      (an absent fact reports candidates instead)
//! WHY NOT <fact>        explain why the fact is absent from this snapshot
//!   -> OK WHYNOT fact=<f> present=<bool> candidates=<n> epoch=<e>
//!      INFO <one candidate rule and its blocked premises>   (repeated)
//!      END                      (a present fact reports WHY steps instead)
//! TENANT CREATE <name> <rule>[ <rule>]*   register a tenant (empty store)
//!   -> OK TENANT name=<n> rules=<r> program=<fp> tenants=<count>
//! TENANT USE <name>     switch this connection to a tenant
//!   -> OK TENANT name=<n> epoch=<e> facts=<n>
//! TENANT DROP <name>    unregister a tenant (default cannot be dropped)
//!   -> OK TENANT dropped=<n> tenants=<count>
//! TENANT LIST           enumerate tenants
//!   -> OK TENANTS count=<n> names=<a,b,...>
//! STATS                 current-tenant counters and latency percentiles
//!   -> OK STATS queries=<n> prepares=<n> inserts=<n> deletes=<n> whys=<n>
//!      errors=<n> cache_hits=<n> cache_misses=<n> cache_entries=<n>
//!      hit_rate=<f> epoch=<e> facts=<n> prov_nodes=<n> prov_edges=<n>
//!      prov_bytes=<n> p50_us=<t> p99_us=<t> uptime_s=<s> tenants=<n>
//!      INFO tenant=<name> requests=<n> p50_us=<t> p99_us=<t>  (repeated,
//!      END                 one line per tenant that has served requests)
//! METRICS               process-wide registry, Prometheus text exposition
//!   -> OK METRICS families=<n>
//!      <one exposition line>                   (repeated: # HELP, # TYPE,
//!      END                                      and series sample lines)
//! TRACE ON|OFF          per-connection span-tree dumps. While on, every
//!                       subsequent OK response is followed by one block:
//!                       TRACE id=<rid> spans=<n> us=<t>, INFO lines (the
//!                       indented span tree), END.
//!   -> OK TRACE enabled=<bool>
//! PING                  liveness probe        -> OK PONG
//! QUIT                  close this connection -> OK BYE
//! SHUTDOWN              stop the whole server -> OK BYE
//! <anything else>       -> ERR <message>
//! ```
//!
//! `<cq>` is the surface query syntax (`q(X) :- person(X)`); `<fact>` is
//! `predicate(c1, c2, ...)` over bare or double-quoted constants; `<rule>`
//! is the ontology syntax (`[R1] student(X) -> person(X).` — the trailing
//! period terminates each rule, so one line carries a whole program);
//! `plan=<kind>` is one of `rewrite`, `chase`, `hybrid`, `besteffort`.

use ontorew_model::prelude::*;
use ontorew_model::{parse_program, parse_query};
use std::io::{self, Write};

/// The canonical verb list — the single source the parser's unknown-verb
/// error and the README protocol reference enumerate. `WHY NOT` is spelled
/// with its subword because that is what a client types.
pub const VERBS: &[&str] = &[
    "PREPARE", "EXPLAIN", "QUERY", "INSERT", "DELETE", "WHY", "WHY NOT", "TENANT", "STATS",
    "METRICS", "TRACE", "PING", "QUIT", "SHUTDOWN",
];

/// A parsed protocol request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Compile and cache a query's plan.
    Prepare(ConjunctiveQuery),
    /// Compile (cached) and dump a query's plan.
    Explain(ConjunctiveQuery),
    /// Answer a query over the current snapshot.
    Query(ConjunctiveQuery),
    /// Commit a batch of ground facts as one epoch.
    Insert(Vec<Atom>),
    /// Retract a batch of ground facts as one epoch (repaired by DRed).
    Delete(Vec<Atom>),
    /// Explain how a fact is derived in the current snapshot.
    Why(Atom),
    /// Explain why a fact is absent from the current snapshot.
    WhyNot(Atom),
    /// Register a new tenant with the given ontology and an empty store.
    TenantCreate {
        /// The tenant's name.
        name: String,
        /// The tenant's ontology.
        program: TgdProgram,
    },
    /// Switch this connection to the named tenant.
    TenantUse(String),
    /// Unregister the named tenant.
    TenantDrop(String),
    /// Enumerate the registered tenants.
    TenantList,
    /// Report service statistics (of the connection's current tenant).
    Stats,
    /// Dump the process-wide metrics registry as Prometheus text exposition.
    Metrics,
    /// Toggle per-connection span-tree dumps after each OK response.
    Trace(bool),
    /// Liveness probe.
    Ping,
    /// Close this connection.
    Quit,
    /// Stop the server (admin command; the CI smoke test uses it for a clean
    /// shutdown).
    Shutdown,
}

/// Parse one request line. Returns a human-readable error for malformed
/// input — the server relays it verbatim after `ERR `.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (line, ""),
    };
    match verb {
        "PREPARE" | "QUERY" | "EXPLAIN" => {
            if rest.is_empty() {
                return Err(format!(
                    "{verb} needs a query, e.g. {verb} q(X) :- person(X)"
                ));
            }
            let query = parse_query(rest).map_err(|e| format!("cannot parse query: {e}"))?;
            Ok(match verb {
                "PREPARE" => Request::Prepare(query),
                "EXPLAIN" => Request::Explain(query),
                _ => Request::Query(query),
            })
        }
        "TENANT" => parse_tenant_request(rest),
        "INSERT" | "DELETE" => {
            if rest.is_empty() {
                return Err(format!(
                    "{verb} needs facts, e.g. {verb} student(sara); course(db101)"
                ));
            }
            let facts = parse_fact_batch(rest, verb)?;
            Ok(if verb == "INSERT" {
                Request::Insert(facts)
            } else {
                Request::Delete(facts)
            })
        }
        "WHY" => {
            // `WHY NOT <fact>` probes an absence; plain `WHY <fact>`
            // explains a derivation. A predicate actually named `NOT` is
            // still reachable as `WHY NOT(...)` (no space).
            if let Some(fact_text) = rest
                .strip_prefix("NOT")
                .filter(|r| r.starts_with(char::is_whitespace))
            {
                Ok(Request::WhyNot(parse_fact(fact_text.trim())?))
            } else if rest.is_empty() {
                Err("WHY needs a fact, e.g. WHY person(sara) — or WHY NOT person(bob)".into())
            } else {
                Ok(Request::Why(parse_fact(rest)?))
            }
        }
        "STATS" if rest.is_empty() => Ok(Request::Stats),
        "METRICS" if rest.is_empty() => Ok(Request::Metrics),
        "TRACE" => match rest {
            "ON" => Ok(Request::Trace(true)),
            "OFF" => Ok(Request::Trace(false)),
            _ => Err("TRACE needs ON or OFF".into()),
        },
        "PING" if rest.is_empty() => Ok(Request::Ping),
        "QUIT" if rest.is_empty() => Ok(Request::Quit),
        "SHUTDOWN" if rest.is_empty() => Ok(Request::Shutdown),
        "" => Err("empty request".into()),
        other => Err(format!(
            "unknown verb {other:?}; expected {}",
            VERBS.join(", ")
        )),
    }
}

/// Parse a `;`-separated fact batch (the shared payload of `INSERT` and
/// `DELETE`).
fn parse_fact_batch(rest: &str, verb: &str) -> Result<Vec<Atom>, String> {
    let mut facts = Vec::new();
    for part in split_outside_quotes(rest, ';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        facts.push(parse_fact(part)?);
    }
    if facts.is_empty() {
        return Err(format!("{verb} contained no facts"));
    }
    Ok(facts)
}

/// Parse the payload of a `TENANT` request (`CREATE <name> <rules>`,
/// `USE <name>`, `DROP <name>`, `LIST`).
fn parse_tenant_request(rest: &str) -> Result<Request, String> {
    let (subverb, rest) = match rest.split_once(char::is_whitespace) {
        Some((v, r)) => (v, r.trim()),
        None => (rest, ""),
    };
    match subverb {
        "CREATE" => {
            let (name, program_text) = rest
                .split_once(char::is_whitespace)
                .map(|(n, p)| (n, p.trim()))
                .ok_or_else(|| {
                    "TENANT CREATE needs a name and an ontology, e.g. \
                     TENANT CREATE hr [R1] student(X) -> person(X)."
                        .to_string()
                })?;
            if program_text.is_empty() {
                return Err(format!("TENANT CREATE {name}: missing the ontology rules"));
            }
            let program =
                parse_program(program_text).map_err(|e| format!("cannot parse ontology: {e}"))?;
            if program.is_empty() {
                return Err("TENANT CREATE: the ontology contained no rules".into());
            }
            Ok(Request::TenantCreate {
                name: name.to_string(),
                program,
            })
        }
        "USE" | "DROP" => {
            if rest.is_empty() || rest.split_whitespace().count() != 1 {
                return Err(format!("TENANT {subverb} needs exactly one tenant name"));
            }
            let name = rest.to_string();
            Ok(if subverb == "USE" {
                Request::TenantUse(name)
            } else {
                Request::TenantDrop(name)
            })
        }
        "LIST" if rest.is_empty() => Ok(Request::TenantList),
        other => Err(format!(
            "unknown TENANT subcommand {other:?}; expected CREATE, USE, DROP or LIST"
        )),
    }
}

/// Split `text` at `sep`, but never inside a double-quoted section (with
/// `\"` and `\\` escapes, kept for [`decode_constant`]). The separators
/// themselves are dropped.
fn split_outside_quotes(text: &str, sep: char) -> Vec<String> {
    let mut parts = vec![String::new()];
    let mut in_quotes = false;
    let mut escaped = false;
    for c in text.chars() {
        if escaped {
            parts.last_mut().unwrap().push(c);
            escaped = false;
            continue;
        }
        match c {
            '\\' if in_quotes => {
                parts.last_mut().unwrap().push(c);
                escaped = true;
            }
            '"' => {
                in_quotes = !in_quotes;
                parts.last_mut().unwrap().push(c);
            }
            c if c == sep && !in_quotes => parts.push(String::new()),
            c => parts.last_mut().unwrap().push(c),
        }
    }
    parts
}

/// Decode one fact argument: a bare token, or a double-quoted string with
/// `\"` and `\\` escapes (the same convention as [`encode_cell`]).
fn decode_constant(raw: &str, context: &str) -> Result<String, String> {
    let raw = raw.trim();
    if raw.is_empty() {
        return Err(format!("fact {context:?} has an empty argument"));
    }
    if let Some(inner) = raw.strip_prefix('"') {
        // An empty quoted constant `""` is legal — it round-trips through
        // `encode_cell` / `format_fact`.
        inner
            .strip_suffix('"')
            .filter(|_| raw.len() >= 2)
            .and_then(unescape)
            .ok_or_else(|| format!("fact {context:?} has an unterminated quoted argument"))
    } else if raw.contains('"') {
        Err(format!("fact {context:?} has a stray quote in an argument"))
    } else {
        Ok(raw.to_string())
    }
}

/// Parse a single ground fact `predicate(c1, c2, ...)`. Constants may be
/// bare identifiers or double-quoted strings — quoting protects commas,
/// semicolons and whitespace, and `\"` escapes an embedded quote.
pub fn parse_fact(text: &str) -> Result<Atom, String> {
    let text = text.trim();
    let open = text
        .find('(')
        .ok_or_else(|| format!("fact {text:?} is missing '('"))?;
    let name = text[..open].trim();
    if name.is_empty() {
        return Err(format!("fact {text:?} is missing a predicate name"));
    }
    let close = text
        .rfind(')')
        .ok_or_else(|| format!("fact {text:?} is missing ')'"))?;
    if close < open || !text[close + 1..].trim().is_empty() {
        return Err(format!("fact {text:?} has trailing garbage"));
    }
    let args = &text[open + 1..close];
    let mut terms = Vec::new();
    for raw in split_outside_quotes(args, ',') {
        terms.push(Term::constant(&decode_constant(&raw, text)?));
    }
    if terms.is_empty() {
        return Err(format!("fact {text:?} has no arguments"));
    }
    Ok(Atom {
        predicate: Predicate::new(name, terms.len()),
        terms,
    })
}

/// Undo the escapes of a quoted cell's contents: `\"` is a quote, `\\` a
/// backslash, and a backslash before anything else stands for itself.
/// `None` when the text ends in a lone backslash, which escaped the closing
/// quote.
fn unescape(inner: &str) -> Option<String> {
    let mut out = String::with_capacity(inner.len());
    let mut chars = inner.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            escaped @ ('"' | '\\') => out.push(escaped),
            other => {
                out.push('\\');
                out.push(other);
            }
        }
    }
    Some(out)
}

/// Write one constant in its wire form (`ROW` cells and `INSERT` fact
/// arguments): bare when the value contains none of the protocol's
/// structural characters, double-quoted otherwise, with `\"` and `\\`
/// escapes — so constants like `"sara jones"`, `"a, b; c"` or `"C:\\"`
/// survive unambiguously. This is the protocol's one cell encoder; every
/// other rendering of a cell goes through it.
pub fn write_cell(out: &mut impl Write, value: &str) -> io::Result<()> {
    let needs_quoting = value.is_empty()
        || value.contains(|c: char| c.is_whitespace() || matches!(c, '"' | ',' | ';' | '(' | ')'));
    if !needs_quoting {
        return out.write_all(value.as_bytes());
    }
    out.write_all(b"\"")?;
    // `"` and `\` are ASCII, so they never sit inside a multi-byte character.
    let bytes = value.as_bytes();
    let mut from = 0;
    for (at, &byte) in bytes.iter().enumerate() {
        if matches!(byte, b'"' | b'\\') {
            out.write_all(&bytes[from..at])?;
            out.write_all(&[b'\\', byte])?;
            from = at + 1;
        }
    }
    out.write_all(&bytes[from..])?;
    out.write_all(b"\"")
}

/// Write one answer term as a cell: a constant's name as it is, a null or
/// variable in its display form.
pub(crate) fn write_term(out: &mut impl Write, term: &Term) -> io::Result<()> {
    match term {
        Term::Constant(c) => write_cell(out, c.name()),
        other => write_cell(out, &format!("{other}")),
    }
}

/// Write a ground fact in the protocol's `INSERT` syntax (see
/// [`format_fact`]).
pub(crate) fn write_fact(out: &mut impl Write, atom: &Atom) -> io::Result<()> {
    out.write_all(atom.predicate.name_str().as_bytes())?;
    out.write_all(b"(")?;
    for (i, term) in atom.terms.iter().enumerate() {
        if i > 0 {
            out.write_all(b", ")?;
        }
        write_term(out, term)?;
    }
    out.write_all(b")")
}

/// Run one of the writers above into a fresh `String` of `capacity`.
fn render(capacity: usize, write: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> String {
    let mut bytes = Vec::with_capacity(capacity);
    write(&mut bytes).expect("writing into a Vec cannot fail");
    String::from_utf8(bytes).expect("the writers emit whole UTF-8 sequences")
}

/// Encode one constant for the wire as a `String`: [`write_cell`] into a
/// buffer.
pub fn encode_cell(value: &str) -> String {
    render(value.len() + 2, |out| write_cell(out, value))
}

/// Split a `ROW` payload into cells, honoring double quotes and the `\"`
/// and `\\` escapes (the inverse of [`encode_cell`]).
pub fn parse_row(text: &str) -> Vec<String> {
    let mut cells = Vec::new();
    let mut chars = text.chars().peekable();
    loop {
        while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
            chars.next();
        }
        match chars.peek() {
            None => break,
            Some('"') => {
                chars.next();
                let mut cell = String::new();
                while let Some(c) = chars.next() {
                    match c {
                        '\\' => {
                            cell.push(chars.next_if(|&c| matches!(c, '"' | '\\')).unwrap_or('\\'))
                        }
                        '"' => break,
                        other => cell.push(other),
                    }
                }
                cells.push(cell);
            }
            Some(_) => {
                let mut cell = String::new();
                while matches!(chars.peek(), Some(c) if !c.is_whitespace()) {
                    cell.push(chars.next().unwrap());
                }
                cells.push(cell);
            }
        }
    }
    cells
}

/// Render a ground fact in the protocol's `INSERT` syntax, quoting
/// constants that contain structural characters (the inverse of
/// [`parse_fact`]).
pub fn format_fact(atom: &Atom) -> String {
    render(16 * (atom.terms.len() + 1), |out| write_fact(out, atom))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Strings over the characters the codec treats specially (whitespace,
    /// quotes, backslashes, separators, parentheses), plain ones and
    /// non-ASCII, empty included.
    fn wire_string() -> impl Strategy<Value = String> {
        let alphabet = vec![
            'a', 'Z', '0', '_', ':', ' ', '\t', '"', '\\', ',', ';', '(', ')', 'é', '日',
        ];
        prop::collection::vec(prop::sample::select(alphabet), 0..10)
            .prop_map(|chars| chars.into_iter().collect())
    }

    proptest! {
        #[test]
        fn every_string_survives_the_cell_and_fact_codecs(value in wire_string()) {
            prop_assert_eq!(parse_row(&encode_cell(&value)), vec![value.clone()]);
            let fact = Atom::fact("r", &[&value]);
            prop_assert_eq!(parse_fact(&format_fact(&fact)), Ok(fact));
        }
    }

    #[test]
    fn parses_query_and_prepare() {
        let q = parse_request("QUERY q(X) :- person(X)").unwrap();
        assert!(matches!(q, Request::Query(_)));
        let p = parse_request("PREPARE q(X) :- person(X)").unwrap();
        match p {
            Request::Prepare(cq) => assert_eq!(cq.arity(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_insert_batches() {
        let r = parse_request("INSERT student(sara); attends(sara, db101)").unwrap();
        match r {
            Request::Insert(facts) => {
                assert_eq!(facts.len(), 2);
                assert_eq!(facts[0], Atom::fact("student", &["sara"]));
                assert_eq!(facts[1], Atom::fact("attends", &["sara", "db101"]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_delete_batches() {
        let r = parse_request("DELETE student(sara); attends(sara, db101)").unwrap();
        match r {
            Request::Delete(facts) => {
                assert_eq!(facts.len(), 2);
                assert_eq!(facts[0], Atom::fact("student", &["sara"]));
                assert_eq!(facts[1], Atom::fact("attends", &["sara", "db101"]));
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_request("DELETE").unwrap_err().contains("needs facts"));
        assert!(parse_request("DELETE ; ;")
            .unwrap_err()
            .contains("contained no facts"));
    }

    #[test]
    fn parses_why_and_why_not() {
        assert_eq!(
            parse_request("WHY person(sara)").unwrap(),
            Request::Why(Atom::fact("person", &["sara"]))
        );
        assert_eq!(
            parse_request("WHY NOT person(bob)").unwrap(),
            Request::WhyNot(Atom::fact("person", &["bob"]))
        );
        // A predicate literally named NOT stays reachable as a WHY target.
        assert_eq!(
            parse_request("WHY NOT(x)").unwrap(),
            Request::Why(Atom::fact("NOT", &["x"]))
        );
        assert!(parse_request("WHY").unwrap_err().contains("needs a fact"));
        assert!(parse_request("WHY nonsense").is_err());
    }

    #[test]
    fn unknown_verb_error_enumerates_the_canonical_verb_list() {
        let err = parse_request("FROB x").unwrap_err();
        for verb in VERBS {
            assert!(err.contains(verb), "error {err:?} is missing verb {verb}");
        }
    }

    #[test]
    fn quoted_constants_are_unquoted() {
        let fact = parse_fact("enrolled(\"sara jones\", db101)").unwrap();
        assert_eq!(fact.terms[0], Term::constant("sara jones"));
    }

    #[test]
    fn quoted_constants_protect_structural_characters() {
        // A comma inside quotes must not split the argument list.
        let fact = parse_fact(r#"nickname(zoe, "jones, sara")"#).unwrap();
        assert_eq!(fact.predicate.arity, 2);
        assert_eq!(fact.terms[1], Term::constant("jones, sara"));
        // A semicolon inside quotes must not split the fact batch.
        let r = parse_request(r#"INSERT note(a, "x; y"); note(b, z)"#).unwrap();
        match r {
            Request::Insert(facts) => {
                assert_eq!(facts.len(), 2);
                assert_eq!(facts[0].terms[1], Term::constant("x; y"));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Escaped quotes survive.
        let fact = parse_fact(r#"says(zoe, "\"hi\"")"#).unwrap();
        assert_eq!(fact.terms[1], Term::constant("\"hi\""));
        // So do escaped backslashes, one before the closing quote included;
        // a lone one escapes that quote and leaves the argument open.
        let fact = parse_fact(r#"path(zoe, "C:\\dir\\")"#).unwrap();
        assert_eq!(fact.terms[1], Term::constant("C:\\dir\\"));
        assert!(parse_fact(r#"path(zoe, "C:\")"#).is_err());
        // An unterminated quote is an error, not silent corruption.
        assert!(parse_fact(r#"r("unterminated)"#).is_err());
        assert!(parse_fact(r#"r(stray"quote)"#).is_err());
    }

    #[test]
    fn fact_round_trips_through_format() {
        for constants in [
            vec!["sara", "db101"],
            vec!["jones, sara", "a; b"],
            vec!["with \"quotes\"", "and space"],
            vec!["paren(thetical)", "x"],
            vec!["", "empty-first"],
            vec!["x y\\", "back\\slash"],
        ] {
            let fact = Atom::fact("attends", &constants);
            assert_eq!(
                parse_fact(&format_fact(&fact)).unwrap(),
                fact,
                "round-trip of {constants:?}"
            );
        }
    }

    #[test]
    fn row_cells_round_trip_through_the_codec() {
        for cells in [
            vec!["sara", "db101"],
            vec!["sara jones", "db101"],
            vec!["", "x"],
            vec!["with \"quotes\"", "and space"],
            vec!["_:n7"],
            vec!["a b\\", "\\\""],
        ] {
            let encoded: Vec<String> = cells.iter().map(|c| encode_cell(c)).collect();
            let decoded = parse_row(&encoded.join(" "));
            assert_eq!(decoded, cells, "payload {:?}", encoded.join(" "));
        }
        assert_eq!(parse_row(""), Vec::<String>::new());
        assert_eq!(parse_row("  a   b  "), vec!["a", "b"]);
    }

    #[test]
    fn explain_parses_like_query() {
        let r = parse_request("EXPLAIN q(X) :- person(X)").unwrap();
        match r {
            Request::Explain(cq) => assert_eq!(cq.arity(), 1),
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse_request("EXPLAIN")
            .unwrap_err()
            .contains("needs a query"));
    }

    #[test]
    fn tenant_verbs_parse() {
        let r = parse_request(
            "TENANT CREATE hr [R1] worksIn(X, D) -> employee(X). [R2] employee(X) -> person(X).",
        )
        .unwrap();
        match r {
            Request::TenantCreate { name, program } => {
                assert_eq!(name, "hr");
                assert_eq!(program.len(), 2);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(
            parse_request("TENANT USE hr").unwrap(),
            Request::TenantUse("hr".into())
        );
        assert_eq!(
            parse_request("TENANT DROP hr").unwrap(),
            Request::TenantDrop("hr".into())
        );
        assert_eq!(parse_request("TENANT LIST").unwrap(), Request::TenantList);
    }

    #[test]
    fn malformed_tenant_requests_are_rejected() {
        assert!(parse_request("TENANT").unwrap_err().contains("subcommand"));
        assert!(parse_request("TENANT FROB x")
            .unwrap_err()
            .contains("subcommand"));
        assert!(parse_request("TENANT CREATE hr")
            .unwrap_err()
            .contains("ontology"));
        assert!(parse_request("TENANT CREATE hr garbage rules here").is_err());
        assert!(parse_request("TENANT USE").unwrap_err().contains("name"));
        assert!(parse_request("TENANT USE two names")
            .unwrap_err()
            .contains("exactly one"));
        assert!(parse_request("TENANT LIST extra").is_err());
    }

    #[test]
    fn control_verbs_parse() {
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert_eq!(parse_request("METRICS").unwrap(), Request::Metrics);
        assert_eq!(parse_request("TRACE ON").unwrap(), Request::Trace(true));
        assert_eq!(parse_request("TRACE OFF").unwrap(), Request::Trace(false));
        assert_eq!(parse_request(" PING ").unwrap(), Request::Ping);
        assert_eq!(parse_request("QUIT").unwrap(), Request::Quit);
        assert_eq!(parse_request("SHUTDOWN").unwrap(), Request::Shutdown);
    }

    #[test]
    fn malformed_metrics_and_trace_requests_are_rejected() {
        assert!(parse_request("METRICS now").is_err());
        assert!(parse_request("TRACE").unwrap_err().contains("ON or OFF"));
        assert!(parse_request("TRACE MAYBE")
            .unwrap_err()
            .contains("ON or OFF"));
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        assert!(parse_request("").unwrap_err().contains("empty"));
        assert!(parse_request("FROB x")
            .unwrap_err()
            .contains("unknown verb"));
        assert!(parse_request("QUERY")
            .unwrap_err()
            .contains("needs a query"));
        assert!(parse_request("QUERY nonsense here")
            .unwrap_err()
            .contains("cannot parse"));
        assert!(parse_request("INSERT").unwrap_err().contains("needs facts"));
        assert!(parse_request("INSERT student sara").is_err());
        assert!(parse_fact("student()").is_err());
        assert!(parse_fact("(a)").is_err());
        assert!(parse_fact("student(a) extra").is_err());
        // STATS with arguments is not a valid request.
        assert!(parse_request("STATS now").is_err());
    }
}
