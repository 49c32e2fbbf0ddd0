//! The five workloads: their data, their seeded op streams, and the oracles
//! that say what every reply must be.
//!
//! The data of a workload is fixed; `--seed` drives the op streams only, so
//! every seed draws from the same distribution over the same data and two
//! seeds differ by sampling alone.

use crate::gen::{scatter, Rng, Zipf};
use crate::stats::Answer;
use crate::sut;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Client connections driving every workload (closed loop, one op in flight
/// per connection). Matches the two cores of the sandbox and the server's two
/// workers.
pub const CLIENTS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    UnivHotRead,
    UnivChurnCompile,
    RegistrarGoalRead,
    RegistrarCrudDurable,
    SocialCyclicJoin,
}

/// The static description of one workload.
#[derive(Debug)]
pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    /// Names of the op classes, indexed by [`Op::class`].
    pub classes: &'static [&'static str],
    /// The op mix as one block of slots: a stream is a sequence of blocks,
    /// each a seeded shuffle of these slots, so every block holds the mix's
    /// exact shares. (Drawing each op independently would let the count of the
    /// rare, slow ops — a 4-clique, a tenant creation — swing by tens of
    /// percent between two runs of a ten-second window.) What a slot means is
    /// the workload's business, see `OpStream::next_op`.
    pub block: &'static [u8],
    /// Ops each client runs during set-up, after priming the fixed queries.
    pub warmup_ops: usize,
    /// Ops of client 0's stream the traced run replays in-process: a fixed
    /// prefix, sized so that one pass takes about two seconds.
    pub replay_ops: usize,
    /// The whole-window percentile `query_p99_us` falls back to when the ten
    /// segments are too thin for a p99 each (see `stats::tail`). Chosen from
    /// the measured query rate with at least twice the ten-beyond margin.
    pub tail_percentile: f64,
}

/// 49 queries and one tenant lifecycle op: 2% create/drop.
const CHURN_BLOCK: [u8; 50] = {
    let mut block = [0u8; 50];
    block[49] = 1;
    block
};

pub const SPECS: [Spec; 5] = [
    Spec {
        kind: Kind::UnivHotRead,
        name: "univ-hot-read",
        why: "17 fixed query shapes, all prepared-cache hits: wire, cache hit path, fingerprint and UCQ evaluation do the work; rewriting, classification, chase and persist do none",
        classes: &["query"],
        block: &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16],
        warmup_ops: 51,
        replay_ops: 400,
        tail_percentile: 95.0,
    },
    Spec {
        kind: Kind::UnivChurnCompile,
        name: "univ-churn-compile",
        why: "Zipf over 16384 query fingerprints (4x the plan cache) plus 2% tenant create/drop of 100-rule ontologies: misses pay rewriting, onboarding pays the paper's classifiers",
        classes: &["query", "onboard", "drop"],
        block: &CHURN_BLOCK,
        warmup_ops: 3000,
        replay_ops: 2000,
        tail_percentile: 99.0,
    },
    Spec {
        kind: Kind::RegistrarGoalRead,
        name: "registrar-goal-read",
        why: "Datalog ontology outside every FO-rewritable class, read only: 90% selective goal-driven queries (magic sets + restricted chase per query), 10% broad query over the cached full chase",
        classes: &["selective", "broad"],
        block: &[0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
        warmup_ops: 40,
        replay_ops: 200,
        tail_percentile: 95.0,
    },
    Spec {
        kind: Kind::RegistrarCrudDurable,
        name: "registrar-crud-durable",
        why: "the same chase layers with writes beside reads on a durable tenant (fsync always): incremental chase, DRed deletes, WHY, snapshots, WAL, then 7 recoveries",
        classes: &["selective", "broad", "insert", "delete", "why"],
        block: &[0, 0, 0, 0, 1, 2, 2, 2, 3, 4],
        warmup_ops: 40,
        replay_ops: 100,
        // A fifth of the queries are broad ones: p90 is their median.
        tail_percentile: 90.0,
    },
    Spec {
        kind: Kind::SocialCyclicJoin,
        name: "social-cyclic-join",
        why: "join-bound: 60% triangle, 10% 4-clique (generic join), 30% anchored 2-path (the control the cost model must keep on backtracking); cache, rewriting, chase and persist idle",
        classes: &["triangle", "clique4", "path2"],
        block: &[0, 0, 0, 0, 0, 0, 1, 2, 2, 2],
        warmup_ops: 20,
        replay_ops: 100,
        tail_percentile: 95.0,
    },
];

pub fn spec_named(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    pub fn index(&self) -> usize {
        SPECS
            .iter()
            .position(|s| s.kind == self.kind)
            .expect("every spec is in SPECS")
    }

    pub fn durable(&self) -> bool {
        self.kind == Kind::RegistrarCrudDurable
    }

    pub fn class_named(&self, name: &str) -> Option<u8> {
        self.classes
            .iter()
            .position(|c| *c == name)
            .map(|i| i as u8)
    }
}

// Data sizes. Professors and courses are powers of two so the churn pool's
// 2048 constants per template all name existing entities.
const UNIV_STUDENTS: usize = 20_000;
const UNIV_PROFESSORS: usize = 2048;
const UNIV_COURSES: usize = 4096;
pub const REGISTRAR_STUDENTS: usize = 5000;
const REGISTRAR_CHAIN: usize = 8;
const SOCIAL_USERS: usize = 1000;
const SOCIAL_HUBS: usize = 8;
const DATA_SEED: u64 = 17;

/// Distinct query fingerprints of the churn pool: 8 templates x 2048
/// constants, four times the default plan cache (16 shards x 256).
pub const CHURN_POOL: usize = 16_384;
const CHURN_TEMPLATES: usize = 8;
/// Queries of the churn pool whose answers are checked against the oracle.
const CHURN_ORACLE_SAMPLE: usize = 64;
/// Rules in every onboarded ontology.
pub const ONBOARD_RULES: usize = 100;
/// Tenant lifecycle ops each client issues during one set-up of
/// `univ-churn-compile` (4 creations, 4 drops), however long the warm-up is.
///
/// Classification retains memory for the life of the process (`Variable::
/// fresh` interns a leaked name), and the symbol table behind it doubles: the
/// resident size of this workload steps from 0.6 to 1.0 GB at about 95
/// tenant creations in the process and to 1.9 GB at about 205, stalling the
/// server each time. A 12 s window creates 100-130. Set-up is repeated five
/// times in one process, so it must create a fixed few: 40 in all, which puts
/// a run at 140-170, mid-plateau, where neither a slow nor a fast machine
/// moves it across a step.
pub const SETUP_LIFECYCLE_OPS: usize = 8;

/// Program and base facts of one workload.
pub struct Dataset {
    pub program: sut::TgdProgram,
    pub abox: sut::Instance,
}

pub fn dataset(kind: Kind) -> Dataset {
    match kind {
        Kind::UnivHotRead | Kind::UnivChurnCompile => Dataset {
            program: sut::university_ontology(),
            abox: sut::university_abox(UNIV_STUDENTS, UNIV_PROFESSORS, UNIV_COURSES, DATA_SEED),
        },
        Kind::RegistrarGoalRead | Kind::RegistrarCrudDurable => Dataset {
            program: sut::registrar_ontology(),
            abox: sut::registrar_abox(REGISTRAR_STUDENTS, REGISTRAR_CHAIN, DATA_SEED),
        },
        Kind::SocialCyclicJoin => Dataset {
            program: sut::social_graph_ontology(),
            abox: sut::social_graph_abox(SOCIAL_USERS, SOCIAL_HUBS, DATA_SEED),
        },
    }
}

/// The 100-rule ontologies `univ-churn-compile` onboards: a linear chain, a
/// star of join rules and a class hierarchy, the three generator families.
pub fn onboard_programs() -> Vec<sut::TgdProgram> {
    let hierarchy = sut::hierarchy_program(6);
    vec![
        sut::chain_program(ONBOARD_RULES),
        sut::star_program(ONBOARD_RULES),
        sut::TgdProgram::from_rules(hierarchy.iter().take(ONBOARD_RULES).cloned()),
    ]
}

/// The 17 fixed shapes of `univ-hot-read`: the five of the repo's serving
/// mix, one broad scan, and eleven selective lookups and 2-4 atom joins. An
/// odd count on purpose: the shapes are equally likely and differ widely in
/// cost, so with an even count the median latency would fall between two
/// shapes and flip from one to the other between runs.
pub const HOT_SHAPES: [&str; 17] = [
    "q(S, P) :- advisedBy(S, P), professor(P), employee(P), person(S)",
    "q(X) :- person(X), employee(X), faculty(X)",
    "q(T, C) :- teaches(T, C), employee(T), person(T)",
    "q(S) :- advisedBy(S, P), teaches(P, C), attends(S2, C), person(S2)",
    "q(P) :- professor(P), teaches(P, C), course(C)",
    "q(X) :- person(X)",
    "q(C) :- attends(\"student77\", C)",
    "q(S) :- attends(S, \"course9\"), person(S)",
    "q(S2) :- attends(\"student5\", C), attends(S2, C)",
    "q(S) :- advisedBy(S, \"prof3\"), student(S)",
    "q(T) :- teaches(T, C), attends(\"student12\", C)",
    "q(P) :- advisedBy(\"student120\", P), faculty(P)",
    "q(S, C) :- advisedBy(S, \"prof7\"), attends(S, C), course(C)",
    "q(T) :- teaches(T, \"course100\"), employee(T)",
    "q(S) :- phdStudent(S), attends(S, \"course42\")",
    "q(P, C) :- advisedBy(\"student40\", P), teaches(P, C), attends(S2, C), person(S2)",
    "q(C) :- teaches(\"prof11\", C), course(C)",
];

/// Query `id` of the churn pool.
pub fn churn_query(id: usize) -> String {
    let k = id / CHURN_TEMPLATES;
    match id % CHURN_TEMPLATES {
        0 => format!("q(C) :- attends(\"student{k}\", C)"),
        1 => format!("q(S) :- attends(S, \"course{k}\"), person(S)"),
        2 => format!("q(C) :- teaches(\"prof{k}\", C), course(C)"),
        3 => format!("q(S) :- advisedBy(S, \"prof{k}\"), student(S)"),
        4 => format!("q(P) :- advisedBy(\"student{}\", P), employee(P)", 10 * k),
        5 => format!("q(S2) :- attends(\"student{k}\", C), attends(S2, C)"),
        6 => format!("q(T) :- teaches(T, \"course{k}\"), faculty(T)"),
        _ => format!("q(T) :- teaches(T, C), attends(\"student{k}\", C)"),
    }
}

pub const TRIANGLE: &str = "q(X, Y, Z) :- follows(X, Y), follows(Y, Z), follows(Z, X)";
pub const CLIQUE4: &str = "q(X, Y, Z, W) :- follows(X, Y), follows(X, Z), follows(X, W), \
                           follows(Y, Z), follows(Y, W), follows(Z, W)";
pub fn path2_query(user: usize) -> String {
    format!("q(Z) :- follows(\"user{user}\", Y), follows(Y, Z)")
}

pub const BROAD_STUDENTS: &str = "q(S) :- student(S)";
/// `registrar-goal-read` sends its broad queries to a second tenant holding
/// the same ontology and data. A full materialization cached for the data
/// version makes the planner answer every selective query from it (the warm
/// shortcut of its goal-driven executor); with no writes to invalidate it,
/// one broad query on the default tenant would leave the magic-sets path
/// idle for the rest of the run, and the workload exists to measure it.
pub const TWIN_TENANT: &str = "twin";
pub const DEFAULT_TENANT: &str = "default";
pub fn selective_query(student: usize) -> String {
    format!("q(P) :- mustComplete(\"student{student}\", P)")
}

fn term_text(term: &sut::Term) -> Cow<'static, str> {
    match term.as_constant() {
        Some(c) => Cow::Borrowed(c.name()),
        None => Cow::Owned(term.to_string()),
    }
}

/// The oracle's view of an answer set computed in-process.
pub fn answer_of(answers: &sut::AnswerSet) -> Answer {
    Answer::of_rows(answers.iter().map(|row| row.iter().map(term_text)))
}

/// Certain answers of many queries over one program and database: chase once
/// (the database is fixed), evaluate each query over the universal model and
/// drop rows with nulls. This is `certain_answers`, with the chase shared.
pub struct CertainOracle {
    model: sut::RelationalStore,
}

impl CertainOracle {
    pub fn new(data: &Dataset) -> Self {
        let result = sut::chase(&data.program, &data.abox, &sut::ChaseConfig::default());
        assert!(
            result.is_universal_model(),
            "the oracle needs a terminating chase"
        );
        CertainOracle {
            model: sut::RelationalStore::from_instance(&result.instance),
        }
    }

    pub fn answer(&self, query: &str) -> Answer {
        let query = sut::parse_query(query).expect("workload queries parse");
        answer_of(&sut::evaluate_cq(&self.model, &query).without_nulls())
    }
}

/// The harness-side model of the registrar data: who is enrolled where, and
/// the transitive prerequisite closure, both computed by the harness from the
/// base facts (never by the system under test).
#[derive(Clone, Debug)]
pub struct Registrar {
    /// `requires[c]`: every course transitively required by `c`.
    requires: HashMap<String, BTreeSet<String>>,
    /// Base enrollments per student number.
    pub initial: Vec<BTreeSet<String>>,
    pub courses: Vec<String>,
    /// The broad answer: every student with at least one enrollment. The op
    /// streams never delete a base enrollment, so it is constant.
    pub students: Answer,
}

impl Registrar {
    pub fn new(abox: &sut::Instance) -> Self {
        let constants = |name: &str| -> Vec<(String, String)> {
            abox.tuples(sut::Predicate::new(name, 2))
                .map(|row| {
                    (
                        term_text(&row[0]).into_owned(),
                        term_text(&row[1]).into_owned(),
                    )
                })
                .collect()
        };
        let mut direct: HashMap<String, Vec<String>> = HashMap::new();
        let mut courses = BTreeSet::new();
        for (course, needs) in constants("prereq") {
            courses.insert(course.clone());
            courses.insert(needs.clone());
            direct.entry(course).or_default().push(needs);
        }
        let mut initial: Vec<BTreeSet<String>> = Vec::new();
        for (student, course) in constants("enrolled") {
            let number: usize = student
                .strip_prefix("student")
                .and_then(|n| n.parse().ok())
                .expect("registrar students are named student<i>");
            if initial.len() <= number {
                initial.resize_with(number + 1, BTreeSet::new);
            }
            courses.insert(course.clone());
            initial[number].insert(course);
        }
        let mut requires = HashMap::new();
        for course in &courses {
            let mut closure = BTreeSet::new();
            let mut frontier = vec![course.clone()];
            while let Some(c) = frontier.pop() {
                for needs in direct.get(&c).into_iter().flatten() {
                    if closure.insert(needs.clone()) {
                        frontier.push(needs.clone());
                    }
                }
            }
            requires.insert(course.clone(), closure);
        }
        let students = Answer::of_rows(
            initial
                .iter()
                .enumerate()
                .filter(|(_, courses)| !courses.is_empty())
                .map(|(i, _)| [format!("student{i}")]),
        );
        Registrar {
            requires,
            initial,
            courses: courses.into_iter().collect(),
            students,
        }
    }

    /// `mustComplete(student, P)` for a student enrolled in `enrolled`.
    pub fn must_complete<'a>(
        &'a self,
        enrolled: impl IntoIterator<Item = &'a String>,
    ) -> BTreeSet<&'a str> {
        enrolled
            .into_iter()
            .flat_map(|c| self.requires.get(c).into_iter().flatten())
            .map(String::as_str)
            .collect()
    }
}

/// Everything about a workload that is computed once per run: data, oracle
/// tables and the tables the op streams draw from.
pub struct World {
    pub spec: &'static Spec,
    pub data: Dataset,
    /// Fixed queries with their certain answers (the hot shapes, or triangle
    /// and 4-clique).
    pub fixed: Vec<(String, Answer)>,
    /// Certain answers of the sampled churn queries, by pool id.
    pub churn_oracle: HashMap<usize, Answer>,
    /// Certain answers of the anchored 2-path, by anchor user.
    pub paths: Vec<Answer>,
    pub registrar: Option<Registrar>,
    /// `(one-line program text, rule count)` of the onboarded ontologies.
    pub onboard: Vec<(String, usize)>,
    zipf: Option<Zipf>,
    /// Seconds spent computing the oracle tables (reported, not part of
    /// `setup_s`: it is harness work).
    pub oracle_s: f64,
}

impl World {
    pub fn new(spec: &'static Spec, seed: u64) -> World {
        let data = dataset(spec.kind);
        let started = std::time::Instant::now();
        let mut world = World {
            spec,
            data,
            fixed: Vec::new(),
            churn_oracle: HashMap::new(),
            paths: Vec::new(),
            registrar: None,
            onboard: Vec::new(),
            zipf: None,
            oracle_s: 0.0,
        };
        match spec.kind {
            Kind::UnivHotRead => {
                let oracle = CertainOracle::new(&world.data);
                world.fixed = HOT_SHAPES
                    .iter()
                    .map(|q| (q.to_string(), oracle.answer(q)))
                    .collect();
            }
            Kind::UnivChurnCompile => {
                let oracle = CertainOracle::new(&world.data);
                // A stream of its own, after the clients'.
                let mut rng = Rng::for_stream(seed, spec.index() as u64, CLIENTS as u64);
                while world.churn_oracle.len() < CHURN_ORACLE_SAMPLE {
                    let id = rng.below(CHURN_POOL);
                    world
                        .churn_oracle
                        .entry(id)
                        .or_insert_with(|| oracle.answer(&churn_query(id)));
                }
                world.onboard = onboard_programs()
                    .iter()
                    .map(|p| (p.to_string().replace('\n', " "), p.len()))
                    .collect();
                world.zipf = Some(Zipf::new(CHURN_POOL));
            }
            Kind::RegistrarGoalRead => {
                world.registrar = Some(Registrar::new(&world.data.abox));
                world.zipf = Some(Zipf::new(REGISTRAR_STUDENTS));
            }
            Kind::RegistrarCrudDurable => {
                world.registrar = Some(Registrar::new(&world.data.abox));
                world.zipf = Some(Zipf::new(REGISTRAR_STUDENTS / CLIENTS));
            }
            Kind::SocialCyclicJoin => {
                let oracle = CertainOracle::new(&world.data);
                world.fixed = [TRIANGLE, CLIQUE4]
                    .iter()
                    .map(|q| (q.to_string(), oracle.answer(q)))
                    .collect();
                world.paths = (0..SOCIAL_USERS)
                    .map(|u| oracle.answer(&path2_query(u)))
                    .collect();
                world.zipf = Some(Zipf::new(SOCIAL_USERS));
            }
        }
        world.oracle_s = started.elapsed().as_secs_f64();
        world
    }

    /// Queries each client issues once at the start of set-up, so that the
    /// fixed shapes are compiled and the full chase is materialized before
    /// the measured window.
    pub fn priming(&self) -> Vec<Op> {
        match self.spec.kind {
            Kind::UnivHotRead | Kind::SocialCyclicJoin => self
                .fixed
                .iter()
                .enumerate()
                .map(|(i, (text, answer))| {
                    let class = if self.spec.kind == Kind::UnivHotRead {
                        0
                    } else {
                        i as u8
                    };
                    Op::query(class, text.clone(), Some(*answer))
                })
                .collect(),
            Kind::UnivChurnCompile => Vec::new(),
            Kind::RegistrarGoalRead | Kind::RegistrarCrudDurable => vec![self.broad()],
        }
    }

    /// The broad registrar query. On `registrar-goal-read` it goes to the
    /// twin tenant (see [`TWIN_TENANT`]).
    fn broad(&self) -> Op {
        let students = self.registrar.as_ref().expect("registrar world").students;
        Op {
            tenant: (self.spec.kind == Kind::RegistrarGoalRead).then_some(TWIN_TENANT),
            ..Op::query(1, BROAD_STUDENTS.to_string(), Some(students))
        }
    }
}

/// One request of an op stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    Query(String),
    Insert(String),
    Delete(String),
    Why(String),
    /// Tenant name and index into [`World::onboard`].
    TenantCreate(String, usize),
    TenantDrop(String),
}

/// What the reply to an op must be.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Expect {
    /// Any successful reply.
    Ok,
    /// A query whose answer the oracle knows.
    Answer(Answer),
    /// `INSERT`/`DELETE` of one fact that must change exactly one fact.
    OneFact,
    /// `WHY`: whether the fact is in the model.
    Present(bool),
    /// `TENANT CREATE`: the rule count reported back.
    Rules(usize),
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Op {
    /// Index into [`Spec::classes`].
    pub class: u8,
    pub request: Request,
    pub expect: Expect,
    /// The tenant the request is sent to when it is not the default one: the
    /// connection switches to it before the request and back after it.
    pub tenant: Option<&'static str>,
    /// The plan kind the reply must report (`goal_driven` for the selective
    /// registrar queries).
    pub plan: Option<&'static str>,
    /// The strategy the reply must report. Only `registrar-goal-read` fixes
    /// it: with writes around, the planner rightly answers a selective query
    /// from a full materialization whenever one is cached for the epoch.
    pub strategy: Option<&'static str>,
}

impl Op {
    fn new(class: u8, request: Request, expect: Expect) -> Op {
        Op {
            class,
            request,
            expect,
            tenant: None,
            plan: None,
            strategy: None,
        }
    }

    fn query(class: u8, text: String, answer: Option<Answer>) -> Op {
        Op::new(
            class,
            Request::Query(text),
            answer.map_or(Expect::Ok, Expect::Answer),
        )
    }

    pub fn is_query(&self) -> bool {
        matches!(self.request, Request::Query(_))
    }

    pub fn is_commit(&self) -> bool {
        matches!(self.request, Request::Insert(_) | Request::Delete(_))
    }

    /// The request as one protocol line.
    pub fn line(&self, world: &World) -> String {
        match &self.request {
            Request::Query(q) => format!("QUERY {q}"),
            Request::Insert(f) => format!("INSERT {f}"),
            Request::Delete(f) => format!("DELETE {f}"),
            Request::Why(f) => format!("WHY {f}"),
            Request::TenantCreate(name, program) => {
                format!("TENANT CREATE {name} {}", world.onboard[*program].0)
            }
            Request::TenantDrop(name) => format!("TENANT DROP {name}"),
        }
    }
}

/// The seeded, endless op stream of one client. The generator keeps its own
/// model of what it has asked for (inserted facts, live tenants), so the
/// stream depends on the seed alone, never on a reply.
pub struct OpStream<'w> {
    world: &'w World,
    client: usize,
    rng: Rng,
    /// The rest of the current block, shuffled (see [`Spec::block`]).
    slots: Vec<u8>,
    /// `registrar-crud-durable`: enrollments of this client's students
    /// (base plus its own inserts, minus its own deletes).
    enrolled: BTreeMap<usize, BTreeSet<String>>,
    /// Facts this client inserted and has not deleted, as `(student, course)`.
    inserted: Vec<(usize, String)>,
    /// Facts this client deleted and has not inserted again (all were its
    /// own inserts): what recovery must not return.
    pub deleted: Vec<(usize, String)>,
    /// `univ-churn-compile`: whether this client's tenant currently exists,
    /// and how many it has created.
    tenant_live: bool,
    created: usize,
    /// `univ-churn-compile`: lifecycle ops the stream may still emit; once
    /// it is 0 a lifecycle slot yields a query instead. Unlimited but during
    /// set-up (see [`SETUP_LIFECYCLE_OPS`]).
    pub lifecycle_left: usize,
}

impl<'w> OpStream<'w> {
    pub fn new(world: &'w World, seed: u64, client: usize) -> Self {
        OpStream {
            world,
            client,
            rng: Rng::for_stream(seed, world.spec.index() as u64, client as u64),
            slots: Vec::new(),
            enrolled: BTreeMap::new(),
            inserted: Vec::new(),
            deleted: Vec::new(),
            tenant_live: false,
            created: 0,
            lifecycle_left: usize::MAX,
        }
    }

    /// Facts this client has inserted and not deleted: what recovery must
    /// return.
    pub fn live_inserts(&self) -> &[(usize, String)] {
        &self.inserted
    }

    fn zipf_item(&mut self, population: usize) -> usize {
        let zipf = self.world.zipf.as_ref().expect("workload draws Zipf");
        debug_assert_eq!(zipf.len(), population);
        scatter(zipf.sample(&mut self.rng), population)
    }

    /// The next slot of the mix: blocks are refilled and shuffled as they
    /// run out.
    fn next_slot(&mut self) -> u8 {
        if self.slots.is_empty() {
            self.slots.extend_from_slice(self.world.spec.block);
            for i in (1..self.slots.len()).rev() {
                let j = self.rng.below(i + 1);
                self.slots.swap(i, j);
            }
        }
        self.slots.pop().expect("a block is never empty")
    }

    pub fn next_op(&mut self) -> Op {
        let slot = self.next_slot();
        match self.world.spec.kind {
            Kind::UnivHotRead => {
                let (text, answer) = &self.world.fixed[slot as usize];
                Op::query(0, text.clone(), Some(*answer))
            }
            Kind::UnivChurnCompile if slot == 1 && self.lifecycle_left > 0 => {
                self.lifecycle_left = self.lifecycle_left.saturating_sub(1);
                self.next_lifecycle()
            }
            Kind::UnivChurnCompile => {
                let id = self.zipf_item(CHURN_POOL);
                Op::query(
                    0,
                    churn_query(id),
                    self.world.churn_oracle.get(&id).copied(),
                )
            }
            Kind::RegistrarGoalRead => match slot {
                0 => {
                    let student = self.zipf_item(REGISTRAR_STUDENTS);
                    let registrar = self.world.registrar.as_ref().expect("registrar world");
                    let courses = &registrar.initial[student];
                    self.selective(student, registrar.must_complete(courses))
                }
                _ => self.broad(),
            },
            Kind::RegistrarCrudDurable => self.next_crud(slot),
            Kind::SocialCyclicJoin => match slot {
                0 => Op::query(0, TRIANGLE.to_string(), Some(self.world.fixed[0].1)),
                1 => Op::query(1, CLIQUE4.to_string(), Some(self.world.fixed[1].1)),
                _ => {
                    let user = self.zipf_item(SOCIAL_USERS);
                    Op::query(2, path2_query(user), Some(self.world.paths[user]))
                }
            },
        }
    }

    /// Alternately create and drop this client's tenant (a bounded name pool:
    /// the server's per-tenant metric labels must not grow with the run).
    fn next_lifecycle(&mut self) -> Op {
        let name = format!("bench-c{}", self.client);
        self.tenant_live = !self.tenant_live;
        if self.tenant_live {
            // The three programs in turn (they differ fivefold in cost, so a
            // random pick would make throughput depend on the draw).
            let program = (self.client + self.created) % self.world.onboard.len();
            self.created += 1;
            let rules = Expect::Rules(self.world.onboard[program].1);
            Op::new(1, Request::TenantCreate(name, program), rules)
        } else {
            Op::new(2, Request::TenantDrop(name), Expect::Ok)
        }
    }

    fn broad(&self) -> Op {
        self.world.broad()
    }

    fn selective(&self, student: usize, must: BTreeSet<&str>) -> Op {
        let read_only = self.world.spec.kind == Kind::RegistrarGoalRead;
        Op {
            plan: Some("goal_driven"),
            strategy: read_only.then_some("goal-driven"),
            ..Op::query(
                0,
                selective_query(student),
                Some(Answer::of_rows(must.iter().map(|p| [*p]))),
            )
        }
    }

    /// A student this client owns: the two clients split the students by
    /// parity, so each client's model of its students is exact whatever the
    /// other client commits.
    fn own_student(&mut self) -> usize {
        let slot = self.zipf_item(REGISTRAR_STUDENTS / CLIENTS);
        slot * CLIENTS + self.client
    }

    fn enrollments(&mut self, student: usize) -> &mut BTreeSet<String> {
        let registrar = self.world.registrar.as_ref().expect("registrar world");
        self.enrolled
            .entry(student)
            .or_insert_with(|| registrar.initial[student].clone())
    }

    fn next_crud(&mut self, slot: u8) -> Op {
        let world = self.world;
        let registrar = world.registrar.as_ref().expect("registrar world");
        match slot {
            0 => {
                let student = self.own_student();
                let courses = self.enrollments(student).clone();
                self.selective(student, registrar.must_complete(&courses))
            }
            1 => self.broad(),
            // A delete with nothing to delete yet becomes an insert.
            3 if !self.inserted.is_empty() => {
                let at = self.rng.below(self.inserted.len());
                let (student, course) = self.inserted.swap_remove(at);
                self.enrollments(student).remove(&course);
                let fact = format!("enrolled(student{student}, {course})");
                self.deleted.push((student, course));
                Op::new(3, Request::Delete(fact), Expect::OneFact)
            }
            2 | 3 => {
                let student = self.own_student();
                let course = loop {
                    let c = &registrar.courses[self.rng.below(registrar.courses.len())];
                    if !self.enrollments(student).contains(c) {
                        break c.clone();
                    }
                };
                self.enrollments(student).insert(course.clone());
                let fact = format!("enrolled(student{student}, {course})");
                // A fact deleted earlier may come back: it is live again.
                self.deleted
                    .retain(|gone| !(gone.0 == student && gone.1 == course));
                self.inserted.push((student, course));
                Op::new(2, Request::Insert(fact), Expect::OneFact)
            }
            _ => {
                let student = self.own_student();
                let courses = self.enrollments(student).clone();
                let must = registrar.must_complete(&courses);
                // A student with no obligations yields an absent fact.
                let (course, present) = match must.iter().next() {
                    Some(p) => (p.to_string(), true),
                    None => (registrar.courses[0].clone(), false),
                };
                let fact = format!("mustComplete(student{student}, {course})");
                Op::new(4, Request::Why(fact), Expect::Present(present))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::hash_text;

    fn stream_hash(world: &World, seed: u64, client: usize, ops: usize) -> u64 {
        let mut stream = OpStream::new(world, seed, client);
        (0..ops).fold(0, |h, _| hash_text(&stream.next_op().line(world), h))
    }

    /// The workloads whose worlds build in well under a second (the
    /// university oracle is the slow one, and its streams are the simplest).
    fn quick_worlds() -> Vec<World> {
        [
            "registrar-goal-read",
            "registrar-crud-durable",
            "social-cyclic-join",
        ]
        .iter()
        .map(|name| World::new(spec_named(name).unwrap(), 1))
        .collect()
    }

    #[test]
    fn same_seed_gives_byte_identical_streams_and_seeds_differ() {
        for world in quick_worlds() {
            let name = world.spec.name;
            let a = stream_hash(&world, 7, 0, 500);
            assert_eq!(a, stream_hash(&world, 7, 0, 500), "{name}");
            assert_ne!(a, stream_hash(&world, 8, 0, 500), "{name}");
            assert_ne!(a, stream_hash(&world, 7, 1, 500), "{name}");
        }
    }

    #[test]
    fn op_streams_are_pinned() {
        // Any change to a generator changes the load every later commit is
        // measured with: these hashes may only move in a benchmark change.
        let pinned: [u64; 5] = [
            0xff50_52c7_e8ff_c845,
            0x1d30_dcda_9f7d_4f95,
            0xb778_035f_549d_023a,
            0x69d4_14fb_c2b3_cc47,
            0xad3f_5032_83a1_f0da,
        ];
        for (spec, hash) in SPECS.iter().zip(pinned) {
            let world = World::new(spec, 1);
            assert_eq!(stream_hash(&world, 1, 0, 1000), hash, "{}", spec.name);
        }
    }

    #[test]
    fn workload_mixes_match_their_description() {
        let spec = spec_named("registrar-crud-durable").unwrap();
        let world = World::new(spec, 3);
        let mut stream = OpStream::new(&world, 3, 1);
        let mut by_class = [0usize; 5];
        for _ in 0..20_000 {
            let op = stream.next_op();
            by_class[op.class as usize] += 1;
            if let Request::Insert(f) | Request::Delete(f) | Request::Why(f) = &op.request {
                // Client 1 only ever touches odd students.
                let n: usize = f
                    .split("student")
                    .nth(1)
                    .unwrap()
                    .split([',', ')'])
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap();
                assert_eq!(n % CLIENTS, 1, "{f}");
            }
        }
        let share = |c: usize| by_class[c] as f64 / 20_000.0;
        // Blocks make the shares exact (but for the first delete slots, which
        // find nothing to delete and insert instead).
        assert!((share(0) - 0.40).abs() < 1e-9, "selective {}", share(0));
        assert!((share(1) - 0.10).abs() < 1e-9, "broad {}", share(1));
        assert!((share(2) - 0.30).abs() < 0.001, "insert {}", share(2));
        assert!((share(3) - 0.10).abs() < 0.001, "delete {}", share(3));
        assert!((share(4) - 0.10).abs() < 1e-9, "why {}", share(4));
        // Every delete names a fact inserted earlier and still live then, and
        // no fact is both live and deleted.
        assert_eq!(by_class[2] - by_class[3], stream.live_inserts().len());
        assert!(stream
            .deleted
            .iter()
            .all(|gone| !stream.live_inserts().contains(gone)));
    }

    #[test]
    fn churn_pool_has_16384_distinct_queries() {
        let distinct: BTreeSet<String> = (0..CHURN_POOL).map(churn_query).collect();
        assert_eq!(distinct.len(), CHURN_POOL);
        for p in onboard_programs() {
            assert_eq!(p.len(), ONBOARD_RULES);
        }
    }

    #[test]
    fn harness_closure_agrees_with_certain_answers_on_a_small_instance() {
        let program = sut::registrar_ontology();
        let abox = sut::registrar_abox(50, 8, 3);
        let registrar = Registrar::new(&abox);
        let certain = |q: &str| {
            let query = sut::parse_query(q).unwrap();
            let config = sut::ChaseConfig::default();
            answer_of(&sut::certain_answers(&program, &abox, &query, &config).answers)
        };
        let mut obligations = 0;
        for student in 0..50 {
            let must = registrar.must_complete(&registrar.initial[student]);
            obligations += must.len();
            assert_eq!(
                Answer::of_rows(must.iter().map(|p| [*p])),
                certain(&selective_query(student)),
                "student{student}"
            );
        }
        assert!(obligations > 0, "the instance must exercise the closure");
        assert_eq!(registrar.students, certain(BROAD_STUDENTS));

        // A corrupted oracle answer is noticed.
        let mut wrong = registrar.students;
        wrong.hash ^= 1;
        assert_ne!(wrong, certain(BROAD_STUDENTS));
    }

    #[test]
    fn shared_chase_oracle_agrees_with_certain_answers() {
        let data = Dataset {
            program: sut::social_graph_ontology(),
            abox: sut::social_graph_abox(60, 4, 9),
        };
        let oracle = CertainOracle::new(&data);
        for q in [TRIANGLE, "q(X) :- member(X)", "q(X, P) :- hasProfile(X, P)"] {
            let query = sut::parse_query(q).unwrap();
            let direct = sut::certain_answers(
                &data.program,
                &data.abox,
                &query,
                &sut::ChaseConfig::default(),
            );
            assert_eq!(oracle.answer(q), answer_of(&direct.answers), "{q}");
        }
    }
}
