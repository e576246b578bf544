//! The workloads and the closed-loop runner.
//!
//! One process plays both sides: a single client thread drives every
//! phase in turn, and the service answers with one explanation worker.
//! Each cycle interleaves the phases in short slices (a chase, updates
//! each followed by a read, HTTP requests between them, a report), so
//! drift in the host's speed over a run touches every phase alike.

use crate::client;
use crate::gates::{self, ExpectedCache};
use crate::gen::{self, ChainInput, ChainSize, ControlInput, ControlSize, Rng, SanctionsInput};
use crate::gen::{SanctionsSize, Stream};
use crate::host;
use crate::stats::{HostSpeed, Metrics, Samples, Scaled};
use crate::trace::Tracer;
use explain::TemplateFlavor;
use explain::{cover, instantiate, step_infos, DomainGlossary, Explainer, ProgramArtifacts};
use serve::{ExplainService, HttpServer, ServeConfig, ServeError, SnapshotHandle, SnapshotUpdate};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vadalog::obs::span::FieldValue;
use vadalog::{
    parse_program, ChaseOutcome, ChaseSession, DeltaStrategy, DerivationPolicy, Fact, Program,
    ProofTree, RunReport,
};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ControlBatch,
    SanctionsLive,
    ServeDeep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ControlBatch,
        Workload::SanctionsLive,
        Workload::ServeDeep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ControlBatch => "control_batch",
            Workload::SanctionsLive => "sanctions_live",
            Workload::ServeDeep => "serve_deep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The per-workload shape of a cycle.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    /// HTTP requests per cycle, spread over the slices between updates.
    pub requests: usize,
    /// Goals per HTTP request (serve_deep sends one chain goal).
    pub http_batch: usize,
    /// Goals per read batch after each publish.
    pub read_batch: usize,
    /// Goals per traced cycle taken apart layer by layer.
    pub decompose_goals: usize,
}

/// Updates per cycle; each is followed by a read and a slice of the
/// cycle's requests. A cycle also runs one chase and one report.
const UPDATES_PER_CYCLE: usize = 4;

/// The samples a run needs before it may stop.
#[derive(Clone, Copy, Debug)]
pub struct Minima {
    /// Enough chases (and reports, one per cycle) for a median.
    pub chases: usize,
    /// Ten updates (and reads) beyond p90.
    pub updates: usize,
    /// Three blocks of requests, each with ten beyond its p99.
    pub requests: usize,
    /// Deltas whose counts feed the per-layer delta metrics: a fixed
    /// prefix of the stream, so the counts repeat at a fixed seed.
    pub counted_deltas: usize,
}

impl Minima {
    const FULL: Minima = Minima {
        chases: 20,
        updates: 100,
        requests: 3 * P99_BLOCK,
        counted_deltas: 96,
    };
    const TINY: Minima = Minima {
        chases: 2,
        updates: 4,
        requests: 20,
        counted_deltas: 4,
    };
}

/// One run's configuration.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs and minima, for tests.
    pub tiny: bool,
}

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// A run extends past `--seconds` for its minimum sample counts by at
/// most this factor (and at least [`MIN_CAP_S`]), so a slow host shortens
/// the tails' support instead of overrunning the run's time limit.
const CAP_FACTOR: f64 = 1.5;
const MIN_CAP_S: f64 = 20.0;

pub struct Spec {
    pub rules: &'static str,
    pub goal: &'static str,
    pub glossary: DomainGlossary,
    pub stream: Box<dyn Stream>,
    pub chain_goals: Option<Vec<Vec<Fact>>>,
    pub plan: Plan,
    pub minima: Minima,
}

pub fn spec(config: &Config) -> Spec {
    let (seed, tiny) = (config.seed, config.tiny);
    let mut spec = match config.workload {
        Workload::ControlBatch => Spec {
            rules: finkg::apps::control::RULES,
            goal: finkg::apps::control::GOAL,
            glossary: finkg::apps::control::glossary(),
            stream: Box::new(ControlInput::new(
                seed,
                if tiny {
                    ControlSize::TINY
                } else {
                    ControlSize::FULL
                },
            )),
            chain_goals: None,
            plan: Plan {
                requests: 120,
                http_batch: 8,
                read_batch: 32,
                decompose_goals: 48,
            },
            minima: Minima::FULL,
        },
        Workload::SanctionsLive => Spec {
            rules: finkg::apps::sanctions::RULES,
            goal: finkg::apps::sanctions::GOAL,
            glossary: finkg::apps::sanctions::glossary(),
            stream: Box::new(SanctionsInput::new(
                seed,
                if tiny {
                    SanctionsSize::TINY
                } else {
                    SanctionsSize::FULL
                },
            )),
            chain_goals: None,
            plan: Plan {
                requests: 80,
                http_batch: 64,
                read_batch: 16,
                decompose_goals: 48,
            },
            minima: Minima::FULL,
        },
        Workload::ServeDeep => {
            let input = ChainInput::new(
                seed,
                if tiny {
                    ChainSize::TINY
                } else {
                    ChainSize::FULL
                },
            );
            Spec {
                rules: finkg::apps::control::RULES,
                goal: finkg::apps::control::GOAL,
                glossary: finkg::apps::control::glossary(),
                chain_goals: Some(input.goals.clone()),
                stream: Box::new(input),
                plan: Plan {
                    requests: 160,
                    http_batch: 1,
                    read_batch: 16,
                    decompose_goals: 20,
                },
                minima: Minima::FULL,
            }
        }
    };
    if tiny {
        spec.minima = Minima::TINY;
        spec.plan.requests = spec.plan.requests.min(10);
        spec.plan.decompose_goals = spec.plan.decompose_goals.min(6);
    }
    spec
}

/// Failed operations by cause.
#[derive(Clone, Copy, Debug, Default)]
pub struct Failures {
    pub non_200: u64,
    pub shed_503: u64,
    pub goal_error: u64,
    pub deadline_trip: u64,
    pub connect_error: u64,
}

impl Failures {
    pub fn total(&self) -> u64 {
        self.non_200 + self.shed_503 + self.goal_error + self.deadline_trip + self.connect_error
    }
}

/// What a run prints.
pub struct Outcome {
    pub metrics: Metrics,
    /// Every end-to-end figure as measured, before scaling to the
    /// nominal host speed.
    pub raw: Metrics,
    /// The scaled figures that no bound gates.
    pub ungated: Metrics,
    pub attempted: u64,
    pub failures: Failures,
    /// Gate failures: any makes the run incorrect.
    pub gate_errors: Vec<String>,
    pub ref_ms: f64,
    pub samples: Vec<(&'static str, usize)>,
    pub tracer: Tracer,
}

/// The program, artifacts and server a set-up produces.
pub struct Ready {
    pub program: Program,
    pub artifacts: Arc<ProgramArtifacts>,
    pub outcome: Arc<ChaseOutcome>,
    pub handle: SnapshotHandle,
    pub service: Arc<ExplainService>,
    pub server: HttpServer,
    pub facts: usize,
}

/// From generated inputs to ready to serve, as `finkg-serve` boots:
/// render and parse the program text, chase with the default
/// configuration, build the artifacts uncached, start the service and
/// bind the HTTP front end.
pub fn set_up(spec: &Spec, name: &'static str, tracer: &mut Tracer) -> Result<Ready, String> {
    tracer.begin_op("setup");
    tracer.enter("setup");
    let text = gen::render(spec.rules, spec.stream.edb());
    tracer.enter("parser.parse");
    let parsed = parse_program(&text).map_err(|e| format!("generated program: {e}"))?;
    let facts = parsed.facts.len();
    tracer.exit(vec![("facts", FieldValue::U64(facts as u64))]);
    let program = parsed.program;
    let db = parsed.facts.into_iter().collect();
    let outcome = tracer
        .span("engine.run", || ChaseSession::new(&program).run(db))
        .map_err(|e| format!("set-up chase: {e}"))?;
    let outcome = Arc::new(outcome);
    let artifacts = tracer
        .span("artifacts.build", || {
            ProgramArtifacts::builder(program.clone(), spec.goal)
                .with_glossary(&spec.glossary)
                .build()
        })
        .map_err(|e| format!("artifacts: {e}"))?;
    let artifacts = Arc::new(artifacts);
    tracer.enter("service.start");
    let handle = SnapshotHandle::new(Arc::clone(&outcome));
    let config = ServeConfig::default().with_workers(1).with_app_label(name);
    let service = Arc::new(ExplainService::new(
        Arc::clone(&artifacts),
        handle.clone(),
        config,
    ));
    let server =
        HttpServer::bind("127.0.0.1:0", Arc::clone(&service)).map_err(|e| format!("bind: {e}"))?;
    tracer.exit(Vec::new());
    tracer.exit(Vec::new());
    Ok(Ready {
        program,
        artifacts,
        outcome,
        handle,
        service,
        server,
        facts,
    })
}

/// Per-layer samples gathered over a run.
#[derive(Default)]
struct Layers {
    paths: f64,
    parse_ms: Samples,
    build_ms: Samples,
    analysis_ms: Samples,
    template_ms: Samples,
    index_build_ms: Samples,
    match_ms: Samples,
    merge_ms: Samples,
    commit_ms: Samples,
    aggregate_ms: Samples,
    one_thread_ms: Samples,
    two_thread_ms: Samples,
    deltas: usize,
    incremental: usize,
    facts_added: Samples,
    facts_removed: Samples,
    facts_rederived: Samples,
    changed_per_store_fact: Samples,
    extract_ms: Samples,
    tree_nodes: Samples,
    distinct_facts: Samples,
    linearize_ms: Samples,
    step_infos_ms: Samples,
    cover_ms: Samples,
    instantiate_ms: Samples,
    pieces: Samples,
    fallback_pieces: f64,
    query_us: Samples,
    text_bytes: Samples,
    connect_ms: Samples,
    ttfb_ms: Samples,
    response_bytes: Samples,
    traced_cycle_ms: Samples,
    untraced_cycle_ms: Samples,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn run(config: &Config) -> Result<Outcome, String> {
    let name = config.workload.name();
    let mut spec = spec(config);
    let (plan, minima) = (spec.plan, spec.minima);
    let mut tracer = Tracer::new();
    tracer.set_enabled(config.trace);
    let mut layers = Layers::default();
    let mut gate_errors: Vec<String> = Vec::new();
    let mut failures = Failures::default();
    let mut attempted = 0u64;
    let mut kernel = host::RefKernel::new();
    let mut setup_speed = HostSpeed(vec![kernel.measure()]);

    // Set-up, several times; the last one serves the run.
    let mut setup_s = Scaled::time();
    let mut ready: Option<Ready> = None;
    for rep in 0..SETUP_REPS {
        if let Some(mut previous) = ready.take() {
            previous.server.stop();
        }
        let start = Instant::now();
        let r = set_up(&spec, name, &mut tracer)?;
        setup_s.push(rep, start.elapsed().as_secs_f64());
        setup_speed.0.push(kernel.measure());
        let report = r.artifacts.telemetry();
        layers.build_ms.push(report.total_ns as f64 / 1e6);
        layers.analysis_ms.push(report.analysis_ns as f64 / 1e6);
        layers.template_ms.push(report.template_ns as f64 / 1e6);
        layers.paths = report.paths as f64;
        ready = Some(r);
    }
    let mut ready = ready.expect("at least one set-up");
    for d in tracer.durations_ms("parser.parse") {
        layers.parse_ms.push(d);
    }
    let cached_build_us = {
        let builder = || {
            ProgramArtifacts::builder(ready.program.clone(), spec.goal)
                .with_glossary(&spec.glossary)
        };
        builder()
            .build_cached()
            .map_err(|e| format!("cached build: {e}"))?;
        let mut hits = Samples::default();
        for _ in 0..20 {
            let start = Instant::now();
            builder()
                .build_cached()
                .map_err(|e| format!("cached build: {e}"))?;
            hits.push(start.elapsed().as_secs_f64() * 1e6);
        }
        hits.median()
    };

    let program = &ready.program;
    let goal = spec.goal;
    let initial = Arc::clone(&ready.outcome);
    let fingerprint = initial.report.count_fingerprint();
    let initial_edb: Vec<Fact> = spec.stream.edb().to_vec();
    let report_goals = gates::derived_goals(&initial, goal);
    if report_goals.is_empty() {
        return Err(format!("{name}: the input derives no {goal} facts"));
    }
    let decompose: Vec<Fact> = match &spec.chain_goals {
        Some(chains) => (0..plan.decompose_goals)
            .map(|i| chains[i % chains.len()][i / chains.len() % chains[0].len()].clone())
            .collect(),
        None => {
            let step = (report_goals.len() / plan.decompose_goals).max(1);
            report_goals
                .iter()
                .step_by(step)
                .take(plan.decompose_goals)
                .cloned()
                .collect()
        }
    };

    let mut session = ChaseSession::new(program).with_threads(1);
    session.load(Arc::clone(&initial));
    // Set by every update before the reads and requests that follow it.
    let mut version: u64;
    let mut current_goals: Vec<Fact>;
    let mut explainer: Option<Explainer> = None;
    let mut expected = ExpectedCache::new();
    let mut rng = Rng::new(config.seed, 7);
    let addr = ready.server.addr();

    let mut chase_rate = Scaled::rate();
    let mut report_rate = Scaled::rate();
    let mut update_ms = Scaled::time();
    let mut read_ms = Scaled::time();
    let mut http_rate = Scaled::rate();
    let mut request_ms = Scaled::time();
    let mut engine_counts: Option<RunReport> = None;

    let mut speed = HostSpeed(vec![kernel.measure()]);
    let start = Instant::now();
    let mut cycle = 0usize;
    loop {
        let elapsed = start.elapsed();
        let short = chase_rate.len() < minima.chases
            || update_ms.len() < minima.updates
            || request_ms.len() < minima.requests
            || (config.trace && cycle < 4);
        let elapsed = elapsed.as_secs_f64();
        if (elapsed >= config.seconds && !short)
            || elapsed >= (config.seconds * CAP_FACTOR).max(MIN_CAP_S)
        {
            break;
        }
        // Traced runs alternate traced and untraced cycles, so the same
        // work with and without spans gives the tracing overhead.
        tracer.set_enabled(config.trace && cycle.is_multiple_of(2));
        let cycle_start = Instant::now();

        // Chase: the initial EDB from scratch, one thread.
        {
            attempted += 1;
            let db = gen::database(&initial_edb);
            tracer.begin_op("chase");
            let t = Instant::now();
            let out = tracer.span("engine.run", || {
                ChaseSession::new(program).with_threads(1).run(db)
            });
            let took = t.elapsed();
            let out = out.map_err(|e| format!("timed chase: {e}"))?;
            chase_rate.push(cycle, out.derived_facts as f64 / took.as_secs_f64());
            if let Err(e) = gates::check_fingerprint(&fingerprint, &out.report.count_fingerprint())
            {
                gate_errors.push(e);
            }
            let timings = &out.report.timings;
            layers
                .index_build_ms
                .push(timings.index_build_ns as f64 / 1e6);
            layers.match_ms.push(timings.match_ns as f64 / 1e6);
            layers.merge_ms.push(timings.merge_ns as f64 / 1e6);
            layers.commit_ms.push(timings.commit_ns as f64 / 1e6);
            layers.aggregate_ms.push(timings.aggregate_ns as f64 / 1e6);
            engine_counts.get_or_insert_with(|| out.report.clone());
        }

        let per_slice = plan.requests.div_ceil(UPDATES_PER_CYCLE);
        let mut requests_left = plan.requests;
        let mut http_goals = 0u64;
        let mut http_time = Duration::ZERO;
        for _ in 0..UPDATES_PER_CYCLE {
            // Update: apply the next delta and publish it.
            attempted += 1;
            let delta = spec.stream.next_delta();
            // Hold no reference to the published store, so that the
            // publish drops it, as it does in a deployment.
            drop(explainer.take());
            tracer.begin_op("update");
            tracer.enter("update");
            let t = Instant::now();
            let applied = tracer.span("delta.apply", || session.apply_delta(delta));
            let applied = applied.map_err(|e| format!("delta: {e}"))?;
            let store = applied.outcome.database.len();
            let published = tracer.span("snapshot.publish", || {
                ready.handle.publish(SnapshotUpdate::delta(&applied))
            });
            update_ms.push(cycle, ms(t.elapsed()));
            tracer.exit(Vec::new());
            if layers.deltas < minima.counted_deltas {
                layers.deltas += 1;
                layers.incremental += usize::from(applied.strategy == DeltaStrategy::Incremental);
                layers.facts_added.push(applied.facts_added as f64);
                layers.facts_removed.push(applied.facts_removed as f64);
                layers.facts_rederived.push(applied.facts_rederived as f64);
                layers
                    .changed_per_store_fact
                    .push((applied.facts_added + applied.facts_removed) as f64 / store as f64);
            }
            version = published;
            current_goals = gates::derived_goals(&applied.outcome, goal);
            explainer = Some(Explainer::for_snapshot(
                Arc::clone(&ready.artifacts),
                Arc::clone(&applied.outcome),
            ));
            drop(applied);

            // Read: a batch on the new version, in process.
            attempted += 1;
            let goals = sample(&mut rng, &current_goals, plan.read_batch);
            tracer.begin_op("read");
            let t = Instant::now();
            let (served, results) =
                tracer.span("service.batch", || ready.service.explain_batch(&goals));
            read_ms.push(cycle, ms(t.elapsed()));
            if served != version {
                gate_errors.push(format!("read served version {served}, published {version}"));
            }
            let empty = results
                .iter()
                .any(|r| matches!(r, Ok(e) if e.text.is_empty()));
            if empty {
                gate_errors.push("empty read explanation".to_owned());
            }
            if let Some(Err(error)) = results.iter().find(|r| r.is_err()) {
                match error {
                    ServeError::Overloaded { .. } => failures.shed_503 += 1,
                    ServeError::DeadlineExceeded { .. } => failures.deadline_trip += 1,
                    _ => failures.goal_error += 1,
                }
            }

            // HTTP: a slice of the cycle's requests.
            for _ in 0..per_slice.min(requests_left) {
                requests_left -= 1;
                attempted += 1;
                let goals = match &spec.chain_goals {
                    Some(chains) => {
                        let hops = &chains[rng.range(0, chains.len())];
                        vec![hops[rng.range(0, hops.len())].clone()]
                    }
                    None => sample(&mut rng, &current_goals, plan.http_batch),
                };
                let body: String = goals.iter().map(|g| format!("{g}.\n")).collect();
                tracer.begin_op("request");
                tracer.enter("http.request");
                let response = client::post_explain(addr, &body);
                let response = match response {
                    Ok(r) => r,
                    Err(e) => {
                        tracer.exit(Vec::new());
                        failures.connect_error += 1;
                        eprintln!("{name}: request failed: {e}");
                        continue;
                    }
                };
                tracer.exit(vec![
                    ("status", FieldValue::U64(u64::from(response.status))),
                    ("goals", FieldValue::U64(goals.len() as u64)),
                    ("connect_ms", FieldValue::F64(ms(response.connect))),
                    ("ttfb_ms", FieldValue::F64(ms(response.ttfb))),
                ]);
                request_ms.push(cycle, ms(response.total));
                http_time += response.total;
                if tracer.enabled() {
                    layers.connect_ms.push(ms(response.connect));
                    layers.ttfb_ms.push(ms(response.ttfb));
                    layers.response_bytes.push(response.bytes as f64);
                }
                match response.status {
                    200 => {}
                    503 => {
                        failures.shed_503 += 1;
                        continue;
                    }
                    _ => {
                        failures.non_200 += 1;
                        continue;
                    }
                }
                let tally = gates::check_answer(&response.body, version, &goals, |g| {
                    let explainer = explainer.as_ref().expect("set by the update");
                    expected.get(version, g, explainer)
                });
                match tally {
                    Ok(tally) => {
                        http_goals += tally.answered;
                        if tally.goal_errors > 0 {
                            failures.goal_error += 1;
                        } else if tally.deadline_trips > 0 {
                            failures.deadline_trip += 1;
                        }
                    }
                    Err(e) => gate_errors.push(e),
                }
            }
        }
        if http_time > Duration::ZERO {
            http_rate.push(cycle, http_goals as f64 / http_time.as_secs_f64());
        }

        // Report: every derived goal of the set-up snapshot.
        {
            attempted += 1;
            tracer.begin_op("report");
            let t = Instant::now();
            let report = tracer.span("explain.report", || {
                ready.artifacts.report(
                    &initial,
                    TemplateFlavor::Enhanced,
                    DerivationPolicy::Richest,
                )
            });
            let took = t.elapsed();
            match report {
                Ok(report) => {
                    report_rate.push(cycle, report.len() as f64 / took.as_secs_f64());
                    if let Err(e) = gates::check_report(&report_goals, &report) {
                        gate_errors.push(e);
                    }
                }
                Err(e) => gate_errors.push(format!("report failed: {e}")),
            }
        }

        let cycle_ms = ms(cycle_start.elapsed());
        speed.0.push(kernel.measure());
        if config.trace {
            if tracer.enabled() {
                layers.traced_cycle_ms.push(cycle_ms);
                decompose_goals(&mut tracer, &ready, &initial, &decompose, &mut layers)?;
                parallel_pair(program, &initial_edb, cycle, &mut layers)?;
            } else {
                layers.untraced_cycle_ms.push(cycle_ms);
            }
        }
        cycle += 1;
    }
    tracer.set_enabled(config.trace);

    // Maintained == from scratch on the final EDB.
    let scratch = ChaseSession::new(program)
        .with_threads(1)
        .run(gen::database(spec.stream.edb()))
        .map_err(|e| format!("final chase: {e}"))?;
    let live = session.live().expect("the session holds a live outcome");
    if let Err(e) = gates::check_maintained(live, &scratch) {
        gate_errors.push(format!("maintained store: {e}"));
    }
    drop(scratch);

    let engine = engine_counts.ok_or("no timed chase ran")?;
    let host_ref_ms = {
        let mut all = Samples::default();
        for &r in setup_speed.0.iter().chain(&speed.0) {
            all.push(r);
        }
        all.median()
    };
    let mut metrics = Metrics::default();
    let mut raw = Metrics::default();
    // Every timing figure is scaled to the nominal host speed; the
    // header keeps each as measured. The central figures of whole phases
    // are the gated end-to-end metrics; the tails and the HTTP figures
    // move with the host's scheduling noise by more than any bound, so
    // they are reported ungated.
    type Stat = fn(&Samples) -> f64;
    let p90: Stat = |s| s.quantile(0.9);
    let figures: [(&str, &Scaled, &HostSpeed, Stat, &str); 10] = [
        ("setup_s", &setup_s, &setup_speed, Samples::median, "s"),
        (
            "chase_facts_per_s",
            &chase_rate,
            &speed,
            Samples::median,
            "facts/s",
        ),
        (
            "report_goals_per_s",
            &report_rate,
            &speed,
            Samples::median,
            "goals/s",
        ),
        ("update_p50_ms", &update_ms, &speed, Samples::median, "ms"),
        ("read_p50_ms", &read_ms, &speed, Samples::median, "ms"),
        ("update_p90_ms", &update_ms, &speed, p90, "ms"),
        ("read_p90_ms", &read_ms, &speed, p90, "ms"),
        (
            "http_goals_per_s",
            &http_rate,
            &speed,
            Samples::median,
            "goals/s",
        ),
        ("request_p50_ms", &request_ms, &speed, Samples::median, "ms"),
        ("request_p99_ms", &request_ms, &speed, blocked_p99, "ms"),
    ];
    let mut ungated = Metrics::default();
    for (i, (name, samples, host, stat, unit)) in figures.into_iter().enumerate() {
        raw.set(name, stat(&samples.raw()), unit);
        let value = stat(&samples.scaled(host));
        if i < GATED_FIGURES {
            metrics.set(name, value, unit);
        } else {
            ungated.set(name, value, unit);
        }
    }
    if config.trace {
        // A traced run reports layers, and the ungated figures with them.
        metrics = ungated.clone();
        set_layer_metrics(
            &mut metrics,
            &layers,
            &engine,
            &tracer,
            cached_build_us,
            ready.facts,
        );
        metrics.set("service.shed", failures.shed_503 as f64, "count");
        metrics.set(
            "service.deadline_trips",
            failures.deadline_trip as f64,
            "count",
        );
        metrics.set("http.non_200", failures.non_200 as f64, "count");
        metrics.set("host.ref_ms", host_ref_ms, "ms");
    }
    drop(session);
    drop(initial);
    ready.server.stop();
    drop(ready);
    if !config.trace {
        metrics.set("peak_rss_mb", host::peak_rss_mb(), "MB");
    }
    Ok(Outcome {
        metrics,
        raw,
        ungated,
        attempted,
        failures,
        gate_errors,
        ref_ms: host_ref_ms,
        samples: vec![
            ("setups", setup_s.len()),
            ("cycles", cycle),
            ("chases", chase_rate.len()),
            ("updates", update_ms.len()),
            ("reads", read_ms.len()),
            ("reports", report_rate.len()),
            ("requests", request_ms.len()),
        ],
        tracer,
    })
}

/// The leading entries of the run's figure list that are gated
/// end-to-end metrics.
const GATED_FIGURES: usize = 5;

/// Requests per block of [`blocked_p99`].
const P99_BLOCK: usize = 1000;

/// The median over blocks of [`P99_BLOCK`] consecutive requests of each
/// block's p99 (the plain p99 below one block). A burst of host stalls
/// moves the block it falls in, not the run's figure; a slower tail
/// moves every block.
pub fn blocked_p99(requests: &Samples) -> f64 {
    let values = requests.values();
    if values.len() < P99_BLOCK {
        return requests.quantile(0.99);
    }
    let mut blocks = Samples::default();
    for block in values.chunks_exact(P99_BLOCK) {
        blocks.push(Samples::from(block).quantile(0.99));
    }
    blocks.median()
}

/// `n` goals drawn uniformly (with replacement) from `pool`.
fn sample(rng: &mut Rng, pool: &[Fact], n: usize) -> Vec<Fact> {
    (0..n)
        .map(|_| pool[rng.range(0, pool.len())].clone())
        .collect()
}

/// Explains `goals` once through the query entry point, then takes the
/// same explanation apart through the public stages it is built from:
/// proof extraction, linearization, step analysis, path cover and
/// template instantiation, each in its own span.
fn decompose_goals(
    tracer: &mut Tracer,
    ready: &Ready,
    outcome: &ChaseOutcome,
    goals: &[Fact],
    layers: &mut Layers,
) -> Result<(), String> {
    let policy = DerivationPolicy::Richest;
    let flavor = TemplateFlavor::Enhanced;
    let artifacts = &ready.artifacts;
    let graph = &outcome.graph;
    for goal in goals {
        let id = outcome
            .lookup(goal)
            .ok_or_else(|| format!("{goal} not derived"))?;
        tracer.begin_op("goal");
        tracer.enter("goal");
        let t = Instant::now();
        let e = tracer
            .span("explain.query", || {
                artifacts.explain_id(outcome, id, flavor, policy)
            })
            .map_err(|e| format!("explain {goal}: {e}"))?;
        layers.query_us.push(t.elapsed().as_secs_f64() * 1e6);
        layers.text_bytes.push(e.text.len() as f64);
        layers.pieces.push(e.paths.len() as f64);
        layers.fallback_pieces += e.paths.iter().filter(|p| p.starts_with('[')).count() as f64;

        let t = Instant::now();
        let proof = tracer.span("proof.extract", || graph.proof(id, policy));
        layers.extract_ms.push(ms(t.elapsed()));
        layers.tree_nodes.push(tree_nodes(&proof) as f64);
        layers.distinct_facts.push(proof.facts().len() as f64);

        let t = Instant::now();
        let tau = tracer.span("mapping.linearize", || proof.linearize(graph));
        layers.linearize_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let steps = tracer.span("mapping.step_infos", || step_infos(graph, &tau, policy));
        layers.step_infos_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let covering = tracer
            .span("mapping.cover", || {
                cover(artifacts.program(), artifacts.analysis(), graph, &steps)
            })
            .map_err(|e| format!("cover {goal}: {e}"))?;
        layers.cover_ms.push(ms(t.elapsed()));
        let t = Instant::now();
        let templates = artifacts.templates(flavor);
        let text_bytes: usize = tracer.span("mapping.instantiate", || {
            covering
                .pieces
                .iter()
                .map(|piece| instantiate(&templates[piece.path_index], piece, graph).len())
                .sum()
        });
        layers.instantiate_ms.push(ms(t.elapsed()));
        tracer.exit(vec![("bytes", FieldValue::U64(text_bytes as u64))]);
    }
    Ok(())
}

fn tree_nodes(tree: &ProofTree) -> usize {
    1 + tree.children.iter().map(tree_nodes).sum::<usize>()
}

/// One 1-thread and one 2-thread chase of the initial EDB, in an order
/// that alternates by cycle.
fn parallel_pair(
    program: &Program,
    edb: &[Fact],
    cycle: usize,
    layers: &mut Layers,
) -> Result<(), String> {
    let order: [usize; 2] = if cycle.is_multiple_of(4) {
        [1, 2]
    } else {
        [2, 1]
    };
    for threads in order {
        let db = gen::database(edb);
        let t = Instant::now();
        ChaseSession::new(program)
            .with_threads(threads)
            .run(db)
            .map_err(|e| format!("paired chase: {e}"))?;
        let took = ms(t.elapsed());
        if threads == 1 {
            layers.one_thread_ms.push(took);
        } else {
            layers.two_thread_ms.push(took);
        }
    }
    Ok(())
}

fn set_layer_metrics(
    m: &mut Metrics,
    l: &Layers,
    engine: &RunReport,
    tracer: &Tracer,
    cached_build_us: f64,
    facts: usize,
) {
    let median_of = |name: &str| {
        let mut s = Samples::default();
        for d in tracer.durations_ms(name) {
            s.push(d);
        }
        s.median()
    };
    m.set("parser.parse_ms", l.parse_ms.median(), "ms");
    m.set("parser.facts", facts as f64, "count");
    m.set("artifacts.build_ms", l.build_ms.median(), "ms");
    m.set("artifacts.analysis_ms", l.analysis_ms.median(), "ms");
    m.set("artifacts.template_ms", l.template_ms.median(), "ms");
    m.set("artifacts.paths", l.paths, "count");
    m.set("artifacts.cached_build_us", cached_build_us, "us");
    m.set("engine.index_build_ms", l.index_build_ms.median(), "ms");
    m.set("engine.match_ms", l.match_ms.median(), "ms");
    m.set("engine.merge_ms", l.merge_ms.median(), "ms");
    m.set("engine.commit_ms", l.commit_ms.median(), "ms");
    m.set("engine.aggregate_ms", l.aggregate_ms.median(), "ms");
    let rules = &engine.rules;
    let matches = engine.total_matches();
    let commits = engine.total_commits();
    m.set("engine.rounds", f64::from(engine.rounds), "count");
    m.set("engine.matches_enumerated", matches as f64, "count");
    m.set("engine.facts_committed", commits as f64, "count");
    m.set(
        "engine.duplicates_preempted",
        rules.iter().map(|r| r.duplicates_preempted).sum::<u64>() as f64,
        "count",
    );
    m.set(
        "engine.negation_probes",
        rules.iter().map(|r| r.negation_probes).sum::<u64>() as f64,
        "count",
    );
    m.set(
        "engine.peak_bytes",
        engine.peak.approx_bytes as f64,
        "bytes",
    );
    m.set(
        "engine.commit_yield",
        commits as f64 / matches.max(1) as f64,
        "ratio",
    );
    m.set(
        "engine.parallel_speedup",
        l.one_thread_ms.median() / l.two_thread_ms.median(),
        "ratio",
    );
    m.set("delta.apply_ms", median_of("delta.apply"), "ms");
    m.set(
        "delta.incremental_share",
        l.incremental as f64 / l.deltas.max(1) as f64,
        "ratio",
    );
    m.set("delta.facts_added", l.facts_added.mean(), "count");
    m.set("delta.facts_removed", l.facts_removed.mean(), "count");
    m.set("delta.facts_rederived", l.facts_rederived.mean(), "count");
    m.set(
        "delta.changed_per_store_fact",
        l.changed_per_store_fact.mean(),
        "ratio",
    );
    m.set("snapshot.publish_ms", median_of("snapshot.publish"), "ms");
    m.set("proof.extract_ms", l.extract_ms.median(), "ms");
    m.set("proof.tree_nodes", l.tree_nodes.mean(), "count");
    m.set("proof.distinct_facts", l.distinct_facts.mean(), "count");
    m.set(
        "proof.dup_ratio",
        l.tree_nodes.sum() / l.distinct_facts.sum().max(1.0),
        "ratio",
    );
    m.set("mapping.linearize_ms", l.linearize_ms.median(), "ms");
    m.set("mapping.step_infos_ms", l.step_infos_ms.median(), "ms");
    m.set("mapping.cover_ms", l.cover_ms.median(), "ms");
    m.set("mapping.instantiate_ms", l.instantiate_ms.median(), "ms");
    m.set("mapping.pieces", l.pieces.mean(), "count");
    m.set(
        "mapping.fallback_share",
        l.fallback_pieces / l.pieces.sum().max(1.0),
        "ratio",
    );
    m.set("explain.query_us", l.query_us.median(), "us");
    m.set("explain.text_bytes", l.text_bytes.mean(), "bytes");
    m.set("service.batch_ms", median_of("service.batch"), "ms");
    m.set("http.connect_ms", l.connect_ms.median(), "ms");
    m.set("http.ttfb_ms", l.ttfb_ms.median(), "ms");
    m.set("http.response_bytes", l.response_bytes.mean(), "bytes");
    m.set(
        "trace.overhead_ratio",
        l.traced_cycle_ms.median() / l.untraced_cycle_ms.median(),
        "ratio",
    );
}
