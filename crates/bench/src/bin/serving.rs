//! Regenerates `results/BENCH_serving.json`: explanation-serving
//! throughput over an Arc-shared chase snapshot.
//!
//! Three sweeps isolate what the serving layer buys:
//!
//! * *cold* — every request rebuilds the program artifacts from scratch
//!   (structural analysis + both template catalogs), the price every
//!   caller paid per pipeline before artifacts became cacheable;
//! * *cached* — all requests share one `ProgramArtifacts` edition out
//!   of the process-wide cache and pay only the per-goal explanation;
//! * *concurrent* — the `ExplainService` worker pool at 1/2/8 workers
//!   answering batched goals, every answer asserted byte-identical to
//!   the sequential baseline before anything is written.
//!
//! Acceptance: cached throughput >= 5x cold. The 1 -> 2 worker scaling
//! assertion is gated on `host_parallelism >= 2` — wall-clock scaling
//! is unobservable on a single core, so the result records the actual
//! host parallelism and the honest per-worker-count numbers instead of
//! pretending.
//!
//! Usage: `cargo run --release -p bench --bin serving [-- DATE]`.

use explain::{Explainer, ProgramArtifacts};
use serve::{ExplainService, ServeConfig, SnapshotHandle};
use std::sync::Arc;
use std::time::Instant;
use vadalog::obs::JsonWriter;
use vadalog::{ChaseOutcome, ChaseSession, Fact};

const ENTITIES: usize = 220;
const EDGES_PER_ENTITY: usize = 3;
const SEED: u64 = 7;
const WORKERS: [usize; 3] = [1, 2, 8];
/// Requests per sweep. Cold rebuilds artifacts each time, so it gets a
/// smaller budget; both sweeps report per-request means, which is what
/// the speedup compares.
const COLD_REQUESTS: usize = 40;
const CACHED_REQUESTS: usize = 600;
const BATCH_REPS: usize = 40;
/// The acceptance bar from the issue: sharing cached artifacts must be
/// at least this much faster than rebuilding them per request.
const REQUIRED_CACHED_SPEEDUP: f64 = 5.0;
/// Minimum 1 -> 2 worker throughput ratio, asserted only when the host
/// actually has a second core to scale onto.
const REQUIRED_SCALING: f64 = 1.3;

/// All derived goal facts of `outcome`, in derivation order.
fn derived_goals(outcome: &ChaseOutcome) -> Vec<Fact> {
    outcome
        .facts_of(finkg::apps::control::GOAL)
        .into_iter()
        .filter(|(id, _)| outcome.graph.is_derived(*id))
        .map(|(_, fact)| fact.clone())
        .collect()
}

struct Sweep {
    requests: usize,
    total_ms: f64,
    qps: f64,
    mean_us: f64,
    analysis_runs: u64,
}

fn sweep(requests: usize, total_ms: f64, analysis_runs: u64) -> Sweep {
    let secs = total_ms / 1e3;
    Sweep {
        requests,
        total_ms,
        qps: requests as f64 / secs.max(1e-9),
        mean_us: total_ms * 1e3 / requests as f64,
        analysis_runs,
    }
}

fn main() {
    let date = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "unreported".into());
    let host_parallelism = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let program = finkg::apps::control::program();
    let glossary = finkg::apps::control::glossary();
    let db = finkg::generator::random_ownership(ENTITIES, EDGES_PER_ENTITY, SEED);
    let outcome = Arc::new(ChaseSession::new(&program).run(db).unwrap());
    let goals = derived_goals(&outcome);
    assert!(goals.len() >= 10, "workload too small: {}", goals.len());

    let analysis_counter = vadalog::obs::metrics::global().counter(
        "vadalog_explain_analysis_runs_total",
        "Structural analyses executed while building program artifacts.",
    );

    // Cold: rebuild the artifacts for every request, bypassing the
    // cache by using the plain builder.
    let before = analysis_counter.get();
    let start = Instant::now();
    for (i, goal) in goals.iter().cycle().take(COLD_REQUESTS).enumerate() {
        let artifacts = ProgramArtifacts::builder(program.clone(), finkg::apps::control::GOAL)
            .with_glossary(&glossary)
            .build()
            .unwrap();
        let explainer = Explainer::for_snapshot(Arc::new(artifacts), Arc::clone(&outcome));
        let text = explainer.explain(goal).unwrap().text;
        assert!(!text.is_empty(), "cold request {i} produced no text");
    }
    let cold = sweep(
        COLD_REQUESTS,
        start.elapsed().as_secs_f64() * 1e3,
        analysis_counter.get() - before,
    );
    assert_eq!(
        cold.analysis_runs, COLD_REQUESTS as u64,
        "cold path must re-analyze per request"
    );

    // Cached: one shared edition out of the process-wide cache; the
    // warm-up build is the only analysis the whole sweep pays.
    let artifacts = ProgramArtifacts::builder(program.clone(), finkg::apps::control::GOAL)
        .with_glossary(&glossary)
        .build_cached()
        .unwrap();
    let explainer = Explainer::for_snapshot(Arc::clone(&artifacts), Arc::clone(&outcome));
    let before = analysis_counter.get();
    let start = Instant::now();
    for goal in goals.iter().cycle().take(CACHED_REQUESTS) {
        let text = explainer.explain(goal).unwrap().text;
        assert!(!text.is_empty());
    }
    let cached = sweep(
        CACHED_REQUESTS,
        start.elapsed().as_secs_f64() * 1e3,
        analysis_counter.get() - before,
    );
    assert_eq!(
        cached.analysis_runs, 0,
        "cached requests must never re-run analysis"
    );

    let cached_speedup = cached.qps / cold.qps.max(1e-9);
    println!(
        "cold {:.0} qps ({:.0} us/req), cached {:.0} qps ({:.1} us/req) -> x{:.1}",
        cold.qps, cold.mean_us, cached.qps, cached.mean_us, cached_speedup
    );
    assert!(
        cached_speedup >= REQUIRED_CACHED_SPEEDUP,
        "cached artifacts only x{cached_speedup:.2} over cold (need x{REQUIRED_CACHED_SPEEDUP})"
    );

    // Concurrent: the worker pool over one shared snapshot. Answers are
    // compared byte-for-byte against the sequential reference at every
    // worker count before any number is trusted.
    let reference: Vec<String> = goals
        .iter()
        .map(|goal| explainer.explain(goal).unwrap().text)
        .collect();
    let handle = SnapshotHandle::new(Arc::clone(&outcome));
    let mut concurrent = Vec::new();
    for workers in WORKERS {
        let service = ExplainService::new(
            Arc::clone(&artifacts),
            handle.clone(),
            ServeConfig::default().with_workers(workers),
        );
        let (_, results) = service.explain_batch(&goals); // warm the pool
        let texts: Vec<String> = results.into_iter().map(|r| r.unwrap().text).collect();
        assert_eq!(
            texts, reference,
            "answers at {workers} workers diverge from the sequential baseline"
        );
        let start = Instant::now();
        for _ in 0..BATCH_REPS {
            let (_, results) = service.explain_batch(&goals);
            assert!(results.iter().all(Result::is_ok));
        }
        let total_ms = start.elapsed().as_secs_f64() * 1e3;
        let requests = BATCH_REPS * goals.len();
        let s = sweep(requests, total_ms, 0);
        println!(
            "{workers} workers: {:.0} qps ({:.1} us/req)",
            s.qps, s.mean_us
        );
        concurrent.push((workers, s));
    }

    let scaling_1_to_2 = concurrent[1].1.qps / concurrent[0].1.qps.max(1e-9);
    let scaling_asserted = host_parallelism >= 2;
    if scaling_asserted {
        assert!(
            scaling_1_to_2 >= REQUIRED_SCALING,
            "1 -> 2 workers only scaled x{scaling_1_to_2:.2} on a \
             {host_parallelism}-core host (need x{REQUIRED_SCALING})"
        );
    } else {
        println!(
            "single-core host: recording 1 -> 2 worker ratio x{scaling_1_to_2:.2} \
             without asserting scaling"
        );
    }

    let mut jw = JsonWriter::new();
    jw.open_object();
    jw.field_str("name", "explanation_serving");
    jw.field_str("date", &date);
    jw.field_str(
        "description",
        "Serving-layer throughput over an Arc-shared chase snapshot. \
         'cold' rebuilds ProgramArtifacts (structural analysis + both \
         template catalogs) per request; 'cached' shares one edition out \
         of the process-wide ArtifactCache; 'concurrent' drives the \
         ExplainService worker pool at 1/2/8 workers over batched goals, \
         with every answer asserted byte-identical to the sequential \
         baseline before emission. The 1->2 worker scaling assertion is \
         gated on host_parallelism >= 2; on a single core the ratio is \
         recorded without pretending wall-clock scaling is observable. \
         Regenerate with `cargo run --release -p bench --bin serving -- \
         $(date +%F)`.",
    );
    jw.field_u64("host_parallelism", host_parallelism as u64);
    jw.key("workload");
    jw.open_object();
    jw.field_str("app", "control");
    jw.field_u64("entities", ENTITIES as u64);
    jw.field_u64("edges_per_entity", EDGES_PER_ENTITY as u64);
    jw.field_u64("seed", SEED);
    jw.field_u64("derived_goals", goals.len() as u64);
    jw.field_u64("derived_facts", outcome.derived_facts as u64);
    jw.close_object();
    for (key, s) in [("cold", &cold), ("cached", &cached)] {
        jw.key(key);
        jw.open_object();
        jw.field_u64("requests", s.requests as u64);
        jw.field_f64("total_ms", s.total_ms);
        jw.field_f64("qps", s.qps);
        jw.field_f64("mean_us", s.mean_us);
        jw.field_u64("analysis_runs", s.analysis_runs);
        jw.close_object();
    }
    jw.field_f64("required_cached_speedup", REQUIRED_CACHED_SPEEDUP);
    jw.field_f64("cached_speedup_over_cold", cached_speedup);
    jw.key("concurrent");
    jw.open_array();
    for (workers, s) in &concurrent {
        jw.open_object();
        jw.field_u64("workers", *workers as u64);
        jw.field_u64("requests", s.requests as u64);
        jw.field_f64("total_ms", s.total_ms);
        jw.field_f64("qps", s.qps);
        jw.field_f64("mean_us", s.mean_us);
        jw.field_str("byte_identical_to_sequential", "true");
        jw.close_object();
    }
    jw.close_array();
    jw.field_f64("scaling_1_to_2_workers", scaling_1_to_2);
    jw.field_str(
        "scaling_asserted",
        if scaling_asserted { "true" } else { "false" },
    );
    jw.close_object();

    let json = jw.finish();
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_serving.json", pretty(&json)).expect("write results");
    println!(
        "wrote results/BENCH_serving.json (cached x{cached_speedup:.1}, \
         1->2 workers x{scaling_1_to_2:.2})"
    );
}

/// Minimal JSON pretty-printer (2-space indent) so the checked-in result
/// diffs cleanly; input is the trusted output of [`JsonWriter`].
fn pretty(json: &str) -> String {
    let mut out = String::with_capacity(json.len() * 2);
    let mut indent = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    for c in json.chars() {
        if in_string {
            out.push(c);
            if escaped {
                escaped = false;
            } else if c == '\\' {
                escaped = true;
            } else if c == '"' {
                in_string = false;
            }
            continue;
        }
        match c {
            '"' => {
                in_string = true;
                out.push(c);
            }
            '{' | '[' => {
                out.push(c);
                indent += 1;
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            '}' | ']' => {
                indent = indent.saturating_sub(1);
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(c);
            }
            ',' => {
                out.push(c);
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
            }
            ':' => {
                out.push(c);
                out.push(' ');
            }
            c => out.push(c),
        }
    }
    out.push('\n');
    out
}
