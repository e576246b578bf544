//! Regenerates `results/BENCH_run_telemetry.json`: the thread-sweep
//! chase benchmark, rebuilt on top of the engine's run telemetry.
//!
//! For every workload the harness chases at 1/2/4/8 worker threads,
//! keeping the [`vadalog::RunReport`] of each run. The emitted JSON
//! combines:
//!
//! * wall-clock best/mean per thread count (as before), now taken from
//!   `RunReport.timings` rather than an external stopwatch, with the
//!   match/merge/commit/aggregate phase split of the best run;
//! * the thread-invariant counter block (matches, commits, duplicates,
//!   index probes vs. scans, peaks) — asserted identical across the
//!   sweep before anything is written;
//! * a telemetry-overhead measurement: the same chase with
//!   `full_telemetry` disabled (counters only, no per-round log, no
//!   clock reads), reported as a ratio to the instrumented run.
//!
//! Usage: `cargo run --release -p bench --bin run_telemetry [-- DATE]`.

use vadalog::obs::JsonWriter;
use vadalog::{ChaseConfig, ChaseSession, Database, Program, RunReport};

const THREADS: [usize; 4] = [1, 2, 4, 8];
const REPS: usize = 5;
const OVERHEAD_REPS: usize = 11;

struct Cell {
    threads: usize,
    best_ms: f64,
    mean_ms: f64,
    /// Phase timings of the best repetition, milliseconds.
    phases_ms: [(&'static str, f64); 5],
    /// Share of the best repetition's wall time spent in the sequential
    /// commit phase.
    commit_share: f64,
}

struct WorkloadRun {
    name: &'static str,
    report: RunReport,
    cells: Vec<Cell>,
    /// Mean total wall-time with `full_telemetry` off / on, at 1 thread.
    overhead_ratio: f64,
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn sweep(name: &'static str, program: &Program, db: &Database) -> WorkloadRun {
    let reference = ChaseSession::new(program)
        .with_threads(1)
        .run(db.clone())
        .expect("chase");
    let fingerprint = reference.report.count_fingerprint();

    let mut cells = Vec::new();
    for threads in THREADS {
        let mut best: Option<RunReport> = None;
        let mut total_ns = 0u64;
        for _ in 0..REPS {
            let out = ChaseSession::new(program)
                .with_threads(threads)
                .run(db.clone())
                .expect("chase");
            assert_eq!(
                out.report.count_fingerprint(),
                fingerprint,
                "{name}: telemetry diverged at {threads} threads"
            );
            total_ns += out.report.timings.total_ns;
            if best
                .as_ref()
                .is_none_or(|b| out.report.timings.total_ns < b.timings.total_ns)
            {
                best = Some(out.report);
            }
        }
        let best = best.expect("at least one repetition");
        cells.push(Cell {
            threads,
            best_ms: ns_to_ms(best.timings.total_ns),
            mean_ms: ns_to_ms(total_ns / REPS as u64),
            phases_ms: [
                ("index_build", ns_to_ms(best.timings.index_build_ns)),
                ("match", ns_to_ms(best.timings.match_ns)),
                ("merge", ns_to_ms(best.timings.merge_ns)),
                ("commit", ns_to_ms(best.timings.commit_ns)),
                ("aggregate", ns_to_ms(best.timings.aggregate_ns)),
            ],
            commit_share: best.timings.commit_ns as f64 / best.timings.total_ns.max(1) as f64,
        });
    }

    // Overhead: full telemetry vs. counters-only, single-threaded, by an
    // external stopwatch (the reduced mode deliberately skips the
    // engine's own clock reads). Best-of-N: the minimum is the run least
    // disturbed by the container's timesharing, which is what an
    // overhead ratio should compare.
    let timed_run = |full: bool| -> f64 {
        let t0 = std::time::Instant::now();
        let out = ChaseSession::new(program)
            .with_config(ChaseConfig::default().with_full_telemetry(full))
            .with_threads(1)
            .run(db.clone())
            .expect("chase");
        let dt = t0.elapsed().as_secs_f64();
        // Counters survive the reduced mode; only the per-round log and
        // phase clocks are dropped, so compare totals.
        assert_eq!(out.report.total_commits(), reference.report.total_commits());
        assert_eq!(out.report.total_matches(), reference.report.total_matches());
        dt
    };
    // Interleave on/off repetitions so slow load drift in the container
    // hits both modes equally, then compare the bests.
    let mut with_telemetry = f64::INFINITY;
    let mut without = f64::INFINITY;
    for _ in 0..OVERHEAD_REPS {
        with_telemetry = with_telemetry.min(timed_run(true));
        without = without.min(timed_run(false));
    }
    let overhead_ratio = if without > 0.0 {
        with_telemetry / without
    } else {
        1.0
    };

    WorkloadRun {
        name,
        report: reference.report,
        cells,
        overhead_ratio,
    }
}

fn main() {
    let date = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "unreported".into());
    let runs = [
        sweep(
            "company_control over random_ownership(400, 3, 7)",
            &finkg::apps::control::program(),
            &finkg::random_ownership(400, 3, 7),
        ),
        sweep(
            "stress_test over random_debt_network(4000, 3, 5, 11)",
            &finkg::apps::stress::program(),
            &finkg::random_debt_network(4000, 3, 5, 11),
        ),
        sweep(
            "company_control over random_ownership(1200, 4, 7)",
            &finkg::apps::control::program(),
            &finkg::random_ownership(1200, 4, 7),
        ),
    ];

    let mut w = JsonWriter::new();
    w.open_object();
    w.field_str("name", "run_telemetry_thread_sweep");
    w.field_str("date", &date);
    w.field_str(
        "description",
        "Thread sweep of the chase at 1/2/4/8 workers, reported from the \
         engine's own RunReport telemetry: per-phase wall-clock of the \
         best repetition, best/mean totals, and the thread-invariant \
         counter block (asserted identical across the sweep before \
         emission). 'telemetry_overhead' compares best-of-interleaved \
         wall-time with full telemetry (per-round log + phase clocks) \
         against the counters-only mode; the acceptance bar is a ratio \
         below 1.05. 'commit_share' is the best repetition's share of wall \
         time in the sequential commit phase. \
         Regenerate with `cargo run --release -p bench --bin \
         run_telemetry -- $(date +%F)`.",
    );
    w.key("environment");
    w.open_object();
    w.field_u64(
        "logical_cores",
        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
    );
    w.field_str(
        "note",
        "In a single-core container the sweep measures the parallel \
         engine's overhead, not its scaling; counters are identical \
         either way.",
    );
    w.close_object();
    w.key("workloads");
    w.open_array();
    for run in &runs {
        w.open_object();
        w.field_str("workload", run.name);
        w.field_u64("rounds", u64::from(run.report.rounds));
        w.field_u64("strata", u64::from(run.report.strata));
        w.field_u64("matches_enumerated", run.report.total_matches());
        w.field_u64("facts_committed", run.report.total_commits());
        w.field_u64("index_probes", run.report.total_index_probes());
        w.field_u64("scans", run.report.total_scans());
        w.key("peak");
        w.open_object();
        w.field_u64("facts", run.report.peak.facts);
        w.field_u64("derivations", run.report.peak.derivations);
        w.field_u64("match_buffer", run.report.peak.match_buffer);
        w.field_u64("approx_bytes", run.report.peak.approx_bytes);
        w.close_object();
        w.key("rules");
        w.open_array();
        for r in &run.report.rules {
            w.open_object();
            w.field_str("label", &r.label);
            w.field_u64("matches_enumerated", r.matches_enumerated);
            w.field_u64("facts_committed", r.facts_committed);
            w.field_u64("duplicates_preempted", r.duplicates_preempted);
            w.field_u64("index_probes", r.index_probes);
            w.field_u64("scans", r.scans);
            w.close_object();
        }
        w.close_array();
        w.key("timings_ms");
        w.open_object();
        for cell in &run.cells {
            w.key(&cell.threads.to_string());
            w.open_object();
            w.field_f64("best", cell.best_ms);
            w.field_f64("mean", cell.mean_ms);
            w.field_f64("commit_share", cell.commit_share);
            w.key("best_phases");
            w.open_object();
            for (phase, ms) in cell.phases_ms {
                w.field_f64(phase, ms);
            }
            w.close_object();
            w.close_object();
        }
        w.close_object();
        w.field_f64("telemetry_overhead", run.overhead_ratio);
        w.close_object();
    }
    w.close_array();
    w.close_object();

    let json = w.finish();
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_run_telemetry.json", pretty(&json)).expect("write results");
    for run in &runs {
        println!(
            "{}: overhead x{:.3}, rounds {}, {} commits",
            run.name,
            run.overhead_ratio,
            run.report.rounds,
            run.report.total_commits()
        );
    }
    println!("wrote results/BENCH_run_telemetry.json");
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
