//! Regenerates `results/BENCH_checkpoint.json`: cost of the durability
//! layer.
//!
//! Three questions, answered on the company-control workload:
//!
//! * **Snapshot latency** — how long does one `checkpoint_to` of the
//!   finished outcome take, how long does one `resume_from_path` of a
//!   completed snapshot take, and how big is the file?
//! * **Autosave overhead** — how much slower is a chase that autosaves
//!   *every* round (the worst-case policy) than one that never saves, at
//!   1/2/8 worker threads? Best-of-interleaved repetitions, same
//!   methodology as the telemetry-overhead bench.
//! * **Recovery fidelity** — asserted, not just measured: every resumed
//!   run must report the same deterministic counters as the reference.
//!
//! Usage: `cargo run --release -p bench --bin checkpoint_overhead [-- DATE]`.

use std::path::Path;
use std::time::Instant;
use vadalog::obs::JsonWriter;
use vadalog::{AutosavePolicy, ChaseConfig, ChaseSession, Database, Program};

const THREADS: [usize; 3] = [1, 2, 8];
const RUN_REPS: usize = 5;
const IO_REPS: usize = 11;

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

struct IoStats {
    best_ms: f64,
    mean_ms: f64,
}

fn best_and_mean(samples: &[f64]) -> IoStats {
    let best = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    IoStats {
        best_ms: best,
        mean_ms: mean,
    }
}

struct AutosaveCell {
    threads: usize,
    baseline_best_ms: f64,
    autosave_best_ms: f64,
    ratio: f64,
    autosaves: u64,
    /// Engine-attributed snapshot time of the best autosaving run.
    checkpoint_save_ms: f64,
}

fn autosave_sweep(program: &Program, db: &Database, path: &Path) -> Vec<AutosaveCell> {
    let reference = ChaseSession::new(program)
        .with_threads(1)
        .run(db.clone())
        .expect("chase");
    let fingerprint = reference.report.count_fingerprint();

    let mut cells = Vec::new();
    for threads in THREADS {
        let timed = |autosave: bool| {
            let mut config = ChaseConfig::default().with_threads(threads);
            if autosave {
                config = config.with_autosave(AutosavePolicy::new(path).every_rounds(1));
            }
            let t0 = Instant::now();
            let out = ChaseSession::new(program)
                .with_config(config)
                .run(db.clone())
                .expect("chase");
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                out.report.count_fingerprint(),
                fingerprint,
                "counters diverged at {threads} threads (autosave={autosave})"
            );
            (dt, out.report)
        };
        // Interleave the modes so load drift hits both equally.
        let mut baseline_best = f64::INFINITY;
        let mut autosave_best = f64::INFINITY;
        let mut best_report = None;
        for _ in 0..RUN_REPS {
            let (dt, _) = timed(false);
            baseline_best = baseline_best.min(dt);
            let (dt, report) = timed(true);
            if dt < autosave_best {
                autosave_best = dt;
                best_report = Some(report);
            }
        }
        let best_report = best_report.expect("at least one repetition");
        cells.push(AutosaveCell {
            threads,
            baseline_best_ms: baseline_best,
            autosave_best_ms: autosave_best,
            ratio: if baseline_best > 0.0 {
                autosave_best / baseline_best
            } else {
                1.0
            },
            autosaves: best_report.autosaves,
            checkpoint_save_ms: ns_to_ms(best_report.timings.checkpoint_save_ns),
        });
    }
    cells
}

fn main() {
    let date = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "unreported".into());
    let program = finkg::apps::control::program();
    let db = finkg::random_ownership(400, 3, 7);
    let workload = "company_control over random_ownership(400, 3, 7)";

    let dir = std::env::temp_dir().join("vadalog-checkpoint-bench");
    std::fs::create_dir_all(&dir).expect("bench temp dir");
    let path = dir.join("snapshot.ckpt");

    // Snapshot latency on the finished outcome.
    let session = ChaseSession::new(&program).with_threads(1);
    let outcome = session.run(db.clone()).expect("chase");
    let mut save_ms = Vec::with_capacity(IO_REPS);
    let mut load_ms = Vec::with_capacity(IO_REPS);
    for _ in 0..IO_REPS {
        let t0 = Instant::now();
        session.checkpoint_to(&outcome, &path).expect("save");
        save_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let loaded = session.resume_from_path(&path).expect("load");
        load_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        assert_eq!(loaded.database.len(), outcome.database.len());
    }
    let save = best_and_mean(&save_ms);
    let load = best_and_mean(&load_ms);
    let snapshot_bytes = std::fs::metadata(&path).expect("snapshot size").len();

    // Worst-case autosave policy (every round) vs. no checkpointing.
    let cells = autosave_sweep(&program, &db, &path);

    let mut w = JsonWriter::new();
    w.open_object();
    w.field_str("name", "checkpoint_overhead");
    w.field_str("date", &date);
    w.field_str(
        "description",
        "Durability-layer cost on the company-control workload: latency \
         and size of one snapshot save/load of the finished outcome \
         (best/mean of interleaved repetitions), and wall-clock of a \
         chase autosaving every round against one that never saves, at \
         1/2/8 worker threads. Deterministic counters are asserted \
         identical across all modes before emission. Regenerate with \
         `cargo run --release -p bench --bin checkpoint_overhead -- \
         $(date +%F)`.",
    );
    w.key("environment");
    w.open_object();
    w.field_u64(
        "logical_cores",
        std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
    );
    w.close_object();
    w.field_str("workload", workload);
    w.key("snapshot");
    w.open_object();
    w.field_u64("bytes", snapshot_bytes);
    w.field_u64("facts", outcome.database.len() as u64);
    w.field_u64("derivations", outcome.graph.derivations().len() as u64);
    w.key("save_ms");
    w.open_object();
    w.field_f64("best", save.best_ms);
    w.field_f64("mean", save.mean_ms);
    w.close_object();
    w.key("load_ms");
    w.open_object();
    w.field_f64("best", load.best_ms);
    w.field_f64("mean", load.mean_ms);
    w.close_object();
    w.close_object();
    w.key("autosave_every_round");
    w.open_object();
    for cell in &cells {
        w.key(&cell.threads.to_string());
        w.open_object();
        w.field_f64("baseline_best_ms", cell.baseline_best_ms);
        w.field_f64("autosave_best_ms", cell.autosave_best_ms);
        w.field_f64("overhead_ratio", cell.ratio);
        w.field_u64("autosaves", cell.autosaves);
        w.field_f64("checkpoint_save_ms", cell.checkpoint_save_ms);
        w.close_object();
    }
    w.close_object();
    w.close_object();

    let json = w.finish();
    std::fs::create_dir_all("results").expect("results dir");
    std::fs::write("results/BENCH_checkpoint.json", pretty(&json)).expect("write results");
    println!(
        "snapshot: {} bytes, save best {:.3} ms, load best {:.3} ms",
        snapshot_bytes, save.best_ms, load.best_ms
    );
    for cell in &cells {
        println!(
            "threads {}: autosave x{:.3} ({} saves, {:.3} ms in snapshots)",
            cell.threads, cell.ratio, cell.autosaves, cell.checkpoint_save_ms
        );
    }
    println!("wrote results/BENCH_checkpoint.json");
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
