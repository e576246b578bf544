//! The repository benchmark: closed-loop workloads over the chase, the
//! explanation pipeline and the serving layer, driven only through the
//! public functions of `vadalog`, `explain`, `finkg` and `serve`.
//!
//! ```text
//! perfbench --workload control_batch|sanctions_live|serve_deep
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`,
//! with the end-to-end metrics when `--trace 0` and the per-layer
//! metrics when `--trace 1`. The line before it is a header naming the
//! host, the revision and the sample counts. A traced run also writes a
//! Chrome trace (Perfetto-loadable) to `.bench_out/`. Any failed
//! correctness gate or operation exits with status 1.

mod client;
mod gates;
mod gen;
mod host;
mod run;
mod stats;
mod trace;

#[cfg(test)]
mod tests;

use run::{Config, Workload};
use vadalog::obs::JsonWriter;

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload control_batch|sanctions_live|serve_deep \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Config {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Workload::parse(&value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Config {
            workload,
            seed,
            seconds,
            trace,
            tiny: false,
        },
        _ => usage(),
    }
}

fn main() {
    let config = parse_args();
    let outcome = match run::run(&config) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", config.workload.name());
            std::process::exit(1);
        }
    };
    let name = config.workload.name();
    for e in &outcome.gate_errors {
        eprintln!("perfbench: {name}: gate failed: {e}");
    }
    if config.trace {
        let dir = std::path::Path::new(".bench_out");
        let path = dir.join(format!("trace-{name}-{}.json", config.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, outcome.tracer.to_chrome()))
        {
            Ok(()) => eprintln!("perfbench: trace written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        eprintln!("perfbench: self time by span (ms):");
        for (span, self_ms) in outcome.tracer.self_times_ms() {
            eprintln!("  {span:<22} {self_ms:>12.3}");
        }
    }

    let failed = outcome.failures.total();
    let correct = outcome.gate_errors.is_empty() && failed == 0;
    println!("{}", header(&config, &outcome));
    let mut w = JsonWriter::new();
    w.open_object();
    w.key("correct");
    w.raw(if correct { "true" } else { "false" });
    w.field_u64("attempted", outcome.attempted);
    w.field_u64("failed", failed);
    w.key("metrics");
    w.raw(&outcome.metrics.to_json());
    w.close_object();
    println!("{}", w.finish());
    if !correct {
        std::process::exit(1);
    }
}

/// The result header: what ran where, how often, and what failed.
fn header(config: &Config, outcome: &run::Outcome) -> String {
    let f = &outcome.failures;
    let mut w = JsonWriter::new();
    w.open_object();
    w.key("header");
    w.open_object();
    w.field_str("workload", config.workload.name());
    w.field_u64("seed", config.seed);
    w.field_u64("logical_cores", host::logical_cores() as u64);
    w.field_str("git_revision", &host::git_revision());
    w.field_str("build_profile", host::build_profile());
    w.key("host.ref_ms");
    w.raw(&format!("{}", outcome.ref_ms));
    w.field_f64("host.ref_nominal_ms", host::REF_NOMINAL_MS);
    if !config.trace {
        // The end-to-end figures as measured, before scaling to the
        // nominal host speed.
        w.key("unscaled");
        w.raw(&outcome.raw.to_json());
        w.key("ungated");
        w.raw(&outcome.ungated.to_json());
    }
    w.key("samples");
    w.open_object();
    for (name, n) in &outcome.samples {
        w.field_u64(name, *n as u64);
    }
    w.close_object();
    w.key("failures");
    w.open_object();
    w.field_u64("non_200", f.non_200);
    w.field_u64("shed_503", f.shed_503);
    w.field_u64("goal_error", f.goal_error);
    w.field_u64("deadline_trip", f.deadline_trip);
    w.field_u64("connect_error", f.connect_error);
    w.close_object();
    w.field_u64("gate_errors", outcome.gate_errors.len() as u64);
    w.close_object();
    w.close_object();
    w.finish()
}
