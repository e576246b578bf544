//! The benchmark's own tests: every gate catches an injected fault,
//! counts repeat exactly at a fixed seed, the generators keep the chase
//! size steady across seeds, and a tiny run of every workload is clean.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use crate::client;
use crate::gates::{self, ExpectedCache};
use crate::gen::{self, ChainInput, ChainSize, ControlInput, ControlSize, SanctionsInput};
use crate::gen::{SanctionsSize, Stream};
use crate::run::{self, Config, Workload};
use crate::stats::Samples;
use crate::trace::Tracer;
use explain::{Explainer, TemplateFlavor};
use std::sync::Arc;
use vadalog::{ChaseSession, DerivationPolicy};

fn tiny(workload: Workload, seed: u64, trace: bool) -> Config {
    Config {
        workload,
        seed,
        seconds: 0.05,
        trace,
        tiny: true,
    }
}

#[test]
fn a_tiny_run_of_every_workload_is_clean() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let out = run::run(&tiny(workload, 11, trace)).expect("tiny run");
            assert!(
                out.gate_errors.is_empty(),
                "{workload:?}: {:?}",
                out.gate_errors
            );
            assert_eq!(out.failures.total(), 0, "{workload:?}: {:?}", out.failures);
            assert!(out.attempted > 0);
            for name in out.metrics.names() {
                let value = out.metrics.get(name).expect("listed metric");
                assert!(value.is_finite(), "{workload:?} {name} = {value}");
            }
        }
    }
}

#[test]
fn count_metrics_repeat_exactly_at_a_fixed_seed() {
    const COUNTS: [&str; 13] = [
        "parser.facts",
        "artifacts.paths",
        "engine.rounds",
        "engine.matches_enumerated",
        "engine.facts_committed",
        "engine.duplicates_preempted",
        "engine.negation_probes",
        "delta.facts_added",
        "delta.facts_removed",
        "delta.facts_rederived",
        "proof.tree_nodes",
        "proof.distinct_facts",
        "mapping.pieces",
    ];
    for workload in Workload::ALL {
        let a = run::run(&tiny(workload, 5, true)).expect("first run");
        let b = run::run(&tiny(workload, 5, true)).expect("second run");
        for name in COUNTS {
            assert_eq!(
                a.metrics.get(name),
                b.metrics.get(name),
                "{workload:?}: {name} moved between runs"
            );
            assert!(a.metrics.get(name).is_some(), "{name} missing");
        }
    }
}

#[test]
fn the_report_gate_catches_a_truncated_report() {
    let input = ControlInput::new(3, ControlSize::TINY);
    let program = finkg::apps::control::program();
    let out = ChaseSession::new(&program)
        .run(gen::database(input.edb()))
        .unwrap();
    let artifacts = explain::ProgramArtifacts::builder(program, "control")
        .build()
        .unwrap();
    let mut report = artifacts
        .report(&out, TemplateFlavor::Enhanced, DerivationPolicy::Richest)
        .unwrap();
    let goals = gates::derived_goals(&out, "control");
    assert_eq!(gates::check_report(&goals, &report), Ok(()));
    let mut emptied = report.clone();
    emptied[0].text.clear();
    assert!(gates::check_report(&goals, &emptied).is_err());
    report.pop();
    assert!(gates::check_report(&goals, &report).is_err());
}

#[test]
fn the_answer_gate_catches_a_tampered_answer() {
    let config = tiny(Workload::SanctionsLive, 3, false);
    let spec = run::spec(&config);
    let mut ready = run::set_up(&spec, "test", &mut Tracer::new()).expect("set-up");
    let goals: Vec<_> = gates::derived_goals(&ready.outcome, spec.goal)
        .into_iter()
        .take(3)
        .collect();
    assert!(!goals.is_empty());
    let body: String = goals.iter().map(|g| format!("{g}.\n")).collect();
    let response = client::post_explain(ready.server.addr(), &body).expect("request");
    assert_eq!(response.status, 200);
    let explainer =
        Explainer::for_snapshot(Arc::clone(&ready.artifacts), Arc::clone(&ready.outcome));
    let mut cache = ExpectedCache::new();
    let mut check = |body: &str, version| {
        gates::check_answer(body, version, &goals, |g| cache.get(version, g, &explainer))
    };
    let tally = check(&response.body, 1).expect("the genuine answer passes");
    assert_eq!(tally.answered, goals.len() as u64);
    let tampered = response.body.replacen("exposed", "exposd", 1);
    assert_ne!(tampered, response.body, "the answer mentions exposure");
    assert!(check(&tampered, 1).is_err(), "a tampered text fails");
    assert!(check(&response.body, 2).is_err(), "a wrong version fails");
    ready.server.stop();
}

#[test]
fn the_maintenance_gate_catches_a_missed_delta() {
    let program = finkg::apps::sanctions::program();
    let mut input = SanctionsInput::new(9, SanctionsSize::TINY);
    let initial = ChaseSession::new(&program)
        .run(gen::database(input.edb()))
        .unwrap();
    let mut faithful = ChaseSession::new(&program).with_threads(1);
    let mut lossy = ChaseSession::new(&program).with_threads(1);
    faithful.load(initial.clone());
    lossy.load(initial);
    for i in 0..6 {
        let delta = input.next_delta();
        faithful.apply_delta(delta.clone()).unwrap();
        // Later deltas may retract what an earlier one added, so the
        // lossy store misses the last one.
        if i != 5 {
            lossy.apply_delta(delta).unwrap();
        }
    }
    let scratch = ChaseSession::new(&program)
        .with_threads(1)
        .run(gen::database(input.edb()))
        .unwrap();
    assert_eq!(
        gates::check_maintained(faithful.live().unwrap(), &scratch),
        Ok(())
    );
    assert!(gates::check_maintained(lossy.live().unwrap(), &scratch).is_err());
}

#[test]
fn the_fingerprint_gate_catches_a_different_chase() {
    let program = finkg::apps::control::program();
    let mut input = ControlInput::new(4, ControlSize::TINY);
    let chase = |facts: &[vadalog::Fact]| {
        ChaseSession::new(&program)
            .with_threads(1)
            .run(gen::database(facts))
            .unwrap()
            .report
            .count_fingerprint()
    };
    let before = chase(input.edb());
    assert_eq!(
        gates::check_fingerprint(&before, &chase(input.edb())),
        Ok(())
    );
    input.next_delta();
    assert!(gates::check_fingerprint(&before, &chase(input.edb())).is_err());
}

/// Over several seeds, the derived facts and the matches a chase
/// enumerates stay within a few percent: the seed changes the wiring,
/// not the size of the work.
#[test]
fn chase_work_is_steady_across_seeds() {
    let spread = |values: &[f64]| {
        let max = values.iter().copied().fold(f64::MIN, f64::max);
        let min = values.iter().copied().fold(f64::MAX, f64::min);
        (max - min) / min
    };
    type Edb = Box<dyn Fn(u64) -> Vec<vadalog::Fact>>;
    let inputs: [(&str, vadalog::Program, Edb); 3] = [
        (
            "control",
            finkg::apps::control::program(),
            Box::new(|s| ControlInput::new(s, ControlSize::FULL).edb().to_vec()),
        ),
        (
            "sanctions",
            finkg::apps::sanctions::program(),
            Box::new(|s| SanctionsInput::new(s, SanctionsSize::FULL).edb().to_vec()),
        ),
        (
            "chains",
            finkg::apps::control::program(),
            Box::new(|s| ChainInput::new(s, ChainSize::FULL).edb().to_vec()),
        ),
    ];
    for (name, program, edb) in inputs {
        let (mut derived, mut matches) = (Vec::new(), Vec::new());
        for seed in 1..=5 {
            let out = ChaseSession::new(&program)
                .with_threads(1)
                .run(gen::database(&edb(seed)))
                .unwrap();
            derived.push(out.derived_facts as f64);
            matches.push(out.report.total_matches() as f64);
        }
        assert!(spread(&derived) < 0.1, "{name}: derived facts {derived:?}");
        assert!(spread(&matches) < 0.1, "{name}: matches {matches:?}");
    }
}

#[test]
fn a_burst_of_stalls_moves_one_p99_block_not_the_run() {
    let mut steady = Samples::default();
    let mut burst = Samples::default();
    for i in 0..3000 {
        let base = 1.0 + (i % 100) as f64 / 100.0;
        steady.push(base);
        // 6% of the second block stalls: its own p99 jumps.
        burst.push(if (1000..1060).contains(&i) {
            50.0
        } else {
            base
        });
    }
    assert_eq!(run::blocked_p99(&steady), run::blocked_p99(&burst));
    assert!(burst.quantile(0.99) > 10.0, "the plain p99 would move");
}
