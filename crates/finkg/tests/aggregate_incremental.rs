//! Incremental monotonic aggregation against its naive reference.
//!
//! Under semi-naive evaluation (the default) an aggregate rule keeps its
//! per-group contributor state across rounds, merges only the delta
//! matches of each round, drops contributors over superseded facts, and
//! fires only the groups that changed. With `with_semi_naive(false)` every
//! evaluation re-matches the rule in full and regroups and refires every
//! group. The two must agree *bitwise*: the same facts in the same id
//! order with the same activity, and every derivation field — premises
//! (order included), round, contributor count, bindings and
//! per-contributor bindings — at 1, 2 and 8 worker threads, for every
//! aggregate application, and across interruption and resume at every
//! round boundary.

use finkg::apps::{control, golden_power, simple_stress, stress};
use finkg::scenario;
use std::path::PathBuf;
use vadalog::prelude::*;

/// Bindings rendered in variable-name order (the map itself is unordered).
fn bindings(b: &Bindings) -> String {
    let mut entries: Vec<String> = b.iter().map(|(k, v)| format!("{k}={v:?}")).collect();
    entries.sort();
    entries.join(",")
}

/// Every fact in id order with its activity flag, every derivation field
/// in recording order, the round count and the violations.
fn fingerprint(out: &ChaseOutcome) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    for (id, fact) in out.database.iter() {
        let _ = writeln!(s, "{id} {fact} active={}", out.database.is_active(id));
    }
    for d in out.graph.derivations() {
        let contributors: Vec<String> = d.contributor_bindings.iter().map(bindings).collect();
        let _ = writeln!(
            s,
            "r{} {:?} -> {} round={} contrib={} bindings={{{}}} contributors=[{}]",
            d.rule.0,
            d.premises,
            d.conclusion,
            d.round,
            d.contributors,
            bindings(&d.bindings),
            contributors.join(" | "),
        );
    }
    let _ = write!(s, "rounds={} violations={:?}", out.rounds, out.violations);
    s
}

/// A random golden-power input: an acyclic ownership network with every
/// fifth company foreign and every third strategic.
fn golden_power_random(n: usize, seed: u64) -> Database {
    let mut db = finkg::random_ownership(n, 3, seed);
    for i in (0..n).step_by(5) {
        db.add("foreign", &[format!("C{i}").as_str().into()]);
    }
    for i in (1..n).step_by(3) {
        db.add("strategic", &[format!("C{i}").as_str().into()]);
    }
    db
}

/// Foreign X holds 6% of strategic Y through A, controlled from round 1,
/// and another 6% through D, controlled from round 3.
fn golden_power_chain() -> Database {
    let mut db = Database::new();
    db.add("foreign", &["X".into()]);
    db.add("strategic", &["Y".into()]);
    for (owner, owned) in [("X", "A"), ("A", "B"), ("B", "C"), ("C", "D")] {
        db.add("own", &[owner.into(), owned.into(), 0.6.into()]);
    }
    db.add("own", &["A".into(), "Y".into(), 0.06.into()]);
    db.add("own", &["D".into(), "Y".into(), 0.06.into()]);
    db
}

/// Every aggregate application of the crate, on hand-built and seeded
/// inputs.
fn cases() -> Vec<(&'static str, Program, Database)> {
    vec![
        ("control/scenario", control::program(), scenario::database()),
        (
            "control/random",
            control::program(),
            finkg::random_ownership(80, 3, 7),
        ),
        (
            "control/aggregated_bundle",
            control::program(),
            finkg::generator::control_bundle_aggregated(4, 6, 42).database,
        ),
        (
            "golden_power/random",
            golden_power::program(),
            golden_power_random(60, 5),
        ),
        (
            "golden_power/chain",
            golden_power::program(),
            golden_power_chain(),
        ),
        ("stress/scenario", stress::program(), scenario::database()),
        (
            "stress/random",
            stress::program(),
            finkg::random_debt_network(80, 3, 5, 11),
        ),
        (
            "stress/dense",
            stress::program(),
            finkg::random_debt_network(60, 5, 10, 1),
        ),
        (
            "stress/bundle",
            stress::program(),
            finkg::generator::stress_bundle(4, 6, 43).database,
        ),
        (
            "simple_stress/figure8",
            simple_stress::program(),
            simple_stress::figure_8_database(),
        ),
    ]
}

fn naive(program: &Program, db: &Database) -> ChaseOutcome {
    ChaseSession::new(program)
        .with_config(
            ChaseConfig::default()
                .with_positional_index(true)
                .with_semi_naive(false)
                .with_threads(1),
        )
        .run(db.clone())
        .expect("naive chase")
}

fn semi_naive(program: &Program, db: &Database, threads: usize) -> ChaseOutcome {
    ChaseSession::new(program)
        .with_config(
            ChaseConfig::default()
                .with_positional_index(true)
                .with_threads(threads),
        )
        .run(db.clone())
        .expect("semi-naive chase")
}

/// σ7 sums `risk` facts that σ5/σ6 supersede as defaults spread, so on
/// the stress inputs the incremental path must also drop superseded
/// contributors from σ7's groups exactly where the naive regrouping no
/// longer sees them; at least one input must actually supersede.
#[test]
fn semi_naive_aggregation_equals_the_naive_reference() {
    let mut superseded = 0;
    for (name, program, db) in cases() {
        let reference = naive(&program, &db);
        superseded += reference.database.inactive_count();
        let expected = fingerprint(&reference);
        for threads in [1usize, 2, 8] {
            assert_eq!(
                fingerprint(&semi_naive(&program, &db, threads)),
                expected,
                "{name}: diverged from the naive reference at {threads} threads"
            );
        }
    }
    assert!(superseded > 0, "no input superseded an aggregate fact");
}

/// The index-free ablation re-matches every rule in full at its turn, so
/// an aggregate rule that the snapshot phase skips still folds over all
/// of its contributors there. The indexed paths must agree with it on
/// golden power, whose σ5 is such a rule in some rounds.
#[test]
fn golden_power_agrees_with_the_scan_ablation() {
    let program = golden_power::program();
    for db in [golden_power_random(60, 5), golden_power_chain()] {
        let scan = ChaseSession::new(&program)
            .with_config(
                ChaseConfig::default()
                    .with_positional_index(false)
                    .with_threads(1),
            )
            .run(db.clone())
            .expect("scan chase");
        let expected = fingerprint(&scan);
        assert_eq!(fingerprint(&naive(&program, &db)), expected, "naive");
        assert_eq!(
            fingerprint(&semi_naive(&program, &db, 1)),
            expected,
            "semi-naive"
        );
    }
}

/// X reaches Y's stakes through A (controlled in round 1) and through D
/// (controlled only in round 3, at the end of a majority chain). σ5 fires
/// nothing in rounds 1 and 2 (6% is below the 10% threshold), so in round
/// 3 the snapshot phase skips it and only the commit-phase top-up sees the
/// new `control(X, D)`. Folding over that top-up alone would also miss the
/// threshold; the group must fold over both stakes and notify 12%.
#[test]
fn golden_power_sums_stakes_reached_in_different_rounds() {
    let out = semi_naive(&golden_power::program(), &golden_power_chain(), 1);
    let notified: Vec<String> = out
        .facts_of("golden_power")
        .iter()
        .map(|(_, f)| f.to_string())
        .collect();
    assert_eq!(notified, ["golden_power(\"X\",\"Y\",0.12)"]);
}

/// The incremental path enumerates each aggregate match about once,
/// instead of once per round.
#[test]
fn incremental_aggregation_enumerates_fewer_matches() {
    let program = control::program();
    let db = finkg::random_ownership(80, 3, 7);
    let o3 = |out: &ChaseOutcome| {
        out.report
            .rules
            .iter()
            .find(|r| r.label == "o3")
            .expect("rule o3")
            .matches_enumerated
    };
    let full = o3(&naive(&program, &db));
    let delta = o3(&semi_naive(&program, &db, 1));
    assert!(delta < full, "semi-naive {delta} vs naive {full}");
}

fn checkpoint_path(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("aggregate_incremental");
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{name}-{}.ckpt", std::process::id()))
}

/// A chase stopped at every round boundary and resumed — in memory, and
/// through a checkpoint file — rebuilds the aggregate group state and
/// lands on the uninterrupted run's state, at 1 and 8 threads.
#[test]
fn resume_at_every_round_boundary_rebuilds_group_state() {
    let resumable = [
        (
            "control",
            control::program(),
            finkg::random_ownership(60, 3, 7),
        ),
        (
            "stress",
            stress::program(),
            finkg::random_debt_network(60, 5, 10, 1),
        ),
        (
            "golden_power",
            golden_power::program(),
            golden_power_random(40, 5),
        ),
    ];
    for (name, program, db) in resumable {
        let reference = semi_naive(&program, &db, 1);
        let expected = fingerprint(&reference);
        assert_eq!(expected, fingerprint(&naive(&program, &db)), "{name}");
        let path = checkpoint_path(name);
        for threads in [1usize, 8] {
            for boundary in 1..reference.rounds as u64 {
                let session = ChaseSession::new(&program)
                    .with_config(
                        ChaseConfig::default()
                            .with_positional_index(true)
                            .with_threads(threads),
                    )
                    .with_guard(RunGuard::new().with_max_rounds(boundary));
                let partial = match session.run(db.clone()) {
                    Err(ChaseError::ResourceExhausted { partial, .. }) => *partial,
                    other => panic!("{name}: no trip at round {boundary}: {other:?}"),
                };
                let resumer = session.clone().with_guard(RunGuard::new());
                resumer.checkpoint_to(&partial, &path).expect("checkpoint");
                let in_memory = resumer
                    .resume(partial, Vec::<Fact>::new())
                    .expect("resume in memory");
                assert_eq!(
                    fingerprint(&in_memory),
                    expected,
                    "{name}: in-memory resume after round {boundary} at {threads} threads"
                );
                let from_disk = resumer.resume_from_path(&path).expect("resume from disk");
                assert_eq!(
                    fingerprint(&from_disk),
                    expected,
                    "{name}: checkpoint resume after round {boundary} at {threads} threads"
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }
}
