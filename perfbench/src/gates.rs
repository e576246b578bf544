//! Correctness gates: a run whose outputs fail any of these is not a
//! measurement.

use explain::Explanation;
use std::collections::HashMap;
use vadalog::obs::json::{self, JsonValue};
use vadalog::obs::JsonWriter;
use vadalog::{ChaseOutcome, Fact, Symbol};

/// The derived facts of `goal`, in fact-id order: the facts a business
/// report must explain, one each.
pub fn derived_goals(outcome: &ChaseOutcome, goal: &str) -> Vec<Fact> {
    outcome
        .database
        .facts_of(Symbol::new(goal))
        .iter()
        .filter(|&&id| outcome.graph.is_derived(id))
        .map(|&id| outcome.database.fact(id).clone())
        .collect()
}

/// A report holds exactly one non-empty explanation per derived goal
/// fact, in order.
pub fn check_report(expected: &[Fact], report: &[Explanation]) -> Result<(), String> {
    if report.len() != expected.len() {
        return Err(format!(
            "report holds {} explanations for {} derived goal facts",
            report.len(),
            expected.len()
        ));
    }
    for (fact, e) in expected.iter().zip(report) {
        if &e.fact != fact {
            return Err(format!("report explains {} where {fact} was due", e.fact));
        }
        if e.text.trim().is_empty() {
            return Err(format!("empty explanation of {fact}"));
        }
    }
    Ok(())
}

/// What the in-process explainer answers for one goal.
#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    pub text: String,
    pub paths: Vec<String>,
    pub chase_steps: u64,
}

impl From<&Explanation> for Expected {
    fn from(e: &Explanation) -> Expected {
        Expected {
            text: e.text.clone(),
            paths: e.paths.clone(),
            chase_steps: e.chase_steps as u64,
        }
    }
}

/// How the goals of one `/explain` answer fared.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnswerTally {
    pub answered: u64,
    pub goal_errors: u64,
    pub deadline_trips: u64,
}

/// The `/explain` body the server renders when it answers every goal of
/// `goals` from `version` with `answers`.
pub fn expected_body(version: u64, goals: &[Fact], answers: &[Expected]) -> String {
    let mut w = JsonWriter::new();
    w.open_object();
    w.field_u64("snapshot_version", version);
    w.key("answers");
    w.open_array();
    for (goal, answer) in goals.iter().zip(answers) {
        w.open_object();
        w.field_str("goal", &goal.to_string());
        w.field_str("text", &answer.text);
        w.field_u64("chase_steps", answer.chase_steps);
        w.key("paths");
        w.open_array();
        for path in &answer.paths {
            w.value_str(path);
        }
        w.close_array();
        w.close_object();
    }
    w.close_array();
    w.close_object();
    w.finish()
}

/// Checks a `200` `/explain` body: it was served from `version`, answers
/// `goals` in order, and every answered text, path list and step count
/// is byte-identical to `expected(goal)`. Per-goal errors are tallied,
/// not failed: they are failed operations, not wrong answers.
pub fn check_answer(
    body: &str,
    version: u64,
    goals: &[Fact],
    mut expected: impl FnMut(&Fact) -> Result<Expected, String>,
) -> Result<AnswerTally, String> {
    // Fast path: the whole body equals the one the in-process answers
    // render to. Only a differing body is parsed, to tell per-goal
    // errors from wrong answers.
    let answers: Result<Vec<Expected>, String> = goals.iter().map(&mut expected).collect();
    if let Ok(answers) = answers {
        if body == expected_body(version, goals, &answers) {
            return Ok(AnswerTally {
                answered: goals.len() as u64,
                ..AnswerTally::default()
            });
        }
    }
    let doc = json::parse(body).map_err(|e| format!("unparseable answer: {e:?}"))?;
    let served = doc.get("snapshot_version").and_then(JsonValue::as_u64);
    if served != Some(version) {
        return Err(format!(
            "answer served from version {served:?}, expected {version}"
        ));
    }
    let answers = doc
        .get("answers")
        .and_then(JsonValue::as_arr)
        .ok_or("answer has no answers array")?;
    if answers.len() != goals.len() {
        return Err(format!(
            "{} answers for {} goals",
            answers.len(),
            goals.len()
        ));
    }
    let mut tally = AnswerTally::default();
    for (goal, answer) in goals.iter().zip(answers) {
        let rendered = goal.to_string();
        if answer.get("goal").and_then(JsonValue::as_str) != Some(rendered.as_str()) {
            return Err(format!("answer out of order at {rendered}"));
        }
        if let Some(error) = answer.get("error").and_then(JsonValue::as_str) {
            if error.contains("deadline") || error.contains("exhausted") {
                tally.deadline_trips += 1;
            } else {
                tally.goal_errors += 1;
            }
            continue;
        }
        let want = expected(goal)?;
        let got = Expected {
            text: answer
                .get("text")
                .and_then(JsonValue::as_str)
                .unwrap_or_default()
                .to_owned(),
            paths: answer
                .get("paths")
                .and_then(JsonValue::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(|p| p.as_str().map(str::to_owned))
                .collect(),
            chase_steps: answer
                .get("chase_steps")
                .and_then(JsonValue::as_u64)
                .unwrap_or(u64::MAX),
        };
        if got != want {
            return Err(format!(
                "answer for {rendered} differs from the in-process explainer: {got:?} vs {want:?}"
            ));
        }
        tally.answered += 1;
    }
    Ok(tally)
}

/// A maintained outcome equals a from-scratch chase of the same EDB:
/// the same facts under the same ids with the same activity and
/// extensional marks, and the same derivations field by field.
pub fn check_maintained(maintained: &ChaseOutcome, scratch: &ChaseOutcome) -> Result<(), String> {
    let (m, s) = (&maintained.database, &scratch.database);
    if m.len() != s.len() {
        return Err(format!(
            "maintained store holds {} facts, from-scratch {}",
            m.len(),
            s.len()
        ));
    }
    for ((mid, mf), (sid, sf)) in m.iter().zip(s.iter()) {
        let marks = |o: &ChaseOutcome, id| (o.database.is_active(id), o.graph.is_extensional(id));
        if mid != sid || mf != sf || marks(maintained, mid) != marks(scratch, sid) {
            return Err(format!("fact {mid:?} {mf} differs from {sid:?} {sf}"));
        }
    }
    let (md, sd) = (maintained.graph.derivations(), scratch.graph.derivations());
    if md.len() != sd.len() {
        return Err(format!(
            "{} maintained derivations, {} from scratch",
            md.len(),
            sd.len()
        ));
    }
    for (i, (a, b)) in md.iter().zip(sd).enumerate() {
        let same = a.rule == b.rule
            && a.premises == b.premises
            && a.conclusion == b.conclusion
            && a.round == b.round
            && a.contributors == b.contributors
            && a.bindings == b.bindings
            && a.contributor_bindings == b.contributor_bindings;
        if !same {
            return Err(format!("derivation {i} differs: {a:?} vs {b:?}"));
        }
    }
    if maintained.violations != scratch.violations {
        return Err("constraint violations differ".to_owned());
    }
    Ok(())
}

/// A timed chase repeats the set-up chase's counts.
pub fn check_fingerprint(expected: &str, got: &str) -> Result<(), String> {
    if expected == got {
        return Ok(());
    }
    let diff = expected
        .lines()
        .zip(got.lines())
        .find(|(a, b)| a != b)
        .map_or_else(
            || "line counts differ".to_owned(),
            |(a, b)| format!("{a} vs {b}"),
        );
    Err(format!("chase counts moved: {diff}"))
}

/// Memoized in-process answers for one snapshot version.
pub struct ExpectedCache {
    version: u64,
    answers: HashMap<Fact, Expected>,
}

impl ExpectedCache {
    pub fn new() -> ExpectedCache {
        ExpectedCache {
            version: 0,
            answers: HashMap::new(),
        }
    }

    pub fn get(
        &mut self,
        version: u64,
        goal: &Fact,
        explainer: &explain::Explainer,
    ) -> Result<Expected, String> {
        if version != self.version {
            self.version = version;
            self.answers.clear();
        }
        if let Some(hit) = self.answers.get(goal) {
            return Ok(hit.clone());
        }
        let e = explainer
            .explain(goal)
            .map_err(|e| format!("in-process explanation of {goal} failed: {e}"))?;
        let expected = Expected::from(&e);
        self.answers.insert(goal.clone(), expected.clone());
        Ok(expected)
    }
}
