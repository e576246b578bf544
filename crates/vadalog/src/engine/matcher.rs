//! Body matching: enumerating homomorphisms from rule bodies into the
//! database, through the one entry point [`match_rule`].
//!
//! Joins are driven by a static, per-rule [`JoinPlan`]. For every
//! semi-naive pivot the plan records a pivot-first evaluation order and,
//! per step, the probe signature: the argument positions bound by
//! constants or by earlier atoms of that order. It also records the
//! signatures of the negated atoms and of the head-satisfaction check.
//! The engine builds every planned composite index before any matching
//! starts, so a candidate lookup probes *all* statically-bound positions
//! at once via [`Database::probe_composite`].
//!
//! Matching is *read-only*: probes fall back to predicate scans when an
//! index was never built (same ids, same order, just slower), so matching
//! runs safely from many threads over a shared `&Database` snapshot.
//!
//! A [`MatchChunk`] scopes one call: the full body, or one pivot
//! restricted to facts at or above a watermark, and one slice of the
//! outermost join loop. The chunks of one scope, concatenated in chunk
//! order, reproduce its unchunked enumeration exactly. This is what makes
//! the parallel chase phase deterministic: enumeration order is a property
//! of the plan and the chunk list, never of thread scheduling.

use crate::atom::Atom;
use crate::database::{Database, FactId};
use crate::error::EvalError;
use crate::expr::Bindings;
use crate::rule::Rule;
use crate::symbol::Symbol;
use crate::term::Term;
use crate::value::Value;
use std::collections::HashSet;

/// A homomorphism from a rule body into the database: the variable
/// bindings plus the matched premise facts (one per positive body atom, in
/// body order).
#[derive(Clone, Debug)]
pub struct BodyMatch {
    /// The substitution θ.
    pub bindings: Bindings,
    /// Matched facts, aligned with the rule's positive body atoms.
    pub premises: Vec<FactId>,
}

/// Index-vs-scan counters of one matching call, accumulated into the
/// per-rule [`RuleStats`](crate::telemetry::RuleStats) by the engine.
///
/// **Thread invariance:** for chunked work the outermost candidate lookup
/// happens once per chunk, but it is *counted* only by chunk 0 — so the
/// counters are identical no matter how many chunks (threads) the work
/// was split into. Inner-depth lookups run once per outer candidate and
/// sum invariantly by construction.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct MatchMetrics {
    /// Candidate lookups served by a positional index probe.
    pub index_probes: u64,
    /// Candidate lookups served by a predicate scan (index disabled or
    /// never built).
    pub scans: u64,
    /// Subset of `index_probes` whose signature bound two or more
    /// positions at once (a genuinely composite probe).
    pub composite_probes: u64,
    /// Negated-atom checks served by an index probe. Counted once per
    /// complete positive match (in `finish_match`), so invariant across
    /// chunk counts by construction.
    pub negation_probes: u64,
    /// Negated-atom checks served by a full predicate scan.
    pub negation_scans: u64,
}

impl MatchMetrics {
    /// Adds `other`'s counts into `self`.
    pub fn merge(&mut self, other: &MatchMetrics) {
        self.index_probes += other.index_probes;
        self.scans += other.scans;
        self.composite_probes += other.composite_probes;
        self.negation_probes += other.negation_probes;
        self.negation_scans += other.negation_scans;
    }
}

/// The scope of one [`match_rule`] call.
///
/// `part`/`parts` slice the outermost candidate loop of the join: chunk
/// `(i, n)` enumerates the `i`-th of `n` contiguous slices of the first
/// evaluated atom's candidate list. Concatenating the results of chunks
/// `(0, n) .. (n-1, n)` yields exactly the unchunked enumeration, for any
/// `n` — the parallel chase phase relies on this invariance.
#[derive(Clone, Copy, Debug)]
pub struct MatchChunk {
    /// Delta restriction: `Some((pivot, watermark))` restricts the
    /// `pivot`-th positive body atom to facts with id >= `watermark` and
    /// evaluates it first (one pivot per semi-naive expansion step);
    /// `None` matches the full body in body order.
    pub pivot: Option<(usize, u32)>,
    /// Zero-based index of this slice of the outermost candidate loop.
    pub part: usize,
    /// Total number of slices the outermost loop is split into.
    pub parts: usize,
    /// Probe positional indexes on bound arguments (fall back to scans
    /// when disabled or when an index is missing).
    pub use_index: bool,
}

impl MatchChunk {
    /// The full, unchunked match of a rule body.
    pub fn full(use_index: bool) -> MatchChunk {
        MatchChunk {
            pivot: None,
            part: 0,
            parts: 1,
            use_index,
        }
    }

    /// An unchunked, indexed delta expansion for one pivot.
    pub fn delta(pivot: usize, watermark: u32) -> MatchChunk {
        MatchChunk {
            pivot: Some((pivot, watermark)),
            part: 0,
            parts: 1,
            use_index: true,
        }
    }
}

/// The static join plan of one rule: a probe signature for every step of
/// every evaluation order, for every negated atom, and for the
/// head-satisfaction check.
///
/// Every candidate binds all of its atom's variables, so the bound
/// argument positions of each step of an evaluation order are a static
/// property of the rule; `candidates_for` probes the matching composite
/// index with all of them bound at once. Negated atoms are checked once
/// per complete positive match, when the body variables and assignment
/// results are all bound — their signature is every position holding a
/// constant or such a variable. The head signature covers the restricted
/// chase's satisfaction check for existentially-quantified heads: every
/// position holding a constant or a non-existential variable.
///
/// The plan determines which indexes exist, never which facts match:
/// probes and scans yield identical candidate lists (insertion order), so
/// the matches of a scope are a property of the rule and the database —
/// not of the plan, and never of thread scheduling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinPlan {
    /// Per positive body atom `p`: the pivot-first evaluation order —
    /// atom `p`, then the other positive atoms in body order — as
    /// `(body index, probe signature)` steps. Signatures are ascending;
    /// empty means no bound position (a scan). Order 0 is the body order,
    /// which the full scope joins in.
    pub orders: Vec<Vec<(usize, Vec<usize>)>>,
    /// Per negated body atom, in body order: the positions bound by the
    /// rule's positive body and assignments.
    pub negated: Vec<Vec<usize>>,
    /// Probe signature of the head-satisfaction check, for rules with an
    /// existentially-quantified head; `None` when the rule has no
    /// existentials or no position is statically bound.
    pub head: Option<Vec<usize>>,
    /// The rule's existentially-quantified head variables
    /// ([`Rule::existential_variables`]), computed once for the chase's
    /// firing and satisfaction check.
    pub existentials: Vec<Symbol>,
}

impl JoinPlan {
    /// The plan of `rule`.
    pub fn for_rule(rule: &Rule) -> JoinPlan {
        let atoms: Vec<&Atom> = rule.positive_body().collect();
        let orders = (0..atoms.len())
            .map(|pivot| {
                let mut bound: HashSet<Symbol> = HashSet::new();
                std::iter::once(pivot)
                    .chain((0..atoms.len()).filter(|&i| i != pivot))
                    .map(|i| {
                        let sig = bound_positions(atoms[i], &bound);
                        bound.extend(atoms[i].variables());
                        (i, sig)
                    })
                    .collect()
            })
            .collect();
        // Negation runs after the assignments of a complete match.
        let mut bound: HashSet<Symbol> = atoms.iter().flat_map(|a| a.variables()).collect();
        bound.extend(rule.assignments.iter().map(|a| a.var));
        let negated = rule
            .negated_body()
            .map(|atom| bound_positions(atom, &bound))
            .collect();
        let existentials = rule.existential_variables();
        let head = match (&rule.head, &existentials) {
            (crate::rule::Head::Atom(h), ex) if !ex.is_empty() => {
                let sig: Vec<usize> = h
                    .terms
                    .iter()
                    .enumerate()
                    .filter(|(_, t)| match t {
                        Term::Const(_) => true,
                        Term::Var(v) => !ex.contains(v),
                    })
                    .map(|(i, _)| i)
                    .collect();
                (!sig.is_empty()).then_some(sig)
            }
            _ => None,
        };
        JoinPlan {
            orders,
            negated,
            head,
            existentials,
        }
    }

    /// Every composite index this plan probes, as `(predicate, positions)`
    /// signatures, deduplicated: the body-order steps, then the other
    /// pivot orders, then the negated atoms and the head. The engine
    /// builds exactly these before any matching starts.
    pub fn required_composite_indexes(&self, rule: &Rule) -> Vec<(Symbol, Vec<usize>)> {
        let atoms: Vec<&Atom> = rule.positive_body().collect();
        let mut out: Vec<(Symbol, Vec<usize>)> = Vec::new();
        let mut push = |pred: Symbol, sig: &[usize]| {
            if !sig.is_empty() && !out.iter().any(|(p, s)| *p == pred && s == sig) {
                out.push((pred, sig.to_vec()));
            }
        };
        for (i, sig) in self.orders.iter().flatten() {
            push(atoms[*i].predicate, sig);
        }
        for (atom, sig) in rule.negated_body().zip(&self.negated) {
            push(atom.predicate, sig);
        }
        if let (Some(head), Some(sig)) = (rule.head.atom(), &self.head) {
            push(head.predicate, sig);
        }
        out
    }
}

/// The argument positions of `atom` holding a constant or a variable from
/// `bound`, ascending. Variables repeated within `atom` only count as
/// bound if an *earlier* atom (or assignment) bound them, mirroring the
/// runtime bindings at candidate-lookup time.
fn bound_positions(atom: &Atom, bound: &HashSet<Symbol>) -> Vec<usize> {
    atom.terms
        .iter()
        .enumerate()
        .filter(|(_, t)| match t {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v),
        })
        .map(|(i, _)| i)
        .collect()
}

/// Enumerates the matches of `rule`'s body in `db` within `scope`.
///
/// Evaluation per match, in order: positive atoms (backtracking join in
/// the scope's planned order, probing composite indexes on bound
/// arguments), assignments, negated atoms, then every condition *not*
/// involving the aggregate result. Conditions over the aggregate result
/// are the caller's responsibility (they can only be checked after
/// grouping).
///
/// A pivot scope `(p, w)` yields exactly the full match's matches whose
/// premise `p` has id >= `w`, each once; its premise vectors are in body
/// order. A match touching several facts at or above the watermark is
/// yielded by several pivots: deduplicating across pivots is the caller's
/// job. Never builds an index; a missing one costs a scan, not a result.
pub fn match_rule(
    db: &Database,
    rule: &Rule,
    plan: &JoinPlan,
    scope: &MatchChunk,
    metrics: &mut MatchMetrics,
) -> Result<Vec<BodyMatch>, EvalError> {
    let body: Vec<&Atom> = rule.positive_body().collect();
    let (pivot, watermark) = scope.pivot.unwrap_or((0, 0));
    let steps: Vec<AtomPlan<'_>> = plan
        .orders
        .get(pivot)
        .map_or(&[][..], Vec::as_slice)
        .iter()
        .enumerate()
        .map(|(depth, (slot, probe))| AtomPlan {
            atom: body[*slot],
            slot: *slot,
            probe,
            min_fact: if depth == 0 { watermark } else { 0 },
        })
        .collect();
    let mut out = Vec::new();
    let mut bindings = Bindings::new();
    let mut premises = vec![FactId(0); body.len()];
    join(
        db,
        rule,
        &steps,
        0,
        scope,
        &mut bindings,
        &mut premises,
        &mut out,
        metrics,
    )?;
    Ok(out)
}

/// One step of an evaluation order: a body atom with its planned probe
/// and candidate restriction.
struct AtomPlan<'a> {
    atom: &'a Atom,
    /// The atom's position among the positive body atoms, where its
    /// premise is recorded.
    slot: usize,
    /// The statically-bound positions this atom's lookup probes
    /// (ascending; empty = unconstrained scan).
    probe: &'a [usize],
    /// Only facts with id >= this participate (0 = unrestricted).
    min_fact: u32,
}

/// The candidate facts for `atom` under the current bindings, in insertion
/// (= ascending id) order. Probes the composite index on the atom's
/// planned signature when available, scans (filtering on the same
/// positions) otherwise — identical ids in identical order either way.
fn candidates_for(
    db: &Database,
    plan: &AtomPlan<'_>,
    use_index: bool,
    bindings: &Bindings,
    metrics: &mut MatchMetrics,
    count: bool,
) -> Vec<FactId> {
    let atom = plan.atom;
    let probe = if use_index { plan.probe } else { &[] };
    // Every planned position holds a constant or a variable bound by an
    // earlier atom, so the key is always fully resolvable.
    let key: Option<Vec<Value>> = probe
        .iter()
        .map(|&p| match &atom.terms[p] {
            Term::Const(v) => Some(*v),
            Term::Var(name) => bindings.get(name).copied(),
        })
        .collect();
    let mut candidates: Vec<FactId> = match key {
        Some(key) if !probe.is_empty() => {
            match db.probe_composite(atom.predicate, probe, &key) {
                Some(hits) => {
                    if count {
                        metrics.index_probes += 1;
                        if probe.len() > 1 {
                            metrics.composite_probes += 1;
                        }
                    }
                    hits.to_vec()
                }
                // Index never built: scan the predicate and filter on the
                // same positions — same ids, same order, just slower.
                None => {
                    if count {
                        metrics.scans += 1;
                    }
                    db.facts_of(atom.predicate)
                        .iter()
                        .copied()
                        .filter(|&id| {
                            let f = db.fact(id);
                            probe
                                .iter()
                                .zip(&key)
                                .all(|(&p, v)| f.values.get(p) == Some(v))
                        })
                        .collect()
                }
            }
        }
        _ => {
            if count {
                metrics.scans += 1;
            }
            db.facts_of(atom.predicate).to_vec()
        }
    };
    if plan.min_fact > 0 {
        candidates.retain(|id| id.0 >= plan.min_fact);
    }
    candidates.retain(|&id| db.is_active(id));
    candidates
}

/// The contiguous slice of `len` outermost candidates owned by chunk
/// `part` of `parts`.
fn chunk_bounds(len: usize, part: usize, parts: usize) -> (usize, usize) {
    let parts = parts.max(1);
    let base = len / parts;
    let extra = len % parts;
    // The first `extra` chunks get one additional candidate each.
    let start = part * base + part.min(extra);
    let size = base + usize::from(part < extra);
    (start.min(len), (start + size).min(len))
}

#[allow(clippy::too_many_arguments)]
fn join(
    db: &Database,
    rule: &Rule,
    atoms: &[AtomPlan<'_>],
    depth: usize,
    scope: &MatchChunk,
    bindings: &mut Bindings,
    premises: &mut [FactId],
    out: &mut Vec<BodyMatch>,
    metrics: &mut MatchMetrics,
) -> Result<(), EvalError> {
    if depth == atoms.len() {
        if let Some(m) = finish_match(db, rule, scope.use_index, bindings, premises, metrics)? {
            out.push(m);
        }
        return Ok(());
    }
    let plan = &atoms[depth];
    let atom = plan.atom;

    // The outermost lookup runs once per chunk: only chunk 0 counts it,
    // so metric totals do not depend on how the work was split.
    let count = depth > 0 || scope.part == 0;
    let mut candidates = candidates_for(db, plan, scope.use_index, bindings, metrics, count);
    if depth == 0 {
        let (lo, hi) = chunk_bounds(candidates.len(), scope.part, scope.parts);
        candidates.truncate(hi);
        candidates.drain(..lo);
    }

    for id in candidates {
        let mut added: Vec<crate::symbol::Symbol> = Vec::new();
        let ok = {
            let fact = db.fact(id);
            if fact.values.len() != atom.terms.len() {
                false
            } else {
                let mut consistent = true;
                for (term, value) in atom.terms.iter().zip(&fact.values) {
                    match term {
                        Term::Const(c) => {
                            if c != value {
                                consistent = false;
                                break;
                            }
                        }
                        Term::Var(name) => match bindings.get(name) {
                            Some(bound) => {
                                if bound != value {
                                    consistent = false;
                                    break;
                                }
                            }
                            None => {
                                bindings.insert(*name, *value);
                                added.push(*name);
                            }
                        },
                    }
                }
                consistent
            }
        };
        if ok {
            premises[plan.slot] = id;
            join(
                db,
                rule,
                atoms,
                depth + 1,
                scope,
                bindings,
                premises,
                out,
                metrics,
            )?;
        }
        for name in added {
            bindings.remove(&name);
        }
    }
    Ok(())
}

/// Completes a full-atom match: assignments, negation, pre-aggregate
/// conditions. Returns the finished match, or `None` if a check failed.
/// Runs once per complete positive match, so the negation counters it
/// feeds are invariant across chunk counts by construction.
fn finish_match(
    db: &Database,
    rule: &Rule,
    use_index: bool,
    bindings: &Bindings,
    premises: &[FactId],
    metrics: &mut MatchMetrics,
) -> Result<Option<BodyMatch>, EvalError> {
    let mut full = bindings.clone();

    for a in &rule.assignments {
        let v = a.expr.eval(&full)?;
        full.insert(a.var, v);
    }

    // Negated atoms: fail the match if any fact matches under θ. With
    // indexes enabled the lookup probes the widest composite index whose
    // positions are all bound (built eagerly from the rule's JoinPlan);
    // in ablation mode it stays an honest linear scan.
    for atom in rule.negated_body() {
        let pattern: Vec<Option<Value>> = atom
            .terms
            .iter()
            .map(|t| match t {
                Term::Const(v) => Some(*v),
                Term::Var(name) => full.get(name).copied(),
            })
            .collect();
        let (hit, probed) = if use_index {
            db.find_matching_metered(atom.predicate, &pattern)
        } else {
            (db.find_matching_scan(atom.predicate, &pattern), false)
        };
        if probed {
            metrics.negation_probes += 1;
        } else {
            metrics.negation_scans += 1;
        }
        if hit.is_some() {
            return Ok(None);
        }
    }

    let agg_result = rule.aggregate.as_ref().map(|a| a.result);
    for c in &rule.conditions {
        let mut vars = Vec::new();
        c.collect_vars(&mut vars);
        let post_aggregate = agg_result.is_some_and(|r| vars.contains(&r));
        if post_aggregate {
            continue; // checked by the chase after grouping
        }
        if !c.holds(&full)? {
            return Ok(None);
        }
    }

    Ok(Some(BodyMatch {
        bindings: full,
        premises: premises.to_vec(),
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{CmpOp, Condition, Expr};
    use crate::rule::RuleBuilder;
    use crate::symbol::Symbol;

    fn own_db() -> Database {
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        db.add("own", &["A".into(), "C".into(), 0.4.into()]);
        db.add("own", &["B".into(), "C".into(), 0.3.into()]);
        db
    }

    /// The full match of `rule`, after building its planned indexes when
    /// `use_index` (as the engine does before matching).
    fn full_match(
        db: &mut Database,
        rule: &Rule,
        use_index: bool,
        metrics: &mut MatchMetrics,
    ) -> Vec<BodyMatch> {
        let plan = JoinPlan::for_rule(rule);
        if use_index {
            for (pred, sig) in plan.required_composite_indexes(rule) {
                db.ensure_composite_index(pred, &sig);
            }
        }
        match_rule(db, rule, &plan, &MatchChunk::full(use_index), metrics).unwrap()
    }

    fn matches(db: &mut Database, rule: &Rule) -> Vec<BodyMatch> {
        full_match(db, rule, true, &mut MatchMetrics::default())
    }

    fn two_hop_rule() -> Rule {
        RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("z"), Term::var("s1")],
            ))
            .body(Atom::new(
                "own",
                vec![Term::var("z"), Term::var("y"), Term::var("s2")],
            ))
            .head(Atom::new("p", vec![Term::var("x"), Term::var("y")]))
    }

    fn premises(ms: &[BodyMatch]) -> Vec<Vec<FactId>> {
        ms.iter().map(|m| m.premises.clone()).collect()
    }

    #[test]
    fn single_atom_matching_binds_all_rows() {
        let mut db = own_db();
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("y"), Term::var("s")],
            ))
            .head(Atom::new("p", vec![Term::var("x")]));
        assert_eq!(matches(&mut db, &rule).len(), 3);
    }

    #[test]
    fn conditions_filter_matches() {
        let mut db = own_db();
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("y"), Term::var("s")],
            ))
            .condition(Condition::new(
                Expr::var("s"),
                CmpOp::Gt,
                Expr::constant(0.5f64),
            ))
            .head(Atom::new("control", vec![Term::var("x"), Term::var("y")]));
        let ms = matches(&mut db, &rule);
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].bindings[&Symbol::new("y")], Value::str("B"));
    }

    #[test]
    fn join_respects_shared_variables() {
        let mut db = own_db();
        // own(x,z,_), own(z,y,_) : A->B->C is the only 2-hop chain.
        let ms = matches(&mut db, &two_hop_rule());
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].bindings[&Symbol::new("x")], Value::str("A"));
        assert_eq!(ms[0].bindings[&Symbol::new("y")], Value::str("C"));
        assert_eq!(ms[0].premises.len(), 2);
    }

    #[test]
    fn repeated_variable_in_one_atom_requires_equality() {
        let mut db = Database::new();
        db.add("edge", &["A".into(), "A".into()]);
        db.add("edge", &["A".into(), "B".into()]);
        let rule = RuleBuilder::new("r")
            .body(Atom::new("edge", vec![Term::var("x"), Term::var("x")]))
            .head(Atom::new("loop", vec![Term::var("x")]));
        assert_eq!(matches(&mut db, &rule).len(), 1);
    }

    #[test]
    fn constants_in_body_atoms_filter() {
        let mut db = own_db();
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::constant("A"), Term::var("y"), Term::var("s")],
            ))
            .head(Atom::new("p", vec![Term::var("y")]));
        assert_eq!(matches(&mut db, &rule).len(), 2);
    }

    #[test]
    fn negated_atom_blocks_matches() {
        let mut db = own_db();
        db.add("blocked", &["A".into()]);
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("y"), Term::var("s")],
            ))
            .body_not(Atom::new("blocked", vec![Term::var("x")]))
            .head(Atom::new("p", vec![Term::var("x"), Term::var("y")]));
        let ms = matches(&mut db, &rule);
        // A's two rows are blocked; only B->C remains.
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].bindings[&Symbol::new("x")], Value::str("B"));
    }

    #[test]
    fn assignments_extend_bindings() {
        let mut db = own_db();
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("y"), Term::var("s")],
            ))
            .assign(
                "pct",
                Expr::binary(
                    crate::expr::ArithOp::Mul,
                    Expr::var("s"),
                    Expr::constant(100.0f64),
                ),
            )
            .head(Atom::new("p", vec![Term::var("x"), Term::var("pct")]));
        let pcts: Vec<f64> = matches(&mut db, &rule)
            .iter()
            .map(|m| m.bindings[&Symbol::new("pct")].as_f64().unwrap())
            .collect();
        assert!(pcts.contains(&60.0));
    }

    #[test]
    fn post_aggregate_conditions_are_deferred() {
        let mut db = own_db();
        // ts = sum(s), ts > 10 : the condition must NOT filter individual
        // matches (no single share exceeds 10).
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("y"), Term::var("s")],
            ))
            .aggregate(crate::rule::AggFunc::Sum, "ts", Expr::var("s"))
            .condition(Condition::new(
                Expr::var("ts"),
                CmpOp::Gt,
                Expr::constant(10.0f64),
            ))
            .head(Atom::new("p", vec![Term::var("x"), Term::var("ts")]));
        assert_eq!(matches(&mut db, &rule).len(), 3);
    }

    #[test]
    fn scan_mode_agrees_with_indexed_mode() {
        let mut db = own_db();
        db.add("own", &["C".into(), "D".into(), 0.7.into()]);
        let rule = two_hop_rule();
        let indexed = matches(&mut db, &rule);
        let scanned = full_match(&mut db, &rule, false, &mut MatchMetrics::default());
        assert_eq!(premises(&indexed), premises(&scanned));
    }

    #[test]
    fn missing_index_falls_back_to_scan() {
        // Matching on a cold database (no indexes built) must agree with
        // the indexed path.
        let db = own_db();
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::constant("A"), Term::var("y"), Term::var("s")],
            ))
            .head(Atom::new("p", vec![Term::var("y")]));
        assert!(!db.has_index(Symbol::new("own"), 0));
        let plan = JoinPlan::for_rule(&rule);
        let mut metrics = MatchMetrics::default();
        let cold = match_rule(&db, &rule, &plan, &MatchChunk::full(true), &mut metrics).unwrap();
        assert_eq!(metrics.index_probes, 0);
        let warm = matches(&mut own_db(), &rule);
        assert_eq!(premises(&cold), premises(&warm));
    }

    #[test]
    fn chunked_enumeration_equals_sequential_for_any_part_count() {
        let mut db = own_db();
        db.add("own", &["C".into(), "D".into(), 0.7.into()]);
        db.add("own", &["B".into(), "D".into(), 0.2.into()]);
        let rule = two_hop_rule();
        let plan = JoinPlan::for_rule(&rule);
        let full = matches(&mut db, &rule);
        for parts in 1..=7 {
            let mut concat = Vec::new();
            for part in 0..parts {
                let chunk = MatchChunk {
                    pivot: None,
                    part,
                    parts,
                    use_index: true,
                };
                let mut m = MatchMetrics::default();
                concat.extend(match_rule(&db, &rule, &plan, &chunk, &mut m).unwrap());
            }
            assert_eq!(premises(&concat), premises(&full), "parts {parts}");
        }
    }

    #[test]
    fn match_metrics_are_invariant_across_chunk_counts() {
        let mut db = own_db();
        db.add("own", &["C".into(), "D".into(), 0.7.into()]);
        db.add("own", &["B".into(), "D".into(), 0.2.into()]);
        let rule = two_hop_rule();
        let plan = JoinPlan::for_rule(&rule);
        // Builds the planned indexes once.
        let mut reference = MatchMetrics::default();
        full_match(&mut db, &rule, true, &mut reference);
        assert!(reference.index_probes > 0);
        assert!(reference.scans > 0); // the outermost atom has no bound position
        for parts in 2..=5 {
            let mut m = MatchMetrics::default();
            for part in 0..parts {
                let chunk = MatchChunk {
                    pivot: None,
                    part,
                    parts,
                    use_index: true,
                };
                match_rule(&db, &rule, &plan, &chunk, &mut m).unwrap();
            }
            assert_eq!(m, reference, "parts {parts}");
        }
    }

    #[test]
    fn scan_mode_counts_scans_only() {
        let mut db = own_db();
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::constant("A"), Term::var("y"), Term::var("s")],
            ))
            .head(Atom::new("p", vec![Term::var("y")]));
        let mut m = MatchMetrics::default();
        full_match(&mut db, &rule, false, &mut m);
        assert_eq!(m.index_probes, 0);
        assert!(m.scans > 0);
    }

    #[test]
    fn join_plan_signatures_cover_positive_negated_and_head_atoms() {
        // own(x,z,s1), own(z,y,s2), not blocked(z,y) -> p(x,y,w) with w
        // existential. In body order atom 0 has no bound position and atom
        // 1 probes [0]; pivot-first on atom 1, atom 1 scans and atom 0
        // probes [1]. The negated atom is fully bound, the head probes its
        // non-existential positions.
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("z"), Term::var("s1")],
            ))
            .body(Atom::new(
                "own",
                vec![Term::var("z"), Term::var("y"), Term::var("s2")],
            ))
            .body_not(Atom::new("blocked", vec![Term::var("z"), Term::var("y")]))
            .head(Atom::new(
                "p",
                vec![Term::var("x"), Term::var("y"), Term::var("w")],
            ));
        let plan = JoinPlan::for_rule(&rule);
        assert_eq!(
            plan.orders,
            vec![
                vec![(0, vec![]), (1, vec![0])],
                vec![(1, vec![]), (0, vec![1])],
            ]
        );
        assert_eq!(plan.negated, vec![vec![0, 1]]);
        assert_eq!(plan.head, Some(vec![0, 1]));
        let sigs = plan.required_composite_indexes(&rule);
        assert_eq!(
            sigs,
            vec![
                (Symbol::new("own"), vec![0]),
                (Symbol::new("own"), vec![1]),
                (Symbol::new("blocked"), vec![0, 1]),
                (Symbol::new("p"), vec![0, 1]),
            ]
        );
    }

    #[test]
    fn join_plan_assignment_variables_bind_negated_positions() {
        // pct is only bound after the assignment; the negated atom's
        // second position still counts as bound.
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("y"), Term::var("s")],
            ))
            .assign(
                "pct",
                Expr::binary(
                    crate::expr::ArithOp::Mul,
                    Expr::var("s"),
                    Expr::constant(100.0f64),
                ),
            )
            .body_not(Atom::new("cap", vec![Term::var("x"), Term::var("pct")]))
            .head(Atom::new("p", vec![Term::var("x")]));
        let plan = JoinPlan::for_rule(&rule);
        assert_eq!(plan.negated, vec![vec![0, 1]]);
        assert_eq!(plan.head, None, "no existentials, no satisfaction probe");
    }

    #[test]
    fn composite_probe_agrees_with_scan_and_counts_composites() {
        // Triangle closure: the third atom has two bound positions, so the
        // planned join probes a genuinely composite (edge, [0, 1]) index.
        let mut db = Database::new();
        for (a, b) in [
            ("A", "B"),
            ("B", "C"),
            ("A", "C"),
            ("C", "D"),
            ("B", "D"),
            ("A", "D"),
        ] {
            db.add("edge", &[a.into(), b.into()]);
        }
        let rule = RuleBuilder::new("tri")
            .body(Atom::new("edge", vec![Term::var("x"), Term::var("y")]))
            .body(Atom::new("edge", vec![Term::var("y"), Term::var("z")]))
            .body(Atom::new("edge", vec![Term::var("x"), Term::var("z")]))
            .head(Atom::new(
                "triangle",
                vec![Term::var("x"), Term::var("y"), Term::var("z")],
            ));
        let plan = JoinPlan::for_rule(&rule);
        assert_eq!(
            plan.orders[0],
            vec![(0, vec![]), (1, vec![0]), (2, vec![0, 1])]
        );
        let mut metrics = MatchMetrics::default();
        let indexed = full_match(&mut db, &rule, true, &mut metrics);
        assert!(metrics.composite_probes > 0);
        assert!(db.has_composite_index(Symbol::new("edge"), &[0, 1]));
        let scanned = full_match(&mut db, &rule, false, &mut MatchMetrics::default());
        assert!(!indexed.is_empty());
        assert_eq!(premises(&indexed), premises(&scanned));
    }

    #[test]
    fn negation_probes_an_index_when_planned_and_scans_otherwise() {
        let mut db = own_db();
        db.add("blocked", &["A".into()]);
        db.add("blocked", &["Z".into()]);
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("y"), Term::var("s")],
            ))
            .body_not(Atom::new("blocked", vec![Term::var("x")]))
            .head(Atom::new("p", vec![Term::var("x"), Term::var("y")]));
        let mut metrics = MatchMetrics::default();
        let ms = full_match(&mut db, &rule, true, &mut metrics);
        assert_eq!(ms.len(), 1);
        // One negation check per complete positive match, all indexed.
        assert_eq!(metrics.negation_probes, 3);
        assert_eq!(metrics.negation_scans, 0);
        // Ablation mode stays an honest scan even though the index exists.
        let mut metrics = MatchMetrics::default();
        let scanned = full_match(&mut db, &rule, false, &mut metrics);
        assert_eq!(metrics.negation_probes, 0);
        assert_eq!(metrics.negation_scans, 3);
        assert_eq!(ms.len(), scanned.len());
    }

    #[test]
    fn empty_predicate_yields_no_matches() {
        let mut db = Database::new();
        let rule = RuleBuilder::new("r")
            .body(Atom::new("nothing", vec![Term::var("x")]))
            .head(Atom::new("p", vec![Term::var("x")]));
        assert!(matches(&mut db, &rule).is_empty());
    }

    /// The matches of one unchunked pivot scope, indexes pre-built.
    fn pivot_match(db: &mut Database, rule: &Rule, pivot: usize, watermark: u32) -> Vec<BodyMatch> {
        full_match(db, rule, true, &mut MatchMetrics::default());
        let plan = JoinPlan::for_rule(rule);
        let scope = MatchChunk::delta(pivot, watermark);
        match_rule(db, rule, &plan, &scope, &mut MatchMetrics::default()).unwrap()
    }

    #[test]
    fn watermark_zero_pivots_each_equal_full_matching() {
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        db.add("own", &["B".into(), "C".into(), 0.7.into()]);
        db.add("own", &["C".into(), "D".into(), 0.8.into()]);
        let rule = two_hop_rule();
        let full = premises(&matches(&mut db, &rule));
        for pivot in 0..2 {
            let mut delta = premises(&pivot_match(&mut db, &rule, pivot, 0));
            delta.sort();
            assert_eq!(delta, full, "pivot {pivot}");
        }
    }

    #[test]
    fn pivot_scope_returns_only_matches_over_new_pivot_facts_in_body_order() {
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        db.add("own", &["B".into(), "C".into(), 0.7.into()]);
        let watermark = db.len() as u32; // everything so far is old
        db.add("own", &["C".into(), "D".into(), 0.8.into()]);
        let rule = two_hop_rule();
        // The new fact cannot start a chain (nothing leaves D)...
        assert!(pivot_match(&mut db, &rule, 0, watermark).is_empty());
        // ...but closes B->C->D as the second atom, evaluated first yet
        // recorded in body order.
        let ms = pivot_match(&mut db, &rule, 1, watermark);
        assert_eq!(premises(&ms), vec![vec![FactId(1), FactId(2)]]);
        assert_eq!(ms[0].bindings[&Symbol::new("y")], Value::str("D"));
    }

    #[test]
    fn future_watermark_yields_nothing() {
        let mut db = own_db();
        let rule = two_hop_rule();
        for pivot in 0..2 {
            assert!(pivot_match(&mut db, &rule, pivot, 999).is_empty());
        }
    }
}
