//! Body matching: enumerating homomorphisms from rule bodies into the
//! database.
//!
//! Joins are driven by a static, per-rule [`JoinPlan`]: for every body
//! atom (positive *and* negated) the plan records the probe signature —
//! the set of argument positions bound by constants or earlier atoms —
//! and the engine eagerly builds exactly the matching composite indexes
//! before its parallel phase. A candidate lookup then probes *all*
//! statically-bound positions at once via
//! [`Database::probe_composite`], instead of probing one position and
//! filtering the rest per candidate.
//!
//! The core join is *read-only*: probes fall back to predicate scans when
//! an index was never built (same ids, same order, just slower) and
//! therefore run safely from many threads over a shared `&Database`
//! snapshot. The `&mut` entry points kept for compatibility eagerly build
//! the planned indexes and delegate to the read-only core.
//!
//! Work is decomposed into [`MatchChunk`]s — disjoint slices of the
//! outermost join loop — whose results, concatenated in chunk order,
//! reproduce the sequential enumeration exactly. This is what makes the
//! parallel chase phase deterministic: enumeration order is a property of
//! the plan and the chunk list, never of thread scheduling.

use crate::atom::Atom;
use crate::database::{Database, FactId};
use crate::error::EvalError;
use crate::expr::Bindings;
use crate::rule::Rule;
use crate::symbol::Symbol;
use crate::term::Term;
use crate::value::Value;

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

/// One unit of matching work against an immutable database snapshot.
///
/// `part`/`parts` slice the outermost candidate loop of the join: chunk
/// `(i, n)` enumerates the `i`-th of `n` contiguous slices of the first
/// atom's candidate list. Concatenating the results of chunks
/// `(0, n) .. (n-1, n)` yields exactly the unchunked enumeration, for any
/// `n` — the parallel chase phase relies on this invariance.
#[derive(Clone, Copy, Debug)]
pub struct MatchChunk {
    /// Delta restriction: `Some((pivot, watermark))` restricts the
    /// `pivot`-th positive body atom to facts with id >= `watermark`
    /// (one pivot per semi-naive expansion step); `None` matches fully.
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

    /// An unchunked delta expansion for one pivot.
    pub fn delta(pivot: usize, watermark: u32) -> MatchChunk {
        MatchChunk {
            pivot: Some((pivot, watermark)),
            part: 0,
            parts: 1,
            use_index: true,
        }
    }
}

/// The static join plan of one rule: the composite probe signature of
/// every body atom, plus the signature of the head-satisfaction check.
///
/// At join depth `d` the bound variables are exactly the variables of the
/// positive atoms `0..d` (every candidate binds all of its atom's
/// variables), so the set of bound argument positions of each atom is a
/// static property of the rule. The plan records that full set per
/// positive atom; `candidates_for` probes the matching composite index
/// with all of them bound at once. Negated atoms are checked once per
/// complete positive match, when the body variables and assignment
/// results are all bound — their signature is every position holding a
/// constant or such a variable. The head signature covers the restricted
/// chase's satisfaction check for existentially-quantified heads: every
/// position holding a constant or a non-existential variable.
///
/// The plan determines which indexes exist, never which facts match or
/// in which order: probes and scans yield identical candidate lists
/// (insertion order), so enumeration order is a property of the rule and
/// the database — not of the plan, and never of thread scheduling.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinPlan {
    /// Per positive body atom, in body order: the statically-bound
    /// argument positions (ascending; empty = no bound position, scan).
    pub positive: Vec<Vec<usize>>,
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
    /// The full composite plan of `rule`.
    pub fn for_rule(rule: &Rule) -> JoinPlan {
        let mut bound: std::collections::HashSet<Symbol> = std::collections::HashSet::new();
        let mut positive = Vec::new();
        for atom in rule.positive_body() {
            positive.push(bound_positions(atom, &bound));
            for v in atom.variables() {
                bound.insert(v);
            }
        }
        // Negation runs after the assignments of a complete match.
        for a in &rule.assignments {
            bound.insert(a.var);
        }
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
            positive,
            negated,
            head,
            existentials,
        }
    }

    /// The pre-composite plan: each positive atom probes only its *first*
    /// bound position; negated atoms and the satisfaction check scan.
    /// Kept as the measured baseline of the `join_plan` bench and as a
    /// regression oracle — it reproduces the engine's behaviour before
    /// join planning existed.
    pub fn legacy(rule: &Rule) -> JoinPlan {
        let mut bound: std::collections::HashSet<Symbol> = std::collections::HashSet::new();
        let mut positive = Vec::new();
        for atom in rule.positive_body() {
            let first = static_probe_position(atom, &bound);
            positive.push(first.into_iter().collect());
            for v in atom.variables() {
                bound.insert(v);
            }
        }
        JoinPlan {
            positive,
            negated: rule.negated_body().map(|_| Vec::new()).collect(),
            head: None,
            existentials: rule.existential_variables(),
        }
    }

    /// Every composite index this plan probes, as
    /// `(predicate, positions)` signatures in plan order, deduplicated.
    /// The engine builds exactly these before its parallel phase.
    pub fn required_composite_indexes(&self, rule: &Rule) -> Vec<(Symbol, Vec<usize>)> {
        let mut out: Vec<(Symbol, Vec<usize>)> = Vec::new();
        let mut push = |pred: Symbol, sig: &[usize]| {
            if !sig.is_empty() && !out.iter().any(|(p, s)| *p == pred && s == sig) {
                out.push((pred, sig.to_vec()));
            }
        };
        for (atom, sig) in rule.positive_body().zip(&self.positive) {
            push(atom.predicate, sig);
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
fn bound_positions(atom: &Atom, bound: &std::collections::HashSet<Symbol>) -> Vec<usize> {
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

/// The statically-determined single-position index probes of a rule body:
/// for each positive atom, the first position holding a constant or an
/// already-bound variable. Superseded by [`JoinPlan`] (which the engine
/// now plans with) but kept as the stable, documented summary of the
/// legacy probe selection.
pub fn required_indexes(rule: &Rule) -> Vec<(Symbol, usize)> {
    let mut bound: std::collections::HashSet<Symbol> = std::collections::HashSet::new();
    let mut out = Vec::new();
    for atom in rule.positive_body() {
        if let Some(pos) = static_probe_position(atom, &bound) {
            let pair = (atom.predicate, pos);
            if !out.contains(&pair) {
                out.push(pair);
            }
        }
        for v in atom.variables() {
            bound.insert(v);
        }
    }
    out
}

/// The position of `atom` the join will probe, given the variables bound
/// by earlier atoms. Mirrors the probe selection inside [`join`].
fn static_probe_position(atom: &Atom, bound: &std::collections::HashSet<Symbol>) -> Option<usize> {
    atom.terms.iter().position(|t| match t {
        Term::Const(_) => true,
        Term::Var(v) => bound.contains(v),
    })
}

/// Enumerates all matches of `rule`'s body in `db`.
///
/// Evaluation per match, in order: positive atoms (backtracking join, using
/// positional indexes on already-bound arguments), assignments, negated
/// atoms, then every condition *not* involving the aggregate result.
/// Conditions over the aggregate result are the caller's responsibility
/// (they can only be checked after grouping).
///
/// Takes `&mut Database` to build the rule's positional indexes up front;
/// no facts are added or removed. Read-only callers with pre-built indexes
/// (see [`required_indexes`]) can use [`match_chunk`] directly.
pub fn match_body(db: &mut Database, rule: &Rule) -> Result<Vec<BodyMatch>, EvalError> {
    match_body_with(db, rule, true)
}

/// [`match_body`] with index usage made explicit: with `use_index` false
/// every atom lookup scans the predicate's facts (the engine-ablation
/// baseline of the bench crate).
pub fn match_body_with(
    db: &mut Database,
    rule: &Rule,
    use_index: bool,
) -> Result<Vec<BodyMatch>, EvalError> {
    match_body_with_metered(db, rule, use_index, &mut MatchMetrics::default())
}

/// [`match_body_with`] with index/scan counters accumulated into
/// `metrics`.
pub fn match_body_with_metered(
    db: &mut Database,
    rule: &Rule,
    use_index: bool,
    metrics: &mut MatchMetrics,
) -> Result<Vec<BodyMatch>, EvalError> {
    let plan = JoinPlan::for_rule(rule);
    match_body_planned(db, rule, &plan, use_index, metrics)
}

/// [`match_body_with_metered`] against a precomputed [`JoinPlan`]: builds
/// the plan's composite indexes (when `use_index`) and runs the full
/// unchunked match.
pub fn match_body_planned(
    db: &mut Database,
    rule: &Rule,
    plan: &JoinPlan,
    use_index: bool,
    metrics: &mut MatchMetrics,
) -> Result<Vec<BodyMatch>, EvalError> {
    if use_index {
        for (pred, sig) in plan.required_composite_indexes(rule) {
            db.ensure_composite_index(pred, &sig);
        }
    }
    match_chunk_planned(db, rule, plan, &MatchChunk::full(use_index), metrics)
}

/// Semi-naive incremental matching: enumerates only the matches that
/// involve at least one fact with id >= `watermark` (a fact added since
/// the rule's previous evaluation).
///
/// Implemented as the classic delta expansion: one join per pivot
/// position, restricting that position to new facts, deduplicated on the
/// premise vector (a match touching several new facts is produced by
/// several pivots).
pub fn match_body_incremental(
    db: &mut Database,
    rule: &Rule,
    watermark: u32,
) -> Result<Vec<BodyMatch>, EvalError> {
    match_body_incremental_metered(db, rule, watermark, &mut MatchMetrics::default())
}

/// [`match_body_incremental`] with index/scan counters accumulated into
/// `metrics`.
pub fn match_body_incremental_metered(
    db: &mut Database,
    rule: &Rule,
    watermark: u32,
    metrics: &mut MatchMetrics,
) -> Result<Vec<BodyMatch>, EvalError> {
    let plan = JoinPlan::for_rule(rule);
    match_body_incremental_planned(db, rule, &plan, watermark, metrics)
}

/// [`match_body_incremental_metered`] against a precomputed [`JoinPlan`]
/// (the engine's commit-phase top-up path, which reuses the per-rule
/// plans computed once per program).
///
/// Each pivot's expansion evaluates the body with the *pivot atom first*:
/// the watermark restriction then lands at join depth 0, so the work of a
/// pass is proportional to the delta's extensions rather than to the full
/// join prefix of the atoms before the pivot. The remaining atoms keep
/// their body order, with probe signatures recomputed for the permuted
/// order (and their composite indexes built on demand). Premise vectors
/// are restored to body-atom order before dedup, so the returned match
/// set — and everything downstream, which sorts on premises — is
/// identical to the unpermuted expansion.
pub fn match_body_incremental_planned(
    db: &mut Database,
    rule: &Rule,
    plan: &JoinPlan,
    watermark: u32,
    metrics: &mut MatchMetrics,
) -> Result<Vec<BodyMatch>, EvalError> {
    for (pred, sig) in plan.required_composite_indexes(rule) {
        db.ensure_composite_index(pred, &sig);
    }
    let atoms: Vec<&Atom> = rule.positive_body().collect();
    let n_atoms = atoms.len();
    // Per pivot: the permuted evaluation order and its probe signatures
    // (indexed by order position). Indexes are built before any join runs
    // so the probe/scan split below is a property of the rule alone.
    let mut passes: Vec<(Vec<usize>, Vec<Vec<usize>>)> = Vec::with_capacity(n_atoms);
    for pivot in 0..n_atoms {
        let order: Vec<usize> = std::iter::once(pivot)
            .chain((0..n_atoms).filter(|&i| i != pivot))
            .collect();
        let mut bound: std::collections::HashSet<Symbol> = std::collections::HashSet::new();
        let mut probes: Vec<Vec<usize>> = Vec::with_capacity(n_atoms);
        for &i in &order {
            let sig = bound_positions(atoms[i], &bound);
            if !sig.is_empty() {
                db.ensure_composite_index(atoms[i].predicate, &sig);
            }
            probes.push(sig);
            for v in atoms[i].variables() {
                bound.insert(v);
            }
        }
        passes.push((order, probes));
    }
    let mut out = Vec::new();
    let mut seen_premises: std::collections::HashSet<Vec<FactId>> =
        std::collections::HashSet::new();
    for (order, probes) in &passes {
        let plans: Vec<AtomPlan> = order
            .iter()
            .zip(probes)
            .enumerate()
            .map(|(k, (&i, sig))| AtomPlan {
                atom: atoms[i],
                probe: sig.as_slice(),
                min_fact: if k == 0 { watermark } else { 0 },
            })
            .collect();
        let mut bindings = Bindings::new();
        let mut premises = Vec::with_capacity(n_atoms);
        let mut found = Vec::new();
        join(
            db,
            rule,
            &plans,
            0,
            true,
            None,
            &mut bindings,
            &mut premises,
            &mut found,
            metrics,
        )?;
        for mut m in found {
            // `join` records premises in evaluation order; restore body
            // order so dedup and provenance see the canonical vector.
            let mut body_order = vec![FactId(0); n_atoms];
            for (k, &i) in order.iter().enumerate() {
                body_order[i] = m.premises[k];
            }
            m.premises = body_order;
            if seen_premises.insert(m.premises.clone()) {
                out.push(m);
            }
        }
    }
    Ok(out)
}

/// Runs one [`MatchChunk`] against an immutable database snapshot.
///
/// Requires only `&Database`: index probes that miss (index never built)
/// fall back to a predicate scan, so results never depend on which indexes
/// exist — only speed does.
pub fn match_chunk(
    db: &Database,
    rule: &Rule,
    chunk: &MatchChunk,
) -> Result<Vec<BodyMatch>, EvalError> {
    match_chunk_metered(db, rule, chunk, &mut MatchMetrics::default())
}

/// [`match_chunk`] with index/scan counters accumulated into `metrics`.
/// For chunked work (`parts > 1`) only chunk 0 counts the outermost
/// lookup, keeping the totals identical at any chunk count.
pub fn match_chunk_metered(
    db: &Database,
    rule: &Rule,
    chunk: &MatchChunk,
    metrics: &mut MatchMetrics,
) -> Result<Vec<BodyMatch>, EvalError> {
    let plan = JoinPlan::for_rule(rule);
    match_chunk_planned(db, rule, &plan, chunk, metrics)
}

/// [`match_chunk_metered`] against a precomputed [`JoinPlan`] — the
/// parallel chase phase's entry point, which computes one plan per rule
/// up front and shares it across all chunks.
pub fn match_chunk_planned(
    db: &Database,
    rule: &Rule,
    plan: &JoinPlan,
    chunk: &MatchChunk,
    metrics: &mut MatchMetrics,
) -> Result<Vec<BodyMatch>, EvalError> {
    static EMPTY: &[usize] = &[];
    let atoms: Vec<AtomPlan> = rule
        .positive_body()
        .enumerate()
        .map(|(i, atom)| AtomPlan {
            atom,
            probe: plan.positive.get(i).map_or(EMPTY, Vec::as_slice),
            min_fact: match chunk.pivot {
                Some((pivot, watermark)) if pivot == i => watermark,
                _ => 0,
            },
        })
        .collect();
    let mut out = Vec::new();
    let mut bindings = Bindings::new();
    let mut premises = Vec::with_capacity(atoms.len());
    join(
        db,
        rule,
        &atoms,
        0,
        chunk.use_index,
        Some((chunk.part, chunk.parts)),
        &mut bindings,
        &mut premises,
        &mut out,
        metrics,
    )?;
    Ok(out)
}

/// One body atom with its planned probe and candidate restriction.
struct AtomPlan<'a> {
    atom: &'a Atom,
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
    use_index: bool,
    depth0_slice: Option<(usize, usize)>,
    bindings: &mut Bindings,
    premises: &mut Vec<FactId>,
    out: &mut Vec<BodyMatch>,
    metrics: &mut MatchMetrics,
) -> Result<(), EvalError> {
    if depth == atoms.len() {
        if let Some(m) = finish_match(db, rule, use_index, bindings, premises, metrics)? {
            out.push(m);
        }
        return Ok(());
    }
    let plan = &atoms[depth];
    let atom = plan.atom;

    // The outermost lookup runs once per chunk: only chunk 0 counts it,
    // so metric totals do not depend on how the work was split.
    let count = depth > 0 || depth0_slice.is_none_or(|(part, _)| part == 0);
    let mut candidates = candidates_for(db, plan, use_index, bindings, metrics, count);
    if depth == 0 {
        if let Some((part, parts)) = depth0_slice {
            let (lo, hi) = chunk_bounds(candidates.len(), part, parts);
            candidates.truncate(hi);
            candidates.drain(..lo);
        }
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
            premises.push(id);
            join(
                db,
                rule,
                atoms,
                depth + 1,
                use_index,
                None,
                bindings,
                premises,
                out,
                metrics,
            )?;
            premises.pop();
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

    #[test]
    fn single_atom_matching_binds_all_rows() {
        let mut db = own_db();
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("y"), Term::var("s")],
            ))
            .head(Atom::new("p", vec![Term::var("x")]));
        let ms = match_body(&mut db, &rule).unwrap();
        assert_eq!(ms.len(), 3);
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
        let ms = match_body(&mut db, &rule).unwrap();
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].bindings[&Symbol::new("y")], Value::str("B"));
    }

    #[test]
    fn join_respects_shared_variables() {
        let mut db = own_db();
        // own(x,z,_), own(z,y,_) : A->B->C is the only 2-hop chain.
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("z"), Term::var("s1")],
            ))
            .body(Atom::new(
                "own",
                vec![Term::var("z"), Term::var("y"), Term::var("s2")],
            ))
            .head(Atom::new("p", vec![Term::var("x"), Term::var("y")]));
        let ms = match_body(&mut db, &rule).unwrap();
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
        let ms = match_body(&mut db, &rule).unwrap();
        assert_eq!(ms.len(), 1);
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
        let ms = match_body(&mut db, &rule).unwrap();
        assert_eq!(ms.len(), 2);
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
        let ms = match_body(&mut db, &rule).unwrap();
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
        let ms = match_body(&mut db, &rule).unwrap();
        let pcts: Vec<f64> = ms
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
        let ms = match_body(&mut db, &rule).unwrap();
        assert_eq!(ms.len(), 3);
    }

    #[test]
    fn scan_mode_agrees_with_indexed_mode() {
        let mut db = own_db();
        db.add("own", &["C".into(), "D".into(), 0.7.into()]);
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("z"), Term::var("s1")],
            ))
            .body(Atom::new(
                "own",
                vec![Term::var("z"), Term::var("y"), Term::var("s2")],
            ))
            .head(Atom::new("p", vec![Term::var("x"), Term::var("y")]));
        let indexed = match_body_with(&mut db, &rule, true).unwrap();
        let scanned = match_body_with(&mut db, &rule, false).unwrap();
        assert_eq!(indexed.len(), scanned.len());
        for (a, b) in indexed.iter().zip(&scanned) {
            assert_eq!(a.premises, b.premises);
        }
    }

    #[test]
    fn missing_index_falls_back_to_scan() {
        // Read-only chunk matching on a cold database (no indexes built)
        // must agree with the index-building path.
        let db = own_db();
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::constant("A"), Term::var("y"), Term::var("s")],
            ))
            .head(Atom::new("p", vec![Term::var("y")]));
        assert!(!db.has_index(Symbol::new("own"), 0));
        let cold = match_chunk(&db, &rule, &MatchChunk::full(true)).unwrap();
        let mut warm_db = own_db();
        let warm = match_body(&mut warm_db, &rule).unwrap();
        assert_eq!(cold.len(), warm.len());
        for (a, b) in cold.iter().zip(&warm) {
            assert_eq!(a.premises, b.premises);
        }
    }

    #[test]
    fn chunked_enumeration_equals_sequential_for_any_part_count() {
        let mut db = own_db();
        db.add("own", &["C".into(), "D".into(), 0.7.into()]);
        db.add("own", &["B".into(), "D".into(), 0.2.into()]);
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("z"), Term::var("s1")],
            ))
            .body(Atom::new(
                "own",
                vec![Term::var("z"), Term::var("y"), Term::var("s2")],
            ))
            .head(Atom::new("p", vec![Term::var("x"), Term::var("y")]));
        let full = match_body(&mut db, &rule).unwrap();
        for parts in 1..=7 {
            let mut concat = Vec::new();
            for part in 0..parts {
                let chunk = MatchChunk {
                    pivot: None,
                    part,
                    parts,
                    use_index: true,
                };
                concat.extend(match_chunk(&db, &rule, &chunk).unwrap());
            }
            assert_eq!(concat.len(), full.len(), "parts {parts}");
            for (a, b) in concat.iter().zip(&full) {
                assert_eq!(a.premises, b.premises, "parts {parts}");
            }
        }
    }

    #[test]
    fn match_metrics_are_invariant_across_chunk_counts() {
        let mut db = own_db();
        db.add("own", &["C".into(), "D".into(), 0.7.into()]);
        db.add("own", &["B".into(), "D".into(), 0.2.into()]);
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("z"), Term::var("s1")],
            ))
            .body(Atom::new(
                "own",
                vec![Term::var("z"), Term::var("y"), Term::var("s2")],
            ))
            .head(Atom::new("p", vec![Term::var("x"), Term::var("y")]));
        // Build the statically-required indexes once.
        let mut reference = MatchMetrics::default();
        match_body_with_metered(&mut db, &rule, true, &mut reference).unwrap();
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
                match_chunk_metered(&db, &rule, &chunk, &mut m).unwrap();
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
        match_body_with_metered(&mut db, &rule, false, &mut m).unwrap();
        assert_eq!(m.index_probes, 0);
        assert!(m.scans > 0);
    }

    #[test]
    fn required_indexes_follow_static_binding_order() {
        // own(x, z, s1) binds x,z,s1; the second atom's first position is
        // then bound, so only ("own", 0) is required (the first atom has
        // no bound position at depth 0).
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("z"), Term::var("s1")],
            ))
            .body(Atom::new(
                "own",
                vec![Term::var("z"), Term::var("y"), Term::var("s2")],
            ))
            .head(Atom::new("p", vec![Term::var("x"), Term::var("y")]));
        assert_eq!(required_indexes(&rule), vec![(Symbol::new("own"), 0)]);
        // A leading constant is probed at depth 0.
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::constant("A"), Term::var("y"), Term::var("s")],
            ))
            .head(Atom::new("p", vec![Term::var("y")]));
        assert_eq!(required_indexes(&rule), vec![(Symbol::new("own"), 0)]);
    }

    #[test]
    fn join_plan_signatures_cover_positive_negated_and_head_atoms() {
        // own(x,z,s1), own(z,y,s2), not blocked(z,y) -> p(x,y,w) with w
        // existential: atom 0 has no bound position, atom 1 probes [0],
        // the negated atom is fully bound, the head probes its
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
        assert_eq!(plan.positive, vec![vec![], vec![0]]);
        assert_eq!(plan.negated, vec![vec![0, 1]]);
        assert_eq!(plan.head, Some(vec![0, 1]));
        let sigs = plan.required_composite_indexes(&rule);
        assert_eq!(
            sigs,
            vec![
                (Symbol::new("own"), vec![0]),
                (Symbol::new("blocked"), vec![0, 1]),
                (Symbol::new("p"), vec![0, 1]),
            ]
        );
        // The legacy plan knows only first-bound-position probes.
        let legacy = JoinPlan::legacy(&rule);
        assert_eq!(legacy.positive, vec![vec![], vec![0]]);
        assert_eq!(legacy.negated, vec![vec![]]);
        assert_eq!(legacy.head, None);
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
        assert_eq!(plan.positive, vec![vec![], vec![0], vec![0, 1]]);
        let mut metrics = MatchMetrics::default();
        let indexed = match_body_planned(&mut db, &rule, &plan, true, &mut metrics).unwrap();
        assert!(metrics.composite_probes > 0);
        assert!(db.has_composite_index(Symbol::new("edge"), &[0, 1]));
        let scanned = match_body_with(&mut db, &rule, false).unwrap();
        assert_eq!(indexed.len(), scanned.len());
        assert!(!indexed.is_empty());
        for (a, b) in indexed.iter().zip(&scanned) {
            assert_eq!(a.premises, b.premises);
        }
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
        let ms = match_body_with_metered(&mut db, &rule, true, &mut metrics).unwrap();
        assert_eq!(ms.len(), 1);
        // One negation check per complete positive match, all indexed.
        assert_eq!(metrics.negation_probes, 3);
        assert_eq!(metrics.negation_scans, 0);
        // Ablation mode stays an honest scan even though the index exists.
        let mut metrics = MatchMetrics::default();
        let scanned = match_body_with_metered(&mut db, &rule, false, &mut metrics).unwrap();
        assert_eq!(metrics.negation_probes, 0);
        assert_eq!(metrics.negation_scans, 3);
        assert_eq!(ms.len(), scanned.len());
    }

    #[test]
    fn legacy_plan_produces_identical_matches() {
        let mut db = own_db();
        db.add("own", &["C".into(), "D".into(), 0.7.into()]);
        db.add("blocked", &["A".into()]);
        let rule = RuleBuilder::new("r")
            .body(Atom::new(
                "own",
                vec![Term::var("x"), Term::var("z"), Term::var("s1")],
            ))
            .body(Atom::new(
                "own",
                vec![Term::var("z"), Term::var("y"), Term::var("s2")],
            ))
            .body_not(Atom::new("blocked", vec![Term::var("y")]))
            .head(Atom::new("p", vec![Term::var("x"), Term::var("y")]));
        let full = JoinPlan::for_rule(&rule);
        let legacy = JoinPlan::legacy(&rule);
        let planned =
            match_body_planned(&mut db, &rule, &full, true, &mut MatchMetrics::default()).unwrap();
        let legacy_ms =
            match_body_planned(&mut db, &rule, &legacy, true, &mut MatchMetrics::default())
                .unwrap();
        assert_eq!(planned.len(), legacy_ms.len());
        for (a, b) in planned.iter().zip(&legacy_ms) {
            assert_eq!(a.premises, b.premises);
            assert_eq!(a.bindings, b.bindings);
        }
    }

    #[test]
    fn empty_predicate_yields_no_matches() {
        let mut db = Database::new();
        let rule = RuleBuilder::new("r")
            .body(Atom::new("nothing", vec![Term::var("x")]))
            .head(Atom::new("p", vec![Term::var("x")]));
        assert!(match_body(&mut db, &rule).unwrap().is_empty());
    }
}

#[cfg(test)]
mod incremental_tests {
    use super::*;
    use crate::rule::RuleBuilder;

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

    #[test]
    fn watermark_zero_equals_full_matching() {
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        db.add("own", &["B".into(), "C".into(), 0.7.into()]);
        db.add("own", &["C".into(), "D".into(), 0.8.into()]);
        let rule = two_hop_rule();
        let full = match_body(&mut db, &rule).unwrap();
        let incr = match_body_incremental(&mut db, &rule, 0).unwrap();
        assert_eq!(full.len(), incr.len());
    }

    #[test]
    fn incremental_returns_only_matches_touching_new_facts() {
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        db.add("own", &["B".into(), "C".into(), 0.7.into()]);
        let watermark = db.len() as u32; // everything so far is old
        db.add("own", &["C".into(), "D".into(), 0.8.into()]);
        let rule = two_hop_rule();
        let ms = match_body_incremental(&mut db, &rule, watermark).unwrap();
        // Only B->C->D involves the new fact; A->B->C is old-old.
        assert_eq!(ms.len(), 1);
        assert_eq!(
            ms[0].bindings[&crate::symbol::Symbol::new("y")],
            Value::str("D")
        );
    }

    #[test]
    fn matches_with_two_new_facts_are_deduplicated() {
        let mut db = Database::new();
        let watermark = db.len() as u32;
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        db.add("own", &["B".into(), "C".into(), 0.7.into()]);
        let rule = two_hop_rule();
        // Both pivots produce the A->B->C match; it must appear once.
        let ms = match_body_incremental(&mut db, &rule, watermark).unwrap();
        assert_eq!(ms.len(), 1);
    }

    #[test]
    fn future_watermark_yields_nothing() {
        let mut db = Database::new();
        db.add("own", &["A".into(), "B".into(), 0.6.into()]);
        db.add("own", &["B".into(), "C".into(), 0.7.into()]);
        let rule = two_hop_rule();
        let ms = match_body_incremental(&mut db, &rule, 999).unwrap();
        assert!(ms.is_empty());
    }
}
