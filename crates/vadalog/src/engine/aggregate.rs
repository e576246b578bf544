//! Monotonic aggregation with per-group state kept across rounds.
//!
//! An aggregate rule's matches are grouped by the rule's group key
//! ([`Rule::aggregate_group_vars`]); each group folds the aggregate over
//! its contributors and fires one chase step. [`AggregateState`] keeps
//! every group's contributors — ordered by premise-id vector, each with
//! its bindings and aggregate input — between evaluations of the rule, so
//! a semi-naive round only merges the rule's *delta* matches instead of
//! re-enumerating and regrouping all of them:
//!
//! * [`AggregateState::merge`] adds new matches (skipping any over an
//!   inactive fact, and duplicates of a held premise vector);
//! * [`AggregateState::retire`] drops contributors whose premises were
//!   superseded (deactivated) since the rule's last evaluation, read from
//!   the engine's supersession log;
//! * [`AggregateState::fireable`] refolds the *dirty* groups — those that
//!   gained or lost a contributor — and hands them back in firing order.
//!
//! **Bitwise identity with full regrouping.** A full re-match groups the
//! rule's active matches sorted by premise vector and fires every group in
//! first-seen order, i.e. ordered by each group's smallest premise vector.
//! A group whose contributor set did not change since its last firing
//! refolds to the same value over the same premises, so firing it again
//! only meets its own recorded derivation and changes nothing but
//! counters. The dirty groups are therefore fired in the same relative
//! order, each refolded over *all* its contributors in premise order (a
//! running accumulator would not do: float `sum` is not associative), with
//! the premise union and contributor bindings built in that same order.
//! The one exception is a head with existential variables, whose
//! restricted-chase satisfaction check reads the store and may change
//! answer after a supersession; such rules fire every group.

use super::matcher::BodyMatch;
use crate::database::{Database, FactId};
use crate::error::EvalError;
use crate::expr::Bindings;
use crate::rule::{AggFunc, Rule};
use crate::symbol::Symbol;
use crate::value::Value;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::mem::{size_of, size_of_val};

/// One aggregated group ready to fire: the head bindings (group key plus
/// aggregate result), the union of contributing premises, and the
/// per-contributor match bindings, both in premise order.
pub(crate) struct AggGroup {
    pub(crate) bindings: Bindings,
    pub(crate) premises: Vec<FactId>,
    pub(crate) contributor_bindings: Vec<Bindings>,
}

/// One contributing body match of a group.
struct Contributor {
    bindings: Bindings,
    /// The aggregate input evaluated under `bindings`.
    input: Value,
}

/// The contributors of one group key, ordered by premise-id vector.
struct Group {
    key: Vec<Value>,
    contributors: BTreeMap<Vec<FactId>, Contributor>,
    /// Gained or lost a contributor since the group was last folded.
    dirty: bool,
}

/// The group state of one aggregate rule.
pub(crate) struct AggregateState {
    key_vars: Vec<Symbol>,
    /// Indices into `rule.conditions` of the post-aggregate conditions
    /// (those mentioning the aggregate result).
    post_conditions: Vec<usize>,
    groups: Vec<Group>,
    by_key: HashMap<Vec<Value>, usize>,
    /// Premise fact → the groups holding a contributor over it.
    by_premise: HashMap<FactId, Vec<usize>>,
    /// How much of the engine's supersession log has been applied.
    log_cursor: usize,
    /// Deterministic running estimate of the state's heap footprint.
    bytes: usize,
}

impl AggregateState {
    /// An empty state for `rule`. `log_len` is the current length of the
    /// supersession log: earlier entries are already reflected in the
    /// store's activity, which [`AggregateState::merge`] checks.
    pub(crate) fn new(rule: &Rule, log_len: usize) -> AggregateState {
        let agg = rule.aggregate.as_ref().expect("aggregate rule");
        let post_conditions = rule
            .conditions
            .iter()
            .enumerate()
            .filter(|(_, c)| {
                let mut vars = Vec::new();
                c.collect_vars(&mut vars);
                vars.contains(&agg.result)
            })
            .map(|(i, _)| i)
            .collect();
        AggregateState {
            key_vars: rule.aggregate_group_vars(),
            post_conditions,
            groups: Vec::new(),
            by_key: HashMap::new(),
            by_premise: HashMap::new(),
            log_cursor: log_len,
            bytes: 0,
        }
    }

    /// Approximate heap footprint in bytes: a deterministic function of
    /// the merge/retire sequence, charged to the run's memory budget.
    pub(crate) fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// Applies the supersession log entries appended since the last call:
    /// every contributor over a deactivated fact leaves its group, which
    /// becomes dirty.
    pub(crate) fn retire(&mut self, log: &[FactId]) {
        for fact in &log[self.log_cursor..] {
            let Some(groups) = self.by_premise.remove(fact) else {
                continue;
            };
            self.bytes -= size_of::<FactId>() + groups.len() * size_of::<usize>();
            for g in groups {
                let group = &mut self.groups[g];
                let mut freed = 0;
                group.contributors.retain(|premises, c| {
                    let keep = !premises.contains(fact);
                    if !keep {
                        freed += contributor_bytes(premises, &c.bindings);
                    }
                    keep
                });
                if freed > 0 {
                    group.dirty = true;
                    self.bytes -= freed;
                }
            }
        }
        self.log_cursor = log.len();
    }

    /// Merges body matches into their groups. Matches over an inactive
    /// fact are skipped (the full regrouping filters them the same way),
    /// as are premise vectors a group already holds — delta pivots and
    /// the commit-phase top-up can enumerate one match more than once.
    pub(crate) fn merge(
        &mut self,
        rule: &Rule,
        db: &Database,
        matches: Vec<BodyMatch>,
    ) -> Result<(), EvalError> {
        let agg = rule.aggregate.as_ref().expect("aggregate rule");
        for m in matches {
            if !m.premises.iter().all(|&p| db.is_active(p)) {
                continue;
            }
            // A key variable may be unbound only if it is existential;
            // such rules group everything together per distinct bound
            // part.
            let key: Vec<Value> = self
                .key_vars
                .iter()
                .map(|v| m.bindings.get(v).copied())
                .collect::<Option<_>>()
                .unwrap_or_default();
            let g = match self.by_key.get(&key) {
                Some(&g) => g,
                None => {
                    self.bytes += size_of::<Group>() + 2 * key.len() * size_of::<Value>();
                    self.by_key.insert(key.clone(), self.groups.len());
                    self.groups.push(Group {
                        key,
                        contributors: BTreeMap::new(),
                        dirty: false,
                    });
                    self.groups.len() - 1
                }
            };
            let group = &mut self.groups[g];
            if group.contributors.contains_key(&m.premises) {
                continue;
            }
            let input = agg.input.eval(&m.bindings)?;
            for &premise in &m.premises {
                let holders = self.by_premise.entry(premise).or_insert_with(|| {
                    self.bytes += size_of::<FactId>();
                    Vec::new()
                });
                if holders.last() != Some(&g) {
                    holders.push(g);
                    self.bytes += size_of::<usize>();
                }
            }
            self.bytes += contributor_bytes(&m.premises, &m.bindings);
            group.contributors.insert(
                m.premises,
                Contributor {
                    bindings: m.bindings,
                    input,
                },
            );
            group.dirty = true;
        }
        Ok(())
    }

    /// Refolds the dirty groups — every non-empty group when `all` — and
    /// returns those passing the post-aggregate conditions, ordered by
    /// each group's smallest premise vector. Clears the dirty flags.
    pub(crate) fn fireable(&mut self, rule: &Rule, all: bool) -> Result<Vec<AggGroup>, EvalError> {
        let agg = rule.aggregate.as_ref().expect("aggregate rule");
        let mut order: Vec<usize> = Vec::new();
        for (g, group) in self.groups.iter_mut().enumerate() {
            if (all || group.dirty) && !group.contributors.is_empty() {
                order.push(g);
            }
            group.dirty = false;
        }
        let groups = &self.groups;
        order.sort_by(|&a, &b| {
            groups[a]
                .contributors
                .keys()
                .next()
                .cmp(&groups[b].contributors.keys().next())
        });

        let mut out = Vec::new();
        'groups: for g in order {
            let group = &groups[g];
            let inputs: Vec<Value> = group.contributors.values().map(|c| c.input).collect();
            let value = fold_aggregate(agg.func, &inputs)?;
            let mut bindings = Bindings::new();
            for (v, val) in self.key_vars.iter().zip(&group.key) {
                bindings.insert(*v, *val);
            }
            bindings.insert(agg.result, value);
            // The conditions may also mention group-key variables (all
            // bound); other body variables are out of scope
            // post-aggregation and yield an error, which validation of
            // reasonable programs prevents.
            for &c in &self.post_conditions {
                if !rule.conditions[c].holds(&bindings)? {
                    continue 'groups;
                }
            }
            let mut seen: HashSet<FactId> = HashSet::new();
            let premises = group
                .contributors
                .keys()
                .flatten()
                .copied()
                .filter(|&p| seen.insert(p))
                .collect();
            out.push(AggGroup {
                bindings,
                premises,
                contributor_bindings: group
                    .contributors
                    .values()
                    .map(|c| c.bindings.clone())
                    .collect(),
            });
        }
        Ok(out)
    }
}

/// The estimated footprint of one contributor.
fn contributor_bytes(premises: &[FactId], bindings: &Bindings) -> usize {
    size_of::<Vec<FactId>>()
        + size_of::<Contributor>()
        + size_of_val(premises)
        + bindings.len() * size_of::<(Symbol, Value)>()
}

/// Folds an aggregate function over the contributed values.
pub(crate) fn fold_aggregate(func: AggFunc, inputs: &[Value]) -> Result<Value, EvalError> {
    match func {
        AggFunc::Count => Ok(Value::Int(inputs.len() as i64)),
        AggFunc::Sum | AggFunc::Prod => {
            let mut acc_i: i64 = if func == AggFunc::Sum { 0 } else { 1 };
            let mut acc_f: f64 = if func == AggFunc::Sum { 0.0 } else { 1.0 };
            let mut is_float = false;
            for v in inputs {
                match v {
                    Value::Int(i) => {
                        if func == AggFunc::Sum {
                            acc_i = acc_i.wrapping_add(*i);
                            acc_f += *i as f64;
                        } else {
                            acc_i = acc_i.wrapping_mul(*i);
                            acc_f *= *i as f64;
                        }
                    }
                    Value::Float(f) => {
                        is_float = true;
                        if func == AggFunc::Sum {
                            acc_f += *f;
                        } else {
                            acc_f *= *f;
                        }
                    }
                    other => return Err(EvalError::NonNumericOperand(*other)),
                }
            }
            if is_float {
                if acc_f.is_nan() {
                    Err(EvalError::NanResult)
                } else {
                    Ok(Value::Float(acc_f))
                }
            } else {
                Ok(Value::Int(acc_i))
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let mut best: Option<Value> = None;
            for v in inputs {
                best = Some(match best {
                    None => *v,
                    Some(b) => {
                        let ord = b
                            .partial_cmp_values(v)
                            .ok_or(EvalError::NonNumericOperand(*v))?;
                        let take_new = match func {
                            AggFunc::Min => ord == std::cmp::Ordering::Greater,
                            _ => ord == std::cmp::Ordering::Less,
                        };
                        if take_new {
                            *v
                        } else {
                            b
                        }
                    }
                });
            }
            best.ok_or(EvalError::NanResult)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_aggregates_cover_all_functions() {
        let ints = [Value::Int(2), Value::Int(3), Value::Int(4)];
        assert_eq!(fold_aggregate(AggFunc::Sum, &ints).unwrap(), Value::Int(9));
        assert_eq!(
            fold_aggregate(AggFunc::Prod, &ints).unwrap(),
            Value::Int(24)
        );
        assert_eq!(fold_aggregate(AggFunc::Min, &ints).unwrap(), Value::Int(2));
        assert_eq!(fold_aggregate(AggFunc::Max, &ints).unwrap(), Value::Int(4));
        assert_eq!(
            fold_aggregate(AggFunc::Count, &ints).unwrap(),
            Value::Int(3)
        );
        let mixed = [Value::Int(1), Value::Float(0.5)];
        assert_eq!(
            fold_aggregate(AggFunc::Sum, &mixed).unwrap(),
            Value::Float(1.5)
        );
        assert!(fold_aggregate(AggFunc::Sum, &[Value::str("x")]).is_err());
    }
}
