//! Seeded input generators and the stationary update streams.
//!
//! Every size is fixed by the workload, never by the seed: the seed only
//! chooses which companies a stake links, the stake weights, which
//! companies are designated, and which facts each delta swaps. Swap
//! deltas retract as many facts of a kind as they add, drawn from the
//! same distribution as the initial graph, so the graph keeps its size
//! and its statistics over any number of deltas, and the stream never
//! runs out.

use std::collections::HashSet;
use vadalog::{Database, Delta, Fact, Value};

/// SplitMix64: a small, fast, seedable generator with no dependencies.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next();
        rng
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo) as u64) as usize
    }
}

/// An input whose EDB evolves by a stream of deltas.
pub trait Stream {
    /// The current EDB in canonical order: the facts a delta keeps hold
    /// their relative order and the facts it adds follow them, the order
    /// a from-scratch chase must see to reproduce the maintained store.
    fn edb(&self) -> &[Fact];
    /// The next delta of the stream, already applied to [`Stream::edb`].
    fn next_delta(&mut self) -> Delta;
}

/// An EDB list kept in canonical order under retract/add.
#[derive(Clone, Debug, Default)]
struct Edb(Vec<Fact>);

impl Edb {
    fn apply(&mut self, retracted: Vec<Fact>, added: Vec<Fact>) -> Delta {
        for fact in &retracted {
            let at = self
                .0
                .iter()
                .position(|f| f == fact)
                .expect("a swap retracts only asserted facts");
            self.0.remove(at);
        }
        self.0.extend(added.iter().cloned());
        Delta::new().retract_all(retracted).add_all(added)
    }
}

pub fn company(i: usize) -> Value {
    format!("C{i}").as_str().into()
}

fn own(from: Value, to: Value, pct: usize) -> Fact {
    Fact::new("own", vec![from, to, (pct as f64 / 100.0).into()])
}

/// A fixed-size random ownership DAG over `companies` companies split
/// into blocks of `block` consecutive companies: exactly `stakes`
/// distinct `(from, to)` pairs, each linking a company to a
/// higher-numbered one of its block, with a share of 5–95%. Blocks never
/// link, so the control and exposure closures are sums over many
/// independent blocks and their size is a property of the workload, not
/// of the seed.
#[derive(Clone, Debug)]
struct Ownership {
    companies: usize,
    block: usize,
    stakes: Vec<((usize, usize), Fact)>,
    pairs: HashSet<(usize, usize)>,
}

impl Ownership {
    fn generate(companies: usize, stakes: usize, block: usize, rng: &mut Rng) -> Ownership {
        let mut graph = Ownership {
            companies,
            block,
            stakes: Vec::with_capacity(stakes),
            pairs: HashSet::with_capacity(stakes),
        };
        while graph.stakes.len() < stakes {
            let stake = graph.draw(rng);
            graph.stakes.push(stake);
        }
        graph
    }

    fn facts(&self) -> impl Iterator<Item = Fact> + '_ {
        self.stakes.iter().map(|(_, fact)| fact.clone())
    }

    /// A stake over a pair the graph does not hold yet; claims the pair.
    fn draw(&mut self, rng: &mut Rng) -> ((usize, usize), Fact) {
        loop {
            let from = rng.range(0, self.companies);
            let end = ((from / self.block + 1) * self.block).min(self.companies);
            if from + 1 >= end {
                continue;
            }
            let to = rng.range(from + 1, end);
            if self.pairs.insert((from, to)) {
                return (
                    (from, to),
                    own(company(from), company(to), rng.range(5, 96)),
                );
            }
        }
    }

    /// Replaces `count` random stakes by `count` fresh ones over pairs
    /// the graph held neither before nor during the swap: returns the
    /// retracted and the added facts.
    fn swap(&mut self, count: usize, rng: &mut Rng) -> (Vec<Fact>, Vec<Fact>) {
        let retracted: Vec<_> = (0..count)
            .map(|_| self.stakes.swap_remove(rng.range(0, self.stakes.len())))
            .collect();
        let added: Vec<_> = (0..count).map(|_| self.draw(rng)).collect();
        for (pair, _) in &retracted {
            self.pairs.remove(pair);
        }
        self.stakes.extend(added.iter().cloned());
        (
            retracted.into_iter().map(|(_, f)| f).collect(),
            added.into_iter().map(|(_, f)| f).collect(),
        )
    }
}

/// A fixed majority chain `S0 -> S1 -> ... -> S{len}` of `own` stakes:
/// longer than any chain the random blocks form, it alone sets the
/// number of chase rounds, so the seed cannot change it. Swaps never
/// touch it.
fn spine(len: usize) -> Vec<Fact> {
    (0..len)
        .map(|i| own(spine_node(i), spine_node(i + 1), 60))
        .collect()
}

fn spine_node(i: usize) -> Value {
    format!("S{i}").as_str().into()
}

/// Sizes of the company-control input.
#[derive(Clone, Copy, Debug)]
pub struct ControlSize {
    pub companies: usize,
    pub stakes: usize,
    pub block: usize,
    pub spine: usize,
    pub swap: usize,
}

impl ControlSize {
    pub const FULL: ControlSize = ControlSize {
        companies: 1200,
        stakes: 2400,
        block: 24,
        spine: 8,
        swap: 4,
    };
    pub const TINY: ControlSize = ControlSize {
        companies: 60,
        stakes: 120,
        block: 12,
        spine: 5,
        swap: 2,
    };
}

/// The company-control input: `company` facts (σ2's self-control), the
/// spine, and the random ownership blocks.
#[derive(Clone, Debug)]
pub struct ControlInput {
    graph: Ownership,
    edb: Edb,
    rng: Rng,
    swap: usize,
}

impl ControlInput {
    pub fn new(seed: u64, size: ControlSize) -> ControlInput {
        let mut rng = Rng::new(seed, 1);
        let graph = Ownership::generate(size.companies, size.stakes, size.block, &mut rng);
        let mut facts: Vec<Fact> = (0..size.companies)
            .map(|i| Fact::new("company", vec![company(i)]))
            .collect();
        facts.extend((0..=size.spine).map(|i| Fact::new("company", vec![spine_node(i)])));
        facts.extend(spine(size.spine));
        facts.extend(graph.facts());
        ControlInput {
            graph,
            edb: Edb(facts),
            rng: Rng::new(seed, 2),
            swap: size.swap,
        }
    }
}

impl Stream for ControlInput {
    fn edb(&self) -> &[Fact] {
        &self.edb.0
    }

    /// Swaps `swap` stakes.
    fn next_delta(&mut self) -> Delta {
        let (retracted, added) = self.graph.swap(self.swap, &mut self.rng);
        self.edb.apply(retracted, added)
    }
}

/// Sizes of the sanctions-screening input.
#[derive(Clone, Copy, Debug)]
pub struct SanctionsSize {
    pub companies: usize,
    pub stakes: usize,
    pub block: usize,
    pub spine: usize,
    pub designated: usize,
    pub swap_stakes: usize,
    pub swap_designations: usize,
}

impl SanctionsSize {
    pub const FULL: SanctionsSize = SanctionsSize {
        companies: 4000,
        stakes: 4800,
        block: 30,
        spine: 12,
        designated: 400,
        swap_stakes: 4,
        swap_designations: 1,
    };
    pub const TINY: SanctionsSize = SanctionsSize {
        companies: 120,
        stakes: 150,
        block: 12,
        spine: 6,
        designated: 12,
        swap_stakes: 2,
        swap_designations: 1,
    };
}

/// The sanctions-screening input: the spine (ending in a sanctioned
/// company), the random ownership blocks (stakes of at least 20% carry
/// exposure), and a fixed number of `sanctioned` companies.
#[derive(Clone, Debug)]
pub struct SanctionsInput {
    graph: Ownership,
    sanctioned: Vec<usize>,
    designated: HashSet<usize>,
    edb: Edb,
    rng: Rng,
    size: SanctionsSize,
}

impl SanctionsInput {
    pub fn new(seed: u64, size: SanctionsSize) -> SanctionsInput {
        let mut rng = Rng::new(seed, 3);
        let graph = Ownership::generate(size.companies, size.stakes, size.block, &mut rng);
        let mut facts = spine(size.spine);
        facts.push(Fact::new("sanctioned", vec![spine_node(size.spine)]));
        facts.extend(graph.facts());
        let mut input = SanctionsInput {
            graph,
            sanctioned: Vec::with_capacity(size.designated),
            designated: HashSet::with_capacity(size.designated),
            edb: Edb(facts),
            rng,
            size,
        };
        while input.sanctioned.len() < size.designated {
            let c = input.undesignated();
            input.sanctioned.push(c);
            input.edb.0.push(designation(c));
        }
        input.rng = Rng::new(seed, 4);
        input
    }

    /// A company not designated yet; claims it.
    fn undesignated(&mut self) -> usize {
        loop {
            let c = self.rng.range(0, self.size.companies);
            if self.designated.insert(c) {
                return c;
            }
        }
    }
}

impl Stream for SanctionsInput {
    fn edb(&self) -> &[Fact] {
        &self.edb.0
    }

    /// Swaps stakes and moves designations to undesignated companies.
    fn next_delta(&mut self) -> Delta {
        let (mut retracted, mut added) = self.graph.swap(self.size.swap_stakes, &mut self.rng);
        let lifted: Vec<usize> = (0..self.size.swap_designations)
            .map(|_| {
                self.sanctioned
                    .swap_remove(self.rng.range(0, self.sanctioned.len()))
            })
            .collect();
        for _ in 0..self.size.swap_designations {
            let c = self.undesignated();
            self.sanctioned.push(c);
            added.push(designation(c));
        }
        for c in lifted {
            self.designated.remove(&c);
            retracted.push(designation(c));
        }
        self.edb.apply(retracted, added)
    }
}

fn designation(c: usize) -> Fact {
    Fact::new("sanctioned", vec![company(c)])
}

/// Sizes of the deep-chain input.
#[derive(Clone, Copy, Debug)]
pub struct ChainSize {
    pub max_hops: usize,
    pub per_hops: usize,
    pub swap: usize,
}

impl ChainSize {
    pub const FULL: ChainSize = ChainSize {
        max_hops: 10,
        per_hops: 1,
        swap: 2,
    };
    pub const TINY: ChainSize = ChainSize {
        max_hops: 4,
        per_hops: 2,
        swap: 1,
    };
}

/// One hop of a chain: the helper's stake `s1` and the direct stake
/// `s2`, in percent, held jointly.
#[derive(Clone, Copy, Debug)]
struct Hop {
    s1: usize,
    s2: usize,
}

/// The direct stakes that keep a hop a joint, never a sole, majority:
/// `s1 + s2 > 50` and `s2 < 45`.
fn s2_range(s1: usize) -> (usize, usize) {
    ((51 - s1).max(6), 45)
}

fn chain_node(h: usize, c: usize, i: usize) -> Value {
    format!("J{h}_{c}_{i}").as_str().into()
}

fn chain_helper(h: usize, c: usize, i: usize) -> Value {
    format!("H{h}_{c}_{i}").as_str().into()
}

/// Entity-disjoint jointly held control chains (the construction of
/// `finkg::control_bundle_aggregated`, with names unique across hop
/// counts): `per_hops` chains of each length in `1..=max_hops`. Every
/// hop is held by the parent directly and through a 90%-owned helper,
/// so each `control(J{h}_{c}_0, J{h}_{c}_{h})` needs the aggregate rule
/// once per hop. Deltas move the direct stake of random hops within the
/// joint-majority range, so the derived facts and the proof shapes never
/// change while the explained shares do.
#[derive(Clone, Debug)]
pub struct ChainInput {
    hops: Vec<(usize, usize, usize, Hop)>,
    edb: Edb,
    rng: Rng,
    swap: usize,
    /// `goals[h - 1]` holds the goals whose chain has `h` hops.
    pub goals: Vec<Vec<Fact>>,
}

impl ChainInput {
    pub fn new(seed: u64, size: ChainSize) -> ChainInput {
        let mut rng = Rng::new(seed, 5);
        let mut facts = Vec::new();
        let mut hops = Vec::new();
        let mut goals = Vec::with_capacity(size.max_hops);
        for h in 1..=size.max_hops {
            let mut of_len = Vec::with_capacity(size.per_hops);
            for c in 0..size.per_hops {
                facts.push(Fact::new("company", vec![chain_node(h, c, 0)]));
                for i in 0..h {
                    let s1 = rng.range(26, 45);
                    let (lo, hi) = s2_range(s1);
                    let hop = Hop {
                        s1,
                        s2: rng.range(lo, hi),
                    };
                    facts.push(Fact::new("company", vec![chain_node(h, c, i + 1)]));
                    facts.push(own(chain_node(h, c, i), chain_helper(h, c, i + 1), 90));
                    facts.push(own(
                        chain_helper(h, c, i + 1),
                        chain_node(h, c, i + 1),
                        hop.s1,
                    ));
                    facts.push(own(chain_node(h, c, i), chain_node(h, c, i + 1), hop.s2));
                    hops.push((h, c, i, hop));
                }
                of_len.push(Fact::new(
                    "control",
                    vec![chain_node(h, c, 0), chain_node(h, c, h)],
                ));
            }
            goals.push(of_len);
        }
        ChainInput {
            hops,
            edb: Edb(facts),
            rng: Rng::new(seed, 6),
            swap: size.swap,
            goals,
        }
    }
}

impl Stream for ChainInput {
    fn edb(&self) -> &[Fact] {
        &self.edb.0
    }

    /// Moves the direct stake of `swap` distinct random hops.
    fn next_delta(&mut self) -> Delta {
        let mut retracted = Vec::with_capacity(self.swap);
        let mut added = Vec::with_capacity(self.swap);
        let mut touched = HashSet::new();
        while retracted.len() < self.swap {
            let k = self.rng.range(0, self.hops.len());
            if !touched.insert(k) {
                continue;
            }
            let (h, c, i, hop) = &mut self.hops[k];
            let (lo, hi) = s2_range(hop.s1);
            let s2 = loop {
                let s2 = self.rng.range(lo, hi);
                if s2 != hop.s2 {
                    break s2;
                }
            };
            let (from, to) = (chain_node(*h, *c, *i), chain_node(*h, *c, *i + 1));
            retracted.push(own(from, to, hop.s2));
            added.push(own(from, to, s2));
            hop.s2 = s2;
        }
        self.edb.apply(retracted, added)
    }
}

/// Renders rules and facts as one program text, the form a deployment
/// loads from disk.
pub fn render(rules: &str, facts: &[Fact]) -> String {
    use std::fmt::Write;
    let mut text = String::with_capacity(rules.len() + facts.len() * 32);
    text.push_str(rules);
    text.push('\n');
    for fact in facts {
        let _ = writeln!(text, "{fact}.");
    }
    text
}

pub fn database(facts: &[Fact]) -> Database {
    facts.iter().cloned().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn swaps_keep_every_size_fixed() {
        let mut control = ControlInput::new(7, ControlSize::TINY);
        let mut sanctions = SanctionsInput::new(7, SanctionsSize::TINY);
        let mut chains = ChainInput::new(7, ChainSize::TINY);
        for stream in [&mut control as &mut dyn Stream, &mut sanctions, &mut chains] {
            let before: Vec<Fact> = stream.edb().to_vec();
            for _ in 0..300 {
                stream.next_delta();
            }
            let after = stream.edb();
            assert_eq!(after.len(), before.len());
            assert_ne!(after, &before[..]);
            let distinct: HashSet<&Fact> = after.iter().collect();
            assert_eq!(distinct.len(), after.len(), "no duplicate EDB facts");
            let count = |facts: &[Fact], p: &str| {
                facts.iter().filter(|f| f.predicate.as_str() == p).count()
            };
            for p in ["own", "company", "sanctioned"] {
                assert_eq!(count(after, p), count(&before, p), "{p} count moved");
            }
        }
    }

    #[test]
    fn the_seed_changes_the_wiring_not_the_sizes() {
        let a = ControlInput::new(1, ControlSize::TINY);
        let b = ControlInput::new(1, ControlSize::TINY);
        let c = ControlInput::new(2, ControlSize::TINY);
        assert_eq!(a.edb(), b.edb());
        assert_eq!(a.edb().len(), c.edb().len());
        assert_ne!(a.edb(), c.edb());
    }

    #[test]
    fn rendered_text_parses_back_to_the_same_facts() {
        let input = SanctionsInput::new(3, SanctionsSize::TINY);
        let parsed = vadalog::parse_program(&render(finkg::apps::sanctions::RULES, input.edb()))
            .expect("rendered input parses");
        assert_eq!(parsed.facts, input.edb());
        assert_eq!(parsed.program.len(), 4);
    }
}
