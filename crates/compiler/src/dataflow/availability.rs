//! Forward all-paths availability over per-block gen/kill summaries.
//!
//! `load_fwd` (memory-cell facts) and `gvn` (expression holders) solve
//! the same problem: a fact is available at a point when, on **every**
//! path from the entry, it was generated after it was last killed
//! (meet = ∩, entry = ∅). Each pass describes its fact universe through
//! [`GenKill`] — what one op kills and generates — and this module does
//! the rest once per call:
//!
//! 1. [`summarise`] composes the per-op transfers of each block into
//!    one `gen`/`kill` pair, so `out = (in ∖ kill) ∪ gen`;
//! 2. [`solve`] iterates that equation word by word in reverse
//!    postorder, without touching an op again.
//!
//! The pass then walks each reachable block once from its entry set,
//! stepping op by op with [`GenKill::transfer`], to find its rewrites.

use super::BitSet;
use teamplay_minic::ir::{IrFunction, IrOp, MemBase, Temp};

/// A fact universe with per-op transfer functions. Ops are addressed
/// by `(block, op index)` in the function the universe was built from.
pub trait GenKill {
    /// Number of facts; ids are `0..universe()`.
    fn universe(&self) -> usize;

    /// Remove from `set` every fact op `(b, i)` (which is `op`) kills.
    fn kill(&self, b: usize, i: usize, op: &IrOp, set: &mut BitSet);

    /// The fact op `(b, i)` makes available after its kills.
    fn gen(&self, b: usize, i: usize) -> Option<usize>;

    /// The whole transfer of op `(b, i)`: its kills, then its gen.
    fn transfer(&self, b: usize, i: usize, op: &IrOp, set: &mut BitSet) {
        self.kill(b, i, op, set);
        if let Some(g) = self.gen(b, i) {
            set.insert(g);
        }
    }
}

/// Compose the per-op transfers of every block into `(gen, kill)`
/// summaries over `facts`. A block's `kill` holds every fact some op of
/// the block kills; its `gen` holds the facts still generated at its
/// end, so the block maps `in` to `(in ∖ kill) ∪ gen`.
pub fn summarise<T: GenKill + ?Sized>(f: &IrFunction, facts: &T) -> (Vec<BitSet>, Vec<BitSet>) {
    let n = facts.universe();
    let mut gens = Vec::with_capacity(f.blocks.len());
    let mut kills = Vec::with_capacity(f.blocks.len());
    for (b, blk) in f.blocks.iter().enumerate() {
        // `keep` is the complement of `kill`: the kills of an op apply
        // to it exactly as they apply to `gen`.
        let mut keep = BitSet::full(n);
        let mut gen = BitSet::new(n);
        for (i, op) in blk.ops.iter().enumerate() {
            facts.kill(b, i, op, &mut keep);
            facts.transfer(b, i, op, &mut gen);
        }
        gens.push(gen);
        kills.push(complement(keep));
    }
    (gens, kills)
}

/// The set of `0..len` not in `s`.
fn complement(mut s: BitSet) -> BitSet {
    for (w, word) in s.words.iter_mut().enumerate() {
        *word = !*word & full_word(s.len, w);
    }
    s
}

/// Solve forward all-paths availability: `in[0] = ∅`,
/// `in[b] = ∩ out[p]` over `b`'s predecessors, and
/// `out[b] = (in[b] ∖ kill[b]) ∪ gen[b]`, iterated over `rpo` (the
/// reachable blocks, entry first) to the greatest fixpoint. Returns the
/// `in` sets; blocks off `rpo` keep the full set (no path reaches them,
/// so every fact holds vacuously and they never constrain a meet).
pub fn solve(rpo: &[usize], preds: &[Vec<usize>], gen: &[BitSet], kill: &[BitSet]) -> Vec<BitSet> {
    let nb = gen.len();
    let n = gen.first().map_or(0, BitSet::universe);
    let mut avail_in: Vec<BitSet> = (0..nb).map(|_| BitSet::full(n)).collect();
    let mut avail_out = avail_in.clone();
    if nb > 0 {
        avail_in[0] = BitSet::new(n);
    }
    let words = n.div_ceil(64);
    loop {
        let mut changed = false;
        for &b in rpo {
            // `in[b]` feeds only `out[b]`, so a stable sweep of the
            // `out` sets is the fixpoint.
            if b != 0 {
                for w in 0..words {
                    avail_in[b].words[w] = preds[b]
                        .iter()
                        .fold(full_word(n, w), |acc, &p| acc & avail_out[p].words[w]);
                }
            }
            let (inn, out) = (&avail_in[b], &mut avail_out[b]);
            for w in 0..words {
                let next = (inn.words[w] & !kill[b].words[w]) | gen[b].words[w];
                changed |= next != out.words[w];
                out.words[w] = next;
            }
        }
        if !changed {
            break;
        }
    }
    avail_in
}

/// Word `w` of the full set over `0..n`.
fn full_word(n: usize, w: usize) -> u64 {
    let rest = n - w * 64;
    if rest >= 64 {
        u64::MAX
    } else {
        (1u64 << rest) - 1
    }
}

/// Summarise `facts` over `f` and solve: the availability at the entry
/// of every block (full for blocks off `rpo`).
pub fn available_in<T: GenKill + ?Sized>(
    f: &IrFunction,
    rpo: &[usize],
    preds: &[Vec<usize>],
    facts: &T,
) -> Vec<BitSet> {
    let (gen, kill) = summarise(f, facts);
    solve(rpo, preds, &gen, &kill)
}

/// Facts by the temps they read: redefining a temp kills exactly its
/// list. Built once per universe (a counting sort), no hashing.
#[derive(Debug, Default)]
pub(crate) struct TempIndex {
    /// `facts[start[t]..start[t + 1]]` read temp `t`.
    start: Vec<u32>,
    facts: Vec<u32>,
}

impl TempIndex {
    /// Index `(temp, fact)` read pairs.
    pub(crate) fn new(pairs: &[(Temp, u32)]) -> TempIndex {
        let temps = pairs.iter().map(|(t, _)| t.0 as usize + 1).max();
        let mut start = vec![0u32; temps.unwrap_or(0) + 1];
        for (t, _) in pairs {
            start[t.0 as usize + 1] += 1;
        }
        for t in 1..start.len() {
            start[t] += start[t - 1];
        }
        let mut next = start.clone();
        let mut facts = vec![0; pairs.len()];
        for &(t, id) in pairs {
            let slot = &mut next[t.0 as usize];
            facts[*slot as usize] = id;
            *slot += 1;
        }
        TempIndex { start, facts }
    }

    /// Remove from `set` every fact that reads `t`.
    pub(crate) fn kill(&self, t: Temp, set: &mut BitSet) {
        let t = t.0 as usize;
        if t + 1 < self.start.len() {
            let (lo, hi) = (self.start[t] as usize, self.start[t + 1] as usize);
            for &id in &self.facts[lo..hi] {
                set.remove(id as usize);
            }
        }
    }
}

/// "No id" in the dense per-op and per-fact tables of a fact universe.
pub(crate) const NO_ID: u32 = u32::MAX;

/// Per-key lists of fact ids in ascending order (a key being an
/// expression class or a memory cell), linked through the facts: one
/// table for all keys, not one allocation per key. Every fact joins
/// exactly one list, in id order.
#[derive(Debug, Default)]
pub(crate) struct FactLists {
    head: Vec<u32>,
    tail: Vec<u32>,
    next: Vec<u32>,
}

impl FactLists {
    /// Open an empty list; returns its key.
    pub(crate) fn open(&mut self) -> u32 {
        self.head.push(NO_ID);
        self.tail.push(NO_ID);
        self.head.len() as u32 - 1
    }

    /// Append fact `id`, the next unlisted fact, to the list of `key`.
    pub(crate) fn push(&mut self, key: u32, id: u32) {
        debug_assert_eq!(id as usize, self.next.len());
        let key = key as usize;
        match self.tail[key] {
            NO_ID => self.head[key] = id,
            tail => self.next[tail as usize] = id,
        }
        self.tail[key] = id;
        self.next.push(NO_ID);
    }

    /// The facts listed under `key`, ascending.
    pub(crate) fn iter(&self, key: u32) -> impl Iterator<Item = usize> + '_ {
        let mut id = self.head[key as usize];
        std::iter::from_fn(move || {
            let cur = id;
            (cur != NO_ID).then(|| {
                id = self.next[cur as usize];
                cur as usize
            })
        })
    }
}

/// Small dense ids for the memory bases of one function, in first-use
/// order. Functions name a handful of arrays, so a linear scan beats
/// hashing the names of globals.
#[derive(Debug, Default)]
pub(crate) struct BaseIds<'a> {
    bases: Vec<&'a MemBase>,
}

impl<'a> BaseIds<'a> {
    /// The id of `base`, assigning the next one on first sight.
    pub(crate) fn intern(&mut self, base: &'a MemBase) -> u32 {
        let id = match self.bases.iter().position(|&b| b == base) {
            Some(id) => id,
            None => {
                self.bases.push(base);
                self.bases.len() - 1
            }
        };
        id as u32
    }

    /// Which ids name `Param` bases (which may alias any array).
    pub(crate) fn param_flags(&self) -> Vec<bool> {
        self.bases
            .iter()
            .map(|b| matches!(b, MemBase::Param(_)))
            .collect()
    }
}
