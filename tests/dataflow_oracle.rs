//! Oracle tests for the dataflow backbone: on randomly generated Mini-C
//! kernels (further randomised by registry pipelines, so the CFGs carry
//! diamonds, loops and unreachable-after-folding shapes), the packed
//! fixpoint analyses must agree with naive, obviously-correct
//! recomputation:
//!
//! * **dominance** — `a dom b` iff deleting `a` disconnects `b` from
//!   the entry (path-based definition, checked by DFS per pair);
//! * **liveness** — `t` live into `b` iff some path from the start of
//!   `b` reads `t` before writing it (checked by first-touch DFS);
//! * **def-use** — def/use sites match a per-op rescan, and
//!   `single_def` answers exactly the temps with one op definition;
//! * **availability** — a fact is available at a block's entry iff, on
//!   every path from the entry, its last gen comes after its last kill
//!   (checked by DFS over (block, available?) states). This runs on the
//!   `load_fwd` and `gvn` fact universes (of the general and of the
//!   memory-heavy random kernels), whose per-op transfers the solver's
//!   block summaries compose, and on random block-level gen/kill sets
//!   wider than one word.

mod common;

use common::{app_modules, arb_kernel, arb_memory_kernel, reshaped, MEMORY_RESHAPERS, RESHAPERS};
use proptest::prelude::*;
use teamplay_compiler::dataflow::availability::{available_in, solve};
use teamplay_compiler::dataflow::{
    for_each_read, for_each_term_read, for_each_write, BitSet, GenKill,
};
use teamplay_compiler::passes::{GvnFacts, LoadFwdFacts};
use teamplay_compiler::{DefUse, DomTree, Liveness};
use teamplay_minic::cfg::{self, CfgView};
use teamplay_minic::ir::{IrFunction, Temp};

/// Blocks reachable from the entry, optionally pretending `skip` and
/// its out-edges are deleted.
fn reachable(f: &IrFunction, skip: Option<usize>) -> Vec<bool> {
    let mut seen = vec![false; f.blocks.len()];
    if Some(0) == skip {
        return seen;
    }
    let mut stack = vec![0usize];
    seen[0] = true;
    while let Some(b) = stack.pop() {
        for s in f.successors(b) {
            if Some(s) != skip && !seen[s] {
                seen[s] = true;
                stack.push(s);
            }
        }
    }
    seen
}

/// Naive path-based liveness: is some read of `t` reachable from the
/// start of `b` before any write to `t`?
fn naive_live_in(f: &IrFunction, b: usize, t: Temp) -> bool {
    let mut seen = vec![false; f.blocks.len()];
    let mut stack = vec![b];
    seen[b] = true;
    while let Some(cur) = stack.pop() {
        let blk = &f.blocks[cur];
        let mut verdict: Option<bool> = None;
        for op in &blk.ops {
            let mut read = false;
            for_each_read(op, |r| read |= r == t);
            if read {
                verdict = Some(true);
                break;
            }
            let mut written = false;
            for_each_write(op, |w| written |= w == t);
            if written {
                verdict = Some(false);
                break;
            }
        }
        if verdict.is_none() {
            let mut read = false;
            for_each_term_read(&blk.term, |r| read |= r == t);
            if read {
                verdict = Some(true);
            }
        }
        match verdict {
            Some(true) => return true,
            Some(false) => {}
            None => {
                for s in f.successors(cur) {
                    if !seen[s] {
                        seen[s] = true;
                        stack.push(s);
                    }
                }
            }
        }
    }
    false
}

fn oracle_check(f: &IrFunction) {
    let name = &f.name;
    let dom = DomTree::build(f);
    let live = Liveness::build(f);
    let du = DefUse::build(f);
    let n = f.blocks.len();
    let from_entry = reachable(f, None);

    // Dominance against the path definition, every reachable pair.
    for a in (0..n).filter(|&a| from_entry[a]) {
        let cut = reachable(f, Some(a));
        for b in (0..n).filter(|&b| from_entry[b]) {
            let expect = a == b || !cut[b];
            assert_eq!(
                dom.dominates(a, b),
                expect,
                "{name}: dominates({a}, {b}) disagrees with the path oracle"
            );
        }
    }

    // Liveness against first-touch path search, every block × temp.
    for b in (0..n).filter(|&b| from_entry[b]) {
        for t in 0..f.temp_count {
            assert_eq!(
                live.is_live_in(b, Temp(t)),
                naive_live_in(f, b, Temp(t)),
                "{name}: live-in of t{t} at block {b} disagrees with the path oracle"
            );
        }
    }

    // Def-use against a naive rescan.
    let nt = f.temp_count as usize;
    let mut defs = vec![Vec::new(); nt];
    let mut uses = vec![Vec::new(); nt];
    for (bi, blk) in f.blocks.iter().enumerate() {
        for (oi, op) in blk.ops.iter().enumerate() {
            for_each_read(op, |r| uses[r.0 as usize].push((bi, oi)));
            for_each_write(op, |w| defs[w.0 as usize].push((bi, oi)));
        }
        for_each_term_read(&blk.term, |r| uses[r.0 as usize].push((bi, blk.ops.len())));
    }
    for t in 0..nt {
        let temp = Temp(t as u32);
        assert_eq!(du.defs(temp), &defs[t][..], "{name}: defs of t{t}");
        assert_eq!(du.uses(temp), &uses[t][..], "{name}: uses of t{t}");
        let is_param = f.params.iter().any(|p| p.temp == temp);
        assert_eq!(du.is_param(temp), is_param, "{name}: is_param of t{t}");
        let expect_single = (!is_param && defs[t].len() == 1).then(|| defs[t][0]);
        assert_eq!(
            du.single_def(temp),
            expect_single,
            "{name}: single_def of t{t}"
        );
    }
}

/// Naive path-based availability of one fact at every block entry,
/// given each block's net effect on it (`Some(true)` = generated last,
/// `Some(false)` = killed last, `None` = transparent): the fact is
/// unavailable at `b` iff some path from the entry — where nothing is
/// available — reaches `b` with it unavailable.
fn naive_available(f: &IrFunction, effect: &[Option<bool>]) -> Vec<bool> {
    let n = f.blocks.len();
    let mut seen = vec![[false; 2]; n];
    let mut stack = vec![(0usize, false)];
    seen[0][0] = true;
    while let Some((b, avail)) = stack.pop() {
        let out = effect[b].unwrap_or(avail);
        for s in f.successors(b) {
            if !seen[s][usize::from(out)] {
                seen[s][usize::from(out)] = true;
                stack.push((s, out));
            }
        }
    }
    seen.iter().map(|s| !s[0]).collect()
}

/// The solver on a pass's fact universe against the path definition,
/// replaying every op's transfer on the single fact.
fn availability_check(f: &IrFunction, label: &str, facts: &dyn GenKill) {
    let rpo = cfg::reverse_postorder(f);
    let preds = cfg::predecessors(f);
    let n = facts.universe();
    let avail_in = available_in(f, &rpo, &preds, facts);
    for x in 0..n {
        let effect: Vec<Option<bool>> = f
            .blocks
            .iter()
            .enumerate()
            .map(|(b, blk)| {
                let mut last = None;
                for (i, op) in blk.ops.iter().enumerate() {
                    let mut only = BitSet::new(n);
                    only.insert(x);
                    facts.kill(b, i, op, &mut only);
                    if !only.contains(x) {
                        last = Some(false);
                    }
                    if facts.gen(b, i) == Some(x) {
                        last = Some(true);
                    }
                }
                last
            })
            .collect();
        for (b, expect) in naive_available(f, &effect).into_iter().enumerate() {
            assert_eq!(
                avail_in[b].contains(x),
                expect,
                "{}: {label} fact {x} at block {b} disagrees with the path oracle",
                f.name
            );
        }
    }
}

/// The raw solver on seeded random block gen/kill sets over 70 facts
/// (two words), on `f`'s CFG.
fn random_summary_check(f: &IrFunction, seed: u64) {
    const FACTS: usize = 70;
    let mut state = seed | 1;
    let mut draw = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut gen = Vec::new();
    let mut kill = Vec::new();
    for _ in &f.blocks {
        let (mut g, mut k) = (BitSet::new(FACTS), BitSet::new(FACTS));
        for x in 0..FACTS {
            match draw() % 4 {
                0 => {
                    g.insert(x);
                }
                1 => {
                    k.insert(x);
                }
                2 => {
                    // Killed, then generated again later in the block.
                    g.insert(x);
                    k.insert(x);
                }
                _ => {}
            }
        }
        gen.push(g);
        kill.push(k);
    }
    let avail_in = solve(
        &cfg::reverse_postorder(f),
        &cfg::predecessors(f),
        &gen,
        &kill,
    );
    for x in 0..FACTS {
        let effect: Vec<Option<bool>> = (0..f.blocks.len())
            .map(|b| {
                if gen[b].contains(x) {
                    Some(true)
                } else if kill[b].contains(x) {
                    Some(false)
                } else {
                    None
                }
            })
            .collect();
        for (b, expect) in naive_available(f, &effect).into_iter().enumerate() {
            assert_eq!(
                avail_in[b].contains(x),
                expect,
                "{}: random fact {x} at block {b} disagrees with the path oracle",
                f.name
            );
        }
    }
}

fn availability_checks(f: &IrFunction, seed: u64) {
    availability_check(f, "load_fwd", &LoadFwdFacts::build(f));
    availability_check(f, "gvn", &GvnFacts::build(f, &DefUse::build(f)));
    random_summary_check(f, seed);
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn packed_analyses_agree_with_naive_recomputation(
        src in arb_kernel(),
        reshape in 0usize..RESHAPERS.len(),
    ) {
        let module = reshaped(&src, RESHAPERS[reshape]);
        for f in &module.functions {
            oracle_check(f);
        }
    }

    #[test]
    fn availability_agrees_with_the_path_definition(
        src in arb_kernel(),
        reshape in 0usize..RESHAPERS.len(),
        seed in any::<u64>(),
    ) {
        let module = reshaped(&src, RESHAPERS[reshape]);
        for f in &module.functions {
            availability_checks(f, seed);
        }
    }

    #[test]
    fn availability_agrees_on_memory_heavy_kernels(
        src in arb_memory_kernel(),
        reshape in 0usize..MEMORY_RESHAPERS.len(),
        seed in any::<u64>(),
    ) {
        let module = reshaped(&src, MEMORY_RESHAPERS[reshape]);
        for f in &module.functions {
            availability_checks(f, seed);
        }
    }
}

/// The shipped application kernels are free extra coverage: real CFGs
/// with nested loops and calls, before and after their tuned pipelines.
#[test]
fn packed_analyses_agree_on_the_app_kernels() {
    for (_, module) in app_modules() {
        for f in &module.functions {
            oracle_check(f);
        }
    }
}

/// The availability oracle on the app kernels, raw and tuned.
#[test]
fn availability_agrees_on_the_app_kernels() {
    for (k, (_, module)) in app_modules().into_iter().enumerate() {
        for f in &module.functions {
            availability_checks(f, k as u64 + 1);
        }
    }
}
