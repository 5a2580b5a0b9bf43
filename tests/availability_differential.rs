//! Differential tests for the block-summary availability solver: the
//! `load_fwd` and `gvn` passes, which build their fact universes once
//! and solve them on per-block gen/kill summaries, must rewrite every
//! function exactly as the per-op-replay fixpoints they replaced — the
//! same IR, op for op, and the same `changed` answer. The replaced
//! implementations live on below, in [`reference`], as the oracle.
//!
//! Inputs: the oracle suite's random kernels × its reshaping pipelines,
//! random memory-heavy kernels (stores and loads through globals, a
//! local and a `Param` array at constant and computed indexes, calls,
//! branches and unrollable loops), the four application kernels raw and
//! tuned, and named cases for the corners the kill rules special-case
//! (constant cells, `Param` bases, calls, self-reading loads).

mod common;

use common::{app_modules, arb_kernel, arb_memory_kernel, reshaped, MEMORY_RESHAPERS, RESHAPERS};
use proptest::prelude::*;
use teamplay_compiler::passes::{gvn, load_fwd};
use teamplay_compiler::PassManager;
use teamplay_minic::compile_to_ir;
use teamplay_minic::ir::{
    IrBlock, IrFunction, IrModule, IrOp, IrParam, IrTerm, MemBase, Operand, Temp,
};

/// The per-op-replay fixpoints `load_fwd` and `gvn` ran before the
/// block-summary solver, verbatim apart from the imports.
mod reference {
    use std::collections::HashMap;
    use teamplay_compiler::dataflow::{self, may_alias, BitSet, DefUse, DomTree};
    use teamplay_minic::ast::{BinOp, UnOp};
    use teamplay_minic::ir::{IrFunction, IrOp, MemBase, Operand, Temp};

    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum ExprKey {
        Bin(BinOp, Operand, Operand),
        Un(UnOp, Operand),
        Select(Operand, Operand, Operand),
        Load(MemBase, Operand),
    }

    impl ExprKey {
        fn of(op: &IrOp) -> Option<ExprKey> {
            let rank = |o: &Operand| match o {
                Operand::Const(c) => (0u8, *c as i64),
                Operand::Temp(t) => (1, t.0 as i64),
            };
            Some(match op {
                IrOp::Bin { op, a, b, .. } => {
                    let (a, b) = match op {
                        BinOp::Add
                        | BinOp::Mul
                        | BinOp::And
                        | BinOp::Or
                        | BinOp::Xor
                        | BinOp::Eq
                        | BinOp::Ne
                            if rank(b) < rank(a) =>
                        {
                            (*b, *a)
                        }
                        _ => (*a, *b),
                    };
                    ExprKey::Bin(*op, a, b)
                }
                IrOp::Un { op, a, .. } => ExprKey::Un(*op, *a),
                IrOp::Select { cond, t, f, .. } => ExprKey::Select(*cond, *t, *f),
                IrOp::Load { base, index, .. } => ExprKey::Load(base.clone(), *index),
                _ => return None,
            })
        }

        fn read_temps(&self) -> Vec<Temp> {
            let mut out = Vec::new();
            let mut push = |o: &Operand| {
                if let Operand::Temp(t) = o {
                    out.push(*t);
                }
            };
            match self {
                ExprKey::Bin(_, a, b) => {
                    push(a);
                    push(b);
                }
                ExprKey::Un(_, a) => push(a),
                ExprKey::Select(c, t, f) => {
                    push(c);
                    push(t);
                    push(f);
                }
                ExprKey::Load(base, index) => {
                    push(index);
                    if let MemBase::Param(t) = base {
                        out.push(*t);
                    }
                }
            }
            out
        }
    }

    fn op_dst(op: &IrOp) -> Option<Temp> {
        match op {
            IrOp::Bin { dst, .. }
            | IrOp::Un { dst, .. }
            | IrOp::Copy { dst, .. }
            | IrOp::Load { dst, .. }
            | IrOp::Select { dst, .. } => Some(*dst),
            _ => None,
        }
    }

    pub fn gvn(f: &mut IrFunction) -> bool {
        let dom = DomTree::build(f);
        let du = DefUse::build(f);
        struct Fact {
            site: (usize, usize),
            key: ExprKey,
            holder: Temp,
        }
        let mut facts: Vec<Fact> = Vec::new();
        let mut fact_at: HashMap<(usize, usize), usize> = HashMap::new();
        let mut facts_of_key: HashMap<ExprKey, Vec<usize>> = HashMap::new();
        for (bi, b) in f.blocks.iter().enumerate() {
            for (oi, op) in b.ops.iter().enumerate() {
                let (Some(key), Some(dst)) = (ExprKey::of(op), op_dst(op)) else {
                    continue;
                };
                if key.read_temps().contains(&dst) || du.single_def(dst) != Some((bi, oi)) {
                    continue;
                }
                let id = facts.len();
                fact_at.insert((bi, oi), id);
                facts_of_key.entry(key.clone()).or_default().push(id);
                facts.push(Fact {
                    site: (bi, oi),
                    key,
                    holder: dst,
                });
            }
        }
        let n = facts.len();
        if n == 0 {
            return false;
        }
        let mut killed_by_temp: HashMap<Temp, Vec<usize>> = HashMap::new();
        let mut load_facts: Vec<(usize, MemBase)> = Vec::new();
        for (id, fact) in facts.iter().enumerate() {
            for t in fact.key.read_temps() {
                killed_by_temp.entry(t).or_default().push(id);
            }
            if let ExprKey::Load(base, _) = &fact.key {
                load_facts.push((id, base.clone()));
            }
        }
        let apply = |site: (usize, usize), op: &IrOp, avail: &mut BitSet| {
            dataflow::for_each_write(op, |t| {
                for &id in killed_by_temp.get(&t).map_or(&[][..], |v| v) {
                    avail.remove(id);
                }
            });
            match op {
                IrOp::Store { base, .. } => {
                    for (id, kb) in &load_facts {
                        if may_alias(base, kb) {
                            avail.remove(*id);
                        }
                    }
                }
                IrOp::Call { .. } => {
                    for (id, _) in &load_facts {
                        avail.remove(*id);
                    }
                }
                _ => {}
            }
            if let Some(&id) = fact_at.get(&site) {
                avail.insert(id);
            }
        };
        let nb = f.blocks.len();
        let preds = teamplay_minic::cfg::predecessors(f);
        let mut avail_in: Vec<BitSet> = (0..nb).map(|_| BitSet::full(n)).collect();
        let mut avail_out: Vec<BitSet> = (0..nb).map(|_| BitSet::full(n)).collect();
        avail_in[0] = BitSet::new(n);
        loop {
            let mut changed = false;
            for &b in dom.rpo() {
                if b != 0 {
                    let mut inn = BitSet::full(n);
                    for &p in &preds[b] {
                        inn.intersect_with(&avail_out[p]);
                    }
                    changed |= avail_in[b] != inn;
                    avail_in[b] = inn;
                }
                let mut out = avail_in[b].clone();
                for (oi, op) in f.blocks[b].ops.iter().enumerate() {
                    apply((b, oi), op, &mut out);
                }
                changed |= avail_out[b] != out;
                avail_out[b] = out;
            }
            if !changed {
                break;
            }
        }
        let mut changed = false;
        for &b in dom.rpo() {
            let mut cur = avail_in[b].clone();
            for oi in 0..f.blocks[b].ops.len() {
                let op = f.blocks[b].ops[oi].clone();
                let replacement = (|| {
                    let (key, dst) = (ExprKey::of(&op)?, op_dst(&op)?);
                    if key.read_temps().contains(&dst) {
                        return None;
                    }
                    let holder = facts_of_key
                        .get(&key)?
                        .iter()
                        .copied()
                        .filter(|&id| cur.contains(id) && facts[id].site != (b, oi))
                        .map(|id| facts[id].holder)
                        .next()?;
                    (holder != dst).then_some(IrOp::Copy {
                        dst,
                        src: Operand::Temp(holder),
                    })
                })();
                if let Some(copy) = replacement {
                    f.blocks[b].ops[oi] = copy;
                    changed = true;
                }
                apply((b, oi), &op, &mut cur);
            }
        }
        changed
    }

    pub fn load_fwd(f: &mut IrFunction) -> bool {
        type Fact = (MemBase, Operand, Operand);
        let fact_of = |op: &IrOp| -> Option<Fact> {
            match op {
                IrOp::Store { base, index, value } => Some((base.clone(), *index, *value)),
                IrOp::Load { dst, base, index } => {
                    Some((base.clone(), *index, Operand::Temp(*dst)))
                }
                _ => None,
            }
        };
        let fact_temps = |(base, index, value): &Fact| -> Vec<Temp> {
            let mut out = Vec::new();
            if let MemBase::Param(t) = base {
                out.push(*t);
            }
            for o in [index, value] {
                if let Operand::Temp(t) = o {
                    out.push(*t);
                }
            }
            out
        };
        let valid = |op: &IrOp, fact: &Fact| -> bool {
            match op {
                IrOp::Load { dst, .. } => !fact_temps(fact).contains(dst),
                _ => true,
            }
        };
        let mut fact_id: HashMap<Fact, usize> = HashMap::new();
        let mut facts: Vec<Fact> = Vec::new();
        for b in &f.blocks {
            for op in &b.ops {
                let Some(fact) = fact_of(op) else { continue };
                if !valid(op, &fact) {
                    continue;
                }
                fact_id.entry(fact.clone()).or_insert_with(|| {
                    facts.push(fact);
                    facts.len() - 1
                });
            }
        }
        let n = facts.len();
        if n == 0 {
            return false;
        }
        let mut killed_by_temp: HashMap<Temp, Vec<usize>> = HashMap::new();
        for (id, fact) in facts.iter().enumerate() {
            for t in fact_temps(fact) {
                killed_by_temp.entry(t).or_default().push(id);
            }
        }
        let store_kills = |sb: &MemBase, si: &Operand, (fb, fi, _): &Fact| -> bool {
            if !may_alias(sb, fb) {
                return false;
            }
            !(sb == fb && matches!((si, fi), (Operand::Const(a), Operand::Const(b)) if a != b))
        };
        let apply = |op: &IrOp, avail: &mut BitSet| {
            dataflow::for_each_write(op, |t| {
                for &id in killed_by_temp.get(&t).map_or(&[][..], |v| v) {
                    avail.remove(id);
                }
            });
            match op {
                IrOp::Store { base, index, .. } => {
                    for (id, fact) in facts.iter().enumerate() {
                        if store_kills(base, index, fact) {
                            avail.remove(id);
                        }
                    }
                }
                IrOp::Call { .. } => {
                    *avail = BitSet::new(n);
                }
                _ => {}
            }
            if let Some(fact) = fact_of(op) {
                if valid(op, &fact) {
                    avail.insert(fact_id[&fact]);
                }
            }
        };
        let nb = f.blocks.len();
        let rpo = teamplay_minic::cfg::reverse_postorder(f);
        let preds = teamplay_minic::cfg::predecessors(f);
        let mut avail_in: Vec<BitSet> = (0..nb).map(|_| BitSet::full(n)).collect();
        let mut avail_out: Vec<BitSet> = (0..nb).map(|_| BitSet::full(n)).collect();
        avail_in[0] = BitSet::new(n);
        loop {
            let mut changed = false;
            for &b in &rpo {
                if b != 0 {
                    let mut inn = BitSet::full(n);
                    for &p in &preds[b] {
                        inn.intersect_with(&avail_out[p]);
                    }
                    changed |= avail_in[b] != inn;
                    avail_in[b] = inn;
                }
                let mut out = avail_in[b].clone();
                for op in &f.blocks[b].ops {
                    apply(op, &mut out);
                }
                changed |= avail_out[b] != out;
                avail_out[b] = out;
            }
            if !changed {
                break;
            }
        }
        let mut changed = false;
        for &b in &rpo {
            let mut cur = avail_in[b].clone();
            for oi in 0..f.blocks[b].ops.len() {
                let op = f.blocks[b].ops[oi].clone();
                if let IrOp::Load { dst, base, index } = &op {
                    let known = cur.iter().find_map(|id| {
                        let (fb, fi, value) = &facts[id];
                        (fb == base && fi == index).then_some(*value)
                    });
                    if let Some(value) = known {
                        if value != Operand::Temp(*dst) {
                            f.blocks[b].ops[oi] = IrOp::Copy {
                                dst: *dst,
                                src: value,
                            };
                            changed = true;
                        }
                    }
                }
                apply(&op, &mut cur);
            }
        }
        changed
    }
}

/// Both passes against their references on `f`; returns how many of
/// the two changed it.
fn differential(label: &str, f: &IrFunction) -> usize {
    let mut changes = 0;
    for (pass, new, old) in [
        (
            "load_fwd",
            load_fwd as fn(&mut IrFunction) -> bool,
            reference::load_fwd as fn(&mut IrFunction) -> bool,
        ),
        ("gvn", gvn, reference::gvn),
    ] {
        let (mut got, mut want) = (f.clone(), f.clone());
        let (got_changed, want_changed) = (new(&mut got), old(&mut want));
        assert_eq!(
            got_changed, want_changed,
            "{label}/{}: {pass} reports a different `changed`",
            f.name
        );
        assert_eq!(got, want, "{label}/{}: {pass} rewrote differently", f.name);
        assert_eq!(
            format!("{got:?}"),
            format!("{want:?}"),
            "{label}/{}: {pass} output differs in rendering",
            f.name
        );
        changes += usize::from(got_changed);
    }
    changes
}

/// The differential on every function of `module`, and again on every
/// intermediate IR a `gvn,load_fwd` pipeline steps through from there.
fn differential_module(label: &str, module: &IrModule) -> usize {
    let mut changes = 0;
    for f in &module.functions {
        changes += differential(label, f);
        let mut stepped = f.clone();
        for _ in 0..4 {
            let progressed = gvn(&mut stepped) | load_fwd(&mut stepped);
            if !progressed {
                break;
            }
            changes += differential(label, &stepped);
        }
    }
    changes
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn random_kernels_rewrite_like_the_reference(
        src in arb_kernel(),
        reshape in 0usize..RESHAPERS.len(),
    ) {
        differential_module("random", &reshaped(&src, RESHAPERS[reshape]));
    }

    #[test]
    fn memory_kernels_rewrite_like_the_reference(
        src in arb_memory_kernel(),
        reshape in 0usize..MEMORY_RESHAPERS.len(),
    ) {
        differential_module("memory", &reshaped(&src, MEMORY_RESHAPERS[reshape]));
    }
}

#[test]
fn app_kernels_rewrite_like_the_reference() {
    let mut changes = 0;
    for (label, module) in app_modules() {
        changes += differential_module(&label, &module);
    }
    assert!(changes > 0, "the app kernels exercise at least one rewrite");
}

/// Number of stores at constant indexes in `f`.
fn constant_stores(f: &IrFunction) -> usize {
    f.blocks
        .iter()
        .flat_map(|b| &b.ops)
        .filter(|op| {
            matches!(
                op,
                IrOp::Store {
                    index: Operand::Const(_),
                    ..
                }
            )
        })
        .count()
}

#[test]
fn unrolled_compress_with_256_constant_stores() {
    let mut module = compile_to_ir(teamplay_apps::camera_pill::SOURCE).expect("lowers");
    let mut pm = PassManager::from_str("inline(24),unroll(256),const_fold,copy_prop,dce")
        .expect("pipeline parses");
    pm.run(&mut module);
    let compress = module.function("compress").expect("compress");
    assert!(
        constant_stores(compress) >= 256,
        "compress unrolls into {} constant-index stores",
        constant_stores(compress)
    );
    differential("unrolled", compress);
}

#[test]
fn param_stores_at_distinct_constant_indexes() {
    let src = "int g[4];\n\
               int f(int a[], int x, int y) {\n\
                   int s = g[3] + a[3];\n\
                   g[0] = s;\n\
                   int u = a[3] + g[3];\n\
                   a[0] = x;\n\
                   a[1] = y;\n\
                   g[2] = x;\n\
                   a[2] = y;\n\
                   if (x > y) { a[3] = x; } else { a[3] = y; }\n\
                   return a[0] + a[1] + a[2] + g[2] + g[3] + a[3] + s + u;\n\
               }\n\
               int main() { int b[4]; return f(b, 3, 4); }";
    let module = compile_to_ir(src).expect("lowers");
    let f = module.function("f").expect("f");
    let mut forwarded = f.clone();
    assert!(
        load_fwd(&mut forwarded),
        "same-base stores at other constant indexes keep a[0] and a[1] known"
    );
    differential("param", f);
}

#[test]
fn a_call_between_store_and_load() {
    let src = "int g[4];\n\
               int touch(int v) { g[0] = v; return v; }\n\
               int f(int x) {\n\
                   g[0] = x;\n\
                   g[1] = x + 1;\n\
                   int k = touch(x);\n\
                   return g[0] + g[1] + k;\n\
               }\n\
               int h(int x) {\n\
                   int before = g[2];\n\
                   int k = touch(x);\n\
                   return g[2] + before + k;\n\
               }";
    let module = compile_to_ir(src).expect("lowers");
    let f = module.function("f").expect("f");
    let mut forwarded = f.clone();
    assert!(
        !load_fwd(&mut forwarded),
        "the call may write g, so no stored value is forwarded"
    );
    differential("call", f);
    let h = module.function("h").expect("h");
    let mut numbered = h.clone();
    assert!(
        !gvn(&mut numbered),
        "the call may write g, so the second g[2] load is not the first"
    );
    differential("call", h);
}

/// `t1 = A[t1]` built by hand (the front end always loads into a
/// fresh temp): the load reads its own destination, in a loop, behind
/// a store to the same cell.
#[test]
fn a_self_reading_load() {
    let t = Temp;
    let a = MemBase::Param(t(0));
    let f = IrFunction {
        name: "chase".into(),
        params: vec![
            IrParam {
                name: "a".into(),
                is_array: true,
                temp: t(0),
            },
            IrParam {
                name: "i".into(),
                is_array: false,
                temp: t(1),
            },
        ],
        returns_value: true,
        blocks: vec![
            IrBlock {
                ops: vec![IrOp::Store {
                    base: a.clone(),
                    index: Operand::Temp(t(1)),
                    value: Operand::Temp(t(1)),
                }],
                term: IrTerm::Jump(teamplay_minic::ir::IrBlockId(1)),
            },
            IrBlock {
                ops: vec![
                    IrOp::Load {
                        dst: t(1),
                        base: a.clone(),
                        index: Operand::Temp(t(1)),
                    },
                    IrOp::Load {
                        dst: t(2),
                        base: a,
                        index: Operand::Temp(t(1)),
                    },
                ],
                term: IrTerm::Branch {
                    cond: Operand::Temp(t(2)),
                    taken: teamplay_minic::ir::IrBlockId(1),
                    fallthrough: teamplay_minic::ir::IrBlockId(2),
                },
            },
            IrBlock {
                ops: vec![],
                term: IrTerm::Ret(Some(Operand::Temp(t(2)))),
            },
        ],
        temp_count: 3,
        local_arrays: vec![],
        loop_bounds: Default::default(),
        annotations: vec![],
    };
    differential("self-reading", &f);
}
