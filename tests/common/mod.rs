//! Inputs shared by the dataflow oracle and differential suites: random
//! Mini-C kernels (general and memory-heavy), the pipelines that
//! reshape them, and the shipped application kernels with their tuned
//! pipelines.

use proptest::prelude::*;
use teamplay_compiler::PassManager;
use teamplay_minic::compile_to_ir;
use teamplay_minic::ir::IrModule;

/// Small Mini-C kernels with branches, a bounded loop, array traffic
/// and a helper call — enough to exercise every analysis shape.
pub fn arb_kernel() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        (-50i32..50).prop_map(|v| v.to_string()),
        Just("x".to_string()),
        Just("y".to_string()),
        Just("acc".to_string()),
    ];
    let op = prop_oneof![Just("+"), Just("-"), Just("*"), Just("&"), Just("^")];
    let expr = (leaf.clone(), op, leaf).prop_map(|(a, op, b)| format!("(({a}) {op} ({b}))"));
    (
        proptest::collection::vec(expr, 1..4),
        2u32..7,
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(exprs, bound, with_if, with_call)| {
            let mut body = String::from("int acc = x ^ 5;\n");
            if with_if {
                body.push_str("    if (y > 0) { acc = acc + y; } else { acc = acc - 1; }\n");
            }
            body.push_str(&format!(
                "    for (int i = 0; i < {bound}; i = i + 1) {{ buf[i % 8] = acc; acc = acc + buf[(i + 3) % 8] + i; }}\n"
            ));
            for (k, e) in exprs.iter().enumerate() {
                body.push_str(&format!("    acc = acc ^ ({e}) * {};\n", k as i32 + 1));
            }
            if with_call {
                body.push_str("    acc = acc + twist(acc, y);\n");
            }
            format!(
                "int buf[8];\n\
                 int twist(int a, int b) {{ return (a << 1) ^ (b & 0xFF); }}\n\
                 int f(int x, int y) {{\n    {body}\n    return acc;\n}}"
            )
        })
}

/// Pipelines that reshape the CFG in different ways before the oracle
/// runs, so the analyses face more than front-end-shaped graphs.
pub const RESHAPERS: [&str; 4] = [
    "",
    "const_fold,copy_prop,dce",
    "inline(40),licm,cse,const_fold,dce",
    "unroll(4),block_layout,const_fold,copy_prop,dce",
];

/// Random kernels dense in memory traffic: every statement stores to,
/// loads from or calls through one of four bases (two globals, a local
/// array, a `Param` array) at constant or computed indexes, so each
/// kill rule of both passes decides some rewrite.
pub fn arb_memory_kernel() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec((0u8..9, 0u8..4, 0u8..4, 0u8..4), 3..16),
        1u32..4,
    )
        .prop_map(|(stmts, trips)| {
            // Few bases and indexes, so that statements keep meeting
            // on the same cells.
            const ARRAYS: [&str; 4] = ["g", "h", "l", "a"];
            const INDEXES: [&str; 4] = ["0", "1", "x & 1", "acc & 1"];
            const VALUES: [&str; 4] = ["x", "acc", "7", "acc + 1"];
            let mut body = String::new();
            for (k, &(kind, arr, idx, val)) in stmts.iter().enumerate() {
                let (arr, idx, val) = (
                    ARRAYS[arr as usize],
                    INDEXES[idx as usize],
                    VALUES[val as usize],
                );
                let stmt = match kind {
                    0 | 1 => format!("{arr}[{idx}] = {val};"),
                    2 | 3 => format!("acc = acc + {arr}[{idx}];"),
                    4 => format!("x = {arr}[{idx}];"),
                    5 => "acc = acc + touch(acc);".to_string(),
                    6 => format!(
                        "if (y > {k}) {{ {arr}[{idx}] = {val}; }} else {{ acc = acc + {arr}[{idx}]; }}"
                    ),
                    7 => format!(
                        "for (int i{k} = 0; i{k} < {trips}; i{k} = i{k} + 1) \
                         {{ {arr}[i{k}] = {val} + i{k}; acc = acc + {arr}[(i{k} + 1) & 3]; }}"
                    ),
                    _ => format!("acc = acc + (x * y) + {arr}[{idx}] + (x * y);"),
                };
                body.push_str("    ");
                body.push_str(&stmt);
                body.push('\n');
            }
            format!(
                "int g[4];\n\
                 int h[4];\n\
                 int touch(int v) {{ g[1] = v; return v + 1; }}\n\
                 int f(int a[], int x, int y) {{\n    int l[4];\n    int acc = x;\n{body}    return acc + l[0];\n}}"
            )
        })
}

/// Pipelines for the memory kernels: none, one that turns computed
/// indexes into constant ones (unrolling, folding), and one that moves
/// loads (licm, cse).
pub const MEMORY_RESHAPERS: [&str; 3] = [
    "",
    "inline(40),unroll(4),const_fold,copy_prop,dce",
    "copy_prop,const_fold,licm,cse,dce",
];

/// `src` lowered and run through `pipeline` (none when empty).
pub fn reshaped(src: &str, pipeline: &str) -> IrModule {
    let mut module = compile_to_ir(src).expect("generated kernels lower");
    if !pipeline.is_empty() {
        let mut pm = PassManager::from_str(pipeline).expect("reshaper parses");
        pm.run(&mut module);
        module.validate().expect("valid after reshaping");
    }
    module
}

/// The four application kernels, each lowered raw and after its tuned
/// pipeline, labelled `app/raw` and `app/tuned`.
pub fn app_modules() -> Vec<(String, IrModule)> {
    let mut out = Vec::new();
    for (app, src) in [
        ("camera_pill", teamplay_apps::camera_pill::SOURCE),
        ("spacewire", teamplay_apps::spacewire::SOURCE),
        ("uav", teamplay_apps::uav::DETECT_KERNEL_SOURCE),
        ("parking", teamplay_apps::parking::CONV_KERNEL_SOURCE),
    ] {
        let (_, tuned) = teamplay_apps::recommended_pipelines()
            .into_iter()
            .find(|(a, _)| *a == app)
            .expect("every app has a tuned pipeline");
        out.push((format!("{app}/raw"), reshaped(src, "")));
        out.push((format!("{app}/tuned"), reshaped(src, tuned)));
    }
    out
}
