//! The traced replay: the predictable workflow re-driven step by step
//! from the benchmark, one span around each layer's public call, plus a
//! compile leg that replays seeded search genomes through the pass
//! manager, code generator and analysers one call at a time.
//!
//! The replay mirrors `PredictableWorkflow::run_on` step for step; the
//! fidelity check (equal certificate JSON) is what keeps the two in
//! step when the workflow changes.

use crate::apps::Rng;
use crate::calib::CpuTime;
use minipool::Pool;
use std::collections::{BTreeMap, HashMap, HashSet};
use teamplay::predictable::WorkflowConfig;
use teamplay_compiler::driver::code_size_halfwords;
use teamplay_compiler::{
    compile_module_per_function_on, generate_program, pareto_search_with_cache_seeded, CodegenOpts,
    CompilerConfig, DiskStore, EvalCache, PassManager, TaskVariant,
};
use teamplay_contracts::{prove, TaskEvidence};
use teamplay_coord::{
    generate_parallel_glue_with_pipelines, schedule_energy_aware, CoordTask, ExecOption, Schedule,
    TaskSet,
};
use teamplay_csl::{extract_model, CslModel, SecurityReq};
use teamplay_energy::{analyze_program_energy, analyze_program_energy_cached};
use teamplay_isa::Program;
use teamplay_minic::ir::IrModule;
use teamplay_minic::{lower::lower_program, parse_and_check};
use teamplay_security::{assess_leakage, ladderise, SecretSpec};
use teamplay_sim::{seeded_inputs, simulate_batch_budgeted, DecodedProgram};
use teamplay_wcet::{analyze_program, analyze_program_cached};

/// Accumulated busy seconds per layer span, and exact counters.
#[derive(Default)]
pub struct Trace {
    pub spans: BTreeMap<&'static str, f64>,
    pub counts: BTreeMap<String, u64>,
}

impl Trace {
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = CpuTime::now();
        let r = f();
        *self.spans.entry(name).or_default() += t.elapsed();
        r
    }

    pub fn count(&mut self, name: impl Into<String>, n: u64) {
        *self.counts.entry(name.into()).or_default() += n;
    }
}

/// What one replayed certification produced.
pub struct Replayed {
    pub certificate_json: String,
    pub program: Program,
    /// Sum of the tasks' certified WCET (µs), WCEC (µJ), and the
    /// binary's code size (halfwords).
    pub cert: [f64; 3],
    /// The ladderised IR the searches compiled (the compile leg's input).
    pub ir: IrModule,
}

/// One attempt of the degradation ladder's scheduling, as the workflow
/// does it: the global deadline is the tightest per-task deadline.
fn schedule_rung(
    trace: &mut Trace,
    tasks: Vec<CoordTask>,
) -> Result<Result<(TaskSet, Schedule), String>, String> {
    let deadline_us = tasks
        .iter()
        .filter_map(|t| t.deadline_us)
        .fold(f64::INFINITY, f64::min)
        .min(1e12);
    let set = TaskSet::new(tasks, vec!["cpu0".into()], deadline_us).map_err(|e| e.to_string())?;
    trace.count("coord.schedule_calls", 1);
    Ok(trace
        .span("coord.schedule_s", || schedule_energy_aware(&set))
        .map(|s| (set, s))
        .map_err(|e| e.to_string()))
}

/// The workflow's degradation ladder: nominal contract, then without
/// re-executions, then with degraded deadlines. Returns the rung taken.
fn schedule_with_degradation(
    trace: &mut Trace,
    model: &CslModel,
    nominal: &[CoordTask],
) -> Result<(TaskSet, Schedule, u8), String> {
    let mut last = match schedule_rung(trace, nominal.to_vec())? {
        Ok((set, s)) => return Ok((set, s, 0)),
        Err(e) => e,
    };
    if nominal.iter().any(|t| t.reexecutions > 0) {
        let relaxed = nominal
            .iter()
            .cloned()
            .map(|t| t.with_reexecutions(0))
            .collect();
        match schedule_rung(trace, relaxed)? {
            Ok((set, s)) => return Ok((set, s, 1)),
            Err(e) => last = e,
        }
    }
    if model.tasks.iter().any(|t| t.degraded_deadline.is_some()) {
        let degraded = nominal
            .iter()
            .cloned()
            .map(|mut t| {
                t.reexecutions = 0;
                if let Some(d) = model.task(&t.name).and_then(|spec| spec.degraded_deadline) {
                    t.deadline_us = Some(d.as_us());
                }
                t
            })
            .collect();
        match schedule_rung(trace, degraded)? {
            Ok((set, s)) => return Ok((set, s, 2)),
            Err(e) => last = e,
        }
    }
    Err(format!("unschedulable: {last}"))
}

fn coord_task(t: &teamplay_csl::TaskSpec, options: Vec<ExecOption>) -> CoordTask {
    let mut ct = CoordTask::new(t.name.clone(), options);
    ct.after = t.after.clone();
    ct.deadline_us = t.deadline.map(|d| d.as_us());
    ct.reexecutions = t.reexecutions;
    ct.security_floor = t.security_floor;
    ct
}

fn security_level(t: &teamplay_csl::TaskSpec) -> u32 {
    u32::from(t.security == Some(SecurityReq::ConstantTime))
}

/// Replay the whole predictable workflow for one source, timing every
/// layer call into `trace`.
pub fn replay(
    pool: &Pool,
    cfg: &WorkflowConfig,
    source: &str,
    trace: &mut Trace,
) -> Result<Replayed, String> {
    // 1. Front end and CSL extraction.
    let ast = trace
        .span("minic.frontend_s", || parse_and_check(source))
        .map_err(|e| format!("front-end: {e}"))?;
    let model = trace
        .span("csl.extract_s", || extract_model(&ast))
        .map_err(|e| format!("CSL: {e}"))?;
    let mut ir = trace.span("minic.frontend_s", || lower_program(&ast));

    // 2. Ladderisation of constant-time tasks.
    let mut residual: HashMap<String, usize> = HashMap::new();
    for task in &model.tasks {
        if task.security != Some(SecurityReq::ConstantTime) {
            continue;
        }
        let secrets: HashSet<String> = task.secrets.iter().cloned().collect();
        let f = ir
            .function_mut(&task.function)
            .ok_or_else(|| format!("task function `{}` missing", task.function))?;
        let report = trace.span("security.ladderise_s", || ladderise(f, &secrets));
        if !report.fully_hardened() {
            return Err(format!("task `{}` keeps secret branches", task.name));
        }
        residual.insert(task.name.clone(), report.residual);
    }

    // 3. One seeded Pareto search per task over one shared cache.
    let default = CompilerConfig {
        pipeline: cfg
            .pipelines
            .resolve(&cfg.default_pipeline)
            .map_err(|e| format!("default pipeline: {e}"))?,
        ..CompilerConfig::balanced()
    };
    let seeds: Vec<Vec<f64>> = default.to_genome().into_iter().collect();
    let disk = match &cfg.store_dir {
        Some(dir) => Some(DiskStore::open(dir).map_err(|e| format!("store `{dir}`: {e}"))?),
        None => None,
    };
    let cache = match &disk {
        Some(disk) => EvalCache::with_store(&ir, &cfg.cycle_model, &cfg.energy_model, disk),
        None => EvalCache::new(&ir, &cfg.cycle_model, &cfg.energy_model),
    };
    let fronts = trace.span("compiler.search_s", || {
        let inner = pool.split_across(model.tasks.len());
        pool.par_map(&model.tasks, |i, task| {
            pareto_search_with_cache_seeded(
                &inner,
                &cache,
                &task.function,
                cfg.fpa,
                cfg.seed.wrapping_add(i as u64),
                &seeds,
            )
        })
    });
    let mut variants: HashMap<String, Vec<TaskVariant>> = HashMap::new();
    for (task, front) in model.tasks.iter().zip(fronts) {
        trace.count("compiler.evaluations", front.stats.evaluations as u64);
        if front.variants.is_empty() {
            return Err(format!("no analysable variant for `{}`", task.name));
        }
        variants.insert(task.name.clone(), front.variants);
    }
    trace.count("compiler.compiles", cache.misses() as u64);
    trace.count("compiler.cache_hits", cache.hits() as u64);
    trace.count("compiler.disk_hits", cache.disk_hits() as u64);

    // 3b. Measurement of every front variant on the decoded engine.
    if let Some(mc) = cfg.measure {
        for (ti, task) in model.tasks.iter().enumerate() {
            let func = ast
                .function(&task.function)
                .ok_or("task function missing")?;
            if func.params.iter().any(|p| p.is_array) {
                continue;
            }
            for (vi, v) in variants[&task.name].iter().enumerate() {
                trace.span("sim.measure_s", || -> Result<(), String> {
                    let decoded =
                        DecodedProgram::with_models(&v.program, &cfg.cycle_model, &cfg.truth)?;
                    let inputs = seeded_inputs(
                        cfg.seed ^ 0x3EA5_0000 ^ (((ti as u64) << 32) | vi as u64),
                        mc.runs,
                        func.params.len(),
                        mc.input_lo,
                        mc.input_hi,
                    );
                    let runs = simulate_batch_budgeted(
                        pool,
                        &decoded,
                        &task.function,
                        &inputs,
                        v.metrics.wcet_cycles,
                    );
                    match runs.into_iter().find_map(Result::err) {
                        Some(e) => Err(format!("measure `{}` v{vi}: {e}", task.name)),
                        None => Ok(()),
                    }
                })?;
            }
        }
    }

    // 4. Variant selection under the deadlines.
    let coord_tasks: Vec<CoordTask> = model
        .tasks
        .iter()
        .map(|t| {
            let options = variants[&t.name]
                .iter()
                .enumerate()
                .map(|(vi, v)| ExecOption {
                    label: format!("v{vi}"),
                    core: "cpu0".into(),
                    time_us: v.metrics.wcet_cycles as f64 / cfg.clock_mhz,
                    energy_uj: v.metrics.wcec_pj / 1e6,
                    security_level: security_level(t),
                })
                .collect();
            coord_task(t, options)
        })
        .collect();
    let (_, provisional, _) = schedule_with_degradation(trace, &model, &coord_tasks)?;

    // 5. Final per-function build of the selected variants.
    let mut chosen: HashMap<String, CompilerConfig> = HashMap::new();
    let mut chosen_by_task: HashMap<String, CompilerConfig> = HashMap::new();
    for task in &model.tasks {
        let entry = provisional.entry(&task.name).ok_or("task not scheduled")?;
        let vi: usize = entry
            .option
            .trim_start_matches('v')
            .parse()
            .map_err(|_| "bad option label")?;
        let config = variants[&task.name][vi].config.clone();
        chosen.insert(task.function.clone(), config.clone());
        chosen_by_task.insert(task.name.clone(), config);
    }
    let program = trace
        .span("compiler.final_build_s", || {
            compile_module_per_function_on(pool, &ir, &chosen, &default)
        })
        .map_err(|e| format!("final build: {e}"))?;

    // 6. Final analyses and re-validated schedule.
    let memo = cache.analysis_memo();
    let wcet = trace
        .span("wcet.final_s", || {
            analyze_program_cached(&program, &cfg.cycle_model, &memo.wcet)
        })
        .map_err(|e| format!("final WCET: {e}"))?;
    let energy = trace
        .span("energy.final_s", || {
            analyze_program_energy_cached(
                &program,
                &cfg.energy_model,
                &cfg.cycle_model,
                &memo.energy,
            )
        })
        .map_err(|e| format!("final WCEC: {e}"))?;
    let bounds = |t: &teamplay_csl::TaskSpec| -> Result<(u64, f64), String> {
        Ok((
            wcet.wcet_cycles(&t.function).ok_or("no final WCET")?,
            energy.wcec_pj(&t.function).ok_or("no final WCEC")?,
        ))
    };
    let mut final_tasks = Vec::new();
    for t in &model.tasks {
        let (cycles, pj) = bounds(t)?;
        let option = ExecOption {
            label: "final".into(),
            core: "cpu0".into(),
            time_us: cycles as f64 / cfg.clock_mhz,
            energy_uj: pj / 1e6,
            security_level: security_level(t),
        };
        final_tasks.push(coord_task(t, vec![option]));
    }
    let (final_set, schedule, rung) = schedule_with_degradation(trace, &model, &final_tasks)?;

    // 7. Measured leakage of constant-time tasks on the final binary.
    let mut leaks: HashMap<String, bool> = HashMap::new();
    for task in &model.tasks {
        if task.security != Some(SecurityReq::ConstantTime) {
            continue;
        }
        let func = ast
            .function(&task.function)
            .ok_or("task function missing")?;
        let secret_idx = func
            .params
            .iter()
            .position(|p| task.secrets.contains(&p.name))
            .ok_or("secure task without a secret parameter")?;
        let report = trace
            .span("security.leakage_s", || {
                assess_leakage(
                    &program,
                    &task.function,
                    func.params.len().max(1),
                    SecretSpec {
                        arg_index: secret_idx,
                        class0: 0x0F0F_0F0F,
                        class1: -0x6543_2110,
                    },
                    cfg.leakage_traces,
                    0..4096,
                    cfg.seed ^ 0x5EC0_0001,
                )
            })
            .map_err(|e| format!("leakage: {e}"))?;
        leaks.insert(task.name.clone(), report.leaks());
    }

    // 8. Contract proof over the effective model.
    let mut evidence: HashMap<String, TaskEvidence> = HashMap::new();
    for task in &model.tasks {
        let (cycles, pj) = bounds(task)?;
        evidence.insert(
            task.name.clone(),
            TaskEvidence {
                wcet_us: cycles as f64 / cfg.clock_mhz,
                wcec_pj: pj,
                residual_branches: residual.get(&task.name).copied(),
                leaks: leaks.get(&task.name).copied(),
                finish_us: schedule
                    .entry(&task.name)
                    .map(|e| e.finish_us + e.recovery_us),
                degradation_rung: rung,
            },
        );
    }
    let mut effective = model.clone();
    if rung == 2 {
        for t in &mut effective.tasks {
            if let Some(d) = t.degraded_deadline {
                t.deadline = Some(d);
            }
        }
    }
    let certificate = trace
        .span("contracts.prove_s", || {
            prove("teamplay-system", &effective, &evidence)
        })
        .map_err(|e| format!("contract: {e}"))?;

    // 9. Coordination glue.
    let pipelines: BTreeMap<String, String> = chosen_by_task
        .iter()
        .map(|(task, config)| (task.clone(), config.pipeline.to_string()))
        .collect();
    trace
        .span("coord.glue_s", || {
            generate_parallel_glue_with_pipelines(&final_set, &schedule, &pipelines)
        })
        .map_err(|e| format!("glue: {e}"))?;

    let cert = [
        model.tasks.iter().map(|t| evidence[&t.name].wcet_us).sum(),
        model
            .tasks
            .iter()
            .map(|t| evidence[&t.name].wcec_pj / 1e6)
            .sum(),
        program
            .functions
            .values()
            .map(code_size_halfwords)
            .sum::<usize>() as f64,
    ];
    Ok(Replayed {
        certificate_json: certificate.to_json(),
        program,
        cert,
        ir,
    })
}

/// Per-compile layer times of the compile leg, and the evaluation
/// cache's cost per compile and per disk hit.
#[derive(Default)]
pub struct CompileLeg {
    pub compiles: usize,
    pub analysed: usize,
    pub passes_s: f64,
    pub codegen_s: f64,
    pub ipet_s: f64,
    pub wcec_s: f64,
    pub eval_compile: Vec<f64>,
    pub eval_disk_hit: Vec<f64>,
}

/// Replay `genomes` seeded FPA genomes through the compile layers one
/// call at a time, and check each against `EvalCache::evaluate` (backed
/// by a fresh store at `store_dir`, then re-read from it by a second
/// cache) for equal metrics.
pub fn compile_leg(
    cfg: &WorkflowConfig,
    ir: &IrModule,
    genomes: usize,
    seed: u64,
    store_dir: &str,
    trace: &mut Trace,
    leg: &mut CompileLeg,
) -> Result<(), String> {
    let mut rng = Rng::new(seed);
    let configs: Vec<CompilerConfig> = (0..genomes)
        .map(|_| {
            let genome: Vec<f64> = (0..CompilerConfig::GENOME_DIMS)
                .map(|_| rng.unit())
                .collect();
            CompilerConfig::from_genome(&genome)
        })
        .collect();
    let store = DiskStore::open(store_dir).map_err(|e| format!("store `{store_dir}`: {e}"))?;
    let writer = EvalCache::with_store(ir, &cfg.cycle_model, &cfg.energy_model, &store);
    for config in &configs {
        let mut module = ir.clone();
        let mut pm =
            PassManager::new(config.pipeline.clone()).map_err(|e| format!("pipeline: {e}"))?;
        let t = CpuTime::now();
        pm.run(&mut module);
        leg.passes_s += t.elapsed();
        for s in pm.stats() {
            trace.count(
                format!("passes.{}.invocations", s.name),
                s.invocations as u64,
            );
            trace.count(format!("passes.{}.changes", s.name), s.changes as u64);
        }
        let opts = CodegenOpts {
            pinned_regs: config.pinned_regs,
            mul_shift_add: config.mul_shift_add,
        };
        let t = CpuTime::now();
        let program = generate_program(&module, opts);
        leg.codegen_s += t.elapsed();
        leg.compiles += 1;
        let metrics = match program {
            Ok(program) => {
                let t = CpuTime::now();
                let wcet = analyze_program(&program, &cfg.cycle_model);
                leg.ipet_s += t.elapsed();
                let t = CpuTime::now();
                let energy = analyze_program_energy(&program, &cfg.energy_model, &cfg.cycle_model);
                leg.wcec_s += t.elapsed();
                leg.analysed += 1;
                match (wcet, energy) {
                    (Ok(w), Ok(e)) => Some(
                        program
                            .functions
                            .iter()
                            .map(|(name, f)| {
                                (
                                    w.wcet_cycles(name),
                                    e.wcec_pj(name).map(f64::to_bits),
                                    code_size_halfwords(f),
                                )
                            })
                            .collect::<Vec<_>>(),
                    ),
                    _ => None,
                }
            }
            Err(_) => None,
        };
        let before = writer.disk_misses();
        let t = CpuTime::now();
        let cached = writer.evaluate(config);
        let elapsed = t.elapsed();
        if writer.disk_misses() > before {
            leg.eval_compile.push(elapsed);
        }
        let cached_metrics = cached.map(|(_, m)| {
            m.functions()
                .iter()
                .map(|(_, v)| {
                    (
                        Some(v.wcet_cycles),
                        Some(v.wcec_pj.to_bits()),
                        v.code_halfwords,
                    )
                })
                .collect::<Vec<_>>()
        });
        if cached_metrics != metrics {
            return Err(format!(
                "compile leg: layer-by-layer metrics differ from EvalCache for `{}`",
                config.pipeline
            ));
        }
    }
    let reader = EvalCache::with_store(ir, &cfg.cycle_model, &cfg.energy_model, &store);
    for config in &configs {
        let before = reader.disk_hits();
        let t = CpuTime::now();
        reader.evaluate(config);
        let elapsed = t.elapsed();
        if reader.disk_hits() > before {
            leg.eval_disk_hit.push(elapsed);
        }
    }
    if reader.disk_misses() != 0 {
        return Err("compile leg: a stored evaluation was not read back".into());
    }
    Ok(())
}
