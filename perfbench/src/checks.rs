//! Correctness oracles that do not trust the compiler under test: the
//! Mini-C interpreter against each certified binary, the certificate
//! checker, IPET soundness of the measured variants, and the fault and
//! batch simulation legs with their own invariants.

use crate::apps::{PortData, Rng};
use crate::calib::CpuTime;
use minipool::Pool;
use teamplay::predictable::{PredictableOutcome, WorkflowConfig};
use teamplay_contracts::verify_certificate;
use teamplay_isa::{CycleModel, Program};
use teamplay_minic::Interp;
use teamplay_sim::{
    run_campaign, seeded_inputs, simulate_batch_budgeted, CampaignConfig, CampaignStats,
    DecodedProgram, GroundTruthEnergy, Machine, NullDevice,
};

/// Interpreter fuel (AST steps) — far above any app's task chain.
const INTERP_FUEL: u64 = 50_000_000;
/// Batch results re-run on the reference machine per simulation leg.
const BIT_EQUAL_SAMPLE: usize = 16;

/// Seeded arguments for every task of a certified app, in model order.
pub fn task_args(ast: &teamplay_minic::Program, tasks: &[String], seed: u64) -> Vec<Vec<i32>> {
    let mut rng = Rng::new(seed);
    tasks
        .iter()
        .map(|task| {
            let arity = ast.function(task).map_or(0, |f| f.params.len());
            (0..arity).map(|_| rng.next_u64() as i32).collect()
        })
        .collect()
}

/// Run the task chain (task functions in model order, with their
/// seeded arguments) on the certified binary's reference machine and on
/// the Mini-C interpreter over the same port data, and require equal
/// return values, port outputs and final globals.
pub fn binary_matches_interpreter(
    ast: &teamplay_minic::Program,
    program: &Program,
    cfg: &WorkflowConfig,
    tasks: &[String],
    args: &[Vec<i32>],
    ports: &PortData,
) -> Result<(), String> {
    let mut machine =
        Machine::with_models(program.clone(), cfg.cycle_model.clone(), cfg.truth.clone())
            .map_err(|e| format!("certified binary does not load: {e}"))?;
    let mut device = ports.device();
    let mut interp = Interp::new(ast, ports.ports(), INTERP_FUEL);
    for (task, args) in tasks.iter().zip(args) {
        let got = machine
            .call(task, args, &mut device)
            .map_err(|e| format!("`{task}` trapped on the machine: {e}"))?;
        let want = interp
            .call(task, args)
            .map_err(|e| format!("`{task}` failed in the interpreter: {e}"))?;
        if let Some(v) = want.return_value {
            if v != got.return_value {
                return Err(format!(
                    "`{task}` returned {} (interpreter {v})",
                    got.return_value
                ));
            }
        }
    }
    for g in ast.globals() {
        let want: Vec<i32> = match g.array_len {
            Some(_) => interp.global_array(&g.name).map(<[i32]>::to_vec),
            None => interp.global_scalar(&g.name).map(|v| vec![v]),
        }
        .ok_or_else(|| format!("interpreter lost global `{}`", g.name))?;
        for (i, w) in want.iter().enumerate() {
            if machine.read_global(&g.name, i) != Some(*w) {
                return Err(format!(
                    "global `{}[{i}]` differs from the interpreter",
                    g.name
                ));
            }
        }
    }
    if device.outputs != interp.into_ports().outputs {
        return Err("port outputs differ from the interpreter".into());
    }
    Ok(())
}

/// The certificate re-verifies, and every measured variant stayed
/// within its static IPET bound.
pub fn certificate_and_measurements_hold(outcome: &PredictableOutcome) -> Result<(), String> {
    verify_certificate(&outcome.certificate, &outcome.evidence)
        .map_err(|e| format!("certificate does not verify: {e}"))?;
    if outcome.measurements.is_empty() {
        return Err("measurement step reported nothing".into());
    }
    for tm in &outcome.measurements {
        for vm in &tm.variants {
            if vm.observed_over_ipet.is_nan() || vm.observed_over_ipet > 1.0 {
                return Err(format!(
                    "task `{}` variant {}: observed/IPET = {}",
                    tm.task, vm.variant, vm.observed_over_ipet
                ));
            }
        }
    }
    Ok(())
}

/// A binary's kernel prepared for the fault and batch legs (PG32 cost
/// models, the reference machine's platform).
pub struct Kernel {
    pub func: &'static str,
    pub program: Program,
    pub decoded: DecodedProgram,
    /// Campaign arguments (one seeded threshold for `predetect`).
    pub args: Vec<i32>,
    pub ipet_cycles: u64,
    pub ports: PortData,
}

impl Kernel {
    /// `arity` is the kernel's parameter count; its arguments are drawn
    /// from `seed`.
    pub fn new(
        func: &'static str,
        arity: usize,
        program: Program,
        seed: u64,
    ) -> Result<Kernel, String> {
        let cm = CycleModel::pg32();
        let ipet_cycles = teamplay_wcet::analyze_program(&program, &cm)
            .map_err(|e| format!("{func}: IPET failed: {e}"))?
            .wcet_cycles(func)
            .ok_or_else(|| format!("{func}: no IPET bound"))?;
        let decoded = DecodedProgram::with_models(&program, &cm, &GroundTruthEnergy::pg32())
            .map_err(|e| format!("{func}: decode failed: {e}"))?;
        let mut rng = Rng::new(seed);
        let args = (0..arity).map(|_| rng.below(512) as i32).collect();
        Ok(Kernel {
            func,
            program,
            decoded,
            args,
            ipet_cycles,
            ports: PortData::seeded(seed ^ 0x9047),
        })
    }
}

/// Work of one fault + batch leg pair.
#[derive(Clone, Copy)]
pub struct LegSizes {
    pub injections: usize,
    pub batch_runs: usize,
}

/// Timings and exact counts of one leg pair.
#[derive(Clone, Copy, Default)]
pub struct LegResult {
    pub fault_s: f64,
    pub batch_s: f64,
    pub stats: CampaignStats,
    pub batch_runs: usize,
    pub batch_cycles: u64,
}

/// Run a seeded fault campaign (watchdog 2×IPET, IPET as the timing
/// bound) on the reference machine, then a seeded batch on the decoded
/// engine under the IPET budget, and check both: the zero-fault control
/// is masked, outcome counts sum to the injections, no batch run traps,
/// and a seeded sample of batch results is bit-equal to the reference
/// machine.
pub fn run_legs(pool: &Pool, k: &Kernel, sizes: LegSizes, seed: u64) -> Result<LegResult, String> {
    let config = CampaignConfig {
        seed,
        injections: sizes.injections,
        watchdog_cycles: 2 * k.ipet_cycles,
        ipet_bound_cycles: Some(k.ipet_cycles),
    };
    let t = CpuTime::now();
    let campaign = run_campaign(pool, &k.program, k.func, &k.args, &config, || {
        k.ports.device()
    });
    let fault_s = t.elapsed();
    if !campaign.control_masked {
        return Err(format!("{}: zero-fault control not masked", k.func));
    }
    if campaign.stats.total() != sizes.injections || campaign.outcomes.len() != sizes.injections {
        return Err(format!(
            "{}: outcome counts do not sum to the injections",
            k.func
        ));
    }

    let inputs = seeded_inputs(seed, sizes.batch_runs, k.args.len(), 0, 1024);
    let t = CpuTime::now();
    let results = simulate_batch_budgeted(pool, &k.decoded, k.func, &inputs, k.ipet_cycles);
    let batch_s = t.elapsed();
    let mut batch_cycles = 0u64;
    for (i, r) in results.iter().enumerate() {
        match r {
            Ok(r) => batch_cycles += r.cycles,
            Err(e) => return Err(format!("{}: batch run {i} trapped: {e}", k.func)),
        }
    }
    let mut machine = Machine::with_models(
        k.program.clone(),
        CycleModel::pg32(),
        GroundTruthEnergy::pg32(),
    )
    .map_err(|e| format!("{}: {e}", k.func))?;
    machine.set_max_cycles(k.ipet_cycles);
    let mut rng = Rng::new(seed ^ 0xB17E);
    for _ in 0..BIT_EQUAL_SAMPLE.min(inputs.len()) {
        let i = rng.below(inputs.len());
        machine.reset_data();
        let reference = machine
            .call(k.func, &inputs[i], &mut NullDevice::new())
            .map_err(|e| format!("{}: reference run {i} trapped: {e}", k.func))?;
        let decoded = results[i].as_ref().expect("checked above");
        if *decoded != reference || decoded.energy_pj.to_bits() != reference.energy_pj.to_bits() {
            return Err(format!(
                "{}: decoded run {i} differs from the reference machine",
                k.func
            ));
        }
    }
    Ok(LegResult {
        fault_s,
        batch_s,
        stats: campaign.stats,
        batch_runs: results.len(),
        batch_cycles,
    })
}
