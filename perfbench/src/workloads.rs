//! The three workloads — `certify_cold`, `recertify_warm` and
//! `fault_sweep` — each a closed loop of one client: the next operation
//! starts when the previous one (and its correctness checks) finished.
//! A pass runs every app (or kernel) once, in a seed-drawn order, and
//! passes repeat until the measuring time is spent.

use crate::apps::{PortData, Rng, APPS};
use crate::calib::{self, CpuTime};
use crate::checks::{self, Kernel, LegResult, LegSizes};
use crate::replay::{compile_leg, replay, CompileLeg, Trace};
use minipool::Pool;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use teamplay::predictable::{PredictableOutcome, PredictableWorkflow, WorkflowConfig};
use teamplay_compiler::driver::code_size_halfwords;
use teamplay_compiler::{generate_program, CodegenOpts, PassManager};
use teamplay_energy::{analyze_program_energy, IsaEnergyModel};
use teamplay_isa::{CycleModel, Program};
use teamplay_minic::{lower::lower_program, parse_and_check};

/// Layer spans of the traced replay and simulation legs, reported as
/// busy seconds.
const SPANS: [&str; 14] = [
    "minic.frontend_s",
    "csl.extract_s",
    "security.ladderise_s",
    "compiler.search_s",
    "sim.measure_s",
    "coord.schedule_s",
    "compiler.final_build_s",
    "wcet.final_s",
    "energy.final_s",
    "security.leakage_s",
    "contracts.prove_s",
    "coord.glue_s",
    "sim.fault_s",
    "sim.batch_s",
];
/// Fault and batch legs of every `fault_sweep` operation.
const SWEEP_LEGS: LegSizes = LegSizes {
    injections: 1024,
    batch_runs: 4096,
};
/// The smaller legs each certify operation runs on the kernel of the
/// binary it just certified.
const DEPLOY_LEGS: LegSizes = LegSizes {
    injections: 128,
    batch_runs: 512,
};
/// Set-ups per run (the reported `setup_s` is their median). The warm
/// set-up certifies all four apps, so it repeats fewer times.
const SETUP_REPS: usize = 31;
const WARM_SETUP_REPS: usize = 3;
/// Seeded genomes per app in the traced compile leg.
const COMPILE_LEG_GENOMES: usize = 48;
/// The PG32 clock the fault kernels' bounds are quoted at.
const PG32_MHZ: f64 = 48.0;

/// The benchmark's settings for one run.
pub struct Run {
    pub pool: Pool,
    pub seed: u64,
    pub seconds: f64,
    pub work_dir: PathBuf,
}

#[derive(Clone, Copy, PartialEq)]
pub enum Workload {
    CertifyCold,
    RecertifyWarm,
    FaultSweep,
}

/// The result line of one run.
pub struct Report {
    pub correct: bool,
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Vec<(String, f64)>,
}

/// Counts attempted and failed operations; a failed check outside an
/// operation (determinism, fidelity, coverage) makes the run incorrect.
#[derive(Default)]
struct Tally {
    attempted: usize,
    failed: usize,
    broken: usize,
}

impl Tally {
    /// Run one operation; an error or a panic counts it as failed.
    fn op<R>(&mut self, what: &str, f: impl FnOnce() -> Result<R, String>) -> Option<R> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(r)) => Some(r),
            Ok(Err(e)) => {
                eprintln!("perfbench: {what} failed: {e}");
                self.failed += 1;
                None
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                eprintln!("perfbench: {what} panicked: {msg}");
                self.failed += 1;
                None
            }
        }
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            eprintln!("perfbench: check failed: {}", what());
            self.broken += 1;
        }
    }

    fn report(self, metrics: Vec<(String, f64)>) -> Report {
        Report {
            correct: self.failed == 0 && self.broken == 0,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
        }
    }
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One app ready to certify: its configuration and the oracle's
/// seeded task arguments and port data.
struct Prepared {
    app: usize,
    cfg: WorkflowConfig,
    ast: teamplay_minic::Program,
    tasks: Vec<String>,
    args: Vec<Vec<i32>>,
    ports: PortData,
}

impl Prepared {
    fn kernel_arity(&self) -> usize {
        self.ast
            .function(APPS[self.app].kernel)
            .map_or(0, |f| f.params.len())
    }
}

fn app_seed(seed: u64, app: usize) -> u64 {
    seed ^ ((app as u64 + 1) << 40)
}

fn prepare(seed: u64, store: Option<&Path>) -> Result<Vec<Prepared>, String> {
    APPS.iter()
        .enumerate()
        .map(|(i, app)| {
            let ast = parse_and_check(app.source).map_err(|e| format!("{}: {e}", app.name))?;
            let model =
                teamplay_csl::extract_model(&ast).map_err(|e| format!("{}: {e}", app.name))?;
            let tasks: Vec<String> = model.tasks.iter().map(|t| t.function.clone()).collect();
            let args = checks::task_args(&ast, &tasks, app_seed(seed, i));
            let store = store.map(|p| p.to_string_lossy().into_owned());
            Ok(Prepared {
                app: i,
                cfg: app.config(store),
                ast,
                tasks,
                args,
                ports: PortData::seeded(app_seed(seed, i) ^ 0x9047),
            })
        })
        .collect()
}

fn certify(pool: &Pool, p: &Prepared) -> Result<PredictableOutcome, String> {
    PredictableWorkflow::new(p.cfg.clone())
        .run_on(pool, APPS[p.app].source)
        .map_err(|e| e.to_string())
}

/// Certify-workload set-up: the oracle inputs for all four apps, then
/// either a warm-up certification of the smallest app (cold) or one
/// cold pass of all four apps that fills the evaluation store (warm).
fn certify_setup(run: &Run, store: Option<&Path>) -> Result<Vec<Prepared>, String> {
    if let Some(dir) = store {
        let _ = std::fs::remove_dir_all(dir);
    }
    let prepared = prepare(run.seed, store)?;
    let warm_up: Vec<&Prepared> = match store {
        Some(_) => prepared.iter().collect(),
        None => prepared
            .iter()
            .filter(|p| APPS[p.app].name == "uav")
            .collect(),
    };
    for p in warm_up {
        certify(&run.pool, p).map_err(|e| format!("set-up: {}: {e}", APPS[p.app].name))?;
    }
    Ok(prepared)
}

/// Sums of the certified tasks' WCET (µs) and WCEC (µJ), and the
/// certified binary's size (halfwords).
fn cert_sums(outcome: &PredictableOutcome) -> [f64; 3] {
    [
        outcome.tasks.iter().map(|t| t.wcet_us).sum(),
        outcome.tasks.iter().map(|t| t.wcec_uj).sum(),
        program_halfwords(&outcome.program),
    ]
}

fn program_halfwords(program: &Program) -> f64 {
    program
        .functions
        .values()
        .map(code_size_halfwords)
        .sum::<usize>() as f64
}

/// One timed operation's numbers.
struct Op {
    /// CPU seconds of each timed `run_on` (or of the fault and batch
    /// legs).
    seconds: Vec<f64>,
    legs: LegResult,
    cert: [f64; 3],
}

/// One certify operation: the app's timed `run_on`s, which must agree,
/// then the oracle checks and the deployment legs on the certified
/// kernel (timed separately).
fn certify_op(run: &Run, p: &Prepared, warm: bool) -> Result<Op, String> {
    let mut seconds = Vec::new();
    let mut outcome: Option<PredictableOutcome> = None;
    for _ in 0..APPS[p.app].timed_runs {
        let t = CpuTime::now();
        let o = certify(&run.pool, p)?;
        seconds.push(t.elapsed());
        match &outcome {
            Some(first) if first.certificate.to_json() != o.certificate.to_json() => {
                return Err("a repeated run_on certified differently".into())
            }
            Some(_) => {}
            None => outcome = Some(o),
        }
    }
    let outcome = outcome.ok_or("no timed run_on")?;
    let s = outcome.search;
    if warm && (s.disk_hits != s.cache_misses || s.disk_misses != 0) {
        return Err(format!(
            "warm store missed: {} disk hits for {} compiles",
            s.disk_hits, s.cache_misses
        ));
    }
    if !warm && s.disk_hits != 0 {
        return Err("cold certification read the disk store".into());
    }
    checks::certificate_and_measurements_hold(&outcome)?;
    checks::binary_matches_interpreter(
        &p.ast,
        &outcome.program,
        &p.cfg,
        &p.tasks,
        &p.args,
        &p.ports,
    )?;
    let seed = app_seed(run.seed, p.app);
    let kernel = Kernel::new(
        APPS[p.app].kernel,
        p.kernel_arity(),
        outcome.program.clone(),
        seed,
    )?;
    let legs = checks::run_legs(&run.pool, &kernel, DEPLOY_LEGS, seed)?;
    Ok(Op {
        seconds,
        legs,
        cert: cert_sums(&outcome),
    })
}

/// The four app kernels under their tuned catalogue pipelines, with
/// their static bounds: `(kernel, [wcet_us, wcec_uj, halfwords])`.
fn tuned_kernels(seed: u64) -> Result<Vec<(Kernel, [f64; 3])>, String> {
    let catalog = teamplay_apps::catalog();
    let cm = CycleModel::pg32();
    let em = IsaEnergyModel::pg32_datasheet();
    APPS.iter()
        .enumerate()
        .map(|(i, app)| {
            let ast = parse_and_check(app.source).map_err(|e| format!("{}: {e}", app.name))?;
            let arity = ast
                .function(app.kernel)
                .ok_or("kernel missing")?
                .params
                .len();
            let mut module = lower_program(&ast);
            let pipeline = catalog.get(app.name).ok_or("tuned pipeline missing")?;
            PassManager::new(pipeline.clone())
                .map_err(|e| e.to_string())?
                .run(&mut module);
            let program =
                generate_program(&module, CodegenOpts::default()).map_err(|e| e.to_string())?;
            let wcec_pj = analyze_program_energy(&program, &em, &cm)
                .map_err(|e| e.to_string())?
                .wcec_pj(app.kernel)
                .ok_or("kernel has no WCEC")?;
            let halfwords = program_halfwords(&program);
            let kernel = Kernel::new(app.kernel, arity, program, app_seed(seed, i))?;
            let cert = [
                kernel.ipet_cycles as f64 / PG32_MHZ,
                wcec_pj / 1e6,
                halfwords,
            ];
            Ok((kernel, cert))
        })
        .collect()
}

/// Accumulates a run's end-to-end figures.
#[derive(Default)]
struct Totals {
    per_app: [Vec<f64>; 4],
    pass_walls: Vec<f64>,
    /// Calibration job times, one before every set-up and every timed
    /// operation.
    calibration: Vec<f64>,
    fault_s: f64,
    injections: usize,
    batch_s: f64,
    batch_cycles: u64,
    /// Per app: the first operation's certified figures and leg counts,
    /// which every later pass must repeat exactly.
    first: [Option<([f64; 3], LegResult)>; 4],
}

impl Totals {
    fn record(&mut self, tally: &mut Tally, app: usize, op: &Op, timed: bool) {
        if timed {
            self.per_app[app].extend(&op.seconds);
            self.fault_s += op.legs.fault_s;
            self.injections += op.legs.stats.total();
            self.batch_s += op.legs.batch_s;
            self.batch_cycles += op.legs.batch_cycles;
        }
        match &self.first[app] {
            None => self.first[app] = Some((op.cert, op.legs)),
            Some((cert, legs)) => tally.check(
                cert.map(f64::to_bits) == op.cert.map(f64::to_bits)
                    && legs.stats == op.legs.stats
                    && legs.batch_cycles == op.legs.batch_cycles,
                || format!("{} repeated with different results", APPS[app].name),
            ),
        }
    }

    /// Timings scaled to the reference host (see [`calib`]). One scale,
    /// from every calibration sample of the run, serves the set-up and
    /// the passes: a set-up's own few samples would make a noisier
    /// scale than the set-up time they divide.
    fn metrics(&self, setup_s: f64) -> Vec<(String, f64)> {
        let scale = calib::REFERENCE_S / median(&self.calibration);
        eprintln!(
            "perfbench: calibration median {:.5} s over {} samples (scale {scale:.4})",
            median(&self.calibration),
            self.calibration.len()
        );
        let mut cert = [0.0; 3];
        for (c, _) in self.first.iter().flatten() {
            for (sum, v) in cert.iter_mut().zip(c) {
                *sum += v;
            }
        }
        [
            ("setup_s", scale * setup_s),
            ("wall_s", scale * median(&self.pass_walls)),
            ("camera_pill_s", scale * median(&self.per_app[0])),
            ("spacewire_s", scale * median(&self.per_app[1])),
            ("uav_s", scale * median(&self.per_app[2])),
            ("parking_s", scale * median(&self.per_app[3])),
            (
                "injections_per_s",
                self.injections as f64 / (scale * self.fault_s),
            ),
            (
                "sim_mcycles_per_s",
                self.batch_cycles as f64 / (scale * self.batch_s) / 1e6,
            ),
            ("cert_wcet_us", cert[0]),
            ("cert_wcec_uj", cert[1]),
            ("cert_code_halfwords", cert[2]),
            ("peak_rss_mb", peak_rss_mb()),
        ]
        .map(|(name, value)| (name.to_string(), value))
        .to_vec()
    }
}

/// Peak resident set size of this process (MiB), from procfs.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeat `setup` `reps` times, each after a calibration sample added
/// to `calibration`, and return the last result with the median set-up
/// time in host seconds.
fn timed_setups<T>(
    calibration: &mut Vec<f64>,
    reps: usize,
    mut setup: impl FnMut(usize) -> Result<T, String>,
) -> Result<(T, f64), String> {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        calibration.push(calib::sample());
        let t = CpuTime::now();
        last = Some(setup(rep)?);
        times.push(t.elapsed());
    }
    eprintln!("perfbench: set-ups {times:.4?}");
    Ok((last.expect("at least one set-up"), median(&times)))
}

fn store_dir(run: &Run, rep: usize) -> PathBuf {
    run.work_dir.join(format!("store-{rep}"))
}

/// The closed loop: passes of all four operations in a seed-drawn
/// order until the measuring time is spent. A first, untimed pass warms
/// the process up (allocator, caches) and fixes the results every later
/// pass must repeat.
fn run_passes(
    run: &Run,
    tally: &mut Tally,
    totals: &mut Totals,
    mut op: impl FnMut(&mut Tally, usize) -> Option<Op>,
) {
    let mut rng = Rng::new(run.seed ^ 0x0D0E_0F00);
    let mut pass = |tally: &mut Tally, totals: &mut Totals, timed: bool| {
        let mut order = [0usize, 1, 2, 3];
        rng.shuffle(&mut order);
        let mut wall = Some(0.0);
        for app in order {
            if timed {
                totals.calibration.push(calib::sample());
            }
            match op(tally, app) {
                Some(o) => {
                    totals.record(tally, app, &o, timed);
                    let mean = o.seconds.iter().sum::<f64>() / o.seconds.len() as f64;
                    wall = wall.map(|w| w + mean);
                }
                None => wall = None,
            }
        }
        if let (true, Some(w)) = (timed, wall) {
            totals.pass_walls.push(w);
        }
    };
    pass(tally, totals, false);
    let start = std::time::Instant::now();
    loop {
        pass(tally, totals, true);
        if start.elapsed().as_secs_f64() >= run.seconds {
            break;
        }
    }
}

/// An end-to-end run (tracing off) of one workload.
pub fn measure(run: &Run, workload: Workload) -> Result<Report, String> {
    let mut tally = Tally::default();
    let mut totals = Totals::default();
    let setup_s = match workload {
        Workload::CertifyCold | Workload::RecertifyWarm => {
            let warm = workload == Workload::RecertifyWarm;
            let reps = if warm { WARM_SETUP_REPS } else { SETUP_REPS };
            let (prepared, setup_s) = timed_setups(&mut totals.calibration, reps, |rep| {
                if rep > 0 {
                    let _ = std::fs::remove_dir_all(store_dir(run, rep - 1));
                }
                certify_setup(run, warm.then(|| store_dir(run, rep)).as_deref())
            })?;
            run_passes(run, &mut tally, &mut totals, |tally, app| {
                tally.op(APPS[app].name, || certify_op(run, &prepared[app], warm))
            });
            setup_s
        }
        Workload::FaultSweep => {
            let (kernels, setup_s) = timed_setups(&mut totals.calibration, SETUP_REPS, |_| {
                tuned_kernels(run.seed)
            })?;
            run_passes(run, &mut tally, &mut totals, |tally, app| {
                tally.op(APPS[app].kernel, || {
                    let (kernel, cert) = &kernels[app];
                    let legs =
                        checks::run_legs(&run.pool, kernel, SWEEP_LEGS, app_seed(run.seed, app))?;
                    Ok(Op {
                        seconds: vec![legs.fault_s + legs.batch_s],
                        legs,
                        cert: *cert,
                    })
                })
            });
            setup_s
        }
    };
    for (i, app) in APPS.iter().enumerate() {
        eprintln!(
            "perfbench: {:<12} {} timings, median {:.4} s, all {:.3?}",
            app.name,
            totals.per_app[i].len(),
            median(&totals.per_app[i]),
            totals.per_app[i]
        );
    }
    Ok(tally.report(totals.metrics(setup_s)))
}

/// Exact counters and certified figures one traced pass produced; two
/// traced passes must agree on all of it.
#[derive(PartialEq, Debug)]
struct Fingerprint {
    counts: Vec<(String, u64)>,
    certificates: Vec<String>,
    certs: Vec<[u64; 3]>,
}

/// One traced pass over the four apps: replay each certification,
/// replay the compile leg, and run the workload's simulation legs.
struct TracedPass {
    trace: Trace,
    replay_s: f64,
    leg: CompileLeg,
    certificates: Vec<Option<String>>,
    fingerprint: Fingerprint,
}

fn traced_pass(
    run: &Run,
    pool: &Pool,
    workload: Workload,
    prepared: &[Prepared],
    sweep: &[(Kernel, [f64; 3])],
    tally: &mut Tally,
    label: &str,
) -> TracedPass {
    let mut trace = Trace::default();
    let mut replayed = Vec::new();
    let t = CpuTime::now();
    for p in prepared {
        let name = APPS[p.app].name;
        replayed.push(tally.op(&format!("replay {name} ({label})"), || {
            replay(pool, &p.cfg, APPS[p.app].source, &mut trace)
        }));
    }
    let replay_s = t.elapsed();

    let mut leg = CompileLeg::default();
    for (p, r) in prepared.iter().zip(&replayed) {
        let Some(r) = r else { continue };
        let dir = run.work_dir.join(format!("compile-store-{}", p.app));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_str = dir.to_string_lossy().into_owned();
        tally.op(
            &format!("compile leg {} ({label})", APPS[p.app].name),
            || {
                compile_leg(
                    &p.cfg,
                    &r.ir,
                    COMPILE_LEG_GENOMES,
                    app_seed(run.seed, p.app),
                    &dir_str,
                    &mut trace,
                    &mut leg,
                )
            },
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    let sizes = if workload == Workload::FaultSweep {
        SWEEP_LEGS
    } else {
        DEPLOY_LEGS
    };
    for (i, app) in APPS.iter().enumerate() {
        let seed = app_seed(run.seed, i);
        let legs = tally.op(&format!("sim legs {} ({label})", app.kernel), || {
            let deployed;
            let kernel = match workload {
                Workload::FaultSweep => &sweep[i].0,
                _ => {
                    let r = replayed[i].as_ref().ok_or("replay failed")?;
                    let arity = prepared[i].kernel_arity();
                    deployed = Kernel::new(app.kernel, arity, r.program.clone(), seed)?;
                    &deployed
                }
            };
            checks::run_legs(pool, kernel, sizes, seed)
        });
        if let Some(l) = legs {
            *trace.spans.entry("sim.fault_s").or_default() += l.fault_s;
            *trace.spans.entry("sim.batch_s").or_default() += l.batch_s;
            trace.count("sim.fault_injections", l.stats.total() as u64);
            trace.count("sim.fault_masked", l.stats.masked as u64);
            trace.count("sim.batch_runs", l.batch_runs as u64);
            trace.count("sim.batch_cycles", l.batch_cycles);
        }
    }

    let fingerprint = Fingerprint {
        counts: trace.counts.iter().map(|(k, v)| (k.clone(), *v)).collect(),
        certificates: replayed
            .iter()
            .flatten()
            .map(|r| r.certificate_json.clone())
            .collect(),
        certs: replayed
            .iter()
            .flatten()
            .map(|r| r.cert.map(f64::to_bits))
            .collect(),
    };
    TracedPass {
        trace,
        replay_s,
        leg,
        certificates: replayed
            .into_iter()
            .map(|r| r.map(|r| r.certificate_json))
            .collect(),
        fingerprint,
    }
}

/// The traced run: replay every layer at the run's pool width, check
/// it against `run_on`, replay again on two workers and require equal
/// counters, then report the per-layer metrics of the first replay.
pub fn traced(run: &Run, workload: Workload) -> Result<Report, String> {
    let mut tally = Tally::default();
    let warm = workload == Workload::RecertifyWarm;
    let store = warm.then(|| store_dir(run, 0));
    let prepared = certify_setup(run, store.as_deref())?;
    let sweep = if workload == Workload::FaultSweep {
        tuned_kernels(run.seed)?
    } else {
        Vec::new()
    };
    let mut calibration: Vec<f64> = (0..3).map(|_| calib::sample()).collect();

    let a = traced_pass(
        run, &run.pool, workload, &prepared, &sweep, &mut tally, "pool",
    );
    for (p, cert) in prepared.iter().zip(&a.certificates) {
        let name = APPS[p.app].name;
        let Some(cert) = cert else { continue };
        tally.op(&format!("run_on {name}"), || {
            let outcome = certify(&run.pool, p)?;
            if outcome.certificate.to_json() != *cert {
                return Err("replayed certificate differs from run_on's".into());
            }
            Ok(())
        });
    }
    let b = traced_pass(
        run,
        &Pool::new(2),
        workload,
        &prepared,
        &sweep,
        &mut tally,
        "2 workers",
    );
    calibration.extend((0..3).map(|_| calib::sample()));
    tally.check(a.fingerprint == b.fingerprint, || {
        format!(
            "traced passes disagree:\n{:?}\n{:?}",
            a.fingerprint, b.fingerprint
        )
    });

    let counts = &a.trace.counts;
    let count = |name: &str| counts.get(name).copied().unwrap_or(0) as f64;
    let (compiles, disk_hits) = (count("compiler.compiles"), count("compiler.disk_hits"));
    tally.check(
        if warm {
            disk_hits == compiles
        } else {
            disk_hits == 0.0
        },
        || format!("{disk_hits} disk hits for {compiles} compiles"),
    );
    let replay_spans: f64 = a
        .trace
        .spans
        .iter()
        .filter(|(name, _)| !matches!(**name, "sim.fault_s" | "sim.batch_s"))
        .map(|(_, s)| s)
        .sum();
    let coverage = replay_spans / a.replay_s;
    tally.check(coverage >= 0.95, || {
        format!("layer spans cover {coverage:.3} of the replay")
    });

    // Busy seconds, scaled to the reference host like the end-to-end
    // timings.
    let scale = calib::REFERENCE_S / median(&calibration);
    let span = |name: &str| scale * a.trace.spans.get(name).copied().unwrap_or(0.0);
    let leg = &a.leg;
    let per = |total: f64, n: usize| scale * total / n.max(1) as f64;
    let mut metrics: Vec<(String, f64)> = [
        ("trace.replay_s", scale * a.replay_s),
        ("trace.span_coverage", coverage),
        ("compiler.evaluations", count("compiler.evaluations")),
        ("compiler.compiles", compiles),
        (
            "compiler.cache_hit_ratio",
            count("compiler.cache_hits") / (count("compiler.cache_hits") + compiles),
        ),
        ("compiler.disk_hits", disk_hits),
        (
            "compiler.passes_s_per_compile",
            per(leg.passes_s, leg.compiles),
        ),
        (
            "compiler.codegen_s_per_compile",
            per(leg.codegen_s, leg.compiles),
        ),
        ("wcet.ipet_s_per_compile", per(leg.ipet_s, leg.analysed)),
        ("energy.wcec_s_per_compile", per(leg.wcec_s, leg.analysed)),
        ("compiler.eval_compile_s", scale * median(&leg.eval_compile)),
        (
            "compiler.eval_disk_hit_s",
            scale * median(&leg.eval_disk_hit),
        ),
        ("coord.schedule_calls", count("coord.schedule_calls")),
        ("sim.fault_injections", count("sim.fault_injections")),
        (
            "sim.fault_masked_ratio",
            count("sim.fault_masked") / count("sim.fault_injections"),
        ),
        ("sim.batch_runs", count("sim.batch_runs")),
        ("sim.batch_cycles", count("sim.batch_cycles")),
    ]
    .into_iter()
    .chain(SPANS.map(|name| (name, span(name))))
    .map(|(name, value)| (name.to_string(), value))
    .collect();
    for pass in teamplay_compiler::REGISTRY {
        for what in ["invocations", "changes"] {
            let name = format!("passes.{}.{what}", pass.name);
            let n = count(&name);
            metrics.push((name, n));
        }
    }
    eprintln!(
        "perfbench: replay {:.3} s, span coverage {:.3}, compile leg {} compiles",
        a.replay_s, coverage, leg.compiles
    );
    Ok(tally.report(metrics))
}
