//! Security-aware Pareto search: leakage as the third objective family.
//!
//! The plain [`pareto_search_on`](crate::driver::pareto_search_on)
//! optimises (WCET, WCEC, code size). This module extends the genome
//! with one *ladder-rung gene* selecting the countermeasure level the
//! variant is compiled under — rung 0 is the task's plain IR, rung 1 the
//! [`ladderise_module`]-hardened IR — and appends a fourth objective:
//! the leakage the [`assess_leakage`] measurement rig observes on the
//! compiled variant (the worse channel's |Welch t|, always finite since
//! [`WELCH_T_CAP`](teamplay_security::WELCH_T_CAP) bounds degenerate
//! sample sets). The FPA then explores the full time/energy/leakage
//! trade-off space the paper's Fig. 1 promises: a hardened variant costs
//! cycles and picojoules but crushes the leakage axis, and the archive
//! keeps both ends of that trade.
//!
//! Determinism carries over unchanged from the plain search: the rung
//! gene decodes purely, both rungs evaluate through their own
//! [`EvalCache`] (one per IR), and leakage scores are memoized behind
//! per-(rung, config) `OnceLock`s with a deterministic simulator seed —
//! so secure fronts are bit-identical at any pool width.
//!
//! With a [`DiskStore`] attached, leakage scores persist alongside
//! evaluation entries under their own key chain (a `"leak"`
//! discriminator keeps the two entry kinds collision-free);
//! [`STORE_FORMAT_VERSION`] was bumped to 2 when these entries were
//! introduced.

use crate::driver::{
    copy_cache_counters, CompilerConfig, EvalCache, ParetoFront, TaskVariant, VariantSecurity,
};
use crate::fpa::{MultiObjectiveFpa, ParetoPoint};
use crate::store::{self, DiskStore, STORE_FORMAT_VERSION};
use crate::FpaConfig;
use minipool::Pool;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};
use teamplay_energy::IsaEnergyModel;
use teamplay_isa::{CycleModel, Program};
use teamplay_minic::ir::IrModule;
use teamplay_security::{
    assess_leakage, ladderise_module, secret_params_of, LadderReport, SecretSpec,
};

/// Genome dimensions of the secure search: the plain
/// [`CompilerConfig::GENOME_DIMS`] plus the trailing ladder-rung gene.
/// [`CompilerConfig::from_genome`] ignores genes past its own dims, so
/// the first 17 genes decode exactly as in the plain search.
pub const SECURE_GENOME_DIMS: usize = CompilerConfig::GENOME_DIMS + 1;

/// Number of countermeasure rungs the rung gene selects from.
pub const LADDER_RUNGS: u32 = 2;

/// Decode the ladder-rung gene (index [`CompilerConfig::GENOME_DIMS`],
/// absent = 0): `[0, 0.5)` → rung 0 (plain), `[0.5, 1]` → rung 1
/// (ladderised).
pub fn rung_of_genome(genome: &[f64]) -> u32 {
    let g = genome
        .get(CompilerConfig::GENOME_DIMS)
        .copied()
        .unwrap_or(0.0);
    u32::from(g >= 0.5)
}

/// Extend a plain 15-gene genome with an explicit rung gene (encoded at
/// the centre of its decoding window, mirroring
/// [`CompilerConfig::to_genome`]'s parameter style).
pub fn genome_with_rung(genome: &[f64], rung: u32) -> Vec<f64> {
    let mut g = genome.to_vec();
    g.resize(CompilerConfig::GENOME_DIMS, 0.0);
    g.push(if rung == 0 { 0.25 } else { 0.75 });
    g
}

/// The measurement-rig configuration of one secure search: which
/// argument of the task is secret, which two classes to compare, and
/// how to drive the simulator. Serializable so leakage-score store keys
/// can commit to it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeakageRig {
    /// Total scalar argument count of the task function.
    pub arg_count: usize,
    /// The secret argument and its two classes.
    pub secret: SecretSpec,
    /// Traces per class (paired public draws).
    pub traces_per_class: usize,
    /// Lower bound (inclusive) of the public-input range.
    pub public_lo: i32,
    /// Upper bound (exclusive) of the public-input range.
    pub public_hi: i32,
    /// RNG seed of the rig (independent of the search seed).
    pub seed: u64,
}

/// Clone `ir` and run the countermeasure ladder over every function
/// with `secret(...)` annotations — the rung-1 module of the secure
/// search. Returns the hardened module and the per-function ladder
/// reports (callers deciding policy can check
/// [`LadderReport::fully_hardened`]).
pub fn ladderised_ir(ir: &IrModule) -> (IrModule, HashMap<String, LadderReport>) {
    let mut hard = ir.clone();
    let secrets: HashMap<_, _> = hard
        .functions
        .iter()
        .map(|f| (f.name.clone(), secret_params_of(f)))
        .filter(|(_, s)| !s.is_empty())
        .collect();
    let reports = ladderise_module(&mut hard, &secrets);
    (hard, reports)
}

/// Score one compiled variant on the rig: the worse channel's |Welch t|
/// (finite by construction). `None` when the measurement run traps —
/// treated as infeasible, exactly like a failed compile.
fn leak_score(program: &Program, task: &str, rig: &LeakageRig) -> Option<f64> {
    let report = assess_leakage(
        program,
        task,
        rig.arg_count,
        rig.secret,
        rig.traces_per_class,
        rig.public_lo..rig.public_hi,
        rig.seed,
    )
    .ok()?;
    Some(report.time.welch_t.max(report.energy.welch_t))
}

/// One memo slot: the `OnceLock` serialises concurrent probes of the
/// same (rung, config) variant.
type LeakSlot = Arc<OnceLock<Option<f64>>>;

/// Per-(rung, config) leakage memo: concurrent probes of one variant
/// block on a per-entry `OnceLock`, so each variant is simulated by
/// exactly one thread (the same discipline [`EvalCache`] applies to
/// compiles) and results are identical at any pool width. With a store
/// attached, misses probe/spill score entries keyed by the rung's own
/// prefix chain.
struct LeakMemo<'a> {
    rig: &'a LeakageRig,
    task: &'a str,
    entries: Mutex<HashMap<(u32, CompilerConfig), LeakSlot>>,
    disk: Option<&'a DiskStore>,
    /// FNV chain per rung over (format version, "leak" discriminator,
    /// the rung's IR, cost models, task, rig). Empty without a store.
    key_prefixes: Vec<u128>,
}

impl<'a> LeakMemo<'a> {
    fn new(rig: &'a LeakageRig, task: &'a str) -> LeakMemo<'a> {
        LeakMemo {
            rig,
            task,
            entries: Mutex::new(HashMap::new()),
            disk: None,
            key_prefixes: Vec::new(),
        }
    }

    fn with_store(
        rig: &'a LeakageRig,
        task: &'a str,
        disk: &'a DiskStore,
        irs: [&IrModule; 2],
        cycle_model: &CycleModel,
        energy_model: &IsaEnergyModel,
    ) -> LeakMemo<'a> {
        let mut memo = LeakMemo::new(rig, task);
        memo.disk = Some(disk);
        let base = store::hash_json(
            store::fnv_offset(),
            &(STORE_FORMAT_VERSION, "leak", task, rig),
        );
        let base = store::hash_json(base, &(cycle_model, energy_model));
        memo.key_prefixes = irs.iter().map(|ir| store::hash_json(base, ir)).collect();
        memo
    }

    /// The leakage score of (rung, config), measured on the program
    /// `program` yields. The program is requested only when the score
    /// is neither memoized nor stored, so a warm store never compiles
    /// for a score it already holds.
    fn score(
        &self,
        rung: u32,
        config: &CompilerConfig,
        program: impl FnOnce() -> Option<Arc<Program>>,
    ) -> Option<f64> {
        let measure = || leak_score(&*program()?, self.task, self.rig);
        let cell = {
            let mut entries = self.entries.lock().expect("leak memo lock");
            entries
                .entry((rung, config.clone()))
                .or_insert_with(|| Arc::new(OnceLock::new()))
                .clone()
        };
        *cell.get_or_init(|| match self.disk {
            Some(disk) => {
                let key = store::hash_json(self.key_prefixes[rung as usize], config);
                if let Some(found) = disk.load_score(key) {
                    found
                } else {
                    let fresh = measure();
                    disk.store_score(key, fresh);
                    fresh
                }
            }
            None => measure(),
        })
    }
}

/// The secure variant search on an explicit pool: FPA over the
/// rung-extended genome, objectives (WCET, WCEC, code size, leakage).
/// `plain_ir` is the task module as written; `hard_ir` its ladderised
/// counterpart (see [`ladderised_ir`]). Bit-identical output at any
/// pool width for a fixed seed; every returned variant carries
/// [`TaskVariant::security`] with its rung and measured leakage, and
/// the front is sorted by (WCET, rung).
#[allow(clippy::too_many_arguments)] // pareto_search_on's signature + the rig
pub fn pareto_search_secure_on(
    pool: &Pool,
    plain_ir: &IrModule,
    hard_ir: &IrModule,
    task: &str,
    cycle_model: &CycleModel,
    energy_model: &IsaEnergyModel,
    fpa_config: FpaConfig,
    seed: u64,
    rig: &LeakageRig,
) -> ParetoFront {
    let caches = [
        EvalCache::new(plain_ir, cycle_model, energy_model),
        EvalCache::new(hard_ir, cycle_model, energy_model),
    ];
    let memo = LeakMemo::new(rig, task);
    search(pool, &caches, &memo, task, fpa_config, seed)
}

/// [`pareto_search_secure_on`] with a persistent [`DiskStore`] bottom
/// tier for both the per-rung evaluations and the leakage scores: a
/// rerun of the same search in a fresh process replays everything from
/// disk and returns a byte-identical front.
#[allow(clippy::too_many_arguments)] // pareto_search_secure_on's signature + the store
pub fn pareto_search_secure_with_store(
    pool: &Pool,
    plain_ir: &IrModule,
    hard_ir: &IrModule,
    task: &str,
    cycle_model: &CycleModel,
    energy_model: &IsaEnergyModel,
    fpa_config: FpaConfig,
    seed: u64,
    rig: &LeakageRig,
    disk: &DiskStore,
) -> ParetoFront {
    let caches = [
        EvalCache::with_store(plain_ir, cycle_model, energy_model, disk),
        EvalCache::with_store(hard_ir, cycle_model, energy_model, disk),
    ];
    let memo = LeakMemo::with_store(
        rig,
        task,
        disk,
        [plain_ir, hard_ir],
        cycle_model,
        energy_model,
    );
    search(pool, &caches, &memo, task, fpa_config, seed)
}

fn search(
    pool: &Pool,
    caches: &[EvalCache<'_>; 2],
    memo: &LeakMemo<'_>,
    task: &str,
    fpa_config: FpaConfig,
    seed: u64,
) -> ParetoFront {
    let fpa = MultiObjectiveFpa::new(fpa_config);
    let outcome = fpa.run_on_seeded(pool, SECURE_GENOME_DIMS, seed, &[], |genome| {
        let rung = rung_of_genome(genome);
        let config = CompilerConfig::from_genome(genome);
        let cache = &caches[rung as usize];
        let (_, metrics) = cache.evaluate(&config)?;
        let m = metrics.of(task)?;
        let leakage = memo.score(rung, &config, || cache.program(&config))?;
        Some(vec![
            m.wcet_cycles as f64,
            m.wcec_pj,
            m.code_halfwords as f64,
            leakage,
        ])
    });

    let mut variants: Vec<TaskVariant> = Vec::new();
    for ParetoPoint { genome, objectives } in outcome.archive {
        let rung = rung_of_genome(&genome);
        let config = CompilerConfig::from_genome(&genome);
        // Deduplicate by decoded phenotype: (configuration, rung).
        if variants
            .iter()
            .any(|v| v.config == config && v.security.map(|s| s.rung) == Some(rung))
        {
            continue;
        }
        // Archived points were all evaluated during the search — cache
        // hits and memo replays, no re-analyses or re-simulations. The
        // program is the one compiled here, or rebuilt once after a
        // disk hit.
        let cache = &caches[rung as usize];
        let (Some((_, metrics)), Some(program)) = (cache.evaluate(&config), cache.program(&config))
        else {
            continue;
        };
        let m = *metrics.of(task).expect("task analysed");
        let Some(leakage) = memo.score(rung, &config, || Some(program.clone())) else {
            continue;
        };
        debug_assert_eq!(m.wcet_cycles as f64, objectives[0]);
        debug_assert_eq!(leakage.to_bits(), objectives[3].to_bits());
        variants.push(TaskVariant {
            config,
            metrics: m,
            program,
            security: Some(VariantSecurity { rung, leakage }),
        });
    }
    variants.sort_by_key(|v| {
        (
            v.metrics.wcet_cycles,
            v.security.map(|s| s.rung).unwrap_or(0),
        )
    });

    let mut stats = outcome.stats;
    // Both rungs' caches feed one search: surface their combined
    // traffic (each counter tier sums, preserving the plain search's
    // `disk_hits + disk_misses == cache_misses` invariant).
    copy_cache_counters(&mut stats, &caches[0]);
    stats.cache_hits += caches[1].hits();
    stats.cache_misses += caches[1].misses();
    stats.disk_hits += caches[1].disk_hits();
    stats.disk_misses += caches[1].disk_misses();
    stats.program_builds += caches[1].program_builds();

    ParetoFront { variants, stats }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teamplay_minic::compile_to_ir;

    /// A branchy secret comparator: rung 0 leaks, rung 1 must not.
    const SECRET_TASK: &str = "/*@ secret(k) @*/
        int gate(int k, int x) {
            int r = 0;
            if (k > 100) { r = (x * 3 + k) * (x - 2) + x / 3; } else { r = x; }
            return r;
        }";

    fn rig() -> LeakageRig {
        LeakageRig {
            arg_count: 2,
            secret: SecretSpec {
                arg_index: 0,
                class0: 0,
                class1: 200,
            },
            traces_per_class: 24,
            public_lo: 0,
            public_hi: 1000,
            seed: 7,
        }
    }

    #[test]
    fn rung_gene_round_trips_and_prefix_decodes_identically() {
        for rung in [0, 1] {
            let plain = vec![0.3; CompilerConfig::GENOME_DIMS];
            let g = genome_with_rung(&plain, rung);
            assert_eq!(g.len(), SECURE_GENOME_DIMS);
            assert_eq!(rung_of_genome(&g), rung);
            // The rung gene is invisible to the config decoder.
            assert_eq!(
                CompilerConfig::from_genome(&g),
                CompilerConfig::from_genome(&plain)
            );
        }
        // A bare 15-gene genome is rung 0.
        assert_eq!(rung_of_genome(&[0.9; CompilerConfig::GENOME_DIMS]), 0);
    }

    #[test]
    fn secure_front_mixes_rungs_and_the_ladder_cuts_leakage() {
        let ir = compile_to_ir(SECRET_TASK).expect("front-end");
        let (hard, reports) = ladderised_ir(&ir);
        assert!(reports["gate"].fully_hardened(), "{reports:?}");
        let front = pareto_search_secure_on(
            &Pool::new(1),
            &ir,
            &hard,
            "gate",
            &CycleModel::pg32(),
            &IsaEnergyModel::pg32_datasheet(),
            FpaConfig::tiny(),
            42,
            &rig(),
        );
        assert!(!front.variants.is_empty());
        for v in &front.variants {
            let s = v.security.expect("secure variants carry security");
            assert!(s.leakage.is_finite());
            assert!(s.rung < LADDER_RUNGS);
        }
        // The hardened rung must appear on the front (it owns the
        // leakage axis) and beat every rung-0 variant on it.
        let best_hard = front
            .variants
            .iter()
            .filter_map(|v| v.security.filter(|s| s.rung == 1))
            .map(|s| s.leakage)
            .fold(f64::INFINITY, f64::min);
        let best_plain = front
            .variants
            .iter()
            .filter_map(|v| v.security.filter(|s| s.rung == 0))
            .map(|s| s.leakage)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_hard < best_plain,
            "ladderised variants must dominate the leakage axis: \
             rung1 {best_hard} vs rung0 {best_plain}"
        );
    }

    #[test]
    fn secure_search_is_byte_identical_across_pool_widths() {
        let ir = compile_to_ir(SECRET_TASK).expect("front-end");
        let (hard, _) = ladderised_ir(&ir);
        let cm = CycleModel::pg32();
        let em = IsaEnergyModel::pg32_datasheet();
        let run = |threads: usize| {
            pareto_search_secure_on(
                &Pool::new(threads),
                &ir,
                &hard,
                "gate",
                &cm,
                &em,
                FpaConfig::tiny(),
                42,
                &rig(),
            )
        };
        let seq = run(1);
        let seq_bytes = serde_json::to_string(&seq.variants).expect("serializes");
        for threads in [2, 4] {
            let par = run(threads);
            let par_bytes = serde_json::to_string(&par.variants).expect("serializes");
            assert_eq!(seq_bytes, par_bytes, "{threads}-thread front diverged");
            assert_eq!(seq.stats, par.stats, "{threads}-thread stats diverged");
        }
    }

    #[test]
    fn secure_search_warm_starts_from_the_store() {
        let dir =
            std::env::temp_dir().join(format!("teamplay-secure-store-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = DiskStore::open(&dir).expect("store dir");
        let ir = compile_to_ir(SECRET_TASK).expect("front-end");
        let (hard, _) = ladderised_ir(&ir);
        let cm = CycleModel::pg32();
        let em = IsaEnergyModel::pg32_datasheet();
        let run = || {
            pareto_search_secure_with_store(
                &Pool::new(2),
                &ir,
                &hard,
                "gate",
                &cm,
                &em,
                FpaConfig::tiny(),
                9,
                &rig(),
                &disk,
            )
        };
        let cold = run();
        assert!(cold.stats.disk_misses > 0);
        assert_eq!(cold.stats.disk_hits, 0);
        assert_eq!(cold.stats.program_builds, 0);
        let warm = run();
        assert_eq!(warm.stats.disk_misses, 0, "everything replays from disk");
        assert_eq!(warm.stats.disk_hits, cold.stats.disk_misses);
        // Metrics and leakage scores both come from disk, so the warm
        // search rebuilds the programs of its front variants only: one
        // per distinct (rung, configuration).
        let front: std::collections::HashSet<_> = warm
            .variants
            .iter()
            .map(|v| (v.security.map(|s| s.rung), &v.config))
            .collect();
        assert_eq!(warm.stats.program_builds, front.len());
        let bytes = |f: &ParetoFront| serde_json::to_string(&f.variants).expect("serializes");
        assert_eq!(bytes(&cold), bytes(&warm));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
