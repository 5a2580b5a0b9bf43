//! Host-speed calibration.
//!
//! The shared 2-vCPU hosts this benchmark runs on drift in speed by up
//! to 2× over tens of minutes, across everything a run measures. A
//! fixed calibration job — code of the benchmark's own, independent of
//! the toolchain — is timed before every pass and every set-up, and
//! each run's timings are scaled by `REFERENCE_S / median(calibration)`.
//! The drift cancels, while a change to the toolchain moves only the
//! workload side of the ratio.
//!
//! The job does what a compiler does most: it allocates small objects,
//! hashes and formats strings, sorts, parses text and walks a balanced
//! tree. On a 7-minute probe that crossed a 1.7× host slow-down, its
//! time moved with `run_on`'s (log-log slope 0.96–0.99 for warm
//! camera_pill, cold camera_pill and cold uav) and left a spread of
//! 0.06–0.08 in the scaled times, against 0.24–0.26 raw. A job of
//! integer mixing, a pointer chase within the L2 cache and streaming
//! sums, used before, moved too little (slope 1.4–1.6, scaled spread
//! 0.12–0.14); a pointer chase over 32 MiB moved less still.

use crate::apps::Rng;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;

/// The calibration time scaled timings are quoted at: they read as
/// seconds on a host where the job takes this long (a calm period of a
/// 2-vCPU, 2.1 GHz virtual machine).
pub const REFERENCE_S: f64 = 0.03;

const ROUNDS: u64 = 6;

/// Time one calibration job on the calling thread. It frees its heap,
/// about 1 MiB, before it returns and spawns no thread.
pub fn sample() -> f64 {
    let t = CpuTime::now();
    black_box(job());
    t.elapsed()
}

/// A point in the CPU time this process has used, all threads included
/// (those that have exited too): every timing of the benchmark is
/// taken on this clock. With one worker and no waits, CPU time is wall
/// time less the time the hypervisor ran other guests on this vCPU —
/// the steal, which on the shared hosts this was sized on came in
/// bursts of several percent of a run.
#[derive(Clone, Copy)]
pub struct CpuTime(f64);

// `CpuTime::now` passes a timespec of two 64-bit fields.
const _: () = assert!(cfg!(all(target_os = "linux", target_pointer_width = "64")));

impl CpuTime {
    pub fn now() -> CpuTime {
        #[repr(C)]
        struct Timespec {
            sec: i64,
            nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `clock_gettime` writes one `timespec` through the
        // pointer it is given; on 64-bit Linux, the only target the
        // assertion above admits, that is two 64-bit fields, as here.
        let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
        CpuTime(ts.sec as f64 + ts.nsec as f64 * 1e-9)
    }

    /// CPU seconds used since `self`.
    pub fn elapsed(&self) -> f64 {
        CpuTime::now().0 - self.0
    }
}

fn job() -> u64 {
    // A fixed hasher, so that every run hashes the same way.
    type Map<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;
    let mut rng = Rng::new(0xCA11_B4A7);
    let mut acc = 0u64;
    for round in 0..ROUNDS {
        let mut groups: Map<String, Vec<u64>> = Map::default();
        for i in 0..12_000 {
            let key = format!("k{}_{round}", rng.below(2048));
            groups.entry(key).or_default().push(i);
        }
        let mut sizes: Vec<(usize, String)> =
            groups.iter().map(|(k, v)| (v.len(), k.clone())).collect();
        sizes.sort();
        let text: String = sizes
            .iter()
            .map(|(n, k)| format!("{{\"{k}\":{n}}},"))
            .collect();
        acc += text
            .split(',')
            .filter_map(|s| s.split(':').nth(1))
            .filter_map(|s| s.trim_end_matches('}').parse::<u64>().ok())
            .sum::<u64>();
        let mut tree: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..20_000 {
            *tree.entry(rng.next_u64() % 50_000).or_default() += 1;
        }
        acc += tree
            .range(1_000..30_000)
            .map(|(k, v)| k ^ v)
            .fold(0, u64::wrapping_add);
        let mut boxes: Vec<Box<[u64; 4]>> = (0..8_000)
            .map(|i| Box::new([rng.next_u64(), i, 0, 0]))
            .collect();
        boxes.sort_by_key(|b| b[0]);
        acc += boxes.iter().take(100).map(|b| b[1]).sum::<u64>();
    }
    acc
}
