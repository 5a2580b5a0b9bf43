//! The four TeamPlay applications the benchmark drives, their workflow
//! configurations, and the seeded inputs that exercise their binaries.

use teamplay::predictable::{MeasureConfig, WorkflowConfig};
use teamplay_compiler::FpaConfig;
use teamplay_minic::RecordingPorts;
use teamplay_sim::RecordingDevice;

/// One application: annotated Mini-C source, target and hot kernel.
pub struct App {
    pub name: &'static str,
    pub source: &'static str,
    /// Certified for the LEON3 target instead of PG32.
    pub leon3: bool,
    /// The task function the fault and simulation legs run.
    pub kernel: &'static str,
    /// How many times a certify operation times `run_on`. uav and
    /// parking certify about twenty times faster than the others, so
    /// they repeat, to give their medians more samples in a run.
    pub timed_runs: usize,
}

pub const APPS: [App; 4] = [
    App {
        name: "camera_pill",
        source: teamplay_apps::camera_pill::SOURCE,
        leon3: false,
        kernel: "compress",
        timed_runs: 1,
    },
    App {
        name: "spacewire",
        source: teamplay_apps::spacewire::SOURCE,
        leon3: true,
        kernel: "crc_frame",
        timed_runs: 1,
    },
    App {
        name: "uav",
        source: teamplay_apps::uav::DETECT_KERNEL_SOURCE,
        leon3: false,
        kernel: "predetect",
        timed_runs: 3,
    },
    App {
        name: "parking",
        source: teamplay_apps::parking::CONV_KERNEL_SOURCE,
        leon3: false,
        kernel: "conv_layer",
        timed_runs: 3,
    },
];

impl App {
    /// The workflow configuration every certify operation uses: the
    /// standard search budget with the measurement step on, and the
    /// workflow's default seed. The search seed is not drawn from the
    /// workload seed: it sets how many configurations a search visits,
    /// and so would make an operation's work, not just its inputs,
    /// differ from seed to seed.
    pub fn config(&self, store_dir: Option<String>) -> WorkflowConfig {
        let mut cfg = if self.leon3 {
            WorkflowConfig::leon3()
        } else {
            WorkflowConfig::pg32()
        };
        cfg.fpa = FpaConfig::standard();
        cfg.measure = Some(MeasureConfig::standard());
        cfg.store_dir = store_dir;
        cfg
    }
}

/// SplitMix64: the benchmark's own seeded stream for orders, sampled
/// indices, genomes and port data.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Ports 0..4 carry input data in the four apps (sensor, camera, tile).
const INPUT_PORTS: u8 = 4;
/// More words than any app reads from one port in one pass of its tasks.
const WORDS_PER_PORT: usize = 320;

/// Seeded input words for every port an app may read; the same data
/// feeds the interpreter, the reference machine and fault campaigns.
#[derive(Clone)]
pub struct PortData(Vec<(u8, Vec<i32>)>);

impl PortData {
    pub fn seeded(seed: u64) -> PortData {
        let mut rng = Rng::new(seed);
        PortData(
            (0..INPUT_PORTS)
                .map(|port| {
                    let words = (0..WORDS_PER_PORT)
                        .map(|_| rng.below(4096) as i32)
                        .collect();
                    (port, words)
                })
                .collect(),
        )
    }

    pub fn device(&self) -> RecordingDevice {
        let mut dev = RecordingDevice::new();
        for (port, words) in &self.0 {
            dev.queue(*port, words.iter().copied());
        }
        dev
    }

    pub fn ports(&self) -> RecordingPorts {
        let mut ports = RecordingPorts::new();
        for (port, words) in &self.0 {
            ports.queue(*port, words.iter().copied());
        }
        ports
    }
}
