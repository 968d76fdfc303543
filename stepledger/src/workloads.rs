//! The four workloads, and the training config each one generates from
//! the seed.

use collectives::CodecKind;
use trainer::real::worker::preset;
use trainer::real::TrainConfig;

/// Where the replicas of a workload run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// `try_train` in one process: replicas are threads.
    InProcess { pipeline: bool, codec: CodecKind, error_feedback: bool },
    /// `dist_train launch`: one OS process per rank over Unix sockets.
    Socket,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub preset: &'static str,
    pub backend: Backend,
    /// Steps of a full-length timed run.
    pub steps: usize,
}

/// Replicas (threads or processes) of every workload; the 1-replica run
/// of the same job is the scaling baseline.
pub const WORLD: usize = 2;

/// Steps of a traced run: 1000 step periods, so the step-period p99 has
/// ten samples beyond it.
pub const TRACE_STEPS: usize = 1001;

/// Lowest acceptable final mIoU of a full-length run. Some seeds settle
/// on the all-background solution (mIoU ≈ 0.17), so the floor sits just
/// below it: it catches a run that produced no usable model, while the
/// loss check catches one that did not train.
pub const MIOU_FLOOR: f64 = 0.15;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "inproc-classic-int8ef",
        preset: "quick",
        backend: Backend::InProcess {
            pipeline: false,
            codec: CodecKind::Int8,
            error_feedback: true,
        },
        steps: 600,
    },
    Workload {
        name: "inproc-pipelined",
        preset: "quick",
        backend: Backend::InProcess {
            pipeline: true,
            codec: CodecKind::None,
            error_feedback: false,
        },
        steps: 600,
    },
    Workload { name: "socket-quick", preset: "quick", backend: Backend::Socket, steps: 600 },
    Workload { name: "socket-tiny", preset: "tiny", backend: Backend::Socket, steps: 2000 },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    /// The training config this workload runs at `world` replicas for
    /// `steps` steps, generated from `seed` — exactly what
    /// `dist_train`'s workers build from the same four scalars.
    pub fn config(&self, world: usize, steps: usize, seed: u64) -> TrainConfig {
        let mut cfg = preset(self.preset, world, steps, seed);
        if let Backend::InProcess { pipeline, codec, error_feedback } = self.backend {
            cfg.pipeline = pipeline;
            cfg.codec = codec;
            cfg.error_feedback = error_feedback;
        }
        cfg
    }

    /// Global images per step at `world` replicas.
    pub fn images_per_step(&self, world: usize) -> usize {
        world * self.config(1, 1, 0).batch_per_worker
    }

    pub fn is_socket(&self) -> bool {
        self.backend == Backend::Socket
    }
}
