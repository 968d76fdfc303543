//! One rank of the real trainer as a separate OS process.
//!
//! [`run_worker`] is the multi-process twin of
//! [`try_train`](super::train::try_train)'s classic path: the same
//! seed-derived initialization, the same original-id shard addressing,
//! the same codec roundtrip, and the same schedule — executed over a
//! [`transport::Wire`] by a [`collectives::PeerExecutor`] instead of
//! across threads. Because every applied payload and every combine is
//! ordered by the schedule, a multi-process run is bit-identical to
//! the threaded run for the same seed (the socket-parity integration
//! test pins this).
//!
//! # The commit protocol
//!
//! Crash tolerance is where processes genuinely differ from threads:
//! when a rank is SIGKILLed mid-step, some survivors may have finished
//! the collective while others must abort — under e.g. recursive
//! doubling the dead rank's last sends can complete one survivor's
//! exchange posthumously (kernel-buffered bytes drain before EOF). If
//! each survivor decided alone, they would diverge. So the optimizer
//! update is gated by the launcher acting as a commit coordinator over
//! each worker's control stream:
//!
//! 1. A worker that completes step `s`'s exchange sends `StepDone{s,
//!    era}` and *waits* — it does not apply the update.
//! 2. The coordinator broadcasts `Commit{s}` only when every live
//!    worker has voted for `s` in the current era.
//! 3. On a worker death (control-stream EOF, heartbeat silence, or a
//!    deliberate chaos kill), the coordinator instead bumps the era,
//!    discards the round's votes, and broadcasts `Degrade{dead, era}`.
//!
//! Control streams are ordered, so every survivor observes the same
//! prefix of `Commit`s before the `Degrade` — all survivors agree on
//! the degrade step `d` without any inter-worker agreement protocol.
//! On `Degrade` a worker restores its pre-exchange gradient snapshot,
//! removes the dead from its live set, rebuilds **and re-verifies**
//! the schedule over the survivors, bumps the transport era (sequence
//! numbers restart; stale-era frames are dropped on arrival), and
//! re-executes the exchange. The optimizer is therefore applied
//! exactly once per step, on identical bytes, at every survivor —
//! which is what makes the chaos result reproducible by a threaded
//! run with a crash injected at `(d, round 0)`.

use std::time::Duration;

use collectives::compression::{self, EncodeScratch, ErrorFeedback};
use collectives::{CtlSignal, PeerExecError, PeerExecutor, ReduceOp, Schedule, Violation};
use faults::RetryPolicy;
use summit_metrics::rng::derive_seed;
use trace::telemetry::{metric, WorkerTelemetry};
use transport::{Frame, FrameKind, PeerConn, Wire, WireError};

use super::net::{BatchWorkspace, SegNet};
use super::segdata::generate_batch;
use super::sgd::{LrSchedule, MomentumSgd};
use super::train::TrainConfig;

/// One elastic degradation as the worker observed it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradeRecord {
    /// The training step that was re-executed over the survivors.
    pub step: usize,
    /// Original ids declared dead by this degrade.
    pub dead: Vec<usize>,
    /// The era entered after the degrade.
    pub era: u32,
}

/// What one worker process produced.
#[derive(Debug, Clone)]
pub struct WorkerOutcome {
    pub rank: usize,
    pub final_params: Vec<f32>,
    /// This worker's own per-step training loss (committed steps only).
    pub step_losses: Vec<f64>,
    /// Original ids alive at the end, ascending.
    pub survivors: Vec<usize>,
    pub degradations: Vec<DegradeRecord>,
}

/// Why a worker run failed.
#[derive(Debug)]
pub enum WorkerError {
    /// The (initial or rebuilt) schedule failed static verification.
    Verification(Vec<Violation>),
    /// The peer executor failed unrecoverably.
    Exec(PeerExecError),
    /// The commit protocol broke down (coordinator gone or insane).
    Coordinator(String),
}

impl std::fmt::Display for WorkerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkerError::Verification(v) => write!(f, "schedule failed verification: {v:?}"),
            WorkerError::Exec(e) => write!(f, "peer executor failed: {e}"),
            WorkerError::Coordinator(why) => write!(f, "commit protocol failed: {why}"),
        }
    }
}

impl std::error::Error for WorkerError {}

/// Shared named configs so the launcher, the workers, and the parity
/// tests construct the *same* [`TrainConfig`] from four scalars.
/// `tiny` mirrors the trainer test fixture (10×10 data, 2 per worker);
/// `quick` is [`TrainConfig::quick`].
pub fn preset(name: &str, workers: usize, steps: usize, seed: u64) -> TrainConfig {
    let mut cfg = match name {
        "quick" => TrainConfig::quick(workers),
        "tiny" => {
            use super::net::NetConfig;
            use super::segdata::DataConfig;
            let mut cfg = TrainConfig::quick(workers);
            cfg.data = DataConfig { height: 10, width: 10, ..DataConfig::default() };
            cfg.net = NetConfig {
                height: 10,
                width: 10,
                cin: 3,
                hidden1: 4,
                hidden2: 6,
                n_classes: 4,
                k: 3,
            };
            cfg.batch_per_worker = 2;
            cfg.warmup_steps = 5;
            cfg.eval_samples = 16;
            cfg
        }
        other => panic!("unknown preset {other:?} (expected tiny|quick)"),
    };
    cfg.workers = workers;
    cfg.steps = steps;
    cfg.seed = seed;
    cfg
}

/// What a completed step's commit wait resolved to.
enum Verdict {
    Commit,
    Degrade(DegradeRecord),
}

/// Run this process's rank of `cfg` over `wire`, arbitrated by the
/// coordinator on `ctl`. Applies exactly the classic-path math of
/// `try_train` for `wire.rank()`.
///
/// With `telemetry` set, the worker folds step counters, wire stats,
/// and flight-recorder events into the shared [`WorkerTelemetry`] and
/// pushes one synchronous snapshot over `ctl` at every step begin (the
/// heartbeat thread pushes the rest at beacon cadence — see
/// `PeerConn::solo_with_telemetry`). Telemetry never touches the
/// training math: a telemetry run is bit-identical to a plain one.
pub fn run_worker(
    cfg: &TrainConfig,
    wire: &dyn Wire,
    ctl: &PeerConn,
    policy: RetryPolicy,
    telemetry: Option<&WorkerTelemetry>,
) -> Result<WorkerOutcome, WorkerError> {
    let rank = wire.rank();
    let n_params = cfg.net.n_params();
    // One trace lane per process, keyed by original rank so the
    // launcher's merged timeline renders one row group per worker.
    let lane = cfg.trace.as_ref().map(|ts| {
        let process = format!("rank {rank} (os pid {})", std::process::id());
        ts.recorder.lane(rank as u32, 0, &process, "train step")
    });
    let lr = LrSchedule {
        base_lr: cfg.base_lr,
        scale: cfg.lr_scale,
        warmup_steps: cfg.warmup_steps,
        total_steps: cfg.steps,
        poly_power: 0.9,
    };
    let mut net = SegNet::new(cfg.net, derive_seed(cfg.seed, "init"));
    let mut opt = MomentumSgd::new(lr, cfg.momentum, n_params).with_weight_decay(cfg.weight_decay);
    let mut bw = BatchWorkspace::new(&cfg.net);
    let mut grad = vec![0.0f32; n_params];
    let mut snapshot = vec![0.0f32; n_params];

    let mut live: Vec<usize> = (0..cfg.workers).collect();
    let mut schedule = build_verified(cfg, live.len(), n_params)?;
    let mut exec = PeerExecutor::new(wire, policy);

    let codec = cfg.effective_codec();
    let mut ef = if cfg.error_feedback && codec.is_lossy() {
        Some(ErrorFeedback::new(n_params))
    } else {
        None
    };
    let mut codec_scratch = EncodeScratch::new();
    codec_scratch.reserve(codec, n_params);

    let mut step_losses = Vec::with_capacity(cfg.steps);
    let mut degradations: Vec<DegradeRecord> = Vec::new();
    // Reused telemetry payload buffer: synchronous snapshot sends
    // allocate nothing once it is warm.
    let mut tel_buf: Vec<u8> = Vec::new();

    for step in 0..cfg.steps {
        let step_t0 = std::time::Instant::now();
        if let Some(tel) = telemetry {
            // Announce the step *before* any mesh traffic: no rank can
            // complete step S's exchange without this rank's sends, so
            // by the time a StepDone{S} vote reaches the coordinator,
            // this frame (ordered ahead on the control stream) is
            // already queued there — the post-mortem for a rank killed
            // at S always shows last_step == S.
            tel.begin_step(step as u32);
            tel.add(metric::STEPS_BEGUN, 1);
            tel.flight("STEP", "begin", step as u32, 0, 0);
            fold_wire_stats(tel, &exec);
            send_telemetry(ctl, tel, &mut tel_buf);
        }
        // Gradient computation — identical addressing to try_train's
        // classic path: the shard layout keys off the ORIGINAL world
        // (`cfg.workers`, `rank`), so each survivor keeps its slice of
        // the data stream no matter who else has died.
        let compute_t0 = lane.as_ref().map(|l| l.now_us());
        let compute_t0i = std::time::Instant::now();
        let start = (step * cfg.global_batch()) as u64;
        let micro = cfg.workers * cfg.batch_per_worker;
        let mut loss_sum = 0.0f64;
        grad.fill(0.0);
        for m in 0..cfg.accumulation_steps {
            let base = start + (m * micro) as u64 + (rank * cfg.batch_per_worker) as u64;
            let mut shard = generate_batch(&cfg.data, cfg.seed, base, cfg.batch_per_worker);
            if cfg.augment {
                for (i, s) in shard.iter_mut().enumerate() {
                    *s = super::segdata::augment(&cfg.data, s, cfg.seed, base + i as u64);
                }
            }
            loss_sum += net.batch_loss_grad_ws(&shard, &mut bw);
            for (a, gi) in grad.iter_mut().zip(&bw.grad) {
                *a += gi;
            }
        }
        let inv = 1.0 / cfg.accumulation_steps as f32;
        grad.iter_mut().for_each(|a| *a *= inv);
        let loss = loss_sum / cfg.accumulation_steps as f64;

        // Wire codec on the local-mean gradient, exactly as try_train.
        if codec.is_lossy() {
            match ef.as_mut() {
                Some(ef) => ef.roundtrip(codec, &mut grad, &mut codec_scratch),
                None => compression::roundtrip(codec, &mut grad, &mut codec_scratch),
            }
        }

        if let (Some(l), Some(t0)) = (&lane, compute_t0) {
            l.record("COMPUTE", "grad_compute", t0, l.now_us() - t0);
        }
        if let Some(tel) = telemetry {
            tel.flight(
                "COMPUTE",
                "grad_compute",
                step as u32,
                compute_t0i.elapsed().as_micros() as u32,
                0,
            );
        }

        // The exchange + commit loop: re-entered once per degrade.
        snapshot.copy_from_slice(&grad);
        loop {
            let exchange_t0 = lane.as_ref().map(|l| l.now_us());
            let exchange_t0i = std::time::Instant::now();
            exec.begin_step(step);
            let mut announced: Option<Frame> = None;
            let result = {
                let announced = &mut announced;
                exec.allreduce(&schedule, &mut grad, ReduceOp::Average, &live, &mut || match ctl
                    .recv_timeout(Duration::ZERO)
                {
                    Ok(f) if f.kind == FrameKind::Degrade => {
                        *announced = Some(f);
                        CtlSignal::Abort
                    }
                    _ => CtlSignal::Continue,
                })
            };
            if let (Some(l), Some(t0)) = (&lane, exchange_t0) {
                l.record("MPI_ALLREDUCE", "exchange", t0, l.now_us() - t0);
            }
            let verdict = match result {
                Ok(()) => {
                    if let Some(tel) = telemetry {
                        tel.flight(
                            "MPI_ALLREDUCE",
                            "exchange",
                            step as u32,
                            exchange_t0i.elapsed().as_micros() as u32,
                            0,
                        );
                        tel.flight("CTL", "vote", step as u32, 0, exec.era() as u64);
                        // Refresh the wire gauges before voting: if this
                        // rank dies or degrades between vote and commit,
                        // the heartbeat-shipped snapshots (and the
                        // post-mortem) must show the exchange it just
                        // ran, not the stats of its last committed step.
                        fold_wire_stats(tel, &exec);
                    }
                    let mut vote =
                        Frame::control(FrameKind::StepDone, rank as u16, exec.era(), step as u32);
                    vote.seq = step as u64;
                    ctl.send(&vote).map_err(|e| {
                        WorkerError::Coordinator(format!("vote for step {step} failed: {e}"))
                    })?;
                    let vote_t0 = std::time::Instant::now();
                    let v = await_verdict(ctl, &policy, step)?;
                    if let Some(tel) = telemetry {
                        tel.set(metric::COMMIT_WAIT_US, vote_t0.elapsed().as_micros() as u64);
                    }
                    v
                }
                Err(PeerExecError::Aborted) => {
                    let f = announced.take().ok_or_else(|| {
                        WorkerError::Coordinator("aborted without a degrade frame".into())
                    })?;
                    Verdict::Degrade(parse_degrade(&f, step)?)
                }
                Err(PeerExecError::PeerDead { .. }) => {
                    // The coordinator sees the same death (control EOF /
                    // silence) and owns the verdict; a peer that died
                    // mid-exchange cannot have voted, so no Commit for
                    // this step can exist — only a Degrade can arrive.
                    match await_verdict(ctl, &policy, step)? {
                        Verdict::Commit => {
                            return Err(WorkerError::Coordinator(format!(
                                "commit for step {step} after a peer died mid-exchange"
                            )))
                        }
                        d => d,
                    }
                }
                Err(e) => return Err(WorkerError::Exec(e)),
            };
            match verdict {
                Verdict::Commit => {
                    opt.apply(net.params_mut(), &grad);
                    if let Some(tel) = telemetry {
                        tel.add(metric::STEPS_COMMITTED, 1);
                        tel.set(metric::STEP_LATENCY_US, step_t0.elapsed().as_micros() as u64);
                        fold_wire_stats(tel, &exec);
                        tel.flight("CTL", "commit", step as u32, 0, 0);
                    }
                    break;
                }
                Verdict::Degrade(record) => {
                    if let Some(l) = &lane {
                        l.instant("FAULT", "degrade", l.now_us());
                    }
                    if let Some(tel) = telemetry {
                        tel.add(metric::DEGRADES, 1);
                        let dead0 = record.dead.first().copied().unwrap_or(0) as u64;
                        tel.flight("FAULT", "degrade", step as u32, 0, dead0);
                        fold_wire_stats(tel, &exec);
                    }
                    // Restore the pre-exchange gradient, shrink the
                    // world, rebuild + RE-VERIFY the schedule, and step
                    // the transport into the announced era.
                    grad.copy_from_slice(&snapshot);
                    live.retain(|id| !record.dead.contains(id));
                    schedule = build_verified(cfg, live.len(), n_params)?;
                    while exec.era() < record.era {
                        exec.bump_era();
                    }
                    degradations.push(record);
                }
            }
        }
        step_losses.push(loss);
    }

    if let Some(tel) = telemetry {
        // One final synchronous snapshot so the coordinator's last view
        // of this rank carries the full committed count.
        tel.flight("STEP", "finished", cfg.steps as u32, 0, 0);
        send_telemetry(ctl, tel, &mut tel_buf);
    }

    Ok(WorkerOutcome {
        rank,
        final_params: net.params().to_vec(),
        step_losses,
        survivors: live,
        degradations,
    })
}

fn build_verified(
    cfg: &TrainConfig,
    n_ranks: usize,
    n_elems: usize,
) -> Result<Schedule, WorkerError> {
    let schedule = cfg.algo.build(n_ranks, n_elems);
    schedule.verify_allreduce().map_err(WorkerError::Verification)?;
    Ok(schedule)
}

/// Block on the control stream until the coordinator resolves `step`.
/// `Start` leftovers are ignored; anything else is protocol insanity.
fn await_verdict(
    ctl: &PeerConn,
    policy: &RetryPolicy,
    step: usize,
) -> Result<Verdict, WorkerError> {
    loop {
        match ctl.recv_timeout(policy.tick) {
            Ok(f) => match f.kind {
                FrameKind::Commit => {
                    if f.step as usize != step {
                        return Err(WorkerError::Coordinator(format!(
                            "commit for step {} while waiting on step {step}",
                            f.step
                        )));
                    }
                    return Ok(Verdict::Commit);
                }
                FrameKind::Degrade => return Ok(Verdict::Degrade(parse_degrade(&f, step)?)),
                FrameKind::Start => {}
                other => {
                    return Err(WorkerError::Coordinator(format!(
                        "unexpected {other:?} while waiting on step {step}"
                    )))
                }
            },
            Err(WireError::Timeout) => {
                // The coordinator may legitimately be waiting on slower
                // workers' compute; only sustained heartbeat silence
                // condemns it.
                if ctl.silence() > policy.death_threshold().saturating_mul(4) {
                    return Err(WorkerError::Coordinator(format!(
                        "coordinator silent past the death threshold at step {step}"
                    )));
                }
            }
            Err(e) => {
                return Err(WorkerError::Coordinator(format!(
                    "control stream failed at step {step}: {e}"
                )))
            }
        }
    }
}

/// Fold the executor's wire counters into the telemetry gauges, so the
/// next shipped snapshot — synchronous or heartbeat-cadence — carries
/// the transport state of the step being run, not of the last commit.
fn fold_wire_stats(tel: &WorkerTelemetry, exec: &PeerExecutor<'_>) {
    let stats = exec.stats();
    tel.set(metric::WIRE_BYTES, stats.data_bytes);
    tel.set(metric::NACKS, stats.nacks_sent);
    tel.set(metric::RESENDS, stats.resends);
    tel.set(metric::INFLIGHT_SENDS, exec.pending_sends() as u64);
}

/// Push one synchronous telemetry snapshot over the control stream.
/// Best-effort: a failed send means the coordinator is gone, which the
/// commit protocol surfaces on its own — telemetry never aborts a
/// step. The payload buffer is reused across calls (the frame borrows
/// it via `mem::take` and hands it back), so the steady state
/// allocates nothing.
fn send_telemetry(ctl: &PeerConn, tel: &WorkerTelemetry, buf: &mut Vec<u8>) {
    let seq = tel.encode_into(buf);
    let mut f = Frame::control(FrameKind::Telemetry, tel.rank(), 0, tel.current_step());
    f.seq = seq;
    f.payload = std::mem::take(buf);
    let _ = ctl.send(&f);
    *buf = f.payload;
}

/// Decode a `Degrade` frame: era in the header, dead original ids as a
/// comma-separated payload.
fn parse_degrade(f: &Frame, step: usize) -> Result<DegradeRecord, WorkerError> {
    let text = std::str::from_utf8(&f.payload)
        .map_err(|_| WorkerError::Coordinator("degrade payload not utf-8".into()))?;
    let mut dead = Vec::new();
    for part in text.split(',').filter(|p| !p.is_empty()) {
        dead.push(
            part.parse::<usize>().map_err(|_| {
                WorkerError::Coordinator(format!("bad dead id {part:?} in degrade"))
            })?,
        );
    }
    if dead.is_empty() {
        return Err(WorkerError::Coordinator("degrade names nobody dead".into()));
    }
    Ok(DegradeRecord { step, dead, era: f.era })
}
