//! The per-layer replay: every layer below a training step, called
//! through its public functions at the workload's shapes, one span per
//! call. Each layer metric is the median self time of its call spans
//! (input refills run in a child `prep` span, so they are excluded).
//!
//! The replay drives at most two threads and one socket pair.

use std::hint::black_box;
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use collectives::compression::{self, EncodeScratch, ErrorFeedback};
use collectives::reduce::combine_sum;
use collectives::{CtlSignal, ElasticAllreduce, PeerExecutor, ReduceOp, WireStats};
use faults::RetryPolicy;
use trace::TraceRecorder;
use trainer::real::net::{BatchWorkspace, NetConfig, SegNet};
use trainer::real::pipeline::PipelineExecutor;
use trainer::real::pool::CorePool;
use trainer::real::segdata::generate_batch;
use trainer::real::sgd::{LrSchedule, MomentumSgd};
use trainer::real::TrainConfig;
use transport::{encode_into, ChannelWire, Frame, FrameDecoder, FrameKind, SocketMesh, Wire};

use crate::spans::{self, Recorder};
use crate::stats::{self, AlphaBeta};
use crate::Metrics;

/// Wall-clock budget of one layer's call loop.
const LAYER_BUDGET: Duration = Duration::from_millis(300);
/// Timed spans per layer, at least and at most.
const MIN_CALLS: usize = 40;
const MAX_CALLS: usize = 2000;
/// Shortest span worth timing: calls faster than this are repeated
/// inside one span, so timer overhead stays a small share.
const MIN_SPAN: Duration = Duration::from_micros(5);
/// Fixed call count of the two-rank collectives (both ranks must agree
/// on it up front).
const PEER_CALLS: usize = 400;
/// Ping-pong message sizes (payload bytes) of the α–β sweep.
const P2P_SIZES: [usize; 7] = [0, 64, 1024, 4096, 16_384, 65_536, 262_144];
/// Round trips per message size.
const P2P_CALLS: usize = 150;
/// The pipeline executor's trace pid (see `PipelineExecutor::attach_trace`).
const PIPELINE_PID: u32 = 900;

/// What the ledger needs from the replay, beyond the printed metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCosts {
    pub generate_us_per_image: f64,
    pub loss_grad_us: f64,
    pub codec_us: f64,
    pub elastic_us: f64,
    pub pipeline_step_us: f64,
    pub sgd_us: f64,
    pub socket_alpha_us: f64,
    pub peer_socket_us: f64,
}

/// The comm-layer pacing `dist_train` uses by default.
fn policy() -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_millis(25),
        factor: 2,
        max_attempts: 6,
        tick: Duration::from_millis(2),
    }
}

/// Call `call` (preceded by `prep` in a child span) inside spans named
/// `name` until the budget is spent, and return the median self time
/// of one call. A call shorter than `MIN_SPAN` is repeated inside each
/// span. Both closures work on `state`.
fn repeat<S>(
    rec: &Recorder,
    name: &'static str,
    parent: u32,
    state: &mut S,
    prep: impl Fn(&mut S),
    mut call: impl FnMut(&mut S),
) -> f64 {
    prep(state);
    let t = Instant::now();
    call(state);
    let one = t.elapsed();
    let reps = (MIN_SPAN.as_nanos() / one.as_nanos().max(1) + 1).min(4096) as usize;
    let t0 = Instant::now();
    let mut n = 0;
    while n < MIN_CALLS || (t0.elapsed() < LAYER_BUDGET && n < MAX_CALLS) {
        rec.span(name, Some(parent), |id| {
            rec.span("prep", Some(id), |_| prep(state));
            for _ in 0..reps {
                call(state);
            }
        });
        n += 1;
    }
    rec.median_self_us(name) / reps as f64
}

/// Multiply-adds ×2 of the three convolutions for one image, forward
/// plus backward: the weight gradients cost one forward each, and the
/// input gradients one forward of every layer but the first.
pub fn conv_flops_per_image(net: &NetConfig) -> f64 {
    let npix = (net.height * net.width) as f64;
    let k2 = (net.k * net.k) as f64;
    let f1 = 2.0 * k2 * (net.cin * net.hidden1) as f64 * npix;
    let f2 = 2.0 * k2 * (net.hidden1 * net.hidden2) as f64 * npix;
    let f3 = 2.0 * (net.hidden2 * net.n_classes) as f64 * npix;
    let fwd = f1 + f2 + f3;
    3.0 * fwd - f1
}

/// Replay every layer at `cfg`'s shapes (`cfg.workers` replicas), under
/// one root span, and add the per-layer metrics to `m`.
pub fn run(rec: &Recorder, cfg: &TrainConfig, m: &mut Metrics) -> LayerCosts {
    let root = rec.begin("replay", None);
    let mut c = LayerCosts::default();
    let world = cfg.workers;
    let batch = cfg.batch_per_worker;
    let n = cfg.net.n_params();
    let codec = cfg.effective_codec();

    // segdata: fresh shards, as every step generates them.
    c.generate_us_per_image = repeat(
        rec,
        "segdata.generate_batch",
        root,
        &mut 0u64,
        |_| {},
        |base| {
            black_box(generate_batch(&cfg.data, cfg.seed, *base, batch));
            *base += batch as u64;
        },
    ) / batch as f64;
    m.push("segdata.generate_us_per_image", c.generate_us_per_image, "us");

    // net: one replica's fused forward+backward over its local batch.
    let net = SegNet::new(cfg.net, cfg.seed);
    let shard = generate_batch(&cfg.data, cfg.seed, 0, batch);
    let mut bw = BatchWorkspace::new(&cfg.net);
    c.loss_grad_us = repeat(
        rec,
        "net.batch_loss_grad_ws",
        root,
        &mut bw,
        |_| {},
        |bw| {
            black_box(net.batch_loss_grad_ws(&shard, bw));
        },
    );
    m.push("net.loss_grad_us_per_image", c.loss_grad_us / batch as f64, "us");
    let flops = conv_flops_per_image(&cfg.net) * batch as f64;
    m.push("net.conv_gflop_s", flops / (c.loss_grad_us * 1e3), "GFLOP/s");
    let grad0 = bw.grad.clone();

    // compression: the workload's codec on a real gradient.
    let mut scratch = EncodeScratch::new();
    scratch.reserve(codec, n);
    c.codec_us = repeat(
        rec,
        "compression.roundtrip",
        root,
        &mut (grad0.clone(), ErrorFeedback::new(n), scratch),
        |(buf, _, _)| buf.copy_from_slice(&grad0),
        |(buf, ef, scratch)| {
            if cfg.error_feedback {
                ef.roundtrip(codec, buf, scratch);
            } else {
                compression::roundtrip(codec, buf, scratch);
            }
        },
    );
    m.push("compression.roundtrip_us", c.codec_us, "us");
    m.push("compression.wire_ratio", (4 * n) as f64 / codec.encoded_len(n) as f64, "ratio");

    // elastic: the classic path's threaded allreduce, fault layer off.
    let ela = ElasticAllreduce::new(cfg.algo, world, n).expect("schedule verifies");
    c.elastic_us = repeat(
        rec,
        "elastic.allreduce",
        root,
        &mut (ela, vec![grad0.clone(); world]),
        |(_, grads)| grads.iter_mut().for_each(|g| g.copy_from_slice(&grad0)),
        |(ela, grads)| {
            ela.allreduce(grads, ReduceOp::Average, None).expect("fault-free allreduce");
        },
    );
    m.push("elastic.allreduce_us", c.elastic_us, "us");

    // reduce: one gradient-sized combine (reads dst and src, writes dst).
    let combine_us = repeat(
        rec,
        "reduce.combine_sum",
        root,
        &mut grad0.clone(),
        |_| {},
        |dst| {
            combine_sum(black_box(dst), black_box(&grad0));
        },
    );
    m.push("reduce.combine_gb_s", (12 * n) as f64 / (combine_us * 1e3), "GB/s");

    // pipeline: the layer-pipelined step at the workload's shapes, with
    // fresh shards generated (outside the timed call) every step.
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get()).min(2);
    let pipe_rec = TraceRecorder::with_capacity(1 << 16);
    let mut ex = PipelineExecutor::new(&cfg.net, world, batch, 1, threads);
    ex.attach_trace(&pipe_rec);
    let lr = LrSchedule::constant(0.01, 1 << 30);
    let nets: Vec<SegNet> = (0..world).map(|_| SegNet::new(cfg.net, cfg.seed)).collect();
    let opts: Vec<MomentumSgd> = (0..world).map(|_| MomentumSgd::new(lr, 0.9, n)).collect();
    let mut reduce_s = Vec::new();
    let mut state = (ex, nets, opts, Vec::new(), 0u64);
    c.pipeline_step_us = repeat(
        rec,
        "pipeline.step",
        root,
        &mut state,
        |(_, _, _, shards, step)| {
            *shards = (0..world)
                .map(|r| {
                    let base = (*step as usize * world + r) * batch;
                    generate_batch(&cfg.data, cfg.seed, base as u64, batch)
                })
                .collect();
            *step += 1;
        },
        |(ex, nets, opts, shards, _)| {
            black_box(ex.step(
                nets.iter_mut().zip(opts.iter_mut()),
                shards,
                codec,
                cfg.error_feedback,
            ));
            reduce_s.push(ex.last_reduce_seconds());
        },
    );
    m.push("pipeline.step_us", c.pipeline_step_us, "us");
    m.push("pipeline.reduce_us", stats::median(&reduce_s) * 1e6, "us");
    m.push(
        "pipeline.idle_pct",
        spans::pipeline_idle_pct(&pipe_rec.to_chrome_events(), PIPELINE_PID),
        "%",
    );
    let (ex, nets, ..) = state;
    drop(ex);

    // pool: dispatch cost of an empty job on two lanes.
    let pool = CorePool::new(2);
    let dispatch_us = repeat(rec, "pool.run", root, &mut (), |_| {}, |_| pool.run(&|_| {}));
    drop(pool);
    m.push("pool.dispatch_us", dispatch_us, "us");

    // sgd: one momentum update of the whole parameter vector.
    c.sgd_us = repeat(
        rec,
        "sgd.apply",
        root,
        &mut (MomentumSgd::new(lr, 0.9, n), nets[0].params().to_vec()),
        |_| {},
        |(opt, params)| opt.apply(params, &grad0),
    );
    m.push("sgd.apply_us", c.sgd_us, "us");

    // frame: encode and incremental decode (CRC included) of one
    // gradient-sized fp32 payload, as the socket path ships it.
    let mut frame = Frame::control(FrameKind::Data, 0, 0, 0);
    frame.payload = grad0.iter().flat_map(|x| x.to_le_bytes()).collect();
    let mut wire_bytes = Vec::new();
    let encode_us = repeat(
        rec,
        "frame.encode_into",
        root,
        &mut wire_bytes,
        |_| {},
        |out| encode_into(&frame, out),
    );
    m.push("frame.encode_gb_s", wire_bytes.len() as f64 / (encode_us * 1e3), "GB/s");
    let decode_us = repeat(
        rec,
        "frame.decode",
        root,
        &mut FrameDecoder::new(),
        |_| {},
        |dec| {
            dec.feed(&wire_bytes);
            let f = dec.next_frame().expect("a whole frame was fed").expect("frame decodes");
            black_box(f);
        },
    );
    m.push("frame.decode_gb_s", wire_bytes.len() as f64 / (decode_us * 1e3), "GB/s");

    // p2p: α–β fit over a ping-pong sweep, socket pair and channels.
    let (a, b) = UnixStream::pair().expect("socketpair");
    let s0 = SocketMesh::new(0, vec![0, 1], vec![(1, a)], policy()).expect("socket mesh rank 0");
    let s1 = SocketMesh::new(1, vec![0, 1], vec![(0, b)], policy()).expect("socket mesh rank 1");
    let fit = ping_pong(rec, root, "p2p.socket.roundtrip", &s0, &s1);
    c.socket_alpha_us = fit.alpha_us;
    m.push("p2p.socket.alpha_us", fit.alpha_us, "us");
    m.push("p2p.socket.beta_gb_s", fit.beta_gb_s, "GB/s");
    let mut chans = ChannelWire::mesh(2);
    let c1 = chans.pop().expect("two channel wires");
    let c0 = chans.pop().expect("two channel wires");
    let fit = ping_pong(rec, root, "p2p.channel.roundtrip", &c0, &c1);
    m.push("p2p.channel.alpha_us", fit.alpha_us, "us");
    m.push("p2p.channel.beta_gb_s", fit.beta_gb_s, "GB/s");

    // peer: the socket path's collective, over both wires.
    let (us, s_sock) = peer_allreduce(rec, root, "peer.socket.allreduce", cfg, &grad0, &s0, &s1);
    c.peer_socket_us = us;
    m.push("peer.socket.allreduce_us", us, "us");
    let (us, s_chan) = peer_allreduce(rec, root, "peer.channel.allreduce", cfg, &grad0, &c0, &c1);
    m.push("peer.channel.allreduce_us", us, "us");
    m.push("peer.resends", (s_sock.resends + s_chan.resends) as f64, "count");
    m.push("peer.nacks", (s_sock.nacks_sent + s_chan.nacks_sent) as f64, "count");

    rec.end(root);
    c
}

/// Echo every frame from rank 0 back to it until a `Finished` frame.
fn echo(w: &dyn Wire) {
    loop {
        match w.recv_timeout(0, Duration::from_secs(10)) {
            Ok(f) if f.kind == FrameKind::Finished => return,
            Ok(f) => {
                w.send(0, &f).expect("echo send");
                w.release(f.payload);
            }
            Err(e) => panic!("echo peer: {e}"),
        }
    }
}

/// Round trips over `w0` ↔ `w1` at every sweep size; one-way time is
/// half the median round trip. Returns the α–β fit.
fn ping_pong(
    rec: &Recorder,
    root: u32,
    name: &'static str,
    w0: &dyn Wire,
    w1: &dyn Wire,
) -> AlphaBeta {
    std::thread::scope(|s| {
        let peer = s.spawn(|| echo(w1));
        let section = rec.begin(name, Some(root));
        let mut points = Vec::new();
        for &size in &P2P_SIZES {
            let mut f = Frame::control(FrameKind::Data, 0, 0, 0);
            f.payload = vec![0x5a; size];
            let mut rtt = Vec::with_capacity(P2P_CALLS);
            for i in 0..P2P_CALLS {
                f.seq = i as u64;
                let id = rec.begin("p2p.roundtrip", Some(section));
                w0.send(1, &f).expect("ping send");
                let back = w0.recv_timeout(1, Duration::from_secs(10)).expect("pong");
                rec.end(id);
                assert_eq!(back.payload.len(), size, "echo changed the payload");
                w0.release(back.payload);
            }
            let all = rec.self_times_of("p2p.roundtrip");
            rtt.extend_from_slice(&all[all.len() - P2P_CALLS..]);
            points.push((size as f64, stats::median(&rtt) / 2.0));
        }
        w0.send(1, &Frame::control(FrameKind::Finished, 0, 0, 0)).expect("stop the echo peer");
        peer.join().expect("echo peer panicked");
        rec.end(section);
        stats::fit_alpha_beta(&points)
    })
}

/// `PEER_CALLS` two-rank allreduces of a gradient-sized buffer through
/// `PeerExecutor` over `w0`/`w1`. Returns rank 0's median call time and
/// the summed wire statistics of both executors.
fn peer_allreduce(
    rec: &Recorder,
    root: u32,
    name: &'static str,
    cfg: &TrainConfig,
    grad0: &[f32],
    w0: &dyn Wire,
    w1: &dyn Wire,
) -> (f64, WireStats) {
    let schedule = cfg.algo.build(2, grad0.len());
    schedule.verify_allreduce().expect("schedule verifies");
    let ids = [0usize, 1];
    std::thread::scope(|s| {
        let peer = s.spawn(|| {
            let mut ex = PeerExecutor::new(w1, policy());
            let mut buf = grad0.to_vec();
            for step in 0..PEER_CALLS {
                buf.copy_from_slice(grad0);
                ex.begin_step(step);
                ex.allreduce(&schedule, &mut buf, ReduceOp::Average, &ids, &mut || {
                    CtlSignal::Continue
                })
                .expect("rank 1 allreduce");
            }
            ex.stats()
        });
        let mut ex = PeerExecutor::new(w0, policy());
        let mut buf = grad0.to_vec();
        for step in 0..PEER_CALLS {
            rec.span(name, Some(root), |id| {
                rec.span("prep", Some(id), |_| buf.copy_from_slice(grad0));
                ex.begin_step(step);
                ex.allreduce(&schedule, &mut buf, ReduceOp::Average, &ids, &mut || {
                    CtlSignal::Continue
                })
                .expect("rank 0 allreduce");
            });
        }
        let theirs = peer.join().expect("rank 1 panicked");
        let mine = ex.stats();
        let stats = WireStats {
            data_frames: mine.data_frames + theirs.data_frames,
            data_bytes: mine.data_bytes + theirs.data_bytes,
            nacks_sent: mine.nacks_sent + theirs.nacks_sent,
            resends: mine.resends + theirs.resends,
        };
        (rec.median_self_us(name), stats)
    })
}
