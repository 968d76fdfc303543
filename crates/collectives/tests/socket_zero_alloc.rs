//! Counting-allocator proof for the socket transport: once a
//! [`SocketMesh`] is warmed up, a steady-state allreduce step over real
//! Unix-domain sockets allocates nothing — payload buffers recycle
//! through the connection pool, the frame rings and encode scratch are
//! retained, and the executor's working state is reused. The socket
//! backend may allocate only at connection setup/teardown.
//!
//! The in-process channel backend's zero-alloc story is covered by the
//! executor proofs; this test pins the harder claim for the byte-stream
//! path, where serialization buffers could easily regress into per-step
//! allocation.
//!
//! Both tests share one process-wide counter and libtest runs them
//! concurrently, so each holds the `alloc-probe` guard for its whole
//! body: neither can allocate into the other's counted window.

use std::os::unix::net::UnixStream;
use std::time::Duration;

use collectives::{Algorithm, CtlSignal, PeerExecutor, ReduceOp};
use faults::RetryPolicy;
use transport::SocketMesh;

#[global_allocator]
static GLOBAL: alloc_probe::CountingAlloc = alloc_probe::CountingAlloc;

fn policy() -> RetryPolicy {
    RetryPolicy {
        base: Duration::from_millis(50),
        factor: 2,
        max_attempts: 6,
        tick: Duration::from_millis(1),
    }
}

const N_ELEMS: usize = 1024;
const WARMUP: usize = 5;
const MEASURED: usize = 3; // count_allocs runs the step closure 3 times
const TOTAL: usize = WARMUP + MEASURED;

#[test]
fn steady_state_socket_allreduce_is_allocation_free() {
    let probe = alloc_probe::exclusive();
    let (a, b) = UnixStream::pair().expect("socketpair");
    let pol = policy();
    let schedule = Algorithm::Ring.build(2, N_ELEMS);
    schedule.verify_allreduce().expect("ring schedule verifies");

    // Rank 1 runs lockstep on its own thread; both sides step together
    // through the synchronous allreduce, so the measured region covers
    // the full two-rank exchange.
    let peer_schedule = schedule.clone();
    let peer = std::thread::spawn(move || {
        let mesh = SocketMesh::new(1, vec![0, 1], vec![(0, b)], policy()).expect("mesh rank 1");
        let mut exec = PeerExecutor::new(&mesh, policy());
        let mut buf = vec![0.0f32; N_ELEMS];
        for step in 0..TOTAL {
            for (i, x) in buf.iter_mut().enumerate() {
                *x = (step * N_ELEMS + i) as f32 * 0.5 + 1.0;
            }
            exec.begin_step(step);
            exec.allreduce(&peer_schedule, &mut buf, ReduceOp::Sum, &[0, 1], &mut || {
                CtlSignal::Continue
            })
            .expect("rank 1 allreduce");
        }
        buf
    });

    let mesh = SocketMesh::new(0, vec![0, 1], vec![(1, a)], pol).expect("mesh rank 0");
    let mut exec = PeerExecutor::new(&mesh, pol);
    let mut buf = vec![0.0f32; N_ELEMS];
    let mut step = 0usize;
    let mut one_step = |exec: &mut PeerExecutor, buf: &mut Vec<f32>| {
        for (i, x) in buf.iter_mut().enumerate() {
            *x = (step * N_ELEMS + i) as f32 * 0.25 - 3.0;
        }
        exec.begin_step(step);
        exec.allreduce(&schedule, buf, ReduceOp::Sum, &[0, 1], &mut || CtlSignal::Continue)
            .expect("rank 0 allreduce");
        step += 1;
    };

    for _ in 0..WARMUP {
        one_step(&mut exec, &mut buf);
    }

    let n = probe.count_allocs(|| one_step(&mut exec, &mut buf));
    assert_eq!(
        n, 0,
        "steady-state socket allreduce allocated {n} times; the wire path must recycle \
         every buffer after warmup"
    );

    // The math still holds on the measured steps: both ranks computed
    // the same final sum.
    let peer_buf = peer.join().expect("rank 1 thread");
    let last = TOTAL - 1;
    for (i, (&mine, &theirs)) in buf.iter().zip(&peer_buf).enumerate() {
        assert_eq!(mine.to_bits(), theirs.to_bits(), "elem {i} disagrees across ranks");
        let want =
            (last * N_ELEMS + i) as f32 * 0.5 + 1.0 + ((last * N_ELEMS + i) as f32 * 0.25 - 3.0);
        assert_eq!(mine.to_bits(), want.to_bits(), "elem {i} has the wrong sum");
    }
}

/// The telemetry plane makes the same promise as the gradient path: a
/// warmed worker records its per-step metrics and flight spans, encodes
/// the snapshot, frames it, and ships it down a real socket without a
/// single allocation. Mirrors the exact sequence `run_worker` +
/// `heartbeat_main` perform each step: record → `encode_into` →
/// payload swap → frame encode → `write_all`.
#[test]
fn steady_state_telemetry_encode_and_ship_is_allocation_free() {
    let probe = alloc_probe::exclusive();
    use std::io::{Read, Write};
    use trace::telemetry::{metric, WorkerTelemetry};
    use transport::frame::{encode_into, Frame, FrameKind};

    let (mut tx, mut rx) = UnixStream::pair().expect("socketpair");
    let sink = std::thread::spawn(move || {
        let mut buf = [0u8; 4096];
        let mut total = 0usize;
        loop {
            match rx.read(&mut buf) {
                Ok(0) | Err(_) => return total,
                Ok(n) => total += n,
            }
        }
    });

    let tel = WorkerTelemetry::new(0);
    let mut payload: Vec<u8> = Vec::new();
    let mut wire: Vec<u8> = Vec::new();
    let mut frame = Frame::control(FrameKind::Telemetry, 0, 0, 0);
    let mut step = 0u32;
    let mut one_step = || {
        tel.begin_step(step);
        tel.add(metric::STEPS_BEGUN, 1);
        tel.add(metric::WIRE_BYTES, 4096);
        tel.set(metric::STEP_LATENCY_US, 1234);
        tel.flight("STEP", "begin", step, 0, 0);
        tel.flight("COMPUTE", "grad_compute", step, 500, 0);
        tel.flight("MPI_ALLREDUCE", "exchange", step, 900, 0);
        frame.seq = tel.encode_into(&mut payload);
        frame.step = step;
        std::mem::swap(&mut frame.payload, &mut payload);
        encode_into(&frame, &mut wire);
        tx.write_all(&wire).expect("ship telemetry");
        std::mem::swap(&mut frame.payload, &mut payload);
        step += 1;
    };

    // Warm until the flight ring has wrapped (capacity 32, 3 spans per
    // step): once it is saturated the payload size is steady, so the
    // encode buffers stop growing.
    for _ in 0..16 {
        one_step();
    }

    let n = probe.count_allocs(&mut one_step);
    assert_eq!(
        n, 0,
        "steady-state telemetry encode+ship allocated {n} times; snapshots must reuse \
         the payload and wire buffers after warmup"
    );

    drop(tx);
    let total = sink.join().expect("sink thread");
    assert!(total > 0, "the sink must have received the telemetry bytes");
}
