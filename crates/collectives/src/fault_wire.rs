//! In-process fault injection: a [`FaultSession`] runs a schedule one
//! thread per live rank, each thread driving a [`PeerExecutor`] over
//! its endpoint of a [`ChannelWire`] mesh wrapped in a `FaultWire`.
//! The §5d protocol that repairs the damage is the executor's own — the
//! same code the socket workers run.
//!
//! `FaultWire` is a [`Wire`] decorator that applies the session's
//! [`FaultPlan`] at the frame layer:
//!
//! * **Straggle** and **crash** fire in [`Wire::begin_round`], at the
//!   plan's exact `(step, round)` even when the rank is idle in that
//!   round. A straggle goes through the session's [`FaultClock`]; a
//!   crash reports the rank's own wire gone, so its executor stops.
//! * **Drop** swallows the first transmission of every data frame the
//!   rank sends in the round; the receiver's deadline nacks it and the
//!   clean resend repairs it.
//! * **Corrupt** encodes the frame with the real codec
//!   ([`transport::encode_into`]), flips one payload bit, and decodes
//!   the bytes with [`transport::parse_body`], whose CRC tail rejects
//!   them — the frame is lost exactly as `SocketMesh` loses it at
//!   decode, and repaired like a drop.
//!
//! Resends only ever carry the executor's clean copies, so a recovered
//! run is bit-identical to a fault-free one. The decorator also reads
//! the protocol's traffic to fill the session's [`FaultCounters`] and
//! [`EventLog`]: a nack is a receive timeout, a data frame below the
//! sender's fresh sequence edge is a resend, and a data frame whose
//! sequence number already arrived is a dropped duplicate.
//!
//! # Deaths
//!
//! A crashed or aborted rank hangs up only its *outbound* links; its
//! inbound ends stay open until every rank thread has joined, so no
//! in-process send ever fails. A death is therefore observed only on a
//! receive, after the dead rank's parting frames have drained: a peer
//! is declared dead exactly when it still owes data it never sent.
//! Each rank's abort point — and with it every
//! [`FaultEvent::PeerDead`] — is a function of the schedule and the
//! plan, not of thread timing.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use faults::{EventLog, FaultClock, FaultEvent, FaultKind, FaultPlan, RetryPolicy, SendFault};
use parking_lot::Mutex;
use summit_metrics::FaultCounters;
use trace::Lane;
use transport::{
    encode_into, parse_body, ChannelWire, Frame, FrameError, FrameKind, Wire, WireError, HEADER_LEN,
};

use crate::exec_peer::{CtlSignal, PeerExecError, PeerExecutor};
use crate::exec_trace::ExecTrace;
use crate::reduce::ReduceOp;
use crate::sched::Schedule;

/// Everything one fault-aware run (or one training run of many steps)
/// shares: the plan, the retry policy, the delay clock, and the
/// observability sinks. Cheap to share by reference across rank
/// threads; bump the step counter between collectives so plan
/// injections keyed by training step land on the right one.
#[derive(Debug, Default)]
pub struct FaultSession {
    plan: FaultPlan,
    policy: RetryPolicy,
    clock: FaultClock,
    counters: FaultCounters,
    events: EventLog,
    step: AtomicUsize,
    /// Trace lanes keyed by *original* rank id (the ids the plan and
    /// the event log speak), so a rank keeps its trace row across
    /// elastic renumberings. `None` ⇔ the fault path runs untraced.
    trace: Option<ExecTrace>,
}

impl FaultSession {
    /// A session around `plan` with default policy and a virtual clock
    /// (injected delays are accounted, not slept).
    pub fn new(plan: FaultPlan) -> Self {
        FaultSession { plan, ..Default::default() }
    }

    /// Override the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Use a real clock: injected straggler delays actually sleep, so
    /// the timeout/retry machinery is exercised under wall-clock skew.
    pub fn with_real_delays(mut self) -> Self {
        self.clock = FaultClock::real();
        self
    }

    /// Attach trace lanes (keyed by original rank id): every rank
    /// thread records SEND/RECV spans, RETRY events for the resend
    /// machinery, and FAULT events for the injections it suffers.
    pub fn with_trace(mut self, trace: ExecTrace) -> Self {
        self.trace = Some(trace);
        self
    }

    pub fn trace(&self) -> Option<&ExecTrace> {
        self.trace.as_ref()
    }

    /// Set the training step the next collectives belong to.
    pub fn begin_step(&self, step: usize) {
        self.step.store(step, Ordering::Relaxed); // lint: allow(relaxed): step tag on trace rows only; ordered by the caller's step loop
    }

    pub fn step(&self) -> usize {
        self.step.load(Ordering::Relaxed) // lint: allow(relaxed): step tag on trace rows only; ordered by the caller's step loop
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub fn policy(&self) -> RetryPolicy {
        self.policy
    }

    pub fn clock(&self) -> &FaultClock {
        &self.clock
    }

    pub fn counters(&self) -> &FaultCounters {
        &self.counters
    }

    pub fn events(&self) -> &EventLog {
        &self.events
    }

    fn lane(&self, rank: usize) -> Option<Lane> {
        self.trace.as_ref().and_then(|t| t.lane(rank)).cloned()
    }

    /// Allreduce `schedule` under this session's plan, one thread per
    /// rank: buffer `local` belongs to original rank `live[local]` (the
    /// ids the plan and the event log speak, so a plan stays
    /// addressable after elastic degradation renumbers the survivors).
    ///
    /// On [`PeerExecError::PeerDead`] (original ids: the crashed ranks,
    /// or failing that every peer a survivor declared dead) the buffers
    /// are partial; the caller restores them (see
    /// [`ElasticAllreduce`](crate::elastic::ElasticAllreduce)).
    pub(crate) fn allreduce(
        &self,
        schedule: &Schedule,
        buffers: &mut [Vec<f32>],
        op: ReduceOp,
        live: &[usize],
    ) -> Result<(), PeerExecError> {
        assert_eq!(live.len(), schedule.n_ranks, "need one original rank id per schedule rank");
        let mut wires = ChannelWire::mesh(live.iter().max().map_or(0, |&id| id + 1));
        // The wires outlive the scope: a finished rank's inbound ends
        // stay open until every rank thread has joined.
        let outcomes: Vec<(bool, Result<(), PeerExecError>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = wires
                .iter_mut()
                .filter(|w| live.contains(&w.rank()))
                .zip(buffers.iter_mut())
                .map(|(wire, buf)| {
                    scope.spawn(move || self.rank_main(wire, buf, schedule, op, live))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic)))
                .collect()
        });
        let crashed: Vec<usize> =
            live.iter().zip(&outcomes).filter(|(_, o)| o.0).map(|(&id, _)| id).collect();
        if !crashed.is_empty() {
            return Err(PeerExecError::PeerDead { dead: crashed });
        }
        // A peer stopped without a crash injection on record: surface
        // the suspects so the caller still gets an actionable dead set.
        let mut suspects: Vec<usize> = outcomes
            .iter()
            .filter_map(|o| match &o.1 {
                Err(PeerExecError::PeerDead { dead }) => Some(dead.iter().copied()),
                _ => None,
            })
            .flatten()
            .collect();
        suspects.sort_unstable();
        suspects.dedup();
        if !suspects.is_empty() {
            return Err(PeerExecError::PeerDead { dead: suspects });
        }
        outcomes.into_iter().map(|o| o.1).find(Result::is_err).unwrap_or(Ok(()))
    }

    /// One rank thread: a fresh executor over this rank's fault wire.
    /// Returns whether the plan crashed the rank, and the run's result.
    fn rank_main(
        &self,
        wire: &mut ChannelWire,
        buf: &mut [f32],
        schedule: &Schedule,
        op: ReduceOp,
        live: &[usize],
    ) -> (bool, Result<(), PeerExecError>) {
        let fw = FaultWire::new(&*wire, self);
        let mut ex = PeerExecutor::new(&fw, self.policy);
        if let Some(lane) = self.lane(fw.rank()) {
            ex = ex.with_trace(lane);
        }
        ex.begin_step(self.step());
        let result = ex.allreduce(schedule, buf, op, live, &mut || CtlSignal::Continue);
        let crashed = fw.crashed();
        if let (false, Err(PeerExecError::PeerDead { dead })) = (crashed, &result) {
            fw.declare_dead(dead);
        }
        if result.is_err() {
            // Dead or aborted: hang up the outbound links only, so peers
            // still owed data observe the death once they have drained
            // everything this rank did send.
            for &peer in live {
                wire.hang_up(peer);
            }
        }
        (crashed, result)
    }
}

/// A [`Wire`] decorator applying a [`FaultSession`]'s plan at the frame
/// layer. See the module docs.
pub(crate) struct FaultWire<'a> {
    inner: &'a dyn Wire,
    session: &'a FaultSession,
    /// The training step every injection of this run is keyed by.
    step: usize,
    /// This rank's lane for FAULT instants, if tracing is on.
    lane: Option<Lane>,
    state: Mutex<WireState>,
}

/// The decorator's per-run bookkeeping.
struct WireState {
    /// The round the executor is in.
    round: usize,
    /// This round's send fault, and whether its injection was logged.
    fault: Option<SendFault>,
    fault_logged: bool,
    crashed: bool,
    /// Per peer: the next never-sent data seq (below it: a resend).
    fresh: Vec<u64>,
    /// Every `(peer, seq)` data frame received (a repeat: a duplicate).
    seen: HashSet<(usize, u64)>,
    /// Nacks sent per `(peer, seq)` — the retry attempt number.
    nacks: HashMap<(usize, u64), u32>,
}

impl<'a> FaultWire<'a> {
    /// Decorate `inner` (addressed by original ids) with `session`'s
    /// plan at the session's current step.
    pub(crate) fn new(inner: &'a dyn Wire, session: &'a FaultSession) -> Self {
        let slots = inner.world_ids().iter().copied().max().map_or(0, |id| id + 1);
        FaultWire {
            inner,
            session,
            step: session.step(),
            lane: session.lane(inner.rank()),
            state: Mutex::new(WireState {
                round: 0,
                fault: None,
                fault_logged: false,
                crashed: false,
                fresh: vec![0; slots],
                seen: HashSet::new(),
                nacks: HashMap::new(),
            }),
        }
    }

    /// Did the plan crash this rank?
    pub(crate) fn crashed(&self) -> bool {
        self.state.lock().crashed
    }

    /// Count, log, and trace one plan injection that fired on this rank.
    fn inject(&self, round: usize, kind: FaultKind, arg: u64) {
        let c = self.session.counters();
        FaultCounters::bump(match kind {
            FaultKind::Straggle { .. } => &c.injected_straggles,
            FaultKind::Drop => &c.injected_drops,
            FaultKind::Corrupt => &c.injected_corruptions,
            FaultKind::Crash => &c.injected_crashes,
        });
        let rank = self.inner.rank();
        if let Some(l) = &self.lane {
            l.record_args("FAULT", kind.name(), l.now_us(), 0.0, rank as u64, arg);
        }
        self.session.events().push(FaultEvent::Injected { step: self.step, rank, round, kind });
    }

    /// Put a corrupted copy of `frame` through the real codec: encode,
    /// flip one payload bit (the first CRC bit of an empty payload), and
    /// decode as the receiving socket would. The CRC tail rejects it,
    /// so the frame is lost in flight.
    fn corrupt_in_flight(&self, peer: usize, frame: &Frame, round: usize) {
        let mut bytes = Vec::new();
        encode_into(frame, &mut bytes);
        bytes[4 + HEADER_LEN] ^= 1;
        let decoded = parse_body(&bytes[4..], Vec::new());
        assert!(
            matches!(decoded, Err(FrameError::BadCrc { .. })),
            "a flipped payload bit must fail the CRC tail, got {decoded:?}"
        );
        FaultCounters::bump(&self.session.counters().crc_rejects);
        if let Some(l) = self.session.lane(peer) {
            l.record_args(
                "RETRY",
                "crc_reject",
                l.now_us(),
                0.0,
                self.inner.rank() as u64,
                frame.seq,
            );
        }
        self.session.events().push(FaultEvent::CrcReject {
            step: self.step,
            rank: peer,
            peer: self.inner.rank(),
            round,
            seq: frame.seq,
        });
    }

    /// Log the deaths this rank's executor declared.
    fn declare_dead(&self, dead: &[usize]) {
        let round = self.state.lock().round;
        for &peer in dead {
            if let Some(l) = &self.lane {
                l.record_args("FAULT", "peer_dead", l.now_us(), 0.0, peer as u64, round as u64);
            }
            FaultCounters::bump(&self.session.counters().rank_deaths);
            self.session.events().push(FaultEvent::PeerDead {
                step: self.step,
                rank: self.inner.rank(),
                peer,
                round,
            });
        }
    }
}

impl Wire for FaultWire<'_> {
    fn rank(&self) -> usize {
        self.inner.rank()
    }

    fn world_ids(&self) -> &[usize] {
        self.inner.world_ids()
    }

    fn send(&self, peer: usize, frame: &Frame) -> Result<(), WireError> {
        let (step, rank, seq) = (self.step, self.inner.rank(), frame.seq);
        match frame.kind {
            FrameKind::Data => {
                let mut st = self.state.lock();
                if seq < st.fresh[peer] {
                    drop(st);
                    FaultCounters::bump(&self.session.counters().resends);
                    self.session.events().push(FaultEvent::Resend { step, rank, peer, seq });
                    return self.inner.send(peer, frame);
                }
                st.fresh[peer] = seq + 1;
                let (fault, round, first) = (st.fault, st.round, !st.fault_logged);
                st.fault_logged = true;
                drop(st);
                let Some(fault) = fault else {
                    return self.inner.send(peer, frame);
                };
                let kind = match fault {
                    SendFault::Drop => FaultKind::Drop,
                    SendFault::Corrupt => FaultKind::Corrupt,
                };
                if first {
                    self.inject(round, kind, round as u64);
                }
                if fault == SendFault::Corrupt {
                    self.corrupt_in_flight(peer, frame, round);
                }
                Ok(()) // lost in flight
            }
            FrameKind::Nack => {
                let (round, attempt) = {
                    let mut st = self.state.lock();
                    let round = st.round;
                    let n = st.nacks.entry((peer, seq)).or_insert(0);
                    *n += 1;
                    (round, *n)
                };
                FaultCounters::bump(&self.session.counters().timeouts);
                self.session.events().push(FaultEvent::RetryTimeout {
                    step,
                    rank,
                    peer,
                    round,
                    attempt,
                });
                self.inner.send(peer, frame)
            }
            _ => self.inner.send(peer, frame),
        }
    }

    fn recv_timeout(&self, peer: usize, timeout: Duration) -> Result<Frame, WireError> {
        let got = self.inner.recv_timeout(peer, timeout);
        match &got {
            Ok(f) if f.kind == FrameKind::Data && !self.state.lock().seen.insert((peer, f.seq)) => {
                FaultCounters::bump(&self.session.counters().duplicates_dropped);
                self.session.events().push(FaultEvent::DuplicateDropped {
                    step: self.step,
                    rank: self.inner.rank(),
                    peer,
                    seq: f.seq,
                });
            }
            Err(WireError::Timeout) => self.session.clock().note_wait(timeout),
            _ => {}
        }
        got
    }

    fn silence(&self, peer: usize) -> Duration {
        self.inner.silence(peer)
    }

    fn release(&self, payload: Vec<u8>) {
        self.inner.release(payload);
    }

    fn begin_round(&self, round: usize) -> Result<(), WireError> {
        let (plan, step, rank) = (self.session.plan(), self.step, self.inner.rank());
        {
            let mut st = self.state.lock();
            st.round = round;
            st.fault = plan.send_fault(step, rank, round);
            st.fault_logged = false;
        }
        if plan.crashes_at(step, rank, round) {
            self.state.lock().crashed = true;
            self.inject(round, FaultKind::Crash, round as u64);
            return Err(WireError::PeerGone);
        }
        if let Some(delay) = plan.straggle(step, rank, round) {
            let millis = delay.as_millis() as u64;
            self.inject(round, FaultKind::Straggle { millis }, millis);
            self.session.clock().inject(delay);
        }
        self.inner.begin_round(round)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::apply_allreduce;
    use crate::{rd, ring};
    use faults::{FaultSpec, Injection};
    use std::time::Instant;

    fn inputs(n_ranks: usize, n_elems: usize) -> Vec<Vec<f32>> {
        (0..n_ranks)
            .map(|r| (0..n_elems).map(|i| ((r * 29 + i * 5) % 17) as f32 * 0.5 - 4.0).collect())
            .collect()
    }

    fn ids(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    #[test]
    fn empty_plan_matches_reference_bit_for_bit() {
        let (n, e) = (4usize, 64usize);
        let s = ring::allreduce(n, e);
        let ins = inputs(n, e);
        let mut by_ref = ins.clone();
        apply_allreduce(&s, &mut by_ref, ReduceOp::Sum);
        let mut by_fault = ins.clone();
        let session = FaultSession::new(FaultPlan::none());
        session.allreduce(&s, &mut by_fault, ReduceOp::Sum, &ids(n)).unwrap();
        assert_eq!(by_ref, by_fault);
        assert!(session.events().is_empty());
    }

    #[test]
    fn dropped_payloads_are_recovered_exactly() {
        let (n, e) = (4usize, 32usize);
        let s = ring::allreduce(n, e);
        let plan = FaultPlan::explicit(
            1,
            vec![
                Injection { step: 0, rank: 1, round: 0, kind: FaultKind::Drop },
                Injection { step: 0, rank: 3, round: 2, kind: FaultKind::Drop },
            ],
        );
        let ins = inputs(n, e);
        let mut by_ref = ins.clone();
        apply_allreduce(&s, &mut by_ref, ReduceOp::Sum);
        let mut bufs = ins.clone();
        let session = FaultSession::new(plan);
        session.allreduce(&s, &mut bufs, ReduceOp::Sum, &ids(n)).unwrap();
        assert_eq!(by_ref, bufs, "drop recovery must be bit-exact");
        let c = session.counters().snapshot();
        assert_eq!(c.injected_drops, 2);
        assert!(c.resends >= 2, "each drop needs at least one resend: {c}");
        assert!(c.timeouts >= 2, "drops are only noticed via deadlines: {c}");
    }

    #[test]
    fn corrupted_payloads_are_rejected_and_resent() {
        let (n, e) = (4usize, 32usize);
        let s = rd::allreduce(n, e);
        let plan = FaultPlan::explicit(
            2,
            vec![Injection { step: 0, rank: 2, round: 1, kind: FaultKind::Corrupt }],
        );
        let ins = inputs(n, e);
        let mut by_ref = ins.clone();
        apply_allreduce(&s, &mut by_ref, ReduceOp::Sum);
        let mut bufs = ins.clone();
        let session = FaultSession::new(plan);
        session.allreduce(&s, &mut bufs, ReduceOp::Sum, &ids(n)).unwrap();
        assert_eq!(by_ref, bufs, "corruption must never reach the buffers");
        let c = session.counters().snapshot();
        assert_eq!(c.injected_corruptions, 1);
        assert!(c.crc_rejects >= 1, "{c}");
        assert!(c.resends >= 1, "{c}");
    }

    /// The CRC reject comes from the frame codec itself: the corrupted
    /// copy fails `parse_body` and never reaches the receiver, while
    /// the executor's resend of the same seq passes through clean.
    #[test]
    fn corrupted_frame_fails_the_codec_crc_and_is_lost() {
        let plan = FaultPlan::explicit(
            6,
            vec![Injection { step: 0, rank: 0, round: 0, kind: FaultKind::Corrupt }],
        );
        let session = FaultSession::new(plan);
        let wires = ChannelWire::mesh(2);
        let fw = FaultWire::new(&wires[0], &session);
        fw.begin_round(0).unwrap();
        let mut frame = Frame::control(FrameKind::Data, 0, 0, 0);
        frame.payload = vec![1, 2, 3, 4];
        fw.send(1, &frame).unwrap();
        assert_eq!(
            wires[1].recv_timeout(0, Duration::from_millis(20)),
            Err(WireError::Timeout),
            "a frame that fails its CRC is lost at decode"
        );
        let c = session.counters().snapshot();
        assert_eq!((c.injected_corruptions, c.crc_rejects), (1, 1), "{c}");
        let reject = FaultEvent::CrcReject { step: 0, rank: 1, peer: 0, round: 0, seq: 0 };
        assert!(session.events().snapshot().iter().any(|s| s.event == reject));
        fw.send(1, &frame).unwrap();
        assert_eq!(wires[1].recv_timeout(0, Duration::from_millis(100)), Ok(frame));
        assert_eq!(session.counters().snapshot().resends, 1);
    }

    #[test]
    fn stragglers_only_delay_under_virtual_clock() {
        let (n, e) = (4usize, 16usize);
        let s = ring::allreduce(n, e);
        let plan = FaultPlan::explicit(
            3,
            vec![Injection {
                step: 0,
                rank: 0,
                round: 1,
                kind: FaultKind::Straggle { millis: 60_000 },
            }],
        );
        let ins = inputs(n, e);
        let mut by_ref = ins.clone();
        apply_allreduce(&s, &mut by_ref, ReduceOp::Sum);
        let mut bufs = ins.clone();
        let session = FaultSession::new(plan); // virtual: must not sleep a minute
        let t0 = Instant::now();
        session.allreduce(&s, &mut bufs, ReduceOp::Sum, &ids(n)).unwrap();
        assert!(t0.elapsed() < Duration::from_secs(10));
        assert_eq!(by_ref, bufs);
        assert_eq!(session.clock().injected(), Duration::from_secs(60));
        assert_eq!(session.counters().snapshot().injected_straggles, 1);
    }

    #[test]
    fn crash_aborts_with_the_dead_rank_reported() {
        let (n, e) = (4usize, 24usize);
        let s = ring::allreduce(n, e);
        let plan = FaultPlan::explicit(
            4,
            vec![Injection { step: 0, rank: 2, round: 1, kind: FaultKind::Crash }],
        );
        let mut bufs = inputs(n, e);
        let session = FaultSession::new(plan);
        let err = session
            .allreduce(&s, &mut bufs, ReduceOp::Sum, &ids(n))
            .expect_err("a crashed rank must abort the collective");
        assert_eq!(err, PeerExecError::PeerDead { dead: vec![2] });
        let c = session.counters().snapshot();
        assert_eq!(c.injected_crashes, 1);
        assert!(c.rank_deaths >= 1, "at least one peer must observe the death: {c}");
    }

    #[test]
    fn crash_detection_ignores_renumbering() {
        // After a degradation the local ranks 0..3 may stand for
        // original ids {0, 1, 3, 4}: the plan must hit original id 3
        // (local 2), and the error speaks original ids.
        let (n, e) = (4usize, 16usize);
        let s = ring::allreduce(n, e);
        let plan = FaultPlan::explicit(
            5,
            vec![Injection { step: 0, rank: 3, round: 0, kind: FaultKind::Crash }],
        );
        let mut bufs = inputs(n, e);
        let session = FaultSession::new(plan);
        let err = session
            .allreduce(&s, &mut bufs, ReduceOp::Sum, &[0, 1, 3, 4])
            .expect_err("original id 3 is present as local 2");
        assert_eq!(err, PeerExecError::PeerDead { dead: vec![3] });
    }

    #[test]
    fn traced_fault_run_records_retry_and_fault_events() {
        let (n, e) = (4usize, 32usize);
        let s = ring::allreduce(n, e);
        let plan = FaultPlan::explicit(
            1,
            vec![Injection { step: 0, rank: 1, round: 0, kind: FaultKind::Drop }],
        );
        let rec = trace::TraceRecorder::new();
        let session = FaultSession::new(plan).with_trace(ExecTrace::comm(&rec, &ids(n)));
        let mut bufs = inputs(n, e);
        session.allreduce(&s, &mut bufs, ReduceOp::Sum, &ids(n)).unwrap();
        let snap = rec.snapshot();
        assert_eq!(snap.pids(), vec![0, 1, 2, 3]);
        let cats: Vec<&str> =
            snap.lanes.iter().flat_map(|l| l.spans.iter()).map(|s| s.cat).collect();
        assert!(cats.contains(&"SEND") && cats.contains(&"RECV"), "{cats:?}");
        assert!(cats.contains(&"FAULT"), "drop injection must land in the FAULT lane: {cats:?}");
        assert!(cats.contains(&"RETRY"), "drop recovery goes through timeout/resend: {cats:?}");
        // The injection was recorded on the faulty rank's own pid row.
        let rank1 = snap.lanes.iter().find(|l| l.pid == 1).expect("rank 1 lane");
        assert!(rank1.spans.iter().any(|s| s.cat == "FAULT" && s.name == "drop"));
    }

    #[test]
    fn faulty_runs_replay_identically_from_the_same_plan() {
        let (n, e) = (4usize, 48usize);
        let s = ring::allreduce(n, e);
        let spec = FaultSpec {
            drops: 2,
            corruptions: 2,
            stragglers: 2,
            ..FaultSpec::none(n, 1, s.n_rounds())
        };
        let run = |seed: u64| {
            let plan = FaultPlan::seeded(seed, &spec);
            let mut bufs = inputs(n, e);
            let session = FaultSession::new(plan);
            session.allreduce(&s, &mut bufs, ReduceOp::Sum, &ids(n)).unwrap();
            (
                bufs,
                session.events().deterministic_core(),
                session.counters().snapshot().deterministic_part(),
            )
        };
        let (b1, e1, c1) = run(11);
        let (b2, e2, c2) = run(11);
        assert_eq!(b1, b2, "same seed, same numbers");
        assert_eq!(e1, e2, "same seed, same deterministic events");
        assert_eq!(c1, c2, "same seed, same deterministic counters");
        let mut clean = inputs(n, e);
        crate::exec_thread::allreduce(&s, &mut clean, ReduceOp::Sum).unwrap();
        assert_eq!(b1, clean, "faults repaired ⇒ identical to the fault-free run");
    }
}
