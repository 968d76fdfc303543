//! DPOR model checking of the pipelined executor's three lock-free
//! protocols (`trainer::real::{pool, pipeline}`), via the vendored
//! `interleave` checker's relaxed-memory machine.
//!
//! Each protocol is modeled over [`interleave::Mem`] with the *exact*
//! orderings the real code uses, so the unmutated checks certify those
//! orderings are sufficient, and seeded mutants (dropped fence,
//! Relaxed-ified CAS/RMW, off-by-one counter, torn CAS, lost unpark,
//! panic-mid-phase, missing busy rule) must each be refuted with a
//! replayable trace:
//!
//! 1. [`QueueModel`] — `RangeQueue` (`pool.rs`): owner `pop_front` vs
//!    two thieves `steal_back` racing CAS on the packed
//!    `head:32 | end:32` word, with independent per-chunk work after
//!    each claim. This is also the DPOR-vs-BFS benchmark model: the
//!    post-claim work is what plain BFS state-space multiplies over and
//!    DPOR collapses.
//! 2. [`PoolModel`] — the `CorePool` park/unpark generation handshake
//!    (`run` / `helper_loop` / `Drop`), including the submit-while-parking
//!    window (a worker observes a stale generation and heads to park
//!    while the submitter publishes), the panic-mid-phase window (a
//!    worker panics after reading the job; the real code still
//!    decrements `remaining`), and the busy rule with a second
//!    submitter sharing the pool (the loser of the busy CAS runs its
//!    lanes inline; without the rule the two overwrite one job slot).
//! 3. [`TileModel`] — the pipelined `reduce_tile` completion-counter
//!    drain (`pipeline.rs`): workers publish partials with plain writes
//!    ordered only by the counter's `fetch_sub(AcqRel)` chain; the
//!    final decrementer reduces and runs the PR 7 codec path
//!    (encode-to-scratch, publish reduced) — with a compression step
//!    active, a stale partial read corrupts the wire payload, which is
//!    why the drain's ordering is load-bearing.
//!
//! Modeling conventions: park/unpark happens-before uses
//! [`Mem::transfer`] at token-consume time (std guarantees
//! release/acquire for `unpark`→`park`); `compare_exchange_weak`
//! spurious failures are not modeled (a spurious failure only retries
//! with the freshly returned value, adding no new visible behavior).

use interleave::{
    check_dpor, check_nd, replay_nd, DporOptions, Loc, Mem, MemOrd, NdModel, NdVerdict, Op, Steps,
};

fn pack(head: u32, end: u32) -> u64 {
    (u64::from(head) << 32) | u64::from(end)
}

fn unpack(w: u64) -> (u32, u32) {
    ((w >> 32) as u32, w as u32)
}

// ---------------------------------------------------------------------
// 1. RangeQueue: pop_front vs steal_back
// ---------------------------------------------------------------------

const WORD: Loc = 0;

#[derive(Clone, Copy, PartialEq, Eq)]
enum QueueBug {
    None,
    /// CAS replaced by load-then-store: the claim is no longer atomic.
    TornCas,
    /// `steal_back` claims index `end` instead of `end - 1`.
    StealOffByOne,
}

/// Owner (thread 0) pops from the front, thieves steal from the back,
/// exactly as `RangeQueue::{pop_front, steal_back}`: Acquire load, then
/// a `compare_exchange(AcqRel, Acquire)` retry loop fed by the returned
/// current value. Each claimed chunk is followed by `work_steps` of
/// thread-local work plus one write to the chunk's own slot — the
/// independent part DPOR is expected to collapse.
struct QueueModel {
    threads: usize,
    chunks: u32,
    work_steps: u8,
    /// `Some(n)`: each thread retires after `n` successful claims —
    /// the steady-state configuration (every worker owns one chunk and
    /// crunches it) used by the DPOR-vs-BFS benchmark, where the work
    /// phases overlap maximally. `None`: threads loop until the queue
    /// drains (the exhaustive and mutant checks).
    claims_per_thread: Option<u8>,
    bug: QueueBug,
}

#[derive(Clone, Hash, PartialEq, Eq, Debug)]
enum QueuePc {
    Load,
    Cas { cur: u64 },
    Work { idx: u32, stage: u8 },
    Finished,
}

#[derive(Clone, Hash, PartialEq, Eq, Debug)]
struct QueueState {
    mem: Mem,
    pc: Vec<QueuePc>,
    /// Model-level truth: how many times each chunk was claimed.
    claims: Vec<u8>,
    /// Successful claims per thread (for `claims_per_thread`).
    mine: Vec<u8>,
    /// A claim landed outside `0..chunks`.
    out_of_range: bool,
}

impl QueueModel {
    fn slot(idx: u32) -> Loc {
        1 + idx as Loc
    }
}

impl NdModel for QueueModel {
    type State = QueueState;

    fn initial(&self) -> QueueState {
        // Slot locations exist for every index a buggy claim can touch.
        let mut init = vec![0u64; 2 + self.chunks as usize];
        init[WORD as usize] = pack(0, self.chunks);
        QueueState {
            mem: Mem::new(self.threads, &init),
            pc: vec![QueuePc::Load; self.threads],
            claims: vec![0; self.chunks as usize],
            mine: vec![0; self.threads],
            out_of_range: false,
        }
    }

    fn n_threads(&self) -> usize {
        self.threads
    }

    fn steps(&self, s: &QueueState, tid: usize) -> Steps<QueueState> {
        let owner = tid == 0;
        match s.pc[tid].clone() {
            // The initial load reads the newest word (SeqCst): a stale
            // Acquire read is observationally equivalent to a CasFail —
            // the retry loop re-reads — so modeling stale branches here
            // only multiplies trace classes without adding behavior.
            // The CAS itself keeps the real AcqRel/Acquire orderings,
            // which is where the claim-atomicity bugs live.
            QueuePc::Load => Steps::Ready(
                s.mem
                    .load(tid, WORD, MemOrd::SeqCst)
                    .into_iter()
                    .map(|(v, mem)| {
                        let mut st = s.clone();
                        st.mem = mem;
                        let (head, end) = unpack(v);
                        st.pc[tid] =
                            if head >= end { QueuePc::Finished } else { QueuePc::Cas { cur: v } };
                        (Op::Read(WORD), st)
                    })
                    .collect(),
            ),
            QueuePc::Cas { cur } => {
                let (head, end) = unpack(cur);
                if head >= end {
                    // The retry observed a drained queue.
                    let mut st = s.clone();
                    st.pc[tid] = QueuePc::Finished;
                    return Steps::Ready(vec![(Op::Local, st)]);
                }
                let (new, idx) = if owner {
                    (pack(head + 1, end), head)
                } else {
                    match self.bug {
                        QueueBug::StealOffByOne => (pack(head, end - 1), end),
                        _ => (pack(head, end - 1), end - 1),
                    }
                };
                if self.bug == QueueBug::TornCas {
                    // Mutant: plain store of the precomputed word — two
                    // stale readers both "claim" the same index.
                    let mut st = s.clone();
                    st.mem = s.mem.store(tid, WORD, new, MemOrd::Release);
                    claim(&mut st, tid, self.chunks, idx);
                    st.pc[tid] = QueuePc::Work { idx, stage: 0 };
                    return Steps::Ready(vec![(Op::Write(WORD), st)]);
                }
                let (r, mem) = s.mem.cas(tid, WORD, cur, new, MemOrd::AcqRel, MemOrd::Acquire);
                let mut st = s.clone();
                st.mem = mem;
                match r {
                    Ok(_) => {
                        claim(&mut st, tid, self.chunks, idx);
                        st.pc[tid] = QueuePc::Work { idx, stage: 0 };
                        Steps::Ready(vec![(Op::CasOk(WORD), st)])
                    }
                    Err(now) => {
                        st.pc[tid] = QueuePc::Cas { cur: now };
                        Steps::Ready(vec![(Op::CasFail(WORD), st)])
                    }
                }
            }
            QueuePc::Work { idx, stage } => {
                let mut st = s.clone();
                if stage < self.work_steps {
                    // Thread-local compute on the claimed chunk.
                    st.pc[tid] = QueuePc::Work { idx, stage: stage + 1 };
                    Steps::Ready(vec![(Op::Local, st)])
                } else {
                    // Publish into the chunk's own slot: independent of
                    // every other chunk's slot.
                    let loc = QueueModel::slot(idx.min(self.chunks));
                    st.mem = s.mem.store(tid, loc, tid as u64 + 1, MemOrd::Relaxed);
                    let retired = self.claims_per_thread.is_some_and(|n| s.mine[tid] >= n);
                    st.pc[tid] = if retired { QueuePc::Finished } else { QueuePc::Load };
                    Steps::Ready(vec![(Op::Write(loc), st)])
                }
            }
            QueuePc::Finished => Steps::Done,
        }
    }

    fn invariant(&self, s: &QueueState) -> Result<(), String> {
        if s.out_of_range {
            return Err("a chunk index outside the queue range was claimed".into());
        }
        if let Some((i, &n)) = s.claims.iter().enumerate().find(|&(_, &n)| n > 1) {
            return Err(format!("chunk {i} claimed {n} times"));
        }
        if s.pc.iter().all(|pc| *pc == QueuePc::Finished) {
            if let Some((i, _)) = s.claims.iter().enumerate().find(|&(_, &n)| n == 0) {
                return Err(format!("all workers finished but chunk {i} was never claimed"));
            }
        }
        Ok(())
    }
}

fn claim(st: &mut QueueState, tid: usize, chunks: u32, idx: u32) {
    st.mine[tid] += 1;
    if idx >= chunks {
        st.out_of_range = true;
    } else {
        st.claims[idx as usize] += 1;
    }
}

#[test]
fn range_queue_three_threads_exhaustive_under_dpor() {
    let m = QueueModel {
        threads: 3,
        chunks: 3,
        work_steps: 2,
        claims_per_thread: None,
        bug: QueueBug::None,
    };
    let r = check_dpor(&m, DporOptions::default())
        .unwrap_or_else(|v| panic!("RangeQueue protocol refuted: {v}"));
    assert!(r.complete, "no preemption bound: the pass is exhaustive ({r:?})");
    assert!(r.traces > 1, "contended CAS must fork the exploration ({r:?})");
}

#[test]
fn range_queue_dpor_needs_under_one_percent_of_bfs_states() {
    // The acceptance benchmark: same 3-thread model, both engines.
    let m = QueueModel {
        threads: 3,
        chunks: 3,
        work_steps: 48,
        claims_per_thread: Some(1),
        bug: QueueBug::None,
    };
    let bfs = check_nd(&m, 10_000_000).unwrap_or_else(|v| panic!("BFS refuted the queue: {v}"));
    let dpor = check_dpor(&m, DporOptions::default())
        .unwrap_or_else(|v| panic!("DPOR refuted the queue: {v}"));
    println!(
        "RangeQueue 3-thread model: BFS visited {} states ({} transitions); \
         DPOR explored {} nodes across {} traces",
        bfs.states, bfs.transitions, dpor.nodes, dpor.traces
    );
    assert!(
        dpor.nodes * 100 <= bfs.states,
        "DPOR must need <=1% of BFS states: {} vs {}",
        dpor.nodes,
        bfs.states
    );
}

#[test]
fn range_queue_torn_cas_mutant_refuted() {
    let m = QueueModel {
        threads: 3,
        chunks: 3,
        work_steps: 0,
        claims_per_thread: None,
        bug: QueueBug::TornCas,
    };
    let v = check_dpor(&m, DporOptions::default()).expect_err("torn CAS must double-claim");
    println!("torn-CAS counterexample: {v}");
    match &v {
        NdVerdict::InvariantViolated { trace, state, reason, .. } => {
            assert!(reason.contains("claimed"), "{reason}");
            let states = replay_nd(&m, trace);
            assert_eq!(states.last(), Some(state), "trace must replay to the violation");
        }
        other => panic!("expected an invariant violation, got {other}"),
    }
}

#[test]
fn range_queue_steal_off_by_one_mutant_refuted() {
    let m = QueueModel {
        threads: 3,
        chunks: 3,
        work_steps: 0,
        claims_per_thread: None,
        bug: QueueBug::StealOffByOne,
    };
    let v = check_dpor(&m, DporOptions::default()).expect_err("off-by-one steal must misclaim");
    println!("steal-off-by-one counterexample: {v}");
    match &v {
        NdVerdict::InvariantViolated { trace, state, reason, .. } => {
            assert!(
                reason.contains("outside the queue range") || reason.contains("claimed"),
                "{reason}"
            );
            let states = replay_nd(&m, trace);
            assert_eq!(states.last(), Some(state));
        }
        other => panic!("expected an invariant violation, got {other}"),
    }
}

// ---------------------------------------------------------------------
// 2. CorePool: park/unpark generation handshake + busy rule
// ---------------------------------------------------------------------

const JOB: Loc = 0;
const REM: Loc = 1;
const GEN: Loc = 2;
const BUSY: Loc = 3;
const SHUT: Loc = 4;
/// The `submitter` handle helpers unpark (a mutex in the real code).
const SUBW: Loc = 5;
/// Submitter `k` publishes job `JOB_VAL + k`.
const JOB_VAL: u64 = 42;
const N_WORKERS: usize = 2;
const MAX_SUBMITTERS: usize = 2;
/// Lanes per job: the submitter's lane 0 plus one per helper.
const LANES: usize = 1 + N_WORKERS;

#[derive(Clone, Copy, PartialEq, Eq)]
enum PoolBug {
    None,
    /// `generation.fetch_add(Release)` demoted to Relaxed — the dropped
    /// fence: a spinning helper can see the new generation but a stale
    /// job pointer.
    DroppedGenFence,
    /// The submitter only unparks helpers it observes as parked — the
    /// submit-while-parking window loses the wakeup.
    LostUnpark,
    /// A panicking worker skips the `remaining` decrement (the real
    /// code decrements after `catch_unwind`).
    PanicSkipsDecrement,
    /// No busy rule: every submitter publishes into the one job slot,
    /// overwriting a job the helpers may still be running.
    NoBusyRule,
}

/// `CorePool::run` + `helper_loop` + `Drop`. Each submitter (threads
/// `0..submitters`) claims the job slot with the busy CAS (Acquire;
/// a failed claim runs all lanes inline), publishes submitter handle,
/// job, remaining and generation with Release stores, unparks both
/// helpers, runs lane 0, waits for `remaining == 0` (Acquire) parking in
/// between, and releases the slot (Release). Submitter 0 owns the pool:
/// once every submitter returned it stores `shutdown` and unparks the
/// helpers, as `Drop` does. Helpers (threads `submitters..`) loop: a
/// new generation means read the job, run it, decrement `remaining`
/// with AcqRel and, on the final decrement, unpark the recorded
/// submitter; otherwise exit on `shutdown` or park.
///
/// Ghost state records which job each generation published and how
/// often each job ran each lane, so the invariant can demand that every
/// job runs every lane exactly once and that no helper runs a job its
/// submitter has already returned from.
struct PoolModel {
    bug: PoolBug,
    /// Helper index (0-based) that panics in its first job, if any.
    panic_in: Option<usize>,
    /// Threads calling `run` on the one pool (1 or 2).
    submitters: usize,
}

/// Submitter program counters.
mod sub {
    pub const CLAIM: u8 = 0;
    pub const INLINE: u8 = 1;
    pub const HANDLE: u8 = 2;
    pub const STORE_JOB: u8 = 3;
    pub const STORE_REM: u8 = 4;
    pub const BUMP_GEN: u8 = 5;
    /// `UNPARK + w` unparks helper `w`.
    pub const UNPARK: u8 = 6;
    pub const LANE0: u8 = 8;
    pub const LOAD_REM: u8 = 9;
    pub const PARK: u8 = 10;
    /// Every pc from here on has returned from the wait.
    pub const RELEASE: u8 = 11;
    pub const JOIN: u8 = 12;
    pub const SHUTDOWN: u8 = 13;
    /// `DROP_UNPARK + w` unparks helper `w` for shutdown.
    pub const DROP_UNPARK: u8 = 14;
    pub const DONE: u8 = 16;
}

/// Helper program counters.
mod helper {
    pub const LOAD_GEN: u8 = 0;
    pub const LOAD_SHUT: u8 = 1;
    pub const PARK: u8 = 2;
    pub const LOAD_JOB: u8 = 3;
    pub const RUN: u8 = 4;
    pub const DECREMENT: u8 = 5;
    pub const LOAD_HANDLE: u8 = 6;
    pub const UNPARK_SUB: u8 = 7;
    pub const DONE: u8 = 8;
}

#[derive(Clone, Hash, PartialEq, Eq, Debug)]
struct PoolState {
    mem: Mem,
    sub_pc: [u8; MAX_SUBMITTERS],
    w_pc: [u8; N_WORKERS],
    w_gen: [u64; N_WORKERS],
    seen_job: [u64; N_WORKERS],
    /// Submitter the helper is about to unpark.
    w_target: [usize; N_WORKERS],
    /// Park tokens (std's `unpark` token semantics), with a bitmask of
    /// the threads whose unpark set it (for the HB transfer).
    token: [u8; N_WORKERS],
    sub_token: [u8; MAX_SUBMITTERS],
    /// Ghost: job value published by each generation.
    gen_job: [u64; 1 + MAX_SUBMITTERS],
    /// Ghost: times job `k` ran lane `l`.
    ran: [[u8; LANES]; MAX_SUBMITTERS],
    panicked: [bool; N_WORKERS],
    underflow: bool,
}

impl PoolModel {
    fn wtid(&self, w: usize) -> usize {
        self.submitters + w
    }

    fn lot(w: usize) -> Loc {
        101 + w as Loc
    }

    fn sub_lot(k: usize) -> Loc {
        110 + k as Loc
    }

    /// Consume a park token: park returned because of `unpark`, so join
    /// every unparker's view (std guarantees this edge).
    fn consume(&self, mem: &Mem, from_mask: u8, to: usize) -> Mem {
        let mut m = mem.clone();
        for from in 0..self.submitters + N_WORKERS {
            if from_mask & (1 << from) != 0 {
                m = m.transfer(from, to);
            }
        }
        m
    }
}

impl NdModel for PoolModel {
    type State = PoolState;

    fn initial(&self) -> PoolState {
        assert!((1..=MAX_SUBMITTERS).contains(&self.submitters));
        let mut sub_pc = [sub::DONE; MAX_SUBMITTERS];
        sub_pc[..self.submitters].fill(sub::CLAIM);
        PoolState {
            mem: Mem::new(self.submitters + N_WORKERS, &[0; 6]),
            sub_pc,
            w_pc: [helper::LOAD_GEN; N_WORKERS],
            w_gen: [0; N_WORKERS],
            seen_job: [0; N_WORKERS],
            w_target: [0; N_WORKERS],
            token: [0; N_WORKERS],
            sub_token: [0; MAX_SUBMITTERS],
            gen_job: [0; 1 + MAX_SUBMITTERS],
            ran: [[0; LANES]; MAX_SUBMITTERS],
            panicked: [false; N_WORKERS],
            underflow: false,
        }
    }

    fn n_threads(&self) -> usize {
        self.submitters + N_WORKERS
    }

    fn steps(&self, s: &PoolState, tid: usize) -> Steps<PoolState> {
        if tid < self.submitters {
            return self.submitter_steps(s, tid);
        }
        self.worker_steps(s, tid - self.submitters)
    }

    fn invariant(&self, s: &PoolState) -> Result<(), String> {
        if s.underflow {
            return Err("remaining underflowed below zero".into());
        }
        for w in 0..N_WORKERS {
            let want = s.gen_job[s.w_gen[w] as usize];
            if s.w_pc[w] == helper::RUN && s.seen_job[w] != want {
                return Err(format!(
                    "worker {w} ran with a stale job pointer ({} != {want})",
                    s.seen_job[w]
                ));
            }
        }
        for k in 0..self.submitters {
            for (lane, &n) in s.ran[k].iter().enumerate() {
                if n > 1 {
                    return Err(format!("job {k} ran lane {lane} {n} times"));
                }
                if n == 0 && s.sub_pc[k] >= sub::RELEASE {
                    return Err(format!("submitter {k} returned before lane {lane} ran"));
                }
            }
        }
        let all_done = s.sub_pc.iter().all(|&pc| pc == sub::DONE)
            && s.w_pc.iter().all(|&pc| pc == helper::DONE);
        if all_done && s.mem.peek(REM) != 0 {
            return Err(format!("handshake completed with remaining = {}", s.mem.peek(REM)));
        }
        Ok(())
    }
}

impl PoolModel {
    fn submitter_steps(&self, s: &PoolState, k: usize) -> Steps<PoolState> {
        let tid = k;
        let next = |st: &mut PoolState, pc: u8| st.sub_pc[k] = pc;
        match s.sub_pc[k] {
            sub::CLAIM => {
                let mut st = s.clone();
                if self.bug == PoolBug::NoBusyRule {
                    next(&mut st, sub::HANDLE);
                    return Steps::Ready(vec![(Op::Local, st)]);
                }
                let (res, mem) = s.mem.cas(tid, BUSY, 0, 1, MemOrd::Acquire, MemOrd::Relaxed);
                st.mem = mem;
                match res {
                    Ok(_) => {
                        next(&mut st, sub::HANDLE);
                        Steps::Ready(vec![(Op::CasOk(BUSY), st)])
                    }
                    Err(_) => {
                        next(&mut st, sub::INLINE);
                        Steps::Ready(vec![(Op::CasFail(BUSY), st)])
                    }
                }
            }
            sub::INLINE => {
                // Busy: every lane runs inline on the caller.
                let mut st = s.clone();
                st.ran[k] = [1; LANES];
                next(&mut st, sub::JOIN);
                Steps::Ready(vec![(Op::Local, st)])
            }
            sub::HANDLE => {
                let mut st = s.clone();
                st.mem = s.mem.store(tid, SUBW, k as u64, MemOrd::Release);
                next(&mut st, sub::STORE_JOB);
                Steps::Ready(vec![(Op::Write(SUBW), st)])
            }
            sub::STORE_JOB => {
                let mut st = s.clone();
                st.mem = s.mem.store(tid, JOB, JOB_VAL + k as u64, MemOrd::Release);
                next(&mut st, sub::STORE_REM);
                Steps::Ready(vec![(Op::Write(JOB), st)])
            }
            sub::STORE_REM => {
                let mut st = s.clone();
                st.mem = s.mem.store(tid, REM, N_WORKERS as u64, MemOrd::Release);
                next(&mut st, sub::BUMP_GEN);
                Steps::Ready(vec![(Op::Write(REM), st)])
            }
            sub::BUMP_GEN => {
                let ord = if self.bug == PoolBug::DroppedGenFence {
                    MemOrd::Relaxed
                } else {
                    MemOrd::Release
                };
                let (old, mem) = s.mem.rmw(tid, GEN, ord, |v| v + 1);
                let mut st = s.clone();
                st.mem = mem;
                st.gen_job[old as usize + 1] = JOB_VAL + k as u64;
                next(&mut st, sub::UNPARK);
                Steps::Ready(vec![(Op::CasOk(GEN), st)])
            }
            pc @ (sub::UNPARK | 7) => {
                let w = (pc - sub::UNPARK) as usize;
                let mut st = s.clone();
                // The real code unparks every helper unconditionally;
                // the LostUnpark mutant "optimizes" by only unparking
                // helpers it observes as already parked.
                let skip = self.bug == PoolBug::LostUnpark && s.w_pc[w] != helper::PARK;
                if !skip {
                    st.token[w] |= 1 << tid;
                }
                next(&mut st, pc + 1);
                Steps::Ready(vec![(Op::Unpark(PoolModel::lot(w)), st)])
            }
            sub::LANE0 => {
                let mut st = s.clone();
                st.ran[k][0] += 1;
                next(&mut st, sub::LOAD_REM);
                Steps::Ready(vec![(Op::Local, st)])
            }
            sub::LOAD_REM => Steps::Ready(
                s.mem
                    .load(tid, REM, MemOrd::Acquire)
                    .into_iter()
                    .map(|(v, mem)| {
                        let mut st = s.clone();
                        st.mem = mem;
                        next(&mut st, if v == 0 { sub::RELEASE } else { sub::PARK });
                        (Op::Read(REM), st)
                    })
                    .collect(),
            ),
            sub::PARK => {
                if s.sub_token[k] == 0 {
                    return Steps::Blocked;
                }
                let mut st = s.clone();
                st.sub_token[k] = 0;
                st.mem = self.consume(&s.mem, s.sub_token[k], tid);
                next(&mut st, sub::LOAD_REM);
                Steps::Ready(vec![(Op::Park(PoolModel::sub_lot(k)), st)])
            }
            sub::RELEASE => {
                let mut st = s.clone();
                next(&mut st, sub::JOIN);
                if self.bug == PoolBug::NoBusyRule {
                    return Steps::Ready(vec![(Op::Local, st)]);
                }
                st.mem = s.mem.store(tid, BUSY, 0, MemOrd::Release);
                Steps::Ready(vec![(Op::Write(BUSY), st)])
            }
            sub::JOIN => {
                if k != 0 {
                    let mut st = s.clone();
                    next(&mut st, sub::DONE);
                    return Steps::Ready(vec![(Op::Local, st)]);
                }
                // The pool's owner drops it after joining the others.
                if s.sub_pc[1..self.submitters].iter().any(|&pc| pc != sub::DONE) {
                    return Steps::Blocked;
                }
                let mut st = s.clone();
                for other in 1..self.submitters {
                    st.mem = st.mem.transfer(other, tid);
                }
                next(&mut st, sub::SHUTDOWN);
                Steps::Ready(vec![(Op::Local, st)])
            }
            sub::SHUTDOWN => {
                let mut st = s.clone();
                st.mem = s.mem.store(tid, SHUT, 1, MemOrd::Release);
                next(&mut st, sub::DROP_UNPARK);
                Steps::Ready(vec![(Op::Write(SHUT), st)])
            }
            pc @ (sub::DROP_UNPARK | 15) => {
                let w = (pc - sub::DROP_UNPARK) as usize;
                let mut st = s.clone();
                st.token[w] |= 1 << tid;
                next(&mut st, pc + 1);
                Steps::Ready(vec![(Op::Unpark(PoolModel::lot(w)), st)])
            }
            _ => Steps::Done,
        }
    }

    fn worker_steps(&self, s: &PoolState, w: usize) -> Steps<PoolState> {
        let tid = self.wtid(w);
        let load = |loc: Loc, then: &dyn Fn(&mut PoolState, u64)| {
            Steps::Ready(
                s.mem
                    .load(tid, loc, MemOrd::Acquire)
                    .into_iter()
                    .map(|(v, mem)| {
                        let mut st = s.clone();
                        st.mem = mem;
                        then(&mut st, v);
                        (Op::Read(loc), st)
                    })
                    .collect(),
            )
        };
        match s.w_pc[w] {
            helper::LOAD_GEN => load(GEN, &|st, v| {
                if v == s.w_gen[w] {
                    // Nothing new from this helper's point of view.
                    st.w_pc[w] = helper::LOAD_SHUT;
                } else {
                    st.w_gen[w] = v;
                    st.w_pc[w] = helper::LOAD_JOB;
                }
            }),
            helper::LOAD_SHUT => load(SHUT, &|st, v| {
                st.w_pc[w] = if v == 1 { helper::DONE } else { helper::PARK };
            }),
            helper::PARK => {
                if s.token[w] == 0 {
                    return Steps::Blocked;
                }
                let mut st = s.clone();
                st.token[w] = 0;
                st.mem = self.consume(&s.mem, s.token[w], tid);
                st.w_pc[w] = helper::LOAD_GEN;
                Steps::Ready(vec![(Op::Park(PoolModel::lot(w)), st)])
            }
            helper::LOAD_JOB => load(JOB, &|st, v| {
                st.seen_job[w] = v;
                st.w_pc[w] = helper::RUN;
            }),
            helper::RUN => {
                let mut st = s.clone();
                if let Some(k) = s.seen_job[w].checked_sub(JOB_VAL) {
                    st.ran[k as usize][1 + w] += 1;
                }
                st.w_pc[w] = helper::DECREMENT;
                if self.panic_in == Some(w) && !s.panicked[w] {
                    st.panicked[w] = true;
                    // The mutant forgets that a panicking job must
                    // still decrement `remaining`.
                    if self.bug == PoolBug::PanicSkipsDecrement {
                        st.w_pc[w] = helper::LOAD_GEN;
                    }
                }
                Steps::Ready(vec![(Op::Local, st)])
            }
            helper::DECREMENT => {
                let (old, mem) = s.mem.rmw(tid, REM, MemOrd::AcqRel, |v| v.wrapping_sub(1));
                let mut st = s.clone();
                st.mem = mem;
                if old == 0 {
                    st.underflow = true;
                }
                st.w_pc[w] = if old == 1 { helper::LOAD_HANDLE } else { helper::LOAD_GEN };
                Steps::Ready(vec![(Op::CasOk(REM), st)])
            }
            helper::LOAD_HANDLE => load(SUBW, &|st, v| {
                st.w_target[w] = v as usize;
                st.w_pc[w] = helper::UNPARK_SUB;
            }),
            helper::UNPARK_SUB => {
                let k = s.w_target[w];
                let mut st = s.clone();
                st.sub_token[k] |= 1 << tid;
                st.w_pc[w] = helper::LOAD_GEN;
                Steps::Ready(vec![(Op::Unpark(PoolModel::sub_lot(k)), st)])
            }
            _ => Steps::Done,
        }
    }
}

fn pool(bug: PoolBug, panic_in: Option<usize>, submitters: usize) -> PoolModel {
    PoolModel { bug, panic_in, submitters }
}

#[test]
fn core_pool_handshake_exhaustive_under_dpor() {
    let r = check_dpor(&pool(PoolBug::None, None, 1), DporOptions::default())
        .unwrap_or_else(|v| panic!("CorePool handshake refuted: {v}"));
    assert!(r.complete);
    assert!(r.traces > 1, "park vs spin windows must both be explored ({r:?})");
}

#[test]
fn core_pool_panic_mid_phase_window_still_drains() {
    // A worker panicking after reading the job: the real code
    // decrements anyway, so the handshake must still complete.
    let r = check_dpor(&pool(PoolBug::None, Some(1), 1), DporOptions::default())
        .unwrap_or_else(|v| panic!("panic-mid-phase handling refuted: {v}"));
    assert!(r.complete);
}

#[test]
fn core_pool_two_submitters_exhaustive_under_dpor() {
    // Two threads share one pool: the busy rule hands the job slot to
    // one of them and runs the other's lanes inline, so every job runs
    // every lane exactly once in every interleaving.
    let r = check_dpor(&pool(PoolBug::None, None, 2), DporOptions::default())
        .unwrap_or_else(|v| panic!("busy rule refuted: {v}"));
    println!("two submitters: {r:?}");
    assert!(r.complete);
    assert!(r.traces > 1, "claim races must be explored ({r:?})");
}

#[test]
fn core_pool_without_busy_rule_mutant_refuted() {
    let m = pool(PoolBug::NoBusyRule, None, 2);
    let v = check_dpor(&m, DporOptions::default()).expect_err("shared job slot must be refuted");
    println!("no-busy-rule counterexample: {v}");
    match &v {
        NdVerdict::InvariantViolated { trace, state, .. } => {
            let states = replay_nd(&m, trace);
            assert_eq!(states.last(), Some(state));
        }
        NdVerdict::Deadlock { .. } => {}
        other => panic!("expected a violation or a deadlock, got {other}"),
    }
}

#[test]
fn core_pool_dropped_gen_fence_mutant_refuted() {
    let m = pool(PoolBug::DroppedGenFence, None, 1);
    let v = check_dpor(&m, DporOptions::default()).expect_err("relaxed gen bump must leak");
    println!("dropped-fence counterexample: {v}");
    match &v {
        NdVerdict::InvariantViolated { trace, state, reason, .. } => {
            assert!(reason.contains("stale job"), "{reason}");
            let states = replay_nd(&m, trace);
            assert_eq!(states.last(), Some(state));
        }
        other => panic!("expected a stale-job violation, got {other}"),
    }
}

#[test]
fn core_pool_lost_unpark_mutant_deadlocks() {
    let m = pool(PoolBug::LostUnpark, None, 1);
    let v = check_dpor(&m, DporOptions::default()).expect_err("lost wakeup must wedge the pool");
    println!("lost-unpark counterexample: {v}");
    assert!(
        matches!(v, NdVerdict::Deadlock { .. }),
        "submit-while-parking without a token must deadlock, got {v}"
    );
}

#[test]
fn core_pool_panic_skips_decrement_mutant_deadlocks() {
    let m = pool(PoolBug::PanicSkipsDecrement, Some(0), 1);
    let v = check_dpor(&m, DporOptions::default()).expect_err("skipped decrement must wedge");
    println!("panic-skips-decrement counterexample: {v}");
    assert!(matches!(v, NdVerdict::Deadlock { .. }), "got {v}");
}

// ---------------------------------------------------------------------
// 3. reduce_tile completion-counter drain (codec active)
// ---------------------------------------------------------------------

const N_RED: usize = 3;
const CTR: Loc = N_RED as Loc;
const ENC: Loc = N_RED as Loc + 1;
const RED: Loc = N_RED as Loc + 2;

#[derive(Clone, Copy, PartialEq, Eq)]
enum TileBug {
    None,
    /// `counters[tile].fetch_sub(AcqRel)` demoted to Relaxed — the
    /// Relaxed-ified RMW: the final decrement no longer acquires the
    /// other workers' partial writes.
    RelaxedFetchSub,
    /// Counter seeded with `n_tasks - 1`.
    OffByOneInit,
}

/// Worker `w` writes its gradient partial (a plain store, ordered only
/// by the counter chain), then decrements the tile counter; whoever
/// sees the counter hit zero drains the tile: reads every partial,
/// quantizes the sum into the encode scratch (the PR 7 codec path), and
/// publishes the reduced value.
struct TileModel {
    bug: TileBug,
}

fn partial_of(w: usize) -> u64 {
    (w as u64 + 1) * 3
}

fn quantize(sum: u64) -> u64 {
    sum * 2 + 1
}

fn dequantize(enc: u64) -> u64 {
    (enc - 1) / 2
}

#[derive(Clone, Hash, PartialEq, Eq, Debug)]
struct TileState {
    mem: Mem,
    /// 0 compute, 1 store partial, 2 decrement, 3 reduce-read,
    /// 4 encode, 5 publish, 6 done.
    pc: [u8; N_RED],
    /// Reducer bookkeeping (at most one thread enters the drain).
    ridx: u8,
    sum: u64,
    stale_read: Option<(usize, u64)>,
    underflow: bool,
    published: bool,
}

impl NdModel for TileModel {
    type State = TileState;

    fn initial(&self) -> TileState {
        let mut init = vec![0u64; N_RED + 3];
        init[CTR as usize] = match self.bug {
            TileBug::OffByOneInit => N_RED as u64 - 1,
            _ => N_RED as u64,
        };
        TileState {
            mem: Mem::new(N_RED, &init),
            pc: [0; N_RED],
            ridx: 0,
            sum: 0,
            stale_read: None,
            underflow: false,
            published: false,
        }
    }

    fn n_threads(&self) -> usize {
        N_RED
    }

    fn steps(&self, s: &TileState, tid: usize) -> Steps<TileState> {
        match s.pc[tid] {
            0 => {
                let mut st = s.clone();
                st.pc[tid] = 1;
                Steps::Ready(vec![(Op::Local, st)])
            }
            1 => {
                let mut st = s.clone();
                st.mem = s.mem.store(tid, tid as Loc, partial_of(tid), MemOrd::Relaxed);
                st.pc[tid] = 2;
                Steps::Ready(vec![(Op::Write(tid as Loc), st)])
            }
            2 => {
                let ord = if self.bug == TileBug::RelaxedFetchSub {
                    MemOrd::Relaxed
                } else {
                    MemOrd::AcqRel
                };
                let (old, mem) = s.mem.rmw(tid, CTR, ord, |v| v.wrapping_sub(1));
                let mut st = s.clone();
                st.mem = mem;
                if old == 0 {
                    st.underflow = true;
                }
                st.pc[tid] = if old == 1 { 3 } else { 6 };
                Steps::Ready(vec![(Op::CasOk(CTR), st)])
            }
            3 => {
                let r = s.ridx as usize;
                Steps::Ready(
                    s.mem
                        .load(tid, r as Loc, MemOrd::Relaxed)
                        .into_iter()
                        .map(|(v, mem)| {
                            let mut st = s.clone();
                            st.mem = mem;
                            if v != partial_of(r) {
                                st.stale_read = Some((r, v));
                            }
                            st.sum = st.sum.wrapping_add(v);
                            st.ridx += 1;
                            if st.ridx as usize == N_RED {
                                st.pc[tid] = 4;
                            }
                            (Op::Read(r as Loc), st)
                        })
                        .collect(),
                )
            }
            4 => {
                let mut st = s.clone();
                st.mem = s.mem.store(tid, ENC, quantize(s.sum), MemOrd::Relaxed);
                st.pc[tid] = 5;
                Steps::Ready(vec![(Op::Write(ENC), st)])
            }
            5 => {
                let mut st = s.clone();
                st.mem = s.mem.store(tid, RED, dequantize(s.mem.peek(ENC)), MemOrd::Release);
                st.published = true;
                st.pc[tid] = 6;
                Steps::Ready(vec![(Op::Write(RED), st)])
            }
            _ => Steps::Done,
        }
    }

    fn invariant(&self, s: &TileState) -> Result<(), String> {
        if s.underflow {
            return Err("tile counter underflowed: the drain fired twice".into());
        }
        if let Some((w, v)) = s.stale_read {
            return Err(format!(
                "reduce_tile read a stale partial from worker {w}: {v} != {}",
                partial_of(w)
            ));
        }
        if s.pc.iter().all(|&pc| pc == 6) {
            if !s.published {
                return Err("every worker finished but the tile was never reduced".into());
            }
            let want: u64 = (0..N_RED).map(partial_of).sum();
            if s.mem.peek(RED) != want {
                return Err(format!(
                    "reduced tile holds {} but the partial sum is {want}",
                    s.mem.peek(RED)
                ));
            }
        }
        Ok(())
    }
}

#[test]
fn tile_drain_exhaustive_under_dpor() {
    let r = check_dpor(&TileModel { bug: TileBug::None }, DporOptions::default())
        .unwrap_or_else(|v| panic!("reduce_tile drain refuted: {v}"));
    assert!(r.complete);
    assert!(r.traces > 1, "decrement orders must fork the exploration ({r:?})");
}

#[test]
fn tile_relaxed_fetch_sub_mutant_refuted() {
    let m = TileModel { bug: TileBug::RelaxedFetchSub };
    let v = check_dpor(&m, DporOptions::default()).expect_err("relaxed drain must read stale");
    println!("relaxed-fetch_sub counterexample: {v}");
    match &v {
        NdVerdict::InvariantViolated { trace, state, reason, .. } => {
            assert!(reason.contains("stale partial"), "{reason}");
            let states = replay_nd(&m, trace);
            assert_eq!(states.last(), Some(state));
        }
        other => panic!("expected a stale-partial violation, got {other}"),
    }
}

#[test]
fn tile_off_by_one_counter_mutant_refuted() {
    let m = TileModel { bug: TileBug::OffByOneInit };
    let v = check_dpor(&m, DporOptions::default()).expect_err("short counter must fire early");
    println!("off-by-one-counter counterexample: {v}");
    match &v {
        NdVerdict::InvariantViolated { trace, state, reason, .. } => {
            assert!(reason.contains("stale partial") || reason.contains("underflow"), "{reason}");
            let states = replay_nd(&m, trace);
            assert_eq!(states.last(), Some(state));
        }
        other => panic!("expected a violation, got {other}"),
    }
}

// ---------------------------------------------------------------------
// Budgeted runs (the CI model-check job's explicit state budget)
// ---------------------------------------------------------------------

#[test]
fn preemption_bounded_fallback_still_refutes_every_mutant() {
    // Under a 2-preemption budget the search is not exhaustive, but
    // every seeded bug still needs at most two preemptions to surface —
    // the fallback mode CI can afford on bigger models.
    let opts = DporOptions { preemption_bound: Some(2), ..Default::default() };
    assert!(check_dpor(
        &QueueModel {
            threads: 3,
            chunks: 3,
            work_steps: 0,
            claims_per_thread: None,
            bug: QueueBug::TornCas
        },
        opts
    )
    .is_err());
    assert!(check_dpor(&pool(PoolBug::DroppedGenFence, None, 1), opts).is_err());
    assert!(check_dpor(&pool(PoolBug::NoBusyRule, None, 2), opts).is_err());
    assert!(check_dpor(&TileModel { bug: TileBug::RelaxedFetchSub }, opts).is_err());
}
