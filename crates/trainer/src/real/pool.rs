//! The workspace's one parallel runtime: a tiny persistent core pool.
//!
//! `CorePool::run(f)` fans a job out to `n` workers: the calling thread
//! participates as worker 0 and `n - 1` persistent helper threads run
//! the rest. Helpers park between jobs (`thread::park`, never a sleep
//! loop) and are woken by a generation-counter handshake, so a steady
//!-state `run` call performs **no heap allocation**: publish the job,
//! unpark, work, park. That is what lets a whole training step stay
//! inside the zero-allocation envelope the allocation-counter tests
//! prove, on any core count. [`CorePool::global`] is the process-wide
//! pool every fan-out outside the pipelined executor runs on.
//!
//! **Busy rule.** The job slot has one owner at a time. A `run` that
//! finds the pool running a job (another thread's, or a nested call
//! from inside a job) runs every lane inline, in lane order. Each lane
//! index still runs exactly once per job, so a lane-partitioned job
//! computes the same bits either way.
//!
//! The pool deliberately does *not* ship a scheduler: jobs receive only
//! their worker index. Work distribution (the stealing part) lives with
//! the caller — the pipeline executor hands each worker a [`RangeQueue`]
//! of task indices and lets idle workers steal from the tails of the
//! others.

use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, JoinHandle, Thread};

/// Raw job entry point: `(context, worker index)`.
type JobFn = unsafe fn(*const (), usize);

struct Shared {
    /// `JobFn` of the current job, stored as a word.
    job_fn: AtomicUsize,
    /// Context pointer of the current job, stored as a word.
    job_ctx: AtomicUsize,
    /// Bumped once per published job; helpers run when it advances.
    generation: AtomicU64,
    /// Helpers still working on the current job.
    remaining: AtomicUsize,
    /// Set when any worker panicked inside a job.
    panicked: AtomicBool,
    shutdown: AtomicBool,
    /// Held by the submitter that owns the job slot (the busy rule).
    busy: AtomicBool,
    /// The thread blocked in [`CorePool::run`], to unpark on completion.
    submitter: Mutex<Thread>,
}

fn lock_submitter(shared: &Shared) -> std::sync::MutexGuard<'_, Thread> {
    // A panicking worker poisons nothing here: the guarded value is a
    // plain `Thread` handle, always valid.
    match shared.submitter.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

/// Persistent worker pool; see the module docs.
pub struct CorePool {
    shared: Arc<Shared>,
    /// Handles of the helper threads, for unparking on publish.
    helpers: Vec<Thread>,
    joins: Vec<JoinHandle<()>>,
    workers: usize,
}

impl CorePool {
    /// Pool with `workers` total lanes (1 ⇒ everything runs inline on
    /// the calling thread; `n` ⇒ `n - 1` helper threads are spawned).
    pub fn new(workers: usize) -> Self {
        assert!(workers >= 1, "a pool needs at least one worker");
        let shared = Arc::new(Shared {
            job_fn: AtomicUsize::new(0),
            job_ctx: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            remaining: AtomicUsize::new(0),
            panicked: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            busy: AtomicBool::new(false),
            submitter: Mutex::new(thread::current()),
        });
        let mut joins = Vec::with_capacity(workers - 1);
        for idx in 1..workers {
            let sh = Arc::clone(&shared);
            let join = thread::Builder::new()
                .name(format!("core-pool-{idx}"))
                .spawn(move || helper_loop(&sh, idx))
                .expect("spawn core pool worker"); // lint: allow(unwrap): thread spawn failing at pool construction is unrecoverable
            joins.push(join);
        }
        let helpers = joins.iter().map(|j| j.thread().clone()).collect();
        CorePool { shared, helpers, joins, workers }
    }

    /// The process-wide pool, built on first use with one lane per
    /// available core. Its helpers live for the rest of the process.
    pub fn global() -> &'static CorePool {
        static GLOBAL: OnceLock<CorePool> = OnceLock::new();
        GLOBAL.get_or_init(|| CorePool::new(thread::available_parallelism().map_or(1, |n| n.get())))
    }

    /// Total worker lanes (helpers + the submitting thread).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run `f(worker_idx)` on every worker lane and wait for all of
    /// them. The borrow checker cannot see across the helper threads,
    /// so the safety contract is enforced by blocking: `f`'s borrows
    /// stay valid because `run` does not return until every helper has
    /// finished the job (the same discipline as scoped threads).
    ///
    /// A busy pool runs the lanes inline instead (the busy rule).
    /// Steady-state calls allocate nothing.
    // lint: hot-path
    pub fn run<F: Fn(usize) + Sync>(&self, f: &F) {
        unsafe fn trampoline<F: Fn(usize) + Sync>(ctx: *const (), idx: usize) {
            (*(ctx as *const F))(idx)
        }
        if self.workers == 1
            || self
                .shared
                .busy
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed) // lint: allow(relaxed): a failed claim touches no job state
                .is_err()
        {
            for idx in 0..self.workers {
                f(idx);
            }
            return;
        }
        // Released on every exit, unwinding included.
        let _owner = Owner(&self.shared.busy);
        *lock_submitter(&self.shared) = thread::current();
        self.shared.job_ctx.store(f as *const F as *const () as usize, Ordering::Release);
        self.shared.job_fn.store(trampoline::<F> as JobFn as usize, Ordering::Release);
        self.shared.remaining.store(self.workers - 1, Ordering::Release);
        self.shared.generation.fetch_add(1, Ordering::Release);
        for h in &self.helpers {
            h.unpark();
        }
        // Participate as worker 0. A panic here must still wait for the
        // helpers (their borrows of `f`'s context die with this frame).
        let mine = panic::catch_unwind(AssertUnwindSafe(|| f(0)));
        while self.shared.remaining.load(Ordering::Acquire) != 0 {
            thread::park();
        }
        let helper_panicked = self.shared.panicked.swap(false, Ordering::AcqRel);
        if let Err(payload) = mine {
            panic::resume_unwind(payload);
        }
        if helper_panicked {
            panic!("core pool worker panicked");
        }
    }
}

/// The items of a [`CorePool::for_each_mut`] job.
struct Items<T>(*mut T, usize);

// SAFETY: each item is borrowed by one lane only (see `for_each_mut`),
// and T: Send lets it cross to that lane's thread.
unsafe impl<T: Send> Sync for Items<T> {}

impl<T> Items<T> {
    /// # Safety
    /// `i < len`, and no other reference to item `i` is live.
    #[allow(clippy::mut_from_ref)]
    unsafe fn get(&self, i: usize) -> &mut T {
        &mut *self.0.add(i)
    }
}

impl CorePool {
    /// Run `f(i, &mut items[i])` for every item, item `i` on lane
    /// `i % workers()`. Allocates nothing.
    // lint: hot-path
    pub fn for_each_mut<T: Send, F: Fn(usize, &mut T) + Sync>(&self, items: &mut [T], f: &F) {
        let items = Items(items.as_mut_ptr(), items.len());
        self.run(&|lane| {
            for i in (lane..items.1).step_by(self.workers) {
                // SAFETY: each lane runs once per job and owns the
                // indices ≡ lane (mod workers); `run` blocks, so the
                // slice outlives the job.
                f(i, unsafe { items.get(i) });
            }
        });
    }
}

/// Clears the busy flag when the owning `run` returns or unwinds.
struct Owner<'a>(&'a AtomicBool);

impl Drop for Owner<'_> {
    fn drop(&mut self) {
        self.0.store(false, Ordering::Release);
    }
}

impl Drop for CorePool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        for h in &self.helpers {
            h.unpark();
        }
        for j in mem::take(&mut self.joins) {
            let _ = j.join();
        }
    }
}

fn helper_loop(shared: &Shared, idx: usize) {
    let mut seen = 0u64;
    loop {
        let gen = shared.generation.load(Ordering::Acquire);
        if gen == seen {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            thread::park();
            continue;
        }
        seen = gen;
        // SAFETY: `job_fn` was stored from a `JobFn` of the matching
        // monomorphization by `run`, which blocks until `remaining`
        // drains — the context outlives this call.
        let f: JobFn =
            unsafe { mem::transmute::<usize, JobFn>(shared.job_fn.load(Ordering::Acquire)) };
        let ctx = shared.job_ctx.load(Ordering::Acquire) as *const ();
        if panic::catch_unwind(AssertUnwindSafe(|| unsafe { f(ctx, idx) })).is_err() {
            shared.panicked.store(true, Ordering::Release);
        }
        if shared.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            lock_submitter(shared).unpark();
        }
    }
}

/// A contiguous block of task indices, packed `head:32 | end:32` into
/// one atomic word so owners and thieves race through plain CAS.
/// Owners take from the head, thieves from the tail; either way a
/// claimed index is claimed exactly once.
#[derive(Debug)]
pub struct RangeQueue(AtomicU64);

fn pack(head: u32, end: u32) -> u64 {
    (u64::from(head) << 32) | u64::from(end)
}

impl RangeQueue {
    pub fn empty() -> Self {
        RangeQueue(AtomicU64::new(0))
    }

    /// Reset to cover `start..end` (called between jobs, single-threaded).
    pub fn reset(&self, start: usize, end: usize) {
        debug_assert!(start <= end && end <= u32::MAX as usize);
        self.0.store(pack(start as u32, end as u32), Ordering::Release);
    }

    /// Claim the next index from the front (the owner's fast path).
    // lint: hot-path
    pub fn pop_front(&self) -> Option<usize> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (head, end) = ((cur >> 32) as u32, cur as u32);
            if head >= end {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(head + 1, end),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some(head as usize),
                Err(now) => cur = now,
            }
        }
    }

    /// Claim the last index from the back (the thief's entry point).
    // lint: hot-path
    pub fn steal_back(&self) -> Option<usize> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (head, end) = ((cur >> 32) as u32, cur as u32);
            if head >= end {
                return None;
            }
            match self.0.compare_exchange_weak(
                cur,
                pack(head, end - 1),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((end - 1) as usize),
                Err(now) => cur = now,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn inline_pool_runs_on_the_caller() {
        let pool = CorePool::new(1);
        let hits = AtomicU32::new(0);
        pool.run(&|idx| {
            assert_eq!(idx, 0);
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn every_worker_lane_runs_each_job() {
        let pool = CorePool::new(3);
        for _ in 0..50 {
            let mask = AtomicU32::new(0);
            pool.run(&|idx| {
                mask.fetch_or(1 << idx, Ordering::Relaxed);
            });
            assert_eq!(mask.load(Ordering::Relaxed), 0b111);
        }
    }

    #[test]
    fn borrowed_state_is_visible_after_run() {
        let pool = CorePool::new(2);
        let mut data = vec![0u64; 1000];
        let cells: Vec<AtomicU64> = (0..1000).map(|_| AtomicU64::new(0)).collect();
        pool.run(&|idx| {
            for (i, c) in cells.iter().enumerate() {
                if i % 2 == idx {
                    c.store(i as u64 + 1, Ordering::Relaxed);
                }
            }
        });
        for (d, c) in data.iter_mut().zip(&cells) {
            *d = c.load(Ordering::Relaxed);
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64 + 1));
    }

    #[test]
    fn worker_panic_propagates_to_the_submitter() {
        let pool = CorePool::new(2);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|idx| {
                if idx == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(caught.is_err(), "helper panic must surface");
        // The pool stays usable for the next job.
        let ok = AtomicU32::new(0);
        pool.run(&|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 2);
    }

    /// Runs one job that counts how often each lane index ran.
    fn lane_counts(pool: &CorePool) -> Vec<u32> {
        let hits: Vec<AtomicU32> = (0..pool.workers()).map(|_| AtomicU32::new(0)).collect();
        pool.run(&|idx| {
            hits[idx].fetch_add(1, Ordering::Relaxed);
        });
        hits.iter().map(|h| h.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn two_submitters_each_run_every_lane_once() {
        let pool = CorePool::new(3);
        thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..500 {
                        assert_eq!(lane_counts(&pool), [1, 1, 1]);
                    }
                });
            }
        });
    }

    #[test]
    fn nested_run_goes_inline_and_runs_every_lane_once() {
        let pool = CorePool::new(2);
        let inner: Vec<AtomicU32> = (0..4).map(|_| AtomicU32::new(0)).collect();
        let outer = AtomicU32::new(0);
        pool.run(&|outer_idx| {
            outer.fetch_add(1, Ordering::Relaxed);
            let me = thread::current().id();
            pool.run(&|idx| {
                assert_eq!(thread::current().id(), me, "a nested job runs on its caller");
                inner[2 * outer_idx + idx].fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(outer.load(Ordering::Relaxed), 2);
        assert!(inner.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn jobs_after_a_panic_still_reach_the_helpers() {
        let pool = CorePool::new(2);
        for panicking in [&[0][..], &[1], &[0, 1]] {
            let caught = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run(&|idx| assert!(!panicking.contains(&idx), "boom"));
            }));
            assert!(caught.is_err());
            let ran_on = Mutex::new(Vec::new());
            pool.run(&|idx| {
                if let Ok(mut v) = ran_on.lock() {
                    v.push((idx, thread::current().id()));
                }
            });
            let ran_on = ran_on.into_inner().unwrap_or_default();
            let me = thread::current().id();
            assert_eq!(ran_on.len(), 2);
            assert!(ran_on.iter().all(|&(idx, id)| (idx == 0) == (id == me)), "{ran_on:?}");
        }
    }

    #[test]
    fn for_each_mut_visits_every_item_once() {
        let pool = CorePool::new(3);
        let mut items = vec![0usize; 10];
        pool.for_each_mut(&mut items, &|i, x| *x += i + 1);
        assert_eq!(items, (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn range_queue_hands_out_each_index_once() {
        let q = RangeQueue::empty();
        q.reset(3, 11);
        let mut got = Vec::new();
        got.push(q.steal_back());
        while let Some(i) = q.pop_front() {
            got.push(Some(i));
        }
        assert_eq!(q.steal_back(), None);
        let mut idx: Vec<usize> = got.into_iter().flatten().collect();
        idx.sort_unstable();
        assert_eq!(idx, (3..11).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_owners_and_thieves_never_duplicate() {
        let q = RangeQueue::empty();
        q.reset(0, 4000);
        let claims: Vec<AtomicU32> = (0..4000).map(|_| AtomicU32::new(0)).collect();
        thread::scope(|s| {
            for t in 0..4 {
                let q = &q;
                let claims = &claims;
                s.spawn(move || loop {
                    let got = if t % 2 == 0 { q.pop_front() } else { q.steal_back() };
                    match got {
                        Some(i) => {
                            claims[i].fetch_add(1, Ordering::Relaxed);
                        }
                        None => break,
                    }
                });
            }
        });
        assert!(claims.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }
}
