//! The allocation probe behind the zero-allocation proofs: a counting
//! global allocator that counts `alloc`/`realloc` on **every** thread
//! (pool helpers and socket readers included), a process-wide guard a
//! measuring test holds for its whole body (libtest runs sibling tests
//! concurrently, and they must not allocate into its window), and
//! [`Exclusive::count_allocs`], the fewest events over three runs of a
//! region (what the region allocates recurs every run; one-time noise
//! such as libtest's harness thread parking for the first time does
//! not).
//!
//! ```
//! #[global_allocator]
//! static GLOBAL: alloc_probe::CountingAlloc = alloc_probe::CountingAlloc;
//!
//! fn main() {
//!     let probe = alloc_probe::exclusive();
//!     assert_eq!(probe.count_allocs(|| drop(Box::new(7u8))), 1);
//! }
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Counting wrapper over [`System`]; see the crate docs.
pub struct CountingAlloc;

static EVENTS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        EVENTS.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed): a monotonic event counter; readers only difference two loads
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        EVENTS.fetch_add(1, Ordering::Relaxed); // lint: allow(relaxed): a monotonic event counter; readers only difference two loads
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation events (`alloc` + `realloc`) on every thread since the
/// process started. Counts only when [`CountingAlloc`] is installed.
pub fn events() -> usize {
    EVENTS.load(Ordering::Relaxed) // lint: allow(relaxed): a monotonic event counter; readers only difference two loads
}

static MEASURING: Mutex<()> = Mutex::new(());

/// Proof that the caller owns the process's measurement window.
pub struct Exclusive {
    _window: MutexGuard<'static, ()>,
}

/// Own the process's measurement window until the guard drops (a
/// panicked measurement does not poison it for the others).
pub fn exclusive() -> Exclusive {
    Exclusive { _window: MEASURING.lock().unwrap_or_else(PoisonError::into_inner) }
}

impl Exclusive {
    /// The fewest allocation events one of three runs of `f` triggered.
    pub fn count_allocs(&self, mut f: impl FnMut()) -> usize {
        (0..3)
            .map(|_| {
                let before = events();
                f();
                events() - before
            })
            .min()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[global_allocator]
    static GLOBAL: CountingAlloc = CountingAlloc;

    #[test]
    fn counts_allocations_on_every_thread() {
        let probe = exclusive();
        assert_eq!(probe.count_allocs(|| {}), 0);
        assert_eq!(probe.count_allocs(|| drop(std::hint::black_box(Box::new(1u64)))), 1);

        // One allocation per wakeup, made on another, already running
        // thread: the caller itself allocates nothing in the region.
        let go = AtomicBool::new(false);
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let helper = s.spawn(|| {
                for _ in 0..3 {
                    while !go.swap(false, Ordering::Acquire) {
                        std::thread::park();
                    }
                    drop(std::hint::black_box(Box::new(2u64)));
                    done.store(true, Ordering::Release);
                }
            });
            let n = probe.count_allocs(|| {
                go.store(true, Ordering::Release);
                helper.thread().unpark();
                while !done.swap(false, Ordering::Acquire) {
                    std::hint::spin_loop();
                }
            });
            assert_eq!(n, 1, "the helper thread's allocation must count");
        });
    }
}
