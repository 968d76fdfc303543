//! Outside-only probes: a counting global allocator, `getrusage` /
//! `wait4` for CPU time and peak resident set, and child-process
//! supervision (own process group, bounded wait, reap-everything).
//! Linux only; the handful of libc calls are declared here because the
//! build has no registry access for the `libc` crate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::os::raw::{c_int, c_long};
use std::os::unix::process::CommandExt;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Counts every `alloc`/`realloc` on every thread of this process.
pub struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the only addition is a relaxed counter bump, which
// publishes no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

/// Allocation events so far, all threads.
pub fn alloc_events() -> u64 {
    ALLOC_EVENTS.load(Ordering::Relaxed)
}

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// Linux `struct rusage`.
#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, usage: *mut Rusage) -> c_int;
    fn kill(pid: c_int, sig: c_int) -> c_int;
}

const RUSAGE_SELF: c_int = 0;
const SIGKILL: c_int = 9;
const ESRCH: i32 = 3;

fn cpu_seconds(ru: &Rusage) -> f64 {
    let t = |tv: Timeval| tv.tv_sec as f64 + tv.tv_usec as f64 * 1e-6;
    t(ru.ru_utime) + t(ru.ru_stime)
}

/// User plus system CPU seconds of this process so far.
pub fn self_cpu_seconds() -> f64 {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    cpu_seconds(&ru)
}

/// How one supervised child ended.
#[derive(Debug, Clone)]
pub struct ChildRun {
    /// Spawn to reap, seconds.
    pub wall_s: f64,
    /// User + system CPU seconds of the child and every descendant it
    /// waited for, plus this process's own CPU over the same interval.
    pub cpu_s: f64,
    /// Largest resident set of the child or any descendant it waited
    /// for, MB (2^20 bytes).
    pub peak_rss_mb: f64,
    /// `Some(code)` on a normal exit, `None` when killed by a signal.
    pub exit_code: Option<i32>,
    /// Killed by the supervisor after `timeout`.
    pub timed_out: bool,
}

impl ChildRun {
    pub fn succeeded(&self) -> bool {
        self.exit_code == Some(0) && !self.timed_out
    }
}

/// Spawn `cmd` as the leader of a new process group, wait for it at
/// most `timeout`, and return its rusage. Whatever happens, every
/// process of the group is gone when this returns: a timed-out child is
/// SIGKILLed with its whole group, and a clean exit is followed by a
/// check that no descendant outlived it.
pub fn run_child(cmd: &mut Command, timeout: Duration) -> std::io::Result<ChildRun> {
    cmd.process_group(0);
    let cpu0 = self_cpu_seconds();
    let t0 = Instant::now();
    let child = cmd.spawn()?;
    let pid = child.id() as c_int;
    // `child` is reaped through wait4 below (its Drop neither waits nor
    // kills), so the rusage of exactly this process tree is captured.
    drop(child);
    let (tx, rx) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        let mut status: c_int = 0;
        let mut ru = Rusage::default();
        loop {
            // SAFETY: valid out-pointers; `pid` is our unreaped child.
            let rc = unsafe { wait4(pid, &mut status, 0, &mut ru) };
            if rc == pid {
                break;
            }
            let err = std::io::Error::last_os_error();
            if err.kind() != std::io::ErrorKind::Interrupted {
                let _ = tx.send(Err(err));
                return;
            }
        }
        let _ = tx.send(Ok((Instant::now(), status, ru)));
    });
    let (done, timed_out) = match rx.recv_timeout(timeout) {
        Ok(r) => (r, false),
        Err(_) => {
            kill_group(pid);
            (rx.recv().map_err(|_| std::io::Error::other("child waiter vanished"))?, true)
        }
    };
    waiter.join().map_err(|_| std::io::Error::other("child waiter panicked"))?;
    let (end, status, ru) = done?;
    reap_group(pid);
    let exit_code = ((status & 0x7f) == 0).then_some((status >> 8) & 0xff);
    Ok(ChildRun {
        wall_s: (end - t0).as_secs_f64(),
        cpu_s: cpu_seconds(&ru) + (self_cpu_seconds() - cpu0),
        peak_rss_mb: ru.ru_maxrss as f64 / 1024.0,
        exit_code,
        timed_out,
    })
}

fn kill_group(pgid: c_int) {
    // SAFETY: plain syscall; a negative pid addresses the group.
    unsafe { kill(-pgid, SIGKILL) };
}

fn group_alive(pgid: c_int) -> bool {
    // SAFETY: signal 0 only probes for existence.
    let rc = unsafe { kill(-pgid, 0) };
    rc == 0 || std::io::Error::last_os_error().raw_os_error() != Some(ESRCH)
}

/// Make sure no member of process group `pgid` survives: stragglers
/// (workers orphaned by a dead launcher) are SIGKILLed, then polled
/// until the kernel reports the group empty.
fn reap_group(pgid: c_int) {
    if !group_alive(pgid) {
        return;
    }
    kill_group(pgid);
    let deadline = Instant::now() + Duration::from_secs(10);
    while group_alive(pgid) && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
}
