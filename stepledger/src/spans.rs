//! Spans on both sides of the ledger.
//!
//! [`Recorder`] is the benchmark's own span log: one span around every
//! call it makes into a layer's public functions, each naming the span
//! that caused it, kept in memory and written out as a Chrome trace
//! when the run ends. [`attribute`] reads the spans the program records
//! itself (`TrainConfig::trace`, `dist_train --trace`) and splits each
//! step into compute, exchange and unattributed time.

use std::cell::RefCell;
use std::time::Instant;

use trace::chrome::{write_trace, ChromeEvent};
use trace::{COMM_CATS, COMPUTE_CATS};

use crate::stats::{self, Span};

struct Rec {
    name: &'static str,
    span: Span,
}

/// Single-threaded span log (the replay records from its driving
/// thread only; helper threads it starts are covered by the caller's
/// span).
pub struct Recorder {
    epoch: Instant,
    recs: RefCell<Vec<Rec>>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder { epoch: Instant::now(), recs: RefCell::new(Vec::with_capacity(1 << 16)) }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Open a span; close it with [`Recorder::end`].
    pub fn begin(&self, name: &'static str, parent: Option<u32>) -> u32 {
        let mut recs = self.recs.borrow_mut();
        let id = recs.len() as u32;
        let t = self.now_us();
        recs.push(Rec { name, span: Span { id, parent, start_us: t, end_us: f64::NAN } });
        id
    }

    pub fn end(&self, id: u32) {
        let t = self.now_us();
        self.recs.borrow_mut()[id as usize].span.end_us = t;
    }

    /// Run `f` inside a span named `name`; `f` gets the span id so it
    /// can parent spans of its own.
    pub fn span<R>(&self, name: &'static str, parent: Option<u32>, f: impl FnOnce(u32) -> R) -> R {
        let id = self.begin(name, parent);
        let r = f(id);
        self.end(id);
        r
    }

    /// Self times (µs) of every closed span named `name`, in record
    /// order.
    pub fn self_times_of(&self, name: &str) -> Vec<f64> {
        let recs = self.recs.borrow();
        let wanted: Vec<Span> = recs
            .iter()
            .filter(|r| r.name == name && r.span.end_us.is_finite())
            .map(|r| r.span)
            .collect();
        let ids: std::collections::HashSet<u32> = wanted.iter().map(|s| s.id).collect();
        // The wanted spans first, then their direct children: all that
        // their self times depend on.
        let mut subset = wanted.clone();
        subset.extend(
            recs.iter().filter(|r| r.span.parent.is_some_and(|p| ids.contains(&p))).map(|r| r.span),
        );
        let mut selfs = stats::self_times(&subset);
        selfs.truncate(wanted.len());
        selfs
    }

    /// Median self time (µs) of the spans named `name`.
    pub fn median_self_us(&self, name: &str) -> f64 {
        stats::median(&self.self_times_of(name))
    }

    /// The log as Chrome-trace JSON; `id`/`parent` ride in the args
    /// (`parent` is `u32::MAX` for a root span).
    pub fn to_chrome_json(&self) -> String {
        let recs = self.recs.borrow();
        let mut events = vec![trace::chrome::metadata_process_name(0, "stepledger replay")];
        for r in recs.iter().filter(|r| r.span.end_us.is_finite()) {
            let mut e = ChromeEvent::complete(
                r.name,
                r.name.split('.').next().unwrap_or(r.name),
                r.span.start_us,
                r.span.end_us - r.span.start_us,
                0,
                0,
            );
            e.args = vec![
                ("id", u64::from(r.span.id)),
                ("parent", u64::from(r.span.parent.unwrap_or(u32::MAX))),
            ];
            events.push(e);
        }
        write_trace(&events)
    }
}

/// Per-step attribution of a traced training run.
#[derive(Debug, Clone, Default)]
pub struct Attribution {
    /// Step periods, µs, pooled over every clock domain.
    pub periods_us: Vec<f64>,
    /// Mean per-step time covered by compute spans.
    pub compute_us: f64,
    /// Mean per-step time covered by exchange spans and not by compute.
    pub exchange_us: f64,
    /// Mean per-step time covered by neither.
    pub unattributed_us: f64,
}

/// The program's compute categories: the analyzer's, plus the socket
/// worker's fused `COMPUTE` span.
fn is_compute(cat: &str) -> bool {
    cat == "COMPUTE" || COMPUTE_CATS.contains(&cat)
}

/// Split every step of a traced run into compute, exchange and
/// unattributed time. A step is the interval between two consecutive
/// starts of the `marker` span on the lowest pid that records it.
/// `per_pid` keeps each pid in its own clock domain (one process per
/// rank, so clocks are not aligned across pids); otherwise all lanes
/// share one clock and one set of step windows.
pub fn attribute(events: &[ChromeEvent], marker: &str, per_pid: bool) -> Attribution {
    let spans: Vec<&ChromeEvent> =
        events.iter().filter(|e| e.ph == 'X' && e.dur_us >= 0.0).collect();
    let mut domains: Vec<Option<u32>> = if per_pid {
        let mut pids: Vec<u32> = spans.iter().filter(|e| e.name == marker).map(|e| e.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        pids.into_iter().map(Some).collect()
    } else {
        vec![None]
    };
    if domains.is_empty() {
        domains.push(None);
    }
    let mut out = Attribution::default();
    let (mut compute, mut exchange, mut unattributed) = (Vec::new(), Vec::new(), Vec::new());
    for dom in domains {
        let in_dom = |e: &&&ChromeEvent| dom.is_none_or(|p| e.pid == p);
        let marker_pid = match dom {
            Some(p) => Some(p),
            None => spans.iter().filter(|e| e.name == marker).map(|e| e.pid).min(),
        };
        let mut starts: Vec<f64> = spans
            .iter()
            .filter(in_dom)
            .filter(|e| e.name == marker && Some(e.pid) == marker_pid)
            .map(|e| e.ts_us)
            .collect();
        starts.sort_by(f64::total_cmp);
        let comp: Vec<(f64, f64)> = spans
            .iter()
            .filter(in_dom)
            .filter(|e| is_compute(&e.cat))
            .map(|e| (e.ts_us, e.ts_us + e.dur_us))
            .collect();
        let comm: Vec<(f64, f64)> = spans
            .iter()
            .filter(in_dom)
            .filter(|e| COMM_CATS.contains(&e.cat.as_str()))
            .map(|e| (e.ts_us, e.ts_us + e.dur_us))
            .collect();
        for w in starts.windows(2) {
            let (a, b) = (w[0], w[1]);
            let clip = |iv: &[(f64, f64)]| -> Vec<(f64, f64)> {
                iv.iter().map(|&(s, e)| (s.max(a), e.min(b))).filter(|&(s, e)| e > s).collect()
            };
            let c = clip(&comp);
            let x = clip(&comm);
            let c_len = stats::union_len(c.clone());
            let both = stats::union_len(c.into_iter().chain(x).collect());
            out.periods_us.push(b - a);
            compute.push(c_len);
            exchange.push(both - c_len);
            unattributed.push((b - a) - both);
        }
    }
    let mean =
        |v: &[f64]| if v.is_empty() { f64::NAN } else { v.iter().sum::<f64>() / v.len() as f64 };
    out.compute_us = mean(&compute);
    out.exchange_us = mean(&exchange);
    out.unattributed_us = mean(&unattributed);
    out
}

/// Share (%) of the pool lanes' time that sits idle during the
/// pipelined steps: per step, the window from the first pool span after
/// the previous optimizer apply to this step's apply, times the lane
/// count, against the busy union of each lane inside it.
pub fn pipeline_idle_pct(events: &[ChromeEvent], pool_pid: u32) -> f64 {
    let mut lanes: Vec<u32> =
        events.iter().filter(|e| e.ph == 'X' && e.pid == pool_pid).map(|e| e.tid).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let mut applies: Vec<(f64, f64)> = events
        .iter()
        .filter(|e| e.ph == 'X' && e.pid == pool_pid && e.name == "apply")
        .map(|e| (e.ts_us, e.ts_us + e.dur_us))
        .collect();
    applies.sort_by(|a, b| a.0.total_cmp(&b.0));
    let work: Vec<(u32, f64, f64)> = events
        .iter()
        .filter(|e| e.ph == 'X' && e.pid == pool_pid && e.name != "apply")
        .map(|e| (e.tid, e.ts_us, e.ts_us + e.dur_us))
        .collect();
    let (mut window_total, mut busy_total) = (0.0, 0.0);
    for w in applies.windows(2) {
        let (prev_end, this_start) = (w[0].1, w[1].0);
        let first = work
            .iter()
            .filter(|&&(_, s, _)| s >= prev_end && s < this_start)
            .map(|&(_, s, _)| s)
            .fold(f64::INFINITY, f64::min);
        if !first.is_finite() {
            continue;
        }
        window_total += (this_start - first) * lanes.len() as f64;
        for &lane in &lanes {
            busy_total += stats::union_len(
                work.iter()
                    .filter(|&&(t, _, _)| t == lane)
                    .map(|&(_, s, e)| (s.max(first), e.min(this_start)))
                    .collect(),
            );
        }
    }
    if window_total > 0.0 {
        100.0 * (1.0 - busy_total / window_total)
    } else {
        f64::NAN
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn x(name: &str, cat: &str, ts: f64, dur: f64, pid: u32, tid: u32) -> ChromeEvent {
        ChromeEvent::complete(name, cat, ts, dur, pid, tid)
    }

    #[test]
    fn attribution_splits_each_step_and_adds_up() {
        // Two ranks in separate clock domains; rank 1's clock is offset.
        let mut ev = Vec::new();
        for (pid, off) in [(0u32, 0.0), (1, 5_000.0)] {
            for s in 0..3 {
                let t = off + 100.0 * s as f64;
                ev.push(x("grad_compute", "COMPUTE", t, 50.0, pid, 0));
                ev.push(x("exchange", "MPI_ALLREDUCE", t + 50.0, 30.0, pid, 0));
            }
        }
        let a = attribute(&ev, "grad_compute", true);
        assert_eq!(a.periods_us, vec![100.0, 100.0, 100.0, 100.0]);
        assert_eq!(a.compute_us, 50.0);
        assert_eq!(a.exchange_us, 30.0);
        assert_eq!(a.unattributed_us, 20.0);
    }

    #[test]
    fn overlapping_exchange_counts_only_outside_compute() {
        let ev = vec![
            x("apply", "OPTIMIZER", 0.0, 10.0, 0, 0),
            x("tile", "MPI_ALLREDUCE", 5.0, 20.0, 1, 0),
            x("apply", "OPTIMIZER", 100.0, 10.0, 0, 0),
        ];
        let a = attribute(&ev, "apply", false);
        assert_eq!(a.periods_us, vec![100.0]);
        assert_eq!(a.compute_us, 10.0);
        assert_eq!(a.exchange_us, 15.0);
        assert_eq!(a.unattributed_us, 75.0);
    }

    #[test]
    fn idle_share_counts_lane_gaps_inside_the_pool_phase() {
        let ev = vec![
            x("apply", "OPTIMIZER", 0.0, 10.0, 900, 0),
            // Pool phase 20..100 on two lanes: lane 0 busy 80, lane 1 busy 40.
            x("forward", "FORWARD", 20.0, 80.0, 900, 0),
            x("backward", "BACKWARD", 20.0, 40.0, 900, 1),
            x("apply", "OPTIMIZER", 100.0, 10.0, 900, 0),
        ];
        assert!((pipeline_idle_pct(&ev, 900) - 25.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_self_time_excludes_child_spans() {
        let r = Recorder::new();
        r.span("outer", None, |id| {
            r.span("inner", Some(id), |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let outer = r.median_self_us("outer");
        let inner = r.median_self_us("inner");
        assert!(inner >= 2_000.0, "{inner}");
        assert!(outer < inner, "outer self {outer} vs inner {inner}");
        assert!(r.to_chrome_json().contains("\"parent\":0"));
    }
}
