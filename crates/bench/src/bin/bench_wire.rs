//! BENCH_wire: gradient-codec accuracy vs wire bytes, tracked across
//! PRs in `BENCH_wire.json`.
//!
//! For every codec in [`collectives::compression`] this runs the *real*
//! data-parallel trainer (the `f8_miou` configuration: 4 workers, ring
//! allreduce, synthetic shapes segmentation) with the codec on the
//! gradient path — lossy codecs with error feedback — and records
//!
//! * wire/raw bytes from the trainer's own metrics registry (exact, per
//!   the codec wire format), and
//! * the accuracy cost: final mIoU delta and tail training loss vs the
//!   fp32 baseline.
//!
//! Run with:
//!
//! ```text
//! cargo run -p bench --bin bench_wire --release [-- --quick] [-- --check]
//! ```
//!
//! `--quick` shrinks the runs for CI smoke. `--check` fails (exit 1) if
//! any codec's measured wire-byte ratio fell below the committed
//! `BENCH_wire.json` baseline — the wire format is deterministic, so a
//! drop means someone broke an encoder. Accuracy is gated in-run: int8
//! must reach a ≥3.5x wire reduction at ≤0.5 pt of mIoU.

use std::sync::Arc;

use bench::json::{array_items, compact_json, extract_value, number_after, today_utc};
use bench::{header, SEED};
use collectives::{Algorithm, CodecKind};
use summit_metrics::Table;
use trace::TraceSession;
use trainer::real::{train, DataConfig, NetConfig, TrainConfig};

/// In-run accuracy gate for int8 (full mode): ≤ 0.5 pt of mIoU.
const INT8_MIOU_LIMIT: f64 = 0.005;
/// Quick runs are short and noisy; gate loosely, the committed baseline
/// carries the full-run numbers.
const QUICK_MIOU_LIMIT: f64 = 0.05;
/// Int8 must shrink the wire at least this much (acceptance floor).
const INT8_RATIO_FLOOR: f64 = 3.5;

struct CodecRun {
    codec: CodecKind,
    error_feedback: bool,
    wire_bytes: u64,
    raw_bytes: u64,
    miou: f64,
    miou_delta: f64,
    tail_loss: f64,
}

fn config(steps: usize, eval_samples: usize) -> TrainConfig {
    let data = DataConfig { noise: 0.86, ..DataConfig::default() };
    let net = NetConfig {
        height: data.height,
        width: data.width,
        cin: data.channels,
        n_classes: data.n_classes,
        ..NetConfig::default()
    };
    TrainConfig {
        data,
        net,
        workers: 4,
        batch_per_worker: 2,
        steps,
        base_lr: 0.4,
        lr_scale: 1.0,
        warmup_steps: 12,
        momentum: 0.9,
        weight_decay: 0.0,
        accumulation_steps: 1,
        algo: Algorithm::Ring,
        pipeline: false,
        codec: CodecKind::None,
        error_feedback: false,
        augment: false,
        eval_every: 0,
        eval_samples,
        seed: SEED,
        faults: None,
        checkpoint: None,
        trace: None,
    }
}

fn tail_loss(losses: &[f64]) -> f64 {
    let k = losses.len().clamp(1, 10);
    losses[losses.len() - k..].iter().sum::<f64>() / k as f64
}

/// The comm backend the measured run exercised. This bench drives the
/// in-process threaded trainer; entries measured over the socket
/// transport (a future `--backend socket` mode) must be distinguishable
/// in the tracker, so the schema carries the field from day one.
const BACKEND: &str = "thread";

/// Normalize one history entry to the current schema: entries written
/// before the `backend` field existed were all measured on the threaded
/// backend, so inject that explicitly (same idiom as `bench_step`'s
/// date/cores injection); returns whether the entry needed fixing.
fn normalize_history_entry(entry: &str) -> (String, bool) {
    let mut e = entry.trim().to_string();
    if !e.starts_with('{') || e.contains("\"backend\"") {
        return (e, false);
    }
    e.insert_str(1, "\"backend\":\"thread\",");
    (e, true)
}

fn run_codec(steps: usize, eval_samples: usize, codec: CodecKind, ef: bool) -> CodecRun {
    let mut cfg = config(steps, eval_samples);
    cfg.codec = codec;
    cfg.error_feedback = ef;
    let ts = Arc::new(TraceSession::new());
    cfg.trace = Some(ts.clone());
    let r = train(&cfg);
    let m = ts.registry.snapshot();
    let get = |name: &str| m.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v).unwrap_or(0);
    CodecRun {
        codec,
        error_feedback: ef,
        wire_bytes: get("train_wire_bytes_total"),
        raw_bytes: get("train_raw_bytes_total"),
        miou: r.final_miou,
        miou_delta: 0.0, // filled in once the fp32 baseline exists
        tail_loss: tail_loss(&r.step_losses),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let (steps, eval_samples) = if quick { (48, 32) } else { (160, 64) };

    header(
        "BENCH_wire",
        "gradient codecs end-to-end: wire bytes vs accuracy",
        "the compression trajectory across PRs, gated against wire-format regressions",
    );

    let previous = std::fs::read_to_string("BENCH_wire.json").ok();

    // Lossy codecs run with error feedback — that is the configuration
    // the convergence argument (DESIGN.md §5g) is made for.
    let plan: [(CodecKind, bool); 5] = [
        (CodecKind::None, false),
        (CodecKind::Fp16, false),
        (CodecKind::Int8, true),
        (CodecKind::Int4, true),
        (CodecKind::TopK, true),
    ];
    let mut runs: Vec<CodecRun> = Vec::new();
    for (codec, ef) in plan {
        println!("  running {codec}{} ...", if ef { "+ef" } else { "" });
        runs.push(run_codec(steps, eval_samples, codec, ef));
    }
    let base_miou = runs[0].miou;
    for r in runs.iter_mut() {
        r.miou_delta = r.miou - base_miou;
    }

    let mut t = Table::new(
        format!("4 workers, ring allreduce, {steps} steps"),
        &["codec", "wire ratio", "wire MB", "mIoU", "delta (pt)", "tail loss"],
    );
    for r in &runs {
        let ratio = r.raw_bytes as f64 / r.wire_bytes.max(1) as f64;
        t.row(&[
            format!("{}{}", r.codec, if r.error_feedback { "+ef" } else { "" }),
            format!("{ratio:.2}x"),
            format!("{:.2}", r.wire_bytes as f64 / 1e6),
            format!("{:.3}", r.miou),
            format!("{:+.2}", r.miou_delta * 100.0),
            format!("{:.4}", r.tail_loss),
        ]);
    }
    t.print();

    // --- in-run acceptance gates ------------------------------------
    let int8 = runs.iter().find(|r| r.codec == CodecKind::Int8).expect("int8 ran");
    let int8_ratio = int8.raw_bytes as f64 / int8.wire_bytes as f64;
    assert!(
        int8_ratio >= INT8_RATIO_FLOOR,
        "int8 wire reduction {int8_ratio:.2}x is below the {INT8_RATIO_FLOOR}x floor"
    );
    let limit = if quick { QUICK_MIOU_LIMIT } else { INT8_MIOU_LIMIT };
    assert!(
        int8.miou_delta.abs() <= limit,
        "int8+ef mIoU delta {:.4} exceeds the {limit} limit (fp32 {base_miou:.4}, int8 {:.4})",
        int8.miou_delta,
        int8.miou,
    );

    // --- fold history and write the tracker -------------------------
    // Every entry is normalized to the current schema on the way in:
    // pre-`backend` entries were all measured on the threaded backend.
    let mut history: Vec<String> = Vec::new();
    let mut normalized = 0usize;
    if let Some(prev) = &previous {
        if let Some(h) = extract_value(prev, "history") {
            for item in array_items(h) {
                let (fixed, did) = normalize_history_entry(item);
                history.push(fixed);
                if did {
                    normalized += 1;
                }
            }
        }
        if let Some(latest) = extract_value(prev, "latest") {
            let (fixed, did) = normalize_history_entry(&compact_json(latest));
            history.push(fixed);
            if did {
                normalized += 1;
            }
        }
    }
    if normalized > 0 {
        eprintln!(
            "  warning: normalized {normalized} pre-schema history entr{} (injected \
             backend=\"thread\" stub)",
            if normalized == 1 { "y" } else { "ies" }
        );
    }
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let codecs_json: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "      {{\"codec\": \"{}\", \"error_feedback\": {}, \"ratio\": {:.4}, \
                 \"wire_bytes\": {}, \"raw_bytes\": {}, \"miou\": {:.4}, \"miou_delta\": \
                 {:.4}, \"tail_loss\": {:.4}}}",
                r.codec,
                r.error_feedback,
                r.raw_bytes as f64 / r.wire_bytes.max(1) as f64,
                r.wire_bytes,
                r.raw_bytes,
                r.miou,
                r.miou_delta,
                r.tail_loss,
            )
        })
        .collect();
    let latest = format!(
        "{{\n    \"date\": \"{}\",\n    \"backend\": \"{BACKEND}\",\n    \"cores\": {cores},\n    \
         \"workers\": 4,\n    \"steps\": {steps},\n    \"codecs\": [\n{}\n    ]\n  }}",
        today_utc(),
        codecs_json.join(",\n"),
    );
    let history_json = if history.is_empty() {
        String::new()
    } else {
        format!("\n    {}\n  ", history.join(",\n    "))
    };
    let json = format!(
        "{{\n  \"bench\": \"BENCH_wire\",\n  \"latest\": {latest},\n  \"history\": \
         [{history_json}]\n}}\n"
    );
    std::fs::write("BENCH_wire.json", &json).expect("write BENCH_wire.json");
    println!("  wrote BENCH_wire.json ({} history entries)", history.len());

    // --- regression check against the committed baseline ------------
    if check {
        match &previous {
            Some(prev) => {
                let mut failed = false;
                for r in &runs {
                    let anchor = format!("\"{}\"", r.codec);
                    let Some(base_ratio) = number_after(prev, &anchor, "ratio") else {
                        eprintln!(
                            "  warning: no committed baseline for codec {}, skipped",
                            r.codec
                        );
                        continue;
                    };
                    let ratio = r.raw_bytes as f64 / r.wire_bytes.max(1) as f64;
                    // The wire format is deterministic: any drop means an
                    // encoder started emitting more bytes.
                    if ratio < base_ratio - 1e-3 {
                        eprintln!(
                            "  REGRESSION: {} wire ratio {ratio:.4} fell below the committed \
                             {base_ratio:.4}",
                            r.codec
                        );
                        failed = true;
                    } else {
                        println!(
                            "  ratio check {}: {ratio:.4} vs baseline {base_ratio:.4} ok",
                            r.codec
                        );
                    }
                }
                if failed {
                    std::process::exit(1);
                }
            }
            None => eprintln!(
                "  warning: regression check SKIPPED — no committed BENCH_wire.json baseline"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_loss_averages_the_last_ten() {
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        assert!((tail_loss(&xs) - 14.5).abs() < 1e-12);
        assert!((tail_loss(&[2.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn baseline_ratio_is_readable_back() {
        let src = "{\"latest\": {\"codecs\": [{\"codec\": \"int8\", \"ratio\": 3.9385}]}}";
        assert_eq!(number_after(src, "\"int8\"", "ratio"), Some(3.9385));
    }

    #[test]
    fn legacy_history_entries_get_a_thread_backend_stub() {
        let legacy = "{\"date\":\"2026-08-01\",\"cores\":8,\"codecs\":[]}";
        let (fixed, did) = normalize_history_entry(legacy);
        assert!(did);
        assert!(fixed.starts_with("{\"backend\":\"thread\","), "{fixed}");

        // Already-normalized entries pass through untouched.
        let (again, did2) = normalize_history_entry(&fixed);
        assert!(!did2);
        assert_eq!(again, fixed);
    }
}
