//! Step-time ledger for the real trainer.
//!
//! ```text
//! stepledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Untraced (`--trace 0`), it times the
//! workload end to end from outside the program: full-length and
//! one-step runs at the workload's world size and at one replica,
//! repeated until `--seconds` have passed, and prints images/s, set-up
//! time, CPU per image, peak RSS, mean training loss and scaling
//! efficiency. Traced (`--trace 1`), it replays every layer below a
//! step at the workload's shapes under its own spans, runs the workload
//! once with the program's tracing on and once without, checks the
//! result against the in-process trainer, and prints the per-layer
//! metrics and the ledger that reconciles them with the measured step.
//!
//! Every run's outputs are checked; the last line of stdout is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}` where
//! `attempted`/`failed` count training steps.

mod probe;
mod replay;
mod runs;
mod spans;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use runs::{run_job, Job, Outcome, Programs};
use workloads::{Backend, Workload, TRACE_STEPS, WORLD};

#[global_allocator]
static GLOBAL: probe::CountingAlloc = probe::CountingAlloc;

/// Named metrics in print order.
#[derive(Default)]
pub struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn to_json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}", json_num(*v)))
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// Full-precision JSON number; non-finite values (a layer that could not
/// be measured) become `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// Step accounting across every run of one invocation.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Tally {
    /// Count a job's steps; a job that failed any check counts all of
    /// them as failed.
    fn count(&mut self, steps: usize, failures: &[String]) {
        self.attempted += steps as u64;
        if !failures.is_empty() {
            self.failed += steps as u64;
            self.notes.extend(failures.iter().cloned());
        }
    }

    fn job(&mut self, o: &Outcome, steps: usize) {
        self.count(steps, &o.failures);
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

/// The value after `key` in `args`.
fn flag<'a>(args: &'a [String], key: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or(format!("{key} is required"))
}

fn flag_num(args: &[String], key: &str) -> Result<u64, String> {
    flag(args, key)?.parse().map_err(|e| format!("{key}: {e}"))
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let name = flag(args, "--workload")?;
    let workload = workloads::find(name).ok_or(format!(
        "unknown workload {name:?} (one of: {})",
        workloads::WORKLOADS.map(|w| w.name).join(", ")
    ))?;
    let num = |k: &str| flag_num(args, k);
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args { workload, seed: num("--seed")?, seconds: num("--seconds")?.max(1), trace })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("inproc") {
        if let Err(e) = runs::inproc_main(&args[1..]) {
            eprintln!("{e}");
            std::process::exit(1);
        }
        return;
    }
    let parsed = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "stepledger: {e}\nusage: stepledger --workload W --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match bench(&parsed) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("stepledger: {e}");
            std::process::exit(1);
        }
    }
}

fn bench(a: &Args) -> Result<String, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates/trainer/src/bin/dist_train.rs").is_file() {
        return Err("run from the repository root (crates/trainer not found)".into());
    }
    let progs = Programs {
        dist_train: runs::build_dist_train(&root)?,
        inproc: std::env::current_exe().map_err(|e| e.to_string())?,
    };
    let mut tally = Tally::default();
    let mut m = Metrics::default();
    if a.trace {
        traced(&root, &progs, a, &mut m, &mut tally)?;
    } else {
        end_to_end(&root, &progs, a, &mut m, &mut tally)?;
    }
    for n in &tally.notes {
        eprintln!("stepledger: check failed: {n}");
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.notes.is_empty(),
        tally.attempted,
        tally.failed,
        m.to_json()
    ))
}

/// One-step runs per round (their median is the round's set-up sample).
const ONE_STEP_RUNS: usize = 3;
/// Training seeds derived from `--seed`, one per round in turn: timing
/// does not depend on the data, and the loss metric averages over all
/// of them, which keeps it steady from one `--seed` to the next.
const LOSS_SEEDS: usize = 8;
/// Rounds per untraced run, at least (every derived seed once) and at
/// most.
const MIN_ROUNDS: usize = LOSS_SEEDS;
const MAX_ROUNDS: usize = 50;

/// The `i`-th training seed derived from the benchmark seed.
fn derived_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(LOSS_SEEDS as u64).wrapping_add(i as u64)
}

/// Per-step and fixed cost of a job, from a full-length run and the
/// median of one-step runs of the same job.
struct Timed {
    images_per_s: f64,
    setup_s: f64,
    cpu_ms_per_image: f64,
}

fn timed(w: &Workload, world: usize, full: &Outcome, ones: &[Outcome]) -> Timed {
    let images = w.images_per_step(world) as f64;
    let one_wall = stats::median(&ones.iter().map(|o| o.run.wall_s).collect::<Vec<_>>());
    let one_cpu = stats::median(&ones.iter().map(|o| o.run.cpu_s).collect::<Vec<_>>());
    let wall = stats::split_full_vs_one(full.run.wall_s, one_wall, w.steps);
    let cpu = stats::split_full_vs_one(full.run.cpu_s, one_cpu, w.steps);
    Timed {
        images_per_s: images / wall.per_step,
        setup_s: wall.fixed,
        cpu_ms_per_image: 1e3 * cpu.per_step / images,
    }
}

/// A full-length run plus `ONE_STEP_RUNS` one-step runs at `world`.
fn job_set(
    root: &Path,
    progs: &Programs,
    w: &Workload,
    world: usize,
    seed: u64,
    tally: &mut Tally,
) -> Result<(Outcome, Vec<Outcome>), String> {
    let full = run_job(root, progs, w, Job { world, steps: w.steps, traced: false }, seed)?;
    tally.job(&full, w.steps);
    let mut ones = Vec::with_capacity(ONE_STEP_RUNS);
    for _ in 0..ONE_STEP_RUNS {
        let o = run_job(root, progs, w, Job { world, steps: 1, traced: false }, seed)?;
        tally.job(&o, 1);
        ones.push(o);
    }
    Ok((full, ones))
}

fn end_to_end(
    root: &Path,
    progs: &Programs,
    a: &Args,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let w = &a.workload;
    let t0 = Instant::now();
    let budget = Duration::from_secs(a.seconds);
    let (mut ips, mut setup, mut cpu, mut rss, mut eff) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Per derived seed, the first clean round: what every repeat must
    // reproduce.
    struct SeedRef {
        params: Vec<u8>,
        params_one: Vec<u8>,
        loss_head: f64,
    }
    let mut reference: Vec<Option<SeedRef>> = (0..LOSS_SEEDS).map(|_| None).collect();
    let mut mious = Vec::new();
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || (t0.elapsed() < budget && rounds < MAX_ROUNDS) {
        let i = rounds % LOSS_SEEDS;
        let seed = derived_seed(a.seed, i);
        let (full, ones) = job_set(root, progs, w, WORLD, seed, tally)?;
        let (full1, ones1) = job_set(root, progs, w, 1, seed, tally)?;
        rounds += 1;
        if !(full.ok() && full1.ok() && ones.iter().chain(&ones1).all(Outcome::ok)) {
            continue;
        }
        // Same seed, same bits: every repeat must reproduce the first.
        match &reference[i] {
            None => {
                reference[i] = Some(SeedRef {
                    params: full.params.clone(),
                    params_one: full1.params.clone(),
                    loss_head: full.loss_head,
                });
                mious.push(full.miou);
            }
            Some(r) => {
                if r.params != full.params
                    || r.params_one != full1.params
                    || r.loss_head.to_bits() != full.loss_head.to_bits()
                {
                    tally.count(
                        w.steps,
                        &[format!("seed {seed} did not reproduce bit-identically")],
                    );
                    continue;
                }
            }
        }
        let at_world = timed(w, WORLD, &full, &ones);
        let at_one = timed(w, 1, &full1, &ones1);
        ips.push(at_world.images_per_s);
        setup.push(at_world.setup_s);
        cpu.push(at_world.cpu_ms_per_image);
        rss.push(full.run.peak_rss_mb);
        eff.push(at_world.images_per_s / (WORLD as f64 * at_one.images_per_s));
    }
    eprintln!(
        "stepledger: {rounds} rounds of {} in {:.1} s, final mIoU per seed {mious:.4?}",
        w.name,
        t0.elapsed().as_secs_f64()
    );
    eprintln!("stepledger: per round: images/s {ips:.0?}, cpu ms/image {cpu:.4?}");
    let losses: Vec<f64> =
        reference.iter().map(|r| r.as_ref().map_or(f64::NAN, |r| r.loss_head)).collect();
    // Throughput and CPU cost come from the faster rounds: on a shared
    // host, interference (other tenants, hypervisor steal) only ever
    // slows a round, and whole runs of rounds at a time, which the
    // median does not survive but the fastest quartile does.
    m.push("images_per_s", stats::percentile(&ips, 75.0), "img/s");
    m.push("setup_s", stats::median(&setup), "s");
    m.push("cpu_ms_per_image", stats::percentile(&cpu, 25.0), "ms");
    m.push("peak_rss_mb", stats::median(&rss), "MB");
    m.push("train_loss_mean", runs::mean(&losses), "nats");
    m.push("scaling_eff", stats::median(&eff), "ratio");
    Ok(())
}

/// Steps of the short in-process run the allocation count is split
/// against.
const ALLOC_SHORT_STEPS: usize = 201;

fn traced(
    root: &Path,
    progs: &Programs,
    a: &Args,
    m: &mut Metrics,
    tally: &mut Tally,
) -> Result<(), String> {
    let w = &a.workload;
    let rec = spans::Recorder::new();
    let seed = derived_seed(a.seed, 0);
    let shape = w.config(WORLD, TRACE_STEPS, seed);
    let costs = replay::run(&rec, &shape, m);

    // The program's own tracing: the same job traced and untraced.
    let run_id = rec.begin("program", None);
    let steps = TRACE_STEPS;
    let mut measure = |traced: bool| -> Result<(Outcome, f64), String> {
        let full = run_job(root, progs, w, Job { world: WORLD, steps, traced }, seed)?;
        tally.job(&full, steps);
        let one = run_job(root, progs, w, Job { world: WORLD, steps: 1, traced }, seed)?;
        tally.job(&one, 1);
        let split = stats::split_full_vs_one(full.run.wall_s, one.run.wall_s, steps);
        Ok((full, split.per_step))
    };
    let (plain, plain_step_s) = rec.span("program.untraced", Some(run_id), |_| measure(false))?;
    let (traced_run, traced_step_s) =
        rec.span("program.traced", Some(run_id), |_| measure(true))?;
    rec.end(run_id);

    let (marker, per_pid) = match w.backend {
        Backend::Socket => ("grad_compute", true),
        Backend::InProcess { pipeline: true, .. } => ("apply", false),
        Backend::InProcess { pipeline: false, .. } => ("forward+backward", false),
    };
    let att = spans::attribute(&traced_run.events, marker, per_pid);
    let samples = att.periods_us.len();
    if traced_run.ok() && stats::tail_percentile(samples).is_none_or(|p| p < 99.0) {
        tally.count(0, &[format!("{samples} step periods are too few for a p99")]);
    }
    m.push("worker.compute_us", att.compute_us, "us");
    m.push("worker.exchange_us", att.exchange_us, "us");
    m.push("worker.unattributed_us", att.unattributed_us, "us");
    m.push("step.p50_us", stats::percentile(&att.periods_us, 50.0), "us");
    m.push("step.p99_us", stats::percentile(&att.periods_us, 99.0), "us");
    m.push("step.samples", samples as f64, "count");
    // Tracing must not change the math.
    if traced_run.ok() && plain.ok() && traced_run.params != plain.params {
        tally.count(0, &["traced run params differ from the untraced run".into()]);
    }
    m.push("trace.overhead_pct", 100.0 * (traced_step_s - plain_step_s) / plain_step_s, "%");

    // The in-process classic twin, in this process: allocations per
    // step (split by run length) and, for socket workloads, parity.
    let twin = |steps: usize| -> Result<(u64, Vec<u8>), String> {
        let cfg = w.config(WORLD, steps, seed);
        let before = probe::alloc_events();
        let r = trainer::real::try_train(&cfg).map_err(|e| format!("in-process twin: {e}"))?;
        let allocs = probe::alloc_events() - before;
        Ok((allocs, r.final_params.iter().flat_map(|p| p.to_le_bytes()).collect()))
    };
    let (short_allocs, _) = rec.span("twin.short", None, |_| twin(ALLOC_SHORT_STEPS))?;
    let (long_allocs, twin_params) = rec.span("twin.long", None, |_| twin(steps))?;
    tally.count(steps + ALLOC_SHORT_STEPS, &[]);
    let per_step = (long_allocs as f64 - short_allocs as f64) / (steps - ALLOC_SHORT_STEPS) as f64;
    m.push("alloc.per_step", per_step, "count");
    if plain.ok() && twin_params != plain.params {
        let what = if w.is_socket() { "socket run" } else { "child process run" };
        tally.count(steps, &[format!("{what} params differ from in-process try_train")]);
    }

    // The ledger: replay self times along one step's blocking path.
    let compute = shape.batch_per_worker as f64 * costs.generate_us_per_image + costs.loss_grad_us;
    let predicted = match w.backend {
        // Per rank: compute, the wire codec, the socket collective, the
        // update, and one control round trip for the commit vote.
        Backend::Socket => {
            compute
                + costs.codec_us
                + costs.peer_socket_us
                + costs.sgd_us
                + 2.0 * costs.socket_alpha_us
        }
        // Replicas compute and update in parallel; the codec runs
        // serially per replica; then the threaded allreduce.
        Backend::InProcess { pipeline: false, .. } => {
            compute + WORLD as f64 * costs.codec_us + costs.elastic_us + costs.sgd_us
        }
        // Shards are generated serially, then the pipelined step.
        Backend::InProcess { pipeline: true, .. } => {
            w.images_per_step(WORLD) as f64 * costs.generate_us_per_image + costs.pipeline_step_us
        }
    };
    let measured_us = plain_step_s * 1e6;
    m.push("ledger.predicted_step_us", predicted, "us");
    m.push("ledger.measured_step_us", measured_us, "us");
    m.push("ledger.gap_pct", stats::gap_pct(measured_us, predicted), "%");

    let out = write_spans(root, w, a.seed, &rec, &traced_run)?;
    eprintln!("stepledger: spans written to {}", out.display());
    Ok(())
}

/// Write the replay's spans and the program's own trace next to each
/// other under the work directory; returns the replay span file.
fn write_spans(
    root: &Path,
    w: &Workload,
    seed: u64,
    rec: &spans::Recorder,
    program: &Outcome,
) -> Result<PathBuf, String> {
    let dir = root.join(runs::WORK_DIR).join("trace");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let spans = dir.join(format!("{}-seed{seed}-replay.json", w.name));
    std::fs::write(&spans, rec.to_chrome_json()).map_err(|e| e.to_string())?;
    let prog = dir.join(format!("{}-seed{seed}-program.json", w.name));
    std::fs::write(&prog, trace::chrome::write_trace(&program.events))
        .map_err(|e| e.to_string())?;
    Ok(spans)
}
