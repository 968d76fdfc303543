//! Running the program: building `dist_train` from the checked-out
//! sources, one private directory per run, the supervised child
//! process, and the output checks every run must pass.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, SystemTime};

use trace::chrome::{parse_trace, ChromeEvent};
use trainer::real::net::SegNet;
use trainer::real::train::evaluate;
use trainer::real::TrainConfig;

use crate::probe::{self, ChildRun};
use crate::workloads::{Backend, Workload, MIOU_FLOOR};

/// Where runs keep their private directories and span files, relative
/// to the checkout root.
pub const WORK_DIR: &str = ".stepledger";

/// The two programs the ledger spawns.
pub struct Programs {
    pub dist_train: PathBuf,
    /// This binary, re-entered as the in-process trainer (`inproc`).
    pub inproc: PathBuf,
}

/// Build the release `dist_train` from the sources under `root` and
/// refuse it if it is older than any source file it was built from.
pub fn build_dist_train(root: &Path) -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .current_dir(root)
        .args(["build", "--release", "--offline", "-q", "-p", "trainer", "--bin", "dist_train"])
        .args(["--message-format", "json-render-diagnostics"])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!("building dist_train failed ({})", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let exe = stdout
        .lines()
        .filter(|l| l.contains("\"reason\":\"compiler-artifact\"") && l.contains("dist_train"))
        .find_map(|l| json_string_field(l, "executable"))
        .ok_or("cargo reported no dist_train executable")?;
    let exe = PathBuf::from(exe);
    check_fresh(root, &exe)?;
    Ok(exe)
}

/// The value of `"key":"..."` in one line of cargo's JSON output.
fn json_string_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')? + start;
    Some(line[start..end].replace("\\\\", "\\"))
}

/// The binary must be at least as new as every source file its dep-info
/// lists, and those must include this checkout's `dist_train.rs`.
fn check_fresh(root: &Path, exe: &Path) -> Result<(), String> {
    let mtime = |p: &Path| -> Result<SystemTime, String> {
        std::fs::metadata(p)
            .and_then(|m| m.modified())
            .map_err(|e| format!("stat {}: {e}", p.display()))
    };
    let built = mtime(exe)?;
    let dep_info = exe.with_extension("d");
    let text = std::fs::read_to_string(&dep_info)
        .map_err(|e| format!("reading {}: {e}", dep_info.display()))?;
    let first = text.lines().next().ok_or("empty dep-info")?;
    let (_, deps) = first.split_once(": ").ok_or("malformed dep-info")?;
    let own_src = root
        .join("crates/trainer/src/bin/dist_train.rs")
        .canonicalize()
        .map_err(|e| format!("dist_train source: {e}"))?;
    let mut saw_own = false;
    for dep in deps.split_whitespace() {
        let p = Path::new(dep);
        saw_own |= p.canonicalize().is_ok_and(|c| c == own_src);
        if mtime(p)? > built {
            return Err(format!("stale dist_train: {} is newer than the binary", p.display()));
        }
    }
    if !saw_own {
        return Err(format!("{} was not built from this checkout", exe.display()));
    }
    Ok(())
}

/// A fresh private directory for one run, removed on drop.
pub struct RunDir(PathBuf);

impl RunDir {
    pub fn new(root: &Path) -> std::io::Result<Self> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = root.join(WORK_DIR).join("runs").join(format!("{}-{n}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(RunDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// One training job: a workload at `world` replicas for `steps` steps.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    pub world: usize,
    pub steps: usize,
    pub traced: bool,
}

/// What a job produced, after its output checks.
pub struct Outcome {
    pub run: ChildRun,
    /// Check failures; empty when the run is correct.
    pub failures: Vec<String>,
    /// Mean training loss over the first `LOSS_STEPS` steps (averaged
    /// over ranks).
    pub loss_head: f64,
    /// Loss of the first step, and mean loss of the last `LOSS_STEPS`.
    pub loss_first: f64,
    pub loss_tail: f64,
    /// Final parameters (rank 0), as written.
    pub params: Vec<u8>,
    pub miou: f64,
    /// The program's own spans (traced jobs only).
    pub events: Vec<ChromeEvent>,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Longest any single child may run.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);

/// Run `job` of workload `w` as a child process in a fresh directory,
/// then check its outputs. A run longer than one step must also clear
/// the workload's mIoU floor, and its loss must have fallen.
pub fn run_job(
    root: &Path,
    progs: &Programs,
    w: &Workload,
    job: Job,
    seed: u64,
) -> Result<Outcome, String> {
    let dir = RunDir::new(root).map_err(|e| format!("run dir: {e}"))?;
    let d = dir.path();
    let cfg = w.config(job.world, job.steps, seed);
    let mut cmd = match w.backend {
        Backend::Socket => {
            let mut c = Command::new(&progs.dist_train);
            c.arg("launch");
            c.args(["--dir", &d.to_string_lossy()])
                .args(["--workers", &job.world.to_string()])
                .args(["--steps", &job.steps.to_string()])
                .args(["--seed", &seed.to_string()])
                .args(["--preset", w.preset]);
            if job.traced {
                c.arg("--trace");
            }
            c
        }
        Backend::InProcess { pipeline, codec, error_feedback } => {
            let mut c = Command::new(&progs.inproc);
            c.arg("inproc");
            c.args(["--dir", &d.to_string_lossy()])
                .args(["--preset", w.preset])
                .args(["--workers", &job.world.to_string()])
                .args(["--steps", &job.steps.to_string()])
                .args(["--seed", &seed.to_string()])
                .args(["--pipeline", if pipeline { "1" } else { "0" }])
                .args(["--codec", codec.name()])
                .args(["--ef", if error_feedback { "1" } else { "0" }])
                .args(["--trace", if job.traced { "1" } else { "0" }]);
            c
        }
    };
    let stderr = std::fs::File::create(d.join("stderr.log")).map_err(|e| e.to_string())?;
    cmd.stdin(Stdio::null()).stdout(Stdio::null()).stderr(stderr);
    let run = probe::run_child(&mut cmd, CHILD_TIMEOUT).map_err(|e| format!("spawn: {e}"))?;

    let mut out = Outcome {
        run,
        failures: Vec::new(),
        loss_head: f64::NAN,
        loss_first: f64::NAN,
        loss_tail: f64::NAN,
        params: Vec::new(),
        miou: f64::NAN,
        events: Vec::new(),
    };
    if !out.run.succeeded() {
        let log = std::fs::read_to_string(d.join("stderr.log")).unwrap_or_default();
        let tail: Vec<&str> = log.lines().rev().take(5).collect();
        out.failures.push(format!(
            "{} exited with {:?}{}: {}",
            w.name,
            out.run.exit_code,
            if out.run.timed_out { " (timed out)" } else { "" },
            tail.into_iter().rev().collect::<Vec<_>>().join(" | ")
        ));
        return Ok(out);
    }
    let checked = match w.backend {
        Backend::Socket => check_socket(d, &cfg, job),
        Backend::InProcess { .. } => check_inproc(d, &cfg, job),
    };
    match checked {
        Ok((losses, params, events)) => {
            out.loss_head = mean(&losses[..losses.len().min(LOSS_STEPS)]);
            out.loss_first = losses[0];
            out.loss_tail = mean(&losses[losses.len().saturating_sub(LOSS_STEPS)..]);
            out.params = params;
            out.events = events;
        }
        Err(e) => {
            out.failures.push(e);
            return Ok(out);
        }
    }
    out.miou = miou_of(&cfg, &out.params);
    if job.steps > 1 {
        if out.miou.is_nan() || out.miou < MIOU_FLOOR {
            out.failures
                .push(format!("final mIoU {:.4} is below the floor {MIOU_FLOOR}", out.miou));
        }
        if out.loss_tail >= out.loss_first {
            out.failures.push(format!(
                "loss did not fall: first step {:.4}, last steps {:.4}",
                out.loss_first, out.loss_tail
            ));
        }
    }
    Ok(out)
}

/// Per-step losses (averaged over ranks), rank-0 params, spans.
type Checked = (Vec<f64>, Vec<u8>, Vec<ChromeEvent>);

fn read(d: &Path, name: &str) -> Result<String, String> {
    std::fs::read_to_string(d.join(name)).map_err(|e| format!("reading {name}: {e}"))
}

fn read_bytes(d: &Path, name: &str) -> Result<Vec<u8>, String> {
    std::fs::read(d.join(name)).map_err(|e| format!("reading {name}: {e}"))
}

/// Every loss of a run: `steps` finite values.
fn check_losses(losses: &[f64], steps: usize, who: &str) -> Result<(), String> {
    if losses.len() != steps {
        return Err(format!("{who} reported {} losses for {steps} steps", losses.len()));
    }
    if let Some(i) = losses.iter().position(|l| !l.is_finite()) {
        return Err(format!("{who} loss at step {i} is {}", losses[i]));
    }
    Ok(())
}

fn check_params(params: &[u8], cfg: &TrainConfig, who: &str) -> Result<(), String> {
    if params.len() != 4 * cfg.net.n_params() {
        return Err(format!(
            "{who} wrote {} param bytes, want {}",
            params.len(),
            4 * cfg.net.n_params()
        ));
    }
    Ok(())
}

fn parse_events(d: &Path, name: &str) -> Result<Vec<ChromeEvent>, String> {
    parse_trace(&read(d, name)?).map_err(|e| format!("{name}: {e:?}"))
}

/// `dist_train` outputs: every rank survived with no degrades, every
/// rank's losses are finite, and every rank's params are byte-identical.
fn check_socket(d: &Path, cfg: &TrainConfig, job: Job) -> Result<Checked, String> {
    let summary = read(d, "summary.json")?;
    let survivors = json_array(&summary, "survivors").ok_or("summary.json has no survivors")?;
    let want: Vec<String> = (0..job.world).map(|r| r.to_string()).collect();
    if survivors != want {
        return Err(format!("survivors {survivors:?}, want every rank {want:?}"));
    }
    if !json_array(&summary, "degrades").is_some_and(|d| d.is_empty()) {
        return Err(format!("run degraded: {summary}"));
    }
    let params = read_bytes(d, "params_r0.bin")?;
    check_params(&params, cfg, "rank 0")?;
    let mut per_step = vec![0.0f64; job.steps];
    for r in 0..job.world {
        let who = format!("rank {r}");
        let result = read(d, &format!("result_r{r}.json"))?;
        let losses: Vec<f64> = json_array(&result, "losses")
            .ok_or(format!("{who} result has no losses"))?
            .iter()
            .map(|s| s.parse().map_err(|e| format!("{who} loss {s:?}: {e}")))
            .collect::<Result<_, _>>()?;
        check_losses(&losses, job.steps, &who)?;
        for (acc, l) in per_step.iter_mut().zip(&losses) {
            *acc += l / job.world as f64;
        }
        if r > 0 && read_bytes(d, &format!("params_r{r}.bin"))? != params {
            return Err(format!("{who} params differ from rank 0"));
        }
    }
    let events = if job.traced { parse_events(d, "trace_merged.json")? } else { Vec::new() };
    Ok((per_step, params, events))
}

/// The in-process trainer's outputs: finite losses and its params.
fn check_inproc(d: &Path, cfg: &TrainConfig, job: Job) -> Result<Checked, String> {
    let losses: Vec<f64> = read(d, "losses.txt")?
        .lines()
        .map(|s| s.parse().map_err(|e| format!("loss {s:?}: {e}")))
        .collect::<Result<_, _>>()?;
    check_losses(&losses, job.steps, "in-process run")?;
    let params = read_bytes(d, "params.bin")?;
    check_params(&params, cfg, "in-process run")?;
    let events = if job.traced { parse_events(d, "trace.json")? } else { Vec::new() };
    Ok((losses, params, events))
}

/// Leading steps the loss metric averages: early enough that every
/// seed is still on the same descent, so the mean moves with the
/// arithmetic and not with which minimum a seed falls into.
pub const LOSS_STEPS: usize = 10;

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Final mIoU of `params` on the held-out set, as `try_train` scores it.
pub fn miou_of(cfg: &TrainConfig, params: &[u8]) -> f64 {
    let flat: Vec<f32> =
        params.chunks_exact(4).map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])).collect();
    let mut net = SegNet::new(cfg.net, 0);
    net.set_params(&flat);
    evaluate(&net, &cfg.data, cfg.seed, cfg.eval_samples).miou()
}

/// The items of a flat JSON array `"key": [a, b, ...]` as trimmed
/// strings (enough for the launcher's own small outputs).
fn json_array(doc: &str, key: &str) -> Option<Vec<String>> {
    let pat = format!("\"{key}\":");
    let at = doc.find(&pat)? + pat.len();
    let open = doc[at..].find('[')? + at + 1;
    let close = doc[open..].find(']')? + open;
    Some(
        doc[open..close]
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect(),
    )
}

/// The in-process trainer behind `stepledger inproc`: run `try_train`
/// on the given config and write its losses, params and (when traced)
/// spans into `--dir`.
pub fn inproc_main(args: &[String]) -> Result<(), String> {
    let get = |k: &str| crate::flag(args, k);
    let num = |k: &str| crate::flag_num(args, k);
    let dir = PathBuf::from(get("--dir")?);
    let mut cfg = trainer::real::worker::preset(
        get("--preset")?,
        num("--workers")? as usize,
        num("--steps")? as usize,
        num("--seed")?,
    );
    cfg.pipeline = num("--pipeline")? == 1;
    cfg.codec = collectives::CodecKind::parse(get("--codec")?).ok_or("inproc: unknown codec")?;
    cfg.error_feedback = num("--ef")? == 1;
    let session = (num("--trace")? == 1).then(|| {
        // Room for every span of a long pipelined run (the default ring
        // keeps only the newest 4096 spans per lane).
        std::sync::Arc::new(trace::TraceSession {
            recorder: trace::TraceRecorder::with_capacity(1 << 18),
            registry: trace::Registry::default(),
        })
    });
    cfg.trace = session.clone();
    let result = trainer::real::try_train(&cfg).map_err(|e| format!("try_train: {e}"))?;
    let losses: String = result.step_losses.iter().map(|l| format!("{l:?}\n")).collect();
    std::fs::write(dir.join("losses.txt"), losses).map_err(|e| e.to_string())?;
    let bytes: Vec<u8> = result.final_params.iter().flat_map(|p| p.to_le_bytes()).collect();
    std::fs::write(dir.join("params.bin"), bytes).map_err(|e| e.to_string())?;
    if let Some(s) = session {
        std::fs::write(dir.join("trace.json"), s.recorder.to_chrome_json())
            .map_err(|e| e.to_string())?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_array_reads_launcher_outputs() {
        let doc = "{\n  \"workers\": 2,\n  \"survivors\": [0, 1],\n  \"degrades\": []\n}\n";
        assert_eq!(json_array(doc, "survivors"), Some(vec!["0".into(), "1".into()]));
        assert_eq!(json_array(doc, "degrades"), Some(vec![]));
        assert_eq!(json_array(doc, "missing"), None);
    }

    #[test]
    fn cargo_artifact_line_yields_the_executable() {
        let line = r#"{"reason":"compiler-artifact","executable":"/x/target/release/dist_train","fresh":true}"#;
        assert_eq!(
            json_string_field(line, "executable").as_deref(),
            Some("/x/target/release/dist_train")
        );
    }
}
