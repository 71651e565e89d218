//! The reproduction's benchmark.
//!
//! ```text
//! wn-perfbench --workload <fleet-tape|fleet-diverge|predict|serve|all>
//!              --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` sets the workload up several times (median into
//! `setup_s`), then runs it untraced for `--seconds` and prints the
//! end-to-end metrics. `--trace 1` runs the layer ledger instead: spans
//! around calls into each layer's public functions over the workload's
//! population, and prints the per-layer metrics. Either way the last
//! stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; earlier lines state
//! the workload's identity, its own named metrics and sample counts.
//! Output checks run inside the measurement; any failure makes the run
//! incorrect and the exit status 1. See `perfbench/README.md`.

mod fleet;
mod ledger;
mod populations;
mod predict;
mod serve;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use wn_core::prepared::{prepared_cache_stats, set_prepared_cache_capacity, PreparedRun};

/// Set-up rounds per untraced run; `setup_s` is their median.
pub const SETUP_ROUNDS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetTape,
    FleetDiverge,
    Predict,
    Serve,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::FleetTape,
        Workload::FleetDiverge,
        Workload::Predict,
        Workload::Serve,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetTape => "fleet-tape",
            Workload::FleetDiverge => "fleet-diverge",
            Workload::Predict => "predict",
            Workload::Serve => "serve",
        }
    }
}

pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Output checks. Every failure is counted and described on stderr.
#[derive(Default)]
pub struct Checks {
    pub run: u64,
    pub failed: u64,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {}", what());
        }
    }
}

/// One named metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

pub fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.to_string(), value, unit)
}

/// What an untraced run measured.
pub struct Measured {
    /// Operations attempted (setup and window) and those that errored.
    pub attempted: u64,
    pub failed_ops: u64,
    /// Devices whose fate the window delivered, per second.
    pub devices_per_s: f64,
    /// Latency of each operation in the window, ms.
    pub op_ms: Vec<f64>,
    /// Duration of each set-up round, s.
    pub setup_s: Vec<f64>,
    /// The workload's own named end-to-end metrics.
    pub named: Vec<Metric>,
    pub identity: Vec<(String, String)>,
}

/// Empties the process-wide compilation cache, so the next build of
/// every cohort compiles cold. Capacity 1 keeps one entry, which a build
/// no population uses then displaces.
pub fn evict_prepared_cache(round: u64) {
    let capacity = prepared_cache_stats().capacity;
    set_prepared_cache_capacity(1);
    let _ = PreparedRun::cached(
        wn_kernels::Benchmark::MatAdd,
        wn_kernels::Scale::Quick,
        u64::MAX - round,
        wn_compiler::Technique::Precise,
    );
    set_prepared_cache_capacity(capacity);
}

/// A scratch directory beside the benchmark executable (inside the
/// build directory, never the source tree), removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    fn create() -> Result<WorkDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating executable: {e}"))?;
        let dir = exe
            .parent()
            .ok_or("executable has no parent directory")?
            .join(format!("perfbench-work-{}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// FNV-1a over the library sources (`crates/**/*.rs` and manifests,
/// relative to the working directory): identifies the code measured
/// where no version-control metadata exists.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    if files.is_empty() {
        return "unknown".into();
    }
    files.sort();
    let mut h = stats::FNV_OFFSET;
    for f in &files {
        h = stats::fnv1a64(f.to_string_lossy().as_bytes(), h);
        h = stats::fnv1a64(&std::fs::read(f).unwrap_or_default(), h);
    }
    format!("{h:016x}")
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_json(metrics)
    );
}

fn identity_line(args: &Args, extra: &[(String, String)]) -> String {
    let mut fields = vec![
        ("workload".to_string(), json_str(args.workload.name())),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), json_num(args.seconds)),
        ("trace".to_string(), args.trace.to_string()),
        (
            "nproc".to_string(),
            std::thread::available_parallelism()
                .map_or(1, usize::from)
                .to_string(),
        ),
        ("commit".to_string(), json_str(&source_fingerprint())),
    ];
    fields.extend(extra.iter().map(|(k, v)| (k.clone(), json_str(v))));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"identity\": {{{}}}}}", body.join(", "))
}

fn run(args: &Args) -> Result<bool, String> {
    let work = WorkDir::create()?;
    if args.trace {
        let mut checks = Checks::default();
        let ledger = ledger::run(args, work.path(), &mut checks)?;
        println!("{}", identity_line(args, &ledger.identity));
        for line in &ledger.report {
            println!("{line}");
        }
        let correct = checks.failed == 0;
        print_result(correct, ledger.attempted, checks.failed, &ledger.metrics);
        return Ok(correct);
    }

    let mut checks = Checks::default();
    let mut m = match args.workload {
        Workload::FleetTape | Workload::FleetDiverge => fleet::run(args, &mut checks)?,
        Workload::Predict => predict::run(args, &mut checks)?,
        Workload::Serve => serve::run(args, work.path(), &mut checks)?,
    };
    let failed = m.failed_ops + checks.failed;
    let setup_s = stats::median(&m.setup_s);
    let peak_rss_mb = stats::peak_rss_mb();
    let failed_share = failed as f64 / m.attempted.max(1) as f64;

    println!("{}", identity_line(args, &m.identity));
    let mut named = std::mem::take(&mut m.named);
    named.push(metric("setup_s", setup_s, "s"));
    named.push(metric("peak_rss_mb", peak_rss_mb, "MiB"));
    named.push(metric("failed_share", failed_share, "share"));
    named.push(metric("checks_run", checks.run as f64, "count"));
    println!("{{\"named\": {}}}", metrics_json(&named));
    println!(
        "{{\"samples\": {{\"ops\": {}, \"beyond_p75\": {}, \"setup_rounds\": {}}}}}",
        m.op_ms.len(),
        stats::beyond(&m.op_ms, 0.75),
        m.setup_s.len()
    );

    let metrics = vec![
        metric("devices_per_s", m.devices_per_s, "1/s"),
        metric("op_ms_p50", stats::median(&m.op_ms), "ms"),
        metric("op_ms_p75", stats::quantile(&m.op_ms, 0.75), "ms"),
        metric("setup_s", setup_s, "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    let correct = failed == 0 && m.devices_per_s > 0.0 && !m.op_ms.is_empty();
    print_result(correct, m.attempted.max(1), failed, &metrics);
    Ok(correct)
}

/// `--workload all`: runs every workload in a process of its own, one
/// after another, so process-global caches never carry over between
/// them. Fails if any of them fails.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("wn-perfbench: locating executable: {e}");
            return ExitCode::from(1);
        }
    };
    let mut all_ok = true;
    for w in Workload::ALL {
        let args: Vec<&str> = argv
            .iter()
            .map(|a| if a == "all" { w.name() } else { a.as_str() })
            .collect();
        let ok = std::process::Command::new(&exe)
            .args(&args)
            .status()
            .is_ok_and(|s| s.success());
        all_ok &= ok;
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv
        .windows(2)
        .any(|w| w[0] == "--workload" && w[1] == "all")
    {
        return run_all(&argv);
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "wn-perfbench: {e}\nusage: wn-perfbench --workload <fleet-tape|fleet-diverge|predict|serve|all> \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    match run(&args) {
        Ok(true) => {
            eprintln!(
                "wn-perfbench: done in {:.1} s",
                started.elapsed().as_secs_f64()
            );
            ExitCode::SUCCESS
        }
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("wn-perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
