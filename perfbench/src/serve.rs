//! The `serve` workload: an in-process `wn_serve` daemon at fleet width
//! 1, driven by a closed loop of two clients.
//!
//! Each submission uses one connection: connect, submit, watch until
//! `done`, fetch the report. About a quarter of submissions resubmit a
//! scenario that already finished (the store's read path); the rest are
//! fresh 24-device scenarios (journal, queue, per-shard checkpoints,
//! report publish). The operation timed by `op_ms_*` is a fresh
//! submission, connect to report bytes in hand.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use wn_fleet::{run_fleet, FleetEngine, FleetOptions, FleetScenario};
use wn_serve::{server, Client, JobState, ServeConfig, ServerHandle};

use crate::populations::{scenario_seed, serve_job};
use crate::stats::mix;
use crate::{evict_prepared_cache, metric, stats, Args, Checks, Measured, SETUP_ROUNDS};

pub const SERVE_SALT: u64 = 3;
const CLIENTS: u64 = 2;

/// Starts a daemon at fleet width 1 over `data_dir`.
pub fn start_daemon(data_dir: &Path) -> Result<ServerHandle, String> {
    let config = ServeConfig {
        jobs: Some(1),
        ..ServeConfig::new(data_dir.to_path_buf())
    };
    server::start(&config).map_err(|e| format!("starting daemon: {e}"))
}

/// One submission on its own connection: connect, submit, watch until
/// done, fetch. Returns the fingerprint and the report bytes.
pub fn submit(addr: &str, text: &str) -> Result<(u64, String), String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let (fingerprint, state) = client.submit(text).map_err(|e| format!("submit: {e}"))?;
    if state != JobState::Done {
        client
            .watch(fingerprint, |_| {})
            .map_err(|e| format!("watch: {e}"))?;
    }
    let report = client
        .report(fingerprint)
        .map_err(|e| format!("report: {e}"))?
        .ok_or_else(|| format!("job {fingerprint:016x} done but its report is missing"))?;
    Ok((fingerprint, report))
}

/// In-process reference for a served report.
pub fn reference_report(text: &str) -> Result<String, String> {
    let scenario = FleetScenario::parse(text).map_err(|e| format!("scenario: {e}"))?;
    let options = FleetOptions {
        jobs: Some(1),
        ..FleetOptions::default()
    };
    run_fleet(&scenario, &options)
        .map_err(|e| format!("in-process run: {e}"))?
        .report()
        .map(|r| r.to_json())
        .ok_or_else(|| "in-process run paused".to_string())
}

struct Fresh {
    text: String,
    fingerprint: u64,
    report: String,
}

struct Resubmitted {
    of: usize,
    report: String,
}

pub fn run(args: &Args, work: &Path, checks: &mut Checks) -> Result<Measured, String> {
    let warmup = serve_job(scenario_seed(args.seed, SERVE_SALT, 0));
    let mut attempted = 0u64;

    // Set-up: start a daemon over an empty store and finish one job on
    // it with every cohort compiled cold. The last round's daemon serves
    // the window.
    let mut setup_s = Vec::with_capacity(SETUP_ROUNDS);
    let mut warm_reports = Vec::new();
    let mut daemon = None;
    for round in 0..SETUP_ROUNDS {
        let start = Instant::now();
        evict_prepared_cache(round as u64);
        let handle = start_daemon(&work.join(format!("serve-{round}")))?;
        let addr = handle.local_addr().to_string();
        Client::connect(&addr)
            .and_then(|mut c| c.ping())
            .map_err(|e| format!("ping: {e}"))?;
        let (_, report) = submit(&addr, &warmup)?;
        setup_s.push(start.elapsed().as_secs_f64());
        attempted += 1;
        warm_reports.push(report);
        if let Some(previous) = daemon.replace(handle) {
            previous.shutdown();
            previous.join();
        }
    }
    let daemon = daemon.expect("at least one set-up round");
    let addr = daemon.local_addr().to_string();

    let fresh: Mutex<Vec<Fresh>> = Mutex::new(Vec::new());
    let fresh_ms: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let resubmitted: Mutex<Vec<Resubmitted>> = Mutex::new(Vec::new());
    let resubmit_ms: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let next_job = AtomicU64::new(1);
    let submissions = AtomicU64::new(0);
    let failures = AtomicU64::new(0);

    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (fresh, fresh_ms, resubmitted, resubmit_ms) =
                (&fresh, &fresh_ms, &resubmitted, &resubmit_ms);
            let (next_job, submissions, failures, addr) =
                (&next_job, &submissions, &failures, &addr);
            scope.spawn(move || {
                let mut rng = mix(args.seed ^ mix(client + 101));
                while Instant::now() < deadline {
                    rng = mix(rng);
                    let finished = fresh.lock().expect("results lock").len();
                    let resubmit = rng.is_multiple_of(4) && finished > 0;
                    let (text, of) = if resubmit {
                        let of = (rng / 4 % finished as u64) as usize;
                        (fresh.lock().expect("results lock")[of].text.clone(), of)
                    } else {
                        let k = next_job.fetch_add(1, Ordering::Relaxed);
                        (serve_job(scenario_seed(args.seed, SERVE_SALT, k)), 0)
                    };
                    submissions.fetch_add(1, Ordering::Relaxed);
                    let t0 = Instant::now();
                    match submit(addr, &text) {
                        Ok((fingerprint, report)) => {
                            let ms = t0.elapsed().as_secs_f64() * 1e3;
                            if resubmit {
                                resubmit_ms.lock().expect("results lock").push(ms);
                                resubmitted
                                    .lock()
                                    .expect("results lock")
                                    .push(Resubmitted { of, report });
                            } else {
                                fresh_ms.lock().expect("results lock").push(ms);
                                fresh.lock().expect("results lock").push(Fresh {
                                    text,
                                    fingerprint,
                                    report,
                                });
                            }
                        }
                        Err(e) => {
                            failures.fetch_add(1, Ordering::Relaxed);
                            eprintln!("submission failed: {e}");
                        }
                    }
                }
            });
        }
    });
    let busy_s = start.elapsed().as_secs_f64();
    daemon.shutdown();
    daemon.join();

    let fresh = fresh.into_inner().expect("results lock");
    let resubmitted = resubmitted.into_inner().expect("results lock");
    let op_ms = fresh_ms.into_inner().expect("results lock");
    let resubmit_ms = resubmit_ms.into_inner().expect("results lock");
    attempted += submissions.load(Ordering::Relaxed);

    // Output checks, after the daemon is down so they do not compete
    // with it: every served report equals an in-process sweep of the
    // same text, every resubmission returns the first report's bytes,
    // and the set-up rounds agree.
    let warm_ref = reference_report(&warmup)?;
    for r in &warm_reports {
        checks.check(*r == warm_ref, || {
            "set-up job report differs from in-process run".into()
        });
    }
    // Two threads, one per client: on one, checking every fresh job adds
    // about half the window to the run.
    let per_thread = fresh.len().div_ceil(CLIENTS as usize).max(1);
    let expected = std::thread::scope(|scope| {
        let handles: Vec<_> = fresh
            .chunks(per_thread)
            .map(|jobs| {
                scope.spawn(move || {
                    jobs.iter()
                        .map(|job| reference_report(&job.text))
                        .collect::<Result<Vec<_>, _>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread"))
            .collect::<Result<Vec<_>, _>>()
    })?
    .concat();
    for (job, expected) in fresh.iter().zip(&expected) {
        checks.check(job.report == *expected, || {
            format!(
                "served report {:016x} differs from in-process run",
                job.fingerprint
            )
        });
    }
    for r in &resubmitted {
        checks.check(r.report == fresh[r.of].report, || {
            format!(
                "resubmission of {:016x} returned different bytes",
                fresh[r.of].fingerprint
            )
        });
    }

    let devices_per_job = FleetScenario::parse(&warmup)
        .map_err(|e| format!("scenario: {e}"))?
        .total_devices();
    let jobs_per_s = fresh.len() as f64 / busy_s;
    let mut named = vec![
        metric("submit_to_report_ms_p50", stats::median(&op_ms), "ms"),
        metric(
            "resubmit_to_report_ms_p50",
            stats::median(&resubmit_ms),
            "ms",
        ),
        metric("jobs_per_s", jobs_per_s, "1/s"),
        metric("fresh_submissions", op_ms.len() as f64, "count"),
        metric("resubmissions", resubmit_ms.len() as f64, "count"),
    ];
    if stats::beyond(&op_ms, 0.9) >= 10 {
        named.push(metric(
            "submit_to_report_ms_p90",
            stats::quantile(&op_ms, 0.9),
            "ms",
        ));
    }
    Ok(Measured {
        attempted,
        failed_ops: failures.load(Ordering::Relaxed),
        devices_per_s: jobs_per_s * devices_per_job as f64,
        named,
        op_ms,
        setup_s,
        identity: vec![
            ("scenario".into(), "perf-serve (fresh seed per job)".into()),
            ("devices".into(), devices_per_job.to_string()),
            ("workers".into(), "1".into()),
            ("clients".into(), CLIENTS.to_string()),
            ("engine".into(), format!("{:?}", FleetEngine::default())),
        ],
    })
}
