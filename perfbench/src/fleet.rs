//! The two fleet workloads: repeated `run_fleet` sweeps of one
//! population under the default (batched lockstep) engine.
//!
//! * `fleet-tape` — one worker; every device rides its cohort's tape.
//! * `fleet-diverge` — two workers; every device leaves the tape or
//!   never rides it.
//!
//! The operation is one shard: its latency is the time from the previous
//! shard's progress event (or the sweep's start) to its own, which is
//! what a `watch` subscriber or `--shard-jsonl` reader sees.

use std::time::{Duration, Instant};

use wn_fleet::{run_fleet_with, FleetEngine, FleetError, FleetOptions, FleetReport, FleetScenario};

use crate::populations::{fleet_diverge, fleet_tape, scenario_seed};
use crate::{evict_prepared_cache, metric, stats, Args, Checks, Measured, Workload, SETUP_ROUNDS};

/// Seed stream of each fleet population.
pub const TAPE_SALT: u64 = 1;
pub const DIVERGE_SALT: u64 = 2;

/// The population text and worker count of a fleet workload.
pub fn population(workload: Workload, run_seed: u64) -> (String, usize) {
    match workload {
        Workload::FleetDiverge => (fleet_diverge(scenario_seed(run_seed, DIVERGE_SALT, 0)), 2),
        _ => (fleet_tape(scenario_seed(run_seed, TAPE_SALT, 0)), 1),
    }
}

pub struct Pass {
    pub report: FleetReport,
    pub shard_ms: Vec<f64>,
    pub seconds: f64,
}

/// One complete sweep, timing each shard as its progress event arrives.
pub fn sweep(
    scenario: &FleetScenario,
    jobs: usize,
    engine: FleetEngine,
) -> Result<Pass, FleetError> {
    let options = FleetOptions {
        jobs: Some(jobs),
        engine,
        ..FleetOptions::default()
    };
    let start = Instant::now();
    let mut last = start;
    let mut shard_ms = Vec::with_capacity(scenario.shard_count());
    let status = run_fleet_with(scenario, &options, None, |_| {
        let now = Instant::now();
        shard_ms.push((now - last).as_secs_f64() * 1e3);
        last = now;
    })?;
    let seconds = start.elapsed().as_secs_f64();
    let report = status
        .report()
        .ok_or_else(|| FleetError::Checkpoint("sweep paused without a pause request".into()))?;
    Ok(Pass {
        report,
        shard_ms,
        seconds,
    })
}

/// Checks that every cohort's fates sum to its device count.
pub fn check_fates(scenario: &FleetScenario, report: &FleetReport, checks: &mut Checks) {
    for (spec, agg) in scenario.cohorts.iter().zip(&report.cohorts) {
        checks.check(
            agg.devices == spec.count && agg.completed + agg.starved + agg.timed_out == agg.devices,
            || {
                format!(
                    "cohort {}: {} devices of {}, fates {}+{}+{}",
                    spec.name, agg.devices, spec.count, agg.completed, agg.starved, agg.timed_out
                )
            },
        );
    }
}

/// Report bytes (JSON, CSV) that later sweeps must reproduce exactly.
pub fn check_repeat(
    report: &FleetReport,
    reference: &mut Option<(String, String)>,
    what: &str,
    checks: &mut Checks,
) {
    let bytes = (report.to_json(), report.to_csv());
    match reference {
        None => *reference = Some(bytes),
        Some(r) => checks.check(*r == bytes, || {
            format!("{what}: fleet report bytes differ from the first sweep")
        }),
    }
}

pub fn run(args: &Args, checks: &mut Checks) -> Result<Measured, String> {
    let (text, jobs) = population(args.workload, args.seed);
    let engine = FleetEngine::default();
    let mut reference = None;
    let mut attempted = 0u64;

    // Set-up: parse, then one sweep with every cohort compiled cold (the
    // first round also meets cold supply memo tables).
    let mut setup_s = Vec::with_capacity(SETUP_ROUNDS);
    for round in 0..SETUP_ROUNDS {
        let start = Instant::now();
        evict_prepared_cache(round as u64);
        let scenario = FleetScenario::parse(&text).map_err(|e| format!("scenario: {e}"))?;
        let pass = sweep(&scenario, jobs, engine).map_err(|e| format!("set-up sweep: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        attempted += pass.shard_ms.len() as u64;
        check_fates(&scenario, &pass.report, checks);
        check_repeat(&pass.report, &mut reference, "set-up", checks);
    }

    let scenario = FleetScenario::parse(&text).map_err(|e| format!("scenario: {e}"))?;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut op_ms = Vec::new();
    let mut sweep_rates = Vec::new();
    let mut failed_ops = 0u64;
    while Instant::now() < deadline {
        match sweep(&scenario, jobs, engine) {
            Ok(pass) => {
                attempted += pass.shard_ms.len() as u64;
                sweep_rates.push(scenario.total_devices() as f64 / pass.seconds);
                op_ms.extend_from_slice(&pass.shard_ms);
                check_fates(&scenario, &pass.report, checks);
                check_repeat(&pass.report, &mut reference, "window", checks);
            }
            Err(e) => {
                attempted += scenario.shard_count() as u64;
                failed_ops += scenario.shard_count() as u64;
                eprintln!("sweep failed: {e}");
                break;
            }
        }
    }

    // The rate three sweeps in four reach or beat (the sweep rates' 25th
    // percentile). On a shared host the slow, contended sweeps form a
    // steady floor, while the fast ones vary with the neighbours' load,
    // so this rate is steadier than the median or the mean.
    let devices_per_s = stats::quantile(&sweep_rates, 0.25);
    let mut named = vec![
        metric("devices_per_s", devices_per_s, "1/s"),
        metric("sweeps", sweep_rates.len() as f64, "count"),
        metric("shard_ms_p50", stats::median(&op_ms), "ms"),
    ];
    if stats::beyond(&op_ms, 0.9) >= 10 {
        named.push(metric("shard_ms_p90", stats::quantile(&op_ms, 0.9), "ms"));
    }
    Ok(Measured {
        attempted,
        failed_ops,
        devices_per_s,
        named,
        op_ms,
        setup_s,
        identity: vec![
            ("scenario".into(), scenario.name.clone()),
            (
                "fingerprint".into(),
                format!("{:016x}", scenario.fingerprint()),
            ),
            ("devices".into(), scenario.total_devices().to_string()),
            ("shard_size".into(), scenario.shard_size.to_string()),
            ("workers".into(), jobs.to_string()),
            ("engine".into(), format!("{engine:?}")),
        ],
    })
}
