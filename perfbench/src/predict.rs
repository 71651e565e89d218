//! The `predict` workload: one caller repeats `predict_fleet` over both
//! fleet populations' cohorts (one 1,250-device scenario), with a fresh
//! scenario seed per call, so every call profiles freshly compiled
//! cohorts and none is served from an earlier call's cache entry. (Two
//! concurrent callers doubled the run-to-run spread on a 2-vCPU host.)
//!
//! The operation is one call: parse the scenario, predict, render the
//! `wn-analyze-report-v1` JSON and CSV.

use std::time::{Duration, Instant};

use wn_fleet::{predict_fleet, CohortForecast, FleetScenario, PredictReport};

use crate::populations::{predict_population, scenario_seed};
use crate::{evict_prepared_cache, metric, stats, Args, Checks, Measured, SETUP_ROUNDS};

pub const PREDICT_SALT: u64 = 4;

/// Checks a forecast: no unsupported cohort, fates sum to every count.
fn check_forecast(scenario: &FleetScenario, report: &PredictReport, checks: &mut Checks) {
    checks.check(report.unsupported() == 0, || {
        format!(
            "{}: {} unsupported cohorts",
            scenario.name,
            report.unsupported()
        )
    });
    for (spec, forecast) in scenario.cohorts.iter().zip(&report.cohorts) {
        if let CohortForecast::Predicted { aggregate, .. } = forecast {
            checks.check(
                aggregate.devices == spec.count
                    && aggregate.completed + aggregate.starved + aggregate.timed_out == spec.count,
                || {
                    format!(
                        "{}: predicted fates do not sum to {}",
                        spec.name, spec.count
                    )
                },
            );
        }
    }
}

/// One call: parse, predict, render. Returns the report bytes too.
fn call(text: &str) -> Result<(FleetScenario, PredictReport, String), String> {
    let scenario = FleetScenario::parse(text).map_err(|e| format!("scenario: {e}"))?;
    let report = predict_fleet(&scenario).map_err(|e| format!("predict: {e}"))?;
    let bytes = report.to_json() + &report.to_csv();
    Ok((scenario, report, bytes))
}

pub fn run(args: &Args, checks: &mut Checks) -> Result<Measured, String> {
    let text = predict_population(scenario_seed(args.seed, PREDICT_SALT, 0));
    let mut attempted = 0u64;

    // Set-up: one call with every cohort compiled cold; each round must
    // reproduce the first round's bytes.
    let mut setup_s = Vec::with_capacity(SETUP_ROUNDS);
    let mut reference: Option<String> = None;
    for round in 0..SETUP_ROUNDS {
        let start = Instant::now();
        evict_prepared_cache(round as u64);
        let (scenario, report, bytes) = call(&text)?;
        setup_s.push(start.elapsed().as_secs_f64());
        attempted += 1;
        check_forecast(&scenario, &report, checks);
        match &reference {
            None => reference = Some(bytes),
            Some(r) => checks.check(*r == bytes, || {
                "predict report bytes differ between calls with one seed".into()
            }),
        }
    }

    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut op_ms = Vec::new();
    let (mut devices, mut busy_s, mut failed_ops) = (0u64, 0.0f64, 0u64);
    let mut k = 0u64;
    while Instant::now() < deadline {
        k += 1;
        let text = predict_population(scenario_seed(args.seed, PREDICT_SALT, k));
        attempted += 1;
        let t0 = Instant::now();
        match call(&text) {
            Ok((scenario, report, _)) => {
                let s = t0.elapsed().as_secs_f64();
                busy_s += s;
                op_ms.push(s * 1e3);
                devices += scenario.total_devices();
                check_forecast(&scenario, &report, checks);
            }
            Err(e) => {
                failed_ops += 1;
                eprintln!("{e}");
            }
        }
    }

    let scenario = FleetScenario::parse(&text).map_err(|e| format!("scenario: {e}"))?;
    let mut named = vec![
        metric("predict_ms_p50", stats::median(&op_ms), "ms"),
        metric("calls", op_ms.len() as f64, "count"),
    ];
    if stats::beyond(&op_ms, 0.9) >= 10 {
        named.push(metric("predict_ms_p90", stats::quantile(&op_ms, 0.9), "ms"));
    }
    Ok(Measured {
        attempted,
        failed_ops,
        devices_per_s: devices as f64 / busy_s,
        named,
        op_ms,
        setup_s,
        identity: vec![
            (
                "scenario".into(),
                format!("{} (fresh seed per call)", scenario.name),
            ),
            (
                "fingerprint".into(),
                format!("{:016x}", scenario.fingerprint()),
            ),
            ("devices".into(), scenario.total_devices().to_string()),
            ("workers".into(), "1".into()),
            ("engine".into(), "analytic".into()),
        ],
    })
}
