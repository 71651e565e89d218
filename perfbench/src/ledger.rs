//! The traced pass: a layer ledger over the workload's population.
//!
//! Every number here comes from calls into a layer's public functions,
//! wrapped in spans by this file (nothing inside the program is
//! instrumented):
//!
//! | layer | calls timed |
//! |---|---|
//! | `wn_core::prepared` / wn-compiler | `PreparedRun::new` / `tasked`, `cached_with_tasks` |
//! | `wn_energy::environment` | `EnvModel::synthesize` |
//! | `wn_energy::supply` | `memo_stats::snapshot` deltas |
//! | `wn_sim::core` | `PreparedRun::run_to_completion_core` |
//! | `wn_core::intermittent` / `wn_intermittent` | `run_intermittent` per device |
//! | `wn_sim::tape` / lockstep | `ExecutionTape::record`, `run_fleet` per `FleetEngine` |
//! | `wn_core::jobs` | `run_fleet` at 1 and 2 workers |
//! | `wn_fleet` | `CohortAggregate::record`, `FleetReport::to_json`/`to_csv`, `checkpoint::store`/`load` |
//! | `wn_analyze` | `profile_kernel`, `predict`, `predict_fleet` |
//! | `wn_serve` | connect + ping, submit, watch, report |
//!
//! The scalar sweep is re-assembled here from the same public calls the
//! runner makes per device (prepare, synthesize, run, record, checkpoint
//! per shard, render), and its report must equal `run_fleet`'s byte for
//! byte — the check that the decomposition measures the real path. It
//! runs twice untraced and once traced; the difference is the tracing
//! overhead.

use std::path::Path;
use std::time::Instant;

use wn_analyze::{profile_kernel, CohortQuery};
use wn_core::error::WnError;
use wn_core::intermittent::{run_intermittent, SubstrateKind};
use wn_core::prepared::{prepared_cache_stats, PreparedRun};
use wn_energy::{memo_stats, EnvModel, SupplyError};
use wn_fleet::checkpoint::{self, Checkpoint};
use wn_fleet::{
    predict_fleet, CohortAggregate, CohortSpec, DeviceFate, DeviceOutcome, FleetEngine,
    FleetReport, FleetScenario,
};
use wn_intermittent::ExecError;
use wn_serve::{Client, JobState};
use wn_sim::ExecutionTape;

use crate::fleet;
use crate::populations::{predict_population, scenario_seed, serve_job};
use crate::predict::PREDICT_SALT;
use crate::serve::{start_daemon, submit, SERVE_SALT};
use crate::stats::{mean, median, quantile};
use crate::trace::Tracer;
use crate::{metric, Args, Checks, Metric, Workload};

/// The lockstep planner's recording cap (`wn_fleet::batch`).
const TAPE_STEP_CAP: u64 = 8_000_000;
/// Fresh connections timed by the serve probe.
const PINGS: usize = 10;
/// Interleaved rounds of the wn-analyze probe.
const ANALYZE_ROUNDS: usize = 5;

pub struct Ledger {
    pub metrics: Vec<Metric>,
    /// Human-readable lines: per-layer self time and coverage, the
    /// per-substrate and per-family breakdowns.
    pub report: Vec<String>,
    pub identity: Vec<(String, String)>,
    pub attempted: u64,
}

/// One device of the decomposed scalar sweep.
struct DeviceRecord {
    cohort: usize,
    substrate: &'static str,
    family: &'static str,
    synth_s: f64,
    exec_s: f64,
    other_s: f64,
    fate: DeviceFate,
    active_cycles: u64,
    wasted_cycles: u64,
    outages: u64,
    checkpoints: u64,
    commits: u64,
    reexecuted_cycles: u64,
}

struct Sweep {
    report: FleetReport,
    devices: Vec<DeviceRecord>,
    seconds: f64,
    agg_s: f64,
    store_ms: Vec<f64>,
    render_ms: f64,
}

/// What the ledger measured over the workload's population.
#[derive(Default)]
struct Acc {
    prepare_ms: Vec<f64>,
    core_cycles: u64,
    core_s: f64,
    core_instructions: u64,
    core_fused: u64,
    tape_ms: Vec<f64>,
    devices: Vec<DeviceRecord>,
    /// Core-only seconds the completed devices' active cycles explain.
    core_explained_s: f64,
    untraced_s: f64,
    traced_s: f64,
    agg_s: f64,
    render_ms: Vec<f64>,
    store_ms: Vec<f64>,
    load_ms: Vec<f64>,
    checkpoint_bytes: Vec<f64>,
    memo_hits: u64,
    memo_misses: u64,
    charge_ff_steps: u64,
    discharge_ext_events: u64,
    cache_hits: u64,
    cache_misses: u64,
    scalar_s: f64,
    batched_s: f64,
    batched2_s: f64,
    tape_devices: u64,
    tape_skimmed: u64,
    profile_ms: Vec<f64>,
    solve_ms: Vec<f64>,
    fold_ms: Vec<f64>,
    ping_ms: Vec<f64>,
    ack_ms: Vec<f64>,
    first_shard_ms: Vec<f64>,
    run_ms: Vec<f64>,
    fetch_ms: Vec<f64>,
    resubmit_ms: Vec<f64>,
    fingerprints: Vec<String>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn family(env: &EnvModel) -> &'static str {
    match env {
        EnvModel::RfBursty { .. } => "rf",
        EnvModel::SolarDiurnal { .. } => "solar",
        EnvModel::PiezoImpulse { .. } => "piezo",
    }
}

fn is_task(spec: &CohortSpec) -> bool {
    matches!(spec.substrate.kind(), SubstrateKind::Task(_))
}

/// Whether the lockstep planner records a tape for this cohort: the
/// conditions `wn_fleet::batch::build_plan` checks before recording.
fn tape_eligible(spec: &CohortSpec, prepared: &PreparedRun) -> bool {
    prepared.core_config.memo.is_none()
        && match spec.substrate.kind() {
            SubstrateKind::Clank(cfg) => cfg.cycles_per_checkpoint_word == 0,
            SubstrateKind::Nvp(_) => true,
            SubstrateKind::Task(_) => false,
        }
}

fn prepared_for(
    scenario: &FleetScenario,
    cohort: usize,
) -> Result<std::sync::Arc<PreparedRun>, WnError> {
    let spec = &scenario.cohorts[cohort];
    PreparedRun::cached_with_tasks(
        spec.benchmark,
        scenario.scale,
        scenario.cohort_input_seed(cohort),
        spec.technique,
        is_task(spec),
    )
}

/// The scalar sweep, one public call at a time, with a checkpoint
/// stored after every shard.
fn decomposed_sweep(scenario: &FleetScenario, t: &Tracer, ckpt: &Path) -> Result<Sweep, String> {
    let start = Instant::now();
    let mut cohorts = vec![CohortAggregate::new(); scenario.cohorts.len()];
    let mut devices = Vec::with_capacity(scenario.total_devices() as usize);
    let (mut agg_s, mut store_ms) = (0.0, Vec::with_capacity(scenario.shard_count()));
    let fingerprint = scenario.fingerprint();
    for shard in 0..scenario.shard_count() {
        let lo = shard as u64 * scenario.shard_size as u64;
        let hi = (lo + scenario.shard_size as u64).min(scenario.total_devices());
        t.span("fleet.shard", || -> Result<(), String> {
            for device in lo..hi {
                let cohort = scenario.cohort_of(device);
                let spec = &scenario.cohorts[cohort];
                let t0 = Instant::now();
                let prepared = t
                    .span("prepared.lookup", || prepared_for(scenario, cohort))
                    .map_err(|e| format!("device {device}: {e}"))?;
                let t1 = Instant::now();
                let trace = t.span("energy.synth", || {
                    spec.env
                        .synthesize(scenario.device_seed(device), scenario.trace_duration_s)
                });
                let t2 = Instant::now();
                let result = t.span("intermittent.exec", || {
                    run_intermittent(
                        &prepared,
                        spec.substrate.kind(),
                        &trace,
                        spec.supply(),
                        scenario.wall_limit_s,
                    )
                });
                let t3 = Instant::now();
                let mut record = DeviceRecord {
                    cohort,
                    substrate: spec.substrate.name(),
                    family: family(&spec.env),
                    synth_s: (t2 - t1).as_secs_f64(),
                    exec_s: (t3 - t2).as_secs_f64(),
                    other_s: (t1 - t0).as_secs_f64(),
                    fate: DeviceFate::Completed,
                    active_cycles: 0,
                    wasted_cycles: 0,
                    outages: 0,
                    checkpoints: 0,
                    commits: 0,
                    reexecuted_cycles: 0,
                };
                let mut outcome = DeviceOutcome {
                    device,
                    cohort,
                    fate: DeviceFate::Completed,
                    skimmed: false,
                    time_s: 0.0,
                    on_time_s: 0.0,
                    error_percent: 0.0,
                    outages: 0,
                    checkpoints: 0,
                    commits: 0,
                    forward_progress: 0.0,
                };
                match result {
                    Ok(out) => {
                        let wasted = out.substrate.lost_cycles + out.substrate.overhead_cycles;
                        outcome.skimmed = out.skimmed;
                        outcome.time_s = out.time_s;
                        outcome.on_time_s = out.on_time_s;
                        outcome.error_percent = out.error_percent;
                        outcome.outages = out.outages;
                        outcome.checkpoints = out.substrate.checkpoints;
                        outcome.commits = out.substrate.commits;
                        outcome.forward_progress = if out.active_cycles == 0 {
                            0.0
                        } else {
                            (1.0 - wasted as f64 / out.active_cycles as f64).clamp(0.0, 1.0)
                        };
                        record.active_cycles = out.active_cycles;
                        record.wasted_cycles = wasted;
                        record.outages = out.outages;
                        record.checkpoints = out.substrate.checkpoints;
                        record.commits = out.substrate.commits;
                        record.reexecuted_cycles = out.substrate.reexecuted_cycles;
                    }
                    Err(WnError::Exec(ExecError::WallClock { .. })) => {
                        outcome.fate = DeviceFate::TimedOut;
                    }
                    Err(WnError::Exec(ExecError::Supply(SupplyError::Starved { .. }))) => {
                        outcome.fate = DeviceFate::Starved;
                    }
                    Err(e) => return Err(format!("device {device}: {e}")),
                }
                record.fate = outcome.fate;
                let t4 = Instant::now();
                t.span("fleet.agg", || cohorts[cohort].record(&outcome));
                agg_s += t4.elapsed().as_secs_f64();
                record.other_s += t4.elapsed().as_secs_f64();
                devices.push(record);
            }
            let t0 = Instant::now();
            t.span("fleet.checkpoint", || {
                checkpoint::store(
                    ckpt,
                    &Checkpoint {
                        fingerprint,
                        shards_done: shard + 1,
                        shard_count: scenario.shard_count(),
                        cohorts: cohorts.clone(),
                    },
                )
            })
            .map_err(|e| format!("checkpoint: {e}"))?;
            store_ms.push(ms_since(t0));
            Ok(())
        })?;
    }
    let report = FleetReport::new(scenario, cohorts);
    let t0 = Instant::now();
    t.span("fleet.report", || {
        std::hint::black_box((report.to_json(), report.to_csv()));
    });
    let render_ms = ms_since(t0);
    Ok(Sweep {
        report,
        devices,
        seconds: start.elapsed().as_secs_f64(),
        agg_s,
        store_ms,
        render_ms,
    })
}

fn check_same(checks: &mut Checks, reference: &FleetReport, other: &FleetReport, what: &str) {
    checks.check(
        reference.to_json() == other.to_json() && reference.to_csv() == other.to_csv(),
        || format!("{what}: report bytes differ from the batched engine's"),
    );
}

fn population(
    text: &str,
    t: &Tracer,
    work: &Path,
    checks: &mut Checks,
    acc: &mut Acc,
) -> Result<(), String> {
    let scenario = FleetScenario::parse(text).map_err(|e| format!("scenario: {e}"))?;
    acc.fingerprints.push(format!(
        "{}={:016x}/{}",
        scenario.name,
        scenario.fingerprint(),
        scenario.total_devices()
    ));
    let cache0 = prepared_cache_stats();

    // Warm-up sweep on the default engine: cold compilation, tape
    // recording and memo filling land here, outside every timed pass.
    let reference = t
        .span("ledger.warmup", || {
            fleet::sweep(&scenario, 1, FleetEngine::default())
        })
        .map_err(|e| format!("warm-up sweep: {e}"))?
        .report;
    fleet::check_fates(&scenario, &reference, checks);

    // Compilation, continuous-power core and tape recording per cohort.
    let mut core_rate = vec![0.0f64; scenario.cohorts.len()];
    for (c, spec) in scenario.cohorts.iter().enumerate() {
        let instance = spec
            .benchmark
            .instance(scenario.scale, scenario.cohort_input_seed(c));
        let t0 = Instant::now();
        let prepared = t
            .span("prepared.compile", || {
                if is_task(spec) {
                    PreparedRun::tasked(&instance, spec.technique)
                } else {
                    PreparedRun::new(&instance, spec.technique)
                }
            })
            .map_err(|e| format!("compile {}: {e}", spec.name))?;
        acc.prepare_ms.push(ms_since(t0));

        let mut best_s = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            let (core, cycles, _) = t
                .span("sim.core", || prepared.run_to_completion_core())
                .map_err(|e| format!("core run {}: {e}", spec.name))?;
            let s = t0.elapsed().as_secs_f64();
            if s < best_s {
                best_s = s;
                core_rate[c] = cycles as f64 / s;
            }
            acc.core_cycles += cycles;
            acc.core_s += s;
            acc.core_instructions += core.stats.instructions;
            acc.core_fused += core.fused_instructions();
        }

        if tape_eligible(spec, &prepared) {
            let mut core = prepared.fresh_core().map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            t.span("sim.tape", || {
                ExecutionTape::record(&mut core, TAPE_STEP_CAP)
            })
            .map_err(|e| format!("tape {}: {e}", spec.name))?;
            acc.tape_ms.push(ms_since(t0));
            acc.tape_devices += spec.count;
            acc.tape_skimmed += reference.cohorts[c].skimmed;
        }
    }

    // The decomposed scalar sweep: untraced, traced, untraced.
    let ckpt = work.join("ledger.ckpt");
    let off = Tracer::new(false);
    let first = t.span("ledger.untraced_sweep", || {
        decomposed_sweep(&scenario, &off, &ckpt)
    })?;
    let memo0 = memo_stats::snapshot();
    let traced = t.span("fleet.sweep", || decomposed_sweep(&scenario, t, &ckpt))?;
    let memo1 = memo_stats::snapshot();
    let second = t.span("ledger.untraced_sweep", || {
        decomposed_sweep(&scenario, &off, &ckpt)
    })?;
    check_same(checks, &reference, &first.report, "decomposed sweep");
    check_same(checks, &reference, &traced.report, "traced sweep");
    check_same(checks, &reference, &second.report, "decomposed sweep");
    acc.untraced_s += (first.seconds + second.seconds) / 2.0;
    acc.traced_s += traced.seconds;
    acc.memo_hits += memo1.memo_hits - memo0.memo_hits;
    acc.memo_misses += memo1.memo_misses - memo0.memo_misses;
    acc.charge_ff_steps += memo1.charge_ff_steps - memo0.charge_ff_steps;
    acc.discharge_ext_events += memo1.discharge_ext_events - memo0.discharge_ext_events;
    acc.agg_s += traced.agg_s;
    acc.render_ms.push(traced.render_ms);
    acc.store_ms.extend_from_slice(&traced.store_ms);
    for d in &traced.devices {
        if d.fate == DeviceFate::Completed && core_rate[d.cohort] > 0.0 {
            acc.core_explained_s += d.active_cycles as f64 / core_rate[d.cohort];
        }
    }
    acc.devices.extend(traced.devices);

    // Checkpoint load: the last shard's state must round-trip exactly.
    acc.checkpoint_bytes
        .push(std::fs::metadata(&ckpt).map_err(|e| e.to_string())?.len() as f64);
    for _ in 0..5 {
        let t0 = Instant::now();
        let loaded = t
            .span("fleet.checkpoint_load", || checkpoint::load(&ckpt))
            .map_err(|e| format!("checkpoint load: {e}"))?;
        acc.load_ms.push(ms_since(t0));
        checks.check(loaded.cohorts == traced.report.cohorts, || {
            "loaded checkpoint state differs from the sweep's aggregates".into()
        });
    }

    // Engines and pool width.
    for (name, jobs, engine, slot) in [
        (
            "fleet.engine_scalar",
            1,
            FleetEngine::Scalar,
            &mut acc.scalar_s,
        ),
        (
            "fleet.engine_batched",
            1,
            FleetEngine::default(),
            &mut acc.batched_s,
        ),
        (
            "fleet.engine_batched_2w",
            2,
            FleetEngine::default(),
            &mut acc.batched2_s,
        ),
    ] {
        let pass = t
            .span(name, || fleet::sweep(&scenario, jobs, engine))
            .map_err(|e| format!("{name}: {e}"))?;
        *slot += pass.seconds;
        check_same(checks, &reference, &pass.report, name);
    }

    // wn-analyze: per-cohort profile and solve, then the fleet fold.
    // Rounds interleave the per-cohort calls with `predict_fleet`, and
    // each difference is the median over rounds, so host drift between
    // the two halves of a difference stays small.
    let mut profile_ms = vec![Vec::new(); scenario.cohorts.len()];
    let mut solve_ms = vec![Vec::new(); scenario.cohorts.len()];
    let mut fold_ms = Vec::new();
    let mut bytes = Vec::new();
    for _ in 0..ANALYZE_ROUNDS {
        let mut cohort_predict_ms = 0.0;
        for (c, spec) in scenario.cohorts.iter().enumerate() {
            let prepared = prepared_for(&scenario, c).map_err(|e| e.to_string())?;
            let query = CohortQuery {
                prepared: &prepared,
                substrate: spec.substrate.kind(),
                supply: spec.supply(),
                env: spec.env,
                devices: spec.count,
                wall_limit_s: scenario.wall_limit_s,
            };
            let t0 = Instant::now();
            t.span("analyze.profile", || {
                profile_kernel(&prepared, spec.substrate.kind(), &spec.supply())
            })
            .map_err(|e| format!("profile {}: {e}", spec.name))?;
            let profile = ms_since(t0);
            let t0 = Instant::now();
            t.span("analyze.predict", || wn_analyze::predict(&query))
                .map_err(|e| format!("predict {}: {e}", spec.name))?;
            let predict = ms_since(t0);
            cohort_predict_ms += predict;
            profile_ms[c].push(profile);
            solve_ms[c].push(predict - profile);
        }
        let t0 = Instant::now();
        let report = t
            .span("analyze.predict_fleet", || predict_fleet(&scenario))
            .map_err(|e| format!("predict_fleet: {e}"))?;
        fold_ms.push(ms_since(t0) - cohort_predict_ms);
        checks.check(report.unsupported() == 0, || {
            "unsupported cohort in prediction".into()
        });
        bytes.push(report.to_json() + &report.to_csv());
    }
    checks.check(bytes.windows(2).all(|w| w[0] == w[1]), || {
        "predict report bytes differ between calls".into()
    });
    acc.profile_ms.extend(profile_ms.iter().map(|v| median(v)));
    acc.solve_ms.extend(solve_ms.iter().map(|v| median(v)));
    acc.fold_ms.push(median(&fold_ms));

    serve_probe(text, &reference, t, work, checks, acc)?;

    let cache1 = prepared_cache_stats();
    acc.cache_hits += cache1.hits - cache0.hits;
    acc.cache_misses += cache1.misses - cache0.misses;
    Ok(())
}

/// Times the daemon's layers for this population's scenario: fresh
/// connections with a ping, then one submission watched to the end, its
/// report fetched, and a resubmission.
fn serve_probe(
    text: &str,
    reference: &FleetReport,
    t: &Tracer,
    work: &Path,
    checks: &mut Checks,
    acc: &mut Acc,
) -> Result<(), String> {
    let daemon = start_daemon(&work.join("ledger-serve"))?;
    let addr = daemon.local_addr().to_string();
    let result = (|| -> Result<(), String> {
        for _ in 0..PINGS {
            let t0 = Instant::now();
            t.span("serve.connect_ping", || {
                Client::connect(&addr).and_then(|mut c| c.ping())
            })
            .map_err(|e| format!("ping: {e}"))?;
            acc.ping_ms.push(ms_since(t0));
        }
        let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
        let t0 = Instant::now();
        let (fingerprint, state) = t
            .span("serve.ack", || client.submit(text))
            .map_err(|e| format!("submit: {e}"))?;
        acc.ack_ms.push(ms_since(t0));
        let t0 = Instant::now();
        // The first progress event the client sees after subscribing: a
        // shard line, or `done` when every shard finished before the
        // subscription.
        let mut first_event = None;
        if state != JobState::Done {
            t.span("serve.run", || {
                client.watch(fingerprint, |_| {
                    first_event.get_or_insert_with(|| ms_since(t0));
                })
            })
            .map_err(|e| format!("watch: {e}"))?;
        }
        let run_ms = ms_since(t0);
        acc.run_ms.push(run_ms);
        acc.first_shard_ms.push(first_event.unwrap_or(run_ms));
        let t0 = Instant::now();
        let report = t
            .span("serve.fetch", || client.report(fingerprint))
            .map_err(|e| format!("report: {e}"))?;
        acc.fetch_ms.push(ms_since(t0));
        checks.check(
            report.as_deref() == Some(reference.to_json().as_str()),
            || "served report differs from the in-process sweep".into(),
        );
        let t0 = Instant::now();
        let (_, again) = t.span("serve.resubmit", || submit(&addr, text))?;
        acc.resubmit_ms.push(ms_since(t0));
        checks.check(report.as_deref() == Some(again.as_str()), || {
            "resubmission returned different bytes".into()
        });
        Ok(())
    })();
    daemon.shutdown();
    daemon.join();
    result
}

pub fn run(args: &Args, work: &Path, checks: &mut Checks) -> Result<Ledger, String> {
    let text = match args.workload {
        Workload::FleetTape | Workload::FleetDiverge => {
            fleet::population(args.workload, args.seed).0
        }
        Workload::Predict => predict_population(scenario_seed(args.seed, PREDICT_SALT, 0)),
        Workload::Serve => serve_job(scenario_seed(args.seed, SERVE_SALT, 0)),
    };
    let tracer = Tracer::new(true);
    let mut acc = Acc::default();
    tracer.span("ledger", || {
        population(&text, &tracer, work, checks, &mut acc)
    })?;

    let a = &acc;
    let ms = |d: &DeviceRecord| d.exec_s * 1e3;
    let all_exec: Vec<f64> = a.devices.iter().map(ms).collect();
    let exec_s: f64 = a.devices.iter().map(|d| d.exec_s).sum();
    let synth_s: f64 = a.devices.iter().map(|d| d.synth_s).sum();
    let device_s: f64 = a
        .devices
        .iter()
        .map(|d| d.exec_s + d.synth_s + d.other_s)
        .sum();
    let completed: Vec<&DeviceRecord> = a
        .devices
        .iter()
        .filter(|d| d.fate == DeviceFate::Completed)
        .collect();
    let completed_exec_s: f64 = completed.iter().map(|d| d.exec_s).sum();
    // `fold` from +0.0: a float `sum` over no items is -0.0.
    let futile_s = a
        .devices
        .iter()
        .filter(|d| d.fate != DeviceFate::Completed)
        .map(|d| d.exec_s)
        .fold(0.0, |acc, x| acc + x);
    let active: u64 = completed.iter().map(|d| d.active_cycles).sum();
    let wasted: u64 = completed.iter().map(|d| d.wasted_cycles).sum();
    let sum = |f: fn(&DeviceRecord) -> u64| completed.iter().map(|d| f(d)).sum::<u64>() as f64;
    let synth_ms = |fam: &str| {
        let v: Vec<f64> = a
            .devices
            .iter()
            .filter(|d| fam.is_empty() || d.family == fam)
            .map(|d| d.synth_s * 1e3)
            .collect();
        mean(&v)
    };
    let n_devices = a.devices.len() as f64;
    let layers = tracer.layers();
    let wall = tracer.wall_s();
    // Coverage of the traced sweep: the share of its wall time inside a
    // layer's span rather than in the sweep's or a shard's own code.
    let self_of = |name: &str| layers.get(name).map_or(0.0, |l| l.self_s);
    let sweep_wall = layers
        .get("fleet.sweep")
        .map_or(f64::NAN, |l| l.inclusive_s);
    let coverage = 1.0 - (self_of("fleet.sweep") + self_of("fleet.shard")) / sweep_wall;

    let metrics = vec![
        metric("prepare.ms", mean(&a.prepare_ms), "ms"),
        metric(
            "prepare.cache_hit_rate",
            a.cache_hits as f64 / (a.cache_hits + a.cache_misses).max(1) as f64,
            "ratio",
        ),
        metric("synth.ms_per_trace", synth_ms(""), "ms"),
        metric("synth.ms_per_trace.solar", synth_ms("solar"), "ms"),
        metric("synth.ms_per_trace.rf", synth_ms("rf"), "ms"),
        metric("synth.ms_per_trace.piezo", synth_ms("piezo"), "ms"),
        metric("synth.share", synth_s / device_s, "share"),
        metric(
            "supply.memo_hit_rate",
            a.memo_hits as f64 / (a.memo_hits + a.memo_misses).max(1) as f64,
            "ratio",
        ),
        metric("supply.charge_ff_steps", a.charge_ff_steps as f64, "count"),
        metric(
            "supply.discharge_ext_events",
            a.discharge_ext_events as f64,
            "count",
        ),
        metric(
            "core.mcycles_per_s",
            a.core_cycles as f64 / a.core_s / 1e6,
            "Mcycles/s",
        ),
        metric(
            "core.fused_share",
            a.core_fused as f64 / a.core_instructions.max(1) as f64,
            "share",
        ),
        metric("device.ms_p50", median(&all_exec), "ms"),
        metric("device.ms_p99", quantile(&all_exec, 0.99), "ms"),
        metric(
            "exec.overhead_share",
            1.0 - a.core_explained_s / completed_exec_s,
            "share",
        ),
        metric("exec.futile_share", futile_s / exec_s, "share"),
        metric(
            "exec.useful_cycle_share",
            1.0 - wasted as f64 / active.max(1) as f64,
            "share",
        ),
        metric("exec.outages", sum(|d| d.outages), "count"),
        metric("exec.checkpoints", sum(|d| d.checkpoints), "count"),
        metric("exec.commits", sum(|d| d.commits), "count"),
        metric(
            "exec.reexecuted_cycles",
            sum(|d| d.reexecuted_cycles),
            "count",
        ),
        metric("tape.record_ms", mean(&a.tape_ms), "ms"),
        metric(
            "tape.peel_share",
            a.tape_skimmed as f64 / a.tape_devices.max(1) as f64,
            "share",
        ),
        metric("engine.scalar_s", a.scalar_s, "s"),
        metric("engine.batched_s", a.batched_s, "s"),
        metric("engine.replay_gain", a.scalar_s / a.batched_s, "x"),
        metric("pool.scaling", a.batched_s / a.batched2_s, "x"),
        metric("agg.record_us", a.agg_s / n_devices * 1e6, "us"),
        metric("report.render_ms", mean(&a.render_ms), "ms"),
        metric("checkpoint.store_ms", mean(&a.store_ms), "ms"),
        metric("checkpoint.load_ms", mean(&a.load_ms), "ms"),
        metric("checkpoint.bytes", mean(&a.checkpoint_bytes), "bytes"),
        metric("analyze.profile_ms", mean(&a.profile_ms), "ms"),
        metric("analyze.solve_ms", mean(&a.solve_ms), "ms"),
        metric("analyze.fold_ms", mean(&a.fold_ms), "ms"),
        metric("serve.connect_ping_ms", median(&a.ping_ms), "ms"),
        metric("serve.ack_ms", mean(&a.ack_ms), "ms"),
        metric("serve.first_shard_ms", mean(&a.first_shard_ms), "ms"),
        metric("serve.run_ms", mean(&a.run_ms), "ms"),
        metric("serve.fetch_ms", mean(&a.fetch_ms), "ms"),
        metric("trace.coverage", coverage, "share"),
        metric("trace.overhead", a.traced_s / a.untraced_s - 1.0, "share"),
    ];

    // Breakdowns and the span table.
    let mut report = Vec::new();
    for sub in ["clank", "nvp", "task"] {
        let v: Vec<f64> = a
            .devices
            .iter()
            .filter(|d| d.substrate == sub)
            .map(ms)
            .collect();
        if !v.is_empty() {
            report.push(format!(
                "{{\"device\": {{\"substrate\": \"{sub}\", \"n\": {}, \"ms_p50\": {}, \"ms_p99\": {}}}}}",
                v.len(),
                median(&v),
                quantile(&v, 0.99)
            ));
        }
    }
    report.push(format!(
        "{{\"serve\": {{\"resubmit_ms\": {}, \"pings\": {}}}}}",
        mean(&a.resubmit_ms),
        a.ping_ms.len()
    ));
    report.push(format!(
        "{{\"trace\": {{\"spans\": {}, \"wall_s\": {wall}, \"untraced_sweep_s\": {}, \"traced_sweep_s\": {}}}}}",
        tracer.span_count(),
        a.untraced_s,
        a.traced_s
    ));
    for (name, l) in &layers {
        report.push(format!(
            "{{\"layer\": \"{name}\", \"calls\": {}, \"self_ms\": {:.3}, \"inclusive_ms\": {:.3}, \"share_of_wall\": {:.4}}}",
            l.calls,
            l.self_s * 1e3,
            l.inclusive_s * 1e3,
            l.inclusive_s / wall
        ));
    }

    Ok(Ledger {
        metrics,
        report,
        identity: vec![
            ("scenarios".into(), acc.fingerprints.join(",")),
            (
                "workers".into(),
                "1 (decomposed sweep and probes), 2 (pool.scaling)".into(),
            ),
            (
                "engine".into(),
                "scalar (decomposed), Scalar and Batched (engine probes)".into(),
            ),
        ],
        attempted: acc.devices.len() as u64,
    })
}
