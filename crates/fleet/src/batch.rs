//! Lockstep cohort execution: one recorded trajectory per cohort,
//! replayed per device.
//!
//! Within a cohort every device runs the *same compiled program on the
//! same inputs* — only the power trace (and hence outage placement)
//! differs. Both checkpoint substrates keep architectural state on the
//! fault-free trajectory: Clank rolls memory and registers back to the
//! exact checkpointed position, and NVP persists the exact interrupted
//! state, so no outage ever perturbs *what* executes — only *when*. The
//! whole cohort therefore shares one instruction-by-instruction
//! trajectory, which this module records once per cohort as a
//! [`wn_sim::ExecutionTape`]. Each device then runs on the ordinary
//! intermittent executor over a [`TapeCursor`] instead of a core: the
//! substrate, supply and lease loop are the scalar path's own, only the
//! per-device decode/execute/memory work is skipped.
//!
//! The single way a device can leave the shared trajectory is a taken
//! skim jump; the cursor then rebuilds the device's core from the
//! master (see [`wn_intermittent::machine`]) and the same run carries
//! on. Cohorts the tape cannot reproduce bit-exactly (telemetry
//! enabled, per-word checkpoint costs, memoization, and the whole Task
//! substrate — whose re-execution from task entries *does* replay
//! instructions, violating the shared-trajectory premise) plan onto
//! the core wholesale, so fleet reports are byte-identical across
//! engines by construction.

use std::sync::Arc;

use wn_core::error::WnError;
use wn_core::intermittent::{run_machine, IntermittentOutcome, SubstrateKind};
use wn_core::prepared::PreparedRun;
use wn_energy::{PowerTrace, SupplyConfig};
use wn_intermittent::TapeCursor;
use wn_sim::{Core, ExecutionTape, WalkCache};
use wn_telemetry::NullSink;

use crate::scenario::FleetScenario;

/// Devices per lockstep batch job by default: large enough to amortize
/// job-pool dispatch, small enough to keep every worker fed on the
/// smoke-sized shards.
pub const DEFAULT_CHUNK: usize = 32;

/// Backstop on recorded trajectory length. Quick-scale kernels retire
/// well under a million instructions; a cohort beyond the cap (or one
/// that faults mid-trajectory) runs on cores instead of holding an
/// unbounded tape.
const TAPE_STEP_CAP: u64 = 8_000_000;

/// Which execution engine [`crate::runner::run_fleet`] drives devices
/// through. Results are byte-identical either way (proven by the
/// differential tests in this module); the engine only changes speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEngine {
    /// One intermittent executor over a fresh core per device.
    Scalar,
    /// Tape replay per cohort, `chunk` devices per pool job; devices in
    /// cohorts without a tape run on cores.
    Batched {
        /// Devices per pool job.
        chunk: usize,
    },
}

impl Default for FleetEngine {
    fn default() -> FleetEngine {
        FleetEngine::Batched {
            chunk: DEFAULT_CHUNK,
        }
    }
}

/// A cohort's recorded trajectory and everything replaying it needs,
/// shared read-only across pool workers.
pub(crate) struct TapePlan {
    prepared: Arc<PreparedRun>,
    /// Pristine core (inputs injected, fused-block table built) — the
    /// cursor consults its block table; diverging devices clone and
    /// walk it.
    master: Core,
    tape: ExecutionTape,
    /// Snapshot grid shared by every diverging device in the cohort so
    /// their reconstructions walk from the nearest cached core, not
    /// from step zero. Contents are pure functions of (master, tape),
    /// so sharing across pool workers cannot change a byte of output.
    walk_cache: WalkCache,
    /// NRMSE of the fault-free trajectory's output. A device that
    /// retires the whole tape commits exactly the master's memory, so
    /// its score is this cohort-level constant.
    tape_error_percent: f64,
}

impl TapePlan {
    /// Runs one device over the tape: the scalar run's outcome, bit for
    /// bit.
    ///
    /// # Errors
    ///
    /// As [`wn_core::intermittent::run_intermittent`].
    pub(crate) fn run(
        &self,
        substrate: SubstrateKind,
        trace: &PowerTrace,
        supply: SupplyConfig,
        wall_limit_s: f64,
    ) -> Result<IntermittentOutcome, WnError> {
        let cursor = TapeCursor::new(&self.tape, &self.master, &self.walk_cache);
        let (run, cursor) = run_machine(
            &self.prepared,
            substrate,
            cursor,
            trace,
            supply,
            wall_limit_s,
            &mut NullSink,
        )?;
        let error_percent = match cursor.into_core() {
            // Diverged device: score the continuation's final core.
            Some(core) => self.prepared.error_percent(&core)?,
            // Tape-completing device: the cohort-level constant.
            None => self.tape_error_percent,
        };
        Ok(IntermittentOutcome::new(&run, error_percent))
    }
}

/// Builds one tape plan per cohort (`None` runs the cohort on cores),
/// once per sweep. Infallible by design: any condition the tape cannot
/// reproduce bit-exactly — and any error preparing the cohort — selects
/// the core, which reproduces (and correctly attributes) the behavior
/// on the devices themselves. `telemetry` is the collector's state for
/// the sweep: traced runs observe executor internals per device, so
/// they always run on cores.
pub(crate) fn build_plans(scenario: &FleetScenario, telemetry: bool) -> Vec<Option<TapePlan>> {
    (0..scenario.cohorts.len())
        .map(|cohort| {
            if telemetry {
                None
            } else {
                build_plan(scenario, cohort)
            }
        })
        .collect()
}

fn build_plan(scenario: &FleetScenario, cohort: usize) -> Option<TapePlan> {
    let spec = &scenario.cohorts[cohort];
    match spec.substrate.kind() {
        // Per-word checkpoint costs need register dirty-word counts the
        // tape does not carry.
        SubstrateKind::Clank(cfg) if cfg.cycles_per_checkpoint_word != 0 => return None,
        SubstrateKind::Clank(_) | SubstrateKind::Nvp(_) => {}
        // The Task substrate re-executes the interrupted task from its
        // entry after every outage, so its devices do not share one
        // fault-free trajectory — the premise the tape rests on.
        SubstrateKind::Task(_) => return None,
    }
    let prepared = PreparedRun::cached(
        spec.benchmark,
        scenario.scale,
        scenario.cohort_input_seed(cohort),
        spec.technique,
    )
    .ok()?;
    // Memoization mutates dispatch costs as the memo table warms, so a
    // re-executing (Clank) device's costs depend on its outage history.
    if prepared.core_config.memo.is_some() {
        return None;
    }
    let master = prepared.fresh_core().ok()?;
    let mut recorder = master.clone();
    let tape = ExecutionTape::record(&mut recorder, TAPE_STEP_CAP).ok()??;
    // The recorder just retired the fault-free trajectory: its memory
    // holds the output every tape-completing device commits.
    let tape_error_percent = prepared.error_percent(&recorder).ok()?;
    Some(TapePlan {
        prepared,
        master,
        tape,
        walk_cache: WalkCache::new(),
        tape_error_percent,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::simulate_device;

    fn mixed_scenario() -> FleetScenario {
        FleetScenario::parse(
            r#"
[fleet]
name = "lockstep-mixed"
seed = 11
shard_size = 16
wall_limit_s = 600.0
trace_duration_s = 20.0

[[cohort]]
count = 10
benchmark = "matadd"
technique = "anytime8"
substrate = "clank"
environment = "rf-bursty"

[[cohort]]
count = 10
benchmark = "home"
technique = "anytime8"
substrate = "nvp"
environment = "solar"
day_s = 10.0

[[cohort]]
count = 6
benchmark = "matadd"
technique = "precise"
substrate = "clank"
capacitance_uf = 2.2
environment = "piezo"

[[cohort]]
count = 6
benchmark = "matadd"
technique = "precise"
substrate = "task"
environment = "rf-bursty"
"#,
        )
        .unwrap()
    }

    #[test]
    fn plans_record_a_tape_for_every_checkpoint_cohort() {
        let s = mixed_scenario();
        let plans = build_plans(&s, false);
        assert_eq!(plans.len(), 4);
        for (i, p) in plans.iter().take(3).enumerate() {
            match p {
                Some(plan) => assert!(!plan.tape.is_empty(), "cohort {i}"),
                None => panic!("cohort {i} unexpectedly planned onto cores"),
            }
        }
    }

    /// The explicit lockstep policy for the checkpoint-free substrate:
    /// Task cohorts plan onto cores (no tape is recorded for them), and
    /// the engine-equivalence test below proves the fallback produces
    /// bit-identical outcomes.
    #[test]
    fn task_cohorts_plan_onto_the_scalar_engine() {
        let s = mixed_scenario();
        let plans = build_plans(&s, false);
        assert!(plans[3].is_none());
    }

    #[test]
    fn telemetry_forces_the_scalar_plan() {
        let s = mixed_scenario();
        let plans = build_plans(&s, true);
        assert!(plans.iter().all(Option::is_none));
    }

    /// The acceptance property at device granularity: every device in
    /// every cohort — Clank and NVP on the tape (completing, diverging
    /// via skim, starving, or timing out) and Task on the scalar
    /// fallback — produces the *bit-identical* outcome on both engines.
    #[test]
    fn batched_outcomes_equal_scalar_outcomes_for_every_device() {
        let s = mixed_scenario();
        let plans = build_plans(&s, false);
        let mut fates = std::collections::BTreeMap::new();
        for device in 0..s.total_devices() {
            let scalar = simulate_device(&s, &[], device).unwrap();
            let batched = simulate_device(&s, &plans, device).unwrap();
            assert_eq!(scalar, batched, "device {device} diverged between engines");
            *fates.entry(format!("{:?}", scalar.fate)).or_insert(0u32) += 1;
        }
        assert!(
            fates.get("Completed").copied().unwrap_or(0) > 0,
            "population must exercise the replay path: {fates:?}"
        );
    }
}
