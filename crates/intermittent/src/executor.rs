//! The intermittent executor: interleaves execution with harvested power
//! and implements the skim-point restore path.

use std::fmt;

use std::ops::ControlFlow;

use wn_energy::{EnergySupply, PowerStatus, PowerTrace, SupplyConfig, SupplyError};
use wn_sim::{Core, HookBreak, HookKind, SimError, StepHook, StepInfo};
use wn_telemetry::{Event, EventKind, EventSink, NullSink};

use crate::machine::Machine;
use crate::substrate::{Substrate, SubstrateStats};

/// The lease hook: charges substrate overhead and settles energy as
/// pure bookkeeping, attributes checkpoints to `sink`, and — because it
/// needs only memory-op granularity — lets straight-line blocks retire
/// fused. Block admission is bounded by the substrate's own headroom
/// (watchdog distance for Clank, unlimited for NVP) and per-instruction
/// overhead, so fused dispatch can neither cross a substrate
/// intervention point nor overshoot the energy lease. No checkpoint,
/// commit or boundary fires inside a fused block, so a traced run emits
/// exactly the events per-instruction observation would.
struct FusedLeaseHook<'a, S: Substrate, K: EventSink> {
    supply: &'a mut EnergySupply,
    substrate: &'a mut S,
    sink: &'a mut K,
    cap: u64,
    /// Extra cycles charged by the step that broke the loop at a task
    /// boundary. [`wn_sim::BulkRun::cycles`] excludes the breaking
    /// step's extra by contract, but the supply has already settled
    /// them, so the executor folds `carried` back into its
    /// active-cycle total.
    carried: u64,
}

impl<M: Machine, S: Substrate, K: EventSink> StepHook<M> for FusedLeaseHook<'_, S, K> {
    const KIND: HookKind = HookKind::MemoryOps;

    #[inline]
    fn on_step(&mut self, machine: &mut M, info: &StepInfo) -> ControlFlow<HookBreak, u64> {
        // Snapshot only when tracing: with a NullSink this folds away.
        let before = self.sink.enabled().then(|| self.substrate.stats());
        let overhead = self.substrate.after_step(machine, info);
        debug_assert!(
            overhead <= self.cap,
            "substrate overhead {overhead} exceeds its lease_cap {}",
            self.cap
        );
        self.supply.settle(info.cycles + overhead);
        if let Some(b) = before {
            self.substrate
                .record_checkpoint_events(&b, self.supply.time_s(), self.sink);
        }
        if self.substrate.take_boundary() {
            // A task committed: stop the lease so the commit settles
            // before the next grant, exactly as checkpoint costs do at
            // lease ends. The re-grant is unobservable bookkeeping
            // (`grant_cycles` is pure), so breaking here cannot perturb
            // outage placement.
            self.carried += overhead;
            return ControlFlow::Break(HookBreak::Boundary);
        }
        ControlFlow::Continue(overhead)
    }

    fn block_budget(&self) -> u64 {
        self.substrate.fused_headroom()
    }

    fn block_instr_overhead(&self) -> u64 {
        self.substrate.fused_instr_overhead()
    }

    fn on_block(&mut self, costs: &[u64], cycles: u64, tail_extra: u64, reads: &[u32]) -> u64 {
        // Settle per instruction: the supply must see the same float
        // operation sequence as the per-instruction engines so its
        // arithmetic stays bit-identical. `settle_run` performs exactly
        // one `settle`'s operations per element, with the bookkeeping
        // hoisted out of the loop. The fused win is skipping
        // per-instruction dispatch, budget checks, stats recording and
        // hook indirection — not the energy bookkeeping.
        let overhead = self.substrate.fused_instr_overhead();
        self.supply.settle_run(costs, overhead, tail_extra);
        self.substrate
            .after_fused(costs.len() as u64, cycles + tail_extra, reads)
    }
}

/// Outcome of one intermittent run. Produced only for runs that reached
/// `HALT` (naturally or by skim jump) — incomplete runs surface as
/// [`ExecError`]s instead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntermittentRun {
    /// Completion happened via a skim jump after an outage: the output is
    /// the approximate result as-is (§III-C).
    pub skimmed: bool,
    /// Total simulated wall-clock time, including dark recharge periods.
    pub total_time_s: f64,
    /// Time spent powered on and executing.
    pub on_time_s: f64,
    /// Cycles executed (including re-execution and substrate overhead).
    pub active_cycles: u64,
    /// Power outages endured.
    pub outages: u64,
    /// Substrate counters at the end of the run.
    pub substrate: SubstrateStats,
}

/// Errors from an intermittent run.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The harvester never delivered enough energy.
    Supply(SupplyError),
    /// The simulated core faulted.
    Sim(SimError),
    /// The wall-clock budget expired before completion.
    WallClock { limit_s: f64 },
    /// The caller passed a NaN or negative wall-clock budget. Rejected
    /// up front: NaN poisons every comparison the loop uses to
    /// terminate (`time > limit` and `limit - time > 0` are both false
    /// for NaN), so such a budget could otherwise spin forever.
    InvalidLimit { limit_s: f64 },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Supply(e) => write!(f, "energy supply error: {e}"),
            ExecError::Sim(e) => write!(f, "simulation error: {e}"),
            ExecError::WallClock { limit_s } => {
                write!(f, "run did not complete within {limit_s} simulated seconds")
            }
            ExecError::InvalidLimit { limit_s } => {
                write!(
                    f,
                    "invalid wall-clock limit {limit_s}: must be a non-negative number of seconds"
                )
            }
        }
    }
}

impl std::error::Error for ExecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ExecError::Supply(e) => Some(e),
            ExecError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SupplyError> for ExecError {
    fn from(e: SupplyError) -> ExecError {
        ExecError::Supply(e)
    }
}

impl From<SimError> for ExecError {
    fn from(e: SimError) -> ExecError {
        ExecError::Sim(e)
    }
}

/// Drives a [`Machine`] — a [`Core`], or a
/// [`crate::machine::TapeCursor`] replaying a recorded trajectory —
/// through power outages on a [`Substrate`].
///
/// The executor owns the **skim-point restore logic** (paper §III-C): on
/// every restore after an outage it first consults the core's non-volatile
/// SKM register. If a skim point was recorded, the PC is redirected to the
/// skim target — the remaining refinement is skipped and the current
/// approximate output is committed by running (from the skim target) to
/// `HALT`. The register is cleared so the next input starts fresh.
#[derive(Debug)]
pub struct IntermittentExecutor<S: Substrate, M: Machine = Core> {
    /// What retires instructions.
    core: M,
    supply: EnergySupply,
    substrate: S,
    skim_enabled: bool,
}

impl<S: Substrate, M: Machine> IntermittentExecutor<S, M> {
    /// Creates an executor over a fresh supply built from `trace`. The
    /// trace is borrowed — its samples are behind an `Arc`, so the supply
    /// shares them instead of copying (experiment fan-out runs many
    /// executors over one ensemble concurrently).
    pub fn new(core: M, trace: &PowerTrace, supply_config: SupplyConfig, substrate: S) -> Self {
        IntermittentExecutor::with_supply(
            core,
            EnergySupply::new(trace.clone(), supply_config),
            substrate,
        )
    }

    /// Creates an executor over an existing supply — used by the stream
    /// harness, where one energy environment persists across many input
    /// invocations (paper Fig. 1).
    pub fn with_supply(core: M, supply: EnergySupply, substrate: S) -> Self {
        IntermittentExecutor {
            core,
            supply,
            substrate,
            skim_enabled: true,
        }
    }

    /// Consumes the executor and returns its supply (time and capacitor
    /// state carry over to the next input).
    pub fn into_supply(self) -> EnergySupply {
        self.supply
    }

    /// Consumes the executor and returns its parts: the machine (for
    /// output decode), the supply and the substrate.
    pub fn into_parts(self) -> (M, EnergySupply, S) {
        (self.core, self.supply, self.substrate)
    }

    /// Disables the skim-point restore path (the precise baseline never
    /// sets the SKM register, but this also allows ablating skim points
    /// on WN binaries).
    pub fn set_skim_enabled(&mut self, enabled: bool) {
        self.skim_enabled = enabled;
    }

    /// The energy supply.
    pub fn supply(&self) -> &EnergySupply {
        &self.supply
    }

    /// The substrate.
    pub fn substrate(&self) -> &S {
        &self.substrate
    }

    /// Runs until the program halts or `limit_s` of simulated wall-clock
    /// time passes, scheduling execution in **energy leases** (epochs):
    /// exactly [`IntermittentExecutor::run_with_sink`] with a
    /// [`NullSink`], so every telemetry branch folds away.
    ///
    /// Each iteration asks the supply for a lease
    /// ([`EnergySupply::grant_cycles`]) — the cycles guaranteed free of
    /// brown-outs even with zero harvest. When the lease comfortably
    /// exceeds the worst case of one instruction plus the substrate's
    /// [`Substrate::lease_cap`] overhead, execution proceeds in bulk
    /// through [`Machine::run_steps_hooked`] with no per-instruction
    /// voltage check: the hook charges substrate overhead and settles
    /// energy ([`EnergySupply::settle`]) as pure bookkeeping, and
    /// straight-line basic blocks retire fused with one admission check
    /// per block (see [`wn_sim::StepHook`] for the granularity
    /// contract). Near the brown-out threshold (or the wall-clock limit)
    /// it falls back to the exact per-instruction checked path, so
    /// outages land on precisely the same instruction as the per-cycle
    /// reference engine ([`IntermittentExecutor::run_reference`]) —
    /// `settle` reproduces `consume_cycles`' float arithmetic
    /// bit-for-bit.
    ///
    /// The wall-clock guard is folded into the lease math (leases are
    /// capped at the cycles remaining until `limit_s`) instead of the
    /// reference engine's periodic polling; `limit_s` is also checked on
    /// entry, before the initial [`EnergySupply::wait_for_power`].
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::InvalidLimit`] for a NaN or negative
    /// `limit_s`, [`ExecError::WallClock`] on timeout, or a wrapped
    /// supply / simulator error.
    pub fn run(&mut self, limit_s: f64) -> Result<IntermittentRun, ExecError> {
        self.run_with_sink(limit_s, &mut NullSink)
    }

    /// [`IntermittentExecutor::run`] with lifecycle tracing: lifecycle
    /// events (run start/end, power-on/outage, checkpoint/restore, skim
    /// taken/skipped, lease grant/settle) are recorded into `sink`,
    /// timestamped with the supply's simulated clock. Execution is
    /// identical to the untraced run — tracing only observes.
    ///
    /// # Errors
    ///
    /// As [`IntermittentExecutor::run`].
    pub fn run_with_sink<K: EventSink>(
        &mut self,
        limit_s: f64,
        sink: &mut K,
    ) -> Result<IntermittentRun, ExecError> {
        validate_limit(limit_s)?;
        let mut active_cycles = 0u64;
        let mut skimmed = false;
        let mut had_outage = false;
        // Report per-run deltas even when the supply is shared across
        // inputs (the stream harness reuses one energy environment).
        let outages0 = self.supply.outage_count();
        let time0 = self.supply.time_s();
        let on_time0 = self.supply.on_time_s();
        let max_instr_cycles = self.core.max_instr_cycles();

        if sink.enabled() {
            sink.record(Event {
                t_s: self.supply.time_s(),
                kind: EventKind::RunStart,
            });
        }

        'power_cycles: loop {
            if self.supply.time_s() > limit_s {
                return Err(ExecError::WallClock { limit_s });
            }
            self.supply.wait_for_power_traced(sink)?;

            // Restore path — checked: a weak checkpoint restore can brown
            // out before the first instruction.
            let restore_cost = self.substrate.on_restore(&mut self.core);
            if sink.enabled() {
                sink.record(Event {
                    t_s: self.supply.time_s(),
                    kind: EventKind::Restore {
                        cost_cycles: restore_cost,
                    },
                });
            }
            if self.consume_traced(restore_cost, &mut active_cycles, sink)? == PowerStatus::Outage {
                self.outage(sink);
                had_outage = true;
                continue 'power_cycles;
            }
            // Skim check (§III-C): only meaningful after an outage — on
            // first boot the register is clear anyway. The register is
            // cleared as part of acting on it; if a second outage hits
            // before the post-skim commit reaches HALT, the device simply
            // resumes refinement from its checkpoint — a lost skim is a
            // missed shortcut, never a wrong result.
            if self.skim_enabled && had_outage {
                if let Some(target) = self.core.take_skim()? {
                    skimmed = true;
                    if sink.enabled() {
                        sink.record(Event {
                            t_s: self.supply.time_s(),
                            kind: EventKind::SkimTaken { target },
                        });
                    }
                } else if sink.enabled() {
                    sink.record(Event {
                        t_s: self.supply.time_s(),
                        kind: EventKind::SkimSkipped,
                    });
                }
            } else if had_outage && sink.enabled() {
                // Skimming disabled: the restore deliberately ignored
                // any armed skim point.
                sink.record(Event {
                    t_s: self.supply.time_s(),
                    kind: EventKind::SkimSkipped,
                });
            }

            // Lease loop: execute until outage or completion.
            loop {
                if self.core.is_halted() {
                    break 'power_cycles;
                }
                if self.supply.time_s() > limit_s {
                    return Err(ExecError::WallClock { limit_s });
                }
                // Slack reserved at the end of a lease: the final retired
                // instruction may overshoot the bulk budget by its own
                // cost plus the worst-case substrate overhead.
                let slack = max_instr_cycles + self.substrate.lease_cap();
                let grant = self
                    .supply
                    .grant_cycles(cycles_until_limit(&self.supply, limit_s));
                if grant > slack {
                    if sink.enabled() {
                        sink.record(Event {
                            t_s: self.supply.time_s(),
                            kind: EventKind::LeaseGrant { cycles: grant },
                        });
                    }
                    let cap = self.substrate.lease_cap();
                    let mut hook = FusedLeaseHook {
                        supply: &mut self.supply,
                        substrate: &mut self.substrate,
                        sink: &mut *sink,
                        cap,
                        carried: 0,
                    };
                    // A `StopReason::Boundary` return needs no special
                    // arm: the lease loop re-iterates, re-checks halt
                    // and wall clock, and grants afresh with the commit
                    // already settled.
                    let bulk = self.core.run_steps_hooked(grant - slack, &mut hook)?;
                    let cycles = bulk.cycles + hook.carried;
                    active_cycles += cycles;
                    if sink.enabled() {
                        sink.record(Event {
                            t_s: self.supply.time_s(),
                            kind: EventKind::LeaseSettled {
                                cycles,
                                instructions: bulk.instructions,
                            },
                        });
                    }
                    debug_assert!(
                        self.supply.voltage() >= self.supply.config().v_off,
                        "brown-out inside an energy lease"
                    );
                } else {
                    // Near the brown-out threshold or the wall-clock
                    // limit: the exact checked path of the reference
                    // engine, one instruction at a time.
                    let info = self.core.step()?;
                    let before = sink.enabled().then(|| self.substrate.stats());
                    let overhead = self.substrate.after_step(&mut self.core, &info);
                    if let Some(b) = before {
                        self.substrate
                            .record_checkpoint_events(&b, self.supply.time_s(), sink);
                    }
                    if self.consume_traced(info.cycles + overhead, &mut active_cycles, sink)?
                        == PowerStatus::Outage
                    {
                        // Even when the outage coincides with the HALT
                        // step, the substrate decides what survives: on
                        // Clank the uncommitted write-back buffer is lost
                        // and the tail re-executes from the last
                        // checkpoint after restore (HALT keeps its PC, so
                        // the restored run halts again); on NVP
                        // everything is already durable.
                        self.outage(sink);
                        had_outage = true;
                        continue 'power_cycles;
                    }
                }
            }
        }

        if sink.enabled() {
            sink.record(Event {
                t_s: self.supply.time_s(),
                kind: EventKind::RunEnd { skimmed },
            });
        }

        Ok(IntermittentRun {
            skimmed,
            total_time_s: self.supply.time_s() - time0,
            on_time_s: self.supply.on_time_s() - on_time0,
            active_cycles,
            outages: self.supply.outage_count() - outages0,
            substrate: self.substrate.stats(),
        })
    }

    fn consume(&mut self, cycles: u64, active: &mut u64) -> Result<PowerStatus, ExecError> {
        *active += cycles;
        Ok(self.supply.consume_cycles(cycles)?)
    }

    fn consume_traced<K: EventSink>(
        &mut self,
        cycles: u64,
        active: &mut u64,
        sink: &mut K,
    ) -> Result<PowerStatus, ExecError> {
        *active += cycles;
        Ok(self.supply.consume_cycles_traced(cycles, sink)?)
    }

    /// Outage handling: let the substrate react, then (when tracing)
    /// attribute any checkpoints it took — NVP snapshots on the outage
    /// itself, which is exactly this window.
    fn outage<K: EventSink>(&mut self, sink: &mut K) {
        let before = sink.enabled().then(|| self.substrate.stats());
        self.substrate.on_outage(&mut self.core);
        if let Some(b) = before {
            self.substrate
                .record_checkpoint_events(&b, self.supply.time_s(), sink);
        }
    }
}

impl<S: Substrate> IntermittentExecutor<S> {
    /// The core (e.g. to inject inputs before running or decode outputs
    /// after).
    pub fn core(&self) -> &Core {
        &self.core
    }

    /// Mutable access to the core.
    pub fn core_mut(&mut self) -> &mut Core {
        &mut self.core
    }

    /// The pre-epoch **reference engine**: consumes energy and checks for
    /// brown-out after every single instruction, polling the wall clock
    /// every 65 536 instructions. Kept verbatim as the oracle for the
    /// differential test suite — [`IntermittentExecutor::run`] must be
    /// observably equivalent (same results, same outage placement, same
    /// supply arithmetic) while running an order of magnitude faster.
    ///
    /// # Errors
    ///
    /// As [`IntermittentExecutor::run`].
    pub fn run_reference(&mut self, limit_s: f64) -> Result<IntermittentRun, ExecError> {
        validate_limit(limit_s)?;
        let mut active_cycles = 0u64;
        let mut skimmed = false;
        let mut had_outage = false;
        let outages0 = self.supply.outage_count();
        let time0 = self.supply.time_s();
        let on_time0 = self.supply.on_time_s();

        'power_cycles: loop {
            if self.supply.time_s() > limit_s {
                return Err(ExecError::WallClock { limit_s });
            }
            self.supply.wait_for_power()?;

            // Restore path.
            let restore_cost = self.substrate.on_restore(&mut self.core);
            if self.consume(restore_cost, &mut active_cycles)? == PowerStatus::Outage {
                self.substrate.on_outage(&mut self.core);
                had_outage = true;
                continue 'power_cycles;
            }
            // Skim check (§III-C), as in `run`.
            if self.skim_enabled && had_outage {
                if let Some(target) = self.core.cpu.skm {
                    self.core.cpu.pc = target;
                    self.core.cpu.skm = None;
                    skimmed = true;
                }
            }

            // Execute until outage or completion. The wall-clock guard
            // runs here too: a program that never halts and never browns
            // out (a strong harvesting environment) must still return.
            let mut since_check = 0u64;
            loop {
                if self.core.is_halted() {
                    break 'power_cycles;
                }
                since_check += 1;
                if since_check >= 65_536 {
                    since_check = 0;
                    if self.supply.time_s() > limit_s {
                        return Err(ExecError::WallClock { limit_s });
                    }
                }
                let info = self.core.step()?;
                let overhead = self.substrate.after_step(&mut self.core, &info);
                if self.consume(info.cycles + overhead, &mut active_cycles)? == PowerStatus::Outage
                {
                    self.substrate.on_outage(&mut self.core);
                    had_outage = true;
                    continue 'power_cycles;
                }
            }
        }

        Ok(IntermittentRun {
            skimmed,
            total_time_s: self.supply.time_s() - time0,
            on_time_s: self.supply.on_time_s() - on_time0,
            active_cycles,
            outages: self.supply.outage_count() - outages0,
            substrate: self.substrate.stats(),
        })
    }
}

/// Rejects wall-clock budgets the loop cannot terminate under (NaN
/// makes every limit comparison false) or that are nonsensical
/// (negative). `+∞` is allowed and means "no limit".
fn validate_limit(limit_s: f64) -> Result<(), ExecError> {
    if limit_s.is_nan() || limit_s < 0.0 {
        Err(ExecError::InvalidLimit { limit_s })
    } else {
        Ok(())
    }
}

/// Cycles of execution remaining until the wall-clock limit (rounded up
/// so the final lease can actually cross the limit), saturating for
/// far-away limits.
fn cycles_until_limit(supply: &EnergySupply, limit_s: f64) -> u64 {
    let left_s = limit_s - supply.time_s();
    // A NaN limit (rejected by `validate_limit`, but guarded here too)
    // must grant zero cycles instead of falling through to the cast
    // below, which would round NaN to a 1-cycle lease forever.
    if left_s <= 0.0 || left_s.is_nan() {
        return 0;
    }
    let cycles = left_s * supply.config().clock_hz;
    if cycles >= u64::MAX as f64 {
        u64::MAX
    } else {
        (cycles as u64).saturating_add(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clank::{Clank, ClankConfig};
    use crate::nvp::Nvp;
    use wn_energy::TraceKind;
    use wn_isa::asm::assemble;
    use wn_sim::CoreConfig;

    fn supply_config() -> SupplyConfig {
        SupplyConfig::default()
    }

    fn rf_trace(seed: u64) -> PowerTrace {
        PowerTrace::generate(TraceKind::RfBursty, seed, 120.0)
    }

    /// A program long enough to span several power cycles: sums 0..N via a
    /// memory-resident accumulator (the LDR/ADD/STR pattern makes every
    /// iteration a WAR violation, exercising Clank's store checkpoints).
    fn long_program(n: u32) -> wn_isa::Program {
        let src = format!(
            ".data\nout: .space 8\n.text\nMOV r0, =out\nMOV r2, #0\nloop:\nLDR r1, [r0, #0]\nADD r1, r1, r2\nSTR r1, [r0, #0]\nADD r2, r2, #1\nCMP r2, #{n}\nBLT loop\nHALT"
        );
        assemble(&src).unwrap()
    }

    #[test]
    fn clank_completes_across_outages() {
        let core = Core::new(&long_program(200_000), CoreConfig::default()).unwrap();
        let mut exec =
            IntermittentExecutor::new(core, &rf_trace(3), supply_config(), Clank::default());
        let run = exec.run(3600.0).unwrap();
        assert!(!run.skimmed, "no SKM instructions in this program");
        assert!(run.outages > 0, "program must span multiple power cycles");
        assert!(run.total_time_s > run.on_time_s);
        // Result is exact despite rollback/reexecution: sum 0..200000.
        let expect = (0..200_000u64).sum::<u64>() as u32;
        assert_eq!(exec.core().mem.load_u32(0).unwrap(), expect);
    }

    #[test]
    fn nvp_completes_with_fewer_active_cycles_than_clank() {
        let program = long_program(150_000);
        let mk = |sub: bool| -> IntermittentRun {
            let core = Core::new(&program, CoreConfig::default()).unwrap();
            if sub {
                IntermittentExecutor::new(core, &rf_trace(4), supply_config(), Clank::default())
                    .run(3600.0)
                    .unwrap()
            } else {
                IntermittentExecutor::new(core, &rf_trace(4), supply_config(), Nvp::default())
                    .run(3600.0)
                    .unwrap()
            }
        };
        let clank = mk(true);
        let nvp = mk(false);
        assert!(clank.outages > 0 && nvp.outages > 0);
        assert!(
            nvp.active_cycles < clank.active_cycles,
            "NVP avoids re-execution: {} vs {}",
            nvp.active_cycles,
            clank.active_cycles
        );
    }

    #[test]
    fn skim_point_commits_approximate_result_on_outage() {
        // Program: write 1 (the "approximate output"), set a skim point,
        // then spin forever "refining". Under intermittent power it can
        // only finish by skimming.
        let src = ".data\nout: .space 4\n.text\nMOV r0, =out\nMOV r1, #1\nSTR r1, [r0, #0]\nSKM end\nspin:\nADD r2, r2, #1\nSTR r2, [r0, #0]\nLDR r3, [r0, #0]\nB spin\nend:\nHALT";
        let core = Core::new(&assemble(src).unwrap(), CoreConfig::default()).unwrap();
        let mut exec =
            IntermittentExecutor::new(core, &rf_trace(5), supply_config(), Nvp::default());
        let run = exec.run(3600.0).unwrap();
        assert!(run.skimmed, "completion must come from the skim path");
        assert_eq!(run.outages, 1, "finishes at the first outage");
    }

    #[test]
    fn wall_clock_limit_fires_without_outages() {
        // A strong constant supply never browns out; the limit must
        // still stop a non-terminating program.
        let src = "spin:\nADD r0, r0, #1\nB spin";
        let core = Core::new(&assemble(src).unwrap(), CoreConfig::default()).unwrap();
        let strong = PowerTrace::generate(TraceKind::Constant, 0, 10.0);
        let cfg = SupplyConfig {
            pj_per_cycle: 0.0,
            ..SupplyConfig::default()
        };
        let mut exec = IntermittentExecutor::new(core, &strong, cfg, Nvp::default());
        assert!(matches!(exec.run(0.5), Err(ExecError::WallClock { .. })));
    }

    #[test]
    fn skim_disabled_times_out_on_nonterminating_refinement() {
        let src = "SKM end\nspin:\nADD r2, r2, #1\nB spin\nend:\nHALT";
        let core = Core::new(&assemble(src).unwrap(), CoreConfig::default()).unwrap();
        let mut exec =
            IntermittentExecutor::new(core, &rf_trace(6), supply_config(), Nvp::default());
        exec.set_skim_enabled(false);
        assert!(matches!(exec.run(2.0), Err(ExecError::WallClock { .. })));
    }

    #[test]
    fn skim_register_cleared_after_use() {
        let src = ".data\nout: .space 4\n.text\nSKM end\nspin:\nADD r2, r2, #1\nB spin\nend:\nHALT";
        let core = Core::new(&assemble(src).unwrap(), CoreConfig::default()).unwrap();
        let mut exec =
            IntermittentExecutor::new(core, &rf_trace(7), supply_config(), Nvp::default());
        let run = exec.run(3600.0).unwrap();
        assert!(run.skimmed);
        assert_eq!(exec.core().cpu.skm, None, "one-shot skim register");
    }

    #[test]
    fn watchdogless_clank_still_converges_via_store_checkpoints() {
        // With a huge watchdog, checkpoints come only from WAR violations
        // (the STR/LDR pattern of the loop) — progress must still happen.
        let core = Core::new(&long_program(50_000), CoreConfig::default()).unwrap();
        let clank = Clank::new(ClankConfig {
            watchdog_cycles: u64::MAX,
            ..ClankConfig::default()
        });
        let mut exec = IntermittentExecutor::new(core, &rf_trace(8), supply_config(), clank);
        let run = exec.run(3600.0).unwrap();
        assert!(run.substrate.violation_checkpoints > 0);
    }

    #[test]
    fn epoch_engine_matches_reference_engine() {
        // The same program, trace and substrate through both engines:
        // outage placement, cycle accounting, timing and final memory
        // must agree exactly (times bitwise — the lease scheduler's
        // settle path reproduces the reference float arithmetic).
        for seed in 0..4 {
            let program = long_program(120_000);
            let mut epoch = IntermittentExecutor::new(
                Core::new(&program, CoreConfig::default()).unwrap(),
                &rf_trace(seed),
                supply_config(),
                Clank::default(),
            );
            let mut reference = IntermittentExecutor::new(
                Core::new(&program, CoreConfig::default()).unwrap(),
                &rf_trace(seed),
                supply_config(),
                Clank::default(),
            );
            let a = epoch.run(3600.0).unwrap();
            let b = reference.run_reference(3600.0).unwrap();
            assert!(a.outages > 0, "seed {seed}: must span outages");
            assert_eq!(a.outages, b.outages, "seed {seed}");
            assert_eq!(a.active_cycles, b.active_cycles, "seed {seed}");
            assert_eq!(a.skimmed, b.skimmed, "seed {seed}");
            assert_eq!(a.substrate, b.substrate, "seed {seed}");
            assert_eq!(
                a.total_time_s.to_bits(),
                b.total_time_s.to_bits(),
                "seed {seed}"
            );
            assert_eq!(a.on_time_s.to_bits(), b.on_time_s.to_bits(), "seed {seed}");
            assert_eq!(
                epoch.core().mem.load_u32(0).unwrap(),
                reference.core().mem.load_u32(0).unwrap(),
                "seed {seed}"
            );
            assert_eq!(epoch.core().stats, reference.core().stats, "seed {seed}");
        }
    }

    #[test]
    fn wall_clock_checked_before_first_wait() {
        // A supply whose clock already sits past the limit must error
        // without waiting for power at all.
        let core = Core::new(&long_program(10), CoreConfig::default()).unwrap();
        let mut supply = EnergySupply::new(rf_trace(1), supply_config());
        supply.idle(2.0); // advance past the limit while dark
        let mut exec = IntermittentExecutor::with_supply(core, supply, Nvp::default());
        assert!(matches!(exec.run(1.0), Err(ExecError::WallClock { .. })));
    }

    #[test]
    fn nan_and_negative_limits_are_rejected_up_front() {
        let mk = || {
            let core = Core::new(&long_program(10), CoreConfig::default()).unwrap();
            IntermittentExecutor::new(core, &rf_trace(1), supply_config(), Nvp::default())
        };
        for bad in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            assert!(
                matches!(mk().run(bad), Err(ExecError::InvalidLimit { .. })),
                "run({bad}) must be rejected"
            );
            assert!(
                matches!(mk().run_reference(bad), Err(ExecError::InvalidLimit { .. })),
                "run_reference({bad}) must be rejected"
            );
            let mut sink = wn_telemetry::RingBufferSink::new(4);
            assert!(
                matches!(
                    mk().run_with_sink(bad, &mut sink),
                    Err(ExecError::InvalidLimit { .. })
                ),
                "run_with_sink({bad}) must be rejected"
            );
            assert_eq!(sink.recorded(), 0, "rejected before any event");
        }
        // Zero and +infinity are legitimate budgets: zero times out
        // (rather than erroring as invalid), infinity means "no limit".
        assert!(matches!(mk().run(0.0), Err(ExecError::WallClock { .. })));
        assert!(mk().run(f64::INFINITY).is_ok());
    }

    #[test]
    fn cycles_until_limit_saturation_boundaries() {
        let supply = EnergySupply::new(rf_trace(1), supply_config());
        assert_eq!(supply.time_s(), 0.0);
        let clock = supply.config().clock_hz;

        // Expired or exactly-met limits grant nothing.
        assert_eq!(cycles_until_limit(&supply, 0.0), 0);
        assert_eq!(cycles_until_limit(&supply, -1.0), 0);
        // NaN reaches the guard (not the cast) and grants nothing —
        // the cast would turn NaN into an eternal 1-cycle lease.
        assert_eq!(cycles_until_limit(&supply, f64::NAN), 0);

        // Far-away limits saturate at u64::MAX instead of overflowing.
        assert_eq!(cycles_until_limit(&supply, f64::MAX), u64::MAX);
        assert_eq!(cycles_until_limit(&supply, f64::INFINITY), u64::MAX);
        // The saturation threshold itself: a limit of exactly
        // u64::MAX cycles (as f64) takes the saturating branch...
        assert_eq!(
            cycles_until_limit(&supply, (u64::MAX as f64) / clock),
            u64::MAX
        );
        // ...while just below it the cast+round-up path stays in range.
        let below = (u64::MAX as f64) * 0.999 / clock;
        let c = cycles_until_limit(&supply, below);
        assert!(c < u64::MAX, "non-saturating path must not clamp");
        assert!(c > (u64::MAX / 2), "but must still be astronomically large");

        // A subnormal sliver of remaining time still rounds up to a
        // 1-cycle lease, so the final lease can cross the limit.
        assert_eq!(cycles_until_limit(&supply, f64::MIN_POSITIVE), 1);
        assert_eq!(cycles_until_limit(&supply, 5e-324), 1);
        // One cycle's worth of time leases one cycle plus round-up.
        assert_eq!(cycles_until_limit(&supply, 1.0 / clock), 2);
    }

    /// Writes a coarse output, arms a skim point, then refines for a
    /// long stretch — outage-prone runs complete via the skim jump.
    fn skim_program(n: u32) -> wn_isa::Program {
        let src = format!(
            ".data\nout: .space 8\n.text\nMOV r0, =out\nMOV r1, #1\nSTR r1, [r0, #0]\nSKM end\nMOV r2, #0\nloop:\nLDR r1, [r0, #0]\nADD r1, r1, r2\nSTR r1, [r0, #0]\nADD r2, r2, #1\nCMP r2, #{n}\nBLT loop\nend:\nHALT"
        );
        assemble(&src).unwrap()
    }

    #[test]
    fn traced_run_matches_untraced_and_captures_lifecycle() {
        fn check<S: Substrate + Clone>(
            program: &wn_isa::Program,
            substrate: S,
            ctx: &str,
        ) -> IntermittentRun {
            use wn_telemetry::RingBufferSink;

            let mut plain = IntermittentExecutor::new(
                Core::new(program, CoreConfig::default()).unwrap(),
                &rf_trace(3),
                supply_config(),
                substrate.clone(),
            );
            let untraced = plain.run(3600.0).unwrap();

            let mut traced = IntermittentExecutor::new(
                Core::new(program, CoreConfig::default()).unwrap(),
                &rf_trace(3),
                supply_config(),
                substrate,
            );
            let mut sink = RingBufferSink::new(1 << 16);
            let run = traced.run_with_sink(3600.0, &mut sink).unwrap();

            // Tracing only observes: bit-identical outcome, and the
            // traced run dispatches fused blocks like the untraced one.
            assert_eq!(run, untraced, "{ctx}");
            assert_eq!(traced.core().mem, plain.core().mem, "{ctx}");
            assert_eq!(traced.core().stats, plain.core().stats, "{ctx}");
            assert!(
                traced.core().fused_instructions() > 0,
                "{ctx}: no fused blocks"
            );
            assert!(run.outages > 0, "{ctx}: must span outages");

            // The event stream is coherent with the scalar outcome.
            let count = |kind: &EventKind| sink.count_of(kind.index());
            assert_eq!(count(&EventKind::RunStart), 1, "{ctx}");
            let end = EventKind::RunEnd {
                skimmed: run.skimmed,
            };
            assert_eq!(count(&end), 1, "{ctx}");
            assert_eq!(count(&EventKind::Outage), run.outages, "{ctx}");
            // One power-on per boot: the initial one plus one per outage.
            assert_eq!(
                count(&EventKind::PowerOn { waited_s: 0.0 }),
                run.outages + 1,
                "{ctx}"
            );
            // Every checkpoint the substrate counted was attributed.
            assert_eq!(
                count(&EventKind::Checkpoint {
                    cause: wn_telemetry::CheckpointCause::Other,
                    words: 0,
                }),
                run.substrate.checkpoints,
                "{ctx}"
            );
            assert!(run.substrate.checkpoints > 0, "{ctx}");
            // Restores: one per power-on (none browned out mid-restore here).
            assert_eq!(
                count(&EventKind::Restore { cost_cycles: 0 }),
                run.outages + 1,
                "{ctx}"
            );
            // Every post-outage restore reports the skim path: taken
            // once by a skimmed run, skipped otherwise.
            let taken = u64::from(run.skimmed);
            assert_eq!(count(&EventKind::SkimTaken { target: 0 }), taken, "{ctx}");
            assert_eq!(count(&EventKind::SkimSkipped), run.outages - taken, "{ctx}");
            // Lease accounting: grants happened, and the bulk path retired
            // no more than the core's total instructions.
            assert!(count(&EventKind::LeaseGrant { cycles: 0 }) > 0, "{ctx}");
            let settled: u64 = sink
                .events()
                .filter_map(|e| match e.kind {
                    EventKind::LeaseSettled { instructions, .. } => Some(instructions),
                    _ => None,
                })
                .sum();
            assert!(settled > 0, "{ctx}");
            assert!(settled <= traced.core().stats.instructions, "{ctx}");
            // Timestamps are monotonically non-decreasing.
            let mut last = 0.0;
            for e in sink.events() {
                assert!(e.t_s >= last, "{ctx}: event {e:?} went back in time");
                last = e.t_s;
            }
            run
        }

        let program = long_program(120_000);
        assert!(!check(&program, Clank::default(), "clank").skimmed);
        assert!(!check(&program, Nvp::default(), "nvp").skimmed);
        let skim = skim_program(400_000);
        assert!(check(&skim, Clank::default(), "clank skim").skimmed);
        assert!(check(&skim, Nvp::default(), "nvp skim").skimmed);
    }

    #[test]
    fn traced_skim_run_emits_skim_taken() {
        use wn_telemetry::RingBufferSink;

        let src = ".data\nout: .space 4\n.text\nMOV r0, =out\nMOV r1, #1\nSTR r1, [r0, #0]\nSKM end\nspin:\nADD r2, r2, #1\nSTR r2, [r0, #0]\nLDR r3, [r0, #0]\nB spin\nend:\nHALT";
        let core = Core::new(&wn_isa::asm::assemble(src).unwrap(), CoreConfig::default()).unwrap();
        let mut exec =
            IntermittentExecutor::new(core, &rf_trace(5), supply_config(), Nvp::default());
        let mut sink = RingBufferSink::new(4096);
        let run = exec.run_with_sink(3600.0, &mut sink).unwrap();
        assert!(run.skimmed);
        assert_eq!(sink.count_of(EventKind::SkimTaken { target: 0 }.index()), 1);
        let end = sink
            .events()
            .find(|e| matches!(e.kind, EventKind::RunEnd { .. }))
            .unwrap();
        assert_eq!(end.kind, EventKind::RunEnd { skimmed: true });
    }

    #[test]
    fn precise_and_wn_track_time_budgets() {
        let core = Core::new(&long_program(10_000), CoreConfig::default()).unwrap();
        let mut exec =
            IntermittentExecutor::new(core, &rf_trace(9), supply_config(), Nvp::default());
        let run = exec.run(3600.0).unwrap();
        assert!(run.on_time_s > 0.0);
        assert!(run.active_cycles > 10_000);
    }
}
