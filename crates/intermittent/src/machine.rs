//! What retires instructions under the intermittent executor: a live
//! [`Core`], or a [`TapeCursor`] replaying a cohort's recorded
//! fault-free trajectory.
//!
//! ## Why a shared tape works
//!
//! Neither checkpoint substrate ever perturbs architectural state
//! relative to fault-free execution. Clank rolls memory and registers
//! back to exactly what its last checkpoint captured, then re-executes
//! the same instructions; NVP persists exactly the state the outage
//! interrupted. So every device running the same program over the same
//! input retires (a sliced, partially re-executed view of) the *same*
//! instruction sequence. A fleet cohort is precisely that: one compiled
//! program, one input image, devices differing only in their power
//! environment.
//!
//! [`ExecutionTape`] records that sequence once. A [`TapeCursor`] then
//! retires instructions by reading the tape's cost/kind/word rows
//! instead of decoding and executing them, and a checkpoint it saves is
//! a tape *position* where a core saves a [`wn_sim::CpuSnapshot`]. The
//! executor, the substrates and the energy supply run unchanged on top
//! of either [`Machine`], so the supply sees the identical sequence of
//! float operations and the substrate charges the identical costs.
//! Fused-block admission consults the master core's own fused table
//! ([`Core::fused_summary`]) with the same saturating worst-case
//! arithmetic as [`Core::run_steps_hooked`], so block dispatch
//! decisions — and therefore the settle-vs-consume split — match too.
//!
//! ## Leaving the tape
//!
//! The one event that leaves the shared trajectory is a taken skim
//! jump: after it the device executes instructions the tape never
//! recorded. When the executor takes an armed skim point on a cursor,
//! the cursor rebuilds the device's core at its restored position with
//! [`ExecutionTape::reconstruct`] and from then on forwards every call
//! to that core. The executor's loop carries on as if it had driven a
//! core all along.
//!
//! ## What a tape cannot see
//!
//! A cursor has no register values, so a checkpoint taken on it cannot
//! count its dirty words: [`Machine::save`] reports none, and the
//! `checkpoint_words_saved` counter undercounts on a tape. Callers that
//! charge per word (Clank's `cycles_per_checkpoint_word`) or report word
//! counts must drive a core; the fleet planner does.

use wn_sim::tape::{ExecutionTape, TapeKind, WalkCache};
use wn_sim::{
    BulkRun, Core, CpuSnapshot, HookBreak, MemAccess, SimError, StepEvent, StepHook, StepInfo,
    StopReason,
};

use crate::checkpoint::DiffCheckpoint;

/// A substrate's non-volatile copy of processor state, written and read
/// through a [`Machine`].
#[derive(Debug, Clone)]
pub enum NvState {
    /// Registers, PC and flags, stored differentially: what a core
    /// saves. An empty [`DiffCheckpoint`] (nothing saved yet) restores
    /// as a cold boot from the program entry.
    Cpu(DiffCheckpoint),
    /// The tape position execution resumes from: what a cursor saves.
    Tape(usize),
}

impl Default for NvState {
    fn default() -> NvState {
        NvState::Cpu(DiffCheckpoint::new())
    }
}

/// What the intermittent executor drives: it retires instructions, and
/// it saves, restores and loses processor state on a substrate's
/// behalf.
pub trait Machine: Sized {
    /// Retires one instruction.
    ///
    /// # Errors
    ///
    /// Any [`SimError`] the instruction raises.
    fn step(&mut self) -> Result<StepInfo, SimError>;

    /// Retires instructions in bulk under `hook`, with
    /// [`Core::run_steps_hooked`]'s budget and block-admission contract.
    ///
    /// # Errors
    ///
    /// As [`Core::run_steps_hooked`].
    fn run_steps_hooked<H: StepHook<Self> + StepHook>(
        &mut self,
        budget: u64,
        hook: &mut H,
    ) -> Result<BulkRun, SimError>;

    /// Whether the program has executed `HALT`.
    fn is_halted(&self) -> bool;

    /// The largest cycle cost one instruction can have.
    fn max_instr_cycles(&self) -> u64;

    /// The program counter (after the last retired instruction).
    fn pc(&self) -> u32;

    /// Takes an armed skim point: clears the non-volatile SKM register
    /// and jumps to its target, which it returns. `None` when no skim
    /// point is armed.
    ///
    /// # Errors
    ///
    /// A [`SimError`] if the machine cannot rebuild the state it jumps
    /// from.
    fn take_skim(&mut self) -> Result<Option<u32>, SimError>;

    /// Saves processor state into `nv`; returns the words written (0
    /// where they are not observable).
    fn save(&self, nv: &mut NvState) -> u64;

    /// Reloads processor state from `nv`, or cold-boots at the program
    /// entry when nothing was saved.
    fn restore(&mut self, nv: &NvState);

    /// Appends the store `access` to `undo`, the log
    /// [`Machine::roll_back`] undoes. A machine without a memory image
    /// logs nothing.
    fn log_store(&self, undo: &mut Vec<MemAccess>, access: MemAccess);

    /// Undoes `undo` (the stores since the last checkpoint) in reverse,
    /// emptying it.
    fn roll_back(&mut self, undo: &mut Vec<MemAccess>);

    /// Power loss: volatile processor state is gone, the SKM register
    /// survives.
    fn power_loss(&mut self);
}

impl Machine for Core {
    fn step(&mut self) -> Result<StepInfo, SimError> {
        Core::step(self)
    }

    fn run_steps_hooked<H: StepHook<Self> + StepHook>(
        &mut self,
        budget: u64,
        hook: &mut H,
    ) -> Result<BulkRun, SimError> {
        Core::run_steps_hooked(self, budget, hook)
    }

    fn is_halted(&self) -> bool {
        Core::is_halted(self)
    }

    fn max_instr_cycles(&self) -> u64 {
        self.config().cycle_model.max_instr_cycles()
    }

    fn pc(&self) -> u32 {
        self.cpu.pc
    }

    fn take_skim(&mut self) -> Result<Option<u32>, SimError> {
        let target = self.cpu.skm.take();
        if let Some(target) = target {
            self.cpu.pc = target;
        }
        Ok(target)
    }

    fn save(&self, nv: &mut NvState) -> u64 {
        let snap = self.cpu.snapshot();
        match nv {
            NvState::Cpu(ckpt) => ckpt.capture(snap),
            NvState::Tape(_) => {
                let mut ckpt = DiffCheckpoint::new();
                let words = ckpt.capture(snap);
                *nv = NvState::Cpu(ckpt);
                words
            }
        }
    }

    fn restore(&mut self, nv: &NvState) {
        let snap = match nv {
            NvState::Cpu(ckpt) => ckpt.restore(),
            NvState::Tape(pos) => panic!("tape position {pos} restored on a core"),
        };
        match snap {
            Some(snap) => self.cpu.restore(&snap),
            None => {
                self.cpu.pc = self.program().entry;
                self.cpu.halted = false;
            }
        }
    }

    #[inline]
    fn log_store(&self, undo: &mut Vec<MemAccess>, access: MemAccess) {
        undo.push(access);
    }

    fn roll_back(&mut self, undo: &mut Vec<MemAccess>) {
        for access in undo.drain(..).rev() {
            let r = match access.size {
                1 => self.mem.store_u8(access.addr, access.prev as u8),
                2 => self.mem.store_u16(access.addr, access.prev as u16),
                _ => self.mem.store_u32(access.addr, access.prev),
            };
            debug_assert!(
                r.is_ok(),
                "rollback of a previously successful store cannot fail"
            );
        }
    }

    fn power_loss(&mut self) {
        self.cpu.power_loss();
    }
}

/// A [`Machine`] that retires a cohort's recorded trajectory: the
/// [`ExecutionTape`] supplies each step's cost and memory-op class, the
/// master core supplies the fused-block table. See the module docs.
#[derive(Debug)]
pub struct TapeCursor<'a> {
    tape: &'a ExecutionTape,
    /// The cohort's pristine core: consulted for its fused-block table
    /// and cycle model, and cloned (through `cache`) when the device
    /// leaves the tape.
    master: &'a Core,
    cache: &'a WalkCache,
    /// Steps of the tape retired so far (the next step to retire).
    pos: usize,
    halted: bool,
    /// The non-volatile SKM register.
    skm: Option<u32>,
    /// The device's own core, once a skim jump has left the tape, with
    /// the tape position and register state it was rebuilt at — the
    /// state a restore of that position returns to.
    left: Option<(Core, usize, CpuSnapshot)>,
}

impl<'a> TapeCursor<'a> {
    /// A cursor at the start of `tape`, which must have been recorded
    /// from a clone of `master`. `cache` must serve this (master, tape)
    /// pair only (see [`ExecutionTape::reconstruct`]).
    pub fn new(tape: &'a ExecutionTape, master: &'a Core, cache: &'a WalkCache) -> Self {
        TapeCursor {
            tape,
            master,
            cache,
            pos: 0,
            halted: false,
            skm: None,
            left: None,
        }
    }

    /// The device's core if a skim jump took it off the tape; `None`
    /// when it retired the tape itself, so its final state is the
    /// master trajectory's.
    pub fn into_core(self) -> Option<Core> {
        self.left.map(|(core, _, _)| core)
    }

    /// Retires tape step `self.pos` (the cursor is on the tape).
    #[inline]
    fn retire(&mut self) -> StepInfo {
        let (tape, pos) = (self.tape, self.pos);
        let (access, event) = match tape.kind(pos) {
            TapeKind::None => (None, StepEvent::None),
            TapeKind::Read => (Some(MemAccess::read(tape.word(pos), 4)), StepEvent::None),
            TapeKind::Write => (
                Some(MemAccess::write(tape.word(pos), 4, 0)),
                StepEvent::None,
            ),
            TapeKind::Skim => {
                let target = tape.skim(pos);
                self.skm = Some(target);
                (None, StepEvent::SkimSet(target))
            }
            TapeKind::Halt => (None, StepEvent::Halted),
        };
        // HALT keeps its pc: a checkpoint taken on it captures the halt
        // site, exactly as on a core.
        if event == StepEvent::Halted {
            self.halted = true;
        } else {
            self.pos += 1;
        }
        StepInfo {
            cycles: tape.cost(pos),
            access,
            event,
        }
    }
}

impl Machine for TapeCursor<'_> {
    #[inline]
    fn step(&mut self) -> Result<StepInfo, SimError> {
        match &mut self.left {
            Some((core, _, _)) => core.step(),
            None => Ok(self.retire()),
        }
    }

    fn run_steps_hooked<H: StepHook<Self> + StepHook>(
        &mut self,
        budget: u64,
        hook: &mut H,
    ) -> Result<BulkRun, SimError> {
        if let Some((core, _, _)) = &mut self.left {
            return core.run_steps_hooked(budget, hook);
        }
        let (tape, master) = (self.tape, self.master);
        let mut cycles = 0u64;
        let mut instructions = 0u64;
        // The position lives in a register across fused blocks and is
        // written back before every single step, which the hook
        // observes through `self`.
        let mut pos = self.pos;
        let stop = loop {
            if self.halted {
                break StopReason::Halted;
            }
            if cycles >= budget {
                break StopReason::Budget;
            }
            if let Some((len, block_cycles, tail_max)) = master.fused_summary(tape.pc(pos)) {
                let len = len as usize;
                let overhead = StepHook::<Self>::block_instr_overhead(hook);
                let worst = block_cycles
                    .saturating_add(tail_max)
                    .saturating_add((len as u64).saturating_mul(overhead));
                if worst <= (budget - cycles).min(StepHook::<Self>::block_budget(hook)) {
                    // The tape's costs are *actual* (a taken tail's
                    // extra folded into the final element), so handing
                    // them over with `tail_extra = 0` settles
                    // element-for-element what a core's (base costs,
                    // actual tail_extra) call settles.
                    let span = tape.span_cycles(pos, pos + len);
                    let extra = StepHook::<Self>::on_block(
                        hook,
                        tape.costs_in(pos, len),
                        span,
                        0,
                        tape.loads_in(pos, len),
                    );
                    pos += len;
                    instructions += len as u64;
                    cycles += span + extra;
                    continue;
                }
            }
            self.pos = pos;
            let info = self.retire();
            pos = self.pos;
            cycles += info.cycles;
            instructions += 1;
            match StepHook::<Self>::on_step(hook, self, &info) {
                std::ops::ControlFlow::Continue(extra) => cycles += extra,
                std::ops::ControlFlow::Break(HookBreak::Stop) => break StopReason::Hook,
                std::ops::ControlFlow::Break(HookBreak::Boundary) => break StopReason::Boundary,
            }
        };
        self.pos = pos;
        Ok(BulkRun {
            cycles,
            instructions,
            stop,
        })
    }

    #[inline]
    fn is_halted(&self) -> bool {
        match &self.left {
            Some((core, _, _)) => core.is_halted(),
            None => self.halted,
        }
    }

    fn max_instr_cycles(&self) -> u64 {
        self.master.max_instr_cycles()
    }

    #[inline]
    fn pc(&self) -> u32 {
        match &self.left {
            Some((core, _, _)) => core.cpu.pc,
            None => self.tape.pc(self.pos),
        }
    }

    fn take_skim(&mut self) -> Result<Option<u32>, SimError> {
        if let Some((core, _, _)) = &mut self.left {
            return core.take_skim();
        }
        let Some(target) = self.skm.take() else {
            return Ok(None);
        };
        // The master trajectory at the restored position is exactly the
        // state the checkpoint / NV snapshot holds: Clank rolled memory
        // back to it, NVP persisted it. The shared cache lets the
        // cohort's diverging devices walk from the nearest snapshot.
        let mut core = self.tape.reconstruct(self.master, self.pos, self.cache)?;
        let snap = core.cpu.snapshot();
        core.cpu.skm = None;
        core.cpu.pc = target;
        self.left = Some((core, self.pos, snap));
        Ok(Some(target))
    }

    #[inline]
    fn save(&self, nv: &mut NvState) -> u64 {
        match &self.left {
            Some((core, _, _)) => core.save(nv),
            None => {
                *nv = NvState::Tape(self.pos);
                0
            }
        }
    }

    #[inline]
    fn restore(&mut self, nv: &NvState) {
        match (&mut self.left, nv) {
            (Some((core, at, snap)), NvState::Tape(pos)) => {
                debug_assert_eq!(pos, at, "the only tape state left to restore");
                core.cpu.restore(snap);
            }
            (Some((core, _, _)), nv) => core.restore(nv),
            (None, NvState::Tape(pos)) => {
                self.pos = *pos;
                self.halted = false;
            }
            (None, NvState::Cpu(ckpt)) => {
                debug_assert!(!ckpt.is_some(), "register state restored on a tape");
                self.pos = 0;
                self.halted = false;
            }
        }
    }

    // The tape holds no memory image: the restore position alone
    // determines it, so there is nothing to log or undo.
    #[inline]
    fn log_store(&self, undo: &mut Vec<MemAccess>, access: MemAccess) {
        if let Some((core, _, _)) = &self.left {
            core.log_store(undo, access);
        }
    }

    #[inline]
    fn roll_back(&mut self, undo: &mut Vec<MemAccess>) {
        if let Some((core, _, _)) = &mut self.left {
            core.roll_back(undo);
        }
    }

    #[inline]
    fn power_loss(&mut self) {
        match &mut self.left {
            Some((core, _, _)) => core.power_loss(),
            None => self.halted = false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clank::Clank;
    use crate::executor::{ExecError, IntermittentExecutor, IntermittentRun};
    use crate::nvp::Nvp;
    use crate::substrate::Substrate;
    use wn_energy::{EnergySupply, PowerTrace, SupplyConfig, TraceKind};
    use wn_isa::asm::assemble;
    use wn_sim::CoreConfig;

    fn rf_trace(seed: u64) -> PowerTrace {
        PowerTrace::generate(TraceKind::RfBursty, seed, 120.0)
    }

    /// LDR/ADD/STR accumulator loop — WAR checkpoints every iteration.
    fn accumulate_program(n: u32) -> wn_isa::Program {
        let src = format!(
            ".data\nout: .space 8\n.text\nMOV r0, =out\nMOV r2, #0\nloop:\nLDR r1, [r0, #0]\nADD r1, r1, r2\nSTR r1, [r0, #0]\nADD r2, r2, #1\nCMP r2, #{n}\nBLT loop\nHALT"
        );
        assemble(&src).unwrap()
    }

    /// Writes a coarse output, arms a skim point, then refines for a
    /// long stretch — outage-prone runs complete via the skim jump.
    fn skim_program(n: u32) -> wn_isa::Program {
        let src = format!(
            ".data\nout: .space 8\n.text\nMOV r0, =out\nMOV r1, #1\nSTR r1, [r0, #0]\nSKM end\nMOV r2, #0\nloop:\nLDR r1, [r0, #0]\nADD r1, r1, r2\nSTR r1, [r0, #0]\nADD r2, r2, #1\nCMP r2, #{n}\nBLT loop\nend:\nHALT"
        );
        assemble(&src).unwrap()
    }

    fn fresh_core(program: &wn_isa::Program) -> Core {
        Core::new(program, CoreConfig::default()).unwrap()
    }

    fn assert_runs_match(a: &IntermittentRun, b: &IntermittentRun, ctx: &str) {
        assert_eq!(a.skimmed, b.skimmed, "{ctx}: skimmed");
        assert_eq!(a.outages, b.outages, "{ctx}: outages");
        assert_eq!(a.active_cycles, b.active_cycles, "{ctx}: active_cycles");
        assert_eq!(
            a.total_time_s.to_bits(),
            b.total_time_s.to_bits(),
            "{ctx}: total_time_s"
        );
        assert_eq!(
            a.on_time_s.to_bits(),
            b.on_time_s.to_bits(),
            "{ctx}: on_time_s"
        );
        assert_eq!(
            a.substrate.overhead_cycles, b.substrate.overhead_cycles,
            "{ctx}: overhead"
        );
        assert_eq!(
            a.substrate.lost_cycles, b.substrate.lost_cycles,
            "{ctx}: lost"
        );
        assert_eq!(
            a.substrate.checkpoints, b.substrate.checkpoints,
            "{ctx}: checkpoints"
        );
        assert_eq!(
            a.substrate.violation_checkpoints, b.substrate.violation_checkpoints,
            "{ctx}: violation_checkpoints"
        );
        assert_eq!(
            a.substrate.capacity_checkpoints, b.substrate.capacity_checkpoints,
            "{ctx}: capacity_checkpoints"
        );
        assert_eq!(
            a.substrate.watchdog_checkpoints, b.substrate.watchdog_checkpoints,
            "{ctx}: watchdog_checkpoints"
        );
    }

    fn record(program: &wn_isa::Program) -> (Core, ExecutionTape) {
        let master = fresh_core(program);
        let mut rec = master.clone();
        let tape = ExecutionTape::record(&mut rec, 10_000_000)
            .unwrap()
            .unwrap();
        (master, tape)
    }

    /// One device over the tape: the run, and the device's own core if
    /// a skim jump took it off the tape.
    fn replay<S: Substrate>(
        tape: &ExecutionTape,
        master: &Core,
        cache: &WalkCache,
        seed: u64,
        substrate: S,
        limit_s: f64,
    ) -> Result<(IntermittentRun, Option<Core>), ExecError> {
        let supply = EnergySupply::new(rf_trace(seed), SupplyConfig::default());
        let cursor = TapeCursor::new(tape, master, cache);
        let mut exec = IntermittentExecutor::with_supply(cursor, supply, substrate);
        let run = exec.run(limit_s)?;
        Ok((run, exec.into_parts().0.into_core()))
    }

    #[test]
    fn clank_replay_matches_scalar_across_seeds() {
        let program = accumulate_program(120_000);
        let (master, tape) = record(&program);
        for seed in 0..6 {
            let mut scalar = IntermittentExecutor::new(
                fresh_core(&program),
                &rf_trace(seed),
                SupplyConfig::default(),
                Clank::default(),
            );
            let want = scalar.run(3600.0).unwrap();
            let (got, core) = replay(
                &tape,
                &master,
                &WalkCache::new(),
                seed,
                Clank::default(),
                3600.0,
            )
            .unwrap();
            assert!(want.outages > 0, "seed {seed}: must span outages");
            assert!(!want.skimmed, "no SKM in this program");
            assert!(core.is_none(), "completed on tape");
            assert_runs_match(&got, &want, &format!("clank seed {seed}"));
        }
    }

    #[test]
    fn nvp_replay_matches_scalar_across_seeds() {
        let program = accumulate_program(120_000);
        let (master, tape) = record(&program);
        for seed in 0..6 {
            let mut scalar = IntermittentExecutor::new(
                fresh_core(&program),
                &rf_trace(seed),
                SupplyConfig::default(),
                Nvp::default(),
            );
            let want = scalar.run(3600.0).unwrap();
            let (got, _core) = replay(
                &tape,
                &master,
                &WalkCache::new(),
                seed,
                Nvp::default(),
                3600.0,
            )
            .unwrap();
            assert!(want.outages > 0, "seed {seed}: must span outages");
            assert_runs_match(&got, &want, &format!("nvp seed {seed}"));
        }
    }

    #[test]
    fn skim_handoff_matches_scalar_for_both_substrates() {
        let program = skim_program(400_000);
        let (master, tape) = record(&program);
        // One cache across all seeds, as in a fleet cohort: later seeds
        // reconstruct from snapshots populated by earlier ones, and must
        // still match the scalar engine bit for bit.
        let cache = WalkCache::new();
        let mut handoffs = 0;
        for seed in 0..6 {
            // Clank.
            let mut scalar = IntermittentExecutor::new(
                fresh_core(&program),
                &rf_trace(seed),
                SupplyConfig::default(),
                Clank::default(),
            );
            let want = scalar.run(3600.0).unwrap();
            let (got, core) =
                replay(&tape, &master, &cache, seed, Clank::default(), 3600.0).unwrap();
            assert_runs_match(&got, &want, &format!("clank skim seed {seed}"));
            if want.skimmed {
                handoffs += 1;
                let core = core.expect("skimmed ⇒ left the tape");
                assert_eq!(
                    core.mem.load_u32(0).unwrap(),
                    scalar.core().mem.load_u32(0).unwrap(),
                    "clank skim seed {seed}: final output"
                );
                assert_eq!(core.stats, scalar.core().stats, "clank stats seed {seed}");
            }

            // NVP.
            let mut scalar = IntermittentExecutor::new(
                fresh_core(&program),
                &rf_trace(seed),
                SupplyConfig::default(),
                Nvp::default(),
            );
            let want = scalar.run(3600.0).unwrap();
            let (got, core) = replay(&tape, &master, &cache, seed, Nvp::default(), 3600.0).unwrap();
            assert_runs_match(&got, &want, &format!("nvp skim seed {seed}"));
            if want.skimmed {
                let core = core.expect("skimmed ⇒ left the tape");
                assert_eq!(
                    core.mem.load_u32(0).unwrap(),
                    scalar.core().mem.load_u32(0).unwrap(),
                    "nvp skim seed {seed}: final output"
                );
            }
        }
        assert!(handoffs > 0, "test must exercise the handoff path");
    }

    #[test]
    fn wall_clock_errors_match_scalar() {
        let program = accumulate_program(200_000);
        let (master, tape) = record(&program);
        let limit = 0.002;
        let mut scalar = IntermittentExecutor::new(
            fresh_core(&program),
            &rf_trace(2),
            SupplyConfig::default(),
            Clank::default(),
        );
        let want = scalar.run(limit);
        let got = replay(
            &tape,
            &master,
            &WalkCache::new(),
            2,
            Clank::default(),
            limit,
        );
        match (want, got) {
            (Err(ExecError::WallClock { .. }), Err(ExecError::WallClock { .. })) => {}
            (w, g) => panic!("scalar {w:?} vs replay {g:?}"),
        }
    }
}
