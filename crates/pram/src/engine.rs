//! The synchronous PRAM engine.

use hmm_machine::isa::{Program, Space};
use hmm_machine::request::AccessKind;
use hmm_machine::vm::{lowest_fault, partition, GroupEffect, LaneState};
use hmm_machine::{abi, SimError, SimResult, Word};

/// Result of one PRAM run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PramReport {
    /// Synchronous steps until the last processor halted.
    pub time: u64,
    /// Instructions executed across all processors.
    pub instructions: u64,
    /// Number of processors.
    pub processors: usize,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Running,
    BarrierWait,
    Halted,
}

/// A PRAM with a given memory capacity. Memory persists across runs, like
/// [`hmm_machine::Engine`], so inputs are staged before a run and results
/// read afterwards.
pub struct Pram {
    memory: Vec<Word>,
    max_cycles: u64,
}

impl Pram {
    /// A PRAM with `size` words of shared memory.
    #[must_use]
    pub fn new(size: usize) -> Self {
        Self {
            memory: vec![0; size],
            max_cycles: u64::MAX,
        }
    }

    /// Abort runs that exceed `limit` steps.
    #[must_use]
    pub fn with_cycle_limit(mut self, limit: u64) -> Self {
        self.max_cycles = limit;
        self
    }

    /// The shared memory.
    #[must_use]
    pub fn memory(&self) -> &[Word] {
        &self.memory
    }

    /// Host-writable shared memory.
    pub fn memory_mut(&mut self) -> &mut [Word] {
        &mut self.memory
    }

    /// Run `program` on `p` processors with the given argument words.
    ///
    /// The ABI registers are preset as on the memory machines, with the
    /// whole PRAM acting as a single "DMM": `GID = LTID`, `DMM = 0`,
    /// `P = PD = p`, `W = p` (a PRAM has no warps; the full processor set
    /// accesses memory each step), `D = 1`, `L = 1`.
    ///
    /// # Errors
    /// Propagates [`SimError`] for bad addresses, deadlocks and limits.
    pub fn run(&mut self, program: &Program, p: usize, args: &[Word]) -> SimResult<PramReport> {
        if p == 0 {
            return Err(SimError::BadLaunch("PRAM run with zero processors".into()));
        }
        if args.len() > abi::NUM_ARGS {
            return Err(SimError::BadLaunch(format!(
                "{} argument words exceed the {} argument registers",
                args.len(),
                abi::NUM_ARGS
            )));
        }
        let mut lanes = LaneState::new(p, 0);
        for i in 0..p {
            lanes.set_reg(i, abi::GID, i as Word);
            lanes.set_reg(i, abi::LTID, i as Word);
            lanes.set_reg(i, abi::P, p as Word);
            lanes.set_reg(i, abi::PD, p as Word);
            lanes.set_reg(i, abi::W, p as Word);
            lanes.set_reg(i, abi::D, 1);
            lanes.set_reg(i, abi::L, 1);
            for (k, &a) in args.iter().enumerate() {
                lanes.set_reg(i, abi::arg(k), a);
            }
        }
        let mut status = vec![Status::Running; p];

        let mut report = PramReport {
            processors: p,
            ..PramReport::default()
        };
        let mut alive = p;
        let mut waiting = 0usize;
        // Processors that stored this step, applied in id order.
        let mut writers: Vec<usize> = Vec::new();
        // The running processors, grouped by pc in place.
        let mut running: Vec<usize> = Vec::with_capacity(p);
        let mut moved: Vec<usize> = Vec::new();
        let mut now: u64 = 0;
        while alive > 0 {
            if now >= self.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: self.max_cycles,
                });
            }
            writers.clear();
            running.clear();
            running.extend((0..p).filter(|&i| status[i] == Status::Running));
            // Step the processors one lane group (same PC) at a time, in
            // order of lowest processor; the error reported is the lowest
            // erring processor's, as in processor-by-processor execution.
            let mut fault = None;
            let mut start = 0;
            while start < running.len() {
                let pc = lanes.pc(running[start]);
                let end =
                    start + partition(&mut running[start..], &mut moved, |i| lanes.pc(i) == pc);
                let group = &running[start..end];
                start = end;
                report.instructions += group.len() as u64;
                let step = lanes.step_group(program, pc, group).and_then(|effect| {
                    match effect {
                        GroupEffect::Local => {}
                        GroupEffect::Mem(_) => self.serve(group, &mut lanes, &mut writers)?,
                        GroupEffect::Barrier(_) => {
                            for &i in group {
                                status[i] = Status::BarrierWait;
                            }
                            waiting += group.len();
                        }
                        GroupEffect::Halt => {
                            for &i in group {
                                status[i] = Status::Halted;
                            }
                            alive -= group.len();
                        }
                    }
                    Ok(())
                });
                fault = lowest_fault(fault, step.err());
            }
            if let Some((_, e)) = fault {
                return Err(e);
            }
            // End of step: apply writes (highest processor id last = wins).
            writers.sort_unstable();
            for &i in &writers {
                let req = lanes.req(i);
                self.memory[req.addr as usize] = req.value;
            }
            // Release the barrier once every live processor arrived.
            if waiting > 0 && waiting == alive {
                for st in &mut status {
                    if *st == Status::BarrierWait {
                        *st = Status::Running;
                    }
                }
                waiting = 0;
            } else if running.is_empty() && alive > 0 {
                return Err(SimError::Deadlock {
                    cycle: now,
                    waiting,
                });
            }
            now += 1;
        }
        report.time = now;
        Ok(report)
    }

    /// Serve a group's memory requests at unit cost: loads read the
    /// memory as it was at the start of the step, stores are queued in
    /// `writers`. Checks each lane's address in lane order.
    fn serve(
        &self,
        group: &[usize],
        lanes: &mut LaneState,
        writers: &mut Vec<usize>,
    ) -> Result<(), (usize, SimError)> {
        for &i in group {
            let req = *lanes.req(i);
            let size = self.memory.len();
            let addr = req.resolve(i).map_err(|e| (i, e))?;
            if addr >= size {
                let space = Space::Global;
                return Err((
                    i,
                    SimError::OutOfBounds {
                        thread: i,
                        space,
                        addr,
                        size,
                    },
                ));
            }
            match req.kind {
                AccessKind::Read => lanes.set_reg(i, req.dst, self.memory[addr]),
                AccessKind::Write => writers.push(i),
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_machine::isa::Reg;
    use hmm_machine::{abi, Asm};

    const T0: Reg = Reg(16);
    const T1: Reg = Reg(17);

    #[test]
    fn processors_run_synchronously() {
        let mut pram = Pram::new(16);
        let mut a = Asm::new();
        a.st_global(abi::GID, 0, abi::GID);
        a.halt();
        let rep = pram.run(&a.finish(), 8, &[]).unwrap();
        assert_eq!(&pram.memory()[..8], &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(rep.time, 2); // store + halt, unit-cost memory
        assert_eq!(rep.processors, 8);
    }

    #[test]
    fn concurrent_read_is_free_and_concurrent_write_is_arbitrary() {
        let mut pram = Pram::new(8);
        pram.memory_mut()[0] = 5;
        let mut a = Asm::new();
        a.ld_global(T0, 0, 0); // everyone reads cell 0
        a.st_global(1, 0, abi::GID); // everyone writes cell 1
        a.halt();
        let rep = pram.run(&a.finish(), 4, &[]).unwrap();
        assert_eq!(rep.time, 3);
        assert_eq!(pram.memory()[1], 3, "highest processor id wins");
    }

    /// PRAM reads in a step observe memory before that step's writes.
    #[test]
    fn reads_precede_writes_within_a_step() {
        let mut pram = Pram::new(8);
        pram.memory_mut()[0] = 1;
        pram.memory_mut()[1] = 2;
        // Processor 0: G[1] = G[0]; processor 1: G[0] = G[1] — a classic
        // synchronous swap (both loads at step 0, both stores at step 1).
        let mut a = Asm::new();
        let p1 = a.label();
        a.brnz(abi::GID, p1);
        a.ld_global(T0, 0, 0);
        a.st_global(1, 0, T0);
        a.halt();
        a.bind(p1);
        a.ld_global(T0, 1, 0);
        a.st_global(0, 0, T0);
        a.halt();
        pram.run(&a.finish(), 2, &[]).unwrap();
        assert_eq!(pram.memory()[0], 2);
        assert_eq!(pram.memory()[1], 1);
    }

    #[test]
    fn barrier_synchronises_all_processors() {
        let mut pram = Pram::new(8);
        // Processor 0 spins 10 iterations, everyone barriers, then each
        // reads the flag processor 0 set before the barrier.
        let mut a = Asm::new();
        let after = a.label();
        a.brnz(abi::GID, after);
        a.mov(T0, 10);
        let top = a.here();
        a.sub(T0, T0, 1);
        a.brnz(T0, top);
        a.st_global(0, 0, 42);
        a.bind(after);
        a.bar_global();
        a.ld_global(T0, 0, 0);
        a.st_global(abi::GID, 1, T0);
        a.halt();
        pram.run(&a.finish(), 4, &[]).unwrap();
        assert_eq!(&pram.memory()[1..5], &[42, 42, 42, 42]);
    }

    /// Processors at different PCs failing in one step: the lowest id
    /// wins even when it sits in a later lane group — here processor 1's
    /// out-of-bounds store beats processor 3's division by zero, though
    /// processor 3 shares its PC with processor 0.
    #[test]
    fn lowest_failing_processor_wins_across_pcs() {
        let mut pram = Pram::new(4);
        let mut a = Asm::new();
        let x = a.label();
        a.seq(T0, abi::GID, 0);
        a.seq(T1, abi::GID, 3);
        a.or(T0, T0, T1);
        a.brnz(T0, x);
        a.seq(T1, abi::GID, 1); // processors 1 and 2
        a.mul(T1, T1, 100);
        a.st_global(T1, 0, 1); // processor 1 stores to 100
        a.halt();
        a.bind(x);
        a.sub(T1, abi::GID, 3); // processors 0 and 3
        a.nop();
        a.div(T1, 1, T1); // processor 3 divides by zero
        a.halt();
        assert_eq!(
            pram.run(&a.finish(), 4, &[]),
            Err(SimError::OutOfBounds {
                thread: 1,
                space: hmm_machine::isa::Space::Global,
                addr: 100,
                size: 4
            })
        );
    }

    #[test]
    fn errors_surface() {
        let mut pram = Pram::new(4).with_cycle_limit(100);
        let mut a = Asm::new();
        a.ld_global(T0, 100, 0);
        a.halt();
        assert!(matches!(
            pram.run(&a.finish(), 1, &[]),
            Err(SimError::OutOfBounds { .. })
        ));
        let mut a = Asm::new();
        let top = a.here();
        a.jmp(top);
        assert!(matches!(
            pram.run(&a.finish(), 1, &[]),
            Err(SimError::CycleLimit { .. })
        ));
        assert!(matches!(
            pram.run(&Asm::new().finish(), 0, &[]),
            Err(SimError::BadLaunch(_))
        ));
    }
}
