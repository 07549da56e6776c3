//! The paper's PRAM algorithms (Section V), the baseline rows of Tables
//! I and II: the Lemma 3 sum, `O(n/p + log n)` steps (`p` strided
//! partial sums, then the pairwise tree of Figure 5), and the Lemma 4
//! direct convolution, `O(nk/p + log k)` steps (processor `i` evaluates
//! `c[i]`, `c[i + p]`, ...).
//!
//! The PRAM is a machine preset, not a simulator of its own:
//! [`Footprint::pram`] builds a UMM of latency 1 whose one warp holds
//! every processor and whose one address group holds every address, so
//! each step's accesses take one slot, reads see memory before the
//! step's writes, and the highest processor id wins a concurrent write
//! (CRCW). The runners reject any other machine with
//! [`SimError::BadLaunch`]. Where the model leaves a choice the engine's
//! rule holds (no paper kernel meets these): an instruction error of a
//! step is reported before an address error, `bar.dmm` and `bar.global`
//! are distinct barriers, and `W` reads the machine width, not `p`.

use hmm_machine::isa::Reg;
use hmm_machine::kbuild::{if_nonzero, strided_loop};
use hmm_machine::{abi, Asm, Kernel, LaunchShape, Machine, Program, SimError, SimResult, Word};

use crate::{convolution, next_pow2, run_staged, Footprint, Run};

const ACC: Reg = Reg(16);
const IDX: Reg = Reg(17);
const T0: Reg = Reg(18);
const T1: Reg = Reg(19);
const JJ: Reg = Reg(20);

/// The Lemma 3 kernel for `n` inputs and `p` processors: input at
/// `[0, n)`, partial sums at `[n, n + next_pow2(p))` (zeroed by the
/// host), the sum at `n` when it finishes.
#[must_use]
pub fn sum_kernel(n: usize, p: usize) -> Program {
    let mut a = Asm::new();
    a.mov(ACC, 0);
    strided_loop(&mut a, IDX, T0, abi::GID, n, abi::P, |a| {
        a.ld_global(T1, IDX, 0);
        a.add(ACC, ACC, T1);
    });
    a.st_global(abi::GID, n, ACC);
    a.bar_global();
    let mut h = next_pow2(p) / 2;
    while h >= 1 {
        a.slt(T0, abi::GID, h);
        if_nonzero(&mut a, T0, |a| {
            a.ld_global(T0, abi::GID, n);
            a.ld_global(T1, abi::GID, n + h);
            a.add(T0, T0, T1);
            a.st_global(abi::GID, n, T0);
        });
        a.bar_global();
        h /= 2;
    }
    a.halt();
    a.finish()
}

/// The Lemma 3 footprint: `n` inputs and `next_pow2(p)` partial sums,
/// with `p` clamped to `[1, n]` as in [`run_sum`].
#[must_use]
pub fn sum_footprint(n: usize, p: usize) -> Footprint {
    Footprint::new(n + next_pow2(p.clamp(1, n.max(1))), 0)
}

/// The Lemma 4 kernel: `a` (length `k`) at `[0, k)`, `b` (length
/// `n + k - 1`) right after it and `c` (length `n`) after `b`.
#[must_use]
pub fn convolution_kernel(n: usize, k: usize) -> Program {
    let c_base = k + n + k - 1;
    let mut a = Asm::new();
    strided_loop(&mut a, IDX, T0, abi::GID, n, abi::P, |a| {
        a.mov(ACC, 0);
        strided_loop(a, JJ, T0, 0, k, 1, |a| {
            a.ld_global(T0, JJ, 0); // a[j]
            a.add(T1, IDX, JJ);
            a.ld_global(T1, T1, k); // b[i + j]
            a.mul(T0, T0, T1);
            a.add(ACC, ACC, T0);
        });
        a.st_global(IDX, c_base, ACC);
    });
    a.halt();
    a.finish()
}

/// The Lemma 4 footprint: `a`, `b` and `c` in `2n + 2k − 1` words.
#[must_use]
pub fn conv_footprint(n: usize, k: usize) -> Footprint {
    convolution::footprint(n, k, None, 0)
}

/// Reject `machine` unless it is a PRAM of `p` processors for `need`.
fn check_pram(machine: &Machine, need: Footprint, p: usize) -> SimResult<()> {
    let (l, d, w) = (machine.latency(), machine.dmms(), machine.width());
    if l == 1 && d == 1 && w >= need.global.max(p) {
        return Ok(());
    }
    Err(SimError::BadLaunch(format!(
        "a PRAM of {p} processors over {} words needs l = 1, d = 1, w >= {}; \
         the machine has l = {l}, d = {d}, w = {w}",
        need.global,
        need.global.max(p)
    )))
}

/// Run the Lemma 3 sum of `input` with `p` processors, clamped to
/// `[1, n]`, on a PRAM from [`sum_footprint`].
///
/// # Errors
/// [`SimError::BadLaunch`] for any other machine; simulation errors.
pub fn run_sum(machine: &mut Machine, input: &[Word], p: usize) -> SimResult<Run<Word>> {
    let n = input.len();
    let p = p.clamp(1, n.max(1));
    let need = sum_footprint(n, p);
    check_pram(machine, need, p)?;
    let kernel = Kernel::new("pram-sum-lemma3", sum_kernel(n, p));
    run_staged(
        machine,
        need,
        &kernel,
        LaunchShape::Even(p),
        |g| g[..n].copy_from_slice(input),
        |g| g[n],
    )
}

/// Run the Lemma 4 convolution of `a` (length `k`) and `b` (length
/// `n + k - 1`) with `p` processors, clamped to `[1, n]`, on a PRAM from
/// [`conv_footprint`]; returns `c` of length `n`.
///
/// # Errors
/// [`SimError::BadLaunch`] for mismatched inputs or any other machine;
/// simulation errors.
pub fn run_convolution(
    machine: &mut Machine,
    a: &[Word],
    b: &[Word],
    p: usize,
) -> SimResult<Run<Vec<Word>>> {
    let (k, n) = convolution::shapes(a, b)?;
    let p = p.clamp(1, n);
    let need = conv_footprint(n, k);
    check_pram(machine, need, p)?;
    let kernel = Kernel::new("pram-conv-lemma4", convolution_kernel(n, k));
    convolution::run_conv(machine, a, b, need, &kernel, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_machine::isa::Space;
    use hmm_machine::SimReport;

    const T0: Reg = Reg(16);
    const T1: Reg = Reg(17);

    /// A PRAM of `p` processors with `size` words of memory.
    fn pram(size: usize, p: usize) -> Machine {
        Footprint::new(size, 0).pram(p)
    }

    /// Run the program built in `a` on `p` processors of `machine`.
    fn run(machine: &mut Machine, a: Asm, p: usize) -> SimResult<SimReport> {
        machine.launch(&Kernel::new("test", a.finish()), LaunchShape::Even(p))
    }

    fn seq_sum(xs: &[Word]) -> Word {
        xs.iter().copied().fold(0, Word::wrapping_add)
    }

    fn seq_conv(a: &[Word], b: &[Word]) -> Vec<Word> {
        let k = a.len();
        let n = b.len() + 1 - k;
        (0..n)
            .map(|i| (0..k).map(|j| a[j].wrapping_mul(b[i + j])).sum())
            .collect()
    }

    fn sum(input: &[Word], p: usize) -> Run<Word> {
        let mut m = sum_footprint(input.len(), p).pram(p);
        run_sum(&mut m, input, p).unwrap()
    }

    fn conv(a: &[Word], b: &[Word], p: usize) -> SimResult<Run<Vec<Word>>> {
        let n = (b.len() + 1).saturating_sub(a.len());
        let mut m = conv_footprint(n, a.len()).pram(p);
        run_convolution(&mut m, a, b, p)
    }

    #[test]
    fn processors_run_synchronously() {
        let mut m = pram(16, 8);
        let mut a = Asm::new();
        a.st_global(abi::GID, 0, abi::GID);
        a.halt();
        let rep = run(&mut m, a, 8).unwrap();
        assert_eq!(&m.global()[..8], &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(rep.time, 2); // store + halt, unit-cost memory
        assert_eq!(rep.threads, 8);
    }

    #[test]
    fn concurrent_read_is_free_and_concurrent_write_is_arbitrary() {
        let mut m = pram(8, 4);
        m.global_mut()[0] = 5;
        let mut a = Asm::new();
        a.ld_global(T0, 0, 0); // everyone reads cell 0
        a.st_global(1, 0, abi::GID); // everyone writes cell 1
        a.halt();
        let rep = run(&mut m, a, 4).unwrap();
        assert_eq!(rep.time, 3);
        assert_eq!(m.global()[1], 3, "highest processor id wins");
    }

    /// PRAM reads in a step observe memory before that step's writes.
    #[test]
    fn reads_precede_writes_within_a_step() {
        let mut m = pram(8, 2);
        m.global_mut()[0] = 1;
        m.global_mut()[1] = 2;
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
        run(&mut m, a, 2).unwrap();
        assert_eq!(m.global()[0], 2);
        assert_eq!(m.global()[1], 1);
    }

    #[test]
    fn barrier_synchronises_all_processors() {
        let mut m = pram(8, 4);
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
        run(&mut m, a, 4).unwrap();
        assert_eq!(&m.global()[1..5], &[42, 42, 42, 42]);
    }

    /// Processors at different PCs failing in one step with instruction
    /// errors: the lowest id wins even when it sits in a later lane group
    /// — here processor 1's division by zero beats processor 3's, though
    /// processor 3 shares its PC with processor 0.
    #[test]
    fn lowest_failing_processor_wins_across_pcs() {
        let mut m = pram(4, 4);
        let mut a = Asm::new();
        let x = a.label();
        a.seq(T0, abi::GID, 0);
        a.seq(T1, abi::GID, 3);
        a.or(T0, T0, T1);
        a.brnz(T0, x);
        a.sub(T1, abi::GID, 1); // processors 1 and 2
        a.nop();
        a.div(T1, 1, T1); // processor 1 divides by zero
        a.halt();
        a.bind(x);
        a.sub(T1, abi::GID, 3); // processors 0 and 3
        a.nop();
        a.div(T1, 1, T1); // processor 3 divides by zero
        a.halt();
        assert_eq!(
            run(&mut m, a, 4),
            Err(SimError::DivisionByZero { thread: 1, pc: 6 })
        );
    }

    /// An instruction error and an address error in one step: the
    /// instruction error is reported, whatever the processor ids — here
    /// processor 3's division by zero beats processor 1's out-of-bounds
    /// store, as on every memory machine.
    #[test]
    fn instruction_error_beats_address_error_across_pcs() {
        let mut m = pram(4, 4);
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
            run(&mut m, a, 4),
            Err(SimError::DivisionByZero { thread: 3, pc: 10 })
        );
        // Alone, the store fails as an out-of-bounds access.
        let mut a = Asm::new();
        a.seq(T1, abi::GID, 1);
        a.mul(T1, T1, 100);
        a.st_global(T1, 0, 1);
        a.halt();
        assert_eq!(
            run(&mut m, a, 4),
            Err(SimError::OutOfBounds {
                thread: 1,
                space: Space::Global,
                addr: 100,
                size: 4
            })
        );
    }

    /// `bar.dmm` and `bar.global` are distinct barriers: processors that
    /// wait at different ones never meet.
    #[test]
    fn mixed_barrier_scopes_deadlock() {
        let mut m = pram(4, 2);
        let mut a = Asm::new();
        let other = a.label();
        a.brnz(abi::GID, other);
        a.bar_dmm();
        a.halt();
        a.bind(other);
        a.bar_global();
        a.halt();
        assert_eq!(
            run(&mut m, a, 2),
            Err(SimError::Deadlock {
                cycle: 1,
                waiting: 2
            })
        );
    }

    /// `W` holds the machine's width, which [`Footprint::pram`] rounds up
    /// to a power of two covering the memory and the processors.
    #[test]
    fn w_is_the_machine_width() {
        let mut m = pram(8, 3);
        let mut a = Asm::new();
        a.st_global(abi::GID, 0, abi::W);
        a.halt();
        run(&mut m, a, 3).unwrap();
        assert_eq!(&m.global()[..3], &[8, 8, 8]);
    }

    #[test]
    fn errors_surface() {
        let mut m = pram(4, 1).with_cycle_limit(100);
        let mut a = Asm::new();
        a.ld_global(T0, 100, 0);
        a.halt();
        assert!(matches!(
            run(&mut m, a, 1),
            Err(SimError::OutOfBounds { .. })
        ));
        let mut a = Asm::new();
        let top = a.here();
        a.jmp(top);
        assert!(matches!(
            run(&mut m, a, 1),
            Err(SimError::CycleLimit { .. })
        ));
        assert!(matches!(
            run(&mut m, Asm::new(), 0),
            Err(SimError::BadLaunch(_))
        ));
    }

    #[test]
    fn machines_of_another_shape_are_rejected() {
        let input: Vec<Word> = (1..=100).collect();
        for mut m in [
            Machine::umm(128, 2, 256),
            Machine::umm(64, 1, 256),
            Machine::hmm(2, 256, 1, 256, 0),
        ] {
            assert!(matches!(
                run_sum(&mut m, &input, 16),
                Err(SimError::BadLaunch(_))
            ));
        }
        let mut small = Footprint::new(100, 0).pram(16);
        assert!(matches!(
            run_sum(&mut small, &input, 16),
            Err(SimError::BadLaunch(_))
        ));
    }

    #[test]
    fn sum_matches_reference_across_processor_counts() {
        let input: Vec<Word> = (1..=100).collect();
        for p in [1, 2, 3, 7, 16, 100] {
            let s = sum(&input, p).value;
            assert_eq!(s, 5050, "p = {p}");
        }
    }

    #[test]
    fn sum_time_scales_like_n_over_p_plus_log() {
        let input: Vec<Word> = vec![1; 1024];
        let r1 = sum(&input, 1).report;
        let r32 = sum(&input, 32).report;
        let r1024 = sum(&input, 1024).report;
        // More processors strictly help until the log-tree dominates.
        assert!(r32.time < r1.time / 8, "{} vs {}", r32.time, r1.time);
        assert!(r1024.time < r32.time);
        // The p = n regime is dominated by the log n tree: within a
        // generous constant of log2(1024) = 10 steps' worth of work.
        assert!(r1024.time <= 12 * 10, "time {}", r1024.time);
    }

    #[test]
    fn convolution_matches_reference() {
        let a: Vec<Word> = vec![1, -2, 3];
        let b: Vec<Word> = (0..18).map(|x| x * x - 5).collect();
        let expect = seq_conv(&a, &b);
        for p in [1, 4, 16] {
            let c = conv(&a, &b, p).unwrap().value;
            assert_eq!(c, expect, "p = {p}");
        }
    }

    #[test]
    fn convolution_time_scales_with_processors() {
        let a: Vec<Word> = vec![1; 8];
        let b: Vec<Word> = vec![2; 64 + 7];
        let r1 = conv(&a, &b, 1).unwrap().report;
        let r16 = conv(&a, &b, 16).unwrap().report;
        assert!(r16.time < r1.time / 8, "{} vs {}", r16.time, r1.time);
    }

    #[test]
    fn degenerate_shapes() {
        assert_eq!(sum(&[7], 5).value, 7);
        let c = conv(&[2], &[1, 2, 3], 2).unwrap().value;
        assert_eq!(c, vec![2, 4, 6]);
        assert!(conv(&[], &[1], 1).is_err());
        let big = seq_sum(&(0..257).collect::<Vec<_>>());
        assert_eq!(sum(&(0..257).collect::<Vec<_>>(), 9).value, big);
    }
}
