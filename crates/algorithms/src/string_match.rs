//! Extension: approximate string matching on the memory machine models.
//!
//! The paper's reference \[18\] (Nakano, ICNC 2012) studies approximate
//! string matching on the DMM/UMM. We implement the standard Sellers
//! dynamic program: for a pattern `P` of length `m` and a text `T` of
//! length `n`, compute for every text position `j` the minimum edit
//! distance between `P` and *any* substring of `T` ending at `j`:
//!
//! ```text
//! D[0][j] = 0          (a match may start anywhere)
//! D[i][0] = i
//! D[i][j] = min( D[i-1][j-1] + (P[i-1] != T[j-1]),
//!                D[i-1][j] + 1,
//!                D[i][j-1] + 1 )
//! ```
//!
//! The parallel kernel sweeps *anti-diagonals*: every cell of diagonal
//! `t = i + j` depends only on diagonals `t−1` and `t−2`, so its
//! `≤ min(m,n)+1` cells are computed in one parallel phase. Diagonals are
//! stored contiguously in three rotating buffers, so all reads and writes
//! are contiguous (Lemma 1 applies per phase) and the total time is
//! `O(nm/w + nml/p + (n+m)·l)` on the DMM/UMM — the `(n+m)·l` term being
//! the per-diagonal synchronisation, the price of the dependency chain.

use hmm_machine::isa::Reg;
use hmm_machine::{abi, Asm, Kernel, LaunchShape, Machine, Program, SimResult, Word};

use crate::{run_staged, Footprint, Run};

const TT: Reg = Reg(16); // current diagonal t
const I0: Reg = Reg(17); // low end of the i-range of diagonal t
const I1: Reg = Reg(18); // high end (inclusive)
const IV: Reg = Reg(19); // this thread's i
const JV: Reg = Reg(20); // j = t - i
const CUR: Reg = Reg(21); // base of the t%3 buffer
const P1: Reg = Reg(22); // base of the (t-1)%3 buffer
const P2: Reg = Reg(23); // base of the (t-2)%3 buffer
const VAL: Reg = Reg(24);
const T0: Reg = Reg(25);
const T1: Reg = Reg(26);
const T2: Reg = Reg(27);

/// Sequential Sellers reference.
#[must_use]
pub fn match_reference(pattern: &[Word], text: &[Word]) -> Vec<Word> {
    let m = pattern.len();
    let n = text.len();
    let mut prev: Vec<Word> = (0..=m as Word).collect();
    let mut scores = vec![m as Word; n + 1];
    for j in 1..=n {
        let mut cur = vec![0 as Word; m + 1];
        for i in 1..=m {
            let delta = Word::from(pattern[i - 1] != text[j - 1]);
            cur[i] = (prev[i - 1] + delta).min(prev[i] + 1).min(cur[i - 1] + 1);
        }
        scores[j] = cur[m];
        prev = cur;
    }
    scores
}

/// Global layout: pattern `[0, m)`, text `[m, m+n)`, three diagonal
/// buffers of `min(m,n)+1+1` words each, then the score vector of
/// `n + 1` words. Returns (diag base, buffer stride, score base).
fn layout(m: usize, n: usize) -> (usize, usize, usize) {
    let stride = m.min(n) + 2;
    let diag = m + n;
    (diag, stride, diag + 3 * stride)
}

/// The matching footprint for a pattern of length `m` and a text of
/// length `n`: the layout above, all in global memory.
#[must_use]
pub fn footprint(m: usize, n: usize) -> Footprint {
    let (_, _, scores) = layout(m, n);
    Footprint::new(scores + n + 1, 0)
}

/// Build the wavefront matching kernel.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn match_kernel(m: usize, n: usize) -> Program {
    let (diag, stride, scores) = layout(m, n);
    let mut a = Asm::new();
    // scores[0] = m (no text consumed).
    {
        let skip = a.label();
        a.brnz(abi::GID, skip);
        a.st_global(scores, 0, m);
        a.bind(skip);
    }
    a.mov(TT, 0);
    let t_loop = a.here();
    let t_done = a.label();
    a.sle(T0, TT, m + n);
    a.brz(T0, t_done);
    // i-range of diagonal t: i in [max(0, t-n), min(m, t)].
    a.sub(I0, TT, n);
    a.max(I0, I0, 0);
    a.min(I1, TT, m);
    // Rotating buffer bases. Buffers hold cell (i, t-i) at offset i - I0
    // ... offsets must be consistent across diagonals, so index by
    // i - max(0, t-n) would shift between diagonals. Instead index by
    // i - (t - n) clamped is messy; we index by `i - i0(t)` where
    // i0(t) = max(0, t-n) and recompute neighbours' offsets explicitly:
    // cell (i, j-1) lives on diag t-1 at offset i - i0(t-1), etc. To keep
    // the kernel simple we instead store cell (i, ·) of diagonal t at
    // offset i - I0_t, and recompute the previous diagonals' I0 values.
    a.rem(T0, TT, 3);
    a.mul(CUR, T0, stride);
    a.add(T0, TT, 2); // (t - 1) mod 3 == (t + 2) mod 3
    a.rem(T0, T0, 3);
    a.mul(P1, T0, stride);
    a.add(T0, TT, 1); // (t - 2) mod 3 == (t + 1) mod 3
    a.rem(T0, T0, 3);
    a.mul(P2, T0, stride);
    // Previous diagonals' low ends: i0(t-1), i0(t-2).
    let i0m1 = Reg(28);
    let i0m2 = Reg(29);
    a.sub(i0m1, TT, n + 1);
    a.max(i0m1, i0m1, 0);
    a.sub(i0m2, TT, n + 2);
    a.max(i0m2, i0m2, 0);

    // Strided loop over the diagonal's cells.
    a.add(IV, I0, abi::GID);
    let cell_loop = a.here();
    let cell_done = a.label();
    a.sle(T0, IV, I1);
    a.brz(T0, cell_done);
    a.sub(JV, TT, IV);
    // Base cases.
    let store = a.label();
    let general = a.label();
    a.brnz(IV, general);
    a.mov(VAL, 0); // i == 0
    a.jmp(store);
    a.bind(general);
    let general2 = a.label();
    a.brnz(JV, general2);
    a.mov(VAL, IV); // j == 0
    a.jmp(store);
    a.bind(general2);
    // delta = (P[i-1] != T[j-1]).
    a.sub(T0, IV, 1);
    a.ld_global(T1, T0, 0); // P[i-1]
    a.add(T0, JV, m);
    a.sub(T0, T0, 1);
    a.ld_global(T2, T0, 0); // T[j-1]
    a.sne(T1, T1, T2);
    // D[i-1][j-1]: diagonal t-2, offset (i-1) - i0(t-2).
    a.sub(T0, IV, 1);
    a.sub(T0, T0, i0m2);
    a.add(T0, T0, P2);
    a.ld_global(T2, T0, diag);
    a.add(VAL, T2, T1);
    // D[i-1][j]: diagonal t-1, offset (i-1) - i0(t-1).
    a.sub(T0, IV, 1);
    a.sub(T0, T0, i0m1);
    a.add(T0, T0, P1);
    a.ld_global(T2, T0, diag);
    a.add(T2, T2, 1);
    a.min(VAL, VAL, T2);
    // D[i][j-1]: diagonal t-1, offset i - i0(t-1).
    a.sub(T0, IV, i0m1);
    a.add(T0, T0, P1);
    a.ld_global(T2, T0, diag);
    a.add(T2, T2, 1);
    a.min(VAL, VAL, T2);
    a.bind(store);
    // cur[i - I0] = VAL.
    a.sub(T0, IV, I0);
    a.add(T0, T0, CUR);
    a.st_global(T0, diag, VAL);
    // If i == m, publish scores[j] = VAL.
    {
        let skip = a.label();
        a.sne(T0, IV, m);
        a.brnz(T0, skip);
        a.st_global(JV, scores, VAL);
        a.bind(skip);
    }
    a.add(IV, IV, abi::P);
    a.jmp(cell_loop);
    a.bind(cell_done);
    a.bar_global();
    a.add(TT, TT, 1);
    a.jmp(t_loop);
    a.bind(t_done);
    a.halt();
    a.finish()
}

/// Run approximate matching of `pattern` against `text` with `p` threads
/// on `machine` (a DMM or UMM sized by [`footprint`]). The value is
/// `scores[0..=n]`: `scores[j]` is the minimum edit distance of the
/// pattern against any text substring ending at position `j` (1-based;
/// index 0 is `m`).
///
/// # Errors
/// Propagates simulation errors; rejects empty inputs.
pub fn run_match_dmm_umm(
    machine: &mut Machine,
    pattern: &[Word],
    text: &[Word],
    p: usize,
) -> SimResult<Run<Vec<Word>>> {
    let (m, n) = (pattern.len(), text.len());
    if m == 0 || n == 0 {
        return Err(hmm_machine::SimError::BadLaunch(
            "pattern and text must be non-empty".into(),
        ));
    }
    let (_, _, scores) = layout(m, n);
    let kernel = Kernel::new("approx-match", match_kernel(m, n));
    run_staged(
        machine,
        footprint(m, n),
        &kernel,
        LaunchShape::Even(p),
        |g| {
            g[..m].copy_from_slice(pattern);
            g[m..m + n].copy_from_slice(text);
        },
        |g| g[scores..=(scores + n)].to_vec(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_machine::Machine;
    use hmm_workloads::random_words;

    fn str_to_words(s: &str) -> Vec<Word> {
        s.bytes().map(Word::from).collect()
    }

    #[test]
    fn reference_exact_occurrence_scores_zero() {
        let scores = match_reference(&str_to_words("abc"), &str_to_words("xxabcxx"));
        // "abc" ends at position 5 (1-based) with distance 0.
        assert_eq!(scores[5], 0);
        assert!(scores.iter().skip(1).all(|&s| s >= 0));
    }

    #[test]
    fn reference_single_edit() {
        let scores = match_reference(&str_to_words("kitten"), &str_to_words("sitting"));
        // Best suffix match of "kitten" within "sitting": distance 2
        // ("sittin" -> kitten is 2 subs; ends at position 6).
        assert_eq!(*scores.iter().skip(1).min().unwrap(), 2);
    }

    #[test]
    fn kernel_matches_reference() {
        for (m, n, p) in [(3usize, 20usize, 8usize), (6, 40, 16), (8, 33, 4)] {
            let pattern = random_words(m, m as u64, 3); // tiny alphabet
            let text = random_words(n, n as u64, 3);
            let expect = match_reference(&pattern, &text);
            let mut machine = footprint(m, n).umm(4, 8);
            let run = run_match_dmm_umm(&mut machine, &pattern, &text, p).unwrap();
            assert_eq!(run.value, expect, "m={m} n={n} p={p}");
            let mut machine = footprint(m, n).dmm(4, 8);
            let run = run_match_dmm_umm(&mut machine, &pattern, &text, p).unwrap();
            assert_eq!(run.value, expect, "m={m} n={n} p={p} (dmm)");
        }
    }

    #[test]
    fn kernel_finds_exact_match() {
        let pattern = str_to_words("hmm");
        let text = str_to_words("the hmm model");
        let mut machine = footprint(pattern.len(), text.len()).umm(4, 4);
        let run = run_match_dmm_umm(&mut machine, &pattern, &text, 8).unwrap();
        assert_eq!(run.value, match_reference(&pattern, &text));
        assert_eq!(*run.value.iter().skip(1).min().unwrap(), 0);
    }

    #[test]
    fn rejects_empty_inputs() {
        let mut machine = Machine::umm(4, 4, 64);
        assert!(run_match_dmm_umm(&mut machine, &[], &[1], 4).is_err());
        assert!(run_match_dmm_umm(&mut machine, &[1], &[], 4).is_err());
    }
}
