//! Control-flow graph over [`Program`] basic blocks.
//!
//! Blocks are maximal straight-line instruction runs; edges come from the
//! `Jmp`/`Brz`/`Brnz` targets and fall-through. A virtual *exit node*
//! (index [`Cfg::exit`]) collects every `Halt` and every pc that would
//! run off the end of the program, so post-dominators are well defined
//! even for kernels with several `Halt`s.

use hmm_machine::isa::{Inst, Program};

/// One basic block: instructions `start..end` (end exclusive).
#[derive(Debug, Clone)]
pub struct Block {
    /// First instruction pc.
    pub start: usize,
    /// One past the last instruction pc.
    pub end: usize,
    /// Successor block indices ([`Cfg::exit`] for halting/escaping edges).
    pub succs: Vec<usize>,
    /// Predecessor block indices.
    pub preds: Vec<usize>,
}

/// The control-flow graph of one program.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Basic blocks in ascending `start` order.
    pub blocks: Vec<Block>,
    /// `block_of[pc]` is the index of the block containing `pc`.
    pub block_of: Vec<usize>,
    /// `reachable[b]` — block `b` is reachable from the entry block.
    pub reachable: Vec<bool>,
    /// Immediate post-dominator of each block (`exit` for blocks whose
    /// only common post-dominator is program termination). `None` for
    /// unreachable blocks.
    pub ipdom: Vec<Option<usize>>,
    /// Whether some reachable pc can fall off the end of the program.
    pub can_fall_off_end: bool,
}

impl Cfg {
    /// Index of the virtual exit node (== `blocks.len()`).
    #[must_use]
    pub fn exit(&self) -> usize {
        self.blocks.len()
    }

    /// Build the CFG of `program`. An empty program yields a CFG with no
    /// blocks.
    #[must_use]
    pub fn build(program: &Program) -> Self {
        let n = program.len();
        if n == 0 {
            return Self {
                blocks: Vec::new(),
                block_of: Vec::new(),
                reachable: Vec::new(),
                ipdom: Vec::new(),
                can_fall_off_end: false,
            };
        }

        let leaders = program.leaders();
        let mut block_of = vec![0usize; n];
        let mut blocks: Vec<Block> = Vec::with_capacity(leaders.len());
        for (i, &start) in leaders.iter().enumerate() {
            let end = leaders.get(i + 1).copied().unwrap_or(n);
            for slot in &mut block_of[start..end] {
                *slot = i;
            }
            blocks.push(Block {
                start,
                end,
                succs: Vec::new(),
                preds: Vec::new(),
            });
        }

        let exit = blocks.len();
        let mut can_fall_off_end = false;
        for block in &mut blocks {
            let last = block.end - 1;
            let mut succs: Vec<usize> = Vec::new();
            let pcs = program.successors(last);
            if pcs.is_empty() && !matches!(program.get(last), Some(Inst::Halt)) {
                // Should not happen: only Halt has no successors in range.
                can_fall_off_end = true;
            }
            if matches!(program.get(last), Some(Inst::Halt)) {
                succs.push(exit);
            }
            for pc in pcs {
                if pc < n {
                    succs.push(block_of[pc]);
                } else {
                    can_fall_off_end = true;
                    succs.push(exit);
                }
            }
            succs.dedup();
            block.succs = succs;
        }
        for b in 0..blocks.len() {
            for s in blocks[b].succs.clone() {
                if s < exit && !blocks[s].preds.contains(&b) {
                    blocks[s].preds.push(b);
                }
            }
        }

        // Reachability from the entry block.
        let mut reachable = vec![false; blocks.len()];
        let mut stack = vec![0usize];
        while let Some(b) = stack.pop() {
            if reachable[b] {
                continue;
            }
            reachable[b] = true;
            for &s in &blocks[b].succs {
                if s < exit && !reachable[s] {
                    stack.push(s);
                }
            }
        }

        let ipdom = post_dominators(&blocks, &reachable, exit);
        // `can_fall_off_end` only matters on reachable paths.
        let falls = can_fall_off_end
            && blocks.iter().enumerate().any(|(b, blk)| {
                reachable[b]
                    && blk.succs.contains(&exit)
                    && !matches!(program.get(blk.end - 1), Some(Inst::Halt))
            });

        Self {
            blocks,
            block_of,
            reachable,
            ipdom,
            can_fall_off_end: falls,
        }
    }

    /// Blocks lying strictly inside the divergent region of the branch
    /// terminating block `b`: every block reachable from a successor of
    /// `b` without passing through `ipdom(b)`. The region is where warp
    /// lanes may have taken different sides of the branch.
    #[must_use]
    pub fn divergent_region(&self, b: usize) -> Vec<usize> {
        let Some(join) = self.ipdom[b] else {
            return Vec::new();
        };
        let mut seen = vec![false; self.blocks.len() + 1];
        let mut out = Vec::new();
        let mut stack: Vec<usize> = self.blocks[b].succs.clone();
        while let Some(x) = stack.pop() {
            if x == join || x > self.blocks.len() || seen[x] {
                continue;
            }
            seen[x] = true;
            if x < self.blocks.len() {
                out.push(x);
                stack.extend(self.blocks[x].succs.iter().copied());
            }
        }
        out.sort_unstable();
        out
    }

    /// Blocks reachable from block `from` (inclusive) without passing
    /// through `stop`. Used for one-sided (guarded) regions.
    #[must_use]
    pub fn region_from(&self, from: usize, stop: usize) -> Vec<usize> {
        let mut seen = vec![false; self.blocks.len() + 1];
        let mut out = Vec::new();
        let mut stack = vec![from];
        while let Some(x) = stack.pop() {
            if x == stop || x >= self.blocks.len() || seen[x] {
                continue;
            }
            seen[x] = true;
            out.push(x);
            stack.extend(self.blocks[x].succs.iter().copied());
        }
        out.sort_unstable();
        out
    }
}

/// Iterative set-intersection post-dominator computation over the blocks
/// plus the virtual exit. Small programs (at most a few thousand blocks)
/// make the O(n^2/64) bitset fixpoint plenty fast.
fn post_dominators(blocks: &[Block], reachable: &[bool], exit: usize) -> Vec<Option<usize>> {
    let n = blocks.len();
    let words = (n + 1).div_ceil(64);
    let full = vec![u64::MAX; words];
    let mut pdom: Vec<Vec<u64>> = vec![full.clone(); n + 1];
    // exit post-dominates only itself.
    pdom[exit] = vec![0; words];
    set_bit(&mut pdom[exit], exit);

    let mut changed = true;
    while changed {
        changed = false;
        // Reverse order tends to converge quickly for forward CFGs.
        for b in (0..n).rev() {
            if !reachable[b] {
                continue;
            }
            let mut new = full.clone();
            if blocks[b].succs.is_empty() {
                // Defensive: treat as edge to exit.
                new.clone_from(&pdom[exit]);
            } else {
                for &s in &blocks[b].succs {
                    for (w, word) in new.iter_mut().enumerate() {
                        *word &= pdom[s][w];
                    }
                }
            }
            set_bit(&mut new, b);
            if new != pdom[b] {
                pdom[b] = new;
                changed = true;
            }
        }
    }

    // ipdom(b): the unique candidate c in pdom(b) \ {b} post-dominated by
    // every other candidate (i.e. the "nearest" one).
    let mut ipdom = vec![None; n];
    for b in 0..n {
        if !reachable[b] {
            continue;
        }
        let candidates: Vec<usize> = (0..=n)
            .filter(|&c| c != b && get_bit(&pdom[b], c))
            .collect();
        ipdom[b] = candidates
            .iter()
            .copied()
            .find(|&c| candidates.iter().all(|&o| o == c || get_bit(&pdom[c], o)));
    }
    ipdom
}

fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

fn get_bit(bits: &[u64], i: usize) -> bool {
    bits[i / 64] & (1 << (i % 64)) != 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use hmm_machine::isa::{Operand, Reg};

    fn prog(insts: Vec<Inst>) -> Program {
        Program::new(insts).unwrap()
    }

    #[test]
    fn straight_line_is_one_block() {
        let p = prog(vec![Inst::Nop, Inst::Nop, Inst::Halt]);
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.blocks.len(), 1);
        assert_eq!(cfg.blocks[0].start, 0);
        assert_eq!(cfg.blocks[0].end, 3);
        assert_eq!(cfg.blocks[0].succs, vec![cfg.exit()]);
        assert!(cfg.reachable[0]);
        assert_eq!(cfg.ipdom[0], Some(cfg.exit()));
    }

    #[test]
    fn diamond_ipdom_is_the_join() {
        // 0: brz r0 -> 3 ; 1: nop ; 2: jmp 4 ; 3: nop ; 4: halt
        let p = prog(vec![
            Inst::Brz(Operand::Reg(Reg(0)), 3),
            Inst::Nop,
            Inst::Jmp(4),
            Inst::Nop,
            Inst::Halt,
        ]);
        let cfg = Cfg::build(&p);
        // blocks: [0..1], [1..3], [3..4], [4..5]
        assert_eq!(cfg.blocks.len(), 4);
        let join = cfg.block_of[4];
        assert_eq!(cfg.ipdom[0], Some(join));
        let region = cfg.divergent_region(0);
        assert_eq!(region, vec![cfg.block_of[1], cfg.block_of[3]]);
    }

    #[test]
    fn loop_region_is_the_body() {
        // 0: brz r0 -> 4 ; 1: nop ; 2: nop ; 3: jmp 0 ; 4: halt
        let p = prog(vec![
            Inst::Brz(Operand::Reg(Reg(0)), 4),
            Inst::Nop,
            Inst::Nop,
            Inst::Jmp(0),
            Inst::Halt,
        ]);
        let cfg = Cfg::build(&p);
        let head = cfg.block_of[0];
        let body = cfg.block_of[1];
        let exit_blk = cfg.block_of[4];
        assert_eq!(cfg.ipdom[head], Some(exit_blk));
        let region = cfg.divergent_region(head);
        assert!(region.contains(&body));
        assert!(region.contains(&head), "loop head re-entered via back edge");
        assert!(!region.contains(&exit_blk));
    }

    #[test]
    fn unreachable_block_detected() {
        // 0: jmp 2 ; 1: nop (dead) ; 2: halt
        let p = prog(vec![Inst::Jmp(2), Inst::Nop, Inst::Halt]);
        let cfg = Cfg::build(&p);
        assert!(cfg.reachable[cfg.block_of[0]]);
        assert!(!cfg.reachable[cfg.block_of[1]]);
        assert!(cfg.reachable[cfg.block_of[2]]);
    }

    #[test]
    fn fall_off_end_detected() {
        let p = prog(vec![Inst::Nop, Inst::Nop]);
        let cfg = Cfg::build(&p);
        assert!(cfg.can_fall_off_end);
        let p2 = prog(vec![Inst::Nop, Inst::Halt]);
        assert!(!Cfg::build(&p2).can_fall_off_end);
    }
}
