//! Compilation of [`crate::ast`] programs to the [`hmm_machine`] ISA.
//!
//! Register allocation is deliberately simple: every [`Var`] gets a
//! dedicated register from the scratch file, and expression evaluation
//! uses a stack of temporaries above the variables. Kernels that would
//! need spilling are rejected with a [`CompileError`] instead — at 48
//! scratch registers per thread that has never been a limitation for the
//! paper's algorithms.

use hmm_machine::isa::{BinOp, Inst, Operand, Reg, Scope, Space};
use hmm_machine::{abi, Asm, Program, Word, REG_COUNT};

use crate::ast::{Expr, Special, Stmt, Var};
use crate::transform::{self, Template, Transform, TransformError};

/// Compilation failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The kernel declares more variables than the register file holds.
    TooManyVars {
        /// Declared variables.
        vars: usize,
        /// Available registers for variables.
        available: usize,
    },
    /// An expression needs a deeper temporary stack than the registers
    /// left above the variables.
    ExprTooDeep {
        /// Required temporaries.
        need: usize,
        /// Available temporaries.
        available: usize,
    },
    /// An argument index outside [`abi::NUM_ARGS`].
    BadArgIndex(usize),
    /// A layout or schedule transform rejected the kernel or its
    /// parameters.
    Transform(TransformError),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::TooManyVars { vars, available } => {
                write!(
                    f,
                    "{vars} variables exceed the {available} available registers"
                )
            }
            CompileError::ExprTooDeep { need, available } => {
                write!(
                    f,
                    "expression needs {need} temporaries, only {available} available"
                )
            }
            CompileError::BadArgIndex(i) => write!(f, "argument index {i} out of range"),
            CompileError::Transform(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CompileError {}

/// Builds a kernel as a statement list, then compiles it.
///
/// See the crate-level example. Statements appended via the builder
/// methods execute in order; [`KernelBuilder::compile`] appends the final
/// `Halt` automatically.
#[derive(Debug, Default)]
pub struct KernelBuilder {
    vars: usize,
    body: Vec<Stmt>,
}

impl KernelBuilder {
    /// An empty kernel.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declare a fresh variable (initially holding an unspecified value;
    /// assign it with [`KernelBuilder::set`] before reading).
    pub fn var(&mut self) -> Var {
        let v = Var(self.vars);
        self.vars += 1;
        v
    }

    /// Append `var = expr`.
    pub fn set(&mut self, var: Var, expr: Expr) {
        self.body.push(Stmt::Set(var, expr));
    }

    /// Append `mem[addr] = value`.
    pub fn store(&mut self, space: Space, addr: Expr, value: Expr) {
        self.body.push(Stmt::Store(space, addr, value));
    }

    /// Append `if cond { then(..) }`.
    pub fn if_(&mut self, cond: Expr, then: impl FnOnce(&mut Self)) {
        let checkpoint = self.take_body();
        then(self);
        let then_body = self.take_body();
        self.body = checkpoint;
        self.body.push(Stmt::If(cond, then_body, Vec::new()));
    }

    /// Append `if cond { then(..) } else { otherwise(..) }`.
    pub fn if_else(
        &mut self,
        cond: Expr,
        then: impl FnOnce(&mut Self),
        otherwise: impl FnOnce(&mut Self),
    ) {
        let checkpoint = self.take_body();
        then(self);
        let then_body = self.take_body();
        otherwise(self);
        let else_body = self.take_body();
        self.body = checkpoint;
        self.body.push(Stmt::If(cond, then_body, else_body));
    }

    /// Append `while cond { body(..) }`.
    pub fn while_(&mut self, cond: Expr, body: impl FnOnce(&mut Self)) {
        let checkpoint = self.take_body();
        body(self);
        let loop_body = self.take_body();
        self.body = checkpoint;
        self.body.push(Stmt::While(cond, loop_body));
    }

    /// Append a strided `for var = from; var < to; var += step` loop —
    /// the paper's canonical per-thread iteration shape.
    pub fn for_strided(
        &mut self,
        var: Var,
        from: Expr,
        to: Expr,
        step: Expr,
        body: impl FnOnce(&mut Self),
    ) {
        use crate::ast::helpers::{add, lt, v};
        self.set(var, from);
        let checkpoint = self.take_body();
        body(self);
        let mut loop_body = self.take_body();
        self.body = checkpoint;
        loop_body.push(Stmt::Set(var, add(v(var), step)));
        self.body.push(Stmt::While(lt(v(var), to), loop_body));
    }

    /// Append a DMM-scope barrier.
    pub fn bar_dmm(&mut self) {
        self.body.push(Stmt::Barrier(Scope::Dmm));
    }

    /// Append a machine-scope barrier.
    pub fn bar_global(&mut self) {
        self.body.push(Stmt::Barrier(Scope::Global));
    }

    /// Append a raw statement.
    pub fn stmt(&mut self, s: Stmt) {
        self.body.push(s);
    }

    fn take_body(&mut self) -> Vec<Stmt> {
        std::mem::take(&mut self.body)
    }

    /// Compile with the layout and schedule `transforms` applied, in
    /// list order (see [`crate::transform`]).
    ///
    /// # Errors
    /// [`CompileError::Transform`] when a transform rejects its
    /// parameters or the kernel; it wins over any other compile error.
    pub fn compile_with(&self, transforms: &[Transform]) -> Result<Program, CompileError> {
        let unroll = transform::check(&self.body, transforms).map_err(CompileError::Transform)?;
        let var_base = abi::SCRATCH0.0 as usize;
        let available = REG_COUNT - var_base;
        if self.vars >= available {
            return Err(CompileError::TooManyVars {
                vars: self.vars,
                available: available - 1,
            });
        }
        let mut cg = Codegen {
            asm: Asm::new(),
            var_base,
            temp_base: var_base + self.vars,
            remaps: transforms,
            unroll,
        };
        cg.stmts(&self.body)?;
        cg.asm.halt();
        Ok(cg.asm.finish())
    }

    /// Compile to an executable [`Program`].
    ///
    /// # Errors
    /// Returns a [`CompileError`] if the kernel exceeds the register file
    /// or names an invalid argument register.
    pub fn compile(&self) -> Result<Program, CompileError> {
        self.compile_with(&[])
    }
}

struct Codegen<'t> {
    asm: Asm,
    var_base: usize,
    temp_base: usize,
    /// The transform list: its active remaps wrap every shared address.
    remaps: &'t [Transform],
    /// Copies of each canonical strided loop body per trip (1 = off).
    unroll: usize,
}

impl Codegen<'_> {
    fn var_reg(&self, v: Var) -> Reg {
        Reg((self.var_base + v.0) as u8)
    }

    fn temp(&self, depth: usize) -> Result<Reg, CompileError> {
        let r = self.temp_base + depth;
        if r >= REG_COUNT {
            return Err(CompileError::ExprTooDeep {
                need: depth + 1,
                available: REG_COUNT - self.temp_base,
            });
        }
        Ok(Reg(r as u8))
    }

    fn special_operand(s: Special) -> Result<Operand, CompileError> {
        Ok(Operand::Reg(match s {
            Special::Gid => abi::GID,
            Special::Dmm => abi::DMM,
            Special::Ltid => abi::LTID,
            Special::P => abi::P,
            Special::Pd => abi::PD,
            Special::W => abi::W,
            Special::D => abi::D,
            Special::L => abi::L,
            Special::Arg(i) => {
                if i >= abi::NUM_ARGS {
                    return Err(CompileError::BadArgIndex(i));
                }
                abi::arg(i)
            }
        }))
    }

    /// Evaluate `e` into an operand, using temporaries from `depth` up.
    /// Leaf expressions compile to zero instructions.
    fn eval(&mut self, e: &Expr, depth: usize) -> Result<Operand, CompileError> {
        match e {
            Expr::Imm(v) => Ok(Operand::Imm(*v)),
            Expr::Var(v) => Ok(Operand::Reg(self.var_reg(*v))),
            Expr::Special(s) => Self::special_operand(*s),
            Expr::Bin(op, a, b) => {
                self.bin(*op, depth, |cg, d| cg.eval(a, d), |cg, d| cg.eval(b, d))
            }
            Expr::Select(c, a, b) => self.select(
                depth,
                |cg, d| cg.eval(c, d),
                |cg, d| cg.eval(a, d),
                |cg, d| cg.eval(b, d),
            ),
            Expr::Load(space, addr) => {
                let dst = self.temp(depth)?;
                let av = self.addr(*space, addr, depth)?;
                self.asm.ld(dst, *space, av, 0);
                Ok(Operand::Reg(dst))
            }
        }
    }

    /// `op(a, b)` into `temp(depth)`. `a`'s value may live in
    /// `temp(depth)`; keep it and evaluate `b` one level higher.
    fn bin(
        &mut self,
        op: BinOp,
        depth: usize,
        a: impl FnOnce(&mut Self, usize) -> Result<Operand, CompileError>,
        b: impl FnOnce(&mut Self, usize) -> Result<Operand, CompileError>,
    ) -> Result<Operand, CompileError> {
        let dst = self.temp(depth)?;
        let av = a(self, depth)?;
        let bv = b(self, depth + 1)?;
        self.asm.push(Inst::Bin(op, dst, av, bv));
        Ok(Operand::Reg(dst))
    }

    /// `c != 0 ? a : b` into `temp(depth)`.
    fn select(
        &mut self,
        depth: usize,
        c: impl FnOnce(&mut Self, usize) -> Result<Operand, CompileError>,
        a: impl FnOnce(&mut Self, usize) -> Result<Operand, CompileError>,
        b: impl FnOnce(&mut Self, usize) -> Result<Operand, CompileError>,
    ) -> Result<Operand, CompileError> {
        let dst = self.temp(depth)?;
        let cv = c(self, depth)?;
        let av = a(self, depth + 1)?;
        let bv = b(self, depth + 2)?;
        self.asm.push(Inst::Sel(dst, cv, av, bv));
        Ok(Operand::Reg(dst))
    }

    /// Evaluate a memory address; a shared one goes through every
    /// active remap of the transform list.
    fn addr(&mut self, space: Space, addr: &Expr, depth: usize) -> Result<Operand, CompileError> {
        match space {
            Space::Shared => self.remapped(addr, self.remaps, depth),
            Space::Global => self.eval(addr, depth),
        }
    }

    /// `addr` under the active remaps of `remaps`, the last one
    /// outermost.
    fn remapped(
        &mut self,
        addr: &Expr,
        remaps: &[Transform],
        depth: usize,
    ) -> Result<Operand, CompileError> {
        let Some((last, inner)) = remaps.split_last() else {
            return self.eval(addr, depth);
        };
        match last.remap() {
            Some((template, params)) => self.template(template, &params, addr, inner, depth),
            None => self.remapped(addr, inner, depth),
        }
    }

    /// Evaluate a remap's `template` around `addr`, which goes through
    /// the `inner` remaps at each of its uses.
    #[allow(clippy::cast_possible_wrap)]
    fn template(
        &mut self,
        template: &Template,
        params: &[usize; 3],
        addr: &Expr,
        inner: &[Transform],
        depth: usize,
    ) -> Result<Operand, CompileError> {
        let go =
            |t: &'static Template| move |cg: &mut Self, d| cg.template(t, params, addr, inner, d);
        match *template {
            Template::Addr => self.remapped(addr, inner, depth),
            Template::Param(i) => Ok(Operand::Imm(params[i] as Word)),
            Template::Bin(op, a, b) => self.bin(op, depth, go(a), go(b)),
            Template::Select(c, a, b) => self.select(depth, go(c), go(a), go(b)),
        }
    }

    /// `if cond { body }`.
    fn if_then(&mut self, cond: &Expr, body: &[Stmt]) -> Result<(), CompileError> {
        let c = self.eval(cond, 0)?;
        let end = self.asm.label();
        self.asm.brz(c, end);
        self.stmts(body)?;
        self.asm.bind(end);
        Ok(())
    }

    fn stmts(&mut self, body: &[Stmt]) -> Result<(), CompileError> {
        for s in body {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, s: &Stmt) -> Result<(), CompileError> {
        match s {
            Stmt::Set(var, e) => {
                let val = self.eval(e, 0)?;
                self.asm.mov(self.var_reg(*var), val);
                Ok(())
            }
            Stmt::Store(space, addr, value) => {
                let a = self.addr(*space, addr, 0)?;
                let v = self.eval(value, 1)?;
                self.asm.st(*space, a, 0, v);
                Ok(())
            }
            Stmt::If(cond, then_body, else_body) if else_body.is_empty() => {
                self.if_then(cond, then_body)
            }
            Stmt::If(cond, then_body, else_body) => {
                let c = self.eval(cond, 0)?;
                let els = self.asm.label();
                let end = self.asm.label();
                self.asm.brz(c, els);
                self.stmts(then_body)?;
                self.asm.jmp(end);
                self.asm.bind(els);
                self.stmts(else_body)?;
                self.asm.bind(end);
                Ok(())
            }
            Stmt::While(cond, body) => {
                let top = self.asm.here();
                let end = self.asm.label();
                let c = self.eval(cond, 0)?;
                self.asm.brz(c, end);
                self.stmts(body)?;
                // An unrolled loop runs up to `unroll` iterations per
                // trip, each further one under `if cond`.
                if self.unroll > 1 && transform::unrolls(cond, body) {
                    for _ in 1..self.unroll {
                        self.if_then(cond, body)?;
                    }
                }
                self.asm.jmp(top);
                self.asm.bind(end);
                Ok(())
            }
            Stmt::Barrier(scope) => {
                self.asm.push(Inst::Bar(*scope));
                Ok(())
            }
            Stmt::Nop => {
                self.asm.nop();
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::helpers::*;
    use hmm_machine::{Kernel, LaunchShape, Machine};

    fn run(k: &KernelBuilder, machine: &mut Machine, p: usize) -> hmm_machine::SimReport {
        let program = k.compile().unwrap();
        machine
            .launch(&Kernel::new("test", program), LaunchShape::Even(p))
            .unwrap()
    }

    #[test]
    fn arithmetic_and_store() {
        let mut k = KernelBuilder::new();
        // G[gid] = (gid * 3 + 1) % 7
        k.store(
            Space::Global,
            gid(),
            rem(add(mul(gid(), imm(3)), imm(1)), imm(7)),
        );
        let mut m = Machine::umm(4, 2, 16);
        run(&k, &mut m, 8);
        let expect: Vec<i64> = (0..8).map(|g| (g * 3 + 1) % 7).collect();
        assert_eq!(&m.global()[..8], &expect[..]);
    }

    #[test]
    fn if_else_branches() {
        let mut k = KernelBuilder::new();
        k.if_else(
            lt(gid(), imm(4)),
            |k| k.store(Space::Global, gid(), imm(1)),
            |k| k.store(Space::Global, gid(), imm(2)),
        );
        let mut m = Machine::umm(4, 2, 16);
        run(&k, &mut m, 8);
        assert_eq!(&m.global()[..8], &[1, 1, 1, 1, 2, 2, 2, 2]);
    }

    #[test]
    fn while_loop_counts() {
        let mut k = KernelBuilder::new();
        let i = k.var();
        let acc = k.var();
        k.set(i, imm(0));
        k.set(acc, imm(0));
        k.while_(lt(v(i), imm(10)), |k| {
            k.set(acc, add(v(acc), v(i)));
            k.set(i, add(v(i), imm(1)));
        });
        k.store(Space::Global, gid(), v(acc));
        let mut m = Machine::umm(4, 1, 8);
        run(&k, &mut m, 4);
        assert_eq!(&m.global()[..4], &[45, 45, 45, 45]);
    }

    #[test]
    fn for_strided_covers_range() {
        let mut k = KernelBuilder::new();
        let i = k.var();
        k.for_strided(i, gid(), imm(20), p(), |k| {
            k.store(Space::Global, v(i), add(v(i), imm(100)));
        });
        let mut m = Machine::umm(4, 2, 32);
        run(&k, &mut m, 8);
        let expect: Vec<i64> = (0..20).map(|x| x + 100).collect();
        assert_eq!(&m.global()[..20], &expect[..]);
    }

    #[test]
    fn loads_and_selects() {
        let mut k = KernelBuilder::new();
        // G[gid + 8] = max(G[gid], 5)  via select
        let x = k.var();
        k.set(x, ld_global(gid()));
        k.store(
            Space::Global,
            add(gid(), imm(8)),
            select(lt(v(x), imm(5)), imm(5), v(x)),
        );
        let mut m = Machine::umm(4, 2, 16);
        m.load_global(0, &[1, 9, 3, 7]);
        run(&k, &mut m, 4);
        assert_eq!(&m.global()[8..12], &[5, 9, 5, 7]);
    }

    #[test]
    fn barriers_and_shared_memory() {
        let mut k = KernelBuilder::new();
        // S[ltid] = ltid; bar; G[gid] = S[(ltid + 1) % pd]
        k.store(Space::Shared, ltid(), ltid());
        k.bar_dmm();
        k.store(
            Space::Global,
            gid(),
            ld_shared(rem(add(ltid(), imm(1)), pd())),
        );
        let program = k.compile().unwrap();
        let mut m = Machine::hmm(2, 4, 2, 16, 8);
        m.launch(&Kernel::new("rot", program), LaunchShape::Even(8))
            .unwrap();
        // Each DMM's shared memory holds its *local* tids, so both DMMs
        // produce the same rotated pattern.
        assert_eq!(&m.global()[..8], &[1, 2, 3, 0, 1, 2, 3, 0]);
    }

    #[test]
    fn deep_expressions_use_the_temp_stack() {
        // ((((gid+1)*2+3)*4+5)*6 ...) — deep left-leaning tree is fine.
        let mut e = gid();
        for i in 1..=10 {
            e = add(mul(e, imm(2)), imm(i));
        }
        let mut k = KernelBuilder::new();
        k.store(Space::Global, gid(), e);
        let mut m = Machine::umm(4, 1, 8);
        run(&k, &mut m, 4);
        let host = |g: i64| {
            let mut x = g;
            for i in 1..=10 {
                x = x * 2 + i;
            }
            x
        };
        assert_eq!(m.global()[2], host(2));
    }

    #[test]
    fn right_leaning_trees_error_before_register_exhaustion() {
        // A pathologically right-leaning tree exhausts the temp stack and
        // must fail cleanly.
        let mut e = imm(1);
        for _ in 0..64 {
            e = add(imm(1), e);
        }
        let mut k = KernelBuilder::new();
        k.store(Space::Global, gid(), e);
        assert!(matches!(k.compile(), Err(CompileError::ExprTooDeep { .. })));
    }

    #[test]
    fn too_many_vars_rejected() {
        let mut k = KernelBuilder::new();
        for _ in 0..64 {
            let _ = k.var();
        }
        k.store(Space::Global, gid(), imm(1));
        assert!(matches!(k.compile(), Err(CompileError::TooManyVars { .. })));
    }

    #[test]
    fn bad_arg_index_rejected() {
        let mut k = KernelBuilder::new();
        k.store(Space::Global, gid(), arg(99));
        assert!(matches!(k.compile(), Err(CompileError::BadArgIndex(99))));
    }

    #[test]
    fn errors_display() {
        let e = CompileError::TooManyVars {
            vars: 64,
            available: 47,
        };
        assert!(e.to_string().contains("64"));
        let e = CompileError::ExprTooDeep {
            need: 5,
            available: 2,
        };
        assert!(e.to_string().contains("temporaries"));
    }
}
