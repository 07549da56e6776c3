//! Golden test: the programs `KernelBuilder::compile_with` builds for
//! transform lists the tuner never declares — no-op passes (`pad: 0`,
//! `factor: 1`), repeated unrolls, unrolls placed after the remaps,
//! degenerate parameters and loads inside shared addresses — pinned by
//! a digest of their disassembly or error text.
//!
//! The rules these lists exercise: transforms are checked in list
//! order, each one's parameters first and then, for an active address
//! remap, the kernel's shared addresses for loads; the first failure
//! wins, also over any later compile error. `PadShared { pad: 0 }` and
//! `UnrollStrided { factor: 1 }` are no-ops, and only the first unroll
//! with a factor of 2 or more has an effect.

use hmm_lang::prelude::*;
use hmm_lang::{CompileError, Transform, TransformError};
use hmm_machine::disassemble;

/// Loops (canonical, nested, barrier-carrying and not canonical),
/// branches, selects and shared loads in every position a remap may
/// reach: stored values, global addresses and shared addresses.
fn mixed() -> KernelBuilder {
    let mut k = KernelBuilder::new();
    let i = k.var();
    let j = k.var();
    let x = k.var();
    k.set(x, imm(0));
    k.for_strided(i, ltid(), imm(20), pd(), |k| {
        k.store(Space::Shared, v(i), ld_global(v(i)));
        k.if_else(
            lt(v(i), imm(5)),
            |k| k.set(x, add(v(x), ld_shared(add(v(i), imm(1))))),
            |k| k.set(x, add(v(x), ld_shared(v(i)))),
        );
        k.for_strided(j, imm(0), imm(3), imm(1), |k| {
            k.set(x, add(v(x), ld_shared(add(mul(v(j), imm(4)), v(i)))));
        });
    });
    k.bar_dmm();
    // Not canonical: the condition's left side is not the variable.
    k.while_(lt(imm(0), v(x)), |k| {
        k.set(x, sub(v(x), imm(1)));
    });
    // Canonical, but a barrier keeps it rolled.
    k.for_strided(i, imm(0), imm(2), imm(1), |k| {
        k.bar_dmm();
        k.store(Space::Shared, add(v(i), imm(24)), v(x));
    });
    k.store(
        Space::Global,
        gid(),
        select(lt(v(x), imm(3)), ld_shared(ltid()), v(x)),
    );
    k.store(Space::Global, add(ld_shared(ltid()), imm(32)), v(x));
    k
}

/// A canonical loop whose shared store address contains a global load.
fn load_in_shared_address() -> KernelBuilder {
    let mut k = KernelBuilder::new();
    let i = k.var();
    k.for_strided(i, ltid(), imm(8), pd(), |k| {
        k.store(Space::Shared, ld_global(v(i)), v(i));
    });
    k
}

/// A shared load whose address is itself a shared load.
fn shared_load_in_shared_address() -> KernelBuilder {
    let mut k = KernelBuilder::new();
    k.store(Space::Global, gid(), ld_shared(ld_shared(ltid())));
    k
}

/// A right-leaning tree `1 + (1 + (… + S[ltid]))` of `depth` levels:
/// its temporaries grow with the depth of the remapped address.
fn deep(depth: usize) -> KernelBuilder {
    let mut e = ld_shared(ltid());
    for _ in 0..depth {
        e = add(imm(1), e);
    }
    let mut k = KernelBuilder::new();
    k.store(Space::Global, gid(), e);
    k
}

/// `deep` with a global load inside one shared address as well.
fn deep_with_load(depth: usize) -> KernelBuilder {
    let mut k = deep(depth);
    k.store(Space::Shared, ld_global(imm(0)), imm(1));
    k
}

const PAD: Transform = Transform::PadShared { period: 4, pad: 1 };
const SWZ: Transform = Transform::SwizzleShared { width: 4 };
const TR: Transform = Transform::TransposeShared { rows: 4, cols: 5 };
const fn unroll(factor: usize) -> Transform {
    Transform::UnrollStrided { factor }
}

fn lists() -> Vec<Vec<Transform>> {
    vec![
        vec![],
        vec![Transform::PadShared { period: 4, pad: 0 }],
        vec![unroll(1)],
        vec![unroll(2)],
        vec![unroll(2), unroll(3)],
        vec![unroll(3), unroll(2)],
        vec![unroll(1), unroll(3)],
        vec![PAD],
        vec![SWZ],
        vec![TR],
        vec![TR, PAD, SWZ],
        vec![
            Transform::SwizzleShared { width: 8 },
            Transform::PadShared { period: 8, pad: 2 },
            Transform::TransposeShared { rows: 3, cols: 3 },
        ],
        vec![PAD, unroll(2), SWZ],
        vec![unroll(2), PAD, SWZ],
        vec![PAD, PAD],
        vec![Transform::PadShared { period: 0, pad: 0 }],
        vec![Transform::PadShared { period: 0, pad: 1 }],
        vec![Transform::SwizzleShared { width: 6 }],
        vec![Transform::SwizzleShared { width: 1 }],
        vec![Transform::TransposeShared { rows: 0, cols: 4 }],
        vec![Transform::TransposeShared { rows: 4, cols: 0 }],
        vec![unroll(0)],
        vec![unroll(2), Transform::SwizzleShared { width: 6 }],
        vec![PAD, Transform::SwizzleShared { width: 6 }],
        vec![Transform::SwizzleShared { width: 6 }, PAD],
        vec![Transform::PadShared { period: 4, pad: 0 }, unroll(1), SWZ],
        vec![unroll(4), unroll(0)],
    ]
}

/// The text a build leaves: its disassembly, or its error.
fn built(k: &KernelBuilder, ts: &[Transform]) -> String {
    match k.compile_with(ts) {
        Ok(program) => disassemble(&program),
        Err(e) => format!("error: {e}"),
    }
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// `(errors, bytes, FNV-1a)` over every list's build of `k`.
fn digest(k: &KernelBuilder) -> (usize, usize, u64) {
    let mut all = String::new();
    let mut errors = 0;
    for ts in lists() {
        let text = built(k, &ts);
        errors += usize::from(text.starts_with("error: "));
        all.push_str(&text);
        all.push('\n');
    }
    (errors, all.len(), fnv1a(all.as_bytes()))
}

#[test]
fn programs_of_every_list_are_pinned() {
    let kernels = [
        ("mixed", mixed(), (11, 59_076, 0x5bcc_b8b5_31b7_9f3f)),
        (
            "load_in_shared_address",
            load_in_shared_address(),
            (20, 3_543, 0x5381_e435_eac5_f25e),
        ),
        (
            "shared_load_in_shared_address",
            shared_load_in_shared_address(),
            (20, 1_939, 0xd56b_38cf_29f9_4384),
        ),
        ("deep(40)", deep(40), (11, 20_216, 0x8f9c_644f_813b_4fd8)),
        ("deep(46)", deep(46), (20, 9_546, 0x54d7_de16_f6f1_266c)),
        (
            "deep_with_load(46)",
            deep_with_load(46),
            (20, 9_870, 0x1b5a_6b3f_69d5_b2b8),
        ),
        (
            "deep_with_load(60)",
            deep_with_load(60),
            (27, 1_582, 0x832f_a49d_ea22_bd90),
        ),
    ];
    for (name, k, want) in kernels {
        assert_eq!(digest(&k), want, "{name}");
    }
}

#[test]
fn no_op_passes_and_repeated_unrolls() {
    let k = mixed();
    let plain = built(&k, &[]);
    for ts in [
        vec![Transform::PadShared { period: 4, pad: 0 }],
        vec![unroll(1)],
        vec![unroll(1), Transform::PadShared { period: 8, pad: 0 }],
    ] {
        assert_eq!(built(&k, &ts), plain, "{ts:?}");
    }
    let once = built(&k, &[unroll(2)]);
    assert_ne!(once, plain);
    assert_eq!(built(&k, &[unroll(2), unroll(3)]), once);
    assert_eq!(built(&k, &[unroll(1), unroll(2)]), once);
    // The unroll's place among the remaps does not change the program.
    assert_eq!(
        built(&k, &[PAD, unroll(2), SWZ]),
        built(&k, &[unroll(2), PAD, SWZ])
    );
}

#[test]
fn errors_follow_the_list_order() {
    let k = load_in_shared_address();
    let err = |ts: &[Transform]| k.compile_with(ts).unwrap_err();
    let load = CompileError::Transform(TransformError::AddressContainsLoad);
    // No-op passes never look at the addresses.
    assert!(k
        .compile_with(&[Transform::PadShared { period: 4, pad: 0 }, unroll(1)])
        .is_ok());
    assert!(k.compile_with(&[unroll(3)]).is_ok());
    assert_eq!(err(&[PAD]), load);
    assert_eq!(err(&[unroll(2), TR]), load);
    assert_eq!(err(&[PAD, Transform::SwizzleShared { width: 6 }]), load);
    assert!(matches!(
        err(&[Transform::SwizzleShared { width: 6 }, PAD]),
        CompileError::Transform(TransformError::BadParams(_))
    ));
    assert!(matches!(
        err(&[Transform::PadShared { period: 0, pad: 0 }]),
        CompileError::Transform(TransformError::BadParams(_))
    ));
    assert_eq!(
        shared_load_in_shared_address()
            .compile_with(&[SWZ])
            .unwrap_err(),
        load
    );
    // A transform error wins over a compile error.
    assert_eq!(deep_with_load(60).compile_with(&[PAD]).unwrap_err(), load);
    assert!(matches!(
        deep_with_load(60).compile_with(&[]),
        Err(CompileError::ExprTooDeep { .. })
    ));
}
