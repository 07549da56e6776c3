//! Validates the static analyzer against the simulator: the conflict
//! degrees `hmm-analysis` predicts from the program text must match (or
//! soundly bound) what the engine actually measures, and the static race
//! detector must agree with the engine's dynamic checker.

use hmm_algorithms::patterns::{self, figure1_kernel, run_figure1, transpose_kernel, Figure1};
use hmm_algorithms::{contiguous, convolution, prefix, sum};
use hmm_analysis::{analyze, AnalysisConfig, Degree};
use hmm_core::{Kernel, LaunchShape, Machine};
use hmm_machine::isa::Space;
use hmm_machine::Program;

/// Launch `program` on `machine` with `p` threads and return the report.
fn measure(machine: &mut Machine, program: Program, p: usize) -> hmm_machine::SimReport {
    machine
        .launch(&Kernel::new("probe", program), LaunchShape::Even(p))
        .unwrap()
}

/// The Figure 1 table, both ways: the analyzer must predict each cell
/// *exactly*, and the simulator must measure the same number.
#[test]
fn figure1_predictions_are_exact_and_match_measurement() {
    let (w, l, m, p) = (4usize, 4usize, 8usize, 8usize);
    for pattern in Figure1::ALL {
        let program = figure1_kernel(pattern, m);

        let mut dmm = patterns::footprint(m, 1).dmm(w, l);
        let measured = run_figure1(&mut dmm, pattern, m, p)
            .unwrap()
            .global
            .max_slots_per_transaction;
        let a = analyze(&program, &AnalysisConfig::dmm(w).with_launch(p as i64, 1));
        assert!(!a.has_errors(), "{}: {}", pattern.name(), a.render());
        let predicted = a.predicted_max_slots(Space::Global).unwrap();
        assert!(predicted.is_exact(), "{} on DMM", pattern.name());
        assert_eq!(predicted.max as u64, measured, "{} on DMM", pattern.name());

        let mut umm = patterns::footprint(m, 1).umm(w, l);
        let measured = run_figure1(&mut umm, pattern, m, p)
            .unwrap()
            .global
            .max_slots_per_transaction;
        let a = analyze(&program, &AnalysisConfig::umm(w).with_launch(p as i64, 1));
        let predicted = a.predicted_max_slots(Space::Global).unwrap();
        assert!(predicted.is_exact(), "{} on UMM", pattern.name());
        assert_eq!(predicted.max as u64, measured, "{} on UMM", pattern.name());
    }
}

/// Transpose reads rows and writes columns. The address forms pass
/// through `Div`/`Rem`, which the affine domain cannot track, so the
/// analyzer must *decline* to predict (no false numbers) while still
/// reporting the kernel clean; the measurement itself confirms the
/// uncoalesced write.
#[test]
fn transpose_is_clean_but_unpredictable_and_measures_w_groups() {
    let (w, l, m) = (4usize, 4usize, 8usize);
    let program = transpose_kernel(0, m * m, m);
    let a = analyze(
        &program,
        &AnalysisConfig::umm(w).with_launch((m * m) as i64, 1),
    );
    assert!(!a.has_errors(), "{}", a.render());
    assert_eq!(a.predicted_max_slots(Space::Global), None);

    let mut umm = patterns::footprint(m, 2).umm(w, l);
    let r = measure(&mut umm, program, m * m);
    assert_eq!(r.global.max_slots_per_transaction, w as u64);
}

/// Contiguous grid-stride access (Lemma 1): stride `p` with `w | p`
/// keeps the address `ltid`-affine through every loop iteration, so the
/// prediction stays exact across machines.
#[test]
fn contiguous_access_prediction_is_exact() {
    let (w, l, n, p) = (8usize, 8usize, 256usize, 32usize);
    for mode in [
        hmm_algorithms::contiguous::AccessMode::Read,
        hmm_algorithms::contiguous::AccessMode::Write,
    ] {
        let program = hmm_algorithms::contiguous::access_kernel(0, n, mode);
        let mut umm = contiguous::footprint(n, 1).umm(w, l);
        let measured = measure(&mut umm, program.clone(), p)
            .global
            .max_slots_per_transaction;
        let a = analyze(&program, &AnalysisConfig::umm(w).with_launch(p as i64, 1));
        assert!(!a.has_errors(), "{}", a.render());
        let predicted = a.predicted_max_slots(Space::Global).unwrap();
        assert!(predicted.is_exact(), "{mode:?}");
        assert_eq!(predicted.max as u64, measured, "{mode:?}");
    }
}

/// The paper kernels (sum, convolution, prefix sums — single-memory and
/// HMM forms): wherever the analyzer commits to a degree range, the
/// measured worst transaction must fall inside it, and no kernel may
/// trip an error diagnostic.
#[test]
fn paper_kernel_predictions_bound_measurement() {
    let (w, l, d) = (4usize, 8usize, 4usize);
    let n = 256usize;
    let k = 8usize;
    let p = 32usize;
    let n2 = n.next_power_of_two();
    let input = hmm_workloads::random_words(n, 7, 1000);
    let av = hmm_workloads::random_words(k, 7, 50);
    let bv = hmm_workloads::random_words(n + k - 1, 8, 50);

    // (name, program, machine, measured report)
    let mut cases: Vec<(&str, Program, AnalysisConfig, hmm_machine::SimReport)> = Vec::new();

    {
        let mut m = sum::dmm_umm::footprint(n).umm(w, l);
        let run = hmm_algorithms::sum::run_sum_dmm_umm(&mut m, &input, p).unwrap();
        cases.push((
            "sum-umm",
            hmm_algorithms::sum::dmm_umm::sum_kernel(0, n2),
            AnalysisConfig::umm(w).with_launch(p as i64, 1),
            run.report,
        ));
    }
    {
        let mut m = sum::hmm_all::footprint(n, p, d).hmm(d, w, l);
        let run = hmm_algorithms::sum::run_sum_hmm(&mut m, &input, p).unwrap();
        cases.push((
            "sum-hmm",
            hmm_algorithms::sum::hmm_all::sum_kernel(n, p, d, n),
            AnalysisConfig::hmm(w, d).with_launch(p as i64, d),
            run.report,
        ));
    }
    {
        let mut m = convolution::footprint(n, k, None, 0).umm(w, l);
        let run = hmm_algorithms::convolution::run_conv_dmm_umm(&mut m, &av, &bv, p).unwrap();
        let layout = hmm_algorithms::convolution::dmm_umm::Layout::new(n, k);
        cases.push((
            "conv-umm",
            hmm_algorithms::convolution::dmm_umm::conv_kernel_strided(layout),
            AnalysisConfig::umm(w).with_launch(p as i64, 1),
            run.report,
        ));
    }
    {
        let mut m = convolution::footprint(n, k, Some(d), 0).hmm(d, w, l);
        let run = hmm_algorithms::convolution::run_conv_hmm(&mut m, &av, &bv, p).unwrap();
        cases.push((
            "conv-hmm",
            hmm_algorithms::convolution::hmm::conv_kernel_hmm(n, k, d),
            AnalysisConfig::hmm(w, d).with_launch(p as i64, d),
            run.report,
        ));
    }
    {
        let mut m = prefix::footprint(n, p, None).umm(w, l);
        let run = hmm_algorithms::prefix::run_prefix_dmm_umm(&mut m, &input, p).unwrap();
        cases.push((
            "prefix-umm",
            hmm_algorithms::prefix::prefix_kernel_dmm_umm(n2),
            AnalysisConfig::umm(w).with_launch(p as i64, 1),
            run.report,
        ));
    }
    {
        let mut m = prefix::footprint(n, p, Some(d)).hmm(d, w, l);
        let run = hmm_algorithms::prefix::run_prefix_hmm(&mut m, &input, p).unwrap();
        cases.push((
            "prefix-hmm",
            hmm_algorithms::prefix::prefix_kernel_hmm(n, p, d),
            AnalysisConfig::hmm(w, d).with_launch(p as i64, d),
            run.report,
        ));
    }

    for (name, program, config, report) in cases {
        let a = analyze(&program, &config);
        assert!(!a.has_errors(), "{name}: {}", a.render());
        check_bound(
            name,
            "global",
            a.predicted_max_slots(Space::Global),
            report.global.max_slots_per_transaction,
        );
        check_bound(
            name,
            "shared",
            a.predicted_max_slots(Space::Shared),
            report.shared.max_slots_per_transaction,
        );
    }
}

/// When the analyzer commits to a range, the measurement must fall in it.
fn check_bound(name: &str, space: &str, predicted: Option<Degree>, measured: u64) {
    if let Some(deg) = predicted {
        assert!(
            measured <= deg.max as u64,
            "{name}/{space}: measured {measured} exceeds predicted max {}",
            deg.max
        );
    }
}

/// The engine's dynamic race checker must corroborate the
/// static verdicts: the racy example really races at runtime, and its
/// fixed form really does not.
#[test]
fn dynamic_race_checker_corroborates_static_verdicts() {
    let (d, w, l, p) = (2usize, 4usize, 4usize, 16usize);
    let config = AnalysisConfig::hmm(w, d).with_launch(p as i64, d);

    let racy = hmm_analysis::examples::racy_kernel();
    assert!(analyze(&racy, &config).has_errors());
    let mut m = Machine::hmm(d, w, l, 64, 8);
    let report = measure(&mut m, racy, p);
    assert!(
        report.shared_races > 0,
        "static says race, dynamic checker saw none"
    );

    let fixed = hmm_analysis::examples::racy_kernel_fixed();
    assert!(!analyze(&fixed, &config).has_errors());
    let mut m = Machine::hmm(d, w, l, 64, 8);
    let report = measure(&mut m, fixed, p);
    assert_eq!(
        report.shared_races, 0,
        "static says clean, dynamic checker disagrees"
    );
}
