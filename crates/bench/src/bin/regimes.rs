//! Print the limitation-regime map for the sum on each model over a
//! `p × l` grid, and verify it against measurement: in each regime,
//! perturbing the dominating parameter must move the measured time more
//! than perturbing the others.
//!
//! Letters: S = speed-up, B = bandwidth, L = latency, R = reduction.
//!
//! Run with `cargo run --release -p hmm-bench --bin regimes`.

use hmm_algorithms::sum::{dmm_umm, hmm_all, run_sum_dmm_umm, run_sum_hmm};
use hmm_theory::regimes::dominant;
use hmm_theory::{table2, Params};

fn main() {
    let n = 1 << 14;
    let (w, d) = (32usize, 16usize);
    let ps = [64usize, 256, 1024, 4096, 16384];
    let ls = [1usize, 8, 64, 512];

    for (name, is_hmm) in [("DMM/UMM (Lemma 5)", false), ("HMM (Theorem 7)", true)] {
        println!("== dominant limitation, sum on the {name}, n = {n}, w = {w} ==\n");
        print!("{:>8} |", "p \\ l");
        for &l in &ls {
            print!("{l:>6}");
        }
        println!();
        println!("{}", "-".repeat(10 + 6 * ls.len()));
        for &p in &ps {
            print!("{p:>8} |");
            for &l in &ls {
                let pr = Params {
                    n,
                    k: 1,
                    p,
                    w,
                    l,
                    d: if is_hmm { d } else { 1 },
                };
                let lb = if is_hmm {
                    table2::sum_hmm(pr)
                } else {
                    table2::sum_dmm_umm(pr)
                };
                print!("{:>6}", dominant(&lb).code());
            }
            println!();
        }
        println!();
    }

    // Empirical spot-check: at (p = 16384, l = 1) the sum is
    // bandwidth-bound, so halving w should ~double the time while
    // doubling l barely moves it; at (p = 64, l = 512) it is
    // latency-bound, so the sensitivities flip.
    println!("== sensitivity check (measured) ==\n");
    let time_umm = |p: usize, wid: usize, l: usize| {
        let mut m = dmm_umm::footprint(n).umm(wid, l);
        run_sum_dmm_umm(&mut m, &vec![1; n], p).unwrap().report.time as f64
    };
    let bw = (
        time_umm(16384, w, 1),
        time_umm(16384, w / 2, 1),
        time_umm(16384, w, 2),
    );
    println!(
        "bandwidth-bound point: base {:.0}, half-width {:.0} ({:.2}x), double-latency {:.0} ({:.2}x)",
        bw.0,
        bw.1,
        bw.1 / bw.0,
        bw.2,
        bw.2 / bw.0
    );
    assert!(
        bw.1 / bw.0 > 1.5,
        "halving w should hurt a bandwidth-bound run"
    );
    assert!(bw.2 / bw.0 < 1.3, "doubling l should not");

    let lat = (
        time_umm(64, w, 512),
        time_umm(64, w / 2, 512),
        time_umm(64, w, 1024),
    );
    println!(
        "latency-bound point:   base {:.0}, half-width {:.0} ({:.2}x), double-latency {:.0} ({:.2}x)",
        lat.0,
        lat.1,
        lat.1 / lat.0,
        lat.2,
        lat.2 / lat.0
    );
    assert!(
        lat.2 / lat.0 > 1.5,
        "doubling l should hurt a latency-bound run"
    );
    assert!(lat.1 / lat.0 < 1.3, "halving w should not");

    // HMM utilization at the two extremes, showing where the pipeline sits.
    let mut m = hmm_all::footprint(n, 8192, d).hmm(d, w, 256);
    let r = run_sum_hmm(&mut m, &vec![1; n], 8192).unwrap();
    println!(
        "\nHMM (p = 8192, l = 256): global utilization {:.2}, requests/slot {:.1}",
        r.report.global_utilization(),
        r.report.global_requests_per_slot()
    );
    println!("\nregime map verified: PASS");
}
