//! Wall-clock benches for the raw engine: contiguous access throughput
//! (Lemma 1 / Theorem 2 kernels) across thread counts, plus the
//! non-pipelined ablation.

use hmm_algorithms::contiguous::{footprint, run_access, AccessMode};
use hmm_machine::{EngineConfig, Machine};
use hmm_util::bench::BenchGroup;

fn main() {
    let (w, l, n) = (32, 256, 1 << 14);

    let mut group = BenchGroup::new("contiguous");
    group.sample_size(10);

    for &p in &[32usize, 512, 8192] {
        group.bench(&format!("umm_read/{p}"), || {
            let mut m = footprint(n, 1).umm(w, l);
            run_access(&mut m, n, p, AccessMode::Read).unwrap().time
        });
    }

    group.bench("umm_read_nopipeline/512", || {
        let mut cfg = EngineConfig::umm(w, l, footprint(n, 1).global);
        cfg.pipelined = false;
        let mut m = Machine::new(cfg);
        run_access(&mut m, n, 512, AccessMode::Read).unwrap().time
    });
}
