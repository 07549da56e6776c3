//! Fuzzy text search on a memory machine — the approximate string
//! matching workload of the paper's reference \[18\], run on the UMM.
//!
//! Finds where a (possibly misspelled) pattern best matches a text, via
//! the anti-diagonal wavefront dynamic program.
//!
//! ```text
//! cargo run --release --example fuzzy_search
//! ```

use hmm_algorithms::string_match::{footprint, match_reference, run_match_dmm_umm};
use hmm_machine::Word;

fn words(s: &str) -> Vec<Word> {
    s.bytes().map(Word::from).collect()
}

fn main() {
    let text = "the hierarchical memory machine model captures the essence of \
                the shared memory and the global memory of gpus";
    let queries = ["memor", "machne", "globel memory", "hierarchical"];

    println!("text ({} chars): {text:?}\n", text.len());
    let t = words(text);

    for q in queries {
        let p = words(q);
        let (w, l, threads) = (16, 64, 128);
        let mut machine = footprint(p.len(), t.len()).umm(w, l);
        let run = run_match_dmm_umm(&mut machine, &p, &t, threads).unwrap();
        assert_eq!(run.value, match_reference(&p, &t));

        let (best_end, best) = run
            .value
            .iter()
            .enumerate()
            .skip(1)
            .min_by_key(|&(_, s)| *s)
            .unwrap();
        let start = best_end.saturating_sub(q.len());
        println!(
            "query {q:?}: best distance {best} ending at {best_end} -> {:?} ({} time units, {} diagonals)",
            &text[start..best_end],
            run.report.time,
            p.len() + t.len() + 1
        );
    }
}
