//! The `lint` command: run the static analyzer over named kernels.
//!
//! `hmm-cli lint --kernel <name>` analyses one kernel;
//! `hmm-cli lint --all` analyses every *shipped* kernel (the paper's
//! algorithms plus the Figure 1 patterns) and is what CI runs — it must
//! find no error-severity diagnostics. The deliberately broken example
//! kernels (`racy`, `divergent-bar`, `uninit`) are reachable by name
//! only, so the non-zero exit path stays testable.

use hmm_analysis::{examples, Analysis, AnalysisConfig};
use hmm_machine::Program;
use hmm_util::Value;
use std::fmt::Write as _;

use crate::args::Args;
use crate::run::CliError;

/// Machine/launch parameters shared by every lint target.
#[derive(Debug, Clone, Copy)]
pub struct LintParams {
    /// Problem size.
    pub n: usize,
    /// Kernel width (convolution).
    pub k: usize,
    /// Threads.
    pub p: usize,
    /// Warp width.
    pub w: usize,
    /// Number of DMMs.
    pub d: usize,
}

/// One named kernel plus the machine shape to analyse it under.
pub struct LintTarget {
    /// Registry name (stable; used on the command line and in CI).
    pub name: &'static str,
    /// The compiled program.
    pub program: Program,
    /// Machine/launch assumptions.
    pub config: AnalysisConfig,
    /// Whether `--all` includes it (false for the deliberately broken
    /// example kernels).
    pub shipped: bool,
}

fn umm(p: &LintParams) -> AnalysisConfig {
    AnalysisConfig::umm(p.w).with_launch(p.p as i64, 1)
}

fn dmm(p: &LintParams) -> AnalysisConfig {
    AnalysisConfig::dmm(p.w).with_launch(p.p as i64, 1)
}

fn hmm(p: &LintParams) -> AnalysisConfig {
    AnalysisConfig::hmm(p.w, p.d).with_launch(p.p as i64, p.d)
}

/// Build the full registry for one parameter set.
#[must_use]
#[allow(clippy::too_many_lines)]
pub fn registry(pr: &LintParams) -> Vec<LintTarget> {
    use hmm_algorithms as alg;
    let n2 = pr.n.next_power_of_two();
    let m = pr.w * 4; // Figure 1 matrix edge: a multiple of w
    let layout = alg::convolution::dmm_umm::Layout::new(pr.n, pr.k);
    let mut out = Vec::new();
    let mut push = |name, program, config, shipped| {
        out.push(LintTarget {
            name,
            program,
            config,
            shipped,
        });
    };

    for pat in alg::patterns::Figure1::ALL {
        let program = alg::patterns::figure1_kernel(pat, m);
        match pat {
            alg::patterns::Figure1::Row => {
                push("figure1-row", program, umm(pr), true);
            }
            alg::patterns::Figure1::Column => {
                push("figure1-column", program, umm(pr), true);
            }
            alg::patterns::Figure1::Diagonal => {
                push("figure1-diagonal", program, dmm(pr), true);
            }
            alg::patterns::Figure1::Broadcast => {
                push("figure1-broadcast", program, umm(pr), true);
            }
        }
    }
    push(
        "transpose",
        alg::patterns::transpose_kernel(0, m * m, m),
        umm(pr),
        true,
    );
    push(
        "contiguous-read",
        alg::contiguous::access_kernel(0, pr.n, alg::contiguous::AccessMode::Read),
        umm(pr),
        true,
    );
    push(
        "copy",
        alg::contiguous::copy_kernel(0, pr.n, pr.n),
        umm(pr),
        true,
    );
    push("sum", alg::sum::dmm_umm::sum_kernel(0, n2), umm(pr), true);
    push(
        "sum-hmm",
        alg::sum::hmm_all::sum_kernel(pr.n, pr.p, pr.d, pr.n),
        hmm(pr),
        true,
    );
    push(
        "conv",
        alg::convolution::dmm_umm::conv_kernel_strided(layout),
        umm(pr),
        true,
    );
    push(
        "conv-hmm",
        alg::convolution::hmm::conv_kernel_hmm(pr.n, pr.k, pr.d),
        hmm(pr),
        true,
    );
    push(
        "prefix",
        alg::prefix::prefix_kernel_dmm_umm(n2),
        umm(pr),
        true,
    );
    push(
        "prefix-hmm",
        alg::prefix::prefix_kernel_hmm(pr.n, pr.p, pr.d),
        hmm(pr),
        true,
    );
    push("sort", alg::sort::sort_kernel_umm(n2), umm(pr), true);
    push(
        "sort-hmm",
        alg::sort::sort_kernel_hmm(n2.max(2 * pr.d), pr.d),
        hmm(pr),
        true,
    );

    // Broken examples: reachable by name, excluded from --all.
    push("racy", examples::racy_kernel(), hmm(pr), false);
    push("racy-fixed", examples::racy_kernel_fixed(), hmm(pr), true);
    push(
        "divergent-bar",
        examples::divergent_barrier_kernel(),
        hmm(pr),
        false,
    );
    push(
        "divergent-bar-fixed",
        examples::divergent_barrier_kernel_fixed(),
        hmm(pr),
        true,
    );
    push("uninit", examples::uninit_kernel(), umm(pr), false);
    push("clean", examples::clean_kernel(), umm(pr), true);
    out
}

/// The outcome of a lint run: rendered text/JSON plus the exit status.
pub struct LintOutcome {
    /// Human-readable rendering.
    pub text: String,
    /// JSON rendering.
    pub json: Value,
    /// Whether any analysed kernel had error-severity findings.
    pub failed: bool,
}

/// Execute `lint` from parsed arguments.
///
/// # Errors
/// [`CliError::Parse`] on bad flags, [`CliError::Invalid`] when neither
/// `--all` nor a known `--kernel` is given, or when a parameter is one
/// the registry's kernels cannot be built for.
pub fn execute(a: &Args) -> Result<LintOutcome, CliError> {
    let params = LintParams {
        n: a.get_num("n", 1 << 10)?,
        k: a.get_num("k", 16)?,
        p: a.get_num("p", 256)?,
        w: a.get_num("w", 32)?,
        d: a.get_num("d", 4)?,
    };
    let LintParams { n, p, w, d, .. } = params;
    let problem = if w == 0 {
        Some("--w 0: the width must be at least 1".to_string())
    } else if !d.is_power_of_two() {
        Some(format!("--d {d}: the DMM count must be a power of two"))
    } else if !p.is_multiple_of(d) {
        Some(format!(
            "--p {p}: the thread count must be a multiple of --d {d}"
        ))
    } else if n < 2 {
        Some(format!("--n {n}: the problem size must be at least 2"))
    } else {
        None
    };
    if let Some(msg) = problem {
        return Err(CliError::Invalid(msg));
    }
    let all = registry(&params);
    let selected: Vec<&LintTarget> = if a.has("all") {
        all.iter().filter(|t| t.shipped).collect()
    } else {
        let name = a.get_str("kernel", "");
        let Some(t) = all.iter().find(|t| t.name == name) else {
            let names: Vec<&str> = all.iter().map(|t| t.name).collect();
            let what = if name.is_empty() {
                "lint needs --kernel <name> or --all".to_string()
            } else {
                format!("--kernel {name:?} is not a kernel")
            };
            return Err(CliError::Invalid(format!(
                "{what}; kernels: {}",
                names.join(", ")
            )));
        };
        vec![t]
    };

    let mut text = String::new();
    let mut entries: Vec<Value> = Vec::new();
    let mut failed = false;
    for t in &selected {
        let analysis: Analysis = hmm_analysis::analyze(&t.program, &t.config);
        failed |= analysis.has_errors();
        let _ = write!(
            text,
            "== {} ({} instructions)\n{}",
            t.name,
            t.program.len(),
            analysis.render()
        );
        entries.push(Value::object(vec![
            ("kernel", t.name.into()),
            ("analysis", analysis.to_json()),
        ]));
    }
    text.push_str(if failed {
        "lint: FAIL (error-severity findings)\n"
    } else {
        "lint: ok\n"
    });
    Ok(LintOutcome {
        text,
        json: Value::object(vec![
            ("kernels", Value::Array(entries)),
            ("failed", failed.into()),
        ]),
        failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &str) -> Result<LintOutcome, CliError> {
        let args = Args::parse(line.split_whitespace().map(String::from)).unwrap();
        execute(&args)
    }

    #[test]
    fn all_shipped_kernels_lint_clean() {
        let o = run_line("lint --all").unwrap();
        assert!(!o.failed, "{}", o.text);
        assert!(o.text.contains("figure1-row"));
        assert!(o.text.contains("sort-hmm"));
    }

    #[test]
    fn broken_examples_fail_by_name() {
        for name in ["racy", "divergent-bar", "uninit"] {
            let o = run_line(&format!("lint --kernel {name}")).unwrap();
            assert!(o.failed, "{name} should fail:\n{}", o.text);
        }
    }

    #[test]
    fn unknown_kernel_is_an_error() {
        for line in ["lint --kernel nope", "lint"] {
            let Err(CliError::Invalid(msg)) = run_line(line) else {
                panic!("{line}: expected an invalid-parameter error");
            };
            assert!(
                msg.contains("--kernel") && msg.contains("figure1-row"),
                "{msg}"
            );
        }
    }

    /// `(length, 64-bit FNV-1a)` of a rendering.
    fn digest(text: &str) -> (usize, u64) {
        let h = text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
        (text.len(), h)
    }

    /// Every shipped kernel's analysis, pinned byte for byte: a change to
    /// the analyzer that is not meant to move a finding fails here.
    #[test]
    fn all_kernels_json_is_pinned() {
        let o = run_line("lint --all --json").unwrap();
        assert_eq!(
            digest(&o.json.to_json_pretty()),
            (135_560, 0xe4ad_ae7c_6cd6_0971)
        );
    }

    #[test]
    fn json_rendering_has_per_kernel_entries() {
        let o = run_line("lint --kernel figure1-column --json").unwrap();
        let kernels = o.json["kernels"].as_array().unwrap();
        assert_eq!(kernels.len(), 1);
        assert_eq!(kernels[0]["kernel"].as_str(), Some("figure1-column"));
        assert_eq!(o.json["failed"].as_bool(), Some(false));
    }
}
