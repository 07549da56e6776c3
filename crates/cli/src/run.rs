//! Command implementations.

use hmm_algorithms::convolution::{self, run_conv_dmm_umm, run_conv_hmm};
use hmm_algorithms::prefix::{self, run_prefix_dmm_umm, run_prefix_hmm};
use hmm_algorithms::reduce::{run_reduce_dmm_umm, run_reduce_hmm, ReduceOp};
use hmm_algorithms::sort::{self, run_sort_hmm, run_sort_umm};
use hmm_algorithms::sum::{dmm_umm, hmm_all};
use hmm_algorithms::Footprint;
use hmm_core::{presets, BatchRunner, Keyed};
use hmm_machine::{Machine, SimReport};
use hmm_workloads::random_words;

use crate::args::{Args, ParseError};
use std::fmt::Write as _;

/// What a command produced: a human summary, the simulation report,
/// and the command's own JSON document.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Human-readable summary (the full findings text for `lint`).
    pub summary: String,
    /// The simulation report (None for `info`, `lint`, `batch` and
    /// `tune`).
    pub report: Option<SimReport>,
    /// The command's own JSON document, which `--json` prints in place
    /// of the summary-and-report object: the findings for `lint`, one
    /// entry per sweep point for `batch`, the cycle-accounting profile
    /// for `profile`, the [`hmm_tune::TuneReport`] for `tune`. None for
    /// the simulation commands and `info`.
    pub json: Option<hmm_util::Value>,
    /// Whether the command completed but found a failure: lint's
    /// error-severity diagnostics, or a batch point whose simulation
    /// errored (the other points still report). The binary exits with
    /// status 2 when set.
    pub failed: bool,
}

/// Errors surfaced to the user.
#[derive(Debug)]
pub enum CliError {
    /// Bad command line.
    Parse(ParseError),
    /// Simulation failure.
    Sim(hmm_machine::SimError),
    /// Unknown command word.
    UnknownCommand(String),
    /// Failed to write an output file (`--perfetto-out`, `--profile-out`,
    /// `--out`).
    Io(String, std::io::Error),
    /// The autotuner rejected its configuration or failed to run.
    Tune(hmm_tune::TuneError),
    /// A well-formed parameter outside its valid range (the message
    /// names the flag).
    Invalid(String),
}

impl CliError {
    /// The process exit status for this error: 2 for bad input (a
    /// malformed or out-of-range argument, an unknown command, a launch
    /// or tuning run the simulator rejects), 1 for a failure to write an
    /// output file.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Parse(_)
            | CliError::Sim(_)
            | CliError::UnknownCommand(_)
            | CliError::Tune(_)
            | CliError::Invalid(_) => 2,
            CliError::Io(..) => 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Parse(e) => write!(f, "argument error: {e}"),
            CliError::Sim(e) => write!(f, "simulation error: {e}"),
            CliError::UnknownCommand(c) => write!(
                f,
                "unknown command {c:?} (try: sum, reduce, conv, prefix, sort, profile, tune, batch, lint, info)"
            ),
            CliError::Io(path, e) => write!(f, "cannot write {path:?}: {e}"),
            CliError::Tune(e) => write!(f, "tune error: {e}"),
            CliError::Invalid(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ParseError> for CliError {
    fn from(e: ParseError) -> Self {
        CliError::Parse(e)
    }
}

impl From<hmm_machine::SimError> for CliError {
    fn from(e: hmm_machine::SimError) -> Self {
        CliError::Sim(e)
    }
}

impl From<hmm_tune::TuneError> for CliError {
    fn from(e: hmm_tune::TuneError) -> Self {
        match e {
            hmm_tune::TuneError::EmptyProblem => {
                CliError::Invalid("--n 0: the problem size must be at least 1".into())
            }
            e => CliError::Tune(e),
        }
    }
}

pub(crate) struct MachineSpec {
    pub(crate) kind: String,
    pub(crate) n: usize,
    pub(crate) k: usize,
    pub(crate) p: usize,
    pub(crate) w: usize,
    pub(crate) l: usize,
    pub(crate) d: usize,
    pub(crate) seed: u64,
}

pub(crate) fn machine_spec(a: &Args) -> Result<MachineSpec, CliError> {
    let kind = a.get_choice("machine", "hmm", &["dmm", "umm", "hmm"])?;
    for (flag, what) in [
        ("d", "DMM count"),
        ("w", "width"),
        ("l", "latency"),
        ("p", "thread count"),
    ] {
        if a.get_num::<usize>(flag, 1)? == 0 {
            return Err(CliError::Invalid(format!(
                "--{flag} 0: the {what} must be at least 1"
            )));
        }
    }
    Ok(MachineSpec {
        kind,
        n: a.get_num("n", 1 << 14)?,
        k: a.get_num("k", 32)?,
        p: a.get_num("p", 2048)?,
        w: a.get_num("w", 32)?,
        l: a.get_num("l", 256)?,
        d: a.get_num("d", 16)?,
        seed: a.get_num("seed", 1)?,
    })
}

impl MachineSpec {
    fn build(&self, need: Footprint) -> Machine {
        match self.kind.as_str() {
            "dmm" => need.dmm(self.w, self.l),
            "umm" => need.umm(self.w, self.l),
            _ => need.hmm(self.d, self.w, self.l),
        }
    }

    /// The DMM count the HMM algorithms run on; `None` on the DMM and UMM.
    fn hmm_dmms(&self) -> Option<usize> {
        (self.kind == "hmm").then_some(self.d)
    }

    /// Clamp p to a multiple of d for the HMM algorithms.
    fn p_multiple_of_d(&self) -> usize {
        if self.kind == "hmm" {
            (self.p / self.d).max(1) * self.d
        } else {
            self.p
        }
    }
}

/// The simulation commands `batch` can sweep.
const BATCH_COMMANDS: [&str; 5] = ["sum", "reduce", "conv", "prefix", "sort"];

/// The flags each command reads; `None` for an unknown command.
/// `profile` and `batch` also read the flags of the algorithm they run.
#[rustfmt::skip]
fn flag_table(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "sum" | "conv" | "prefix" | "sort" => &["json", "machine", "n", "k", "p", "w", "l", "d", "seed"],
        "reduce" => &["json", "machine", "n", "k", "p", "w", "l", "d", "seed", "op"],
        "profile" => &["buckets", "top", "profile-out", "perfetto-out"],
        "tune" => &["json", "n", "seed", "budget", "threads", "space", "out", "top"],
        "batch" => &["cmd", "sweep", "values", "from", "to", "threads"],
        "lint" => &["json", "n", "k", "p", "w", "d", "all", "kernel"],
        "info" => &["json"],
        _ => return None,
    })
}

/// Check the command line against its flag table (see
/// [`Args::check_flags`]). Only `profile` and `tune` take a subject.
fn check_flags(a: &Args) -> Result<(), CliError> {
    let own = flag_table(&a.command).ok_or_else(|| CliError::UnknownCommand(a.command.clone()))?;
    let algo = match (a.command.as_str(), a.subject()) {
        ("profile", subject) => crate::profile::split_subject(subject.unwrap_or("sum-hmm"))?.0,
        ("batch", _) => a.get_choice("cmd", "sum", &BATCH_COMMANDS)?,
        ("tune", _) | (_, None) => String::new(),
        (_, Some(subject)) => return Err(ParseError::NotAFlag(subject.into()).into()),
    };
    let accepted = [own, flag_table(&algo).unwrap_or_default()].concat();
    Ok(a.check_flags(&accepted, &["json", "all"])?)
}

/// Execute a parsed command line. Every flag is checked against the
/// command's flag table before anything runs or writes.
///
/// # Errors
/// Returns a [`CliError`] for bad arguments or simulation failures.
pub fn execute(a: &Args) -> Result<Outcome, CliError> {
    check_flags(a)?;
    run_command(a)
}

/// Execute a command line whose flags are already checked.
fn run_command(a: &Args) -> Result<Outcome, CliError> {
    match a.command.as_str() {
        "info" => {
            let g = presets::gtx580();
            Ok(Outcome {
                summary: format!(
                    "presets: gtx580(d={}, w={}, l={}), medium(d=4, w=16, l=64), tiny(d=2, w=4, l=8)",
                    g.d, g.w, g.l
                ),
                ..Outcome::default()
            })
        }
        "sum" | "reduce" | "conv" | "prefix" | "sort" => {
            let spec = machine_spec(a)?;
            let mut m = algo_machine(&a.command, &spec);
            let (summary, report) = run_algo(&a.command, a, &spec, &mut m)?;
            Ok(Outcome {
                summary,
                report: Some(report),
                ..Outcome::default()
            })
        }
        "profile" => crate::profile::execute_profile(a),
        "tune" => crate::tune::execute_tune(a),
        "batch" => run_batch(a),
        "lint" => {
            let lint = crate::lint::execute(a)?;
            Ok(Outcome {
                summary: lint.text.trim_end().to_string(),
                json: Some(lint.json),
                failed: lint.failed,
                ..Outcome::default()
            })
        }
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

/// Build the machine an algorithm command needs, sized by the
/// algorithm's footprint (shared with the `profile` command).
pub(crate) fn algo_machine(algo: &str, spec: &MachineSpec) -> Machine {
    let (n, p, hmm) = (spec.n, spec.p_multiple_of_d(), spec.hmm_dmms());
    spec.build(match (algo, hmm) {
        ("conv", _) => convolution::footprint(n, spec.k, hmm, 0),
        ("prefix", _) => prefix::footprint(n, p, hmm),
        ("sort", _) => sort::footprint(n, hmm),
        // sum | reduce
        (_, Some(d)) => hmm_all::footprint(n, p, d),
        (_, None) => dmm_umm::footprint(n),
    })
}

/// Run `algo` on an already-built machine `m` and return the one-line
/// human summary plus the simulation report.
pub(crate) fn run_algo(
    algo: &str,
    a: &Args,
    spec: &MachineSpec,
    m: &mut Machine,
) -> Result<(String, SimReport), CliError> {
    match algo {
        "conv" => {
            let av = random_words(spec.k, spec.seed, 50);
            let bv = random_words((spec.n + spec.k).saturating_sub(1), spec.seed + 1, 50);
            let run = if spec.kind == "hmm" {
                run_conv_hmm(m, &av, &bv, spec.p_multiple_of_d())?
            } else {
                run_conv_dmm_umm(m, &av, &bv, spec.p)?
            };
            Ok((
                format!(
                    "convolution n={} k={} on {}: c[0]={} in {} time units",
                    spec.n, spec.k, spec.kind, run.value[0], run.report.time
                ),
                run.report,
            ))
        }
        "prefix" => {
            let input = random_words(spec.n, spec.seed, 1000);
            let run = if spec.kind == "hmm" {
                run_prefix_hmm(m, &input, spec.p_multiple_of_d())?
            } else {
                run_prefix_dmm_umm(m, &input, spec.p)?
            };
            Ok((
                format!(
                    "prefix sums n={} on {}: last={} in {} time units",
                    spec.n,
                    spec.kind,
                    run.value.last().copied().unwrap_or(0),
                    run.report.time
                ),
                run.report,
            ))
        }
        "sort" => {
            let input = random_words(spec.n, spec.seed, 1_000_000);
            let run = if spec.kind == "hmm" {
                run_sort_hmm(m, &input, spec.p_multiple_of_d())?
            } else {
                run_sort_umm(m, &input, spec.p)?
            };
            let sorted_ok = run.value.windows(2).all(|p| p[0] <= p[1]);
            assert!(sorted_ok, "output not sorted");
            Ok((
                format!(
                    "bitonic sort n={} on {}: sorted=true in {} time units",
                    spec.n, spec.kind, run.report.time
                ),
                run.report,
            ))
        }
        // sum | reduce; only `reduce` takes `--op`.
        _ => {
            let op = match algo {
                "reduce" => match a.get_choice("op", "sum", &["sum", "min", "max"])?.as_str() {
                    "min" => ReduceOp::Min,
                    "max" => ReduceOp::Max,
                    _ => ReduceOp::Sum,
                },
                _ => ReduceOp::Sum,
            };
            let input = random_words(spec.n, spec.seed, 1000);
            let expect = op.fold(&input);
            let run = if spec.kind == "hmm" {
                run_reduce_hmm(m, &input, spec.p_multiple_of_d(), op)?
            } else {
                run_reduce_dmm_umm(m, &input, spec.p, op)?
            };
            assert_eq!(run.value, expect, "result mismatch vs host fold");
            Ok((
                format!(
                    "{:?} of n={} on {}: value {} in {} time units",
                    op, spec.n, spec.kind, run.value, run.report.time
                ),
                run.report,
            ))
        }
    }
}

/// The sweep points for `batch`: an explicit `--values a,b,c` list, or a
/// doubling ladder from `--from` to `--to`.
fn sweep_values(a: &Args) -> Result<Vec<usize>, CliError> {
    let raw = a.get_str("values", "");
    if !raw.is_empty() {
        return raw
            .split(',')
            .map(|tok| {
                tok.trim()
                    .parse()
                    .map_err(|_| ParseError::BadNumber("values".into(), tok.to_string()).into())
            })
            .collect();
    }
    let from = a.get_num::<usize>("from", 256)?.max(1);
    let to = a.get_num("to", 4096)?;
    let mut values = Vec::new();
    let mut v = from;
    while v <= to {
        values.push(v);
        v *= 2;
    }
    if values.is_empty() {
        values.push(from);
    }
    Ok(values)
}

/// The `batch` command: sweep one flag of a simulation command across a
/// list of values, fanning the independent runs out over a
/// [`BatchRunner`], one simulation per worker.
///
/// Results come back [`Keyed`] by the sweep value that produced them, so
/// a failing point cannot shift attribution of its neighbours: the
/// failure is reported in its own row and the binary exits with status 2
/// after the surviving points have printed.
fn run_batch(a: &Args) -> Result<Outcome, CliError> {
    let cmd = a.get_choice("cmd", "sum", &BATCH_COMMANDS)?;
    let key = a.get_choice("sweep", "n", &["n", "k", "p", "w", "l", "d"])?;
    let values = sweep_values(a)?;
    let threads = a.get_num("threads", 0)?;
    let runner = if threads == 0 {
        BatchRunner::new()
    } else {
        BatchRunner::with_threads(threads)
    };
    let jobs: Vec<(usize, Args)> = values
        .iter()
        .map(|&v| {
            let mut sub = a.clone();
            sub.command.clone_from(&cmd);
            sub.set(&key, v.to_string());
            (v, sub)
        })
        .collect();
    let results = runner.run_keyed(jobs, |(_, sub)| run_command(sub));

    let mut summary = format!(
        "batch {cmd}: sweep --{key} over {} points, {} batch threads",
        values.len(),
        runner.threads()
    );
    let mut rows = Vec::new();
    let mut failed = false;
    for Keyed {
        config: (v, _),
        result,
    } in results
    {
        match result {
            Ok(o) => {
                let _ = write!(summary, "\n  --{key} {v}: {}", o.summary);
                rows.push(hmm_util::Value::object(vec![
                    (key.as_str(), v.into()),
                    ("summary", o.summary.as_str().into()),
                    (
                        "report",
                        o.report
                            .as_ref()
                            .map_or(hmm_util::Value::Null, SimReport::to_json),
                    ),
                ]));
            }
            Err(e) => {
                failed = true;
                let _ = write!(summary, "\n  --{key} {v}: error: {e}");
                rows.push(hmm_util::Value::object(vec![
                    (key.as_str(), v.into()),
                    ("error", e.to_string().as_str().into()),
                    ("report", hmm_util::Value::Null),
                ]));
            }
        }
    }
    Ok(Outcome {
        summary,
        json: Some(hmm_util::Value::object(vec![
            ("command", cmd.as_str().into()),
            ("sweep", key.as_str().into()),
            ("threads", runner.threads().into()),
            ("failed", failed.into()),
            ("points", hmm_util::Value::Array(rows)),
        ])),
        failed,
        ..Outcome::default()
    })
}

/// Render an outcome as text or JSON.
#[must_use]
pub fn render(outcome: &Outcome, json: bool) -> String {
    if json {
        if let Some(doc) = &outcome.json {
            return doc.to_json_pretty();
        }
        let report = outcome
            .report
            .as_ref()
            .map_or(hmm_util::Value::Null, hmm_machine::SimReport::to_json);
        hmm_util::Value::object(vec![
            ("summary", outcome.summary.as_str().into()),
            ("report", report),
        ])
        .to_json_pretty()
    } else {
        let mut out = outcome.summary.clone();
        if let Some(r) = &outcome.report {
            let _ = write!(
                out,
                "\n  instructions {}  global slots {} (util {:.2})  shared slots {}  barriers {}  skipped units {}",
                r.instructions,
                r.global.slots,
                r.global_utilization(),
                r.shared.slots,
                r.barriers,
                r.skipped_units
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &str) -> Result<Outcome, CliError> {
        let args = Args::parse(line.split_whitespace().map(String::from))?;
        execute(&args)
    }

    #[test]
    fn info_runs() {
        let o = run_line("info").unwrap();
        assert!(o.summary.contains("gtx580"));
        assert!(o.report.is_none());
    }

    #[test]
    fn sum_runs_on_all_machines() {
        for m in ["dmm", "umm", "hmm"] {
            let o = run_line(&format!(
                "sum --machine {m} --n 512 --p 64 --w 8 --l 8 --d 4"
            ))
            .unwrap();
            assert!(o.report.is_some(), "{m}");
        }
    }

    #[test]
    fn reduce_min_and_max() {
        for op in ["min", "max"] {
            let o = run_line(&format!(
                "reduce --op {op} --machine hmm --n 256 --p 32 --w 4 --l 4 --d 4"
            ))
            .unwrap();
            assert!(o.summary.contains("time units"));
        }
    }

    #[test]
    fn conv_prefix_sort_run() {
        for cmd in [
            "conv --n 128 --k 8 --p 32 --w 8 --l 8 --d 4",
            "prefix --n 200 --p 32 --w 8 --l 8 --d 4",
            "sort --n 100 --p 32 --w 8 --l 8 --d 4",
            "sort --machine umm --n 64 --p 16 --w 4 --l 4",
        ] {
            let o = run_line(cmd).unwrap_or_else(|e| panic!("{cmd}: {e}"));
            assert!(o.report.is_some(), "{cmd}");
        }
    }

    #[test]
    fn threads_flag_accepted_on_all_commands() {
        // A batch's simulated results must be identical at every worker
        // count; only the recorded pool size differs.
        let batch = |threads: usize| {
            let doc = run_line(&format!(
                "batch --cmd sum --sweep n --values 128,256,512 --p 64 --w 8 --l 8 --d 4 --threads {threads}"
            ))
            .unwrap()
            .json
            .expect("batch JSON");
            assert_eq!(doc["threads"].as_u64(), Some(threads as u64));
            doc["points"].to_json()
        };
        let base = batch(1);
        for threads in [2, 4] {
            assert_eq!(batch(threads), base, "--threads {threads} diverged");
        }
    }

    #[test]
    fn batch_sweeps_values_in_order() {
        let o = run_line(
            "batch --cmd sum --sweep n --values 128,256 --p 32 --w 8 --l 8 --d 4 --threads 2",
        )
        .unwrap();
        assert!(o.summary.contains("--n 128"));
        assert!(o.summary.contains("--n 256"));
        let batch = o.json.expect("batch JSON");
        let points = match &batch["points"] {
            hmm_util::Value::Array(rows) => rows,
            other => panic!("points not an array: {other:?}"),
        };
        assert_eq!(points.len(), 2);
        assert_eq!(points[0]["n"].as_u64(), Some(128));
        assert_eq!(points[1]["n"].as_u64(), Some(256));
        assert!(points[0]["report"]["time"].as_u64().unwrap() > 0);
    }

    #[test]
    fn batch_reports_per_point_errors_and_flags_failure() {
        // p = 0 cannot launch: that point must fail in its own row while
        // the p = 8 point still reports, and the outcome must carry the
        // failure flag that drives the non-zero exit status.
        let o = run_line(
            "batch --cmd sum --machine umm --sweep p --values 8,0 --n 64 --w 4 --l 4 --threads 1",
        )
        .unwrap();
        assert!(o.failed, "zero-thread point must flag the batch");
        assert!(o.summary.contains("--p 0: error:"));
        assert!(o.summary.contains("--p 8:"));
        let batch = o.json.expect("batch JSON");
        assert_eq!(batch["failed"].as_bool(), Some(true));
        let points = match &batch["points"] {
            hmm_util::Value::Array(rows) => rows,
            other => panic!("points not an array: {other:?}"),
        };
        assert_eq!(points.len(), 2);
        assert!(points[0]["report"]["time"].as_u64().unwrap() > 0);
        assert!(matches!(points[0]["error"], hmm_util::Value::Null));
        assert!(points[1]["error"].as_str().is_some());
        assert!(matches!(points[1]["report"], hmm_util::Value::Null));
        // A clean batch must not set the flag.
        let ok =
            run_line("batch --cmd sum --sweep n --values 64 --p 16 --w 4 --l 4 --d 2").unwrap();
        assert!(!ok.failed);
        assert_eq!(ok.json.unwrap()["failed"].as_bool(), Some(false));
    }

    #[test]
    fn batch_doubling_ladder_and_bad_values() {
        let o = run_line("batch --cmd sort --from 32 --to 64 --p 16 --w 4 --l 4 --d 2").unwrap();
        assert!(o.summary.contains("--n 32"));
        assert!(o.summary.contains("--n 64"));
        assert!(matches!(
            run_line("batch --values 1,two"),
            Err(CliError::Parse(ParseError::BadNumber(..)))
        ));
    }

    /// Every command line the README, the CI workflow and the help text
    /// show passes the flag check.
    #[test]
    fn documented_command_lines_pass_the_flag_check() {
        for line in [
            "conv --machine hmm --n 4096 --k 64 --p 2048 --d 16 --json",
            "sort --machine umm --n 1024 --p 256 --json",
            "batch --cmd sum --sweep n --from 1024 --to 16384 --threads 4",
            "profile sum-hmm --n 16384 --p 2048 --d 16",
            "profile conv-hmm --top 5 --json",
            "profile sort-umm --perfetto-out sort.perfetto.json",
            "profile sum-hmm --n 4096 --p 512 --d 8 --w 16 --l 64 \
             --profile-out a.json --perfetto-out b.json",
            "tune sum --seed 42 --budget 64",
            "tune conv --space warps=1,2,4;pad=0,1;unroll=1,2 --budget 6 --out tune-conv.json",
            "tune sum --n 512 --space warps=1,2;pad=0,1;swizzle=0,1 --budget 16 --seed 42 \
             --threads 1 --out tune-sum.json",
            "reduce --op min --machine hmm --n 256 --p 32 --w 4 --l 4 --d 4",
            "lint --all",
            "lint --kernel figure1-column --json",
            "info",
        ] {
            let args = Args::parse(line.split_whitespace().map(String::from)).unwrap();
            check_flags(&args).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }

    #[test]
    fn switches_take_no_value_and_other_flags_need_one() {
        assert!(matches!(
            run_line("sum --json 1"),
            Err(CliError::Parse(ParseError::NotAFlag(v))) if v == "1"
        ));
        assert!(matches!(
            run_line("sum --n"),
            Err(CliError::Parse(ParseError::MissingValue(k))) if k == "n"
        ));
        assert!(matches!(
            run_line("sum extra --n 4"),
            Err(CliError::Parse(ParseError::NotAFlag(v))) if v == "extra"
        ));
    }

    #[test]
    fn unknown_command_rejected() {
        assert!(matches!(
            run_line("frobnicate"),
            Err(CliError::UnknownCommand(_))
        ));
    }

    #[test]
    fn render_text_and_json() {
        let o = run_line("sum --machine umm --n 64 --p 8 --w 4 --l 2").unwrap();
        let text = render(&o, false);
        assert!(text.contains("instructions"));
        let json = render(&o, true);
        let v = hmm_util::json::parse(&json).unwrap();
        assert!(v["report"]["time"].as_u64().unwrap() > 0);
    }
}
