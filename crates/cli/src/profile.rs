//! The `profile` command: run a paper kernel with cycle accounting on
//! and render where every thread-cycle went.
//!
//! ```text
//! hmm-cli profile <algo>[-<machine>] [--buckets B] [--top N]
//!                 [--profile-out FILE] [--perfetto-out FILE] [--json]
//! ```
//!
//! The subject names one of the algorithm commands (`sum`, `reduce`,
//! `conv`, `prefix`, `sort`) with an optional machine suffix
//! (`sum-hmm`, `sort-umm`); without a suffix the `--machine` flag (or
//! its `hmm` default) applies. All the sizing flags of the plain
//! commands (`--n --k --p --w --l --d --seed`) work unchanged;
//! `--threads` applies only to `batch` and `tune`, which run many
//! simulations. Algorithms may launch several kernels; the profile
//! document carries one entry per launch, each labelled with its
//! kernel name, and the text report renders each in turn. The Perfetto
//! export covers the event trace of the **last** launch of the run
//! (the engine keeps one trace), with the matching launch's occupancy
//! counters attached.

use hmm_prof::{profile_to_json, render_report, trace_to_perfetto};
use hmm_util::Value;

use crate::args::{Args, ParseError};
use crate::run::{algo_machine, machine_spec, run_algo, CliError, Outcome};
use std::fmt::Write as _;

const ALGOS: [&str; 5] = ["sum", "reduce", "conv", "prefix", "sort"];

/// Split `sum-hmm` into the algorithm and the optional machine suffix.
pub(crate) fn split_subject(subject: &str) -> Result<(String, Option<&'static str>), CliError> {
    let (algo, kind) = ["dmm", "umm", "hmm"]
        .iter()
        .find_map(|&k| {
            subject
                .strip_suffix(&format!("-{k}"))
                .map(|algo| (algo.to_string(), Some(k)))
        })
        .unwrap_or((subject.to_string(), None));
    if ALGOS.contains(&algo.as_str()) {
        Ok((algo, kind))
    } else {
        Err(ParseError::BadChoice("profile".into(), subject.into()).into())
    }
}

fn write_file(path: &str, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents).map_err(|e| CliError::Io(path.to_string(), e))
}

/// Execute `profile <kernel>`.
pub(crate) fn execute_profile(a: &Args) -> Result<Outcome, CliError> {
    let subject = a.subject().unwrap_or("sum-hmm").to_string();
    let (algo, kind) = split_subject(&subject)?;
    let mut a = a.clone();
    if let Some(kind) = kind {
        a.set("machine", kind);
    }
    let spec = machine_spec(&a)?;
    let buckets = a.get_num("buckets", hmm_machine::machine::DEFAULT_PROFILE_BUCKETS)?;
    let top = a.get_num("top", 10)?;
    let profile_out = a.get_str("profile-out", "");
    let perfetto_out = a.get_str("perfetto-out", "");

    let mut m = algo_machine(&algo, &spec);
    m.set_profiling(true);
    m.set_profile_buckets(buckets);
    if !perfetto_out.is_empty() {
        m.set_trace(true);
    }
    let (algo_summary, report) = run_algo(&algo, &a, &spec, &mut m)?;
    let profiles = m.take_profiles();
    let trace = m.take_trace();

    let doc = Value::object(vec![
        ("kernel", subject.as_str().into()),
        ("report", report.to_json()),
        (
            "launches",
            Value::Array(profiles.iter().map(profile_to_json).collect()),
        ),
    ]);
    if !profile_out.is_empty() {
        write_file(&profile_out, &doc.to_json_pretty())?;
    }
    if !perfetto_out.is_empty() {
        let t = trace.unwrap_or_default();
        let perfetto = trace_to_perfetto(&t, profiles.last());
        write_file(&perfetto_out, &perfetto.to_json())?;
    }

    let mut summary = algo_summary;
    let _ = write!(
        summary,
        "\nprofiled {} launch(es), {} time units total",
        profiles.len(),
        report.time
    );
    for p in &profiles {
        let _ = write!(summary, "\n\n{}", render_report(p, top).trim_end());
    }
    if !profile_out.is_empty() {
        let _ = write!(summary, "\n\nprofile JSON written to {profile_out}");
    }
    if !perfetto_out.is_empty() {
        let _ = write!(
            summary,
            "\nPerfetto trace written to {perfetto_out} (open in ui.perfetto.dev)"
        );
    }
    Ok(Outcome {
        summary,
        report: Some(report),
        json: Some(doc),
        ..Outcome::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::execute;

    fn run_line(line: &str) -> Result<Outcome, CliError> {
        let args = Args::parse(line.split_whitespace().map(String::from))?;
        execute(&args)
    }

    #[test]
    fn subject_parsing() {
        assert_eq!(
            split_subject("sum-hmm").unwrap(),
            ("sum".to_string(), Some("hmm"))
        );
        assert_eq!(
            split_subject("sort-umm").unwrap(),
            ("sort".to_string(), Some("umm"))
        );
        assert_eq!(
            split_subject("prefix").unwrap(),
            ("prefix".to_string(), None)
        );
        assert!(split_subject("nonsense-hmm").is_err());
        assert!(split_subject("frobnicate").is_err());
    }

    #[test]
    fn profile_accounts_every_thread_cycle() {
        let o = run_line("profile sum-hmm --n 256 --p 64 --w 8 --l 8 --d 4").unwrap();
        let doc = o.json.expect("profile JSON");
        let launches = doc["launches"].as_array().unwrap();
        assert!(!launches.is_empty());
        for launch in launches {
            assert_eq!(launch["conserved"].as_bool(), Some(true));
            let cats = &launch["categories"];
            let sum: u64 = [
                "issued",
                "mem_global",
                "mem_shared",
                "conflict_global",
                "conflict_shared",
                "barrier",
                "retired",
            ]
            .iter()
            .map(|k| cats[*k].as_u64().unwrap())
            .sum();
            assert_eq!(sum, launch["thread_cycles"].as_u64().unwrap());
            // Hotspots carry disassembled text.
            let hotspots = launch["hotspots"].as_array().unwrap();
            assert!(hotspots
                .iter()
                .any(|h| !h["inst"].as_str().unwrap().is_empty()));
        }
        // The text report renders each launch.
        assert!(o.summary.contains("cycle breakdown"));
    }

    #[test]
    fn profile_covers_every_algorithm_and_machine() {
        for subject in [
            "reduce-hmm",
            "conv-hmm",
            "prefix-hmm",
            "sort-hmm",
            "sum-umm",
            "sum-dmm",
            "sort-umm",
        ] {
            let o = run_line(&format!(
                "profile {subject} --n 128 --k 8 --p 32 --w 8 --l 8 --d 4"
            ))
            .unwrap_or_else(|e| panic!("{subject}: {e}"));
            let doc = o.json.expect("profile JSON");
            for launch in doc["launches"].as_array().unwrap() {
                assert_eq!(launch["conserved"].as_bool(), Some(true), "{subject}");
            }
        }
    }

    #[test]
    fn profile_writes_output_files() {
        let dir = std::env::temp_dir().join("hmm-cli-profile-test");
        std::fs::create_dir_all(&dir).unwrap();
        let pj = dir.join("profile.json");
        let pf = dir.join("perfetto.json");
        let o = run_line(&format!(
            "profile sum-hmm --n 128 --p 32 --w 8 --l 8 --d 4 --profile-out {} --perfetto-out {}",
            pj.display(),
            pf.display()
        ))
        .unwrap();
        assert!(o.summary.contains("Perfetto"));
        let doc = hmm_util::json::parse(&std::fs::read_to_string(&pj).unwrap()).unwrap();
        assert!(doc["launches"].as_array().is_some());
        let trace = hmm_util::json::parse(&std::fs::read_to_string(&pf).unwrap()).unwrap();
        let evs = trace.as_array().expect("perfetto is a bare array");
        assert!(!evs.is_empty());
        for e in evs {
            assert!(e["ph"].as_str().is_some());
            assert!(e["ts"].as_u64().is_some());
            assert!(e["pid"].as_u64().is_some());
        }
        std::fs::remove_file(pj).ok();
        std::fs::remove_file(pf).ok();
    }

    #[test]
    fn unknown_subject_is_rejected() {
        assert!(matches!(
            run_line("profile frobnicate"),
            Err(CliError::Parse(ParseError::BadChoice(..)))
        ));
    }
}
