//! Parameter validation through the library entry point: bad input — a
//! machine dimension of zero, a malformed argument, a launch the
//! simulator rejects, an unknown command — is a typed error with exit
//! status 2, never a panic.

use hmm_cli::run::CliError;
use hmm_cli::{execute, Args};

fn run(tokens: &[&str]) -> Result<hmm_cli::Outcome, CliError> {
    execute(&Args::parse(tokens.iter().map(|t| (*t).to_string())).unwrap())
}

#[test]
fn zero_machine_dimensions_exit_2_with_a_message() {
    for flag in ["--d", "--w", "--l"] {
        for command in [
            &["sum", "--machine", "hmm", "--n", "256"][..],
            &["conv", "--machine", "umm", "--n", "64", "--k", "4"],
            &["profile", "sum-dmm", "--n", "64"],
        ] {
            let mut tokens = command.to_vec();
            tokens.extend([flag, "0"]);
            let err = run(&tokens).expect_err("zero dimension must be rejected");
            assert_eq!(err.exit_code(), 2, "{tokens:?}: {err}");
            let msg = err.to_string();
            assert!(msg.contains(&format!("{flag} 0")), "{tokens:?}: {msg}");
        }
    }
    // The same shapes run once the dimension is positive.
    let ok = run(&[
        "sum",
        "--machine",
        "hmm",
        "--n",
        "256",
        "--d",
        "1",
        "--w",
        "1",
        "--l",
        "1",
    ]);
    assert!(ok.is_ok(), "{ok:?}");
}

#[test]
fn bad_input_exits_2_with_a_message() {
    for (tokens, says) in [
        (&["reduce", "--op", "foo"][..], "argument error"),
        (&["conv", "--n", "0"], "simulation error"),
        (&["conv", "--n", "0", "--k", "0"], "simulation error"),
        (
            &["sort", "--machine", "hmm", "--d", "3", "--n", "100"],
            "simulation error",
        ),
        (&["profile", "sort-hmm", "--d", "3"], "simulation error"),
        // A simulated time past `u64::MAX` ends in the cycle limit.
        (
            &[
                "sum",
                "--machine",
                "hmm",
                "--n",
                "4",
                "--l",
                "18446744073709551615",
            ],
            "cycle limit",
        ),
        (
            &[
                "sum",
                "--machine",
                "dmm",
                "--n",
                "4",
                "--l",
                "18446744073709551615",
            ],
            "cycle limit",
        ),
        (
            &[
                "sum",
                "--machine",
                "hmm",
                "--n",
                "4",
                "--l",
                "9223372036854775808",
            ],
            "cycle limit",
        ),
        (&["frobnicate"], "unknown command"),
    ] {
        let err = run(tokens).expect_err("bad input must be rejected");
        assert_eq!(err.exit_code(), 2, "{tokens:?}: {err}");
        let msg = err.to_string();
        assert!(msg.contains(says), "{tokens:?}: {msg}");
    }
}

/// A sweep point the simulator rejects fails in its own row; the other
/// points still report, and the outcome carries the failure flag that
/// drives the non-zero exit status.
#[test]
fn batch_keeps_reporting_past_a_rejected_point() {
    let o = run(&[
        "batch",
        "--cmd",
        "sort",
        "--sweep",
        "d",
        "--values",
        "2,3",
        "--n",
        "100",
        "--p",
        "12",
        "--w",
        "4",
        "--l",
        "4",
        "--threads",
        "1",
    ])
    .unwrap();
    assert!(o.failed, "the d = 3 point must flag the batch");
    let doc = o.json.expect("batch JSON");
    assert_eq!(doc["failed"].as_bool(), Some(true));
    let hmm_util::Value::Array(points) = &doc["points"] else {
        panic!("points not an array: {doc:?}");
    };
    assert_eq!(points[0]["d"].as_u64(), Some(2));
    assert!(points[0]["report"]["time"].as_u64().unwrap() > 0);
    assert_eq!(points[1]["d"].as_u64(), Some(3));
    let err = points[1]["error"].as_str().expect("d = 3 carries an error");
    assert!(err.starts_with("simulation error"), "{err}");
}

/// A flag the command does not read is an argument error naming the
/// flag, raised before anything runs or writes: `tune --out` leaves no
/// file behind.
#[test]
fn unknown_flags_exit_2_before_anything_runs() {
    let out =
        std::env::temp_dir().join(format!("hmm-cli-unknown-flag-{}.json", std::process::id()));
    let out = out.to_str().unwrap();
    for (line, flag) in [
        (
            format!("tune sum --strategy hill --out {out}"),
            "--strategy",
        ),
        ("sum --budget 3".to_string(), "--budget"),
        ("sum --bogus 1".to_string(), "--bogus"),
        ("sum --op max".to_string(), "--op"),
        ("conv --op min".to_string(), "--op"),
        ("profile conv-hmm --op min".to_string(), "--op"),
        ("batch --cmd sort --threads 1 --op max".to_string(), "--op"),
        ("lint --all --l 4".to_string(), "--l"),
        ("info --n 4".to_string(), "--n"),
    ] {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let err = run(&tokens).expect_err("an unknown flag must be rejected");
        assert!(
            matches!(err, CliError::Parse(_)) && err.exit_code() == 2,
            "{line}: {err}"
        );
        let says = format!("no flag {flag} ");
        assert!(err.to_string().contains(&says), "{line}: {err}");
    }
    assert!(!std::path::Path::new(out).exists(), "{out} was written");
}

/// Parameters no kernel can be built or launched for are rejected up
/// front with an error naming the flag, instead of panicking in a kernel
/// builder (`lint`) or running with a silently raised thread count
/// (`sum` on the HMM).
#[test]
fn out_of_range_parameters_are_invalid() {
    for (line, flag) in [
        ("sum --p 0", "--p"),
        ("sum --machine umm --p 0", "--p"),
        ("lint --all --w 0", "--w"),
        ("lint --all --d 0", "--d"),
        ("lint --all --d 3", "--d"),
        ("lint --all --d 6 --p 12", "--d"),
        ("lint --all --p 1", "--p"),
        ("lint --all --p 100 --d 3", "--d"),
        ("lint --all --n 0", "--n"),
        ("lint --all --n 1", "--n"),
        ("tune sum --n 0", "--n"),
        ("tune conv --n 0", "--n"),
    ] {
        let tokens: Vec<&str> = line.split_whitespace().collect();
        match run(&tokens) {
            Err(CliError::Invalid(msg)) => assert!(msg.starts_with(flag), "{line}: {msg}"),
            other => panic!("{line}: expected an invalid-parameter error, got {other:?}"),
        }
    }
}
