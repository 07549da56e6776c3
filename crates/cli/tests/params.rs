//! Parameter validation through the library entry point: bad input — a
//! machine dimension of zero, a malformed argument, a launch the
//! simulator rejects, an unknown command — is a typed error with exit
//! status 2, never a panic.

use hmm_cli::{execute, Args};

fn run(tokens: &[&str]) -> Result<hmm_cli::Outcome, hmm_cli::run::CliError> {
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
        (&["sum", "--machine", "dmm", "--p", "0"], "simulation error"),
        (&["frobnicate"], "unknown command"),
    ] {
        let err = run(tokens).expect_err("bad input must be rejected");
        assert_eq!(err.exit_code(), 2, "{tokens:?}: {err}");
        let msg = err.to_string();
        assert!(msg.contains(says), "{tokens:?}: {msg}");
    }
}
