//! Parameter validation through the library entry point: a machine
//! dimension of zero is a typed error with exit status 2, never a panic.

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
