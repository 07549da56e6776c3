//! The `hmm-cli` binary. See the crate docs for the grammar.

use std::io::Write;

use hmm_cli::{execute, Args};

/// Print to stdout, exiting quietly if the pipe closed (e.g. `| head`).
fn emit(text: &str) {
    if writeln!(std::io::stdout(), "{text}").is_err() {
        std::process::exit(0);
    }
}

fn main() {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    if tokens.is_empty() || tokens[0] == "--help" || tokens[0] == "help" {
        emit(
            "hmm-cli — run the HMM paper's algorithms on simulated machines\n\n\
             usage: hmm-cli <sum|reduce|conv|prefix|sort|profile|tune|batch|lint|info> [--key value]... [--json]\n\
             flags: --machine dmm|umm|hmm  --n --k --p --w --l --d --seed  (reduce: --op sum|min|max)\n\
             profile: hmm-cli profile <algo>[-<machine>] [--buckets B] [--top N]\n\
                    [--profile-out FILE] [--perfetto-out FILE]   (cycle-accounting stall breakdown)\n\
             tune:  hmm-cli tune <sum|conv> [--space SPEC] [--n N] [--seed S]\n\
                    [--budget B] [--threads N] [--out FILE] [--top N]\n\
                    (deterministic autotune: predict, prune, measure the first B\n\
                    survivors in enumeration order, explain;\n\
                    --threads N tuning workers, default HMM_THREADS env, else all cores)\n\
             batch: hmm-cli batch --cmd <sum|reduce|conv|prefix|sort> --sweep <n|k|p|w|l|d>\n\
                    [--values a,b,c | --from A --to B] [--threads N]\n\
                    (parallel parameter sweep; --threads N batch workers, default\n\
                    HMM_THREADS env, else all cores; exit 2 if any point errors)\n\
             lint:  hmm-cli lint --all | --kernel <name>   (exit 2 on error findings)\n\
             a flag the command does not read is an argument error (exit 2)\n\n\
             example: hmm-cli conv --machine hmm --n 4096 --k 64 --p 2048 --d 16 --json",
        );
        return;
    }
    match Args::parse(tokens)
        .map_err(hmm_cli::run::CliError::Parse)
        .and_then(|a| execute(&a).map(|o| (a.has("json"), o)))
    {
        Ok((json, outcome)) => {
            emit(&hmm_cli::run::render(&outcome, json));
            if outcome.failed {
                std::process::exit(2);
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(e.exit_code());
        }
    }
}
