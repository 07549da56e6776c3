//! The `tune` command: front end for the `hmm-tune` autotuner.

use hmm_tune::{tune, TuneConfig, TuneError, TuneSpace};

use crate::args::Args;
use crate::run::{CliError, Outcome};

/// Run the autotuner over one algorithm family.
pub(crate) fn execute_tune(a: &Args) -> Result<Outcome, CliError> {
    let algo = a.subject().unwrap_or("sum");
    let mut cfg = TuneConfig::new(algo);
    cfg.n = a.get_num("n", cfg.n)?;
    cfg.seed = a.get_num("seed", cfg.seed)?;
    cfg.budget = a.get_num("budget", cfg.budget)?;
    cfg.threads = a.get_num("threads", 0)?;
    let spec = a.get_str("space", "");
    if !spec.is_empty() {
        cfg.space = TuneSpace::parse(&spec).map_err(TuneError::from)?;
    }

    let report = tune(&cfg)?;
    let json = report.to_json();
    let out_path = a.get_str("out", "");
    if !out_path.is_empty() {
        std::fs::write(&out_path, json.to_json_pretty())
            .map_err(|e| CliError::Io(out_path.clone(), e))?;
    }
    let top = a.get_num("top", 10)?;
    Ok(Outcome {
        summary: report.render_text(top).trim_end().to_string(),
        json: Some(json),
        ..Outcome::default()
    })
}

#[cfg(test)]
mod tests {
    use crate::run::{execute, CliError};
    use crate::Args;

    fn run_line(line: &str) -> Result<crate::Outcome, CliError> {
        let args = Args::parse(line.split_whitespace().map(String::from))?;
        execute(&args)
    }

    #[test]
    fn tune_smoke_and_json() {
        let o =
            run_line("tune sum --n 256 --budget 8 --space pad=0,1;warps=1,2 --threads 1").unwrap();
        assert!(o.summary.contains("winner"));
        let json = o.json.expect("tune JSON");
        assert!(json["winner"]["time"].as_u64().unwrap() > 0);
        assert!(
            json["winner"]["time"].as_u64() <= json["baseline"]["time"].as_u64(),
            "winner slower than baseline"
        );
    }

    #[test]
    fn tune_rejects_bad_flags_and_space() {
        assert!(matches!(
            run_line("tune sum --strategy hill"),
            Err(CliError::Parse(_))
        ));
        assert!(matches!(
            run_line("tune sum --space banks=9"),
            Err(CliError::Tune(_))
        ));
        assert!(matches!(
            run_line("tune sort --budget 4"),
            Err(CliError::Tune(_))
        ));
    }
}
