//! A small `--key value` argument parser (no external dependencies).

use std::collections::BTreeMap;

/// Parse failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// No command word was given.
    MissingCommand,
    /// A flag was not followed by a value.
    MissingValue(String),
    /// A token did not start with `--` where a flag was expected.
    NotAFlag(String),
    /// A numeric value failed to parse.
    BadNumber(String, String),
    /// An enum-ish value was not one of the allowed words.
    BadChoice(String, String),
    /// A flag the command does not read: the flag, the command word and
    /// the flags the command reads, joined by ` --`.
    UnknownFlag(String, String, String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::MissingCommand => write!(f, "missing command"),
            ParseError::MissingValue(k) => write!(f, "flag --{k} needs a value"),
            ParseError::NotAFlag(t) => write!(f, "expected a --flag, got {t:?}"),
            ParseError::BadNumber(k, v) => write!(f, "--{k}: {v:?} is not a number"),
            ParseError::BadChoice(k, v) => write!(f, "--{k}: unknown choice {v:?}"),
            ParseError::UnknownFlag(flag, cmd, accepted) => {
                write!(f, "{cmd} has no flag --{flag} (flags: --{accepted})")
            }
        }
    }
}

impl std::error::Error for ParseError {}

/// A parsed command line: the command word, an optional positional
/// subject (a bare token directly after the command, e.g.
/// `profile sum-hmm`), plus `--key value` pairs and boolean `--flag`s
/// (flags whose next token is another flag or the end of input).
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The command word.
    pub command: String,
    subject: Option<String>,
    values: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parse raw tokens (without the program name).
    ///
    /// # Errors
    /// Returns a [`ParseError`] describing the first malformed token.
    pub fn parse<I: IntoIterator<Item = String>>(tokens: I) -> Result<Self, ParseError> {
        let mut it = tokens.into_iter().peekable();
        let command = it.next().ok_or(ParseError::MissingCommand)?;
        let mut args = Args {
            command,
            ..Args::default()
        };
        let mut first = true;
        while let Some(tok) = it.next() {
            // One bare token may follow the command word: the subject
            // (`profile sum-hmm`). Anything else must be a --flag.
            if first && !tok.starts_with("--") {
                args.subject = Some(tok);
                first = false;
                continue;
            }
            first = false;
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| ParseError::NotAFlag(tok.clone()))?
                .to_string();
            match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    let val = it.next().expect("peeked");
                    args.values.insert(key, val);
                }
                _ => args.switches.push(key),
            }
        }
        Ok(args)
    }

    /// A numeric flag with a default.
    ///
    /// # Errors
    /// Returns [`ParseError::BadNumber`] when present but malformed.
    pub fn get_num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ParseError> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ParseError::BadNumber(key.into(), v.clone())),
        }
    }

    /// A string flag with a default.
    #[must_use]
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.values
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// The positional subject following the command word, if any.
    #[must_use]
    pub fn subject(&self) -> Option<&str> {
        self.subject.as_deref()
    }

    /// Check every given flag against `table`, the flags the command
    /// reads, of which `switches` take no value.
    ///
    /// # Errors
    /// [`ParseError::UnknownFlag`] for a flag outside `table`,
    /// [`ParseError::NotAFlag`] for the value given to a switch, and
    /// [`ParseError::MissingValue`] for any other flag given without one.
    pub(crate) fn check_flags(&self, table: &[&str], switches: &[&str]) -> Result<(), ParseError> {
        let unknown = |f: &&String| !table.contains(&f.as_str());
        if let Some(flag) = self.values.keys().chain(&self.switches).find(unknown) {
            let (cmd, accepted) = (self.command.clone(), table.join(" --"));
            return Err(ParseError::UnknownFlag(flag.clone(), cmd, accepted));
        }
        if let Some(value) = switches.iter().find_map(|s| self.values.get(*s)) {
            return Err(ParseError::NotAFlag(value.clone()));
        }
        let takes_value = |f: &&String| !switches.contains(&f.as_str());
        match self.switches.iter().find(takes_value) {
            Some(flag) => Err(ParseError::MissingValue(flag.clone())),
            None => Ok(()),
        }
    }

    /// Whether a boolean switch was given.
    #[must_use]
    pub fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Set (or override) a `--key value` pair — used by the `batch`
    /// command to derive one sub-command line per sweep point.
    pub fn set(&mut self, key: &str, value: impl Into<String>) {
        self.values.insert(key.to_string(), value.into());
    }

    /// Validate a choice flag against allowed words.
    ///
    /// # Errors
    /// Returns [`ParseError::BadChoice`] for unknown words.
    pub fn get_choice(
        &self,
        key: &str,
        default: &str,
        allowed: &[&str],
    ) -> Result<String, ParseError> {
        let v = self.get_str(key, default);
        if allowed.contains(&v.as_str()) {
            Ok(v)
        } else {
            Err(ParseError::BadChoice(key.into(), v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_values_and_switches() {
        let a = Args::parse(toks("sum --n 1024 --machine hmm --json --p 64")).unwrap();
        assert_eq!(a.command, "sum");
        assert_eq!(a.get_num::<usize>("n", 0).unwrap(), 1024);
        assert_eq!(a.get_str("machine", "dmm"), "hmm");
        assert!(a.has("json"));
        assert!(!a.has("trace"));
        assert_eq!(a.get_num::<usize>("p", 0).unwrap(), 64);
        assert_eq!(a.get_num::<usize>("missing", 7).unwrap(), 7);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(matches!(
            Args::parse(toks("")),
            Err(ParseError::MissingCommand)
        ));
        assert!(matches!(
            Args::parse(toks("sum n 5")),
            Err(ParseError::NotAFlag(_))
        ));
        let a = Args::parse(toks("sum --n five")).unwrap();
        assert!(matches!(
            a.get_num::<usize>("n", 0),
            Err(ParseError::BadNumber(..))
        ));
        assert!(matches!(
            a.get_choice("op", "plus", &["sum", "min"]),
            Err(ParseError::BadChoice(..))
        ));
    }

    #[test]
    fn subject_token_after_command() {
        let a = Args::parse(toks("profile sum-hmm --top 5 --json")).unwrap();
        assert_eq!(a.command, "profile");
        assert_eq!(a.subject(), Some("sum-hmm"));
        assert_eq!(a.get_num::<usize>("top", 0).unwrap(), 5);
        assert!(a.has("json"));
        // Only the first post-command token can be a subject.
        assert!(matches!(
            Args::parse(toks("profile sum-hmm extra")),
            Err(ParseError::NotAFlag(_))
        ));
        assert_eq!(Args::parse(toks("sum --n 4")).unwrap().subject(), None);
    }

    #[test]
    fn trailing_switch_is_a_switch() {
        let a = Args::parse(toks("sort --n 16 --json")).unwrap();
        assert!(a.has("json"));
        assert_eq!(a.get_num::<usize>("n", 0).unwrap(), 16);
    }

    #[test]
    fn errors_display() {
        assert!(ParseError::MissingValue("x".into())
            .to_string()
            .contains('x'));
        assert!(ParseError::BadNumber("n".into(), "z".into())
            .to_string()
            .contains('n'));
    }
}
