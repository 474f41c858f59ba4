//! Minimal `--key value` argument parsing.

use std::collections::BTreeMap;
use std::fmt;

/// A parsed command line: one subcommand plus `--key value` options.
///
/// # Examples
///
/// ```
/// use qd_cli::Args;
///
/// let args = Args::parse(["train", "--clients", "4", "--iid"].iter().map(|s| s.to_string()))
///     .unwrap();
/// assert_eq!(args.command(), "train");
/// assert_eq!(args.get_usize("clients", 10).unwrap(), 4);
/// assert!(args.flag("iid"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    command: String,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Errors produced while parsing the command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// No subcommand given.
    MissingCommand,
    /// An option value could not be parsed.
    BadValue {
        /// Option name (without dashes).
        key: String,
        /// Offending value.
        value: String,
    },
    /// A positional argument appeared where an option was expected.
    UnexpectedToken(String),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::MissingCommand => write!(f, "missing subcommand"),
            ParseError::BadValue { key, value } => {
                write!(f, "invalid value {value:?} for --{key}")
            }
            ParseError::UnexpectedToken(t) => write!(f, "unexpected argument {t:?}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl Args {
    /// Parses an iterator of arguments (without the program name).
    ///
    /// Options take the form `--key value`; an option followed by another
    /// `--` token (or nothing) is recorded as a boolean flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, ParseError> {
        let mut iter = args.into_iter().peekable();
        let command = iter.next().ok_or(ParseError::MissingCommand)?;
        if command.starts_with("--") {
            return Err(ParseError::UnexpectedToken(command));
        }
        let mut options = BTreeMap::new();
        let mut flags = Vec::new();
        while let Some(token) = iter.next() {
            let Some(key) = token.strip_prefix("--") else {
                return Err(ParseError::UnexpectedToken(token));
            };
            match iter.peek() {
                Some(v) if !v.starts_with("--") => {
                    options.insert(key.to_string(), iter.next().expect("peeked"));
                }
                _ => flags.push(key.to_string()),
            }
        }
        Ok(Args {
            command,
            options,
            flags,
        })
    }

    /// The subcommand.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// Every option and flag given, without dashes.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.options.keys().chain(&self.flags).map(String::as_str)
    }

    /// Returns `true` if the boolean flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Returns `true` if the option was given *with a value* (contrast
    /// [`Args::flag`], which matches value-less occurrences). Lets a
    /// command distinguish "flag absent, use the inert default" from
    /// "flag present at its default value".
    pub fn has_option(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// A string option, or `default` if absent.
    pub fn get_str(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A required string option.
    pub fn require_str(&self, key: &str) -> Result<String, ParseError> {
        self.options
            .get(key)
            .cloned()
            .ok_or_else(|| ParseError::BadValue {
                key: key.to_string(),
                value: "<missing>".to_string(),
            })
    }

    /// A `usize` option, or `default` if absent.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, ParseError> {
        Ok(self.parsed(key)?.unwrap_or(default))
    }

    /// A `u32` option, or `default` if absent. A value past `u32::MAX` is
    /// a [`ParseError::BadValue`], never a wrapped-around count.
    pub fn get_u32(&self, key: &str, default: u32) -> Result<u32, ParseError> {
        Ok(self.parsed(key)?.unwrap_or(default))
    }

    /// An `f32` option, or `default` if absent.
    pub fn get_f32(&self, key: &str, default: f32) -> Result<f32, ParseError> {
        Ok(self.parsed(key)?.unwrap_or(default))
    }

    /// A `u64` option, or `default` if absent.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, ParseError> {
        Ok(self.parsed(key)?.unwrap_or(default))
    }

    /// An optional `usize` option.
    pub fn get_opt_usize(&self, key: &str) -> Result<Option<usize>, ParseError> {
        self.parsed(key)
    }

    /// The option's value parsed as `T`, `None` if absent.
    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ParseError> {
        self.options
            .get(key)
            .map(|v| {
                v.parse().map_err(|_| ParseError::BadValue {
                    key: key.to_string(),
                    value: v.clone(),
                })
            })
            .transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ParseError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_options_and_flags() {
        let a = parse(&["train", "--clients", "8", "--iid", "--lr", "0.05"]).unwrap();
        assert_eq!(a.command(), "train");
        assert_eq!(a.get_usize("clients", 1).unwrap(), 8);
        assert!((a.get_f32("lr", 0.0).unwrap() - 0.05).abs() < 1e-9);
        assert!(a.flag("iid"));
        assert!(!a.flag("noniid"));
    }

    #[test]
    fn missing_command_is_an_error() {
        assert_eq!(parse(&[]).unwrap_err(), ParseError::MissingCommand);
    }

    #[test]
    fn bad_numeric_values_are_reported() {
        let a = parse(&["train", "--clients", "many"]).unwrap();
        assert!(matches!(
            a.get_usize("clients", 1),
            Err(ParseError::BadValue { .. })
        ));
    }

    #[test]
    fn u32_options_refuse_values_past_u32_max() {
        let a = parse(&["serve", "--unit-retries", "4294967299"]).unwrap();
        assert_eq!(
            a.get_u32("unit-retries", 0).unwrap_err().to_string(),
            "invalid value \"4294967299\" for --unit-retries"
        );
        let a = parse(&["serve", "--unit-retries", "4294967295"]).unwrap();
        assert_eq!(a.get_u32("unit-retries", 0).unwrap(), u32::MAX);
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse(&["eval"]).unwrap();
        assert_eq!(a.get_usize("samples", 123).unwrap(), 123);
        assert_eq!(a.get_str("dataset", "digits"), "digits");
        assert_eq!(a.get_u64("seed", 42).unwrap(), 42);
        assert_eq!(a.get_opt_usize("class").unwrap(), None);
    }

    #[test]
    fn positional_arguments_are_rejected() {
        assert!(matches!(
            parse(&["train", "oops"]),
            Err(ParseError::UnexpectedToken(_))
        ));
        assert!(matches!(
            parse(&["--train"]),
            Err(ParseError::UnexpectedToken(_))
        ));
    }

    #[test]
    fn trailing_flag_without_value_is_a_flag() {
        let a = parse(&["show", "--verbose"]).unwrap();
        assert!(a.flag("verbose"));
    }
}
