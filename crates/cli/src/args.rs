//! Tiny dependency-free flag parser shared by every subcommand.

use std::collections::BTreeMap;

/// Parsed command line: positional arguments and `--flag value` /
/// `--flag` pairs.
#[derive(Debug, Default, Clone)]
pub struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
    consumed: std::cell::RefCell<Vec<String>>,
}

/// Flags that take no value.
const BOOLEAN_FLAGS: [&str; 10] = [
    "help",
    "weights",
    "grayscale",
    "verbose",
    "allow-shutdown",
    "debug-sleep",
    "no-trace",
    "no-simd",
    "preload",
    "pyramid",
];

impl Args {
    /// Parses raw arguments (everything after the subcommand).
    ///
    /// Unknown flags are kept and reported by [`Args::unknown_flags`]
    /// so subcommands can reject typos instead of ignoring them.
    pub fn parse(raw: &[String]) -> Result<Self, String> {
        let mut out = Args::default();
        let mut i = 0;
        while i < raw.len() {
            let a = &raw[i];
            if let Some(name) = a.strip_prefix("--") {
                if name.is_empty() {
                    return Err("stray `--`".into());
                }
                if BOOLEAN_FLAGS.contains(&name) {
                    out.flags.insert(name.to_string(), "true".to_string());
                } else {
                    i += 1;
                    let Some(v) = raw.get(i) else {
                        return Err(format!("flag --{name} needs a value"));
                    };
                    out.flags.insert(name.to_string(), v.clone());
                }
            } else {
                out.positional.push(a.clone());
            }
            i += 1;
        }
        Ok(out)
    }

    /// Positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Raw string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.consumed.borrow_mut().push(name.to_string());
        self.flags.get(name).map(String::as_str)
    }

    /// Boolean flag presence.
    pub fn has(&self, name: &str) -> bool {
        self.consumed.borrow_mut().push(name.to_string());
        self.flags.contains_key(name)
    }

    /// Typed flag with a default.
    pub fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{name}: cannot parse {v:?}")),
        }
    }

    /// Required typed flag.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        let Some(v) = self.get(name) else {
            return Err(format!("missing required flag --{name}"));
        };
        v.parse()
            .map_err(|_| format!("flag --{name}: cannot parse {v:?}"))
    }

    /// Flags that were given but never read by the subcommand.
    pub fn unknown_flags(&self) -> Vec<String> {
        let consumed = self.consumed.borrow();
        self.flags
            .keys()
            .filter(|k| !consumed.contains(k))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(items: &[&str]) -> Args {
        let raw: Vec<String> = items.iter().map(|s| s.to_string()).collect();
        Args::parse(&raw).expect("parse")
    }

    #[test]
    fn positional_and_flags_mix() {
        let a = parse(&["input.csv", "--eps", "0.02", "--weights", "out.ppm"]);
        assert_eq!(a.positional(), ["input.csv", "out.ppm"]);
        assert_eq!(a.get("eps"), Some("0.02"));
        assert!(a.has("weights"));
        assert!(!a.has("grayscale"));
    }

    #[test]
    fn typed_access_with_default() {
        let a = parse(&["--eps", "0.05"]);
        assert_eq!(a.get_parsed("eps", 0.01).expect("f64"), 0.05);
        assert_eq!(a.get_parsed("width", 320u32).expect("u32"), 320);
    }

    #[test]
    fn missing_value_is_error() {
        let raw = vec!["--eps".to_string()];
        assert!(Args::parse(&raw).is_err());
    }

    #[test]
    fn require_reports_missing() {
        let a = parse(&[]);
        let err = a.require::<f64>("tau").expect_err("missing");
        assert!(err.contains("--tau"));
    }

    #[test]
    fn unknown_flags_are_tracked() {
        let a = parse(&["--eps", "0.01", "--typo", "x"]);
        let _ = a.get("eps");
        assert_eq!(a.unknown_flags(), vec!["typo".to_string()]);
    }

    #[test]
    fn bad_parse_is_reported() {
        let a = parse(&["--eps", "abc"]);
        assert!(a.get_parsed("eps", 0.01f64).is_err());
    }
}
