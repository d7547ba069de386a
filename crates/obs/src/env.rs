//! The one reader of the `TERASEM_*` environment knobs.
//!
//! Every run-time choice the workspace takes from the environment goes
//! through this module, so all of them share one grammar:
//!
//! * An unset, empty or all-whitespace value means unset.
//! * Values are trimmed before they are decoded.
//! * Flags ([`parse_flag`]) accept `1`/`true` and `0`/`false`, ignoring
//!   ASCII case.
//! * Integers ([`int`]) must meet a per-knob minimum.
//! * Structured values (the phase list, sink spec, backend, fault plans,
//!   trace path) go through [`parsed`] with their owner's parser.
//! * A malformed value prints one warning per variable per process,
//!   `warning: NAME="value": detail`, and reads as unset, so the
//!   configured or default value stays in place: a typo in a knob that
//!   is re-read (fault plans, per solver) neither spams nor passes
//!   silently.
//!
//! Every reader wraps [`decode`], a function of the variable's name and
//! raw value, so tests need not touch the real environment. The
//! launcher→child variables, where a bad value is a usage error, are
//! read with [`strict`].

use std::collections::BTreeSet;
use std::fmt::Display;
use std::str::FromStr;
use std::sync::Mutex;

static WARNED: Mutex<BTreeSet<&'static str>> = Mutex::new(BTreeSet::new());

/// Warn (once per process per `var`) that `var` carries the malformed
/// `value`. Returns whether this call emitted the warning.
fn invalid_env(var: &'static str, value: &str, detail: &str) -> bool {
    let mut warned = WARNED.lock().unwrap_or_else(|e| e.into_inner());
    if !warned.insert(var) {
        return false;
    }
    eprintln!("warning: {var}={value:?}: {detail}");
    true
}

/// The trimmed value of `name`; `None` when it is unset, empty or all
/// whitespace. A value that is not valid UTF-8 warns and reads as unset.
pub fn string(name: &'static str) -> Option<String> {
    match std::env::var(name) {
        Ok(v) => Some(v.trim().to_string()).filter(|v| !v.is_empty()),
        Err(std::env::VarError::NotPresent) => None,
        Err(std::env::VarError::NotUnicode(v)) => {
            invalid_env(name, &v.to_string_lossy(), "not valid UTF-8; ignored");
            None
        }
    }
}

/// The grammar's core: `Ok(None)` for an unset or blank `raw`, else
/// `parse` applied to the trimmed value.
fn check<T, E: Display>(
    raw: Option<&str>,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<Option<T>, String> {
    match raw.map(str::trim).filter(|s| !s.is_empty()) {
        None => Ok(None),
        Some(s) => parse(s).map(Some).map_err(|e| e.to_string()),
    }
}

/// Decode `raw`, the value of `name` (`None` = unset), with `parse`. A
/// malformed value warns once per `name` and reads as unset.
pub fn decode<T, E: Display>(
    name: &'static str,
    raw: Option<&str>,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Option<T> {
    check(raw, parse).unwrap_or_else(|e| {
        let detail = format!("{e}; using the configured or default value");
        invalid_env(name, raw.unwrap_or_default(), &detail);
        None
    })
}

/// Read `name` with `parse`; a malformed value is an error naming the
/// variable rather than a warning.
pub fn strict<T, E: Display>(
    name: &'static str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Result<Option<T>, String> {
    let raw = string(name);
    check(raw.as_deref(), parse).map_err(|e| format!("{name}={:?}: {e}", raw.unwrap_or_default()))
}

/// Read `name` with a structured parser (see [`decode`]).
pub fn parsed<T, E: Display>(
    name: &'static str,
    parse: impl FnOnce(&str) -> Result<T, E>,
) -> Option<T> {
    decode(name, string(name).as_deref(), parse)
}

/// Read the integer `name`, which must be at least `min`.
pub fn int<T: FromStr + PartialOrd + Display>(name: &'static str, min: T) -> Option<T> {
    parsed(name, |s| parse_int(s, min))
}

/// `1`/`true` and `0`/`false`, ignoring ASCII case.
pub fn parse_flag(s: &str) -> Result<bool, String> {
    match s {
        "1" => Ok(true),
        "0" => Ok(false),
        _ if s.eq_ignore_ascii_case("true") => Ok(true),
        _ if s.eq_ignore_ascii_case("false") => Ok(false),
        _ => Err("expected 1, true, 0 or false".to_string()),
    }
}

/// A decimal integer of type `T` that is at least `min`.
pub fn parse_int<T: FromStr + PartialOrd + Display>(s: &str, min: T) -> Result<T, String> {
    match s.parse::<T>() {
        Ok(n) if n >= min => Ok(n),
        Ok(n) => Err(format!("must be at least {min} (got {n})")),
        Err(_) => Err(format!("not an integer (want one at least {min})")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warns_exactly_once_per_variable() {
        assert!(invalid_env("TERASEM_TEST_WARN_A", "bogus", "unit test"));
        assert!(!invalid_env("TERASEM_TEST_WARN_A", "bogus2", "unit test"));
        assert!(invalid_env("TERASEM_TEST_WARN_B", "bogus", "unit test"));
        assert!(!invalid_env("TERASEM_TEST_WARN_B", "bogus", "unit test"));
    }

    #[test]
    fn grammar_table() {
        for raw in [None, Some(""), Some(" \t ")] {
            assert_eq!(check(raw, parse_flag), Ok(None), "{raw:?} is unset");
            assert_eq!(check(raw, |s| parse_int(s, 1u64)), Ok(None), "{raw:?}");
        }
        for raw in ["1", "true", " TRUE ", "True"] {
            assert_eq!(check(Some(raw), parse_flag), Ok(Some(true)), "{raw:?}");
        }
        for raw in ["0", "false", "FaLsE"] {
            assert_eq!(check(Some(raw), parse_flag), Ok(Some(false)), "{raw:?}");
        }
        for raw in ["yes", "no", "on", "2", "t", "01", "1 1", "-1"] {
            assert!(check(Some(raw), parse_flag).is_err(), "flag {raw:?}");
        }
        let int = |raw: &str, min: u64| check(Some(raw), |s| parse_int(s, min));
        for (raw, want) in [("4", 4), (" 8 ", 8), ("1", 1)] {
            assert_eq!(int(raw, 1), Ok(Some(want)), "{raw:?}");
        }
        for raw in ["0", "-2", "four", "4.0", "0x4", "1e9"] {
            assert!(int(raw, 1).is_err(), "int {raw:?}");
        }
        assert!(int("3", 4).is_err(), "below the minimum");
        assert_eq!(int("0", 0), Ok(Some(0)));
    }

    #[test]
    fn decode_warns_once_and_blank_never_warns() {
        const BAD: &str = "TERASEM_TEST_ENV_BAD";
        assert_eq!(decode(BAD, Some("yes"), parse_flag), None);
        assert!(
            !invalid_env(BAD, "yes", "unit test"),
            "decode already warned"
        );
        assert_eq!(decode(BAD, Some("maybe"), parse_flag), None);
        assert_eq!(decode(BAD, Some("TRUE"), parse_flag), Some(true));

        const BLANK: &str = "TERASEM_TEST_ENV_BLANK";
        assert_eq!(decode(BLANK, Some(""), parse_flag), None);
        assert_eq!(decode(BLANK, Some("   "), |s| parse_int(s, 1u32)), None);
        assert!(
            invalid_env(BLANK, "", "unit test"),
            "blank values must not warn"
        );
    }
}
