//! Validated environment-variable parsing shared by every crate that
//! reads a `FESIA_*` setting.
//!
//! `fesia-exec` reads `FESIA_THREADS` here directly (it sits below
//! `fesia-core` in the dependency graph); `fesia-core::params::env`
//! re-exports [`parse_usize`] for `FESIA_SERVE_SHARDS`. Central rules:
//!
//! * a missing variable is silent (`None`);
//! * a malformed value is *never* silently ignored — every parse failure
//!   funnels through [`warn_malformed`], one `warning:` line on stderr,
//!   and the default stands.

use std::str::FromStr;

/// The single warning path for malformed knob values. Emits one stderr
/// line; callers then fall back to their default.
pub fn warn_malformed(name: &str, value: &str, expected: &str) {
    eprintln!("warning: ignoring {name}={value}: expected {expected}");
}

/// Raw lookup: `Some(value)` only for present, valid-UTF-8 variables.
pub fn raw(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Parse a variable with `FromStr`, routing failures through
/// [`warn_malformed`] with the given expectation text.
pub fn parsed<T: FromStr>(name: &str, expected: &str) -> Option<T> {
    let v = raw(name)?;
    match v.parse::<T>() {
        Ok(t) => Some(t),
        Err(_) => {
            warn_malformed(name, &v, expected);
            None
        }
    }
}

/// An unsigned-integer setting.
pub fn parse_usize(name: &str) -> Option<usize> {
    parsed(name, "an unsigned integer")
}

#[cfg(test)]
mod tests {
    use super::*;

    // Process environment is global; tests here only touch variables
    // namespaced to this module and never in parallel with each other
    // (they share one #[test]).
    #[test]
    fn parse_helpers_round_trip() {
        std::env::set_var("FESIA_OBS_TEST_USIZE", "42");
        std::env::set_var("FESIA_OBS_TEST_BAD", "nope");
        assert_eq!(parse_usize("FESIA_OBS_TEST_USIZE"), Some(42));
        // Malformed: warns (stderr) and yields None.
        assert_eq!(parse_usize("FESIA_OBS_TEST_BAD"), None);
        assert_eq!(parse_usize("FESIA_OBS_TEST_MISSING"), None);
        for v in ["FESIA_OBS_TEST_USIZE", "FESIA_OBS_TEST_BAD"] {
            std::env::remove_var(v);
        }
    }
}
