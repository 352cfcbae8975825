//! Validated environment-variable parsing shared by every crate that
//! reads a `FESIA_*` knob.
//!
//! `fesia-core::params::env` builds the typed accessors for the core
//! knobs on top of these primitives; `fesia-exec` uses them directly for
//! `FESIA_THREADS` (it sits below `fesia-core` in the dependency graph).
//! Central rules:
//!
//! * a missing variable is silent (`None`);
//! * a malformed value is *never* silently ignored — every parse failure
//!   funnels through [`warn_malformed`], one `warning:` line on stderr,
//!   and the default stands;
//! * boolean knobs accept `0`/`off`/`false` (any case) as false and
//!   anything else as true.

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

/// An unsigned-integer knob.
pub fn parse_usize(name: &str) -> Option<usize> {
    parsed(name, "an unsigned integer")
}

/// An unsigned 32-bit knob.
pub fn parse_u32(name: &str) -> Option<u32> {
    parsed(name, "an unsigned 32-bit integer")
}

/// A floating-point knob.
pub fn parse_f64(name: &str) -> Option<f64> {
    parsed(name, "a number")
}

/// A boolean knob: `0`/`off`/`false` (any case) disable, anything else
/// enables.
pub fn parse_bool(name: &str) -> Option<bool> {
    let v = raw(name)?;
    Some(!(v == "0" || v.eq_ignore_ascii_case("off") || v.eq_ignore_ascii_case("false")))
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
        std::env::set_var("FESIA_OBS_TEST_F64", "0.25");
        std::env::set_var("FESIA_OBS_TEST_BAD", "nope");
        std::env::set_var("FESIA_OBS_TEST_OFF", "OFF");
        std::env::set_var("FESIA_OBS_TEST_ON", "yes");
        assert_eq!(parse_usize("FESIA_OBS_TEST_USIZE"), Some(42));
        assert_eq!(parse_f64("FESIA_OBS_TEST_F64"), Some(0.25));
        // Malformed: warns (stderr) and yields None.
        assert_eq!(parse_usize("FESIA_OBS_TEST_BAD"), None);
        assert_eq!(parse_bool("FESIA_OBS_TEST_OFF"), Some(false));
        assert_eq!(parse_bool("FESIA_OBS_TEST_ON"), Some(true));
        assert_eq!(parse_bool("FESIA_OBS_TEST_MISSING"), None);
        assert_eq!(parse_usize("FESIA_OBS_TEST_MISSING"), None);
        for v in [
            "FESIA_OBS_TEST_USIZE",
            "FESIA_OBS_TEST_F64",
            "FESIA_OBS_TEST_BAD",
            "FESIA_OBS_TEST_OFF",
            "FESIA_OBS_TEST_ON",
        ] {
            std::env::remove_var(v);
        }
    }
}
