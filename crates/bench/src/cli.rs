//! Shared command-line error handling for the reproduction binaries.
//!
//! The `repro`/`verify`/`make-data` binaries are driven from shell
//! scripts and CI, so they must fail *loudly but cleanly*: a missing
//! flag value or an unwritable output directory exits nonzero with a
//! one-line contextual message instead of a panic backtrace. Exit code
//! 2 marks a usage error (bad arguments), exit code 1 an I/O or parse
//! failure at run time — the same convention `verify` already uses for
//! result mismatches.

use std::fmt::Display;
use std::process::exit;

/// Exit code for usage errors (bad or missing command-line arguments).
pub const EXIT_USAGE: i32 = 2;
/// Exit code for runtime failures (I/O, parse, verification).
pub const EXIT_FAILURE: i32 = 1;

/// Unwrap a parsed argument or exit with a usage message.
///
/// `usage` describes the expected form, e.g. `"--scale <f>"`.
pub fn require_arg<T>(value: Option<T>, usage: &str) -> T {
    match value {
        Some(v) => v,
        None => {
            eprintln!("error: expected {usage}");
            exit(EXIT_USAGE);
        }
    }
}

/// Usage text for `--scale`, naming the range [`parse_scale`] accepts.
pub const SCALE_USAGE: &str = "--scale <number in (0, 100]>";

/// Parse a dataset scale: a number above zero and at most 100, else
/// `None`. The ceiling keeps generation from saturating the contig count
/// and panicking on allocation; a full-scale `repro all` (1.0) peaks at
/// about 100 MiB, and every documented run uses 1.0 or less.
pub fn parse_scale(value: &str) -> Option<f64> {
    value.parse().ok().filter(|s: &f64| *s > 0.0 && *s <= 100.0)
}

/// Parse a k-mer size that has a paper dataset (21, 33, 55 or 77), else
/// `None`.
pub fn parse_k(value: &str) -> Option<usize> {
    value.parse().ok().filter(|k| matches!(k, 21 | 33 | 55 | 77))
}

/// Unwrap a runtime result or exit with a contextual message.
///
/// `context` names the operation, e.g. `"write dataset data/foo.dat"`.
pub fn require_ok<T, E: Display>(value: Result<T, E>, context: &str) -> T {
    match value {
        Ok(v) => v,
        Err(e) => {
            eprintln!("error: {context}: {e}");
            exit(EXIT_FAILURE);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn present_values_pass_through() {
        assert_eq!(require_arg(Some(3u32), "--n <n>"), 3);
        let r: Result<u32, std::num::ParseIntError> = "7".parse();
        assert_eq!(require_ok(r, "parse"), 7);
        assert_eq!(parse_scale("0.5"), Some(0.5));
        assert_eq!(parse_k("77"), Some(77));
    }

    #[test]
    fn scale_has_a_ceiling_of_100() {
        assert_eq!(parse_scale("100"), Some(100.0));
        assert_eq!(parse_scale("100.0001"), None);
        assert_eq!(parse_scale("1e6"), None);
    }
}
