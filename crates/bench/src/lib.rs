//! `abr_bench` — figure regeneration and ablations.
//!
//! One function per figure in the paper's evaluation (§VI). Each returns
//! printable tables with the same series the paper plots; the `benches/`
//! targets (run by `cargo bench`) and the `src/bin/` binaries print them.
//!
//! Iteration counts default to a few hundred (the paper used 10,000 on real
//! hardware); override with the `ABR_ITERS` environment variable. Shapes —
//! who wins, by what factor, where the crossovers sit — are the
//! reproduction target, not absolute microseconds.

#![warn(missing_docs)]

pub mod figures;
pub mod record;

use std::str::FromStr;

/// Iterations per configuration, from `ABR_ITERS` (default 300).
///
/// # Panics
/// Panics on a set-but-invalid `ABR_ITERS` (non-numeric or zero) — a typo'd
/// iteration count must not silently run the default.
pub fn iters() -> u64 {
    positive_env("ABR_ITERS", "iteration count").unwrap_or(300)
}

/// Largest cluster the scale figure sweeps, from `ABR_SCALE_MAX`
/// (default 65,536). CI caps this to keep the smoke run fast.
///
/// # Panics
/// Panics on a set-but-invalid `ABR_SCALE_MAX` (non-numeric or zero).
pub fn scale_max() -> u32 {
    positive_env("ABR_SCALE_MAX", "rank count").unwrap_or(65_536)
}

/// Largest message the bandwidth figure sweeps, in bytes, from
/// `ABR_MSG_BYTES` (default 64 MiB). CI caps this to keep the smoke run
/// fast.
///
/// # Panics
/// Panics on a set-but-invalid `ABR_MSG_BYTES` (non-numeric or zero).
pub fn msg_bytes() -> usize {
    positive_env("ABR_MSG_BYTES", "byte count").unwrap_or(64 * 1024 * 1024)
}

/// The knob `name` as a positive integer through [`abr_trace::parse_env`]:
/// `None` when unset, a panic naming the knob when set but invalid.
fn positive_env<T: FromStr + Default + PartialEq>(name: &'static str, what: &str) -> Option<T> {
    abr_trace::parse_env(name, |raw| parse_positive(name, what, raw))
}

/// Parse a positive integer for the knob `name`; `what` names the count in
/// the error message.
fn parse_positive<T: FromStr + Default + PartialEq>(
    name: &str,
    what: &str,
    raw: &str,
) -> Result<T, String> {
    match raw.trim().parse::<T>() {
        Ok(n) if n != T::default() => Ok(n),
        _ => Err(format!("{name} must be a positive {what}, got {raw:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_positive_accepts_positive_and_rejects_junk() {
        assert_eq!(parse_positive::<u64>("ABR_ITERS", "count", " 40 "), Ok(40));
        assert_eq!(parse_positive::<u32>("ABR_X", "count", "65536"), Ok(65_536));
        for bad in ["0", "", "many", "-3", "1e3", "64M"] {
            let err = parse_positive::<usize>("ABR_MSG_BYTES", "byte count", bad).unwrap_err();
            assert!(err.contains("ABR_MSG_BYTES"), "{bad:?}: {err}");
        }
    }
}
