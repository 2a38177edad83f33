//! Exact fast paths for the fixed and scientific notation the tables and
//! figures print.
//!
//! `format!("{v:.N}")` and `format!("{v:.Ne}")` round the exact binary
//! value of `v` to `N` decimals through the general float formatter,
//! which costs several hundred nanoseconds a call. Here `|v|` is scaled by
//! a power of ten that is exact in binary, which rounds once: below
//! [`SCALED_LIMIT`] the scaled value `s` is off by less than 1.2e-7. When
//! the fraction of `s` lies more than [`TIE_MARGIN`] from one half,
//! rounding `s` to an integer `n` therefore gives the digits the formatter
//! derives from the exact value, and `n` is printed directly. Near-ties,
//! non-finite values and scales out of range go through the formatter.

use std::fmt::Write;

/// Scaled magnitudes from which the fast paths defer to the formatter.
const SCALED_LIMIT: f64 = 1e9;

/// Distance from one half within which a scaled fraction counts as a tie.
const TIE_MARGIN: f64 = 1e-6;

/// The powers of ten that are exact in binary.
const POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The non-negative `s` rounded to an integer, when `s` is below
/// [`SCALED_LIMIT`] and not within [`TIE_MARGIN`] of a tie. The integer
/// conversion truncates, which for such `s` is `floor`, and `s − floor(s)`
/// is exact; unlike `floor` and `round`, it needs no library call on
/// targets without SSE4.1.
#[inline]
fn round_scaled(s: f64) -> Option<u32> {
    if s.is_nan() || s >= SCALED_LIMIT {
        return None;
    }
    let whole = s as u32;
    let frac = s - f64::from(whole);
    ((frac - 0.5).abs() > TIE_MARGIN).then_some(whole + u32::from(frac > 0.5))
}

/// Append `n` as `whole "." fraction`, the fraction being its last
/// `decimals` digits.
#[inline]
fn push_scaled(out: &mut String, n: u32, decimals: usize) {
    let scale = 10u32.pow(decimals as u32);
    push_digits(out, n / scale, 1);
    out.push('.');
    push_digits(out, n % scale, decimals);
}

/// Append `v` in decimal, zero-padded to at least `width` digits. The
/// digits are pushed one by one, which measured faster than checking and
/// copying a buffer of them.
#[inline]
fn push_digits(out: &mut String, v: u32, width: usize) {
    // Least significant first.
    let mut digits = [0u8; 10];
    let mut len = 0;
    let mut rest = v;
    while len < width || rest > 0 {
        digits[len] = b'0' + (rest % 10) as u8;
        rest /= 10;
        len += 1;
    }
    for &d in digits[..len].iter().rev() {
        out.push(char::from(d));
    }
}

/// Append `v` exactly as `format!("{v:.decimals$}")` writes it
/// (`decimals` from 1 to 8).
#[inline]
pub(crate) fn push_fixed(out: &mut String, v: f64, decimals: usize) {
    match round_scaled(v.abs() * POW10[decimals]) {
        Some(n) => {
            if v.is_sign_negative() {
                out.push('-');
            }
            push_scaled(out, n, decimals);
        }
        _ => write!(out, "{v:.decimals$}").expect("writing to a String cannot fail"),
    }
}

/// Append `v` exactly as `format!("{v:.decimals$e}")` writes it
/// (`decimals` from 1 to 7).
pub(crate) fn push_sci(out: &mut String, v: f64, decimals: usize) {
    let Some((n, exp)) = sci_digits(v.abs(), decimals) else {
        write!(out, "{v:.decimals$e}").expect("writing to a String cannot fail");
        return;
    };
    if v.is_sign_negative() {
        out.push('-');
    }
    push_scaled(out, n, decimals);
    out.push('e');
    if exp < 0 {
        out.push('-');
    }
    push_digits(out, exp.unsigned_abs(), 1);
}

/// The `decimals + 1` significant digits of a positive `a`, as an integer
/// in `[10^decimals, 10^(decimals+1))`, and the decimal exponent of the
/// first; `None` where the fast path cannot be sure of them.
fn sci_digits(a: f64, decimals: usize) -> Option<(u32, i32)> {
    if !(a.is_finite() && a > 0.0) {
        return None;
    }
    let log = a.log10();
    // `floor` by truncation, one down for a negative non-integer.
    let mut exp = log as i32 - i32::from((log as i32 as f64) > log);
    // `a · 10^shift` with one rounding: multiply or divide by an exact power.
    let shift = decimals as i32 - exp;
    let s = match usize::try_from(shift.unsigned_abs()) {
        Ok(k) if k < POW10.len() && shift >= 0 => a * POW10[k],
        Ok(k) if k < POW10.len() => a / POW10[k],
        _ => return None,
    };
    // `log10` may land one off next to a power of ten.
    let (lo, hi) = (POW10[decimals], POW10[decimals + 1]);
    if !(lo..hi).contains(&s) {
        return None;
    }
    let mut n = round_scaled(s)?;
    if n == hi as u32 {
        // 9.9995e-5 rounds up to 1.000e-4.
        n = lo as u32;
        exp += 1;
    }
    Some((n, exp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulus_simkit::rng::RngStream;

    fn fixed(v: f64, decimals: usize) -> String {
        let mut out = String::new();
        push_fixed(&mut out, v, decimals);
        out
    }

    fn sci(v: f64, decimals: usize) -> String {
        let mut out = String::new();
        push_sci(&mut out, v, decimals);
        out
    }

    /// Assert both fast paths equal the formatter on `v` at 2, 3 and 4
    /// decimals.
    fn check(v: f64) {
        for decimals in [2, 3, 4] {
            assert_eq!(fixed(v, decimals), format!("{v:.decimals$}"), "{v:e}");
            assert_eq!(sci(v, decimals), format!("{v:.decimals$e}"), "{v:e}");
        }
    }

    #[test]
    fn fast_paths_match_the_formatter_on_edge_values() {
        let edges = [
            0.0,
            -0.0,
            0.125,
            0.375,
            -0.125,
            2.675,
            1.005,
            -1.005,
            0.005,
            0.015,
            0.045,
            -0.004,
            0.994_999_999,
            0.995,
            9.995,
            99.995,
            439.995,
            1.0 / 3.0,
            -2.0 / 3.0,
            9.9995e-5,
            9.99949999e-5,
            0.099_995,
            1.000_05,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE / 8.0,
            5e-324,
            1e5 - 0.000_05,
            1e7 - 0.005,
            1e7,
            1e9 + 0.125,
            1e12,
            1e12 + 0.375,
            -3e15,
            1e300,
            f64::MAX,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for v in edges {
            check(v);
        }
        // Every exact binary quarter and eighth is a tie or next to one.
        for i in -4000..4000 {
            check(i as f64 / 8.0);
        }
        // Decimal near-halves: x.xx5 and x.xxxx5 are never exact in binary.
        for i in -20000..20000 {
            check((i as f64 * 10.0 + 5.0) / 1000.0);
            check((i as f64 * 10.0 + 5.0) / 100_000.0);
        }
    }

    #[test]
    fn scientific_fast_path_matches_the_formatter_around_powers_of_ten() {
        for k in -40..40 {
            let p = 10f64.powi(k);
            for v in [p, -p] {
                let up = f64::from_bits(v.to_bits() + 1);
                let down = f64::from_bits(v.to_bits() - 1);
                for v in [v, up, down, v * 0.999_95, v * 0.999_949_999, v * 1.000_05] {
                    check(v);
                }
            }
        }
    }

    /// The two-decimal path the figures' circle coordinates take, on
    /// 200,000 values from the coordinate-like distributions.
    #[test]
    fn fixed_point_matches_the_formatter_on_seeded_values() {
        let mut rng = RngStream::derive(11, "fixed2");
        for i in 0..200_000 {
            let v = match i % 4 {
                0 => rng.uniform_range(-10.0, 500.0),
                1 => rng.normal(0.0, 1.0),
                2 => rng.uniform_range(-1e9, 1e9),
                _ => (rng.uniform_range(-1e4, 1e4) * 1000.0).round() / 1000.0,
            };
            assert_eq!(fixed(v, 2), format!("{v:.2}"), "{v:e}");
        }
    }

    #[test]
    fn fast_paths_match_the_formatter_on_seeded_values() {
        let mut rng = RngStream::derive(11, "decimal");
        for i in 0..100_000 {
            let v = match i % 6 {
                0 => rng.uniform_range(-10.0, 500.0),
                1 => rng.normal(0.0, 1.0),
                2 => rng.uniform_range(-1e9, 1e9),
                3 => (rng.uniform_range(-1e4, 1e4) * 1000.0).round() / 1000.0,
                // p-value-like magnitudes over many decades.
                4 => rng.uniform().powi(rng.uniform_int(1, 40) as i32),
                _ => rng.normal(0.0, 1.0) * 10f64.powi(rng.uniform_int(0, 60) as i32 - 30),
            };
            check(v);
        }
    }
}
