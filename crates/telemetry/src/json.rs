//! Minimal JSON emission helpers shared by the exporters. Emission is
//! hand-rolled (the vendored `serde_json` is parse-only for our purposes);
//! parsing in the checker goes through `serde_json`.

/// Escapes a string for inclusion inside JSON quotes.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders an `f64` as a JSON number (finite values only; non-finite
/// values degrade to `null`).
pub(crate) fn number(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        real(v)
    }
}

/// Renders an `f64` at full round-trip precision, always with a decimal
/// point or exponent so integral values keep their float type
/// (non-finite values degrade to `null`).
pub(crate) fn real(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    if s.contains(['e', '.']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn number_renders_integers_and_fractions() {
        assert_eq!(number(3.0), "3");
        assert_eq!(number(3.5), "3.5");
        assert_eq!(number(f64::NAN), "null");
    }

    #[test]
    fn real_keeps_the_decimal_on_integral_values() {
        assert_eq!(real(3.0), "3.0");
        assert_eq!(real(0.25), "0.25");
        assert_eq!(real(f64::NEG_INFINITY), "null");
    }
}
