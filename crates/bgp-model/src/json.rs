//! JSON string escaping, shared by every crate that writes JSON by hand
//! (the daemon's `/events` body and the experiment exports).

use std::fmt::{self, Write};

/// Displays a string escaped for the inside of a JSON string literal, without
/// the surrounding quotes: `"` and `\` get a backslash, `\n`, `\r` and `\t`
/// use their short forms, and every other control character below U+0020
/// becomes `\u00xx`.
///
/// ```
/// use bgp_model::json;
/// assert_eq!(format!("\"{}\"", json::Escaped("say \"hi\"\n")), r#""say \"hi\"\n""#);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Escaped<'a>(pub &'a str);

impl fmt::Display for Escaped<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_characters_quotes_and_backslashes_are_escaped() {
        assert_eq!(Escaped("a\tb\u{1}").to_string(), "a\\tb\\u0001");
        assert_eq!(Escaped("q\"\\\r\n").to_string(), "q\\\"\\\\\\r\\n");
        assert_eq!(Escaped("R00-M0 µ").to_string(), "R00-M0 µ");
    }
}
