//! Byte encoders behind the log text forms.
//!
//! Every text form the logs carry — a timestamp, a location, a partition,
//! a RAS or job line — has one definition: a byte encoder that appends the
//! text to a `Vec<u8>`. The log writers call the encoders straight into a
//! reused buffer ([`write_lines`]); `Display` delegates to the same encoder
//! ([`fmt_with`]), so the text a report prints and the text a log holds
//! cannot drift apart. The digit helpers here are the one decimal writer
//! both logs share.

use std::fmt;
use std::io::{self, Write};

/// `"00"`, `"01"`, … `"99"`: two digits per lookup.
const PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// Append `v` in decimal, zero-padded to at least `width` digits: the text
/// `format!("{v:0width$}")` gives (`width` 0 pads nothing).
pub fn push_u64(out: &mut Vec<u8>, v: u64, width: usize) {
    let mut buf = [b'0'; 20];
    let mut at = buf.len();
    let mut rest = v;
    while rest >= 100 {
        let pair = (rest % 100) as usize * 2;
        rest /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if rest >= 10 {
        let pair = rest as usize * 2;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        at -= 1;
        buf[at] = b'0' + rest as u8;
    }
    let digits = &buf[at..];
    out.extend(std::iter::repeat_n(
        b'0',
        width.saturating_sub(digits.len()),
    ));
    out.extend_from_slice(digits);
}

/// Append `v` in decimal, zero-padded to at least `width` characters with
/// the sign counted among them: the text `format!("{v:0width$}")` gives
/// (`-5` at width 4 is `-005`).
pub fn push_i64(out: &mut Vec<u8>, v: i64, width: usize) {
    if v < 0 {
        out.push(b'-');
        push_u64(out, v.unsigned_abs(), width.saturating_sub(1));
    } else {
        push_u64(out, v.unsigned_abs(), width);
    }
}

/// Append `v` as at least two digits, `format!("{v:02}")`: one table
/// lookup for the clock fields and card slots, which are all below 100.
pub(crate) fn push_two_digits(out: &mut Vec<u8>, v: u64) {
    if v < 100 {
        let pair = v as usize * 2;
        out.extend_from_slice(&PAIRS[pair..pair + 2]);
    } else {
        push_u64(out, v, 2);
    }
}

/// Write the text `encode` appends to `f`: how a `Display` impl delegates
/// to its type's byte encoder. Width and fill flags are ignored, as a
/// `write!` into `f` ignores them.
pub fn fmt_with(f: &mut fmt::Formatter<'_>, encode: impl FnOnce(&mut Vec<u8>)) -> fmt::Result {
    f.write_str(&to_string_with(encode))
}

/// The text `encode` appends, as a `String`. The encoders write only what
/// they are given as `&str` and ASCII digits, so the bytes are UTF-8; the
/// lossy fallback is never taken.
pub fn to_string_with(encode: impl FnOnce(&mut Vec<u8>)) -> String {
    let mut buf = Vec::with_capacity(64);
    encode(&mut buf);
    String::from_utf8(buf).unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned())
}

/// Bytes gathered before one `write_all`. A `BufWriter` passes a write this
/// large straight to its inner writer, so the text is copied once.
const WRITE_CHUNK: usize = 1 << 16;

/// Write one line per item to `w`: `encode` appends an item's text (no
/// newline) to one reused buffer, which goes to `w` in large `write_all`s.
/// `w` is flushed before returning, so an error on the last bytes is the
/// caller's, not lost when a `BufWriter` is dropped.
pub fn write_lines<T>(
    w: &mut impl Write,
    items: impl IntoIterator<Item = T>,
    mut encode: impl FnMut(T, &mut Vec<u8>),
) -> io::Result<()> {
    let mut buf = Vec::with_capacity(WRITE_CHUNK + 1024);
    for item in items {
        encode(item, &mut buf);
        buf.push(b'\n');
        if buf.len() >= WRITE_CHUNK {
            w.write_all(&buf)?;
            buf.clear();
        }
    }
    w.write_all(&buf)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn text(encode: impl FnOnce(&mut Vec<u8>)) -> String {
        to_string_with(encode)
    }

    #[test]
    fn digits_match_the_formatter_at_the_edges() {
        for v in [0, 1, 9, 10, 99, 100, 101, 999, 1000, u64::MAX - 1, u64::MAX] {
            assert_eq!(text(|b| push_u64(b, v, 0)), v.to_string());
            assert_eq!(text(|b| push_u64(b, v, 5)), format!("{v:05}"));
            assert_eq!(text(|b| push_two_digits(b, v)), format!("{v:02}"));
        }
        for v in [
            i64::MIN,
            i64::MIN + 1,
            -1000,
            -999,
            -5,
            -1,
            0,
            5,
            999,
            12_345,
            i64::MAX,
        ] {
            assert_eq!(text(|b| push_i64(b, v, 0)), v.to_string());
            assert_eq!(text(|b| push_i64(b, v, 4)), format!("{v:04}"));
        }
    }

    proptest! {
        #[test]
        fn digits_match_the_formatter(v in 0..=u64::MAX, s in i64::MIN..=i64::MAX, width in 0usize..24) {
            prop_assert_eq!(text(|b| push_u64(b, v, width)), format!("{v:0width$}"));
            prop_assert_eq!(text(|b| push_i64(b, s, width)), format!("{s:0width$}"));
            let small = v % 1000;
            prop_assert_eq!(text(|b| push_two_digits(b, small)), format!("{small:02}"));
        }
    }

    #[test]
    fn lines_cross_write_chunks_whole() {
        let mut w = Vec::new();
        let n = WRITE_CHUNK / 3;
        write_lines(&mut w, 0..n as u64, |v, b| push_u64(b, v, 0)).unwrap();
        let want: String = (0..n).map(|v| format!("{v}\n")).collect();
        assert_eq!(String::from_utf8(w).unwrap(), want);
    }
}
