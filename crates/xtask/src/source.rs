//! A lightweight lexical model of a Rust source file.
//!
//! The domain lints don't need full parsing — they need to know, line by
//! line, (a) what the code says once comments and string contents are out of
//! the way, and (b) whether the line sits inside `#[cfg(test)]` code.
//! [`SourceFile::parse`] computes both in two passes: a character-level
//! lexer that splits each line into code and comment text, then a
//! line-level pass that tracks brace depth to delimit `#[cfg(test)]`
//! regions.
//!
//! The lexer understands line and (nested) block comments, plain and raw
//! string literals, character literals, and lifetimes. It is deliberately
//! not a parser: pathological token sequences can fool it, but on `rustfmt`ed
//! code — which `cargo xtask lint` requires anyway via CI — it is exact.

/// One analyzed line of source.
#[derive(Debug, Clone, Default)]
pub struct Line {
    /// The line with comments removed and string-literal contents blanked
    /// (quotes are kept, so `("x", C::A)` becomes `("", C::A)`).
    pub code: String,
    /// Comment text on this line (without the `//`, `/*`, `*/` markers).
    pub comment: String,
    /// True when the line is inside `#[cfg(test)]`-gated code.
    pub in_test: bool,
}

/// A parsed source file: path plus analyzed lines (0-indexed internally;
/// findings report 1-indexed line numbers).
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Workspace-relative path, used in finding reports.
    pub path: String,
    /// Analyzed lines.
    pub lines: Vec<Line>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LexState {
    Code,
    LineComment,
    BlockComment(u32),
    Str,
    RawStr(u32),
}

impl SourceFile {
    /// Analyze `text` as the contents of `path`.
    pub fn parse(path: &str, text: &str) -> SourceFile {
        let mut lines = lex(text);
        mark_test_regions(&mut lines);
        SourceFile {
            path: path.to_owned(),
            lines,
        }
    }

    /// Iterate `(1-based line number, line)` pairs.
    pub fn numbered(&self) -> impl Iterator<Item = (usize, &Line)> {
        self.lines.iter().enumerate().map(|(i, l)| (i + 1, l))
    }
}

/// Character-level pass: split every physical line into code and comment
/// text, blanking string-literal contents.
fn lex(text: &str) -> Vec<Line> {
    let mut out: Vec<Line> = Vec::new();
    let mut line = Line::default();
    let mut state = LexState::Code;
    let mut chars = text.chars().peekable();

    while let Some(c) = chars.next() {
        if c == '\r' && chars.peek() == Some(&'\n') {
            // CRLF line ending: the `\r` is not code (a trailing `\r` in
            // `code` breaks every `ends_with`/`trim` check downstream).
            continue;
        }
        if c == '\n' {
            if state == LexState::LineComment {
                state = LexState::Code;
            }
            out.push(std::mem::take(&mut line));
            continue;
        }
        match state {
            LexState::Code => match c {
                '/' => match chars.peek() {
                    Some('/') => {
                        chars.next();
                        state = LexState::LineComment;
                    }
                    Some('*') => {
                        chars.next();
                        state = LexState::BlockComment(1);
                    }
                    _ => line.code.push('/'),
                },
                '"' => {
                    line.code.push('"');
                    state = LexState::Str;
                }
                'r' => {
                    // Possible raw string: r"..." or r#"..."#.
                    let mut hashes = 0u32;
                    let mut lookahead = chars.clone();
                    while lookahead.peek() == Some(&'#') {
                        lookahead.next();
                        hashes += 1;
                    }
                    if lookahead.peek() == Some(&'"') {
                        for _ in 0..hashes {
                            chars.next();
                        }
                        chars.next(); // the quote
                        line.code.push('"');
                        state = LexState::RawStr(hashes);
                    } else {
                        line.code.push('r');
                    }
                }
                '\'' => {
                    // Char literal vs lifetime: a char literal closes with a
                    // quote after one (possibly escaped) character.
                    let mut lookahead = chars.clone();
                    match lookahead.next() {
                        Some('\\') => {
                            // Escaped char literal: the backslash is followed
                            // by exactly one escaped character (which may be a
                            // quote or another backslash), then plain chars up
                            // to the closing quote (`\x41`, `\u{..}`).
                            line.code.push('\'');
                            chars.next(); // backslash
                            chars.next(); // the escaped character
                            for c2 in chars.by_ref() {
                                if c2 == '\'' {
                                    break;
                                }
                            }
                            line.code.push('\'');
                        }
                        Some(inner) if lookahead.next() == Some('\'') && inner != '\'' => {
                            chars.next();
                            chars.next();
                            line.code.push_str("' '");
                        }
                        _ => line.code.push('\''), // lifetime
                    }
                }
                _ => line.code.push(c),
            },
            LexState::LineComment => line.comment.push(c),
            LexState::BlockComment(depth) => match c {
                '*' if chars.peek() == Some(&'/') => {
                    chars.next();
                    if depth == 1 {
                        state = LexState::Code;
                    } else {
                        state = LexState::BlockComment(depth - 1);
                    }
                }
                '/' if chars.peek() == Some(&'*') => {
                    chars.next();
                    state = LexState::BlockComment(depth + 1);
                }
                _ => line.comment.push(c),
            },
            LexState::Str => match c {
                '\\' => {
                    chars.next(); // the escaped character
                }
                '"' => {
                    line.code.push('"');
                    state = LexState::Code;
                }
                _ => {}
            },
            LexState::RawStr(hashes) => {
                if c == '"' {
                    // Check for the closing hash run.
                    let mut lookahead = chars.clone();
                    let mut seen = 0u32;
                    while seen < hashes && lookahead.peek() == Some(&'#') {
                        lookahead.next();
                        seen += 1;
                    }
                    if seen == hashes {
                        for _ in 0..hashes {
                            chars.next();
                        }
                        line.code.push('"');
                        state = LexState::Code;
                    }
                }
            }
        }
    }
    out.push(line);
    out
}

/// Line-level pass: delimit `#[cfg(test)]` regions by brace depth.
fn mark_test_regions(lines: &mut [Line]) {
    // `#![cfg(test)]` as an inner attribute gates the whole file.
    let whole_file = lines
        .iter()
        .any(|l| squash(&l.code).contains("#![cfg(test)]"));

    let mut depth: i64 = 0;
    let mut regions: Vec<i64> = Vec::new();
    let mut pending_attr = false;

    for line in lines.iter_mut() {
        line.in_test = whole_file || !regions.is_empty();
        let code = squash(&line.code);
        if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") {
            // The second pattern matches `#[cfg(all(test, ...))]`.
            pending_attr = true;
            line.in_test = true;
        }
        for c in line.code.chars() {
            match c {
                '{' => {
                    if pending_attr {
                        regions.push(depth);
                        pending_attr = false;
                        line.in_test = true;
                    }
                    depth += 1;
                }
                '}' => {
                    depth -= 1;
                    if regions.last() == Some(&depth) {
                        regions.pop();
                    }
                }
                ';' if pending_attr && regions.is_empty() => {
                    // `#[cfg(test)] mod tests;` — out-of-line module; the
                    // gated code lives in another file.
                    pending_attr = false;
                }
                _ => {}
            }
        }
    }
}

/// Remove whitespace so attribute spellings compare robustly.
fn squash(s: &str) -> String {
    s.chars().filter(|c| !c.is_whitespace()).collect()
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)] // fixture access; a miss is a test failure
mod tests {
    use super::*;

    #[test]
    fn comments_are_stripped_and_kept() {
        let f = SourceFile::parse("a.rs", "let x = 1; // trailing\n/* block */ let y = 2;\n");
        assert_eq!(f.lines[0].code, "let x = 1; ");
        assert_eq!(f.lines[0].comment, " trailing");
        assert_eq!(f.lines[1].code, " let y = 2;");
    }

    #[test]
    fn string_contents_are_blanked() {
        let f = SourceFile::parse("a.rs", r#"call("_bgp_err_x", "unwrap() inside");"#);
        assert_eq!(f.lines[0].code, r#"call("", "");"#);
    }

    #[test]
    fn raw_strings_and_escapes() {
        let f = SourceFile::parse("a.rs", "let s = r#\"a\"b\"#; let t = \"q\\\"w\";");
        assert_eq!(f.lines[0].code, "let s = \"\"; let t = \"\";");
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let f = SourceFile::parse("a.rs", "fn f<'a>(x: &'a str) { let c = '\"'; g(c); }");
        // The double-quote char literal must not open a string.
        assert_eq!(
            f.lines[0].code,
            "fn f<'a>(x: &'a str) { let c = ' '; g(c); }"
        );
    }

    #[test]
    fn cfg_test_regions_are_marked() {
        let src = "fn lib() { x.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { y.unwrap(); }\n\
                   }\n\
                   fn lib2() {}\n";
        let f = SourceFile::parse("a.rs", src);
        assert!(!f.lines[0].in_test);
        assert!(f.lines[1].in_test);
        assert!(f.lines[2].in_test);
        assert!(f.lines[3].in_test);
        assert!(f.lines[4].in_test);
        assert!(!f.lines[5].in_test);
    }

    #[test]
    fn inner_cfg_test_gates_whole_file() {
        let f = SourceFile::parse("a.rs", "#![cfg(test)]\nfn t() { x.unwrap(); }\n");
        assert!(f.lines.iter().all(|l| l.in_test));
    }

    #[test]
    fn nested_block_comments() {
        let f = SourceFile::parse("a.rs", "/* a /* b */ still comment */ code();\n");
        assert_eq!(f.lines[0].code.trim(), "code();");
    }

    #[test]
    fn multi_hash_raw_strings() {
        // `r##"…"##` may contain `"#` without closing; only `"##` ends it.
        let f = SourceFile::parse("a.rs", "let s = r##\"has \"# inside\"##; done();\n");
        assert_eq!(f.lines[0].code, "let s = \"\"; done();");
        // A lone `r` identifier is not a raw-string opener.
        let g = SourceFile::parse("a.rs", "let r = r + 1;\n");
        assert_eq!(g.lines[0].code, "let r = r + 1;");
    }

    #[test]
    fn byte_strings_and_byte_raw_strings() {
        let f = SourceFile::parse("a.rs", "let b = b\"bytes with .unwrap()\"; h();\n");
        assert_eq!(f.lines[0].code, "let b = b\"\"; h();");
        let g = SourceFile::parse("a.rs", "let b = br#\"raw \" bytes\"#; k();\n");
        assert_eq!(g.lines[0].code, "let b = b\"\"; k();");
    }

    #[test]
    fn crlf_line_endings_leave_no_carriage_return_in_code() {
        let f = SourceFile::parse("a.rs", "struct Unit;\r\nfn f() {}\r\n");
        assert_eq!(f.lines[0].code, "struct Unit;");
        assert!(
            f.lines[0].code.ends_with(';'),
            "trailing \\r breaks ends_with"
        );
        assert_eq!(f.lines[1].code, "fn f() {}");
    }

    #[test]
    fn multiline_raw_string_blanks_every_line() {
        let f = SourceFile::parse("a.rs", "let s = r#\"line one\nline two\"#; tail();\n");
        // Code on the continuation line is only the closing quote + tail.
        assert_eq!(f.lines[0].code, "let s = \"");
        assert_eq!(f.lines[1].code, "\"; tail();");
    }
}
