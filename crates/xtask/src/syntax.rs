//! Token-tree parsing layered on the [`SourceFile`] lexer.
//!
//! The line-lexical rules see one line at a time; the dataflow rule
//! (`serve-concurrency`) needs real structure: which tokens sit inside which
//! braces, where a `fn` body starts and ends, what a `let` binds. This
//! module supplies exactly that — and nothing more. It is not a Rust parser:
//! it builds delimiter trees (`{}`, `[]`, `()`) over the lexer's
//! comment-stripped, string-blanked code, then pattern-matches `rustfmt`ed
//! item shapes on top. On formatted code the extraction is exact; on
//! pathological code it degrades to "no items found", which downstream
//! rules report as format drift rather than silently passing.
//!
//! The public surface is deliberately small:
//!
//! * [`Syntax::parse`] — tokenize + build the delimiter tree;
//! * [`Syntax::fns`] — `fn` item extraction (recursive through inline
//!   `mod`/`impl` blocks, skipping `#[cfg(test)]` regions);
//! * [`statements`] — split a block's trees at `;` for `let`-binding
//!   analysis ([`LetBinding::from_statement`]).

use crate::source::SourceFile;

/// What kind of token a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier, keyword, or numeric literal (`[A-Za-z0-9_]+` runs).
    Ident,
    /// A single punctuation character, or one of the glued pairs
    /// `::`, `->`, `=>`.
    Punct,
    /// A string-literal quote (contents were blanked by the lexer).
    Quote,
}

/// One token, with the 1-based source line it starts on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Token text (`"ident"`, `"::"`, `"."`, ...).
    pub text: String,
    /// 1-based line number.
    pub line: usize,
    /// Classification.
    pub kind: TokenKind,
    /// True when the token sits inside `#[cfg(test)]`-gated code.
    pub in_test: bool,
}

/// A node of the delimiter tree: a leaf token or a delimited group.
#[derive(Debug, Clone)]
pub enum Tree {
    /// A single token.
    Leaf(Token),
    /// A `(...)`, `[...]`, or `{...}` group.
    Group(Group),
}

/// A delimited group and its contents.
#[derive(Debug, Clone)]
pub struct Group {
    /// Opening delimiter: `'('`, `'['`, or `'{'`.
    pub delim: char,
    /// 1-based line of the opening delimiter.
    pub open_line: usize,
    /// 1-based line of the closing delimiter (opening line if unclosed).
    pub close_line: usize,
    /// Child nodes in source order.
    pub trees: Vec<Tree>,
}

/// A parsed file: the top-level forest of tokens and groups.
#[derive(Debug, Clone)]
pub struct Syntax {
    /// Top-level nodes in source order.
    pub trees: Vec<Tree>,
}

/// A `fn` item: name, signature tokens, and body group.
#[derive(Debug)]
pub struct FnDef<'a> {
    /// Function name.
    pub name: String,
    /// Signature nodes between the name and the body: the parameter-list
    /// group first, then any return-type tokens.
    pub sig: Vec<&'a Tree>,
    /// The `{ ... }` body (absent for trait-method declarations).
    pub body: Option<&'a Group>,
}

impl FnDef<'_> {
    /// Flattened text of the return type (tokens after `->`), or empty.
    pub fn return_type(&self) -> String {
        let mut out = String::new();
        let mut after_arrow = false;
        for t in &self.sig {
            match t {
                Tree::Leaf(tok) => {
                    if tok.text == "->" {
                        after_arrow = true;
                    } else if after_arrow {
                        out.push_str(&tok.text);
                    }
                }
                Tree::Group(_) if after_arrow => out.push_str("()"),
                Tree::Group(_) => {}
            }
        }
        out
    }
}

/// A `let` binding split out of a statement.
#[derive(Debug)]
pub struct LetBinding {
    /// Bound name (the first identifier after `let` / `let mut`).
    pub name: String,
    /// 1-based line of the binding.
    pub line: usize,
    /// Flattened text of the type annotation (empty when absent).
    pub annotation: String,
    /// Flattened text of the initializer (groups render as `(...)` etc.).
    pub init: String,
    /// 1-based line of the initializer's first token — differs from `line`
    /// when rustfmt wraps the initializer onto its own line.
    pub init_line: usize,
}

impl Syntax {
    /// Tokenize `file` and build the delimiter forest.
    pub fn parse(file: &SourceFile) -> Syntax {
        let tokens = tokenize(file);
        let mut iter = tokens.into_iter().peekable();
        Syntax {
            trees: build_forest(&mut iter, None),
        }
    }

    /// All `fn` items, recursively through inline `mod`/`impl` bodies,
    /// skipping `#[cfg(test)]` code.
    pub fn fns(&self) -> Vec<FnDef<'_>> {
        let mut out = Vec::new();
        collect_fns(&self.trees, &mut out);
        out
    }
}

/// Split `file`'s code channel into tokens. String literals were blanked by
/// the lexer, so a quote token always stands for a full literal.
fn tokenize(file: &SourceFile) -> Vec<Token> {
    let mut out = Vec::new();
    for (lineno, line) in file.numbered() {
        let chars: Vec<char> = line.code.chars().collect();
        let mut i = 0;
        while let Some(&c) = chars.get(i) {
            if c.is_whitespace() {
                i += 1;
                continue;
            }
            if c.is_ascii_alphanumeric() || c == '_' {
                let start = i;
                while chars
                    .get(i)
                    .is_some_and(|ch| ch.is_ascii_alphanumeric() || *ch == '_')
                {
                    i += 1;
                }
                out.push(Token {
                    text: chars.get(start..i).unwrap_or_default().iter().collect(),
                    line: lineno,
                    kind: TokenKind::Ident,
                    in_test: line.in_test,
                });
                continue;
            }
            if c == '"' {
                out.push(Token {
                    text: "\"".to_owned(),
                    line: lineno,
                    kind: TokenKind::Quote,
                    in_test: line.in_test,
                });
                i += 1;
                continue;
            }
            // Glue the two-character operators the extractors key on.
            let next = chars.get(i + 1).copied();
            let glued = match (c, next) {
                (':', Some(':')) => Some("::"),
                ('-', Some('>')) => Some("->"),
                ('=', Some('>')) => Some("=>"),
                _ => None,
            };
            let text = match glued {
                Some(g) => {
                    i += 2;
                    g.to_owned()
                }
                None => {
                    i += 1;
                    c.to_string()
                }
            };
            out.push(Token {
                text,
                line: lineno,
                kind: TokenKind::Punct,
                in_test: line.in_test,
            });
        }
    }
    out
}

/// Build a forest until `close` (or end of input). Stray closers of other
/// kinds are treated as closing the current group — lenient on purpose.
fn build_forest(
    iter: &mut std::iter::Peekable<std::vec::IntoIter<Token>>,
    close: Option<char>,
) -> Vec<Tree> {
    let mut out = Vec::new();
    while let Some(tok) = iter.peek() {
        let text = tok.text.as_str();
        let opener = matches!(text, "(" | "[" | "{");
        let closer = matches!(text, ")" | "]" | "}");
        if closer {
            if close.is_some() {
                return out; // caller consumes the closer
            }
            iter.next(); // stray closer at top level: drop it
            continue;
        }
        if opener {
            let open = iter.next().unwrap_or_else(|| unreachable!("peeked"));
            let delim = open.text.chars().next().unwrap_or('(');
            let want = match delim {
                '(' => ')',
                '[' => ']',
                _ => '}',
            };
            let trees = build_forest(iter, Some(want));
            let close_line = iter.next().map_or(open.line, |t| t.line); // the closer
            out.push(Tree::Group(Group {
                delim,
                open_line: open.line,
                close_line,
                trees,
            }));
            continue;
        }
        if let Some(tok) = iter.next() {
            out.push(Tree::Leaf(tok));
        }
    }
    out
}

/// Leaf-token text at `trees[i]`, or `""` for groups / out of range.
fn leaf(trees: &[Tree], i: usize) -> &str {
    match trees.get(i) {
        Some(Tree::Leaf(t)) => &t.text,
        _ => "",
    }
}

/// True when the leaf at `trees[i]` is test-gated (groups report their
/// opening token's gating via recursion elsewhere).
fn leaf_in_test(trees: &[Tree], i: usize) -> bool {
    match trees.get(i) {
        Some(Tree::Leaf(t)) => t.in_test,
        Some(Tree::Group(_)) => false,
        None => false,
    }
}

fn collect_fns<'a>(trees: &'a [Tree], out: &mut Vec<FnDef<'a>>) {
    let mut i = 0;
    while i < trees.len() {
        if leaf(trees, i) == "fn" && !leaf_in_test(trees, i) {
            let name = leaf(trees, i + 1).to_owned();
            // Signature runs from after the name to the body `{...}` or a
            // terminating `;` (trait method declaration).
            let mut j = i + 2;
            let mut sig: Vec<&Tree> = Vec::new();
            let mut body = None;
            while let Some(tree) = trees.get(j) {
                match tree {
                    Tree::Group(g) if g.delim == '{' => {
                        body = Some(g);
                        break;
                    }
                    Tree::Leaf(t) if t.text == ";" => break,
                    t @ (Tree::Leaf(_) | Tree::Group(_)) => sig.push(t),
                }
                j += 1;
            }
            if !name.is_empty() {
                out.push(FnDef { name, sig, body });
            }
            // Recurse into the body for nested fns.
            if let Some(b) = body {
                collect_fns(&b.trees, out);
            }
            i = j + 1;
            continue;
        }
        // Recurse into mod/impl/trait bodies; `where` clauses and expressions
        // don't declare fns at their own level, so descending is harmless.
        if let Some(Tree::Group(g)) = trees.get(i) {
            if g.delim == '{' {
                collect_fns(&g.trees, out);
            }
        }
        i += 1;
    }
}

/// Split a tree sequence (a block body) into statements at top-level `;`.
pub fn statements(trees: &[Tree]) -> Vec<&[Tree]> {
    let mut out = Vec::new();
    let mut start = 0;
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Leaf(tok) = t {
            if tok.text == ";" {
                out.push(trees.get(start..i).unwrap_or_default());
                start = i + 1;
            }
        }
    }
    if start < trees.len() {
        out.push(trees.get(start..).unwrap_or_default());
    }
    out
}

impl LetBinding {
    /// Parse a statement's trees as `let [mut] NAME [: TYPE] = INIT`.
    pub fn from_statement(stmt: &[Tree]) -> Option<LetBinding> {
        if leaf(stmt, 0) != "let" {
            return None;
        }
        let mut i = 1;
        if leaf(stmt, i) == "mut" {
            i += 1;
        }
        let (name, line) = match stmt.get(i) {
            Some(Tree::Leaf(t)) if t.kind == TokenKind::Ident => (t.text.clone(), t.line),
            _ => return None, // destructuring patterns: not modeled
        };
        i += 1;
        let mut annotation = String::new();
        if leaf(stmt, i) == ":" {
            i += 1;
            let mut angle = 0i32;
            while let Some(tree) = stmt.get(i) {
                match tree {
                    Tree::Leaf(t) => match t.text.as_str() {
                        "=" if angle == 0 => break,
                        "<" => {
                            angle += 1;
                            annotation.push('<');
                        }
                        ">" => {
                            angle -= 1;
                            annotation.push('>');
                        }
                        s => annotation.push_str(s),
                    },
                    Tree::Group(_) => annotation.push_str("()"),
                }
                i += 1;
            }
        }
        if leaf(stmt, i) != "=" {
            return None;
        }
        i += 1;
        let rest = stmt.get(i..).unwrap_or_default();
        let init_line = rest
            .first()
            .map(|t| match t {
                Tree::Leaf(tok) => tok.line,
                Tree::Group(g) => g.open_line,
            })
            .unwrap_or(line);
        let mut init = String::new();
        for t in rest {
            match t {
                Tree::Leaf(tok) => {
                    init.push_str(&tok.text);
                    init.push(' ');
                }
                Tree::Group(g) => {
                    init.push(g.delim);
                    init.push_str("...");
                    init.push(match g.delim {
                        '(' => ')',
                        '[' => ']',
                        _ => '}',
                    });
                    init.push(' ');
                }
            }
        }
        Some(LetBinding {
            name,
            line,
            annotation,
            init,
            init_line,
        })
    }
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)] // fixture access; a miss is a test failure
mod tests {
    use super::*;

    fn parse(src: &str) -> Syntax {
        Syntax::parse(&SourceFile::parse("fixture.rs", src))
    }

    #[test]
    fn delimiter_trees_nest_and_record_lines() {
        let s = parse("fn f() {\n    g(a, [b, c]);\n}\n");
        // top level: fn f () { ... }
        assert_eq!(s.trees.len(), 4);
        let Tree::Group(body) = &s.trees[3] else {
            panic!("expected body group");
        };
        assert_eq!(body.delim, '{');
        assert_eq!(body.open_line, 1);
        assert_eq!(body.close_line, 3);
    }

    #[test]
    fn fns_are_extracted_with_return_type() {
        let s = parse("pub fn run(&self, ctx: &AnalysisContext<'_>, n: usize) -> Vec<u8> { x }\n");
        let fns = s.fns();
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "run");
        assert_eq!(fns[0].return_type(), "Vec<u8>");
        assert!(fns[0].body.is_some());
    }

    #[test]
    fn test_gated_items_are_skipped() {
        let s = parse(
            "fn lib() {}\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 fn helper() {}\n\
             }\n",
        );
        let names: Vec<_> = s.fns().iter().map(|f| f.name.clone()).collect();
        assert_eq!(names, vec!["lib".to_owned()]);
    }

    #[test]
    fn statements_split_and_let_bindings_parse() {
        let s = parse("fn f() { let mut m: HashMap<u32, f64> = HashMap::new(); m.clear(); }\n");
        let Tree::Group(body) = &s.trees[3] else {
            panic!("expected body");
        };
        let stmts = statements(&body.trees);
        assert_eq!(stmts.len(), 2);
        let b = LetBinding::from_statement(stmts[0]).expect("let binding");
        assert_eq!(b.name, "m");
        assert_eq!(b.annotation, "HashMap<u32,f64>");
        assert!(b.init.starts_with("HashMap :: new"));
    }

    #[test]
    fn unbalanced_input_degrades_without_panicking() {
        let s = parse("fn f( { ) } ]\n");
        // No panic; some forest comes back.
        assert!(!s.trees.is_empty());
    }
}
