//! The workspace hash model for the `parallel-determinism` rule: which
//! struct fields and functions carry `HashMap`/`HashSet` values, so the rule
//! can recognize hash-ordered iteration across file boundaries.
//!
//! Extraction is pattern-exact on `rustfmt`ed code, built on
//! [`crate::syntax`].

use crate::source::SourceFile;
use crate::syntax::{Syntax, Tree};
use std::collections::BTreeSet;

/// Leaf-token text at `trees[i]`, or `""` for groups / out of range.
fn leaf_text(trees: &[Tree], i: usize) -> &str {
    match trees.get(i) {
        Some(Tree::Leaf(t)) => &t.text,
        _ => "",
    }
}

/// Struct fields and functions carrying `HashMap`/`HashSet` values.
#[derive(Debug, Default)]
pub struct HashModel {
    /// Field names declared with a hash-typed value anywhere in the scanned
    /// sources (field names are treated as a global namespace — a read of
    /// `self.best` cannot be type-resolved, only name-matched).
    pub hash_fields: BTreeSet<String>,
    /// Function names whose return type mentions `HashMap`/`HashSet`.
    pub hash_fns: BTreeSet<String>,
}

/// True when a flattened type text mentions a std hash container.
pub fn is_hash_type(ty: &str) -> bool {
    ty.contains("HashMap") || ty.contains("HashSet")
}

/// Scan `sources` for hash-typed struct fields and hash-returning fns.
pub fn hash_model(sources: &[&SourceFile]) -> HashModel {
    let mut model = HashModel::default();
    for file in sources {
        let syntax = Syntax::parse(file);
        for f in syntax.fns() {
            if is_hash_type(&f.return_type()) {
                model.hash_fns.insert(f.name);
            }
        }
        collect_hash_fields(&syntax.trees, &mut model.hash_fields);
    }
    model
}

/// Find `struct Name { field: HashMap<…>, … }` fields, recursively.
fn collect_hash_fields(trees: &[Tree], out: &mut BTreeSet<String>) {
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group(g) = t {
            // A struct body directly follows `struct Name` (possibly with
            // generics between).
            let is_struct_body = g.delim == '{' && {
                let mut j = i;
                let mut saw_struct = false;
                // Walk back over name/generic tokens to a `struct` keyword.
                while j > 0 {
                    j -= 1;
                    match trees.get(j) {
                        Some(Tree::Leaf(tok)) => {
                            if tok.text == "struct" {
                                saw_struct = true;
                                break;
                            }
                            let token_ok = tok.text == "<"
                                || tok.text == ">"
                                || tok.text == "'"
                                || tok.text == ","
                                || tok.text == "::"
                                || tok
                                    .text
                                    .chars()
                                    .next()
                                    .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_');
                            if !token_ok {
                                break;
                            }
                        }
                        _ => break,
                    }
                }
                saw_struct
            };
            if is_struct_body {
                // Fields split at top-level commas: `vis name : type`.
                let mut k = 0usize;
                while k < g.trees.len() {
                    // Field name is the ident directly before a `:`.
                    if leaf_text(&g.trees, k) == ":" && k >= 1 {
                        if let Some(Tree::Leaf(name)) = g.trees.get(k - 1) {
                            // Type text runs to the next top-level comma.
                            let mut ty = String::new();
                            let mut angle = 0i32;
                            let mut m = k + 1;
                            while let Some(tree) = g.trees.get(m) {
                                match tree {
                                    Tree::Leaf(tok) => match tok.text.as_str() {
                                        "," if angle == 0 => break,
                                        "<" => {
                                            angle += 1;
                                            ty.push('<');
                                        }
                                        ">" => {
                                            angle -= 1;
                                            ty.push('>');
                                        }
                                        s => ty.push_str(s),
                                    },
                                    Tree::Group(_) => ty.push_str("()"),
                                }
                                m += 1;
                            }
                            if is_hash_type(&ty) {
                                out.insert(name.text.clone());
                            }
                            k = m;
                            continue;
                        }
                    }
                    k += 1;
                }
            }
            collect_hash_fields(&g.trees, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_model_finds_fields_and_fn_returns() {
        let f = SourceFile::parse(
            "m.rs",
            "pub struct Matching {\n\
                 pub job_to_event: HashMap<u64, u32>,\n\
                 pub cases: Vec<Case>,\n\
             }\n\
             fn daily_profiles(x: u8) -> HashMap<u32, f64> { HashMap::new() }\n\
             fn plain() -> Vec<u8> { Vec::new() }\n",
        );
        let model = hash_model(&[&f]);
        assert!(model.hash_fields.contains("job_to_event"));
        assert!(!model.hash_fields.contains("cases"));
        assert!(model.hash_fns.contains("daily_profiles"));
        assert!(!model.hash_fns.contains("plain"));
    }
}
