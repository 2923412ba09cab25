//! The domain lint rules.
//!
//! Each rule is a pure function from analyzed sources ([`SourceFile`]) to
//! [`Finding`]s, so the unit tests can drive every rule with small in-memory
//! fixtures. Scoping — which files each rule sees — is the runner's job
//! (`crate::workspace`). There is no suppression: a false positive is fixed
//! in the rule or in the code.
//!
//! The rule catalog, with ids as used by `--only`:
//!
//! | id | enforces |
//! |----|----------|
//! | `stage-contract` | public pipeline stage fns and `StageId` variants document their contract |
//! | `serve-concurrency` | no Mutex guard held across blocking I/O in `crates/serve` |
//!
//! `serve-concurrency` is a token-tree rule: it parses delimiter trees and
//! `let` bindings via [`crate::syntax`], rather than matching single lines.

use crate::source::SourceFile;
use crate::syntax::{self, Syntax, Tree};
use std::collections::BTreeSet;
use std::fmt;

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (see module docs).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Static description of a rule, for `cargo xtask lint --list`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule id as accepted by `--only`.
    pub id: &'static str,
    /// One-line summary of what the rule enforces.
    pub summary: &'static str,
}

/// Every rule the harness knows, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "stage-contract",
        summary: "public pipeline stage entry points and `StageId` variants document their input/output contract (a `Contract:` doc line)",
    },
    RuleInfo {
        id: "serve-concurrency",
        summary: "crates/serve never holds a Mutex guard across blocking I/O",
    },
];

/// Names of public entry points that constitute pipeline stages.
const STAGE_FNS: &[&str] = &[
    "apply",
    "run",
    "filter",
    "classify_impact",
    "classify_root_cause",
];

/// `stage-contract`: every public stage entry point — and every variant of
/// `pub enum StageId`, one per pipeline pass — must carry a doc line
/// starting `Contract:` stating its input → output obligation (e.g. that
/// filtering is monotone: output count ≤ input count). The paper's pipeline
/// is a chain of such contracts; making them greppable text keeps them
/// reviewable.
pub fn stage_contract(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut in_stage_ids = false;
    for (lineno, line) in file.numbered() {
        if line.in_test {
            continue;
        }
        let code = line.code.trim_start();
        let subject = if in_stage_ids {
            in_stage_ids = !code.starts_with('}');
            let name = leading_ident(code);
            if !name.starts_with(|c: char| c.is_ascii_uppercase()) {
                continue;
            }
            format!("stage `StageId::{name}`")
        } else if code.starts_with("pub enum StageId ") {
            in_stage_ids = true;
            continue;
        } else if let Some(rest) = code.strip_prefix("pub fn ") {
            let name = leading_ident(rest);
            if !STAGE_FNS.contains(&name.as_str()) {
                continue;
            }
            format!("public stage entry point `{name}`")
        } else {
            continue;
        };
        if !has_contract_above(file, lineno) {
            out.push(Finding {
                rule: "stage-contract",
                path: file.path.clone(),
                line: lineno,
                message: format!(
                    "{subject} has no `/// Contract:` doc line stating its \
                     input/output obligation"
                ),
            });
        }
    }
    out
}

/// The identifier `s` starts with (empty if none).
fn leading_ident(s: &str) -> String {
    s.chars()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect()
}

/// True when a doc line starting `Contract:` sits above `lineno` (1-based),
/// walking upward over doc comments, attributes, and blank lines.
fn has_contract_above(file: &SourceFile, lineno: usize) -> bool {
    for above in file.lines.iter().take(lineno - 1).rev() {
        // The lexer strips comments out of `code`: a `/// doc` line has
        // empty code and comment text beginning with `/`.
        let trimmed = above.code.trim();
        if trimmed.is_empty() && !above.comment.is_empty() {
            let doc = above.comment.strip_prefix('/').unwrap_or("");
            if doc.trim().starts_with("Contract:") {
                return true;
            }
        } else if !(trimmed.starts_with("#[") || trimmed.ends_with(']') || trimmed.is_empty()) {
            // Anything but attributes (possibly multi-line) and blank
            // separators ends the item's doc block.
            return false;
        }
    }
    false
}

/// Method calls that block on I/O, channels, timers, or other threads.
const BLOCKING_CALLS: &[&str] = &[
    "recv",
    "recv_timeout",
    "accept",
    "read",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "read_line",
    "write",
    "write_all",
    "write_vectored",
    "flush",
    "send",
    "sleep",
    "join",
    "connect",
    "wait",
    "wait_timeout",
];

/// One live Mutex guard during the `serve-concurrency` scan.
struct LiveGuard {
    name: String,
    line: usize,
}

/// True when a statement prefix / initializer contains a guard-producing
/// call: `.lock(...)` or a local helper returning a `MutexGuard`.
fn produces_guard(mut words: impl Iterator<Item = String>, guard_fns: &BTreeSet<String>) -> bool {
    words.any(|w| w == "lock" || guard_fns.contains(&w))
}

/// Flattened word stream of a tree slice (group contents included).
fn words_of(trees: &[Tree], out: &mut Vec<String>) {
    for t in trees {
        match t {
            Tree::Leaf(tok) => out.push(tok.text.clone()),
            Tree::Group(g) => words_of(&g.trees, out),
        }
    }
}

/// Scan one statement's trees for blocking calls under live guards and
/// `drop(guard)` deactivations; recurse into nested blocks with proper
/// guard scoping, skipping `spawn(...)` argument closures (they run on
/// another thread, without the caller's guards).
fn scan_serve_stmt(
    file: &SourceFile,
    stmt: &[Tree],
    guard_fns: &BTreeSet<String>,
    active: &mut Vec<LiveGuard>,
    out: &mut Vec<Finding>,
) {
    let leaf = |i: usize| match stmt.get(i) {
        Some(Tree::Leaf(t)) => t.text.as_str(),
        _ => "",
    };
    for (i, t) in stmt.iter().enumerate() {
        match t {
            Tree::Group(g) if g.delim == '{' => {
                // A block after a guard-producing prefix (`if let Ok(g) =
                // x.lock() {`, `match x.lock() {`) runs with that guard live.
                let mut prefix = Vec::new();
                words_of(stmt.get(..i).unwrap_or_default(), &mut prefix);
                let scoped = produces_guard(prefix.into_iter(), guard_fns);
                if scoped {
                    active.push(LiveGuard {
                        name: "<scoped>".to_owned(),
                        line: g.open_line,
                    });
                }
                scan_serve_block(file, &g.trees, guard_fns, active, out);
                if scoped {
                    active.pop();
                }
            }
            Tree::Group(g) => {
                if leaf(i.wrapping_sub(1)) == "spawn" {
                    continue; // the spawned closure runs without our guards
                }
                scan_serve_stmt(file, &g.trees, guard_fns, active, out);
            }
            Tree::Leaf(tok) => {
                // A call is `ident (…)`; check blocking + drop.
                let is_call = matches!(stmt.get(i + 1), Some(Tree::Group(g)) if g.delim == '(');
                if !is_call || leaf(i.wrapping_sub(1)) == "!" {
                    continue;
                }
                if tok.text == "drop" {
                    if let Some(Tree::Group(args)) = stmt.get(i + 1) {
                        let mut names = Vec::new();
                        words_of(&args.trees, &mut names);
                        active.retain(|g| !names.contains(&g.name));
                    }
                    continue;
                }
                if BLOCKING_CALLS.contains(&tok.text.as_str()) {
                    if let Some(guard) = active.last() {
                        out.push(Finding {
                            rule: "serve-concurrency",
                            path: file.path.clone(),
                            line: tok.line,
                            message: format!(
                                "blocking `{}` while a Mutex guard (taken on line {}) is \
                                 live; shrink the guard scope (clone/move what you need, \
                                 or drop the guard) before blocking",
                                tok.text, guard.line
                            ),
                        });
                    }
                }
            }
        }
    }
}

/// Scan a block's statements, activating guards bound by `let` for the
/// remainder of the block only.
fn scan_serve_block(
    file: &SourceFile,
    trees: &[Tree],
    guard_fns: &BTreeSet<String>,
    active: &mut Vec<LiveGuard>,
    out: &mut Vec<Finding>,
) {
    let entry = active.len();
    for stmt in syntax::statements(trees) {
        scan_serve_stmt(file, stmt, guard_fns, active, out);
        // The binding `let` may trail an earlier block statement in the
        // same splitter statement (`if … {…} let g = …;`); parse from the
        // last top-level `let`.
        let last_let = stmt
            .iter()
            .rposition(|t| matches!(t, Tree::Leaf(tok) if tok.text == "let"));
        let binding = last_let
            .and_then(|i| syntax::LetBinding::from_statement(stmt.get(i..).unwrap_or_default()));
        if let Some(b) = binding {
            if produces_guard(b.init.split_whitespace().map(str::to_owned), guard_fns) {
                active.push(LiveGuard {
                    name: b.name,
                    line: b.line,
                });
            }
        }
    }
    active.truncate(entry);
}

/// `serve-concurrency`: the daemon's analysis worker and HTTP endpoints
/// share state behind mutexes. A Mutex guard must never be held across a
/// call that can block (socket I/O, channel `recv`/`send`, thread `join`):
/// that serializes unrelated readers and can deadlock shutdown. (That its
/// queues are bounded is clippy's job: the root `clippy.toml` bans
/// `mpsc::channel` and `VecDeque::new`.)
pub fn serve_concurrency(file: &SourceFile) -> Vec<Finding> {
    let syntax_tree = Syntax::parse(file);
    let mut out = Vec::new();
    let guard_fns: BTreeSet<String> = syntax_tree
        .fns()
        .iter()
        .filter(|f| f.return_type().contains("MutexGuard"))
        .map(|f| f.name.clone())
        .collect();
    for f in syntax_tree.fns() {
        let Some(body) = f.body else { continue };
        let mut active: Vec<LiveGuard> = Vec::new();
        scan_serve_block(file, &body.trees, &guard_fns, &mut active, &mut out);
    }
    out
}

#[cfg(test)]
#[allow(clippy::indexing_slicing)] // fixture access; a miss is a test failure
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::parse("fixture.rs", src)
    }

    // -- stage-contract ---------------------------------------------------

    #[test]
    fn stage_contract_fires_on_undocumented_stage() {
        let f = file("/// Filters records.\npub fn apply(&self) -> Vec<R> {}\n");
        let found = stage_contract(&f);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("`apply`"));
    }

    #[test]
    fn stage_contract_sees_contract_doc_above_attributes() {
        let f = file(
            "/// Contract: output is a subsequence of input.\n\
             /// More prose.\n\
             #[must_use]\n\
             pub fn apply(&self) -> Vec<R> {}\n\
             pub fn helper() {}\n",
        );
        assert!(stage_contract(&f).is_empty(), "helper is not a stage fn");
    }

    #[test]
    fn stage_contract_fires_on_undocumented_stage_variant() {
        let f = file(
            "#[repr(u16)]\n\
             pub enum StageId {\n\
                 /// Contract: dedups each shard; output count <= input count.\n\
                 Dedup = 0,\n\
                 /// Matches events to jobs.\n\
                 #[doc(alias = \"m\")]\n\
                 Match = 1,\n\
             }\n\
             \n\
             pub enum Other {\n\
                 Undocumented,\n\
             }\n",
        );
        let found = stage_contract(&f);
        assert_eq!(found.len(), 1, "{found:?}");
        assert!(found[0].message.contains("`StageId::Match`"));
        assert_eq!(found[0].line, 7);
    }

    #[test]
    fn stage_contract_accepts_documented_stage_variants() {
        let f = file(
            "pub enum StageId {\n\
                 /// Dedup pass.\n\
                 ///\n\
                 /// Contract: dedups each shard; output count <= input count.\n\
                 Dedup = 0,\n\
                 /// Contract: final events are a subsequence of the input.\n\
                 Match = 1,\n\
             }\n",
        );
        assert!(
            stage_contract(&f).is_empty(),
            "a contract line in each variant's doc block covers it"
        );
    }

    // -- serve-concurrency ------------------------------------------------

    #[test]
    fn serve_concurrency_fires_on_guard_across_blocking_call() {
        let f = file(
            "fn pump(state: &Mutex<u64>, rx: &Receiver<u64>) {\n\
                 let mut guard = state.lock().unwrap_or_else(|p| p.into_inner());\n\
                 let next = rx.recv();\n\
             }\n",
        );
        let found = serve_concurrency(&f);
        assert_eq!(found.len(), 1, "findings: {found:?}");
        assert!(found[0].message.contains("`recv`"));
        assert!(found[0].message.contains("line 2"));
    }

    #[test]
    fn serve_concurrency_respects_guard_scope_and_drop() {
        let f = file(
            "fn pump(state: &Mutex<u64>, rx: &Receiver<u64>) {\n\
                 {\n\
                     let g = state.lock().unwrap_or_else(|p| p.into_inner());\n\
                 }\n\
                 let a = rx.recv();\n\
                 let g = state.lock().unwrap_or_else(|p| p.into_inner());\n\
                 drop(g);\n\
                 let b = rx.recv();\n\
             }\n",
        );
        assert!(serve_concurrency(&f).is_empty());
    }

    #[test]
    fn serve_concurrency_sees_scoped_guards_and_helper_fns() {
        // `if let` guard expressions and local helpers returning a guard
        // both put a guard in scope for the attached block.
        let f = file(
            "fn shard(&self) -> MutexGuard<'_, u64> {\n\
                 self.inner.lock().unwrap_or_else(|p| p.into_inner())\n\
             }\n\
             fn pump(&self, rx: &Receiver<u64>) {\n\
                 if let Ok(g) = self.inner.lock() {\n\
                     let x = rx.recv();\n\
                 }\n\
                 let s = self.shard();\n\
                 let y = rx.recv();\n\
             }\n",
        );
        let found = serve_concurrency(&f);
        assert_eq!(found.len(), 2, "findings: {found:?}");
    }

    #[test]
    fn serve_concurrency_ignores_spawned_closures() {
        // The spawned closure runs on another thread without our guards.
        let f = file(
            "fn pump(state: &Mutex<u64>, rx: Receiver<u64>) {\n\
                 let g = state.lock().unwrap_or_else(|p| p.into_inner());\n\
                 spawn(move || {\n\
                     let x = rx.recv();\n\
                 });\n\
             }\n",
        );
        assert!(serve_concurrency(&f).is_empty());
    }

    // -- seeded violations in real workspace files ------------------------
    //
    // Each family's acceptance proof: load the real source, inject the
    // defect the rule exists to catch, and assert it is caught — and that
    // the unmutated file stays clean, so the lint's green run means
    // something.

    /// A real workspace source, parsed with its repo-relative path.
    fn real(rel: &str) -> SourceFile {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let text =
            std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        SourceFile::parse(rel, &text)
    }

    /// `real(rel)` with `from` replaced by `to` (must occur exactly once).
    fn mutated(rel: &str, from: &str, to: &str) -> SourceFile {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let text =
            std::fs::read_to_string(root.join(rel)).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        assert_eq!(
            text.matches(from).count(),
            1,
            "mutation anchor `{from}` in {rel}"
        );
        SourceFile::parse(rel, &text.replace(from, to))
    }

    #[test]
    fn seeded_guard_across_blocking_call_is_detected() {
        // `close` joins the worker while still holding the sender lock —
        // the exact shutdown deadlock shape the rule exists for.
        let rel = "crates/serve/src/worker.rs";
        let f = mutated(
            rel,
            "*guard = None;",
            "*guard = None;\n        self.join();",
        );
        let found = serve_concurrency(&f);
        assert!(
            found.iter().any(|x| x.message.contains("`join`")),
            "findings: {found:?}"
        );
        assert!(serve_concurrency(&real(rel)).is_empty());
    }
}
