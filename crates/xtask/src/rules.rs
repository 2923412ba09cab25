//! The domain lint rules.
//!
//! Each rule is a pure function from analyzed sources ([`SourceFile`]) to
//! [`Finding`]s, so the unit tests can drive every rule with small in-memory
//! fixtures. Scoping — which files each rule sees — is the runner's job
//! (`crate::workspace`); suppression (`xtask-allow`) is applied there too, so
//! rules report every violation they see.
//!
//! The rule catalog, with ids as used in `xtask-allow(<id>): <why>`:
//!
//! | id | enforces |
//! |----|----------|
//! | `determinism` | no ambient clocks/entropy in `core`/`stats` |
//! | `severity-wildcard` | `match` over `Severity` lists variants explicitly |
//! | `errcode-catalog` | classify's ERRCODE strings exist in the catalog |
//! | `crate-attrs` | crate roots forbid `unsafe_code`, warn `missing_docs` |
//! | `stage-contract` | public pipeline stage fns and `StageId` variants document their contract |
//! | `snapshot-version` | `.bgpsnap` layout fingerprints track the record structs |
//! | `dep-versions` | no duplicate major versions in `Cargo.lock` |
//! | `allow-syntax` | every `xtask-allow` carries a justification |
//! | `parallel-determinism` | no hash-ordered iteration or FP reduction feeding kernel results; no unsanctioned thread spawns |
//! | `serve-concurrency` | no Mutex guard held across blocking I/O in `crates/serve`; queues are bounded at construction |
//! | `port-boundary` | raw `raslog`/`joblog` parser entry points stay inside the BG/P adapter |
//! | `simd-fallback` | every SWAR/SIMD-documented scan keeps a `_scalar` twin referenced by equivalence tests |
//!
//! `parallel-determinism` and `serve-concurrency` are token-tree rules: they
//! parse delimiter trees and call chains via [`crate::syntax`] (plus the
//! workspace [`crate::hashmodel`]), rather than matching single lines.

use crate::hashmodel::{self, HashModel};
use crate::source::SourceFile;
use crate::syntax::{self, Syntax, Tree};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (see module docs).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub path: String,
    /// 1-based line number (0 for file- or workspace-level findings).
    pub line: usize,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.path, self.rule, self.message)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.path, self.line, self.rule, self.message
            )
        }
    }
}

/// Static description of a rule, for `cargo xtask lint --list`.
#[derive(Debug, Clone, Copy)]
pub struct RuleInfo {
    /// Rule id as accepted by `--only` and `xtask-allow`.
    pub id: &'static str,
    /// One-line summary of what the rule enforces.
    pub summary: &'static str,
}

/// Every rule the harness knows, in reporting order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        id: "determinism",
        summary: "deny ambient clocks and entropy (SystemTime::now, Instant::now, thread RNGs) in crates/core and crates/stats",
    },
    RuleInfo {
        id: "severity-wildcard",
        summary: "matches over raslog::Severity must list variants explicitly (no `_` arm)",
    },
    RuleInfo {
        id: "errcode-catalog",
        summary: "every ERRCODE string referenced by crates/core/src/classify must exist in crates/raslog/src/catalog.rs",
    },
    RuleInfo {
        id: "crate-attrs",
        summary: "crate roots carry #![forbid(unsafe_code)] and #![warn(missing_docs)]",
    },
    RuleInfo {
        id: "stage-contract",
        summary: "public pipeline stage entry points and `StageId` variants document their input/output contract (a `Contract:` doc line)",
    },
    RuleInfo {
        id: "snapshot-version",
        summary: "snapshot LAYOUT_FINGERPRINT matches the record struct's field list, so layout changes force a FORMAT_VERSION bump",
    },
    RuleInfo {
        id: "dep-versions",
        summary: "Cargo.lock carries no duplicate major versions of any dependency",
    },
    RuleInfo {
        id: "allow-syntax",
        summary: "xtask-allow suppressions carry a non-empty justification",
    },
    RuleInfo {
        id: "parallel-determinism",
        summary: "parallel kernels never let HashMap/HashSet iteration order or FP accumulation order reach results, and spawn threads only via the sanctioned scope helpers",
    },
    RuleInfo {
        id: "serve-concurrency",
        summary: "crates/serve never holds a Mutex guard across blocking I/O and constructs only bounded channels/queues",
    },
    RuleInfo {
        id: "port-boundary",
        summary: "raw raslog/joblog parser entry points are called only from the BG/P adapter (crates/ports/src/bgp.rs); everything else goes through the bgp-ports source traits",
    },
    RuleInfo {
        id: "simd-fallback",
        summary: "every function documented as a SWAR/SIMD scan has a `<name>_scalar` twin in the same file, and the twin is exercised by test code (the equivalence oracle)",
    },
];

/// Ambient time / entropy sources that break pipeline reproducibility.
const NONDETERMINISM: &[(&str, &str)] = &[
    ("SystemTime::now", "ambient wall-clock read"),
    ("Instant::now", "ambient monotonic-clock read"),
    ("thread_rng", "thread-local RNG (unseeded)"),
    ("rand::rng(", "ambient RNG constructor (unseeded)"),
    ("from_entropy", "OS-entropy RNG seeding"),
    ("from_os_rng", "OS-entropy RNG seeding"),
];

/// `determinism`: the analysis pipeline (`crates/core`) and the statistics
/// substrate (`crates/stats`) must be pure functions of their inputs and
/// explicit seeds — the paper's results are only reproducible if the same
/// logs always produce the same tables.
pub fn determinism(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (lineno, line) in file.numbered() {
        if line.in_test {
            continue;
        }
        for (pattern, what) in NONDETERMINISM {
            if line.code.contains(pattern) {
                out.push(Finding {
                    rule: "determinism",
                    path: file.path.clone(),
                    line: lineno,
                    message: format!(
                        "{what} (`{pattern}`) in deterministic pipeline code; \
                         thread an explicit seed or timestamp through the call graph"
                    ),
                });
            }
        }
    }
    out
}

/// Raw parser entry points that only the BG/P adapter may name.
const PORT_BOUNDARY_PATTERNS: &[&str] = &[
    "raslog::parse",
    "joblog::parse",
    "raslog::ingest",
    "joblog::ingest",
    "ingest::parse_log_bytes",
];

/// `port-boundary`: consumers reach log records through the `bgp-ports`
/// source traits; naming a raw parser entry point directly bypasses the
/// adapter layer and its per-source diagnostics. The parser crates
/// themselves and `crates/ports/src/bgp.rs` — the one sanctioned adapter —
/// are outside this rule's scope (see the caller).
pub fn port_boundary(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (lineno, line) in file.numbered() {
        if line.in_test {
            continue;
        }
        for pattern in PORT_BOUNDARY_PATTERNS {
            if line.code.contains(pattern) {
                out.push(Finding {
                    rule: "port-boundary",
                    path: file.path.clone(),
                    line: lineno,
                    message: format!(
                        "direct parser entry point (`{pattern}`) outside the BG/P \
                         adapter; go through the `bgp_ports` source traits \
                         (crates/ports/src/bgp.rs is the one sanctioned call site)"
                    ),
                });
                break; // one finding per line, not one per overlapping pattern
            }
        }
    }
    out
}

/// `severity-wildcard`: a `match` over `raslog::Severity` with a `_` arm
/// silently absorbs any future severity level; the catalog gained levels
/// before and will again. Requires every variant listed.
pub fn severity_wildcard(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    // Stack of open match blocks: (line of `match`, depth of its arms,
    // saw a Severity:: pattern, saw a wildcard arm).
    let mut depth: i64 = 0;
    let mut matches: Vec<(usize, i64, bool, bool)> = Vec::new();
    for (lineno, line) in file.numbered() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        // Arm inspection happens before brace bookkeeping so `Severity::X =>`
        // patterns are attributed to the innermost open match.
        if let Some((arm_line, arm_depth, saw_sev, saw_wild)) = matches.last_mut() {
            let _ = arm_line;
            if depth == *arm_depth + 1 {
                if let Some(pat) = code.split_once("=>").map(|(p, _)| p.trim()) {
                    if pat.contains("Severity::") {
                        *saw_sev = true;
                    }
                    if pat == "_" || pat.ends_with("| _") || pat.starts_with("_ if") {
                        *saw_wild = true;
                    }
                }
            }
        }
        let opens_match = code.contains("match ") && code.trim_end().ends_with('{');
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if opens_match && matches.last().map(|m| m.1) != Some(depth - 1) {
                        // Attribute the first `{` on a `match ... {` line to
                        // the match itself.
                        matches.push((lineno, depth - 1, false, false));
                    }
                }
                '}' => {
                    depth -= 1;
                    if let Some(&(mline, mdepth, saw_sev, saw_wild)) = matches.last() {
                        if depth == mdepth {
                            matches.pop();
                            if saw_sev && saw_wild {
                                out.push(Finding {
                                    rule: "severity-wildcard",
                                    path: file.path.clone(),
                                    line: mline,
                                    message: "match over Severity uses a wildcard arm; \
                                              list every variant so new severity levels \
                                              fail to compile instead of being absorbed"
                                        .to_owned(),
                                });
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// True for strings shaped like Blue Gene/P error-code names: the lowercase
/// `_bgp_*` family or upper-snake-case hardware codes (`BULK_POWER_FATAL`).
fn looks_like_errcode(s: &str) -> bool {
    // Every catalog code is `_bgp_` + lower_snake; subcomponent names are
    // UPPER_SNAKE and deliberately not matched.
    if let Some(rest) = s.strip_prefix("_bgp_") {
        return !rest.is_empty()
            && rest
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
    }
    false
}

/// Extract the set of code names defined by `catalog.rs`: the first string
/// of every `("name", C::Component, ...)` catalog entry.
pub fn catalog_names(catalog: &SourceFile) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for (_, line) in catalog.numbered() {
        // After string-blanking a catalog entry reads `("", C::Kernel, ...)`.
        if line.code.contains("(\"\", C::") {
            if let Some(first) = line.strings.first() {
                names.insert(first.clone());
            }
        }
    }
    names
}

/// `errcode-catalog`: every ERRCODE-shaped string in the classify sources
/// must name a code the catalog actually defines — classification decisions
/// keyed on a typo would silently never fire. Test code is checked too: a
/// test asserting on a phantom code is equally wrong.
pub fn errcode_catalog(catalog: &SourceFile, classify: &[&SourceFile]) -> Vec<Finding> {
    let names = catalog_names(catalog);
    let mut out = Vec::new();
    if names.is_empty() {
        out.push(Finding {
            rule: "errcode-catalog",
            path: catalog.path.clone(),
            line: 0,
            message: "no catalog entries recognized; catalog.rs format changed?".to_owned(),
        });
        return out;
    }
    for file in classify {
        for (lineno, line) in file.numbered() {
            for s in &line.strings {
                if looks_like_errcode(s) && !names.contains(s) {
                    out.push(Finding {
                        rule: "errcode-catalog",
                        path: file.path.clone(),
                        line: lineno,
                        message: format!(
                            "ERRCODE `{s}` is not defined in raslog's catalog \
                             (crates/raslog/src/catalog.rs); classification keyed \
                             on it can never fire"
                        ),
                    });
                }
            }
        }
    }
    out
}

/// True when the contiguous doc block above `lineno` (1-based) advertises a
/// word- or vector-parallel implementation ("SWAR" or "SIMD").
fn doc_mentions_simd(file: &SourceFile, lineno: usize) -> bool {
    let mut idx = lineno - 1; // 0-based index of the subject line
    while idx > 0 {
        idx -= 1;
        let Some(above) = file.lines.get(idx) else {
            return false;
        };
        let trimmed = above.code.trim();
        if trimmed.is_empty() && !above.comment.is_empty() {
            if above.comment.contains("SWAR") || above.comment.contains("SIMD") {
                return true;
            }
        } else if trimmed.starts_with("#[") || trimmed.ends_with(']') || trimmed.is_empty() {
            continue; // attributes (possibly multi-line) and blank separators
        } else {
            break;
        }
    }
    false
}

/// `simd-fallback`: a function documented as a SWAR/SIMD scan is an
/// optimization, and optimizations need oracles. Each one must keep a
/// `<name>_scalar` twin in the same file — the byte-at-a-time reference it
/// is benchmarked over and falls back to — and that twin must be named from
/// test code, so the promised SWAR-vs-scalar equivalence is actually
/// executed, not just documented.
pub fn simd_fallback(file: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut defined: BTreeSet<String> = BTreeSet::new();
    let mut scans: Vec<(usize, String)> = Vec::new();
    for (lineno, line) in file.numbered() {
        if line.in_test {
            continue;
        }
        let code = line.code.trim_start();
        let Some(rest) = code
            .strip_prefix("pub fn ")
            .or_else(|| code.strip_prefix("fn "))
        else {
            continue;
        };
        let name = leading_ident(rest);
        if name.is_empty() {
            continue;
        }
        defined.insert(name.clone());
        // The scalar twins themselves mention SWAR in their docs (they state
        // what they are the oracle *for*) but need no twin of their own.
        if !name.ends_with("_scalar") && doc_mentions_simd(file, lineno) {
            scans.push((lineno, name));
        }
    }
    for (lineno, name) in scans {
        let twin = format!("{name}_scalar");
        if !defined.contains(&twin) {
            out.push(Finding {
                rule: "simd-fallback",
                path: file.path.clone(),
                line: lineno,
                message: format!(
                    "SWAR/SIMD scan `{name}` has no scalar twin `{twin}` in this \
                     file; keep the byte-at-a-time reference as the fallback and \
                     equivalence oracle"
                ),
            });
        } else if !file
            .lines
            .iter()
            .any(|l| l.in_test && l.code.contains(twin.as_str()))
        {
            out.push(Finding {
                rule: "simd-fallback",
                path: file.path.clone(),
                line: lineno,
                message: format!(
                    "scalar twin `{twin}` of SWAR/SIMD scan `{name}` is never \
                     referenced from test code; the documented equivalence is \
                     unverified — add (or restore) the head-to-head test"
                ),
            });
        }
    }
    out
}

/// Crate-root attributes every workspace crate must carry.
const REQUIRED_ATTRS: &[&str] = &["#![forbid(unsafe_code)]", "#![warn(missing_docs)]"];

/// Crate roots allowed to downgrade `forbid(unsafe_code)` to `deny`: the
/// machine-model crate hosts the workspace's single sanctioned `unsafe`
/// module (`mmap`, the read-only file mapping), which opts back in with a
/// scoped `#![allow(unsafe_code)]` and a written safety argument. `deny`
/// still stops every *other* module in the crate; `forbid` would stop the
/// opt-in too.
const DENY_UNSAFE_ROOTS: &[&str] = &["crates/bgp-model/src/lib.rs"];

/// `crate-attrs`: belt and braces with `[workspace.lints]` — the attributes
/// keep the guarantees visible in the source and survive being compiled
/// outside this workspace.
pub fn crate_attrs(root: &SourceFile) -> Vec<Finding> {
    let squashed: Vec<String> = root
        .lines
        .iter()
        .map(|l| l.code.chars().filter(|c| !c.is_whitespace()).collect())
        .collect();
    REQUIRED_ATTRS
        .iter()
        .filter(|attr| {
            let want: String = attr.chars().filter(|c| !c.is_whitespace()).collect();
            if squashed.iter().any(|l| l.contains(&want)) {
                return false;
            }
            // Allowlisted roots satisfy the unsafe_code requirement with
            // `deny` instead of `forbid`.
            let deny_ok = **attr == "#![forbid(unsafe_code)]"
                && DENY_UNSAFE_ROOTS.contains(&root.path.as_str())
                && squashed.iter().any(|l| l.contains("#![deny(unsafe_code)]"));
            !deny_ok
        })
        .map(|attr| Finding {
            rule: "crate-attrs",
            path: root.path.clone(),
            line: 0,
            message: format!("crate root is missing `{attr}`"),
        })
        .collect()
}

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

/// FNV-1a 64 over `bytes` — the same function `bgp_model::bytes::fnv1a_64`
/// implements; duplicated here so the lint harness stays dependency-free.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// Extract `(name, type)` pairs of the `pub` fields of `pub struct
/// <struct_name> { ... }` from a source file. Types are normalized
/// whitespace-free so formatting churn never changes the fingerprint.
pub fn record_fields(file: &SourceFile, struct_name: &str) -> Vec<(String, String)> {
    let header = format!("pub struct {struct_name}");
    let mut out = Vec::new();
    let mut inside = false;
    for (_, line) in file.numbered() {
        let code = line.code.trim();
        if !inside {
            inside = code.starts_with(&header) && code.ends_with('{');
            continue;
        }
        if code.starts_with('}') {
            break;
        }
        if let Some(rest) = code.strip_prefix("pub ") {
            if let Some((name, ty)) = rest.split_once(':') {
                let name = name.trim();
                let named_field =
                    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
                if named_field {
                    let ty: String = ty
                        .trim()
                        .trim_end_matches(',')
                        .chars()
                        .filter(|c| !c.is_whitespace())
                        .collect();
                    out.push((name.to_owned(), ty));
                }
            }
        }
    }
    out
}

/// Find `pub const <name>: <ty> = <int literal>;` in a source file and return
/// `(line, value)`. Accepts decimal and `0x` hex with `_` separators.
fn const_u64(file: &SourceFile, name: &str) -> Option<(usize, u64)> {
    for (lineno, line) in file.numbered() {
        let code = line.code.trim();
        let Some(rest) = code.strip_prefix("pub const ") else {
            continue;
        };
        let Some(rest) = rest.strip_prefix(name) else {
            continue;
        };
        if !rest.starts_with(':') {
            continue; // a longer const name sharing the prefix
        }
        let Some((_, value)) = rest.split_once('=') else {
            continue;
        };
        let cleaned: String = value
            .trim()
            .trim_end_matches(';')
            .chars()
            .filter(|c| *c != '_')
            .collect();
        let parsed = match cleaned
            .strip_prefix("0x")
            .or_else(|| cleaned.strip_prefix("0X"))
        {
            Some(hex) => u64::from_str_radix(hex, 16).ok(),
            None => cleaned.parse().ok(),
        };
        if let Some(v) = parsed {
            return Some((lineno, v));
        }
    }
    None
}

/// `snapshot-version`: the `.bgpsnap` on-disk codec serializes the record
/// struct field by field, so any change to the struct's field list is a
/// layout change that stale snapshots on operators' disks will not survive.
/// The snapshot module pins a `LAYOUT_FINGERPRINT` (FNV-1a 64 over the
/// `name:type` field list); this rule recomputes it from `record.rs` and
/// fails on drift — forcing whoever changes the record to update the
/// fingerprint and bump `FORMAT_VERSION` in the same commit.
pub fn snapshot_version(
    record: &SourceFile,
    struct_name: &str,
    snapshot: &SourceFile,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let fields = record_fields(record, struct_name);
    if fields.is_empty() {
        out.push(Finding {
            rule: "snapshot-version",
            path: record.path.clone(),
            line: 0,
            message: format!(
                "no fields recognized for `pub struct {struct_name}`; record.rs format changed?"
            ),
        });
        return out;
    }
    let joined = fields
        .iter()
        .map(|(name, ty)| format!("{name}:{ty}"))
        .collect::<Vec<_>>()
        .join(";");
    let computed = fnv1a_64(joined.as_bytes());
    match const_u64(snapshot, "LAYOUT_FINGERPRINT") {
        None => out.push(Finding {
            rule: "snapshot-version",
            path: snapshot.path.clone(),
            line: 0,
            message: format!(
                "no `pub const LAYOUT_FINGERPRINT: u64 = ...;` found; the snapshot \
                 codec for `{struct_name}` must pin its layout fingerprint"
            ),
        }),
        Some((lineno, declared)) if declared != computed => out.push(Finding {
            rule: "snapshot-version",
            path: snapshot.path.clone(),
            line: lineno,
            message: format!(
                "`{struct_name}` field list changed: computed fingerprint {computed:#018x} \
                 != declared {declared:#018x}; the on-disk layout moved, so update \
                 LAYOUT_FINGERPRINT and bump FORMAT_VERSION together"
            ),
        }),
        Some(_) => {}
    }
    if const_u64(snapshot, "FORMAT_VERSION").is_none() {
        out.push(Finding {
            rule: "snapshot-version",
            path: snapshot.path.clone(),
            line: 0,
            message: "no `pub const FORMAT_VERSION: u32 = ...;` found; snapshot readers \
                      cannot reject incompatible files without a pinned version"
                .to_owned(),
        });
    }
    out
}

/// `dep-versions`: parse `Cargo.lock` and flag any package name resolved at
/// two different major versions (for `0.x` crates the minor is the
/// compatibility axis, per Cargo semantics).
pub fn dup_major_versions(lock_text: &str) -> Vec<Finding> {
    let mut versions: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
    let mut name: Option<String> = None;
    for raw in lock_text.lines() {
        let line = raw.trim();
        if line == "[[package]]" {
            name = None;
        } else if let Some(v) = line.strip_prefix("name = ") {
            name = Some(v.trim_matches('"').to_owned());
        } else if let Some(v) = line.strip_prefix("version = ") {
            if let Some(n) = name.clone() {
                let ver = v.trim_matches('"');
                let mut parts = ver.split('.');
                let major = parts.next().unwrap_or("0");
                let minor = parts.next().unwrap_or("0");
                let key = if major == "0" {
                    format!("0.{minor}")
                } else {
                    major.to_owned()
                };
                versions.entry(n).or_default().insert(key);
            }
        }
    }
    versions
        .into_iter()
        .filter(|(_, majors)| majors.len() > 1)
        .map(|(n, majors)| Finding {
            rule: "dep-versions",
            path: "Cargo.lock".to_owned(),
            line: 0,
            message: format!(
                "dependency `{n}` resolves at {} incompatible versions ({}); \
                 converge on one to keep builds lean and types unifiable",
                majors.len(),
                majors.into_iter().collect::<Vec<_>>().join(", ")
            ),
        })
        .collect()
}

/// `allow-syntax`: a suppression without a justification is itself a finding;
/// the whole point of `xtask-allow` is the recorded reason.
pub fn allow_syntax(file: &SourceFile) -> Vec<Finding> {
    file.numbered()
        .filter(|(_, l)| l.malformed_allow)
        .map(|(lineno, _)| Finding {
            rule: "allow-syntax",
            path: file.path.clone(),
            line: lineno,
            message: "malformed xtask-allow: use `xtask-allow(<rule>): <justification>`".to_owned(),
        })
        .collect()
}

/// Iterator heads that expose a hash container's nondeterministic order.
const HASH_ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "into_keys",
    "values",
    "values_mut",
    "into_values",
    "drain",
];

/// Chain sinks whose value depends on iteration order.
const ORDER_SINKS: &[&str] = &[
    "fold",
    "reduce",
    "max_by",
    "max_by_key",
    "min_by",
    "min_by_key",
    "find",
    "find_map",
    "position",
    "last",
    "next",
    "for_each",
    "scan",
];

/// Chain sinks that are order-insensitive regardless of element type.
const COMMUTATIVE_SINKS: &[&str] = &["count", "any", "all"];

/// Integer types whose `sum()`/`product()` is order-insensitive.
const INT_TYPES: &[&str] = &[
    "i8", "i16", "i32", "i64", "i128", "isize", "u8", "u16", "u32", "u64", "u128", "usize",
];

/// Collect every `let` binding under `trees`, recursively through nested
/// blocks and closure bodies.
fn collect_lets(trees: &[Tree], out: &mut Vec<syntax::LetBinding>) {
    for stmt in syntax::statements(trees) {
        // A statement can carry several `let`s: block statements need no
        // semicolon, so `if … {…} let s = …;` parses as one statement.
        // Try every top-level `let`; non-binding positions (`if let`)
        // simply fail to parse.
        for (i, t) in stmt.iter().enumerate() {
            if matches!(t, Tree::Leaf(tok) if tok.text == "let") {
                let tail = stmt.get(i..).unwrap_or_default();
                if let Some(b) = syntax::LetBinding::from_statement(tail) {
                    out.push(b);
                }
            }
        }
    }
    for t in trees {
        if let Tree::Group(g) = t {
            collect_lets(&g.trees, out);
        }
    }
}

/// `parallel-determinism`: the kernels' bit-identity guarantee (every
/// `matches_baseline` flag in the committed benchmark baseline) holds only
/// if `HashMap`/`HashSet` iteration order and floating-point accumulation
/// order never reach results. Hash containers are fine as *keyed stores*;
/// iterating one is fine when the traversal is order-insensitive (counts),
/// re-keyed (collected back into a map), or explicitly re-ordered (sorted
/// after collection). Everything else is a finding. Thread creation outside
/// the sanctioned scope helpers (`fork_join`, `map_chunks_parallel`) is
/// denied in the same scope, since ad-hoc threads bypass the deterministic
/// chunk → thread assignment.
pub fn parallel_determinism(
    file: &SourceFile,
    model: &HashModel,
    spawn_sanctioned: bool,
) -> Vec<Finding> {
    let syntax_tree = Syntax::parse(file);
    let mut out = Vec::new();
    let not_test = |line: usize| {
        !line
            .checked_sub(1)
            .and_then(|i| file.lines.get(i))
            .is_some_and(|l| l.in_test)
    };
    if !spawn_sanctioned {
        let mut found = Vec::new();
        syntax::calls(&syntax_tree.trees, &mut found);
        for c in &found {
            let is_spawn = c.callee == "spawn" || (c.callee == "scope" && c.qualifier == "thread");
            if is_spawn && not_test(c.line) {
                out.push(Finding {
                    rule: "parallel-determinism",
                    path: file.path.clone(),
                    line: c.line,
                    message: "thread creation outside the sanctioned scope helpers \
                              (`fork_join` / `map_chunks_parallel`); route parallelism \
                              through them so chunking and result order stay deterministic"
                        .to_owned(),
                });
            }
        }
    }
    for f in syntax_tree.fns() {
        let Some(body) = f.body else { continue };
        // Names bound to hash containers in this body's scope: struct
        // fields (global by name), hash-typed parameters, and locals whose
        // annotation, constructor, or initializing call is hash-typed.
        let mut hash_names: BTreeSet<String> = model.hash_fields.clone();
        if let Some(params) = f.params() {
            for (name, ty) in syntax::split_params(params) {
                if hashmodel::is_hash_type(&ty) {
                    hash_names.insert(name);
                }
            }
        }
        let mut lets: Vec<syntax::LetBinding> = Vec::new();
        collect_lets(&body.trees, &mut lets);
        for b in &lets {
            let hash_init = hashmodel::is_hash_type(&b.annotation)
                || b.init.contains("HashMap")
                || b.init.contains("HashSet")
                || b.init
                    .split_whitespace()
                    .any(|t| model.hash_fns.contains(t));
            if hash_init {
                hash_names.insert(b.name.clone());
            }
        }
        let mut chains: Vec<syntax::Chain<'_>> = Vec::new();
        syntax::chains(&body.trees, &mut chains);
        for chain in &chains {
            if !hash_names.contains(&chain.receiver) || !not_test(chain.line) {
                continue;
            }
            let Some(first) = chain.links.first() else {
                continue;
            };
            if !HASH_ITER_METHODS.contains(&first.method.as_str()) {
                continue;
            }
            // The let binding (if any) this chain initializes, for
            // annotation and sorted-later checks. The receiver opens the
            // initializer, so it sits on the initializer's first line;
            // matching by line keeps `let a = m.iter()…` from resolving to
            // some earlier binding that merely mentions `m`.
            let binding = lets.iter().find(|b| {
                b.init_line == chain.line && b.init.split_whitespace().any(|t| t == chain.receiver)
            });
            // A chain with no binding is usually a tail expression or
            // return value: the enclosing fn's return type annotates it.
            let fallback_annot = if binding.is_none() {
                f.return_type()
            } else {
                String::new()
            };
            let sorted_later = |name: &str| {
                chains.iter().any(|c| {
                    c.receiver == name && c.links.iter().any(|l| l.method.starts_with("sort"))
                })
            };
            let mut message: Option<(usize, String)> = None;
            for link in chain.links.get(1..).unwrap_or_default() {
                let m = link.method.as_str();
                if m == "collect" {
                    let fish = &link.turbofish;
                    let annot = binding
                        .map(|b| b.annotation.as_str())
                        .unwrap_or(&fallback_annot);
                    let keyed = |t: &str| {
                        hashmodel::is_hash_type(t)
                            || t.contains("BTreeMap")
                            || t.contains("BTreeSet")
                    };
                    if keyed(fish) || (fish.is_empty() && keyed(annot)) {
                        break; // re-keyed or ordered container: order restored
                    }
                    if binding.is_some_and(|b| sorted_later(&b.name)) {
                        break; // collected then deterministically sorted
                    }
                    message = Some((
                        link.line,
                        format!(
                            "hash-ordered iteration of `{}` is collected into an \
                             order-sensitive container and never sorted; sort the result \
                             or collect into a keyed/ordered container",
                            chain.receiver
                        ),
                    ));
                    break;
                }
                if m == "sum" || m == "product" {
                    let fish = &link.turbofish;
                    let annot = binding
                        .map(|b| b.annotation.as_str())
                        .unwrap_or(&fallback_annot);
                    let ty = if fish.is_empty() { annot } else { fish };
                    if INT_TYPES.contains(&ty) {
                        break; // integer accumulation commutes exactly
                    }
                    let what = if ty.starts_with('f') {
                        "floating-point accumulation order varies with hash order"
                    } else {
                        "element type not visible; floats would accumulate in hash order"
                    };
                    message = Some((
                        link.line,
                        format!(
                            "`{m}()` over hash-ordered iteration of `{}`: {what}; \
                             iterate a sorted view or accumulate integers",
                            chain.receiver
                        ),
                    ));
                    break;
                }
                if ORDER_SINKS.contains(&m) {
                    message = Some((
                        link.line,
                        format!(
                            "`{m}` consumes hash-ordered iteration of `{}`; its result \
                             depends on HashMap/HashSet iteration order — iterate a \
                             sorted view instead",
                            chain.receiver
                        ),
                    ));
                    break;
                }
                if COMMUTATIVE_SINKS.contains(&m) {
                    break; // order-insensitive sink
                }
                // Anything else (map/filter/copied/...) transforms the
                // stream; keep scanning for the sink.
            }
            if let Some((line, message)) = message {
                out.push(Finding {
                    rule: "parallel-determinism",
                    path: file.path.clone(),
                    line,
                    message,
                });
            }
        }
    }
    out
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
/// share state behind mutexes, and its ingest queue sits between the socket
/// threads and the analyzer. Two structural rules keep that sound: a Mutex guard must
/// never be held across a call that can block (socket I/O, channel
/// `recv`/`send`, thread `join`) — that serializes unrelated readers and
/// can deadlock shutdown — and every channel/queue must be bounded at its
/// construction site so a slow consumer applies back-pressure instead of
/// growing the heap without bound.
pub fn serve_concurrency(file: &SourceFile) -> Vec<Finding> {
    let syntax_tree = Syntax::parse(file);
    let mut out = Vec::new();
    let not_test = |line: usize| {
        !line
            .checked_sub(1)
            .and_then(|i| file.lines.get(i))
            .is_some_and(|l| l.in_test)
    };
    let mut found = Vec::new();
    syntax::calls(&syntax_tree.trees, &mut found);
    for c in &found {
        if !not_test(c.line) {
            continue;
        }
        if c.callee == "channel" {
            out.push(Finding {
                rule: "serve-concurrency",
                path: file.path.clone(),
                line: c.line,
                message: "unbounded `channel()`; use `sync_channel` with an explicit \
                          capacity so producers back-pressure instead of buffering \
                          without bound"
                    .to_owned(),
            });
        }
        if c.callee == "new" && c.qualifier == "VecDeque" {
            out.push(Finding {
                rule: "serve-concurrency",
                path: file.path.clone(),
                line: c.line,
                message: "unbounded `VecDeque::new()`; use `with_capacity` plus explicit \
                          eviction so queues stay bounded"
                    .to_owned(),
            });
        }
    }
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

    // -- port-boundary ----------------------------------------------------

    #[test]
    fn port_boundary_fires_once_per_line_on_raw_parser_calls() {
        let f = file(
            "let (r, e) = raslog::ingest::parse_log_bytes(data, threads);\n\
             let j = joblog::parse_line(text)?;\n\
             let ok = bgp_ports::bgp::decode_ras(data, threads);\n",
        );
        let found = port_boundary(&f);
        assert_eq!(found.len(), 2, "{found:?}");
        assert_eq!(found[0].line, 1, "overlapping patterns collapse to one");
        assert_eq!(found[1].line, 2);
        assert!(found[0].message.contains("bgp_ports"));
    }

    #[test]
    fn port_boundary_is_quiet_on_test_code_and_formatting() {
        let quiet =
            file("#[cfg(test)]\nmod tests {\n    fn t() { raslog::parse_line(\"x\"); }\n}\n");
        assert!(port_boundary(&quiet).is_empty());
        // The format side of the codec is not a parser entry point.
        let fmt = file("let s = raslog::format_record(&rec);\n");
        assert!(port_boundary(&fmt).is_empty());
    }

    // -- determinism ------------------------------------------------------

    #[test]
    fn determinism_fires_on_ambient_clock_and_rng() {
        let f = file("let t = std::time::SystemTime::now();\nlet r = rand::rng();\n");
        let found = determinism(&f);
        assert_eq!(found.len(), 2);
        assert_eq!(found[0].line, 1);
        assert!(found[0].message.contains("wall-clock"));
        assert_eq!(found[1].line, 2);
    }

    #[test]
    fn determinism_is_quiet_on_seeded_code_and_test_code() {
        let clean = file("let rng = SmallRng::seed_from_u64(seed);\n");
        assert!(determinism(&clean).is_empty());
        let test_only = file("#[cfg(test)]\nmod tests {\n let t = Instant::now();\n}\n");
        assert!(determinism(&test_only).is_empty());
    }

    // -- severity-wildcard ------------------------------------------------

    #[test]
    fn severity_wildcard_fires_on_wildcard_arm() {
        let f = file(
            "match sev {\n\
                 Severity::Fatal => 1,\n\
                 _ => 0,\n\
             }\n",
        );
        let found = severity_wildcard(&f);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 1, "finding points at the match itself");
    }

    #[test]
    fn severity_wildcard_is_quiet_when_exhaustive_or_unrelated() {
        let exhaustive = file(
            "match sev {\n\
                 Severity::Fatal => 1,\n\
                 Severity::Error | Severity::Warn => 2,\n\
                 Severity::Info | Severity::Debug | Severity::Trace => 3,\n\
             }\n",
        );
        assert!(severity_wildcard(&exhaustive).is_empty());
        let unrelated = file("match n {\n 0 => a,\n _ => b,\n}\n");
        assert!(severity_wildcard(&unrelated).is_empty());
    }

    // -- errcode-catalog --------------------------------------------------

    fn catalog_fixture() -> SourceFile {
        SourceFile::parse(
            "crates/raslog/src/catalog.rs",
            "(\"_bgp_err_ddr_single\", C::Kernel, S::Warn),\n\
             (\"_bgp_err_torus_retrans\", C::Kernel, S::Error),\n",
        )
    }

    #[test]
    fn errcode_catalog_fires_on_unknown_code() {
        let cat = catalog_fixture();
        let classify = file("map(\"_bgp_err_ddr_single\");\nmap(\"_bgp_err_no_such\");\n");
        let found = errcode_catalog(&cat, &[&classify]);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 2);
        assert!(found[0].message.contains("_bgp_err_no_such"));
    }

    #[test]
    fn errcode_catalog_is_quiet_on_known_codes_and_non_codes() {
        let cat = catalog_fixture();
        let classify = file("map(\"_bgp_err_torus_retrans\");\nlabel(\"PALOMINO_N\");\n");
        assert!(errcode_catalog(&cat, &[&classify]).is_empty());
    }

    #[test]
    fn errcode_catalog_reports_empty_catalog_as_format_drift() {
        let cat = file("// nothing shaped like an entry\n");
        let found = errcode_catalog(&cat, &[]);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("format changed"));
    }

    #[test]
    fn errcode_shapes() {
        assert!(looks_like_errcode("_bgp_err_x"));
        assert!(!looks_like_errcode("_bgp_"));
        assert!(!looks_like_errcode("_bgp_ERR"));
        assert!(!looks_like_errcode("BULK_POWER_FATAL"));
        assert!(!looks_like_errcode("plain_ident"));
    }

    // -- crate-attrs ------------------------------------------------------

    #[test]
    fn crate_attrs_fires_per_missing_attribute() {
        let f = file("#![forbid(unsafe_code)]\npub mod x;\n");
        let found = crate_attrs(&f);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("missing_docs"));
    }

    #[test]
    fn crate_attrs_is_quiet_when_both_present() {
        let f = file("#![forbid(unsafe_code)]\n#![warn(missing_docs)]\n");
        assert!(crate_attrs(&f).is_empty());
    }

    #[test]
    fn crate_attrs_accepts_deny_unsafe_on_allowlisted_roots_only() {
        let src = "#![deny(unsafe_code)]\n#![warn(missing_docs)]\n";
        let listed = SourceFile::parse("crates/bgp-model/src/lib.rs", src);
        assert!(
            crate_attrs(&listed).is_empty(),
            "bgp-model's sanctioned mmap module needs the deny downgrade"
        );
        let unlisted = SourceFile::parse("crates/core/src/lib.rs", src);
        let found = crate_attrs(&unlisted);
        assert_eq!(found.len(), 1, "everyone else still needs forbid");
        assert!(found[0].message.contains("forbid(unsafe_code)"));
    }

    // -- simd-fallback ----------------------------------------------------

    #[test]
    fn simd_fallback_fires_when_scalar_twin_is_missing() {
        let f = file(
            "/// SWAR scan over the haystack.\n\
             pub fn find_x(h: &[u8]) -> Option<usize> { None }\n",
        );
        let found = simd_fallback(&f);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("`find_x_scalar`"));
        assert_eq!(found[0].line, 2);
    }

    #[test]
    fn simd_fallback_fires_when_twin_is_untested() {
        let f = file(
            "/// SIMD delimiter scan.\n\
             pub fn scan(h: &[u8]) -> usize { 0 }\n\
             /// Scalar reference.\n\
             pub fn scan_scalar(h: &[u8]) -> usize { 0 }\n",
        );
        let found = simd_fallback(&f);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("never referenced from test code"));
    }

    #[test]
    fn simd_fallback_is_quiet_when_twin_is_tested() {
        let f = file(
            "/// SWAR scan, eight bytes per step.\n\
             #[inline]\n\
             pub fn scan(h: &[u8]) -> usize { 0 }\n\
             /// Scalar reference; the SWAR scan must agree with it.\n\
             pub fn scan_scalar(h: &[u8]) -> usize { 0 }\n\
             #[cfg(test)]\n\
             mod tests {\n\
                 #[test]\n\
                 fn agree() { assert_eq!(scan(b\"x\"), scan_scalar(b\"x\")); }\n\
             }\n",
        );
        assert!(simd_fallback(&f).is_empty());
    }

    #[test]
    fn simd_fallback_ignores_undocumented_and_plain_functions() {
        let f = file(
            "/// Splits lines. Nothing vectorized about it.\n\
             pub fn line_split(h: &[u8]) -> usize { 0 }\n\
             fn helper() {}\n",
        );
        assert!(simd_fallback(&f).is_empty());
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

    // -- snapshot-version -------------------------------------------------

    fn record_fixture() -> SourceFile {
        SourceFile::parse(
            "crates/raslog/src/record.rs",
            "/// One record.\n\
             pub struct RasRecord {\n\
                 /// Sequence number.\n\
                 pub recid: u64,\n\
                 /// Where.\n\
                 pub location: Location,\n\
             }\n",
        )
    }

    fn snapshot_fixture(fingerprint: u64) -> SourceFile {
        SourceFile::parse(
            "crates/raslog/src/snapshot.rs",
            &format!(
                "pub const FORMAT_VERSION: u32 = 1;\n\
                 pub const LAYOUT_FINGERPRINT: u64 = {fingerprint:#018x};\n"
            ),
        )
    }

    #[test]
    fn snapshot_version_is_quiet_when_fingerprint_matches() {
        let expected = fnv1a_64(b"recid:u64;location:Location");
        let found = snapshot_version(&record_fixture(), "RasRecord", &snapshot_fixture(expected));
        assert!(found.is_empty(), "unexpected findings: {found:?}");
    }

    #[test]
    fn snapshot_version_fires_on_layout_drift() {
        let stale = fnv1a_64(b"recid:u64"); // as if `location` was added later
        let found = snapshot_version(&record_fixture(), "RasRecord", &snapshot_fixture(stale));
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 2, "finding points at LAYOUT_FINGERPRINT");
        assert!(found[0].message.contains("bump FORMAT_VERSION"));
    }

    #[test]
    fn snapshot_version_fires_on_missing_consts() {
        let expected = fnv1a_64(b"recid:u64;location:Location");
        let no_consts = file("pub fn unrelated() {}\n");
        let found = snapshot_version(&record_fixture(), "RasRecord", &no_consts);
        assert_eq!(found.len(), 2);
        assert!(found[0].message.contains("LAYOUT_FINGERPRINT"));
        assert!(found[1].message.contains("FORMAT_VERSION"));
        let _ = expected;
    }

    #[test]
    fn snapshot_version_reports_unrecognizable_struct() {
        let empty = file("// no struct here\n");
        let found = snapshot_version(&empty, "RasRecord", &snapshot_fixture(0));
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("format changed"));
    }

    #[test]
    fn record_fields_normalize_types_and_skip_private() {
        let f = file(
            "pub struct R {\n\
                 pub a: Vec< u8 >,\n\
                 b: usize,\n\
                 pub c: u64,\n\
             }\n\
             pub struct Other {\n\
                 pub d: u8,\n\
             }\n",
        );
        let fields = record_fields(&f, "R");
        assert_eq!(
            fields,
            vec![
                ("a".to_owned(), "Vec<u8>".to_owned()),
                ("c".to_owned(), "u64".to_owned())
            ]
        );
    }

    #[test]
    fn pinned_fingerprints_match_the_live_structs() {
        // The constants shipped in raslog/joblog `snapshot.rs` were computed
        // from these exact field lists; if this test fails the helper
        // changed, not the structs.
        assert_eq!(
            fnv1a_64(
                b"recid:u64;event_time:Timestamp;location:Location;\
                  errcode:ErrCode;severity:Severity"
            ),
            0x37f1_fcf3_b1a3_e2e7u64
        );
    }

    // -- dep-versions -----------------------------------------------------

    #[test]
    fn dep_versions_fires_on_duplicate_major() {
        let lock = "[[package]]\nname = \"syn\"\nversion = \"1.0.3\"\n\n\
                    [[package]]\nname = \"syn\"\nversion = \"2.0.1\"\n";
        let found = dup_major_versions(lock);
        assert_eq!(found.len(), 1);
        assert!(found[0].message.contains("`syn`"));
    }

    #[test]
    fn dep_versions_treats_zero_x_minor_as_the_compat_axis() {
        let two_minors = "[[package]]\nname = \"rand\"\nversion = \"0.8.5\"\n\n\
                          [[package]]\nname = \"rand\"\nversion = \"0.9.0\"\n";
        assert_eq!(dup_major_versions(two_minors).len(), 1);
        let patch_only = "[[package]]\nname = \"rand\"\nversion = \"0.8.4\"\n\n\
                          [[package]]\nname = \"rand\"\nversion = \"0.8.5\"\n";
        assert!(dup_major_versions(patch_only).is_empty());
    }

    // -- allow-syntax -----------------------------------------------------

    #[test]
    fn allow_syntax_fires_on_missing_justification() {
        let f = file("x(); // xtask-allow(determinism)\n");
        let found = allow_syntax(&f);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn allow_syntax_is_quiet_on_justified_use() {
        let f = file("x(); // xtask-allow(determinism): the clock only labels a log line\n");
        assert!(allow_syntax(&f).is_empty());
    }

    // -- parallel-determinism ---------------------------------------------

    #[test]
    fn parallel_determinism_fires_on_order_sensitive_hash_iteration() {
        let f = file(
            "fn kernel(m: &HashMap<u64, u64>) -> u64 {\n\
                 let first = m.keys().copied().next();\n\
                 let v: Vec<u64> = m.values().copied().collect();\n\
                 let s: f64 = m.values().map(|v| *v as f64).sum();\n\
                 0\n\
             }\n",
        );
        let found = parallel_determinism(&f, &HashModel::default(), true);
        assert_eq!(found.len(), 3, "findings: {found:?}");
        assert!(found.iter().any(|x| x.message.contains("`next`")));
        assert!(found.iter().any(|x| x.message.contains("never sorted")));
        assert!(found.iter().any(|x| x.message.contains("floating-point")));
    }

    #[test]
    fn parallel_determinism_is_quiet_on_restored_order() {
        let f = file(
            "fn kernel(m: &HashMap<u64, u64>, s: &HashSet<u64>) -> u64 {\n\
                 let rekeyed: HashMap<u64, u64> = m.iter().map(|(k, v)| (*k, *v)).collect();\n\
                 let fish = m.iter().map(|(k, v)| (*k, *v)).collect::<BTreeMap<u64, u64>>();\n\
                 let mut sorted: Vec<u64> = s.iter().copied().collect();\n\
                 sorted.sort_unstable();\n\
                 let n = s.iter().filter(|x| **x > 0).count();\n\
                 let total: u64 = m.values().sum();\n\
                 n as u64 + total\n\
             }\n",
        );
        let found = parallel_determinism(&f, &HashModel::default(), true);
        assert!(found.is_empty(), "unexpected findings: {found:?}");
    }

    #[test]
    fn parallel_determinism_tracks_hash_bindings_and_fields() {
        // Locals bound from hash constructors and struct fields declared
        // hash-typed elsewhere both count as hash receivers.
        let decl = file("struct Index {\n    by_job: HashMap<u64, u64>,\n}\n");
        let model = hashmodel::hash_model(&[&decl]);
        let f = file(
            "fn go(ix: &Index) -> Option<u64> {\n\
                 let local = HashMap::new();\n\
                 let a = local.keys().last();\n\
                 by_job.values().copied().find(|v| *v > 0)\n\
             }\n",
        );
        let found = parallel_determinism(&f, &model, true);
        assert_eq!(found.len(), 2, "findings: {found:?}");
    }

    #[test]
    fn parallel_determinism_fires_on_unsanctioned_spawn() {
        let f = file("fn go() {\n    std::thread::spawn(move || work());\n}\n");
        let found = parallel_determinism(&f, &HashModel::default(), false);
        assert_eq!(found.len(), 1, "findings: {found:?}");
        assert!(found[0].message.contains("sanctioned"));
        assert!(parallel_determinism(&f, &HashModel::default(), true).is_empty());
    }

    #[test]
    fn parallel_determinism_suppression_is_line_addressable() {
        let f = file(
            "fn kernel(m: &HashMap<u64, u64>) -> Option<u64> {\n\
                 // xtask-allow(parallel-determinism): single-chunk path, order cannot vary\n\
                 m.values().copied().next()\n\
             }\n",
        );
        let found = parallel_determinism(&f, &HashModel::default(), true);
        assert_eq!(found.len(), 1);
        assert!(f.is_allowed("parallel-determinism", found[0].line));
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
    fn seeded_hash_order_reduction_is_detected() {
        // Drop the deterministic re-ordering of the app-error victims: the
        // collected Vec inherits HashMap iteration order.
        let rel = "crates/core/src/analysis/vulnerability.rs";
        let f = mutated(rel, "app_jobs.sort_unstable_by_key(|j| j.job_id);", "");
        let model = hashmodel::hash_model(&[&f]);
        let found = parallel_determinism(&f, &model, false);
        assert!(
            found
                .iter()
                .any(|x| x.message.contains("never sorted") && x.message.contains("causes")),
            "findings: {found:?}"
        );
        // The unmutated kernel is clean under the same model.
        let clean = real(rel);
        let model = hashmodel::hash_model(&[&clean]);
        assert!(parallel_determinism(&clean, &model, false).is_empty());
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

    #[test]
    fn seeded_unbounded_channel_is_detected() {
        let rel = "crates/serve/src/worker.rs";
        let f = mutated(
            rel,
            "sync_channel::<RasRecord>(queue_capacity.max(1))",
            "channel()",
        );
        let found = serve_concurrency(&f);
        assert_eq!(found.len(), 1, "findings: {found:?}");
        assert!(found[0].message.contains("sync_channel"));
    }

    #[test]
    fn serve_concurrency_fires_on_unbounded_queues() {
        let f = file(
            "fn build() {\n\
                 let (tx, rx) = channel();\n\
                 let q: VecDeque<u64> = VecDeque::new();\n\
             }\n",
        );
        let found = serve_concurrency(&f);
        assert_eq!(found.len(), 2, "findings: {found:?}");
        assert!(found[0].message.contains("sync_channel"));
        assert!(found[1].message.contains("with_capacity"));
        let bounded = file(
            "fn build() {\n\
                 let (tx, rx) = sync_channel(64);\n\
                 let q = VecDeque::with_capacity(64);\n\
             }\n",
        );
        assert!(serve_concurrency(&bounded).is_empty());
    }
}
