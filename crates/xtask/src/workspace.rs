//! Workspace discovery and the lint runner.
//!
//! Walks the workspace the same way Cargo sees it (members listed in the
//! root `Cargo.toml`), loads library sources, scopes each rule to the files
//! it governs, and returns the findings in path order.

use crate::rules::{self, Finding};
use crate::source::SourceFile;
use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Find the workspace root by walking up from `start` until a `Cargo.toml`
/// containing a `[workspace]` table appears.
pub fn find_root(start: &Path) -> io::Result<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = fs::read_to_string(&manifest)?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "no workspace root (Cargo.toml with [workspace]) above the current directory",
            ));
        }
    }
}

/// Parse the `members = [...]` list out of the root manifest.
pub fn members(root: &Path) -> io::Result<Vec<PathBuf>> {
    let text = fs::read_to_string(root.join("Cargo.toml"))?;
    let mut out = vec![PathBuf::from(".")]; // the root facade package
    let mut in_members = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with("members = [") {
            in_members = true;
        }
        if in_members {
            for piece in line.split('"').skip(1).step_by(2) {
                out.push(PathBuf::from(piece));
            }
            if line.ends_with(']') {
                break;
            }
        }
    }
    Ok(out)
}

/// Recursively collect `.rs` files under `dir`, sorted for stable output.
fn rust_files(dir: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    if !dir.is_dir() {
        return Ok(out);
    }
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let mut entries: Vec<_> = fs::read_dir(&d)?.collect::<Result<_, _>>()?;
        entries.sort_by_key(|e| e.path());
        for entry in entries {
            let p = entry.path();
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// All library sources of the workspace: `(member dir, src file)` pairs.
/// Library code means everything under each member's `src/` — unit tests
/// inside those files are excluded line-wise by the `cfg(test)` mask, while
/// `tests/`, `benches/`, and `examples/` directories are not library code
/// and are skipped entirely.
pub fn library_sources(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    for member in members(root)? {
        for file in rust_files(&root.join(&member).join("src"))? {
            let text = fs::read_to_string(&file)?;
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile::parse(&rel, &text));
        }
    }
    Ok(out)
}

/// True for sources the `stage-contract` rule governs: the pipeline stage
/// modules of the core crate.
fn in_stage_scope(path: &str) -> bool {
    (path.starts_with("crates/core/src/filter/")
        || path == "crates/core/src/matching.rs"
        || path == "crates/core/src/pipeline.rs"
        || path == "crates/core/src/stage.rs"
        || path == "crates/core/src/context.rs"
        || path.starts_with("crates/core/src/classify/"))
        && !path.ends_with("proptests.rs")
}

/// Run every rule (or the subset in `only`) over the workspace at `root`.
pub fn run_lint(root: &Path, only: Option<&BTreeSet<String>>) -> io::Result<Vec<Finding>> {
    let sources = library_sources(root)?;
    let enabled = |rule: &str| only.is_none_or(|set| set.contains(rule));

    let mut findings: Vec<Finding> = Vec::new();

    for file in &sources {
        if enabled("stage-contract") && in_stage_scope(&file.path) {
            findings.extend(rules::stage_contract(file));
        }
        if enabled("serve-concurrency") && file.path.starts_with("crates/serve/src") {
            findings.extend(rules::serve_concurrency(file));
        }
    }

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(findings)
}
