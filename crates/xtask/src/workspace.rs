//! Workspace discovery and the lint runner.
//!
//! Walks the workspace the same way Cargo sees it (members listed in the
//! root `Cargo.toml`), loads library sources, scopes each rule to the files
//! it governs, applies `xtask-allow` suppressions, and returns the surviving
//! findings.

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

/// Crate-root files: `src/lib.rs`, `src/main.rs` for bin-only members, and
/// every `src/bin/*.rs` binary — each is a separate crate root and needs
/// its own `#![forbid(unsafe_code)]` / `#![warn(missing_docs)]`.
fn is_crate_root(path: &str) -> bool {
    path.ends_with("src/lib.rs")
        || path.ends_with("src/main.rs")
        || path
            .rsplit_once('/')
            .is_some_and(|(dir, file)| dir.ends_with("src/bin") && file.ends_with(".rs"))
}

/// The pure modules of the serve daemon: byte-in/frame-out protocol code,
/// counters, data structures, config parsing, the chunk-consuming source
/// context, and cassette replay. These must stay clock- and entropy-free so
/// their behavior is a function of their inputs; the layers that
/// legitimately read clocks (`http`, `server`, `timing`, and `recorder`,
/// which deliberately owns the one `Instant` behind `--record`) are the
/// remaining exemptions.
const SERVE_DETERMINISTIC_MODULES: &[&str] = &[
    "crates/serve/src/protocol.rs",
    "crates/serve/src/metrics.rs",
    "crates/serve/src/ring.rs",
    "crates/serve/src/shard.rs",
    "crates/serve/src/config.rs",
    "crates/serve/src/error.rs",
    "crates/serve/src/lib.rs",
    "crates/serve/src/source.rs",
    "crates/serve/src/replay.rs",
    // The continuous full-analysis worker folds ingest batches through the
    // delta session; its snapshots must be a pure function of the batches.
    "crates/serve/src/full.rs",
];

/// True for sources the `determinism` rule governs. Besides the analysis
/// pipeline and statistics substrate, the ingestion and snapshot layers must
/// be deterministic: a parallel parse must yield the same records in the
/// same order as a serial one, and snapshot bytes must be reproducible. The
/// serve daemon's pure modules join the scope for the same reason — its
/// sharded counters must reconcile exactly with the batch pipeline.
fn in_deterministic_scope(path: &str) -> bool {
    path.starts_with("crates/core/src")
        || path.starts_with("crates/stats/src")
        // The ports layer decodes bytes into records and replays cassettes;
        // both must be pure functions of their inputs (the recorded
        // `delta_nanos` come from `serve`'s recorder, never from here).
        || path.starts_with("crates/ports/src")
        || path == "crates/bgp-model/src/bytes.rs"
        || path == "crates/bgp-model/src/snapshot.rs"
        // The mmap wrapper feeds the same parse paths as buffered reads;
        // mapped bytes must decode identically however they were loaded.
        || path == "crates/bgp-model/src/mmap.rs"
        // The frozen serial reference kernels: `baseline_equivalence`
        // compares their output bit-for-bit against the parallel kernels.
        || path == "crates/bench/src/baseline.rs"
        || path.ends_with("raslog/src/ingest.rs")
        || path.ends_with("raslog/src/snapshot.rs")
        || path.ends_with("joblog/src/ingest.rs")
        || path.ends_with("joblog/src/snapshot.rs")
        || SERVE_DETERMINISTIC_MODULES.contains(&path)
}

/// The `(record source, struct, snapshot codec)` triples the
/// `snapshot-version` rule ties together.
const SNAPSHOT_PAIRS: &[(&str, &str, &str)] = &[
    (
        "crates/raslog/src/record.rs",
        "RasRecord",
        "crates/raslog/src/snapshot.rs",
    ),
    (
        "crates/joblog/src/record.rs",
        "JobRecord",
        "crates/joblog/src/snapshot.rs",
    ),
    // The cassette codec defines both the frame struct and its on-disk
    // encoding in one module, so the pair points at the same file.
    (
        "crates/ports/src/cassette.rs",
        "CassetteFrame",
        "crates/ports/src/cassette.rs",
    ),
];

/// Sources the `parallel-determinism` rule governs: the files defining the
/// parallel kernels and their reduction paths, whose outputs the committed
/// benchmark baseline compares bit-for-bit. The `bool` is whether thread
/// creation is sanctioned there (the file *defines* a scope helper).
const KERNEL_SCOPE: &[(&str, bool)] = &[
    ("crates/core/src/stage.rs", true), // defines fork_join
    ("crates/core/src/matching.rs", false),
    ("crates/core/src/classify/root_cause.rs", false),
    ("crates/core/src/analysis/vulnerability.rs", false),
    ("crates/core/src/analysis/fda.rs", false),
    ("crates/bgp-model/src/bytes.rs", true), // defines map_chunks_parallel
];

/// Sources contributing hash-typed struct fields to the
/// `parallel-determinism` model: the kernels' own crates.
fn in_hash_model_scope(path: &str) -> bool {
    path.starts_with("crates/core/src") || path.starts_with("crates/bgp-model/src")
}

/// True for sources the `port-boundary` rule governs: everything except the
/// parser crates themselves (which define the entry points) and the one
/// sanctioned adapter module that wraps them.
fn in_port_boundary_scope(path: &str) -> bool {
    !(path.starts_with("crates/raslog/src")
        || path.starts_with("crates/joblog/src")
        || path == "crates/ports/src/bgp.rs")
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
/// Returns `(surviving findings, suppressed count)`.
pub fn run_lint(root: &Path, only: Option<&BTreeSet<String>>) -> io::Result<(Vec<Finding>, usize)> {
    let sources = library_sources(root)?;
    let enabled = |rule: &str| only.is_none_or(|set| set.contains(rule));

    let mut findings: Vec<Finding> = Vec::new();

    for file in &sources {
        if enabled("determinism") && in_deterministic_scope(&file.path) {
            findings.extend(rules::determinism(file));
        }
        if enabled("severity-wildcard") {
            findings.extend(rules::severity_wildcard(file));
        }
        if enabled("crate-attrs") && is_crate_root(&file.path) {
            findings.extend(rules::crate_attrs(file));
        }
        if enabled("stage-contract") && in_stage_scope(&file.path) {
            findings.extend(rules::stage_contract(file));
        }
        if enabled("allow-syntax") {
            findings.extend(rules::allow_syntax(file));
        }
        if enabled("serve-concurrency") && file.path.starts_with("crates/serve/src") {
            findings.extend(rules::serve_concurrency(file));
        }
        if enabled("port-boundary") && in_port_boundary_scope(&file.path) {
            findings.extend(rules::port_boundary(file));
        }
        // Scoped by content, not path: it fires wherever a doc block
        // advertises a SWAR/SIMD implementation. The lint harness is exempt —
        // its docs *mention* SWAR (rules about scans) without implementing one.
        if enabled("simd-fallback") && !file.path.starts_with("crates/xtask/src") {
            findings.extend(rules::simd_fallback(file));
        }
    }

    if enabled("parallel-determinism") {
        let model_sources: Vec<&SourceFile> = sources
            .iter()
            .filter(|f| in_hash_model_scope(&f.path))
            .collect();
        let model = crate::hashmodel::hash_model(&model_sources);
        for &(path, spawn_sanctioned) in KERNEL_SCOPE {
            if let Some(file) = sources.iter().find(|f| f.path == path) {
                findings.extend(rules::parallel_determinism(file, &model, spawn_sanctioned));
            }
        }
    }

    if enabled("errcode-catalog") {
        let catalog = sources
            .iter()
            .find(|f| f.path == "crates/raslog/src/catalog.rs");
        // The classifier keys decisions on code names, and the simulator
        // emits records by name — both must agree with the catalog.
        let classify: Vec<&SourceFile> = sources
            .iter()
            .filter(|f| {
                f.path.starts_with("crates/core/src/classify/")
                    || f.path.starts_with("crates/bgp-sim/src/")
            })
            .collect();
        match catalog {
            Some(cat) => findings.extend(rules::errcode_catalog(cat, &classify)),
            None => findings.push(Finding {
                rule: "errcode-catalog",
                path: "crates/raslog/src/catalog.rs".to_owned(),
                line: 0,
                message: "catalog source not found".to_owned(),
            }),
        }
    }

    if enabled("snapshot-version") {
        for &(record_path, struct_name, snap_path) in SNAPSHOT_PAIRS {
            let record = sources.iter().find(|f| f.path == record_path);
            let snap = sources.iter().find(|f| f.path == snap_path);
            match (record, snap) {
                (Some(r), Some(s)) => findings.extend(rules::snapshot_version(r, struct_name, s)),
                _ => findings.push(Finding {
                    rule: "snapshot-version",
                    path: record_path.to_owned(),
                    line: 0,
                    message: format!(
                        "expected sources `{record_path}` and `{snap_path}` not both found"
                    ),
                }),
            }
        }
    }

    if enabled("dep-versions") {
        let lock = root.join("Cargo.lock");
        if lock.is_file() {
            findings.extend(rules::dup_major_versions(&fs::read_to_string(lock)?));
        }
    }

    // Apply suppressions (never for allow-syntax: a malformed suppression
    // cannot suppress itself).
    let by_path: std::collections::BTreeMap<&str, &SourceFile> =
        sources.iter().map(|f| (f.path.as_str(), f)).collect();
    let before = findings.len();
    findings.retain(|f| {
        f.rule == "allow-syntax"
            || !by_path
                .get(f.path.as_str())
                .is_some_and(|src| src.is_allowed(f.rule, f.line))
    });
    let suppressed = before - findings.len();

    findings.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok((findings, suppressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn determinism_scope_covers_serve_pure_modules_only() {
        // Pure modules are in scope, including the chunk-consuming source
        // context and the cassette replayer...
        for path in SERVE_DETERMINISTIC_MODULES {
            assert!(in_deterministic_scope(path), "{path} should be in scope");
        }
        // ...while the clock-reading layers are deliberately outside it —
        // `recorder` owns the one `Instant` that stamps cassette deltas.
        for path in [
            "crates/serve/src/recorder.rs",
            "crates/serve/src/http.rs",
            "crates/serve/src/server.rs",
            "crates/serve/src/timing.rs",
        ] {
            assert!(
                !in_deterministic_scope(path),
                "{path} must stay out of scope"
            );
        }
        // The long-standing members are unaffected, and the whole ports
        // layer (decoders + cassette codec) is governed.
        assert!(in_deterministic_scope("crates/core/src/stream.rs"));
        assert!(in_deterministic_scope("crates/ports/src/cassette.rs"));
        assert!(in_deterministic_scope("crates/ports/src/syslog.rs"));
        assert!(!in_deterministic_scope("crates/bgp-sim/src/engine.rs"));
        // The delta/SIMD ingest additions: the mmap wrapper and the serve
        // full-analysis fold are pure functions of their inputs, and the
        // delta-session modules ride in under the crates/core/src prefix.
        assert!(in_deterministic_scope("crates/bgp-model/src/mmap.rs"));
        assert!(in_deterministic_scope("crates/serve/src/full.rs"));
        assert!(in_deterministic_scope("crates/core/src/context.rs"));
        assert!(in_deterministic_scope("crates/core/src/stage.rs"));
    }

    #[test]
    fn port_boundary_scope_exempts_only_the_parsers_and_the_adapter() {
        for path in [
            "crates/raslog/src/ingest.rs",
            "crates/raslog/src/lib.rs",
            "crates/joblog/src/ingest.rs",
            "crates/ports/src/bgp.rs",
        ] {
            assert!(!in_port_boundary_scope(path), "{path} must be exempt");
        }
        for path in [
            "crates/ports/src/syslog.rs",
            "crates/core/src/load.rs",
            "crates/serve/src/source.rs",
            "src/bin/coctl.rs",
        ] {
            assert!(in_port_boundary_scope(path), "{path} must be governed");
        }
    }

    #[test]
    fn determinism_scope_covers_bench_baseline_but_not_timers() {
        // The parallel kernels and the frozen serial references they are
        // compared against are both governed...
        for path in [
            "crates/core/src/matching.rs",
            "crates/core/src/classify/root_cause.rs",
            "crates/core/src/analysis/vulnerability.rs",
            "crates/core/src/analysis/fda.rs",
            "crates/bench/src/baseline.rs",
        ] {
            assert!(in_deterministic_scope(path), "{path} should be in scope");
        }
        // Every parallel kernel file is also governed by the determinism
        // rule — `parallel-determinism` scope is a subset by construction.
        for &(path, _) in KERNEL_SCOPE {
            assert!(in_deterministic_scope(path), "{path} should be in scope");
        }
        // ...while the experiment harness around them is not: its binary
        // reads the clock to report progress.
        for path in [
            "crates/bench/src/bin/experiments.rs",
            "crates/bench/src/experiments.rs",
            "crates/bench/src/lib.rs",
        ] {
            assert!(
                !in_deterministic_scope(path),
                "{path} must stay out of scope"
            );
        }
    }
}
