//! CLI entry point for `cargo xtask`.
//!
//! Subcommands:
//! * `lint [--only rule,rule] [--list]` — run the static-analysis harness.
//!
//! Exit codes: `0` clean, `1` findings reported, `2` usage or I/O error.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo xtask lint [--only <rule>[,<rule>...]] [--list]\n\
         \n\
         Runs the workspace's domain lints. `--list` prints the rule catalog;\n\
         `--only` restricts the run to the named rules."
    );
    ExitCode::from(2)
}

fn list_rules() {
    for rule in xtask::RULES {
        println!("{:<20} {}", rule.id, rule.summary);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut args = args.iter();
    match args.next().map(String::as_str) {
        Some("lint") => {}
        _ => return usage(),
    }

    let mut only: Option<BTreeSet<String>> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--list" => {
                list_rules();
                return ExitCode::SUCCESS;
            }
            "--only" => {
                let Some(names) = args.next() else {
                    return usage();
                };
                let set: BTreeSet<String> = names.split(',').map(|s| s.trim().to_owned()).collect();
                let known: BTreeSet<&str> = xtask::RULES.iter().map(|r| r.id).collect();
                for name in &set {
                    if !known.contains(name.as_str()) {
                        eprintln!("unknown rule `{name}` (try `cargo xtask lint --list`)");
                        return ExitCode::from(2);
                    }
                }
                only = Some(set);
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("xtask: cannot determine working directory: {e}");
            return ExitCode::from(2);
        }
    };
    // Cargo runs the binary from the invocation directory; CARGO_MANIFEST_DIR
    // is a more reliable anchor when present.
    let anchor = std::env::var_os("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or(cwd);

    let root = match xtask::workspace::find_root(&anchor) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask: {e}");
            return ExitCode::from(2);
        }
    };

    match xtask::workspace::run_lint(&root, only.as_ref()) {
        Ok(findings) => {
            for f in &findings {
                println!("{f}");
            }
            let status = if findings.is_empty() {
                "clean"
            } else {
                "FAILED"
            };
            println!("xtask lint: {status} — {} finding(s)", findings.len());
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("xtask: {e}");
            ExitCode::from(2)
        }
    }
}
