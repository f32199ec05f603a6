//! Exit-code CLI for the workspace invariant lint.
//!
//! `cargo run -p navicim-lint` from anywhere inside the workspace:
//! prints every finding as `file:line: [rule] message` and exits 1 if
//! any exist, 0 on a clean tree. Either way it reports the workspace's
//! non-test line count ([`navicim_lint::TreeReport::non_test_lines`]).

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Walks upward from `start` to the directory containing the workspace
/// `Cargo.toml` (identified by its `[workspace]` table).
fn workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return Some(dir);
                }
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn main() -> ExitCode {
    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("navicim-lint: cannot read current dir: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(root) = workspace_root(&cwd) else {
        eprintln!(
            "navicim-lint: no workspace Cargo.toml found above {}",
            cwd.display()
        );
        return ExitCode::FAILURE;
    };
    match navicim_lint::lint_tree(&root) {
        Ok(report) if report.findings.is_empty() => {
            println!(
                "navicim-lint: clean, {} non-test lines",
                report.non_test_lines
            );
            ExitCode::SUCCESS
        }
        Ok(report) => {
            for f in &report.findings {
                println!("{f}");
            }
            eprintln!(
                "navicim-lint: {} finding(s), {} non-test lines",
                report.findings.len(),
                report.non_test_lines
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("navicim-lint: {e}");
            ExitCode::FAILURE
        }
    }
}
