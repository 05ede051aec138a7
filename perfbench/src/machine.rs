//! The machine record printed with every result, so numbers from
//! different machines or toolchains are visibly not comparable.

use crate::metrics::json_string;
use std::path::Path;
use std::process::Command;

/// The record as a JSON object: core count, CPU model, rustc version and
/// git commit (`unknown` outside a git checkout).
pub fn record(root: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["--version"], root).unwrap_or_else(|| "unknown".into());
    let commit = git_commit(root).unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}}}",
        json_string(&cpu),
        json_string(&rustc),
        json_string(&commit)
    )
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit of `root`, only if `root` itself is the top of a git
/// work tree (not some enclosing repository).
fn git_commit(root: &Path) -> Option<String> {
    let top = command_line("git", &["rev-parse", "--show-toplevel"], root)?;
    let same = Path::new(&top).canonicalize().ok()? == root.canonicalize().ok()?;
    if !same {
        return None;
    }
    let commit = command_line("git", &["rev-parse", "HEAD"], root)?;
    let dirty = command_line(
        "git",
        &["status", "--porcelain", "--untracked-files=no"],
        root,
    )
    .is_some_and(|s| !s.is_empty());
    Some(if dirty {
        format!("{commit}-dirty")
    } else {
        commit
    })
}
