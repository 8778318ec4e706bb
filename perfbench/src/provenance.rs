//! Where a result came from: commit, source fingerprint, toolchain,
//! cores, CPU model, workload and seed.

use std::path::{Path, PathBuf};
use std::process::Command;

use serde::json::Value;

use crate::procfs;

/// The checked-out commit from `.git` (no `git` process), if this is a
/// git checkout.
fn commit() -> Option<String> {
    let git = Path::new(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()?
        .lines()
        .find_map(|line| {
            line.strip_suffix(reference)?
                .strip_suffix(' ')
                .map(str::to_string)
        })
}

fn collect_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, out);
        } else {
            out.push(path);
        }
    }
}

/// FNV-1a over the program's sources (`crates/`, `suites/`, the root
/// manifest and lock file) in path order: identifies the code measured
/// when the checkout carries no git metadata.
fn source_fingerprint() -> String {
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    collect_files(Path::new("crates"), &mut files);
    collect_files(Path::new("suites"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let bytes = std::fs::read(&path).unwrap_or_default();
        for byte in path.to_string_lossy().bytes().chain(bytes) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |v| v.trim().to_string())
}

/// The provenance block of a run record.
#[must_use]
pub fn collect(workload: &str, seed: u64, seconds: u64, trace: bool) -> Vec<(&'static str, Value)> {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    vec![
        ("workload", Value::string(workload)),
        ("seed", Value::UInt(seed)),
        ("seconds", Value::UInt(seconds)),
        ("trace", Value::Bool(trace)),
        ("commit", commit().map_or(Value::Null, Value::string)),
        ("source_fnv", Value::string(source_fingerprint())),
        ("rustc", Value::string(rustc_version())),
        ("nproc", Value::UInt(cores as u64)),
        ("cpu_model", Value::string(procfs::cpu_model())),
    ]
}
