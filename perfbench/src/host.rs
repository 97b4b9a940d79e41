//! The host a result was measured on.

use crate::json::Json;

/// nproc, commit, rustc version and CPU model. Fields that cannot be read
/// on this host say `unknown`.
pub fn describe() -> Json {
    Json::obj()
        .with(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("commit", commit().unwrap_or_else(|| "unknown".into()))
        .with("rustc", rustc().unwrap_or_else(|| "unknown".into()))
        .with("cpu", cpu_model().unwrap_or_else(|| "unknown".into()))
}

/// The checked-out commit, read from `.git` without running git (a plain
/// source export has none).
fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(String::from)
            }),
        None => Some(head.to_string()),
    }
}

fn rustc() -> Option<String> {
    let out = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_string())
}
