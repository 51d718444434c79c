//! What the numbers were measured on, and how much memory a process used.

use std::process::Command;

/// First line of `cmd`'s standard output, or `"unknown"`.
fn first_line_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Host threads available to this process. Every result here depends on it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// One line identifying the host and the code: `nproc`, CPU model, kernel,
/// rustc and commit (the commit is `unknown` outside a git checkout).
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "nproc={} cpu=\"{}\" kernel={} rustc=\"{}\" commit={}",
        nproc(),
        cpu,
        read_trimmed("/proc/sys/kernel/osrelease"),
        first_line_of("rustc", &["--version"]),
        first_line_of("git", &["rev-parse", "--short", "HEAD"]),
    )
}

/// Peak resident set (`VmHWM`) of process `pid` in MiB, read from
/// `/proc/<pid>/status`. `None` where procfs is absent or the process gone.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_peak_rss_is_positive_and_fingerprint_names_every_field() {
        assert!(peak_rss_mb(std::process::id()).unwrap() > 0.0);
        let fp = fingerprint();
        for field in ["nproc=", "cpu=", "kernel=", "rustc=", "commit="] {
            assert!(fp.contains(field), "{fp}");
        }
    }
}
