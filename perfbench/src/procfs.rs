//! Readings from `/proc` for the running process and its threads.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`,
/// 100 on every Linux ABI this runs on).
const TICKS_PER_S: f64 = 100.0;

/// A `kB` field of `/proc/self/status`, such as `VmHWM` or `VmRSS`.
pub fn status_kb(key: &str) -> u64 {
    status_field("/proc/self/status", key)
}

fn status_field(path: &str, key: &str) -> u64 {
    let text = fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .find_map(|line| {
            let rest = line.strip_prefix(key)?.strip_prefix(':')?;
            rest.split_whitespace().next()?.parse().ok()
        })
        .unwrap_or(0)
}

/// User and system CPU seconds from a `stat` file. For
/// `/proc/self/stat` these include every thread, exited ones too.
pub fn cpu_s(stat_path: &str) -> (f64, f64) {
    let text = fs::read_to_string(stat_path).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line, so 12 and 13 here.
    let after = text.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0) as f64
            / TICKS_PER_S
    };
    (tick(11), tick(12))
}

/// Process CPU (user + system) seconds so far.
pub fn process_cpu_s() -> f64 {
    let (user, sys) = cpu_s("/proc/self/stat");
    user + sys
}

/// Read- and write-family syscalls (`syscr + syscw`) from an `io` file.
fn rw_syscalls(io_path: &str) -> u64 {
    let text = fs::read_to_string(io_path).unwrap_or_default();
    ["syscr", "syscw"]
        .iter()
        .map(|key| {
            text.lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix(':')?.trim().parse().ok())
                .unwrap_or(0u64)
        })
        .sum()
}

/// One thread's counters at the moment it was read.
#[derive(Clone, Copy, Debug, Default)]
pub struct ThreadSample {
    pub user_s: f64,
    pub sys_s: f64,
    pub voluntary_ctx_switches: u64,
    /// Read- and write-family syscalls of this thread.
    pub rw_syscalls: u64,
}

/// Reads every live thread of this process whose name starts with
/// `prefix`, keyed by thread id.
pub fn threads_named(prefix: &str) -> Vec<(u64, ThreadSample)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|entry| {
        let entry = entry.ok()?;
        let tid: u64 = entry.file_name().to_str()?.parse().ok()?;
        let base = entry.path();
        let comm = fs::read_to_string(base.join("comm")).ok()?;
        if !comm.starts_with(prefix) {
            return None;
        }
        let (user_s, sys_s) = cpu_s(base.join("stat").to_str()?);
        let voluntary_ctx_switches =
            status_field(base.join("status").to_str()?, "voluntary_ctxt_switches");
        let rw_syscalls = rw_syscalls(base.join("io").to_str()?);
        Some((
            tid,
            ThreadSample {
                user_s,
                sys_s,
                voluntary_ctx_switches,
                rw_syscalls,
            },
        ))
    })
    .collect()
}
