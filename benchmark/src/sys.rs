//! What the operating system says about this process: CPU time and peak
//! resident memory, read from `/proc/self` (the workspace is std-only,
//! so there is no `getrusage`).

use std::fs;
use std::process::{Command, Stdio};

/// Kernel clock ticks per second as `/proc/self/stat` counts them.
/// `USER_HZ` is 100 on every Linux ABI this repo targets; std offers no
/// `sysconf` to ask.
const TICKS_PER_SECOND: f64 = 100.0;

/// User plus system CPU seconds consumed by every thread of this
/// process so far (10 ms resolution).
pub fn cpu_seconds() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("utime/stime fields")
    };
    (ticks() + ticks()) / TICKS_PER_SECOND
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line");
    kb / 1024.0
}

/// The CPUs this process may run on (`Cpus_allowed_list`, e.g. `0-1,4`).
fn allowed_cpus() -> Vec<u32> {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .expect("Cpus_allowed_list line");
    parse_cpu_list(list.trim())
}

fn parse_cpu_list(list: &str) -> Vec<u32> {
    list.split(',')
        .filter_map(|part| {
            let (lo, hi) = part.split_once('-').unwrap_or((part, part));
            Some(lo.trim().parse::<u32>().ok()?..=hi.trim().parse::<u32>().ok()?)
        })
        .flatten()
        .collect()
}

/// Pins the calling process's main thread to the first allowed CPU and
/// every other thread (the daemons' readers) to the second.
///
/// Left alone, a 2-CPU guest's scheduler keeps a woken reader either on
/// the publisher's CPU (a synchronous wake-up that preempts it: about
/// 20 µs publish-to-dequeue on `tick_udp`) or on the idle one (an IPI
/// and an idle exit: about 40 µs), and stays with whichever it chose
/// first — so the median latency differed twofold between otherwise
/// identical runs. One thread per CPU is the load shape the benchmark
/// states, so it is made so. std has no affinity call; `taskset` does.
///
/// # Errors
///
/// Says why nothing was pinned: fewer than two CPUs, or no `taskset`.
pub fn place_threads() -> Result<(), String> {
    let cpus = allowed_cpus();
    let [bench_cpu, daemon_cpu, ..] = cpus[..] else {
        return Err(format!("only {} CPU allowed", cpus.len()));
    };
    let main = std::process::id().to_string();
    for task in fs::read_dir("/proc/self/task").map_err(|e| e.to_string())? {
        let tid = task.map_err(|e| e.to_string())?.file_name();
        let tid = tid.to_string_lossy();
        let cpu = if tid == main { bench_cpu } else { daemon_cpu };

        let pinned = Command::new("taskset")
            .args(["-cp", &cpu.to_string(), &tid])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("taskset: {e}"))?;
        if !pinned.success() {
            return Err(format!("taskset -cp {cpu} {tid}: {pinned}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.03 {
            for i in 0..1_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
        }
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mb() > 0.5);
        assert!(!allowed_cpus().is_empty());
    }

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), [0, 1]);
        assert_eq!(parse_cpu_list("0,2-4, 7"), [0, 2, 3, 4, 7]);
        assert_eq!(parse_cpu_list("3"), [3]);
        assert_eq!(parse_cpu_list(""), [] as [u32; 0]);
    }
}
