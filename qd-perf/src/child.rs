//! Running one `quickdrop-cli` child and measuring what it cost.
//!
//! Everything comes from `/proc` and `std` (no libc offline): wall time
//! from a blocking `wait()`, peak resident memory from sampling the
//! child's `VmHWM`, CPU time from this process's own `cutime + cstime`,
//! which the kernel advances when a child is reaped. Only the exit status
//! is read from the child — never its output text.

use crate::trace::now;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::Duration;

/// How often the helper thread reads the child's `VmHWM`.
const RSS_SAMPLE_PERIOD: Duration = Duration::from_millis(10);

/// The shipped CLI binary: the sibling of this executable, which is where
/// `run.sh` builds both. Refuses to run without it.
pub fn cli_path() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let cli = exe.with_file_name("quickdrop-cli");
    if cli.is_file() {
        Ok(cli)
    } else {
        Err(format!(
            "{} not found; build it first (qd-perf/run.sh does: cargo build --offline --release -p qd-cli)",
            cli.display()
        ))
    }
}

/// What one child invocation cost.
#[derive(Debug, Clone, Copy)]
pub struct Invocation {
    /// Spawn to reaped.
    pub wall: Duration,
    /// Highest `VmHWM` seen, in KiB (0 if the child ended before the
    /// first sample).
    pub peak_rss_kib: u64,
    /// Whether the child exited with status 0.
    pub ok: bool,
}

/// The glibc malloc settings every measured child runs under (`run.sh`
/// exports the same pair for the harness's own in-process replica).
///
/// Under glibc's defaults every tensor buffer of 128 KiB or more is
/// `mmap`ped and `munmap`ped again: a 3-round `train` takes 1.2 million
/// page faults and spends as long in the kernel as in its own code, and
/// what that costs in this VM swings by a quarter between one ten-second
/// stretch and the next (identical `train`s: 2.5–4.0 s, against 2.2–2.7 s
/// with the thresholds raised). The benchmark cannot be steady on top of
/// that, so it keeps freed memory in the heap; the cost it sets aside is
/// reported as `proc.default_malloc_slowdown`.
pub const MALLOC_ENV: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "1073741824"),
    ("MALLOC_TRIM_THRESHOLD_", "4294967296"),
];

/// Runs `cli args...` to completion under [`MALLOC_ENV`] with its output
/// discarded.
pub fn invoke(cli: &Path, args: &[String]) -> Invocation {
    let mut command = Command::new(cli);
    command.args(args).envs(MALLOC_ENV);
    run(command)
}

/// [`invoke`] under glibc's default malloc settings.
pub fn invoke_default_malloc(cli: &Path, args: &[String]) -> Invocation {
    let mut command = Command::new(cli);
    command.args(args);
    for (name, _) in MALLOC_ENV {
        command.env_remove(name);
    }
    run(command)
}

fn run(mut command: Command) -> Invocation {
    let start = now();
    let spawned = command
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn();
    let Ok(mut child) = spawned else {
        return Invocation {
            wall: start.elapsed(),
            peak_rss_kib: 0,
            ok: false,
        };
    };
    let status_file = format!("/proc/{}/status", child.id());
    // Dropping `stop` wakes the sampler at once, so the wall time below
    // never includes a sampling period.
    let (stop, stopped) = mpsc::channel::<()>();
    let (ok, wall, peak_rss_kib) = std::thread::scope(|scope| {
        let sampler = scope.spawn(move || {
            let mut peak = 0u64;
            loop {
                if let Some(kib) = vm_hwm_kib(&status_file) {
                    peak = peak.max(kib);
                }
                if stopped.recv_timeout(RSS_SAMPLE_PERIOD) != Err(RecvTimeoutError::Timeout) {
                    return peak;
                }
            }
        });
        let ok = child.wait().is_ok_and(|s| s.success());
        let wall = start.elapsed();
        drop(stop);
        (ok, wall, sampler.join().expect("rss sampler never panics"))
    });
    Invocation {
        wall,
        peak_rss_kib,
        ok,
    }
}

/// `VmHWM` (peak resident set) of the process behind `status_file`.
fn vm_hwm_kib(status_file: &str) -> Option<u64> {
    let text = std::fs::read_to_string(status_file).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPU clocks of this process, read from `/proc/self/stat`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuClock {
    /// User + system seconds of reaped children (`cutime + cstime`).
    pub children: f64,
    /// System seconds of reaped children (`cstime`).
    pub children_sys: f64,
    /// User seconds of this process.
    pub own_user: f64,
    /// System seconds of this process.
    pub own_sys: f64,
}

impl CpuClock {
    /// Reads the clocks now. `ticks_per_s` is [`clock_ticks_per_s`].
    pub fn now(ticks_per_s: f64) -> CpuClock {
        let text = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
        // The second field is "(comm)" and may itself hold spaces or
        // parentheses; the numeric fields start after the last ')'.
        let tail = text.rsplit_once(')').map_or("", |(_, t)| t);
        let field = |n: usize| -> f64 {
            // `tail` starts at field 3 (state), so field n is at n - 3.
            tail.split_whitespace()
                .nth(n - 3)
                .and_then(|f| f.parse::<f64>().ok())
                .unwrap_or(0.0)
                / ticks_per_s
        };
        CpuClock {
            own_user: field(14),
            own_sys: field(15),
            children: field(16) + field(17),
            children_sys: field(17),
        }
    }
}

/// The kernel's `USER_HZ`, asked of `getconf` (a child process is the
/// only way to reach `sysconf` without libc); 100 everywhere in practice.
pub fn clock_ticks_per_s() -> f64 {
    Command::new("getconf")
        .arg("CLK_TCK")
        .stderr(Stdio::null())
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.trim().parse::<f64>().ok())
        .filter(|&t| t > 0.0)
        .unwrap_or(100.0)
}

/// Total bytes of the regular files directly inside `dir` (deployment
/// directories are flat).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(std::fs::Metadata::is_file)
        .map(|m| m.len())
        .sum()
}

/// The filesystem type `path` lives on, from `/proc/mounts` (longest
/// mount-point prefix wins); printed so a reader knows what the storage
/// latencies are latencies *of*.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clock_parses_own_stat_line() {
        let before = CpuClock::now(100.0);
        // Burn a little user time so the clock is visibly monotonic.
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let after = CpuClock::now(100.0);
        assert!(after.own_user >= before.own_user);
        assert!(after.children >= before.children);
    }

    #[test]
    fn invoke_reports_exit_status_and_wall_time() {
        let ok = invoke(Path::new("true"), &[]);
        assert!(ok.ok);
        let bad = invoke(Path::new("false"), &[]);
        assert!(!bad.ok);
        let missing = invoke(Path::new("/nonexistent/qd-perf-no-such-binary"), &[]);
        assert!(!missing.ok);
        let slept = invoke(Path::new("sleep"), &["0.05".to_string()]);
        assert!(slept.ok && slept.wall >= Duration::from_millis(50));
        assert!(
            slept.peak_rss_kib > 0,
            "a 50 ms child is sampled at least once"
        );
    }

    #[test]
    fn dir_bytes_sums_flat_files() {
        let dir = std::env::temp_dir().join(format!("qd-perf-dirbytes-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a"), [0u8; 10]).unwrap();
        std::fs::write(dir.join("b"), [0u8; 5]).unwrap();
        assert_eq!(dir_bytes(&dir), 15);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(dir_bytes(&dir), 0);
    }

    #[test]
    fn clock_ticks_are_positive() {
        assert!(clock_ticks_per_s() > 0.0);
    }
}
