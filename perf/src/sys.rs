//! What the benchmark reads from the machine it runs on.

use std::process::Command;

/// Processors available to this process — the `P` of every workload.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The 1-minute load average, if `/proc/loadavg` can be read.
pub fn load_average() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// CPU seconds (user + system, every thread, dead ones included) this
/// process has used, from `/proc/self/stat`. Spinning shows here and not in
/// wall time. Resolution is one clock tick (10 ms), so take it over many
/// operations. Zero where `/proc` is missing.
pub fn cpu_seconds() -> f64 {
    // USER_HZ is 100 on every Linux ABI; `sysconf` would need libc.
    const TICKS_PER_SECOND: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; count from its ')'.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let mut ticks = || {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks() + ticks()) / TICKS_PER_SECOND
}

/// Nanoseconds the hypervisor ran something else while a processor of this
/// machine had work to do: the `steal` column of `/proc/stat`, summed over
/// the processors, in clock ticks of 10 ms. A shared virtual machine loses
/// time this way, and a sample taken meanwhile measures the neighbours. Zero
/// where `/proc` is missing or the hypervisor does not report it.
fn stolen_ns() -> u64 {
    const NS_PER_TICK: u64 = 10_000_000;
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
        return 0;
    };
    // "cpu  user nice system idle iowait irq softirq steal ..."
    stat.lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<u64>().ok())
        .map_or(0, |ticks| ticks * NS_PER_TICK)
}

/// What share of the machine's processor time the hypervisor has taken
/// away since [`StealWatch::start`].
pub struct StealWatch {
    since: std::time::Instant,
    stolen_ns: u64,
}

impl StealWatch {
    pub fn start() -> StealWatch {
        StealWatch {
            since: std::time::Instant::now(),
            stolen_ns: stolen_ns(),
        }
    }

    pub fn share(&self, processors: usize) -> f64 {
        let capacity_ns = self.since.elapsed().as_nanos() as f64 * processors as f64;
        (stolen_ns() - self.stolen_ns) as f64 / capacity_ns.max(1.0)
    }
}

fn first_line_of(program: &str, args: &[&str]) -> Option<String> {
    let output = Command::new(program).args(args).output().ok()?;
    output.status.success().then(|| {
        String::from_utf8_lossy(&output.stdout)
            .lines()
            .next()
            .map(str::to_owned)
    })?
}

pub fn rustc_version() -> String {
    first_line_of("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned())
}

/// The commit of the tree the benchmark was built from, read from the
/// `.git` directory beside the benchmark's own directory (no `git` process,
/// so nothing outside the checkout is searched); `unknown` in a checkout
/// that is not a git repository.
pub fn git_commit() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |name: &str| std::fs::read_to_string(git.join(name)).ok();
    let resolve = || {
        let head = read("HEAD")?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_owned());
        };
        if let Some(hash) = read(reference) {
            return Some(hash.trim().to_owned());
        }
        read("packed-refs")?.lines().find_map(|line| {
            line.strip_suffix(reference)
                .map(|hash| hash.trim().to_owned())
        })
    };
    resolve().unwrap_or_else(|| "unknown".to_owned())
}
