//! The environment header every result carries: parallelism, CPU model,
//! build profile, commit, the filesystem holding the durable data, and the
//! share of CPU time the hypervisor took away while the run lasted.

use std::path::Path;

/// What the run knew about the machine it ran on.
pub struct Env {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// `model name` from `/proc/cpuinfo`.
    pub cpu: String,
    /// `release` or `debug`.
    pub profile: &'static str,
    /// The checkout's commit, when it is a git checkout.
    pub commit: String,
    /// Filesystem type of the durable data directory.
    pub data_fs: String,
    /// Machine-wide CPU time counters at the start of the run.
    cpu_start: Option<CpuTimes>,
}

impl Env {
    /// Probes the machine; `data_dir` must exist.
    pub fn probe(data_dir: &Path) -> Self {
        Self {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu: cpu_model().unwrap_or_else(|| "unknown".into()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            commit: git_commit().unwrap_or_else(|| "unknown (not a git checkout)".into()),
            data_fs: filesystem_of(data_dir).unwrap_or_else(|| "unknown".into()),
            cpu_start: CpuTimes::read(),
        }
    }

    /// The header as one JSON object. `threads` is the number of threads
    /// the workload keeps busy (shards plus load generators); a run with
    /// fewer cores than that is flagged, since its figures are not
    /// comparable with a run that had them.
    ///
    /// `steal_share` is the share of the machine's CPU time, from the probe
    /// to this call, in which the hypervisor ran something else on the
    /// machine's virtual CPUs (`null` where `/proc/stat` cannot be read).
    /// Timings of a run with a high share are slowed by the host, not by
    /// the program.
    pub fn to_json(&self, threads: usize) -> String {
        let steal = match (&self.cpu_start, CpuTimes::read()) {
            (Some(start), Some(end)) => end.steal_share_since(start).to_string(),
            _ => "null".into(),
        };
        format!(
            "{{\"available_parallelism\":{},\"cpu\":{},\"profile\":\"{}\",\"commit\":{},\
             \"data_fs\":{},\"busy_threads\":{threads},\"oversubscribed\":{},\
             \"steal_share\":{steal}}}",
            self.cores,
            quote(&self.cpu),
            self.profile,
            quote(&self.commit),
            quote(&self.data_fs),
            self.cores < threads
        )
    }
}

/// The machine-wide `cpu` line of `/proc/stat`, in clock ticks.
struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    fn read() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        Self::parse(stat.lines().next()?)
    }

    /// `cpu  user nice system idle iowait irq softirq steal ...`; guest
    /// time is already counted in user and nice, so it is left out.
    fn parse(line: &str) -> Option<Self> {
        let mut fields = line.split_whitespace();
        if fields.next()? != "cpu" {
            return None;
        }
        let ticks: Vec<u64> = fields
            .take(8)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        (ticks.len() == 8).then(|| Self {
            total: ticks.iter().sum(),
            steal: ticks[7],
        })
    }

    fn steal_share_since(&self, start: &Self) -> f64 {
        let total = self.total.saturating_sub(start.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(start.steal) as f64 / total as f64
    }
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Reads `.git/HEAD` of the current directory without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => Some(head.to_string()),
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .map(|s| s.trim().to_string())
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_string)
            }),
    }
}

/// The type of the mount holding `dir`: the longest mount point that
/// prefixes its canonical path, from `/proc/self/mountinfo`.
fn filesystem_of(dir: &Path) -> Option<String> {
    let path = dir.canonicalize().ok()?;
    let info = std::fs::read_to_string("/proc/self/mountinfo").ok()?;
    info.lines()
        .filter_map(|line| {
            let fields: Vec<&str> = line.split(' ').collect();
            let mount = *fields.get(4)?;
            let sep = fields.iter().position(|&f| f == "-")?;
            let fstype = *fields.get(sep + 1)?;
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|&(len, _)| len)
        .map(|(_, fstype)| fstype)
}

#[cfg(test)]
mod tests {
    use super::CpuTimes;

    #[test]
    fn steal_share_is_the_steal_ticks_over_all_ticks() {
        let start = CpuTimes::parse("cpu  100 0 10 800 5 0 5 80 0 0").unwrap();
        let end = CpuTimes::parse("cpu  160 0 20 880 5 0 5 110 0 0").unwrap();
        assert_eq!(end.steal_share_since(&start), 30.0 / 180.0);
        assert!(CpuTimes::parse("cpu0 1 2 3").is_none());
        assert!(CpuTimes::parse("cpu  1 2 3").is_none());
    }
}
