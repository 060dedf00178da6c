//! Pieces every workload shares: the metric sheet, sample-state
//! comparison, open-loop pacing, process memory and the data directory.

use ascs_core::{AscsSketch, Snapshot};
use ascs_count_sketch::CountSketch;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Pair universes up to this size are swept whole (`all_estimates`); larger
/// ones are read by point queries and partial sweeps only.
pub const SWEEP_LIMIT_PAIRS: u64 = 1 << 22;

/// Named metrics with their units, printed in name order.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, (f64, &'static str)>,
}

impl Metrics {
    /// Records one metric; a non-finite value is a bug in the benchmark.
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        let previous = self.values.insert(name, (value, unit));
        assert!(previous.is_none(), "metric {name} recorded twice");
    }

    /// Names recorded so far.
    pub fn names(&self) -> Vec<&'static str> {
        self.values.keys().copied().collect()
    }

    /// Unit of a recorded metric.
    pub fn unit(&self, name: &str) -> Option<&'static str> {
        self.values.get(name).map(|&(_, u)| u)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .map(|(name, (value, unit))| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Why a run is not reported: an output check or an operation failed in a
/// way the run cannot account for.
#[derive(Debug)]
pub struct BenchError(pub String);

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// Result type of every workload step.
pub type Res<T> = Result<T, BenchError>;

/// Fails the run with `what` unless `ok`.
pub fn ensure(ok: bool, what: impl FnOnce() -> String) -> Res<()> {
    if ok {
        Ok(())
    } else {
        Err(BenchError(what()))
    }
}

/// Converts any displayable error into a run failure.
pub fn fail<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> BenchError + '_ {
    move |e| BenchError(format!("{what}: {e}"))
}

/// The splitmix64 mixer, for seeded query keys.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `i`-th seeded point-query key in `0..pairs`.
pub fn query_key(seed: u64, i: u64, pairs: u64) -> u64 {
    mix(seed ^ mix(i)) % pairs
}

/// Seconds since `since` as f64 nanoseconds.
pub fn ns_since(since: Instant) -> f64 {
    since.elapsed().as_nanos() as f64
}

/// Nanoseconds between two instants.
pub fn ns_between(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_nanos() as f64
}

/// Share of `planted` keys found among the first `planted.len()` keys of a
/// ranked list.
pub fn recall(ranked: &[u64], planted: &[u64]) -> f64 {
    let want: std::collections::HashSet<u64> = planted.iter().copied().collect();
    let found = ranked
        .iter()
        .take(planted.len())
        .filter(|k| want.contains(k))
        .count();
    found as f64 / planted.len() as f64
}

/// Bit patterns of a table, for exact comparison.
pub fn table_bits(sketch: &CountSketch) -> Vec<u64> {
    sketch.table().iter().map(|v| v.to_bits()).collect()
}

/// A top list as (key, estimate bits).
pub fn top_bits(top: &[(u64, f64)]) -> Vec<(u64, u64)> {
    top.iter().map(|&(k, v)| (k, v.to_bits())).collect()
}

/// The serialized state of a set of shard sketches, concatenated in shard
/// order.
pub fn saved(sketches: &[AscsSketch]) -> Res<Vec<u8>> {
    let mut out = Vec::new();
    for s in sketches {
        s.save(&mut out).map_err(fail("serialize sketch"))?;
    }
    Ok(out)
}

/// What a served snapshot must agree on with its oracle.
pub struct Served {
    /// Epoch the state covers.
    pub epoch: u64,
    /// Merged table bits.
    pub table: Vec<u64>,
    /// Inserted / skipped gate counters.
    pub counts: (u64, u64),
    /// Top list (key, estimate bits).
    pub top: Vec<(u64, u64)>,
}

impl Served {
    /// The state a snapshot publishes.
    pub fn of_snapshot(s: &Snapshot) -> Self {
        let top: Vec<(u64, f64)> = s
            .top_pairs(usize::MAX)
            .into_iter()
            .map(|p| (p.key, p.estimate))
            .collect();
        Self {
            epoch: s.epoch(),
            table: table_bits(s.sketch()),
            counts: s.update_counts(),
            top: top_bits(&top),
        }
    }

    /// Fails unless `other` is bit-identical; `what` names the comparison.
    pub fn check(&self, other: &Served, what: &str) -> Res<()> {
        ensure(self.epoch == other.epoch, || {
            format!("{what}: epoch {} vs {}", self.epoch, other.epoch)
        })?;
        ensure(self.table == other.table, || {
            format!("{what}: merged tables differ")
        })?;
        ensure(self.counts == other.counts, || {
            format!(
                "{what}: gate counters {:?} vs {:?}",
                self.counts, other.counts
            )
        })?;
        ensure(self.top == other.top, || {
            format!("{what}: top lists differ")
        })
    }
}

/// The merged table of shard sketches, folded in shard order.
pub fn merged(sketches: &[AscsSketch]) -> CountSketch {
    let mut out = sketches[0].sketch().clone();
    for s in &sketches[1..] {
        out.merge(s.sketch());
    }
    out
}

/// Open-loop schedule: operation `i` is due at `start + i / rate`. Waits
/// for the due time and reports how late the operation actually started.
pub struct Pacer {
    start: Instant,
    period: Duration,
    /// Lateness of each operation started, in ns.
    pub late_ns: Vec<f64>,
}

impl Pacer {
    /// A schedule at `rate` operations per second from `start`.
    pub fn new(start: Instant, rate: f64) -> Self {
        Self {
            start,
            period: Duration::from_secs_f64(1.0 / rate),
            late_ns: Vec::new(),
        }
    }

    /// Sleeps until operation `i` is due; returns its due time.
    pub fn wait(&mut self, i: u64) -> Instant {
        let due = self.start + self.period.mul_f64(i as f64);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        self.late_ns.push(ns_between(due, Instant::now()));
        due
    }
}

/// `n` closed-loop point queries, each timed on its own (ns). Returns the
/// times and the number of answers that were not finite.
pub fn closed_queries(n: u64, mut query: impl FnMut(u64) -> f64) -> (Vec<f64>, u64) {
    let mut times = Vec::with_capacity(n as usize);
    let mut bad = 0;
    for i in 0..n {
        let c = Instant::now();
        let v = std::hint::black_box(query(i));
        times.push(ns_since(c));
        bad += u64::from(!v.is_finite());
    }
    (times, bad)
}

/// (share of operations started more than 1 ms late, max lateness ms).
pub fn lateness(late_ns: &[f64]) -> (f64, f64) {
    if late_ns.is_empty() {
        return (0.0, 0.0);
    }
    let late = late_ns.iter().filter(|&&l| l > 1e6).count();
    let max = late_ns.iter().copied().fold(0.0, f64::max);
    (late as f64 / late_ns.len() as f64, max / 1e6)
}

/// Peak resident memory of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(fail("read status"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| BenchError("no VmHWM in /proc/self/status".into()))?;
    Ok(kb / 1024.0)
}

/// The run's scratch directory under the working directory, removed with
/// everything in it when dropped.
pub struct RunDir {
    path: PathBuf,
}

impl RunDir {
    /// Creates `.perfbench-run/<name>-<pid>` under the working directory.
    pub fn create(name: &str) -> Res<Self> {
        let path = PathBuf::from(".perfbench-run").join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(fail("create run directory"))?;
        Ok(Self { path })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A fresh, not yet existing subdirectory path.
    pub fn sub(&self, name: &str) -> PathBuf {
        let p = self.path.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Copies the files of a flat directory.
pub fn copy_dir(from: &Path, to: &Path) -> Res<()> {
    std::fs::create_dir_all(to).map_err(fail("create copy"))?;
    for entry in std::fs::read_dir(from).map_err(fail("list data directory"))? {
        let entry = entry.map_err(fail("list data directory"))?;
        if entry.file_type().map_err(fail("stat"))?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(fail("copy"))?;
        }
    }
    Ok(())
}

/// On-disk bytes of the newest checkpoint generation (its manifest and
/// shard files), in MiB.
pub fn newest_checkpoint_mb(dir: &Path) -> Res<f64> {
    let mut by_gen: BTreeMap<String, u64> = BTreeMap::new();
    for entry in std::fs::read_dir(dir).map_err(fail("list data directory"))? {
        let entry = entry.map_err(fail("list data directory"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if let Some(rest) = name.strip_prefix("ckpt-") {
            let generation = rest.split('.').next().unwrap_or_default().to_string();
            let len = entry.metadata().map_err(fail("stat"))?.len();
            *by_gen.entry(generation).or_default() += len;
        }
    }
    by_gen
        .values()
        .last()
        .map(|&bytes| bytes as f64 / (1024.0 * 1024.0))
        .ok_or_else(|| BenchError("no checkpoint generation on disk".into()))
}
