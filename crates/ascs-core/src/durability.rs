//! Durable crash recovery for the serving core: generation-numbered disk
//! checkpoints, a CRC-framed write-ahead log of accepted samples, and a
//! [`RecoveryManager`] that cold-starts a killed process from the data
//! directory — with state proven bit-identical to an uninterrupted run.
//!
//! The design mirrors the in-memory recovery recipe of the serving
//! supervisor (checkpoint plus replay log), lifted across process death:
//!
//! * **Write-ahead log** — every accepted sample is encoded as a
//!   [`codec::TAG_WAL_RECORD`] payload and appended to the active segment
//!   file inside a CRC32 frame (`[len][crc][payload]`), *before* its pair
//!   updates are delivered to the shard queues. Segments rotate after a
//!   configurable record count; fsync cadence is a [`FsyncPolicy`].
//! * **Checkpoints** — a coordinated collect barrier captures the stream
//!   context and every shard sketch at one epoch. Each shard lands in its
//!   own file via the atomic [`codec::save_to_path_with`] commit protocol
//!   (tmp → fsync → rename → directory fsync), CRC32-framed so any bit
//!   flip is *detected* rather than restored as plausible state; the
//!   generation's manifest is written **last** and is the commit point —
//!   a crash mid-generation leaves shard files without a manifest, which
//!   recovery treats as if the checkpoint never happened.
//! * **Recovery** — [`RecoveryManager::recover`] scans the directory,
//!   validates generations newest-first (a torn or corrupt generation is
//!   discarded with a counter and the previous one is used), then replays
//!   the WAL tail through the *same* routing and gate-memoized apply loop
//!   as live ingestion, so the recovered sketches are bit-identical to a
//!   sequential run over the recovered prefix.
//! * **Degraded mode** — persistence failures never kill serving. Appends
//!   retry with bounded exponential backoff into fresh segments; when the
//!   budget is spent the store raises `durability_lost` and freezes
//!   `last_durable_epoch` while in-memory ingestion continues. A later
//!   successful checkpoint re-establishes durability (the checkpoint
//!   covers the gap the WAL lost) and clears the flag.
//!
//! Duplicate WAL records are possible by design (a retried append may
//! re-log a record whose first write *did* reach disk before its fsync
//! failed); replay is idempotent because records carry the stream time and
//! recovery skips anything at or below the recovered epoch, advancing only
//! on `epoch + 1`. A gap in stream times marks the end of the contiguous
//! durable prefix and stops replay.

use crate::ascs::AscsSketch;
use crate::config::AscsConfig;
use crate::hyper::HyperParameters;
use crate::sharded::{shard_for, ShardUpdate, ROUTER_SALT};
use crate::stream::{Sample, StreamContext};
use crate::supervisor::apply_batch;
use ascs_count_sketch::codec::{self, CodecError, DurableFile, DurableFs};
use ascs_count_sketch::CountSketch;
use ascs_sketch_hash::splitmix64;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on sample dimensionality accepted from a WAL record — the same
/// bound [`StreamContext::new`] enforces, applied *before* any allocation.
const MAX_WAL_DIM: u64 = 50_000_000;

/// When to fsync the active WAL segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every appended record: every acknowledged sample is
    /// durable, at one fsync per sample.
    Always,
    /// fsync after every `n` appended records (clamped to at least 1): up
    /// to `n − 1` acknowledged samples can be lost to a crash.
    EveryN(u64),
    /// Never fsync the WAL (checkpoints still fsync): durability rides on
    /// the OS page cache — survives process death, not power loss.
    Never,
}

/// Tunables of the durability layer.
#[derive(Debug, Clone)]
pub struct DurabilityOptions {
    /// Data directory holding WAL segments and checkpoint generations;
    /// created if missing.
    pub dir: PathBuf,
    /// WAL fsync cadence.
    pub fsync: FsyncPolicy,
    /// Samples between automatic durable checkpoints (`0` = manual
    /// checkpoints only, via `ServingEstimator::persist_checkpoint`).
    pub checkpoint_every: u64,
    /// Records per WAL segment before rotating to a fresh file.
    pub wal_segment_records: u64,
    /// Checkpoint generations kept on disk (clamped to at least 1; the
    /// default of 2 lets recovery fall back past a torn latest
    /// generation). WAL segments are garbage-collected only once every
    /// retained generation covers them.
    pub keep_generations: usize,
    /// Failed persistence operations are retried this many times (with
    /// exponential backoff) before the store degrades.
    pub max_retries: u32,
    /// Base delay of the retry backoff (doubles per attempt, capped at
    /// 100 ms).
    pub retry_backoff: Duration,
}

impl DurabilityOptions {
    /// Durable defaults rooted at `dir`: fsync-always, a checkpoint every
    /// 1024 samples, 4096-record segments, two retained generations.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::Always,
            checkpoint_every: 1024,
            wal_segment_records: 4096,
            keep_generations: 2,
            max_retries: 3,
            retry_backoff: Duration::from_millis(1),
        }
    }
}

/// Typed error for every durability failure. Persistence errors carry the
/// failing operation so degraded-mode diagnostics can name it.
#[derive(Debug)]
pub enum DurabilityError {
    /// A filesystem operation failed; `op` names it.
    Io {
        /// The operation that failed (e.g. `"wal append"`).
        op: &'static str,
        /// The underlying I/O error.
        source: io::Error,
    },
    /// Encoding or decoding a durable record failed; `what` names the
    /// record.
    Codec {
        /// The record being processed (e.g. `"checkpoint manifest"`).
        what: &'static str,
        /// The underlying codec error.
        source: CodecError,
    },
    /// The collect barrier needed to capture a coordinated checkpoint
    /// failed (a shard was abandoned or the barrier timed out).
    Collect(crate::serve::ServeError),
    /// Every recovery attempt within the re-entry budget failed —
    /// typically the filesystem kept dying mid-replay. Carries the final
    /// attempt's error so the crash loop terminates typed, never hangs.
    RecoveryBudgetExhausted {
        /// Recovery attempts made (the whole budget).
        attempts: u32,
        /// The error the final attempt failed with.
        last: Box<DurabilityError>,
    },
}

impl std::fmt::Display for DurabilityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurabilityError::Io { op, source } => write!(f, "{op}: {source}"),
            DurabilityError::Codec { what, source } => write!(f, "{what}: {source}"),
            DurabilityError::Collect(source) => {
                write!(f, "checkpoint collect barrier: {source}")
            }
            DurabilityError::RecoveryBudgetExhausted { attempts, last } => {
                write!(f, "recovery failed {attempts} times (budget spent): {last}")
            }
        }
    }
}

impl std::error::Error for DurabilityError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurabilityError::Io { source, .. } => Some(source),
            DurabilityError::Codec { source, .. } => Some(source),
            DurabilityError::Collect(source) => Some(source),
            DurabilityError::RecoveryBudgetExhausted { last, .. } => Some(last),
        }
    }
}

fn io_err(op: &'static str) -> impl FnOnce(io::Error) -> DurabilityError {
    move |source| DurabilityError::Io { op, source }
}

fn codec_err(what: &'static str) -> impl FnOnce(CodecError) -> DurabilityError {
    move |source| DurabilityError::Codec { what, source }
}

// ---------------------------------------------------------------------------
// On-disk layout
// ---------------------------------------------------------------------------

fn wal_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

fn manifest_path(dir: &Path, generation: u64) -> PathBuf {
    dir.join(format!("ckpt-{generation:08}.manifest"))
}

fn shard_path(dir: &Path, generation: u64, shard: usize) -> PathBuf {
    dir.join(format!("ckpt-{generation:08}.shard{shard:03}"))
}

fn parse_wal_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

fn parse_manifest_name(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".manifest")?
        .parse()
        .ok()
}

fn parse_shard_name(name: &str) -> Option<(u64, usize)> {
    let rest = name.strip_prefix("ckpt-")?;
    let (generation, shard) = rest.split_once(".shard")?;
    Some((generation.parse().ok()?, shard.parse().ok()?))
}

// ---------------------------------------------------------------------------
// WAL record codec
// ---------------------------------------------------------------------------

/// Encodes one accepted sample as a WAL payload: record header, stream
/// time, then the sample (dense or sparse). The payload is framed with a
/// CRC by the caller ([`codec::write_frame`]).
pub(crate) fn encode_wal_record(
    buf: &mut Vec<u8>,
    t: u64,
    sample: &Sample,
) -> Result<(), CodecError> {
    codec::write_header(buf, codec::TAG_WAL_RECORD)?;
    codec::write_u64(buf, t)?;
    match sample {
        Sample::Dense(values) => {
            codec::write_u8(buf, 0)?;
            codec::write_u64(buf, values.len() as u64)?;
            for &v in values {
                codec::write_f64(buf, v)?;
            }
        }
        Sample::Sparse { dim, entries } => {
            codec::write_u8(buf, 1)?;
            codec::write_u64(buf, *dim)?;
            codec::write_u64(buf, entries.len() as u64)?;
            for &(i, v) in entries {
                codec::write_u64(buf, u64::from(i))?;
                codec::write_f64(buf, v)?;
            }
        }
    }
    Ok(())
}

/// Decodes a WAL payload written by [`encode_wal_record`], enforcing the
/// same dimensionality bounds as the stream layer before any allocation.
pub(crate) fn decode_wal_record(bytes: &[u8]) -> Result<(u64, Sample), CodecError> {
    let mut r = bytes;
    codec::read_header(&mut r, codec::TAG_WAL_RECORD)?;
    let t = codec::read_u64(&mut r)?;
    let sample = match codec::read_u8(&mut r)? {
        0 => {
            let len = codec::read_u64(&mut r)?;
            if len > MAX_WAL_DIM {
                return Err(CodecError::Corrupt("wal dense sample too wide"));
            }
            let mut values = Vec::with_capacity((len as usize).min(1 << 16));
            for _ in 0..len {
                values.push(codec::read_f64(&mut r)?);
            }
            Sample::Dense(values)
        }
        1 => {
            let dim = codec::read_u64(&mut r)?;
            let len = codec::read_u64(&mut r)?;
            if dim > MAX_WAL_DIM || len > MAX_WAL_DIM {
                return Err(CodecError::Corrupt("wal sparse sample out of range"));
            }
            let mut entries = Vec::with_capacity((len as usize).min(1 << 16));
            for _ in 0..len {
                let i = codec::read_u64(&mut r)?;
                if i > u64::from(u32::MAX) {
                    return Err(CodecError::Corrupt("wal sparse index out of range"));
                }
                entries.push((i as u32, codec::read_f64(&mut r)?));
            }
            Sample::Sparse { dim, entries }
        }
        _ => return Err(CodecError::Corrupt("unknown wal sample kind")),
    };
    if !r.is_empty() {
        return Err(CodecError::Corrupt("trailing bytes in wal record"));
    }
    Ok((t, sample))
}

/// Frame-size cap for WAL reads: generous room for one sample of the
/// configured dimensionality, applied before any allocation.
fn wal_frame_cap(dim: u64) -> u32 {
    let bytes = dim.saturating_mul(16).saturating_add(4096);
    u32::try_from(bytes).unwrap_or(u32::MAX)
}

/// Frame-size cap for checkpoint reads: the serialized sketch table for
/// the configured geometry plus generous room for trackers and the stream
/// context — so a corrupted length prefix cannot trigger an absurd
/// allocation.
fn checkpoint_frame_cap(config: &AscsConfig) -> u32 {
    let table = (config.geometry.rows as u64)
        .saturating_mul(config.geometry.range as u64)
        .saturating_mul(8);
    let extras = config.dim.saturating_mul(64).saturating_add(1 << 20);
    u32::try_from(table.saturating_add(extras)).unwrap_or(u32::MAX)
}

/// Reads exactly one CRC32 frame from `r` and requires clean EOF after it —
/// checkpoint files hold a single framed record, so trailing bytes are
/// corruption, not extra data.
fn read_single_frame(r: &mut impl io::Read, cap: u32) -> Result<Vec<u8>, CodecError> {
    let payload = codec::read_frame(r, cap)?.ok_or(CodecError::Truncated)?;
    let mut probe = [0u8; 1];
    if r.read(&mut probe).map_err(CodecError::from)? != 0 {
        return Err(CodecError::Corrupt("trailing bytes after checkpoint frame"));
    }
    Ok(payload)
}

/// The prototype sketch every shard boots from — gated when
/// hyperparameters are supplied, vanilla otherwise. Shared by the serving
/// launch path and recovery so a cold start and a post-crash start are the
/// same code path.
pub(crate) fn prototype_sketch(config: &AscsConfig, hyper: Option<&HyperParameters>) -> AscsSketch {
    match hyper {
        Some(hp) => AscsSketch::new(
            config.geometry,
            hp,
            config.total_samples,
            config.top_k_capacity,
            config.seed,
        ),
        None => AscsSketch::vanilla(
            config.geometry,
            config.total_samples,
            config.top_k_capacity,
            config.seed,
        ),
    }
}

fn exponential_backoff(base: Duration, attempt: u32) -> Duration {
    let factor = 1u32 << attempt.min(10);
    base.saturating_mul(factor).min(Duration::from_millis(100))
}

// ---------------------------------------------------------------------------
// DurableStore: the producer-side WAL + checkpoint writer
// ---------------------------------------------------------------------------

struct WalWriter {
    file: Box<dyn DurableFile>,
    path: PathBuf,
    records: u64,
    /// Highest stream time written into this segment (synced or not).
    last_t: u64,
    /// Records appended since the last successful fsync.
    unsynced: u64,
}

/// A WAL segment no longer being written (rotated, abandoned after a
/// failure, or inherited from a previous process).
pub(crate) struct SealedSegment {
    path: PathBuf,
    /// Highest stream time observed in the segment; `0` when empty. Used
    /// only to decide when a checkpoint has made the segment redundant.
    last_t: u64,
}

/// What [`RecoveryManager::recover`] hands to [`DurableStore::open`] so a
/// restarted store resumes numbering where the dead process stopped.
pub(crate) struct StoreBootstrap {
    pub(crate) next_wal_seq: u64,
    pub(crate) sealed: Vec<SealedSegment>,
    pub(crate) next_generation: u64,
    /// Valid generations on disk as `(generation, epoch)`, ascending.
    pub(crate) generations: Vec<(u64, u64)>,
    /// The epoch the recovered state reaches (checkpoint + WAL tail).
    pub(crate) start_epoch: u64,
    /// The epoch of the newest valid checkpoint generation (`0` if none).
    pub(crate) checkpoint_epoch: u64,
}

/// Producer-side durability state machine: appends accepted samples to the
/// WAL, rotates checkpoint generations, garbage-collects covered files,
/// and degrades (instead of failing the caller) when the disk gives out.
///
/// Owned by `ServingEstimator`; all methods are crate-internal — the
/// public surface is the serving API plus [`DurabilityHealth`].
pub(crate) struct DurableStore {
    fs: Arc<dyn DurableFs>,
    opts: DurabilityOptions,
    shards: usize,
    wal: Option<WalWriter>,
    next_wal_seq: u64,
    sealed: Vec<SealedSegment>,
    generations: Vec<(u64, u64)>,
    next_generation: u64,
    last_checkpoint_epoch: u64,
    /// Epoch of the last checkpoint *attempt*, successful or not. The
    /// cadence keys off this too: a failed generation must wait out a full
    /// interval before retrying, not re-run the collect barrier and the
    /// failing writes on every subsequent sample.
    last_checkpoint_attempt: u64,
    last_durable_epoch: u64,
    lost: bool,
    wal_records: u64,
    wal_syncs: u64,
    retries: u64,
    checkpoint_failures: u64,
    payload_buf: Vec<u8>,
    frame_buf: Vec<u8>,
}

impl DurableStore {
    /// Opens the store over `bootstrap` (from recovery, or
    /// [`StoreBootstrap::fresh`] for a new directory). Creates the data
    /// directory; the first WAL segment is opened lazily on first append.
    pub(crate) fn open(
        fs: Arc<dyn DurableFs>,
        opts: DurabilityOptions,
        shards: usize,
        bootstrap: StoreBootstrap,
    ) -> Result<Self, DurabilityError> {
        std::fs::create_dir_all(&opts.dir).map_err(io_err("create data directory"))?;
        Ok(Self {
            fs,
            opts,
            shards,
            wal: None,
            next_wal_seq: bootstrap.next_wal_seq,
            sealed: bootstrap.sealed,
            generations: bootstrap.generations,
            next_generation: bootstrap.next_generation,
            last_checkpoint_epoch: bootstrap.checkpoint_epoch,
            last_checkpoint_attempt: bootstrap.checkpoint_epoch,
            last_durable_epoch: bootstrap.start_epoch,
            lost: false,
            wal_records: 0,
            wal_syncs: 0,
            retries: 0,
            checkpoint_failures: 0,
            payload_buf: Vec::new(),
            frame_buf: Vec::new(),
        })
    }

    pub(crate) fn health(&self) -> DurabilityHealth {
        DurabilityHealth {
            enabled: true,
            durability_lost: self.lost,
            last_durable_epoch: self.last_durable_epoch,
            last_checkpoint_epoch: self.last_checkpoint_epoch,
            checkpoint_generations: self.generations.len() as u64,
            wal_records: self.wal_records,
            wal_syncs: self.wal_syncs,
            persistence_retries: self.retries,
            checkpoint_failures: self.checkpoint_failures,
        }
    }

    /// Logs one accepted sample ahead of queue delivery. Failed writes are
    /// retried into *fresh* segments with exponential backoff (the failed
    /// segment is sealed as-is: its torn tail is exactly what recovery
    /// tolerates, and the retried record's duplicate is skipped by the
    /// monotonic replay filter). Once the retry budget is spent the store
    /// degrades: the error is returned once, `durability_lost` is raised
    /// and later appends become no-ops until a checkpoint succeeds.
    pub(crate) fn append_sample(&mut self, t: u64, sample: &Sample) -> Result<(), DurabilityError> {
        if self.lost {
            return Ok(());
        }
        self.payload_buf.clear();
        encode_wal_record(&mut self.payload_buf, t, sample).map_err(codec_err("wal record"))?;
        self.frame_buf.clear();
        let payload = std::mem::take(&mut self.payload_buf);
        let framed = codec::write_frame(&mut self.frame_buf, &payload);
        self.payload_buf = payload;
        framed.map_err(codec_err("wal frame"))?;
        let mut attempt = 0u32;
        loop {
            match self.try_append(t) {
                Ok(()) => {
                    self.wal_records += 1;
                    return Ok(());
                }
                Err(e) => {
                    self.retries += 1;
                    self.abandon_segment();
                    if attempt >= self.opts.max_retries {
                        self.lost = true;
                        return Err(e);
                    }
                    std::thread::sleep(exponential_backoff(self.opts.retry_backoff, attempt));
                    attempt += 1;
                }
            }
        }
    }

    fn try_append(&mut self, t: u64) -> Result<(), DurabilityError> {
        if self
            .wal
            .as_ref()
            .is_some_and(|w| w.records >= self.opts.wal_segment_records.max(1))
        {
            self.rotate_segment()?;
        }
        if self.wal.is_none() {
            self.open_segment()?;
        }
        let sync_dir = !matches!(self.opts.fsync, FsyncPolicy::Never);
        let w = self.wal.as_mut().expect("segment opened above");
        use std::io::Write as _;
        w.file
            .write_all(&self.frame_buf)
            .map_err(io_err("wal append"))?;
        w.records += 1;
        w.unsynced += 1;
        w.last_t = t;
        let sync_now = match self.opts.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => w.unsynced >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if sync_now {
            w.file.sync().map_err(io_err("wal fsync"))?;
            w.unsynced = 0;
            self.wal_syncs += 1;
            self.last_durable_epoch = self.last_durable_epoch.max(t);
        }
        let _ = sync_dir; // directory entry was synced at open_segment
        Ok(())
    }

    fn open_segment(&mut self) -> Result<(), DurabilityError> {
        let seq = self.next_wal_seq;
        let path = wal_path(&self.opts.dir, seq);
        let file = self.fs.create(&path).map_err(io_err("wal create"))?;
        if !matches!(self.opts.fsync, FsyncPolicy::Never) {
            // The new directory entry must be durable before records in it
            // can be — otherwise a crash could lose a whole synced segment.
            self.fs
                .sync_dir(&self.opts.dir)
                .map_err(io_err("wal directory fsync"))?;
        }
        self.next_wal_seq = seq + 1;
        self.wal = Some(WalWriter {
            file,
            path,
            records: 0,
            last_t: 0,
            unsynced: 0,
        });
        Ok(())
    }

    fn rotate_segment(&mut self) -> Result<(), DurabilityError> {
        let Some(mut w) = self.wal.take() else {
            return Ok(());
        };
        let result = if w.unsynced > 0 && !matches!(self.opts.fsync, FsyncPolicy::Never) {
            w.file.sync()
        } else {
            Ok(())
        };
        if result.is_ok() && w.unsynced > 0 {
            self.wal_syncs += 1;
            self.last_durable_epoch = self.last_durable_epoch.max(w.last_t);
        }
        self.sealed.push(SealedSegment {
            path: w.path,
            last_t: w.last_t,
        });
        result.map_err(io_err("wal fsync"))
    }

    /// Seals the active segment without attempting a sync — the segment
    /// just failed, so its tail is suspect either way.
    fn abandon_segment(&mut self) {
        if let Some(w) = self.wal.take() {
            self.sealed.push(SealedSegment {
                path: w.path,
                last_t: w.last_t,
            });
        }
    }

    /// Forces the active segment to disk (shutdown path; also makes
    /// `FsyncPolicy::EveryN`/`Never` tails durable before a checkpoint's
    /// epoch claims them).
    pub(crate) fn sync_wal(&mut self) -> Result<(), DurabilityError> {
        if self.lost {
            return Ok(());
        }
        if let Some(w) = self.wal.as_mut() {
            if w.unsynced > 0 {
                match w.file.sync() {
                    Ok(()) => {
                        w.unsynced = 0;
                        self.wal_syncs += 1;
                        self.last_durable_epoch = self.last_durable_epoch.max(w.last_t);
                    }
                    Err(e) => {
                        self.retries += 1;
                        self.abandon_segment();
                        self.lost = true;
                        return Err(io_err("wal fsync")(e));
                    }
                }
            }
        }
        Ok(())
    }

    /// Whether the automatic checkpoint cadence is due at stream time `t`.
    /// Keyed off the last *attempt*, so a failed generation backs off for
    /// a full interval instead of re-running the collect barrier and the
    /// failing writes on every later sample.
    pub(crate) fn should_checkpoint(&self, t: u64) -> bool {
        self.opts.checkpoint_every > 0
            && t >= self.last_checkpoint_epoch + self.opts.checkpoint_every
            && t >= self.last_checkpoint_attempt + self.opts.checkpoint_every
    }

    /// Writes one checkpoint generation: every shard sketch through the
    /// atomic commit protocol, then the manifest last (the commit point).
    /// On success the generation is registered, durability is
    /// re-established if it had been lost (the checkpoint covers the gap),
    /// and files covered by every retained generation are collected.
    pub(crate) fn persist_checkpoint(
        &mut self,
        epoch: u64,
        ctx: &StreamContext,
        shard_sketches: &[AscsSketch],
        seed: u64,
        emitted_updates: u64,
    ) -> Result<(), DurabilityError> {
        assert_eq!(shard_sketches.len(), self.shards, "shard count mismatch");
        self.last_checkpoint_attempt = epoch;
        let generation = self.next_generation;
        let mut attempt = 0u32;
        loop {
            match self.try_persist(
                generation,
                epoch,
                ctx,
                shard_sketches,
                seed,
                emitted_updates,
            ) {
                Ok(()) => {
                    self.next_generation = generation + 1;
                    self.generations.push((generation, epoch));
                    self.last_checkpoint_epoch = epoch;
                    self.last_durable_epoch = self.last_durable_epoch.max(epoch);
                    if self.lost {
                        // The generation holds everything up to `epoch`;
                        // the WAL gap is now behind a durable checkpoint.
                        self.lost = false;
                        self.abandon_segment();
                    }
                    self.collect_garbage();
                    return Ok(());
                }
                Err(e) => {
                    self.retries += 1;
                    if attempt >= self.opts.max_retries {
                        self.checkpoint_failures += 1;
                        return Err(e);
                    }
                    std::thread::sleep(exponential_backoff(self.opts.retry_backoff, attempt));
                    attempt += 1;
                }
            }
        }
    }

    fn try_persist(
        &mut self,
        generation: u64,
        epoch: u64,
        ctx: &StreamContext,
        shard_sketches: &[AscsSketch],
        seed: u64,
        emitted_updates: u64,
    ) -> Result<(), DurabilityError> {
        // Every checkpoint file is one CRC32 frame: a flipped bit on disk
        // must surface as `ChecksumMismatch` at recovery, never restore
        // into a plausible-but-wrong sketch.
        for (shard, sketch) in shard_sketches.iter().enumerate() {
            let path = shard_path(&self.opts.dir, generation, shard);
            self.payload_buf.clear();
            sketch
                .save(&mut self.payload_buf)
                .map_err(codec_err("checkpoint shard"))?;
            let payload = &self.payload_buf;
            codec::save_to_path_with(&*self.fs, &path, |w| codec::write_frame(w, payload))
                .map_err(codec_err("checkpoint shard"))?;
        }
        let manifest = manifest_path(&self.opts.dir, generation);
        let shards = self.shards as u64;
        self.payload_buf.clear();
        {
            let w = &mut self.payload_buf;
            codec::write_header(w, codec::TAG_DURABLE_MANIFEST).map_err(codec_err("manifest"))?;
            codec::write_u64(w, epoch).map_err(codec_err("manifest"))?;
            codec::write_u64(w, shards).map_err(codec_err("manifest"))?;
            codec::write_u64(w, seed).map_err(codec_err("manifest"))?;
            codec::write_u64(w, emitted_updates).map_err(codec_err("manifest"))?;
            ctx.save(w).map_err(codec_err("manifest"))?;
        }
        let payload = &self.payload_buf;
        codec::save_to_path_with(&*self.fs, &manifest, |w| codec::write_frame(w, payload))
            .map_err(codec_err("checkpoint manifest"))
    }

    /// Removes generations beyond the retention bound and WAL segments
    /// fully covered by the *oldest retained* generation — so a torn
    /// latest generation can always fall back to the previous one plus
    /// the still-present WAL tail. Removal failures are ignored: stray
    /// files cost disk, not correctness.
    fn collect_garbage(&mut self) {
        while self.generations.len() > self.opts.keep_generations.max(1) {
            let (generation, _) = self.generations.remove(0);
            for shard in 0..self.shards {
                let _ = self
                    .fs
                    .remove_file(&shard_path(&self.opts.dir, generation, shard));
            }
            let _ = self
                .fs
                .remove_file(&manifest_path(&self.opts.dir, generation));
        }
        let oldest_epoch = match self.generations.first() {
            Some(&(_, epoch)) => epoch,
            None => return,
        };
        let fs = &self.fs;
        self.sealed.retain(|segment| {
            if segment.last_t <= oldest_epoch {
                let _ = fs.remove_file(&segment.path);
                false
            } else {
                true
            }
        });
    }
}

// ---------------------------------------------------------------------------
// Health reporting
// ---------------------------------------------------------------------------

/// Durability-side health counters, embedded in `ServingHealth`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityHealth {
    /// Whether this instance persists at all (`false` for purely
    /// in-memory serving; every other field is then zero).
    pub enabled: bool,
    /// Raised when the persistence retry budget was spent; samples past
    /// [`DurabilityHealth::last_durable_epoch`] are served from memory
    /// only, until a checkpoint succeeds again.
    pub durability_lost: bool,
    /// Highest stream time guaranteed recoverable from disk.
    pub last_durable_epoch: u64,
    /// Epoch of the newest durable checkpoint generation.
    pub last_checkpoint_epoch: u64,
    /// Checkpoint generations currently retained on disk.
    pub checkpoint_generations: u64,
    /// Samples appended to the WAL by this process.
    pub wal_records: u64,
    /// Successful WAL fsyncs by this process.
    pub wal_syncs: u64,
    /// Persistence operations that had to be retried (or abandoned).
    pub persistence_retries: u64,
    /// Checkpoint generations that failed even after retries.
    pub checkpoint_failures: u64,
}

impl DurabilityHealth {
    /// The all-zero report of an in-memory-only instance.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            durability_lost: false,
            last_durable_epoch: 0,
            last_checkpoint_epoch: 0,
            checkpoint_generations: 0,
            wal_records: 0,
            wal_syncs: 0,
            persistence_retries: 0,
            checkpoint_failures: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

/// What [`RecoveryManager::recover`] found and rebuilt, reported so
/// operators (and the bench) can see exactly what a cold start cost.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The checkpoint generation the recovery restored from, if any.
    pub checkpoint_generation: Option<u64>,
    /// The epoch of that checkpoint (`0` when starting fresh).
    pub checkpoint_epoch: u64,
    /// Torn or corrupt checkpoint generations discarded during the scan.
    pub torn_generations_discarded: u64,
    /// WAL segment files scanned.
    pub wal_segments_scanned: u64,
    /// WAL records replayed on top of the checkpoint.
    pub wal_records_replayed: u64,
    /// WAL records skipped as duplicates at or below the current epoch.
    pub wal_records_skipped: u64,
    /// Whether a torn or corrupt WAL tail was discarded.
    pub wal_tail_discarded: bool,
    /// Whether the log was repaired: a record gap (from corruption or a
    /// lost segment) ended the replay with live segments still behind
    /// it. Those can never be replayed by any future recovery, yet new
    /// appends would land behind them and be unreachable — so the gapped
    /// segment is rewritten down to its consumed prefix and the segments
    /// beyond it are deleted before the store reopens.
    pub wal_repaired: bool,
    /// Stray files removed (interrupted atomic saves, uncommitted shard
    /// files, unreadable old generations).
    pub stray_files_removed: u64,
    /// The epoch the recovered state reaches.
    pub recovered_epoch: u64,
    /// Wall-clock time of the whole scan + validate + replay.
    pub duration: Duration,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered to epoch {} in {:.2} ms (checkpoint {} at epoch {}, \
             {} wal records replayed over {} segments, {} duplicates skipped, \
             {} torn generations discarded{})",
            self.recovered_epoch,
            self.duration.as_secs_f64() * 1e3,
            match self.checkpoint_generation {
                Some(generation) => format!("generation {generation}"),
                None => "none".to_string(),
            },
            self.checkpoint_epoch,
            self.wal_records_replayed,
            self.wal_segments_scanned,
            self.wal_records_skipped,
            self.torn_generations_discarded,
            match (self.wal_repaired, self.wal_tail_discarded) {
                (true, _) => ", wal repaired at a record gap",
                (false, true) => ", torn wal tail discarded",
                (false, false) => "",
            },
        )
    }
}

/// The state a cold start resumes from: stream context plus per-shard
/// sketches at [`RecoveredState::epoch`], bit-identical to a sequential
/// run over the recovered prefix.
pub struct RecoveredState {
    pub(crate) epoch: u64,
    pub(crate) emitted_updates: u64,
    pub(crate) ctx: StreamContext,
    pub(crate) shard_sketches: Vec<AscsSketch>,
}

impl RecoveredState {
    /// Stream time the recovered state reflects.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Pair updates emitted over the recovered prefix.
    pub fn emitted_updates(&self) -> u64 {
        self.emitted_updates
    }

    /// The recovered stream context (feature moments at the epoch).
    pub fn context(&self) -> &StreamContext {
        &self.ctx
    }

    /// The recovered per-shard sketches, in shard order.
    pub fn shard_sketches(&self) -> &[AscsSketch] {
        &self.shard_sketches
    }

    /// The shard sketches merged via count-sketch linearity — what a
    /// sequential `ShardedAscs` run over the same prefix would hold, used
    /// by the bit-identity assertions.
    pub fn merged_sketch(&self) -> CountSketch {
        let mut merged = self.shard_sketches[0].sketch().clone();
        for shard in &self.shard_sketches[1..] {
            merged.merge(shard.sketch());
        }
        merged
    }
}

/// Everything recovery produced: the rebuilt state, the audit report, and
/// (crate-internal) the bookkeeping the relaunched WAL store resumes from.
pub struct RecoveryOutcome {
    /// The rebuilt serving state (fresh prototype state when the
    /// directory held nothing usable).
    pub state: RecoveredState,
    /// What the scan found, validated, discarded and replayed.
    pub report: RecoveryReport,
    pub(crate) bootstrap: StoreBootstrap,
}

enum GenerationError {
    /// Torn, corrupt or incompatible on disk — discard and fall back.
    Torn,
    /// The filesystem itself failed (not bad bytes) — surface it.
    Fatal(DurabilityError),
}

/// Scans a durability directory and rebuilds serving state from the
/// newest valid checkpoint generation plus the WAL tail.
pub struct RecoveryManager {
    dir: PathBuf,
    fs: Arc<dyn DurableFs>,
}

impl RecoveryManager {
    /// A manager over the real filesystem.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self::with_fs(dir, Arc::new(codec::StdFs))
    }

    /// A manager over an explicit filesystem (fault-injection tests).
    pub fn with_fs(dir: impl Into<PathBuf>, fs: Arc<dyn DurableFs>) -> Self {
        Self {
            dir: dir.into(),
            fs,
        }
    }

    /// Rebuilds serving state from the directory: removes stray temp
    /// files, validates checkpoint generations newest-first (torn ones
    /// are discarded with a counter — never a panic, never silently wrong
    /// state), restores the newest valid one (or the prototype when none
    /// survives), then replays the WAL tail through the same routing and
    /// gate-memoized apply loop as live ingestion. Replay skips duplicate
    /// records at or below the current epoch, tolerates torn segment
    /// tails, and stops at the first gap in stream times — the end of the
    /// contiguous durable prefix.
    ///
    /// # Errors
    /// [`DurabilityError::Io`] when the filesystem itself fails (the
    /// directory cannot be read, a WAL segment cannot be opened). Bad
    /// *bytes* never error: they are discarded with counters in the
    /// [`RecoveryReport`].
    pub fn recover(
        &self,
        config: &AscsConfig,
        hyper: Option<&HyperParameters>,
        shards: usize,
    ) -> Result<RecoveryOutcome, DurabilityError> {
        let started = Instant::now();
        std::fs::create_dir_all(&self.dir).map_err(io_err("create data directory"))?;
        let mut report = RecoveryReport {
            checkpoint_generation: None,
            checkpoint_epoch: 0,
            torn_generations_discarded: 0,
            wal_segments_scanned: 0,
            wal_records_replayed: 0,
            wal_records_skipped: 0,
            wal_tail_discarded: false,
            wal_repaired: false,
            stray_files_removed: 0,
            recovered_epoch: 0,
            duration: Duration::ZERO,
        };

        // ------------------------------------------------------------------
        // Scan: classify every file in the directory.
        // ------------------------------------------------------------------
        let mut manifests: BTreeMap<u64, PathBuf> = BTreeMap::new();
        let mut shard_files: BTreeMap<u64, BTreeMap<usize, PathBuf>> = BTreeMap::new();
        let mut wal_segments: BTreeMap<u64, PathBuf> = BTreeMap::new();
        let entries = std::fs::read_dir(&self.dir).map_err(io_err("read data directory"))?;
        for entry in entries {
            let entry = entry.map_err(io_err("read data directory"))?;
            let path = entry.path();
            let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                continue;
            };
            if name.ends_with(".tmp") {
                // An interrupted atomic save; never renamed, never valid.
                let _ = self.fs.remove_file(&path);
                report.stray_files_removed += 1;
            } else if let Some(seq) = parse_wal_name(&name) {
                wal_segments.insert(seq, path);
            } else if let Some(generation) = parse_manifest_name(&name) {
                manifests.insert(generation, path);
            } else if let Some((generation, shard)) = parse_shard_name(&name) {
                shard_files
                    .entry(generation)
                    .or_default()
                    .insert(shard, path);
            }
        }

        // ------------------------------------------------------------------
        // Checkpoints: validate newest-first; first fully valid generation
        // wins. Shard files without a manifest never committed.
        // ------------------------------------------------------------------
        let max_generation = manifests
            .keys()
            .chain(shard_files.keys())
            .max()
            .copied()
            .unwrap_or(0);
        let mut chosen: Option<(u64, u64, u64, StreamContext, Vec<AscsSketch>)> = None;
        let mut retained: Vec<(u64, u64)> = Vec::new();
        for (&generation, manifest) in manifests.iter().rev() {
            if chosen.is_none() {
                match self.load_generation(manifest, generation, &shard_files, config, shards) {
                    Ok((epoch, emitted, ctx, sketches)) => {
                        retained.push((generation, epoch));
                        chosen = Some((generation, epoch, emitted, ctx, sketches));
                    }
                    Err(GenerationError::Torn) => {
                        report.torn_generations_discarded += 1;
                        self.remove_generation(generation, &shard_files);
                    }
                    Err(GenerationError::Fatal(e)) => return Err(e),
                }
            } else {
                // Older generations: keep them as fallbacks if their
                // manifest still reads; their epoch bounds WAL collection.
                match self.read_manifest(manifest, config, shards) {
                    Ok((epoch, _)) => retained.push((generation, epoch)),
                    Err(GenerationError::Torn) => {
                        report.torn_generations_discarded += 1;
                        self.remove_generation(generation, &shard_files);
                    }
                    Err(GenerationError::Fatal(e)) => return Err(e),
                }
            }
        }
        retained.reverse();
        for (&generation, files) in &shard_files {
            if !manifests.contains_key(&generation) {
                for path in files.values() {
                    let _ = self.fs.remove_file(path);
                    report.stray_files_removed += 1;
                }
            }
        }

        let (mut epoch, mut emitted, mut ctx, mut sketches) = match chosen {
            Some((generation, epoch, emitted, ctx, sketches)) => {
                report.checkpoint_generation = Some(generation);
                report.checkpoint_epoch = epoch;
                (epoch, emitted, ctx, sketches)
            }
            None => {
                let prototype = prototype_sketch(config, hyper);
                (
                    0,
                    0,
                    StreamContext::new(config.dim, config.update_mode, config.estimand),
                    vec![prototype; shards],
                )
            }
        };

        // ------------------------------------------------------------------
        // WAL tail: replay in segment order through the live apply loop.
        // ------------------------------------------------------------------
        let salt = splitmix64(config.seed ^ ROUTER_SALT);
        let cap = wal_frame_cap(config.dim);
        let mut scratch: Vec<Vec<ShardUpdate>> = vec![Vec::new(); shards];
        let mut sealed: Vec<SealedSegment> = Vec::new();
        // Valid frames consumed from the segment being read, so a record
        // gap can rewrite that segment down to exactly this prefix.
        let mut kept: Vec<Vec<u8>> = Vec::new();
        let mut gap_at: Option<u64> = None;
        'segments: for (&seq, path) in &wal_segments {
            report.wal_segments_scanned += 1;
            let file = self.fs.open_read(path).map_err(io_err("wal open"))?;
            let mut r = io::BufReader::new(file);
            let mut segment_last_t = 0u64;
            kept.clear();
            loop {
                let payload = match codec::read_frame(&mut r, cap) {
                    Ok(None) => break, // clean end of segment
                    Ok(Some(payload)) => payload,
                    Err(CodecError::Io(e)) => return Err(io_err("wal read")(e)),
                    Err(_) => {
                        // Torn or corrupt tail: everything durable in this
                        // segment has been consumed; a retried append may
                        // continue in the next segment.
                        report.wal_tail_discarded = true;
                        break;
                    }
                };
                let Ok((t, sample)) = decode_wal_record(&payload) else {
                    report.wal_tail_discarded = true;
                    break;
                };
                if t <= epoch {
                    segment_last_t = segment_last_t.max(t);
                    kept.push(payload);
                    report.wal_records_skipped += 1;
                    continue;
                }
                if t != epoch + 1 || sample.screen(config.dim).is_err() {
                    // A gap or a record live ingest would have refused
                    // ends the contiguous durable prefix; anything beyond
                    // it (even valid frames) must not be applied.
                    report.wal_tail_discarded = true;
                    gap_at = Some(seq);
                    sealed.push(SealedSegment {
                        path: path.clone(),
                        last_t: segment_last_t,
                    });
                    break 'segments;
                }
                segment_last_t = segment_last_t.max(t);
                kept.push(payload);
                for buf in &mut scratch {
                    buf.clear();
                }
                emitted += ctx.ingest(&sample, |u| {
                    scratch[shard_for(u.key, salt, shards)].push(ShardUpdate {
                        key: u.key,
                        value: u.value,
                        t,
                    });
                });
                for (shard, buf) in scratch.iter().enumerate() {
                    if !buf.is_empty() {
                        // Hashed: no plan is built before recovery ends.
                        apply_batch(&mut sketches[shard], buf, None, None);
                    }
                }
                epoch = t;
                report.wal_records_replayed += 1;
            }
            sealed.push(SealedSegment {
                path: path.clone(),
                last_t: segment_last_t,
            });
        }

        if let Some(gap_seq) = gap_at {
            // Repair the log. The gap record and everything behind it can
            // never be replayed (every future recovery stops at the same
            // gap), yet the store appends *after* the last segment — so
            // without repair, post-recovery appends would sit behind the
            // gap, unreachable, and the advertised durable floor would
            // overstate what a cold start can rebuild. Rewrite the gapped
            // segment down to its consumed prefix (atomic tmp + rename)
            // and delete the dead segments beyond it; the next append
            // then re-joins a contiguous log. A crash anywhere in here
            // leaves either the old gap or a strictly smaller one, and
            // the consumed prefix — hence the recovered epoch — intact.
            report.wal_repaired = true;
            let gap_path = &wal_segments[&gap_seq];
            if kept.is_empty() {
                self.fs
                    .remove_file(gap_path)
                    .map_err(io_err("wal repair remove"))?;
                sealed.retain(|s| &s.path != gap_path);
            } else {
                let tmp = gap_path.with_extension("tmp");
                let mut file = self.fs.create(&tmp).map_err(io_err("wal repair create"))?;
                let mut frame = Vec::new();
                for payload in &kept {
                    frame.clear();
                    codec::write_frame(&mut frame, payload).map_err(codec_err("wal frame"))?;
                    use std::io::Write as _;
                    file.write_all(&frame).map_err(io_err("wal repair write"))?;
                }
                file.sync().map_err(io_err("wal repair fsync"))?;
                drop(file);
                self.fs
                    .rename(&tmp, gap_path)
                    .map_err(io_err("wal repair rename"))?;
            }
            for (&seq, path) in wal_segments.range(gap_seq + 1..) {
                let _ = seq;
                self.fs
                    .remove_file(path)
                    .map_err(io_err("wal repair remove"))?;
                report.stray_files_removed += 1;
            }
            self.fs
                .sync_dir(&self.dir)
                .map_err(io_err("wal repair directory fsync"))?;
        }

        report.recovered_epoch = epoch;
        report.duration = started.elapsed();
        let bootstrap = StoreBootstrap {
            next_wal_seq: wal_segments.keys().max().map_or(1, |&s| s + 1),
            sealed,
            next_generation: max_generation + 1,
            generations: retained,
            start_epoch: epoch,
            checkpoint_epoch: report.checkpoint_epoch,
        };
        Ok(RecoveryOutcome {
            state: RecoveredState {
                epoch,
                emitted_updates: emitted,
                ctx,
                shard_sketches: sketches,
            },
            report,
            bootstrap,
        })
    }

    /// Reads and validates one manifest; any bad bytes → `Torn`.
    fn read_manifest(
        &self,
        path: &Path,
        config: &AscsConfig,
        shards: usize,
    ) -> Result<(u64, (u64, StreamContext)), GenerationError> {
        let cap = checkpoint_frame_cap(config);
        let loaded = codec::load_from_path_with(&*self.fs, path, |r| {
            let payload = read_single_frame(r, cap)?;
            let r = &mut payload.as_slice();
            codec::read_header(r, codec::TAG_DURABLE_MANIFEST)?;
            let epoch = codec::read_u64(r)?;
            let manifest_shards = codec::read_u64(r)?;
            let seed = codec::read_u64(r)?;
            let emitted = codec::read_u64(r)?;
            let ctx = StreamContext::restore(r)?;
            if !r.is_empty() {
                return Err(CodecError::Corrupt("trailing bytes in manifest frame"));
            }
            Ok((epoch, manifest_shards, seed, emitted, ctx))
        });
        let (epoch, manifest_shards, seed, emitted, ctx) = match loaded {
            Ok(fields) => fields,
            Err(CodecError::Io(e)) if e.kind() != io::ErrorKind::NotFound => {
                return Err(GenerationError::Fatal(io_err("manifest open")(e)));
            }
            Err(_) => return Err(GenerationError::Torn),
        };
        // A mismatch against the live configuration is indistinguishable
        // from a bit flip in these very fields — either way the generation
        // cannot seed this instance, so it falls back like a torn one.
        if manifest_shards != shards as u64
            || seed != config.seed
            || ctx.dim() != config.dim
            || ctx.samples_seen() != epoch
        {
            return Err(GenerationError::Torn);
        }
        Ok((epoch, (emitted, ctx)))
    }

    /// Fully validates one generation: manifest plus every shard sketch.
    #[allow(clippy::type_complexity)]
    fn load_generation(
        &self,
        manifest: &Path,
        generation: u64,
        shard_files: &BTreeMap<u64, BTreeMap<usize, PathBuf>>,
        config: &AscsConfig,
        shards: usize,
    ) -> Result<(u64, u64, StreamContext, Vec<AscsSketch>), GenerationError> {
        let (epoch, (emitted, ctx)) = self.read_manifest(manifest, config, shards)?;
        let files = shard_files.get(&generation);
        let mut sketches = Vec::with_capacity(shards);
        for shard in 0..shards {
            let Some(path) = files.and_then(|f| f.get(&shard)) else {
                return Err(GenerationError::Torn);
            };
            let cap = checkpoint_frame_cap(config);
            let sketch = match codec::load_from_path_with(&*self.fs, path, |r| {
                let payload = read_single_frame(r, cap)?;
                let r = &mut payload.as_slice();
                let sketch = AscsSketch::restore(r)?;
                if !r.is_empty() {
                    return Err(CodecError::Corrupt("trailing bytes in shard frame"));
                }
                Ok(sketch)
            }) {
                Ok(sketch) => sketch,
                Err(CodecError::Io(e)) if e.kind() != io::ErrorKind::NotFound => {
                    return Err(GenerationError::Fatal(io_err("checkpoint shard open")(e)));
                }
                Err(_) => return Err(GenerationError::Torn),
            };
            if sketch.sketch().rows() != config.geometry.rows
                || sketch.sketch().range() != config.geometry.range
            {
                return Err(GenerationError::Torn);
            }
            sketches.push(sketch);
        }
        Ok((epoch, emitted, ctx, sketches))
    }

    fn remove_generation(
        &self,
        generation: u64,
        shard_files: &BTreeMap<u64, BTreeMap<usize, PathBuf>>,
    ) {
        let _ = self.fs.remove_file(&manifest_path(&self.dir, generation));
        if let Some(files) = shard_files.get(&generation) {
            for path in files.values() {
                let _ = self.fs.remove_file(path);
            }
        }
    }
}

/// [`RecoveryManager::recover`] with a bounded re-entry budget, for
/// environments where recovery *itself* can crash (the chaos harness kills
/// the filesystem mid-WAL-replay). Each attempt runs over a fresh
/// filesystem from `fs_for_attempt(attempt)` — a crashed fault filesystem
/// stays dead, so retrying through it would loop forever. After `budget`
/// failed attempts the loop terminates with the typed
/// [`DurabilityError::RecoveryBudgetExhausted`] instead of hanging.
///
/// Recovery is read-only plus idempotent stray-file removal, so a crashed
/// attempt leaves the durable prefix intact for the next one.
///
/// # Errors
/// [`DurabilityError::RecoveryBudgetExhausted`] wrapping the final
/// attempt's error once all `budget` attempts have failed.
///
/// # Panics
/// If `budget` is zero.
pub fn recover_with_reentry<F>(
    dir: &Path,
    config: &AscsConfig,
    hyper: Option<&HyperParameters>,
    shards: usize,
    budget: u32,
    mut fs_for_attempt: F,
) -> Result<RecoveryOutcome, DurabilityError>
where
    F: FnMut(u32) -> Arc<dyn DurableFs>,
{
    assert!(budget >= 1, "recovery re-entry budget must be positive");
    let mut last: Option<DurabilityError> = None;
    for attempt in 0..budget {
        let manager = RecoveryManager::with_fs(dir, fs_for_attempt(attempt));
        match manager.recover(config, hyper, shards) {
            Ok(outcome) => return Ok(outcome),
            Err(e) => last = Some(e),
        }
    }
    Err(DurabilityError::RecoveryBudgetExhausted {
        attempts: budget,
        last: Box::new(last.expect("budget >= 1 attempts ran")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wal_records_roundtrip_dense_and_sparse() {
        let dense = Sample::dense(vec![1.5, -2.0, 0.0, 3.25]);
        let sparse = Sample::sparse(1000, vec![(7, 0.5), (999, -4.0)]);
        for (t, sample) in [(1u64, &dense), (u64::MAX, &sparse)] {
            let mut buf = Vec::new();
            encode_wal_record(&mut buf, t, sample).unwrap();
            let (rt, rs) = decode_wal_record(&buf).unwrap();
            assert_eq!(rt, t);
            assert_eq!(&rs, sample);
        }
    }

    #[test]
    fn wal_record_decoding_rejects_bad_payloads() {
        let mut buf = Vec::new();
        encode_wal_record(&mut buf, 3, &Sample::dense(vec![1.0, 2.0])).unwrap();
        // Trailing bytes are a framing bug, not silently ignored.
        let mut padded = buf.clone();
        padded.push(0);
        assert!(matches!(
            decode_wal_record(&padded),
            Err(CodecError::Corrupt(_))
        ));
        // Truncation anywhere is typed.
        for cut in 1..buf.len() {
            assert!(decode_wal_record(&buf[..cut]).is_err());
        }
    }

    #[test]
    fn wal_record_caps_reject_absurd_lengths_before_allocation() {
        let mut buf = Vec::new();
        codec::write_header(&mut buf, codec::TAG_WAL_RECORD).unwrap();
        codec::write_u64(&mut buf, 1).unwrap();
        codec::write_u8(&mut buf, 0).unwrap();
        codec::write_u64(&mut buf, u64::MAX).unwrap(); // claimed dense length
        assert!(matches!(
            decode_wal_record(&buf),
            Err(CodecError::Corrupt(_))
        ));
    }

    #[test]
    fn file_name_parsers_roundtrip_and_reject_noise() {
        let dir = Path::new("/data");
        let wal = wal_path(dir, 42);
        assert_eq!(
            parse_wal_name(wal.file_name().unwrap().to_str().unwrap()),
            Some(42)
        );
        let manifest = manifest_path(dir, 7);
        assert_eq!(
            parse_manifest_name(manifest.file_name().unwrap().to_str().unwrap()),
            Some(7)
        );
        let shard = shard_path(dir, 7, 3);
        assert_eq!(
            parse_shard_name(shard.file_name().unwrap().to_str().unwrap()),
            Some((7, 3))
        );
        assert_eq!(parse_wal_name("wal-xyz.log"), None);
        assert_eq!(parse_manifest_name("ckpt-1.shard002"), None);
        assert_eq!(parse_shard_name("ckpt-1.manifest"), None);
        assert_eq!(parse_wal_name("notes.txt"), None);
    }

    /// A record live ingest would have refused — appended straight to the
    /// WAL, bypassing the screen — ends the durable prefix like a gap:
    /// recovery stops before it, without panicking.
    #[test]
    fn recovery_stops_before_a_malformed_wal_record() {
        let config = AscsConfig {
            dim: 16,
            total_samples: 64,
            geometry: crate::config::SketchGeometry::new(5, 256),
            alpha: 0.05,
            signal_strength: 0.5,
            sigma: 1.0,
            delta: 0.05,
            delta_star: 0.20,
            tau0: 1e-4,
            estimand: crate::config::EstimandKind::Covariance,
            update_mode: crate::config::UpdateMode::Product,
            seed: 5,
            top_k_capacity: 8,
        };
        let good = |t: u64| Sample::dense((0..16).map(|f| ((t + f) % 3) as f64 - 1.0).collect());
        let malformed = [
            Sample::sparse(16, vec![(3, 1.0), (16, 2.0)]),
            Sample::sparse(16, vec![(3, 1.0), (3, 2.0)]),
            Sample::dense(vec![0.5; 17]),
        ];
        for (case, bad) in malformed.iter().enumerate() {
            let dir = std::env::temp_dir()
                .join(format!("ascs-wal-malformed-{case}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let manager = RecoveryManager::new(&dir);
            let fresh = manager.recover(&config, None, 2).unwrap();
            let mut store = DurableStore::open(
                Arc::new(codec::StdFs),
                DurabilityOptions::new(&dir),
                2,
                fresh.bootstrap,
            )
            .unwrap();
            for t in 1..=3 {
                store.append_sample(t, &good(t)).unwrap();
            }
            store.append_sample(4, bad).unwrap();
            store.append_sample(5, &good(5)).unwrap();
            drop(store);
            let outcome = manager.recover(&config, None, 2).unwrap();
            assert_eq!(outcome.report.recovered_epoch, 3, "case {case}");
            assert_eq!(outcome.state.epoch(), 3, "case {case}");
            assert!(outcome.report.wal_tail_discarded, "case {case}");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let base = Duration::from_millis(1);
        assert_eq!(exponential_backoff(base, 0), Duration::from_millis(1));
        assert_eq!(exponential_backoff(base, 1), Duration::from_millis(2));
        assert_eq!(exponential_backoff(base, 3), Duration::from_millis(8));
        assert_eq!(exponential_backoff(base, 30), Duration::from_millis(100));
    }
}
