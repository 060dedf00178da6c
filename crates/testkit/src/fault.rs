//! Deterministic fault injection for the serving core, plus the sequential
//! replay oracle the consistency tests compare snapshots against.
//!
//! [`FaultPlan`] implements [`ascs_core::FaultInjector`] with scripted
//! faults — panic at a specific shard-local update index, truncate a
//! checkpoint at byte `K`, hold worker batches to force queue-full storms,
//! hold recovery to observe degraded mode — all one-shot and in-process,
//! so every failure test is reproducible without real crashes.
//!
//! [`ReplayOracle`] is the ground truth for snapshot consistency: it runs
//! the *same* sample stream through a plain sequential [`ShardedAscs`]
//! (same seed, same shard count, same router), so a serving snapshot at
//! epoch `t` must match the oracle after `t` samples bit for bit.
//!
//! [`FaultFs`] extends the same scripted-fault idea to the durability
//! layer: a [`DurableFs`](ascs_sketch_hash::codec::DurableFs) over the
//! real filesystem that can tear writes, accept short writes, fail the
//! Nth fsync, run out of space, or die wholesale at the Nth operation —
//! the primitive behind the kill-at-every-crash-point recovery matrix.

use ascs_core::config::AscsConfig;
use ascs_core::{FaultInjector, HyperParameters, Sample, ShardUpdate, ShardedAscs, StreamContext};
use ascs_count_sketch::CountSketch;
use ascs_sketch_hash::codec::{
    FaultSiteRegistry, FS_FAULT_SITES, SITE_FS_CRASH, SITE_FS_ENOSPC, SITE_FS_FAIL_DIR_SYNC,
    SITE_FS_FAIL_SYNC, SITE_FS_SHORT_WRITE, SITE_FS_TORN_WRITE,
};
use ascs_sketch_hash::splitmix64;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Site name recorded when a scripted worker panic fires.
pub const SITE_PLAN_PANIC: &str = "plan.worker_panic";
/// Site name recorded when a scripted checkpoint truncation fires.
pub const SITE_PLAN_TORN_CHECKPOINT: &str = "plan.torn_checkpoint";
/// Every [`FaultPlan`]-level fault site.
pub const PLAN_FAULT_SITES: &[&str] = &[SITE_PLAN_PANIC, SITE_PLAN_TORN_CHECKPOINT];

#[derive(Debug, Clone, Copy)]
enum TriggerKind {
    OneShot,
    EveryN(u64),
    Probability(f64),
}

/// A re-armable firing rule for scripted faults. The classic scripted
/// faults are one-shot — each fires on its first match and never again.
/// A `Trigger` generalises that: [`Trigger::one_shot`] keeps the old
/// behaviour, [`Trigger::every`] re-arms after every `n` matching events,
/// and [`Trigger::probability`] fires each matching event independently
/// with probability `p`, driven by a seeded [`splitmix64`] chain so the
/// firing pattern is a pure function of the seed.
#[derive(Debug, Clone)]
pub struct Trigger {
    kind: TriggerKind,
    matches: u64,
    fired: u64,
    rng: u64,
}

impl Trigger {
    fn with_kind(kind: TriggerKind, rng: u64) -> Self {
        Self {
            kind,
            matches: 0,
            fired: 0,
            rng,
        }
    }

    /// Fires on the first matching event only (the classic behaviour).
    pub fn one_shot() -> Self {
        Self::with_kind(TriggerKind::OneShot, 0)
    }

    /// Fires on every `n`-th matching event (the `n`-th, `2n`-th, …).
    ///
    /// # Panics
    /// If `n` is zero.
    pub fn every(n: u64) -> Self {
        assert!(n >= 1, "Trigger::every needs n >= 1");
        Self::with_kind(TriggerKind::EveryN(n), 0)
    }

    /// Fires each matching event independently with probability `p`,
    /// deterministically derived from `seed`.
    pub fn probability(p: f64, seed: u64) -> Self {
        Self::with_kind(
            TriggerKind::Probability(p.clamp(0.0, 1.0)),
            splitmix64(seed),
        )
    }

    /// Registers one matching event and decides whether the fault fires.
    pub fn offer(&mut self) -> bool {
        self.matches += 1;
        let fire = match self.kind {
            TriggerKind::OneShot => self.fired == 0,
            TriggerKind::EveryN(n) => self.matches.is_multiple_of(n),
            TriggerKind::Probability(p) => {
                self.rng = splitmix64(self.rng);
                ((self.rng >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
            }
        };
        if fire {
            self.fired += 1;
        }
        fire
    }

    /// Times this trigger has fired.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Matching events offered to this trigger.
    pub fn matches(&self) -> u64 {
        self.matches
    }
}

#[derive(Default)]
struct Holds {
    batches: bool,
    recovery: bool,
    /// Workers currently parked in the batches hold. A worker blocked in
    /// `recv` pops one more batch before it reaches the hold, so a full
    /// queue is only *stably* full once every worker is parked here.
    parked: usize,
}

/// A scripted, deterministic fault plan. Build it with the `panic_at` /
/// `truncate_checkpoint_at` constructors, share it (`Arc`) with
/// `ServingEstimator::launch_with_faults`, and flip the runtime holds from
/// the test thread. Scripted faults are **one-shot**: each fires on its
/// first match and never again, so a restarted worker replays cleanly.
#[derive(Default)]
pub struct FaultPlan {
    /// Pending `(shard, shard-local update index)` panics.
    panics: Mutex<Vec<(usize, u64)>>,
    /// Pending `(shard, truncate-at-byte)` checkpoint corruptions.
    truncations: Mutex<Vec<(usize, usize)>>,
    /// Re-armable panic rules, offered one matching event per delivery of
    /// a shard-local update (after the one-shot script is consulted).
    panic_triggers: Mutex<Vec<(usize, Trigger)>>,
    holds: Mutex<Holds>,
    released: Condvar,
    panics_fired: Mutex<u64>,
    truncations_fired: Mutex<u64>,
    recoveries_started: Mutex<u64>,
    /// When set, injected panics also fire during recovery replay.
    inject_recovery: bool,
    registry: Option<Arc<FaultSiteRegistry>>,
}

impl FaultPlan {
    /// An empty plan (no scripted faults, no holds).
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules a one-shot panic right before `shard` applies its
    /// `update_index`-th update (0-based, counted across all first-delivery
    /// batches of that shard).
    #[must_use]
    pub fn panic_at(self, shard: usize, update_index: u64) -> Self {
        lock(&self.panics).push((shard, update_index));
        self
    }

    /// Schedules a one-shot truncation of `shard`'s next checkpoint to
    /// `at` bytes before validation — the checkpoint must be rejected and
    /// the previous good one kept.
    #[must_use]
    pub fn truncate_checkpoint_at(self, shard: usize, at: usize) -> Self {
        lock(&self.truncations).push((shard, at));
        self
    }

    /// Attaches a re-armable panic rule for `shard`: the trigger is offered
    /// one matching event per shard-local update delivered to that shard
    /// and panics the worker whenever it fires — including repeatedly, so
    /// restart budgets and crash loops can be exercised.
    #[must_use]
    pub fn panic_trigger(self, shard: usize, trigger: Trigger) -> Self {
        lock(&self.panic_triggers).push((shard, trigger));
        self
    }

    /// Opts this plan into fault injection *during recovery replay*: by
    /// default a restarted worker replays without injection so one-shot
    /// panics cannot loop; with this set, panic rules keep firing during
    /// the replay and the shard's restart budget bounds the loop.
    #[must_use]
    pub fn with_recovery_injection(mut self) -> Self {
        self.inject_recovery = true;
        self
    }

    /// Attaches a fault-site registry: plan-level sites are registered up
    /// front and recorded each time a scripted fault fires.
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<FaultSiteRegistry>) -> Self {
        for site in PLAN_FAULT_SITES {
            registry.register(site);
        }
        self.registry = Some(registry);
        self
    }

    /// Arms one more one-shot panic after construction (`&self`, so a test
    /// can keep scripting faults against a plan already shared with a live
    /// serving instance).
    pub fn arm_panic(&self, shard: usize, update_index: u64) {
        lock(&self.panics).push((shard, update_index));
    }

    /// Arms one more one-shot checkpoint truncation after construction.
    pub fn arm_truncation(&self, shard: usize, at: usize) {
        lock(&self.truncations).push((shard, at));
    }

    fn record(&self, site: &'static str) {
        if let Some(registry) = &self.registry {
            registry.record(site);
        }
    }

    /// While set, every worker blocks before applying a batch — queues
    /// fill and `try_ingest` must surface `Overloaded`. Release before
    /// dropping the serving instance.
    pub fn set_hold_batches(&self, hold: bool) {
        lock(&self.holds).batches = hold;
        self.released.notify_all();
    }

    /// While set, a recovering worker blocks before its restore + replay —
    /// the window in which readers must see degraded (stale, flagged)
    /// snapshots. Release before dropping the serving instance.
    pub fn set_hold_recovery(&self, hold: bool) {
        lock(&self.holds).recovery = hold;
        self.released.notify_all();
    }

    /// Scripted panics that have fired.
    pub fn panics_fired(&self) -> u64 {
        *lock(&self.panics_fired)
    }

    /// Scripted checkpoint truncations that have fired.
    pub fn truncations_fired(&self) -> u64 {
        *lock(&self.truncations_fired)
    }

    /// Worker recoveries that have started (restore + replay entered).
    pub fn recoveries_started(&self) -> u64 {
        *lock(&self.recoveries_started)
    }

    /// Workers currently parked in the batches hold. Overload tests must
    /// wait for this to reach the shard count before treating a full queue
    /// as stable: until then a worker that was blocked in `recv` can still
    /// absorb one batch on its way into the hold, freeing a slot.
    pub fn workers_held(&self) -> usize {
        lock(&self.holds).parked
    }

    fn wait_while(&self, which: fn(&Holds) -> bool) {
        let mut holds = lock(&self.holds);
        while which(&holds) {
            holds = self
                .released
                .wait(holds)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

impl FaultInjector for FaultPlan {
    fn inject_panic(&self, shard: usize, update_index: u64) -> bool {
        let mut pending = lock(&self.panics);
        if let Some(pos) = pending
            .iter()
            .position(|&(s, i)| s == shard && i == update_index)
        {
            pending.remove(pos);
            *lock(&self.panics_fired) += 1;
            self.record(SITE_PLAN_PANIC);
            return true;
        }
        drop(pending);
        let mut triggers = lock(&self.panic_triggers);
        for (s, trigger) in triggers.iter_mut() {
            if *s == shard && trigger.offer() {
                *lock(&self.panics_fired) += 1;
                self.record(SITE_PLAN_PANIC);
                return true;
            }
        }
        false
    }

    fn inject_during_recovery(&self) -> bool {
        self.inject_recovery
    }

    fn corrupt_checkpoint(&self, shard: usize, bytes: &mut Vec<u8>) {
        let mut pending = lock(&self.truncations);
        if let Some(pos) = pending.iter().position(|&(s, _)| s == shard) {
            let (_, at) = pending.remove(pos);
            bytes.truncate(at.min(bytes.len()));
            *lock(&self.truncations_fired) += 1;
            self.record(SITE_PLAN_TORN_CHECKPOINT);
        }
    }

    fn before_recovery(&self, _shard: usize) {
        *lock(&self.recoveries_started) += 1;
        self.wait_while(|h| h.recovery);
    }

    fn before_batch(&self, _shard: usize) {
        let mut holds = lock(&self.holds);
        if !holds.batches {
            return;
        }
        holds.parked += 1;
        self.released.notify_all();
        while holds.batches {
            holds = self
                .released
                .wait(holds)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        holds.parked -= 1;
    }
}

/// Sequential ground truth for the serving core: the same stream driven
/// through a plain [`ShardedAscs`] with the same configuration, shard
/// count and seed — no threads, no queues, no recovery. Serving snapshots
/// must match this oracle bit for bit at every epoch, panics and torn
/// checkpoints notwithstanding.
pub struct ReplayOracle {
    ctx: StreamContext,
    sharded: ShardedAscs,
    t: u64,
    pending: Vec<ShardUpdate>,
    emitted: u64,
}

impl ReplayOracle {
    /// Builds the oracle. `hyper` selects gated (`Some`) or vanilla
    /// (`None`) workers, exactly mirroring the serving launch entry points.
    pub fn new(config: &AscsConfig, hyper: Option<&HyperParameters>, shards: usize) -> Self {
        let sharded = match hyper {
            Some(hp) => ShardedAscs::new(
                config.geometry,
                hp,
                config.total_samples,
                config.top_k_capacity,
                config.seed,
                shards,
            ),
            None => ShardedAscs::vanilla(
                config.geometry,
                config.total_samples,
                config.top_k_capacity,
                config.seed,
                shards,
            ),
        };
        Self {
            ctx: StreamContext::new(config.dim, config.update_mode, config.estimand),
            sharded,
            t: 0,
            pending: Vec::new(),
            emitted: 0,
        }
    }

    /// Ingests one sample sequentially; returns the updates emitted.
    pub fn ingest(&mut self, sample: &Sample) -> u64 {
        self.t += 1;
        let t = self.t;
        self.pending.clear();
        let pending = &mut self.pending;
        let emitted = self.ctx.ingest(sample, |u| {
            pending.push(ShardUpdate {
                key: u.key,
                value: u.value,
                t,
            });
        });
        self.sharded.offer_batch(&self.pending);
        self.emitted += emitted;
        emitted
    }

    /// The shard a key routes to — used by tests to compute the shard-local
    /// update index a scripted panic should target.
    pub fn shard_of(&self, key: u64) -> usize {
        self.sharded.shard_of(key)
    }

    /// The merged table after `samples()` sequential samples.
    pub fn merged_sketch(&self) -> CountSketch {
        self.sharded.merged_sketch()
    }

    /// Cross-shard top pairs (same ordering contract as the serving
    /// snapshot's top list).
    pub fn top_pairs(&self) -> Vec<(u64, f64)> {
        self.sharded.top_pairs()
    }

    /// Inserted / skipped update counters summed across shards.
    pub fn update_counts(&self) -> (u64, u64) {
        (
            self.sharded.inserted_updates(),
            self.sharded.skipped_updates(),
        )
    }

    /// Samples ingested so far.
    pub fn samples(&self) -> u64 {
        self.t
    }

    /// Pair updates emitted so far.
    pub fn emitted_updates(&self) -> u64 {
        self.emitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_plan_scripted_faults_are_one_shot() {
        let plan = FaultPlan::new().panic_at(1, 5).truncate_checkpoint_at(0, 3);
        assert!(!plan.inject_panic(0, 5), "wrong shard fired");
        assert!(!plan.inject_panic(1, 4), "wrong index fired");
        assert!(plan.inject_panic(1, 5));
        assert!(!plan.inject_panic(1, 5), "panic fired twice");
        assert_eq!(plan.panics_fired(), 1);

        let mut bytes = vec![0u8; 10];
        plan.corrupt_checkpoint(1, &mut bytes);
        assert_eq!(bytes.len(), 10, "wrong shard truncated");
        plan.corrupt_checkpoint(0, &mut bytes);
        assert_eq!(bytes.len(), 3);
        let mut again = vec![0u8; 10];
        plan.corrupt_checkpoint(0, &mut again);
        assert_eq!(again.len(), 10, "truncation fired twice");
        assert_eq!(plan.truncations_fired(), 1);
    }

    #[test]
    fn triggers_fire_per_their_rule_and_deterministically() {
        let mut once = Trigger::one_shot();
        assert!(once.offer());
        assert!(!once.offer());
        assert_eq!((once.fired(), once.matches()), (1, 2));

        let mut third = Trigger::every(3);
        let pattern: Vec<bool> = (0..9).map(|_| third.offer()).collect();
        assert_eq!(
            pattern,
            [false, false, true, false, false, true, false, false, true]
        );
        assert_eq!(third.fired(), 3);

        let mut a = Trigger::probability(0.5, 42);
        let mut b = Trigger::probability(0.5, 42);
        let pa: Vec<bool> = (0..64).map(|_| a.offer()).collect();
        let pb: Vec<bool> = (0..64).map(|_| b.offer()).collect();
        assert_eq!(pa, pb, "probability trigger not seed-deterministic");
        assert!(a.fired() > 8 && a.fired() < 56, "fired {} of 64", a.fired());
        assert!(!Trigger::probability(0.0, 7).offer());
        assert!(Trigger::probability(1.0, 7).offer());
    }

    #[test]
    fn holds_block_and_release() {
        use std::sync::Arc;
        let plan = Arc::new(FaultPlan::new());
        plan.set_hold_batches(true);
        let worker = {
            let plan = plan.clone();
            std::thread::spawn(move || plan.before_batch(0))
        };
        // The worker cannot finish while the hold is set; give it a moment
        // to park, then release and require completion.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!worker.is_finished(), "hold did not block");
        plan.set_hold_batches(false);
        worker.join().unwrap();
    }
}

// ---------------------------------------------------------------------------
// Filesystem fault injection
// ---------------------------------------------------------------------------

#[derive(Default)]
struct FaultFsState {
    /// Global operation counter (create / write / sync / rename / remove /
    /// sync_dir), the index space of [`FaultFs::crash_at_op`].
    ops: u64,
    writes: u64,
    syncs: u64,
    dir_syncs: u64,
    bytes_written: u64,
    log: Vec<String>,
    crashed: bool,
    crash_at_op: Option<u64>,
    /// `(write index, bytes that reach the file)` — the write *errors*
    /// after a prefix lands, like a real torn write.
    torn_write: Option<(u64, usize)>,
    /// `(write index, bytes accepted)` — the write *succeeds short*,
    /// exercising the caller's partial-write loop.
    short_write: Option<(u64, usize)>,
    /// File-sync indices that fail.
    fail_syncs: Vec<u64>,
    /// Directory-sync indices that fail.
    fail_dir_syncs: Vec<u64>,
    /// Remaining byte budget before every write fails with `StorageFull`.
    enospc_budget: Option<u64>,
    /// Re-armable torn-write rule: `(trigger, bytes that land)`.
    torn_trigger: Option<(Trigger, usize)>,
    /// Re-armable short-write rule: `(trigger, bytes accepted)`.
    short_trigger: Option<(Trigger, usize)>,
    /// Re-armable file-fsync failure rule.
    sync_trigger: Option<Trigger>,
    /// Re-armable directory-fsync failure rule.
    dir_sync_trigger: Option<Trigger>,
    registry: Option<Arc<FaultSiteRegistry>>,
}

impl FaultFsState {
    fn record(&self, site: &'static str) {
        if let Some(registry) = &self.registry {
            registry.record(site);
        }
    }
    /// Counts one operation and applies the crash script: at the crash
    /// point the filesystem "dies" — this operation and every later one
    /// fail. Returns the operation's index.
    fn begin_op(&mut self, what: &str) -> std::io::Result<u64> {
        if self.crashed {
            return Err(std::io::Error::other(format!(
                "simulated crash: {what} after the filesystem died"
            )));
        }
        let op = self.ops;
        self.ops += 1;
        if self.crash_at_op == Some(op) {
            self.crashed = true;
            self.log.push(format!("CRASH at op {op}: {what}"));
            self.record(SITE_FS_CRASH);
            return Err(std::io::Error::other(format!(
                "simulated crash at op {op}: {what}"
            )));
        }
        self.log.push(what.to_string());
        Ok(op)
    }
}

fn short_name(path: &std::path::Path) -> String {
    path.file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.display().to_string())
}

/// A [`DurableFs`] wrapper over the real filesystem with scripted fault
/// injection: torn writes (a prefix lands, then an error), short writes
/// (fewer bytes accepted than offered), failing the Nth file or directory
/// fsync, ENOSPC after a byte budget, and a whole-filesystem crash at the
/// Nth operation — the primitive behind the kill-at-every-crash-point
/// recovery matrix. Every operation is appended to an inspectable log so
/// tests can assert protocol ordering (create → write → fsync → rename →
/// directory fsync).
///
/// All faults are scripted up front (builder methods), deterministic, and
/// shared: wrap the finished script in an [`std::sync::Arc`], hand a clone
/// to `ServingEstimator::launch_durable_with_faults` (it coerces to
/// `Arc<dyn DurableFs>`), and keep the other clone to read counters.
///
/// [`DurableFs`]: ascs_sketch_hash::codec::DurableFs
#[derive(Default)]
pub struct FaultFs {
    state: std::sync::Arc<Mutex<FaultFsState>>,
}

impl FaultFs {
    /// A transparent wrapper: no faults, but full counting and logging.
    pub fn new() -> Self {
        Self::default()
    }

    /// The write with this index (0-based, counted across all files)
    /// writes only its first `keep` bytes, then errors.
    #[must_use]
    pub fn torn_write_at(self, write_index: u64, keep: usize) -> Self {
        lock(&self.state).torn_write = Some((write_index, keep));
        self
    }

    /// The write with this index accepts only `keep` bytes and returns
    /// `Ok(keep)` — a well-behaved caller must loop.
    #[must_use]
    pub fn short_write_at(self, write_index: u64, keep: usize) -> Self {
        lock(&self.state).short_write = Some((write_index, keep));
        self
    }

    /// The file fsync with this index (0-based) fails.
    #[must_use]
    pub fn fail_sync(self, sync_index: u64) -> Self {
        lock(&self.state).fail_syncs.push(sync_index);
        self
    }

    /// The directory fsync with this index (0-based) fails.
    #[must_use]
    pub fn fail_dir_sync(self, sync_index: u64) -> Self {
        lock(&self.state).fail_dir_syncs.push(sync_index);
        self
    }

    /// Every write past this cumulative byte budget fails with
    /// [`std::io::ErrorKind::StorageFull`] (nothing further lands).
    #[must_use]
    pub fn enospc_after(self, bytes: u64) -> Self {
        lock(&self.state).enospc_budget = Some(bytes);
        self
    }

    /// The filesystem dies at the operation with this index (0-based over
    /// every create/write/sync/rename/remove/dir-sync): that operation
    /// and all later ones fail. Run once unscripted and read
    /// [`FaultFs::op_count`] to learn the index space.
    #[must_use]
    pub fn crash_at_op(self, op_index: u64) -> Self {
        lock(&self.state).crash_at_op = Some(op_index);
        self
    }

    /// Re-armable torn writes: each time `trigger` fires, the write lands
    /// only its first `keep` bytes and then errors. The one-shot
    /// [`FaultFs::torn_write_at`] script, if also set, is consulted first.
    #[must_use]
    pub fn torn_write_trigger(self, trigger: Trigger, keep: usize) -> Self {
        lock(&self.state).torn_trigger = Some((trigger, keep));
        self
    }

    /// Re-armable short writes: each time `trigger` fires, the write
    /// accepts only `keep` bytes and returns `Ok(keep)`.
    #[must_use]
    pub fn short_write_trigger(self, trigger: Trigger, keep: usize) -> Self {
        lock(&self.state).short_trigger = Some((trigger, keep));
        self
    }

    /// Re-armable file-fsync failures: each time `trigger` fires, the
    /// fsync errors.
    #[must_use]
    pub fn fail_sync_trigger(self, trigger: Trigger) -> Self {
        lock(&self.state).sync_trigger = Some(trigger);
        self
    }

    /// Re-armable directory-fsync failures.
    #[must_use]
    pub fn fail_dir_sync_trigger(self, trigger: Trigger) -> Self {
        lock(&self.state).dir_sync_trigger = Some(trigger);
        self
    }

    /// Attaches a fault-site registry: every filesystem fault site is
    /// registered up front and recorded each time its fault fires.
    #[must_use]
    pub fn with_registry(self, registry: Arc<FaultSiteRegistry>) -> Self {
        for site in FS_FAULT_SITES {
            registry.register(site);
        }
        lock(&self.state).registry = Some(registry);
        self
    }

    /// Arms a one-shot torn write after construction (`&self`, so the
    /// chaos runner can script faults against a live filesystem relative
    /// to its current [`FaultFs::write_count`]).
    pub fn arm_torn_write(&self, write_index: u64, keep: usize) {
        lock(&self.state).torn_write = Some((write_index, keep));
    }

    /// Arms a one-shot short write after construction.
    pub fn arm_short_write(&self, write_index: u64, keep: usize) {
        lock(&self.state).short_write = Some((write_index, keep));
    }

    /// Arms one more failing file fsync after construction.
    pub fn arm_fail_sync(&self, sync_index: u64) {
        lock(&self.state).fail_syncs.push(sync_index);
    }

    /// Arms one more failing directory fsync after construction.
    pub fn arm_fail_dir_sync(&self, index: u64) {
        lock(&self.state).fail_dir_syncs.push(index);
    }

    /// (Re)sets the remaining ENOSPC byte budget after construction.
    pub fn arm_enospc(&self, bytes: u64) {
        lock(&self.state).enospc_budget = Some(bytes);
    }

    /// Operations performed so far.
    pub fn op_count(&self) -> u64 {
        lock(&self.state).ops
    }

    /// Write operations performed so far.
    pub fn write_count(&self) -> u64 {
        lock(&self.state).writes
    }

    /// File fsyncs performed so far.
    pub fn sync_count(&self) -> u64 {
        lock(&self.state).syncs
    }

    /// Directory fsyncs performed so far.
    pub fn dir_sync_count(&self) -> u64 {
        lock(&self.state).dir_syncs
    }

    /// Bytes accepted by writes so far (short writes count what landed).
    pub fn bytes_written(&self) -> u64 {
        lock(&self.state).bytes_written
    }

    /// Whether the scripted crash point has fired.
    pub fn crashed(&self) -> bool {
        lock(&self.state).crashed
    }

    /// A copy of the operation log, in order.
    pub fn log(&self) -> Vec<String> {
        lock(&self.state).log.clone()
    }
}

/// One file opened through [`FaultFs`]; every write and sync goes through
/// the shared fault script.
struct FaultFile {
    inner: std::fs::File,
    name: String,
    state: std::sync::Arc<Mutex<FaultFsState>>,
}

impl std::io::Write for FaultFile {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut s = lock(&self.state);
        s.begin_op(&format!("write {} bytes -> {}", buf.len(), self.name))?;
        let write_index = s.writes;
        s.writes += 1;
        let torn = match s.torn_write {
            Some((index, keep)) if index == write_index => {
                s.torn_write = None;
                Some(keep)
            }
            _ => match &mut s.torn_trigger {
                Some((trigger, keep)) => trigger.offer().then_some(*keep),
                None => None,
            },
        };
        if let Some(keep) = torn {
            s.record(SITE_FS_TORN_WRITE);
            s.log
                .push(format!("TORN write -> {} after {keep} bytes", self.name));
            drop(s);
            let keep = keep.min(buf.len());
            self.inner.write_all(&buf[..keep])?;
            return Err(std::io::Error::other("injected torn write"));
        }
        let short = match s.short_write {
            Some((index, keep)) if index == write_index => {
                s.short_write = None;
                Some(keep)
            }
            _ => match &mut s.short_trigger {
                Some((trigger, keep)) => trigger.offer().then_some(*keep),
                None => None,
            },
        };
        if let Some(keep) = short {
            let keep = keep.min(buf.len());
            s.record(SITE_FS_SHORT_WRITE);
            s.log.push(format!(
                "SHORT write -> {} accepted {keep} bytes",
                self.name
            ));
            s.bytes_written += keep as u64;
            drop(s);
            self.inner.write_all(&buf[..keep])?;
            return Ok(keep);
        }
        if let Some(budget) = s.enospc_budget {
            if buf.len() as u64 > budget {
                s.record(SITE_FS_ENOSPC);
                s.log.push(format!("ENOSPC write -> {}", self.name));
                return Err(std::io::Error::new(
                    std::io::ErrorKind::StorageFull,
                    "injected ENOSPC",
                ));
            }
            s.enospc_budget = Some(budget - buf.len() as u64);
        }
        s.bytes_written += buf.len() as u64;
        drop(s);
        self.inner.write_all(buf)?;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.inner.flush()
    }
}

impl ascs_sketch_hash::codec::DurableFile for FaultFile {
    fn sync(&mut self) -> std::io::Result<()> {
        let mut s = lock(&self.state);
        s.begin_op(&format!("sync {}", self.name))?;
        let sync_index = s.syncs;
        s.syncs += 1;
        let scripted = if let Some(pos) = s.fail_syncs.iter().position(|&i| i == sync_index) {
            s.fail_syncs.swap_remove(pos);
            true
        } else {
            match &mut s.sync_trigger {
                Some(trigger) => trigger.offer(),
                None => false,
            }
        };
        if scripted {
            s.record(SITE_FS_FAIL_SYNC);
            s.log
                .push(format!("FAILED sync {} (index {sync_index})", self.name));
            return Err(std::io::Error::other("injected fsync failure"));
        }
        drop(s);
        self.inner.sync_all()
    }
}

impl ascs_sketch_hash::codec::DurableFs for FaultFs {
    fn create(
        &self,
        path: &std::path::Path,
    ) -> std::io::Result<Box<dyn ascs_sketch_hash::codec::DurableFile>> {
        let name = short_name(path);
        lock(&self.state).begin_op(&format!("create {name}"))?;
        let inner = std::fs::File::create(path)?;
        Ok(Box::new(FaultFile {
            inner,
            name,
            state: self.state.clone(),
        }))
    }

    fn rename(&self, from: &std::path::Path, to: &std::path::Path) -> std::io::Result<()> {
        lock(&self.state).begin_op(&format!(
            "rename {} -> {}",
            short_name(from),
            short_name(to)
        ))?;
        std::fs::rename(from, to)
    }

    fn remove_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        lock(&self.state).begin_op(&format!("remove {}", short_name(path)))?;
        std::fs::remove_file(path)
    }

    fn sync_dir(&self, dir: &std::path::Path) -> std::io::Result<()> {
        let mut s = lock(&self.state);
        s.begin_op(&format!("sync_dir {}", short_name(dir)))?;
        let dir_sync_index = s.dir_syncs;
        s.dir_syncs += 1;
        let scripted = if let Some(pos) = s.fail_dir_syncs.iter().position(|&i| i == dir_sync_index)
        {
            s.fail_dir_syncs.swap_remove(pos);
            true
        } else {
            match &mut s.dir_sync_trigger {
                Some(trigger) => trigger.offer(),
                None => false,
            }
        };
        if scripted {
            s.record(SITE_FS_FAIL_DIR_SYNC);
            s.log
                .push(format!("FAILED sync_dir (index {dir_sync_index})"));
            return Err(std::io::Error::other("injected directory fsync failure"));
        }
        drop(s);
        std::fs::File::open(dir)?.sync_all()
    }

    fn open_read(&self, path: &std::path::Path) -> std::io::Result<Box<dyn std::io::Read + Send>> {
        let name = short_name(path);
        lock(&self.state).begin_op(&format!("open_read {name}"))?;
        let inner = std::fs::File::open(path)?;
        Ok(Box::new(FaultReadFile {
            inner,
            name,
            state: self.state.clone(),
        }))
    }
}

/// One file opened for reading through [`FaultFs`]: every `read` call
/// counts as an operation against the same crash script as writes, so
/// [`FaultFs::crash_at_op`] can land *mid-recovery*, while the WAL or a
/// checkpoint is being replayed.
struct FaultReadFile {
    inner: std::fs::File,
    name: String,
    state: std::sync::Arc<Mutex<FaultFsState>>,
}

impl std::io::Read for FaultReadFile {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        lock(&self.state).begin_op(&format!("read {}", self.name))?;
        std::io::Read::read(&mut self.inner, buf)
    }
}

#[cfg(test)]
mod fs_tests {
    use super::*;
    use ascs_sketch_hash::codec::DurableFs as _;
    use std::io::Write as _;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ascs-faultfs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn transparent_fs_counts_and_logs_everything() {
        let dir = temp_dir("clean");
        let fs = FaultFs::new();
        let mut f = fs.create(&dir.join("a.tmp")).unwrap();
        f.write_all(b"hello").unwrap();
        f.sync().unwrap();
        drop(f);
        fs.rename(&dir.join("a.tmp"), &dir.join("a")).unwrap();
        fs.sync_dir(&dir).unwrap();
        fs.remove_file(&dir.join("a")).unwrap();

        assert_eq!(fs.op_count(), 6);
        assert_eq!(fs.write_count(), 1);
        assert_eq!(fs.sync_count(), 1);
        assert_eq!(fs.dir_sync_count(), 1);
        assert_eq!(fs.bytes_written(), 5);
        assert!(!fs.crashed());
        let log = fs.log();
        assert!(log[0].starts_with("create"), "{log:?}");
        assert!(log[1].starts_with("write"), "{log:?}");
        assert!(log[2].starts_with("sync a.tmp"), "{log:?}");
        assert!(log[3].starts_with("rename"), "{log:?}");
        assert!(log[4].starts_with("sync_dir"), "{log:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_lands_prefix_then_errors() {
        let dir = temp_dir("torn");
        let fs = FaultFs::new().torn_write_at(0, 3);
        let mut f = fs.create(&dir.join("t")).unwrap();
        let err = f.write_all(b"abcdef").unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        drop(f);
        assert_eq!(std::fs::read(dir.join("t")).unwrap(), b"abc");
        // The fault is one-shot: a retry through a fresh file succeeds.
        let mut f = fs.create(&dir.join("t2")).unwrap();
        f.write_all(b"abcdef").unwrap();
        drop(f);
        assert_eq!(std::fs::read(dir.join("t2")).unwrap(), b"abcdef");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn short_write_forces_the_caller_to_loop() {
        let dir = temp_dir("short");
        let fs = FaultFs::new().short_write_at(0, 2);
        let mut f = fs.create(&dir.join("s")).unwrap();
        // write_all loops over the short acceptance, so the full payload
        // still lands — in two write ops.
        f.write_all(b"abcdef").unwrap();
        drop(f);
        assert_eq!(std::fs::read(dir.join("s")).unwrap(), b"abcdef");
        assert_eq!(fs.write_count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fail_nth_sync_and_enospc_fire_once_each() {
        let dir = temp_dir("syncfull");
        let fs = FaultFs::new().fail_sync(1).enospc_after(4);
        let mut f = fs.create(&dir.join("f")).unwrap();
        f.write_all(b"abcd").unwrap();
        f.sync().unwrap();
        let err = f.write_all(b"x").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
        let err = f.sync().unwrap_err();
        assert!(err.to_string().contains("fsync"), "{err}");
        f.sync().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_at_op_kills_the_filesystem_permanently() {
        let dir = temp_dir("crash");
        let fs = FaultFs::new().crash_at_op(2);
        let mut f = fs.create(&dir.join("c")).unwrap(); // op 0
        f.write_all(b"ab").unwrap(); // op 1
        let err = f.write_all(b"cd").unwrap_err(); // op 2: crash
        assert!(err.to_string().contains("crash"), "{err}");
        assert!(fs.crashed());
        // Everything after the crash point fails too.
        assert!(f.sync().is_err());
        assert!(fs.create(&dir.join("c2")).is_err());
        assert!(fs.rename(&dir.join("c"), &dir.join("c3")).is_err());
        assert!(fs.sync_dir(&dir).is_err());
        assert_eq!(std::fs::read(dir.join("c")).unwrap(), b"ab");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
