//! The supervision tree behind [`crate::serve::ServingEstimator`]: bounded
//! shard queues, the worker loop (apply → checkpoint → collect), and the
//! supervisor thread that restarts panicked workers from their last good
//! checkpoint and replays the in-flight batch log.
//!
//! Everything here is crate-private; the public surface lives in
//! [`crate::serve`].

use crate::ascs::AscsSketch;
use crate::serve::{FaultInjector, ServeShared};
use crate::sharded::{extend_slot_router, ShardUpdate};
use ascs_count_sketch::HashPlan;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, OnceLock};

/// Locks a mutex, clearing poison: a worker panicking while holding a lock
/// must not take the whole service down — the supervisor restores the
/// protected state from the checkpoint anyway.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// What flows through a shard queue, in strict FIFO order.
pub(crate) enum Envelope {
    /// One sample's updates for this shard, to be applied in order.
    Batch(Vec<ShardUpdate>),
    /// Snapshot barrier: reply with `(shard, sketch clone)` once every
    /// batch enqueued before this envelope has been applied.
    Collect {
        /// Where the worker sends its reply.
        reply: mpsc::Sender<(usize, AscsSketch)>,
    },
    /// Stop the worker loop.
    Shutdown,
}

struct QueueInner {
    deque: VecDeque<Envelope>,
    /// Pending `Batch` envelopes only — `Collect`/`Shutdown` are control
    /// traffic and never count against the capacity.
    batches: usize,
}

/// A bounded FIFO between the single producer and one shard worker.
/// Capacity is advisory for the producer ([`ShardQueue::has_batch_room`]
/// before [`ShardQueue::push`]); the queue itself never blocks a push, so
/// control envelopes always get through.
pub(crate) struct ShardQueue {
    inner: Mutex<QueueInner>,
    ready: Condvar,
    capacity: usize,
}

impl ShardQueue {
    pub(crate) fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(QueueInner {
                deque: VecDeque::new(),
                batches: 0,
            }),
            ready: Condvar::new(),
            capacity,
        }
    }

    /// Whether another batch fits. Only the single producer may rely on
    /// this (consumers only shrink the queue, so the answer cannot go
    /// stale in the overloaded direction).
    pub(crate) fn has_batch_room(&self) -> bool {
        lock(&self.inner).batches < self.capacity
    }

    pub(crate) fn push(&self, envelope: Envelope) {
        let mut inner = lock(&self.inner);
        if matches!(envelope, Envelope::Batch(_)) {
            inner.batches += 1;
        }
        inner.deque.push_back(envelope);
        drop(inner);
        self.ready.notify_one();
    }

    /// Blocks until an envelope is available.
    pub(crate) fn pop(&self) -> Envelope {
        let mut inner = lock(&self.inner);
        loop {
            if let Some(envelope) = inner.deque.pop_front() {
                if matches!(envelope, Envelope::Batch(_)) {
                    inner.batches -= 1;
                }
                return envelope;
            }
            inner = self
                .ready
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }
}

/// Everything a restarted worker needs to reconstruct its sketch exactly:
/// the last *validated* checkpoint plus every batch applied (or mid-apply)
/// since. The producer never touches this; the worker updates it under
/// lock so a panic at any point leaves a consistent recovery recipe.
pub(crate) struct RecoveryState {
    /// Serialized [`AscsSketch`] that passed restore-validation.
    pub(crate) checkpoint: Vec<u8>,
    /// Updates the checkpoint reflects.
    pub(crate) checkpoint_updates: u64,
    /// Batches enqueued-for-apply since the checkpoint, in order. A batch
    /// is pushed here *before* the worker starts applying it, so a panic
    /// mid-batch still replays it in full.
    pub(crate) replay: Vec<Vec<ShardUpdate>>,
    /// Updates fully applied since stream start (checkpoint + completed
    /// replay batches) — the shard-local index base for fault injection.
    pub(crate) applied_updates: u64,
}

/// Per-shard state shared between producer, worker and supervisor.
pub(crate) struct WorkerShared {
    pub(crate) queue: ShardQueue,
    pub(crate) recovery: Mutex<RecoveryState>,
    /// Set by the supervisor once the restart budget is exhausted.
    pub(crate) failed: AtomicBool,
    /// Restarts performed for this shard (the budget spent so far),
    /// surfaced per shard in `ServingHealth`.
    pub(crate) restarts: AtomicU64,
}

/// The immutable spawn recipe for one worker thread (cloned to respawn).
#[derive(Clone)]
pub(crate) struct WorkerContext {
    pub(crate) shard: usize,
    pub(crate) shared: Arc<WorkerShared>,
    pub(crate) stats: Arc<ServeShared>,
    pub(crate) injector: Arc<dyn FaultInjector>,
    pub(crate) checkpoint_interval: usize,
}

pub(crate) enum WorkerEvent {
    /// Clean exit (Shutdown envelope).
    Exited,
    /// The worker body panicked; the supervisor decides restart vs fail.
    Panicked(usize),
}

/// The serving instance's hash plan over the pair universe `0..p` and its
/// slot → shard byte table.
pub(crate) struct ServePlan {
    /// `(bucket, sign)` of every pair key; snapshots share it for
    /// whole-universe reads.
    pub(crate) plan: Arc<HashPlan>,
    /// `router[key]` is the shard owning `key`.
    pub(crate) router: Vec<u8>,
}

/// What a [`ServePlan`] is built from.
#[derive(Clone, Copy)]
pub(crate) struct PlanRecipe {
    pub(crate) pairs: usize,
    pub(crate) router_salt: u64,
    pub(crate) shards: usize,
}

/// The instance's [`ServePlan`], filled once by the first worker to
/// receive a batch and shared by every worker, restart and snapshot after
/// that. Empty for good when the instance is above the plan size rule
/// (`recipe` is `None`).
pub(crate) struct PlanCell {
    recipe: Option<PlanRecipe>,
    cell: OnceLock<ServePlan>,
}

impl PlanCell {
    pub(crate) fn new(recipe: Option<PlanRecipe>) -> Self {
        Self {
            recipe,
            cell: OnceLock::new(),
        }
    }

    /// The plan if a worker has built it; never blocks. The producer and
    /// the snapshots stay on the hashed path until then.
    pub(crate) fn ready(&self) -> Option<&ServePlan> {
        self.cell.get()
    }

    /// The plan, built from `sketch`'s hash family on the first call
    /// (concurrent callers wait for that build); `None` above the size
    /// rule.
    fn get_or_build(&self, sketch: &AscsSketch) -> Option<&ServePlan> {
        let recipe = self.recipe?;
        Some(self.cell.get_or_init(|| {
            let mut router = Vec::with_capacity(recipe.pairs);
            extend_slot_router(&mut router, recipe.pairs, recipe.router_salt, recipe.shards);
            ServePlan {
                plan: Arc::new(sketch.sketch().build_plan(recipe.pairs)),
                router,
            }
        }))
    }
}

/// Applies one batch through [`AscsSketch::ingest_batch`]'s driver — on
/// the plan when one is given, hashed otherwise — with optional fault
/// injection (first delivery only; `base` is the shard-local index of the
/// batch's first update, and the injector is asked before every update).
/// The driver memoizes the gate per distinct `t`, so gated results are
/// bit-identical to sequential ingestion.
pub(crate) fn apply_batch(
    sketch: &mut AscsSketch,
    batch: &[ShardUpdate],
    plan: Option<&HashPlan>,
    inject: Option<(&dyn FaultInjector, usize, u64)>,
) {
    sketch.ingest_batch_with(plan, batch, |i| {
        if let Some((injector, shard, base)) = inject {
            let index = base + i as u64;
            if injector.inject_panic(shard, index) {
                panic!("injected fault: shard {shard} update {index}");
            }
        }
    });
}

/// Decrements the shared `recovering` gauge exactly once — on the normal
/// path *and* when an injected panic unwinds out of a recovery replay
/// (the supervisor re-increments before each respawn). Without this, a
/// crash-during-recovery would inflate the gauge permanently and pin the
/// service degraded.
struct RecoveringGuard<'a> {
    stats: &'a ServeShared,
}

impl Drop for RecoveringGuard<'_> {
    fn drop(&mut self) {
        self.stats.recovering.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The worker body. On entry (cold start *and* restart) the sketch is
/// rebuilt from the recovery state: restore the last good checkpoint, then
/// replay every logged batch — without fault injection by default, so an
/// injected panic cannot loop forever. An injector opting in via
/// [`FaultInjector::inject_during_recovery`] has its panics offered during
/// the replay too (shard-local indices continue from the checkpoint base);
/// the supervisor's restart budget bounds the resulting crash loop. The
/// loop then serves the queue until `Shutdown`.
///
/// The first worker to receive a batch builds the instance's
/// [`ServePlan`] (when the instance is under the plan size rule): off the
/// launch thread, and after launch has returned, so launch latency does
/// not pay for it. From then on every worker applies its live batches,
/// and a restarted worker its replay, on the plan path.
fn run_worker(ctx: &WorkerContext, recovering: bool) {
    let recovering_guard = recovering.then(|| RecoveringGuard { stats: &ctx.stats });
    if recovering {
        ctx.injector.before_recovery(ctx.shard);
    }
    let inject_replay = recovering && ctx.injector.inject_during_recovery();
    let mut plan = ctx.stats.plan.ready().map(|p| &*p.plan);
    let mut sketch = {
        let mut rec = lock(&ctx.shared.recovery);
        let mut restored = AscsSketch::restore(&mut rec.checkpoint.as_slice())
            .expect("recovery checkpoint was validated when written");
        let mut base = rec.checkpoint_updates;
        for batch in &rec.replay {
            let inject =
                inject_replay.then_some((&*ctx.injector as &dyn FaultInjector, ctx.shard, base));
            apply_batch(&mut restored, batch, plan, inject);
            base += batch.len() as u64;
        }
        rec.applied_updates = base;
        restored
    };
    drop(recovering_guard);
    loop {
        match ctx.shared.queue.pop() {
            Envelope::Batch(batch) => {
                ctx.injector.before_batch(ctx.shard);
                if plan.is_none() {
                    plan = ctx.stats.plan.get_or_build(&sketch).map(|p| &*p.plan);
                }
                let len = batch.len() as u64;
                let mut rec = lock(&ctx.shared.recovery);
                let base = rec.applied_updates;
                // Log before applying: a panic mid-batch must replay the
                // whole batch, and `applied_updates` still points at its
                // first update.
                rec.replay.push(batch);
                let logged = rec.replay.last().expect("just pushed");
                apply_batch(
                    &mut sketch,
                    logged,
                    plan,
                    Some((&*ctx.injector, ctx.shard, base)),
                );
                rec.applied_updates = base + len;
                if rec.replay.len() >= ctx.checkpoint_interval {
                    let mut bytes = Vec::with_capacity(rec.checkpoint.len());
                    sketch
                        .save(&mut bytes)
                        .expect("in-memory checkpoint write cannot fail");
                    ctx.injector.corrupt_checkpoint(ctx.shard, &mut bytes);
                    // Validate before committing: a torn record must never
                    // become "the last good checkpoint". On rejection the
                    // old checkpoint stays and the replay log keeps
                    // growing — correctness is unaffected, recovery just
                    // replays more.
                    if AscsSketch::restore(&mut bytes.as_slice()).is_ok() {
                        rec.checkpoint = bytes;
                        rec.checkpoint_updates = rec.applied_updates;
                        rec.replay.clear();
                    } else {
                        ctx.stats.torn_checkpoints.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
            Envelope::Collect { reply } => {
                let _ = reply.send((ctx.shard, sketch.clone()));
            }
            Envelope::Shutdown => return,
        }
    }
}

/// Spawns one worker thread whose body runs under `catch_unwind`; the exit
/// disposition is reported to the supervisor. Handles are detached — the
/// supervisor owns lifecycle through the event channel.
pub(crate) fn spawn_worker(
    ctx: WorkerContext,
    events: mpsc::Sender<WorkerEvent>,
    recovering: bool,
) {
    std::thread::spawn(move || {
        let shard = ctx.shard;
        let outcome = catch_unwind(AssertUnwindSafe(|| run_worker(&ctx, recovering)));
        let event = match outcome {
            Ok(()) => WorkerEvent::Exited,
            Err(_) => WorkerEvent::Panicked(shard),
        };
        let _ = events.send(event);
    });
}

/// Spawns the supervisor thread: it watches worker exits, restarts
/// panicked workers (recovery path) until the per-shard budget is spent,
/// then marks the shard failed. Returns once every worker is gone.
pub(crate) fn spawn_supervisor(
    contexts: Vec<WorkerContext>,
    events_tx: mpsc::Sender<WorkerEvent>,
    events_rx: mpsc::Receiver<WorkerEvent>,
    max_restarts: u64,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut live = contexts.len();
        while live > 0 {
            match events_rx.recv() {
                Ok(WorkerEvent::Exited) => live -= 1,
                Ok(WorkerEvent::Panicked(shard)) => {
                    let ctx = &contexts[shard];
                    ctx.stats.panics.fetch_add(1, Ordering::SeqCst);
                    if ctx.shared.restarts.load(Ordering::SeqCst) >= max_restarts {
                        ctx.shared.failed.store(true, Ordering::SeqCst);
                        ctx.stats.failed_shards.fetch_add(1, Ordering::SeqCst);
                        live -= 1;
                    } else {
                        ctx.shared.restarts.fetch_add(1, Ordering::SeqCst);
                        ctx.stats.restarts.fetch_add(1, Ordering::SeqCst);
                        ctx.stats.recovering.fetch_add(1, Ordering::SeqCst);
                        spawn_worker(ctx.clone(), events_tx.clone(), true);
                    }
                }
                Err(_) => break,
            }
        }
    })
}
