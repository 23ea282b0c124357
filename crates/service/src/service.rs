//! The worker pool, admission queue, and completion handles.
//!
//! ## Architecture
//!
//! Submitted batches become [`WorkUnit`]s in the admission queue guarded
//! by one `parking_lot` mutex. Workers claim jobs by bumping the unit's
//! claim index under that mutex — work stealing over an index rather
//! than per-worker deques, which keeps claiming O(1) and makes job order
//! irrelevant to results (each job carries its own seeds). Two condvars
//! implement the bounded-queue protocol: `not_empty` parks idle workers,
//! `not_full` parks producers once `queue_capacity` jobs are waiting.
//!
//! A thread blocked in [`Batch::wait`] or [`JobHandle::wait`] is an
//! executor too: while its own unit is the one the scheduler would serve
//! next, it claims and runs that unit's jobs through the same claim and
//! execution path a worker uses, and parks only when its unit is done,
//! fully claimed, or not next. A thread is woken only when it is parked
//! and can proceed: an enqueue of one job wakes one worker, and a
//! completion wakes a unit's waiter only once the unit is finished (or,
//! when per-job handles share it, on every job).
//!
//! A submitter can be an executor as well ([`SubmitOptions::inline`]): a
//! one-job batch whose predicted cost is under [`INLINE_MAX_QUERIES`],
//! arriving when no job is queued and every worker is parked, is claimed
//! in the same lock hold that queues it and run on the submitting thread
//! before `submit_with` returns, instead of waking a worker for it. The
//! prediction is the mean group queries of the jobs of the same shape
//! run so far ([`CostTable`]); a shape not yet seen is never run inline.
//!
//! ## Scheduling
//!
//! Dequeue is per-tenant **deficit round robin**: each tenant owns a
//! queue of units (three priority bands — see
//! [`tcast_tenant::Priority`]), and a rotation of busy tenants is served
//! in turns of `weight` jobs each. With a single tenant (every job on
//! the default lane) the rotation has one entry and DRR degenerates to
//! exactly the old strict-FIFO order, so single-tenant behavior — and
//! every committed figure — is bit-identical to the pre-tenancy service.
//!
//! When a [`TenantRegistry`] is attached
//! ([`QueryService::with_tenants`]), admission additionally charges each
//! job's tenant quotas (token bucket + max in flight); a tenant over
//! quota gets the batch back as [`SubmitError::QuotaExceeded`] without
//! queueing anything.
//!
//! Each job runs under `catch_unwind`, so a panicking session surfaces as
//! [`JobError::Panicked`] in its own slot without taking down the worker
//! or the rest of the batch. Shutdown drains the queue: workers keep
//! claiming until no unit remains, then exit.

use std::borrow::Cow;
use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::{Condvar, Mutex};
use tcast_tenant::{Priority, TenantId, TenantRegistry};

use tcast::{BatchRunner, DefensePolicy, ExecutionProfile, RetryPolicy, RoundTrace};

use crate::cache::SessionCache;
use crate::job::{JobError, JobOutput, JobResult, QueryJob};
use crate::metrics::{MetricsRegistry, MetricsSnapshot};

/// Pool configuration.
///
/// Non-exhaustive: construct via [`ServiceConfig::default`] (or
/// [`ServiceConfig::with_workers`]) and the `with_*` builders, so configs
/// written today keep compiling as knobs are added.
#[derive(Debug, Clone, Copy)]
#[non_exhaustive]
pub struct ServiceConfig {
    /// Worker threads; `0` means one per available CPU.
    pub workers: usize,
    /// Maximum jobs waiting in the admission queue before `submit` blocks
    /// (and `try_submit` rejects).
    pub queue_capacity: usize,
    /// Capacity (in reports) of the LRU session result cache consulted
    /// before executing a query job; `0` (the default) disables caching.
    /// Safe at any size: keys are the job's exact encoded identity
    /// ([`QueryJob::cache_key`]), and execution is a pure function of it.
    pub session_cache: usize,
    /// Maximum jobs a worker claims per scheduler pass (one lock hold),
    /// then executes back to back over its pooled engine buffers
    /// (default 8). Scheduling order, per-job queue-wait accounting,
    /// deadlines, and report bits are identical at any batch size;
    /// larger batches only amortize lock traffic. `1` restores
    /// job-at-a-time dequeueing. A waiting thread that helps claims one
    /// job at a time whatever this is.
    pub batch_size: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            workers: 0,
            queue_capacity: 4096,
            session_cache: 0,
            batch_size: 8,
        }
    }
}

impl ServiceConfig {
    /// Config with an explicit worker count.
    #[must_use = "the config does nothing until passed to QueryService::new"]
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers,
            ..Self::default()
        }
    }

    /// Returns the config with an explicit per-worker dequeue batch size
    /// (clamped to at least 1).
    #[must_use = "builder methods return a new config; the original is unchanged"]
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Returns the config with an explicit admission-queue capacity.
    #[must_use = "builder methods return a new config; the original is unchanged"]
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.queue_capacity = queue_capacity;
        self
    }

    /// Returns the config with a session result cache of `capacity`
    /// reports (`0` disables caching).
    #[must_use = "builder methods return a new config; the original is unchanged"]
    pub fn with_session_cache(mut self, capacity: usize) -> Self {
        self.session_cache = capacity;
        self
    }
}

/// Error returned when submitting to a service that is shutting down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceClosed;

impl std::fmt::Display for ServiceClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("query service is shut down")
    }
}

impl std::error::Error for ServiceClosed {}

/// Why [`QueryService::try_submit`] did not accept a batch. The jobs are
/// handed back so the caller can retry or shed load.
#[derive(Debug)]
pub enum SubmitError {
    /// The admission queue is full; contains the rejected jobs.
    QueueFull(Vec<QueryJob>),
    /// The service is shutting down; contains the rejected jobs.
    Closed(Vec<QueryJob>),
    /// A submitting tenant is over its quota (token-bucket rate or
    /// max-in-flight cap); contains the rejected jobs. Nothing was
    /// queued and nothing stays charged. Unlike `QueueFull`, blocking
    /// admission does not wait this out — quota rejection is load
    /// shedding, not backpressure.
    QuotaExceeded(Vec<QueryJob>),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::QueueFull(jobs) => {
                write!(f, "admission queue full ({} jobs rejected)", jobs.len())
            }
            SubmitError::Closed(jobs) => {
                write!(f, "service is shut down ({} jobs rejected)", jobs.len())
            }
            SubmitError::QuotaExceeded(jobs) => {
                write!(f, "tenant quota exceeded ({} jobs rejected)", jobs.len())
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Completion hook invoked on the worker thread as each job of a watched
/// batch finishes, with the job's [`Completion`] and its result.
///
/// Callbacks run on worker threads and must be cheap and panic-free —
/// typically handing the result to a channel, as the network front-end
/// does to stream responses in completion order. One watcher can serve
/// many batches: the batch's tag tells them apart.
pub type CompletionWatcher = Arc<dyn Fn(Completion, &JobResult) + Send + Sync>;

/// Which job a [`CompletionWatcher`] call reports on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// The job's index within its batch.
    pub index: usize,
    /// The batch's tag ([`SubmitOptions::tagged`]; `0` when unset).
    pub tag: u64,
    /// The job's trace id.
    pub trace: tcast_obs::TraceId,
}

/// How [`QueryService::submit_with`] admits a batch: the one options
/// struct behind the whole submit surface. The named entrypoints
/// ([`QueryService::submit`], [`QueryService::try_submit`],
/// [`QueryService::submit_watched`]) are thin delegates over three
/// corners of this space; the network front-end submits non-blocking
/// and watched, with a tag, through `submit_with` itself.
#[derive(Clone)]
pub struct SubmitOptions {
    /// Block while the admission queue is over capacity (backpressure).
    /// With `false`, a full queue hands the jobs back as
    /// [`SubmitError::QueueFull`] instead.
    pub blocking: bool,
    /// Completion hook invoked on the worker thread as each job
    /// finishes, in completion order; `None` for plain batches.
    pub watcher: Option<CompletionWatcher>,
    /// Passed to the watcher with every completion of the batch, so one
    /// watcher can serve many batches (the network front-end tags each
    /// batch with its request id).
    pub tag: u64,
    /// Run a cheap one-job batch on the submitting thread when handing it
    /// over would cost a worker wakeup: no job is queued, every worker
    /// is parked, and jobs of its shape have averaged under
    /// [`INLINE_MAX_QUERIES`] group queries. The job is admitted, claimed,
    /// executed and recorded exactly as a worker would, watcher included,
    /// and the returned batch is already complete.
    pub inline: bool,
}

impl Default for SubmitOptions {
    fn default() -> Self {
        Self {
            blocking: true,
            watcher: None,
            tag: 0,
            inline: false,
        }
    }
}

impl SubmitOptions {
    /// Blocking admission, no completion hook — the `submit` corner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the options with non-blocking admission (full queue →
    /// [`SubmitError::QueueFull`]).
    #[must_use = "builder methods return new options; the original is unchanged"]
    pub fn nonblocking(mut self) -> Self {
        self.blocking = false;
        self
    }

    /// Returns the options with a completion hook.
    #[must_use = "builder methods return new options; the original is unchanged"]
    pub fn watched(mut self, watcher: CompletionWatcher) -> Self {
        self.watcher = Some(watcher);
        self
    }

    /// Returns the options with the tag the watcher receives.
    #[must_use = "builder methods return new options; the original is unchanged"]
    pub fn tagged(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Returns the options with [`Self::inline`] set.
    #[must_use = "builder methods return new options; the original is unchanged"]
    pub fn inline(mut self) -> Self {
        self.inline = true;
        self
    }
}

impl std::fmt::Debug for SubmitOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitOptions")
            .field("blocking", &self.blocking)
            .field("watcher", &self.watcher.is_some())
            .field("tag", &self.tag)
            .field("inline", &self.inline)
            .finish()
    }
}

/// A job ready to execute on a worker.
enum Payload {
    Query(QueryJob),
    Custom {
        label: String,
        task: Box<dyn FnOnce() -> JobOutput + Send>,
    },
}

/// One job's place in its unit: the job until a worker claims it, its
/// result once it finished. Claim and result share the slot, so a unit
/// is one allocation of slots, not one for jobs and one for results.
enum Slot {
    Queued(Payload),
    Claimed,
    Done(JobResult),
}

impl Slot {
    fn query_job(&self) -> Option<&QueryJob> {
        match self {
            Slot::Queued(Payload::Query(job)) => Some(job),
            _ => None,
        }
    }

    fn result(&self) -> Option<&JobResult> {
        match self {
            Slot::Done(result) => Some(result),
            _ => None,
        }
    }
}

/// A unit's slots and how many of them are done, under one lock.
#[derive(Default)]
struct Board {
    slots: Vec<Slot>,
    completed: usize,
    /// A round trace left by a report of the unit's last batch, which
    /// nothing could read any more ([`Inner::recycle`]). The next job run
    /// from the unit hands it to its worker's scratch, so that job's
    /// report fills this buffer instead of allocating one.
    spare_trace: Vec<RoundTrace>,
}

/// Most spare units the free list keeps ([`Inner::recycle`]): more than
/// the network tier usually has finishing at once, and at a few hundred
/// bytes each a bounded cost.
const SPARE_UNITS: usize = 256;

/// Largest slot `Vec` a spare unit may keep. The unit of a bigger batch
/// is freed instead: its two allocations are small beside its jobs', and
/// keeping its slots would pin their memory.
const SPARE_SLOTS: usize = 64;

/// One submitted batch: claimable slots plus the result board.
struct WorkUnit {
    /// Jobs in the unit; fixed until it is refilled from the free list.
    len: usize,
    /// Next unclaimed slot. Bumped only by [`claim_drr`] under the state
    /// lock, so slots are claimed in index order.
    next: AtomicUsize,
    /// When the batch was handed to `submit`. Job deadlines are measured
    /// from here, so time spent waiting for admission or parked in the
    /// queue counts against them.
    submitted_at: Instant,
    board: Mutex<Board>,
    done: Condvar,
    /// Completion hook for watched batches and the batch's tag; `None`
    /// for plain submits.
    watcher: Option<(CompletionWatcher, u64)>,
    /// Set once [`Batch::handles`] shares the unit: [`Batch::wait`] and
    /// the handles then clone the results instead of moving them out.
    shared: AtomicBool,
}

impl WorkUnit {
    fn new(slots: Vec<Slot>, watcher: Option<(CompletionWatcher, u64)>) -> Arc<Self> {
        let board = Board {
            slots,
            ..Board::default()
        };
        Arc::new(Self::with(board, watcher))
    }

    fn with(board: Board, watcher: Option<(CompletionWatcher, u64)>) -> Self {
        Self {
            len: board.slots.len(),
            next: AtomicUsize::new(0),
            submitted_at: Instant::now(),
            board: Mutex::new(board),
            done: Condvar::new(),
            watcher,
            shared: AtomicBool::new(false),
        }
    }

    /// Makes a spare unit new again around `jobs`, refilling its slot
    /// `Vec` in place. Every other field is rebuilt, and only the spare
    /// trace's capacity is kept, so nothing of the batch it last held
    /// survives.
    fn refill(
        &mut self,
        jobs: impl Iterator<Item = Slot>,
        watcher: Option<(CompletionWatcher, u64)>,
    ) {
        let mut board = std::mem::take(self.board.get_mut());
        board.slots.clear();
        board.slots.extend(jobs);
        board.completed = 0;
        *self = Self::with(board, watcher);
    }

    fn len(&self) -> usize {
        self.len
    }

    fn wait_all(&self) -> Vec<JobResult> {
        let mut board = self.board.lock();
        self.done
            .wait_while(&mut board, |b| b.completed < b.slots.len());
        if self.shared.load(Ordering::Acquire) {
            return board
                .slots
                .iter()
                .map(|s| s.result().expect("all slots completed").clone())
                .collect();
        }
        board
            .slots
            .iter_mut()
            .map(|s| match std::mem::replace(s, Slot::Claimed) {
                Slot::Done(result) => result,
                _ => unreachable!("all slots completed"),
            })
            .collect()
    }

    fn wait_one(&self, index: usize) -> JobResult {
        let mut board = self.board.lock();
        self.done
            .wait_while(&mut board, |b| b.slots[index].result().is_none());
        board.slots[index].result().expect("slot completed").clone()
    }

    /// Takes back the jobs of a query unit that was never queued.
    fn take_jobs(&self) -> Vec<QueryJob> {
        std::mem::take(&mut self.board.lock().slots)
            .into_iter()
            .map(|slot| match slot {
                Slot::Queued(Payload::Query(job)) => job,
                _ => unreachable!("a rejected query batch holds only its queued jobs"),
            })
            .collect()
    }
}

/// One tenant's slice of the admission queue: a unit queue per priority
/// band plus the tenant's DRR deficit (claims left in the current
/// rotation turn).
struct TenantQueue {
    bands: [VecDeque<Arc<WorkUnit>>; Priority::BANDS],
    deficit: u32,
    /// Whether the tenant is in the rotation. A drained tenant's queue
    /// stays in the map, out of the rotation, so its bands keep their
    /// capacity and its next submit does not allocate.
    in_rotation: bool,
}

struct QueueState {
    /// Per-tenant queues, keyed by tenant id (`None` = the default
    /// lane). A tenant's queue is created by its first submit and kept
    /// for good; every tenant with queued units is in `rotation`.
    queues: BTreeMap<Option<u32>, TenantQueue>,
    /// Busy tenants in DRR service order; front is served next. Holds
    /// exactly the queues flagged `in_rotation`.
    rotation: VecDeque<Option<u32>>,
    /// Jobs enqueued but not yet claimed by a worker (all tenants).
    queued_jobs: usize,
    /// Workers parked on `not_empty`, counted until they wake.
    parked: usize,
    shutdown: bool,
}

impl QueueState {
    /// Queues `unit` on tenant `key`'s priority `band`. A newly busy
    /// tenant joins the back of the rotation with a full turn's worth of
    /// deficit, `weight`.
    fn push(&mut self, key: Option<u32>, band: usize, unit: Arc<WorkUnit>, weight: u32) {
        self.queued_jobs += unit.len();
        let queue = self.queues.entry(key).or_insert_with(|| TenantQueue {
            bands: Default::default(),
            deficit: 0,
            in_rotation: false,
        });
        if !queue.in_rotation {
            queue.in_rotation = true;
            queue.deficit = weight;
            self.rotation.push_back(key);
        }
        queue.bands[band].push_back(unit);
    }
}

/// Largest predicted cost, in group queries, of a job run on the
/// submitting thread ([`SubmitOptions::inline`]): a few µs of engine time,
/// well under what waking a worker and handing the result back costs.
/// The serving mix (N=128, t=16) averages about 43 queries; hardened
/// exact jobs at N=512 average about 350 and stay on the workers.
pub const INLINE_MAX_QUERIES: u32 = 128;

/// Slots in the [`CostTable`]; shapes that share a slot share a mean.
const COST_SLOTS: usize = 64;

/// Fixed-point scale of a [`CostTable`] entry (1/16 query).
const COST_SCALE: u32 = 16;

/// Running mean of group queries per job *shape* — algorithm, `n`, `t`,
/// and whether loss, an adversary, retries or defenses are on — as an
/// exponentially weighted mean (weight 1/8) in lock-free slots. A mean of
/// 0 means the shape has not run yet. Updates race benignly: a lost
/// update only delays the mean by one job.
struct CostTable {
    slots: [AtomicU32; COST_SLOTS],
}

impl Default for CostTable {
    fn default() -> Self {
        Self {
            slots: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    }
}

impl CostTable {
    fn slot(&self, job: &QueryJob) -> &AtomicU32 {
        let c = &job.channel;
        let shape = [
            job.algorithm as u64,
            c.n as u64,
            job.t as u64,
            u64::from(c.loss.is_some())
                | u64::from(c.adversary.is_some()) << 1
                | u64::from(job.retry_policy() != RetryPolicy::default()) << 2
                | u64::from(c.defense != DefensePolicy::default()) << 3,
        ];
        let mut key = [0u8; 32];
        for (bytes, word) in key.chunks_exact_mut(8).zip(shape) {
            bytes.copy_from_slice(&word.to_le_bytes());
        }
        let h = tcast::fingerprint64(&key);
        &self.slots[(h % COST_SLOTS as u64) as usize]
    }

    /// Whether jobs shaped like `job` have averaged under
    /// [`INLINE_MAX_QUERIES`].
    fn cheap(&self, job: &QueryJob) -> bool {
        let mean = self.slot(job).load(Ordering::Relaxed);
        mean != 0 && mean < INLINE_MAX_QUERIES * COST_SCALE
    }

    /// Folds one finished job's query count into its shape's mean.
    fn observe(&self, job: &QueryJob, queries: u64) {
        let slot = self.slot(job);
        let sample = queries
            .saturating_mul(u64::from(COST_SCALE))
            .clamp(1, u64::from(u32::MAX)) as u32;
        let old = slot.load(Ordering::Relaxed);
        let new = if old == 0 {
            sample
        } else {
            (i64::from(old) + (i64::from(sample) - i64::from(old)) / 8).max(1) as u32
        };
        slot.store(new, Ordering::Relaxed);
    }
}

struct Inner {
    state: Mutex<QueueState>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    metrics: Arc<MetricsRegistry>,
    /// Optional LRU of finished reports, keyed by exact job identity;
    /// `None` when `ServiceConfig::session_cache` is 0.
    cache: Option<Mutex<SessionCache>>,
    /// Tenant identities, weights, and quotas; `None` runs the service
    /// single-tenant (every job on the default lane, no quotas).
    tenants: Option<Arc<TenantRegistry>>,
    /// Jobs a worker claims per scheduler pass (≥ 1); see
    /// [`ServiceConfig::batch_size`].
    batch: usize,
    /// Finished units nothing else holds, emptied, for the next submit
    /// to refill: at most [`SPARE_UNITS`], each the only reference.
    spares: Mutex<Vec<Arc<WorkUnit>>>,
    /// Worker threads the pool runs (0 for a bare `Inner` in tests).
    workers: usize,
    /// Mean group queries per job shape, for [`SubmitOptions::inline`].
    costs: CostTable,
}

impl Inner {
    /// An empty queue and fresh metrics for a pool of `workers` threads,
    /// none of them started yet.
    fn new(config: &ServiceConfig, tenants: Option<Arc<TenantRegistry>>, workers: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                queues: BTreeMap::new(),
                rotation: VecDeque::new(),
                queued_jobs: 0,
                parked: 0,
                shutdown: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity: config.queue_capacity,
            metrics: Arc::new(MetricsRegistry::new()),
            cache: (config.session_cache > 0)
                .then(|| Mutex::new(SessionCache::new(config.session_cache))),
            tenants,
            batch: config.batch_size.max(1),
            spares: Mutex::new(Vec::with_capacity(SPARE_UNITS)),
            workers,
            costs: CostTable::default(),
        }
    }

    /// A unit of `jobs`: a spare refilled in place when the free list
    /// has one, else a new one.
    fn unit(
        &self,
        jobs: impl ExactSizeIterator<Item = Slot>,
        watcher: Option<(CompletionWatcher, u64)>,
    ) -> Arc<WorkUnit> {
        let spare = self.spares.lock().pop();
        match spare {
            Some(mut unit) => {
                Arc::get_mut(&mut unit)
                    .expect("the free list holds the only reference to a spare")
                    .refill(jobs, watcher);
                unit
            }
            // Collecting from a `Vec` of jobs reuses its allocation in
            // place (a slot and a job have one size and alignment).
            None => WorkUnit::new(jobs.collect(), watcher),
        }
    }

    /// Called by each side that lets go of a unit — a worker after
    /// running a claim, a dropped `Batch`, a rejected submit. The side
    /// that holds the last reference empties the unit (its results and
    /// watcher go now) and puts it on the free list, unless the list is
    /// full or the unit's slots are over [`SPARE_SLOTS`].
    ///
    /// A report still in a slot then is one nothing can read: its batch
    /// and handles are gone, and they only ever cloned a report they did
    /// not move out. The unit keeps the first such report's round trace
    /// as its spare.
    fn recycle(&self, mut unit: Arc<WorkUnit>) {
        let Some(spare) = Arc::get_mut(&mut unit) else {
            return;
        };
        let board = spare.board.get_mut();
        if board.slots.capacity() > SPARE_SLOTS {
            return;
        }
        if board.spare_trace.capacity() == 0 {
            let unread = board.slots.iter_mut().find_map(|slot| match slot {
                Slot::Done(Ok(JobOutput::Report(report))) => Some(&mut report.trace),
                _ => None,
            });
            if let Some(trace) = unread {
                board.spare_trace = std::mem::take(trace);
            }
        }
        board.slots.clear();
        spare.watcher = None;
        let mut spares = self.spares.lock();
        if spares.len() < SPARE_UNITS {
            spares.push(unit);
        }
    }

    /// DRR weight of `key`: the registry's for a known tenant, 1 for
    /// the default lane (and for any tenant when no registry is set).
    fn weight_of(&self, key: Option<u32>) -> u32 {
        match (key, &self.tenants) {
            (Some(id), Some(reg)) => reg.weight(TenantId(id)),
            _ => 1,
        }
    }
}

/// Handle to one batch of submitted jobs.
///
/// Results come back in submission order regardless of which workers ran
/// which jobs, so batch output is deterministic at any pool size.
#[must_use = "a batch does nothing unless waited on"]
pub struct Batch {
    /// The batch's unit; taken only by `drop`, which offers it back to
    /// the service's free list.
    unit: Option<Arc<WorkUnit>>,
    /// The service the batch was submitted to, so a waiting thread can
    /// run the batch's jobs itself.
    inner: Arc<Inner>,
}

impl Batch {
    fn new(unit: Arc<WorkUnit>, inner: Arc<Inner>) -> Self {
        Self {
            unit: Some(unit),
            inner,
        }
    }

    fn unit(&self) -> &Arc<WorkUnit> {
        self.unit.as_ref().expect("a live batch holds its unit")
    }

    /// Blocks until every job in the batch finished; returns results in
    /// submission order. While the batch is the one the scheduler would
    /// serve next, the calling thread runs its jobs instead of sleeping.
    pub fn wait(self) -> Vec<JobResult> {
        let unit = self.unit();
        help(&self.inner, unit, unit.len());
        unit.wait_all()
    }

    /// Per-job completion handles, in submission order. The batch can
    /// still be waited on afterwards; it then clones the results the
    /// handles also see.
    pub fn handles(&self) -> Vec<JobHandle> {
        let unit = self.unit();
        unit.shared.store(true, Ordering::Release);
        (0..unit.len())
            .map(|index| JobHandle {
                unit: unit.clone(),
                inner: self.inner.clone(),
                index,
            })
            .collect()
    }

    /// Number of jobs in the batch.
    pub fn len(&self) -> usize {
        self.unit().len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Drop for Batch {
    fn drop(&mut self) {
        if let Some(unit) = self.unit.take() {
            self.inner.recycle(unit);
        }
    }
}

/// Completion handle for a single job within a batch.
#[must_use = "a job handle does nothing unless waited on"]
pub struct JobHandle {
    unit: Arc<WorkUnit>,
    inner: Arc<Inner>,
    index: usize,
}

impl JobHandle {
    /// Blocks until this job finished; other jobs in the batch may still
    /// be running. Like [`Batch::wait`], the calling thread runs the
    /// batch's jobs up to this one while the batch is served next.
    pub fn wait(self) -> JobResult {
        help(&self.inner, &self.unit, self.index + 1);
        self.unit.wait_one(self.index)
    }

    /// Index of this job within its batch.
    pub fn index(&self) -> usize {
        self.index
    }
}

/// A concurrent multi-session threshold-query service.
///
/// ```
/// use tcast::{ChannelSpec, CollisionModel};
/// use tcast_service::{AlgorithmSpec, JobOutput, QueryJob, QueryService, ServiceConfig};
///
/// let service = QueryService::new(ServiceConfig::with_workers(2));
/// let jobs: Vec<QueryJob> = (0..8)
///     .map(|i| {
///         QueryJob::new(
///             AlgorithmSpec::TwoTBins,
///             ChannelSpec::ideal(64, 20, CollisionModel::OnePlus).seeded(i, i + 1),
///             8,
///             i,
///         )
///     })
///     .collect();
/// let results = service.submit(jobs).unwrap().wait();
/// for r in results {
///     let JobOutput::Report(report) = r.unwrap() else { unreachable!() };
///     assert!(report.answer, "20 positives >= threshold 8");
/// }
/// service.shutdown();
/// ```
pub struct QueryService {
    inner: Arc<Inner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl QueryService {
    /// Starts the worker pool, single-tenant (no registry, no quotas).
    pub fn new(config: ServiceConfig) -> Self {
        Self::build(config, None)
    }

    /// Starts the worker pool with a tenant registry: submissions from
    /// registered tenants are quota-checked at admission and dequeued
    /// weighted-fair; jobs on the default lane (no tenant) behave as in
    /// a single-tenant service.
    pub fn with_tenants(config: ServiceConfig, tenants: Arc<TenantRegistry>) -> Self {
        Self::build(config, Some(tenants))
    }

    fn build(config: ServiceConfig, tenants: Option<Arc<TenantRegistry>>) -> Self {
        let workers = if config.workers == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(4)
        } else {
            config.workers
        };
        assert!(config.queue_capacity > 0, "queue capacity must be positive");
        let inner = Arc::new(Inner::new(&config, tenants, workers));
        let handles = (0..workers)
            .map(|i| {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("tcast-service-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn service worker")
            })
            .collect();
        Self {
            inner,
            workers: handles,
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// The service's metrics registry.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Shared handle to the live metrics registry, so front-ends (e.g. the
    /// network layer) can fold their own counters into the same snapshots
    /// and dumps.
    pub fn metrics_registry(&self) -> Arc<MetricsRegistry> {
        self.inner.metrics.clone()
    }

    /// The tenant registry this service authenticates and schedules
    /// against, when one was attached via
    /// [`with_tenants`](Self::with_tenants). Front-ends use it to run
    /// the Auth handshake.
    pub fn tenant_registry(&self) -> Option<Arc<TenantRegistry>> {
        self.inner.tenants.clone()
    }

    /// Jobs enqueued but not yet claimed by a worker. A drain loop can
    /// poll this together with its own in-flight accounting to decide
    /// when the pool has gone quiet.
    pub fn queued_jobs(&self) -> usize {
        self.inner.state.lock().queued_jobs
    }

    /// Submits a batch of query jobs under explicit admission options —
    /// the single entrypoint behind the whole submit surface.
    ///
    /// With `options.blocking` (the default), admission waits while the
    /// queue is over capacity, and the only possible error is
    /// [`SubmitError::Closed`]; a batch larger than the whole queue
    /// capacity is admitted once the queue is empty. Without it, a full
    /// queue hands the jobs back as [`SubmitError::QueueFull`]. An
    /// `options.watcher` is invoked on the worker thread as each job
    /// finishes (in completion order, which may differ from submission
    /// order); the returned [`Batch`] still resolves in submission order.
    ///
    /// `jobs` is any exact-size iterator of jobs — a `Vec`, or
    /// `std::iter::once(job)` for one job — written straight into the
    /// batch's slots; a rejection hands them back as a `Vec`.
    pub fn submit_with<I>(&self, jobs: I, options: SubmitOptions) -> Result<Batch, SubmitError>
    where
        I: IntoIterator<Item = QueryJob>,
        I::IntoIter: ExactSizeIterator,
    {
        let watcher = options.watcher.map(|w| (w, options.tag));
        let unit = self.inner.unit(
            jobs.into_iter()
                .map(|job| Slot::Queued(Payload::Query(job))),
            watcher,
        );
        let (charged, lane, cheap) = {
            let board = unit.board.lock();
            let queued = || board.slots.iter().filter_map(Slot::query_job);
            let cheap = options.inline
                && board.slots.len() == 1
                && queued()
                    .next()
                    .is_some_and(|job| self.inner.costs.cheap(job));
            let charged = match &self.inner.tenants {
                Some(reg) => charge_quotas(reg, queued()).map_err(|tenant| (reg, tenant)),
                None => Ok(()),
            };
            // The batch's scheduling lane (tenant + priority band) comes
            // from its first job; the network tier submits one job per
            // batch, so mixed batches only arise from in-process callers.
            let lane = queued()
                .next()
                .map_or((None, Priority::Normal), |j| (j.tenant, j.priority));
            (charged, lane, cheap)
        };
        if let Err((reg, tenant)) = charged {
            self.inner
                .metrics
                .record_quota_rejections(reg.name_of(tenant), unit.len() as u64);
            tcast_obs::event_current("service.quota_rejected", &[("tenant", tenant.0 as u64)]);
            return Err(SubmitError::QuotaExceeded(self.take_back(unit)));
        }
        let result = self
            .enqueue(unit, options.blocking, lane, cheap)
            .map_err(|(unit, closed)| {
                let jobs = self.take_back(unit);
                if closed {
                    SubmitError::Closed(jobs)
                } else {
                    SubmitError::QueueFull(jobs)
                }
            });
        if let (Err(err), Some(reg)) = (&result, &self.inner.tenants) {
            // Rejected after admission: return the in-flight slots the
            // quota charge took.
            let jobs = match err {
                SubmitError::QueueFull(jobs)
                | SubmitError::Closed(jobs)
                | SubmitError::QuotaExceeded(jobs) => jobs,
            };
            for job in jobs {
                if let Some(t) = job.tenant {
                    reg.release(t, 1);
                }
            }
        }
        result
    }

    /// Submits a batch of query jobs, blocking while the admission queue
    /// is over capacity (backpressure). Delegates to
    /// [`submit_with`](Self::submit_with) with default options: the
    /// possible errors are [`SubmitError::Closed`] and — when a tenant
    /// registry is attached — [`SubmitError::QuotaExceeded`] (quota
    /// rejection sheds load immediately rather than blocking).
    pub fn submit<I>(&self, jobs: I) -> Result<Batch, SubmitError>
    where
        I: IntoIterator<Item = QueryJob>,
        I::IntoIter: ExactSizeIterator,
    {
        self.submit_with(jobs, SubmitOptions::new())
    }

    /// Like [`submit`](Self::submit), additionally invoking `on_complete`
    /// on the worker thread as each job finishes. Delegates to
    /// [`submit_with`](Self::submit_with) with a watcher.
    pub fn submit_watched<I>(
        &self,
        jobs: I,
        on_complete: CompletionWatcher,
    ) -> Result<Batch, SubmitError>
    where
        I: IntoIterator<Item = QueryJob>,
        I::IntoIter: ExactSizeIterator,
    {
        self.submit_with(jobs, SubmitOptions::new().watched(on_complete))
    }

    /// Like [`submit`](Self::submit) but never blocks: a full queue hands
    /// the jobs back in [`SubmitError::QueueFull`]. Delegates to
    /// [`submit_with`](Self::submit_with).
    pub fn try_submit<I>(&self, jobs: I) -> Result<Batch, SubmitError>
    where
        I: IntoIterator<Item = QueryJob>,
        I::IntoIter: ExactSizeIterator,
    {
        self.submit_with(jobs, SubmitOptions::new().nonblocking())
    }

    /// The jobs of a query unit that was never queued; the unit itself
    /// goes back to the free list.
    fn take_back(&self, unit: Arc<WorkUnit>) -> Vec<QueryJob> {
        let jobs = unit.take_jobs();
        self.inner.recycle(unit);
        jobs
    }

    /// Submits arbitrary closures as jobs; their metrics are recorded
    /// under `label`. Used by the experiment harness to run sweep points
    /// through the shared pool.
    pub fn submit_tasks(
        &self,
        label: &str,
        tasks: Vec<Box<dyn FnOnce() -> JobOutput + Send>>,
    ) -> Result<Batch, ServiceClosed> {
        let slots = tasks.into_iter().map(|task| {
            Slot::Queued(Payload::Custom {
                label: label.to_string(),
                task,
            })
        });
        let unit = self.inner.unit(slots, None);
        self.enqueue(unit, true, (None, Priority::Normal), false)
            .map_err(|_| ServiceClosed)
    }

    /// Queues `unit`; a rejected unit comes back with whether the service
    /// was closed (else the queue was full). With `cheap` (a one-job
    /// unit predicted under [`INLINE_MAX_QUERIES`]), a unit that would
    /// have to wake a parked worker is claimed in the same lock hold and
    /// run on this thread instead.
    fn enqueue(
        &self,
        unit: Arc<WorkUnit>,
        block: bool,
        lane: (Option<TenantId>, Priority),
        cheap: bool,
    ) -> Result<Batch, (Arc<WorkUnit>, bool)> {
        let inner = self.inner.clone();
        if unit.len() == 0 {
            return Ok(Batch::new(unit, inner));
        }
        let key = lane.0.map(|t| t.0);
        let mut st = self.inner.state.lock();
        loop {
            if st.shutdown {
                drop(st);
                return Err((unit, true));
            }
            // Admit when within capacity, or unconditionally when the
            // queue is empty so oversized batches cannot deadlock.
            if st.queued_jobs == 0 || st.queued_jobs + unit.len() <= self.inner.capacity {
                break;
            }
            if !block {
                drop(st);
                return Err((unit, false));
            }
            self.inner.not_full.wait(&mut st);
        }
        // Handing the job over costs a wakeup only when nothing is queued
        // and no worker is awake to come back for it.
        let run_here = cheap && st.queued_jobs == 0 && st.parked == self.inner.workers;
        st.push(key, lane.1.band(), unit.clone(), self.inner.weight_of(key));
        if run_here {
            // The queue held nothing else, so DRR serves this unit next:
            // the claim charges its tenant's deficit exactly as a
            // worker's claim would.
            let claim = claim_drr(&self.inner, &mut st, |next| std::ptr::eq(next, &*unit));
            drop(st);
            if let Some(claim) = claim {
                run_inline(&self.inner, claim);
                return Ok(Batch::new(unit, inner));
            }
        } else {
            drop(st);
        }
        // One job needs one worker; a parked worker that wakes for a
        // bigger unit claims up to a batch of it and leaves the rest to
        // the others (and to the unit's waiter).
        if unit.len() == 1 {
            self.inner.not_empty.notify_one();
        } else {
            self.inner.not_empty.notify_all();
        }
        Ok(Batch::new(unit, inner))
    }

    /// Graceful shutdown: refuses new work, drains every queued job, then
    /// joins the workers. Returns the final metrics snapshot.
    pub fn shutdown(mut self) -> MetricsSnapshot {
        self.stop_and_join();
        self.inner.metrics.snapshot()
    }

    fn stop_and_join(&mut self) {
        {
            let mut st = self.inner.state.lock();
            st.shutdown = true;
        }
        self.inner.not_empty.notify_all();
        self.inner.not_full.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Charges each job's tenant quotas (grouped per tenant, so a batch is
/// admitted or rejected atomically). On any rejection the charges
/// already taken are refunded and the offending tenant is reported.
/// Jobs on the default lane (no tenant) are never charged. A batch of
/// one tenant — every network submit — is charged in one call, with no
/// grouping map.
fn charge_quotas<'a>(
    reg: &TenantRegistry,
    jobs: impl Iterator<Item = &'a QueryJob> + Clone,
) -> Result<(), TenantId> {
    let mut tenants = jobs.clone().filter_map(|job| job.tenant);
    let Some(first) = tenants.next() else {
        return Ok(());
    };
    if tenants.all(|t| t == first) {
        let n = jobs.filter(|job| job.tenant.is_some()).count();
        return reg.admit(first, n).map_err(|_| first);
    }
    let mut counts: BTreeMap<u32, usize> = BTreeMap::new();
    for job in jobs {
        if let Some(t) = job.tenant {
            *counts.entry(t.0).or_default() += 1;
        }
    }
    let mut charged: Vec<(TenantId, usize)> = Vec::new();
    for (&id, &n) in &counts {
        let id = TenantId(id);
        if reg.admit(id, n).is_err() {
            for (done, m) in charged {
                reg.release(done, m);
            }
            return Err(id);
        }
        charged.push((id, n));
    }
    Ok(())
}

fn worker_loop(inner: &Inner) {
    // One runner per worker: its scratch buffers grow to steady state
    // over the first few jobs, after which query execution stops
    // allocating. Per-job policies come from the jobs themselves
    // (`QueryJob::execute_in`), so the runner profile here is inert.
    let mut runner = BatchRunner::new(ExecutionProfile::new());
    let mut claims: Vec<(Arc<WorkUnit>, usize)> = Vec::with_capacity(inner.batch);
    loop {
        {
            let mut st = inner.state.lock();
            loop {
                if claims.len() < inner.batch {
                    if let Some(claim) = claim_drr(inner, &mut st, |_| true) {
                        // Claiming in one lock hold preserves DRR order
                        // exactly: the claims execute below in the order
                        // claim_drr produced them.
                        claims.push(claim);
                        continue;
                    }
                }
                if !claims.is_empty() || st.shutdown {
                    break;
                }
                st.parked += 1;
                inner.not_empty.wait(&mut st);
                st.parked -= 1;
            }
        }
        if claims.is_empty() {
            // Shutdown with the queue drained.
            return;
        }
        run_claims(inner, claims.drain(..), &mut runner);
    }
}

thread_local! {
    /// Scratch for the jobs a waiting thread runs. It stays borrowed
    /// while a helped job runs, so a helped job that itself waits on a
    /// batch finds it taken and parks instead of helping.
    static HELPER: RefCell<BatchRunner> = RefCell::new(BatchRunner::new(ExecutionProfile::new()));
}

/// Runs `unit`'s jobs on the calling thread, one claim at a time, while
/// the scheduler would serve `unit` next and its first `until` slots are
/// not all claimed. Returns as soon as either stops holding; the caller
/// then parks on the unit's result board.
fn help(inner: &Inner, unit: &Arc<WorkUnit>, until: usize) {
    let _ = HELPER.try_with(|runner| {
        let Ok(mut runner) = runner.try_borrow_mut() else {
            return;
        };
        loop {
            let claim = {
                let mut st = inner.state.lock();
                if unit.next.load(Ordering::Relaxed) >= until {
                    return;
                }
                claim_drr(inner, &mut st, |next| std::ptr::eq(next, &**unit))
            };
            let Some(claim) = claim else {
                return;
            };
            run_detached(inner, claim, &mut runner);
        }
    });
}

/// Runs a claim the submitting thread took for itself
/// ([`SubmitOptions::inline`]) on the thread's helper scratch, or on a
/// fresh runner in the one case that scratch is busy: a job that itself
/// submits inline.
fn run_inline(inner: &Inner, claim: (Arc<WorkUnit>, usize)) {
    let mut claim = Some(claim);
    let _ = HELPER.try_with(|runner| {
        if let (Ok(mut runner), Some(claim)) = (runner.try_borrow_mut(), claim.take()) {
            run_detached(inner, claim, &mut runner);
        }
    });
    if let Some(claim) = claim {
        run_detached(inner, claim, &mut BatchRunner::new(ExecutionProfile::new()));
    }
}

/// Runs one claim on a thread that is not a worker. The job's spans must
/// not nest under whatever span that thread has open: they are local
/// roots under the job's own propagated context, as on a worker.
fn run_detached(inner: &Inner, claim: (Arc<WorkUnit>, usize), runner: &mut BatchRunner) {
    let _detached = tcast_obs::detached();
    run_claims(inner, std::iter::once(claim), runner);
}

/// Claims the next job under deficit round robin (caller holds the
/// state lock), provided `accept` takes the unit the claim would come
/// from; otherwise it claims nothing and changes nothing. The tenant at
/// the rotation front is served from its most-urgent non-empty band;
/// each claim spends one unit of the tenant's deficit and an exhausted
/// deficit recharges to the tenant's weight and sends it to the back of
/// the rotation. A tenant whose bands drained is retired from the
/// rotation by the next claim (and re-joins on its next submit; its
/// queue stays in the map). With
/// one busy tenant this is exactly strict FIFO.
fn claim_drr(
    inner: &Inner,
    st: &mut QueueState,
    accept: impl Fn(&WorkUnit) -> bool,
) -> Option<(Arc<WorkUnit>, usize)> {
    // The first tenant in the rotation with a queued unit, and whether
    // `accept` takes that unit; the tenants ahead of it have drained.
    let next = st.rotation.iter().enumerate().find_map(|(pos, key)| {
        let bands = &st.queues[key].bands;
        let unit = bands.iter().find_map(VecDeque::front)?;
        Some((pos, accept(unit)))
    });
    let drained = match next {
        Some((_, false)) => return None,
        Some((pos, true)) => pos,
        None => st.rotation.len(),
    };
    for key in st.rotation.drain(..drained) {
        st.queues
            .get_mut(&key)
            .expect("rotation tracks queues")
            .in_rotation = false;
    }
    next?;
    let key = *st.rotation.front().expect("a tenant with queued work");
    let queue = st.queues.get_mut(&key).expect("rotation tracks queues");
    let band = queue
        .bands
        .iter_mut()
        .find(|band| !band.is_empty())
        .expect("the tenant has a queued unit");
    // A unit leaves its band with its last claim, so the front always
    // has an unclaimed slot.
    let unit = band.front().expect("non-empty band").clone();
    let index = unit.next.fetch_add(1, Ordering::Relaxed);
    if index + 1 == unit.len() {
        band.pop_front();
    }
    queue.deficit = queue.deficit.saturating_sub(1);
    if queue.deficit == 0 {
        queue.deficit = inner.weight_of(key);
        st.rotation.pop_front();
        st.rotation.push_back(key);
    }
    st.queued_jobs -= 1;
    Some((unit, index))
}

/// Runs claimed jobs back to back on `runner`: the one execution path,
/// for a worker's batch and a waiting thread's single claim alike.
fn run_claims(
    inner: &Inner,
    claims: impl ExactSizeIterator<Item = (Arc<WorkUnit>, usize)>,
    runner: &mut BatchRunner,
) {
    inner.not_full.notify_all();
    inner.metrics.record_batch_size(claims.len());
    // The batch span marks the claim under its own fresh trace and
    // closes *before* execution: per-job `service.execute` spans must
    // stay root spans so each job's trace ring drains before its
    // response leaves the thread (the invariant the net-tier trace
    // tests pin).
    drop(tcast_obs::Span::enter_fields(
        tcast_obs::TraceId::fresh(),
        "engine.batch",
        &[("size", claims.len() as u64)],
    ));
    for (unit, index) in claims {
        execute(inner, &unit, index, runner);
        inner.recycle(unit);
    }
}

fn execute(inner: &Inner, unit: &WorkUnit, index: usize, runner: &mut BatchRunner) {
    let (slot, spare_trace) = {
        let mut board = unit.board.lock();
        let slot = std::mem::replace(&mut board.slots[index], Slot::Claimed);
        (slot, std::mem::take(&mut board.spare_trace))
    };
    let Slot::Queued(payload) = slot else {
        unreachable!("each slot is claimed exactly once");
    };
    if spare_trace.capacity() > 0 {
        runner.scratch().recycle_trace(spare_trace);
    }
    let trace = match &payload {
        Payload::Query(job) => job.trace,
        Payload::Custom { .. } => tcast_obs::TraceId::NONE,
    };
    let started = Instant::now();
    let (label, result): (Cow<'static, str>, _) = match payload {
        Payload::Query(job) => {
            let label = job.algorithm.name();
            // Queue wait = submission to execution start, read off the
            // one clock read that also starts the job's latency; measured
            // once so the deadline check and the trace agree on the number.
            let queue_wait = started.saturating_duration_since(unit.submitted_at);
            let queue_wait_us = queue_wait.as_micros() as u64;
            // The job's span context (when the submitter propagated
            // one) parents this span under the submitter's own — e.g.
            // the cluster route span — stitching one cross-tier tree.
            let span = match job.tenant {
                Some(t) => tcast_obs::Span::enter_remote(
                    job.trace,
                    "service.execute",
                    job.span_parent,
                    &[("queue_wait_us", queue_wait_us), ("tenant", t.0 as u64)],
                ),
                None => tcast_obs::Span::enter_remote(
                    job.trace,
                    "service.execute",
                    job.span_parent,
                    &[("queue_wait_us", queue_wait_us)],
                ),
            };
            span.event("service.queue_wait", &[("us", queue_wait_us)]);
            let expired = job.deadline.is_some_and(|d| queue_wait > d);
            let result = if expired {
                // The session never runs: an answer that arrives after the
                // deadline is worthless to the caller, so don't spend
                // worker time producing one.
                span.event(
                    "service.deadline_exceeded",
                    &[("queue_wait_us", queue_wait_us)],
                );
                Err(JobError::DeadlineExceeded)
            } else {
                run_query(inner, label, &job, runner)
            };
            inner.metrics.record_queue_wait(queue_wait);
            if let Ok(JobOutput::Report(report)) = &result {
                inner.costs.observe(&job, report.queries);
            }
            if let (Some(tenant), Some(reg)) = (job.tenant, &inner.tenants) {
                // The quota charge taken at admission is returned here,
                // whatever the outcome — in-flight means admitted and
                // not yet completed.
                reg.release(tenant, 1);
                inner
                    .metrics
                    .record_tenant_job(reg.name_of(tenant), queue_wait);
            }
            (Cow::Borrowed(label), result)
        }
        Payload::Custom { label, task } => {
            let outcome = catch_unwind(AssertUnwindSafe(task));
            (Cow::Owned(label), outcome.map_err(to_job_error))
        }
    };
    inner.metrics.record(&label, &result, started.elapsed());
    // Invoke the watcher before publishing to the result board, so a
    // callback that triggers a response cannot race a `wait()` caller
    // into observing completion twice. A panicking watcher must not take
    // the worker (or the batch's remaining jobs) down with it.
    if let Some((watcher, tag)) = &unit.watcher {
        let done = Completion {
            index,
            tag: *tag,
            trace,
        };
        let _ = catch_unwind(AssertUnwindSafe(|| watcher(done, &result)));
    }
    let mut board = unit.board.lock();
    board.slots[index] = Slot::Done(result);
    board.completed += 1;
    // Only a finished unit lets `wait_all` proceed; per-job handles
    // (`wait_one`) can proceed on any completion once shared.
    if board.completed == unit.len() || unit.shared.load(Ordering::Acquire) {
        unit.done.notify_all();
    }
}

/// Runs one query job, consulting the session cache when configured.
///
/// A cached report flows through the same metrics path as a computed one
/// (execution is pure, so totals stay identical to an uncached run); the
/// hit itself is tallied separately as `cache_hits`. Only clean reports
/// are cached — a panic is not a result worth replaying.
fn run_query(inner: &Inner, label: &str, job: &QueryJob, runner: &mut BatchRunner) -> JobResult {
    let cached = inner.cache.as_ref().map(|c| (c, job.cache_key()));
    if let Some(report) = cached.as_ref().and_then(|(c, key)| c.lock().get(key)) {
        inner.metrics.record_cache_hit(label);
        tcast_obs::event_current("service.cache_hit", &[]);
        return Ok(JobOutput::Report(report));
    }
    // The worker's pooled scratch survives a panicking session: buffers
    // are cleared before every use, so a poisoned-looking scratch cannot
    // exist — capacity is the only state that persists.
    let outcome = catch_unwind(AssertUnwindSafe(|| job.execute_in(runner.scratch())))
        .map(JobOutput::Report)
        .map_err(to_job_error);
    if let (Some((cache, key)), Ok(JobOutput::Report(report))) = (cached, &outcome) {
        cache.lock().insert(key, report.clone());
    }
    outcome
}

fn to_job_error(payload: Box<dyn std::any::Any + Send>) -> JobError {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    JobError::Panicked(msg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::AlgorithmSpec;
    use tcast::{ChannelSpec, CollisionModel};

    fn job(i: u64) -> QueryJob {
        QueryJob::new(
            AlgorithmSpec::TwoTBins,
            ChannelSpec::ideal(64, 20, CollisionModel::OnePlus).seeded(i, i ^ 1),
            8,
            i,
        )
    }

    fn reports(results: Vec<JobResult>) -> Vec<tcast::QueryReport> {
        results
            .into_iter()
            .map(|r| match r.unwrap() {
                JobOutput::Report(rep) => rep,
                other => panic!("expected report, got {other:?}"),
            })
            .collect()
    }

    #[test]
    fn batch_results_arrive_in_submission_order() {
        let service = QueryService::new(ServiceConfig::with_workers(4));
        let jobs: Vec<QueryJob> = (0..32).map(job).collect();
        let expected: Vec<_> = jobs.iter().map(|j| j.execute()).collect();
        let got = reports(service.submit(jobs).unwrap().wait());
        assert_eq!(got, expected);
    }

    #[test]
    fn per_job_handles_resolve_individually() {
        let service = QueryService::new(ServiceConfig::with_workers(2));
        let jobs: Vec<QueryJob> = (0..4).map(job).collect();
        let expected: Vec<_> = jobs.iter().map(|j| j.execute()).collect();
        let batch = service.submit(jobs).unwrap();
        let handles = batch.handles();
        for (h, want) in handles.into_iter().zip(expected).rev() {
            match h.wait().unwrap() {
                JobOutput::Report(rep) => assert_eq!(rep, want),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let service = QueryService::new(ServiceConfig::with_workers(1));
        let batch = service.submit(Vec::new()).unwrap();
        assert!(batch.is_empty());
        assert!(batch.wait().is_empty());
    }

    #[test]
    fn a_panicking_job_fails_alone() {
        let service = QueryService::new(ServiceConfig::with_workers(2));
        let tasks: Vec<Box<dyn FnOnce() -> JobOutput + Send>> = vec![
            Box::new(|| JobOutput::Value(1.0)),
            Box::new(|| panic!("deliberate test panic")),
            Box::new(|| JobOutput::Value(3.0)),
        ];
        let results = service.submit_tasks("panicky", tasks).unwrap().wait();
        assert!(matches!(results[0], Ok(JobOutput::Value(v)) if v == 1.0));
        assert!(
            matches!(&results[1], Err(JobError::Panicked(m)) if m.contains("deliberate")),
            "got {:?}",
            results[1]
        );
        assert!(matches!(results[2], Ok(JobOutput::Value(v)) if v == 3.0));
        let snap = service.metrics();
        let row = snap.rows.iter().find(|r| r.label == "panicky").unwrap();
        assert_eq!((row.jobs, row.panics), (3, 1));
    }

    #[test]
    fn try_submit_rejects_when_full_and_returns_jobs() {
        // One worker wedged on a slow task keeps the queue occupied.
        let service = QueryService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 2,
            ..ServiceConfig::default()
        });
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let gate: Box<dyn FnOnce() -> JobOutput + Send> = Box::new(move || {
            rx.recv().ok();
            JobOutput::Value(0.0)
        });
        let gate_batch = service.submit_tasks("gate", vec![gate]).unwrap();
        // Fill the queue past capacity while the worker is blocked.
        let fill = service.submit(vec![job(1), job(2)]).unwrap();
        match service.try_submit(vec![job(3)]) {
            Err(SubmitError::QueueFull(jobs)) => assert_eq!(jobs, vec![job(3)]),
            Err(e) => panic!("expected QueueFull, got {e:?}"),
            Ok(_) => panic!("expected QueueFull, got acceptance"),
        }
        tx.send(()).unwrap();
        gate_batch.wait();
        fill.wait();
        // Queue drained: accepted again.
        assert!(service.try_submit(vec![job(3)]).is_ok());
    }

    #[test]
    fn submit_after_shutdown_errors() {
        let service = QueryService::new(ServiceConfig::with_workers(1));
        let inner = service.inner.clone();
        {
            let mut st = inner.state.lock();
            st.shutdown = true;
        }
        assert!(matches!(
            service.submit(vec![job(0)]),
            Err(SubmitError::Closed(_))
        ));
    }

    #[test]
    fn shutdown_drains_queued_work() {
        let service = QueryService::new(ServiceConfig::with_workers(2));
        let batch = service
            .submit((0..64).map(job).collect::<Vec<_>>())
            .unwrap();
        let snap = service.shutdown();
        // Every job ran before the workers exited.
        let row = snap.rows.iter().find(|r| r.label == "2tBins").unwrap();
        assert_eq!(row.jobs, 64);
        assert_eq!(batch.wait().len(), 64);
    }

    #[test]
    fn zero_deadline_job_expires_without_running() {
        // A zero deadline is already expired by the time any worker claims
        // the job — deterministic however fast the pool is.
        let service = QueryService::new(ServiceConfig::with_workers(2));
        let expired = job(1).with_deadline(std::time::Duration::ZERO);
        let healthy = job(2);
        let results = service.submit(vec![expired, healthy]).unwrap().wait();
        assert!(
            matches!(results[0], Err(JobError::DeadlineExceeded)),
            "got {:?}",
            results[0]
        );
        assert!(matches!(results[1], Ok(JobOutput::Report(_))));
        let snap = service.metrics();
        let row = snap.rows.iter().find(|r| r.label == "2tBins").unwrap();
        assert_eq!((row.jobs, row.deadline_exceeded, row.panics), (2, 1, 0));
        // The expired job never ran, so only the healthy one left latency
        // and query samples.
        assert_eq!(row.latency_us.count(), 1);
        assert_eq!(row.query_summary.count(), 1);
        assert_eq!(row.failed_latency_us.count(), 1);
    }

    #[test]
    fn generous_deadline_job_runs_normally() {
        let service = QueryService::new(ServiceConfig::with_workers(2));
        let j = job(7).with_deadline(std::time::Duration::from_secs(3600));
        let want = j.execute();
        let got = reports(service.submit(vec![j]).unwrap().wait());
        assert_eq!(got, vec![want]);
    }

    #[test]
    fn queue_wait_counts_against_the_deadline() {
        // Wedge the only worker, let a deadlined job age in the queue past
        // its deadline, then release the worker: the job must expire even
        // though the worker was free the moment it claimed it.
        let service = QueryService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 16,
            ..ServiceConfig::default()
        });
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let gate: Box<dyn FnOnce() -> JobOutput + Send> = Box::new(move || {
            rx.recv().ok();
            JobOutput::Value(0.0)
        });
        let gate_batch = service.submit_tasks("gate", vec![gate]).unwrap();
        let deadlined = service
            .submit(vec![
                job(3).with_deadline(std::time::Duration::from_millis(5))
            ])
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(20));
        tx.send(()).unwrap();
        gate_batch.wait();
        let results = deadlined.wait();
        assert!(
            matches!(results[0], Err(JobError::DeadlineExceeded)),
            "got {:?}",
            results[0]
        );
    }

    #[test]
    fn lossy_retry_jobs_surface_retry_metrics() {
        use tcast::{LossConfig, RetryPolicy};
        let loss = LossConfig {
            reply_miss_prob: 1.0,
            false_activity_prob: 0.0,
        };
        let spec = ChannelSpec::lossy(16, 16, CollisionModel::OnePlus, loss)
            .seeded(1, 2)
            .with_retry(RetryPolicy::verified(1));
        let jobs = vec![QueryJob::new(AlgorithmSpec::TwoTBins, spec, 4, 3)];
        let service = QueryService::new(ServiceConfig::with_workers(2));
        service.submit(jobs).unwrap().wait();
        let snap = service.metrics();
        let row = snap.rows.iter().find(|r| r.label == "2tBins").unwrap();
        assert!(row.retries > 0, "certain loss must force retries");
        assert_eq!(row.retry_hist.total(), 1);
    }

    #[test]
    fn watched_batches_invoke_the_callback_once_per_job() {
        let service = QueryService::new(ServiceConfig::with_workers(4));
        let jobs: Vec<QueryJob> = (0..16).map(job).collect();
        let expected: Vec<_> = jobs.iter().map(|j| j.execute()).collect();
        let seen = Arc::new(Mutex::new(Vec::<(usize, tcast::QueryReport)>::new()));
        let sink = seen.clone();
        let batch = service
            .submit_watched(
                jobs,
                Arc::new(move |done: Completion, result| {
                    let Ok(JobOutput::Report(rep)) = result else {
                        panic!("unexpected {result:?}");
                    };
                    sink.lock().push((done.index, rep.clone()));
                }),
            )
            .unwrap();
        // The batch API still works alongside the callback.
        assert_eq!(reports(batch.wait()), expected);
        let mut seen = Arc::try_unwrap(seen)
            .unwrap_or_else(|_| panic!("callbacks still live"))
            .into_inner();
        assert_eq!(seen.len(), 16, "one callback per job");
        seen.sort_by_key(|(i, _)| *i);
        for (i, (index, rep)) in seen.into_iter().enumerate() {
            assert_eq!(index, i);
            assert_eq!(rep, expected[i]);
        }
    }

    #[test]
    fn a_panicking_watcher_does_not_kill_the_worker() {
        let service = QueryService::new(ServiceConfig::with_workers(1));
        let batch = service
            .submit_watched(vec![job(1)], Arc::new(|_, _| panic!("watcher bug")))
            .unwrap();
        // The result board still resolves, and the single worker survives
        // to run a second batch.
        assert_eq!(batch.wait().len(), 1);
        assert_eq!(
            reports(service.submit(vec![job(2)]).unwrap().wait()).len(),
            1
        );
    }

    #[test]
    fn submit_with_spans_the_whole_quadrant() {
        // Blocking + watched through the unified entrypoint.
        let service = QueryService::new(ServiceConfig::with_workers(2));
        let jobs: Vec<QueryJob> = (0..8).map(job).collect();
        let expected: Vec<_> = jobs.iter().map(|j| j.execute()).collect();
        let hits = Arc::new(AtomicUsize::new(0));
        let sink = hits.clone();
        let batch = service
            .submit_with(
                jobs,
                SubmitOptions::new().watched(Arc::new(move |_, _| {
                    sink.fetch_add(1, Ordering::Relaxed);
                })),
            )
            .unwrap();
        assert_eq!(reports(batch.wait()), expected);
        assert_eq!(hits.load(Ordering::Relaxed), 8);

        // Non-blocking admission surfaces QueueFull like try_submit.
        let service = QueryService::new(ServiceConfig {
            workers: 1,
            queue_capacity: 1,
            ..ServiceConfig::default()
        });
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let gate: Box<dyn FnOnce() -> JobOutput + Send> = Box::new(move || {
            rx.recv().ok();
            JobOutput::Value(0.0)
        });
        let gate_batch = service.submit_tasks("gate", vec![gate]).unwrap();
        let fill = service.submit(vec![job(1)]).unwrap();
        match service.submit_with(vec![job(2)], SubmitOptions::new().nonblocking()) {
            Err(SubmitError::QueueFull(jobs)) => assert_eq!(jobs, vec![job(2)]),
            Err(other) => panic!("expected QueueFull, got {other:?}"),
            Ok(_) => panic!("expected QueueFull, got acceptance"),
        }
        tx.send(()).unwrap();
        gate_batch.wait();
        fill.wait();
    }

    /// Submits a task that holds the service's only worker until the
    /// returned sender fires, and waits until the worker is inside it.
    fn hold_the_worker(service: &QueryService) -> (Batch, std::sync::mpsc::Sender<()>) {
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let gate: Box<dyn FnOnce() -> JobOutput + Send> = Box::new(move || {
            started_tx.send(()).ok();
            release_rx.recv().ok();
            JobOutput::Value(0.0)
        });
        let gate_batch = service.submit_tasks("gate", vec![gate]).unwrap();
        started_rx.recv().expect("gate task reached the worker");
        (gate_batch, release_tx)
    }

    #[test]
    fn recycled_units_never_show_a_previous_batch() {
        // Queue capacity 4: a watched job plus a 3-job batch fill it, so
        // a third submit is rejected while the worker is held.
        let service = QueryService::new(ServiceConfig::with_workers(1).with_queue_capacity(4));
        let (tx, rx) = std::sync::mpsc::channel();
        let watcher: CompletionWatcher = Arc::new(move |done: Completion, result| {
            let Ok(JobOutput::Report(report)) = result else {
                panic!("unexpected {result:?}");
            };
            tx.send((done.tag, done.index, report.clone())).ok();
        });
        let watched = |tag| {
            SubmitOptions::new()
                .nonblocking()
                .watched(watcher.clone())
                .tagged(tag)
        };
        for round in 0..50u64 {
            let (gate, release) = hold_the_worker(&service);
            // Dropped at once, as the network tier drops its batches.
            let first = job(round * 10);
            drop(service.submit_with(std::iter::once(first), watched(round * 10 + 1)));
            let plain: Vec<QueryJob> = (1..4).map(|i| job(round * 10 + i)).collect();
            let expected: Vec<_> = plain.iter().map(QueryJob::execute).collect();
            let batch = service.submit(plain).unwrap();
            let refused = job(round * 10 + 5);
            match service.submit_with(std::iter::once(refused), watched(round * 10 + 2)) {
                Err(SubmitError::QueueFull(jobs)) => assert_eq!(jobs, vec![refused]),
                Err(e) => panic!("round {round}: expected QueueFull, got {e:?}"),
                Ok(_) => panic!("round {round}: expected QueueFull, got acceptance"),
            }
            release.send(()).unwrap();
            gate.wait();
            assert_eq!(reports(batch.wait()), expected, "round {round}");
            let (tag, index, report) = rx.recv().expect("the watched job completes");
            assert_eq!((tag, index), (round * 10 + 1, 0), "round {round}");
            assert_eq!(report, first.execute(), "round {round}");
            assert!(!report.trace.is_empty());
            assert!(rx.try_recv().is_err(), "round {round}: one completion only");
        }
        assert!(
            !service.inner.spares.lock().is_empty(),
            "finished units went back to the free list"
        );
    }

    #[test]
    fn a_shared_batch_dropped_before_it_completes_still_yields_full_reports() {
        let service = QueryService::new(ServiceConfig::with_workers(1));
        let hits = Arc::new(AtomicUsize::new(0));
        let sink = hits.clone();
        let watcher: CompletionWatcher = Arc::new(move |_, _| {
            sink.fetch_add(1, Ordering::Relaxed);
        });
        for round in 0..20u64 {
            let jobs: Vec<QueryJob> = (0..3).map(|i| job(round * 3 + i)).collect();
            let expected: Vec<_> = jobs.iter().map(QueryJob::execute).collect();
            let (gate, release) = hold_the_worker(&service);
            let batch = service.submit_watched(jobs, watcher.clone()).unwrap();
            let handles = batch.handles();
            drop(batch);
            release.send(()).unwrap();
            gate.wait();
            for (handle, want) in handles.into_iter().zip(&expected) {
                let Ok(JobOutput::Report(report)) = handle.wait() else {
                    panic!("round {round}: expected a report");
                };
                assert!(!report.trace.is_empty());
                assert_eq!(&report, want, "round {round}");
            }
        }
        assert_eq!(hits.load(Ordering::Relaxed), 60);
    }

    #[test]
    fn session_cache_serves_repeats_without_changing_results() {
        let service = QueryService::new(ServiceConfig::with_workers(2).with_session_cache(64));
        let jobs: Vec<QueryJob> = (0..4).map(job).collect();
        let expected: Vec<_> = jobs.iter().map(|j| j.execute()).collect();
        let first = reports(service.submit(jobs.clone()).unwrap().wait());
        assert_eq!(first, expected);
        // Same batch again: all four served from cache, bit-identically.
        let second = reports(service.submit(jobs).unwrap().wait());
        assert_eq!(second, expected);
        let snap = service.metrics();
        let row = snap.rows.iter().find(|r| r.label == "2tBins").unwrap();
        assert_eq!(row.jobs, 8, "cached jobs still count as jobs");
        assert_eq!(row.cache_hits, 4);
        assert_eq!(row.verdict_yes, 8, "verdict totals match an uncached run");
    }

    #[test]
    fn session_cache_is_disabled_by_default() {
        let service = QueryService::new(ServiceConfig::with_workers(1));
        service.submit(vec![job(1)]).unwrap().wait();
        service.submit(vec![job(1)]).unwrap().wait();
        let snap = service.metrics();
        let row = snap.rows.iter().find(|r| r.label == "2tBins").unwrap();
        assert_eq!((row.jobs, row.cache_hits), (2, 0));
    }

    #[test]
    fn session_cache_capacity_bounds_what_survives() {
        // Capacity 1: A, B, A — B evicts A, so the second A recomputes.
        let service = QueryService::new(ServiceConfig::with_workers(1).with_session_cache(1));
        for j in [job(1), job(2), job(1)] {
            service.submit(vec![j]).unwrap().wait();
        }
        let snap = service.metrics();
        let row = snap.rows.iter().find(|r| r.label == "2tBins").unwrap();
        assert_eq!((row.jobs, row.cache_hits), (3, 0));

        // Capacity 2: the same sequence hits on the second A.
        let service = QueryService::new(ServiceConfig::with_workers(1).with_session_cache(2));
        for j in [job(1), job(2), job(1)] {
            service.submit(vec![j]).unwrap().wait();
        }
        let snap = service.metrics();
        let row = snap.rows.iter().find(|r| r.label == "2tBins").unwrap();
        assert_eq!((row.jobs, row.cache_hits), (3, 1));
    }

    #[test]
    fn metrics_report_per_algorithm_activity() {
        let service = QueryService::new(ServiceConfig::with_workers(4));
        let mut jobs = Vec::new();
        for (i, alg) in AlgorithmSpec::ALL.iter().enumerate() {
            jobs.push(QueryJob::new(
                *alg,
                ChannelSpec::ideal(64, 20, CollisionModel::OnePlus).seeded(i as u64, 99),
                8,
                i as u64,
            ));
        }
        service.submit(jobs).unwrap().wait();
        let snap = service.metrics();
        assert_eq!(snap.rows.len(), AlgorithmSpec::ALL.len());
        for row in &snap.rows {
            assert_eq!(row.jobs, 1, "{}", row.label);
            assert!(row.queries > 0, "{} issued no queries", row.label);
            assert_eq!(row.verdict_yes, 1, "{} x=20 >= t=8", row.label);
        }
    }

    use tcast_tenant::TenantSpec;

    /// A single-worker tenanted service whose worker is parked inside a
    /// gate task, plus the channel that releases it. Everything submitted
    /// while the gate is held queues up behind it, so dequeue order is
    /// fully determined by the scheduler — no racing the worker.
    fn gated_service(
        registry: TenantRegistry,
    ) -> (QueryService, Batch, std::sync::mpsc::Sender<()>) {
        let service =
            QueryService::with_tenants(ServiceConfig::with_workers(1), Arc::new(registry));
        let (gate_batch, release) = hold_the_worker(&service);
        (service, gate_batch, release)
    }

    /// Tags completions in arrival order; each submitted job carries its
    /// own tag through a watcher.
    type Order = Arc<parking_lot::Mutex<Vec<&'static str>>>;

    fn submit_tagged(
        service: &QueryService,
        job: QueryJob,
        tag: &'static str,
        order: &Order,
    ) -> Batch {
        let order = order.clone();
        service
            .submit_watched(vec![job], Arc::new(move |_, _| order.lock().push(tag)))
            .unwrap()
    }

    #[test]
    fn weighted_drr_interleaves_tenants_by_weight() {
        let mut registry = TenantRegistry::new();
        let a = registry.register(TenantSpec::new("a", b"ka"));
        let b = registry.register(TenantSpec::new("b", b"kb").weight(2));
        let (service, gate_batch, release) = gated_service(registry);
        let order: Order = Arc::new(parking_lot::Mutex::new(Vec::new()));

        // Queue 3 jobs for weight-1 tenant a, then 6 for weight-2
        // tenant b, while the single worker is parked in the gate.
        let mut batches = Vec::new();
        for (i, tag) in [(1u64, "a1"), (2, "a2"), (3, "a3")] {
            batches.push(submit_tagged(&service, job(i).with_tenant(a), tag, &order));
        }
        for (i, tag) in [
            (11u64, "b1"),
            (12, "b2"),
            (13, "b3"),
            (14, "b4"),
            (15, "b5"),
            (16, "b6"),
        ] {
            batches.push(submit_tagged(&service, job(i).with_tenant(b), tag, &order));
        }
        release.send(()).unwrap();
        gate_batch.wait();
        for batch in batches {
            batch.wait();
        }

        // Deficit round robin with weights 1:2 — a gets one claim per
        // turn, b gets two, and b's surplus runs off the end once a
        // drains.
        assert_eq!(
            *order.lock(),
            vec!["a1", "b1", "b2", "a2", "b3", "b4", "a3", "b5", "b6"]
        );
    }

    #[test]
    fn priority_bands_reorder_within_a_tenant() {
        let mut registry = TenantRegistry::new();
        let t = registry.register(TenantSpec::new("t", b"kt"));
        let (service, gate_batch, release) = gated_service(registry);
        let order: Order = Arc::new(parking_lot::Mutex::new(Vec::new()));

        let batches = vec![
            submit_tagged(
                &service,
                job(1).with_tenant(t).with_priority(Priority::Low),
                "low",
                &order,
            ),
            submit_tagged(&service, job(2).with_tenant(t), "normal", &order),
            submit_tagged(
                &service,
                job(3).with_tenant(t).with_priority(Priority::High),
                "high",
                &order,
            ),
        ];
        release.send(()).unwrap();
        gate_batch.wait();
        for batch in batches {
            batch.wait();
        }

        assert_eq!(*order.lock(), vec!["high", "normal", "low"]);
    }

    #[test]
    fn default_lane_stays_strict_fifo() {
        // Untenanted jobs all share the default lane; with one busy
        // lane, DRR degenerates to exactly the old FIFO order.
        let registry = TenantRegistry::new();
        let (service, gate_batch, release) = gated_service(registry);
        let order: Order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let batches: Vec<Batch> = [(1u64, "j1"), (2, "j2"), (3, "j3"), (4, "j4")]
            .into_iter()
            .map(|(i, tag)| submit_tagged(&service, job(i), tag, &order))
            .collect();
        release.send(()).unwrap();
        gate_batch.wait();
        for batch in batches {
            batch.wait();
        }
        assert_eq!(*order.lock(), vec!["j1", "j2", "j3", "j4"]);
    }

    #[test]
    fn max_in_flight_quota_rejects_and_recovers() {
        let mut registry = TenantRegistry::new();
        let t = registry.register(TenantSpec::new("t", b"kt").max_in_flight(2));
        let service =
            QueryService::with_tenants(ServiceConfig::with_workers(1), Arc::new(registry));

        // A 3-job batch cannot fit under the 2-slot cap; the jobs come
        // back in the error, and the charge is rolled back in full.
        let jobs: Vec<QueryJob> = (1..=3).map(|i| job(i).with_tenant(t)).collect();
        match service.submit(jobs.clone()) {
            Err(SubmitError::QuotaExceeded(returned)) => assert_eq!(returned, jobs),
            Err(e) => panic!("expected QuotaExceeded, got {e:?}"),
            Ok(_) => panic!("expected QuotaExceeded, got acceptance"),
        }

        // Two jobs fit; once they complete their slots free up and the
        // next two are admitted — completion releases in-flight charges.
        service
            .submit((1..=2).map(|i| job(i).with_tenant(t)).collect::<Vec<_>>())
            .unwrap()
            .wait();
        service
            .submit((3..=4).map(|i| job(i).with_tenant(t)).collect::<Vec<_>>())
            .unwrap()
            .wait();

        let snap = service.metrics();
        let row = snap.tenant_rows.iter().find(|r| r.tenant == "t").unwrap();
        assert_eq!(row.jobs, 4);
        assert_eq!(row.quota_rejections, 3);
    }

    #[test]
    fn token_bucket_quota_sheds_bursts() {
        // Zero refill, burst 2: exactly two jobs ever pass admission.
        let mut registry = TenantRegistry::new();
        let t = registry.register(TenantSpec::new("t", b"kt").rate(0.0, 2.0));
        let service =
            QueryService::with_tenants(ServiceConfig::with_workers(1), Arc::new(registry));

        service
            .submit((1..=2).map(|i| job(i).with_tenant(t)).collect::<Vec<_>>())
            .unwrap()
            .wait();
        match service.submit(vec![job(3).with_tenant(t)]) {
            Err(SubmitError::QuotaExceeded(_)) => {}
            Err(e) => panic!("expected QuotaExceeded, got {e:?}"),
            Ok(_) => panic!("expected QuotaExceeded, got acceptance"),
        }
        let snap = service.metrics();
        let row = snap.tenant_rows.iter().find(|r| r.tenant == "t").unwrap();
        assert_eq!((row.jobs, row.quota_rejections), (2, 1));
    }

    /// Everything a claim may change, without unit identities: the
    /// rotation, each queued tenant's deficit and its bands' units as
    /// (len, next claim index), and the queued-job count.
    type Shape = (
        Vec<Option<u32>>,
        Vec<(Option<u32>, u32, Vec<Vec<(usize, usize)>>)>,
        usize,
    );

    fn shape(st: &QueueState) -> Shape {
        let queues = st
            .queues
            .iter()
            .map(|(key, q)| {
                let bands = q
                    .bands
                    .iter()
                    .map(|band| {
                        band.iter()
                            .map(|u| (u.len(), u.next.load(Ordering::Relaxed)))
                            .collect()
                    })
                    .collect();
                (*key, q.deficit, bands)
            })
            .collect();
        (
            st.rotation.iter().copied().collect(),
            queues,
            st.queued_jobs,
        )
    }

    #[test]
    fn a_helper_claims_exactly_what_a_worker_would_and_only_then() {
        let mut registry = TenantRegistry::new();
        let a = registry.register(TenantSpec::new("a", b"ka"));
        let b = registry.register(TenantSpec::new("b", b"kb").weight(2));
        let registry = Arc::new(registry);
        let unit = |jobs: u64| {
            WorkUnit::new(
                (0..jobs)
                    .map(|i| Slot::Queued(Payload::Query(job(i))))
                    .collect(),
                None,
            )
        };
        // Two identical queues: the worker side claims with "any", the
        // helper side only for the unit the worker side just served.
        // Tenant a: a 2-job normal unit and a 1-job high unit; tenant b
        // (weight 2): a 3-job unit.
        // No worker threads: the queues move only when the test claims.
        let config = ServiceConfig::default();
        let worker = Inner::new(&config, Some(registry.clone()), 0);
        let helper = Inner::new(&config, Some(registry), 0);
        let mut units = Vec::new();
        for inner in [&worker, &helper] {
            let queued = [
                (a, Priority::Normal, unit(2)),
                (b, Priority::Normal, unit(3)),
                (a, Priority::High, unit(1)),
            ];
            let mut st = inner.state.lock();
            for (tenant, priority, u) in &queued {
                let key = Some(tenant.0);
                st.push(key, priority.band(), u.clone(), inner.weight_of(key));
            }
            units.push(queued.map(|(_, _, u)| u));
        }
        let (worker_units, helper_units) = (&units[0], &units[1]);

        let mut claims = 0;
        loop {
            let mut ws = worker.state.lock();
            let mut hs = helper.state.lock();
            assert_eq!(shape(&ws), shape(&hs));
            let Some((served, index)) = claim_drr(&worker, &mut ws, |_| true) else {
                assert!(claim_drr(&helper, &mut hs, |_| true).is_none());
                break;
            };
            let which = worker_units
                .iter()
                .position(|u| Arc::ptr_eq(u, &served))
                .expect("a queued unit");
            // Helpers of every other unit claim nothing and change
            // nothing: not the rotation, not a deficit, not a claim index.
            let before = shape(&hs);
            for (k, other) in helper_units.iter().enumerate().filter(|(k, _)| *k != which) {
                let got = claim_drr(&helper, &mut hs, |u| std::ptr::eq(u, &**other));
                assert!(got.is_none(), "unit {k} is not next at claim {claims}");
                assert_eq!(shape(&hs), before);
            }
            // The helper of the served unit gets the same slot and leaves
            // the same state behind.
            let mine = &helper_units[which];
            let (got, got_index) = claim_drr(&helper, &mut hs, |u| std::ptr::eq(u, &**mine))
                .expect("the served unit's helper claims");
            assert!(Arc::ptr_eq(&got, mine));
            assert_eq!(got_index, index);
            assert_eq!(shape(&hs), shape(&ws));
            claims += 1;
        }
        assert_eq!(claims, 6, "every queued job claimed once");
    }

    #[test]
    fn a_drained_tenant_keeps_its_queue_and_leaves_the_rotation() {
        let mut registry = TenantRegistry::new();
        let a = registry.register(TenantSpec::new("a", b"ka"));
        let b = registry.register(TenantSpec::new("b", b"kb"));
        // No worker threads: the queues move only when the test claims.
        let inner = Inner::new(&ServiceConfig::default(), Some(Arc::new(registry)), 0);
        let unit = |jobs: u64| {
            WorkUnit::new(
                (0..jobs)
                    .map(|i| Slot::Queued(Payload::Query(job(i))))
                    .collect(),
                None,
            )
        };
        let (ka, kb) = (Some(a.0), Some(b.0));
        let band = Priority::Normal.band();
        // Tenant b stays busy throughout; tenant a drains and resubmits.
        let mut st = inner.state.lock();
        st.push(kb, band, unit(5_000), inner.weight_of(kb));
        let mut a_band_capacity = None;
        for round in 0..1_000 {
            let mine = unit(1);
            st.push(ka, band, mine.clone(), inner.weight_of(ka));
            while !claim_drr(&inner, &mut st, |_| true)
                .is_some_and(|(served, _)| Arc::ptr_eq(&served, &mine))
            {}
            // A claim that finds the drained a ahead of b retires it.
            for _ in 0..2 {
                if st.rotation.contains(&ka) {
                    claim_drr(&inner, &mut st, |_| true).expect("b is still busy");
                }
            }
            let keys: Vec<_> = st.queues.keys().copied().collect();
            assert_eq!(
                keys,
                vec![ka, kb],
                "round {round}: the key set never changes"
            );
            assert_eq!(st.rotation, [kb], "round {round}: only b is busy");
            for key in &st.rotation {
                let queue = &st.queues[key];
                assert!(queue.in_rotation);
                assert!(queue.bands.iter().any(|band| !band.is_empty()));
            }
            let queue = &st.queues[&ka];
            assert!(!queue.in_rotation && queue.bands.iter().all(VecDeque::is_empty));
            // a's band kept the capacity its first unit gave it.
            let capacity = queue.bands[band].capacity();
            assert!(capacity > 0);
            assert_eq!(*a_band_capacity.get_or_insert(capacity), capacity);
        }
    }

    #[test]
    fn tenanted_reports_are_bit_identical_to_the_plain_service() {
        // The tentpole invariant: tenancy is pure scheduling. The same
        // jobs through a tenanted service (weights, quotas, priority
        // bands in play) produce byte-for-byte the reports the plain
        // FIFO service produces.
        let plain = QueryService::new(ServiceConfig::with_workers(2));
        let plain_reports = reports(
            plain
                .submit((0..16).map(job).collect::<Vec<_>>())
                .unwrap()
                .wait(),
        );

        let mut registry = TenantRegistry::new();
        let a = registry.register(TenantSpec::new("a", b"ka"));
        let b = registry.register(TenantSpec::new("b", b"kb").weight(3));
        let tenanted =
            QueryService::with_tenants(ServiceConfig::with_workers(2), Arc::new(registry));
        let jobs: Vec<QueryJob> = (0..16)
            .map(|i| {
                let tenant = if i % 2 == 0 { a } else { b };
                let priority = match i % 3 {
                    0 => Priority::High,
                    1 => Priority::Normal,
                    _ => Priority::Low,
                };
                job(i).with_tenant(tenant).with_priority(priority)
            })
            .collect();
        let mut tenanted_reports = Vec::new();
        for j in jobs {
            tenanted_reports.extend(reports(tenanted.submit(vec![j]).unwrap().wait()));
        }
        assert_eq!(plain_reports, tenanted_reports);
    }
}
