//! Deterministic parallelism for tensor kernels, built around a
//! persistent [`WorkerPool`] with a single **thread budget**.
//!
//! The heavy kernels ([`crate::Tensor::matmul`] and friends, the row-wise
//! normalizations) partition their *output rows* into disjoint contiguous
//! blocks and run the exact same kernel on each block, one block per
//! worker. Because no accumulation ever crosses a row boundary,
//! the floating-point evaluation order of every output element is
//! identical for any worker count — results are **bit-identical** to the
//! serial path by construction (asserted by proptests). The pool changes
//! only *who* executes a block, never how it is computed.
//!
//! # The thread budget
//!
//! A [`WorkerPool`] with budget `B` owns exactly `B − 1` long-lived
//! worker threads; the caller's thread is the `B`-th worker (a budget of
//! 1 spawns nothing and runs everything inline). Every parallel construct
//! — kernel row-blocks *and* `gp_core`'s episode fan-out — submits tasks
//! to the same queue, so the process never runs more than `B` tasks at
//! once no matter how the layers nest: a submitter executes its own
//! queued tasks while it waits (it is one of the `B`), and idle workers
//! steal whatever is queued. This replaces the old design where episode
//! workers (`available_parallelism()`) and kernel workers (a process-wide
//! atomic) multiplied into ~N² threads on an N-core host.
//!
//! Nesting cannot deadlock: a task that submits a sub-job drains that
//! job's queued tasks itself before blocking, so every pending task is
//! always being executed by some thread, and the recursion bottoms out at
//! leaf kernel blocks that never block.
//!
//! `gp_core`'s `Engine` owns a pool sized from its `Parallelism` setting
//! and installs it (via [`WorkerPool::install`]) for the duration of each
//! `pretrain` / `evaluate` / `run_episode` call; kernels pick it up
//! through a thread-local, so two engines in one process never stomp a
//! shared global. There is no ambient process-wide setting: kernels
//! running with no pool installed simply execute serially (the
//! deprecated `set_parallelism` fallback was removed with the backend
//! redesign).
//!
//! Spawning a thread costs ~10µs on Linux — the pool pays it once per
//! engine, not once per matmul. Kernels still only fan out when the
//! estimated scalar-op count clears [`MIN_PARALLEL_WORK`].

#![expect(
    unsafe_code,
    reason = "type-erased job closures and disjoint row-block pointers shared with pool workers; each site states its SAFETY argument"
)]

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};

use gp_obs::sync::{Mutex, Rank};

static FANOUTS: gp_obs::Counter = gp_obs::Counter::new("tensor.parallel.fanouts");
static SERIAL_RUNS: gp_obs::Counter = gp_obs::Counter::new("tensor.parallel.serial_runs");
static TASKS: gp_obs::Counter = gp_obs::Counter::new("tensor.parallel.tasks");

// Pool instruments: live workers / queue depth / in-flight tasks as
// gauges, dispatch and steal totals as counters.
static POOL_WORKERS_GAUGE: gp_obs::Gauge = gp_obs::Gauge::new("tensor.pool.workers");
static POOL_QUEUE_DEPTH: gp_obs::Gauge = gp_obs::Gauge::new("tensor.pool.queue_depth");
static POOL_ACTIVE: gp_obs::Gauge = gp_obs::Gauge::new("tensor.pool.active");
static POOL_DISPATCHED: gp_obs::Counter = gp_obs::Counter::new("tensor.pool.dispatched");
static POOL_STOLEN: gp_obs::Counter = gp_obs::Counter::new("tensor.pool.stolen");

/// How many worker threads the tensor kernels may use.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// One thread; every kernel runs its classic serial loop (default).
    #[default]
    Serial,
    /// Exactly `n` worker threads (clamped to ≥ 1).
    Threads(usize),
    /// One worker per available hardware thread.
    Auto,
}

impl Parallelism {
    /// The worker count this setting resolves to on this host.
    pub fn workers(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Threads(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

/// Minimum estimated scalar ops before a kernel fans out. Below this the
/// per-task dispatch cost dominates any speedup.
pub const MIN_PARALLEL_WORK: usize = 1 << 15;

/// The ambient worker budget (≥ 1): the installed [`WorkerPool`]'s budget
/// when one is active on this thread, else 1 (serial).
pub fn configured_workers() -> usize {
    current_pool().map_or(1, |pool| pool.budget)
}

/// Worker count a kernel with `rows` independent output rows and
/// `total_work` estimated scalar ops should use under `budget` threads:
/// 1 when the budget is 1 or the job is too small, else
/// `min(budget, rows)`. Pure — no globals, no thread-locals.
pub fn workers_for_budget(budget: usize, rows: usize, total_work: usize) -> usize {
    if budget <= 1 || rows < 2 || total_work < MIN_PARALLEL_WORK {
        1
    } else {
        budget.min(rows)
    }
}

/// As [`workers_for_budget`] under the ambient budget
/// ([`configured_workers`]).
pub fn workers_for(rows: usize, total_work: usize) -> usize {
    workers_for_budget(configured_workers(), rows, total_work)
}

// ---------------------------------------------------------------------------
// The worker pool.
// ---------------------------------------------------------------------------

/// Completion state of one submitted job (a batch of indexed tasks).
struct JobDone {
    pending: usize,
    panic: Option<Box<dyn std::any::Any + Send>>,
}

/// A type-erased job: `run(ctx, i)` invokes the submitter's closure with
/// task index `i`. `ctx` points into the submitter's stack frame, which
/// outlives the job because the submitter blocks until `pending == 0`.
struct JobState {
    run: unsafe fn(*const (), usize),
    ctx: *const (),
    done: Mutex<JobDone>,
    done_cv: Condvar,
}

// SAFETY: `ctx` is only dereferenced through `run`, which requires the
// referent to be `Sync` (it is constructed from `&(dyn Fn(usize) + Sync)`),
// and the submitter keeps the referent alive until the job completes.
unsafe impl Send for JobState {}
unsafe impl Sync for JobState {}

struct PendingTask {
    job: Arc<JobState>,
    index: usize,
}

struct PoolShared {
    budget: usize,
    queue: Mutex<VecDeque<PendingTask>>,
    work_cv: Condvar,
    shutdown: AtomicBool,
    // Tasks currently executing at top level (nested drains don't
    // re-count — see IN_TASK). `peak_active` is the high-water mark the
    // thread-budget regression test reads; `+ 0/1` caller threads it can
    // never exceed the budget.
    active: AtomicUsize,
    peak_active: AtomicUsize,
    executed: AtomicUsize,
    stolen: AtomicUsize,
}

thread_local! {
    /// The pool whose budget governs this thread: installed by
    /// [`WorkerPool::install`] on callers, permanently on pool workers.
    static CURRENT_POOL: RefCell<Option<Arc<PoolShared>>> = const { RefCell::new(None) };
    /// Whether this thread is inside a pool task, so nested drains (a
    /// kernel fan-out inside an episode task) don't double-count `active`.
    static IN_TASK: Cell<bool> = const { Cell::new(false) };
}

fn current_pool() -> Option<Arc<PoolShared>> {
    CURRENT_POOL.with(|c| c.borrow().clone())
}

/// Point-in-time counters of a [`WorkerPool`], for tests and diagnostics.
/// Always collected (plain relaxed atomics), independent of `gp-obs`.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Configured thread budget (callers + spawned workers ≤ this).
    pub budget: usize,
    /// OS threads the pool spawned (`budget − 1`, or 0 for budget 1).
    pub spawned_workers: usize,
    /// High-water mark of concurrently executing top-level tasks.
    pub peak_active: usize,
    /// Total tasks executed (by workers and submitters alike).
    pub tasks_executed: usize,
    /// Tasks executed by a pool worker rather than their submitter.
    pub tasks_stolen: usize,
}

/// A persistent worker pool enforcing one thread budget across every
/// parallelism layer (kernel row-blocks, episode fan-out).
///
/// Budget `B` spawns `B − 1` named OS threads once; a budget of 1 spawns
/// none and every "parallel" construct runs inline on the caller. Install
/// the pool with [`WorkerPool::install`] to route this thread's kernel
/// fan-outs ([`for_row_blocks`]) through it. Dropping the pool joins all
/// workers.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Build a pool with the given thread budget (clamped to ≥ 1).
    pub fn with_budget(budget: usize) -> Self {
        let budget = budget.max(1);
        #[expect(
            clippy::disallowed_methods,
            reason = "every submitter blocks until its own tasks drain, so the queue never holds more than the tasks of the jobs in flight"
        )]
        let shared = Arc::new(PoolShared {
            budget,
            queue: Mutex::new(Rank::PoolQueue, VecDeque::new()),
            work_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            peak_active: AtomicUsize::new(0),
            executed: AtomicUsize::new(0),
            stolen: AtomicUsize::new(0),
        });
        let mut handles = Vec::with_capacity(budget - 1);
        for i in 0..budget - 1 {
            let s = Arc::clone(&shared);
            #[expect(clippy::disallowed_methods, reason = "the one sanctioned spawn site")]
            #[expect(
                clippy::expect_used,
                reason = "a pool that cannot start its workers cannot honor its thread budget; fail loudly rather than run serially"
            )]
            let handle = std::thread::Builder::new()
                .name(format!("gp-pool-{i}"))
                .spawn(move || worker_loop(s))
                .expect("spawn gp-pool worker");
            handles.push(handle);
        }
        POOL_WORKERS_GAUGE.offset(handles.len() as i64);
        Self { shared, handles }
    }

    /// The configured thread budget (≥ 1).
    pub fn budget(&self) -> usize {
        self.shared.budget
    }

    /// OS threads this pool spawned (`budget() − 1`; 0 for budget 1).
    pub fn spawned_workers(&self) -> usize {
        self.handles.len()
    }

    /// Snapshot of the pool's counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            budget: self.shared.budget,
            spawned_workers: self.handles.len(),
            peak_active: self.shared.peak_active.load(Ordering::Relaxed),
            tasks_executed: self.shared.executed.load(Ordering::Relaxed),
            tasks_stolen: self.shared.stolen.load(Ordering::Relaxed),
        }
    }

    /// Make this pool the ambient one for the current thread until the
    /// guard drops; [`for_row_blocks`] and [`configured_workers`] pick it
    /// up. Guards nest (the previous pool is restored on drop).
    pub fn install(&self) -> PoolGuard {
        let prev = CURRENT_POOL.with(|c| c.borrow_mut().replace(Arc::clone(&self.shared)));
        PoolGuard {
            prev,
            _not_send: std::marker::PhantomData,
        }
    }

    /// Run `f(0) … f(count − 1)`, distributing the calls over the pool.
    /// The submitter executes queued tasks itself while waiting (it is
    /// one of the budgeted threads). Panics in `f` are propagated to the
    /// submitter after all tasks finish or unwind.
    pub fn for_each_index<F>(&self, count: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        run_tasks_on(&self.shared, count, &f);
    }

    /// As [`for_row_blocks`], but explicitly on this pool (the free
    /// function routes through whichever pool is installed).
    pub fn run_blocks<F>(&self, out: &mut [f32], rows: usize, cols: usize, workers: usize, f: F)
    where
        F: Fn(Range<usize>, &mut [f32]) + Sync,
    {
        run_blocks_on(&self.shared, out, rows, cols, workers, f);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            // Set the flag under the queue lock: a worker checks it under
            // that lock right before waiting, so a store in between would
            // land before the worker waits and its wake-up would be lost.
            let _queue = self.shared.queue.lock();
            self.shared.shutdown.store(true, Ordering::Release);
        }
        self.shared.work_cv.notify_all();
        POOL_WORKERS_GAUGE.offset(-(self.handles.len() as i64));
        for handle in self.handles.drain(..) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "Drop cannot propagate a worker panic; the panic already surfaced as a poisoned result upstream"
            )]
            let _ = handle.join();
        }
    }
}

/// RAII guard from [`WorkerPool::install`]; restores the previously
/// installed pool (if any) on drop. `!Send`: it manages a thread-local.
pub struct PoolGuard {
    prev: Option<Arc<PoolShared>>,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl Drop for PoolGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        CURRENT_POOL.with(|c| *c.borrow_mut() = prev);
    }
}

// Pool locks recover from poisoning throughout: tasks run under
// `catch_unwind`, but a panic in the submitter itself (e.g. a request
// thread killed mid-episode) may still poison the queue or a job's done
// state. Both hold plain counters and task handles that are valid at
// every step, so the pool must keep serving later submitters instead of
// cascading the panic — one crashed request must not take the pool down.

fn worker_loop(shared: Arc<PoolShared>) {
    // Workers run under their own pool's budget, so kernels inside a
    // stolen episode task fan out through the same queue.
    CURRENT_POOL.with(|c| *c.borrow_mut() = Some(Arc::clone(&shared)));
    loop {
        let task = {
            let mut queue = shared.queue.lock();
            loop {
                if let Some(t) = queue.pop_front() {
                    break Some(t);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = queue.wait(&shared.work_cv);
            }
        };
        match task {
            Some(task) => {
                POOL_QUEUE_DEPTH.offset(-1);
                execute(&shared, task, true);
            }
            None => break,
        }
    }
}

/// Run one task, tracking top-level concurrency and catching panics so a
/// worker thread survives to report them to the submitter.
fn execute(shared: &PoolShared, task: PendingTask, stolen: bool) {
    let top_level = !IN_TASK.with(Cell::get);
    if top_level {
        IN_TASK.with(|t| t.set(true));
        let now = shared.active.fetch_add(1, Ordering::Relaxed) + 1;
        shared.peak_active.fetch_max(now, Ordering::Relaxed);
        POOL_ACTIVE.offset(1);
    }
    shared.executed.fetch_add(1, Ordering::Relaxed);
    if stolen {
        shared.stolen.fetch_add(1, Ordering::Relaxed);
        POOL_STOLEN.inc();
    }
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        // SAFETY: `ctx` is alive (the submitter blocks until this job's
        // `pending` hits 0) and `run` matches how `ctx` was erased.
        unsafe { (task.job.run)(task.job.ctx, task.index) }
    }));
    if top_level {
        shared.active.fetch_sub(1, Ordering::Relaxed);
        POOL_ACTIVE.offset(-1);
        IN_TASK.with(|t| t.set(false));
    }
    let mut done = task.job.done.lock();
    done.pending -= 1;
    if let Err(panic) = result {
        done.panic.get_or_insert(panic);
    }
    if done.pending == 0 {
        task.job.done_cv.notify_all();
    }
}

/// Trampoline restoring the submitter's closure from its erased pointer.
unsafe fn run_erased(ctx: *const (), index: usize) {
    let f: &(dyn Fn(usize) + Sync) = unsafe { *(ctx as *const &(dyn Fn(usize) + Sync)) };
    f(index);
}

/// Submit `count` indexed tasks and run them to completion: queue all,
/// wake the workers, execute our own job's queued tasks, then wait for
/// any stolen stragglers. Inline when the budget (or the job) is 1.
fn run_tasks_on(shared: &Arc<PoolShared>, count: usize, f: &(dyn Fn(usize) + Sync)) {
    if count == 0 {
        return;
    }
    if shared.budget <= 1 || count == 1 || shared.shutdown.load(Ordering::Acquire) {
        for i in 0..count {
            f(i);
        }
        return;
    }
    let job = Arc::new(JobState {
        run: run_erased,
        ctx: &f as *const &(dyn Fn(usize) + Sync) as *const (),
        done: Mutex::new(
            Rank::JobDone,
            JobDone {
                pending: count,
                panic: None,
            },
        ),
        done_cv: Condvar::new(),
    });
    {
        let mut queue = shared.queue.lock();
        for index in 0..count {
            queue.push_back(PendingTask {
                job: Arc::clone(&job),
                index,
            });
        }
    }
    POOL_QUEUE_DEPTH.offset(count as i64);
    POOL_DISPATCHED.add(count as u64);
    shared.work_cv.notify_all();

    // Drain our own job: the submitting thread is one of the budget.
    loop {
        let task = {
            let mut queue = shared.queue.lock();
            match queue.iter().position(|t| Arc::ptr_eq(&t.job, &job)) {
                Some(pos) => queue.remove(pos),
                None => None,
            }
        };
        match task {
            Some(task) => {
                POOL_QUEUE_DEPTH.offset(-1);
                execute(shared, task, false);
            }
            None => break,
        }
    }

    let mut done = job.done.lock();
    while done.pending > 0 {
        done = done.wait(&job.done_cv);
    }
    if let Some(panic) = done.panic.take() {
        drop(done);
        std::panic::resume_unwind(panic);
    }
}

/// Raw base pointer of the output buffer, shared with tasks that each
/// write a disjoint row range.
#[derive(Copy, Clone)]
struct SendPtr(*mut f32);
// SAFETY: tasks index disjoint regions; see `run_blocks_on`.
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

fn run_blocks_on<F>(
    shared: &Arc<PoolShared>,
    out: &mut [f32],
    rows: usize,
    cols: usize,
    workers: usize,
    f: F,
) where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    debug_assert_eq!(out.len(), rows * cols, "run_blocks: buffer shape");
    // The budget caps the fan-out: an episode task asking for 8 kernel
    // workers under a budget of 4 gets 4 (results are bit-identical
    // either way — blocking only moves rows between workers).
    let workers = workers.max(1).min(rows.max(1)).min(shared.budget);
    if workers <= 1 {
        SERIAL_RUNS.inc();
        f(0..rows, out);
        return;
    }
    FANOUTS.inc();
    let block_rows = rows.div_ceil(workers);
    // Actual blocks can be fewer than `workers` when rounding up the
    // block size covers the rows early (e.g. 11 rows / 7 workers).
    let blocks = rows.div_ceil(block_rows);
    TASKS.add(blocks as u64);
    let base = SendPtr(out.as_mut_ptr());
    let run_block = move |b: usize| {
        // Force capture of the whole `SendPtr` (edition 2021 would
        // otherwise capture the raw `base.0` field, which is not Sync).
        let base = base;
        let start = b * block_rows;
        let take = block_rows.min(rows - start);
        // SAFETY: block `b` covers rows `start..start+take`; blocks are
        // disjoint by construction and `out` outlives `run_tasks_on`,
        // which returns only after every block has run.
        let block =
            unsafe { std::slice::from_raw_parts_mut(base.0.add(start * cols), take * cols) };
        f(start..start + take, block);
    };
    run_tasks_on(shared, blocks, &run_block);
}

/// Run `f(rows_range, block)` over disjoint contiguous row blocks of the
/// row-major buffer `out` (`rows × cols`), one block per worker.
///
/// With `workers <= 1` this is a plain call `f(0..rows, out)` on the
/// current thread — the serial path and the parallel path execute the very
/// same closure, which is what makes bit-identity a structural property
/// rather than a testing aspiration.
///
/// When a [`WorkerPool`] is installed on this thread the blocks run on it
/// (clamped to its budget); with no pool installed the call runs serially
/// on the current thread — bit-identical by the same structural argument,
/// since the serial path executes the very same closure over `0..rows`.
pub fn for_row_blocks<F>(out: &mut [f32], rows: usize, cols: usize, workers: usize, f: F)
where
    F: Fn(Range<usize>, &mut [f32]) + Sync,
{
    debug_assert_eq!(out.len(), rows * cols, "for_row_blocks: buffer shape");
    let workers = workers.max(1).min(rows.max(1));
    if workers > 1 {
        if let Some(shared) = current_pool() {
            run_blocks_on(&shared, out, rows, cols, workers, f);
            return;
        }
    }
    SERIAL_RUNS.inc();
    f(0..rows, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallelism_resolves_to_positive_workers() {
        assert_eq!(Parallelism::Serial.workers(), 1);
        assert_eq!(Parallelism::Threads(4).workers(), 4);
        assert_eq!(Parallelism::Threads(0).workers(), 1);
        assert!(Parallelism::Auto.workers() >= 1);
    }

    fn check_row_coverage(run: impl Fn(&mut [f32], usize, usize, usize)) {
        for workers in [1usize, 2, 3, 7, 16] {
            let rows = 11;
            let cols = 3;
            let mut out = vec![0.0f32; rows * cols];
            run(&mut out, rows, cols, workers);
            for (i, v) in out.iter().enumerate() {
                assert_eq!(
                    *v,
                    i as f32 + 1.0,
                    "row coverage broke at {i} (workers={workers})"
                );
            }
        }
    }

    fn fill_rows(range: Range<usize>, block: &mut [f32], cols: usize) {
        for (local, r) in range.enumerate() {
            for c in 0..cols {
                block[local * cols + c] += (r * cols + c) as f32 + 1.0;
            }
        }
    }

    #[test]
    fn row_blocks_cover_every_row_exactly_once() {
        // No pool installed: every workers value runs the serial path.
        check_row_coverage(|out, rows, cols, workers| {
            for_row_blocks(out, rows, cols, workers, |range, block| {
                assert_eq!(block.len(), range.len() * cols);
                fill_rows(range, block, cols);
            });
        });
    }

    #[test]
    fn pool_row_blocks_cover_every_row_exactly_once() {
        for budget in [1usize, 2, 4, 9] {
            let pool = WorkerPool::with_budget(budget);
            check_row_coverage(|out, rows, cols, workers| {
                pool.run_blocks(out, rows, cols, workers, |range, block| {
                    assert_eq!(block.len(), range.len() * cols);
                    fill_rows(range, block, cols);
                });
            });
        }
    }

    #[test]
    fn installed_pool_routes_for_row_blocks_and_matches_serial_bitwise() {
        // The same pseudo-kernel, serial vs. pool-executed, must agree on
        // every bit (disjoint blocks, same per-row loop).
        let rows = 37;
        let cols = 5;
        let kernel = |range: Range<usize>, block: &mut [f32]| {
            for (local, r) in range.enumerate() {
                for c in 0..cols {
                    // Not representable exactly → rounding would expose
                    // any change in evaluation order.
                    block[local * cols + c] = (r as f32 + 0.1) * (c as f32 + 0.3) / 0.7;
                }
            }
        };
        let mut serial = vec![0.0f32; rows * cols];
        for_row_blocks(&mut serial, rows, cols, 1, kernel);

        let pool = WorkerPool::with_budget(4);
        let _ctx = pool.install();
        let mut pooled = vec![0.0f32; rows * cols];
        for_row_blocks(&mut pooled, rows, cols, 4, kernel);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&serial), bits(&pooled));
        assert!(pool.stats().tasks_executed > 0, "pool must have run blocks");
    }

    /// Regression: dropping a pool right after a job used to hang now and
    /// then, when a worker re-checked `shutdown` just before the drop set
    /// it and then slept through the drop's only wake-up.
    #[test]
    fn pool_drop_after_a_job_never_hangs() {
        for _ in 0..20_000 {
            let pool = WorkerPool::with_budget(4);
            pool.for_each_index(2, |_| {});
        }
    }

    #[test]
    fn budget_one_pool_spawns_no_threads_and_runs_inline() {
        let pool = WorkerPool::with_budget(1);
        assert_eq!(pool.spawned_workers(), 0);
        let _ctx = pool.install();
        let mut out = vec![0.0f32; 8];
        for_row_blocks(&mut out, 8, 1, 8, |range, block| {
            for (local, r) in range.enumerate() {
                block[local] = r as f32;
            }
        });
        assert_eq!(out[7], 7.0);
        let stats = pool.stats();
        assert_eq!(stats.tasks_executed, 0, "budget 1 must never queue tasks");
        assert_eq!(stats.peak_active, 0);
    }

    #[test]
    fn nested_fanout_stays_within_budget() {
        // Episode-style outer tasks each fanning a kernel out: the peak
        // number of concurrently executing top-level tasks must never
        // exceed the budget.
        let budget = 3;
        let pool = WorkerPool::with_budget(budget);
        let results: Vec<Mutex<f32>> = (0..8).map(|_| Mutex::new(Rank::ResultSlot, 0.0)).collect();
        pool.for_each_index(8, |i| {
            let mut out = vec![0.0f32; 16 * 2];
            for_row_blocks(&mut out, 16, 2, budget, |range, block| {
                for (local, r) in range.enumerate() {
                    block[local * 2] = (r + i) as f32;
                    block[local * 2 + 1] = 1.0;
                }
            });
            *results[i].lock() = out.iter().sum();
        });
        for (i, slot) in results.iter().enumerate() {
            let expect = (0..16).map(|r| (r + i) as f32).sum::<f32>() + 16.0;
            assert_eq!(*slot.lock(), expect);
        }
        let stats = pool.stats();
        assert!(stats.peak_active <= budget, "{stats:?}");
        assert!(stats.tasks_executed >= 8, "{stats:?}");
    }

    #[test]
    fn pool_propagates_task_panics() {
        let pool = WorkerPool::with_budget(3);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.for_each_index(6, |i| {
                if i == 4 {
                    panic!("boom from task {i}");
                }
            });
        }));
        assert!(caught.is_err(), "panic must reach the submitter");
        // The pool must still be usable afterwards.
        let hits: Vec<Mutex<bool>> = (0..4)
            .map(|_| Mutex::new(Rank::ResultSlot, false))
            .collect();
        pool.for_each_index(4, |i| *hits[i].lock() = true);
        assert!(hits.iter().all(|h| *h.lock()));
    }

    #[test]
    fn workers_for_budget_respects_thresholds() {
        assert_eq!(workers_for_budget(4, 100, MIN_PARALLEL_WORK), 4);
        assert_eq!(workers_for_budget(4, 100, MIN_PARALLEL_WORK - 1), 1);
        assert_eq!(workers_for_budget(4, 1, usize::MAX), 1);
        assert_eq!(workers_for_budget(4, 3, MIN_PARALLEL_WORK), 3);
        assert_eq!(workers_for_budget(1, 100, usize::MAX), 1);
        assert_eq!(workers_for_budget(0, 100, usize::MAX), 1);
    }

    #[test]
    fn ambient_workers_come_from_installed_pool_only() {
        assert_eq!(configured_workers(), 1, "no pool installed: serial");
        assert_eq!(workers_for(100, usize::MAX), 1);
        {
            let pool = WorkerPool::with_budget(5);
            let _ctx = pool.install();
            assert_eq!(configured_workers(), 5, "installed pool must win");
            assert_eq!(workers_for(100, MIN_PARALLEL_WORK), 5);
        }
        assert_eq!(configured_workers(), 1, "guard drop must restore");
    }
}
