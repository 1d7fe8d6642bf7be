//! Deterministic parallelism: one persistent [`WorkerPool`] with a
//! single **thread budget**, and one fan-out over it,
//! [`WorkerPool::for_each_index`].
//!
//! Kernels do not fan out: every `Tensor` matmul runs its kernel once
//! over its whole output on the calling thread. The one parallel
//! construct is `gp_core`'s `Engine::evaluate`, which runs its episodes
//! as indexed tasks on the engine's pool and stores each result in its
//! own slot, so accuracies are bit-identical for every budget.
//!
//! # The thread budget
//!
//! A [`WorkerPool`] with budget `B` owns exactly `B − 1` long-lived
//! worker threads; the caller's thread is the `B`-th worker (a budget of
//! 1 spawns nothing and runs everything inline). Every job submits its
//! tasks to the same queue, so the process never runs more than `B`
//! top-level tasks at once however jobs nest: a submitter executes its
//! own queued tasks while it waits (it is one of the `B`), and idle
//! workers steal whatever is queued.
//!
//! Nesting cannot deadlock: a task that submits a sub-job drains that
//! job's queued tasks itself before blocking, so every pending task is
//! always being executed by some thread.
//!
//! [`WorkerPool::install`] makes a pool this thread's ambient one until
//! its guard drops, and pool workers run under their own pool; an
//! `Engine` built without an explicit budget resolves it from
//! [`configured_workers`], so an engine made inside another engine's
//! `evaluate` inherits that budget. There is no process-wide setting.
//!
//! Spawning a thread costs ~10µs on Linux — the pool pays it once per
//! engine, not once per job.

#![expect(
    unsafe_code,
    reason = "type-erased job closures shared with pool workers; each site states its SAFETY argument"
)]

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};

use gp_obs::sync::{Mutex, Rank};

/// Jobs that queued their tasks on a pool rather than running inline.
static FANOUTS: gp_obs::Counter = gp_obs::Counter::new("tensor.parallel.fanouts");

// Pool instruments: live workers / queue depth / in-flight tasks as
// gauges, dispatch and steal totals as counters.
static POOL_WORKERS_GAUGE: gp_obs::Gauge = gp_obs::Gauge::new("tensor.pool.workers");
static POOL_QUEUE_DEPTH: gp_obs::Gauge = gp_obs::Gauge::new("tensor.pool.queue_depth");
static POOL_ACTIVE: gp_obs::Gauge = gp_obs::Gauge::new("tensor.pool.active");
static POOL_DISPATCHED: gp_obs::Counter = gp_obs::Counter::new("tensor.pool.dispatched");
static POOL_STOLEN: gp_obs::Counter = gp_obs::Counter::new("tensor.pool.stolen");

/// The thread budget of an engine's [`WorkerPool`].
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum Parallelism {
    /// One thread; every job runs inline on its caller (default).
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

/// The ambient worker budget (≥ 1): the installed [`WorkerPool`]'s budget
/// when one is active on this thread, else 1 (serial).
pub fn configured_workers() -> usize {
    current_pool().map_or(1, |pool| pool.budget)
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
    /// Whether this thread is inside a pool task, so nested drains (a job
    /// submitted from inside a task) don't double-count `active`.
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

/// A persistent worker pool enforcing one thread budget across every job
/// submitted to it, nested jobs included.
///
/// Budget `B` spawns `B − 1` named OS threads once; a budget of 1 spawns
/// none and [`WorkerPool::for_each_index`] runs inline on the caller.
/// Dropping the pool joins all workers.
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
    /// guard drops; [`configured_workers`] picks it up. Guards nest (the
    /// previous pool is restored on drop).
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
    // Workers run under their own pool's budget, so a stolen task sees
    // the same ambient budget as its submitter.
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
    FANOUTS.inc();
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
        let caller = std::thread::current().id();
        let ran: Vec<Mutex<bool>> = (0..8)
            .map(|_| Mutex::new(Rank::ResultSlot, false))
            .collect();
        pool.for_each_index(8, |i| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "task {i} left the caller"
            );
            *ran[i].lock() = true;
        });
        assert!(ran.iter().all(|r| *r.lock()));
        let stats = pool.stats();
        assert_eq!(stats.tasks_executed, 0, "budget 1 must never queue tasks");
        assert_eq!(stats.peak_active, 0);
    }

    /// Sums the leaves `0..4^depth` under `base`, each level a
    /// [`WorkerPool::for_each_index`] of 4 tasks on `pool`.
    fn nested_sum(pool: &WorkerPool, depth: u32, base: usize) -> usize {
        if depth == 0 {
            return base;
        }
        let slots: Vec<Mutex<usize>> = (0..4).map(|_| Mutex::new(Rank::ResultSlot, 0)).collect();
        pool.for_each_index(4, |i| {
            let sum = nested_sum(pool, depth - 1, base * 4 + i);
            *slots[i].lock() = sum;
        });
        slots.iter().map(|s| *s.lock()).sum()
    }

    #[test]
    fn nested_fanout_stays_within_budget() {
        // Three levels of jobs on a budget-2 pool. Every task runs inside
        // the tasks above it, so a leaf runs while three tasks are
        // executing; only top-level tasks count against the budget, and
        // the peak must stay within it.
        let budget = 2;
        let pool = WorkerPool::with_budget(budget);
        assert_eq!(nested_sum(&pool, 3, 0), (0..64).sum::<usize>());
        let stats = pool.stats();
        assert!(stats.peak_active <= budget, "{stats:?}");
        assert_eq!(stats.tasks_executed, 4 + 16 + 64, "{stats:?}");
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
    fn ambient_workers_come_from_installed_pool_only() {
        assert_eq!(configured_workers(), 1, "no pool installed: serial");
        {
            let pool = WorkerPool::with_budget(5);
            let _ctx = pool.install();
            assert_eq!(configured_workers(), 5, "installed pool must win");
        }
        assert_eq!(configured_workers(), 1, "guard drop must restore");
    }
}
