//! A small Cilk-style work-stealing runtime.
//!
//! The paper's benchmarks are Cilk programs; their *baseline* is ordinary
//! parallel execution under the Cilk work-stealing scheduler (detection
//! itself is sequential). This crate provides that substrate: a thread pool
//! with one Chase–Lev deque per worker (via `crossbeam-deque`), a global
//! injector for external submissions, and the classic fork-join primitive
//! [`ThreadPool::join`] — the moral equivalent of `spawn`/`sync` — plus
//! conveniences built on it ([`ThreadPool::for_each_chunk`]).
//!
//! The design follows the textbook rayon/Cilk recipe:
//!
//! * `join(a, b)` pushes `b` onto the calling worker's deque as a *stack
//!   job* (it lives in the caller's frame), runs `a` inline, then pops `b`
//!   back — executing it inline in the common un-stolen case. If `b` was
//!   stolen, the caller *helps*: it executes other available work while
//!   waiting for the thief to finish, so blocked frames never idle a core.
//! * Idle workers steal: first from the global injector, then from victims
//!   in round-robin order, backing off exponentially to a short timed sleep
//!   when the system is quiet.
//! * Panics inside either closure are captured and propagated to the caller
//!   of `join`, preserving the serial-elision semantics.
//!
//! This runtime exists so the examples can demonstrate that the benchmark
//! kernels really are parallel programs (and to measure parallel speedup as
//! a sanity check); the race detectors never use it.
//!
//! # Graceful degradation
//!
//! Worker-thread failure is survivable, not fatal. If spawning a worker
//! fails (a real `std::thread::Builder::spawn` error, or a
//! `worker-spawn-fail` fault plan), the pool simply runs with fewer workers
//! — ultimately zero, in which case [`ThreadPool::join`] and
//! [`ThreadPool::install`] execute sequentially on the caller. Workers that
//! die after startup (`worker-panic` fault) are tracked by a live-worker
//! count; once none remain, external submissions are drained and executed
//! inline by the waiting caller, so nothing hangs and nothing is lost. Each
//! degradation is logged to stderr once per process.

#![cfg_attr(not(test), deny(clippy::unwrap_used))]

use crossbeam::deque::{Injector, Stealer, Worker as Deque};
use std::cell::{Cell, UnsafeCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{JoinHandle, Thread};
use std::time::{Duration, Instant};

/// A type-erased pointer to a job plus its execute function.
#[derive(Clone, Copy)]
struct JobRef {
    ptr: *mut (),
    exec: unsafe fn(*mut ()),
}

// SAFETY: a JobRef is only created for jobs whose closures are Send, and is
// executed exactly once on exactly one thread.
unsafe impl Send for JobRef {}

impl JobRef {
    #[inline]
    unsafe fn execute(self) {
        (self.exec)(self.ptr)
    }
}

/// A job allocated in the frame of the `join` that spawned it.
struct StackJob<F, R> {
    f: UnsafeCell<Option<F>>,
    result: UnsafeCell<Option<std::thread::Result<R>>>,
    done: AtomicBool,
    /// The external `install` caller, unparked once `done` is set (it may
    /// have parked — see [`ThreadPool::install`]). `None` for `join`'s
    /// jobs, whose owner is a worker that helps instead of sleeping.
    waiter: Option<Thread>,
}

impl<F: FnOnce() -> R + Send, R: Send> StackJob<F, R> {
    fn new(f: F, waiter: Option<Thread>) -> Self {
        StackJob {
            f: UnsafeCell::new(Some(f)),
            result: UnsafeCell::new(None),
            done: AtomicBool::new(false),
            waiter,
        }
    }

    fn as_job_ref(&self) -> JobRef {
        JobRef {
            ptr: self as *const Self as *mut (),
            exec: Self::execute,
        }
    }

    unsafe fn execute(ptr: *mut ()) {
        let this = &*(ptr as *const Self);
        let f = (*this.f.get()).take().expect("job executed twice");
        let res = panic::catch_unwind(AssertUnwindSafe(f));
        *this.result.get() = Some(res);
        // The owner may return — and pop the frame this job lives in — the
        // moment it sees `done`, so the waiter handle is cloned out first.
        let waiter = this.waiter.clone();
        this.done.store(true, Ordering::Release);
        if let Some(t) = waiter {
            t.unpark();
        }
    }

    unsafe fn take_result(&self) -> R {
        debug_assert!(self.done.load(Ordering::Acquire));
        match (*self.result.get()).take().expect("result missing") {
            Ok(r) => r,
            Err(payload) => panic::resume_unwind(payload),
        }
    }
}

/// A heap job used for external (non-worker) submissions.
struct HeapJob<F: FnOnce() + Send> {
    f: F,
}

impl<F: FnOnce() + Send> HeapJob<F> {
    fn into_job_ref(self: Box<Self>) -> JobRef {
        OBS_JOB_BYTES.add(std::mem::size_of::<Self>() as u64);
        JobRef {
            ptr: Box::into_raw(self) as *mut (),
            exec: Self::execute,
        }
    }

    unsafe fn execute(ptr: *mut ()) {
        let this = Box::from_raw(ptr as *mut Self);
        OBS_JOB_BYTES.sub(std::mem::size_of::<Self>() as u64);
        (this.f)();
    }
}

struct Shared {
    injector: Injector<JobRef>,
    stealers: Vec<Stealer<JobRef>>,
    shutdown: AtomicBool,
    /// Workers spawned and not yet exited. Incremented by the spawner,
    /// decremented on any exit, including unwinds, via a drop guard in
    /// `worker_main`; `install` falls back to draining the injector inline
    /// when this reaches zero.
    alive: AtomicUsize,
    /// Count of sleeping workers plus the condvar they sleep on.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Shared {
    /// The park/wake lock. It guards no data, so a holder that panicked
    /// left nothing half-updated: a poisoned guard is taken as it is.
    fn lock(&self) -> MutexGuard<'_, ()> {
        self.lock.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn notify(&self) {
        if self.sleepers.load(Ordering::Relaxed) > 0 {
            let _g = self.lock();
            self.wake.notify_all();
        }
    }
}

// Observability (no-ops costing one relaxed load while `stint-obs` is
// disabled). `cilkrt.spawns` counts fork points (child pushed to a deque),
// `cilkrt.steals` successful steals from the injector or a victim deque.
static OBS_SPAWNS: stint_obs::Counter = stint_obs::Counter::new("cilkrt.spawns");
static OBS_STEALS: stint_obs::Counter = stint_obs::Counter::new("cilkrt.steals");
static OBS_JOBS_INJECTED: stint_obs::Counter = stint_obs::Counter::new("cilkrt.jobs_injected");
/// `install` calls whose wait outlived [`INSTALL_SPIN`] and parked.
static OBS_INSTALL_PARKS: stint_obs::Counter = stint_obs::Counter::new("cilkrt.install_parks");
static OBS_WORKERS_SPAWNED: stint_obs::Counter = stint_obs::Counter::new("cilkrt.workers_spawned");
static OBS_DEGRADATIONS: stint_obs::Counter = stint_obs::Counter::new("cilkrt.degradations");
/// Live heap bytes held by injected [`HeapJob`]s (added at boxing, returned
/// when the job executes and its box is reclaimed).
static OBS_JOB_BYTES: stint_obs::Gauge = stint_obs::Gauge::new("cilkrt.job_bytes");
/// Fixed footprint of live pools: shared state, stealer table and join
/// handles (the deques' ring buffers are owned by worker threads and not
/// visible here — this gauge is the pool-side estimate).
static OBS_POOL_BYTES: stint_obs::Gauge = stint_obs::Gauge::new("cilkrt.pool_bytes");

/// Log a degradation event to stderr, once per process (repeat events are
/// counted silently — the first report tells the operator the run is
/// degraded; per-event spam would drown the actual output; the obs counter
/// keeps the exact count).
fn log_degradation_once(what: &str) {
    OBS_DEGRADATIONS.incr();
    stint_obs::event("fault.cilkrt_degraded");
    static LOGGED: AtomicBool = AtomicBool::new(false);
    if !LOGGED.swap(true, Ordering::Relaxed) {
        eprintln!("cilkrt: degraded: {what}");
    }
}

/// How long an external [`ThreadPool::install`] caller spins and yields
/// before it parks: several times a short job (a `for_each_chunk` over a
/// few thousand elements, one `join` — 50–100 us on the reference box), a
/// small fraction of a whole detection session. Every detection tier now
/// issues one `install` per run, so this only decides how soon the run's
/// waiter stops competing with its own workers.
const INSTALL_SPIN: Duration = Duration::from_micros(400);
/// Upper bound of one park of an `install` waiter (see there).
const INSTALL_PARK: Duration = Duration::from_millis(2);

thread_local! {
    /// (pool shared ptr, worker index) when the current thread is a worker.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

struct WorkerCtx {
    shared: Arc<Shared>,
    index: usize,
    deque: Deque<JobRef>,
    /// Round-robin steal cursor.
    next_victim: Cell<usize>,
}

thread_local! {
    static CTX: UnsafeCell<Option<WorkerCtx>> = const { UnsafeCell::new(None) };
}

/// A work-stealing thread pool with Cilk-style fork-join.
///
/// ```
/// use stint_cilkrt::ThreadPool;
///
/// let pool = ThreadPool::new(2);
/// let (a, b) = pool.join(|| 2 + 2, || "forty-two");
/// assert_eq!((a, b), (4, "forty-two"));
/// ```
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Bytes last reported to the `cilkrt.pool_bytes` gauge.
    owned_bytes: u64,
}

impl ThreadPool {
    /// Spawn a pool with `threads` workers (clamped to at least 1).
    ///
    /// Spawn failures are not fatal: the pool runs with however many workers
    /// came up, down to zero (fully sequential execution). Fault plans are
    /// sampled here, at construction.
    pub fn new(threads: usize) -> Self {
        Self::with_seed(threads, 0)
    }

    /// As [`ThreadPool::new`], but perturbing the steal schedule: `seed`
    /// picks each worker's initial round-robin victim. Victim choice never
    /// affects *what* is computed — only which worker runs which job — so
    /// two pools with different seeds are a cheap way to exercise
    /// schedule-independence claims (the batch detector's metamorphic tests
    /// replay under several seeds and require byte-identical reports).
    pub fn with_seed(threads: usize, seed: u64) -> Self {
        let threads = threads.max(1);
        let deques: Vec<Deque<JobRef>> = (0..threads).map(|_| Deque::new_lifo()).collect();
        let stealers = deques.iter().map(|d| d.stealer()).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            shutdown: AtomicBool::new(false),
            alive: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            wake: Condvar::new(),
        });
        let faults = stint_faults::is_active();
        let mut handles = Vec::with_capacity(threads);
        let mut failed = 0usize;
        for (i, deque) in deques.into_iter().enumerate() {
            // Fault plans are sampled now; the worker closure must not
            // consult the global plan later (it may be gone by then).
            if faults && stint_faults::worker_spawn_fails(i) {
                failed += 1;
                continue;
            }
            let panic_at_start = faults && stint_faults::worker_panics(i);
            // Each worker's first steal victim: the next worker by default,
            // shuffled per-worker when a seed is given. The steal loop wraps
            // modulo the worker count, so any usize works.
            let start_victim = if seed == 0 {
                i + 1
            } else {
                splitmix64(seed ^ (i as u64 + 1)) as usize % threads
            };
            // Counted here, not by the worker: a pool whose workers are
            // still starting is not a dead pool, and an `install` racing the
            // start-up must wait for them rather than run its job inline.
            shared.alive.fetch_add(1, Ordering::AcqRel);
            let worker_shared = Arc::clone(&shared);
            // A dropped deque's Stealer just reports Empty, so the stealers
            // registered for failed workers stay safe to probe.
            match std::thread::Builder::new()
                .name(format!("cilkrt-worker-{i}"))
                .spawn(move || worker_main(worker_shared, i, deque, panic_at_start, start_victim))
            {
                Ok(h) => handles.push(h),
                Err(_) => {
                    shared.alive.fetch_sub(1, Ordering::AcqRel);
                    failed += 1;
                }
            }
        }
        OBS_WORKERS_SPAWNED.add(handles.len() as u64);
        if failed > 0 {
            log_degradation_once(&format!(
                "{failed} of {threads} workers failed to spawn; continuing with {}{}",
                handles.len(),
                if handles.is_empty() {
                    " (sequential execution)"
                } else {
                    ""
                }
            ));
        }
        let mut pool = ThreadPool {
            shared,
            handles,
            owned_bytes: 0,
        };
        pool.note_mem();
        pool
    }

    /// Estimated heap bytes held by the pool itself: the shared block, the
    /// stealer table and the worker join handles.
    pub fn heap_bytes(&self) -> u64 {
        (std::mem::size_of::<Shared>()
            + self.shared.stealers.capacity() * std::mem::size_of::<Stealer<JobRef>>()
            + self.handles.capacity() * std::mem::size_of::<JoinHandle<()>>()) as u64
    }

    /// Publish the pool's footprint to the `cilkrt.pool_bytes` gauge (no-op
    /// while obs is disabled).
    fn note_mem(&mut self) {
        let bytes = self.heap_bytes();
        OBS_POOL_BYTES.reconcile(&mut self.owned_bytes, bytes);
    }

    /// Pool with one worker per available hardware thread.
    pub fn with_default_parallelism() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        Self::new(n)
    }

    /// Number of workers.
    pub fn threads(&self) -> usize {
        self.handles.len()
    }

    /// Run `f` inside the pool and return its result. If called from one of
    /// this pool's workers, runs inline.
    ///
    /// The external caller does not help. It waits in two phases: it spins
    /// and yields for [`INSTALL_SPIN`] — long enough for a short job, so a
    /// caller issuing many of them never pays a futex wake — then parks
    /// until [`StackJob::execute`] unparks it, so a caller that installs a
    /// whole detection session does not compete with the workers running it.
    /// Parks are bounded by [`INSTALL_PARK`]: nobody unparks a waiter whose
    /// workers all died, and its inline drain must still fire.
    pub fn install<R: Send>(&self, f: impl FnOnce() -> R + Send) -> R {
        if on_this_pool(&self.shared) {
            return f();
        }
        if self.handles.is_empty() {
            // Degraded pool with no workers at all: sequential execution.
            return f();
        }
        let job = StackJob::new(f, Some(std::thread::current()));
        OBS_JOBS_INJECTED.incr();
        self.shared.injector.push(job.as_job_ref());
        self.shared.notify();
        // Wait without helping: the caller is not a worker.
        let mut spins = 0u32;
        let mut spin_until: Option<Instant> = None;
        let mut parked = false;
        while !job.done.load(Ordering::Acquire) {
            if self.shared.alive.load(Ordering::Acquire) == 0 {
                // Every worker died. Injected jobs can only be waiting in the
                // injector — a worker that popped one executes it immediately
                // and `StackJob::execute` survives panics — so draining the
                // injector inline is complete: our job either runs here or
                // `done` was already set.
                loop {
                    match self.shared.injector.steal() {
                        crossbeam::deque::Steal::Success(j) => unsafe { j.execute() },
                        crossbeam::deque::Steal::Retry => continue,
                        crossbeam::deque::Steal::Empty => break,
                    }
                }
                if job.done.load(Ordering::Acquire) {
                    break;
                }
                if self.shared.alive.load(Ordering::Acquire) == 0 {
                    // Drained and still no workers: the job is either done
                    // (checked next iteration) or being finished inline by
                    // another draining thread — yield until it lands.
                    std::thread::yield_now();
                    continue;
                }
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else if Instant::now()
                < *spin_until.get_or_insert_with(|| Instant::now() + INSTALL_SPIN)
            {
                std::thread::yield_now();
            } else {
                if !parked {
                    parked = true;
                    OBS_INSTALL_PARKS.incr();
                }
                // A stale token from an earlier install's unpark only makes
                // this return early; `done` is re-checked either way.
                std::thread::park_timeout(INSTALL_PARK);
            }
        }
        // SAFETY: done is set, result is present, we are the only consumer.
        unsafe { job.take_result() }
    }

    /// Cilk-style fork-join: potentially run `a` and `b` in parallel,
    /// returning both results. Must be cheap to call recursively.
    pub fn join<A, B, RA, RB>(&self, a: A, b: B) -> (RA, RB)
    where
        A: FnOnce() -> RA + Send,
        B: FnOnce() -> RB + Send,
        RA: Send,
        RB: Send,
    {
        if on_this_pool(&self.shared) {
            join_inner(a, b)
        } else if self.handles.is_empty() {
            // Degraded pool with no workers: serial elision.
            (a(), b())
        } else {
            self.install(move || join_inner(a, b))
        }
    }

    /// Fire-and-forget: run `f` on some worker at some point. There is no
    /// join handle; use [`ThreadPool::join`]/[`ThreadPool::install`] for
    /// structured parallelism.
    pub fn spawn_detached(&self, f: impl FnOnce() + Send + 'static) {
        let job = Box::new(HeapJob { f });
        OBS_JOBS_INJECTED.incr();
        self.shared.injector.push(job.into_job_ref());
        self.shared.notify();
    }

    /// Apply `f` to disjoint chunks of `data` of at most `chunk` elements in
    /// parallel (recursive binary splitting over `join`). `f` receives the
    /// chunk and its starting offset.
    pub fn for_each_chunk<T: Send, F>(&self, data: &mut [T], chunk: usize, f: &F)
    where
        F: Fn(usize, &mut [T]) + Sync,
    {
        self.install(|| for_each_chunk_inner(self, data, chunk, 0, f));
    }
}

fn for_each_chunk_inner<T: Send, F>(
    pool: &ThreadPool,
    data: &mut [T],
    chunk: usize,
    offset: usize,
    f: &F,
) where
    F: Fn(usize, &mut [T]) + Sync,
{
    if data.len() <= chunk.max(1) {
        f(offset, data);
        return;
    }
    let mid = data.len() / 2;
    let (lo, hi) = data.split_at_mut(mid);
    pool.join(
        || for_each_chunk_inner(pool, lo, chunk, offset, f),
        || for_each_chunk_inner(pool, hi, chunk, offset + mid, f),
    );
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _g = self.shared.lock();
            self.shared.wake.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        OBS_POOL_BYTES.reconcile(&mut self.owned_bytes, 0);
    }
}

fn on_this_pool(shared: &Arc<Shared>) -> bool {
    WORKER.with(|w| match w.get() {
        Some((pool_id, _)) => pool_id == Arc::as_ptr(shared) as usize,
        None => false,
    })
}

/// The body of `join` when running on a worker thread.
fn join_inner<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    CTX.with(|slot| {
        // SAFETY: only this thread accesses its own ctx; jobs executed below
        // re-enter CTX.with but only through &WorkerCtx methods on fields
        // that are individually interior-mutable or externally synchronized.
        let ctx = match unsafe { (*slot.get()).as_ref() } {
            Some(ctx) => ctx,
            // Not a worker thread: this happens when a waiting `install`
            // drains a queued join job inline because every worker died.
            // Serial elision is always a correct execution of fork-join.
            None => {
                let ra = a();
                let rb = b();
                return (ra, rb);
            }
        };
        let bjob = StackJob::new(b, None);
        OBS_SPAWNS.incr();
        ctx.deque.push(bjob.as_job_ref());
        ctx.shared.notify();
        let ra = a();
        // Try to take b back; if stolen, help with other work until done.
        loop {
            if bjob.done.load(Ordering::Acquire) {
                break;
            }
            match ctx.deque.pop() {
                Some(job) => {
                    if job.ptr == &bjob as *const _ as *mut () {
                        // SAFETY: un-stolen; execute inline exactly once.
                        unsafe { job.execute() };
                        break;
                    } else {
                        // A deeper frame's job surfaced (b was stolen):
                        // execute it, it cannot be b.
                        unsafe { job.execute() };
                    }
                }
                None => {
                    // b was stolen and is in flight: help elsewhere.
                    if let Some(job) = steal_work(ctx) {
                        unsafe { job.execute() };
                    } else {
                        std::hint::spin_loop();
                        std::thread::yield_now();
                    }
                }
            }
        }
        let rb = unsafe { bjob.take_result() };
        (ra, rb)
    })
}

fn steal_work(ctx: &WorkerCtx) -> Option<JobRef> {
    // Injector first (external work), then victims round-robin.
    loop {
        match ctx.shared.injector.steal() {
            crossbeam::deque::Steal::Success(j) => {
                OBS_STEALS.incr();
                return Some(j);
            }
            crossbeam::deque::Steal::Empty => break,
            crossbeam::deque::Steal::Retry => continue,
        }
    }
    let n = ctx.shared.stealers.len();
    let start = ctx.next_victim.get();
    for k in 0..n {
        let v = (start + k) % n;
        if v == ctx.index {
            continue;
        }
        loop {
            match ctx.shared.stealers[v].steal() {
                crossbeam::deque::Steal::Success(j) => {
                    OBS_STEALS.incr();
                    ctx.next_victim.set(v);
                    return Some(j);
                }
                crossbeam::deque::Steal::Empty => break,
                crossbeam::deque::Steal::Retry => continue,
            }
        }
    }
    None
}

/// Decrements the live-worker count however the worker exits — normal
/// shutdown or an unwinding panic — so `install`'s alive==0 fallback and the
/// degradation log always see the truth.
struct AliveGuard {
    shared: Arc<Shared>,
}

impl Drop for AliveGuard {
    fn drop(&mut self) {
        if self.shared.alive.fetch_sub(1, Ordering::AcqRel) == 1
            && !self.shared.shutdown.load(Ordering::Acquire)
        {
            log_degradation_once("last live worker exited; callers execute inline");
        }
    }
}

/// SplitMix64 — the standard 64-bit avalanche mix, used only to scatter
/// seeded steal-schedule start victims.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn worker_main(
    shared: Arc<Shared>,
    index: usize,
    deque: Deque<JobRef>,
    panic_at_start: bool,
    start_victim: usize,
) {
    let _alive = AliveGuard {
        shared: Arc::clone(&shared),
    };
    if panic_at_start {
        // `worker-panic` fault: the thread dies right after announcing
        // itself, exercising the all-workers-dead paths.
        panic!("injected worker panic (fault plan worker-panic)");
    }
    WORKER.with(|w| w.set(Some((Arc::as_ptr(&shared) as usize, index))));
    CTX.with(|slot| unsafe {
        *slot.get() = Some(WorkerCtx {
            shared: Arc::clone(&shared),
            index,
            deque,
            next_victim: Cell::new(start_victim),
        });
    });
    let mut idle_spins = 0u32;
    loop {
        let job = CTX.with(|slot| {
            let ctx = unsafe { (*slot.get()).as_ref() }.expect("worker ctx missing");
            ctx.deque.pop().or_else(|| steal_work(ctx))
        });
        match job {
            Some(j) => {
                idle_spins = 0;
                unsafe { j.execute() };
            }
            None => {
                if shared.shutdown.load(Ordering::Acquire) {
                    break;
                }
                idle_spins += 1;
                if idle_spins < 64 {
                    std::hint::spin_loop();
                } else if idle_spins < 128 {
                    std::thread::yield_now();
                } else {
                    // Timed sleep: a notify wakes us early; the timeout
                    // bounds the latency of any missed wakeup.
                    shared.sleepers.fetch_add(1, Ordering::Relaxed);
                    // Woken, timed out or poisoned, the guard comes back in
                    // the result and is released with it.
                    let _ = (shared.wake).wait_timeout(shared.lock(), Duration::from_millis(1));
                    shared.sleepers.fetch_sub(1, Ordering::Relaxed);
                    idle_spins = 64;
                }
            }
        }
    }
    CTX.with(|slot| unsafe { *slot.get() = None });
    WORKER.with(|w| w.set(None));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    fn fib(pool: &ThreadPool, n: u64) -> u64 {
        if n < 2 {
            return n;
        }
        if n < 12 {
            return fib_seq(n);
        }
        let (a, b) = pool.join(|| fib(pool, n - 1), || fib(pool, n - 2));
        a + b
    }
    fn fib_seq(n: u64) -> u64 {
        if n < 2 {
            n
        } else {
            fib_seq(n - 1) + fib_seq(n - 2)
        }
    }

    #[test]
    fn join_computes_correct_results() {
        let pool = ThreadPool::new(4);
        assert_eq!(fib(&pool, 24), fib_seq(24));
    }

    #[test]
    fn install_from_external_thread() {
        let pool = ThreadPool::new(2);
        let r = pool.install(|| 21 * 2);
        assert_eq!(r, 42);
    }

    #[test]
    fn nested_joins_deeply() {
        let pool = ThreadPool::new(3);
        fn sum(pool: &ThreadPool, lo: u64, hi: u64) -> u64 {
            if hi - lo <= 64 {
                return (lo..hi).sum();
            }
            let mid = lo + (hi - lo) / 2;
            let (a, b) = pool.join(|| sum(pool, lo, mid), || sum(pool, mid, hi));
            a + b
        }
        let n = 100_000;
        assert_eq!(sum(&pool, 0, n), n * (n - 1) / 2);
    }

    #[test]
    fn for_each_chunk_touches_every_element_once() {
        let pool = ThreadPool::new(4);
        let mut data = vec![0u64; 10_000];
        pool.for_each_chunk(&mut data, 128, &|offset, chunk| {
            for (i, x) in chunk.iter_mut().enumerate() {
                *x += (offset + i) as u64;
            }
        });
        for (i, &x) in data.iter().enumerate() {
            assert_eq!(x, i as u64);
        }
    }

    #[test]
    fn work_actually_distributes() {
        // With enough coarse tasks, more than one worker should run them.
        let pool = ThreadPool::new(4);
        let seen = AtomicU64::new(0);
        pool.install(|| {
            fn go(pool: &ThreadPool, depth: u32, seen: &AtomicU64) {
                WORKER.with(|w| {
                    let (_, idx) = w.get().unwrap();
                    seen.fetch_or(1 << idx, Ordering::Relaxed);
                });
                if depth == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    return;
                }
                pool.join(|| go(pool, depth - 1, seen), || go(pool, depth - 1, seen));
            }
            go(&pool, 5, &seen);
        });
        assert!(
            seen.load(Ordering::Relaxed).count_ones() >= 2,
            "work never left one worker"
        );
    }

    #[test]
    fn panics_propagate_to_join_caller() {
        let pool = ThreadPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.join(|| 1, || -> i32 { panic!("boom") });
        }));
        assert!(result.is_err());
        // Pool survives and stays usable.
        assert_eq!(pool.install(|| 7), 7);
    }

    #[test]
    fn spawn_detached_runs() {
        let pool = ThreadPool::new(2);
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        pool.spawn_detached(move || f2.store(true, Ordering::Release));
        let t0 = std::time::Instant::now();
        while !flag.load(Ordering::Acquire) {
            assert!(t0.elapsed().as_secs() < 5, "detached job never ran");
            std::thread::yield_now();
        }
    }

    #[test]
    fn pool_drop_terminates_workers() {
        let pool = ThreadPool::new(8);
        let _ = pool.install(|| 1);
        drop(pool); // must not hang
    }

    #[test]
    fn single_thread_pool_works() {
        let pool = ThreadPool::new(1);
        assert_eq!(fib(&pool, 18), fib_seq(18));
    }

    /// Enables the obs counters for one test at a time: the registry is
    /// process-global, and enabling resets it. Fields drop in order, so obs
    /// is restored before the lock is released.
    fn obs_counters() -> (stint_obs::ScopedObs, std::sync::MutexGuard<'static, ()>) {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        (
            stint_obs::ScopedObs::enable(stint_obs::ObsConfig::COUNTERS),
            guard,
        )
    }

    /// Spin until `cond` holds; panics (instead of hanging the suite) if it
    /// never does.
    fn wait_for(what: &str, cond: impl Fn() -> bool) {
        let t0 = Instant::now();
        while !cond() {
            assert!(t0.elapsed().as_secs() < 10, "timed out waiting for {what}");
            std::thread::yield_now();
        }
    }

    #[test]
    fn install_spins_through_short_jobs_and_parks_on_a_long_one() {
        let _obs = obs_counters();
        let pool = ThreadPool::new(2);
        for i in 0..10_000u64 {
            assert_eq!(pool.install(|| i + 1), i + 1);
        }
        // The long job ends only once its waiter has parked, so the return
        // below went through `StackJob::execute`'s unpark.
        let before = OBS_INSTALL_PARKS.get();
        pool.install(|| {
            wait_for("the install waiter to park", || {
                OBS_INSTALL_PARKS.get() > before
            })
        });
        assert!(OBS_INSTALL_PARKS.get() > before);
    }

    #[test]
    fn parked_install_waiter_drains_inline_once_every_worker_is_dead() {
        let _obs = obs_counters();
        let pool = ThreadPool::new(1);
        let (release, held) = std::sync::mpsc::channel::<()>();
        let (pool, busy) = (&pool, &AtomicBool::new(false));
        std::thread::scope(|s| {
            // Dropped with this closure, so a failed assertion below
            // releases the worker instead of deadlocking the scope.
            let release = release;
            // Occupy the only worker, so the second job stays in the
            // injector and its waiter parks.
            s.spawn(move || {
                pool.install(move || {
                    busy.store(true, Ordering::Release);
                    let _ = held.recv();
                })
            });
            wait_for("the worker to pick up the first job", || {
                busy.load(Ordering::Acquire)
            });
            let before = OBS_INSTALL_PARKS.get();
            let second = s.spawn(|| pool.install(|| WORKER.with(|w| w.get().is_none())));
            wait_for("the second waiter to park", || {
                OBS_INSTALL_PARKS.get() > before
            });
            // Workers can only die while starting up, before they take
            // work; stand in for that here. Nobody unparks the waiter — its
            // bounded park must notice on its own and run the job inline.
            pool.shared.alive.store(0, Ordering::Release);
            let ran_on_caller = second.join().expect("second install returns");
            assert!(ran_on_caller, "job ran on a worker, not inline");
            pool.shared.alive.store(1, Ordering::Release);
            release.send(()).expect("worker still holds the first job");
        });
    }
}
