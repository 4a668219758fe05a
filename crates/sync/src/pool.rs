//! Persistent search-worker pool.
//!
//! The paper's pseudocode creates the Ns search workers afresh for every
//! query (Alg. 5 line 7). At the paper's scale (queries of tens of
//! milliseconds over 100M series) thread creation is noise; at the
//! scales this repository benches, spawning 48 threads costs several
//! milliseconds — more than entire queries — and would invert every
//! per-core scaling figure. The pool keeps the workers alive across
//! queries and hands them one *scoped* job at a time, preserving the
//! algorithms' structure (each job still receives a worker id `pid` in
//! `0..parties`, exactly like a freshly spawned worker would).
//!
//! Safety model: [`WorkerPool::run`] erases the job closure's lifetime,
//! but does not return until every participating worker has finished
//! executing it, and workers never touch a job after reporting
//! completion — so the borrow can never dangle. Panics inside workers
//! are caught, counted, and re-raised on the caller.

use parking_lot::{Condvar, Mutex};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

std::thread_local! {
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Scoped threads spawned by [`WorkerPool::run`]'s nested fallback,
/// process-wide. A statistic: it publishes no other data.
static NESTED_SPAWNS: AtomicU64 = AtomicU64::new(0);

/// Lifetime-erased job pointer (`&dyn Fn(usize) + Sync`).
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is Sync, and `run` guarantees it outlives all use.
unsafe impl Send for Job {}

struct State {
    generation: u64,
    parties: usize,
    job: Option<Job>,
    remaining: usize,
    panicked: usize,
}

struct Shared {
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    shutdown: AtomicBool,
    size: AtomicUsize,
}

/// A pool of persistent worker threads executing scoped jobs.
///
/// ```
/// use messi_sync::WorkerPool;
/// use std::sync::atomic::{AtomicU64, Ordering};
///
/// let pool = WorkerPool::new(4);
/// let data = [1u64, 2, 3, 4];          // borrowed from this stack frame
/// let sum = AtomicU64::new(0);
/// pool.run(4, &|pid| {
///     sum.fetch_add(data[pid], Ordering::Relaxed);
/// });
/// assert_eq!(sum.load(Ordering::Relaxed), 10);
/// ```
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Serializes concurrent `run` calls (the pool executes one job at a
    /// time; concurrent callers queue up here).
    dispatch: Mutex<()>,
}

impl WorkerPool {
    /// Creates a pool with `threads` workers (grown on demand by `run`).
    pub fn new(threads: usize) -> Self {
        let pool = Self {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    generation: 0,
                    parties: 0,
                    job: None,
                    remaining: 0,
                    panicked: 0,
                }),
                work_cv: Condvar::new(),
                done_cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
                size: AtomicUsize::new(0),
            }),
            handles: Mutex::new(Vec::new()),
            dispatch: Mutex::new(()),
        };
        pool.ensure_capacity(threads);
        pool
    }

    /// The process-wide pool used by the query algorithms, sized lazily.
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let cores = std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1);
            WorkerPool::new(2 * cores)
        })
    }

    /// Current number of worker threads.
    pub fn size(&self) -> usize {
        self.shared.size.load(Ordering::Acquire)
    }

    /// Grows the pool to at least `n` workers.
    pub fn ensure_capacity(&self, n: usize) {
        let mut handles = self.handles.lock();
        while handles.len() < n {
            let id = handles.len();
            let shared = Arc::clone(&self.shared);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("messi-worker-{id}"))
                    .spawn(move || worker_loop(&shared, id))
                    .expect("failed to spawn pool worker"),
            );
        }
        self.shared.size.fetch_max(handles.len(), Ordering::AcqRel);
    }

    /// Whether the calling thread is a worker of *any* pool — i.e. it is
    /// already one of several parallel parties, and a `run` issued from
    /// it would take the nested fallback. Callers whose parties do not
    /// need each other (a shard scatter, a batch) check this and do the
    /// work inline instead.
    pub fn on_worker_thread() -> bool {
        IS_POOL_WORKER.with(|w| w.get())
    }

    /// Scoped threads spawned so far by nested [`WorkerPool::run`] calls,
    /// process-wide (see there). A serving process exports it: each one
    /// is an OS thread created and joined inside a request.
    pub fn nested_spawns() -> u64 {
        NESTED_SPAWNS.load(Ordering::Relaxed)
    }

    /// Runs `f(pid)` on `parties` workers (pids `0..parties`) and waits
    /// for all of them. Grows the pool if needed.
    ///
    /// A call from inside a pool worker (any pool's) cannot be handed to
    /// the pool without risking self-deadlock, so it spawns `parties`
    /// fresh scoped OS threads per call — a cost of tens of microseconds
    /// each, counted in [`WorkerPool::nested_spawns`]. Only parties that
    /// must run concurrently (the barrier-coupled search workers of one
    /// multi-worker query) should reach it; independent parties check
    /// [`WorkerPool::on_worker_thread`] and run inline.
    ///
    /// # Panics
    ///
    /// Re-raises a panic if any worker's job panicked.
    pub fn run<'env>(&self, parties: usize, f: &(dyn Fn(usize) + Sync + 'env)) {
        let parties = parties.max(1);
        if Self::on_worker_thread() {
            // Nested use: run on fresh scoped threads instead.
            NESTED_SPAWNS.fetch_add(parties as u64, Ordering::Relaxed);
            std::thread::scope(|s| {
                for pid in 0..parties {
                    let f = &f;
                    s.spawn(move || f(pid));
                }
            });
            return;
        }
        self.ensure_capacity(parties);

        // SAFETY: `run` blocks until `remaining == 0`, which workers only
        // reach after the job call returns; the reference therefore
        // outlives every dereference.
        let job = Job(unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync + 'env),
                *const (dyn Fn(usize) + Sync + 'static),
            >(f as *const (dyn Fn(usize) + Sync + 'env))
        });

        let _dispatch = self.dispatch.lock();
        {
            let mut st = self.shared.state.lock();
            st.generation += 1;
            st.parties = parties;
            st.job = Some(job);
            st.remaining = parties;
            st.panicked = 0;
        }
        self.shared.work_cv.notify_all();
        let panicked = {
            let mut st = self.shared.state.lock();
            while st.remaining > 0 {
                self.shared.done_cv.wait(&mut st);
            }
            st.job = None;
            std::mem::take(&mut st.panicked)
        };
        if panicked > 0 {
            panic!("{panicked} pool worker(s) panicked during job");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Take the state lock so no worker is between generation check and
        // wait when we notify.
        drop(self.shared.state.lock());
        self.shared.work_cv.notify_all();
        for h in self.handles.lock().drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.size())
            .finish()
    }
}

fn worker_loop(shared: &Shared, id: usize) {
    IS_POOL_WORKER.with(|w| w.set(true));
    let mut last_gen = 0u64;
    loop {
        let (job, parties) = {
            let mut st = shared.state.lock();
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                if st.generation != last_gen {
                    break;
                }
                shared.work_cv.wait(&mut st);
            }
            last_gen = st.generation;
            (st.job, st.parties)
        };
        if id >= parties {
            continue; // not drafted for this job
        }
        let job = job.expect("active generation always carries a job");
        // SAFETY: see `run` — the pointee outlives this call.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(id) }));
        let mut st = shared.state.lock();
        if result.is_err() {
            st.panicked += 1;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_every_pid_exactly_once() {
        let pool = WorkerPool::new(8);
        let hits: Vec<AtomicU64> = (0..8).map(|_| AtomicU64::new(0)).collect();
        pool.run(8, &|pid| {
            hits[pid].fetch_add(1, Ordering::SeqCst);
        });
        for (pid, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "pid {pid}");
        }
    }

    #[test]
    fn reuses_workers_across_many_jobs() {
        let pool = WorkerPool::new(4);
        let total = AtomicU64::new(0);
        for _ in 0..100 {
            pool.run(4, &|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 400);
    }

    #[test]
    fn grows_on_demand() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.size(), 2);
        let count = AtomicU64::new(0);
        pool.run(9, &|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 9);
        assert!(pool.size() >= 9);
    }

    #[test]
    fn borrows_caller_stack_data() {
        let pool = WorkerPool::new(4);
        let data = [1u64, 2, 3, 4];
        let sum = AtomicU64::new(0);
        pool.run(4, &|pid| {
            sum.fetch_add(data[pid], Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn concurrent_callers_are_serialized_but_correct() {
        let pool = Arc::new(WorkerPool::new(4));
        let total = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..6 {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                s.spawn(move || {
                    for _ in 0..20 {
                        let local = AtomicU64::new(0);
                        pool.run(3, &|_| {
                            local.fetch_add(1, Ordering::SeqCst);
                        });
                        assert_eq!(local.load(Ordering::SeqCst), 3);
                        total.fetch_add(3, Ordering::SeqCst);
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::SeqCst), 6 * 20 * 3);
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = WorkerPool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(4, &|pid| {
                if pid == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err(), "caller must observe the worker panic");
        // Pool still usable afterwards.
        let ok = AtomicU64::new(0);
        pool.run(4, &|_| {
            ok.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(ok.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn nested_run_falls_back_to_scoped_threads() {
        let pool = WorkerPool::global();
        let total = AtomicU64::new(0);
        assert!(!WorkerPool::on_worker_thread(), "the test thread is plain");
        let before = WorkerPool::nested_spawns();
        pool.run(2, &|_| {
            assert!(WorkerPool::on_worker_thread());
            // Reentrant call from a pool worker.
            WorkerPool::global().run(3, &|_| {
                total.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(total.load(Ordering::SeqCst), 6);
        // Other tests of this binary may nest concurrently: at least ours.
        assert!(WorkerPool::nested_spawns() >= before + 6);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        let a = WorkerPool::global() as *const _;
        let b = WorkerPool::global() as *const _;
        assert_eq!(a, b);
    }
}
