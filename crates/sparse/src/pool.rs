//! A small scoped thread pool for the parallel solver kernels.
//!
//! Everything hot in `vstack` — SpMV inside CG, scenario fan-out in the
//! experiment drivers — runs through this pool. It is deliberately tiny
//! and std-only (no external dependencies): a fixed set of persistent
//! worker threads that execute one *broadcast* job at a time. A broadcast
//! hands every execution context (the workers plus the calling thread)
//! the same closure and a distinct context index; kernels partition their
//! work by that index.
//!
//! # Determinism
//!
//! The pool itself never reorders arithmetic. Every kernel built on top of
//! it is written so the floating-point result is **bit-identical for any
//! context count**, including the serial fallback:
//!
//! * SpMV partitions *rows*; each row's accumulation order is fixed.
//! * Reductions ([`crate::vecops::dot`]/[`crate::vecops::norm2`]) use
//!   fixed-size chunks and a fixed binary combination tree, independent of
//!   how chunks were assigned to threads.
//!
//! # Nesting and fallback
//!
//! A broadcast issued from inside a pool worker (e.g. a per-scenario task
//! that reaches a parallel SpMV) runs inline on the calling thread, over
//! all context indices, in order. The same happens when another thread is
//! mid-broadcast. This keeps the pool deadlock-free and — because kernels
//! are partition-independent — changes nothing about the results.

#![allow(unsafe_code)]

use std::cell::{Cell, RefCell};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Environment variable overriding the global pool's context count.
pub const THREADS_ENV: &str = "VSTACK_THREADS";

thread_local! {
    /// True on pool worker threads: nested broadcasts must run inline.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
    /// Scoped pool overrides installed by [`with_pool`] (innermost last).
    static CURRENT: RefCell<Vec<Arc<ThreadPool>>> = const { RefCell::new(Vec::new()) };
}

/// Lifetime-erased pointer to the broadcast closure.
///
/// Soundness: [`ThreadPool::run`] does not return until every worker has
/// finished executing the closure, so the borrow it erases is live for
/// every dereference.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared execution is the whole point) and
// `run` keeps it alive until all workers are done with it.
unsafe impl Send for Job {}

struct JobState {
    /// Bumped once per broadcast; workers use it to detect new jobs.
    epoch: u64,
    job: Option<Job>,
    /// Workers still executing the current broadcast.
    remaining: usize,
    /// Set if any worker's closure panicked.
    panicked: bool,
    shutdown: bool,
}

struct Shared {
    state: Mutex<JobState>,
    work: Condvar,
    done: Condvar,
}

/// A fixed-size scoped thread pool (see the [module docs](self)).
pub struct ThreadPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    /// Serializes broadcasts; contended callers fall back to inline
    /// execution instead of queueing.
    submit: Mutex<()>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("contexts", &self.contexts())
            .finish()
    }
}

impl ThreadPool {
    /// Creates a pool with `contexts` execution contexts: the calling
    /// thread plus `contexts − 1` persistent workers. `contexts` is
    /// clamped to at least 1.
    pub fn new(contexts: usize) -> Self {
        let workers = contexts.max(1) - 1;
        let shared = Arc::new(Shared {
            state: Mutex::new(JobState {
                epoch: 0,
                job: None,
                remaining: 0,
                panicked: false,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("vstack-pool-{idx}"))
                    .spawn(move || worker_loop(&shared, idx))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            handles,
            submit: Mutex::new(()),
        }
    }

    /// Number of execution contexts (workers + the calling thread).
    pub fn contexts(&self) -> usize {
        self.handles.len() + 1
    }

    /// Runs `f(ctx)` once for every context index `ctx ∈ 0..contexts()`,
    /// in parallel when possible, and returns when all are done.
    ///
    /// Falls back to executing every context inline, in index order, when
    /// the pool has a single context, the caller is itself a pool worker,
    /// or another broadcast is in flight. Kernels must therefore not
    /// depend on contexts running concurrently.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any context's execution of `f`.
    pub fn run(&self, f: &(dyn Fn(usize) + Sync)) {
        let workers = self.handles.len();
        if workers == 0 || IN_POOL.with(Cell::get) {
            vstack_obs::metrics::global().pool_serial_runs.inc();
            for ctx in 0..=workers {
                f(ctx);
            }
            return;
        }
        let Ok(_guard) = self.submit.try_lock() else {
            vstack_obs::metrics::global().pool_serial_runs.inc();
            for ctx in 0..=workers {
                f(ctx);
            }
            return;
        };
        vstack_obs::metrics::global().pool_broadcasts.inc();
        // SAFETY: we erase the lifetime of `f` to hand it to the workers;
        // this function blocks until `remaining == 0`, i.e. until no
        // worker can touch it again, before returning.
        let job = Job(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        });
        {
            let mut st = self.shared.state.lock().expect("pool poisoned");
            st.epoch += 1;
            st.job = Some(job);
            st.remaining = workers;
            st.panicked = false;
            self.shared.work.notify_all();
        }
        // The caller participates as the last context index.
        let caller = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(workers)));
        let worker_panicked = {
            let mut st = self.shared.state.lock().expect("pool poisoned");
            while st.remaining > 0 {
                st = self.shared.done.wait(st).expect("pool poisoned");
            }
            st.job = None;
            st.panicked
        };
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        assert!(!worker_panicked, "vstack thread-pool worker panicked");
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool poisoned");
            st.shutdown = true;
            self.shared.work.notify_all();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, idx: usize) {
    IN_POOL.with(|c| c.set(true));
    let mut seen = 0u64;
    loop {
        let job = {
            let mut st = shared.state.lock().expect("pool poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen {
                    seen = st.epoch;
                    break st.job.expect("job published with epoch bump");
                }
                st = shared.work.wait(st).expect("pool poisoned");
            }
        };
        // SAFETY: `run` keeps the closure alive until `remaining == 0`.
        let f = unsafe { &*job.0 };
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(idx)));
        let mut st = shared.state.lock().expect("pool poisoned");
        if result.is_err() {
            st.panicked = true;
        }
        st.remaining -= 1;
        if st.remaining == 0 {
            shared.done.notify_all();
        }
    }
}

/// Resolves the pool width from a raw [`THREADS_ENV`] value. A missing
/// variable yields `default_width` silently; an unparsable or zero value
/// yields `default_width` plus a warning line for stderr. Never panics —
/// a bad environment must degrade a service, not kill it.
pub fn resolve_thread_count(raw: Option<&str>, default_width: usize) -> (usize, Option<String>) {
    match raw {
        None => (default_width, None),
        Some(value) => match value.trim().parse::<usize>() {
            Ok(n) if n >= 1 => (n, None),
            Ok(_) => (
                default_width,
                Some(format!(
                    "{THREADS_ENV}={value:?} must be >= 1; using {default_width} thread(s)"
                )),
            ),
            Err(_) => (
                default_width,
                Some(format!(
                    "{THREADS_ENV}={value:?} is not an integer; using {default_width} thread(s)"
                )),
            ),
        },
    }
}

/// The process-wide pool, sized from [`THREADS_ENV`] (if set to a positive
/// integer) or [`std::thread::available_parallelism`]. An invalid override
/// falls back to the default width with a once-per-process warning through
/// the `vstack-obs` logger (target `pool`).
pub fn global() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let default_width = std::thread::available_parallelism().map_or(1, |n| n.get());
        let raw = std::env::var(THREADS_ENV).ok();
        let (contexts, warning) = resolve_thread_count(raw.as_deref(), default_width);
        if let Some(warning) = warning {
            vstack_obs::warn_once!("pool", "{warning}");
        }
        ThreadPool::new(contexts)
    })
}

/// Runs `f` with `pool` installed as the calling thread's active pool:
/// every kernel that consults [`active`] inside `f` uses it instead of
/// the [`global`] pool. Overrides nest; the innermost wins.
pub fn with_pool<R>(pool: &Arc<ThreadPool>, f: impl FnOnce() -> R) -> R {
    CURRENT.with(|c| c.borrow_mut().push(Arc::clone(pool)));
    struct PopGuard;
    impl Drop for PopGuard {
        fn drop(&mut self) {
            CURRENT.with(|c| {
                c.borrow_mut().pop();
            });
        }
    }
    let _guard = PopGuard;
    f()
}

/// Hands `f` the calling thread's active pool: the innermost [`with_pool`]
/// override, or the [`global`] pool.
pub fn active<R>(f: impl FnOnce(&ThreadPool) -> R) -> R {
    let local = CURRENT.with(|c| c.borrow().last().cloned());
    match local {
        Some(p) => f(&p),
        None => f(global()),
    }
}

/// Maps `f` over `items` on the active pool, preserving order.
///
/// Items are dispatched dynamically (work stealing by atomic index), which
/// is fair for unequal task sizes; results land in their input slot, so
/// the output order — and, for deterministic `f`, the output itself — is
/// independent of the schedule.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn par_map<T: Send, R: Send>(items: Vec<T>, f: impl Fn(T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let out: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    active(|pool| {
        pool.run(&|_ctx| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let item = slots[i]
                .lock()
                .expect("par_map slot poisoned")
                .take()
                .expect("par_map item taken twice");
            let r = f(item);
            *out[i].lock().expect("par_map out poisoned") = Some(r);
        });
    });
    out.into_iter()
        .map(|m| {
            m.into_inner()
                .expect("par_map out poisoned")
                .expect("par_map item not mapped")
        })
        .collect()
}

/// A `Sync` view of a mutable `f64` slice for partitioned kernel writes.
///
/// Rust's borrow rules cannot express "many threads write disjoint index
/// sets of one slice" (the access pattern of row-partitioned SpMV), so
/// this wrapper re-establishes the guarantee manually via its safety
/// contract.
pub struct SharedSliceMut<'a> {
    ptr: *mut f64,
    len: usize,
    _marker: PhantomData<&'a mut [f64]>,
}

// SAFETY: all access goes through `unsafe` methods whose contracts forbid
// data races; the wrapper itself is just a pointer + length.
unsafe impl Sync for SharedSliceMut<'_> {}
// SAFETY: as above.
unsafe impl Send for SharedSliceMut<'_> {}

impl<'a> SharedSliceMut<'a> {
    /// Wraps an exclusive slice borrow.
    pub fn new(slice: &'a mut [f64]) -> Self {
        SharedSliceMut {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
            _marker: PhantomData,
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes element `i`.
    ///
    /// # Safety
    ///
    /// `i < len()`, and no other thread may be reading or writing element
    /// `i` concurrently.
    pub unsafe fn set(&self, i: usize, v: f64) {
        debug_assert!(i < self.len);
        // SAFETY: bounds and race freedom are the caller's contract.
        unsafe { *self.ptr.add(i) = v };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn thread_count_resolution_never_panics() {
        // Unset: default, no warning.
        assert_eq!(resolve_thread_count(None, 6), (6, None));
        // Valid values win, whitespace tolerated.
        assert_eq!(resolve_thread_count(Some("3"), 6), (3, None));
        assert_eq!(resolve_thread_count(Some(" 12 "), 6), (12, None));
        // Zero and garbage fall back to the default with a warning.
        for bad in ["0", "abc", "", "-2", "3.5", "1e2"] {
            let (width, warning) = resolve_thread_count(Some(bad), 6);
            assert_eq!(width, 6, "{bad:?} must fall back");
            let warning = warning.expect("bad value must warn");
            assert!(warning.contains(THREADS_ENV), "{warning}");
        }
    }

    #[test]
    fn run_visits_every_context_exactly_once() {
        for contexts in [1, 2, 4, 7] {
            let pool = ThreadPool::new(contexts);
            let hits: Vec<AtomicUsize> = (0..contexts).map(|_| AtomicUsize::new(0)).collect();
            pool.run(&|ctx| {
                hits[ctx].fetch_add(1, Ordering::Relaxed);
            });
            for (ctx, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "context {ctx}");
            }
        }
    }

    #[test]
    fn nested_run_is_inline_and_complete() {
        let pool = ThreadPool::new(3);
        let total = AtomicU64::new(0);
        pool.run(&|_outer| {
            // Nested broadcast from a worker context must run inline over
            // every context index without deadlocking.
            pool.run(&|inner| {
                total.fetch_add(1 + inner as u64, Ordering::Relaxed);
            });
        });
        // 3 outer contexts × Σ(1+inner) for inner ∈ {0,1,2} = 3 × 6.
        assert_eq!(total.load(Ordering::Relaxed), 18);
    }

    #[test]
    fn par_map_preserves_order() {
        let pool = Arc::new(ThreadPool::new(4));
        let out = with_pool(&pool, || par_map((0..100).collect(), |i: usize| i * i));
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn with_pool_overrides_global() {
        let pool = Arc::new(ThreadPool::new(5));
        let seen = with_pool(&pool, || active(ThreadPool::contexts));
        assert_eq!(seen, 5);
    }

    #[test]
    fn worker_panic_propagates() {
        let pool = ThreadPool::new(4);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(&|ctx| {
                if ctx == 1 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must remain usable after a panicked broadcast.
        let count = AtomicUsize::new(0);
        pool.run(&|_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn shared_slice_round_trips() {
        let mut v = vec![0.0; 8];
        let s = SharedSliceMut::new(&mut v);
        // SAFETY: single-threaded, in-bounds.
        unsafe { s.set(3, 2.5) };
        assert_eq!(v[3], 2.5);
    }
}
