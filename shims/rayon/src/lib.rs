//! Offline shim of the `rayon` API surface used by this workspace —
//! now backed by a **real fixed-size thread pool**.
//!
//! The build container has no reachable crate registry (see
//! `shims/README.md`), so this crate stands in for rayon. Unlike the
//! earlier inline-sequential shim, parallel iterators here genuinely
//! execute on `std::thread` workers fed through the crossbeam channel
//! shim:
//!
//! * a [`ThreadPool`] spawns `threads - 1` persistent workers at build
//!   time (the thread invoking a parallel operation always participates
//!   as the remaining worker, so a 1-thread pool runs everything on the
//!   caller with no cross-thread traffic);
//! * every parallel operation snapshots its input into **deterministic
//!   index-ordered chunks**; idle workers steal the next chunk from a
//!   shared counter, and results are stitched back together in chunk
//!   order. Per-item work is pure (or scratch-only, for `map_init`
//!   state), so output is bit-identical for any thread count and any
//!   steal interleaving;
//! * reductions (`reduce_with`, `sum`) collect the ordered item
//!   stream first and fold it sequentially on the caller — the exact
//!   fold order of a sequential iterator, so even non-associative
//!   operators cannot introduce thread-count dependence;
//! * nested parallel operations (a parallel solve inside a parallel
//!   batch) run inline on the worker that encountered them, which keeps
//!   the pool deadlock-free without rayon's work-stealing re-entrancy
//!   machinery.
//!
//! The public surface is the part of the real crate this workspace
//! calls (`ThreadPoolBuilder`, `install`, `current_num_threads`,
//! `into_par_iter`/`par_iter`, `map`, `map_init`, `filter_map`,
//! `enumerate`, `for_each`, `collect`, `reduce_with`, `sum`), so every
//! call site compiles unchanged against crates.io rayon — swapping the
//! real crate back in stays a manifest-only change. As in real rayon, `enumerate`
//! is only meaningful on index-stable ("indexed") chains: applying it
//! after a length-changing adaptor like `filter_map` is a type error
//! upstream and unsupported here.

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use crossbeam::channel;

// ---------------------------------------------------------------------------
// Pool plumbing
// ---------------------------------------------------------------------------

/// Lifetime-erased pointer to a parallel operation's body. Soundness
/// contract: [`run_on`] never returns while any worker still holds the
/// pointer (it invalidates the job, then waits for active helpers), so
/// the erased borrow never outlives the frame that owns the closure.
#[derive(Clone, Copy)]
struct OpPtr(*const (dyn Fn() + Sync));

// SAFETY: the pointee is `Sync` and `run_on` joins every helper before
// the pointed-to closure can go out of scope (see `OpPtr` docs).
unsafe impl Send for OpPtr {}
// SAFETY: as above; shared access is to a `Sync` closure.
unsafe impl Sync for OpPtr {}

struct JobState {
    /// The operation, present until the owning `run_on` retires it.
    op: Option<OpPtr>,
    /// Helpers currently executing the operation.
    active: usize,
    /// First panic payload raised by a helper, if any.
    payload: Option<Box<dyn Any + Send>>,
}

/// One broadcast parallel operation: workers that pop it from the pool
/// channel call the operation (which steals chunks until none remain),
/// and the submitting thread waits for `active` to drain.
struct Job {
    state: Mutex<JobState>,
    done: Condvar,
}

impl Job {
    fn new(op: &(dyn Fn() + Sync)) -> Arc<Job> {
        // SAFETY: erase the borrow's lifetime; `run_on` upholds the
        // `OpPtr` contract by retiring the job before returning.
        let ptr = OpPtr(unsafe {
            std::mem::transmute::<*const (dyn Fn() + Sync), *const (dyn Fn() + Sync)>(op)
        });
        Arc::new(Job {
            state: Mutex::new(JobState {
                op: Some(ptr),
                active: 0,
                payload: None,
            }),
            done: Condvar::new(),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, JobState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Run the operation as a helper, if the job is still live. A
    /// worker may encounter the same job twice (duplicate wake
    /// tokens); re-entry is harmless because the operation is a
    /// steal-loop over a shared chunk counter.
    fn help(&self) {
        let ptr = {
            let mut st = self.lock();
            match st.op {
                Some(p) => {
                    st.active += 1;
                    p
                }
                None => return,
            }
        };
        // SAFETY: `op` was still live above, and `active` was raised
        // under the lock, so `run_on` cannot return (and the closure
        // cannot be dropped) until we decrement it below.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*ptr.0)() }));
        let mut st = self.lock();
        st.active -= 1;
        if let Err(payload) = result {
            st.payload.get_or_insert(payload);
        }
        self.done.notify_all();
    }

    /// Invalidate the operation pointer and wait for in-flight helpers
    /// to drain. Returns a helper panic payload, if one was caught.
    fn retire(&self) -> Option<Box<dyn Any + Send>> {
        let mut st = self.lock();
        st.op = None;
        while st.active > 0 {
            st = self.done.wait(st).unwrap_or_else(|e| e.into_inner());
        }
        st.payload.take()
    }
}

/// Shared half of a pool: the worker wake channel plus the configured
/// width. Kept behind `Arc` so `install` can pin it as the current pool
/// without borrowing the `ThreadPool` itself.
struct PoolShared {
    /// Total concurrency of the pool, caller included.
    threads: usize,
    /// Wake channel; `None` once the owning pool began shutdown.
    tx: Mutex<Option<channel::Sender<Arc<Job>>>>,
}

impl PoolShared {
    /// Offer `job` to up to `n` workers; quietly drops tokens when the
    /// queue is full (busy workers will not be helped by more tokens)
    /// or the pool is shutting down (the caller runs the job alone).
    fn wake(&self, job: &Arc<Job>, n: usize) {
        let guard = self.tx.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(tx) = guard.as_ref() {
            for _ in 0..n {
                if tx.try_send(Arc::clone(job)).is_err() {
                    break;
                }
            }
        }
    }
}

thread_local! {
    /// True while this thread is executing inside a parallel operation
    /// (as pool worker or as submitting caller); nested operations run
    /// inline instead of re-entering the pool.
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
    /// Stack of `install`ed pools; parallel operations submit to the
    /// innermost one, falling back to the global pool.
    static CURRENT_POOL: RefCell<Vec<Arc<PoolShared>>> = const { RefCell::new(Vec::new()) };
}

/// Run `op` to completion: wake up to `threads - 1` pool workers to
/// help, participate from the calling thread, then join the helpers.
/// Panics from any participant propagate to the caller.
fn run_on(shared: &PoolShared, op: &(dyn Fn() + Sync)) {
    let job = Job::new(op);
    shared.wake(&job, shared.threads.saturating_sub(1));
    let caller = {
        struct Guard;
        impl Drop for Guard {
            fn drop(&mut self) {
                IN_PARALLEL.with(|f| f.set(false));
            }
        }
        IN_PARALLEL.with(|f| f.set(true));
        let _guard = Guard;
        catch_unwind(AssertUnwindSafe(op))
    };
    let helper_payload = job.retire();
    // The job is fully retired: no worker can touch `op` anymore, so
    // unwinding (or returning) is safe from here on.
    if let Err(payload) = caller {
        resume_unwind(payload);
    }
    if let Some(payload) = helper_payload {
        resume_unwind(payload);
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn global_pool() -> &'static ThreadPool {
    static GLOBAL: OnceLock<ThreadPool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        ThreadPoolBuilder::new()
            .build()
            .expect("global pool construction is infallible")
    })
}

/// The shared state of the pool a parallel operation should use: the
/// innermost `install`ed pool, else the global one.
fn current_shared() -> Arc<PoolShared> {
    CURRENT_POOL.with(|stack| {
        stack
            .borrow()
            .last()
            .map(Arc::clone)
            .unwrap_or_else(|| Arc::clone(&global_pool().shared))
    })
}

// ---------------------------------------------------------------------------
// Public pool API
// ---------------------------------------------------------------------------

/// A fixed-size thread pool: `threads - 1` persistent `std::thread`
/// workers blocking on a crossbeam channel, plus the submitting thread
/// itself. Dropping the pool closes the channel and joins the workers.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.shared.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Run `job` with this pool as the current one: parallel iterators
    /// inside `job` distribute their chunks over this pool's workers.
    /// The job itself executes on the calling thread.
    pub fn install<R>(&self, job: impl FnOnce() -> R) -> R {
        struct Guard;
        impl Drop for Guard {
            fn drop(&mut self) {
                CURRENT_POOL.with(|stack| {
                    stack.borrow_mut().pop();
                });
            }
        }
        CURRENT_POOL.with(|stack| stack.borrow_mut().push(Arc::clone(&self.shared)));
        let _guard = Guard;
        job()
    }

    /// The configured worker count (submitting caller included).
    pub fn current_num_threads(&self) -> usize {
        self.shared.threads
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Close the wake channel (even if `install` clones of the
        // shared state are still alive somewhere), then join.
        *self.shared.tx.lock().unwrap_or_else(|e| e.into_inner()) = None;
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Error produced by [`ThreadPoolBuilder::build`] (never, in this shim).
#[derive(Debug)]
pub struct ThreadPoolBuildError(());

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("thread pool construction failed")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder mirroring `rayon::ThreadPoolBuilder`.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    threads: usize,
}

impl ThreadPoolBuilder {
    /// A builder with default settings (one thread per available core).
    pub fn new() -> Self {
        Self::default()
    }

    /// Request `threads` workers; `0` (the default) means one per
    /// available core, as in real rayon.
    pub fn num_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Build the pool, spawning its persistent workers.
    pub fn build(self) -> Result<ThreadPool, ThreadPoolBuildError> {
        let threads = if self.threads == 0 {
            default_threads()
        } else {
            self.threads
        };
        let (tx, rx) = channel::bounded::<Arc<Job>>(threads * 2 + 4);
        let workers = (1..threads)
            .map(|i| {
                let rx = rx.clone();
                std::thread::Builder::new()
                    .name(format!("rayon-shim-{i}"))
                    .spawn(move || {
                        // Worker threads only ever run inside parallel
                        // operations; nested ones must go inline.
                        IN_PARALLEL.with(|f| f.set(true));
                        while let Ok(job) = rx.recv() {
                            job.help();
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Ok(ThreadPool {
            shared: Arc::new(PoolShared {
                threads,
                tx: Mutex::new(Some(tx)),
            }),
            workers,
        })
    }
}

/// The width of the pool parallel operations currently submit to.
pub fn current_num_threads() -> usize {
    current_shared().threads
}

// ---------------------------------------------------------------------------
// Parallel iterators
// ---------------------------------------------------------------------------

pub mod prelude {
    //! Traits making `par_iter`-style chains execute on the shim's
    //! thread pool. `use rayon::prelude::*` at a call site behaves like
    //! the real crate.

    use super::{current_shared, run_on, IN_PARALLEL};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Mutex};

    /// Chunks handed to one participating worker: a sequential
    /// evaluator from a slice of base items (with its global start
    /// offset) to the pipeline's output items. Created per worker, so
    /// `map_init` state lives exactly once per participant.
    pub type ChunkFn<'a, B, T> = Box<dyn FnMut(usize, Vec<B>) -> Vec<T> + 'a>;

    /// Per-worker [`ChunkFn`] factory; shared read-only across the
    /// pool, invoked once by each participating worker.
    pub type ChunkFactory<'a, B, T> = Box<dyn Fn() -> ChunkFn<'a, B, T> + Send + Sync + 'a>;

    /// A decomposed parallel pipeline: the materialised base items plus
    /// the per-worker evaluator factory.
    pub struct Parts<'a, B, T> {
        /// The pipeline's input, in order.
        pub base: Vec<B>,
        /// Per-worker evaluator factory.
        pub factory: ChunkFactory<'a, B, T>,
    }

    /// How many chunks each pool worker would ideally steal; >1 gives
    /// the steal-loop room to balance uneven per-item cost.
    const CHUNKS_PER_WORKER: usize = 4;

    /// Execute a pipeline over the current pool and return its output
    /// in input order. Runs inline (no pool traffic) when the input is
    /// trivial, the pool has one thread, or we are already inside a
    /// parallel operation.
    fn drive<P: ParallelIterator>(iter: P) -> Vec<P::Item> {
        let Parts { base, factory } = iter.decompose();
        let len = base.len();
        let shared = current_shared();
        let inline = len <= 1 || shared.threads <= 1 || IN_PARALLEL.with(|f| f.get());
        if inline {
            return (factory)()(0, base);
        }
        // At least two threads and two items, so every chunk is
        // shorter than the input.
        let chunk = len.div_ceil(shared.threads * CHUNKS_PER_WORKER);
        // Deterministic index-ordered chunks: slot i covers base range
        // [i*chunk, ...); which worker evaluates a chunk never matters.
        let n_chunks = len.div_ceil(chunk);
        let mut items = base.into_iter();
        let mut tasks = Vec::with_capacity(n_chunks);
        let mut start = 0;
        while start < len {
            let take = chunk.min(len - start);
            let piece: Vec<P::Base> = items.by_ref().take(take).collect();
            tasks.push(Mutex::new(Some((start, piece))));
            start += take;
        }
        let slots: Vec<Mutex<Option<Vec<P::Item>>>> =
            (0..n_chunks).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let op = || {
            let mut eval = (factory)();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n_chunks {
                    break;
                }
                let (off, piece) = tasks[i]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("each chunk is stolen exactly once");
                let out = eval(off, piece);
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(out);
            }
        };
        run_on(&shared, &op);
        let mut out = Vec::with_capacity(len);
        for slot in slots {
            out.extend(
                slot.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("every chunk completed"),
            );
        }
        out
    }

    /// The parallel-iterator interface: adaptors build a lazy pipeline,
    /// consumers execute it over the current pool. Semantics match real
    /// rayon, with one strengthening: reductions fold the ordered item
    /// stream sequentially, so results are bit-identical at any thread
    /// count even for non-associative operators.
    pub trait ParallelIterator: Sized + Send {
        /// The materialised input element type.
        type Base: Send;
        /// The pipeline's output element type.
        type Item: Send;

        /// Split into base items plus a per-worker chunk evaluator
        /// (shim plumbing; call sites never need this).
        fn decompose<'a>(self) -> Parts<'a, Self::Base, Self::Item>
        where
            Self: 'a;

        /// Transform each item.
        fn map<F, R>(self, f: F) -> Map<Self, F>
        where
            F: Fn(Self::Item) -> R + Send + Sync,
            R: Send,
        {
            Map { inner: self, f }
        }

        /// Rayon's `map_init`: `init` runs once per participating
        /// worker and its value threads mutably through every item that
        /// worker evaluates — the idiom for per-worker scratch buffers.
        /// State contents must never influence results (only speed), or
        /// output would depend on the steal schedule.
        fn map_init<INIT, T, F, R>(self, init: INIT, f: F) -> MapInit<Self, INIT, F, T>
        where
            INIT: Fn() -> T + Send + Sync,
            F: Fn(&mut T, Self::Item) -> R + Send + Sync,
            R: Send,
        {
            MapInit {
                inner: self,
                init,
                f,
                _state: std::marker::PhantomData,
            }
        }

        /// Transform and filter in one pass.
        fn filter_map<F, R>(self, f: F) -> FilterMap<Self, F>
        where
            F: Fn(Self::Item) -> Option<R> + Send + Sync,
            R: Send,
        {
            FilterMap { inner: self, f }
        }

        /// Pair each item with its global index. As in real rayon
        /// (where this lives on `IndexedParallelIterator`), only valid
        /// on index-stable chains — apply it before any `filter_map`.
        fn enumerate(self) -> Enumerate<Self> {
            Enumerate { inner: self }
        }

        /// Consume every item for its side effects.
        fn for_each<F>(self, f: F)
        where
            F: Fn(Self::Item) + Send + Sync,
        {
            drive(self.map(f));
        }

        /// Execute the pipeline and collect its ordered output.
        fn collect<C: FromIterator<Self::Item>>(self) -> C {
            drive(self).into_iter().collect()
        }

        /// Fold all items with `op` in input order; `None` when empty.
        fn reduce_with<OP>(self, op: OP) -> Option<Self::Item>
        where
            OP: Fn(Self::Item, Self::Item) -> Self::Item + Send + Sync,
        {
            drive(self).into_iter().reduce(op)
        }

        /// Sum all items in input order.
        fn sum<S>(self) -> S
        where
            S: std::iter::Sum<Self::Item>,
        {
            drive(self).into_iter().sum()
        }
    }

    /// The base of every pipeline: materialised input items.
    pub struct VecParIter<B> {
        items: Vec<B>,
    }

    impl<B: Send> ParallelIterator for VecParIter<B> {
        type Base = B;
        type Item = B;

        fn decompose<'a>(self) -> Parts<'a, B, B>
        where
            Self: 'a,
        {
            Parts {
                base: self.items,
                factory: Box::new(|| Box::new(|_off, piece| piece)),
            }
        }
    }

    /// See [`ParallelIterator::map`].
    pub struct Map<P, F> {
        inner: P,
        f: F,
    }

    impl<P, F, R> ParallelIterator for Map<P, F>
    where
        P: ParallelIterator,
        F: Fn(P::Item) -> R + Send + Sync,
        R: Send,
    {
        type Base = P::Base;
        type Item = R;

        fn decompose<'a>(self) -> Parts<'a, P::Base, R>
        where
            Self: 'a,
        {
            let parts = self.inner.decompose();
            let inner_factory = parts.factory;
            let f = Arc::new(self.f);
            Parts {
                base: parts.base,
                factory: Box::new(move || {
                    let mut inner = inner_factory();
                    let f = Arc::clone(&f);
                    Box::new(move |off, piece| {
                        inner(off, piece).into_iter().map(|x| f(x)).collect()
                    })
                }),
            }
        }
    }

    /// See [`ParallelIterator::map_init`]. The phantom parameter pins
    /// the per-worker state type into `Self`, so `Self: 'a` carries
    /// the `T: 'a` bound the boxed chunk evaluator needs.
    pub struct MapInit<P, INIT, F, T> {
        inner: P,
        init: INIT,
        f: F,
        _state: std::marker::PhantomData<fn() -> T>,
    }

    impl<P, INIT, T, F, R> ParallelIterator for MapInit<P, INIT, F, T>
    where
        P: ParallelIterator,
        INIT: Fn() -> T + Send + Sync,
        F: Fn(&mut T, P::Item) -> R + Send + Sync,
        R: Send,
    {
        type Base = P::Base;
        type Item = R;

        fn decompose<'a>(self) -> Parts<'a, P::Base, R>
        where
            Self: 'a,
        {
            let parts = self.inner.decompose();
            let inner_factory = parts.factory;
            let init = Arc::new(self.init);
            let f = Arc::new(self.f);
            Parts {
                base: parts.base,
                factory: Box::new(move || {
                    let mut inner = inner_factory();
                    // Per-worker state: created on the worker's first
                    // chunk, reused for every chunk it steals.
                    let mut state = (init)();
                    let f = Arc::clone(&f);
                    Box::new(move |off, piece| {
                        inner(off, piece)
                            .into_iter()
                            .map(|x| f(&mut state, x))
                            .collect()
                    })
                }),
            }
        }
    }

    /// See [`ParallelIterator::filter_map`].
    pub struct FilterMap<P, F> {
        inner: P,
        f: F,
    }

    impl<P, F, R> ParallelIterator for FilterMap<P, F>
    where
        P: ParallelIterator,
        F: Fn(P::Item) -> Option<R> + Send + Sync,
        R: Send,
    {
        type Base = P::Base;
        type Item = R;

        fn decompose<'a>(self) -> Parts<'a, P::Base, R>
        where
            Self: 'a,
        {
            let parts = self.inner.decompose();
            let inner_factory = parts.factory;
            let f = Arc::new(self.f);
            Parts {
                base: parts.base,
                factory: Box::new(move || {
                    let mut inner = inner_factory();
                    let f = Arc::clone(&f);
                    Box::new(move |off, piece| {
                        inner(off, piece).into_iter().filter_map(|x| f(x)).collect()
                    })
                }),
            }
        }
    }

    /// See [`ParallelIterator::enumerate`].
    pub struct Enumerate<P> {
        inner: P,
    }

    impl<P: ParallelIterator> ParallelIterator for Enumerate<P> {
        type Base = P::Base;
        type Item = (usize, P::Item);

        fn decompose<'a>(self) -> Parts<'a, P::Base, (usize, P::Item)>
        where
            Self: 'a,
        {
            let parts = self.inner.decompose();
            let inner_factory = parts.factory;
            Parts {
                base: parts.base,
                factory: Box::new(move || {
                    let mut inner = inner_factory();
                    Box::new(move |off, piece| {
                        let fed = piece.len();
                        let produced = inner(off, piece);
                        // Real rayon rejects this at the type level
                        // (enumerate needs IndexedParallelIterator);
                        // the shim can only catch it at runtime.
                        debug_assert_eq!(
                            produced.len(),
                            fed,
                            "enumerate requires an index-stable (1:1) chain — \
                             apply it before filter_map"
                        );
                        produced
                            .into_iter()
                            .enumerate()
                            .map(move |(i, x)| (off + i, x))
                            .collect()
                    })
                }),
            }
        }
    }

    /// By-value conversion: `into_par_iter` on anything iterable.
    pub trait IntoParallelIterator: IntoIterator + Sized
    where
        Self::Item: Send,
    {
        /// Materialise and wrap as the base of a parallel pipeline.
        fn into_par_iter(self) -> VecParIter<Self::Item> {
            VecParIter {
                items: self.into_iter().collect(),
            }
        }
    }

    impl<T: IntoIterator> IntoParallelIterator for T where T::Item: Send {}

    /// By-shared-reference conversion: `par_iter`.
    pub trait IntoParallelRefIterator<'data> {
        /// The parallel iterator over `&Item`.
        type Iter: ParallelIterator;
        /// Parallel iteration over shared references.
        fn par_iter(&'data self) -> Self::Iter;
    }

    impl<'data, C: 'data + ?Sized> IntoParallelRefIterator<'data> for C
    where
        &'data C: IntoIterator,
        <&'data C as IntoIterator>::Item: Send,
    {
        type Iter = VecParIter<<&'data C as IntoIterator>::Item>;

        fn par_iter(&'data self) -> Self::Iter {
            VecParIter {
                items: self.into_iter().collect(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    fn pool(n: usize) -> super::ThreadPool {
        super::ThreadPoolBuilder::new()
            .num_threads(n)
            .build()
            .unwrap()
    }

    #[test]
    fn par_chains_are_ordered_at_any_width() {
        let v = vec![3, 1, 4, 1, 5];
        for n in [1, 2, 8] {
            pool(n).install(|| {
                let doubled: Vec<i32> = v.par_iter().map(|x| x * 2).collect();
                assert_eq!(doubled, vec![6, 2, 8, 2, 10]);
                assert_eq!((0..1000i64).into_par_iter().sum::<i64>(), 499_500);
                let best = v
                    .par_iter()
                    .enumerate()
                    .filter_map(|(i, &x)| (x > 1).then_some((x, i)))
                    .reduce_with(|a, b| if b.0 > a.0 { b } else { a });
                assert_eq!(best, Some((5, 4)));
            });
        }
    }

    #[test]
    fn map_init_state_is_scratch_only() {
        // Per-worker state must never leak into results; only the
        // mapped values matter, at every pool width.
        for n in [1, 3, 8] {
            let out: Vec<usize> = pool(n).install(|| {
                (0..100usize)
                    .into_par_iter()
                    .map_init(Vec::new, |buf: &mut Vec<usize>, x| {
                        buf.push(x); // scratch: grows per worker, unobserved
                        x * 3
                    })
                    .collect()
            });
            assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn pool_runs_real_threads() {
        // With enough blocked tasks the pool must use >1 distinct
        // thread; with a 1-thread pool everything stays on the caller.
        let seen = Mutex::new(std::collections::HashSet::new());
        pool(4).install(|| {
            (0..64usize).into_par_iter().for_each(|_| {
                seen.lock().unwrap().insert(std::thread::current().id());
                std::thread::sleep(std::time::Duration::from_millis(1));
            });
        });
        assert!(seen.lock().unwrap().len() > 1, "no worker ever helped");
        let seen1 = Mutex::new(std::collections::HashSet::new());
        let caller = std::thread::current().id();
        pool(1).install(|| {
            (0..16usize).into_par_iter().for_each(|_| {
                seen1.lock().unwrap().insert(std::thread::current().id());
            });
        });
        assert_eq!(
            *seen1.lock().unwrap(),
            std::collections::HashSet::from([caller]),
            "1-thread pool must stay on the caller"
        );
    }

    #[test]
    fn nested_parallelism_runs_inline() {
        let outer_calls = AtomicUsize::new(0);
        let sums: Vec<i64> = pool(4).install(|| {
            (0..8i64)
                .into_par_iter()
                .map(|i| {
                    outer_calls.fetch_add(1, Ordering::Relaxed);
                    // Nested op: must complete inline without deadlock.
                    (0..100i64).into_par_iter().map(|x| x + i).sum::<i64>()
                })
                .collect()
        });
        assert_eq!(outer_calls.load(Ordering::Relaxed), 8);
        assert_eq!(sums[0], 4950);
        assert_eq!(sums[7], 4950 + 700);
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let result = std::panic::catch_unwind(|| {
            pool(4).install(|| {
                (0..64usize).into_par_iter().for_each(|i| {
                    if i == 33 {
                        panic!("boom at {i}");
                    }
                });
            })
        });
        assert!(result.is_err(), "worker panic must reach the caller");
        // The pool (and the global state) survives for the next op.
        let ok: Vec<usize> = pool(2).install(|| (0..8usize).into_par_iter().collect());
        assert_eq!(ok.len(), 8);
    }

    #[test]
    fn results_identical_across_widths() {
        // The bit-identical contract: same pipeline, pools of 1/2/8
        // threads, identical output (non-associative reduce included).
        let run = |n: usize| {
            pool(n).install(|| {
                let mapped: Vec<i64> = (0..500i64).into_par_iter().map(|x| x * x % 97).collect();
                let reduced = (0..500i64)
                    .into_par_iter()
                    .map(|x| x % 13)
                    // Deliberately non-associative.
                    .reduce_with(|a, b| a - b);
                (mapped, reduced)
            })
        };
        let base = run(1);
        assert_eq!(base, run(2));
        assert_eq!(base, run(8));
    }

    #[test]
    fn pool_installs_on_caller_and_reports_width() {
        let pool = pool(4);
        assert_eq!(pool.install(|| 21 * 2), 42);
        assert_eq!(pool.current_num_threads(), 4);
        assert!(super::current_num_threads() >= 1);
    }
}
