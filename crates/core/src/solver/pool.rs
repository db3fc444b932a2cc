//! The persistent tick pool: long-lived workers for cluster stepping.
//!
//! Before this module existed, `ClusterSolver::step` spawned fresh OS
//! threads through `std::thread::scope` on *every tick* — at a 1 s tick
//! over a 10k-tick trace replay that is tens of thousands of
//! `clone(2)`/`join` round trips that contribute nothing to the physics.
//! Worse, solo machines and batch chunks were each sliced into `threads`
//! scoped threads, so a tick with both kinds of work oversubscribed the
//! host with up to `2 × threads` runnable threads.
//!
//! [`TickPool`] replaces both problems with one mechanism:
//!
//! - **Workers are spawned once** (on the first parallel tick) and parked
//!   on a condvar between ticks. A tick hands them work through an
//!   epoch/barrier handshake: the driver publishes a work list under the
//!   pool mutex, bumps the epoch, and wakes the workers; each worker
//!   drains items off a shared atomic cursor and the last one out signals
//!   the driver. The driver blocks until the barrier closes, so the
//!   borrowed work items never outlive the call.
//! - **One unified item queue.** A work item is either one solo machine's
//!   tick or one batch chunk's tick ([`WorkItem`]). Exactly
//!   `worker_count` threads drain the queue, so concurrency is capped at
//!   the configured thread count no matter how the tick's work divides
//!   between solos and chunks.
//! - **Determinism is untouched.** Which worker runs an item never
//!   affects that item's arithmetic: solo machines own their state, and
//!   chunks own their matrices while sharing a read-only operator. The
//!   item *list* is built in a fixed order from the batch plan, but items
//!   may retire in any order — results are written in place, so there is
//!   no reduction whose order could vary.
//!
//! # Safety
//!
//! Work items borrow the cluster's solvers and chunks, but worker
//! threads are `'static`. The pool bridges the gap the same way
//! `std::thread::scope` does: the item slice is published as a raw
//! pointer and the driver *always* waits for every worker to pass the
//! completion barrier before [`TickPool::run`] returns, so no worker can
//! observe the items after the borrow ends. All item access is by unique
//! index from the shared cursor, so no item is aliased.

use super::batch::{Chunk, SharedOp};
use super::machine::Solver;
use std::borrow::Cow;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use telemetry::Tracer;

/// One unit of independent per-tick work.
pub(crate) enum WorkItem<'a> {
    /// One in-call kernel tick of one solo machine
    /// ([`Solver::tick_fused`]).
    FusedStep(&'a mut Solver),
    /// One batch chunk's tick against its group's shared operator.
    Chunk {
        op: &'a SharedOp,
        chunk: &'a mut Chunk,
    },
}

impl WorkItem<'_> {
    fn run(&mut self) {
        match self {
            WorkItem::FusedStep(solver) => solver.tick_fused(),
            WorkItem::Chunk { op, chunk } => chunk.tick(op),
        }
    }
}

// The raw-pointer hand-off below moves `WorkItem`s across threads
// without the compiler's help; keep the obligation checked.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<WorkItem<'static>>();
};

/// What the driver learns from a sampled [`TickPool::run`].
pub(crate) struct RunSample {
    /// Summed worker wall time spent executing items.
    pub busy_nanos: u64,
    /// Driver wall time for the whole run (publish → barrier closed).
    pub run_nanos: u64,
}

#[derive(Default)]
struct State {
    /// Bumped once per run; workers use it to tell a fresh run from a
    /// spurious wakeup.
    epoch: u64,
    /// The published work list: `base` is `*mut WorkItem` as usize.
    base: usize,
    len: usize,
    /// Workers that have not yet passed the completion barrier.
    active: usize,
    /// Whether workers should time themselves this run.
    sample: bool,
    /// Span id the workers' busy spans parent to this run (0 = don't
    /// record busy spans).
    trace_parent: u64,
    /// The span tracer worker busy spans record into (detached by
    /// default; see [`TickPool::set_tracer`]).
    tracer: Tracer,
    shutdown: bool,
}

struct Shared {
    state: Mutex<State>,
    /// Driver → workers: a new epoch (or shutdown) is available.
    work: Condvar,
    /// Workers → driver: the last worker passed the barrier.
    done: Condvar,
    /// Item cursor for the current epoch.
    next: AtomicUsize,
    /// Summed busy nanos for the current (sampled) epoch.
    busy_nanos: AtomicU64,
    /// Set if any item panicked; the driver re-panics after the barrier.
    panicked: AtomicBool,
}

/// A persistent pool of tick workers. Created empty; workers are spawned
/// by the first [`TickPool::run`] and resized whenever a run asks for a
/// different thread count. Dropping the pool joins every worker.
pub(crate) struct TickPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    resizes: u64,
    /// Kept on the pool so a resize can seed the fresh shared state.
    tracer: Tracer,
}

impl std::fmt::Debug for TickPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TickPool")
            .field("workers", &self.workers.len())
            .field("resizes", &self.resizes)
            .finish()
    }
}

impl TickPool {
    pub(crate) fn new() -> Self {
        TickPool {
            shared: Self::fresh_shared(),
            workers: Vec::new(),
            resizes: 0,
            tracer: Tracer::default(),
        }
    }

    /// Attaches the span tracer worker busy spans record into. Workers
    /// pick it up at their next epoch; a detached tracer (the default)
    /// makes the busy-span sites free.
    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer.clone();
        let mut state = self.shared.state.lock().unwrap();
        state.tracer = tracer;
    }

    fn fresh_shared() -> Arc<Shared> {
        Arc::new(Shared {
            state: Mutex::new(State::default()),
            work: Condvar::new(),
            done: Condvar::new(),
            next: AtomicUsize::new(0),
            busy_nanos: AtomicU64::new(0),
            panicked: AtomicBool::new(false),
        })
    }

    /// Workers currently alive (0 before the first parallel run).
    pub(crate) fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Times the pool has been (re)sized, including the initial spawn.
    pub(crate) fn resizes(&self) -> u64 {
        self.resizes
    }

    /// Ensures exactly `threads` workers are alive. A resize tears the
    /// old pool down (worker state is trivial, and resizes are rare —
    /// an explicit `set_threads` call, not a per-tick event).
    fn resize(&mut self, threads: usize) {
        if self.workers.len() == threads {
            return;
        }
        self.teardown();
        self.shared = Self::fresh_shared();
        self.shared.state.lock().unwrap().tracer = self.tracer.clone();
        self.workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&self.shared);
                std::thread::Builder::new()
                    .name(format!("mercury-tick-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn tick worker")
            })
            .collect();
        self.resizes += 1;
    }

    fn teardown(&mut self) {
        if self.workers.is_empty() {
            return;
        }
        {
            let mut state = self.shared.state.lock().unwrap();
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }

    /// Executes every item once across exactly `threads` workers and
    /// returns when all are done. With `sample` set, workers time their
    /// busy span and the result carries a [`RunSample`]. A nonzero
    /// `trace_parent` asks each worker to record its busy interval as a
    /// `pool.worker` span under that parent (a no-op unless a tracer is
    /// attached and active).
    ///
    /// # Panics
    ///
    /// Re-raises (as a panic) any panic that occurred inside an item.
    pub(crate) fn run(
        &mut self,
        items: &mut [WorkItem<'_>],
        threads: usize,
        sample: bool,
        trace_parent: u64,
    ) -> Option<RunSample> {
        debug_assert!(threads > 0, "a parallel run needs at least one worker");
        self.resize(threads);
        let started = if sample { Some(Instant::now()) } else { None };
        {
            let mut state = self.shared.state.lock().unwrap();
            // SAFETY: the pointer is only dereferenced by workers between
            // this publish and the barrier below, during which `items` is
            // exclusively borrowed by this call.
            state.base = items.as_mut_ptr() as usize;
            state.len = items.len();
            state.active = self.workers.len();
            state.sample = sample;
            state.trace_parent = trace_parent;
            state.epoch += 1;
            self.shared.next.store(0, Ordering::Relaxed);
            if sample {
                self.shared.busy_nanos.store(0, Ordering::Relaxed);
            }
            self.shared.work.notify_all();
            // Barrier: wait for the last worker of this epoch.
            while state.active > 0 {
                state = self.shared.done.wait(state).unwrap();
            }
        }
        if self.shared.panicked.swap(false, Ordering::Relaxed) {
            panic!("a tick-pool work item panicked");
        }
        started.map(|t| RunSample {
            busy_nanos: self.shared.busy_nanos.load(Ordering::Relaxed),
            run_nanos: u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX),
        })
    }
}

impl Drop for TickPool {
    fn drop(&mut self) {
        self.teardown();
    }
}

// The crate denies `unsafe_code`; this function is the one sanctioned
// exception (see the module-level # Safety section and `lib.rs`).
#[allow(unsafe_code)]
fn worker_loop(shared: &Shared, index: usize) {
    let mut seen = 0u64;
    loop {
        // Park until a new epoch (or shutdown) is published.
        let (base, len, sample, trace_parent, tracer) = {
            let mut state = shared.state.lock().unwrap();
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen {
                    seen = state.epoch;
                    break (
                        state.base,
                        state.len,
                        state.sample,
                        state.trace_parent,
                        state.tracer.clone(),
                    );
                }
                state = shared.work.wait(state).unwrap();
            }
        };
        // Busy-span tracing: one `pool.worker` span per sampled epoch,
        // on this worker's own display lane (tid `1 + index`).
        let mut local = if trace_parent != 0 && tracer.is_active() {
            Some(tracer.local(1 + index as u32))
        } else {
            None
        };
        let busy_span = local
            .as_ref()
            .map(|l| l.start("pool.worker", "solver", trace_parent));
        let started = if sample { Some(Instant::now()) } else { None };
        let mut ran = 0u64;
        loop {
            let i = shared.next.fetch_add(1, Ordering::Relaxed);
            if i >= len {
                break;
            }
            ran += 1;
            // SAFETY: `i` is unique to this worker (fetch_add), in
            // bounds, and the driver keeps the slice alive until the
            // barrier below — so this is an unaliased &mut.
            let item = unsafe { &mut *(base as *mut WorkItem<'static>).add(i) };
            if catch_unwind(AssertUnwindSafe(|| item.run())).is_err() {
                shared.panicked.store(true, Ordering::Relaxed);
            }
        }
        if let Some(started) = started {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            shared.busy_nanos.fetch_add(nanos, Ordering::Relaxed);
        }
        if let (Some(local), Some(span)) = (local.as_mut(), busy_span) {
            local.end_with_args(span, vec![(Cow::Borrowed("items"), ran.to_string())]);
            // Flush before the barrier so the driver sees this epoch's
            // spans as soon as `run` returns.
            local.flush();
        }
        // Completion barrier: the mutex write-release here is also what
        // publishes this worker's item writes to the driver.
        let mut state = shared.state.lock().unwrap();
        state.active -= 1;
        if state.active == 0 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use crate::solver::machine::SpanClock;
    use crate::solver::SolverConfig;

    fn solver() -> Solver {
        Solver::new(&presets::validation_machine(), SolverConfig::default()).unwrap()
    }

    /// Bitwise state of a solver after its ticks are booked.
    fn state(s: &Solver) -> Vec<u64> {
        let temps = s.temperatures().into_iter().map(|(_, t)| t.0.to_bits());
        let accounting = [s.time().0.to_bits(), s.generated_last_tick().0.to_bits()];
        temps.chain(accounting).collect()
    }

    #[test]
    fn pool_steps_items_and_reuses_workers() {
        let mut a = solver();
        let mut b = solver();
        let mut reference = solver();
        a.set_utilization("cpu", 0.7).unwrap();
        reference.set_utilization("cpu", 0.7).unwrap();
        let mut pool = TickPool::new();
        for _ in 0..5 {
            let mut items = [WorkItem::FusedStep(&mut a), WorkItem::FusedStep(&mut b)];
            pool.run(&mut items, 2, false, 0);
            reference.tick_fused();
        }
        assert_eq!(pool.worker_count(), 2);
        assert_eq!(pool.resizes(), 1, "five runs, one spawn");
        for s in [&mut a, &mut b, &mut reference] {
            s.finish_span(5, &mut SpanClock::default());
        }
        assert_eq!(state(&a), state(&reference));
        assert_ne!(state(&b), state(&reference), "b idles");
        let mut idle = solver();
        (0..5).for_each(|_| idle.tick_fused());
        idle.finish_span(5, &mut SpanClock::default());
        assert_eq!(state(&b), state(&idle));
    }

    #[test]
    fn pool_resizes_on_demand() {
        let mut a = solver();
        let mut pool = TickPool::new();
        pool.run(&mut [WorkItem::FusedStep(&mut a)], 3, false, 0);
        assert_eq!(pool.worker_count(), 3);
        pool.run(&mut [WorkItem::FusedStep(&mut a)], 1, false, 0);
        assert_eq!(pool.worker_count(), 1);
        assert_eq!(pool.resizes(), 2);
    }

    #[test]
    fn sampled_run_reports_busy_time() {
        let mut a = solver();
        let mut b = solver();
        let mut pool = TickPool::new();
        let stats = pool
            .run(
                &mut [WorkItem::FusedStep(&mut a), WorkItem::FusedStep(&mut b)],
                2,
                true,
                0,
            )
            .expect("sampled run returns stats");
        assert!(stats.run_nanos > 0);
        assert!(stats.busy_nanos > 0);
    }

    #[test]
    fn empty_run_completes() {
        let mut pool = TickPool::new();
        assert!(pool.run(&mut [], 2, false, 0).is_none());
    }

    #[test]
    #[cfg(feature = "instrument")]
    fn workers_record_busy_spans_under_the_given_parent() {
        let tracer = Tracer::new(256);
        let mut a = solver();
        let mut b = solver();
        let mut pool = TickPool::new();
        pool.set_tracer(tracer.clone());
        pool.run(
            &mut [WorkItem::FusedStep(&mut a), WorkItem::FusedStep(&mut b)],
            2,
            false,
            42,
        );
        let spans = tracer.recent(10);
        assert_eq!(spans.len(), 2, "one busy span per worker");
        let mut tids: Vec<u32> = spans.iter().map(|s| s.tid).collect();
        tids.sort_unstable();
        assert_eq!(tids, [1, 2], "workers use their own display lanes");
        for s in &spans {
            assert_eq!(s.name, "pool.worker");
            assert_eq!(s.parent, 42);
            assert!(s.args.iter().any(|(k, _)| k == "items"));
        }
        // A zero trace parent suppresses busy spans entirely.
        pool.run(&mut [WorkItem::FusedStep(&mut a)], 2, false, 0);
        assert_eq!(tracer.recent(10).len(), 2);
    }
}
