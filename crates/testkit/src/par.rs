//! Bounded work-stealing parallelism for the whole workspace.
//!
//! The original helpers spawned one OS thread per work item, which is
//! fine when items are slices (single digits) but melts down when the
//! engine fans out over thousands of batches or the COPY loader splits
//! a large file. This module now runs everything on a single persistent
//! pool:
//!
//! * **Fixed width.** `available_workers() - 1` pool threads are spawned
//!   lazily on first use; the submitting thread always helps execute its
//!   own batch, so total concurrency is exactly [`available_workers`].
//! * **Per-worker deques.** Each pool thread owns a deque of batch
//!   handles. Submissions land round-robin; a worker drains its own
//!   deque from the back and steals from other deques' fronts. A batch
//!   is *shared* — tasks inside it are claimed by an atomic cursor — so
//!   a steal clones the handle and leaves the batch in place until every
//!   task index is claimed; exhausted handles are dropped lazily.
//! * **Caller-helps, deadlock-free nesting.** A submitter (including a
//!   pool worker executing a nested `map`) claims tasks from its own
//!   batch until the cursor is exhausted and only then blocks on the
//!   batch latch. Every unfinished task is therefore running on some
//!   thread that waits only on *strictly deeper* batches, so nested
//!   parallelism terminates by induction on depth.
//! * **Panic behavior matches the old code.** The first worker panic is
//!   captured and re-raised on the calling thread after the batch
//!   drains, exactly like a scoped-thread join.
//! * **Determinism.** Output slots are indexed by task position, so
//!   `map`/`map_indexed` preserve order no matter which worker ran what.
//!   Virtual-time replay (`simkit`) never enters this module — it is
//!   sequential by construction — so RSIM-seeded schedules stay
//!   byte-identical.

use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

// ---------------------------------------------------------------------
// Batch: a unit of submission holding `n` index-addressed tasks.
// ---------------------------------------------------------------------

/// Type-erased pointer to the caller's borrowed closure. The pointee is
/// only dereferenced between a successful cursor claim and the matching
/// `remaining` decrement; the submitter blocks until `remaining == 0`
/// (with acquire/release pairing), so every dereference happens-before
/// the borrow ends. Handles that outlive the call never dereference:
/// the cursor is exhausted, so `run_one` bails before touching the
/// pointer, and dropping the handle touches nothing.
struct BatchState {
    run_fn: *const (dyn Fn(usize) + Sync),
    n: usize,
    /// Next task index to claim (may overshoot `n`; claims are `>= n`
    /// checked).
    cursor: AtomicUsize,
    /// Tasks claimed-and-finished still outstanding. Decremented with
    /// `Release` after the task body runs; the waiter reads it with
    /// `Acquire` under `done_lock`, which publishes the task's writes.
    remaining: AtomicUsize,
    done_lock: Mutex<()>,
    done_cv: Condvar,
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

// SAFETY: the raw closure pointer is only dereferenced while the
// submitting stack frame is alive (see `run_batch`); the closure itself
// is `Sync`, so shared calls from many threads are fine.
unsafe impl Send for BatchState {}
unsafe impl Sync for BatchState {}

impl BatchState {
    /// Claim and run one task. Returns `false` when every index is
    /// claimed (the batch may still have tasks *running* elsewhere).
    fn run_one(&self) -> bool {
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= self.n {
            return false;
        }
        // SAFETY: a successful claim (< n) implies the submitter is
        // still inside `run_batch` waiting on `remaining`, so the
        // closure borrow is live.
        let f = unsafe { &*self.run_fn };
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(i))) {
            let mut slot = self.panic.lock().unwrap_or_else(|p| p.into_inner());
            slot.get_or_insert(payload);
        }
        if self.remaining.fetch_sub(1, Ordering::Release) == 1 {
            let _g = self.done_lock.lock().unwrap_or_else(|p| p.into_inner());
            self.done_cv.notify_all();
        }
        true
    }

    fn exhausted(&self) -> bool {
        self.cursor.load(Ordering::Relaxed) >= self.n
    }

    fn wait_done(&self) {
        let mut g = self.done_lock.lock().unwrap_or_else(|p| p.into_inner());
        while self.remaining.load(Ordering::Acquire) > 0 {
            g = self.done_cv.wait(g).unwrap_or_else(|p| p.into_inner());
        }
    }
}

// ---------------------------------------------------------------------
// The pool.
// ---------------------------------------------------------------------

struct Shared {
    /// One deque per pool thread. Entries are *hints* that a batch has
    /// claimable work; stealing clones the `Arc` and leaves the entry
    /// for other workers, since one batch feeds many threads.
    deques: Vec<Mutex<VecDeque<Arc<BatchState>>>>,
    /// Bumped under the lock on every submission so a worker that
    /// scanned-and-found-nothing can detect a racing push before it
    /// parks (no lost wakeups).
    epoch: Mutex<u64>,
    work_cv: Condvar,
    rr: AtomicUsize,
}

impl Shared {
    /// Scan for a batch with claimable work: own deque back first, then
    /// steal other fronts. Exhausted entries are pruned in passing.
    fn find_work(&self, me: usize) -> Option<Arc<BatchState>> {
        let n = self.deques.len();
        for k in 0..n {
            let idx = (me + k) % n;
            let mut d = self.deques[idx].lock().unwrap_or_else(|p| p.into_inner());
            while d.front().is_some_and(|b| b.exhausted()) {
                d.pop_front();
            }
            while d.back().is_some_and(|b| b.exhausted()) {
                d.pop_back();
            }
            let hit = if idx == me { d.back() } else { d.front() };
            if let Some(b) = hit {
                return Some(b.clone());
            }
        }
        None
    }

    fn submit(&self, batch: Arc<BatchState>) {
        let slot = self.rr.fetch_add(1, Ordering::Relaxed) % self.deques.len();
        self.deques[slot]
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .push_back(batch);
        let mut e = self.epoch.lock().unwrap_or_else(|p| p.into_inner());
        *e = e.wrapping_add(1);
        drop(e);
        self.work_cv.notify_all();
    }
}

fn worker_loop(shared: Arc<Shared>, me: usize) {
    loop {
        let seen = *shared.epoch.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(batch) = shared.find_work(me) {
            while batch.run_one() {}
            continue;
        }
        let e = shared.epoch.lock().unwrap_or_else(|p| p.into_inner());
        if *e != seen {
            continue; // a submission raced our scan — rescan
        }
        drop(shared.work_cv.wait(e).unwrap_or_else(|p| p.into_inner()));
    }
}

fn pool() -> &'static Option<Arc<Shared>> {
    static POOL: OnceLock<Option<Arc<Shared>>> = OnceLock::new();
    POOL.get_or_init(|| {
        let threads = available_workers().saturating_sub(1);
        if threads == 0 {
            return None; // single-core host: everything runs inline
        }
        let shared = Arc::new(Shared {
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            epoch: Mutex::new(0),
            work_cv: Condvar::new(),
            rr: AtomicUsize::new(0),
        });
        for i in 0..threads {
            let s = shared.clone();
            std::thread::Builder::new()
                .name(format!("rsim-par-{i}"))
                .spawn(move || worker_loop(s, i))
                .expect("spawn pool worker");
        }
        Some(shared)
    })
}

/// Run `f(i)` for `i in 0..n` on the pool, returning when every task has
/// finished. The calling thread helps. Panics in any task are re-raised
/// here after the batch drains.
fn run_batch(n: usize, f: &(dyn Fn(usize) + Sync)) {
    debug_assert!(n >= 2, "trivial batches are inlined by the callers");
    let state = Arc::new(BatchState {
        // SAFETY: lifetime erasure. `state` may outlive `f` (workers can
        // hold handles past our return), but the pointer is only
        // dereferenced under a successful claim, and we block below
        // until all `n` claimed tasks have completed.
        run_fn: unsafe {
            std::mem::transmute::<
                *const (dyn Fn(usize) + Sync),
                *const (dyn Fn(usize) + Sync),
            >(f as *const _)
        },
        n,
        cursor: AtomicUsize::new(0),
        remaining: AtomicUsize::new(n),
        done_lock: Mutex::new(()),
        done_cv: Condvar::new(),
        panic: Mutex::new(None),
    });
    if let Some(shared) = pool() {
        shared.submit(state.clone());
        while state.run_one() {}
        state.wait_done();
    } else {
        while state.run_one() {}
    }
    let payload = state
        .panic
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .take();
    if let Some(p) = payload {
        resume_unwind(p);
    }
}

/// Raw-pointer wrapper so slot arrays can be written from pool threads.
/// Each task index touches only its own slot, so accesses never alias.
struct SendPtr<T>(*mut T);
unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor (rather than field access) so closures capture the
    /// `Sync` wrapper, not the bare raw pointer.
    fn at(&self, i: usize) -> *mut T {
        unsafe { self.0.add(i) }
    }
}

// ---------------------------------------------------------------------
// Public API (unchanged signatures).
// ---------------------------------------------------------------------

/// Run `f(0..n)` on the worker pool, preserving order. Peak concurrency
/// is bounded by [`available_workers`] no matter how large `n` is.
pub fn map_indexed<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if n <= 1 {
        return (0..n).map(f).collect();
    }
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let slots = SendPtr(out.as_mut_ptr());
    run_batch(n, &|i| {
        // SAFETY: index-exclusive slot, completion latch orders the
        // write before `out` is read below.
        unsafe { *slots.at(i) = Some(f(i)) };
    });
    out.into_iter().map(|o| o.expect("filled")).collect()
}

/// Like [`map_indexed`] but consuming owned inputs, preserving order.
pub fn map<I: Send, T: Send>(inputs: Vec<I>, f: impl Fn(I) -> T + Sync) -> Vec<T> {
    let n = inputs.len();
    if n <= 1 {
        return inputs.into_iter().map(f).collect();
    }
    let mut ins: Vec<Option<I>> = inputs.into_iter().map(Some).collect();
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let in_slots = SendPtr(ins.as_mut_ptr());
    let out_slots = SendPtr(out.as_mut_ptr());
    run_batch(n, &|i| {
        // SAFETY: index-exclusive slots on both sides.
        let input = unsafe { (*in_slots.at(i)).take().expect("input") };
        unsafe { *out_slots.at(i) = Some(f(input)) };
    });
    out.into_iter().map(|o| o.expect("filled")).collect()
}

/// Run `a` and `b` side by side on the pool; a side done early helps the other.
pub fn join<A: Send, B: Send>(
    a: impl FnOnce() -> A + Send,
    b: impl FnOnce() -> B + Send,
) -> (A, B) {
    let (mut ra, mut rb) = (None, None);
    let sides: Vec<Box<dyn FnOnce() + Send + '_>> =
        vec![Box::new(|| ra = Some(a())), Box::new(|| rb = Some(b()))];
    map(sides, |side| side());
    (ra.expect("ran"), rb.expect("ran"))
}

/// Chunked parallel-for over a mutable slice: splits `data` into at most
/// `workers` contiguous chunks and runs `f(chunk_index, chunk)` on the
/// pool. Useful for data-parallel transforms where spawn-per-element
/// would drown the work in scheduling.
pub fn chunked<T: Send>(data: &mut [T], workers: usize, f: impl Fn(usize, &mut [T]) + Sync) {
    let n = data.len();
    if n == 0 {
        return;
    }
    let workers = workers.clamp(1, n);
    if workers == 1 {
        f(0, data);
        return;
    }
    let chunk = n.div_ceil(workers);
    let parts: Vec<(usize, &mut [T])> = data.chunks_mut(chunk).enumerate().collect();
    map(parts, |(i, part)| f(i, part));
}

/// The parallelism the host offers (≥ 1): the pool's total width,
/// counting the caller thread that helps on every batch.
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    #[test]
    fn map_indexed_preserves_order() {
        let got = map_indexed(17, |i| i * i);
        assert_eq!(got, (0..17).map(|i| i * i).collect::<Vec<_>>());
        assert_eq!(map_indexed(0, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(1, |i| i + 5), vec![5]);
    }

    #[test]
    fn map_owned_preserves_order() {
        let inputs: Vec<String> = (0..9).map(|i| format!("in{i}")).collect();
        let got = map(inputs, |s| format!("{s}!"));
        assert_eq!(got[0], "in0!");
        assert_eq!(got[8], "in8!");
    }

    #[test]
    fn map_actually_runs_concurrently_somewhere() {
        let counter = AtomicUsize::new(0);
        let got = map((0..8).collect::<Vec<_>>(), |i| {
            counter.fetch_add(1, Ordering::SeqCst);
            i * 2
        });
        assert_eq!(counter.load(Ordering::SeqCst), 8);
        assert_eq!(got, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn join_returns_both_sides_and_nests() {
        let mut log = Vec::new();
        let (a, b) = join(
            || map((0..8).collect(), |i: u64| i * i).iter().sum::<u64>(),
            || {
                log.push("b");
                join(|| 1, || 2)
            },
        );
        assert_eq!((a, b, log), (140, (1, 2), vec!["b"]));
    }

    #[test]
    fn chunked_touches_every_element_once() {
        let mut data: Vec<u64> = vec![1; 1000];
        chunked(&mut data, 7, |i, part| {
            for v in part {
                *v += i as u64 * 0; // keep value, prove mutable access
                *v *= 2;
            }
        });
        assert!(data.iter().all(|&v| v == 2));
        let mut empty: Vec<u64> = vec![];
        chunked(&mut empty, 4, |_, _| panic!("must not run"));
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let _ = map_indexed(4, |i| {
            if i == 2 {
                panic!("boom");
            }
            i
        });
    }

    #[test]
    fn pool_survives_a_panicked_batch() {
        // A panic must poison neither the pool nor later batches.
        for round in 0..3 {
            let r = std::panic::catch_unwind(|| {
                map_indexed(8, |i| {
                    if i == 3 {
                        panic!("boom {round}");
                    }
                    i
                })
            });
            assert!(r.is_err());
        }
        assert_eq!(map_indexed(8, |i| i * 3), (0..8).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn workers_positive() {
        assert!(available_workers() >= 1);
    }

    #[test]
    fn thousand_items_bounded_by_worker_count() {
        // The headline fix: 1 000 items must NOT become 1 000 threads.
        // Every executing thread is either the caller or a pool worker,
        // so the distinct-thread count is bounded by available_workers().
        let seen: Mutex<HashSet<std::thread::ThreadId>> = Mutex::new(HashSet::new());
        let got = map((0..1000).collect::<Vec<_>>(), |i| {
            seen.lock().unwrap().insert(std::thread::current().id());
            i + 1
        });
        assert_eq!(got.len(), 1000);
        assert_eq!(got[999], 1000);
        let distinct = seen.lock().unwrap().len();
        assert!(
            distinct <= available_workers(),
            "peak thread count {distinct} exceeds worker bound {}",
            available_workers()
        );
    }

    #[test]
    fn nested_map_does_not_deadlock() {
        // A pool worker running an outer task submits an inner batch and
        // waits on it; caller-helps guarantees progress.
        let total: usize = map((0..16).collect::<Vec<_>>(), |i| {
            map((0..32).collect::<Vec<_>>(), move |j| i * j)
                .into_iter()
                .sum::<usize>()
        })
        .into_iter()
        .sum();
        let expect: usize = (0..16).map(|i: usize| (0..32).map(|j| i * j).sum::<usize>()).sum();
        assert_eq!(total, expect);
    }

    #[test]
    fn many_concurrent_submitters() {
        // External threads race submissions into the shared pool.
        let handles: Vec<_> = (0..8)
            .map(|t| {
                std::thread::spawn(move || {
                    map_indexed(100, move |i| t * 1000 + i).len()
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 100);
        }
    }
}
