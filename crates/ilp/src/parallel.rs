//! An ordered fan-out over scoped threads.
//!
//! [`par_map_ordered`] maps a function over a slice on up to as many
//! threads as the machine offers and returns the results in item order, so
//! a caller that folds them in that order computes what the sequential loop
//! computes. The calling thread is one of the workers. A fan-out started
//! from a worker of another fan-out that runs on more than one thread runs
//! inline, so nested fan-outs never ask for more threads than cores: the
//! job service's workers and the benchmark harness's per-circuit workers
//! already keep the cores busy, and the strong-branching probes of a solve
//! they run stay on their thread. A one-core host (or a process pinned to
//! one core) runs every fan-out as the plain loop.
//!
//! Inside the crate, `par_map_ordered_with` hands each worker a state of
//! its own from a slice the caller owns. The solver keeps its probe buffers
//! there: they are allocated on the searching thread, so a helper thread
//! writes only into memory that thread's allocator handed out.
//!
//! The second core has two users inside one solve. A node at
//! strong-branching depth fans its probes out here and hands the solve's
//! speculation helper ([`crate::speculate`]) nothing; every other LP node
//! hands the helper the next open node's LP. The helper is a thread that
//! lives from the solve's first task to its end, and it starts only where
//! [`fan_out_workers`] grants a fan-out of two, so a solve inside another
//! fan-out (a job-service worker, the harness's per-circuit workers) or on
//! one core runs alone.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Whether this thread is a worker of a fan-out that runs on more than
    /// one thread.
    static IN_FAN_OUT: Cell<bool> = const { Cell::new(false) };
}

/// The threads this process may run on, read once.
fn available_threads() -> usize {
    static THREADS: OnceLock<usize> = OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The workers a fan-out over `items` items uses with at most
/// `max_workers`: one inside another parallel fan-out, otherwise the
/// smallest of the available threads, `max_workers` and `items` (at least
/// one).
pub(crate) fn fan_out_workers(items: usize, max_workers: usize) -> usize {
    if IN_FAN_OUT.get() {
        return 1;
    }
    available_threads().min(max_workers).min(items).max(1)
}

/// Maps `f` over `items` and returns the results in item order,
/// independent of scheduling. It runs on the calling thread and up to
/// `max_workers - 1` helper threads, further capped at the threads the
/// process may run on and the item count; inside a worker of another
/// parallel fan-out it runs inline. With one worker this is exactly the
/// sequential loop on the calling thread. The job service passes its
/// worker cap, the benchmark harness's per-circuit fan-out `usize::MAX`.
///
/// # Panics
///
/// Re-raises the first panic of `f`, with its payload, on the calling
/// thread once every worker has stopped.
pub fn par_map_ordered<T, R, F>(items: &[T], max_workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let mut workers = vec![(); fan_out_workers(items.len(), max_workers)];
    par_map_ordered_with(items, &mut workers, |_: &mut (), item| f(item))
}

/// [`par_map_ordered`] with one state per worker: `states[0]` goes to the
/// calling thread and each further state to one helper thread, on at most
/// [`fan_out_workers`]`(items.len(), states.len())` workers. Each call of
/// `f` gets the state of the worker that runs it.
///
/// # Panics
///
/// Panics if `states` is empty while `items` is not, and re-raises the
/// first panic of `f` as [`par_map_ordered`] does.
pub(crate) fn par_map_ordered_with<S, T, R, F>(items: &[T], states: &mut [S], f: F) -> Vec<R>
where
    S: Send,
    T: Sync,
    R: Send,
    F: Fn(&mut S, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let workers = fan_out_workers(items.len(), states.len());
    let (own, helpers) = states[..workers]
        .split_first_mut()
        .expect("a fan-out needs at least one worker state");
    if helpers.is_empty() {
        return items.iter().map(|item| f(own, item)).collect();
    }
    // The counter only hands out indices: results reach the caller through
    // the slots' mutexes and the joins, so `Relaxed` suffices.
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    // Claims items until none is left. A panic stops every worker from
    // claiming more and is handed back to be re-raised on the caller.
    let work = |state: &mut S| -> Result<(), Box<dyn Any + Send>> {
        let nested = IN_FAN_OUT.replace(true);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            let result = f(state, item);
            *slots[i].lock().expect("result slot poisoned") = Some(result);
        }));
        IN_FAN_OUT.set(nested);
        if outcome.is_err() {
            next.store(items.len(), Ordering::Relaxed);
        }
        outcome
    };
    let panicked = std::thread::scope(|scope| {
        let handles: Vec<_> = helpers
            .iter_mut()
            .map(|state| scope.spawn(|| work(state)))
            .collect();
        let mut panicked = work(own).err();
        for handle in handles {
            let outcome = handle.join().expect("a worker's panic is caught");
            panicked = panicked.or(outcome.err());
        }
        panicked
    });
    if let Some(payload) = panicked {
        panic::resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every item ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;
    use std::thread;

    /// The message of a panic payload.
    fn message(payload: &(dyn Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("no message")
    }

    #[test]
    fn results_come_back_in_item_order_on_one_and_on_many_workers() {
        let items: Vec<u64> = (0..97).collect();
        let square = |&i: &u64| {
            // Uneven work, so the workers finish out of order.
            std::hint::black_box((0..(i * 7919) % 5000).sum::<u64>());
            i * i
        };
        let expected: Vec<u64> = items.iter().map(|i| i * i).collect();
        for workers in [1, 2, 4, usize::MAX] {
            assert_eq!(par_map_ordered(&items, workers, square), expected);
        }
        assert!(par_map_ordered(&[] as &[u64], 4, square).is_empty());
    }

    #[test]
    fn the_calling_thread_is_one_of_the_workers() {
        if fan_out_workers(2, 2) < 2 {
            return;
        }
        // Each item waits for the other, so two workers must run them.
        let barrier = Barrier::new(2);
        let ids = par_map_ordered(&[0, 1], 2, |_| {
            barrier.wait();
            thread::current().id()
        });
        assert_ne!(ids[0], ids[1]);
        assert!(ids.contains(&thread::current().id()));
    }

    #[test]
    fn each_worker_keeps_its_own_state() {
        let items: Vec<usize> = (0..64).collect();
        let mut states = vec![Vec::new(); 4];
        let doubled = par_map_ordered_with(&items, &mut states, |seen: &mut Vec<usize>, &i| {
            seen.push(i);
            2 * i
        });
        assert_eq!(doubled, items.iter().map(|i| 2 * i).collect::<Vec<_>>());
        // Every item was handed to exactly one worker's state.
        let mut seen: Vec<usize> = states.concat();
        seen.sort_unstable();
        assert_eq!(seen, items);
    }

    #[test]
    fn a_panicking_item_re_raises_its_payload_on_the_caller() {
        let items: Vec<usize> = (0..32).collect();
        for workers in [1, 2, 4] {
            let caught = panic::catch_unwind(|| {
                par_map_ordered(&items, workers, |&i| {
                    if i == 17 {
                        panic!("item {i} failed");
                    }
                    i
                })
            })
            .expect_err("the panic reaches the caller");
            assert_eq!(message(caught.as_ref()), "item 17 failed");
            // The caller is not left marked as a fan-out worker.
            assert!(!IN_FAN_OUT.get());
            assert_eq!(par_map_ordered(&items, workers, |&i| i), items);
        }
    }

    #[test]
    fn a_nested_fan_out_runs_inline_on_its_worker() {
        let outer: Vec<usize> = (0..8).collect();
        let inner: Vec<usize> = (0..8).collect();
        let runs = par_map_ordered(&outer, usize::MAX, |_| {
            let ids = par_map_ordered(&inner, usize::MAX, |_| thread::current().id());
            (thread::current().id(), ids)
        });
        for (worker, ids) in runs {
            assert!(ids.iter().all(|&id| id == worker));
        }
        // A one-worker fan-out is the plain loop, so a fan-out inside it
        // may still use every thread.
        let widths = par_map_ordered(&outer, 1, |_| fan_out_workers(8, usize::MAX));
        assert!(widths.iter().all(|&w| w == available_threads().min(8)));
    }
}
