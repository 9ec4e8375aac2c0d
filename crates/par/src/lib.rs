//! # pv-par — scoped work-stealing parallelism for the PV stack
//!
//! The potential-validity check is embarrassingly parallel: Problem PV runs
//! one independent ECPV recognizer per element node (paper Section 4), and
//! a corpus check runs one independent Problem PV per document. This crate
//! supplies the **only** parallelism primitive the workspace needs to
//! exploit that — a deterministic parallel map over a finite batch of
//! tasks — built from scratch on `std::thread::scope` (no rayon; the
//! workspace builds fully offline and never adds a registry dependency).
//!
//! ## Design
//!
//! * **Per-worker deques + stealing** (the `queue` internals): task indices
//!   are pre-seeded as contiguous blocks, owners pop from the front of
//!   their own deque, idle workers steal from the back of a victim's.
//!   Contiguous blocks keep an owner's tasks cache-local (adjacent document
//!   nodes); back-stealing takes the work the owner would reach last, so
//!   owner and thief rarely contend on the same lock.
//! * **Scoped spawn**: workers are `std::thread::scope` threads, so task
//!   closures may borrow the checker, the DTD analysis, and the documents
//!   directly — no `Arc`, no `'static` bounds, no cloning of inputs.
//! * **Deterministic result join**: each worker tags results with their
//!   task index; the caller receives `Vec<R>` in **task order** regardless
//!   of which worker ran what when. Reductions that depend on order (the
//!   checker's first-failing-node-in-document-order rule) stay exact.
//! * **Panic transparency**: a panicking task propagates to the caller
//!   after all workers have been joined, like the sequential loop would.
//! * **Two-level grouped regions** ([`map_grouped_with`]): tasks organized
//!   as groups (a batch's documents) are stolen group-first, and idle
//!   workers *join* a started group's remaining index range — the
//!   cross-document pipelining a batch mixing one giant document with
//!   many small ones needs.
//! * **A worker cap for servers** ([`Pool`]): a handle, not a runtime. It
//!   caps how many workers one region may use and runs a resident
//!   service's regions one at a time, so concurrent requests never run
//!   more than the cap's worth of workers. The regions themselves run on
//!   the scoped maps above — there is one scheduler.
//!
//! ## Quick start
//!
//! ```
//! // Square 0..100 on 4 workers; results come back in index order.
//! let squares = pv_par::map_indexed(4, 100, |i| i * i);
//! assert_eq!(squares[7], 49);
//!
//! // Borrowing inputs needs no Arc — spawn is scoped.
//! let words = ["potential", "validity"];
//! let lens = pv_par::map(2, &words, |w| w.len());
//! assert_eq!(lens, vec![9, 8]);
//! ```

#![warn(missing_docs)]

mod pool;
mod queue;

pub use pool::Pool;
use queue::{GroupCounters, GroupQueues, StealQueues};
use std::sync::atomic::{AtomicU64, Ordering};

/// Resolves a `jobs` request to a worker count: `0` means "one worker per
/// available CPU" (`std::thread::available_parallelism`, falling back to 1
/// when the OS will not say); any other value is taken literally.
///
/// Every `jobs` parameter in the workspace (`PvChecker::
/// check_document_parallel`, `pvx --jobs`, …) funnels through this.
pub fn effective_jobs(requested: usize) -> usize {
    if requested != 0 {
        requested
    } else {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    }
}

/// Work distribution counters for one parallel region, for tests and
/// benchmarks that want to see the stealing actually happen.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Tasks executed by each worker (summing to the region's task count).
    pub executed_per_worker: Vec<u64>,
    /// Successful steals (tasks — or, in a grouped region, whole groups —
    /// a worker took from another's deque).
    pub steals: u64,
    /// Grouped regions only: times an idle worker joined the index range
    /// of a group another worker had already started (the two-level
    /// scheduler's "split a large document when idle" path).
    pub group_joins: u64,
}

/// Parallel map over the index range `0..len`: runs `f(i)` for every `i`
/// on `jobs` workers (see [`effective_jobs`]) and returns the results in
/// index order.
///
/// `jobs <= 1` (or a region of at most one task) degenerates to the plain
/// sequential loop on the calling thread — same results, zero threads.
pub fn map_indexed<R, F>(jobs: usize, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_indexed_stats(jobs, len, f).0
}

/// [`map_indexed`] with **per-worker state**: every worker calls `init()`
/// once when it starts and threads the resulting value mutably through all
/// the tasks it executes (`f(&mut state, i)`).
///
/// This exists for reusable scratch buffers (the checker's recognizer
/// scratch, a memo probe buffer): allocating them per *task* would defeat
/// their purpose, and sharing one across workers would need locking. The
/// determinism contract is unchanged — results come back in task order —
/// but note that *which* tasks share a state value depends on scheduling,
/// so `f` must not let the state influence its result (scratch, caches of
/// pure computations, and counters folded elsewhere are all fine).
///
/// The sequential fallback (`jobs <= 1` or a 0/1-task region) builds one
/// state and runs the plain loop on the calling thread.
pub fn map_indexed_with<S, R, I, F>(jobs: usize, len: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    map_indexed_with_stats(jobs, len, init, f).0
}

/// [`map_indexed`], also reporting how the work spread over the workers.
pub fn map_indexed_stats<R, F>(jobs: usize, len: usize, f: F) -> (Vec<R>, PoolStats)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_indexed_with_stats(jobs, len, || (), |(), i| f(i))
}

/// [`map_indexed_with`], also reporting how the work spread over the
/// workers.
pub fn map_indexed_with_stats<S, R, I, F>(
    jobs: usize,
    len: usize,
    init: I,
    f: F,
) -> (Vec<R>, PoolStats)
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let workers = effective_jobs(jobs).min(len.max(1));
    if workers <= 1 {
        let mut state = init();
        let out: Vec<R> = (0..len).map(|i| f(&mut state, i)).collect();
        return (
            out,
            PoolStats { executed_per_worker: vec![len as u64], steals: 0, group_joins: 0 },
        );
    }

    let queues = StealQueues::split(workers, len);
    let steals = AtomicU64::new(0);
    let mut slots: Vec<Option<R>> = Vec::with_capacity(len);
    slots.resize_with(len, || None);
    let mut executed = vec![0u64; workers];

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queues = &queues;
                let steals = &steals;
                let init = &init;
                let f = &f;
                s.spawn(move || {
                    let mut state = init();
                    let mut out: Vec<(usize, R)> = Vec::new();
                    while let Some(i) = queues.next(w, steals) {
                        out.push((i, f(&mut state, i)));
                    }
                    out
                })
            })
            .collect();
        for (w, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(pairs) => {
                    executed[w] = pairs.len() as u64;
                    for (i, r) in pairs {
                        debug_assert!(slots[i].is_none(), "task {i} executed twice");
                        slots[i] = Some(r);
                    }
                }
                // Propagate the task's panic; `thread::scope` has already
                // joined (or will join) the remaining workers.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    let out: Vec<R> =
        slots.into_iter().map(|r| r.expect("every task index executed exactly once")).collect();
    (
        out,
        PoolStats {
            executed_per_worker: executed,
            steals: steals.load(Ordering::Relaxed),
            group_joins: 0,
        },
    )
}

/// Two-level parallel map over **groups** of tasks: `sizes[g]` is the task
/// count of group `g`, and the result is one `Vec<R>` per group with
/// `out[g][i] == f(state, g, i)`, in order.
///
/// Scheduling is group-first (the cross-document pipelining scheme):
/// whole groups are seeded over the workers' deques and stolen whole, and
/// only a worker that finds no unstarted group anywhere *joins* a started
/// group's remaining index range, claiming chunks of it. A batch mixing
/// one giant group with many small ones therefore drains the small ones
/// as cache-local units while the giant one ends up shared — without ever
/// paying per-task locking for well-balanced batches.
///
/// Like [`map_indexed_with`], `init` builds one per-worker state threaded
/// through all tasks that worker claims, and `jobs <= 1` (or a region of
/// at most one task) degenerates to the plain nested loop.
pub fn map_grouped_with<S, R, I, F>(jobs: usize, sizes: &[usize], init: I, f: F) -> Vec<Vec<R>>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, usize) -> R + Sync,
{
    map_grouped_with_stats(jobs, sizes, init, f).0
}

/// [`map_grouped_with`], also reporting how the work spread over the
/// workers (including group steals and joins).
pub fn map_grouped_with_stats<S, R, I, F>(
    jobs: usize,
    sizes: &[usize],
    init: I,
    f: F,
) -> (Vec<Vec<R>>, PoolStats)
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, usize) -> R + Sync,
{
    let total: usize = sizes.iter().sum();
    let workers = effective_jobs(jobs).min(total.max(1));
    if workers <= 1 {
        let mut state = init();
        let out: Vec<Vec<R>> = sizes
            .iter()
            .enumerate()
            .map(|(g, &len)| (0..len).map(|i| f(&mut state, g, i)).collect())
            .collect();
        return (
            out,
            PoolStats { executed_per_worker: vec![total as u64], steals: 0, group_joins: 0 },
        );
    }

    let queues = GroupQueues::split(workers, sizes);
    let counters = GroupCounters::new();
    let mut slots: Vec<Vec<Option<R>>> = sizes
        .iter()
        .map(|&len| {
            let mut v = Vec::with_capacity(len);
            v.resize_with(len, || None);
            v
        })
        .collect();
    let mut executed = vec![0u64; workers];

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let queues = &queues;
                let counters = &counters;
                let init = &init;
                let f = &f;
                s.spawn(move || {
                    let mut state = init();
                    let mut out: Vec<(usize, usize, R)> = Vec::new();
                    queues.drain(w, counters, |g, i| out.push((g, i, f(&mut state, g, i))));
                    out
                })
            })
            .collect();
        for (w, handle) in handles.into_iter().enumerate() {
            match handle.join() {
                Ok(triples) => {
                    executed[w] = triples.len() as u64;
                    for (g, i, r) in triples {
                        debug_assert!(slots[g][i].is_none(), "task ({g}, {i}) executed twice");
                        slots[g][i] = Some(r);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    let out: Vec<Vec<R>> = slots
        .into_iter()
        .map(|group| {
            group
                .into_iter()
                .map(|r| r.expect("every grouped task executed exactly once"))
                .collect()
        })
        .collect();
    (
        out,
        PoolStats {
            executed_per_worker: executed,
            steals: counters.steals.load(Ordering::Relaxed),
            group_joins: counters.joins.load(Ordering::Relaxed),
        },
    )
}

/// Parallel map over a slice: `map(jobs, items, f)[i] == f(&items[i])`,
/// computed on `jobs` workers. See [`map_indexed`] for the semantics.
pub fn map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    map_indexed(jobs, items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::time::Duration;

    #[test]
    fn matches_sequential_for_all_job_counts() {
        let expect: Vec<usize> = (0..257).map(|i| i * 3 + 1).collect();
        for jobs in [0, 1, 2, 3, 8, 300] {
            assert_eq!(map_indexed(jobs, 257, |i| i * 3 + 1), expect, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_regions() {
        assert_eq!(map_indexed(8, 0, |i| i), Vec::<usize>::new());
        assert_eq!(map_indexed(8, 1, |i| i + 41), vec![41]);
    }

    #[test]
    fn slice_map_borrows_without_arc() {
        let items = vec!["a".to_owned(), "bb".to_owned(), "ccc".to_owned()];
        assert_eq!(map(2, &items, |s| s.len()), vec![1, 2, 3]);
    }

    #[test]
    fn per_worker_state_is_built_once_per_worker_and_reused() {
        // Scratch semantics: results must not depend on the state, but the
        // state must visibly persist across the tasks one worker runs.
        for jobs in [0, 1, 2, 4] {
            let (out, stats) = map_indexed_with_stats(
                jobs,
                100,
                Vec::<usize>::new,
                |scratch, i| {
                    scratch.push(i); // grows across this worker's tasks
                    i * 2
                },
            );
            assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>(), "jobs={jobs}");
            assert_eq!(stats.executed_per_worker.iter().sum::<u64>(), 100);
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counters: Vec<AtomicUsize> = (0..500).map(|_| AtomicUsize::new(0)).collect();
        map_indexed(4, 500, |i| counters[i].fetch_add(1, Ordering::Relaxed));
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn unbalanced_load_triggers_stealing() {
        // The first worker's whole block is slow; the rest are instant.
        // Even on a single-CPU host the OS interleaves the workers, so the
        // fast ones drain their blocks and then steal from the slow one.
        let (out, stats) = map_indexed_stats(4, 64, |i| {
            if i < 16 {
                std::thread::sleep(Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..64).collect::<Vec<_>>());
        assert_eq!(stats.executed_per_worker.iter().sum::<u64>(), 64);
        assert!(stats.steals > 0, "expected steals, got {stats:?}");
    }

    #[test]
    fn workers_capped_by_task_count() {
        let (_, stats) = map_indexed_stats(16, 3, |i| i);
        assert_eq!(stats.executed_per_worker.len(), 3);
    }

    #[test]
    fn grouped_map_matches_sequential_for_all_job_counts() {
        let sizes = [5usize, 0, 33, 1, 12];
        let expect: Vec<Vec<usize>> = sizes
            .iter()
            .enumerate()
            .map(|(g, &len)| (0..len).map(|i| g * 100 + i).collect())
            .collect();
        for jobs in [0usize, 1, 2, 3, 8] {
            let out = map_grouped_with(jobs, &sizes, || (), |(), g, i| g * 100 + i);
            assert_eq!(out, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn grouped_map_empty_and_degenerate() {
        assert_eq!(map_grouped_with(4, &[], || (), |(), g, i| (g, i)), Vec::<Vec<(usize, usize)>>::new());
        let out = map_grouped_with(4, &[0, 0], || (), |(), g, i| (g, i));
        assert_eq!(out, vec![Vec::new(), Vec::new()]);
    }

    #[test]
    fn grouped_map_mixed_batch_pipelines() {
        // One giant slow group among small ones: the counters must show
        // the idle workers joining the giant group's range.
        let sizes = [2000usize, 8, 8, 8];
        let (out, stats) = map_grouped_with_stats(4, &sizes, || (), |(), g, i| {
            if g == 0 {
                std::thread::sleep(Duration::from_micros(20));
            }
            g + i
        });
        assert_eq!(out[0].len(), 2000);
        assert_eq!(stats.executed_per_worker.iter().sum::<u64>(), 2024);
        assert!(stats.group_joins > 0, "expected range joins, got {stats:?}");
    }

    #[test]
    fn effective_jobs_resolution() {
        assert_eq!(effective_jobs(5), 5);
        assert!(effective_jobs(0) >= 1);
    }

    #[test]
    fn panics_propagate() {
        let result = std::panic::catch_unwind(|| {
            map_indexed(4, 32, |i| {
                if i == 17 {
                    panic!("boom at 17");
                }
                i
            })
        });
        assert!(result.is_err());
    }
}
