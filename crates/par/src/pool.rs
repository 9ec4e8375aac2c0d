//! The [`Pool`] handle: a shared worker cap for resident services.
//!
//! A server checks documents for many connections at once. Each parallel
//! check runs on the crate's scoped work-stealing maps
//! ([`crate::map_indexed_with`], [`crate::map_grouped_with`]), which spawn
//! their workers for the region and join them before returning, so tasks
//! borrow the caller's state directly. What a server needs on top of that
//! is a bound: without one, every connection thread could open a region
//! of its own and the process would run `connections × jobs` threads.
//!
//! [`Pool`] is that bound and nothing more. It holds
//!
//! * a **worker cap** — the most workers one region may use
//!   ([`Pool::participants`] clamps a request's `jobs` to it);
//! * a **region lock** — [`Pool::region`] runs one region at a time, so
//!   the process never runs more parallel workers than the cap;
//! * **region telemetry** (`pv_pool_*`), recorded once per region.
//!
//! It owns no threads: constructing a pool spawns nothing, and a region's
//! workers exist only while the region runs.
//!
//! ```
//! let pool = pv_par::Pool::new(2);
//! let data: Vec<u64> = (0..100).collect();
//! let jobs = pool.participants(0); // 0 = the whole cap
//! let doubled = pool.region(data.len(), || {
//!     pv_par::map_indexed(jobs, data.len(), |i| data[i] * 2)
//! });
//! assert_eq!(doubled[7], 14);
//! ```
//!
//! A task panic propagates out of [`Pool::region`] to its caller, and the
//! pool stays usable: the region lock tolerates poisoning, so a panicking
//! request cannot wedge the requests after it.

use pv_obs::{Counter, Histogram, Registry};
use std::sync::{Mutex, PoisonError};

/// The pool's metric handles — all no-ops unless the pool was built with
/// [`Pool::new_observed`]. Recorded once per region, never per task.
#[derive(Default, Clone)]
struct PoolObs {
    /// Regions run.
    regions: Counter,
    /// Tasks across all regions, as reported by the region's caller.
    tasks: Counter,
    /// Region wall-clock, lock acquired to region done, microseconds.
    region_us: Histogram,
    /// Tasks per region (the pool's queue-depth signal).
    region_tasks: Histogram,
}

impl PoolObs {
    fn registered(reg: &Registry) -> PoolObs {
        PoolObs {
            regions: reg.counter("pv_pool_regions_total"),
            tasks: reg.counter("pv_pool_tasks_total"),
            region_us: reg.histogram("pv_pool_region_us"),
            region_tasks: reg.histogram("pv_pool_region_tasks"),
        }
    }
}

/// A worker cap shared by the parallel regions of a resident service.
/// See the module docs at the top of this file for the model.
pub struct Pool {
    workers: usize,
    /// Held for the duration of each region: regions run one at a time.
    region: Mutex<()>,
    obs: PoolObs,
}

impl Pool {
    /// A pool capping regions at [`crate::effective_jobs`]`(jobs)`
    /// workers (`0` = one per available CPU).
    pub fn new(jobs: usize) -> Pool {
        Self::new_observed(jobs, &Registry::disabled())
    }

    /// [`Pool::new`], recording pool telemetry (`pv_pool_*`: regions,
    /// tasks, region wall-clock and size histograms) into `registry`. A
    /// disabled registry makes this identical to [`Pool::new`] — every
    /// handle is a no-op.
    pub fn new_observed(jobs: usize, registry: &Registry) -> Pool {
        Pool {
            workers: crate::effective_jobs(jobs).max(1),
            region: Mutex::new(()),
            obs: PoolObs::registered(registry),
        }
    }

    /// The worker cap: the most workers one region may use.
    #[inline]
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Resolves a region's `jobs` cap to an actual participant count:
    /// `0` means every pool worker, anything else is clamped to the pool
    /// size. The engine layer uses this for its sequential-fallback
    /// decision, so the rule lives in exactly one place.
    pub fn participants(&self, jobs: usize) -> usize {
        if jobs == 0 {
            self.workers
        } else {
            jobs.min(self.workers)
        }
    }

    /// Runs one parallel region: waits for the regions ahead of it, runs
    /// `f` (which should fan out over at most [`Pool::participants`]
    /// workers), and records the region's wall-clock and its `tasks`
    /// count. A panic in `f` propagates to the caller, unrecorded, and
    /// leaves the pool usable.
    pub fn region<R>(&self, tasks: usize, f: impl FnOnce() -> R) -> R {
        // The lock guards no data, so a lock poisoned by a panicking
        // region is safe to take over.
        let _turn = self.region.lock().unwrap_or_else(PoisonError::into_inner);
        let t0 = self.obs.region_us.start();
        let out = f();
        self.obs.region_us.observe_since(t0);
        self.obs.regions.inc();
        self.obs.tasks.add(tasks as u64);
        self.obs.region_tasks.observe(tasks as u64);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn participants_clamp_to_the_cap() {
        let pool = Pool::new(4);
        assert_eq!(pool.workers(), 4);
        assert_eq!(pool.participants(0), 4);
        assert_eq!(pool.participants(2), 2);
        assert_eq!(pool.participants(9), 4);
        assert!(Pool::new(0).workers() >= 1);
    }

    #[test]
    fn region_panic_propagates_and_pool_survives() {
        let pool = Pool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.region(32, || {
                crate::map_indexed(2, 32, |i| {
                    if i == 17 {
                        panic!("boom at 17");
                    }
                    i
                })
            })
        }));
        assert!(result.is_err());
        // The poisoned region lock is taken over by the next region.
        let out = pool.region(8, || crate::map_indexed(2, 8, |i| i + 1));
        assert_eq!(out, (1..9).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_regions_run_one_at_a_time() {
        let pool = Pool::new(2);
        let inside = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let (pool, inside) = (&pool, &inside);
                s.spawn(move || {
                    for round in 0..8 {
                        let base = t * 1000 + round;
                        let out = pool.region(50, || {
                            assert_eq!(inside.fetch_add(1, Ordering::SeqCst), 0);
                            let out = crate::map_indexed(2, 50, |i| base + i);
                            inside.fetch_sub(1, Ordering::SeqCst);
                            out
                        });
                        assert_eq!(out, (base..base + 50).collect::<Vec<_>>());
                    }
                });
            }
        });
    }

    #[test]
    fn observed_pool_records_region_telemetry() {
        let reg = Registry::new();
        let pool = Pool::new_observed(2, &reg);
        pool.region(100, || ());
        pool.region(7, || ());
        let snap = reg.snapshot();
        assert_eq!(snap.counters["pv_pool_regions_total"], 2);
        assert_eq!(snap.counters["pv_pool_tasks_total"], 107);
        assert_eq!(snap.histograms["pv_pool_region_tasks"].count, 2);
        assert_eq!(snap.histograms["pv_pool_region_tasks"].max, 100);
        assert_eq!(snap.histograms["pv_pool_region_us"].count, 2);
    }
}
