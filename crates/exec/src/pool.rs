//! A fixed-size worker pool emulating Ray actors.
//!
//! The pool's thread count is the emulated core count: at most `size` tasks
//! run concurrently, just as at most `cores` UDFs run concurrently on the
//! paper's machines ("the number of duplicate actors is based on the number
//! of logical cores", §5.1).

use crossbeam::channel::{unbounded, Sender};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;

use crate::promise::Promise;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A pool of up to `size` worker threads consuming submitted jobs FIFO.
///
/// The long-lived channel workers spawn **lazily** on the first
/// [`submit`](Self::submit): a pool used only for the scoped scatter-gather
/// APIs ([`par_map`](Self::par_map) / [`scope`](Self::scope)) never spawns a
/// persistent thread at all (the offline phase is such a user — its workers
/// are scoped to each step).
#[derive(Debug)]
pub struct ActorPool {
    size: usize,
    channel: Mutex<ChannelWorkers>,
}

/// The lazily-spawned long-lived half of the pool.
#[derive(Debug, Default)]
struct ChannelWorkers {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    shut_down: bool,
}

impl ActorPool {
    /// Create a pool of `size` workers (the emulated core count).
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "pool needs at least one worker");
        Self {
            size,
            channel: Mutex::new(ChannelWorkers::default()),
        }
    }

    /// Number of workers (the emulated core count).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Long-lived worker threads currently alive (0 until the first
    /// [`submit`](Self::submit), and again after [`shutdown`](Self::shutdown);
    /// scoped [`par_map`](Self::par_map)/[`scope`](Self::scope) workers are
    /// never counted because they end with their call).
    pub fn active_workers(&self) -> usize {
        self.channel.lock().expect("pool poisoned").workers.len()
    }

    /// Submit a job; returns a [`Promise`] for its result.
    ///
    /// # Panics
    /// Panics if the pool was shut down.
    pub fn submit<T, F>(&self, f: F) -> Promise<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (promise, resolver) = Promise::pair();
        let job: Job = Box::new(move || {
            let value = f();
            let _ = resolver.resolve(value);
        });
        let mut channel = self.channel.lock().expect("pool poisoned");
        assert!(!channel.shut_down, "pool already shut down");
        if channel.tx.is_none() {
            let (tx, rx) = unbounded::<Job>();
            channel.workers = (0..self.size)
                .map(|i| {
                    let rx = rx.clone();
                    std::thread::Builder::new()
                        .name(format!("vetl-actor-{i}"))
                        .spawn(move || {
                            while let Ok(job) = rx.recv() {
                                job();
                            }
                        })
                        .expect("failed to spawn pool worker")
                })
                .collect();
            channel.tx = Some(tx);
        }
        channel
            .tx
            .as_ref()
            .expect("workers just spawned")
            .send(job)
            .expect("pool workers exited unexpectedly");
        promise
    }

    /// Submit many jobs and wait for all results, in submission order.
    pub fn map_wait<T, F>(&self, jobs: Vec<F>) -> Vec<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let promises: Vec<Promise<T>> = jobs.into_iter().map(|f| self.submit(f)).collect();
        promises.into_iter().map(Promise::wait).collect()
    }

    /// Scoped scatter-gather: apply `f` to every item of `items`, fanning out
    /// across up to [`size`](Self::size) workers, and gather the results in
    /// input order.
    ///
    /// Unlike [`submit`](Self::submit), the closure and items only need to
    /// live for the duration of the call: the workers are fresh scoped
    /// threads (not the long-lived channel workers, which cannot run
    /// borrowed jobs), bounded by the pool size, so `f` may borrow from the
    /// caller's stack. Work is distributed through a shared atomic cursor —
    /// each scoped worker claims the next unclaimed index — which balances
    /// heterogeneous item costs. Results are position-addressed, so the
    /// output order — and therefore any seed-derived determinism in `f` —
    /// is independent of scheduling.
    ///
    /// Concurrency accounting: a `par_map` in flight uses its own up-to-size
    /// worker set. Interleaving it with [`submit`](Self::submit) jobs on the
    /// same pool can therefore run up to `2 × size` tasks at once; the
    /// offline phase avoids this by only ever using the scoped APIs.
    ///
    /// # Panics
    /// Propagates the first panic raised inside `f`.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let workers = self.size().min(n);
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = f(i, &items[i]);
                    *slots[i].lock().expect("result slot poisoned") = Some(r);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker filled every slot")
            })
            .collect()
    }

    /// Statically sharded scatter-gather over **mutable** items: the slice
    /// is split into up to [`size`](Self::size) contiguous shards, one
    /// scoped worker per shard, and each worker gets exclusive `&mut`
    /// access to its shard's items. Results come back in input order.
    ///
    /// Unlike [`par_map`](Self::par_map) there is no work-stealing cursor:
    /// the item→shard assignment is a pure function of index and shard
    /// count, so stateful items are never touched by two workers and the
    /// per-item results are independent of scheduling. Shard `s` of `k`
    /// owns the balanced contiguous range `[s·n/k, (s+1)·n/k)`, so item
    /// `i` of `n` lands on shard `⌈k·(i+1)/n⌉ − 1`.
    ///
    /// Nothing here is long-lived: every call with more than one shard
    /// spawns fresh scoped threads and joins them before it returns, so a
    /// caller pays the spawn on each call — the ingest runtime on every
    /// batch dispatch. A spawn-and-join of two scoped threads costs about
    /// 30 µs (27–35 µs, best of 2 000 calls) on a 2-vCPU Intel Xeon VM,
    /// eight threads about 110–145 µs.
    ///
    /// # Panics
    /// Propagates the first panic raised inside `f`.
    pub fn shard_map_mut<T, R, F>(&self, items: &mut [T], f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let n = items.len();
        if n == 0 {
            return Vec::new();
        }
        let shards = self.size().min(n);
        if shards <= 1 {
            return items.iter_mut().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        // Balanced contiguous ranges: shard s covers [s*n/shards, (s+1)*n/shards).
        let mut results: Vec<Vec<R>> = Vec::with_capacity(shards);
        std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(shards);
            let mut rest = items;
            let mut offset = 0;
            for s in 0..shards {
                let end = (s + 1) * n / shards;
                let (chunk, tail) = rest.split_at_mut(end - offset);
                rest = tail;
                let base = offset;
                offset = end;
                let f = &f;
                handles.push(scope.spawn(move || {
                    chunk
                        .iter_mut()
                        .enumerate()
                        .map(|(i, t)| f(base + i, t))
                        .collect::<Vec<R>>()
                }));
            }
            for h in handles {
                match h.join() {
                    Ok(r) => results.push(r),
                    // Remaining shard workers are joined by the scope exit.
                    Err(p) => std::panic::resume_unwind(p),
                }
            }
        });
        results.into_iter().flatten().collect()
    }

    /// Run `f` with a [`PoolScope`] through which ad-hoc tasks can be
    /// spawned that borrow from the caller's stack. At most
    /// [`size`](Self::size) spawned tasks *run* concurrently (a semaphore
    /// gates execution), preserving the pool's core-count emulation. All
    /// tasks are joined before `scope` returns.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: for<'scope> FnOnce(&PoolScope<'scope, 'env>) -> R,
    {
        let permits = std::sync::Arc::new(Semaphore::new(self.size()));
        std::thread::scope(|s| f(&PoolScope { scope: s, permits }))
    }
}

/// Handle passed to the closure of [`ActorPool::scope`].
pub struct PoolScope<'scope, 'env: 'scope> {
    scope: &'scope std::thread::Scope<'scope, 'env>,
    permits: std::sync::Arc<Semaphore>,
}

impl<'scope, 'env> PoolScope<'scope, 'env> {
    /// Spawn a task inside the scope. The task blocks on a pool permit
    /// before running, so no more than the pool's worker count execute at
    /// once. Returns the standard scoped join handle.
    pub fn spawn<T, F>(&self, f: F) -> std::thread::ScopedJoinHandle<'scope, T>
    where
        T: Send + 'scope,
        F: FnOnce() -> T + Send + 'scope,
    {
        let permits = std::sync::Arc::clone(&self.permits);
        self.scope.spawn(move || {
            let _permit = permits.acquire();
            f()
        })
    }
}

/// Counting semaphore gating scoped-task execution to the pool size.
#[derive(Debug)]
struct Semaphore {
    count: Mutex<usize>,
    freed: Condvar,
}

struct Permit<'a>(&'a Semaphore);

impl Semaphore {
    fn new(count: usize) -> Self {
        Self {
            count: Mutex::new(count),
            freed: Condvar::new(),
        }
    }

    fn acquire(&self) -> Permit<'_> {
        let mut count = self.count.lock().expect("semaphore poisoned");
        while *count == 0 {
            count = self.freed.wait(count).expect("semaphore poisoned");
        }
        *count -= 1;
        Permit(self)
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        *self.0.count.lock().expect("semaphore poisoned") += 1;
        self.0.freed.notify_one();
    }
}

impl ActorPool {
    /// Close the submission channel and join every spawned worker, so tests
    /// and benches never leak `vetl-actor-*` threads. Called by `Drop`;
    /// callable explicitly when deterministic teardown ordering matters
    /// (e.g. before asserting on thread counts). Idempotent; subsequent
    /// [`submit`](Self::submit) calls panic.
    pub fn shutdown(&mut self) {
        let mut channel = self.channel.lock().expect("pool poisoned");
        channel.shut_down = true;
        // Closing the channel terminates the workers after draining.
        drop(channel.tx.take());
        for w in channel.workers.drain(..) {
            // A worker that panicked already unwound; the pool must still
            // reap the remaining ones rather than leak them.
            let _ = w.join();
        }
    }
}

impl Drop for ActorPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    #[test]
    fn submit_returns_result() {
        let pool = ActorPool::new(2);
        let p = pool.submit(|| 6 * 7);
        assert_eq!(p.wait(), 42);
    }

    #[test]
    fn map_wait_preserves_order() {
        let pool = ActorPool::new(4);
        let jobs: Vec<_> = (0..16).map(|i| move || i * i).collect();
        let out = pool.map_wait(jobs);
        assert_eq!(out, (0..16).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn pool_size_limits_parallelism() {
        // With 2 workers and 4 × 50 ms sleeps, wall time must be ≥ 100 ms
        // (two waves), clearly below the 200 ms a serial run would take.
        let pool = ActorPool::new(2);
        let start = Instant::now();
        let jobs: Vec<_> = (0..4)
            .map(|_| move || std::thread::sleep(Duration::from_millis(50)))
            .collect();
        pool.map_wait(jobs);
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(95), "elapsed {elapsed:?}");
        assert!(elapsed < Duration::from_millis(190), "elapsed {elapsed:?}");
    }

    #[test]
    fn all_jobs_run_exactly_once() {
        let pool = ActorPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        let jobs: Vec<_> = (0..100)
            .map(|_| {
                let c = Arc::clone(&counter);
                move || {
                    c.fetch_add(1, Ordering::SeqCst);
                }
            })
            .collect();
        pool.map_wait(jobs);
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn drop_joins_workers() {
        let pool = ActorPool::new(2);
        let p = pool.submit(|| 1);
        drop(pool); // must drain and join without deadlock
        assert_eq!(p.wait(), 1);
    }

    #[test]
    fn shutdown_leaves_no_pool_threads_behind() {
        let mut pool = ActorPool::new(3);
        let jobs: Vec<_> = (0..12).map(|i| move || i).collect();
        let _ = pool.map_wait(jobs);
        pool.shutdown();
        assert_eq!(pool.active_workers(), 0, "workers joined and drained");
        pool.shutdown(); // idempotent
    }

    #[test]
    fn scoped_apis_spawn_no_persistent_workers() {
        let pool = ActorPool::new(4);
        assert_eq!(pool.active_workers(), 0, "construction is thread-free");
        let data = [1u32, 2, 3, 4, 5, 6, 7, 8];
        let out = pool.par_map(&data, |_, &v| v * 2);
        assert_eq!(out.iter().sum::<u32>(), 72);
        pool.scope(|s| s.spawn(|| ()).join().expect("scoped task"));
        assert_eq!(
            pool.active_workers(),
            0,
            "scatter-gather must not leave channel workers behind"
        );
        let p = pool.submit(|| 1);
        assert_eq!(p.wait(), 1);
        assert_eq!(
            pool.active_workers(),
            4,
            "submit spawns the channel workers"
        );
    }

    #[test]
    fn par_map_borrows_and_preserves_order() {
        let pool = ActorPool::new(4);
        let data: Vec<u64> = (0..64).collect();
        let offset = 100u64; // captured by reference: scoped, not 'static
        let out = pool.par_map(&data, |i, &v| v * v + offset + i as u64);
        let expect: Vec<u64> = (0..64).map(|i| i * i + offset + i).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn par_map_runs_concurrently() {
        let pool = ActorPool::new(4);
        let items = vec![(); 4];
        let start = Instant::now();
        pool.par_map(&items, |_, _| std::thread::sleep(Duration::from_millis(50)));
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_millis(150), "elapsed {elapsed:?}");
    }

    #[test]
    fn par_map_empty_and_single() {
        let pool = ActorPool::new(2);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.par_map(&empty, |_, v| *v).is_empty());
        assert_eq!(pool.par_map(&[7u32], |_, v| *v + 1), vec![8]);
    }

    #[test]
    fn scope_limits_concurrency_to_pool_size() {
        let pool = ActorPool::new(2);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        pool.scope(|s| {
            let handles: Vec<_> = (0..6)
                .map(|_| {
                    let running = Arc::clone(&running);
                    let peak = Arc::clone(&peak);
                    s.spawn(move || {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(Duration::from_millis(20));
                        running.fetch_sub(1, Ordering::SeqCst);
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("scoped task");
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) <= 2,
            "peak {}",
            peak.load(Ordering::SeqCst)
        );
    }

    #[test]
    fn shard_map_mut_mutates_in_place_and_orders_results() {
        let pool = ActorPool::new(3);
        let mut items: Vec<u64> = (0..17).collect();
        let out = pool.shard_map_mut(&mut items, |i, v| {
            *v += 100;
            *v + i as u64
        });
        assert_eq!(items, (100..117).collect::<Vec<_>>());
        assert_eq!(out, (0..17).map(|i| 100 + 2 * i).collect::<Vec<_>>());
    }

    #[test]
    fn shard_map_mut_is_shard_count_independent() {
        let mut a: Vec<u64> = (0..31).collect();
        let mut b = a.clone();
        let mut c = a.clone();
        let out1 = ActorPool::new(1).shard_map_mut(&mut a, |i, v| *v * 3 + i as u64);
        let out4 = ActorPool::new(4).shard_map_mut(&mut b, |i, v| *v * 3 + i as u64);
        let out9 = ActorPool::new(9).shard_map_mut(&mut c, |i, v| *v * 3 + i as u64);
        assert_eq!(out1, out4);
        assert_eq!(out1, out9);
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn shard_map_mut_runs_shards_concurrently() {
        let pool = ActorPool::new(4);
        let mut items = vec![(); 4];
        let start = Instant::now();
        pool.shard_map_mut(&mut items, |_, _| {
            std::thread::sleep(Duration::from_millis(50))
        });
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_millis(150), "elapsed {elapsed:?}");
    }

    #[test]
    fn shard_map_mut_empty_and_single() {
        let pool = ActorPool::new(2);
        let mut empty: Vec<u32> = Vec::new();
        assert!(pool.shard_map_mut(&mut empty, |_, v| *v).is_empty());
        let mut one = vec![7u32];
        assert_eq!(pool.shard_map_mut(&mut one, |_, v| *v + 1), vec![8]);
    }

    #[test]
    fn scope_gathers_borrowed_results() {
        let pool = ActorPool::new(3);
        let words = ["alpha", "beta", "gamma"];
        let lens = pool.scope(|s| {
            let hs: Vec<_> = words.iter().map(|w| s.spawn(move || w.len())).collect();
            hs.into_iter()
                .map(|h| h.join().expect("task"))
                .collect::<Vec<_>>()
        });
        assert_eq!(lens, vec![5, 4, 5]);
    }
}
