//! Dependency-aware DAG execution on an [`ActorPool`].
//!
//! Used by the Fig. 22/23 simulator-validation experiments: a task graph is
//! executed for real on a pool of `n` workers (each task sleeping its
//! profiled, time-scaled duration) and the measured finish times are compared
//! against the Appendix-M simulator's estimates.

use crossbeam::channel::unbounded;
use std::panic::{self, AssertUnwindSafe};
use std::time::{Duration, Instant};

use crate::pool::ActorPool;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// A DAG of opaque jobs: `preds[i]` lists the tasks that must finish before
/// task `i` starts.
pub struct DagSpec {
    /// Predecessor lists, one per task.
    pub preds: Vec<Vec<usize>>,
    /// The work of each task.
    pub tasks: Vec<Box<dyn FnOnce() + Send + 'static>>,
}

impl DagSpec {
    /// Build a DAG where task `i` sleeps `durations[i]`.
    pub fn sleeping(preds: Vec<Vec<usize>>, durations: Vec<Duration>) -> Self {
        assert_eq!(
            preds.len(),
            durations.len(),
            "preds/durations length mismatch"
        );
        let tasks = durations
            .into_iter()
            .map(|d| Box::new(move || std::thread::sleep(d)) as Box<dyn FnOnce() + Send>)
            .collect();
        Self { preds, tasks }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the DAG has no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }
}

/// Measured outcome of a DAG execution.
#[derive(Debug, Clone)]
pub struct DagRun {
    /// Per-task finish offsets from the run start.
    pub finish: Vec<Duration>,
    /// Wall-clock time from start to last finish.
    pub makespan: Duration,
}

/// Execute `dag` on `pool`, respecting dependencies, and measure finishes.
///
/// `pool.size()` scoped workers take ready tasks from one queue, so at most
/// that many tasks run at once; the caller's thread releases each task's
/// successors as it finishes.
///
/// # Panics
/// Panics if the predecessor lists contain a cycle (no task ever becomes
/// ready) or reference out-of-range tasks, and re-raises the first panic of
/// a task once the workers have stopped.
pub fn run_dag(pool: &ActorPool, dag: DagSpec) -> DagRun {
    let n = dag.len();
    if n == 0 {
        return DagRun {
            finish: Vec::new(),
            makespan: Duration::ZERO,
        };
    }
    for preds in &dag.preds {
        for &p in preds {
            assert!(p < n, "predecessor index out of range");
        }
    }

    // Successor lists + indegrees.
    let mut succ = vec![Vec::new(); n];
    let mut indeg = vec![0usize; n];
    for (i, preds) in dag.preds.iter().enumerate() {
        indeg[i] = preds.len();
        for &p in preds {
            succ[p].push(i);
        }
    }

    let start = Instant::now();
    let mut tasks: Vec<Option<Task>> = dag.tasks.into_iter().map(Some).collect();
    let mut finish = vec![Duration::ZERO; n];
    let outcome = std::thread::scope(|s| {
        let (ready_tx, ready_rx) = unbounded::<(usize, Task)>();
        let (done_tx, done_rx) = unbounded::<(usize, Instant, std::thread::Result<()>)>();
        for _ in 0..pool.size() {
            let (ready_rx, done_tx) = (ready_rx.clone(), done_tx.clone());
            s.spawn(move || {
                while let Ok((i, work)) = ready_rx.recv() {
                    let result = panic::catch_unwind(AssertUnwindSafe(work));
                    if done_tx.send((i, Instant::now(), result)).is_err() {
                        break;
                    }
                }
            });
        }
        // Only the workers hold the done channel, so `recv` errors rather
        // than blocks if they all stop.
        drop(done_tx);

        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let (mut in_flight, mut remaining) = (0usize, n);
        while remaining > 0 {
            for i in ready.drain(..) {
                let work = tasks[i].take().expect("task released twice");
                ready_tx.send((i, work)).expect("DAG workers exited");
                in_flight += 1;
            }
            // Returning drops `ready_tx`, which closes the queue, so the
            // scope joins the workers before a panic is raised.
            assert!(in_flight > 0, "DAG execution stalled: cyclic dependencies");
            let (i, at, result) = done_rx.recv().expect("DAG workers exited");
            result?;
            in_flight -= 1;
            remaining -= 1;
            finish[i] = at.duration_since(start);
            for &s in &succ[i] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        Ok(())
    });
    if let Err(payload) = outcome {
        panic::resume_unwind(payload);
    }

    let makespan = finish.iter().cloned().max().unwrap_or(Duration::ZERO);
    DagRun { finish, makespan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Arc};

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    #[test]
    fn independent_tasks_run_in_parallel() {
        let pool = ActorPool::new(4);
        let dag = DagSpec::sleeping(vec![vec![]; 4], vec![ms(40); 4]);
        let run = run_dag(&pool, dag);
        assert!(
            run.makespan < ms(120),
            "parallel run took {:?}",
            run.makespan
        );
        assert!(run.makespan >= ms(38));
    }

    #[test]
    fn chain_runs_serially() {
        let pool = ActorPool::new(4);
        let dag = DagSpec::sleeping(vec![vec![], vec![0], vec![1]], vec![ms(20); 3]);
        let run = run_dag(&pool, dag);
        assert!(run.makespan >= ms(55), "chain took only {:?}", run.makespan);
        // Monotone finishes along the chain.
        assert!(run.finish[0] <= run.finish[1] && run.finish[1] <= run.finish[2]);
    }

    #[test]
    fn diamond_joins_correctly() {
        let pool = ActorPool::new(2);
        // 0 → {1,2} → 3
        let dag = DagSpec::sleeping(vec![vec![], vec![0], vec![0], vec![1, 2]], vec![ms(15); 4]);
        let run = run_dag(&pool, dag);
        assert!(run.finish[3] >= run.finish[1].max(run.finish[2]));
        assert!(run.makespan >= ms(42)); // three levels of 15 ms
    }

    #[test]
    fn pool_width_throttles_parallel_level() {
        // 3 independent 30 ms tasks on 1 worker: strictly serial ≥ 90 ms.
        let pool = ActorPool::new(1);
        let dag = DagSpec::sleeping(vec![vec![]; 3], vec![ms(30); 3]);
        let run = run_dag(&pool, dag);
        assert!(run.makespan >= ms(85), "took {:?}", run.makespan);
    }

    #[test]
    fn empty_dag() {
        let pool = ActorPool::new(1);
        let run = run_dag(&pool, DagSpec::sleeping(vec![], vec![]));
        assert_eq!(run.makespan, Duration::ZERO);
    }

    /// Runs `dag` on a helper thread and returns how `run_dag` ended: the
    /// panic message, or `None` if it returned. Fails after 1 s instead of
    /// hanging when `run_dag` never returns.
    fn run_dag_panic_message(size: usize, dag: DagSpec) -> Option<String> {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let ended = panic::catch_unwind(AssertUnwindSafe(|| {
                run_dag(&ActorPool::new(size), dag);
            }));
            let message = ended.err().map(|p| {
                p.downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| p.downcast_ref::<String>().cloned())
                    .unwrap_or_default()
            });
            let _ = tx.send(message);
        });
        rx.recv_timeout(Duration::from_secs(1))
            .expect("run_dag still blocked after 1 s")
    }

    #[test]
    fn cyclic_dag_panics_instead_of_hanging() {
        let dag = DagSpec::sleeping(vec![vec![2], vec![0], vec![1]], vec![ms(1); 3]);
        let message = run_dag_panic_message(2, dag).expect("a cycle must panic");
        assert!(message.contains("cyclic"), "panicked with {message:?}");
        // A cycle behind a task that does run still stalls.
        let dag = DagSpec::sleeping(vec![vec![], vec![0, 2], vec![1]], vec![ms(1); 3]);
        let message = run_dag_panic_message(2, dag).expect("a cycle must panic");
        assert!(message.contains("cyclic"), "panicked with {message:?}");
    }

    #[test]
    fn task_panic_is_raised_on_the_caller() {
        let tasks: Vec<Box<dyn FnOnce() + Send>> = vec![
            Box::new(|| panic!("task 0 failed")),
            Box::new(|| ()),
            Box::new(|| ()),
        ];
        let dag = DagSpec {
            preds: vec![vec![], vec![0], vec![1]],
            tasks,
        };
        let message = run_dag_panic_message(2, dag).expect("the task's panic must propagate");
        assert_eq!(message, "task 0 failed");
    }

    #[test]
    fn never_runs_more_tasks_than_the_pool_size() {
        for size in [1, 2, 4] {
            let running = Arc::new(AtomicUsize::new(0));
            let peak = Arc::new(AtomicUsize::new(0));
            let tasks = (0..16)
                .map(|_| {
                    let (running, peak) = (Arc::clone(&running), Arc::clone(&peak));
                    Box::new(move || {
                        let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::sleep(ms(2));
                        running.fetch_sub(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            let dag = DagSpec {
                preds: vec![vec![]; 16],
                tasks,
            };
            run_dag(&ActorPool::new(size), dag);
            let peak = peak.load(Ordering::SeqCst);
            assert!(peak <= size, "size {size}: peak {peak}");
        }
    }
}
