//! Shared-cursor executor over [`std::thread::scope`].
//!
//! The tasks are sorted heaviest first (ties by lower index) into one
//! list, and every worker takes the next entry through one shared
//! atomic cursor until the list runs out. That is longest-processing-
//! time list scheduling: the heavy tasks start first, and a worker held
//! up by a task that ran longer than its weight said simply takes fewer
//! of the rest, so a bad estimate costs at most one task at the tail.
//!
//! Results land in per-task slots, making the output order independent
//! of scheduling: callers that assemble byte streams from the results
//! get bit-identical output for every worker count.

use std::cmp::Reverse;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f` over every task on up to `workers` threads and returns the
/// results in task order. `weight` estimates relative task cost (any
/// monotone proxy works; TAC uses cell counts) and decides the order in
/// which tasks start: heaviest first.
///
/// Runs a plain sequential loop on the calling thread when
/// `workers <= 1` or there are fewer than two tasks. A panic in a task
/// reaches the caller with its payload, after the other workers finish.
pub fn execute<T, R, W, F>(workers: usize, tasks: &[T], weight: W, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    W: Fn(&T) -> u64,
    F: Fn(&T) -> R + Sync,
{
    // Worker-side task spans are accounted under `execute`.
    let _execute = tac_obs::span(tac_obs::Stage::Execute).arg("tasks", tasks.len());
    let run = |t: &T| {
        tac_obs::add(tac_obs::Counter::ExecTasks, 1u64);
        f(t)
    };
    if workers <= 1 || tasks.len() <= 1 {
        return tasks.iter().map(run).collect();
    }
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by_cached_key(|&i| (Reverse(weight(&tasks[i])), i));
    let cursor = AtomicUsize::new(0);

    let done: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.min(tasks.len()))
            .map(|me| {
                let (order, cursor, run) = (&order, &cursor, &run);
                scope.spawn(move || {
                    let _worker = tac_obs::span(tac_obs::Stage::Worker).arg("worker", me);
                    let mut done = Vec::new();
                    while let Some(&i) = order.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        done.push((i, run(&tasks[i])));
                    }
                    done
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    let mut slots: Vec<Option<R>> = (0..tasks.len()).map(|_| None).collect();
    for (i, r) in done.into_iter().flatten() {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .map(|r| r.expect("every task runs exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;
    use std::sync::Mutex;
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    /// Spins (yielding) until `ready` holds or 30 s pass; returns whether
    /// it held. The deadline only keeps a broken scheduler from hanging
    /// the test: on a working one the condition always comes first.
    fn wait_until(ready: impl Fn() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(30);
        while !ready() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    #[test]
    fn results_in_task_order() {
        let tasks: Vec<usize> = (0..200).collect();
        let out = execute(4, &tasks, |_| 1, |&t| t * 3);
        assert_eq!(out, (0..200).map(|t| t * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let tasks: Vec<u64> = (0..64).map(|i| (i * 31) % 17).collect();
        let serial = execute(1, &tasks, |&w| w, |&t| t * t);
        for workers in [2, 4, 8] {
            assert_eq!(execute(workers, &tasks, |&w| w, |&t| t * t), serial);
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = AtomicU64::new(0);
        let tasks: Vec<usize> = (0..500).collect();
        let out = execute(
            8,
            &tasks,
            |_| 1,
            |&t| {
                counter.fetch_add(1, Ordering::Relaxed);
                t
            },
        );
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn a_long_task_leaves_the_rest_to_the_other_worker() {
        // Every weight is equal, so the estimate says nothing. Task 0
        // starts first and holds its worker until every other task is
        // done: the other worker must have taken them all.
        let tasks: Vec<usize> = (0..64).collect();
        let finished = AtomicUsize::new(0);
        let ran_on: Vec<ThreadId> = execute(
            2,
            &tasks,
            |_| 1,
            |&t| {
                if t == 0 {
                    assert!(
                        wait_until(|| finished.load(Ordering::Acquire) == tasks.len() - 1),
                        "the other worker did not drain the list"
                    );
                } else {
                    finished.fetch_add(1, Ordering::Release);
                }
                std::thread::current().id()
            },
        );
        let others: HashSet<ThreadId> = ran_on[1..].iter().copied().collect();
        assert_eq!(others.len(), 1, "the other tasks ran on {others:?}");
        assert!(!others.contains(&ran_on[0]));
    }

    #[test]
    fn the_two_heaviest_tasks_start_first_on_two_workers() {
        // The heavy tasks sit mid-list; each waits until both have
        // started, so neither worker can take a third task before then.
        let weights = [1u64, 3, 2, 1, 9, 1, 2, 8, 1, 1];
        let started = Mutex::new(Vec::new());
        let heavy_started = AtomicUsize::new(0);
        execute(
            2,
            &(0..weights.len()).collect::<Vec<_>>(),
            |&t| weights[t],
            |&t| {
                started.lock().unwrap().push(t);
                if weights[t] >= 8 {
                    heavy_started.fetch_add(1, Ordering::AcqRel);
                    wait_until(|| heavy_started.load(Ordering::Acquire) == 2);
                }
            },
        );
        let started = started.into_inner().unwrap();
        let mut first_two = started[..2].to_vec();
        first_two.sort_unstable();
        assert_eq!(first_two, vec![4, 7], "start order {started:?}");
    }

    #[test]
    fn workers_capped_by_task_count() {
        // Two tasks that wait for each other run on exactly two worker
        // threads, neither the caller's, however many workers are offered.
        let caller = std::thread::current().id();
        let ids = Mutex::new(HashSet::new());
        let running = AtomicUsize::new(0);
        let out = execute(
            16,
            &[1u64, 2],
            |&w| w,
            |&t| {
                ids.lock().unwrap().insert(std::thread::current().id());
                running.fetch_add(1, Ordering::AcqRel);
                wait_until(|| running.load(Ordering::Acquire) == 2);
                t + 1
            },
        );
        assert_eq!(out, vec![2, 3]);
        let ids = ids.into_inner().unwrap();
        assert_eq!(ids.len(), 2);
        assert!(!ids.contains(&caller));
    }

    #[test]
    fn a_panicking_task_reaches_the_caller() {
        let tasks: Vec<usize> = (0..16).collect();
        for workers in [1, 2] {
            let caught = std::panic::catch_unwind(|| {
                execute(
                    workers,
                    &tasks,
                    |_| 1,
                    |&t| assert!(t != 5, "task {t} failed"),
                )
            });
            let panic = caught.expect_err("the panic was swallowed");
            let msg = panic.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg, Some("task 5 failed"), "at {workers} workers");
        }
    }

    #[test]
    fn empty_and_single_task_paths() {
        let empty: Vec<u8> = Vec::new();
        assert!(execute(8, &empty, |_| 1, |&t| t).is_empty());
        assert_eq!(execute(8, &[7u8], |_| 1, |&t| t * 2), vec![14]);
    }

    #[test]
    fn tasks_may_borrow_caller_state() {
        // The executor must accept closures borrowing the caller's stack
        // (std::thread::scope, not 'static threads).
        let data: Vec<f64> = (0..32).map(|i| i as f64).collect();
        let tasks: Vec<usize> = (0..8).collect();
        let sums = execute(
            4,
            &tasks,
            |_| 1,
            |&t| data[t * 4..(t + 1) * 4].iter().sum::<f64>(),
        );
        assert_eq!(sums.len(), 8);
        assert_eq!(sums[0], 0.0 + 1.0 + 2.0 + 3.0);
    }
}
