//! Parallel sweep runner.
//!
//! A parameter sweep is a bag of completely independent simulations, so
//! the right parallelization is one *simulation* per worker — and that
//! is only safe and profitable when each simulation runs on the
//! sequential engine (single-threaded, deterministic, no oversubscription).
//! With the threaded engine every simulation already spawns a thread per
//! simulated node, so the sweep runs them one after another instead.

use std::sync::Mutex;

use sp2sim::EngineKind;

/// Sort items longest-expected-first. Greedy longest-job-first is the
/// classic makespan heuristic for [`sweep_map`]'s work queue:
/// scheduling the expensive cells first keeps every worker busy through
/// the tail of the sweep instead of leaving one worker grinding a giant
/// cell after the others drained the queue. The sort is stable and
/// descending, so equal-cost items keep their canonical order and the
/// schedule is deterministic.
pub fn longest_first<T>(items: &mut [T], cost: impl Fn(&T) -> u64) {
    items.sort_by_key(|t| std::cmp::Reverse(cost(t)));
}

/// Map `f` over `items`: on the sequential engine, one item at a time
/// per worker thread (one per core), each taking the next item from a
/// shared queue; on the threaded engine, one after another. Preserves
/// item order in the result either way, and propagates the first
/// worker panic.
pub fn sweep_map<T, R, F>(engine: EngineKind, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    if engine != EngineKind::Sequential || items.len() < 2 {
        return items.into_iter().map(f).collect();
    }
    let workers = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(items.len());
    let mut out: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    let queue = Mutex::new(items.into_iter().enumerate());
    std::thread::scope(|scope| {
        let worker = || {
            let mut done = Vec::new();
            loop {
                // A statement of its own, so the lock is released
                // before `f` runs.
                let next = queue
                    .lock()
                    .expect("the queue lock is never held across a panic")
                    .next();
                let Some((i, item)) = next else { return done };
                done.push((i, f(item)));
            }
        };
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();
        for h in handles {
            match h.join() {
                Ok(done) => done.into_iter().for_each(|(i, r)| out[i] = Some(r)),
                Err(e) => std::panic::resume_unwind(e),
            }
        }
    });
    out.into_iter()
        .map(|r| r.expect("a worker ran every item"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_preserves_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = sweep_map(EngineKind::Sequential, items, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn threaded_engine_runs_serially_but_correctly() {
        let out = sweep_map(EngineKind::Threaded, vec![1, 2, 3], |i| i + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn sweep_runs_real_simulations() {
        use sp2sim::{Cluster, ClusterConfig};
        let out = sweep_map(EngineKind::Sequential, vec![2usize, 3, 4], |np| {
            Cluster::run(ClusterConfig::sp2_on(np, EngineKind::Sequential), |node| {
                node.id()
            })
            .results
            .len()
        });
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn longest_first_is_stable_descending() {
        let mut items = vec![(1u64, 'a'), (3, 'b'), (2, 'c'), (3, 'd'), (1, 'e')];
        longest_first(&mut items, |&(c, _)| c);
        assert_eq!(
            items,
            vec![(3, 'b'), (3, 'd'), (2, 'c'), (1, 'a'), (1, 'e')]
        );
    }

    #[test]
    fn ljf_schedule_round_trips_through_sweep_map() {
        // The sweep-bin pattern: tag with the canonical index, sort by
        // cost, run, scatter back. The result must be independent of
        // the schedule.
        let costs: Vec<u64> = vec![5, 1, 9, 3, 7, 2];
        let mut tagged: Vec<(usize, u64)> = costs.iter().copied().enumerate().collect();
        longest_first(&mut tagged, |&(_, c)| c);
        assert_eq!(tagged[0], (2, 9), "most expensive first");
        let mut out = vec![0u64; costs.len()];
        for (i, r) in sweep_map(EngineKind::Sequential, tagged, |(i, c)| (i, c * 10)) {
            out[i] = r;
        }
        assert_eq!(out, vec![50, 10, 90, 30, 70, 20]);
    }
}
