//! A minimal scoped-thread worker pool with deterministic result order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a thread-count setting (`0` = all available cores).
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Runs `f` over every item on up to `threads` worker threads and returns
/// the results **in item order** — never in completion order. This is the
/// determinism backbone of the whole parallel stack: callers merge results
/// positionally and get byte-identical output at any thread count.
///
/// `f` receives `(index, item)`. Work is claimed dynamically from a shared
/// counter, so uneven item costs still balance.
///
/// **Claim order.** With more than one worker, items are claimed *last
/// first*: the first claim takes the last item, the next claim the one
/// before it, and so on down to item 0. Callers that list their heaviest
/// work last therefore have it running from the start instead of queued
/// behind cheap items, and the cheap items fill in around it at the end.
/// A synthesis sweep plans its tasks bounds ascending, and each bound's
/// queries cost several times the previous bound's, so this starts the
/// top bound first. One worker runs the items in plain item order.
pub fn run_ordered<T, R, F>(items: &[T], threads: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = resolve_threads(threads).min(items.len()).max(1);
    if threads == 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let claimed = next.fetch_add(1, Ordering::Relaxed);
                if claimed >= items.len() {
                    break;
                }
                let i = items.len() - 1 - claimed;
                let r = f(i, &items[i]);
                // Lock ignoring poison: a panic in `f` on a sibling thread
                // must not discard this worker's finished results.
                *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap_or_else(|e| e.into_inner())
                .expect("every item ran to completion")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let items: Vec<usize> = (0..100).collect();
        for threads in [1, 2, 4, 7] {
            let out = run_ordered(&items, threads, |i, &x| {
                assert_eq!(i, x);
                x * x
            });
            assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
        }
    }

    #[test]
    fn workers_claim_the_last_items_first() {
        // Every worker's first call blocks until each worker has made
        // one, so the first `threads` calls are exactly the workers'
        // first claims: the last `threads` items. After that each worker
        // keeps claiming downwards.
        use std::sync::Barrier;
        let items: Vec<usize> = (0..100).collect();
        for threads in [2, 4, 7] {
            let barrier = Barrier::new(threads);
            let entered = Mutex::new(Vec::new());
            let out = run_ordered(&items, threads, |i, &x| {
                let first_round = {
                    let mut e = entered.lock().unwrap();
                    e.push((std::thread::current().id(), i));
                    e.len() <= threads
                };
                if first_round {
                    barrier.wait();
                }
                x
            });
            assert_eq!(out, items, "threads={threads}");
            let entered = entered.into_inner().unwrap();
            let mut first: Vec<usize> = entered[..threads].iter().map(|&(_, i)| i).collect();
            first.sort_unstable();
            let tail: Vec<usize> = (items.len() - threads..items.len()).collect();
            assert_eq!(first, tail, "threads={threads}");
            for (worker, _) in &entered {
                let mine: Vec<usize> = entered
                    .iter()
                    .filter(|(w, _)| w == worker)
                    .map(|&(_, i)| i)
                    .collect();
                assert!(mine.windows(2).all(|w| w[0] > w[1]), "{mine:?}");
            }
        }
    }

    #[test]
    fn one_worker_runs_in_item_order() {
        let items: Vec<usize> = (0..20).collect();
        let entered = Mutex::new(Vec::new());
        run_ordered(&items, 1, |i, _| entered.lock().unwrap().push(i));
        assert_eq!(entered.into_inner().unwrap(), items);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<usize> = run_ordered(&[] as &[usize], 4, |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_means_all_cores() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }
}
