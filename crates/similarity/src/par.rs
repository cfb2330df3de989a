//! The stack's thread policy and its one fan-out.
//!
//! [`resolve_threads`] decides how many workers a thread knob asks for, and
//! [`chunked_map`] is the order-preserving parallel map every fan-out runs
//! through: the similarity-index build here, and in `dlearn-core` the
//! grounding, the coverage masks, the learners' candidate scoring and the
//! serving batches.
//!
//! Determinism lives here: items are split into contiguous chunks, each
//! chunk is mapped on one `std::thread::scope` worker, and the per-chunk
//! results are concatenated in chunk order — so the output is always
//! element-for-element identical to the serial map, at any thread count.

/// Cap on the auto-detected worker-thread count (`threads = 0`) — shared by
/// index construction and the learner-side thread resolution
/// (`dlearn_core::LearnerConfig`). Alignment work stops scaling well past
/// this on the workloads we measure (the per-left candidate lists are short
/// once the bounds fire, so spawn/merge overhead dominates), and an
/// unbounded auto-fanout on a many-core CI machine oversubscribes the
/// memory bus for no win. An *explicit* `threads = n` is always honored.
pub const MAX_AUTO_THREADS: usize = 16;

/// The worker-thread count a thread knob asks for: a positive `requested`
/// as is, else (0 = auto) the available cores capped at
/// [`MAX_AUTO_THREADS`]. Every thread knob of the stack resolves through
/// this, so "0 threads" means the same thing on each.
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .min(MAX_AUTO_THREADS)
    }
}

/// Map `f` over `items`, fanning out across at most `threads` scoped worker
/// threads in contiguous chunks. Each worker takes its own clone of
/// `state` and hands it to `f` for every item of its chunk, together with
/// the item's global index. Runs serially (one clone) when `threads <= 1`
/// or there are fewer than `min_items` items (not worth the spawn
/// overhead). The result order always matches `items` order.
///
/// A worker's panic is re-raised on the calling thread with its own
/// payload, so a caller's panic boundary sees the worker's message.
pub fn chunked_map<T, S, R>(
    items: &[T],
    threads: usize,
    min_items: usize,
    state: S,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    S: Clone + Sync,
    R: Send,
{
    let threads = threads.min(items.len().max(1));
    if threads <= 1 || items.len() < min_items {
        let mut state = state.clone();
        return items
            .iter()
            .enumerate()
            .map(|(i, t)| f(&mut state, i, t))
            .collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut out: Vec<Vec<R>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (ci, chunk_items) in items.chunks(chunk).enumerate() {
            let (state, f) = (&state, &f);
            handles.push(scope.spawn(move || {
                let mut state = state.clone();
                chunk_items
                    .iter()
                    .enumerate()
                    .map(|(i, t)| f(&mut state, ci * chunk + i, t))
                    .collect::<Vec<_>>()
            }));
        }
        for h in handles {
            out.push(
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
    });
    out.into_iter().flatten().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn output_order_matches_input_order_at_any_thread_count() {
        let items: Vec<u32> = (0..37).collect();
        let serial = chunked_map(&items, 1, 0, (), |_, i, &x| (i, x * 2));
        for threads in [2, 3, 8, 64] {
            let parallel = chunked_map(&items, threads, 0, (), |_, i, &x| (i, x * 2));
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn small_inputs_run_serially() {
        let items = [1, 2, 3];
        let mapped = chunked_map(&items, 8, 8, (), |_, i, &x| i + x);
        assert_eq!(mapped, vec![1, 3, 5]);
    }

    #[test]
    fn global_indices_are_correct_across_chunks() {
        let items: Vec<usize> = (0..100).collect();
        let mapped = chunked_map(&items, 7, 2, (), |_, i, &x| {
            assert_eq!(i, x);
            i
        });
        assert_eq!(mapped, items);
    }

    /// A state whose every clone takes the next id from a shared counter.
    struct Counted<'a>(&'a AtomicUsize, usize);

    impl Clone for Counted<'_> {
        fn clone(&self) -> Self {
            Counted(self.0, self.0.fetch_add(1, Ordering::Relaxed))
        }
    }

    #[test]
    fn each_worker_takes_one_state_for_its_whole_chunk() {
        let items: Vec<usize> = (0..64).collect();
        for threads in [1, 2, 8] {
            let clones = AtomicUsize::new(0);
            let mapped = chunked_map(&items, threads, 0, Counted(&clones, 0), |s, i, _| (s.1, i));
            assert_eq!(clones.load(Ordering::Relaxed), threads, "threads={threads}");
            // 64 items split evenly: every item of a chunk sees the state
            // its worker cloned, and no two chunks share one.
            let chunk = items.len() / threads;
            for (i, &(worker, index)) in mapped.iter().enumerate() {
                assert_eq!(index, i);
                assert_eq!(worker, mapped[i / chunk * chunk].0, "threads={threads}");
            }
            let mut workers: Vec<usize> = mapped.iter().map(|&(w, _)| w).collect();
            workers.dedup();
            assert_eq!(workers.len(), threads, "threads={threads}");
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller_with_its_own_payload() {
        let items: Vec<u32> = (0..40).collect();
        for threads in [1, 2, 8] {
            let payload = std::panic::catch_unwind(|| {
                chunked_map(&items, threads, 0, (), |_, _, &x| {
                    if x == 27 {
                        panic!("poisoned item {x}");
                    }
                    x
                })
            })
            .expect_err("the poisoned item panics");
            let message = payload
                .downcast_ref::<String>()
                .expect("a formatted message");
            assert_eq!(message, "poisoned item 27", "threads={threads}");
        }
    }
}
