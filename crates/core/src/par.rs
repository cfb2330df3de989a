//! Order-preserving chunked parallel map, shared by the coverage engine and
//! the learners' candidate fan-out (`learn::score_each`), and the
//! first-occurrence dedup the serving batches fan out over.
//!
//! Determinism lives here: items are split into contiguous chunks, each
//! chunk is mapped on one `std::thread::scope` worker, and the per-chunk
//! results are concatenated in chunk order — so the output is always
//! element-for-element identical to the serial map, at any thread count.

use std::collections::HashMap;
use std::hash::Hash;

/// Map `f` over `items`, fanning out across at most `threads` scoped worker
/// threads in contiguous chunks. `f` receives each item's global index.
/// Runs serially when `threads <= 1` or there are fewer than `min_items`
/// items (not worth the spawn overhead). The result order always matches
/// `items` order.
pub(crate) fn chunked_map<T, R, F>(items: &[T], threads: usize, min_items: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let threads = threads.min(items.len().max(1));
    if threads <= 1 || items.len() < min_items {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let chunk = items.len().div_ceil(threads);
    let mut out: Vec<Vec<R>> = Vec::new();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (ci, chunk_items) in items.chunks(chunk).enumerate() {
            let f = &f;
            handles.push(scope.spawn(move || {
                chunk_items
                    .iter()
                    .enumerate()
                    .map(|(i, t)| f(ci * chunk + i, t))
                    .collect::<Vec<_>>()
            }));
        }
        for h in handles {
            // Re-raise the original payload on the calling thread so callers
            // that wrap the whole map in `catch_unwind` (Engine::prepare) see
            // the worker's message, not a generic join error.
            out.push(
                h.join()
                    .unwrap_or_else(|payload| std::panic::resume_unwind(payload)),
            );
        }
    });
    out.into_iter().flatten().collect()
}

/// [`chunked_map`] with per-item panic isolation: each item is mapped inside
/// `catch_unwind`, so one poisoned item yields `Err(message)` in its slot
/// while every other item completes normally. Output order still matches
/// `items` order at any thread count.
pub(crate) fn chunked_map_catching<T, R, F>(
    items: &[T],
    threads: usize,
    min_items: usize,
    f: F,
) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    chunked_map(items, threads, min_items, |i, t| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(i, t)))
            .map_err(|payload| panic_message(&*payload))
    })
}

/// First-occurrence deduplication: the distinct items in order of first
/// occurrence, and for every input item the position of its copy among
/// them. A batch evaluated once per distinct item and fanned back out
/// through the positions is deterministic at any thread count.
pub(crate) fn dedup<'a, T, I>(items: I) -> (Vec<&'a T>, Vec<usize>)
where
    T: Eq + Hash,
    I: IntoIterator<Item = &'a T>,
{
    let items = items.into_iter();
    let mut slot_of: HashMap<&T, usize> = HashMap::with_capacity(items.size_hint().0);
    let mut unique: Vec<&T> = Vec::new();
    let slots: Vec<usize> = items
        .map(|item| {
            *slot_of.entry(item).or_insert_with(|| {
                unique.push(item);
                unique.len() - 1
            })
        })
        .collect();
    (unique, slots)
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_order_matches_input_order_at_any_thread_count() {
        let items: Vec<u32> = (0..37).collect();
        let serial = chunked_map(&items, 1, 0, |i, &x| (i, x * 2));
        for threads in [2, 3, 8, 64] {
            let parallel = chunked_map(&items, threads, 0, |i, &x| (i, x * 2));
            assert_eq!(serial, parallel, "threads={threads}");
        }
    }

    #[test]
    fn small_inputs_run_serially() {
        let items = [1, 2, 3];
        let mapped = chunked_map(&items, 8, 8, |i, &x| i + x);
        assert_eq!(mapped, vec![1, 3, 5]);
    }

    #[test]
    fn catching_map_isolates_a_single_panicking_item() {
        let items: Vec<u32> = (0..20).collect();
        for threads in [1, 2, 8] {
            let mapped = chunked_map_catching(&items, threads, 0, |_, &x| {
                if x == 7 {
                    panic!("poisoned item {x}");
                }
                x * 2
            });
            for (i, r) in mapped.iter().enumerate() {
                if i == 7 {
                    let msg = r.as_ref().unwrap_err();
                    assert!(msg.contains("poisoned item 7"), "threads={threads}: {msg}");
                } else {
                    assert_eq!(*r, Ok(i as u32 * 2), "threads={threads}");
                }
            }
        }
    }

    #[test]
    fn dedup_keeps_first_occurrence_order() {
        let items = [3, 1, 3, 2, 1];
        let (unique, slots) = dedup(&items);
        assert_eq!(unique, vec![&3, &1, &2]);
        assert_eq!(slots, vec![0, 1, 0, 2, 1]);
    }

    #[test]
    fn global_indices_are_correct_across_chunks() {
        let items: Vec<usize> = (0..100).collect();
        let mapped = chunked_map(&items, 7, 2, |i, &x| {
            assert_eq!(i, x);
            i
        });
        assert_eq!(mapped, items);
    }
}
