//! The fan-out and the panic boundary of `dlearn-core`.
//!
//! Every fan-out runs through [`chunked_map`], the stack's order-preserving
//! parallel map (it lives in `dlearn-similarity`, next to the thread policy
//! it applies), and every panic boundary through [`isolate`]. The
//! first-occurrence [`dedup`] is what the serving batches fan out over.

use std::collections::HashMap;
use std::hash::Hash;

pub(crate) use dlearn_similarity::chunked_map;

use crate::DlearnError;

/// Run `f`, turning a panic inside it into
/// [`DlearnError::WorkerPanicked`] at `site`, carrying the payload's
/// message. What a panic costs beyond the error (a quarantine, a counter)
/// is the caller's decision.
pub(crate) fn isolate<R>(site: &'static str, f: impl FnOnce() -> R) -> Result<R, DlearnError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        DlearnError::WorkerPanicked {
            site,
            message: panic_message(&*payload),
        }
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
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
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
    fn isolating_each_item_confines_a_panic_to_its_slot() {
        let items: Vec<u32> = (0..20).collect();
        for threads in [1, 2, 8] {
            let mapped = chunked_map(&items, threads, 0, (), |_, _, &x| {
                isolate("serve", || {
                    if x == 7 {
                        panic!("poisoned item {x}");
                    }
                    x * 2
                })
            });
            for (i, r) in mapped.iter().enumerate() {
                match r {
                    Err(DlearnError::WorkerPanicked { site, message }) => {
                        assert_eq!(i, 7, "threads={threads}");
                        assert_eq!((*site, message.as_str()), ("serve", "poisoned item 7"));
                    }
                    Err(other) => panic!("unexpected error {other:?}"),
                    Ok(v) => assert_eq!(*v, i as u32 * 2, "threads={threads}"),
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
}
