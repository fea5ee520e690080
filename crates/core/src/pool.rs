//! The workspace's one multi-core path: the worker **team**.
//!
//! The workspace's `rayon` is an offline sequential shim (the build
//! environment has no crates.io access), so everything that uses a second
//! core goes through one persistent, parked team of
//! [`available_threads`] members — the calling thread plus lazily
//! spawned helpers that claim work parts from an atomic counter. The team
//! itself lives in `dlpic_nn::team` (the lowest crate of the workspace,
//! so the inference kernels can be handed to it too, and `core` depends
//! on `nn`); this module is its front door for the
//! layers above: [`team`] (with [`Team::for_each`], "do this to every
//! item of a list, one part each", and [`Team::for_each_run`], the same
//! over consecutive runs of the list) for the engine's waves,
//! [`with_limit`] to cap how many members a caller's dispatches may use,
//! and [`for_each_chunk`] for equal contiguous chunks.
//!
//! ## Determinism
//!
//! Which member runs which part is a race, so nothing may depend on it.
//! Everything that goes through the team is **per-item work**: an item
//! is touched by exactly one member, which does to it what a serial loop
//! would, and a run or chunk is a fixed stretch of the list (item `i`
//! always lands in chunk `i / chunk_len(len, chunks)`). The engine's
//! ensemble wave hands out a DL cohort this way, as **row panels**: runs
//! of at least eight consecutive members, each prepared, inferred as one
//! batch and applied by the member that claimed it. A session's own
//! arithmetic never learns who ran it or what ran beside it — and not how
//! the cohort was cut either, because the inference kernels are
//! row-stable: every output element is one sequential multiply-add chain
//! over ascending `k` from `+0.0` whatever batch its row is computed in,
//! so the partition decides who computes a row, never how.
//!
//! A caller that cannot have the team — it is limited to one member, the
//! machine has one core, the team is busy with another job (a nested or
//! concurrent dispatch) — runs the same parts inline, in order.

pub use dlpic_nn::team::{available_threads, with_limit, Hold, Team};

/// The process-wide team ([`available_threads`] members; helpers are
/// spawned by the first dispatch that uses more than one).
pub fn team() -> &'static Team {
    dlpic_nn::team::global()
}

/// The contiguous chunk length that splits `len` items over `threads`
/// workers (ceiling division; the last chunk may be shorter).
pub fn chunk_len(len: usize, threads: usize) -> usize {
    let threads = threads.max(1);
    len.div_ceil(threads.min(len.max(1)))
}

/// Runs `work` over contiguous chunks of `items` on the [`team`] and
/// returns when all are done. `work` receives the chunk index and the
/// chunk's mutable slice. `threads` fixes the partition — `threads`
/// chunks of [`chunk_len`] items, so for any `threads` the items of chunk
/// `c` are `items[c * chunk_len .. (c + 1) * chunk_len]` — and caps the
/// members used; the members claim chunks as they go, so asking for more
/// chunks than cores is how a caller gets finer-grained balancing. With
/// `threads <= 1` (or a single chunk) everything runs inline on the
/// caller's thread — same partition, no dispatch. A panic in `work`
/// propagates to the caller. Builds a list of chunk handles per call: for
/// long-running chunk work, not for a per-step loop.
pub fn for_each_chunk<T, F>(threads: usize, items: &mut [T], work: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if items.is_empty() {
        return;
    }
    let size = chunk_len(items.len(), threads);
    if threads <= 1 || size >= items.len() {
        work(0, items);
        return;
    }
    let mut chunks: Vec<&mut [T]> = items.chunks_mut(size).collect();
    with_limit(threads, || {
        team().for_each(&mut chunks, |c, chunk| work(c, chunk));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_len_covers_all_items() {
        assert_eq!(chunk_len(10, 1), 10);
        assert_eq!(chunk_len(10, 3), 4); // 4 + 4 + 2
        assert_eq!(chunk_len(10, 4), 3); // 3 + 3 + 3 + 1
        assert_eq!(chunk_len(3, 8), 1);
        assert_eq!(chunk_len(0, 4), 0);
    }

    #[test]
    fn every_item_visited_exactly_once_at_any_thread_count() {
        for threads in [1usize, 2, 3, 7, 16] {
            let mut items = vec![0u32; 23];
            for_each_chunk(threads, &mut items, |_, chunk| {
                for v in chunk {
                    *v += 1;
                }
            });
            assert!(items.iter().all(|&v| v == 1), "threads = {threads}");
        }
    }

    #[test]
    fn chunk_indices_match_the_documented_partition() {
        let mut items: Vec<(usize, usize)> = (0..10).map(|i| (i, usize::MAX)).collect();
        for_each_chunk(3, &mut items, |c, chunk| {
            for item in chunk {
                item.1 = c;
            }
        });
        let size = chunk_len(10, 3);
        for (i, &(_, c)) in items.iter().enumerate() {
            assert_eq!(c, i / size, "item {i}");
        }
    }

    #[test]
    fn a_limit_of_one_keeps_every_chunk_on_the_caller() {
        let caller = std::thread::current().id();
        let mut items = vec![0u8; 9];
        with_limit(1, || {
            for_each_chunk(4, &mut items, |_, chunk| {
                assert_eq!(std::thread::current().id(), caller);
                chunk.fill(1);
            });
        });
        assert!(items.iter().all(|&v| v == 1));
    }

    #[test]
    fn a_panicking_chunk_propagates_to_the_caller() {
        let mut items = vec![0u8; 8];
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for_each_chunk(4, &mut items, |c, _| {
                if c == 2 {
                    panic!("chunk 2 failed");
                }
            });
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
        assert_eq!(team().size(), available_threads());
    }
}
