//! Work-partitioning helpers shared by the sharded sweep runner and the
//! concurrent serve load generator.
//!
//! Both consumers follow the same pattern: split a queue of work into
//! contiguous chunks, then let `N` workers pull chunks off an atomic
//! cursor. [`chunk_ranges`] produces the balanced contiguous split;
//! [`worker_threads`] resolves how many workers to spawn, honouring the
//! `SETA_THREADS` override for reproducible CI runs.

use std::ops::Range;

/// Splits `0..len` into at most `chunks` contiguous, balanced, non-empty
/// ranges covering every index exactly once. The first `len % chunks`
/// ranges are one element longer, so sizes never differ by more than one.
/// Fewer than `chunks` ranges are returned when `len < chunks`; zero when
/// `len == 0`.
///
/// # Example
///
/// ```
/// use seta_sim::partition::chunk_ranges;
///
/// assert_eq!(chunk_ranges(7, 3), vec![0..3, 3..5, 5..7]);
/// assert_eq!(chunk_ranges(2, 4).len(), 2);
/// assert!(chunk_ranges(0, 4).is_empty());
/// ```
pub fn chunk_ranges(len: usize, chunks: usize) -> Vec<Range<usize>> {
    let chunks = chunks.max(1).min(len);
    let mut out = Vec::with_capacity(chunks);
    if len == 0 {
        return out;
    }
    let base = len / chunks;
    let extra = len % chunks;
    let mut start = 0;
    for i in 0..chunks {
        let size = base + usize::from(i < extra);
        out.push(start..start + size);
        start += size;
    }
    out
}

/// Worker count for a queue of `queue_len` work items: the `SETA_THREADS`
/// environment override if set (for reproducible CI runs), otherwise the
/// available parallelism — in both cases clamped to the queue length, so a
/// two-shard sweep never spawns a machine's worth of idle workers.
pub fn worker_threads(queue_len: usize) -> usize {
    requested_threads().min(queue_len.max(1))
}

/// [`worker_threads`] before the clamp to the queue length: what a caller
/// sizing the queue itself should plan for.
pub fn requested_threads() -> usize {
    std::env::var("SETA_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_everything_exactly_once() {
        for len in 0..40 {
            for chunks in 1..10 {
                let ranges = chunk_ranges(len, chunks);
                let mut covered = 0;
                let mut cursor = 0;
                for r in &ranges {
                    assert_eq!(r.start, cursor, "contiguous from the left");
                    assert!(r.end > r.start, "no empty ranges");
                    covered += r.end - r.start;
                    cursor = r.end;
                }
                assert_eq!(covered, len, "len={len} chunks={chunks}");
            }
        }
    }

    #[test]
    fn chunks_are_balanced() {
        for len in 1..64 {
            for chunks in 1..9 {
                let sizes: Vec<usize> = chunk_ranges(len, chunks).iter().map(|r| r.len()).collect();
                let min = *sizes.iter().min().unwrap();
                let max = *sizes.iter().max().unwrap();
                assert!(max - min <= 1, "len={len} chunks={chunks} sizes={sizes:?}");
            }
        }
    }

    #[test]
    fn worker_threads_clamps_to_queue_length() {
        assert_eq!(worker_threads(0), 1);
        assert_eq!(worker_threads(1), 1);
        assert!(worker_threads(64) >= 1);
        for n in [0usize, 1, 2, 7, 64] {
            assert!(worker_threads(n) <= n.max(1));
        }
    }
}
