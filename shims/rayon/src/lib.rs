//! Offline stand-in for the `rayon` crate.
//!
//! The build environment has no registry access, so this workspace vendors a
//! small data-parallelism layer with rayon's *shape* (`par_iter`,
//! `into_par_iter`, `map`, `collect`, `par_chunks_mut`, …) implemented over
//! `std::thread::scope`. Design points:
//!
//! * **Deterministic results.** Items are tagged with their index and results
//!   are re-sorted into input order before they are returned, so a
//!   `map(..).collect()` is element-for-element identical to the sequential
//!   equivalent regardless of scheduling. All of `pte`'s parallel searches
//!   rely on this to stay bit-identical to their serial counterparts.
//! * **Dynamic load balancing.** Workers pull one item at a time from a
//!   shared queue — candidate evaluation times vary by >10×, so static
//!   chunking would idle most threads on the tail.
//! * **No nested oversubscription.** A `map` issued from inside a worker
//!   thread runs inline (sequentially), mirroring how rayon keeps nested
//!   parallelism on the current worker rather than spawning a new pool.
//! * Thread count comes from `RAYON_NUM_THREADS` (or `PTE_THREADS`), re-read
//!   per call so tests and benches can pin it, falling back to
//!   `available_parallelism`, read once (it reads cgroup files on Linux,
//!   ~20 µs a call).

use std::cell::Cell;
use std::sync::{Mutex, OnceLock};

thread_local! {
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Number of worker threads a parallel call may use right now.
pub fn current_num_threads() -> usize {
    for var in ["RAYON_NUM_THREADS", "PTE_THREADS"] {
        if let Some(n) = std::env::var(var).ok().and_then(|s| s.parse::<usize>().ok()) {
            if n >= 1 {
                return n;
            }
        }
    }
    static FALLBACK: OnceLock<usize> = OnceLock::new();
    *FALLBACK.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1))
}

/// Maps `f` over `items` on the worker pool, returning results in input
/// order. Falls back to a plain sequential map when only one thread is
/// available, the input is tiny, or the call is already inside a worker.
fn pooled_map<T, U, F>(items: Vec<T>, f: F) -> Vec<U>
where
    T: Send,
    U: Send,
    F: Fn(T) -> U + Sync,
{
    // Inside a worker the count is never needed, so it is not even read.
    let threads =
        if IN_WORKER.with(Cell::get) { 1 } else { current_num_threads().min(items.len()) };
    if threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let n = items.len();
    let queue = Mutex::new(items.into_iter().enumerate());
    let results: Mutex<Vec<(usize, U)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                loop {
                    // Hold the queue lock only to pop, never while running f.
                    let next = queue.lock().expect("rayon shim queue").next();
                    match next {
                        Some((i, item)) => {
                            let out = f(item);
                            results.lock().expect("rayon shim results").push((i, out));
                        }
                        None => break,
                    }
                }
                IN_WORKER.with(|w| w.set(false));
            });
        }
    });
    let mut tagged = results.into_inner().expect("rayon shim results");
    tagged.sort_unstable_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, out)| out).collect()
}

/// A materialised parallel iterator: owns its items; `map`/`for_each` are the
/// operations that actually fan out onto the pool.
pub struct ParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParIter<T> {
    /// Tags every item with its index (cheap, sequential).
    pub fn enumerate(self) -> ParIter<(usize, T)> {
        ParIter { items: self.items.into_iter().enumerate().collect() }
    }

    /// Applies `f` to every item in parallel, preserving input order.
    pub fn map<U: Send, F: Fn(T) -> U + Sync>(self, f: F) -> ParIter<U> {
        ParIter { items: pooled_map(self.items, f) }
    }

    /// Runs `f` on every item in parallel.
    pub fn for_each<F: Fn(T) + Sync>(self, f: F) {
        pooled_map(self.items, f);
    }

    /// Collects the (already ordered) results.
    pub fn collect<C: FromIterator<T>>(self) -> C {
        self.items.into_iter().collect()
    }

    /// Minimum under `cmp`, first-of-equals in input order (sequential
    /// reduction over the ordered results, so the winner is deterministic).
    pub fn min_by<F: FnMut(&T, &T) -> std::cmp::Ordering>(self, mut cmp: F) -> Option<T> {
        let mut best: Option<T> = None;
        for item in self.items {
            best = match best {
                None => Some(item),
                Some(b) => {
                    if cmp(&item, &b) == std::cmp::Ordering::Less {
                        Some(item)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        best
    }

    /// Filters then maps in parallel (parallel `map`, sequential compaction).
    pub fn filter_map<U: Send, F: Fn(T) -> Option<U> + Sync>(self, f: F) -> ParIter<U> {
        ParIter { items: pooled_map(self.items, f).into_iter().flatten().collect() }
    }
}

/// Conversion into a [`ParIter`] by value.
pub trait IntoParallelIterator {
    /// Item type.
    type Item: Send;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> ParIter<Self::Item>;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    fn into_par_iter(self) -> ParIter<T> {
        ParIter { items: self }
    }
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Item = usize;
    fn into_par_iter(self) -> ParIter<usize> {
        ParIter { items: self.collect() }
    }
}

/// Borrowing parallel iteration over slices.
pub trait ParallelSlice<T: Sync> {
    /// Parallel iterator over `&T`.
    fn par_iter(&self) -> ParIter<&T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_iter(&self) -> ParIter<&T> {
        ParIter { items: self.iter().collect() }
    }
}

/// Mutable chunked parallel iteration over slices (for blocked kernels).
pub trait ParallelSliceMut<T: Send> {
    /// Parallel iterator over non-overlapping mutable chunks of `size`.
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParIter<&mut [T]> {
        ParIter { items: self.chunks_mut(size).collect() }
    }
}

pub mod prelude {
    //! Glob-import surface mirroring `rayon::prelude`.
    pub use crate::{IntoParallelIterator, ParallelSlice, ParallelSliceMut};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn map_preserves_order() {
        let v: Vec<usize> = (0..1000).collect();
        let out: Vec<usize> = v.into_par_iter().map(|x| x * 2).collect();
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn enumerate_then_map_keeps_indices() {
        let v = vec!["a", "b", "c"];
        let out: Vec<(usize, &str)> = v.into_par_iter().enumerate().map(|p| p).collect();
        assert_eq!(out, vec![(0, "a"), (1, "b"), (2, "c")]);
    }

    #[test]
    fn min_by_takes_first_of_equals() {
        let v = vec![(3, 'a'), (1, 'b'), (1, 'c'), (2, 'd')];
        let m = v.into_par_iter().min_by(|x, y| x.0.cmp(&y.0)).unwrap();
        assert_eq!(m, (1, 'b'));
    }

    #[test]
    fn chunks_mut_touch_disjoint_regions() {
        let mut buf = vec![0u32; 64];
        buf.par_chunks_mut(16).enumerate().for_each(|(i, chunk)| {
            for v in chunk.iter_mut() {
                *v = i as u32;
            }
        });
        for (i, v) in buf.iter().enumerate() {
            assert_eq!(*v, (i / 16) as u32);
        }
    }

    #[test]
    fn thread_count_set_after_the_first_call_is_honoured() {
        // The fallback is cached; the environment is not. Sibling tests
        // only read the count, so a transient override cannot break them.
        let saved = std::env::var_os("RAYON_NUM_THREADS");
        std::env::remove_var("RAYON_NUM_THREADS");
        let first = super::current_num_threads();
        std::env::set_var("RAYON_NUM_THREADS", "3");
        assert_eq!(super::current_num_threads(), 3);
        std::env::set_var("RAYON_NUM_THREADS", "0");
        assert_eq!(super::current_num_threads(), first);
        match saved {
            Some(v) => std::env::set_var("RAYON_NUM_THREADS", v),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
    }

    #[test]
    fn nested_calls_do_not_deadlock() {
        let v: Vec<usize> = (0..64).collect();
        let out: Vec<usize> = v
            .into_par_iter()
            .map(|x| {
                let inner: Vec<usize> = vec![x, x + 1].into_par_iter().map(|y| y * 10).collect();
                inner.iter().sum()
            })
            .collect();
        assert_eq!(out[3], 30 + 40);
    }
}
