//! Minimal work-stealing-free parallel map on scoped `std::thread`s.
//!
//! Replaces the former rayon dependency for the sweep. Every `(config,
//! seed)` run is an independent deterministic simulation, so a shared
//! atomic work index plus per-worker result buffers is all the machinery
//! the grid needs — no locks around the work items, no channels, and the
//! output order is re-established from recorded indices.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Apply `f` to every item in parallel, on `workers` threads (`0` means
/// one per core), and return results in input order.
///
/// `f` must be `Sync` because all workers share it; items are handed out
/// through an atomic cursor so threads self-balance on uneven run times.
/// The result must not depend on `workers`: items are independent and the
/// output is reassembled in input order, so any thread count yields the
/// same vector. Tests pin this down by sweeping worker counts.
pub fn par_map_with_workers<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    // No point spawning more threads than there are items.
    let workers = match workers {
        0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(items.len());
    if workers == 1 {
        return items.iter().map(&f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut buffers: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        out.push((i, f(&items[i])));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("par_map worker panicked")).collect()
    });

    // Reassemble in input order.
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for buf in buffers.drain(..) {
        for (i, r) in buf {
            slots[i] = Some(r);
        }
    }
    slots.into_iter().map(|r| r.expect("par_map missed an item")).collect()
}

/// Render a panic payload as a string (the common `&str`/`String` payloads
/// verbatim, anything else as a placeholder).
pub fn payload_to_string(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// [`par_map_with_workers`] that isolates worker panics.
///
/// A panic inside `f` is caught with `catch_unwind` and returned as
/// `Err(payload)` for that item; every other item keeps running on its
/// worker. This is what makes an 810-cell sweep survive one poisoned cell
/// instead of tearing the whole process down at `join()`.
pub fn par_try_map_with_workers<T, R, F>(
    items: &[T],
    workers: usize,
    f: F,
) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // `f` only sees one item per call and the closure environment is
    // `Sync`-shared read-only state; a panic cannot leave partially
    // mutated state visible to other items, so the unwind-safety assertion
    // is sound for the pure run functions this executor exists for.
    par_map_with_workers(items, workers, |item| {
        catch_unwind(AssertUnwindSafe(|| f(item))).map_err(payload_to_string)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<u32> = par_map_with_workers(&[] as &[u32], 0, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map_with_workers(&items, 0, |&x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_item_runs_inline() {
        let out = par_map_with_workers(&[41u32], 0, |&x| x + 1);
        assert_eq!(out, vec![42]);
    }

    #[test]
    fn explicit_worker_counts_agree() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * x).collect();
        for workers in [0, 1, 2, 3, 8] {
            assert_eq!(par_map_with_workers(&items, workers, |&x| x * x), expect);
        }
    }

    #[test]
    fn uneven_work_still_complete() {
        let items: Vec<u32> = (0..64).collect();
        let out = par_map_with_workers(&items, 0, |&x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn try_map_isolates_a_panicking_closure() {
        let items: Vec<u32> = (0..32).collect();
        let out = par_try_map_with_workers(&items, 0, |&x| {
            if x == 13 {
                panic!("poisoned cell {x}");
            }
            x * 2
        });
        assert_eq!(out.len(), 32);
        for (i, r) in out.iter().enumerate() {
            if i == 13 {
                let err = r.as_ref().unwrap_err();
                assert!(err.contains("poisoned cell 13"), "payload captured: {err}");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u32 * 2, "other items keep running");
            }
        }
    }

    #[test]
    fn try_map_panic_isolation_holds_for_every_worker_count() {
        let items: Vec<u32> = (0..16).collect();
        for workers in [0, 1, 2, 8] {
            let out = par_try_map_with_workers(&items, workers, |&x| {
                if x % 5 == 0 {
                    panic!("boom {x}");
                }
                x
            });
            let failed: Vec<usize> =
                out.iter().enumerate().filter(|(_, r)| r.is_err()).map(|(i, _)| i).collect();
            assert_eq!(failed, vec![0, 5, 10, 15], "workers={workers}");
        }
    }
}
