//! Integration tests for the segrout-par worker pool: panic propagation to
//! the caller, nested scopes, degenerate inputs, oversubscription (far more
//! tasks than workers), and counter-merge correctness under contention
//! (extending the atomicity pattern of `crates/obs/tests/obs.rs`).
//!
//! The thread-count override is process-global, so every test that changes
//! it holds `threads_lock()` — otherwise a concurrently running test could
//! flip the pool back to inline mode mid-batch. Results are identical
//! either way (that is the crate's contract); the lock keeps each test's
//! *scheduling* assumption (inline vs pooled) honest.

use segrout_par::{par_map, par_map_chunked, par_map_reduce, par_map_slice, set_threads};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

fn threads_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// Runs `f` with the override pinned to `n` threads, restoring the default
/// afterwards even if `f` panics.
fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    let _guard = threads_lock();
    set_threads(n);
    let result = catch_unwind(AssertUnwindSafe(f));
    set_threads(0);
    match result {
        Ok(r) => r,
        Err(payload) => std::panic::resume_unwind(payload),
    }
}

// ---------- degenerate inputs ----------

#[test]
fn empty_input_yields_empty_vec() {
    let out: Vec<u32> = with_threads(8, || par_map(0, |_| unreachable!("no items")));
    assert!(out.is_empty());
}

#[test]
fn single_item_runs_inline() {
    let out = with_threads(8, || par_map(1, |i| i + 10));
    assert_eq!(out, vec![10]);
}

#[test]
fn empty_slice_map() {
    let items: [u8; 0] = [];
    let out: Vec<u8> = with_threads(4, || par_map_slice(&items, |_, &x| x));
    assert!(out.is_empty());
}

// ---------- correctness at scale ----------

#[test]
fn many_more_tasks_than_workers() {
    const N: usize = 10_000;
    let out = with_threads(4, || par_map(N, |i| i * 3));
    assert_eq!(out.len(), N);
    for (i, &v) in out.iter().enumerate() {
        assert_eq!(v, i * 3);
    }
}

#[test]
fn chunk_size_never_changes_results() {
    let reference: Vec<u64> = (0..257).map(|i| i * i).collect();
    for threads in [1, 2, 8] {
        for chunk in [1, 3, 64, 1_000] {
            let got = with_threads(threads, || par_map_chunked(257, chunk, |i| (i * i) as u64));
            assert_eq!(got, reference, "threads={threads} chunk={chunk}");
        }
    }
}

#[test]
fn reduce_folds_in_index_order_under_contention() {
    // The fold result depends on order (string concatenation); it must be
    // the serial order at any thread count.
    let expected: String = (0..100).map(|i| format!("{i},")).collect();
    for threads in [1, 2, 8] {
        let got = with_threads(threads, || {
            par_map_reduce(
                100,
                |i| format!("{i},"),
                String::new(),
                |mut acc, s| {
                    acc.push_str(&s);
                    acc
                },
            )
        });
        assert_eq!(got, expected, "threads={threads}");
    }
}

// ---------- nesting ----------

#[test]
fn nested_scopes_complete_without_deadlock() {
    // Outer batch of 8, each spawning an inner batch of 50 — with only 2
    // pool threads this deadlocks unless callers participate in their own
    // batches.
    let out = with_threads(2, || {
        par_map(8, |i| {
            let inner = par_map(50, move |j| i * 50 + j);
            inner.iter().sum::<usize>()
        })
    });
    for (i, &s) in out.iter().enumerate() {
        let expected: usize = (0..50).map(|j| i * 50 + j).sum();
        assert_eq!(s, expected, "outer item {i}");
    }
}

#[test]
fn deeply_nested_scopes() {
    let total = with_threads(4, || {
        par_map_reduce(
            4,
            |a| {
                par_map_reduce(
                    4,
                    move |b| par_map(4, move |c| a + b + c),
                    0,
                    |acc, v| acc + v.iter().sum::<usize>(),
                )
            },
            0,
            |acc, v| acc + v,
        )
    });
    let mut expected = 0;
    for a in 0..4 {
        for b in 0..4 {
            for c in 0..4 {
                expected += a + b + c;
            }
        }
    }
    assert_eq!(total, expected);
}

// ---------- panic propagation ----------

#[test]
fn panic_in_worker_reaches_the_caller() {
    let result = with_threads(4, || {
        catch_unwind(AssertUnwindSafe(|| {
            par_map(100, |i| {
                if i == 57 {
                    panic!("boom at {i}");
                }
                i
            })
        }))
    });
    let payload = result.expect_err("the panic must propagate");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(msg.contains("boom at 57"), "payload: {msg:?}");
}

#[test]
fn pool_survives_a_panicked_batch() {
    with_threads(4, || {
        let _ = catch_unwind(AssertUnwindSafe(|| {
            par_map(64, |i| {
                if i % 2 == 0 {
                    panic!("even panic");
                }
                i
            })
        }));
        // The next batch on the same pool must run normally.
        let out = par_map(64, |i| i + 1);
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    });
}

#[test]
fn inline_path_panics_too() {
    let result = with_threads(1, || {
        catch_unwind(AssertUnwindSafe(|| {
            par_map(3, |_| -> u8 { panic!("serial boom") })
        }))
    });
    assert!(result.is_err());
}

// ---------- counter merge under contention ----------

#[test]
fn per_worker_counting_merges_exactly() {
    // Each task bumps a shared atomic once; the merged total must be exact
    // regardless of how chunks were distributed over workers. This is the
    // pool-level analogue of obs's `counter_is_atomic_under_threads`.
    const N: usize = 50_000;
    let hits = AtomicU64::new(0);
    with_threads(8, || {
        par_map_chunked(N, 7, |_| {
            hits.fetch_add(1, Ordering::Relaxed);
        })
    });
    assert_eq!(hits.load(Ordering::Relaxed), N as u64);
}

#[test]
fn obs_counters_merge_across_batches() {
    // The caller adds `par.tasks` once per batch, after every chunk has
    // completed; after two forced-parallel batches the counter must have
    // grown by exactly the number of chunks that exist, with no update
    // still in flight on a worker when `par_map_chunked` returns.
    // Hold the lock for the whole test so concurrently running tests cannot
    // run batches of their own between the two counter reads.
    let _guard = threads_lock();
    set_threads(4);
    let tasks = segrout_obs::counter("par.tasks");
    let batches = segrout_obs::counter("par.batches");
    let (t0, b0) = (tasks.get(), batches.get());
    let _ = par_map_chunked(100, 5, |i| i);
    let _ = par_map_chunked(100, 5, |i| i);
    set_threads(0);
    assert_eq!(batches.get() - b0, 2);
    // 100 items in chunks of 5 → exactly 20 chunks per batch.
    assert_eq!(tasks.get() - t0, 40);
}
