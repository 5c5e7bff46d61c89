//! The producer side of the feedback path allocates nothing at steady
//! state: an `observe` copies its point into the queue's coordinate ring,
//! whose capacity outlives every drain, instead of into a fresh `Vec` per
//! observation.
//!
//! A counting global allocator tallies allocations per thread, so only
//! the observe loop on the test's own thread is counted. This binary
//! holds a single test to keep the allocator's count its own.

use mlq_core::Space;
use mlq_serve::{ConcurrentEstimator, MaintainerMode, ServeConfig};
use mlq_udfs::ExecutionCost;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// `System`, counting every allocation and reallocation.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments;
// the counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const OBSERVATIONS: usize = 1_000;

#[test]
fn warmed_observe_allocates_nothing() {
    let space = Space::cube(3, 0.0, 100.0).expect("space");
    let config = ServeConfig {
        maintainer: MaintainerMode::Manual,
        queue_capacity: 4 * OBSERVATIONS,
        ..ServeConfig::default()
    };
    let svc = ConcurrentEstimator::builder(config)
        .register("A", &space)
        .and_then(|b| b.register("B", &space))
        .and_then(|b| b.build())
        .expect("build");
    let names = ["A", "B"];
    let observe_round = |round: usize| {
        for i in 0..OBSERVATIONS {
            let x = ((i * 37 + round * 11) % 100) as f64;
            let cost = ExecutionCost { cpu: 1.0 + x / 10.0, io: 2.0, results: 1 };
            svc.observe(names[i % 2], &[x, 100.0 - x, 50.0], cost).expect("observe");
        }
    };
    // One round grows the queue's rings to a full round's size.
    observe_round(0);
    svc.step(usize::MAX).expect("step");

    let before = allocations();
    observe_round(1);
    let during = allocations() - before;
    assert_eq!(during, 0, "{OBSERVATIONS} warmed observes allocated {during} times");
    assert_eq!(svc.step(usize::MAX).expect("step"), OBSERVATIONS);
}
