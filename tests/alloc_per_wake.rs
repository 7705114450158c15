//! Allocation ratchet for protocol wake planning: after a warm-up run
//! has sized the executor scratch, a second run of every registry
//! algorithm must allocate far less than once per node-wake.
//!
//! The protocols replan their next wake after every awake round; that
//! path keeps its tables across phases and plans blocks in fixed-size
//! values, so the only steady-state allocations left are the `NbrSet`
//! payloads the deterministic algorithms put in messages. Bringing back
//! one allocation per wake pushes the ratio past 1.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sleeping_mst::graphlib::generators;
use sleeping_mst::mst_core::{ExecOptions, MstScratch, ALGORITHMS};

/// Counts allocations made on a thread while that thread's flag is set,
/// so tests running in parallel do not pollute each other's counts.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn note_allocation() {
    // `try_with` so allocations during thread teardown are not an error.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping only touches const-initialized thread-local
// cells, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Runs `f` with this thread's counter on and returns its allocations.
fn count_allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    let out = f();
    COUNTING.with(|on| on.set(false));
    (out, ALLOCATIONS.with(Cell::get))
}

/// Ceiling on allocations per node-wake. Today's protocols stay under
/// 0.15 on `scale:256:2`; one allocation per wake would read above 1.
const MAX_ALLOCATIONS_PER_WAKE: f64 = 0.25;

#[test]
fn warm_runs_allocate_far_less_than_once_per_wake() {
    let graph = generators::from_spec("scale:256:2", 1).expect("graph spec");
    let opts = ExecOptions::seeded(1);
    for spec in ALGORITHMS {
        let mut scratch = MstScratch::new();
        let warm = spec
            .run_with_options(&graph, &opts, &mut scratch)
            .expect("warm-up run");
        let (second, allocations) =
            count_allocations(|| spec.run_with_options(&graph, &opts, &mut scratch));
        let second = second.expect("counted run");
        assert_eq!(second.edges, warm.edges, "{}: runs diverge", spec.name);
        let wakes = second.stats.awake_total();
        assert!(wakes > 0, "{}: no node woke", spec.name);
        let per_wake = allocations as f64 / wakes as f64;
        println!("{:>14}: {per_wake:.3} allocations per node-wake", spec.name);
        assert!(
            per_wake < MAX_ALLOCATIONS_PER_WAKE,
            "{}: {allocations} allocations over {wakes} node-wakes = {per_wake:.3} per wake \
             (limit {MAX_ALLOCATIONS_PER_WAKE})",
            spec.name
        );
    }
}
