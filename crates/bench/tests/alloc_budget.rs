//! Steady-state heap-allocation budget for the per-instruction loop
//! of the simulator.
//!
//! A counting `GlobalAlloc` wraps the system allocator for this whole test
//! binary, and the steady-state allocation rate is measured
//! *differentially*: the same scheme runs twice from identical cold state
//! at two measure lengths, so warm-up and result-assembly allocations
//! subtract out and whatever remains was allocated per simulated
//! instruction. After the flattening pass that difference must be (almost
//! exactly) zero — the budget below tolerates only a handful of events per
//! *run* (a log-growth table doubling once past the short window), which is
//! orders of magnitude below one allocation per instruction.
//!
//! The counter is per thread: the test harness runs the three tests in
//! parallel, and a process-wide counter would charge each test with the
//! others' allocations. Every measured run executes on the calling
//! thread, so a thread-local count sees all of its allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use prophet_bench::Harness;
use prophet_workloads::workload_sized;

struct CountingAlloc;

thread_local! {
    // Const-initialized with a type that needs no destructor: accessing
    // it never allocates, so the allocator can touch it without recursing.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation event on the current thread. `try_with` keeps an
/// allocation during thread teardown from panicking inside the allocator.
fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the current thread makes while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Measures the marginal allocations of simulating `extra` more
/// instructions of `scheme` on a small fig15 workload, and asserts the
/// steady-state budget.
fn assert_steady_state_budget(scheme: &str, budget_per_run: u64) {
    const WARMUP: u64 = 300_000;
    const SHORT: u64 = 150_000;
    const EXTRA: u64 = 300_000;

    let run = |measure: u64| {
        let h = Harness {
            warmup: WARMUP,
            measure,
            ..Harness::default()
        };
        let w = workload_sized("bfs_80000_8", WARMUP + measure);
        allocs_during(|| match scheme {
            "baseline" => {
                h.baseline(w.as_ref());
            }
            "triangel" => {
                h.triangel(w.as_ref());
            }
            "prophet" => {
                h.prophet(w.as_ref());
            }
            other => panic!("unknown scheme: {other}"),
        })
    };

    let short = run(SHORT);
    let long = run(SHORT + EXTRA);
    let marginal = long.saturating_sub(short);
    assert!(
        marginal <= budget_per_run,
        "{scheme}: {marginal} heap allocations across the {EXTRA} extra \
         steady-state instructions (budget {budget_per_run} per run, \
         short-run total {short}) — the per-instruction loop allocates"
    );
}

#[test]
fn baseline_steady_state_allocates_nothing() {
    assert_steady_state_budget("baseline", 32);
}

#[test]
fn triangel_steady_state_allocates_nothing() {
    // Triangel adds the metadata table, bloom filter, and set-dueller to
    // the loop; all are preallocated or clear-in-place after warm-up.
    assert_steady_state_budget("triangel", 32);
}

#[test]
fn prophet_steady_state_allocates_nothing() {
    // The full profile-guided pipeline: trace scan, learned profile, and
    // the optimized run. The scan's per-PC tables keep growing slowly with
    // new (pc, delta) pairs, so its budget is looser — but still vanishing
    // against 300 000 instructions.
    assert_steady_state_budget("prophet", 512);
}
