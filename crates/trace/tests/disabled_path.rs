//! Disabled-path guard: with tracing off, span/instant macros record zero
//! events and perform zero heap allocations. Runs as its own integration
//! test binary so the counting global allocator and the global trace state
//! see no interference from other tests.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn disabled_tracing_allocates_nothing_and_records_nothing() {
    assert!(!mvp_trace::enabled());
    // Touch the thread id outside the measured window: it is a one-time
    // setup cost, not a per-span cost.
    let _ = mvp_trace::thread_id();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for i in 0..10_000i64 {
        let _span = mvp_trace::span!("test.disabled.span", iteration = i);
        mvp_trace::instant!("test.disabled.instant", iteration = i);
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);

    assert_eq!(
        after - before,
        0,
        "disabled span/instant paths must not allocate"
    );
    assert!(
        mvp_trace::drain().is_empty(),
        "disabled tracing records no events"
    );
}
