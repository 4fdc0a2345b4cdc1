//! A counting global allocator for traced runs.
//!
//! It forwards to the system allocator and, only while counting is
//! switched on, tallies allocations made inside wrapped netsim calls
//! apart from those made anywhere else, and tracks the peak of the heap
//! bytes allocated outside netsim calls. A thread marks which [`Zone`]
//! it is in with [`enter`] / [`leave`]; the mark is thread-local, so
//! parallel workers attribute their own calls. The benchmark's own
//! bookkeeping runs in [`Zone::Bench`], which is not counted at all.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};

/// The allocator type installed by `main`.
pub struct Counting;

// All counters are statistics: they publish no other data, so every
// access is `Relaxed`.
static ENABLED: AtomicBool = AtomicBool::new(false);
static NET_ALLOCS: AtomicU64 = AtomicU64::new(0);
static OUT_ALLOCS: AtomicU64 = AtomicU64::new(0);
static OUT_LIVE: AtomicI64 = AtomicI64::new(0);
static OUT_PEAK: AtomicI64 = AtomicI64::new(0);

/// Where a thread's allocations are attributed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Zone {
    /// The program outside netsim calls.
    Out,
    /// Inside a wrapped netsim call.
    Net,
    /// The benchmark's own bookkeeping: not counted. Memory allocated
    /// here must also be freed here, or the live-heap tally drifts.
    Bench,
}

thread_local! {
    static ZONE: Cell<Zone> = const { Cell::new(Zone::Out) };
}

fn zone() -> Zone {
    ZONE.try_with(Cell::get).unwrap_or(Zone::Out)
}

fn on_alloc(size: usize) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    match zone() {
        Zone::Net => {
            NET_ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        Zone::Out => {
            OUT_ALLOCS.fetch_add(1, Ordering::Relaxed);
            let live = OUT_LIVE.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
            OUT_PEAK.fetch_max(live, Ordering::Relaxed);
        }
        Zone::Bench => {}
    }
}

fn on_free(size: usize) {
    if ENABLED.load(Ordering::Relaxed) && zone() == Zone::Out {
        OUT_LIVE.fetch_sub(size as i64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the bookkeeping around the
// calls only touches atomics and a const-initialised thread-local
// `Cell<Zone>`, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        on_free(layout.size());
        // SAFETY: the caller passes a block this allocator (hence
        // `System`) returned for `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `realloc`'s contract; the block came
        // from `System` through this allocator.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            on_free(layout.size());
            on_alloc(new_size);
        }
        p
    }
}

/// Allocation tallies since the last [`start`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Allocations made inside wrapped netsim calls.
    pub net_allocs: u64,
    /// Allocations made anywhere else.
    pub out_allocs: u64,
    /// Peak heap bytes allocated outside netsim calls and still live,
    /// above the level at [`start`].
    pub out_peak_bytes: u64,
}

/// Zeroes the tallies and starts counting.
pub fn start() {
    NET_ALLOCS.store(0, Ordering::Relaxed);
    OUT_ALLOCS.store(0, Ordering::Relaxed);
    OUT_LIVE.store(0, Ordering::Relaxed);
    OUT_PEAK.store(0, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Stops counting and returns the tallies.
pub fn stop() -> Counts {
    ENABLED.store(false, Ordering::Relaxed);
    Counts {
        net_allocs: NET_ALLOCS.load(Ordering::Relaxed),
        out_allocs: OUT_ALLOCS.load(Ordering::Relaxed),
        out_peak_bytes: OUT_PEAK.load(Ordering::Relaxed).max(0) as u64,
    }
}

/// Attributes this thread's allocations to `zone`; returns the previous
/// zone for [`leave`].
pub fn enter(zone: Zone) -> Zone {
    ZONE.try_with(|c| c.replace(zone)).unwrap_or(Zone::Out)
}

/// Restores the zone [`enter`] returned.
pub fn leave(previous: Zone) {
    let _ = ZONE.try_with(|c| c.set(previous));
}
