//! A counting `#[global_allocator]`: forwards to the system allocator and,
//! only while switched on, tracks live bytes, their peak and the number
//! of allocations. Switched off it adds one relaxed load per call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;

/// The allocator `main.rs` installs.
pub struct Counting;

// Statistics only: nothing is published through these, so `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
// Signed: memory allocated before switching on may be freed while on.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
    ALLOCS.fetch_add(1, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping touches only atomics
// and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as is.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr`, `layout` and `new_size` are the caller's, passed
        // through as is.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        p
    }
}

/// What [`measure`] saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemStats {
    /// Highest live heap, in bytes above the level at switch-on.
    pub peak_live_bytes: u64,
    /// Allocations (reallocations included) made while switched on.
    pub allocs: u64,
}

/// One measurement at a time: the counters are process-wide.
static MEASURING: Mutex<()> = Mutex::new(());

/// Runs `f` with counting switched on and returns its result with what
/// was counted, all threads included.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, MemStats) {
    // A panic inside an earlier `f` leaves nothing half-updated here.
    let _one = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ALLOCS.store(0, Relaxed);
    ON.store(true, Relaxed);
    let out = f();
    ON.store(false, Relaxed);
    let stats = MemStats {
        peak_live_bytes: PEAK.load(Relaxed).max(0) as u64,
        allocs: ALLOCS.load(Relaxed),
    };
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sees_a_known_allocation_and_nothing_while_off() {
        const BYTES: usize = 3 << 20;
        let (v, on) = measure(|| vec![1u8; BYTES]);
        assert!(on.peak_live_bytes >= BYTES as u64, "{on:?}");
        assert!(on.allocs >= 1);
        // Switched off, the same allocation leaves every counter alone.
        // Holding the lock keeps a concurrent test from switching it on.
        let _one = MEASURING.lock().unwrap_or_else(|e| e.into_inner());
        let before = (LIVE.load(Relaxed), PEAK.load(Relaxed), ALLOCS.load(Relaxed));
        let w = vec![2u8; BYTES];
        let after = (LIVE.load(Relaxed), PEAK.load(Relaxed), ALLOCS.load(Relaxed));
        assert_eq!(before, after);
        assert_eq!(v.len() + w.len(), 2 * BYTES);
    }
}
