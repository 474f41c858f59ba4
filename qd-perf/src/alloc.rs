//! A counting global allocator: how many allocations, and of how many
//! bytes, a stretch of in-process work makes. Bench-only — the shipped
//! binaries keep the system allocator, and this one forwards to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator with two relaxed counters in front. The counters
/// publish nothing but themselves, so `Relaxed` is enough.
pub struct CountingAlloc;

fn charge(bytes: usize) {
    COUNT.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
#[allow(unsafe_code)]
// qd-lint: allow(unsafe-hygiene) -- bench-only allocation counter
unsafe impl GlobalAlloc for CountingAlloc {
    // qd-lint: allow(unsafe-hygiene) -- bench-only allocation counter
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        // qd-lint: allow(unsafe-hygiene) -- bench-only allocation counter
        unsafe { System.alloc(layout) }
    }

    // qd-lint: allow(unsafe-hygiene) -- bench-only allocation counter
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        charge(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        // qd-lint: allow(unsafe-hygiene) -- bench-only allocation counter
        unsafe { System.alloc_zeroed(layout) }
    }

    // qd-lint: allow(unsafe-hygiene) -- bench-only allocation counter
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`, as the caller guarantees.
        // qd-lint: allow(unsafe-hygiene) -- bench-only allocation counter
        unsafe { System.dealloc(ptr, layout) }
    }

    // qd-lint: allow(unsafe-hygiene) -- bench-only allocation counter
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grow or shrink is one more trip to the allocator.
        charge(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is the caller's, all passed through as received.
        // qd-lint: allow(unsafe-hygiene) -- bench-only allocation counter
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation calls and requested bytes since the process started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocCount {
    pub count: u64,
    pub bytes: u64,
}

impl AllocCount {
    /// The counters now.
    pub fn now() -> AllocCount {
        AllocCount {
            count: COUNT.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }

    /// What was allocated since `earlier`.
    pub fn since(self, earlier: AllocCount) -> AllocCount {
        AllocCount {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The counters are process-wide and the test harness allocates on
    // other threads, so assert lower bounds, not equalities.
    #[test]
    fn counts_allocations_and_their_bytes() {
        let before = AllocCount::now();
        let v: Vec<u8> = Vec::with_capacity(1 << 20);
        std::hint::black_box(&v);
        let mut w: Vec<u64> = Vec::with_capacity(4);
        w.extend(0..1024); // forces at least one realloc
        std::hint::black_box(&w);
        let used = AllocCount::now().since(before);
        assert!(used.count >= 3, "{used:?}");
        assert!(used.bytes >= (1 << 20) + 1024 * 8, "{used:?}");
    }
}
