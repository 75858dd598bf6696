//! Allocation counting for the traced run only.
//!
//! The process allocator forwards to [`wdm_alloc_count::CountingAlloc`]
//! while counting is switched on and straight to the system allocator
//! otherwise, so end-to-end runs pay one relaxed load per allocation and
//! no counter updates. Both paths allocate from [`System`], so memory
//! allocated in one mode may be freed in the other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, Ordering};

use wdm_alloc_count::CountingAlloc;

static COUNTER: CountingAlloc = CountingAlloc::new();
static COUNTING: AtomicBool = AtomicBool::new(false);

/// The benchmark's global allocator.
#[derive(Debug)]
pub struct GatedAlloc;

// SAFETY: every method passes its caller's arguments on unchanged to
// `System`, directly or through `CountingAlloc`, which bumps its counters
// and then calls `System` with the same arguments. So every block comes from
// `System` and may be resized or freed through `System` whichever path
// allocated it.
unsafe impl GlobalAlloc for GatedAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        if COUNTING.load(Ordering::Relaxed) {
            unsafe { COUNTER.alloc(layout) }
        } else {
            unsafe { System.alloc(layout) }
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is the caller's, forwarded unchanged.
        if COUNTING.load(Ordering::Relaxed) {
            unsafe { COUNTER.alloc_zeroed(layout) }
        } else {
            unsafe { System.alloc_zeroed(layout) }
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // `layout`, i.e. from `System` (see the impl comment).
        if COUNTING.load(Ordering::Relaxed) {
            unsafe { COUNTER.realloc(ptr, layout, new_size) }
        } else {
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`, `ptr` came from `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Switches allocation counting on or off.
pub fn set_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations plus reallocations counted so far.
pub fn heap_events() -> u64 {
    COUNTER.heap_events()
}

/// glibc's `mallopt` parameter for the most malloc arenas the process may
/// create.
const M_ARENA_MAX: i32 = -8;

extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Caps the number of glibc malloc arenas at `arenas`, whatever
/// `MALLOC_ARENA_MAX` or `GLIBC_TUNABLES` the process inherited. Call it
/// before any thread starts.
pub fn set_arena_max(arenas: i32) -> Result<(), String> {
    // SAFETY: `mallopt` takes two plain integers and only sets a malloc
    // parameter; no thread is allocating yet.
    if unsafe { mallopt(M_ARENA_MAX, arenas) } == 1 {
        Ok(())
    } else {
        Err(format!("mallopt(M_ARENA_MAX, {arenas}) failed"))
    }
}
