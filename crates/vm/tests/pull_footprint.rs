//! `Vm::try_take_trace(n)` reserves at most `MAX_RESERVED_RECORDS`
//! records before the program has produced them: a counting global
//! allocator measures the peak heap bytes of a pull. A cap far past the
//! program's end costs what the program emits, and a cap under the bound
//! reserves exactly its own records, once.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::mem::size_of;

use dfcm_trace::TraceRecord;
use dfcm_vm::{assemble, programs, Vm, MAX_RESERVED_RECORDS};

/// Counts the calling thread's live heap bytes and their high-water
/// mark. Per-thread, so tests running alongside do not disturb it.
struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grew(bytes: usize) {
    let live = LIVE.get() + bytes;
    LIVE.set(live);
    PEAK.set(PEAK.get().max(live));
}

fn shrank(bytes: usize) {
    LIVE.set(LIVE.get().saturating_sub(bytes));
}

// SAFETY: every method hands its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the bookkeeping only touches
// const-initialized thread-locals without destructors, which never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract passes straight through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and the caller guarantees `new_size`.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            // Count the old and new blocks as briefly live together.
            grew(new_size);
            shrank(layout.size());
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A fresh machine on the `fib` kernel, which halts after 164,179
/// records.
fn fib() -> Vm {
    Vm::new(assemble(programs::by_name("fib").unwrap()).unwrap())
}

/// The records `vm.try_take_trace(n)` returns, and the peak heap bytes
/// the pull held beyond what was live when it began.
fn pull(mut vm: Vm, n: usize) -> (usize, usize) {
    let base = LIVE.get();
    PEAK.set(base);
    let trace = vm.try_take_trace(n).expect("fib does not fault");
    (trace.len(), PEAK.get() - base)
}

#[test]
fn a_cap_past_the_program_reserves_at_most_the_bound() {
    let (records, peak) = pull(fib(), 20_000_000);
    assert_eq!(records, 164_179);
    let bound = MAX_RESERVED_RECORDS * size_of::<TraceRecord>();
    assert!(
        peak <= bound,
        "a 20M-record pull peaked at {peak} bytes, bound {bound}"
    );
}

#[test]
fn a_cap_under_the_bound_reserves_exactly_its_records() {
    // The caps `dfcm-repro` pulls with: Table 1's 64 Ki pulls and the
    // 100k–150k kernel traces, all under fib's length.
    for n in [65_536, 100_000, 150_000] {
        let (records, peak) = pull(fib(), n);
        assert_eq!(records, n);
        assert_eq!(peak, n * size_of::<TraceRecord>(), "a pull of {n}");
    }
}
