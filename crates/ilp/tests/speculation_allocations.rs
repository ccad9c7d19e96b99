//! The speculative helper thread allocates nothing of its own.
//!
//! A branch-and-bound solve that may use two threads hands the next open
//! node's propagation and warm LP to a helper thread, with every buffer the
//! task writes allocated on the searching thread. This binary counts, with
//! a counting global allocator, the bytes freshly allocated on the helper
//! threads of a few LP-bounded BIST solves. A reallocation of a buffer the
//! searching thread handed over stays in the arena that buffer came from,
//! so it is counted apart; std's thread start-up may allocate a little.
//!
//! It runs without the test harness, so the main thread is the searching
//! thread and no harness thread allocates beside it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use bist_core::{SynthesisConfig, SynthesisEngine};
use bist_ilp::{BoundMode, Budget, SolverConfig};

/// Bytes a helper thread may allocate per solve: std's thread start-up.
const PER_SOLVE: u64 = 4 * 1024;

/// Bytes freshly allocated on helper threads.
static FRESH: AtomicU64 = AtomicU64::new(0);
/// Bytes by which helper threads grew buffers they were handed.
static GROWN: AtomicU64 = AtomicU64::new(0);
/// Buffers freed on helper threads: a finished task drops its vectors there.
static FREED: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Whether this thread is a speculation helper: unknown until its name
    /// reads as one, then set. The searching thread marks itself `Some(false)`.
    static HELPER: Cell<Option<bool>> = const { Cell::new(None) };
}

#[cfg(target_os = "linux")]
extern "C" {
    fn pthread_self() -> usize;
    fn pthread_getname_np(thread: usize, name: *mut u8, len: usize) -> i32;
}

/// Whether the calling thread is a speculation helper, by the name the
/// solver gives it (the kernel keeps 15 bytes of it). Reads the name with
/// one system call and no allocation until the thread reads as one.
fn on_helper() -> bool {
    if let Some(known) = HELPER.get() {
        return known;
    }
    let mut name = [0u8; 16];
    // SAFETY: `name` has room for the 16 bytes the call may write.
    #[cfg(target_os = "linux")]
    let read = unsafe { pthread_getname_np(pthread_self(), name.as_mut_ptr(), name.len()) } == 0;
    #[cfg(not(target_os = "linux"))]
    let read = false;
    let helper = read && name.starts_with(b"bist-speculat");
    if helper {
        HELPER.set(Some(true));
    }
    helper
}

struct Counting;

// SAFETY: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if on_helper() {
            FRESH.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if on_helper() {
            FRESH.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if on_helper() {
            FREED.fetch_add(1, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if on_helper() {
            let grown = new_size.saturating_sub(layout.size());
            GROWN.fetch_add(grown as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn main() {
    HELPER.set(Some(false));
    let config = SynthesisConfig {
        solver: SolverConfig {
            budget: Budget::nodes(200),
            bound_mode: BoundMode::LpRelaxation,
            ..SolverConfig::default()
        },
        ..SynthesisConfig::default()
    };
    let mut solves = 0;
    for input in [
        bist_dfg::benchmarks::tseng(),
        bist_dfg::benchmarks::paulin(),
    ] {
        let engine = SynthesisEngine::new(&input, &config).expect("engine");
        let mut previous = None;
        for k in 1..=2 {
            let out = engine
                .synthesize_observed(k, previous.as_ref(), &mut |_| {})
                .expect("synthesis");
            previous = Some(out.registers);
            solves += 1;
        }
    }
    let fresh = FRESH.load(Ordering::Relaxed);
    let grown = GROWN.load(Ordering::Relaxed);
    let freed = FREED.load(Ordering::Relaxed);
    eprintln!("{solves} solves: helpers allocated {fresh} bytes, grew buffers by {grown} bytes, freed {freed} buffers");
    assert!(
        fresh <= solves * PER_SOLVE,
        "helper threads allocated {fresh} bytes over {solves} solves"
    );
    let two_threads = std::thread::available_parallelism().is_ok_and(|n| n.get() >= 2);
    if cfg!(target_os = "linux") && two_threads {
        assert!(freed > 0, "no helper thread finished a task");
    }
}
