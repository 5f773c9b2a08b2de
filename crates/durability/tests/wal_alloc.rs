//! Heap-allocation check for the WAL's per-batch path: once warmed up, an
//! `append` of a micro-batch and its `batch_boundary` allocate nothing — the
//! record is framed in a buffer the writer keeps, and under `EveryBatch` the
//! segment travels to the sync thread and back over preallocated channels.
//!
//! The count is process-wide (the sync thread's allocations count too), so
//! this binary holds one test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct CountingAllocator;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

use dbtoaster_agca::UpdateEvent;
use dbtoaster_durability::{FsyncPolicy, WalWriter};
use dbtoaster_gmr::Value;

#[test]
fn a_warmed_up_append_and_batch_boundary_allocate_nothing() {
    // Server-sized batches of ~80-byte events, like a TPC-H lineitem stream.
    let batches: Vec<Vec<UpdateEvent>> = (0..4i64)
        .map(|b| {
            (0..512i64)
                .map(|i| {
                    let k = b * 512 + i;
                    let row = vec![
                        Value::long(k),
                        Value::double(k as f64 * 0.5),
                        Value::str(if k % 2 == 0 { "AIR" } else { "MAIL" }),
                    ];
                    UpdateEvent::insert("Lineitem", row)
                })
                .collect()
        })
        .collect();
    for policy in [FsyncPolicy::EveryBatch, FsyncPolicy::Never] {
        let dir =
            std::env::temp_dir().join(format!("dbt-wal-alloc-{policy:?}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Large segments: no rotation (which creates a file) in the window.
        let mut wal = WalWriter::open(&dir, 7, 1, policy, 1 << 30).unwrap();
        for batch in &batches {
            wal.append(batch).unwrap();
            wal.batch_boundary().unwrap();
        }
        let before = ALLOCS.load(Relaxed);
        for _ in 0..8 {
            for batch in &batches {
                wal.append(batch).unwrap();
                wal.batch_boundary().unwrap();
            }
        }
        let allocs = ALLOCS.load(Relaxed) - before;
        assert_eq!(allocs, 0, "{policy:?}: 32 warmed-up batches allocated");
        drop(wal);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
