//! Persistent-pool accounting through the process-global
//! [`rayon_shim::pool_stats`] counters.
//!
//! This test owns its binary: its "serial fast path must never touch the
//! pool" check compares two reads of the global job counter, so no other
//! test may run bulk operations in the same process.

use rayon_shim::prelude::*;
use rayon_shim::{ThreadPool, ThreadPoolBuilder};

fn pool(n: usize) -> ThreadPool {
    ThreadPoolBuilder::new().num_threads(n).build().unwrap()
}

#[test]
fn persistent_pool_engages_and_counts_handoffs() {
    rayon_shim::set_bulk_mode(rayon_shim::BulkMode::Persistent);
    let before = rayon_shim::pool_stats();
    let total: u64 = pool(4).install(|| (0..4096u64).into_par_iter().sum());
    assert_eq!(total, 4096 * 4095 / 2);
    let after = rayon_shim::pool_stats();
    assert!(
        after.jobs > before.jobs,
        "multi-threaded bulk op must dispatch a pool job"
    );
    assert!(after.handoffs >= before.handoffs);
    assert!(after.workers_spawned >= 1);

    // Thread count 1 short-circuits before the pool: no job published.
    let before = rayon_shim::pool_stats();
    let serial: u64 = pool(1).install(|| (0..4096u64).into_par_iter().sum());
    assert_eq!(serial, total);
    assert_eq!(
        rayon_shim::pool_stats().jobs,
        before.jobs,
        "serial fast path must never touch the pool"
    );
}
