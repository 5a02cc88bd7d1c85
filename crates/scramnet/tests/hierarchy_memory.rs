//! A ring hierarchy is freed when it is dropped, so a host process that
//! builds one after another allocates bank storage once. A leaf holds the
//! backbone through its bridge's tap, and the backbone holds each leaf
//! only weakly through its own: were both holds strong, no ring of any
//! hierarchy would ever be dropped, and every build would take fresh pages
//! and page tables for all of its rings.
//!
//! One test in its own binary: the free list it reads is the process's,
//! and a test on another harness thread would take from it.

use des::Simulation;
use scramnet::{bank_storage_allocated, HierarchyConfig, RingHierarchy};

/// Build a 2-leaf hierarchy, send one block across it, and drop it all.
fn build_and_drop() {
    let mut sim = Simulation::new();
    let h = RingHierarchy::new(
        &sim.handle(),
        HierarchyConfig {
            leaves: 2,
            hosts_per_leaf: 2,
            words: 4096,
        },
    );
    let nic = h.nic(0);
    // Three pages of every bank, and of every ring's owner table.
    sim.spawn("w", move |ctx| nic.write_block(ctx, 200, &[7; 600]));
    assert!(sim.run().is_clean());
    assert_eq!(h.snapshot(3)[799], 7, "the block crossed the backbone");
    assert!(h.conflicts().is_empty());
}

#[test]
fn repeated_hierarchies_leave_bank_storage_flat() {
    build_and_drop();
    let warm = bank_storage_allocated();
    for round in 0..5 {
        build_and_drop();
        assert_eq!(bank_storage_allocated(), warm, "round {round}");
    }
}
