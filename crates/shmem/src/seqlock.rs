//! A single-writer sequence lock: consistent multi-word snapshots over
//! replicated memory without blocking the writer.
//!
//! A multi-word record (say, a 6-DOF aircraft state) written with plain
//! stores can be read *torn*: the replication applies word by word, so a
//! reader can see half of update *n* and half of update *n+1*. The cure
//! on single-writer regular registers is Lamport's two-counter
//! construction (*Concurrent Reading While Writing*, 1977):
//!
//! - **writer**: `v1 := version+1`, data words, `v2 := version+1`;
//! - **reader**: read `v2` **first**, then the data, then `v1`; accept
//!   iff `v1 == v2`.
//!
//! The counter order is the whole trick. Any update whose data words
//! could contaminate the reader's data read must — by the per-source
//! FIFO of the replication — have landed its `v1` *before* those data
//! words; the reader reads `v1` *after* the data, so it observes the new
//! value and the mismatch with the earlier `v2` read rejects the
//! snapshot. (Reading the counters in the opposite order admits torn
//! snapshots; the regression test
//! `tests::counter_order_is_load_bearing` demonstrates the broken
//! variant failing.)

use des::{ProcCtx, Time};
use scramnet::{Nic, Word, WordAddr};

/// Layout: `v1`, `data[words]`, `v2` — all written only by `owner`.
#[derive(Debug, Clone)]
pub struct SeqLock {
    base: WordAddr,
    words: usize,
    owner: usize,
}

impl SeqLock {
    /// Place a sequence-locked record of `words` payload words at `base`
    /// (occupies `words + 2`), writable by node `owner`.
    pub fn layout(base: WordAddr, words: usize, owner: usize) -> Self {
        assert!(words >= 1, "an empty record needs no lock");
        SeqLock { base, words, owner }
    }

    /// Total words occupied (payload + two version words).
    pub fn total_words(&self) -> usize {
        self.words + 2
    }

    fn v1(&self) -> WordAddr {
        self.base
    }

    fn data(&self) -> WordAddr {
        self.base + 1
    }

    fn v2(&self) -> WordAddr {
        self.base + 1 + self.words
    }

    /// Bind to a NIC. Only the owner's handle may publish.
    pub fn handle(&self, nic: Nic) -> SeqLockHandle {
        SeqLockHandle {
            lock: self.clone(),
            nic,
            version: 0,
        }
    }
}

/// Retry pause used by [`SeqLockHandle::read`].
const BACKOFF_NS: Time = 400;

/// One node's view of a [`SeqLock`].
pub struct SeqLockHandle {
    lock: SeqLock,
    nic: Nic,
    /// Writer-local version mirror.
    version: Word,
}

impl SeqLockHandle {
    /// Publish a new value of the record. Owner only; never blocks.
    pub fn publish(&mut self, ctx: &mut ProcCtx, value: &[Word]) {
        assert_eq!(
            self.nic.node(),
            self.lock.owner,
            "seqlock written by non-owner node {}",
            self.nic.node()
        );
        assert_eq!(
            value.len(),
            self.lock.words,
            "record length is fixed at layout time"
        );
        let next = self.version.wrapping_add(1);
        self.nic.write_word(ctx, self.lock.v1(), next);
        // Word-by-word stores, as a compiler emits for a struct update —
        // each word is its own ring packet, so replicas genuinely apply
        // the record piecemeal (a single burst would replicate as one
        // atomic train and mask exactly the hazard this lock exists for).
        for (i, &w) in value.iter().enumerate() {
            self.nic.write_word(ctx, self.lock.data() + i, w);
        }
        self.nic.write_word(ctx, self.lock.v2(), next);
        self.version = next;
    }

    /// Read a consistent snapshot (retrying in virtual time while an
    /// update is in flight). Returns the payload and its version.
    pub fn read(&mut self, ctx: &mut ProcCtx) -> (Vec<Word>, Word) {
        loop {
            if let Some(out) = self.try_read(ctx) {
                return out;
            }
            ctx.advance(BACKOFF_NS);
        }
    }

    /// One non-retrying attempt: `None` if an update was in flight.
    /// Counter order per the module docs: `v2`, data, `v1`.
    fn try_read(&mut self, ctx: &mut ProcCtx) -> Option<(Vec<Word>, Word)> {
        let v2 = self.nic.read_word(ctx, self.lock.v2());
        let mut data = vec![0; self.lock.words];
        self.nic.read_block(ctx, self.lock.data(), &mut data);
        let v1 = self.nic.read_word(ctx, self.lock.v1());
        (v1 == v2).then_some((data, v1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::Simulation;
    use parking_lot::Mutex;
    use scramnet::{CostModel, Ring};
    use std::sync::Arc;

    /// Records are `[k, k*2, k*3]` — torn snapshots are detectable.
    fn record(k: Word) -> Vec<Word> {
        vec![k, k.wrapping_mul(2), k.wrapping_mul(3)]
    }

    fn coherent(v: &[Word]) -> bool {
        v[1] == v[0].wrapping_mul(2) && v[2] == v[0].wrapping_mul(3)
    }

    #[test]
    fn snapshots_are_never_torn_under_continuous_writes() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
        let sl = SeqLock::layout(0, 3, 0);
        let mut w = sl.handle(ring.nic(0));
        let mut r = sl.handle(ring.nic(1));
        sim.spawn("writer", move |ctx| {
            for k in 1..200u32 {
                w.publish(ctx, &record(k));
                ctx.advance(700);
            }
        });
        sim.spawn("reader", move |ctx| {
            let mut last_version = 0;
            for _ in 0..300 {
                let (snap, version) = r.read(ctx);
                if version > 0 {
                    assert!(
                        coherent(&snap),
                        "torn snapshot {snap:?} at version {version}"
                    );
                }
                assert!(version >= last_version, "versions went backwards");
                last_version = version;
                ctx.advance(500);
            }
        });
        let report = sim.run();
        assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
    }

    #[test]
    fn raw_reads_of_the_same_traffic_do_tear() {
        // The control experiment: read the words without the version
        // protocol under the same write pattern; torn snapshots appear.
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
        let sl = SeqLock::layout(0, 3, 0);
        let mut w = sl.handle(ring.nic(0));
        let nic = ring.nic(1);
        let data_base = 1; // SeqLock's data starts one past base
        sim.spawn("writer", move |ctx| {
            for k in 1..200u32 {
                w.publish(ctx, &record(k));
                ctx.advance(700);
            }
        });
        let torn = Arc::new(Mutex::new(0u32));
        let torn2 = Arc::clone(&torn);
        sim.spawn("raw-reader", move |ctx| {
            for _ in 0..300 {
                let mut snap = [0; 3];
                nic.read_block(ctx, data_base, &mut snap);
                if snap[0] != 0 && !coherent(&snap) {
                    *torn2.lock() += 1;
                }
                ctx.advance(500);
            }
        });
        sim.run();
        assert!(
            *torn.lock() > 0,
            "expected raw reads to tear under this pattern"
        );
    }

    #[test]
    fn counter_order_is_load_bearing() {
        // The broken reader (v1 first, v2 last — the "obvious" order)
        // accepts torn snapshots under the same traffic. This pins the
        // reasoning in the module docs.
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
        let sl = SeqLock::layout(0, 3, 0);
        let mut w = sl.handle(ring.nic(0));
        let nic = ring.nic(1);
        sim.spawn("writer", move |ctx| {
            for k in 1..400u32 {
                w.publish(ctx, &record(k));
                ctx.advance(600);
            }
        });
        let torn_accepted = Arc::new(Mutex::new(0u32));
        let torn2 = Arc::clone(&torn_accepted);
        sim.spawn("broken-reader", move |ctx| {
            for _ in 0..600 {
                let v1 = nic.read_word(ctx, 0);
                let mut data = [0; 3];
                nic.read_block(ctx, 1, &mut data);
                let v2 = nic.read_word(ctx, 4);
                if v1 == v2 && data[0] != 0 && !coherent(&data) {
                    *torn2.lock() += 1;
                }
                ctx.advance(300);
            }
        });
        sim.run();
        assert!(
            *torn_accepted.lock() > 0,
            "the reversed counter order should have accepted torn snapshots"
        );
    }

    #[test]
    fn try_read_succeeds_after_quiescence() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
        let sl = SeqLock::layout(8, 2, 0);
        let mut w = sl.handle(ring.nic(0));
        let mut r = sl.handle(ring.nic(1));
        sim.spawn("writer", move |ctx| {
            w.publish(ctx, &[1, 2]);
        });
        sim.spawn("reader", move |ctx| {
            ctx.wait_until(des::us(100));
            let (snap, v) = r.try_read(ctx).expect("stable after quiescence");
            assert_eq!(snap, vec![1, 2]);
            assert_eq!(v, 1);
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    #[should_panic(expected = "non-owner")]
    fn non_owner_publish_rejected() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
        let sl = SeqLock::layout(0, 2, 0);
        let mut intruder = sl.handle(ring.nic(1));
        sim.spawn("x", move |ctx| intruder.publish(ctx, &[1, 2]));
        sim.run();
    }

    #[test]
    fn version_wraps_safely() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 64, CostModel::default());
        let sl = SeqLock::layout(0, 1, 0);
        let mut w = sl.handle(ring.nic(0));
        w.version = Word::MAX;
        let mut r = sl.handle(ring.nic(1));
        sim.spawn("writer", move |ctx| {
            w.publish(ctx, &[42]); // version wraps to 0
            assert_eq!(w.version, 0);
        });
        sim.spawn("reader", move |ctx| {
            ctx.wait_until(des::us(100));
            let (snap, v) = r.read(ctx);
            assert_eq!(snap, vec![42]);
            assert_eq!(v, 0);
        });
        assert!(sim.run().is_clean());
    }
}
