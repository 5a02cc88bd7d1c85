//! A single-writer event flag: one producer signals state transitions;
//! any number of consumers poll or sleep on the NIC interrupt — the
//! building block of SCRAMNet's original real-time applications (mode
//! switches, frame-ready signals).

use des::{ProcCtx, Signal, Time};
use scramnet::{Nic, NicView, Word, WordAddr};

/// Layout: a single word, written only by the owning node. The owner
/// binds the one handle that sets it; every node may bind one that reads
/// and waits.
///
/// ```
/// use scramnet::{CostModel, Ring};
/// use shmem::EventFlag;
///
/// let mut sim = des::Simulation::new();
/// let ring = Ring::new(&sim.handle(), 2, 16, CostModel::default());
/// let flag = EventFlag::layout(0, 0);
/// let owner = flag.owner_handle(ring.nic(0));
/// let mut reader = flag.handle(&ring.nic(1));
/// sim.spawn("owner", move |ctx| owner.set(ctx, 1));
/// sim.spawn("reader", move |ctx| reader.wait_value(ctx, 1));
/// assert!(sim.run().is_clean());
/// ```
///
/// A reader's handle has no `set`:
///
/// ```compile_fail,E0599
/// use scramnet::{CostModel, Ring};
/// use shmem::EventFlag;
///
/// let mut sim = des::Simulation::new();
/// let ring = Ring::new(&sim.handle(), 2, 16, CostModel::default());
/// let reader = EventFlag::layout(0, 0).handle(&ring.nic(1));
/// sim.spawn("reader", move |ctx| reader.set(ctx, 1));
/// ```
#[derive(Debug, Clone)]
pub struct EventFlag {
    addr: WordAddr,
    owner: usize,
}

impl EventFlag {
    /// Place an event flag at `addr`, writable by `owner`.
    pub fn layout(addr: WordAddr, owner: usize) -> Self {
        EventFlag { addr, owner }
    }

    /// Bind any node's NIC to read the flag and wait on it.
    pub fn handle(&self, nic: &NicView) -> EventFlagHandle {
        EventFlagHandle {
            addr: self.addr,
            nic: nic.clone(),
            interrupt: None,
        }
    }

    /// Bind the owner's NIC to set the flag. Panics for another node's
    /// NIC: the single-writer discipline is checked here, once.
    pub fn owner_handle(&self, nic: Nic) -> EventFlagOwner {
        assert_eq!(
            nic.node(),
            self.owner,
            "event flag bound for writing by non-owner node {}",
            nic.node()
        );
        EventFlagOwner {
            addr: self.addr,
            nic,
        }
    }
}

/// The owner's handle on an [`EventFlag`]: the one way to set it.
pub struct EventFlagOwner {
    addr: WordAddr,
    nic: Nic,
}

impl EventFlagOwner {
    /// Publish a new value.
    pub fn set(&self, ctx: &mut ProcCtx, value: Word) {
        self.nic.write_word(ctx, self.addr, value);
    }
}

/// Polling pause used by [`EventFlagHandle::wait_value`].
const BACKOFF_NS: Time = 500;

/// One node's read side of an [`EventFlag`].
pub struct EventFlagHandle {
    addr: WordAddr,
    nic: NicView,
    interrupt: Option<Signal>,
}

impl EventFlagHandle {
    /// Arm the NIC's interrupt-on-write for this flag; subsequent waits
    /// sleep instead of polling.
    pub fn arm_interrupt(&mut self, signal: Signal) {
        self.nic.watch(self.addr..self.addr + 1, signal.clone());
        self.interrupt = Some(signal);
    }

    /// Read the current (replicated) value.
    fn get(&self, ctx: &mut ProcCtx) -> Word {
        self.nic.read_word(ctx, self.addr)
    }

    /// Block until the flag equals `value`; returns immediately if it
    /// already does.
    pub fn wait_value(&mut self, ctx: &mut ProcCtx, value: Word) {
        loop {
            // Before the read: whatever lands from here on wakes the wait.
            let ticket = self.interrupt.as_ref().map(|sig| ctx.ticket(sig));
            if self.get(ctx) == value {
                return;
            }
            match ticket {
                Some(ticket) => ctx.wait(ticket),
                None => ctx.advance(BACKOFF_NS),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use des::{us, Simulation};
    use scramnet::{CostModel, Ring};

    #[test]
    fn polling_waiter_observes_transition() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 16, CostModel::default());
        let flag = EventFlag::layout(3, 0);
        let owner = flag.owner_handle(ring.nic(0));
        let mut waiter = flag.handle(&ring.nic(1));
        sim.spawn("owner", move |ctx| {
            ctx.wait_until(us(100));
            owner.set(ctx, 0xAA);
        });
        sim.spawn("waiter", move |ctx| {
            waiter.wait_value(ctx, 0xAA);
            assert!(ctx.now() >= us(100));
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    fn interrupt_waiter_sleeps_instead_of_polling() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 16, CostModel::default());
        let flag = EventFlag::layout(3, 0);
        let owner = flag.owner_handle(ring.nic(0));
        let mut waiter = flag.handle(&ring.nic(1));
        let sig = sim.handle().new_signal();
        waiter.arm_interrupt(sig);
        sim.spawn("owner", move |ctx| {
            ctx.wait_until(us(500));
            owner.set(ctx, 7);
        });
        sim.spawn("waiter", move |ctx| {
            waiter.wait_value(ctx, 7);
            assert!(ctx.now() >= us(500));
        });
        let report = sim.run();
        assert!(report.is_clean(), "deadlocked: {:?}", report.deadlocked);
        // Interrupt mode: a handful of PIO reads, not ~1000 poll spins.
        assert!(
            ring.stats().pio_reads < 10,
            "polled {} times",
            ring.stats().pio_reads
        );
        assert_eq!(ring.stats().interrupts, 1);
    }

    #[test]
    fn wait_on_already_set_value_returns_immediately() {
        let mut sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 16, CostModel::default());
        let flag = EventFlag::layout(0, 0);
        let (owner, mut reader) = (flag.owner_handle(ring.nic(0)), flag.handle(&ring.nic(0)));
        sim.spawn("owner", move |ctx| {
            owner.set(ctx, 5);
            let t = ctx.now();
            reader.wait_value(ctx, 5);
            assert_eq!(ctx.now(), t + CostModel::default().pio_read_ns);
        });
        assert!(sim.run().is_clean());
    }

    #[test]
    #[should_panic(expected = "non-owner")]
    fn non_owner_writes_are_rejected() {
        let sim = Simulation::new();
        let ring = Ring::new(&sim.handle(), 2, 16, CostModel::default());
        EventFlag::layout(0, 0).owner_handle(ring.nic(1));
    }
}
