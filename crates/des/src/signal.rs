//! Signals: the blocking/wake-up primitive connecting hardware events
//! (packet arrival, NIC interrupt) to waiting processes.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::process::ProcId;
use crate::sched::{SchedShared, WakeWhat};
use crate::time::Time;

/// A multi-waiter wake-up channel.
///
/// A process blocks with [`crate::ProcCtx::wait`]; any entity — another
/// process, or a hardware event callback — wakes all current waiters with
/// [`Signal::notify_at`]. Wake-ups are edge-triggered and may be spurious
/// from the waiter's perspective (several waiters can race for one item),
/// so waiters always re-check their condition in a loop.
///
/// Because only one entity executes at a time, the check-then-wait sequence
/// inside a process is atomic with respect to notifications: a lost wake-up
/// is impossible as long as the condition is re-checked after registering.
#[derive(Clone)]
pub struct Signal {
    inner: Arc<SignalInner>,
}

struct SignalInner {
    sched: Arc<SchedShared>,
    waiters: Mutex<Vec<ProcId>>,
}

impl Signal {
    pub(crate) fn new(sched: Arc<SchedShared>) -> Self {
        Signal {
            inner: Arc::new(SignalInner {
                sched,
                waiters: Mutex::new(Vec::new()),
            }),
        }
    }

    pub(crate) fn register(&self, id: ProcId) {
        self.inner.waiters.lock().push(id);
    }

    /// Wake every process currently waiting, scheduling each to resume at
    /// virtual time `t`. Waiters that registered after this call are not
    /// woken (edge semantics).
    pub fn notify_at(&self, t: Time) {
        // Drain in place (not `mem::take`) so the waiter Vec keeps its
        // capacity: a signal notified in the steady state never
        // reallocates. Holding the lock across the pushes is safe —
        // `register` is only called from process context, and only one
        // entity executes at a time.
        self.inner.sched.assert_settled("notifying a signal");
        let mut waiters = self.inner.waiters.lock();
        if waiters.is_empty() {
            return;
        }
        let mut core = self.inner.sched.core();
        for id in waiters.drain(..) {
            core.agenda.push(t, WakeWhat::Resume(id));
        }
    }
}
