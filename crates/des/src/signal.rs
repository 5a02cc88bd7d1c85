//! Signals: the blocking/wake-up primitive connecting hardware events
//! (packet arrival, NIC interrupt) to waiting processes.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::process::ProcId;
use crate::sched::{SchedShared, WakeWhat};
use crate::time::Time;

/// A multi-waiter wake-up channel that counts its notifications.
///
/// A process takes a [`Ticket`] with [`crate::ProcCtx::ticket`] *before*
/// it checks its condition, and sleeps on it with [`crate::ProcCtx::wait`]
/// once the check has found nothing; any entity — another process, or a
/// hardware event callback — wakes every current waiter with
/// [`Signal::notify_at`]. A notification that lands between the ticket and
/// the wait, while the check takes virtual time, is not lost: the wait
/// does not sleep, and resumes at that notification's instant. Wake-ups
/// may still be spurious from the waiter's perspective (several waiters
/// can race for one item), so waiters re-check their condition in a loop.
#[derive(Clone)]
pub struct Signal {
    sched: Arc<SchedShared>,
    state: Arc<Mutex<State>>,
}

/// Who a notification wakes: a process, if its entry still holds this
/// wait's number ([`crate::ProcCtx::wait_either`] registers one wait on two
/// signals: the first to notify clears the number, so the other wakes
/// nothing).
type Waiter = (ProcId, u64);

#[derive(Default)]
struct State {
    waiters: Vec<Waiter>,
    /// Notifications so far.
    count: usize,
    /// Tickets taken and not yet dropped.
    tickets: usize,
    /// The instants of the latest notifications, oldest first: every one
    /// that had not fired when the last ticket was taken, and every one
    /// since while a ticket is out. (A notification made with no ticket
    /// out counts for no ticket, so it is not kept: a signal nobody takes
    /// tickets on does not grow.)
    unfired: Vec<Time>,
}

/// What [`crate::ProcCtx::wait`] sleeps on: a [`Signal`]'s state, and how
/// many times it had been notified when the waiting process took this with
/// [`crate::ProcCtx::ticket`], before checking its condition.
#[must_use = "a ticket is taken before a check, to wait on after it"]
pub struct Ticket(Arc<Mutex<State>>, usize);

impl Signal {
    pub(crate) fn new(sched: Arc<SchedShared>) -> Self {
        let state = Arc::default();
        Signal { sched, state }
    }

    /// Wake every process currently waiting, scheduling each to resume at
    /// virtual time `t`, and count the notification for the tickets taken
    /// before it. A signal's notifications come in non-decreasing `t`.
    pub fn notify_at(&self, t: Time) {
        // Holding the lock across the pushes is safe: only one entity
        // executes at a time. Draining in place keeps the waiter Vec's
        // capacity, so a signal notified in the steady state never
        // reallocates.
        self.sched.assert_settled("notifying a signal");
        let mut state = self.state.lock();
        state.count += 1;
        if state.tickets > 0 {
            state.unfired.push(t);
        }
        if !state.waiters.is_empty() {
            let mut core = self.sched.core();
            for (id, wait) in state.waiters.drain(..) {
                // No entry: the world is being dropped, its table taken.
                if let Some(entry) = core.procs.get_mut(id.0).filter(|e| e.waiting == wait) {
                    entry.waiting = 0;
                    core.agenda.push(t, WakeWhat::Resume(id));
                }
            }
        }
    }

    /// A ticket taken at `now`, which forgets the instants that have fired.
    pub(crate) fn ticket(&self, now: Time) -> Ticket {
        let mut state = self.state.lock();
        state.unfired.retain(|&t| t > now);
        state.tickets += 1;
        Ticket(Arc::clone(&self.state), state.count)
    }
}

impl Ticket {
    /// At `now`: the instant the first notification since the ticket was
    /// taken fires at, or `now` if it has fired; `None` if there was none.
    fn notified(&self, now: Time) -> Option<Time> {
        let state = self.0.lock();
        let since = state.count - self.1;
        let first = state.unfired.len().checked_sub(since);
        (since > 0).then(|| first.map_or(now, |k| state.unfired[k].max(now)))
    }
}

/// At `now`, for a process waiting on `tickets`: `None`, with `waiter`
/// registered on each ticket's signal to be woken by whichever notifies
/// first, if none has been notified since its ticket was taken; else the
/// earliest instant [`Ticket::notified`] returns. The process calls
/// [`forget`] with `waiter` once it is awake.
pub(crate) fn redeem(tickets: &[&Ticket], waiter: Waiter, now: Time) -> Option<Time> {
    let first = tickets.iter().filter_map(|t| t.notified(now)).min();
    if first.is_none() {
        for ticket in tickets {
            ticket.0.lock().waiters.push(waiter);
        }
    }
    first
}

/// Take the registration [`redeem`] made off each ticket's signal: the one
/// that woke the process has let go of it already, another has not.
pub(crate) fn forget(tickets: &[&Ticket], waiter: Waiter) {
    for ticket in tickets {
        ticket.0.lock().waiters.retain(|&w| w != waiter);
    }
}

impl Drop for Ticket {
    /// A signal with no ticket out stops keeping instants; those it kept
    /// that have fired go when the next ticket is taken.
    fn drop(&mut self) {
        self.0.lock().tickets -= 1;
    }
}
