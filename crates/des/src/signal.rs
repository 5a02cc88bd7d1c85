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

/// Who a notification wakes.
enum Waiter {
    /// A process waiting on this signal alone.
    One(ProcId),
    /// A process waiting on this signal or another
    /// ([`crate::ProcCtx::wait_either`]): the first of them to notify
    /// takes it out, and the other finds it gone.
    Either(Arc<Mutex<Option<ProcId>>>),
}

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
            for waiter in state.waiters.drain(..) {
                let id = match waiter {
                    Waiter::One(id) => Some(id),
                    Waiter::Either(slot) => slot.lock().take(),
                };
                if let Some(id) = id {
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
    /// At `now`: `None`, with `id` registered to be woken, if nothing has
    /// been notified since the ticket was taken; else the instant the first
    /// such notification fires at, or `now` if it has fired.
    pub(crate) fn redeem(&self, id: ProcId, now: Time) -> Option<Time> {
        let notified = self.notified(now);
        if notified.is_none() {
            self.0.lock().waiters.push(Waiter::One(id));
        }
        notified
    }

    /// At `now`: the instant the first notification since the ticket was
    /// taken fires at, or `now` if it has fired; `None` if there was none.
    fn notified(&self, now: Time) -> Option<Time> {
        let state = self.0.lock();
        let since = state.count - self.1;
        let first = state.unfired.len().checked_sub(since);
        (since > 0).then(|| first.map_or(now, |k| state.unfired[k].max(now)))
    }
}

/// [`Ticket::redeem`] for a process waiting on two: `None`, with `id`
/// registered on both signals to be woken by whichever notifies first, if
/// neither has been notified since its ticket was taken; else the earlier
/// of the two instants `redeem` would return. The process calls `forget`
/// with the registration once it is awake.
pub(crate) fn redeem_either(
    tickets: [&Ticket; 2],
    id: ProcId,
    now: Time,
) -> Result<Time, Arc<Mutex<Option<ProcId>>>> {
    if let Some(t) = tickets.iter().filter_map(|t| t.notified(now)).min() {
        return Ok(t);
    }
    let slot = Arc::new(Mutex::new(Some(id)));
    for ticket in tickets {
        let waiter = Waiter::Either(Arc::clone(&slot));
        ticket.0.lock().waiters.push(waiter);
    }
    Err(slot)
}

/// Take the registration [`redeem_either`] made off both signals: the one
/// that woke the process has let go of it already, the other has not.
pub(crate) fn forget(tickets: [&Ticket; 2], slot: &Arc<Mutex<Option<ProcId>>>) {
    for ticket in tickets {
        let ours = |w: &Waiter| matches!(w, Waiter::Either(s) if Arc::ptr_eq(s, slot));
        ticket.0.lock().waiters.retain(|w| !ours(w));
    }
}

impl Drop for Ticket {
    /// A signal with no ticket out stops keeping instants; those it kept
    /// that have fired go when the next ticket is taken.
    fn drop(&mut self) {
        self.0.lock().tickets -= 1;
    }
}
