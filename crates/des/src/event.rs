//! Allocation-free event callbacks.
//!
//! The scheduler's hot path dispatches millions of hardware callbacks
//! (ring hops, NIC DMA completions, switch forwards). Boxing each one as
//! `Box<dyn FnOnce(Time)>` costs a heap round-trip per event; [`EventFn`]
//! instead stores small closures inline in the queue entry itself and
//! dispatches through a hand-rolled static vtable. Closures up to
//! [`INLINE_BYTES`] bytes never touch the allocator: enough for an `Arc`
//! and a 40-byte value beside it, which is what a ring hop carries (the
//! ring, and a packet's header with its pooled buffer inside), and the
//! NIC models' callbacks fit easily. Larger ones fall back to a single
//! thin `Box`.
//!
//! Every stored closure is a *link*: it runs as the [`Link`] the dispatch
//! loop lends it, and returns the event that follows it ([`Then`]), or
//! `None`. A plain `FnOnce(Time)` is a link that reads its time off the
//! `Link` and returns `None` ([`EventFn::new`]); a link of a series
//! ([`crate::SimHandle::schedule_series`]) runs each successor that is
//! next itself and hands the dispatch loop the one that is not, instead of
//! scheduling it. "Next" has one rule in `des`: the key sorts below the
//! agenda's bound, the queue's first key and the run's horizon. A link
//! asks it of its successor's key, `(at, seq + 1)`, against the bound read
//! at its pop ([`Link::next`], which enters nothing and says "no" once
//! anything entered the scheduler since); a stalling process asks it of the
//! key its `Resume` would get. The loop asks nothing of a successor it is
//! handed: it queues it.
//!
//! # Safety contract
//!
//! This is the one module of the workspace that says `unsafe` (`des`
//! denies `unsafe_code` and allows it here; every other crate forbids
//! it). Each `unsafe` site below cites one of three conditions, and
//! each condition names the tests at the bottom that exercise it.
//!
//! - **layout** — what `data` holds. [`EventFn::link`] is the only
//!   constructor that writes it ([`EventFn::new`] wraps its closure and
//!   calls `link`) and both fields are private, so `data` is written once,
//!   by `link::<F>`, together with a vtable instantiated for the same `F`.
//!   Under `INLINE` it holds an initialised `F` at offset 0, which `link`
//!   chooses only if `F` fits ([`VTableFor::FITS_INLINE`]: at most
//!   [`INLINE_BYTES`] bytes and at most `usize`-aligned, which
//!   `[MaybeUninit<usize>; _]` is). Under `BOXED` its first word holds
//!   the `*mut F` of a `Box::into_raw`. Moving an `EventFn` moves `data`
//!   bytewise, which is how Rust moves an `F` or a pointer anyway.
//!   (`zero_sized_closure_runs_inline`,
//!   `closure_of_exactly_the_inline_budget_runs_inline`,
//!   `small_over_aligned_closure_takes_the_box`,
//!   `a_successor_over_the_budget_takes_the_box_and_runs`.)
//! - **once** — the stored `F` leaves exactly once. There are two ways
//!   out: [`EventFn::call`], which takes `self` by value and wraps it in
//!   `ManuallyDrop` *before* the closure runs, so neither a return nor a
//!   panic inside the closure can reach `Drop` with `data` moved out;
//!   and `Drop`, which a value passed to `call` therefore never sees. A
//!   successor is a new `EventFn` the closure returns: it leaves the same
//!   two ways, whether it is run, dropped with its [`Then`], or dropped
//!   with the queue it was put in.
//!   (`panicking_closure_drops_its_captures_once`, the two `dropping_*`
//!   tests, `a_successor_dropped_uncalled_releases_its_captures_once`,
//!   `a_panicking_link_queues_nothing`, and `tests/alloc_free_dispatch.rs`
//!   for the box itself.)
//! - **send** — `link` demands `F: Send`, and the boxed pointer is owned
//!   by this value alone, so sending the `EventFn` sends one `F` and
//!   nothing shared. (Every process-backed test in the workspace runs
//!   events on whichever thread holds the baton.)

use std::marker::PhantomData;
use std::mem::{align_of, size_of, ManuallyDrop, MaybeUninit};

use crate::sched::{Link, Reserved};
use crate::time::Time;

/// Inline storage size, in pointer-sized words.
const INLINE_WORDS: usize = 6;

/// Closures at most this many bytes (and at most pointer-aligned) are
/// stored inline; the common hardware callbacks capture an `Arc` or two
/// and fit easily. Public so that a model whose closure must fit can
/// check it at compile time.
pub const INLINE_BYTES: usize = INLINE_WORDS * size_of::<usize>();

/// The event that follows a link: run `f` at `at`. A link of a series
/// ([`crate::SimHandle::schedule_series`]) returns one when
/// [`Link::next`] says it is not the next entry due, and the dispatch loop
/// queues it on the series' next tie-break value — or, for the first link
/// of a reserved series ([`Then::reserved`]), on the value its reservation
/// holds.
pub struct Then {
    pub(crate) at: Time,
    /// The tie-break value of a reserved series' first link; `None` for
    /// the running series' next.
    pub(crate) seq: Option<u64>,
    pub(crate) f: EventFn,
}

impl Then {
    /// The next link: `f` runs at `t`, and may itself return the one after.
    pub fn at(t: Time, f: impl FnOnce(&mut Link<'_>) -> Option<Then> + Send + 'static) -> Self {
        Then {
            at: t,
            seq: None,
            f: EventFn::link(f),
        }
    }

    /// The first link of the series `r` reserved
    /// ([`crate::SimHandle::reserve_series`]): `f` runs at `t` on the
    /// reservation's first tie-break value, and its successors on the
    /// values after it, as if the series had been scheduled when it was
    /// reserved. A link returns it in place of a successor of its own (the
    /// last link of a series has none); the dispatch loop queues it with
    /// the entry it makes after every link, and a `t` in the past of the
    /// link panics as [`Then::at`]'s does.
    pub fn reserved(
        r: Reserved,
        t: Time,
        f: impl FnOnce(&mut Link<'_>) -> Option<Then> + Send + 'static,
    ) -> Self {
        Then {
            at: t,
            seq: Some(r.into_raw()),
            f: EventFn::link(f),
        }
    }
}

/// The two operations the queue needs from an erased closure. `call`
/// consumes the value in place and returns its successor; `drop` destroys
/// it without calling (a queue being discarded mid-simulation). Both take
/// the `data` of an `EventFn` built with this vtable's `F` and storage
/// kind (**layout**), and after either returns or unwinds `data` is moved
/// out (**once**).
struct VTable {
    call: unsafe fn(*mut u8, &mut Link<'_>) -> Option<Then>,
    drop: unsafe fn(*mut u8),
}

/// Per-closure-type vtable instances. `&VTableFor::<F>::INLINE` promotes
/// to a `'static` borrow, so no registration or allocation is needed.
struct VTableFor<F>(PhantomData<F>);

/// # Safety
///
/// `p` is the `data` of an `EventFn` built by `link::<F>` on the inline
/// path, and nothing reads it as an `F` afterwards.
unsafe fn call_inline<F: FnOnce(&mut Link<'_>) -> Option<Then>>(
    p: *mut u8,
    link: &mut Link<'_>,
) -> Option<Then> {
    // SAFETY: layout — `p` is aligned for `F` and holds an initialised
    // one. once — `read` moves it out before it runs, so a panic inside
    // drops the captures from this frame, and the caller never touches
    // `data` again. (`link` is an ordinary borrow, unrelated to `data`.)
    (p.cast::<F>().read())(link)
}

/// # Safety
///
/// As [`call_inline`].
unsafe fn drop_inline<F>(p: *mut u8) {
    // SAFETY: layout — a valid, aligned `F`; once — dropped here and
    // never read again (the caller is `Drop::drop`).
    p.cast::<F>().drop_in_place()
}

/// # Safety
///
/// `p` is the `data` of an `EventFn` built by `link::<F>` on the boxed
/// path, and nothing reads its pointer afterwards.
unsafe fn call_boxed<F: FnOnce(&mut Link<'_>) -> Option<Then>>(
    p: *mut u8,
    link: &mut Link<'_>,
) -> Option<Then> {
    // SAFETY: layout — the first word is the pointer `Box::into_raw`
    // gave `link`; once — this is the only `from_raw` it will see. The
    // `F` moves out of the box to be called; the emptied box is freed on
    // return and on unwind alike.
    (*Box::from_raw(p.cast::<*mut F>().read()))(link)
}

/// # Safety
///
/// As [`call_boxed`].
unsafe fn drop_boxed<F>(p: *mut u8) {
    // SAFETY: as `call_boxed`; dropping the box drops the `F` and frees
    // the allocation.
    drop(Box::from_raw(p.cast::<*mut F>().read()))
}

impl<F> VTableFor<F> {
    /// Whether an `F` may live in `EventFn::data` itself (**layout**).
    const FITS_INLINE: bool =
        size_of::<F>() <= INLINE_BYTES && align_of::<F>() <= align_of::<usize>();
}

impl<F: FnOnce(&mut Link<'_>) -> Option<Then> + Send + 'static> VTableFor<F> {
    const INLINE: VTable = VTable {
        call: call_inline::<F>,
        drop: drop_inline::<F>,
    };
    const BOXED: VTable = VTable {
        call: call_boxed::<F>,
        drop: drop_boxed::<F>,
    };
}

/// An erased `FnOnce(&mut Link) -> Option<Then> + Send` with inline
/// small-closure storage.
pub struct EventFn {
    data: [MaybeUninit<usize>; INLINE_WORDS],
    vtable: &'static VTable,
}

// SAFETY: send — the two fields are plain words and a `&'static` to an
// immutable table of fn pointers; what `data` stands for is one `F: Send`
// (inline, or behind a pointer nothing else holds), and it is only ever
// moved, run or dropped through this value.
unsafe impl Send for EventFn {}

impl EventFn {
    /// Wrap a plain closure as a link with no successor, handed its
    /// link's time. The wrapper holds `f` and nothing else, so it is
    /// stored as `f` would be.
    pub fn new<F: FnOnce(Time) + Send + 'static>(f: F) -> Self {
        Self::link(move |link: &mut Link<'_>| {
            f(link.now());
            None
        })
    }

    /// Wrap a link, storing it inline when it fits.
    pub fn link<F: FnOnce(&mut Link<'_>) -> Option<Then> + Send + 'static>(f: F) -> Self {
        let mut data = [MaybeUninit::<usize>::uninit(); INLINE_WORDS];
        if VTableFor::<F>::FITS_INLINE {
            // SAFETY: layout — `FITS_INLINE` says `data` is big enough
            // and aligned enough for an `F`; it is uninitialised, so the
            // write overwrites nothing that needs dropping.
            unsafe { data.as_mut_ptr().cast::<F>().write(f) };
            EventFn {
                data,
                vtable: &VTableFor::<F>::INLINE,
            }
        } else {
            // SAFETY: layout — a thin pointer is one `usize`-aligned word
            // and `data` has `INLINE_WORDS` of them.
            unsafe {
                data.as_mut_ptr()
                    .cast::<*mut F>()
                    .write(Box::into_raw(Box::new(f)))
            };
            EventFn {
                data,
                vtable: &VTableFor::<F>::BOXED,
            }
        }
    }

    /// Invoke the closure as `link`, consuming it; returns the event that
    /// follows it, if it is a link of a series.
    pub fn call(self, link: &mut Link<'_>) -> Option<Then> {
        let mut this = ManuallyDrop::new(self);
        // SAFETY: layout — `vtable` and `data` were paired by `link`;
        // once — `self` came by value and is under `ManuallyDrop`, so
        // this is the only use of `data` and `Drop` cannot follow it,
        // whether the closure returns or panics. A successor it returns
        // is an `EventFn` of its own, paired by its own `link`; one it
        // runs in place itself (`Link::next`) is code of its own body,
        // not a second use of `data`.
        unsafe { (this.vtable.call)(this.data.as_mut_ptr().cast(), link) }
    }
}

impl Drop for EventFn {
    fn drop(&mut self) {
        // SAFETY: layout — as in `call`; once — `drop` runs at most once
        // and never on a value `call` consumed.
        unsafe { (self.vtable.drop)(self.data.as_mut_ptr().cast()) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::SchedShared;
    use std::mem::{align_of_val, size_of_val};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Run `f` at `t`, as a link that takes no successor in place.
    fn call(f: EventFn, t: Time) -> Option<Then> {
        let sched = SchedShared::new();
        f.call(&mut Link::alone(&sched, t))
    }

    /// Where `link` will put this closure (**layout**).
    fn fits_inline<F>(_: &F) -> bool {
        VTableFor::<F>::FITS_INLINE
    }

    #[test]
    fn small_closure_runs_inline() {
        let hit = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hit);
        let f = EventFn::new(move |t| h.store(t, Ordering::SeqCst));
        call(f, 42);
        assert_eq!(hit.load(Ordering::SeqCst), 42);
    }

    #[test]
    fn large_closure_falls_back_to_box() {
        let big = [7u64; 32]; // 256 bytes, far over the inline budget
        let hit = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hit);
        let f = EventFn::new(move |t| h.store(t + big[31], Ordering::SeqCst));
        call(f, 1);
        assert_eq!(hit.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn dropping_without_calling_releases_captures() {
        let payload = Arc::new(());
        let witness = Arc::clone(&payload);
        let f = EventFn::new(move |_| drop(payload));
        assert_eq!(Arc::strong_count(&witness), 2);
        drop(f);
        assert_eq!(Arc::strong_count(&witness), 1);
    }

    #[test]
    fn dropping_large_closure_releases_captures_and_box() {
        let payload = Arc::new([0u8; 128]);
        let witness = Arc::clone(&payload);
        let big = [0u64; 16];
        let f = EventFn::new(move |_| {
            std::hint::black_box(&big);
            drop(payload)
        });
        assert_eq!(Arc::strong_count(&witness), 2);
        drop(f);
        assert_eq!(Arc::strong_count(&witness), 1);
    }

    /// **layout**, at its lower edge: a zero-sized `F` is written to and
    /// read from `data` like any other (no bytes move; the pointer is
    /// aligned and non-null, which is all a zero-sized access asks).
    #[test]
    fn zero_sized_closure_runs_inline() {
        static HIT: AtomicU64 = AtomicU64::new(0);
        let f = |t| HIT.store(t, Ordering::SeqCst);
        assert_eq!(size_of_val(&f), 0);
        assert!(fits_inline(&f));
        call(EventFn::new(f), 7);
        assert_eq!(HIT.load(Ordering::SeqCst), 7);
        drop(EventFn::new(|_| HIT.store(0, Ordering::SeqCst)));
        assert_eq!(HIT.load(Ordering::SeqCst), 7, "dropped, not called");
    }

    /// **layout**, at its upper edge: an `F` of exactly `INLINE_BYTES`
    /// fills `data` to its last word and comes back whole.
    #[test]
    fn closure_of_exactly_the_inline_budget_runs_inline() {
        let words: [usize; INLINE_WORDS - 1] = std::array::from_fn(|i| i + 1);
        let hit = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hit);
        let f = move |t: Time| {
            let sum = words.iter().sum::<usize>() as u64;
            h.store(t + sum, Ordering::SeqCst)
        };
        assert_eq!(size_of_val(&f), INLINE_BYTES);
        assert!(fits_inline(&f));
        call(EventFn::new(f), 100);
        let sum: usize = (1..INLINE_WORDS).sum();
        assert_eq!(hit.load(Ordering::SeqCst), 100 + sum as u64);
    }

    /// **layout**: size alone does not admit an `F` — one that is small
    /// but wants more alignment than `data` has takes the box, which
    /// aligns it, and runs from there.
    #[test]
    fn small_over_aligned_closure_takes_the_box() {
        #[repr(align(32))]
        struct Aligned(Arc<AtomicU64>);
        let hit = Arc::new(AtomicU64::new(0));
        let aligned = Aligned(Arc::clone(&hit));
        let f = move |t: Time| {
            let whole = &aligned; // capture the struct, not just its field
            whole.0.store(t, Ordering::SeqCst)
        };
        assert!(size_of_val(&f) <= INLINE_BYTES && align_of_val(&f) == 32);
        assert!(!fits_inline(&f));
        call(EventFn::new(f), 5);
        assert_eq!(hit.load(Ordering::SeqCst), 5, "ran");
        assert_eq!(Arc::strong_count(&hit), 1, "and released its capture");
    }

    /// **once**: a closure that panics inside `call` has already been
    /// moved out of `data`, and `call` holds the `EventFn` under
    /// `ManuallyDrop` — so the unwind drops its captures exactly once,
    /// inline and boxed alike.
    #[test]
    fn panicking_closure_drops_its_captures_once() {
        let drops = Arc::new(AtomicU64::new(0));

        let capture = CountsDrops(Arc::clone(&drops));
        let inline = move |_: Time| {
            let _held = &capture;
            panic!("event closure panicked (inline)")
        };
        assert!(fits_inline(&inline));
        let f = EventFn::new(inline);
        assert!(catch_unwind(AssertUnwindSafe(|| call(f, 0))).is_err());
        assert_eq!(drops.load(Ordering::SeqCst), 1, "inline");

        let capture = CountsDrops(Arc::clone(&drops));
        let pad = [0u64; 16];
        let boxed = move |_: Time| {
            let _held = (&capture, std::hint::black_box(&pad));
            panic!("event closure panicked (boxed)")
        };
        assert!(!fits_inline(&boxed));
        let f = EventFn::new(boxed);
        assert!(catch_unwind(AssertUnwindSafe(|| call(f, 0))).is_err());
        assert_eq!(drops.load(Ordering::SeqCst), 2, "boxed");
    }

    /// Counts how often a value of it was dropped.
    struct CountsDrops(Arc<AtomicU64>);

    impl Drop for CountsDrops {
        fn drop(&mut self) {
            self.0.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// **layout**: a link that fits inline may return a successor that
    /// does not; the successor takes the box and runs from there, and a
    /// series handed to the scheduler does the same.
    #[test]
    fn a_successor_over_the_budget_takes_the_box_and_runs() {
        let hit = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hit);
        let first = move |link: &mut Link<'_>| {
            let pad = [1u64; 16];
            let boxed = move |link: &mut Link<'_>| {
                h.store(link.now() + pad.iter().sum::<u64>(), Ordering::SeqCst);
                None
            };
            assert!(!fits_inline(&boxed));
            Some(Then::at(link.now() + 10, boxed))
        };
        assert!(fits_inline(&first));
        let then = call(EventFn::link(first), 5).expect("a successor");
        assert_eq!(then.at, 15);
        assert!(call(then.f, then.at).is_none());
        assert_eq!(hit.load(Ordering::SeqCst), 15 + 16);
        assert_eq!(Arc::strong_count(&hit), 1, "and released its capture");

        let mut sim = crate::Simulation::new();
        let h = Arc::clone(&hit);
        sim.handle().schedule_series(100, 2, move |link| {
            let pad = [2u64; 16];
            Some(Then::at(link.now() + 10, move |link| {
                h.store(link.now() + pad.iter().sum::<u64>(), Ordering::SeqCst);
                None
            }))
        });
        assert_eq!(sim.run().dispatches, 2);
        assert_eq!(hit.load(Ordering::SeqCst), 110 + 32);
    }

    /// **once**: a successor that is never called leaves through `Drop` —
    /// dropped with its `Then`, or with the queue of a simulation dropped
    /// mid-series — and releases its captures exactly once.
    #[test]
    fn a_successor_dropped_uncalled_releases_its_captures_once() {
        let drops = Arc::new(AtomicU64::new(0));
        let capture = CountsDrops(Arc::clone(&drops));
        let then = call(
            EventFn::link(move |link| {
                Some(Then::at(link.now(), move |_| {
                    let _held = &capture;
                    unreachable!("never called")
                }))
            }),
            0,
        );
        assert_eq!(drops.load(Ordering::SeqCst), 0);
        drop(then);
        assert_eq!(drops.load(Ordering::SeqCst), 1, "dropped with its Then");

        let mut sim = crate::Simulation::new();
        let capture = CountsDrops(Arc::clone(&drops));
        sim.handle().schedule_series(10, 2, move |link| {
            Some(Then::at(link.now() + 100, move |_| {
                let _held = &capture;
                unreachable!("the simulation is dropped first")
            }))
        });
        assert_eq!(sim.run_until(50).dispatches, 1, "the first link ran");
        assert_eq!(drops.load(Ordering::SeqCst), 1, "its successor is queued");
        drop(sim);
        assert_eq!(drops.load(Ordering::SeqCst), 2, "dropped with the queue");
    }

    /// **once**: a link that panics returns nothing, so the loop queues
    /// nothing; a successor it had built is dropped by the unwind, once,
    /// and the run reports the link's own panic.
    #[test]
    fn a_panicking_link_queues_nothing() {
        let drops = Arc::new(AtomicU64::new(0));
        let capture = CountsDrops(Arc::clone(&drops));
        let mut sim = crate::Simulation::new();
        sim.handle().schedule_series(10, 2, move |link| {
            let _next = Then::at(link.now() + 100, move |_| {
                let _held = &capture;
                unreachable!("never queued")
            });
            panic!("a link panicked")
        });
        let err = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("EventPanic");
        assert_eq!(err.downcast_ref::<&str>(), Some(&"a link panicked"));
        assert_eq!(drops.load(Ordering::SeqCst), 1);
        assert_eq!(sim.handle().sched.core().agenda.pending.len(), 0);
    }
}
