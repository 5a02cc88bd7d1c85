//! Sender-side flow control: the credit ledger and the deferred-doorbell
//! counters. Both are purely local bookkeeping over words the protocol
//! already has — a consumed `ACK` toggle *is* the credit return, and a
//! deferred `MESSAGE` toggle is published by the next write of that flag
//! word — so neither adds a shared word nor changes the layout
//! (`docs/RPC.md` builds request/reply backpressure on it).

use des::{ProcCtx, Time};

use crate::config::{BbpConfig, CreditConfig};
use crate::core::{Core, Doorbell, Wait};
use crate::error::BbpError;

/// Flow-control state for one endpoint. Empty (no ledger, nothing
/// deferred) it costs a send two length checks.
pub(crate) struct Flow {
    credit: Option<CreditConfig>,
    /// Send credits available per peer. Non-empty iff the credit
    /// extension is on; every entry starts at the configured grant, is
    /// debited per posted message per target, and is refunded when the
    /// slot's ACK-carried return is collected (or eagerly when a failed
    /// send's slot is reclaimed).
    avail: Vec<u32>,
    /// Deferred posts per receiver: MESSAGE flag toggles accumulated in
    /// the core's local copy but not yet written to the bank. Empty under
    /// the reliability extension, whose per-send confirmation needs every
    /// flag written at once — the state a deferred post would use does
    /// not exist there.
    deferred: Vec<u32>,
}

impl Flow {
    pub(crate) fn new(config: &BbpConfig) -> Self {
        let n = config.nprocs;
        Flow {
            credit: config.credit,
            avail: config.credit.map_or(Vec::new(), |cr| vec![cr.per_peer; n]),
            deferred: match config.reliability {
                None => vec![0; n],
                Some(_) => Vec::new(),
            },
        }
    }

    /// Debit one send credit per target, blocking in the collection loop
    /// (or failing fast with [`BbpError::NoCredit`]) while any target's
    /// grant is exhausted: a `collect` sweep that frees an acknowledged
    /// slot refunds its targets. No-op when the credit extension is off.
    pub(crate) fn acquire(
        &mut self,
        ctx: &mut ProcCtx,
        core: &mut Core,
        targets: &[usize],
        deadline: Option<Time>,
        mut collect: impl FnMut(&mut Core, &mut Self, &mut ProcCtx) -> usize,
    ) -> Result<(), BbpError> {
        let Some(cr) = self.credit else {
            return Ok(());
        };
        loop {
            let Some(starved) = targets.iter().copied().find(|&t| self.avail[t] == 0) else {
                for &t in targets {
                    self.avail[t] -= 1;
                }
                return Ok(());
            };
            if cr.fail_fast {
                // Fail fast forgoes *waiting*, not the free work of
                // collecting already-acknowledged slots: one sweep may
                // refund the starved peer right now. Only give up once a
                // sweep frees nothing.
                if collect(core, self, ctx) > 0 {
                    continue;
                }
                core.stats.no_credit_failures += 1;
                core.count(ctx, "bbp.no_credit", 1);
                return Err(BbpError::NoCredit { peer: starved });
            }
            core.stats.credit_stalls += 1;
            core.count(ctx, "bbp.credit_stalls", 1);
            if collect(core, self, ctx) == 0 {
                core.pace(ctx, Wait::ForAcks, deadline.is_some());
            }
            if deadline.is_some_and(|d| ctx.now() >= d) {
                return Err(BbpError::Timeout {
                    peer: starved,
                    attempts: 0,
                });
            }
        }
    }

    /// Refund one credit per target: nothing was posted, or the slot
    /// holding them was freed. No-op when the credit extension is off.
    pub(crate) fn refund(&mut self, targets: &[usize]) {
        if !self.avail.is_empty() {
            for &t in targets {
                self.avail[t] += 1;
            }
        }
    }

    /// A failed send's slot was reclaimed: return its credits *now*, not
    /// when the quarantined slot eventually resolves — a dead peer that
    /// will never ACK must not strand the channel's grant. The slot left
    /// the in-flight queue with the reclaim and its later resolution frees
    /// it without telling us, so the credits cannot be returned twice.
    pub(crate) fn reclaim(&mut self, core: &mut Core, slot: usize) {
        if !self.avail.is_empty() {
            core.stats.credits_reclaimed += core.slots[slot].targets.len() as u64;
            self.refund(&core.slots[slot].targets);
        }
    }

    /// See [`crate::BbpEndpoint::send_credits`].
    pub(crate) fn credits(&self, peer: usize) -> Option<u32> {
        self.avail.get(peer).copied()
    }

    /// The ledger's balance as a telemetry gauge (one relaxed load when
    /// telemetry is off).
    pub(crate) fn gauge_balance(&self, ctx: &ProcCtx, rank: usize) {
        let rec = ctx.obs();
        if !self.avail.is_empty() && rec.telemetry_on() {
            let bal: u64 = self.avail.iter().map(|&c| c as u64).sum();
            rec.gauge(ctx.now(), rank as u32, "bbp.credit_balance", bal);
        }
    }

    /// The doorbell state a deferred post accumulates in. Under the
    /// reliability extension there is none: per-send confirmation needs
    /// the flag written immediately.
    pub(crate) fn assert_deferrable(&self) {
        assert!(
            !self.deferred.is_empty(),
            "deferred posting is incompatible with the reliability extension"
        );
    }

    /// Account for the flag toggles of one post: an immediate write
    /// published every accumulated toggle for that receiver, so it
    /// flushed any deferred posts too.
    pub(crate) fn note_flags(&mut self, targets: &[usize], doorbell: Doorbell) {
        for &t in targets {
            if let Some(d) = self.deferred.get_mut(t) {
                *d = match doorbell {
                    Doorbell::Now => 0,
                    Doorbell::Deferred => *d + 1,
                };
            }
        }
    }

    /// See [`crate::BbpEndpoint::ring_doorbell`].
    pub(crate) fn ring_doorbell(
        &mut self,
        ctx: &mut ProcCtx,
        core: &mut Core,
        dst: usize,
    ) -> usize {
        let covered = self.deferred.get(dst).copied().unwrap_or(0) as usize;
        if covered == 0 {
            return 0;
        }
        self.deferred[dst] = 0;
        core.write_flag(ctx, dst);
        core.count(ctx, "bbp.doorbells", 1);
        if covered > 1 {
            let saved = (covered - 1) as u64;
            core.stats.flag_writes_coalesced += saved;
            core.count(ctx, "bbp.flag_writes_coalesced", saved);
        }
        covered
    }

    /// With [`Core::reset_send_state`]: the full grant toward everyone,
    /// nothing deferred.
    pub(crate) fn reset(&mut self) {
        if let Some(cr) = self.credit {
            self.avail.fill(cr.per_peer);
        }
        self.deferred.fill(0);
    }

    /// No ledger and nothing deferred: the paper's endpoint.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.credit.is_none() && self.avail.is_empty() && self.deferred.iter().all(|&d| d == 0)
    }
}
