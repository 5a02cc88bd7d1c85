//! The client side: per-channel credit grants, token matching, and
//! service-latency measurement. Built for open-loop load generation —
//! when a channel is out of credit the request is *shed* with a typed
//! error instead of blocking the arrival process.

use std::sync::Arc;

use bbp::{BbpEndpoint, BbpError, Slept};
use des::{ProcCtx, RoundGuard, Time};
use obs::LogHistogram;

use crate::buffer::{Header, MessageBuffer, Priority};
use crate::{blocks_for_credit, RpcError};

/// Client-side counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientStats {
    /// Requests successfully posted.
    pub sent: u64,
    /// Replies matched back to a pending request.
    pub completed: u64,
    /// Requests shed because the channel's credit grant was exhausted.
    pub shed: u64,
    /// Requests shed because the BBP credit extension (fail-fast mode)
    /// reported the transport itself out of credit.
    pub transport_shed: u64,
    /// Frames received that matched no pending request (stale token,
    /// wrong channel, or not a reply at all).
    pub unmatched_replies: u64,
}

#[derive(Debug, Clone, Copy)]
struct PendingReq {
    token: u64,
    sent_at: Time,
}

#[derive(Debug)]
struct Channel {
    credits: u32,
    outstanding: u32,
    next_token: u64,
    pending: Vec<PendingReq>,
}

/// A multi-channel RPC client over one BBP endpoint.
///
/// Each *channel* is an independent logical stream with its own credit
/// grant and token space; all of a node's channels share the endpoint.
/// Requests are composed in a single staging buffer (the payload is
/// copied onto the billboard by the BBP post, so the staging buffer is
/// immediately reusable), and replies land in a single inbox of the
/// endpoint's largest payload, so receiving one allocates nothing.
pub struct RpcClient {
    ep: BbpEndpoint,
    server: usize,
    channels: Vec<Channel>,
    staging: MessageBuffer,
    inbox: Box<[u8]>,
    service_hist: Arc<LogHistogram>,
    stats: ClientStats,
}

impl RpcClient {
    /// A client of `server` with `channels` logical streams, each
    /// granted `credits_per_channel` outstanding requests. On a
    /// transport that waits for credit the grants must fit the
    /// endpoint's send slots, or the configuration is refused with
    /// [`RpcError::Overcommit`] (docs/RPC.md, "The overcommit rule").
    pub fn new(
        ep: BbpEndpoint,
        server: usize,
        channels: u32,
        credits_per_channel: u32,
        body_capacity: usize,
    ) -> Result<Self, RpcError> {
        assert!(channels >= 1, "a client needs at least one channel");
        assert!(
            credits_per_channel >= 1,
            "a channel's credit grant must be at least one"
        );
        let grants = u64::from(channels) * u64::from(credits_per_channel);
        let slots = ep.config().bufs_per_proc as u64;
        if grants > slots && blocks_for_credit(ep.config()) {
            return Err(RpcError::Overcommit { grants, slots });
        }
        let channels = (0..channels)
            .map(|_| Channel {
                credits: credits_per_channel,
                outstanding: 0,
                next_token: 1,
                pending: Vec::with_capacity(credits_per_channel as usize),
            })
            .collect();
        Ok(RpcClient {
            inbox: vec![0; ep.config().max_payload_bytes()].into_boxed_slice(),
            ep,
            server,
            channels,
            staging: MessageBuffer::new(body_capacity),
            service_hist: Arc::new(LogHistogram::new()),
            stats: ClientStats::default(),
        })
    }

    /// Try to post one request on `channel`. Sheds (typed error, no
    /// blocking) when the channel's grant is exhausted — the open-loop
    /// discipline. Returns the request token on success.
    pub fn try_request(
        &mut self,
        ctx: &mut ProcCtx,
        channel: u32,
        class: Priority,
        body: &[u8],
    ) -> Result<u64, RpcError> {
        let ch = &mut self.channels[channel as usize];
        if ch.outstanding >= ch.credits {
            self.stats.shed += 1;
            return Err(RpcError::OutOfCredit { channel });
        }
        let token = ch.next_token;
        self.staging.encode_request(token, channel, class);
        self.staging.set_body_len(body.len())?;
        self.staging.body_mut()[..body.len()].copy_from_slice(body);
        match self.ep.send(ctx, self.server, self.staging.frame()) {
            Ok(()) => {
                ch.next_token += 1;
                ch.outstanding += 1;
                ch.pending.push(PendingReq {
                    token,
                    sent_at: ctx.now(),
                });
                self.stats.sent += 1;
                Ok(token)
            }
            Err(BbpError::NoCredit { .. }) => {
                self.stats.transport_shed += 1;
                Err(RpcError::OutOfCredit { channel })
            }
            Err(e) => Err(RpcError::Transport(e)),
        }
    }

    /// Drain arrived replies, matching tokens back to pending requests
    /// and recording service latency. Returns how many completed.
    pub fn poll_replies(&mut self, ctx: &mut ProcCtx) -> usize {
        let mut completed = 0;
        while let Some((src, len)) = self.ep.try_recv_any_into(ctx, &mut self.inbox) {
            if src != self.server {
                self.stats.unmatched_replies += 1;
                continue;
            }
            let frame = self.inbox.get(..len);
            let matched = frame.and_then(Header::decode).and_then(|h| {
                if !h.is_reply {
                    return None;
                }
                let ch = self.channels.get_mut(h.channel as usize)?;
                let pos = ch.pending.iter().position(|p| p.token == h.token)?;
                let req = ch.pending.swap_remove(pos);
                ch.outstanding -= 1;
                Some(req.sent_at)
            });
            match matched {
                Some(sent_at) => {
                    self.service_hist.record(ctx.now().saturating_sub(sent_at));
                    self.stats.completed += 1;
                    completed += 1;
                }
                None => self.stats.unmatched_replies += 1,
            }
        }
        completed
    }

    /// One turn of an idle client's loop — "`lead` ns;
    /// [`RpcClient::poll_replies`]; again unless `guard`" — or, where the
    /// endpoint can sleep ([`BbpEndpoint::sleep_until_flagged`]), every
    /// turn up to the one whose sweep sees a reply flagged, or after whose
    /// sweep `guard` holds; the client is woken once. The same virtual
    /// time, schedule, polls and event log either way. When the guard
    /// ended it, the clock is where the loop's check would fail.
    pub fn idle(&mut self, ctx: &mut ProcCtx, lead: Time, guard: &RoundGuard) {
        match self.ep.sleep_until_flagged(ctx, lead, Some(guard)) {
            Some(Slept::Guarded) => return,
            Some(Slept::Flagged) => {}
            None => ctx.advance(lead),
        }
        self.poll_replies(ctx);
    }

    /// Requests currently outstanding on `channel`.
    pub fn outstanding(&self, channel: u32) -> u32 {
        self.channels[channel as usize].outstanding
    }

    /// `channel`'s credit grant.
    pub fn credits(&self, channel: u32) -> u32 {
        self.channels[channel as usize].credits
    }

    /// Outstanding requests summed over every channel.
    pub fn total_outstanding(&self) -> u32 {
        self.channels.iter().map(|c| c.outstanding).sum()
    }

    /// Service-latency histogram (ns from post to matched reply).
    pub fn service_hist(&self) -> Arc<LogHistogram> {
        Arc::clone(&self.service_hist)
    }

    /// Counters so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The underlying endpoint.
    pub fn endpoint(&self) -> &BbpEndpoint {
        &self.ep
    }

    /// The underlying endpoint, mutably.
    pub fn endpoint_mut(&mut self) -> &mut BbpEndpoint {
        &mut self.ep
    }
}
