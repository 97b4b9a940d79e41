//! Consumer-credit rollout flow control.
//!
//! One rule bounds the rollouts between "sent" and "trained": an explorer
//! holds at most one rollout its consumer has not credited. It may build
//! rollout n+1 while rollout n is in flight (double buffering: generation
//! overlaps transmission and training), but it sends n+1 only once n's
//! consumer has returned a credit. A learner-bound deployment therefore
//! parks its explorers instead of filling the object store, whose capacity
//! stays only as a last-resort bound.
//!
//! * [`CreditLedger`] is the consumer half. It notes every rollout taken off
//!   the channel and returns the grants, piggybacked on a parameter broadcast
//!   going to that explorer anyway ([`CreditLedger::attach`]) or as a
//!   standalone `MessageKind::Credit` ([`CreditLedger::flush`]).
//! * [`CreditWindow`] is the explorer half: the one outstanding rollout and
//!   when it may be given up for lost.
//!
//! Liveness: a consumer that dies (and is respawned), a rollout dropped on a
//! severed link, or a credit lost the same way would strand an explorer
//! forever. The window therefore holds its outstanding rollout on a fixed
//! [`LEASE`]. Grants are cumulative over a sender's monotonically increasing
//! message ids, so a credit that arrives after its lease lapsed is simply
//! absorbed.

use crate::Endpoint;
use bytes::Bytes;
use std::sync::Arc;
use std::time::{Duration, Instant};
use xingtian_message::codec::Encode;
use xingtian_message::{CreditFrame, CreditGrant, Header, MessageKind, ProcessId, ProcessRole};

/// How long an uncredited rollout holds the window before it is presumed
/// lost. Credits normally return within milliseconds; a lapse lets at most
/// one extra rollout out per second.
pub const LEASE: Duration = Duration::from_secs(1);

/// Consumer side: credits owed to explorers for rollouts taken off the
/// channel and not yet returned.
#[derive(Debug, Default)]
pub struct CreditLedger {
    owed: Vec<CreditGrant>,
}

impl CreditLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the rollout message with `header` was consumed. Call it
    /// for every rollout received, decodable or not: the sender waits on it
    /// either way.
    pub fn on_rollout(&mut self, header: &Header) {
        if header.src.role == ProcessRole::Explorer {
            self.owe(CreditGrant { explorer: header.src.index, rollout: header.id });
        }
    }

    fn owe(&mut self, grant: CreditGrant) {
        match self.owed.iter_mut().find(|g| g.explorer == grant.explorer) {
            Some(g) => g.rollout = g.rollout.max(grant.rollout),
            None => self.owed.push(grant),
        }
    }

    /// Moves the credits owed to `header`'s explorer destinations onto the
    /// header, so they ride a message that is going there anyway.
    pub fn attach(&mut self, header: &mut Header) {
        let dst = &header.dst;
        let (riding, kept): (Vec<CreditGrant>, Vec<CreditGrant>) = self
            .owed
            .drain(..)
            .partition(|g| dst.contains(&ProcessId::explorer(g.explorer)));
        self.owed = kept;
        if !riding.is_empty() {
            header.credit = Some(Arc::new(CreditFrame { grants: riding }));
        }
    }

    /// Sends every credit still owed as one standalone frame.
    pub fn flush(&mut self, endpoint: &Endpoint) {
        if self.owed.is_empty() {
            return;
        }
        let dst: Vec<ProcessId> = self.owed.iter().map(|g| ProcessId::explorer(g.explorer)).collect();
        let frame = CreditFrame { grants: std::mem::take(&mut self.owed) };
        endpoint.send_to(dst, MessageKind::Credit, Bytes::from(frame.to_bytes()));
    }
}

/// Explorer side: the one rollout sent and not yet credited.
#[derive(Debug, Default)]
pub struct CreditWindow {
    /// Message id and send time of the uncredited rollout.
    outstanding: Option<(u64, Instant)>,
}

impl CreditWindow {
    /// A window with nothing outstanding.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when the next rollout may be sent.
    pub fn is_open(&self) -> bool {
        self.outstanding.is_none()
    }

    /// Records the rollout just sent with message id `id`.
    pub fn on_send(&mut self, id: u64) {
        self.outstanding = Some((id, Instant::now()));
    }

    /// Applies `explorer`'s grant in `frame`, if any. Returns `true` if it
    /// credited the outstanding rollout.
    pub fn on_frame(&mut self, explorer: u32, frame: &CreditFrame) -> bool {
        let (Some(granted), Some((id, _))) = (frame.grant_for(explorer), self.outstanding) else {
            return false;
        };
        if granted < id {
            return false; // a credit for an earlier rollout whose lease lapsed
        }
        self.outstanding = None;
        true
    }

    /// When the outstanding rollout may be presumed lost.
    pub fn lease_deadline(&self) -> Option<Instant> {
        self.outstanding.map(|(_, sent)| sent + LEASE)
    }

    /// Gives the outstanding rollout up for lost, opening the window.
    pub fn expire(&mut self) {
        self.outstanding = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(explorer: u32, rollout: u64) -> CreditFrame {
        CreditFrame { grants: vec![CreditGrant { explorer, rollout }] }
    }

    #[test]
    fn ledger_keeps_the_newest_rollout_per_explorer_and_piggybacks() {
        let mut ledger = CreditLedger::new();
        let to_learner = |src| Header::new(src, vec![ProcessId::learner(0)], MessageKind::Rollout);
        let from_learner = |dst| Header::new(ProcessId::learner(0), vec![dst], MessageKind::Parameters);
        let (a, b, c) = (
            to_learner(ProcessId::explorer(1)),
            to_learner(ProcessId::explorer(2)),
            to_learner(ProcessId::explorer(1)),
        );
        for h in [&a, &b, &c] {
            ledger.on_rollout(h);
        }
        // Non-explorer senders are never owed anything.
        ledger.on_rollout(&to_learner(ProcessId::learner(1)));

        let mut params = from_learner(ProcessId::explorer(1));
        ledger.attach(&mut params);
        assert_eq!(params.credit.as_deref(), Some(&frame(1, c.id)));
        // Explorer 2 was not a destination: its credit is still owed.
        assert_eq!(ledger.owed, vec![CreditGrant { explorer: 2, rollout: b.id }]);
        let mut other = from_learner(ProcessId::explorer(7));
        ledger.attach(&mut other);
        assert!(other.credit.is_none());
    }

    #[test]
    fn window_opens_on_a_covering_grant_only() {
        let mut w = CreditWindow::new();
        assert!(w.is_open());
        assert!(w.lease_deadline().is_none());
        w.on_send(10);
        assert!(!w.is_open());
        assert!(!w.on_frame(3, &frame(4, 10)), "another explorer's grant");
        assert!(!w.on_frame(3, &frame(3, 9)), "an earlier rollout's grant");
        assert!(w.on_frame(3, &frame(3, 12)), "grants are cumulative");
        assert!(w.is_open());
        // A duplicate of the same frame is harmless.
        assert!(!w.on_frame(3, &frame(3, 12)));
    }

    #[test]
    fn lapsed_lease_opens_the_window_and_absorbs_the_late_credit() {
        let mut w = CreditWindow::new();
        let before = Instant::now();
        w.on_send(2);
        let deadline = w.lease_deadline().unwrap();
        assert!(deadline >= before + LEASE && deadline <= Instant::now() + LEASE);
        w.expire();
        assert!(w.is_open());
        // The lapsed rollout's late credit does not count for the next one.
        w.on_send(3);
        assert!(!w.on_frame(0, &frame(0, 2)));
        assert!(w.on_frame(0, &frame(0, 3)));
    }
}
