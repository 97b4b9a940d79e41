//! Consumer credits: the wire half of rollout flow control.
//!
//! A rollout consumer (learner, learner shard, replay shard) returns one
//! credit per rollout it has taken off the channel. A [`CreditFrame`] lists
//! grants for one or more explorers; each grant names the newest rollout of
//! that explorer the consumer has consumed, by the rollout message's
//! [`crate::Header::id`]. Message ids grow monotonically per sender, so a
//! grant is cumulative: it covers every earlier rollout of that explorer
//! too, and duplicated or reordered frames are harmless.
//!
//! A frame travels on its own as a [`crate::MessageKind::Credit`] body, or
//! rides in [`crate::Header::credit`] of a parameter broadcast that is going
//! to the same explorer anyway.

use crate::codec::{Decode, DecodeError, Encode, Reader};

/// One explorer's credit: its newest consumed rollout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CreditGrant {
    /// The credited explorer's index.
    pub explorer: u32,
    /// Message id of the newest rollout from `explorer` the consumer took.
    pub rollout: u64,
}

/// Wire size of one grant.
const GRANT_BYTES: usize = 4 + 8;

/// A batch of grants from one consumer.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CreditFrame {
    /// At most one grant per explorer.
    pub grants: Vec<CreditGrant>,
}

impl CreditFrame {
    /// The rollout id granted to `explorer`, if the frame credits it.
    pub fn grant_for(&self, explorer: u32) -> Option<u64> {
        self.grants.iter().find(|g| g.explorer == explorer).map(|g| g.rollout)
    }
}

impl Encode for CreditFrame {
    fn encode(&self, out: &mut Vec<u8>) {
        self.grants.len().encode(out);
        for g in &self.grants {
            g.explorer.encode(out);
            g.rollout.encode(out);
        }
    }
    fn encoded_size(&self) -> usize {
        self.grants.len().encoded_size() + self.grants.len() * GRANT_BYTES
    }
}

impl Decode for CreditFrame {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = usize::decode(r)?;
        // Validate the declared count against the input before allocating,
        // so a hostile count cannot reserve unbounded memory.
        let remaining = r.remaining();
        if n > remaining / GRANT_BYTES {
            return Err(DecodeError::LengthOverflow { declared: n, remaining });
        }
        let mut grants = Vec::with_capacity(n);
        for _ in 0..n {
            grants.push(CreditGrant { explorer: u32::decode(r)?, rollout: u64::decode(r)? });
        }
        Ok(CreditFrame { grants })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trips_and_finds_grants() {
        let frame = CreditFrame {
            grants: vec![
                CreditGrant { explorer: 3, rollout: 17 },
                CreditGrant { explorer: 9, rollout: u64::MAX },
            ],
        };
        let bytes = frame.to_bytes();
        assert_eq!(bytes.len(), frame.encoded_size());
        let back = CreditFrame::from_bytes(&bytes).unwrap();
        assert_eq!(back, frame);
        assert_eq!(back.grant_for(9), Some(u64::MAX));
        assert_eq!(back.grant_for(4), None);
    }

    #[test]
    fn hostile_frames_are_rejected_without_panicking() {
        let good = CreditFrame { grants: vec![CreditGrant { explorer: 1, rollout: 2 }] }.to_bytes();
        for cut in 0..good.len() {
            assert!(CreditFrame::from_bytes(&good[..cut]).is_err(), "truncated at {cut}");
        }
        // A count far beyond the input is refused before allocation.
        let mut huge = Vec::new();
        (u32::MAX as usize).encode(&mut huge);
        assert!(CreditFrame::from_bytes(&huge).is_err());
    }
}
