//! Wire payloads of the policy-serving plane (xt-serve).
//!
//! A client sends an [`InferRequest`] — a flat row-major observation batch —
//! to a serving replica (`MessageKind::InferRequest`) and gets back an
//! [`InferReply`] with one action per row, or an explicit shed marker when
//! the replica's request queue is past its depth watermark
//! (`MessageKind::InferReply`). Both ride the comm channel's priority lane:
//! an inference query with a millisecond SLO must never queue behind a
//! back-pressured rollout stream.
//!
//! The reply is routed to the request header's `src`, so the request body
//! carries no client identity — only the client-assigned `request_id` the
//! reply echoes for matching.

use crate::codec::{decode_f32s_into, Decode, DecodeError, Encode, Reader};

/// A batched observation→action query bound for a serving replica.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InferRequest {
    /// Client-assigned identifier, echoed verbatim in the reply.
    pub request_id: u64,
    /// Rows in the observation batch.
    pub rows: u32,
    /// Flat row-major observations, `rows × obs_dim` values.
    pub observations: Vec<f32>,
}

impl InferRequest {
    /// Decodes a request in place, reusing `self`'s observation buffer (the
    /// allocation-free mirror of [`Decode::decode`] the replica's batch
    /// staging uses).
    ///
    /// # Errors
    ///
    /// Any [`DecodeError`] if the input is truncated or malformed.
    pub fn decode_into(&mut self, r: &mut Reader<'_>) -> Result<(), DecodeError> {
        self.request_id = u64::decode(r)?;
        self.rows = u32::decode(r)?;
        decode_f32s_into(r, &mut self.observations)?;
        Ok(())
    }
}

impl Encode for InferRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        self.request_id.encode(out);
        self.rows.encode(out);
        self.observations.encode(out);
    }
    fn encoded_size(&self) -> usize {
        self.request_id.encoded_size()
            + self.rows.encoded_size()
            + self.observations.encoded_size()
    }
}

impl Decode for InferRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(InferRequest {
            request_id: u64::decode(r)?,
            rows: u32::decode(r)?,
            observations: Vec::<f32>::decode(r)?,
        })
    }
}

/// A serving replica's answer to an [`InferRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InferReply {
    /// The request this answers.
    pub request_id: u64,
    /// Parameter version of the policy snapshot that served the batch
    /// (0 for sheds).
    pub param_version: u64,
    /// Explicitly shed: the replica's queue was past its depth watermark, so
    /// it refused the batch instead of serving it with unbounded latency.
    /// Sheds are the *only* way a well-formed request goes unanswered-by-
    /// actions — the fleet never silently drops.
    pub shed: bool,
    /// One greedy action per request row (empty for sheds).
    pub actions: Vec<u32>,
}

impl Encode for InferReply {
    fn encode(&self, out: &mut Vec<u8>) {
        self.request_id.encode(out);
        self.param_version.encode(out);
        out.push(self.shed as u8);
        self.actions.encode(out);
    }
    fn encoded_size(&self) -> usize {
        self.request_id.encoded_size()
            + self.param_version.encoded_size()
            + 1
            + self.actions.encoded_size()
    }
}

impl Decode for InferReply {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(InferReply {
            request_id: u64::decode(r)?,
            param_version: u64::decode(r)?,
            shed: match r.u8()? {
                0 => false,
                1 => true,
                t => return Err(DecodeError::InvalidTag(t)),
            },
            actions: Vec::<u32>::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let req = InferRequest {
            request_id: 77,
            rows: 2,
            observations: vec![0.5, -1.0, 2.25, 3.5],
        };
        assert_eq!(InferRequest::from_bytes(&req.to_bytes()).unwrap(), req);
    }

    #[test]
    fn request_decode_into_reuses_buffer() {
        let req = InferRequest { request_id: 9, rows: 1, observations: vec![1.0, 2.0, 3.0] };
        let bytes = req.to_bytes();
        let mut staged = InferRequest { observations: Vec::with_capacity(64), ..Default::default() };
        let cap = staged.observations.capacity();
        staged.decode_into(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(staged, req);
        assert_eq!(staged.observations.capacity(), cap, "no reallocation");
    }

    #[test]
    fn reply_round_trips_served_and_shed() {
        for (shed, actions) in [(false, vec![1u32, 0, 3]), (true, vec![])] {
            let rep = InferReply { request_id: 5, param_version: 42, shed, actions };
            assert_eq!(InferReply::from_bytes(&rep.to_bytes()).unwrap(), rep);
        }
    }

    #[test]
    fn reply_rejects_unknown_shed_tag() {
        let mut bytes = InferReply {
            request_id: 1,
            param_version: 1,
            shed: false,
            actions: vec![],
        }
        .to_bytes();
        let flag = bytes.len() - 2; // [..., shed_flag, actions_len]
        for t in 2..=255u8 {
            bytes[flag] = t;
            assert_eq!(InferReply::from_bytes(&bytes), Err(DecodeError::InvalidTag(t)));
        }
    }

    #[test]
    fn truncated_request_is_an_error() {
        let bytes = InferRequest { request_id: 1, rows: 4, observations: vec![0.0; 8] }.to_bytes();
        assert!(InferRequest::from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    /// Hands `check` every proper prefix of `bytes` and every variant with
    /// one byte set to any value, which covers every single-bit flip and
    /// every value of each tag and length byte. Passing means no input
    /// panicked.
    fn hostile_sweep(bytes: &[u8], mut check: impl FnMut(&[u8])) {
        for cut in 0..bytes.len() {
            check(&bytes[..cut]);
        }
        let mut buf = bytes.to_vec();
        for i in 0..buf.len() {
            let orig = buf[i];
            for value in 0..=255u8 {
                buf[i] = value;
                check(&buf);
            }
            buf[i] = orig;
        }
    }

    #[test]
    fn hostile_requests_never_panic() {
        let req = InferRequest { request_id: 0x0102_0304_0506_0708, rows: 3, observations: vec![0.25; 12] };
        let bytes = req.to_bytes();
        let mut staged = InferRequest::default();
        hostile_sweep(&bytes, |b| {
            let owned = InferRequest::from_bytes(b);
            let in_place = staged.decode_into(&mut Reader::new(b));
            // Both decode paths agree on what they accept.
            assert_eq!(owned.is_ok(), in_place.is_ok());
            if b.len() < bytes.len() {
                assert!(owned.is_err(), "a {}-byte prefix decoded", b.len());
            }
        });
    }

    #[test]
    fn hostile_replies_never_panic() {
        for (shed, actions) in [(false, vec![4u32, 0, 8, 1]), (true, vec![])] {
            let bytes = InferReply { request_id: 77, param_version: 3, shed, actions }.to_bytes();
            hostile_sweep(&bytes, |b| {
                let decoded = InferReply::from_bytes(b);
                if b.len() < bytes.len() {
                    assert!(decoded.is_err(), "a {}-byte prefix decoded", b.len());
                }
            });
        }
    }
}
