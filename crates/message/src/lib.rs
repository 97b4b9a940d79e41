//! Message model, binary codec, and LZ4 compression for the XingTian DRL framework.
//!
//! XingTian (Middleware '22) moves data between *explorer* and *learner* processes
//! through an asynchronous communication channel. Every unit of transfer is a
//! [`Message`]: a lightweight [`Header`] carrying routing metadata plus an opaque
//! [`Body`] of bytes (serialized rollouts or DNN parameters).
//!
//! This crate provides the three substrate pieces the channel needs:
//!
//! * [`header`] / [`message`] — the message model (source, destinations, kind,
//!   object id, sequence numbers, timing probes).
//! * [`codec`] — a compact self-describing binary encoding ([`codec::Encode`] /
//!   [`codec::Decode`]) used to serialize rollout batches and parameter blobs.
//!   The paper uses Python pickle; we use an explicit, versioned format instead.
//! * [`lz4`] — a from-scratch LZ4 block compressor/decompressor. The paper
//!   compresses bodies larger than 1 MiB with LZ4 by default (§4.1); so do we.
//!
//! # Examples
//!
//! ```
//! use xingtian_message::{Header, Message, MessageKind, ProcessId};
//! use bytes::Bytes;
//!
//! let header = Header::new(ProcessId::explorer(0), vec![ProcessId::learner(0)],
//!                          MessageKind::Rollout);
//! let msg = Message::new(header, Bytes::from(vec![0u8; 128]));
//! assert_eq!(msg.body.len(), 128);
//! ```

pub mod chunk;
pub mod codec;
pub mod credit;
pub mod header;
pub mod lz4;
pub mod message;
pub mod param;
pub mod serve;

pub use chunk::ChunkError;
pub use credit::{CreditFrame, CreditGrant};
pub use header::{CompressionKind, Header, MessageKind, ProcessId, ProcessRole};
pub use message::{Body, Message, COMPRESSION_THRESHOLD};
pub use param::{ParamCodecError, ParamFrameHeader, QUANT_GROUP};
pub use serve::{InferReply, InferRequest};

use bytes::Bytes;

/// Compress `body` if it exceeds `threshold` bytes.
///
/// Bodies above the threshold are encoded as a chunked LZ4 container
/// ([`chunk`]) so they can be (de)compressed in parallel and decoded with an
/// exact pre-sized allocation. Returns the (possibly compressed) body and the
/// [`CompressionKind`] to record in the header. Mirrors the paper's default
/// policy of compressing message bodies larger than 1 MiB when they enter the
/// shared-memory object store (§4.1).
pub fn compress_body_with_threshold(body: Bytes, threshold: usize) -> (Bytes, CompressionKind) {
    if body.len() > threshold {
        let compressed = chunk::compress_chunked(&body);
        // Only keep the compressed form if it actually saved space; incompressible
        // payloads (already-compressed or random data) are sent verbatim.
        if compressed.len() < body.len() {
            return (Bytes::from(compressed), CompressionKind::Lz4Chunked);
        }
    }
    (body, CompressionKind::None)
}

/// Compress `body` with the paper's default 1 MiB threshold.
pub fn compress_body(body: Bytes) -> (Bytes, CompressionKind) {
    compress_body_with_threshold(body, COMPRESSION_THRESHOLD)
}

/// Decompress a stored body according to its header's [`CompressionKind`].
///
/// Handles both the chunked container written by [`compress_body`] and legacy
/// single-block LZ4 bodies produced before the chunked format existed.
/// Parameter-plane kinds ([`CompressionKind::is_param_plane`]) pass through
/// *unchanged*: they are stateful encodings that only the consuming workhorse
/// (which holds the base version and error-feedback state) can decode — see
/// [`param`].
///
/// # Errors
///
/// Returns [`ChunkError`] if the stored bytes are malformed.
pub fn decompress_body(body: &Bytes, kind: CompressionKind) -> Result<Bytes, ChunkError> {
    match kind {
        CompressionKind::None => Ok(body.clone()),
        CompressionKind::Lz4Block => Ok(Bytes::from(lz4::decompress(body)?)),
        CompressionKind::Lz4Chunked => Ok(Bytes::from(chunk::decompress_chunked(body)?)),
        CompressionKind::DeltaF32
        | CompressionKind::QuantizedI8
        | CompressionKind::DeltaQuantizedI8 => Ok(body.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compress_small_body_is_identity() {
        let body = Bytes::from(vec![7u8; 64]);
        let (out, kind) = compress_body(body.clone());
        assert_eq!(kind, CompressionKind::None);
        assert_eq!(out, body);
    }

    #[test]
    fn compress_large_body_round_trips() {
        let body = Bytes::from(vec![42u8; 2 * 1024 * 1024]);
        let (out, kind) = compress_body(body.clone());
        assert_eq!(kind, CompressionKind::Lz4Chunked);
        assert!(out.len() < body.len());
        let restored = decompress_body(&out, kind).unwrap();
        assert_eq!(restored, body);
    }

    #[test]
    fn legacy_single_block_body_still_decodes() {
        // Bodies compressed by pre-chunking versions were one bare LZ4 block;
        // the descriptor keeps them decodable.
        let body = Bytes::from(vec![42u8; 2 * 1024 * 1024]);
        let legacy = Bytes::from(lz4::compress(&body));
        let restored = decompress_body(&legacy, CompressionKind::Lz4Block).unwrap();
        assert_eq!(restored, body);
    }

    #[test]
    fn incompressible_body_is_left_alone() {
        // A pseudo-random payload larger than the threshold should be kept verbatim.
        let mut state = 0x9e3779b97f4a7c15u64;
        let body: Vec<u8> = (0..2 * 1024 * 1024)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state & 0xff) as u8
            })
            .collect();
        let body = Bytes::from(body);
        let (out, kind) = compress_body(body.clone());
        assert_eq!(kind, CompressionKind::None);
        assert_eq!(out, body);
    }
}
