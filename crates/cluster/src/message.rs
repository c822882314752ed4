//! The tagged message and channel-error types shared by the backends
//! (the PVM-like layer's vocabulary). Delivery is reliable and FIFO per
//! sender — the guarantees PVM gave the paper's implementation — and node
//! failure is *not* hidden: the transports surface a dead or misbehaving
//! peer as a [`ChannelError`], so the farm treats it as data instead of
//! panicking.

/// Node identifier; node 0 is the master by convention.
pub type NodeId = usize;

/// A tagged message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Sending node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Application-defined tag (like PVM message tags).
    pub tag: u32,
    /// Payload bytes (see [`crate::codec`]).
    pub payload: Vec<u8>,
}

impl Message {
    /// Serialise the whole message (header + payload) into a byte frame
    /// using the [`crate::codec`] wire format. The inverse of
    /// [`Message::decode`].
    pub fn encode(&self) -> Vec<u8> {
        let mut e = crate::codec::Encoder::new();
        e.u64(self.from as u64)
            .u64(self.to as u64)
            .u32(self.tag)
            .bytes(&self.payload);
        e.finish()
    }

    /// Decode a frame produced by [`Message::encode`]. Rejects trailing
    /// garbage so a frame is exactly one message.
    pub fn decode(buf: &[u8]) -> Result<Message, crate::codec::DecodeError> {
        let mut d = crate::codec::Decoder::new(buf);
        let from = d.u64()? as NodeId;
        let to = d.u64()? as NodeId;
        let tag = d.u32()?;
        let payload = d.bytes()?.to_vec();
        if !d.is_done() {
            return Err(crate::codec::DecodeError {
                at: buf.len() - d.remaining(),
                what: "trailing bytes after message",
            });
        }
        Ok(Message {
            from,
            to,
            tag,
            payload,
        })
    }
}

/// A channel-level failure: the peer endpoint is gone or misbehaving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelError {
    /// The destination endpoint was dropped; the message was not delivered.
    PeerGone,
    /// No message arrived before the timeout elapsed (peers may be alive).
    TimedOut,
    /// The peer spoke the wrong protocol (bad magic, version mismatch,
    /// hostile length prefix, or an undecodable frame).
    Protocol(&'static str),
}

impl std::fmt::Display for ChannelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChannelError::PeerGone => write!(f, "peer endpoint dropped"),
            ChannelError::TimedOut => write!(f, "receive timed out"),
            ChannelError::Protocol(what) => write!(f, "protocol violation: {what}"),
        }
    }
}

impl std::error::Error for ChannelError {}
