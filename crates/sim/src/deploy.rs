//! Process-per-party deployment support.
//!
//! The one-OS-process-per-party deployment lives in `aft-bench`:
//! `exp_deployment` supervises one `aft-partyd` daemon per party, built
//! from an unmodified `Scenario` string marked `rt=proc`. Each daemon
//! builds its own [`Node`] with [`party_node`] and exchanges envelopes
//! over sockets using [`encode_envelope`] / [`decode_envelope`], which
//! frame the session header around the exact wire representation the
//! `wire` backend already round-trips in-process. `rt=proc` has no
//! in-process runtime: every in-process entry point refuses it with
//! [`PROC_NOT_IN_PROCESS`].
//!
//! The envelope layout (all little-endian) is
//!
//! ```text
//! [session: u8 depth, then per tag bytes(kind) + u64 index]
//! [payload wire frame: kind u16, len u32, body]
//! ```
//!
//! so a frame is self-describing given the process-global
//! [`CodecRegistry`](crate::wire::CodecRegistry) — the same property the
//! `garbage`/`equivocate` adversaries rely on. The envelope carries no
//! sender: the receiver attributes it to the peer on the other end of
//! the link it arrived on, so a byte-level peer cannot claim to be
//! another party (the model's authenticated channels).

use crate::ids::SessionId;
use crate::node::Node;
use crate::payload::Payload;
use crate::runtime::{build_node, NetConfig};
use crate::wire::{get_session, put_session, WireReader};

/// Why an in-process entry point refuses `rt=proc`: the scenario marker
/// names the one-OS-process-per-party deployment, which only the
/// `exp_deployment` supervisor runs.
pub const PROC_NOT_IN_PROCESS: &str = "rt=proc runs one OS process per party and has no \
     in-process runtime: run it with `exp_deployment --scenario '<spec>'` (aft-bench), or \
     pick rt=sim, rt=sharded:<k>, rt=wire or rt=threaded";

/// Builds party `party`'s [`Node`] for a configured system — the same
/// constructor (and per-party RNG derivation) every in-process backend
/// uses, exported so an external per-party daemon starts from state
/// identical to its simulated twin.
pub fn party_node(config: &NetConfig, party: usize) -> Node {
    build_node(config, party)
}

/// Appends one envelope (`session`, `payload`) to `out`.
///
/// Returns `false` — leaving `out` untouched — when `payload` has no
/// wire identity (a typed output), which never legitimately crosses a
/// process boundary.
pub fn encode_envelope(session: &SessionId, payload: &Payload, out: &mut Vec<u8>) -> bool {
    let mark = out.len();
    put_session(out, session);
    if payload.encode_wire_frame(out) {
        true
    } else {
        out.truncate(mark);
        false
    }
}

/// Decodes one envelope produced by [`encode_envelope`].
///
/// The payload comes back in its lazy wire representation (decoded on
/// first typed access through the process-global codec registry), so a
/// malformed body is charged to the receiving instance as a decode
/// miss — exactly the `wire` backend's semantics — rather than failing
/// here. Returns `None` only when the session header itself is
/// malformed. The sender is the link's peer, never a field of the
/// envelope.
pub fn decode_envelope(bytes: &[u8]) -> Option<(SessionId, Payload)> {
    let mut r = WireReader::new(bytes);
    let session = get_session(&mut r)?;
    let frame = r.rest();
    if frame.len() < crate::wire::FRAME_HEADER_LEN {
        return None;
    }
    Some((session, Payload::from_wire_global(frame.to_vec())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{PartyId, SessionTag};

    fn sid() -> SessionId {
        SessionId::root().child(SessionTag::new("dep", 0))
    }

    #[test]
    fn envelope_round_trips() {
        let session = sid().child(SessionTag::new("inner", 3));
        let payload = Payload::message(0xA5u8);
        let mut buf = Vec::new();
        assert!(encode_envelope(&session, &payload, &mut buf));
        // No sender field: the envelope opens with the session header.
        let mut header = Vec::new();
        put_session(&mut header, &session);
        assert!(buf.starts_with(&header), "layout is [session][frame]");
        let (got_session, got) = decode_envelope(&buf).expect("well-formed");
        assert_eq!(got_session, session);
        assert_eq!(got.to_msg::<u8>(), Some(0xA5));
    }

    #[test]
    fn envelope_rejects_outputs_and_truncation() {
        let payload = Payload::new("not a wire message".to_string());
        let mut buf = Vec::new();
        assert!(
            !encode_envelope(&sid(), &payload, &mut buf),
            "typed outputs have no wire identity"
        );
        assert!(buf.is_empty(), "failed encode leaves the buffer untouched");

        let mut ok = Vec::new();
        assert!(encode_envelope(&sid(), &Payload::message(true), &mut ok));
        // Every cut short of a full session header plus frame header is
        // refused; the body itself is checked lazily at the receiver.
        let mut header = Vec::new();
        put_session(&mut header, &sid());
        for cut in 0..header.len() + crate::wire::FRAME_HEADER_LEN {
            assert!(decode_envelope(&ok[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn party_node_matches_backend_nodes() {
        // Same constructor ⇒ same identity and per-party RNG stream as
        // the in-process backends for the same (seed, party).
        let config = NetConfig::new(4, 1, 42);
        let node = party_node(&config, 2);
        assert_eq!(node.id(), PartyId(2));
        assert!(!node.is_crashed());
    }
}
