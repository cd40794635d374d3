//! RFC 4271 wire codec for BGP UPDATE messages.
//!
//! LIFEGUARD's deployment speaks real BGP to the BGP-Mux testbed; this module
//! provides the encoding a production deployment of the system would use to
//! inject its crafted announcements, and the dynamic engine's packer uses it
//! to measure what each UPDATE costs on the wire. It implements the
//! byte-level UPDATE format with the path attributes the system manipulates
//! (ORIGIN, AS_PATH, NEXT_HOP, MED, LOCAL_PREF, COMMUNITIES) and 4-octet AS
//! numbers (RFC 6793). Session messages (OPEN, NOTIFICATION, KEEPALIVE) are
//! out of scope: nothing in the workspace runs a BGP session. Nothing reads
//! UPDATE bytes either, so the decoder is compiled for tests only, where
//! every encoding is round-tripped through it.
//!
//! The offline package mirror lacks the `bytes` crate, so buffers are plain
//! `Vec<u8>` / `&[u8]` — the codec is allocation-light regardless.

use crate::path::AsPath;
use crate::prefix::Prefix;
#[cfg(test)]
use lg_asmap::AsId;
use std::fmt;

/// BGP message header marker: 16 bytes of all ones (RFC 4271 §4.1).
const MARKER: [u8; 16] = [0xFF; 16];
/// Fixed header length.
const HEADER_LEN: usize = 19;
/// Maximum BGP message length.
pub const MAX_MESSAGE_LEN: usize = 4096;
/// The UPDATE message type code.
const TYPE_UPDATE: u8 = 2;

/// ORIGIN attribute values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Origin {
    /// Route is interior to the originating AS.
    Igp = 0,
    /// Learned via EGP.
    Egp = 1,
    /// Origin unknown (typical for redistributed routes).
    Incomplete = 2,
}

#[cfg(test)]
impl Origin {
    fn from_u8(v: u8) -> Result<Self, WireError> {
        match v {
            0 => Ok(Origin::Igp),
            1 => Ok(Origin::Egp),
            2 => Ok(Origin::Incomplete),
            _ => Err(WireError::Malformed("bad ORIGIN value")),
        }
    }
}

/// A decoded BGP UPDATE message.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct UpdateMsg {
    /// Withdrawn prefixes.
    pub withdrawn: Vec<Prefix>,
    /// ORIGIN attribute (required when NLRI present).
    pub origin: Option<Origin>,
    /// AS_PATH attribute, nearest AS first.
    pub as_path: Option<AsPath>,
    /// NEXT_HOP attribute.
    pub next_hop: Option<u32>,
    /// MULTI_EXIT_DISC attribute.
    pub med: Option<u32>,
    /// LOCAL_PREF attribute.
    pub local_pref: Option<u32>,
    /// COMMUNITIES attribute (RFC 1997), as raw 32-bit values.
    pub communities: Vec<u32>,
    /// Announced prefixes.
    pub nlri: Vec<Prefix>,
}

/// Decode/encode errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the structure was complete.
    Truncated,
    /// Header marker was not all ones.
    BadMarker,
    /// Unknown message type code.
    UnknownType(u8),
    /// Structurally invalid contents.
    Malformed(&'static str),
    /// Message exceeds the 4096-byte limit.
    TooLong(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::BadMarker => write!(f, "bad header marker"),
            WireError::UnknownType(t) => write!(f, "unknown message type {t}"),
            WireError::Malformed(why) => write!(f, "malformed message: {why}"),
            WireError::TooLong(n) => write!(f, "message of {n} bytes exceeds 4096"),
        }
    }
}

impl std::error::Error for WireError {}

// Attribute type codes.
const ATTR_ORIGIN: u8 = 1;
const ATTR_AS_PATH: u8 = 2;
const ATTR_NEXT_HOP: u8 = 3;
const ATTR_MED: u8 = 4;
const ATTR_LOCAL_PREF: u8 = 5;
const ATTR_COMMUNITIES: u8 = 8;

// Attribute flags.
const FLAG_OPTIONAL: u8 = 0x80;
const FLAG_TRANSITIVE: u8 = 0x40;
const FLAG_EXT_LEN: u8 = 0x10;

const AS_PATH_SEGMENT_SEQUENCE: u8 = 2;

#[cfg(test)]
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

#[cfg(test)]
impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        let b = self.take(2)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

/// Encode a prefix in UPDATE NLRI form: length byte + minimal octets.
fn encode_nlri_prefix(out: &mut Vec<u8>, p: Prefix) {
    out.push(p.len());
    let nbytes = (p.len() as usize).div_ceil(8);
    out.extend_from_slice(&p.addr().to_be_bytes()[..nbytes]);
}

#[cfg(test)]
fn decode_nlri_prefix(r: &mut Reader<'_>) -> Result<Prefix, WireError> {
    let len = r.u8()?;
    if len > 32 {
        return Err(WireError::Malformed("prefix length > 32"));
    }
    let nbytes = (len as usize).div_ceil(8);
    let raw = r.take(nbytes)?;
    let mut octets = [0u8; 4];
    octets[..nbytes].copy_from_slice(raw);
    Ok(Prefix::new(u32::from_be_bytes(octets), len))
}

/// Encode an UPDATE message, header included.
pub fn encode_update(m: &UpdateMsg) -> Result<Vec<u8>, WireError> {
    let body = encode_update_body(m);
    let total = HEADER_LEN + body.len();
    if total > MAX_MESSAGE_LEN {
        return Err(WireError::TooLong(total));
    }
    let mut out = Vec::with_capacity(total);
    out.extend_from_slice(&MARKER);
    put_u16(&mut out, total as u16);
    out.push(TYPE_UPDATE);
    out.extend_from_slice(&body);
    Ok(out)
}

/// Decode one UPDATE message from `buf`; returns the message and bytes
/// consumed. Any other message type is [`WireError::UnknownType`].
#[cfg(test)]
pub fn decode_update(buf: &[u8]) -> Result<(UpdateMsg, usize), WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    if buf[..16] != MARKER {
        return Err(WireError::BadMarker);
    }
    let total = u16::from_be_bytes([buf[16], buf[17]]) as usize;
    if !(HEADER_LEN..=MAX_MESSAGE_LEN).contains(&total) {
        return Err(WireError::Malformed("bad length field"));
    }
    if buf.len() < total {
        return Err(WireError::Truncated);
    }
    match buf[18] {
        TYPE_UPDATE => Ok((decode_update_body(&buf[HEADER_LEN..total])?, total)),
        other => Err(WireError::UnknownType(other)),
    }
}

/// AS_PATH as one or more AS_SEQUENCE segments of at most 255 ASNs.
fn encode_as_path_attr(path: &AsPath) -> Vec<u8> {
    let mut val = Vec::new();
    for chunk in path.hops().chunks(255) {
        val.push(AS_PATH_SEGMENT_SEQUENCE);
        val.push(chunk.len() as u8);
        for a in chunk {
            put_u32(&mut val, a.0);
        }
    }
    val
}

#[cfg(test)]
fn decode_as_path_attr(data: &[u8]) -> Result<AsPath, WireError> {
    let mut r = Reader::new(data);
    let mut hops = Vec::new();
    while r.remaining() > 0 {
        let seg_type = r.u8()?;
        if seg_type != AS_PATH_SEGMENT_SEQUENCE && seg_type != 1 {
            return Err(WireError::Malformed("unknown AS_PATH segment type"));
        }
        let count = r.u8()? as usize;
        for _ in 0..count {
            hops.push(AsId(r.u32()?));
        }
    }
    Ok(AsPath::from_hops(hops))
}

fn push_attr(out: &mut Vec<u8>, flags: u8, ty: u8, val: &[u8]) {
    if val.len() > 255 {
        out.push(flags | FLAG_EXT_LEN);
        out.push(ty);
        put_u16(out, val.len() as u16);
    } else {
        out.push(flags);
        out.push(ty);
        out.push(val.len() as u8);
    }
    out.extend_from_slice(val);
}

fn encode_update_body(m: &UpdateMsg) -> Vec<u8> {
    let mut withdrawn = Vec::new();
    for p in &m.withdrawn {
        encode_nlri_prefix(&mut withdrawn, *p);
    }

    let mut attrs = Vec::new();
    if let Some(origin) = m.origin {
        push_attr(&mut attrs, FLAG_TRANSITIVE, ATTR_ORIGIN, &[origin as u8]);
    }
    if let Some(path) = &m.as_path {
        let val = encode_as_path_attr(path);
        push_attr(&mut attrs, FLAG_TRANSITIVE, ATTR_AS_PATH, &val);
    }
    if let Some(nh) = m.next_hop {
        push_attr(
            &mut attrs,
            FLAG_TRANSITIVE,
            ATTR_NEXT_HOP,
            &nh.to_be_bytes(),
        );
    }
    if let Some(med) = m.med {
        push_attr(&mut attrs, FLAG_OPTIONAL, ATTR_MED, &med.to_be_bytes());
    }
    if let Some(lp) = m.local_pref {
        push_attr(
            &mut attrs,
            FLAG_TRANSITIVE,
            ATTR_LOCAL_PREF,
            &lp.to_be_bytes(),
        );
    }
    if !m.communities.is_empty() {
        let mut val = Vec::with_capacity(m.communities.len() * 4);
        for c in &m.communities {
            put_u32(&mut val, *c);
        }
        push_attr(
            &mut attrs,
            FLAG_OPTIONAL | FLAG_TRANSITIVE,
            ATTR_COMMUNITIES,
            &val,
        );
    }

    let mut body = Vec::new();
    put_u16(&mut body, withdrawn.len() as u16);
    body.extend_from_slice(&withdrawn);
    put_u16(&mut body, attrs.len() as u16);
    body.extend_from_slice(&attrs);
    for p in &m.nlri {
        encode_nlri_prefix(&mut body, *p);
    }
    body
}

#[cfg(test)]
fn decode_update_body(body: &[u8]) -> Result<UpdateMsg, WireError> {
    let mut r = Reader::new(body);
    let mut m = UpdateMsg::default();

    let wlen = r.u16()? as usize;
    let mut wr = Reader::new(r.take(wlen)?);
    while wr.remaining() > 0 {
        m.withdrawn.push(decode_nlri_prefix(&mut wr)?);
    }

    let alen = r.u16()? as usize;
    let mut ar = Reader::new(r.take(alen)?);
    while ar.remaining() > 0 {
        let flags = ar.u8()?;
        let ty = ar.u8()?;
        let len = if flags & FLAG_EXT_LEN != 0 {
            ar.u16()? as usize
        } else {
            ar.u8()? as usize
        };
        let data = ar.take(len)?;
        match ty {
            ATTR_ORIGIN => {
                if data.len() != 1 {
                    return Err(WireError::Malformed("bad ORIGIN length"));
                }
                m.origin = Some(Origin::from_u8(data[0])?);
            }
            ATTR_AS_PATH => m.as_path = Some(decode_as_path_attr(data)?),
            ATTR_NEXT_HOP => {
                if data.len() != 4 {
                    return Err(WireError::Malformed("bad NEXT_HOP length"));
                }
                m.next_hop = Some(u32::from_be_bytes([data[0], data[1], data[2], data[3]]));
            }
            ATTR_MED => {
                if data.len() != 4 {
                    return Err(WireError::Malformed("bad MED length"));
                }
                m.med = Some(u32::from_be_bytes([data[0], data[1], data[2], data[3]]));
            }
            ATTR_LOCAL_PREF => {
                if data.len() != 4 {
                    return Err(WireError::Malformed("bad LOCAL_PREF length"));
                }
                m.local_pref = Some(u32::from_be_bytes([data[0], data[1], data[2], data[3]]));
            }
            ATTR_COMMUNITIES => {
                if data.len() % 4 != 0 {
                    return Err(WireError::Malformed("bad COMMUNITIES length"));
                }
                for c in data.chunks(4) {
                    m.communities
                        .push(u32::from_be_bytes([c[0], c[1], c[2], c[3]]));
                }
            }
            _ => {} // unknown attributes are skipped
        }
    }

    while r.remaining() > 0 {
        m.nlri.push(decode_nlri_prefix(&mut r)?);
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn poisoned_update() -> UpdateMsg {
        UpdateMsg {
            withdrawn: vec![],
            origin: Some(Origin::Igp),
            as_path: Some(AsPath::poisoned(AsId(100), &[AsId(3356)])),
            next_hop: Some(0x0A000001),
            med: None,
            local_pref: Some(100),
            communities: vec![(65000 << 16) | 666],
            nlri: vec![Prefix::from_octets(184, 164, 224, 0, 19)],
        }
    }

    #[test]
    fn update_roundtrip_poisoned_announcement() {
        let upd = poisoned_update();
        let bytes = encode_update(&upd).unwrap();
        let (msg, _) = decode_update(&bytes).unwrap();
        assert_eq!(msg, upd);
    }

    #[test]
    fn update_withdrawal_roundtrip() {
        let upd = UpdateMsg {
            withdrawn: vec![
                Prefix::from_octets(184, 164, 224, 0, 19),
                Prefix::from_octets(10, 0, 0, 0, 8),
                Prefix::new(0, 0),
            ],
            ..UpdateMsg::default()
        };
        let bytes = encode_update(&upd).unwrap();
        let (msg, _) = decode_update(&bytes).unwrap();
        assert_eq!(msg, upd);
    }

    #[test]
    fn bad_marker_rejected() {
        let mut bytes = encode_update(&poisoned_update()).unwrap();
        bytes[0] = 0;
        assert_eq!(decode_update(&bytes), Err(WireError::BadMarker));
    }

    #[test]
    fn truncated_rejected() {
        let bytes = encode_update(&poisoned_update()).unwrap();
        for cut in [0, 5, HEADER_LEN - 1, HEADER_LEN + 3, bytes.len() - 1] {
            assert_eq!(
                decode_update(&bytes[..cut]),
                Err(WireError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn unknown_type_rejected() {
        // OPEN (1), NOTIFICATION (3) and KEEPALIVE (4) are valid BGP but not
        // UPDATEs; 9 is no BGP type at all.
        let mut bytes = encode_update(&UpdateMsg::default()).unwrap();
        for ty in [1, 3, 4, 9] {
            bytes[18] = ty;
            assert_eq!(decode_update(&bytes), Err(WireError::UnknownType(ty)));
        }
    }

    #[test]
    fn long_as_path_uses_multiple_segments() {
        // 300 hops forces two AS_SEQUENCE segments.
        let hops: Vec<AsId> = (0..300u32).map(AsId).collect();
        let upd = UpdateMsg {
            origin: Some(Origin::Igp),
            as_path: Some(AsPath::from_hops(hops)),
            next_hop: Some(1),
            nlri: vec![Prefix::from_octets(192, 0, 2, 0, 24)],
            ..UpdateMsg::default()
        };
        let bytes = encode_update(&upd).unwrap();
        let (msg, _) = decode_update(&bytes).unwrap();
        assert_eq!(msg, upd);
    }

    proptest! {
        #[test]
        fn prop_update_roundtrip(
            withdrawn in proptest::collection::vec((any::<u32>(), 0u8..=32), 0..5),
            hops in proptest::collection::vec(0u32..1_000_000, 0..20),
            nlri in proptest::collection::vec((any::<u32>(), 0u8..=32), 0..5),
            med in proptest::option::of(any::<u32>()),
            communities in proptest::collection::vec(any::<u32>(), 0..4),
        ) {
            let upd = UpdateMsg {
                withdrawn: withdrawn.into_iter().map(|(a, l)| Prefix::new(a, l)).collect(),
                origin: Some(Origin::Incomplete),
                as_path: Some(AsPath::from_hops(hops.into_iter().map(AsId).collect())),
                next_hop: Some(0x0A00000B),
                med,
                local_pref: None,
                communities,
                nlri: nlri.into_iter().map(|(a, l)| Prefix::new(a, l)).collect(),
            };
            let bytes = encode_update(&upd).unwrap();
            let (msg, used) = decode_update(&bytes).unwrap();
            prop_assert_eq!(msg, upd);
            prop_assert_eq!(used, bytes.len());
        }

        #[test]
        fn prop_decode_arbitrary_bytes_never_panics(data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let _ = decode_update(&data);
        }

        #[test]
        fn prop_decode_flipped_byte_never_panics(
            hops in proptest::collection::vec(0u32..1_000_000, 0..10),
            flip_at in any::<usize>(),
            flip_to in any::<u8>(),
        ) {
            let upd = UpdateMsg {
                origin: Some(Origin::Igp),
                as_path: Some(AsPath::from_hops(hops.into_iter().map(AsId).collect())),
                next_hop: Some(1),
                nlri: vec![Prefix::from_octets(192, 0, 2, 0, 24)],
                ..UpdateMsg::default()
            };
            let mut bytes = encode_update(&upd).unwrap();
            let idx = flip_at % bytes.len();
            bytes[idx] = flip_to;
            let _ = decode_update(&bytes);
        }
    }
}
