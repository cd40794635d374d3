//! Batched multi-prefix UPDATE packing.
//!
//! Real BGP speakers coalesce same-attribute advertisements into one
//! UPDATE: every emission in the same tick, to the same peer, carrying the
//! same path attributes rides a shared NLRI (or withdrawn-routes) list,
//! subject to the 4096-byte message cap. The dynamic engine emits logical
//! per-prefix updates; [`UpdatePacker`] observes that emission stream and
//! accounts for what the wire would actually carry, building genuine
//! [`lg_bgp::wire::UpdateMsg`]s and encoding them through the RFC 4271
//! codec.
//!
//! Packing is *observational*: it never reorders, delays, or merges the
//! logical events the engine processes, so Loc-RIBs, update logs, and
//! quiescence ticks are byte-identical whether packing is on or off — the
//! differential harnesses sweep `pack_updates` on one side and off on the
//! oracle side to pin exactly that. What packing adds is telemetry:
//!
//! * `dynamic.updates_packed` — emissions coalesced into an already-open
//!   group (the savings: logical updates minus wire messages);
//! * `dynamic.wire_updates` — UPDATE messages actually encoded, after
//!   grouping and the 4096-byte chunking;
//! * `dynamic.wire_bytes` — total encoded bytes of those messages;
//! * `dynamic.wire_bytes_unpacked` — bytes the same stream would cost at
//!   one prefix per message (the baseline the savings are measured
//!   against).
//!
//! Grouping key and flush discipline: a group is `(from, to, path id)`
//! within one send timestamp. Interned path-id equality is path-attribute
//! equality (hash-consing), withdrawals group under `None`, and any
//! advance of the send clock flushes all open groups — BGP cannot hold a
//! message back to pack it with a future one. The engine also flushes at
//! the end of every run so counters never lag a quiescent simulation.

use crate::dynamic::DynamicTelemetry;
use crate::time::Time;
use lg_asmap::AsId;
use lg_bgp::wire::{Codec, Message, Origin, UpdateMsg, MAX_MESSAGE_LEN};
use lg_bgp::{PathId, PathInterner, Prefix};
use std::collections::HashMap;

/// One open same-attribute group: the prefixes that would share a wire
/// UPDATE (modulo the 4096-byte chunking applied at flush).
struct PackGroup {
    from: AsId,
    /// `Some` groups announcements by interned path; `None` groups
    /// withdrawals. The receiving peer is part of the grouping key but
    /// not of the message: UPDATEs don't name their receiver.
    path: Option<PathId>,
    prefixes: Vec<Prefix>,
}

/// Observes the engine's ordered emission stream and accounts packed wire
/// messages (see module docs). One per simulation.
pub(crate) struct UpdatePacker {
    /// Timestamp the open groups belong to.
    at: Time,
    /// Open groups, in first-emission order (deterministic: the emission
    /// stream itself is in global `(time, seq)` order).
    groups: Vec<PackGroup>,
    /// Group index by key, cleared on every flush.
    index: HashMap<(AsId, AsId, Option<PathId>), usize>,
    codec: Codec,
}

impl UpdatePacker {
    pub(crate) fn new() -> Self {
        UpdatePacker {
            at: Time::ZERO,
            groups: Vec::new(),
            index: HashMap::new(),
            codec: Codec::default(),
        }
    }

    /// Account one logical emission: `from` sends `prefix` (announcing
    /// `path`, or withdrawing on `None`) at send-time `now`. `now` must be
    /// nondecreasing across calls — it is the engine's monotone clock.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn observe(
        &mut self,
        now: Time,
        from: AsId,
        to: AsId,
        prefix: Prefix,
        path: Option<PathId>,
        paths: &PathInterner,
        tele: &DynamicTelemetry,
    ) {
        if now != self.at {
            self.flush(paths, tele);
            self.at = now;
        }
        match self.index.get(&(from, to, path)) {
            Some(&i) => {
                self.groups[i].prefixes.push(prefix);
                tele.updates_packed.inc();
            }
            None => {
                self.index.insert((from, to, path), self.groups.len());
                self.groups.push(PackGroup {
                    from,
                    path,
                    prefixes: vec![prefix],
                });
            }
        }
    }

    /// Close every open group: chunk at the message cap, encode each chunk
    /// through the wire codec, and bump the wire counters.
    pub(crate) fn flush(&mut self, paths: &PathInterner, tele: &DynamicTelemetry) {
        if self.groups.is_empty() {
            return;
        }
        let groups = std::mem::take(&mut self.groups);
        self.index.clear();
        for g in groups {
            self.flush_group(g, paths, tele);
        }
    }

    fn flush_group(&self, g: PackGroup, paths: &PathInterner, tele: &DynamicTelemetry) {
        // NLRI wire cost of one prefix: length octet + ceil(len/8) bytes.
        let per = |p: &Prefix| 1 + (p.len() as usize).div_ceil(8);
        let template = |nlri: Vec<Prefix>, withdrawn: Vec<Prefix>| match g.path {
            Some(p) => UpdateMsg {
                origin: Some(Origin::Igp),
                as_path: Some(paths.materialize(p)),
                // The engine does not model router addresses; the sender's
                // AS id stands in as an opaque 32-bit next hop.
                next_hop: Some(g.from.0),
                nlri,
                ..UpdateMsg::default()
            },
            None => UpdateMsg {
                withdrawn,
                ..UpdateMsg::default()
            },
        };
        let build = |chunk: Vec<Prefix>| {
            if g.path.is_some() {
                template(chunk, Vec::new())
            } else {
                template(Vec::new(), chunk)
            }
        };
        // Measure the fixed per-message overhead (header + attribute block)
        // by encoding a single-prefix message once; every further prefix
        // adds exactly its NLRI cost, which makes chunking arithmetic.
        let first = g.prefixes[0];
        let probe = self
            .codec
            .encode(&Message::Update(build(vec![first])))
            .expect("single-prefix UPDATE exceeds the message cap");
        let overhead = probe.len() - per(&first);
        let mut unpacked_bytes = 0u64;
        let mut chunk: Vec<Prefix> = Vec::new();
        let mut chunk_bytes = overhead;
        let emit = |chunk: &mut Vec<Prefix>| {
            let msg = build(std::mem::take(chunk));
            let bytes = self
                .codec
                .encode(&Message::Update(msg))
                .expect("packed UPDATE chunk exceeds the message cap");
            tele.wire_updates.inc();
            tele.wire_bytes.add(bytes.len() as u64);
        };
        for p in &g.prefixes {
            unpacked_bytes += (overhead + per(p)) as u64;
            if !chunk.is_empty() && chunk_bytes + per(p) > MAX_MESSAGE_LEN {
                emit(&mut chunk);
                chunk_bytes = overhead;
            }
            chunk_bytes += per(p);
            chunk.push(*p);
        }
        emit(&mut chunk);
        tele.wire_bytes_unpacked.add(unpacked_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_bgp::AsPath;
    use lg_telemetry::Registry;

    fn tele(reg: &Registry) -> DynamicTelemetry {
        DynamicTelemetry::from_registry(reg)
    }

    fn pfx(i: u32) -> Prefix {
        Prefix::new(0x0A00_0000 + (i << 12), 20)
    }

    #[test]
    fn same_tick_same_attrs_coalesce_into_one_message() {
        let reg = Registry::new();
        let t = tele(&reg);
        let mut paths = PathInterner::new();
        let id = paths.intern(&AsPath::from_hops(vec![AsId(7), AsId(9)]));
        let mut packer = UpdatePacker::new();
        for i in 0..8 {
            packer.observe(Time(5), AsId(7), AsId(3), pfx(i), Some(id), &paths, &t);
        }
        packer.flush(&paths, &t);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("dynamic.updates_packed"), Some(7));
        assert_eq!(snap.counter("dynamic.wire_updates"), Some(1));
        let packed = snap.counter("dynamic.wire_bytes").unwrap();
        let unpacked = snap.counter("dynamic.wire_bytes_unpacked").unwrap();
        assert!(
            packed < unpacked,
            "packing saved nothing: {packed} vs {unpacked}"
        );
    }

    #[test]
    fn distinct_attrs_ticks_and_peers_do_not_coalesce() {
        let reg = Registry::new();
        let t = tele(&reg);
        let mut paths = PathInterner::new();
        let a = paths.intern(&AsPath::from_hops(vec![AsId(7), AsId(9)]));
        let b = paths.intern(&AsPath::from_hops(vec![AsId(7), AsId(8), AsId(9)]));
        let mut packer = UpdatePacker::new();
        // Different path attribute.
        packer.observe(Time(5), AsId(7), AsId(3), pfx(0), Some(a), &paths, &t);
        packer.observe(Time(5), AsId(7), AsId(3), pfx(1), Some(b), &paths, &t);
        // Different peer.
        packer.observe(Time(5), AsId(7), AsId(4), pfx(2), Some(a), &paths, &t);
        // Withdrawal groups apart from announcements.
        packer.observe(Time(5), AsId(7), AsId(3), pfx(3), None, &paths, &t);
        // Later tick flushes and opens fresh groups.
        packer.observe(Time(6), AsId(7), AsId(3), pfx(4), Some(a), &paths, &t);
        packer.flush(&paths, &t);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("dynamic.updates_packed"), Some(0));
        assert_eq!(snap.counter("dynamic.wire_updates"), Some(5));
    }

    #[test]
    fn oversized_groups_chunk_at_the_message_cap() {
        let reg = Registry::new();
        let t = tele(&reg);
        let mut paths = PathInterner::new();
        let id = paths.intern(&AsPath::from_hops(vec![AsId(7), AsId(9)]));
        let mut packer = UpdatePacker::new();
        // Each /20 costs 4 wire bytes; thousands of them overflow 4096 and
        // must split into multiple valid messages.
        let n = 3000u32;
        for i in 0..n {
            packer.observe(Time(5), AsId(7), AsId(3), pfx(i), Some(id), &paths, &t);
        }
        packer.flush(&paths, &t);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("dynamic.updates_packed"), Some(n as u64 - 1));
        let msgs = snap.counter("dynamic.wire_updates").unwrap();
        assert!(msgs >= 3, "3000 prefixes cannot fit two messages: {msgs}");
        let packed = snap.counter("dynamic.wire_bytes").unwrap();
        assert!(
            packed <= msgs * MAX_MESSAGE_LEN as u64,
            "a chunk exceeded the cap"
        );
    }
}
