//! Batched multi-prefix UPDATE packing.
//!
//! Real BGP speakers coalesce same-attribute advertisements into one
//! UPDATE: every emission in the same tick, to the same peer, carrying the
//! same path attributes rides a shared NLRI (or withdrawn-routes) list,
//! subject to the 4096-byte message cap. The dynamic engine emits logical
//! per-prefix updates; [`UpdatePacker`] observes that emission stream and
//! accounts for what the wire would actually carry.
//!
//! Packing is *observational* and always on: [`UpdatePacker::observe`]
//! sees the emission, the path arena and the telemetry handles, none of
//! them mutably, so it cannot reorder, delay, or merge the logical events
//! the engine processes. What packing adds is telemetry:
//!
//! * `dynamic.updates_packed` — emissions coalesced into an already-open
//!   group (the savings: logical updates minus wire messages);
//! * `dynamic.wire_updates` — UPDATE messages on the wire, after grouping
//!   and the 4096-byte chunking;
//! * `dynamic.wire_bytes` — total encoded bytes of those messages;
//! * `dynamic.wire_bytes_unpacked` — bytes the same stream would cost at
//!   one prefix per message (the baseline the savings are measured
//!   against).
//!
//! Grouping key and close discipline: a group is `(from, to, path id)`
//! within one send timestamp. Interned path-id equality is path-attribute
//! equality (hash-consing), withdrawals group under `None`, and any
//! advance of the send clock closes all open groups — BGP cannot hold a
//! message back to pack it with a future one. The engine also closes them
//! at the end of every run, as a speaker's send queue drains.
//!
//! Every emission is accounted in O(1), when it is observed. An UPDATE's
//! size is a fixed per-message overhead (header plus attribute block) plus
//! each prefix's NLRI cost, and the overhead depends only on the *shape*
//! of the attribute block — withdrawal, or the AS path's hop count (four
//! bytes a hop, a two-byte segment header every 255 hops, a wider length
//! field past 255 value bytes; ORIGIN and NEXT_HOP are fixed). So the
//! packer runs the RFC 4271 codec once per shape on a genuine
//! [`UpdateMsg`], keeps the measured overhead in a table no longer than
//! the longest encodable path (about a thousand hops fit 4096 bytes), and
//! from then on does arithmetic: an open group is the byte count of its
//! open chunk. Encoding every message instead — twice for a single-prefix
//! group — was 38 % of a `poison_convergence` op; keying the memo by
//! `PathId` rather than shape grew with the arena and cost 10 % of peak
//! RSS. The test module keeps the encode-every-chunk packer as the
//! reference the arithmetic is checked against, counter for counter.

use crate::dynamic::DynamicTelemetry;
use crate::time::Time;
use lg_asmap::AsId;
use lg_bgp::wire::{Codec, Message, Origin, UpdateMsg, MAX_MESSAGE_LEN};
use lg_bgp::{IdHashMap, PathId, PathInterner, Prefix};

/// NLRI wire cost of one prefix: length octet + ceil(len/8) bytes.
fn nlri_cost(p: Prefix) -> usize {
    1 + (p.len() as usize).div_ceil(8)
}

/// The single-prefix UPDATE `from` would put on the wire for `prefix`
/// (announcing `path`, or withdrawing on `None`).
fn single_prefix_update(
    from: AsId,
    prefix: Prefix,
    path: Option<PathId>,
    paths: &PathInterner,
) -> UpdateMsg {
    match path {
        Some(p) => UpdateMsg {
            origin: Some(Origin::Igp),
            as_path: Some(paths.materialize(p)),
            // The engine does not model router addresses; the sender's
            // AS id stands in as an opaque 32-bit next hop.
            next_hop: Some(from.0),
            nlri: vec![prefix],
            ..UpdateMsg::default()
        },
        None => UpdateMsg {
            withdrawn: vec![prefix],
            ..UpdateMsg::default()
        },
    }
}

/// One open same-attribute group: what its messages cost apart from their
/// prefixes, and how full the message being filled is.
struct OpenGroup {
    overhead: usize,
    chunk_bytes: usize,
}

/// Observes the engine's ordered emission stream and accounts packed wire
/// messages (see module docs). One per simulation.
pub(crate) struct UpdatePacker {
    /// Timestamp the open groups belong to.
    at: Time,
    /// Open groups by key, cleared whenever they close. Probed only.
    open: IdHashMap<(AsId, AsId, Option<PathId>), OpenGroup>,
    /// Measured per-message overhead of an announcement by AS-path hop
    /// count; 0 marks a shape not encoded yet.
    announce_overhead: Vec<usize>,
    /// The same for a withdrawal (no attribute block).
    withdraw_overhead: usize,
    codec: Codec,
    /// Groups opened so far (`packing.groups`).
    pub(crate) groups: u64,
    /// Real codec runs so far (`packing.encodes`): one per shape.
    pub(crate) encodes: u64,
}

impl UpdatePacker {
    pub(crate) fn new() -> Self {
        UpdatePacker {
            at: Time::ZERO,
            open: IdHashMap::default(),
            announce_overhead: Vec::new(),
            withdraw_overhead: 0,
            codec: Codec::default(),
            groups: 0,
            encodes: 0,
        }
    }

    /// Per-message overhead of the attribute-block shape `path` has,
    /// encoding one genuine message the first time the shape is seen.
    fn overhead(
        &mut self,
        from: AsId,
        prefix: Prefix,
        path: Option<PathId>,
        paths: &PathInterner,
    ) -> usize {
        let known = match path {
            Some(p) => {
                let hops = paths.len(p);
                if self.announce_overhead.len() <= hops {
                    self.announce_overhead.resize(hops + 1, 0);
                }
                &mut self.announce_overhead[hops]
            }
            None => &mut self.withdraw_overhead,
        };
        if *known == 0 {
            let msg = single_prefix_update(from, prefix, path, paths);
            let bytes = self
                .codec
                .encode(&Message::Update(msg))
                .expect("single-prefix UPDATE exceeds the message cap");
            self.encodes += 1;
            *known = bytes.len() - nlri_cost(prefix);
        }
        *known
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
            self.flush();
            self.at = now;
        }
        let per = nlri_cost(prefix);
        if let Some(g) = self.open.get_mut(&(from, to, path)) {
            tele.updates_packed.inc();
            tele.wire_bytes_unpacked.add((g.overhead + per) as u64);
            if g.chunk_bytes + per > MAX_MESSAGE_LEN {
                // The open message is full: this prefix starts the next.
                tele.wire_updates.inc();
                tele.wire_bytes.add((g.overhead + per) as u64);
                g.chunk_bytes = g.overhead + per;
            } else {
                tele.wire_bytes.add(per as u64);
                g.chunk_bytes += per;
            }
            return;
        }
        let overhead = self.overhead(from, prefix, path, paths);
        let chunk_bytes = overhead + per;
        assert!(
            chunk_bytes <= MAX_MESSAGE_LEN,
            "single-prefix UPDATE exceeds the message cap"
        );
        self.groups += 1;
        tele.wire_updates.inc();
        tele.wire_bytes.add(chunk_bytes as u64);
        tele.wire_bytes_unpacked.add(chunk_bytes as u64);
        self.open.insert(
            (from, to, path),
            OpenGroup {
                overhead,
                chunk_bytes,
            },
        );
    }

    /// Close every open group: a later emission with the same key starts
    /// a fresh message.
    pub(crate) fn flush(&mut self) {
        self.open.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lg_bgp::AsPath;
    use lg_telemetry::Registry;
    use std::collections::HashMap;

    fn tele(reg: &Registry) -> DynamicTelemetry {
        DynamicTelemetry::from_registry(reg)
    }

    fn pfx(i: u32) -> Prefix {
        Prefix::new(0x0A00_0000 + (i << 12), 20)
    }

    /// The packer as it was before emissions were accounted by arithmetic:
    /// groups keep their prefixes, and closing a group builds and encodes
    /// a genuine UPDATE per 4096-byte chunk (plus a single-prefix probe).
    /// Kept as the reference [`UpdatePacker`]'s counters are checked
    /// against.
    struct ReferencePacker {
        at: Time,
        groups: Vec<(AsId, Option<PathId>, Vec<Prefix>)>,
        index: HashMap<(AsId, AsId, Option<PathId>), usize>,
        codec: Codec,
    }

    impl ReferencePacker {
        fn new() -> Self {
            ReferencePacker {
                at: Time::ZERO,
                groups: Vec::new(),
                index: HashMap::new(),
                codec: Codec::default(),
            }
        }

        #[allow(clippy::too_many_arguments)]
        fn observe(
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
                    self.groups[i].2.push(prefix);
                    tele.updates_packed.inc();
                }
                None => {
                    self.index.insert((from, to, path), self.groups.len());
                    self.groups.push((from, path, vec![prefix]));
                }
            }
        }

        fn flush(&mut self, paths: &PathInterner, tele: &DynamicTelemetry) {
            self.index.clear();
            for (from, path, prefixes) in std::mem::take(&mut self.groups) {
                self.flush_group(from, path, &prefixes, paths, tele);
            }
        }

        fn flush_group(
            &self,
            from: AsId,
            path: Option<PathId>,
            prefixes: &[Prefix],
            paths: &PathInterner,
            tele: &DynamicTelemetry,
        ) {
            let build = |chunk: Vec<Prefix>| {
                let mut msg = single_prefix_update(from, chunk[0], path, paths);
                if path.is_some() {
                    msg.nlri = chunk;
                } else {
                    msg.withdrawn = chunk;
                }
                msg
            };
            // Measure the fixed per-message overhead (header + attribute
            // block) by encoding a single-prefix message once; every
            // further prefix adds exactly its NLRI cost.
            let first = prefixes[0];
            let probe = self
                .codec
                .encode(&Message::Update(build(vec![first])))
                .expect("single-prefix UPDATE exceeds the message cap");
            let overhead = probe.len() - nlri_cost(first);
            let mut unpacked_bytes = 0u64;
            let mut chunk: Vec<Prefix> = Vec::new();
            let mut chunk_bytes = overhead;
            let emit = |chunk: &mut Vec<Prefix>| {
                let bytes = self
                    .codec
                    .encode(&Message::Update(build(std::mem::take(chunk))))
                    .expect("packed UPDATE chunk exceeds the message cap");
                tele.wire_updates.inc();
                tele.wire_bytes.add(bytes.len() as u64);
            };
            for p in prefixes {
                unpacked_bytes += (overhead + nlri_cost(*p)) as u64;
                if !chunk.is_empty() && chunk_bytes + nlri_cost(*p) > MAX_MESSAGE_LEN {
                    emit(&mut chunk);
                    chunk_bytes = overhead;
                }
                chunk_bytes += nlri_cost(*p);
                chunk.push(*p);
            }
            emit(&mut chunk);
            tele.wire_bytes_unpacked.add(unpacked_bytes);
        }
    }

    /// Hop counts that cross every attribute-block shape boundary: the
    /// empty path, one hop, the last one-segment path (255), the first
    /// two-segment one (256, also past the one-byte attribute length), and
    /// a long one.
    const HOP_COUNTS: [usize; 5] = [0, 1, 255, 256, 600];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random emission streams through the arithmetic packer and the
        /// encode-every-chunk reference: the four wire counters agree
        /// counter for counter. Streams mix prefix lengths, announcements
        /// and withdrawals, peers and ticks; every case ends with one group
        /// of /32s that must split past 4096 bytes.
        #[test]
        fn arithmetic_packer_matches_the_encoding_reference(
            stream in proptest::collection::vec(
                // ((tick advance, from, to), (path, first prefix, run, length))
                ((0u64..2, 0u32..3, 0u32..3), (0usize..7, 0u32..4096, 1u32..=64, 0u8..=32)),
                1..24,
            ),
            big_path in 0usize..7,
        ) {
            let mut paths = PathInterner::new();
            // One path per hop count, plus a second one-hop path: same
            // shape, different content, so it shares the measured overhead
            // but never a group.
            let mut choices: Vec<Option<PathId>> = HOP_COUNTS
                .iter()
                .map(|&n| Some(paths.intern(&AsPath::from_hops(vec![AsId(7); n]))))
                .collect();
            choices.push(Some(paths.intern(&AsPath::from_hops(vec![AsId(9)]))));
            choices.push(None);

            let (reg_new, reg_ref) = (Registry::new(), Registry::new());
            let (t_new, t_ref) = (tele(&reg_new), tele(&reg_ref));
            let mut packer = UpdatePacker::new();
            let mut reference = ReferencePacker::new();
            let mut now = Time(1);
            let mut emit = |now: Time, from: u32, to: u32, p: Prefix, path: Option<PathId>| {
                packer.observe(now, AsId(from), AsId(to), p, path, &paths, &t_new);
                reference.observe(now, AsId(from), AsId(to), p, path, &paths, &t_ref);
            };
            for ((advance, from, to), (choice, first, run, len)) in stream {
                now += advance;
                for i in 0..run {
                    emit(now, from, to, Prefix::new((first + i) << 12, len), choices[choice]);
                }
            }
            // 4096 bytes is under 820 /32s even with no attribute block.
            for i in 0..900u32 {
                emit(now, 1, 2, Prefix::new(0xC000_0000 + i, 32), choices[big_path]);
            }
            packer.flush();
            reference.flush(&paths, &t_ref);

            let (new, want) = (reg_new.snapshot(), reg_ref.snapshot());
            for name in [
                "dynamic.updates_packed",
                "dynamic.wire_updates",
                "dynamic.wire_bytes",
                "dynamic.wire_bytes_unpacked",
            ] {
                proptest::prop_assert_eq!(new.counter(name), want.counter(name), "{}", name);
            }
            proptest::prop_assert!(
                packer.encodes <= HOP_COUNTS.len() as u64 + 1,
                "one encode per shape, not per group: {}", packer.encodes
            );
        }
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
        packer.flush();
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
        packer.flush();
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
        packer.flush();
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
