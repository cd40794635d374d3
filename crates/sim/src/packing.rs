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
//! sees the emission and the path arena, neither of them mutably, so it
//! cannot reorder, delay, or merge the logical events the engine
//! processes. What packing adds is telemetry, counted as plain integers in
//! the engine's `LoopTally` and added to the registry at the end of each
//! public engine call:
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
//! Grouping key and close discipline: a group is `(directed edge, path
//! id)` within one send timestamp, the edge being the engine's flat index
//! of the `from` → `to` adjacency. Interned path-id equality is
//! path-attribute equality (hash-consing), and an announced path holds at
//! least its sender's hop, so withdrawals group under the empty path
//! [`PathId::EMPTY`]. Any
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

use crate::dynamic::LoopTally;
use crate::time::Time;
use lg_asmap::AsId;
use lg_bgp::wire::{encode_update, Origin, UpdateMsg, MAX_MESSAGE_LEN};
use lg_bgp::{IdHashMap, PathId, PathInterner, Prefix};

/// NLRI wire cost of one prefix: length octet + ceil(len/8) bytes.
fn nlri_cost(p: Prefix) -> usize {
    1 + (p.len() as usize).div_ceil(8)
}

/// The single-prefix UPDATE `from` would put on the wire for `prefix`
/// (announcing `path`, or withdrawing on the empty path).
fn single_prefix_update(
    from: AsId,
    prefix: Prefix,
    path: PathId,
    paths: &PathInterner,
) -> UpdateMsg {
    if path.is_empty() {
        return UpdateMsg {
            withdrawn: vec![prefix],
            ..UpdateMsg::default()
        };
    }
    UpdateMsg {
        origin: Some(Origin::Igp),
        as_path: Some(paths.materialize(path)),
        // The engine does not model router addresses; the sender's AS id
        // stands in as an opaque 32-bit next hop.
        next_hop: Some(from.0),
        nlri: vec![prefix],
        ..UpdateMsg::default()
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
    /// Open groups by `(directed edge, path)`, cleared whenever they
    /// close. Probed only.
    open: IdHashMap<(u32, PathId), OpenGroup>,
    /// Measured per-message overhead of an announcement by AS-path hop
    /// count; 0 marks a shape not encoded yet.
    announce_overhead: Vec<usize>,
    /// The same for a withdrawal (no attribute block).
    withdraw_overhead: usize,
}

impl UpdatePacker {
    pub(crate) fn new() -> Self {
        UpdatePacker {
            at: Time::ZERO,
            open: IdHashMap::default(),
            announce_overhead: Vec::new(),
            withdraw_overhead: 0,
        }
    }

    /// Per-message overhead of the attribute-block shape `path` has,
    /// encoding one genuine message the first time the shape is seen.
    fn overhead(
        &mut self,
        from: AsId,
        prefix: Prefix,
        path: PathId,
        paths: &PathInterner,
        tally: &mut LoopTally,
    ) -> usize {
        let known = if path.is_empty() {
            &mut self.withdraw_overhead
        } else {
            let hops = paths.len(path);
            if self.announce_overhead.len() <= hops {
                self.announce_overhead.resize(hops + 1, 0);
            }
            &mut self.announce_overhead[hops]
        };
        if *known == 0 {
            let msg = single_prefix_update(from, prefix, path, paths);
            let bytes = encode_update(&msg).expect("single-prefix UPDATE exceeds the message cap");
            tally.encodes += 1;
            *known = bytes.len() - nlri_cost(prefix);
        }
        *known
    }

    /// Account one logical emission: `from` sends `prefix` over directed
    /// edge `edge` (announcing `path`, or withdrawing on
    /// [`PathId::EMPTY`]) at send-time `now`, into `tally`. `now` must be
    /// nondecreasing across calls — it is the engine's monotone clock.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn observe(
        &mut self,
        now: Time,
        edge: u32,
        from: AsId,
        prefix: Prefix,
        path: PathId,
        paths: &PathInterner,
        tally: &mut LoopTally,
    ) {
        if now != self.at {
            self.flush();
            self.at = now;
        }
        let per = nlri_cost(prefix);
        if let Some(g) = self.open.get_mut(&(edge, path)) {
            tally.updates_packed += 1;
            tally.wire_bytes_unpacked += (g.overhead + per) as u64;
            if g.chunk_bytes + per > MAX_MESSAGE_LEN {
                // The open message is full: this prefix starts the next.
                tally.wire_updates += 1;
                tally.wire_bytes += (g.overhead + per) as u64;
                g.chunk_bytes = g.overhead + per;
            } else {
                tally.wire_bytes += per as u64;
                g.chunk_bytes += per;
            }
            return;
        }
        let overhead = self.overhead(from, prefix, path, paths, tally);
        let chunk_bytes = overhead + per;
        assert!(
            chunk_bytes <= MAX_MESSAGE_LEN,
            "single-prefix UPDATE exceeds the message cap"
        );
        tally.groups += 1;
        tally.wire_updates += 1;
        tally.wire_bytes += chunk_bytes as u64;
        tally.wire_bytes_unpacked += chunk_bytes as u64;
        self.open.insert(
            (edge, path),
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
pub(crate) mod tests {
    use super::*;
    use lg_bgp::AsPath;
    use std::collections::HashMap;

    fn pfx(i: u32) -> Prefix {
        Prefix::new(0x0A00_0000 + (i << 12), 20)
    }

    /// The four wire counters, as the registry would get them.
    fn wire(t: &LoopTally) -> [u64; 4] {
        [
            t.updates_packed,
            t.wire_updates,
            t.wire_bytes,
            t.wire_bytes_unpacked,
        ]
    }

    /// The packer as it was before emissions were accounted by arithmetic:
    /// groups keep their prefixes, and closing a group builds and encodes
    /// a genuine UPDATE per 4096-byte chunk (plus a single-prefix probe).
    /// Kept as the reference [`UpdatePacker`]'s counters are checked
    /// against.
    #[derive(Clone)]
    pub(crate) struct ReferencePacker {
        at: Time,
        groups: Vec<(AsId, PathId, Vec<Prefix>)>,
        index: HashMap<(u32, PathId), usize>,
    }

    impl ReferencePacker {
        pub(crate) fn new() -> Self {
            ReferencePacker {
                at: Time::ZERO,
                groups: Vec::new(),
                index: HashMap::new(),
            }
        }

        #[allow(clippy::too_many_arguments)]
        pub(crate) fn observe(
            &mut self,
            now: Time,
            edge: u32,
            from: AsId,
            prefix: Prefix,
            path: PathId,
            paths: &PathInterner,
            tally: &mut LoopTally,
        ) {
            if now != self.at {
                self.flush(paths, tally);
                self.at = now;
            }
            match self.index.get(&(edge, path)) {
                Some(&i) => {
                    self.groups[i].2.push(prefix);
                    tally.updates_packed += 1;
                }
                None => {
                    self.index.insert((edge, path), self.groups.len());
                    self.groups.push((from, path, vec![prefix]));
                }
            }
        }

        pub(crate) fn flush(&mut self, paths: &PathInterner, tally: &mut LoopTally) {
            self.index.clear();
            for (from, path, prefixes) in std::mem::take(&mut self.groups) {
                Self::flush_group(from, path, &prefixes, paths, tally);
            }
        }

        fn flush_group(
            from: AsId,
            path: PathId,
            prefixes: &[Prefix],
            paths: &PathInterner,
            tally: &mut LoopTally,
        ) {
            let build = |chunk: Vec<Prefix>| {
                let mut msg = single_prefix_update(from, chunk[0], path, paths);
                if path.is_empty() {
                    msg.withdrawn = chunk;
                } else {
                    msg.nlri = chunk;
                }
                msg
            };
            // Measure the fixed per-message overhead (header + attribute
            // block) by encoding a single-prefix message once; every
            // further prefix adds exactly its NLRI cost.
            let first = prefixes[0];
            let probe = encode_update(&build(vec![first]))
                .expect("single-prefix UPDATE exceeds the message cap");
            let overhead = probe.len() - nlri_cost(first);
            let mut chunk: Vec<Prefix> = Vec::new();
            let mut chunk_bytes = overhead;
            let emit = |chunk: &mut Vec<Prefix>, tally: &mut LoopTally| {
                let bytes = encode_update(&build(std::mem::take(chunk)))
                    .expect("packed UPDATE chunk exceeds the message cap");
                tally.wire_updates += 1;
                tally.wire_bytes += bytes.len() as u64;
            };
            for p in prefixes {
                tally.wire_bytes_unpacked += (overhead + nlri_cost(*p)) as u64;
                if !chunk.is_empty() && chunk_bytes + nlri_cost(*p) > MAX_MESSAGE_LEN {
                    emit(&mut chunk, tally);
                    chunk_bytes = overhead;
                }
                chunk_bytes += nlri_cost(*p);
                chunk.push(*p);
            }
            emit(&mut chunk, tally);
        }
    }

    /// Hop counts that cross every attribute-block shape boundary: one
    /// hop (an announced path holds at least its sender's), two, the last
    /// one-segment path (255), the first two-segment one (256, also past
    /// the one-byte attribute length), and a long one.
    const HOP_COUNTS: [usize; 5] = [1, 2, 255, 256, 600];

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
            let mut choices: Vec<PathId> = HOP_COUNTS
                .iter()
                .map(|&n| paths.intern(&AsPath::from_hops(vec![AsId(7); n])))
                .collect();
            choices.push(paths.intern(&AsPath::from_hops(vec![AsId(9)])));
            choices.push(PathId::EMPTY);

            let (mut t_new, mut t_ref) = (LoopTally::default(), LoopTally::default());
            let mut packer = UpdatePacker::new();
            let mut reference = ReferencePacker::new();
            let mut now = Time(1);
            let mut emit = |now: Time, from: u32, to: u32, p: Prefix, path: PathId| {
                // Any one-to-one numbering of the directed edges will do.
                let edge = from * 3 + to;
                packer.observe(now, edge, AsId(from), p, path, &paths, &mut t_new);
                reference.observe(now, edge, AsId(from), p, path, &paths, &mut t_ref);
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
            reference.flush(&paths, &mut t_ref);

            proptest::prop_assert_eq!(wire(&t_new), wire(&t_ref));
            proptest::prop_assert!(
                t_new.encodes <= HOP_COUNTS.len() as u64 + 1,
                "one encode per shape, not per group: {}", t_new.encodes
            );
        }
    }

    #[test]
    fn same_tick_same_attrs_coalesce_into_one_message() {
        let mut t = LoopTally::default();
        let mut paths = PathInterner::new();
        let id = paths.intern(&AsPath::from_hops(vec![AsId(7), AsId(9)]));
        let mut packer = UpdatePacker::new();
        for i in 0..8 {
            packer.observe(Time(5), 0, AsId(7), pfx(i), id, &paths, &mut t);
        }
        packer.flush();
        assert_eq!(t.updates_packed, 7);
        assert_eq!(t.wire_updates, 1);
        assert!(
            t.wire_bytes < t.wire_bytes_unpacked,
            "packing saved nothing: {} vs {}",
            t.wire_bytes,
            t.wire_bytes_unpacked
        );
    }

    #[test]
    fn distinct_attrs_ticks_and_peers_do_not_coalesce() {
        let mut t = LoopTally::default();
        let mut paths = PathInterner::new();
        let a = paths.intern(&AsPath::from_hops(vec![AsId(7), AsId(9)]));
        let b = paths.intern(&AsPath::from_hops(vec![AsId(7), AsId(8), AsId(9)]));
        let mut packer = UpdatePacker::new();
        // Different path attribute.
        packer.observe(Time(5), 0, AsId(7), pfx(0), a, &paths, &mut t);
        packer.observe(Time(5), 0, AsId(7), pfx(1), b, &paths, &mut t);
        // Different peer, so a different edge.
        packer.observe(Time(5), 1, AsId(7), pfx(2), a, &paths, &mut t);
        // Withdrawal groups apart from announcements.
        packer.observe(Time(5), 0, AsId(7), pfx(3), PathId::EMPTY, &paths, &mut t);
        // Later tick flushes and opens fresh groups.
        packer.observe(Time(6), 0, AsId(7), pfx(4), a, &paths, &mut t);
        packer.flush();
        assert_eq!(t.updates_packed, 0);
        assert_eq!(t.wire_updates, 5);
    }

    #[test]
    fn oversized_groups_chunk_at_the_message_cap() {
        let mut t = LoopTally::default();
        let mut paths = PathInterner::new();
        let id = paths.intern(&AsPath::from_hops(vec![AsId(7), AsId(9)]));
        let mut packer = UpdatePacker::new();
        // Each /20 costs 4 wire bytes; thousands of them overflow 4096 and
        // must split into multiple valid messages.
        let n = 3000u32;
        for i in 0..n {
            packer.observe(Time(5), 0, AsId(7), pfx(i), id, &paths, &mut t);
        }
        packer.flush();
        assert_eq!(t.updates_packed, n as u64 - 1);
        let msgs = t.wire_updates;
        assert!(msgs >= 3, "3000 prefixes cannot fit two messages: {msgs}");
        assert!(
            t.wire_bytes <= msgs * MAX_MESSAGE_LEN as u64,
            "a chunk exceeded the cap"
        );
    }
}
