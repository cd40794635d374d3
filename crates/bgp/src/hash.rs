//! A fixed multiply-rotate hasher for maps keyed by simulator-internal ids.
//!
//! The engines probe a few maps once or more per simulated UPDATE
//! ([`crate::PathInterner`]'s hash-consing table, the dynamic engine's
//! per-epoch per-AS metrics, the packer's open-group index). Their keys
//! are small integers the simulator minted itself — `AsId`s, arena node
//! ids, `PathId`s — so SipHash's collision resistance buys nothing there
//! and costs most of the probe.
//!
//! Two rules come with the speed:
//!
//! * **Internal ids only.** Never key an [`IdHashMap`] by anything read
//!   from outside the program (prefixes from a scenario file, ASNs from a
//!   serial-1 snapshot): the hash is fixed and trivially collidable.
//! * **Probed only — never iterate for output.** std's `RandomState`
//!   shuffles iteration order per map instance, which is what lets
//!   `tests/multi_prefix.rs` catch iteration order leaking into event
//!   order. An `IdHashMap` iterates in the same order every time and
//!   would hide such a leak, so nothing may depend on its iteration
//!   order; counting entries is the one permitted walk.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` over [`IdHasher`] (see the module docs for the two rules).
pub type IdHashMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Word-at-a-time multiply-rotate hasher (the FxHash recipe).
#[derive(Clone, Copy, Debug, Default)]
pub struct IdHasher(u64);

const K: u64 = 0x517C_C1B7_2722_0A95;

impl IdHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves its entropy in the high bits; the table
        // takes the bucket index from the low ones.
        self.0.rotate_left(26)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_id_pairs_spread_over_buckets() {
        // The interner's key shape: (hop, parent) with both drawn from
        // small dense ranges. A hasher that left them in a few buckets
        // would turn every probe into a scan.
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<IdHasher>::default();
        let mut buckets = vec![0u32; 1 << 10];
        for hop in 0..256u32 {
            for parent in 0..256u32 {
                buckets[(build.hash_one((hop, parent)) & 0x3FF) as usize] += 1;
            }
        }
        let mean = (256 * 256 / buckets.len()) as u32;
        let worst = *buckets.iter().max().unwrap();
        assert!(worst < 4 * mean, "worst bucket {worst} vs mean {mean}");
    }

    #[test]
    fn map_round_trips() {
        let mut m: IdHashMap<(u32, u32), u32> = IdHashMap::default();
        for i in 0..10_000u32 {
            m.insert((i, i ^ 0xFFFF), i);
        }
        assert_eq!(m.len(), 10_000);
        for i in (0..10_000u32).step_by(97) {
            assert_eq!(m.get(&(i, i ^ 0xFFFF)), Some(&i));
        }
        assert_eq!(m.get(&(1, 1)), None);
    }
}
