//! State fingerprinting for symmetry-reduced exploration.
//!
//! The reduced explorer (`exsel_sim::reduce`) prunes a branch when the
//! *global state* it leads to — machine control states plus register-bank
//! contents — has already been expanded. Two states that differ only by a
//! permutation of process ids are equivalent for pid-symmetric algorithms
//! and checkers, so states are compared by a **canonical fingerprint**:
//! the minimum [`StateHasher`] digest over all pid permutations, with
//! pid-derived payloads (the tokens processes write into registers)
//! relabeled through a [`TokenMap`] so the permuted state really is the
//! state the permuted execution would have produced.
//!
//! [`Fingerprint`] is the hashing hook: banks and machines feed their
//! state through it. Implementations must fold in **everything** that can
//! influence future behavior — an under-distinguishing fingerprint makes
//! the visited-set prune unsound (branches wrongly skipped), while an
//! over-distinguishing one merely prunes less. When in doubt, hash more.
//!
//! The digest is 128-bit FNV-1a: deterministic across runs and platforms
//! (no `RandomState`), and wide enough that accidental collisions over
//! the few million states of an exhaustive walk are negligible.

use crate::bank::{ArcBank, RegisterBank, SlabBank};
use crate::mem::RegId;
use crate::word::{SnapRecord, Word};

/// 128-bit FNV-1a offset basis.
const FNV_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
/// 128-bit FNV-1a prime.
const FNV_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

/// Incremental 128-bit FNV-1a digest of one global state.
///
/// ```
/// use exsel_shm::StateHasher;
/// let mut a = StateHasher::new();
/// a.write_u64(7);
/// let mut b = StateHasher::new();
/// b.write_u64(7);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Clone, Debug)]
pub struct StateHasher {
    state: u128,
}

impl StateHasher {
    /// A fresh digest at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        StateHasher { state: FNV_OFFSET }
    }

    /// Folds one byte into the digest.
    pub fn write_u8(&mut self, byte: u8) {
        self.state = (self.state ^ u128::from(byte)).wrapping_mul(FNV_PRIME);
    }

    /// Folds a `u64` into the digest (little-endian bytes).
    pub fn write_u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.write_u8(byte);
        }
    }

    /// Folds a `usize` into the digest.
    pub fn write_usize(&mut self, value: usize) {
        self.write_u64(value as u64);
    }

    /// The digest of everything written so far.
    #[must_use]
    pub fn finish(&self) -> u128 {
        self.state
    }
}

impl Default for StateHasher {
    fn default() -> Self {
        StateHasher::new()
    }
}

/// A pid relabeling applied to token payloads while fingerprinting.
///
/// `tokens[i]` is the token value process `Pid(i)` carries (the paper's
/// algorithms hand process `i` the original name `i + 1`); `perm[i]` is
/// the position pid `i` takes under the candidate permutation. Relabeling
/// maps `tokens[i]` to `tokens[perm[i]]` and passes every other value
/// through unchanged, so a permuted state hashes exactly as the permuted
/// execution would have written it.
///
/// ```
/// use exsel_shm::TokenMap;
/// let map = TokenMap::new(&[1, 2, 3], &[2, 0, 1]); // pid 0 -> position 2
/// assert_eq!(map.relabel(1), 3);
/// assert_eq!(map.relabel(2), 1);
/// assert_eq!(map.relabel(99), 99); // not a token: unchanged
/// let id = TokenMap::identity();
/// assert_eq!(id.relabel(1), 1);
/// ```
#[derive(Clone, Debug)]
pub struct TokenMap {
    tokens: Vec<u64>,
    perm: Vec<usize>,
}

impl TokenMap {
    /// A relabeling of `tokens` under `perm` (`perm[i]` = new position of
    /// pid `i`). Token values must be pairwise distinct — otherwise the
    /// relabeling is ambiguous.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` and `perm` differ in length, `perm` is not a
    /// permutation of `0..tokens.len()`, or tokens repeat.
    #[must_use]
    pub fn new(tokens: &[u64], perm: &[usize]) -> Self {
        assert_eq!(tokens.len(), perm.len(), "token/permutation length");
        let mut seen = vec![false; perm.len()];
        for &p in perm {
            assert!(p < perm.len() && !seen[p], "perm is not a permutation");
            seen[p] = true;
        }
        for (i, &t) in tokens.iter().enumerate() {
            assert!(
                !tokens[..i].contains(&t),
                "token values must be distinct for relabeling"
            );
        }
        TokenMap {
            tokens: tokens.to_vec(),
            perm: perm.to_vec(),
        }
    }

    /// The identity relabeling: every value passes through unchanged.
    /// This is the map to use when hashing without symmetry reduction.
    #[must_use]
    pub fn identity() -> Self {
        TokenMap {
            tokens: Vec::new(),
            perm: Vec::new(),
        }
    }

    /// Maps `value` through the relabeling: token of pid `i` becomes the
    /// token of the pid at position `perm[i]`; non-token values are
    /// unchanged.
    #[must_use]
    pub fn relabel(&self, value: u64) -> u64 {
        match self.tokens.iter().position(|&t| t == value) {
            Some(i) => self.tokens[self.perm[i]],
            None => value,
        }
    }
}

/// State hashing under a pid relabeling.
///
/// Implementations fold their complete behavioral state into `hasher`,
/// mapping every pid-derived integer payload through [`TokenMap::relabel`]
/// so that pid-permuted states collide. The contract is the visited-set
/// soundness contract of the reduced explorer: omitting state that
/// influences future transitions makes pruning unsound.
pub trait Fingerprint {
    /// Folds this value's state into `hasher` under `map`.
    fn fingerprint(&self, hasher: &mut StateHasher, map: &TokenMap);
}

/// Integers are treated as (potential) token payloads and relabeled.
/// Values that are not pid tokens pass through [`TokenMap::relabel`]
/// unchanged; integers that must never be relabeled (sequence numbers,
/// counters) should be written via [`StateHasher::write_u64`] directly.
impl Fingerprint for u64 {
    fn fingerprint(&self, hasher: &mut StateHasher, map: &TokenMap) {
        hasher.write_u64(map.relabel(*self));
    }
}

impl Fingerprint for bool {
    fn fingerprint(&self, hasher: &mut StateHasher, _map: &TokenMap) {
        hasher.write_u8(u8::from(*self));
    }
}

impl<T: Fingerprint> Fingerprint for Option<T> {
    fn fingerprint(&self, hasher: &mut StateHasher, map: &TokenMap) {
        match self {
            None => hasher.write_u8(0),
            Some(v) => {
                hasher.write_u8(1);
                v.fingerprint(hasher, map);
            }
        }
    }
}

/// Words hash a variant tag plus relabeled integer payloads. Snapshot
/// records hash by value (sequence number raw, component value and every
/// embedded-view word relabeled), so two banks holding structurally equal
/// records fingerprint identically regardless of `Arc` sharing.
impl Fingerprint for Word {
    fn fingerprint(&self, hasher: &mut StateHasher, map: &TokenMap) {
        match self {
            Word::Null => hasher.write_u8(0),
            Word::Int(v) => {
                hasher.write_u8(1);
                hasher.write_u64(map.relabel(*v));
            }
            Word::Pair(a, b) => {
                hasher.write_u8(2);
                hasher.write_u64(map.relabel(*a));
                hasher.write_u64(map.relabel(*b));
            }
            Word::Snap(rec) => {
                hasher.write_u8(3);
                rec.fingerprint(hasher, map);
            }
        }
    }
}

impl Fingerprint for SnapRecord {
    fn fingerprint(&self, hasher: &mut StateHasher, map: &TokenMap) {
        hasher.write_u64(self.seq);
        self.value.fingerprint(hasher, map);
        hasher.write_usize(self.view.len());
        for w in self.view.iter() {
            w.fingerprint(hasher, map);
        }
    }
}

/// Banks hash their logical contents: the length plus every register
/// word in index order, the registers past the materialized prefix as
/// `Null` — so the digest is independent of how far a bank has
/// materialized.
impl Fingerprint for ArcBank {
    fn fingerprint(&self, hasher: &mut StateHasher, map: &TokenMap) {
        hasher.write_usize(self.len());
        let words = self.words();
        for w in words {
            w.fingerprint(hasher, map);
        }
        for _ in words.len()..self.len() {
            Word::Null.fingerprint(hasher, map);
        }
    }
}

impl Fingerprint for SlabBank {
    fn fingerprint(&self, hasher: &mut StateHasher, map: &TokenMap) {
        hasher.write_usize(self.len());
        for i in 0..self.len() {
            self.load(RegId(i)).fingerprint(hasher, map);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn digest(f: impl Fn(&mut StateHasher, &TokenMap), map: &TokenMap) -> u128 {
        let mut h = StateHasher::new();
        f(&mut h, map);
        h.finish()
    }

    #[test]
    fn hasher_is_deterministic_and_order_sensitive() {
        let id = TokenMap::identity();
        let a = digest(|h, _| h.write_u64(1), &id);
        let b = digest(|h, _| h.write_u64(1), &id);
        assert_eq!(a, b);
        let ab = digest(
            |h, _| {
                h.write_u64(1);
                h.write_u64(2);
            },
            &id,
        );
        let ba = digest(
            |h, _| {
                h.write_u64(2);
                h.write_u64(1);
            },
            &id,
        );
        assert_ne!(ab, ba);
    }

    #[test]
    fn relabel_maps_tokens_through_the_permutation() {
        // pid 0 takes position 1, pid 1 position 0, pid 2 stays.
        let map = TokenMap::new(&[10, 20, 30], &[1, 0, 2]);
        assert_eq!(map.relabel(10), 20);
        assert_eq!(map.relabel(20), 10);
        assert_eq!(map.relabel(30), 30);
        assert_eq!(map.relabel(7), 7);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn token_map_rejects_non_permutations() {
        let _ = TokenMap::new(&[1, 2], &[0, 0]);
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn token_map_rejects_duplicate_tokens() {
        let _ = TokenMap::new(&[5, 5], &[0, 1]);
    }

    #[test]
    fn word_variants_hash_distinctly() {
        let id = TokenMap::identity();
        let words = [
            Word::Null,
            Word::Int(0),
            Word::Int(1),
            Word::Pair(0, 0),
            Word::Pair(0, 1),
        ];
        let digests: Vec<u128> = words
            .iter()
            .map(|w| digest(|h, m| w.fingerprint(h, m), &id))
            .collect();
        for i in 0..digests.len() {
            for j in i + 1..digests.len() {
                assert_ne!(digests[i], digests[j], "{:?} vs {:?}", words[i], words[j]);
            }
        }
    }

    #[test]
    fn relabeled_bank_matches_the_permuted_bank() {
        // Writing token(0) into r0 and hashing under the swap 0<->1 must
        // equal writing token(1) into r0 and hashing under identity with
        // the same token universe: the relabeled state IS the state the
        // permuted execution would produce.
        let tokens = [1u64, 2u64];
        let swap = TokenMap::new(&tokens, &[1, 0]);
        let ident = TokenMap::new(&tokens, &[0, 1]);
        let mut a = ArcBank::new();
        a.reset(2);
        a.write(RegId(0), Word::Int(1));
        let mut b = ArcBank::new();
        b.reset(2);
        b.write(RegId(0), Word::Int(2));
        let da = digest(|h, m| a.fingerprint(h, m), &swap);
        let db = digest(|h, m| b.fingerprint(h, m), &ident);
        assert_eq!(da, db);
    }

    #[test]
    fn slab_and_arc_banks_fingerprint_identically() {
        let id = TokenMap::identity();
        let rec = Arc::new(SnapRecord {
            seq: 3,
            value: Word::Int(7),
            view: vec![Word::Null, Word::Int(2)].into(),
        });
        let words = [Word::Int(5), Word::Null, Word::Snap(rec), Word::Pair(1, 9)];
        let mut arc = ArcBank::new();
        let mut slab = SlabBank::new();
        arc.reset(words.len());
        slab.reset(words.len());
        for (i, w) in words.iter().enumerate() {
            arc.write(RegId(i), w.clone());
            slab.write(RegId(i), w.clone());
        }
        let da = digest(|h, m| arc.fingerprint(h, m), &id);
        let ds = digest(|h, m| slab.fingerprint(h, m), &id);
        assert_eq!(da, ds, "backends must agree on the state digest");
    }

    #[test]
    fn bank_digests_ignore_the_materialized_prefix() {
        // Same logical contents, different prefixes: one bank also
        // wrote `Null` into a high register, materializing up to it.
        let id = TokenMap::identity();
        let mut short = ArcBank::new();
        let mut long = ArcBank::new();
        let mut slab_short = SlabBank::new();
        let mut slab_long = SlabBank::new();
        short.reset(200);
        long.reset(200);
        slab_short.reset(200);
        slab_long.reset(200);
        short.write(RegId(2), Word::Int(4));
        long.write(RegId(2), Word::Int(4));
        slab_short.write(RegId(2), Word::Int(4));
        slab_long.write(RegId(2), Word::Int(4));
        long.write(RegId(150), Word::Null);
        slab_long.write(RegId(150), Word::Null);
        assert_eq!(short.words().len(), 3);
        assert_eq!(long.words().len(), 151);
        let d = digest(|h, m| short.fingerprint(h, m), &id);
        assert_eq!(d, digest(|h, m| long.fingerprint(h, m), &id));
        assert_eq!(d, digest(|h, m| slab_short.fingerprint(h, m), &id));
        assert_eq!(d, digest(|h, m| slab_long.fingerprint(h, m), &id));
        // A different value in the tail still changes the digest.
        long.write(RegId(150), Word::Int(0));
        assert_ne!(d, digest(|h, m| long.fingerprint(h, m), &id));
    }

    #[test]
    fn snap_records_hash_by_value_not_by_arc_identity() {
        let id = TokenMap::identity();
        let make = || {
            Word::Snap(Arc::new(SnapRecord {
                seq: 2,
                value: Word::Int(4),
                view: vec![Word::Int(1)].into(),
            }))
        };
        let (a, b) = (make(), make());
        let da = digest(|h, m| a.fingerprint(h, m), &id);
        let db = digest(|h, m| b.fingerprint(h, m), &id);
        assert_eq!(da, db);
    }
}
