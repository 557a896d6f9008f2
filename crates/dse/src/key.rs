//! Canonical evaluation-cache keys.
//!
//! A cache key must identify one `(DFG, memory image, marker, routed
//! edge latencies, model parameters, mode assignment)` evaluation
//! exactly, and nothing else — two configurations that the analytical
//! model cannot distinguish must hash equal, and any change the model
//! *can* observe must change the key (invalidation by construction:
//! there is no version counter to forget to bump).
//!
//! Key derivation therefore goes through the `uecgra-probe` canonical
//! JSON serializer: the configuration is described as a [`Json`]
//! value, *normalized* (object fields sorted by name, so the key is
//! independent of struct-field or insertion order), rendered to its
//! canonical byte string, and digested with two independently seeded
//! SplitMix64-mix lanes into a 128-bit [`Digest`]. Floats render with
//! Rust's shortest-round-trip formatting, so the byte stream — and
//! hence the key — is identical on every platform, thread count, and
//! run.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use uecgra_probe::Json;

/// A 128-bit content digest (two independent 64-bit mix lanes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest(pub u64, pub u64);

impl std::fmt::Display for Digest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

impl Digest {
    /// Parse the 32-hex-digit rendering produced by `Display`: exactly
    /// 32 ASCII hex digits of either case, nothing else (no sign, no
    /// whitespace).
    pub fn parse(s: &str) -> Option<Digest> {
        if s.len() != 32 {
            return None;
        }
        let mut v = 0u128;
        for b in s.bytes() {
            v = (v << 4) | u128::from(char::from(b).to_digit(16)?);
        }
        Some(Digest::from_u128(v))
    }

    /// The digest as one 128-bit integer (HashMap key form).
    pub fn as_u128(self) -> u128 {
        (u128::from(self.0) << 64) | u128::from(self.1)
    }

    /// Inverse of [`Digest::as_u128`].
    pub fn from_u128(v: u128) -> Digest {
        Digest((v >> 64) as u64, v as u64)
    }
}

/// Hashes a [`Digest::as_u128`] key by its own low 64 bits. Digest
/// lanes are already SplitMix64-mixed, so a second (SipHash) pass adds
/// nothing but time.
///
/// Unlike SipHash this is unkeyed, so a crafted cache file could pick
/// colliding keys and slow its own load. That adds nothing to what a
/// cache file can already do: its measurements are trusted as given.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct DigestHasher(u64);

impl Hasher for DigestHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("DigestHasher hashes u128 digest keys only");
    }

    fn write_u128(&mut self, key: u128) {
        self.0 = key as u64;
    }
}

/// A map keyed by [`Digest::as_u128`], hashed with [`DigestHasher`].
pub(crate) type DigestMap<V> = HashMap<u128, V, BuildHasherDefault<DigestHasher>>;

/// A set of [`Digest::as_u128`] keys, hashed with [`DigestHasher`].
pub(crate) type DigestSet = HashSet<u128, BuildHasherDefault<DigestHasher>>;

/// SplitMix64's avalanche mixer (the same finalizer
/// `uecgra_util::SplitMix64` uses), as a pure function.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fold one word into a running lane state.
fn fold(state: u64, word: u64) -> u64 {
    mix64(state ^ word)
}

/// Two distinct lane seeds (arbitrary odd constants); two independent
/// lanes push accidental collisions out to the 128-bit birthday bound.
const LANE_SEEDS: [u64; 2] = [0x9E37_79B9_7F4A_7C15, 0xC2B2_AE3D_27D4_EB4F];

/// Digest a byte string with both lanes (length-suffixed, so streams
/// that are prefixes of each other cannot collide trivially).
pub fn digest_bytes(bytes: &[u8]) -> Digest {
    digest_words(bytes.len(), bytes.chunks(8).map(le_word))
}

/// Digest a `len`-byte stream given as its little-endian 8-byte words,
/// the last zero-padded: the same digest [`digest_bytes`] gives those
/// bytes, for callers that can produce the words without a buffer.
pub(crate) fn digest_words(len: usize, words: impl Iterator<Item = u64>) -> Digest {
    let mut lanes = LANE_SEEDS;
    for word in words {
        for lane in &mut lanes {
            *lane = fold(*lane, word);
        }
    }
    for lane in &mut lanes {
        *lane = fold(*lane, len as u64);
    }
    Digest(lanes[0], lanes[1])
}

/// Up to eight bytes as one little-endian word, zero-padded.
fn le_word(chunk: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..chunk.len()].copy_from_slice(chunk);
    u64::from_le_bytes(word)
}

/// Recursively sort every object's fields by key. The canonical
/// writer preserves insertion order, so normalizing before rendering
/// is what makes the digest independent of how a configuration
/// description happened to be assembled (struct-field reordering,
/// builder-call order, …).
pub fn normalize(v: &Json) -> Json {
    match v {
        Json::Array(items) => Json::Array(items.iter().map(normalize).collect()),
        Json::Object(fields) => {
            let mut sorted: Vec<(String, Json)> = fields
                .iter()
                .map(|(k, x)| (k.clone(), normalize(x)))
                .collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            Json::Object(sorted)
        }
        other => other.clone(),
    }
}

/// Digest a JSON value: normalize, render canonically, digest the
/// bytes.
pub fn digest_json(v: &Json) -> Digest {
    digest_bytes(normalize(v).render().as_bytes())
}

/// Combine two digests into one (order-sensitive).
pub fn combine(a: Digest, b: Digest) -> Digest {
    Digest(
        fold(fold(fold(LANE_SEEDS[0], a.0), a.1), b.0) ^ b.1,
        fold(fold(fold(LANE_SEEDS[1], b.1), b.0), a.1) ^ a.0,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_renders_and_parses() {
        let d = digest_bytes(b"hello");
        let s = d.to_string();
        assert_eq!(s.len(), 32);
        assert_eq!(Digest::parse(&s), Some(d));
        assert_eq!(Digest::parse("zz"), None);
        assert_eq!(Digest::parse(&s.to_uppercase()), Some(d));
        assert_eq!(Digest::from_u128(d.as_u128()), d);
    }

    #[test]
    fn digest_parse_rejects_everything_but_hex_digits() {
        let good = "0123456789abcdef0123456789ABCDEF";
        assert!(Digest::parse(good).is_some());
        // `from_str_radix` would take a leading sign; the key format
        // does not.
        for bad in ["+", "-", " ", "g"] {
            let first = format!("{bad}{}", &good[1..]);
            let middle = format!("{}{bad}{}", &good[..16], &good[17..]);
            assert_eq!(Digest::parse(&first), None, "{first:?}");
            assert_eq!(Digest::parse(&middle), None, "{middle:?}");
        }
        // A non-ASCII character, at 32 characters and at 32 bytes.
        for wide in [format!("é{}", &good[1..]), format!("é{}", &good[2..])] {
            assert_eq!(Digest::parse(&wide), None, "{wide:?}");
        }
        assert_eq!(Digest::parse(&good[1..]), None);
        assert_eq!(Digest::parse(&format!("{good}0")), None);
    }

    #[test]
    fn digest_maps_hash_by_the_low_lane() {
        use std::hash::BuildHasher;
        let d = digest_bytes(b"k");
        let build = BuildHasherDefault::<DigestHasher>::default();
        assert_eq!(build.hash_one(d.as_u128()), d.1);
        let mut map = DigestMap::default();
        map.insert(d.as_u128(), 7);
        assert_eq!(map.get(&d.as_u128()), Some(&7));
    }

    #[test]
    fn field_order_does_not_matter() {
        let a = Json::object(vec![
            ("alpha", Json::Uint(1)),
            ("beta", Json::Float(2.5)),
            (
                "nested",
                Json::object(vec![("x", Json::Uint(7)), ("y", Json::Uint(8))]),
            ),
        ]);
        let b = Json::object(vec![
            (
                "nested",
                Json::object(vec![("y", Json::Uint(8)), ("x", Json::Uint(7))]),
            ),
            ("beta", Json::Float(2.5)),
            ("alpha", Json::Uint(1)),
        ]);
        assert_eq!(digest_json(&a), digest_json(&b));
    }

    #[test]
    fn value_changes_change_the_digest() {
        let base = Json::object(vec![("alpha", Json::Uint(1))]);
        let other = Json::object(vec![("alpha", Json::Uint(2))]);
        let renamed = Json::object(vec![("alphb", Json::Uint(1))]);
        assert_ne!(digest_json(&base), digest_json(&other));
        assert_ne!(digest_json(&base), digest_json(&renamed));
    }

    #[test]
    fn array_order_does_matter() {
        let a = Json::Array(vec![Json::Uint(1), Json::Uint(2)]);
        let b = Json::Array(vec![Json::Uint(2), Json::Uint(1)]);
        assert_ne!(digest_json(&a), digest_json(&b));
    }

    #[test]
    fn combine_is_order_sensitive() {
        let a = digest_bytes(b"a");
        let b = digest_bytes(b"b");
        assert_ne!(combine(a, b), combine(b, a));
        assert_eq!(combine(a, b), combine(a, b));
    }

    #[test]
    fn prefix_streams_do_not_collide() {
        assert_ne!(digest_bytes(b"ab"), digest_bytes(b"ab\0"));
        assert_ne!(digest_bytes(b""), digest_bytes(b"\0"));
    }
}
