//! Deterministic content hashing of instances.
//!
//! The solve cache in `bss-serve` keys entries on a digest of the instance
//! *content* — two structurally equal instances must map to the same key on
//! every run, every platform, and every build, which rules out
//! [`std::collections::hash_map::DefaultHasher`] (its keys are randomized
//! per process). The digest here is FNV-1a over the canonical encoding
//! `(version tag, m, c, s_0..s_{c-1}, n, (class_0, t_0)..(class_{n-1},
//! t_{n-1}))` with every integer serialized as 8 little-endian bytes.
//!
//! **This is a cache key, not a cryptographic hash.** FNV-1a is fast and
//! well-distributed but trivially forgeable; collisions are survivable
//! because every cache consumer re-checks full instance equality on a hash
//! hit before serving a cached solution (see `bss-serve`). Never use this
//! digest for authentication or content addressing across trust domains.

use crate::{Instance, Job};

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Version tag mixed into every digest; bump when the canonical encoding
/// changes so stale cross-version cache keys can never alias.
const ENCODING_VERSION: u64 = 1;

/// An incremental FNV-1a 64-bit hasher over little-endian integer words.
///
/// Exposed so sibling crates (e.g. `bss-serve`) can hash composite cache
/// keys — instance digest plus variant and algorithm — with the same
/// deterministic function.
#[derive(Debug, Clone)]
pub struct ContentHasher(u64);

impl ContentHasher {
    /// A fresh hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        ContentHasher(FNV_OFFSET)
    }

    /// Absorbs one byte.
    pub fn write_u8(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(FNV_PRIME);
    }

    /// Absorbs a `u64` as 8 little-endian bytes.
    pub fn write_u64(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.write_u8(byte);
        }
    }

    /// Absorbs a `usize` widened to `u64` (platform-independent digest).
    pub fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    /// The digest of everything absorbed so far.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for ContentHasher {
    fn default() -> Self {
        ContentHasher::new()
    }
}

/// Hasher state after absorbing the canonical prefix `(version, m, c,
/// s_0..s_{c-1})` — everything an [`crate::IncrementalInstance`]'s deltas
/// can never change. Sharing the two halves between the plain and the
/// incremental digest keeps the encodings from drifting apart.
pub(crate) fn setup_section_hasher(machines: usize, setups: &[u64]) -> ContentHasher {
    let mut h = ContentHasher::new();
    h.write_u64(ENCODING_VERSION);
    h.write_usize(machines);
    h.write_usize(setups.len());
    for &s in setups {
        h.write_u64(s);
    }
    h
}

/// Finishes a digest from a setup-section `prefix`: absorbs `n` and the job
/// stream, the delta-variable suffix of the canonical encoding.
pub(crate) fn job_section_hash(prefix: &ContentHasher, jobs: &[Job]) -> u64 {
    let mut h = prefix.clone();
    h.write_usize(jobs.len());
    for &Job { class, time } in jobs {
        h.write_usize(class);
        h.write_u64(time);
    }
    h.finish()
}

impl Instance {
    /// A deterministic 64-bit digest of the instance content.
    ///
    /// Structurally equal instances hash equal; the digest is stable across
    /// processes, platforms and releases of this crate (pinned by a
    /// golden-value test; an internal encoding-version tag guards encoding
    /// changes).
    /// Job and class *order* is part of the content: the same multiset of
    /// jobs in a different insertion order is a different instance (solver
    /// output depends on indices) and hashes differently.
    ///
    /// This is a **cache key, not a cryptographic hash** — callers must
    /// confirm instance equality on a hash hit before trusting it.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        job_section_hash(
            &setup_section_hasher(self.machines(), self.setups()),
            self.jobs(),
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::InstanceBuilder;

    use super::*;

    fn base() -> Instance {
        let mut b = InstanceBuilder::new(3);
        b.add_batch(10, &[7, 3, 9, 2]);
        b.add_batch(4, &[5, 5, 6]);
        b.build().unwrap()
    }

    /// The digest is pinned to a literal: any change to the canonical
    /// encoding (or to FNV itself) must be deliberate — bump
    /// `ENCODING_VERSION` and re-bless this constant together.
    #[test]
    fn digest_is_stable_across_runs_and_builds() {
        let inst = base();
        assert_eq!(inst.content_hash(), 0xe69b_6de0_0899_2dc4);
        // And trivially within a process.
        assert_eq!(inst.content_hash(), inst.content_hash());
        assert_eq!(inst.clone().content_hash(), inst.content_hash());
    }

    #[test]
    fn equal_instances_hash_equal_after_a_wire_roundtrip() {
        let inst = base();
        let back = Instance::from_json(&inst.to_json()).unwrap();
        assert_eq!(back, inst);
        assert_eq!(back.content_hash(), inst.content_hash());
    }

    #[test]
    fn near_identical_instances_are_distinguished() {
        let reference = base().content_hash();
        // One more machine.
        let mut b = InstanceBuilder::new(4);
        b.add_batch(10, &[7, 3, 9, 2]);
        b.add_batch(4, &[5, 5, 6]);
        let more_machines = b.build().unwrap();
        assert_ne!(more_machines.content_hash(), reference);
        assert_ne!(more_machines, base());
        // One job time off by one.
        let mut b = InstanceBuilder::new(3);
        b.add_batch(10, &[7, 3, 9, 2]);
        b.add_batch(4, &[5, 5, 7]);
        let retimed = b.build().unwrap();
        assert_ne!(retimed.content_hash(), reference);
        assert_ne!(retimed, base());
        // One setup off by one.
        let mut b = InstanceBuilder::new(3);
        b.add_batch(11, &[7, 3, 9, 2]);
        b.add_batch(4, &[5, 5, 6]);
        assert_ne!(b.build().unwrap().content_hash(), reference);
        // Same jobs, two of them swapped (insertion order is content).
        let mut b = InstanceBuilder::new(3);
        b.add_batch(10, &[3, 7, 9, 2]);
        b.add_batch(4, &[5, 5, 6]);
        assert_ne!(b.build().unwrap().content_hash(), reference);
        // A job moved between classes, keeping every aggregate-by-value the
        // same shape.
        let mut b = InstanceBuilder::new(3);
        let c0 = b.add_class(10);
        let c1 = b.add_class(4);
        for t in [7, 3, 9] {
            b.add_job(c0, t);
        }
        b.add_job(c1, 2);
        for t in [5, 5, 6] {
            b.add_job(c1, t);
        }
        assert_ne!(b.build().unwrap().content_hash(), reference);
    }

    /// Concatenation attacks on the flat word stream: moving a value across
    /// the setups/jobs boundary must not alias, because the section lengths
    /// are part of the encoding.
    #[test]
    fn section_lengths_prevent_boundary_aliasing() {
        let mut one_class_two_jobs = InstanceBuilder::new(1);
        one_class_two_jobs.add_batch(5, &[5, 5]);
        let mut two_classes_one_job = InstanceBuilder::new(1);
        two_classes_one_job.add_batch(5, &[5]);
        two_classes_one_job.add_batch(5, &[5]);
        // Different structure, overlapping raw values.
        let a = one_class_two_jobs.build().unwrap();
        let b = two_classes_one_job.build().unwrap();
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn hasher_is_plain_fnv1a() {
        // Spot-check against the published FNV-1a test vector for "a"
        // (0xaf63dc4c8601ec8c) to pin the constants.
        let mut h = ContentHasher::new();
        h.write_u8(b'a');
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
