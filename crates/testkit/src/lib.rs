//! # hat-testkit
//!
//! Shared deterministic test support. The build environment is offline, so the
//! randomised harnesses across the workspace (the `sfa/tests/` differentials, the store
//! crash-recovery fuzz, the interpreter replay tests, and the `hat-gen` config
//! generator) cannot pull in a property-testing crate. They all use the same tiny
//! xorshift64 stream instead, so that **one printed seed reproduces any failure** in any
//! harness, and a tweak to the generator state machine cannot silently fork the streams
//! apart.
//!
//! The draw order is part of the contract: harnesses pin fixed seeds to streams
//! produced in exactly this order, and `hat-gen` names every generated configuration
//! after its `(seed, index)` pair.

/// The deterministic xorshift64 generator shared by every randomised harness in the
/// workspace.
///
/// The state is public so tests can embed literal seeds; a zero seed is nudged to a
/// fixed non-zero constant (xorshift has a fixed point at zero).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct XorShift(pub u64);

impl XorShift {
    /// A generator seeded with `seed` (a zero seed is remapped to a non-zero constant).
    pub fn seeded(seed: u64) -> Self {
        if seed == 0 {
            XorShift(0x9e3779b97f4a7c15)
        } else {
            XorShift(seed)
        }
    }

    /// The next value of the stream. (Named like the pre-extraction copies; the
    /// generator is deliberately not an `Iterator` — the stream is infinite and every
    /// call site wants the raw `u64`.)
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    /// A value in `0..bound`.
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// A fair-enough coin flip.
    pub fn flip(&mut self) -> bool {
        self.below(2) == 0
    }

    /// Picks one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_is_the_pinned_xorshift64_sequence() {
        // Reference transcription of the pre-extraction RNG copies: the sfa differential
        // harnesses pinned their seeds against exactly this 13/7/17 stream.
        fn reference(mut x: u64) -> u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
        for seed in [1u64, 42, 0x9e3779b97f4a7c15, 0xdeadbeefcafef00d] {
            let mut rng = XorShift(seed);
            let mut s = seed;
            for _ in 0..32 {
                s = reference(s);
                assert_eq!(rng.next(), s);
            }
        }
    }

    #[test]
    fn zero_seed_is_remapped() {
        let mut z = XorShift::seeded(0);
        assert_ne!(z.next(), 0);
        assert_eq!(XorShift::seeded(7).0, 7);
    }

    #[test]
    fn below_and_flip_are_deterministic() {
        let mut a = XorShift(42);
        let mut b = XorShift(42);
        for _ in 0..100 {
            assert_eq!(a.below(17), b.below(17));
        }
        let mut c = XorShift(42);
        let _ = c.next();
        assert_ne!(a.0, 42);
        let _ = (a.flip(), c.flip());
    }

    #[test]
    fn pick_covers_the_slice() {
        let mut rng = XorShift(3);
        let items = [1, 2, 3, 4];
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..64 {
            seen.insert(*rng.pick(&items));
        }
        assert_eq!(seen.len(), items.len());
    }
}
