//! # hat-gen
//!
//! A deterministic, seedable generator of **verdict-known** HAT verification
//! configurations, and the fuzz driver that runs them through the whole stack
//! (checker → engine knob matrix → memo tiers → store file → daemon wire) asserting
//! every observed verdict against the constructed one.
//!
//! The strongest invariant this repository maintains is that *verdicts are a pure
//! function of the configuration*: every engine knob, cache tier, and transport must
//! report exactly what the plain checker reports. The hand-written suite checks that
//! over 19 fixed configurations; this crate checks it over an unbounded, reproducible
//! stream:
//!
//! 1. [`spec`] draws a [`GenSpec`] — a pure-data recipe — from a `(seed, index)` pair
//!    of the shared `hat_testkit::XorShift` stream.
//! 2. [`GenSpec::build`] instantiates one of four invariant families (all mirroring
//!    templates the hand-written suite already verifies) into a library Δ, a ground
//!    representation invariant, and method bodies. A method is either an OK template
//!    (provably invariant-preserving) or carries one **verdict-flipping mutation**
//!    from the catalogue in [`Mutation`] — so its expected verdict is known without
//!    running any checker.
//! 3. [`fuzz::fuzz`] runs configurations end-to-end and, on any disagreement,
//!    [`shrink::shrink`] greedily minimises the *recipe* to a small reproducer whose
//!    name (e.g. `gen/s1-i17-m2-n0`) regenerates it anywhere — including server-side
//!    in `marpled`, which resolves generated names through [`find`].
//!
//! The committed 64-configuration corpus ([`corpus`]) is snapshotted in
//! `tests/gen_corpus_verdicts.txt` following the same golden discipline as the
//! engine's `golden_verdicts.txt`.

mod build;
mod spec;

pub mod fuzz;
pub mod shrink;

pub use build::well_sorted;
pub use spec::{parse_library_name, Edits, Family, GenSpec, MethodShape, MethodSpec, Mutation};

use hat_suite::Benchmark;

/// Seed of the committed corpus (`tests/gen_corpus_verdicts.txt`).
pub const CORPUS_SEED: u64 = 424242;

/// Size of the committed corpus.
pub const CORPUS_SIZE: u64 = 64;

/// Draws the recipe for configuration `index` of `seed`'s stream.
pub fn spec(seed: u64, index: u64) -> GenSpec {
    spec::draw(seed, index)
}

/// Builds configuration `index` of `seed`'s stream.
pub fn generate(seed: u64, index: u64) -> Benchmark {
    spec(seed, index).build()
}

/// The committed corpus: [`CORPUS_SIZE`] configurations of [`CORPUS_SEED`]'s stream.
pub fn corpus() -> Vec<Benchmark> {
    corpus_specs().iter().map(GenSpec::build).collect()
}

/// The recipes of the committed corpus.
pub fn corpus_specs() -> Vec<GenSpec> {
    (0..CORPUS_SIZE).map(|i| spec(CORPUS_SEED, i)).collect()
}

/// Resolves a generated configuration by name: ADT `gen`, library
/// `s<seed>-i<index>[-m<kept methods>][-n0]`. This is how `marple check gen s1-i17`
/// and the daemon's request resolution regenerate a configuration from its name
/// alone — the name *is* the recipe, so no wire-protocol change is needed to fuzz
/// over the daemon.
pub fn find(adt: &str, library: &str) -> Option<Benchmark> {
    if !adt.eq_ignore_ascii_case("gen") {
        return None;
    }
    let (seed, index, edits) = parse_library_name(library)?;
    let mut s = spec(seed, index);
    if let Some(keep) = &edits.keep {
        if keep.iter().any(|&i| i >= s.methods.len()) {
            return None;
        }
    }
    s.edits = edits;
    Some(s.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_configurations_are_well_sorted() {
        for i in 0..48 {
            let b = generate(3, i);
            well_sorted(&b).unwrap();
            assert!(!b.methods.is_empty());
            assert!(!b.delta.alphabet().is_empty());
            assert!(b.invariant.literal_count() > 0);
        }
    }

    #[test]
    fn find_round_trips_the_name() {
        let s = spec(9, 4);
        let b = find("gen", &s.library_name()).expect("name resolves");
        assert_eq!(b.library, s.library_name());
        assert_eq!(b.methods.len(), s.methods.len());
        assert!(find("Gen", &s.library_name()).is_some(), "case-insensitive");
        assert!(find("stack", &s.library_name()).is_none());
        assert!(
            find("gen", "s1-i2-m9").is_none(),
            "method index out of range"
        );
        assert!(find("gen", "bogus").is_none());
    }

    #[test]
    fn edits_drop_methods_and_noise() {
        // Find a spec with ≥2 methods and ≥1 noise call.
        let mut s = (0..256)
            .map(|i| spec(5, i))
            .find(|s| s.methods.len() >= 2 && s.methods.iter().any(|m| !m.noise_calls.is_empty()))
            .expect("stream contains a multi-method noisy spec");
        let full = s.build();
        s.edits.keep = Some(vec![0]);
        s.edits.strip_noise = true;
        let cut = s.build();
        assert_eq!(cut.methods.len(), 1);
        assert!(cut.methods.len() < full.methods.len());
        assert!(cut.library.ends_with("-m0-n0"));
        well_sorted(&cut).unwrap();
    }

    #[test]
    fn corpus_is_stable_and_diverse() {
        let specs = corpus_specs();
        assert_eq!(specs.len(), CORPUS_SIZE as usize);
        let families: std::collections::BTreeSet<&str> =
            specs.iter().map(|s| s.family.tag()).collect();
        assert_eq!(
            families.len(),
            4,
            "corpus covers all families: {families:?}"
        );
        let ok = specs
            .iter()
            .flat_map(|s| &s.methods)
            .filter(|m| m.expect_verified())
            .count();
        let bad = specs.iter().flat_map(|s| &s.methods).count() - ok;
        assert!(
            ok > 20 && bad > 10,
            "corpus mixes verdicts: {ok} ok, {bad} bad"
        );
    }
}
