//! Seeded property tests: the flat-vector substitution against the
//! hash-keyed [`Substitution`] as a reference model.
//!
//! A `FlatSubstitution` over `n` dense variables must behave exactly like a
//! `HashMap`-backed substitution restricted to the domain `Var(0..n)`:
//! random sequences of `bind` / `remove` / `get` / `apply` round-trip
//! identically, and the full binding sets stay equal after every
//! operation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use dlearn_logic::{FlatSubstitution, Substitution, Term, Var};

const VARS: u32 = 12;
const OPS: usize = 600;

fn random_term(rng: &mut StdRng) -> Term {
    match rng.gen_range(0..3u32) {
        // Range terms are unrestricted: D-side variables with indices far
        // outside the numbering, including the pair-checker sentinel.
        0 => Term::var(rng.gen_range(0..200u32)),
        1 => Term::var(u32::MAX),
        _ => Term::constant(["alpha", "beta", "gamma"][rng.gen_range(0..3usize)]),
    }
}

/// The two representations agree on every observable after every operation.
fn assert_equivalent(flat: &FlatSubstitution, reference: &Substitution) {
    assert_eq!(flat.len(), reference.len());
    assert_eq!(flat.is_empty(), reference.is_empty());
    for i in 0..VARS {
        assert_eq!(flat.get(Var(i)), reference.get(Var(i)), "binding of v{i}");
        let probe = Term::var(i);
        assert_eq!(flat.apply(&probe), reference.apply(&probe));
    }
    // Constants always pass through.
    let c = Term::constant("untouched");
    assert_eq!(flat.apply(&c), c);
    assert_eq!(reference.apply(&c), c);
}

#[test]
fn flat_substitution_matches_hashmap_reference_under_random_ops() {
    for seed in [0x5eed1u64, 0x5eed2, 0x5eed3] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut flat = FlatSubstitution::new(VARS as usize);
        let mut reference = Substitution::new();
        for step in 0..OPS {
            let v = Var(rng.gen_range(0..VARS));
            match rng.gen_range(0..3u32) {
                0 => {
                    let t = random_term(&mut rng);
                    flat.bind(v, t);
                    reference.bind(v, t);
                }
                1 => {
                    let a = flat.remove(v);
                    let b = reference.remove(v);
                    assert_eq!(a, b, "seed {seed:#x} step {step}: remove diverged");
                }
                _ => {
                    assert_eq!(flat.get(v), reference.get(v));
                }
            }
            assert_equivalent(&flat, &reference);
        }
    }
}

#[test]
fn apply_iter_round_trips_through_both_representations() {
    let mut rng = StdRng::seed_from_u64(0xab5e);
    for _ in 0..50 {
        let mut flat = FlatSubstitution::new(VARS as usize);
        let mut reference = Substitution::new();
        for _ in 0..rng.gen_range(0..VARS as usize) {
            let v = Var(rng.gen_range(0..VARS));
            let t = random_term(&mut rng);
            flat.bind(v, t);
            reference.bind(v, t);
        }
        let terms: Vec<Term> = (0..VARS)
            .map(|i| {
                if rng.gen_bool(0.5) {
                    Term::var(i)
                } else {
                    random_term(&mut rng)
                }
            })
            .collect();
        let via_flat: Vec<Term> = flat.apply_iter(&terms).collect();
        let via_reference: Vec<Term> = reference.apply_iter(&terms).collect();
        assert_eq!(via_flat, via_reference);
        assert_eq!(via_reference, reference.apply_all(&terms));
    }
}

#[test]
fn trail_style_unwind_restores_previous_state() {
    // The subsumption search relies on remove() exactly undoing bind() in
    // reverse trail order; replay random bind/unwind rounds against the
    // reference.
    let mut rng = StdRng::seed_from_u64(0x7a11);
    let mut flat = FlatSubstitution::new(VARS as usize);
    let mut reference = Substitution::new();
    for _ in 0..100 {
        let mut trail: Vec<Var> = Vec::new();
        for _ in 0..rng.gen_range(1..6usize) {
            let v = Var(rng.gen_range(0..VARS));
            let t = random_term(&mut rng);
            if flat.get(v).is_none() {
                flat.bind(v, t);
                reference.bind(v, t);
                trail.push(v);
            }
        }
        assert_equivalent(&flat, &reference);
        if rng.gen_bool(0.7) {
            // Backtrack: unwind this round's bindings from both.
            for v in trail.drain(..).rev() {
                assert_eq!(flat.remove(v), reference.remove(v));
            }
            assert_equivalent(&flat, &reference);
        }
    }
}

#[test]
fn out_of_numbering_gets_are_unbound() {
    let flat = FlatSubstitution::new(3);
    assert_eq!(flat.get(Var(3)), None);
    assert_eq!(flat.get(Var(u32::MAX)), None);
    let probe = Term::var(999);
    assert_eq!(flat.apply(&probe), probe);
}
