//! Allocation pin of the flat ground-clause index.
//!
//! A counting global allocator checks that [`GroundClause::new`] makes the
//! same number of allocations, and its drop the same number of frees, for
//! clauses of 1 to 1,000 literals of each kind: relation literals over a few
//! signatures with shared and distinct terms, `≈`, `=` and `≠` literals, and
//! repair groups of both origins. An index that kept a list or a map per
//! key would allocate in proportion to the clause.
//!
//! Run with `cargo test -p dlearn-logic --test ground_clause_allocs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dlearn_logic::repair::{CondAtom, RepairGroup, RepairOrigin};
use dlearn_logic::{Clause, GroundClause, Literal, Term, Var};

/// The system allocator, counting the allocations and frees of the calling
/// thread (the test harness allocates on threads of its own).
struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
    static FREES: Cell<usize> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<usize>>) {
    // A thread being torn down has no counters left; nothing is measured
    // there.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREES);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and frees the calling thread makes while running `f`.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (a, d) = (ALLOCS.with(Cell::get), FREES.with(Cell::get));
    let out = f();
    (out, ALLOCS.with(Cell::get) - a, FREES.with(Cell::get) - d)
}

/// A clause with `n` literals of each kind and `n` repair groups. Relation
/// literals cycle through three signatures, two of one relation; their
/// arguments repeat a few join variables and constants, so position keys
/// carry lists of many lengths.
fn clause_of(n: u32) -> Clause {
    let mut clause = Clause::new(Literal::relation("t", vec![Term::var(0), Term::var(1)]));
    for i in 0..n {
        let relation = match i % 3 {
            0 => Literal::relation("r", vec![Term::var(i % 7), Term::var(100 + i)]),
            1 => Literal::relation(
                "r",
                vec![
                    Term::var(i % 5),
                    Term::constant(["a", "b"][(i % 2) as usize]),
                    Term::var(200 + i),
                ],
            ),
            _ => Literal::relation("s", vec![Term::var(100 + i), Term::constant(i as i64 % 4)]),
        };
        clause.push_unique(relation);
        clause.push_unique(Literal::Similar(Term::var(100 + i), Term::var(i % 7)));
        clause.push_unique(Literal::Equal(Term::var(200 + i), Term::var(i % 5)));
        clause.push_unique(Literal::NotEqual(Term::var(i), Term::var(i + 1)));
        let origin = if i % 2 == 0 {
            RepairOrigin::Md(i as usize % 3)
        } else {
            RepairOrigin::Cfd(0)
        };
        clause.push_repair(RepairGroup::new(
            origin,
            vec![CondAtom::Sim(Term::var(100 + i), Term::var(i % 7))],
            vec![
                (Var(100 + i), Term::var(10_000 + i)),
                (Var(i % 7), Term::var(10_000 + i)),
            ],
            vec![Literal::Similar(Term::var(100 + i), Term::var(i % 7))],
        ));
    }
    clause
}

#[test]
fn ground_clause_allocations_do_not_grow_with_the_clause() {
    let mut counts = Vec::new();
    for n in [1, 10, 100, 1000] {
        let clause = clause_of(n);
        assert_eq!(
            clause.body.len(),
            4 * n as usize,
            "the generator lost literals"
        );
        let (ground, built, freed_while_building) = counted(|| GroundClause::new(&clause));
        assert_eq!(ground.len(), clause.body.len());
        let ((), _, freed) = counted(|| drop(ground));
        counts.push((n, built, freed_while_building, freed));
    }
    let (_, built, scratch, freed) = counts[0];
    assert!(
        counts
            .iter()
            .all(|&(_, b, s, f)| (b, s, f) == (built, scratch, freed)),
        "allocations, scratch frees and drop frees per size: {counts:?}"
    );
    assert_eq!(
        built,
        scratch + freed,
        "building must keep or free every allocation it makes: {counts:?}"
    );
}
