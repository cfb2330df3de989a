//! Incremental maintenance of a built [`SimilarityIndex`] under streaming
//! column deltas.
//!
//! A [`MaintainedIndex`] wraps a built index together with the construction
//! state a rebuild would otherwise have to recompute — right-side
//! [`SimProfile`]s, the inverted blocking postings, and per-right
//! back-references to every left value storing it — and repairs the index
//! in place when distinct values appear in or disappear from either column.
//! The contract is *exact equality*: after any sequence of
//! [`ColumnDelta`]s, [`MaintainedIndex::index`] is `==` (entry for entry,
//! score bits included) to a fresh [`SimilarityIndex::build`] over the
//! mutated columns. The differential suite
//! (`crates/similarity/tests/delta_oracle.rs`) pins that against both a
//! fresh build and the brute-force all-pairs reference.
//!
//! Why the repairs are exact: maintenance runs construction's own rules,
//! not copies of them.
//!
//! * Every stored forward list is "all qualifying rights, sorted by
//!   (score desc, value asc), truncated to `top_k`" — the list the ranked
//!   insertion `insert_ranked` keeps. An *unfull* list therefore holds
//!   **all** qualifying rights — removing a member is a pure deletion,
//!   nothing can have been displaced. A *full* list that loses a member may
//!   have displaced something at build time, so it is tombstoned and
//!   refilled with one bounded re-scan (`score_one_left`, the same funnel
//!   construction uses).
//! * A newly appeared right value can only enter lists of left values it
//!   shares a blocking key with (construction never scores other pairs
//!   either), so candidates come from a left-side blocking map and the new
//!   right is offered to each through `insert_ranked`, the insertion the
//!   builder runs for every candidate: the same pair bound (the operator's
//!   `pair_bound`, which here is the gate that keeps hopeless pairs off the
//!   kernel), the same [`SimilarityOperator::score_profiles_at_least`] call
//!   at the same "reach" requirement, the same position and the same cap.
//! * Reverse lists are a pure function of the truncated forward map, derived
//!   by the builder's `transpose` (transpose, sort, truncate), so the lists
//!   of rights whose storers changed are regenerated from the
//!   back-references through it.
//!
//! None of the repair paths calls [`SimilarityIndex::build`], so
//! [`SimilarityIndex::build_count`] is unaffected — tests can pin that a
//! streaming engine never rebuilds.
//!
//! [`SimilarityOperator::score_profiles_at_least`]:
//! crate::combined::SimilarityOperator::score_profiles_at_least

use std::collections::{HashMap, HashSet};

use dlearn_relstore::Sym;

use crate::index::{
    build_postings, dedup, insert_ranked, score_one_left, transpose, Posting, Ranked, Scratch,
};
use crate::sw_kernel::SimProfile;
use crate::tokenize::blocking_keys;
use crate::{IndexConfig, Match, SimilarityIndex};

/// Distinct-value transitions of the two columns of one maintained index.
///
/// The members are *presence* transitions, not tuple counts: a value
/// belongs in `removed_*` only when its last occurrence left the column,
/// and in `added_*` only when its first occurrence arrived. Values already
/// present (for adds) or absent (for removes) are ignored.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ColumnDelta {
    /// Values newly appearing in the left column.
    pub added_left: Vec<Sym>,
    /// Values that vanished from the left column.
    pub removed_left: Vec<Sym>,
    /// Values newly appearing in the right column.
    pub added_right: Vec<Sym>,
    /// Values that vanished from the right column.
    pub removed_right: Vec<Sym>,
}

impl ColumnDelta {
    /// `true` when no value changed on either side.
    pub fn is_empty(&self) -> bool {
        self.added_left.is_empty()
            && self.removed_left.is_empty()
            && self.added_right.is_empty()
            && self.removed_right.is_empty()
    }
}

/// Counters and changed-value sets of one [`MaintainedIndex::apply`] call.
#[derive(Debug, Clone, Default)]
pub struct DeltaOutcome {
    /// Left values whose stored match list changed (including lists that
    /// vanished). Probes of any *other* left value return exactly what
    /// they returned before the delta.
    pub changed_left: HashSet<Sym>,
    /// Right values whose stored match list changed.
    pub changed_right: HashSet<Sym>,
    /// Full bounded re-scans (`score_one_left`) run: added left values plus
    /// full forward lists that lost a member (tombstone-then-refill).
    pub rescored_lefts: usize,
    /// Targeted single-pair patches: entries removed from unfull lists plus
    /// bounded insertions of newly appeared right values.
    pub patched_entries: usize,
}

/// A [`SimilarityIndex`] plus the state needed to repair it incrementally.
///
/// Obtained by [`adopting`](MaintainedIndex::adopt) a built index (cheap:
/// profiles and postings are recomputed, but no alignment runs), then fed
/// [`ColumnDelta`]s as the underlying columns mutate.
#[derive(Debug, Clone)]
pub struct MaintainedIndex {
    config: IndexConfig,
    index: SimilarityIndex,
    /// Right slot table. Slots of removed values are tombstoned (left
    /// stale, excluded from every posting) rather than shifted; slot
    /// numbering is never observable in the index contents.
    right: Vec<Sym>,
    right_profiles: Vec<SimProfile>,
    /// Alive right value -> slot.
    right_pos: HashMap<Sym, u32>,
    /// Inverted blocking postings over right slots, patched in place.
    block: HashMap<Sym, Posting>,
    /// Alive left values.
    left_alive: HashSet<Sym>,
    /// Blocking key -> alive left values sharing it. Keyed by raw strings,
    /// not interned keys: left-only blocking keys must stay out of the
    /// process-global intern table, exactly as in `build`.
    left_block: HashMap<String, Vec<Sym>>,
    /// Right value -> every left value whose *stored* (truncated) forward
    /// list contains it. The reverse match lists are themselves truncated
    /// to `top_k`, so they cannot serve as back-references.
    storers: HashMap<Sym, HashSet<Sym>>,
}

impl MaintainedIndex {
    /// Wrap a built index for incremental maintenance. `left` and `right`
    /// must be the columns the index was built from (duplicates are fine —
    /// they dedup exactly as `build` dedups). Recomputes profiles, postings
    /// and back-references; runs no alignment and does not touch
    /// [`SimilarityIndex::build_count`].
    pub fn adopt(index: SimilarityIndex, left: &[Sym], right: &[Sym], config: IndexConfig) -> Self {
        let left = dedup(left);
        let right = dedup(right);
        let (right_profiles, block) = build_postings(&right, &config);
        let right_pos: HashMap<Sym, u32> = right
            .iter()
            .enumerate()
            .map(|(j, &r)| (r, j as u32))
            .collect();
        let mut left_block: HashMap<String, Vec<Sym>> = HashMap::new();
        for &l in &left {
            for key in blocking_keys(l.as_str()) {
                left_block.entry(key).or_default().push(l);
            }
        }
        let mut storers: HashMap<Sym, HashSet<Sym>> = HashMap::new();
        for (l, matches) in index.iter_left() {
            for m in matches {
                storers.entry(m.value).or_default().insert(l);
            }
        }
        MaintainedIndex {
            config,
            index,
            right,
            right_profiles,
            right_pos,
            block,
            left_alive: left.into_iter().collect(),
            left_block,
            storers,
        }
    }

    /// The maintained index, always equal to a fresh build on the current
    /// columns.
    pub fn index(&self) -> &SimilarityIndex {
        &self.index
    }

    /// Apply one batch of distinct-value column transitions, repairing the
    /// index in place. Returns what changed and how much work each repair
    /// path did.
    pub fn apply(&mut self, delta: &ColumnDelta) -> DeltaOutcome {
        let mut out = DeltaOutcome::default();
        // Lefts whose full forward list lost a member, plus added lefts:
        // re-scored once against the *final* postings after all structural
        // changes below.
        let mut rescore: HashSet<Sym> = HashSet::new();
        // Rights whose reverse list must be regenerated from back-refs.
        let mut dirty_rights: HashSet<Sym> = HashSet::new();
        // Newly appeared rights, patched into candidate lefts after the
        // rescores (rescored lefts already see them through the postings).
        let mut fresh_rights: Vec<(Sym, u32)> = Vec::new();

        // ---- structural phase: patch postings and membership maps ----

        for &l in &delta.removed_left {
            if !self.left_alive.remove(&l) {
                continue;
            }
            for key in blocking_keys(l.as_str()) {
                if let Some(lefts) = self.left_block.get_mut(&key) {
                    lefts.retain(|&x| x != l);
                    if lefts.is_empty() {
                        self.left_block.remove(&key);
                    }
                }
            }
            rescore.remove(&l);
            out.changed_left.insert(l);
            if let Some(old) = self.index.left_to_right.remove(&l) {
                for m in &old {
                    self.unstore(m.value, l, &mut dirty_rights);
                }
            }
        }

        for &l in &delta.added_left {
            if !self.left_alive.insert(l) {
                continue;
            }
            for key in blocking_keys(l.as_str()) {
                self.left_block.entry(key).or_default().push(l);
            }
            rescore.insert(l);
        }

        for &r in &delta.removed_right {
            let Some(j) = self.right_pos.remove(&r) else {
                continue;
            };
            remove_from_postings(&mut self.block, r, j);
            dirty_rights.insert(r);
            let Some(storing) = self.storers.remove(&r) else {
                continue;
            };
            for l in storing {
                if !self.left_alive.contains(&l) {
                    continue;
                }
                let Some(matches) = self.index.left_to_right.get_mut(&l) else {
                    continue;
                };
                out.changed_left.insert(l);
                if matches.len() == self.config.top_k {
                    // The build may have displaced a qualifying right in
                    // favor of `r`: tombstone-then-refill.
                    rescore.insert(l);
                } else {
                    // An unfull list holds *all* qualifying rights, so the
                    // removal alone is exact.
                    matches.retain(|m| m.value != r);
                    if matches.is_empty() {
                        self.index.left_to_right.remove(&l);
                    }
                    out.patched_entries += 1;
                }
            }
        }

        for &r in &delta.added_right {
            if self.right_pos.contains_key(&r) {
                continue;
            }
            let j = self.right.len() as u32;
            self.right.push(r);
            self.right_profiles.push(SimProfile::new(r.as_str()));
            self.right_pos.insert(r, j);
            insert_into_postings(&mut self.block, r, j, &self.right_profiles[j as usize]);
            fresh_rights.push((r, j));
        }

        // ---- scoring phase: bounded re-scans against final postings ----

        let mut scratch = Scratch::new(self.right.len());
        // Rescored lefts score against the final postings (fresh rights
        // included), so the targeted patching below must skip exactly them —
        // and only them.
        let rescored_set = rescore.clone();
        let mut rescore: Vec<Sym> = rescore.into_iter().collect();
        rescore.sort();
        for l in rescore {
            out.rescored_lefts += 1;
            out.changed_left.insert(l);
            let fresh = score_one_left(
                l,
                &self.right,
                &self.right_profiles,
                &self.block,
                &self.config,
                &mut scratch,
            );
            if let Some(old) = self.index.left_to_right.remove(&l) {
                for m in &old {
                    self.unstore(m.value, l, &mut dirty_rights);
                }
            }
            for m in &fresh {
                self.storers.entry(m.value).or_default().insert(l);
                dirty_rights.insert(m.value);
            }
            if !fresh.is_empty() {
                self.index.left_to_right.insert(l, fresh);
            }
        }

        // Targeted insertion of fresh rights into the lists of lefts that
        // share a blocking key (no other left can store them — construction
        // never scores key-disjoint pairs either). Lefts rescored above
        // already saw the fresh rights through the patched postings.
        for (r, j) in fresh_rights {
            let mut candidates: Vec<Sym> = Vec::new();
            let mut seen: HashSet<Sym> = HashSet::new();
            for key in blocking_keys(r.as_str()) {
                for &l in self.left_block.get(&key).into_iter().flatten() {
                    if seen.insert(l) && !rescored_set.contains(&l) {
                        candidates.push(l);
                    }
                }
            }
            candidates.sort();
            for l in candidates {
                if self.try_insert_pair(l, r, j, &mut dirty_rights, &mut out) {
                    out.changed_left.insert(l);
                }
            }
        }

        // ---- reverse phase: regenerate dirty reverse lists ----

        let dirty: Vec<Sym> = dirty_rights.into_iter().collect();
        let this = &*self;
        let mut regenerated = transpose(
            dirty.iter().flat_map(|&r| {
                let storing = this.storers.get(&r).into_iter().flatten();
                storing.map(move |&l| (l, this.stored_match(l, r)))
            }),
            self.config.top_k,
        );
        for r in dirty {
            out.changed_right.insert(r);
            match regenerated.remove(&r) {
                Some(back) => {
                    self.index.right_to_left.insert(r, back);
                }
                None => {
                    self.index.right_to_left.remove(&r);
                    self.storers.remove(&r);
                }
            }
        }

        out
    }

    /// Offer one (left, fresh right) pair to the left's bounded forward
    /// list through the builder's own pair bound and ranked insertion.
    /// Returns `true` when the list changed.
    fn try_insert_pair(
        &mut self,
        l: Sym,
        r: Sym,
        j: u32,
        dirty_rights: &mut HashSet<Sym>,
        out: &mut DeltaOutcome,
    ) -> bool {
        let left_profile = SimProfile::new(l.as_str());
        let right_profile = &self.right_profiles[j as usize];
        let bound = self
            .config
            .operator
            .pair_bound(&left_profile, right_profile);
        let matches = self.index.left_to_right.entry(l).or_default();
        let ranked = insert_ranked(
            matches,
            r,
            &left_profile,
            right_profile,
            bound,
            &self.config,
        );
        let Ranked::Stored { displaced } = ranked else {
            if matches.is_empty() {
                self.index.left_to_right.remove(&l);
            }
            return false;
        };
        if let Some(d) = displaced {
            self.unstore(d, l, dirty_rights);
        }
        self.storers.entry(r).or_default().insert(l);
        dirty_rights.insert(r);
        out.patched_entries += 1;
        true
    }

    /// Drop `l` from `r`'s back-references and mark `r` dirty.
    fn unstore(&mut self, r: Sym, l: Sym, dirty_rights: &mut HashSet<Sym>) {
        if let Some(s) = self.storers.get_mut(&r) {
            s.remove(&l);
        }
        dirty_rights.insert(r);
    }

    /// The entry `l`'s stored forward list holds for `r`.
    fn stored_match(&self, l: Sym, r: Sym) -> Match {
        self.index
            .left_to_right
            .get(&l)
            .and_then(|ms| ms.iter().find(|m| m.value == r))
            .copied()
            .expect("back-reference without a stored forward match")
    }
}

/// Remove right slot `j` (holding value `r`) from every posting of `r`'s
/// blocking keys.
fn remove_from_postings(block: &mut HashMap<Sym, Posting>, r: Sym, j: u32) {
    for key in blocking_keys(r.as_str()) {
        let Some(key) = Sym::lookup(&key) else {
            continue;
        };
        let empty = match block.get_mut(&key) {
            Some(Posting::Cold(ids)) => {
                ids.retain(|&x| x != j);
                ids.is_empty()
            }
            Some(Posting::Hot(by_len)) => {
                by_len.retain(|&(_, x)| x != j);
                by_len.is_empty()
            }
            None => false,
        };
        if empty {
            block.remove(&key);
        }
    }
}

/// Add right slot `j` (holding value `r`) to the postings of `r`'s blocking
/// keys, preserving each posting's internal order. New keys start cold; a
/// key's hot/cold status never affects index contents (the hot window only
/// skips candidates that provably fail the length bound), so statuses are
/// not rebalanced on delta.
fn insert_into_postings(block: &mut HashMap<Sym, Posting>, r: Sym, j: u32, profile: &SimProfile) {
    for key in blocking_keys(r.as_str()) {
        match block
            .entry(Sym::intern(key))
            .or_insert_with(|| Posting::Cold(Vec::new()))
        {
            Posting::Cold(ids) => ids.push(j),
            Posting::Hot(by_len) => {
                let entry = (profile.len() as u32, j);
                let pos = by_len.partition_point(|&e| e < entry);
                by_len.insert(pos, entry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimilarityOperator;

    fn syms(values: &[&str]) -> Vec<Sym> {
        values.iter().map(Sym::intern).collect()
    }

    fn config(top_k: usize, threshold: f64) -> IndexConfig {
        IndexConfig {
            top_k,
            operator: SimilarityOperator::with_threshold(threshold),
            threads: 1,
            ..IndexConfig::default()
        }
    }

    fn check_equals_fresh(m: &MaintainedIndex, left: &[Sym], right: &[Sym]) {
        let fresh = SimilarityIndex::build(left, right, &m.config);
        assert_eq!(
            m.index(),
            &fresh,
            "maintained index diverged from fresh build"
        );
    }

    #[test]
    fn adopt_then_empty_delta_is_noop() {
        let left = syms(&["golden harbor", "silent meadow"]);
        let right = syms(&["golden harbor (1984)", "silent meadow remastered"]);
        let cfg = config(3, 0.6);
        let built = SimilarityIndex::build(&left, &right, &cfg);
        let mut m = MaintainedIndex::adopt(built.clone(), &left, &right, cfg);
        let out = m.apply(&ColumnDelta::default());
        assert!(out.changed_left.is_empty() && out.changed_right.is_empty());
        assert_eq!(m.index(), &built);
    }

    #[test]
    fn right_insert_and_remove_round_trip() {
        let left = syms(&["golden harbor", "silent meadow", "crimson summit"]);
        let right = syms(&["golden harbor (1984)", "silent meadow remastered"]);
        let cfg = config(2, 0.6);
        let built = SimilarityIndex::build(&left, &right, &cfg);
        let mut m = MaintainedIndex::adopt(built.clone(), &left, &right, cfg.clone());

        let newcomer = Sym::intern("crimson summit directors cut");
        let out = m.apply(&ColumnDelta {
            added_right: vec![newcomer],
            ..ColumnDelta::default()
        });
        let mut right_now: Vec<Sym> = right.clone();
        right_now.push(newcomer);
        check_equals_fresh(&m, &left, &right_now);
        assert!(out.changed_right.contains(&newcomer));
        assert_eq!(out.rescored_lefts, 0, "a right insert needs no rescans");

        let out = m.apply(&ColumnDelta {
            removed_right: vec![newcomer],
            ..ColumnDelta::default()
        });
        check_equals_fresh(&m, &left, &right);
        assert!(!out.changed_left.is_empty() || !out.changed_right.is_empty());
        assert_eq!(m.index(), &built, "round trip must restore the index");
    }

    #[test]
    fn left_insert_and_remove_round_trip() {
        let left = syms(&["golden harbor", "silent meadow"]);
        let right = syms(&[
            "golden harbor (1984)",
            "silent meadow remastered",
            "crimson summit unrated",
        ]);
        let cfg = config(2, 0.6);
        let built = SimilarityIndex::build(&left, &right, &cfg);
        let mut m = MaintainedIndex::adopt(built.clone(), &left, &right, cfg.clone());

        let newcomer = Sym::intern("crimson summit");
        let out = m.apply(&ColumnDelta {
            added_left: vec![newcomer],
            ..ColumnDelta::default()
        });
        let mut left_now = left.clone();
        left_now.push(newcomer);
        check_equals_fresh(&m, &left_now, &right);
        assert_eq!(out.rescored_lefts, 1);

        m.apply(&ColumnDelta {
            removed_left: vec![newcomer],
            ..ColumnDelta::default()
        });
        assert_eq!(m.index(), &built);
    }

    #[test]
    fn removing_a_stored_right_from_a_full_list_refills() {
        // top_k = 1 forces every stored list full, so removing the stored
        // match must trigger the tombstone-then-refill path and surface the
        // runner-up.
        let left = syms(&["golden harbor"]);
        let right = syms(&["golden harbor (1984)", "golden harbor unrated"]);
        let cfg = config(1, 0.5);
        let built = SimilarityIndex::build(&left, &right, &cfg);
        let stored = built.matches_left("golden harbor")[0].value;
        let mut m = MaintainedIndex::adopt(built, &left, &right, cfg);
        let out = m.apply(&ColumnDelta {
            removed_right: vec![stored],
            ..ColumnDelta::default()
        });
        assert_eq!(out.rescored_lefts, 1, "full list must refill via rescan");
        let survivors: Vec<Sym> = right.iter().copied().filter(|&r| r != stored).collect();
        check_equals_fresh(&m, &left, &survivors);
        assert_eq!(m.index().matches_left("golden harbor").len(), 1);
    }

    #[test]
    fn unrelated_values_never_change() {
        let left = syms(&["golden harbor", "distant voyage"]);
        let right = syms(&["golden harbor (1984)", "distant voyage unrated"]);
        let cfg = config(3, 0.6);
        let built = SimilarityIndex::build(&left, &right, &cfg);
        let mut m = MaintainedIndex::adopt(built, &left, &right, cfg);
        let out = m.apply(&ColumnDelta {
            added_right: vec![Sym::intern("golden harbor remastered")],
            ..ColumnDelta::default()
        });
        assert!(
            !out.changed_left.contains(&Sym::intern("distant voyage")),
            "{out:?}"
        );
        assert!(
            !out.changed_right
                .contains(&Sym::intern("distant voyage unrated")),
            "{out:?}"
        );
    }
}
