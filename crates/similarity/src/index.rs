//! Precomputed top-`km` similarity match index.
//!
//! Section 5: *"To improve efficiency, we precompute the pairs of similar
//! values."* and Section 6: the number of top similar matches kept per value
//! is the `km` parameter that Table 4 sweeps over (2, 5, 10).
//!
//! Building the index naively is `O(|L| · |R|)` alignment calls; we use
//! token/trigram blocking: values are only aligned when they share at least
//! one blocking key, which is how record-linkage systems keep this step
//! tractable on large inputs. On top of blocking, construction applies a
//! stack of lossless prunes and fans out across threads:
//!
//! * **Skew-aware hot-key postings** — Zipf-shaped vocabularies concentrate
//!   mass on a few stopword-ish blocking keys whose posting lists approach
//!   the whole right column, degenerating blocking toward all-pairs. A key
//!   whose posting list covers more than `max(8, hot_key_fraction · |R|)`
//!   right values is *hot*: its postings are sorted by normalized length,
//!   and a probe enumerates only the length window that can survive the
//!   length bound (`min/max ≥ 2·threshold − 1`, widened by one length unit
//!   for floating-point safety) — candidates outside the window provably
//!   fail the filter below, so skipping them wholesale changes nothing.
//! * **One pair bound** — each value is normalized once into a
//!   [`SimProfile`] (char vector + character histogram + bit-parallel match
//!   masks). Each candidate pair is bounded once, through the operator's
//!   `pair_bound`: the character-multiset intersection bounds the matches
//!   an alignment can contain (it cannot match more characters than the
//!   two strings share), and when that bound still reaches the threshold a
//!   bit-parallel LCS pass (Allison-Dix, order-aware, so much tighter on
//!   anagram-ish pairs) tightens it. Both feed the one bound formula,
//!   [`SimilarityOperator::score_bound_from_matches`]. A candidate whose
//!   bound is below the operator threshold is skipped without an alignment
//!   call.
//! * **Top-k early exit** — candidates are scored in descending bound order,
//!   so once `top_k` matches are held and the next candidate's bound is
//!   strictly below the running k-th score, no remaining candidate can
//!   displace anything and the rest of the list is abandoned.
//! * **Banded kernel** — surviving candidates are scored through
//!   [`SimilarityOperator::score_profiles_at_least`], whose SWG dynamic
//!   program runs *banded* ([`crate::sw_kernel`]), skipping cells too far
//!   off-diagonal to reach the requirement. Completed scores are exact;
//!   abandons only hide pairs strictly below the running requirement.
//! * **Parallel construction** — left values are split into contiguous
//!   chunks through the stack's one fan-out, [`crate::par::chunked_map`],
//!   with one scratch buffer per worker, and merged in chunk order, so the
//!   built index is bit-identical at any thread count.
//!
//! Two rules define the stored lists, and each has one implementation that
//! construction, the exact-join index and delta maintenance
//! ([`crate::delta`]) all run: a forward list grows through the ranked
//! insertion `insert_ranked` (gated by the pair's bound, sorted by score
//! desc, value asc, capped at `top_k`), and the reverse lists are derived
//! from the capped forward lists by `transpose` (transpose, sort,
//! truncate).
//!
//! All of these are exercised against a brute-force all-pairs oracle (no
//! blocking, no filter, no early exit, scored by the exhaustive reference
//! DP of `dlearn-test-support`) in `crates/similarity/tests/index_oracle.rs`,
//! including Zipf-skewed vocabularies that force the hot-key path.
//!
//! The index is keyed by interned [`Sym`] handles: probes coming from
//! bottom-clause construction arrive as the `Sym` already stored in a
//! [`dlearn_relstore::Value`], so a lookup hashes a 4-byte id instead of
//! re-hashing the raw string on every probe.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use dlearn_relstore::Sym;

use crate::combined::SimilarityOperator;
use crate::par::{chunked_map, resolve_threads};
use crate::sw_kernel::SimProfile;
use crate::tokenize::{blocking_keys_into, normalize};

/// Process-wide count of alignment-based index constructions (calls to
/// [`SimilarityIndex::build`]). [`SimilarityIndex::exact_normalized`] does
/// not count: it runs no alignment. Used by tests asserting that a prepared
/// `Engine` builds its similarity index exactly once no matter how many
/// strategies run over it.
static BUILD_COUNT: AtomicUsize = AtomicUsize::new(0);

/// A single similarity match.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Match {
    /// The matched value from the *other* column (interned).
    pub value: Sym,
    /// Combined similarity score in `[0, 1]`.
    pub score: f64,
}

/// Configuration of a [`SimilarityIndex`].
#[derive(Debug, Clone)]
pub struct IndexConfig {
    /// Keep at most this many matches per value (the paper's `km`).
    pub top_k: usize,
    /// The similarity operator (score + threshold).
    pub operator: SimilarityOperator,
    /// Worker threads for index construction (0 = available cores, capped
    /// at [`crate::MAX_AUTO_THREADS`]). The built index is bit-identical at any
    /// thread count: left values are processed in contiguous chunks whose
    /// per-value results do not depend on the chunking, and chunk results
    /// merge in left order.
    pub threads: usize,
    /// A blocking key is *hot* when its posting list covers more than
    /// `max(8, hot_key_fraction · |right|)` right values — the token-IDF
    /// knob of skew-aware candidate generation. Hot postings are sorted by
    /// normalized length so probes touch only the length-compatible window;
    /// the pruning is lossless at any setting (skipped candidates provably
    /// fail the length bound), so the knob trades build-time sort cost
    /// against probe-time window savings, never result quality. `0.0` makes
    /// every list beyond the floor of 8 hot; `1.0` disables the path.
    pub hot_key_fraction: f64,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            top_k: 5,
            operator: SimilarityOperator::default(),
            threads: 0,
            hot_key_fraction: 0.05,
        }
    }
}

impl IndexConfig {
    /// Config with a given `km` and default operator.
    pub fn top_k(top_k: usize) -> Self {
        IndexConfig {
            top_k,
            ..IndexConfig::default()
        }
    }

    /// Set the construction thread count (builder style).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the hot-key fraction (builder style).
    pub fn with_hot_key_fraction(mut self, hot_key_fraction: f64) -> Self {
        self.hot_key_fraction = hot_key_fraction;
        self
    }

    /// Number of construction worker threads to actually use.
    pub fn effective_threads(&self) -> usize {
        resolve_threads(self.threads)
    }

    /// Posting-list length above which a blocking key counts as hot.
    fn hot_posting_cap(&self, right_count: usize) -> usize {
        const HOT_KEY_FLOOR: usize = 8;
        let frac = (self.hot_key_fraction * right_count as f64).ceil();
        if frac.is_finite() && frac >= 0.0 {
            (frac as usize).max(HOT_KEY_FLOOR)
        } else {
            HOT_KEY_FLOOR
        }
    }
}

/// A probe key for `Sym`-keyed indexes: either a `Sym` (hot path — already
/// interned, nothing to do) or a raw string, resolved through the interner
/// **without inserting** — a string nobody interned cannot be an index key,
/// so unknown probes return "no matches" instead of leaking into the
/// process-global intern table.
pub trait QuerySym {
    /// Resolve to an interned symbol, if one exists.
    fn query_sym(self) -> Option<Sym>;
}

impl QuerySym for Sym {
    fn query_sym(self) -> Option<Sym> {
        Some(self)
    }
}

impl QuerySym for &str {
    fn query_sym(self) -> Option<Sym> {
        Sym::lookup(self)
    }
}

impl QuerySym for &String {
    fn query_sym(self) -> Option<Sym> {
        Sym::lookup(self)
    }
}

/// A bidirectional top-`km` similarity match index between two columns of
/// string values (the two sides of a matching dependency).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimilarityIndex {
    pub(crate) left_to_right: HashMap<Sym, Vec<Match>>,
    pub(crate) right_to_left: HashMap<Sym, Vec<Match>>,
}

impl SimilarityIndex {
    /// Build the index between the distinct values of the left and right
    /// columns.
    ///
    /// Candidate generation is blocking-based (values sharing no token or
    /// trigram are never compared); within a candidate list the bound
    /// filter and top-k early exit skip alignment calls that provably
    /// cannot contribute a stored match, and left values fan out across
    /// `config.threads` scoped workers. None of the three changes the
    /// result: the built index equals the one-thread, filter-free build
    /// pair for pair.
    pub fn build(left: &[Sym], right: &[Sym], config: &IndexConfig) -> Self {
        BUILD_COUNT.fetch_add(1, Ordering::Relaxed);
        let left = dedup(left);
        let right = dedup(right);

        let (right_profiles, block) = build_postings(&right, config);

        // Per-left-value match lists are independent of each other, so left
        // values fan out in contiguous chunks, one `Scratch` per worker, and
        // come back in left order. Worker count is capped so every chunk
        // carries at least `MIN_CHUNK_LEFT` left values: spawn/join costs
        // real time, and the learner rebuilds many tiny per-MD indexes where
        // a serial pass is cheaper than a single spawn (the thread-count
        // determinism contract is unaffected — the cap depends only on the
        // input, never on what the workers do).
        const MIN_CHUNK_LEFT: usize = 8;
        let threads = config
            .effective_threads()
            .min(left.len() / MIN_CHUNK_LEFT)
            .max(1);
        let per_left = chunked_map(
            &left,
            threads,
            0,
            Scratch::new(right.len()),
            |scratch, _, &l| score_one_left(l, &right, &right_profiles, &block, config, scratch),
        );
        let left_to_right = left
            .into_iter()
            .zip(per_left)
            .filter(|(_, matches)| !matches.is_empty())
            .collect();
        SimilarityIndex::from_forward(left_to_right, config.top_k)
    }

    /// The index with forward lists `left_to_right` and the reverse lists
    /// they imply ([`transpose`]).
    fn from_forward(left_to_right: HashMap<Sym, Vec<Match>>, top_k: usize) -> Self {
        let right_to_left = transpose(
            left_to_right
                .iter()
                .flat_map(|(&l, matches)| matches.iter().map(move |&m| (l, m))),
            top_k,
        );
        SimilarityIndex {
            left_to_right,
            right_to_left,
        }
    }

    /// Matches of a left-column value (empty slice when none).
    pub fn matches_left(&self, value: impl QuerySym) -> &[Match] {
        value
            .query_sym()
            .and_then(|s| self.left_to_right.get(&s))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Matches of a right-column value (empty slice when none).
    pub fn matches_right(&self, value: impl QuerySym) -> &[Match] {
        value
            .query_sym()
            .and_then(|s| self.right_to_left.get(&s))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Whether a specific pair of values was matched (in either direction).
    pub fn are_matched(&self, left: impl QuerySym, right: impl QuerySym) -> bool {
        let (Some(left), Some(right)) = (left.query_sym(), right.query_sym()) else {
            return false;
        };
        self.matches_left(left).iter().any(|m| m.value == right)
            || self.matches_right(left).iter().any(|m| m.value == right)
    }

    /// Total number of stored (left, right) match pairs.
    pub fn pair_count(&self) -> usize {
        self.left_to_right.values().map(|v| v.len()).sum()
    }

    /// All left-side entries as `(value, matches)` pairs, in unspecified
    /// order. Used by differential tests comparing the built index against
    /// a reference construction.
    pub fn iter_left(&self) -> impl Iterator<Item = (Sym, &[Match])> {
        self.left_to_right.iter().map(|(&k, v)| (k, v.as_slice()))
    }

    /// All right-side entries as `(value, matches)` pairs, in unspecified
    /// order.
    pub fn iter_right(&self) -> impl Iterator<Item = (Sym, &[Match])> {
        self.right_to_left.iter().map(|(&k, v)| (k, v.as_slice()))
    }

    /// Number of alignment-based [`SimilarityIndex::build`] calls performed
    /// by this process so far. Exact indexes
    /// ([`SimilarityIndex::exact_normalized`]) are not counted. Intended for
    /// tests asserting that prepared sessions never rebuild their indexes.
    pub fn build_count() -> usize {
        BUILD_COUNT.load(Ordering::Relaxed)
    }

    /// Build an *exact-join* index without any alignment: two values match
    /// (with score 1.0) iff their normalized forms are equal. The
    /// Castor-Exact and Castor-Clean baselines join through it, so their
    /// cross-source joins connect identical strings only.
    pub fn exact_normalized(left: &[Sym], right: &[Sym], top_k: usize) -> Self {
        let left = dedup(left);
        let right = dedup(right);
        if top_k == 0 {
            return SimilarityIndex::default();
        }
        let mut by_normalized: HashMap<String, Vec<Sym>> = HashMap::new();
        for &r in &right {
            let n = normalize(r.as_str());
            if !n.is_empty() {
                by_normalized.entry(n).or_default().push(r);
            }
        }
        let mut left_to_right: HashMap<Sym, Vec<Match>> = HashMap::new();
        for &l in &left {
            let n = normalize(l.as_str());
            let Some(rights) = (!n.is_empty()).then(|| by_normalized.get(&n)).flatten() else {
                continue;
            };
            // `dedup` sorted both sides, so the per-value lists are already
            // in the (score desc, value asc) order `build` stores.
            let matches: Vec<Match> = rights
                .iter()
                .take(top_k)
                .map(|&r| Match {
                    value: r,
                    score: 1.0,
                })
                .collect();
            left_to_right.insert(l, matches);
        }
        SimilarityIndex::from_forward(left_to_right, top_k)
    }
}

/// A blocking key's posting list over right indexes.
///
/// Most keys are **cold**: a short list walked in full. Keys whose list
/// exceeds the hot cap (see [`IndexConfig::hot_key_fraction`]) store their
/// postings sorted by `(normalized length, right index)`, so a probe with
/// left length `ll` enumerates only the contiguous window of right lengths
/// that can pass the length bound — the completeness fallback that keeps
/// hot stopword-ish keys from degenerating into all-pairs scans while still
/// generating every candidate the filter could keep.
#[derive(Debug, Clone)]
pub(crate) enum Posting {
    /// Plain right indexes, in right order.
    Cold(Vec<u32>),
    /// `(normalized length, right index)`, sorted ascending.
    Hot(Vec<(u32, u32)>),
}

/// Build the right-side profiles and the inverted blocking index, keyed by
/// *interned* blocking keys. `blocking_keys` still allocates its `String`s
/// (the tokenizer's output type); what interning buys is the map itself:
/// entries store an 8-byte `Sym` instead of a 24-byte owned `String`, map
/// probes hash a pointer instead of re-hashing string bytes, and identical
/// vocabularies across rebuilds (cross-validation folds, the eval harness
/// re-indexing the same columns) share one stored copy of each key.
/// Trade-off: interned keys live for the process lifetime, so the global
/// table grows with each *new* vocabulary indexed — bounded by the
/// token/trigram vocabulary of the input databases, the same
/// process-lifetime argument the interner itself makes; the probe side pays
/// one interner shard lookup per key.
///
/// Skew-aware conversion: posting lists past the hot cap are sorted by
/// (normalized length, right index) so probes can binary-search the length
/// window instead of walking the whole list. Shared by [`SimilarityIndex::
/// build`] and the incremental maintenance layer (`crate::delta`), which
/// must generate candidates from byte-identical postings.
pub(crate) fn build_postings(
    right: &[Sym],
    config: &IndexConfig,
) -> (Vec<SimProfile>, HashMap<Sym, Posting>) {
    let mut raw_block: HashMap<Sym, Vec<u32>> = HashMap::new();
    let mut right_profiles: Vec<SimProfile> = Vec::with_capacity(right.len());
    let mut key_buf: Vec<String> = Vec::new();
    for (j, r) in right.iter().enumerate() {
        blocking_keys_into(r.as_str(), &mut key_buf);
        for key in key_buf.drain(..) {
            raw_block
                .entry(Sym::intern(key))
                .or_default()
                .push(j as u32);
        }
        right_profiles.push(SimProfile::new(r.as_str()));
    }
    let hot_cap = config.hot_posting_cap(right.len());
    let block: HashMap<Sym, Posting> = raw_block
        .into_iter()
        .map(|(key, ids)| {
            let posting = if ids.len() > hot_cap {
                let mut by_len: Vec<(u32, u32)> = ids
                    .into_iter()
                    .map(|j| (right_profiles[j as usize].len() as u32, j))
                    .collect();
                by_len.sort_unstable();
                Posting::Hot(by_len)
            } else {
                Posting::Cold(ids)
            };
            (key, posting)
        })
        .collect();
    (right_profiles, block)
}

/// The inclusive right-length window `[lo, hi]` compatible with the length
/// bound for a probe of normalized length `ll` under `threshold`: the
/// filter keeps a pair only if its bound, at most `(1 + min/max) / 2`,
/// reaches `threshold`, i.e.
/// `min/max ≥ r = 2·threshold − 1`, so a right length outside
/// `[ll·r, ll/r]` provably fails it. The window is widened by one length
/// unit on each side so the floating-point ceil/floor can never exclude a
/// boundary length the exact filter would keep; when `r ≤ 0` every length
/// is compatible.
fn length_window(ll: usize, threshold: f64) -> (u32, u32) {
    let r = 2.0 * threshold - 1.0;
    if r <= 0.0 || ll == 0 {
        return (0, u32::MAX);
    }
    let lo = ((ll as f64 * r).ceil() as i64 - 1).max(0) as u32;
    // `as` saturates on overflow, so a tiny `r` yields an open-ended window.
    let hi = ((ll as f64 / r).floor() + 1.0) as u32;
    (lo, hi)
}

/// Per-worker scratch buffers reused across the left values of one chunk.
#[derive(Clone)]
pub(crate) struct Scratch {
    /// Candidate right indexes of the current left value, deduplicated.
    candidates: Vec<(usize, f64)>,
    /// Dedup bitmap over right indexes (cleared after each left value).
    seen: Vec<bool>,
    /// Blocking-key buffer (strings reused across left values).
    keys: Vec<String>,
}

impl Scratch {
    pub(crate) fn new(right_count: usize) -> Self {
        Scratch {
            candidates: Vec::new(),
            seen: vec![false; right_count],
            keys: Vec::new(),
        }
    }
}

/// Compute one left value's stored match list: its blocking candidates,
/// filtered by their pair bound, offered to [`insert_ranked`] in descending
/// bound order with top-k early exit.
///
/// The result is provably identical to "score every candidate, sort by
/// (score desc, value asc), truncate to `top_k`":
///
/// * a candidate skipped by the **filter** has `score <= bound < threshold`,
///   so the exhaustive loop would drop it too;
/// * the **early exit** only fires when `top_k` matches are held and the
///   next candidate's bound is *strictly* below the current k-th score;
///   since candidates arrive in descending bound order and the k-th score
///   only rises, every abandoned candidate has
///   `score <= bound < final k-th score` and could not have displaced a
///   kept match even on a score tie (ties break by value order, which
///   requires score equality).
pub(crate) fn score_one_left(
    l: Sym,
    right: &[Sym],
    right_profiles: &[SimProfile],
    block: &HashMap<Sym, Posting>,
    config: &IndexConfig,
    scratch: &mut Scratch,
) -> Vec<Match> {
    let Scratch {
        candidates,
        seen,
        keys,
    } = scratch;
    candidates.clear();
    if config.top_k == 0 {
        return Vec::new();
    }
    let left_profile = SimProfile::new(l.as_str());
    // Hot posting lists are length-sorted: only the window compatible with
    // the length bound can survive the filter below, so the probe walks
    // just that slice. Candidate *order* does not matter here — the list is
    // re-sorted by (bound desc, index) before scoring — only the set does,
    // and the window keeps every index the filter could keep.
    let (len_lo, len_hi) = length_window(left_profile.len(), config.operator.threshold);
    // Probe keys resolve through `Sym::lookup`, which never inserts: a
    // left-only key was interned by no right value, so it cannot be in the
    // block map — skipping it neither loses candidates nor leaks probe-side
    // strings into the intern table.
    blocking_keys_into(l.as_str(), keys);
    for key in keys.iter() {
        let Some(posting) = Sym::lookup(key).and_then(|k| block.get(&k)) else {
            continue;
        };
        match posting {
            Posting::Cold(ids) => {
                for &j in ids {
                    let j = j as usize;
                    if !seen[j] {
                        seen[j] = true;
                        candidates.push((j, 0.0));
                    }
                }
            }
            Posting::Hot(by_len) => {
                let start = by_len.partition_point(|&(len, _)| len < len_lo);
                for &(len, j) in &by_len[start..] {
                    if len > len_hi {
                        break;
                    }
                    let j = j as usize;
                    if !seen[j] {
                        seen[j] = true;
                        candidates.push((j, 0.0));
                    }
                }
            }
        }
    }
    // The filter: bound each candidate once and drop those that provably
    // cannot reach the threshold, before any alignment call. The bound also
    // orders the candidates and gates each insertion below.
    for &(j, _) in candidates.iter() {
        seen[j] = false;
    }
    candidates.retain_mut(|(j, bound)| {
        *bound = config
            .operator
            .pair_bound(&left_profile, &right_profiles[*j]);
        *bound >= config.operator.threshold
    });
    // Descending bound, ties by right position: deterministic, and it front-
    // loads the candidates that can still displace a running top-k entry.
    candidates.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.0.cmp(&b.0))
    });

    let mut matches: Vec<Match> = Vec::with_capacity(config.top_k.min(candidates.len()));
    for &(j, bound) in candidates.iter() {
        if matches.len() == config.top_k && bound < matches[config.top_k - 1].score {
            break; // top-k early exit: nothing further can displace.
        }
        insert_ranked(
            &mut matches,
            right[j],
            &left_profile,
            &right_profiles[j],
            bound,
            config,
        );
    }
    matches
}

/// What [`insert_ranked`] did with an offered pair.
pub(crate) enum Ranked {
    /// The pair is not stored: it scores below the threshold, or a full
    /// list's k-th entry outranks it.
    Rejected,
    /// The pair is stored; a full list gave up its last entry.
    Stored {
        /// The value the full list dropped to make room.
        displaced: Option<Sym>,
    },
}

/// The ranked insertion both construction paths run: offer the right value
/// `value` (profiled as `right`) to the forward list `matches` of the left
/// value profiled as `left`. The list is kept sorted by (score desc, value
/// asc) and capped at `top_k`, so it always equals "every qualifying right
/// offered so far, sorted and truncated" — the builder offers a left
/// value's candidates one after another ([`score_one_left`]), delta
/// maintenance offers one newly appeared right to each left that could
/// store it, and both keep exactly the same list.
///
/// The requirement is the lowest score that could still be stored: the
/// threshold, or once the list is full the k-th score. A tie with the k-th
/// score can still displace on the value order, so the requirement is
/// "reach", not "beat". `bound` is the pair's bound (the operator's
/// `pair_bound`): a pair whose bound falls short of the requirement is
/// rejected unscored, and the rest are scored through
/// [`SimilarityOperator::score_profiles_at_least`] at the requirement. The
/// builder offers only candidates whose bound reaches it (its threshold
/// filter and top-k exit), so there the gate never fires; it prunes the
/// pairs delta maintenance offers.
pub(crate) fn insert_ranked(
    matches: &mut Vec<Match>,
    value: Sym,
    left: &SimProfile,
    right: &SimProfile,
    bound: f64,
    config: &IndexConfig,
) -> Ranked {
    let (top_k, op) = (config.top_k, &config.operator);
    if top_k == 0 {
        return Ranked::Rejected;
    }
    let full = matches.len() >= top_k;
    let required = if full {
        matches[top_k - 1].score.max(op.threshold)
    } else {
        op.threshold
    };
    if bound < required {
        return Ranked::Rejected; // the score cannot reach the requirement.
    }
    let Some(score) = op.score_profiles_at_least(left, right, required) else {
        return Ranked::Rejected; // provably below `required`: cannot be stored.
    };
    if score < op.threshold {
        return Ranked::Rejected;
    }
    let pos = matches
        .partition_point(|held| held.score > score || (held.score == score && held.value < value));
    if pos >= top_k {
        return Ranked::Rejected;
    }
    let displaced = if full {
        matches.pop().map(|m| m.value)
    } else {
        None
    };
    matches.insert(pos, Match { value, score });
    Ranked::Stored { displaced }
}

/// The reverse-list rule: a right value's reverse list is the transpose of
/// the capped forward lists that store it, sorted by (score desc, value
/// asc) and truncated to `top_k`. `forward` yields `(left, match)` pairs of
/// stored forward entries; the result holds the reverse list of every right
/// value they name. [`SimilarityIndex::build`],
/// [`SimilarityIndex::exact_normalized`] and delta maintenance all derive
/// reverse lists here, so a reverse list is a pure function of the forward
/// map however the forward map was reached.
pub(crate) fn transpose(
    forward: impl IntoIterator<Item = (Sym, Match)>,
    top_k: usize,
) -> HashMap<Sym, Vec<Match>> {
    let mut reverse: HashMap<Sym, Vec<Match>> = HashMap::new();
    for (l, m) in forward {
        reverse.entry(m.value).or_default().push(Match {
            value: l,
            score: m.score,
        });
    }
    for matches in reverse.values_mut() {
        // Descending score, ties broken by the value's string order.
        matches.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.value.cmp(&b.value))
        });
        matches.truncate(top_k);
    }
    reverse
}

pub(crate) fn dedup(values: &[Sym]) -> Vec<Sym> {
    let mut v: Vec<Sym> = values.to_vec();
    v.sort(); // Sym's Ord is lexicographic
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms(values: &[&str]) -> Vec<Sym> {
        values.iter().map(Sym::intern).collect()
    }

    fn movies_left() -> Vec<Sym> {
        syms(&["Star Wars", "Superbad", "Zoolander", "Totally Unrelated"])
    }

    fn movies_right() -> Vec<Sym> {
        syms(&[
            "Star Wars: Episode IV - 1977",
            "Star Wars: Episode III - 2005",
            "Superbad (2007)",
            "Zoolander (2001)",
            "The Orphanage",
        ])
    }

    #[test]
    fn index_finds_expected_matches() {
        let idx = SimilarityIndex::build(
            &movies_left(),
            &movies_right(),
            &IndexConfig {
                top_k: 5,
                operator: SimilarityOperator::with_threshold(0.6),
                ..IndexConfig::default()
            },
        );
        let superbad = idx.matches_left("Superbad");
        assert!(superbad.iter().any(|m| m.value == "Superbad (2007)"));
        let star_wars = idx.matches_left("Star Wars");
        assert_eq!(
            star_wars.len(),
            2,
            "Star Wars should match both episodes: {star_wars:?}"
        );
        assert!(idx.matches_left("Totally Unrelated").is_empty());
    }

    #[test]
    fn top_k_limits_matches() {
        let idx = SimilarityIndex::build(
            &movies_left(),
            &movies_right(),
            &IndexConfig {
                top_k: 1,
                operator: SimilarityOperator::with_threshold(0.6),
                ..IndexConfig::default()
            },
        );
        assert!(idx.matches_left("Star Wars").len() <= 1);
    }

    #[test]
    fn reverse_direction_is_populated() {
        let idx = SimilarityIndex::build(
            &movies_left(),
            &movies_right(),
            &IndexConfig {
                top_k: 5,
                operator: SimilarityOperator::with_threshold(0.6),
                ..IndexConfig::default()
            },
        );
        let back = idx.matches_right("Superbad (2007)");
        assert!(back.iter().any(|m| m.value == "Superbad"));
        assert!(idx.are_matched("Superbad", "Superbad (2007)"));
    }

    #[test]
    fn sym_probes_equal_str_probes() {
        let idx = SimilarityIndex::build(
            &movies_left(),
            &movies_right(),
            &IndexConfig {
                top_k: 5,
                operator: SimilarityOperator::with_threshold(0.6),
                ..IndexConfig::default()
            },
        );
        assert_eq!(
            idx.matches_left(Sym::intern("Superbad")).len(),
            idx.matches_left("Superbad").len()
        );
    }

    #[test]
    fn matches_are_sorted_by_descending_score() {
        let idx = SimilarityIndex::build(
            &movies_left(),
            &movies_right(),
            &IndexConfig {
                top_k: 5,
                operator: SimilarityOperator::with_threshold(0.5),
                ..IndexConfig::default()
            },
        );
        for v in movies_left() {
            let ms = idx.matches_left(v);
            for w in ms.windows(2) {
                assert!(w[0].score >= w[1].score);
            }
        }
    }

    #[test]
    fn first_left_match_is_the_highest_scoring() {
        let idx = SimilarityIndex::build(
            &movies_left(),
            &movies_right(),
            &IndexConfig {
                top_k: 5,
                operator: SimilarityOperator::with_threshold(0.5),
                ..IndexConfig::default()
            },
        );
        let best = idx.matches_left("Zoolander").first().unwrap();
        assert_eq!(best.value, "Zoolander (2001)");
    }

    #[test]
    fn empty_inputs_produce_empty_index() {
        let idx = SimilarityIndex::build(&[], &movies_right(), &IndexConfig::default());
        assert_eq!(idx.iter_left().count(), 0);
        assert_eq!(idx.pair_count(), 0);
    }

    #[test]
    fn values_without_blocking_keys_are_never_matched() {
        // The empty string and pure punctuation normalize to nothing, so
        // they produce zero blocking keys on either side: they must land in
        // no block (not even a shared "empty" block) and never reach the
        // aligner — on both the build side and the probe side.
        let left = syms(&["", "?!|", "Star Wars"]);
        let right = syms(&["", "---", "Star Wars: Episode IV - 1977"]);
        let idx = SimilarityIndex::build(
            &left,
            &right,
            &IndexConfig {
                top_k: 5,
                operator: SimilarityOperator::with_threshold(0.0),
                ..IndexConfig::default()
            },
        );
        assert!(idx.matches_left("").is_empty());
        assert!(idx.matches_left("?!|").is_empty());
        assert!(idx.matches_right("").is_empty());
        assert!(idx.matches_right("---").is_empty());
        // The keyed value still matches normally next to the keyless ones.
        assert!(!idx.matches_left("Star Wars").is_empty());
        assert_eq!(idx.iter_left().count(), 1);
    }

    #[test]
    fn single_value_blocks_match_their_only_candidate() {
        // Each blocking key maps to exactly one right value; the alignment
        // loop must handle one-element candidate lists (no pair is skipped
        // and no out-of-bounds dedup happens).
        let left = syms(&["Superbad"]);
        let right = syms(&["Superbad (2007)"]);
        let idx = SimilarityIndex::build(
            &left,
            &right,
            &IndexConfig {
                top_k: 5,
                operator: SimilarityOperator::with_threshold(0.6),
                ..IndexConfig::default()
            },
        );
        let ms = idx.matches_left("Superbad");
        assert_eq!(ms.len(), 1);
        assert_eq!(ms[0].value, "Superbad (2007)");
        assert_eq!(idx.pair_count(), 1);
        assert!(idx.are_matched("Superbad", "Superbad (2007)"));
    }

    #[test]
    fn left_only_blocking_keys_stay_out_of_the_intern_table() {
        // A blocking key produced only by a *left* value must resolve
        // through the non-inserting `Sym::lookup` during the probe: it can
        // match nothing (no right value interned it into the block map) and
        // it must not leak into the process-global intern table.
        let marker = "xqleftonlytokenzq";
        assert!(
            Sym::lookup(marker).is_none(),
            "marker token unexpectedly interned by an earlier test"
        );
        let left = syms(&[
            // normalizes to tokens ["xqleftonlytokenzq", "movie"]
            "xqLeftOnlyTokenZq movie",
        ]);
        let right = syms(&["totally different film"]);
        let idx = SimilarityIndex::build(&left, &right, &IndexConfig::default());
        assert!(idx.matches_left("xqLeftOnlyTokenZq movie").is_empty());
        assert!(
            Sym::lookup(marker).is_none(),
            "probe-side blocking key leaked into the intern table"
        );
    }

    #[test]
    fn exact_normalized_matches_equal_normalized_strings_only() {
        let left = syms(&["Superbad", "Star Wars", "star  wars", "Unique Left"]);
        let right = syms(&["Star Wars", "Superbad (2007)", "Something Else"]);
        let idx = SimilarityIndex::exact_normalized(&left, &right, 5);
        // Case/whitespace-insensitive equality matches...
        assert_eq!(idx.matches_left("Star Wars").len(), 1);
        assert_eq!(idx.matches_left("star  wars").len(), 1);
        assert!(idx.are_matched("star  wars", "Star Wars"));
        // ...but near-matches do not.
        assert!(idx.matches_left("Superbad").is_empty());
        assert!(idx.matches_left("Unique Left").is_empty());
        // Scores are exactly 1.0 and the reverse direction is populated.
        assert!(idx
            .matches_right("Star Wars")
            .iter()
            .all(|m| m.score == 1.0));
        assert_eq!(idx.matches_right("Star Wars").len(), 2);
        // top_k caps both directions.
        let capped = SimilarityIndex::exact_normalized(&left, &right, 1);
        assert_eq!(capped.matches_right("Star Wars").len(), 1);
    }

    #[test]
    fn build_count_increments_on_alignment_builds() {
        // Unit tests share the process, so only monotonicity is asserted
        // here; the "derived constructors don't count" half is pinned by the
        // isolated `tests/index_build_count.rs` integration binary.
        let before = SimilarityIndex::build_count();
        let _ = SimilarityIndex::build(&movies_left(), &movies_right(), &IndexConfig::default());
        assert!(SimilarityIndex::build_count() > before);
    }

    #[test]
    fn hot_key_fraction_never_changes_the_built_index() {
        // A vocabulary dominated by one stopword-ish token: with fraction
        // 0.0 the shared-token posting list goes hot (length-windowed
        // probes), with 1.0 the hot path is disabled entirely. The built
        // index must be identical — the window only skips candidates the
        // length filter would drop anyway.
        let left: Vec<Sym> = (0..40)
            .map(|i| Sym::intern(format!("the item number {i}")))
            .collect();
        let right: Vec<Sym> = (0..40)
            .map(|i| {
                if i % 3 == 0 {
                    Sym::intern(format!("the item number {i} special anniversary edition"))
                } else {
                    Sym::intern(format!("the item number {i}"))
                }
            })
            .collect();
        let base = IndexConfig {
            top_k: 3,
            operator: SimilarityOperator::with_threshold(0.65),
            ..IndexConfig::default()
        };
        let all_hot =
            SimilarityIndex::build(&left, &right, &base.clone().with_hot_key_fraction(0.0));
        let none_hot =
            SimilarityIndex::build(&left, &right, &base.clone().with_hot_key_fraction(1.0));
        assert!(
            all_hot.pair_count() > 0,
            "test vocabulary produced no matches"
        );
        assert_eq!(all_hot, none_hot);
    }

    #[test]
    fn length_window_keeps_every_length_the_filter_keeps() {
        // Exhaustive small-domain check: any (ll, rl) whose plain length
        // bound reaches the threshold must fall inside the window.
        let op = SimilarityOperator::default();
        for threshold in [0.0, 0.5, 0.65, 0.75, 0.9, 1.0] {
            for ll in 0..60usize {
                let (lo, hi) = length_window(ll, threshold);
                for rl in 0..60usize {
                    if op.score_bound_from_matches(ll, rl, ll.min(rl) as f64) >= threshold {
                        assert!(
                            (lo..=hi).contains(&(rl as u32)),
                            "({ll}, {rl}) passes the bound at t={threshold} \
                             but fell outside [{lo}, {hi}]"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn probes_absent_from_the_intern_table_return_empty_without_interning() {
        let idx = SimilarityIndex::build(&movies_left(), &movies_right(), &IndexConfig::default());
        let probe = "xqneverinternedprobezq";
        assert!(Sym::lookup(probe).is_none());
        assert!(idx.matches_left(probe).is_empty());
        assert!(idx.matches_right(probe).is_empty());
        assert!(!idx.are_matched(probe, "Superbad (2007)"));
        assert!(!idx.are_matched("Superbad", probe));
        // The probe path is `Sym::lookup`-only: nothing was interned.
        assert!(
            Sym::lookup(probe).is_none(),
            "a read-only probe interned its key"
        );
    }
}
