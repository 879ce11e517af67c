//! Mergeable aggregation states — the algebra behind partial
//! aggregation.
//!
//! Every aggregate is a first-class [`AggState`] with the lifecycle
//! `init → accumulate (observe / accumulate_batch) → merge →
//! finalize`. The states form a commutative monoid under [`merge`]:
//! [`AggState::init`] is the identity, merging is associative, and —
//! because the engine's workloads keep metric sums exact (see
//! `Engine::scan`) — any partition of the input rows
//! into chunks, merged in any order and association, finalizes
//! bit-identically to a single sequential pass. That algebra is what
//! legalizes per-brick partial aggregation inside shard tasks, the
//! per-shard snapshot memo, progressive refinement streaming,
//! and the distributed per-node merge: they are all the same `merge`
//! called at different levels. `oracle::agg` property-tests the laws
//! on real engine-produced partials.
//!
//! Each variant carries exactly the fields its finalization reads
//! (`Sum` is one f64, `Avg` is the `(sum, count)` pair — **never** an
//! averaged double, which would make merge weight chunks incorrectly)
//! and the f64 operations on those fields happen in ascending row
//! order in every kernel, so the vectorized, dense-table, and
//! row-at-a-time paths finalize bit-identically.
//!
//! A partial aggregate is always a `GroupTable`: keys sorted
//! ascending, every group's states in one `Vec`. Kernels emit it,
//! shards fold brick tables in one k-way pass, the memo keeps the
//! folded table behind an `Arc` (charged in full against its budget,
//! and shared with every hit), the coordinator merge-joins shard
//! tables, and finalization walks the result in key order.
//!
//! [`merge`]: AggState::merge

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashMap};
use std::mem::size_of;

use columnar::Column;

use crate::brick::Brick;
use crate::query::AggFn;

/// One mergeable aggregation state. See the module docs for the
/// algebraic contract.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AggState {
    /// `COUNT`: rows observed (metric payload irrelevant).
    Count {
        /// Rows observed.
        count: u64,
    },
    /// `SUM` over numeric cells.
    Sum {
        /// Running sum (`0.0` identity).
        sum: f64,
    },
    /// `MIN` over numeric cells.
    Min {
        /// Running minimum (`+inf` identity).
        min: f64,
        /// Whether any numeric value was folded in. The `+inf`
        /// identity must never escape finalization: zero
        /// observations finalize to NaN (SQL NULL).
        seen: bool,
    },
    /// `MAX` over numeric cells.
    Max {
        /// Running maximum (`-inf` identity).
        max: f64,
        /// See [`AggState::Min::seen`].
        seen: bool,
    },
    /// `AVG` as the mergeable `(sum, count)` pair. Finalization — the
    /// only division — happens once, at the top of the merge tree;
    /// merging averaged doubles instead would weight every chunk
    /// equally regardless of its row count (mean-of-means).
    Avg {
        /// Running sum of observed values.
        sum: f64,
        /// Observed-value count.
        count: u64,
    },
}

impl AggState {
    /// The identity state for `func`: merging it into any state is a
    /// no-op, and finalizing it yields the function's empty-input
    /// result (0 / 0.0 / NaN).
    pub fn init(func: AggFn) -> Self {
        match func {
            AggFn::Count => AggState::Count { count: 0 },
            AggFn::Sum => AggState::Sum { sum: 0.0 },
            AggFn::Min => AggState::Min {
                min: f64::INFINITY,
                seen: false,
            },
            AggFn::Max => AggState::Max {
                max: f64::NEG_INFINITY,
                seen: false,
            },
            AggFn::Avg => AggState::Avg { sum: 0.0, count: 0 },
        }
    }

    /// The aggregation function this state computes.
    pub fn func(&self) -> AggFn {
        match self {
            AggState::Count { .. } => AggFn::Count,
            AggState::Sum { .. } => AggFn::Sum,
            AggState::Min { .. } => AggFn::Min,
            AggState::Max { .. } => AggFn::Max,
            AggState::Avg { .. } => AggFn::Avg,
        }
    }

    /// Folds one observed value in (row-at-a-time reference path).
    /// `Count` ignores the payload.
    #[inline]
    pub fn observe(&mut self, v: f64) {
        match self {
            AggState::Count { count } => *count += 1,
            AggState::Sum { sum } => *sum += v,
            AggState::Min { min, seen } => {
                *min = min.min(v);
                *seen = true;
            }
            AggState::Max { max, seen } => {
                *max = max.max(v);
                *seen = true;
            }
            AggState::Avg { sum, count } => {
                *sum += v;
                *count += 1;
            }
        }
    }

    /// Merges `other` (a partial over disjoint rows) into `self`.
    ///
    /// # Panics
    ///
    /// If the variants disagree — partials of the same query always
    /// carry the same aggregation list, so a mismatch is a merge-tree
    /// construction bug, never data-dependent.
    pub fn merge(&mut self, other: &AggState) {
        match (self, other) {
            (AggState::Count { count }, AggState::Count { count: o }) => *count += o,
            (AggState::Sum { sum }, AggState::Sum { sum: o }) => *sum += o,
            (AggState::Min { min, seen }, AggState::Min { min: om, seen: os }) => {
                *min = min.min(*om);
                *seen |= os;
            }
            (AggState::Max { max, seen }, AggState::Max { max: om, seen: os }) => {
                *max = max.max(*om);
                *seen |= os;
            }
            (AggState::Avg { sum, count }, AggState::Avg { sum: os, count: oc }) => {
                *sum += os;
                *count += oc;
            }
            (mine, other) => panic!(
                "AggState::merge variant mismatch: {:?} vs {:?}",
                mine.func(),
                other.func()
            ),
        }
    }

    /// Evaluates the state to its SQL result. Empty-input
    /// `Min`/`Max`/`Avg` finalize to NaN (SQL NULL) — the infinity
    /// fold identities and `0/0` never escape.
    pub fn finalize(&self) -> f64 {
        match self {
            AggState::Count { count } => *count as f64,
            AggState::Sum { sum } => *sum,
            AggState::Min { min, seen } => {
                if *seen {
                    *min
                } else {
                    f64::NAN
                }
            }
            AggState::Max { max, seen } => {
                if *seen {
                    *max
                } else {
                    f64::NAN
                }
            }
            AggState::Avg { sum, count } => {
                if *count == 0 {
                    f64::NAN
                } else {
                    *sum / *count as f64
                }
            }
        }
    }

    /// Fused filter+aggregate kernel: folds the selected rows of one
    /// metric column into `self` with a type-specialized loop
    /// (vectorized path).
    ///
    /// The f64 operations happen in the same ascending-row order as
    /// the reference kernel's [`AggState::observe`] calls, so
    /// finalized results are bit-identical. `Count` counts rows
    /// regardless of metric payload and never dereferences the metric
    /// column (`COUNT(*)` resolves with a placeholder index); other
    /// functions skip non-numeric cells, mirroring the reference's
    /// `get_numeric` miss.
    pub(crate) fn accumulate_batch(&mut self, brick: &Brick, metric: usize, sel: &[u32]) {
        if sel.is_empty() {
            return;
        }
        if let AggState::Count { count } = self {
            *count += sel.len() as u64;
            return;
        }
        match (self, brick.metric_column(metric)) {
            (AggState::Sum { sum }, Column::I64(v)) => {
                let mut s = *sum;
                for &row in sel {
                    s += v[row as usize] as f64;
                }
                *sum = s;
            }
            (AggState::Sum { sum }, Column::F64(v)) => {
                let mut s = *sum;
                for &row in sel {
                    s += v[row as usize];
                }
                *sum = s;
            }
            (AggState::Avg { sum, count }, Column::I64(v)) => {
                let mut s = *sum;
                for &row in sel {
                    s += v[row as usize] as f64;
                }
                *sum = s;
                *count += sel.len() as u64;
            }
            (AggState::Avg { sum, count }, Column::F64(v)) => {
                let mut s = *sum;
                for &row in sel {
                    s += v[row as usize];
                }
                *sum = s;
                *count += sel.len() as u64;
            }
            (AggState::Min { min, seen }, Column::I64(v)) => {
                let mut m = *min;
                for &row in sel {
                    m = m.min(v[row as usize] as f64);
                }
                *min = m;
                *seen = true;
            }
            (AggState::Min { min, seen }, Column::F64(v)) => {
                let mut m = *min;
                for &row in sel {
                    m = m.min(v[row as usize]);
                }
                *min = m;
                *seen = true;
            }
            (AggState::Max { max, seen }, Column::I64(v)) => {
                let mut m = *max;
                for &row in sel {
                    m = m.max(v[row as usize] as f64);
                }
                *max = m;
                *seen = true;
            }
            (AggState::Max { max, seen }, Column::F64(v)) => {
                let mut m = *max;
                for &row in sel {
                    m = m.max(v[row as usize]);
                }
                *max = m;
                *seen = true;
            }
            // Non-numeric cells are skipped — the vectorized twin of
            // the reference kernel's `get_numeric` miss.
            (_, Column::Str(_)) => {}
            (AggState::Count { .. }, _) => unreachable!("handled above"),
        }
    }
}

/// One initial state per requested aggregation (the per-group row of
/// accumulators every kernel starts from).
pub(crate) fn init_states(aggs: &[(AggFn, usize)]) -> Vec<AggState> {
    aggs.iter().map(|&(func, _)| AggState::init(func)).collect()
}

/// The one form a partial aggregate takes, from a brick kernel's
/// output through the shard fold, the memo entry and the coordinator
/// merge to finalization: packed group keys in strictly ascending
/// order, and `width` states per key (one per requested aggregation)
/// in one `Vec`, group `i` at `states[i * width..(i + 1) * width]`.
/// An ungrouped aggregate is the single key 0.
///
/// Merging two tables is a merge-join and folding many is one k-way
/// pass. Both merge a key's states left to right in argument order,
/// starting from the first table that has the key — the association
/// a map-based fold over the same sequence would use — so the fold
/// order, and with it every result bit, is fixed by the order the
/// tables are passed in.
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct GroupTable {
    width: usize,
    keys: Vec<u64>,
    states: Vec<AggState>,
}

impl GroupTable {
    /// An empty table with room for `groups` groups of `width` states.
    pub(crate) fn with_capacity(width: usize, groups: usize) -> Self {
        GroupTable {
            width,
            keys: Vec::with_capacity(groups),
            states: Vec::with_capacity(groups * width),
        }
    }

    /// The ungrouped aggregate `states`, under key 0.
    pub(crate) fn ungrouped(states: Vec<AggState>) -> Self {
        GroupTable {
            width: states.len(),
            keys: vec![0],
            states,
        }
    }

    /// Groups held.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Group `i`'s packed key.
    pub(crate) fn key(&self, i: usize) -> u64 {
        self.keys[i]
    }

    /// Group `i`'s states.
    pub(crate) fn states(&self, i: usize) -> &[AggState] {
        &self.states[i * self.width..(i + 1) * self.width]
    }

    /// Every state, group after group.
    #[cfg(any(test, feature = "fault-hooks"))]
    pub(crate) fn states_mut(&mut self) -> &mut [AggState] {
        &mut self.states
    }

    /// Appends group `key`, which must sort after every key held.
    pub(crate) fn push(&mut self, key: u64, states: &[AggState]) {
        debug_assert!(self.keys.last().is_none_or(|&last| last < key));
        debug_assert_eq!(states.len(), self.width);
        self.keys.push(key);
        self.states.extend_from_slice(states);
    }

    /// Merges `states` into the last group if it is `key`, or appends
    /// group `key`.
    fn push_or_merge(&mut self, key: u64, states: &[AggState]) {
        if self.keys.last() == Some(&key) {
            let last = self.states.len() - self.width;
            for (mine, theirs) in self.states[last..].iter_mut().zip(states) {
                mine.merge(theirs);
            }
        } else {
            self.push(key, states);
        }
    }

    /// `self` and `other` merged: a linear merge-join in which a key
    /// both hold merges `other`'s states into `self`'s.
    pub(crate) fn merged(&self, other: &GroupTable) -> GroupTable {
        let width = self.width.max(other.width);
        let mut out = GroupTable::with_capacity(width, self.len() + other.len());
        let (mut i, mut j) = (0, 0);
        while i < self.len() || j < other.len() {
            if j == other.len() || (i < self.len() && self.keys[i] <= other.keys[j]) {
                out.push_or_merge(self.keys[i], self.states(i));
                i += 1;
            } else {
                out.push_or_merge(other.keys[j], other.states(j));
                j += 1;
            }
        }
        out
    }

    /// `tables` folded left to right in one k-way pass, O(N log k)
    /// for N groups in all: a heap yields the next `(key, table)` in
    /// ascending order, so each key's states merge in table order.
    /// The result holds no spare capacity, since a memo may keep it.
    pub(crate) fn fold(tables: &[&GroupTable]) -> GroupTable {
        let width = tables.iter().map(|t| t.width).max().unwrap_or(0);
        let mut out = GroupTable::with_capacity(width, tables.iter().map(|t| t.len()).sum());
        // `(key, table, group)`: one head per table, so `(key, table)`
        // alone orders the heap.
        let mut heads: BinaryHeap<Reverse<(u64, usize, usize)>> = (tables.iter().enumerate())
            .filter(|(_, table)| !table.is_empty())
            .map(|(t, table)| Reverse((table.keys[0], t, 0)))
            .collect();
        while let Some(mut head) = heads.peek_mut() {
            let Reverse((key, t, i)) = *head;
            out.push_or_merge(key, tables[t].states(i));
            match tables[t].keys.get(i + 1) {
                Some(&next) => *head = Reverse((next, t, i + 1)),
                None => {
                    PeekMut::pop(head);
                }
            }
        }
        out.keys.shrink_to_fit();
        out.states.shrink_to_fit();
        out
    }

    /// Heap bytes the table owns.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.keys.capacity() * size_of::<u64>() + self.states.capacity() * size_of::<AggState>()
    }
}

/// A brick's groups in first-seen order, for the kernels whose key
/// space is too wide to index densely: a hash index from packed key to
/// slot, with a one-entry cache for runs of identical keys (sorted or
/// clustered data hits it constantly). [`GroupBuilder::finish`] sorts
/// the groups once, into a [`GroupTable`].
pub(crate) struct GroupBuilder<'a> {
    aggs: &'a [(AggFn, usize)],
    keys: Vec<u64>,
    states: Vec<AggState>,
    slots: HashMap<u64, usize>,
    last: Option<(u64, usize)>,
}

impl<'a> GroupBuilder<'a> {
    pub(crate) fn new(aggs: &'a [(AggFn, usize)]) -> Self {
        GroupBuilder {
            aggs,
            keys: Vec::new(),
            states: Vec::new(),
            slots: HashMap::new(),
            last: None,
        }
    }

    /// Group `key`'s states, initialized on first sight.
    #[inline]
    pub(crate) fn states(&mut self, key: u64) -> &mut [AggState] {
        let slot = match self.last {
            Some((last, slot)) if last == key => slot,
            _ => {
                let next = self.keys.len();
                let slot = *self.slots.entry(key).or_insert(next);
                if slot == next {
                    self.keys.push(key);
                    (self.states).extend(self.aggs.iter().map(|&(func, _)| AggState::init(func)));
                }
                self.last = Some((key, slot));
                slot
            }
        };
        let width = self.aggs.len();
        &mut self.states[slot * width..(slot + 1) * width]
    }

    /// The groups as a table, sorted by key.
    pub(crate) fn finish(self) -> GroupTable {
        let width = self.aggs.len();
        let mut order: Vec<usize> = (0..self.keys.len()).collect();
        order.sort_unstable_by_key(|&slot| self.keys[slot]);
        let mut table = GroupTable::with_capacity(width, order.len());
        for slot in order {
            table.push(
                self.keys[slot],
                &self.states[slot * width..(slot + 1) * width],
            );
        }
        table
    }
}

/// The vectorized kernel's group table for a small packed-key space,
/// indexed by the key itself. Each aggregate but `Count` folds into a
/// typed `f64` column (SUM, AVG's sum, MIN, MAX), and one row count
/// per key serves `Count`, AVG's count and MIN/MAX's `seen`, so the
/// per-row loops never match on an [`AggState`] variant. The states
/// are built once per key that took a row, in ascending key order, in
/// [`DenseGroups::finish`].
///
/// Row order within each group is ascending — the same f64 operation
/// sequence as the reference kernel — because `sel`/`keys` are
/// ascending and a key's slot only ever takes its own rows.
pub(crate) struct DenseGroups {
    /// Rows folded in per key.
    rows: Vec<u64>,
    /// Per aggregate, the running value of every key; empty for
    /// `Count`, which `rows` answers.
    values: Vec<Vec<f64>>,
}

impl DenseGroups {
    /// An empty table of `num_keys` slots for `aggs`.
    pub(crate) fn new(aggs: &[(AggFn, usize)], num_keys: usize) -> Self {
        let values = aggs
            .iter()
            .map(|&(func, _)| match func {
                AggFn::Count => Vec::new(),
                AggFn::Sum | AggFn::Avg => vec![0.0; num_keys],
                AggFn::Min => vec![f64::INFINITY; num_keys],
                AggFn::Max => vec![f64::NEG_INFINITY; num_keys],
            })
            .collect();
        DenseGroups {
            rows: vec![0; num_keys],
            values,
        }
    }

    /// Folds the selected rows, whose packed keys are `keys`, into the
    /// table. Non-numeric metric cells are skipped, mirroring the
    /// reference's `get_numeric` miss.
    pub(crate) fn accumulate(
        &mut self,
        brick: &Brick,
        aggs: &[(AggFn, usize)],
        sel: &[u32],
        keys: &[u64],
    ) {
        for &key in keys {
            self.rows[key as usize] += 1;
        }
        for (table, &(func, metric)) in self.values.iter_mut().zip(aggs) {
            // `Count` never dereferences the metric column (`COUNT(*)`
            // resolves with a placeholder index).
            if func == AggFn::Count {
                continue;
            }
            match (func, brick.metric_column(metric)) {
                (AggFn::Sum | AggFn::Avg, Column::I64(v)) => {
                    fold_dense(table, sel, keys, |row| v[row] as f64, |acc, x| acc + x);
                }
                (AggFn::Sum | AggFn::Avg, Column::F64(v)) => {
                    fold_dense(table, sel, keys, |row| v[row], |acc, x| acc + x);
                }
                (AggFn::Min, Column::I64(v)) => {
                    fold_dense(table, sel, keys, |row| v[row] as f64, f64::min);
                }
                (AggFn::Min, Column::F64(v)) => {
                    fold_dense(table, sel, keys, |row| v[row], f64::min)
                }
                (AggFn::Max, Column::I64(v)) => {
                    fold_dense(table, sel, keys, |row| v[row] as f64, f64::max);
                }
                (AggFn::Max, Column::F64(v)) => {
                    fold_dense(table, sel, keys, |row| v[row], f64::max)
                }
                (_, Column::Str(_)) | (AggFn::Count, _) => {}
            }
        }
    }

    /// Turns every key that took a row into its group's states, in
    /// ascending key order: a walk of the slots, which cost as much to
    /// allocate.
    pub(crate) fn finish(self, brick: &Brick, aggs: &[(AggFn, usize)]) -> GroupTable {
        let groups = self.rows.iter().filter(|&&rows| rows > 0).count();
        let mut table = GroupTable::with_capacity(aggs.len(), groups);
        for (k, &rows) in self.rows.iter().enumerate() {
            if rows == 0 {
                continue;
            }
            // An aggregate observed every row of the key, unless its
            // metric column is non-numeric: then it observed none.
            let observed = |metric| match brick.metric_column(metric) {
                Column::Str(_) => 0,
                _ => rows,
            };
            table.keys.push(k as u64);
            let states =
                (aggs.iter().zip(&self.values)).map(|(&(func, metric), values)| match func {
                    AggFn::Count => AggState::Count { count: rows },
                    AggFn::Sum => AggState::Sum { sum: values[k] },
                    AggFn::Avg => AggState::Avg {
                        sum: values[k],
                        count: observed(metric),
                    },
                    AggFn::Min => AggState::Min {
                        min: values[k],
                        seen: observed(metric) > 0,
                    },
                    AggFn::Max => AggState::Max {
                        max: values[k],
                        seen: observed(metric) > 0,
                    },
                });
            table.states.extend(states);
        }
        table
    }
}

/// `table[key] = op(table[key], value(row))` for every selected row,
/// in order.
#[inline]
fn fold_dense(
    table: &mut [f64],
    sel: &[u32],
    keys: &[u64],
    value: impl Fn(usize) -> f64,
    op: impl Fn(f64, f64) -> f64,
) {
    for (&row, &key) in sel.iter().zip(keys) {
        let slot = &mut table[key as usize];
        *slot = op(*slot, value(row as usize));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FUNCS: [AggFn; 5] = [AggFn::Count, AggFn::Sum, AggFn::Min, AggFn::Max, AggFn::Avg];

    #[test]
    fn init_is_the_merge_identity() {
        for func in FUNCS {
            let mut state = AggState::init(func);
            for v in [3.0, -7.5, 0.25] {
                state.observe(v);
            }
            let before = state;
            state.merge(&AggState::init(func));
            assert_eq!(state, before, "{func:?}: merging init must be a no-op");
            let mut identity = AggState::init(func);
            identity.merge(&before);
            assert_eq!(identity, before, "{func:?}: init absorbs any state");
        }
    }

    #[test]
    fn merge_equals_sequential_observation() {
        let values = [4.0, -1.0, 0.5, 12.0, -3.25, 8.0, 8.0];
        for func in FUNCS {
            for split in 0..=values.len() {
                let mut left = AggState::init(func);
                let mut right = AggState::init(func);
                for &v in &values[..split] {
                    left.observe(v);
                }
                for &v in &values[split..] {
                    right.observe(v);
                }
                left.merge(&right);
                let mut sequential = AggState::init(func);
                for &v in &values {
                    sequential.observe(v);
                }
                assert_eq!(
                    left.finalize().to_bits(),
                    sequential.finalize().to_bits(),
                    "{func:?} split at {split}"
                );
            }
        }
    }

    /// Regression: AVG must merge `(sum, count)` pairs. A naive
    /// implementation that merges finalized doubles — mean-of-means —
    /// weights both chunks equally regardless of row count and gets
    /// this two-chunk case wrong.
    #[test]
    fn avg_merge_combines_sum_count_not_means() {
        // Chunk A: three zeros (avg 0.0). Chunk B: one 3.0 (avg 3.0).
        let mut a = AggState::init(AggFn::Avg);
        for _ in 0..3 {
            a.observe(0.0);
        }
        let mut b = AggState::init(AggFn::Avg);
        b.observe(3.0);
        let mean_of_means = (a.finalize() + b.finalize()) / 2.0;
        a.merge(&b);
        assert_eq!(a.finalize(), 0.75, "true average over all four rows");
        assert_eq!(mean_of_means, 1.5, "what the naive merge would report");
        assert_ne!(a.finalize(), mean_of_means);
        // The merged state still carries the exact pair.
        assert_eq!(a, AggState::Avg { sum: 3.0, count: 4 });
    }

    #[test]
    fn merge_is_associative_and_commutative_on_exact_inputs() {
        // Integer-valued floats: sums are exact, so every
        // association/order finalizes bit-identically (the engine's
        // workload convention — see the module docs).
        let chunks: [&[f64]; 3] = [&[1.0, 2.0], &[-5.0], &[10.0, 3.0, 3.0]];
        for func in FUNCS {
            let state_of = |vals: &[f64]| {
                let mut s = AggState::init(func);
                for &v in vals {
                    s.observe(v);
                }
                s
            };
            let [a, b, c] = [
                state_of(chunks[0]),
                state_of(chunks[1]),
                state_of(chunks[2]),
            ];
            // (a · b) · c
            let mut left = a;
            left.merge(&b);
            left.merge(&c);
            // a · (b · c)
            let mut right_tail = b;
            right_tail.merge(&c);
            let mut right = a;
            right.merge(&right_tail);
            assert_eq!(left, right, "{func:?}: associativity");
            // c · b · a (commuted)
            let mut rev = c;
            rev.merge(&b);
            rev.merge(&a);
            assert_eq!(
                rev.finalize().to_bits(),
                left.finalize().to_bits(),
                "{func:?}: commutativity"
            );
        }
    }

    #[test]
    #[should_panic(expected = "variant mismatch")]
    fn mismatched_merge_panics() {
        let mut sum = AggState::init(AggFn::Sum);
        sum.merge(&AggState::init(AggFn::Count));
    }

    #[test]
    fn empty_states_finalize_to_sql_null_semantics() {
        assert_eq!(AggState::init(AggFn::Count).finalize(), 0.0);
        assert_eq!(AggState::init(AggFn::Sum).finalize(), 0.0);
        assert!(AggState::init(AggFn::Min).finalize().is_nan());
        assert!(AggState::init(AggFn::Max).finalize().is_nan());
        assert!(AggState::init(AggFn::Avg).finalize().is_nan());
    }
}
