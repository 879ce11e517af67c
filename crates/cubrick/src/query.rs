//! The scan/aggregation query engine.
//!
//! OLAP queries here are filtered aggregations with an optional
//! group-by — the workload shape of the paper's Section VI-B
//! experiments. Execution is bitmap-driven: the AOSI visibility
//! bitmap (or an all-ones bitmap in read-uncommitted mode) seeds the
//! scan mask, dimension filters clear further bits, and the
//! aggregation loop walks the surviving rows. "Records skipped due to
//! concurrency control may never be reintroduced" (Section III-C3) —
//! filters only ever clear bits.
//!
//! Partitions are pruned before scanning when a filter excludes the
//! brick's entire coordinate range — the Granular Partitioning
//! benefit of Section V-A.

use std::collections::{BTreeMap, HashMap};

use columnar::{Bitmap, Value};

use crate::agg::{self, AggState};
use crate::brick::Brick;
use crate::cube::Cube;
use crate::error::CubrickError;

/// Which brick scan/aggregate kernel executes queries (see
/// [`crate::engine::ScanConfig`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ScanKernel {
    /// Batch kernels: chunked selection vectors materialized from the
    /// visibility bitmap/ranges, dictionary-id predicate compaction
    /// over column slices, and fused type-specialized aggregation
    /// loops. The production default.
    #[default]
    Vectorized,
    /// Row-at-a-time loops — the differential-testing reference
    /// executor. [`crate::Engine::query_at_reference`] is pinned to
    /// this kernel; `oracle::scan` diffs the two bit-for-bit.
    RowAtATime,
}

/// Aggregation function.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AggFn {
    /// Sum of a metric.
    Sum,
    /// Count of visible rows.
    Count,
    /// Minimum.
    Min,
    /// Maximum.
    Max,
    /// Arithmetic mean.
    Avg,
}

/// One aggregation request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Aggregation {
    /// Function to apply.
    pub func: AggFn,
    /// Metric column name (ignored for `Count`; use any metric).
    pub metric: String,
}

impl Aggregation {
    /// Shorthand constructor.
    pub fn new(func: AggFn, metric: impl Into<String>) -> Self {
        Aggregation {
            func,
            metric: metric.into(),
        }
    }
}

/// An IN-list filter on one dimension.
#[derive(Clone, Debug, PartialEq)]
pub struct DimFilter {
    /// Dimension column name.
    pub dim: String,
    /// Accepted values (strings for string dimensions, integers for
    /// integer dimensions).
    pub values: Vec<Value>,
}

impl DimFilter {
    /// Shorthand constructor.
    pub fn new(dim: impl Into<String>, values: Vec<Value>) -> Self {
        DimFilter {
            dim: dim.into(),
            values,
        }
    }
}

/// A comparison operator (HAVING predicates).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Does `lhs op rhs` hold? NaN (a finalized empty-group
    /// `Min`/`Max`/`Avg`, i.e. SQL NULL) fails **every** comparison
    /// including `Ne` — three-valued SQL logic, where `NULL <> x` is
    /// UNKNOWN and HAVING drops UNKNOWN groups.
    pub fn holds(self, lhs: f64, rhs: f64) -> bool {
        if lhs.is_nan() || rhs.is_nan() {
            return false;
        }
        match self {
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Le => lhs <= rhs,
            CmpOp::Gt => lhs > rhs,
            CmpOp::Ge => lhs >= rhs,
        }
    }

    /// The SQL spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A HAVING predicate: compares the `agg`-th requested aggregation's
/// finalized value against a literal. Applied after finalization and
/// before ORDER BY/LIMIT, per SQL semantics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Having {
    /// Index into the query's aggregation list.
    pub agg: usize,
    /// Comparison operator.
    pub op: CmpOp,
    /// Literal right-hand side.
    pub value: f64,
}

/// What a query's result rows are ordered by.
#[derive(Clone, Debug, PartialEq)]
pub enum OrderBy {
    /// By the `i`-th requested aggregation's value.
    Aggregation(usize),
    /// By the named group-by dimension's decoded value.
    Dimension(String),
}

/// A query: filters, aggregations, group-by dimensions, and optional
/// result shaping (top-k dashboards).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Query {
    /// Conjunctive dimension filters.
    pub filters: Vec<DimFilter>,
    /// Aggregations to compute.
    pub aggregations: Vec<Aggregation>,
    /// Group results by these dimensions (empty = one global group).
    pub group_by: Vec<String>,
    /// Keep only groups whose finalized aggregate satisfies this
    /// predicate (applied before ordering/limit).
    pub having: Option<Having>,
    /// Result ordering; `None` keeps the deterministic group-key
    /// order.
    pub order_by: Option<(OrderBy, bool)>,
    /// Keep only the first `n` result rows after ordering.
    pub limit: Option<usize>,
}

impl Query {
    /// A query computing `aggregations` over the whole cube.
    pub fn aggregate(aggregations: Vec<Aggregation>) -> Self {
        Query {
            filters: Vec::new(),
            aggregations,
            ..Default::default()
        }
    }

    /// Adds a filter.
    pub fn filter(mut self, filter: DimFilter) -> Self {
        self.filters.push(filter);
        self
    }

    /// Adds a group-by dimension (call repeatedly for roll-ups over
    /// several dimensions).
    pub fn grouped_by(mut self, dim: impl Into<String>) -> Self {
        self.group_by.push(dim.into());
        self
    }

    /// Keeps only groups where aggregation `agg` satisfies `op value`.
    pub fn having(mut self, agg: usize, op: CmpOp, value: f64) -> Self {
        self.having = Some(Having { agg, op, value });
        self
    }

    /// Orders the result rows (descending when `desc`).
    pub fn ordered_by(mut self, order: OrderBy, desc: bool) -> Self {
        self.order_by = Some((order, desc));
        self
    }

    /// Keeps only the first `n` result rows (after ordering).
    pub fn limited(mut self, n: usize) -> Self {
        self.limit = Some(n);
        self
    }
}

/// Per-query execution statistics: carried on every [`QueryResult`]
/// and [`PartialResult`], merged across bricks, shards, and nodes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Bricks whose rows were scanned.
    pub bricks_scanned: u64,
    /// Bricks skipped by range pruning.
    pub bricks_pruned: u64,
    /// Rows stored in scanned bricks.
    pub rows_scanned: u64,
    /// Rows that survived visibility + filters.
    pub rows_visible: u64,
    /// Bricks the vectorized kernel scanned, straight off the
    /// snapshot's visible ranges (no bitmap materialized).
    pub range_scans: u64,
    /// Bricks the row-at-a-time reference kernel scanned, through a
    /// materialized visibility bitmap.
    pub bitmap_scans: u64,
    /// Wall nanoseconds spent deriving visibility (ranges or bitmap)
    /// from the epochs vector, summed across bricks — parallel shard
    /// work can make this exceed the query's elapsed time.
    pub visibility_build_nanos: u64,
    /// Wall nanoseconds spent scanning and aggregating, summed
    /// across bricks.
    pub scan_nanos: u64,
    /// Shards that had at least one brick to scan for this query and
    /// ran overlapped (0 on a sequential execution, such as the
    /// reference path).
    pub parallel_tasks: u64,
    /// Shards that answered from their snapshot memo without touching
    /// a brick.
    pub agg_cache_hits: u64,
    /// Shards that looked in their memo, missed, and scanned.
    pub agg_cache_misses: u64,
    /// Evicted bricks this query faulted back in from the cold tier.
    pub tier_reloads: u64,
}

impl QueryStats {
    /// Adds `other`'s counters into `self`.
    pub fn absorb(&mut self, other: &QueryStats) {
        self.bricks_scanned += other.bricks_scanned;
        self.bricks_pruned += other.bricks_pruned;
        self.rows_scanned += other.rows_scanned;
        self.rows_visible += other.rows_visible;
        self.range_scans += other.range_scans;
        self.bitmap_scans += other.bitmap_scans;
        self.visibility_build_nanos += other.visibility_build_nanos;
        self.scan_nanos += other.scan_nanos;
        self.parallel_tasks += other.parallel_tasks;
        self.agg_cache_hits += other.agg_cache_hits;
        self.agg_cache_misses += other.agg_cache_misses;
        self.tier_reloads += other.tier_reloads;
    }

    /// Total visibility-materialization time.
    pub fn visibility_build_time(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.visibility_build_nanos)
    }

    /// Total scan/aggregation time.
    pub fn scan_time(&self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.scan_nanos)
    }
}

/// The packed group-key layout: every group dimension contributes
/// `ceil(log2(cardinality))` bits of a single `u64` key, exactly like
/// a bid. Grouping by up to ~64 bits of combined cardinality needs no
/// per-row allocation at all.
#[derive(Clone, Debug)]
pub(crate) struct GroupSpec {
    /// `(dimension index, bit shift, bit width)` per group dimension.
    pub(crate) dims: Vec<(usize, u32, u32)>,
}

impl GroupSpec {
    #[inline]
    pub(crate) fn pack(&self, brick: &Brick, row: usize) -> u64 {
        let mut key = 0u64;
        for &(dim, shift, _) in &self.dims {
            key |= (brick.dim_value(dim, row) as u64) << shift;
        }
        key
    }

    pub(crate) fn unpack(&self, key: u64) -> Vec<(usize, u32)> {
        self.dims
            .iter()
            .map(|&(dim, shift, width)| {
                let mask = if width >= 64 {
                    !0u64
                } else {
                    (1u64 << width) - 1
                };
                (dim, ((key >> shift) & mask) as u32)
            })
            .collect()
    }
}

/// Coordinate bound under which a [`FilterSet`] also materializes a
/// dense bitset for O(1) membership probes in the scan kernels (8 KiB
/// worst case — comfortably cache-resident).
const FILTER_BITSET_MAX: u32 = 1 << 16;

/// A resolved IN-list filter over one dimension's encoded
/// coordinates: a sorted, deduplicated id list (for range reasoning
/// against a brick's bounds and large-id membership via binary
/// search) plus, when every id is small, a dense bitset the kernels
/// probe per row.
#[derive(Clone, Debug)]
pub(crate) struct FilterSet {
    sorted: Vec<u32>,
    bitset: Option<Vec<u64>>,
}

impl FilterSet {
    pub(crate) fn from_coords(coords: impl IntoIterator<Item = u32>) -> Self {
        let mut sorted: Vec<u32> = coords.into_iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        let bitset = match sorted.last() {
            Some(&max) if max < FILTER_BITSET_MAX => {
                let mut words = vec![0u64; max as usize / 64 + 1];
                for &c in &sorted {
                    words[c as usize / 64] |= 1u64 << (c % 64);
                }
                Some(words)
            }
            _ => None,
        };
        FilterSet { sorted, bitset }
    }

    #[inline]
    pub(crate) fn contains(&self, coord: u32) -> bool {
        match &self.bitset {
            Some(words) => bit_set(words, coord),
            None => self.sorted.binary_search(&coord).is_ok(),
        }
    }

    /// How many accepted coordinates fall in `[lo, hi)`? (A brick's
    /// range bounds on the filtered dimension; see
    /// [`ResolvedQuery::brick_filters`].)
    pub(crate) fn count_in_range(&self, lo: u32, hi: u32) -> u32 {
        let start = self.sorted.partition_point(|&c| c < lo);
        let end = self.sorted.partition_point(|&c| c < hi);
        end.saturating_sub(start) as u32
    }

    /// Does the set accept every storable coordinate `[0,
    /// cardinality)`? Such a filter cannot reject a row, so resolve
    /// drops it and the scan takes the unfiltered ranges path.
    pub(crate) fn covers_all(&self, cardinality: u32) -> bool {
        // Deduplicated ids are distinct; `cardinality` of them with a
        // maximum of `cardinality - 1` is exactly `0..cardinality`.
        self.sorted.len() as u64 == u64::from(cardinality)
            && self
                .sorted
                .last()
                .is_some_and(|&max| u64::from(max) == u64::from(cardinality) - 1)
    }
}

/// Is bit `coord` of `words` set? A coordinate past the bitset reads
/// as a clear bit, without a branch.
#[inline]
fn bit_set(words: &[u64], coord: u32) -> bool {
    let word = words.get(coord as usize / 64).copied().unwrap_or(0);
    (word >> (coord % 64)) & 1 != 0
}

/// A query resolved against a cube's schema: names replaced by column
/// indexes and filter values by coordinate sets. Cheap to clone into
/// shard tasks.
#[derive(Clone, Debug)]
pub struct ResolvedQuery {
    pub(crate) filters: Vec<(usize, FilterSet)>,
    pub(crate) aggs: Vec<(AggFn, usize)>,
    pub(crate) group_by: Option<GroupSpec>,
    pub(crate) having: Option<Having>,
    /// `(key position or agg index, descending)` — key positions are
    /// offsets into the decoded group-key vector.
    pub(crate) order_by: Option<(ResolvedOrder, bool)>,
    pub(crate) limit: Option<usize>,
}

#[derive(Clone, Copy, Debug)]
pub(crate) enum ResolvedOrder {
    Aggregation(usize),
    GroupKey(usize),
}

impl ResolvedQuery {
    /// Resolves `query` against `cube`. Unknown string filter values
    /// resolve to nothing (they cannot match), unknown column names
    /// are errors.
    pub fn resolve(cube: &Cube, query: &Query) -> Result<Self, CubrickError> {
        let schema = cube.schema();
        let mut filters = Vec::with_capacity(query.filters.len());
        for f in &query.filters {
            let dim = schema
                .dim_index(&f.dim)
                .ok_or_else(|| CubrickError::UnknownColumn(f.dim.clone()))?;
            let coords = FilterSet::from_coords(
                f.values
                    .iter()
                    .filter_map(|v| cube.encode_filter_value(dim, v)),
            );
            if coords.covers_all(schema.dimensions[dim].cardinality) {
                // Accepts every storable coordinate: dropping the
                // filter is semantically identical and keeps the scan
                // on the unfiltered ranges path.
                continue;
            }
            filters.push((dim, coords));
        }
        let mut aggs = Vec::with_capacity(query.aggregations.len());
        for a in &query.aggregations {
            // COUNT needs no metric column: `COUNT(*)` arrives with an
            // empty metric name and never dereferences the index.
            let metric = if a.func == AggFn::Count && a.metric.is_empty() {
                0
            } else {
                schema
                    .metric_index(&a.metric)
                    .ok_or_else(|| CubrickError::UnknownColumn(a.metric.clone()))?
            };
            aggs.push((a.func, metric));
        }
        let group_by = if query.group_by.is_empty() {
            None
        } else {
            let mut dims = Vec::with_capacity(query.group_by.len());
            let mut shift = 0u32;
            for name in &query.group_by {
                let dim = schema
                    .dim_index(name)
                    .ok_or_else(|| CubrickError::UnknownColumn(name.clone()))?;
                let card = schema.dimensions[dim].cardinality;
                let width = if card <= 1 {
                    1
                } else {
                    32 - (card - 1).leading_zeros()
                };
                dims.push((dim, shift, width));
                shift += width;
            }
            if shift > 64 {
                return Err(CubrickError::GroupKeyTooWide {
                    bits: shift,
                    dims: query.group_by.clone(),
                });
            }
            Some(GroupSpec { dims })
        };
        let having = match &query.having {
            None => None,
            Some(h) => {
                if h.agg >= query.aggregations.len() {
                    return Err(CubrickError::UnknownColumn(format!(
                        "HAVING aggregation #{} (only {} requested)",
                        h.agg,
                        query.aggregations.len()
                    )));
                }
                Some(*h)
            }
        };
        let order_by = match &query.order_by {
            None => None,
            Some((OrderBy::Aggregation(idx), desc)) => {
                if *idx >= query.aggregations.len() {
                    return Err(CubrickError::UnknownColumn(format!(
                        "ORDER BY aggregation #{idx} (only {} requested)",
                        query.aggregations.len()
                    )));
                }
                Some((ResolvedOrder::Aggregation(*idx), *desc))
            }
            Some((OrderBy::Dimension(name), desc)) => {
                let position = query
                    .group_by
                    .iter()
                    .position(|g| g == name)
                    .ok_or_else(|| {
                        CubrickError::UnknownColumn(format!("ORDER BY {name} (not in GROUP BY)"))
                    })?;
                Some((ResolvedOrder::GroupKey(position), *desc))
            }
        };
        Ok(ResolvedQuery {
            filters,
            aggs,
            group_by,
            having,
            order_by,
            limit: query.limit,
        })
    }

    /// The filters the vectorized kernel must still probe on brick
    /// `bid`, read off the coordinate range `[lo, min(hi,
    /// cardinality))` the bid gives each filtered dimension (Granular
    /// Partitioning, Section V-A). `None` when a filter accepts no
    /// coordinate of its range: the brick cannot match and is pruned.
    /// Otherwise the filters that accept only part of their range; a
    /// filter accepting all of it cannot reject a row of this brick.
    pub(crate) fn brick_filters(&self, cube: &Cube, bid: u64) -> Option<Vec<&(usize, FilterSet)>> {
        let mut partial = Vec::new();
        if self.filters.is_empty() {
            return Some(partial);
        }
        let layout = cube.layout();
        let ranges = layout.range_indexes_of_bid(bid);
        let dims = &cube.schema().dimensions;
        for filter in &self.filters {
            let (dim, coords) = filter;
            let (lo, hi) = layout.range_bounds(*dim, ranges[*dim]);
            let hi = hi.min(dims[*dim].cardinality);
            match coords.count_in_range(lo, hi) {
                0 => return None,
                accepted if accepted == hi - lo => {}
                _ => partial.push(filter),
            }
        }
        Some(partial)
    }
}

/// The structural identity of a resolved query's *brick-scan shape* —
/// part of the snapshot memo's key. Two resolved queries with equal
/// shapes produce bit-identical shard partials at the same snapshot,
/// because the shape captures everything the scan consumes: the
/// filter coordinate sets, the aggregation list, the packed group-key
/// layout, and the kernel. HAVING / ORDER BY / LIMIT are deliberately
/// absent — they act on *finalized* results at the coordinator and
/// never change what a brick scan produces.
///
/// Compared structurally (full `Eq` on the coordinate vectors), never
/// by hash fingerprint: a fingerprint collision would silently serve
/// one query's partial to another.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub(crate) struct AggQueryShape {
    /// `(dimension index, sorted deduplicated coordinate ids)` per
    /// filter — the canonical form of [`FilterSet`].
    filters: Vec<(usize, Vec<u32>)>,
    aggs: Vec<(AggFn, usize)>,
    /// `(dimension index, shift, width)` per group dimension; empty
    /// for ungrouped queries (a zero-dimension GROUP BY does not
    /// exist, so empty is unambiguous).
    group_dims: Vec<(usize, u32, u32)>,
    kernel: ScanKernel,
}

impl AggQueryShape {
    pub(crate) fn of(resolved: &ResolvedQuery, kernel: ScanKernel) -> Self {
        AggQueryShape {
            filters: resolved
                .filters
                .iter()
                .map(|(dim, set)| (*dim, set.sorted.clone()))
                .collect(),
            aggs: resolved.aggs.clone(),
            group_dims: resolved
                .group_by
                .as_ref()
                .map(|spec| spec.dims.clone())
                .unwrap_or_default(),
            kernel,
        }
    }

    /// Bytes the shape's vectors own on the heap.
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of_val;
        size_of_val(&*self.filters)
            + (self.filters.iter())
                .map(|(_, ids)| size_of_val(&**ids))
                .sum::<usize>()
            + size_of_val(&*self.aggs)
            + size_of_val(&*self.group_dims)
    }
}

/// Per-group partial aggregates produced by one brick/shard/node and
/// merged upward. `PartialResult::default()` is the merge identity:
/// merging it into anything (or anything into it) is a no-op on the
/// groups and adds zero to every counter.
#[derive(Clone, Debug, Default)]
pub struct PartialResult {
    /// Packed group key -> mergeable aggregation states (key 0 for
    /// ungrouped).
    pub(crate) groups: HashMap<u64, Vec<AggState>>,
    /// Scan counters.
    pub stats: QueryStats,
}

impl PartialResult {
    /// Merges `other` into `self` — the coordinator-side half of the
    /// [`AggState`] merge algebra: group tables union, colliding keys
    /// merge state-by-state.
    pub fn merge(&mut self, other: PartialResult) {
        for (key, states) in other.groups {
            merge_states(&mut self.groups, key, states);
        }
        self.stats.absorb(&other.stats);
    }

    /// Number of groups accumulated so far.
    pub fn group_count(&self) -> usize {
        self.groups.len()
    }
}

/// Scans one brick row-at-a-time (the reference kernel): seeds from
/// the `visibility` bitmap and applies the resolved filters while
/// iterating. Isolation bits are never widened: filters only drop
/// rows.
pub(crate) fn scan_brick_shared(
    brick: &Brick,
    visibility: &Bitmap,
    resolved: &ResolvedQuery,
) -> PartialResult {
    let traversed = visibility.count_ones() as u64;
    let rows = visibility.iter_ones().filter(|&row| {
        resolved
            .filters
            .iter()
            .all(|(dim, coords)| coords.contains(brick.dim_value(*dim, row)))
    });
    let mut result = accumulate(brick, rows, resolved, traversed);
    result.stats.bitmap_scans = 1;
    result
}

/// Row-at-a-time observation of one row into one aggregation's
/// state. `Count` counts the row regardless of metric payload; every
/// other function skips non-numeric cells — a missing metric is
/// absent from the aggregate, never folded in as `0.0`.
#[inline]
fn observe_row(brick: &Brick, func: AggFn, metric: usize, row: usize, state: &mut AggState) {
    match func {
        AggFn::Count => state.observe(0.0),
        _ => {
            if let Some(v) = brick.metric_column(metric).get_numeric(row) {
                state.observe(v);
            }
        }
    }
}

/// The row-at-a-time reference accumulator. `traversed` is the number
/// of rows the caller's iterator walks before dimension filtering
/// (visible rows), reported as `rows_scanned`.
fn accumulate(
    brick: &Brick,
    rows: impl Iterator<Item = usize>,
    resolved: &ResolvedQuery,
    traversed: u64,
) -> PartialResult {
    let mut result = PartialResult {
        stats: QueryStats {
            bricks_scanned: 1,
            rows_scanned: traversed,
            ..Default::default()
        },
        ..Default::default()
    };
    match &resolved.group_by {
        // Ungrouped: accumulate into a flat local vector — no hash
        // lookup per row.
        None => {
            let mut states = agg::init_states(&resolved.aggs);
            for row in rows {
                result.stats.rows_visible += 1;
                for (state, &(func, metric)) in states.iter_mut().zip(&resolved.aggs) {
                    observe_row(brick, func, metric, row, state);
                }
            }
            if result.stats.rows_visible > 0 {
                result.groups.insert(0, states);
            }
        }
        Some(spec) => {
            // Grouped: one packed-key hash lookup per row, with a
            // one-entry cache for runs of identical keys (sorted or
            // clustered data hits it constantly).
            let mut cached: Option<(u64, Vec<AggState>)> = None;
            for row in rows {
                result.stats.rows_visible += 1;
                let key = spec.pack(brick, row);
                let states = match &mut cached {
                    Some((cached_key, states)) if *cached_key == key => states,
                    _ => {
                        if let Some((old_key, old_states)) = cached.take() {
                            merge_states(&mut result.groups, old_key, old_states);
                        }
                        cached = Some((
                            key,
                            result
                                .groups
                                .remove(&key)
                                .unwrap_or_else(|| agg::init_states(&resolved.aggs)),
                        ));
                        &mut cached.as_mut().expect("just set").1
                    }
                };
                for (state, &(func, metric)) in states.iter_mut().zip(&resolved.aggs) {
                    observe_row(brick, func, metric, row, state);
                }
            }
            if let Some((key, states)) = cached.take() {
                merge_states(&mut result.groups, key, states);
            }
        }
    }
    result
}

/// Rows per selection-vector chunk. Small enough that the selection,
/// gathered coordinates, and packed keys all stay cache-resident
/// while a brick is scanned; large enough to amortize per-chunk
/// overhead.
const SCAN_CHUNK: usize = 2048;

/// Cuts a snapshot's visible ranges into the vectorized scan's
/// selection vectors.
struct Selection<'a> {
    ranges: &'a [std::ops::Range<u64>],
    /// The range being cut and the next row to take from it (`0`
    /// until the range is entered).
    idx: usize,
    next: u64,
}

impl Selection<'_> {
    /// Fills `sel` (cleared first) with the next up-to-[`SCAN_CHUNK`]
    /// visible row ids, ascending; `false` once exhausted.
    fn next_chunk(&mut self, sel: &mut Vec<u32>) -> bool {
        sel.clear();
        while sel.len() < SCAN_CHUNK {
            let Some(r) = self.ranges.get(self.idx) else {
                break;
            };
            let start = self.next.max(r.start);
            let take = (r.end - start).min((SCAN_CHUNK - sel.len()) as u64);
            sel.extend((start..start + take).map(|row| row as u32));
            if start + take == r.end {
                self.idx += 1;
                self.next = 0;
            } else {
                self.next = start + take;
            }
        }
        !sel.is_empty()
    }
}

/// Scratch buffers one vectorized brick scan reuses across chunks.
#[derive(Default)]
struct ScanScratch {
    /// Selection vector: row ids surviving visibility (then filters).
    sel: Vec<u32>,
    /// Gathered dimension coordinates (bess bricks, and plain key
    /// packing).
    gathered: Vec<u32>,
    /// Packed group keys, parallel to `sel`.
    keys: Vec<u64>,
}

/// Compacts `sel` in place to the rows `keep` accepts, without a
/// branch per row: every row id is written back and the write index
/// advances by the predicate bit, so a filter that accepts rows in no
/// particular order costs no mispredictions. `keep` gets each row's
/// position in the uncompacted chunk and its id.
#[inline]
fn compact(sel: &mut Vec<u32>, mut keep: impl FnMut(usize, u32) -> bool) {
    let mut kept = 0;
    for i in 0..sel.len() {
        let row = sel[i];
        sel[kept] = row;
        kept += usize::from(keep(i, row));
    }
    sel.truncate(kept);
}

/// Compacts `sel` in place to the rows every filter accepts.
/// Plain-layout dimensions are probed directly through their `u32`
/// column slice; bess-packed dimensions gather the chunk's
/// coordinates into scratch first.
fn apply_filters(
    brick: &Brick,
    filters: &[&(usize, FilterSet)],
    sel: &mut Vec<u32>,
    gathered: &mut Vec<u32>,
) {
    for (dim, coords) in filters.iter().copied() {
        if sel.is_empty() {
            return;
        }
        // The bitset probe is picked once per filter, not per row.
        match (brick.dim_slice(*dim), coords.bitset.as_deref()) {
            (Some(col), Some(words)) => compact(sel, |_, row| bit_set(words, col[row as usize])),
            (Some(col), None) => compact(sel, |_, row| coords.contains(col[row as usize])),
            (None, _) => {
                brick.gather_dim(*dim, sel, gathered);
                compact(sel, |i, _| coords.contains(gathered[i]));
            }
        }
    }
}

/// Packs the group key of every selected row into `keys`, one
/// dimension column at a time (column-major, so each dimension's data
/// streams through cache once per chunk).
fn pack_keys(
    brick: &Brick,
    spec: &GroupSpec,
    sel: &[u32],
    gathered: &mut Vec<u32>,
    keys: &mut Vec<u64>,
) {
    keys.clear();
    keys.resize(sel.len(), 0);
    for &(dim, shift, _) in &spec.dims {
        match brick.dim_slice(dim) {
            Some(col) => {
                for (key, &row) in keys.iter_mut().zip(sel) {
                    *key |= u64::from(col[row as usize]) << shift;
                }
            }
            None => {
                brick.gather_dim(dim, sel, gathered);
                for (key, &coord) in keys.iter_mut().zip(gathered.iter()) {
                    *key |= u64::from(coord) << shift;
                }
            }
        }
    }
}

/// Packed-key width (in bits) up to which grouped vectorized scans
/// accumulate into a dense table indexed by the key itself instead of
/// hashing. 4096 slots × a handful of aggregates stays well inside
/// L2, and the common analytics shapes (one or two low-cardinality
/// group dimensions) all fit; workloads whose adjacent rows alternate
/// groups — where the run cache degenerates to per-row hash traffic —
/// become a bounds-checked array update instead.
const DENSE_GROUP_BITS: u32 = 12;

/// The vectorized brick scan over a snapshot's visible `ranges` (no
/// bitmap is ever materialized): chunked selection vectors, branch-free
/// predicate compaction, fused per-column aggregation, and
/// batch-packed group keys feeding a typed dense group table (small
/// key spaces) or the run-cached hash probe (wide keys). `filters` is
/// the part of the query's filters this brick still needs
/// ([`ResolvedQuery::brick_filters`]). Bit-identical to
/// [`scan_brick_shared`] over the equivalent bitmap and every filter.
pub(crate) fn scan_brick_ranges_vectorized(
    brick: &Brick,
    ranges: &[std::ops::Range<u64>],
    resolved: &ResolvedQuery,
    filters: &[&(usize, FilterSet)],
) -> PartialResult {
    let mut selection = Selection {
        ranges,
        idx: 0,
        next: 0,
    };
    let mut result = PartialResult {
        stats: QueryStats {
            bricks_scanned: 1,
            rows_scanned: ranges.iter().map(|r| r.end - r.start).sum(),
            range_scans: 1,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut scratch = ScanScratch::default();
    match &resolved.group_by {
        None => {
            let mut states = agg::init_states(&resolved.aggs);
            while selection.next_chunk(&mut scratch.sel) {
                apply_filters(brick, filters, &mut scratch.sel, &mut scratch.gathered);
                if scratch.sel.is_empty() {
                    continue;
                }
                result.stats.rows_visible += scratch.sel.len() as u64;
                for (state, &(_, metric)) in states.iter_mut().zip(&resolved.aggs) {
                    state.accumulate_batch(brick, metric, &scratch.sel);
                }
            }
            if result.stats.rows_visible > 0 {
                result.groups.insert(0, states);
            }
        }
        Some(spec) => {
            let total_bits = spec
                .dims
                .iter()
                .map(|&(_, shift, width)| shift + width)
                .max()
                .unwrap_or(0);
            if total_bits <= DENSE_GROUP_BITS {
                // Small packed-key space: skip hashing entirely and
                // index typed per-aggregate columns with the key itself.
                let mut dense = agg::DenseGroups::new(&resolved.aggs, 1 << total_bits);
                while selection.next_chunk(&mut scratch.sel) {
                    apply_filters(brick, filters, &mut scratch.sel, &mut scratch.gathered);
                    if scratch.sel.is_empty() {
                        continue;
                    }
                    result.stats.rows_visible += scratch.sel.len() as u64;
                    pack_keys(
                        brick,
                        spec,
                        &scratch.sel,
                        &mut scratch.gathered,
                        &mut scratch.keys,
                    );
                    dense.accumulate(brick, &resolved.aggs, &scratch.sel, &scratch.keys);
                }
                dense.finish(brick, &resolved.aggs, &mut result.groups);
                return result;
            }
            // Wide keys: keep the reference kernel's one-entry run
            // cache, but feed it whole runs of identical packed keys:
            // group boundaries are found over the batch-packed key
            // vector, and each run goes through the fused kernels as
            // one slice.
            let mut cached: Option<(u64, Vec<AggState>)> = None;
            while selection.next_chunk(&mut scratch.sel) {
                apply_filters(brick, filters, &mut scratch.sel, &mut scratch.gathered);
                if scratch.sel.is_empty() {
                    continue;
                }
                result.stats.rows_visible += scratch.sel.len() as u64;
                pack_keys(
                    brick,
                    spec,
                    &scratch.sel,
                    &mut scratch.gathered,
                    &mut scratch.keys,
                );
                let mut start = 0;
                while start < scratch.sel.len() {
                    let key = scratch.keys[start];
                    let mut end = start + 1;
                    while end < scratch.sel.len() && scratch.keys[end] == key {
                        end += 1;
                    }
                    let states = match &mut cached {
                        Some((cached_key, states)) if *cached_key == key => states,
                        _ => {
                            if let Some((old_key, old_states)) = cached.take() {
                                merge_states(&mut result.groups, old_key, old_states);
                            }
                            cached = Some((
                                key,
                                result
                                    .groups
                                    .remove(&key)
                                    .unwrap_or_else(|| agg::init_states(&resolved.aggs)),
                            ));
                            &mut cached.as_mut().expect("just set").1
                        }
                    };
                    for (state, &(_, metric)) in states.iter_mut().zip(&resolved.aggs) {
                        state.accumulate_batch(brick, metric, &scratch.sel[start..end]);
                    }
                    start = end;
                }
            }
            if let Some((key, states)) = cached.take() {
                merge_states(&mut result.groups, key, states);
            }
        }
    }
    result
}

fn merge_states(groups: &mut HashMap<u64, Vec<AggState>>, key: u64, states: Vec<AggState>) {
    match groups.entry(key) {
        std::collections::hash_map::Entry::Occupied(mut e) => {
            for (mine, theirs) in e.get_mut().iter_mut().zip(&states) {
                mine.merge(theirs);
            }
        }
        std::collections::hash_map::Entry::Vacant(e) => {
            e.insert(states);
        }
    }
}

/// Total ordering for `ORDER BY <agg>` values: NaN (the finalization
/// of an empty-group `Min`/`Max`/`Avg`, i.e. SQL NULL) sorts last in
/// both directions — `desc` reverses only the comparison between
/// non-NaN values. Built on `f64::total_cmp` so the comparator is
/// total even among NaN payloads; `partial_cmp(..).unwrap_or(Equal)`
/// is NOT total under NaN and lets output order drift across merges.
fn cmp_aggs_nan_last(a: f64, b: f64, desc: bool) -> std::cmp::Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => {
            if desc {
                b.total_cmp(&a)
            } else {
                a.total_cmp(&b)
            }
        }
    }
}

fn compare_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        _ => a
            .as_numeric()
            .partial_cmp(&b.as_numeric())
            .unwrap_or(std::cmp::Ordering::Equal),
    }
}

/// A finalized query result.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryResult {
    /// One row per group: the decoded group-key values (one per
    /// group-by dimension, empty for global aggregation) and the
    /// aggregation values in request order.
    pub rows: Vec<(Vec<Value>, Vec<f64>)>,
    /// Scan counters.
    pub stats: QueryStats,
}

impl QueryResult {
    /// Finalizes partial aggregates, decoding group coordinates
    /// through `cube`.
    pub(crate) fn finalize(cube: &Cube, resolved: &ResolvedQuery, partial: PartialResult) -> Self {
        // Deterministic output order: by packed group key.
        let ordered: BTreeMap<u64, Vec<AggState>> = partial.groups.into_iter().collect();
        let mut rows: Vec<(u64, Vec<Value>, Vec<f64>)> = ordered
            .into_iter()
            .map(|(key, states)| {
                let decoded = match &resolved.group_by {
                    Some(spec) => spec
                        .unpack(key)
                        .into_iter()
                        .map(|(dim, coord)| cube.decode_coord(dim, coord))
                        .collect(),
                    None => Vec::new(),
                };
                let values = states.iter().map(|state| state.finalize()).collect();
                (key, decoded, values)
            })
            .collect();
        // HAVING filters *finalized* aggregates — after the merge
        // tree collapses (so a group partially visible in several
        // bricks is judged on its total), before ORDER BY/LIMIT.
        // NaN aggregates (SQL NULL) fail every comparison.
        if let Some(having) = &resolved.having {
            rows.retain(|(_, _, values)| having.op.holds(values[having.agg], having.value));
        }
        if let Some((order, desc)) = &resolved.order_by {
            // Ordering conventions: the comparator itself is reversed
            // for DESC (never `rows.reverse()`, which would flip tie
            // order and make `DESC LIMIT n` keep different tied groups
            // than a descending comparator); ties always break by
            // ascending packed group key; NaN aggregates (empty-group
            // Min/Max/Avg) sort last in BOTH directions, via
            // `f64::total_cmp` so the comparator stays total.
            rows.sort_by(|a, b| {
                let primary = match order {
                    ResolvedOrder::Aggregation(idx) => {
                        cmp_aggs_nan_last(a.2[*idx], b.2[*idx], *desc)
                    }
                    ResolvedOrder::GroupKey(pos) => {
                        let ord = compare_values(&a.1[*pos], &b.1[*pos]);
                        if *desc {
                            ord.reverse()
                        } else {
                            ord
                        }
                    }
                };
                primary.then(a.0.cmp(&b.0))
            });
        }
        if let Some(limit) = resolved.limit {
            rows.truncate(limit);
        }
        QueryResult {
            rows: rows.into_iter().map(|(_, k, v)| (k, v)).collect(),
            stats: partial.stats,
        }
    }

    /// The single value of an ungrouped single-aggregation query.
    pub fn scalar(&self) -> Option<f64> {
        match self.rows.as_slice() {
            [(keys, values)] if keys.is_empty() && values.len() == 1 => Some(values[0]),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ddl::{CubeSchema, Dimension, Metric};
    use crate::ingest::RecordChunk;
    use aosi::Snapshot;
    use columnar::Column;
    use obs::sync::unpoison;

    fn cube() -> Cube {
        Cube::new(
            CubeSchema::new(
                "t",
                vec![
                    Dimension::string("region", 4, 2),
                    Dimension::int("day", 8, 4),
                ],
                vec![Metric::int("likes"), Metric::float("score")],
            )
            .unwrap(),
        )
    }

    fn brick_with_data(cube: &Cube) -> Brick {
        // Encode us=0, br=1.
        let dict = cube.dictionaries()[0].as_ref().unwrap();
        unpoison(dict.lock()).encode("us");
        unpoison(dict.lock()).encode("br");
        let mut brick = Brick::new(cube.schema());
        let recs = vec![
            (vec![0, 0], vec![Value::I64(10), Value::F64(1.0)]),
            (vec![1, 1], vec![Value::I64(20), Value::F64(2.0)]),
            (vec![0, 2], vec![Value::I64(30), Value::F64(3.0)]),
        ];
        brick.append(1, &RecordChunk::from_rows(&recs));
        brick
    }

    fn resolved(cube: &Cube, q: &Query) -> ResolvedQuery {
        ResolvedQuery::resolve(cube, q).unwrap()
    }

    /// The vectorized kernel probing every filter of the query (no
    /// per-brick elision).
    fn vectorized(
        brick: &Brick,
        ranges: &[std::ops::Range<u64>],
        r: &ResolvedQuery,
    ) -> PartialResult {
        let filters: Vec<_> = r.filters.iter().collect();
        scan_brick_ranges_vectorized(brick, ranges, r, &filters)
    }

    #[test]
    fn global_sum_and_count() {
        let cube = cube();
        let brick = brick_with_data(&cube);
        let q = Query::aggregate(vec![
            Aggregation::new(AggFn::Sum, "likes"),
            Aggregation::new(AggFn::Count, "likes"),
            Aggregation::new(AggFn::Avg, "score"),
        ]);
        let r = resolved(&cube, &q);
        let partial = scan_brick_shared(&brick, &brick.visibility(&Snapshot::committed(1)), &r);
        let result = QueryResult::finalize(&cube, &r, partial);
        assert_eq!(result.rows.len(), 1);
        let (key, values) = &result.rows[0];
        assert!(key.is_empty());
        assert_eq!(values[0], 60.0);
        assert_eq!(values[1], 3.0);
        assert_eq!(values[2], 2.0);
        assert_eq!(result.stats.rows_visible, 3);
    }

    #[test]
    fn filter_restricts_rows() {
        let cube = cube();
        let brick = brick_with_data(&cube);
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")])
            .filter(DimFilter::new("region", vec![Value::from("us")]));
        let r = resolved(&cube, &q);
        let partial = scan_brick_shared(&brick, &brick.visibility(&Snapshot::committed(1)), &r);
        let result = QueryResult::finalize(&cube, &r, partial);
        assert_eq!(result.scalar(), Some(40.0));
        assert_eq!(result.stats.rows_visible, 2);
    }

    #[test]
    fn unknown_filter_value_matches_nothing() {
        let cube = cube();
        let brick = brick_with_data(&cube);
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Count, "likes")])
            .filter(DimFilter::new("region", vec![Value::from("atlantis")]));
        let r = resolved(&cube, &q);
        let partial = scan_brick_shared(&brick, &brick.visibility(&Snapshot::committed(1)), &r);
        assert_eq!(partial.stats.rows_visible, 0);
    }

    #[test]
    fn group_by_decodes_keys_in_order() {
        let cube = cube();
        let brick = brick_with_data(&cube);
        let q = Query::aggregate(vec![
            Aggregation::new(AggFn::Sum, "likes"),
            Aggregation::new(AggFn::Min, "score"),
            Aggregation::new(AggFn::Max, "score"),
        ])
        .grouped_by("region");
        let r = resolved(&cube, &q);
        let partial = scan_brick_shared(&brick, &brick.visibility(&Snapshot::committed(1)), &r);
        let result = QueryResult::finalize(&cube, &r, partial);
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.rows[0].0, vec![Value::Str("us".into())]);
        assert_eq!(result.rows[0].1, vec![40.0, 1.0, 3.0]);
        assert_eq!(result.rows[1].0, vec![Value::Str("br".into())]);
        assert_eq!(result.rows[1].1, vec![20.0, 2.0, 2.0]);
    }

    #[test]
    fn multi_dimension_group_by_packs_and_decodes() {
        let cube = cube();
        let brick = brick_with_data(&cube);
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")])
            .grouped_by("region")
            .grouped_by("day");
        let r = resolved(&cube, &q);
        let partial = scan_brick_shared(&brick, &brick.visibility(&Snapshot::committed(1)), &r);
        let result = QueryResult::finalize(&cube, &r, partial);
        // Three rows, three distinct (region, day) pairs.
        assert_eq!(result.rows.len(), 3);
        let find = |region: &str, day: i64| {
            result
                .rows
                .iter()
                .find(|(k, _)| k[0] == Value::Str(region.into()) && k[1] == Value::I64(day))
                .map(|(_, v)| v[0])
        };
        assert_eq!(find("us", 0), Some(10.0));
        assert_eq!(find("br", 1), Some(20.0));
        assert_eq!(find("us", 2), Some(30.0));
    }

    #[test]
    fn group_key_too_wide_is_rejected() {
        let cube = Cube::new(
            CubeSchema::new(
                "wide",
                vec![
                    Dimension::int("a", u32::MAX, 1 << 20),
                    Dimension::int("b", u32::MAX, 1 << 20),
                    Dimension::int("c", 4, 1),
                ],
                vec![Metric::int("m")],
            )
            .unwrap(),
        );
        // 32 + 32 + 2 = 66 bits > 64.
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "m")])
            .grouped_by("a")
            .grouped_by("b")
            .grouped_by("c");
        assert!(matches!(
            ResolvedQuery::resolve(&cube, &q),
            Err(CubrickError::GroupKeyTooWide { bits: 66, .. })
        ));
        // 64 bits exactly is fine.
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "m")])
            .grouped_by("a")
            .grouped_by("b");
        assert!(ResolvedQuery::resolve(&cube, &q).is_ok());
    }

    #[test]
    fn order_by_and_limit_shape_results() {
        let cube = cube();
        let brick = brick_with_data(&cube);
        // Top groups by sum(likes), descending, limited to 2.
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")])
            .grouped_by("day")
            .ordered_by(OrderBy::Aggregation(0), true)
            .limited(2);
        let r = resolved(&cube, &q);
        let partial = scan_brick_shared(&brick, &brick.visibility(&Snapshot::committed(1)), &r);
        let result = QueryResult::finalize(&cube, &r, partial);
        assert_eq!(result.rows.len(), 2);
        assert_eq!(result.rows[0].1[0], 30.0, "largest sum first");
        assert_eq!(result.rows[1].1[0], 20.0);

        // Ascending by dimension value.
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")])
            .grouped_by("day")
            .ordered_by(OrderBy::Dimension("day".into()), false);
        let r = resolved(&cube, &q);
        let partial = scan_brick_shared(&brick, &brick.visibility(&Snapshot::committed(1)), &r);
        let result = QueryResult::finalize(&cube, &r, partial);
        let days: Vec<String> = result.rows.iter().map(|(k, _)| k[0].to_string()).collect();
        assert_eq!(days, vec!["0", "1", "2"]);
    }

    #[test]
    fn order_by_validation() {
        let cube = cube();
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")])
            .ordered_by(OrderBy::Aggregation(5), false);
        assert!(matches!(
            ResolvedQuery::resolve(&cube, &q),
            Err(CubrickError::UnknownColumn(_))
        ));
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")])
            .grouped_by("region")
            .ordered_by(OrderBy::Dimension("day".into()), false);
        assert!(matches!(
            ResolvedQuery::resolve(&cube, &q),
            Err(CubrickError::UnknownColumn(_))
        ));
    }

    #[test]
    fn visibility_bitmap_gates_the_scan() {
        let cube = cube();
        let mut brick = brick_with_data(&cube);
        brick.append(
            3,
            &RecordChunk::from_rows(&[(vec![0, 0], vec![Value::I64(1000), Value::F64(0.0)])]),
        );
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]);
        let r = resolved(&cube, &q);
        // Snapshot at epoch 1 must not see T3's row...
        let partial = scan_brick_shared(&brick, &brick.visibility(&Snapshot::committed(1)), &r);
        assert_eq!(
            QueryResult::finalize(&cube, &r, partial).scalar(),
            Some(60.0)
        );
        // ...while read-uncommitted sees it.
        let partial = scan_brick_shared(&brick, &brick.all_rows(), &r);
        assert_eq!(
            QueryResult::finalize(&cube, &r, partial).scalar(),
            Some(1060.0)
        );
    }

    #[test]
    fn merge_combines_partials() {
        let cube = cube();
        let brick = brick_with_data(&cube);
        let q = Query::aggregate(vec![
            Aggregation::new(AggFn::Sum, "likes"),
            Aggregation::new(AggFn::Min, "likes"),
        ])
        .grouped_by("region");
        let r = resolved(&cube, &q);
        let snap = Snapshot::committed(1);
        let mut a = scan_brick_shared(&brick, &brick.visibility(&snap), &r);
        let b = scan_brick_shared(&brick, &brick.visibility(&snap), &r);
        a.merge(b);
        let result = QueryResult::finalize(&cube, &r, a);
        assert_eq!(result.rows[0].1, vec![80.0, 10.0], "sums add, mins hold");
        assert_eq!(result.stats.bricks_scanned, 2);
        assert_eq!(result.stats.rows_visible, 6);
    }

    #[test]
    fn stats_record_which_scan_path_ran() {
        let cube = cube();
        let brick = brick_with_data(&cube);
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Count, "likes")]);
        let r = resolved(&cube, &q);
        let snap = Snapshot::committed(1);
        let via_bitmap = scan_brick_shared(&brick, &brick.visibility(&snap), &r);
        assert_eq!(via_bitmap.stats.bitmap_scans, 1);
        assert_eq!(via_bitmap.stats.range_scans, 0);
        let ranges = brick.epochs().visible_ranges(&snap);
        let mut via_ranges = vectorized(&brick, &ranges, &r);
        assert_eq!(via_ranges.stats.range_scans, 1);
        assert_eq!(via_ranges.stats.bitmap_scans, 0);
        via_ranges.merge(via_bitmap);
        assert_eq!(via_ranges.stats.range_scans, 1);
        assert_eq!(via_ranges.stats.bitmap_scans, 1);
        assert_eq!(via_ranges.stats.bricks_scanned, 2);
        assert_eq!(via_ranges.stats.rows_visible, 6);
    }

    #[test]
    fn brick_pruning_by_filter_range() {
        let cube = cube();
        // day=5 lives in day-range 1; a filter on day=1 (range 0) can
        // prune any brick in day-range 1.
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Count, "likes")])
            .filter(DimFilter::new("day", vec![Value::from(1i64)]));
        let r = resolved(&cube, &q);
        let bid_day0 = cube.layout().bid_for_coords(&[0, 1]);
        let bid_day1 = cube.layout().bid_for_coords(&[0, 5]);
        assert_eq!(r.brick_filters(&cube, bid_day0).map(|f| f.len()), Some(1));
        assert!(r.brick_filters(&cube, bid_day1).is_none());
    }

    #[test]
    fn unknown_columns_error() {
        let cube = cube();
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "nope")]);
        assert!(matches!(
            ResolvedQuery::resolve(&cube, &q),
            Err(CubrickError::UnknownColumn(_))
        ));
        let q = Query::default().filter(DimFilter::new("nope", vec![]));
        assert!(matches!(
            ResolvedQuery::resolve(&cube, &q),
            Err(CubrickError::UnknownColumn(_))
        ));
        let q = Query::default().grouped_by("nope");
        assert!(matches!(
            ResolvedQuery::resolve(&cube, &q),
            Err(CubrickError::UnknownColumn(_))
        ));
    }

    #[test]
    fn scalar_on_empty_result_is_none() {
        let cube = cube();
        let brick = Brick::new(cube.schema());
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")]);
        let r = resolved(&cube, &q);
        let partial = scan_brick_shared(&brick, &brick.visibility(&Snapshot::committed(1)), &r);
        let result = QueryResult::finalize(&cube, &r, partial);
        assert_eq!(result.scalar(), None);
    }

    /// Bit-for-bit comparison: keys equal, aggregate values equal by
    /// `f64::to_bits` (no epsilon — the kernels must perform the same
    /// float operation sequence).
    fn assert_bits_identical(a: &QueryResult, b: &QueryResult, context: &str) {
        assert_eq!(a.rows.len(), b.rows.len(), "{context}: row count");
        for (i, ((ka, va), (kb, vb))) in a.rows.iter().zip(&b.rows).enumerate() {
            assert_eq!(ka, kb, "{context}: key of row {i}");
            let bits_a: Vec<u64> = va.iter().map(|v| v.to_bits()).collect();
            let bits_b: Vec<u64> = vb.iter().map(|v| v.to_bits()).collect();
            assert_eq!(
                bits_a, bits_b,
                "{context}: values of row {i} ({va:?} vs {vb:?})"
            );
        }
    }

    /// `n` deterministic records, varied by `seed`.
    fn records(seed: i64, n: i64) -> RecordChunk {
        let rows: Vec<_> = (0..n)
            .map(|k| {
                let i = k + seed * 17;
                (
                    vec![(i % 3) as u32, (i % 8) as u32],
                    vec![Value::I64(i * 3 - 40), Value::F64(i as f64 * 0.25 - 7.0)],
                )
            })
            .collect();
        RecordChunk::from_rows(&rows)
    }

    fn encode_regions(cube: &Cube) {
        let dict = cube.dictionaries()[0].as_ref().unwrap();
        for region in ["us", "br", "mx"] {
            unpoison(dict.lock()).encode(region);
        }
    }

    /// A brick big enough that selection vectors cross the
    /// `SCAN_CHUNK` boundary, with three epochs so a snapshot can
    /// leave a suffix invisible, built on either dimension layout.
    fn big_brick(cube: &Cube, storage: crate::brick::DimStorage) -> Brick {
        encode_regions(cube);
        let mut brick = Brick::with_storage(cube.schema(), storage);
        for epoch in 1..=3u64 {
            brick.append(epoch, &records(epoch as i64, 1500));
        }
        brick
    }

    /// A brick whose history exercises every visibility rule at once:
    ///
    /// ```text
    /// rows    0..1500  T1      1500..1800  T2      1800..2200  T4
    ///         T4 deletes the partition at row 2200
    ///      2200..2300  T4      2300..2800  T5      2800..5800  T6
    /// ```
    ///
    /// A reader that sees T4's delete loses T1, T2 and T4's own rows
    /// below the delete point but keeps T4's rows above it (the
    /// dominant-delete cut falls inside T4's rows); with T5 in its
    /// deps it skips 2300..2800, so its first selection chunk is
    /// 2200..2300 plus the head of T6's run, which straddles the
    /// `SCAN_CHUNK` boundary.
    fn history_brick(cube: &Cube, storage: crate::brick::DimStorage) -> Brick {
        encode_regions(cube);
        let mut brick = Brick::with_storage(cube.schema(), storage);
        brick.append(1, &records(1, 1500));
        brick.append(2, &records(2, 300));
        brick.append(4, &records(3, 400));
        brick.mark_delete(4);
        brick.append(4, &records(4, 100));
        brick.append(5, &records(5, 500));
        brick.append(6, &records(6, 3000));
        brick
    }

    /// Every query shape the executor supports, including filters
    /// that match nothing and order/limit over multi-dimension
    /// groups.
    fn differential_battery() -> Vec<Query> {
        vec![
            Query::aggregate(vec![
                Aggregation::new(AggFn::Sum, "likes"),
                Aggregation::new(AggFn::Count, "likes"),
                Aggregation::new(AggFn::Avg, "score"),
                Aggregation::new(AggFn::Min, "score"),
                Aggregation::new(AggFn::Max, "likes"),
            ]),
            Query::aggregate(vec![
                Aggregation::new(AggFn::Sum, "likes"),
                Aggregation::new(AggFn::Avg, "score"),
            ])
            .filter(DimFilter::new(
                "region",
                vec![Value::from("us"), Value::from("mx")],
            ))
            .grouped_by("day"),
            Query::aggregate(vec![
                Aggregation::new(AggFn::Sum, "score"),
                Aggregation::new(AggFn::Min, "likes"),
            ])
            .filter(DimFilter::new(
                "day",
                vec![Value::from(1i64), Value::from(3i64), Value::from(5i64)],
            ))
            .grouped_by("region")
            .grouped_by("day")
            .ordered_by(OrderBy::Aggregation(0), true)
            .limited(4),
            Query::aggregate(vec![Aggregation::new(AggFn::Count, "likes")])
                .filter(DimFilter::new("region", vec![Value::from("atlantis")])),
            Query::aggregate(vec![Aggregation::new(AggFn::Max, "score")])
                .grouped_by("day")
                .ordered_by(OrderBy::Dimension("day".into()), false),
            Query::aggregate(vec![Aggregation::new(AggFn::Sum, "score")])
                .grouped_by("region")
                .grouped_by("day")
                .ordered_by(OrderBy::Aggregation(0), true)
                .limited(5),
        ]
    }

    /// The kernel differential: the vectorized kernel over
    /// `visible_ranges` against the row-at-a-time reference over
    /// `visible_bitmap` — two independent visibility derivations and
    /// two independent kernels — for the whole battery (filtered and
    /// unfiltered), both dimension layouts, and snapshots on every
    /// side of [`history_brick`]'s delete and deps-excluded epoch.
    #[test]
    fn vectorized_ranges_kernel_matches_bitmap_reference_bit_for_bit() {
        let snapshots = [
            Snapshot::committed(3),
            Snapshot::new(6, [5].into_iter().collect()),
            Snapshot::committed(6),
        ];
        for storage in [
            crate::brick::DimStorage::Plain,
            crate::brick::DimStorage::Bess,
        ] {
            let cube = cube();
            let brick = history_brick(&cube, storage);
            for snap in &snapshots {
                let vis = brick.visibility(snap);
                let ranges = brick.epochs().visible_ranges(snap);
                for (qi, q) in differential_battery().iter().enumerate() {
                    let context = format!("query {qi} ({storage:?}, {snap:?})");
                    let r = resolved(&cube, q);
                    let reference = scan_brick_shared(&brick, &vis, &r);
                    let fast = vectorized(&brick, &ranges, &r);
                    assert_eq!(
                        reference.stats.rows_scanned, fast.stats.rows_scanned,
                        "{context}: rows_scanned"
                    );
                    assert_eq!(
                        reference.stats.rows_visible, fast.stats.rows_visible,
                        "{context}: rows_visible"
                    );
                    assert_bits_identical(
                        &QueryResult::finalize(&cube, &r, reference),
                        &QueryResult::finalize(&cube, &r, fast),
                        &context,
                    );
                }
            }
        }
        // The history is what the doc comment says it is.
        let cube = cube();
        let brick = history_brick(&cube, crate::brick::DimStorage::Plain);
        assert_eq!(brick.epochs().visible_ranges(&snapshots[0]), vec![0..1800]);
        assert_eq!(
            brick.epochs().visible_ranges(&snapshots[1]),
            vec![2200..2300, 2800..5800]
        );
        assert_eq!(
            brick.epochs().visible_ranges(&snapshots[2]),
            vec![2200..5800]
        );
    }

    #[test]
    fn ranges_selection_chunks_and_resumes_across_boundaries() {
        let cube = cube();
        let brick = big_brick(&cube, crate::brick::DimStorage::Plain);
        // Hand-crafted ranges: an empty range, a gap, a range crossing
        // the SCAN_CHUNK boundary mid-way, and a tail chunk.
        let ranges = vec![0..1, 1..1, 3..700, 2040..2060, 4000..4500];
        let expected_rows: u64 = ranges.iter().map(|r| r.end - r.start).sum();
        let q = Query::aggregate(vec![
            Aggregation::new(AggFn::Sum, "likes"),
            Aggregation::new(AggFn::Avg, "score"),
        ])
        .grouped_by("region");
        let r = resolved(&cube, &q);
        let mut vis = Bitmap::new(brick.row_count() as usize);
        for range in &ranges {
            vis.set_range(range.start as usize, range.end as usize);
        }
        let reference = scan_brick_shared(&brick, &vis, &r);
        let fast = vectorized(&brick, &ranges, &r);
        assert_eq!(reference.stats.rows_scanned, expected_rows);
        assert_eq!(fast.stats.rows_scanned, expected_rows);
        assert_bits_identical(
            &QueryResult::finalize(&cube, &r, reference),
            &QueryResult::finalize(&cube, &r, fast),
            "hand-crafted ranges",
        );
    }

    /// Regression (bug 2): rows whose metric cell is not numeric must
    /// be skipped by Sum/Min/Max/Avg — not coerced to `0.0` — while
    /// Count still counts the row. Before the fix `get_numeric(row)
    /// .unwrap_or(0.0)` fed phantom zeros into every accumulator. The
    /// grouped query pins the vectorized kernel's dense group table,
    /// whose per-key row count must not leak into AVG's count or
    /// MIN/MAX's `seen` of a non-numeric column.
    #[test]
    fn non_numeric_metric_cells_are_skipped_not_zeroed() {
        let cube = cube();
        let mut brick = brick_with_data(&cube);
        // The schema cannot produce a non-numeric metric cell, so
        // inject one: replace "score" with a dictionary-id column.
        brick.replace_metric_for_test(1, Column::Str(vec![0, 1, 2]));
        let ungrouped = Query::aggregate(vec![
            Aggregation::new(AggFn::Count, "score"),
            Aggregation::new(AggFn::Sum, "score"),
            Aggregation::new(AggFn::Min, "score"),
            Aggregation::new(AggFn::Max, "score"),
            Aggregation::new(AggFn::Avg, "score"),
            Aggregation::new(AggFn::Avg, "likes"),
        ]);
        // Rows: (us, 10), (br, 20), (us, 30).
        let grouped = ungrouped.clone().grouped_by("region");
        let snap = Snapshot::committed(1);
        let ranges = brick.epochs().visible_ranges(&snap);
        for (q, counts) in [(ungrouped, vec![3.0]), (grouped, vec![2.0, 1.0])] {
            let r = resolved(&cube, &q);
            let partials = [
                (
                    "reference",
                    scan_brick_shared(&brick, &brick.visibility(&snap), &r),
                ),
                ("vectorized", vectorized(&brick, &ranges, &r)),
            ];
            for (kernel, partial) in partials {
                let kernel = format!("{kernel}, {} groups", counts.len());
                for states in partial.groups.values() {
                    assert!(
                        matches!(states[4], AggState::Avg { count: 0, .. }),
                        "{kernel}: Avg observed a non-numeric cell: {:?}",
                        states[4]
                    );
                }
                let result = QueryResult::finalize(&cube, &r, partial);
                assert_eq!(result.rows.len(), counts.len(), "{kernel}: groups");
                for ((_, v), &count) in result.rows.iter().zip(&counts) {
                    assert_eq!(v[0], count, "{kernel}: Count counts rows");
                    assert_eq!(v[1], 0.0, "{kernel}: Sum over no numeric cells");
                    // Min/Max over zero numeric observations finalize
                    // to NaN (SQL NULL) like Avg — the `±INFINITY` fold
                    // identities must never leak to the result surface
                    // (they are not representable in JSON and are
                    // indistinguishable from a genuinely infinite
                    // metric).
                    assert!(v[2].is_nan(), "{kernel}: Min saw no value, got {}", v[2]);
                    assert!(v[3].is_nan(), "{kernel}: Max saw no value, got {}", v[3]);
                    assert!(
                        v[4].is_nan(),
                        "{kernel}: Avg of nothing is NaN, got {}",
                        v[4]
                    );
                    assert_eq!(v[5], 20.0, "{kernel}: Avg of the numeric column");
                }
            }
        }
    }

    /// Regression: `ORDER BY <agg>` must use a *total* comparator
    /// with NaN sorting last in both directions. Before the fix the
    /// comparator was `partial_cmp(..).unwrap_or(Equal)`, which under
    /// a NaN aggregate (e.g. `Avg` of a group with no numeric cells)
    /// is non-total: the NaN row compares Equal to everything and
    /// stays wherever the pre-sort packed-key order left it — here,
    /// first — instead of sorting last.
    #[test]
    fn order_by_agg_puts_nan_last_in_both_directions() {
        let cube = cube();
        let dict = cube.dictionaries()[0].as_ref().unwrap();
        unpoison(dict.lock()).encode("us");
        let mut brick = Brick::new(cube.schema());
        // day=0 carries a literal NaN score (so its Avg is NaN) and
        // owns the smallest packed group key: pre-fix, the ascending
        // stable sort leaves it FIRST (NaN compares Equal to
        // everything under `partial_cmp(..).unwrap_or(Equal)`, and
        // the pre-sort BTreeMap order is by packed key).
        let scores = [f64::NAN, 5.0, 1.0];
        let recs: Vec<(Vec<u32>, Vec<Value>)> = scores
            .iter()
            .enumerate()
            .map(|(day, &score)| (vec![0, day as u32], vec![Value::I64(1), Value::F64(score)]))
            .collect();
        brick.append(1, &RecordChunk::from_rows(&recs));
        for desc in [false, true] {
            let q = Query::aggregate(vec![Aggregation::new(AggFn::Avg, "score")])
                .grouped_by("day")
                .ordered_by(OrderBy::Aggregation(0), desc);
            let r = resolved(&cube, &q);
            let partial = scan_brick_shared(&brick, &brick.visibility(&Snapshot::committed(1)), &r);
            let result = QueryResult::finalize(&cube, &r, partial);
            assert_eq!(result.rows.len(), 3);
            let aggs: Vec<f64> = result.rows.iter().map(|(_, v)| v[0]).collect();
            assert!(
                aggs[2].is_nan(),
                "desc={desc}: NaN group must sort last, got {aggs:?}"
            );
            let numeric: Vec<f64> = aggs[..2].to_vec();
            let expected = if desc { vec![5.0, 1.0] } else { vec![1.0, 5.0] };
            assert_eq!(numeric, expected, "desc={desc}: non-NaN prefix order");
        }
    }

    /// Regression: `DESC` must reverse the *comparator*, not the
    /// sorted rows. Before the fix, DESC was a stable ascending sort
    /// followed by `rows.reverse()` — which also reverses the order
    /// of tied groups, so `ORDER BY .. DESC LIMIT n` kept the
    /// highest-keyed tied groups instead of the lowest-keyed ones.
    /// Ties must break by ascending packed group key regardless of
    /// direction.
    #[test]
    fn desc_ties_break_by_ascending_group_key_under_limit() {
        let cube = cube();
        let dict = cube.dictionaries()[0].as_ref().unwrap();
        unpoison(dict.lock()).encode("us");
        let mut brick = Brick::new(cube.schema());
        // Four day groups, all with sum(likes) == 7 (tied).
        let recs: Vec<(Vec<u32>, Vec<Value>)> = (0..4u32)
            .map(|day| (vec![0, day], vec![Value::I64(7), Value::F64(0.0)]))
            .collect();
        brick.append(1, &RecordChunk::from_rows(&recs));
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")])
            .grouped_by("day")
            .ordered_by(OrderBy::Aggregation(0), true)
            .limited(2);
        let r = resolved(&cube, &q);
        let partial = scan_brick_shared(&brick, &brick.visibility(&Snapshot::committed(1)), &r);
        let result = QueryResult::finalize(&cube, &r, partial);
        let days: Vec<Value> = result.rows.iter().map(|(k, _)| k[0].clone()).collect();
        // Pre-fix: reverse() emitted days [3, 2]. The descending
        // comparator with ascending-key tie-break keeps [0, 1].
        assert_eq!(days, vec![Value::I64(0), Value::I64(1)]);
        assert_eq!(result.rows[0].1[0], 7.0);
    }

    /// Regression (bug 3): `rows_scanned` is the number of rows the
    /// kernel actually traversed pre-filter, not the brick's physical
    /// row count — a historical snapshot that hides a suffix must not
    /// inflate the stat.
    #[test]
    fn rows_scanned_reports_traversed_rows_on_both_paths() {
        let cube = cube();
        let mut brick = brick_with_data(&cube);
        brick.append(
            3,
            &RecordChunk::from_rows(&[(vec![1, 4], vec![Value::I64(999), Value::F64(9.9)])]),
        );
        assert_eq!(brick.row_count(), 4);
        let snap = Snapshot::committed(1);
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Count, "likes")]);
        let r = resolved(&cube, &q);
        let vis = brick.visibility(&snap);
        let ranges = brick.epochs().visible_ranges(&snap);
        assert_eq!(scan_brick_shared(&brick, &vis, &r).stats.rows_scanned, 3);
        assert_eq!(vectorized(&brick, &ranges, &r).stats.rows_scanned, 3);
    }

    #[test]
    fn filter_set_membership_ranges_and_coverage() {
        let small = FilterSet::from_coords([5u32, 1, 3, 3]);
        assert!(small.bitset.is_some(), "small ids get a dense bitset");
        assert!(small.contains(1) && small.contains(3) && small.contains(5));
        assert!(!small.contains(0) && !small.contains(2) && !small.contains(4));
        assert!(!small.contains(1_000_000), "probe past the bitset");
        assert_eq!(small.count_in_range(4, 6), 1);
        assert_eq!(small.count_in_range(1, 6), 3);
        assert_eq!(small.count_in_range(6, u32::MAX), 0);
        assert!(!small.covers_all(6));

        let big = FilterSet::from_coords([FILTER_BITSET_MAX + 7, 2]);
        assert!(big.bitset.is_none(), "large ids fall back to binary search");
        assert!(big.contains(FILTER_BITSET_MAX + 7) && big.contains(2));
        assert!(!big.contains(3));

        let full = FilterSet::from_coords(0..4u32);
        assert!(full.covers_all(4));
        assert!(!full.covers_all(5));

        let empty = FilterSet::from_coords(std::iter::empty::<u32>());
        assert!(!empty.contains(0));
        assert_eq!(empty.count_in_range(0, u32::MAX), 0);
    }

    /// A naive row-model reference for GROUP BY + HAVING: walks the
    /// visible rows in order, groups them by raw coordinate vectors,
    /// computes each aggregate by folding observed values in row
    /// order (the same f64 operation sequence as the kernels), and
    /// applies HAVING on the finalized values. Returns rows sorted by
    /// the engine's packed-key order.
    fn naive_group_having(
        cube: &Cube,
        brick: &Brick,
        vis: &Bitmap,
        resolved: &ResolvedQuery,
    ) -> Vec<(Vec<Value>, Vec<f64>)> {
        let spec = resolved.group_by.as_ref().expect("grouped query");
        let mut groups: BTreeMap<u64, Vec<Vec<f64>>> = BTreeMap::new();
        let mut counts: BTreeMap<u64, u64> = BTreeMap::new();
        for row in vis.iter_ones() {
            if !resolved
                .filters
                .iter()
                .all(|(dim, coords)| coords.contains(brick.dim_value(*dim, row)))
            {
                continue;
            }
            let key = spec.pack(brick, row);
            let observed = groups
                .entry(key)
                .or_insert_with(|| vec![Vec::new(); resolved.aggs.len()]);
            *counts.entry(key).or_insert(0) += 1;
            for (values, &(_, metric)) in observed.iter_mut().zip(&resolved.aggs) {
                if let Some(v) = brick.metric_column(metric).get_numeric(row) {
                    values.push(v);
                }
            }
        }
        let mut rows: Vec<(Vec<Value>, Vec<f64>)> = Vec::new();
        for (key, observed) in groups {
            let finalized: Vec<f64> = observed
                .iter()
                .zip(&resolved.aggs)
                .map(|(values, &(func, _))| match func {
                    AggFn::Count => counts[&key] as f64,
                    AggFn::Sum => values.iter().fold(0.0, |s, &v| s + v),
                    AggFn::Min => {
                        if values.is_empty() {
                            f64::NAN
                        } else {
                            values.iter().fold(f64::INFINITY, |m, &v| m.min(v))
                        }
                    }
                    AggFn::Max => {
                        if values.is_empty() {
                            f64::NAN
                        } else {
                            values.iter().fold(f64::NEG_INFINITY, |m, &v| m.max(v))
                        }
                    }
                    AggFn::Avg => {
                        if values.is_empty() {
                            f64::NAN
                        } else {
                            values.iter().fold(0.0, |s, &v| s + v) / values.len() as f64
                        }
                    }
                })
                .collect();
            if let Some(h) = &resolved.having {
                if !h.op.holds(finalized[h.agg], h.value) {
                    continue;
                }
            }
            let decoded = spec
                .unpack(key)
                .into_iter()
                .map(|(dim, coord)| cube.decode_coord(dim, coord))
                .collect();
            rows.push((decoded, finalized));
        }
        rows
    }

    /// Differential: GROUP BY + HAVING through both kernels must
    /// match the naive row model bit-for-bit, for every comparison
    /// operator, including thresholds that keep all, some, or no
    /// groups (the empty-result edge).
    #[test]
    fn group_by_having_matches_naive_row_model() {
        for storage in [
            crate::brick::DimStorage::Plain,
            crate::brick::DimStorage::Bess,
        ] {
            let cube = cube();
            let brick = big_brick(&cube, storage);
            let vis = brick.visibility(&Snapshot::committed(2));
            let ranges = brick.epochs().visible_ranges(&Snapshot::committed(2));
            let cases: Vec<(CmpOp, f64)> = vec![
                (CmpOp::Gt, 10_000.0),
                (CmpOp::Ge, 0.0),
                (CmpOp::Lt, -1e18),  // drops every group
                (CmpOp::Le, 1e18),   // keeps every group
                (CmpOp::Eq, 1000.0), // unlikely exact hit
                (CmpOp::Ne, 1000.0),
            ];
            for (op, value) in cases {
                for agg_idx in [0usize, 1] {
                    let q = Query::aggregate(vec![
                        Aggregation::new(AggFn::Sum, "likes"),
                        Aggregation::new(AggFn::Avg, "score"),
                        Aggregation::new(AggFn::Count, "likes"),
                    ])
                    .filter(DimFilter::new(
                        "region",
                        vec![Value::from("us"), Value::from("br")],
                    ))
                    .grouped_by("region")
                    .grouped_by("day")
                    .having(agg_idx, op, value);
                    let r = resolved(&cube, &q);
                    let naive = naive_group_having(&cube, &brick, &vis, &r);
                    for (kernel, partial) in [
                        ("reference", scan_brick_shared(&brick, &vis, &r)),
                        ("vectorized", vectorized(&brick, &ranges, &r)),
                    ] {
                        let result = QueryResult::finalize(&cube, &r, partial);
                        let context =
                            format!("{storage:?}/{kernel}: HAVING #{agg_idx} {op:?} {value}");
                        assert_eq!(result.rows.len(), naive.len(), "{context}: group count");
                        for (i, ((ek, ev), (nk, nv))) in result.rows.iter().zip(&naive).enumerate()
                        {
                            assert_eq!(ek, nk, "{context}: key of row {i}");
                            let eb: Vec<u64> = ev.iter().map(|v| v.to_bits()).collect();
                            let nb: Vec<u64> = nv.iter().map(|v| v.to_bits()).collect();
                            assert_eq!(eb, nb, "{context}: values of row {i}");
                        }
                    }
                }
            }
        }
    }

    /// HAVING on NaN-finalized aggregates (all-NULL metric groups):
    /// NULL fails every comparison, `Ne` included — three-valued SQL
    /// logic — so a HAVING on the NaN aggregate drops every group,
    /// while the same groups survive a HAVING on a non-NULL one.
    #[test]
    fn having_on_nan_finalized_aggregates_drops_groups() {
        let cube = cube();
        let mut brick = brick_with_data(&cube);
        // Make every `score` cell non-numeric: Min/Max/Avg(score)
        // finalize to NaN in every group.
        brick.replace_metric_for_test(1, Column::Str(vec![0, 1, 2]));
        let vis = brick.visibility(&Snapshot::committed(1));
        let ranges = brick.epochs().visible_ranges(&Snapshot::committed(1));
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            let q = Query::aggregate(vec![
                Aggregation::new(AggFn::Avg, "score"),
                Aggregation::new(AggFn::Count, "likes"),
            ])
            .grouped_by("region")
            .having(0, op, 0.0);
            let r = resolved(&cube, &q);
            for (kernel, partial) in [
                ("reference", scan_brick_shared(&brick, &vis, &r)),
                ("vectorized", vectorized(&brick, &ranges, &r)),
            ] {
                let result = QueryResult::finalize(&cube, &r, partial);
                assert!(
                    result.rows.is_empty(),
                    "{kernel}: NULL {op:?} 0.0 must drop every group, kept {:?}",
                    result.rows
                );
            }
            // The naive model agrees.
            assert!(naive_group_having(&cube, &brick, &vis, &r).is_empty());
        }
        // Sanity: HAVING on the Count aggregate keeps the groups.
        let q = Query::aggregate(vec![
            Aggregation::new(AggFn::Avg, "score"),
            Aggregation::new(AggFn::Count, "likes"),
        ])
        .grouped_by("region")
        .having(1, CmpOp::Ge, 1.0);
        let r = resolved(&cube, &q);
        let partial = scan_brick_shared(&brick, &vis, &r);
        assert_eq!(QueryResult::finalize(&cube, &r, partial).rows.len(), 2);
    }

    /// HAVING applies before ORDER BY/LIMIT: the limit counts
    /// surviving groups, not pre-HAVING ones.
    #[test]
    fn having_applies_before_order_and_limit() {
        let cube = cube();
        let brick = brick_with_data(&cube);
        let vis = brick.visibility(&Snapshot::committed(1));
        // Groups by day: sums 10, 20, 30. HAVING > 10 leaves {20, 30};
        // LIMIT 2 ascending keeps both (not {10, 20}).
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")])
            .grouped_by("day")
            .having(0, CmpOp::Gt, 10.0)
            .ordered_by(OrderBy::Aggregation(0), false)
            .limited(2);
        let r = resolved(&cube, &q);
        let partial = scan_brick_shared(&brick, &vis, &r);
        let result = QueryResult::finalize(&cube, &r, partial);
        let sums: Vec<f64> = result.rows.iter().map(|(_, v)| v[0]).collect();
        assert_eq!(sums, vec![20.0, 30.0]);
    }

    #[test]
    fn having_out_of_range_aggregation_is_rejected() {
        let cube = cube();
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Sum, "likes")])
            .grouped_by("region")
            .having(3, CmpOp::Gt, 0.0);
        assert!(matches!(
            ResolvedQuery::resolve(&cube, &q),
            Err(CubrickError::UnknownColumn(_))
        ));
    }

    /// A filter accepting every storable coordinate cannot reject a
    /// row: resolve drops it, so the scan takes the cheaper
    /// unfiltered ranges path with identical semantics.
    #[test]
    fn exhaustive_filter_is_dropped_at_resolve() {
        let cube = cube();
        let all_days: Vec<Value> = (0..8i64).map(Value::from).collect();
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Count, "likes")])
            .filter(DimFilter::new("day", all_days));
        assert!(resolved(&cube, &q).filters.is_empty());
        let most_days: Vec<Value> = (0..7i64).map(Value::from).collect();
        let q = Query::aggregate(vec![Aggregation::new(AggFn::Count, "likes")])
            .filter(DimFilter::new("day", most_days));
        assert_eq!(resolved(&cube, &q).filters.len(), 1);
    }
}
