//! Seeded input generation: rows, dashboard statements, INSERT
//! statements and the workload fingerprint. The program under test
//! sees only what this module produces; the same seed produces the
//! same inputs.

use columnar::{Row, Value};

/// The cube the three HTTP workloads share: 8 region ranges x 16 day
/// ranges x 1 app range = 128 bricks.
pub const DASH_DDL: &str = "CREATE CUBE dash (region STRING DIM(16, 2), day INT DIM(64, 4), \
     app INT DIM(32, 32), likes INT METRIC, score FLOAT METRIC)";
/// The write-only workload's cube: 8 x 64 x 1 = 512 bricks, `day`
/// advancing with time so old bricks go cold.
pub const EVENTS_DDL: &str = "CREATE CUBE events (region STRING DIM(16, 2), day INT DIM(256, 4), \
     app INT DIM(32, 32), likes INT METRIC, score FLOAT METRIC)";

pub const REGIONS: u64 = 16;
pub const DASH_DAYS: u64 = 64;
pub const EVENT_DAYS: u64 = 256;
pub const APPS: u64 = 32;

/// splitmix64: small, fast, and good enough to spread rows and
/// literals; the benchmark needs repeatability, not cryptography.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x2545_f491_4f6c_dd1d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` far below 2^64, so modulo bias is nil).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// `k` distinct values out of `0..n`, ascending.
    pub fn choose(&mut self, n: u64, k: usize) -> Vec<u64> {
        let mut all: Vec<u64> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i as u64) as usize;
            all.swap(i, j);
        }
        all.truncate(k);
        all.sort_unstable();
        all
    }
}

/// One fact: `(region, day, app, likes, score)`. `day` is drawn by
/// the caller (uniform for `dash`, time-ordered for `events`).
struct Fact(u64, u64, u64, u64, f64);

fn fact(rng: &mut Rng, day: u64) -> Fact {
    Fact(
        rng.below(REGIONS),
        day,
        rng.below(APPS),
        rng.below(100),
        // Multiples of 1/8: sums stay exact in f64 whatever the merge
        // order, so served and reference results compare bit-equal.
        rng.below(800) as f64 / 8.0,
    )
}

/// One fact as a library-API row.
pub fn row(rng: &mut Rng, day: u64) -> Row {
    let Fact(region, day, app, likes, score) = fact(rng, day);
    vec![
        Value::Str(format!("r{region}")),
        Value::I64(day as i64),
        Value::I64(app as i64),
        Value::I64(likes as i64),
        Value::F64(score),
    ]
}

/// A `dash` batch: rows hashed over all 128 bricks.
pub fn dash_batch(rng: &mut Rng, rows: usize) -> Vec<Row> {
    (0..rows)
        .map(|_| {
            let day = rng.below(DASH_DAYS);
            row(rng, day)
        })
        .collect()
}

/// `INSERT INTO dash VALUES ...` carrying `rows` random rows.
pub fn insert_statement(rng: &mut Rng, rows: usize) -> String {
    let mut sql = String::with_capacity(32 + rows * 28);
    sql.push_str("INSERT INTO dash VALUES ");
    for i in 0..rows {
        if i > 0 {
            sql.push_str(", ");
        }
        let day = rng.below(DASH_DAYS);
        let Fact(region, day, app, likes, score) = fact(rng, day);
        // `{score:?}` keeps the decimal point: a FLOAT metric rejects
        // an integer literal.
        sql.push_str(&format!("('r{region}', {day}, {app}, {likes}, {score:?})"));
    }
    sql
}

/// The six dashboard templates (`t_total`, `t_region_top`,
/// `t_minmax_day`, `t_app_in`, `t_region_in`, `t_slice`), in the
/// order the per-template metrics are reported.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Template {
    Total,
    RegionTop,
    MinmaxDay,
    AppIn,
    RegionIn,
    Slice,
}

pub const TEMPLATES: [Template; 6] = [
    Template::Total,
    Template::RegionTop,
    Template::MinmaxDay,
    Template::AppIn,
    Template::RegionIn,
    Template::Slice,
];

impl Template {
    pub fn index(self) -> usize {
        TEMPLATES.iter().position(|&t| t == self).expect("listed")
    }

    /// One statement of this template with literals drawn from `rng`.
    /// Every template carries a drawn part, so that on a static cube
    /// the set of scan shapes is far larger than the 1024-partial
    /// aggregate cache (one shape fills 128 partials).
    pub fn statement(self, rng: &mut Rng) -> String {
        let list = |values: Vec<u64>| {
            values
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(", ")
        };
        let regions = |values: Vec<u64>| {
            values
                .iter()
                .map(|r| format!("'r{r}'"))
                .collect::<Vec<_>>()
                .join(", ")
        };
        match self {
            // No filter (the unfiltered visible-ranges path). The
            // drawn part is the third aggregate and the order of the
            // three: 2 x 8 x 6 = 96 scan shapes. COUNT(*) is always
            // there; `realtime_mixed` checks it.
            Template::Total => {
                let metric = |rng: &mut Rng| ["likes", "score"][rng.below(2) as usize];
                let extra_fn = ["MIN", "MAX", "AVG", "SUM"][rng.below(4) as usize];
                let sum_metric = metric(rng);
                // The third aggregate must differ from the SUM.
                let mut extra_metric = metric(rng);
                if extra_fn == "SUM" {
                    extra_metric = if sum_metric == "likes" {
                        "score"
                    } else {
                        "likes"
                    };
                }
                let mut aggs = [
                    format!("SUM({sum_metric})"),
                    "COUNT(*)".to_owned(),
                    format!("{extra_fn}({extra_metric})"),
                ];
                for i in 0..2 {
                    let j = i + rng.below(3 - i as u64) as usize;
                    aggs.swap(i, j);
                }
                format!("SELECT {} FROM dash", aggs.join(", "))
            }
            // Wide non-prunable filter: bitmap path over every brick,
            // three quarters of the rows aggregated.
            Template::RegionTop => format!(
                "SELECT AVG(score) FROM dash WHERE app IN ({}) GROUP BY region \
                 ORDER BY AVG(score) DESC LIMIT 4",
                list(rng.choose(APPS, 24))
            ),
            // 12 of 16 regions leave few region ranges (of 2) untouched:
            // next to no pruning.
            Template::MinmaxDay => format!(
                "SELECT MIN(likes), MAX(likes) FROM dash WHERE region IN ({}) GROUP BY day \
                 ORDER BY day LIMIT 8",
                regions(rng.choose(REGIONS, 12))
            ),
            Template::AppIn => format!(
                "SELECT SUM(likes) FROM dash WHERE app IN ({}) GROUP BY region",
                list(rng.choose(APPS, 3))
            ),
            // Prunes by region range.
            Template::RegionIn => {
                let k = 1 + rng.below(4) as usize;
                format!(
                    "SELECT COUNT(*) FROM dash WHERE region IN ({}) GROUP BY day",
                    regions(rng.choose(REGIONS, k))
                )
            }
            // One region, four consecutive days: prunes ~31/32 bricks.
            Template::Slice => {
                let region = rng.below(REGIONS);
                let first = rng.below(DASH_DAYS - 3);
                format!(
                    "SELECT SUM(likes) FROM dash WHERE region IN ('r{region}') AND day IN ({}) \
                     GROUP BY app",
                    list((first..first + 4).collect())
                )
            }
        }
    }
}

/// A traffic mix: per-template weights summing to 100. Weights are
/// chosen so the 50th and 95th percentile ranks each sit at least 10
/// points inside one cost class (heavy = region_top, minmax_day,
/// app_in; medium = total, region_in; selective = slice): a median
/// that straddles two latency modes does not repeat.
#[derive(Clone, Copy, Debug)]
pub struct Mix(pub [u32; 6]);

impl Mix {
    /// heavy 60 / medium 30 / selective 10.
    pub const DASH_SCAN: Mix = Mix([15, 20, 20, 20, 15, 10]);
    /// selective 60 / medium 25 / heavy 15.
    pub const REALTIME: Mix = Mix([13, 5, 5, 5, 12, 60]);

    pub fn pick(&self, rng: &mut Rng) -> Template {
        let mut ticket = rng.below(100) as u32;
        for (template, &weight) in TEMPLATES.iter().zip(&self.0) {
            if ticket < weight {
                return *template;
            }
            ticket -= weight;
        }
        unreachable!("mix weights sum to 100")
    }
}

/// FNV-1a over generated operations, so two runs can prove they drove
/// the same input. 32 bits, so the value survives a trip through an
/// f64 metric unchanged.
#[derive(Clone, Copy, Debug)]
pub struct Fingerprint(u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Operation separator.
        self.0 ^= 0xff;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    pub fn value(self) -> u32 {
        (self.0 ^ (self.0 >> 32)) as u32
    }
}
