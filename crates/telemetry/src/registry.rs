//! One declaration per serving metric.
//!
//! Every block of the serving `/metrics` surface — HTTP, cache, store,
//! ingest, pyramid, router, render, trace — is a [`Table`]: an ordered
//! list of [`Metric`] rows, each carrying its JSON key, its Prometheus
//! [`Family`] (name, HELP, kind, unit, label), and a function reading
//! its value off the block's source. Three walks consume the same
//! rows:
//!
//! * [`Table::json`] writes the block's JSON object (keys in row
//!   order; a dotted key such as `counters.heap_pops` nests),
//! * [`crate::PromWriter::add`] writes the Prometheus families
//!   (labelled rows sharing a family name become one family),
//! * [`rollup`] merges N shards' JSON blocks by declared kind.
//!
//! Recording is untouched by all this: counter blocks built with
//! `counter_block!` keep one relaxed `fetch_add` per event on a field
//! fixed at compile time, and the rows are only walked at scrape time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::hist::LogHistogram;
use crate::json::{self, Value};

/// Schema tag of a shard's JSON `/metrics` document.
pub const SERVE_SCHEMA: &str = "kdv-serve-metrics/7";

/// Schema tag of the cluster router's merged JSON `/metrics` document.
pub const CLUSTER_SCHEMA: &str = "kdv-cluster-metrics/1";

/// What a metric measures, which fixes its Prometheus `TYPE` and how a
/// fleet rollup merges it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone count; rollups sum it.
    Counter,
    /// Point-in-time level; rollups sum it.
    Gauge,
    /// A [`LogHistogram`]; JSON carries the given summary, Prometheus
    /// the cumulative buckets.
    Histogram(Summary),
    /// `num / (num + rest)` over two counters of the same table (0 when
    /// both are 0); rollups recompute it from the summed terms.
    Ratio {
        /// JSON key of the numerator counter.
        num: &'static str,
        /// JSON key of the counter completing the denominator.
        rest: &'static str,
    },
}

/// The JSON shape of a histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Summary {
    /// `count`, `mean`, `p50_le`, `p99_le`, `max`.
    Brief,
    /// `count`, `mean_us`, `p50_le_us`, `p99_le_us`, `max_us`.
    BriefUs,
    /// `count`, `sum`, `max`, `mean`, `p50_le`, `p99_le` and the
    /// non-empty `buckets`.
    Full,
}

/// The unit a value is recorded (and written to JSON) in; Prometheus
/// gets it converted to the base unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// A plain count or ratio.
    None,
    /// Bytes.
    Bytes,
    /// Nanoseconds (seconds in Prometheus).
    Ns,
    /// Microseconds (seconds in Prometheus).
    Us,
    /// Milliseconds (seconds in Prometheus).
    Ms,
}

impl Unit {
    /// Factor from the recorded unit to the Prometheus base unit.
    pub fn to_base(self) -> f64 {
        match self {
            Unit::None | Unit::Bytes => 1.0,
            Unit::Ns => 1e-9,
            Unit::Us => 1e-6,
            Unit::Ms => 1e-3,
        }
    }
}

/// A Prometheus family, or one labelled member of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Family {
    /// Exposition name; empty for a JSON-only metric.
    pub name: &'static str,
    /// `# HELP` text.
    pub help: &'static str,
    /// What is measured.
    pub kind: Kind,
    /// Recorded unit.
    pub unit: Unit,
    /// Label key shared by the family's members (`class`, `op`, …);
    /// empty for an unlabelled family.
    pub label: &'static str,
    /// This row's label value; empty when the reading supplies it (one
    /// sample per slot or per named histogram) or the family is
    /// unlabelled.
    pub member: &'static str,
}

impl Family {
    const fn new(name: &'static str, help: &'static str, kind: Kind) -> Self {
        Family {
            name,
            help,
            kind,
            unit: Unit::None,
            label: "",
            member: "",
        }
    }

    /// A counter family.
    pub const fn counter(name: &'static str, help: &'static str) -> Self {
        Self::new(name, help, Kind::Counter)
    }

    /// A gauge family.
    pub const fn gauge(name: &'static str, help: &'static str) -> Self {
        Self::new(name, help, Kind::Gauge)
    }

    /// A histogram family recorded in `unit`.
    pub const fn histogram(
        name: &'static str,
        help: &'static str,
        summary: Summary,
        unit: Unit,
    ) -> Self {
        Self::new(name, help, Kind::Histogram(summary)).unit(unit)
    }

    /// A JSON-only metric of `kind` (no exposition family).
    pub const fn json_only(kind: Kind) -> Self {
        Self::new("", "", kind)
    }

    /// The same family recorded in `unit`.
    pub const fn unit(mut self, unit: Unit) -> Self {
        self.unit = unit;
        self
    }

    /// The same family with label key `key`.
    pub const fn label(mut self, key: &'static str) -> Self {
        self.label = key;
        self
    }

    /// The member of this labelled family whose label value is `value`.
    pub const fn member(mut self, value: &'static str) -> Self {
        self.member = value;
        self
    }

    /// Prometheus `TYPE` keyword.
    pub fn type_name(&self) -> &'static str {
        match self.kind {
            Kind::Counter => "counter",
            Kind::Gauge | Kind::Ratio { .. } => "gauge",
            Kind::Histogram(_) => "histogram",
        }
    }
}

/// One metric's current value, borrowed from its source.
#[derive(Debug)]
pub enum Reading<'a> {
    /// An integer.
    U(u64),
    /// A float.
    F(f64),
    /// A yes/no gauge (JSON `true`/`false`, Prometheus 1/0).
    Flag(bool),
    /// Per-slot counts: a JSON array without its trailing zero slots,
    /// one Prometheus sample per slot labelled with the slot index.
    Slots(&'a [u64]),
    /// One histogram.
    Hist(&'a LogHistogram),
    /// Named histograms: a JSON object keyed by name, one Prometheus
    /// series per name as the label value.
    Hists(Vec<(&'static str, &'a LogHistogram)>),
}

/// One row of a [`Table`]: a JSON key and its family.
pub struct Metric<S: 'static> {
    /// JSON key within the block; dots nest into sub-objects.
    pub key: &'static str,
    /// The Prometheus family (or JSON-only declaration).
    pub family: Family,
    /// Reads the value off the block's source.
    pub read: for<'a> fn(&'a S) -> Reading<'a>,
}

/// A block's declarations over the source type `S`.
pub struct Table<S: 'static> {
    /// JSON key of the block in its document (`shards[]` for the
    /// router's per-shard entries).
    pub block: &'static str,
    /// Rows in JSON order.
    pub metrics: &'static [Metric<S>],
}

impl<S> Table<S> {
    /// The block's JSON fields, in row order.
    pub fn json_fields(&self, source: &S) -> Vec<(String, Value)> {
        let mut fields = Vec::new();
        for m in self.metrics {
            let value = match (m.read)(source) {
                Reading::U(v) => json::num_u(v),
                Reading::F(v) => json::num_f(v),
                Reading::Flag(v) => Value::Bool(v),
                Reading::Slots(slots) => {
                    let used = slots.iter().rposition(|&c| c > 0).map_or(1, |i| i + 1);
                    Value::Arr(slots[..used].iter().map(|&c| json::num_u(c)).collect())
                }
                Reading::Hist(h) => summary_json(h, m.family.kind),
                Reading::Hists(hists) => Value::Obj(
                    hists
                        .into_iter()
                        .map(|(name, h)| (name.to_string(), summary_json(h, m.family.kind)))
                        .collect(),
                ),
            };
            insert(&mut fields, m.key, value);
        }
        fields
    }

    /// The block's JSON object.
    pub fn json(&self, source: &S) -> Value {
        Value::Obj(self.json_fields(source))
    }
}

/// The declarations of a [`Table`] without its source type, for the
/// walks that only need names: the docs table, the uniqueness test
/// and [`rollup`].
pub trait Declared: Sync {
    /// The block's JSON key.
    fn block(&self) -> &'static str;
    /// `(JSON key, family)` per row, in order.
    fn rows(&self) -> Vec<(&'static str, Family)>;
}

impl<S> Declared for Table<S> {
    fn block(&self) -> &'static str {
        self.block
    }

    fn rows(&self) -> Vec<(&'static str, Family)> {
        self.metrics.iter().map(|m| (m.key, m.family)).collect()
    }
}

/// `num / (num + rest)`, or 0 when both are 0.
pub fn ratio(num: f64, rest: f64) -> f64 {
    if num + rest > 0.0 {
        num / (num + rest)
    } else {
        0.0
    }
}

fn summary_json(h: &LogHistogram, kind: Kind) -> Value {
    let (count, mean) = (json::num_u(h.count()), json::num_f(h.mean()));
    let (p50, p99) = (
        json::num_u(h.quantile_le(0.5)),
        json::num_u(h.quantile_le(0.99)),
    );
    let max = json::num_u(h.max());
    Value::obj(match kind {
        Kind::Histogram(Summary::BriefUs) => vec![
            ("count", count),
            ("mean_us", mean),
            ("p50_le_us", p50),
            ("p99_le_us", p99),
            ("max_us", max),
        ],
        Kind::Histogram(Summary::Full) => {
            let bucket =
                |(le, n)| Value::obj(vec![("le", json::num_u(le)), ("count", json::num_u(n))]);
            vec![
                ("count", count),
                ("sum", json::num_u(h.sum())),
                ("max", max),
                ("mean", mean),
                ("p50_le", p50),
                ("p99_le", p99),
                (
                    "buckets",
                    Value::Arr(h.nonzero_buckets().map(bucket).collect()),
                ),
            ]
        }
        _ => vec![
            ("count", count),
            ("mean", mean),
            ("p50_le", p50),
            ("p99_le", p99),
            ("max", max),
        ],
    })
}

/// Puts `value` at the dotted `path`, creating sub-objects in order of
/// first appearance.
fn insert(fields: &mut Vec<(String, Value)>, path: &str, value: Value) {
    let Some((head, rest)) = path.split_once('.') else {
        fields.push((path.to_string(), value));
        return;
    };
    let at = match fields.iter().position(|(k, _)| k == head) {
        Some(at) => at,
        None => {
            fields.push((head.to_string(), Value::Obj(Vec::new())));
            fields.len() - 1
        }
    };
    if let Value::Obj(sub) = &mut fields[at].1 {
        insert(sub, rest, value);
    }
}

fn lookup<'a>(doc: &'a Value, path: &str) -> Option<&'a Value> {
    path.split('.').try_fold(doc, |v, key| v.get(key))
}

/// Merges several shards' copies of one block by declared kind:
/// counters and gauges sum, ratios are
/// recomputed from their summed terms, and histogram summaries take
/// the summed `count`, the count-weighted mean, and the max of every
/// other field (a max of per-shard quantile bounds still bounds the
/// fleet quantile). A shard missing a key contributes nothing; with no
/// shard reporting the block is an empty object. Slot arrays are not
/// merged (no rolled-up block has one).
pub fn rollup(tables: &[&dyn Declared], parts: &[&Value]) -> Value {
    if parts.is_empty() {
        return Value::Obj(Vec::new());
    }
    let sum = |path: &str| -> f64 {
        parts
            .iter()
            .filter_map(|p| lookup(p, path).and_then(Value::as_f64))
            .sum()
    };
    let mut fields = Vec::new();
    for table in tables {
        for (key, family) in table.rows() {
            let values: Vec<&Value> = parts.iter().filter_map(|p| lookup(p, key)).collect();
            let merged = match family.kind {
                Kind::Ratio { num, rest } => json::num_f(ratio(sum(num), sum(rest))),
                Kind::Histogram(_) => merge_summaries(&values),
                Kind::Counter | Kind::Gauge => json::num_f(sum(key)),
            };
            insert(&mut fields, key, merged);
        }
    }
    Value::Obj(fields)
}

/// Merges histogram summary objects field by field (see [`rollup`]).
fn merge_summaries(parts: &[&Value]) -> Value {
    let Some(Value::Obj(first)) = parts.first() else {
        return Value::Null;
    };
    let field = |p: &Value, k: &str| p.get(k).and_then(Value::as_f64).unwrap_or(0.0);
    let count: f64 = parts.iter().map(|p| field(p, "count")).sum();
    let fields = first
        .iter()
        .map(|(k, _)| {
            let v = if k == "count" {
                parts.iter().map(|p| field(p, k)).sum()
            } else if k.starts_with("mean") {
                let weighted: f64 = parts.iter().map(|p| field(p, k) * field(p, "count")).sum();
                if count > 0.0 {
                    weighted / count
                } else {
                    0.0
                }
            } else {
                parts.iter().map(|p| field(p, k)).fold(0.0, f64::max)
            };
            (k.clone(), json::num_f(v))
        })
        .collect();
    Value::Obj(fields)
}

/// Storage of one `counter_block!` field: what the snapshot holds,
/// how it is loaded, and how the snapshot's copy reads.
pub trait Slot {
    /// The snapshot's copy.
    type Snap;
    /// Reads the current value.
    fn load(&self) -> Self::Snap;
    /// The snapshot's copy as a [`Reading`].
    fn reading(snap: &Self::Snap) -> Reading<'_>;
}

impl Slot for AtomicU64 {
    type Snap = u64;
    fn load(&self) -> u64 {
        AtomicU64::load(self, Ordering::Relaxed)
    }
    fn reading(snap: &u64) -> Reading<'_> {
        Reading::U(*snap)
    }
}

impl Slot for Mutex<LogHistogram> {
    type Snap = LogHistogram;
    fn load(&self) -> LogHistogram {
        self.lock().expect("histogram lock").clone()
    }
    fn reading(snap: &LogHistogram) -> Reading<'_> {
        Reading::Hist(snap)
    }
}

/// Declares a lock-free counter block once: the atomic struct, its
/// snapshot struct, `snapshot()`, and the block's [`Table`] all come
/// from one row list. A row is `field: Storage = family` (storage
/// `AtomicU64` or `Mutex<LogHistogram>`), or `field = family => read`
/// for a value derived from other fields at scrape time. Recording
/// methods stay hand-written next to the block.
macro_rules! counter_block {
    (
        $(#[$cmeta:meta])* pub struct $counters:ident;
        $(#[$smeta:meta])* pub struct $snap:ident;
        $(#[$tmeta:meta])* pub static $table:ident = $block:literal {
            $( $field:ident $(: $store:ty)? = $family:expr $(=> $read:expr)? ),* $(,)?
        }
    ) => {
        $(#[$cmeta])*
        #[derive(Debug, Default)]
        pub struct $counters {
            $( $( $field: $store, )? )*
        }

        $(#[$smeta])*
        #[allow(missing_docs)]
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct $snap {
            $( $( pub $field: <$store as $crate::registry::Slot>::Snap, )? )*
        }

        impl $counters {
            /// Reads every field (histograms are cloned under their
            /// locks).
            pub fn snapshot(&self) -> $snap {
                $snap {
                    $( $( $field: <$store as $crate::registry::Slot>::load(&self.$field), )? )*
                }
            }
        }

        $(#[$tmeta])*
        pub static $table: $crate::registry::Table<$snap> = $crate::registry::Table {
            block: $block,
            metrics: &[
                $( $crate::registry::Metric {
                    key: stringify!($field),
                    family: $family,
                    read: $crate::registry::counter_block!(@read $field $(: $store)? $(=> $read)?),
                }, )*
            ],
        };
    };
    (@read $field:ident : $store:ty) => {
        |s| <$store as $crate::registry::Slot>::reading(&s.$field)
    };
    (@read $field:ident => $read:expr) => {
        $read
    };
}
pub(crate) use counter_block;

/// Declares a [`Table`] over any source type, one row per line:
/// `"json.key": family => read`.
#[macro_export]
macro_rules! metric_table {
    (
        $(#[$meta:meta])* $vis:vis static $name:ident: $src:ty = $block:literal {
            $( $key:literal : $family:expr => $read:expr ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis static $name: $crate::registry::Table<$src> = $crate::registry::Table {
            block: $block,
            metrics: &[
                $( $crate::registry::Metric { key: $key, family: $family, read: $read }, )*
            ],
        };
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Src {
        n: u64,
        h: LogHistogram,
        levels: [u64; 4],
    }

    static T: Table<Src> = Table {
        block: "b",
        metrics: &[
            Metric {
                key: "n",
                family: Family::counter("kdv_n_total", "N."),
                read: |s| Reading::U(s.n),
            },
            Metric {
                key: "sub.h",
                family: Family::histogram("kdv_h_seconds", "H.", Summary::Brief, Unit::Ns),
                read: |s| Reading::Hist(&s.h),
            },
            Metric {
                key: "sub.levels",
                family: Family::counter("kdv_l_total", "L.").label("level"),
                read: |s| Reading::Slots(&s.levels),
            },
        ],
    };

    #[test]
    fn dotted_keys_nest_and_slots_trim() {
        let mut h = LogHistogram::new();
        h.record(7);
        let src = Src {
            n: 3,
            h,
            levels: [1, 2, 0, 0],
        };
        let doc = T.json(&src);
        assert_eq!(doc.get("n").and_then(Value::as_f64), Some(3.0));
        let sub = doc.get("sub").expect("nested object");
        assert_eq!(
            sub.get("h")
                .and_then(|h| h.get("max"))
                .and_then(Value::as_f64),
            Some(7.0)
        );
        assert_eq!(
            sub.get("levels").and_then(Value::as_arr).map(|a| a.len()),
            Some(2)
        );
    }

    fn summary(count: f64, mean: f64, p99: f64, max: f64) -> Value {
        Value::obj(vec![
            ("count", json::num_f(count)),
            ("mean", json::num_f(mean)),
            ("p50_le", json::num_f(p99 / 2.0)),
            ("p99_le", json::num_f(p99)),
            ("max", json::num_f(max)),
        ])
    }

    #[test]
    fn rollup_merges_histograms_by_kind_not_by_sum() {
        // One busy shard and one idle shard with all-zero summaries.
        let busy = Value::obj(vec![
            ("n", json::num_u(2)),
            (
                "sub",
                Value::obj(vec![("h", summary(4.0, 10.0, 30.0, 40.0))]),
            ),
        ]);
        let idle = Value::obj(vec![
            ("n", json::num_u(5)),
            ("sub", Value::obj(vec![("h", summary(0.0, 0.0, 0.0, 0.0))])),
        ]);
        let other = Value::obj(vec![(
            "sub",
            Value::obj(vec![("h", summary(1.0, 20.0, 25.0, 25.0))]),
        )]);
        let merged = rollup(&[&T], &[&busy, &idle, &other]);
        assert_eq!(merged.get("n").and_then(Value::as_f64), Some(7.0));
        let h = merged
            .get("sub")
            .and_then(|s| s.get("h"))
            .expect("merged summary");
        let f = |k: &str| h.get(k).and_then(Value::as_f64).expect(k);
        assert_eq!(f("count"), 5.0);
        assert_eq!(f("mean"), (4.0 * 10.0 + 20.0) / 5.0);
        assert_eq!(f("p99_le"), 30.0);
        assert_eq!(f("p50_le"), 15.0);
        assert_eq!(f("max"), 40.0);

        // An idle shard alone keeps an all-zero summary, mean included.
        let merged = rollup(&[&T], &[&idle, &idle]);
        let h = merged.get("sub").and_then(|s| s.get("h")).expect("summary");
        assert_eq!(h.get("mean").and_then(Value::as_f64), Some(0.0));
        assert_eq!(h.get("max").and_then(Value::as_f64), Some(0.0));

        assert_eq!(rollup(&[&T], &[]), Value::Obj(Vec::new()));
    }

    counter_block! {
        /// Test block.
        pub struct Hits;
        /// Its snapshot.
        pub struct HitsSnapshot;
        /// Its table.
        pub static HITS = "hits" {
            hits: AtomicU64 = Family::counter("kdv_t_hits_total", "Hits."),
            misses: AtomicU64 = Family::counter("kdv_t_misses_total", "Misses."),
            rate = Family::json_only(Kind::Ratio { num: "hits", rest: "misses" })
                => |s| Reading::F(ratio(s.hits as f64, s.misses as f64)),
        }
    }

    #[test]
    fn ratios_are_recomputed_from_summed_terms() {
        let c = Hits::default();
        c.hits.fetch_add(3, Ordering::Relaxed);
        let a = HITS.json(&c.snapshot());
        c.misses.fetch_add(1, Ordering::Relaxed);
        let b = HITS.json(&c.snapshot());
        assert_eq!(a.get("rate").and_then(Value::as_f64), Some(1.0));
        assert_eq!(b.get("rate").and_then(Value::as_f64), Some(0.75));
        let merged = rollup(&[&HITS], &[&a, &b]);
        // 6 hits / (6 + 1), not 1.0 + 0.75.
        assert_eq!(merged.get("rate").and_then(Value::as_f64), Some(6.0 / 7.0));
    }
}
