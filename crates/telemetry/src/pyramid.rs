//! Pyramid-serving counters: which coreset level answered each tile.
//!
//! A pyramid-enabled tile server routes every render through a level
//! pick (coreset level k, or the full index). Operators need to see
//! that routing actually happens — a pyramid that exists but never
//! serves is a silent regression — so this block counts renders per
//! level with the same lock-free `AtomicU64` discipline as
//! [`crate::serve`].

use std::sync::atomic::{AtomicU64, Ordering};

use crate::registry::{Family, Kind, Reading};

/// Fixed number of per-level slots. Ladders are geometric (1k·4^k), so
/// eight levels already covers ~4 billion points; deeper levels fold
/// into the last slot rather than growing the struct.
pub const MAX_TRACKED_LEVELS: usize = 8;

/// Lock-free per-level render counters for the coreset pyramid.
#[derive(Debug, Default)]
pub struct PyramidCounters {
    /// Renders served from pyramid level k (slot-capped).
    level_renders: [AtomicU64; MAX_TRACKED_LEVELS],
    /// Renders that fell back to the full index (deep zoom, no
    /// admissible level, or no pyramid at all).
    full_renders: AtomicU64,
}

/// One reading of [`PyramidCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PyramidSnapshot {
    /// Renders served per pyramid level (index = level).
    pub level_renders: [u64; MAX_TRACKED_LEVELS],
    /// Renders served by the full index.
    pub full_renders: u64,
}

impl PyramidCounters {
    /// Records one render served from pyramid level `level` (levels
    /// beyond the tracked range fold into the last slot).
    pub fn level_render(&self, level: usize) {
        let slot = level.min(MAX_TRACKED_LEVELS - 1);
        self.level_renders[slot].fetch_add(1, Ordering::Relaxed);
    }

    /// Records one render served by the full index.
    pub fn full_render(&self) {
        self.full_renders.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads every counter.
    pub fn snapshot(&self) -> PyramidSnapshot {
        let mut level_renders = [0u64; MAX_TRACKED_LEVELS];
        for (out, c) in level_renders.iter_mut().zip(&self.level_renders) {
            *out = c.load(Ordering::Relaxed);
        }
        PyramidSnapshot {
            level_renders,
            full_renders: self.full_renders.load(Ordering::Relaxed),
        }
    }
}

impl PyramidSnapshot {
    /// Total renders that went through a pyramid level.
    pub fn pyramid_renders(&self) -> u64 {
        self.level_renders.iter().sum()
    }
}

/// `level=` members: renders by the level that served them (`0`…`7`
/// per slot, or `full`).
const RENDERS: Family = Family::counter(
    "kdv_pyramid_renders_total",
    "Tile renders by the coreset level that served them.",
)
.label("level");

crate::metric_table! {
    /// The `pyramid` block: per-level counts (JSON drops trailing
    /// always-zero slots), their total, and the full-index count.
    pub static PYRAMID: PyramidSnapshot = "pyramid" {
        "level_renders": RENDERS => |s| Reading::Slots(&s.level_renders),
        "pyramid_renders": Family::json_only(Kind::Counter) => |s| Reading::U(s.pyramid_renders()),
        "full_renders": RENDERS.member("full") => |s| Reading::U(s.full_renders),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;

    #[test]
    fn counters_accumulate_per_level() {
        let c = PyramidCounters::default();
        c.level_render(0);
        c.level_render(0);
        c.level_render(2);
        c.level_render(99); // folds into the last slot
        c.full_render();
        let s = c.snapshot();
        assert_eq!(s.level_renders[0], 2);
        assert_eq!(s.level_renders[2], 1);
        assert_eq!(s.level_renders[MAX_TRACKED_LEVELS - 1], 1);
        assert_eq!(s.pyramid_renders(), 4);
        assert_eq!(s.full_renders, 1);
    }

    #[test]
    fn json_trims_trailing_zero_slots() {
        let c = PyramidCounters::default();
        c.level_render(1);
        let doc = PYRAMID.json(&c.snapshot());
        let back = crate::json::parse(&doc.render()).expect("parses");
        let levels = back.get("level_renders").expect("levels");
        match levels {
            Value::Arr(items) => assert_eq!(items.len(), 2),
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(back.get("full_renders").and_then(Value::as_f64), Some(0.0));

        // All-zero counters still render a non-empty array.
        let empty = PYRAMID.json(&PyramidCounters::default().snapshot());
        let back = crate::json::parse(&empty.render()).expect("parses");
        match back.get("level_renders").expect("levels") {
            Value::Arr(items) => assert_eq!(items.len(), 1),
            other => panic!("expected array, got {other:?}"),
        }
    }
}
