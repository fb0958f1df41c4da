//! What a served tile asks of the engine: which tree, which stop rule,
//! which per-pixel offset.
//!
//! Every tile is one batched [`TileEvaluator`] call. The paper's εKDV
//! and τKDV share one branch-and-bound loop that differs only in its
//! stop test (§3.2), and serving keeps that shape:
//!
//! * **ε on a pyramid level.** Low-zoom tiles cover the whole dataset,
//!   so the full QUAD index pays its worst case exactly where tiles
//!   are most shared. The coreset pyramid (`kdv-pyramid`, DESIGN.md
//!   §14) answers them from a certified subsample instead, and the ε
//!   guarantee splits into two absolute budgets that add: the level's
//!   certificate `|F_S(q) − F_P(q)| ≤ ε_s·W`, and an absolute
//!   refinement tolerance `(ε − ε_s)·W` ([`TileRule::Abs`]). A level is
//!   admissible only when `ε_s ≤ ε/2`, so the refinement share never
//!   collapses.
//! * **ε on the full index.** Relative `(1±ε)` ([`TileRule::Rel`]).
//! * **τ.** Always the full index, exact outside ties
//!   ([`TileRule::Tau`]). A coreset only carries an additive `ε_s·W`
//!   guarantee, and at useful thresholds that band is wider than τ
//!   itself (DESIGN.md §14 has the numbers), so a level cannot certify
//!   τ pixels: every one would fall back to the full index anyway.
//!
//! A non-empty memtable enters as the exact per-pixel delta δ(q). The
//! engine adds it inside its stop test, so each contract holds for the
//! logical (base + memtable) density — including where tombstones hide
//! most of the local base mass.

use kdv_core::bounds::BoundFamily;
use kdv_core::engine::{Probe, RenderBudget, TileEps, TileEvaluator, TileRule};
use kdv_core::error::KdvError;
use kdv_core::kernel::Kernel;
use kdv_core::raster::RasterSpec;
use kdv_index::KdTree;
use kdv_pyramid::Pyramid;

use crate::catalog::DatasetEntry;
use crate::ingest::DeltaView;
use crate::tile::TileKind;

/// The [`crate::cache::TileKey::level`] byte meaning "full index".
pub(crate) const FULL_LEVEL: u8 = 0xFF;

/// Picks the pyramid level for a tile of `kind` at zoom `z`, or `None`
/// for the full index. Deterministic in the entry state alone, so the
/// pick is part of the cache key *before* any rendering happens.
///
/// Three gates: only ε tiles use levels (see the module docs for τ);
/// pyramid tiles are a low-zoom device (`z ≤ max_z`; deep tiles are
/// cheap on the full index and callers want its exact output); and the
/// level must leave at least half of ε for refinement (`ε_s ≤ ε/2`).
pub(crate) fn pick_level(
    pyramid: &Pyramid,
    kind: TileKind,
    z: u8,
    pyramid_max_z: u8,
    eps: f64,
) -> Option<usize> {
    if kind == TileKind::Tau || z > pyramid_max_z {
        return None;
    }
    pyramid.pick(eps / 2.0).map(|(idx, _)| idx)
}

/// One served tile's engine request.
pub(crate) struct TilePlan<'e> {
    /// The tree refined: a pyramid level's or the full index.
    tree: &'e KdTree,
    /// The dataset's kernel.
    kernel: Kernel,
    /// The stop rule carrying the tile's contract.
    rule: TileRule,
    /// Exact memtable delta per pixel (row-major; empty when the
    /// memtable is).
    offset: Vec<f64>,
}

impl<'e> TilePlan<'e> {
    /// Plans a tile of `kind` over `raster`, served from pyramid level
    /// `level` (from [`pick_level`]) or the full index, with the
    /// memtable `delta` merged exactly.
    pub(crate) fn new(
        entry: &'e DatasetEntry,
        kind: TileKind,
        level: Option<usize>,
        eps: f64,
        tau: f64,
        raster: &RasterSpec,
        delta: Option<&DeltaView>,
    ) -> Self {
        let (tree, rule) = match (kind, level.and_then(|l| entry.pyramid.levels().get(l))) {
            (TileKind::Tau, _) => (&entry.tree, TileRule::Tau(tau)),
            (TileKind::Eps, None) => (&entry.tree, TileRule::Rel(eps)),
            (TileKind::Eps, Some(lv)) => {
                let w = entry.tree.points().total_weight();
                (&lv.tree, TileRule::Abs((eps - lv.eps_s) * w))
            }
        };
        let offset = delta.map_or_else(Vec::new, |d| d.offsets(raster, entry.kernel));
        Self {
            tree,
            kernel: entry.kernel,
            rule,
            offset,
        }
    }

    /// Runs the batched engine on the plan with QUAD's quadratic
    /// bounds: the server's one engine call, monomorphized per probe.
    pub(crate) fn eval<P: Probe>(
        &self,
        raster: &RasterSpec,
        budget: &mut RenderBudget,
        probe: &mut P,
    ) -> Result<TileEps, KdvError> {
        self.rule.validate()?;
        let mut tev = TileEvaluator::new(self.tree, self.kernel, BoundFamily::Quadratic);
        Ok(tev.eval_tile_with(raster, self.rule, &self.offset, budget, probe))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{finish_entry, DatasetSource, RenderSettings};
    use crate::ingest::merge_points;
    use kdv_core::engine::NoProbe;
    use kdv_data::emulate::Dataset;
    use kdv_geom::PointSet;
    use kdv_pyramid::{PyramidBuilder, PyramidConfig};
    use kdv_sampling::zorder_sample;
    use kdv_store::{WalOp, WalRecord};
    use kdv_viz::tile_render::pyramid_raster;
    use std::sync::Arc;

    fn fixture() -> (PointSet, Kernel, Pyramid) {
        let points = Dataset::Crime.generate(4000, 11);
        let tree = KdTree::build_default(&points);
        let kernel = Kernel::gaussian(0.6);
        let config = PyramidConfig {
            sizes: vec![400, 1000],
            probe_res: 16,
            ..PyramidConfig::default()
        };
        let (pyramid, _) = PyramidBuilder::new(&tree, kernel)
            .with_config(config)
            .build()
            .expect("pyramid builds");
        (points, kernel, pyramid)
    }

    /// A served entry over `points` with `pyramid` attached.
    fn entry(points: &PointSet, kernel: Kernel, pyramid: Pyramid) -> DatasetEntry {
        let settings = RenderSettings {
            tile_size: 16,
            margin_frac: 0.05,
            eps: 0.2,
        };
        let tree = KdTree::build_default(points);
        let mut e = finish_entry("contract", tree, kernel, settings, 0, DatasetSource::Built)
            .expect("entry");
        e.pyramid = Arc::new(pyramid);
        e
    }

    /// Brute-force EXACT density of `points` at every pixel center.
    fn exact(points: &PointSet, kernel: Kernel, raster: &RasterSpec) -> Vec<f64> {
        let mut out = Vec::with_capacity(raster.num_pixels());
        for row in 0..raster.height() {
            for col in 0..raster.width() {
                let q = raster.pixel_center(col, row);
                let f = (0..points.len())
                    .map(|i| {
                        let p = points.point(i);
                        let d2 = (p[0] - q[0]).powi(2) + (p[1] - q[1]).powi(2);
                        points.weight(i) * kernel.eval_dist2(d2)
                    })
                    .sum();
                out.push(f);
            }
        }
        out
    }

    /// Plans and evaluates one tile under an unlimited budget.
    fn serve(
        entry: &DatasetEntry,
        kind: TileKind,
        level: Option<usize>,
        (eps, tau): (f64, f64),
        raster: &RasterSpec,
        ops: &[WalRecord],
    ) -> (TileRule, TileEps) {
        let delta = DeltaView::replay(entry.tree.points(), ops);
        let plan = TilePlan::new(
            entry,
            kind,
            level,
            eps,
            tau,
            raster,
            Some(&delta).filter(|d| !d.is_empty()),
        );
        let mut budget = RenderBudget::unlimited();
        let tile = plan
            .eval(raster, &mut budget, &mut NoProbe)
            .expect("valid plan");
        (plan.rule, tile)
    }

    #[test]
    fn pick_level_gates_on_kind_zoom_and_budget() {
        let (_, _, pyramid) = fixture();
        let coarse = pyramid.levels()[0].eps_s;
        // A generous ε admits the smallest level at low zoom only.
        let eps = coarse * 2.0 + 1e-9;
        assert_eq!(pick_level(&pyramid, TileKind::Eps, 0, 4, eps), Some(0));
        assert_eq!(pick_level(&pyramid, TileKind::Eps, 4, 4, eps), Some(0));
        assert_eq!(
            pick_level(&pyramid, TileKind::Eps, 5, 4, eps),
            None,
            "deep zoom is full"
        );
        assert_eq!(
            pick_level(&pyramid, TileKind::Tau, 0, 4, eps),
            None,
            "τ is full"
        );
        // A tight ε skips to the finer level, then to the full index.
        let fine = pyramid.levels()[1].eps_s;
        assert_eq!(
            pick_level(&pyramid, TileKind::Eps, 0, 4, fine * 2.0 + 1e-9),
            Some(1)
        );
        assert_eq!(pick_level(&pyramid, TileKind::Eps, 0, 4, fine * 0.5), None);
        assert_eq!(
            pick_level(&Pyramid::empty(), TileKind::Eps, 0, 4, 1.0),
            None
        );
    }

    /// The served-tile contract, one table row per path: {pyramid
    /// level, full index} × {memtable empty, appended, tombstoned} ×
    /// {ε, τ}, each checked per pixel against brute-force EXACT over the
    /// merged (base + memtable) points.
    #[test]
    fn served_tiles_meet_their_contract_on_every_path() {
        let (points, kernel, pyramid) = fixture();
        let eps = pyramid.levels()[1].eps_s * 2.0 + 1e-9;
        let w = points.total_weight();
        let with_levels = entry(&points, kernel, pyramid);
        let full_only = entry(&points, kernel, Pyramid::empty());

        // Appends: a 10×10 lattice by the first point. Tombstones: the
        // 600 base points nearest it.
        let c = points.point(0);
        let appended: Vec<[f64; 3]> = (0..100)
            .map(|i| {
                let (dx, dy) = (f64::from(i % 10), f64::from(i / 10));
                [c[0] + 0.05 * dx, c[1] + 0.05 * dy, 1.0]
            })
            .collect();
        let mut near: Vec<usize> = (0..points.len()).collect();
        near.sort_by(|&a, &b| {
            let d = |i: usize| {
                let p = points.point(i);
                (p[0] - c[0]).powi(2) + (p[1] - c[1]).powi(2)
            };
            d(a).total_cmp(&d(b))
        });
        let hidden: Vec<[f64; 2]> = near[..600]
            .iter()
            .map(|&i| {
                let p = points.point(i);
                [p[0], p[1]]
            })
            .collect();
        let memtables = [
            ("empty", vec![]),
            (
                "appended",
                vec![WalRecord {
                    seq: 1,
                    op: WalOp::Append(appended),
                }],
            ),
            (
                "tombstoned",
                vec![WalRecord {
                    seq: 1,
                    op: WalOp::Tombstone(hidden),
                }],
            ),
        ];

        let mut rows = 0;
        for (path, entry) in [("level", &with_levels), ("full", &full_only)] {
            for (mem, ops) in &memtables {
                let merged = merge_points(entry.tree.points(), ops);
                for (z, x, y) in [(0, 0, 0), (1, 1, 0)] {
                    let raster = pyramid_raster(&entry.base, z, x, y).expect("raster");
                    let f = exact(&merged, kernel, &raster);
                    for kind in [TileKind::Eps, TileKind::Tau] {
                        let level = pick_level(&entry.pyramid, kind, z, 4, eps);
                        let case = format!("{path}/{mem}/{kind:?} z{z}");
                        // τ between two observed densities: both classes
                        // appear and no pixel sits on the threshold.
                        let mut sorted = f.clone();
                        sorted.sort_by(f64::total_cmp);
                        let k = sorted.len() * 3 / 5;
                        let tau = 0.5 * (sorted[k] + sorted[k + 1]);
                        let (rule, tile) = serve(entry, kind, level, (eps, tau), &raster, ops);
                        match (kind, path) {
                            (TileKind::Eps, "level") => {
                                assert!(matches!(rule, TileRule::Abs(_)), "{case}: {rule:?}")
                            }
                            (TileKind::Eps, _) => assert_eq!(rule, TileRule::Rel(eps), "{case}"),
                            (TileKind::Tau, _) => assert_eq!(rule, TileRule::Tau(tau), "{case}"),
                        }
                        for (i, (e, &f)) in tile.evals.iter().zip(&f).enumerate() {
                            assert!(!e.exhausted, "{case}: pixel {i} exhausted");
                            let slack = 1e-9 * (1.0 + f.abs());
                            match rule {
                                TileRule::Rel(eps) => assert!(
                                    e.lb <= f + slack
                                        && f <= e.ub + slack
                                        && (e.estimate() - f).abs() <= eps * f + slack,
                                    "{case}: pixel {i} {e:?} misses (1±ε) of {f}"
                                ),
                                TileRule::Abs(_) => assert!(
                                    (e.estimate() - f).abs() <= eps * w + slack,
                                    "{case}: pixel {i} {e:?} misses {f} ± ε·W"
                                ),
                                TileRule::Tau(tau) => assert_eq!(
                                    e.classify(tau).hot,
                                    f >= tau,
                                    "{case}: pixel {i} misclassified ({f} vs τ {tau})"
                                ),
                            }
                        }
                        rows += 1;
                    }
                }
            }
        }
        assert_eq!(rows, 2 * 3 * 2 * 2);
    }

    /// Where a tombstone hides most of the local base mass, a stop test
    /// on the *base* bracket alone leaves a half-gap of `ε/2·F_base`
    /// against a much smaller logical density. The offset must sit
    /// inside the stop test for `(1±ε)` to hold there.
    #[test]
    fn eps_tiles_keep_their_contract_where_tombstones_hide_the_base() {
        // 3,000 background points plus a 1,500-point sunflower blob at
        // the background's first point; one tombstone batch hides the
        // whole blob again.
        let background = Dataset::Crime.generate(3000, 7);
        let c = background.point(0);
        let (cx, cy) = (c[0], c[1]);
        let radius = 0.2;
        let golden = std::f64::consts::PI * (3.0 - 5f64.sqrt());
        let blob: Vec<[f64; 2]> = (0..1500)
            .map(|i| {
                let r = radius * ((i as f64 + 0.5) / 1500.0).sqrt();
                let a = golden * i as f64;
                [cx + r * a.cos(), cy + r * a.sin()]
            })
            .collect();
        let mut coords = background.coords().to_vec();
        coords.extend(blob.iter().flatten());
        let base = PointSet::from_vecs(2, coords, vec![1.0; 4500]);
        let kernel = Kernel::gaussian(50.0);
        let entry = entry(&base, kernel, Pyramid::empty());
        let ops = [WalRecord {
            seq: 1,
            op: WalOp::Tombstone(blob),
        }];
        let merged = merge_points(&base, &ops);
        assert_eq!(merged.len(), 3000, "the tombstone hides the blob");
        let raster = RasterSpec::new(
            16,
            16,
            (cx - radius, cx + radius),
            (cy - radius, cy + radius),
        );
        let f = exact(&merged, kernel, &raster);
        for eps in [0.2, 0.1, 0.05] {
            let (_, tile) = serve(&entry, TileKind::Eps, None, (eps, 1.0), &raster, &ops);
            let bad = tile
                .evals
                .iter()
                .zip(&f)
                .filter(|(e, &f)| (e.estimate() - f).abs() > eps * f + 1e-9 * (1.0 + f))
                .count();
            assert_eq!(bad, 0, "ε {eps}: {bad}/256 pixels miss (1±ε)");
        }
    }

    #[test]
    fn zorder_levels_compose_with_the_builder_pipeline() {
        // The builder consumes the same sampler the store persists, so
        // a build → persist-parts → from_parts loop is lossless.
        let (points, _, pyramid) = fixture();
        let parts: Vec<_> = pyramid
            .levels()
            .iter()
            .map(|lv| (lv.tree.points().clone(), lv.eps_s))
            .collect();
        assert_eq!(parts[0].0.len(), zorder_sample(&points, 400, 0.25).len());
        let back = Pyramid::from_parts(parts).expect("parts round-trip");
        assert_eq!(back.len(), pyramid.len());
    }
}
