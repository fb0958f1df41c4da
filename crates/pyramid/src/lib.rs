//! Certified coreset pyramid: a geometric ladder of Z-order coresets,
//! each carrying a **certified sampling error bound**, that lets a tile
//! server answer planet-scale low-zoom queries at small-dataset cost.
//!
//! The idea (Phillips & Tai, "Improved Coresets for Kernel Density
//! Estimates"; Zheng et al., "Visualization of Big Spatial Data using
//! Coresets for KDE") is that a reweighted sample of size `O(1/ε²)`
//! approximates the full kernel density within `ε·W` everywhere, where
//! `W = Σᵢ wᵢ` is the total kernel mass (every kernel profile this
//! engine ships peaks at `K(0) = 1`, so `F(q) ∈ [0, W]` and `ε·W` is
//! the natural absolute-error unit). A server that knows a level's
//! certified bound `ε_s` can split its per-pixel guarantee `ε` into a
//! sampling share and a refinement share and render from the *coreset*
//! whenever `ε_s + ε_r ≤ ε` — paying for thousands of points instead
//! of millions.
//!
//! Construction is three steps per level:
//!
//! 1. **sample** — [`kdv_sampling::zorder_sample`] draws a spatially
//!    stratified strided sample along the Morton curve and rescales
//!    weights by `n/s`, preserving total kernel mass,
//! 2. **index** — a full kd-tree + QUAD moment arena is built over the
//!    level, so the same branch-and-bound engine serves it,
//! 3. **certify** — the level's sampling bound starts at the Hoeffding
//!    budget `ε_h = √(ln(2/δ)/2s)` ([`kdv_sampling::sampling_eps_for`])
//!    and is **validated empirically** against the full KDE on a probe
//!    grid: the certified `ε_s` is `max(ε_h, margin · measured)`, so a
//!    stratified sampler that beats the iid bound keeps the
//!    conservative certificate, and one that (pathologically) exceeds
//!    it is certified at what was actually observed, inflated by a
//!    safety margin — never silently optimistic.
//!
//! The ladder persists through the KDVS `CORE`/`PYRA` sections (see
//! `kdv-store`); `Pyramid::from_parts` rebuilds the per-level trees at
//! load time, which for coreset-sized levels costs milliseconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use kdv_core::engine::{NoProbe, RefineEvaluator, RenderBudget, TileRule};
use kdv_core::kernel::Kernel;
use kdv_core::raster::RasterSpec;
use kdv_geom::PointSet;
use kdv_index::KdTree;
use kdv_sampling::{sampling_eps_for, zorder_sample};

use kdv_core::bounds::BoundFamily;

/// Smallest level the default geometric ladder materializes.
pub const DEFAULT_BASE_SIZE: usize = 1024;

/// Geometric growth factor between ladder levels (1k/4k/16k/…).
pub const DEFAULT_GROWTH: usize = 4;

/// Default Hoeffding confidence parameter δ.
pub const DEFAULT_DELTA: f64 = 1e-6;

/// Safety margin applied to the *measured* probe-grid error when it is
/// taken as the certificate (the strided Z-order sampler is not iid, so
/// the empirical check is what actually backs the bound).
pub const MEASURED_SAFETY: f64 = 1.25;

/// Fraction of the Hoeffding budget spent on evaluation slack during
/// validation (both the full-index and the coreset densities are
/// themselves evaluated to this absolute tolerance; the slack is added
/// back into the measured error before certifying).
const VALIDATE_SLACK: f64 = 0.05;

/// Why a pyramid could not be built or reassembled.
#[derive(Debug, Clone, PartialEq)]
pub enum PyramidError {
    /// The dataset is not 2-D (the Morton sampler is planar).
    NotPlanar {
        /// Dimensionality found.
        dim: usize,
    },
    /// A requested level size is invalid (zero, or ≥ the dataset).
    BadLevelSize {
        /// The offending size.
        size: usize,
        /// Dataset size.
        n: usize,
    },
    /// A stored certified bound is out of range.
    BadBound {
        /// Level index.
        level: usize,
        /// The offending value.
        eps_s: f64,
    },
    /// Level sizes must be strictly increasing (smallest first).
    UnsortedLevels,
    /// The underlying engine rejected the data (degenerate geometry,
    /// index build failure, …).
    Engine(String),
}

impl fmt::Display for PyramidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PyramidError::NotPlanar { dim } => {
                write!(f, "coreset pyramids require 2-D data, got {dim}-D")
            }
            PyramidError::BadLevelSize { size, n } => {
                write!(f, "level size {size} invalid for a {n}-point dataset")
            }
            PyramidError::BadBound { level, eps_s } => {
                write!(f, "level {level}: certified ε_s = {eps_s} out of range")
            }
            PyramidError::UnsortedLevels => {
                write!(f, "pyramid levels must be strictly increasing in size")
            }
            PyramidError::Engine(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for PyramidError {}

/// One rung of the ladder: a fully indexed coreset plus the certified
/// normalized sampling bound it serves under.
pub struct PyramidLevel {
    /// kd-tree + QUAD moments over the coreset (weights carry the
    /// `n/s` rescale, so kernel sums estimate the full set's).
    pub tree: KdTree,
    /// Certified normalized sampling error: on the build-time probe
    /// grid, `|F_coreset(q) − F_full(q)| ≤ ε_s · W` (and the Hoeffding
    /// budget for the level's size is a lower bound on `ε_s`, so the
    /// certificate is never tighter than theory).
    pub eps_s: f64,
}

impl PyramidLevel {
    /// Points in this level.
    pub fn len(&self) -> usize {
        self.tree.points().len()
    }

    /// Whether the level is empty (never constructed that way).
    pub fn is_empty(&self) -> bool {
        self.tree.points().is_empty()
    }
}

/// The ladder, smallest level first.
pub struct Pyramid {
    levels: Vec<PyramidLevel>,
}

impl Pyramid {
    /// An empty pyramid (dataset too small for any level).
    pub fn empty() -> Self {
        Self { levels: Vec::new() }
    }

    /// The levels, smallest first.
    pub fn levels(&self) -> &[PyramidLevel] {
        &self.levels
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the ladder has no levels.
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// The cheapest (smallest) level whose certified sampling bound
    /// fits `budget`, as `(index, level)`. Levels are sorted smallest
    /// first and `ε_s` shrinks as size grows, so the first fit is the
    /// cheapest admissible one. `None` means no level is certified
    /// tightly enough — the caller must fall back to the full index.
    pub fn pick(&self, budget: f64) -> Option<(usize, &PyramidLevel)> {
        self.levels
            .iter()
            .enumerate()
            .find(|(_, lv)| lv.eps_s <= budget)
    }

    /// Reassembles a pyramid from persisted `(coreset, ε_s)` pairs
    /// (the KDVS `CORE` + `PYRA` sections), rebuilding each level's
    /// kd-tree. Levels must arrive smallest first with in-range bounds.
    pub fn from_parts(parts: Vec<(PointSet, f64)>) -> Result<Self, PyramidError> {
        let mut levels = Vec::with_capacity(parts.len());
        let mut prev = 0usize;
        for (i, (points, eps_s)) in parts.into_iter().enumerate() {
            if !(eps_s.is_finite() && eps_s > 0.0 && eps_s <= 8.0) {
                return Err(PyramidError::BadBound { level: i, eps_s });
            }
            if points.len() <= prev {
                return Err(PyramidError::UnsortedLevels);
            }
            prev = points.len();
            let tree = KdTree::try_build_default(&points)
                .map_err(|e| PyramidError::Engine(format!("level {i}: {e}")))?;
            levels.push(PyramidLevel { tree, eps_s });
        }
        Ok(Self { levels })
    }
}

/// Per-level construction record (what `kdv index build --pyramid`
/// prints and the builder's tests assert on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelReport {
    /// Points in the level.
    pub size: usize,
    /// The iid Hoeffding budget for this size and the build δ.
    pub hoeffding_eps: f64,
    /// Empirical max normalized error observed on the probe grid
    /// (evaluation slack already folded in).
    pub measured_eps: f64,
    /// The certified bound actually persisted:
    /// `max(hoeffding_eps, MEASURED_SAFETY · measured_eps)`.
    pub certified_eps: f64,
}

/// The whole build's record.
#[derive(Debug, Clone, Default)]
pub struct BuildReport {
    /// One entry per materialized level, smallest first.
    pub levels: Vec<LevelReport>,
}

/// Tunables for [`PyramidBuilder`].
#[derive(Debug, Clone)]
pub struct PyramidConfig {
    /// Explicit level sizes (smallest first). Empty selects the
    /// geometric default ladder ([`geometric_ladder`]).
    pub sizes: Vec<usize>,
    /// Hoeffding confidence parameter δ.
    pub delta: f64,
    /// Probe-grid resolution (per side) for empirical validation.
    pub probe_res: u32,
    /// Margin around the data window for the probe grid, as a fraction
    /// of each axis span.
    pub margin_frac: f64,
    /// Morton stride phase in `[0, 1)` (fixed for reproducible builds).
    pub phase: f64,
}

impl Default for PyramidConfig {
    fn default() -> Self {
        Self {
            sizes: Vec::new(),
            delta: DEFAULT_DELTA,
            probe_res: 32,
            margin_frac: 0.05,
            phase: 0.25,
        }
    }
}

/// The default geometric ladder for an `n`-point dataset:
/// `1k, 4k, 16k, …` while each level stays at most `n/4` — a level
/// must be meaningfully smaller than the dataset to be worth its
/// bytes. Empty when `n < 4·1024`.
pub fn geometric_ladder(n: usize) -> Vec<usize> {
    let mut sizes = Vec::new();
    let mut size = DEFAULT_BASE_SIZE;
    while size.saturating_mul(4) <= n {
        sizes.push(size);
        let Some(next) = size.checked_mul(DEFAULT_GROWTH) else {
            break;
        };
        size = next;
    }
    sizes
}

/// Builds a certified ladder over one dataset's full index.
pub struct PyramidBuilder<'a> {
    tree: &'a KdTree,
    kernel: Kernel,
    config: PyramidConfig,
}

impl<'a> PyramidBuilder<'a> {
    /// A builder over the full index (the tree's points are the ground
    /// truth every level is validated against).
    pub fn new(tree: &'a KdTree, kernel: Kernel) -> Self {
        Self {
            tree,
            kernel,
            config: PyramidConfig::default(),
        }
    }

    /// Overrides the default configuration.
    pub fn with_config(mut self, config: PyramidConfig) -> Self {
        self.config = config;
        self
    }

    /// Materializes and certifies every level. An empty ladder (the
    /// dataset is too small for the configured sizes) is `Ok`, not an
    /// error — serving simply never leaves the full index.
    pub fn build(&self) -> Result<(Pyramid, BuildReport), PyramidError> {
        let points = self.tree.points();
        if points.dim() != 2 {
            return Err(PyramidError::NotPlanar { dim: points.dim() });
        }
        let n = points.len();
        let sizes = if self.config.sizes.is_empty() {
            geometric_ladder(n)
        } else {
            let mut prev = 0usize;
            for &size in &self.config.sizes {
                if size == 0 || size >= n {
                    return Err(PyramidError::BadLevelSize { size, n });
                }
                if size <= prev {
                    return Err(PyramidError::UnsortedLevels);
                }
                prev = size;
            }
            self.config.sizes.clone()
        };
        if sizes.is_empty() {
            return Ok((Pyramid::empty(), BuildReport::default()));
        }

        let w = points.total_weight();
        let probes = self.probe_points()?;
        let mut levels = Vec::with_capacity(sizes.len());
        let mut report = BuildReport::default();
        for size in sizes {
            let coreset = zorder_sample(points, size, self.config.phase);
            let tree = KdTree::try_build_default(&coreset)
                .map_err(|e| PyramidError::Engine(format!("level of {size} points: {e}")))?;
            let hoeffding_eps = sampling_eps_for(size, self.config.delta);
            let measured_eps = self.measure(&tree, &probes, hoeffding_eps, w)?;
            let certified_eps = hoeffding_eps.max(MEASURED_SAFETY * measured_eps);
            report.levels.push(LevelReport {
                size,
                hoeffding_eps,
                measured_eps,
                certified_eps,
            });
            levels.push(PyramidLevel {
                tree,
                eps_s: certified_eps,
            });
        }
        Ok((Pyramid { levels }, report))
    }

    /// Probe-grid pixel centers over the (margined) data window — the
    /// same geometry tiles are rendered on, so the validation measures
    /// error exactly where serving will read it.
    fn probe_points(&self) -> Result<Vec<[f64; 2]>, PyramidError> {
        let res = self.config.probe_res.max(2);
        let spec = RasterSpec::try_covering(self.tree.points(), res, res, self.config.margin_frac)
            .map_err(|e| PyramidError::Engine(format!("probe grid: {e}")))?;
        let mut probes = Vec::with_capacity((res * res) as usize);
        for row in 0..res {
            for col in 0..res {
                probes.push(spec.pixel_center(col, row));
            }
        }
        Ok(probes)
    }

    /// Max normalized `|F_level − F_full|` over the probe grid. Both
    /// densities are evaluated through the branch-and-bound engine to
    /// an absolute slack of `VALIDATE_SLACK · ε_h · W` each; the slack
    /// is added back so the returned figure upper-bounds the true
    /// probe-grid error.
    fn measure(
        &self,
        level_tree: &KdTree,
        probes: &[[f64; 2]],
        hoeffding_eps: f64,
        w: f64,
    ) -> Result<f64, PyramidError> {
        let slack = VALIDATE_SLACK * hoeffding_eps * w;
        let family = BoundFamily::Quadratic;
        let mut full = RefineEvaluator::new(self.tree, self.kernel, family);
        let mut level = RefineEvaluator::new(level_tree, self.kernel, family);
        let mut budget = RenderBudget::unlimited();
        let mut worst = 0.0f64;
        for q in probes {
            let mut probe = |ev: &mut RefineEvaluator<'_>| {
                ev.eval(q, TileRule::Abs(slack), &mut budget, &mut NoProbe)
                    .map_err(|e| PyramidError::Engine(format!("validation probe: {e}")))
            };
            let f = probe(&mut full)?;
            let s = probe(&mut level)?;
            worst = worst.max((s.estimate() - f.estimate()).abs());
        }
        Ok((worst + 2.0 * slack) / w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdv_geom::vecmath::dist2;
    use rand::rngs::StdRng;
    use rand::{Rng as _, SeedableRng as _};

    fn clustered(n: usize, seed: u64) -> PointSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut flat = Vec::with_capacity(n * 2);
        for _ in 0..n {
            let (cx, cy) = if rng.gen_bool(0.6) {
                (0.0, 0.0)
            } else {
                (6.0, 4.0)
            };
            flat.push(cx + rng.gen_range(-1.5..1.5));
            flat.push(cy + rng.gen_range(-1.5..1.5));
        }
        let mut ps = PointSet::from_rows(2, &flat);
        ps.scale_weights(1.0 / n as f64);
        ps
    }

    #[test]
    fn geometric_ladder_shape() {
        assert!(geometric_ladder(1000).is_empty());
        assert_eq!(geometric_ladder(4096), vec![1024]);
        assert_eq!(geometric_ladder(70_000), vec![1024, 4096, 16384]);
        // 262144·4 > 1M, so the 262k level does not materialize.
        assert_eq!(geometric_ladder(1_000_000), vec![1024, 4096, 16384, 65536]);
        assert_eq!(
            geometric_ladder(1 << 21),
            vec![1024, 4096, 16384, 65536, 262144]
        );
    }

    #[test]
    fn builder_certifies_each_level() {
        let ps = clustered(20_000, 7);
        let tree = KdTree::build_default(&ps);
        let kernel = Kernel::gaussian(0.4);
        let (pyramid, report) = PyramidBuilder::new(&tree, kernel)
            .with_config(PyramidConfig {
                sizes: vec![256, 1024, 4096],
                probe_res: 16,
                ..PyramidConfig::default()
            })
            .build()
            .expect("build");
        assert_eq!(pyramid.len(), 3);
        let w = ps.total_weight();
        for (level, rep) in pyramid.levels().iter().zip(&report.levels) {
            assert_eq!(level.len(), rep.size);
            assert!(level.eps_s >= rep.hoeffding_eps, "never below theory");
            assert!(level.eps_s >= MEASURED_SAFETY * rep.measured_eps);
            // The certificate holds against a brute-force exact check
            // on a fresh probe grid point.
            let q = [0.3, -0.2];
            let kde = |set: &PointSet| -> f64 {
                set.iter()
                    .map(|p| p.weight * kernel.eval_dist2(dist2(&q, p.coords)))
                    .sum()
            };
            let err = (kde(level.tree.points()) - kde(&ps)).abs();
            assert!(
                err <= level.eps_s * w,
                "level {}: err {err} exceeds certificate {}",
                rep.size,
                level.eps_s * w
            );
        }
        // Bigger levels certify tighter bounds.
        for pair in pyramid.levels().windows(2) {
            assert!(pair[1].eps_s <= pair[0].eps_s * 1.001);
        }
    }

    #[test]
    fn pick_returns_cheapest_admissible_level() {
        let ps = clustered(20_000, 8);
        let tree = KdTree::build_default(&ps);
        let (pyramid, _) = PyramidBuilder::new(&tree, Kernel::gaussian(0.4))
            .with_config(PyramidConfig {
                sizes: vec![512, 4096],
                probe_res: 8,
                ..PyramidConfig::default()
            })
            .build()
            .expect("build");
        let loose = pyramid.levels()[0].eps_s;
        let tight = pyramid.levels()[1].eps_s;
        assert!(tight < loose);
        let (idx, _) = pyramid.pick(loose).expect("loose budget fits level 0");
        assert_eq!(idx, 0);
        let (idx, _) = pyramid.pick((tight + loose) / 2.0).expect("mid budget");
        assert_eq!(idx, 1);
        assert!(pyramid.pick(tight / 2.0).is_none(), "too tight for any");
    }

    #[test]
    fn from_parts_round_trips_and_validates() {
        let ps = clustered(8_000, 9);
        let tree = KdTree::build_default(&ps);
        let (pyramid, _) = PyramidBuilder::new(&tree, Kernel::gaussian(0.4))
            .with_config(PyramidConfig {
                sizes: vec![256, 1024],
                probe_res: 8,
                ..PyramidConfig::default()
            })
            .build()
            .expect("build");
        let parts: Vec<(PointSet, f64)> = pyramid
            .levels()
            .iter()
            .map(|lv| (lv.tree.points().clone(), lv.eps_s))
            .collect();
        let back = Pyramid::from_parts(parts.clone()).expect("round trip");
        assert_eq!(back.len(), 2);
        for (a, b) in back.levels().iter().zip(pyramid.levels()) {
            assert_eq!(a.eps_s, b.eps_s);
            assert_eq!(a.len(), b.len());
            // Tree construction may permute storage order; compare the
            // point sets as multisets.
            let key = |set: &PointSet| {
                let mut rows: Vec<(u64, u64, u64)> = set
                    .iter()
                    .map(|p| {
                        (
                            p.coords[0].to_bits(),
                            p.coords[1].to_bits(),
                            p.weight.to_bits(),
                        )
                    })
                    .collect();
                rows.sort_unstable();
                rows
            };
            assert_eq!(key(a.tree.points()), key(b.tree.points()));
        }
        // Bad bounds and misordered levels are structural errors.
        let mut bad = parts.clone();
        bad[0].1 = f64::NAN;
        assert!(matches!(
            Pyramid::from_parts(bad),
            Err(PyramidError::BadBound { level: 0, .. })
        ));
        let swapped = vec![parts[1].clone(), parts[0].clone()];
        assert!(matches!(
            Pyramid::from_parts(swapped),
            Err(PyramidError::UnsortedLevels)
        ));
    }

    #[test]
    fn builder_rejects_bad_configs() {
        let ps = clustered(1000, 10);
        let tree = KdTree::build_default(&ps);
        let build = |sizes: Vec<usize>| {
            PyramidBuilder::new(&tree, Kernel::gaussian(0.4))
                .with_config(PyramidConfig {
                    sizes,
                    probe_res: 4,
                    ..PyramidConfig::default()
                })
                .build()
        };
        assert!(matches!(
            build(vec![0]),
            Err(PyramidError::BadLevelSize { .. })
        ));
        assert!(matches!(
            build(vec![1000]),
            Err(PyramidError::BadLevelSize { .. })
        ));
        assert!(matches!(
            build(vec![512, 128]),
            Err(PyramidError::UnsortedLevels)
        ));
        // A small dataset with the default ladder: empty, not an error.
        let (pyramid, report) = PyramidBuilder::new(&tree, Kernel::gaussian(0.4))
            .build()
            .expect("small dataset");
        assert!(pyramid.is_empty());
        assert!(report.levels.is_empty());
    }
}
