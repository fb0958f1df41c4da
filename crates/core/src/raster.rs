//! Pixel rasters and the pixel → data-domain mapping.
//!
//! KDV evaluates the density at the data-space coordinates of every
//! pixel center of a `width × height` screen (§1). [`RasterSpec`]
//! carries the screen resolution plus the rectangular data window being
//! visualized; [`DensityGrid`] stores one `f64` per pixel in row-major
//! order.

use crate::error::KdvError;
use kdv_geom::{Mbr, PointSet};

/// Standard resolutions used throughout the paper's experiments (§7.2).
pub const PAPER_RESOLUTIONS: [(u32, u32); 4] = [(320, 240), (640, 480), (1280, 960), (2560, 1920)];

/// A raster: screen resolution plus the 2-D data window it displays.
#[derive(Debug, Clone, PartialEq)]
pub struct RasterSpec {
    width: u32,
    height: u32,
    x_min: f64,
    x_max: f64,
    y_min: f64,
    y_max: f64,
}

impl RasterSpec {
    /// Creates a raster over an explicit data window.
    ///
    /// # Panics
    /// Panics on zero resolution or an empty/inverted window.
    pub fn new(width: u32, height: u32, x_range: (f64, f64), y_range: (f64, f64)) -> Self {
        assert!(width > 0 && height > 0, "resolution must be positive");
        assert!(
            x_range.0 < x_range.1 && y_range.0 < y_range.1,
            "data window must have positive area"
        );
        Self::try_new(width, height, x_range, y_range).expect("checked above")
    }

    /// Fallible [`RasterSpec::new`]: rejects zero resolution, an
    /// empty/inverted window, and non-finite window edges with a
    /// [`KdvError::DegenerateRaster`] instead of panicking.
    pub fn try_new(
        width: u32,
        height: u32,
        x_range: (f64, f64),
        y_range: (f64, f64),
    ) -> Result<Self, KdvError> {
        if width == 0 || height == 0 {
            return Err(KdvError::DegenerateRaster {
                message: format!("resolution {width}x{height} has no pixels"),
            });
        }
        let finite = [x_range.0, x_range.1, y_range.0, y_range.1]
            .iter()
            .all(|v| v.is_finite());
        if !finite {
            return Err(KdvError::DegenerateRaster {
                message: "data window has a non-finite edge".into(),
            });
        }
        if !(x_range.0 < x_range.1 && y_range.0 < y_range.1) {
            return Err(KdvError::DegenerateRaster {
                message: format!(
                    "data window [{}, {}]x[{}, {}] has no area",
                    x_range.0, x_range.1, y_range.0, y_range.1
                ),
            });
        }
        Ok(Self {
            width,
            height,
            x_min: x_range.0,
            x_max: x_range.1,
            y_min: y_range.0,
            y_max: y_range.1,
        })
    }

    /// Fallible [`RasterSpec::covering`]: rejects an empty or
    /// non-2-D dataset and degenerate resolutions with a structured
    /// [`KdvError`] instead of panicking. A dataset collapsed to a
    /// single location still yields a valid unit-window raster.
    pub fn try_covering(
        points: &PointSet,
        width: u32,
        height: u32,
        margin_frac: f64,
    ) -> Result<Self, KdvError> {
        if points.dim() != 2 {
            return Err(KdvError::DimensionMismatch {
                got: points.dim(),
                expected: 2,
            });
        }
        let Some(mbr) = Mbr::of_set(points) else {
            return Err(KdvError::EmptyDataset);
        };
        if !margin_frac.is_finite() || margin_frac < 0.0 {
            return Err(KdvError::invalid(
                "margin_frac",
                format!("must be non-negative and finite, got {margin_frac}"),
            ));
        }
        let (x0, x1) = (mbr.lo()[0], mbr.hi()[0]);
        let (y0, y1) = (mbr.lo()[1], mbr.hi()[1]);
        // Degenerate extents get a unit window so the raster stays valid.
        let dx = (x1 - x0).max(1e-9);
        let dy = (y1 - y0).max(1e-9);
        Self::try_new(
            width,
            height,
            (x0 - margin_frac * dx, x1 + margin_frac * dx),
            (y0 - margin_frac * dy, y1 + margin_frac * dy),
        )
    }

    /// Creates a raster covering a 2-D dataset's bounding box expanded
    /// by `margin_frac` on each side (so hotspots at the data edge stay
    /// visible).
    ///
    /// # Panics
    /// Panics if the dataset is empty or not 2-dimensional.
    pub fn covering(points: &PointSet, width: u32, height: u32, margin_frac: f64) -> Self {
        assert_eq!(points.dim(), 2, "rasters visualize 2-D data");
        let mbr = Mbr::of_set(points).expect("non-empty dataset");
        let (x0, x1) = (mbr.lo()[0], mbr.hi()[0]);
        let (y0, y1) = (mbr.lo()[1], mbr.hi()[1]);
        // Degenerate extents get a unit window so the raster stays valid.
        let dx = (x1 - x0).max(1e-9);
        let dy = (y1 - y0).max(1e-9);
        Self::new(
            width,
            height,
            (x0 - margin_frac * dx, x1 + margin_frac * dx),
            (y0 - margin_frac * dy, y1 + margin_frac * dy),
        )
    }

    /// Screen width in pixels.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Screen height in pixels.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of pixels.
    #[inline]
    pub fn num_pixels(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Data-space coordinates of the center of pixel `(col, row)`.
    /// Row 0 is the *top* of the screen (maximum `y`), matching image
    /// conventions.
    #[inline]
    pub fn pixel_center(&self, col: u32, row: u32) -> [f64; 2] {
        debug_assert!(col < self.width && row < self.height);
        let fx = (col as f64 + 0.5) / self.width as f64;
        let fy = (row as f64 + 0.5) / self.height as f64;
        [
            self.x_min + fx * (self.x_max - self.x_min),
            self.y_max - fy * (self.y_max - self.y_min),
        ]
    }

    /// The data window as `((x_min, x_max), (y_min, y_max))`.
    pub fn window(&self) -> ((f64, f64), (f64, f64)) {
        ((self.x_min, self.x_max), (self.y_min, self.y_max))
    }

    /// The raster covering the pixel rectangle
    /// `[col0, col0 + w) × [row0, row0 + h)` of this raster: the data
    /// window shrinks to the rectangle's pixel *edges* while the pixel
    /// size stays identical, so `sub.pixel_center(c, r)` coincides with
    /// `self.pixel_center(col0 + c, row0 + r)` (up to float rounding).
    ///
    /// This is the pixel→data-space mapping of tile extraction
    /// (`kdv-server` slippy tiles over a virtual full-zoom raster).
    pub fn sub_window(&self, col0: u32, row0: u32, w: u32, h: u32) -> Result<Self, KdvError> {
        if w == 0 || h == 0 {
            return Err(KdvError::DegenerateRaster {
                message: format!("sub-window {w}x{h} has no pixels"),
            });
        }
        let in_range = col0.checked_add(w).is_some_and(|c| c <= self.width)
            && row0.checked_add(h).is_some_and(|r| r <= self.height);
        if !in_range {
            return Err(KdvError::DegenerateRaster {
                message: format!(
                    "sub-window at ({col0}, {row0}) size {w}x{h} exceeds the \
                     {}x{} raster",
                    self.width, self.height
                ),
            });
        }
        let x_span = self.x_max - self.x_min;
        let y_span = self.y_max - self.y_min;
        let fx = |col: u32| self.x_min + (col as f64 / self.width as f64) * x_span;
        // Row 0 is the top of the screen (maximum y).
        let fy = |row: u32| self.y_max - (row as f64 / self.height as f64) * y_span;
        Self::try_new(w, h, (fx(col0), fx(col0 + w)), (fy(row0 + h), fy(row0)))
    }

    /// A raster with the same data window at a different resolution.
    pub fn with_resolution(&self, width: u32, height: u32) -> Self {
        Self::new(
            width,
            height,
            (self.x_min, self.x_max),
            (self.y_min, self.y_max),
        )
    }
}

/// A row-major grid of density values (one per pixel).
#[derive(Debug, Clone, PartialEq)]
pub struct DensityGrid {
    width: u32,
    height: u32,
    values: Vec<f64>,
}

impl DensityGrid {
    /// Creates a zero-filled grid.
    pub fn zeros(width: u32, height: u32) -> Self {
        Self {
            width,
            height,
            values: vec![0.0; width as usize * height as usize],
        }
    }

    /// Wraps an existing value buffer.
    ///
    /// # Panics
    /// Panics if `values.len() != width * height`.
    pub fn from_values(width: u32, height: u32, values: Vec<f64>) -> Self {
        assert_eq!(values.len(), width as usize * height as usize);
        Self {
            width,
            height,
            values,
        }
    }

    /// Grid width.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Value at `(col, row)`.
    #[inline]
    pub fn get(&self, col: u32, row: u32) -> f64 {
        self.values[row as usize * self.width as usize + col as usize]
    }

    /// Sets the value at `(col, row)`.
    #[inline]
    pub fn set(&mut self, col: u32, row: u32, v: f64) {
        self.values[row as usize * self.width as usize + col as usize] = v;
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Minimum and maximum values (`None` for an empty grid).
    pub fn min_max(&self) -> Option<(f64, f64)> {
        if self.values.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in &self.values {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some((lo, hi))
    }

    /// Mean absolute relative error against a reference grid, the
    /// quality metric of the paper's Fig 20:
    /// `(1/|Q|)·Σ |R(q) − F(q)| / F(q)` (pixels with `F(q) = 0` are
    /// compared absolutely against a tiny floor to avoid division by
    /// zero).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn mean_relative_error(&self, exact: &DensityGrid) -> f64 {
        assert_eq!(self.width, exact.width);
        assert_eq!(self.height, exact.height);
        let floor = 1e-300;
        let mut acc = 0.0;
        for (r, e) in self.values.iter().zip(&exact.values) {
            let denom = e.abs().max(floor);
            acc += (r - e).abs() / denom;
        }
        acc / self.values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pixel_centers_cover_window() {
        let r = RasterSpec::new(4, 2, (0.0, 4.0), (0.0, 2.0));
        // First pixel center: x = 0.5, y = 2 − 0.5 = 1.5 (top row).
        assert_eq!(r.pixel_center(0, 0), [0.5, 1.5]);
        // Last pixel center: x = 3.5, y = 0.5 (bottom row).
        assert_eq!(r.pixel_center(3, 1), [3.5, 0.5]);
        assert_eq!(r.num_pixels(), 8);
    }

    #[test]
    fn covering_expands_by_margin() {
        let ps = PointSet::from_rows(2, &[0.0, 0.0, 10.0, 20.0]);
        let r = RasterSpec::covering(&ps, 8, 8, 0.1);
        let ((x0, x1), (y0, y1)) = r.window();
        assert_eq!((x0, x1), (-1.0, 11.0));
        assert_eq!((y0, y1), (-2.0, 22.0));
    }

    #[test]
    fn covering_handles_degenerate_extent() {
        let ps = PointSet::from_rows(2, &[1.0, 1.0, 1.0, 1.0]);
        let r = RasterSpec::covering(&ps, 4, 4, 0.05);
        let ((x0, x1), _) = r.window();
        assert!(x1 > x0);
    }

    #[test]
    fn with_resolution_keeps_window() {
        let r = RasterSpec::new(10, 10, (0.0, 1.0), (0.0, 1.0));
        let r2 = r.with_resolution(20, 5);
        assert_eq!(r2.window(), r.window());
        assert_eq!((r2.width(), r2.height()), (20, 5));
    }

    #[test]
    fn sub_window_preserves_pixel_centers() {
        let r = RasterSpec::new(8, 6, (-3.0, 5.0), (10.0, 40.0));
        for (col0, row0, w, h) in [(0u32, 0u32, 8u32, 6u32), (2, 1, 4, 3), (7, 5, 1, 1)] {
            let sub = r.sub_window(col0, row0, w, h).expect("valid rect");
            assert_eq!((sub.width(), sub.height()), (w, h));
            for c in 0..w {
                for row in 0..h {
                    let a = sub.pixel_center(c, row);
                    let b = r.pixel_center(col0 + c, row0 + row);
                    assert!(
                        (a[0] - b[0]).abs() < 1e-12 && (a[1] - b[1]).abs() < 1e-12,
                        "({col0},{row0},{w},{h}) pixel ({c},{row}): {a:?} vs {b:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn sub_window_quadrants_tile_the_parent_window() {
        let r = RasterSpec::new(4, 4, (0.0, 1.0), (0.0, 1.0));
        let tl = r.sub_window(0, 0, 2, 2).expect("tl");
        let br = r.sub_window(2, 2, 2, 2).expect("br");
        // Top-left quadrant: upper half of y, lower half of x.
        assert_eq!(tl.window(), ((0.0, 0.5), (0.5, 1.0)));
        assert_eq!(br.window(), ((0.5, 1.0), (0.0, 0.5)));
        // Full-raster sub-window is the identity.
        assert_eq!(r.sub_window(0, 0, 4, 4).expect("full"), r);
    }

    #[test]
    fn sub_window_rejects_bad_rects() {
        let r = RasterSpec::new(4, 4, (0.0, 1.0), (0.0, 1.0));
        assert!(r.sub_window(0, 0, 0, 2).is_err(), "zero width");
        assert!(r.sub_window(0, 0, 2, 0).is_err(), "zero height");
        assert!(r.sub_window(3, 0, 2, 2).is_err(), "overhangs right edge");
        assert!(r.sub_window(0, 4, 1, 1).is_err(), "starts past the bottom");
        assert!(
            r.sub_window(u32::MAX, 0, 2, 2).is_err(),
            "col0 + w overflow must not wrap"
        );
    }

    #[test]
    fn grid_roundtrip_and_minmax() {
        let mut g = DensityGrid::zeros(3, 2);
        g.set(2, 1, 5.0);
        g.set(0, 0, -1.0);
        assert_eq!(g.get(2, 1), 5.0);
        assert_eq!(g.min_max(), Some((-1.0, 5.0)));
    }

    #[test]
    fn mean_relative_error_simple() {
        let exact = DensityGrid::from_values(2, 1, vec![1.0, 2.0]);
        let approx = DensityGrid::from_values(2, 1, vec![1.1, 1.8]);
        // (0.1/1 + 0.2/2) / 2 = 0.1
        assert!((approx.mean_relative_error(&exact) - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive area")]
    fn inverted_window_panics() {
        RasterSpec::new(2, 2, (1.0, 0.0), (0.0, 1.0));
    }

    #[test]
    fn try_new_rejects_degenerate_rasters() {
        assert!(matches!(
            RasterSpec::try_new(0, 2, (0.0, 1.0), (0.0, 1.0)),
            Err(KdvError::DegenerateRaster { .. })
        ));
        assert!(matches!(
            RasterSpec::try_new(2, 2, (1.0, 0.0), (0.0, 1.0)),
            Err(KdvError::DegenerateRaster { .. })
        ));
        assert!(matches!(
            RasterSpec::try_new(2, 2, (0.0, f64::NAN), (0.0, 1.0)),
            Err(KdvError::DegenerateRaster { .. })
        ));
        assert!(RasterSpec::try_new(2, 2, (0.0, 1.0), (0.0, 1.0)).is_ok());
    }

    #[test]
    fn try_covering_rejects_empty_and_wrong_dim() {
        let empty = PointSet::from_rows(2, &[]);
        assert!(matches!(
            RasterSpec::try_covering(&empty, 4, 4, 0.1),
            Err(KdvError::EmptyDataset)
        ));
        let one_d = PointSet::from_rows(1, &[0.0, 1.0]);
        assert!(matches!(
            RasterSpec::try_covering(&one_d, 4, 4, 0.1),
            Err(KdvError::DimensionMismatch {
                got: 1,
                expected: 2
            })
        ));
        let single = PointSet::from_rows(2, &[3.0, 3.0]);
        let r = RasterSpec::try_covering(&single, 4, 4, 0.1).expect("single point is fine");
        let ((x0, x1), _) = r.window();
        assert!(x1 > x0, "degenerate extent widened to a valid window");
    }
}
