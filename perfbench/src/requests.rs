//! Seeded request traces: everything a workload sends is a pure
//! function of `--seed` and the fixture, so the same seed replays the
//! same requests and a different seed gives a different trace.

use std::collections::HashSet;

use kdv_core::raster::RasterSpec;
use kdv_geom::PointSet;

/// SplitMix64: small, fast and fully specified, so traces do not depend
/// on any random-number crate's version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` and a per-use `stream` tag, so independent
    /// draws (dataset, trace, writes) never share a sequence.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: usize) -> usize {
        (self.f64() * n as f64) as usize % n
    }
}

/// The two tile queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kind {
    /// εKDV colour tile.
    Eps,
    /// τKDV hotspot mask.
    Tau,
}

/// One tile address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tile {
    /// Query kind.
    pub kind: Kind,
    /// Zoom.
    pub z: u8,
    /// Column.
    pub x: u32,
    /// Row (0 at the top).
    pub y: u32,
}

impl Tile {
    /// The request path for `dataset`.
    pub fn path(&self, dataset: &str) -> String {
        let kind = match self.kind {
            Kind::Eps => "eps",
            Kind::Tau => "tau",
        };
        format!(
            "/tiles/{dataset}/{kind}/{}/{}/{}.png",
            self.z, self.x, self.y
        )
    }
}

/// The tile holding data-space point `p` at zoom `z`, in the pyramid
/// over `base` (the server's level-0 window).
pub fn tile_of(base: &RasterSpec, p: [f64; 2], z: u8) -> (u32, u32) {
    let ((x0, x1), (y0, y1)) = base.window();
    let side = 1u32 << z;
    let fx = ((p[0] - x0) / (x1 - x0)).clamp(0.0, 1.0 - 1e-12);
    let fy = ((y1 - p[1]) / (y1 - y0)).clamp(0.0, 1.0 - 1e-12);
    ((fx * side as f64) as u32, (fy * side as f64) as u32)
}

/// The 2×2 viewport around `p` at zoom `z`: the tile holding `p` and
/// its neighbours towards the side of the tile `p` lies in.
fn viewport(base: &RasterSpec, p: [f64; 2], z: u8) -> Vec<(u32, u32)> {
    let ((x0, x1), (y0, y1)) = base.window();
    let side = 1i64 << z;
    let (tx, ty) = tile_of(base, p, z);
    let fx = (p[0] - x0) / (x1 - x0) * side as f64 - tx as f64;
    let fy = (y1 - p[1]) / (y1 - y0) * side as f64 - ty as f64;
    let dx = if fx < 0.5 { -1 } else { 1 };
    let dy = if fy < 0.5 { -1 } else { 1 };
    let mut out = Vec::with_capacity(4);
    for (ox, oy) in [(0, 0), (dx, 0), (0, dy), (dx, dy)] {
        let (x, y) = (tx as i64 + ox, ty as i64 + oy);
        if (0..side).contains(&x) && (0..side).contains(&y) {
            out.push((x as u32, y as u32));
        }
    }
    out
}

/// Bits of `v` spread to the even bit positions (Morton interleave).
fn spread(v: u32) -> u64 {
    let mut x = u64::from(v);
    x = (x | x << 16) & 0x0000_ffff_0000_ffff;
    x = (x | x << 8) & 0x00ff_00ff_00ff_00ff;
    x = (x | x << 4) & 0x0f0f_0f0f_0f0f_0f0f;
    x = (x | x << 2) & 0x3333_3333_3333_3333;
    (x | x << 1) & 0x5555_5555_5555_5555
}

/// The indices of `points` in Z order over `base`'s window, so evenly
/// spaced ranks are spread evenly over the data.
fn z_order(base: &RasterSpec, points: &PointSet) -> Vec<usize> {
    let ((x0, x1), (y0, y1)) = base.window();
    let cell =
        |v: f64, lo: f64, hi: f64| (((v - lo) / (hi - lo)).clamp(0.0, 1.0) * 65_535.0) as u32;
    let mut order: Vec<usize> = (0..points.len()).collect();
    order.sort_by_cached_key(|&i| {
        let p = points.point(i);
        spread(cell(p[0], x0, x1)) | spread(cell(p[1], y0, y1)) << 1
    });
    order
}

/// `cold_sweep`: zoom-in sessions, each a query kind and a focus on the
/// data (users zoom into where the points are), visiting a 2×2 viewport
/// at every zoom from 0 to `max_z` — parents before children. A tile
/// already requested is never requested again, so every request is a
/// cold render. Returns at least `min_len` tiles unless the pyramid runs
/// out of distinct tiles first.
///
/// The foci are stratified ([`Foci`]), not independent draws, and the
/// kinds alternate, so traces of different seeds differ in their tiles
/// but hardly in their mix of cheap and costly ones.
pub fn cold_sweep(
    seed: u64,
    base: &RasterSpec,
    points: &PointSet,
    max_z: u8,
    min_len: usize,
) -> Vec<Tile> {
    let foci = Foci::new(seed, 1, base, points);
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for k in 0..1_000_000u64 {
        if out.len() >= min_len {
            break;
        }
        let kind = if k.is_multiple_of(2) {
            Kind::Eps
        } else {
            Kind::Tau
        };
        let focus = foci.get(k);
        for z in 0..=max_z {
            for (x, y) in viewport(base, focus, z) {
                let t = Tile { kind, z, x, y };
                if seen.insert(t) {
                    out.push(t);
                }
            }
        }
    }
    out
}

/// Stratified foci on the data: the `k`-th is the point at rank
/// `(u₀ + k/φ) mod 1` of the Z-ordered data, with `u₀` from the seed.
/// Any prefix of them covers the data evenly, so sets drawn with
/// different seeds differ in their tiles but hardly in their costs.
struct Foci<'a> {
    points: &'a PointSet,
    order: Vec<usize>,
    u0: f64,
}

impl<'a> Foci<'a> {
    fn new(seed: u64, stream: u64, base: &RasterSpec, points: &'a PointSet) -> Self {
        Self {
            points,
            order: z_order(base, points),
            u0: Rng::new(seed, stream).f64(),
        }
    }

    fn get(&self, k: u64) -> [f64; 2] {
        const GOLDEN: f64 = 0.618_033_988_749_894_8;
        let rank = (self.u0 + k as f64 * GOLDEN).fract();
        let n = self.order.len();
        let p = self
            .points
            .point(self.order[(rank * n as f64) as usize % n]);
        [p[0], p[1]]
    }
}

/// A set of `size` distinct tiles around stratified data foci, cycling
/// through `zooms` and, zoom by zoom, the two kinds.
pub fn tile_set(
    seed: u64,
    stream: u64,
    base: &RasterSpec,
    points: &PointSet,
    zooms: std::ops::RangeInclusive<u8>,
    size: usize,
) -> Vec<Tile> {
    let foci = Foci::new(seed, stream, base, points);
    let zs: Vec<u8> = zooms.collect();
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    for k in 0..1_000_000u64 {
        if out.len() >= size {
            break;
        }
        let z = zs[k as usize % zs.len()];
        let kind = if (k as usize / zs.len()).is_multiple_of(2) {
            Kind::Eps
        } else {
            Kind::Tau
        };
        let (x, y) = tile_of(base, foci.get(k), z);
        let t = Tile { kind, z, x, y };
        if seen.insert(t) {
            out.push(t);
        }
    }
    out
}

/// Every tile of zooms `0..=max_z`, both kinds, in a seeded order (the
/// popularity ranks of a browse trace).
pub fn overview(seed: u64, max_z: u8) -> Vec<Tile> {
    let mut all = Vec::new();
    for kind in [Kind::Eps, Kind::Tau] {
        for z in 0..=max_z {
            for y in 0..1u32 << z {
                all.extend((0..1u32 << z).map(|x| Tile { kind, z, x, y }));
            }
        }
    }
    shuffled(seed, 2, all.len())
        .into_iter()
        .map(|i| all[i])
        .collect()
}

/// Zipf popularity over `n` ranks: rank `i` has weight `1/(i+1)^s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n ≥ 1` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// One rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `n` zipf-popular picks from a set of `set_len` tiles.
pub fn zipf_trace(seed: u64, set_len: usize, n: usize, s: f64) -> Vec<usize> {
    let zipf = Zipf::new(set_len, s);
    let mut rng = Rng::new(seed, 3);
    (0..n).map(|_| zipf.sample(&mut rng)).collect()
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn shuffled(seed: u64, stream: u64, n: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, stream);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        v.swap(i, rng.below(i + 1));
    }
    v
}

/// `batches` ingest batches of `per_batch` appended points each,
/// scattered within `radius` of `hotspot` with weight `weight`.
pub fn write_batches(
    seed: u64,
    hotspot: [f64; 2],
    radius: f64,
    weight: f64,
    batches: usize,
    per_batch: usize,
) -> Vec<Vec<[f64; 3]>> {
    let mut rng = Rng::new(seed, 4);
    (0..batches)
        .map(|_| {
            (0..per_batch)
                .map(|_| {
                    let dx = (rng.f64() * 2.0 - 1.0) * radius;
                    let dy = (rng.f64() * 2.0 - 1.0) * radius;
                    [hotspot[0] + dx, hotspot[1] + dy, weight]
                })
                .collect()
        })
        .collect()
}

/// The JSON body appending `points`.
pub fn append_body(points: &[[f64; 3]]) -> Vec<u8> {
    let items: Vec<String> = points
        .iter()
        .map(|p| format!("[{:?},{:?},{:?}]", p[0], p[1], p[2]))
        .collect();
    format!("{{\"append\":[{}]}}", items.join(",")).into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use kdv_data::Dataset;

    fn base_and_points() -> (RasterSpec, PointSet) {
        let points = Dataset::Crime.generate(2_000, 5);
        (RasterSpec::covering(&points, 64, 64, 0.05), points)
    }

    #[test]
    fn same_seed_same_trace_and_different_seed_different_trace() {
        let (base, points) = base_and_points();
        let a = cold_sweep(7, &base, &points, 6, 500);
        let b = cold_sweep(7, &base, &points, 6, 500);
        let c = cold_sweep(8, &base, &points, 6, 500);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let set = |s| tile_set(s, 6, &base, &points, 4..=6, 40);
        assert_eq!(set(7), set(7));
        assert_ne!(set(7), set(8));
        assert_eq!(overview(7, 3), overview(7, 3));
        assert_ne!(overview(7, 3), overview(8, 3));
        assert_eq!(overview(7, 3).len(), 2 * (1 + 4 + 16 + 64));
        assert_eq!(zipf_trace(7, 100, 1000, 1.1), zipf_trace(7, 100, 1000, 1.1));
        assert_ne!(zipf_trace(7, 100, 1000, 1.1), zipf_trace(8, 100, 1000, 1.1));
        let w = |s| write_batches(s, [0.0, 0.0], 1.0, 1.0, 50, 2);
        assert_eq!(w(7), w(7));
        assert_ne!(w(7), w(8));
    }

    #[test]
    fn cold_sweep_is_distinct_and_parents_come_first() {
        let (base, points) = base_and_points();
        let trace = cold_sweep(3, &base, &points, 6, 800);
        let distinct: HashSet<_> = trace.iter().collect();
        assert_eq!(
            distinct.len(),
            trace.len(),
            "every request is a distinct tile"
        );
        for (i, t) in trace.iter().enumerate() {
            if t.z > 0 {
                let parent = Tile {
                    z: t.z - 1,
                    x: t.x / 2,
                    y: t.y / 2,
                    ..*t
                };
                let at = trace.iter().position(|p| *p == parent);
                assert!(at.is_some_and(|j| j < i), "{t:?} before its parent");
            }
        }
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let trace = zipf_trace(1, 50, 20_000, 1.1);
        let top = trace.iter().filter(|&&r| r == 0).count();
        let tail = trace.iter().filter(|&&r| r == 49).count();
        assert!(top > 10 * tail.max(1), "rank 0: {top}, rank 49: {tail}");
    }
}
