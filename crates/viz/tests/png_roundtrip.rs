//! Round trips of `kdv_viz::png::encode` through an independent
//! decoder (`png_decode`): every image must decode bit for bit, with
//! every chunk CRC and the Adler-32 checked, in the form the encoder
//! promises for it (palette depth, RGB filters, stored fallback).

mod png_decode;

use kdv_core::bandwidth::scott_gamma;
use kdv_core::bounds::BoundFamily;
use kdv_core::engine::RefineEvaluator;
use kdv_core::kernel::Kernel;
use kdv_core::raster::RasterSpec;
use kdv_data::Dataset;
use kdv_index::KdTree;
use kdv_viz::colormap::render_binary;
use kdv_viz::png::encode;
use kdv_viz::render::{render_eps, BinaryGrid};
use kdv_viz::{ColorMap, RgbImage};
use png_decode::{decode, Decoded};

/// Encodes, decodes, and checks the pixels come back bit for bit.
fn round_trip(img: &RgbImage) -> (Vec<u8>, Decoded) {
    let png = encode(img);
    let out = decode(&png).unwrap_or_else(|e| panic!("{}x{}: {e}", img.width(), img.height()));
    assert!(
        out.matches(img),
        "{}x{}: pixels differ",
        img.width(),
        img.height()
    );
    (png, out)
}

/// The size of the uncompressed encoding: 8-bit RGB rows with filter
/// byte 0 in stored deflate blocks of at most 65,535 bytes.
fn stored_size(img: &RgbImage) -> usize {
    let raw = img.height() as usize * (1 + 3 * img.width() as usize);
    8 + 25 + 12 + 2 + raw + 5 * raw.div_ceil(65_535) + 4 + 12
}

/// Deterministic pseudo-random bytes (xorshift).
fn noise_bytes(n: usize, seed: u64) -> Vec<u8> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 32) as u8
        })
        .collect()
}

fn from_fn(w: u32, h: u32, f: impl Fn(u32, u32) -> [u8; 3]) -> RgbImage {
    let mut img = RgbImage::new(w, h);
    for row in 0..h {
        for col in 0..w {
            img.set(col, row, f(col, row));
        }
    }
    img
}

/// A 64² image using exactly `k` colours, in a pattern with runs and
/// repeats (so deflate has something to find).
fn k_colors(k: u32) -> RgbImage {
    from_fn(64, 64, |col, row| {
        let i = (col / 2 + row * 7) % k;
        [
            (i * 37) as u8,
            (i * 101 % 256) as u8,
            (i / 256 * 50 + 3) as u8,
        ]
    })
}

/// A real εKDV heat-ramp tile over a crime emulation.
fn heat_tile() -> RgbImage {
    let mut points = Dataset::Crime.generate(3000, 7);
    points.scale_weights(1.0 / points.len() as f64);
    let kernel = Kernel::gaussian(scott_gamma(&points).gamma);
    let tree = KdTree::build_default(&points);
    let raster = RasterSpec::covering(&points, 64, 64, 0.05);
    let mut ev = RefineEvaluator::new(&tree, kernel, BoundFamily::Quadratic);
    let grid = render_eps(&mut ev, &raster, 0.05);
    let (lo, hi) = grid.min_max().expect("non-empty grid");
    ColorMap::heat().render_scaled(&grid, lo, hi, true)
}

#[test]
fn degenerate_shapes_round_trip() {
    for (w, h) in [(1, 1), (1, 37), (37, 1), (1, 300), (300, 1)] {
        let img = from_fn(w, h, |c, r| {
            [(c * 13 + r) as u8, (r * 29) as u8, (c ^ r) as u8]
        });
        let (png, _) = round_trip(&img);
        assert!(png.len() <= stored_size(&img), "{w}x{h} grew");
    }
}

#[test]
fn palette_depth_follows_the_colour_count() {
    // One colour, and each palette depth boundary on both sides.
    let cases = [
        (1, 3, 1),
        (2, 3, 1),
        (3, 3, 2),
        (4, 3, 2),
        (5, 3, 4),
        (16, 3, 4),
        (17, 3, 8),
        (256, 3, 8),
        (257, 2, 8),
    ];
    for (k, color_type, depth) in cases {
        let img = k_colors(k);
        let (png, out) = round_trip(&img);
        assert_eq!(
            (out.color_type, out.depth),
            (color_type, depth),
            "{k} colours"
        );
        if color_type == 3 {
            assert_eq!(out.palette_len, k as usize, "{k} colours: palette size");
            assert!(
                out.filters.iter().all(|&f| f == 0),
                "palette rows unfiltered"
            );
        }
        assert!(
            png.len() < stored_size(&img) / 2,
            "{k} colours: {} bytes",
            png.len()
        );
    }
}

#[test]
fn palette_order_is_first_seen_in_raster_order() {
    let colors = [
        [9, 9, 9],
        [200, 1, 1],
        [1, 200, 1],
        [1, 1, 200],
        [50, 50, 50],
    ];
    let img = from_fn(40, 40, |col, row| {
        colors[((col / 8 + row / 8) % 5) as usize]
    });
    let png = encode(&img);
    let at = png
        .windows(4)
        .position(|w| w == b"PLTE")
        .expect("PLTE chunk");
    let plte: Vec<u8> = colors.iter().flatten().copied().collect();
    assert_eq!(&png[at + 4..at + 4 + 15], plte.as_slice());
    assert_eq!(encode(&img.clone()), png, "the same image, the same bytes");
}

#[test]
fn a_palette_that_would_not_pay_stays_rgb() {
    // Two pixels of two colours: PLTE (18 bytes) outweighs the 6 RGB
    // bytes it would replace.
    let img = from_fn(2, 1, |col, _| [col as u8 * 200, 5, 5]);
    let (png, out) = round_trip(&img);
    assert_eq!(out.color_type, 2);
    assert!(png.len() <= stored_size(&img));
}

#[test]
fn heat_ramp_tile_uses_rgb_filters_and_compresses() {
    let img = heat_tile();
    let (png, out) = round_trip(&img);
    assert_eq!(
        (out.color_type, out.depth),
        (2, 8),
        "a heat ramp has > 256 colours"
    );
    assert!(
        out.filters.iter().any(|&f| f != 0),
        "filters chosen: {:?}",
        out.filters
    );
    assert!(out.blocks.iter().all(|&b| b != 0), "compressed, not stored");
    assert!(png.len() * 4 < stored_size(&img) * 3, "{} bytes", png.len());
}

#[test]
fn every_filter_type_round_trips() {
    // Row patterns that each favour one filter: flat (None), a
    // horizontal ramp (Sub), a repeated noisy row (Up), each pixel the
    // mean of its left and upper neighbours over a noisy border
    // (Average), and a noisy plane (Paeth).
    let base = noise_bytes(3 * 64, 5);
    let rough = noise_bytes(3 * 64 * 64, 9);
    let mut mean = RgbImage::new(64, 64);
    for row in 0..64 {
        for col in 0..64 {
            let i = 3 * (row * 64 + col) as usize;
            let px = if row == 0 || col == 0 {
                [rough[i], rough[i + 1], rough[i + 2]]
            } else {
                let (a, b) = (mean.get(col - 1, row), mean.get(col, row - 1));
                [0, 1, 2].map(|k| ((a[k] as u16 + b[k] as u16) / 2) as u8)
            };
            mean.set(col, row, px);
        }
    }
    let images = [
        mean,
        heat_tile(),
        from_fn(64, 64, |c, r| {
            [(c * 3) as u8, (c * 5 + r) as u8, (c * 7) as u8]
        }),
        from_fn(64, 64, |c, _| {
            let i = 3 * c as usize;
            [base[i], base[i + 1], base[i + 2]]
        }),
        from_fn(64, 64, |c, r| {
            let i = 3 * (r * 64 + c) as usize;
            let v = |k: usize| (c * 2 + r * 2) as u8 ^ (rough[i + k] & 3);
            [v(0), v(1), v(2)]
        }),
    ];
    let mut seen = [false; 5];
    for img in &images {
        let (_, out) = round_trip(img);
        for &f in &out.filters {
            seen[f as usize] = true;
        }
    }
    assert_eq!(
        seen, [true; 5],
        "filters None..Paeth each used at least once"
    );
}

#[test]
fn tau_mask_is_a_small_one_bit_palette() {
    let mut mask = BinaryGrid::falses(64, 64);
    for row in 0..64 {
        for col in 0..64 {
            let (dx, dy) = (col as f64 - 20.0, row as f64 - 40.0);
            mask.set(
                col,
                row,
                dx * dx + dy * dy < 300.0 || (col > 50 && row < 10),
            );
        }
    }
    let img = render_binary(&mask);
    let (png, out) = round_trip(&img);
    assert_eq!((out.color_type, out.depth, out.palette_len), (3, 1, 2));
    assert!(png.len() < 1_000, "{} bytes", png.len());
}

#[test]
fn noise_takes_the_stored_fallback_and_never_grows() {
    for (w, h) in [(64, 64), (3, 5), (200, 120)] {
        let bytes = noise_bytes(3 * (w * h) as usize, 3);
        let img = from_fn(w, h, |c, r| {
            let i = 3 * (r * w + c) as usize;
            [bytes[i], bytes[i + 1], bytes[i + 2]]
        });
        let (png, out) = round_trip(&img);
        // A tiny image may still gain from Huffman codes (a stored
        // block costs 5 bytes); a tile-sized one cannot.
        if w * h > 100 {
            assert!(
                out.blocks.iter().all(|&b| b == 0),
                "{w}x{h}: {:?}",
                out.blocks
            );
        }
        assert!(
            png.len() <= stored_size(&img),
            "{w}x{h}: {} > {}",
            png.len(),
            stored_size(&img)
        );
    }
}

#[test]
fn rasters_over_one_stored_block_round_trip() {
    // 200×120 RGB is 72,120 raw bytes: more than one stored block, and
    // more tokens than one compressed block holds.
    let img = from_fn(200, 120, |c, r| {
        [(c + r) as u8, (c * r / 7) as u8, (r * 2) as u8]
    });
    let (png, out) = round_trip(&img);
    assert_eq!(out.color_type, 2);
    assert!(out.blocks.iter().all(|&b| b != 0));
    assert!(png.len() < stored_size(&img) / 4, "{} bytes", png.len());
    // A huge palette image: one colour per 8×8 cell, 1000×100.
    let img = from_fn(1000, 100, |c, r| {
        [((c / 8) % 7 * 30) as u8, (r / 8 * 20) as u8, 1]
    });
    let (_, out) = round_trip(&img);
    assert_eq!(out.color_type, 3);
}
