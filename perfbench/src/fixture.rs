//! The seeded crime-emulation store every workload serves, built with
//! the library's public functions (`Dataset::generate`,
//! `KdTree::build_default`, `PyramidBuilder`, `SnapshotWriter`).

use std::path::{Path, PathBuf};

use kdv_core::bandwidth::scott_gamma;
use kdv_core::kernel::Kernel;
use kdv_core::raster::RasterSpec;
use kdv_core::threshold::estimate_levels;
use kdv_data::Dataset;
use kdv_geom::PointSet;
use kdv_index::KdTree;
use kdv_pyramid::{geometric_ladder, PyramidBuilder, PyramidConfig};
use kdv_store::SnapshotWriter;

/// Tile edge in pixels, for every workload.
pub const TILE: u32 = 64;
/// εKDV tolerance served (pyramid levels need `ε_s ≤ ε/2`).
pub const EPS: f64 = 0.2;
/// Deepest zoom served.
pub const MAX_Z: u8 = 6;
/// Deepest zoom the pyramid may answer.
pub const PYRAMID_MAX_Z: u8 = 4;
/// The server's level-0 window margin (`ServerConfig::margin_frac`).
pub const MARGIN: f64 = 0.05;
/// τ is the pixel-density mean plus this many standard deviations.
const TAU_SIGMAS: f64 = 1.0;
/// The main dataset's name in the store.
pub const DATASET: &str = "crime";
/// A small side dataset that takes the write probe on read-only
/// workloads, so the mapped dataset's tiles never see a memtable.
pub const SIDE: &str = "notes";
const SIDE_POINTS: usize = 2_000;
/// The map is the same for every run: `--seed` drives the traffic
/// (sessions, popularity, hotspots, writes), not the data, so runs with
/// different seeds measure the same system on different request mixes.
const DATA_SEED: u64 = 11;

/// A built store plus what the checks need to recompute EXACT.
pub struct Fixture {
    /// Directory holding `crime.kdvs` and `notes.kdvs`.
    pub store: PathBuf,
    /// The mapped dataset, weights normalised to sum 1.
    pub points: PointSet,
    /// Its bandwidth-calibrated kernel.
    pub kernel: Kernel,
    /// The τ level served.
    pub tau: f64,
    /// The level-0 window, computed as the server computes it.
    pub base: RasterSpec,
}

fn normalised(n: usize, seed: u64) -> (PointSet, Kernel) {
    let mut points = Dataset::Crime.generate(n, seed);
    points.scale_weights(1.0 / n as f64);
    let kernel = Kernel::gaussian(scott_gamma(&points).gamma);
    (points, kernel)
}

/// Builds the store under `store`: `n` crime points (with a certified
/// coreset pyramid when `pyramid`), plus the side dataset.
pub fn build(store: &Path, n: usize, pyramid: bool) -> Result<Fixture, String> {
    std::fs::create_dir_all(store).map_err(|e| format!("mkdir {}: {e}", store.display()))?;
    let (points, kernel) = normalised(n, DATA_SEED);
    let tree = KdTree::build_default(&points);
    let mut writer = SnapshotWriter::new(&tree, kernel);
    if pyramid {
        let (pyr, _) = PyramidBuilder::new(&tree, kernel)
            .with_config(PyramidConfig {
                sizes: geometric_ladder(n),
                ..PyramidConfig::default()
            })
            .build()
            .map_err(|e| format!("pyramid build: {e}"))?;
        writer = writer.with_pyramid(
            pyr.levels()
                .iter()
                .map(|lv| (lv.tree.points().clone(), lv.eps_s))
                .collect(),
        );
    }
    writer
        .write_to(store.join(format!("{DATASET}.kdvs")))
        .map_err(|e| format!("write snapshot: {e}"))?;
    let base = RasterSpec::try_covering(&points, TILE, TILE, MARGIN).map_err(|e| e.to_string())?;
    let tau = estimate_levels(&tree, kernel, &base, 24, 18).tau(TAU_SIGMAS);
    drop(tree);

    let (side, side_kernel) = normalised(SIDE_POINTS, DATA_SEED + 1);
    SnapshotWriter::new(&KdTree::build_default(&side), side_kernel)
        .write_to(store.join(format!("{SIDE}.kdvs")))
        .map_err(|e| format!("write side snapshot: {e}"))?;
    Ok(Fixture {
        store: store.to_path_buf(),
        points,
        kernel,
        tau,
        base,
    })
}

/// Copies the store's snapshots into a fresh directory `to` (a server
/// that takes writes gets its own copy, so every spawn starts from the
/// same bytes). The copies are flushed to disk before returning, so
/// their writeback cannot land in a timed window.
pub fn copy_store(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("mkdir {}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|e| e == "kdvs") {
            let dest = to.join(path.file_name().expect("a file has a name"));
            std::fs::copy(&path, &dest)
                .and_then(|_| std::fs::File::open(&dest)?.sync_all())
                .map_err(|e| format!("copy {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("perfbench-fixture-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn fixture_bytes_repeat_exactly() {
        let (a, b) = (scratch("a"), scratch("b"));
        let fa = build(&a, 6_000, true).expect("build a");
        let fb = build(&b, 6_000, true).expect("build b");
        for name in ["crime.kdvs", "notes.kdvs"] {
            let read = |d: &Path| std::fs::read(d.join(name)).expect("read snapshot");
            assert_eq!(read(&a), read(&b), "{name} differs between builds");
        }
        assert_eq!(fa.tau, fb.tau);
        for d in [a, b] {
            let _ = std::fs::remove_dir_all(d);
        }
    }
}
