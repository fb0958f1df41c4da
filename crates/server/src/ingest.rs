//! Durable streaming ingest: a write-ahead log and memtable over the
//! KDVS snapshot each dataset serves from.
//!
//! The design is a miniature LSM tree with exactly two levels:
//!
//! * the **WAL** (`{name}.wal` next to `{name}.kdvs`) is the
//!   durability device. A write is acknowledged only after its record
//!   has reached the configured durability point (`--fsync every`
//!   syncs per record; `--fsync batch` elects a group-commit leader
//!   and one sync covers every record appended before it). Replay
//!   tolerates torn tails: the valid prefix is kept, everything after
//!   the first invalid frame — which by construction was never
//!   acknowledged — is discarded,
//! * the **memtable** holds the not-yet-compacted suffix of the log in
//!   two render-ready forms: live appended points, and base-snapshot
//!   coordinates hidden by tombstones (with the base weight each
//!   hides). Tile renders merge this delta *exactly* — the kernel sum
//!   over a few thousand memtable points per pixel — so a freshly
//!   ingested point is visible in the next tile without any index
//!   rebuild,
//! * **compaction** folds the memtable into a new kd-tree, writes a
//!   new snapshot (atomic tmp+rename, `applied_seq` recorded in the
//!   file), swaps it into the catalog, and truncates the WAL to the
//!   suffix that arrived while compaction ran. Boot-time recovery
//!   replays whatever WAL is left, skipping records at or below the
//!   snapshot's `applied_seq` watermark — so replay after any crash
//!   point is idempotent.
//!
//! Cache coherence rides on two cheap facts: every kernel this engine
//! ships has a finite (or effectively finite, for Gaussian underflow)
//! support radius, so a write batch only dirties tiles whose rectangle
//! intersects the batch's MBR dilated by that radius; and the memtable
//! carries an `epoch` counter so a tile rendered against one delta is
//! never cached after a later write invalidated its region.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use kdv_core::kernel::{Kernel, KernelType};
use kdv_core::raster::RasterSpec;
use kdv_geom::PointSet;
use kdv_index::KdTree;
use kdv_pyramid::{Pyramid, PyramidBuilder, PyramidConfig};
use kdv_store::wal::fsync_dir;
use kdv_store::{FsyncPolicy, SnapshotWriter, StoreError, WalOp, WalRecord, WalWriter};
use kdv_telemetry::IngestCounters;

use crate::catalog::{finish_entry, Catalog, DatasetEntry, DatasetSource};

/// The not-yet-compacted suffix of a dataset's log, in render-ready
/// form. Guarded by [`IngestState::mem`]; every mutation bumps
/// `epoch`.
#[derive(Debug, Default)]
pub(crate) struct Memtable {
    /// Un-compacted WAL records in sequence order — exactly what a
    /// fresh replay of the on-disk WAL would yield. Compaction folds
    /// and prunes them.
    ops: Vec<WalRecord>,
    /// Live appended points (`[x, y, w]`) not yet in the base.
    appends: Vec<[f64; 3]>,
    /// Base-snapshot coordinates hidden by tombstones, each carrying
    /// the total base weight it hides.
    removed: Vec<[f64; 3]>,
    /// Coordinates already tombstoned against the base (bit keys), so
    /// repeated tombstones never double-subtract.
    removed_keys: HashSet<(u64, u64)>,
    /// Highest sequence number reflected here (starts at the base's
    /// `applied_seq`).
    last_seq: u64,
    /// Bumped on every mutation and on compaction; renders snapshot it
    /// and re-check before caching a tile.
    epoch: u64,
}

impl Memtable {
    /// Folds one record into the derived views (not into `ops`).
    ///
    /// Tombstone semantics are LSM "delete what exists now": a
    /// tombstoned coordinate first kills bit-identical live appends,
    /// then hides the base points at that exact coordinate; appends
    /// arriving *after* the tombstone are new live points.
    fn apply_op(&mut self, rec: &WalRecord, base: &PointSet) {
        match &rec.op {
            WalOp::Append(pts) => self.appends.extend_from_slice(pts),
            WalOp::Tombstone(coords) => {
                for c in coords {
                    let key = (c[0].to_bits(), c[1].to_bits());
                    self.appends
                        .retain(|p| (p[0].to_bits(), p[1].to_bits()) != key);
                    if self.removed_keys.insert(key) {
                        let mut hidden = 0.0;
                        for i in 0..base.len() {
                            let p = base.point(i);
                            if (p[0].to_bits(), p[1].to_bits()) == key {
                                hidden += base.weight(i);
                            }
                        }
                        if hidden != 0.0 {
                            self.removed.push([c[0], c[1], hidden]);
                        }
                    }
                }
            }
        }
    }

    /// Applies and remembers one record.
    fn apply(&mut self, rec: &WalRecord, base: &PointSet) {
        self.apply_op(rec, base);
        self.last_seq = self.last_seq.max(rec.seq);
        self.ops.push(rec.clone());
        self.epoch += 1;
    }

    /// Recomputes the derived views from `ops` against a new base
    /// (after compaction swapped the snapshot under us).
    fn rebuild(&mut self, base: &PointSet) {
        self.appends.clear();
        self.removed.clear();
        self.removed_keys.clear();
        let ops = std::mem::take(&mut self.ops);
        for rec in &ops {
            self.apply_op(rec, base);
        }
        self.ops = ops;
        self.epoch += 1;
    }

    /// Memtable size in render-cost units (points every tile pixel
    /// must touch). Backpressure and compaction trigger on this.
    fn point_count(&self) -> usize {
        self.appends.len() + self.removed.len()
    }
}

/// An immutable snapshot of the memtable's render-facing state, taken
/// under the lock and merged into tiles outside it.
#[derive(Debug, Clone)]
pub(crate) struct DeltaView {
    pub(crate) appends: Vec<[f64; 3]>,
    pub(crate) removed: Vec<[f64; 3]>,
    /// The memtable epoch this view was taken at.
    pub(crate) epoch: u64,
}

impl DeltaView {
    /// True when the base snapshot alone is the whole truth.
    pub(crate) fn is_empty(&self) -> bool {
        self.appends.is_empty() && self.removed.is_empty()
    }

    /// The exact density delta at `q`: appended mass minus hidden base
    /// mass. Adding this to the base engine's estimate yields the
    /// density of the logical (base + log) point set.
    pub(crate) fn delta_at(&self, q: &[f64], kernel: Kernel) -> f64 {
        let d2 = |p: &[f64; 3]| {
            let dx = q[0] - p[0];
            let dy = q[1] - p[1];
            dx * dx + dy * dy
        };
        let mut delta = 0.0;
        for p in &self.appends {
            delta += p[2] * kernel.eval_dist2(d2(p));
        }
        for p in &self.removed {
            delta -= p[2] * kernel.eval_dist2(d2(p));
        }
        delta
    }

    /// [`DeltaView::delta_at`] at every pixel center of `raster`,
    /// row-major — the offset a tile render adds to the base density.
    pub(crate) fn offsets(&self, raster: &RasterSpec, kernel: Kernel) -> Vec<f64> {
        (0..raster.height())
            .flat_map(|row| (0..raster.width()).map(move |col| (col, row)))
            .map(|(col, row)| self.delta_at(&raster.pixel_center(col, row), kernel))
            .collect()
    }

    /// The view a memtable holding exactly `ops` over `base` would give.
    #[cfg(test)]
    pub(crate) fn replay(base: &PointSet, ops: &[WalRecord]) -> Self {
        let mut mem = Memtable::default();
        for rec in ops {
            mem.apply(rec, base);
        }
        Self {
            appends: mem.appends,
            removed: mem.removed,
            epoch: mem.epoch,
        }
    }
}

/// The WAL side of one dataset's ingest pipeline: the writer plus the
/// sequence bookkeeping group commit needs.
struct WalState {
    writer: WalWriter,
    /// Next sequence number to assign.
    next_seq: u64,
    /// Highest sequence number known durable (covered by a completed
    /// sync, or folded into the snapshot).
    durable_seq: u64,
    /// True while a group-commit leader is syncing outside the lock.
    syncing: bool,
}

/// Why a [`IngestState::commit`] produced no durable record.
#[derive(Debug)]
pub(crate) enum CommitError {
    /// The tombstone would leave the logical dataset with zero live
    /// points. An empty dataset has no buildable index and no render
    /// window, so compaction could never fold it; the write is refused
    /// instead (HTTP 400).
    WouldEmpty,
    /// The WAL append or sync failed.
    Store(StoreError),
}

impl From<StoreError> for CommitError {
    fn from(e: StoreError) -> Self {
        CommitError::Store(e)
    }
}

/// A durably committed write, ready to acknowledge.
pub(crate) struct Committed {
    /// The record's sequence number.
    pub seq: u64,
    /// WAL length after the append (bytes a crash would replay).
    pub wal_len: u64,
}

/// Point-in-time ingest bookkeeping for `/datasets/{name}/stats`.
pub(crate) struct IngestStatus {
    /// Un-compacted WAL records.
    pub ops: usize,
    /// Live memtable appends.
    pub appends: usize,
    /// Tombstoned base coordinates.
    pub removed: usize,
    /// Highest applied sequence number.
    pub last_seq: u64,
    /// Highest durable sequence number.
    pub durable_seq: u64,
    /// WAL file length in bytes.
    pub wal_len: u64,
    /// Memtable epoch (mutation counter).
    pub epoch: u64,
}

/// Everything one dataset needs to accept durable writes. Lock order
/// is `wal` before `mem` before `base`; `delta()` takes only `mem`.
pub(crate) struct IngestState {
    mem: Mutex<Memtable>,
    wal: Mutex<WalState>,
    /// The catalog entry the memtable's derived views were computed
    /// against. Updated at the compaction swap point while both the
    /// `wal` and `mem` locks are held, so a committer resolving the
    /// base under the `mem` lock always sees a (base, memtable) pair
    /// that is mutually consistent — a tombstone's hidden weight is
    /// never computed against a base a concurrent compaction already
    /// replaced.
    base: Mutex<Arc<DatasetEntry>>,
    /// Signaled whenever `durable_seq` advances (group commit, WAL
    /// rotation) so batch-mode waiters can re-check.
    flushed: Condvar,
    fsync: FsyncPolicy,
    /// True while a compaction for this dataset is in flight (at most
    /// one at a time).
    pub(crate) compacting: AtomicBool,
    /// Bumped once per completed compaction, *after* both the catalog
    /// entry and the memtable reflect the new base. Renders re-check
    /// it to detect an entry/delta pair torn by a concurrent
    /// compaction.
    generation: AtomicU64,
    wal_path: PathBuf,
}

impl IngestState {
    /// Opens (or creates) the WAL at `wal_path` and replays it over
    /// `entry`'s base, skipping records the snapshot already folded
    /// (`seq <= entry.applied_seq`). A torn tail is truncated away —
    /// nothing in it was ever acknowledged.
    pub(crate) fn open(
        wal_path: PathBuf,
        entry: &Arc<DatasetEntry>,
        fsync: FsyncPolicy,
        counters: &IngestCounters,
    ) -> Result<Self, String> {
        let name = &entry.name;
        let err = |what: &str, e: StoreError| format!("dataset {name:?}: {what}: {e}");
        let mut mem = Memtable {
            last_seq: entry.applied_seq,
            ..Memtable::default()
        };
        let (writer, next_seq) = if wal_path.exists() {
            let started = Instant::now();
            let replay =
                kdv_store::wal::replay(&wal_path).map_err(|e| err("WAL replay failed", e))?;
            let base = entry.tree.points();
            let mut applied = 0u64;
            for rec in &replay.records {
                if rec.seq > entry.applied_seq {
                    mem.apply(rec, base);
                    applied += 1;
                }
            }
            counters.replay(applied, replay.torn, started.elapsed().as_nanos() as u64);
            let mut writer = WalWriter::open_at(&wal_path, replay.valid_len)
                .map_err(|e| err("cannot reopen WAL", e))?;
            // Healing truncated a torn tail; make the surviving prefix
            // durable before new acks stack on top of it.
            writer
                .sync()
                .map_err(|e| err("cannot sync healed WAL", e))?;
            (writer, replay.last_seq().max(entry.applied_seq) + 1)
        } else {
            let writer = WalWriter::create(&wal_path).map_err(|e| err("cannot create WAL", e))?;
            (writer, entry.applied_seq + 1)
        };
        Ok(Self {
            mem: Mutex::new(mem),
            base: Mutex::new(Arc::clone(entry)),
            wal: Mutex::new(WalState {
                writer,
                next_seq,
                durable_seq: next_seq - 1,
                syncing: false,
            }),
            flushed: Condvar::new(),
            fsync,
            compacting: AtomicBool::new(false),
            generation: AtomicU64::new(0),
            wal_path,
        })
    }

    /// Appends `op` to the WAL, applies it to the memtable, and blocks
    /// until the record is durable under the configured fsync policy.
    /// Only after this returns `Ok` may the write be acknowledged.
    ///
    /// The base the op folds against is resolved *inside* the memtable
    /// lock, never passed in: a compaction that published a new base
    /// between the caller's admission checks and this commit updates
    /// [`IngestState::base`] under the same lock, so a tombstone's
    /// hidden weight is always computed against the base the memtable
    /// currently describes.
    ///
    /// The memtable is updated *before* the durability wait: dirty
    /// (unacked) reads are acceptable — a crash loses exactly the
    /// unacked tail, which no client was ever promised — and it keeps
    /// tile renders off the fsync critical path.
    pub(crate) fn commit(
        &self,
        op: WalOp,
        counters: &IngestCounters,
    ) -> Result<Committed, CommitError> {
        let mut wal = self.wal.lock().expect("wal state poisoned");
        // Race-free backstop for the server's admission-time check:
        // commits are serialized by the wal lock, so two writers whose
        // tombstones only *jointly* empty the dataset cannot both slip
        // past (the second sees the first's tombstones in the
        // memtable here and is refused before anything hits the WAL).
        if let WalOp::Tombstone(coords) = &op {
            if self.would_empty(&[], coords) {
                return Err(CommitError::WouldEmpty);
            }
        }
        let seq = wal.next_seq;
        let rec = WalRecord { seq, op };
        let before = wal.writer.len();
        let end = wal.writer.append(&rec)?;
        wal.next_seq += 1;
        counters.wal_written(end - before);
        {
            let mut mem = self.mem.lock().expect("memtable poisoned");
            let base = Arc::clone(&self.base.lock().expect("base entry poisoned"));
            mem.apply(&rec, base.tree.points());
        }
        match self.fsync {
            FsyncPolicy::Every => {
                wal.writer.sync()?;
                counters.fsync();
                wal.durable_seq = wal.durable_seq.max(seq);
                self.flushed.notify_all();
            }
            FsyncPolicy::Batch => {
                // Group commit: one leader syncs for every record
                // appended before it took the snapshot; followers wait
                // on the condvar and re-check the durable watermark.
                while wal.durable_seq < seq {
                    if wal.syncing {
                        wal = self.flushed.wait(wal).expect("wal state poisoned");
                        continue;
                    }
                    wal.syncing = true;
                    let target = wal.next_seq - 1;
                    let handle = wal.writer.sync_handle();
                    drop(wal);
                    let synced = handle.and_then(|f| {
                        f.sync_data().map_err(|e| StoreError::Io {
                            op: "sync WAL",
                            path: self.wal_path.display().to_string(),
                            source: e,
                        })
                    });
                    wal = self.wal.lock().expect("wal state poisoned");
                    wal.syncing = false;
                    match synced {
                        Ok(()) => {
                            counters.fsync();
                            // A concurrent WAL rotation may already
                            // have advanced the watermark past ours.
                            wal.durable_seq = wal.durable_seq.max(target);
                            self.flushed.notify_all();
                        }
                        Err(e) => {
                            self.flushed.notify_all();
                            return Err(e.into());
                        }
                    }
                }
            }
        }
        Ok(Committed {
            seq,
            wal_len: wal.writer.len(),
        })
    }

    /// The catalog entry the memtable currently folds against (see
    /// [`IngestState::base`]).
    pub(crate) fn base_entry(&self) -> Arc<DatasetEntry> {
        Arc::clone(&self.base.lock().expect("base entry poisoned"))
    }

    /// Fsyncs the WAL unconditionally and advances the durable
    /// watermark over everything appended so far. The graceful-drain
    /// path calls this after the worker pool has exited so a
    /// batch-mode server never exits 0 with acknowledged-but-buffered
    /// bytes still sitting in the page cache.
    pub(crate) fn sync_wal(&self) -> Result<(), StoreError> {
        let mut wal = self.wal.lock().expect("wal state poisoned");
        wal.writer.sync()?;
        wal.durable_seq = wal.next_seq - 1;
        self.flushed.notify_all();
        Ok(())
    }

    /// True when committing `appends` then tombstoning `removes` would
    /// leave the logical dataset (base + memtable) with zero live
    /// points. The server refuses such batches at admission and
    /// [`IngestState::commit`] re-checks under the wal lock — an empty
    /// dataset could never compact (no index, no window), so the 429
    /// path would wedge permanently once the memtable filled.
    pub(crate) fn would_empty(&self, appends: &[[f64; 3]], removes: &[[f64; 2]]) -> bool {
        if removes.is_empty() {
            return false;
        }
        let key = |x: f64, y: f64| (x.to_bits(), y.to_bits());
        let rkeys: HashSet<(u64, u64)> = removes.iter().map(|c| key(c[0], c[1])).collect();
        // Any point surviving the batch keeps the dataset non-empty:
        // a batch append not tombstoned by the batch itself, ...
        if appends.iter().any(|p| !rkeys.contains(&key(p[0], p[1]))) {
            return false;
        }
        let mem = self.mem.lock().expect("memtable poisoned");
        // ... a live memtable append the batch does not tombstone, ...
        if mem
            .appends
            .iter()
            .any(|p| !rkeys.contains(&key(p[0], p[1])))
        {
            return false;
        }
        // ... or a base point neither already hidden nor tombstoned
        // by the batch.
        let base = Arc::clone(&self.base.lock().expect("base entry poisoned"));
        let pts = base.tree.points();
        (0..pts.len()).all(|i| {
            let p = pts.point(i);
            let k = key(p[0], p[1]);
            mem.removed_keys.contains(&k) || rkeys.contains(&k)
        })
    }

    /// Snapshots the memtable's render-facing state.
    pub(crate) fn delta(&self) -> DeltaView {
        let mem = self.mem.lock().expect("memtable poisoned");
        DeltaView {
            appends: mem.appends.clone(),
            removed: mem.removed.clone(),
            epoch: mem.epoch,
        }
    }

    /// The current memtable epoch (compare with a
    /// [`DeltaView::epoch`] before caching a tile rendered from it).
    pub(crate) fn epoch(&self) -> u64 {
        self.mem.lock().expect("memtable poisoned").epoch
    }

    /// The compaction generation (see [`IngestState::generation`]).
    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Memtable size in points (backpressure/compaction triggers).
    pub(crate) fn point_count(&self) -> usize {
        self.mem.lock().expect("memtable poisoned").point_count()
    }

    /// Consistent bookkeeping for the stats endpoint.
    pub(crate) fn status(&self) -> IngestStatus {
        let wal = self.wal.lock().expect("wal state poisoned");
        let mem = self.mem.lock().expect("memtable poisoned");
        IngestStatus {
            ops: mem.ops.len(),
            appends: mem.appends.len(),
            removed: mem.removed.len(),
            last_seq: mem.last_seq,
            durable_seq: wal.durable_seq,
            wal_len: wal.writer.len(),
            epoch: mem.epoch,
        }
    }
}

/// Folds the memtable into a new snapshot and truncates the WAL.
///
/// Crash-safety is positional: the new snapshot (carrying
/// `applied_seq`) lands first via atomic tmp+rename, so a crash at any
/// later point replays the old WAL against it and the watermark skips
/// everything already folded. Only then is the WAL rewritten to the
/// suffix that arrived during compaction (tmp + sync + rename + dir
/// fsync) and the catalog entry swapped. Returns the published entry,
/// or `None` when there was nothing to fold.
pub(crate) fn compact(
    state: &IngestState,
    catalog: &Catalog,
    idx: usize,
    counters: &IngestCounters,
) -> Result<Option<Arc<DatasetEntry>>, String> {
    let started = Instant::now();
    // Fold against the base the memtable was built over (identical to
    // the catalog's view — only compaction replaces entries, and at
    // most one runs per dataset).
    let entry = state.base_entry();
    let name = &entry.name;
    let (ops, upto) = {
        let mem = state.mem.lock().expect("memtable poisoned");
        (mem.ops.clone(), mem.last_seq)
    };
    if ops.is_empty() {
        return Ok(None);
    }
    let snapshot_path = catalog
        .snapshot_path(idx)
        .ok_or_else(|| format!("dataset {name:?} is not snapshot-backed"))?
        .to_path_buf();
    let merged = merge_points(entry.tree.points(), &ops);
    if merged.is_empty() {
        return Err(format!(
            "dataset {name:?}: refusing to compact to zero points"
        ));
    }
    let build_started = Instant::now();
    let tree = KdTree::try_build_default(&merged).map_err(|e| format!("dataset {name:?}: {e}"))?;
    let index_ms = build_started.elapsed().as_millis() as u64;
    let mut folded = finish_entry(
        name,
        tree,
        entry.kernel,
        catalog.settings(),
        index_ms,
        DatasetSource::Snapshot,
    )?;
    folded.applied_seq = upto;
    // A pyramid-backed dataset keeps its pyramid across compaction:
    // rebuild and re-certify the ladder over the folded point set, so
    // low-zoom serving never regresses to the full index just because
    // writes happened. Datasets without a ladder stay without one —
    // opting in is `kdv index build --pyramid`'s job. The old levels'
    // sizes are the ladder shape the operator chose (explicit
    // `--coresets` or the geometric default at build time); reuse them
    // rather than re-deriving, and never keep a stale level — its ε_s
    // was certified against the pre-compaction base.
    if !entry.pyramid.is_empty() {
        let n = folded.tree.points().len();
        let sizes: Vec<usize> = entry
            .pyramid
            .levels()
            .iter()
            .map(|lv| lv.tree.points().len())
            .filter(|&s| s < n)
            .collect();
        folded.pyramid = if sizes.is_empty() {
            Arc::new(Pyramid::empty())
        } else {
            let config = PyramidConfig {
                sizes,
                ..PyramidConfig::default()
            };
            let (pyramid, _) = PyramidBuilder::new(&folded.tree, folded.kernel)
                .with_config(config)
                .build()
                .map_err(|e| format!("dataset {name:?}: pyramid rebuild failed: {e}"))?;
            Arc::new(pyramid)
        };
    }
    let mut writer = SnapshotWriter::new(&folded.tree, folded.kernel).with_applied_seq(upto);
    if !folded.pyramid.is_empty() {
        writer = writer.with_pyramid(
            folded
                .pyramid
                .levels()
                .iter()
                .map(|lv| (lv.tree.points().clone(), lv.eps_s))
                .collect(),
        );
    }
    writer
        .write_to(&snapshot_path)
        .map_err(|e| format!("dataset {name:?}: snapshot write failed: {e}"))?;

    // Swap point: WAL rewrite, catalog publish, memtable rebuild —
    // atomic with respect to writers (wal lock) and renders (mem
    // lock + the generation re-check).
    let mut wal = state.wal.lock().expect("wal state poisoned");
    let mut mem = state.mem.lock().expect("memtable poisoned");
    let remaining: Vec<WalRecord> = mem.ops.iter().filter(|r| r.seq > upto).cloned().collect();
    let tmp = state.wal_path.with_extension("wal.tmp");
    let err = |what: &str, e: StoreError| format!("dataset {name:?}: {what}: {e}");
    let mut w = WalWriter::create(&tmp).map_err(|e| err("cannot create rotated WAL", e))?;
    for rec in &remaining {
        w.append(rec).map_err(|e| err("cannot rewrite WAL", e))?;
    }
    w.sync().map_err(|e| err("cannot sync rotated WAL", e))?;
    if let Err(e) = std::fs::rename(&tmp, &state.wal_path) {
        let _ = std::fs::remove_file(&tmp);
        return Err(format!(
            "dataset {name:?}: cannot swap rotated WAL into place: {e}"
        ));
    }
    if let Some(dir) = state.wal_path.parent() {
        fsync_dir(dir).map_err(|e| err("cannot sync store directory", e))?;
    }
    // The open handle follows the inode across the rename, so `w` IS
    // the live WAL now; no reopen window where a crash of ours could
    // strand acked appends in an unlinked file.
    wal.writer = w;
    wal.durable_seq = wal.next_seq - 1;
    mem.ops = remaining;
    let published = catalog.replace(idx, folded);
    *state.base.lock().expect("base entry poisoned") = Arc::clone(&published);
    mem.rebuild(published.tree.points());
    mem.last_seq = mem.last_seq.max(upto);
    state.generation.fetch_add(1, Ordering::SeqCst);
    state.flushed.notify_all();
    drop(mem);
    drop(wal);
    counters.compaction(started.elapsed().as_nanos() as u64);
    Ok(Some(published))
}

/// The logical point set `base + ops`: base points not tombstoned,
/// plus live appends — the same fold [`Memtable`] maintains
/// incrementally, materialized. Deterministic in (base, ops), so a
/// from-scratch rebuild after recovery is bit-for-bit identical.
pub(crate) fn merge_points(base: &PointSet, ops: &[WalRecord]) -> PointSet {
    let mut scratch = Memtable::default();
    for rec in ops {
        scratch.apply_op(rec, base);
    }
    let mut coords = Vec::with_capacity((base.len() + scratch.appends.len()) * 2);
    let mut weights = Vec::with_capacity(base.len() + scratch.appends.len());
    for i in 0..base.len() {
        let p = base.point(i);
        if scratch
            .removed_keys
            .contains(&(p[0].to_bits(), p[1].to_bits()))
        {
            continue;
        }
        coords.extend_from_slice(&[p[0], p[1]]);
        weights.push(base.weight(i));
    }
    for p in &scratch.appends {
        coords.extend_from_slice(&[p[0], p[1]]);
        weights.push(p[2]);
    }
    PointSet::from_vecs(2, coords, weights)
}

/// The distance beyond which `kernel` evaluates to exactly `0.0`
/// (bit-for-bit), or `None` when no such radius is known — the caller
/// must then invalidate everything. Compact kernels cut off at `1/γ`
/// (or `π/(2γ)` for cosine); Gaussian and exponential underflow to
/// zero once the profile argument passes ~745, which the bump loop
/// verifies against the actual kernel arithmetic.
pub(crate) fn support_radius(kernel: Kernel) -> Option<f64> {
    let base = match kernel.ty {
        KernelType::Gaussian => (750.0 / kernel.gamma).sqrt(),
        KernelType::Exponential => 750.0 / kernel.gamma,
        KernelType::Triangular | KernelType::Epanechnikov | KernelType::Quartic => {
            1.0 / kernel.gamma
        }
        KernelType::Cosine => std::f64::consts::FRAC_PI_2 / kernel.gamma,
    };
    if !(base.is_finite() && base > 0.0) {
        return None;
    }
    let mut r = base;
    for _ in 0..8 {
        if kernel.eval_dist2(r * r) == 0.0 {
            return Some(r);
        }
        // cos(π/2) and friends land a few ULPs shy of zero; nudge
        // outward until the real kernel agrees.
        r *= 1.0 + 1e-9;
    }
    None
}

/// The bounding rectangle `[x_lo, x_hi, y_lo, y_hi]` of the points an
/// op touches, or `None` for an empty op.
pub(crate) fn op_rect(op: &WalOp) -> Option<[f64; 4]> {
    let mut rect: Option<[f64; 4]> = None;
    let mut add = |x: f64, y: f64| {
        rect = Some(match rect {
            None => [x, x, y, y],
            Some(r) => [r[0].min(x), r[1].max(x), r[2].min(y), r[3].max(y)],
        });
    };
    match op {
        WalOp::Append(pts) => {
            for p in pts {
                add(p[0], p[1]);
            }
        }
        WalOp::Tombstone(cs) => {
            for c in cs {
                add(c[0], c[1]);
            }
        }
    }
    rect
}

/// Grows `rect` by `r` on every side (the kernel support dilation).
pub(crate) fn dilate_rect(rect: [f64; 4], r: f64) -> [f64; 4] {
    [rect[0] - r, rect[1] + r, rect[2] - r, rect[3] + r]
}

/// Whether pyramid tile `(z, x, y)` over `base`'s window intersects
/// `rect`. Pure window arithmetic (matches [`kdv_viz::tile_render::
/// pyramid_raster`]'s split: row 0 is maximum y), cheap enough to run
/// as a cache-eviction predicate under the shard locks.
pub(crate) fn tile_intersects(base: &RasterSpec, z: u8, x: u32, y: u32, rect: &[f64; 4]) -> bool {
    let ((wx0, wx1), (wy0, wy1)) = base.window();
    let n = f64::from(1u32 << z);
    let sx = (wx1 - wx0) / n;
    let sy = (wy1 - wy0) / n;
    let tx0 = wx0 + f64::from(x) * sx;
    let tx1 = wx0 + f64::from(x + 1) * sx;
    let ty1 = wy1 - f64::from(y) * sy;
    let ty0 = wy1 - f64::from(y + 1) * sy;
    tx1 >= rect[0] && tx0 <= rect[1] && ty1 >= rect[2] && ty0 <= rect[3]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::RenderSettings;

    /// A catalog + ingest state over a 3-point snapshot in a fresh
    /// temp directory (caller removes the directory).
    fn open_fixture(tag: &str) -> (PathBuf, Catalog, IngestState, IngestCounters) {
        let dir =
            std::env::temp_dir().join(format!("kdv-ingest-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");
        let points = base_set();
        let tree = KdTree::build_default(&points);
        SnapshotWriter::new(&tree, Kernel::gaussian(0.8))
            .write_to(dir.join("unit.kdvs"))
            .expect("snapshot");
        let settings = RenderSettings {
            tile_size: 16,
            margin_frac: 0.05,
            eps: 0.2,
        };
        let catalog = Catalog::open(&dir, 0, settings).expect("catalog");
        let entry = catalog.get(0).expect("entry");
        let counters = IngestCounters::default();
        let state = IngestState::open(dir.join("unit.wal"), &entry, FsyncPolicy::Every, &counters)
            .expect("ingest state");
        (dir, catalog, state, counters)
    }

    fn base_set() -> PointSet {
        // Two points sharing a coordinate (weights 0.2 + 0.3), one
        // lone point.
        PointSet::from_vecs(2, vec![1.0, 1.0, 1.0, 1.0, 4.0, 5.0], vec![0.2, 0.3, 0.5])
    }

    fn rec(seq: u64, op: WalOp) -> WalRecord {
        WalRecord { seq, op }
    }

    #[test]
    fn memtable_folds_appends_and_tombstones_like_an_lsm() {
        let base = base_set();
        let mut mem = Memtable::default();
        mem.apply(&rec(1, WalOp::Append(vec![[2.0, 2.0, 0.7]])), &base);
        assert_eq!(mem.appends.len(), 1);
        // Tombstone kills the live append AND hides both base points
        // at (1,1).
        mem.apply(
            &rec(2, WalOp::Tombstone(vec![[2.0, 2.0], [1.0, 1.0]])),
            &base,
        );
        assert!(mem.appends.is_empty());
        assert_eq!(mem.removed.len(), 1);
        assert!((mem.removed[0][2] - 0.5).abs() < 1e-15);
        // A second tombstone of the same base coordinate must not
        // double-subtract.
        mem.apply(&rec(3, WalOp::Tombstone(vec![[1.0, 1.0]])), &base);
        assert_eq!(mem.removed.len(), 1);
        // An append after the tombstone is a new live point.
        mem.apply(&rec(4, WalOp::Append(vec![[1.0, 1.0, 0.9]])), &base);
        assert_eq!(mem.appends.len(), 1);
        assert_eq!(mem.last_seq, 4);
        assert_eq!(mem.epoch, 4);
        assert_eq!(mem.point_count(), 2);
    }

    #[test]
    fn delta_matches_brute_force_merge() {
        let base = base_set();
        let kernel = Kernel::gaussian(0.8);
        let mut mem = Memtable::default();
        mem.apply(
            &rec(1, WalOp::Append(vec![[2.0, 2.5, 0.7], [3.0, 0.5, 0.4]])),
            &base,
        );
        mem.apply(&rec(2, WalOp::Tombstone(vec![[1.0, 1.0]])), &base);
        let ops = mem.ops.clone();
        let delta = DeltaView {
            appends: mem.appends.clone(),
            removed: mem.removed.clone(),
            epoch: mem.epoch,
        };
        let merged = merge_points(&base, &ops);
        let q = [1.7, 1.9];
        let density = |ps: &PointSet| {
            (0..ps.len())
                .map(|i| {
                    let p = ps.point(i);
                    let d2 = (q[0] - p[0]).powi(2) + (q[1] - p[1]).powi(2);
                    ps.weight(i) * kernel.eval_dist2(d2)
                })
                .sum::<f64>()
        };
        let merged_density = density(&merged);
        let delta_density = density(&base) + delta.delta_at(&q, kernel);
        assert!(
            (merged_density - delta_density).abs() < 1e-12,
            "merged {merged_density} vs base+delta {delta_density}"
        );
    }

    #[test]
    fn merge_points_is_deterministic_and_complete() {
        let base = base_set();
        let ops = vec![
            rec(1, WalOp::Append(vec![[9.0, 9.0, 0.1]])),
            rec(2, WalOp::Tombstone(vec![[4.0, 5.0]])),
        ];
        let a = merge_points(&base, &ops);
        let b = merge_points(&base, &ops);
        assert_eq!(a.coords(), b.coords());
        assert_eq!(a.weights(), b.weights());
        // (1,1) twice survives, (4,5) hidden, (9,9) appended.
        assert_eq!(a.len(), 3);
        assert!(!a.coords().chunks(2).any(|c| c == [4.0, 5.0]));
    }

    #[test]
    fn support_radius_is_a_true_zero_cutoff() {
        for ty in KernelType::ALL {
            for gamma in [0.05, 1.0, 37.5] {
                let kernel = Kernel::new(ty, gamma);
                let r = support_radius(kernel)
                    .unwrap_or_else(|| panic!("{ty:?} γ={gamma} has no radius"));
                assert_eq!(
                    kernel.eval_dist2(r * r),
                    0.0,
                    "{ty:?} γ={gamma} not zero at r={r}"
                );
                let inside = 0.98 * r;
                assert!(
                    kernel.eval_dist2(inside * inside) > 0.0,
                    "{ty:?} γ={gamma} already zero inside its support"
                );
            }
        }
    }

    #[test]
    fn tombstones_resolve_against_the_base_a_compaction_just_published() {
        let (dir, catalog, state, counters) = open_fixture("swap");
        // Append a fresh point and fold it into a new base snapshot.
        state
            .commit(WalOp::Append(vec![[2.0, 2.0, 0.7]]), &counters)
            .expect("append");
        compact(&state, &catalog, 0, &counters)
            .expect("compact")
            .expect("memtable was non-empty");
        assert_eq!(state.base_entry().tree.points().len(), 4);
        // Tombstoning that point now must find its weight in the *new*
        // base — the pre-compaction base never contained (2, 2), so a
        // commit resolving a stale base would hide nothing and renders
        // would silently under-subtract until the next compaction.
        state
            .commit(WalOp::Tombstone(vec![[2.0, 2.0]]), &counters)
            .expect("tombstone");
        let delta = state.delta();
        assert!(delta.appends.is_empty());
        assert_eq!(delta.removed, vec![[2.0, 2.0, 0.7]]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn commits_that_would_empty_the_dataset_are_refused() {
        let (dir, _catalog, state, counters) = open_fixture("empty");
        // The base holds coordinates (1,1) and (4,5).
        assert!(state.would_empty(&[], &[[1.0, 1.0], [4.0, 5.0]]));
        assert!(!state.would_empty(&[], &[[1.0, 1.0]]));
        // A batch append that survives its own removes keeps the
        // dataset alive; one tombstoned by the same batch does not.
        assert!(!state.would_empty(&[[9.0, 9.0, 1.0]], &[[1.0, 1.0], [4.0, 5.0]]));
        assert!(state.would_empty(&[[9.0, 9.0, 1.0]], &[[9.0, 9.0], [1.0, 1.0], [4.0, 5.0]]));
        // The commit-time backstop refuses the final tombstone even
        // when the emptying happens incrementally.
        state
            .commit(WalOp::Tombstone(vec![[1.0, 1.0]]), &counters)
            .expect("partial tombstone is fine");
        let refused = state.commit(WalOp::Tombstone(vec![[4.0, 5.0]]), &counters);
        assert!(matches!(refused, Err(CommitError::WouldEmpty)));
        // Nothing from the refused op reached the WAL or the memtable.
        let status = state.status();
        assert_eq!(status.last_seq, 1);
        assert_eq!(status.removed, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tile_rects_match_the_pyramid_split() {
        let ps = base_set();
        let base = RasterSpec::try_covering(&ps, 16, 16, 0.1).expect("raster");
        // A rectangle hugging the window's top-left corner touches
        // tile (0,0) at z=1 (row 0 is maximum y) and not (1,1).
        let ((wx0, _), (_, wy1)) = base.window();
        let rect = [wx0, wx0 + 1e-6, wy1 - 1e-6, wy1];
        assert!(tile_intersects(&base, 1, 0, 0, &rect));
        assert!(!tile_intersects(&base, 1, 1, 1, &rect));
        // Every tile of a level intersects the full window.
        let ((x0, x1), (y0, y1)) = base.window();
        let full = [x0, x1, y0, y1];
        for x in 0..4 {
            for y in 0..4 {
                assert!(tile_intersects(&base, 2, x, y, &full));
            }
        }
    }
}
