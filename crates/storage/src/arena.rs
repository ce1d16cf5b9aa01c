//! Flat, row-major storage for fixed-dimension vectors.
//!
//! The paper's hot loop — scanning the points of a leaf page against a
//! query — is memory-bound long before it is compute-bound. Storing each
//! point as its own heap allocation (`Vec<Point>`, each a `Box<[f64]>`)
//! makes that scan a pointer chase; a [`VectorArena`] instead packs all
//! rows of one leaf into a single `Vec<f64>`:
//!
//! ```text
//! dim = 3, len = 4
//! data: [ x0 y0 z0 | x1 y1 z1 | x2 y2 z2 | x3 y3 z3 ]
//!         row(0)     row(1)     row(2)     row(3)
//! ```
//!
//! so a leaf scan is one linear sweep the prefetcher can follow, and the
//! whole block can be handed to the batch distance kernel
//! (`parsim_geometry::kernel::dist2_batch`) at once.
//!
//! # Scan-order permutation
//!
//! A block may additionally carry a **coordinate permutation** (set by the
//! bulk loader's energy ordering, see `DESIGN.md`, "Scan order"): the scan
//! mirrors below — and a permuted f64 copy of the rows — store lane
//! `perm[p]` of each row at position `p`, so the highest-variance
//! coordinates come first and partial-distance abandons fire earlier. The
//! canonical `data` stays in natural order (every mutation path, MBR
//! computation and exact re-rank reads it), at the cost of one extra
//! `8·dim` bytes per row on permuted blocks. Queries are permuted once per
//! block by the scanner; answers stay bit-identical because the permuted
//! sweep only *filters* rows (with a certification pad) and survivors are
//! re-ranked on the natural rows.
//!
//! # Precision mirrors
//!
//! Next to the canonical f64 rows the arena maintains two cheap mirrors,
//! built eagerly by [`VectorArena::from_rows`] and kept in sync on every
//! [`VectorArena::push`] / `swap_remove` / `clear`, so bulk load,
//! persistence and incremental inserts all get them for free. Both live in
//! **scan order** (permuted when a permutation is set):
//!
//! * an **f32 mirror** (same row-major layout, each coordinate cast), with
//!   [`VectorArena::f32_radius`] — the largest certified displacement
//!   `‖row − row₃₂‖₂` over all rows, and
//! * a **q8 mirror**: every coordinate scalar-quantized to a u8 code on a
//!   **per-dimension** uniform grid `value ≈ q8_min[j] + code·q8_scale[j]`,
//!   each lane's grid spanning that lane's min/max over the block, with
//!   [`VectorArena::q8_radius`] the matching displacement bound. Per-lane
//!   grids are dramatically tighter than the old per-block grid on data
//!   whose coordinates live in different bands (a narrow lane no longer
//!   inherits the widest lane's step), and a constant lane quantizes
//!   *exactly* instead of degenerating the whole block.
//!
//! The mirrors never answer anything on their own; the two-phase leaf
//! scan uses them with the certified lower-bound helpers in
//! `parsim_geometry::kernel` and re-ranks every surviving row with the
//! f64 kernels. The radii are deliberately maintained as *overestimates*
//! (a `swap_remove` keeps the old maximum, a grid widened by requantize
//! keeps its new radius): a too-large radius only weakens pruning, never
//! correctness.
//!
//! # Building a block
//!
//! [`VectorArena::push`] is the incremental path. A pushed row that falls
//! outside the current q8 grid widens it and re-encodes the *whole* block,
//! O(len·dim) per push. Early in a block almost every row widens some lane,
//! so filling an arena push by push costs close to O(len²·dim). Callers
//! that have all rows at hand use [`VectorArena::from_rows`], which builds
//! the identical state in one pass. For 10⁴ clustered rows at d = 48 on a
//! 2-CPU x86-64 host that is 1.2 µs per row against 53 µs for pushing
//! (`arena_build` in the `distance_kernels` bench).

use parsim_geometry::kernel::{
    displacement_norm_f32, displacement_norm_q8w, displacement_norm_q8w_query, Q8W_CODE_CAP,
};

/// A row-major block of `len()` vectors of `dim` coordinates each, plus
/// f32 and q8 mirrors for the cheap scan tiers and an optional coordinate
/// permutation for energy-ordered scans (see the module docs).
#[derive(Clone, Debug)]
pub struct VectorArena {
    dim: usize,
    /// Canonical rows, natural coordinate order.
    data: Vec<f64>,
    /// Scan-order lane map: stored lane `p` holds natural coordinate
    /// `perm[p]`. Empty = identity (no permuted copy is kept).
    perm: Vec<u32>,
    /// Row-major permuted copy of `data` (empty while `perm` is).
    pdata: Vec<f64>,
    /// Row-major f32 casts of the rows, in scan order.
    mirror32: Vec<f32>,
    /// Max over rows of the certified displacement `‖row − row₃₂‖₂`.
    r32: f64,
    /// Row-major u8 codes of the rows on the per-lane grids, scan order.
    codes: Vec<u8>,
    /// Per-lane grid origin (lane minimum at last requantize); empty while
    /// the block is.
    qmin: Vec<f64>,
    /// Per-lane maximum at last requantize.
    qmax: Vec<f64>,
    /// Per-lane grid step `(qmax − qmin) / 255`; `0` for constant lanes.
    qscale: Vec<f64>,
    /// Per-lane squared step (the weight vector of the q8w kernels).
    wq8: Vec<f64>,
    /// Max over rows of the certified displacement `‖row − roŵ‖₂`.
    rq8: f64,
    /// Reused per-push scratch for the scan-order row.
    scratch: Vec<f64>,
}

/// Two arenas are equal when they hold the same rows. The permutation and
/// the mirror state are excluded on purpose: they are derived caches whose
/// exact radii and grids depend on the *history* of pushes and removals
/// (overestimates are kept across `swap_remove`), so two arenas with
/// identical contents built along different paths still compare equal.
impl PartialEq for VectorArena {
    fn eq(&self, other: &Self) -> bool {
        self.dim == other.dim && self.data == other.data
    }
}

/// Encodes one coordinate on a lane grid; degenerate lanes (`scale = 0`)
/// map everything to code 0, which reconstructs the lane minimum exactly.
#[inline]
fn encode(v: f64, qmin: f64, qscale: f64) -> u8 {
    if qscale > 0.0 && qscale.is_finite() {
        ((v - qmin) / qscale).round().clamp(0.0, 255.0) as u8
    } else {
        0
    }
}

impl VectorArena {
    /// An empty arena for vectors of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0`.
    pub fn new(dim: usize) -> Self {
        VectorArena::with_capacity(dim, 0)
    }

    /// An empty arena with room for `rows` vectors before reallocation.
    pub fn with_capacity(dim: usize, rows: usize) -> Self {
        assert!(dim > 0, "zero-dimensional arena");
        VectorArena {
            dim,
            data: Vec::with_capacity(dim * rows),
            perm: Vec::new(),
            pdata: Vec::new(),
            mirror32: Vec::with_capacity(dim * rows),
            r32: 0.0,
            codes: Vec::with_capacity(dim * rows),
            qmin: Vec::new(),
            qmax: Vec::new(),
            qscale: Vec::new(),
            wq8: Vec::new(),
            rq8: 0.0,
            scratch: Vec::with_capacity(dim),
        }
    }

    /// Vector dimension of every row.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows stored.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// True if no rows are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Appends one row (natural coordinate order; the scan mirrors are
    /// updated in the block's current scan order).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim()`.
    #[inline]
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        self.data.extend_from_slice(row);
        // Scan-order view of the incoming row.
        let mut srow = std::mem::take(&mut self.scratch);
        srow.clear();
        if self.perm.is_empty() {
            srow.extend_from_slice(row);
        } else {
            srow.extend(self.perm.iter().map(|&p| row[p as usize]));
            self.pdata.extend_from_slice(&srow);
        }
        // f32 mirror: cast the row, fold its displacement into the radius.
        let start32 = self.mirror32.len();
        self.mirror32.extend(srow.iter().map(|&v| v as f32));
        self.r32 = self
            .r32
            .max(displacement_norm_f32(&srow, &self.mirror32[start32..]));
        // q8 mirror: encode on the current per-lane grids when every lane
        // fits, otherwise widen the grids and requantize the whole block.
        let fits = !self.qmin.is_empty()
            && srow
                .iter()
                .zip(self.qmin.iter().zip(&self.qmax))
                .all(|(&v, (&lo, &hi))| v >= lo && v <= hi);
        if fits {
            let startq = self.codes.len();
            self.codes.extend(
                srow.iter()
                    .enumerate()
                    .map(|(j, &v)| encode(v, self.qmin[j], self.qscale[j])),
            );
            self.rq8 = self.rq8.max(displacement_norm_q8w(
                &srow,
                &self.codes[startq..],
                &self.qmin,
                &self.qscale,
            ));
        } else {
            if self.qmin.is_empty() {
                self.qmin = vec![f64::INFINITY; self.dim];
                self.qmax = vec![f64::NEG_INFINITY; self.dim];
            }
            for (j, &v) in srow.iter().enumerate() {
                self.qmin[j] = self.qmin[j].min(v);
                self.qmax[j] = self.qmax[j].max(v);
            }
            self.requantize();
        }
        self.scratch = srow;
    }

    /// Builds an arena from `rows` (natural coordinate order) in one pass:
    /// the rows are copied, then the f32 mirror, the per-lane q8 grids, the
    /// codes and both radii are computed once. The result is bit-for-bit
    /// the arena that [`VectorArena::push`]ing the same rows one at a time,
    /// in the same order, produces, at O(len·dim) instead of one
    /// O(len·dim) requantize per grid-widening push. Every bulk caller
    /// (leaf blocks of bulk load, reorganize, persisted-tree load and
    /// splits) builds its block here.
    ///
    /// # Panics
    ///
    /// Panics if `dim == 0` or a row's length differs from `dim`.
    pub fn from_rows<'a>(dim: usize, rows: impl IntoIterator<Item = &'a [f64]>) -> Self {
        let rows = rows.into_iter();
        let mut arena = VectorArena::with_capacity(dim, rows.size_hint().0);
        for row in rows {
            assert_eq!(row.len(), dim, "row dimension mismatch");
            arena.data.extend_from_slice(row);
        }
        arena.rebuild_f32();
        if arena.data.is_empty() {
            return arena;
        }
        // Replay the grid evolution of `push`: only a row that falls
        // outside the current grids widens them (a row that fits is never
        // folded in, which can decide the sign of a zero bound), and the
        // last widening row is where `push` last requantized.
        let mut qmin = vec![f64::INFINITY; dim];
        let mut qmax = vec![f64::NEG_INFINITY; dim];
        let mut last_widened = 0;
        for (i, row) in arena.data.chunks_exact(dim).enumerate() {
            let fits = row
                .iter()
                .zip(qmin.iter().zip(&qmax))
                .all(|(&v, (&lo, &hi))| v >= lo && v <= hi);
            if !fits {
                for (j, &v) in row.iter().enumerate() {
                    qmin[j] = qmin[j].min(v);
                    qmax[j] = qmax[j].max(v);
                }
                last_widened = i;
            }
        }
        arena.qmin = qmin;
        arena.qmax = qmax;
        arena.requantize();
        if arena.q8_grid().is_none() {
            // An overflowed grid leaves placeholder codes at requantize,
            // but `push` still encodes the rows that fit it afterwards.
            let (data, codes) = (&arena.data, &mut arena.codes);
            for (row, out) in data
                .chunks_exact(dim)
                .zip(codes.chunks_exact_mut(dim))
                .skip(last_widened + 1)
            {
                for (j, (c, &v)) in out.iter_mut().zip(row).enumerate() {
                    *c = encode(v, arena.qmin[j], arena.qscale[j]);
                }
            }
        }
        arena
    }

    /// Rebuilds the whole q8 mirror on the current per-lane `[qmin, qmax]`
    /// ranges.
    fn requantize(&mut self) {
        self.qscale.clear();
        self.qscale
            .extend(self.qmin.iter().zip(&self.qmax).map(|(&lo, &hi)| {
                if hi > lo {
                    (hi - lo) / 255.0
                } else {
                    0.0
                }
            }));
        self.wq8.clear();
        self.wq8.extend(self.qscale.iter().map(|&s| s * s));
        if self.qscale.iter().any(|s| !s.is_finite()) {
            // Range overflow (coords near ±f64::MAX): no usable grid. Keep
            // placeholder codes and an infinite radius so the q8 tier
            // certifies nothing for this block.
            self.codes.clear();
            self.codes.resize(self.data.len(), 0);
            self.rq8 = f64::INFINITY;
            return;
        }
        let stored: &[f64] = if self.perm.is_empty() {
            &self.data
        } else {
            &self.pdata
        };
        let mut codes = std::mem::take(&mut self.codes);
        codes.clear();
        let mut r = 0.0f64;
        for row in stored.chunks_exact(self.dim) {
            let start = codes.len();
            codes.extend(
                row.iter()
                    .enumerate()
                    .map(|(j, &v)| encode(v, self.qmin[j], self.qscale[j])),
            );
            r = r.max(displacement_norm_q8w(
                row,
                &codes[start..],
                &self.qmin,
                &self.qscale,
            ));
        }
        self.codes = codes;
        self.rq8 = r;
    }

    /// Installs a scan-order permutation (stored lane `p` ← natural
    /// coordinate `perm[p]`) and rebuilds the permuted copy, the f32
    /// mirror and the q8 mirror in the new order. An identity permutation
    /// drops back to the plain natural layout (no permuted copy kept).
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..dim`.
    pub fn set_permutation(&mut self, perm: Vec<u32>) {
        assert_eq!(perm.len(), self.dim, "permutation dimension mismatch");
        let mut seen = vec![false; self.dim];
        for &p in &perm {
            assert!(
                (p as usize) < self.dim && !seen[p as usize],
                "not a permutation of 0..dim"
            );
            seen[p as usize] = true;
        }
        if perm.iter().enumerate().all(|(i, &p)| p as usize == i) {
            if self.perm.is_empty() {
                return;
            }
            self.perm.clear();
            self.pdata.clear();
        } else {
            self.perm = perm;
            self.pdata.clear();
            self.pdata.reserve(self.data.len());
            let (perm, data) = (&self.perm, &self.data);
            for row in data.chunks_exact(self.dim) {
                self.pdata.extend(perm.iter().map(|&p| row[p as usize]));
            }
        }
        self.rebuild_mirrors();
    }

    /// Recomputes the f32 and q8 mirrors from scratch in the current scan
    /// order (tight radii, tight per-lane grids).
    fn rebuild_mirrors(&mut self) {
        self.rebuild_f32();
        // q8 mirror: fresh per-lane ranges, then requantize.
        if self.data.is_empty() {
            self.qmin.clear();
            self.qmax.clear();
            self.qscale.clear();
            self.wq8.clear();
            self.codes.clear();
            self.rq8 = 0.0;
            return;
        }
        let mut qmin = vec![f64::INFINITY; self.dim];
        let mut qmax = vec![f64::NEG_INFINITY; self.dim];
        for row in self.as_flat_scan().chunks_exact(self.dim) {
            for (j, &v) in row.iter().enumerate() {
                qmin[j] = qmin[j].min(v);
                qmax[j] = qmax[j].max(v);
            }
        }
        self.qmin = qmin;
        self.qmax = qmax;
        self.requantize();
    }

    /// Recomputes the f32 mirror and its radius from scratch, in the
    /// current scan order.
    fn rebuild_f32(&mut self) {
        let mut mirror32 = std::mem::take(&mut self.mirror32);
        mirror32.clear();
        let mut r32 = 0.0f64;
        for row in self.as_flat_scan().chunks_exact(self.dim) {
            let start = mirror32.len();
            mirror32.extend(row.iter().map(|&v| v as f32));
            r32 = r32.max(displacement_norm_f32(row, &mirror32[start..]));
        }
        self.mirror32 = mirror32;
        self.r32 = r32;
    }

    /// The scan-order permutation, or `None` while the layout is natural.
    #[inline]
    pub fn scan_perm(&self) -> Option<&[u32]> {
        if self.perm.is_empty() {
            None
        } else {
            Some(&self.perm)
        }
    }

    /// The `i`-th row (natural coordinate order).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole arena as one flat row-major slice in **natural** order —
    /// the block view the exact batch distance kernel consumes.
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// The whole arena as one flat row-major slice in **scan** order: the
    /// permuted copy when a permutation is set, otherwise the natural
    /// rows. This is the view the energy-ordered f64 filter sweeps.
    #[inline]
    pub fn as_flat_scan(&self) -> &[f64] {
        if self.perm.is_empty() {
            &self.data
        } else {
            &self.pdata
        }
    }

    /// The f32 mirror as one flat row-major slice, in scan order (permute
    /// the query with [`VectorArena::scan_perm`] before comparing).
    #[inline]
    pub fn as_flat_f32(&self) -> &[f32] {
        &self.mirror32
    }

    /// Certified overestimate of `max_rows ‖row − row₃₂‖₂` — the `r_x`
    /// input of the f32 lower-bound helpers. May be stale-high after
    /// removals (overestimates are always safe). Permutation-invariant:
    /// the underlying norms do not depend on lane order and the stored
    /// value is an inflated overestimate either way.
    #[inline]
    pub fn f32_radius(&self) -> f64 {
        self.r32
    }

    /// The q8 code mirror as one flat row-major slice, in scan order.
    #[inline]
    pub fn as_codes(&self) -> &[u8] {
        &self.codes
    }

    /// The per-lane q8 grids `(mins, scales)` (scan-order lanes) when they
    /// are usable for certified pruning, `None` while degenerate (empty
    /// block, or a lane range too wide for a finite scale). Constant lanes
    /// are *not* degenerate — their scale is `0` and they reconstruct
    /// exactly. Callers must scan degenerate blocks on the f64 path.
    #[inline]
    pub fn q8_grid(&self) -> Option<(&[f64], &[f64])> {
        if !self.qscale.is_empty() && self.qscale.iter().all(|s| s.is_finite()) {
            Some((&self.qmin, &self.qscale))
        } else {
            None
        }
    }

    /// The per-lane squared grid steps — the weight vector of the
    /// `dist2_q8w*` kernels. Valid whenever [`VectorArena::q8_grid`] is
    /// `Some`.
    #[inline]
    pub fn q8_weights(&self) -> &[f64] {
        &self.wq8
    }

    /// Certified overestimate of `max_rows ‖row − roŵ‖₂` over the q8
    /// reconstructions — the `r_x` input of the q8 lower-bound helpers.
    #[inline]
    pub fn q8_radius(&self) -> f64 {
        self.rq8
    }

    /// Quantizes a query (natural coordinate order) onto this block's
    /// per-lane grids, writing scan-order **wide** i32 codes into `out`,
    /// and returns the certified displacement `‖query − querŷ‖₂` — the
    /// `r_q` input of the q8 helpers. Query coordinates outside a lane's
    /// range encode beyond `[0, 255]` instead of clamping to the grid edge
    /// (per-leaf lanes are narrow, and an edge-clamped far query would
    /// inflate `r_q` to its whole distance from the leaf); only the
    /// `±Q8W_CODE_CAP` exactness cap clamps, with the residual honestly
    /// charged to the returned displacement.
    ///
    /// Call only when [`VectorArena::q8_grid`] is `Some`.
    ///
    /// # Panics
    ///
    /// Panics if `query.len() != self.dim()`.
    pub fn quantize_query(&self, query: &[f64], out: &mut Vec<i32>) -> f64 {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        debug_assert!(self.q8_grid().is_some(), "degenerate q8 grid");
        let qencode = |v: f64, lo: f64, scale: f64| -> i32 {
            if scale > 0.0 {
                ((v - lo) / scale)
                    .round()
                    .clamp(-(Q8W_CODE_CAP as f64), Q8W_CODE_CAP as f64) as i32
            } else {
                0
            }
        };
        out.clear();
        if self.perm.is_empty() {
            out.extend(
                query
                    .iter()
                    .enumerate()
                    .map(|(j, &v)| qencode(v, self.qmin[j], self.qscale[j])),
            );
            displacement_norm_q8w_query(query, out, &self.qmin, &self.qscale)
        } else {
            let qp: Vec<f64> = self.perm.iter().map(|&p| query[p as usize]).collect();
            out.extend(
                qp.iter()
                    .enumerate()
                    .map(|(j, &v)| qencode(v, self.qmin[j], self.qscale[j])),
            );
            displacement_norm_q8w_query(&qp, out, &self.qmin, &self.qscale)
        }
    }

    /// Iterates over the rows in order (natural coordinate order).
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim)
    }

    /// Removes row `i` by moving the last row into its slot (O(dim), does
    /// not preserve order) — mirrors `Vec::swap_remove`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn swap_remove(&mut self, i: usize) {
        let last = self.len() - 1;
        assert!(i <= last, "row index out of bounds");
        if i < last {
            for c in 0..self.dim {
                self.data[i * self.dim + c] = self.data[last * self.dim + c];
                self.mirror32[i * self.dim + c] = self.mirror32[last * self.dim + c];
                self.codes[i * self.dim + c] = self.codes[last * self.dim + c];
                if !self.pdata.is_empty() {
                    self.pdata[i * self.dim + c] = self.pdata[last * self.dim + c];
                }
            }
        }
        self.data.truncate(last * self.dim);
        self.mirror32.truncate(last * self.dim);
        self.codes.truncate(last * self.dim);
        self.pdata.truncate(self.pdata.len().min(last * self.dim));
        // The radii, the grids and the permutation stay: they remain valid
        // for the surviving rows (shrinking them would require a rescan).
    }

    /// Removes all rows, keeping the allocation, the dimension and the
    /// scan-order permutation.
    pub fn clear(&mut self) {
        self.data.clear();
        self.pdata.clear();
        self.mirror32.clear();
        self.r32 = 0.0;
        self.codes.clear();
        self.qmin.clear();
        self.qmax.clear();
        self.qscale.clear();
        self.wq8.clear();
        self.rq8 = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_row_and_flat_views_agree() {
        let mut a = VectorArena::new(3);
        assert!(a.is_empty());
        a.push(&[1.0, 2.0, 3.0]);
        a.push(&[4.0, 5.0, 6.0]);
        assert_eq!(a.len(), 2);
        assert_eq!(a.dim(), 3);
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(a.as_flat(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // Natural layout: the scan view aliases the canonical rows.
        assert_eq!(a.as_flat_scan(), a.as_flat());
        assert!(a.scan_perm().is_none());
        let rows: Vec<&[f64]> = a.iter().collect();
        assert_eq!(rows, vec![&[1.0, 2.0, 3.0][..], &[4.0, 5.0, 6.0][..]]);
    }

    #[test]
    fn swap_remove_moves_last_row() {
        let mut a = VectorArena::with_capacity(2, 3);
        a.push(&[1.0, 1.0]);
        a.push(&[2.0, 2.0]);
        a.push(&[3.0, 3.0]);
        a.swap_remove(0);
        assert_eq!(a.len(), 2);
        assert_eq!(a.row(0), &[3.0, 3.0]);
        assert_eq!(a.row(1), &[2.0, 2.0]);
        // Removing the last row is a plain truncate.
        a.swap_remove(1);
        assert_eq!(a.len(), 1);
        assert_eq!(a.row(0), &[3.0, 3.0]);
    }

    #[test]
    fn clear_keeps_dimension() {
        let mut a = VectorArena::new(4);
        a.push(&[0.0; 4]);
        a.clear();
        assert!(a.is_empty());
        assert_eq!(a.dim(), 4);
        a.push(&[1.0; 4]);
        assert_eq!(a.len(), 1);
    }

    #[test]
    #[should_panic(expected = "row dimension mismatch")]
    fn push_rejects_wrong_dimension() {
        VectorArena::new(3).push(&[0.0, 0.0]);
    }

    #[test]
    fn f32_mirror_tracks_rows_and_radius() {
        let mut a = VectorArena::new(2);
        a.push(&[0.1, 0.2]);
        a.push(&[0.3, 0.4]);
        assert_eq!(a.as_flat_f32().len(), 4);
        for (v, m) in a.as_flat().iter().zip(a.as_flat_f32()) {
            assert_eq!(*m, *v as f32);
        }
        // The radius bounds every row's actual displacement.
        for (row, m) in a
            .iter()
            .zip(a.as_flat_f32().chunks_exact(2))
            .collect::<Vec<_>>()
        {
            let d: f64 = row
                .iter()
                .zip(m)
                .map(|(x, y)| (x - *y as f64).powi(2))
                .sum::<f64>()
                .sqrt();
            assert!(d <= a.f32_radius());
        }
        // swap_remove keeps the mirror aligned.
        a.push(&[0.5, 0.6]);
        a.swap_remove(0);
        for (v, m) in a.as_flat().iter().zip(a.as_flat_f32()) {
            assert_eq!(*m, *v as f32);
        }
    }

    #[test]
    fn q8_mirror_reconstructs_within_radius() {
        let mut a = VectorArena::new(3);
        a.push(&[0.0, 0.5, 1.0]);
        a.push(&[0.25, 0.75, 0.1]);
        a.push(&[0.9, 0.2, 0.6]);
        let (mins, scales) = a.q8_grid().expect("non-degenerate block");
        let (mins, scales) = (mins.to_vec(), scales.to_vec());
        for (row, codes) in a.iter().zip(a.as_codes().chunks_exact(3)) {
            let d: f64 = row
                .iter()
                .zip(codes)
                .enumerate()
                .map(|(j, (x, c))| (x - (mins[j] + *c as f64 * scales[j])).powi(2))
                .sum::<f64>()
                .sqrt();
            assert!(d <= a.q8_radius(), "row {row:?}: {d} > {}", a.q8_radius());
            // Scalar quantization on a 255-step grid: each coordinate is
            // within half its lane's step of its reconstruction.
            for (j, (x, c)) in row.iter().zip(codes).enumerate() {
                assert!((x - (mins[j] + *c as f64 * scales[j])).abs() <= scales[j] * 0.51);
            }
        }
        // The weights are the squared per-lane steps.
        for (w, s) in a.q8_weights().iter().zip(&scales) {
            assert_eq!(*w, s * s);
        }
    }

    #[test]
    fn q8_grids_are_per_dimension() {
        // One narrow lane and one wide lane: the narrow lane's step must
        // not inherit the wide range (the whole point of per-lane grids).
        let mut a = VectorArena::new(2);
        a.push(&[0.0, 0.0]);
        a.push(&[0.001, 100.0]);
        let (_, scales) = a.q8_grid().unwrap();
        assert!(scales[0] <= 0.001 / 255.0 * 1.0001);
        assert!(scales[1] >= 100.0 / 255.0 * 0.9999);
        // A constant lane quantizes exactly (scale 0), block stays usable.
        let mut b = VectorArena::new(2);
        b.push(&[0.5, 0.1]);
        b.push(&[0.5, 0.9]);
        let (mins, scales) = b.q8_grid().expect("constant lane must not degenerate");
        assert_eq!(scales[0], 0.0);
        assert_eq!(mins[0], 0.5);
        assert!(scales[1] > 0.0);
        assert_eq!(b.q8_weights()[0], 0.0);
    }

    #[test]
    fn q8_grid_widens_on_out_of_range_push() {
        let mut a = VectorArena::new(1);
        a.push(&[0.0]);
        a.push(&[1.0]);
        let scale_before = a.q8_grid().unwrap().1[0];
        a.push(&[10.0]); // outside [0, 1] — must requantize
        let (mins, scales) = a.q8_grid().unwrap();
        let (min, scale) = (mins[0], scales[0]);
        assert_eq!(min, 0.0);
        assert!(scale > scale_before);
        // All rows are re-encoded on the new grid.
        for (row, c) in a.iter().zip(a.as_codes()) {
            assert!((row[0] - (min + *c as f64 * scale)).abs() <= scale);
        }
    }

    #[test]
    fn degenerate_blocks_opt_out_of_q8() {
        let mut a = VectorArena::new(2);
        assert!(a.q8_grid().is_none(), "empty block has no grid");
        a.push(&[0.5, 0.5]);
        // Per-lane grids: even a constant block is exactly representable.
        let (mins, scales) = a.q8_grid().expect("constant block is exact per-lane");
        assert_eq!(scales, &[0.0, 0.0]);
        assert_eq!(mins, &[0.5, 0.5]);
        // Reconstruction is exact; the radius only carries the certified
        // rounding pad.
        assert!(a.q8_radius() < 1e-12);
        // A lane range too wide for a finite scale degenerates the block.
        let mut b = VectorArena::new(1);
        b.push(&[f64::MAX]);
        b.push(&[f64::MIN]);
        assert!(b.q8_grid().is_none(), "overflowing range has no grid");
        assert_eq!(b.q8_radius(), f64::INFINITY);
    }

    #[test]
    fn quantize_query_uses_wide_codes_and_bounds_displacement() {
        let mut a = VectorArena::new(2);
        a.push(&[0.0, 0.0]);
        a.push(&[1.0, 1.0]);
        let (mins, scales) = a.q8_grid().unwrap();
        let (mins, scales) = (mins.to_vec(), scales.to_vec());
        let mut codes = Vec::new();
        // In-range query: displacement within half a grid step per axis.
        let q = [0.25, 0.75];
        let rq = a.quantize_query(&q, &mut codes);
        let actual: f64 = q
            .iter()
            .zip(&codes)
            .enumerate()
            .map(|(j, (x, c))| (x - (mins[j] + *c as f64 * scales[j])).powi(2))
            .sum::<f64>()
            .sqrt();
        assert!(actual <= rq && rq <= scales[0] * 2.0);
        // Out-of-range query: codes run past [0, 255] on the lane's grid
        // instead of clamping, so the displacement stays a fraction of a
        // grid step and q8 pruning keeps its full margin.
        let far = [5.0, -5.0];
        let rq = a.quantize_query(&far, &mut codes);
        assert!(codes[0] > 255 && codes[1] < 0, "{codes:?}");
        assert!(rq <= scales[0] * 2.0, "far query rq must stay tiny: {rq}");
        // Only the exactness cap clamps; the huge residual is then charged
        // to the displacement honestly.
        let mut b = VectorArena::new(1);
        b.push(&[0.0]);
        b.push(&[2.55e-13]);
        let rq = b.quantize_query(&[1.0], &mut codes);
        assert_eq!(codes[0], 1 << 25);
        assert!(rq >= 0.9, "capped code must report its residual: {rq}");
    }

    #[test]
    fn permutation_reorders_scan_views_only() {
        let mut a = VectorArena::new(3);
        a.push(&[1.0, 2.0, 3.0]);
        a.push(&[4.0, 5.0, 6.0]);
        a.set_permutation(vec![2, 0, 1]);
        // Canonical rows untouched.
        assert_eq!(a.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(a.as_flat(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // Scan views permuted.
        assert_eq!(a.scan_perm(), Some(&[2u32, 0, 1][..]));
        assert_eq!(a.as_flat_scan(), &[3.0, 1.0, 2.0, 6.0, 4.0, 5.0]);
        assert_eq!(a.as_flat_f32(), &[3.0f32, 1.0, 2.0, 6.0, 4.0, 5.0]);
        // q8 grids follow the stored lanes.
        let (mins, _) = a.q8_grid().unwrap();
        assert_eq!(mins, &[3.0, 1.0, 2.0]);
        // Pushes maintain the permuted views.
        a.push(&[7.0, 8.0, 9.0]);
        assert_eq!(&a.as_flat_scan()[6..], &[9.0, 7.0, 8.0]);
        assert_eq!(a.row(2), &[7.0, 8.0, 9.0]);
        // swap_remove keeps all views aligned.
        a.swap_remove(0);
        assert_eq!(a.row(0), &[7.0, 8.0, 9.0]);
        assert_eq!(&a.as_flat_scan()[..3], &[9.0, 7.0, 8.0]);
        for (v, m) in a.as_flat_scan().iter().zip(a.as_flat_f32()) {
            assert_eq!(*m, *v as f32);
        }
        // Quantized queries come back in scan order.
        let mut codes = Vec::new();
        a.quantize_query(&[4.0, 5.0, 6.0], &mut codes);
        let (mins, scales) = a.q8_grid().unwrap();
        for (j, &c) in codes.iter().enumerate() {
            let recon = mins[j] + c as f64 * scales[j];
            let want = [6.0, 4.0, 5.0][j];
            assert!(
                (recon - want).abs() <= scales[j].max(1e-12),
                "lane {j}: {recon} vs {want}"
            );
        }
        // Identity permutation drops the permuted copy again.
        a.set_permutation(vec![0, 1, 2]);
        assert!(a.scan_perm().is_none());
        assert_eq!(a.as_flat_scan(), a.as_flat());
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn set_permutation_rejects_non_permutations() {
        let mut a = VectorArena::new(3);
        a.push(&[1.0, 2.0, 3.0]);
        a.set_permutation(vec![0, 0, 1]);
    }

    #[test]
    fn clear_resets_mirrors() {
        let mut a = VectorArena::new(2);
        a.push(&[0.0, 1.0]);
        a.push(&[0.5, 0.25]);
        a.clear();
        assert!(a.as_flat_f32().is_empty());
        assert!(a.as_codes().is_empty());
        assert_eq!(a.f32_radius(), 0.0);
        assert_eq!(a.q8_radius(), 0.0);
        assert!(a.q8_grid().is_none());
    }

    #[test]
    #[should_panic(expected = "zero-dimensional")]
    fn zero_dim_rejected() {
        VectorArena::new(0);
    }
}
