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
//! # Precision mirrors
//!
//! Next to the canonical f64 rows the arena can hold two cheap mirrors
//! for the f32 and q8 scan tiers. They are a cache, built on first use:
//! the first call to any mirror accessor ([`VectorArena::as_flat_f32`],
//! [`VectorArena::f32_radius`], [`VectorArena::as_codes`],
//! [`VectorArena::q8_grid`], [`VectorArena::q8_weights`],
//! [`VectorArena::q8_radius`], [`VectorArena::quantize_query`]) builds
//! both from the rows in O(len·dim), and [`VectorArena::push`],
//! `swap_remove` and `clear` drop them. An arena that only the f64 tier
//! reads never allocates them. Both keep the rows' own coordinate order:
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
//! f64 kernels. The radii are *overestimates*: a too-large radius only
//! weakens pruning, never correctness.
//!
//! The build is a deterministic function of the rows in storage order,
//! so the mirrors are the same whether the block was built by
//! [`VectorArena::from_rows`] or push by push, and after a `swap_remove`
//! they are exact for the surviving rows. It widens the grids row by row,
//! folding in only a row that falls outside them so far (which can
//! decide the sign of a zero bound), so a block's grids and codes are the
//! ones an incremental fill gives.

use std::sync::OnceLock;

use parsim_geometry::kernel::{
    displacement_norm_f32, displacement_norm_q8w, displacement_norm_q8w_query, Q8W_CODE_CAP,
};

/// A row-major block of `len()` vectors of `dim` coordinates each, plus
/// f32 and q8 mirrors for the cheap scan tiers, built on first use (see
/// the module docs).
#[derive(Clone, Debug)]
pub struct VectorArena {
    dim: usize,
    /// Canonical rows.
    data: Vec<f64>,
    /// The cheap-tier mirrors of `data`, built by the first accessor that
    /// needs them and dropped by every write. Boxed so that an arena
    /// without them stays small.
    mirrors: OnceLock<Box<Mirrors>>,
}

/// The f32 and q8 views of an arena's rows.
#[derive(Clone, Debug)]
struct Mirrors {
    /// Row-major f32 casts of the rows.
    mirror32: Vec<f32>,
    /// Max over rows of the certified displacement `‖row − row₃₂‖₂`.
    r32: f64,
    /// Row-major u8 codes of the rows on the per-lane grids.
    codes: Vec<u8>,
    /// Per-lane grid origin (lane minimum); empty while the block is.
    qmin: Vec<f64>,
    /// Per-lane grid step `(qmax − qmin) / 255`; `0` for constant lanes.
    qscale: Vec<f64>,
    /// Per-lane squared step (the weight vector of the q8w kernels).
    wq8: Vec<f64>,
    /// Max over rows of the certified displacement `‖row − roŵ‖₂`.
    rq8: f64,
}

/// Two arenas are equal when they hold the same rows. The mirrors are
/// excluded on purpose: they are a derived cache that one arena may have
/// built and the other not.
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

impl Mirrors {
    /// Builds both mirrors of the row-major `data` in one pass each.
    fn build(dim: usize, data: &[f64]) -> Self {
        let mut mirror32 = Vec::with_capacity(data.len());
        let mut r32 = 0.0f64;
        for row in data.chunks_exact(dim) {
            let start = mirror32.len();
            mirror32.extend(row.iter().map(|&v| v as f32));
            r32 = r32.max(displacement_norm_f32(row, &mirror32[start..]));
        }
        let mut m = Mirrors {
            mirror32,
            r32,
            codes: Vec::new(),
            qmin: Vec::new(),
            qscale: Vec::new(),
            wq8: Vec::new(),
            rq8: 0.0,
        };
        if data.is_empty() {
            return m;
        }
        // Widen the grids row by row: only a row that falls outside the
        // current grids widens them, and the last widening row is where
        // they were last set.
        let mut qmin = vec![f64::INFINITY; dim];
        let mut qmax = vec![f64::NEG_INFINITY; dim];
        let mut last_widened = 0;
        for (i, row) in data.chunks_exact(dim).enumerate() {
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
        m.qscale = qmin
            .iter()
            .zip(&qmax)
            .map(|(&lo, &hi)| if hi > lo { (hi - lo) / 255.0 } else { 0.0 })
            .collect();
        m.wq8 = m.qscale.iter().map(|&s| s * s).collect();
        m.qmin = qmin;
        if m.qscale.iter().any(|s| !s.is_finite()) {
            // Range overflow (coords near ±f64::MAX): no usable grid, and
            // an infinite radius so the q8 tier certifies nothing for this
            // block. The rows up to the last widening one keep placeholder
            // codes; the rows after it are encoded on the lanes that have
            // a finite step, as an incremental fill encodes them.
            m.codes = vec![0; data.len()];
            m.rq8 = f64::INFINITY;
            for (row, out) in data
                .chunks_exact(dim)
                .zip(m.codes.chunks_exact_mut(dim))
                .skip(last_widened + 1)
            {
                for (j, (c, &v)) in out.iter_mut().zip(row).enumerate() {
                    *c = encode(v, m.qmin[j], m.qscale[j]);
                }
            }
            return m;
        }
        m.codes.reserve_exact(data.len());
        for row in data.chunks_exact(dim) {
            let start = m.codes.len();
            m.codes.extend(
                row.iter()
                    .enumerate()
                    .map(|(j, &v)| encode(v, m.qmin[j], m.qscale[j])),
            );
            m.rq8 = m.rq8.max(displacement_norm_q8w(
                row,
                &m.codes[start..],
                &m.qmin,
                &m.qscale,
            ));
        }
        m
    }

    /// The per-lane grids when usable for certified pruning.
    fn q8_grid(&self) -> Option<(&[f64], &[f64])> {
        if !self.qscale.is_empty() && self.qscale.iter().all(|s| s.is_finite()) {
            Some((&self.qmin, &self.qscale))
        } else {
            None
        }
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
            mirrors: OnceLock::new(),
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

    /// Appends one row and drops the mirrors.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim()`.
    #[inline]
    pub fn push(&mut self, row: &[f64]) {
        assert_eq!(row.len(), self.dim, "row dimension mismatch");
        self.data.extend_from_slice(row);
        self.mirrors.take();
    }

    /// Builds an arena from `rows` in one pass. The mirrors are built on
    /// first use, as for any arena. Every bulk caller (leaf blocks of bulk
    /// load, reorganize, persisted-tree load and splits) builds its block
    /// here.
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
        arena
    }

    /// The mirrors, built now if this is their first use since the last
    /// write.
    #[inline]
    fn mirrors(&self) -> &Mirrors {
        self.mirrors
            .get_or_init(|| Box::new(Mirrors::build(self.dim, &self.data)))
    }

    /// True if the cheap-tier mirrors are currently built, i.e. a mirror
    /// accessor has run since the last write. Reading it builds nothing.
    #[inline]
    pub fn mirrors_built(&self) -> bool {
        self.mirrors.get().is_some()
    }

    /// The `i`-th row.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole arena as one flat row-major slice — the block view the
    /// batch distance kernels consume.
    #[inline]
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// The f32 mirror as one flat row-major slice.
    #[inline]
    pub fn as_flat_f32(&self) -> &[f32] {
        &self.mirrors().mirror32
    }

    /// Certified overestimate of `max_rows ‖row − row₃₂‖₂` — the `r_x`
    /// input of the f32 lower-bound helpers.
    #[inline]
    pub fn f32_radius(&self) -> f64 {
        self.mirrors().r32
    }

    /// The q8 code mirror as one flat row-major slice.
    #[inline]
    pub fn as_codes(&self) -> &[u8] {
        &self.mirrors().codes
    }

    /// The per-lane q8 grids `(mins, scales)` when they
    /// are usable for certified pruning, `None` while degenerate (empty
    /// block, or a lane range too wide for a finite scale). Constant lanes
    /// are *not* degenerate — their scale is `0` and they reconstruct
    /// exactly. Callers must scan degenerate blocks on the f64 path.
    #[inline]
    pub fn q8_grid(&self) -> Option<(&[f64], &[f64])> {
        self.mirrors().q8_grid()
    }

    /// The per-lane squared grid steps — the weight vector of the
    /// `dist2_q8w*` kernels. Valid whenever [`VectorArena::q8_grid`] is
    /// `Some`.
    #[inline]
    pub fn q8_weights(&self) -> &[f64] {
        &self.mirrors().wq8
    }

    /// Certified overestimate of `max_rows ‖row − roŵ‖₂` over the q8
    /// reconstructions — the `r_x` input of the q8 lower-bound helpers.
    #[inline]
    pub fn q8_radius(&self) -> f64 {
        self.mirrors().rq8
    }

    /// Quantizes a query onto this block's per-lane grids, writing
    /// **wide** i32 codes into `out`,
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
        let m = self.mirrors();
        debug_assert!(m.q8_grid().is_some(), "degenerate q8 grid");
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
        out.extend(
            query
                .iter()
                .enumerate()
                .map(|(j, &v)| qencode(v, m.qmin[j], m.qscale[j])),
        );
        displacement_norm_q8w_query(query, out, &m.qmin, &m.qscale)
    }

    /// Iterates over the rows in order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f64]> {
        self.data.chunks_exact(self.dim)
    }

    /// Removes row `i` by moving the last row into its slot (O(dim), does
    /// not preserve order) — mirrors `Vec::swap_remove` — and drops the
    /// mirrors.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn swap_remove(&mut self, i: usize) {
        let last = self.len() - 1;
        assert!(i <= last, "row index out of bounds");
        if i < last {
            self.data
                .copy_within(last * self.dim..(last + 1) * self.dim, i * self.dim);
        }
        self.data.truncate(last * self.dim);
        self.mirrors.take();
    }

    /// Removes all rows, keeping the allocation and the dimension, and
    /// drops the mirrors.
    pub fn clear(&mut self) {
        self.data.clear();
        self.mirrors.take();
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

    /// Every mirror view of an arena, as bit patterns.
    #[derive(Debug, PartialEq)]
    struct MirrorBits {
        flat_f32: Vec<u32>,
        f32_radius: u64,
        codes: Vec<u8>,
        q8_grid: Option<(Vec<u64>, Vec<u64>)>,
        q8_weights: Vec<u64>,
        q8_radius: u64,
    }

    fn mirror_bits(a: &VectorArena) -> MirrorBits {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        MirrorBits {
            flat_f32: a.as_flat_f32().iter().map(|x| x.to_bits()).collect(),
            f32_radius: a.f32_radius().to_bits(),
            codes: a.as_codes().to_vec(),
            q8_grid: a.q8_grid().map(|(mins, scales)| (bits(mins), bits(scales))),
            q8_weights: bits(a.q8_weights()),
            q8_radius: a.q8_radius().to_bits(),
        }
    }

    fn rows() -> Vec<Vec<f64>> {
        (0..9)
            .map(|i| {
                let x = i as f64;
                vec![x * 0.37 - 1.0, (x * 1.3).sin(), 5.0 - x * x * 0.1]
            })
            .collect()
    }

    #[test]
    fn mirrors_wait_for_their_first_accessor() {
        let rows = rows();
        let bulk = || VectorArena::from_rows(3, rows.iter().map(Vec::as_slice));
        let pushed = || {
            let mut a = VectorArena::new(3);
            for row in &rows {
                a.push(row);
            }
            a
        };
        let empty = || VectorArena::new(3);
        let accessors: [fn(&VectorArena); 7] = [
            |a| {
                a.as_flat_f32();
            },
            |a| {
                a.f32_radius();
            },
            |a| {
                a.as_codes();
            },
            |a| {
                a.q8_grid();
            },
            |a| {
                a.q8_weights();
            },
            |a| {
                a.q8_radius();
            },
            |a| {
                if a.q8_grid().is_some() {
                    a.quantize_query(&[0.0; 3], &mut Vec::new());
                } else {
                    a.q8_radius();
                }
            },
        ];
        for make in [&bulk as &dyn Fn() -> VectorArena, &pushed, &empty] {
            for access in accessors {
                let a = make();
                // The f64 views never build the mirrors.
                let _ = (a.as_flat(), a.iter().count(), a.len());
                if !a.is_empty() {
                    let _ = a.row(0);
                }
                assert!(!a.mirrors_built());
                access(&a);
                assert!(a.mirrors_built());
            }
        }
    }

    #[test]
    fn every_write_drops_the_mirrors() {
        let mut a = VectorArena::from_rows(3, rows().iter().map(Vec::as_slice));
        a.q8_radius();
        a.push(&[0.0, 0.0, 0.0]);
        assert!(!a.mirrors_built());
        a.q8_radius();
        a.swap_remove(2);
        assert!(!a.mirrors_built());
        a.q8_radius();
        a.clear();
        assert!(!a.mirrors_built());
        // Rebuilt on an empty block: the views of an arena never pushed.
        assert_eq!(mirror_bits(&a), mirror_bits(&VectorArena::new(3)));
    }

    #[test]
    fn mirrors_after_swap_remove_are_those_of_the_surviving_rows() {
        let mut a = VectorArena::from_rows(3, rows().iter().map(Vec::as_slice));
        a.q8_radius();
        // Remove the rows that set the grids: the block's extremes.
        for i in [0, 6, 2] {
            a.swap_remove(i);
            let fresh = VectorArena::from_rows(3, a.iter());
            assert_eq!(mirror_bits(&a), mirror_bits(&fresh));
        }
    }

    #[test]
    #[should_panic(expected = "zero-dimensional")]
    fn zero_dim_rejected() {
        VectorArena::new(0);
    }
}
