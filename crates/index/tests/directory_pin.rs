//! Pins of the directory layer: search counters and persisted bytes of
//! fixed-seed trees, recorded at the commit *before* directory nodes moved
//! from one boxed rectangle per entry to one contiguous bounds slab per
//! node. The slab computes every MINDIST with the same sequential per-axis
//! sum, so no pruning decision, page count or stored byte may move; any
//! drift in these constants is a change of the search or of the format.

use std::sync::Arc;

use parsim_datagen::{DataGenerator, FourierGenerator, UniformGenerator};
use parsim_geometry::Point;
use parsim_index::{KnnAlgorithm, SpatialTree, TreeParams, TreeVariant};
use parsim_storage::{PageId, SimDisk};

/// FNV-1a, 64 bit: a dependency-free digest of answers and pages.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= b as u64;
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn items(gen: &dyn DataGenerator, n: usize, seed: u64) -> Vec<(Point, u64)> {
    gen.generate(n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, i as u64))
        .collect()
}

fn bulk_tree(gen: &dyn DataGenerator, dim: usize, n: usize, seed: u64) -> SpatialTree {
    let params = TreeParams::for_dim(dim, TreeVariant::xtree_default()).unwrap();
    SpatialTree::bulk_load(params, items(gen, n, seed)).unwrap()
}

fn insert_tree(gen: &dyn DataGenerator, dim: usize, n: usize, seed: u64) -> SpatialTree {
    let params = TreeParams::for_dim(dim, TreeVariant::xtree_default()).unwrap();
    let mut tree = SpatialTree::new(params);
    for (p, item) in items(gen, n, seed) {
        tree.insert(p, item).unwrap();
    }
    tree
}

/// `[digest of (item, distance bits) over all answers, pages, pruned,
/// dist_evals, dist_evals_saved]`, summed over the queries.
fn search_pin(tree: &SpatialTree, queries: &[Point], algo: KnnAlgorithm, k: usize) -> [u64; 5] {
    let mut pin = [FNV_OFFSET, 0, 0, 0, 0];
    for q in queries {
        let (neighbors, stats) = tree.knn_traced(q, k, algo, None);
        assert_eq!(neighbors.len(), k);
        for n in &neighbors {
            fnv1a(&mut pin[0], &n.item.to_le_bytes());
            fnv1a(&mut pin[0], &n.dist.to_bits().to_le_bytes());
        }
        pin[1] += stats.pages;
        pin[2] += stats.pruned;
        pin[3] += stats.dist_evals;
        pin[4] += stats.dist_evals_saved;
    }
    pin
}

/// The four searches of one tree: RKV and HS at k = 1 and k = 10.
fn search_pins(tree: &SpatialTree, gen: &dyn DataGenerator) -> [[u64; 5]; 4] {
    let queries = gen.generate(8, 9001);
    [
        search_pin(tree, &queries, KnnAlgorithm::Rkv, 1),
        search_pin(tree, &queries, KnnAlgorithm::Rkv, 10),
        search_pin(tree, &queries, KnnAlgorithm::Hs, 1),
        search_pin(tree, &queries, KnnAlgorithm::Hs, 10),
    ]
}

#[test]
fn uniform32_bulk_search_counters_are_pinned() {
    let gen = UniformGenerator::new(32);
    let tree = bulk_tree(&gen, 32, 5000, 24);
    assert_eq!(
        search_pins(&tree, &gen),
        [
            [14709999329025519635, 4560, 0, 40000, 39949],
            [14950172730667559743, 4560, 0, 40000, 39540],
            [14709999329025519635, 4560, 0, 40000, 39941],
            [14950172730667559743, 4560, 0, 40000, 39607],
        ]
    );
}

#[test]
fn fourier16_bulk_search_counters_are_pinned() {
    let gen = FourierGenerator::new(16);
    let tree = bulk_tree(&gen, 16, 5000, 24);
    assert_eq!(
        search_pins(&tree, &gen),
        [
            [18269038290904561779, 388, 834, 5890, 5831],
            [16227544294005772429, 459, 829, 7313, 6886],
            [18269038290904561779, 378, 811, 5736, 5667],
            [16227544294005772429, 414, 841, 6393, 5952],
        ]
    );
}

/// Insert-built X-trees carry supernodes — directory nodes far wider than
/// a page — so these pins cover the branch-list order of wide nodes too.
#[test]
fn insert_built_search_counters_are_pinned() {
    let gen = UniformGenerator::new(32);
    let tree = insert_tree(&gen, 32, 2000, 25);
    assert!(tree.stats().supernodes > 0, "expected supernodes at d = 32");
    assert_eq!(
        search_pins(&tree, &gen),
        [
            [6457338633673497216, 1816, 0, 16000, 15948],
            [10881387653626532043, 1816, 0, 16000, 15611],
            [6457338633673497216, 1816, 0, 16000, 15951],
            [10881387653626532043, 1816, 0, 16000, 15620],
        ]
    );
    let gen = FourierGenerator::new(16);
    let tree = insert_tree(&gen, 16, 2000, 25);
    assert_eq!(
        search_pins(&tree, &gen),
        [
            [1725295781408375705, 52, 230, 526, 486],
            [3192587738044303048, 65, 217, 816, 596],
            [1725295781408375705, 50, 232, 480, 420],
            [3192587738044303048, 62, 220, 748, 496],
        ]
    );
}

/// Persists `tree` onto a fresh disk; returns `(byte length, digest)` of
/// every page in allocation order, and the disk with its handle.
fn persisted(tree: &SpatialTree) -> ((usize, u64), Arc<SimDisk>, parsim_index::PersistedTree) {
    let disk = Arc::new(SimDisk::new(0));
    let handle = tree.persist(&disk).unwrap();
    let (mut len, mut hash) = (0usize, FNV_OFFSET);
    for page in 0..disk.page_count() {
        let bytes = disk.read(PageId(page)).unwrap();
        len += bytes.len();
        fnv1a(&mut hash, &bytes);
    }
    ((len, hash), disk, handle)
}

/// The bytes on disk equal the recorded ones, and loading them gives a
/// tree that persists to the same bytes again (an equal tree: same nodes,
/// same entry order, same bounds).
fn assert_persisted_bytes(tree: &SpatialTree, want: (usize, u64)) {
    let (got, disk, handle) = persisted(tree);
    assert_eq!(got, want, "persisted bytes moved");
    let loaded = SpatialTree::load(&disk, handle).unwrap();
    loaded.validate();
    assert_eq!(loaded.stats(), tree.stats());
    assert_eq!(persisted(&loaded).0, want, "round trip changed the bytes");
}

#[test]
fn persisted_bytes_are_pinned() {
    let bulk = bulk_tree(&UniformGenerator::new(32), 32, 5000, 24);
    assert_persisted_bytes(&bulk, (1618550, 4862797121538359136));
    let inserted = insert_tree(&FourierGenerator::new(16), 16, 2000, 25);
    assert_persisted_bytes(&inserted, (298022, 16957797765052905620));
}
