//! A directory visit performs no heap allocation.
//!
//! The RKV descent keeps the sorted branch list of every directory node
//! on a scratch stack owned by the query's `ForestCursor`, and computes
//! MINDIST straight off the node's bounds slab. This test counts the
//! allocations of a whole descent under a counting global allocator. It
//! makes the count attributable by first visiting the same tree `k` times
//! with one cursor: every visit admits at least one more copy of the
//! nearest point, so afterwards the cursor holds `k` copies of it and a
//! further visit ties with them everywhere — the leaf scans admit nothing
//! and materialize no point, the scratch buffers already have their
//! capacity, and whatever is still allocated would have to come from the
//! directory visits. It must be nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use parsim_datagen::{DataGenerator, FourierGenerator, UniformGenerator};
use parsim_geometry::Point;
use parsim_index::knn::{ForestCursor, SearchStats};
use parsim_index::{SpatialTree, TreeParams, TreeVariant};

thread_local! {
    /// Allocations made by this thread (the test harness runs each test on
    /// its own thread, so other tests and the harness are not counted).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a thread-local
// counter bump, which neither allocates (the cell is const-initialized and
// has no destructor) nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System.alloc`/`realloc` above with
        // this `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's arguments are passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn bulk_tree(gen: &dyn DataGenerator, dim: usize) -> SpatialTree {
    let items: Vec<(Point, u64)> = gen
        .generate(5000, 24)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (p, i as u64))
        .collect();
    let params = TreeParams::for_dim(dim, TreeVariant::xtree_default()).unwrap();
    SpatialTree::bulk_load(params, items).unwrap()
}

fn assert_settled_descent_allocates_nothing(tree: &SpatialTree, query: &Point, k: usize) {
    assert!(
        tree.height() > 2,
        "the tree needs directory levels to visit"
    );
    let mut cursor = ForestCursor::new(k);
    for _ in 0..k {
        cursor.visit(tree, query, &mut SearchStats::default());
    }

    let mut stats = SearchStats::default();
    let before = allocations();
    cursor.visit(tree, query, &mut stats);
    let allocated = allocations() - before;

    assert!(
        stats.pages >= tree.height() as u64,
        "the measured descent must reach the leaves"
    );
    assert_eq!(
        allocated, 0,
        "a descent over {} pages (k = {k}) allocated",
        stats.pages
    );
    assert_eq!(cursor.finish().len(), k);
}

#[test]
fn directory_visits_allocate_nothing() {
    let uniform = UniformGenerator::new(32);
    let tree = bulk_tree(&uniform, 32);
    for q in uniform.generate(3, 9001) {
        // k = 1 takes the MINMAXDIST branch as well.
        assert_settled_descent_allocates_nothing(&tree, &q, 1);
        assert_settled_descent_allocates_nothing(&tree, &q, 10);
    }
    let fourier = FourierGenerator::new(16);
    let tree = bulk_tree(&fourier, 16);
    for q in fourier.generate(3, 9001) {
        assert_settled_descent_allocates_nothing(&tree, &q, 1);
        assert_settled_descent_allocates_nothing(&tree, &q, 10);
    }
}
