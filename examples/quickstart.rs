//! Quickstart: build a parallel similarity-search engine, run a query, and
//! compare it against the sequential baseline.
//!
//! ```sh
//! cargo run --release -p parsim --example quickstart
//! ```

use parsim::parallel::metrics::speedup;
use parsim::prelude::*;

fn main() {
    // A 12-dimensional feature database of 20 000 vectors.
    let dim = 12;
    let n = 20_000;
    let data = UniformGenerator::new(dim).generate(n, 42);
    println!("database: {n} uniform {dim}-d feature vectors");

    // The paper's setup: X-tree per disk, RKV k-NN, near-optimal
    // declustering over 16 simulated disks.
    let disks = 16;
    let config = EngineConfig::paper_defaults(dim);
    let engine = ParallelKnnEngine::builder(dim)
        .config(config)
        .disks(disks)
        .build(&data)
        .expect("engine builds on non-empty data");
    println!(
        "engine: {} disks, declusterer = {}",
        engine.disks(),
        engine.declusterer().name()
    );
    println!("load per disk: {:?}", engine.load_distribution());

    // One similarity query.
    let query = UniformGenerator::new(dim).generate(1, 7).pop().unwrap();
    let (neighbors, cost) = engine.knn(&query, 10).unwrap();
    println!("\n10 nearest neighbors of the query:");
    for nb in &neighbors {
        println!("  item {:>6}  distance {:.4}", nb.item, nb.dist);
    }
    println!(
        "\nquery cost: {} pages on the busiest disk, {} pages total",
        cost.max_reads, cost.total_reads
    );
    println!(
        "modeled parallel search time: {:.1} ms (sequential: {:.1} ms)",
        cost.parallel_time.as_secs_f64() * 1e3,
        cost.sequential_time.as_secs_f64() * 1e3
    );

    // Speed-up over the single-disk X-tree — the same engine on one
    // disk — averaged over a workload.
    let queries = UniformGenerator::new(dim).generate(30, 99);
    let seq = ParallelKnnEngine::builder(dim)
        .config(config)
        .disks(1)
        .build(&data)
        .unwrap();
    let par_cost = run_knn_workload(&engine, &queries, 10).unwrap();
    let seq_cost = run_knn_workload(&seq, &queries, 10).unwrap();
    println!(
        "\nworkload of {} queries: speed-up over the sequential X-tree = {:.2} (ideal {})",
        queries.len(),
        speedup(&seq_cost, &par_cost),
        disks
    );
}
