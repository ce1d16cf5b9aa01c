//! The persistent query backbone: the same engine on the scoped and the
//! pooled execution modes, showing bit-identical answers and traces,
//! pipelined batches with submit/wait handles, and the modeled
//! throughput gain of dropping the per-query barrier.
//!
//! ```sh
//! cargo run --release -p parsim --example pooled_backbone
//! ```

use parsim::prelude::*;

fn main() {
    let dim = 8;
    let n = 20_000;
    let disks = 16;
    let k = 5;
    let data = UniformGenerator::new(dim).generate(n, 42);
    let queries = UniformGenerator::new(dim).generate(32, 7);

    // Two engines over the same points: scoped (the caller's thread
    // drives each query) and the persistent per-disk worker pool.
    let scoped = ParallelKnnEngine::builder(dim)
        .disks(disks)
        .build(&data)
        .expect("engine builds");
    let pooled = ParallelKnnEngine::builder(dim)
        .disks(disks)
        .execution(ExecutionMode::Pooled)
        .build(&data)
        .expect("engine builds");
    println!(
        "engines: {n} vectors ({dim}-d) on {} disks; scoped vs pooled",
        scoped.disks()
    );

    // Pipelined batch: every query is enqueued up front and travels
    // worker-to-worker along its MINDIST itinerary; query i+1 searches
    // disk 0 while query i searches disk 3.
    let opts = QueryOptions::traced(k);
    let handles: Vec<PendingQuery> = queries
        .iter()
        .map(|q| pooled.submit(q, &opts).expect("submit"))
        .collect();
    let pooled_results: Vec<QueryResult> = handles
        .into_iter()
        .map(|h| h.wait().expect("query succeeds"))
        .collect();

    // Same queries on the scoped batch path.
    let scoped_results = scoped.knn_batch(&queries, k).expect("batch runs");

    // The backbone guarantee: answers AND the deterministic RKV traces
    // are bit-identical between the two modes.
    let mut barrier_ms = 0.0f64;
    let mut per_disk_totals = vec![0u64; disks];
    let model = *pooled.array().model();
    for (r, (want, want_trace)) in pooled_results.iter().zip(&scoped_results) {
        assert_eq!(&r.neighbors, want);
        let trace = r.trace.as_ref().expect("trace requested");
        assert_eq!(trace.per_disk_pages, want_trace.per_disk_pages);
        assert_eq!(trace.dist_evals, want_trace.dist_evals);
        let max = trace.per_disk_pages.iter().copied().max().unwrap_or(0);
        barrier_ms += model.service_time(max).as_secs_f64() * 1e3;
        for (acc, p) in per_disk_totals.iter_mut().zip(&trace.per_disk_pages) {
            *acc += p;
        }
    }
    println!(
        "{} queries: pooled answers and page traces identical to scoped",
        queries.len()
    );

    // The throughput story (host-independent, the paper's disk model):
    // scoped holds every disk until a query's slowest disk finishes;
    // pooled lets the busiest disk's total work gate the whole batch.
    let pipeline_ms = per_disk_totals
        .iter()
        .map(|&p| model.service_time(p).as_secs_f64() * 1e3)
        .fold(0.0f64, f64::max);
    println!("modeled batch makespan, barrier (scoped): {barrier_ms:.0} ms");
    println!("modeled batch makespan, pipeline (pooled): {pipeline_ms:.0} ms");
    println!(
        "modeled sustained-throughput gain: {:.2}x",
        barrier_ms / pipeline_ms
    );
}
