//! Regenerate the scale figure (ab vs nab factor of improvement from 32 up
//! to 65,536 ranks on two tree families) and measure DES throughput at
//! 8,192 ranks (or the `ABR_SCALE_MAX` cap).
//!
//! Knobs: `ABR_SCALE_MAX` caps the largest cluster (CI smoke uses 1,024),
//! `ABR_DES_SHARDS` runs the figure sweep on the parallel conservative
//! executor, `ABR_OUT_DIR` picks the directory for `BENCH_scale.json`.

use abr_bench::{figures, record};
use abr_cluster::microbench::run_scale_bench;

fn main() -> Result<(), String> {
    let iters = abr_bench::iters();
    let max = abr_bench::scale_max();
    let (tables, timing) = record::timed_figure("fig_scale", || figures::fig_scale(iters));
    println!("### {}", timing.name);
    figures::print_all(&tables);

    // Wall-clock throughput, so it follows the figure tables under its own
    // header: the shard-determinism check diffs only what precedes it.
    let ranks = 8_192.min(max);
    let run = run_scale_bench(ranks, 2);
    println!("### hot-path throughput at {ranks} ranks");
    println!(
        "{} events in {:.2}s = {:.0} events/sec",
        run.events, run.wall_secs, run.events_per_sec
    );
    record::write("BENCH_scale.json", &record::scale(max, &run, &timing))
}
