//! Regenerate every figure in the paper plus the ablations, fanning each
//! figure's config points across `ABR_JOBS` workers (default: all cores),
//! and record per-figure wall-clock timings to `BENCH_sweep.json`.

use abr_bench::record;
use abr_cluster::report::Table;
use abr_cluster::sweep::jobs_from_env;

type Figure = (&'static str, fn(u64) -> Vec<Table>);

fn main() -> Result<(), String> {
    let iters = abr_bench::iters();
    let figures: [Figure; 14] = [
        ("fig6", abr_bench::figures::fig6),
        ("fig7", abr_bench::figures::fig7),
        ("fig8", abr_bench::figures::fig8),
        ("fig9", abr_bench::figures::fig9),
        ("fig10", abr_bench::figures::fig10),
        ("ablation_delay", abr_bench::figures::ablation_delay),
        (
            "ablation_signal_cost",
            abr_bench::figures::ablation_signal_cost,
        ),
        ("ablation_copies", abr_bench::figures::ablation_copies),
        ("ablation_nic", abr_bench::figures::ablation_nic),
        ("ablation_bcast", abr_bench::figures::ablation_bcast),
        ("ablation_scale", abr_bench::figures::ablation_scale),
        ("ablation_app", abr_bench::figures::ablation_app),
        ("fig_loss", abr_bench::figures::fig_loss),
        ("fig_topology", abr_bench::figures::fig_topology),
    ];
    let mut records = Vec::new();
    for (name, f) in figures {
        let (tables, timing) = record::timed_figure(name, || f(iters));
        println!("### {name}");
        abr_bench::figures::print_all(&tables);
        records.push(timing);
    }
    let body = record::sweep(jobs_from_env(), iters, &records);
    record::write("BENCH_sweep.json", &body)
}
