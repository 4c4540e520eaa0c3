//! Run the ablation studies: exit-delay policy, signal-cost sensitivity,
//! copy accounting and the split-phase extension. Points fan out across
//! `ABR_JOBS` workers; timings land in `BENCH_sweep.json`.

use abr_bench::record;
use abr_cluster::report::Table;
use abr_cluster::sweep::jobs_from_env;

type Ablation = (&'static str, fn(u64) -> Vec<Table>);

fn main() -> Result<(), String> {
    let iters = abr_bench::iters();
    let ablations: [Ablation; 7] = [
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
    ];
    let mut records = Vec::new();
    for (name, f) in ablations {
        let (tables, timing) = record::timed_figure(name, || f(iters));
        abr_bench::figures::print_all(&tables);
        records.push(timing);
    }
    let body = record::sweep(jobs_from_env(), iters, &records);
    record::write("BENCH_sweep.json", &body)
}
