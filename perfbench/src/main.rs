//! End-to-end and per-layer benchmark of the simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper32 --seed 1 --seconds 12 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1`
//! alternates untraced and traced repetitions and reports the per-layer
//! metrics. Human-readable lines go first; the last line of standard output
//! is one JSON object `{"correct", "attempted", "failed", "metrics"}`. See
//! README.md for the workloads and the meaning of every metric.

mod probe;
mod refkernel;
mod workload;

use std::fmt::Write as _;
use std::time::Instant;
use workload::{Case, Mode, Outcome, Shape, Summary};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = val.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {val}"));
                }
                seconds = Some(s);
            }
            "--trace" => match val.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(format!("--trace must be 0 or 1, got {val:?}")),
            },
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workload::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            workload::WORKLOADS
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

fn median(v: &[f64]) -> f64 {
    abr_cluster::percentile(&sorted(v), 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One repetition: every case of the workload run once, in order.
struct Rep {
    outcomes: Vec<Outcome>,
    summaries: Vec<Summary>,
    /// Host ns inside `DesDriver::run`.
    run_ns: f64,
    /// Reference-kernel times taken before, between and after the cases.
    ref_ns: Vec<f64>,
}

impl Rep {
    fn reductions(&self) -> u64 {
        self.summaries.iter().map(|s| s.reductions).sum()
    }
    fn events(&self) -> u64 {
        self.outcomes.iter().map(|o| o.events).sum()
    }
}

fn rep(cases: &[Case], traced: bool) -> Rep {
    let mut r = Rep {
        outcomes: Vec::new(),
        summaries: Vec::new(),
        run_ns: 0.0,
        ref_ns: vec![refkernel::time_ns()],
    };
    for case in cases {
        let o = workload::run(case, traced);
        r.ref_ns.push(refkernel::time_ns());
        r.run_ns += o.run_ns;
        r.summaries.push(workload::summarize(case, &o));
        r.outcomes.push(o);
    }
    r
}

/// Failure and correctness bookkeeping across every repetition.
///
/// Jobs are counted once per distinct simulation, from the first
/// repetition: every later repetition must reproduce its digests exactly,
/// so it simulates the same jobs again and adds no new attempt. This keeps
/// `attempted` and `failed` a function of the seed alone, not of how many
/// repetitions the host managed in the measured seconds.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    panics: Vec<String>,
    reference: Vec<u64>,
}

impl Ledger {
    /// Count `r`'s outcomes if it is the first repetition, else check its
    /// digests against the first one's (`label` names the repetition in
    /// error messages).
    fn absorb(&mut self, r: &Rep, label: &str) {
        for (i, (s, o)) in r.summaries.iter().zip(&r.outcomes).enumerate() {
            match self.reference.get(i) {
                None => {
                    self.reference.push(s.digest);
                    self.attempted += s.attempted;
                    self.failed += s.failed;
                    self.errors.extend(s.errors.iter().cloned());
                    if let Some(p) = &o.panic {
                        self.panics.push(p.clone());
                    }
                }
                Some(&d) if d != s.digest => self.errors.push(format!(
                    "case {i}: {label} digest {:016x} differs from the first run's {d:016x}",
                    s.digest
                )),
                Some(_) => {}
            }
        }
    }

    fn digest(&self) -> u64 {
        self.reference
            .iter()
            .fold(0u64, |h, d| h.rotate_left(7) ^ d)
    }
}

/// Host-speed factor of one sample: the median time of the reference-kernel
/// runs taken around it over the nominal time (above 1 on a slow spell).
/// Each sample is corrected by the kernel runs next to it, because host
/// speed changes within a run, and the metric is the median of the
/// corrected samples; the raw median is printed beside it (see README.md,
/// "Drift correction").
fn slowdown(kernel_ns: &[f64]) -> f64 {
    median(kernel_ns) / refkernel::NOMINAL_NS
}

/// Set-up times in seconds, medians over samples.
struct Setup {
    /// Workload config to runnable drivers, raw and drift-corrected.
    raw: f64,
    corrected: f64,
    /// `abr_jobs::place` alone (tenant; 0 elsewhere).
    place: f64,
    /// Driver construction alone.
    drivers: f64,
}

/// Set-up timing: from workload config (mix generation, placement) to
/// built drivers, in batches long enough that timer jitter is noise.
fn measure_setup(workload: &str, seed: u64, samples: usize) -> Setup {
    // (total, placement, driver construction) seconds of one set-up.
    let once = || {
        let t0 = Instant::now();
        let cases = workload::cases(workload, seed);
        let cfg_s = t0.elapsed().as_secs_f64();
        let place_s = cases
            .iter()
            .find_map(|c| match &c.shape {
                Shape::Tenant(t) => Some(t.place_s),
                Shape::Solo(_) => None,
            })
            .unwrap_or(0.0);
        let build_s = workload::build_all(&cases);
        [cfg_s + build_s, place_s, build_s]
    };
    let first = once()[0];
    let batch = ((0.1 / first.max(1e-9)).ceil() as usize).clamp(1, 20_000);
    let mut kernel = vec![refkernel::time_ns()];
    let mut sums: Vec<[f64; 3]> = Vec::new();
    let mut corrected = Vec::new();
    for _ in 0..samples {
        let mut sum = [0.0; 3];
        for _ in 0..batch {
            for (acc, x) in sum.iter_mut().zip(once()) {
                *acc += x / batch as f64;
            }
        }
        kernel.push(refkernel::time_ns());
        corrected.push(sum[0] / slowdown(&kernel[kernel.len() - 2..]));
        sums.push(sum);
    }
    let col = |i: usize| median(&sums.iter().map(|s| s[i]).collect::<Vec<_>>());
    Setup {
        corrected: median(&corrected),
        raw: col(0),
        place: col(1),
        drivers: col(2),
    }
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Per-mode virtual (modelled-cluster) figures of one repetition.
struct Virtual {
    cpu_us: f64,
    svc_red_per_vs: f64,
    lat: Vec<f64>,
}

fn virtual_metrics(cases: &[Case], r: &Rep, mode: Mode) -> Virtual {
    let (mut cpu_sum, mut cpu_n, mut svc, mut drivers) = (0.0, 0.0, 0.0, 0.0);
    let mut lat = Vec::new();
    for (case, s) in cases.iter().zip(&r.summaries) {
        if case.mode != mode {
            continue;
        }
        match case.shape {
            // The §VI window metric: CPU inside the measurement window
            // minus the injected skew and catch-up delays.
            Shape::Solo(_) => {
                cpu_sum += s.cpu_util_sum;
                cpu_n += s.cpu_util_n as f64;
            }
            // No windows in tenant programs: all non-application host CPU
            // per collective each rank entered.
            Shape::Tenant(_) => {
                cpu_sum += s.cpu[..3].iter().sum::<f64>();
                cpu_n += s.participations as f64;
            }
        }
        // The service rate of one driver: each co-scheduled job's
        // reductions over its own run time, summed (one job when solo).
        // Summing per-job rates rather than dividing by the makespan keeps
        // one straggling job of a 1,024-job mix from setting the figure.
        svc += s.job_rates.iter().sum::<f64>();
        drivers += 1.0;
        lat.extend_from_slice(&s.lat_us);
    }
    Virtual {
        cpu_us: ratio(cpu_sum, cpu_n),
        svc_red_per_vs: ratio(svc, drivers),
        lat,
    }
}

/// `abr_cluster::microbench::run_cpu_util` on the same configuration must
/// give the same modelled CPU, sample for sample, as the benchmark's copy
/// of the loop.
fn check_against_microbench(cases: &[Case], r: &Rep, errors: &mut Vec<String>) {
    use abr_cluster::microbench::{run_cpu_util, Mode as MbMode};
    use abr_cluster::CpuUtilConfig;
    for (i, (case, o)) in cases.iter().zip(&r.outcomes).enumerate() {
        let Shape::Solo(s) = &case.shape else {
            continue;
        };
        let mode = match case.mode {
            Mode::Nab => MbMode::Baseline,
            Mode::Ab => MbMode::Bypass(abr_core::DelayPolicy::None),
        };
        let mut cfg = CpuUtilConfig::new(s.cluster.clone(), mode);
        cfg.elems = s.elems;
        cfg.max_skew_us = s.max_skew_us;
        cfg.iters = s.iters;
        cfg.seed = s.seed;
        cfg.natural_jitter_us = workload::NATURAL_JITTER_US;
        cfg.catchup_margin_us = workload::CATCHUP_MARGIN_US;
        let mb = run_cpu_util(&cfg);
        let ours = o.jobs[0].iter();
        let same = mb.nodes.len() == o.jobs[0].len()
            && mb.nodes.iter().zip(ours).all(|(a, b)| {
                let pick = |n: &abr_cluster::driver::NodeResult| -> Vec<u64> {
                    n.obs
                        .iter()
                        .filter(|x| x.key == "cpu_util_us")
                        .map(|x| x.value.to_bits())
                        .collect()
                };
                pick(a) == pick(b)
            });
        if !same {
            errors.push(format!(
                "case {i}: modelled CPU differs from microbench::run_cpu_util"
            ));
        }
    }
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(out: &mut Vec<Metric>, name: impl Into<String>, value: f64, unit: &'static str) {
    out.push(Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    });
}

fn end_to_end(args: &Args, cases: &[Case], ledger: &mut Ledger) -> Vec<Metric> {
    let setup = measure_setup(&args.workload, args.seed, 11);
    println!(
        "setup_s raw {:.6} drift-corrected {:.6}",
        setup.raw, setup.corrected
    );

    // Warm-up repetition: discarded from timing, kept for the virtual
    // metrics (every later repetition must reproduce its digests).
    let warm = rep(cases, false);
    ledger.absorb(&warm, "warm-up");
    if args.workload == "paper32" {
        check_against_microbench(cases, &warm, &mut ledger.errors);
    }

    let t0 = Instant::now();
    let (mut raw, mut corrected, mut kernel) = (Vec::new(), Vec::new(), Vec::new());
    let mut n = 0;
    while n < 2 || t0.elapsed().as_secs_f64() < args.seconds {
        let r = rep(cases, false);
        n += 1;
        ledger.absorb(&r, &format!("repetition {n}"));
        let rate = r.reductions() as f64 / (r.run_ns / 1e9);
        raw.push(rate);
        corrected.push(rate * slowdown(&r.ref_ns));
        kernel.extend_from_slice(&r.ref_ns);
    }
    let red_per_s = median(&corrected);
    println!(
        "red_per_s raw {:.3} drift-corrected {red_per_s:.3} over {n} repetitions (reference kernel median {:.3} ms)",
        median(&raw),
        median(&kernel) / 1e6
    );

    let mut m = Vec::new();
    metric(&mut m, "red_per_s", red_per_s, "red/s");
    metric(&mut m, "setup_s", setup.corrected, "s");
    metric(&mut m, "peak_rss_mb", peak_rss_mb(), "MB");
    let nab = virtual_metrics(cases, &warm, Mode::Nab);
    let ab = virtual_metrics(cases, &warm, Mode::Ab);
    metric(&mut m, "cpu_us_nab", nab.cpu_us, "vus");
    metric(&mut m, "cpu_us_ab", ab.cpu_us, "vus");
    metric(&mut m, "svc_red_per_vs_nab", nab.svc_red_per_vs, "red/vs");
    metric(&mut m, "svc_red_per_vs_ab", ab.svc_red_per_vs, "red/vs");
    for (label, v) in [("nab", &nab), ("ab", &ab)] {
        println!("iter latency samples {label}: {}", v.lat.len());
    }
    let (nab_lat, ab_lat) = (sorted(&nab.lat), sorted(&ab.lat));
    let pct = abr_cluster::percentile;
    metric(&mut m, "iter_p50_us_nab", pct(&nab_lat, 0.5), "vus");
    metric(&mut m, "iter_p50_us_ab", pct(&ab_lat, 0.5), "vus");
    metric(&mut m, "iter_p99_us_nab", pct(&nab_lat, 0.99), "vus");
    metric(&mut m, "iter_p99_us_ab", pct(&ab_lat, 0.99), "vus");
    let done_share = 1.0 - ratio(ledger.failed as f64, ledger.attempted as f64);
    println!(
        "failed_share {:.6} ({} of {} attempted)",
        1.0 - done_share,
        ledger.failed,
        ledger.attempted
    );
    metric(&mut m, "completed_share", done_share, "ratio");
    m
}

fn per_layer(args: &Args, cases: &[Case], ledger: &mut Ledger) -> Vec<Metric> {
    let setup = measure_setup(&args.workload, args.seed, 3);
    let warm = rep(cases, false);
    ledger.absorb(&warm, "warm-up");
    let reductions = warm.reductions() as f64;
    let events = warm.events() as f64;

    let t0 = Instant::now();
    // Per pair of repetitions: untraced and traced host ns inside `run`,
    // and the traced time split by span class.
    let (mut untraced_ns, mut traced_ns, mut spans) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced = None;
    let mut n = 0;
    while n < 2 || t0.elapsed().as_secs_f64() < args.seconds {
        n += 1;
        let u = rep(cases, false);
        ledger.absorb(&u, &format!("untraced repetition {n}"));
        untraced_ns.push(u.run_ns);
        let t = rep(cases, true);
        ledger.absorb(&t, &format!("traced repetition {n}"));
        traced_ns.push(t.run_ns);
        let mut split = [0.0; 6];
        for o in &t.outcomes {
            for (acc, &ns) in split.iter_mut().zip(&o.spans) {
                *acc += ns as f64;
            }
        }
        spans.push(split);
        traced = Some(t);
    }
    let t = traced.expect("at least one traced repetition");
    let span = |i: usize| median(&spans.iter().map(|s: &[f64; 6]| s[i]).collect::<Vec<_>>());
    let traced_ns = median(&traced_ns);
    let untraced_ns = median(&untraced_ns);
    let engine_ns: f64 = (0..5).map(span).sum();
    let per_red = |x: f64| ratio(x, reductions);

    let mut m = Vec::new();
    metric(&mut m, "des.events_per_red", per_red(events), "count/red");
    metric(&mut m, "des.ns_per_event", ratio(untraced_ns, events), "ns");
    for (i, name) in ["progress", "deliver", "signal", "post", "drain"]
        .iter()
        .enumerate()
    {
        metric(
            &mut m,
            format!("engine.{name}_ns"),
            per_red(span(i)),
            "ns/red",
        );
    }
    metric(&mut m, "program.step_ns", per_red(span(5)), "ns/red");
    metric(
        &mut m,
        "driver.rest_ns",
        per_red(traced_ns - engine_ns - span(5)),
        "ns/red",
    );

    let sum_counter = |k: &str| -> f64 {
        t.summaries
            .iter()
            .map(|s| s.counters.get(k).copied().unwrap_or(0) as f64)
            .sum()
    };
    for k in [
        "packets_processed",
        "unexpected_enqueued",
        "polls",
        "copy_bytes",
    ] {
        metric(
            &mut m,
            format!("mpr.{k}"),
            per_red(sum_counter(k)),
            "count/red",
        );
    }
    for k in ["async_children", "signals_handled"] {
        metric(
            &mut m,
            format!("core.{k}"),
            per_red(sum_counter(k)),
            "count/red",
        );
    }
    let high_water = t.summaries.iter().map(|s| s.descriptor_high_water).max();
    metric(
        &mut m,
        "core.descriptor_high_water",
        high_water.unwrap_or(0) as f64,
        "count",
    );
    let total = |f: &dyn Fn(&Summary, &Outcome) -> f64| -> f64 {
        t.summaries
            .iter()
            .zip(&t.outcomes)
            .map(|(s, o)| f(s, o))
            .sum()
    };
    metric(
        &mut m,
        "gm.signals_raised",
        per_red(total(&|s, _| s.signals_raised as f64)),
        "count/red",
    );
    metric(
        &mut m,
        "gm.signals_suppressed",
        per_red(total(&|s, _| s.signals_suppressed as f64)),
        "count/red",
    );
    metric(
        &mut m,
        "net.packets_per_red",
        per_red(total(&|_, o| o.packets as f64)),
        "count/red",
    );
    metric(
        &mut m,
        "net.bytes_per_red",
        per_red(total(&|_, o| o.bytes as f64)),
        "B/red",
    );
    metric(
        &mut m,
        "fabric.link_waits",
        total(&|_, o| o.link_waits as f64),
        "count",
    );
    metric(
        &mut m,
        "fabric.link_wait_us",
        total(&|_, o| o.link_wait_us),
        "vus",
    );
    metric(
        &mut m,
        "fabric.floor_entries",
        total(&|_, o| o.floor_entries as f64),
        "count",
    );
    metric(
        &mut m,
        "fabric.floors_pruned",
        total(&|_, o| o.floors_pruned as f64),
        "count",
    );
    metric(
        &mut m,
        "faults.retransmissions",
        total(&|_, o| o.rel.retransmissions as f64),
        "count",
    );
    metric(
        &mut m,
        "faults.duplicates_suppressed",
        total(&|_, o| o.rel.duplicates_suppressed as f64),
        "count",
    );
    metric(
        &mut m,
        "faults.acks_sent",
        total(&|_, o| o.rel.acks_sent as f64),
        "count",
    );
    metric(
        &mut m,
        "faults.out_of_order_buffered",
        total(&|_, o| o.rel.out_of_order_buffered as f64),
        "count",
    );
    metric(
        &mut m,
        "faults.links_dead",
        total(&|_, o| o.rel.links_dead as f64),
        "count",
    );

    let tenant = matches!(cases[0].shape, Shape::Tenant(_));
    let attempted = total(&|s, _| s.attempted as f64);
    let finished = total(&|s, _| s.jobs_finished as f64);
    let rates: Vec<f64> = t
        .summaries
        .iter()
        .flat_map(|s| s.job_rates.iter().copied())
        .collect();
    metric(
        &mut m,
        "jobs.attempted",
        if tenant { attempted } else { 0.0 },
        "count",
    );
    metric(
        &mut m,
        "jobs.finished",
        if tenant { finished } else { 0.0 },
        "count",
    );
    metric(
        &mut m,
        "jobs.fairness",
        if tenant {
            abr_cluster::tenant::jain_fairness(&rates)
        } else {
            0.0
        },
        "ratio",
    );
    metric(&mut m, "setup.place_s", setup.place, "s");
    metric(&mut m, "setup.driver_s", setup.drivers, "s");

    for mode in [Mode::Nab, Mode::Ab] {
        let label = if mode == Mode::Nab { "nab" } else { "ab" };
        let pick = |f: &dyn Fn(&Summary) -> f64| -> f64 {
            cases
                .iter()
                .zip(&t.summaries)
                .filter(|(c, _)| c.mode == mode)
                .map(|(_, s)| f(s))
                .sum()
        };
        let parts = pick(&|s| s.participations as f64);
        for (i, cat) in workload::CPU_CATEGORIES.iter().enumerate() {
            let us = pick(&|s| s.cpu[i]);
            metric(
                &mut m,
                format!("cpu.{cat}_us.{label}"),
                ratio(us, parts),
                "vus",
            );
        }
    }
    let allocs = total(&|_, o| o.allocs.0 as f64);
    let alloc_bytes = total(&|_, o| o.allocs.1 as f64);
    metric(&mut m, "alloc.per_event", ratio(allocs, events), "count");
    metric(&mut m, "alloc.bytes_per_red", per_red(alloc_bytes), "B/red");
    metric(
        &mut m,
        "trace.overhead_pct",
        100.0 * ratio(traced_ns - untraced_ns, untraced_ns),
        "%",
    );
    metric(
        &mut m,
        "trace.records_per_red",
        per_red(total(&|_, o| o.trace_records as f64)),
        "count/red",
    );
    let nab = virtual_metrics(cases, &warm, Mode::Nab);
    let ab = virtual_metrics(cases, &warm, Mode::Ab);
    metric(&mut m, "iter.samples_nab", nab.lat.len() as f64, "count");
    metric(&mut m, "iter.samples_ab", ab.lat.len() as f64, "count");
    println!(
        "traced {n} pairs: untraced {:.3} s, traced {:.3} s per repetition",
        untraced_ns / 1e9,
        traced_ns / 1e9
    );
    m
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Panics inside a guarded driver run are expected outcomes (the known
    // tenant deadlock); they are counted and summarised, not printed.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if !workload::in_guarded_run() {
            default_hook(info)
        }
    }));
    let cases = workload::cases(&args.workload, args.seed);
    let mut ledger = Ledger::default();
    let metrics = if args.trace {
        per_layer(&args, &cases, &mut ledger)
    } else {
        end_to_end(&args, &cases, &mut ledger)
    };
    for p in &ledger.panics {
        println!("driver panic (counted as failed): {p}");
    }
    for e in &ledger.errors {
        println!("output check failed: {e}");
    }
    println!("digest {:016x}", ledger.digest());
    for x in &metrics {
        println!("{:<32} {:>20} {}", x.name, x.value, x.unit);
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ledger.errors.is_empty(),
        ledger.attempted,
        ledger.failed
    );
    for (i, x) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            x.name, x.value, x.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}
