//! The four workloads, the programs they run, and how one case (one driver,
//! one engine kind) is built, run and checked.
//!
//! Every knob that `ABR_*` environment variables could change is pinned
//! here (`with_topology`, `with_fabric`, `with_segments`, and the
//! sequential `DesDriver::run`), so the environment cannot change a
//! workload.

use crate::probe::{self, CountingTracer, MakeEngine, Span, Timed};
use abr_cluster::driver::NodeResult;
use abr_cluster::tenant::{saturation_config, TenantProgram};
use abr_cluster::{ClusterSpec, DesDriver, FaultPlan, Program, RelConfig, RelStats, Step, StepCtx};
use abr_core::AbEngine;
use abr_des::rng::StreamRng;
use abr_des::SimDuration;
use abr_fabric::FabricSpec;
use abr_jobs::{place, JobMix, Placement};
use abr_mpr::engine::Engine;
use abr_mpr::types::{bytes_to_f64s, f64s_to_bytes};
use abr_mpr::{Communicator, Datatype, ReduceOp, TopologyKind};
use bytes::Bytes;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Workload names, in the order the README lists them.
pub const WORKLOADS: [&str; 4] = ["paper32", "scale32k", "fabric_lossy", "tenant"];

/// `paper32`: iterations per message size, so that the root alone sees
/// more than 1,000 reductions per engine.
const PAPER_ITERS: u64 = 350;
const PAPER_ELEMS: [usize; 3] = [4, 32, 128];
/// `scale32k`: one iteration costs about half a second of host time per
/// engine.
const SCALE_RANKS: u32 = 32_768;
const SCALE_ITERS: u64 = 4;
/// `fabric_lossy`: enough iterations that the latency tail, which a single
/// dropped packet sets for a whole iteration, repeats across seeds.
const LOSSY_RANKS: u32 = 256;
const LOSSY_ITERS: u64 = 600;
const LOSSY_P: f64 = 0.01;
/// `tenant`: 128 x load 8 = 1,024 co-scheduled jobs on 4-slot nodes. At
/// this size the ab engines deadlock some ShuffleReduce jobs (see README);
/// the benchmark counts them instead of shrinking the mix.
const TENANT_BASE_JOBS: usize = 128;
const TENANT_LOAD: f64 = 8.0;
const TENANT_SLOTS: usize = 4;

/// Which engine a case runs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// The busy-polling MPICH baseline.
    Nab,
    /// Application bypass, `DelayPolicy::None`.
    Ab,
}

/// A solo run of the §VI CPU-utilization loop.
pub struct Solo {
    pub cluster: ClusterSpec,
    pub elems: usize,
    pub max_skew_us: u64,
    pub iters: u64,
    pub seed: u64,
    pub faults: FaultPlan,
    /// How iterations are separated: a barrier (Fig. 6), or at thousands
    /// of ranks a broadcast from the root, which keeps every rank out of
    /// the next reduction until the root holds this one's result at about
    /// a tenth of a dissemination barrier's events.
    pub barrier: bool,
}

/// A co-scheduled job mix (shared by the nab and ab cases).
pub struct Tenant {
    pub cluster: ClusterSpec,
    pub mix: JobMix,
    pub placement: Placement,
    /// Host seconds `abr_jobs::place` took.
    pub place_s: f64,
}

pub enum Shape {
    Solo(Box<Solo>),
    Tenant(Rc<Tenant>),
}

/// One driver: a shape run under one engine.
pub struct Case {
    pub mode: Mode,
    pub shape: Shape,
}

fn pin(spec: ClusterSpec, fabric: FabricSpec) -> ClusterSpec {
    spec.with_topology(TopologyKind::Binomial)
        .with_fabric(fabric)
        .with_segments(1)
}

fn solo_pair(out: &mut Vec<Case>, make: impl Fn() -> Solo) {
    for mode in [Mode::Nab, Mode::Ab] {
        out.push(Case {
            mode,
            shape: Shape::Solo(Box::new(make())),
        });
    }
}

/// The cases of `workload` for `seed` (part of the timed set-up: mix
/// generation and placement happen here).
pub fn cases(workload: &str, seed: u64) -> Vec<Case> {
    let mut out = Vec::new();
    match workload {
        "paper32" => {
            for elems in PAPER_ELEMS {
                solo_pair(&mut out, || Solo {
                    cluster: pin(ClusterSpec::heterogeneous_32(), FabricSpec::flat()),
                    elems,
                    max_skew_us: 1000,
                    iters: PAPER_ITERS,
                    seed,
                    faults: FaultPlan::none(),
                    barrier: true,
                });
            }
        }
        "scale32k" => solo_pair(&mut out, || Solo {
            cluster: pin(ClusterSpec::heterogeneous(SCALE_RANKS), FabricSpec::flat()),
            elems: 4,
            max_skew_us: 1000,
            iters: SCALE_ITERS,
            seed,
            faults: FaultPlan::none(),
            barrier: false,
        }),
        "fabric_lossy" => solo_pair(&mut out, || Solo {
            cluster: pin(
                ClusterSpec::heterogeneous(LOSSY_RANKS),
                FabricSpec::fat_tree(4.0),
            ),
            elems: 32,
            max_skew_us: 200,
            iters: LOSSY_ITERS,
            seed,
            faults: FaultPlan::uniform_loss(seed, LOSSY_P),
            barrier: false,
        }),
        "tenant" => {
            let cfg = saturation_config(
                seed,
                TENANT_BASE_JOBS,
                TENANT_LOAD,
                TENANT_LOAD,
                TENANT_SLOTS,
                false,
            );
            let t0 = Instant::now();
            let placement = place(&cfg.mix, cfg.cluster.len(), cfg.slots, cfg.policy)
                .expect("the saturation config sizes its cluster to fit the mix");
            let place_s = t0.elapsed().as_secs_f64();
            let tenant = Rc::new(Tenant {
                cluster: pin(cfg.cluster, FabricSpec::flat()),
                mix: cfg.mix,
                placement,
                place_s,
            });
            for mode in [Mode::Nab, Mode::Ab] {
                out.push(Case {
                    mode,
                    shape: Shape::Tenant(tenant.clone()),
                });
            }
        }
        other => panic!("unknown workload {other:?}"),
    }
    out
}

// ---------------------------------------------------------------------------
// Programs

/// The §VI CPU-utilization loop, step for step as
/// `abr_cluster::microbench::run_cpu_util` runs it (same RNG streams, same
/// subtraction), so the two must agree exactly on modelled CPU: open a
/// window, busy-loop a seeded skew, reduce, busy-loop the catch-up delay,
/// close the window, subtract both delays, barrier.
pub struct SoloProgram {
    rank: u32,
    elems: usize,
    iters: u64,
    max_skew_us: u64,
    catchup: SimDuration,
    rng: StreamRng,
    iter: u64,
    phase: u8,
    cur_skew: SimDuration,
    barrier: bool,
}

/// `CpuUtilConfig::new` defaults the solo workloads share.
pub const NATURAL_JITTER_US: u64 = 40;
pub const CATCHUP_MARGIN_US: u64 = 400;

impl SoloProgram {
    fn new(s: &Solo, rank: u32) -> Self {
        SoloProgram {
            rank,
            elems: s.elems,
            iters: s.iters,
            max_skew_us: s.max_skew_us,
            catchup: SimDuration::from_us(s.max_skew_us + CATCHUP_MARGIN_US),
            rng: StreamRng::root(s.seed).derive(&[0xBE7C, rank as u64]),
            iter: 0,
            phase: 0,
            cur_skew: SimDuration::ZERO,
            barrier: s.barrier,
        }
    }
}

impl Program for SoloProgram {
    fn next(&mut self, ctx: &mut StepCtx) -> Step {
        loop {
            if self.iter >= self.iters {
                return Step::Done;
            }
            self.phase += 1;
            match self.phase {
                1 => return Step::WindowStart,
                2 => {
                    let mut r = self.rng.derive(&[self.iter, self.rank as u64]);
                    let injected = r.below(self.max_skew_us + 1);
                    let natural = r.below(NATURAL_JITTER_US + 1);
                    self.cur_skew = SimDuration::from_us(injected + natural);
                    return Step::Busy(self.cur_skew);
                }
                3 => {
                    return Step::Reduce {
                        root: 0,
                        op: ReduceOp::Sum,
                        dtype: Datatype::F64,
                        data: f64s_to_bytes(&vec![self.rank as f64 + 1.0; self.elems]),
                    }
                }
                4 => return Step::Busy(self.catchup),
                5 => return Step::WindowStop,
                6 => {
                    let window = ctx.last_window.expect("window just closed");
                    let util = window
                        .host_total()
                        .saturating_sub(self.cur_skew)
                        .saturating_sub(self.catchup);
                    ctx.record("cpu_util_us", util.as_us_f64());
                    // The same window by category, for the per-layer split.
                    ctx.record("win_poll_us", window.polling.as_us_f64());
                    ctx.record("win_protocol_us", window.protocol.as_us_f64());
                    ctx.record("win_signal_us", window.signal.as_us_f64());
                }
                _ => {
                    self.phase = 0;
                    self.iter += 1;
                    if self.barrier {
                        return Step::Barrier;
                    }
                    return Step::Bcast {
                        root: 0,
                        data: (self.rank == 0).then(|| Bytes::from(vec![0u8; 8])),
                        len: 8,
                    };
                }
            }
        }
    }
}

pub enum Inner {
    Solo(SoloProgram),
    Tenant(TenantProgram),
}

/// Wraps every rank's program. It records, as observations, the virtual
/// time each collective is posted (`post_us`) and, at a rank that receives
/// the result, when it completes (`done_us`); there it also checks the
/// values against the closed-form sum (`bad_value` on a mismatch). When the
/// program ends it records the collectives the rank finished (`colls`) and
/// when (`end_us`). In the traced run it also times `Program::next`.
pub struct Probe {
    inner: Inner,
    rank: u32,
    expect: f64,
    /// Whether this rank receives the result of the collective in flight.
    pending: Option<bool>,
    colls: u32,
    finished: bool,
    timed: bool,
}

impl Probe {
    fn step(&mut self, ctx: &mut StepCtx) -> Step {
        if let Some(receives) = self.pending.take() {
            self.colls += 1;
            if receives {
                ctx.record("done_us", ctx.now.as_us_f64());
                let ok = ctx
                    .last_data
                    .as_ref()
                    .is_some_and(|d| bytes_to_f64s(d).iter().all(|&v| v == self.expect));
                if !ok {
                    ctx.record("bad_value", 1.0);
                }
            }
        }
        let step = match &mut self.inner {
            Inner::Solo(p) => p.next(ctx),
            Inner::Tenant(p) => p.next(ctx),
        };
        match &step {
            Step::Reduce { root, .. } => {
                ctx.record("post_us", ctx.now.as_us_f64());
                self.pending = Some(*root == self.rank);
            }
            Step::Allreduce { .. } => {
                ctx.record("post_us", ctx.now.as_us_f64());
                self.pending = Some(true);
            }
            Step::Done if !self.finished => {
                self.finished = true;
                ctx.record("colls", self.colls as f64);
                ctx.record("end_us", ctx.now.as_us_f64());
            }
            _ => {}
        }
        step
    }
}

impl Program for Probe {
    fn next(&mut self, ctx: &mut StepCtx) -> Step {
        if self.timed {
            probe::timed(Span::Program, || self.step(ctx))
        } else {
            self.step(ctx)
        }
    }
}

fn probe(inner: Inner, rank: u32, expect: f64, timed: bool) -> Probe {
    Probe {
        inner,
        rank,
        expect,
        pending: None,
        colls: 0,
        finished: false,
        timed,
    }
}

// ---------------------------------------------------------------------------
// Building and running one case

type Driver<E> = DesDriver<E, Probe>;

fn build<E: MakeEngine>(case: &Case, timed: bool) -> Driver<E> {
    match &case.shape {
        Shape::Solo(s) => {
            let n = s.cluster.len() as u32;
            // Contributions are rank + 1, so the root must hold n(n+1)/2.
            let expect = (n as f64) * (n as f64 + 1.0) / 2.0;
            let programs = (0..n)
                .map(|r| probe(Inner::Solo(SoloProgram::new(s, r)), r, expect, timed))
                .collect();
            let mut d = DesDriver::new(&s.cluster, |r, ec| E::make(r, n, ec), programs);
            d.set_faults(&s.faults, RelConfig::sim_default());
            d
        }
        Shape::Tenant(t) => {
            let programs = t
                .mix
                .jobs
                .iter()
                .map(|spec| {
                    // Every tenant rank contributes 1.0 per element.
                    let expect = spec.ranks as f64;
                    TenantProgram::job(spec)
                        .into_iter()
                        .enumerate()
                        .map(|(r, p)| probe(Inner::Tenant(p), r as u32, expect, timed))
                        .collect()
                })
                .collect();
            DesDriver::new_jobs(
                &t.cluster,
                &t.placement.node_of,
                |job, rank, size, ec| {
                    let mut e = E::make(rank, size, ec);
                    e.set_world(Communicator::job(job, size));
                    e
                },
                programs,
            )
        }
    }
}

/// Build every driver of `cases` and drop it: the unit the set-up time
/// measures (drop time excluded).
pub fn build_all(cases: &[Case]) -> f64 {
    let mut ns = 0.0;
    for case in cases {
        let t0 = Instant::now();
        match case.mode {
            Mode::Nab => {
                let d = build::<Engine>(case, false);
                ns += t0.elapsed().as_nanos() as f64;
                drop(d);
            }
            Mode::Ab => {
                let d = build::<AbEngine>(case, false);
                ns += t0.elapsed().as_nanos() as f64;
                drop(d);
            }
        }
    }
    ns / 1e9
}

/// What one driver run produced.
pub struct Outcome {
    /// Host nanoseconds spent inside `DesDriver::run`.
    pub run_ns: f64,
    pub events: u64,
    pub makespan_us: f64,
    /// Per-job node results (a solo run is one job).
    pub jobs: Vec<Vec<NodeResult>>,
    /// The panic message, if the run panicked (deadlock, dead link, event
    /// cap).
    pub panic: Option<String>,
    pub packets: u64,
    pub bytes: u64,
    pub link_waits: u64,
    pub link_wait_us: f64,
    pub floor_entries: u64,
    pub floors_pruned: u64,
    pub rel: RelStats,
    pub trace_records: u64,
    /// Traced runs only: host ns per [`Span`] class inside `run`, and the
    /// allocations (count, bytes) made inside `run`.
    pub spans: [u64; 6],
    pub allocs: (u64, u64),
}

thread_local! {
    static GUARDED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Whether the current thread is inside a driver run whose panic is
/// caught and counted (the panic hook stays quiet there).
pub fn in_guarded_run() -> bool {
    GUARDED.with(|g| g.get())
}

fn exec<E: MakeEngine>(case: &Case, traced: bool) -> Outcome {
    let mut d: Driver<E> = build(case, traced);
    let tracer = traced.then(|| Arc::new(CountingTracer::default()));
    if let Some(t) = &tracer {
        d.install_tracer(t.clone());
    }
    probe::take_spans();
    probe::alloc_counting(traced);
    let t0 = Instant::now();
    GUARDED.with(|g| g.set(true));
    let res = catch_unwind(AssertUnwindSafe(|| d.run()));
    GUARDED.with(|g| g.set(false));
    let run_ns = t0.elapsed().as_nanos() as f64;
    let allocs = probe::alloc_counting(false);
    let spans = probe::take_spans();
    let panic = res.err().map(|p| {
        p.downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "non-string panic".to_string())
    });
    let jobs = match case.shape {
        Shape::Solo(_) => vec![d.results()],
        Shape::Tenant(_) => d.results_by_job(),
    };
    let net = d.network();
    Outcome {
        run_ns,
        events: d.events_processed(),
        makespan_us: d.now().as_us_f64(),
        jobs,
        panic,
        packets: net.packets_carried(),
        bytes: net.bytes_carried(),
        link_waits: net.link_waits(),
        link_wait_us: net.link_wait_us(),
        floor_entries: net.floor_entries() as u64,
        floors_pruned: net.floors_pruned(),
        rel: d.rel_stats().unwrap_or_default(),
        trace_records: tracer.map_or(0, |t| t.records()),
        spans,
        allocs,
    }
}

/// Build and run one case. `traced` wraps engines in [`Timed`], times the
/// programs and installs a [`CountingTracer`].
pub fn run(case: &Case, traced: bool) -> Outcome {
    match (case.mode, traced) {
        (Mode::Nab, false) => exec::<Engine>(case, false),
        (Mode::Ab, false) => exec::<AbEngine>(case, false),
        (Mode::Nab, true) => exec::<Timed<Engine>>(case, true),
        (Mode::Ab, true) => exec::<Timed<AbEngine>>(case, true),
    }
}

// ---------------------------------------------------------------------------
// Checking and summarising one outcome

fn obs<'a>(n: &'a NodeResult, key: &'static str) -> impl Iterator<Item = f64> + 'a {
    n.obs.iter().filter(move |o| o.key == key).map(|o| o.value)
}

/// Names of the modelled-CPU categories in [`Summary::cpu`].
pub const CPU_CATEGORIES: [&str; 4] = ["poll", "protocol", "signal", "app"];

/// Everything the metrics need from one outcome, with its output checks.
#[derive(Default)]
pub struct Summary {
    pub digest: u64,
    /// Jobs (tenant) or runs (solo) attempted, and how many of them did not
    /// finish or failed an output check.
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures (wrong values, wrong iteration counts).
    pub errors: Vec<String>,
    /// Collectives completed at rank 0 of each job.
    pub reductions: u64,
    /// Completed collectives entered, summed over ranks (the per-rank CPU
    /// divisor and the latency sample count).
    pub participations: u64,
    pub lat_us: Vec<f64>,
    /// `cpu_util_us` samples (solo workloads).
    pub cpu_util_sum: f64,
    pub cpu_util_n: u64,
    /// Modelled CPU (µs) by [`CPU_CATEGORIES`]: inside the §VI windows for
    /// solo workloads (where application time is the subtracted delays, so
    /// it stays 0), whole-run meters for tenant ones.
    pub cpu: [f64; 4],
    pub signals_raised: u64,
    pub signals_suppressed: u64,
    pub counters: std::collections::BTreeMap<&'static str, u64>,
    pub descriptor_high_water: u64,
    pub jobs_finished: u64,
    /// Per-job completed reductions per virtual second (fairness input).
    pub job_rates: Vec<f64>,
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// FNV-1a over every field of every node result plus the event count and
/// makespan: two runs with equal digests simulated the same thing.
fn digest(o: &Outcome) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    fnv(&mut h, &o.events.to_le_bytes());
    fnv(&mut h, &o.makespan_us.to_bits().to_le_bytes());
    for n in o.jobs.iter().flatten() {
        for ob in &n.obs {
            fnv(&mut h, ob.key.as_bytes());
            fnv(&mut h, &ob.value.to_bits().to_le_bytes());
        }
        for v in [
            n.cpu_app_us,
            n.cpu_poll_us,
            n.cpu_protocol_us,
            n.cpu_signal_us,
            n.cpu_nic_us,
        ] {
            fnv(&mut h, &v.to_bits().to_le_bytes());
        }
        fnv(&mut h, &n.signals_raised.to_le_bytes());
        fnv(&mut h, &n.signals_suppressed_busy.to_le_bytes());
        for (k, v) in &n.counters {
            fnv(&mut h, k.as_bytes());
            fnv(&mut h, &v.to_le_bytes());
        }
    }
    h
}

/// Check `o` and fold it into a [`Summary`].
pub fn summarize(case: &Case, o: &Outcome) -> Summary {
    let mut s = Summary {
        digest: digest(o),
        ..Default::default()
    };
    for (j, ranks) in o.jobs.iter().enumerate() {
        let iters = match &case.shape {
            Shape::Solo(solo) => solo.iters,
            Shape::Tenant(t) => t.mix.jobs[j].iters as u64,
        };
        s.attempted += 1;
        let mut finished = o.panic.is_none() || case_is_tenant(case);
        let mut bad = false;
        // Every collective here delivers its result at rank 0 (a reduce to
        // root 0, or an allreduce, which also delivers it at every rank).
        let root_done: Vec<f64> = obs(&ranks[0], "done_us").collect();
        s.reductions += root_done.len() as u64;
        if let Some(end) = obs(&ranks[0], "end_us").next() {
            s.job_rates.push(root_done.len() as f64 / (end / 1e6));
        }
        for (r, n) in ranks.iter().enumerate() {
            // One latency sample per rank and collective: from this rank's
            // post to the result's completion at the rank receiving it.
            let own_done: Vec<f64> = obs(n, "done_us").collect();
            let done = if own_done.is_empty() {
                &root_done
            } else {
                &own_done
            };
            for (post, end) in obs(n, "post_us").zip(done) {
                s.lat_us.push(end - post);
                s.participations += 1;
            }
            let cpu = if case_is_tenant(case) {
                [
                    n.cpu_poll_us,
                    n.cpu_protocol_us,
                    n.cpu_signal_us,
                    n.cpu_app_us,
                ]
            } else {
                let win = |k| obs(n, k).sum::<f64>();
                [
                    win("win_poll_us"),
                    win("win_protocol_us"),
                    win("win_signal_us"),
                    0.0,
                ]
            };
            for (acc, x) in s.cpu.iter_mut().zip(cpu) {
                *acc += x;
            }
            s.signals_raised += n.signals_raised;
            s.signals_suppressed += n.signals_suppressed_busy;
            for &(k, v) in &n.counters {
                if k == "descriptor_high_water" {
                    s.descriptor_high_water = s.descriptor_high_water.max(v);
                } else {
                    *s.counters.entry(k).or_default() += v;
                }
            }
            for v in obs(n, "cpu_util_us") {
                s.cpu_util_sum += v;
                s.cpu_util_n += 1;
            }
            if obs(n, "bad_value").next().is_some() {
                bad = true;
                s.errors.push(format!(
                    "job {j} rank {r}: reduced values differ from the closed form"
                ));
            }
            match obs(n, "colls").next() {
                Some(c) if c as u64 != iters => {
                    bad = true;
                    s.errors.push(format!(
                        "job {j} rank {r}: finished {c} of {iters} iterations"
                    ));
                }
                Some(_) => {}
                None => finished = false,
            }
        }
        if finished && !bad {
            s.jobs_finished += 1;
        } else {
            s.failed += 1;
        }
    }
    s
}

fn case_is_tenant(case: &Case) -> bool {
    matches!(case.shape, Shape::Tenant(_))
}
