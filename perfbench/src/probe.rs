//! Outside-in instrumentation for the traced run.
//!
//! Nothing here reaches inside the simulator. The driver is handed engines
//! wrapped in [`Timed`], which times every engine call by class; the
//! program wrapper times `Program::next` through [`Span::Program`]; a
//! counting global allocator counts allocations while [`alloc_counting`] is
//! on; and a [`CountingTracer`] counts the trace records the stack emits.
//! Everything accumulates in thread-local cells: each workload runs on one
//! thread, so no synchronisation is needed.

use abr_gm::packet::Packet;
use abr_mpr::engine::{Action, EngineConfig, MessageEngine};
use abr_mpr::{Charges, Communicator, Datatype, Rank, ReduceOp, ReqId, TagSel};
use abr_trace::{TraceEvent, TraceHandle, Tracer};
use bytes::Bytes;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// The classes host time is split into by the traced run.
#[derive(Clone, Copy)]
pub enum Span {
    /// `MessageEngine::progress`.
    Progress,
    /// `deliver` and `nic_preprocess`: a packet handed to the engine.
    Deliver,
    /// `handle_signal`.
    Signal,
    /// Posting an operation: `isend`, `irecv`, every collective entry point
    /// and `split_phase_exit`.
    Post,
    /// Collecting results: `drain_actions(_into)`, `take_charges`,
    /// `take_outcome`.
    Drain,
    /// `Program::next`.
    Program,
}

const SPANS: usize = 6;

thread_local! {
    static SPAN_NS: [Cell<u64>; SPANS] = Default::default();
}

/// Nanoseconds accumulated per [`Span`] since the last [`take_spans`].
pub fn take_spans() -> [u64; SPANS] {
    SPAN_NS.with(|s| std::array::from_fn(|i| s[i].take()))
}

/// Time `f` into `span`.
#[inline]
pub fn timed<R>(span: Span, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    let ns = t0.elapsed().as_nanos() as u64;
    SPAN_NS.with(|s| {
        let c = &s[span as usize];
        c.set(c.get() + ns);
    });
    r
}

/// A `MessageEngine` that forwards every call, default methods included,
/// to the wrapped engine and times it by [`Span`] class. Read-only queries
/// (`test`, `bounded_block_hint`, `sleeps_when_blocked`,
/// `has_pending_signal_work`, `counters`) are not timed: a clock read would
/// cost more than they do, so they count as driver time. A forgotten
/// override would silently fall back to the trait default and change
/// simulated results, which the traced-equals-untraced digest check
/// catches.
pub struct Timed<E>(pub E);

impl<E: MessageEngine> MessageEngine for Timed<E> {
    fn rank(&self) -> Rank {
        self.0.rank()
    }
    fn size(&self) -> u32 {
        self.0.size()
    }
    fn world(&self) -> Communicator {
        self.0.world()
    }
    fn deliver(&mut self, pkt: Packet) {
        timed(Span::Deliver, || self.0.deliver(pkt))
    }
    fn set_tracer(&mut self, trace: TraceHandle) {
        self.0.set_tracer(trace)
    }
    fn progress(&mut self) -> bool {
        timed(Span::Progress, || self.0.progress())
    }
    fn handle_signal(&mut self) -> bool {
        timed(Span::Signal, || self.0.handle_signal())
    }
    fn drain_actions(&mut self) -> Vec<Action> {
        timed(Span::Drain, || self.0.drain_actions())
    }
    fn drain_actions_into(&mut self, out: &mut Vec<Action>) {
        timed(Span::Drain, || self.0.drain_actions_into(out))
    }
    fn take_charges(&mut self) -> Charges {
        timed(Span::Drain, || self.0.take_charges())
    }
    fn test(&self, req: ReqId) -> bool {
        self.0.test(req)
    }
    fn take_outcome(&mut self, req: ReqId) -> Option<abr_mpr::request::Outcome> {
        timed(Span::Drain, || self.0.take_outcome(req))
    }
    fn isend(&mut self, comm: &Communicator, dst: Rank, tag: i32, data: Bytes) -> ReqId {
        timed(Span::Post, || self.0.isend(comm, dst, tag, data))
    }
    fn irecv(&mut self, comm: &Communicator, src: Option<Rank>, tag: TagSel, cap: usize) -> ReqId {
        timed(Span::Post, || self.0.irecv(comm, src, tag, cap))
    }
    fn ireduce(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        timed(Span::Post, || self.0.ireduce(comm, root, op, dtype, data))
    }
    fn ibcast(
        &mut self,
        comm: &Communicator,
        root: Rank,
        data: Option<Bytes>,
        len: usize,
    ) -> ReqId {
        timed(Span::Post, || self.0.ibcast(comm, root, data, len))
    }
    fn ibarrier(&mut self, comm: &Communicator) -> ReqId {
        timed(Span::Post, || self.0.ibarrier(comm))
    }
    fn iallreduce(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        timed(Span::Post, || self.0.iallreduce(comm, op, dtype, data))
    }
    fn iallreduce_dual(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        timed(Span::Post, || self.0.iallreduce_dual(comm, op, dtype, data))
    }
    fn ireduce_split(
        &mut self,
        comm: &Communicator,
        root: Rank,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        timed(Span::Post, || {
            self.0.ireduce_split(comm, root, op, dtype, data)
        })
    }
    fn iallreduce_dual_split(
        &mut self,
        comm: &Communicator,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> ReqId {
        timed(Span::Post, || {
            self.0.iallreduce_dual_split(comm, op, dtype, data)
        })
    }
    fn has_pending_signal_work(&self) -> bool {
        self.0.has_pending_signal_work()
    }
    fn sleeps_when_blocked(&self) -> bool {
        self.0.sleeps_when_blocked()
    }
    fn counters(&self) -> Vec<(&'static str, u64)> {
        self.0.counters()
    }
    fn bounded_block_hint(&self, req: ReqId) -> Option<abr_des::SimDuration> {
        self.0.bounded_block_hint(req)
    }
    fn split_phase_exit(&mut self, req: ReqId) {
        timed(Span::Post, || self.0.split_phase_exit(req))
    }
    fn ibcast_split(
        &mut self,
        comm: &Communicator,
        root: Rank,
        data: Option<Bytes>,
        len: usize,
    ) -> ReqId {
        timed(Span::Post, || self.0.ibcast_split(comm, root, data, len))
    }
    fn nic_preprocess(&mut self, pkt: Packet) -> Option<Packet> {
        timed(Span::Deliver, || self.0.nic_preprocess(pkt))
    }
}

/// How the benchmark constructs an engine of a given kind.
pub trait MakeEngine: MessageEngine + Sized {
    /// Build the engine for `rank` of a `size`-rank world.
    fn make(rank: u32, size: u32, ec: EngineConfig) -> Self;
    /// Rebind the world communicator (tenant jobs get job-local ones).
    fn set_world(&mut self, world: Communicator);
}

impl MakeEngine for abr_mpr::Engine {
    fn make(rank: u32, size: u32, ec: EngineConfig) -> Self {
        abr_mpr::Engine::new(rank, size, ec)
    }
    fn set_world(&mut self, world: Communicator) {
        abr_mpr::Engine::set_world(self, world)
    }
}

impl MakeEngine for abr_core::AbEngine {
    fn make(rank: u32, size: u32, ec: EngineConfig) -> Self {
        abr_core::AbEngine::new(rank, size, ec, abr_core::AbConfig::default())
    }
    fn set_world(&mut self, world: Communicator) {
        abr_core::AbEngine::set_world(self, world)
    }
}

impl<E: MakeEngine> MakeEngine for Timed<E> {
    fn make(rank: u32, size: u32, ec: EngineConfig) -> Self {
        Timed(E::make(rank, size, ec))
    }
    fn set_world(&mut self, world: Communicator) {
        self.0.set_world(world)
    }
}

/// Counts every record the stack emits through `abr_trace`.
#[derive(Default)]
pub struct CountingTracer {
    records: AtomicU64,
}

impl CountingTracer {
    /// Records seen so far.
    pub fn records(&self) -> u64 {
        self.records.load(Ordering::Relaxed)
    }
}

impl Tracer for CountingTracer {
    fn record(&self, _rank: u32, _event: TraceEvent) {
        self.records.fetch_add(1, Ordering::Relaxed);
    }
}

/// The system allocator, counting allocations and bytes while
/// [`alloc_counting`] is on (the untraced run pays one relaxed load).
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters only observe sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        // SAFETY: the caller's layout obligations pass straight through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        }
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Turn allocation counting on or off; returns `(allocations, bytes)`
/// counted since the last call and resets both.
pub fn alloc_counting(on: bool) -> (u64, u64) {
    COUNTING.store(on, Ordering::Relaxed);
    (
        ALLOCS.swap(0, Ordering::Relaxed),
        ALLOC_BYTES.swap(0, Ordering::Relaxed),
    )
}
