//! Frozen host-speed reference kernel.
//!
//! The benchmark host is a shared VM whose speed drifts by up to 2x within
//! seconds. The timed work is interleaved with this fixed kernel, and
//! host-time metrics are rescaled by how long the kernel took next to them
//! compared with [`NOMINAL_NS`], so a slow spell that stretches both shows
//! up in neither.
//!
//! The kernel is a miniature discrete-event loop, because the simulator's
//! own hot loop is one and slows down with the host the same way: events
//! popped from a binary heap, a branchy per-node state machine, small
//! heap-allocated payloads, and a hash map of messages in flight. A plain
//! heap-plus-table kernel tracked the simulator worse: the simulator slowed
//! down by the square of its slowdown.
//!
//! This file is part of the measuring instrument, not of the system under
//! test: never change it, or corrected figures stop being comparable with
//! those recorded before the change.

use std::cmp::Reverse;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// Kernel time on the host the benchmark was calibrated on (2-core VM,
/// release build). Corrected metrics read "as if measured on that host".
pub const NOMINAL_NS: f64 = 8_000_000.0;

const NODES: usize = 256;
const EVENTS: u32 = 60_000;
const WARM_EVENTS: u32 = 4_000;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

enum Msg {
    Data(Vec<f64>),
    Ack(u32),
    Tick,
}

struct Node {
    state: u8,
    pending: VecDeque<Msg>,
    sum: f64,
    seen: u32,
}

/// Process `events` events; every event delivers one message to a node,
/// which updates its state and sends one message on to a random node.
fn kernel(events: u32) -> u64 {
    let mut nodes: Vec<Node> = (0..NODES)
        .map(|_| Node {
            state: 0,
            pending: VecDeque::new(),
            sum: 0.0,
            seen: 0,
        })
        .collect();
    let mut queue: BinaryHeap<Reverse<(u64, u32, u64)>> = BinaryHeap::new();
    // Fixed-key hasher: the same work, hash for hash, in every process.
    let mut inflight: HashMap<u64, Msg, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    let mut x = 0x1234_5678_9ABC_DEF1u64;
    for n in 0..NODES as u32 {
        x = xorshift(x);
        queue.push(Reverse((x & 0xFFF, n, u64::MAX)));
    }
    let (mut acc, mut next_id) = (0u64, 0u64);
    for _ in 0..events {
        let Reverse((t, n, id)) = queue.pop().expect("every event schedules one");
        let msg = if id == u64::MAX {
            Msg::Tick
        } else {
            inflight.remove(&id).unwrap_or(Msg::Tick)
        };
        let node = &mut nodes[n as usize];
        x = xorshift(x);
        match msg {
            Msg::Data(v) => {
                node.sum += v.iter().sum::<f64>();
                node.seen += 1;
                if node.seen % 3 == 0 {
                    node.pending.push_back(Msg::Ack(n));
                }
            }
            Msg::Ack(k) => {
                acc = acc.wrapping_add(k as u64);
                node.state = node.state.wrapping_add(1);
            }
            Msg::Tick => {
                node.state ^= 1;
                let len = 4 + (x & 7) as usize;
                node.pending
                    .push_back(Msg::Data(vec![x as f64 * 1e-18; len]));
            }
        }
        let dest = ((x >> 8) as usize % NODES) as u32;
        let m = node.pending.pop_front().unwrap_or(Msg::Tick);
        next_id += 1;
        inflight.insert(next_id, m);
        queue.push(Reverse((t + 1 + ((x >> 20) & 0x3FF), dest, next_id)));
    }
    nodes.iter().fold(acc, |a, n| {
        a ^ n.sum.to_bits() ^ n.seen as u64 ^ n.state as u64
    })
}

/// Run the kernel once and return its host time in nanoseconds.
///
/// A short untimed run goes first. After the simulator drops a large
/// driver, the allocator holds many freed chunks that it sorts on the next
/// allocations; that cost belongs to the workload, not to the host speed.
pub fn time_ns() -> f64 {
    black_box(kernel(black_box(WARM_EVENTS)));
    let t0 = Instant::now();
    black_box(kernel(black_box(EVENTS)));
    t0.elapsed().as_nanos() as f64
}
