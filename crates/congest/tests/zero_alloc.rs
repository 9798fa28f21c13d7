//! Enforces the round engine's steady-state **zero-allocation** guarantee.
//!
//! A counting global allocator wraps the system allocator; after a warm-up
//! phase (early rounds grow staging-bucket capacity), the steady-state
//! round loop of both schedulers must perform exactly zero heap
//! allocations, on one-block mailboxes (direct writes) and on mailboxes of
//! several delivery blocks (staged writes) alike.
//!
//! The test harness runs tests on several threads, so two measures keep
//! each count to the test that takes it:
//!
//! * Every test holds [`SERIAL`] for its whole body, so no other test's
//!   engine runs while it measures.
//! * Only *measured* threads are counted: the test's own thread and every
//!   thread that steps a [`Flood`] node (the pool workers of the
//!   simulator under test). The harness's own threads, which spawn and
//!   report tests, are never counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use dcover_congest::{
    Ctx, ParallelSimulator, PartitionPolicy, Process, Simulator, Status, Topology,
    MAILBOX_BLOCK_SLOTS,
};

/// System allocator wrapper that counts allocations (and reallocations)
/// made on measured threads.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// Serializes the tests of this file (see the module docs).
static SERIAL: Mutex<()> = Mutex::new(());

thread_local! {
    /// Whether allocations on this thread are counted. Const-initialized
    /// and destructor-free, so reading it never allocates.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

fn count_if_measured() {
    if MEASURED.with(Cell::get) {
        // relaxed: allocation tally, read only after the measured threads
        // finished their round (see `allocs`).
        ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

/// Counts this thread's allocations from now on.
fn measure_this_thread() {
    MEASURED.with(|m| m.set(true));
}

/// Takes the file-wide test lock and starts counting on this thread. A
/// test that failed while holding the lock leaves it poisoned; the
/// remaining tests still run.
fn serial() -> MutexGuard<'static, ()> {
    let guard = SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    measure_this_thread();
    guard
}

// SAFETY-FREE NOTE: implementing `GlobalAlloc` requires `unsafe` by design;
// this is test-only code, delegating straight to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_if_measured();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_if_measured();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    // relaxed: every measured round has returned to the reading thread
    // (the scheduler waits for its workers' replies), so program order
    // already sequences the reads.
    ALLOCS.load(Ordering::Relaxed)
}

/// Message-heavy gossip: every node broadcasts every round — the workload
/// class the engine is optimized for (MWHVC sends on every link).
struct Flood {
    acc: u64,
    rounds: u64,
}

impl Process for Flood {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) -> Status {
        // Pool workers join the measured set on the first round they run.
        measure_this_thread();
        for item in ctx.inbox() {
            self.acc = self.acc.wrapping_add(item.msg);
        }
        if ctx.round() >= self.rounds {
            return Status::Halted;
        }
        ctx.broadcast(self.acc % 1023 + 1);
        Status::Running
    }
}

fn grid_topology(rows: usize, cols: usize) -> Topology {
    let id = |r: usize, c: usize| r * cols + c;
    let mut links = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                links.push((id(r, c), id(r, c + 1)));
            }
            if r + 1 < rows {
                links.push((id(r, c), id(r + 1, c)));
            }
        }
    }
    Topology::from_links(rows * cols, &links)
}

fn flood_nodes(n: usize, rounds: u64) -> Vec<Flood> {
    (0..n)
        .map(|i| Flood {
            acc: i as u64,
            rounds,
        })
        .collect()
}

#[test]
fn sequential_steady_state_allocates_nothing() {
    let _serial = serial();
    let topo = grid_topology(20, 20);
    let n = topo.len();
    let mut sim = Simulator::new(topo, flood_nodes(n, 200));
    // Warm-up: let the staging buckets reach capacity.
    for _ in 0..20 {
        sim.step().unwrap();
    }
    let before = allocs();
    for _ in 0..100 {
        sim.step().unwrap();
    }
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "sequential round loop allocated {during} times in 100 steady-state rounds"
    );
}

#[test]
fn parallel_steady_state_allocates_nothing() {
    let _serial = serial();
    let topo = grid_topology(20, 20);
    let n = topo.len();
    let mut sim = ParallelSimulator::new(topo, flood_nodes(n, 400), 4);
    for _ in 0..20 {
        sim.step().unwrap();
    }
    let before = allocs();
    for _ in 0..100 {
        sim.step().unwrap();
    }
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "parallel round loop allocated {during} times in 100 steady-state rounds"
    );
}

#[test]
fn locality_fast_path_steady_state_allocates_nothing() {
    let _serial = serial();
    // Under the locality policy most grid neighbours land in the same
    // one-block chunk, so the measured loop exercises the direct mailbox
    // writes rather than the staging buckets. The guarantee is the same:
    // once the residual cross-chunk buckets reach capacity, a broadcast
    // round performs zero heap allocations.
    let topo = grid_topology(20, 20);
    let n = topo.len();
    let mut sim =
        ParallelSimulator::with_partition(topo, flood_nodes(n, 400), 4, PartitionPolicy::Locality);
    for _ in 0..20 {
        sim.step().unwrap();
    }
    let before = allocs();
    for _ in 0..100 {
        sim.step().unwrap();
    }
    let during = allocs() - before;
    assert_eq!(
        during, 0,
        "locality fast-path round loop allocated {during} times in 100 steady-state rounds"
    );
}

#[test]
fn warmup_allocations_are_bounded() {
    let _serial = serial();
    // Sanity check on the harness itself: construction does allocate.
    let before = allocs();
    let topo = grid_topology(10, 10);
    let n = topo.len();
    let mut sim = Simulator::new(topo, flood_nodes(n, 50));
    sim.run(100).unwrap();
    assert!(allocs() > before, "allocation counter must be live");
}

/// A square grid whose mailbox gives each of `chunks` port-balanced chunks
/// at least three delivery blocks, so every send is staged by block.
fn multi_block_grid(chunks: usize) -> Topology {
    let slots = |side: usize| 4 * side * (side - 1);
    let side = (2..)
        .find(|&side| slots(side) >= chunks * 3 * MAILBOX_BLOCK_SLOTS)
        .unwrap();
    grid_topology(side, side)
}

/// Runs `warmup` rounds, then counts the allocations of `measured` more.
fn steady_state_allocs(mut step: impl FnMut(), warmup: usize, measured: usize) -> u64 {
    for _ in 0..warmup {
        step();
    }
    let before = allocs();
    for _ in 0..measured {
        step();
    }
    allocs() - before
}

#[test]
fn multi_block_sequential_steady_state_allocates_nothing() {
    let _serial = serial();
    let topo = multi_block_grid(1);
    let n = topo.len();
    let mut sim = Simulator::new(topo, flood_nodes(n, 100));
    let during = steady_state_allocs(
        || {
            sim.step().unwrap();
        },
        4,
        8,
    );
    assert_eq!(
        during, 0,
        "multi-block sequential round loop allocated {during} times in 8 steady-state rounds"
    );
}

#[test]
fn multi_block_parallel_steady_state_allocates_nothing() {
    let _serial = serial();
    for policy in [PartitionPolicy::Contiguous, PartitionPolicy::Locality] {
        let topo = multi_block_grid(2);
        let n = topo.len();
        let mut sim = ParallelSimulator::with_partition(topo, flood_nodes(n, 100), 2, policy);
        let during = steady_state_allocs(
            || {
                sim.step().unwrap();
            },
            4,
            8,
        );
        assert_eq!(
            during, 0,
            "multi-block parallel ({policy:?}) round loop allocated {during} times in 8 \
             steady-state rounds"
        );
    }
}
