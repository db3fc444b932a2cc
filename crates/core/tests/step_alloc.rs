//! A warm `ClusterSolver::step()` allocates nothing on the heap.
//!
//! Online emulation (monitord feeding the live service) ticks once a
//! second forever, so a tick that allocated would show up as allocator
//! churn in every long run. This binary installs a counting global
//! allocator — which is why it is a test file of its own — and counts
//! the allocations of 100 warm ticks on the calling thread, in a room
//! whose machines take a utilization every tick and one of which is
//! pinned, so both the chunk lanes and the solo path run. Midway the
//! pinned machine takes a heat-k and a fan fiddle, so its kernel is
//! rebuilt and its tick recomposed inside the counted window.

use mercury::presets::{self, nodes, FAN_CFM};
use mercury::solver::{ClusterSolver, SolverConfig};
use mercury::units::Celsius;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread. Const-initialised and without a
    /// destructor, so the allocator can touch it without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation on the thread that
/// makes it.
struct Counting;

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with its own arguments;
// the only addition is a thread-local counter that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the warm ticks below make, fiddles included.
const WARM_STEP_ALLOCATIONS: u64 = 0;

#[test]
fn warm_steps_do_not_allocate() {
    let cluster = presets::validation_cluster(64);
    let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
    let cpu = s.machine_at(0).node_index(nodes::CPU).unwrap();
    s.machine_at_mut(9)
        .force_temperature(nodes::CPU_AIR, Celsius(40.0))
        .unwrap();
    let tick = |s: &mut ClusterSolver, t: usize| {
        for m in 0..s.len() {
            let u = ((t * 31 + m * 17) % 101) as f64 / 100.0;
            s.machine_at_mut(m).set_utilization_at(cpu, u).unwrap();
        }
        s.step();
    };
    // Warm up: the first ticks build the batch plan and size the chunks.
    for t in 0..5 {
        tick(&mut s, t);
    }
    assert_eq!(s.batched_machines(), 63, "one pinned machine steps solo");

    let before = ALLOCATIONS.with(Cell::get);
    for t in 5..105 {
        let pinned = s.machine_at_mut(9);
        match t {
            30 => pinned.set_heat_k(nodes::CPU, nodes::CPU_AIR, 0.9).unwrap(),
            60 => pinned.set_fan_cfm(FAN_CFM * 0.8).unwrap(),
            _ => {}
        }
        tick(&mut s, t);
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(
        allocations, WARM_STEP_ALLOCATIONS,
        "100 warm step() calls and two fiddles"
    );
}
