//! Heap use of a room: what a replica costs, what its first divergence
//! copies, and that a warm `ClusterSolver::step()` allocates nothing.
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
//!
//! The same allocator keeps the live bytes of each thread, which pins
//! the memory a replicated room costs per machine: the replicas of one
//! model share its body, their solvers' structure and one compiled
//! kernel, and each holds only its own state.

use mercury::model::ClusterModel;
use mercury::presets::{self, nodes, FAN_CFM};
use mercury::solver::{ClusterSolver, SolverConfig};
use mercury::units::Celsius;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread, and the bytes it holds (what it
    /// allocated less what it freed). Const-initialised and without a
    /// destructor, so the allocator can touch them without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and the bytes held
/// on the thread that makes them.
struct Counting;

fn count(grown: i64) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    held(grown);
}

fn held(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method forwards to `System` with its own arguments;
// the only addition is thread-local counters that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        held(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and bytes still held after `f` runs on this thread.
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let (allocations, bytes) = (ALLOCATIONS.with(Cell::get), LIVE_BYTES.with(Cell::get));
    let out = f();
    (
        out,
        ALLOCATIONS.with(Cell::get) - allocations,
        LIVE_BYTES.with(Cell::get) - bytes,
    )
}

/// Allocations the warm ticks below make, fiddles included.
const WARM_STEP_ALLOCATIONS: u64 = 0;

#[test]
fn warm_steps_do_not_allocate() {
    let cluster = presets::validation_cluster(64);
    let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
    let cpu = s.machine_at(0).node_index(nodes::CPU).unwrap();
    let pinned = s.machine_at_mut(9);
    pinned
        .force_temperature(nodes::CPU_AIR, Celsius(40.0))
        .unwrap();
    // Its first retune copies the machine type's shared structure (see
    // `first_divergence_copies_once`), so the window below holds
    // re-fiddles of a machine that owns its copies.
    pinned.set_heat_k(nodes::CPU, nodes::CPU_AIR, 0.8).unwrap();
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

    let ((), allocations, _) = measure(|| {
        for t in 5..105 {
            let pinned = s.machine_at_mut(9);
            match t {
                30 => pinned.set_heat_k(nodes::CPU, nodes::CPU_AIR, 0.9).unwrap(),
                60 => pinned.set_fan_cfm(FAN_CFM * 0.8).unwrap(),
                _ => {}
            }
            tick(&mut s, t);
        }
    });
    assert_eq!(
        allocations, WARM_STEP_ALLOCATIONS,
        "100 warm step() calls and two fiddles"
    );
}

/// Bytes per machine that `validation_cluster(1024)` and its
/// `ClusterSolver` hold once built. Measured at 1 275 on x86-64 Linux;
/// a room that gave each replica its own model body, structure and
/// kernel held 7 841.
const ROOM_BYTES_PER_MACHINE: i64 = 1_400;

#[test]
fn replicas_share_their_machine_type() {
    const MACHINES: usize = 1024;
    let ((model, room), _, bytes) = measure(|| {
        let model = presets::validation_cluster(MACHINES);
        let room = ClusterSolver::new(&model, SolverConfig::default()).unwrap();
        (model, room)
    });
    let per_machine = bytes / MACHINES as i64;
    println!("validation_cluster({MACHINES}) and its ClusterSolver: {per_machine} B per machine");
    assert!(
        per_machine <= ROOM_BYTES_PER_MACHINE,
        "{per_machine} B per machine, budget {ROOM_BYTES_PER_MACHINE}"
    );
    let first = room.machine_at(0);
    for m in 1..room.len() {
        assert!(first.shares_shape_with(room.machine_at(m)), "machine {m}");
        assert!(first.shares_kernel_with(room.machine_at(m)), "machine {m}");
    }
    // Equal bodies built apart are one machine type too.
    let mut apart = ClusterModel::builder();
    apart.supply("ac", presets::INLET_TEMPERATURE_C);
    for m in ["a", "b"] {
        apart.machine(presets::validation_machine_named(m));
    }
    let apart = ClusterSolver::new(&apart.build().unwrap(), SolverConfig::default()).unwrap();
    assert!(apart.machine_at(0).shares_kernel_with(apart.machine_at(1)));
    drop(model);
}

/// Bytes a replica's first divergence copies: its structure on the
/// first retune (name index, kinds, power models, edge lists), and its
/// compiled kernel — operator, composed tick and tick scratch — when
/// that retune is compiled. Measured at 2 030 and 5 162 on x86-64
/// Linux.
const FIRST_SHAPE_COPY_BYTES: i64 = 2_300;
const FIRST_KERNEL_COPY_BYTES: i64 = 5_600;

#[test]
fn first_divergence_copies_once() {
    let mut room =
        ClusterSolver::new(&presets::validation_cluster(8), SolverConfig::default()).unwrap();
    room.step();
    let retune = |room: &mut ClusterSolver, k: f64| {
        let machine = room.machine_at_mut(5);
        let ((), _, shape) = measure(|| machine.set_heat_k(nodes::CPU, nodes::CPU_AIR, k).unwrap());
        let (_, _, kernel) = measure(|| machine.substeps_per_tick());
        (shape, kernel)
    };
    let (shape, kernel) = retune(&mut room, 0.9);
    println!("first divergence: shape copy {shape} B, kernel copy {kernel} B");
    assert!(
        (1..=FIRST_SHAPE_COPY_BYTES).contains(&shape),
        "shape copy {shape} B, budget {FIRST_SHAPE_COPY_BYTES}"
    );
    assert!(
        (1..=FIRST_KERNEL_COPY_BYTES).contains(&kernel),
        "kernel copy {kernel} B, budget {FIRST_KERNEL_COPY_BYTES}"
    );
    assert_eq!(retune(&mut room, 1.1), (0, 0), "a re-fiddle copies nothing");

    let (diverged, untouched) = (room.machine_at(5), room.machine_at(6));
    assert!(!diverged.shares_shape_with(untouched));
    assert!(!diverged.shares_kernel_with(untouched));
    assert!(untouched.shares_shape_with(room.machine_at(0)));
    assert!(untouched.shares_kernel_with(room.machine_at(0)));
}
