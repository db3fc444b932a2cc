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
//! rebuilt and its tick recomposed inside the counted window. A second
//! window counts the replans of fan commands that move machines between
//! two per-lane classes: a warm replan recycles the groups it touches.
//!
//! The same allocator keeps the live bytes of each thread, which pins
//! the memory a replicated room costs per machine: the replicas of one
//! model share its body, their solvers' structure and one compiled
//! kernel, and each holds only its own state — and what a fan command
//! adds to a batched machine: its kernel's values and its lane's
//! weights, never a second copy of the structure or of `M` and `B`. It
//! pins too what a parsed fiddle script holds per event, which its
//! runners share rather than copy. Its high-water mark bounds what a
//! decoder may allocate for damaged input: no count read from a
//! datagram, an `.events` record or a checkpoint sizes an allocation.
//! And it pins what the encoders and the whole-file decoder allocate: a
//! datagram or a checkpoint is one allocation at its exact length, and a
//! decoded trace is one buffer per machine, not one per row.

mod fuzz;

use fuzz::Damage;
use mercury::fiddle::FiddleScript;
use mercury::model::ClusterModel;
use mercury::net::proto;
use mercury::presets::{self, nodes, FAN_CFM};
use mercury::solver::{ClusterSolver, SolverConfig};
use mercury::trace::events::{self, EventsHeader};
use mercury::trace::stream::{ClusterBinding, EventsStream};
use mercury::trace::UtilizationTrace;
use mercury::units::{Celsius, Seconds};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Write;

thread_local! {
    /// Allocations made by this thread, and the bytes it holds (what it
    /// allocated less what it freed). Const-initialised and without a
    /// destructor, so the allocator can touch them without allocating.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting every allocation and the bytes held
/// on the thread that makes them.
struct Counting;

fn count(grown: i64) {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    held(grown);
}

fn held(bytes: i64) {
    let _ = LIVE_BYTES.try_with(|n| {
        let live = n.get() + bytes;
        n.set(live);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(live)));
    });
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

/// The most bytes held at once on this thread while `f` runs, beyond
/// what was held before it.
fn peak<T>(f: impl FnOnce() -> T) -> (T, i64) {
    let before = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(before));
    let out = f();
    (out, PEAK_BYTES.with(Cell::get) - before)
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

/// Allocations of the counted fan-command replans below. The plan
/// before replans recycled their groups made 3 900 in the same window
/// (78 a replan, x86-64 Linux): every replan rebuilt both classes cold.
const WARM_REPLAN_ALLOCATIONS: u64 = 0;

/// Two per-lane classes of a 64-machine room trade machines one for one
/// through fan commands, every third tick, as a room under continuous
/// fan control does: once warm, the replans that follow — each moves a
/// machine between the classes and rebuilds both machines' kernels —
/// allocate nothing.
#[test]
fn warm_fan_command_replans_do_not_allocate() {
    let cluster = presets::validation_cluster(64);
    let mut s = ClusterSolver::new(&cluster, SolverConfig::default()).unwrap();
    let cpu = s.machine_at(0).node_index(nodes::CPU).unwrap();
    // 12 and 16 sub-steps; the speed moves inside a class at every
    // command, so every command rebuilds and recomposes.
    let speed =
        |class: usize, command: usize| FAN_CFM * ([0.8, 1.1][class] + (command % 10) as f64 * 1e-3);
    let mut class: Vec<usize> = (0..64).map(|m| usize::from(m >= 16)).collect();
    for (m, &c) in class.iter().enumerate().take(32) {
        s.machine_at_mut(m).set_fan_cfm(speed(c, m)).unwrap();
    }
    let mut commands = 0;
    let mut round = |s: &mut ClusterSolver, r: usize| {
        // The r-th machine of each class (in cluster order) takes the
        // other class's speed.
        let pick = |class: &[usize], c: usize| {
            let members = (0..32).filter(|&m| class[m] == c);
            members.cycle().nth(r).unwrap()
        };
        let (a, b) = (pick(&class, 0), pick(&class, 1));
        for (m, to) in [(a, 1), (b, 0)] {
            commands += 1;
            s.machine_at_mut(m)
                .set_fan_cfm(speed(to, commands))
                .unwrap();
            class[m] = to;
        }
        for t in 0..3 {
            for m in 0..s.len() {
                let u = ((r * 31 + t * 7 + m * 17) % 101) as f64 / 100.0;
                s.machine_at_mut(m).set_utilization_at(cpu, u).unwrap();
            }
            s.step();
        }
    };
    for r in 0..20 {
        round(&mut s, r);
    }
    assert_eq!(
        s.batched_machines(),
        64,
        "two per-lane classes and the rest"
    );

    let ((), allocations, _) = measure(|| (20..70).for_each(|r| round(&mut s, r)));
    println!("50 fan-command replans: {allocations} allocations");
    assert_eq!(
        allocations, WARM_REPLAN_ALLOCATIONS,
        "150 warm step() calls, 50 of them replans"
    );
}

/// Bytes per machine that `validation_cluster(1024)` and its
/// `ClusterSolver` hold once built. Measured at 744 on x86-64 Linux; a
/// room that kept a forced-inlet slot for every machine read 761, a
/// solver that held a utilization, a heat, a pin slot and a boundary
/// flag for every node, and its own configuration and metric handles,
/// made it 1 275, and a room that gave each replica its own model body,
/// structure and kernel held 7 841.
const ROOM_BYTES_PER_MACHINE: i64 = 810;

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
/// first retune (name index, kinds with their heat rows and input
/// slots, power models, edge lists; not the inlet mask, which it keeps
/// sharing), and its kernel's values — flow cache and operator weights,
/// not the kernel structure it keeps sharing, nor a composed tick —
/// when that retune is compiled. Measured at 2 158 and 800 on x86-64
/// Linux (2 030 before kinds carried rows and slots); a copy of the
/// whole kernel, composed tick and tick scratch included, was 5 162.
const FIRST_SHAPE_COPY_BYTES: i64 = 2_300;
const FIRST_KERNEL_COPY_BYTES: i64 = 900;

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

    // The diverged machine copied its structure and its kernel's
    // values; it still shares its type's kernel structure.
    let (diverged, untouched) = (room.machine_at(5), room.machine_at(6));
    assert!(!diverged.shares_shape_with(untouched));
    assert!(!diverged.shares_kernel_with(untouched));
    assert!(diverged.shares_kernel_structure_with(untouched));
    assert!(untouched.shares_shape_with(room.machine_at(0)));
    assert!(untouched.shares_kernel_with(room.machine_at(0)));
}

/// A room with no pins holds no pin storage: no machine has a pin list
/// or a boundary mask of its own. The first pin on a machine allocates
/// its pin list and its own copy of the type's mask, once each; a
/// further pin on it allocates nothing, and releasing every pin frees
/// both again.
#[test]
fn pins_are_held_on_demand() {
    let mut room =
        ClusterSolver::new(&presets::validation_cluster(8), SolverConfig::default()).unwrap();
    room.step();
    assert!((0..room.len()).all(|m| !room.machine_at(m).holds_pin_storage()));
    let machine = room.machine_at_mut(3);
    let ((), first, bytes) = measure(|| {
        machine
            .force_temperature(nodes::CPU_AIR, Celsius(40.0))
            .unwrap();
    });
    println!("first pin: {first} allocations, {bytes} B");
    assert_eq!(first, 2, "the pin list and the machine's own mask");
    let ((), second, _) = measure(|| {
        machine
            .force_temperature(nodes::CPU, Celsius(50.0))
            .unwrap();
    });
    assert_eq!(second, 0, "a second pin on the same machine");
    assert!(machine.holds_pin_storage());
    let ((), _, freed) = measure(|| {
        machine.release_temperature(nodes::CPU_AIR).unwrap();
        machine.release_temperature(nodes::CPU).unwrap();
    });
    assert_eq!(
        freed, -bytes,
        "releasing every pin frees what the first held"
    );
    assert!((0..room.len()).all(|m| !room.machine_at(m).holds_pin_storage()));
}

/// Live bytes per machine that one fan command on every machine of a
/// stepped `validation_cluster(1024)` adds once the room steps again:
/// the machine's own kernel values (flow cache, sub-step count,
/// operator weights) and its lane's weight column, net of the shared
/// group it leaves. Measured at 2 003 on x86-64 Linux; when a diverged
/// machine copied its whole kernel — structure and composed tick
/// included — and its lane held a second copy of `M` and `B`, the same
/// test read 6 352.
const FAN_DIVERGED_BYTES_PER_MACHINE: i64 = 2_100;

#[test]
fn a_fan_command_copies_only_what_it_changes() {
    const MACHINES: usize = 1024;
    let model = presets::validation_cluster(MACHINES);
    let mut room = ClusterSolver::new(&model, SolverConfig::default()).unwrap();
    room.step();
    let ((), _, bytes) = measure(|| {
        for m in 0..MACHINES {
            let cfm = FAN_CFM * (0.7 + 0.6 * (m % 8) as f64 / 8.0);
            room.machine_at_mut(m).set_fan_cfm(cfm).unwrap();
        }
        room.step();
    });
    assert_eq!(room.batched_machines(), MACHINES, "every class batches");
    let per_machine = bytes / MACHINES as i64;
    println!("fan-diverged batched machine: {per_machine} B");
    assert!(
        per_machine <= FAN_DIVERGED_BYTES_PER_MACHINE,
        "{per_machine} B per machine, budget {FAN_DIVERGED_BYTES_PER_MACHINE}"
    );
}

/// Live bytes per event that a parsed churn-shaped fiddle script holds:
/// one fixed-size record, its names being indices into the script's one
/// table of distinct names. Measured at 40 on x86-64 Linux. While each
/// event owned its command's machine name the same test read 105; when
/// the event list kept its growth slack, 132, each of the three runners
/// copied every event again (38 403 allocations) and draining cloned
/// each command (13 400).
const SCRIPT_BYTES_PER_EVENT: i64 = 44;

/// Allocations a parse makes beyond one per distinct name: the name
/// table, the interning map's growth, the event list (reserved once)
/// and the shared schedule. Measured at 15 (143 allocations for 128
/// names); the parse of owning events made one per event and per line.
const PARSE_ALLOCATIONS_BEYOND_NAMES: u64 = 20;

/// `replay_churn`'s fan schedule in miniature: 100 rounds of 128
/// `fanspeed` commands, one round every 10 s. A parse allocates once
/// per distinct name plus a constant, not once per event. Runners share
/// the parsed schedule and `due` lends views of it, so handing out
/// runners and draining the whole schedule allocate nothing.
#[test]
fn a_fiddle_script_is_held_once() {
    const ROUNDS: usize = 100;
    const FANS: usize = 128;
    let mut text = String::from("#!/bin/bash\n");
    for round in 0..ROUNDS {
        for k in 0..FANS {
            let cfm = FAN_CFM * (0.7 + 0.6 * ((round + k) % 8) as f64 / 8.0);
            writeln!(text, "fiddle machine{k} fanspeed {cfm:.3}").unwrap();
        }
        text.push_str("sleep 10\n");
    }
    let (script, parse_allocations, bytes) = measure(|| FiddleScript::parse(&text).unwrap());
    let events = script.events().len();
    assert_eq!(events, ROUNDS * FANS);

    let (runners, runner_allocations, _) =
        measure(|| [script.runner(), script.runner(), script.runner()]);
    let [mut runner, ..] = runners;
    let (fired, drain_allocations, _) = measure(|| {
        (0..=ROUNDS)
            .map(|round| runner.due(Seconds(10.0 * round as f64)).len())
            .sum::<usize>()
    });
    let per_event = bytes / events as i64;
    println!(
        "fiddle script: {per_event} B per event; parse {parse_allocations} allocations \
         for {FANS} names; three runners {runner_allocations} allocations, draining \
         {drain_allocations}"
    );
    assert!(
        parse_allocations <= FANS as u64 + PARSE_ALLOCATIONS_BEYOND_NAMES,
        "{parse_allocations} allocations to parse {FANS} distinct names"
    );
    assert_eq!(runner_allocations, 0, "three runner() calls");
    assert_eq!((fired, runner.is_finished()), (events, true));
    assert_eq!(drain_allocations, 0, "draining the script through due");
    assert!(
        per_event <= SCRIPT_BYTES_PER_EVENT,
        "{per_event} B per event, budget {SCRIPT_BYTES_PER_EVENT}"
    );
}

/// Allocations `ClusterBuilder::build` makes beyond the copy of the model
/// it returns: its duplicate checks hold borrowed names and endpoints, so
/// only the three sets remain. Measured at 4 on x86-64
/// Linux; while the checks copied every machine name and both endpoints
/// of every edge, `presets::validation_cluster(1024)` made 9 374
/// allocations (6 281 now).
const BUILD_ALLOCATIONS_BEYOND_THE_MODEL: u64 = 8;

/// Validating `replay_churn`'s 1024-machine room (2048 edges) costs
/// about what copying the finished model costs: no name is copied to be
/// checked.
#[test]
fn a_room_model_validates_without_copying_names() {
    let model = presets::validation_cluster(1024);
    let mut builder = ClusterModel::builder();
    for s in model.supplies() {
        builder.supply(s.name.clone(), s.temperature.0);
    }
    for j in model.junctions() {
        builder.junction(j.clone());
    }
    for m in model.machines() {
        builder.machine(m.clone());
    }
    for e in model.edges() {
        builder.edge(e.from.clone(), e.to.clone(), e.fraction);
    }
    let (copy, copy_allocations, _) = measure(|| model.clone());
    let (built, build_allocations, _) = measure(|| builder.build().unwrap());
    assert_eq!(built, copy);
    println!(
        "validation_cluster(1024): build {build_allocations} allocations, \
         a copy of the model {copy_allocations}"
    );
    assert!(
        build_allocations <= copy_allocations + BUILD_ALLOCATIONS_BEYOND_THE_MODEL,
        "build made {build_allocations} allocations, a copy {copy_allocations}"
    );
}

/// A 1024-machine room and an `.events` file over its `cpu` and
/// `disk_platters`: a FULL frame, then a DELTA record claiming
/// `u32::MAX` entries in five bytes. Replaying the frame succeeds; the
/// call that meets the DELTA fails with `InvalidInput` having allocated
/// less than one frame — the count is checked against the frame before
/// anything is read or sized by it.
#[test]
fn a_delta_count_from_the_file_sizes_no_allocation() {
    const MACHINES: usize = 1024;
    let traces: Vec<_> = (0..MACHINES)
        .map(|m| {
            UtilizationTrace::from_fn(
                format!("machine{}", m + 1),
                1.0,
                vec![nodes::CPU.into(), "disk_platters".into()],
                4,
                |_, _| 0.5,
            )
            .unwrap()
        })
        .collect();
    let (bytes, _) = events::encode_to_vec(&traces).unwrap();
    let (header, header_len) = EventsHeader::parse(&bytes).unwrap();
    let frame = 2 * header.cells();
    let mut crafted = bytes[..header_len + 1 + frame].to_vec();
    crafted.extend_from_slice(&[0x02, 0xff, 0xff, 0xff, 0xff]);
    let path = std::env::temp_dir().join(format!(
        "mercury-step-alloc-{}-delta.events",
        std::process::id()
    ));
    std::fs::write(&path, &crafted).unwrap();
    let mut stream = EventsStream::open(&path).unwrap();
    std::fs::remove_file(&path).unwrap();

    let mut room = ClusterSolver::new(
        &presets::validation_cluster(MACHINES),
        SolverConfig::default(),
    )
    .unwrap();
    let binding = ClusterBinding::new(stream.header(), &room).unwrap();
    room.step();
    stream.replay_ticks(&binding, &mut room, 1).unwrap();
    let (result, bytes) = peak(|| stream.replay_ticks(&binding, &mut room, 1));
    let err = result.unwrap_err();
    println!("failing replay call: peak {bytes} B, frame {frame} B");
    assert!(
        matches!(&err, mercury::Error::InvalidInput { reason } if reason.contains("delta count")),
        "{err}"
    );
    assert!(bytes < frame as i64, "peak {bytes} B, frame {frame} B");
}

/// Peak bytes a decode of `len` input bytes may hold, beyond a frame it
/// declares: a constant factor for what it builds from the bytes, plus
/// room for an error message.
fn decode_budget(len: usize, frame: usize) -> i64 {
    (8 * (len + frame) + 1024) as i64
}

/// What a replay stream holds whatever its input: the `BufReader`'s
/// 8 KiB block, and the `/proc/self/status` read that refreshes the
/// peak-RSS gauge when a replay call ends or fails.
const STREAM_FIXED: usize = 8 * 1024 + 4 * 1024;

/// A deterministic stream of damage, so the bound below is checked on
/// the same inputs on every run.
fn damages(n: usize) -> impl Iterator<Item = Damage> {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state as usize
    };
    (0..n).map(move |i| match i % 3 {
        0 => Damage::Truncate(next()),
        1 => Damage::Flip(
            (0..1 + next() % 3)
                .map(|_| (next(), 1 + (next() % 255) as u8))
                .collect(),
        ),
        _ => Damage::Splice(next(), next()),
    })
}

/// Damaged requests, replies, `.events` headers and streams, and
/// checkpoints: each decode's peak allocation is at most a constant
/// times its input length plus the frame the input declares (a
/// datagram and a checkpoint declare none; a checkpoint restores into
/// a room built beforehand).
#[test]
fn damaged_input_allocates_in_proportion_to_its_length() {
    let requests: Vec<Vec<u8>> = fuzz::requests().iter().map(proto::encode_request).collect();
    let replies: Vec<Vec<u8>> = fuzz::replies().iter().map(proto::encode_reply).collect();
    let events = fuzz::events_seeds();
    let ckpts = fuzz::ckpt_seeds();
    let path = std::env::temp_dir().join(format!(
        "mercury-step-alloc-{}-damaged.events",
        std::process::id()
    ));
    let mut worst = 0f64;
    for (i, damage) in damages(600).enumerate() {
        let pick = |seeds: &[Vec<u8>]| -> Vec<u8> {
            damage.apply(&seeds[i % seeds.len()], &seeds[(i / 3) % seeds.len()])
        };
        let mut check = |what: &str, input: &[u8], frame: usize, bytes: i64| {
            let budget = decode_budget(input.len(), frame);
            worst = worst.max(bytes as f64 / budget as f64);
            assert!(
                bytes <= budget,
                "{what} #{i}: {bytes} B for {} input bytes and a {frame} B frame",
                input.len()
            );
        };

        let input = pick(&requests);
        let (_, bytes) = peak(|| proto::decode_request(&input));
        check("request", &input, 0, bytes);
        let input = pick(&replies);
        let (_, bytes) = peak(|| proto::decode_reply(&input));
        check("reply", &input, 0, bytes);

        let input = pick(&events);
        let declared = |input: &[u8]| EventsHeader::parse(input).map_or(0, |(h, _)| 2 * h.cells());
        let (_, bytes) = peak(|| EventsHeader::parse(&input));
        check("events header", &input, declared(&input), bytes);
        std::fs::write(&path, &input).unwrap();
        let mut room = fuzz::ckpt_room();
        room.step();
        let (_, bytes) = peak(|| {
            let mut stream = EventsStream::open(&path)?;
            let binding = ClusterBinding::new(stream.header(), &room)?;
            stream.replay(&binding, &mut room)
        });
        check(
            "events stream",
            &input,
            declared(&input) + STREAM_FIXED,
            bytes,
        );

        let input = pick(&ckpts);
        let mut room = fuzz::ckpt_room();
        let (_, bytes) = peak(|| room.restore_checkpoint(&input));
        check("checkpoint", &input, 0, bytes);
    }
    let _ = std::fs::remove_file(&path);
    println!("worst decode: {:.0}% of its budget", 100.0 * worst);
}

/// The datagram of every `fuzz::requests()` and `fuzz::replies()` seed,
/// in seed order, as the wire carried it before encoders sized their
/// output exactly: the encoders may change how they allocate, never a
/// byte they send.
const REQUEST_GOLDEN: [&str; 8] = [
    "05",
    "06",
    "07",
    "02086d616368696e65310a6469736b5f7368656c6c",
    "04086d616368696e6532",
    "01086d616368696e653102036370750000403f0d6469736b5f706c617474657273cdcccc3d",
    "032600666964646c65206d616368696e65312074656d706572617475726520696e6c65742033382e36",
    "080a74656d702f2a2f6370750068e5cf8b010000ffffffffffffffff102700000000000001",
];
const REPLY_GOLDEN: [&str; 6] = [
    "82",
    "84",
    "810000000000a041400000000000489340",
    "830303637075076370755f6169720d6469736b5f706c617474657273",
    "851200756e6b6e6f776e206e6f6465206067707560",
    "86010003003c006d6572637572795f736f6c7665725f7469636b735f746f74616c2034320a6d6572637572795f6e65745f646174616772616d735f746f74616c20370a",
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().fold(String::new(), |mut out, b| {
        write!(out, "{b:02x}").unwrap();
        out
    })
}

/// Each datagram is its golden bytes, in one allocation whose capacity
/// is its length. Encoders that wrote into a 128- or 64-byte buffer
/// left a 38-byte utilization update 90 bytes of slack, and a client
/// holding tens of thousands of them paid for the slack. A fiddle
/// request also formats its command's script text, once to count and
/// once to write; those strings are freed before the encoder returns.
#[test]
fn a_datagram_is_one_exact_allocation_of_unchanged_bytes() {
    let requests = fuzz::requests();
    let replies = fuzz::replies();
    assert_eq!(requests.len(), REQUEST_GOLDEN.len());
    assert_eq!(replies.len(), REPLY_GOLDEN.len());
    let check = |what: String, golden: &str, text: u64, encode: &dyn Fn() -> Vec<u8>| {
        let (bytes, allocations, _) = measure(encode);
        assert_eq!(hex(&bytes), golden, "{what}: wire bytes");
        assert_eq!(bytes.capacity(), bytes.len(), "{what}: capacity");
        assert_eq!(allocations, 1 + 2 * text, "{what}: allocations");
    };
    for (req, golden) in requests.iter().zip(REQUEST_GOLDEN) {
        let text = match req {
            proto::Request::Fiddle { command } => measure(|| command.to_string()).1,
            _ => 0,
        };
        check(format!("{req:?}"), golden, text, &|| {
            proto::encode_request(req)
        });
    }
    for (reply, golden) in replies.iter().zip(REPLY_GOLDEN) {
        check(format!("{reply:?}"), golden, 0, &|| {
            proto::encode_reply(reply)
        });
    }
}

/// A 1024-machine room's checkpoint is one allocation at its exact
/// length. Grown by doubling it made 18 and held 1 MiB for 0.58 MB.
#[test]
fn a_checkpoint_is_one_exact_allocation() {
    let mut room =
        ClusterSolver::new(&presets::validation_cluster(1024), SolverConfig::default()).unwrap();
    room.machine_at_mut(3).set_fan_cfm(FAN_CFM * 0.8).unwrap();
    room.step_for(3);
    let (blob, allocations, _) = measure(|| room.checkpoint());
    println!(
        "1024-machine checkpoint: {} B, {allocations} allocations",
        blob.len()
    );
    assert_eq!(blob.capacity(), blob.len());
    assert_eq!(allocations, 1);
}

/// Allocations a whole-file decode of the trace below may make per
/// machine: its name (read, then owned by its trace), its trace's
/// samples and their shared handle, and its share of the header tables'
/// growth. Measured at 3.2 (205 in all) on x86-64 Linux; when the
/// header's duplicate check kept its own copy of every name the same
/// decode made 276, and decoding each row into its own vector made
/// 33 752 (527 a machine).
const DECODE_ALLOCATIONS_PER_MACHINE: u64 = 4;

/// `events::decode` of a 64-machine x 512-tick trace reserves each
/// machine's samples once: its allocations grow with the machines, not
/// with the ticks.
#[test]
fn a_decoded_trace_is_one_buffer_per_machine() {
    const MACHINES: usize = 64;
    const TICKS: usize = 512;
    let traces: Vec<UtilizationTrace> = (0..MACHINES)
        .map(|m| {
            UtilizationTrace::from_fn(
                format!("machine{}", m + 1),
                1.0,
                vec![nodes::CPU.into(), "disk_platters".into()],
                TICKS,
                move |t, c| ((t as usize / 4 * 7 + m + c) % 11) as f64 / 10.0,
            )
            .unwrap()
        })
        .collect();
    let (bytes, _) = events::encode_to_vec(&traces).unwrap();
    let (back, allocations, _) = measure(|| events::decode(&bytes).unwrap());
    assert_eq!(events::encode_to_vec(&back).unwrap().0, bytes);
    println!("decode of {MACHINES} machines x {TICKS} ticks: {allocations} allocations");
    assert!(
        allocations <= DECODE_ALLOCATIONS_PER_MACHINE * MACHINES as u64,
        "{allocations} allocations, budget {DECODE_ALLOCATIONS_PER_MACHINE} a machine"
    );
}

/// Allocations `run_offline` may make beyond a 500-tick run when the
/// same trace runs 4 000 ticks: the growth of the log's two vectors
/// (times and the row-major temperatures), each doubling about three
/// more times. When each tick copied every node name out of the solver
/// and set utilizations by name, the longer run made ≈15 allocations a
/// tick more.
const OFFLINE_EXTRA_ALLOCATIONS: u64 = 8;

/// `run_offline` steps one solver and logs its temperatures every tick:
/// its allocations grow with the ticks only as the log grows.
#[test]
fn an_offline_run_allocates_only_its_log_growth() {
    let model = presets::validation_machine();
    let run = |ticks: usize| {
        let trace = UtilizationTrace::from_fn(
            "machine1",
            1.0,
            vec![nodes::CPU.into(), "disk_platters".into()],
            ticks,
            |t, c| ((t as usize * 7 + c) % 11) as f64 / 10.0,
        )
        .unwrap();
        let (log, allocations, _) = measure(|| {
            mercury::trace::run_offline(&model, &trace, SolverConfig::default(), None).unwrap()
        });
        assert_eq!(log.len(), ticks);
        allocations
    };
    // The first run also pays the one-time thread-local scratch.
    run(10);
    let (short, long) = (run(500), run(4_000));
    println!("run_offline: {short} allocations for 500 ticks, {long} for 4 000");
    assert!(
        long <= short + OFFLINE_EXTRA_ALLOCATIONS,
        "{long} allocations for 4 000 ticks, {short} for 500"
    );
}
