//! `net_live`: the §2.3 suite over loopback UDP.
//!
//! `SolverService::spawn_cluster(freon_cluster(64))` ticks every
//! millisecond while one client thread on one socket plays monitord and
//! the sensor library for all 64 machines: per machine per round one
//! `UtilizationUpdate` from the corpus and a `ReadTemperature` of cpu
//! and disk_platters — the bytes `Monitord` and `Sensor::read` send,
//! built with `proto::encode_request`. Callers of `readsensor` wait for
//! their reply, so the loop is closed, with a fixed window of
//! [`WINDOW`] requests outstanding. No per-machine `Monitord` threads
//! are spawned; they would exceed the core budget.
//!
//! The window and the client's busy-polling receive exist to keep the
//! loop in one regime. Client and service thread cost about the same
//! per request, so a blocking client at a small window is bistable:
//! whichever side is momentarily slower sleeps, pays a wake-up per
//! datagram, and stays slower — units of identical work then take 140
//! or 200 ms, and a run's median lands anywhere between (window 16,
//! blocking: medians 133 k–204 k requests/s over ten runs; window 1
//! reads 6.5 µs or 40 µs by thread placement). A client that never
//! sleeps and a window the service cannot drain hold the service
//! thread busy, so the figure is decode/lock/handle/reply cost rather
//! than wake-up latency (window 64, polling: medians within 5 %).
//!
//! One unit is a fixed number of rounds. Ticks follow the wall clock,
//! so only request and reply counts repeat exactly here.

use crate::catalogue::NET_LIVE;
use crate::harness::{
    fast_decile_of, median_of, run_units, timed_setups, HostClock, Result, RunOptions,
};
use crate::prepare::{self, machine_name, Corpus, COMPONENTS, EMERGENCY_INLET_C};
use crate::report::Outcome;
use crate::sizes::Sizes;
use crate::spans::{SpanTotals, TRACER_CAPACITY};
use crate::stats::{highest_supported_percentile, percentile_sorted};
use mercury::fiddle::FiddleCommand;
use mercury::net::proto::{self, Reply, Request};
use mercury::net::service::EmulatedSystem;
use mercury::net::{send_fiddle, Sensor, ServiceConfig, SolverService};
use mercury::presets::{self, nodes};
use mercury::trace::events;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use telemetry::Tracer;

/// Requests kept outstanding by the closed-loop client.
pub const WINDOW: usize = 64;

/// How long the client waits for a reply before counting the window
/// as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(1);

/// Units between fiddle bursts.
const FIDDLE_EVERY_UNITS: usize = 4;

/// Units a traced run measures with the tracer paused, as the baseline
/// of `telemetry.trace_overhead_pct`.
const BASELINE_UNITS: usize = 3;

/// The client socket and every datagram a round sends.
struct Client {
    socket: UdpSocket,
    service_addr: SocketAddr,
    /// `updates[tick][machine]`: encoded `UtilizationUpdate`s.
    updates: Vec<Vec<Vec<u8>>>,
    /// `reads[machine]`: encoded `ReadTemperature` of cpu and disk.
    reads: Vec<[Vec<u8>; 2]>,
    /// The same messages unencoded, for the codec probe.
    sample_requests: Vec<Request>,
    /// Datagrams this client has sent to the service so far.
    sent: u64,
}

/// The running service and the client that loads it.
struct Inputs {
    service: SolverService,
    client: Client,
    tracer: Tracer,
    corpus: Corpus,
}

fn setup(opts: &RunOptions, sizes: &Sizes) -> Result<Inputs> {
    let corpus = prepare::ensure(NET_LIVE, opts.seed, opts.smoke, &opts.data_root)?;
    let traces = events::decode(&std::fs::read(corpus.file("net.events"))?)?;
    if traces.len() != sizes.net_machines {
        return Err(format!("net.events holds {} machines", traces.len()).into());
    }
    let mut sample_requests = Vec::new();
    let mut updates = vec![Vec::with_capacity(traces.len()); sizes.net_corpus_ticks];
    let mut reads = Vec::with_capacity(traces.len());
    for (m, trace) in traces.iter().enumerate() {
        for (tick, per_tick) in updates.iter_mut().enumerate() {
            let row = trace
                .at(mercury::units::Seconds(tick as f64))
                .ok_or("empty corpus trace")?;
            let request = Request::UtilizationUpdate {
                machine: machine_name(m),
                utilizations: COMPONENTS
                    .iter()
                    .zip(row)
                    .map(|(c, u)| ((*c).to_string(), u.fraction() as f32))
                    .collect(),
            };
            per_tick.push(proto::encode_request(&request));
            if tick == 0 {
                sample_requests.push(request);
            }
        }
        let read = |node: &str| Request::ReadTemperature {
            machine: machine_name(m),
            node: node.to_string(),
        };
        let pair = [read(COMPONENTS[0]), read(COMPONENTS[1])];
        reads.push([
            proto::encode_request(&pair[0]),
            proto::encode_request(&pair[1]),
        ]);
        sample_requests.extend(pair);
    }

    let tracer = if opts.traced {
        Tracer::new(TRACER_CAPACITY)
    } else {
        Tracer::disabled()
    };
    let service = SolverService::spawn_cluster(
        &presets::freon_cluster(sizes.net_machines),
        ServiceConfig {
            tick_wall: Duration::from_millis(1),
            tracer: tracer.clone(),
            ..ServiceConfig::default()
        },
    )?;
    let socket = UdpSocket::bind(("127.0.0.1", 0))?;
    socket.connect(service.local_addr())?;
    socket.set_nonblocking(true)?;
    let mut client = Client {
        socket,
        service_addr: service.local_addr(),
        updates,
        reads,
        sample_requests,
        sent: 0,
    };
    // Warm-up: two rounds touch every machine's name lookup and fill
    // the socket buffers' first pages.
    let warm = unit(&mut client, sizes, 0, 2)?;
    if warm.failed > 0 {
        return Err(format!("{} warm-up requests failed", warm.failed).into());
    }
    Ok(Inputs {
        service,
        client,
        tracer,
        corpus,
    })
}

/// What one unit of rounds measured.
#[derive(Debug, Clone, Copy, Default)]
struct UnitResult {
    wall_s: f64,
    requests: u64,
    failed: u64,
    /// Emulated seconds between the first and last temperature reply.
    emulated_s: f64,
    /// Wall seconds between receiving those two replies.
    paced_wall_s: f64,
}

/// Sends `rounds` rounds through the window and checks every reply:
/// updates are acknowledged, reads answered with a temperature, and
/// emulated time never runs backwards.
fn unit(
    client: &mut Client,
    sizes: &Sizes,
    first_round: usize,
    rounds: usize,
) -> Result<UnitResult> {
    let per_round = sizes.net_machines * 3;
    let total = rounds * per_round;
    let datagram = |i: usize| -> &[u8] {
        let round = first_round + i / per_round;
        let within = i % per_round;
        let (machine, kind) = (within / 3, within % 3);
        match kind {
            0 => &client.updates[round % client.updates.len()][machine],
            k => &client.reads[machine][k - 1],
        }
    };
    let mut buf = [0u8; proto::MAX_DATAGRAM];
    let (mut sent, mut received, mut failed) = (0usize, 0usize, 0u64);
    let mut first_temp: Option<(f64, Instant)> = None;
    let mut last_temp = (0.0_f64, Instant::now());
    let started = Instant::now();
    let mut last_progress = started;
    while received < total {
        while sent < total && sent - received < WINDOW {
            client.socket.send(datagram(sent))?;
            sent += 1;
        }
        let n = match client.socket.recv(&mut buf) {
            Ok(n) => n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if last_progress.elapsed() > REPLY_TIMEOUT {
                    // Everything outstanding is lost; open a fresh window.
                    failed += (sent - received) as u64;
                    received = sent;
                    last_progress = Instant::now();
                } else {
                    std::hint::spin_loop();
                }
                continue;
            }
            Err(e) => return Err(e.into()),
        };
        last_progress = Instant::now();
        let expects_ack = received % 3 == 0;
        match proto::decode_reply(&buf[..n]) {
            Ok(Reply::Ack) if expects_ack => {}
            Ok(Reply::Temperature { celsius, time }) if !expects_ack && celsius.is_finite() => {
                let now = Instant::now();
                if time < last_temp.0 {
                    failed += 1;
                }
                first_temp.get_or_insert((time, now));
                last_temp = (time, now);
            }
            _ => failed += 1,
        }
        received += 1;
    }
    let wall_s = started.elapsed().as_secs_f64();
    client.sent += sent as u64;
    let (emulated_s, paced_wall_s) = first_temp.map_or((0.0, 0.0), |(t0, at0)| {
        (
            last_temp.0 - t0,
            last_temp.1.duration_since(at0).as_secs_f64(),
        )
    });
    Ok(UnitResult {
        wall_s,
        requests: total as u64,
        failed,
        emulated_s,
        paced_wall_s,
    })
}

/// Between units: raise (or release) the inlet of every 8th machine,
/// through the same one-shot tool an operator would use.
fn fiddle_burst(client: &mut Client, sizes: &Sizes, raise: bool) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for m in (0..sizes.net_machines).step_by(8) {
        let machine = machine_name(m);
        let node = nodes::INLET.to_string();
        let command = if raise {
            FiddleCommand::Temperature {
                machine,
                node,
                celsius: EMERGENCY_INLET_C,
            }
        } else {
            FiddleCommand::Release { machine, node }
        };
        attempted += 1;
        client.sent += 1;
        if send_fiddle(client.service_addr, &command).is_err() {
            failed += 1;
        }
    }
    (attempted, failed)
}

fn service_counter(service: &SolverService, name: &str) -> u64 {
    service.registry().snapshot().counter(name).unwrap_or(0)
}

fn emulated_time(service: &SolverService) -> f64 {
    service.with_system(|system| match system {
        EmulatedSystem::Single(s) => s.time().0,
        EmulatedSystem::Cluster(c) => c.time().0,
    })
}

/// Nanoseconds per call of each `proto` function over the workload's
/// own message mix.
fn codec_probe(client: &Client, sizes: &Sizes, out: &mut Outcome) -> Result {
    let requests = &client.sample_requests;
    let encoded: Vec<Vec<u8>> = requests.iter().map(proto::encode_request).collect();
    let replies: Vec<Reply> = (0..requests.len())
        .map(|i| match i % 3 {
            0 => Reply::Ack,
            _ => Reply::Temperature {
                celsius: 40.0 + i as f64 * 0.01,
                time: i as f64,
            },
        })
        .collect();
    let encoded_replies: Vec<Vec<u8>> = replies.iter().map(proto::encode_reply).collect();
    let calls = sizes.net_proto_calls;
    let per_call = |f: &mut dyn FnMut(usize)| {
        let started = Instant::now();
        for i in 0..calls {
            f(i % requests.len());
        }
        started.elapsed().as_secs_f64() * 1e9 / calls as f64
    };
    let mut undecodable = 0u64;
    out.set(
        "core.net.proto.encode_request_ns",
        per_call(&mut |i| {
            std::hint::black_box(proto::encode_request(std::hint::black_box(&requests[i])));
        }),
    );
    out.set(
        "core.net.proto.decode_request_ns",
        per_call(&mut |i| {
            undecodable +=
                u64::from(proto::decode_request(std::hint::black_box(&encoded[i])).is_err());
        }),
    );
    out.set(
        "core.net.proto.encode_reply_ns",
        per_call(&mut |i| {
            std::hint::black_box(proto::encode_reply(std::hint::black_box(&replies[i])));
        }),
    );
    out.set(
        "core.net.proto.decode_reply_ns",
        per_call(&mut |i| {
            undecodable +=
                u64::from(proto::decode_reply(std::hint::black_box(&encoded_replies[i])).is_err());
        }),
    );
    out.check(undecodable == 0, || {
        format!("{undecodable} of the workload's own datagrams did not decode")
    });
    let update_bytes = client
        .updates
        .iter()
        .flatten()
        .map(Vec::len)
        .max()
        .unwrap_or(0);
    out.set("core.net.proto.update_bytes", update_bytes as f64);
    Ok(())
}

/// The paper's `readsensor` figure: window-1 reads through the sensor
/// library. Scheduler-sensitive, so it is reported with its sample
/// count and never gated.
fn sensor_probe(client: &Client, sizes: &Sizes, out: &mut Outcome) -> Result {
    let started = Instant::now();
    let sensor = Sensor::open(client.service_addr, machine_name(0), COMPONENTS[0])?;
    out.set(
        "core.net.sensor.open_us",
        started.elapsed().as_secs_f64() * 1e6,
    );
    let mut micros = Vec::with_capacity(sizes.net_sensor_reads);
    let mut timeouts = 0u64;
    for _ in 0..sizes.net_sensor_reads {
        let started = Instant::now();
        match sensor.read_with_time() {
            Ok(_) => micros.push(started.elapsed().as_secs_f64() * 1e6),
            Err(mercury::Error::Timeout) => timeouts += 1,
            Err(e) => return Err(e.into()),
        }
    }
    sensor.close();
    micros.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let tail = highest_supported_percentile(micros.len()).unwrap_or(50.0);
    let at = |p: f64| percentile_sorted(&micros, p.min(tail)).unwrap_or(0.0);
    out.set("core.net.sensor.read_p50_us", at(50.0));
    out.set("core.net.sensor.read_p99_us", at(99.0));
    out.set("core.net.sensor.read_p999_us", at(99.9));
    out.set("core.net.sensor.reads", micros.len() as f64);
    out.set("core.net.sensor.timeouts", timeouts as f64);
    out.tally(
        sizes.net_sensor_reads as u64,
        timeouts,
        "sensor reads timed out",
    );
    Ok(())
}

/// Runs the workload.
///
/// # Errors
///
/// Corpus, socket or service errors; failed requests and checks are
/// reported through the outcome, not as errors.
pub fn run(opts: &RunOptions) -> Result<Outcome> {
    let sizes = Sizes::of(opts.smoke);
    let clock = HostClock::start();
    let mut out = Outcome::new();
    let (mut inputs, setup_s) = timed_setups(|| setup(opts, sizes))?;
    let rounds = sizes.net_rounds_per_unit;
    let machines = sizes.net_machines as f64;
    inputs.tracer.set_enabled(false);
    let (service, client, tracer) = (&inputs.service, &mut inputs.client, &inputs.tracer);

    // The lock probe shares the window with the units of a traced run,
    // baseline units included, so the overhead compares like with like.
    let stop = AtomicBool::new(false);
    let mut totals = SpanTotals::with_gaps_of("net.request");
    let mut first_unit_counts = [0u64; 3];
    let window = if opts.traced {
        opts.seconds * 0.5
    } else {
        opts.seconds
    };
    let (units, lock_waits) = std::thread::scope(|scope| -> Result<_> {
        let probe = opts.traced.then(|| {
            let stop = &stop;
            scope.spawn(move || {
                let mut waits = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let started = Instant::now();
                    service.with_system(|_| ());
                    waits.push(started.elapsed().as_secs_f64() * 1e6);
                    std::thread::sleep(Duration::from_millis(10));
                }
                waits
            })
        });
        let units = run_units(
            window,
            if opts.traced { BASELINE_UNITS + 1 } else { 1 },
            |i| {
                if i % FIDDLE_EVERY_UNITS == 1 {
                    let raise = (i / FIDDLE_EVERY_UNITS).is_multiple_of(2);
                    let (attempted, failed) = fiddle_burst(client, sizes, raise);
                    out.tally(attempted, failed, "fiddle commands were not acknowledged");
                }
                let tracing = opts.traced && i >= BASELINE_UNITS;
                tracer.set_enabled(tracing);
                let names = [
                    "mercury_net_datagrams_total",
                    "mercury_net_replies_total",
                    "mercury_net_malformed_total",
                ];
                let before = (i == 0).then(|| names.map(|n| service_counter(service, n)));
                let u = unit(client, sizes, i * rounds, rounds);
                if let Some(before) = before {
                    first_unit_counts =
                        std::array::from_fn(|j| service_counter(service, names[j]) - before[j]);
                }
                if tracing {
                    totals.absorb(tracer);
                }
                u
            },
        );
        stop.store(true, Ordering::Relaxed);
        let waits = probe.map_or_else(Vec::new, |p| p.join().expect("lock probe panicked"));
        Ok((units?, waits))
    })?;
    tracer.set_enabled(false);

    for u in &units {
        out.tally(
            u.requests,
            u.failed,
            "wire requests lost, refused or answered out of order",
        );
    }
    let datagrams = service_counter(service, "mercury_net_datagrams_total");
    out.check(datagrams == client.sent, || {
        format!(
            "the service counted {datagrams} datagrams, the client sent {}",
            client.sent
        )
    });
    let malformed = service_counter(service, "mercury_net_malformed_total");
    out.check(malformed == 0, || {
        format!("the service counted {malformed} malformed datagrams")
    });

    let pace = |u: &UnitResult| {
        if u.paced_wall_s > 0.0 {
            u.emulated_s / u.paced_wall_s
        } else {
            0.0
        }
    };
    if !opts.traced {
        out.set("setup_s", setup_s);
        out.set(
            "machine_seconds_per_s",
            fast_decile_of(&units, |u| machines * pace(u)),
        );
        out.set(
            "requests_per_s",
            fast_decile_of(&units, |u| (u.requests - u.failed) as f64 / u.wall_s),
        );
        clock.finish(false, &mut out);
        return Ok(out);
    }

    let (baseline, traced) = units.split_at(BASELINE_UNITS);
    let k = traced.len() as f64;
    let per_unit = |name: &str| totals.total_s(name) / k;
    out.set("core.net.service.request_s", per_unit("net.request"));
    out.set("core.net.service.decode_s", per_unit("net.decode"));
    out.set("core.net.service.handle_s", per_unit("net.handle"));
    out.set("core.net.service.reply_s", per_unit("net.reply"));
    out.set("core.net.service.recv_s", totals.gap_s() / k);
    out.set("core.net.service.datagrams", first_unit_counts[0] as f64);
    out.set("core.net.service.replies", first_unit_counts[1] as f64);
    out.set("core.net.service.malformed", first_unit_counts[2] as f64);
    // tick_wall is 1 ms per emulated second: pace ÷ 1000 is 1.0 when
    // the emulator keeps up with the wall clock.
    out.set(
        "core.net.service.tick_pace_ratio",
        median_of(traced, |u| pace(u) / 1000.0),
    );
    let mut waits = lock_waits;
    waits.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    let tail = highest_supported_percentile(waits.len()).unwrap_or(50.0);
    out.set(
        "core.net.service.lock_probe_p50_us",
        percentile_sorted(&waits, 50.0).unwrap_or(0.0),
    );
    out.set(
        "core.net.service.lock_probe_p99_us",
        percentile_sorted(&waits, tail.min(99.0)).unwrap_or(0.0),
    );
    // On this workload the solver only runs under the ticker's lock.
    out.set("core.solver.step_s", per_unit("cluster.tick"));
    super::set_solver_phases(&mut out, &totals, k);

    let traced_wall = median_of(traced, |u| u.wall_s);
    out.set(
        "telemetry.trace_overhead_pct",
        (traced_wall / median_of(baseline, |u| u.wall_s) - 1.0) * 100.0,
    );
    // The service thread never sleeps at this window: its request
    // spans and the socket receives between them should cover the
    // client's wall time.
    out.set(
        "telemetry.accounted_pct",
        100.0 * (totals.total_s("net.request") + totals.gap_s())
            / traced.iter().map(|u| u.wall_s).sum::<f64>(),
    );

    let before = (emulated_time(service), Instant::now());
    std::thread::sleep(Duration::from_secs_f64(sizes.net_idle_s));
    let idle = emulated_time(service) - before.0;
    out.set(
        "core.net.service.idle_pace_ratio",
        idle / before.1.elapsed().as_secs_f64() / 1000.0,
    );

    codec_probe(client, sizes, &mut out)?;
    sensor_probe(client, sizes, &mut out)?;
    super::set_scrape_cost(&mut out, service.registry());
    super::set_common_traced(
        &mut out,
        opts,
        NET_LIVE,
        &inputs.corpus,
        tracer,
        &totals,
        &traced.iter().map(|u| u.wall_s).collect::<Vec<_>>(),
    )?;
    clock.finish(true, &mut out);
    Ok(out)
}
