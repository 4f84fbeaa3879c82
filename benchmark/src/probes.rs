//! Layer probes: each drives one layer's public API alone, with the
//! operation mix the workload produced, so a change in an end-to-end
//! number can be traced to the layer that moved. A probe runs only on the
//! workloads that exercise its layer; elsewhere its metric stays 0.
//!
//! Probes run in the traced pass only and never feed an end-to-end metric.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use fcc_check::{explore, explore_steal, standard_cases, Budget};
use fcc_collectives::AllToAllPlan;
use fcc_core::schedule::steal::{Steal, WorkerDeque};
use fcc_dlrm::{DlrmConfig, PoolingMode};
use fcc_gpu::exec::{PersistentExec, TaskUnit, WgPlan};
use fcc_net::diff::{compare, DiffTolerance};
use fcc_net::{presets, Injection, LinkSpec, Message, MessageKind, Nic};
use fcc_serve::{serve, LoadPattern, LoadSpec, ModelExecutor};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{FlightKind, FlightRecorder, ProgramOrder, ShmemWorld, TraceCtx};
use fcc_sim::engine::{Engine, Model, Scheduler};
use fcc_sim::{PsResource, SimTime};
use fcc_telemetry::{Registry, Telemetry};

use crate::fused::{self, Rig, Shape};
use crate::harness::{median, micros, LayerValues, Recorder, SplitMix};
use crate::{serving, Args};

/// (attempted, failed) operations the probes checked.
type Checked = (u64, u64);

pub fn run(args: &Args, rec: &mut Recorder, layer: &mut LayerValues) -> Result<Checked, String> {
    let open = rec.open("driver.probes");
    let scale = if args.tiny { 20 } else { 1 };
    let checked = match args.workload.as_str() {
        "fused_small_slice" => {
            shmem_probes(layer, scale);
            fused_probes(&fused::SMALL_SLICE, args, rec, layer);
            steal_probes(layer, scale);
            telemetry_probes(args, rec, layer, scale);
            check_probe(rec, layer, scale)
        }
        "fused_pool_heavy" => {
            shmem_probes(layer, scale);
            fused_probes(&fused::POOL_HEAVY, args, rec, layer);
            (0, 0)
        }
        "sim_design_sweep" => {
            sim_span_metrics(rec, layer);
            substrate_probes(layer, scale);
            (0, 0)
        }
        "fabric_uniform" | "fabric_skewed" => fabric_diff_probe(args, layer),
        "serve_open_loop" => {
            layer.set("shmem.world.launch_us", world_launch_us(scale));
            serve_probes(args, layer);
            (0, 0)
        }
        other => unreachable!("no probes for {other}"),
    };
    rec.close(open);
    Ok(checked)
}

// ---------------------------------------------------------------------
// shmem
// ---------------------------------------------------------------------

fn two_pe_world(layout: HeapLayout) -> ShmemWorld {
    ShmemWorld::new(2, layout).with_p2p_groups(vec![0, 1])
}

fn world_launch_us(scale: usize) -> f64 {
    let world = two_pe_world(HeapLayout::new());
    let samples: Vec<f64> = (0..400 / scale)
        .map(|_| {
            let t = Instant::now();
            world.run(|_| {});
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    median(&samples)
}

/// ns per `put` + `quiet` of `bytes` from PE 0 to PE 1.
fn put_quiet_ns(bytes: usize, n: usize, book: bool) -> f64 {
    let mut layout = HeapLayout::new();
    let buf = layout.alloc::<u8>(bytes);
    let mut world = two_pe_world(layout);
    if book {
        world = world.with_delivery_order(Arc::new(ProgramOrder));
    }
    let payload = vec![7u8; bytes];
    let per_pe = world.run_collect(|ctx| {
        if ctx.me() != 0 {
            return 0.0;
        }
        let t = Instant::now();
        for _ in 0..n {
            ctx.put(buf, 0, black_box(&payload), 1);
            ctx.quiet();
        }
        t.elapsed().as_nanos() as f64 / n as f64
    });
    per_pe[0]
}

fn shmem_probes(layer: &mut LayerValues, scale: usize) {
    layer.set("shmem.world.launch_us", world_launch_us(scale));
    let n = 200_000 / scale;
    layer.set("shmem.put_small_ns", put_quiet_ns(256, n, false));
    layer.set("shmem.put_large_ns", put_quiet_ns(512, n, false));
    layer.set("shmem.put_64k_ns", put_quiet_ns(64 * 1024, n / 20, false));
    layer.set("shmem.book.put_small_ns", put_quiet_ns(256, n / 4, true));

    // put + fence + flag ping-pong: PE 0 publishes round i, PE 1 answers.
    let mut layout = HeapLayout::new();
    let buf = layout.alloc::<u8>(256);
    let flags = layout.alloc_flags(1);
    let world = two_pe_world(layout);
    let rounds = (50_000 / scale) as u64;
    let payload = [1u8; 256];
    let per_pe = world.run_collect(|ctx| {
        let other = 1 - ctx.me();
        let t = Instant::now();
        for i in 1..=rounds {
            if ctx.me() == 0 {
                ctx.put(buf, 0, &payload, other);
                ctx.fence();
                ctx.flag_store(flags, 0, i, other);
                ctx.wait_until(flags, 0, |v| v >= i);
            } else {
                ctx.wait_until(flags, 0, |v| v >= i);
                ctx.flag_store(flags, 0, i, other);
            }
        }
        t.elapsed().as_nanos() as f64 / rounds as f64
    });
    layer.set("shmem.fence_flag_ns", per_pe[0]);

    let world = two_pe_world(HeapLayout::new());
    let per_pe = world.run_collect(|ctx| {
        let t = Instant::now();
        for _ in 0..rounds {
            ctx.barrier_all();
        }
        t.elapsed().as_nanos() as f64 / rounds as f64
    });
    layer.set("shmem.barrier_ns", per_pe[0]);
}

// ---------------------------------------------------------------------
// dlrm + core (the fused workloads)
// ---------------------------------------------------------------------

/// Pools and generates the workload's own bags, one thread per PE as in
/// the workload, and splits the execution time into shares. The box's
/// speed drifts within seconds, so executions and probe alternate in short
/// rounds and every reported number is a median over rounds.
fn fused_probes(shape: &Shape, args: &Args, rec: &mut Recorder, layer: &mut LayerValues) {
    const ROUNDS: usize = 9;
    const EXECS_PER_ROUND: usize = 6;
    let mut scratch = LayerValues::default();
    let mut rig = Rig::build(shape, args, rec, &mut scratch, |w| w);
    let wgs = shape.wgs_per_pe(&rig.cfg) as usize;
    let (mut exec_us, mut bag_ns, mut pool_ns, mut share) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for _ in 0..if args.tiny { 1 } else { ROUNDS } {
        let lat: Vec<f64> = (0..EXECS_PER_ROUND)
            .map(|_| micros(rig.exec(rec)))
            .collect();
        let open = rec.open("dlrm.pool_probe");
        let (bag, pool) = pool_round(&rig, wgs);
        rec.close(open);
        exec_us.push(median(&lat));
        bag_ns.push(bag);
        pool_ns.push(pool);
        // Both PEs work in parallel, so one PE's work is the execution's.
        share.push((bag + pool) * wgs as f64 / 1e3 / median(&lat));
    }
    let (exec_us, bag_ns, pool_ns) = (median(&exec_us), median(&bag_ns), median(&pool_ns));
    layer.set("dlrm.bag_gen_ns", bag_ns);
    layer.set("dlrm.pool_ns_per_wg", pool_ns);
    // Computed bytes: `pooling` rows read and one written per WG.
    layer.set(
        "dlrm.pool_bytes_per_s",
        rig.cfg.bytes_per_pooled_lookup() / pool_ns * 1e9,
    );
    layer.set("dlrm.exec_share", median(&share));

    // What is left of an execution once launch, pooling, bags and the
    // remote rows' PUTs are taken out: task loop, flags, election.
    let put_ns = if layer.get("shmem.ring.puts_per_exec") > 0.0 {
        layer.get("shmem.put_small_ns")
    } else {
        layer.get("shmem.put_large_ns")
    };
    let remote_rows = wgs as f64 / fused::PES as f64;
    layer.set(
        "core.execute_self_us",
        exec_us
            - layer.get("shmem.world.launch_us")
            - (bag_ns + pool_ns) * wgs as f64 / 1e3
            - put_ns * remote_rows / 1e3,
    );
}

/// One probe round: (bag ns, pooling ns) per WG, averaged over the PEs.
fn pool_round(rig: &Rig, wgs: usize) -> (f64, f64) {
    let per_pe: Vec<(f64, f64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..fused::PES)
            .map(|pe| {
                let (cfg, tables, gen) = (&rig.cfg, &rig.tables, &rig.gen);
                s.spawn(move || {
                    let mut out = vec![0.0f32; cfg.dim];
                    let wg_list = || {
                        (0..cfg.tables_per_pe)
                            .flat_map(|lt| (0..cfg.global_batch).map(move |s| (lt, s)))
                    };
                    // Bags alone, then bag + pool per WG as the operator
                    // interleaves them; pooling is the difference.
                    let t = Instant::now();
                    for (lt, s) in wg_list() {
                        black_box(gen.bag(pe * cfg.tables_per_pe + lt, s));
                    }
                    let bags = t.elapsed().as_nanos() as f64 / wgs as f64;
                    let t = Instant::now();
                    for (lt, s) in wg_list() {
                        let bag = gen.bag(pe * cfg.tables_per_pe + lt, s);
                        tables[pe * cfg.tables_per_pe + lt].pool_into(
                            &bag,
                            PoolingMode::Sum,
                            &mut out,
                        );
                        black_box(&out);
                    }
                    let both = t.elapsed().as_nanos() as f64 / wgs as f64;
                    (bags, (both - bags).max(0.0))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("probe thread panicked"))
            .collect()
    });
    let n = per_pe.len() as f64;
    (
        per_pe.iter().map(|p| p.0).sum::<f64>() / n,
        per_pe.iter().map(|p| p.1).sum::<f64>() / n,
    )
}

fn steal_probes(layer: &mut LayerValues, scale: usize) {
    let n = 1 << 16;
    let deque = WorkerDeque::with_capacity(n);
    let reps = 40 / scale.min(40);
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            deque.reset(None);
            let t = Instant::now();
            for task in 0..n as u64 {
                deque.push(task);
            }
            while let Some(task) = deque.pop() {
                black_box(task);
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    layer.set("core.steal.push_pop_ns", median(&samples));

    // A thief drains a full deque while its owner keeps popping.
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            deque.reset(None);
            for task in 0..n as u64 {
                deque.push(task);
            }
            std::thread::scope(|s| {
                let thief = s.spawn(|| {
                    let t = Instant::now();
                    let mut stolen = 0u64;
                    loop {
                        match deque.steal() {
                            Steal::Success(task) => {
                                black_box(task);
                                stolen += 1;
                            }
                            Steal::Retry => std::hint::spin_loop(),
                            Steal::Empty => break,
                        }
                    }
                    t.elapsed().as_nanos() as f64 / stolen.max(1) as f64
                });
                while let Some(task) = deque.pop() {
                    black_box(task);
                }
                thief.join().expect("thief panicked")
            })
        })
        .collect();
    layer.set("core.steal.steal_ns", median(&samples));
}

// ---------------------------------------------------------------------
// telemetry, check
// ---------------------------------------------------------------------

fn telemetry_probes(args: &Args, rec: &mut Recorder, layer: &mut LayerValues, scale: usize) {
    let n = 2_000_000 / scale;
    let counter = Registry::enabled().counter("benchmark.probe", &[]);
    let t = Instant::now();
    for _ in 0..n {
        counter.inc();
    }
    black_box(counter.value());
    layer.set(
        "telemetry.counter_inc_ns",
        t.elapsed().as_nanos() as f64 / n as f64,
    );

    let flight = FlightRecorder::enabled(4096);
    let t = Instant::now();
    for i in 0..n as u64 {
        flight.record(FlightKind::NetPut, TraceCtx::step(1), i, 256);
    }
    black_box(flight.recorded());
    layer.set(
        "telemetry.flight_record_ns",
        t.elapsed().as_nanos() as f64 / n as f64,
    );

    // The small-slice workload with the protocol trace and an enabled
    // flight recorder, against the same workload without.
    let execs = if args.tiny { 2 } else { 60 };
    let mut scratch = LayerValues::default();
    let mut rate = |traced: bool, rec: &mut Recorder| {
        let mut rig = Rig::build(&fused::SMALL_SLICE, args, rec, &mut scratch, |w| {
            if traced {
                w.with_trace().with_flight(FlightRecorder::enabled(4096))
            } else {
                w
            }
        });
        let mut busy = 0.0;
        for _ in 0..execs {
            busy += rig.exec(rec).as_secs_f64();
            // The event log is the consumer's to drain; not timed.
            black_box(rig.world.take_trace().len());
        }
        execs as f64 / busy
    };
    let plain = rate(false, rec);
    let traced = rate(true, rec);
    layer.set("telemetry.traced_ops_ratio", traced / plain);
}

fn check_probe(rec: &mut Recorder, layer: &mut LayerValues, scale: usize) -> Checked {
    let budget = Budget {
        exhaustive_bits: 6,
        target_distinct: 160 / scale,
        max_runs: 320 / scale,
    };
    let open = rec.open("check.explore");
    let (mut runs, mut bad) = (0usize, 0usize);
    for case in standard_cases(2) {
        for report in [
            explore(case.as_ref(), &budget),
            explore_steal(case.as_ref(), &budget),
        ] {
            runs += report.runs;
            bad += report.violations_total + report.ctx_violations_total + report.mismatches_total;
        }
    }
    let dt = rec.close(open);
    layer.set("check.schedules_per_s", runs as f64 / dt.as_secs_f64());
    layer.set("check.violations", bad as f64);
    (runs as u64, bad as u64)
}

// ---------------------------------------------------------------------
// sim, gpu, net substrate (the design sweep)
// ---------------------------------------------------------------------

fn sim_span_metrics(rec: &Recorder, layer: &mut LayerValues) {
    let mean_ms = |name| {
        let (count, total_s) = rec.span_stats(name);
        total_s * 1e3 / count.max(1) as f64
    };
    layer.set(
        "core.sim.fused_ms_per_point",
        mean_ms("core.simulate_fused"),
    );
    layer.set(
        "core.sim.baseline_ms_per_point",
        mean_ms("core.simulate_baseline"),
    );
    layer.set(
        "core.sim.zero_copy_ms_per_point",
        mean_ms("core.simulate_zero_copy"),
    );
    layer.set("astra.pass_ms", mean_ms("astra.build_pass"));
    let (tunes, tune_s) = rec.span_stats("core.tune_fused");
    layer.set("core.tune.s", tune_s / tunes.max(1) as f64);
    let (runs, run_s) = rec.span_stats("net.flow_run");
    layer.set("net.flow.run_s", run_s / runs.max(1) as f64);
}

struct Chain {
    left: u64,
}

impl Model for Chain {
    type Event = ();

    fn handle(&mut self, _event: (), sched: &mut Scheduler<()>) {
        if self.left > 0 {
            self.left -= 1;
            sched.schedule_in(SimTime::from_nanos(1), ());
        }
    }
}

fn substrate_probes(layer: &mut LayerValues, scale: usize) {
    let jobs = 100_000 / scale;
    let t = Instant::now();
    let mut ps = PsResource::new(|n| (n as f64).min(64.0));
    for i in 0..jobs {
        ps.insert(SimTime::ZERO, 100.0 + (i % 7) as f64);
    }
    black_box(ps.drain().len());
    layer.set(
        "sim.ps.ns_per_job",
        t.elapsed().as_nanos() as f64 / jobs as f64,
    );

    let events = (2_000_000 / scale) as u64;
    let mut engine = Engine::new();
    engine.scheduler().schedule_now(());
    let t = Instant::now();
    engine.run(&mut Chain { left: events });
    layer.set(
        "sim.engine.events_per_s",
        engine.events_processed() as f64 / t.elapsed().as_secs_f64(),
    );

    let (wgs, tasks) = (728usize, 100_000 / scale);
    let plans: Vec<WgPlan> = (0..wgs)
        .map(|w| WgPlan {
            tasks: (w..tasks)
                .step_by(wgs)
                .map(|t| TaskUnit {
                    id: t as u64,
                    work: 45056.0,
                })
                .collect(),
        })
        .collect();
    let t = Instant::now();
    let exec = PersistentExec::new(|n| 800.0 * (n as f64 / 728.0).min(1.0), plans);
    black_box(exec.run(|_| SimTime::ZERO).makespan);
    layer.set(
        "gpu.exec.tasks_per_s",
        tasks as f64 / t.elapsed().as_secs_f64(),
    );

    let posts = (1_000_000 / scale) as u64;
    let mut nic = Nic::new(LinkSpec::infiniband_20gbs());
    let t = Instant::now();
    for i in 0..posts {
        black_box(nic.post(
            SimTime::from_nanos(i),
            Message {
                src: 0,
                dst: 1,
                bytes: 4096,
                tag: i,
                kind: MessageKind::Payload,
            },
        ));
    }
    layer.set(
        "net.nic.posts_per_s",
        posts as f64 / t.elapsed().as_secs_f64(),
    );
}

// ---------------------------------------------------------------------
// net flow accuracy (the fabric workloads)
// ---------------------------------------------------------------------

/// The flow engine against the packet-level simulator through
/// `fcc_net::diff`, on seeded batches shaped like its conformance corpus
/// (24 messages of up to 200 kB on 64 nodes): the accuracy that stands
/// beside the fabric speed numbers. A batch outside the stated tolerance
/// is a failed operation.
fn fabric_diff_probe(args: &Args, layer: &mut LayerValues) -> Checked {
    let mut rng = SplitMix(args.seed);
    let (mut worst, mut attempted, mut failed) = (0.0f64, 0u64, 0u64);
    for topo in [
        presets::torus_scaleout(64),
        presets::fat_tree_scaleout(64),
        presets::multi_rail_scaleout(64),
    ] {
        for _ in 0..4 {
            let flows: Vec<Injection> = (0..24u64)
                .map(|tag| {
                    let src = (rng.next() % 64) as u32;
                    Injection {
                        at: SimTime::from_nanos(rng.next() % 5_000),
                        src,
                        dst: (src + 1 + (rng.next() % 63) as u32) % 64,
                        bytes: 1 + rng.next() % 200_000,
                        tag,
                    }
                })
                .collect();
            attempted += 1;
            match compare(&topo, &flows, &DiffTolerance::default()) {
                Ok(report) => worst = worst.max((report.makespan_ratio() - 1.0).abs()),
                Err(_) => failed += 1,
            }
        }
    }
    layer.set("net.flow.diff_max_rel_err", worst);
    (attempted, failed)
}

// ---------------------------------------------------------------------
// serve, collectives
// ---------------------------------------------------------------------

fn serve_probes(args: &Args, layer: &mut LayerValues) {
    // One functional All-to-All round at the serve shape: the Bulk rung's
    // collective.
    let cfg: DlrmConfig = serving::shape(args);
    let per_pair = cfg.local_batch() * cfg.tables_per_pe * cfg.dim;
    let mut layout = HeapLayout::new();
    let plan = AllToAllPlan::<f32>::plan(&mut layout, serving::PES, per_pair);
    let world = two_pe_world(layout);
    let samples: Vec<f64> = (1..=200u64)
        .map(|round| {
            let t = Instant::now();
            world.run(|ctx| plan.execute(ctx, round));
            t.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    layer.set("collectives.alltoall_us", median(&samples));

    // The serve loop's own host cost, and the exact latency its logic
    // produces, on a deterministic cost model.
    let duration_us = if args.tiny { 50_000 } else { 2_000_000 };
    let workload = LoadSpec {
        seed: args.seed,
        rps: serving::NOMINAL_RPS,
        duration_us,
        slo_us: serving::SLO_US,
        pattern: LoadPattern::Poisson,
    }
    .generate();
    let mut model = ModelExecutor::default_model();
    let t = Instant::now();
    let report = serve(
        serving::server_config(args.seed),
        &mut model,
        &workload,
        &Telemetry::disabled(),
    );
    layer.set(
        "serve.loop_ns_per_request",
        t.elapsed().as_nanos() as f64 / workload.len() as f64,
    );
    layer.set(
        "serve.model.p99_us",
        report.latency_quantile_us(0.99) as f64,
    );
}
