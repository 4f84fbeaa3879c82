//! `fused_small_slice` and `fused_pool_heavy`: the functional fused
//! embedding + All-to-All operator on a 2-PE world, closed loop, one
//! client. Same operator, two shapes: rows of exactly one ring slot (so
//! every network PUT rides the delivery rings and the message-rate path
//! dominates) against rows twice that (so every PUT bypasses the rings and
//! pooling dominates).

use std::time::Instant;

use fcc_core::op::reference;
use fcc_core::{FusedPlan, ScheduleKind, StealPolicy};
use fcc_dlrm::{BatchGenerator, DlrmConfig, EmbeddingTable, PoolingMode};
use fcc_shmem::heap::HeapLayout;
use fcc_shmem::ring::SLOT_PAYLOAD;
use fcc_shmem::ShmemWorld;

use crate::harness::{micros, nproc, require_cores, Fnv, LayerValues, Outcome, Recorder};
use crate::Args;

pub const PES: usize = 2;
/// Every `CHECK_EVERY`th execution (and the first and last) is compared
/// with the unfused reference, outside the timed region.
const CHECK_EVERY: u64 = 50;

pub struct Shape {
    pub name: &'static str,
    pub slice: usize,
    batch: usize,
    tables_per_pe: usize,
    table_rows: usize,
    dim: usize,
    pooling: usize,
    /// Timed executions per part for a 10 s run on the reference box.
    execs_per_part: u64,
}

pub const SMALL_SLICE: Shape = Shape {
    name: "fused_small_slice",
    slice: 4,
    batch: 512,
    tables_per_pe: 16,
    table_rows: 4096,
    dim: 64,
    pooling: 8,
    execs_per_part: 40,
};

pub const POOL_HEAVY: Shape = Shape {
    name: "fused_pool_heavy",
    slice: 64,
    batch: 256,
    tables_per_pe: 8,
    table_rows: 20_000,
    dim: 128,
    pooling: 64,
    execs_per_part: 32,
};

impl Shape {
    pub fn cfg(&self, args: &Args) -> DlrmConfig {
        let mut cfg = DlrmConfig::hw_eval(PES, self.batch, self.tables_per_pe);
        cfg.table_rows = self.table_rows;
        cfg.dim = self.dim;
        cfg.pooling = self.pooling;
        cfg.seed = args.seed;
        if args.tiny {
            cfg.global_batch = 32;
            cfg.tables_per_pe = 2;
            cfg.table_rows = 512;
        }
        cfg
    }

    fn execs(&self, args: &Args) -> u64 {
        if args.tiny {
            3
        } else {
            (self.execs_per_part * args.seconds / 10).max(2)
        }
    }

    pub fn wgs_per_pe(&self, cfg: &DlrmConfig) -> u64 {
        (cfg.tables_per_pe * cfg.global_batch) as u64
    }
}

/// Everything one set-up builds.
pub struct Rig {
    pub cfg: DlrmConfig,
    pub tables: Vec<EmbeddingTable>,
    pub gen: BatchGenerator,
    pub plan: FusedPlan,
    pub world: ShmemWorld,
    pub expected: Vec<Vec<f32>>,
    pub next_exec: u64,
}

pub fn steal_workers() -> usize {
    (nproc() / PES).max(1)
}

impl Rig {
    pub fn build(
        shape: &Shape,
        args: &Args,
        rec: &mut Recorder,
        layer: &mut LayerValues,
        world_opts: impl FnOnce(ShmemWorld) -> ShmemWorld,
    ) -> Rig {
        let cfg = shape.cfg(args);
        let (tables, dt) = rec.time("dlrm.build_tables", || reference::build_tables(&cfg));
        layer.set("dlrm.tables_build_s", dt.as_secs_f64());
        let gen = reference::build_generator(&cfg);
        let mut layout = HeapLayout::new();
        let (plan, dt) = rec.time("core.plan", || {
            let plan = FusedPlan::plan(&mut layout, &cfg, shape.slice)
                .with_steal(StealPolicy::concurrent(args.seed).with_workers(steal_workers()));
            plan.prewarm(PES * steal_workers());
            plan
        });
        layer.set("core.plan_s", dt.as_secs_f64());
        let (world, dt) = rec.time("shmem.world_new", || {
            world_opts(ShmemWorld::new(PES, layout).with_p2p_groups((0..PES as u32).collect()))
        });
        layer.set("shmem.world.new_s", dt.as_secs_f64());
        let expected = (0..PES)
            .map(|dst| reference::expected_output(&cfg, &tables, &gen, PoolingMode::Sum, dst))
            .collect();
        let mut rig = Rig {
            cfg,
            tables,
            gen,
            plan,
            world,
            expected,
            next_exec: 1,
        };
        // Warm-up: faults in rings, scratch and thread stacks.
        rig.exec(rec);
        rig
    }

    /// One fused execution on every PE; returns its wall time.
    pub fn exec(&mut self, rec: &mut Recorder) -> std::time::Duration {
        let exec = self.next_exec;
        self.next_exec += 1;
        let (cfg, tables, gen, plan) = (&self.cfg, &self.tables, &self.gen, &self.plan);
        let world = &self.world;
        rec.time("core.execute", || {
            world.run(|ctx| {
                let me = ctx.me();
                let local = &tables[me * cfg.tables_per_pe..(me + 1) * cfg.tables_per_pe];
                plan.execute(
                    ctx,
                    local,
                    gen,
                    PoolingMode::Sum,
                    ScheduleKind::CommAware,
                    exec,
                );
            })
        })
        .1
    }

    /// Every execution pools the same bags, so a stale buffer would pass
    /// the comparison: clear the outputs before an execution to be checked.
    fn clear_outputs(&mut self) {
        let zeros = vec![0.0f32; self.plan.output.len()];
        for pe in 0..PES {
            self.world.write(pe, self.plan.output, 0, &zeros);
        }
    }

    /// Destinations whose output differs from the unfused reference.
    fn mismatches(&mut self) -> u64 {
        (0..PES)
            .filter(|&dst| self.world.read(dst, self.plan.output) != self.expected[dst])
            .count() as u64
    }
}

pub fn run(
    shape: &Shape,
    args: &Args,
    rec: &mut Recorder,
    layer: &mut LayerValues,
) -> Result<Outcome, String> {
    require_cores(shape.name, PES * steal_workers())?;
    let t0 = Instant::now();
    let mut rig = Rig::build(shape, args, rec, layer, |w| w);
    let setup_s = t0.elapsed().as_secs_f64();

    let execs = shape.execs(args);
    let misses_before = (rig.plan.scratch_misses(), rig.plan.steal_misses());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut lat_us = Vec::with_capacity(execs as usize);
    for done in 0..execs {
        let checked = done == 0 || done + 1 == execs || done % CHECK_EVERY == 0;
        if checked {
            rig.clear_outputs();
        }
        lat_us.push(micros(rig.exec(rec)));
        if checked {
            attempted += PES as u64;
            failed += rig.mismatches();
        }
    }
    let mut out = Outcome::from_latencies(setup_s, &lat_us);
    out.attempted = attempted;
    out.failed = failed;

    let ring = rig.world.ring_stats();
    let all_execs = rig.next_exec - 1;
    layer.set("shmem.ring.puts", ring.ring_puts as f64);
    layer.set(
        "shmem.ring.puts_per_exec",
        ring.ring_puts as f64 / all_execs as f64,
    );
    layer.set("shmem.ring.full_spins", ring.full_spins as f64);
    layer.set("shmem.ring.bypasses", ring.bypasses as f64);
    layer.set(
        "core.scratch.misses",
        (rig.plan.scratch_misses() - misses_before.0) as f64,
    );
    layer.set(
        "core.steal.misses",
        (rig.plan.steal_misses() - misses_before.1) as f64,
    );
    let table_mb = (rig.cfg.n_pes * rig.cfg.tables_per_pe * rig.cfg.table_rows * rig.cfg.dim * 4)
        as f64
        / (1024.0 * 1024.0);
    layer.set("dlrm.table_mb", table_mb);
    // The traffic one seed produces is exact: ring and bypass PUTs per
    // execution, whichever process counts them.
    let mut digest = Fnv::new();
    digest.word(ring.ring_puts / all_execs);
    digest.word(ring.bypasses / all_execs);
    out.digest = digest.0;

    let row_bytes = rig.cfg.dim * 4;
    out.notes.push(format!(
        "closed loop, 1 client; {PES} PE threads x {} steal worker(s); {} WGs/PE; rows {row_bytes} B \
         ({} one {SLOT_PAYLOAD} B ring slot); tables {table_mb:.1} MB; {all_execs} execs incl. warm-up; \
         {} ring PUTs and {} bypasses per exec",
        steal_workers(),
        shape.wgs_per_pe(&rig.cfg),
        if row_bytes <= SLOT_PAYLOAD { "fit" } else { "exceed" },
        ring.ring_puts / all_execs,
        ring.bypasses / all_execs,
    ));
    if steal_workers() == 1 {
        out.notes.push(
            "1 steal worker/PE: the task loop runs in priority order and bypasses the deques"
                .to_string(),
        );
    }
    Ok(out)
}
