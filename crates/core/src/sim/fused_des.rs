//! Integrated discrete-event co-simulation of the fused kernel.
//!
//! [`super::fused::simulate_fused`] decouples compute from network, which
//! is exact *except* for one feedback path: an arriving slice is an RDMA
//! write into the destination GPU's HBM, and those writes steal memory
//! bandwidth from the destination's still-running pooling workgroups.
//! This module runs all PEs, their NICs, and both directions of HBM
//! traffic in one event engine, closing that loop:
//!
//! * each PE's HBM is one processor-sharing resource whose jobs are both
//!   local WG tasks *and* incoming slice writes;
//! * every task completion runs the same protocol step as the decoupled
//!   model (`sim/timed.rs`), and a slice it ships posts on the source NIC
//!   at its issue time; its arrival
//!   schedules an HBM write job at the destination; `sliceRdy` fires when
//!   the write has landed and the (fenced) flag has arrived;
//! * a PE's kernel ends when its task loop has drained and every expected
//!   slice is ready.
//!
//! The decoupled model stays the workhorse for sweeps (it is ~2× faster
//! and the feedback is small — incoming bytes are a few percent of local
//! traffic at the paper's shapes); the co-simulation exists to *measure*
//! that error instead of assuming it. See the cross-validation tests.

use std::collections::HashMap;
use std::ops::ControlFlow;

use fcc_gpu::exec::{TaskCompletion, WgPlan};
use fcc_sim::{Engine, JobId, Model, PsResource, Scheduler, SimTime, Timeline};

use super::fused::{wg_plans, FusedParams, PeOutcome, WgSchedule};
use super::timed::{Timed, TimedPe, Wire};

#[derive(Debug)]
enum Ev {
    /// Re-examine PE `pe`'s HBM resource; stale generations are ignored.
    PsCheck { pe: usize, generation: u64 },
    /// A workgroup's post-completion overhead elapsed; start its next task.
    WgResume { pe: usize, wg: u32 },
    /// A slice payload arrived at `pe` and begins writing to HBM.
    SliceWrite {
        pe: usize,
        bytes: f64,
        flag_at: SimTime,
    },
}

/// What an HBM job is working on.
#[derive(Debug, Clone, Copy)]
enum JobKind {
    /// Protocol task `seq` of persistent WG `wg`.
    Task { wg: u32, seq: u32 },
    /// An incoming slice write; `sliceRdy` fires at
    /// `max(completion, flag_at)`.
    IncomingWrite { flag_at: SimTime },
}

struct PeState {
    hbm: PsResource,
    jobs: HashMap<JobId, JobKind>,
    plans: Vec<WgPlan>,
    next_seq: Vec<u32>,
    protocol: TimedPe,
    wire: Wire,
    ready_arrivals: u32,
    compute_end: SimTime,
    last_ready: SimTime,
    bytes: u64,
}

struct CoSim<'t> {
    timed: Timed<'t>,
    pes: Vec<PeState>,
}

impl CoSim<'_> {
    fn start_next_task(&mut self, pe: usize, wg: u32, sched: &mut Scheduler<Ev>) {
        let st = &mut self.pes[pe];
        let seq = st.next_seq[wg as usize];
        if let Some(task) = st.plans[wg as usize].tasks.get(seq as usize) {
            st.next_seq[wg as usize] += 1;
            let job = st.hbm.insert(sched.now(), task.work);
            st.jobs.insert(job, JobKind::Task { wg, seq });
            self.schedule_check(pe, sched);
        }
    }

    fn schedule_check(&mut self, pe: usize, sched: &mut Scheduler<Ev>) {
        let st = &self.pes[pe];
        if let Some(at) = st.hbm.next_completion().filter(|&at| at < SimTime::MAX) {
            let generation = st.hbm.generation();
            sched.schedule_at(at, Ev::PsCheck { pe, generation });
        }
    }

    /// Steps the protocol for the task, then posts any slice it shipped on
    /// this PE's NIC at its issue instant and schedules the destination's
    /// HBM write for the payload's arrival.
    fn on_task_done(&mut self, pe: usize, wg: u32, seq: u32, sched: &mut Scheduler<Ev>) {
        let now = sched.now();
        let st = &mut self.pes[pe];
        let completion = TaskCompletion {
            wg,
            seq,
            id: st.plans[wg as usize].tasks[seq as usize].id,
            // No timeline is recorded here, so the start is not tracked.
            start: now,
            end: now,
            stolen: false,
        };
        let overhead = self.timed.complete(&mut st.protocol, &completion);
        for (issue, s) in st.protocol.puts.drain(..) {
            let bytes = self.timed.payload_bytes(&s);
            let (payload, flag) = st.wire.publish(issue, &s, bytes);
            st.bytes += bytes;
            sched.schedule_at(
                payload.arrival,
                Ev::SliceWrite {
                    pe: s.dst,
                    bytes: bytes as f64,
                    flag_at: flag.arrival,
                },
            );
        }
        st.compute_end = st.compute_end.max(now + overhead);
        if overhead == SimTime::ZERO {
            self.start_next_task(pe, wg, sched);
        } else {
            sched.schedule_at(now + overhead, Ev::WgResume { pe, wg });
        }
    }
}

impl Model for CoSim<'_> {
    type Event = Ev;

    fn handle(&mut self, event: Ev, sched: &mut Scheduler<Ev>) {
        match event {
            Ev::PsCheck { pe, generation } => {
                if self.pes[pe].hbm.generation() != generation {
                    return; // superseded by a later mutation
                }
                let now = sched.now();
                let job = self.pes[pe].hbm.complete_next(now);
                let kind = self.pes[pe].jobs.remove(&job).expect("tracked job");
                match kind {
                    JobKind::Task { wg, seq } => self.on_task_done(pe, wg, seq, sched),
                    JobKind::IncomingWrite { flag_at } => {
                        let st = &mut self.pes[pe];
                        st.ready_arrivals += 1;
                        st.last_ready = st.last_ready.max(now.max(flag_at));
                    }
                }
                self.schedule_check(pe, sched);
            }
            Ev::WgResume { pe, wg } => self.start_next_task(pe, wg, sched),
            Ev::SliceWrite { pe, bytes, flag_at } => {
                let st = &mut self.pes[pe];
                let job = st.hbm.insert(sched.now(), bytes);
                st.jobs.insert(job, JobKind::IncomingWrite { flag_at });
                self.schedule_check(pe, sched);
            }
        }
    }
}

/// Runs the integrated co-simulation, producing the same outcome shape as
/// [`super::fused::simulate_fused`] (timelines are not recorded here).
pub fn simulate_fused_integrated(params: &FusedParams) -> Vec<PeOutcome> {
    assert_eq!(params.num_qps, 1, "co-simulation models one QP per NIC");
    let stealing = matches!(params.wg_schedule, WgSchedule::Stealing { .. });
    assert!(!stealing, "co-simulation models dealt WG schedules");
    let (map, n_persistent) = params.shape();
    let table = map.table();
    let timed = Timed::new(&table, params.cfg.dim, params.tuning, &params.topo);
    let n_pes = params.cfg.n_pes;
    assert_eq!(
        timed.nics().count(),
        n_pes,
        "co-simulation models a NIC per PE"
    );

    let pes: Vec<PeState> = (0..n_pes)
        .map(|pe| {
            let plans = wg_plans(params, &map, pe, n_persistent);
            let hbm_curve = params.gpu.hbm.clone();
            PeState {
                hbm: PsResource::new(move |n| hbm_curve.aggregate(n)),
                jobs: HashMap::new(),
                next_seq: vec![0; plans.len()],
                plans,
                protocol: timed.pe(pe, Timeline::disabled()),
                wire: Wire::new(*params.topo.link(), None, 1),
                ready_arrivals: 0,
                compute_end: SimTime::ZERO,
                last_ready: SimTime::ZERO,
                bytes: 0,
            }
        })
        .collect();

    let mut sim = CoSim { timed, pes };
    let mut engine = Engine::new();
    for pe in 0..n_pes {
        for wg in 0..n_persistent {
            sim.start_next_task(pe, wg, engine.scheduler());
        }
    }
    engine.run(&mut sim);

    sim.pes
        .iter()
        .enumerate()
        .map(|(pe, st)| {
            let mut drained = st.plans.iter().zip(&st.next_seq);
            assert!(
                drained.all(|(p, &n)| p.tasks.len() == n as usize),
                "task loop must drain"
            );
            // Every slice destined to this PE from another source arrived.
            let mut expected = 0;
            table.drain(pe, |s| {
                expected += u32::from(s.src != pe);
                ControlFlow::Continue(())
            });
            assert_eq!(st.ready_arrivals, expected, "all slices must arrive");
            let body = st.compute_end.max(st.last_ready);
            PeOutcome {
                compute_end: st.compute_end,
                last_arrival: st.last_ready,
                total: params.gpu.kernel_launch_overhead + body + params.tuning.drain_poll,
                messages: st.wire.sent().0,
                bytes: st.bytes,
                persistent_wgs: n_persistent,
                steals: 0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::fused::simulate_fused;
    use fcc_dlrm::DlrmConfig;
    use fcc_gpu::config::GpuConfig;
    use fcc_net::presets;

    fn params(batch: usize, tables: usize) -> FusedParams {
        let mut cfg = DlrmConfig::hw_eval(2, batch, tables);
        cfg.pooling = 16;
        FusedParams {
            slice_embeddings: 8,
            ..FusedParams::new(cfg, GpuConfig::mi210(), presets::dual_node_ib())
        }
    }

    #[test]
    fn integrated_is_deterministic() {
        let p = params(64, 8);
        assert_eq!(simulate_fused_integrated(&p), simulate_fused_integrated(&p));
    }

    #[test]
    fn matches_decoupled_message_accounting_exactly() {
        let p = params(64, 8);
        let integrated = simulate_fused_integrated(&p);
        let decoupled = simulate_fused(&p);
        for (i, d) in integrated.iter().zip(&decoupled.per_pe) {
            assert_eq!(i.messages, d.messages);
            assert_eq!(i.bytes, d.bytes);
            assert_eq!(i.persistent_wgs, d.persistent_wgs);
        }
    }

    #[test]
    fn cross_validates_decoupled_timing() {
        // The decoupled model ignores destination-side write interference,
        // so the integrated makespan may only be equal or later — and at
        // the paper's byte ratios, by no more than a few percent.
        let p = params(256, 32);
        let integrated = simulate_fused_integrated(&p);
        let decoupled = simulate_fused(&p);
        let i_total = integrated.iter().map(|o| o.total).max().unwrap();
        let d_total = decoupled.makespan();
        let ratio = i_total.as_nanos_f64() / d_total.as_nanos_f64();
        assert!(
            (0.98..=1.10).contains(&ratio),
            "integrated {i_total} vs decoupled {d_total} (ratio {ratio:.3})"
        );
    }

    #[test]
    fn incoming_writes_delay_compute() {
        // With two PEs streaming slices at each other, the integrated
        // compute drain can only be at or after the isolated one.
        let p = params(256, 32);
        let integrated = simulate_fused_integrated(&p);
        let decoupled = simulate_fused(&p);
        for (i, d) in integrated.iter().zip(&decoupled.per_pe) {
            assert!(
                i.compute_end >= d.compute_end,
                "interference cannot speed compute: {} < {}",
                i.compute_end,
                d.compute_end
            );
        }
    }

    #[test]
    fn single_pe_has_no_interference() {
        let mut p = params(64, 4);
        p.cfg = DlrmConfig::hw_eval(1, 64, 4);
        p.cfg.pooling = 16;
        let integrated = simulate_fused_integrated(&p);
        assert_eq!(integrated[0].messages, 0);
        assert_eq!(integrated[0].last_arrival, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "one QP")]
    fn multi_qp_not_supported_here() {
        let mut p = params(64, 4);
        p.num_qps = 4;
        simulate_fused_integrated(&p);
    }
}
