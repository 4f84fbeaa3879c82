//! Integrated co-simulation of the fused kernel: the decoupled pipeline
//! plus one coupling.
//!
//! [`super::fused::simulate_fused`] prices each PE's compute on its own
//! HBM and replays the NICs afterwards. That is exact *except* for one
//! feedback path: an arriving slice is an RDMA write into the destination
//! GPU's HBM, and those writes steal memory bandwidth from the
//! destination's still-running pooling workgroups. This driver runs the
//! decoupled model's own pieces on one clock — per PE the same executor
//! over the same plans (`pe_exec`), the same protocol step
//! (`Timed::complete`) and the same NIC (`FusedParams::nic`) — and
//! adds only that coupling:
//!
//! * a shipped slice posts on its source's wire at its issue instant, as
//!   soon as the completion that shipped it is stepped;
//! * its payload's arrival inserts an HBM write job into the
//!   destination's executor, where it shares capacity with the local
//!   tasks; `sliceRdy` fires when the write has landed and the (fenced)
//!   flag has arrived;
//! * a PE's kernel ends when its task loop has drained and every expected
//!   slice is ready.
//!
//! At one instant a PE takes an arriving write first, then its own
//! resumes and completions in the executor's order, one batch per step;
//! the slices a step shipped are posted after it.
//!
//! The decoupled model stays the workhorse for sweeps: the feedback is
//! small (incoming bytes are a few percent of local traffic at the
//! paper's shapes) and a co-simulated point costs ~1.5x the decoupled
//! one (ablation 8's `1024|256` point: ~40 ms vs ~25 ms of wall time on
//! a 2-vCPU Xeon; it simulates both PEs, where the decoupled model
//! relabels PE 0's run as PE 1's). The co-simulation exists to *measure*
//! that error instead of assuming it (ablation 8 and the
//! cross-validation tests below).

use fcc_gpu::exec::PersistentExec;
use fcc_net::Nic;
use fcc_sim::{MinQueue, SimTime};

use super::fused::{pe_exec, FusedParams, PeOutcome};
use super::timed::{Timed, TimedPe};

/// One PE on the shared clock.
struct Pe {
    exec: PersistentExec,
    protocol: TimedPe,
    nic: Nic,
    /// Payload bytes posted.
    bytes: u64,
    /// Payloads in flight to this PE: (arrival, post order, bytes).
    inbound: MinQueue<(SimTime, u64, u64)>,
    /// Latest `sliceRdy` among its inbound slices.
    ready: SimTime,
}

impl Pe {
    fn next_event(&self) -> Option<SimTime> {
        let landing = self.inbound.peek().map(|&(at, ..)| at);
        landing.into_iter().chain(self.exec.next_event()).min()
    }
}

/// Runs the integrated co-simulation, producing the same outcome shape as
/// [`super::fused::simulate_fused`] (no trace is recorded here).
pub fn simulate_fused_integrated(params: &FusedParams) -> Vec<PeOutcome> {
    let (map, n_persistent) = params.shape();
    let table = map.table();
    let timed = Timed::new(&table, params.cfg.dim, params.tuning, &params.topo);
    let n_pes = params.cfg.n_pes;
    assert_eq!(
        timed.nics().count(),
        n_pes,
        "co-simulation models a NIC per PE"
    );

    let mut pes: Vec<Pe> = (0..n_pes)
        .map(|pe| {
            let mut exec = pe_exec(params, &map, pe, n_persistent);
            exec.start();
            Pe {
                exec,
                protocol: timed.pe(pe, false),
                nic: params.nic(),
                bytes: 0,
                inbound: MinQueue::new(),
                ready: SimTime::ZERO,
            }
        })
        .collect();

    let mut posted = 0;
    while let Some((now, pe)) = (0..n_pes)
        .filter_map(|pe| Some((pes[pe].next_event()?, pe)))
        .min()
    {
        let st = &mut pes[pe];
        if st.inbound.peek().is_some_and(|&(at, ..)| at == now) {
            let (_, _, bytes) = st.inbound.pop().expect("peeked");
            st.exec.insert(now, bytes as f64);
            continue;
        }
        // One step is one batch: the completions it steps may have
        // shipped slices, even when it ends on a landed inbound write.
        if st
            .exec
            .step(|c| timed.complete(&mut st.protocol, c))
            .is_some()
        {
            st.ready = st.ready.max(now); // an inbound write landed
        }
        for (issue, s) in std::mem::take(&mut st.protocol.puts) {
            let bytes = timed.payload_bytes(&s);
            let (payload, flag) = timed.publish(&mut pes[pe].nic, issue, &s);
            pes[pe].bytes += bytes;
            let dst = &mut pes[s.dst];
            dst.inbound.push((payload.arrival, posted, bytes));
            dst.ready = dst.ready.max(flag.arrival);
            posted += 1;
        }
    }

    pes.into_iter()
        .map(|st| {
            let exec = st.exec.finish();
            let body = exec.makespan.max(st.ready);
            PeOutcome {
                compute_end: exec.makespan,
                last_arrival: st.ready,
                total: params.gpu.kernel_launch_overhead + body + params.tuning.drain_poll,
                messages: st.nic.posted(),
                bytes: st.bytes,
                persistent_wgs: n_persistent,
                steals: exec.steals,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::fused::{simulate_fused, SkewSpec, WgSchedule};
    use fcc_dlrm::DlrmConfig;
    use fcc_gpu::config::GpuConfig;
    use fcc_net::{presets, FaultPlan};

    fn params(batch: usize, tables: usize) -> FusedParams {
        let mut cfg = DlrmConfig::hw_eval(2, batch, tables);
        cfg.pooling = 16;
        FusedParams {
            slice_embeddings: 8,
            ..FusedParams::new(cfg, GpuConfig::mi210(), presets::dual_node_ib())
        }
    }

    /// The dealt single-QP point, the same with stragglers under work
    /// stealing, and on four QPs per NIC.
    fn variants() -> [FusedParams; 3] {
        let base = params(64, 8);
        let stealing = FusedParams {
            wg_schedule: WgSchedule::Stealing { seed: 3 },
            skew: Some(SkewSpec::stragglers(0.2, 8.0, 11)),
            occupancy_cap: Some(16),
            ..base.clone()
        };
        let multi_qp = FusedParams {
            num_qps: 4,
            ..base.clone()
        };
        [base, stealing, multi_qp]
    }

    #[test]
    fn integrated_is_deterministic() {
        for p in variants() {
            assert_eq!(simulate_fused_integrated(&p), simulate_fused_integrated(&p));
        }
    }

    #[test]
    fn matches_decoupled_message_accounting_exactly() {
        for p in variants() {
            let integrated = simulate_fused_integrated(&p);
            let decoupled = simulate_fused(&p);
            for (i, d) in integrated.iter().zip(&decoupled.per_pe) {
                assert_eq!(i.messages, d.messages);
                assert_eq!(i.bytes, d.bytes);
                assert_eq!(i.persistent_wgs, d.persistent_wgs);
            }
        }
    }

    #[test]
    fn stealing_is_reported_from_the_executor() {
        let [_, stealing, _] = variants();
        let integrated = simulate_fused_integrated(&stealing);
        assert!(integrated.iter().any(|o| o.steals > 0), "{integrated:?}");
    }

    #[test]
    fn injected_drops_retransmit_and_delay_the_integrated_run() {
        let clean = params(64, 8);
        let faulty = FusedParams {
            faults: Some(FaultPlan::new(42).with_drop_rate(0.3)),
            ..clean.clone()
        };
        let run = simulate_fused_integrated(&faulty);
        assert_eq!(run, simulate_fused_integrated(&faulty));
        let clean = simulate_fused_integrated(&clean);
        let posted = |o: &[PeOutcome]| o.iter().map(|o| o.messages).sum::<u64>();
        assert!(posted(&run) > posted(&clean), "go-back-N retransmits");
        let end = |o: &[PeOutcome]| o.iter().map(|o| o.total).max();
        assert!(end(&run) > end(&clean), "retransmissions delay the drain");
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
}
