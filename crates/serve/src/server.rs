//! The serving event loop: continuous batching under the admission
//! ladder.
//!
//! [`serve`] replays an open-loop workload against one executor on a
//! virtual-µs timeline. Each iteration either admits arrivals, waits for
//! the next close trigger, or closes a batch and runs it; service times
//! come from the executor, so with a [`ModelExecutor`] the whole run is
//! bit-deterministic and with a [`FusedExecutor`] the latencies are real
//! measured fused executions. The ladder, in the order a request can meet
//! it:
//!
//! 1. **Bounded admission** — a full queue answers `Shed(QueueFull)` at
//!    arrival (backpressure), it does not buffer hope.
//! 2. **Pre-execution budget shed** — at batch close, any request whose
//!    remaining budget is below the measured execution floor is shed
//!    (`HopelessBudget`) *before* consuming pipeline capacity. A close
//!    that sheds its whole queue this way although no victim ever had a
//!    floor of budget runs one empty probe execution instead of a batch,
//!    so a floor estimate above the SLO corrects itself.
//! 3. **Priority-aware overload shed** — while the degrade ladder is
//!    engaged, backlog beyond `overload_backlog_factor` batches is shed
//!    (`Overload`), lowest priority first, seeded tie-break.
//! 4. **Late-completion conversion** — a batch that finishes past a
//!    member's deadline sheds that member (`LateCompletion`) instead of
//!    claiming success.
//!
//! Every decision lands in the [`ServeEvent`] log, so
//! [`check_serve_trace`](crate::trace::check_serve_trace) can audit the
//! exactly-one-outcome promise after the fact.
//!
//! [`ModelExecutor`]: crate::exec::ModelExecutor
//! [`FusedExecutor`]: crate::exec::FusedExecutor

use fcc_sim::SimTime;
use fcc_telemetry::{FlightKind, FlowPhase, SeriesSet, Telemetry, TraceCtx, TrackId};

use crate::batch::{close_decision, BatchPolicy, CloseDecision, CloseTrigger};
use crate::degrade::{DegradeController, DegradeLevel};
use crate::exec::BatchExecutor;
use crate::queue::AdmissionQueue;
use crate::request::{Outcome, Request, Response, ShedReason};
use crate::shed::select_victims;
use crate::trace::ServeEvent;

/// Process lane the serving loop's trace records land in.
const SERVE_PID: u32 = 9_000;
/// Thread lane carrying request-lifecycle flow bindings.
const TID_REQUESTS: u32 = 1;
/// Thread lane carrying batch execution spans.
const TID_BATCHES: u32 = 2;
/// Window width of the serving time-series buckets, µs of timeline.
const SERIES_BUCKET_US: u64 = 1_000;

/// The serving timeline's virtual µs on the shared trace clock.
fn us(v: u64) -> SimTime {
    SimTime::from_micros(v)
}

/// Serving configuration: queue bound, batching policy, shed seed, and
/// the degrade controller.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Admission-queue capacity (rung 1 of the ladder).
    pub queue_capacity: usize,
    /// Batch-close policy.
    pub batch: BatchPolicy,
    /// Seed for the deterministic shed tie-break.
    pub seed: u64,
    /// While degraded, backlog is capped at this many target batches;
    /// the excess is shed priority-aware.
    pub overload_backlog_factor: usize,
    /// The saturation-driven degrade ladder.
    pub degrade: DegradeController,
}

impl ServerConfig {
    /// A configuration with the serving-default degrade window.
    pub fn new(queue_capacity: usize, batch: BatchPolicy, seed: u64) -> ServerConfig {
        ServerConfig {
            queue_capacity,
            batch,
            seed,
            overload_backlog_factor: 2,
            degrade: DegradeController::serving_default(),
        }
    }
}

/// One executed batch, as the report records it. `min_remaining_us >=
/// floor_us` on every record is the batch-close boundary invariant the
/// proptests pin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchRecord {
    /// Dense batch counter, 1-based.
    pub batch: u64,
    /// Close time, µs.
    pub close_at_us: u64,
    /// What fired the close.
    pub trigger: CloseTrigger,
    /// Requests executed.
    pub size: usize,
    /// Execution-floor estimate at close, µs.
    pub floor_us: u64,
    /// Smallest remaining budget across members at close, µs.
    pub min_remaining_us: u64,
    /// Budget handed to the executor (the tightest member's), µs.
    pub budget_us: u64,
    /// Measured/modeled service time, µs.
    pub service_us: u64,
    /// Degrade level the batch ran at.
    pub level: DegradeLevel,
}

/// Everything one serving run produced.
#[derive(Debug, Clone, Default)]
pub struct ServeReport {
    /// Terminal outcome per request, in decision order.
    pub responses: Vec<Response>,
    /// The full decision log.
    pub events: Vec<ServeEvent>,
    /// Per-batch records.
    pub batches: Vec<BatchRecord>,
    /// Requests admitted past the queue bound.
    pub admitted: u64,
    /// `Shed(QueueFull)` at arrival.
    pub rejected: u64,
    /// Completed within deadline.
    pub completed: u64,
    /// `Shed(HopelessBudget)` at close.
    pub shed_hopeless: u64,
    /// `Shed(Overload)` under saturation.
    pub shed_overload: u64,
    /// `Shed(LateCompletion)` after execution.
    pub shed_late: u64,
    /// Degrade transitions as `(batch tick, level)`.
    pub degrade_transitions: Vec<(u64, DegradeLevel)>,
    /// Serving-timeline position when the last outcome was decided, µs.
    pub end_us: u64,
    /// Sorted completion latencies, µs (admitted *and* completed only).
    latencies_us: Vec<u64>,
}

impl ServeReport {
    /// Sheds across all reasons.
    pub fn shed_total(&self) -> u64 {
        self.rejected + self.shed_hopeless + self.shed_overload + self.shed_late
    }

    /// Exact quantile of completed-request latency, µs; 0 when nothing
    /// completed.
    pub fn latency_quantile_us(&self, q: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let rank = (q * self.latencies_us.len() as f64).ceil().max(1.0) as usize;
        self.latencies_us[rank.min(self.latencies_us.len()) - 1]
    }

    /// Median completed latency, µs.
    pub fn p50_us(&self) -> u64 {
        self.latency_quantile_us(0.50)
    }

    /// 99th-percentile completed latency, µs.
    pub fn p99_us(&self) -> u64 {
        self.latency_quantile_us(0.99)
    }

    /// 99.9th-percentile completed latency, µs.
    pub fn p999_us(&self) -> u64 {
        self.latency_quantile_us(0.999)
    }

    /// Completed requests per second of timeline.
    pub fn goodput_rps(&self) -> f64 {
        if self.end_us == 0 {
            return 0.0;
        }
        self.completed as f64 * 1e6 / self.end_us as f64
    }
}

struct Recorder<'t> {
    report: ServeReport,
    shed_counters: [fcc_telemetry::Counter; 4],
    admitted_c: fcc_telemetry::Counter,
    completed_c: fcc_telemetry::Counter,
    latency_h: fcc_telemetry::HistogramHandle,
    telemetry: &'t Telemetry,
}

impl<'t> Recorder<'t> {
    fn new(telemetry: &'t Telemetry, max_slo_us: u64) -> Recorder<'t> {
        let reasons = [
            ShedReason::QueueFull,
            ShedReason::HopelessBudget,
            ShedReason::Overload,
            ShedReason::LateCompletion,
        ];
        let shed_counters = reasons.map(|r| {
            telemetry
                .registry
                .counter("serve.shed", &[("reason", r.label())])
        });
        Recorder {
            report: ServeReport::default(),
            shed_counters,
            admitted_c: telemetry.registry.counter("serve.admitted", &[]),
            completed_c: telemetry.registry.counter("serve.completed", &[]),
            latency_h: telemetry.registry.histogram(
                "serve.latency_us",
                &[],
                0.0,
                (4 * max_slo_us.max(250)) as f64,
                256,
            ),
            telemetry,
        }
    }

    fn shed(&mut self, req: &Request, at_us: u64, reason: ShedReason) {
        self.report.events.push(ServeEvent::Shed {
            id: req.id,
            at_us,
            reason,
        });
        self.report.responses.push(Response {
            id: req.id,
            outcome: Outcome::Shed { reason },
        });
        let ctx = TraceCtx::request(req.id);
        self.telemetry.trace.flow(
            TrackId::new(SERVE_PID, TID_REQUESTS),
            "request",
            us(at_us),
            ctx.bits(),
            FlowPhase::End,
        );
        self.telemetry
            .flight
            .record(FlightKind::Shed, ctx, req.id, reason as u64);
        let slot = match reason {
            ShedReason::QueueFull => {
                self.report.rejected += 1;
                0
            }
            ShedReason::HopelessBudget => {
                self.report.shed_hopeless += 1;
                1
            }
            ShedReason::Overload => {
                self.report.shed_overload += 1;
                2
            }
            ShedReason::LateCompletion => {
                self.report.shed_late += 1;
                3
            }
        };
        self.shed_counters[slot].inc();
        self.report.end_us = self.report.end_us.max(at_us);
    }

    fn complete(&mut self, req: &Request, at_us: u64) {
        let latency_us = at_us - req.arrival_us;
        self.report.events.push(ServeEvent::Complete {
            id: req.id,
            at_us,
            latency_us,
        });
        self.report.responses.push(Response {
            id: req.id,
            outcome: Outcome::Completed { latency_us },
        });
        self.telemetry.trace.flow(
            TrackId::new(SERVE_PID, TID_REQUESTS),
            "request",
            us(at_us),
            TraceCtx::request(req.id).bits(),
            FlowPhase::End,
        );
        self.report.completed += 1;
        self.completed_c.inc();
        self.latency_h.observe(latency_us as f64);
        self.report.latencies_us.push(latency_us);
        self.report.end_us = self.report.end_us.max(at_us);
    }
}

/// Serves `workload` (arrival-sorted) through `executor` under `cfg`.
///
/// Instrumentation lands in `telemetry` (`serve.admitted`,
/// `serve.completed`, `serve.shed{reason=…}`, `serve.latency_us`,
/// `serve.queue_depth`, `serve.degrade_level`, `serve.exec_floor_us`);
/// pass [`Telemetry::disabled`] to opt out at zero cost.
///
/// # Panics
/// Panics if `workload` is not sorted by arrival time.
pub fn serve(
    mut cfg: ServerConfig,
    executor: &mut dyn BatchExecutor,
    workload: &[Request],
    telemetry: &Telemetry,
) -> ServeReport {
    assert!(
        workload
            .windows(2)
            .all(|w| w[0].arrival_us <= w[1].arrival_us),
        "workload must be arrival-sorted"
    );
    let max_slo = workload
        .iter()
        .map(|r| r.deadline_us - r.arrival_us)
        .max()
        .unwrap_or(0);
    let mut rec = Recorder::new(telemetry, max_slo);
    let req_track = TrackId::new(SERVE_PID, TID_REQUESTS);
    let batch_track = TrackId::new(SERVE_PID, TID_BATCHES);
    if telemetry.trace.is_enabled() {
        telemetry.trace.name_process(SERVE_PID, "serve");
        telemetry
            .trace
            .name_thread(SERVE_PID, TID_REQUESTS, "requests");
        telemetry
            .trace
            .name_thread(SERVE_PID, TID_BATCHES, "batches");
    }
    let series = SeriesSet::new(us(SERIES_BUCKET_US));
    let mut shed_seen = 0u64;
    let queue_g = telemetry.registry.gauge("serve.queue_depth", &[]);
    let level_g = telemetry.registry.gauge("serve.degrade_level", &[]);
    let floor_g = telemetry.registry.gauge("serve.exec_floor_us", &[]);
    let batch_h = telemetry.registry.histogram(
        "serve.batch_size",
        &[],
        0.0,
        cfg.batch.target_batch as f64 + 1.0,
        32,
    );

    let mut queue = AdmissionQueue::new(cfg.queue_capacity);
    let mut now = 0u64;
    let mut i = 0usize;
    let mut batch_id = 0u64;

    while i < workload.len() || !queue.is_empty() {
        if queue.is_empty() {
            // Idle: jump to the next arrival.
            now = now.max(workload[i].arrival_us);
        }
        // Admit everything that has arrived by `now`. Arrivals that land
        // mid-execution are admitted here, stamped at their true arrival.
        while i < workload.len() && workload[i].arrival_us <= now {
            let req = workload[i];
            i += 1;
            rec.report.events.push(ServeEvent::Arrival {
                id: req.id,
                at_us: req.arrival_us,
                deadline_us: req.deadline_us,
            });
            telemetry.trace.flow(
                req_track,
                "request",
                us(req.arrival_us),
                TraceCtx::request(req.id).bits(),
                FlowPhase::Start,
            );
            match queue.try_admit(req) {
                Ok(()) => {
                    rec.report.events.push(ServeEvent::Admit {
                        id: req.id,
                        at_us: req.arrival_us,
                    });
                    telemetry.trace.flow(
                        req_track,
                        "request",
                        us(req.arrival_us),
                        TraceCtx::request(req.id).bits(),
                        FlowPhase::Step,
                    );
                    rec.report.admitted += 1;
                    rec.admitted_c.inc();
                }
                Err(bounced) => rec.shed(&bounced, bounced.arrival_us, ShedReason::QueueFull),
            }
        }
        queue_g.set(queue.len() as f64);
        if queue.is_empty() {
            continue;
        }

        let floor = executor.floor_us();
        let trigger = match close_decision(&queue, now, floor, &cfg.batch, cfg.degrade.level()) {
            CloseDecision::WaitUntil(t) => {
                // Advance to whichever comes first: the close bound or an
                // arrival that might change the decision.
                now = match workload.get(i) {
                    Some(next) if next.arrival_us <= t => next.arrival_us,
                    _ => t,
                };
                continue;
            }
            CloseDecision::Now(trigger) => trigger,
        };

        batch_id += 1;

        // Control tick: one observation per batch close. The saturation
        // signal is queue depth *at close*, before this batch's members
        // leave the queue — sampling after extraction would understate a
        // full queue by exactly one batch and the ladder would never see
        // saturation. A transition takes effect for this very batch.
        let lvl_before = cfg.degrade.level();
        let level = cfg.degrade.observe(queue.occupancy());
        if level != lvl_before {
            rec.report
                .events
                .push(ServeEvent::Degrade { at_us: now, level });
        }
        level_g.set(level.rung() as f64);

        // Rung 2: shed requests whose remaining budget is below the
        // measured floor — executing them cannot possibly succeed.
        let hopeless = queue.drain_failing(|r| r.remaining_us(now) >= floor);
        // A floor above a request's whole SLO is an estimate gone wrong,
        // not load: nothing such a floor admits ever executes, so nothing
        // would correct it. When this close shed everything it held and
        // every victim was infeasible on arrival, run one empty probe
        // execution in the batch's place to re-measure the floor.
        let probe = queue.is_empty()
            && !hopeless.is_empty()
            && hopeless
                .iter()
                .all(|r| r.deadline_us - r.arrival_us < floor);
        for req in hopeless {
            rec.shed(&req, now, ShedReason::HopelessBudget);
        }
        if probe {
            now += executor.execute(&[], u64::MAX, level).service_us;
            floor_g.set(executor.floor_us() as f64);
        }
        if queue.is_empty() {
            continue;
        }

        // Batch membership is priority-aware with the seeded tie-break;
        // the rest goes back to the queue in order.
        let take = cfg.batch.target_batch.min(queue.len());
        let waiting = queue.drain_failing(|_| false);
        let (batch, mut rest) = select_victims(waiting, take, cfg.seed ^ batch_id);

        // Rung 3: while degraded, cap the backlog and shed the excess,
        // lowest priority first.
        if level != DegradeLevel::Normal {
            let cap = cfg.batch.target_batch * cfg.overload_backlog_factor;
            let (kept, victims) = select_victims(rest, cap, cfg.seed ^ batch_id ^ 0x5EED);
            rest = kept;
            for req in victims {
                rec.shed(&req, now, ShedReason::Overload);
            }
        }
        for req in rest {
            queue
                .try_admit(req)
                .expect("re-admission cannot exceed prior occupancy");
        }

        // Execute with the tightest member's budget; by construction
        // every member still has at least `floor` of budget.
        let min_remaining = batch
            .iter()
            .map(|r| r.remaining_us(now))
            .min()
            .expect("non-empty batch");
        rec.report.events.push(ServeEvent::BatchClose {
            batch: batch_id,
            at_us: now,
            size: batch.len(),
            trigger,
        });
        // Causal joins: each member's request flow steps through the
        // close, and the batch opens its own flow whose id downstream
        // slice PUTs extend (the FusedExecutor installs it as ambient).
        let bctx = TraceCtx::step(batch_id);
        for req in &batch {
            telemetry.trace.flow(
                req_track,
                "request",
                us(now),
                TraceCtx::request(req.id).bits(),
                FlowPhase::Step,
            );
        }
        telemetry
            .trace
            .flow(batch_track, "batch", us(now), bctx.bits(), FlowPhase::Start);
        telemetry
            .flight
            .record(FlightKind::BatchClose, bctx, batch_id, batch.len() as u64);
        batch_h.observe(batch.len() as f64);
        let exec = executor.execute_ctx(&batch, min_remaining, level, bctx);
        rec.report.batches.push(BatchRecord {
            batch: batch_id,
            close_at_us: now,
            trigger,
            size: batch.len(),
            floor_us: floor,
            min_remaining_us: min_remaining,
            budget_us: min_remaining,
            service_us: exec.service_us,
            level,
        });

        // Rung 4: completions after a member's deadline become sheds —
        // the exactly-one-outcome promise includes the truth about late
        // work.
        let completion = now + exec.service_us;
        telemetry.trace.span(
            batch_track,
            &format!("batch {batch_id}"),
            us(now),
            us(completion),
            Some(bctx.bits()),
        );
        if !exec.within_budget {
            telemetry
                .flight
                .record(FlightKind::SloBreach, bctx, min_remaining, exec.service_us);
        }
        for req in &batch {
            if completion <= req.deadline_us {
                rec.complete(req, completion);
            } else {
                rec.shed(req, completion, ShedReason::LateCompletion);
            }
        }
        now = completion;
        floor_g.set(executor.floor_us() as f64);

        // One control-plane time-series observation per batch close.
        if telemetry.trace.is_enabled() {
            series.sample("serve.queue_depth", us(completion), queue.len() as f64);
            series.sample("serve.degrade_level", us(completion), level.rung() as f64);
            series.sample("serve.exec_floor_us", us(completion), floor as f64);
            series.sample("serve.batch_size", us(completion), batch.len() as f64);
            let shed_now = rec.report.shed_total();
            series.sample("serve.shed", us(completion), (shed_now - shed_seen) as f64);
            shed_seen = shed_now;
        }
    }

    series.export_into(&telemetry.trace, SERVE_PID);
    rec.report.degrade_transitions = cfg.degrade.transitions().to_vec();
    rec.report.latencies_us.sort_unstable();
    rec.report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{ExecReport, ModelExecutor};
    use crate::loadgen::{LoadPattern, LoadSpec};
    use crate::request::Priority;
    use crate::trace::check_serve_trace;

    fn policy() -> BatchPolicy {
        BatchPolicy {
            target_batch: 32,
            max_wait_us: 2_000,
            close_margin_us: 100,
        }
    }

    fn spec(rps: f64, pattern: LoadPattern) -> LoadSpec {
        LoadSpec {
            seed: 0xC0FFEE,
            rps,
            duration_us: 2_000_000,
            slo_us: 20_000,
            pattern,
        }
    }

    fn run(rps: f64, pattern: LoadPattern) -> ServeReport {
        let workload = spec(rps, pattern).generate();
        let mut exec = ModelExecutor::default_model();
        serve(
            ServerConfig::new(256, policy(), 42),
            &mut exec,
            &workload,
            &Telemetry::disabled(),
        )
    }

    #[test]
    fn nominal_load_completes_nearly_everything() {
        // Capacity at batch 32 / ~456µs is ~70k rps; 2k rps is idle.
        let report = run(2_000.0, LoadPattern::Poisson);
        assert!(report.completed > 0);
        let shed_frac =
            report.shed_total() as f64 / (report.completed + report.shed_total()) as f64;
        assert!(shed_frac < 0.01, "nominal shed fraction {shed_frac}");
        check_serve_trace(&report.events).expect("clean trace");
    }

    #[test]
    fn every_request_gets_exactly_one_outcome_under_overload() {
        let workload = spec(
            20_000.0,
            LoadPattern::FlashCrowd {
                at_us: 500_000,
                len_us: 1_000_000,
                multiplier: 8.0,
            },
        )
        .generate();
        let n = workload.len();
        let mut exec = ModelExecutor::default_model();
        let report = serve(
            ServerConfig::new(128, policy(), 42),
            &mut exec,
            &workload,
            &Telemetry::disabled(),
        );
        assert_eq!(report.responses.len(), n, "one response per request");
        let stats = check_serve_trace(&report.events).expect("clean trace under overload");
        assert_eq!(stats.arrivals, n as u64);
        assert_eq!(stats.completed + stats.shed, n as u64);
        assert!(report.shed_total() > 0, "8x overload must shed");
    }

    #[test]
    fn deterministic_given_seed_and_model_executor() {
        let a = run(30_000.0, LoadPattern::Poisson);
        let b = run(30_000.0, LoadPattern::Poisson);
        assert_eq!(a.responses, b.responses);
        assert_eq!(a.events, b.events);
        assert_eq!(a.batches, b.batches);
    }

    #[test]
    fn batch_members_always_have_floor_of_budget() {
        let report = run(40_000.0, LoadPattern::Poisson);
        for b in &report.batches {
            assert!(
                b.min_remaining_us >= b.floor_us,
                "batch {} admitted a hopeless request: remaining {} < floor {}",
                b.batch,
                b.min_remaining_us,
                b.floor_us
            );
        }
    }

    /// Service time is fixed; the floor is an EWMA that starts wherever
    /// the test puts it. Counts the empty (probe) executions it is asked
    /// for.
    struct ScriptedExecutor {
        service_us: u64,
        floor_us: u64,
        probes: u64,
    }

    impl BatchExecutor for ScriptedExecutor {
        fn execute(&mut self, batch: &[Request], budget_us: u64, _: DegradeLevel) -> ExecReport {
            self.probes += batch.is_empty() as u64;
            self.floor_us = (self.floor_us * 3 + self.service_us) / 4;
            ExecReport {
                service_us: self.service_us,
                within_budget: self.service_us <= budget_us,
            }
        }

        fn floor_us(&self) -> u64 {
            self.floor_us
        }
    }

    #[test]
    fn floor_above_the_slo_recovers_through_probe_executions() {
        let s = spec(2_000.0, LoadPattern::Poisson);
        let workload = s.generate();
        let mut exec = ScriptedExecutor {
            service_us: s.slo_us / 10,
            floor_us: 2 * s.slo_us,
            probes: 0,
        };
        let report = serve(
            ServerConfig::new(256, policy(), 42),
            &mut exec,
            &workload,
            &Telemetry::disabled(),
        );
        assert!(!report.batches.is_empty(), "the floor must recover");
        // 40 ms decays below the 20 ms SLO in three quarter-steps toward
        // 2 ms; every hopeless shed belongs to a close before that.
        assert!((1..=3).contains(&exec.probes), "probes {}", exec.probes);
        let first_batch = report.batches[0].close_at_us;
        let last_hopeless = report
            .events
            .iter()
            .filter_map(|e| match e {
                ServeEvent::Shed {
                    at_us,
                    reason: ShedReason::HopelessBudget,
                    ..
                } => Some(*at_us),
                _ => None,
            })
            .max()
            .expect("the bad floor sheds a prefix");
        assert!(last_hopeless <= first_batch, "sheds outlive the recovery");
        assert!(report.completed > report.shed_total());
        for b in &report.batches {
            assert!(b.min_remaining_us >= b.floor_us);
        }
        check_serve_trace(&report.events).expect("clean trace");
    }

    #[test]
    fn honest_floor_never_probes() {
        // 3x capacity on an SLO of two executions: queueing alone makes
        // requests hopeless, none is infeasible on arrival.
        let mut s = spec(200_000.0, LoadPattern::Poisson);
        s.slo_us = 1_000;
        let workload = s.generate();
        let mut exec = ScriptedExecutor {
            service_us: 456,
            floor_us: 456,
            probes: 0,
        };
        let report = serve(
            ServerConfig::new(256, policy(), 42),
            &mut exec,
            &workload,
            &Telemetry::disabled(),
        );
        assert!(report.shed_hopeless > 0, "overload must shed as hopeless");
        assert_eq!(exec.probes, 0);
    }

    #[test]
    fn overload_engages_ladder_and_sheds_low_priority_first() {
        // Saturating load: model capacity at batch 32 is ~70k rps.
        let report = run(200_000.0, LoadPattern::Poisson);
        assert!(
            !report.degrade_transitions.is_empty(),
            "sustained 3x capacity must engage the ladder"
        );
        assert!(report.shed_total() > 0);
        // Among overload sheds, Low must outnumber High.
        let shed_ids: std::collections::BTreeSet<u64> = report
            .events
            .iter()
            .filter_map(|e| match e {
                ServeEvent::Shed {
                    id,
                    reason: ShedReason::Overload,
                    ..
                } => Some(*id),
                _ => None,
            })
            .collect();
        if !shed_ids.is_empty() {
            let workload = spec(200_000.0, LoadPattern::Poisson).generate();
            let by_pr = |p: Priority| {
                workload
                    .iter()
                    .filter(|r| shed_ids.contains(&r.id) && r.priority == p)
                    .count()
            };
            assert!(
                by_pr(Priority::Low) >= by_pr(Priority::High),
                "priority inversion in overload shedding"
            );
        }
    }

    #[test]
    fn unsorted_workload_is_rejected() {
        let reqs = vec![
            Request {
                id: 0,
                user: 0,
                arrival_us: 10,
                deadline_us: 100,
                priority: Priority::Normal,
            },
            Request {
                id: 1,
                user: 1,
                arrival_us: 5,
                deadline_us: 100,
                priority: Priority::Normal,
            },
        ];
        let mut exec = ModelExecutor::default_model();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            serve(
                ServerConfig::new(8, policy(), 1),
                &mut exec,
                &reqs,
                &Telemetry::disabled(),
            )
        }));
        assert!(result.is_err());
    }

    #[test]
    fn trace_flows_validate_and_cover_every_request() {
        // 3x capacity: both completed and shed requests appear, so both
        // flow-chain endings are exercised.
        let mut s = spec(200_000.0, LoadPattern::Poisson);
        s.duration_us = 200_000;
        let workload = s.generate();
        let telemetry = Telemetry::enabled();
        let mut exec = ModelExecutor::default_model();
        let report = serve(
            ServerConfig::new(128, policy(), 7),
            &mut exec,
            &workload,
            &telemetry,
        );
        assert!(report.completed > 0 && report.shed_total() > 0);
        let json = fcc_telemetry::export_chrome_trace(&telemetry.trace.data());
        let check = fcc_telemetry::check_chrome_trace(&json).expect("structurally valid trace");
        // One flow chain per request (arrival→outcome) plus one per batch.
        assert_eq!(check.flows, workload.len() + report.batches.len());
        assert!(check.counters > 0, "series lanes must export");
        assert!(check.tracks.iter().any(|t| t == "serve/serve.queue_depth"));
        // Every batch executed under its own step context in the flight
        // ring (bounded, so only the most recent survive — but some must).
        let kinds: Vec<_> = telemetry
            .flight
            .snapshot()
            .into_iter()
            .map(|e| e.kind)
            .collect();
        assert!(kinds.contains(&fcc_telemetry::FlightKind::BatchClose));
        assert!(kinds.contains(&fcc_telemetry::FlightKind::Shed));
    }

    #[test]
    fn telemetry_counters_match_report() {
        let workload = spec(50_000.0, LoadPattern::Poisson).generate();
        let telemetry = Telemetry::enabled();
        let mut exec = ModelExecutor::default_model();
        let report = serve(
            ServerConfig::new(128, policy(), 7),
            &mut exec,
            &workload,
            &telemetry,
        );
        let snap = telemetry.registry.snapshot();
        assert_eq!(snap.counter("serve.admitted", &[]), Some(report.admitted));
        assert_eq!(snap.counter("serve.completed", &[]), Some(report.completed));
        assert_eq!(snap.counter_total("serve.shed"), report.shed_total());
        let lat = snap.histogram("serve.latency_us", &[]).unwrap();
        assert_eq!(lat.count, report.completed);
    }
}
