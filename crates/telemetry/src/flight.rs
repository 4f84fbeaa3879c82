//! Always-on lock-free flight recorder: the last N events, allocation-free.
//!
//! The recorder is a bounded multi-producer ring of fixed slots. Writers
//! claim a ticket with one `fetch_add`, write the payload with relaxed
//! stores, and publish with a release store of the sequence number —
//! no locks, no allocation, wait-free per record. Old events are simply
//! overwritten; the ring always holds the most recent window, which is
//! exactly what a post-mortem needs.
//!
//! Like every telemetry handle, a disabled recorder is an `Option::None`
//! and each record path is a single branch (asserted by the counting-
//! allocator test in `tests/recorder_alloc.rs` and the throughput bench).
//!
//! Dumping is the slow path: the panic hook
//! ([`FlightRecorder::install_panic_hook`]) snapshots the ring (skipping
//! torn slots via a seqlock-style re-read) and writes one
//! Perfetto-loadable Chrome trace. A one-shot latch makes the first
//! trigger win, so racing panics do not stomp each other's artifact.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use fcc_sim::time::SimTime;

use crate::chrome::export_chrome_trace;
use crate::ctx::TraceCtx;
use crate::trace::{TraceSink, TrackId};

/// What a flight-recorder event describes. The discriminant is stored
/// raw in the slot, so variants must keep their values stable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum FlightKind {
    /// Unrecognized discriminant read back from a slot.
    Unknown = 0,
    /// A network PUT issued (`a` = dst, `b` = bytes).
    NetPut = 1,
    /// A flag publication (`a` = dst, `b` = cell).
    FlagPub = 2,
    /// A recovery retry (`a` = dst, `b` = attempt).
    Retry = 3,
    /// A slice delivery timeout (`a` = src, `b` = slice).
    Timeout = 4,
    /// Degraded-mode transition (`a` = level).
    Degrade = 5,
    /// Fallback to the bulk path (`a` = round).
    Fallback = 6,
    /// Corruption detected (`a` = src, `b` = slice).
    Corruption = 7,
    /// Integrity quarantine tripped (`a` = pe, `b` = poisoned count).
    Quarantine = 8,
    /// A serving request shed (`a` = rung, `b` = request id).
    Shed = 9,
    /// A serving batch closed (`a` = batch id, `b` = size).
    BatchClose = 10,
    /// A training step / execution started (`a` = step).
    StepStart = 11,
    /// An SLO breach observed (`a` = observed µs, `b` = budget µs).
    SloBreach = 12,
}

impl FlightKind {
    fn from_u64(v: u64) -> FlightKind {
        match v {
            1 => FlightKind::NetPut,
            2 => FlightKind::FlagPub,
            3 => FlightKind::Retry,
            4 => FlightKind::Timeout,
            5 => FlightKind::Degrade,
            6 => FlightKind::Fallback,
            7 => FlightKind::Corruption,
            8 => FlightKind::Quarantine,
            9 => FlightKind::Shed,
            10 => FlightKind::BatchClose,
            11 => FlightKind::StepStart,
            12 => FlightKind::SloBreach,
            _ => FlightKind::Unknown,
        }
    }

    /// Lane name in the dumped trace.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::Unknown => "unknown",
            FlightKind::NetPut => "net_put",
            FlightKind::FlagPub => "flag_pub",
            FlightKind::Retry => "retry",
            FlightKind::Timeout => "timeout",
            FlightKind::Degrade => "degrade",
            FlightKind::Fallback => "fallback",
            FlightKind::Corruption => "corruption",
            FlightKind::Quarantine => "quarantine",
            FlightKind::Shed => "shed",
            FlightKind::BatchClose => "batch_close",
            FlightKind::StepStart => "step_start",
            FlightKind::SloBreach => "slo_breach",
        }
    }
}

/// One decoded event read back out of the ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlightEvent {
    /// Global record ordinal (monotone across the run).
    pub seq: u64,
    /// Wall nanoseconds since the recorder was created.
    pub at_ns: u64,
    /// Originating causal context.
    pub ctx: TraceCtx,
    /// Event kind.
    pub kind: FlightKind,
    /// Kind-specific payload (see [`FlightKind`] docs).
    pub a: u64,
    /// Kind-specific payload.
    pub b: u64,
}

/// One ring slot. `seq == 0` means never written; otherwise `seq` is the
/// writer's ticket + 1, published with release ordering after the payload.
struct Slot {
    seq: AtomicU64,
    at_ns: AtomicU64,
    ctx: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

struct Inner {
    head: AtomicU64,
    slots: Box<[Slot]>,
    epoch: Instant,
    dumped: AtomicBool,
    /// Reason + path of the dump that won the latch, for diagnostics.
    dump_info: Mutex<Option<(String, PathBuf)>>,
}

/// Process lane the dumped flight events land on.
const FLIGHT_PID: u32 = 9_900;

/// Bounded lock-free event ring. `Default` is disabled.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<Inner>>,
}

impl FlightRecorder {
    /// A recording ring holding the `capacity` most recent events
    /// (rounded up to a power of two, minimum 64).
    pub fn enabled(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(64).next_power_of_two();
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                at_ns: AtomicU64::new(0),
                ctx: AtomicU64::new(0),
                kind: AtomicU64::new(0),
                a: AtomicU64::new(0),
                b: AtomicU64::new(0),
            })
            .collect();
        FlightRecorder {
            inner: Some(Arc::new(Inner {
                head: AtomicU64::new(0),
                slots,
                epoch: Instant::now(),
                dumped: AtomicBool::new(false),
                dump_info: Mutex::new(None),
            })),
        }
    }

    /// The no-op recorder: `record` is one branch on a `None`.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder::default()
    }

    /// Whether events are being kept.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event. Lock-free, allocation-free, wait-free: a ticket
    /// `fetch_add`, five relaxed stores, one release store.
    #[inline]
    pub fn record(&self, kind: FlightKind, ctx: TraceCtx, a: u64, b: u64) {
        let Some(inner) = &self.inner else { return };
        let ticket = inner.head.fetch_add(1, Ordering::Relaxed);
        let slot = &inner.slots[(ticket as usize) & (inner.slots.len() - 1)];
        let at = inner.epoch.elapsed().as_nanos() as u64;
        // Invalidate, write payload, publish. A reader that observes the
        // final seq with both reads agreeing saw a consistent payload.
        slot.seq.store(0, Ordering::Release);
        slot.at_ns.store(at, Ordering::Relaxed);
        slot.ctx.store(ctx.bits(), Ordering::Relaxed);
        slot.kind.store(kind as u64, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(ticket + 1, Ordering::Release);
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.head.load(Ordering::Relaxed))
    }

    /// Decodes the ring's current window, oldest first. Slots caught
    /// mid-write (torn) are skipped — a post-mortem window may drop an
    /// event under races, never invent one.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(inner.slots.len());
        for slot in inner.slots.iter() {
            let seq1 = slot.seq.load(Ordering::Acquire);
            if seq1 == 0 {
                continue;
            }
            let ev = FlightEvent {
                seq: seq1 - 1,
                at_ns: slot.at_ns.load(Ordering::Relaxed),
                ctx: TraceCtx::from_bits(slot.ctx.load(Ordering::Relaxed)),
                kind: FlightKind::from_u64(slot.kind.load(Ordering::Relaxed)),
                a: slot.a.load(Ordering::Relaxed),
                b: slot.b.load(Ordering::Relaxed),
            };
            // Seqlock validation: a concurrent overwrite bumped or zeroed
            // the sequence — the payload may be torn, skip it.
            if slot.seq.load(Ordering::Acquire) != seq1 {
                continue;
            }
            out.push(ev);
        }
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Renders the current window as a Perfetto-loadable Chrome trace.
    /// Events become instants on one lane per [`FlightKind`].
    fn to_chrome_trace(&self) -> String {
        let events = self.snapshot();
        let sink = TraceSink::enabled();
        sink.name_process(FLIGHT_PID, "flight");
        for e in &events {
            let tid = e.kind as u32;
            sink.name_thread(FLIGHT_PID, tid, e.kind.name());
            sink.instant(
                TrackId::new(FLIGHT_PID, tid),
                &format!("{} [{}]", e.kind.name(), e.ctx),
                SimTime::from_nanos(e.at_ns),
                Some(e.a),
            );
        }
        export_chrome_trace(&sink.data())
    }

    /// Dumps the window to `dir/flight_<reason>.json` once per recorder:
    /// the first trigger wins the latch, later triggers are no-ops
    /// returning the original artifact path. Returns `None` when disabled
    /// or the write failed.
    fn dump_to(&self, dir: &Path, reason: &str) -> Option<PathBuf> {
        let inner = self.inner.as_ref()?;
        if inner.dumped.swap(true, Ordering::SeqCst) {
            return inner
                .dump_info
                .lock()
                .ok()
                .and_then(|g| g.as_ref().map(|(_, p)| p.clone()));
        }
        let safe: String = reason
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        let path = dir.join(format!("flight_{safe}.json"));
        let trace = self.to_chrome_trace();
        if std::fs::create_dir_all(dir).is_err() || std::fs::write(&path, trace).is_err() {
            return None;
        }
        if let Ok(mut g) = inner.dump_info.lock() {
            *g = Some((reason.to_string(), path.clone()));
        }
        eprintln!("flight recorder: dumped {} ({reason})", path.display());
        Some(path)
    }

    /// Installs a panic hook that dumps this recorder's window to `dir`
    /// before delegating to the previous hook. The recorder clone lives
    /// for the process; install once per process.
    pub fn install_panic_hook(&self, dir: PathBuf) {
        if !self.is_enabled() {
            return;
        }
        let recorder = self.clone();
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            recorder.dump_to(&dir, "panic");
            previous(info);
        }));
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FlightRecorder(enabled={}, recorded={})",
            self.is_enabled(),
            self.recorded()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = FlightRecorder::disabled();
        r.record(FlightKind::NetPut, TraceCtx::step(1), 0, 64);
        assert_eq!(r.recorded(), 0);
        assert!(r.snapshot().is_empty());
        assert!(r.dump_to(Path::new("/tmp"), "x").is_none());
    }

    #[test]
    fn ring_keeps_the_most_recent_window() {
        let r = FlightRecorder::enabled(64);
        for i in 0..200u64 {
            r.record(FlightKind::NetPut, TraceCtx::step(1).with_slice(i), i, 0);
        }
        let snap = r.snapshot();
        assert_eq!(snap.len(), 64);
        assert_eq!(r.recorded(), 200);
        // Oldest-first, and only the newest 64 survive.
        assert_eq!(snap.first().unwrap().seq, 136);
        assert_eq!(snap.last().unwrap().seq, 199);
        assert_eq!(snap.last().unwrap().ctx, TraceCtx::step(1).with_slice(199));
    }

    #[test]
    fn concurrent_writers_never_corrupt_the_window() {
        let r = FlightRecorder::enabled(128);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let r = r.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        r.record(FlightKind::FlagPub, TraceCtx::step(t), t, i);
                    }
                });
            }
        });
        assert_eq!(r.recorded(), 4000);
        let snap = r.snapshot();
        assert!(!snap.is_empty() && snap.len() <= 128);
        for e in &snap {
            assert_eq!(e.kind, FlightKind::FlagPub);
            assert!(e.a < 4 && e.b < 1000);
        }
    }

    #[test]
    fn dump_latch_makes_the_first_trigger_win() {
        let dir = std::env::temp_dir().join(format!("fcc_flight_test_{}", std::process::id()));
        let r = FlightRecorder::enabled(64);
        r.record(FlightKind::Quarantine, TraceCtx::request(9), 0, 1);
        let first = r.dump_to(&dir, "integrity quarantine").expect("dump");
        let second = r.dump_to(&dir, "panic").expect("latched path");
        assert_eq!(first, second, "second trigger must not write a new file");
        let text = std::fs::read_to_string(&first).expect("artifact readable");
        let report = crate::check_chrome_trace(&text).expect("artifact is a valid trace");
        assert!(report.events > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn panic_hook_dumps_the_window_before_unwinding() {
        let dir = std::env::temp_dir().join(format!("fcc_flight_hook_{}", std::process::id()));
        let r = FlightRecorder::enabled(64);
        r.record(FlightKind::NetPut, TraceCtx::step(4).with_slice(7), 1, 64);
        r.install_panic_hook(dir.clone());
        // Any panic in the process now dumps the window; the latch means
        // a sibling test's intentional panic racing us is harmless.
        let caught = std::panic::catch_unwind(|| panic!("induced failure"));
        assert!(caught.is_err());
        let text =
            std::fs::read_to_string(dir.join("flight_panic.json")).expect("artifact written");
        let report = crate::check_chrome_trace(&text).expect("artifact is a valid trace");
        assert!(report.events > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dumped_trace_validates_with_one_lane_per_kind() {
        let r = FlightRecorder::enabled(64);
        r.record(FlightKind::Shed, TraceCtx::request(3), 2, 3);
        r.record(FlightKind::BatchClose, TraceCtx::step(1), 1, 32);
        let trace = r.to_chrome_trace();
        let report = crate::check_chrome_trace(&trace).expect("valid");
        assert!(report.tracks.iter().any(|t| t == "flight/shed"));
    }
}
