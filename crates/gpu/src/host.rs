//! Host-side execution structure: streams of kernel launches.
//!
//! The bulk-synchronous baseline the paper compares against launches one
//! kernel per embedding table (or a batched kernel), synchronizes, hands
//! control to the CPU to trigger RCCL, and launches dependent kernels
//! afterwards. The cost of that structure — launch overhead per kernel and
//! sync overhead per control transfer — is what the fused persistent kernel
//! eliminates. [`HostTimeline`] accumulates those costs explicitly.

use fcc_sim::SimTime;

use crate::config::GpuConfig;
use crate::exec::{run_kernel, KernelTiming};
use crate::kernel::KernelDesc;

/// A host-ordered sequence of device work with explicit overheads.
#[derive(Debug, Clone)]
pub struct HostTimeline<'g> {
    gpu: &'g GpuConfig,
    now: SimTime,
    phases: Vec<Phase>,
}

/// One accounted phase on the host timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    pub label: String,
    pub start: SimTime,
    pub end: SimTime,
    pub kind: PhaseKind,
}

/// What a phase represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseKind {
    /// Driver/dispatch overhead of a kernel launch.
    Launch,
    /// Device-side kernel execution.
    Kernel,
    /// Host-side stream synchronization (control transfer GPU→CPU).
    Sync,
    /// A communication interval (e.g. an RCCL collective) — duration is
    /// supplied by the network model.
    Communication,
}

impl<'g> HostTimeline<'g> {
    /// An empty timeline at t=0 on the given device.
    pub fn new(gpu: &'g GpuConfig) -> Self {
        HostTimeline {
            gpu,
            now: SimTime::ZERO,
            phases: Vec::new(),
        }
    }

    fn push(&mut self, label: impl Into<String>, kind: PhaseKind, duration: SimTime) {
        let start = self.now;
        self.now += duration;
        self.phases.push(Phase {
            label: label.into(),
            start,
            end: self.now,
            kind,
        });
    }

    /// Launches and executes `desc` (launch overhead + device time).
    /// Returns the device-side timing.
    pub fn launch_kernel(&mut self, desc: &KernelDesc, grid_cap: Option<u32>) -> KernelTiming {
        let timing = run_kernel(self.gpu, desc, grid_cap);
        self.launch_priced(desc, timing);
        timing
    }

    /// Launches `desc` whose device time `timing` is already priced: the
    /// phases of [`launch_kernel`](Self::launch_kernel), without running
    /// the kernel model again. [`run_kernel`] is pure in its inputs, so
    /// repeated identical launches share one timing.
    pub fn launch_priced(&mut self, desc: &KernelDesc, timing: KernelTiming) {
        self.push(
            format!("launch {}", desc.name),
            PhaseKind::Launch,
            self.gpu.kernel_launch_overhead,
        );
        self.push(desc.name.clone(), PhaseKind::Kernel, timing.duration);
    }

    /// Records a stream synchronization (GPU→CPU control transfer).
    pub fn sync(&mut self) {
        self.push(
            "stream sync",
            PhaseKind::Sync,
            self.gpu.stream_sync_overhead,
        );
    }

    /// Records a blocking communication interval of the given duration.
    pub fn communication(&mut self, label: impl Into<String>, duration: SimTime) {
        self.push(label, PhaseKind::Communication, duration);
    }

    /// Current end of the timeline.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// All phases in order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total time attributed to a phase kind.
    pub fn total(&self, kind: PhaseKind) -> SimTime {
        self.phases
            .iter()
            .filter(|p| p.kind == kind)
            .map(|p| p.end - p.start)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::KernelDesc;

    #[test]
    fn timeline_accumulates_phases_in_order() {
        let gpu = GpuConfig::mi210();
        let mut tl = HostTimeline::new(&gpu);
        let desc = KernelDesc::embedding_pooling("emb", 1024, 256, 32);
        tl.launch_kernel(&desc, None);
        tl.sync();
        tl.communication("all-to-all", SimTime::from_micros(500));

        assert_eq!(tl.phases().len(), 4);
        assert_eq!(tl.phases()[0].kind, PhaseKind::Launch);
        assert_eq!(tl.phases()[1].kind, PhaseKind::Kernel);
        assert_eq!(tl.phases()[2].kind, PhaseKind::Sync);
        assert_eq!(tl.phases()[3].kind, PhaseKind::Communication);
        // Phases are contiguous.
        for w in tl.phases().windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert_eq!(tl.now(), tl.phases().last().unwrap().end);
    }

    #[test]
    fn totals_by_kind() {
        let gpu = GpuConfig::mi210();
        let mut tl = HostTimeline::new(&gpu);
        let desc = KernelDesc::embedding_pooling("emb", 64, 256, 32);
        tl.launch_kernel(&desc, None);
        tl.launch_kernel(&desc, None);
        assert_eq!(
            tl.total(PhaseKind::Launch),
            SimTime::from_micros(12),
            "two launches at 6us each"
        );
        assert_eq!(tl.total(PhaseKind::Sync), SimTime::ZERO);
    }

    #[test]
    fn per_table_launches_cost_more_than_batched() {
        // The per-table baseline pays launch overhead per kernel; a single
        // batched kernel with the same total work pays it once. For small
        // batches the difference dominates — the paper's small-batch
        // observation.
        let gpu = GpuConfig::mi210();
        let tables = 64u64;
        let outputs_per_table = 32u64;

        let mut per_table = HostTimeline::new(&gpu);
        for _ in 0..tables {
            let desc = KernelDesc::embedding_pooling("emb", outputs_per_table, 256, 32);
            per_table.launch_kernel(&desc, None);
        }

        let mut batched = HostTimeline::new(&gpu);
        let desc = KernelDesc::embedding_pooling("emb", tables * outputs_per_table, 256, 32);
        batched.launch_kernel(&desc, None);

        assert!(per_table.now() > batched.now());
    }
}
