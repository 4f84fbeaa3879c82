//! Elastic team membership: epochs, suspicion, and crash-safe rendezvous.
//!
//! The fused pipeline is built on full-team rendezvous (the sense-reversing
//! [`fcc_shmem::SenseBarrier`] counts **all** PEs), so one fail-stop crash
//! wedges every survivor. This module replaces those rendezvous points with
//! crash-tolerant equivalents built from symmetric flags:
//!
//! * [`TeamView`] — the agreed membership, identified by a monotone
//!   *suspect mask* (bit `p` set ⇒ PE `p` evicted). The epoch number is
//!   derived as `popcount(mask)`: it needs no separate agreement, cannot
//!   skew between survivors, and advances exactly once per eviction.
//! * [`RecoveryBoard`] — the flag banks of the membership protocol:
//!   heartbeats (lease detection), the suspect blackboard (replicated on
//!   every arena, merged with monotone `fetch_or`), the rendezvous slots,
//!   crash tombstones, and per-PE commit rounds.
//! * [`RecoveryBoard::reconfigure`] — the agreement protocol. It
//!   generalises the sense-reversing barrier: where `SenseBarrier` flips a
//!   boolean sense per generation, here the monotone suspect mask *is* the
//!   sense — a survivor passes the rendezvous for mask `S` only once every
//!   member it believes alive has published a mask covering `S`. A dead
//!   member can't wedge it: waits are leases, and a timeout turns into a
//!   probe → suspicion → wider mask → retry.
//!
//! Why the literal `SenseBarrier` cannot be reused directly: its arrival
//! counter targets a fixed `n_pes`, so a crashed PE leaves every survivor
//! spinning one arrival short, forever. The flag rendezvous below keeps the
//! generation-counting idea but makes each wait *supervised*.
//!
//! ### Tombstone fencing
//!
//! After agreement, survivors wait for each evicted PE's *tombstone* — the
//! last flag a crashing PE publishes before going silent. This models the
//! transport teardown acknowledgment of real elastic runtimes (NCCL
//! `commAbort`, libfabric endpoint close): before survivors reuse buffers
//! the dead PE was writing, the fabric confirms no more of its bytes are in
//! flight. In the functional runtime the tombstone's Release/Acquire edge
//! is what makes "the dead PE's half-written slices get overwritten by the
//! new owner" a well-defined overwrite instead of a data race.

use std::time::{Duration, Instant};

use fcc_shmem::heap::HeapLayout;
use fcc_shmem::{FailureDetector, HeartbeatBoard, PeCtx, ShmemError, SymFlags, Verdict};

/// An agreed membership: `n_pes` original ranks minus the suspect set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeamView {
    n_pes: usize,
    suspects: u64,
}

impl TeamView {
    /// The founding team: all `n_pes` ranks, nobody suspected.
    pub fn founding(n_pes: usize) -> TeamView {
        assert!(
            (1..=64).contains(&n_pes),
            "suspect mask is a u64: need 1..=64 PEs, got {n_pes}"
        );
        TeamView { n_pes, suspects: 0 }
    }

    /// The view with suspect mask `suspects` over `n_pes` original ranks.
    pub fn with_suspects(n_pes: usize, suspects: u64) -> TeamView {
        let mut view = TeamView::founding(n_pes);
        view.suspects = suspects & view.full_mask();
        view
    }

    fn full_mask(&self) -> u64 {
        if self.n_pes == 64 {
            u64::MAX
        } else {
            (1u64 << self.n_pes) - 1
        }
    }

    /// The original team size (dead ranks included).
    pub fn n_pes(&self) -> usize {
        self.n_pes
    }

    /// The membership epoch: number of evictions so far. Derived from the
    /// mask, so two survivors that agree on the mask agree on the epoch —
    /// even if one of them processed several evictions in a single
    /// reconfiguration.
    pub fn epoch(&self) -> u32 {
        self.suspects.count_ones()
    }

    /// Whether rank `pe` is a live member.
    pub fn contains(&self, pe: usize) -> bool {
        pe < self.n_pes && self.suspects & (1 << pe) == 0
    }

    /// Live members, ascending rank.
    pub fn members(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n_pes).filter(move |&pe| self.contains(pe))
    }

    /// Number of live members.
    pub fn len(&self) -> usize {
        self.n_pes - self.epoch() as usize
    }

    /// Whether everyone is dead (an aborted run, not a reachable state for
    /// a surviving caller).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The dense survivor rank of `pe` (position among live members), or
    /// `None` if evicted.
    pub fn rank_of(&self, pe: usize) -> Option<usize> {
        if !self.contains(pe) {
            return None;
        }
        let below = self.suspects & ((1u64 << pe) - 1);
        Some(pe - below.count_ones() as usize)
    }
}

/// Flag banks backing failure detection, membership agreement, and the
/// crash-tolerant commit rendezvous.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryBoard {
    /// Heartbeat counters (lease detection).
    pub beats: HeartbeatBoard,
    /// Suspect blackboard: one word per arena, merged with `fetch_or`.
    suspects: SymFlags,
    /// Rendezvous slot: the newest mask this PE has *agreed* to, on its
    /// own arena, read remotely by peers.
    rdv: SymFlags,
    /// Tombstone: set to 1 by a crashing PE as its final act.
    tombstone: SymFlags,
    /// Commit rounds: slot `q` on every arena holds the newest round PE
    /// `q` committed (broadcast by `q`).
    commit: SymFlags,
    n_pes: usize,
}

/// How long a survivor waits for an evicted PE's tombstone before
/// declaring the fault model itself violated (a *live* PE was evicted —
/// the detector's lease is too tight for the host). Deliberately generous:
/// in a correct run the tombstone is always already set when this wait
/// starts, because detection lags death by at least one lease.
const TOMBSTONE_PATIENCE: Duration = Duration::from_secs(30);

impl RecoveryBoard {
    /// Collectively allocates all banks for an `n_pes` team.
    pub fn plan(layout: &mut HeapLayout, n_pes: usize) -> RecoveryBoard {
        assert!(
            (1..=64).contains(&n_pes),
            "suspect mask is a u64: need 1..=64 PEs, got {n_pes}"
        );
        RecoveryBoard {
            beats: HeartbeatBoard::plan(layout, n_pes),
            suspects: layout.alloc_flags(1),
            rdv: layout.alloc_flags(1),
            tombstone: layout.alloc_flags(1),
            commit: layout.alloc_flags(n_pes),
            n_pes,
        }
    }

    /// This PE's current suspect mask (its own blackboard word).
    fn my_suspects(&self, ctx: &PeCtx<'_>) -> u64 {
        ctx.flag_load(self.suspects, 0, ctx.me())
    }

    /// Accuses `peer`: ORs its bit into **every** arena's blackboard —
    /// dead arenas included; they keep serving as passive memory, which is
    /// what lets the agreement check below treat all arenas uniformly.
    pub fn suspect(&self, ctx: &PeCtx<'_>, peer: usize) {
        self.broadcast_suspects(ctx, 1u64 << peer);
    }

    fn broadcast_suspects(&self, ctx: &PeCtx<'_>, bits: u64) {
        for pe in 0..self.n_pes {
            ctx.flag_fetch_or(self.suspects, 0, bits, pe);
        }
    }

    /// A crashing PE's final act: raise the tombstone on its own arena.
    /// The Release store publishes every write the PE made before dying,
    /// so a survivor that has Acquire-read the tombstone can safely
    /// overwrite the dead PE's partial output.
    pub fn die(&self, ctx: &PeCtx<'_>) {
        ctx.flag_store(self.tombstone, 0, 1, ctx.me());
        // The raise itself is the PE's legal final act; anything this PE
        // issues after this point is a protocol violation fcc-check's
        // post-tombstone-write invariant reports.
        ctx.record_tombstone();
    }

    /// Probes `peer` and, on a dead verdict, converts it into the typed
    /// [`ShmemError::PeerDead`]. Callers only invoke this for peers they
    /// are actually blocked on.
    pub fn watch(
        &self,
        ctx: &PeCtx<'_>,
        detector: &FailureDetector,
        peer: usize,
    ) -> Result<(), ShmemError> {
        match detector.probe(ctx, &self.beats, peer) {
            Verdict::Alive => Ok(()),
            Verdict::Dead {
                silent_for,
                last_beat,
            } => Err(ShmemError::PeerDead {
                pe: ctx.me(),
                peer,
                silent_for,
                last_beat,
            }),
        }
    }

    /// Broadcasts "I committed `round`" into slot `me` of every arena.
    /// Rounds are strictly monotone, so stale values never satisfy a
    /// newer wait.
    pub fn announce_commit(&self, ctx: &PeCtx<'_>, round: u64) {
        for pe in 0..self.n_pes {
            ctx.flag_store(self.commit, ctx.me(), round, pe);
        }
    }

    /// Waits until every member of `view` has committed a round `≥ round`,
    /// probing a laggard once per `tick`. Fails with `PeerDead` the moment
    /// any awaited member's lease expires.
    pub fn await_commits(
        &self,
        ctx: &PeCtx<'_>,
        detector: &FailureDetector,
        view: &TeamView,
        round: u64,
        tick: Duration,
    ) -> Result<(), ShmemError> {
        for peer in view.members() {
            let mut last_probe = Instant::now();
            loop {
                if ctx.flag_load(self.commit, peer, ctx.me()) >= round {
                    break;
                }
                self.beats.beat(ctx);
                if last_probe.elapsed() >= tick {
                    self.watch(ctx, detector, peer)?;
                    last_probe = Instant::now();
                }
                std::hint::spin_loop();
            }
        }
        Ok(())
    }

    /// Runs the membership agreement protocol and returns the new view.
    ///
    /// The caller has already [`suspect`](Self::suspect)ed whoever it
    /// caught dead. The protocol then:
    ///
    /// 1. re-broadcasts this PE's mask so every arena converges to the
    ///    union of all accusations;
    /// 2. spins until **all** arenas (dead ones included — survivors keep
    ///    them updated remotely) show exactly this mask, merging any
    ///    larger mask it encounters;
    /// 3. rendezvouses: publishes the mask in its `rdv` slot and waits
    ///    until every presumed-live member's `rdv` covers it, probing
    ///    laggards — a laggard that died mid-agreement becomes a new
    ///    suspect and the protocol restarts with the wider mask;
    /// 4. fences each evicted PE's tombstone, creating the happens-before
    ///    edge that makes the dead PE's memory safe to reuse;
    /// 5. re-checks its own blackboard: if an accusation landed during the
    ///    rendezvous, restart — nobody exits with a mask another survivor
    ///    has already widened past.
    ///
    /// Termination: the mask is a monotone value in a finite lattice and
    /// every restart strictly widens it, so at most 64 restarts.
    pub fn reconfigure(
        &self,
        ctx: &PeCtx<'_>,
        detector: &FailureDetector,
        tick: Duration,
    ) -> TeamView {
        let me = ctx.me();
        'restart: loop {
            let mine = self.my_suspects(ctx);
            self.broadcast_suspects(ctx, mine);

            // Converge every arena onto `mine` (or discover it's stale).
            for pe in 0..self.n_pes {
                loop {
                    let theirs = ctx.flag_load(self.suspects, 0, pe);
                    if theirs & !mine != 0 {
                        // Someone knows more: adopt and restart wider.
                        ctx.flag_fetch_or(self.suspects, 0, theirs, me);
                        continue 'restart;
                    }
                    if theirs == mine {
                        break;
                    }
                    // They lag; our broadcast is in flight. Keep beating so
                    // peers blocked on *us* don't suspect us meanwhile.
                    self.beats.beat(ctx);
                    std::hint::spin_loop();
                }
            }

            // Rendezvous among the members this mask presumes alive.
            ctx.flag_store(self.rdv, 0, mine, me);
            let view = TeamView::with_suspects(self.n_pes, mine);
            for peer in view.members() {
                let mut last_probe = Instant::now();
                loop {
                    let theirs = ctx.flag_load(self.rdv, 0, peer);
                    if theirs & mine == mine {
                        break;
                    }
                    self.beats.beat(ctx);
                    if last_probe.elapsed() >= tick && self.watch(ctx, detector, peer).is_err() {
                        // Died mid-agreement: widen and start over.
                        self.suspect(ctx, peer);
                        continue 'restart;
                    }
                    if last_probe.elapsed() >= tick {
                        last_probe = Instant::now();
                    }
                    std::hint::spin_loop();
                }
            }

            // Tombstone fence over every evicted PE.
            for pe in 0..self.n_pes {
                if mine & (1 << pe) != 0 {
                    let start = Instant::now();
                    while ctx.flag_load(self.tombstone, 0, pe) == 0 {
                        self.beats.beat(ctx);
                        assert!(
                            start.elapsed() < TOMBSTONE_PATIENCE,
                            "PE {me}: evicted PE {pe} never published a tombstone — \
                             a live PE was falsely evicted (lease too tight?)"
                        );
                        std::hint::spin_loop();
                    }
                }
            }

            // An accusation may have landed during the rendezvous; exiting
            // with a mask a peer has already widened past would split the
            // team, so go around once more.
            if self.my_suspects(ctx) != mine {
                continue 'restart;
            }
            return view;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fcc_shmem::ShmemWorld;

    #[test]
    fn team_view_ranks_and_epochs() {
        let full = TeamView::founding(8);
        assert_eq!(full.epoch(), 0);
        assert_eq!(full.len(), 8);
        assert_eq!(full.rank_of(5), Some(5));

        let view = TeamView::with_suspects(8, 0b0010_0100); // 2 and 5 dead
        assert_eq!(view.epoch(), 2);
        assert_eq!(view.len(), 6);
        assert!(!view.contains(2));
        assert!(!view.contains(5));
        assert_eq!(view.members().collect::<Vec<_>>(), vec![0, 1, 3, 4, 6, 7]);
        assert_eq!(view.rank_of(0), Some(0));
        assert_eq!(view.rank_of(3), Some(2));
        assert_eq!(view.rank_of(7), Some(5));
        assert_eq!(view.rank_of(2), None);
    }

    #[test]
    fn out_of_range_suspect_bits_are_masked_off() {
        let view = TeamView::with_suspects(4, !0u64);
        assert_eq!(view.suspects, 0b1111);
        assert!(view.is_empty());
    }

    #[test]
    fn survivors_agree_on_membership_after_a_crash() {
        let n = 4;
        let dead = 2usize;
        let mut layout = HeapLayout::new();
        let board = RecoveryBoard::plan(&mut layout, n);
        let world = ShmemWorld::new(n, layout);

        let views = world.run_collect(|ctx| {
            let detector = FailureDetector::new(n, Duration::from_millis(40));
            if ctx.me() == dead {
                board.die(ctx);
                return None;
            }
            // Each survivor independently discovers the death by probing
            // until the lease expires, then accuses and reconfigures.
            loop {
                board.beats.beat(ctx);
                if board.watch(ctx, &detector, dead).is_err() {
                    break;
                }
                std::thread::yield_now();
            }
            board.suspect(ctx, dead);
            Some(board.reconfigure(ctx, &detector, Duration::from_millis(5)))
        });

        let expect = TeamView::with_suspects(n, 1 << dead);
        for (pe, view) in views.iter().enumerate() {
            if pe == dead {
                assert!(view.is_none());
            } else {
                assert_eq!(view.unwrap(), expect, "PE {pe} disagreed");
            }
        }
        assert_eq!(expect.epoch(), 1);
    }

    #[test]
    fn concurrent_accusations_converge_to_the_union() {
        // Two PEs die; each survivor initially accuses a *different* one.
        let n = 6;
        let mut layout = HeapLayout::new();
        let board = RecoveryBoard::plan(&mut layout, n);
        let world = ShmemWorld::new(n, layout);

        let views = world.run_collect(|ctx| {
            let detector = FailureDetector::new(n, Duration::from_millis(40));
            let me = ctx.me();
            if me == 1 || me == 4 {
                board.die(ctx);
                return None;
            }
            // Survivors split their initial accusation.
            let first = if me % 2 == 0 { 1 } else { 4 };
            loop {
                board.beats.beat(ctx);
                if board.watch(ctx, &detector, first).is_err() {
                    break;
                }
                std::thread::yield_now();
            }
            board.suspect(ctx, first);
            // The other death is only learned through the protocol: the
            // rendezvous stalls on the second dead PE, the probe fires,
            // and the mask widens.
            Some(board.reconfigure(ctx, &detector, Duration::from_millis(5)))
        });

        let expect = TeamView::with_suspects(n, (1 << 1) | (1 << 4));
        for (pe, view) in views.iter().enumerate() {
            match view {
                None => assert!(pe == 1 || pe == 4),
                Some(v) => assert_eq!(*v, expect, "PE {pe} disagreed"),
            }
        }
        assert_eq!(expect.epoch(), 2);
        assert_eq!(expect.members().collect::<Vec<_>>(), vec![0, 2, 3, 5]);
    }

    #[test]
    fn commit_rendezvous_tracks_rounds() {
        let n = 3;
        let mut layout = HeapLayout::new();
        let board = RecoveryBoard::plan(&mut layout, n);
        let world = ShmemWorld::new(n, layout);

        world.run(|ctx| {
            let detector = FailureDetector::new(n, Duration::from_secs(5));
            let view = TeamView::founding(n);
            for round in 1..=3u64 {
                board.announce_commit(ctx, round);
                board
                    .await_commits(ctx, &detector, &view, round, Duration::from_millis(5))
                    .expect("all PEs are live");
            }
        });
    }
}
