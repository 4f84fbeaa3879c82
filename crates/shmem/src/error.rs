//! Typed failures for deadline-aware SHMEM operations.
//!
//! The classic SHMEM API has no failure mode: `wait_until` spins forever
//! and a lost message hangs the job. The resilient operators instead use
//! the `*_timeout` variants ([`crate::PeCtx::wait_until_timeout`],
//! [`crate::PeCtx::quiet_timeout`]), which surface one of these errors so
//! callers can retry, degrade, or abort instead of spinning.

use std::fmt;
use std::time::Duration;

/// Why a deadline-aware SHMEM operation gave up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmemError {
    /// A flag wait timed out before its predicate held.
    WaitTimeout {
        /// The waiting PE.
        pe: usize,
        /// Index into the flag bank being watched.
        flag: usize,
        /// How long the waiter actually spun.
        waited: Duration,
        /// The flag's value at the moment of giving up — the key debugging
        /// datum: it tells you how far the remote writer got.
        last_value: u64,
    },
    /// `quiet` could not confirm completion of outstanding puts in time.
    QuietTimeout {
        /// The PE whose sends are still pending.
        pe: usize,
        /// The deadline that was exceeded.
        waited: Duration,
        /// Puts (or registered deferred deliveries) still outstanding at
        /// the moment of giving up.
        outstanding: u64,
    },
    /// The wire-integrity layer quarantined a delivery whose payload
    /// failed its per-put checksum; the destination PE observes it at the
    /// next `wait`/fence boundary and hands it to the recovery ladder.
    Corruption {
        /// The destination PE the corrupt payload was addressed to.
        pe: usize,
        /// Absolute destination address the payload never reached.
        addr: usize,
        /// Payload length in bytes.
        len: usize,
    },
    /// The lease-based failure detector declared a peer fail-stopped: its
    /// heartbeat counter did not advance for a whole lease window.
    PeerDead {
        /// The PE that issued the verdict.
        pe: usize,
        /// The peer declared dead.
        peer: usize,
        /// How long the peer's heartbeat had been silent.
        silent_for: Duration,
        /// The peer's last observed heartbeat count.
        last_beat: u64,
    },
}

impl fmt::Display for ShmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShmemError::WaitTimeout {
                pe,
                flag,
                waited,
                last_value,
            } => write!(
                f,
                "PE {pe}: wait on flag {flag} timed out after {waited:?} (last value {last_value})"
            ),
            ShmemError::QuietTimeout {
                pe,
                waited,
                outstanding,
            } => {
                write!(
                    f,
                    "PE {pe}: quiet timed out after {waited:?} ({outstanding} puts outstanding)"
                )
            }
            ShmemError::Corruption { pe, addr, len } => write!(
                f,
                "PE {pe}: corrupted payload quarantined at addr {addr:#x} ({len} bytes failed wire checksum)"
            ),
            ShmemError::PeerDead {
                pe,
                peer,
                silent_for,
                last_beat,
            } => write!(
                f,
                "PE {pe}: peer {peer} declared dead after {silent_for:?} of heartbeat silence (last beat {last_beat})"
            ),
        }
    }
}

impl std::error::Error for ShmemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let e = ShmemError::WaitTimeout {
            pe: 3,
            flag: 7,
            waited: Duration::from_millis(12),
            last_value: 41,
        };
        let s = e.to_string();
        assert!(
            s.contains("PE 3") && s.contains("flag 7") && s.contains("41"),
            "{s}"
        );
        let q = ShmemError::QuietTimeout {
            pe: 1,
            waited: Duration::from_micros(5),
            outstanding: 2,
        };
        assert!(q.to_string().contains("quiet timed out"));
        assert!(q.to_string().contains("2 puts"));
        let c = ShmemError::Corruption {
            pe: 2,
            addr: 0x40,
            len: 96,
        };
        let s = c.to_string();
        assert!(
            s.contains("PE 2") && s.contains("0x40") && s.contains("96 bytes"),
            "{s}"
        );
        let d = ShmemError::PeerDead {
            pe: 0,
            peer: 4,
            silent_for: Duration::from_millis(80),
            last_beat: 17,
        };
        let s = d.to_string();
        assert!(s.contains("peer 4") && s.contains("17"), "{s}");
    }
}
