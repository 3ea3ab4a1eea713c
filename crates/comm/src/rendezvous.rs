//! Rendezvous: how a fleet of rank processes finds each other, proves
//! mutual compatibility, and agrees on a world roster — per epoch, so
//! consecutive epochs may open with *different* rosters (elastic grow /
//! shrink / mid-run death).
//!
//! # The flow
//!
//! 1. Every pool process dials the coordinator (pool id 0 — the
//!    launcher process, always world rank 0) and sends a
//!    [`Hello`] frame carrying its **pool id**,
//!    the world size it expects, the epoch counter, and the
//!    compatibility triple `(proto_version, endian, caps)`.
//! 2. Both sides run [`validate_peer`]: a version, endianness, or
//!    capability mismatch is rejected with a typed [`HandshakeError`]
//!    that names the offender and says what to fix — never a silent
//!    hang or a garbled frame later.
//! 3. The coordinator answers each Hello with a
//!    [`Roster`](crate::frame::FrameKind::Roster) frame: the epoch's
//!    member list, i.e. the `n` smallest **live** pool ids in order.
//!    Position in that list *is* the world rank. Pool processes beyond
//!    the roster are *observers*: they idle through the epoch and
//!    receive the outcome broadcast so the SPMD program stays replayed
//!    everywhere.
//! 4. Members mesh up pairwise (each dials every lower world rank at
//!    the endpoint owned by that rank's pool id) and the epoch runs.
//!
//! Because every process tracks the same dead-pool-id set (updated from
//! `Abort` broadcasts), the roster is a **pure function** —
//! [`roster_for`] — that all processes compute identically; the
//! coordinator's Roster frame is an authoritative echo that each worker
//! cross-checks against its local computation, turning divergence bugs
//! into immediate, named failures.
//!
//! # Elasticity semantics
//!
//! * **Join**: a `SimWorld` with a larger `nranks` between epochs makes
//!   the launcher spawn fresh processes; they replay earlier epochs
//!   in-process to reach the same program point, then dial in.
//! * **Leave / death**: a rank dying mid-epoch poisons its peers'
//!   mailboxes within milliseconds; the epoch aborts with an
//!   [`EpochError`](crate::EpochError) instead of killing the pool
//!   ([`SimWorld::try_run`](crate::SimWorld::try_run) returns it;
//!   `run` then tears the pool down and panics), the dead pool ids are
//!   broadcast, and the next epoch's roster simply omits them. The
//!   session layer then carries on via `Session::resize(p_new)`.
//! * **Limitations** (documented, enforced): the coordinator (pool
//!   id 0 / world rank 0) is not expendable — its death kills the
//!   fleet; and the pool cannot *grow* after a death, because a fresh
//!   process would have to replay the failed epoch, which is not
//!   reproducible in-process.
//!
//! # Multi-host launch
//!
//! The same handshake runs over TCP when `DSK_SOCKET_ADDR=ip:port` is
//! set (rank `r` listens on `port + r`); a hostfile parsed by
//! [`parse_hostfile`] supplies one `ip:port` endpoint per rank for
//! manual SPMD launches (`DSK_RANK=r` per process). See the crate-level
//! docs for a worked example.

use std::net::SocketAddr;

use crate::frame::{DecodeError, Hello};

/// The wire-protocol version this build speaks. Bumped whenever the
/// frame layout or the control-frame protocol changes incompatibly;
/// [`validate_peer`] refuses to mesh with any other version.
pub const PROTOCOL_VERSION: u32 = 1;

/// [`Hello::endian`] value for a little-endian sender.
pub const ENDIAN_LE: u8 = 1;
/// [`Hello::endian`] value for a big-endian sender.
pub const ENDIAN_BE: u8 = 2;

/// Capability bit: the sender charges words to per-phase statistics the
/// same way every other backend does (backend-invariant accounting).
pub const CAP_WORD_ACCOUNTING: u32 = 1 << 0;
/// Capability bit: the sender implements the sparse collectives
/// (`sparse_alltoallv` and friends) of the PR-6 comm surface.
pub const CAP_SPARSE_COLLECTIVES: u32 = 1 << 1;
/// Capability bit: the sender understands `Roster`/`Abort` frames and
/// the elastic-epoch verdict protocol.
pub const CAP_ELASTIC_EPOCHS: u32 = 1 << 2;

/// Capabilities every fleet member must advertise; [`validate_peer`]
/// rejects a Hello missing any of them.
pub const CAPS_REQUIRED: u32 = CAP_WORD_ACCOUNTING | CAP_SPARSE_COLLECTIVES | CAP_ELASTIC_EPOCHS;

/// This process's byte order as a [`Hello::endian`] value.
pub fn native_endian() -> u8 {
    if cfg!(target_endian = "big") {
        ENDIAN_BE
    } else {
        ENDIAN_LE
    }
}

/// The [`Hello`] this process sends: caller-provided identity plus this
/// build's compatibility triple.
pub fn local_hello(rank: u32, world_size: u32, epoch: u64, observer: bool) -> Hello {
    Hello {
        rank,
        world_size,
        epoch,
        observer,
        proto_version: PROTOCOL_VERSION,
        endian: native_endian(),
        caps: CAPS_REQUIRED,
    }
}

/// Why a peer's [`Hello`] was rejected during rendezvous. Every variant
/// names the offender and renders an actionable message — the operator
/// of a multi-host fleet sees *which* host to fix and *how*.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HandshakeError {
    /// The peer speaks a different wire-protocol version.
    VersionMismatch {
        /// The peer's rank (pool id as sent in its Hello).
        peer: u32,
        /// The version this process speaks ([`PROTOCOL_VERSION`]).
        ours: u32,
        /// The version the peer declared.
        theirs: u32,
    },
    /// The peer runs on a host with a different native byte order.
    EndianMismatch {
        /// The peer's rank.
        peer: u32,
        /// Our [`native_endian`] code.
        ours: u8,
        /// The peer's declared endianness code.
        theirs: u8,
    },
    /// The peer lacks required capability bits.
    MissingCapabilities {
        /// The peer's rank.
        peer: u32,
        /// The bits this build requires ([`CAPS_REQUIRED`]).
        required: u32,
        /// The bits the peer advertised.
        got: u32,
    },
}

impl std::fmt::Display for HandshakeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            HandshakeError::VersionMismatch { peer, ours, theirs } => write!(
                f,
                "rank {peer} speaks wire-protocol version {theirs} but this process speaks \
                 {ours}: every process of a fleet must run the same dsk-comm build — rebuild \
                 and relaunch the out-of-date side"
            ),
            HandshakeError::EndianMismatch { peer, ours, theirs } => write!(
                f,
                "rank {peer} declared byte-order code {theirs} but this host is {ours} \
                 (1 = little-endian, 2 = big-endian): mixed-endianness fleets are not \
                 supported — run every rank on same-endianness hosts"
            ),
            HandshakeError::MissingCapabilities {
                peer,
                required,
                got,
            } => write!(
                f,
                "rank {peer} is missing required capability bits {:#x} (required {required:#x}, \
                 got {got:#x}): the peer was built without a mandatory comm feature — upgrade \
                 its binary to this repository revision",
                required & !got
            ),
        }
    }
}

impl std::error::Error for HandshakeError {}

/// Validate a peer's [`Hello`] compatibility triple. Identity fields
/// (rank / world size / epoch) are the launcher's business; this checks
/// only whether the two builds can talk at all.
pub fn validate_peer(hello: &Hello) -> Result<(), HandshakeError> {
    if hello.proto_version != PROTOCOL_VERSION {
        return Err(HandshakeError::VersionMismatch {
            peer: hello.rank,
            ours: PROTOCOL_VERSION,
            theirs: hello.proto_version,
        });
    }
    if hello.endian != native_endian() {
        return Err(HandshakeError::EndianMismatch {
            peer: hello.rank,
            ours: native_endian(),
            theirs: hello.endian,
        });
    }
    if hello.caps & CAPS_REQUIRED != CAPS_REQUIRED {
        return Err(HandshakeError::MissingCapabilities {
            peer: hello.rank,
            required: CAPS_REQUIRED,
            got: hello.caps,
        });
    }
    Ok(())
}

/// Hard bound on roster payload size (member count); anything larger is
/// rejected at decode time so a corrupt frame cannot trigger an
/// unbounded allocation.
pub const MAX_ROSTER_MEMBERS: usize = 1 << 20;

/// An epoch's world roster: `members[w]` is the **pool id** serving
/// world rank `w`. Also reused as the `Abort` payload, where `members`
/// lists the *dead* pool ids instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Roster {
    /// The launcher epoch this roster (or abort) belongs to.
    pub epoch: u64,
    /// Pool ids in world-rank order (or, in an `Abort` payload, the
    /// dead pool ids in ascending order).
    pub members: Vec<u32>,
}

impl Roster {
    /// Serialize as a `Roster`/`Abort` frame payload.
    pub fn to_payload(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(12 + 4 * self.members.len());
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&(self.members.len() as u32).to_le_bytes());
        for m in &self.members {
            buf.extend_from_slice(&m.to_le_bytes());
        }
        buf
    }

    /// Parse a `Roster`/`Abort` frame payload. Every malformed input —
    /// truncation, trailing garbage, an absurd member count — yields a
    /// typed [`DecodeError`], never a panic or an unbounded allocation.
    pub fn from_payload(bytes: &[u8]) -> Result<Roster, DecodeError> {
        if bytes.len() < 12 {
            return Err(DecodeError::Truncated {
                missing: 12usize.saturating_sub(bytes.len()),
            });
        }
        let epoch = u64::from_le_bytes(bytes[0..8].try_into().unwrap());
        let count = u32::from_le_bytes(bytes[8..12].try_into().unwrap()) as usize;
        if count > MAX_ROSTER_MEMBERS {
            return Err(DecodeError::Oversized { len: count as u64 });
        }
        let want = 12 + 4 * count;
        if bytes.len() < want {
            return Err(DecodeError::Truncated {
                missing: want - bytes.len(),
            });
        }
        if bytes.len() > want {
            return Err(DecodeError::BadPadding([0, 0, 0]));
        }
        let members = (0..count)
            .map(|i| u32::from_le_bytes(bytes[12 + 4 * i..16 + 4 * i].try_into().unwrap()))
            .collect();
        Ok(Roster { epoch, members })
    }
}

/// The roster every process computes for an epoch: the `n` smallest
/// live pool ids, in order — position is world rank. Pure and
/// deterministic so the coordinator and every worker agree without
/// negotiation. Panics (with the shortfall) if fewer than `n` pool
/// processes are alive.
pub fn roster_for(epoch: u64, live_pool_ids: &[usize], n: usize) -> Roster {
    let mut live: Vec<usize> = live_pool_ids.to_vec();
    live.sort_unstable();
    live.dedup();
    assert!(
        live.len() >= n,
        "the socket pool has only {} live rank(s) but the world needs {n} — \
         a rank died and the program asked for a world the survivors cannot fill",
        live.len()
    );
    Roster {
        epoch,
        members: live[..n].iter().map(|&id| id as u32).collect(),
    }
}

/// Parse a hostfile: one `ip:port` endpoint per line (rank order),
/// `#` comments and blank lines skipped. Hostnames are deliberately not
/// resolved here — rendezvous code must stay free of DNS I/O — so
/// entries must be literal socket addresses.
pub fn parse_hostfile(text: &str) -> Result<Vec<SocketAddr>, String> {
    let mut out = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let addr: SocketAddr = line.parse().map_err(|e| {
            format!(
                "hostfile line {}: {line:?} is not an ip:port socket address ({e}); \
                 hostnames are not resolved — use a literal address like 10.0.0.3:7000",
                lineno + 1
            )
        })?;
        out.push(addr);
    }
    if out.is_empty() {
        return Err(
            "hostfile contains no endpoints (every line is blank or a comment)".to_string(),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compatible_hello_validates() {
        let h = local_hello(3, 8, 2, false);
        assert_eq!(validate_peer(&h), Ok(()));
    }

    /// Satellite (b): the version check is a *typed* rejection whose
    /// message names the peer and both versions.
    #[test]
    fn version_mismatch_is_typed_and_actionable() {
        let mut h = local_hello(5, 4, 0, false);
        h.proto_version = PROTOCOL_VERSION + 1;
        let err = validate_peer(&h).unwrap_err();
        assert_eq!(
            err,
            HandshakeError::VersionMismatch {
                peer: 5,
                ours: PROTOCOL_VERSION,
                theirs: PROTOCOL_VERSION + 1,
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("rank 5"), "{msg}");
        assert!(
            msg.contains(&format!("version {}", PROTOCOL_VERSION + 1)),
            "{msg}"
        );
        assert!(msg.contains("rebuild"), "{msg}");
    }

    #[test]
    fn endian_mismatch_is_typed_and_actionable() {
        let mut h = local_hello(2, 4, 0, false);
        h.endian = if native_endian() == ENDIAN_LE {
            ENDIAN_BE
        } else {
            ENDIAN_LE
        };
        let err = validate_peer(&h).unwrap_err();
        assert!(matches!(
            err,
            HandshakeError::EndianMismatch { peer: 2, .. }
        ));
        assert!(err.to_string().contains("same-endianness"), "{err}");
    }

    #[test]
    fn missing_capabilities_name_the_bits() {
        let mut h = local_hello(7, 4, 0, true);
        h.caps &= !CAP_ELASTIC_EPOCHS;
        let err = validate_peer(&h).unwrap_err();
        assert_eq!(
            err,
            HandshakeError::MissingCapabilities {
                peer: 7,
                required: CAPS_REQUIRED,
                got: CAPS_REQUIRED & !CAP_ELASTIC_EPOCHS,
            }
        );
        assert!(err.to_string().contains("0x4"), "{err}");
    }

    #[test]
    fn roster_roundtrips() {
        let r = Roster {
            epoch: 11,
            members: vec![0, 1, 3, 4],
        };
        assert_eq!(Roster::from_payload(&r.to_payload()).unwrap(), r);
        let empty = Roster {
            epoch: 0,
            members: vec![],
        };
        assert_eq!(Roster::from_payload(&empty.to_payload()).unwrap(), empty);
    }

    #[test]
    fn malformed_roster_payloads_are_typed_errors() {
        let good = Roster {
            epoch: 3,
            members: vec![0, 2],
        }
        .to_payload();
        // Truncations at every boundary.
        for cut in 0..good.len() {
            assert!(
                Roster::from_payload(&good[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
        // Trailing garbage.
        let mut long = good.clone();
        long.push(0);
        assert!(Roster::from_payload(&long).is_err());
        // An absurd member count must not allocate.
        let mut evil = 9u64.to_le_bytes().to_vec();
        evil.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Roster::from_payload(&evil),
            Err(DecodeError::Oversized { .. })
        ));
    }

    #[test]
    fn roster_for_picks_smallest_live_ids() {
        let r = roster_for(4, &[5, 0, 3, 1, 4], 3);
        assert_eq!(r.members, vec![0, 1, 3]);
        assert_eq!(r.epoch, 4);
    }

    #[test]
    #[should_panic(expected = "cannot fill")]
    fn roster_for_panics_when_survivors_cannot_fill_the_world() {
        let _ = roster_for(0, &[0, 1], 3);
    }

    #[test]
    fn hostfile_parses_and_rejects_actionably() {
        let good = "# fleet\n10.0.0.1:7000\n\n10.0.0.2:7000 # rank 1\n";
        let eps = parse_hostfile(good).unwrap();
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0], "10.0.0.1:7000".parse().unwrap());

        let err = parse_hostfile("node-a:7000\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("hostnames are not resolved"), "{err}");
        assert!(parse_hostfile("# nothing\n").is_err());
    }
}
