//! The per-rank communicator handle: point-to-point messaging, phase
//! accounting, compute metering, and communicator splitting.
//!
//! A [`Comm`] is what a distributed algorithm receives instead of an MPI
//! communicator. All traffic it generates is charged to the rank's
//! [`RankStats`] under the currently active [`Phase`], using the world's
//! [`MachineModel`] for modeled time. The physical realization of each
//! message is delegated to the world's
//! [`CommBackend`]: under the in-process
//! backend values move by ownership, under the wire backend they are
//! encoded through [`WirePayload`] — algorithm code cannot tell the
//! difference, and word accounting (hence modeled time) is identical
//! under both.
//!
//! # Non-blocking completion contract
//!
//! Beyond the blocking calls, a rank may start transfers and complete
//! them later: [`Comm::send_nb`] returns a [`SendHandle`] (buffered
//! sends complete at post time — the mailbox is unbounded, exactly like
//! an eager-protocol MPI send), and [`Comm::recv_begin`] /
//! [`Comm::shift_begin`] return a [`RecvHandle`] with `poll`/`wait`.
//! The contract, enforced at runtime:
//!
//! * **Ordering** — delivery is FIFO per `(src, context, tag)` key, and
//!   handles on one key must be awaited **in posting order**. An
//!   out-of-order `wait` would silently steal an earlier handle's
//!   message, so it panics instead; `poll` simply reports "not ready"
//!   until it is the handle's turn.
//! * **Completion is mandatory** — dropping a [`RecvHandle`] that was
//!   never awaited is a panic, not a silent leak: the matching message
//!   would rot in the mailbox and fail the world's end-of-run drain
//!   check far from the bug. (During an unwind the check stands down so
//!   the original panic surfaces.)
//! * **Failure** — a rank blocked in [`RecvHandle::wait`] when a peer
//!   dies observes the poisoned-mailbox error within milliseconds, just
//!   like a blocking receive; the receive watchdog is a last resort for
//!   mismatched communication patterns, not the failure path.
//! * **Accounting** — a standalone `recv_begin` + `wait` charges
//!   `α + β·w` exactly like [`Comm::recv`]; a [`Comm::shift_begin`]
//!   charges the send at post and `α + β·max(w_out, w_in)` at `wait`,
//!   so the modeled totals of a pipelined shift are byte-identical to
//!   the blocking [`Comm::shift`] it replaces. Wall time spent blocked
//!   inside `wait` is additionally recorded as per-phase *stall* time —
//!   the part of the transfer that pipelining failed to hide.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use std::sync::Mutex;

use crate::backend::{CommBackend, Parcel};
use crate::model::MachineModel;
use crate::payload::WirePayload;
use crate::stats::{Phase, RankStats};
use crate::trace::{self, ArgVal, TraceKind};

/// Reserved tag base for internal collective operations; user tags must be
/// below this value.
pub const COLLECTIVE_TAG_BASE: u32 = 0xFFFF_0000;

/// Shared per-rank state: the stats ledger and the wall-clock anchor used
/// to partition real time across phases.
pub(crate) struct RankShared {
    pub(crate) stats: Mutex<RankStats>,
    pub(crate) wall_anchor: Mutex<Instant>,
}

impl RankShared {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(RankShared {
            stats: Mutex::new(RankStats::default()),
            wall_anchor: Mutex::new(Instant::now()),
        })
    }
}

/// A communicator: a named, ordered group of ranks with its own isolated
/// tag space. Cheap to clone; clones share the rank's statistics ledger.
pub struct Comm {
    backend: Arc<dyn CommBackend>,
    /// Cached `backend.serializes()` — consulted on every message.
    wire: bool,
    /// Cached `backend.frame_overhead()` — per-message transport bytes
    /// beyond the encoded payload (socket frame headers).
    frame_overhead: u64,
    model: MachineModel,
    shared: Arc<RankShared>,
    /// Global (world) ranks of the members, indexed by communicator rank.
    members: Arc<Vec<usize>>,
    /// This rank's position within `members`.
    rank: usize,
    /// Context id isolating this communicator's messages from others.
    context: u64,
    /// Number of splits performed on this communicator so far (must
    /// advance identically on all members).
    split_seq: Cell<u64>,
    /// Per-`(src comm rank, tag)` ticket counters for non-blocking
    /// receives: (posted, completed). Enforces the in-posting-order
    /// completion contract of [`RecvHandle`].
    nb_recv_seq: RefCell<HashMap<(usize, u32), (u64, u64)>>,
}

impl Comm {
    /// Construct the world communicator for `global_rank`. Used by
    /// [`SimWorld`](crate::SimWorld); algorithms obtain sub-communicators
    /// via [`Comm::split_by`].
    pub(crate) fn world(
        backend: Arc<dyn CommBackend>,
        model: MachineModel,
        shared: Arc<RankShared>,
        global_rank: usize,
    ) -> Self {
        let n = backend.nranks();
        let wire = backend.serializes();
        let frame_overhead = backend.frame_overhead();
        Comm {
            backend,
            wire,
            frame_overhead,
            model,
            shared,
            members: Arc::new((0..n).collect()),
            rank: global_rank,
            context: 0x9E37_79B9_7F4A_7C15,
            split_seq: Cell::new(0),
            nb_recv_seq: RefCell::new(HashMap::new()),
        }
    }

    /// Rank of this process within this communicator.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in this communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Global (world) rank of the member with communicator rank `r`.
    #[inline]
    pub fn global_rank_of(&self, r: usize) -> usize {
        self.members[r]
    }

    /// This process's global (world) rank.
    #[inline]
    pub fn my_global_rank(&self) -> usize {
        self.members[self.rank]
    }

    /// The machine model used for time accounting.
    #[inline]
    pub fn model(&self) -> &MachineModel {
        &self.model
    }

    /// Diagnostic label of the transport backend carrying this
    /// communicator's messages.
    #[inline]
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    // ------------------------------------------------------------------
    // Phase and statistics management
    // ------------------------------------------------------------------

    /// Flush wall-clock time since the last transition into the currently
    /// active phase and reset the anchor.
    fn flush_wall(&self) {
        let mut anchor = self.shared.wall_anchor.lock().unwrap();
        let now = Instant::now();
        let elapsed = now.duration_since(*anchor).as_secs_f64();
        *anchor = now;
        let mut stats = self.shared.stats.lock().unwrap();
        let cur = stats.current_phase();
        stats.record_wall(cur, elapsed);
    }

    /// Switch the active accounting phase, returning the previous one.
    /// Prefer the RAII [`Comm::phase`] guard.
    pub fn set_phase(&self, p: Phase) -> Phase {
        self.flush_wall();
        trace::phase_transition(p);
        self.shared.stats.lock().unwrap().set_phase(p)
    }

    /// RAII guard: activates `p` until dropped, then restores the
    /// previous phase. Wall time is partitioned exactly at transitions.
    pub fn phase(&self, p: Phase) -> PhaseGuard<'_> {
        let prev = self.set_phase(p);
        PhaseGuard { comm: self, prev }
    }

    /// Run `f` as metered local computation: charges `flops` (and the
    /// corresponding γ-modeled time) to the [`Phase::Computation`] bucket
    /// and confines the wall time of `f` to that bucket too.
    pub fn compute<R>(&self, flops: u64, f: impl FnOnce() -> R) -> R {
        let _g = self.phase(Phase::Computation);
        let t = self.model.flop_time(flops);
        self.shared.stats.lock().unwrap().record_flops(flops, t);
        f()
    }

    /// Charge flops to the current phase without switching phases (for
    /// callers that manage phases themselves).
    pub fn record_flops(&self, flops: u64) {
        let t = self.model.flop_time(flops);
        self.shared.stats.lock().unwrap().record_flops(flops, t);
    }

    /// Pause statistics (verification / data-staging traffic). Returns a
    /// guard; accounting resumes when it drops.
    pub fn paused_stats(&self) -> PauseGuard<'_> {
        self.flush_wall();
        let prev = self.shared.stats.lock().unwrap().set_paused(true);
        PauseGuard { comm: self, prev }
    }

    /// Snapshot of this rank's statistics.
    pub fn stats_snapshot(&self) -> RankStats {
        self.shared.stats.lock().unwrap().clone()
    }

    /// Reset this rank's statistics to zero (keeps the current phase).
    pub fn reset_stats(&self) {
        self.flush_wall();
        let mut stats = self.shared.stats.lock().unwrap();
        let phase = stats.current_phase();
        let paused = stats.is_paused();
        *stats = RankStats::default();
        stats.set_phase(phase);
        stats.set_paused(paused);
    }

    pub(crate) fn finish(&self) {
        self.flush_wall();
        trace::phase_flush();
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    #[inline]
    fn key_from(&self, src_comm_rank: usize, tag: u32) -> (usize, u64, u32) {
        (self.members[src_comm_rank], self.context, tag)
    }

    /// Hand `value` to the backend in the representation it requires,
    /// returning the transmitted byte count — encoded payload plus the
    /// transport's per-message framing — or zero on the typed path.
    /// Self-delivery transmits nothing (every backend short-circuits it
    /// into the local mailbox), so it counts zero: `wire_bytes_sent`
    /// stays equal to bytes a transport genuinely carried.
    fn post_to<T: WirePayload>(&self, dst: usize, tag: u32, value: T) -> u64 {
        let key = (self.my_global_rank(), self.context, tag);
        let dst_global = self.members[dst];
        if self.wire {
            let buf = value.to_wire();
            let bytes = if dst_global == self.my_global_rank() {
                0
            } else {
                buf.len() as u64 + self.frame_overhead
            };
            self.backend.post(dst_global, key, Parcel::Bytes(buf));
            bytes
        } else {
            self.backend
                .post(dst_global, key, Parcel::Typed(Box::new(value)));
            0
        }
    }

    /// Send `value` to communicator rank `dst`. Charges `α + β·words` to
    /// the sender (an un-overlapped, one-directional transfer).
    pub fn send<T: WirePayload>(&self, dst: usize, tag: u32, value: T) {
        let words = value.words() as u64;
        let t = self.model.msg_time(words);
        let bytes = self.post_to(dst, tag, value);
        trace::mark(TraceKind::Comm, "send.post", || {
            vec![
                ("dst".to_string(), ArgVal::Num(dst as f64)),
                ("words".to_string(), ArgVal::Num(words as f64)),
            ]
        });
        let mut stats = self.shared.stats.lock().unwrap();
        stats.record_send(words, t);
        stats.record_wire_bytes(bytes);
    }

    /// Blocking receive from communicator rank `src`. Charges
    /// `α + β·words` to the receiver.
    pub fn recv<T: WirePayload>(&self, src: usize, tag: u32) -> T {
        let start = Instant::now();
        let v = self.recv_uncharged::<T>(src, tag);
        let words = v.words() as u64;
        trace::complete(TraceKind::Comm, "recv.wait", start, || {
            vec![
                ("src".to_string(), ArgVal::Num(src as f64)),
                ("words".to_string(), ArgVal::Num(words as f64)),
            ]
        });
        let t = self.model.msg_time(words);
        self.shared.stats.lock().unwrap().record_recv(words, t);
        v
    }

    fn recv_uncharged<T: WirePayload>(&self, src: usize, tag: u32) -> T {
        let key = self.key_from(src, tag);
        let parcel = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.backend.take(self.my_global_rank(), key)
        }))
        .unwrap_or_else(|p| {
            // Mark the failed receive (an aborting epoch's poison or the
            // watchdog) before unwinding on, so a recovered partial
            // timeline shows where this rank was blocked.
            trace::mark(TraceKind::Comm, "recv.abort", || {
                vec![("src".to_string(), ArgVal::Num(src as f64))]
            });
            std::panic::resume_unwind(p)
        });
        match parcel {
            Parcel::Bytes(bytes) => T::from_wire(&bytes),
            Parcel::Typed(any) => match any.downcast::<T>() {
                Ok(b) => *b,
                Err(_) => panic!(
                    "rank {} (comm size {}): type mismatch receiving tag {} from rank {}: \
                     expected {}",
                    self.rank,
                    self.size(),
                    tag,
                    src,
                    std::any::type_name::<T>()
                ),
            },
        }
    }

    /// Simultaneous send to `dst` and receive from `src` (both
    /// communicator ranks) — the building block of cyclic shifts and
    /// pairwise-exchange collectives. Following the model's assumption
    /// that sends and receives progress independently, the modeled cost is
    /// `α + β·max(words_out, words_in)` charged once.
    pub fn sendrecv<T: WirePayload>(&self, dst: usize, src: usize, tag: u32, value: T) -> T {
        let words_out = value.words() as u64;
        let start = Instant::now();
        let bytes = self.post_to(dst, tag, value);
        let v = self.recv_uncharged::<T>(src, tag);
        let words_in = v.words() as u64;
        trace::complete(TraceKind::Comm, "sendrecv", start, || {
            vec![
                ("dst".to_string(), ArgVal::Num(dst as f64)),
                ("src".to_string(), ArgVal::Num(src as f64)),
                ("words_out".to_string(), ArgVal::Num(words_out as f64)),
                ("words_in".to_string(), ArgVal::Num(words_in as f64)),
            ]
        });
        let t = self.model.msg_time(words_out.max(words_in));
        let mut stats = self.shared.stats.lock().unwrap();
        stats.record_send(words_out, 0.0);
        stats.record_recv(words_in, t);
        stats.record_wire_bytes(bytes);
        v
    }

    /// Cyclic shift by `disp`: send to `(rank + disp) mod size`, receive
    /// from `(rank - disp) mod size`.
    pub fn shift<T: WirePayload>(&self, disp: usize, tag: u32, value: T) -> T {
        let p = self.size();
        if p == 1 {
            return value;
        }
        let dst = (self.rank + disp) % p;
        let src = (self.rank + p - disp % p) % p;
        self.sendrecv(dst, src, tag, value)
    }

    // ------------------------------------------------------------------
    // Non-blocking point-to-point
    // ------------------------------------------------------------------

    /// Non-blocking send to communicator rank `dst`. The mailbox is
    /// unbounded, so the transfer is buffered and the returned
    /// [`SendHandle`] is complete immediately; accounting is identical to
    /// [`Comm::send`] (`α + β·words` charged at post).
    pub fn send_nb<T: WirePayload>(&self, dst: usize, tag: u32, value: T) -> SendHandle {
        let words = value.words() as u64;
        self.send(dst, tag, value);
        SendHandle { words }
    }

    /// Begin a non-blocking receive from communicator rank `src`. The
    /// message is charged (`α + β·words`, like [`Comm::recv`]) when the
    /// returned handle is awaited. See the module docs for the ordering
    /// and completion contract.
    pub fn recv_begin<T: WirePayload>(&self, src: usize, tag: u32) -> RecvHandle<'_, T> {
        let ticket = {
            let mut map = self.nb_recv_seq.borrow_mut();
            let entry = map.entry((src, tag)).or_insert((0, 0));
            let t = entry.0;
            entry.0 += 1;
            t
        };
        RecvHandle {
            comm: self,
            src,
            tag,
            ticket,
            paired_send_words: None,
            state: HandleState::Pending,
        }
    }

    /// Begin a cyclic shift by `disp`: the outgoing block is posted (and
    /// its send charged) immediately, the incoming block is claimed by the
    /// returned handle. `shift_begin(d, t, v).wait()` produces the same
    /// value and the same modeled charges as the blocking
    /// `shift(d, t, v)` — the send is recorded at post, the receive as
    /// `α + β·max(words_out, words_in)` at `wait`. On a 1-rank
    /// communicator the value is returned through the handle untouched,
    /// with no accounting (matching [`Comm::shift`]).
    pub fn shift_begin<T: WirePayload>(
        &self,
        disp: usize,
        tag: u32,
        value: T,
    ) -> RecvHandle<'_, T> {
        let p = self.size();
        if p == 1 {
            return RecvHandle {
                comm: self,
                src: 0,
                tag,
                ticket: 0,
                paired_send_words: None,
                state: HandleState::Resolved(value),
            };
        }
        let dst = (self.rank + disp) % p;
        let src = (self.rank + p - disp % p) % p;
        let words_out = value.words() as u64;
        let bytes = self.post_to(dst, tag, value);
        trace::mark(TraceKind::Comm, "shift.post", || {
            vec![
                ("disp".to_string(), ArgVal::Num(disp as f64)),
                ("dst".to_string(), ArgVal::Num(dst as f64)),
                ("words".to_string(), ArgVal::Num(words_out as f64)),
            ]
        });
        {
            let mut stats = self.shared.stats.lock().unwrap();
            stats.record_send(words_out, 0.0);
            stats.record_wire_bytes(bytes);
        }
        let mut handle = self.recv_begin::<T>(src, tag);
        handle.paired_send_words = Some(words_out);
        handle
    }

    // ------------------------------------------------------------------
    // Splitting
    // ------------------------------------------------------------------

    /// Split into sub-communicators by color, **without communication**:
    /// `color` must be a pure function of the communicator rank that every
    /// member evaluates identically (true for all grid decompositions in
    /// this workspace). Members keep their relative order.
    pub fn split_by(&self, color: impl Fn(usize) -> u64) -> Comm {
        let my_color = color(self.rank);
        let mut members = Vec::new();
        let mut my_new_rank = usize::MAX;
        for r in 0..self.size() {
            if color(r) == my_color {
                if r == self.rank {
                    my_new_rank = members.len();
                }
                members.push(self.members[r]);
            }
        }
        debug_assert_ne!(my_new_rank, usize::MAX);
        let seq = self.split_seq.get();
        self.split_seq.set(seq + 1);
        Comm {
            backend: Arc::clone(&self.backend),
            wire: self.wire,
            frame_overhead: self.frame_overhead,
            model: self.model,
            shared: Arc::clone(&self.shared),
            members: Arc::new(members),
            rank: my_new_rank,
            context: mix_context(self.context, seq, my_color),
            split_seq: Cell::new(0),
            nb_recv_seq: RefCell::new(HashMap::new()),
        }
    }

    /// A new communicator with the same members but an isolated tag space.
    pub fn dup(&self) -> Comm {
        self.split_by(|_| 0)
    }
}

/// Handle for a buffered non-blocking send started with
/// [`Comm::send_nb`]. Sends into the unbounded mailbox complete at post
/// time, so `poll` is always true; the handle exists so call sites read
/// like their MPI counterparts and so the API can grow a rendezvous
/// protocol without changing signatures.
#[must_use = "a non-blocking send should be completed with wait()"]
pub struct SendHandle {
    words: u64,
}

impl SendHandle {
    /// Whether the transfer has completed (always, for buffered sends).
    pub fn poll(&self) -> bool {
        true
    }

    /// Complete the send. No-op for buffered sends.
    pub fn wait(self) {}

    /// Word count of the posted message.
    pub fn words(&self) -> u64 {
        self.words
    }
}

enum HandleState<T> {
    /// Message not yet claimed from the mailbox.
    Pending,
    /// 1-rank shift short-circuit: the value never left this rank and no
    /// accounting applies.
    Resolved(T),
    /// `wait` has consumed the handle (observed only by `Drop`).
    Done,
}

/// Handle for an in-flight non-blocking receive started with
/// [`Comm::recv_begin`] or [`Comm::shift_begin`]. See the module docs
/// for the ordering, completion, failure, and accounting contract.
#[must_use = "dropping an unawaited RecvHandle panics; call wait()"]
pub struct RecvHandle<'a, T: WirePayload> {
    comm: &'a Comm,
    src: usize,
    tag: u32,
    ticket: u64,
    /// `Some(words_out)` when this handle is the receive half of a
    /// `shift_begin`: the receive is then charged
    /// `α + β·max(words_out, words_in)` to mirror [`Comm::sendrecv`].
    paired_send_words: Option<u64>,
    state: HandleState<T>,
}

impl<T: WirePayload> RecvHandle<'_, T> {
    /// Whether `wait` would return without blocking: it is this handle's
    /// turn on its `(src, tag)` stream and a matching message is queued.
    /// Under the wire-delay backend a message may poll ready while its
    /// modeled flight time is still being charged; `wait` sleeps out the
    /// residue.
    pub fn poll(&self) -> bool {
        match &self.state {
            HandleState::Resolved(_) => true,
            HandleState::Done => unreachable!("polled a completed RecvHandle"),
            HandleState::Pending => {
                let my_turn = {
                    let map = self.comm.nb_recv_seq.borrow();
                    map.get(&(self.src, self.tag))
                        .is_some_and(|&(_, completed)| completed == self.ticket)
                };
                my_turn
                    && self.comm.backend.probe(
                        self.comm.my_global_rank(),
                        self.comm.key_from(self.src, self.tag),
                    )
            }
        }
    }

    /// Block until the message arrives and return it. Charges the receive
    /// to the current phase (see the module docs for the formula) and
    /// records the wall time spent blocked here as per-phase stall time.
    ///
    /// Panics if an earlier handle on the same `(src, tag)` stream has
    /// not been awaited yet.
    pub fn wait(mut self) -> T {
        match std::mem::replace(&mut self.state, HandleState::Done) {
            HandleState::Resolved(v) => v,
            HandleState::Done => unreachable!("waited on a completed RecvHandle"),
            HandleState::Pending => {
                let comm = self.comm;
                {
                    let map = comm.nb_recv_seq.borrow();
                    let &(_, completed) = map
                        .get(&(self.src, self.tag))
                        .expect("RecvHandle with no ticket record");
                    assert_eq!(
                        completed,
                        self.ticket,
                        "rank {}: RecvHandle for (src {}, tag {}) awaited out of order: \
                         ticket {} but {} earlier receive(s) on this stream are still pending",
                        comm.rank,
                        self.src,
                        self.tag,
                        self.ticket,
                        self.ticket - completed
                    );
                }
                let start = Instant::now();
                let v = comm.recv_uncharged::<T>(self.src, self.tag);
                let stall = start.elapsed().as_secs_f64();
                comm.nb_recv_seq
                    .borrow_mut()
                    .get_mut(&(self.src, self.tag))
                    .unwrap()
                    .1 += 1;
                let words_in = v.words() as u64;
                let name = if self.paired_send_words.is_some() {
                    "shift.wait"
                } else {
                    "recv.wait"
                };
                trace::complete(TraceKind::Comm, name, start, || {
                    vec![
                        ("src".to_string(), ArgVal::Num(self.src as f64)),
                        ("words".to_string(), ArgVal::Num(words_in as f64)),
                        ("stall_s".to_string(), ArgVal::Num(stall)),
                    ]
                });
                let t = match self.paired_send_words {
                    Some(words_out) => comm.model.msg_time(words_out.max(words_in)),
                    None => comm.model.msg_time(words_in),
                };
                let mut stats = comm.shared.stats.lock().unwrap();
                stats.record_recv(words_in, t);
                stats.record_stall(stall);
                v
            }
        }
    }
}

impl<T: WirePayload> Drop for RecvHandle<'_, T> {
    fn drop(&mut self) {
        if !matches!(self.state, HandleState::Done) && !std::thread::panicking() {
            panic!(
                "rank {}: RecvHandle for (src {}, tag {}) dropped without wait() — \
                 a pending non-blocking receive must be completed, or its message \
                 leaks into the mailbox",
                self.comm.rank, self.src, self.tag
            );
        }
    }
}

/// RAII guard restoring the previous [`Phase`] on drop.
pub struct PhaseGuard<'a> {
    comm: &'a Comm,
    prev: Phase,
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        self.comm.set_phase(self.prev);
    }
}

/// RAII guard resuming statistics collection on drop.
pub struct PauseGuard<'a> {
    comm: &'a Comm,
    prev: bool,
}

impl Drop for PauseGuard<'_> {
    fn drop(&mut self) {
        self.comm.flush_wall();
        self.comm.shared.stats.lock().unwrap().set_paused(self.prev);
        // Reset the anchor so paused wall time is not charged later.
        *self.comm.shared.wall_anchor.lock().unwrap() = Instant::now();
    }
}

/// SplitMix64-style mixing of (parent context, split sequence, color) into
/// a new context id. Collision probability is negligible for the handful
/// of communicators an algorithm creates.
fn mix_context(parent: u64, seq: u64, color: u64) -> u64 {
    let mut z = parent ^ seq.rotate_left(17) ^ color.rotate_left(41);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_context_separates_colors_and_seqs() {
        let a = mix_context(1, 0, 0);
        let b = mix_context(1, 0, 1);
        let c = mix_context(1, 1, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }
}
