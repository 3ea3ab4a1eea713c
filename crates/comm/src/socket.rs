//! The socket transport: a [`CommBackend`] whose ranks are separate OS
//! processes exchanging [`frame`](crate::frame)-encoded messages over
//! real sockets.
//!
//! Each rank process holds one stream per peer (Unix-domain by default,
//! TCP when the launcher is configured with `DSK_SOCKET_ADDR`). Sends
//! are decoupled through **per-peer writer threads** (a slow peer never
//! blocks the algorithm thread), and a **reader thread per peer**
//! demultiplexes incoming frames into the same keyed [`Mailbox`] the
//! in-memory backends use — `Data` frames by their `(src, context,
//! tag)` key, control frames (`Bye`, `Outcome`, `OutcomeSet`, `Error`)
//! into the epoch-control state the launcher drives.
//!
//! When tracing is on ([`crate::trace`]), each member's drained trace
//! events ride as an extra section of its `Outcome` control frame and
//! come back inside the `OutcomeSet` broadcast. Control frames are
//! invisible to word accounting, so the piggyback never perturbs a
//! modeled counter.
//!
//! Failure handling is wired to the existing watchdog/drain hooks: a
//! peer that disconnects mid-epoch or sends an undecodable frame
//! *poisons* the mailbox, so a blocked receive panics with the root
//! cause in milliseconds instead of waiting out the receive watchdog.
//!
//! The backend also keeps an exact count of `Data`-frame bytes written
//! to its sockets ([`SocketBackend::data_bytes_written`]): because
//! [`CommBackend::frame_overhead`] reports the frame-header size,
//! `wire_bytes_sent` in the per-rank statistics equals bytes genuinely
//! transmitted.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::backend::{CommBackend, Parcel};
use crate::frame::{read_frame, write_frame, Frame, FrameKind, FRAME_HEADER_LEN};
use crate::transport::{Mailbox, MsgKey};

// ---------------------------------------------------------------------
// Transport address / stream / listener abstraction
// ---------------------------------------------------------------------

/// Where a rank listens: a Unix-domain socket path (default) or a TCP
/// address (multi-host capable; selected by `DSK_SOCKET_ADDR`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// Unix-domain socket path.
    Unix(PathBuf),
    /// TCP socket address.
    Tcp(SocketAddr),
}

/// A connected transport stream of either flavor.
#[derive(Debug)]
pub enum SocketStream {
    /// Unix-domain stream.
    Unix(UnixStream),
    /// TCP stream.
    Tcp(TcpStream),
}

impl SocketStream {
    /// Clone the underlying descriptor (reader/writer split).
    pub fn try_clone(&self) -> std::io::Result<SocketStream> {
        Ok(match self {
            SocketStream::Unix(s) => SocketStream::Unix(s.try_clone()?),
            SocketStream::Tcp(s) => SocketStream::Tcp(s.try_clone()?),
        })
    }

    /// Bound every read by `t` (used for handshakes, `None` to block).
    pub fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            SocketStream::Unix(s) => s.set_read_timeout(t),
            SocketStream::Tcp(s) => s.set_read_timeout(t),
        }
    }

    /// Write through a shared reference (sockets support concurrent
    /// writers at the OS level; callers must ensure frame atomicity by
    /// only using this on an otherwise-idle stream).
    pub fn write_all_shared(&self, bytes: &[u8]) -> std::io::Result<()> {
        match self {
            SocketStream::Unix(s) => {
                let mut w: &UnixStream = s;
                w.write_all(bytes)
            }
            SocketStream::Tcp(s) => {
                let mut w: &TcpStream = s;
                w.write_all(bytes)
            }
        }
    }

    /// Shut down both directions (EOF at the peer).
    pub fn shutdown(&self) {
        let _ = match self {
            SocketStream::Unix(s) => s.shutdown(std::net::Shutdown::Both),
            SocketStream::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
        };
    }
}

impl Read for SocketStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            SocketStream::Unix(s) => s.read(buf),
            SocketStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for SocketStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            SocketStream::Unix(s) => s.write(buf),
            SocketStream::Tcp(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            SocketStream::Unix(s) => s.flush(),
            SocketStream::Tcp(s) => s.flush(),
        }
    }
}

/// A bound rendezvous listener of either flavor.
pub enum SocketListener {
    /// Unix-domain listener (owns its socket file; removed on drop).
    Unix(UnixListener, PathBuf),
    /// TCP listener.
    Tcp(TcpListener),
}

impl SocketListener {
    /// Bind `ep`, replacing a stale Unix socket file if present.
    pub fn bind(ep: &Endpoint) -> std::io::Result<SocketListener> {
        match ep {
            Endpoint::Unix(path) => {
                let _ = std::fs::remove_file(path);
                Ok(SocketListener::Unix(
                    UnixListener::bind(path)?,
                    path.clone(),
                ))
            }
            Endpoint::Tcp(addr) => Ok(SocketListener::Tcp(TcpListener::bind(addr)?)),
        }
    }

    /// Accept one connection before `deadline` (polling accept so a
    /// missing peer cannot hang the rendezvous).
    pub fn accept_deadline(&self, deadline: Instant) -> Result<SocketStream, String> {
        let set_nonblocking = |nb: bool| match self {
            SocketListener::Unix(l, _) => l.set_nonblocking(nb),
            SocketListener::Tcp(l) => l.set_nonblocking(nb),
        };
        set_nonblocking(true).map_err(|e| format!("listener nonblocking: {e}"))?;
        loop {
            let got = match self {
                SocketListener::Unix(l, _) => l.accept().map(|(s, _)| SocketStream::Unix(s)),
                SocketListener::Tcp(l) => l.accept().map(|(s, _)| SocketStream::Tcp(s)),
            };
            match got {
                Ok(stream) => {
                    let _ = set_nonblocking(false);
                    return Ok(stream);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        let _ = set_nonblocking(false);
                        return Err("rendezvous accept timed out".to_string());
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => {
                    let _ = set_nonblocking(false);
                    return Err(format!("rendezvous accept failed: {e}"));
                }
            }
        }
    }
}

impl Drop for SocketListener {
    fn drop(&mut self) {
        if let SocketListener::Unix(_, path) = self {
            let _ = std::fs::remove_file(path as &Path);
        }
    }
}

/// Connect to `ep`, retrying until `deadline` (the peer may still be
/// binding its listener). `abort` is polled between retries so a child
/// can stop waiting when its parent died.
pub fn connect_deadline(
    ep: &Endpoint,
    deadline: Instant,
    abort: &dyn Fn() -> Option<String>,
) -> Result<SocketStream, String> {
    loop {
        if let Some(why) = abort() {
            return Err(why);
        }
        let got = match ep {
            Endpoint::Unix(path) => UnixStream::connect(path).map(SocketStream::Unix),
            Endpoint::Tcp(addr) => TcpStream::connect(addr).map(SocketStream::Tcp),
        };
        match got {
            Ok(s) => return Ok(s),
            Err(e) => {
                if Instant::now() >= deadline {
                    return Err(format!("rendezvous connect to {ep:?} timed out: {e}"));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    }
}

impl std::fmt::Debug for SocketListener {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SocketListener::Unix(_, p) => write!(f, "SocketListener::Unix({p:?})"),
            SocketListener::Tcp(l) => write!(f, "SocketListener::Tcp({:?})", l.local_addr()),
        }
    }
}

// ---------------------------------------------------------------------
// Epoch control state (byes / outcomes / errors)
// ---------------------------------------------------------------------

#[derive(Default)]
struct CtrlState {
    byes: Vec<bool>,
    eofs: Vec<bool>,
    outcomes: Vec<Option<Vec<u8>>>,
    outcome_set: Option<Vec<u8>>,
    /// Rank 0's `Abort` broadcast payload (the dead
    /// pool ids, [`Roster`](crate::rendezvous::Roster)-encoded).
    abort: Option<Vec<u8>>,
    errors: VecDeque<(usize, String)>,
}

/// How an epoch ended, from a member's point of view: the
/// normal [`FrameKind::OutcomeSet`] broadcast, or an [`FrameKind::Abort`]
/// carrying the dead pool ids.
#[derive(Debug)]
pub enum EpochVerdict {
    /// Every rank finished; payload is the encoded outcome set.
    Outcomes(Vec<u8>),
    /// The epoch aborted; payload names the dead pool ids.
    Aborted(Vec<u8>),
}

struct Ctrl {
    state: Mutex<CtrlState>,
    cv: Condvar,
    /// Set when the epoch completed; later EOFs are normal teardown.
    finished: AtomicBool,
}

impl Ctrl {
    fn new(n: usize) -> Arc<Ctrl> {
        Arc::new(Ctrl {
            state: Mutex::new(CtrlState {
                byes: vec![false; n],
                eofs: vec![false; n],
                outcomes: (0..n).map(|_| None).collect(),
                outcome_set: None,
                abort: None,
                errors: VecDeque::new(),
            }),
            cv: Condvar::new(),
            finished: AtomicBool::new(false),
        })
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CtrlState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }
}

// ---------------------------------------------------------------------
// The backend
// ---------------------------------------------------------------------

/// The socket transport backend for one rank process of one epoch.
/// Constructed by the launcher ([`crate::launch`]) from a fully
/// connected stream mesh; consumers select it with
/// [`BackendKind::Socket`](crate::BackendKind) and never name this type.
pub struct SocketBackend {
    me: usize,
    nranks: usize,
    mailbox: Arc<Mailbox<Parcel>>,
    /// Per-peer writer-thread inboxes (`None` at `me`). Mutexed because
    /// `std::sync::mpsc::Sender` predates `Sync` on some toolchains.
    writers: Vec<Option<Mutex<Sender<Frame>>>>,
    /// Raw streams, kept to force shutdown at teardown.
    streams: Vec<Option<SocketStream>>,
    ctrl: Arc<Ctrl>,
    data_bytes: Arc<AtomicU64>,
}

impl SocketBackend {
    /// Assemble the backend from a connected mesh: `peers[r]` is the
    /// stream to rank `r` (`None` at `me`). Spawns one reader and one
    /// writer thread per peer.
    pub fn assemble(
        me: usize,
        nranks: usize,
        recv_timeout: Duration,
        peers: Vec<Option<SocketStream>>,
    ) -> std::io::Result<Arc<SocketBackend>> {
        assert_eq!(peers.len(), nranks, "one stream slot per rank");
        let mailbox = Arc::new(Mailbox::new(nranks, recv_timeout));
        let ctrl = Ctrl::new(nranks);
        let data_bytes = Arc::new(AtomicU64::new(0));
        let mut writers: Vec<Option<Mutex<Sender<Frame>>>> = Vec::with_capacity(nranks);
        let mut streams: Vec<Option<SocketStream>> = Vec::with_capacity(nranks);

        for (peer, slot) in peers.into_iter().enumerate() {
            let Some(stream) = slot else {
                assert_eq!(peer, me, "missing stream for peer {peer}");
                writers.push(None);
                streams.push(None);
                continue;
            };
            stream.set_read_timeout(None)?;
            let reader = stream.try_clone()?;
            let writer = stream.try_clone()?;
            streams.push(Some(stream));

            // Reader: demux frames into the mailbox / control state.
            {
                let mailbox = Arc::clone(&mailbox);
                let ctrl = Arc::clone(&ctrl);
                std::thread::Builder::new()
                    .name(format!("dsk-sock-r{me}-from{peer}"))
                    .spawn(move || reader_loop(me, peer, reader, &mailbox, &ctrl))
                    .expect("spawn socket reader");
            }

            // Writer: drain the frame queue onto the socket.
            let (tx, rx) = mpsc::channel::<Frame>();
            {
                let mailbox = Arc::clone(&mailbox);
                let data_bytes = Arc::clone(&data_bytes);
                let ctrl = Arc::clone(&ctrl);
                let mut writer = writer;
                std::thread::Builder::new()
                    .name(format!("dsk-sock-w{me}-to{peer}"))
                    .spawn(move || {
                        for frame in rx {
                            let is_data = frame.kind == FrameKind::Data;
                            match write_frame(&mut writer, &frame) {
                                Ok(n) => {
                                    if is_data {
                                        data_bytes.fetch_add(n as u64, Ordering::Relaxed);
                                    }
                                }
                                Err(e) => {
                                    if !ctrl.finished.load(Ordering::SeqCst) {
                                        mailbox.poison(format!(
                                            "rank {me}: socket write to rank {peer} failed: {e}"
                                        ));
                                    }
                                    return;
                                }
                            }
                        }
                        // Channel closed: epoch teardown.
                        let _ = writer.flush();
                    })
                    .expect("spawn socket writer");
            }
            writers.push(Some(Mutex::new(tx)));
        }

        Ok(Arc::new(SocketBackend {
            me,
            nranks,
            mailbox,
            writers,
            streams,
            ctrl,
            data_bytes,
        }))
    }

    fn enqueue(&self, dst: usize, frame: Frame) {
        let Some(tx) = &self.writers[dst] else {
            panic!("rank {}: no writer for peer {dst}", self.me);
        };
        let sent = tx
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .send(frame)
            .is_ok();
        if !sent {
            // Writer thread exited on an I/O error; surface its poison.
            if let Some(msg) = self.mailbox.poison_message() {
                panic!("{msg}");
            }
            panic!("rank {}: writer to rank {dst} is gone", self.me);
        }
    }

    /// Send a control frame to one peer.
    pub fn send_control(&self, dst: usize, kind: FrameKind, payload: Vec<u8>) {
        self.enqueue(dst, Frame::control(kind, self.me, payload));
    }

    /// Write pre-serialized frame bytes to one peer **synchronously**,
    /// bypassing the writer thread. Only safe when that writer is
    /// provably idle — the launcher uses it for the final `OutcomeSet`
    /// broadcast (its writers drained their `Bye`s before any member
    /// could have sent the `Outcome`s that gate the broadcast), so a
    /// short-lived main cannot exit before the bytes reach the socket,
    /// and one serialized buffer serves every member without clones.
    pub fn write_frame_bytes_sync(&self, dst: usize, bytes: &[u8]) -> std::io::Result<()> {
        let Some(stream) = &self.streams[dst] else {
            panic!("rank {}: no stream for peer {dst}", self.me);
        };
        stream.write_all_shared(bytes)
    }

    /// Send `Bye` to every peer (end of this rank's data traffic).
    pub fn bye_all(&self) {
        for dst in 0..self.nranks {
            if dst != self.me {
                self.send_control(dst, FrameKind::Bye, Vec::new());
            }
        }
    }

    fn wait_ctrl<R>(
        &self,
        deadline: Instant,
        what: &str,
        mut ready: impl FnMut(&mut CtrlState) -> Option<Result<R, String>>,
    ) -> Result<R, String> {
        let mut st = self.ctrl.lock();
        loop {
            if let Some((rank, msg)) = st.errors.front() {
                return Err(format!("rank {rank} panicked: {msg}"));
            }
            if let Some(r) = ready(&mut st) {
                return r;
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "rank {}: timed out waiting for {what} (socket watchdog)",
                    self.me
                ));
            }
            let (guard, _) = self
                .ctrl
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Wait until every peer's `Bye` arrived (all data this epoch is in
    /// local mailboxes — the drain barrier).
    pub fn wait_byes(&self, deadline: Instant) -> Result<(), String> {
        let me = self.me;
        self.wait_ctrl(deadline, "peer Bye frames", |st| {
            for r in 0..st.byes.len() {
                if r != me && !st.byes[r] {
                    if st.eofs[r] {
                        return Some(Err(format!("rank {r} exited before finishing the epoch")));
                    }
                    return None;
                }
            }
            Some(Ok(()))
        })
    }

    /// Rank 0: wait for every member's `Outcome` payload.
    pub fn wait_outcomes(&self, deadline: Instant) -> Result<Vec<Vec<u8>>, String> {
        let me = self.me;
        self.wait_ctrl(deadline, "member outcomes", |st| {
            for r in 0..st.outcomes.len() {
                if r != me && st.outcomes[r].is_none() {
                    if st.eofs[r] {
                        return Some(Err(format!("rank {r} exited before reporting its outcome")));
                    }
                    return None;
                }
            }
            Some(Ok(st
                .outcomes
                .iter_mut()
                .map(|o| o.take().unwrap_or_default())
                .collect()))
        })
    }

    /// The first `Error` frame received, if any (the root cause the
    /// launcher re-panics with).
    pub fn first_error(&self) -> Option<(usize, String)> {
        self.ctrl.lock().errors.front().cloned()
    }

    /// Members: wait for rank 0's end-of-epoch verdict — the normal
    /// `OutcomeSet` broadcast or an `Abort`. Unlike
    /// [`wait_byes`](Self::wait_byes) and
    /// [`wait_outcomes`](Self::wait_outcomes) this deliberately ignores
    /// queued `Error` frames: during an abort they are expected
    /// traffic, and the verdict frame is the only authority on how the
    /// epoch ended.
    pub fn wait_verdict(&self, deadline: Instant) -> Result<EpochVerdict, String> {
        let mut st = self.ctrl.lock();
        loop {
            if let Some(payload) = st.abort.take() {
                return Ok(EpochVerdict::Aborted(payload));
            }
            if let Some(set) = st.outcome_set.take() {
                return Ok(EpochVerdict::Outcomes(set));
            }
            if st.eofs[0] {
                return Err("rank 0 exited before delivering an epoch verdict".to_string());
            }
            if Instant::now() >= deadline {
                return Err(format!(
                    "rank {}: timed out waiting for the epoch verdict (socket watchdog)",
                    self.me
                ));
            }
            let (guard, _) = self
                .ctrl
                .cv
                .wait_timeout(st, Duration::from_millis(50))
                .unwrap_or_else(|e| e.into_inner());
            st = guard;
        }
    }

    /// Rank 0, elastic abort collection: which member world ranks have
    /// checked in with an `Outcome` or an `Error`, proving the member is
    /// alive and past its epoch body. A closed stream does not count: a
    /// dying member's socket closes before its exit status can be
    /// observed, and only that status marks it dead.
    pub fn member_checkin(&self) -> Vec<bool> {
        let st = self.ctrl.lock();
        (0..self.nranks)
            .map(|r| {
                r == self.me || st.outcomes[r].is_some() || st.errors.iter().any(|(er, _)| *er == r)
            })
            .collect()
    }

    /// Mark the epoch complete: subsequent EOFs are normal teardown and
    /// no longer poison the mailbox.
    pub fn mark_finished(&self) {
        self.ctrl.finished.store(true, Ordering::SeqCst);
    }

    /// Exact `Data`-frame bytes written to this rank's sockets so far
    /// (headers included; control frames excluded).
    pub fn data_bytes_written(&self) -> u64 {
        self.data_bytes.load(Ordering::Relaxed)
    }

    /// Force-close every peer stream (teardown).
    pub fn shutdown_streams(&self) {
        for s in self.streams.iter().flatten() {
            s.shutdown();
        }
    }
}

fn reader_loop(
    me: usize,
    peer: usize,
    mut stream: SocketStream,
    mailbox: &Mailbox<Parcel>,
    ctrl: &Ctrl,
) {
    loop {
        match read_frame(&mut stream) {
            Ok(Some(frame)) => {
                let src = frame.src as usize;
                match frame.kind {
                    FrameKind::Data => {
                        let key: MsgKey = (src, frame.context, frame.tag);
                        mailbox.post(me, key, Parcel::Bytes(frame.payload));
                    }
                    FrameKind::Bye => {
                        ctrl.lock().byes[peer] = true;
                        ctrl.cv.notify_all();
                    }
                    FrameKind::Outcome => {
                        ctrl.lock().outcomes[peer] = Some(frame.payload);
                        ctrl.cv.notify_all();
                    }
                    FrameKind::OutcomeSet => {
                        ctrl.lock().outcome_set = Some(frame.payload);
                        ctrl.cv.notify_all();
                    }
                    FrameKind::Error => {
                        let msg = String::from_utf8_lossy(&frame.payload).into_owned();
                        mailbox.poison(format!("rank {peer} panicked: {msg}"));
                        ctrl.lock().errors.push_back((peer, msg));
                        ctrl.cv.notify_all();
                    }
                    FrameKind::Abort => {
                        // Rank 0 aborted the epoch. Stash the payload
                        // for `wait_verdict` AND poison the mailbox so
                        // a receive blocked on data that will never
                        // arrive fails over to the abort path fast.
                        let mut st = ctrl.lock();
                        st.abort = Some(frame.payload);
                        drop(st);
                        ctrl.cv.notify_all();
                        mailbox.poison(format!("rank {me}: epoch aborted by the coordinator"));
                    }
                    FrameKind::Hello => {
                        mailbox.poison(format!(
                            "rank {me}: unexpected mid-epoch Hello from rank {peer}"
                        ));
                    }
                    FrameKind::Roster => {
                        mailbox.poison(format!(
                            "rank {me}: unexpected mid-epoch Roster from rank {peer}"
                        ));
                    }
                }
            }
            Ok(None) => {
                // EOF. Normal after the epoch finished or after the
                // peer's Bye; fatal mid-epoch.
                let finished = ctrl.finished.load(Ordering::SeqCst);
                let mut st = ctrl.lock();
                st.eofs[peer] = true;
                let had_bye = st.byes[peer];
                drop(st);
                ctrl.cv.notify_all();
                if !finished && !had_bye {
                    mailbox.poison(format!(
                        "rank {me}: rank {peer} disconnected mid-epoch (peer process died?)"
                    ));
                }
                return;
            }
            Err(e) => {
                if !ctrl.finished.load(Ordering::SeqCst) {
                    mailbox.poison(format!(
                        "rank {me}: undecodable frame from rank {peer}: {e}"
                    ));
                    let mut st = ctrl.lock();
                    st.eofs[peer] = true;
                    st.errors
                        .push_back((peer, format!("undecodable frame: {e}")));
                    drop(st);
                    ctrl.cv.notify_all();
                }
                return;
            }
        }
    }
}

impl CommBackend for SocketBackend {
    fn name(&self) -> &'static str {
        "socket"
    }

    fn nranks(&self) -> usize {
        self.nranks
    }

    fn serializes(&self) -> bool {
        true
    }

    fn recv_timeout(&self) -> Duration {
        self.mailbox.recv_timeout()
    }

    fn post(&self, dst: usize, key: MsgKey, parcel: Parcel) {
        let Parcel::Bytes(payload) = parcel else {
            panic!("socket backend requires encoded parcels — a typed message bypassed WirePayload")
        };
        if dst == self.me {
            // Self-delivery stays local (the collectives never do this,
            // but the contract allows it).
            self.mailbox.post(dst, key, Parcel::Bytes(payload));
        } else {
            self.enqueue(dst, Frame::data(key.0, key.1, key.2, payload));
        }
    }

    fn take(&self, me: usize, key: MsgKey) -> Parcel {
        debug_assert_eq!(me, self.me, "socket backend serves exactly one rank");
        self.mailbox.take(me, key)
    }

    fn probe(&self, me: usize, key: MsgKey) -> bool {
        self.mailbox.probe(me, key)
    }

    fn pending_messages(&self) -> usize {
        self.mailbox.pending_messages()
    }

    fn frame_overhead(&self) -> u64 {
        FRAME_HEADER_LEN as u64
    }

    fn poison(&self, msg: &str) {
        self.mailbox.poison(msg.to_string());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (SocketStream, SocketStream) {
        let (a, b) = UnixStream::pair().expect("socketpair");
        (SocketStream::Unix(a), SocketStream::Unix(b))
    }

    /// Two "ranks" in one process, connected by a real socketpair: data
    /// frames route into the peer's mailbox with the right key, and the
    /// byte counter matches the frames' wire length exactly.
    #[test]
    fn socketpair_mesh_delivers_and_counts_bytes() {
        let (s01, s10) = pair();
        let b0 =
            SocketBackend::assemble(0, 2, Duration::from_secs(5), vec![None, Some(s01)]).unwrap();
        let b1 =
            SocketBackend::assemble(1, 2, Duration::from_secs(5), vec![Some(s10), None]).unwrap();

        let payload = vec![1u8, 2, 3, 4, 5, 6, 7, 8, 9];
        b0.post(1, (0, 77, 3), Parcel::Bytes(payload.clone()));
        match b1.take(1, (0, 77, 3)) {
            Parcel::Bytes(got) => assert_eq!(got, payload),
            Parcel::Typed(_) => panic!("socket backend must carry bytes"),
        }
        // Wait for the writer thread to finish counting.
        let expect = (FRAME_HEADER_LEN + payload.len()) as u64;
        let t0 = Instant::now();
        while b0.data_bytes_written() != expect {
            assert!(t0.elapsed() < Duration::from_secs(5), "byte counter lagged");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(b0.frame_overhead(), FRAME_HEADER_LEN as u64);
        assert_eq!(b1.pending_messages(), 0);
        b0.mark_finished();
        b1.mark_finished();
    }

    #[test]
    fn bye_protocol_and_control_waits() {
        let (s01, s10) = pair();
        let b0 =
            SocketBackend::assemble(0, 2, Duration::from_secs(5), vec![None, Some(s01)]).unwrap();
        let b1 =
            SocketBackend::assemble(1, 2, Duration::from_secs(5), vec![Some(s10), None]).unwrap();
        b0.bye_all();
        b1.bye_all();
        let deadline = Instant::now() + Duration::from_secs(5);
        b0.wait_byes(deadline).unwrap();
        b1.wait_byes(deadline).unwrap();

        b1.send_control(0, FrameKind::Outcome, vec![42]);
        let outs = b0.wait_outcomes(deadline).unwrap();
        assert_eq!(outs[1], vec![42]);
        b0.send_control(1, FrameKind::OutcomeSet, vec![9, 9]);
        match b1.wait_verdict(deadline).unwrap() {
            EpochVerdict::Outcomes(set) => assert_eq!(set, vec![9, 9]),
            EpochVerdict::Aborted(_) => panic!("expected the outcome broadcast"),
        }
        b0.mark_finished();
        b1.mark_finished();
    }

    /// A peer dying mid-epoch poisons the mailbox: a blocked receive
    /// fails in milliseconds with the root cause, not after the 300 s
    /// watchdog.
    #[test]
    #[should_panic(expected = "disconnected mid-epoch")]
    fn peer_death_poisons_blocked_receive() {
        let (s01, s10) = pair();
        let b0 =
            SocketBackend::assemble(0, 2, Duration::from_secs(300), vec![None, Some(s01)]).unwrap();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            s10.shutdown();
            drop(s10);
        });
        let _ = b0.take(0, (1, 0, 0));
    }

    /// An Error frame carries the peer's panic message as the poison
    /// root cause.
    #[test]
    #[should_panic(expected = "rank 1 panicked: boom")]
    fn error_frame_becomes_root_cause() {
        let (s01, s10) = pair();
        let b0 =
            SocketBackend::assemble(0, 2, Duration::from_secs(300), vec![None, Some(s01)]).unwrap();
        let b1 =
            SocketBackend::assemble(1, 2, Duration::from_secs(300), vec![Some(s10), None]).unwrap();
        b1.send_control(0, FrameKind::Error, b"boom".to_vec());
        let _ = b0.take(0, (1, 0, 0));
    }

    /// Garbage on the wire yields a clean DecodeError-based poison — no
    /// panic in the reader, no hang in the receiver.
    #[test]
    #[should_panic(expected = "undecodable frame")]
    fn garbage_frames_poison_cleanly() {
        let (s01, mut raw) = {
            let (a, b) = UnixStream::pair().unwrap();
            (SocketStream::Unix(a), b)
        };
        let b0 =
            SocketBackend::assemble(0, 2, Duration::from_secs(300), vec![None, Some(s01)]).unwrap();
        raw.write_all(b"this is definitely not a frame header......")
            .unwrap();
        raw.flush().unwrap();
        let _ = b0.take(0, (1, 0, 0));
    }

    #[test]
    fn tcp_streams_carry_frames_too() {
        let listener =
            SocketListener::bind(&Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).expect("bind tcp");
        let addr = match &listener {
            SocketListener::Tcp(l) => l.local_addr().unwrap(),
            SocketListener::Unix(..) => unreachable!(),
        };
        let deadline = Instant::now() + Duration::from_secs(5);
        let client = std::thread::spawn(move || {
            let mut s =
                connect_deadline(&Endpoint::Tcp(addr), deadline, &|| None).expect("connect");
            write_frame(&mut s, &Frame::data(1, 7, 9, vec![5, 5])).unwrap();
        });
        let mut server = listener.accept_deadline(deadline).expect("accept");
        let f = read_frame(&mut server).unwrap().unwrap();
        assert_eq!(f.payload, vec![5, 5]);
        assert_eq!((f.src, f.context, f.tag), (1, 7, 9));
        client.join().unwrap();
    }
}
