//! The process launcher: how a [`SimWorld`] with
//! [`BackendKind::Socket`](crate::BackendKind) turns ranks into real OS
//! processes.
//!
//! # The SPMD re-exec model
//!
//! A socket world cannot hand a Rust closure to another process, so the
//! launcher re-runs the *program*: rank 0 (the launcher — the process
//! the user started) spawns the current executable once per additional
//! rank, with `DSK_RANK`, `DSK_SPAWN_EPOCH`, and `DSK_RENDEZVOUS` in
//! the environment. Inside a `cargo test` binary the child re-runs
//! exactly the current test (libtest names each test's thread after the
//! test, so the launcher passes `<name> --exact --test-threads=1`);
//! plain binaries (examples, benches) are re-run with their original
//! arguments. Every process therefore executes the *same deterministic
//! program*, and each `SimWorld::run` or `SimWorld::try_run` call on a
//! socket backend is one **epoch** of that program:
//!
//! * the launcher and all pool processes count socket-backed epochs on
//!   their test thread; the counter is the epoch id;
//! * a child joins live epochs at `DSK_SPAWN_EPOCH` and replays any
//!   earlier socket epochs on the in-process backend (word accounting
//!   is backend-invariant, so the replay reproduces the same values);
//! * at each epoch the processes **rendezvous** with the coordinator
//!   and receive the epoch's [`Roster`] — see [`crate::rendezvous`]
//!   for the handshake (protocol-version / endianness / capability
//!   validation with typed rejections) and the roster rules;
//! * members mesh up pairwise (every member binds a listener at
//!   `<base>/r<pool_id>.sock`, or TCP ports from `DSK_SOCKET_ADDR`,
//!   and dials every lower world rank), validating a [`Hello`] (world
//!   rank, world size, epoch) on every connection, so diverged or
//!   stale processes fail loudly instead of corrupting the mesh;
//! * after the closure, ranks run the drain protocol (`Bye` to every
//!   peer, wait for every peer's `Bye`, then assert an empty mailbox),
//!   members send their encoded value + [`RankStats`] to rank 0, and
//!   rank 0 broadcasts the full outcome set — **every process returns
//!   the identical `Vec<RankOutcome<T>>`**, keeping the SPMD program in
//!   lockstep for the next epoch. This is why socket worlds require
//!   `T: WirePayload`: results genuinely cross process boundaries.
//!
//! Pool processes whose pool id is not on the current roster (worlds
//! may shrink between epochs) join as *observers*: they skip the
//! closure and only await the outcome broadcast.
//!
//! # Elastic epochs and the dead set
//!
//! Every epoch is **elastic** — [`SimWorld::run`] and
//! [`SimWorld::try_run`] run the same protocol, one body per role: a
//! rank failing mid-epoch aborts the epoch instead of killing the pool.
//! The coordinator collects a verdict from every member (an `Outcome`,
//! an `Error`, or the member's process exit), broadcasts an `Abort`
//! frame naming the dead **pool ids**, and every surviving process
//! returns the identical [`EpochError`]. Each process keeps a thread-local
//! *dead set* of pool ids, updated from `Abort` payloads (the
//! coordinator from `try_wait` verdicts) — so the next epoch's roster,
//! a pure function of the dead set ([`crate::rendezvous::roster_for`]),
//! is computed identically everywhere without negotiation.
//!
//! Two hard limitations are enforced rather than half-supported: the
//! coordinator itself (pool id 0 = world rank 0) is not expendable —
//! its death kills the pool; and the pool cannot **grow** after a
//! death, because a freshly spawned worker would have to replay the
//! failed epoch in-process, which is not reproducible (a worker that
//! died via `process::exit` would kill the replayer). Restart the
//! program to rebuild a full pool.
//!
//! # Failure containment
//!
//! A child whose closure panics reports the message in an `Error` frame
//! and waits for the verdict; a child that dies silently triggers
//! mailbox poison at every peer (milliseconds, not the 300 s watchdog).
//! Either way the epoch aborts. `try_run` returns the [`EpochError`]
//! and keeps the pool; `run` kills the pool and then panics with the
//! root cause rank 0 saw first — a member's reported panic, its own
//! panic, or the drain failure — as `rank N panicked: …`, matching the
//! in-process backend's diagnostics. Failures the abort protocol cannot
//! contain (a failed rendezvous, members unresponsive past the
//! watchdog) unwind through an epoch guard that kills the whole pool
//! before the panic propagates — no orphaned processes — and children
//! additionally poll their parent pid while waiting. On success,
//! children simply finish their copy of the program and exit 0; a
//! reaper thread collects them.
//!
//! [`Hello`]: crate::frame::Hello
//! [`Roster`]: crate::rendezvous::Roster
//! [`EpochError`]: crate::world::EpochError

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use crate::backend::CommBackend;
use crate::comm::{Comm, RankShared};
use crate::frame::{read_frame, write_frame, Frame, FrameKind, Hello};
use crate::payload::{WirePayload, WireReader};
use crate::rendezvous::{self, Roster};
use crate::socket::{
    connect_deadline, Endpoint, EpochVerdict, SocketBackend, SocketListener, SocketStream,
};
use crate::stats::RankStats;
use crate::trace::{self, ArgVal, TraceEvent, TraceKind};
use crate::world::{panic_text, EpochError, EpochFailure, EpochResult, RankOutcome, SimWorld};
use crate::BackendKind;

/// Rank of a spawned worker process.
pub const RANK_ENV_VAR: &str = "DSK_RANK";
/// First epoch a spawned worker joins live (earlier socket epochs
/// replay in-process).
pub const SPAWN_EPOCH_ENV_VAR: &str = "DSK_SPAWN_EPOCH";
/// Rendezvous base: a directory for Unix-domain sockets.
pub const RENDEZVOUS_ENV_VAR: &str = "DSK_RENDEZVOUS";
/// Test name the pool serves (workers ignore socket worlds on other
/// threads).
pub const TEST_NAME_ENV_VAR: &str = "DSK_TEST_NAME";
/// Optional `ip:base_port` switching the rendezvous to TCP: rank `r`
/// listens on `base_port + r`. This is the multi-host hook — with a
/// shared address every host can run its own ranks manually.
pub const SOCKET_ADDR_ENV_VAR: &str = "DSK_SOCKET_ADDR";

/// How long ranks wait for the per-epoch rendezvous (covers child boot
/// plus replay of earlier epochs).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(120);
/// Slack added to the receive watchdog for post-closure control waits.
const CONTROL_SLACK: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------
// Role detection
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
struct ChildInfo {
    rank: usize,
    spawn_epoch: u64,
    base: String,
    test_name: Option<String>,
    initial_ppid: u32,
}

#[derive(Debug, Clone)]
enum Role {
    Launcher,
    Child(ChildInfo),
}

fn role() -> &'static Role {
    static ROLE: OnceLock<Role> = OnceLock::new();
    ROLE.get_or_init(|| match std::env::var(RANK_ENV_VAR) {
        Err(_) => Role::Launcher,
        Ok(r) => Role::Child(ChildInfo {
            rank: r.parse().expect("DSK_RANK must be a rank number"),
            spawn_epoch: std::env::var(SPAWN_EPOCH_ENV_VAR)
                .expect("DSK_SPAWN_EPOCH missing")
                .parse()
                .expect("DSK_SPAWN_EPOCH must be an epoch number"),
            base: std::env::var(RENDEZVOUS_ENV_VAR).expect("DSK_RENDEZVOUS missing"),
            test_name: std::env::var(TEST_NAME_ENV_VAR).ok(),
            initial_ppid: std::os::unix::process::parent_id(),
        }),
    })
}

/// Whether this process is a spawned socket worker (a `DSK_RANK` child)
/// rather than the process the user started. Benchmark mains use this
/// to skip report writing in workers.
pub fn is_worker_process() -> bool {
    matches!(role(), Role::Child(_))
}

fn parent_died(info: &ChildInfo) -> Option<String> {
    let now = std::os::unix::process::parent_id();
    (now != info.initial_ppid).then(|| {
        format!(
            "rank {}: launcher process exited (ppid {} → {})",
            info.rank, info.initial_ppid, now
        )
    })
}

// ---------------------------------------------------------------------
// Endpoints
// ---------------------------------------------------------------------

fn endpoint_for(base: &str, rank: usize) -> Endpoint {
    match std::env::var(SOCKET_ADDR_ENV_VAR) {
        Ok(addr) => {
            let (host, port) = addr
                .rsplit_once(':')
                .expect("DSK_SOCKET_ADDR must be ip:base_port");
            let port: u16 = port.parse().expect("DSK_SOCKET_ADDR port");
            Endpoint::Tcp(
                format!("{host}:{}", port + rank as u16)
                    .parse()
                    .expect("DSK_SOCKET_ADDR address"),
            )
        }
        Err(_) => Endpoint::Unix(PathBuf::from(base).join(format!("r{rank}.sock"))),
    }
}

// ---------------------------------------------------------------------
// Per-thread epoch counter, dead set, and pools
// ---------------------------------------------------------------------

thread_local! {
    static EPOCH: Cell<u64> = const { Cell::new(0) };
    static POOL: RefCell<Option<Pool>> = const { RefCell::new(None) };
    static CHILD_LISTENER: RefCell<Option<SocketListener>> = const { RefCell::new(None) };
    /// Pool ids that died in an aborted elastic epoch. Maintained
    /// identically in every process (the coordinator from `try_wait`
    /// verdicts, workers and observers from `Abort` payloads), so the
    /// roster stays a pure function of replicated state.
    static DEAD_POOL_IDS: RefCell<BTreeSet<usize>> = const { RefCell::new(BTreeSet::new()) };
}

fn next_epoch() -> u64 {
    EPOCH.with(|e| {
        let cur = e.get();
        e.set(cur + 1);
        cur
    })
}

fn dead_ids() -> BTreeSet<usize> {
    DEAD_POOL_IDS.with(|d| d.borrow().clone())
}

fn mark_dead(ids: impl IntoIterator<Item = usize>) {
    DEAD_POOL_IDS.with(|d| d.borrow_mut().extend(ids));
}

fn clear_dead() {
    DEAD_POOL_IDS.with(|d| d.borrow_mut().clear());
}

/// The world rank a live pool id serves, given the dead set: its index
/// among live pool ids. `None` when it falls beyond the roster
/// (observer).
fn world_rank_of(pool_id: usize, dead: &BTreeSet<usize>, n: usize) -> Option<usize> {
    let pos = pool_id - dead.iter().filter(|&&d| d < pool_id).count();
    (pos < n).then_some(pos)
}

struct Pool {
    /// Live children as `(pool id, process)`, pool ids ascending.
    /// Pool id 0 is the launcher itself and never appears here.
    children: Vec<(usize, Child)>,
    /// Rank 0's persistent rendezvous listener.
    listener: SocketListener,
    base: String,
    /// Owned temp dir (Unix rendezvous) removed at drop.
    tmp_dir: Option<PathBuf>,
    dead: bool,
}

impl Pool {
    fn kill_all(&mut self) {
        self.dead = true;
        for (_, c) in &mut self.children {
            let _ = c.kill();
            let _ = c.wait();
        }
        self.children.clear();
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Children finish their own copy of the program; reap them off
        // the test thread so a slow child never blocks completion.
        let children = std::mem::take(&mut self.children);
        let tmp = self.tmp_dir.take();
        if children.is_empty() {
            if let Some(dir) = tmp {
                let _ = std::fs::remove_dir_all(dir);
            }
            return;
        }
        let _ = std::thread::Builder::new()
            .name("dsk-pool-reaper".to_string())
            .spawn(move || {
                for (_, mut c) in children {
                    let _ = c.wait();
                }
                if let Some(dir) = tmp {
                    let _ = std::fs::remove_dir_all(dir);
                }
            });
    }
}

/// Kills the pool if an epoch unwinds before completing, so a failing
/// test never leaves worker processes behind. Every epoch disarms it
/// once it ends in outcomes or a *handled* abort — the pool survives a
/// rank death ([`SimWorld::run`] tears it down itself before panicking).
struct EpochGuard<'a, 'b> {
    pool: &'a mut std::cell::RefMut<'b, Option<Pool>>,
    armed: bool,
}

impl Drop for EpochGuard<'_, '_> {
    fn drop(&mut self) {
        if self.armed {
            if let Some(p) = self.pool.as_mut() {
                p.kill_all();
            }
        }
    }
}

fn spawn_child(rank: usize, epoch: u64, base: &str, test_name: Option<&str>) -> Child {
    let exe = std::env::current_exe().expect("current_exe for socket worker spawn");
    let mut cmd = Command::new(exe);
    match test_name {
        Some(name) => {
            cmd.args([name, "--exact", "--test-threads=1", "--nocapture", "-q"]);
            cmd.env(TEST_NAME_ENV_VAR, name);
        }
        None => {
            cmd.args(std::env::args().skip(1));
        }
    }
    cmd.env(RANK_ENV_VAR, rank.to_string())
        .env(SPAWN_EPOCH_ENV_VAR, epoch.to_string())
        .env(RENDEZVOUS_ENV_VAR, base)
        .stdin(Stdio::null())
        // Workers re-print the whole program's stdout; drop it. Stderr
        // stays inherited so panic backtraces reach the console.
        .stdout(Stdio::null());
    cmd.spawn().expect("spawn socket worker process")
}

/// The test this thread is running, as libtest names it — `None` when
/// not on a libtest test thread (examples, doctests, plain mains).
fn current_test_name() -> Option<String> {
    match std::thread::current().name() {
        Some("main") | None => None,
        Some(name) => Some(name.to_string()),
    }
}

// ---------------------------------------------------------------------
// Outcome encoding
// ---------------------------------------------------------------------

/// One rank's epoch outcome on the wire: encoded value, stats, and the
/// rank's drained trace events (empty when tracing is off — the trace
/// section rides the `Outcome` **control** frame, so it never enters
/// word accounting).
type OutcomeEntry = (Vec<u8>, RankStats, Vec<TraceEvent>);

fn encode_outcome(value_bytes: &[u8], stats: &RankStats, events: &[TraceEvent]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(value_bytes.len() + 64);
    buf.extend_from_slice(&(value_bytes.len() as u64).to_le_bytes());
    buf.extend_from_slice(value_bytes);
    stats.encode(&mut buf);
    trace::encode_events(events, &mut buf);
    buf
}

fn decode_outcome(bytes: &[u8]) -> OutcomeEntry {
    let mut r = WireReader::new(bytes);
    let n = r.read_len();
    let value = r.bytes(n).to_vec();
    let stats = RankStats::decode(&mut r);
    let events = trace::decode_events(&mut r);
    assert!(r.is_empty(), "trailing bytes in outcome frame");
    (value, stats, events)
}

fn encode_outcome_set(entries: &[OutcomeEntry]) -> Vec<u8> {
    let mut buf = Vec::new();
    buf.extend_from_slice(&(entries.len() as u64).to_le_bytes());
    for (value, stats, events) in entries {
        let one = encode_outcome(value, stats, events);
        buf.extend_from_slice(&(one.len() as u64).to_le_bytes());
        buf.extend_from_slice(&one);
    }
    buf
}

fn decode_outcome_set(bytes: &[u8]) -> Vec<OutcomeEntry> {
    let mut r = WireReader::new(bytes);
    let n = r.read_len();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.read_len();
        let one = r.bytes(len);
        out.push(decode_outcome(one));
    }
    assert!(r.is_empty(), "trailing bytes in outcome set");
    out
}

fn outcomes_from_set<T: WirePayload>(set: &[OutcomeEntry]) -> Vec<RankOutcome<T>> {
    set.iter()
        .enumerate()
        .map(|(rank, (value, stats, _events))| RankOutcome {
            rank,
            value: T::from_wire(value),
            stats: stats.clone(),
        })
        .collect()
}

// ---------------------------------------------------------------------
// Handshake helpers
// ---------------------------------------------------------------------

fn send_hello(stream: &mut SocketStream, hello: Hello) -> Result<(), String> {
    write_frame(
        stream,
        &Frame::control(FrameKind::Hello, hello.rank as usize, hello.to_payload()),
    )
    .map(|_| ())
    .map_err(|e| format!("sending Hello: {e}"))
}

fn read_hello(stream: &mut SocketStream, deadline: Instant) -> Result<Hello, String> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    stream
        .set_read_timeout(Some(remaining.max(Duration::from_millis(10))))
        .map_err(|e| format!("setting handshake timeout: {e}"))?;
    let frame = read_frame(stream)
        .map_err(|e| format!("reading Hello: {e}"))?
        .ok_or_else(|| "peer closed during handshake".to_string())?;
    if frame.kind != FrameKind::Hello {
        return Err(format!("expected Hello, got {:?}", frame.kind));
    }
    Hello::from_payload(&frame.payload).map_err(|e| format!("bad Hello payload: {e}"))
}

fn read_roster(stream: &mut SocketStream, deadline: Instant) -> Result<Roster, String> {
    let remaining = deadline.saturating_duration_since(Instant::now());
    stream
        .set_read_timeout(Some(remaining.max(Duration::from_millis(10))))
        .map_err(|e| format!("setting handshake timeout: {e}"))?;
    let frame = read_frame(stream)
        .map_err(|e| format!("reading Roster: {e}"))?
        .ok_or_else(|| "coordinator closed during handshake".to_string())?;
    if frame.kind != FrameKind::Roster {
        return Err(format!("expected Roster, got {:?}", frame.kind));
    }
    Roster::from_payload(&frame.payload).map_err(|e| format!("bad Roster payload: {e}"))
}

fn validate_hello(hello: &Hello, epoch: u64, n: usize) -> Result<(), String> {
    rendezvous::validate_peer(hello).map_err(|e| e.to_string())?;
    if hello.epoch != epoch {
        return Err(format!(
            "rank {} is at epoch {}, this world is epoch {epoch} — \
             the SPMD program diverged across processes",
            hello.rank, hello.epoch
        ));
    }
    if hello.world_size as usize != n {
        return Err(format!(
            "rank {} expects a {}-rank world, this world has {n} ranks — \
             the SPMD program diverged across processes",
            hello.rank, hello.world_size
        ));
    }
    Ok(())
}

/// Decode an `Abort` payload into the shared [`EpochError`], updating
/// the local dead set. Every surviving process derives the identical
/// error from the identical payload — the dead set stays replicated
/// SPMD state.
fn epoch_error_from_abort(payload: &[u8], roster: &Roster) -> EpochError {
    let abort =
        Roster::from_payload(payload).unwrap_or_else(|e| panic!("undecodable Abort payload: {e}"));
    let dead_pool: Vec<usize> = abort.members.iter().map(|&m| m as usize).collect();
    mark_dead(dead_pool.iter().copied());
    // Dead pool ids → world ranks of the aborted epoch (observers that
    // died have no world rank and appear only in the dead set).
    let dead: Vec<usize> = dead_pool
        .iter()
        .filter_map(|d| roster.members.iter().position(|&m| m as usize == *d))
        .collect();
    let detail = if dead_pool.is_empty() {
        "a rank failed without dying (see its stderr for the panic)".to_string()
    } else {
        format!("pool process(es) {dead_pool:?} died mid-epoch")
    };
    EpochError {
        epoch: abort.epoch,
        dead,
        detail,
    }
}

// ---------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------

/// Run one socket-backed epoch — the body of both [`SimWorld::run`] and
/// [`SimWorld::try_run`]; see the module docs for the protocol. A rank
/// death aborts the epoch with an [`EpochError`] on every survivor
/// instead of killing the pool.
pub(crate) fn socket_epoch<T>(
    world: &SimWorld,
    f: &(dyn Fn(&mut Comm) -> T + Sync),
) -> EpochResult<T>
where
    T: WirePayload,
{
    let epoch = next_epoch();
    match role() {
        Role::Launcher => launcher_epoch(world, f, epoch),
        Role::Child(info) => {
            let info = info.clone();
            if !on_live_thread(&info, epoch) {
                // Replay: not this worker's live epoch. The in-process
                // backend reproduces the same values, word counts, Ok/Err
                // control flow and dead world ranks; the textual detail
                // of a failure may differ.
                return SimWorld::new(world.nranks(), *world.model())
                    .with_recv_timeout(world.recv_timeout_raw())
                    .backend(BackendKind::InProc)
                    .epoch(f);
            }
            match world_rank_of(info.rank, &dead_ids(), world.nranks()) {
                None => observer_epoch::<T>(world, epoch, &info),
                Some(_) => member_epoch(world, f, epoch, &info),
            }
        }
    }
}

/// Kill this thread's process pool, if it has one: [`SimWorld::run`]
/// tears the pool down before it panics on a failed epoch, so no worker
/// outlives the panic. Workers own no pool; there this does nothing.
pub(crate) fn kill_pool() {
    POOL.with(|pool| {
        if let Some(p) = pool.borrow_mut().as_mut() {
            p.kill_all();
        }
    });
}

fn on_live_thread(info: &ChildInfo, epoch: u64) -> bool {
    let on_my_thread = match (&info.test_name, current_test_name()) {
        (Some(want), Some(have)) => *want == have,
        (Some(_), None) => false,
        (None, have) => have.is_none(),
    };
    on_my_thread && epoch >= info.spawn_epoch
}

// ---------------------------------------------------------------------
// Launcher (rank 0)
// ---------------------------------------------------------------------

/// Build or grow the pool for an epoch of `n` ranks. Returns `false`
/// when no pool exists (single-rank world: peerless backend).
fn ensure_pool(pool_slot: &mut Option<Pool>, n: usize, epoch: u64) -> bool {
    let need_fresh = pool_slot.as_ref().is_none_or(|p| p.dead);
    if need_fresh && n > 1 {
        *pool_slot = None; // drop (and reap) any dead pool first
        clear_dead(); // a fresh pool starts with a clean slate
        static POOL_SEQ: AtomicU64 = AtomicU64::new(0);
        let seq = POOL_SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("dsk-sock-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create rendezvous dir");
        let base = dir.to_str().expect("rendezvous dir is UTF-8").to_string();
        let listener = SocketListener::bind(&endpoint_for(&base, 0)).expect("bind rank 0 listener");
        let test_name = current_test_name();
        let children = (1..n)
            .map(|r| (r, spawn_child(r, epoch, &base, test_name.as_deref())))
            .collect();
        *pool_slot = Some(Pool {
            children,
            listener,
            base,
            tmp_dir: Some(dir),
            dead: false,
        });
    } else if let Some(pool) = pool_slot.as_mut() {
        // Grow the pool when a later world is wider: new workers replay
        // earlier epochs in-process and join live here.
        if pool.children.len() + 1 < n {
            assert!(
                dead_ids().is_empty(),
                "cannot grow a socket world after a rank death: a fresh worker would have \
                 to replay the aborted epoch in-process, which is not reproducible — \
                 restart the program to rebuild a full pool"
            );
            let test_name = current_test_name();
            while pool.children.len() + 1 < n {
                let r = pool.children.last().map_or(1, |(id, _)| id + 1);
                pool.children
                    .push((r, spawn_child(r, epoch, &pool.base, test_name.as_deref())));
            }
        }
    }
    pool_slot.is_some()
}

/// The coordinator's half of the rendezvous: accept a Hello from every
/// live pool worker, validate it (compatibility triple, epoch, world
/// size, roster role), echo the epoch [`Roster`], and hand back the
/// assembled member backend plus the observer streams (tagged with
/// their pool ids). Any failure panics — rendezvous problems are never
/// elastic — and the caller's [`EpochGuard`] kills the pool.
fn launcher_rendezvous(
    pool: &mut Pool,
    world: &SimWorld,
    epoch: u64,
    roster: &Roster,
) -> (Arc<SocketBackend>, Vec<(usize, SocketStream)>) {
    let n = world.nranks();
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let live: BTreeSet<usize> = pool.children.iter().map(|(id, _)| *id).collect();
    let roster_frame = Frame::control(FrameKind::Roster, 0, roster.to_payload());

    let mut member_streams: Vec<Option<SocketStream>> = (0..n).map(|_| None).collect();
    let mut observers: Vec<(usize, SocketStream)> = Vec::new();
    let mut seen: BTreeSet<usize> = BTreeSet::new();
    while seen.len() < pool.children.len() {
        let slice = (Instant::now() + Duration::from_millis(200)).min(deadline);
        match pool.listener.accept_deadline(slice) {
            Ok(mut stream) => {
                let hello = read_hello(&mut stream, deadline)
                    .unwrap_or_else(|e| panic!("socket rendezvous failed: {e}"));
                let r = hello.rank as usize;
                let world_rank = roster.members.iter().position(|&m| m as usize == r);
                let valid = validate_hello(&hello, epoch, n).and_then(|()| {
                    if r == 0 || !live.contains(&r) || seen.contains(&r) {
                        Err(format!("unexpected Hello from rank {r}"))
                    } else if hello.observer != world_rank.is_none() {
                        Err(format!("rank {r} mis-classified itself"))
                    } else {
                        Ok(())
                    }
                });
                if let Err(e) = valid {
                    panic!("socket rendezvous failed: {e}");
                }
                // Echo the authoritative roster (the stream is idle:
                // the worker reads it before doing anything else).
                if let Err(e) = write_frame(&mut stream, &roster_frame) {
                    panic!("socket rendezvous failed: sending Roster to rank {r}: {e}");
                }
                seen.insert(r);
                match world_rank {
                    Some(w) => member_streams[w] = Some(stream),
                    None => observers.push((r, stream)),
                }
            }
            Err(e) => {
                // Timeout slice: check worker liveness, then the global
                // deadline.
                let early_exit = pool.children.iter_mut().find_map(|(id, c)| {
                    if seen.contains(id) {
                        return None;
                    }
                    match c.try_wait() {
                        Ok(Some(status)) => Some((*id, status)),
                        _ => None,
                    }
                });
                if let Some((id, status)) = early_exit {
                    panic!(
                        "rank {id} exited during rendezvous ({status}) — \
                         worker process failed before joining epoch {epoch}"
                    );
                }
                if Instant::now() >= deadline {
                    panic!("socket rendezvous failed: {e}");
                }
            }
        }
    }

    let backend = SocketBackend::assemble(0, n, world.recv_timeout_raw(), member_streams)
        .expect("assemble launcher socket backend");
    (backend, observers)
}

/// The launcher's epoch: build or grow the pool, rendezvous, and run
/// [`rank0_epoch`] under an armed [`EpochGuard`].
fn launcher_epoch<T>(
    world: &SimWorld,
    f: &(dyn Fn(&mut Comm) -> T + Sync),
    epoch: u64,
) -> EpochResult<T>
where
    T: WirePayload,
{
    let n = world.nranks();
    POOL.with(|pool_cell| {
        let mut pool_slot = pool_cell.borrow_mut();
        if !ensure_pool(&mut pool_slot, n, epoch) {
            // Single-rank world with no pool: a peerless socket backend.
            trace::install_and_sync(0);
            let backend = SocketBackend::assemble(0, 1, world.recv_timeout_raw(), vec![None])
                .expect("assemble peerless socket backend");
            let roster = rendezvous::roster_for(epoch, &[0], 1);
            return rank0_epoch(world, f, backend, Vec::new(), &mut Vec::new(), &roster);
        }

        let mut guard = EpochGuard {
            pool: &mut pool_slot,
            armed: true,
        };
        let pool = guard.pool.as_mut().unwrap();
        let mut live = vec![0usize];
        live.extend(pool.children.iter().map(|(id, _)| *id));
        let roster = rendezvous::roster_for(epoch, &live, n);
        trace::install(0);
        let rdv_start = Instant::now();
        let (backend, observers) = launcher_rendezvous(pool, world, epoch, &roster);
        trace::complete(TraceKind::Epoch, "epoch.rendezvous", rdv_start, || {
            vec![
                ("epoch".to_string(), ArgVal::Num(epoch as f64)),
                ("ranks".to_string(), ArgVal::Num(n as f64)),
            ]
        });
        trace::sync();
        let result = rank0_epoch(world, f, backend, observers, &mut pool.children, &roster);
        // Both outcomes are *handled* — the pool survives an abort.
        guard.armed = false;
        result
    })
}

/// Rank 0's epoch body: run the closure, drain, collect member
/// outcomes, broadcast the set (members via the backend, observers
/// directly), and assemble the result. Any failure enters the abort
/// protocol instead — collect a verdict from every member, broadcast
/// the dead pool ids, drop the dead from `children`, and return the
/// shared [`EpochError`]. Failures the protocol cannot contain panic;
/// the caller's [`EpochGuard`] then kills the pool.
fn rank0_epoch<T>(
    world: &SimWorld,
    f: &(dyn Fn(&mut Comm) -> T + Sync),
    backend: Arc<SocketBackend>,
    mut observers: Vec<(usize, SocketStream)>,
    children: &mut Vec<(usize, Child)>,
    roster: &Roster,
) -> EpochResult<T>
where
    T: WirePayload,
{
    let n = world.nranks();
    let shared = RankShared::new();
    let mut comm = Comm::world(
        Arc::clone(&backend) as Arc<dyn CommBackend>,
        *world.model(),
        shared,
        0,
    );
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut comm)));
    comm.finish();
    let my_stats = comm.stats_snapshot();

    let control_deadline = Instant::now() + world.recv_timeout_raw() + CONTROL_SLACK;
    let mut failure: Option<String> = result.as_ref().err().map(|p| panic_text(&**p));
    let mut member_outcomes: Vec<Vec<u8>> = Vec::new();
    if failure.is_none() && n > 1 {
        let drained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            backend.bye_all();
        }));
        if let Err(p) = drained {
            failure = Some(panic_text(&*p));
        } else if let Err(e) = backend.wait_byes(control_deadline) {
            failure = Some(e);
        } else {
            let leaked = backend.pending_messages();
            if leaked > 0 {
                failure = Some(format!(
                    "{leaked} message(s) were sent but never received — protocol bug"
                ));
            } else {
                match backend.wait_outcomes(control_deadline) {
                    Ok(o) => member_outcomes = o,
                    Err(e) => failure = Some(e),
                }
            }
        }
    }

    let Some(root_cause) = failure else {
        // Clean epoch: broadcast the outcome set.
        let value = result.unwrap_or_else(|_| unreachable!());
        let mut entries: Vec<OutcomeEntry> = Vec::with_capacity(n);
        entries.push((value.to_wire(), my_stats.clone(), trace::drain()));
        for bytes in member_outcomes.into_iter().skip(1) {
            entries.push(decode_outcome(&bytes));
        }
        let set_frame_bytes =
            Frame::control(FrameKind::OutcomeSet, 0, encode_outcome_set(&entries)).to_bytes();
        for r in 1..n {
            if let Err(e) = backend.write_frame_bytes_sync(r, &set_frame_bytes) {
                // A member died *after* reporting its outcome: some of
                // its peers may already hold the broadcast, so an abort
                // would split the survivors' control flow. Contain.
                panic!("broadcasting outcomes to rank {r} failed: {e}");
            }
        }
        for (_, obs) in &mut observers {
            // A dead observer cannot split the members' control flow;
            // its exit is caught at the next rendezvous.
            let _ = obs.write_all_shared(&set_frame_bytes);
        }
        backend.mark_finished();
        trace::gather_epoch(
            entries
                .iter_mut()
                .map(|e| std::mem::take(&mut e.2))
                .collect(),
        );
        let mut out = Vec::with_capacity(n);
        out.push(RankOutcome {
            rank: 0,
            value,
            stats: my_stats,
        });
        for (rank, (bytes, stats, _)) in entries.iter().enumerate().skip(1) {
            out.push(RankOutcome {
                rank,
                value: T::from_wire(bytes),
                stats: stats.clone(),
            });
        }
        return Ok(out);
    };

    // ----- Abort protocol -----
    // The root cause `SimWorld::run` panics with, taken before the nudge
    // below makes members report collateral errors: a member's reported
    // failure, else rank 0's own panic, else the drain failure.
    let cause = match backend.first_error() {
        Some((rank, msg)) => format!("rank {rank} panicked: {msg}"),
        None if result.is_err() => format!("rank 0 panicked: {root_cause}"),
        None => root_cause.clone(),
    };
    // Nudge survivors blocked in data receives: an Error frame poisons
    // their mailbox, so they fail over to their own abort path fast
    // instead of waiting out the watchdog.
    for w in 1..n {
        let nudge = format!("epoch aborted: {root_cause}");
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            backend.send_control(w, FrameKind::Error, nudge.into_bytes());
        }));
    }

    // Collect a verdict for every member world rank: an Outcome or
    // Error frame (alive, past its epoch body) or its process's exit
    // status (dead). Unaccounted members past the deadline mean the
    // abort cannot complete consistently — contain by killing the pool.
    let mut dead_pool_ids: BTreeSet<usize> = BTreeSet::new();
    loop {
        for (id, c) in children.iter_mut() {
            if let Ok(Some(_)) = c.try_wait() {
                dead_pool_ids.insert(*id);
            }
        }
        let checkin = backend.member_checkin();
        let covered =
            (1..n).all(|w| checkin[w] || dead_pool_ids.contains(&(roster.members[w] as usize)));
        if covered {
            break;
        }
        if Instant::now() >= control_deadline {
            panic!(
                "elastic abort failed: surviving member(s) stayed unresponsive after a \
                 mid-epoch failure: {root_cause}"
            );
        }
        std::thread::sleep(Duration::from_millis(10));
    }

    // Broadcast the verdict: the dead pool ids, Roster-encoded. Members
    // get it through their writer threads; observer streams are
    // launcher-owned and idle, so a direct write is safe.
    let abort_payload = Roster {
        epoch: roster.epoch,
        members: dead_pool_ids.iter().map(|&id| id as u32).collect(),
    }
    .to_payload();
    let abort_frame_bytes = Frame::control(FrameKind::Abort, 0, abort_payload.clone()).to_bytes();
    for w in 1..n {
        if !dead_pool_ids.contains(&(roster.members[w] as usize)) {
            let payload = abort_payload.clone();
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                backend.send_control(w, FrameKind::Abort, payload);
            }));
        }
    }
    for (id, obs) in &mut observers {
        if !dead_pool_ids.contains(id) {
            let _ = obs.write_all_shared(&abort_frame_bytes);
        }
    }
    backend.mark_finished();

    // Rank 0's own timeline still reaches the trace file: survivors'
    // buffers cannot ride Outcome frames through an abort (under the
    // in-memory backends they do survive — see `SimWorld::try_run`).
    trace::mark(TraceKind::Epoch, "epoch.abort", || {
        vec![("detail".to_string(), ArgVal::Str(root_cause.clone()))]
    });
    trace::gather_epoch(vec![trace::drain()]);

    // Shrink the pool: the dead children are already reaped (try_wait
    // returned their status) — drop their handles.
    children.retain(|(id, _)| !dead_pool_ids.contains(id));
    Err(EpochFailure {
        error: epoch_error_from_abort(&abort_payload, roster),
        cause,
    })
}

// ---------------------------------------------------------------------
// Worker processes
// ---------------------------------------------------------------------

fn child_fail(backend: Option<&SocketBackend>, msg: String) -> ! {
    if let Some(b) = backend {
        // Best-effort: route the root cause to rank 0, give the writer
        // thread a moment to flush, then die non-zero.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.send_control(0, FrameKind::Error, msg.clone().into_bytes());
        }));
        std::thread::sleep(Duration::from_millis(100));
    }
    let _ = writeln!(std::io::stderr(), "socket worker failed: {msg}");
    std::process::exit(101);
}

/// A member's half of the rendezvous: dial the coordinator (stage 1:
/// pool-id Hello, read the [`Roster`] echo), then mesh with the other
/// members (world-rank Hellos), and assemble the backend. Returns the
/// backend, this process's world rank, and the roster.
fn member_rendezvous(
    world: &SimWorld,
    epoch: u64,
    info: &ChildInfo,
) -> (Arc<SocketBackend>, usize, Roster) {
    let n = world.nranks();
    let me = info.rank; // pool id
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let abort = || parent_died(info);

    CHILD_LISTENER.with(|cell| {
        let mut listener = cell.borrow_mut();
        if listener.is_none() {
            *listener = Some(
                SocketListener::bind(&endpoint_for(&info.base, me)).expect("bind worker listener"),
            );
        }

        // Stage 1: dial the coordinator with our pool id and role
        // guess, and adopt the echoed roster.
        let mut s0 = match connect_deadline(&endpoint_for(&info.base, 0), deadline, &abort) {
            Ok(s) => s,
            Err(e) => child_fail(None, format!("rank {me}: {e}")),
        };
        if let Err(e) = send_hello(
            &mut s0,
            rendezvous::local_hello(me as u32, n as u32, epoch, false),
        ) {
            child_fail(None, format!("rank {me}: {e}"));
        }
        let roster = match read_roster(&mut s0, deadline) {
            Ok(r) => r,
            Err(e) => child_fail(None, format!("rank {me}: {e}")),
        };
        if roster.epoch != epoch {
            child_fail(
                None,
                format!(
                    "rank {me}: coordinator sent a roster for epoch {}, expected {epoch}",
                    roster.epoch
                ),
            );
        }
        let Some(w) = roster.members.iter().position(|&m| m as usize == me) else {
            child_fail(
                None,
                format!(
                    "rank {me}: the coordinator roster {:?} omits this live member",
                    roster.members
                ),
            );
        };
        // Cross-check the pure-function roster against the echo: a
        // mismatch means the dead set diverged across processes.
        if world_rank_of(me, &dead_ids(), n) != Some(w) {
            child_fail(
                None,
                format!(
                    "rank {me}: roster mismatch — coordinator places this pool id at world \
                     rank {w}, but the local dead set {:?} implies {:?} (dead-set divergence)",
                    dead_ids(),
                    world_rank_of(me, &dead_ids(), n)
                ),
            );
        }

        // Mesh: dial every lower member at its pool id's endpoint with
        // a world-rank Hello, then accept every higher member. Backlog
        // queues make the order safe.
        let mut streams: Vec<Option<SocketStream>> = (0..n).map(|_| None).collect();
        streams[0] = Some(s0);
        for peer_w in 1..w {
            let peer_pool = roster.members[peer_w] as usize;
            let mut s =
                match connect_deadline(&endpoint_for(&info.base, peer_pool), deadline, &abort) {
                    Ok(s) => s,
                    Err(e) => child_fail(None, format!("rank {me}: {e}")),
                };
            if let Err(e) = send_hello(
                &mut s,
                rendezvous::local_hello(w as u32, n as u32, epoch, false),
            ) {
                child_fail(None, format!("rank {me}: {e}"));
            }
            streams[peer_w] = Some(s);
        }
        let mut missing = n.saturating_sub(w + 1);
        while missing > 0 {
            if let Some(why) = abort() {
                child_fail(None, why);
            }
            let slice = (Instant::now() + Duration::from_millis(200)).min(deadline);
            let Ok(mut stream) = listener.as_ref().unwrap().accept_deadline(slice) else {
                if Instant::now() >= deadline {
                    child_fail(None, format!("rank {me}: rendezvous accept timed out"));
                }
                continue;
            };
            let hello = match read_hello(&mut stream, deadline) {
                Ok(h) => h,
                Err(e) => child_fail(None, format!("rank {me}: {e}")),
            };
            let r = hello.rank as usize;
            if let Err(e) = validate_hello(&hello, epoch, n) {
                child_fail(None, format!("rank {me}: {e}"));
            }
            if r <= w || r >= n || streams[r].is_some() {
                child_fail(None, format!("rank {me}: unexpected Hello from rank {r}"));
            }
            streams[r] = Some(stream);
            missing -= 1;
        }

        let backend = SocketBackend::assemble(w, n, world.recv_timeout_raw(), streams)
            .expect("assemble worker socket backend");
        (backend, w, roster)
    })
}

/// Start a member's per-epoch recorder: the rendezvous that just
/// completed becomes the epoch's first span (its timestamp is negative
/// — before the clock anchor), and the [`trace::SYNC_EVENT`] mark at
/// rendezvous-complete is what the launcher aligns all ranks' clocks
/// on.
fn member_trace_begin(world_rank: usize, epoch: u64, n: usize, rdv_start: Instant) {
    if !trace::enabled() {
        return;
    }
    trace::install(world_rank);
    trace::complete(TraceKind::Epoch, "epoch.rendezvous", rdv_start, || {
        vec![
            ("epoch".to_string(), ArgVal::Num(epoch as f64)),
            ("ranks".to_string(), ArgVal::Num(n as f64)),
        ]
    });
    trace::sync();
}

/// A member's epoch body: any local failure is reported to the
/// coordinator and both paths converge on
/// [`SocketBackend::wait_verdict`] — the epoch ends in the identical
/// `Ok(outcomes)` or `Err(EpochError)` on every surviving process.
fn member_epoch<T>(
    world: &SimWorld,
    f: &(dyn Fn(&mut Comm) -> T + Sync),
    epoch: u64,
    info: &ChildInfo,
) -> EpochResult<T>
where
    T: WirePayload,
{
    let rdv_start = Instant::now();
    let (backend, me, roster) = member_rendezvous(world, epoch, info);
    member_trace_begin(me, epoch, world.nranks(), rdv_start);

    let shared = RankShared::new();
    let mut comm = Comm::world(
        Arc::clone(&backend) as Arc<dyn CommBackend>,
        *world.model(),
        shared,
        me,
    );
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut comm)));
    comm.finish();
    let stats = comm.stats_snapshot();
    let my_trace = trace::drain();

    let control_deadline = Instant::now() + world.recv_timeout_raw() + CONTROL_SLACK;
    let mut failure: Option<String> = result.as_ref().err().map(|p| panic_text(&**p));
    if failure.is_none() {
        let drained = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            backend.bye_all();
        }));
        if let Err(p) = drained {
            failure = Some(panic_text(&*p));
        } else if let Err(e) = backend.wait_byes(control_deadline) {
            failure = Some(e);
        } else {
            let leaked = backend.pending_messages();
            if leaked > 0 {
                failure = Some(format!(
                    "{leaked} message(s) were sent but never received — protocol bug"
                ));
            }
        }
    }
    if let (None, Ok(value)) = (&failure, &result) {
        let outcome = encode_outcome(&value.to_wire(), &stats, &my_trace);
        let sent = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            backend.send_control(0, FrameKind::Outcome, outcome);
        }));
        if let Err(p) = sent {
            failure = Some(panic_text(&*p));
        }
    }
    if let Some(msg) = &failure {
        // Report the root cause; the coordinator counts this as our
        // check-in and will answer with the verdict.
        let msg = msg.clone();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            backend.send_control(0, FrameKind::Error, msg.into_bytes());
        }));
    }
    match backend.wait_verdict(control_deadline) {
        Ok(EpochVerdict::Outcomes(set)) => {
            if let Some(msg) = failure {
                // The coordinator declared success but this rank failed
                // — the abort machinery diverged; contain loudly.
                child_fail(
                    Some(backend.as_ref()),
                    format!("rank {me}: epoch verdict disagreement after local failure: {msg}"),
                );
            }
            backend.mark_finished();
            Ok(outcomes_from_set(&decode_outcome_set(&set)))
        }
        Ok(EpochVerdict::Aborted(payload)) => {
            backend.mark_finished();
            Err(epoch_error_from_abort(&payload, &roster).into())
        }
        Err(e) => child_fail(Some(backend.as_ref()), format!("rank {me}: {e}")),
    }
}

/// An observer's stage-1 dial-in: Hello (observer role), Roster echo,
/// role validation. Returns the coordinator stream.
fn observer_rendezvous(world: &SimWorld, epoch: u64, info: &ChildInfo) -> SocketStream {
    let me = info.rank;
    let deadline = Instant::now() + HANDSHAKE_TIMEOUT;
    let abort = || parent_died(info);
    let mut stream = match connect_deadline(&endpoint_for(&info.base, 0), deadline, &abort) {
        Ok(s) => s,
        Err(e) => child_fail(None, format!("rank {me}: {e}")),
    };
    if let Err(e) = send_hello(
        &mut stream,
        rendezvous::local_hello(me as u32, world.nranks() as u32, epoch, true),
    ) {
        child_fail(None, format!("rank {me}: {e}"));
    }
    let roster = match read_roster(&mut stream, deadline) {
        Ok(r) => r,
        Err(e) => child_fail(None, format!("rank {me}: {e}")),
    };
    if roster.epoch != epoch || roster.members.iter().any(|&m| m as usize == me) {
        child_fail(
            None,
            format!(
                "rank {me}: coordinator roster {:?} (epoch {}) conflicts with this \
                 process's observer role at epoch {epoch}",
                roster.members, roster.epoch
            ),
        );
    }
    stream
}

/// An observer's epoch body: dial in, then wait (bounded, polling the
/// launcher's health) for the epoch verdict — the outcome broadcast or
/// an `Abort`.
fn observer_epoch<T: WirePayload>(
    world: &SimWorld,
    epoch: u64,
    info: &ChildInfo,
) -> EpochResult<T> {
    let me = info.rank;
    let abort = || parent_died(info);
    let mut stream = observer_rendezvous(world, epoch, info);
    // The roster the members run under (observers need it to map dead
    // pool ids to world ranks in an Abort).
    let dead = dead_ids();
    let live_sorted: Vec<u32> = {
        // Observers don't know the full pool, but the roster is the n
        // smallest live ids — all smaller than this observer's own id,
        // so it can enumerate them locally.
        (0..me)
            .filter(|id| !dead.contains(id))
            .take(world.nranks())
            .map(|id| id as u32)
            .collect()
    };
    let roster = Roster {
        epoch,
        members: live_sorted,
    };
    let wait_deadline = Instant::now() + world.recv_timeout_raw() + HANDSHAKE_TIMEOUT;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(500)));
    loop {
        if let Some(why) = abort() {
            child_fail(None, why);
        }
        match read_frame(&mut stream) {
            Ok(Some(frame)) if frame.kind == FrameKind::OutcomeSet => {
                return Ok(outcomes_from_set(&decode_outcome_set(&frame.payload)));
            }
            Ok(Some(frame)) if frame.kind == FrameKind::Abort => {
                return Err(epoch_error_from_abort(&frame.payload, &roster).into());
            }
            Ok(Some(frame)) => child_fail(
                None,
                format!("rank {me}: expected an epoch verdict, got {:?}", frame.kind),
            ),
            Ok(None) => child_fail(
                None,
                format!("rank {me}: launcher closed before the epoch verdict"),
            ),
            Err(crate::frame::DecodeError::Io(e))
                if e.contains(crate::frame::TIMEOUT_AT_BOUNDARY) =>
            {
                if Instant::now() >= wait_deadline {
                    child_fail(
                        None,
                        format!("rank {me}: timed out awaiting the epoch verdict"),
                    );
                }
            }
            Err(e) => child_fail(None, format!("rank {me}: {e}")),
        }
    }
}
