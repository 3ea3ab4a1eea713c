//! The traced run's span recorder: one span (name, start, end, parent)
//! around every call the benchmark makes into a layer of the program.
//!
//! Spans are kept in memory and written out once, when the run ends.
//! Recording is off unless [`enable`] was called, and a thread records
//! only after it [`adopt`]s a parent (the main thread adopts the root;
//! a rank closure adopts the span that launched its world), so only the
//! benchmark's own call sites on rank 0 appear in the trace.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded interval. `id` is the span's index in the trace;
/// `parent` is the span that was open on the same thread (or adopted)
/// when this one started.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Index in the recorded trace.
    pub id: usize,
    /// Enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// `<layer>.<call>`, e.g. `core.build` or `kernels.fused`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's clock origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's clock origin.
    pub end_ns: u64,
}

impl Span {
    /// The layer a span belongs to: the name up to the first `.`.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static ACTIVE: Cell<bool> = const { Cell::new(false) };
    static STACK: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

fn now_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

fn lock() -> std::sync::MutexGuard<'static, Vec<Span>> {
    SPANS.lock().expect("span recorder poisoned by a panic")
}

/// Switch recording on or off for the whole process.
pub fn enable(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether recording is switched on for the process.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::SeqCst)
}

fn recording() -> bool {
    ENABLED.load(Ordering::SeqCst) && ACTIVE.with(Cell::get)
}

/// The innermost open span on this thread, if it records.
pub fn current() -> Option<usize> {
    if !recording() {
        return None;
    }
    STACK.with(|s| s.borrow().last().copied())
}

/// An open span; closes when dropped.
#[must_use = "a span closes when its guard drops"]
pub struct SpanGuard {
    id: Option<usize>,
}

/// Open a span named `name` under the current one.
pub fn span(name: &'static str) -> SpanGuard {
    if !recording() {
        return SpanGuard { id: None };
    }
    let parent = STACK.with(|s| s.borrow().last().copied());
    let start_ns = now_ns();
    let id = {
        let mut spans = lock();
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        id
    };
    STACK.with(|s| s.borrow_mut().push(id));
    SpanGuard { id: Some(id) }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let end = now_ns();
            STACK.with(|s| {
                let popped = s.borrow_mut().pop();
                debug_assert_eq!(popped, Some(id), "spans closed out of order");
            });
            if let Ok(mut spans) = SPANS.lock() {
                spans[id].end_ns = end;
            }
        }
    }
}

/// Restores a thread's previous recording state when dropped.
pub struct AdoptGuard {
    prev_active: bool,
    prev_stack: Vec<usize>,
}

/// Make this thread record, with `parent` as its enclosing span.
pub fn adopt(parent: Option<usize>) -> AdoptGuard {
    let prev_active = ACTIVE.with(|a| a.replace(true));
    let prev_stack =
        STACK.with(|s| std::mem::replace(&mut *s.borrow_mut(), parent.into_iter().collect()));
    AdoptGuard {
        prev_active,
        prev_stack,
    }
}

impl Drop for AdoptGuard {
    fn drop(&mut self) {
        ACTIVE.with(|a| a.set(self.prev_active));
        let prev = std::mem::take(&mut self.prev_stack);
        STACK.with(|s| *s.borrow_mut() = prev);
    }
}

/// Take every recorded span, leaving the recorder empty.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *lock())
}

/// Check the trace's structure: ids are indices, every span ends after
/// it starts, and every child lies inside its parent. Returns the first
/// violation found.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.id != i {
            return Err(format!("span {i} carries id {}", s.id));
        }
        if s.end_ns < s.start_ns {
            return Err(format!("{} (#{i}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let Some(ps) = spans.get(p) else {
                return Err(format!("{} (#{i}) has unknown parent #{p}", s.name));
            };
            if p >= i || s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                return Err(format!(
                    "{} (#{i}) [{}, {}] escapes its parent {} (#{p}) [{}, {}]",
                    s.name, s.start_ns, s.end_ns, ps.name, ps.start_ns, ps.end_ns
                ));
            }
        }
    }
    Ok(())
}

/// Self time per layer in milliseconds: each span's duration minus the
/// part its children cover, summed by [`Span::layer`]. Children of one
/// parent run on one thread, one after another, so their durations add.
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (s, c) in spans.iter().zip(child_ns) {
        let own = (s.end_ns - s.start_ns).saturating_sub(c);
        *out.entry(s.layer()).or_insert(0.0) += own as f64 * 1e-6;
    }
    out
}

/// [`self_ms_by_layer`] restricted to the spans named `root` and the
/// spans below them.
pub fn self_ms_by_layer_within(spans: &[Span], root: &str) -> BTreeMap<&'static str, f64> {
    let within = |s: &Span| {
        let mut at = Some(s.id);
        while let Some(i) = at {
            if spans[i].name == root {
                return true;
            }
            at = spans[i].parent;
        }
        false
    };
    let kept: Vec<Span> = spans
        .iter()
        .map(|s| Span {
            // Spans outside the subtree keep their place (ids are
            // indices) but contribute no time.
            end_ns: if within(s) { s.end_ns } else { s.start_ns },
            ..s.clone()
        })
        .collect();
    self_ms_by_layer(&kept)
        .into_iter()
        .filter(|&(_, ms)| ms > 0.0)
        .collect()
}

/// The trace as Chrome trace-event JSON (loadable in Perfetto).
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}{}\n",
            s.name,
            s.layer(),
            s.start_ns as f64 * 1e-3,
            (s.end_ns - s.start_ns) as f64 * 1e-3,
            s.id,
            parent,
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]}\n");
    out
}
