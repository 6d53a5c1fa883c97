//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only around the benchmark's own calls into the
//! crates and inside its decorators; nothing in the program is changed.
//! Each span carries its layer (the crate it enters), the span that was
//! open on the same thread when it started, and the id of the round,
//! step or job it belongs to. Recording is off unless [`set_enabled`]
//! turned it on, and everything is written out once, at the end.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static OP: Cell<u64> = const { Cell::new(0) };
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// Span open on this thread when this one started.
    pub parent: Option<u64>,
    /// Crate the span's call enters, e.g. `pac-store`.
    pub layer: &'static str,
    /// What the call does, e.g. `store.commit`.
    pub name: &'static str,
    /// Round, step or job id the span belongs to.
    pub op: u64,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// A layer probe outside the workload's own operations.
    pub probe: bool,
}

impl Span {
    /// Wall time the span covers.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

fn spans() -> &'static Mutex<Vec<Span>> {
    static SPANS: OnceLock<Mutex<Vec<Span>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off for the whole process.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Sets the round, step or job id that spans opened on this thread
/// belong to.
pub fn set_op(op: u64) {
    OP.with(|o| o.set(op));
}

/// An open span; recorded when dropped.
#[must_use = "the span measures until it is dropped"]
pub struct Guard {
    open: Option<(u64, Option<u64>, u64)>,
    layer: &'static str,
    name: &'static str,
    probe: bool,
}

/// Opens a span for a call into `layer`.
pub fn span(layer: &'static str, name: &'static str) -> Guard {
    open(layer, name, false)
}

/// Opens a span for a layer probe.
pub fn probe(layer: &'static str, name: &'static str) -> Guard {
    open(layer, name, true)
}

fn open(layer: &'static str, name: &'static str, probe: bool) -> Guard {
    let open = enabled().then(|| {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        (id, parent, now_ns())
    });
    Guard {
        open,
        layer,
        name,
        probe,
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((id, parent, start_ns)) = self.open {
            let end_ns = now_ns();
            STACK.with(|s| {
                let mut s = s.borrow_mut();
                if let Some(pos) = s.iter().rposition(|&x| x == id) {
                    s.truncate(pos);
                }
            });
            let span = Span {
                id,
                parent,
                layer: self.layer,
                name: self.name,
                op: OP.with(Cell::get),
                start_ns,
                end_ns,
                probe: self.probe,
            };
            if let Ok(mut all) = spans().lock() {
                all.push(span);
            }
        }
    }
}

/// Records a child of `parent` whose duration is known but whose
/// position inside the parent is not: a total the program's own
/// telemetry measured inside the call the parent span covers. It is
/// placed at the parent's start and marked by its `telemetry.` name.
pub fn derived_child(parent: &Span, layer: &'static str, name: &'static str, dur_ns: u64) {
    let span = Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: Some(parent.id),
        layer,
        name,
        op: parent.op,
        start_ns: parent.start_ns,
        end_ns: parent.start_ns + dur_ns.min(parent.dur_ns()),
        probe: parent.probe,
    };
    spans().lock().expect("span list poisoned").push(span);
}

/// The most recently finished span called `name`, if any.
pub fn last_named(name: &str) -> Option<Span> {
    let all = spans().lock().expect("span list poisoned");
    all.iter().rev().find(|s| s.name == name).cloned()
}

/// A copy of every span recorded so far.
pub fn snapshot() -> Vec<Span> {
    spans().lock().expect("span list poisoned").clone()
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *spans().lock().expect("span list poisoned"))
}

/// Self time per layer over the non-probe spans: each span's duration
/// minus the durations of its direct children (children of one span run
/// one after another on its thread, so their durations add up).
pub fn self_ns_by_layer(all: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in all {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    let mut out = BTreeMap::new();
    for s in all.iter().filter(|s| !s.probe) {
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *out.entry(s.layer).or_default() += own;
    }
    out
}

/// The spans as a JSON array, one object per line.
pub fn to_json(all: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, s) in all.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"op\":{},\
             \"start_ns\":{},\"end_ns\":{},\"probe\":{}}}{}",
            s.id,
            parent,
            s.layer,
            s.name,
            s.op,
            s.start_ns,
            s.end_ns,
            s.probe,
            if i + 1 < all.len() { "," } else { "" }
        );
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u64, parent: Option<u64>, layer: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            layer,
            name: "t",
            op: 0,
            start_ns: start,
            end_ns: end,
            probe: false,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let all = vec![
            mk(1, None, "pac-core", 0, 100),
            mk(2, Some(1), "pac-store", 10, 30),
            mk(3, Some(1), "pac-parallel", 40, 80),
            mk(4, Some(3), "pac-store", 50, 60),
        ];
        let by = self_ns_by_layer(&all);
        assert_eq!(by["pac-core"], 40);
        assert_eq!(by["pac-parallel"], 30);
        assert_eq!(by["pac-store"], 30);
    }
}
