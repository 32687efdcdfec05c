//! In-memory spans recorded around calls into the sxr crates.
//!
//! A span holds a name, start, end, parent and op id.  Spans stay in
//! memory and are written out when the run ends.  A layer's self time is
//! its span's duration minus its children's.  The tracer is process-global
//! because the staged compile runs on its own thread and the verifier is a
//! plain function pointer; the thread that opened a span is always blocked
//! while another thread records children under it, so one stack of open
//! spans suffices.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Tracer {
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

static TRACER: Mutex<Option<Tracer>> = Mutex::new(None);

fn with<R>(f: impl FnOnce(&mut Tracer) -> R) -> Option<R> {
    let mut guard = TRACER.lock().expect("tracer lock poisoned by a panic");
    guard.as_mut().map(f)
}

/// Starts recording (discarding any earlier spans).
pub fn start() {
    *TRACER.lock().expect("tracer lock poisoned by a panic") = Some(Tracer {
        epoch: Instant::now(),
        op: 0,
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Stops recording and returns every span.
pub fn finish() -> Vec<Span> {
    TRACER
        .lock()
        .expect("tracer lock poisoned by a panic")
        .take()
        .map(|t| t.spans)
        .unwrap_or_default()
}

/// Tags the spans opened from now on with `op`.
pub fn set_op(op: u64) {
    with(|t| t.op = op);
}

/// Runs `f` inside a span called `name` (just runs it when not recording).
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let id = with(|t| {
        let id = t.spans.len();
        let start_ns = t.epoch.elapsed().as_nanos() as u64;
        t.spans.push(Span {
            name,
            op: t.op,
            parent: t.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        t.open.push(id);
        id
    });
    let r = f();
    if let Some(id) = id {
        with(|t| {
            t.spans[id].end_ns = t.epoch.elapsed().as_nanos() as u64;
            let top = t.open.pop();
            debug_assert_eq!(top, Some(id), "spans close in LIFO order");
        });
    }
    r
}

/// Self time in nanoseconds per `(op, span name)`: each span's duration
/// minus its children's, summed over the op's spans of that name.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, BTreeMap<&'static str, u64>> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.duration_ns();
        }
    }
    let mut out: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        *out.entry(s.op).or_default().entry(s.name).or_default() +=
            s.duration_ns().saturating_sub(child_ns[i]);
    }
    out
}

/// Total duration in nanoseconds per `(op, span name)`.
pub fn durations(spans: &[Span]) -> BTreeMap<u64, BTreeMap<&'static str, u64>> {
    let mut out: BTreeMap<u64, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for s in spans {
        *out.entry(s.op).or_default().entry(s.name).or_default() += s.duration_ns();
    }
    out
}

/// The spans as JSON lines.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}\n",
            s.name, s.op, s.start_ns, s.end_ns
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            op: 7,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            sp("op", None, 0, 100),
            sp("a", Some(0), 10, 40),
            sp("b", Some(1), 15, 25),
            sp("a", Some(0), 50, 60),
        ];
        let st = &self_times(&spans)[&7];
        assert_eq!(st["op"], 60);
        assert_eq!(st["a"], 30);
        assert_eq!(st["b"], 10);
        assert_eq!(durations(&spans)[&7]["a"], 40);
    }
}
