//! In-memory spans recorded from the benchmark's own code, around the
//! calls into each layer's public functions.
//!
//! A span is `(name, start, end, parent, op)`. Spans of one operation
//! share its op id; a span's parent is the span that was open when it
//! began. Nothing is written until the run ends ([`Tracer::write`]).
//! Self time is a span's duration minus the part its direct children
//! cover.

use std::path::Path;
use std::time::Instant;

use fsi_runtime::trace::Json;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Metric-style name of the call, e.g. `selinv.cls`.
    pub name: &'static str,
    /// Nanoseconds from the tracer's origin to the start.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's origin to the end.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation.
    pub op: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Clone, Copy, Debug)]
pub struct Open(usize);

/// A single-threaded span recorder. Threads each own one (sharing the
/// origin) and the results are merged with [`Tracer::absorb`].
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A recorder measuring from `origin`.
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Sets the op id stamped on spans entered from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> Open {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(id);
        Open(id)
    }

    /// Closes the innermost open span.
    ///
    /// # Panics
    /// If `span` is not the innermost open span (spans must nest).
    pub fn exit(&mut self, span: Open) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(span.0), "spans must close innermost-first");
        self.spans[span.0].end_ns = end_ns;
    }

    /// Closes every open span now — for an operation abandoned on an
    /// error, so the next one starts at the top level again.
    pub fn close_all(&mut self) {
        let end_ns = self.now_ns();
        for id in self.open.drain(..) {
            self.spans[id].end_ns = end_ns;
        }
    }

    /// Records `f` as a span without children of its own.
    pub fn leaf<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let s = self.enter(name);
        let out = f();
        self.exit(s);
        out
    }

    /// Appends another recorder's closed spans (parents re-indexed).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in spans called `name`, summed per op, in op order.
    /// Ops without such a span do not appear.
    pub fn per_op(&self, name: &str) -> Vec<f64> {
        let mut sums: std::collections::BTreeMap<u64, f64> = std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *sums.entry(s.op).or_insert(0.0) += s.seconds();
        }
        sums.into_values().collect()
    }

    /// Self time of every span in nanoseconds: duration minus the
    /// duration of its direct children.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// The trace as one JSON document.
    pub fn to_json(&self, workload: &str) -> Json {
        let own = self.self_ns();
        let spans = self
            .spans
            .iter()
            .zip(&own)
            .map(|(s, &self_ns)| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(s.name.into())),
                    ("op".into(), Json::Int(s.op)),
                    ("start_ns".into(), Json::Int(s.start_ns)),
                    ("end_ns".into(), Json::Int(s.end_ns)),
                    ("self_ns".into(), Json::Int(self_ns)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(workload.into())),
            ("spans".into(), Json::Arr(spans)),
        ])
    }

    /// Writes the trace to `path` (tmp + rename).
    ///
    /// # Errors
    /// Filesystem errors.
    pub fn write(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        fsi_runtime::ckpt::write_atomic(path, self.to_json(workload).to_string().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut t = Tracer::new(Instant::now());
        t.set_op(7);
        let outer = t.enter("outer");
        t.leaf("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.leaf("inner", || ());
        t.exit(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        let own = t.self_ns();
        let children: u64 = spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(own[0], spans[0].end_ns - spans[0].start_ns - children);
        // Two "inner" spans of one op sum into one per-op entry.
        assert_eq!(t.per_op("inner").len(), 1);
        assert!(t.per_op("inner")[0] >= 2e-3);
    }

    #[test]
    fn absorb_reindexes_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.leaf("a", || ());
        let mut b = Tracer::new(origin);
        let p = b.enter("p");
        b.leaf("c", || ());
        b.exit(p);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        let doc = a.to_json("w").to_string();
        assert!(Json::parse(&doc).is_ok());
    }
}
