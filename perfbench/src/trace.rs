//! Spans recorded by the benchmark around its calls into the crates,
//! plus readers for the crates' own zaatar-obs timers and counters.
//!
//! A span has a name, a start and end (nanoseconds since the tracer's
//! epoch), the span that caused it, and the session it belongs to.
//! Spans stay in memory and are written out once the run ends. Work
//! that happens inside one call into a crate (the commitment and the
//! query answering inside `SessionServer::poll`, key generation inside
//! `SessionVerifier::new`) is read from the zaatar-obs timer or counter
//! the crate already keeps for it, scoped to one phase of the run.

use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// What ran, e.g. `verifier.new` or `server.instance`.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Session (or batch) the span belongs to.
    pub session: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder shared by the client and server threads.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&self, name: &'static str, session: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking recorder");
        spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            session,
        });
        spans.len() - 1
    }

    /// Closes a span opened with [`Tracer::begin`].
    pub fn end(&self, id: SpanId) {
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")[id]
            .end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &self,
        name: &'static str,
        session: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, session, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Records an interval measured elsewhere (start and end as
    /// [`Instant`]s).
    pub fn record(
        &self,
        name: &'static str,
        session: u64,
        parent: Option<SpanId>,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let mut spans = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking recorder");
        spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            session,
        });
        spans.len() - 1
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panicking recorder")
            .clone()
    }
}

/// Spans as a JSON array.
pub fn to_json(spans: &[Span]) -> String {
    let body: Vec<String> = spans
        .iter()
        .map(|s| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            format!(
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"session\":{}}}",
                s.name, s.start_ns, s.end_ns, s.session
            )
        })
        .collect();
    format!("[{}]", body.join(",\n"))
}

/// Work scoped to one phase of a run: the zaatar-obs registry is reset
/// on entry and snapshotted on exit, so the crates' timers describe this
/// phase of this workload only.
pub fn obs_scope<R>(f: impl FnOnce() -> R) -> (R, zaatar_obs::Snapshot) {
    zaatar_obs::global().reset();
    let out = f();
    (out, zaatar_obs::snapshot())
}

/// Total nanoseconds of timer `name` in a snapshot (0 when absent).
pub fn snap_ns(snap: &zaatar_obs::Snapshot, name: &str) -> u64 {
    snap.timers.get(name).map_or(0, |t| t.total_ns)
}

/// Calls of timer `name` in a snapshot (0 when absent).
pub fn snap_calls(snap: &zaatar_obs::Snapshot, name: &str) -> u64 {
    snap.timers.get(name).map_or(0, |t| t.count)
}

/// Counter `name` in a snapshot (0 when absent).
pub fn snap_count(snap: &zaatar_obs::Snapshot, name: &str) -> u64 {
    snap.counters.get(name).copied().unwrap_or(0)
}

/// Gauge `name` in a snapshot (0 when absent).
pub fn snap_gauge(snap: &zaatar_obs::Snapshot, name: &str) -> u64 {
    snap.gauges.get(name).copied().unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_serialize() {
        let t = Tracer::default();
        let root = t.begin("session", 7, None);
        let child = t.span("child", 7, Some(root), || t.begin("leaf", 7, None));
        t.end(child);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.session == 7));
        let json = zaatar_obs::json::parse(&to_json(&spans)).expect("valid JSON");
        assert_eq!(json.as_array().map(<[_]>::len), Some(3));
    }
}
