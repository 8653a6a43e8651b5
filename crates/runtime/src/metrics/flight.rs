//! The health flight recorder: a fixed-size ring of recent span
//! closures, health events, and recovery rungs, dumped when something
//! goes wrong.
//!
//! The PR-5 guardrails tell a driver *that* a stage tripped; they carry
//! no context about what the process was doing in the seconds before.
//! The recorder keeps the last `CAPACITY` events (each a few words) in
//! a mutex-guarded ring, and renders them to an NDJSON *incident dump*
//! whenever a [`crate::HealthEvent`] fires or the sweep driver's
//! recovery ladder runs a rung — so every incident ships its own
//! post-mortem without anyone having had tracing pre-armed.
//!
//! Dumps always land in an in-memory slot readable via [`last_dump`]
//! (harnesses and tests assert on it); when the `FSI_FLIGHT_DIR`
//! environment variable names a dump directory, each incident is also
//! written to `flight-<seq>-<reason>.ndjson` there, up to
//! `MAX_DUMP_FILES` files per process so a pathological event storm
//! cannot fill a disk.
//!
//! Span closures are recorded only while tracing is on (spans are no-ops
//! otherwise); incidents ([`record`]) and notes ([`note`]) are always
//! recorded. Ring pushes take an uncontended mutex — fine at stage
//! granularity, and `FSI_TRACE=2` kernel storms degrade to contention,
//! not data loss.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

use super::registry::LazyCounter;

/// Events retained in the ring. Must comfortably exceed the 32 recent
/// spans an incident dump is required to carry.
pub(crate) const CAPACITY: usize = 256;

/// File-dump cap per process (the in-memory [`last_dump`] slot is
/// always refreshed regardless).
pub(crate) const MAX_DUMP_FILES: u64 = 64;

/// What kind of moment a [`FlightEvent`] captures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlightKind {
    /// A trace span closed (name + duration + flops).
    Span,
    /// A health probe raised a [`crate::HealthEvent`].
    Health,
    /// The recovery ladder executed a rung.
    Recovery,
    /// A free-form marker from a harness or driver.
    Note,
}

impl FlightKind {
    fn label(&self) -> &'static str {
        match self {
            FlightKind::Span => "span",
            FlightKind::Health => "health",
            FlightKind::Recovery => "recovery",
            FlightKind::Note => "note",
        }
    }
}

/// One recorded moment.
#[derive(Clone, Debug)]
pub struct FlightEvent {
    /// Global sequence number (gap-free across the whole process; the
    /// ring drops from the front, so `seq` exposes how much history was
    /// lost).
    pub seq: u64,
    /// Nanoseconds since the trace epoch.
    pub t_ns: u64,
    /// Small index of the recording thread (same numbering as trace
    /// spans).
    pub thread: u64,
    /// Event kind.
    pub kind: FlightKind,
    /// Span/event/rung name.
    pub name: &'static str,
    /// Stage label for health/recovery events (`""` otherwise).
    pub stage: &'static str,
    /// Span duration in ns (0 for non-span events).
    pub dur_ns: u64,
    /// Flops charged to the span (0 for non-span events).
    pub flops: u64,
}

struct Ring {
    events: VecDeque<FlightEvent>,
    next_seq: u64,
}

static RING: Mutex<Option<Ring>> = Mutex::new(None);
static LAST_DUMP: Mutex<Option<String>> = Mutex::new(None);
/// Dump dir from `FSI_FLIGHT_DIR`, read on the first incident (unset or
/// empty disables file dumps).
static DUMP_DIR: OnceLock<Option<PathBuf>> = OnceLock::new();
static DUMP_FILES_WRITTEN: AtomicU64 = AtomicU64::new(0);

static DUMPS: LazyCounter = LazyCounter::new("runtime.flight.dumps");

fn ring() -> MutexGuard<'static, Option<Ring>> {
    RING.lock().unwrap_or_else(|e| e.into_inner())
}

fn push(event_of: impl FnOnce(u64) -> FlightEvent) {
    let mut guard = ring();
    let r = guard.get_or_insert_with(|| Ring {
        events: VecDeque::with_capacity(CAPACITY),
        next_seq: 0,
    });
    let seq = r.next_seq;
    r.next_seq += 1;
    if r.events.len() == CAPACITY {
        r.events.pop_front();
    }
    r.events.push_back(event_of(seq));
}

/// Records a closed span. Called from the trace layer on every span
/// closure; cost is one short mutex push.
pub(crate) fn record_span(name: &'static str, t_ns: u64, thread: u64, dur_ns: u64, flops: u64) {
    push(|seq| FlightEvent {
        seq,
        t_ns,
        thread,
        kind: FlightKind::Span,
        name,
        stage: "",
        dur_ns,
        flops,
    });
}

fn record_mark(kind: FlightKind, name: &'static str, stage: &'static str) {
    let t_ns = crate::trace::now_ns();
    let thread = crate::trace::thread_index();
    push(|seq| FlightEvent {
        seq,
        t_ns,
        thread,
        kind,
        name,
        stage,
        dur_ns: 0,
        flops: 0,
    });
}

/// Records one incident under one name: bumps the registry counter
/// `name`, pushes one ring entry of `kind` (`stage` labels it; `""` for
/// none), dumps the ring for [`FlightKind::Health`] and
/// [`FlightKind::Recovery`], and, while tracing is on, records one
/// zero-length collector span `name` that pushes no second ring entry.
pub fn record(kind: FlightKind, name: &'static str, stage: &'static str) {
    super::counter(name).inc();
    record_mark(kind, name, stage);
    if matches!(kind, FlightKind::Health | FlightKind::Recovery) {
        incident(name);
    }
    crate::trace::mark(name);
}

/// Records a free-form marker with no counter (no dump).
pub fn note(name: &'static str) {
    record_mark(FlightKind::Note, name, "");
}

/// A copy of the ring's current contents, oldest first.
pub fn events() -> Vec<FlightEvent> {
    ring()
        .as_ref()
        .map(|r| r.events.iter().cloned().collect())
        .unwrap_or_default()
}

/// Empties the ring (tests and multi-phase harnesses).
pub fn clear() {
    if let Some(r) = ring().as_mut() {
        r.events.clear();
    }
    *LAST_DUMP.lock().unwrap_or_else(|e| e.into_inner()) = None;
}

fn dump_dir() -> Option<PathBuf> {
    DUMP_DIR
        .get_or_init(|| {
            std::env::var_os("FSI_FLIGHT_DIR")
                .filter(|v| !v.is_empty())
                .map(PathBuf::from)
        })
        .clone()
}

/// The NDJSON text of the most recent incident dump, if any.
pub fn last_dump() -> Option<String> {
    LAST_DUMP.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// Renders the current ring to incident-dump NDJSON: a `flight_meta`
/// line followed by one `flight` line per event, oldest first (see
/// `results/schema.md`).
pub(crate) fn render(reason: &str) -> String {
    let events = events();
    let unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let first_seq = events.first().map(|e| e.seq).unwrap_or(0);
    let mut out = String::with_capacity(64 * (events.len() + 1));
    out.push_str(&format!(
        "{{\"kind\":\"flight_meta\",\"schema\":1,\"reason\":\"{}\",\"unix_ms\":{},\"events\":{},\"first_seq\":{}}}\n",
        escape(reason),
        unix_ms,
        events.len(),
        first_seq,
    ));
    for e in &events {
        out.push_str(&format!(
            "{{\"kind\":\"flight\",\"seq\":{},\"t_ns\":{},\"thread\":{},\"type\":\"{}\",\"name\":\"{}\"",
            e.seq,
            e.t_ns,
            e.thread,
            e.kind.label(),
            escape(e.name),
        ));
        if !e.stage.is_empty() {
            out.push_str(&format!(",\"stage\":\"{}\"", escape(e.stage)));
        }
        if e.kind == FlightKind::Span {
            out.push_str(&format!(",\"dur_ns\":{},\"flops\":{}", e.dur_ns, e.flops));
        }
        out.push_str("}\n");
    }
    out
}

fn escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

/// Installs a process-wide panic hook that dumps the flight ring (an
/// [`incident`] with reason `"panic"`) before delegating to the previous
/// hook, so post-mortem forensics exist even for crashes the health
/// layer never classified. Idempotent: only the first call installs;
/// later calls (other service starts, other harness mains in the same
/// process) are no-ops. Expected panics — `#[should_panic]` tests,
/// probes that intentionally unwind — still dump, which is harmless: the
/// file cap and the in-memory slot absorb them.
pub fn install_panic_hook() {
    use std::sync::Once;
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            incident("panic");
            previous(info);
        }));
    });
}

/// Dumps the ring now: refreshes [`last_dump`], bumps the
/// `runtime.flight.dumps` counter, and (dir configured, file cap not
/// yet hit) writes `flight-<n>-<reason>.ndjson`. Write errors are
/// swallowed — the recorder must never turn an incident into a panic.
pub fn incident(reason: &str) {
    let text = render(reason);
    *LAST_DUMP.lock().unwrap_or_else(|e| e.into_inner()) = Some(text.clone());
    DUMPS.inc();
    if let Some(dir) = dump_dir() {
        let n = DUMP_FILES_WRITTEN.fetch_add(1, Ordering::Relaxed);
        if n < MAX_DUMP_FILES {
            let slug: String = reason
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            let path = dir.join(format!("flight-{n:04}-{slug}.ndjson"));
            let _ = std::fs::create_dir_all(&dir);
            let _ = std::fs::write(path, text);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One event of each kind, a stage label only on the marks, and a name
    /// that needs escaping.
    fn fixed_events() -> VecDeque<FlightEvent> {
        let event = |seq, kind, name, stage, dur_ns, flops| FlightEvent {
            seq,
            t_ns: 1_000 * seq,
            thread: seq % 3,
            kind,
            name,
            stage,
            dur_ns,
            flops,
        };
        VecDeque::from(vec![
            event(40, FlightKind::Span, "cls", "", 61_000, 4_096),
            event(41, FlightKind::Health, "health.non_finite", "cls", 0, 0),
            event(
                42,
                FlightKind::Recovery,
                "dqmc.recovery.invalidate_caches",
                "cls",
                0,
                0,
            ),
            event(43, FlightKind::Note, "odd \"note\"\\\n", "", 0, 0),
            event(44, FlightKind::Span, "bsofi.selected", "", 0, 0),
        ])
    }

    const DUMP: &str = concat!(
        r#"{"kind":"flight_meta","schema":1,"reason":"golden \"reason\"","unix_ms":0,"events":5,"first_seq":40}"#,
        "\n",
        r#"{"kind":"flight","seq":40,"t_ns":40000,"thread":1,"type":"span","name":"cls","dur_ns":61000,"flops":4096}"#,
        "\n",
        r#"{"kind":"flight","seq":41,"t_ns":41000,"thread":2,"type":"health","name":"health.non_finite","stage":"cls"}"#,
        "\n",
        r#"{"kind":"flight","seq":42,"t_ns":42000,"thread":0,"type":"recovery","name":"dqmc.recovery.invalidate_caches","stage":"cls"}"#,
        "\n",
        r#"{"kind":"flight","seq":43,"t_ns":43000,"thread":1,"type":"note","name":"odd \"note\"\\\n"}"#,
        "\n",
        r#"{"kind":"flight","seq":44,"t_ns":44000,"thread":2,"type":"span","name":"bsofi.selected","dur_ns":0,"flops":0}"#,
        "\n",
    );

    /// Replaces the wall-clock `unix_ms` value of the meta line with 0.
    fn mask_unix_ms(text: &str) -> String {
        let key = "\"unix_ms\":";
        let Some(at) = text.find(key) else {
            return text.to_string();
        };
        let start = at + key.len();
        let digits = text[start..]
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(text.len() - start);
        format!("{}0{}", &text[..start], &text[start + digits..])
    }

    /// The incident dump of a fixed ring renders byte for byte.
    #[test]
    fn dump_of_a_fixed_ring_is_pinned() {
        // Other tests of this crate push to the process-wide ring from
        // their own threads; a render that saw one of their events is
        // retried, so only a rendering change fails every attempt.
        let mut text = String::new();
        for _ in 0..100 {
            *ring() = Some(Ring {
                events: fixed_events(),
                next_seq: 45,
            });
            text = mask_unix_ms(&render("golden \"reason\""));
            if text == DUMP {
                break;
            }
        }
        clear();
        assert_eq!(text, DUMP);
    }
}
