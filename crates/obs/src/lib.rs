//! Zero-dependency span tracing for the fragalign engine.
//!
//! The engine's solvers, portfolio racers and the HTTP service all
//! report *what* they produced; this crate records *where the time
//! went*. It provides three pieces:
//!
//! * [`TraceSink`] — a lock-free, bounded, multi-producer ring buffer
//!   of [`TraceEvent`]s. Writers never block each other and never
//!   allocate; when the ring is full the **oldest events are
//!   overwritten** (drop-oldest policy). Silent loss is not allowed:
//!   the number of overwritten events is tracked and exported by
//!   [`TraceSink::dropped`] and in every [`TraceLog`], so a truncated
//!   timeline is always visibly truncated.
//! * [`TraceHandle`] — a cheap, cloneable handle carried through the
//!   solve path (`SolveCtx`, `ScoreOracle`). A disabled handle is a
//!   `None` and costs one branch per span site — no clock reads, no
//!   atomics. An enabled handle stamps events with a monotonic
//!   nanosecond clock relative to the sink's epoch and a `track` id
//!   (track 0 = the engine, track *i+1* = portfolio racer *i*), so a
//!   portfolio solve renders as parallel racer timelines.
//! * Exporters — [`TraceLog::to_chrome_json`] writes Chrome
//!   trace-event JSON (loadable in Perfetto / `chrome://tracing`)
//!   with timestamps normalised to the first event, and
//!   [`TraceLog::events`] is plain data for ad-hoc analysis.
//!
//! # Ring-buffer drop policy
//!
//! The ring is a Vyukov-style ticket buffer: each writer claims a
//! monotonically increasing ticket with one `fetch_add`, writes its
//! slot, then publishes the slot's sequence number. A writer that
//! laps the ring overwrites the slot owned by `ticket - capacity` —
//! i.e. the *oldest* event is dropped, keeping the most recent
//! window, which is the useful half of a timeline when a solve emits
//! more events than the ring holds. `dropped()` reports exactly how
//! many events were overwritten; the serve layer re-exports it as a
//! telemetry counter so monitoring sees the loss.
//!
//! # Inertness
//!
//! Tracing observes; it must never steer. No code path in this crate
//! feeds back into solver decisions, and the repository's trace
//! suite (`tests/obs_trace.rs`) proptests that traced and untraced
//! solves are bit-identical across solvers and thread counts.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a [`TraceEvent`] marks: a duration or a point in time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A complete span: `t0_ns .. t0_ns + dur_ns` (Chrome `ph:"X"`).
    Span,
    /// An instantaneous marker (Chrome `ph:"i"`).
    Instant,
}

/// One recorded event. `Copy` and allocation-free by construction:
/// names and labels are `&'static str` (solver names, phase names and
/// the `outraced` cancel label all are), numeric payload rides in
/// `a0`/`a1`.
#[derive(Clone, Copy, Debug)]
pub struct TraceEvent {
    /// Nanoseconds since the sink's epoch.
    pub t0_ns: u64,
    /// Span duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Phase name, e.g. `"dp_fill"` or `"racer"`.
    pub name: &'static str,
    /// Secondary label, e.g. the solver or kernel name; `""` if none.
    pub label: &'static str,
    /// Timeline lane: 0 = engine, i+1 = portfolio racer i.
    pub track: u16,
    /// Span or instant.
    pub kind: EventKind,
    /// First numeric argument (e.g. a score bound); 0 if unused.
    pub a0: i64,
    /// Second numeric argument (e.g. a count); 0 if unused.
    pub a1: i64,
}

impl TraceEvent {
    fn zeroed() -> Self {
        TraceEvent {
            t0_ns: 0,
            dur_ns: 0,
            name: "",
            label: "",
            track: 0,
            kind: EventKind::Instant,
            a0: 0,
            a1: 0,
        }
    }
}

struct Slot {
    /// Publication sequence: slot `i` accepts ticket `t` when
    /// `seq == t`, holds `t + 1` while the write is in flight, and
    /// `t + capacity` once published (which is also the next lap's
    /// accept value).
    seq: AtomicU64,
    ev: UnsafeCell<TraceEvent>,
}

/// Lock-free bounded MPMC ring of [`TraceEvent`]s with drop-oldest
/// overwrite semantics. See the crate docs for the full policy.
pub struct TraceSink {
    epoch: Instant,
    mask: u64,
    tickets: AtomicU64,
    slots: Box<[Slot]>,
}

// The UnsafeCell is guarded by the per-slot seq protocol (writers) and
// the seqlock-style double check in `drain` (readers).
unsafe impl Send for TraceSink {}
unsafe impl Sync for TraceSink {}

/// Default ring capacity: 16Ki events (~1 MiB), enough for every
/// phase span of a large portfolio solve with headroom.
pub const DEFAULT_CAPACITY: usize = 16 * 1024;

impl TraceSink {
    /// A sink with [`DEFAULT_CAPACITY`].
    pub fn new() -> Arc<Self> {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A sink holding at least `capacity` events (rounded up to a
    /// power of two, minimum 8).
    pub fn with_capacity(capacity: usize) -> Arc<Self> {
        let cap = capacity.max(8).next_power_of_two();
        let slots: Vec<Slot> = (0..cap)
            .map(|i| Slot {
                seq: AtomicU64::new(i as u64),
                ev: UnsafeCell::new(TraceEvent::zeroed()),
            })
            .collect();
        Arc::new(TraceSink {
            epoch: Instant::now(),
            mask: (cap - 1) as u64,
            tickets: AtomicU64::new(0),
            slots: slots.into_boxed_slice(),
        })
    }

    fn capacity(&self) -> u64 {
        self.mask + 1
    }

    /// Nanoseconds since this sink was created (the trace epoch).
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record one event. Lock-free: one `fetch_add` plus one release
    /// store; a writer only spins in the (pathological) case where it
    /// laps another writer mid-write on the same slot.
    pub fn push(&self, ev: TraceEvent) {
        let t = self.tickets.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(t & self.mask) as usize];
        // Wait for the previous lap's write to this slot to publish
        // (seq == t). With capacity >= 8 and phase-grained events this
        // never spins in practice.
        while slot.seq.load(Ordering::Acquire) != t {
            std::hint::spin_loop();
        }
        slot.seq.store(t + 1, Ordering::Relaxed);
        // Sole writer for this slot until we publish below.
        unsafe { *slot.ev.get() = ev };
        slot.seq.store(t + self.capacity(), Ordering::Release);
    }

    /// Total events ever pushed (including later-overwritten ones).
    pub fn emitted(&self) -> u64 {
        self.tickets.load(Ordering::Relaxed)
    }

    /// Events lost to drop-oldest overwrite so far.
    pub fn dropped(&self) -> u64 {
        self.emitted().saturating_sub(self.capacity())
    }

    /// Snapshot the ring into a [`TraceLog`], oldest event first.
    ///
    /// Intended to run after writers quiesce (the engine drains after
    /// joining its racers); events whose write is still in flight are
    /// skipped via the slot sequence check rather than torn.
    pub fn drain(&self) -> TraceLog {
        let emitted = self.emitted();
        let cap = self.capacity();
        let first = emitted.saturating_sub(cap);
        let mut events = Vec::with_capacity((emitted - first) as usize);
        for t in first..emitted {
            let slot = &self.slots[(t & self.mask) as usize];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != t + cap {
                continue; // in flight or already lapped
            }
            let ev = unsafe { *slot.ev.get() };
            if slot.seq.load(Ordering::Acquire) != s1 {
                continue; // lapped mid-read; discard the torn copy
            }
            events.push(ev);
        }
        events.sort_by_key(|e| (e.t0_ns, e.track));
        TraceLog {
            events,
            emitted,
            dropped: emitted.saturating_sub(cap),
        }
    }
}

/// A cloneable, optionally-enabled handle onto a [`TraceSink`].
///
/// The disabled handle is the default everywhere; it is one word of
/// `None` and every span site reduces to a single branch.
#[derive(Clone, Default)]
pub struct TraceHandle {
    sink: Option<Arc<TraceSink>>,
    track: u16,
}

impl TraceHandle {
    /// The inert handle: records nothing, reads no clocks.
    pub fn disabled() -> Self {
        TraceHandle::default()
    }

    /// A handle recording into `sink` on track 0.
    pub fn new(sink: Arc<TraceSink>) -> Self {
        TraceHandle {
            sink: Some(sink),
            track: 0,
        }
    }

    /// Same sink, different timeline lane (portfolio racers use
    /// `racer_index + 1`; track 0 is the engine).
    pub fn with_track(&self, track: u16) -> Self {
        TraceHandle {
            sink: self.sink.clone(),
            track,
        }
    }

    /// Whether spans recorded through this handle go anywhere.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// The underlying sink, if enabled.
    pub fn sink(&self) -> Option<&Arc<TraceSink>> {
        self.sink.as_ref()
    }

    /// Start a phase span; the returned guard records it on drop.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        self.span_labeled(name, "")
    }

    /// [`span`](Self::span) with a secondary label (kernel mode,
    /// solver name, ...).
    pub fn span_labeled(&self, name: &'static str, label: &'static str) -> SpanGuard {
        let t0 = self.sink.as_ref().map(|s| s.now_ns());
        SpanGuard {
            handle: self.clone(),
            t0,
            name,
            label,
            a0: 0,
            a1: 0,
        }
    }

    /// Record an instantaneous marker with a numeric payload.
    pub fn instant(&self, name: &'static str, label: &'static str, a0: i64, a1: i64) {
        if let Some(sink) = &self.sink {
            sink.push(TraceEvent {
                t0_ns: sink.now_ns(),
                dur_ns: 0,
                name,
                label,
                track: self.track,
                kind: EventKind::Instant,
                a0,
                a1,
            });
        }
    }
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceHandle")
            .field("enabled", &self.is_enabled())
            .field("track", &self.track)
            .finish()
    }
}

/// RAII span: created by [`TraceHandle::span`], records a
/// [`EventKind::Span`] event when dropped. On a disabled handle it is
/// completely inert (no clock read at either end).
#[must_use = "a span guard records its phase when dropped"]
pub struct SpanGuard {
    handle: TraceHandle,
    t0: Option<u64>,
    name: &'static str,
    label: &'static str,
    a0: i64,
    a1: i64,
}

impl SpanGuard {
    /// Attach numeric arguments (recorded at drop).
    pub fn set_args(&mut self, a0: i64, a1: i64) {
        self.a0 = a0;
        self.a1 = a1;
    }

    /// Replace the secondary label — for phases whose mode (e.g.
    /// profiled vs scalar kernel) is only known mid-span.
    pub fn set_label(&mut self, label: &'static str) {
        self.label = label;
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let (Some(sink), Some(t0)) = (self.handle.sink.as_ref(), self.t0) {
            let now = sink.now_ns();
            sink.push(TraceEvent {
                t0_ns: t0,
                dur_ns: now.saturating_sub(t0),
                name: self.name,
                label: self.label,
                track: self.handle.track,
                kind: EventKind::Span,
                a0: self.a0,
                a1: self.a1,
            });
        }
    }
}

/// Open a phase span on a [`TraceHandle`]: `span!(trace, "dp_fill")`
/// or `span!(trace, "dp_fill", "profiled")`.
#[macro_export]
macro_rules! span {
    ($handle:expr, $name:expr) => {
        $handle.span($name)
    };
    ($handle:expr, $name:expr, $label:expr) => {
        $handle.span_labeled($name, $label)
    };
}

/// A drained snapshot of a sink: events in time order plus the
/// emitted/dropped accounting.
#[derive(Clone, Debug)]
pub struct TraceLog {
    /// Surviving events, oldest first.
    pub events: Vec<TraceEvent>,
    /// Total events ever pushed to the sink.
    pub emitted: u64,
    /// Events overwritten by the drop-oldest policy.
    pub dropped: u64,
}

fn push_json_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

/// Microseconds with fixed millis precision (`ns / 1000` with 3
/// decimal places) — stable text for goldens, lossless to Perfetto.
fn push_micros(out: &mut String, ns: u64) {
    out.push_str(&format!("{}.{:03}", ns / 1_000, ns % 1_000));
}

impl TraceLog {
    /// Render as Chrome trace-event JSON (the "JSON Array Format"
    /// wrapped in an object), loadable in Perfetto and
    /// `chrome://tracing`.
    ///
    /// Field order is stable and timestamps are normalised so the
    /// earliest event starts at `ts: 0.000` — the output for a fixed
    /// event list is byte-reproducible, which the golden tests pin.
    /// Spans render as `ph:"X"` complete events, instants as
    /// `ph:"i"`; `tid` is the event's track (0 = engine, i+1 =
    /// portfolio racer i); numeric payload lands in `args.a0`/`a1`
    /// only when non-zero.
    pub fn to_chrome_json(&self) -> String {
        let base = self.events.iter().map(|e| e.t0_ns).min().unwrap_or(0);
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"name\":\"");
            push_json_escaped(&mut out, ev.name);
            if !ev.label.is_empty() {
                out.push(':');
                push_json_escaped(&mut out, ev.label);
            }
            out.push_str("\",\"ph\":\"");
            match ev.kind {
                EventKind::Span => out.push('X'),
                EventKind::Instant => out.push('i'),
            }
            out.push_str("\",\"ts\":");
            push_micros(&mut out, ev.t0_ns - base);
            if ev.kind == EventKind::Span {
                out.push_str(",\"dur\":");
                push_micros(&mut out, ev.dur_ns);
            } else {
                out.push_str(",\"s\":\"t\"");
            }
            out.push_str(&format!(",\"pid\":1,\"tid\":{}", ev.track));
            if ev.a0 != 0 || ev.a1 != 0 {
                out.push_str(&format!(",\"args\":{{\"a0\":{},\"a1\":{}}}", ev.a0, ev.a1));
            }
            out.push('}');
        }
        out.push_str(&format!(
            "],\"displayTimeUnit\":\"ms\",\"emitted\":{},\"dropped\":{}}}",
            self.emitted, self.dropped
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t0: u64, name: &'static str) -> TraceEvent {
        TraceEvent {
            t0_ns: t0,
            dur_ns: 10,
            name,
            label: "",
            track: 0,
            kind: EventKind::Span,
            a0: 0,
            a1: 0,
        }
    }

    #[test]
    fn records_and_drains_in_order() {
        let sink = TraceSink::with_capacity(8);
        for i in 0..5 {
            sink.push(ev(i, "p"));
        }
        let log = sink.drain();
        assert_eq!(log.events.len(), 5);
        assert_eq!(log.emitted, 5);
        assert_eq!(log.dropped, 0);
        let t0s: Vec<u64> = log.events.iter().map(|e| e.t0_ns).collect();
        assert_eq!(t0s, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn overwrites_oldest_and_counts_drops() {
        let sink = TraceSink::with_capacity(8);
        for i in 0..20 {
            sink.push(ev(i, "p"));
        }
        assert_eq!(sink.emitted(), 20);
        assert_eq!(sink.dropped(), 12);
        let log = sink.drain();
        assert_eq!(log.events.len(), 8);
        assert_eq!(log.dropped, 12);
        // The survivors are exactly the newest window.
        let t0s: Vec<u64> = log.events.iter().map(|e| e.t0_ns).collect();
        assert_eq!(t0s, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn concurrent_writers_lose_nothing_within_capacity() {
        let sink = TraceSink::with_capacity(1 << 12);
        let threads = 8;
        let per = 256;
        std::thread::scope(|s| {
            for t in 0..threads {
                let sink = Arc::clone(&sink);
                s.spawn(move || {
                    for i in 0..per {
                        let mut e = ev((t * per + i) as u64, "w");
                        e.track = t as u16;
                        sink.push(e);
                    }
                });
            }
        });
        let log = sink.drain();
        assert_eq!(log.emitted, (threads * per) as u64);
        assert_eq!(log.dropped, 0);
        assert_eq!(log.events.len(), threads * per);
        // Every (track, t0) pair survives exactly once.
        let mut seen: Vec<(u16, u64)> = log.events.iter().map(|e| (e.track, e.t0_ns)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), threads * per);
    }

    #[test]
    fn disabled_handle_is_inert() {
        let h = TraceHandle::disabled();
        assert!(!h.is_enabled());
        {
            let mut g = h.span("phase");
            g.set_args(1, 2);
        }
        h.instant("marker", "", 3, 4);
        // Nothing to drain — there is no sink at all.
        assert!(h.sink().is_none());
    }

    #[test]
    fn span_guard_records_duration_and_args() {
        let sink = TraceSink::with_capacity(8);
        let h = TraceHandle::new(Arc::clone(&sink));
        {
            let mut g = h.span_labeled("dp_fill", "profiled");
            g.set_args(42, 7);
        }
        let log = sink.drain();
        assert_eq!(log.events.len(), 1);
        let e = &log.events[0];
        assert_eq!(e.name, "dp_fill");
        assert_eq!(e.label, "profiled");
        assert_eq!(e.kind, EventKind::Span);
        assert_eq!((e.a0, e.a1), (42, 7));
    }

    #[test]
    fn chrome_json_is_stable_and_normalised() {
        let log = TraceLog {
            events: vec![
                TraceEvent {
                    t0_ns: 5_000,
                    dur_ns: 1_500,
                    name: "solve",
                    label: "greedy",
                    track: 0,
                    kind: EventKind::Span,
                    a0: 0,
                    a1: 0,
                },
                TraceEvent {
                    t0_ns: 6_000,
                    dur_ns: 0,
                    name: "bound_retire",
                    label: "",
                    track: 2,
                    kind: EventKind::Instant,
                    a0: -3,
                    a1: 0,
                },
            ],
            emitted: 2,
            dropped: 0,
        };
        let json = log.to_chrome_json();
        assert_eq!(
            json,
            concat!(
                "{\"traceEvents\":[",
                "{\"name\":\"solve:greedy\",\"ph\":\"X\",\"ts\":0.000,",
                "\"dur\":1.500,\"pid\":1,\"tid\":0},",
                "{\"name\":\"bound_retire\",\"ph\":\"i\",\"ts\":1.000,",
                "\"s\":\"t\",\"pid\":1,\"tid\":2,\"args\":{\"a0\":-3,\"a1\":0}}",
                "],\"displayTimeUnit\":\"ms\",\"emitted\":2,\"dropped\":0}"
            )
        );
    }

    #[test]
    fn tracks_separate_lanes() {
        let sink = TraceSink::with_capacity(8);
        let h = TraceHandle::new(Arc::clone(&sink));
        let racer = h.with_track(3);
        drop(racer.span("racer"));
        let log = sink.drain();
        assert_eq!(log.events[0].track, 3);
    }
}
