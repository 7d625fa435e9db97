//! Chrome trace-event recording for the query lifecycle.
//!
//! Spans are recorded into an in-process buffer and flushed to a JSON file
//! in the chrome://tracing / Perfetto *trace event* format: a JSON array of
//! objects with `ph: "X"` (complete span, `ts` + `dur` in microseconds) and
//! `ph: "i"` (instant event). Both viewers accept an unterminated array, so
//! the file is written incrementally by appending — every [`flush`] adds the
//! events recorded since the previous one and nothing has to be rewritten.
//!
//! Recording is **off by default** and the disabled hot path is one relaxed
//! atomic load — no allocation, no clock read, no lock. It turns on either
//! programmatically ([`enable`]) or through the `DLRA_TRACE=<path>`
//! environment variable, which is consulted once on first use.
//!
//! Span and category names are `&'static str` supplied by the
//! instrumentation sites and must be JSON-safe (no quotes or backslashes);
//! every name used by the workspace is a plain dotted identifier such as
//! `query.execute`. Numeric span arguments (query ids, word counts) ride
//! along in the `args` object, at most [`MAX_ARGS`] per event.
//!
//! The recorder never perturbs results: instrumented code takes no
//! different branches when tracing is on, it only reads clocks and pushes
//! into the buffer. A process-wide cap ([`EVENT_CAP`]) bounds memory and
//! file size for long runs; events beyond it are counted in [`dropped`]
//! rather than recorded.

use dlra_util::sync::MutexExt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Maximum number of `(key, value)` arguments one event can carry.
pub const MAX_ARGS: usize = 2;

/// Process-wide cap on recorded events; excess events are dropped (and
/// counted) so a trace-enabled soak run cannot grow without bound.
pub const EVENT_CAP: u64 = 1 << 20;

/// Buffered events are flushed to disk automatically once the in-memory
/// buffer reaches this many entries (an explicit [`flush`] writes sooner).
const AUTO_FLUSH_LEN: usize = 1 << 14;

const STATE_UNRESOLVED: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

/// `STATE_UNRESOLVED` until the `DLRA_TRACE` environment variable has been
/// consulted (or `enable` / `disable` was called first).
static STATE: AtomicU8 = AtomicU8::new(STATE_UNRESOLVED);

/// Events recorded so far (admitted against [`EVENT_CAP`]).
static RECORDED: AtomicU64 = AtomicU64::new(0);

/// Events dropped because the cap was reached.
static DROPPED: AtomicU64 = AtomicU64::new(0);

/// Monotone thread-id allocator for the `tid` field.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

#[derive(Debug, Clone, Copy)]
struct TraceEvent {
    name: &'static str,
    cat: &'static str,
    /// `'X'` (complete, with duration) or `'i'` (instant).
    ph: char,
    ts_micros: u64,
    dur_micros: u64,
    tid: u64,
    args: [Option<(&'static str, u64)>; MAX_ARGS],
}

#[derive(Debug, Default)]
struct Recorder {
    /// Flush target; `None` until `enable` ran.
    path: Option<PathBuf>,
    /// Whether the array header `[` has been written to `path`.
    header_written: bool,
    buffer: Vec<TraceEvent>,
}

// dlra-lock-order: trace.recorder
fn recorder() -> &'static Mutex<Recorder> {
    static RECORDER: OnceLock<Mutex<Recorder>> = OnceLock::new();
    RECORDER.get_or_init(|| Mutex::new(Recorder::default()))
}

/// All timestamps are microseconds since this process-wide origin.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn micros_since_epoch(t: Instant) -> u64 {
    // An Instant captured before the epoch was initialized (e.g. a ticket
    // submitted before tracing was enabled) clamps to 0.
    t.checked_duration_since(epoch())
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// Whether tracing is currently recording. The first call resolves the
/// `DLRA_TRACE` environment variable; later calls are a single atomic load.
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => resolve_from_env(),
    }
}

#[cold]
fn resolve_from_env() -> bool {
    match std::env::var_os("DLRA_TRACE") {
        Some(path) if !path.is_empty() => {
            enable(PathBuf::from(path));
            true
        }
        _ => {
            // Only claim OFF if nobody enabled concurrently.
            let _ = STATE.compare_exchange(
                STATE_UNRESOLVED,
                STATE_OFF,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
            STATE.load(Ordering::Relaxed) == STATE_ON
        }
    }
}

/// Turns recording on, flushing to `path`. The file is truncated on the
/// first flush after enabling; re-enabling with a different path starts a
/// fresh file. Takes precedence over `DLRA_TRACE`.
pub fn enable(path: impl AsRef<Path>) {
    let mut rec = recorder().lock_recover();
    epoch(); // pin the time origin no later than the first enable
    rec.path = Some(path.as_ref().to_path_buf());
    rec.header_written = false;
    STATE.store(STATE_ON, Ordering::Relaxed);
}

/// Flushes buffered events and stops recording. `DLRA_TRACE` is **not**
/// re-consulted afterwards; call [`enable`] to resume.
pub fn disable() {
    flush();
    STATE.store(STATE_OFF, Ordering::Relaxed);
}

/// Number of events dropped after [`EVENT_CAP`] was reached.
pub fn dropped() -> u64 {
    DROPPED.load(Ordering::Relaxed)
}

/// Number of events admitted so far (buffered or already flushed).
pub fn recorded() -> u64 {
    RECORDED.load(Ordering::Relaxed)
}

fn record(event: TraceEvent) {
    if RECORDED.fetch_add(1, Ordering::Relaxed) >= EVENT_CAP {
        RECORDED.fetch_sub(1, Ordering::Relaxed);
        DROPPED.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let mut rec = recorder().lock_recover();
    rec.buffer.push(event);
    if rec.buffer.len() >= AUTO_FLUSH_LEN {
        flush_locked(&mut rec);
    }
}

/// Writes all buffered events to the trace file and clears the buffer.
/// Cheap when nothing is buffered. Called automatically when the buffer
/// fills and by `Service::shutdown`; call it manually before reading the
/// file in-process.
pub fn flush() {
    let mut rec = recorder().lock_recover();
    flush_locked(&mut rec);
}

fn flush_locked(rec: &mut Recorder) {
    if rec.buffer.is_empty() {
        return;
    }
    let Some(path) = rec.path.clone() else {
        // Enabled state without a sink cannot happen through the public
        // API; keep buffering until a path arrives.
        return;
    };
    let mut out = String::with_capacity(rec.buffer.len() * 96);
    if !rec.header_written {
        out.push_str("[\n");
    }
    for e in &rec.buffer {
        out.push_str("{\"name\":\"");
        out.push_str(e.name);
        out.push_str("\",\"cat\":\"");
        out.push_str(e.cat);
        out.push_str("\",\"ph\":\"");
        out.push(e.ph);
        out.push_str("\",\"pid\":1,\"tid\":");
        out.push_str(&e.tid.to_string());
        out.push_str(",\"ts\":");
        out.push_str(&e.ts_micros.to_string());
        if e.ph == 'X' {
            out.push_str(",\"dur\":");
            out.push_str(&e.dur_micros.to_string());
        } else {
            // Instant events need a scope; thread scope keeps them small.
            out.push_str(",\"s\":\"t\"");
        }
        out.push_str(",\"args\":{");
        let mut first = true;
        for (key, value) in e.args.iter().flatten() {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            out.push_str(&value.to_string());
        }
        out.push_str("}},\n");
    }
    let mut opts = std::fs::OpenOptions::new();
    if rec.header_written {
        opts.append(true);
    } else {
        // First flush for this sink: start a fresh file.
        opts.write(true).create(true).truncate(true);
    }
    let write = opts
        .open(&path)
        .and_then(|mut f| f.write_all(out.as_bytes()));
    if write.is_ok() {
        rec.header_written = true;
        rec.buffer.clear();
    }
    // On I/O failure the buffer is retained for a later flush attempt.
}

/// An in-flight span; records a `ph: "X"` complete event when dropped.
/// When tracing is disabled this is an inert zero-sized-ish guard: no clock
/// was read and drop does nothing.
#[derive(Debug)]
#[must_use = "a span records its duration when dropped"]
pub struct Span {
    start: Option<Instant>,
    name: &'static str,
    cat: &'static str,
    args: [Option<(&'static str, u64)>; MAX_ARGS],
}

impl Span {
    /// Attaches a numeric argument (first [`MAX_ARGS`] stick).
    pub fn arg(mut self, key: &'static str, value: u64) -> Self {
        if self.start.is_some() {
            if let Some(slot) = self.args.iter_mut().find(|a| a.is_none()) {
                *slot = Some((key, value));
            }
        }
        self
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let dur = start.elapsed().as_micros() as u64;
            record(TraceEvent {
                name: self.name,
                cat: self.cat,
                ph: 'X',
                ts_micros: micros_since_epoch(start),
                dur_micros: dur,
                tid: TID.with(|t| *t),
                args: self.args,
            });
        }
    }
}

/// Opens a span; the complete event is recorded when the guard drops.
pub fn span(cat: &'static str, name: &'static str) -> Span {
    let start = if enabled() {
        Some(Instant::now())
    } else {
        None
    };
    Span {
        start,
        name,
        cat,
        args: [None; MAX_ARGS],
    }
}

fn copy_args(args: &[(&'static str, u64)]) -> [Option<(&'static str, u64)>; MAX_ARGS] {
    let mut out = [None; MAX_ARGS];
    for (slot, &kv) in out.iter_mut().zip(args.iter()) {
        *slot = Some(kv);
    }
    out
}

/// Records an instant (`ph: "i"`) event.
pub fn instant(cat: &'static str, name: &'static str, args: &[(&'static str, u64)]) {
    if !enabled() {
        return;
    }
    record(TraceEvent {
        name,
        cat,
        ph: 'i',
        ts_micros: micros_since_epoch(Instant::now()),
        dur_micros: 0,
        tid: TID.with(|t| *t),
        args: copy_args(args),
    });
}

/// Records a complete span whose start was measured externally (e.g. the
/// queue-wait span runs from a ticket's submission instant to now).
pub fn complete_since(
    cat: &'static str,
    name: &'static str,
    start: Instant,
    args: &[(&'static str, u64)],
) {
    if !enabled() {
        return;
    }
    let dur = start.elapsed().as_micros() as u64;
    record(TraceEvent {
        name,
        cat,
        ph: 'X',
        ts_micros: micros_since_epoch(start),
        dur_micros: dur,
        tid: TID.with(|t| *t),
        args: copy_args(args),
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // Tracing state is process-global, so everything lives in one #[test].
    #[test]
    fn record_flush_disable_roundtrip() {
        // The workspace's build tree, like the integration tests' traces.
        let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/tmp"));
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join(format!("trace-{}.json", std::process::id()));

        // Disabled spans are inert.
        disable();
        let before = recorded();
        {
            let _s = span("test", "disabled.span").arg("k", 1);
            instant("test", "disabled.instant", &[("a", 2)]);
        }
        assert_eq!(recorded(), before);

        enable(&path);
        assert!(enabled());
        let t0 = Instant::now();
        {
            let _s = span("test", "enabled.span").arg("qid", 7).arg("ds", 3);
        }
        instant("test", "enabled.instant", &[("qid", 7)]);
        complete_since("test", "enabled.external", t0, &[]);
        assert_eq!(recorded(), before + 3);
        flush();
        disable();

        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("[\n"), "array header: {body:?}");
        assert!(body.contains("\"name\":\"enabled.span\""));
        assert!(body.contains("\"ph\":\"X\""));
        assert!(body.contains("\"ph\":\"i\""));
        assert!(body.contains("\"qid\":7"));
        assert!(body.contains("\"ds\":3"));
        // Valid when the unterminated array is closed.
        let closed = format!("{}]", body.trim_end().trim_end_matches(','));
        assert!(closed.ends_with("}]"));

        // Within one enable cycle events append across flushes; a fresh
        // enable starts a fresh file.
        enable(&path);
        instant("test", "second.cycle", &[]);
        flush();
        instant("test", "third.flush", &[]);
        flush();
        disable();
        let body2 = std::fs::read_to_string(&path).unwrap();
        assert!(!body2.contains("enabled.span"), "re-enable truncates");
        assert!(body2.contains("second.cycle") && body2.contains("third.flush"));
        std::fs::remove_file(&path).ok();
    }
}
