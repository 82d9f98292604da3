//! `pace-trace` — zero-dependency, deterministic-overhead structured tracing
//! (re-exported as `pace_tensor::trace`).
//!
//! The campaign runtime spends its budget in a handful of hot loops — CE
//! training steps, hypergradient unrolls, oracle probes, exact-count waves —
//! and this crate records *where* that budget goes without ever perturbing
//! what the loops compute. It provides three primitives:
//!
//! * **Scoped spans** ([`span`] / [`span_at`]): RAII guards that record a
//!   monotonic wall-time interval with thread attribution and nesting depth,
//!   emitted as one JSONL line per span when the guard drops.
//! * **Lock-free counters and histograms** ([`Counter`], [`Histogram`]):
//!   process-global atomics for hot-path tallies (matmul FLOPs, tape-replay
//!   node visits, pool chunk utilization, oracle probes/retries/breaker
//!   trips, checkpoint rollbacks). Snapshots are appended to the trace by
//!   [`flush`].
//! * **Per-op profile events** ([`emit_op_profile`]): join points between
//!   the tape's static FLOP/byte cost model and measured replay time,
//!   emitted by `pace_tensor::opt`'s profiled replay.
//!
//! # The `PACE_TRACE` flag
//!
//! The crate joins the `PACE_AUDIT`/`PACE_FAULTS` env-flag
//! family (`pace_tensor::flags`): unset, empty, or `0` means off; `1`,
//! `true`, or `on` enables tracing to [`DEFAULT_TRACE_PATH`] in the current
//! directory; any other value is a file path to write to. The variable is
//! read once, on first use; tests and embedders override it at any time
//! with [`install`].
//!
//! # The determinism and overhead contract
//!
//! Tracing must never change results: every hook only *reads* program state
//! and timestamps, so a traced run is bit-identical to an untraced run (a
//! property the tensor crate's proptests pin down). When the layer is
//! disarmed, every hook answers with **a single relaxed atomic load** — the
//! same pattern as `pace_tensor::fault` — so benches and production runs
//! pay nothing measurable. The first hook call resolves the env var through
//! a mutex; after that the armed/disarmed decision never takes a lock.
//!
//! # JSONL schema
//!
//! One flat JSON object per line. `ev` discriminates:
//!
//! ```text
//! {"ev":"meta","version":1}
//! {"ev":"span","name":"campaign::wave","idx":3,"tid":0,"depth":1,"start_ns":12345,"dur_ns":678,"seq":9}
//! {"ev":"counter","name":"oracle_probes","value":181}
//! {"ev":"hist","name":"pool_chunks_per_worker","bucket_lo":8,"count":4}
//! {"ev":"op","ctx":"attack::hypergradient","op":"MatMul","count":96,"flops":1228800,"out_bytes":49152,"measured_ns":40210}
//! ```
//!
//! `start_ns`/`dur_ns` are nanoseconds on one process-global monotonic
//! clock; `tid` is a small per-process thread ordinal; `depth` is the
//! span-nesting depth *on that thread* at entry. Spans are written when
//! they close, so children precede parents in the file — readers
//! ([`read::parse_line`], `xtask trace-report`) sort by start time.

#![warn(missing_docs)]

use std::cell::Cell;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub mod read;

/// Where `PACE_TRACE=1` writes: this file in the current directory.
pub const DEFAULT_TRACE_PATH: &str = "pace_trace.jsonl";

// ---- armed/disarmed fast path ----------------------------------------------

// Same three-state pattern as `pace_tensor::fault`: the flag starts UNKNOWN
// (env var unread); the first hook call resolves it through the sink mutex,
// and from then on a disarmed process answers with one relaxed atomic load.
const ARMED_UNKNOWN: u8 = 0;
const ARMED_OFF: u8 = 1;
const ARMED_ON: u8 = 2;
static ARMED: AtomicU8 = AtomicU8::new(ARMED_UNKNOWN);

#[inline]
fn disarmed() -> bool {
    match ARMED.load(Ordering::Relaxed) {
        ARMED_OFF => true,
        ARMED_ON => false,
        _ => !with_sink(|s| s.out.is_some()),
    }
}

/// True when tracing is armed for this process (resolving `PACE_TRACE` on
/// first call).
pub fn enabled() -> bool {
    !disarmed()
}

// ---- the sink ---------------------------------------------------------------

struct SinkState {
    loaded: bool,
    out: Option<std::io::BufWriter<std::fs::File>>,
    seq: u64,
}

static SINK: Mutex<SinkState> = Mutex::new(SinkState {
    loaded: false,
    out: None,
    seq: 0,
});

/// The process-global monotonic epoch every `start_ns` is relative to.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Nanoseconds since the process trace epoch.
fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn open_sink(path: &Path) -> Option<std::io::BufWriter<std::fs::File>> {
    match std::fs::File::create(path) {
        Ok(f) => Some(std::io::BufWriter::new(f)),
        Err(e) => {
            eprintln!(
                "pace-trace: cannot open {}: {e} — tracing off",
                path.display()
            );
            None
        }
    }
}

/// Resolves the `PACE_TRACE` value to a sink path, mirroring the
/// `EnvFlag`/`EnvSpec` grammar: unset/empty/`0` off; `1`/`true`/`on` the
/// default path; anything else a literal path.
fn resolve_env() -> Option<PathBuf> {
    let raw = std::env::var("PACE_TRACE").ok()?;
    let t = raw.trim();
    if t.is_empty() || t == "0" {
        return None;
    }
    if matches!(t.to_ascii_lowercase().as_str(), "1" | "true" | "on") {
        return Some(PathBuf::from(DEFAULT_TRACE_PATH));
    }
    Some(PathBuf::from(t))
}

fn with_sink<T>(f: impl FnOnce(&mut SinkState) -> T) -> T {
    let mut s = match SINK.lock() {
        Ok(s) => s,
        Err(poisoned) => poisoned.into_inner(),
    };
    if !s.loaded {
        s.loaded = true;
        s.out = resolve_env().and_then(|p| {
            let out = open_sink(&p);
            if out.is_some() {
                epoch(); // pin the clock epoch at arm time
            }
            out
        });
        if s.out.is_some() {
            write_line(&mut s, &[("ev", Val::S("meta")), ("version", Val::U(1))]);
        }
    }
    let armed = if s.out.is_some() { ARMED_ON } else { ARMED_OFF };
    ARMED.store(armed, Ordering::Relaxed);
    f(&mut s)
}

/// Installs (or, with `None`, disarms) the trace sink for this process,
/// overriding whatever `PACE_TRACE` said. The previous sink, if any, is
/// flushed and closed. Metric counters are *not* reset — see
/// [`reset_metrics`].
pub fn install(path: Option<PathBuf>) {
    let mut s = match SINK.lock() {
        Ok(s) => s,
        Err(poisoned) => poisoned.into_inner(),
    };
    if let Some(out) = s.out.as_mut() {
        let _ = out.flush();
    }
    s.loaded = true;
    s.out = path.and_then(|p| {
        let out = open_sink(&p);
        if out.is_some() {
            epoch();
        }
        out
    });
    s.seq = 0;
    let armed = if s.out.is_some() { ARMED_ON } else { ARMED_OFF };
    ARMED.store(armed, Ordering::Relaxed);
    if s.out.is_some() {
        write_line(&mut s, &[("ev", Val::S("meta")), ("version", Val::U(1))]);
    }
}

/// Appends a snapshot of every counter and histogram to the trace and
/// flushes the sink to disk. Call once at the end of a traced region:
/// span/op lines land as they happen (the sink is line-buffered), but
/// counter and histogram totals only appear through this snapshot.
pub fn flush() {
    if disarmed() {
        return;
    }
    with_sink(|s| {
        if s.out.is_none() {
            return;
        }
        for c in COUNTERS {
            let v = c.value.load(Ordering::Relaxed);
            write_line(
                s,
                &[
                    ("ev", Val::S("counter")),
                    ("name", Val::S(c.name)),
                    ("value", Val::U(v)),
                ],
            );
        }
        for h in HISTOGRAMS {
            for (lo, count) in h.nonzero_buckets() {
                write_line(
                    s,
                    &[
                        ("ev", Val::S("hist")),
                        ("name", Val::S(h.name)),
                        ("bucket_lo", Val::U(lo)),
                        ("count", Val::U(count)),
                    ],
                );
            }
        }
        if let Some(out) = s.out.as_mut() {
            let _ = out.flush();
        }
    });
}

// ---- JSON writing -----------------------------------------------------------

/// A JSON-serializable field value for trace lines.
enum Val<'a> {
    S(&'a str),
    U(u64),
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for ch in s.chars() {
        match ch {
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
    out.push('"');
}

fn write_line(s: &mut SinkState, fields: &[(&str, Val<'_>)]) {
    let Some(out) = s.out.as_mut() else {
        return;
    };
    let mut line = String::with_capacity(96);
    line.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        push_json_str(&mut line, k);
        line.push(':');
        match v {
            Val::S(x) => push_json_str(&mut line, x),
            Val::U(x) => {
                let _ = std::fmt::Write::write_fmt(&mut line, format_args!("{x}"));
            }
        }
    }
    line.push(',');
    push_json_str(&mut line, "seq");
    let _ = std::fmt::Write::write_fmt(&mut line, format_args!(":{}", s.seq));
    s.seq += 1;
    line.push('}');
    line.push('\n');
    let _ = out.write_all(line.as_bytes());
    // Line-buffered: statics never drop, so an unflushed tail would vanish
    // at process exit — and a trace that survives an injected crash
    // (`PACE_FAULTS=crash,...`) is exactly the trace worth reading. The
    // extra write syscall is armed-only cost.
    let _ = out.flush();
}

/// Emits one per-op profile line joining the static cost model against
/// measured replay time (see `pace_tensor::opt`'s profiled replay). No-op
/// when disarmed.
pub fn emit_op_profile(
    ctx: &str,
    op: &'static str,
    count: u64,
    flops: u64,
    out_bytes: u64,
    measured_ns: u64,
) {
    if disarmed() {
        return;
    }
    with_sink(|s| {
        write_line(
            s,
            &[
                ("ev", Val::S("op")),
                ("ctx", Val::S(ctx)),
                ("op", Val::S(op)),
                ("count", Val::U(count)),
                ("flops", Val::U(flops)),
                ("out_bytes", Val::U(out_bytes)),
                ("measured_ns", Val::U(measured_ns)),
            ],
        );
    });
}

// ---- spans ------------------------------------------------------------------

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Small per-process thread ordinal, assigned on first traced event.
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
    /// Current span-nesting depth on this thread.
    static DEPTH: Cell<u64> = const { Cell::new(0) };
}

fn tid() -> u64 {
    TID.with(|c| {
        if c.get() == u64::MAX {
            c.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        c.get()
    })
}

/// An open span: created by [`span`] / [`span_at`], emitted as one JSONL
/// line when dropped. Inert (zero work beyond one relaxed load) when the
/// layer is disarmed.
pub struct Span {
    name: &'static str,
    idx: Option<u64>,
    tid: u64,
    depth: u64,
    start_ns: u64,
    active: bool,
}

/// Opens a named span covering the enclosing scope.
#[inline]
pub fn span(name: &'static str) -> Span {
    span_impl(name, None)
}

/// Opens a named span tagged with an iteration/wave index.
#[inline]
pub fn span_at(name: &'static str, idx: u64) -> Span {
    span_impl(name, Some(idx))
}

fn span_impl(name: &'static str, idx: Option<u64>) -> Span {
    if disarmed() {
        return Span {
            name,
            idx,
            tid: 0,
            depth: 0,
            start_ns: 0,
            active: false,
        };
    }
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    Span {
        name,
        idx,
        tid: tid(),
        depth,
        start_ns: now_ns(),
        active: true,
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let dur = now_ns().saturating_sub(self.start_ns);
        with_sink(|s| {
            let mut fields = vec![("ev", Val::S("span")), ("name", Val::S(self.name))];
            if let Some(idx) = self.idx {
                fields.push(("idx", Val::U(idx)));
            }
            fields.push(("tid", Val::U(self.tid)));
            fields.push(("depth", Val::U(self.depth)));
            fields.push(("start_ns", Val::U(self.start_ns)));
            fields.push(("dur_ns", Val::U(dur)));
            write_line(s, &fields);
        });
    }
}

// ---- counters ---------------------------------------------------------------

/// A process-global, lock-free event counter. [`Counter::add`] is a single
/// relaxed atomic load when the layer is disarmed and a single relaxed
/// `fetch_add` when armed — cheap enough for the matmul kernel.
pub struct Counter {
    name: &'static str,
    value: AtomicU64,
}

impl Counter {
    /// Declares a counter. All counters live in the module-level registry
    /// below so [`flush`] and reports can enumerate them.
    pub const fn new(name: &'static str) -> Self {
        Self {
            name,
            value: AtomicU64::new(0),
        }
    }

    /// The counter's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Adds `n` events. No-op (one relaxed load) when disarmed.
    #[inline]
    pub fn add(&self, n: u64) {
        if disarmed() {
            return;
        }
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two histogram buckets.
pub const HIST_BUCKETS: usize = 64;

/// The bucket index a value lands in: bucket 0 holds exactly `0`, bucket
/// `i >= 1` holds `[2^(i-1), 2^i)`.
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// The inclusive lower bound of bucket `i` (see [`bucket_of`]).
pub fn bucket_lo(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A process-global, lock-free power-of-two histogram. Same overhead
/// contract as [`Counter`].
pub struct Histogram {
    name: &'static str,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl Histogram {
    /// Declares a histogram (registered in the module-level registry).
    pub const fn new(name: &'static str) -> Self {
        // An inline-const repeat operand: each array slot gets a fresh
        // AtomicU64, which is exactly the semantics a shared `static` would
        // get wrong.
        Self {
            name,
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
        }
    }

    /// The histogram's registry name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Records one observation of `v`. No-op (one relaxed load) when
    /// disarmed.
    #[inline]
    pub fn record(&self, v: u64) {
        if disarmed() {
            return;
        }
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// `(bucket lower bound, count)` for every non-empty bucket, ascending.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n > 0).then_some((bucket_lo(i), n))
            })
            .collect()
    }

    /// Total observations across all buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }
}

// ---- the metric registry ----------------------------------------------------

/// FLOPs executed by the matmul kernel (2·n·k·m per product).
pub static MATMUL_FLOPS: Counter = Counter::new("matmul_flops");
/// Plan steps executed by tape-replay (`pace_tensor::opt`).
pub static REPLAY_NODE_VISITS: Counter = Counter::new("replay_node_visits");
/// Tasks executed by the deterministic pool (`pace_runtime`).
pub static POOL_TASKS: Counter = Counter::new("pool_tasks");
/// Probes issued through `ResilientOracle`.
pub static ORACLE_PROBES: Counter = Counter::new("oracle_probes");
/// Oracle retry attempts after a probe failure.
pub static ORACLE_RETRIES: Counter = Counter::new("oracle_retries");
/// Probes answered from the degradation path (breaker open / just tripped).
pub static ORACLE_DEGRADED: Counter = Counter::new("oracle_degraded");
/// Circuit-breaker trips in `ResilientOracle`.
pub static BREAKER_TRIPS: Counter = Counter::new("breaker_trips");
/// Checkpoint rollbacks across CE training, surrogate imitation, and the
/// attack loops.
pub static CHECKPOINT_ROLLBACKS: Counter = Counter::new("checkpoint_rollbacks");

/// Requests admitted to (or rejected by) the `pace-serve` runtime.
pub static SERVE_REQUESTS: Counter = Counter::new("serve_requests");
/// Requests rejected with a typed `Shed` error (queue at cap, fallback
/// budget exhausted).
pub static SERVE_SHED: Counter = Counter::new("serve_shed");
/// Requests served by the classical fallback estimator (degraded path).
pub static SERVE_FALLBACK: Counter = Counter::new("serve_fallback");
/// Requests that missed their deadline (at admission or batch formation).
pub static SERVE_DEADLINE_MISSES: Counter = Counter::new("serve_deadline_misses");
/// Tensor batches executed by the serving runtime.
pub static SERVE_BATCHES: Counter = Counter::new("serve_batches");
/// Model snapshots atomically swapped in after shadow validation.
pub static SERVE_SWAPS: Counter = Counter::new("serve_swaps");
/// Candidate snapshots rejected by shadow validation and rolled back.
pub static SERVE_SWAPS_REJECTED: Counter = Counter::new("serve_swaps_rejected");
/// Non-finite learned estimates replaced by the fallback estimator before
/// being served (the zero-non-finite-replies invariant at work).
pub static SERVE_NONFINITE_REPLACED: Counter = Counter::new("serve_nonfinite_replaced");
/// Break-glass snapshot installs that bypassed shadow validation
/// (`SnapshotStore::force_install`). Kept apart from [`SERVE_SWAPS`] so an
/// operator override is never mistaken for a validated swap in traces.
pub static SERVE_FORCE_INSTALLS: Counter = Counter::new("serve_force_installs");
/// Campaign poison waves whose candidate snapshot passed shadow validation
/// and was swapped into the serving path.
pub static SERVE_POISON_WAVES_ACCEPTED: Counter = Counter::new("serve_poison_waves_accepted");
/// Campaign poison waves whose candidate snapshot was rejected (pinned
/// q-error probe, non-finite parameters, version ban, or open breaker) and
/// rolled back — the serving layer's defense actually firing.
pub static SERVE_POISON_WAVES_REJECTED: Counter = Counter::new("serve_poison_waves_rejected");

/// Tasks pulled per pool worker within one parallel region — the chunk
/// utilization distribution across `PACE_THREADS` workers. Inline regions
/// (sequential pool, nested region on a worker, trivial fan-out) are *not*
/// sampled here — they land in [`POOL_INLINE_TASKS`] — so this histogram is
/// comparable across thread counts.
pub static POOL_CHUNKS_PER_WORKER: Histogram = Histogram::new("pool_chunks_per_worker");
/// Region sizes executed inline (no worker fan-out): one sample of `tasks`
/// per inline region. Kept apart from [`POOL_CHUNKS_PER_WORKER`] so the
/// per-worker distribution is not skewed by whole-region samples.
pub static POOL_INLINE_TASKS: Histogram = Histogram::new("pool_inline_tasks");
/// Oracle backoff waits, in virtual microseconds.
pub static BACKOFF_VIRTUAL_US: Histogram = Histogram::new("backoff_virtual_us");

/// End-to-end request latency through the serving runtime, in virtual
/// microseconds (admission to reply).
pub static SERVE_LATENCY_US: Histogram = Histogram::new("serve_latency_us");
/// Admission-queue depth sampled at every enqueue.
pub static SERVE_QUEUE_DEPTH: Histogram = Histogram::new("serve_queue_depth");
/// Sizes of the tensor batches the serving runtime executed.
pub static SERVE_BATCH_SIZE: Histogram = Histogram::new("serve_batch_size");

/// Every registered counter, in emission order.
pub static COUNTERS: [&Counter; 19] = [
    &MATMUL_FLOPS,
    &REPLAY_NODE_VISITS,
    &POOL_TASKS,
    &ORACLE_PROBES,
    &ORACLE_RETRIES,
    &ORACLE_DEGRADED,
    &BREAKER_TRIPS,
    &CHECKPOINT_ROLLBACKS,
    &SERVE_REQUESTS,
    &SERVE_SHED,
    &SERVE_FALLBACK,
    &SERVE_DEADLINE_MISSES,
    &SERVE_BATCHES,
    &SERVE_SWAPS,
    &SERVE_SWAPS_REJECTED,
    &SERVE_NONFINITE_REPLACED,
    &SERVE_FORCE_INSTALLS,
    &SERVE_POISON_WAVES_ACCEPTED,
    &SERVE_POISON_WAVES_REJECTED,
];

/// Every registered histogram, in emission order.
pub static HISTOGRAMS: [&Histogram; 6] = [
    &POOL_CHUNKS_PER_WORKER,
    &POOL_INLINE_TASKS,
    &BACKOFF_VIRTUAL_US,
    &SERVE_LATENCY_US,
    &SERVE_QUEUE_DEPTH,
    &SERVE_BATCH_SIZE,
];

/// `(name, value)` snapshot of every registered counter.
pub fn counter_snapshot() -> Vec<(&'static str, u64)> {
    COUNTERS.iter().map(|c| (c.name(), c.get())).collect()
}

/// Zeroes every registered counter and histogram. Counters are process
/// globals; a report over one traced region should reset before it starts.
pub fn reset_metrics() {
    for c in COUNTERS {
        c.value.store(0, Ordering::Relaxed);
    }
    for h in HISTOGRAMS {
        for b in &h.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The sink and the ARMED flag are process-global; tests that arm or
    /// disarm tracing must not interleave.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        match TEST_LOCK.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn temp_trace(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "pace-trace-test-{}-{name}.jsonl",
            std::process::id()
        ))
    }

    #[test]
    fn bucketing_is_power_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(7), 3);
        assert_eq!(bucket_of(8), 4);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // Every bucket's lower bound lands in its own bucket.
        for i in 1..HIST_BUCKETS {
            assert_eq!(bucket_of(bucket_lo(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn disarmed_counters_do_not_count() {
        let _g = lock();
        install(None);
        reset_metrics();
        MATMUL_FLOPS.add(1000);
        POOL_CHUNKS_PER_WORKER.record(5);
        assert_eq!(MATMUL_FLOPS.get(), 0, "disarmed add must be a no-op");
        assert_eq!(POOL_CHUNKS_PER_WORKER.total(), 0);
    }

    #[test]
    fn spans_nest_and_attribute_threads() {
        let _g = lock();
        let path = temp_trace("nesting");
        install(Some(path.clone()));
        reset_metrics();
        {
            let _outer = span("outer");
            {
                let _inner = span_at("inner", 7);
            }
        }
        ORACLE_PROBES.add(3);
        flush();
        install(None);
        let text = std::fs::read_to_string(&path).expect("trace file exists");
        let _ = std::fs::remove_file(&path);
        let events: Vec<_> = text.lines().filter_map(read::parse_line).collect();
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("ev").and_then(read::Value::as_str) == Some("span"))
            .collect();
        assert_eq!(spans.len(), 2);
        // Written at close: inner first. Same thread, inner one level deeper,
        // inner interval contained in outer's.
        let inner = spans[0];
        let outer = spans[1];
        assert_eq!(
            inner.get("name").and_then(read::Value::as_str),
            Some("inner")
        );
        assert_eq!(inner.get("idx").and_then(read::Value::as_u64), Some(7));
        assert_eq!(
            outer.get("name").and_then(read::Value::as_str),
            Some("outer")
        );
        let u = |e: &std::collections::BTreeMap<String, read::Value>, k: &str| {
            e.get(k).and_then(read::Value::as_u64).expect("u64 field")
        };
        assert_eq!(u(inner, "tid"), u(outer, "tid"));
        assert_eq!(u(inner, "depth"), u(outer, "depth") + 1);
        assert!(u(inner, "start_ns") >= u(outer, "start_ns"));
        assert!(
            u(inner, "start_ns") + u(inner, "dur_ns") <= u(outer, "start_ns") + u(outer, "dur_ns")
        );
        // The counter snapshot made it into the flush.
        let got = events.iter().any(|e| {
            e.get("ev").and_then(read::Value::as_str) == Some("counter")
                && e.get("name").and_then(read::Value::as_str) == Some("oracle_probes")
                && e.get("value").and_then(read::Value::as_u64) == Some(3)
        });
        assert!(got, "flush must snapshot counters");
    }

    #[test]
    fn json_lines_round_trip_through_the_parser() {
        let _g = lock();
        let path = temp_trace("roundtrip");
        install(Some(path.clone()));
        emit_op_profile("ctx \"quoted\"\n", "MatMul", 4, 1024, 512, 99);
        flush();
        install(None);
        let text = std::fs::read_to_string(&path).expect("trace file exists");
        let _ = std::fs::remove_file(&path);
        let op = text
            .lines()
            .filter_map(read::parse_line)
            .find(|e| e.get("ev").and_then(read::Value::as_str) == Some("op"))
            .expect("op event present");
        assert_eq!(
            op.get("ctx").and_then(read::Value::as_str),
            Some("ctx \"quoted\"\n")
        );
        assert_eq!(op.get("flops").and_then(read::Value::as_u64), Some(1024));
        assert_eq!(
            op.get("measured_ns").and_then(read::Value::as_u64),
            Some(99)
        );
    }

    #[test]
    fn install_none_disarms() {
        let _g = lock();
        install(None);
        assert!(!enabled());
        let path = temp_trace("arm");
        install(Some(path.clone()));
        assert!(enabled());
        install(None);
        assert!(!enabled());
        let _ = std::fs::remove_file(&path);
    }
}
