//! The traced run's instruments: spans kept in memory around the
//! benchmark's calls into each layer, a counting and timing [`Model`]
//! wrapper handed to the runtimes in place of the workload's model, and
//! the Chrome trace-event writer (the file opens in Perfetto).

use crate::host::json_string;
use hop_data::{Batch, Features};
use hop_model::{GradScratch, Model};
use hop_util::Xoshiro256;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-call spans beyond this many are aggregated but not stored, so a
/// 10k-worker run's model calls cannot grow the trace file without bound.
const MAX_STORED_CALLS: u64 = 100_000;

/// One closed span: a named interval on one thread.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub tid: usize,
    pub start: Duration,
    pub dur: Duration,
}

/// In-memory span recorder shared by every thread of the traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    calls: AtomicU64,
    dropped: AtomicU64,
}

static NEXT_TID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    static TID: usize = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            calls: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        })
    }

    /// Runs `f` inside a span named `name` and returns its result and
    /// duration.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        self.record(name, start, dur);
        (out, dur)
    }

    fn record(&self, name: &'static str, start: Instant, dur: Duration) {
        let span = Span {
            name,
            tid: TID.with(|t| *t),
            start: start.duration_since(self.origin),
            dur,
        };
        self.spans
            .lock()
            .expect("span log poisoned by a panic")
            .push(span);
    }

    /// [`Self::record`] for per-call spans, which stop being stored (but
    /// are still counted by their caller) after [`MAX_STORED_CALLS`].
    fn record_call(&self, name: &'static str, start: Instant, dur: Duration) {
        if self.calls.fetch_add(1, Ordering::Relaxed) < MAX_STORED_CALLS {
            self.record(name, start, dur);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A copy of the stored spans.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned by a panic")
            .clone()
    }

    /// Per-call spans that were aggregated but not stored.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Writes the stored spans as Chrome trace-event JSON (`"X"` complete
    /// events, microsecond timestamps).
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\": [")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}}}{sep}",
                json_string(s.name),
                s.tid,
                s.start.as_secs_f64() * 1e6,
                s.dur.as_secs_f64() * 1e6,
            )?;
        }
        writeln!(out, "], \"displayTimeUnit\": \"ms\"}}")?;
        out.flush()
    }
}

/// Self time per span name: each span's duration minus the part of it
/// that child spans on the same thread cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, Duration> {
    let mut by_thread: BTreeMap<usize, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_thread.entry(s.tid).or_default().push(s);
    }
    let mut out: BTreeMap<&'static str, Duration> = BTreeMap::new();
    for (_, mut list) in by_thread {
        // Parents first: earlier start, and the longer span on a tie.
        list.sort_by(|a, b| a.start.cmp(&b.start).then(b.dur.cmp(&a.dur)));
        let mut stack: Vec<(usize, Duration)> = Vec::new(); // (index, child time)
        let mut close = |stack: &mut Vec<(usize, Duration)>, list: &[&Span]| {
            let (i, child) = stack.pop().expect("non-empty stack");
            let s = list[i];
            *out.entry(s.name).or_default() += s.dur.saturating_sub(child);
            if let Some(parent) = stack.last_mut() {
                parent.1 += s.dur;
            }
        };
        for i in 0..list.len() {
            while let Some(&(top, _)) = stack.last() {
                let t = list[top];
                if list[i].start >= t.start + t.dur {
                    close(&mut stack, &list);
                } else {
                    break;
                }
            }
            stack.push((i, Duration::ZERO));
        }
        while !stack.is_empty() {
            close(&mut stack, &list);
        }
    }
    out
}

/// Calls and time spent in the wrapped model.
#[derive(Debug, Default)]
pub struct ModelCounters {
    pub grad_calls: AtomicU64,
    pub grad_ns: AtomicU64,
    pub eval_calls: AtomicU64,
    pub eval_ns: AtomicU64,
}

impl ModelCounters {
    /// Seconds spent in gradient and loss calls together.
    pub fn model_s(&self) -> f64 {
        (self.grad_ns.load(Ordering::Relaxed) + self.eval_ns.load(Ordering::Relaxed)) as f64 / 1e9
    }
}

/// A [`Model`] that forwards to the workload's model and counts and
/// times every gradient and loss call, recording a span for each when it
/// has a tracer.
pub struct CountingModel {
    inner: Arc<dyn Model>,
    tracer: Option<Arc<Tracer>>,
    pub counters: ModelCounters,
}

impl CountingModel {
    pub fn new(inner: Arc<dyn Model>, tracer: Option<Arc<Tracer>>) -> Self {
        Self {
            inner,
            tracer,
            counters: ModelCounters::default(),
        }
    }
}

impl Model for CountingModel {
    fn param_len(&self) -> usize {
        self.inner.param_len()
    }

    fn init_params(&self, rng: &mut Xoshiro256) -> Vec<f32> {
        self.inner.init_params(rng)
    }

    fn loss_grad_with(
        &self,
        params: &[f32],
        batch: &Batch<'_>,
        grad: &mut [f32],
        scratch: &mut GradScratch,
    ) -> f32 {
        let start = Instant::now();
        let loss = self.inner.loss_grad_with(params, batch, grad, scratch);
        let dur = start.elapsed();
        if let Some(t) = &self.tracer {
            t.record_call("model.grad", start, dur);
        }
        self.counters.grad_calls.fetch_add(1, Ordering::Relaxed);
        self.counters
            .grad_ns
            .fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
        loss
    }

    fn loss(&self, params: &[f32], batch: &Batch<'_>) -> f32 {
        let start = Instant::now();
        let loss = self.inner.loss(params, batch);
        let dur = start.elapsed();
        if let Some(t) = &self.tracer {
            t.record_call("model.eval", start, dur);
        }
        self.counters.eval_calls.fetch_add(1, Ordering::Relaxed);
        self.counters
            .eval_ns
            .fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
        loss
    }

    fn predict(&self, params: &[f32], features: &Features) -> u32 {
        self.inner.predict(params, features)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ms: u64, dur_ms: u64) -> Span {
        Span {
            name,
            tid: 1,
            start: Duration::from_millis(start_ms),
            dur: Duration::from_millis(dur_ms),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("run", 0, 100),
            span("model", 10, 20),
            span("inner", 12, 5),
            span("model", 50, 30),
            span("after", 200, 10),
        ];
        let t = self_times(&spans);
        assert_eq!(t["run"], Duration::from_millis(50));
        assert_eq!(t["model"], Duration::from_millis(45));
        assert_eq!(t["inner"], Duration::from_millis(5));
        assert_eq!(t["after"], Duration::from_millis(10));
    }
}
