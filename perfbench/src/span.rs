//! In-memory spans recorded around every call the benchmark makes into a
//! crate's public API, plus exact counts taken at the same boundaries.
//!
//! Nothing is written while a run measures: each thread appends to its own
//! buffer, and [`collect`] gathers the buffers once, at the end. Spans
//! carry name, start, end, parent and job id; a layer's self time is its
//! span time minus the time of its child spans (the benchmark is
//! single-threaded within a job, so children never overlap).
//!
//! Box pulls from a lazy profile source happen inside the consuming call
//! (`run_on_profile`, `monte_carlo_ratio`, …), far too often to give each
//! its own span. [`Timed`] accumulates their time into the enclosing span
//! instead, which emits it as one `profiles.gen` child when it closes.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use cadapt_core::{BoxRun, BoxSource, Cancelled, RunCursor};

/// One closed span. Times are nanoseconds since the process epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `recursion.run`.
    pub name: &'static str,
    /// Job the span belongs to.
    pub job: u64,
    /// Index of the enclosing span in the same thread's buffer.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

struct Open {
    index: usize,
    pull_ns: u64,
}

#[derive(Default)]
struct Buffer {
    spans: Vec<Span>,
    stack: Vec<Open>,
    counts: Counts,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Exact counts by name.
type Counts = BTreeMap<&'static str, u64>;

static DONE: Mutex<Vec<(Vec<Span>, Counts)>> = Mutex::new(Vec::new());

thread_local! {
    static BUFFER: RefCell<Buffer> = RefCell::new(Buffer::default());
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let nanos = EPOCH.get_or_init(Instant::now).elapsed().as_nanos();
    u64::try_from(nanos).unwrap_or(u64::MAX)
}

/// Turn recording on or off for every thread.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Is recording on?
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Run `f` inside a span named `name` for job `job`.
pub fn span<T>(name: &'static str, job: u64, f: impl FnOnce() -> T) -> T {
    if !enabled() {
        return f();
    }
    let start_ns = now_ns();
    BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        let parent = b.stack.last().map(|o| o.index);
        let index = b.spans.len();
        b.spans.push(Span {
            name,
            job,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        b.stack.push(Open { index, pull_ns: 0 });
    });
    let out = f();
    let end_ns = now_ns();
    BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        let open = b.stack.pop().expect("span stack balanced by construction");
        b.spans[open.index].end_ns = end_ns;
        if open.pull_ns > 0 {
            b.spans.push(Span {
                name: "profiles.gen",
                job,
                parent: Some(open.index),
                start_ns,
                end_ns: start_ns + open.pull_ns,
            });
        }
    });
    out
}

/// Add `n` to the exact count `name` (no-op while recording is off).
pub fn count(name: &'static str, n: u64) {
    if enabled() {
        BUFFER.with(|b| *b.borrow_mut().counts.entry(name).or_insert(0) += n);
    }
}

fn add_pull(ns: u64, boxes: u64) {
    BUFFER.with(|b| {
        let mut b = b.borrow_mut();
        if let Some(open) = b.stack.last_mut() {
            open.pull_ns += ns;
        }
        *b.counts.entry("profiles.boxes").or_insert(0) += boxes;
    });
}

/// Hand this thread's spans and counts to the collector (call once per
/// thread, after its last span).
pub fn flush_thread() {
    let buffer = BUFFER.with(|b| std::mem::take(&mut *b.borrow_mut()));
    if !buffer.spans.is_empty() || !buffer.counts.is_empty() {
        DONE.lock()
            .expect("span collector poisoned")
            .push((buffer.spans, buffer.counts));
    }
}

/// Per-layer totals of everything recorded since the last [`collect`].
#[derive(Debug, Default)]
pub struct Totals {
    /// Self time per span name and job, in milliseconds.
    pub self_ms: BTreeMap<(&'static str, u64), f64>,
    /// Number of spans per span name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Exact counts.
    pub counts: Counts,
}

impl Totals {
    /// Self time of every span named `name`, summed over jobs, ms.
    pub fn ms(&self, name: &str) -> f64 {
        self.self_ms
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, ms)| ms)
            .sum()
    }
}

/// Flush the calling thread, then fold every thread's buffer into
/// per-name totals and reset the collector.
pub fn collect() -> Totals {
    flush_thread();
    let buffers = std::mem::take(&mut *DONE.lock().expect("span collector poisoned"));
    let mut totals = Totals::default();
    for (spans, counts) in buffers {
        let mut child_ns = vec![0u64; spans.len()];
        for s in &spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        for (s, children) in spans.iter().zip(child_ns) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(children);
            *totals.self_ms.entry((s.name, s.job)).or_insert(0.0) += self_ns as f64 / 1e6;
            *totals.calls.entry(s.name).or_insert(0) += 1;
        }
        for (name, n) in counts {
            *totals.counts.entry(name).or_insert(0) += n;
        }
    }
    totals
}

/// A profile source or cursor whose pulls are timed into the enclosing
/// span as `profiles.gen` and counted as `profiles.boxes` (an infinite
/// constant tail counts as one box). Drop it inside that span.
#[derive(Debug)]
pub struct Timed<S> {
    inner: S,
    pulls: u64,
    boxes: u64,
    ns: u64,
}

impl<S> Timed<S> {
    /// Wrap `inner`.
    pub fn new(inner: S) -> Timed<S> {
        Timed {
            inner,
            pulls: 0,
            boxes: 0,
            ns: 0,
        }
    }

    /// One pull in [`PULL_SAMPLE`] is timed and its time scaled up to all
    /// of them: two clock reads per pull would cost about as much as
    /// advancing the pulled run.
    fn pull<R>(&mut self, boxes: impl Fn(&R) -> u64, pull: impl FnOnce(&mut S) -> R) -> R {
        if !enabled() {
            return pull(&mut self.inner);
        }
        self.pulls += 1;
        let out = if self.pulls % PULL_SAMPLE == 1 {
            let t = Instant::now();
            let out = pull(&mut self.inner);
            let ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.ns += ns.saturating_sub(clock_cost_ns()) * PULL_SAMPLE;
            out
        } else {
            pull(&mut self.inner)
        };
        self.boxes += boxes(&out);
        out
    }
}

impl<S> Drop for Timed<S> {
    fn drop(&mut self) {
        if self.pulls > 0 {
            add_pull(self.ns, self.boxes);
        }
    }
}

const PULL_SAMPLE: u64 = 64;

/// What timing an empty region reads, ns: a pull takes tens of ns, about
/// as long as the two clock reads around it, so each sample is corrected
/// by this (the fastest of many empty regions).
fn clock_cost_ns() -> u64 {
    static COST: OnceLock<u64> = OnceLock::new();
    *COST.get_or_init(|| {
        (0..10_000)
            .map(|_| {
                let t = Instant::now();
                u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
            })
            .min()
            .unwrap_or(0)
    })
}

fn boxes_in(run: &BoxRun) -> u64 {
    if run.repeat == u64::MAX {
        1
    } else {
        run.repeat
    }
}

impl<S: BoxSource> BoxSource for Timed<S> {
    fn next_box(&mut self) -> cadapt_core::Blocks {
        self.pull(|_| 1, BoxSource::next_box)
    }

    fn next_run(&mut self) -> BoxRun {
        self.pull(boxes_in, BoxSource::next_run)
    }
}

impl<C: RunCursor> RunCursor for Timed<C> {
    fn next_run(&mut self) -> Result<Option<BoxRun>, Cancelled> {
        self.pull(
            |r: &Result<Option<BoxRun>, Cancelled>| {
                r.map_or(0, |run| run.map_or(0, |run| boxes_in(&run)))
            },
            RunCursor::next_run,
        )
    }

    fn size_hint(&self) -> (u64, Option<u64>) {
        self.inner.size_hint()
    }
}
