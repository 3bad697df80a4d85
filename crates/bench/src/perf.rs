//! Wall-clock comparison of the per-box baseline against the run-length
//! fast path, plus the experiment engine's thread-scaling ladder
//! (`cadapt-bench perf`).
//!
//! Each fast-path entry runs the *same* execution twice — once with
//! `RunConfig { retain_history: true }` (per-box advancement, the
//! pre-fast-path behaviour) and once with the default batched draining —
//! and reports the minimum-of-iterations wall time for each. The per-box
//! run also pays one `BoxRecord` push per box for the retained history, so
//! `per_box_ms` is above what bare per-box advancement would cost, and the
//! history holds every box in memory. The two runs
//! are checked to consume the same number of boxes, so a perf record
//! doubles as an end-to-end equivalence assertion at benchmark sizes.
//!
//! The thread-scaling section times the trial-parallel experiments at
//! worker counts 1, 2, 4, and the host's available parallelism, and
//! asserts **in process** that every parallel record reproduces the
//! serial one bit-for-bit (metric bits, counters, tables) — the engine's
//! determinism contract, measured and enforced in the same pass. Speedups
//! are honest wall-clock ratios for the recording host: on a single-core
//! machine they hover near (or slightly below) 1.0.
//!
//! The `analytic_vs_simulated` section pins the analytic cache model's
//! speedup claim: a fixed-capacity sweep over each corpus trace is timed
//! through the LRU simulator (one full replay per sweep point) and
//! through the analytic backend (one summary build, then O(log A)
//! queries), with the fault counts asserted equal in process before any
//! timing is reported. The summary build is timed separately so the
//! one-time cost is visible next to the per-sweep savings; `speedup` is
//! the honest end-to-end ratio including it.
//!
//! The `bytecode` section pins the compiled-trace-replay claim: streaming
//! a corpus trace's events out of its compiled bytecode program must beat
//! re-deriving them by re-running the instrumented kernel (into a
//! preallocated tracer — the fairest vector baseline) — the
//! compile-once-replay-many scenario every sweep lives in. The decoded
//! stream is asserted equal to the re-derived event vector in process
//! before any timing is reported, and the entry records the bytes-per-
//! event compression that lets programs reach sizes vectors cannot.

use crate::harness::{self, RunRecord};
use crate::{BenchError, ExpCtx, Scale};
use cadapt_analysis::parallel::resolve_threads;
use cadapt_core::profile::ConstantSource;
use cadapt_core::{Blocks, BoxSource};
use cadapt_paging::{analytic_fixed, replay_fixed};
use cadapt_profiles::WorstCase;
use cadapt_recursion::{run_cursor_on_profile, run_on_profile, AbcParams, ExecModel, RunConfig};
use cadapt_trace::corpus::{test_matrices, test_strings};
use cadapt_trace::{
    compile, BlockTrace, TraceAlgo, TraceEvent, TraceProgram, TraceSummary, Tracer,
};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Bump when the JSON layout changes shape. 2 added `host_parallelism`
/// and the `thread_scaling` section; 3 added the `analytic` section and
/// moved the committed record to `BENCH_6.json`; 4 added the `bytecode`
/// section and moved the committed record to `BENCH_7.json`; 5 added the
/// `streaming` section (cursor pipelines vs the batched fast path, plus
/// the constant-peak-memory scale drive) and moved the committed record
/// to `BENCH_9.json`.
pub const SCHEMA_VERSION: u32 = 5;

/// The trial-parallel experiments timed by the thread-scaling ladder.
const SCALING_EXPERIMENTS: [&str; 6] = ["e3", "e4", "e5", "e10", "e11", "e13"];

/// Timing iterations per configuration; the minimum is reported (the
/// standard noise-rejection choice for CPU-bound single-threaded work).
const ITERS: u32 = 3;

/// One benchmark case, timed both ways.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfEntry {
    /// Case name (stable across runs; used by tooling).
    pub name: String,
    /// Boxes the execution consumed (identical in both modes).
    pub boxes: u64,
    /// Minimum wall time of the per-box baseline, in milliseconds.
    pub per_box_ms: f64,
    /// Minimum wall time of the batched fast path, in milliseconds.
    pub batched_ms: f64,
    /// `per_box_ms / batched_ms`.
    pub speedup: f64,
}

/// One experiment at one worker count on the thread-scaling ladder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScalingEntry {
    /// Registry id of the experiment.
    pub experiment: String,
    /// Worker threads used for the trial fan-out.
    pub threads: usize,
    /// Wall time of the run, in milliseconds.
    pub wall_ms: f64,
    /// Serial wall time divided by this run's wall time.
    pub speedup: f64,
    /// Did the record reproduce the serial record bit-for-bit? (Also
    /// asserted in process: a `false` can never reach the JSON.)
    pub matches_serial: bool,
}

/// One corpus trace's capacity sweep, timed through both cache backends.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AnalyticEntry {
    /// Corpus algorithm label.
    pub name: String,
    /// Accesses in the trace being swept.
    pub accesses: u64,
    /// Capacities in the sweep (each one full simulator replay).
    pub sweep_points: usize,
    /// Minimum wall time of the simulated sweep, in milliseconds.
    pub simulated_ms: f64,
    /// Minimum wall time of the one-time summary build, in milliseconds.
    pub summary_ms: f64,
    /// Minimum wall time of the analytic sweep (prebuilt summary), in
    /// milliseconds.
    pub analytic_ms: f64,
    /// `simulated_ms / (summary_ms + analytic_ms)` — end to end,
    /// one-time build included.
    pub speedup: f64,
    /// `simulated_ms / analytic_ms` — the marginal cost of one more
    /// sweep point once the summary exists (the corpus store memoizes it
    /// across sweep points and trial workers, so wide sweeps approach
    /// this ratio).
    pub query_speedup: f64,
}

/// One corpus trace in the compile-once-replay-many comparison.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BytecodeEntry {
    /// Corpus algorithm label.
    pub name: String,
    /// Accesses in the trace.
    pub accesses: u64,
    /// Total events (accesses + leaf marks).
    pub events: u64,
    /// Minimum wall time of one structural compile, in milliseconds
    /// (paid once per corpus key, then memoized).
    pub compile_ms: f64,
    /// Minimum wall time of re-deriving and folding the event vector by
    /// re-running the instrumented kernel into a preallocated tracer, in
    /// milliseconds — what every replay cost before the bytecode store.
    pub rederive_ms: f64,
    /// Minimum wall time of folding the same events streamed out of the
    /// compiled program, in milliseconds.
    pub replay_ms: f64,
    /// `rederive_ms / replay_ms` — the compile-once-replay-many win.
    pub speedup: f64,
    /// Bytes of the `Vec<TraceEvent>` representation (16 per event).
    pub vec_bytes: u64,
    /// Bytes of the compiled program.
    pub bytecode_bytes: u64,
    /// `vec_bytes / bytecode_bytes`.
    pub compression: f64,
}

/// One execution driven twice — through the batched [`BoxSource`] fast
/// path and through the equivalent streaming cursor pipeline — with the
/// reports asserted equal in process before either clock is read. The
/// cursor layer is a zero-cost abstraction over the same closed-form
/// advancement, so `overhead` is expected to sit within timing noise of
/// 1.0; a committed record pins that claim.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamingEntry {
    /// Case name (stable across runs; used by tooling).
    pub name: String,
    /// Boxes the execution consumed (identical in both modes).
    pub boxes: u64,
    /// Minimum wall time through the batched `BoxSource` driver, in
    /// milliseconds.
    pub batched_ms: f64,
    /// Minimum wall time through the streaming cursor driver, in
    /// milliseconds.
    pub streaming_ms: f64,
    /// `streaming_ms / batched_ms` — the cursor layer's overhead
    /// (≈ 1.0 expected; the two paths share the draining loop).
    pub overhead: f64,
}

/// The constant-memory scale drive: a three-tenant contended round-robin
/// pipeline streamed through the execution driver at E15's longest replay
/// length and at 64× that length, with peak heap growth metered (when the
/// `count-alloc` feature is compiled in) and asserted flat — the long
/// drive may not allocate more than the short one plus a fixed slack.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamingScale {
    /// Boxes streamed in the short drive (= E15's longest replay length).
    pub boxes_short: u64,
    /// Boxes streamed in the long drive (64× the short one).
    pub boxes_long: u64,
    /// `boxes_long` over E15's longest replay at the same scale.
    pub growth_vs_e15: f64,
    /// Minimum wall time of the short drive, in milliseconds.
    pub short_ms: f64,
    /// Minimum wall time of the long drive, in milliseconds.
    pub long_ms: f64,
    /// Peak heap growth of the short drive, bytes (metered builds only).
    pub peak_short_bytes: Option<u64>,
    /// Peak heap growth of the long drive, bytes (metered builds only).
    /// Asserted in process to stay within `PEAK_SLACK_BYTES` of the
    /// short drive's peak — a `None` means the meter was compiled out,
    /// never that the assertion was skipped silently.
    pub peak_long_bytes: Option<u64>,
}

/// The whole suite, as serialised to `BENCH_9.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfSuite {
    /// JSON layout version.
    pub schema_version: u32,
    /// `"quick"` or `"full"`.
    pub scale: String,
    /// `std::thread::available_parallelism` on the recording host —
    /// context for reading the speedup column.
    pub host_parallelism: usize,
    /// All timed fast-path cases.
    pub entries: Vec<PerfEntry>,
    /// Simulator-vs-analytic capacity sweeps (equality asserted in
    /// process before timing is reported).
    pub analytic: Vec<AnalyticEntry>,
    /// Compiled-replay vs kernel re-derivation (stream equality asserted
    /// in process before timing is reported).
    pub bytecode: Vec<BytecodeEntry>,
    /// Streaming cursor pipelines vs the batched fast path (reports
    /// asserted equal in process before timing is reported).
    pub streaming: Vec<StreamingEntry>,
    /// The constant-memory contended drive at 64× E15 lengths.
    pub streaming_scale: StreamingScale,
    /// The thread-scaling ladder (serial baseline first per experiment).
    pub thread_scaling: Vec<ScalingEntry>,
}

impl PerfSuite {
    /// Pretty JSON for the committed record.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut text = serde_json::to_value(self).render_pretty();
        text.push('\n');
        text
    }

    /// Render the human table printed by the CLI.
    #[must_use]
    pub fn table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<20} {:>12} {:>14} {:>14} {:>9}\n",
            "case", "boxes", "per-box (ms)", "batched (ms)", "speedup"
        ));
        for e in &self.entries {
            out.push_str(&format!(
                "{:<20} {:>12} {:>14.2} {:>14.2} {:>8.1}x\n",
                e.name, e.boxes, e.per_box_ms, e.batched_ms, e.speedup
            ));
        }
        if !self.analytic.is_empty() {
            out.push_str(&format!(
                "\nanalytic vs simulated (capacity sweeps):\n{:<14} {:>10} {:>7} {:>13} {:>12} {:>13} {:>9} {:>11}\n",
                "trace", "accesses", "points", "simulated", "summary", "analytic", "speedup", "per-query"
            ));
            for e in &self.analytic {
                out.push_str(&format!(
                    "{:<14} {:>10} {:>7} {:>10.2}ms {:>10.3}ms {:>10.3}ms {:>8.1}x {:>10.0}x\n",
                    e.name,
                    e.accesses,
                    e.sweep_points,
                    e.simulated_ms,
                    e.summary_ms,
                    e.analytic_ms,
                    e.speedup,
                    e.query_speedup
                ));
            }
        }
        if !self.bytecode.is_empty() {
            out.push_str(&format!(
                "\nbytecode replay vs kernel re-derivation:\n{:<14} {:>10} {:>11} {:>11} {:>10} {:>9} {:>12} {:>12}\n",
                "trace", "accesses", "compile", "re-derive", "replay", "speedup", "bytecode B", "compression"
            ));
            for e in &self.bytecode {
                out.push_str(&format!(
                    "{:<14} {:>10} {:>9.2}ms {:>9.2}ms {:>8.3}ms {:>8.1}x {:>12} {:>11.1}x\n",
                    e.name,
                    e.accesses,
                    e.compile_ms,
                    e.rederive_ms,
                    e.replay_ms,
                    e.speedup,
                    e.bytecode_bytes,
                    e.compression
                ));
            }
        }
        if !self.streaming.is_empty() {
            out.push_str(&format!(
                "\nstreaming cursor vs batched fast path:\n{:<14} {:>12} {:>13} {:>13} {:>9}\n",
                "case", "boxes", "batched", "streaming", "overhead"
            ));
            for e in &self.streaming {
                out.push_str(&format!(
                    "{:<14} {:>12} {:>11.2}ms {:>11.2}ms {:>8.2}x\n",
                    e.name, e.boxes, e.batched_ms, e.streaming_ms, e.overhead
                ));
            }
        }
        {
            let s = &self.streaming_scale;
            let fmt_peak = |p: Option<u64>| match p {
                Some(bytes) => format!("{bytes} B"),
                None => "unmetered".to_string(),
            };
            out.push_str(&format!(
                "\ncontended streaming drive (peak heap flat by assertion):\n\
                 {:<10} {:>14} {:>12} {:>14}\n\
                 {:<10} {:>14} {:>10.1}ms {:>14}\n\
                 {:<10} {:>14} {:>10.1}ms {:>14}\n",
                "drive",
                "boxes",
                "wall",
                "peak heap",
                "short",
                s.boxes_short,
                s.short_ms,
                fmt_peak(s.peak_short_bytes),
                "long(64x)",
                s.boxes_long,
                s.long_ms,
                fmt_peak(s.peak_long_bytes),
            ));
        }
        if !self.thread_scaling.is_empty() {
            out.push_str(&format!(
                "\nthread scaling (host parallelism {}):\n{:<12} {:>8} {:>12} {:>9} {:>15}\n",
                self.host_parallelism,
                "experiment",
                "threads",
                "wall (ms)",
                "speedup",
                "matches serial"
            ));
            for e in &self.thread_scaling {
                out.push_str(&format!(
                    "{:<12} {:>8} {:>12.1} {:>8.2}x {:>15}\n",
                    e.experiment, e.threads, e.wall_ms, e.speedup, e.matches_serial
                ));
            }
        }
        out
    }
}

/// Time `make_source` + `run_on_profile` under `config`, returning
/// (min wall ms, boxes used).
fn time_case<S: BoxSource>(
    params: AbcParams,
    n: u64,
    config: &RunConfig,
    make_source: impl Fn() -> S,
) -> Result<(f64, u64), BenchError> {
    let mut best = f64::INFINITY;
    let mut boxes = 0;
    for _ in 0..ITERS {
        let mut source = make_source();
        // cadapt-lint: allow(nondet-source) -- the perf smoke measures wall time by design; timings feed the perf report, never the golden records
        let start = Instant::now();
        let report = run_on_profile(params, n, &mut source, config)?;
        let elapsed = start.elapsed().as_secs_f64() * 1e3;
        best = best.min(elapsed);
        boxes = report.boxes_used;
    }
    Ok((best, boxes))
}

fn entry<S: BoxSource>(
    name: &str,
    params: AbcParams,
    n: u64,
    model: ExecModel,
    make_source: impl Fn() -> S,
) -> Result<PerfEntry, BenchError> {
    let per_box_config = RunConfig {
        model,
        retain_history: true,
        ..RunConfig::default()
    };
    let batched_config = RunConfig {
        model,
        ..RunConfig::default()
    };
    let (per_box_ms, slow_boxes) = time_case(params, n, &per_box_config, &make_source)?;
    let (batched_ms, fast_boxes) = time_case(params, n, &batched_config, &make_source)?;
    if slow_boxes != fast_boxes {
        return Err(BenchError::invariant(format!(
            "{name}: fast path diverged from the per-box baseline ({fast_boxes} vs {slow_boxes} boxes)"
        )));
    }
    Ok(PerfEntry {
        name: name.to_string(),
        boxes: fast_boxes,
        per_box_ms,
        batched_ms,
        speedup: per_box_ms / batched_ms,
    })
}

/// Run the full suite at the given scale.
///
/// The two headline cases exercise the two segment kinds of the fast path:
///
/// * `constant` — MM-Scan fed constant boxes (one infinite run; the
///   multi-sibling jump collapse and the scan division do all the work);
/// * `worst_case` — a wide adversary (a = 16) whose profile is dominated
///   by leaf bursts, the case the worst-case experiments spend their time
///   in. Width matters: a bounds the per-box work a leaf burst replaces,
///   so it bounds the attainable speedup.
///
/// Are two run records bit-identical in everything golden comparison
/// reads? Wall time is excluded by definition; metric values compare by
/// bit pattern, not tolerance.
fn records_identical(a: &RunRecord, b: &RunRecord) -> bool {
    a.counters == b.counters
        && a.tables == b.tables
        && a.metrics.len() == b.metrics.len()
        && a.metrics.iter().zip(&b.metrics).all(|(x, y)| {
            x.name == y.name
                && x.value.to_bits() == y.value.to_bits()
                && x.ci95.to_bits() == y.ci95.to_bits()
        })
}

/// The worker-count ladder: 1, 2, 4, and the host parallelism, deduped
/// and sorted.
fn ladder(host: usize) -> Vec<usize> {
    let mut counts = vec![1, 2, 4, host];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Time the trial-parallel experiments across the worker ladder,
/// checking each parallel record reproduces the serial one exactly.
///
/// # Errors
///
/// Returns a typed error if any parallel run diverges from the serial
/// record — that is a determinism bug in the engine, not a tolerable
/// measurement artifact — or if any run fails outright.
fn thread_scaling(scale: Scale, host: usize) -> Result<Vec<ScalingEntry>, BenchError> {
    let mut out = Vec::new();
    for id in SCALING_EXPERIMENTS {
        let exp = harness::find(id).ok_or_else(|| {
            BenchError::invariant(format!("scaling experiment {id} is not registered"))
        })?;
        let mut serial: Option<RunRecord> = None;
        for &threads in &ladder(host) {
            eprintln!("[cadapt-bench] scaling {id} with {threads} thread(s)…");
            let record = harness::run_record_ctx(exp, ExpCtx::with_threads(scale, threads))?;
            let (speedup, matches_serial) = match &serial {
                None => (1.0, true),
                Some(base) => {
                    let matches = records_identical(base, &record);
                    if !matches {
                        return Err(BenchError::invariant(format!(
                            "{id}: record at {threads} threads diverged from the serial record"
                        )));
                    }
                    (base.wall_ms / record.wall_ms, matches)
                }
            };
            out.push(ScalingEntry {
                experiment: id.to_string(),
                threads,
                wall_ms: record.wall_ms,
                speedup,
                matches_serial,
            });
            if serial.is_none() {
                serial = Some(record);
            }
        }
    }
    Ok(out)
}

/// The fixed-capacity sweep both backends are timed on.
fn sweep_capacities() -> Vec<Blocks> {
    (2..=12).map(|j| 1u64 << j).collect()
}

/// Time the capacity sweep through the simulator and through the
/// analytic model, per corpus trace, asserting equal fault counts first.
///
/// # Errors
///
/// Any fault-count disagreement between the backends is a typed
/// invariant failure — the timing never reaches the JSON.
fn analytic_vs_simulated(scale: Scale) -> Result<Vec<AnalyticEntry>, BenchError> {
    let side = scale.pick(32, 64);
    let block_words = 4;
    let capacities = sweep_capacities();
    let mut out = Vec::new();
    for algo in TraceAlgo::ALL {
        eprintln!(
            "[cadapt-bench] analytic sweep: {} at side {side}…",
            algo.label()
        );
        let trace = algo.trace(side, block_words);
        let summary = TraceSummary::new(&trace);

        // Correctness before clocks: the whole sweep must agree.
        for &m in &capacities {
            let sim = replay_fixed(&trace, m);
            let ana = analytic_fixed(&summary, m);
            if sim != ana {
                return Err(BenchError::invariant(format!(
                    "analytic sweep: {} M={m}: simulator {} vs analytic {}",
                    algo.label(),
                    sim.io,
                    ana.io
                )));
            }
        }

        let mut simulated_ms = f64::INFINITY;
        let mut summary_ms = f64::INFINITY;
        let mut analytic_ms = f64::INFINITY;
        for _ in 0..ITERS {
            // cadapt-lint: allow(nondet-source) -- wall-clock timing is the point of the perf suite; timings never feed golden records
            let start = Instant::now();
            let mut total: u128 = 0;
            for &m in &capacities {
                total += replay_fixed(&trace, m).io;
            }
            simulated_ms = simulated_ms.min(start.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(total);

            // cadapt-lint: allow(nondet-source) -- wall-clock timing is the point of the perf suite; timings never feed golden records
            let start = Instant::now();
            let rebuilt = TraceSummary::new(&trace);
            summary_ms = summary_ms.min(start.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(&rebuilt);

            // cadapt-lint: allow(nondet-source) -- wall-clock timing is the point of the perf suite; timings never feed golden records
            let start = Instant::now();
            let mut total: u128 = 0;
            for &m in &capacities {
                total += analytic_fixed(&summary, m).io;
            }
            analytic_ms = analytic_ms.min(start.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(total);
        }
        out.push(AnalyticEntry {
            name: algo.label().to_string(),
            accesses: summary.accesses(),
            sweep_points: capacities.len(),
            simulated_ms,
            summary_ms,
            analytic_ms,
            speedup: simulated_ms / (summary_ms + analytic_ms),
            query_speedup: simulated_ms / analytic_ms,
        });
    }
    Ok(out)
}

/// Fold an event stream to a checksum — the common consumer both replay
/// paths are timed through (cheap enough that decode/derive dominates).
/// Uses `Iterator::fold` so the decoder's internal-iteration fast path
/// engages for bytecode streams.
fn fold_events<I: Iterator<Item = TraceEvent>>(events: I) -> (u64, u64) {
    events.fold((0u64, 0u64), |(blocks, leaves), event| match event {
        TraceEvent::Access(b) => (blocks.wrapping_add(b), leaves),
        TraceEvent::Leaf => (blocks, leaves + 1),
    })
}

/// Re-derive a corpus trace's event vector by re-running the instrumented
/// kernel into a tracer preallocated from the program's stored counts —
/// the fairest possible vector baseline.
fn rederive_trace(
    algo: TraceAlgo,
    side: usize,
    block_words: u64,
    program: &TraceProgram,
) -> BlockTrace {
    let mut tracer = Tracer::with_capacity(
        block_words,
        program.accesses(),
        program.leaves(),
        program.distinct_blocks(),
    );
    match algo {
        TraceAlgo::MmScan => {
            let (a, b) = test_matrices(side);
            let _ = cadapt_trace::mm::mm_scan_with(&a, &b, block_words, &mut tracer);
        }
        TraceAlgo::MmInplace => {
            let (a, b) = test_matrices(side);
            let _ = cadapt_trace::mm::mm_inplace_with(&a, &b, block_words, &mut tracer);
        }
        TraceAlgo::Strassen => {
            let (a, b) = test_matrices(side);
            let _ = cadapt_trace::strassen::strassen_with(&a, &b, block_words, &mut tracer);
        }
        TraceAlgo::EditDistance => {
            let (x, y) = test_strings(side);
            let _ = cadapt_trace::edit::edit_distance_with(&x, &y, block_words, &mut tracer);
        }
        TraceAlgo::VebSearch => {
            let _ = cadapt_trace::veb::veb_search_with(side, block_words, &mut tracer);
        }
    }
    tracer.into_trace()
}

/// Time the compile-once-replay-many comparison per corpus trace: folding
/// events streamed from the compiled program against folding events
/// re-derived by re-running the kernel, with the streams asserted equal
/// in process before any clock is read.
///
/// # Errors
///
/// Any stream disagreement is a typed invariant failure — the timing
/// never reaches the JSON.
fn bytecode_replay(scale: Scale) -> Result<Vec<BytecodeEntry>, BenchError> {
    let side = scale.pick(32, 64);
    let block_words = 4;
    let mut out = Vec::new();
    for algo in TraceAlgo::EXTENDED {
        eprintln!(
            "[cadapt-bench] bytecode replay: {} at side {side}…",
            algo.label()
        );
        let program = algo.compile(side, block_words);

        // Correctness before clocks: structural emission must equal
        // recompilation, and the decoded stream must equal the re-derived
        // vector (and therefore fold identically).
        let rederived = rederive_trace(algo, side, block_words, &program);
        if compile(&rederived) != program {
            return Err(BenchError::invariant(format!(
                "bytecode replay: {} structural emission diverged from recompilation",
                algo.label()
            )));
        }
        if !program.events().eq(rederived.events().iter().copied()) {
            return Err(BenchError::invariant(format!(
                "bytecode replay: {} decoded stream diverged from the re-derived vector",
                algo.label()
            )));
        }
        if fold_events(program.events()) != fold_events(rederived.events().iter().copied()) {
            return Err(BenchError::invariant(format!(
                "bytecode replay: {} stream fold diverged from the vector fold",
                algo.label()
            )));
        }
        drop(rederived);

        let mut compile_ms = f64::INFINITY;
        let mut rederive_ms = f64::INFINITY;
        let mut replay_ms = f64::INFINITY;
        for _ in 0..ITERS {
            // cadapt-lint: allow(nondet-source) -- wall-clock timing is the point of the perf suite; timings never feed golden records
            let start = Instant::now();
            let recompiled = algo.compile(side, block_words);
            compile_ms = compile_ms.min(start.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(&recompiled);

            // cadapt-lint: allow(nondet-source) -- wall-clock timing is the point of the perf suite; timings never feed golden records
            let start = Instant::now();
            let trace = rederive_trace(algo, side, block_words, &program);
            let fold = fold_events(trace.events().iter().copied());
            rederive_ms = rederive_ms.min(start.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(fold);

            // cadapt-lint: allow(nondet-source) -- wall-clock timing is the point of the perf suite; timings never feed golden records
            let start = Instant::now();
            let fold = fold_events(program.events());
            replay_ms = replay_ms.min(start.elapsed().as_secs_f64() * 1e3);
            std::hint::black_box(fold);
        }

        let events = u64::try_from(program.event_count()).unwrap_or(u64::MAX);
        let vec_bytes = events.saturating_mul(16);
        let bytecode_bytes = cadapt_core::cast::u64_from_usize(program.byte_len());
        out.push(BytecodeEntry {
            name: algo.label().to_string(),
            accesses: program.accesses(),
            events,
            compile_ms,
            rederive_ms,
            replay_ms,
            speedup: rederive_ms / replay_ms,
            vec_bytes,
            bytecode_bytes,
            compression: vec_bytes as f64 / bytecode_bytes as f64,
        });
    }
    Ok(out)
}

/// Heap slack the long contended drive is allowed over the short one when
/// the `count-alloc` meter is installed: 64 KiB covers allocator jitter
/// while still failing loudly if any pipeline stage scales with length.
const PEAK_SLACK_BYTES: u64 = 64 * 1024;

/// Time one execution through the batched `BoxSource` driver and through
/// the identical streaming cursor pipeline, asserting the two reports are
/// equal before either clock is read.
fn streaming_entry<S, C>(
    name: &str,
    params: AbcParams,
    n: u64,
    make_source: impl Fn() -> S,
    make_cursor: impl Fn() -> C,
) -> Result<StreamingEntry, BenchError>
where
    S: BoxSource,
    C: cadapt_core::RunCursor,
{
    let config = RunConfig::default();

    // Correctness before clocks: the full adaptivity reports must agree.
    let batched_report = run_on_profile(params, n, &mut make_source(), &config)?;
    let streamed_report = run_cursor_on_profile(params, n, &mut make_cursor(), &config)?;
    if batched_report != streamed_report {
        return Err(BenchError::invariant(format!(
            "streaming {name}: cursor drive diverged from the batched fast path"
        )));
    }

    let mut batched_ms = f64::INFINITY;
    let mut streaming_ms = f64::INFINITY;
    for _ in 0..ITERS {
        let mut source = make_source();
        // cadapt-lint: allow(nondet-source) -- wall-clock timing is the point of the perf suite; timings never feed golden records
        let start = Instant::now();
        let report = run_on_profile(params, n, &mut source, &config)?;
        batched_ms = batched_ms.min(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(&report);

        let mut cursor = make_cursor();
        // cadapt-lint: allow(nondet-source) -- wall-clock timing is the point of the perf suite; timings never feed golden records
        let start = Instant::now();
        let report = run_cursor_on_profile(params, n, &mut cursor, &config)?;
        streaming_ms = streaming_ms.min(start.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(&report);
    }
    Ok(StreamingEntry {
        name: name.to_string(),
        boxes: batched_report.boxes_used,
        batched_ms,
        streaming_ms,
        overhead: streaming_ms / batched_ms,
    })
}

/// The batched-vs-streaming throughput cases: the same two headline feeds
/// the fast-path section times, driven through cursor pipelines.
fn streaming_section(scale: Scale) -> Result<Vec<StreamingEntry>, BenchError> {
    let mm = AbcParams::mm_scan();
    let constant_n: u64 = scale.pick(1 << 16, 1 << 18);
    let wide = AbcParams::new(16, 4, 1.0, 1)?;
    let wc_depth = scale.pick(5, 6);
    let wc = WorstCase::new(16, 4, 1, wc_depth)?;
    let wc_n = wide.canonical_size(wc_depth);
    eprintln!("[cadapt-bench] streaming cursor overhead…");
    Ok(vec![
        streaming_entry(
            "constant",
            mm,
            constant_n,
            || ConstantSource::new(16),
            || ConstantSource::new(16).into_cursor(),
        )?,
        streaming_entry(
            "worst_case",
            wide,
            wc_n,
            || wc.source(),
            || wc.source().into_cursor(),
        )?,
    ])
}

/// Stream a three-tenant contended round-robin pipeline for exactly
/// `target` boxes, returning the minimum wall time and the metered peak
/// heap growth. The execution cannot complete at `huge_n`, so the typed
/// `ProfileExhausted { after_boxes == target }` outcome proves every box
/// was consumed.
fn contended_drive(target: u64, huge_n: u64) -> Result<(f64, Option<u64>), BenchError> {
    use cadapt_core::{RunCursor, RunCursorExt};
    let mm = AbcParams::mm_scan();
    let config = RunConfig::default();
    let tooth: Vec<u64> = (1..=32).chain((1..=32).rev()).collect();
    let tooth = cadapt_core::SquareProfile::new(tooth)
        .map_err(|e| BenchError::invariant(format!("contended drive tooth menu: {e}")))?;
    let adversary = WorstCase::new(8, 4, 1, 20)?;
    let total_cache = 96u64;
    let mut wall_ms = f64::INFINITY;
    let mut peak: Option<u64> = None;
    for _ in 0..ITERS {
        let drive = || -> Result<(), BenchError> {
            let tenants: Vec<Box<dyn RunCursor + '_>> = vec![
                Box::new(adversary.source().into_cursor()),
                Box::new(tooth.cycle().into_cursor()),
                Box::new(ConstantSource::new(total_cache).into_cursor()),
            ];
            let mut pipeline = cadapt_profiles::contended_round_robin(tenants, 1024, total_cache)
                .take_boxes(target);
            match run_cursor_on_profile(mm, huge_n, &mut pipeline, &config) {
                Err(cadapt_recursion::RunError::ProfileExhausted { after_boxes })
                    if after_boxes == target =>
                {
                    Ok(())
                }
                Err(e) => Err(BenchError::invariant(format!(
                    "contended drive: expected exhaustion at {target}, got {e}"
                ))),
                Ok(report) => Err(BenchError::invariant(format!(
                    "contended drive completed in {} boxes — n is not huge enough",
                    report.boxes_used
                ))),
            }
        };
        // cadapt-lint: allow(nondet-source) -- wall-clock timing is the point of the perf suite; timings never feed golden records
        let start = Instant::now();
        let (outcome, growth) = crate::alloc_meter::measure_peak_growth(drive);
        wall_ms = wall_ms.min(start.elapsed().as_secs_f64() * 1e3);
        outcome?;
        peak = match (peak, growth) {
            (Some(best), Some(g)) => Some(best.min(g)),
            (None, g) => g,
            (best, None) => best,
        };
    }
    Ok((wall_ms, peak))
}

/// The constant-memory scale drive (see [`StreamingScale`]).
///
/// # Errors
///
/// A drive that does not exhaust its pipeline exactly, or (when metered)
/// a long drive whose peak heap exceeds the short drive's by more than
/// `PEAK_SLACK_BYTES`, is a typed invariant failure.
fn streaming_scale(scale: Scale) -> Result<StreamingScale, BenchError> {
    let side = scale.pick(64, 128);
    let e15_len = TraceAlgo::EXTENDED
        .iter()
        .map(|algo| cadapt_trace::compiled(*algo, side, 4).accesses())
        .max()
        .ok_or_else(|| BenchError::invariant("streaming scale: empty corpus"))?;
    let boxes_short = e15_len;
    let boxes_long = e15_len.saturating_mul(64);
    let huge_n = AbcParams::mm_scan().canonical_size(30);
    eprintln!("[cadapt-bench] streaming contended drive: {boxes_short} then {boxes_long} boxes…");
    let (short_ms, peak_short_bytes) = contended_drive(boxes_short, huge_n)?;
    let (long_ms, peak_long_bytes) = contended_drive(boxes_long, huge_n)?;
    if let (Some(short), Some(long)) = (peak_short_bytes, peak_long_bytes) {
        if long > short.saturating_add(PEAK_SLACK_BYTES) {
            return Err(BenchError::invariant(format!(
                "streaming scale: peak heap grew with pipeline length \
                 ({short} B at {boxes_short} boxes, {long} B at {boxes_long} boxes)"
            )));
        }
        eprintln!("[cadapt-bench] streaming peak heap: {short} B short, {long} B long (flat)");
    }
    Ok(StreamingScale {
        boxes_short,
        boxes_long,
        growth_vs_e15: boxes_long as f64 / e15_len as f64,
        short_ms,
        long_ms,
        peak_short_bytes,
        peak_long_bytes,
    })
}

/// `constant_capacity` times the capacity model's steady-cycle batching on
/// the same constant feed.
///
/// # Errors
///
/// Propagates run failures and engine determinism violations as typed
/// errors.
pub fn run(scale: Scale) -> Result<PerfSuite, BenchError> {
    let mm = AbcParams::mm_scan();
    let constant_n: u64 = scale.pick(1 << 16, 1 << 18);
    let wide = AbcParams::new(16, 4, 1.0, 1)?;
    let wc_depth = scale.pick(5, 6);
    let wc = WorstCase::new(16, 4, 1, wc_depth)?;
    let wc_n = wide.canonical_size(wc_depth);
    let entries = vec![
        entry("constant", mm, constant_n, ExecModel::Simplified, || {
            ConstantSource::new(16)
        })?,
        entry("worst_case", wide, wc_n, ExecModel::Simplified, || {
            wc.source()
        })?,
        entry(
            "constant_capacity",
            mm,
            constant_n,
            ExecModel::capacity(),
            || ConstantSource::new(16),
        )?,
    ];
    let host = resolve_threads(0);
    Ok(PerfSuite {
        schema_version: SCHEMA_VERSION,
        scale: scale.name().to_string(),
        host_parallelism: host,
        entries,
        analytic: analytic_vs_simulated(scale)?,
        bytecode: bytecode_replay(scale)?,
        streaming: streaming_section(scale)?,
        streaming_scale: streaming_scale(scale)?,
        thread_scaling: thread_scaling(scale, host)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_runs_and_serialises_at_tiny_scale() {
        // Exercise the machinery (not the timings) on a reduced case.
        let e = entry(
            "tiny",
            AbcParams::mm_scan(),
            256,
            ExecModel::Simplified,
            || ConstantSource::new(16),
        )
        .expect("tiny perf entry runs");
        assert!(e.boxes > 0);
        assert!(e.per_box_ms >= 0.0 && e.batched_ms >= 0.0);
        let suite = PerfSuite {
            schema_version: SCHEMA_VERSION,
            scale: "quick".to_string(),
            host_parallelism: 1,
            entries: vec![e],
            analytic: vec![AnalyticEntry {
                name: "MM-Scan".to_string(),
                accesses: 1000,
                sweep_points: 11,
                simulated_ms: 10.0,
                summary_ms: 0.5,
                analytic_ms: 0.01,
                speedup: 10.0 / 0.51,
                query_speedup: 1000.0,
            }],
            bytecode: vec![BytecodeEntry {
                name: "MM-Scan".to_string(),
                accesses: 1000,
                events: 1100,
                compile_ms: 2.0,
                rederive_ms: 2.5,
                replay_ms: 0.25,
                speedup: 10.0,
                vec_bytes: 17600,
                bytecode_bytes: 1100,
                compression: 16.0,
            }],
            streaming: vec![StreamingEntry {
                name: "constant".to_string(),
                boxes: 1 << 15,
                batched_ms: 1.0,
                streaming_ms: 1.05,
                overhead: 1.05,
            }],
            streaming_scale: StreamingScale {
                boxes_short: 1 << 18,
                boxes_long: 1 << 24,
                growth_vs_e15: 64.0,
                short_ms: 1.0,
                long_ms: 60.0,
                peak_short_bytes: Some(4096),
                peak_long_bytes: Some(4096),
            },
            thread_scaling: vec![ScalingEntry {
                experiment: "e3".to_string(),
                threads: 2,
                wall_ms: 1.0,
                speedup: 1.0,
                matches_serial: true,
            }],
        };
        let json = suite.to_json();
        let parsed: PerfSuite = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed.entries.len(), 1);
        assert_eq!(parsed.entries[0].name, "tiny");
        assert_eq!(parsed.analytic.len(), 1);
        assert_eq!(parsed.analytic[0].sweep_points, 11);
        assert_eq!(parsed.bytecode.len(), 1);
        assert_eq!(parsed.bytecode[0].bytecode_bytes, 1100);
        assert_eq!(parsed.streaming.len(), 1);
        assert_eq!(parsed.streaming_scale.peak_long_bytes, Some(4096));
        assert_eq!(parsed.thread_scaling.len(), 1);
        let rendered = suite.table();
        assert!(rendered.contains("tiny"));
        assert!(rendered.contains("analytic vs simulated"));
        assert!(rendered.contains("bytecode replay"));
        assert!(rendered.contains("streaming cursor vs batched"));
        assert!(rendered.contains("contended streaming drive"));
        assert!(rendered.contains("thread scaling"));
    }

    #[test]
    fn streaming_section_agrees_and_reports_sane_numbers() {
        // Report equality is asserted inside streaming_entry; check shape.
        let entries = streaming_section(Scale::Quick).expect("streaming section runs");
        assert_eq!(entries.len(), 2);
        for e in &entries {
            assert!(e.boxes > 0);
            assert!(e.batched_ms >= 0.0 && e.streaming_ms >= 0.0);
            assert!(e.overhead.is_finite() && e.overhead > 0.0);
        }
    }

    #[test]
    fn unmetered_peak_round_trips_as_null() {
        let scale = StreamingScale {
            boxes_short: 10,
            boxes_long: 640,
            growth_vs_e15: 64.0,
            short_ms: 1.0,
            long_ms: 2.0,
            peak_short_bytes: None,
            peak_long_bytes: None,
        };
        let json = serde_json::to_value(&scale).render_pretty();
        assert!(json.contains("null"), "{json}");
        let back: StreamingScale = serde_json::from_str(&json).unwrap();
        assert_eq!(back.peak_short_bytes, None);
    }

    #[test]
    fn bytecode_replay_verifies_and_reports_sane_numbers() {
        // The real comparison at the reduced size: stream equality is
        // asserted inside bytecode_replay; here we check the shape.
        let entries = bytecode_replay(Scale::Quick).expect("bytecode replay runs");
        assert_eq!(entries.len(), TraceAlgo::EXTENDED.len());
        for e in &entries {
            assert!(e.accesses > 0 && e.events >= e.accesses);
            assert!(e.compile_ms >= 0.0 && e.rederive_ms >= 0.0 && e.replay_ms >= 0.0);
            assert!(e.speedup.is_finite() && e.speedup > 0.0);
            assert!(e.bytecode_bytes > 0 && e.vec_bytes > e.bytecode_bytes);
            assert!(
                e.compression > 1.0,
                "{}: compression {}",
                e.name,
                e.compression
            );
        }
    }

    #[test]
    fn analytic_sweep_agrees_and_reports_sane_timings() {
        // The real sweep at a reduced size: correctness is asserted
        // inside analytic_vs_simulated; here we check the shape.
        let entries = analytic_vs_simulated(Scale::Quick).expect("sweep runs");
        assert_eq!(entries.len(), TraceAlgo::ALL.len());
        for e in &entries {
            assert!(e.accesses > 0);
            assert_eq!(e.sweep_points, sweep_capacities().len());
            assert!(e.simulated_ms >= 0.0 && e.summary_ms >= 0.0 && e.analytic_ms >= 0.0);
            assert!(e.speedup.is_finite() && e.speedup > 0.0);
            assert!(e.query_speedup >= e.speedup);
        }
    }

    #[test]
    fn ladder_is_deduped_and_starts_serial() {
        assert_eq!(ladder(1), vec![1, 2, 4]);
        assert_eq!(ladder(4), vec![1, 2, 4]);
        assert_eq!(ladder(8), vec![1, 2, 4, 8]);
        assert_eq!(ladder(3), vec![1, 2, 3, 4]);
    }
}
