//! `cadapt-perfbench`: one seeded workload per process, end-to-end
//! metrics from outside the library, per-layer metrics from a traced run.
//!
//! ```text
//! cadapt-perfbench --workload smoothing|trace-replay|serve|experiments
//!                  --seed N --seconds S --trace 0|1
//! ```
//!
//! The job list is a pure function of the seed; the library receives only
//! the generated inputs. Every job's output is checked, and the last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. The exit code is 0 only when every check
//! passed. See NOTES.md for the workloads and the metric definitions.

mod experiments;
mod replay;
mod serve;
mod smoothing;
mod span;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Per-job bookkeeping shared by every workload.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs failed, refused, or failing their output check.
    pub failed: u64,
    /// Latency of every attempted job, ms.
    pub latencies_ms: Vec<f64>,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Tally {
    /// Time one job and record its outcome.
    pub fn job(&mut self, id: u64, f: impl FnOnce() -> Result<(), String>) {
        let t = Instant::now();
        let outcome = f();
        self.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
        self.attempted += 1;
        if let Err(e) = outcome {
            self.fail(format!("job {id}: {e}"));
        }
    }

    /// Record a failure that is not tied to one timed call.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(message);
        }
    }
}

/// A workload whose fixed job list runs in rounds.
pub trait Rounds {
    /// Run the whole job list once.
    fn round(&mut self, tally: &mut Tally);
}

/// Everything one run measured.
struct Measured {
    tally: Tally,
    /// Median of the run's set-up batches, per set-up, s.
    setup_s: f64,
    /// Time to finish the fixed job list (or the serve window), s.
    wall_s: f64,
    /// Jobs completed per `wall_s`.
    jobs_per_s: f64,
    /// The latencies `job_p50_ms` and `job_p90_ms` are taken over, ms.
    job_ms: Vec<f64>,
    /// Per-layer values (traced runs only).
    layers: BTreeMap<String, f64>,
}

fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Linear-interpolated percentile of `values` (`q` in [0, 1]).
fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The metric declarations the run reports against: `end_to_end` (untraced)
/// and `per_layer` (traced) name every metric a run prints, with its unit.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in `section` of `BENCHMARK.json`.
fn declared(section: &str) -> Result<Vec<(String, String)>, String> {
    let root = serde_json::Value::parse_json(BENCHMARK_JSON)
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = root
        .as_object()
        .and_then(|o| o.get(section))
        .and_then(serde_json::Value::as_array)
        .ok_or(format!("BENCHMARK.json has no {section} list"))?;
    list.iter()
        .map(|m| {
            let m = m.as_object();
            let text = |key: &str| {
                m.and_then(|o| o.get(key))
                    .and_then(serde_json::Value::as_str)
                    .map(str::to_string)
                    .ok_or(format!("BENCHMARK.json: a {section} entry has no {key}"))
            };
            Ok((text("name")?, text("unit")?))
        })
        .collect()
}

/// Counts that must repeat exactly in every traced round of one seed.
const EXACT_COUNTS: &[&str] = &[
    "profiles.boxes",
    "recursion.boxes",
    "analysis.trials",
    "sched.jobs",
    "trace.events",
    "trace.program_bytes",
    "paging.sim_accesses",
    "paging.faults",
];

/// Span names behind the per-layer time metrics.
const LAYER_SPANS: &[(&str, &str)] = &[
    ("profiles.gen_ms", "profiles.gen"),
    ("recursion.run_ms", "recursion.run"),
    ("analysis.mc_ms", "analysis.mc"),
    ("sched.schedule_ms", "sched.schedule"),
    ("trace.build_ms", "trace.build"),
    ("trace.summary_ms", "trace.summary"),
    ("paging.sim_ms", "paging.sim"),
    ("paging.analytic_ms", "paging.analytic"),
    ("bench.run_record_ms.e3", "bench.run_record.e3"),
    ("bench.run_record_ms.e8", "bench.run_record.e8"),
    ("bench.persist_ms", "bench.persist"),
    ("bench.check_ms", "bench.check"),
];

/// The best (smallest) value each job reached over the rounds:
/// `rounds[r][j]` is job `j`'s value in round `r`.
///
/// Co-tenants on a shared host slow whole stretches of a run by 20-50 %;
/// a job's fastest round is the time it needs when left alone, and it
/// repeats from run to run where medians of rounds do not.
fn best_per_job(rounds: &[Vec<f64>]) -> Vec<f64> {
    let jobs = rounds.iter().map(Vec::len).min().unwrap_or(0);
    (0..jobs)
        .map(|j| rounds.iter().map(|r| r[j]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Set-ups timed together as one `setup_s` sample: a single set-up takes
/// 0.4-2.5 ms, and no timed unit may be much below 1 ms.
const SETUP_BATCH: usize = 10;

/// Set up [`SETUP_BATCH`] instances back to back, each dropped when the
/// next is built. Returns the mean time per set-up, s, and the last one.
fn setup_batch<W>(setup: &mut impl FnMut() -> Result<W, String>) -> Result<(f64, W), String> {
    let t = Instant::now();
    let mut last = setup()?;
    for _ in 1..SETUP_BATCH {
        last = setup()?;
    }
    Ok((secs_since(t) / SETUP_BATCH as f64, last))
}

/// Drive a round-based workload for `seconds`.
///
/// A batch of set-ups runs before the first round (the last one is kept)
/// and another after every round, so the `setup_s` samples span the whole
/// run. Rounds repeat the fixed job list until the time is up (at
/// least two run). `wall_s` sums each job's best latency over the rounds,
/// and the job percentiles are taken over those best latencies, so costs
/// paid only in the cold first round never show in them. Traced, that
/// round is timed whole as `cold_round_ms` and kept out of the rest; then
/// traced and untraced rounds alternate: per-layer self times are per-job
/// bests over the traced rounds, summed, and `tracing_overhead_frac`
/// compares the two kinds of round.
fn measure_rounds<W: Rounds>(
    mut setup: impl FnMut() -> Result<W, String>,
    seconds: f64,
    traced: bool,
) -> Result<Measured, String> {
    let (first, mut work) = setup_batch(&mut setup)?;
    let mut setup_s = vec![first];
    let mut tally = Tally::default();
    let mut cold_ms = 0.0;
    if traced {
        let t = Instant::now();
        work.round(&mut Tally::default());
        cold_ms = secs_since(t) * 1e3;
    }
    let start = Instant::now();
    let mut plain: Vec<Vec<f64>> = Vec::new();
    let mut traced_lat: Vec<Vec<f64>> = Vec::new();
    let mut traced_spans: Vec<span::Totals> = Vec::new();
    let min_rounds = if traced { 4 } else { 2 };
    while plain.len() + traced_lat.len() < min_rounds || start.elapsed().as_secs_f64() < seconds {
        let trace_this = traced && traced_lat.len() <= plain.len();
        let before = tally.latencies_ms.len();
        span::set_enabled(trace_this);
        work.round(&mut tally);
        span::set_enabled(false);
        let latencies = tally.latencies_ms[before..].to_vec();
        if trace_this {
            traced_lat.push(latencies);
            traced_spans.push(span::collect());
        } else {
            plain.push(latencies);
        }
        setup_s.push(setup_batch(&mut setup)?.0);
    }
    let job_ms = best_per_job(&plain);
    let wall_s = job_ms.iter().sum::<f64>() / 1e3;
    let mut layers = BTreeMap::new();
    if traced {
        // Counts are per round; the first traced round's are reported.
        for (name, n) in &traced_spans[0].counts {
            layers.insert((*name).to_string(), *n as f64);
        }
        for name in EXACT_COUNTS {
            let seen: Vec<u64> = traced_spans
                .iter()
                .map(|t| t.counts.get(name).copied().unwrap_or(0))
                .collect();
            if seen.iter().any(|&v| v != seen[0]) {
                tally.fail(format!(
                    "nondeterministic count {name} across rounds: {seen:?}"
                ));
            }
        }
        let jobs = job_ms.len() as u64;
        for (metric, span_name) in LAYER_SPANS {
            let per_round: Vec<Vec<f64>> = traced_spans
                .iter()
                .map(|t| {
                    (0..jobs)
                        .map(|j| t.self_ms.get(&(*span_name, j)).copied().unwrap_or(0.0))
                        .collect()
                })
                .collect();
            layers.insert((*metric).to_string(), best_per_job(&per_round).iter().sum());
        }
        let boxes = layers.get("recursion.boxes").copied().unwrap_or(0.0);
        let run_ns = layers["recursion.run_ms"] * 1e6;
        layers.insert(
            "recursion.ns_per_box".to_string(),
            if boxes > 0.0 { run_ns / boxes } else { 0.0 },
        );
        layers.insert("cold_round_ms".to_string(), cold_ms);
        let traced_s = best_per_job(&traced_lat).iter().sum::<f64>() / 1e3;
        layers.insert("tracing_overhead_frac".to_string(), traced_s / wall_s - 1.0);
    }
    Ok(Measured {
        setup_s: median(&setup_s),
        jobs_per_s: job_ms.len() as f64 / wall_s,
        tally,
        wall_s,
        job_ms,
        layers,
    })
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Batches of set-ups of the `serve` workload before its window; `setup_s`
/// is the median batch. One set-up takes 0.5-3 ms, mostly the journal's
/// fsyncs, and varies severalfold, so the batches are spread over about a
/// second.
const SERVE_SETUPS: usize = 20;
const SETUP_GAP: std::time::Duration = std::time::Duration::from_millis(40);

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

fn run(args: &Args, work_dir: &Path) -> Result<Measured, String> {
    let (seed, seconds, traced) = (args.seed, args.seconds, args.trace);
    match args.workload.as_str() {
        "smoothing" => measure_rounds(|| smoothing::Smoothing::setup(seed), seconds, traced),
        "trace-replay" => measure_rounds(|| replay::TraceReplay::setup(seed), seconds, traced),
        "experiments" => measure_rounds(
            || experiments::Experiments::setup(seed, work_dir),
            seconds,
            traced,
        ),
        "serve" => {
            // Set-up samples taken while the window runs would queue behind
            // the daemon's busy workers on two vCPUs, so serve sets up
            // SERVE_SETUPS batches before it, SETUP_GAP apart.
            let mut k = 0;
            let mut next = || {
                k += 1;
                serve::Serve::setup(seed, work_dir, k)
            };
            let mut times = Vec::new();
            let mut serve = None;
            for _ in 0..SERVE_SETUPS {
                drop(serve.take());
                std::thread::sleep(SETUP_GAP);
                // Dropping a set-up drains its daemon, so a batch is kept
                // alive until it has been timed.
                let t = Instant::now();
                let mut batch = (0..SETUP_BATCH)
                    .map(|_| next())
                    .collect::<Result<Vec<_>, String>>()?;
                times.push(secs_since(t) / SETUP_BATCH as f64);
                serve = batch.pop();
            }
            let serve = serve.expect("SERVE_SETUPS > 0");
            Ok(serve.measure(seconds, traced, median(&times)))
        }
        other => Err(format!("unknown workload {other}")),
    }
}

fn metric(value: f64, unit: &str) -> serde_json::Value {
    let mut m = serde_json::Map::new();
    m.insert(
        "value",
        serde_json::Value::Number(serde_json::Number::F(value)),
    );
    m.insert("unit", serde_json::Value::String(unit.to_string()));
    serde_json::Value::Object(m)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work_dir = PathBuf::from(format!(".bench_work/run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", work_dir.display());
        std::process::exit(2);
    }
    let outcome = run(&args, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    let _ = std::fs::remove_dir(".bench_work");
    let measured = match outcome {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {} failed to run: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let mut tally = measured.tally;
    let (section, values) = if args.trace {
        ("per_layer", measured.layers)
    } else {
        let ok =
            tally.attempted.saturating_sub(tally.failed) as f64 / tally.attempted.max(1) as f64;
        let values = [
            ("setup_s", measured.setup_s),
            ("wall_s", measured.wall_s),
            ("jobs_per_s", measured.jobs_per_s),
            ("job_p50_ms", percentile(&measured.job_ms, 0.5)),
            ("job_p90_ms", percentile(&measured.job_ms, 0.9)),
            ("peak_rss_mib", peak_rss_mib()),
            ("ok_frac", ok),
        ];
        (
            "end_to_end",
            values
                .map(|(n, v)| (n.to_string(), v))
                .into_iter()
                .collect(),
        )
    };
    let declared = match declared(section) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // A layer the workload does not touch reads 0; an end-to-end metric
    // the run did not measure is a failure.
    let mut metrics = serde_json::Map::new();
    for (name, unit) in &declared {
        let value = match values.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => f64::NAN,
        };
        if value.is_finite() {
            metrics.insert(name.as_str(), metric(value, unit));
        } else {
            tally.fail(format!("metric {name} is {value}"));
            metrics.insert(name.as_str(), metric(0.0, unit));
        }
    }
    // The exact counts on a line of their own, for comparing runs of one
    // seed (`run.py --repeat N --trace 1 --same-seed`).
    let exact: serde_json::Map = EXACT_COUNTS
        .iter()
        .filter_map(|n| Some((n.to_string(), values.get(*n)?)))
        .map(|(n, &v)| {
            (
                n,
                serde_json::Value::Number(serde_json::Number::U(v as u128)),
            )
        })
        .collect();
    if !exact.is_empty() {
        println!(
            "exact_counts {}",
            serde_json::Value::Object(exact).render_compact()
        );
    }
    for e in &tally.errors {
        eprintln!("perfbench: FAILED {e}");
    }
    eprintln!(
        "perfbench: {} seed {}: {} jobs, {} failed",
        args.workload, args.seed, tally.attempted, tally.failed
    );
    if tally.attempted == 0 {
        std::process::exit(1);
    }
    let correct = tally.failed == 0;
    let mut out = serde_json::Map::new();
    out.insert("correct", serde_json::Value::Bool(correct));
    out.insert(
        "attempted",
        serde_json::Value::Number(serde_json::Number::U(u128::from(tally.attempted))),
    );
    out.insert(
        "failed",
        serde_json::Value::Number(serde_json::Number::U(u128::from(tally.failed))),
    );
    out.insert("metrics", serde_json::Value::Object(metrics));
    println!("{}", serde_json::Value::Object(out).render_compact());
    if !correct {
        std::process::exit(1);
    }
}
