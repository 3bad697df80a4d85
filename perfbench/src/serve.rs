//! `serve`: an in-process `cadapt-serve` daemon with two workers, driven
//! closed-loop by two clients on persistent connections for a fixed time
//! window. Each job is submit → `status` polls on a fixed back-off →
//! `results`. The mix covers all four algorithms under equal shares and
//! winner-take-all, budget-cut jobs (`max_boxes`, a typed outcome, not a
//! failure) and keyed re-submits on the dedup path. Runs no trace or
//! paging code.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use cadapt_analysis::montecarlo::trial_rng;
use cadapt_core::CancelToken;
use cadapt_serve::protocol::{bare_request_line, id_request_line, submit_line};
use cadapt_serve::{
    run_job, Algo, Daemon, DaemonConfig, JobResult, JobSpec, Journal, JournalEvent, Policy,
    ServeError,
};
use rand::Rng;
use serde_json::Value;

use crate::span::{self, span};
use crate::{median, Measured, Tally};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Fixed sleep between `status` polls.
const POLL_BACKOFF: Duration = Duration::from_millis(2);
/// Traced runs switch recording on and off in slices this long, so traced
/// and untraced jobs share the same stretch of host time.
const TRACE_SLICE: Duration = Duration::from_millis(500);

/// The `serve` workload: a bound daemon and the seeded job order.
pub struct Serve {
    addr: SocketAddr,
    daemon: Option<JoinHandle<Result<(), ServeError>>>,
    journal_dir: PathBuf,
    probe_dir: PathBuf,
    specs: Vec<JobSpec>,
    order: Vec<usize>,
}

impl std::fmt::Debug for Serve {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Serve")
            .field("addr", &self.addr)
            .field("specs", &self.specs.len())
            .finish()
    }
}

/// The job mix: every algorithm under both policies, a budget-cut job per
/// algorithm, and keyed specs that are re-submitted (dedup path).
fn job_mix(seed: u64) -> Vec<JobSpec> {
    let mut rng = trial_rng(seed, 1);
    let mut specs = Vec::new();
    for (i, algo) in [Algo::MmScan, Algo::MmInplace, Algo::Strassen, Algo::Gep]
        .into_iter()
        .enumerate()
    {
        // run_job stays within about 1-30 ms: a job near the ~44 ms round
        // trip would need one status poll on a fast stretch of the host and
        // two on a slow one, moving the p90 by a whole round trip.
        for (policy, n) in [
            (Policy::Equal, 1 << 14),
            (Policy::Equal, 1 << 16),
            (Policy::Wta { reign: 4 }, 1 << 14),
            (Policy::Wta { reign: 2 }, 1 << 14),
        ] {
            specs.push(JobSpec {
                policy,
                tenants: 4,
                slot: rng.gen_range(0..4),
                total_cache: 256,
                seed: rng.gen(),
                ..JobSpec::basic(algo, n)
            });
        }
        specs.push(JobSpec {
            tenants: 4,
            total_cache: 256,
            max_boxes: Some(rng.gen_range(50_000..100_000)),
            ..JobSpec::basic(algo, 1 << 16)
        });
        specs.push(JobSpec {
            tenants: 2,
            slot: 1,
            total_cache: 128,
            key: Some(format!("keyed-{seed}-{i}")),
            ..JobSpec::basic(algo, 1 << 14)
        });
    }
    specs
}

impl Serve {
    /// Open the journal, bind the daemon and start it; fix the job order.
    pub fn setup(seed: u64, work_dir: &Path, k: usize) -> Result<Serve, String> {
        let journal_dir = work_dir.join(format!("journal-{k}"));
        let config = DaemonConfig {
            workers: WORKERS,
            ..DaemonConfig::new(journal_dir.clone())
        };
        let daemon = Daemon::bind(config).map_err(|e| e.to_string())?;
        let addr = daemon.local_addr();
        let handle = thread::spawn(move || daemon.run());
        let specs = job_mix(seed);
        // Every spec appears twice per cycle, in one fixed seeded order.
        let mut order: Vec<usize> = (0..specs.len()).chain(0..specs.len()).collect();
        let mut rng = trial_rng(seed, 2);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        Ok(Serve {
            addr,
            daemon: Some(handle),
            probe_dir: work_dir.join(format!("probe-{k}")),
            journal_dir,
            specs,
            order,
        })
    }

    fn shutdown(&mut self) -> Result<(), String> {
        let Some(handle) = self.daemon.take() else {
            return Ok(());
        };
        let mut conn = Conn::open(self.addr)?;
        conn.call(&bare_request_line("drain"))?;
        drop(conn);
        handle
            .join()
            .map_err(|_| "daemon thread panicked".to_string())?
            .map_err(|e| e.to_string())
    }

    /// Drive the daemon for `seconds`, then check every result.
    /// `setup_s` is reported as given.
    pub fn measure(mut self, seconds: f64, traced: bool, setup_s: f64) -> Measured {
        let mut tally = Tally::default();
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(seconds);
        let logs: Vec<Result<ClientLog, String>> = thread::scope(|scope| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|c| {
                    let jobs: Vec<usize> = self
                        .order
                        .iter()
                        .copied()
                        .skip(c)
                        .step_by(CLIENTS)
                        .collect();
                    let specs = &self.specs;
                    let addr = self.addr;
                    scope.spawn(move || client(addr, specs, &jobs, deadline))
                })
                .collect();
            if traced {
                let mut on = true;
                while Instant::now() < deadline {
                    span::set_enabled(on);
                    on = !on;
                    thread::sleep(
                        TRACE_SLICE.min(deadline.saturating_duration_since(Instant::now())),
                    );
                }
            }
            clients
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("client panicked".to_string()))
                })
                .collect()
        });
        span::set_enabled(false);
        let wall_s = start.elapsed().as_secs_f64();
        if let Err(e) = self.shutdown() {
            tally.fail(format!("drain: {e}"));
        }

        let mut done = Vec::new();
        let mut polls = 0u64;
        let mut rejected = 0u64;
        let (mut lat_traced, mut lat_plain) = (Vec::new(), Vec::new());
        for log in logs {
            match log {
                Err(e) => tally.fail(format!("client: {e}")),
                Ok(log) => {
                    polls += log.polls;
                    for job in log.jobs {
                        tally.attempted += 1;
                        tally.latencies_ms.push(job.latency_ms);
                        match job.outcome {
                            Ok(result) => {
                                if job.traced {
                                    &mut lat_traced
                                } else {
                                    &mut lat_plain
                                }
                                .push(job.latency_ms);
                                done.push((job.spec, job.id, result));
                            }
                            Err(e) => {
                                rejected += 1;
                                tally.fail(format!("spec {}: {e}", job.spec));
                            }
                        }
                    }
                }
            }
        }

        // Every results record must equal an in-process run_job of its spec.
        span::set_enabled(traced);
        let mut expected: BTreeMap<usize, JobResult> = BTreeMap::new();
        let mut exec_ms: BTreeMap<usize, f64> = BTreeMap::new();
        for (spec, _, _) in &done {
            if !expected.contains_key(spec) {
                let t = Instant::now();
                let result = span("serve.exec", *spec as u64, || {
                    run_job(&self.specs[*spec], &CancelToken::new(), 0, &mut |_| {})
                });
                exec_ms.insert(*spec, t.elapsed().as_secs_f64() * 1e3);
                expected.insert(*spec, result);
            }
        }
        for (spec, id, result) in &done {
            if result != &expected[spec] {
                tally.fail(format!(
                    "job {id} (spec {spec}): results differ from run_job"
                ));
            }
        }

        let mut layers = BTreeMap::new();
        if traced {
            let jobs = done.len().max(1) as f64;
            let append_ms = self.journal_probe(&done);
            let totals = span::collect();
            let per_call = |name: &str| {
                let calls = totals.calls.get(name).copied().unwrap_or(0).max(1) as f64;
                totals.ms(name) / calls
            };
            layers.insert(
                "serve.submit_rtt_ms".to_string(),
                per_call("serve.submit_rtt"),
            );
            layers.insert(
                "serve.status_rtt_ms".to_string(),
                per_call("serve.status_rtt"),
            );
            layers.insert(
                "serve.results_rtt_ms".to_string(),
                per_call("serve.results_rtt"),
            );
            layers.insert("serve.polls_per_job".to_string(), polls as f64 / jobs);
            layers.insert(
                "serve.exec_ms".to_string(),
                done.iter().map(|(s, _, _)| exec_ms[s]).sum::<f64>() / jobs,
            );
            match append_ms {
                Ok(ms) => {
                    layers.insert("serve.journal_append_ms".to_string(), ms);
                }
                Err(e) => tally.fail(format!("journal probe: {e}")),
            }
            match Journal::open(&self.journal_dir, 1 << 20) {
                Ok((journal, replay)) => {
                    let admitted = replay
                        .events
                        .iter()
                        .filter(|e| matches!(e, JournalEvent::Submitted { .. }))
                        .count()
                        .max(1);
                    layers.insert(
                        "serve.journal_events_per_job".to_string(),
                        replay.events.len() as f64 / admitted as f64,
                    );
                    let _ = journal.close();
                }
                Err(e) => tally.fail(format!("reading the daemon journal: {e}")),
            }
            layers.insert("serve.rejected".to_string(), rejected as f64);
            layers.insert(
                "tracing_overhead_frac".to_string(),
                median(&lat_traced) / median(&lat_plain) - 1.0,
            );
        }
        span::set_enabled(false);
        Measured {
            setup_s,
            jobs_per_s: done.len() as f64 / wall_s,
            job_ms: tally.latencies_ms.clone(),
            tally,
            wall_s,
            layers,
        }
    }

    /// Time `Journal::append` on the events the daemon journals for the
    /// completed jobs (Submitted, Started, Finished), in a journal of its
    /// own. Returns the mean ms per append.
    fn journal_probe(&self, done: &[(usize, u64, JobResult)]) -> Result<f64, String> {
        let (mut journal, _) = Journal::open(&self.probe_dir, 256).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let mut appends = 0u32;
        for (spec, id, result) in done {
            for event in [
                JournalEvent::Submitted {
                    id: *id,
                    spec: self.specs[*spec].clone(),
                },
                JournalEvent::Started {
                    id: *id,
                    attempt: 0,
                },
                JournalEvent::Finished {
                    id: *id,
                    result: result.clone(),
                },
            ] {
                span("serve.journal_append", *id, || journal.append(&event))
                    .map_err(|e| e.to_string())?;
                appends += 1;
            }
        }
        let ms = t.elapsed().as_secs_f64() * 1e3 / f64::from(appends.max(1));
        journal.close().map_err(|e| e.to_string())?;
        Ok(ms)
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value.as_object()?.get(key)
}

/// A persistent client connection speaking the NDJSON protocol.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
        })
    }

    /// Send one request line and parse the one response line.
    fn call(&mut self, line: &str) -> Result<Value, String> {
        let mut request = String::with_capacity(line.len() + 1);
        request.push_str(line);
        request.push('\n');
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| e.to_string())?;
        let mut response = String::new();
        if self
            .reader
            .read_line(&mut response)
            .map_err(|e| e.to_string())?
            == 0
        {
            return Err("connection closed".to_string());
        }
        let value =
            Value::parse_json(response.trim_end()).map_err(|e| format!("bad response: {e}"))?;
        if field(&value, "ok") == Some(&Value::Bool(true)) {
            Ok(value)
        } else {
            Err(format!("refused: {}", response.trim_end()))
        }
    }
}

struct JobLog {
    spec: usize,
    id: u64,
    traced: bool,
    latency_ms: f64,
    outcome: Result<JobResult, String>,
}

struct ClientLog {
    jobs: Vec<JobLog>,
    polls: u64,
}

/// One closed-loop client: its next job starts when the previous returns.
fn client(
    addr: SocketAddr,
    specs: &[JobSpec],
    jobs: &[usize],
    deadline: Instant,
) -> Result<ClientLog, String> {
    let mut conn = Conn::open(addr)?;
    let mut log = ClientLog {
        jobs: Vec::new(),
        polls: 0,
    };
    for &spec in jobs.iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        let traced = span::enabled();
        let t = Instant::now();
        let mut id = 0;
        let outcome = (|| -> Result<JobResult, String> {
            let submitted = span("serve.submit_rtt", 0, || {
                conn.call(&submit_line(&specs[spec]))
            })?;
            id = field(&submitted, "id")
                .and_then(Value::as_u64)
                .ok_or("submit: no id")?;
            loop {
                let status = span("serve.status_rtt", id, || {
                    conn.call(&id_request_line("status", id))
                })?;
                log.polls += 1;
                if field(&status, "state").and_then(Value::as_str) == Some("done") {
                    break;
                }
                thread::sleep(POLL_BACKOFF);
            }
            let results = span("serve.results_rtt", id, || {
                conn.call(&id_request_line("results", id))
            })?;
            let result = field(&results, "result").ok_or("results: no result")?;
            serde_json::from_value::<JobResult>(result).map_err(|e| format!("results: {e}"))
        })();
        log.jobs.push(JobLog {
            spec,
            id,
            traced,
            latency_ms: t.elapsed().as_secs_f64() * 1e3,
            outcome,
        });
    }
    span::flush_thread();
    Ok(log)
}
