//! `smoothing`: the paper's core computation on the four (a, b, c)
//! algorithms — worst-case profiles, §4 perturbations, i.i.d. smoothing,
//! contended streams and small scheduler runs. Compute-bound, small
//! footprint; touches no trace, paging or serve code.

use cadapt_analysis::montecarlo::trial_rng;
use cadapt_analysis::{monte_carlo_ratio, McConfig};
use cadapt_core::{AdaptivityReport, Blocks, BoxSource, RunCursor, SquareProfile};
use cadapt_profiles::dist::{DistSource, PowerOfB};
use cadapt_profiles::perturb::{
    random_cyclic_shift, BoxOrderPerturbedSource, RandomPlacement, SizePerturbedSource,
    UniformMultiplier,
};
use cadapt_profiles::{contended_round_robin, WorstCase};
use cadapt_recursion::{run_cursor_on_profile, run_on_profile, AbcParams, ExecModel, RunConfig};
use cadapt_sched::{EqualShares, JobSpec, Scheduler, SchedulerConfig, WinnerTakeAll};
use rand::Rng;

use crate::span::{count, span, Timed};
use crate::{Rounds, Tally};

#[derive(Debug, Clone, Copy)]
enum Algo {
    MmScan,
    MmInplace,
    Strassen,
    Gep,
}

impl Algo {
    const ALL: [Algo; 4] = [Algo::MmScan, Algo::MmInplace, Algo::Strassen, Algo::Gep];

    fn params(self) -> AbcParams {
        match self {
            Algo::MmScan => AbcParams::mm_scan(),
            Algo::MmInplace => AbcParams::mm_inplace(),
            Algo::Strassen => AbcParams::strassen(),
            Algo::Gep => AbcParams::gep(),
        }
    }

    /// The profile the algorithm is attacked with: its own worst case, or
    /// MM-Scan's for MM-Inplace, which has no scans of its own (§3).
    fn donor(self) -> AbcParams {
        match self {
            Algo::MmInplace => AbcParams::mm_scan(),
            other => other.params(),
        }
    }
}

#[derive(Debug)]
enum Kind {
    /// `WorstCase` + `run_on_profile` (Theorem 2).
    WorstCase,
    /// Box sizes scaled by a uniform multiplier (§4).
    SizePerturb,
    /// Boxes of the worst case placed in random order (§4).
    OrderPerturb,
    /// A random cyclic shift of the materialised worst case (§4).
    Shift(SquareProfile),
    /// i.i.d. power-of-4 boxes, Monte-Carlo (Theorem 1).
    MonteCarlo,
    /// Three throttled tenants time-sliced round-robin.
    Contended,
    /// Four copies of the job under a cache-sharing policy.
    Schedule { wta: bool },
}

#[derive(Debug)]
struct Job {
    id: u64,
    algo: Algo,
    n: Blocks,
    seed: u64,
    kind: Kind,
}

/// The `smoothing` workload: its fixed, seeded job list.
#[derive(Debug)]
pub struct Smoothing {
    jobs: Vec<Job>,
}

// Base sizes put a job at roughly 5-35 ms on a 2-vCPU Xeon, the
// quarter-size replicas at 1-15 ms: no timed unit is below about 1 ms.
/// Worst-case, size- and order-perturbation problem size (4^6 blocks).
const N_WORST: Blocks = 1 << 12;
/// Independent draws summed in one order-perturbation job.
const ORDER_DRAWS: u64 = 8;
/// Shift problem size (4^5 blocks) and draws per job: a single shift's
/// cost is heavy-tailed, so shifts are many and small.
const N_SHIFT: Blocks = 1 << 10;
const SHIFT_DRAWS: u64 = 16;
/// Monte-Carlo size (4^8 blocks).
const N_SMOOTH: Blocks = 1 << 16;
/// Scheduler size (4^7 blocks, four copies sharing n / 32 blocks).
const N_SCHED: Blocks = 1 << 14;
/// Contended-stream size (4^9 blocks).
const N_CONTENDED: Blocks = 1 << 18;
const MC_TRIALS: u64 = 8;

fn capacity() -> RunConfig {
    RunConfig {
        model: ExecModel::capacity(),
        ..RunConfig::default()
    }
}

fn check_report(report: &AdaptivityReport) -> Result<(), String> {
    let ratio = report.ratio();
    if ratio.is_finite() && ratio > 0.0 && report.boxes_used > 0 {
        Ok(())
    } else {
        Err(format!(
            "implausible report: ratio {ratio}, {} boxes",
            report.boxes_used
        ))
    }
}

fn run_source<S: BoxSource>(
    job: &Job,
    source: S,
    config: &RunConfig,
) -> Result<AdaptivityReport, String> {
    let report = span("recursion.run", job.id, || {
        run_on_profile(job.algo.params(), job.n, &mut Timed::new(source), config)
    })
    .map_err(|e| e.to_string())?;
    count("recursion.boxes", report.boxes_used);
    Ok(report)
}

impl Smoothing {
    /// Build the job list for `seed` (and the materialised profiles the
    /// shift jobs rotate).
    pub fn setup(seed: u64) -> Result<Smoothing, String> {
        let mut rng = trial_rng(seed, 0);
        let mut jobs = Vec::new();
        // Each (algorithm, kind) pair appears four times with its own seed,
        // so the list is long enough for a p90 with ten jobs beyond it: one
        // replica at the base sizes and three a quarter that size, which
        // keeps a round short enough for a run to hold a few dozen rounds.
        for algo in Algo::ALL {
            for shrink in [1, 4, 4, 4] {
                let shift_n = N_SHIFT / shrink;
                let wc =
                    WorstCase::for_problem(&algo.donor(), shift_n).map_err(|e| e.to_string())?;
                let kinds = [
                    (N_WORST, Kind::WorstCase),
                    (N_WORST, Kind::SizePerturb),
                    (N_WORST, Kind::OrderPerturb),
                    (N_SHIFT, Kind::Shift(wc.materialize())),
                    (N_SMOOTH, Kind::MonteCarlo),
                    (N_CONTENDED, Kind::Contended),
                    (N_SCHED, Kind::Schedule { wta: false }),
                    (N_SCHED, Kind::Schedule { wta: true }),
                ];
                for (n, kind) in kinds {
                    jobs.push(Job {
                        id: 0,
                        algo,
                        n: n / shrink,
                        seed: rng.gen::<u64>(),
                        kind,
                    });
                }
            }
        }
        // One fixed, interleaved order for every round of the run.
        for i in (1..jobs.len()).rev() {
            jobs.swap(i, rng.gen_range(0..=i));
        }
        for (id, job) in jobs.iter_mut().enumerate() {
            job.id = id as u64;
        }
        Ok(Smoothing { jobs })
    }
}

fn run_job(job: &Job) -> Result<(), String> {
    let params = job.algo.params();
    let wc = || {
        span("profiles.gen", job.id, || {
            WorstCase::for_problem(&job.algo.donor(), job.n)
        })
        .map_err(|e| e.to_string())
    };
    match &job.kind {
        Kind::WorstCase => {
            let report = run_source(job, wc()?.source(), &capacity())?;
            if params.in_gap_regime() {
                // Theorem 2: the exact construction costs log_b n + 1.
                let expected = (job.n as f64).ln() / (params.b() as f64).ln() + 1.0;
                if (report.ratio() - expected).abs() > 1e-9 {
                    return Err(format!(
                        "worst-case ratio {} != log_b n + 1 = {expected}",
                        report.ratio()
                    ));
                }
            }
            check_report(&report)
        }
        Kind::SizePerturb => {
            let source = SizePerturbedSource::new(
                wc()?.source(),
                UniformMultiplier { t: 4.0 },
                trial_rng(job.seed, 1),
            );
            check_report(&run_source(job, source, &RunConfig::default())?)
        }
        // The random perturbations vary a lot from draw to draw (one
        // order or shift can cost ten times another), so each job sums
        // several independent draws: the round's work then barely depends
        // on the seed.
        Kind::OrderPerturb => (0..ORDER_DRAWS).try_for_each(|t| {
            let source =
                BoxOrderPerturbedSource::new(wc()?, RandomPlacement(trial_rng(job.seed, 1 + t)));
            check_report(&run_source(job, source, &RunConfig::default())?)
        }),
        Kind::Shift(profile) => (0..SHIFT_DRAWS).try_for_each(|t| {
            let shifted = span("profiles.gen", job.id, || {
                random_cyclic_shift(profile, &mut trial_rng(job.seed, 1 + t))
            });
            count("profiles.boxes", shifted.len() as u64);
            check_report(&run_source(job, shifted.cycle(), &capacity())?)
        }),
        Kind::MonteCarlo => {
            let config = McConfig {
                trials: MC_TRIALS,
                threads: 1,
                seed: job.seed,
                run: RunConfig::default(),
            };
            let summary = span("analysis.mc", job.id, || {
                monte_carlo_ratio(params, job.n, &config, |rng| {
                    DistSource::new(PowerOfB::new(4, 0, 5), rng)
                })
            })
            .map_err(|e| e.to_string())?;
            count("analysis.trials", summary.ratio.count);
            count("recursion.boxes", summary.counters.boxes_advanced);
            let mean = summary.ratio.mean;
            if summary.ratio.count == MC_TRIALS && mean.is_finite() && mean > 0.0 {
                Ok(())
            } else {
                Err(format!("Monte-Carlo summary implausible: mean {mean}"))
            }
        }
        Kind::Contended => {
            // Tenant boxes up to n / 256, so the stream's length, not the
            // problem size, sets the job's cost.
            let box_exp = job.n.ilog(4) - 4;
            let mut pipeline = span("profiles.gen", job.id, || {
                let tenants: Vec<Box<dyn RunCursor>> = (0..3)
                    .map(|t| {
                        let rng = trial_rng(job.seed, 1 + t);
                        Box::new(DistSource::new(PowerOfB::new(4, 0, box_exp), rng).into_cursor())
                            as Box<dyn RunCursor>
                    })
                    .collect();
                contended_round_robin(tenants, 8, job.n)
            });
            let report = span("recursion.run", job.id, || {
                run_cursor_on_profile(
                    params,
                    job.n,
                    &mut Timed::new(&mut pipeline),
                    &RunConfig::default(),
                )
            })
            .map_err(|e| e.to_string())?;
            count("recursion.boxes", report.boxes_used);
            check_report(&report)
        }
        Kind::Schedule { wta } => {
            let specs = vec![JobSpec::new(params, job.n); 4];
            let config = SchedulerConfig {
                total_cache: job.n / 32,
                ..SchedulerConfig::default()
            };
            let result = span("sched.schedule", job.id, || {
                if *wta {
                    Scheduler::new(&specs, WinnerTakeAll { reign: 8 }, config)?.run()
                } else {
                    Scheduler::new(&specs, EqualShares, config)?.run()
                }
            })
            .map_err(|e| e.to_string())?;
            count("sched.jobs", result.jobs.len() as u64);
            if result.jobs.len() == specs.len() && result.jobs.iter().all(|j| j.done) {
                Ok(())
            } else {
                Err(format!(
                    "{} of {} scheduled jobs completed",
                    result.jobs.iter().filter(|j| j.done).count(),
                    specs.len()
                ))
            }
        }
    }
}

impl Rounds for Smoothing {
    fn round(&mut self, tally: &mut Tally) {
        for job in &self.jobs {
            tally.job(job.id, || run_job(job));
        }
    }
}
