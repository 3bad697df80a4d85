//! `experiments`: quick-tier E3 and E8 through the `cadapt-bench` harness
//! (`run_record`, single-threaded), each record persisted with the harness
//! store writer and compared with its committed golden. They are two of
//! the experiments the ROADMAP's "halve full-tier wall time" item rewrites.

use std::path::{Path, PathBuf};

use cadapt_analysis::montecarlo::trial_rng;
use cadapt_bench::harness::check::compare;
use cadapt_bench::harness::record::RunRecord;
use cadapt_bench::harness::store::{ArtifactWriter, FsWriter};
use cadapt_bench::harness::{find, run_record_ctx, Experiment};
use cadapt_bench::{ExpCtx, Scale};
use rand::Rng;

use crate::span::span;
use crate::{Rounds, Tally};

/// Experiment ids and the span each `run_record` call is recorded under.
///
/// E9 and E12, the other two experiments that work rewrites, are left
/// out: one quick run takes 2-6 s and varies by a third from run to run on
/// a shared 2-vCPU host, so only two or three fit a run and their best
/// does not settle. E3 and E8 take under a second each, so a run holds a
/// few dozen rounds.
const EXPERIMENTS: [(&str, &str); 2] =
    [("e3", "bench.run_record.e3"), ("e8", "bench.run_record.e8")];

const GOLDEN_DIR: &str = "tests/golden";

struct Entry {
    exp: &'static dyn Experiment,
    span: &'static str,
    golden: RunRecord,
    out: PathBuf,
}

/// The `experiments` workload.
pub struct Experiments {
    entries: Vec<Entry>,
}

impl std::fmt::Debug for Experiments {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Experiments")
            .field("entries", &self.entries.len())
            .finish()
    }
}

impl Experiments {
    /// Load the goldens and fix the (seeded) experiment order.
    pub fn setup(seed: u64, work_dir: &Path) -> Result<Experiments, String> {
        let mut entries = Vec::new();
        for (id, span) in EXPERIMENTS {
            let exp = find(id).ok_or(format!("experiment {id} is not registered"))?;
            let path = Path::new(GOLDEN_DIR).join(format!("{id}.json"));
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            let golden =
                RunRecord::from_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
            entries.push(Entry {
                exp,
                span,
                golden,
                out: work_dir.join(format!("{id}.json")),
            });
        }
        let mut rng = trial_rng(seed, 0);
        for i in (1..entries.len()).rev() {
            entries.swap(i, rng.gen_range(0..=i));
        }
        Ok(Experiments { entries })
    }
}

fn run_one(entry: &Entry, job: u64) -> Result<(), String> {
    let record = span(entry.span, job, || {
        run_record_ctx(entry.exp, ExpCtx::with_threads(Scale::Quick, 1))
    })
    .map_err(|e| e.to_string())?;
    span("bench.persist", job, || {
        FsWriter.persist(&entry.out, &record.to_json())
    })
    .map_err(|e| e.to_string())?;
    let report = span("bench.check", job, || compare(&entry.golden, &record));
    if report.passed() {
        Ok(())
    } else {
        Err(format!(
            "{} differs from its golden: {}",
            record.experiment,
            report.failures.join("; ")
        ))
    }
}

impl Rounds for Experiments {
    fn round(&mut self, tally: &mut Tally) {
        for (id, entry) in self.entries.iter().enumerate() {
            tally.job(id as u64, || run_one(entry, id as u64));
        }
    }
}
