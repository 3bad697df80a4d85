//! `trace-replay`: real kernels emitted structurally to bytecode, each
//! summarised once, then replayed both by LRU simulation and in closed
//! form under fixed, square and m(t) profiles, at cache sizes from
//! thrashing to fully fitting. Memory-heavy; barely touches profiles or
//! recursion and never serve.

use cadapt_analysis::montecarlo::trial_rng;
use cadapt_core::memory_profile::Segment;
use cadapt_core::{Blocks, MemoryProfile, Potential, SquareProfile};
use cadapt_paging::{
    analytic_fixed, analytic_memory_profile, analytic_square_profile, replay_fixed,
    replay_memory_profile, replay_square_profile,
};
use cadapt_trace::edit::{edit_distance_compiled, naive_edit_distance};
use cadapt_trace::gep::{floyd_warshall_compiled, naive_floyd_warshall};
use cadapt_trace::matrix::naive_multiply;
use cadapt_trace::mm::{mm_inplace_compiled, mm_scan_compiled};
use cadapt_trace::strassen::strassen_compiled;
use cadapt_trace::veb::{naive_rank_checksum, veb_search_compiled};
use cadapt_trace::{TraceProgram, TraceSummary, ZMatrix};
use rand::Rng;

use crate::span::{count, span, Timed};
use crate::{Rounds, Tally};

const BLOCK_WORDS: u64 = 4;
const MATRIX_SIDE: usize = 32;
const FW_SIDE: usize = 32;
const EDIT_LEN: usize = 64;
const VEB_SIDE: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Kernel {
    MmScan,
    MmInplace,
    Strassen,
    FloydWarshall,
    EditDistance,
    VebSearch,
}

impl Kernel {
    const ALL: [Kernel; 6] = [
        Kernel::MmScan,
        Kernel::MmInplace,
        Kernel::Strassen,
        Kernel::FloydWarshall,
        Kernel::EditDistance,
        Kernel::VebSearch,
    ];

    fn potential(self) -> Potential {
        match self {
            Kernel::MmScan | Kernel::MmInplace | Kernel::FloydWarshall => Potential::new(8, 4),
            Kernel::Strassen => Potential::new(7, 4),
            Kernel::EditDistance => Potential::new(4, 2),
            Kernel::VebSearch => Potential::new(2, 2),
        }
    }
}

/// The seeded inputs and the reference outputs they are checked against.
#[derive(Debug)]
struct Inputs {
    a: ZMatrix,
    b: ZMatrix,
    product: Vec<f64>,
    adj: ZMatrix,
    paths: Vec<f64>,
    x: Vec<u8>,
    y: Vec<u8>,
    distance: u64,
    veb_checksum: u64,
}

#[derive(Debug, Clone, Copy)]
enum Query {
    /// Fixed LRU cache of this share of the working set (1/`div`).
    Fixed { div: u64 },
    /// Constant square boxes of working set / `div`.
    Square { div: u64 },
    /// A winner-take-all staircase m(t) up to the working set, repeated.
    Memory { cycles: u32 },
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Build(Kernel),
    Query(Kernel, Query),
}

/// The `trace-replay` workload.
#[derive(Debug)]
pub struct TraceReplay {
    inputs: Inputs,
    steps: Vec<Step>,
    built: Vec<(Kernel, TraceProgram, TraceSummary)>,
}

fn int_matrix(rng: &mut impl Rng, side: usize, lo: i32, hi: i32) -> Vec<f64> {
    (0..side * side)
        .map(|_| f64::from(rng.gen_range(lo..=hi)))
        .collect()
}

impl TraceReplay {
    /// Draw the kernels' inputs from `seed`, compute their reference
    /// outputs, and fix the job order.
    pub fn setup(seed: u64) -> Result<TraceReplay, String> {
        let mut rng = trial_rng(seed, 0);
        // Small integers keep every product and path sum exact in f64, so
        // the checks below compare with ==.
        let a_rows = int_matrix(&mut rng, MATRIX_SIDE, -5, 5);
        let b_rows = int_matrix(&mut rng, MATRIX_SIDE, -5, 5);
        let mut adj_rows = int_matrix(&mut rng, FW_SIDE, 1, 9);
        for i in 0..FW_SIDE {
            adj_rows[i * FW_SIDE + i] = 0.0;
        }
        let alphabet = b"acgt";
        let mut string = || -> Vec<u8> {
            (0..EDIT_LEN)
                .map(|_| alphabet[rng.gen_range(0..4)])
                .collect()
        };
        let (x, y) = (string(), string());
        let inputs = Inputs {
            product: naive_multiply(MATRIX_SIDE, &a_rows, &b_rows),
            a: ZMatrix::from_row_major(MATRIX_SIDE, &a_rows),
            b: ZMatrix::from_row_major(MATRIX_SIDE, &b_rows),
            paths: naive_floyd_warshall(FW_SIDE, &adj_rows),
            adj: ZMatrix::from_row_major(FW_SIDE, &adj_rows),
            distance: naive_edit_distance(&x, &y),
            x,
            y,
            veb_checksum: naive_rank_checksum(VEB_SIDE),
        };
        let mut builds: Vec<Step> = Kernel::ALL.iter().map(|&k| Step::Build(k)).collect();
        let mut queries = Vec::new();
        // Sixteen queries per kernel, so a round has over a hundred jobs.
        for k in Kernel::ALL {
            for div in [256, 64, 32, 16, 8, 4, 2, 1] {
                queries.push(Step::Query(k, Query::Fixed { div }));
            }
            for div in [64, 16, 8, 4, 2] {
                queries.push(Step::Query(k, Query::Square { div }));
            }
            for cycles in [4, 8, 16] {
                queries.push(Step::Query(k, Query::Memory { cycles }));
            }
        }
        for list in [&mut builds, &mut queries] {
            for i in (1..list.len()).rev() {
                list.swap(i, rng.gen_range(0..=i));
            }
        }
        builds.extend(queries);
        Ok(TraceReplay {
            inputs,
            steps: builds,
            built: Vec::new(),
        })
    }
}

fn build(kernel: Kernel, inputs: &Inputs, job: u64) -> Result<TraceProgram, String> {
    let program = span("trace.build", job, || -> Result<TraceProgram, String> {
        let matrix = |(c, p): (ZMatrix, TraceProgram)| {
            if c.to_row_major() == inputs.product {
                Ok(p)
            } else {
                Err(format!("{kernel:?} product differs from naive_multiply"))
            }
        };
        match kernel {
            Kernel::MmScan => matrix(mm_scan_compiled(&inputs.a, &inputs.b, BLOCK_WORDS)),
            Kernel::MmInplace => matrix(mm_inplace_compiled(&inputs.a, &inputs.b, BLOCK_WORDS)),
            Kernel::Strassen => matrix(strassen_compiled(&inputs.a, &inputs.b, BLOCK_WORDS)),
            Kernel::FloydWarshall => {
                let (d, p) = floyd_warshall_compiled(&inputs.adj, BLOCK_WORDS);
                if d.to_row_major() == inputs.paths {
                    Ok(p)
                } else {
                    Err("Floyd-Warshall differs from the naive reference".to_string())
                }
            }
            Kernel::EditDistance => {
                let (d, p) = edit_distance_compiled(&inputs.x, &inputs.y, BLOCK_WORDS);
                if d == inputs.distance {
                    Ok(p)
                } else {
                    Err(format!("edit distance {d} != naive {}", inputs.distance))
                }
            }
            Kernel::VebSearch => {
                let (sum, p) = veb_search_compiled(VEB_SIDE, BLOCK_WORDS);
                if sum == inputs.veb_checksum {
                    Ok(p)
                } else {
                    Err(format!(
                        "vEB checksum {sum} != naive {}",
                        inputs.veb_checksum
                    ))
                }
            }
        }
    })?;
    count(
        "trace.events",
        u64::try_from(program.event_count()).unwrap_or(u64::MAX),
    );
    count("trace.program_bytes", program.byte_len() as u64);
    Ok(program)
}

/// A coarse winner-take-all sawtooth: eight steps from ws/8 up to the
/// working set, a plateau, then a crash, `cycles` times. Coarse on
/// purpose: `MemoryProfile::value_at` walks the segments linearly, so a
/// per-I/O ramp would make one query cost seconds.
fn staircase(ws: Blocks, cycles: u32) -> Result<MemoryProfile, cadapt_core::CoreError> {
    let len = u128::from(ws.max(8) / 2);
    let mut segments = Vec::new();
    for _ in 0..cycles {
        for k in 1..=8 {
            segments.push(Segment {
                size: (ws * k / 8).max(1),
                len,
            });
        }
        segments.push(Segment {
            size: ws.max(1),
            len: 2 * len,
        });
    }
    MemoryProfile::from_segments(segments)
}

fn query(
    kernel: Kernel,
    q: Query,
    program: &TraceProgram,
    summary: &TraceSummary,
    job: u64,
) -> Result<(), String> {
    let ws: Blocks = program.distinct_blocks();
    let agree = |same: bool, what: String| {
        count("paging.analytic_queries", 1);
        count("paging.sim_accesses", program.accesses());
        if same {
            Ok(())
        } else {
            Err(format!(
                "{kernel:?} {what}: analytic differs from simulated"
            ))
        }
    };
    match q {
        Query::Fixed { div } => {
            let m = (ws / div).max(2);
            let sim = span("paging.sim", job, || replay_fixed(program, m));
            let ana = span("paging.analytic", job, || analytic_fixed(summary, m));
            count("paging.faults", u64::try_from(sim.io).unwrap_or(u64::MAX));
            agree(sim == ana, format!("fixed M={m}"))
        }
        Query::Square { div } => {
            let profile = SquareProfile::new(vec![(ws / div).max(2)]).map_err(|e| e.to_string())?;
            let rho = kernel.potential();
            let sim = span("paging.sim", job, || {
                replay_square_profile(program, &mut Timed::new(profile.cycle()), rho)
            });
            let ana = span("paging.analytic", job, || {
                analytic_square_profile(summary, &mut Timed::new(profile.cycle()), rho)
            });
            count(
                "paging.faults",
                u64::try_from(sim.total_io).unwrap_or(u64::MAX),
            );
            agree(sim == ana, format!("square box {}", ws / div))
        }
        Query::Memory { cycles } => {
            let profile =
                span("profiles.gen", job, || staircase(ws, cycles)).map_err(|e| e.to_string())?;
            let sim = span("paging.sim", job, || {
                replay_memory_profile(program, &profile)
            });
            let ana = span("paging.analytic", job, || {
                analytic_memory_profile(summary, &profile)
            });
            count("paging.faults", u64::try_from(sim.io).unwrap_or(u64::MAX));
            agree(sim == ana, format!("staircase m(t) x{cycles}"))
        }
    }
}

impl Rounds for TraceReplay {
    fn round(&mut self, tally: &mut Tally) {
        self.built.clear();
        for (id, step) in self.steps.iter().enumerate() {
            let id = id as u64;
            match *step {
                Step::Build(kernel) => tally.job(id, || {
                    let program = build(kernel, &self.inputs, id)?;
                    let summary = span("trace.summary", id, || TraceSummary::new(&program));
                    self.built.push((kernel, program, summary));
                    Ok(())
                }),
                Step::Query(kernel, q) => tally.job(id, || {
                    let (_, program, summary) = self
                        .built
                        .iter()
                        .find(|(k, _, _)| *k == kernel)
                        .ok_or(format!("{kernel:?} was not built this round"))?;
                    query(kernel, q, program, summary, id)
                }),
            }
        }
    }
}
