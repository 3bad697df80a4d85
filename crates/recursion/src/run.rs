//! Drivers: run an (a, b, c)-regular execution against a box source or a
//! streaming [`RunCursor`] pipeline.
//!
//! There is exactly **one** run-draining loop in the workspace —
//! [`run_cursor_with_ledger`] — and everything drives through it: the
//! legacy [`BoxSource`] entry points wrap the source in a
//! [`cadapt_core::SourceCursor`], and the Monte-Carlo
//! drivers in `cadapt-analysis` call the cursor entry points directly.
//! The loop advances whole runs in closed form, expands runs per box when
//! history retention needs `BoxRecord`s (which also makes
//! `retain_history: true` the per-box reference the batched path is tested
//! against), and observes cooperative cancellation between runs as the
//! typed [`RunError::Cancelled`].

use crate::model::ExecModel;
use crate::params::AbcParams;
use cadapt_core::{
    AdaptivityReport, Blocks, BoxRecord, BoxSource, CoreError, ProgressLedger, RunCursor,
    SourceCursor,
};

/// Configuration of a run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Box semantics.
    pub model: ExecModel,
    /// Abort after this many boxes (safety net against degenerate
    /// profiles; worst-case profiles at the largest benchmark sizes use
    /// tens of millions of boxes, so the default is generous).
    pub max_boxes: u64,
    /// Retain the per-box history in the report's ledger. Without it the
    /// source is drained by [`BoxRun`](cadapt_core::BoxRun)s, each run of
    /// identical boxes advancing in closed form; with it every box is
    /// advanced and recorded individually (bit-identical aggregates; see
    /// the differential tests).
    pub retain_history: bool,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            model: ExecModel::Simplified,
            max_boxes: 2_000_000_000,
            retain_history: false,
        }
    }
}

/// Run failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The problem size was not canonical for the parameters.
    BadSize(CoreError),
    /// The box cap was hit before the execution completed.
    BoxBudgetExhausted {
        /// The configured cap.
        max_boxes: u64,
    },
    /// A finite cursor pipeline ran dry before the execution completed.
    /// (Plain [`BoxSource`]s are infinite and never produce this; a
    /// [`take_boxes`](cadapt_core::RunCursorExt::take_boxes) pipeline can.)
    ProfileExhausted {
        /// Boxes consumed before the pipeline ended.
        after_boxes: u64,
    },
    /// The pipeline's [`CancelToken`](cadapt_core::CancelToken) was
    /// triggered; the execution stopped cooperatively between runs.
    Cancelled {
        /// Boxes consumed before cancellation was observed.
        after_boxes: u64,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::BadSize(e) => write!(f, "bad problem size: {e}"),
            RunError::BoxBudgetExhausted { max_boxes } => {
                write!(f, "execution did not complete within {max_boxes} boxes")
            }
            RunError::ProfileExhausted { after_boxes } => {
                write!(f, "profile ran dry after {after_boxes} boxes")
            }
            RunError::Cancelled { after_boxes } => {
                write!(f, "execution cancelled after {after_boxes} boxes")
            }
        }
    }
}

impl std::error::Error for RunError {}

/// Run algorithm `params` on a problem of `n` blocks against boxes drawn
/// from `source`, returning the adaptivity report.
///
/// ```
/// use cadapt_core::profile::ConstantSource;
/// use cadapt_recursion::{run_on_profile, AbcParams, RunConfig};
///
/// // MM-Scan on constant boxes of 16 blocks, problem size 64:
/// let mut source = ConstantSource::new(16);
/// let report = run_on_profile(
///     AbcParams::mm_scan(), 64, &mut source, &RunConfig::default(),
/// )?;
/// assert_eq!(report.boxes_used, 12); // 8 subproblems + 4 boxes of scan
/// assert_eq!(report.ratio(), 1.5);
/// # Ok::<(), cadapt_recursion::RunError>(())
/// ```
///
/// The final box is recorded with its *used* I/O count, and the bounded
/// potential sum uses full box sizes — Eq. 2's "don't bother rounding down
/// the final square" convention, which it is insensitive to by construction.
///
/// # Errors
///
/// [`RunError::BadSize`] if `n` is not canonical; [`RunError::BoxBudgetExhausted`]
/// if `config.max_boxes` boxes did not complete the problem.
pub fn run_on_profile<S: BoxSource>(
    params: AbcParams,
    n: Blocks,
    source: &mut S,
    config: &RunConfig,
) -> Result<AdaptivityReport, RunError> {
    let ledger = run_with_ledger(params, n, source, config)?;
    Ok(ledger.finish())
}

/// As [`run_on_profile`], but returns the raw ledger (with per-box history
/// when `config.retain_history` is set).
///
/// # Errors
///
/// See [`run_on_profile`].
pub fn run_with_ledger<S: BoxSource>(
    params: AbcParams,
    n: Blocks,
    source: &mut S,
    config: &RunConfig,
) -> Result<ProgressLedger, RunError> {
    // The legacy BoxSource entry point is a thin bridge: wrap the source
    // as an infinite cursor and drive the one shared loop. Per-run pull
    // order and counter updates are identical, so results stay
    // bit-for-bit what they were before the cursor unification.
    run_cursor_with_ledger(params, n, &mut SourceCursor::new(source), config)
}

/// As [`run_on_profile`], but consume boxes from any streaming
/// [`RunCursor`] pipeline — combinator stacks, throttled/interleaved
/// multi-tenant scenarios, cancellable wrappers — instead of a plain
/// source.
///
/// ```
/// use cadapt_core::profile::ConstantSource;
/// use cadapt_core::{BoxSource, RunCursorExt};
/// use cadapt_recursion::{run_cursor_on_profile, AbcParams, RunConfig};
///
/// // MM-Scan against a throttled constant pipeline:
/// let mut pipeline = ConstantSource::new(64).into_cursor().throttle(16);
/// let report = run_cursor_on_profile(
///     AbcParams::mm_scan(), 64, &mut pipeline, &RunConfig::default(),
/// )?;
/// assert_eq!(report.boxes_used, 12); // same as constant 16s
/// # Ok::<(), cadapt_recursion::RunError>(())
/// ```
///
/// # Errors
///
/// As [`run_on_profile`], plus [`RunError::ProfileExhausted`] if a finite
/// pipeline ran dry mid-execution and [`RunError::Cancelled`] if a
/// [`CancelToken`](cadapt_core::CancelToken) in the pipeline fired.
pub fn run_cursor_on_profile<C: RunCursor>(
    params: AbcParams,
    n: Blocks,
    cursor: &mut C,
    config: &RunConfig,
) -> Result<AdaptivityReport, RunError> {
    let ledger = run_cursor_with_ledger(params, n, cursor, config)?;
    Ok(ledger.finish())
}

/// As [`run_cursor_on_profile`], but returns the raw ledger (with per-box
/// history when `config.retain_history` is set). **This is the one
/// run-draining loop in the workspace**; every other driver delegates
/// here.
///
/// # Errors
///
/// See [`run_cursor_on_profile`].
pub fn run_cursor_with_ledger<C: RunCursor>(
    params: AbcParams,
    n: Blocks,
    source: &mut C,
    config: &RunConfig,
) -> Result<ProgressLedger, RunError> {
    // The closed-form and descent tables come from the process-wide cache:
    // repeated trials over the same (params, n) clone a shared start-state
    // cursor instead of rebuilding the tables (bit-identical either way).
    let mut cursor = crate::cache::cursor_for(params, n).map_err(RunError::BadSize)?;
    let rho = params.potential();
    let mut ledger = if config.retain_history {
        ProgressLedger::retaining(rho, n)
    } else {
        ProgressLedger::new(rho, n)
    };
    // History retention needs one BoxRecord per box, so runs are expanded
    // back to per-box advancement there; otherwise whole runs of identical
    // boxes advance in closed form with bit-identical totals and counters.
    let drain_runs = !config.retain_history;
    while !cursor.is_done() {
        if ledger.boxes_used() >= config.max_boxes {
            return Err(RunError::BoxBudgetExhausted {
                max_boxes: config.max_boxes,
            });
        }
        let run = match source.next_run() {
            Ok(Some(run)) => run,
            Ok(None) => {
                return Err(RunError::ProfileExhausted {
                    after_boxes: ledger.boxes_used(),
                })
            }
            Err(cadapt_core::Cancelled) => {
                return Err(RunError::Cancelled {
                    after_boxes: ledger.boxes_used(),
                })
            }
        };
        debug_assert!(run.repeat >= 1, "runs must be non-empty");
        let allowed = config.max_boxes - ledger.boxes_used();
        if drain_runs {
            let out = config
                .model
                .advance_run(&mut cursor, run.size, run.repeat.min(allowed));
            cadapt_core::counters::count_boxes(out.consumed);
            cadapt_core::counters::count_io(out.used);
            ledger.record_run(run.size, out.progress, out.used, out.consumed);
        } else {
            // Expand the run per box (a plain source's default runs have
            // repeat == 1, reproducing the historical per-box pull
            // pattern exactly). A mid-run completion discards the rest of
            // the run, per the discard-on-stop law.
            let mut left = run.repeat.min(allowed);
            while left > 0 && !cursor.is_done() {
                let out = config.model.advance(&mut cursor, run.size);
                cadapt_core::counters::count_boxes(1);
                cadapt_core::counters::count_io(out.used);
                ledger.record(BoxRecord {
                    size: run.size,
                    progress: out.progress,
                    used: out.used,
                });
                left -= 1;
            }
        }
    }
    Ok(ledger)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadapt_core::profile::ConstantSource;
    use cadapt_core::SquareProfile;

    #[test]
    fn constant_boxes_complete_mm_scan() {
        let mut source = ConstantSource::new(16);
        let report =
            run_on_profile(AbcParams::mm_scan(), 64, &mut source, &RunConfig::default()).unwrap();
        // 8 boxes complete the 8 size-16 subtrees, then 4 boxes of 16
        // drain the root scan of 64.
        assert_eq!(report.boxes_used, 12);
        assert_eq!(report.total_progress, 512);
        // Ratio: 12 · 16^1.5 / 64^1.5 = 12 · 64 / 512 = 1.5.
        assert!((report.ratio() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_model_also_completes() {
        let mut source = ConstantSource::new(16);
        let config = RunConfig {
            model: ExecModel::capacity(),
            ..RunConfig::default()
        };
        let report = run_on_profile(AbcParams::mm_scan(), 64, &mut source, &config).unwrap();
        assert_eq!(report.total_progress, 512);
        assert!(report.boxes_used > 0);
    }

    #[test]
    fn box_budget_error() {
        let mut source = ConstantSource::new(1);
        let config = RunConfig {
            max_boxes: 3,
            ..RunConfig::default()
        };
        let err = run_on_profile(AbcParams::mm_scan(), 64, &mut source, &config).unwrap_err();
        assert_eq!(err, RunError::BoxBudgetExhausted { max_boxes: 3 });
    }

    #[test]
    fn bad_size_error() {
        let mut source = ConstantSource::new(4);
        let err = run_on_profile(AbcParams::mm_scan(), 63, &mut source, &RunConfig::default())
            .unwrap_err();
        assert!(matches!(err, RunError::BadSize(_)));
    }

    #[test]
    fn history_retention() {
        let profile = SquareProfile::new(vec![64]).unwrap();
        let mut source = profile.extended(1);
        let config = RunConfig {
            retain_history: true,
            ..RunConfig::default()
        };
        let ledger = run_with_ledger(AbcParams::mm_scan(), 64, &mut source, &config).unwrap();
        let history = ledger.history().unwrap();
        assert_eq!(history.len(), 1);
        assert_eq!(history[0].size, 64);
        assert_eq!(history[0].progress, 512);
    }

    #[test]
    fn batched_matches_per_box_bitwise() {
        let profile =
            SquareProfile::new(vec![1, 1, 1, 1, 16, 16, 2, 2, 2, 64, 4, 4, 4, 4]).unwrap();
        for model in [ExecModel::Simplified, ExecModel::capacity()] {
            let fast_config = RunConfig {
                model,
                ..RunConfig::default()
            };
            let slow_config = RunConfig {
                model,
                retain_history: true,
                ..RunConfig::default()
            };
            let mut fast_source = profile.cycle();
            let mut slow_source = profile.cycle();
            let fast =
                run_on_profile(AbcParams::mm_scan(), 256, &mut fast_source, &fast_config).unwrap();
            let slow =
                run_on_profile(AbcParams::mm_scan(), 256, &mut slow_source, &slow_config).unwrap();
            assert_eq!(fast.boxes_used, slow.boxes_used, "{}", model.label());
            assert_eq!(fast.total_progress, slow.total_progress);
            assert_eq!(fast.total_io, slow.total_io);
            assert_eq!(fast.max_box, slow.max_box);
            assert_eq!(fast.min_box, slow.min_box);
            assert_eq!(
                fast.bounded_potential_sum.to_bits(),
                slow.bounded_potential_sum.to_bits()
            );
            assert_eq!(
                fast.raw_potential_sum.to_bits(),
                slow.raw_potential_sum.to_bits()
            );
        }
    }

    #[test]
    fn batched_counters_match_per_box() {
        use cadapt_core::counters::Recording;
        let mut fast_source = ConstantSource::new(16);
        let mut slow_source = ConstantSource::new(16);
        let rec = Recording::start();
        let _ = run_on_profile(
            AbcParams::mm_scan(),
            1024,
            &mut fast_source,
            &RunConfig::default(),
        )
        .unwrap();
        let fast = rec.finish();
        let rec = Recording::start();
        let _ = run_on_profile(
            AbcParams::mm_scan(),
            1024,
            &mut slow_source,
            &RunConfig {
                retain_history: true,
                ..RunConfig::default()
            },
        )
        .unwrap();
        let slow = rec.finish();
        assert_eq!(fast, slow);
    }

    #[test]
    fn single_giant_box_is_optimal() {
        let mut source = ConstantSource::new(1 << 20);
        let report = run_on_profile(
            AbcParams::mm_scan(),
            256,
            &mut source,
            &RunConfig::default(),
        )
        .unwrap();
        assert_eq!(report.boxes_used, 1);
        // Bounded potential: min(n, huge)^1.5 = n^1.5 -> ratio exactly 1.
        assert!((report.ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn run_errors_display() {
        let e = RunError::BoxBudgetExhausted { max_boxes: 7 };
        assert!(e.to_string().contains('7'));
    }
}
