//! Shared experiment plumbing: per-benchmark evaluation budgets.

use workloads::Benchmark;

/// How many evaluation sequences each benchmark gets.
///
/// The accuracy metric pools per-timestep predictions, so even a handful
/// of sequences yields hundreds of samples; the budgets below balance that
/// against the single-core CPU cost of the real f32 forward passes (PTB's
/// 3x200x650 network is ~2 GFLOP per sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalBudget {
    /// Sequences used for accuracy measurement.
    pub accuracy_seqs: usize,
    /// Sequences used for performance simulation.
    pub perf_seqs: usize,
}

/// The default budget for a benchmark (scaled to its per-sequence cost).
pub fn budget_for(benchmark: Benchmark) -> EvalBudget {
    match benchmark {
        Benchmark::Mr => EvalBudget {
            accuracy_seqs: 24,
            perf_seqs: 2,
        },
        Benchmark::Babi => EvalBudget {
            accuracy_seqs: 8,
            perf_seqs: 2,
        },
        Benchmark::Snli => EvalBudget {
            accuracy_seqs: 8,
            perf_seqs: 2,
        },
        Benchmark::Imdb => EvalBudget {
            accuracy_seqs: 6,
            perf_seqs: 2,
        },
        Benchmark::Mt => EvalBudget {
            accuracy_seqs: 6,
            perf_seqs: 2,
        },
        Benchmark::Ptb => EvalBudget {
            accuracy_seqs: 4,
            perf_seqs: 1,
        },
    }
}

/// A smaller budget for `--fast` smoke runs.
pub fn fast_budget() -> EvalBudget {
    EvalBudget {
        accuracy_seqs: 2,
        perf_seqs: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_scale_inversely_with_model_cost() {
        assert!(budget_for(Benchmark::Mr).accuracy_seqs > budget_for(Benchmark::Ptb).accuracy_seqs);
        for b in Benchmark::ALL {
            let budget = budget_for(b);
            assert!(budget.accuracy_seqs >= 2);
            assert!(budget.perf_seqs >= 1);
        }
    }
}
