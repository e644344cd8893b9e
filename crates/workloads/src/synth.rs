//! Trained-like network synthesis and the bundled [`Workload`] type.

use crate::dataset::Dataset;
use crate::spec::Benchmark;
use lstm::cell::CellInit;
use lstm::LstmNetwork;
use std::sync::OnceLock;
use tensor::init::{seeded_rng, GateBiasInit, RowScaledInit};
use tensor::Vector;

/// Parameters of the trained-like synthesis for one benchmark.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SynthParams {
    /// Cell initialization statistics.
    pub cell_init: CellInit,
    /// Base RNG seed (weights and data derive distinct streams from it).
    pub seed: u64,
}

impl SynthParams {
    /// Per-benchmark defaults.
    ///
    /// The knobs vary mildly by task, mirroring how trained models differ:
    /// classification tasks (IMDB/MR/SNLI) have more strongly saturated
    /// output gates than generation tasks (PTB/MT), giving Dynamic Row Skip
    /// different trivial-row populations per app — the spread visible in
    /// the paper's Fig. 16(a) compression ratios.
    pub fn for_benchmark(benchmark: Benchmark) -> Self {
        let saturated_frac = match benchmark {
            Benchmark::Imdb => 0.58,
            Benchmark::Mr => 0.52,
            Benchmark::Babi => 0.50,
            Benchmark::Snli => 0.55,
            Benchmark::Ptb => 0.48,
            Benchmark::Mt => 0.45,
        };
        let light_row_frac = match benchmark {
            // Longer layers expose more weak links in trained models.
            Benchmark::Ptb => 0.62,
            Benchmark::Babi => 0.58,
            Benchmark::Snli => 0.58,
            _ => 0.55,
        };
        let cell_init = CellInit {
            recurrent: RowScaledInit {
                base_std: 0.012,
                light_row_frac,
                light_scale: 0.15,
            },
            output_bias: GateBiasInit {
                saturated_frac,
                ..GateBiasInit::default()
            },
            ..CellInit::default()
        };
        Self {
            cell_init,
            seed: 0x5EED_0000 + benchmark as u64,
        }
    }
}

/// A workload: the Table II network with trained-like weights, its input
/// dataset, and the exact model's predictions on the evaluation split
/// (the teacher labels). The labels cost one exact forward per
/// evaluation sequence, so they are computed on the first
/// [`teacher_labels`](Workload::teacher_labels) call, not at generation;
/// a clone taken before that call computes the same labels on its own
/// first call.
#[derive(Debug, Clone)]
pub struct Workload {
    benchmark: Benchmark,
    network: LstmNetwork,
    dataset: Dataset,
    teacher: OnceLock<Vec<Vec<usize>>>,
}

impl Workload {
    /// Generates the workload for `benchmark` with `eval_n` evaluation
    /// sequences, deterministically from `seed`.
    pub fn generate(benchmark: Benchmark, eval_n: usize, seed: u64) -> Self {
        Self::generate_with(
            benchmark,
            &SynthParams::for_benchmark(benchmark),
            eval_n,
            seed,
        )
    }

    /// Generates with explicit synthesis parameters.
    pub fn generate_with(
        benchmark: Benchmark,
        params: &SynthParams,
        eval_n: usize,
        seed: u64,
    ) -> Self {
        let config = benchmark.model_config();
        let mut rng = seeded_rng(params.seed ^ seed);
        let network = LstmNetwork::random_with(&config, &params.cell_init, &mut rng);
        let offline_n = 8.max(eval_n / 2);
        let dataset = Dataset::generate(benchmark, offline_n, eval_n, seed);
        Self {
            benchmark,
            network,
            dataset,
            teacher: OnceLock::new(),
        }
    }

    /// Generates a workload for an arbitrary model configuration (used by
    /// the Fig. 17 capacity sweeps, which scale BABI's hidden size and
    /// input length).
    pub fn generate_scaled(
        benchmark: Benchmark,
        config: &lstm::ModelConfig,
        eval_n: usize,
        seed: u64,
    ) -> Self {
        let params = SynthParams::for_benchmark(benchmark);
        let mut rng = seeded_rng(params.seed ^ seed);
        let network = LstmNetwork::random_with(config, &params.cell_init, &mut rng);
        let mut data_rng = seeded_rng(seed ^ 0x0D5E_A5E7);
        let mut sample = |n: usize| -> Vec<Vec<Vector>> {
            (0..n)
                .map(|_| {
                    crate::dataset::sample_sequence(config.seq_len, config.input_dim, &mut data_rng)
                })
                .collect()
        };
        let offline = sample(8.max(eval_n / 2));
        let eval = sample(eval_n);
        let dataset = Dataset::from_parts(benchmark, offline, eval);
        Self {
            benchmark,
            network,
            dataset,
            teacher: OnceLock::new(),
        }
    }

    /// The benchmark identity.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The Table II row.
    pub fn spec(&self) -> crate::spec::BenchmarkSpec {
        self.benchmark.spec()
    }

    /// The network under test.
    pub fn network(&self) -> &LstmNetwork {
        &self.network
    }

    /// The input dataset.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The evaluation sequences.
    pub fn eval_set(&self) -> &[Vec<Vector>] {
        self.dataset.eval()
    }

    /// The exact model's per-timestep predictions on the evaluation split
    /// (`[sequence][timestep]`): [`teacher_predictions`] over
    /// [`eval_set`](Self::eval_set), run on the first call and kept.
    pub fn teacher_labels(&self) -> &[Vec<usize>] {
        self.teacher
            .get_or_init(|| teacher_predictions(&self.network, self.dataset.eval()))
    }
}

/// Computes the exact network's per-timestep predictions over a set of
/// sequences.
pub fn teacher_predictions(network: &LstmNetwork, sequences: &[Vec<Vector>]) -> Vec<Vec<usize>> {
    sequences
        .iter()
        .map(|xs| {
            let out = network.forward(xs);
            network.step_predictions(out.layer_hs.last().expect("at least one layer"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_teacher_matches_exact_forward() {
        let wl = Workload::generate(Benchmark::Mr, 3, 11);
        for (xs, labels) in wl.eval_set().iter().zip(wl.teacher_labels()) {
            assert_eq!(labels.len(), xs.len());
            assert_eq!(
                wl.network().forward(xs).predicted_class(),
                *labels.last().unwrap(),
                "final per-step prediction must equal the sequence prediction"
            );
        }
    }

    #[test]
    fn teacher_labels_are_computed_on_first_read() {
        let cfg = Benchmark::Babi
            .model_config()
            .with_hidden_size(16)
            .with_seq_len(6);
        for wl in [
            Workload::generate(Benchmark::Mr, 3, 11),
            Workload::generate_scaled(Benchmark::Babi, &cfg, 3, 4),
        ] {
            assert!(wl.teacher.get().is_none(), "generation ran the teacher");
            let early = wl.clone();
            let want = teacher_predictions(wl.network(), wl.eval_set());
            assert_eq!(wl.teacher_labels(), want.as_slice());
            assert!(wl.teacher.get().is_some());
            assert!(early.teacher.get().is_none(), "a clone shares the cell");
            assert_eq!(early.teacher_labels(), want.as_slice());
        }
    }

    #[test]
    fn workload_is_deterministic() {
        let a = Workload::generate(Benchmark::Mr, 2, 5);
        let b = Workload::generate(Benchmark::Mr, 2, 5);
        assert_eq!(a.teacher_labels(), b.teacher_labels());
        assert_eq!(a.network(), b.network());
    }

    #[test]
    fn per_benchmark_params_differ() {
        let imdb = SynthParams::for_benchmark(Benchmark::Imdb);
        let mt = SynthParams::for_benchmark(Benchmark::Mt);
        assert!(
            imdb.cell_init.output_bias.saturated_frac > mt.cell_init.output_bias.saturated_frac
        );
    }

    #[test]
    fn scaled_workload_respects_config() {
        let cfg = Benchmark::Babi
            .model_config()
            .with_hidden_size(64)
            .with_seq_len(12);
        let wl = Workload::generate_scaled(Benchmark::Babi, &cfg, 2, 3);
        assert_eq!(wl.network().config().hidden_size, 64);
        assert_eq!(wl.eval_set()[0].len(), 12);
        assert_eq!(wl.teacher_labels().len(), 2);
        assert_eq!(wl.teacher_labels()[0].len(), 12);
    }

    #[test]
    fn teacher_labels_use_multiple_classes_eventually() {
        // With 20 classes (BABI head) and several sequences, predictions
        // should not all collapse to one class.
        let wl = Workload::generate(Benchmark::Mr, 16, 21);
        for seq in wl.teacher_labels() {
            for &l in seq {
                assert!(l < wl.spec().num_classes);
            }
        }
        assert_eq!(wl.teacher_labels().len(), 16);
    }
}
