//! The six evaluation benchmarks (paper Table II).

use lstm::ModelConfig;
use std::fmt;

/// Task category (the "Abbr." column of Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Sentiment classification (SC).
    SentimentClassification,
    /// Question answering (QA).
    QuestionAnswering,
    /// Entailment (ET).
    Entailment,
    /// Language modeling (LM).
    LanguageModeling,
    /// Machine translation (MT).
    MachineTranslation,
}

impl TaskKind {
    /// The paper's abbreviation.
    pub fn abbr(self) -> &'static str {
        match self {
            TaskKind::SentimentClassification => "SC",
            TaskKind::QuestionAnswering => "QA",
            TaskKind::Entailment => "ET",
            TaskKind::LanguageModeling => "LM",
            TaskKind::MachineTranslation => "MT",
        }
    }
}

/// One of the six NLP applications of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Benchmark {
    /// IMDB sentiment classification \[37\].
    Imdb,
    /// MR sentence-polarity sentiment classification \[38\].
    Mr,
    /// BABI question answering \[11\].
    Babi,
    /// SNLI entailment \[39\].
    Snli,
    /// Penn Treebank word-level language modeling \[40\].
    Ptb,
    /// Tatoeba English-to-French translation \[41\].
    Mt,
}

/// Static description of a benchmark: Table II plus the task-head width
/// used by the teacher-match evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchmarkSpec {
    /// Dataset name.
    pub name: &'static str,
    /// Task category.
    pub task: TaskKind,
    /// Hidden size (Table II `Hidden_Size`).
    pub hidden_size: usize,
    /// Stacked LSTM layers (Table II `Layers`).
    pub num_layers: usize,
    /// Cells per layer (Table II `Length`).
    pub seq_len: usize,
    /// Classes of the task head. For LM/MT the head predicts a
    /// cluster/class id rather than a full vocabulary: the LSTM layers,
    /// not the softmax, are the system under study.
    pub num_classes: usize,
}

impl Benchmark {
    /// All six benchmarks in Table II order.
    pub const ALL: [Benchmark; 6] = [
        Benchmark::Imdb,
        Benchmark::Mr,
        Benchmark::Babi,
        Benchmark::Snli,
        Benchmark::Ptb,
        Benchmark::Mt,
    ];

    /// The Table II row for this benchmark.
    pub fn spec(self) -> BenchmarkSpec {
        match self {
            Benchmark::Imdb => BenchmarkSpec {
                name: "IMDB",
                task: TaskKind::SentimentClassification,
                hidden_size: 512,
                num_layers: 3,
                seq_len: 80,
                num_classes: 2,
            },
            Benchmark::Mr => BenchmarkSpec {
                name: "MR",
                task: TaskKind::SentimentClassification,
                hidden_size: 256,
                num_layers: 1,
                seq_len: 22,
                num_classes: 2,
            },
            Benchmark::Babi => BenchmarkSpec {
                name: "BABI",
                task: TaskKind::QuestionAnswering,
                hidden_size: 256,
                num_layers: 3,
                seq_len: 86,
                num_classes: 20,
            },
            Benchmark::Snli => BenchmarkSpec {
                name: "SNLI",
                task: TaskKind::Entailment,
                hidden_size: 300,
                num_layers: 2,
                seq_len: 100,
                num_classes: 3,
            },
            Benchmark::Ptb => BenchmarkSpec {
                name: "PTB",
                task: TaskKind::LanguageModeling,
                hidden_size: 650,
                num_layers: 3,
                seq_len: 200,
                num_classes: 20,
            },
            Benchmark::Mt => BenchmarkSpec {
                name: "MT",
                task: TaskKind::MachineTranslation,
                hidden_size: 500,
                num_layers: 4,
                seq_len: 50,
                num_classes: 50,
            },
        }
    }

    /// The benchmark's name.
    pub fn name(self) -> &'static str {
        self.spec().name
    }

    /// Builds the [`ModelConfig`] (embedding width = hidden width, the
    /// common configuration when the embedding table feeds the first
    /// layer directly).
    pub fn model_config(self) -> ModelConfig {
        let s = self.spec();
        ModelConfig::new(
            s.name,
            s.hidden_size,
            s.hidden_size,
            s.num_layers,
            s.seq_len,
            s.num_classes,
        )
        .expect("Table II rows are valid")
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_2_rows_match_paper() {
        let rows: Vec<(&str, &str, usize, usize, usize)> = Benchmark::ALL
            .iter()
            .map(|b| {
                let s = b.spec();
                (
                    s.name,
                    s.task.abbr(),
                    s.hidden_size,
                    s.num_layers,
                    s.seq_len,
                )
            })
            .collect();
        assert_eq!(
            rows,
            vec![
                ("IMDB", "SC", 512, 3, 80),
                ("MR", "SC", 256, 1, 22),
                ("BABI", "QA", 256, 3, 86),
                ("SNLI", "ET", 300, 2, 100),
                ("PTB", "LM", 650, 3, 200),
                ("MT", "MT", 500, 4, 50),
            ]
        );
    }

    #[test]
    fn model_configs_are_valid() {
        for b in Benchmark::ALL {
            let cfg = b.model_config();
            assert_eq!(cfg.hidden_size, b.spec().hidden_size);
            assert_eq!(cfg.seq_len, b.spec().seq_len);
            assert_eq!(cfg.num_layers, b.spec().num_layers);
        }
    }

    #[test]
    fn ptb_has_largest_weights_and_longest_layer() {
        // The paper highlights PTB as the benchmark with both the largest
        // weight matrices and the longest layer — the scalability argument.
        let ptb = Benchmark::Ptb.model_config();
        for b in Benchmark::ALL {
            if b != Benchmark::Ptb {
                let c = b.model_config();
                assert!(ptb.united_u_bytes() > c.united_u_bytes());
                assert!(ptb.seq_len >= c.seq_len);
            }
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(Benchmark::Ptb.to_string(), "PTB");
        assert_eq!(Benchmark::Imdb.to_string(), "IMDB");
    }
}
