//! Typed errors for plan compilation, execution, and serving.
//!
//! Mirrors `tensor::error`: a small enum with a precise `Display` per
//! failure, implementing [`std::error::Error`]. Every `memlstm` entry
//! point that can fail on its input (`compile`, `OptimizedExecutor::run`,
//! `profile_plan`, `compile_gru_drs`, `ServeEngine::submit`, ...) has
//! one form, returning [`MemlstmResult`].

use std::fmt;

/// Everything that can go wrong compiling, executing, or serving a plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// `compile` was given no probe sequences.
    NoProbes,
    /// A probe sequence was empty.
    EmptyProbe,
    /// Probe sequences differ in length.
    ProbeLengthMismatch {
        /// Length of the first probe.
        expected: usize,
        /// The offending probe's length.
        actual: usize,
    },
    /// `config.inter` is set but the analyzers don't cover every layer.
    AnalyzerCount {
        /// Network layer count.
        expected: usize,
        /// Analyzers supplied.
        actual: usize,
    },
    /// An execution entry point was given an empty input sequence.
    EmptyInput,
    /// An input sequence does not match the plan's compiled length.
    SeqLenMismatch {
        /// The plan's compiled sequence length.
        expected: usize,
        /// The input's length.
        actual: usize,
    },
    /// The plan's layer stack does not match the network.
    LayerCountMismatch {
        /// Layers in the plan.
        plan: usize,
        /// Layers in the network.
        network: usize,
    },
    /// An LSTM entry point was given a plan compiled for a GRU network.
    GruPlan,
    /// A plan compiled for one device was offered to a different one.
    /// Plans bake in device-shaped decisions (tissue sizes, thresholds),
    /// so cross-device reuse is refused rather than silently mispriced.
    DeviceMismatch {
        /// Name of the device the plan was compiled for.
        plan: String,
        /// Name of the device the plan was offered to.
        device: String,
    },
    /// The serve queue is at capacity; retry after a round completes.
    QueueFull {
        /// The configured queue capacity.
        capacity: usize,
    },
    /// A serve configuration field is out of range. Caught by
    /// [`ServeEngine::new`](crate::serve::ServeEngine::new) so a
    /// misconfigured engine (`max_batch == 0`, a zero queue, inverted
    /// degradation watermarks, ...) fails loudly at construction instead
    /// of spinning or panicking mid-serve.
    InvalidServeConfig {
        /// The offending field.
        field: &'static str,
        /// Why the value is rejected.
        reason: &'static str,
    },
    /// A fleet was constructed with no member devices.
    FleetEmpty,
    /// A routing policy returned a device index that is out of range or
    /// quarantined. Caught by
    /// [`FleetEngine::submit`](crate::fleet::FleetEngine::submit) so a
    /// buggy policy fails loudly instead of silently dropping requests.
    FleetRouteIndex {
        /// The index the policy returned.
        index: usize,
        /// Number of devices in the fleet.
        devices: usize,
    },
    /// Every device in the fleet is quarantined; nothing can accept the
    /// request.
    FleetAllQuarantined,
    /// A submitted request's times are unusable: a non-finite or negative
    /// arrival (a NaN arrival is never eligible, so serving would stall),
    /// or a non-finite deadline or one before the arrival.
    InvalidRequest {
        /// The request's id.
        id: u64,
        /// Why the request is rejected.
        reason: &'static str,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::NoProbes => write!(f, "compile: no probe sequences"),
            Error::EmptyProbe => write!(f, "compile: empty probe sequence"),
            Error::ProbeLengthMismatch { expected, actual } => write!(
                f,
                "compile: probe sequences must share one length (expected {expected}, got {actual})"
            ),
            Error::AnalyzerCount { expected, actual } => write!(
                f,
                "compile: analyzer per layer required ({actual} analyzers for {expected} layers)"
            ),
            Error::EmptyInput => write!(f, "empty input"),
            Error::SeqLenMismatch { expected, actual } => write!(
                f,
                "plan compiled for sequence length {expected}, got {actual}"
            ),
            Error::LayerCountMismatch { plan, network } => write!(
                f,
                "plan/network layer count mismatch (plan has {plan}, network has {network})"
            ),
            Error::GruPlan => write!(f, "plan was compiled for a GRU network"),
            Error::DeviceMismatch { plan, device } => write!(
                f,
                "plan was compiled for device '{plan}', not '{device}' (recompile for the target device)"
            ),
            Error::QueueFull { capacity } => {
                write!(f, "serve queue full ({capacity} pending requests)")
            }
            Error::InvalidServeConfig { field, reason } => {
                write!(f, "serve config: {field} {reason}")
            }
            Error::FleetEmpty => write!(f, "fleet: no member devices"),
            Error::FleetRouteIndex { index, devices } => write!(
                f,
                "fleet: routing policy chose device {index}, which is not a healthy member \
                 (fleet has {devices} devices)"
            ),
            Error::FleetAllQuarantined => {
                write!(f, "fleet: every device is quarantined")
            }
            Error::InvalidRequest { id, reason } => {
                write!(f, "invalid request {id}: {reason}")
            }
        }
    }
}

impl std::error::Error for Error {}

/// Convenience alias for fallible memlstm operations.
pub type MemlstmResult<T> = std::result::Result<T, Error>;

#[cfg(test)]
mod tests {
    use super::*;

    /// One instance of every variant. A new variant added to the enum
    /// without a row here fails [`every_variant_is_covered`]'s count.
    fn all_variants() -> Vec<Error> {
        vec![
            Error::NoProbes,
            Error::EmptyProbe,
            Error::ProbeLengthMismatch {
                expected: 4,
                actual: 2,
            },
            Error::AnalyzerCount {
                expected: 2,
                actual: 1,
            },
            Error::EmptyInput,
            Error::SeqLenMismatch {
                expected: 8,
                actual: 3,
            },
            Error::LayerCountMismatch {
                plan: 2,
                network: 3,
            },
            Error::GruPlan,
            Error::DeviceMismatch {
                plan: "tegra_x1".to_owned(),
                device: "tegra_x2".to_owned(),
            },
            Error::QueueFull { capacity: 2 },
            Error::InvalidServeConfig {
                field: "max_batch",
                reason: "must be nonzero",
            },
            Error::FleetEmpty,
            Error::FleetRouteIndex {
                index: 9,
                devices: 3,
            },
            Error::FleetAllQuarantined,
            Error::InvalidRequest {
                id: 7,
                reason: "arrival_s must be finite and non-negative",
            },
        ]
    }

    /// The substring each variant's `Display` (and therefore each legacy
    /// panic message, PR 4's promise) must keep carrying.
    fn pinned_substring(e: &Error) -> &'static str {
        match e {
            Error::NoProbes => "compile: no probe sequences",
            Error::EmptyProbe => "compile: empty probe sequence",
            Error::ProbeLengthMismatch { .. } => "must share one length",
            Error::AnalyzerCount { .. } => "analyzer per layer required",
            Error::EmptyInput => "empty input",
            Error::SeqLenMismatch { .. } => "sequence length 8, got 3",
            Error::LayerCountMismatch { .. } => "layer count mismatch",
            Error::GruPlan => "compiled for a GRU network",
            Error::DeviceMismatch { .. } => "compiled for device 'tegra_x1', not 'tegra_x2'",
            Error::QueueFull { .. } => "queue full",
            Error::InvalidServeConfig { .. } => "serve config: max_batch must be nonzero",
            Error::FleetEmpty => "fleet: no member devices",
            Error::FleetRouteIndex { .. } => "routing policy chose device 9",
            Error::FleetAllQuarantined => "every device is quarantined",
            Error::InvalidRequest { .. } => {
                "invalid request 7: arrival_s must be finite and non-negative"
            }
        }
    }

    #[test]
    fn every_variant_is_covered() {
        // `pinned_substring`'s match is exhaustive, so a new variant
        // fails to compile until it picks a pinned message; this count
        // keeps `all_variants` honest alongside it.
        let variants = all_variants();
        assert_eq!(variants.len(), 15, "new variant missing from the table");
        let mut displays: Vec<String> = variants.iter().map(Error::to_string).collect();
        displays.sort();
        displays.dedup();
        assert_eq!(
            variants.len(),
            displays.len(),
            "two variants share a message"
        );
    }

    #[test]
    fn display_messages_keep_the_legacy_panic_substrings() {
        // Callers that treat an error as a bug (`plan_probes`, the bench
        // binaries) panic with these messages, and logs and tests match
        // on the substrings.
        for e in all_variants() {
            let msg = e.to_string();
            assert!(
                msg.contains(pinned_substring(&e)),
                "{e:?}: display '{msg}' lost its pinned substring"
            );
        }
    }

    #[test]
    fn round_trips_through_clone_and_eq() {
        // `Error` is `Clone + PartialEq`: callers compare returned errors
        // against expected values and format them, so clones must compare
        // equal and formatting must be stable.
        for e in all_variants() {
            let copy = e.clone();
            assert_eq!(e, copy);
            assert_eq!(e.to_string(), copy.to_string());
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        let e: Box<dyn std::error::Error> = Box::new(Error::EmptyInput);
        assert_eq!(e.to_string(), "empty input");
        let fleet: Box<dyn std::error::Error> = Box::new(Error::FleetEmpty);
        assert_eq!(fleet.to_string(), "fleet: no member devices");
    }
}
