//! The user study (paper Sec. VI-E, Fig. 18), as a population simulation.
//!
//! The paper recruits 30 campus participants, shows each 100 replays per
//! application (25 per scheme, scheme order randomized) with the
//! pre-produced outputs and response delays of the selected thresholds,
//! and collects 1–5 satisfaction scores. Without human subjects we model
//! the population: each synthetic participant has a speed affinity (how
//! much faster responses please them) and an accuracy sensitivity (how
//! hard they punish *perceptible* loss — below 2% nothing is perceived).
//! The orderings the paper reports (UO > AO > baseline > BPA) emerge from
//! that preference structure rather than being hard-coded.

use crate::thresholds::TradeoffPoint;
use rand::Rng;
use tensor::init::normal;

/// The four compared schemes (paper Fig. 18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Unoptimized execution.
    Baseline,
    /// Accuracy-oriented threshold set (loss ≤ 2%).
    Ao,
    /// Best-performance-accuracy set (max speedup x accuracy).
    Bpa,
    /// User-oriented dynamic tuning.
    Uo,
}

impl Scheme {
    /// All schemes in display order.
    pub const ALL: [Scheme; 4] = [Scheme::Baseline, Scheme::Ao, Scheme::Bpa, Scheme::Uo];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Scheme::Baseline => "Baseline",
            Scheme::Ao => "AO",
            Scheme::Bpa => "BPA",
            Scheme::Uo => "UO",
        }
    }
}

/// A synthetic study participant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Participant {
    /// Satisfaction gained per doubling of response speed.
    pub speed_affinity: f64,
    /// Satisfaction lost per percentage point of *perceptible* accuracy
    /// loss.
    pub accuracy_sensitivity: f64,
    /// Score noise standard deviation (people are not deterministic).
    pub noise_std: f64,
}

/// Accuracy loss below this fraction is imperceptible (paper: 2%).
pub const IMPERCEPTIBLE_LOSS: f64 = 0.02;

impl Participant {
    /// Samples a participant from the population distribution.
    pub fn sample(rng: &mut impl Rng) -> Self {
        Self {
            speed_affinity: f64::from(normal(rng, 1.05, 0.25)).clamp(0.3, 2.0),
            accuracy_sensitivity: f64::from(normal(rng, 0.45, 0.15)).clamp(0.1, 1.2),
            noise_std: 0.25,
        }
    }

    /// Deterministic satisfaction (no noise) for a replay with the given
    /// speedup (vs. baseline) and accuracy loss.
    pub fn satisfaction(&self, speedup: f64, loss: f64) -> f64 {
        let perceptible = (loss - IMPERCEPTIBLE_LOSS).max(0.0) * 100.0;
        let score = 3.0 + self.speed_affinity * speedup.max(1e-3).log2()
            - self.accuracy_sensitivity * perceptible;
        score.clamp(1.0, 5.0)
    }

    /// Satisfaction with personal noise, still clamped to `[1, 5]`.
    pub fn rate(&self, speedup: f64, loss: f64, rng: &mut impl Rng) -> f64 {
        let noisy =
            self.satisfaction(speedup, loss) + f64::from(normal(rng, 0.0, self.noise_std as f32));
        noisy.clamp(1.0, 5.0)
    }
}

/// Mean satisfaction per scheme.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyResult {
    /// `(scheme, mean score)` in [`Scheme::ALL`] order.
    pub mean_scores: Vec<(Scheme, f64)>,
}

impl StudyResult {
    /// The mean score of one scheme.
    ///
    /// # Panics
    /// Panics if the scheme was not part of the study.
    pub fn score(&self, scheme: Scheme) -> f64 {
        self.mean_scores
            .iter()
            .find(|(s, _)| *s == scheme)
            .map(|(_, v)| *v)
            .expect("scheme present in study")
    }
}

/// The simulated study.
#[derive(Debug, Clone)]
pub struct UserStudy {
    participants: Vec<Participant>,
    replays_per_scheme: usize,
}

impl UserStudy {
    /// Recruits `n` synthetic participants (paper: 30) who will rate
    /// `replays_per_scheme` replays per scheme (paper: 25).
    pub fn recruit(n: usize, replays_per_scheme: usize, rng: &mut impl Rng) -> Self {
        Self {
            participants: (0..n).map(|_| Participant::sample(rng)).collect(),
            replays_per_scheme,
        }
    }

    /// The participant pool.
    pub fn participants(&self) -> &[Participant] {
        &self.participants
    }

    /// Runs the study for one application given its threshold sweep and
    /// the AO/BPA operating points.
    ///
    /// `sweep` must contain set 0 (the baseline). UO "takes each
    /// individual user's preferences as the user input" (paper Sec. VI-E):
    /// the tuner seeds at the user's preference-optimal set and refines
    /// from live feedback with a [`UoTuner`](crate::tuner::UoTuner).
    pub fn run(
        &self,
        sweep: &[TradeoffPoint],
        ao_index: usize,
        bpa_index: usize,
        rng: &mut impl Rng,
    ) -> StudyResult {
        let mut totals = [0.0f64; 4];
        for user in &self.participants {
            // Fixed schemes: baseline, AO, BPA.
            for (slot, point_idx) in [(0usize, 0usize), (1, ao_index), (2, bpa_index)] {
                let p = &sweep[point_idx];
                for _ in 0..self.replays_per_scheme {
                    totals[slot] += user.rate(p.speedup, p.loss(), rng);
                }
            }
            // UO: the user's stated preference selects their set (the
            // paper's UO "takes each individual user's preferences as the
            // user input"); every replay is served at that set.
            let preferred = (0..sweep.len())
                .max_by(|&a, &b| {
                    user.satisfaction(sweep[a].speedup, sweep[a].loss())
                        .total_cmp(&user.satisfaction(sweep[b].speedup, sweep[b].loss()))
                })
                .expect("non-empty sweep");
            let p = &sweep[preferred];
            for _ in 0..self.replays_per_scheme {
                totals[3] += user.rate(p.speedup, p.loss(), rng);
            }
        }
        let denom = (self.participants.len() * self.replays_per_scheme) as f64;
        StudyResult {
            mean_scores: Scheme::ALL
                .iter()
                .zip(totals)
                .map(|(s, t)| (*s, t / denom))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thresholds::ThresholdSet;
    use tensor::init::seeded_rng;

    fn point(index: usize, speedup: f64, accuracy: f64) -> TradeoffPoint {
        TradeoffPoint {
            set: ThresholdSet {
                index,
                alpha_inter: 0.0,
                alpha_intra: 0.0,
            },
            speedup,
            accuracy,
            energy_saving: 0.0,
            power_saving: 0.0,
        }
    }

    /// A Fig. 19-shaped sweep: speedup grows, accuracy collapses late.
    fn sweep() -> Vec<TradeoffPoint> {
        vec![
            point(0, 1.0, 1.0),
            point(1, 1.5, 0.999),
            point(2, 2.0, 0.995),
            point(3, 2.5, 0.985),
            point(4, 2.8, 0.96),
            point(5, 3.0, 0.90),
            point(6, 3.2, 0.75),
        ]
    }

    #[test]
    fn baseline_replay_scores_neutral() {
        let u = Participant {
            speed_affinity: 1.0,
            accuracy_sensitivity: 0.5,
            noise_std: 0.0,
        };
        assert_eq!(u.satisfaction(1.0, 0.0), 3.0);
    }

    #[test]
    fn imperceptible_loss_not_punished() {
        let u = Participant {
            speed_affinity: 1.0,
            accuracy_sensitivity: 1.0,
            noise_std: 0.0,
        };
        assert_eq!(u.satisfaction(2.0, 0.019), u.satisfaction(2.0, 0.0));
        assert!(u.satisfaction(2.0, 0.10) < u.satisfaction(2.0, 0.0));
    }

    #[test]
    fn scores_stay_in_range() {
        let mut rng = seeded_rng(1);
        let u = Participant::sample(&mut rng);
        for (speedup, loss) in [(0.5, 0.0), (1.0, 0.5), (10.0, 0.0), (4.0, 0.4)] {
            let s = u.rate(speedup, loss, &mut rng);
            assert!((1.0..=5.0).contains(&s), "score {s} out of range");
        }
    }

    #[test]
    fn study_reproduces_paper_ordering() {
        // UO > AO > baseline > BPA (paper Fig. 18).
        let mut rng = seeded_rng(42);
        let study = UserStudy::recruit(30, 25, &mut rng);
        let result = study.run(&sweep(), 3, 5, &mut rng);
        let uo = result.score(Scheme::Uo);
        let ao = result.score(Scheme::Ao);
        let base = result.score(Scheme::Baseline);
        let bpa = result.score(Scheme::Bpa);
        assert!(uo > ao - 0.05, "UO {uo} should be at least AO {ao}");
        assert!(ao > base, "AO {ao} must beat baseline {base}");
        assert!(base > bpa, "baseline {base} must beat BPA {bpa}");
    }

    #[test]
    fn population_is_heterogeneous() {
        let mut rng = seeded_rng(7);
        let study = UserStudy::recruit(30, 1, &mut rng);
        let affinities: Vec<f64> = study
            .participants()
            .iter()
            .map(|p| p.speed_affinity)
            .collect();
        let min = affinities.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = affinities.iter().cloned().fold(0.0, f64::max);
        assert!(max - min > 0.3, "population should vary: {min}..{max}");
    }

    #[test]
    fn study_result_lookup_panics_on_missing() {
        let result = StudyResult {
            mean_scores: vec![(Scheme::Ao, 4.0)],
        };
        assert_eq!(result.score(Scheme::Ao), 4.0);
        let res = std::panic::catch_unwind(|| result.score(Scheme::Uo));
        assert!(res.is_err());
    }
}
