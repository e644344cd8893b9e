//! Teacher-match accuracy evaluation.
//!
//! The paper's accuracy metric is the application's output accuracy
//! relative to the unapproximated model ("2% accuracy loss" means the
//! optimized execution changes the task output on 2% of inputs). With the
//! original datasets unavailable, we measure exactly that relative
//! quantity: agreement between the optimized execution's predictions and
//! the exact model's predictions on the same inputs.

/// Fraction of positions where `approx` equals `teacher`, in `[0, 1]`.
///
/// # Panics
/// Panics if the slices have different lengths or are empty.
pub fn teacher_match(teacher: &[usize], approx: &[usize]) -> f64 {
    assert_eq!(
        teacher.len(),
        approx.len(),
        "teacher_match: length mismatch"
    );
    assert!(!teacher.is_empty(), "teacher_match: empty evaluation set");
    let matches = teacher.iter().zip(approx).filter(|(a, b)| a == b).count();
    matches as f64 / teacher.len() as f64
}

/// Teacher match over per-sequence, per-timestep prediction sets
/// (`[sequence][timestep]`), pooled across all timesteps.
///
/// # Panics
/// Panics if the shapes differ or the total count is zero.
pub fn teacher_match_nested(teacher: &[Vec<usize>], approx: &[Vec<usize>]) -> f64 {
    assert_eq!(
        teacher.len(),
        approx.len(),
        "teacher_match_nested: sequence count mismatch"
    );
    let mut matches = 0usize;
    let mut total = 0usize;
    for (t_seq, a_seq) in teacher.iter().zip(approx) {
        assert_eq!(
            t_seq.len(),
            a_seq.len(),
            "teacher_match_nested: sequence length mismatch"
        );
        total += t_seq.len();
        matches += t_seq.iter().zip(a_seq).filter(|(a, b)| a == b).count();
    }
    assert!(total > 0, "teacher_match_nested: empty evaluation set");
    matches as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_match_is_one() {
        assert_eq!(teacher_match(&[1, 2, 3], &[1, 2, 3]), 1.0);
    }

    #[test]
    fn half_match() {
        assert_eq!(teacher_match(&[0, 0, 1, 1], &[0, 1, 1, 0]), 0.5);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        teacher_match(&[1], &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "empty evaluation set")]
    fn empty_set_panics() {
        teacher_match(&[], &[]);
    }

    #[test]
    fn nested_match_pools_timesteps() {
        let teacher = vec![vec![0, 1, 1], vec![2, 2, 2]];
        let approx = vec![vec![0, 1, 0], vec![2, 2, 2]];
        assert!((teacher_match_nested(&teacher, &approx) - 5.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sequence length mismatch")]
    fn nested_match_rejects_ragged() {
        teacher_match_nested(&[vec![1, 2]], &[vec![1]]);
    }
}
