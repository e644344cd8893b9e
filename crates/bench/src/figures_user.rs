//! Fig. 18: the user study.

use crate::session::Session;
use crate::table::TextTable;
use memlstm::thresholds::{select_ao, select_bpa, Level};
use memlstm::user_study::{Scheme, UserStudy};
use tensor::init::seeded_rng;

/// Fig. 18: mean user-satisfaction score per scheme, averaged over 30
/// synthetic participants rating 25 replays per scheme per application.
///
/// The paper's finding: UO > AO > baseline > BPA.
pub fn fig18(session: &mut Session) -> String {
    let mut rng = seeded_rng(0x57D1);
    let study = UserStudy::recruit(30, 25, &mut rng);
    let mut table = TextTable::new(["application", "Baseline", "AO", "BPA", "UO"]);
    let mut sums = [0.0f64; 4];
    let benchmarks = session.benchmarks();
    for benchmark in &benchmarks {
        let points = session.sweep(*benchmark, Level::Combined);
        let ao = select_ao(&points).set.index;
        let bpa = select_bpa(&points).set.index;
        let result = study.run(&points, ao, bpa, &mut rng);
        let scores: Vec<f64> = Scheme::ALL.iter().map(|s| result.score(*s)).collect();
        for (acc, v) in sums.iter_mut().zip(&scores) {
            *acc += v;
        }
        table.row([
            benchmark.name().to_owned(),
            format!("{:.2}", scores[0]),
            format!("{:.2}", scores[1]),
            format!("{:.2}", scores[2]),
            format!("{:.2}", scores[3]),
        ]);
    }
    let n = benchmarks.len() as f64;
    table.row([
        "AVERAGE".to_owned(),
        format!("{:.2}", sums[0] / n),
        format!("{:.2}", sums[1] / n),
        format!("{:.2}", sums[2] / n),
        format!("{:.2}", sums[3] / n),
    ]);
    format!(
        "Fig. 18 — user satisfaction per scheme (1 = unsatisfied .. 5 = most satisfied)\n\
         paper ordering: UO > AO > baseline > BPA\n{table}"
    )
}
