//! Solution statistics and reports.
//!
//! Downstream users of a scaffolder want more than a score: how many
//! islands formed, how much of each genome is anchored, how large the
//! islands are. This module summarises a consistent solution the way
//! assembly tools report scaffold statistics.

use fragalign_model::{check_consistency, Inconsistency, Instance, MatchKind, MatchSet, Species};

/// Summary of a consistent CSR solution.
#[derive(Clone, Debug, PartialEq)]
pub struct SolutionStats {
    /// Total score `Score(S)`.
    pub score: i64,
    /// Number of matches.
    pub matches: usize,
    /// Full (plug) matches.
    pub full_matches: usize,
    /// Border (staircase) matches.
    pub border_matches: usize,
    /// Number of islands.
    pub islands: usize,
    /// Fragments per island, descending ("scaffold sizes").
    pub island_sizes: Vec<usize>,
    /// Fragments with at least one match, per species.
    pub anchored_h: usize,
    /// Fragments with at least one match, M side.
    pub anchored_m: usize,
    /// Fraction of H regions covered by matched sites.
    pub h_coverage: f64,
    /// Fraction of M regions covered by matched sites.
    pub m_coverage: f64,
    /// Size of the largest island ("N-best scaffold").
    pub largest_island: usize,
}

/// Compute statistics; fails iff the solution is inconsistent.
pub fn solution_stats(inst: &Instance, s: &MatchSet) -> Result<SolutionStats, Inconsistency> {
    let report = check_consistency(inst, s)?;
    let mut island_sizes: Vec<usize> = report.islands.iter().map(|i| i.fragments.len()).collect();
    island_sizes.sort_unstable_by(|a, b| b.cmp(a));

    let mut full_matches = 0;
    let mut border_matches = 0;
    for (id, _) in s.iter() {
        match report.kinds[id] {
            MatchKind::Full { .. } => full_matches += 1,
            MatchKind::Border { .. } => border_matches += 1,
        }
    }

    let anchored = |species: Species| -> usize {
        inst.frag_ids(species)
            .filter(|&f| s.iter().any(|(_, m)| m.site_on(f).is_some()))
            .count()
    };
    let coverage = |species: Species| -> f64 {
        let total: usize = inst.frag_ids(species).map(|f| inst.frag_len(f)).sum();
        if total == 0 {
            return 1.0;
        }
        let covered: usize = s
            .iter()
            .filter_map(|(_, m)| m.site_on_species(species))
            .map(|site| site.len())
            .sum();
        covered as f64 / total as f64
    };

    Ok(SolutionStats {
        score: s.total_score(),
        matches: s.len(),
        full_matches,
        border_matches,
        islands: report.islands.len(),
        largest_island: island_sizes.first().copied().unwrap_or(0),
        island_sizes,
        anchored_h: anchored(Species::H),
        anchored_m: anchored(Species::M),
        h_coverage: coverage(Species::H),
        m_coverage: coverage(Species::M),
    })
}

impl std::fmt::Display for SolutionStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "score            : {}", self.score)?;
        writeln!(
            f,
            "matches          : {} ({} full, {} border)",
            self.matches, self.full_matches, self.border_matches
        )?;
        writeln!(
            f,
            "islands          : {} (largest {} fragments; sizes {:?})",
            self.islands, self.largest_island, self.island_sizes
        )?;
        writeln!(f, "anchored H frags : {}", self.anchored_h)?;
        writeln!(f, "anchored M frags : {}", self.anchored_m)?;
        writeln!(
            f,
            "region coverage  : H {:.1}%, M {:.1}%",
            self.h_coverage * 100.0,
            self.m_coverage * 100.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr_improve;
    use fragalign_align::ScoreOracle;
    use fragalign_model::instance::paper_example;

    #[test]
    fn stats_of_the_paper_optimum() {
        let inst = paper_example();
        let res = csr_improve(&ScoreOracle::new(&inst), false);
        let stats = solution_stats(&inst, &res.matches).unwrap();
        assert_eq!(stats.score, 11);
        assert!(stats.matches >= 2);
        assert_eq!(stats.full_matches + stats.border_matches, stats.matches);
        assert!(stats.islands >= 1);
        assert!(stats.h_coverage > 0.5);
        assert!(stats.island_sizes.iter().sum::<usize>() >= stats.largest_island);
        let rendered = stats.to_string();
        assert!(rendered.contains("score"));
    }

    #[test]
    fn empty_solution_stats() {
        let inst = paper_example();
        let stats = solution_stats(&inst, &fragalign_model::MatchSet::new()).unwrap();
        assert_eq!(stats.score, 0);
        assert_eq!(stats.islands, 0);
        assert_eq!(stats.anchored_h, 0);
        assert_eq!(stats.h_coverage, 0.0);
    }
}
