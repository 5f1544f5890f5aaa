//! Instance generation.

use fragalign_align::dna::{best_local_score, reverse_complement, DnaParams};
use fragalign_model::{Alphabet, Fragment, Instance, Score, ScoreTable, Sym};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

/// Simulator parameters.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Number of conserved regions in the ancestral sequence.
    pub regions: usize,
    /// Target fragments for the H species (contigs).
    pub h_frags: usize,
    /// Target fragments for the M species.
    pub m_frags: usize,
    /// Probability that a region is missing from a species' copy
    /// (lineage-specific loss / unsequenced gap).
    pub loss_rate: f64,
    /// Probability that an M fragment is emitted reverse-complemented.
    pub flip_rate: f64,
    /// Number of random adjacent-region transpositions applied to the
    /// M copy (evolutionary shuffling producing Fig. 3 conflicts).
    pub shuffles: usize,
    /// Number of spurious cross-pairs added to σ (wrong alignments).
    pub spurious: usize,
    /// Base score of a true conserved-pair alignment.
    pub base_score: Score,
    /// ± jitter applied to true pair scores.
    pub score_jitter: Score,
    /// Derive σ from simulated DNA instead of the abstract model.
    pub dna: Option<DnaMode>,
    /// Number of chimeric joins: after fragmentation, swap the tails
    /// of two random M contigs. This models incorrectly assembled
    /// contigs — the third inconsistency source the paper names
    /// ("when contigs are incorrectly assembled from the shorter
    /// segments").
    pub chimeras: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            regions: 24,
            h_frags: 4,
            m_frags: 4,
            loss_rate: 0.1,
            flip_rate: 0.5,
            shuffles: 1,
            spurious: 2,
            base_score: 100,
            score_jitter: 30,
            dna: None,
            chimeras: 0,
            seed: 0,
        }
    }
}

/// Nucleotide-level σ derivation parameters.
#[derive(Clone, Copy, Debug)]
pub struct DnaMode {
    /// Region length in basepairs.
    pub region_len: usize,
    /// Per-base mutation probability between the species' copies.
    pub mutation_rate: f64,
    /// Alignment scoring.
    pub params: DnaParams,
}

impl Default for DnaMode {
    fn default() -> Self {
        DnaMode {
            region_len: 60,
            mutation_rate: 0.1,
            params: DnaParams::default(),
        }
    }
}

/// What actually happened during generation, for recovery scoring.
#[derive(Clone, Debug)]
pub struct GroundTruth {
    /// For each H fragment index: (ancestral start rank, emitted reversed).
    pub h_layout: Vec<(usize, bool)>,
    /// For each M fragment index: (ancestral start rank, emitted reversed).
    pub m_layout: Vec<(usize, bool)>,
    /// True (H region, M region) homologous pairs present in σ.
    pub true_pairs: Vec<(Sym, Sym)>,
}

/// A generated instance plus its ground truth.
#[derive(Clone, Debug)]
pub struct SimInstance {
    /// The CSR instance handed to solvers.
    pub instance: Instance,
    /// The generation record.
    pub truth: GroundTruth,
}

fn random_dna(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| b"ACGT"[rng.random_range(0..4usize)])
        .collect()
}

fn mutate(rng: &mut StdRng, seq: &[u8], rate: f64) -> Vec<u8> {
    seq.iter()
        .map(|&b| {
            if rng.random_bool(rate) {
                b"ACGT"[rng.random_range(0..4usize)]
            } else {
                b
            }
        })
        .collect()
}

/// Cut `items` into `pieces` non-empty contiguous chunks.
pub(crate) fn cut_into(rng: &mut StdRng, len: usize, pieces: usize) -> Vec<(usize, usize)> {
    let pieces = pieces.min(len).max(1);
    let mut cuts: Vec<usize> = (1..len).collect();
    cuts.shuffle(rng);
    let mut chosen: Vec<usize> = cuts.into_iter().take(pieces - 1).collect();
    chosen.push(0);
    chosen.push(len);
    chosen.sort_unstable();
    chosen.windows(2).map(|w| (w[0], w[1])).collect()
}

/// Generate a synthetic instance.
pub fn generate(config: &SimConfig) -> SimInstance {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut alphabet = Alphabet::new();
    let n = config.regions;

    // Ancestral regions 0..n; each species sees a subset, named
    // species-locally (an H region and its M counterpart are distinct
    // symbols scored by σ, as in the paper).
    let h_syms: Vec<Sym> = (0..n).map(|i| alphabet.sym(&format!("h{i}"))).collect();
    let m_syms: Vec<Sym> = (0..n).map(|i| alphabet.sym(&format!("m{i}"))).collect();

    let keep = |rng: &mut StdRng, rate: f64| -> Vec<bool> {
        (0..n).map(|_| !rng.random_bool(rate)).collect()
    };
    let h_keep = keep(&mut rng, config.loss_rate);
    let m_keep = keep(&mut rng, config.loss_rate);

    // M copy order: ancestral order with local shuffles.
    let mut m_order: Vec<usize> = (0..n).collect();
    for _ in 0..config.shuffles {
        if n >= 2 {
            let i = rng.random_range(0..n - 1);
            m_order.swap(i, i + 1);
        }
    }

    // σ: true pairs (+ jitter), then spurious pairs.
    let mut sigma = ScoreTable::new();
    let mut true_pairs = Vec::new();
    let mut dna_h: Vec<Vec<u8>> = Vec::new();
    let mut dna_m: Vec<Vec<u8>> = Vec::new();
    if let Some(dna) = &config.dna {
        for i in 0..n {
            let ancestral = random_dna(&mut rng, dna.region_len);
            dna_h.push(mutate(&mut rng, &ancestral, dna.mutation_rate / 2.0));
            dna_m.push(mutate(&mut rng, &ancestral, dna.mutation_rate / 2.0));
            let _ = i;
        }
    }
    for i in 0..n {
        if !(h_keep[i] && m_keep[i]) {
            continue;
        }
        let score = match &config.dna {
            None => {
                let jitter = if config.score_jitter > 0 {
                    rng.random_range(-config.score_jitter..=config.score_jitter)
                } else {
                    0
                };
                (config.base_score + jitter).max(1)
            }
            Some(dna) => {
                let (s, _) = best_local_score(&dna_h[i], &dna_m[i], dna.params);
                s.max(1)
            }
        };
        sigma.set(h_syms[i], m_syms[i], score);
        true_pairs.push((h_syms[i], m_syms[i]));
    }
    for _ in 0..config.spurious {
        if n < 2 {
            break;
        }
        let i = rng.random_range(0..n);
        let mut j = rng.random_range(0..n);
        if i == j {
            j = (j + 1) % n;
        }
        let score = match &config.dna {
            None => (config.base_score / 3).max(1),
            Some(dna) => {
                // Align unrelated regions; take whatever noise floor the
                // aligner reports, at least 1.
                let (s, _) =
                    best_local_score(&dna_h[i], &reverse_complement(&dna_m[j]), dna.params);
                s.max(1)
            }
        };
        let flip = rng.random_bool(0.5);
        let m = if flip {
            m_syms[j].reversed()
        } else {
            m_syms[j]
        };
        sigma.set(h_syms[i], m, score);
    }

    // Fragment each species' surviving regions into contigs, then
    // shuffle contig order and flip some contigs.
    let build_side = |rng: &mut StdRng,
                      order: &[usize],
                      keeps: &[bool],
                      syms: &[Sym],
                      frags: usize,
                      flip_rate: f64,
                      prefix: &str|
     -> (Vec<Fragment>, Vec<(usize, bool)>) {
        let surviving: Vec<usize> = order.iter().copied().filter(|&i| keeps[i]).collect();
        let chunks = cut_into(rng, surviving.len().max(1), frags);
        let mut out = Vec::new();
        let mut layout = Vec::new();
        for (k, &(lo, hi)) in chunks.iter().enumerate() {
            let mut regions: Vec<Sym> = surviving
                .get(lo..hi.min(surviving.len()))
                .unwrap_or(&[])
                .iter()
                .map(|&i| syms[i])
                .collect();
            if regions.is_empty() {
                regions = vec![syms[0]]; // degenerate tiny genomes
            }
            let flipped = rng.random_bool(flip_rate);
            if flipped {
                fragalign_model::symbol::reverse_word_in_place(&mut regions);
            }
            out.push(Fragment::new(format!("{prefix}{k}"), regions));
            layout.push((lo, flipped));
        }
        // Shuffle the emission order (assemblies output contigs in
        // arbitrary order); keep layout aligned with the new order.
        let mut idx: Vec<usize> = (0..out.len()).collect();
        idx.shuffle(rng);
        let out2: Vec<Fragment> = idx.iter().map(|&i| out[i].clone()).collect();
        let layout2: Vec<(usize, bool)> = idx.iter().map(|&i| layout[i]).collect();
        (out2, layout2)
    };

    let h_order: Vec<usize> = (0..n).collect();
    let (h, h_layout) = build_side(
        &mut rng,
        &h_order,
        &h_keep,
        &h_syms,
        config.h_frags,
        0.0, // by convention the H assembly is the reference orientation
        "h",
    );
    let (mut m, m_layout) = build_side(
        &mut rng,
        &m_order,
        &m_keep,
        &m_syms,
        config.m_frags,
        config.flip_rate,
        "m",
    );

    // Misassembly: swap the tails of two random M contigs (chimeric
    // joins). Ground-truth layout for chimeric contigs keeps the
    // original start rank of the head piece; order metrics treat the
    // swapped tail as noise, which is exactly what a real chimera does
    // to a scaffolder.
    for _ in 0..config.chimeras {
        if m.len() < 2 {
            break;
        }
        let a = rng.random_range(0..m.len());
        let mut b = rng.random_range(0..m.len());
        if a == b {
            b = (b + 1) % m.len();
        }
        if m[a].len() < 2 || m[b].len() < 2 {
            continue;
        }
        let cut_a = 1 + rng.random_range(0..m[a].len() - 1);
        let cut_b = 1 + rng.random_range(0..m[b].len() - 1);
        let tail_a: Vec<_> = m[a].regions.split_off(cut_a);
        let tail_b: Vec<_> = m[b].regions.split_off(cut_b);
        m[a].regions.extend(tail_b);
        m[b].regions.extend(tail_a);
        m[a].name.push('!');
        m[b].name.push('!');
    }

    SimInstance {
        instance: Instance {
            h,
            m,
            sigma,
            alphabet,
        },
        truth: GroundTruth {
            h_layout,
            m_layout,
            true_pairs,
        },
    }
}

/// Generate a batch of `count` instances: the shared `base` config
/// with seeds `base.seed, base.seed + 1, …`. Instance `i` of a batch
/// is identical to a lone [`generate`] call at seed `base.seed + i`,
/// so batch workloads are reproducible piecewise.
pub fn gen_batch(base: &SimConfig, count: usize) -> Vec<SimInstance> {
    (0..count)
        .map(|i| {
            generate(&SimConfig {
                seed: base.seed.wrapping_add(i as u64),
                ..base.clone()
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gen_batch_matches_piecewise_generation() {
        let base = SimConfig {
            regions: 12,
            seed: 40,
            ..SimConfig::default()
        };
        let batch = gen_batch(&base, 3);
        assert_eq!(batch.len(), 3);
        for (i, sim) in batch.iter().enumerate() {
            let lone = generate(&SimConfig {
                seed: 40 + i as u64,
                ..base.clone()
            });
            assert_eq!(sim.instance.h, lone.instance.h, "instance {i}");
            assert_eq!(sim.instance.m, lone.instance.m, "instance {i}");
        }
        // Different seeds actually vary the data.
        assert!(
            batch[0].instance.h != batch[1].instance.h
                || batch[0].instance.m != batch[1].instance.m
        );
    }

    #[test]
    fn deterministic_for_seed() {
        let c = SimConfig::default();
        let a = generate(&c);
        let b = generate(&c);
        assert_eq!(a.instance.h, b.instance.h);
        assert_eq!(a.instance.m, b.instance.m);
        assert_eq!(a.truth.true_pairs, b.truth.true_pairs);
    }

    #[test]
    fn seeds_differ() {
        let a = generate(&SimConfig::default());
        let b = generate(&SimConfig {
            seed: 1,
            ..SimConfig::default()
        });
        assert!(a.instance.h != b.instance.h || a.instance.m != b.instance.m);
    }

    #[test]
    fn shapes_respect_config() {
        let c = SimConfig {
            regions: 30,
            h_frags: 5,
            m_frags: 3,
            ..SimConfig::default()
        };
        let s = generate(&c);
        assert_eq!(s.instance.h.len(), 5);
        assert_eq!(s.instance.m.len(), 3);
        let h_total: usize = s.instance.h.iter().map(|f| f.len()).sum();
        assert!(h_total <= 30);
        assert!(
            h_total >= 20,
            "loss rate 0.1 keeps most regions, got {h_total}"
        );
    }

    #[test]
    fn true_pairs_scored_positive() {
        let s = generate(&SimConfig::default());
        for &(a, b) in &s.truth.true_pairs {
            assert!(s.instance.sigma.score(a, b) > 0);
        }
    }

    #[test]
    fn no_loss_no_shuffle_keeps_all_regions() {
        let c = SimConfig {
            loss_rate: 0.0,
            shuffles: 0,
            spurious: 0,
            regions: 12,
            h_frags: 3,
            m_frags: 3,
            ..SimConfig::default()
        };
        let s = generate(&c);
        let h_total: usize = s.instance.h.iter().map(|f| f.len()).sum();
        let m_total: usize = s.instance.m.iter().map(|f| f.len()).sum();
        assert_eq!(h_total, 12);
        assert_eq!(m_total, 12);
        assert_eq!(s.truth.true_pairs.len(), 12);
    }

    #[test]
    fn dna_mode_produces_positive_sigma() {
        let c = SimConfig {
            regions: 8,
            h_frags: 2,
            m_frags: 2,
            dna: Some(DnaMode::default()),
            loss_rate: 0.0,
            ..SimConfig::default()
        };
        let s = generate(&c);
        // true pairs should align far above the noise floor
        for &(a, b) in &s.truth.true_pairs {
            assert!(s.instance.sigma.score(a, b) > 40, "weak true pair");
        }
    }

    #[test]
    fn chimeras_swap_tails_but_preserve_regions() {
        let base = SimConfig {
            regions: 16,
            m_frags: 4,
            loss_rate: 0.0,
            ..SimConfig::default()
        };
        let clean = generate(&base);
        let chim = generate(&SimConfig {
            chimeras: 2,
            ..base
        });
        let count = |s: &SimInstance| -> usize { s.instance.m.iter().map(|f| f.len()).sum() };
        // Chimeric joins move regions between contigs, never lose them.
        assert_eq!(count(&clean), count(&chim));
        // Some contig is marked chimeric.
        assert!(chim.instance.m.iter().any(|f| f.name.ends_with('!')));
        // The instance still solves without panicking.
        let sol =
            fragalign_core::solve_four_approx(&fragalign_align::ScoreOracle::new(&chim.instance));
        fragalign_model::check_consistency(&chim.instance, &sol).unwrap();
    }

    #[test]
    fn cut_into_partitions() {
        let mut rng = StdRng::seed_from_u64(5);
        let chunks = cut_into(&mut rng, 10, 3);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0].0, 0);
        assert_eq!(chunks.last().unwrap().1, 10);
        for w in chunks.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }
}
