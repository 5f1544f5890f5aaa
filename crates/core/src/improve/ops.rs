//! Primitive solution operations: site preparation, plugging,
//! detaching, and the TPA(B, S) subroutine of §4.2.

use fragalign_align::ScoreOracle;
use fragalign_isp::{solve_tpa, Interval, IspInstance};
use fragalign_model::{FragId, Instance, Match, MatchSet, Score, Site, Species};
use std::collections::HashSet;

/// A site could not be prepared because it is hidden by a matched site
/// (Definition 5: only non-hidden sites are preparable).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CannotPrepare {
    /// The site that could not be prepared.
    pub site: Site,
}

impl std::fmt::Display for CannotPrepare {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "site {:?} is hidden by the current solution", self.site)
    }
}

impl std::error::Error for CannotPrepare {}

/// Why an attempt could not be applied to the current solution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApplyError {
    /// A container site was hidden and could not be prepared.
    Prepare(CannotPrepare),
    /// The attempt's border match would close a cycle of border
    /// matches (consistency rule: border matches form simple paths),
    /// which no conjecture pair can realise.
    WouldCloseBorderCycle {
        /// H-side fragment of the rejected border match.
        h: FragId,
        /// M-side fragment of the rejected border match.
        m: FragId,
    },
}

impl From<CannotPrepare> for ApplyError {
    fn from(e: CannotPrepare) -> Self {
        ApplyError::Prepare(e)
    }
}

impl std::fmt::Display for ApplyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApplyError::Prepare(e) => e.fmt(f),
            ApplyError::WouldCloseBorderCycle { h, m } => {
                write!(f, "border match {h:?}~{m:?} would close a border cycle")
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// Whether fragments `a` and `b` are already connected by a path of
/// border matches in `set`. Creating one more border match between
/// them would then violate the forest invariant (check_consistency
/// rule 5), so [`apply_attempt`] refuses such attempts up front.
fn border_connected(set: &MatchSet, inst: &Instance, a: FragId, b: FragId) -> bool {
    let mut index: std::collections::HashMap<FragId, usize> =
        std::collections::HashMap::from([(a, 0), (b, 1)]);
    for (_, m) in set.iter() {
        for f in [m.h.frag, m.m.frag] {
            let next = index.len();
            index.entry(f).or_insert(next);
        }
    }
    let mut dsu = fragalign_model::Dsu::new(index.len());
    for (_, m) in set.iter() {
        let kind = m.kind(inst.frag_len(m.h.frag), inst.frag_len(m.m.frag));
        if matches!(kind, Some(fragalign_model::MatchKind::Border { .. })) {
            dsu.union(index[&m.h.frag], index[&m.m.frag]);
        }
    }
    dsu.find(0) == dsu.find(1)
}

/// Truncate a score to a multiple of `quantum` (§4.1 scaling); a
/// quantum of 1 (or 0) is the identity.
#[inline]
pub fn trunc(score: Score, quantum: Score) -> Score {
    if quantum <= 1 {
        score
    } else {
        score.div_euclid(quantum) * quantum
    }
}

/// Truncated total score of a match set.
pub fn trunc_total(set: &MatchSet, quantum: Score) -> Score {
    set.iter().map(|(_, m)| trunc(m.score, quantum)).sum()
}

/// Truncated contribution `Cb(f, S)`.
pub fn cb_trunc(set: &MatchSet, frag: FragId, quantum: Score) -> Score {
    set.iter()
        .filter(|(_, m)| m.site_on(frag).is_some())
        .map(|(_, m)| trunc(m.score, quantum))
        .sum()
}

/// Order two opposite-species sites as (H site, M site).
fn hm(a: Site, b: Site) -> (Site, Site) {
    debug_assert_ne!(a.frag.species, b.frag.species);
    if a.frag.species == Species::H {
        (a, b)
    } else {
        (b, a)
    }
}

/// Shrink one side of a match to `piece` (the part surviving a
/// preparation cut), rescoring through the oracle. Returns `None` when
/// the shrunken match is no longer structurally realisable, in which
/// case the caller removes it entirely (the paper's Fig. 9(b)
/// "preparation detaches g from f1" case).
fn try_shrink(oracle: &ScoreOracle<'_>, mat: &Match, on: FragId, piece: Site) -> Option<Match> {
    let inst = oracle.instance();
    let (h, m) = if mat.h.frag == on {
        (piece, mat.m)
    } else {
        (mat.h, piece)
    };
    let candidate_kind = Match {
        h,
        m,
        orient: mat.orient,
        score: 0,
    }
    .kind(inst.frag_len(h.frag), inst.frag_len(m.frag))?;
    match candidate_kind {
        fragalign_model::MatchKind::Full { full_side } => {
            let (plug, container) = if full_side == Species::H {
                (h, m)
            } else {
                (m, h)
            };
            Some(full_match(oracle, plug.frag, container))
        }
        // `kind` found two strict border sites: a staircase.
        fragalign_model::MatchKind::Border { .. } => Some(staircase(oracle, h, m)),
    }
}

/// Prepare a site (§4.2): make `site` free of matches so something can
/// be plugged there. Matches whose site on the fragment is contained
/// in `site` are removed; partially overlapping matches are restricted
/// to the surviving piece and rescored, or removed when the restricted
/// match would be structurally invalid. Fails iff `site` is hidden.
///
/// Returns the sites freed on *other* fragments by removed matches
/// (excluding freed full sites — the corresponding fragments are
/// simply unmatched now and re-enter TPA as jobs).
pub fn prepare_site(
    set: &mut MatchSet,
    site: Site,
    oracle: &ScoreOracle<'_>,
) -> Result<Vec<Site>, CannotPrepare> {
    let inst = oracle.instance();
    let mut removals: Vec<usize> = Vec::new();
    let mut rewrites: Vec<(usize, Match)> = Vec::new();
    let mut freed: Vec<Site> = Vec::new();
    for (id, m) in set.iter() {
        let Some(my) = m.site_on(site.frag) else {
            continue;
        };
        if !my.overlaps(&site) {
            continue;
        }
        if site.hidden_by(&my) {
            return Err(CannotPrepare { site });
        }
        let other = m.other_site(site.frag).expect("cross-species match");
        if my.contained_in(&site) {
            removals.push(id);
            if !other.is_full(inst.frag_len(other.frag)) {
                freed.push(other);
            }
            continue;
        }
        let pieces = my.minus(&site);
        debug_assert_eq!(pieces.len(), 1, "non-hidden overlap leaves one piece");
        match try_shrink(oracle, m, site.frag, pieces[0]) {
            Some(new_match) => rewrites.push((id, new_match)),
            None => {
                removals.push(id);
                if !other.is_full(inst.frag_len(other.frag)) {
                    freed.push(other);
                }
            }
        }
    }
    for (id, new_match) in rewrites {
        *set.get_mut(id).expect("id valid") = new_match;
    }
    set.remove_many(&removals);
    Ok(freed)
}

/// Remove every match touching `frag`, returning the sites freed on
/// other fragments (non-full sites only, as in [`prepare_site`]).
pub fn detach_fragment(set: &mut MatchSet, frag: FragId, oracle: &ScoreOracle<'_>) -> Vec<Site> {
    let inst = oracle.instance();
    let ids = set.matches_on(frag);
    let mut freed = Vec::new();
    for &id in &ids {
        let m = &set.as_slice()[id];
        let other = m.other_site(frag).expect("cross-species match");
        if !other.is_full(inst.frag_len(other.frag)) {
            freed.push(other);
        }
    }
    set.remove_many(&ids);
    freed
}

/// The full match of the whole fragment `plug` into `container`, with
/// free orientation. `MS(plug, container)` is read from the interval
/// table of `plug` against the container's fragment, the table that
/// enumeration and the TPA refill have already filled.
fn full_match(oracle: &ScoreOracle<'_>, plug: FragId, container: Site) -> Match {
    let full = Site::full(plug, oracle.instance().frag_len(plug));
    let (h, m) = hm(full, container);
    let (score, orient) = oracle
        .interval_table(plug, container.frag)
        .get(container.lo, container.hi);
    Match::new(h, m, orient, score)
}

/// Create the full match plugging `plug` (whole fragment) into
/// `container_site`, scored by the oracle with free orientation.
pub fn plug_full(set: &mut MatchSet, plug: FragId, container_site: Site, oracle: &ScoreOracle<'_>) {
    set.push(full_match(oracle, plug, container_site));
}

/// The staircase of border sites `h` and `m`, scored and oriented by
/// their fragment pair's border table. Panics unless both sites are
/// strict prefixes or suffixes.
fn staircase(oracle: &ScoreOracle<'_>, h: Site, m: Site) -> Match {
    let (score, orient) = oracle
        .border_table(h.frag, m.frag)
        .staircase(h, m)
        .unwrap_or_else(|| panic!("{h:?} ~ {m:?} is not a pair of border sites"));
    Match::new(h, m, orient, score)
}

/// Create a border (staircase) match between two border sites; the
/// orientation is forced by the ends.
pub fn make_border(set: &mut MatchSet, a: Site, b: Site, oracle: &ScoreOracle<'_>) {
    let (h, m) = hm(a, b);
    set.push(staircase(oracle, h, m));
}

/// The TPA(B, S) subroutine of §4.2: refill the free `zones` with full
/// matches chosen by the two-phase interval-selection algorithm.
///
/// * `zones` — disjoint sites, all on fragments of one species; they
///   are sanitised against the current solution (portions already
///   matched are subtracted) so callers can pass freed sites
///   optimistically.
/// * `exclude` — fragments that must not be used as plugs (e.g. the
///   fragment just plugged by the surrounding improvement attempt).
/// * profits are `MS(f, zone interval) − Cb(f, S)` (both truncated
///   under `quantum`), exactly the profit function of §4.2.
///
/// Selected candidates detach their fragment from its old matches and
/// plug it into the chosen interval.
pub fn tpa_fill(
    set: &mut MatchSet,
    zones: &[Site],
    exclude: &HashSet<FragId>,
    oracle: &ScoreOracle<'_>,
    quantum: Score,
) {
    let inst = oracle.instance();
    if zones.is_empty() {
        return;
    }
    let zone_species = zones[0].frag.species;
    debug_assert!(zones.iter().all(|z| z.frag.species == zone_species));

    // Sanitise: subtract currently matched sites from each zone.
    let by_frag = set.sites_by_fragment();
    let mut clean: Vec<Site> = Vec::new();
    for &z in zones {
        let mut pieces = vec![z];
        if let Some(sites) = by_frag.get(&z.frag) {
            for &(_, s) in sites {
                let mut next = Vec::new();
                for p in pieces {
                    next.extend(p.minus(&s));
                }
                pieces = next;
            }
        }
        clean.extend(pieces);
    }
    // Merge duplicates/overlaps between passed zones defensively.
    clean.sort_by_key(|s| (s.frag, s.lo, s.hi));
    clean.dedup();
    if clean.is_empty() {
        return;
    }

    let plug_species = zone_species.other();
    let jobs: Vec<FragId> = inst
        .frag_ids(plug_species)
        .filter(|f| !exclude.contains(f))
        .collect();
    if jobs.is_empty() {
        return;
    }

    // Cb(f, S) per job and the (job, zone) interval tables, each read
    // once.
    let cbs: Vec<Score> = jobs.iter().map(|&f| cb_trunc(set, f, quantum)).collect();
    let tables: Vec<Vec<_>> = jobs
        .iter()
        .map(|&f| {
            clean
                .iter()
                .map(|z| oracle.interval_table(f, z.frag))
                .collect()
        })
        .collect();

    // ISP instance: zone k occupies coordinates [base_k, base_k + len),
    // with a gap so intervals cannot span zones. Candidates are pushed
    // in TPA's processing order (zone, e, d, job) — that is (hi, lo,
    // job), unique per candidate — so its sort finds one sorted run.
    let mut isp = IspInstance::new(jobs.len());
    // tag indexes (zone index, d, e).
    let mut tags: Vec<(usize, usize, usize)> = Vec::new();
    let mut base: i64 = 0;
    for (zi, z) in clean.iter().enumerate() {
        for e in (z.lo + 1)..=z.hi {
            let hi = base + (e - z.lo) as i64;
            for d in z.lo..e {
                let lo = base + (d - z.lo) as i64;
                for (ji, job_tables) in tables.iter().enumerate() {
                    let (ms, _) = job_tables[zi].get(d, e);
                    let profit = trunc(ms, quantum) - cbs[ji];
                    if profit > 0 {
                        isp.push(ji, Interval::new(lo, hi), profit, tags.len());
                        tags.push((zi, d, e));
                    }
                }
            }
        }
        base += z.len() as i64 + 1;
    }
    let selection = solve_tpa(&isp);
    for c in &selection.chosen {
        let (zi, d, e) = tags[c.tag];
        let f = jobs[c.job];
        detach_fragment(set, f, oracle);
        plug_full(set, f, Site::new(clean[zi].frag, d, e), oracle);
    }
}

/// Collect freed sites into per-species zone lists.
pub fn split_freed_by_species(freed: &[Site]) -> (Vec<Site>, Vec<Site>) {
    let mut h = Vec::new();
    let mut m = Vec::new();
    for &s in freed {
        match s.frag.species {
            Species::H => h.push(s),
            Species::M => m.push(s),
        }
    }
    (h, m)
}

/// Apply one improvement attempt to `set`. On success `set` holds the
/// attempt's result; the caller decides whether to commit by comparing
/// (truncated) total scores. Preparation and the border-cycle guard can
/// fail partway through a multi-step attempt, so on `Err` `set` is
/// left in an unspecified state: apply to a copy you can drop.
pub fn apply_attempt(
    set: &mut MatchSet,
    attempt: &super::Attempt,
    oracle: &ScoreOracle<'_>,
    quantum: Score,
) -> Result<(), ApplyError> {
    use super::Attempt;
    match attempt {
        Attempt::I1 {
            plug,
            target,
            container,
        } => {
            let freed1 = prepare_site(set, *container, oracle)?;
            let freed2 = detach_fragment(set, *plug, oracle);
            plug_full(set, *plug, *target, oracle);
            let exclude: HashSet<FragId> = [*plug].into_iter().collect();
            // Step 3: TPA on the container leftovers.
            tpa_fill(set, &container.minus(target), &exclude, oracle, quantum);
            // Step 4: TPA on sites freed by preparation and, beyond the
            // paper's step, by detaching the plug, grouped per species.
            let (zh, zm) = split_freed_by_species(
                &freed1
                    .iter()
                    .chain(freed2.iter())
                    .copied()
                    .collect::<Vec<_>>(),
            );
            tpa_fill(set, &zm, &exclude, oracle, quantum);
            tpa_fill(set, &zh, &exclude, oracle, quantum);
            Ok(())
        }
        Attempt::I2 {
            h_site,
            m_site,
            h_container,
            m_container,
        } => {
            let freed_h = prepare_site(set, *h_container, oracle)?;
            let freed_m = prepare_site(set, *m_container, oracle)?;
            if border_connected(set, oracle.instance(), h_site.frag, m_site.frag) {
                return Err(ApplyError::WouldCloseBorderCycle {
                    h: h_site.frag,
                    m: m_site.frag,
                });
            }
            make_border(set, *h_site, *m_site, oracle);
            let exclude: HashSet<FragId> = [h_site.frag, m_site.frag].into_iter().collect();
            // M-side zones: container leftovers on the M fragment plus
            // freed M sites; then symmetrically for H.
            let (fh, fm) = split_freed_by_species(
                &freed_h
                    .iter()
                    .chain(freed_m.iter())
                    .copied()
                    .collect::<Vec<_>>(),
            );
            let mut zones_m = m_container.minus(m_site);
            zones_m.extend(fm);
            tpa_fill(set, &zones_m, &exclude, oracle, quantum);
            let mut zones_h = h_container.minus(h_site);
            zones_h.extend(fh);
            tpa_fill(set, &zones_h, &exclude, oracle, quantum);
            Ok(())
        }
        Attempt::I3 { first, second } => {
            // Two coordinated I2 bundles (break a 2-island, re-match
            // both multiple fragments to new partners).
            let mut freed_all: Vec<Site> = Vec::new();
            for b in [first, second] {
                freed_all.extend(prepare_site(set, b.h_container, oracle)?);
                freed_all.extend(prepare_site(set, b.m_container, oracle)?);
            }
            for b in [first, second] {
                // Re-check per bundle: the first border changes border
                // connectivity for the second.
                if border_connected(set, oracle.instance(), b.h_site.frag, b.m_site.frag) {
                    return Err(ApplyError::WouldCloseBorderCycle {
                        h: b.h_site.frag,
                        m: b.m_site.frag,
                    });
                }
                make_border(set, b.h_site, b.m_site, oracle);
            }
            let exclude: HashSet<FragId> = [
                first.h_site.frag,
                first.m_site.frag,
                second.h_site.frag,
                second.m_site.frag,
            ]
            .into_iter()
            .collect();
            let (fh, fm) = split_freed_by_species(&freed_all);
            let mut zones_m: Vec<Site> = Vec::new();
            let mut zones_h: Vec<Site> = Vec::new();
            for b in [first, second] {
                zones_m.extend(b.m_container.minus(&b.m_site));
                zones_h.extend(b.h_container.minus(&b.h_site));
            }
            zones_m.extend(fm);
            zones_h.extend(fh);
            tpa_fill(set, &zones_m, &exclude, oracle, quantum);
            tpa_fill(set, &zones_h, &exclude, oracle, quantum);
            Ok(())
        }
    }
}
