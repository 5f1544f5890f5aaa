//! Maximum independent set.
//!
//! The hardness experiment (`exp_reductions`, T6) needs exact MIS values
//! on small 3-regular graphs to verify the Theorem 2 correspondence
//! `|U*| = 5n + |W*|`. The exact solver is a branch-and-bound with the
//! standard max-degree branching and a `remaining/(1+min_degree)`-free
//! simple bound, adequate for a few dozen vertices.

use crate::graph::Graph;

/// Whether `set` is an independent set of `g`.
pub fn is_independent_set(g: &Graph, set: &[usize]) -> bool {
    for (i, &u) in set.iter().enumerate() {
        for &v in &set[i + 1..] {
            if g.has_edge(u, v) {
                return false;
            }
        }
    }
    true
}

/// Exact maximum independent set via branch and bound. Panics on
/// graphs with more than 64 vertices (use the greedy for those).
pub fn max_independent_set(g: &Graph) -> Vec<usize> {
    assert!(
        g.len() <= 64,
        "exact MIS is exponential; {} vertices",
        g.len()
    );
    let n = g.len();
    // Bitmask adjacency for speed.
    let adj: Vec<u64> = (0..n)
        .map(|u| g.neighbors(u).iter().fold(0u64, |m, &v| m | (1 << v)))
        .collect();

    fn bits(mut m: u64) -> Vec<usize> {
        let mut v = Vec::new();
        while m != 0 {
            let b = m.trailing_zeros() as usize;
            v.push(b);
            m &= m - 1;
        }
        v
    }

    struct Ctx<'a> {
        adj: &'a [u64],
        best: u32,
        best_set: u64,
    }

    fn rec(ctx: &mut Ctx<'_>, avail: u64, chosen: u64) {
        let count = chosen.count_ones();
        if count > ctx.best {
            ctx.best = count;
            ctx.best_set = chosen;
        }
        if avail == 0 || count + avail.count_ones() <= ctx.best {
            return;
        }
        // Pick the available vertex of maximum available-degree.
        let mut pick = usize::MAX;
        let mut pick_deg = 0i32;
        let mut m = avail;
        while m != 0 {
            let v = m.trailing_zeros() as usize;
            m &= m - 1;
            let deg = (ctx.adj[v] & avail).count_ones() as i32;
            if pick == usize::MAX || deg > pick_deg {
                pick = v;
                pick_deg = deg;
            }
        }
        let v = pick;
        // Degree-0/1 vertices are always safe to take greedily.
        if pick_deg == 0 {
            // All available vertices are isolated within avail.
            let take = chosen | avail;
            if take.count_ones() > ctx.best {
                ctx.best = take.count_ones();
                ctx.best_set = take;
            }
            return;
        }
        // Branch 1: include v.
        rec(ctx, avail & !(ctx.adj[v] | (1 << v)), chosen | (1 << v));
        // Branch 2: exclude v (then some neighbour of v is included in
        // an optimal extension, but the simple exclusion is correct).
        rec(ctx, avail & !(1 << v), chosen);
    }

    let mut ctx = Ctx {
        adj: &adj,
        best: 0,
        best_set: 0,
    };
    let avail = if n == 64 { u64::MAX } else { (1u64 << n) - 1 };
    rec(&mut ctx, avail, 0);
    let out = bits(ctx.best_set);
    debug_assert!(is_independent_set(g, &out));
    out
}

/// Min-degree greedy independent set: repeatedly take a vertex of
/// minimum remaining degree and delete its closed neighbourhood.
/// On 3-regular graphs this guarantees at least `n/4` vertices.
pub fn greedy_mis(g: &Graph) -> Vec<usize> {
    let n = g.len();
    let mut removed = vec![false; n];
    let mut degree: Vec<usize> = (0..n).map(|u| g.degree(u)).collect();
    let mut out = Vec::new();
    loop {
        let mut pick = usize::MAX;
        for u in 0..n {
            if !removed[u] && (pick == usize::MAX || degree[u] < degree[pick]) {
                pick = u;
            }
        }
        if pick == usize::MAX {
            break;
        }
        out.push(pick);
        removed[pick] = true;
        for &v in g.neighbors(pick) {
            if !removed[v] {
                removed[v] = true;
                for &w in g.neighbors(v) {
                    degree[w] = degree[w].saturating_sub(1);
                }
            }
        }
    }
    out.sort_unstable();
    debug_assert!(is_independent_set(g, &out));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::random_regular;

    #[test]
    fn independence_check() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(is_independent_set(&g, &[0, 2]));
        assert!(!is_independent_set(&g, &[0, 1]));
        assert!(is_independent_set(&g, &[]));
    }

    #[test]
    fn exact_on_known_graphs() {
        // Path P4: MIS = {0, 2} or {0, 3} or {1, 3}, size 2.
        let p4 = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(max_independent_set(&p4).len(), 2);
        // Cycle C5: size 2.
        let c5 = Graph::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(max_independent_set(&c5).len(), 2);
        // K4: size 1.
        let k4 = Graph::from_edges(4, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(max_independent_set(&k4).len(), 1);
        // Petersen graph: 3-regular, MIS = 4.
        let petersen = Graph::from_edges(
            10,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 0), // outer C5
                (5, 7),
                (7, 9),
                (9, 6),
                (6, 8),
                (8, 5), // inner pentagram
                (0, 5),
                (1, 6),
                (2, 7),
                (3, 8),
                (4, 9), // spokes
            ],
        );
        assert!(petersen.is_regular(3));
        assert_eq!(max_independent_set(&petersen).len(), 4);
        // Edgeless graph: everything.
        let e = Graph::new(6);
        assert_eq!(max_independent_set(&e).len(), 6);
    }

    #[test]
    fn exact_dominates_greedy_on_random_cubic() {
        for seed in 0..10 {
            let g = random_regular(14, 3, seed);
            let exact = max_independent_set(&g);
            let greedy = greedy_mis(&g);
            assert!(is_independent_set(&g, &exact));
            assert!(is_independent_set(&g, &greedy));
            assert!(exact.len() >= greedy.len(), "seed={seed}");
            // Greedy's n/4 guarantee on cubic graphs.
            assert!(greedy.len() >= g.len() / 4);
        }
    }

    #[test]
    fn brute_force_cross_check_small() {
        // Compare branch and bound against subset enumeration.
        for seed in 0..5 {
            let g = random_regular(10, 3, seed);
            let bb = max_independent_set(&g).len();
            let mut best = 0;
            for mask in 0u32..(1 << 10) {
                let set: Vec<usize> = (0..10).filter(|&i| mask >> i & 1 == 1).collect();
                if is_independent_set(&g, &set) {
                    best = best.max(set.len());
                }
            }
            assert_eq!(bb, best, "seed={seed}");
        }
    }
}
