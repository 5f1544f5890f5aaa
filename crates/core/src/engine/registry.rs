//! Name → solver-factory registry: the single source of truth the
//! CLI, the batch pipeline, the service, the router experiment, and
//! the README solver table all read. Registering a solver here is the
//! whole integration: every front end picks it up. Running one is
//! [`solve_single_traced`](crate::solve_single_traced)'s job.

use super::solvers::{BorderMatching, Chain, Exact, FourApprox, Greedy, Improve, OneCsr};
use super::{EngineError, Portfolio, Solver};
use crate::MethodSet;
use std::sync::OnceLock;

type Factory = fn() -> Box<dyn Solver>;

/// One registered solver: the public name, paper metadata for docs
/// and reports, and the factory.
pub struct SolverSpec {
    /// Registered name (the CLI's `--algo` value).
    pub name: &'static str,
    /// Which paper artifact the solver implements.
    pub paper: &'static str,
    /// Proven approximation ratio, as prose.
    pub ratio: &'static str,
    /// Whether the default [`Portfolio`] races this solver. The
    /// exhaustive solver sits out (worst-case factorial work) and the
    /// portfolio cannot race itself.
    pub in_portfolio: bool,
    factory: Factory,
}

impl SolverSpec {
    /// Instantiate the solver.
    pub fn build(&self) -> Box<dyn Solver> {
        (self.factory)()
    }
}

/// The name → factory registry. Order matters: it is the portfolio's
/// tie-break and every front end's display order.
pub struct SolverRegistry {
    entries: Vec<SolverSpec>,
}

impl SolverRegistry {
    /// Every solver this workspace ships, in canonical order
    /// (strongest guarantees first, so portfolio ties resolve to the
    /// best-understood algorithm).
    pub fn builtin() -> SolverRegistry {
        let entries = vec![
            SolverSpec {
                name: "csr",
                paper: "CSR_Improve (§4.4, Theorem 6)",
                ratio: "3 + ε",
                in_portfolio: true,
                factory: || Box::new(Improve(MethodSet::All)),
            },
            SolverSpec {
                name: "full",
                paper: "Full_Improve (§4.2, Theorem 4)",
                ratio: "3 + ε (Full CSR)",
                in_portfolio: true,
                factory: || Box::new(Improve(MethodSet::FullOnly)),
            },
            SolverSpec {
                name: "border",
                paper: "Border_Improve (§4.3, Theorem 5)",
                ratio: "3 + ε (Border CSR)",
                in_portfolio: true,
                factory: || Box::new(Improve(MethodSet::BorderOnly)),
            },
            SolverSpec {
                name: "four",
                paper: "factor-4 algorithm (Theorem 3, Corollary 1)",
                ratio: "4",
                in_portfolio: true,
                factory: || Box::new(FourApprox),
            },
            SolverSpec {
                name: "one-csr",
                paper: "1-CSR → ISP reduction solved with TPA (§3.4)",
                ratio: "2 (single-M instances)",
                in_portfolio: true,
                factory: || Box::new(OneCsr),
            },
            SolverSpec {
                name: "matching",
                paper: "bipartite-matching 2-approx (Lemma 9)",
                ratio: "2 (Border CSR)",
                in_portfolio: true,
                factory: || Box::new(BorderMatching),
            },
            SolverSpec {
                name: "greedy",
                paper: "the greedy baseline the introduction warns about",
                ratio: "unbounded",
                in_portfolio: true,
                factory: || Box::new(Greedy),
            },
            SolverSpec {
                name: "chain",
                paper: "anchor chaining: minimizers + LIS + windowed DP (engineering tier)",
                ratio: "unbounded (heuristic; built for instances exact cannot touch)",
                in_portfolio: true,
                factory: || Box::new(Chain),
            },
            SolverSpec {
                name: "exact",
                paper: "exhaustive conjecture-pair search",
                ratio: "1 (optimum; small instances only)",
                in_portfolio: false,
                factory: || Box::new(Exact),
            },
            SolverSpec {
                name: "portfolio",
                paper: "races every solver above, keeps the best",
                ratio: "min over members",
                in_portfolio: false,
                factory: || Box::new(Portfolio::new()),
            },
            SolverSpec {
                name: "auto",
                paper: "shape router fitted by exp_router (engine tier)",
                ratio: "inherits the routed solver's",
                in_portfolio: false,
                factory: || Box::new(super::Auto::new()),
            },
        ];
        SolverRegistry { entries }
    }

    /// The process-wide registry (built on first use).
    pub fn global() -> &'static SolverRegistry {
        static GLOBAL: OnceLock<SolverRegistry> = OnceLock::new();
        GLOBAL.get_or_init(SolverRegistry::builtin)
    }

    /// Every entry, in canonical order.
    pub fn specs(&self) -> &[SolverSpec] {
        &self.entries
    }

    /// Every registered name, in canonical order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|s| s.name).collect()
    }

    /// Position of `name` in the canonical order.
    pub fn position(&self, name: &str) -> Option<usize> {
        self.entries.iter().position(|s| s.name == name)
    }

    /// Look a solver up by name. The error carries every registered
    /// name plus a did-you-mean suggestion for near-miss typos, so
    /// front ends (CLI, batch, the HTTP service's 400 body) stay
    /// friendly without re-deriving the hint.
    pub fn spec(&self, name: &str) -> Result<&SolverSpec, EngineError> {
        self.entries
            .iter()
            .find(|s| s.name == name)
            .ok_or_else(|| EngineError::UnknownSolver {
                name: name.to_owned(),
                known: self.names(),
                suggestion: self.suggest(name),
            })
    }

    /// The registered name closest to `name` by edit distance, when
    /// close enough (≤ 2 edits) to be a plausible typo. Ties resolve
    /// to the earlier registry entry, keeping the hint deterministic.
    pub fn suggest(&self, name: &str) -> Option<&'static str> {
        // Edit distance is at least the length difference, so names
        // more than 2 bytes longer or shorter can never be suggested;
        // skipping them keeps a huge requested name from costing
        // `O(len)` per registered solver.
        self.entries
            .iter()
            .filter(|s| s.name.len().abs_diff(name.len()) <= 2)
            .map(|s| (edit_distance(name, s.name), s.name))
            .filter(|(d, _)| *d <= 2)
            .min_by_key(|(d, _)| *d)
            .map(|(_, n)| n)
    }

    /// The README solver table, generated from the registry so docs
    /// cannot drift from code (`tests/engine_registry.rs` pins the
    /// README to this exact string).
    pub fn markdown_table(&self) -> String {
        let mut out = String::from(
            "| solver | paper artifact | approximation ratio |\n| --- | --- | --- |\n",
        );
        for s in &self.entries {
            out.push_str(&format!("| `{}` | {} | {} |\n", s.name, s.paper, s.ratio));
        }
        out
    }
}

/// Levenshtein distance over bytes (solver names are ASCII); one
/// rolling row, O(|a|·|b|) time.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b) = (a.as_bytes(), b.as_bytes());
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut diag = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = diag + usize::from(ca != cb);
            diag = row[j + 1];
            row[j + 1] = sub.min(diag + 1).min(row[j] + 1);
        }
    }
    row[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_builds() {
        let reg = SolverRegistry::global();
        assert!(reg.names().len() >= 9);
        for name in reg.names() {
            let spec = reg.spec(name).unwrap();
            assert_eq!(spec.name, name);
            let _ = spec.build();
        }
        assert!(matches!(
            reg.spec("simulated-annealing"),
            Err(EngineError::UnknownSolver { .. })
        ));
    }

    #[test]
    fn unknown_solver_suggests_near_misses() {
        let reg = SolverRegistry::global();
        let err = reg.spec("greddy").map(|s| s.name).unwrap_err();
        assert!(matches!(
            &err,
            EngineError::UnknownSolver {
                suggestion: Some("greedy"),
                ..
            }
        ));
        assert!(err.to_string().contains("did you mean 'greedy'?"));
        // A length difference of more than two rules a name out before
        // any edit distance runs, so a huge name costs nothing.
        assert_eq!(reg.suggest("greedyyy"), Some("greedy"));
        assert_eq!(reg.suggest("greedyyyy"), None);
        assert_eq!(reg.suggest(&"g".repeat(1 << 20)), None);
        // Nothing is within two edits of this; no hint offered.
        let far = reg.spec("simulated-annealing").map(|s| s.name).unwrap_err();
        assert!(matches!(
            far,
            EngineError::UnknownSolver {
                suggestion: None,
                ..
            }
        ));
        assert_eq!(edit_distance("csr", "one-csr"), 4);
        assert_eq!(edit_distance("", "csr"), 3);
        assert_eq!(reg.suggest("cse"), Some("csr"));
    }

    #[test]
    fn markdown_table_has_one_row_per_solver() {
        let reg = SolverRegistry::global();
        let table = reg.markdown_table();
        assert_eq!(table.lines().count(), 2 + reg.specs().len());
        for name in reg.names() {
            assert!(table.contains(&format!("| `{name}` |")), "{name}");
        }
    }
}
