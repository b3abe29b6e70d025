//! The paper's `ComputeMarginal` recursion (§3.3.1, Fig. 3), run
//! directly over the junction tree — the executable specification of the
//! plan-based query engine in `dbhist_core::plan`.
//!
//! Nothing serves from this module. The engine compiles the same
//! recursion into step programs ([`dbhist_core::plan::MarginalPlan`] /
//! [`dbhist_core::plan::MassPlan`]) and lowered kernels; this direct form
//! is the oracle `tests/plan_equivalence.rs` pins their bit-identity
//! against, and the baseline `query_bench` and `benches/query.rs`
//! compare planned execution to (`speedup.planned_vs_interpreted`).
//!
//! See `dbhist_core::marginal` for the two deviations from the published
//! pseudo-code (the `cover(C_j) ∩ diff` correction and best-overlap
//! rooting); the recursion here implements both.

use dbhist_core::factor::Factor;
use dbhist_core::marginal::MarginalStats;
use dbhist_core::plan::SHED_LIMIT;
use dbhist_core::{Query, SynopsisError};
use dbhist_distribution::AttrSet;
use dbhist_model::JunctionTree;

struct Ctx<'a, F> {
    tree: &'a JunctionTree,
    factors: &'a [F],
    children: Vec<Vec<usize>>,
    cover: Vec<AttrSet>,
    stats: MarginalStats,
}

impl<'a, F: Factor> Ctx<'a, F> {
    fn project(&mut self, factor: &F, attrs: &AttrSet) -> Result<F, SynopsisError> {
        if factor.attrs() == attrs {
            return Ok(factor.clone());
        }
        self.stats.projections += 1;
        factor.project(attrs)
    }

    fn product(&mut self, a: &F, b: &F) -> Result<F, SynopsisError> {
        self.stats.products += 1;
        a.product(b)
    }

    /// Fig. 3 recursion: the marginal over `sq` from the subtree rooted at
    /// clique `node`. Precondition: `sq ⊆ cover(node)`.
    fn go(&mut self, node: usize, sq: &AttrSet) -> Result<F, SynopsisError> {
        // Copy the `'a` references out of `self` so clique/factor borrows
        // don't conflict with the `&mut self` helper calls below.
        let cliques: &'a [AttrSet] = self.tree.cliques();
        let factors: &'a [F] = self.factors;
        let clique = &cliques[node];
        // Step 1: the clique alone suffices.
        if sq.is_subset(clique) {
            return self.project(&factors[node], sq);
        }
        let int = clique.intersection(sq);
        let diff = sq.difference(clique);
        debug_assert!(!diff.is_empty());

        // Steps 4–10: a single child's subtree covers everything missing.
        let single = self.children[node].iter().copied().find(|&j| diff.is_subset(&self.cover[j]));
        if let Some(j) = single {
            if int.is_empty() {
                // Step 5: delegate wholesale.
                return self.go(j, sq);
            }
            // Steps 7–9.
            let sij = clique.intersection(&cliques[j]);
            let h1 = self.go(j, &diff.union(&sij))?;
            let prod = self.product(&factors[node], &h1)?;
            return self.project(&prod, sq);
        }

        // Steps 11–19: split `diff` across the children that cover parts
        // of it (each attribute lives in exactly one subtree by the
        // clique-intersection property).
        let parts: Vec<(usize, AttrSet, AttrSet)> = self.children[node]
            .iter()
            .copied()
            .filter_map(|j| {
                let part = self.cover[j].intersection(&diff);
                if part.is_empty() {
                    None
                } else {
                    let sij = clique.intersection(&cliques[j]);
                    Some((j, part, sij))
                }
            })
            .collect();
        debug_assert_eq!(
            parts.iter().fold(AttrSet::empty(), |acc, (_, p, _)| acc.union(p)),
            diff,
            "diff attributes must be covered by children"
        );
        let mut h = factors[node].clone();
        for (idx, (j, part, sij)) in parts.iter().enumerate() {
            let h1 = self.go(*j, &part.union(sij))?;
            h = self.product(&h, &h1)?;
            // Variable-elimination optimization: shed attributes that
            // neither the query nor the separators of the remaining
            // children need — while the factor is small enough for the
            // projection to pay off (one of the paper's deferred
            // "practical optimizations").
            let mut keep = sq.intersection(h.attrs());
            for (_, _, s) in &parts[idx + 1..] {
                keep = keep.union(s);
            }
            if !keep.is_empty() {
                h = self.project_if_cheap(h, &keep)?;
            }
        }
        self.project(&h, sq)
    }
}

impl<'a, F: Factor> Ctx<'a, F> {
    /// Projects `factor` onto `attrs` only when the factor is small enough
    /// for the projection to pay off; otherwise returns it unchanged (its
    /// attribute set is a superset of what was asked for, which the loose
    /// recursion tolerates).
    fn project_if_cheap(&mut self, factor: F, attrs: &AttrSet) -> Result<F, SynopsisError> {
        if factor.attrs() == attrs || factor.len_hint() > SHED_LIMIT {
            Ok(factor)
        } else {
            self.project(&factor, attrs)
        }
    }

    /// Like [`Ctx::go`], but may return a factor over a *superset* of
    /// `sq`, skipping projections on large intermediates. Soundness: a
    /// retained extra attribute always lives in exactly one subtree (by
    /// the clique-intersection property), so it can never appear on both
    /// sides of a later product — product separators stay exactly the
    /// model separators, and `mass_in_box` simply ignores unconstrained
    /// extra attributes.
    fn go_loose(&mut self, node: usize, sq: &AttrSet) -> Result<F, SynopsisError> {
        let cliques: &'a [AttrSet] = self.tree.cliques();
        let factors: &'a [F] = self.factors;
        let clique = &cliques[node];
        // Clique factors are small; project eagerly as in Fig. 3 step 1.
        if sq.is_subset(clique) {
            return self.project(&factors[node], sq);
        }
        let int = clique.intersection(sq);
        let diff = sq.difference(clique);
        let single = self.children[node].iter().copied().find(|&j| diff.is_subset(&self.cover[j]));
        if let Some(j) = single {
            if int.is_empty() {
                return self.go_loose(j, sq);
            }
            let sij = clique.intersection(&cliques[j]);
            let h1 = self.go_loose(j, &diff.union(&sij))?;
            let prod = self.product(&factors[node], &h1)?;
            return self.project_if_cheap(prod, sq);
        }
        let parts: Vec<(usize, AttrSet, AttrSet)> = self.children[node]
            .iter()
            .copied()
            .filter_map(|j| {
                let part = self.cover[j].intersection(&diff);
                if part.is_empty() {
                    None
                } else {
                    let sij = clique.intersection(&cliques[j]);
                    Some((j, part, sij))
                }
            })
            .collect();
        let mut h = factors[node].clone();
        for (idx, (j, part, sij)) in parts.iter().enumerate() {
            let h1 = self.go_loose(*j, &part.union(sij))?;
            h = self.product(&h, &h1)?;
            // Shed attributes the query and the remaining separators no
            // longer need — but only while the factor is small.
            let mut keep = sq.intersection(h.attrs());
            for (_, _, s) in &parts[idx + 1..] {
                keep = keep.union(s);
            }
            if !keep.is_empty() {
                h = self.project_if_cheap(h, &keep)?;
            }
        }
        self.project_if_cheap(h, sq)
    }
}

/// [`dbhist_core::marginal::estimate_mass`] via the direct recursive
/// interpreter — the executable specification the plan path is verified
/// against.
///
/// # Errors
///
/// Propagates factor operation failures; rejects targets with attributes
/// the model does not cover.
pub fn estimate_mass_interpreted<F: Factor>(
    tree: &JunctionTree,
    factors: &[F],
    target: &AttrSet,
    query: &Query,
) -> Result<f64, SynopsisError> {
    assert_eq!(tree.len(), factors.len(), "one factor per clique");
    assert!(!target.is_empty(), "target attribute set must be non-empty");
    let ranges = query.ranges();

    // Model components (cliques connected by *non-empty* separators) are
    // mutually independent by construction: the estimate factorizes as
    // N · Π (mass_component / N). Evaluating per component sidesteps the
    // cross-component factor products entirely — they carry no
    // information and their intermediate blow-up only compounds
    // approximation error.
    let n_cliques = tree.len();
    let mut comp = vec![usize::MAX; n_cliques];
    let mut next_comp = 0usize;
    for start in 0..n_cliques {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        comp[start] = next_comp;
        while let Some(c) = stack.pop() {
            for (other, sep) in tree.neighbors(c) {
                if !sep.is_empty() && comp[other] == usize::MAX {
                    comp[other] = next_comp;
                    stack.push(other);
                }
            }
        }
        next_comp += 1;
    }
    // Group target attributes by the component that covers them.
    let mut groups: Vec<AttrSet> = vec![AttrSet::empty(); next_comp];
    'attrs: for a in target.iter() {
        for (i, clique) in tree.cliques().iter().enumerate() {
            if clique.contains(a) {
                groups[comp[i]] = groups[comp[i]].with(a);
                continue 'attrs;
            }
        }
        return Err(SynopsisError::Budget {
            reason: format!("attribute {a} is not covered by the model"),
        });
    }

    let total = factors.first().map_or(0.0, Factor::total);
    let mut mass = total;
    for (g, group) in groups.iter().enumerate() {
        if group.is_empty() {
            continue;
        }
        // Evaluate this component's marginal mass with the loose
        // recursion, rooted at its best-overlapping clique.
        // A non-empty group implies a populated component, so the max
        // always exists; skipping is the safe degenerate answer anyway.
        let Some(root) = (0..n_cliques)
            .filter(|&i| comp[i] == g)
            .max_by_key(|&i| (tree.cliques()[i].intersection(group).len(), usize::MAX - i))
        else {
            continue;
        };
        let rooted = tree.rooted(root);
        let mut ctx = Ctx {
            tree,
            factors,
            children: rooted.children,
            cover: rooted.cover,
            stats: MarginalStats::default(),
        };
        let loose = ctx.go_loose(root, group)?;
        let group_mass = loose.mass_in_box(ranges);
        if total > 0.0 {
            mass *= group_mass / total;
        } else {
            return Ok(0.0);
        }
    }
    Ok(mass)
}

/// [`dbhist_core::marginal::compute_marginal_with_stats`] via the direct
/// recursive interpreter — the executable specification the plan path is
/// verified against.
///
/// # Errors
///
/// Propagates factor operation failures; returns a budget-style error if
/// `target` mentions attributes not covered by any clique.
pub fn compute_marginal_interpreted<F: Factor>(
    tree: &JunctionTree,
    factors: &[F],
    target: &AttrSet,
) -> Result<(F, MarginalStats), SynopsisError> {
    assert_eq!(tree.len(), factors.len(), "one factor per clique");
    assert!(!target.is_empty(), "target attribute set must be non-empty");
    // Root at the clique overlapping the target most (never hurts).
    let Some(root) = (0..tree.len())
        .max_by_key(|&i| (tree.cliques()[i].intersection(target).len(), usize::MAX - i))
    else {
        return Err(SynopsisError::Budget { reason: "empty junction tree".into() });
    };
    let rooted = tree.rooted(root);
    if let Some(missing) = target.iter().find(|&a| !rooted.cover[root].contains(a)) {
        return Err(SynopsisError::Budget {
            reason: format!("attribute {missing} is not covered by the model"),
        });
    }
    let mut ctx = Ctx {
        tree,
        factors,
        children: rooted.children,
        cover: rooted.cover,
        stats: MarginalStats::default(),
    };
    let f = ctx.go(root, target)?;
    Ok((f, ctx.stats))
}
