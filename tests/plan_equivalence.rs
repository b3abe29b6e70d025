//! Property tests: the plan-based query engine is observationally
//! identical to the recursive Fig. 3 interpreter (`dbhist_bench::fig3`,
//! which ships in no library crate and exists to be this oracle).
//!
//! `MarginalPlan`/`MassPlan` compile the interpreter's recursion into a
//! step program whose execution replays the *same* factor operations in
//! the *same* order on the *same* operands — so results must match
//! bit-for-bit (not just within tolerance), for exact factors and for
//! approximate MHIST split trees alike, over randomized junction trees,
//! factors, and query sets. Cached replays (shape-cache plans and
//! kernels) must also be bit-identical to their cold runs.
//!
//! The kernel backend rides the same contract: lowered tree indices
//! (including low-occupancy trees full of zero buckets), the engine's
//! pooled scratch reuse across interleaved queries, and the O(log b)
//! windowed range sums must all stay bit-identical to the recursive walks
//! they replace.

#![allow(clippy::unwrap_used, clippy::expect_used)] // tests assert by panicking

use dbhist::core::factor::{ExactFactor, Factor};
use dbhist::core::marginal::{compute_marginal_with_stats, estimate_mass};
use dbhist::core::plan::{
    execute_marginal, execute_mass, MarginalPlan, MassPlan, QueryEngine, QueryTrace,
};
use dbhist::core::Query;
use dbhist::distribution::{AttrId, AttrSet, Relation, Schema};
use dbhist::histogram::mhist::MhistBuilder;
use dbhist::histogram::{OneDimHistogram, SplitCriterion, SplitTree, TreeIndex};
use dbhist::model::chordal::addable_edge_separator;
use dbhist::model::{DecomposableModel, MarkovGraph};
use dbhist_bench::fig3::{compute_marginal_interpreted, estimate_mass_interpreted};
use proptest::prelude::*;

/// A query shape (target attributes) plus its conjunctive box.
type BoxQuery = (AttrSet, Query);

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// A random relation (with correlations), a random decomposable model
/// over a randomly grown chordal graph, and exact clique factors.
fn build_setup(
    arity: usize,
    domain: u32,
    rows: usize,
    seed: u64,
) -> (Relation, DecomposableModel, Vec<ExactFactor>, u64) {
    let mut state = seed | 1;
    let schema = Schema::new((0..arity).map(|i| (format!("a{i}"), domain))).unwrap();
    let data: Vec<Vec<u32>> = (0..rows)
        .map(|_| {
            let base = (xorshift(&mut state) % u64::from(domain)) as u32;
            (0..arity)
                .map(|i| {
                    if i % 2 == 0 && !xorshift(&mut state).is_multiple_of(3) {
                        base
                    } else {
                        (xorshift(&mut state) % u64::from(domain)) as u32
                    }
                })
                .collect()
        })
        .collect();
    let rel = Relation::from_rows(schema, data).unwrap();

    // Random chordal graph by legal edge insertion; junction trees built
    // from it are valid by construction (debug validators check).
    let mut g = MarkovGraph::empty(arity);
    let edges = (xorshift(&mut state) % 9) as usize;
    let mut added = 0;
    for _ in 0..edges * 4 {
        if added >= edges {
            break;
        }
        let u = (xorshift(&mut state) % arity as u64) as AttrId;
        let v = (xorshift(&mut state) % arity as u64) as AttrId;
        if u != v && addable_edge_separator(&g, u, v).is_some() {
            g.add_edge(u, v).unwrap();
            added += 1;
        }
    }
    let model = DecomposableModel::new(rel.schema().clone(), g).unwrap();
    let factors: Vec<ExactFactor> =
        model.cliques().iter().map(|c| ExactFactor(rel.marginal(c).unwrap())).collect();
    (rel, model, factors, state)
}

/// Random non-empty attribute subsets drawn from a bitmask stream.
fn random_targets(arity: usize, state: &mut u64, count: usize) -> Vec<AttrSet> {
    let mut targets = Vec::new();
    while targets.len() < count {
        let mask = xorshift(state) % (1u64 << arity);
        if mask == 0 {
            continue;
        }
        targets.push(AttrSet::from_ids(
            (0..arity as AttrId).filter(|&a| mask & (1 << u64::from(a)) != 0),
        ));
    }
    targets
}

/// A random conjunctive box over exactly the target's attributes.
fn random_ranges(target: &AttrSet, domain: u32, state: &mut u64) -> Vec<(AttrId, u32, u32)> {
    target
        .iter()
        .map(|a| {
            let lo = (xorshift(state) % u64::from(domain)) as u32;
            let width = (xorshift(state) % u64::from(domain)) as u32;
            (a, lo, (lo + width).min(domain - 1))
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Planned marginals are bit-identical to the interpreter on exact
    /// factors: same support frequencies, same operation counts.
    #[test]
    fn planned_marginal_bit_identical_exact(
        arity in 3usize..=6,
        domain in 2u32..=6,
        rows in 30usize..=150,
        seed in any::<u64>(),
    ) {
        let (_, model, factors, mut state) = build_setup(arity, domain, rows, seed);
        let tree = model.junction_tree();
        for target in random_targets(arity, &mut state, 6) {
            let (planned, planned_stats) =
                compute_marginal_with_stats(tree, &factors, &target).unwrap();
            let (interp, interp_stats) =
                compute_marginal_interpreted(tree, &factors, &target).unwrap();
            prop_assert_eq!(planned_stats, interp_stats, "{}", &target);
            prop_assert_eq!(planned.attrs(), interp.attrs(), "{}", &target);
            prop_assert_eq!(
                planned.total().to_bits(), interp.total().to_bits(), "{}", &target);
            for (k, v) in interp.0.iter() {
                prop_assert_eq!(
                    planned.0.frequency(k).to_bits(), v.to_bits(),
                    "target {} key {:?}", &target, k
                );
            }
            for (k, v) in planned.0.iter() {
                prop_assert_eq!(
                    interp.0.frequency(k).to_bits(), v.to_bits(),
                    "target {} key {:?}", &target, k
                );
            }
        }
    }

    /// Planned marginals are bit-identical to the interpreter on MHIST
    /// split-tree factors (the approximate path, where operand order and
    /// shed decisions matter most).
    #[test]
    fn planned_marginal_bit_identical_mhist(
        arity in 3usize..=5,
        domain in 2u32..=6,
        rows in 30usize..=150,
        seed in any::<u64>(),
    ) {
        let (rel, model, _, mut state) = build_setup(arity, domain, rows, seed);
        let tree = model.junction_tree();
        let buckets = 2 + (xorshift(&mut state) % 8) as usize;
        let hists: Vec<_> = model
            .cliques()
            .iter()
            .map(|c| {
                MhistBuilder::build(&rel.marginal(c).unwrap(), buckets, SplitCriterion::MaxDiff)
                    .unwrap()
            })
            .collect();
        for target in random_targets(arity, &mut state, 4) {
            let (planned, planned_stats) =
                compute_marginal_with_stats(tree, &hists, &target).unwrap();
            let (interp, interp_stats) =
                compute_marginal_interpreted(tree, &hists, &target).unwrap();
            prop_assert_eq!(planned_stats, interp_stats, "{}", &target);
            prop_assert_eq!(planned.attrs(), interp.attrs(), "{}", &target);
            prop_assert_eq!(
                planned.total().to_bits(), interp.total().to_bits(), "{}", &target);
            for _ in 0..4 {
                let ranges = random_ranges(&target, domain, &mut state);
                prop_assert_eq!(
                    planned.mass_in_box(&ranges).to_bits(),
                    interp.mass_in_box(&ranges).to_bits(),
                    "target {} ranges {:?}", &target, &ranges
                );
            }
        }
    }

    /// Planned selectivity estimation (independent-component mass plans)
    /// is bit-identical to the interpreter, on both factor families.
    #[test]
    fn planned_mass_bit_identical(
        arity in 3usize..=6,
        domain in 2u32..=6,
        rows in 30usize..=150,
        seed in any::<u64>(),
    ) {
        let (rel, model, factors, mut state) = build_setup(arity, domain, rows, seed);
        let tree = model.junction_tree();
        let hists: Vec<_> = model
            .cliques()
            .iter()
            .map(|c| {
                MhistBuilder::build(&rel.marginal(c).unwrap(), 6, SplitCriterion::MaxDiff)
                    .unwrap()
            })
            .collect();
        for target in random_targets(arity, &mut state, 6) {
            let ranges = random_ranges(&target, domain, &mut state);
            let query = Query::from(ranges.as_slice());
            let planned = estimate_mass(tree, &factors, &target, &query).unwrap();
            let interp = estimate_mass_interpreted(tree, &factors, &target, &query).unwrap();
            prop_assert_eq!(
                planned.to_bits(), interp.to_bits(),
                "exact: target {} ranges {:?}: {} vs {}", &target, &ranges, planned, interp
            );
            let planned_h = estimate_mass(tree, &hists, &target, &query).unwrap();
            let interp_h = estimate_mass_interpreted(tree, &hists, &target, &query).unwrap();
            prop_assert_eq!(
                planned_h.to_bits(), interp_h.to_bits(),
                "mhist: target {} ranges {:?}: {} vs {}", &target, &ranges, planned_h, interp_h
            );
        }
    }

    /// Cache replays are bit-identical to cold runs: neither a cached
    /// plan nor a replay after kernel invalidation may change an answer.
    #[test]
    fn engine_cache_replays_bit_identical(
        arity in 3usize..=6,
        domain in 2u32..=6,
        rows in 30usize..=150,
        seed in any::<u64>(),
    ) {
        let (_, model, factors, mut state) = build_setup(arity, domain, rows, seed);
        let tree = model.junction_tree();
        let engine: QueryEngine<ExactFactor> = QueryEngine::new(tree);
        let queries: Vec<BoxQuery> = random_targets(arity, &mut state, 5)
                .into_iter()
                .map(|t| {
                    let r = Query::from(random_ranges(&t, domain, &mut state));
                    (t, r)
                })
                .collect();
        let cold: Vec<f64> = queries
            .iter()
            .map(|(t, r)| engine.estimate_mass(tree, &factors, t, r).unwrap())
            .collect();
        // Warm pass: plans are now cached.
        let warm: Vec<f64> = queries
            .iter()
            .map(|(t, r)| engine.estimate_mass(tree, &factors, t, r).unwrap())
            .collect();
        // Third pass after dropping every kernel: plans replay, kernels
        // re-lower.
        engine.invalidate_kernels();
        let relowered: Vec<f64> = queries
            .iter()
            .map(|(t, r)| engine.estimate_mass(tree, &factors, t, r).unwrap())
            .collect();
        for (i, c) in cold.iter().enumerate() {
            prop_assert_eq!(c.to_bits(), warm[i].to_bits(), "warm replay differs at {}", i);
            prop_assert_eq!(
                c.to_bits(), relowered[i].to_bits(), "post-invalidation pass differs at {}", i
            );
        }
        let trace = engine.trace();
        prop_assert!(trace.plan_cache_hits >= queries.len(), "{:?}", trace);
        // The engine's marginal entry point matches the free function.
        let (t0, _) = &queries[0];
        let via_engine = engine.marginal(tree, &factors, t0).unwrap();
        let (direct, _) = compute_marginal_interpreted(tree, &factors, t0).unwrap();
        for (k, v) in direct.0.iter() {
            prop_assert_eq!(via_engine.0.frequency(k).to_bits(), v.to_bits());
        }
    }

    /// Lowered tree indices answer `mass_in_box` bit-identical to the
    /// recursive `SplitTree` walk, on uniform and on low-occupancy
    /// (`spiky`) trees — including when one scratch buffer pair is reused
    /// across interleaved trees and queries.
    #[test]
    fn lowered_index_layout_and_mass_bit_identical(
        arity in 1usize..=3,
        domain in 4u32..=16,
        rows in 10usize..=120,
        buckets in 2usize..=24,
        spiky in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let schema = Schema::new((0..arity).map(|i| (format!("a{i}"), domain))).unwrap();
        // `spiky` concentrates mass on the two extreme values so gap
        // buckets go to zero and the zero-subtree prune gets exercised.
        let data: Vec<Vec<u32>> = (0..rows)
            .map(|_| {
                (0..arity)
                    .map(|_| {
                        if spiky {
                            if xorshift(&mut state).is_multiple_of(2) { 0 } else { domain - 1 }
                        } else {
                            (xorshift(&mut state) % u64::from(domain)) as u32
                        }
                    })
                    .collect()
            })
            .collect();
        let rel = Relation::from_rows(schema, data).unwrap();
        let all = AttrSet::from_ids(0..arity as AttrId);
        let tree = MhistBuilder::build(
            &rel.marginal(&all).unwrap(), buckets, SplitCriterion::MaxDiff).unwrap();
        let index = TreeIndex::lower(&tree).unwrap();
        prop_assert_eq!(index.total().to_bits(), tree.total().to_bits());

        // One scratch pair, reused across every query (and in the 2-attr
        // case across a second lowered tree), stays bit-identical.
        let other = MhistBuilder::build(
            &rel.marginal(&AttrSet::singleton(0)).unwrap(),
            buckets.min(4),
            SplitCriterion::MaxDiff,
        )
        .unwrap();
        let other_index = TreeIndex::lower(&other).unwrap();
        let mut bounds = Vec::new();
        let mut constraint = Vec::new();
        for _ in 0..12 {
            let ranges = random_ranges(&all, domain, &mut state);
            let walked = tree.mass_in_box(&ranges);
            let indexed = index.mass_in_box_with(&ranges, &mut bounds, &mut constraint);
            prop_assert_eq!(
                indexed.to_bits(), walked.to_bits(),
                "spiky {} on {:?}: {} vs {}", spiky, &ranges, indexed, walked
            );
            // Interleave a query against the other index through the SAME
            // scratch buffers: reuse must not leak state between kernels.
            let sub = &ranges[..1];
            prop_assert_eq!(
                other_index.mass_in_box_with(sub, &mut bounds, &mut constraint).to_bits(),
                other.mass_in_box(sub).to_bits()
            );
        }
    }

    /// The engine's kernel path under an interleaved workload: queries
    /// over several targets alternate for many rounds through one engine
    /// (so the pooled scratch is checked out, reused, and returned across
    /// different kernels), and every answer stays bit-identical to the
    /// interpreter. Exact factors have no lowering and must fall back —
    /// also bit-identically.
    #[test]
    fn kernel_scratch_reuse_across_interleaved_queries(
        arity in 3usize..=5,
        domain in 2u32..=6,
        rows in 30usize..=150,
        seed in any::<u64>(),
    ) {
        let (rel, model, factors, mut state) = build_setup(arity, domain, rows, seed);
        let tree = model.junction_tree();
        let hists: Vec<_> = model
            .cliques()
            .iter()
            .map(|c| {
                MhistBuilder::build(&rel.marginal(c).unwrap(), 6, SplitCriterion::MaxDiff)
                    .unwrap()
            })
            .collect();
        let queries: Vec<BoxQuery> = random_targets(arity, &mut state, 4)
            .into_iter()
            .map(|t| {
                let r = Query::from(random_ranges(&t, domain, &mut state));
                (t, r)
            })
            .collect();

        // Split-tree factors lower; the warm rounds ride the kernels.
        let engine: QueryEngine<SplitTree> = QueryEngine::new(tree);
        let mut rounds: Vec<Vec<u64>> = Vec::new();
        for _ in 0..3 {
            rounds.push(
                queries
                    .iter()
                    .map(|(t, q)| engine.estimate_mass(tree, &hists, t, q).unwrap().to_bits())
                    .collect(),
            );
        }
        for (i, (t, q)) in queries.iter().enumerate() {
            let interp = estimate_mass_interpreted(tree, &hists, t, q).unwrap();
            for round in &rounds {
                prop_assert_eq!(
                    round[i], interp.to_bits(),
                    "target {} diverged from the interpreter under interleaving", t
                );
            }
        }
        let trace = engine.trace();
        prop_assert!(
            trace.kernel_lowered_dense >= 1,
            "split-tree groups must lower: {:?}", trace
        );
        prop_assert!(
            trace.kernel_hits >= queries.len(),
            "warm rounds must ride the kernels: {:?}", trace
        );
        prop_assert_eq!(trace.kernel_fallbacks, 0, "{:?}", trace);

        // Exact factors cannot lower: same workload, pure fallback, still
        // bit-identical to the interpreter.
        let exact_engine: QueryEngine<_> = QueryEngine::new(tree);
        for _ in 0..2 {
            for (t, q) in &queries {
                let via_engine = exact_engine.estimate_mass(tree, &factors, t, q).unwrap();
                let interp = estimate_mass_interpreted(tree, &factors, t, q).unwrap();
                prop_assert_eq!(via_engine.to_bits(), interp.to_bits(), "{}", t);
            }
        }
        let exact_trace = exact_engine.trace();
        prop_assert_eq!(exact_trace.kernel_hits, 0, "{:?}", exact_trace);
        prop_assert!(exact_trace.kernel_fallbacks >= 1, "{:?}", exact_trace);
    }

    /// The windowed (partition-point) 1-D range scan is bit-identical to
    /// the pre-windowing linear scan for every box over random skewed
    /// histograms — the O(log b) seek must never change a sum.
    #[test]
    fn windowed_range_sums_bit_identical_to_linear(
        domain in 2u32..=48,
        buckets in 1usize..=16,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let schema = Schema::new(vec![("x", domain)]).unwrap();
        let rows: Vec<Vec<u32>> = (0..200)
            .map(|_| {
                // Quadratic skew concentrates mass at high values, so
                // bucket widths vary and partial overlaps are common.
                let r = xorshift(&mut state) % u64::from(domain);
                let v = (r * r / u64::from(domain).max(1)) as u32;
                vec![v.min(domain - 1)]
            })
            .collect();
        let rel = Relation::from_rows(schema, rows).unwrap();
        let h = OneDimHistogram::build(
            &rel.distribution(), 0, buckets, SplitCriterion::MaxDiff).unwrap();
        for lo in 0..domain {
            for hi in 0..domain {
                // The pre-windowing linear scan, verbatim.
                let mut reference = 0.0;
                if lo <= hi {
                    for b in h.buckets() {
                        if b.hi < lo || b.lo > hi {
                            continue;
                        }
                        let olo = b.lo.max(lo);
                        let ohi = b.hi.min(hi);
                        reference += b.freq * ((f64::from(ohi - olo) + 1.0) / b.width() as f64);
                    }
                }
                prop_assert_eq!(h.estimate_range(lo, hi).to_bits(), reference.to_bits());
            }
        }
    }

    /// EXPLAIN recording is observation-only: `estimate_mass_explained`
    /// returns the same bits as `estimate_mass` on cold compiles, warm
    /// kernel replays, and mixed call orders on a shared engine — the
    /// probe may time and label, never touch an operand.
    #[test]
    fn explain_recording_bit_identical(
        arity in 3usize..=6,
        domain in 2u32..=6,
        rows in 30usize..=150,
        seed in any::<u64>(),
    ) {
        let (_rel, model, factors, mut state) = build_setup(arity, domain, rows, seed);
        let tree = model.junction_tree();
        let plain: QueryEngine<ExactFactor> = QueryEngine::new(tree);
        let explained: QueryEngine<ExactFactor> = QueryEngine::new(tree);
        let workload: Vec<BoxQuery> = random_targets(arity, &mut state, 6)
            .into_iter()
            .map(|target| {
                let ranges = random_ranges(&target, domain, &mut state);
                (target, Query::from(ranges.as_slice()))
            })
            .collect();
        // Two passes: the first compiles (and lowers kernels), the
        // second replays warm — both must agree bit-for-bit.
        for pass in 0..2 {
            for (target, query) in &workload {
                let p = plain.estimate_mass(tree, &factors, target, query).unwrap();
                let (e, report) =
                    explained.estimate_mass_explained(tree, &factors, target, query).unwrap();
                prop_assert_eq!(
                    p.to_bits(), e.to_bits(),
                    "pass {}: target {}: plain {} vs explained {}", pass, target, p, e
                );
                prop_assert_eq!(report.estimate.to_bits(), e.to_bits());
                prop_assert!(!report.path.as_str().is_empty());
            }
        }
        // Mixed order on one engine: an explained call warming the cache
        // for a plain call (and vice versa) must not perturb answers.
        let shared: QueryEngine<ExactFactor> = QueryEngine::new(tree);
        for (target, query) in &workload {
            let (first, _) =
                shared.estimate_mass_explained(tree, &factors, target, query).unwrap();
            let second = shared.estimate_mass(tree, &factors, target, query).unwrap();
            let expected = plain.estimate_mass(tree, &factors, target, query).unwrap();
            prop_assert_eq!(first.to_bits(), expected.to_bits());
            prop_assert_eq!(second.to_bits(), expected.to_bits());
        }
    }
}

/// Fixed-seed fixtures for the example-based interpreter comparisons: 5
/// attributes with chain dependencies 0-1, 1-2, plus pair 3-4.
mod chain {
    use super::*;

    pub fn relation(seed: u64, rows: usize) -> Relation {
        let schema = Schema::new(vec![("a", 4), ("b", 4), ("c", 4), ("d", 3), ("e", 3)]).unwrap();
        let mut state = seed;
        let mut next = || xorshift(&mut state);
        let data: Vec<Vec<u32>> = (0..rows)
            .map(|_| {
                let a = (next() % 4) as u32;
                // b correlates with a; c with b; e with d.
                let b = if next() % 3 == 0 { (next() % 4) as u32 } else { a };
                let c = if next() % 3 == 0 { (next() % 4) as u32 } else { b };
                let d = (next() % 3) as u32;
                let e = if next() % 4 == 0 { (next() % 3) as u32 } else { d };
                vec![a, b, c, d, e]
            })
            .collect();
        Relation::from_rows(schema, data).unwrap()
    }

    pub fn model(rel: &Relation) -> DecomposableModel {
        let g = MarkovGraph::from_edges(5, [(0, 1), (1, 2), (3, 4)]).unwrap();
        DecomposableModel::new(rel.schema().clone(), g).unwrap()
    }

    pub fn exact_factors(rel: &Relation, m: &DecomposableModel) -> Vec<ExactFactor> {
        m.cliques().iter().map(|c| ExactFactor(rel.marginal(c).unwrap())).collect()
    }

    pub fn targets() -> Vec<AttrSet> {
        vec![
            AttrSet::from_ids([0]),
            AttrSet::from_ids([0, 1]),
            AttrSet::from_ids([0, 2]),
            AttrSet::from_ids([0, 4]),
            AttrSet::from_ids([2, 3]),
            AttrSet::from_ids([0, 2, 4]),
            AttrSet::from_ids([0, 1, 2, 3, 4]),
        ]
    }
}

#[test]
fn planned_marginal_is_bit_identical_to_interpreter() {
    let rel = chain::relation(988_777, 2500);
    let m = chain::model(&rel);
    let factors = chain::exact_factors(&rel, &m);
    let tree = m.junction_tree();
    let views = tree.rooted_views();
    for target in chain::targets() {
        let plan = MarginalPlan::compile(tree, &views, &target).unwrap();
        let mut trace = QueryTrace::default();
        let planned = execute_marginal(&plan, &factors, &mut trace).unwrap();
        let (interp, stats) = compute_marginal_interpreted(tree, &factors, &target).unwrap();
        assert_eq!(planned.attrs(), interp.attrs(), "{target}");
        for (k, v) in interp.0.iter() {
            let got = planned.0.frequency(k);
            assert_eq!(got.to_bits(), v.to_bits(), "{target}: key {k:?}: {got} vs {v}");
        }
        // Operation counts match the interpreter's accounting.
        assert_eq!(trace.products, stats.products, "{target}");
        assert_eq!(trace.projections + trace.sheds, stats.projections, "{target}");
    }
}

#[test]
fn planned_mass_is_bit_identical_to_interpreter() {
    let rel = chain::relation(988_777, 2500);
    let m = chain::model(&rel);
    let factors = chain::exact_factors(&rel, &m);
    let tree = m.junction_tree();
    let views = tree.rooted_views();
    let queries: Vec<Vec<(u16, u32, u32)>> = vec![
        vec![(0, 0, 1)],
        vec![(0, 0, 2), (2, 1, 3)],
        vec![(0, 1, 2), (3, 0, 1), (4, 1, 2)],
        vec![(1, 2, 2), (4, 0, 0)],
        vec![(0, 0, 3), (1, 0, 3), (2, 0, 3), (3, 0, 2), (4, 0, 2)],
    ];
    for ranges in queries {
        let target = AttrSet::from_ids(ranges.iter().map(|r| r.0));
        let query = Query::from(ranges);
        let plan = MassPlan::compile(tree, &views, &target).unwrap();
        let mut trace = QueryTrace::default();
        let planned = execute_mass(&plan, &factors, &query, &mut trace).unwrap();
        let interp = estimate_mass_interpreted(tree, &factors, &target, &query).unwrap();
        assert_eq!(planned.to_bits(), interp.to_bits(), "{query:?}: {planned} vs {interp}");
    }
}

#[test]
fn engine_marginal_matches_free_function() {
    let rel = chain::relation(988_777, 2500);
    let m = chain::model(&rel);
    let factors = chain::exact_factors(&rel, &m);
    let tree = m.junction_tree();
    let engine: QueryEngine<ExactFactor> = QueryEngine::new(tree);
    let target = AttrSet::from_ids([0, 2]);
    let a = engine.marginal(tree, &factors, &target).unwrap();
    let b = engine.marginal(tree, &factors, &target).unwrap();
    let (interp, _) = compute_marginal_interpreted(tree, &factors, &target).unwrap();
    for (k, v) in interp.0.iter() {
        assert_eq!(a.0.frequency(k).to_bits(), v.to_bits());
        assert_eq!(b.0.frequency(k).to_bits(), v.to_bits());
    }
}

#[test]
fn planned_entry_point_matches_interpreter() {
    // The public entry points run the plan path; the interpreter is
    // the specification. Results and operation counts must coincide.
    let rel = chain::relation(12345, 3000);
    let m = chain::model(&rel);
    let factors = chain::exact_factors(&rel, &m);
    for target in [
        AttrSet::from_ids([0]),
        AttrSet::from_ids([0, 2]),
        AttrSet::from_ids([0, 4]),
        AttrSet::from_ids([2, 3]),
        AttrSet::from_ids([0, 1, 2, 3, 4]),
    ] {
        let (planned, planned_stats) =
            compute_marginal_with_stats(m.junction_tree(), &factors, &target).unwrap();
        let (interp, interp_stats) =
            compute_marginal_interpreted(m.junction_tree(), &factors, &target).unwrap();
        assert_eq!(planned_stats, interp_stats, "target {target}");
        assert_eq!(planned.attrs(), interp.attrs(), "target {target}");
        for (k, v) in interp.0.iter() {
            assert_eq!(planned.0.frequency(k).to_bits(), v.to_bits(), "target {target}: key {k:?}");
        }
    }
}

#[test]
fn interpreter_rejects_uncovered_attribute() {
    // The planned half of this check is `marginal::tests::uncovered_attribute_is_an_error`.
    let rel = chain::relation(12345, 3000);
    let m = chain::model(&rel);
    let factors = chain::exact_factors(&rel, &m);
    let bad = AttrSet::from_ids([0, 9]);
    assert!(compute_marginal_interpreted(m.junction_tree(), &factors, &bad).is_err());
}
