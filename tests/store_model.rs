//! Model-based property test for the sample store: random sequences of
//! single-sample coverage plans (`plan_coverage(desc, 1)`) and absorbs
//! are checked against a simple reference model (a coverage
//! `IntervalSet` per sample family).
//!
//! The invariants under test are the ones Algorithm 1's correctness rests
//! on:
//! - the plan is a full hit iff some stored sample's coverage subsumes
//!   the query range;
//! - a partial plan's residual equals `query − coverage` of the chosen
//!   sample and is strictly smaller than the query;
//! - a miss implies no stored same-family sample overlaps the query;
//! - stored weights always equal the number of tuples absorbed into the
//!   family region (no tuple is ever double-counted by a merge).

use std::collections::HashSet;

use laqy::{
    CoveragePlan, Interval, IntervalSet, Predicates, SampleDescriptor, SampleId, SampleSchema,
    SampleStore, SampleTuple, SlotKind,
};
use laqy_engine::GroupKey;
use laqy_sampling::{Lehmer64, StratifiedSampler};
use proptest::prelude::*;

const K: usize = 4;

fn descriptor(set: IntervalSet) -> SampleDescriptor {
    SampleDescriptor::new(
        "t",
        vec!["g".into()],
        vec!["x".into()],
        Predicates::on("x", set),
        K,
    )
}

fn schema() -> SampleSchema {
    SampleSchema::new(vec![("x".into(), SlotKind::Int)])
}

/// Build a sample whose tuples are exactly the integers of `set` (one
/// stratum), so weights are checkable against interval measures.
fn sample_for(set: &IntervalSet, rng: &mut Lehmer64) -> StratifiedSampler<GroupKey, SampleTuple> {
    let mut s = StratifiedSampler::new(K);
    for iv in set.intervals() {
        for x in iv.lo..=iv.hi {
            s.offer(GroupKey::new(&[0]), SampleTuple::from_slice(&[x]), rng);
        }
    }
    s
}

fn interval() -> impl Strategy<Value = Interval> {
    (0i64..300, 0i64..80).prop_map(|(lo, w)| Interval::new(lo, lo + w))
}

/// The residual of a plan as one set along `x`.
fn residual(plan: &CoveragePlan) -> IntervalSet {
    plan.fragments.iter().fold(IntervalSet::empty(), |acc, f| {
        acc.union(f.get("x").unwrap())
    })
}

/// Check a single-sample plan for `qset` against the store it was made
/// on: a full hit iff a stored sample subsumes the query, a partial plan
/// leaves exactly `query − coverage` of its sample, and a miss means no
/// stored sample overlaps the query.
fn check_plan(store: &SampleStore, qset: &IntervalSet) {
    let plan = store.plan_coverage(&descriptor(qset.clone()), 1);
    let coverage = |id: SampleId| {
        store
            .peek(id)
            .unwrap()
            .descriptor
            .predicates
            .get("x")
            .unwrap()
            .clone()
    };
    let full = plan.samples.len() == 1 && plan.fragments.is_empty();
    let subsumed = store
        .descriptors()
        .any(|(_, d)| d.predicates.get("x").unwrap().subsumes(qset));
    prop_assert_eq!(full, subsumed);
    match plan.samples.first() {
        Some(&id) if full => prop_assert!(coverage(id).subsumes(qset)),
        Some(&id) => {
            let delta = residual(&plan);
            prop_assert_eq!(&delta, &qset.difference(&coverage(id)));
            prop_assert!(delta.measure() < qset.measure());
        }
        None => {
            for (_, d) in store.descriptors() {
                prop_assert!(!d.predicates.get("x").unwrap().overlaps(qset));
            }
        }
    }
}

/// Model bookkeeping after one store write (or touch) of `subject`:
/// move it to the front of the MRU list, then check the byte budget, that
/// budget evictions took exactly the least-recently-used samples (never
/// the subject), per-sample weight conservation, and that nothing is
/// stored that was never requested.
fn check_write(
    store: &SampleStore,
    mru: &mut Vec<SampleId>,
    subject: Option<SampleId>,
    evictions_before: u64,
    budget: Option<usize>,
    requested: &IntervalSet,
) {
    if let Some(id) = subject {
        mru.retain(|i| *i != id);
        mru.insert(0, id);
        // Protected from its own insertion's budget enforcement.
        prop_assert!(store.peek(id).is_some());
    }

    match budget {
        Some(budget) => prop_assert!(
            store.total_bytes() <= budget || store.len() <= 1,
            "budget violated: {} bytes across {} samples",
            store.total_bytes(),
            store.len()
        ),
        None => prop_assert_eq!(store.evictions(), 0),
    }

    // Budget evictions must take exactly the least-recently-used
    // samples (never the subject).
    let alive: HashSet<SampleId> = store.descriptors().map(|(i, _)| i).collect();
    let gone: Vec<SampleId> = mru.iter().copied().filter(|i| !alive.contains(i)).collect();
    prop_assert_eq!(gone.len() as u64, store.evictions() - evictions_before);
    let mut expected: Vec<SampleId> = mru
        .iter()
        .rev()
        .copied()
        .filter(|i| Some(*i) != subject)
        .take(gone.len())
        .collect();
    expected.sort();
    let mut gone_sorted = gone;
    gone_sorted.sort();
    prop_assert_eq!(gone_sorted, expected);
    mru.retain(|i| alive.contains(i));

    // Weight conservation per sample, under any interleaving.
    for s in store.iter_samples() {
        let cover = s.descriptor.predicates.get("x").unwrap();
        prop_assert_eq!(s.sample.total_weight(), cover.measure());
    }
    // Nothing stored that was never requested.
    let mut union = IntervalSet::empty();
    for (_, d) in store.descriptors() {
        union = union.union(d.predicates.get("x").unwrap());
    }
    prop_assert!(requested.subsumes(&union));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]
    #[test]
    fn coverage_plan_agrees_with_coverage_model(
        ops in prop::collection::vec(interval(), 1..12),
        queries in prop::collection::vec(interval(), 1..8),
    ) {
        let mut rng = Lehmer64::new(7);
        let mut store = SampleStore::new();

        // Drive the store as the lazy flow does: plan, then absorb what
        // the plan leaves uncovered (each residual fragment, or the whole
        // query on a miss). `absorb` merges a fragment disjoint along `x`
        // into its neighbour. The model tracks total covered ground.
        let mut model_coverage = IntervalSet::empty();
        for iv in &ops {
            let q = IntervalSet::of(*iv);
            let plan = store.plan_coverage(&descriptor(q.clone()), 1);
            if plan.samples.is_empty() {
                prop_assert!(!q.overlaps(&model_coverage));
                let s = sample_for(&q, &mut rng);
                store.absorb(descriptor(q.clone()), schema(), s, 0, &mut rng);
            } else {
                // Single-family workloads keep one consolidated sample, so
                // the residual is exactly what the model has not covered.
                prop_assert_eq!(residual(&plan), q.difference(&model_coverage));
                for frag in &plan.fragments {
                    let fset = frag.get("x").unwrap();
                    let s = sample_for(fset, &mut rng);
                    store.absorb(descriptor(fset.clone()), schema(), s, 0, &mut rng);
                }
            }
            model_coverage = model_coverage.union(&q);
        }

        // The union of stored coverages must equal the model's coverage.
        let mut stored_union = IntervalSet::empty();
        for (_, d) in store.descriptors() {
            stored_union = stored_union.union(d.predicates.get("x").unwrap());
        }
        prop_assert_eq!(&stored_union, &model_coverage);

        // Total stored weight equals covered ground: every integer was
        // absorbed exactly once (no double sampling from merges).
        let total_weight: u64 = store.iter_samples().map(|s| s.sample.total_weight()).sum();
        prop_assert_eq!(total_weight, model_coverage.measure());

        // Plans for arbitrary queries agree with the model.
        for q in &queries {
            check_plan(&store, &IntervalSet::of(*q));
        }
    }
}

// Coverage-planner model: for arbitrary fragmented stores (raw-inserted,
// possibly overlapping boxes on up to two columns) and arbitrary query
// boxes, `plan_coverage` must produce a plan that exactly tiles the
// query region:
//
// - at most `cap` selected samples, with pairwise-disjoint populations;
// - residual fragments pairwise disjoint and disjoint from every
//   selected sample's population;
// - measures add up: |query| = Σ|selected ∩ query| + Σ|fragment| — the
//   plan neither double-covers nor drops any part of the query region;
// - an empty residual means the selection alone covers the query.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]
    #[test]
    fn coverage_plans_tile_the_query_region(
        stored in prop::collection::vec((interval(), interval(), any::<bool>()), 1..10),
        queries in prop::collection::vec((interval(), interval(), any::<bool>()), 1..8),
        cap in 1usize..6,
    ) {
        fn boxed(x: &Interval, y: &Interval, constrain_y: bool) -> Predicates {
            let p = Predicates::on("x", IntervalSet::of(*x));
            if constrain_y {
                p.with("y", IntervalSet::of(*y))
            } else {
                p
            }
        }
        fn descriptor2(preds: Predicates) -> SampleDescriptor {
            SampleDescriptor::new(
                "t",
                vec!["g".into()],
                vec!["x".into(), "y".into()],
                preds,
                K,
            )
        }

        let mut rng = Lehmer64::new(23);
        let mut store = SampleStore::new();
        for (x, y, cy) in &stored {
            let p = boxed(x, y, *cy);
            let s = sample_for(p.get("x").unwrap(), &mut rng);
            store.insert_raw(descriptor2(p), schema(), s, 0);
        }

        for (x, y, cy) in &queries {
            let qp = boxed(x, y, *cy);
            let plan = store.plan_coverage(&descriptor2(qp.clone()), cap);
            prop_assert!(plan.samples.len() <= cap);

            let selected: Vec<Predicates> = plan
                .samples
                .iter()
                .map(|id| store.peek(*id).unwrap().descriptor.predicates.clone())
                .collect();
            // Selected populations pairwise disjoint (merging two
            // overlapping samples would double-count their shared rows).
            for i in 0..selected.len() {
                for j in i + 1..selected.len() {
                    prop_assert!(selected[i].intersect(&selected[j]).is_none());
                }
            }
            // Fragments pairwise disjoint and disjoint from every
            // selected population.
            for i in 0..plan.fragments.len() {
                for j in i + 1..plan.fragments.len() {
                    prop_assert!(plan.fragments[i].intersect(&plan.fragments[j]).is_none());
                }
                for s in &selected {
                    prop_assert!(plan.fragments[i].intersect(s).is_none());
                }
                // Fragments live inside the query box.
                let inside = plan.fragments[i].intersect(&qp);
                prop_assert_eq!(
                    inside.map(|p| p.box_measure()),
                    Some(plan.fragments[i].box_measure())
                );
            }
            // Exact tiling: covered + residual measures sum to the query
            // box measure.
            let covered: u128 = selected
                .iter()
                .map(|s| s.intersect(&qp).map(|p| p.box_measure()).unwrap_or(0))
                .sum();
            let residual: u128 = plan.fragments.iter().map(|f| f.box_measure()).sum();
            prop_assert_eq!(covered + residual, qp.box_measure());
            prop_assert_eq!(plan.residual_measure(), residual);
            if plan.fragments.is_empty() {
                prop_assert_eq!(covered, qp.box_measure());
            }
        }
    }
}

// Second model: arbitrary interleavings of query-driven absorb/merge,
// raw insertion (snapshot restore), and explicit eviction, optionally
// under a byte budget with LRU eviction. The reference model tracks,
// after every single operation:
//
// - the just-written sample is never evicted by its own insertion;
// - the byte budget holds (down to a single protected sample);
// - budget evictions remove exactly the least-recently-used samples;
// - every surviving sample's total weight equals its coverage measure
//   (no interleaving of merges and evictions double-counts or loses a
//   tuple);
// - nothing is ever stored that was not requested.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]
    #[test]
    fn interleavings_with_eviction_preserve_model(
        ops in prop::collection::vec((0u8..4, 0i64..300, 0i64..80, 0u64..8), 1..20),
        budgeted in any::<bool>(),
    ) {
        let mut rng = Lehmer64::new(11);
        // Roughly three full reservoirs fit: eviction pressure is real but
        // not degenerate.
        let budget =
            sample_for(&IntervalSet::of(Interval::new(0, 299)), &mut Lehmer64::new(1))
                .heap_bytes()
                * 3;
        let mut store = if budgeted {
            SampleStore::with_budget(budget)
        } else {
            SampleStore::new()
        };
        let mut requested = IntervalSet::empty();
        // Front = most recently used; mirrors the store's LRU stamps.
        let mut mru: Vec<SampleId> = Vec::new();

        for (kind, lo, w, pick) in &ops {
            let q = IntervalSet::of(Interval::new(*lo, lo + w));
            let budget = budgeted.then_some(budget);
            match kind {
                // Query-driven, as the lazy flow behaves: plan, then
                // reuse, absorb each residual fragment, or absorb the
                // whole query. Every write is one model step.
                0 | 1 => {
                    requested = requested.union(&q);
                    let plan = store.plan_coverage(&descriptor(q.clone()), 1);
                    match plan.samples.first() {
                        Some(&id) if plan.fragments.is_empty() => {
                            let before = store.evictions();
                            store.get(id); // full reuse touches the LRU stamp
                            check_write(&store, &mut mru, Some(id), before, budget, &requested);
                        }
                        Some(_) => {
                            for frag in &plan.fragments {
                                let fset = frag.get("x").unwrap();
                                let s = sample_for(fset, &mut rng);
                                let before = store.evictions();
                                let id = store.absorb(descriptor(fset.clone()), schema(), s, 0, &mut rng);
                                check_write(&store, &mut mru, Some(id), before, budget, &requested);
                            }
                        }
                        None => {
                            let s = sample_for(&q, &mut rng);
                            let before = store.evictions();
                            let id = store.absorb(descriptor(q.clone()), schema(), s, 0, &mut rng);
                            check_write(&store, &mut mru, Some(id), before, budget, &requested);
                        }
                    }
                }
                // Raw insertion (snapshot restore): bypasses merge/replace,
                // may duplicate coverage across samples.
                2 => {
                    requested = requested.union(&q);
                    let s = sample_for(&q, &mut rng);
                    let before = store.evictions();
                    let id = store.insert_raw(descriptor(q.clone()), schema(), s, 0);
                    check_write(&store, &mut mru, Some(id), before, budget, &requested);
                }
                // Explicit eviction of an arbitrary stored sample.
                _ => {
                    let before = store.evictions();
                    if !mru.is_empty() {
                        let victim = mru[(*pick as usize) % mru.len()];
                        prop_assert!(store.remove(victim));
                        prop_assert!(store.peek(victim).is_none());
                        mru.retain(|i| *i != victim);
                    }
                    check_write(&store, &mut mru, None, before, budget, &requested);
                }
            }
        }

        // Surviving coverage still plans consistently.
        for (_, lo, w, _) in &ops {
            check_plan(&store, &IntervalSet::of(Interval::new(*lo, lo + w)));
        }
    }
}
