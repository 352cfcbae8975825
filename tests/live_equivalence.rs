//! Live-set equivalence: every read over sets with pending deltas —
//! counts, k-way AND and OR, boolean queries and the four pair ops —
//! answers exactly what a `BTreeSet` oracle of the live contents
//! answers, through both read surfaces ([`fesia_core::Snapshot`] and
//! [`fesia_serve::ServeView`]), on operands the planner sends to each
//! of its pair plans and k-way strategies (asserted over the bases).
//!
//! A live set is an immutable base plus sorted `added`/`deleted` lists.
//! The churn below drives every list transition a writer can cause: adds
//! of new elements, deletes of base elements, re-adds of deleted
//! elements (which empty the delete entry again) and deletes of pending
//! adds (which empty the add entry again). Operands mix tiered and
//! untiered bases (4095 and 4096 elements sit either side of the tier
//! build floor), three dense tiered windows, small skewed sets, and sets
//! with and without deltas. `ServeView` has no `set_op`; its intersect, union
//! and difference run as the equivalent k-way and boolean reads, and xor
//! runs through `Snapshot` only.

use fesia_core::{
    DynamicSet, FesiaParams, IntersectPlanner, KernelTable, SetOp, SetStore, SetSummary,
};
use fesia_datagen::SplitMix64;
use fesia_serve::{ServeConfig, ServeStore, ServeView, WriteOp};
use std::collections::BTreeSet;

const NUM_SETS: usize = 7;

fn random_fill(rng: &mut SplitMix64, s: &mut BTreeSet<u32>, n: usize, lo: u32, hi: u32) {
    while s.len() < n {
        s.insert(lo + rng.below(u64::from(hi - lo)) as u32);
    }
}

/// The seven bases: 4095 elements (no tier), 4096 (tier), three dense
/// windows (bitmap containers, together past the planner's container
/// floor), and two small sets that skew against the rest. All share a
/// core so every intersection is non-trivial.
fn bases(seed: u64) -> Vec<BTreeSet<u32>> {
    let mut rng = SplitMix64::new(0x11FE ^ (seed << 8));
    let window = (1u32 << 16, (1u32 << 16) + 30_000);
    let mut core = BTreeSet::new();
    random_fill(&mut rng, &mut core, 150, window.0, window.1);
    let shapes: [(usize, u32, u32); NUM_SETS] = [
        (4_095, 0, 1 << 17),
        (4_096, 0, 1 << 17),
        (20_000, window.0, window.1),
        (20_000, window.0, window.1),
        (20_000, window.0, window.1),
        (600, 0, 1 << 17),
        (300, 0, 1 << 17),
    ];
    shapes
        .iter()
        .map(|&(n, lo, hi)| {
            let mut s = core.clone();
            random_fill(&mut rng, &mut s, n, lo, hi);
            s
        })
        .collect()
}

/// One write against set `id`: `true` adds, `false` deletes.
type Write = (usize, bool, u32);

/// The churn for the first `churned` sets: adds of new elements (half
/// drawn from the other sets, so they land in other bases), deletes of
/// base elements, deletes that are re-added, and adds that are deleted
/// again. Small sets get proportionally less churn, so no delta crosses
/// the rebuild fraction and every churned set still carries its delta
/// when read.
fn churn(bases: &[BTreeSet<u32>], churned: usize, seed: u64) -> Vec<Write> {
    let mut rng = SplitMix64::new(0xC4u64 ^ (seed << 12));
    let all: Vec<u32> = bases.iter().flatten().copied().collect();
    let mut ops = Vec::new();
    for (id, base) in bases.iter().enumerate().take(churned) {
        let n = (base.len() / 10).min(40);
        let members: Vec<u32> = base.iter().copied().collect();
        let pick_member = |rng: &mut SplitMix64| members[rng.below(members.len() as u64) as usize];
        let fresh = |rng: &mut SplitMix64| loop {
            let x = if rng.below(2) == 0 {
                all[rng.below(all.len() as u64) as usize]
            } else {
                rng.below(1 << 17) as u32
            };
            if !base.contains(&x) {
                return x;
            }
        };
        for _ in 0..n {
            ops.push((id, true, fresh(&mut rng)));
            ops.push((id, false, pick_member(&mut rng)));
        }
        for _ in 0..n / 4 {
            let x = pick_member(&mut rng);
            ops.push((id, false, x));
            ops.push((id, true, x));
            let y = fresh(&mut rng);
            ops.push((id, true, y));
            ops.push((id, false, y));
        }
    }
    ops
}

/// One read shape, answered by the oracle and by both surfaces.
#[derive(Debug, Clone)]
enum Query {
    Count(u32, u32),
    And(Vec<u32>),
    Or(Vec<u32>),
    Bool(Vec<u32>, Vec<u32>, Vec<u32>),
    Pair(u32, u32, SetOp),
}

fn queries() -> Vec<Query> {
    let n = NUM_SETS as u32;
    let mut q = Vec::new();
    for a in 0..n {
        for b in a..n {
            q.push(Query::Count(a, b));
        }
    }
    for k in 1..=4u32 {
        for start in 0..n {
            let ids: Vec<u32> = (0..k).map(|i| (start + i) % n).collect();
            q.push(Query::And(ids.clone()));
            q.push(Query::Or(ids));
        }
    }
    // Every must/should/must_not arity in 0..=2, rotating the operands.
    let mut rot = 0u32;
    for nm in 0..=2u32 {
        for ns in 0..=2u32 {
            for nn in 0..=2u32 {
                let ids: Vec<u32> = (0..nm + ns + nn).map(|i| (rot + i) % n).collect();
                let (must, rest) = ids.split_at(nm as usize);
                let (should, not) = rest.split_at(ns as usize);
                q.push(Query::Bool(must.to_vec(), should.to_vec(), not.to_vec()));
                rot += 1;
            }
        }
    }
    for a in 0..n {
        for b in [(a + 1) % n, (a + 2) % n] {
            for op in [
                SetOp::Intersect,
                SetOp::Union,
                SetOp::Difference,
                SetOp::Xor,
            ] {
                q.push(Query::Pair(a, b, op));
            }
        }
    }
    q
}

/// The expected answer: a count, or a materialized ascending set.
#[derive(Debug, PartialEq)]
enum Answer {
    Count(usize),
    Elems(Vec<u32>),
}

fn oracle(live: &[BTreeSet<u32>], q: &Query) -> Answer {
    let set = |id: &u32| &live[*id as usize];
    let and = |ids: &[u32]| -> BTreeSet<u32> {
        let mut acc = set(&ids[0]).clone();
        for id in &ids[1..] {
            acc.retain(|x| set(id).contains(x));
        }
        acc
    };
    let or = |ids: &[u32]| -> BTreeSet<u32> { ids.iter().flat_map(set).copied().collect() };
    let elems = |s: BTreeSet<u32>| Answer::Elems(s.into_iter().collect());
    match q {
        Query::Count(a, b) => Answer::Count(set(a).intersection(set(b)).count()),
        Query::And(ids) => elems(and(ids)),
        Query::Or(ids) => elems(or(ids)),
        Query::Bool(must, should, not) => {
            let mut acc = if !must.is_empty() {
                and(must)
            } else if !should.is_empty() {
                or(should)
            } else {
                return Answer::Elems(Vec::new());
            };
            if !must.is_empty() && !should.is_empty() {
                let any = or(should);
                acc.retain(|x| any.contains(x));
            }
            let none = or(not);
            acc.retain(|x| !none.contains(x));
            elems(acc)
        }
        Query::Pair(a, b, op) => {
            let (a, b) = (set(a), set(b));
            elems(match op {
                SetOp::Intersect => a.intersection(b).copied().collect(),
                SetOp::Union => a.union(b).copied().collect(),
                SetOp::Difference => a.difference(b).copied().collect(),
                SetOp::Xor => a.symmetric_difference(b).copied().collect(),
            })
        }
    }
}

/// Every answer a surface gives for `q` (an AND yields its count and its
/// elements, each checked against the oracle).
fn snapshot_answers(snap: &fesia_core::Snapshot<'_>, q: &Query, t: &KernelTable) -> Vec<Answer> {
    match q {
        Query::Count(a, b) => vec![Answer::Count(snap.count(*a, *b, t).unwrap())],
        Query::And(ids) => vec![
            Answer::Count(snap.kway_count(ids, t).unwrap()),
            Answer::Elems(snap.kway_intersect(ids, t).unwrap()),
        ],
        Query::Or(ids) => vec![Answer::Elems(snap.kway_union(ids).unwrap())],
        Query::Bool(must, should, not) => {
            vec![Answer::Elems(snap.boolean(must, should, not, t).unwrap())]
        }
        Query::Pair(a, b, op) => vec![Answer::Elems(snap.set_op(*a, *b, *op).unwrap())],
    }
}

fn view_answers(view: &ServeView<'_>, q: &Query, t: &KernelTable) -> Vec<Answer> {
    match q {
        Query::Count(a, b) => vec![Answer::Count(view.count(*a, *b, t))],
        Query::And(ids) => vec![
            Answer::Count(view.kway_count(ids, t)),
            Answer::Elems(view.kway_intersect(ids, t)),
        ],
        Query::Or(ids) => vec![Answer::Elems(view.kway_union(ids))],
        Query::Bool(must, should, not) => vec![Answer::Elems(view.boolean(must, should, not, t))],
        Query::Pair(a, b, op) => match op {
            SetOp::Intersect => vec![Answer::Elems(view.kway_intersect(&[*a, *b], t))],
            SetOp::Union => vec![Answer::Elems(view.kway_union(&[*a, *b]))],
            SetOp::Difference => vec![Answer::Elems(view.boolean(&[*a], &[], &[*b], t))],
            SetOp::Xor => Vec::new(),
        },
    }
}

fn expand(want: Answer, q: &Query) -> Vec<Answer> {
    match (q, want) {
        (Query::And(_), Answer::Elems(v)) => vec![Answer::Count(v.len()), Answer::Elems(v)],
        (_, a) => vec![a],
    }
}

/// Churn `churned` of the seven sets into a snapshot store and a served
/// store, then check every query shape.
fn sweep(seed: u64, churned: usize) {
    let params = FesiaParams::auto();
    let table = KernelTable::auto();
    let bases = bases(seed);
    let writes = churn(&bases, churned, seed);

    let mut live = bases.clone();
    let mut dynamic: Vec<DynamicSet> = bases
        .iter()
        .map(|b| DynamicSet::build(&b.iter().copied().collect::<Vec<_>>(), &params).unwrap())
        .collect();
    let served = ServeStore::new(ServeConfig::from_env().with_shards(2).with_params(params));
    for (id, b) in bases.iter().enumerate() {
        served.seed(id as u32, &b.iter().copied().collect::<Vec<_>>());
    }
    let mut ops = Vec::new();
    for &(id, add, x) in &writes {
        if add {
            live[id].insert(x);
            dynamic[id].insert_deferred(x).unwrap();
            ops.push(WriteOp::Add {
                set: id as u32,
                elem: x,
            });
        } else {
            live[id].remove(&x);
            dynamic[id].remove_deferred(x).unwrap();
            ops.push(WriteOp::Del {
                set: id as u32,
                elem: x,
            });
        }
    }
    served.apply_batch(&ops);
    served.quiesce();

    let store = SetStore::from_dynamic(dynamic);
    let snap = store.pin();
    let view = served.view();
    for (id, want) in live.iter().enumerate() {
        let (s, v) = (snap.get(id as u32).unwrap().set(), view.resolve(id as u32));
        assert_eq!(s.to_sorted_vec(), want.iter().copied().collect::<Vec<_>>());
        assert_eq!(v.to_sorted_vec(), s.to_sorted_vec(), "set {id}");
        let carries = s.delta_len() > 0 && v.delta_len() > 0;
        assert_eq!(carries, id < churned, "set {id}: delta coverage");
        if id < churned {
            assert!(
                !s.added().is_empty() && !s.deleted().is_empty(),
                "set {id} should carry both delta lists"
            );
        }
    }
    assert!(
        snap.get(0).unwrap().set().base().container().is_none(),
        "4095 elements build no tier"
    );
    assert!(snap.get(1).unwrap().set().base().container().is_some());

    // The queries reach every pair plan and k-way strategy: the planner
    // plans live reads over the bases.
    let planner = IntersectPlanner::current();
    let sums: Vec<SetSummary> = (0..NUM_SETS as u32)
        .map(|id| SetSummary::of(snap.get(id).unwrap().set().base()))
        .collect();
    let pair = |a: usize, b: usize| planner.plan_pair(&sums[a], &sums[b]).name();
    let kway = |ids: &[usize]| {
        let s: Vec<SetSummary> = ids.iter().map(|&i| sums[i]).collect();
        planner.plan_kway(&s).strategy.name()
    };
    assert_eq!(
        [pair(0, 1), pair(1, 6), pair(2, 3)],
        ["plain", "hash", "container"]
    );
    assert_eq!(
        [kway(&[0, 1, 2]), kway(&[1, 2, 3]), kway(&[2, 3, 4])],
        ["scan", "probe", "container"]
    );

    let qs = queries();
    for q in &qs {
        let want = expand(oracle(&live, q), q);
        let how = format!("seed={seed} churned={churned} {q:?}");
        assert_eq!(snapshot_answers(&snap, q, &table), want, "snapshot {how}");
        let got = view_answers(&view, q, &table);
        assert_eq!(got[..], want[..got.len()], "serve view {how}");
    }
}

#[test]
fn two_churned_sets_among_delta_free_ones_match_the_oracle() {
    sweep(1, 2);
}

#[test]
fn five_churned_sets_match_the_oracle() {
    sweep(2, 5);
}

/// Every base carries a delta, the small skewed sets included, so the
/// hash-probed pairs and the boolean reads over them run on live
/// operands on both sides.
#[test]
fn every_churned_set_matches_the_oracle() {
    sweep(3, NUM_SETS);
}
