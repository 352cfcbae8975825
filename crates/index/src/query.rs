//! Keyword-query workload and execution over the inverted index.
//!
//! Reproduces the protocol of the paper's database query task (§VII-F):
//! random multi-keyword queries whose intersection size stays below 20% of
//! the input size, executed as k-way posting-list intersections by any
//! baseline [`Method`] or by FESIA over pre-encoded posting lists.

use crate::corpus::InvertedIndex;
use fesia_baselines::Method;
use fesia_core::{FesiaParams, KernelTable, SegmentedSet, SetStore, Snapshot};
use fesia_datagen::SplitMix64;
use fesia_exec::Executor;
use std::time::{Duration, Instant};

/// A conjunctive keyword query: the term ids to intersect.
#[derive(Debug, Clone)]
pub struct Query {
    /// Term ids, in no particular order.
    pub terms: Vec<u32>,
}

/// Workload-generation knobs.
#[derive(Debug, Clone, Copy)]
pub struct QueryGenParams {
    /// Keywords per query (2 or 3 in Fig. 12).
    pub k: usize,
    /// Number of queries.
    pub count: usize,
    /// Accept a query only if `r <= cap * min(posting lengths)`
    /// (the paper keeps intersections below 20% of the input).
    pub selectivity_cap: f64,
    /// Minimum document frequency of sampled terms (excludes near-empty
    /// posting lists that would make the query trivial).
    pub min_doc_freq: usize,
    /// Maximum ratio `min(df) / max(df)` of the sampled terms — set below
    /// 1.0 to generate the *skewed* query workloads of Fig. 12 (bottom).
    pub max_skew: f64,
    /// Generator seed.
    pub seed: u64,
}

impl Default for QueryGenParams {
    fn default() -> Self {
        QueryGenParams {
            k: 2,
            count: 100,
            selectivity_cap: 0.2,
            min_doc_freq: 64,
            max_skew: 1.0,
            seed: 0xF51A,
        }
    }
}

/// Sample a query workload satisfying the paper's selectivity protocol.
pub fn generate_queries(index: &InvertedIndex, params: &QueryGenParams) -> Vec<Query> {
    assert!(
        params.k >= 2,
        "a conjunctive query needs at least two terms"
    );
    let mut rng = SplitMix64::new(params.seed);
    let eligible: Vec<u32> = (0..index.num_terms() as u32)
        .filter(|&t| index.doc_freq(t) >= params.min_doc_freq)
        .collect();
    assert!(
        eligible.len() >= params.k,
        "corpus has too few frequent terms for the requested workload"
    );
    let mut queries = Vec::with_capacity(params.count);
    let mut attempts = 0usize;
    let attempt_budget = params.count * 10_000;
    while queries.len() < params.count {
        attempts += 1;
        assert!(
            attempts < attempt_budget,
            "query generation did not converge; relax the caps"
        );
        let mut terms: Vec<u32> = Vec::with_capacity(params.k);
        while terms.len() < params.k {
            let t = eligible[rng.below(eligible.len() as u64) as usize];
            if !terms.contains(&t) {
                terms.push(t);
            }
        }
        let dfs: Vec<usize> = terms.iter().map(|&t| index.doc_freq(t)).collect();
        let min_df = *dfs.iter().min().unwrap();
        let max_df = *dfs.iter().max().unwrap();
        let skew = min_df as f64 / max_df as f64;
        if params.max_skew < 1.0 && skew > params.max_skew {
            continue;
        }
        let r = reference_kway(index, &terms);
        if (r as f64) <= params.selectivity_cap * min_df as f64 {
            queries.push(Query { terms });
        }
    }
    queries
}

/// Exact answer size via repeated sorted merges (the correctness oracle).
pub fn reference_kway(index: &InvertedIndex, terms: &[u32]) -> usize {
    let mut lists: Vec<&[u32]> = terms.iter().map(|&t| index.posting(t)).collect();
    lists.sort_by_key(|l| l.len());
    let mut acc: Vec<u32> = lists[0].to_vec();
    for l in &lists[1..] {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < acc.len() && j < l.len() {
            match acc[i].cmp(&l[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    out.push(acc[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        acc = out;
    }
    acc.len()
}

/// Execute a query workload with a baseline method; returns the total
/// result count and the elapsed wall time.
pub fn run_queries_baseline(
    index: &InvertedIndex,
    queries: &[Query],
    method: Method,
) -> (usize, Duration) {
    let start = Instant::now();
    let mut total = 0usize;
    for q in queries {
        let lists: Vec<&[u32]> = q.terms.iter().map(|&t| index.posting(t)).collect();
        total += method.kway_count(&lists);
    }
    (total, start.elapsed())
}

/// A boolean keyword query over the index: documents containing every
/// `must` term AND (when `should` is non-empty) at least one `should`
/// term, minus every `must_not` term. A query with neither `must` nor
/// `should` terms matches nothing.
#[derive(Debug, Clone, Default)]
pub struct BooleanQuery {
    /// Terms every matching document must contain (AND).
    pub must: Vec<u32>,
    /// Terms of which a matching document must contain at least one (OR).
    pub should: Vec<u32>,
    /// Terms no matching document may contain (NOT).
    pub must_not: Vec<u32>,
}

/// Posting lists pre-encoded as FESIA segmented sets (the offline phase
/// whose construction time §VII-F reports separately), served out of an
/// epoch-pinned [`SetStore`]: every read entry point pins a
/// [`Snapshot`] and resolves term ids through it, so a live writer
/// (e.g. `fesia-serve` feeding document updates through
/// [`FesiaIndex::store`]) never blocks or tears a running query.
pub struct FesiaIndex {
    store: SetStore,
    num_terms: usize,
    /// Wall time of the offline encoding pass.
    pub construction_time: Duration,
}

impl FesiaIndex {
    /// Encode every posting list.
    pub fn build(index: &InvertedIndex, params: &FesiaParams) -> FesiaIndex {
        let start = Instant::now();
        let sets: Vec<SegmentedSet> = (0..index.num_terms() as u32)
            .map(|t| {
                SegmentedSet::build(index.posting(t), params)
                    .expect("posting lists are sorted doc ids")
            })
            .collect();
        let num_terms = sets.len();
        FesiaIndex {
            store: SetStore::from_segmented(sets, *params),
            num_terms,
            construction_time: start.elapsed(),
        }
    }

    /// Pin the current posting catalog for reading. All queries against
    /// one snapshot see one consistent published version.
    pub fn snapshot(&self) -> Snapshot<'_> {
        self.store.pin()
    }

    /// The underlying store (writers publish posting updates here).
    pub fn store(&self) -> &SetStore {
        &self.store
    }

    /// Total memory of all encodings.
    pub fn memory_bytes(&self) -> usize {
        let snap = self.store.pin();
        (0..self.num_terms as u32)
            .filter_map(|t| snap.get(t))
            .map(|r| r.set().base().memory_bytes())
            .sum()
    }

    /// Persist every posting-list encoding to a byte buffer (the artifact
    /// a search engine would write after the offline build). Posting
    /// lists with live deltas are folded into fresh encodings first.
    pub fn serialize(&self) -> Vec<u8> {
        let snap = self.store.pin();
        let sets: Vec<std::borrow::Cow<'_, SegmentedSet>> = (0..self.num_terms as u32)
            .map(|t| {
                let r = snap.get(t).expect("term ids are dense");
                if r.set().delta_len() == 0 {
                    std::borrow::Cow::Borrowed(r.set().base())
                } else {
                    let d = r.set().rebuilt().expect("live elements re-encode");
                    std::borrow::Cow::Owned(d.base().clone())
                }
            })
            .collect();
        fesia_core::serialize_many(&sets)
    }

    /// Load an index previously persisted with [`FesiaIndex::serialize`].
    pub fn deserialize(bytes: &[u8]) -> Result<FesiaIndex, fesia_core::DecodeError> {
        let start = Instant::now();
        let sets = fesia_core::deserialize_many(bytes)?;
        let num_terms = sets.len();
        // Postings re-encoded after a write must keep the file's segment
        // width, or they no longer pair with the untouched ones.
        let lane = sets
            .first()
            .map_or(FesiaParams::auto().segment, |s| s.lane());
        Ok(FesiaIndex {
            store: SetStore::from_segmented(sets, FesiaParams::auto().with_segment(lane)),
            num_terms,
            construction_time: start.elapsed(),
        })
    }

    /// Number of encoded posting lists.
    pub fn num_terms(&self) -> usize {
        self.num_terms
    }

    /// Execute a query workload with FESIA; returns the total result count
    /// and the elapsed (online-phase) wall time. The whole workload runs
    /// against one pinned snapshot, so a concurrent writer cannot tear it.
    pub fn run_queries(&self, queries: &[Query], table: &KernelTable) -> (usize, Duration) {
        fesia_obs::metrics().index_queries.add(queries.len() as u64);
        let snap = self.store.pin();
        let start = Instant::now();
        let mut total = 0usize;
        for q in queries {
            total += snap
                .kway_count(&q.terms, table)
                .expect("query terms are valid ids");
        }
        (total, start.elapsed())
    }

    /// [`FesiaIndex::run_queries`] parallelized across queries on the
    /// persistent executor, capped at `threads` participants. Queries are
    /// claimed dynamically, so a run of expensive queries (long posting
    /// lists) does not serialize on one thread the way a static
    /// split-by-query-index would.
    pub fn run_queries_par(
        &self,
        queries: &[Query],
        table: &KernelTable,
        threads: usize,
    ) -> (usize, Duration) {
        assert!(threads >= 1, "need at least one thread");
        fesia_obs::metrics().index_queries.add(queries.len() as u64);
        // One pin for the whole region: `Snapshot` is `Sync` and the
        // submitter blocks until every worker chunk completes, so every
        // participant reads the same published version.
        let snap = self.store.pin();
        let start = Instant::now();
        let total = Executor::global()
            .map_reduce(
                queries.len(),
                4,
                threads,
                |range| {
                    let mut acc = 0usize;
                    for q in &queries[range] {
                        acc += snap
                            .kway_count(&q.terms, table)
                            .expect("query terms are valid ids");
                    }
                    acc
                },
                |x, y| x + y,
            )
            .unwrap_or(0);
        (total, start.elapsed())
    }

    /// Answer one query with the matching *document ids* (ascending) —
    /// what a search engine actually returns, via the materializing k-way
    /// path. Posting lists are visited in the planner's k-way order
    /// (shortest first), which shrinks the candidate set fastest.
    pub fn retrieve(&self, query: &Query, table: &KernelTable) -> Vec<u32> {
        self.store
            .pin()
            .kway_intersect(&query.terms, table)
            .expect("query terms are valid ids")
    }

    /// Answer a [`BooleanQuery`] with the matching document ids
    /// (ascending), through the live-set executor
    /// ([`fesia_core::LiveQuery`]): the AND clause runs through the
    /// planned k-way intersection (a single must term with exclusions as
    /// a planned set-level difference), the OR clause through
    /// [`fesia_core::kway_union`], and the remaining clauses by probing
    /// candidates against the encoded posting lists — the NOT side is
    /// never materialized.
    pub fn run_boolean(&self, query: &BooleanQuery, table: &KernelTable) -> Vec<u32> {
        fesia_obs::metrics().index_boolean_queries.inc();
        self.store
            .pin()
            .boolean(&query.must, &query.should, &query.must_not, table)
            .expect("query terms are valid ids")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusParams;

    fn test_index() -> InvertedIndex {
        InvertedIndex::synthesize(&CorpusParams {
            num_docs: 3_000,
            num_terms: 2_000,
            avg_doc_len: 60,
            zipf_exponent: 1.0,
            seed: 21,
        })
    }

    #[test]
    fn generated_queries_respect_protocol() {
        let idx = test_index();
        let params = QueryGenParams {
            k: 2,
            count: 30,
            selectivity_cap: 0.2,
            min_doc_freq: 32,
            max_skew: 1.0,
            seed: 5,
        };
        let qs = generate_queries(&idx, &params);
        assert_eq!(qs.len(), 30);
        for q in &qs {
            assert_eq!(q.terms.len(), 2);
            let min_df = q.terms.iter().map(|&t| idx.doc_freq(t)).min().unwrap();
            assert!(min_df >= 32);
            let r = reference_kway(&idx, &q.terms);
            assert!(r as f64 <= 0.2 * min_df as f64, "selectivity cap violated");
        }
    }

    #[test]
    fn skewed_workload_has_skewed_lists() {
        let idx = test_index();
        let params = QueryGenParams {
            k: 2,
            count: 10,
            selectivity_cap: 0.5,
            min_doc_freq: 8,
            max_skew: 0.1,
            seed: 9,
        };
        for q in generate_queries(&idx, &params) {
            let dfs: Vec<usize> = q.terms.iter().map(|&t| idx.doc_freq(t)).collect();
            let skew = *dfs.iter().min().unwrap() as f64 / *dfs.iter().max().unwrap() as f64;
            assert!(skew <= 0.1, "skew {skew} too high");
        }
    }

    #[test]
    fn every_engine_returns_the_reference_answer() {
        let idx = test_index();
        let qs = generate_queries(
            &idx,
            &QueryGenParams {
                k: 3,
                count: 15,
                ..Default::default()
            },
        );
        let want: usize = qs.iter().map(|q| reference_kway(&idx, &q.terms)).sum();
        for m in Method::all() {
            let (got, _) = run_queries_baseline(&idx, &qs, m);
            assert_eq!(got, want, "method={}", m.name());
        }
        let fidx = FesiaIndex::build(&idx, &FesiaParams::auto());
        let (got, _) = fidx.run_queries(&qs, &KernelTable::auto());
        assert_eq!(got, want, "FESIA");
        assert!(fidx.construction_time > Duration::ZERO);
        assert!(fidx.memory_bytes() > 0);
    }

    #[test]
    fn parallel_query_execution_matches_serial() {
        let idx = test_index();
        let qs = generate_queries(
            &idx,
            &QueryGenParams {
                k: 2,
                count: 25,
                ..Default::default()
            },
        );
        let fidx = FesiaIndex::build(&idx, &FesiaParams::auto());
        let table = KernelTable::auto();
        let (want, _) = fidx.run_queries(&qs, &table);
        for threads in [1usize, 2, 8] {
            let (got, _) = fidx.run_queries_par(&qs, &table, threads);
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn retrieval_returns_the_exact_documents() {
        let idx = test_index();
        let qs = generate_queries(
            &idx,
            &QueryGenParams {
                k: 3,
                count: 10,
                ..Default::default()
            },
        );
        let fidx = FesiaIndex::build(&idx, &FesiaParams::auto());
        let table = KernelTable::auto();
        for q in &qs {
            // Reference: merge the raw posting lists.
            let mut lists: Vec<&[u32]> = q.terms.iter().map(|&t| idx.posting(t)).collect();
            lists.sort_by_key(|l| l.len());
            let mut want: Vec<u32> = lists[0].to_vec();
            for l in &lists[1..] {
                want.retain(|x| l.binary_search(x).is_ok());
            }
            assert_eq!(fidx.retrieve(q, &table), want);
        }
    }

    #[test]
    fn index_round_trips_through_serialization() {
        let idx = test_index();
        let qs = generate_queries(
            &idx,
            &QueryGenParams {
                k: 2,
                count: 10,
                ..Default::default()
            },
        );
        let fidx = FesiaIndex::build(&idx, &FesiaParams::auto());
        let table = KernelTable::auto();
        let (want, _) = fidx.run_queries(&qs, &table);
        let bytes = fidx.serialize();
        let loaded = FesiaIndex::deserialize(&bytes).unwrap();
        assert_eq!(loaded.num_terms(), fidx.num_terms());
        let (got, _) = loaded.run_queries(&qs, &table);
        assert_eq!(got, want);
        // Corruption is detected, not silently accepted.
        let mut bad = bytes.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x5A;
        assert!(FesiaIndex::deserialize(&bad).is_err());
    }

    /// A round-tripped index keeps the segment width it was built with:
    /// a posting re-encoded after a write must still pair with the
    /// untouched ones.
    #[test]
    fn a_round_tripped_16_bit_index_survives_a_write_and_rebuild() {
        let idx = test_index();
        let params = FesiaParams::auto().with_segment(fesia_core::LaneWidth::U16);
        let fidx = FesiaIndex::build(&idx, &params);
        let loaded = FesiaIndex::deserialize(&fidx.serialize()).unwrap();
        loaded.store().update(|cur, txn| {
            let mut s = cur.get(0).unwrap().set().clone();
            s.insert(idx.num_docs() as u32 + 7).unwrap();
            s.rebuild().unwrap();
            txn.push((0, Some(s)));
        });
        let q = Query { terms: vec![0, 1] };
        let want = reference_kway(&idx, &q.terms);
        let (got, _) = loaded.run_queries(std::slice::from_ref(&q), &KernelTable::auto());
        assert_eq!(got, want);
    }

    /// Naive boolean evaluation straight off the raw posting lists.
    fn reference_boolean(idx: &InvertedIndex, q: &BooleanQuery) -> Vec<u32> {
        use std::collections::BTreeSet;
        let posting = |t: u32| idx.posting(t).iter().copied().collect::<BTreeSet<u32>>();
        let mut acc: BTreeSet<u32> = if let Some((&first, rest)) = q.must.split_first() {
            let mut s = posting(first);
            for &t in rest {
                let p = posting(t);
                s.retain(|d| p.contains(d));
            }
            s
        } else if !q.should.is_empty() {
            let mut s = BTreeSet::new();
            for &t in &q.should {
                s.extend(posting(t));
            }
            s
        } else {
            return Vec::new();
        };
        if !q.must.is_empty() && !q.should.is_empty() {
            let mut any = BTreeSet::new();
            for &t in &q.should {
                any.extend(posting(t));
            }
            acc.retain(|d| any.contains(d));
        }
        for &t in &q.must_not {
            let p = posting(t);
            acc.retain(|d| !p.contains(d));
        }
        acc.into_iter().collect()
    }

    #[test]
    fn boolean_queries_match_the_naive_reference() {
        let idx = test_index();
        let fidx = FesiaIndex::build(&idx, &FesiaParams::auto());
        let table = KernelTable::auto();
        let mut rng = fesia_datagen::SplitMix64::new(0xB001);
        let eligible: Vec<u32> = (0..idx.num_terms() as u32)
            .filter(|&t| idx.doc_freq(t) >= 16)
            .collect();
        let mut pick = |n: usize| -> Vec<u32> {
            let mut out = Vec::new();
            while out.len() < n {
                let t = eligible[rng.below(eligible.len() as u64) as usize];
                if !out.contains(&t) {
                    out.push(t);
                }
            }
            out
        };
        let before = fesia_obs::metrics().index_boolean_queries.get();
        let mut ran = 0u64;
        for (n_must, n_should, n_not) in [
            (2, 0, 0),
            (1, 0, 1),
            (2, 2, 1),
            (0, 3, 1),
            (3, 0, 2),
            (0, 0, 1),
        ] {
            let q = BooleanQuery {
                must: pick(n_must),
                should: pick(n_should),
                must_not: pick(n_not),
            };
            assert_eq!(
                fidx.run_boolean(&q, &table),
                reference_boolean(&idx, &q),
                "must={n_must} should={n_should} not={n_not}"
            );
            ran += 1;
        }
        assert_eq!(
            fesia_obs::metrics().index_boolean_queries.get() - before,
            ran
        );
    }

    #[test]
    fn two_way_queries_also_agree() {
        let idx = test_index();
        let qs = generate_queries(
            &idx,
            &QueryGenParams {
                k: 2,
                count: 20,
                ..Default::default()
            },
        );
        let want: usize = qs.iter().map(|q| reference_kway(&idx, &q.terms)).sum();
        let fidx = FesiaIndex::build(&idx, &FesiaParams::auto());
        let (got, _) = fidx.run_queries(&qs, &KernelTable::auto());
        assert_eq!(got, want);
    }
}
