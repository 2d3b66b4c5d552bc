//! Batches: the unit of pipelined processing.
//!
//! DIDO applies pipeline configurations *per batch*: "we embed the
//! pipeline information into each batch to make all pipeline stages know
//! how to process the queries in it. This mechanism ensures that queries
//! can be handled correctly when the pipeline is changed at runtime"
//! (§III-B-1). A [`Batch`] therefore carries its own
//! [`PipelineConfig`] plus all per-query intermediate state.

use bytes::Bytes;
use dido_hashtable::Candidates;
use dido_kvstore::PurgedEntry;
use dido_model::{BatchTally, PipelineConfig, Query, Response, WAVEFRONT_WIDTH};
use std::ops::Range;

/// Per-query pipeline state, filled in task by task.
#[derive(Debug, Clone, Default)]
pub struct QueryState {
    /// Index-search candidates (after `IN`-Search).
    pub candidates: Candidates,
    /// Resolved object location and the incarnation `KC` found there.
    pub loc: Option<(u64, u8)>,
    /// Newly allocated location and incarnation for a SET (after `MM`).
    pub new_loc: Option<(u64, u8)>,
    /// Where the query's value landed in the batch's [`StagingArena`]
    /// (after `RD`). Modelled as the sequential staging buffer of the
    /// paper (§III-A); an offset range instead of an owned buffer so the
    /// steady-state `RD`→`WR` path performs zero per-query allocations.
    pub staged: Option<Range<u32>>,
    /// Final response (after `WR`).
    pub response: Option<Response>,
}

/// The per-batch staging buffer `RD` writes values into and `WR` reads
/// them back out of (the paper's sequential staging buffer, §III-A).
///
/// Values are appended to one growable buffer and addressed by
/// `u32` offset ranges kept in [`QueryState::staged`], so the hot path
/// never allocates per query. When `WR` needs responses the arena is
/// *frozen* — the buffer is converted to [`Bytes`] once, after which
/// every response value is a zero-copy slice of that single allocation.
#[derive(Debug, Default)]
pub struct StagingArena {
    buf: Vec<u8>,
    frozen: Option<Bytes>,
}

impl StagingArena {
    /// An empty arena.
    #[must_use]
    pub fn new() -> StagingArena {
        StagingArena::default()
    }

    /// Bytes staged so far (before freezing).
    #[must_use]
    pub fn len(&self) -> usize {
        match &self.frozen {
            Some(b) => b.len(),
            None => self.buf.len(),
        }
    }

    /// Whether nothing has been staged.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Stage one value: `fill` appends bytes to the arena buffer (e.g.
    /// via `ObjectStore::read_value`) and the written extent is returned
    /// as an offset range for [`QueryState::staged`].
    ///
    /// # Panics
    /// Panics if the arena is already frozen — `RD` must never stage
    /// after `WR` started reading the same batch.
    pub fn stage_with(
        &mut self,
        size_hint: usize,
        fill: impl FnOnce(&mut Vec<u8>),
    ) -> Range<u32> {
        assert!(
            self.frozen.is_none(),
            "staging into a frozen arena (RD after WR on the same batch)"
        );
        self.buf.reserve(size_hint);
        let start = u32::try_from(self.buf.len()).expect("staging arena exceeds 4 GiB");
        fill(&mut self.buf);
        let end = u32::try_from(self.buf.len()).expect("staging arena exceeds 4 GiB");
        start..end
    }

    /// Freeze the arena (idempotent) and return the zero-copy [`Bytes`]
    /// view of `range`. The first call converts the buffer into one
    /// shared allocation; every subsequent slice just bumps a refcount.
    ///
    /// # Panics
    /// Panics if `range` is out of bounds (a range not produced by
    /// [`StagingArena::stage_with`] on this arena).
    pub fn frozen_slice(&mut self, range: &Range<u32>) -> Bytes {
        let frozen = self
            .frozen
            .get_or_insert_with(|| Bytes::from(std::mem::take(&mut self.buf)));
        frozen.slice(range.start as usize..range.end as usize)
    }
}

/// A batch of queries moving through the pipeline together.
#[derive(Debug)]
pub struct Batch {
    /// The pipeline configuration embedded in this batch.
    pub config: PipelineConfig,
    /// The queries.
    pub queries: Vec<Query>,
    /// Per-query pipeline state (same length as `queries`).
    pub state: Vec<QueryState>,
    /// The staging buffer `RD` writes values into (see [`StagingArena`]).
    pub arena: StagingArena,
    /// Per-wavefront slot-recycle generation snapshots, indexed by
    /// `query_index / 64`. `IN`-Search records the store's generation
    /// before it probes a wavefront's GETs; `KC` and `RD` recheck it —
    /// unchanged means no slot anywhere was recycled and no replaced
    /// version freed since, so a miss is final and the copies are
    /// untorn without a per-query recheck. Truncated to `u32`: wrapping
    /// 2^32 recycles while one batch is in flight is impossible.
    pub wf_gens: Vec<u32>,
    /// Objects that died making room for this batch's SETs — CLOCK
    /// victims and the expired objects a crawl chunk freed — appended by
    /// `MM` in query order; `IN`-Delete unlinks them from the index
    /// ahead of the explicit DELETEs.
    pub dead: Vec<PurgedEntry>,
    /// The versions this batch's upserts took out of the index, as
    /// `(location, incarnation)`, appended by `IN`-Insert.
    /// [`crate::KvEngine::run_batch`], the serving executor, frees them
    /// once the batch's last stage has run; the reproduction's simulator
    /// leaves them to CLOCK (DESIGN.md §17).
    pub replaced: Vec<(u64, u8)>,
    /// What the batch did. [`Batch::new`] counts the op mix;
    /// [`Batch::take_responses`] adds the hits.
    pub tally: BatchTally,
}

impl Batch {
    /// Wrap queries into a batch under `config`.
    #[must_use]
    pub fn new(queries: Vec<Query>, config: PipelineConfig) -> Batch {
        let n = queries.len();
        let mut tally = BatchTally::default();
        for q in &queries {
            tally.count_query(q);
        }
        Batch {
            config,
            tally,
            state: vec![QueryState::default(); n],
            arena: StagingArena::new(),
            wf_gens: vec![0; n.div_ceil(WAVEFRONT_WIDTH)],
            dead: Vec::new(),
            replaced: Vec::new(),
            queries,
        }
    }

    /// Number of queries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the batch holds no queries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// Collect responses in query order, counting the hits into
    /// [`Batch::tally`] on the way out.
    ///
    /// # Panics
    /// Panics if some query has no response yet (`WR` has not run).
    #[must_use]
    pub fn take_responses(&mut self) -> Vec<Response> {
        let tally = &mut self.tally;
        let answered = self.state.iter_mut().zip(&self.queries);
        answered
            .map(|(s, q)| {
                let r = s.response.take().expect("WR must have produced a response");
                tally.count_response(q.op, &r);
                r
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_counts_the_op_mix_and_take_responses_the_hits() {
        let b = Batch::new(Vec::new(), PipelineConfig::mega_kv());
        assert!(b.wf_gens.is_empty());
        assert!(b.is_empty());
        assert_eq!(b.tally, BatchTally::default());

        let queries = vec![
            Query::get("hit"),
            Query::get("miss"),
            Query::set("k", vec![0u8; 64]),
            Query::delete("gone"),
        ];
        let mut b = Batch::new(queries, PipelineConfig::mega_kv());
        let mix = BatchTally {
            queries: 4,
            gets: 2,
            deletes: 1,
            key_bytes: 3 + 4 + 1 + 4,
            set_value_bytes: 64,
            ..BatchTally::default()
        };
        assert_eq!(b.tally, mix);
        let answers = [
            Response::hit("value"),
            Response::not_found(),
            Response::ok(),
            Response::ok(),
        ];
        for (s, r) in b.state.iter_mut().zip(answers) {
            s.response = Some(r);
        }
        assert_eq!(b.take_responses().len(), 4);
        // Only the GET answered `Ok` is a hit: not the SET's or the
        // DELETE's `Ok`.
        let with_hits = BatchTally {
            hits: 1,
            hit_value_bytes: 5,
            ..mix
        };
        assert_eq!(b.tally, with_hits);
    }

    #[test]
    #[should_panic(expected = "WR must have produced")]
    fn take_responses_requires_wr() {
        let mut b = Batch::new(vec![Query::get("k")], PipelineConfig::mega_kv());
        let _ = b.take_responses();
    }
}
