//! Micro-bench: corpus-size scalability of the radix scoreboard and the
//! streamed candidate engine (the 10^5 → 10^7-entity sweep).
//!
//! For each corpus size the bench generates a bounded-memory synthetic
//! Dirty corpus (`er_datasets::generate_scalability`), runs the standard
//! blocking workflow (Token Blocking + purging + filtering), and drives the
//! fused feature + scoring pass in two modes:
//!
//! * **streamed** — the chunked [`CandidateStream`] path: the pair index
//!   never exists in memory; per-worker scratch is one reusable
//!   [`ChunkArena`] of `chunk_pairs` pairs (run *first*, before the
//!   materialised index is ever allocated, so its peak-RSS checkpoint
//!   cannot inherit the index);
//! * **tiled** — the materialised index through the radix scoreboard, the
//!   scoreboard's registry metrics recording the per-worker scratch
//!   high-water mark.
//!
//! Correctness gates before any timing: both modes must produce
//! bit-identical probabilities at every size (and, up to
//! `MATRIX_GATE_LIMIT` entities, the materialised matrix must equal the
//! per-pair reference rows), the streamed chunk walk must emit exactly the
//! counted number of pairs, and the board's scratch must stay
//! `O(contributions of the longest entity)` — below what one
//! `O(num_entities)` board of three arrays (20 B per entity) would hold.
//!
//! Asserted memory gate, in the two parts the streamed footprint has: what
//! grows with the corpus (`CandidateStream::aggregate_bytes`, 12 B per
//! entity) must be at most **half** the materialised index
//! (`CandidatePairs::index_bytes`) at every size, and what does not — one
//! [`ChunkArena`] per worker — must stay within a bound that names the chunk
//! size and nothing else.  Both are exact allocation accounting, so the
//! gate is deterministic.  (Until PR 21 the gate held the *sum*, arenas
//! included, to half the index "at every size": at the CI smoke size of
//! 10^5 entities two 1.2 MB arenas are two thirds of that sum, so it read
//! 3 694 776 B against 3 455 566 B and failed on every 2-thread host, while
//! at 4·10^5 it passed — a statement about small corpora and thread counts,
//! not about the stream.)  Peak-RSS checkpoints after each phase are
//! recorded in the artifact alongside it.  Asserted throughput gate: the *end-to-end*
//! streamed phase (counting pass + fused extract/score) takes at most 10%
//! longer than the end-to-end materialised phase (index build + score) plus
//! one counting pass — the materialised index derives each partner run
//! once and keeps it, the stream derives it twice (count, then extract) and
//! keeps nothing, and that second derivation is all the stream may cost
//! (`GSMB_SCALA_GATE=0` disables the timing gate on noisy hosts; the memory
//! gate always holds).
//!
//! Environment: `GSMB_SCALA_SIZES` (comma-separated entity counts, default
//! `100000,1000000`), `GSMB_SCALA_CHUNK` (streamed chunk size in pairs,
//! default [`DEFAULT_CHUNK_PAIRS`]), `GSMB_SCALA_GATE` (`0` disables the
//! throughput gate), `GSMB_REPS`.  Emits `BENCH_scalability.json` when
//! `GSMB_BENCH_JSON` is set.

use std::time::Instant;

use bench::{banner, bench_repetitions, env_usize, peak_rss_json, report::Report};
use er_blocking::{
    standard_blocking_workflow_csr, CandidatePairs, CandidateStream, ChunkArena,
    DEFAULT_CHUNK_PAIRS,
};
use er_datasets::{generate_scalability, ScalabilityConfig};
use er_features::{
    reset_scoreboard_metrics, scoreboard_metrics, FeatureContext, FeatureMatrix, FeatureSet,
    ScoreboardConfig, StreamFeatureContext,
};

/// Corpus sizes above this skip the full-matrix reference gate (the score
/// vectors are still compared bit-for-bit at every size).
const MATRIX_GATE_LIMIT: usize = 200_000;

fn sizes() -> Vec<usize> {
    let spec = std::env::var("GSMB_SCALA_SIZES").unwrap_or_else(|_| "100000,1000000".to_string());
    let sizes: Vec<usize> = spec
        .split(',')
        .filter_map(|s| s.trim().parse().ok())
        .filter(|&n| n > 0)
        .collect();
    assert!(!sizes.is_empty(), "GSMB_SCALA_SIZES parsed to no sizes");
    sizes
}

fn main() {
    banner("Micro-bench: streamed vs materialised scoring by corpus size");
    let repetitions = bench_repetitions();
    let threads = er_core::available_threads();
    let set = FeatureSet::blast_optimal();
    let chunk_pairs = env_usize("GSMB_SCALA_CHUNK", DEFAULT_CHUNK_PAIRS).max(1);
    let timing_gate = std::env::var("GSMB_SCALA_GATE").map_or(true, |v| v != "0");
    let score = |row: &[f64]| row.iter().sum::<f64>();
    let mut json_entries: Vec<String> = Vec::new();

    println!(
        "{:>10} {:>8} {:>8} {:>8} {:>11} {:>9} {:>9} {:>12} {:>12}",
        "entities", "gen", "block", "cands", "pairs", "streamed", "tiled", "mem(s)", "mem(m)"
    );

    for n in sizes() {
        let start = Instant::now();
        let dataset = generate_scalability(&ScalabilityConfig::at_scale(n, 0x5ca1))
            .unwrap_or_else(|e| panic!("failed to generate scal-{n}: {e}"));
        let gen_s = start.elapsed().as_secs_f64();

        let start = Instant::now();
        let (_, stats) = standard_blocking_workflow_csr(&dataset, threads);
        let blocking_s = start.elapsed().as_secs_f64();
        let rss_baseline = peak_rss_json();

        // --- Streamed phase (first, so the materialised index never
        // contributes to its RSS checkpoint). ---
        let start = Instant::now();
        let stream = CandidateStream::from_stats(&stats, threads);
        let stream_build_s = start.elapsed().as_secs_f64();
        let pairs_u64 = stream.total_pairs();
        assert!(
            pairs_u64 > 0,
            "scal-{n}: no candidate pairs survived cleaning"
        );

        // Full chunk walk through one reusable arena: verifies the chunked
        // emission covers every pair and measures the steady-state
        // per-worker arena capacity for the exact accounting below.
        let mut arena = ChunkArena::new();
        let mut walked = 0u64;
        for chunk in stream.chunks(chunk_pairs) {
            stream.extract_chunk(chunk, &mut arena);
            walked += arena.pairs().len() as u64;
        }
        assert_eq!(walked, pairs_u64, "scal-{n}: chunk walk lost pairs");
        let (aggregate_bytes, arena_bytes) = (stream.aggregate_bytes(), arena.capacity_bytes());
        let streamed_bytes = aggregate_bytes + threads * arena_bytes;
        drop(arena);

        let stream_context = StreamFeatureContext::new(&stats, stream.lcp_table());
        let streamed_config = ScoreboardConfig::default();
        let start = Instant::now();
        let streamed_scores = FeatureMatrix::score_stream_with(
            &stream_context,
            &stream,
            set,
            threads,
            &streamed_config,
            chunk_pairs,
            score,
        );
        let streamed_s = start.elapsed().as_secs_f64();
        drop(stream_context);
        drop(stream);

        // Timed end-to-end streamed phase: stats → probabilities with no
        // index (the counting pass derives every run, the fused pass
        // derives it again per chunk; the materialised twin below derives
        // each run once inside `CandidatePairs::from_stats`).  Best-of-N,
        // the counting pass also on its own for the throughput gate.
        let mut streamed_total_s = f64::INFINITY;
        let mut count_pass_s = f64::INFINITY;
        for _ in 0..repetitions {
            let start = Instant::now();
            let stream = CandidateStream::from_stats(&stats, threads);
            count_pass_s = count_pass_s.min(start.elapsed().as_secs_f64());
            let stream_context = StreamFeatureContext::new(&stats, stream.lcp_table());
            criterion::black_box(FeatureMatrix::score_stream_with(
                &stream_context,
                &stream,
                set,
                threads,
                &streamed_config,
                chunk_pairs,
                score,
            ));
            streamed_total_s = streamed_total_s.min(start.elapsed().as_secs_f64());
        }
        let rss_streamed = peak_rss_json();

        // --- Materialised phase. ---
        let start = Instant::now();
        let candidates = CandidatePairs::from_stats(&stats, threads);
        let candidates_s = start.elapsed().as_secs_f64();
        let pairs = candidates.len();
        assert_eq!(pairs as u64, pairs_u64, "scal-{n}: pair totals diverged");
        let materialised_bytes = candidates.index_bytes();
        let context = FeatureContext::new(&stats, &candidates);

        let tiled_config = ScoreboardConfig::default();

        // Correctness gate 1: bit-identical probabilities across both
        // modes.  The scoreboard metrics live on the global er-obs registry,
        // so the run is bracketed by a reset + snapshot to read exact
        // per-phase values (the bench is sequential).
        reset_scoreboard_metrics();
        let tiled_scores =
            FeatureMatrix::score_rows_with(&context, set, threads, &tiled_config, score);
        let tiled_metrics = scoreboard_metrics();
        assert_eq!(
            streamed_scores, tiled_scores,
            "scal-{n}: streamed and materialised scores diverged"
        );
        drop(streamed_scores);
        drop(tiled_scores);
        if n <= MATRIX_GATE_LIMIT {
            let tiled = FeatureMatrix::build_with_threads(&context, set, threads);
            let reference = FeatureMatrix::build_reference(&context, set);
            for (id, row) in reference.rows() {
                assert_eq!(tiled.row(id), row, "scal-{n}: matrix row {id:?} diverged");
            }
        }

        // Correctness gate 2: per-worker scratch is O(longest entity), not
        // O(num_entities).  The bound mirrors the radix board's layout per
        // contribution of the longest entity (`contributions_hwm`) — a
        // 24-byte entry plus an 8-byte sort key and its 8-byte second
        // buffer — doubled for Vec growth slack, plus fixed slack for the
        // histograms; a corpus-scaled board blows straight through it.
        // And it must stay below the three arrays (4 + 8 + 8 B per entity)
        // of one corpus-sized board, computed rather than allocated.
        let scratch_tiled = tiled_metrics.scratch_bytes_hwm;
        let scratch_corpus = 20 * n as u64;
        let bound = 2 * (24 + 8 + 8) * tiled_metrics.contributions_hwm + 64 * 1024;
        assert!(
            scratch_tiled <= bound,
            "scal-{n}: board scratch {scratch_tiled} B exceeds O(longest entity) bound {bound} B"
        );
        assert!(
            scratch_tiled < scratch_corpus,
            "scal-{n}: tiled scratch {scratch_tiled} B not below a corpus-sized board's \
             {scratch_corpus} B"
        );

        // Memory gate: exact allocation accounting.  The stream's
        // corpus-scaled part (the aggregate tables) must stay at most half
        // the materialised index at every size; its per-worker part is a
        // function of the chunk size alone — at most `chunk_pairs` pairs
        // (8 B) and as many runs (12 B), doubled for Vec growth slack, plus
        // the partner-run scratch.
        assert!(
            aggregate_bytes * 2 <= materialised_bytes,
            "scal-{n}: stream aggregates {aggregate_bytes} B not ≤ half the materialised \
             index {materialised_bytes} B"
        );
        let arena_bound = 2 * (8 + 12) * chunk_pairs + 64 * 1024;
        assert!(
            arena_bytes <= arena_bound,
            "scal-{n}: chunk arena {arena_bytes} B exceeds its O(chunk) bound {arena_bound} B"
        );

        // Timed sweep: the fused feature + probability pass over the
        // materialised index, plus the end-to-end materialised twin of the
        // streamed phase (index build + scoring, best-of-N).
        let mut tiled_s = 0.0f64;
        for _ in 0..repetitions {
            let start = Instant::now();
            criterion::black_box(FeatureMatrix::score_rows_with(
                &context,
                set,
                threads,
                &tiled_config,
                score,
            ));
            tiled_s += start.elapsed().as_secs_f64();
        }
        tiled_s /= repetitions as f64;
        let mut materialised_total_s = f64::INFINITY;
        for _ in 0..repetitions {
            let start = Instant::now();
            let rebuilt = CandidatePairs::from_stats(&stats, threads);
            let rebuilt_context = FeatureContext::new(&stats, &rebuilt);
            criterion::black_box(FeatureMatrix::score_rows_with(
                &rebuilt_context,
                set,
                threads,
                &tiled_config,
                score,
            ));
            materialised_total_s = materialised_total_s.min(start.elapsed().as_secs_f64());
        }
        let rss_materialised = peak_rss_json();

        // Throughput gate: the stream's second derivation of every run (the
        // counting pass) is the only thing it may cost over the
        // materialised phase, within 10%.
        let streamed_pps = pairs as f64 / streamed_total_s.max(1e-9);
        let materialised_pps = pairs as f64 / materialised_total_s.max(1e-9);
        if timing_gate {
            let allowed_s = 1.1 * (materialised_total_s + count_pass_s);
            assert!(
                streamed_total_s <= allowed_s,
                "scal-{n}: streamed phase {streamed_total_s:.3} s exceeds materialised \
                 {materialised_total_s:.3} s + counting pass {count_pass_s:.3} s by more than 10% \
                 (set GSMB_SCALA_GATE=0 on noisy hosts)"
            );
        }

        println!(
            "{:>10} {:>7.2}s {:>7.2}s {:>7.2}s {:>11} {:>8.2}s {:>8.2}s {:>9} KiB {:>9} KiB",
            n,
            gen_s,
            blocking_s,
            candidates_s,
            pairs,
            streamed_s,
            tiled_s,
            streamed_bytes / 1024,
            materialised_bytes / 1024,
        );
        println!(
            "{:>10} chunk {} ({:.2}s build), longest run {}, scratch {} KiB, e2e {:.1} vs {:.1} Mpairs/s streamed/materialised",
            "",
            chunk_pairs,
            stream_build_s,
            tiled_metrics.partners_hwm,
            scratch_tiled / 1024,
            streamed_pps / 1e6,
            materialised_pps / 1e6,
        );

        json_entries.push(format!(
            concat!(
                "  {{\n",
                "    \"entities\": {},\n",
                "    \"pairs\": {},\n",
                "    \"generate_s\": {:.3},\n",
                "    \"blocking_s\": {:.3},\n",
                "    \"candidates_s\": {:.3},\n",
                "    \"stream_build_s\": {:.3},\n",
                "    \"chunk_pairs\": {},\n",
                "    \"score_streamed_s\": {:.3},\n",
                "    \"score_tiled_s\": {:.3},\n",
                "    \"total_streamed_s\": {:.3},\n",
                "    \"total_materialised_s\": {:.3},\n",
                "    \"pairs_per_s_streamed\": {:.0},\n",
                "    \"pairs_per_s_materialised\": {:.0},\n",
                "    \"pairs_per_s_tiled\": {:.0},\n",
                "    \"candidates_peak_bytes\": {{\"streamed\": {}, \"materialised\": {}}},\n",
                "    \"scratch_tiled_bytes\": {},\n",
                "    \"partners_hwm\": {},\n",
                "    \"contributions_hwm\": {},\n",
                "    \"dense_entities\": {},\n",
                "    \"radix_entities\": {},\n",
                "    \"peak_rss_baseline_bytes\": {},\n",
                "    \"peak_rss_after_streamed_bytes\": {},\n",
                "    \"peak_rss_bytes\": {}\n",
                "  }}"
            ),
            n,
            pairs,
            gen_s,
            blocking_s,
            candidates_s,
            stream_build_s,
            chunk_pairs,
            streamed_s,
            tiled_s,
            streamed_total_s,
            materialised_total_s,
            streamed_pps,
            materialised_pps,
            pairs as f64 / tiled_s.max(1e-9),
            streamed_bytes,
            materialised_bytes,
            scratch_tiled,
            tiled_metrics.partners_hwm,
            tiled_metrics.contributions_hwm,
            tiled_metrics.dense_entities,
            tiled_metrics.radix_entities,
            rss_baseline,
            rss_streamed,
            rss_materialised,
        ));
    }

    Report::new("micro_scalability")
        .field("repetitions", repetitions)
        .field("threads", threads)
        .rows("sizes", json_entries)
        .write("BENCH_scalability.json");
}
