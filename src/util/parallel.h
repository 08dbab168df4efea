// Parallel execution subsystem: a lazily-initialized global thread pool
// plus structured ParallelFor / ParallelReduce / ParallelRun helpers used
// by the mining, CSG and layout kernels.
//
// Threading model
//   Every kernel Options struct exposes an `int threads` knob with the
//   convention:
//     0  — auto: use the GMINE_THREADS environment variable when set to a
//          positive integer, otherwise std::thread::hardware_concurrency().
//     1  — exact serial path: no pool dispatch, runs inline on the caller.
//     N  — split the work across N participants (the calling thread plus
//          up to N-1 pool workers).
//   The pool itself is created on first parallel dispatch and sized from
//   the same auto rule; it is shared by all kernels in the process.
//
// Determinism
//   ParallelReduce partitions [begin, end) into fixed chunks of `grain`
//   elements and combines the per-chunk partials in ascending chunk
//   order, regardless of how many threads executed them. A reduction is
//   therefore bit-for-bit identical across runs AND across thread counts
//   (the chunking depends only on `grain`, never on `threads`).
//
// Exceptions thrown by a body are captured (first one wins), the
// remaining chunks are abandoned, and the exception is rethrown on the
// calling thread once all participants have quiesced.

#ifndef GMINE_UTIL_PARALLEL_H_
#define GMINE_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace gmine {

/// Process-wide default parallelism: GMINE_THREADS when set to a positive
/// integer, else hardware_concurrency (at least 1). Resolved once.
int MaxParallelism();

/// Resolves a kernel `threads` option: values <= 0 mean auto
/// (MaxParallelism()); positive values are returned as-is (capped at 256).
int ResolveThreads(int threads);

namespace internal {

/// Executes chunk_fn(c) for every c in [0, num_chunks) using the calling
/// thread plus up to `parallelism - 1` pool workers, dispatching chunks
/// through a shared counter. Rethrows the first body exception.
void RunChunks(size_t num_chunks, int parallelism,
               const std::function<void(size_t)>& chunk_fn);

/// SPMD dispatch: runs fn(rank) for every rank in [0, ranks), rank 0 on
/// the calling thread. Rethrows the first exception.
void RunRanks(int ranks, const std::function<void(int)>& fn);

/// Queues `task` behind the pool's pending work and returns at once;
/// the caller synchronizes with it.
void SubmitAsync(std::function<void()> task);

/// True on a pool worker thread. Code there must not wait for work it
/// queued: with every worker waiting, nothing would run it.
bool InPoolWorker();

/// Number of fixed-size chunks covering a range of `n` elements.
inline size_t NumChunks(size_t n, size_t grain) {
  if (grain == 0) grain = 1;
  return (n + grain - 1) / grain;
}

}  // namespace internal

/// Runs body(chunk_begin, chunk_end) over disjoint sub-ranges of
/// [begin, end), each at most `grain` elements, on up to
/// ResolveThreads(threads) participants.
template <typename Body>
void ParallelForRange(size_t begin, size_t end, size_t grain, int threads,
                      const Body& body) {
  if (begin >= end) return;
  const size_t n = end - begin;
  if (grain == 0) grain = 1;
  const size_t num_chunks = internal::NumChunks(n, grain);
  const int p = ResolveThreads(threads);
  if (p <= 1 || num_chunks <= 1) {
    body(begin, end);
    return;
  }
  internal::RunChunks(num_chunks, p, [&](size_t c) {
    size_t b = begin + c * grain;
    size_t e = b + grain < end ? b + grain : end;
    body(b, e);
  });
}

/// Runs body(i) for every i in [begin, end).
template <typename Body>
void ParallelFor(size_t begin, size_t end, size_t grain, int threads,
                 const Body& body) {
  ParallelForRange(begin, end, grain, threads,
                   [&](size_t b, size_t e) {
                     for (size_t i = b; i < e; ++i) body(i);
                   });
}

/// Deterministic chunked reduction: partials[c] = map(chunk_begin,
/// chunk_end) computed in parallel, then folded serially in ascending
/// chunk order: acc = combine(acc, partials[c]). The chunking depends
/// only on `grain`, so the result is identical for every thread count.
template <typename T, typename Map, typename Combine>
T ParallelReduce(size_t begin, size_t end, size_t grain, int threads,
                 T identity, const Map& map, const Combine& combine) {
  if (begin >= end) return identity;
  if (grain == 0) grain = 1;
  const size_t num_chunks = internal::NumChunks(end - begin, grain);
  std::vector<T> partials(num_chunks, identity);
  auto run_chunk = [&](size_t c) {
    size_t b = begin + c * grain;
    size_t e = b + grain < end ? b + grain : end;
    partials[c] = map(b, e);
  };
  const int p = ResolveThreads(threads);
  if (p <= 1 || num_chunks <= 1) {
    // Same chunking as the parallel path so the fold below sees the same
    // partials in the same order at every thread count.
    for (size_t c = 0; c < num_chunks; ++c) run_chunk(c);
  } else {
    internal::RunChunks(num_chunks, p, run_chunk);
  }
  T acc = std::move(identity);
  for (size_t c = 0; c < num_chunks; ++c) {
    acc = combine(std::move(acc), std::move(partials[c]));
  }
  return acc;
}

/// SPMD helper for algorithms with per-thread scratch state (e.g.
/// per-source Brandes accumulation): runs fn(rank, num_ranks) for every
/// rank in [0, ResolveThreads(threads)). Rank 0 executes on the calling
/// thread. With threads == 1 this is a plain inline call.
template <typename Fn>
void ParallelRun(int threads, const Fn& fn) {
  const int p = ResolveThreads(threads);
  if (p <= 1) {
    fn(0, 1);
    return;
  }
  internal::RunRanks(p, [&](int rank) { fn(rank, p); });
}

}  // namespace gmine

#endif  // GMINE_UTIL_PARALLEL_H_
