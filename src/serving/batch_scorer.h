#ifndef ODNET_SERVING_BATCH_SCORER_H_
#define ODNET_SERVING_BATCH_SCORER_H_

#include <cstddef>
#include <vector>

#include "src/baselines/recommender.h"

namespace odnet {
namespace serving {

/// Fixed scoring chunk size. Deliberately independent of the thread count:
/// chunk boundaries are the same no matter how many workers run, so the
/// parallel path cannot introduce thread-count-dependent behavior.
inline constexpr size_t kScoreChunkSize = 256;

/// \brief Scores `rows` with `method`, fanning chunks out across the
/// process-wide compute pool when it is safe to do so.
///
/// The parallel path is taken only when all of the following hold:
///  - `method->ThreadSafeScore()` is true (per-sample purity contract, see
///    OdRecommender); methods with shared mutable scoring state — e.g. the
///    ODNET recommender, whose serving plans replay over one bound batch
///    each — always take the monolithic path;
///  - the compute context has more than one thread;
///  - there are more rows than one chunk.
///
/// Otherwise this is exactly `method->Score(dataset, rows)`. Because
/// thread-safe scorers are pure per-sample functions, the chunked result is
/// bitwise identical to the monolithic one.
std::vector<baselines::OdScore> ScoreChunked(
    baselines::OdRecommender* method, const data::OdDataset& dataset,
    const std::vector<data::Sample>& rows);

}  // namespace serving
}  // namespace odnet

#endif  // ODNET_SERVING_BATCH_SCORER_H_
