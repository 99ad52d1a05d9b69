// Vector similarity search (paper §3.4 lists vector search among the
// planned advanced operators — a natural GPU-native workload).

#pragma once

#include "common/result.h"
#include "format/table.h"
#include "gdf/context.h"

namespace sirius::gdf {

enum class Metric : uint8_t {
  kL2,      ///< negative squared Euclidean distance (higher = closer)
  kDot,     ///< inner product
  kCosine,  ///< cosine similarity
};

/// \brief Top-k rows of a brute-force similarity scan.
struct TopKResult {
  /// Row indices, best first.
  std::vector<index_t> indices;
  /// Matching similarity scores (higher = more similar for every metric).
  std::vector<double> scores;
};

/// \brief Scores every row of a LIST<FLOAT64> embedding column against
/// `query` and returns the k most similar rows.
///
/// Rows whose embedding is NULL or of a different dimensionality than the
/// query are skipped. Charges kScan + a compute-heavy kOther term — the
/// bandwidth*FLOP profile GPUs excel at.
Result<TopKResult> VectorTopK(const Context& ctx,
                              const format::ColumnPtr& embeddings,
                              const std::vector<double>& query, size_t k,
                              Metric metric = Metric::kCosine);

}  // namespace sirius::gdf
