#include "gdf/vector_search.h"

#include <algorithm>
#include <cmath>

namespace sirius::gdf {

Result<TopKResult> VectorTopK(const Context& ctx,
                              const format::ColumnPtr& embeddings,
                              const std::vector<double>& query, size_t k,
                              Metric metric) {
  if (embeddings == nullptr || !embeddings->type().is_list() ||
      embeddings->type().child == nullptr ||
      embeddings->type().child->id != format::TypeId::kFloat64) {
    return Status::TypeError("VectorTopK requires a LIST<FLOAT64> column");
  }
  if (query.empty()) return Status::Invalid("VectorTopK: empty query vector");
  const size_t dim = query.size();
  const size_t n = embeddings->length();
  const int64_t* offsets = embeddings->offsets();
  const double* values = embeddings->list_child()->data<double>();

  double query_norm = 0;
  for (double q : query) query_norm += q * q;
  query_norm = std::sqrt(query_norm);
  if (metric == Metric::kCosine && query_norm == 0) {
    return Status::Invalid("VectorTopK: zero query vector under cosine");
  }

  std::vector<std::pair<double, index_t>> scored;
  scored.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (embeddings->IsNull(i) || embeddings->ListLength(i) != dim) continue;
    const double* v = values + offsets[i];
    double dot = 0, norm = 0;
    for (size_t d = 0; d < dim; ++d) {
      dot += v[d] * query[d];
      norm += v[d] * v[d];
    }
    double score = 0;
    switch (metric) {
      case Metric::kDot:
        score = dot;
        break;
      case Metric::kCosine: {
        double denom = std::sqrt(norm) * query_norm;
        score = denom == 0 ? -1.0 : dot / denom;
        break;
      }
      case Metric::kL2: {
        // ||v - q||^2 = ||v||^2 - 2 v.q + ||q||^2; negate so higher = closer.
        score = -(norm - 2 * dot + query_norm * query_norm);
        break;
      }
    }
    scored.push_back({score, static_cast<index_t>(i)});
  }

  k = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + static_cast<long>(k),
                    scored.end(), [](const auto& a, const auto& b) {
                      if (a.first != b.first) return a.first > b.first;
                      return a.second < b.second;  // deterministic ties
                    });

  sim::KernelCost cost;
  cost.seq_bytes = embeddings->MemoryUsage();
  cost.rows = n;
  cost.ops_per_row = 2.0 * static_cast<double>(dim);  // FMA per dimension
  cost.launches = 2;  // score kernel + top-k selection
  ctx.Charge(sim::OpCategory::kScan, cost);

  TopKResult result;
  for (size_t i = 0; i < k; ++i) {
    result.scores.push_back(scored[i].first);
    result.indices.push_back(scored[i].second);
  }
  return result;
}

}  // namespace sirius::gdf
