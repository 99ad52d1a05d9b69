#include "gdf/bloom.h"

#include "common/bitutil.h"
#include "gdf/row_ops.h"

namespace sirius::gdf {

BloomFilter::BloomFilter(size_t expected_keys) {
  // ~10 bits per key, power-of-two bytes for cheap masking.
  uint64_t bits = bit::NextPow2(std::max<uint64_t>(64, expected_keys * 10));
  bits_.assign(bits / 8, 0);
  mask_ = bits - 1;
}

void BloomFilter::Insert(uint64_t hash) {
  for (int p = 0; p < kProbes; ++p) {
    uint64_t h = HashMix64(hash + 0x9e3779b97f4a7c15ULL * p) & mask_;
    bits_[h >> 3] |= uint8_t(1u << (h & 7));
  }
}

bool BloomFilter::Test(uint64_t hash) const {
  for (int p = 0; p < kProbes; ++p) {
    uint64_t h = HashMix64(hash + 0x9e3779b97f4a7c15ULL * p) & mask_;
    if (((bits_[h >> 3] >> (h & 7)) & 1) == 0) return false;
  }
  return true;
}

void BloomFilter::InsertColumn(const format::ColumnPtr& key) {
  for (size_t i = 0; i < key->length(); ++i) {
    if (!key->IsNull(i)) Insert(HashValueAt(*key, i));
  }
}

bool BloomFilter::MightContain(const format::Column& key, size_t i) const {
  if (key.IsNull(i)) return false;  // NULL keys never join
  return Test(HashValueAt(key, i));
}

Result<std::vector<index_t>> BloomPrefilter(const Context& ctx,
                                            const format::ColumnPtr& probe_key,
                                            const format::ColumnPtr& build_key) {
  BloomFilter bloom(build_key->length());
  bloom.InsertColumn(build_key);

  std::vector<index_t> keep;
  keep.reserve(probe_key->length());
  for (size_t i = 0; i < probe_key->length(); ++i) {
    if (bloom.MightContain(*probe_key, i)) keep.push_back(static_cast<index_t>(i));
  }

  // A probe key already register-resident in the active fused pass skips
  // the sequential re-read; the bloom-bit random probes are real either way.
  // A fused pass writes the selection itself; standalone, the gather that
  // consumes it writes the survivors.
  const bool fused = ctx.fused_reads != nullptr;
  sim::KernelCost cost;
  cost.seq_bytes =
      build_key->MemoryUsage() +
      (ctx.FirstRead(probe_key.get()) ? probe_key->MemoryUsage() : 0) +
      (fused ? keep.size() * sizeof(index_t) : 0);
  cost.rand_bytes = (build_key->length() + probe_key->length()) * 4;
  cost.rows = build_key->length() + probe_key->length();
  cost.ops_per_row = 4.0;  // kProbes hash probes
  cost.launches = fused ? 0 : 2;
  ctx.Charge(sim::OpCategory::kJoin, cost);
  return keep;
}

}  // namespace sirius::gdf
