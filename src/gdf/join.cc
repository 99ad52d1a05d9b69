#include "gdf/join.h"

#include "common/bitutil.h"
#include "expr/eval.h"
#include "gdf/copying.h"
#include "gdf/row_ops.h"

namespace sirius::gdf {

using format::ColumnPtr;
using format::TablePtr;

const char* JoinTypeName(JoinType t) {
  switch (t) {
    case JoinType::kInner:
      return "inner";
    case JoinType::kLeft:
      return "left";
    case JoinType::kSemi:
      return "semi";
    case JoinType::kAnti:
      return "anti";
  }
  return "?";
}

namespace {

/// Chained open-addressing hash table over build-side key rows. Each slot
/// packs a chain's head row with its hash tag (PackSlot); rows with an equal
/// key chain behind the head through `next_`.
class BuildTable {
 public:
  explicit BuildTable(size_t num_rows)
      : mask_(bit::NextPow2(std::max<uint64_t>(16, num_rows * 2)) - 1),
        slots_(mask_ + 1, kEmptySlot),
        next_(num_rows, -1) {}

  /// Inserts build rows in order, skipping NULL keys (they never match).
  /// `eq(i, j)` compares build rows i and j.
  template <typename Eq>
  void Build(const RowOps& keys, const std::vector<uint64_t>& hashes, const Eq& eq) {
    const bool nulls = keys.has_nulls();
    for (size_t i = 0; i < hashes.size(); ++i) {
      if (nulls && keys.AnyNull(i)) continue;
      const uint64_t h = hashes[i];
      for (uint64_t slot = h & mask_;; slot = (slot + 1) & mask_) {
        const uint64_t s = slots_[slot];
        if (s == kEmptySlot) {
          slots_[slot] = PackSlot(h, i);
          break;
        }
        if (SlotTagMatches(s, h) && eq(i, SlotId(s))) {
          // Duplicate key: chain in front, preserving the slot as the head.
          const size_t head = SlotId(s);
          next_[i] = next_[head];
          next_[head] = static_cast<index_t>(i);
          break;
        }
      }
    }
  }

  /// Emits `(j, build row)` through `emit` for every build row matching probe
  /// row `j` (hash `h`): the head row, then its chain. `eq(j, i)` compares
  /// probe row j with build row i. With `first_only`, emits at most one.
  template <typename Eq, typename Emit>
  void Probe(uint64_t h, size_t j, const Eq& eq, bool first_only, Emit&& emit) const {
    for (uint64_t slot = h & mask_;; slot = (slot + 1) & mask_) {
      const uint64_t s = slots_[slot];
      if (s == kEmptySlot) return;
      if (SlotTagMatches(s, h) && eq(j, SlotId(s))) {
        index_t m = static_cast<index_t>(SlotId(s));
        emit(m);
        if (first_only) return;
        for (m = next_[static_cast<size_t>(m)]; m >= 0; m = next_[static_cast<size_t>(m)]) {
          emit(m);
        }
        return;
      }
    }
  }

 private:
  uint64_t mask_;
  std::vector<uint64_t> slots_;
  std::vector<index_t> next_;
};

/// Evaluates the residual predicate over candidate pairs; returns a byte
/// mask (1 = pair survives).
Result<std::vector<uint8_t>> EvalResidual(const Context& ctx,
                                          const JoinOptions& options,
                                          const std::vector<index_t>& l,
                                          const std::vector<index_t>& r) {
  if (options.left_table == nullptr || options.right_table == nullptr) {
    return Status::Invalid("residual join requires left/right tables");
  }
  SIRIUS_ASSIGN_OR_RETURN(
      TablePtr lt, GatherTable(ctx, options.left_table, l, sim::OpCategory::kJoin));
  SIRIUS_ASSIGN_OR_RETURN(
      TablePtr rt, GatherTable(ctx, options.right_table, r, sim::OpCategory::kJoin));
  // Concatenate columns into the combined (left ++ right) schema.
  format::Schema schema;
  std::vector<ColumnPtr> cols;
  for (size_t c = 0; c < lt->num_columns(); ++c) {
    schema.AddField(lt->schema().field(c));
    cols.push_back(lt->column(c));
  }
  for (size_t c = 0; c < rt->num_columns(); ++c) {
    schema.AddField(rt->schema().field(c));
    cols.push_back(rt->column(c));
  }
  SIRIUS_ASSIGN_OR_RETURN(TablePtr pairs,
                          format::Table::Make(schema, std::move(cols)));
  SIRIUS_ASSIGN_OR_RETURN(ColumnPtr mask, expr::Evaluate(*options.residual, *pairs));
  sim::KernelCost cost;
  cost.rows = l.size();
  cost.ops_per_row = options.residual->OpCount();
  cost.seq_bytes = l.size() * 16;
  ctx.Charge(sim::OpCategory::kJoin, cost);

  std::vector<uint8_t> out(l.size(), 0);
  const uint8_t* vals = mask->data<uint8_t>();
  for (size_t i = 0; i < l.size(); ++i) {
    out[i] = (vals[i] != 0 && !mask->IsNull(i)) ? 1 : 0;
  }
  return out;
}

uint64_t KeyBytesPerRow(const std::vector<ColumnPtr>& keys) {
  uint64_t w = 0;
  for (const auto& k : keys) w += k->type().byte_width();
  return w;
}

}  // namespace

Result<JoinResult> HashJoin(const Context& ctx,
                            const std::vector<ColumnPtr>& left_keys,
                            const std::vector<ColumnPtr>& right_keys,
                            const JoinOptions& options) {
  if (left_keys.size() != right_keys.size() || left_keys.empty()) {
    return Status::Invalid("HashJoin: key count mismatch or empty keys");
  }
  SIRIUS_RETURN_NOT_OK(CheckKeyTypes("HashJoin", left_keys, right_keys));
  const size_t build_rows = right_keys[0]->length();
  const size_t probe_rows = left_keys[0]->length();

  RowOps build_ops(right_keys);
  RowOps probe_ops(left_keys);
  BuildTable ht(build_rows);
  WithRowEquality(build_ops, build_ops, [&](const auto& eq) {
    ht.Build(build_ops, build_ops.HashAll(), eq);
  });

  // Candidate generation: probe order, then the head row and its chain.
  // Without a residual, a semi/anti join needs only the first candidate.
  std::vector<index_t> cand_l, cand_r;
  const bool first_only =
      options.residual == nullptr &&
      (options.type == JoinType::kSemi || options.type == JoinType::kAnti);
  const std::vector<uint64_t> probe_hashes = probe_ops.HashAll();
  const bool probe_nulls = probe_ops.has_nulls();
  WithRowEquality(probe_ops, build_ops, [&](const auto& eq) {
    for (size_t j = 0; j < probe_rows; ++j) {
      if (probe_nulls && probe_ops.AnyNull(j)) continue;
      ht.Probe(probe_hashes[j], j, eq, first_only, [&](index_t m) {
        cand_l.push_back(static_cast<index_t>(j));
        cand_r.push_back(m);
      });
    }
  });

  // Charge build + probe + output traffic. Probe keys delivered
  // register-resident by an active fused pass skip the sequential re-read
  // (the hash-table random accesses below are real either way).
  bool probe_resident = ctx.fused_reads != nullptr && !left_keys.empty();
  for (const auto& k : left_keys) {
    probe_resident = probe_resident && ctx.fused_reads->count(k.get()) > 0;
  }
  const uint64_t key_w = KeyBytesPerRow(right_keys);
  sim::KernelCost cost;
  cost.rand_bytes = build_rows * (key_w + 8) + probe_rows * (key_w + 8);
  cost.seq_bytes = build_rows * key_w +
                   (probe_resident ? 0 : probe_rows * key_w) +
                   cand_l.size() * 2 * sizeof(index_t);
  cost.rows = build_rows + probe_rows + cand_l.size();
  cost.ops_per_row = 2.0 * right_keys.size();
  cost.launches = 2;  // build kernel + probe kernel
  ctx.Charge(sim::OpCategory::kJoin, cost);

  JoinResult result;
  if (options.residual == nullptr && options.type == JoinType::kInner) {
    result.left_indices = std::move(cand_l);
    result.right_indices = std::move(cand_r);
    return result;
  }

  // Residual filtering; without a residual every candidate passes.
  std::vector<uint8_t> pass;
  if (options.residual != nullptr) {
    SIRIUS_ASSIGN_OR_RETURN(pass, EvalResidual(ctx, options, cand_l, cand_r));
  } else {
    pass.assign(cand_l.size(), 1);
  }

  switch (options.type) {
    case JoinType::kInner: {
      for (size_t i = 0; i < cand_l.size(); ++i) {
        if (pass[i]) {
          result.left_indices.push_back(cand_l[i]);
          result.right_indices.push_back(cand_r[i]);
        }
      }
      return result;
    }
    case JoinType::kLeft: {
      std::vector<uint8_t> matched(probe_rows, 0);
      for (size_t i = 0; i < cand_l.size(); ++i) {
        if (pass[i]) {
          matched[static_cast<size_t>(cand_l[i])] = 1;
          result.left_indices.push_back(cand_l[i]);
          result.right_indices.push_back(cand_r[i]);
        }
      }
      for (size_t j = 0; j < probe_rows; ++j) {
        if (!matched[j]) {
          result.left_indices.push_back(static_cast<index_t>(j));
          result.right_indices.push_back(-1);
        }
      }
      return result;
    }
    case JoinType::kSemi: {
      std::vector<uint8_t> keep(probe_rows, 0);
      for (size_t i = 0; i < cand_l.size(); ++i) {
        if (pass[i]) keep[static_cast<size_t>(cand_l[i])] = 1;
      }
      for (size_t j = 0; j < probe_rows; ++j) {
        if (keep[j]) result.left_indices.push_back(static_cast<index_t>(j));
      }
      return result;
    }
    case JoinType::kAnti: {
      std::vector<uint8_t> keep(probe_rows, 1);
      for (size_t i = 0; i < cand_l.size(); ++i) {
        if (pass[i]) keep[static_cast<size_t>(cand_l[i])] = 0;
      }
      for (size_t j = 0; j < probe_rows; ++j) {
        if (keep[j]) result.left_indices.push_back(static_cast<index_t>(j));
      }
      return result;
    }
  }
  return Status::Internal("unknown join type");
}

Result<JoinResult> CrossJoin(const Context& ctx, size_t left_rows,
                             size_t right_rows) {
  JoinResult result;
  result.left_indices.reserve(left_rows * right_rows);
  result.right_indices.reserve(left_rows * right_rows);
  for (size_t i = 0; i < left_rows; ++i) {
    for (size_t j = 0; j < right_rows; ++j) {
      result.left_indices.push_back(static_cast<index_t>(i));
      result.right_indices.push_back(static_cast<index_t>(j));
    }
  }
  sim::KernelCost cost;
  cost.rows = left_rows * right_rows;
  cost.seq_bytes = cost.rows * 2 * sizeof(index_t);
  ctx.Charge(sim::OpCategory::kJoin, cost);
  return result;
}

}  // namespace sirius::gdf
