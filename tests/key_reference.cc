// The parent tree's row-at-a-time key kernels, moved here verbatim as the
// oracle of the key kernels' property test (key_kernels_test.cc). The only
// edits: RowOps::Hash(i) and RowOps::EqualsNullEqual became the free
// functions Hash(keys, i) and EqualsNullEqual(a, i, b, j).

#include "key_reference.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>

#include "common/bitutil.h"
#include "expr/eval.h"
#include "format/builder.h"
#include "gdf/copying.h"

namespace sirius::gdf::reference {

using format::Column;
using format::ColumnPtr;
using format::DataType;
using format::DecimalPow10;
using format::TablePtr;
using format::TypeId;

uint64_t Hash(const RowOps& keys, size_t i) {
  uint64_t h = 0;
  for (const auto& k : keys.keys()) h = HashCombine(h, HashValueAt(*k, i));
  return h;
}

namespace {

/// Row `i` of `a` vs row `j` of `b` (same key layout). NULLs compare equal
/// (group-by / distinct semantics).
bool EqualsNullEqual(const RowOps& a, size_t i, const RowOps& b, size_t j) {
  for (size_t k = 0; k < a.num_keys(); ++k) {
    if (!ValueEquals(*a.keys()[k], i, *b.keys()[k], j, /*null_equal=*/true)) {
      return false;
    }
  }
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Hash join (src/gdf/join.cc)
// ---------------------------------------------------------------------------

namespace {

/// Chained open-addressing hash table over build-side key rows.
class BuildTable {
 public:
  BuildTable(const RowOps& keys, size_t num_rows)
      : keys_(keys),
        capacity_(bit::NextPow2(std::max<uint64_t>(16, num_rows * 2))),
        slots_(capacity_, -1),
        next_(num_rows, -1) {
    for (size_t i = 0; i < num_rows; ++i) Insert(i);
  }

  /// First build row matching probe row `j` under `probe_keys`, or -1.
  index_t FindFirst(const RowOps& probe_keys, size_t j) const {
    if (probe_keys.AnyNull(j)) return -1;
    uint64_t h = Hash(probe_keys, j);
    size_t slot = h & (capacity_ - 1);
    for (;;) {
      index_t head = slots_[slot];
      if (head < 0) return -1;
      if (EqualsNullEqual(probe_keys, j, keys_, static_cast<size_t>(head))) {
        return head;
      }
      slot = (slot + 1) & (capacity_ - 1);
    }
  }

  /// Next build row in the duplicate chain after `row`, or -1.
  index_t NextMatch(index_t row) const { return next_[static_cast<size_t>(row)]; }

 private:
  void Insert(size_t i) {
    if (keys_.AnyNull(i)) return;  // NULL keys never match
    uint64_t h = Hash(keys_, i);
    size_t slot = h & (capacity_ - 1);
    for (;;) {
      index_t head = slots_[slot];
      if (head < 0) {
        slots_[slot] = static_cast<index_t>(i);
        return;
      }
      if (EqualsNullEqual(keys_, i, keys_, static_cast<size_t>(head))) {
        // Duplicate key: chain in front, preserving the slot as the head.
        next_[i] = next_[static_cast<size_t>(head)];
        next_[static_cast<size_t>(head)] = static_cast<index_t>(i);
        return;
      }
      slot = (slot + 1) & (capacity_ - 1);
    }
  }

  const RowOps& keys_;
  uint64_t capacity_;
  std::vector<index_t> slots_;
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
  const size_t build_rows = right_keys[0]->length();
  const size_t probe_rows = left_keys[0]->length();

  RowOps build_ops(right_keys);
  RowOps probe_ops(left_keys);
  BuildTable ht(build_ops, build_rows);

  // Candidate generation.
  std::vector<index_t> cand_l, cand_r;
  // Probe-side rows with at least one candidate (for anti/left tracking).
  std::vector<uint8_t> has_candidate(probe_rows, 0);
  for (size_t j = 0; j < probe_rows; ++j) {
    index_t m = ht.FindFirst(probe_ops, j);
    while (m >= 0) {
      has_candidate[j] = 1;
      cand_l.push_back(static_cast<index_t>(j));
      cand_r.push_back(m);
      if (options.residual == nullptr &&
          (options.type == JoinType::kSemi || options.type == JoinType::kAnti)) {
        break;  // existence established; no need for more candidates
      }
      m = ht.NextMatch(m);
    }
  }

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

  // Residual filtering.
  std::vector<uint8_t> pass;
  if (options.residual != nullptr) {
    SIRIUS_ASSIGN_OR_RETURN(pass, EvalResidual(ctx, options, cand_l, cand_r));
  } else {
    pass.assign(cand_l.size(), 1);
  }

  JoinResult result;
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


// ---------------------------------------------------------------------------
// Group-by and DISTINCT (src/gdf/groupby.cc)
// ---------------------------------------------------------------------------

namespace {

/// Maps each row to a dense group id. Returns group count; fills group_of
/// (per row) and representative row per group.
size_t AssignGroupsHash(const RowOps& keys, size_t n, std::vector<int64_t>* group_of,
                        std::vector<index_t>* rep_rows) {
  const uint64_t capacity = bit::NextPow2(std::max<uint64_t>(16, n * 2));
  std::vector<int64_t> slots(capacity, -1);  // group id stored per slot
  group_of->assign(n, -1);
  rep_rows->clear();
  for (size_t i = 0; i < n; ++i) {
    uint64_t h = Hash(keys, i);
    size_t slot = h & (capacity - 1);
    for (;;) {
      int64_t gid = slots[slot];
      if (gid < 0) {
        gid = static_cast<int64_t>(rep_rows->size());
        slots[slot] = gid;
        rep_rows->push_back(static_cast<index_t>(i));
        (*group_of)[i] = gid;
        break;
      }
      if (EqualsNullEqual(keys, i, keys, static_cast<size_t>((*rep_rows)[gid]))) {
        (*group_of)[i] = gid;
        break;
      }
      slot = (slot + 1) & (capacity - 1);
    }
  }
  return rep_rows->size();
}

/// Sort-based group assignment: stable-sorts row indices by key and segments
/// equal runs. Used for string keys (libcudf behaviour) and charged as the
/// more expensive path.
size_t AssignGroupsSort(const RowOps& keys, size_t n, std::vector<int64_t>* group_of,
                        std::vector<index_t>* rep_rows) {
  std::vector<index_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = static_cast<index_t>(i);
  std::vector<bool> no_desc;
  std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    return keys.Compare(static_cast<size_t>(a), static_cast<size_t>(b), no_desc) < 0;
  });
  group_of->assign(n, -1);
  rep_rows->clear();
  for (size_t k = 0; k < n; ++k) {
    size_t row = static_cast<size_t>(order[k]);
    if (k == 0 ||
        !EqualsNullEqual(keys, row, keys, static_cast<size_t>(order[k - 1]))) {
      rep_rows->push_back(static_cast<index_t>(row));
    }
    (*group_of)[row] = static_cast<int64_t>(rep_rows->size()) - 1;
  }
  return rep_rows->size();
}

struct NumericView {
  bool is_double = false;
  const int64_t* i64 = nullptr;
  const int32_t* i32 = nullptr;
  const double* f64 = nullptr;
  const uint8_t* b8 = nullptr;

  double AsDouble(size_t k, int scale) const {
    if (is_double) return f64[k];
    return static_cast<double>(Raw(k)) / static_cast<double>(DecimalPow10(scale));
  }
  int64_t Raw(size_t k) const {
    if (i64 != nullptr) return i64[k];
    if (i32 != nullptr) return i32[k];
    if (b8 != nullptr) return b8[k];
    return 0;
  }
};

NumericView ViewOf(const Column& col) {
  NumericView v;
  switch (col.type().id) {
    case TypeId::kFloat64:
      v.is_double = true;
      v.f64 = col.data<double>();
      break;
    case TypeId::kInt64:
    case TypeId::kDecimal64:
      v.i64 = col.data<int64_t>();
      break;
    case TypeId::kInt32:
    case TypeId::kDate32:
      v.i32 = col.data<int32_t>();
      break;
    case TypeId::kBool:
      v.b8 = col.data<uint8_t>();
      break;
    case TypeId::kString:
    case TypeId::kList:
      break;
  }
  return v;
}

}  // namespace

Result<TablePtr> GroupByAggregate(const Context& ctx,
                                  const std::vector<ColumnPtr>& keys,
                                  const std::vector<std::string>& key_names,
                                  const TablePtr& values,
                                  const std::vector<AggRequest>& aggs) {
  if (keys.size() != key_names.size()) {
    return Status::Invalid("GroupByAggregate: key/name count mismatch");
  }
  const size_t n = values->num_rows();
  for (const auto& k : keys) {
    if (k->length() != n) {
      return Status::Invalid("GroupByAggregate: key length != values rows");
    }
  }

  // --- Group assignment ---
  std::vector<int64_t> group_of;
  std::vector<index_t> rep_rows;
  size_t num_groups;
  bool has_string_key = false;
  for (const auto& k : keys) has_string_key |= k->type().is_string();

  // Columns delivered register-resident by an active fused pass cost
  // nothing to read again; the hash-table and accumulator random traffic
  // below is real either way.
  auto cold_bytes = [&ctx](const ColumnPtr& c) -> uint64_t {
    if (ctx.fused_reads != nullptr && ctx.fused_reads->count(c.get()) > 0) {
      return 0;
    }
    return c->MemoryUsage();
  };

  uint64_t key_bytes = 0;
  uint64_t key_seq_bytes = 0;
  for (const auto& k : keys) {
    key_bytes += k->MemoryUsage();
    key_seq_bytes += cold_bytes(k);
  }

  if (keys.empty()) {
    num_groups = n > 0 ? 1 : 1;  // global aggregate always yields one row
    group_of.assign(n, 0);
  } else {
    RowOps ops(keys);
    if (has_string_key) {
      // libcudf: sort-based group-by for string keys (§4.2). Charge the
      // n log n sort passes over the key data.
      num_groups = AssignGroupsSort(ops, n, &group_of, &rep_rows);
      double logn = n > 2 ? std::log2(static_cast<double>(n)) : 1.0;
      sim::KernelCost cost;
      cost.seq_bytes = static_cast<uint64_t>(key_bytes * logn);
      cost.rows = static_cast<uint64_t>(n * logn);
      cost.ops_per_row = 2.0;
      cost.launches = 4;
      ctx.Charge(sim::OpCategory::kGroupBy, cost);
    } else {
      num_groups = AssignGroupsHash(ops, n, &group_of, &rep_rows);
      sim::KernelCost cost;
      cost.rand_bytes = n * (key_bytes / std::max<size_t>(1, n) + 8);
      cost.seq_bytes = key_seq_bytes;
      cost.rows = n;
      cost.ops_per_row = 2.0;
      cost.launches = 2;
      ctx.Charge(sim::OpCategory::kGroupBy, cost);
      // GPU few-group contention: atomics on a handful of accumulator cells
      // serialize warps (§4.2, Q1). A fused sink privatizes the accumulators
      // per thread block, so the contended global atomics never happen there.
      if (ctx.sim.device.is_gpu() && num_groups > 0 && num_groups < 1024 &&
          ctx.fused_reads == nullptr) {
        double contention_ns = 0.25 * (1.0 - static_cast<double>(num_groups) / 1024.0);
        ctx.sim.ChargeSeconds(
            sim::OpCategory::kGroupBy,
            static_cast<double>(n) * ctx.sim.data_scale * contention_ns * 1e-9);
      }
    }
  }

  // --- Aggregate accumulation ---
  const size_t g = num_groups;
  struct AggState {
    std::vector<double> dsum;
    std::vector<int64_t> isum;
    std::vector<int64_t> count;
    std::vector<index_t> best_row;           // min/max representative
    std::vector<std::set<int64_t>> iset;     // count distinct (ints)
    std::vector<std::set<std::string>> sset; // count distinct (strings)
  };
  std::vector<AggState> states(aggs.size());

  uint64_t value_bytes = 0;
  for (size_t a = 0; a < aggs.size(); ++a) {
    const AggRequest& req = aggs[a];
    AggState& st = states[a];
    const bool need_col = req.kind != AggKind::kCountStar;
    if (need_col &&
        (req.column < 0 || static_cast<size_t>(req.column) >= values->num_columns())) {
      return Status::Invalid("GroupByAggregate: bad value column index");
    }
    const ColumnPtr col = need_col ? values->column(req.column) : nullptr;
    if (col != nullptr) value_bytes += cold_bytes(col);
    if ((req.kind == AggKind::kSum || req.kind == AggKind::kAvg) &&
        !col->type().is_numeric()) {
      return Status::TypeError(std::string(AggKindName(req.kind)) +
                               " requires a numeric argument, got " +
                               col->type().ToString());
    }

    switch (req.kind) {
      case AggKind::kCountStar: {
        st.count.assign(g, 0);
        for (size_t i = 0; i < n; ++i) ++st.count[group_of[i]];
        break;
      }
      case AggKind::kCount: {
        st.count.assign(g, 0);
        for (size_t i = 0; i < n; ++i) {
          if (!col->IsNull(i)) ++st.count[group_of[i]];
        }
        break;
      }
      case AggKind::kSum:
      case AggKind::kAvg: {
        st.count.assign(g, 0);
        if (col->type().id == TypeId::kFloat64 || req.kind == AggKind::kAvg) {
          st.dsum.assign(g, 0.0);
        }
        if (col->type().id != TypeId::kFloat64) st.isum.assign(g, 0);
        NumericView v = ViewOf(*col);
        const int scale = col->type().scale;
        for (size_t i = 0; i < n; ++i) {
          if (col->IsNull(i)) continue;
          int64_t gid = group_of[i];
          ++st.count[gid];
          if (!st.isum.empty()) st.isum[gid] += v.Raw(i);
          if (!st.dsum.empty()) st.dsum[gid] += v.AsDouble(i, scale);
        }
        break;
      }
      case AggKind::kMin:
      case AggKind::kMax: {
        st.best_row.assign(g, -1);
        const bool want_min = req.kind == AggKind::kMin;
        for (size_t i = 0; i < n; ++i) {
          if (col->IsNull(i)) continue;
          int64_t gid = group_of[i];
          if (st.best_row[gid] < 0) {
            st.best_row[gid] = static_cast<index_t>(i);
            continue;
          }
          int c = ValueCompare(*col, i, *col, static_cast<size_t>(st.best_row[gid]));
          if ((want_min && c < 0) || (!want_min && c > 0)) {
            st.best_row[gid] = static_cast<index_t>(i);
          }
        }
        break;
      }
      case AggKind::kCountDistinct: {
        if (col->type().is_string()) {
          st.sset.assign(g, {});
          for (size_t i = 0; i < n; ++i) {
            if (!col->IsNull(i)) {
              st.sset[group_of[i]].insert(std::string(col->StringAt(i)));
            }
          }
        } else {
          st.iset.assign(g, {});
          NumericView v = ViewOf(*col);
          for (size_t i = 0; i < n; ++i) {
            if (!col->IsNull(i)) st.iset[group_of[i]].insert(v.Raw(i));
          }
        }
        break;
      }
    }
  }

  sim::KernelCost agg_cost;
  agg_cost.seq_bytes = value_bytes;
  const size_t naggs = std::max<size_t>(1, aggs.size());
  if (ctx.fused_reads != nullptr && g <= 1024) {
    // Fused sink with few groups: each thread block accumulates into
    // privatized registers/shared memory and flushes one partial per group,
    // so HBM sees per-block partials instead of per-row atomic updates.
    const uint64_t blocks = (n + 1023) / 1024;
    agg_cost.rand_bytes = std::max<uint64_t>(1, blocks) * g * 8 * naggs;
  } else {
    agg_cost.rand_bytes = n * 8 * naggs;
  }
  agg_cost.rows = n * std::max<size_t>(1, aggs.size());
  agg_cost.launches = static_cast<int>(aggs.size());
  ctx.Charge(keys.empty() ? sim::OpCategory::kAggregate : sim::OpCategory::kGroupBy,
             agg_cost);

  // --- Materialize output ---
  format::Schema schema;
  std::vector<ColumnPtr> out_cols;
  for (size_t k = 0; k < keys.size(); ++k) {
    schema.AddField({key_names[k], keys[k]->type()});
    format::ColumnBuilder b(keys[k]->type());
    b.Reserve(g);
    for (size_t gid = 0; gid < g; ++gid) {
      SIRIUS_RETURN_NOT_OK(
          b.AppendScalar(keys[k]->GetScalar(static_cast<size_t>(rep_rows[gid]))));
    }
    out_cols.push_back(b.Finish());
  }

  for (size_t a = 0; a < aggs.size(); ++a) {
    const AggRequest& req = aggs[a];
    const AggState& st = states[a];
    const ColumnPtr col =
        req.kind == AggKind::kCountStar ? nullptr : values->column(req.column);
    DataType out_type =
        AggOutputType(req.kind, col ? col->type() : format::Int64());
    schema.AddField({req.name, out_type});
    format::ColumnBuilder b(out_type);
    b.Reserve(g);
    for (size_t gid = 0; gid < g; ++gid) {
      switch (req.kind) {
        case AggKind::kCountStar:
        case AggKind::kCount:
          b.AppendInt(st.count[gid]);
          break;
        case AggKind::kCountDistinct:
          b.AppendInt(static_cast<int64_t>(
              col->type().is_string() ? st.sset[gid].size() : st.iset[gid].size()));
          break;
        case AggKind::kSum:
          if (st.count[gid] == 0) {
            b.AppendNull();
          } else if (out_type.id == TypeId::kFloat64) {
            b.AppendDouble(st.dsum[gid]);
          } else {
            b.AppendInt(st.isum[gid]);
          }
          break;
        case AggKind::kAvg:
          if (st.count[gid] == 0) {
            b.AppendNull();
          } else {
            b.AppendDouble(st.dsum[gid] / static_cast<double>(st.count[gid]));
          }
          break;
        case AggKind::kMin:
        case AggKind::kMax:
          if (st.best_row[gid] < 0) {
            b.AppendNull();
          } else {
            SIRIUS_RETURN_NOT_OK(b.AppendScalar(
                col->GetScalar(static_cast<size_t>(st.best_row[gid]))));
          }
          break;
      }
    }
    out_cols.push_back(b.Finish());
  }

  return format::Table::Make(std::move(schema), std::move(out_cols));
}


Result<std::vector<index_t>> DistinctIndices(const Context& ctx,
                                             const std::vector<ColumnPtr>& keys) {
  if (keys.empty()) return Status::Invalid("DistinctIndices: no keys");
  const size_t n = keys[0]->length();
  RowOps ops(keys);
  std::vector<int64_t> group_of;
  std::vector<index_t> rep_rows;
  AssignGroupsHash(ops, n, &group_of, &rep_rows);

  uint64_t key_bytes = 0;
  for (const auto& k : keys) key_bytes += k->MemoryUsage();
  sim::KernelCost cost;
  cost.seq_bytes = key_bytes;
  cost.rand_bytes = n * 8;
  cost.rows = n;
  ctx.Charge(sim::OpCategory::kGroupBy, cost);
  return rep_rows;
}


// ---------------------------------------------------------------------------
// Hash partition (src/gdf/partition.cc)
// ---------------------------------------------------------------------------

Result<std::vector<format::TablePtr>> HashPartition(
    const Context& ctx, const format::TablePtr& table,
    const std::vector<int>& key_columns, size_t num_partitions) {
  if (num_partitions == 0) return Status::Invalid("HashPartition: 0 partitions");
  std::vector<format::ColumnPtr> keys;
  for (int c : key_columns) {
    if (c < 0 || static_cast<size_t>(c) >= table->num_columns()) {
      return Status::IndexError("HashPartition: bad key column");
    }
    keys.push_back(table->column(c));
  }
  RowOps ops(keys);
  const size_t n = table->num_rows();
  std::vector<std::vector<index_t>> buckets(num_partitions);
  for (size_t i = 0; i < n; ++i) {
    size_t p = ops.AnyNull(i) ? 0 : Hash(ops, i) % num_partitions;
    buckets[p].push_back(static_cast<index_t>(i));
  }

  sim::KernelCost cost;
  cost.seq_bytes = 2 * table->MemoryUsage();
  cost.rows = n;
  cost.ops_per_row = 2.0;
  cost.launches = 2;
  ctx.Charge(sim::OpCategory::kExchange, cost);

  std::vector<format::TablePtr> out;
  out.reserve(num_partitions);
  for (size_t p = 0; p < num_partitions; ++p) {
    SIRIUS_ASSIGN_OR_RETURN(
        format::TablePtr t,
        GatherTable(ctx, table, buckets[p], sim::OpCategory::kExchange));
    out.push_back(std::move(t));
  }
  return out;
}


// ---------------------------------------------------------------------------
// ASOF join (src/gdf/asof.cc)
// ---------------------------------------------------------------------------

Result<JoinResult> AsofJoin(const Context& ctx, const ColumnPtr& left_on,
                            const ColumnPtr& right_on,
                            const std::vector<ColumnPtr>& left_by,
                            const std::vector<ColumnPtr>& right_by) {
  if (left_by.size() != right_by.size()) {
    return Status::Invalid("AsofJoin: by-key count mismatch");
  }
  if (left_on->type().is_string() || right_on->type().is_string()) {
    return Status::TypeError("AsofJoin: ordering keys must be orderable scalars");
  }
  const size_t nl = left_on->length();
  const size_t nr = right_on->length();

  // Group right rows by their "by" keys (hash of the key values; exactness
  // restored by comparing through RowOps when probing).
  RowOps right_ops(right_by);
  RowOps left_ops(left_by);
  std::map<uint64_t, std::vector<index_t>> right_groups;
  for (size_t j = 0; j < nr; ++j) {
    if (right_on->IsNull(j) || right_ops.AnyNull(j)) continue;
    right_groups[right_by.empty() ? 0 : Hash(right_ops, j)].push_back(
        static_cast<index_t>(j));
  }
  // Sort each group by the ordering key.
  for (auto& [h, rows] : right_groups) {
    (void)h;
    std::stable_sort(rows.begin(), rows.end(), [&](index_t a, index_t b) {
      return ValueCompare(*right_on, static_cast<size_t>(a), *right_on,
                          static_cast<size_t>(b)) < 0;
    });
  }

  JoinResult result;
  result.left_indices.reserve(nl);
  result.right_indices.reserve(nl);
  for (size_t i = 0; i < nl; ++i) {
    result.left_indices.push_back(static_cast<index_t>(i));
    index_t match = -1;
    if (!left_on->IsNull(i) && !left_ops.AnyNull(i)) {
      auto it = right_groups.find(left_by.empty() ? 0 : Hash(left_ops, i));
      if (it != right_groups.end()) {
        const auto& rows = it->second;
        // Largest j with right_on[j] <= left_on[i]: binary search.
        size_t lo = 0, hi = rows.size();
        while (lo < hi) {
          size_t mid = (lo + hi) / 2;
          if (ValueCompare(*right_on, static_cast<size_t>(rows[mid]), *left_on,
                           i) <= 0) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        // Verify by-key equality exactly (hash groups may collide).
        for (size_t k = lo; k-- > 0;) {
          if (left_by.empty() ||
              EqualsNullEqual(left_ops, i, right_ops,
                              static_cast<size_t>(rows[k]))) {
            match = rows[k];
            break;
          }
        }
      }
    }
    result.right_indices.push_back(match);
  }

  sim::KernelCost cost;
  const double lognr = nr > 2 ? std::log2(static_cast<double>(nr)) : 1.0;
  cost.seq_bytes = left_on->MemoryUsage() + right_on->MemoryUsage();
  cost.rand_bytes = static_cast<uint64_t>(nl * lognr * 8) +
                    static_cast<uint64_t>(nr * lognr);
  cost.rows = static_cast<uint64_t>(nl + nr * lognr);
  cost.ops_per_row = 2.0;
  cost.launches = 3;
  ctx.Charge(sim::OpCategory::kJoin, cost);
  return result;
}


}  // namespace sirius::gdf::reference
