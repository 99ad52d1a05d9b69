#include "gdf/groupby.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <unordered_set>

#include "common/bitutil.h"
#include "format/builder.h"
#include "gdf/row_ops.h"

namespace sirius::gdf {

using format::Column;
using format::ColumnPtr;
using format::DataType;
using format::DecimalPow10;
using format::TablePtr;
using format::TypeId;

const char* AggKindName(AggKind k) {
  switch (k) {
    case AggKind::kSum:
      return "sum";
    case AggKind::kMin:
      return "min";
    case AggKind::kMax:
      return "max";
    case AggKind::kCount:
      return "count";
    case AggKind::kCountStar:
      return "count_star";
    case AggKind::kAvg:
      return "avg";
    case AggKind::kCountDistinct:
      return "count_distinct";
  }
  return "?";
}

format::DataType AggOutputType(AggKind kind, const DataType& in) {
  switch (kind) {
    case AggKind::kSum:
      if (in.id == TypeId::kFloat64) return format::Float64();
      if (in.is_decimal()) return in;
      return format::Int64();
    case AggKind::kMin:
    case AggKind::kMax:
      return in;
    case AggKind::kCount:
    case AggKind::kCountStar:
    case AggKind::kCountDistinct:
      return format::Int64();
    case AggKind::kAvg:
      return format::Float64();
  }
  return format::Int64();
}

namespace {

/// Maps each row to a dense group id in first-seen order. Returns the group
/// count; fills group_of (per row) and the representative (first) row per
/// group. Each slot packs a group id with its hash tag (PackSlot).
size_t AssignGroupsHash(const RowOps& keys, size_t n, std::vector<int64_t>* group_of,
                        std::vector<index_t>* rep_rows) {
  const std::vector<uint64_t> hashes = keys.HashAll();
  const uint64_t mask = bit::NextPow2(std::max<uint64_t>(16, n * 2)) - 1;
  std::vector<uint64_t> slots(mask + 1, kEmptySlot);
  group_of->resize(n);
  rep_rows->clear();
  WithRowEquality(keys, keys, [&](const auto& eq) {
    int64_t* gids = group_of->data();
    for (size_t i = 0; i < n; ++i) {
      const uint64_t h = hashes[i];
      for (uint64_t slot = h & mask;; slot = (slot + 1) & mask) {
        const uint64_t s = slots[slot];
        if (s == kEmptySlot) {
          slots[slot] = PackSlot(h, rep_rows->size());
          gids[i] = static_cast<int64_t>(rep_rows->size());
          rep_rows->push_back(static_cast<index_t>(i));
          break;
        }
        const size_t gid = SlotId(s);
        if (SlotTagMatches(s, h) && eq(i, static_cast<size_t>((*rep_rows)[gid]))) {
          gids[i] = static_cast<int64_t>(gid);
          break;
        }
      }
    }
  });
  return rep_rows->size();
}

/// Sort-ordered group assignment for string keys (libcudf behaviour; the
/// caller charges the n log n row sort). The groups are hashed in first-seen
/// order, then only the g group ids are stable-sorted by their
/// representatives' keys and renumbered. Wherever Compare is a strict weak
/// order (every input without NaN keys) this is exactly a stable row sort
/// segmented into equal runs: the same groups, ids in key order, and each
/// group's first-seen row as its representative.
size_t AssignGroupsSort(const RowOps& keys, size_t n, std::vector<int64_t>* group_of,
                        std::vector<index_t>* rep_rows) {
  const size_t g = AssignGroupsHash(keys, n, group_of, rep_rows);
  std::vector<index_t> order(g);
  for (size_t k = 0; k < g; ++k) order[k] = static_cast<index_t>(k);
  const std::vector<index_t>& first = *rep_rows;
  const std::vector<bool> no_desc;
  // stable_sort, not sort: with NaN keys Compare is no strict weak order,
  // and std::sort may then run past the range.
  std::stable_sort(order.begin(), order.end(), [&](index_t a, index_t b) {
    return keys.Compare(static_cast<size_t>(first[a]), static_cast<size_t>(first[b]),
                        no_desc) < 0;
  });
  std::vector<int64_t> rank(g);
  std::vector<index_t> sorted_reps(g);
  for (size_t k = 0; k < g; ++k) {
    rank[order[k]] = static_cast<int64_t>(k);
    sorted_reps[k] = first[order[k]];
  }
  for (int64_t& gid : *group_of) gid = rank[gid];
  *rep_rows = std::move(sorted_reps);
  return g;
}

struct AggState {
  std::vector<double> dsum;
  std::vector<int64_t> isum;
  std::vector<int64_t> count;
  std::vector<index_t> best_row;           // min/max representative
  std::vector<std::set<int64_t>> iset;     // count distinct (ints)
  std::vector<std::set<std::string>> sset; // count distinct (strings)
};

/// SUM/AVG accumulation over a numeric column, one typed loop per value type.
/// Each row adds the same expressions in the same order as a row-at-a-time
/// loop, so the double sums are bit-identical to it.
void AccumulateSums(const Column& col, const std::vector<int64_t>& group_of,
                    AggState* st) {
  const size_t n = col.length();
  const uint8_t* valid = col.has_nulls() ? col.validity() : nullptr;
  const int64_t* gids = group_of.data();
  int64_t* count = st->count.data();
  int64_t* isum = st->isum.empty() ? nullptr : st->isum.data();
  double* dsum = st->dsum.empty() ? nullptr : st->dsum.data();
  auto each_row = [&](auto add) {
    if (valid == nullptr) {
      for (size_t i = 0; i < n; ++i) add(i, gids[i]);
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (bit::GetBit(valid, i)) add(i, gids[i]);
      }
    }
  };
  auto sum_ints = [&](const auto* v) {
    if (dsum == nullptr) {
      each_row([&](size_t i, int64_t gid) {
        ++count[gid];
        isum[gid] += v[i];
      });
      return;
    }
    // AVG: scaled to a double as raw / 10^scale, the divisor hoisted.
    const double divisor = static_cast<double>(DecimalPow10(col.type().scale));
    each_row([&](size_t i, int64_t gid) {
      ++count[gid];
      isum[gid] += v[i];
      dsum[gid] += static_cast<double>(static_cast<int64_t>(v[i])) / divisor;
    });
  };
  switch (col.type().id) {
    case TypeId::kFloat64: {
      const double* v = col.data<double>();
      each_row([&](size_t i, int64_t gid) {
        ++count[gid];
        dsum[gid] += v[i];
      });
      return;
    }
    case TypeId::kInt64:
    case TypeId::kDecimal64:
      sum_ints(col.data<int64_t>());
      return;
    case TypeId::kInt32:
      sum_ints(col.data<int32_t>());
      return;
    default:
      return;  // non-numeric arguments are rejected before accumulation
  }
}

struct NumericView {
  const int64_t* i64 = nullptr;
  const int32_t* i32 = nullptr;
  const uint8_t* b8 = nullptr;

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
    case TypeId::kFloat64:
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
        AccumulateSums(*col, group_of, &st);
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

Result<TablePtr> GroupByAggregateView(const Context& ctx,
                                      const SelectionView& view,
                                      const std::vector<int>& key_columns,
                                      const std::vector<std::string>& key_names,
                                      const std::vector<AggRequest>& aggs) {
  std::vector<ColumnPtr> keys;
  keys.reserve(key_columns.size());
  for (int c : key_columns) {
    SIRIUS_ASSIGN_OR_RETURN(
        ColumnPtr k, GatherViewColumn(ctx, view, c, sim::OpCategory::kGroupBy));
    keys.push_back(std::move(k));
  }

  // Compact values table: each distinct aggregate argument gathered once,
  // with the requests remapped onto compact positions.
  std::vector<ColumnPtr> vals;
  format::Schema vschema;
  std::map<int, int> remap;
  std::vector<AggRequest> remapped = aggs;
  for (auto& req : remapped) {
    if (req.kind == AggKind::kCountStar || req.column < 0) {
      req.column = -1;
      continue;
    }
    auto it = remap.find(req.column);
    if (it == remap.end()) {
      SIRIUS_ASSIGN_OR_RETURN(
          ColumnPtr v,
          GatherViewColumn(ctx, view, req.column, sim::OpCategory::kGroupBy));
      it = remap.emplace(req.column, static_cast<int>(vals.size())).first;
      vschema.AddField({"v" + std::to_string(req.column), v->type()});
      vals.push_back(std::move(v));
    }
    req.column = it->second;
  }
  if (vals.empty()) {
    // count(*)-only aggregates: GroupByAggregate takes its row count from
    // the values table, so carry a zero-width-equivalent dummy along.
    vals.push_back(format::Column::FromInt64(
        std::vector<int64_t>(view.num_rows(), 0)));
    vschema.AddField({"rows", format::Int64()});
  }
  SIRIUS_ASSIGN_OR_RETURN(TablePtr values,
                          format::Table::Make(std::move(vschema), std::move(vals)));
  return GroupByAggregate(ctx, keys, key_names, values, remapped);
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

}  // namespace sirius::gdf
