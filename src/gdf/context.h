// Execution context for GDF kernels (libcudf-equivalent layer).
//
// Mirrors libcudf's (stream, memory_resource) kernel arguments: every kernel
// takes a Context carrying the memory resource for allocations and the
// simulation context that models the device it "runs" on.

#pragma once

#include <unordered_set>

#include "mem/memory_resource.h"
#include "sim/cost_model.h"

namespace sirius::format {
class Column;
}  // namespace sirius::format

namespace sirius::gdf {

/// Row index type used by the GDF kernel layer. libcudf uses int32_t row
/// indices while the Sirius engine uses uint64_t (paper §3.2.3); the engine
/// converts at the boundary.
using index_t = int32_t;

/// \brief Per-invocation kernel environment.
struct Context {
  /// Allocator for kernel outputs (the processing region in Sirius).
  mem::MemoryResource* mr = nullptr;
  /// Device/engine model charged for the kernel's work. A default-constructed
  /// SimContext has a null timeline, i.e. no accounting.
  sim::SimContext sim;

  /// Register-residency set of an active fused pass (null outside one).
  /// A fused chain is one kernel: each backing column's values are loaded
  /// from HBM once per morsel and then stay live in registers across the
  /// chained operators, so kernels charge a column's read only on its first
  /// appearance here and treat later reads (and intermediate writes) as
  /// free. The engine owns the set per pass; a morsel boundary resets it.
  std::unordered_set<const format::Column*>* fused_reads = nullptr;

  /// True when reading `col` costs HBM traffic: always outside a fused
  /// pass, on first touch inside one (which makes `col` resident).
  bool FirstRead(const format::Column* col) const {
    return fused_reads == nullptr || fused_reads->insert(col).second;
  }

  /// Charges a kernel's counted work to the timeline.
  void Charge(sim::OpCategory cat, const sim::KernelCost& cost) const {
    sim.Charge(cat, cost);
  }
};

}  // namespace sirius::gdf
