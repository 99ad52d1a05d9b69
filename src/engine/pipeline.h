// Pipeline execution model (paper §3.2.2).
//
// A plan is divided into pipelines at pipeline breakers (join build sides,
// aggregations, sorts, distinct, limit, exchange). Each pipeline is a task
// in a global queue; idle CPU threads pull tasks and drive the GPU kernels.
// Within a pipeline execution is push-based: the executor owns all state
// and pushes data through stateless operator steps.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "plan/plan.h"

namespace sirius::engine {

enum class StepKind : uint8_t {
  kFilter,
  kProject,
  kJoin,  ///< join a materialized build side (node->join_type says how)
};

/// One push-based operator step inside a pipeline.
struct Step {
  StepKind kind = StepKind::kFilter;
  const plan::PlanNode* node = nullptr;  ///< borrowed from the plan tree
  int build_pipeline = -1;               ///< kJoin build side
};

enum class SinkKind : uint8_t {
  kMaterialize,  ///< plain intermediate (e.g. a join build side)
  kAggregate,
  kSort,
  kDistinct,
  kLimit,
  kExchange,
};

/// \brief A pipeline: source -> steps -> sink.
struct Pipeline {
  int id = 0;
  /// Source: either a base-table scan node...
  const plan::PlanNode* source_scan = nullptr;
  /// ...or the materialized result of another pipeline.
  int source_pipeline = -1;

  std::vector<Step> steps;

  SinkKind sink = SinkKind::kMaterialize;
  const plan::PlanNode* sink_node = nullptr;

  /// Pipelines that must complete first (build sides + source).
  std::vector<int> dependencies;
};

/// \brief Breaks a plan into pipelines. The plan tree must outlive the
/// compiled pipelines (they borrow nodes).
class PipelineCompiler {
 public:
  /// Compiles `plan`; returns the id of the pipeline producing the final
  /// result. Pipelines are appended to `out` in creation order.
  static Result<int> Compile(const plan::PlanPtr& plan,
                             std::vector<Pipeline>* out);
};

/// How a pipeline's streaming chain executes.
enum class StageExec : uint8_t {
  kMaterialized,  ///< step-at-a-time: each step gathers its full output
  kFused,         ///< one pass per morsel: selection vectors between steps,
                  ///< sinks are the only materialization points
};

/// \brief Per-pipeline fusion plan, compiled alongside the pipeline set.
struct FusedStage {
  StageExec exec = StageExec::kMaterialized;
  /// Why the stage stays materialized (empty when fused).
  std::string reason;
};

/// \brief Decides, per pipeline, whether its streaming chain runs fused.
///
/// A rule: every non-empty chain fuses unless it has a cross join, an ASOF
/// join or a residual join predicate (their kernels need the whole probe
/// table materialized); those stay materialized with a recorded reason.
class FusedStageCompiler {
 public:
  /// One FusedStage per pipeline, indexed by pipeline id. With
  /// `fusion_enabled` false every stage is kMaterialized ("fusion disabled").
  static std::vector<FusedStage> Compile(const std::vector<Pipeline>& pipelines,
                                         bool fusion_enabled);
};

/// Human-readable dump of a pipeline set, annotated with each pipeline's
/// fused-stage decision (tests, EXPLAIN ANALYZE).
std::string PipelinesToString(const std::vector<Pipeline>& pipelines,
                              const std::vector<FusedStage>& stages);

}  // namespace sirius::engine
