#include "engine/pipeline.h"

#include <optional>
#include <sstream>

namespace sirius::engine {

using plan::PlanKind;
using plan::PlanNode;
using plan::PlanPtr;

namespace {

/// The sink a pipeline-breaking node compiles to; nullopt for the nodes a
/// pipeline streams through.
std::optional<SinkKind> BreakerSink(PlanKind kind) {
  switch (kind) {
    case PlanKind::kAggregate: return SinkKind::kAggregate;
    case PlanKind::kSort: return SinkKind::kSort;
    case PlanKind::kDistinct: return SinkKind::kDistinct;
    case PlanKind::kLimit: return SinkKind::kLimit;
    case PlanKind::kExchange: return SinkKind::kExchange;
    default: return std::nullopt;
  }
}

class Compiler {
 public:
  explicit Compiler(std::vector<Pipeline>* out) : out_(out) {}

  /// Returns the id of a pipeline that materializes `node`'s output: a
  /// breaker sinks its child's chain, any other node is materialized as is.
  Result<int> Materialize(const PlanNode* node) {
    const int id = static_cast<int>(out_->size());
    out_->push_back(Pipeline{});
    (*out_)[id].id = id;
    const std::optional<SinkKind> sink = BreakerSink(node->kind);
    SIRIUS_RETURN_NOT_OK(
        BuildInto(sink.has_value() ? node->children[0].get() : node, id));
    (*out_)[id].sink = sink.value_or(SinkKind::kMaterialize);
    (*out_)[id].sink_node = node;
    return id;
  }

 private:
  /// Appends `node`'s streaming chain into pipeline `pid` (recursing into
  /// the streaming child first; breakers/scans terminate the walk).
  Status BuildInto(const PlanNode* node, int pid) {
    switch (node->kind) {
      case PlanKind::kTableScan:
        (*out_)[pid].source_scan = node;
        return Status::OK();
      case PlanKind::kFilter: {
        SIRIUS_RETURN_NOT_OK(BuildInto(node->children[0].get(), pid));
        (*out_)[pid].steps.push_back({StepKind::kFilter, node, -1});
        return Status::OK();
      }
      case PlanKind::kProject: {
        SIRIUS_RETURN_NOT_OK(BuildInto(node->children[0].get(), pid));
        (*out_)[pid].steps.push_back({StepKind::kProject, node, -1});
        return Status::OK();
      }
      case PlanKind::kJoin: {
        // The build (right) side becomes its own pipeline; the probe side
        // continues the current one.
        SIRIUS_ASSIGN_OR_RETURN(int build, Materialize(node->children[1].get()));
        SIRIUS_RETURN_NOT_OK(BuildInto(node->children[0].get(), pid));
        Pipeline& p = (*out_)[pid];
        p.steps.push_back({StepKind::kJoin, node, build});
        p.dependencies.push_back(build);
        return Status::OK();
      }
      default: {
        // Breaker in the middle of a chain: it becomes this pipeline's
        // source.
        SIRIUS_ASSIGN_OR_RETURN(int src, Materialize(node));
        Pipeline& p = (*out_)[pid];
        p.source_pipeline = src;
        p.dependencies.push_back(src);
        return Status::OK();
      }
    }
  }

  std::vector<Pipeline>* out_;
};

}  // namespace

Result<int> PipelineCompiler::Compile(const PlanPtr& plan,
                                      std::vector<Pipeline>* out) {
  Compiler compiler(out);
  return compiler.Materialize(plan.get());
}

namespace {

const char* SinkName(SinkKind sink) {
  switch (sink) {
    case SinkKind::kMaterialize: return "materialize";
    case SinkKind::kAggregate: return "aggregate";
    case SinkKind::kSort: return "sort";
    case SinkKind::kDistinct: return "distinct";
    case SinkKind::kLimit: return "limit";
    case SinkKind::kExchange: return "exchange";
  }
  return "?";
}

/// Why `p`'s chain cannot run as one fused pass; empty when it can.
std::string UnfusableReason(const Pipeline& p) {
  if (p.steps.empty()) return "no streaming steps";
  for (const auto& s : p.steps) {
    if (s.kind != StepKind::kJoin) continue;
    if (s.node->join_type == plan::JoinType::kCross) return "cross join";
    if (s.node->join_type == plan::JoinType::kAsof) return "asof join";
    if (s.node->residual != nullptr) return "residual join predicate";
  }
  return "";
}

}  // namespace

std::vector<FusedStage> FusedStageCompiler::Compile(
    const std::vector<Pipeline>& pipelines, bool fusion_enabled) {
  std::vector<FusedStage> out(pipelines.size());
  for (const auto& p : pipelines) {
    FusedStage& stage = out[p.id];
    stage.reason = fusion_enabled ? UnfusableReason(p) : "fusion disabled";
    if (stage.reason.empty()) stage.exec = StageExec::kFused;
  }
  return out;
}

std::string PipelinesToString(const std::vector<Pipeline>& pipelines,
                              const std::vector<FusedStage>& stages) {
  std::ostringstream os;
  for (const auto& p : pipelines) {
    os << "pipeline " << p.id << ": ";
    if (p.source_scan != nullptr) {
      os << "scan(" << p.source_scan->table_name << ")";
    } else if (p.source_pipeline >= 0) {
      os << "from(p" << p.source_pipeline << ")";
    } else {
      os << "<no source>";
    }
    for (const auto& s : p.steps) {
      if (s.kind == StepKind::kJoin) {
        os << " -> probe(p" << s.build_pipeline << ", "
           << plan::JoinTypeName(s.node->join_type) << ")";
      } else {
        os << (s.kind == StepKind::kFilter ? " -> filter" : " -> project");
      }
    }
    os << " => " << SinkName(p.sink);
    const FusedStage& st = stages[p.id];
    if (st.exec == StageExec::kFused) {
      os << "  [fused ops=" << p.steps.size() << "]";
    } else {
      os << "  [materialized: " << st.reason << "]";
    }
    os << "\n";
  }
  return os.str();
}

}  // namespace sirius::engine
