// sirius_lint: project-specific static checks (token/regex level, no
// libclang). See DESIGN.md "Correctness tooling" for the rule catalogue.
//
// The engine is a plain library so tests can feed deliberately-violating
// snippets through it; the `sirius_lint` binary walks the repo and runs as
// the tier-1 `lint`-labelled ctest.
//
// The scrubber, cross-file function index, and finding schema live in the
// shared tools/analysis_frontend library (sirius_analyze builds its CFGs on
// the same scrubbed text); this header re-exports them under sirius::lint
// so rule code and tests are frontend-agnostic.

#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "frontend.h"

namespace sirius::lint {

using Finding = analysis::Finding;
using FunctionIndex = analysis::FunctionIndex;
using ScrubbedFile = analysis::ScrubbedFile;
using analysis::FormatFinding;
using analysis::IndexFunctions;
using analysis::Scrub;

/// \name Rule names (also the tokens accepted by `// sirius-lint: allow(...)`)
/// @{
inline constexpr char kRuleUncheckedStatus[] = "unchecked-status";
inline constexpr char kRuleRawNewDelete[] = "raw-new-delete";
inline constexpr char kRuleMutexGuard[] = "mutex-guard";
inline constexpr char kRuleBannedFunction[] = "banned-function";
inline constexpr char kRuleNodiscardStatus[] = "nodiscard-status-api";
inline constexpr char kRuleRaiiSpan[] = "raii-span";
inline constexpr char kRuleServeBlocking[] = "serve-no-blocking";
inline constexpr char kRulePinnedHostAlloc[] = "pinned-host-alloc";
inline constexpr char kRuleStatusMessageDispatch[] = "status-message-dispatch";
/// @}

/// Second pass: runs every rule over one file. `path` decides path-scoped
/// rules (src/mem/ may use raw new/delete; src/sim/ may not read wall-clock
/// time; only src/ may not branch on Status message text; examples/ only
/// runs unchecked-status and banned-function, matching what demo code must
/// honour). Findings suppressed by
/// `// sirius-lint: allow(<rule>)` on the same or preceding line are dropped;
/// when `suppressed` is non-null the dropped findings are appended there (the
/// repo test forbids suppressions in src/engine/ and src/net/).
std::vector<Finding> LintContent(const std::string& path,
                                 const std::string& content,
                                 const FunctionIndex& index,
                                 std::vector<Finding>* suppressed = nullptr);

/// Convenience for tests: index + lint a set of (path, content) files.
std::vector<Finding> LintFiles(
    const std::map<std::string, std::string>& files,
    std::vector<Finding>* suppressed = nullptr);

}  // namespace sirius::lint
