#include "lint.h"

#include <regex>

namespace sirius::lint {

using analysis::Contains;
using analysis::InDir;
using analysis::IsIdentChar;
using analysis::IsSuppressed;
using analysis::LastCodeCharBefore;
using analysis::NormalizePath;
using analysis::Trim;
using analysis::WordOccurrences;

namespace {

/// Macros whose arguments consume a Status/Result (call already checked).
bool IsCheckedWrapper(const std::string& trimmed) {
  static const char* kWrappers[] = {
      "SIRIUS_RETURN_NOT_OK", "SIRIUS_ASSIGN_OR_RETURN", "SIRIUS_CHECK_OK",
      "SIRIUS_CHECK", "EXPECT_", "ASSERT_", "RETURN_NOT_OK",
  };
  for (const char* w : kWrappers) {
    if (trimmed.rfind(w, 0) == 0) return true;
  }
  return false;
}

/// True when `line` looks like the start of a statement given the previous
/// non-blank code line (which ends with ; { } or a label/access colon).
bool PrevEndsStatement(const std::vector<std::string>& code, size_t i) {
  for (size_t j = i; j > 0; --j) {
    const std::string prev = Trim(code[j - 1]);
    if (prev.empty()) continue;
    if (prev[0] == '#') return true;  // preprocessor line
    const char last = prev.back();
    return last == ';' || last == '{' || last == '}' || last == ':';
  }
  return true;  // first line of the file
}

/// Matches a bare call statement `receiver.Name(` / `ns::Name(` / `Name(`
/// at the start of `trimmed`; returns the called name or "".
std::string BareCallName(const std::string& trimmed) {
  static const std::regex re_call(
      R"(^(?:[A-Za-z_]\w*(?:::[A-Za-z_]\w*)*(?:\.|->))?((?:[A-Za-z_]\w*::)*[A-Za-z_]\w*)\s*\()");
  std::smatch m;
  if (!std::regex_search(trimmed, m, re_call)) return "";
  std::string name = m[1];
  const size_t colons = name.rfind("::");
  if (colons != std::string::npos) name = name.substr(colons + 2);
  return name;
}

/// True when the innermost top-level directory enclosing `norm` is src/,
/// so a checkout under ~/src/ still reads tests/x.cc as tests.
bool InSrcTree(const std::string& norm) {
  const size_t src = norm.rfind("/src/");
  if (src == std::string::npos) return false;
  for (const char* dir : {"/tests/", "/bench/", "/examples/", "/tools/"}) {
    const size_t pos = norm.rfind(dir);
    if (pos != std::string::npos && pos > src) return false;
  }
  return true;
}

}  // namespace

std::vector<Finding> LintContent(const std::string& path,
                                 const std::string& content,
                                 const FunctionIndex& index,
                                 std::vector<Finding>* suppressed) {
  const std::string norm = NormalizePath(path);
  const bool in_mem = InDir(norm, "src/mem");
  const bool in_sim = InDir(norm, "src/sim");
  const bool in_serve =
      InDir(norm, "src/serve") || InDir(norm, "src/cluster");
  const bool in_src = InSrcTree(norm);
  // Demo code under examples/ drops statuses and calls banned functions at
  // its peril like everything else, but the RAII/ownership house rules are
  // library-internal; only the two portable rules fire there.
  const bool in_examples = InDir(norm, "examples");
  const bool is_header = norm.size() > 2 && norm.rfind(".h") == norm.size() - 2;

  const ScrubbedFile scrubbed = Scrub(content);
  std::vector<Finding> findings;
  auto add = [&](size_t i, const char* rule, std::string message) {
    findings.push_back(Finding{path, static_cast<int>(i + 1), rule,
                               std::move(message)});
  };

  for (size_t i = 0; i < scrubbed.code.size(); ++i) {
    const std::string& line = scrubbed.code[i];
    const std::string trimmed = Trim(line);
    if (trimmed.empty()) continue;

    // ---- unchecked-status ----------------------------------------------
    if (PrevEndsStatement(scrubbed.code, i) && !IsCheckedWrapper(trimmed)) {
      const std::string name = BareCallName(trimmed);
      if (!name.empty() && index.IsStatusFunction(name)) {
        add(i, kRuleUncheckedStatus,
            "result of Status/Result-returning '" + name +
                "' is dropped; consume it (SIRIUS_RETURN_NOT_OK, "
                "SIRIUS_CHECK_OK, assign, or explicit (void) cast)");
      }
    }

    // ---- banned-function ------------------------------------------------
    {
      static const char* kBanned[] = {"rand", "strcpy", "strcat", "sprintf",
                                      "gets"};
      for (const char* fn : kBanned) {
        for (size_t pos : WordOccurrences(line, fn)) {
          // Only calls: next non-space char must open the argument list.
          size_t after = pos + std::string(fn).size();
          while (after < line.size() &&
                 (line[after] == ' ' || line[after] == '\t')) {
            ++after;
          }
          if (after >= line.size() || line[after] != '(') continue;
          add(i, kRuleBannedFunction,
              std::string("'") + fn +
                  "' is banned (non-deterministic or unbounded); use "
                  "<random> engines / std::snprintf / std::string");
        }
      }
      if (in_sim && Contains(line, "system_clock")) {
        add(i, kRuleBannedFunction,
            "wall-clock time inside src/sim/; simulated components charge "
            "Timeline seconds, never real time");
      }
    }

    // The remaining rules are library house rules; examples/ is exempt.
    if (in_examples) continue;

    // ---- raw-new-delete -------------------------------------------------
    if (!in_mem) {
      for (size_t pos : WordOccurrences(line, "new")) {
        // `new` immediately owned by a smart pointer is fine:
        // std::shared_ptr<T>(new T()) — the private-constructor factory
        // idiom. Detect "ptr<...>(" right before the `new`.
        const char before = LastCodeCharBefore(line, pos);
        if (before == '(' &&
            (Contains(line.substr(0, pos), "shared_ptr<") ||
             Contains(line.substr(0, pos), "unique_ptr<"))) {
          continue;
        }
        add(i, kRuleRawNewDelete,
            "raw 'new' outside src/mem/; use Buffer/MemoryResource, a "
            "smart pointer, or a container");
      }
      for (size_t pos : WordOccurrences(line, "delete")) {
        if (LastCodeCharBefore(line, pos) == '=') continue;  // = delete
        add(i, kRuleRawNewDelete,
            "raw 'delete' outside src/mem/; ownership belongs to RAII types");
      }
    }

    // ---- mutex-guard ----------------------------------------------------
    {
      static const std::regex re_lock(
          R"(([A-Za-z_]\w*)\s*(?:\.|->)\s*(?:try_)?(?:un)?lock\s*\()");
      for (std::sregex_iterator it(line.begin(), line.end(), re_lock), end;
           it != end; ++it) {
        const std::string receiver = (*it)[1];
        const bool mutexish = Contains(receiver, "mutex") ||
                              Contains(receiver, "mtx") || receiver == "mu" ||
                              receiver == "mu_" || receiver == "m_mu";
        if (mutexish) {
          add(i, kRuleMutexGuard,
              "manual (un)lock of '" + receiver +
                  "'; use std::lock_guard / std::unique_lock / "
                  "std::scoped_lock");
        }
      }
    }

    // ---- pinned-host-alloc ----------------------------------------------
    // All pinned host staging flows through the TierManager's ledger in
    // src/mem/ (the cudaHostAlloc registry of a real deployment). A direct
    // PinnedHostAlloc/PinnedHostFree call anywhere else bypasses tier
    // capacities and per-tenant spill quotas.
    if (!in_mem) {
      static const char* kPinned[] = {"PinnedHostAlloc", "PinnedHostFree"};
      for (const char* fn : kPinned) {
        for (size_t pos : WordOccurrences(line, fn)) {
          size_t after = pos + std::string(fn).size();
          while (after < line.size() &&
                 (line[after] == ' ' || line[after] == '\t')) {
            ++after;
          }
          if (after >= line.size() || line[after] != '(') continue;
          add(i, kRulePinnedHostAlloc,
              std::string("'") + fn +
                  "' outside src/mem/; pinned host staging goes through the "
                  "TierManager so spilled bytes stay governed");
        }
      }
    }

    // ---- serve-no-blocking ----------------------------------------------
    // The serving layer is a discrete-event core: every wait must be a
    // future/condition join tied to simulated time. Detached threads outlive
    // the DES state they touch, and wall-clock sleeps / spin-yields smuggle
    // real time into results that must be byte-deterministic.
    if (in_serve) {
      static const std::regex re_detach(
          R"((?:\.|->)\s*detach\s*\()");
      if (std::regex_search(line, re_detach)) {
        add(i, kRuleServeBlocking,
            "detached thread in the serving tier (src/serve/, src/cluster/); "
            "executions run on the joined worker pool so server teardown can "
            "never race a stray thread");
      }
      static const char* kSleeps[] = {"sleep_for", "sleep_until", "usleep",
                                      "nanosleep", "sleep", "yield"};
      for (const char* fn : kSleeps) {
        for (size_t pos : WordOccurrences(line, fn)) {
          size_t after = pos + std::string(fn).size();
          while (after < line.size() &&
                 (line[after] == ' ' || line[after] == '\t')) {
            ++after;
          }
          if (after >= line.size() || line[after] != '(') continue;
          add(i, kRuleServeBlocking,
              std::string("'") + fn +
                  "' in the serving tier (src/serve/, src/cluster/); waiting "
                  "is a future/condition join in simulated time, never a "
                  "wall-clock sleep or busy-wait");
        }
      }
    }

    // ---- status-message-dispatch ----------------------------------------
    // Recovery branches on Status::code() and Status::cause(), never on the
    // wording of message(): reword a message and a find("spill") silently
    // changes which failures shed. Tests keep asserting on readable text, so
    // only src/ is in scope.
    if (in_src) {
      static const std::regex re_dispatch(
          R"(\bmessage\s*\(\s*\)\s*(?:\.\s*(?:find|rfind|compare|starts_with|ends_with|contains)\s*\(|[=!]=))");
      if (std::regex_search(line, re_dispatch)) {
        add(i, kRuleStatusMessageDispatch,
            "control flow on Status message text; branch on code() or "
            "cause() (add a StatusCause) so rewording a message cannot "
            "change recovery");
      }
    }

    // ---- raii-span ------------------------------------------------------
    {
      static const std::string kSpan = "obs::Span";
      size_t pos = 0;
      while ((pos = line.find(kSpan, pos)) != std::string::npos) {
        const size_t end = pos + kSpan.size();
        // Reject partial-identifier matches (obs::SpanRecord, obs::SpanId).
        if (end < line.size() && IsIdentChar(line[end])) {
          pos = end;
          continue;
        }
        // `new obs::Span` escapes the scope guard entirely.
        size_t back = pos;
        while (back > 0 &&
               (line[back - 1] == ' ' || line[back - 1] == '\t')) {
          --back;
        }
        const bool heap = back >= 3 && line.compare(back - 3, 3, "new") == 0 &&
                          (back < 4 || !IsIdentChar(line[back - 4]));
        // A temporary `obs::Span(...)` / `obs::Span{...}` ends the span in
        // the same statement; only a named local actually scopes it.
        size_t after = end;
        while (after < line.size() &&
               (line[after] == ' ' || line[after] == '\t')) {
          ++after;
        }
        const bool temporary =
            after < line.size() && (line[after] == '(' || line[after] == '{');
        if (heap) {
          add(i, kRuleRaiiSpan,
              "heap-allocated obs::Span; spans are RAII guards and must be "
              "named locals");
        } else if (temporary) {
          add(i, kRuleRaiiSpan,
              "temporary obs::Span dies before the work it should cover; "
              "bind it to a named local (obs::Span span(...);)");
        }
        pos = end;
      }
    }

    // ---- nodiscard-status-api ------------------------------------------
    if (is_header) {
      static const std::regex re_class(R"(\bclass\s+(Status|Result)\b)");
      std::smatch m;
      if (std::regex_search(trimmed, m, re_class) &&
          !Contains(trimmed, "[[nodiscard]]") &&
          trimmed.find("class") == 0) {
        add(i, kRuleNodiscardStatus,
            "class " + m[1].str() +
                " must be declared [[nodiscard]] so the compiler flags "
                "every dropped error");
      }
    }
  }

  // ---- suppressions -----------------------------------------------------
  std::vector<Finding> kept;
  for (Finding& f : findings) {
    if (IsSuppressed(scrubbed, f.line, "sirius-lint", f.rule)) {
      if (suppressed != nullptr) suppressed->push_back(std::move(f));
    } else {
      kept.push_back(std::move(f));
    }
  }
  return kept;
}

std::vector<Finding> LintFiles(
    const std::map<std::string, std::string>& files,
    std::vector<Finding>* suppressed) {
  FunctionIndex index;
  for (const auto& [path, content] : files) IndexFunctions(content, &index);
  std::vector<Finding> out;
  for (const auto& [path, content] : files) {
    std::vector<Finding> f = LintContent(path, content, index, suppressed);
    out.insert(out.end(), std::make_move_iterator(f.begin()),
               std::make_move_iterator(f.end()));
  }
  return out;
}

}  // namespace sirius::lint
