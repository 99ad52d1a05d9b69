// Unit tests for the sirius_lint rule engine: each rule must fire on a
// minimal violating snippet, stay silent on the idiomatic fix, and honour
// `// sirius-lint: allow(<rule>)` suppressions.

#include <gtest/gtest.h>

#include "lint.h"

namespace sirius::lint {
namespace {

std::vector<Finding> Lint(const std::string& path, const std::string& content) {
  return LintFiles({{path, content}});
}

size_t CountRule(const std::vector<Finding>& findings, const std::string& rule) {
  size_t n = 0;
  for (const Finding& f : findings) {
    if (f.rule == rule) ++n;
  }
  return n;
}

// ---- scrubbing ------------------------------------------------------------

TEST(ScrubTest, RemovesCommentsAndLiterals) {
  const ScrubbedFile s = Scrub(
      "int x = 1; // new int\n"
      "/* delete p; */ int y;\n"
      "const char* s = \"rand()\";\n");
  ASSERT_EQ(s.code.size(), 4u);  // trailing flush after last newline
  EXPECT_EQ(s.code[0], "int x = 1; ");
  EXPECT_EQ(s.comments[0], " new int");
  EXPECT_EQ(s.code[1], " int y;");
  EXPECT_EQ(s.code[2], "const char* s =  ;");
}

TEST(ScrubTest, BlockCommentSpansLines) {
  const ScrubbedFile s = Scrub("a /* x\ny */ b\n");
  EXPECT_EQ(s.code[0], "a ");
  EXPECT_EQ(s.code[1], " b");
  EXPECT_EQ(s.comments[0], " x");
  EXPECT_EQ(s.comments[1], "y ");
}

// ---- unchecked-status -----------------------------------------------------

TEST(UncheckedStatusTest, BareCallToStatusFunctionIsFlagged) {
  const auto findings = Lint("src/engine/x.cc",
                             "Status Flush(int n);\n"
                             "void F() {\n"
                             "  Flush(3);\n"
                             "}\n");
  ASSERT_EQ(CountRule(findings, kRuleUncheckedStatus), 1u);
  EXPECT_EQ(findings[0].line, 3);
}

TEST(UncheckedStatusTest, ResultReturningFunctionIsFlagged) {
  const auto findings = Lint("src/engine/x.cc",
                             "Result<int> Parse(const std::string& s);\n"
                             "void F() {\n"
                             "  Parse(s);\n"
                             "}\n");
  EXPECT_EQ(CountRule(findings, kRuleUncheckedStatus), 1u);
}

TEST(UncheckedStatusTest, MemberCallOnStatusFunctionIsFlagged) {
  const auto findings = Lint("src/engine/x.cc",
                             "Status Flush(int n);\n"
                             "void F() {\n"
                             "  writer->Flush(3);\n"
                             "  writer.Flush(4);\n"
                             "}\n");
  EXPECT_EQ(CountRule(findings, kRuleUncheckedStatus), 2u);
}

TEST(UncheckedStatusTest, ConsumedCallsAreClean) {
  const auto findings = Lint("src/engine/x.cc",
                             "Status Flush(int n);\n"
                             "Status G() {\n"
                             "  SIRIUS_RETURN_NOT_OK(Flush(1));\n"
                             "  SIRIUS_CHECK_OK(Flush(2));\n"
                             "  Status s = Flush(3);\n"
                             "  if (!Flush(4).ok()) return s;\n"
                             "  return Flush(5);\n"
                             "}\n");
  EXPECT_EQ(CountRule(findings, kRuleUncheckedStatus), 0u);
}

TEST(UncheckedStatusTest, IndexIsCrossFile) {
  // Declaration in the header, dropped call in another file.
  const auto findings = LintFiles({
      {"src/net/api.h", "Status Send(int node);\n"},
      {"src/net/impl.cc", "void F() {\n  Send(1);\n}\n"},
  });
  EXPECT_EQ(CountRule(findings, kRuleUncheckedStatus), 1u);
}

TEST(UncheckedStatusTest, OverloadedNameWithNonStatusReturnIsExempt) {
  // `Size` returns Status in one API and size_t in another: a token-level
  // linter cannot tell which overload a call hits, so it must stay silent.
  const auto findings = LintFiles({
      {"src/a.h", "Status Size(int* out);\n"},
      {"src/b.h", "size_t Size();\n"},
      {"src/c.cc", "void F() {\n  Size();\n}\n"},
  });
  EXPECT_EQ(CountRule(findings, kRuleUncheckedStatus), 0u);
}

TEST(UncheckedStatusTest, ContinuationLinesAreNotFlagged) {
  // The call is an argument on a continuation line, not a dropped statement.
  const auto findings = Lint("src/engine/x.cc",
                             "Status Flush(int n);\n"
                             "void F() {\n"
                             "  auto cb = MakeCallback(\n"
                             "      Flush(3));\n"
                             "}\n");
  EXPECT_EQ(CountRule(findings, kRuleUncheckedStatus), 0u);
}

// ---- raw-new-delete -------------------------------------------------------

TEST(RawNewDeleteTest, NewAndDeleteOutsideMemAreFlagged) {
  const auto findings = Lint("src/engine/x.cc",
                             "void F() {\n"
                             "  auto* p = new int[4];\n"
                             "  delete p;\n"
                             "}\n");
  EXPECT_EQ(CountRule(findings, kRuleRawNewDelete), 2u);
}

TEST(RawNewDeleteTest, SrcMemIsExempt) {
  const auto findings = Lint("src/mem/pool.cc",
                             "void* Grow() { return new char[64]; }\n");
  EXPECT_EQ(CountRule(findings, kRuleRawNewDelete), 0u);
}

TEST(RawNewDeleteTest, SmartPointerFactoryIdiomIsClean) {
  const auto findings = Lint(
      "src/format/x.cc",
      "auto p = std::shared_ptr<Column>(new Column(type));\n"
      "auto q = std::unique_ptr<Table>(new Table());\n");
  EXPECT_EQ(CountRule(findings, kRuleRawNewDelete), 0u);
}

TEST(RawNewDeleteTest, DeletedFunctionsAreClean) {
  const auto findings = Lint("src/common/x.h",
                             "struct NoCopy {\n"
                             "  NoCopy(const NoCopy&) = delete;\n"
                             "};\n");
  EXPECT_EQ(CountRule(findings, kRuleRawNewDelete), 0u);
}

TEST(RawNewDeleteTest, IdentifiersContainingNewAreClean) {
  const auto findings = Lint("src/engine/x.cc",
                             "int new_size = renew(old_size);\n");
  EXPECT_EQ(CountRule(findings, kRuleRawNewDelete), 0u);
}

// ---- mutex-guard ----------------------------------------------------------

TEST(MutexGuardTest, ManualLockOfMutexMemberIsFlagged) {
  const auto findings = Lint("src/engine/x.cc",
                             "void F() {\n"
                             "  mu_.lock();\n"
                             "  queue_mutex->unlock();\n"
                             "  cache_mtx.try_lock();\n"
                             "}\n");
  EXPECT_EQ(CountRule(findings, kRuleMutexGuard), 3u);
}

TEST(MutexGuardTest, RaiiGuardsAreClean) {
  const auto findings = Lint(
      "src/engine/x.cc",
      "void F() {\n"
      "  std::lock_guard<std::mutex> lock(mu_);\n"
      "  std::unique_lock<std::mutex> ul(mu_);\n"
      "  ul.unlock();\n"  // unlocking a unique_lock, not a mutex: fine
      "}\n");
  EXPECT_EQ(CountRule(findings, kRuleMutexGuard), 0u);
}

// ---- banned-function ------------------------------------------------------

TEST(BannedFunctionTest, BannedCallsAreFlagged) {
  const auto findings = Lint("src/engine/x.cc",
                             "int r = rand();\n"
                             "strcpy(dst, src);\n"
                             "sprintf(buf, fmt);\n");
  EXPECT_EQ(CountRule(findings, kRuleBannedFunction), 3u);
}

TEST(BannedFunctionTest, NonCallMentionsAreClean) {
  const auto findings = Lint("src/engine/x.cc",
                             "std::mt19937 rand_engine;\n"
                             "int randomize = 3;\n");
  EXPECT_EQ(CountRule(findings, kRuleBannedFunction), 0u);
}

TEST(BannedFunctionTest, WallClockInSimIsFlagged) {
  const std::string code =
      "auto t = std::chrono::system_clock::now();\n";
  EXPECT_EQ(CountRule(Lint("src/sim/device.cc", code), kRuleBannedFunction),
            1u);
  // Outside src/sim/ wall-clock time is allowed (e.g. bench harness timing).
  EXPECT_EQ(CountRule(Lint("bench/harness.cc", code), kRuleBannedFunction),
            0u);
}

// ---- nodiscard-status-api -------------------------------------------------

TEST(NodiscardTest, PlainStatusClassInHeaderIsFlagged) {
  const auto findings = Lint("src/common/status.h",
                             "class Status {\n"
                             " public:\n"
                             "};\n");
  ASSERT_EQ(CountRule(findings, kRuleNodiscardStatus), 1u);
  EXPECT_EQ(findings[0].line, 1);
}

TEST(NodiscardTest, AnnotatedStatusClassIsClean) {
  const auto findings = Lint(
      "src/common/status.h",
      "class [[nodiscard]] Status {\n};\n"
      "template <typename T>\nclass [[nodiscard]] Result {\n};\n");
  EXPECT_EQ(CountRule(findings, kRuleNodiscardStatus), 0u);
}

TEST(NodiscardTest, ForwardDeclAndOtherClassesAreClean) {
  const auto findings = Lint("src/common/x.h",
                             "class StatusOrBuilder {\n};\n"
                             "enum class Status2 { kOk };\n");
  EXPECT_EQ(CountRule(findings, kRuleNodiscardStatus), 0u);
}

// ---- suppressions ---------------------------------------------------------

TEST(SuppressionTest, SameLineAllowDropsFinding) {
  std::vector<Finding> suppressed;
  const auto findings = LintFiles(
      {{"src/sim/x.cc",
        "auto* t = new Tracker();  // sirius-lint: allow(raw-new-delete)\n"}},
      &suppressed);
  EXPECT_EQ(findings.size(), 0u);
  ASSERT_EQ(suppressed.size(), 1u);
  EXPECT_EQ(suppressed[0].rule, kRuleRawNewDelete);
}

TEST(SuppressionTest, PrecedingLineAllowDropsFinding) {
  const auto findings = Lint(
      "src/sim/x.cc",
      "// sirius-lint: allow(raw-new-delete): leaked singleton\n"
      "auto* t = new Tracker();\n");
  EXPECT_EQ(findings.size(), 0u);
}

TEST(SuppressionTest, EngineFusedCodeSuppressionIsStillCollected) {
  // src/engine/ is a no-suppress zone (tools/sirius_lint/main.cc), fused
  // execution paths included: the library always moves allow()'d findings
  // aside, and the driver refuses them there. Pins the library half.
  std::vector<Finding> suppressed;
  const auto findings = LintFiles(
      {{"src/engine/pipeline.cc",
        "auto* v = new SelectionView();  "
        "// sirius-lint: allow(raw-new-delete)\n"}},
      &suppressed);
  EXPECT_EQ(findings.size(), 0u);
  ASSERT_EQ(suppressed.size(), 1u);
  EXPECT_EQ(suppressed[0].file, "src/engine/pipeline.cc");
  EXPECT_EQ(suppressed[0].rule, kRuleRawNewDelete);
}

TEST(SuppressionTest, WrongRuleDoesNotSuppress) {
  const auto findings = Lint(
      "src/sim/x.cc",
      "auto* t = new Tracker();  // sirius-lint: allow(mutex-guard)\n");
  EXPECT_EQ(CountRule(findings, kRuleRawNewDelete), 1u);
}

TEST(SuppressionTest, WildcardSuppressesEverything) {
  const auto findings = Lint(
      "src/sim/x.cc",
      "auto* t = new Tracker();  // sirius-lint: allow(*)\n");
  EXPECT_EQ(findings.size(), 0u);
}

// ---- raii-span ------------------------------------------------------------

TEST(RaiiSpanTest, TemporarySpanIsFlagged) {
  const auto findings = Lint(
      "src/engine/x.cc",
      "void F(obs::TraceRecorder* rec, const obs::Clock& clock) {\n"
      "  obs::Span(rec, 0, kName, kCat, clock);\n"
      "}\n");
  EXPECT_EQ(CountRule(findings, kRuleRaiiSpan), 1u);
  const auto braced = Lint("src/engine/x.cc", "  obs::Span{};\n");
  EXPECT_EQ(CountRule(braced, kRuleRaiiSpan), 1u);
}

TEST(RaiiSpanTest, HeapSpanIsFlagged) {
  const auto findings =
      Lint("src/engine/x.cc", "  auto* s = new obs::Span(rec, 0, n, c, clk);\n");
  EXPECT_EQ(CountRule(findings, kRuleRaiiSpan), 1u);
}

TEST(RaiiSpanTest, NamedLocalGuardIsClean) {
  const auto findings = Lint(
      "src/engine/x.cc",
      "  obs::Span span(rec, track, kName, kCat, clock);\n"
      "  obs::Span moved = std::move(span);\n"
      "  void Take(obs::Span guard);\n");
  EXPECT_EQ(CountRule(findings, kRuleRaiiSpan), 0u);
}

TEST(RaiiSpanTest, OtherObsSpanIdentifiersAreClean) {
  const auto findings = Lint(
      "src/obs/x.cc",
      "  obs::SpanRecord r;\n"
      "  obs::SpanId id = obs::kInvalidSpan;\n"
      "  std::vector<obs::Span> pool;\n");
  EXPECT_EQ(CountRule(findings, kRuleRaiiSpan), 0u);
}

TEST(RaiiSpanTest, SuppressionApplies) {
  const auto findings = Lint(
      "src/engine/x.cc",
      "  obs::Span(rec, 0, n, c, clk);  // sirius-lint: allow(raii-span)\n");
  EXPECT_EQ(CountRule(findings, kRuleRaiiSpan), 0u);
}

// ---- pinned-host-alloc -----------------------------------------------------

TEST(PinnedHostAllocTest, CallOutsideMemIsFlagged) {
  const auto findings = Lint(
      "src/engine/buffer_manager.cc",
      "  mem::PinnedHostAlloc(bytes);\n"
      "  mem::PinnedHostFree(bytes);\n");
  EXPECT_EQ(CountRule(findings, kRulePinnedHostAlloc), 2u);
}

TEST(PinnedHostAllocTest, SrcMemIsExempt) {
  const auto findings = Lint(
      "src/mem/tier.cc",
      "  PinnedHostAlloc(bytes);\n  PinnedHostFree(bytes);\n");
  EXPECT_EQ(CountRule(findings, kRulePinnedHostAlloc), 0u);
}

TEST(PinnedHostAllocTest, NonCallMentionsAreClean) {
  // The read-only gauge and prose mentions stay legal everywhere.
  const auto findings = Lint(
      "src/serve/serve.cc",
      "  const uint64_t staged = mem::PinnedHostInUse();\n"
      "  // PinnedHostAlloc is banned here\n");
  EXPECT_EQ(CountRule(findings, kRulePinnedHostAlloc), 0u);
}

TEST(PinnedHostAllocTest, SuppressionApplies) {
  const auto findings = Lint(
      "src/host/staging.cc",
      "  mem::PinnedHostAlloc(n);  // sirius-lint: allow(pinned-host-alloc)\n");
  EXPECT_EQ(CountRule(findings, kRulePinnedHostAlloc), 0u);
}

// ---- serve-no-blocking ----------------------------------------------------

TEST(ServeBlockingTest, DetachedThreadInServeIsFlagged) {
  const auto findings = Lint(
      "src/serve/worker.cc",
      "  std::thread([this] { Run(); }).detach();\n");
  EXPECT_EQ(CountRule(findings, kRuleServeBlocking), 1u);
  const auto ptr = Lint("src/serve/worker.cc", "  worker->detach();\n");
  EXPECT_EQ(CountRule(ptr, kRuleServeBlocking), 1u);
}

TEST(ServeBlockingTest, SleepAndBusyWaitInServeAreFlagged) {
  const auto findings = Lint(
      "src/serve/worker.cc",
      "  std::this_thread::sleep_for(std::chrono::milliseconds(5));\n"
      "  std::this_thread::sleep_until(deadline);\n"
      "  usleep(100);\n"
      "  while (!done.load()) std::this_thread::yield();\n");
  EXPECT_EQ(CountRule(findings, kRuleServeBlocking), 4u);
}

TEST(ServeBlockingTest, OutsideServeIsExempt) {
  const auto findings = Lint(
      "src/net/transport.cc",
      "  std::this_thread::sleep_for(std::chrono::milliseconds(5));\n"
      "  std::thread(loop).detach();\n");
  EXPECT_EQ(CountRule(findings, kRuleServeBlocking), 0u);
}

TEST(ServeBlockingTest, FutureJoinsAndNonCallMentionsAreClean) {
  const auto findings = Lint(
      "src/serve/serve.cc",
      "  entry->future.wait();\n"
      "  auto result = entry->future.get();\n"
      "  int sleep_budget = 0;\n");
  EXPECT_EQ(CountRule(findings, kRuleServeBlocking), 0u);
}

// ---- status-message-dispatch ----------------------------------------------

TEST(StatusMessageDispatchTest, BranchesOnMessageTextAreFlagged) {
  const auto findings = Lint(
      "src/serve/serve.cc",
      "  if (st.message().find(\"spill\") != std::string::npos) Shed();\n"
      "  if (st.message().rfind(\"spill\", 0) == 0) Shed();\n"
      "  if (st.message().compare(\"lost\") == 0) Retry();\n"
      "  if (st.message().starts_with(\"spill\")) Shed();\n"
      "  if (st.message().ends_with(\"lost\")) Retry();\n"
      "  if (st.message().contains(\"tier\")) Retry();\n"
      "  if (st.message() == \"spill tier lost\") Retry();\n"
      "  if (r.status().message () != kLost) Retry();\n");
  ASSERT_EQ(CountRule(findings, kRuleStatusMessageDispatch), 8u);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_EQ(findings[7].line, 8);
}

TEST(StatusMessageDispatchTest, TypedBranchesLoggingAndSuppressionsAreClean) {
  const auto findings = Lint(
      "src/serve/serve.cc",
      "  if (st.cause() == StatusCause::kSpillRefused) Shed();\n"
      "  if (st.code() != StatusCode::kUnavailable) Fail();\n"
      "  return Status::Internal(\"wrapped: \" + st.message());\n"
      "  Overloaded(device, r.status().message());\n"
      "  std::cerr << st.message() << \"\\n\";\n"
      "  const std::string error_message = Describe(st);\n"
      "  if (st.message() == kX) F();  "
      "// sirius-lint: allow(status-message-dispatch)\n");
  EXPECT_EQ(CountRule(findings, kRuleStatusMessageDispatch), 0u);
}

TEST(StatusMessageDispatchTest, TestsKeepAssertingOnText) {
  const std::string content =
      "  EXPECT_NE(st.message().find(\"spill\"), std::string::npos);\n"
      "  if (st.message() == \"x\") FAIL();\n";
  EXPECT_EQ(CountRule(Lint("tests/tier_test.cc", content),
                      kRuleStatusMessageDispatch),
            0u);
  // A checkout under some .../src/ directory: the innermost top-level
  // directory decides, so tests/ stays exempt and src/ stays in scope.
  EXPECT_EQ(CountRule(Lint("home/me/src/sirius/tests/tier_test.cc", content),
                      kRuleStatusMessageDispatch),
            0u);
  EXPECT_EQ(CountRule(Lint("home/me/src/sirius/src/mem/tier.cc", content),
                      kRuleStatusMessageDispatch),
            2u);
}

// ---- workload-family directories ------------------------------------------

TEST(PathScopingTest, SsbDirectoryGetsFullRules) {
  // src/ssb/ is first-class src/ code: the full house rules apply, unlike
  // examples/ which only runs the portable subset. The same violating
  // content proves both sides of that split.
  const std::string content =
      "void Fill() {\n"
      "  auto* t = new Table();\n"
      "  int r = rand();\n"
      "  (void)r;\n"
      "  delete t;\n"
      "}\n";
  const auto in_ssb = Lint("src/ssb/dbgen_fixture.cc", content);
  EXPECT_GE(CountRule(in_ssb, kRuleRawNewDelete), 1u);
  EXPECT_GE(CountRule(in_ssb, kRuleBannedFunction), 1u);

  const auto in_examples = Lint("examples/dbgen_fixture.cc", content);
  EXPECT_EQ(CountRule(in_examples, kRuleRawNewDelete), 0u);
  // banned-function is part of the portable subset — still enforced there.
  EXPECT_GE(CountRule(in_examples, kRuleBannedFunction), 1u);
}

TEST(PathScopingTest, ClusterDirectoryGetsServeBlockingRules) {
  // src/cluster/ is part of the serving tier: the DES no-blocking rules
  // that guard src/serve/ (no detached threads, no wall-clock waits) apply
  // to the federation layer with the same severity.
  const std::string content =
      "void ServeCluster::Flush() {\n"
      "  std::this_thread::sleep_for(std::chrono::milliseconds(5));\n"
      "  std::thread(drain).detach();\n"
      "}\n";
  const auto in_cluster = Lint("src/cluster/serve_cluster_fixture.cc", content);
  EXPECT_GE(CountRule(in_cluster, kRuleServeBlocking), 2u);

  // Outside the serving tier the same content is not a serve-blocking hit.
  const auto in_net = Lint("src/net/transport_fixture.cc", content);
  EXPECT_EQ(CountRule(in_net, kRuleServeBlocking), 0u);
}

// ---- formatting -----------------------------------------------------------

TEST(FormatTest, FindingFormatsAsFileLineRuleMessage) {
  const Finding f{"src/a.cc", 12, kRuleBannedFunction, "no"};
  EXPECT_EQ(FormatFinding(f), "src/a.cc:12: [banned-function] no");
}

}  // namespace
}  // namespace sirius::lint
