// Unit tests for src/common: Status/Result, thread pool, hashing, bit utils.

#include <gtest/gtest.h>

#include <atomic>
#include <set>

#include "common/bitutil.h"
#include "common/hash.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace sirius {
namespace {

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
  EXPECT_TRUE(st.message().empty());
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::Invalid("bad input");
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsInvalid());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad input");
  EXPECT_EQ(st.ToString(), "Invalid argument: bad input");
}

TEST(StatusTest, AllFactoriesProduceMatchingCodes) {
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::OutOfMemory("x").code(), StatusCode::kOutOfMemory);
  EXPECT_EQ(Status::KeyError("x").code(), StatusCode::kKeyError);
  EXPECT_EQ(Status::TypeError("x").code(), StatusCode::kTypeError);
  EXPECT_EQ(Status::IndexError("x").code(), StatusCode::kIndexError);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::BindError("x").code(), StatusCode::kBindError);
  EXPECT_EQ(Status::ExecutionError("x").code(), StatusCode::kExecutionError);
  EXPECT_EQ(Status::UnsupportedOnDevice("x").code(),
            StatusCode::kUnsupportedOnDevice);
  EXPECT_EQ(Status::Timeout("x").code(), StatusCode::kTimeout);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
}

TEST(StatusTest, WithContextPrepends) {
  Status st = Status::IOError("disk gone").WithContext("loading table");
  EXPECT_EQ(st.message(), "loading table: disk gone");
  EXPECT_TRUE(Status::OK().WithContext("nope").ok());
}

TEST(StatusTest, TypedCauseAndRetryAfterSurviveWrapping) {
  const Status shed =
      Status::ResourceExhausted("spill quota", StatusCause::kSpillRefused)
          .WithRetryAfter(1.0 / 3.0);
  const Status wrapped = shed.WithContext("pipeline 2");
  EXPECT_TRUE(wrapped.IsResourceExhausted());
  EXPECT_EQ(wrapped.cause(), StatusCause::kSpillRefused);
  EXPECT_EQ(wrapped.retry_after_s(), 1.0 / 3.0);  // exact, not re-parsed
  EXPECT_EQ(wrapped.message(), "pipeline 2: spill quota");
  EXPECT_EQ(wrapped.ToString(),
            "Resource exhausted: pipeline 2: spill quota; "
            "retry-after=0.333333s");
  // Setting the hint copies: the original keeps its own detail.
  const Status copy = shed;
  EXPECT_EQ(copy.WithRetryAfter(2.0).retry_after_s(), 2.0);
  EXPECT_EQ(shed.retry_after_s(), 1.0 / 3.0);

  const Status lost =
      Status::Unavailable("tier gone", StatusCause::kSpillTierLost);
  EXPECT_TRUE(lost.IsTransient());
  EXPECT_EQ(lost.retry_after_s(), 0.0);  // no hint reads 0
  EXPECT_EQ(lost.ToString(), "Unavailable: tier gone");
  EXPECT_EQ(Status::Unavailable("link down").cause(), StatusCause::kNone);

  EXPECT_TRUE(Status::OK().WithRetryAfter(5.0).ok());
  EXPECT_EQ(Status::OK().WithRetryAfter(5.0).retry_after_s(), 0.0);
  EXPECT_EQ(Status::OK().cause(), StatusCause::kNone);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 42);
  EXPECT_EQ(r.ValueOr(7), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::KeyError("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kKeyError);
  EXPECT_EQ(r.ValueOr(7), 7);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).ValueOrDie();
  EXPECT_EQ(*v, 5);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::Invalid("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  SIRIUS_ASSIGN_OR_RETURN(int h, Half(x));
  SIRIUS_ASSIGN_OR_RETURN(int q, Half(h));
  return q;
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Quarter(8).ValueOrDie(), 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3, odd
  EXPECT_FALSE(Quarter(7).ok());
}

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(5000);
  pool.ParallelFor(5000, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPoolTest, ParallelForRangeDisjointCoverage) {
  ThreadPool pool(3);
  std::atomic<size_t> total{0};
  pool.ParallelForRange(123457, [&](size_t begin, size_t end) {
    total.fetch_add(end - begin);
  });
  EXPECT_EQ(total.load(), 123457u);
}

TEST(ThreadPoolTest, SmallInputRunsInline) {
  ThreadPool pool(4);
  size_t calls = 0;
  pool.ParallelForRange(10, [&](size_t begin, size_t end) {
    ++calls;
    EXPECT_EQ(begin, 0u);
    EXPECT_EQ(end, 10u);
  });
  EXPECT_EQ(calls, 1u);
}

TEST(HashTest, Mix64IsDeterministicAndSpreads) {
  EXPECT_EQ(HashMix64(42), HashMix64(42));
  std::set<uint64_t> values;
  for (uint64_t i = 0; i < 1000; ++i) values.insert(HashMix64(i));
  EXPECT_EQ(values.size(), 1000u);  // no collisions on sequential ints
}

TEST(HashTest, BytesHashRespectsContent) {
  EXPECT_EQ(HashString("hello"), HashString("hello"));
  EXPECT_NE(HashString("hello"), HashString("hellp"));
  EXPECT_NE(HashString(""), HashString("a"));
  // Long strings exercise the 8-byte block path.
  std::string long1(1000, 'x'), long2(1000, 'x');
  long2[999] = 'y';
  EXPECT_NE(HashString(long1), HashString(long2));
}

TEST(HashTest, CombineOrderMatters) {
  EXPECT_NE(HashCombine(HashMix64(1), 2), HashCombine(HashMix64(2), 1));
}

TEST(BitUtilTest, SetGetClear) {
  uint8_t bits[4] = {0, 0, 0, 0};
  bit::SetBit(bits, 0);
  bit::SetBit(bits, 9);
  bit::SetBit(bits, 31);
  EXPECT_TRUE(bit::GetBit(bits, 0));
  EXPECT_TRUE(bit::GetBit(bits, 9));
  EXPECT_TRUE(bit::GetBit(bits, 31));
  EXPECT_FALSE(bit::GetBit(bits, 1));
  bit::ClearBit(bits, 9);
  EXPECT_FALSE(bit::GetBit(bits, 9));
  bit::SetBitTo(bits, 5, true);
  EXPECT_TRUE(bit::GetBit(bits, 5));
  bit::SetBitTo(bits, 5, false);
  EXPECT_FALSE(bit::GetBit(bits, 5));
}

TEST(BitUtilTest, CountSetBits) {
  uint8_t bits[4] = {0xFF, 0x0F, 0x00, 0x80};
  EXPECT_EQ(bit::CountSetBits(bits, 32), 13u);
  EXPECT_EQ(bit::CountSetBits(bits, 8), 8u);
  EXPECT_EQ(bit::CountSetBits(bits, 4), 4u);
  EXPECT_EQ(bit::CountSetBits(bits, 0), 0u);
}

TEST(BitUtilTest, NextPow2) {
  EXPECT_EQ(bit::NextPow2(0), 1u);
  EXPECT_EQ(bit::NextPow2(1), 1u);
  EXPECT_EQ(bit::NextPow2(2), 2u);
  EXPECT_EQ(bit::NextPow2(3), 4u);
  EXPECT_EQ(bit::NextPow2(1023), 1024u);
  EXPECT_EQ(bit::NextPow2(1024), 1024u);
  EXPECT_EQ(bit::NextPow2(1025), 2048u);
  EXPECT_TRUE(bit::IsPow2(64));
  EXPECT_FALSE(bit::IsPow2(65));
  EXPECT_FALSE(bit::IsPow2(0));
}

TEST(BitUtilTest, BytesForBits) {
  EXPECT_EQ(bit::BytesForBits(0), 0u);
  EXPECT_EQ(bit::BytesForBits(1), 1u);
  EXPECT_EQ(bit::BytesForBits(8), 1u);
  EXPECT_EQ(bit::BytesForBits(9), 2u);
}

}  // namespace
}  // namespace sirius
