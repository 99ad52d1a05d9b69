#include "expr/eval.h"

#include <algorithm>
#include <cstring>
#include <initializer_list>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/bitutil.h"
#include "expr/udf.h"
#include "format/builder.h"

namespace sirius::expr {

using format::Column;
using format::ColumnPtr;
using format::DataType;
using format::DecimalPow10;
using format::Scalar;
using format::TypeId;

namespace {

// ---------------------------------------------------------------------------
// Operands and outputs
//
// A node evaluates to a column of the input's length, or to a one-row column
// that stands for every row: a literal, or a node whose inputs are all
// one-row. Kernels read a one-row operand with stride 0, and Evaluate
// expands a one-row result only at the top. Outputs are written straight
// into buffers on the default resource, in the layout ColumnBuilder::Finish
// produces: no validity bitmap unless a row is NULL, and bits past the
// length clear.
// ---------------------------------------------------------------------------

mem::Buffer Allocate(size_t bytes) {
  return mem::Buffer::Allocate(bytes).ValueOrDie();
}

/// True when `c` is a one-row operand standing for all `m` rows.
bool OneRow(const Column& c, size_t m) { return c.length() != m; }

/// Index of row `k` in an operand of an m-row kernel.
size_t Row(const Column& c, size_t m, size_t k) { return OneRow(c, m) ? 0 : k; }

/// Validity of a kernel's output; the bitmap exists only once a row is NULL.
struct Nulls {
  mem::Buffer bits;
  size_t count = 0;

  bool IsNull(size_t k) const {
    return count > 0 && !bit::GetBit(bits.data(), k);
  }

  /// Marks row k of an m-row output NULL. The bitmap is allocated at the
  /// first NULL row, with every row valid.
  void SetNull(size_t k, size_t m) {
    if (bits.empty()) {
      const size_t bytes = bit::BytesForBits(m);
      bits = Allocate(bytes);
      std::memset(bits.data(), 0xFF, bytes);
      ClearTail(m);
    }
    if (bit::GetBit(bits.data(), k)) {
      bit::ClearBit(bits.data(), k);
      ++count;
    }
  }

  void ClearTail(size_t m) {
    if (m % 8 != 0) {
      bits.data()[m / 8] &= static_cast<uint8_t>((1u << (m % 8)) - 1);
    }
  }
};

/// Validity of a strict operator over m rows: a row is NULL where any
/// operand is, and a NULL one-row operand makes every row NULL.
Nulls Propagate(size_t m, std::initializer_list<const Column*> operands) {
  Nulls out;
  const size_t bytes = bit::BytesForBits(m);
  for (const Column* c : operands) {
    if (m == 0 || !c->has_nulls()) continue;
    if (OneRow(*c, m)) {
      out.bits = mem::Buffer::AllocateZeroed(bytes).ValueOrDie();
      out.count = m;
      return out;
    }
    if (out.bits.empty()) {
      out.bits = Allocate(bytes);
      std::memcpy(out.bits.data(), c->validity(), bytes);
    } else {
      uint8_t* dst = out.bits.data();
      const uint8_t* src = c->validity();
      for (size_t i = 0; i < bytes; ++i) dst[i] &= src[i];
    }
  }
  if (out.bits.empty()) return out;
  out.ClearTail(m);
  out.count = m - bit::CountSetBits(out.bits.data(), m);
  if (out.count == 0) out.bits = mem::Buffer();
  return out;
}

ColumnPtr FixedColumn(const DataType& type, mem::Buffer data, size_t m,
                      Nulls nulls) {
  return Column::MakeFixed(type, std::move(data), m, std::move(nulls.bits),
                           nulls.count);
}

/// A BOOL result. Value bytes at NULL rows are 0.
ColumnPtr BoolColumn(mem::Buffer data, size_t m, Nulls nulls) {
  if (nulls.count > 0) {
    uint8_t* v = data.data();
    for (size_t k = 0; k < m; ++k) {
      if (nulls.IsNull(k)) v[k] = 0;
    }
  }
  return FixedColumn(format::Bool(), std::move(data), m, std::move(nulls));
}

/// Expands a one-row column to n rows: its bytes, repeated.
ColumnPtr Expand(const ColumnPtr& c, size_t n) {
  mem::Buffer validity;
  size_t null_count = 0;
  if (c->IsNull(0)) {
    validity = mem::Buffer::AllocateZeroed(bit::BytesForBits(n)).ValueOrDie();
    null_count = n;
  }
  if (c->type().is_string()) {
    const std::string_view s = c->StringAt(0);
    mem::Buffer offsets = Allocate((n + 1) * sizeof(int64_t));
    mem::Buffer chars = Allocate(n * s.size());
    int64_t* off = offsets.data_as<int64_t>();
    for (size_t k = 0; k <= n; ++k) off[k] = static_cast<int64_t>(k * s.size());
    for (size_t k = 0; k < n && !s.empty(); ++k) {
      std::memcpy(chars.data() + k * s.size(), s.data(), s.size());
    }
    return Column::MakeString(std::move(offsets), std::move(chars), n,
                              std::move(validity), null_count);
  }
  // The row width is the buffer's, not the type's: NEGATE of a BOOL keeps
  // four bytes a row.
  const size_t width = c->data_size();
  const size_t total = n * width;
  mem::Buffer data = Allocate(total);
  if (total > 0) {
    std::memcpy(data.data(), c->data<uint8_t>(), width);
    for (size_t filled = width; filled < total; filled *= 2) {
      std::memcpy(data.data() + filled, data.data(),
                  std::min(filled, total - filled));
    }
  }
  return Column::MakeFixed(c->type(), std::move(data), n, std::move(validity),
                           null_count);
}

/// An operand read byte by byte (BOOL values, NOT, AND/OR, CASE conditions)
/// yields byte k of its values buffer at row k. A one-row operand stands for
/// its row's bytes repeated, so it reads the same at every row only when
/// those bytes are all equal; otherwise it is expanded to the input's n rows.
/// A one-row BOOL always qualifies: NEGATE, which writes four bytes a BOOL
/// row, settles its result through here.
ColumnPtr ByteOperand(ColumnPtr c, size_t n) {
  if (c->length() != 1 || n <= 1) return c;
  const uint8_t* p = c->data<uint8_t>();
  for (size_t i = 1; i < c->data_size(); ++i) {
    if (p[i] != p[0]) return Expand(c, n);
  }
  return c;
}

// ---------------------------------------------------------------------------
// Typed readers. A numeric operand is read by its physical type: BOOL as
// bytes, INT32/DATE32 as int32, INT64/DECIMAL64 as int64, FLOAT64 as double.
// ---------------------------------------------------------------------------

template <typename T>
struct ColReader {
  const T* p;
  T operator[](size_t k) const { return p[k]; }
};

template <typename T>
struct ConstReader {
  T v;
  T operator[](size_t) const { return v; }
};

/// An integer column lifted to a common decimal scale by `mult`.
template <typename T>
struct ScaledReader {
  const T* p;
  int64_t mult;
  int64_t operator[](size_t k) const { return static_cast<int64_t>(p[k]) * mult; }
};

/// An integer column read as double: raw / 10^scale.
template <typename T>
struct DescaledReader {
  const T* p;
  double div;
  double operator[](size_t k) const {
    return static_cast<double>(static_cast<int64_t>(p[k])) / div;
  }
};

int Scale(const Column& c) { return c.type().is_decimal() ? c.type().scale : 0; }

Status CheckNumeric(const Column& c) {
  if (c.type().is_string() || c.type().is_list()) {
    return Status::TypeError("numeric operation on non-numeric column");
  }
  return Status::OK();
}

/// Calls fn with a value of the integer type `c` is stored as.
template <typename Fn>
void WithIntStorage(const Column& c, Fn&& fn) {
  switch (c.type().id) {
    case TypeId::kBool:
      return fn(uint8_t{});
    case TypeId::kInt32:
    case TypeId::kDate32:
      return fn(int32_t{});
    default:
      return fn(int64_t{});
  }
}

/// Calls fn with a reader of `c`'s integer values times `mult`.
template <typename Fn>
void WithIntReader(const Column& c, bool one_row, int64_t mult, Fn&& fn) {
  WithIntStorage(c, [&](auto tag) {
    using T = decltype(tag);
    const T* p = c.data<T>();
    if (one_row) {
      fn(ConstReader<int64_t>{static_cast<int64_t>(p[0]) * mult});
    } else {
      fn(ScaledReader<T>{p, mult});
    }
  });
}

/// Calls fn with a reader of `c`'s values as double (decimals descaled).
template <typename Fn>
void WithDoubleReader(const Column& c, bool one_row, Fn&& fn) {
  if (c.type().id == TypeId::kFloat64) {
    const double* p = c.data<double>();
    if (one_row) {
      fn(ConstReader<double>{p[0]});
    } else {
      fn(ColReader<double>{p});
    }
    return;
  }
  const double div = static_cast<double>(DecimalPow10(Scale(c)));
  WithIntStorage(c, [&](auto tag) {
    using T = decltype(tag);
    const DescaledReader<T> r{c.data<T>(), div};
    if (one_row) {
      fn(ConstReader<double>{r[0]});
    } else {
      fn(r);
    }
  });
}

template <typename Fn>
void WithByteReader(const Column& c, bool one_row, Fn&& fn) {
  const uint8_t* p = c.data<uint8_t>();
  if (one_row) {
    fn(ConstReader<uint8_t>{p[0]});
  } else {
    fn(ColReader<uint8_t>{p});
  }
}

template <typename Out, typename A, typename B, typename F>
void Apply(Out* out, size_t m, A a, B b, F f) {
  for (size_t k = 0; k < m; ++k) out[k] = f(a[k], b[k]);
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

Result<ColumnPtr> EvalArithmetic(const Expr& e, const Column& l, const Column& r) {
  SIRIUS_RETURN_NOT_OK(CheckNumeric(l));
  SIRIUS_RETURN_NOT_OK(CheckNumeric(r));
  const size_t m = std::max(l.length(), r.length());
  const bool l1 = OneRow(l, m), r1 = OneRow(r, m);
  Nulls nulls = Propagate(m, {&l, &r});

  if (e.type.id == TypeId::kFloat64) {
    if (e.bop != BinaryOp::kAdd && e.bop != BinaryOp::kSub &&
        e.bop != BinaryOp::kMul && e.bop != BinaryOp::kDiv) {
      return Status::Internal("not an arithmetic op");
    }
    mem::Buffer data = Allocate(m * sizeof(double));
    double* out = data.data_as<double>();
    WithDoubleReader(l, l1, [&](auto a) {
      WithDoubleReader(r, r1, [&](auto b) {
        switch (e.bop) {
          case BinaryOp::kAdd:
            Apply(out, m, a, b, [](double x, double y) { return x + y; });
            break;
          case BinaryOp::kSub:
            Apply(out, m, a, b, [](double x, double y) { return x - y; });
            break;
          case BinaryOp::kMul:
            Apply(out, m, a, b, [](double x, double y) { return x * y; });
            break;
          default:  // kDiv: a zero denominator yields NULL
            for (size_t k = 0; k < m; ++k) {
              const double denom = b[k];
              if (denom == 0) {
                out[k] = 0;
                nulls.SetNull(k, m);
              } else {
                out[k] = a[k] / denom;
              }
            }
        }
      });
    });
    return FixedColumn(e.type, std::move(data), m, std::move(nulls));
  }

  if (e.bop != BinaryOp::kAdd && e.bop != BinaryOp::kSub &&
      e.bop != BinaryOp::kMul) {
    return Status::Internal("not an int arithmetic op");
  }
  // + and - align both sides to the larger scale; * multiplies raw values
  // (the output scale is the sum of the scales).
  int64_t lmult = 1, rmult = 1;
  if (e.bop != BinaryOp::kMul) {
    const int s = std::max(Scale(l), Scale(r));
    lmult = DecimalPow10(s - Scale(l));
    rmult = DecimalPow10(s - Scale(r));
  }
  const bool wide = e.type.byte_width() == 8;
  mem::Buffer data = Allocate(m * (wide ? 8 : 4));
  std::vector<int64_t> narrow(wide ? 0 : m);
  int64_t* out = wide ? data.data_as<int64_t>() : narrow.data();
  WithIntReader(l, l1, lmult, [&](auto a) {
    WithIntReader(r, r1, rmult, [&](auto b) {
      switch (e.bop) {
        case BinaryOp::kAdd:
          Apply(out, m, a, b, [](int64_t x, int64_t y) { return x + y; });
          break;
        case BinaryOp::kSub:
          Apply(out, m, a, b, [](int64_t x, int64_t y) { return x - y; });
          break;
        default:
          Apply(out, m, a, b, [](int64_t x, int64_t y) { return x * y; });
      }
    });
  });
  if (!wide) {
    int32_t* out32 = data.data_as<int32_t>();
    for (size_t k = 0; k < m; ++k) out32[k] = static_cast<int32_t>(narrow[k]);
  }
  return FixedColumn(e.type, std::move(data), m, std::move(nulls));
}

/// The result of a comparison for each sign of (left - right). Unordered
/// doubles (NaN) compare as equal.
struct CmpOutcome {
  uint8_t lt, eq, gt;
};

CmpOutcome OutcomeOf(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
      return {0, 1, 0};
    case BinaryOp::kNe:
      return {1, 0, 1};
    case BinaryOp::kLt:
      return {1, 0, 0};
    case BinaryOp::kLe:
      return {1, 1, 0};
    case BinaryOp::kGt:
      return {0, 0, 1};
    case BinaryOp::kGe:
      return {0, 1, 1};
    default:
      return {0, 0, 0};
  }
}

template <typename A, typename B>
void CompareLoop(uint8_t* out, size_t m, A a, B b, CmpOutcome o) {
  for (size_t k = 0; k < m; ++k) {
    const auto x = a[k];
    const auto y = b[k];
    out[k] = x < y ? o.lt : (x > y ? o.gt : o.eq);
  }
}

Result<ColumnPtr> EvalComparison(const Expr& e, const Column& l, const Column& r) {
  const bool strings = l.type().is_string() || r.type().is_string();
  if (strings && !(l.type().is_string() && r.type().is_string())) {
    return Status::TypeError("comparison between string and non-string");
  }
  if (!strings) {
    SIRIUS_RETURN_NOT_OK(CheckNumeric(l));
    SIRIUS_RETURN_NOT_OK(CheckNumeric(r));
  }
  const size_t m = std::max(l.length(), r.length());
  const bool l1 = OneRow(l, m), r1 = OneRow(r, m);
  const CmpOutcome o = OutcomeOf(e.bop);
  Nulls nulls = Propagate(m, {&l, &r});
  mem::Buffer data = Allocate(m);
  uint8_t* out = data.data();

  if (strings) {
    for (size_t k = 0; k < m; ++k) {
      if (nulls.IsNull(k)) {
        out[k] = 0;
        continue;
      }
      const int c = l.StringAt(l1 ? 0 : k).compare(r.StringAt(r1 ? 0 : k));
      out[k] = c < 0 ? o.lt : (c > 0 ? o.gt : o.eq);
    }
  } else if (l.type().id != TypeId::kFloat64 && r.type().id != TypeId::kFloat64) {
    const int s = std::max(Scale(l), Scale(r));
    WithIntReader(l, l1, DecimalPow10(s - Scale(l)), [&](auto a) {
      WithIntReader(r, r1, DecimalPow10(s - Scale(r)),
                    [&](auto b) { CompareLoop(out, m, a, b, o); });
    });
  } else {
    WithDoubleReader(l, l1, [&](auto a) {
      WithDoubleReader(r, r1, [&](auto b) { CompareLoop(out, m, a, b, o); });
    });
  }
  return BoolColumn(std::move(data), m, std::move(nulls));
}

/// AND/OR. Without NULLs one loop of byte logic; with them, Kleene logic:
/// FALSE AND x is FALSE, TRUE OR x is TRUE, otherwise NULL wins.
ColumnPtr EvalLogical(const Expr& e, const Column& l, const Column& r) {
  const size_t m = std::max(l.length(), r.length());
  const bool l1 = OneRow(l, m), r1 = OneRow(r, m);
  const bool is_and = e.bop == BinaryOp::kAnd;
  mem::Buffer data = Allocate(m);
  uint8_t* out = data.data();
  if (!l.has_nulls() && !r.has_nulls()) {
    WithByteReader(l, l1, [&](auto a) {
      WithByteReader(r, r1, [&](auto b) {
        if (is_and) {
          Apply(out, m, a, b, [](uint8_t x, uint8_t y) -> uint8_t {
            return (x != 0) & (y != 0);
          });
        } else {
          Apply(out, m, a, b, [](uint8_t x, uint8_t y) -> uint8_t {
            return (x != 0) | (y != 0);
          });
        }
      });
    });
    return FixedColumn(format::Bool(), std::move(data), m, Nulls());
  }
  const uint8_t* a = l.data<uint8_t>();
  const uint8_t* b = r.data<uint8_t>();
  Nulls nulls;
  for (size_t k = 0; k < m; ++k) {
    const size_t i = l1 ? 0 : k, j = r1 ? 0 : k;
    const bool an = l.IsNull(i), bn = r.IsNull(j);
    const bool av = !an && a[i] != 0;
    const bool bv = !bn && b[j] != 0;
    // The value that decides the row regardless of the other side.
    const bool decided = is_and ? ((!an && !av) || (!bn && !bv))
                                : ((!an && av) || (!bn && bv));
    out[k] = 0;
    if (decided) {
      out[k] = is_and ? 0 : 1;
    } else if (an || bn) {
      nulls.SetNull(k, m);
    } else {
      out[k] = is_and ? 1 : 0;
    }
  }
  return FixedColumn(format::Bool(), std::move(data), m, std::move(nulls));
}

Result<ColumnPtr> EvalUnary(const Expr& e, ColumnPtr c, size_t n) {
  switch (e.uop) {
    case UnaryOp::kNot: {
      c = ByteOperand(std::move(c), n);
      const size_t m = c->length();
      mem::Buffer data = Allocate(m);
      const uint8_t* src = c->data<uint8_t>();
      uint8_t* out = data.data();
      for (size_t k = 0; k < m; ++k) out[k] = src[k] != 0 ? 0 : 1;
      return BoolColumn(std::move(data), m, Propagate(m, {c.get()}));
    }
    case UnaryOp::kIsNull:
    case UnaryOp::kIsNotNull: {
      const size_t m = c->length();
      const uint8_t when_null = e.uop == UnaryOp::kIsNull ? 1 : 0;
      mem::Buffer data = Allocate(m);
      uint8_t* out = data.data();
      for (size_t k = 0; k < m; ++k) {
        out[k] = c->IsNull(k) ? when_null : 1 - when_null;
      }
      return FixedColumn(format::Bool(), std::move(data), m, Nulls());
    }
    case UnaryOp::kNegate: {
      SIRIUS_RETURN_NOT_OK(CheckNumeric(*c));
      const size_t m = c->length();
      Nulls nulls = Propagate(m, {c.get()});
      if (c->type().id == TypeId::kFloat64) {
        mem::Buffer data = Allocate(m * sizeof(double));
        const double* src = c->data<double>();
        double* out = data.data_as<double>();
        for (size_t k = 0; k < m; ++k) out[k] = -src[k];
        return FixedColumn(e.type, std::move(data), m, std::move(nulls));
      }
      // The output is 8 bytes a row for 8-byte types and 4 bytes otherwise,
      // BOOL included.
      const bool wide = e.type.byte_width() == 8;
      mem::Buffer data = Allocate(m * (wide ? 8 : 4));
      WithIntReader(*c, false, 1, [&](auto a) {
        if (wide) {
          int64_t* out = data.data_as<int64_t>();
          for (size_t k = 0; k < m; ++k) out[k] = -a[k];
        } else {
          int32_t* out = data.data_as<int32_t>();
          for (size_t k = 0; k < m; ++k) out[k] = static_cast<int32_t>(-a[k]);
        }
      });
      ColumnPtr out = FixedColumn(e.type, std::move(data), m, std::move(nulls));
      return e.type.id == TypeId::kBool ? ByteOperand(std::move(out), n) : out;
    }
  }
  return Status::Internal("unknown unary op");
}

/// A LIKE pattern compiled once per call. Patterns whose only wildcards are
/// leading or trailing '%' match with string_view operations; every other
/// pattern goes through LikeMatch.
class LikePattern {
 public:
  explicit LikePattern(std::string_view pattern) : pattern_(pattern) {
    size_t begin = 0, end = pattern.size();
    while (begin < end && pattern[begin] == '%') ++begin;
    while (end > begin && pattern[end - 1] == '%') --end;
    core_ = pattern.substr(begin, end - begin);
    const bool lead = begin > 0, trail = end < pattern.size();
    if (core_.find_first_of("%_") != std::string_view::npos) {
      shape_ = Shape::kGeneral;
    } else if (lead && trail) {
      shape_ = Shape::kContains;
    } else if (lead) {
      shape_ = Shape::kSuffix;
    } else if (trail) {
      shape_ = Shape::kPrefix;
    } else {
      shape_ = Shape::kExact;
    }
  }

  bool Matches(std::string_view v) const {
    switch (shape_) {
      case Shape::kExact:
        return v == core_;
      case Shape::kPrefix:
        return v.substr(0, core_.size()) == core_;
      case Shape::kSuffix:
        return v.size() >= core_.size() &&
               v.substr(v.size() - core_.size()) == core_;
      case Shape::kContains:
        return v.find(core_) != std::string_view::npos;
      case Shape::kGeneral:
        break;
    }
    return LikeMatch(v, pattern_);
  }

 private:
  enum class Shape { kExact, kPrefix, kSuffix, kContains, kGeneral };
  std::string_view pattern_;
  std::string_view core_;
  Shape shape_ = Shape::kGeneral;
};

Result<ColumnPtr> EvalFunction(const Expr& e, ColumnPtr c) {
  const size_t m = c->length();
  switch (e.fop) {
    case FuncOp::kLike:
    case FuncOp::kNotLike: {
      if (!c->type().is_string()) {
        return Status::TypeError("LIKE input must be string");
      }
      const LikePattern pattern(e.children[1]->literal.string_value());
      const uint8_t on_match = e.fop == FuncOp::kLike ? 1 : 0;
      Nulls nulls = Propagate(m, {c.get()});
      mem::Buffer data = Allocate(m);
      uint8_t* out = data.data();
      for (size_t k = 0; k < m; ++k) {
        out[k] = !nulls.IsNull(k) && pattern.Matches(c->StringAt(k))
                     ? on_match
                     : 1 - on_match;
      }
      return BoolColumn(std::move(data), m, std::move(nulls));
    }
    case FuncOp::kSubstring: {
      if (!c->type().is_string()) {
        return Status::TypeError("substring input must be string");
      }
      const int64_t start = e.children[1]->literal.int_value();
      const int64_t len = e.children[2]->literal.int_value();
      const int64_t begin = std::max<int64_t>(0, start - 1);
      Nulls nulls = Propagate(m, {c.get()});
      // Row k's substring; empty at NULL rows.
      auto piece = [&](size_t k) -> std::string_view {
        if (nulls.IsNull(k)) return {};
        const std::string_view sv = c->StringAt(k);
        if (begin >= static_cast<int64_t>(sv.size()) || len <= 0) return {};
        return sv.substr(static_cast<size_t>(begin),
                         static_cast<size_t>(std::min<int64_t>(
                             len, static_cast<int64_t>(sv.size()) - begin)));
      };
      mem::Buffer offsets = Allocate((m + 1) * sizeof(int64_t));
      int64_t* off = offsets.data_as<int64_t>();
      off[0] = 0;
      for (size_t k = 0; k < m; ++k) {
        off[k + 1] = off[k] + static_cast<int64_t>(piece(k).size());
      }
      mem::Buffer chars = Allocate(static_cast<size_t>(off[m]));
      for (size_t k = 0; k < m; ++k) {
        const std::string_view p = piece(k);
        if (!p.empty()) std::memcpy(chars.data() + off[k], p.data(), p.size());
      }
      return Column::MakeString(std::move(offsets), std::move(chars), m,
                                std::move(nulls.bits), nulls.count);
    }
    case FuncOp::kExtractYear: {
      Nulls nulls = Propagate(m, {c.get()});
      mem::Buffer data = Allocate(m * sizeof(int64_t));
      const int32_t* days = c->data<int32_t>();
      int64_t* out = data.data_as<int64_t>();
      for (size_t k = 0; k < m; ++k) {
        int y = 0, mo, d;
        if (!nulls.IsNull(k)) format::CivilFromDays(days[k], &y, &mo, &d);
        out[k] = y;
      }
      return FixedColumn(format::Int64(), std::move(data), m, std::move(nulls));
    }
    case FuncOp::kCastDouble: {
      SIRIUS_RETURN_NOT_OK(CheckNumeric(*c));
      mem::Buffer data = Allocate(m * sizeof(double));
      double* out = data.data_as<double>();
      WithDoubleReader(*c, false, [&](auto a) {
        for (size_t k = 0; k < m; ++k) out[k] = a[k];
      });
      return FixedColumn(format::Float64(), std::move(data), m,
                         Propagate(m, {c.get()}));
    }
    case FuncOp::kCastInt64: {
      SIRIUS_RETURN_NOT_OK(CheckNumeric(*c));
      mem::Buffer data = Allocate(m * sizeof(int64_t));
      int64_t* out = data.data_as<int64_t>();
      if (c->type().id == TypeId::kFloat64) {
        const double* src = c->data<double>();
        for (size_t k = 0; k < m; ++k) out[k] = static_cast<int64_t>(src[k]);
      } else {
        const int64_t div = DecimalPow10(Scale(*c));
        WithIntReader(*c, false, 1, [&](auto a) {
          for (size_t k = 0; k < m; ++k) out[k] = a[k] / div;
        });
      }
      return FixedColumn(format::Int64(), std::move(data), m,
                         Propagate(m, {c.get()}));
    }
  }
  return Status::Internal("unknown function");
}

/// x IN (items) under Scalar::operator==: NULL items never match, a string
/// matches only a string, and integers compare at the larger decimal scale.
/// A FLOAT64 side compares with a tolerance, so it keeps the boxed path.
ColumnPtr EvalInList(const Expr& e, const Column& c) {
  const size_t m = c.length();
  Nulls nulls = Propagate(m, {&c});
  mem::Buffer data = Allocate(m);
  uint8_t* out = data.data();
  bool boxed = c.type().id == TypeId::kFloat64 || c.type().is_list();
  for (const Scalar& item : e.in_list) {
    boxed = boxed || item.type().id == TypeId::kFloat64;
  }

  if (c.type().is_string() && !boxed) {
    std::vector<std::string_view> keys;
    for (const Scalar& item : e.in_list) {
      if (!item.is_null() && item.type().is_string()) {
        keys.push_back(item.string_value());
      }
    }
    for (size_t k = 0; k < m; ++k) {
      out[k] = 0;
      if (nulls.IsNull(k)) continue;
      const std::string_view v = c.StringAt(k);
      for (const std::string_view key : keys) {
        if (v == key) {
          out[k] = 1;
          break;
        }
      }
    }
  } else if (!boxed) {
    // Item j matches value v when v * mult == value, both at the larger of
    // the column's and the item's scale.
    struct Key {
      int64_t mult, value;
    };
    std::vector<Key> keys;
    const int scale = Scale(c);
    for (const Scalar& item : e.in_list) {
      if (item.is_null() || item.type().is_string()) continue;
      const int s = std::max(scale, item.type().scale);
      keys.push_back({DecimalPow10(s - scale),
                      item.int_value() * DecimalPow10(s - item.type().scale)});
    }
    WithIntStorage(c, [&](auto tag) {
      using T = decltype(tag);
      const T* p = c.data<T>();
      for (size_t k = 0; k < m; ++k) {
        // A BOOL boxes as 0/1.
        const int64_t v = std::is_same_v<T, uint8_t> ? int64_t{p[k] != 0}
                                                     : static_cast<int64_t>(p[k]);
        uint8_t hit = 0;
        for (const Key& key : keys) {
          if (v * key.mult == key.value) {
            hit = 1;
            break;
          }
        }
        out[k] = hit;
      }
    });
  } else {
    for (size_t k = 0; k < m; ++k) {
      out[k] = 0;
      if (nulls.IsNull(k)) continue;
      const Scalar v = c.GetScalar(k);
      for (const Scalar& item : e.in_list) {
        if (v == item) {
          out[k] = 1;
          break;
        }
      }
    }
  }
  return BoolColumn(std::move(data), m, std::move(nulls));
}

Result<ColumnPtr> Eval(const Expr& e, const format::Table& input);

/// CASE keeps a row loop through ColumnBuilder.
Result<ColumnPtr> EvalCase(const Expr& e, const format::Table& input) {
  const size_t n = input.num_rows();
  const size_t num_pairs = e.children.size() / 2;
  const bool has_else = e.children.size() % 2 == 1;
  std::vector<ColumnPtr> conds(num_pairs), thens(num_pairs);
  size_t m = 0;
  for (size_t p = 0; p < num_pairs; ++p) {
    SIRIUS_ASSIGN_OR_RETURN(conds[p], Eval(*e.children[2 * p], input));
    conds[p] = ByteOperand(std::move(conds[p]), n);
    SIRIUS_ASSIGN_OR_RETURN(thens[p], Eval(*e.children[2 * p + 1], input));
    m = std::max({m, conds[p]->length(), thens[p]->length()});
  }
  ColumnPtr else_col;
  if (has_else) {
    SIRIUS_ASSIGN_OR_RETURN(else_col, Eval(*e.children.back(), input));
    m = std::max(m, else_col->length());
  }
  format::ColumnBuilder b(e.type);
  b.Reserve(m);
  for (size_t k = 0; k < m; ++k) {
    bool done = false;
    for (size_t p = 0; p < num_pairs && !done; ++p) {
      const Column& cond = *conds[p];
      const size_t i = Row(cond, m, k);
      if (!cond.IsNull(i) && cond.data<uint8_t>()[i] != 0) {
        SIRIUS_RETURN_NOT_OK(
            b.AppendScalar(thens[p]->GetScalar(Row(*thens[p], m, k))));
        done = true;
      }
    }
    if (!done) {
      if (has_else) {
        SIRIUS_RETURN_NOT_OK(
            b.AppendScalar(else_col->GetScalar(Row(*else_col, m, k))));
      } else {
        b.AppendNull();
      }
    }
  }
  return b.Finish();
}

/// A UDF is one call per input row, so it always produces the input's rows.
Result<ColumnPtr> EvalUdf(const Expr& e, const format::Table& input) {
  const size_t n = input.num_rows();
  SIRIUS_ASSIGN_OR_RETURN(UdfDefinition def,
                          UdfRegistry::Global()->Lookup(e.udf_name));
  std::vector<ColumnPtr> args(e.children.size());
  for (size_t a = 0; a < e.children.size(); ++a) {
    SIRIUS_ASSIGN_OR_RETURN(args[a], Eval(*e.children[a], input));
  }
  format::ColumnBuilder b(e.type);
  b.Reserve(n);
  std::vector<Scalar> row(args.size());
  for (size_t k = 0; k < n; ++k) {
    for (size_t a = 0; a < args.size(); ++a) {
      row[a] = args[a]->GetScalar(Row(*args[a], n, k));
    }
    SIRIUS_ASSIGN_OR_RETURN(Scalar out, def.fn(row));
    SIRIUS_RETURN_NOT_OK(b.AppendScalar(out));
  }
  return b.Finish();
}

Result<ColumnPtr> Eval(const Expr& e, const format::Table& input) {
  const size_t n = input.num_rows();
  switch (e.kind) {
    case ExprKind::kColumnRef: {
      if (e.column_index < 0 ||
          static_cast<size_t>(e.column_index) >= input.num_columns()) {
        return Status::ExecutionError("unbound column reference " + e.ToString());
      }
      return input.column(e.column_index);
    }
    case ExprKind::kLiteral: {
      // One row standing for all n; over no rows, no row at all.
      format::ColumnBuilder b(e.type);
      if (n > 0) SIRIUS_RETURN_NOT_OK(b.AppendScalar(e.literal));
      return b.Finish();
    }
    case ExprKind::kBinary: {
      SIRIUS_ASSIGN_OR_RETURN(ColumnPtr lc, Eval(*e.children[0], input));
      SIRIUS_ASSIGN_OR_RETURN(ColumnPtr rc, Eval(*e.children[1], input));
      switch (e.bop) {
        case BinaryOp::kAdd:
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
          return EvalArithmetic(e, *lc, *rc);
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          lc = ByteOperand(std::move(lc), n);
          rc = ByteOperand(std::move(rc), n);
          return EvalLogical(e, *lc, *rc);
        default:
          return EvalComparison(e, *lc, *rc);
      }
    }
    case ExprKind::kUnary: {
      SIRIUS_ASSIGN_OR_RETURN(ColumnPtr c, Eval(*e.children[0], input));
      return EvalUnary(e, std::move(c), n);
    }
    case ExprKind::kFunction: {
      SIRIUS_ASSIGN_OR_RETURN(ColumnPtr c, Eval(*e.children[0], input));
      return EvalFunction(e, std::move(c));
    }
    case ExprKind::kCase:
      return EvalCase(e, input);
    case ExprKind::kUdf:
      return EvalUdf(e, input);
    case ExprKind::kInList: {
      SIRIUS_ASSIGN_OR_RETURN(ColumnPtr c, Eval(*e.children[0], input));
      return EvalInList(e, *c);
    }
  }
  return Status::Internal("unknown expr kind");
}

}  // namespace

Result<ColumnPtr> Evaluate(const Expr& e, const format::Table& input) {
  SIRIUS_ASSIGN_OR_RETURN(ColumnPtr c, Eval(e, input));
  if (c->length() != input.num_rows()) return Expand(c, input.num_rows());
  return c;
}

}  // namespace sirius::expr
