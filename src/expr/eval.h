// Columnar expression evaluation.

#pragma once

#include "common/result.h"
#include "expr/expr.h"
#include "format/table.h"

namespace sirius::expr {

/// \brief Evaluates a bound expression over every row of `input`, producing
/// a column of `e.type` with `input.num_rows()` entries.
///
/// SQL semantics: NULLs propagate through arithmetic/comparisons/functions;
/// AND/OR use Kleene three-valued logic; IS [NOT] NULL never returns NULL.
///
/// Each operator runs one typed loop over whole columns. Literals and
/// literal-only subtrees are computed once, as one row, and copied out to
/// the input's length only when they are the whole expression.
Result<format::ColumnPtr> Evaluate(const Expr& e, const format::Table& input);

}  // namespace sirius::expr
