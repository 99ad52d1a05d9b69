// Reference expression evaluator for tests: the row-at-a-time evaluator that
// expr::Evaluate replaced, kept as an oracle (see expr_reference.cc).

#pragma once

#include "common/result.h"
#include "expr/expr.h"
#include "format/table.h"

namespace sirius::expr::reference {

/// Same contract as expr::Evaluate: every row of `input`, SQL NULL semantics.
Result<format::ColumnPtr> Evaluate(const Expr& e, const format::Table& input);

}  // namespace sirius::expr::reference
