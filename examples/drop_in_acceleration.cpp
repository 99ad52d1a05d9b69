// Drop-in acceleration mechanics: the Substrait boundary, the device's one
// support rule, and graceful CPU fallback (paper §3.1-§3.2).

#include <algorithm>
#include <cstdio>

#include "engine/sirius.h"
#include "expr/udf.h"
#include "plan/substrait.h"
#include "tpch/queries.h"

using namespace sirius;

int main() {
  host::Database db;
  SIRIUS_CHECK_OK(tpch::LoadTpch(&db, 0.005));

  // 1. The host database exports its optimized plan in the standard wire
  //    format — this is everything that crosses the host/Sirius boundary.
  auto wire = db.ExportSubstrait(tpch::Query(6));
  SIRIUS_CHECK_OK(wire.status());
  std::printf("Substrait plan for Q6 (%zu bytes):\n%.220s...\n\n",
              wire.ValueOrDie().size(), wire.ValueOrDie().c_str());

  // 2. A full-featured Sirius engine accepts it.
  engine::SiriusEngine full(&db, {});
  auto direct = full.ExecuteSubstrait(wire.ValueOrDie());
  SIRIUS_CHECK_OK(direct.status());
  std::printf("executed directly from the wire format: %zu row(s)\n\n",
              direct.ValueOrDie().table->num_rows());

  // 3. The device declines what it cannot run: a scalar UDF, which only
  //    the host can evaluate (§3.4). The host transparently runs such a
  //    plan on its CPU engine (§3.2.2); everything else stays on the device.
  expr::UdfDefinition cap;
  cap.name = "cap_qty";
  cap.arity = 1;
  cap.return_type = format::Int64();
  cap.fn = [](const std::vector<format::Scalar>& args) -> Result<format::Scalar> {
    if (args[0].is_null()) return format::Scalar::Null(format::Int64());
    return format::Scalar::FromInt64(std::min<int64_t>(25, args[0].int_value()));
  };
  SIRIUS_CHECK_OK(expr::UdfRegistry::Global()->Register(std::move(cap)));
  db.SetAccelerator(&full);

  auto udf = db.Query(
      "select l_returnflag, sum(cap_qty(l_linenumber * 5)) as capped "
      "from lineitem group by l_returnflag order by l_returnflag");
  SIRIUS_CHECK_OK(udf.status());
  SIRIUS_CHECK(udf.ValueOrDie().fell_back);
  std::printf("UDF query on the full engine: accelerated=%s, fell_back=%s\n",
              udf.ValueOrDie().accelerated ? "true" : "false",
              udf.ValueOrDie().fell_back ? "true" : "false");

  auto q6 = db.Query(tpch::Query(6));  // Q6 runs on the device
  SIRIUS_CHECK_OK(q6.status());
  SIRIUS_CHECK(q6.ValueOrDie().accelerated);
  std::printf("Q6 on the full engine: accelerated=%s, fell_back=%s\n",
              q6.ValueOrDie().accelerated ? "true" : "false",
              q6.ValueOrDie().fell_back ? "true" : "false");
  db.SetAccelerator(nullptr);

  std::printf("\nThe user-facing interface never changed: same SQL, same "
              "Database object, results served by whichever engine could "
              "run the plan.\n");
  return 0;
}
