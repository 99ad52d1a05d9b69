#include "tpch/dbgen.h"

#include <algorithm>
#include <vector>

#include "format/builder.h"
#include "tpch/vocab.h"

namespace sirius::tpch {

using format::ColumnBuilder;
using format::DataType;
using format::DaysFromCivil;
using format::Field;
using format::Schema;
using format::TablePtr;

namespace {

// ---------------------------------------------------------------------------
// TPC-H-only value domains (the shared ones are in tpch/vocab.h)
// ---------------------------------------------------------------------------

const std::vector<std::string>& ShipInstructs() {
  static const std::vector<std::string> v = {"DELIVER IN PERSON", "COLLECT COD",
                                             "NONE", "TAKE BACK RETURN"};
  return v;
}
const std::vector<std::string>& PartNameWords() {
  static const std::vector<std::string> v = {
      "almond",    "antique",   "aquamarine", "azure",     "beige",    "bisque",
      "black",     "blanched",  "blue",       "blush",     "brown",    "burlywood",
      "burnished", "chartreuse", "chiffon",   "chocolate", "coral",    "cornflower",
      "cornsilk",  "cream",     "cyan",       "dark",      "deep",     "dim",
      "dodger",    "drab",      "firebrick",  "floral",    "forest",   "frosted",
      "gainsboro", "ghost",     "goldenrod",  "green",     "grey",     "honeydew",
      "hot",       "indian",    "ivory",      "khaki",     "lace",     "lavender",
      "lawn",      "lemon",     "light",      "lime",      "linen",    "magenta",
      "maroon",    "medium",    "metallic",   "midnight",  "mint",     "misty",
      "moccasin",  "navajo",    "navy",       "olive",     "orange",   "orchid",
      "pale",      "papaya",    "peach",      "peru",      "pink",     "plum",
      "powder",    "puff",      "purple",     "red",       "rose",     "rosy",
      "royal",     "saddle",    "salmon",     "sandy",     "seashell", "sienna",
      "sky",       "slate",     "smoke",      "snow",      "spring",   "steel",
      "tan",       "thistle",   "tomato",     "turquoise", "violet",   "wheat",
      "white",     "yellow"};
  return v;
}
const std::vector<std::string>& CommentWords() {
  static const std::vector<std::string> v = {
      "carefully", "quickly",  "furiously",  "slyly",    "blithely", "deposits",
      "requests",  "accounts", "instructions", "packages", "theodolites", "pinto",
      "beans",     "foxes",    "ideas",      "dependencies", "excuses", "platelets",
      "asymptotes", "courts",  "dolphins",   "multipliers", "sauternes", "warthogs",
      "frets",     "dinos",    "attainments", "somas",   "realms",   "braids",
      "hockey",    "players",  "about",      "the",      "final",    "bold",
      "regular",   "express",  "even",       "special",  "silent",   "ironic",
      "pending",   "sleep",    "wake",       "haggle",   "nag",      "use",
      "boost",     "along",    "across",     "among"};
  return v;
}

std::string RandomComment(Rng& rng, int min_words, int max_words) {
  int n = static_cast<int>(rng.Range(min_words, max_words));
  std::string out;
  for (int i = 0; i < n; ++i) {
    if (i > 0) out += ' ';
    out += rng.Pick(CommentWords());
  }
  return out;
}

int64_t RetailPriceCents(int64_t partkey) {
  return 90000 + ((partkey / 10) % 20001) + 100 * (partkey % 1000);
}

constexpr int32_t kStartDate = 8035;   // 1992-01-01
constexpr int32_t kEndOrderSpan = 2405;  // orders up to 1998-08-02
constexpr int32_t kCurrentDate = 9298;   // 1995-06-17 (returnflag boundary)

// ---------------------------------------------------------------------------
// Schemas
// ---------------------------------------------------------------------------

DataType Money() { return format::Decimal(2); }

}  // namespace

Schema RegionSchema() {
  return Schema({{"r_regionkey", format::Int64()},
                 {"r_name", format::String()},
                 {"r_comment", format::String()}});
}

Schema NationSchema() {
  return Schema({{"n_nationkey", format::Int64()},
                 {"n_name", format::String()},
                 {"n_regionkey", format::Int64()},
                 {"n_comment", format::String()}});
}

Schema SupplierSchema() {
  return Schema({{"s_suppkey", format::Int64()},
                 {"s_name", format::String()},
                 {"s_address", format::String()},
                 {"s_nationkey", format::Int64()},
                 {"s_phone", format::String()},
                 {"s_acctbal", Money()},
                 {"s_comment", format::String()}});
}

Schema PartSchema() {
  return Schema({{"p_partkey", format::Int64()},
                 {"p_name", format::String()},
                 {"p_mfgr", format::String()},
                 {"p_brand", format::String()},
                 {"p_type", format::String()},
                 {"p_size", format::Int64()},
                 {"p_container", format::String()},
                 {"p_retailprice", Money()},
                 {"p_comment", format::String()}});
}

Schema PartsuppSchema() {
  return Schema({{"ps_partkey", format::Int64()},
                 {"ps_suppkey", format::Int64()},
                 {"ps_availqty", format::Int64()},
                 {"ps_supplycost", Money()},
                 {"ps_comment", format::String()}});
}

Schema CustomerSchema() {
  return Schema({{"c_custkey", format::Int64()},
                 {"c_name", format::String()},
                 {"c_address", format::String()},
                 {"c_nationkey", format::Int64()},
                 {"c_phone", format::String()},
                 {"c_acctbal", Money()},
                 {"c_mktsegment", format::String()},
                 {"c_comment", format::String()}});
}

Schema OrdersSchema() {
  return Schema({{"o_orderkey", format::Int64()},
                 {"o_custkey", format::Int64()},
                 {"o_orderstatus", format::String()},
                 {"o_totalprice", Money()},
                 {"o_orderdate", format::Date32()},
                 {"o_orderpriority", format::String()},
                 {"o_clerk", format::String()},
                 {"o_shippriority", format::Int64()},
                 {"o_comment", format::String()}});
}

Schema LineitemSchema() {
  return Schema({{"l_orderkey", format::Int64()},
                 {"l_partkey", format::Int64()},
                 {"l_suppkey", format::Int64()},
                 {"l_linenumber", format::Int64()},
                 {"l_quantity", Money()},
                 {"l_extendedprice", Money()},
                 {"l_discount", Money()},
                 {"l_tax", Money()},
                 {"l_returnflag", format::String()},
                 {"l_linestatus", format::String()},
                 {"l_shipdate", format::Date32()},
                 {"l_commitdate", format::Date32()},
                 {"l_receiptdate", format::Date32()},
                 {"l_shipinstruct", format::String()},
                 {"l_shipmode", format::String()},
                 {"l_comment", format::String()}});
}

namespace {

// ---------------------------------------------------------------------------
// Table generators
// ---------------------------------------------------------------------------

Result<TablePtr> GenRegion() {
  format::TableBuilder b(RegionSchema());
  Rng rng(1);
  for (size_t i = 0; i < Regions().size(); ++i) {
    b.column(0).AppendInt(static_cast<int64_t>(i));
    b.column(1).AppendString(Regions()[i]);
    b.column(2).AppendString(RandomComment(rng, 4, 10));
  }
  return b.Finish();
}

Result<TablePtr> GenNation() {
  format::TableBuilder b(NationSchema());
  Rng rng(2);
  for (size_t i = 0; i < Nations().size(); ++i) {
    b.column(0).AppendInt(static_cast<int64_t>(i));
    b.column(1).AppendString(Nations()[i].name);
    b.column(2).AppendInt(Nations()[i].region);
    b.column(3).AppendString(RandomComment(rng, 4, 10));
  }
  return b.Finish();
}

Result<TablePtr> GenSupplier(int64_t count) {
  format::TableBuilder b(SupplierSchema());
  Rng rng(3);
  for (int64_t key = 1; key <= count; ++key) {
    b.column(0).AppendInt(key);
    b.column(1).AppendString(PadKeyName("Supplier", key));
    b.column(2).AppendString(RandomComment(rng, 2, 4));
    int64_t nationkey = rng.Range(0, 24);
    b.column(3).AppendInt(nationkey);
    b.column(4).AppendString(Phone(rng, nationkey));
    b.column(5).AppendInt(rng.Range(-99999, 999999));  // cents
    // ~0.05% of suppliers get the Q16 trigger phrase.
    std::string comment = RandomComment(rng, 6, 12);
    if (rng.Range(0, 1999) == 0) {
      comment += " Customer unhappy Complaints";
    }
    b.column(6).AppendString(comment);
  }
  return b.Finish();
}

Result<TablePtr> GenPart(int64_t count) {
  format::TableBuilder b(PartSchema());
  Rng rng(4);
  for (int64_t key = 1; key <= count; ++key) {
    b.column(0).AppendInt(key);
    std::string name = rng.Pick(PartNameWords());
    for (int w = 0; w < 4; ++w) name += " " + rng.Pick(PartNameWords());
    b.column(1).AppendString(name);
    int m = static_cast<int>(rng.Range(1, 5));
    b.column(2).AppendString("Manufacturer#" + std::to_string(m));
    b.column(3).AppendString("Brand#" + std::to_string(m) +
                             std::to_string(rng.Range(1, 5)));
    b.column(4).AppendString(rng.Pick(TypeSyllable1()) + " " +
                             rng.Pick(TypeSyllable2()) + " " +
                             rng.Pick(TypeSyllable3()));
    b.column(5).AppendInt(rng.Range(1, 50));
    b.column(6).AppendString(rng.Pick(Container1()) + " " + rng.Pick(Container2()));
    b.column(7).AppendInt(RetailPriceCents(key));
    b.column(8).AppendString(RandomComment(rng, 3, 8));
  }
  return b.Finish();
}

Result<TablePtr> GenPartsupp(int64_t part_count, int64_t supp_count) {
  format::TableBuilder b(PartsuppSchema());
  Rng rng(5);
  for (int64_t pk = 1; pk <= part_count; ++pk) {
    for (int s = 0; s < 4; ++s) {
      // Spec supplier assignment formula: spreads suppliers over parts.
      int64_t sk = (pk + (s * ((supp_count / 4) + (pk - 1) / supp_count))) %
                       supp_count +
                   1;
      b.column(0).AppendInt(pk);
      b.column(1).AppendInt(sk);
      b.column(2).AppendInt(rng.Range(1, 9999));
      b.column(3).AppendInt(rng.Range(100, 100000));  // 1.00 .. 1000.00
      b.column(4).AppendString(RandomComment(rng, 6, 12));
    }
  }
  return b.Finish();
}

Result<TablePtr> GenCustomer(int64_t count) {
  format::TableBuilder b(CustomerSchema());
  Rng rng(6);
  for (int64_t key = 1; key <= count; ++key) {
    b.column(0).AppendInt(key);
    b.column(1).AppendString(PadKeyName("Customer", key));
    b.column(2).AppendString(RandomComment(rng, 2, 4));
    int64_t nationkey = rng.Range(0, 24);
    b.column(3).AppendInt(nationkey);
    b.column(4).AppendString(Phone(rng, nationkey));
    b.column(5).AppendInt(rng.Range(-99999, 999999));
    b.column(6).AppendString(rng.Pick(Segments()));
    b.column(7).AppendString(RandomComment(rng, 6, 12));
  }
  return b.Finish();
}

Result<TablePtr> GenOrders(int64_t order_count, int64_t customer_count) {
  format::TableBuilder b(OrdersSchema());
  Rng rng(7);
  for (int64_t i = 1; i <= order_count; ++i) {
    // Spec: orderkeys are sparse (8 per 32-key block).
    int64_t key = (i - 1) / 8 * 32 + (i - 1) % 8 + 1;
    b.column(0).AppendInt(key);
    // Spec: only 2/3 of customers have orders (custkey % 3 != 0 -> shift).
    int64_t ck = rng.Range(1, std::max<int64_t>(1, customer_count));
    if (customer_count >= 3 && ck % 3 == 0) ++ck;
    if (ck > customer_count) ck = 1;
    b.column(1).AppendInt(ck);
    // Order date is a deterministic function of the order key so that the
    // lineitem generator reproduces it without cross-table state.
    Rng date_rng(static_cast<uint64_t>(key) * 2654435761ULL + 7);
    int32_t orderdate = kStartDate + static_cast<int32_t>(date_rng.Range(0, kEndOrderSpan));
    // Status from the (approximate) lineitem ship state.
    const char* status = orderdate + 60 < kCurrentDate
                             ? "F"
                             : (orderdate > kCurrentDate ? "O" : "P");
    b.column(2).AppendString(status);
    b.column(3).AppendInt(rng.Range(90000, 35000000));  // ~900 .. 350k
    b.column(4).AppendInt(orderdate);
    b.column(5).AppendString(rng.Pick(Priorities()));
    b.column(6).AppendString(PadKeyName("Clerk", rng.Range(1, 1000)));
    b.column(7).AppendInt(0);
    std::string comment = RandomComment(rng, 5, 12);
    // Q13 trigger: ~1% of orders mention "special ... requests".
    if (rng.Range(0, 99) == 0) comment += " special packages requests";
    b.column(8).AppendString(comment);
  }
  return b.Finish();
}

Result<TablePtr> GenLineitem(int64_t order_count, int64_t part_count,
                             int64_t supp_count) {
  format::TableBuilder b(LineitemSchema());
  Rng rng(8);
  for (int64_t i = 1; i <= order_count; ++i) {
    int64_t key = (i - 1) / 8 * 32 + (i - 1) % 8 + 1;
    int64_t lines = rng.Range(1, 7);
    // Same deterministic key->date function as GenOrders.
    Rng date_rng(static_cast<uint64_t>(key) * 2654435761ULL + 7);
    int32_t orderdate = kStartDate + static_cast<int32_t>(date_rng.Range(0, kEndOrderSpan));
    for (int64_t ln = 1; ln <= lines; ++ln) {
      b.column(0).AppendInt(key);
      int64_t partkey = rng.Range(1, part_count);
      b.column(1).AppendInt(partkey);
      // Spec formula keeps (partkey, suppkey) in partsupp's pairs.
      int s = static_cast<int>(rng.Range(0, 3));
      int64_t suppkey = (partkey + (s * ((supp_count / 4) + (partkey - 1) / supp_count))) %
                            supp_count +
                        1;
      b.column(2).AppendInt(suppkey);
      b.column(3).AppendInt(ln);
      int64_t quantity = rng.Range(1, 50);
      b.column(4).AppendInt(quantity * 100);  // DECIMAL(2)
      b.column(5).AppendInt(quantity * RetailPriceCents(partkey) / 100);
      b.column(6).AppendInt(rng.Range(0, 10));  // 0.00 .. 0.10
      b.column(7).AppendInt(rng.Range(0, 8));   // 0.00 .. 0.08
      int32_t shipdate = orderdate + static_cast<int32_t>(rng.Range(1, 121));
      int32_t commitdate = orderdate + static_cast<int32_t>(rng.Range(30, 90));
      int32_t receiptdate = shipdate + static_cast<int32_t>(rng.Range(1, 30));
      if (receiptdate <= kCurrentDate) {
        b.column(8).AppendString(rng.Range(0, 1) == 0 ? "R" : "A");
      } else {
        b.column(8).AppendString("N");
      }
      b.column(9).AppendString(shipdate > kCurrentDate ? "O" : "F");
      b.column(10).AppendInt(shipdate);
      b.column(11).AppendInt(commitdate);
      b.column(12).AppendInt(receiptdate);
      b.column(13).AppendString(rng.Pick(ShipInstructs()));
      b.column(14).AppendString(rng.Pick(ShipModes()));
      b.column(15).AppendString(RandomComment(rng, 2, 6));
    }
  }
  return b.Finish();
}

}  // namespace

const std::vector<std::string>& TableNames() {
  static const std::vector<std::string> v = {"region",   "nation",  "supplier",
                                             "part",     "partsupp", "customer",
                                             "orders",   "lineitem"};
  return v;
}

Result<TablePtr> GenerateTable(const std::string& name, double sf) {
  const int64_t supp = std::max<int64_t>(10, static_cast<int64_t>(10000 * sf));
  const int64_t part = std::max<int64_t>(40, static_cast<int64_t>(200000 * sf));
  const int64_t cust = std::max<int64_t>(30, static_cast<int64_t>(150000 * sf));
  const int64_t orders = std::max<int64_t>(75, static_cast<int64_t>(1500000 * sf));
  if (name == "region") return GenRegion();
  if (name == "nation") return GenNation();
  if (name == "supplier") return GenSupplier(supp);
  if (name == "part") return GenPart(part);
  if (name == "partsupp") return GenPartsupp(part, supp);
  if (name == "customer") return GenCustomer(cust);
  if (name == "orders") return GenOrders(orders, cust);
  if (name == "lineitem") return GenLineitem(orders, part, supp);
  return Status::KeyError("unknown TPC-H table '" + name + "'");
}

}  // namespace sirius::tpch
