#include "ssb/dbgen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "format/builder.h"
#include "tpch/vocab.h"

namespace sirius::ssb {

using format::ColumnBuilder;
using format::DataType;
using format::Schema;
using format::TablePtr;
using tpch::Container1;
using tpch::Container2;
using tpch::NationDef;
using tpch::Nations;
using tpch::PadKeyName;
using tpch::Phone;
using tpch::Priorities;
using tpch::Regions;
using tpch::Rng;
using tpch::Segments;
using tpch::ShipModes;
using tpch::TypeSyllable1;
using tpch::TypeSyllable2;
using tpch::TypeSyllable3;

namespace {

/// Draws ranks 1..n with probability proportional to 1/rank^s (s = 0 is
/// uniform). The CDF is precomputed once per column; a draw is one uniform
/// plus a binary search, so generation stays O(rows log n) at any skew.
class ZipfPicker {
 public:
  ZipfPicker(int64_t n, double s) : cdf_(static_cast<size_t>(n)) {
    double total = 0;
    for (int64_t r = 1; r <= n; ++r) {
      total += s == 0.0 ? 1.0 : 1.0 / std::pow(static_cast<double>(r), s);
      cdf_[static_cast<size_t>(r - 1)] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  /// A key in [1, n]; rank 1 (key 1) is the hottest under skew.
  int64_t Pick(Rng& rng) const {
    const double u = rng.Uniform();
    auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int64_t>(it - cdf_.begin()) + 1;
  }

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// SSB-only value domains (the spec vocabulary it shares with TPC-H is in
// tpch/vocab.h)
// ---------------------------------------------------------------------------

const std::vector<std::string>& Colors() {
  static const std::vector<std::string> v = {
      "almond", "antique", "aquamarine", "azure",  "beige",   "bisque",
      "black",  "blanched", "blue",      "blush",  "brown",   "burlywood",
      "coral",  "cornsilk", "cream",     "cyan",   "dark",    "deep",
      "dim",    "drab",     "firebrick", "floral", "forest",  "frosted",
      "ghost",  "goldenrod", "green",    "grey",   "honeydew", "hot",
      "indian", "ivory",    "khaki",     "lace",   "lavender", "lawn",
      "lemon",  "light",    "lime",      "linen",  "magenta", "maroon",
      "medium", "metallic", "midnight",  "mint",   "misty",   "moccasin",
      "navajo", "navy",     "olive",     "orange", "orchid",  "pale",
      "papaya", "peach",    "peru",      "pink",   "plum",    "powder",
      "puff",   "purple",   "red",       "rose",   "rosy",    "royal",
      "saddle", "salmon",   "sandy",     "seashell", "sienna", "sky",
      "slate",  "smoke",    "snow",      "spring", "steel",   "tan",
      "thistle", "tomato",  "turquoise", "violet", "wheat",   "white",
      "yellow"};
  return v;
}
const std::vector<std::string>& Seasons() {
  static const std::vector<std::string> v = {"Winter", "Spring", "Summer",
                                             "Fall", "Christmas"};
  return v;
}
const std::vector<std::string>& AddressWords() {
  static const std::vector<std::string> v = {
      "oak",   "elm",    "maple", "cedar", "pine",  "birch",
      "ash",   "willow", "haven", "grove", "ridge", "vale"};
  return v;
}

const char* const kMonthNames[12] = {"Jan", "Feb", "Mar", "Apr", "May", "Jun",
                                     "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"};
const char* const kDayNames[7] = {"Sunday",   "Monday", "Tuesday", "Wednesday",
                                  "Thursday", "Friday", "Saturday"};

std::string Address(Rng& rng) {
  std::string out = std::to_string(rng.Range(1, 9999));
  for (int i = 0; i < 2; ++i) out += " " + rng.Pick(AddressWords());
  return out;
}

/// SSB city: the nation name truncated to nine characters plus a digit
/// ("UNITED KI1"). 10 cities per nation.
std::string City(const std::string& nation, int64_t city_digit) {
  std::string base = nation.substr(0, 9);
  return base + static_cast<char>('0' + city_digit);
}

// ---------------------------------------------------------------------------
// String-heavy padding
// ---------------------------------------------------------------------------

/// Deterministic lowercase suffix derived from the value itself, so every
/// occurrence of one logical value pads identically (group-by cardinalities
/// match the unpadded variant exactly). Lowercase sorts after the
/// uppercase/digit domains, so a padded value stays inside any
/// [value, next-prefix) range predicate.
std::string PadValue(const std::string& value, int pad) {
  if (pad <= 0) return value;
  uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : value) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  const int extra = static_cast<int>(h % static_cast<uint64_t>(pad / 2 + 1));
  std::string out = value;
  out.reserve(value.size() + static_cast<size_t>(pad + extra));
  for (int i = 0; i < pad + extra; ++i) {
    h = h * 6364136223846793005ULL + 1442695040888963407ULL;
    out.push_back(static_cast<char>('a' + (h >> 33) % 26));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Calendar (1992-01-01 .. 1998-12-31)
// ---------------------------------------------------------------------------

constexpr int kFirstYear = 1992;
constexpr int kLastYear = 1998;

bool IsLeap(int y) { return y % 4 == 0 && (y % 100 != 0 || y % 400 == 0); }

int DaysInMonth(int y, int m) {
  static const int kDays[12] = {31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31};
  return m == 2 && IsLeap(y) ? 29 : kDays[m - 1];
}

struct CivilDate {
  int year;
  int month;  ///< 1-12
  int day;    ///< 1-31
  int day_of_year;  ///< 1-based
};

/// All days of the SSB calendar in order, built once.
const std::vector<CivilDate>& Calendar() {
  static const std::vector<CivilDate> v = [] {
    std::vector<CivilDate> days;
    for (int y = kFirstYear; y <= kLastYear; ++y) {
      int doy = 0;
      for (int m = 1; m <= 12; ++m) {
        for (int d = 1; d <= DaysInMonth(y, m); ++d) {
          ++doy;
          days.push_back(CivilDate{y, m, d, doy});
        }
      }
    }
    return days;
  }();
  return v;
}

int64_t DateKey(const CivilDate& c) {
  return static_cast<int64_t>(c.year) * 10000 + c.month * 100 + c.day;
}

// ---------------------------------------------------------------------------
// Cardinalities
// ---------------------------------------------------------------------------

struct Cardinalities {
  int64_t customers;
  int64_t suppliers;
  int64_t parts;
  int64_t orders;  ///< lineorder has 1-7 lines per order (avg 4)
};

Cardinalities CardsFor(double sf) {
  Cardinalities c;
  c.customers = std::max<int64_t>(50, static_cast<int64_t>(30000 * sf));
  c.suppliers = std::max<int64_t>(40, static_cast<int64_t>(2000 * sf));
  c.parts = std::max<int64_t>(200, static_cast<int64_t>(200000 * sf));
  c.orders = std::max<int64_t>(100, static_cast<int64_t>(1500000 * sf));
  return c;
}

uint64_t TableSeed(const SsbOptions& o, uint64_t table_index) {
  return o.seed * 0x9e3779b97f4a7c15ULL + table_index * 131 + 17;
}

int64_t PriceCents(int64_t partkey) {
  return 90000 + ((partkey / 10) % 20001) + 100 * (partkey % 1000);
}

// ---------------------------------------------------------------------------
// Table generators
// ---------------------------------------------------------------------------

Result<TablePtr> GenCustomer(const SsbOptions& o, const Cardinalities& cards) {
  format::TableBuilder b(CustomerSchema());
  Rng rng(TableSeed(o, 1));
  const int pad = o.string_heavy ? o.string_pad : 0;
  for (int64_t key = 1; key <= cards.customers; ++key) {
    const NationDef& nation = rng.Pick(Nations());
    const int64_t nationkey =
        static_cast<int64_t>(&nation - Nations().data());
    b.column(0).AppendInt(key);
    b.column(1).AppendString(PadValue(PadKeyName("Customer", key), pad));
    b.column(2).AppendString(PadValue(Address(rng), pad));
    b.column(3).AppendString(PadValue(City(nation.name, rng.Range(0, 9)), pad));
    b.column(4).AppendString(nation.name);
    b.column(5).AppendString(Regions()[static_cast<size_t>(nation.region)]);
    b.column(6).AppendString(Phone(rng, nationkey));
    b.column(7).AppendString(rng.Pick(Segments()));
  }
  return b.Finish();
}

Result<TablePtr> GenSupplier(const SsbOptions& o, const Cardinalities& cards) {
  format::TableBuilder b(SupplierSchema());
  Rng rng(TableSeed(o, 2));
  const int pad = o.string_heavy ? o.string_pad : 0;
  for (int64_t key = 1; key <= cards.suppliers; ++key) {
    // Cycle nations so every nation keeps suppliers at tiny scale factors
    // (the flight-3/4 nation predicates stay non-empty); the city digit
    // stays random.
    const NationDef& nation =
        Nations()[static_cast<size_t>((key - 1) % Nations().size())];
    const int64_t nationkey = (key - 1) % static_cast<int64_t>(Nations().size());
    b.column(0).AppendInt(key);
    b.column(1).AppendString(PadValue(PadKeyName("Supplier", key), pad));
    b.column(2).AppendString(PadValue(Address(rng), pad));
    b.column(3).AppendString(PadValue(City(nation.name, rng.Range(0, 9)), pad));
    b.column(4).AppendString(nation.name);
    b.column(5).AppendString(Regions()[static_cast<size_t>(nation.region)]);
    b.column(6).AppendString(Phone(rng, nationkey));
  }
  return b.Finish();
}

Result<TablePtr> GenPart(const SsbOptions& o, const Cardinalities& cards) {
  format::TableBuilder b(PartSchema());
  Rng rng(TableSeed(o, 3));
  const int pad = o.string_heavy ? o.string_pad : 0;
  for (int64_t key = 1; key <= cards.parts; ++key) {
    const int64_t mfgr = rng.Range(1, 5);
    const int64_t category = rng.Range(1, 5);
    const int64_t brand = rng.Range(1, 40);
    const std::string mfgr_s = "MFGR#" + std::to_string(mfgr);
    const std::string category_s = mfgr_s + std::to_string(category);
    const std::string brand_s = category_s + std::to_string(brand);
    b.column(0).AppendInt(key);
    b.column(1).AppendString(
        PadValue(rng.Pick(Colors()) + " " + rng.Pick(Colors()), pad));
    b.column(2).AppendString(mfgr_s);
    b.column(3).AppendString(category_s);
    b.column(4).AppendString(PadValue(brand_s, pad));
    b.column(5).AppendString(rng.Pick(Colors()));
    b.column(6).AppendString(rng.Pick(TypeSyllable1()) + " " +
                             rng.Pick(TypeSyllable2()) + " " +
                             rng.Pick(TypeSyllable3()));
    b.column(7).AppendInt(rng.Range(1, 50));
    b.column(8).AppendString(rng.Pick(Container1()) + " " +
                             rng.Pick(Container2()));
  }
  return b.Finish();
}

Result<TablePtr> GenDate() {
  format::TableBuilder b(DateSchema());
  char buf[16];
  for (const CivilDate& c : Calendar()) {
    // Day of week from the civil date (1992-01-01 was a Wednesday).
    const int64_t key = DateKey(c);
    const int64_t epoch_days = format::DaysFromCivil(c.year, c.month, c.day);
    const int dow = static_cast<int>((epoch_days % 7 + 7 + 4) % 7);
    b.column(0).AppendInt(key);
    std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", c.year, c.month, c.day);
    b.column(1).AppendString(buf);
    b.column(2).AppendString(kDayNames[dow]);
    b.column(3).AppendString(kMonthNames[c.month - 1]);
    b.column(4).AppendInt(c.year);
    b.column(5).AppendInt(static_cast<int64_t>(c.year) * 100 + c.month);
    b.column(6).AppendString(std::string(kMonthNames[c.month - 1]) +
                             std::to_string(c.year));
    b.column(7).AppendInt(c.day_of_year);
    b.column(8).AppendInt((c.day_of_year - 1) / 7 + 1);
    b.column(9).AppendString(
        c.month == 12 ? Seasons()[4]
                      : Seasons()[static_cast<size_t>((c.month % 12) / 3)]);
  }
  return b.Finish();
}

Result<TablePtr> GenLineorder(const SsbOptions& o, const Cardinalities& cards) {
  format::TableBuilder b(LineorderSchema());
  Rng rng(TableSeed(o, 4));
  const ZipfPicker cust_pick(cards.customers, o.skew);
  const ZipfPicker part_pick(cards.parts, o.skew);
  const ZipfPicker supp_pick(cards.suppliers, o.skew);
  const int64_t num_days = static_cast<int64_t>(Calendar().size());
  for (int64_t i = 1; i <= cards.orders; ++i) {
    // Sparse order keys like TPC-H (8 per 32-key block).
    const int64_t key = (i - 1) / 8 * 32 + (i - 1) % 8 + 1;
    const int64_t lines = rng.Range(1, 7);
    const int64_t custkey = cust_pick.Pick(rng);
    const int64_t order_day = rng.Range(0, num_days - 1);
    const int64_t orderdate = DateKey(Calendar()[static_cast<size_t>(order_day)]);
    const std::string& priority = rng.Pick(Priorities());
    // The order total spans all of the order's lines, so the lines are
    // buffered, summed, and only then appended.
    struct Line {
      int64_t partkey, suppkey, quantity, extended, discount, revenue;
      int64_t commitdate;
      const std::string* shipmode;
    };
    std::vector<Line> order_lines;
    order_lines.reserve(static_cast<size_t>(lines));
    int64_t ordtotal = 0;
    for (int64_t ln = 1; ln <= lines; ++ln) {
      Line l;
      l.partkey = part_pick.Pick(rng);
      l.suppkey = supp_pick.Pick(rng);
      l.quantity = rng.Range(1, 50);
      l.extended = l.quantity * PriceCents(l.partkey) / 100;
      l.discount = rng.Range(0, 10);
      l.revenue = l.extended * (100 - l.discount) / 100;
      const int64_t commit_day =
          std::min<int64_t>(order_day + rng.Range(30, 90), num_days - 1);
      l.commitdate = DateKey(Calendar()[static_cast<size_t>(commit_day)]);
      l.shipmode = &rng.Pick(ShipModes());
      ordtotal += l.extended;
      order_lines.push_back(l);
    }
    for (int64_t ln = 1; ln <= lines; ++ln) {
      const Line& l = order_lines[static_cast<size_t>(ln - 1)];
      b.column(0).AppendInt(key);
      b.column(1).AppendInt(ln);
      b.column(2).AppendInt(custkey);
      b.column(3).AppendInt(l.partkey);
      b.column(4).AppendInt(l.suppkey);
      b.column(5).AppendInt(orderdate);
      b.column(6).AppendString(priority);
      b.column(7).AppendInt(0);
      b.column(8).AppendInt(l.quantity);
      b.column(9).AppendInt(l.extended);
      b.column(10).AppendInt(ordtotal);
      b.column(11).AppendInt(l.discount);
      b.column(12).AppendInt(l.revenue);
      b.column(13).AppendInt(PriceCents(l.partkey) * 6 / 10);
      b.column(14).AppendInt(rng.Range(0, 8));
      b.column(15).AppendInt(l.commitdate);
      b.column(16).AppendString(*l.shipmode);
    }
  }
  return b.Finish();
}

}  // namespace

// ---------------------------------------------------------------------------
// Schemas
// ---------------------------------------------------------------------------

Schema CustomerSchema() {
  return Schema({{"c_custkey", format::Int64()},
                 {"c_name", format::String()},
                 {"c_address", format::String()},
                 {"c_city", format::String()},
                 {"c_nation", format::String()},
                 {"c_region", format::String()},
                 {"c_phone", format::String()},
                 {"c_mktsegment", format::String()}});
}

Schema SupplierSchema() {
  return Schema({{"s_suppkey", format::Int64()},
                 {"s_name", format::String()},
                 {"s_address", format::String()},
                 {"s_city", format::String()},
                 {"s_nation", format::String()},
                 {"s_region", format::String()},
                 {"s_phone", format::String()}});
}

Schema PartSchema() {
  return Schema({{"p_partkey", format::Int64()},
                 {"p_name", format::String()},
                 {"p_mfgr", format::String()},
                 {"p_category", format::String()},
                 {"p_brand1", format::String()},
                 {"p_color", format::String()},
                 {"p_type", format::String()},
                 {"p_size", format::Int64()},
                 {"p_container", format::String()}});
}

Schema DateSchema() {
  return Schema({{"d_datekey", format::Int64()},
                 {"d_date", format::String()},
                 {"d_dayofweek", format::String()},
                 {"d_month", format::String()},
                 {"d_year", format::Int64()},
                 {"d_yearmonthnum", format::Int64()},
                 {"d_yearmonth", format::String()},
                 {"d_daynuminyear", format::Int64()},
                 {"d_weeknuminyear", format::Int64()},
                 {"d_sellingseason", format::String()}});
}

Schema LineorderSchema() {
  return Schema({{"lo_orderkey", format::Int64()},
                 {"lo_linenumber", format::Int64()},
                 {"lo_custkey", format::Int64()},
                 {"lo_partkey", format::Int64()},
                 {"lo_suppkey", format::Int64()},
                 {"lo_orderdate", format::Int64()},
                 {"lo_orderpriority", format::String()},
                 {"lo_shippriority", format::Int64()},
                 {"lo_quantity", format::Int64()},
                 {"lo_extendedprice", format::Int64()},
                 {"lo_ordtotalprice", format::Int64()},
                 {"lo_discount", format::Int64()},
                 {"lo_revenue", format::Int64()},
                 {"lo_supplycost", format::Int64()},
                 {"lo_tax", format::Int64()},
                 {"lo_commitdate", format::Int64()},
                 {"lo_shipmode", format::String()}});
}

const std::vector<std::string>& TableNames() {
  static const std::vector<std::string> v = {"ssb_customer", "ssb_supplier",
                                             "ssb_part", "dwdate",
                                             "lineorder"};
  return v;
}

int NumDateRows() { return static_cast<int>(Calendar().size()); }

Result<TablePtr> GenerateTable(const std::string& name,
                               const SsbOptions& options) {
  const Cardinalities cards = CardsFor(options.sf);
  if (name == "ssb_customer") return GenCustomer(options, cards);
  if (name == "ssb_supplier") return GenSupplier(options, cards);
  if (name == "ssb_part") return GenPart(options, cards);
  if (name == "dwdate") return GenDate();
  if (name == "lineorder") return GenLineorder(options, cards);
  return Status::KeyError("unknown SSB table '" + name + "'");
}

}  // namespace sirius::ssb
