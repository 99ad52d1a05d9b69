#include "tpch/vocab.h"

#include <cstdio>

namespace sirius::tpch {

const std::vector<std::string>& Regions() {
  static const std::vector<std::string> v = {"AFRICA", "AMERICA", "ASIA", "EUROPE",
                                             "MIDDLE EAST"};
  return v;
}

const std::vector<NationDef>& Nations() {
  static const std::vector<NationDef> v = {
      {"ALGERIA", 0},        {"ARGENTINA", 1},  {"BRAZIL", 1},
      {"CANADA", 1},         {"EGYPT", 4},      {"ETHIOPIA", 0},
      {"FRANCE", 3},         {"GERMANY", 3},    {"INDIA", 2},
      {"INDONESIA", 2},      {"IRAN", 4},       {"IRAQ", 4},
      {"JAPAN", 2},          {"JORDAN", 4},     {"KENYA", 0},
      {"MOROCCO", 0},        {"MOZAMBIQUE", 0}, {"PERU", 1},
      {"CHINA", 2},          {"ROMANIA", 3},    {"SAUDI ARABIA", 4},
      {"VIETNAM", 2},        {"RUSSIA", 3},     {"UNITED KINGDOM", 3},
      {"UNITED STATES", 1}};
  return v;
}

const std::vector<std::string>& TypeSyllable1() {
  static const std::vector<std::string> v = {"STANDARD", "SMALL", "MEDIUM",
                                             "LARGE", "ECONOMY", "PROMO"};
  return v;
}
const std::vector<std::string>& TypeSyllable2() {
  static const std::vector<std::string> v = {"ANODIZED", "BURNISHED", "PLATED",
                                             "POLISHED", "BRUSHED"};
  return v;
}
const std::vector<std::string>& TypeSyllable3() {
  static const std::vector<std::string> v = {"TIN", "NICKEL", "BRASS", "STEEL",
                                             "COPPER"};
  return v;
}
const std::vector<std::string>& Container1() {
  static const std::vector<std::string> v = {"SM", "LG", "MED", "JUMBO", "WRAP"};
  return v;
}
const std::vector<std::string>& Container2() {
  static const std::vector<std::string> v = {"CASE", "BOX", "BAG", "JAR", "PKG",
                                             "PACK", "CAN", "DRUM"};
  return v;
}
const std::vector<std::string>& Segments() {
  static const std::vector<std::string> v = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                             "MACHINERY", "HOUSEHOLD"};
  return v;
}
const std::vector<std::string>& Priorities() {
  static const std::vector<std::string> v = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                             "4-NOT SPECIFIED", "5-LOW"};
  return v;
}
const std::vector<std::string>& ShipModes() {
  static const std::vector<std::string> v = {"REG AIR", "AIR", "RAIL", "SHIP",
                                             "TRUCK", "MAIL", "FOB"};
  return v;
}

std::string Phone(Rng& rng, int64_t nationkey) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%02d-%03d-%03d-%04d",
                static_cast<int>(nationkey + 10), static_cast<int>(rng.Range(100, 999)),
                static_cast<int>(rng.Range(100, 999)),
                static_cast<int>(rng.Range(1000, 9999)));
  return buf;
}

std::string PadKeyName(const char* prefix, int64_t key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%s#%09lld", prefix,
                static_cast<long long>(key));
  return buf;
}

}  // namespace sirius::tpch
