// Deterministic RNG and value domains shared by the TPC-H generator and the
// SSB generator (src/ssb/dbgen.cc), which derives its dimensions from the
// same spec vocabulary: regions, nations, market segments, part types and
// containers, and the key-name and phone formats.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace sirius::tpch {

/// \brief Deterministic RNG (splitmix64-based, seeded per table), bit-exact
/// across platforms: no distribution adapters.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed * 0x9e3779b97f4a7c15ULL + 1) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [lo, hi] inclusive.
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
  }

  /// Uniform in [0, 1) from the 53 high bits.
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// One of the entries of `list`.
  template <typename T>
  const T& Pick(const std::vector<T>& list) {
    return list[Next() % list.size()];
  }

 private:
  uint64_t state_;
};

struct NationDef {
  const char* name;
  int region;  ///< index into Regions()
};

/// \name Spec value domains
/// @{
const std::vector<std::string>& Regions();
const std::vector<NationDef>& Nations();
const std::vector<std::string>& Segments();
const std::vector<std::string>& Priorities();
const std::vector<std::string>& ShipModes();
const std::vector<std::string>& TypeSyllable1();
const std::vector<std::string>& TypeSyllable2();
const std::vector<std::string>& TypeSyllable3();
const std::vector<std::string>& Container1();
const std::vector<std::string>& Container2();
/// @}

/// "Customer#000000042" for PadKeyName("Customer", 42).
std::string PadKeyName(const char* prefix, int64_t key);
/// A phone number whose country code derives from `nationkey`.
std::string Phone(Rng& rng, int64_t nationkey);

}  // namespace sirius::tpch
