#include "serve/query_cache.h"

#include <cctype>

namespace sirius::serve {

std::string NormalizeSql(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  bool in_literal = false;
  bool pending_space = false;
  for (char c : sql) {
    if (in_literal) {
      out.push_back(c);
      if (c == '\'') in_literal = false;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    if (c == '\'') {
      in_literal = true;
      out.push_back(c);
    } else {
      out.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
  }
  return out;
}

QueryCache::Entry* QueryCache::FindLive(const std::string& key,
                                        uint64_t version) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return nullptr;
  if (it->second.version != version) {
    ++invalidations_;
    lru_.erase(it->second.lru_it);
    entries_.erase(it);
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return &it->second;
}

QueryCache::Entry* QueryCache::Touch(const std::string& key,
                                     uint64_t version) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    if (it->second.version != version) {
      // Rebuilt under a newer catalog: start the entry over in place.
      ++invalidations_;
      auto lru_it = it->second.lru_it;
      it->second = Entry{};
      it->second.lru_it = lru_it;
    }
  } else {
    lru_.push_front(key);
    it = entries_.emplace(key, Entry{}).first;
    it->second.lru_it = lru_.begin();
    while (entries_.size() > kMaxEntries && !lru_.empty()) {
      entries_.erase(lru_.back());
      lru_.pop_back();
    }
  }
  it->second.version = version;
  lru_.splice(lru_.begin(), lru_, it->second.lru_it);
  return &it->second;
}

plan::PlanPtr QueryCache::LookupPlan(const std::string& normalized_sql,
                                     uint64_t catalog_version) {
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = FindLive(normalized_sql, catalog_version);
  return e == nullptr ? nullptr : e->plan;
}

void QueryCache::InsertPlan(const std::string& normalized_sql,
                            uint64_t catalog_version, plan::PlanPtr plan) {
  if (plan == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  Touch(normalized_sql, catalog_version)->plan = std::move(plan);
}

bool QueryCache::LookupResult(const std::string& normalized_sql,
                              uint64_t catalog_version, CachedResult* out) {
  if (!cache_results_) return false;
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = FindLive(normalized_sql, catalog_version);
  if (e == nullptr || !e->has_result) return false;
  *out = e->result;
  return true;
}

void QueryCache::InsertResult(const std::string& normalized_sql,
                              uint64_t catalog_version, CachedResult result) {
  if (!cache_results_) return;
  std::lock_guard<std::mutex> lock(mu_);
  Entry* e = Touch(normalized_sql, catalog_version);
  e->has_result = true;
  e->result = std::move(result);
}

bool QueryCache::HasLiveEntry(const std::string& normalized_sql,
                              uint64_t catalog_version) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(normalized_sql);
  return it != entries_.end() && it->second.version == catalog_version;
}

size_t QueryCache::EvictStale(uint64_t current_version) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t dropped = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (it->second.version < current_version) {
      lru_.erase(it->second.lru_it);
      it = entries_.erase(it);
      ++invalidations_;
      ++dropped;
    } else {
      ++it;
    }
  }
  return dropped;
}

uint64_t QueryCache::invalidations() const {
  std::lock_guard<std::mutex> lock(mu_);
  return invalidations_;
}

size_t QueryCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace sirius::serve
