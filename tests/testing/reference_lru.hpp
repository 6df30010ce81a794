// A deliberately slow reference model of sim::CacheLevel for differential
// tests.
//
// Each set is a std::list in recency order (front = MRU) holding
// {line, dirty} entries, with no packed words, no in-place shuffles and no
// lazily allocated storage.  The one thing it shares with CacheLevel is the
// line-to-set mapping, CacheLevel::set_of, which it evaluates from scratch
// on every call where CacheLevel uses precomputed constants.  Every
// operation is the textbook definition, so whatever CacheLevel does faster
// must agree with it result by result.
#pragma once

#include <cstdint>
#include <list>
#include <utility>
#include <vector>

#include "sim/cache.hpp"

namespace papisim::test_support {

class ReferenceLru {
 public:
  ReferenceLru(std::uint64_t size_bytes, std::uint32_t associativity,
               std::uint32_t line_bytes, bool hashed_sets)
      : ways_(associativity),
        hashed_(hashed_sets),
        sets_(size_bytes / line_bytes / associativity) {}

  /// Lookup with fill-on-miss.  `depth` receives the hit's recency depth
  /// (0 = MRU), or -1 on a miss.
  sim::CacheLevel::Result access(std::uint64_t line, bool dirty, int* depth = nullptr) {
    sim::CacheLevel::Result r;
    if (depth != nullptr) *depth = -1;
    if (sets_.empty()) return r;
    std::list<Entry>& set = set_of(line);
    int d = 0;
    for (auto it = set.begin(); it != set.end(); ++it, ++d) {
      if (it->line == line) {
        Entry e = *it;
        e.dirty = e.dirty || dirty;
        set.erase(it);
        set.push_front(e);
        r.hit = true;
        if (depth != nullptr) *depth = d;
        return r;
      }
    }
    if (set.size() == ways_) {
      r.evicted = true;
      r.victim_line = set.back().line;
      r.victim_dirty = set.back().dirty;
      set.pop_back();
    }
    set.push_front(Entry{line, dirty});
    return r;
  }

  /// CacheLevel::insert has access() semantics.
  sim::CacheLevel::Result insert(std::uint64_t line, bool dirty) { return access(line, dirty); }

  bool contains(std::uint64_t line) const {
    if (sets_.empty()) return false;
    for (const Entry& e : sets_[set_index(line)]) {
      if (e.line == line) return true;
    }
    return false;
  }

  sim::CacheLevel::Invalidated invalidate(std::uint64_t line) {
    sim::CacheLevel::Invalidated out;
    if (sets_.empty()) return out;
    std::list<Entry>& set = set_of(line);
    for (auto it = set.begin(); it != set.end(); ++it) {
      if (it->line == line) {
        out.present = true;
        out.dirty = it->dirty;
        set.erase(it);
        return out;
      }
    }
    return out;
  }

  /// Every held (line, dirty) pair, emptying the model.
  std::vector<std::pair<std::uint64_t, bool>> flush() {
    std::vector<std::pair<std::uint64_t, bool>> out;
    for (std::list<Entry>& set : sets_) {
      for (const Entry& e : set) out.emplace_back(e.line, e.dirty);
      set.clear();
    }
    return out;
  }

  /// The (line, dirty) entries of `line`'s set, MRU first: the whole state
  /// an access, insert or invalidate of `line` can change.
  std::vector<std::pair<std::uint64_t, bool>> set_state(std::uint64_t line) const {
    std::vector<std::pair<std::uint64_t, bool>> out;
    if (sets_.empty()) return out;
    for (const Entry& e : sets_[set_index(line)]) out.emplace_back(e.line, e.dirty);
    return out;
  }

  std::uint64_t valid_lines() const {
    std::uint64_t n = 0;
    for (const std::list<Entry>& set : sets_) n += set.size();
    return n;
  }

 private:
  struct Entry {
    std::uint64_t line;
    bool dirty;
  };

  std::uint64_t set_index(std::uint64_t line) const {
    return sim::CacheLevel::set_of(line, static_cast<std::uint32_t>(sets_.size()), hashed_);
  }
  std::list<Entry>& set_of(std::uint64_t line) { return sets_[set_index(line)]; }

  std::size_t ways_;
  bool hashed_;
  std::vector<std::list<Entry>> sets_;
};

}  // namespace papisim::test_support
