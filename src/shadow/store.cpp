#include "shadow/store.hpp"

#include <string>

namespace frd::shadow {

namespace {

// Runs validate() ahead of the member initializers that depend on cfg.
const store_config& validated(const store_config& cfg) {
  validate(cfg);
  return cfg;
}

}  // namespace

store_error unknown_store(std::string_view name) {
  return store_error("unknown shadow store '" + std::string(name) +
                     "'; the one store is " + std::string(kDefaultStore));
}

void validate(const store_config& cfg) {
  if (cfg.page_bits < 4 || cfg.page_bits > 24) {
    throw store_error("shadow page_bits must be in [4, 24], got " +
                      std::to_string(cfg.page_bits));
  }
  if (cfg.granule_shift > 12) {
    throw store_error("unreasonable granule size (shift " +
                      std::to_string(cfg.granule_shift) + " > 12)");
  }
  if (cfg.history_depth == 0) {
    throw store_error(
        "shadow_history_depth must be >= 1 (a depth-0 store could never "
        "record a reader); leave it unset for the full unbounded history");
  }
}

store::store(const store_config& cfg)
    : granule_shift_(validated(cfg).granule_shift),
      history_depth_(cfg.history_depth),
      page_bits_(cfg.page_bits),
      page_mask_((std::uintptr_t{1} << cfg.page_bits) - 1) {}

store::page& store::materialize(std::uintptr_t page_id) {
  auto [it, inserted] = pages_.try_emplace(page_id);
  if (inserted)
    it->second = std::make_unique<page>(std::size_t{1} << page_bits_);
  cached_id_ = page_id;
  cached_page_ = it->second.get();
  return *cached_page_;
}

store::granule_state store::peek(std::uintptr_t addr) const {
  granule_state out;
  const std::uintptr_t g = granule_of(addr);
  const auto it = pages_.find(g >> page_bits_);
  if (it == pages_.end()) return out;
  const granule_record& rec = it->second->records[g & page_mask_];
  out.touched = true;
  out.writer = rec.writer;
  out.readers.reserve(rec.reader_count());
  rec.for_each_reader([&](strand_id r) { out.readers.push_back(r); });
  return out;
}

std::size_t store::bytes_reserved() const {
  return pages_.size() * (std::size_t{1} << page_bits_) *
             sizeof(granule_record) +
         overflow_bytes_;
}

}  // namespace frd::shadow
