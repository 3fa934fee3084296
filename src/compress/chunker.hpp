// Content-defined chunking (the Rabin-fingerprint stage of PARSEC dedup).
//
// Gear-hash CDC: roll h = (h << 1) + gear[byte]; declare a cut point when
// the low `mask` bits vanish, subject to min/max chunk bounds. Identical
// content produces identical chunks regardless of alignment, which is what
// gives the dedup stage its hit rate.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace frd::compress {

struct chunk_params {
  std::size_t min_size = 1 << 10;   // 1 KiB
  std::size_t target_size = 1 << 12;  // ~4 KiB average
  std::size_t max_size = 1 << 14;   // 16 KiB
};

struct chunk_ref {
  std::size_t offset;
  std::size_t size;
};

// Splits `data` into content-defined chunks covering it exactly.
std::vector<chunk_ref> chunk_bytes(std::span<const std::uint8_t> data,
                                   const chunk_params& params = {});

// Incremental form of the same cut decision, for producers that stream bytes
// instead of materializing them (the .frdtz container writer). Feeding any
// byte sequence through next_cut() — regardless of how the sequence is
// split across calls — yields exactly the cut points chunk_bytes() finds on
// the whole buffer; tests hold the two to each other.
class stream_chunker {
 public:
  explicit stream_chunker(const chunk_params& params = {});

  // Consumes `data` in order up to and including the first byte that ends a
  // chunk and returns how many bytes that was, or 0 when no byte of it ends
  // one (then all of it was consumed). State resets at a cut and carries
  // over between calls, so the cuts do not depend on how the bytes are
  // split into calls. The first bytes of each chunk, up to the mask width
  // short of min_size, are counted without being hashed: the bits a cut
  // tests depend only on the last mask-width bytes, so every cut falls
  // where hashing the whole chunk puts it.
  std::size_t next_cut(std::span<const std::uint8_t> data);

  // next_cut() on one byte: true when a chunk boundary falls AFTER `b`.
  bool push(std::uint8_t b) { return next_cut({&b, 1}) != 0; }

  // Bytes accumulated since the last cut (the open chunk's length so far).
  std::size_t pending() const { return len_; }
  const chunk_params& params() const { return params_; }

 private:
  chunk_params params_;
  std::uint64_t mask_;
  // Bytes at the start of every chunk that are counted but not hashed:
  // min_size less the mask width (see next_cut).
  std::size_t skip_;
  const std::uint64_t* gear_;
  std::uint64_t hash_ = 0;
  std::size_t len_ = 0;
};

// The gear table (exposed for tests: determinism across runs/platforms).
const std::uint64_t* gear_table();

}  // namespace frd::compress
