// SHA-1 (FIPS 180-1) and FNV-1a digests.
//
// PARSEC's dedup fingerprints chunks with SHA-1; we implement it from the
// spec (no external crypto dependency — this repo builds everything it
// needs). SHA-1 is cryptographically broken for adversarial inputs but
// remains exactly what the original benchmark uses for dedup keying.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace frd::compress {

using sha1_digest = std::array<std::uint8_t, 20>;

// Hashes whole 64-byte blocks straight from `data`; on x86-64 CPUs with
// SHA-NI the blocks run on the SHA instructions (chosen once, by CPUID).
sha1_digest sha1(std::span<const std::uint8_t> data);
std::string to_hex(const sha1_digest& d);

// 64-bit FNV-1a: cheap keying for hash tables.
std::uint64_t fnv1a64(std::span<const std::uint8_t> data);

// Dedup-table key: first 8 bytes of the SHA-1, little endian.
std::uint64_t sha1_key64(const sha1_digest& d);

namespace detail {

// SHA-1's chaining state h0..h4.
using sha1_state = std::array<std::uint32_t, 5>;

// Folds `blocks` consecutive 64-byte message blocks at `data` into `state`.
using sha1_block_fn = void (*)(sha1_state& state, const std::uint8_t* data,
                               std::size_t blocks);

// The portable block function; every CPU runs it.
void sha1_blocks_portable(sha1_state& state, const std::uint8_t* data,
                          std::size_t blocks);

// The SHA-NI block function when this CPU runs it (x86-64 with SHA, SSSE3
// and SSE4.1), else nullptr, with `*missing` (when given) set to the
// feature the CPU or the build's architecture lacks.
sha1_block_fn sha1_blocks_accelerated(const char** missing = nullptr);

// sha1(data) computed with `blocks`: whole blocks from `data`, then the
// padded tail.
sha1_digest sha1_with(sha1_block_fn blocks, std::span<const std::uint8_t> data);

}  // namespace detail

}  // namespace frd::compress
