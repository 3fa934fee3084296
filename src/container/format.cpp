#include "container/format.hpp"

#include <cstring>
#include <istream>
#include <string>
#include <unordered_set>

#include "compress/lz.hpp"

namespace frd::container {

namespace {

using trace::trace_error;

[[noreturn]] void corrupt(const std::string& what) {
  throw trace_error("corrupt trace container: " + what);
}

// Footer fields decode through compress::get_varint, whose decode_error does
// not name the container — wrap it into the trace_error vocabulary.
std::uint64_t footer_varint(std::span<const std::uint8_t> in, std::size_t& pos,
                            const char* field) {
  try {
    return compress::get_varint(in, pos);
  } catch (const compress::decode_error&) {
    corrupt(std::string("footer field '") + field + "' is truncated");
  }
}

}  // namespace

std::uint64_t container_info::payload_bytes() const {
  std::uint64_t total = 0;
  std::unordered_set<std::uint64_t> seen;
  for (const chunk_entry& c : chunks) {
    if (seen.insert(c.offset).second) total += c.stored_size;
  }
  return total;
}

std::uint64_t container_info::dedup_hits() const {
  std::unordered_set<std::uint64_t> seen;
  std::uint64_t hits = 0;
  for (const chunk_entry& c : chunks) {
    if (!seen.insert(c.offset).second) ++hits;
  }
  return hits;
}

std::uint64_t container_info::dedup_saved_raw_bytes() const {
  std::unordered_set<std::uint64_t> seen;
  std::uint64_t saved = 0;
  for (const chunk_entry& c : chunks) {
    if (!seen.insert(c.offset).second) saved += c.raw_size;
  }
  return saved;
}

bool container_info::seekable() const {
  if (container_version < 2) return false;
  for (const chunk_entry& c : chunks) {
    if (c.first_offset == kNoFirstOffset) return false;
  }
  return true;
}

double container_info::compression_ratio(std::uint64_t file_size) const {
  return file_size ? static_cast<double>(raw_size) /
                         static_cast<double>(file_size)
                   : 0.0;
}

void encode_footer(std::vector<std::uint8_t>& out, const container_info& info) {
  out.insert(out.end(), kFooterMagic, kFooterMagic + 4);
  compress::put_varint(out, info.inner_version);
  compress::put_varint(out, info.granule);
  compress::put_varint(out, info.event_count);
  compress::put_varint(out, info.raw_size);
  compress::put_varint(out, info.chunks.size());
  for (const chunk_entry& c : info.chunks) {
    compress::put_varint(out, c.offset);
    compress::put_varint(out, c.stored_size);
    compress::put_varint(out, c.raw_size);
    compress::put_varint(out, c.first_event);
    // The seek index arrived in v2; encoding tracks info.container_version
    // so a round trip through parse_footer is layout-identical for both
    // generations (the v1 back-compat tests depend on this symmetry).
    if (info.container_version >= 2) compress::put_varint(out, c.first_offset);
    out.push_back(static_cast<std::uint8_t>(c.encoding));
    out.insert(out.end(), c.digest.begin(), c.digest.end());
  }
}

container_info parse_footer(const std::vector<std::uint8_t>& footer,
                            std::uint64_t footer_offset,
                            std::uint32_t container_version) {
  if (footer.size() < 4 ||
      std::memcmp(footer.data(), kFooterMagic, 4) != 0) {
    corrupt("footer magic missing (the chunk index is unreadable)");
  }
  container_info info;
  info.container_version = container_version;
  std::size_t pos = 4;
  const std::span<const std::uint8_t> f(footer);
  info.inner_version =
      static_cast<std::uint32_t>(footer_varint(f, pos, "inner version"));
  info.granule = static_cast<std::uint32_t>(footer_varint(f, pos, "granule"));
  info.event_count = footer_varint(f, pos, "event count");
  info.raw_size = footer_varint(f, pos, "raw size");
  const std::uint64_t n_chunks = footer_varint(f, pos, "chunk count");
  // A footer cannot describe more chunks than it has bytes for (each table
  // entry is >= 25 bytes): reject before reserving absurd amounts.
  if (n_chunks > footer.size() / 25 + 1) {
    corrupt("chunk count " + std::to_string(n_chunks) +
            " is larger than the footer could encode");
  }
  info.chunks.reserve(static_cast<std::size_t>(n_chunks));
  std::uint64_t covered = 0, last_first_event = 0;
  for (std::uint64_t i = 0; i < n_chunks; ++i) {
    chunk_entry c;
    c.offset = footer_varint(f, pos, "chunk offset");
    c.stored_size = footer_varint(f, pos, "chunk stored size");
    c.raw_size = footer_varint(f, pos, "chunk raw size");
    c.first_event = footer_varint(f, pos, "chunk first event");
    c.first_offset = container_version >= 2
                         ? footer_varint(f, pos, "chunk first offset")
                         : kNoFirstOffset;
    if (pos >= footer.size()) corrupt("chunk table is truncated");
    const std::uint8_t enc = footer[pos++];
    if (enc > 1) {
      corrupt("chunk " + std::to_string(i) + " has unknown encoding " +
              std::to_string(enc));
    }
    c.encoding = static_cast<chunk_encoding>(enc);
    if (footer.size() - pos < c.digest.size()) {
      corrupt("chunk table is truncated mid-digest");
    }
    std::memcpy(c.digest.data(), footer.data() + pos, c.digest.size());
    pos += c.digest.size();

    // Footer values are untrusted 64-bit integers: compare without sums
    // that could wrap.
    if (c.offset < sizeof(kMagic) + 1 || c.offset > footer_offset ||
        c.stored_size > footer_offset - c.offset) {
      corrupt("chunk " + std::to_string(i) +
              " points past the end of the container payload");
    }
    if (c.stored_size == 0 || c.raw_size == 0) {
      corrupt("chunk " + std::to_string(i) + " is empty");
    }
    if (c.first_event < last_first_event) {
      corrupt("chunk " + std::to_string(i) + " event range goes backwards");
    }
    if (container_version >= 2 && c.first_offset > c.raw_size) {
      corrupt("chunk " + std::to_string(i) + " seek offset " +
              std::to_string(c.first_offset) + " lands past its " +
              std::to_string(c.raw_size) + " raw bytes");
    }
    last_first_event = c.first_event;
    if (c.raw_size > info.raw_size - covered) {
      corrupt("chunk raw sizes cover more than the footer's declared " +
              std::to_string(info.raw_size) + "-byte stream (chunk " +
              std::to_string(i) + ")");
    }
    covered += c.raw_size;
    info.chunks.push_back(c);
  }
  if (pos != footer.size()) corrupt("footer carries trailing bytes");
  if (covered != info.raw_size) {
    corrupt("chunk raw sizes cover " + std::to_string(covered) +
            " bytes but the footer declares a " +
            std::to_string(info.raw_size) + "-byte stream");
  }
  if (info.raw_size > 0 && info.chunks.empty()) {
    corrupt("a non-empty stream with an empty chunk table");
  }
  return info;
}

container_info read_container_info(std::istream& in) {
  in.clear();
  in.seekg(0, std::ios::beg);
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  if (in.gcount() != sizeof(magic) || std::memcmp(magic, kMagic, 4) != 0) {
    throw trace_error(
        "not a FutureRD trace container: bad magic (expected \"FRDZ\")");
  }
  const int version = in.get();
  // The version varint is a single byte for every version this build could
  // meet; a continuation bit set means a far-future format.
  if (version < 0 || (version & 0x80) != 0 ||
      static_cast<std::uint32_t>(version) < kMinContainerVersion ||
      static_cast<std::uint32_t>(version) > kContainerVersion) {
    throw trace_error("unsupported trace container version " +
                      std::to_string(version & 0x7f) +
                      " (this build reads versions " +
                      std::to_string(kMinContainerVersion) + ".." +
                      std::to_string(kContainerVersion) + ")");
  }

  in.clear();
  in.seekg(0, std::ios::end);
  const std::int64_t file_size = in.tellg();
  if (file_size < static_cast<std::int64_t>(sizeof(kMagic) + 1 +
                                            kTrailerSize)) {
    corrupt("file too small to hold a trailer (truncated container)");
  }
  in.seekg(file_size - static_cast<std::int64_t>(kTrailerSize), std::ios::beg);
  std::uint8_t trailer[kTrailerSize] = {};
  in.read(reinterpret_cast<char*>(trailer), kTrailerSize);
  if (in.gcount() != static_cast<std::streamsize>(kTrailerSize) ||
      std::memcmp(trailer + 8, kTrailerMagic, 4) != 0) {
    corrupt("trailer magic missing (truncated container)");
  }
  std::uint64_t footer_offset = 0;
  for (int i = 7; i >= 0; --i) footer_offset = (footer_offset << 8) | trailer[i];
  const std::uint64_t footer_end =
      static_cast<std::uint64_t>(file_size) - kTrailerSize;
  if (footer_offset < sizeof(kMagic) + 1 || footer_offset >= footer_end) {
    corrupt("trailer points at footer offset " + std::to_string(footer_offset) +
            " outside the file");
  }
  std::vector<std::uint8_t> footer(
      static_cast<std::size_t>(footer_end - footer_offset));
  in.seekg(static_cast<std::streamoff>(footer_offset), std::ios::beg);
  in.read(reinterpret_cast<char*>(footer.data()),
          static_cast<std::streamsize>(footer.size()));
  if (in.gcount() != static_cast<std::streamsize>(footer.size())) {
    corrupt("footer read cut short (truncated container)");
  }
  container_info info = parse_footer(footer, footer_offset,
                                     static_cast<std::uint32_t>(version));
  return info;
}

bool looks_like_container(std::istream& in) {
  const std::streampos at = in.tellg();
  char magic[4] = {};
  in.read(magic, sizeof(magic));
  const bool got4 = in.gcount() == sizeof(magic);
  in.clear();
  in.seekg(at);
  return got4 && std::memcmp(magic, kMagic, 4) == 0;
}

}  // namespace frd::container
