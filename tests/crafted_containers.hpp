// Hand-built .frdtz files for the container's error paths.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "compress/lz.hpp"
#include "container/format.hpp"

namespace frd::container::testing {

// A 68-byte container whose one chunk declares `raw_size` decompressed
// bytes: a ten-byte LZ stream (a literal, then a distance-1 match for the
// rest) that really does decode to that size, so a reader that trusted the
// footer would build the whole chunk before its digest check failed it.
inline std::string oversized_chunk_container(
    std::uint64_t raw_size = 64 << 20) {
  std::vector<std::uint8_t> lz = {0x01, 0x01, 'x', 0x02};
  compress::put_varint(lz, raw_size - 1);
  compress::put_varint(lz, 1);
  lz.push_back(0x00);

  std::string out(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kContainerVersion));
  container_info info;
  info.granule = 4;
  info.event_count = 0;
  info.raw_size = raw_size;
  chunk_entry c;
  c.offset = out.size();
  c.stored_size = lz.size();
  c.raw_size = raw_size;
  c.first_event = 0;
  c.first_offset = 0;
  c.encoding = chunk_encoding::lz;
  info.chunks.push_back(c);
  out.append(lz.begin(), lz.end());

  const std::uint64_t footer_offset = out.size();
  std::vector<std::uint8_t> footer;
  encode_footer(footer, info);
  out.append(footer.begin(), footer.end());
  for (int i = 0; i < 8; ++i)
    out.push_back(static_cast<char>(footer_offset >> (8 * i)));
  out.append(kTrailerMagic, sizeof(kTrailerMagic));
  return out;
}

}  // namespace frd::container::testing
