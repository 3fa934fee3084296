// Test support for the binary trace decoders: the byte-at-a-time FRDT
// decoder that trace::trace_reader was before it decoded from buffers (one
// std::istream::get() per byte, with the header checks and messages of the
// codec), kept as the reference the span decoder must match event for
// event and message for message; a way to drain any source the way the
// trace player does; and seeded traces whose events cross block and chunk
// boundaries at many offsets. For the writers: seeded events of every kind
// with fields at their widest, and an output stream that fails after a
// given number of bytes.
#pragma once

#include <algorithm>
#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "support/granule.hpp"
#include "support/prng.hpp"
#include "trace/codec.hpp"
#include "trace/event.hpp"

namespace frd::trace::testing {

class reference_trace_reader {
 public:
  explicit reference_trace_reader(std::istream& in) : in_(in) {
    char magic[4] = {};
    in_.read(magic, sizeof(magic));
    if (in_.gcount() != sizeof(magic) || magic[0] != 'F' || magic[1] != 'R' ||
        magic[2] != 'D' || magic[3] != 'T') {
      throw trace_error("not a FutureRD trace: bad magic (expected \"FRDT\")");
    }
    const std::uint64_t version = read_varint();
    if (version != kTraceVersion) {
      throw trace_error("unsupported trace version " + std::to_string(version) +
                        " (this build reads version " +
                        std::to_string(kTraceVersion) + ")");
    }
    const std::uint64_t granule = read_varint();
    if (granule > 4096 || !valid_granule(static_cast<std::size_t>(granule))) {
      throw trace_error("trace header granule must be a power of two in "
                        "[1, 4096] bytes, got " +
                        std::to_string(granule));
    }
    header_.version = static_cast<std::uint32_t>(version);
    header_.granule = static_cast<std::uint32_t>(granule);
  }

  const trace_header& header() const { return header_; }

  bool next(trace_event& e) {
    if (done_) return false;
    const int kind_byte = in_.get();
    if (kind_byte < 0) {
      throw trace_error("truncated trace: end marker missing");
    }
    if (kind_byte == 0xFF) {
      done_ = true;
      return false;
    }
    if (kind_byte >= kEventKindCount) {
      throw trace_error("malformed trace: unknown event kind " +
                        std::to_string(kind_byte));
    }
    const auto kind = static_cast<event_kind>(kind_byte);
    event_fields f;
    f.n = field_count(kind);
    for (int i = 0; i < f.n; ++i) f.v[i] = read_varint();
    e = event_from(kind, f);
    return true;
  }

 private:
  std::uint64_t read_varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      const int c = in_.get();
      if (c < 0) throw trace_error("truncated trace: varint cut off mid-field");
      if (shift == 63 && (c & 0xFE) != 0) {
        throw trace_error("malformed trace: varint overflows 64 bits");
      }
      v |= static_cast<std::uint64_t>(c & 0x7F) << shift;
      if ((c & 0x80) == 0) return v;
    }
    throw trace_error("malformed trace: varint longer than 64 bits");
  }

  std::istream& in_;
  trace_header header_;
  bool done_ = false;
};

// What a decoder made of a byte stream: the events it delivered and the
// message of the trace_error it stopped with ("" when it reached the end
// marker).
struct decode_outcome {
  std::vector<trace_event> events;
  std::string error;
};

// Drains `src` through next() alone, or (runs) as trace_player does:
// access_run while it hands out runs, next() for the event after each.
inline decode_outcome drain(trace_source& src, bool runs) {
  decode_outcome out;
  try {
    trace_event e;
    for (;;) {
      if (runs) {
        // An odd run length, so runs also end inside long access stretches.
        for (std::span<const trace_event> run = src.access_run(7); !run.empty();
             run = src.access_run(7)) {
          out.events.insert(out.events.end(), run.begin(), run.end());
        }
      }
      if (!src.next(e)) break;
      out.events.push_back(e);
    }
  } catch (const trace_error& ex) {
    out.error = ex.what();
  }
  return out;
}

// The reference decoder's outcome on `bytes`, header errors included.
inline decode_outcome reference_decode(const std::string& bytes) {
  decode_outcome out;
  std::istringstream in(bytes);
  try {
    reference_trace_reader r(in);
    trace_event e;
    while (r.next(e)) out.events.push_back(e);
  } catch (const trace_error& ex) {
    out.error = ex.what();
  }
  return out;
}

// A seeded flat trace of `n` events after `pad` bytes (not 1) of two- and
// three-byte reads: mostly accesses, whose addresses take 1 to 10 varint
// bytes, among dag events whose fields take up to 5 bytes each, so event
// encodings run from 2 to 31 bytes and, as `pad` varies, land across a
// block or chunk boundary at every offset.
inline std::string seeded_flat_trace(std::uint64_t seed, int n, int pad = 0) {
  prng rng(seed);
  std::ostringstream out(std::ios::binary);
  trace_writer w(out, trace_header{kTraceVersion, 4});
  trace_event e{};
  for (int left = pad; left >= 2;) {
    e.kind = event_kind::read;
    e.access = {left == 3 ? 0x100u : 4u};
    left -= left == 3 ? 3 : 2;
    w.put(e);
  }
  for (int i = 0; i < n; ++i) {
    const std::uint64_t pick = rng.below(16);
    if (pick < 12) {
      e.kind = pick < 8 ? event_kind::read : event_kind::write;
      e.access = {rng.next() >> (4 * rng.below(16))};
    } else {
      const auto id = [&rng] {
        return static_cast<std::uint32_t>(rng.next() >> (4 * rng.below(9)));
      };
      e.kind = event_kind::get;
      e.get = {id(), id(), id(), id(), id(), id()};
      if (pick == 15) {
        e.kind = event_kind::spawn;
        e.fork = {id(), id(), id(), id(), id()};
      }
    }
    w.put(e);
  }
  w.finish();
  return out.str();
}

// `n` seeded events, each kind equally likely, whose fields are 0 to 255,
// the widest value the field holds (2^32 - 1 for an id, 2^64 - 1 for an
// address) or anything of a random width in between.
inline std::vector<trace_event> seeded_events(std::uint64_t seed,
                                              std::size_t n) {
  prng rng(seed);
  std::vector<trace_event> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto kind = static_cast<event_kind>(rng.below(kEventKindCount));
    const std::uint64_t widest =
        kind == event_kind::read || kind == event_kind::write ? ~0ULL
                                                               : 0xFFFFFFFFULL;
    event_fields f;
    f.n = field_count(kind);
    for (int k = 0; k < f.n; ++k) {
      switch (rng.below(3)) {
        case 0: f.v[k] = widest; break;
        case 1: f.v[k] = rng.below(256); break;
        default: f.v[k] = (rng.next() >> rng.below(64)) & widest;
      }
    }
    out.push_back(event_from(kind, f));
  }
  return out;
}

// An output stream that takes the first `budget` bytes written to it and
// refuses the rest, as a full disk does: the write that crosses the budget
// stores what fits and sets badbit.
class budget_ostream : public std::ostream {
 public:
  explicit budget_ostream(std::size_t budget)
      : std::ostream(nullptr), buf_(budget) {
    rdbuf(&buf_);
  }
  // What reached the stream.
  const std::string& bytes() const { return buf_.bytes; }

 private:
  class buffer final : public std::streambuf {
   public:
    explicit buffer(std::size_t budget) : budget_(budget) {}
    std::string bytes;

   protected:
    std::streamsize xsputn(const char* s, std::streamsize n) override {
      const auto take = std::min<std::size_t>(static_cast<std::size_t>(n),
                                              budget_ - bytes.size());
      bytes.append(s, take);
      return static_cast<std::streamsize>(take);
    }
    int_type overflow(int_type ch) override {
      if (traits_type::eq_int_type(ch, traits_type::eof())) {
        return traits_type::not_eof(ch);
      }
      if (bytes.size() == budget_) return traits_type::eof();
      bytes.push_back(traits_type::to_char_type(ch));
      return ch;
    }

   private:
    std::size_t budget_;
  };
  buffer buf_;
};

}  // namespace frd::trace::testing
