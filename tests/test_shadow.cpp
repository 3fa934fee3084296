// Unit tests for the shadow-memory store layer.
//
// The protocol tests pin the §3 semantics (lookup, reader append + dedupe,
// overflow, writer purge, lazy page allocation) at the store's operations,
// where a failure localizes to one step — the same contract the corpus
// conformance suite enforces end to end.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "shadow/granule_record.hpp"
#include "shadow/store.hpp"

namespace frd::shadow {
namespace {

// ---------------------------------------------------------- granule_record --

TEST(GranuleRecord, InlineThenOverflowReaders) {
  granule_record rec;
  EXPECT_EQ(rec.reader_count(), 0u);
  EXPECT_EQ(rec.last_reader(), rt::kNoStrand);
  for (strand_id s = 1; s <= 10; ++s) {
    rec.append_reader(s);
    EXPECT_EQ(rec.last_reader(), s);
    EXPECT_EQ(rec.reader_count(), s);
  }
  std::vector<strand_id> got;
  rec.for_each_reader([&](strand_id s) { got.push_back(s); });
  const std::vector<strand_id> want{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_EQ(got, want);
}

TEST(GranuleRecord, ClearRetainsOverflowCapacity) {
  granule_record rec;
  for (strand_id s = 0; s < 100; ++s) rec.append_reader(s);
  rec.clear_readers();
  EXPECT_EQ(rec.reader_count(), 0u);
  EXPECT_FALSE(rec.has_readers());
  rec.append_reader(7);
  EXPECT_EQ(rec.last_reader(), 7u);
  EXPECT_EQ(rec.reader_count(), 1u);
}

TEST(GranuleRecord, AppendReportsNewlyReservedHeapBytes) {
  granule_record rec;
  std::size_t total = 0;
  for (strand_id s = 1; s <= 3; ++s) EXPECT_EQ(rec.append_reader(s), 0u);
  for (strand_id s = 4; s <= 100; ++s) total += rec.append_reader(s);
  EXPECT_GE(total, 97 * sizeof(strand_id));
  // A purge keeps the overflow capacity, so regrowing reserves nothing.
  rec.clear_readers();
  std::size_t regrown = 0;
  for (strand_id s = 1; s <= 100; ++s) regrown += rec.append_reader(s);
  EXPECT_EQ(regrown, 0u);
}

TEST(GranuleRecord, ExactlyInlineBoundary) {
  granule_record rec;
  rec.append_reader(1);
  rec.append_reader(2);
  rec.append_reader(3);  // fills inline capacity
  EXPECT_EQ(rec.last_reader(), 3u);
  rec.append_reader(4);  // first overflow
  EXPECT_EQ(rec.last_reader(), 4u);
  std::vector<strand_id> got;
  rec.for_each_reader([&](strand_id s) { got.push_back(s); });
  EXPECT_EQ(got, (std::vector<strand_id>{1, 2, 3, 4}));
}

std::vector<strand_id> readers_of(const granule_record& rec) {
  std::vector<strand_id> out;
  rec.for_each_reader([&](strand_id s) { out.push_back(s); });
  return out;
}

TEST(GranuleRecord, MoveTransfersStateAndEmptiesTheSource) {
  granule_record rec;
  rec.writer = 9;
  for (strand_id s = 1; s <= 8; ++s) rec.append_reader(s);  // into overflow

  granule_record moved(std::move(rec));
  EXPECT_EQ(moved.writer, 9u);
  EXPECT_EQ(moved.reader_count(), 8u);
  EXPECT_EQ(readers_of(moved), (std::vector<strand_id>{1, 2, 3, 4, 5, 6, 7, 8}));
  // The moved-from record is a valid empty record, usable again.
  EXPECT_EQ(rec.writer, rt::kNoStrand);
  EXPECT_EQ(rec.reader_count(), 0u);
  rec.append_reader(42);
  EXPECT_EQ(rec.last_reader(), 42u);
}

TEST(GranuleRecord, MoveAssignRelocatesIntoGrownStorage) {
  // The scenario the move support exists for: records relocating when a
  // store grows a container of them.
  std::vector<granule_record> records;
  records.emplace_back();
  records[0].writer = 5;
  for (strand_id s = 1; s <= 6; ++s) records[0].append_reader(s);
  for (int i = 0; i < 64; ++i) records.emplace_back();  // forces regrowth
  EXPECT_EQ(records[0].writer, 5u);
  EXPECT_EQ(readers_of(records[0]), (std::vector<strand_id>{1, 2, 3, 4, 5, 6}));

  granule_record other;
  other.append_reader(77);
  other = std::move(records[0]);
  EXPECT_EQ(other.writer, 5u);
  EXPECT_EQ(other.reader_count(), 6u);
}

// -------------------------------------------------------------- the store --

// Collects the (prior, is_write) pairs a write_step surfaces.
struct prior_log {
  std::vector<std::pair<strand_id, bool>> seen;
  auto fn() {
    return [this](strand_id s, bool w) { seen.emplace_back(s, w); };
  }
};

TEST(Store, FourByteGranularity) {
  store st({});
  const std::uintptr_t base = 0x1000;
  prior_log log;
  st.write_step(base + 0, 7, log.fn());
  // Bytes 0-3 of a word share a granule; byte 4 starts the next.
  EXPECT_EQ(st.peek(base + 3).writer, 7u);
  EXPECT_EQ(st.peek(base + 4).writer, rt::kNoStrand);
}

TEST(Store, PagesAllocatedLazily) {
  store st({.page_bits = 8});  // 256 granules = 1 KiB of address space
  EXPECT_EQ(st.page_count(), 0u);
  st.read_step(0x10000, 1);
  EXPECT_EQ(st.page_count(), 1u);
  st.read_step(0x10004, 1);  // same page
  EXPECT_EQ(st.page_count(), 1u);
  st.read_step(0x90000, 1);  // far away: new page
  EXPECT_EQ(st.page_count(), 2u);
}

TEST(Store, PeekNeverAllocates) {
  store st({});
  EXPECT_FALSE(st.peek(0x2000).touched);
  EXPECT_EQ(st.page_count(), 0u);
  prior_log log;
  st.write_step(0x2000, 9, log.fn());
  const store::granule_state got = st.peek(0x2000);
  ASSERT_TRUE(got.touched);
  EXPECT_EQ(got.writer, 9u);
  // A neighbouring granule on the same (now allocated) page exists but is
  // pristine; a granule on a never-touched page is absent entirely.
  const store::granule_state neighbour = st.peek(0x2000 + 4);
  ASSERT_TRUE(neighbour.touched);
  EXPECT_EQ(neighbour.writer, rt::kNoStrand);
  EXPECT_TRUE(neighbour.readers.empty());
  EXPECT_FALSE(st.peek(0x2000 + (std::uintptr_t{1} << 30)).touched);
  EXPECT_EQ(st.page_count(), 1u);
}

TEST(Store, DistinctAddressesKeepDistinctState) {
  store st({});
  prior_log log;
  std::vector<std::uintptr_t> addrs;
  for (std::uintptr_t i = 0; i < 1000; ++i) addrs.push_back(0x4000 + i * 4);
  for (std::size_t i = 0; i < addrs.size(); ++i)
    st.write_step(addrs[i], static_cast<strand_id>(i), log.fn());
  for (std::size_t i = 0; i < addrs.size(); ++i)
    EXPECT_EQ(st.peek(addrs[i]).writer, static_cast<strand_id>(i));
}

TEST(Store, HotPathSurvivesPageInterleaving) {
  store st({.page_bits = 4});  // tiny pages force frequent switches
  prior_log log;
  for (int round = 0; round < 3; ++round) {
    for (std::uintptr_t a = 0; a < 64; ++a) {
      st.write_step(0x1000 + a * 4, 1, log.fn());
      st.write_step(0x8000 + a * 4, 2, log.fn());
    }
  }
  for (std::uintptr_t a = 0; a < 64; ++a) {
    EXPECT_EQ(st.peek(0x1000 + a * 4).writer, 1u);
    EXPECT_EQ(st.peek(0x8000 + a * 4).writer, 2u);
  }
}

TEST(Store, ReadStepReportsThePriorWriterAndAppends) {
  store st({});
  const std::uintptr_t a = 0x3000;
  EXPECT_EQ(st.read_step(a, 4), rt::kNoStrand);  // no writer yet
  prior_log log;
  st.write_step(a, 7, log.fn());
  EXPECT_EQ(st.read_step(a, 5), 7u);  // the §3 read race check input
  const store::granule_state got = st.peek(a);
  EXPECT_EQ(got.writer, 7u);
  EXPECT_EQ(got.readers, (std::vector<strand_id>{5}));
}

TEST(Store, ReadDedupeSkipsTailReaderAndOwnWriter) {
  store st({});
  const std::uintptr_t a = 0x3000;
  // Consecutive reads by one strand are recorded once (tail dedupe)...
  st.read_step(a, 5);
  st.read_step(a, 5);
  st.read_step(a, 6);
  st.read_step(a, 6);
  EXPECT_EQ(st.peek(a).readers, (std::vector<strand_id>{5, 6}));
  // ...and a strand that just wrote the granule is not recorded as a reader
  // (the writer field already guards it).
  prior_log log;
  st.write_step(a, 9, log.fn());
  st.read_step(a, 9);
  EXPECT_TRUE(st.peek(a).readers.empty());
  // A reader interleaved between two reads of another strand defeats the
  // tail dedupe by design (both occurrences are real §3 state).
  st.read_step(a, 5);
  st.read_step(a, 6);
  st.read_step(a, 5);
  EXPECT_EQ(st.peek(a).readers, (std::vector<strand_id>{5, 6, 5}));
}

TEST(Store, ReaderOverflowKeepsAppendOrder) {
  store st({});
  const std::uintptr_t a = 0x5000;
  std::vector<strand_id> want;
  for (strand_id s = 1; s <= 100; ++s) {  // far past any inline capacity
    st.read_step(a, s);
    want.push_back(s);
  }
  EXPECT_EQ(st.peek(a).readers, want);
}

TEST(Store, WriteStepSurfacesWriterThenReadersThenPurges) {
  store st({});
  const std::uintptr_t a = 0x6000;
  prior_log setup;
  st.write_step(a, 1, setup.fn());
  EXPECT_TRUE(setup.seen.empty()) << "pristine granule has no prior accesses";
  st.read_step(a, 2);
  st.read_step(a, 3);
  st.read_step(a, 4);

  prior_log log;
  st.write_step(a, 9, log.fn());
  const std::vector<std::pair<strand_id, bool>> want{
      {1, true}, {2, false}, {3, false}, {4, false}};
  EXPECT_EQ(log.seen, want) << "previous writer first, readers in append order";

  const store::granule_state got = st.peek(a);
  EXPECT_EQ(got.writer, 9u);
  EXPECT_TRUE(got.readers.empty()) << "the write purges the reader list";
  EXPECT_EQ(st.read_step(a, 2), 9u) << "the new writer answers later reads";
}

TEST(Store, PurgeCyclesReuseOverflowStorage) {
  // Steady-state §3 behavior: grow a long reader list, purge, grow again.
  // Storage must be reusable (bytes_reserved bounded by the peak, not the
  // cumulative number of readers ever appended).
  store st({});
  const std::uintptr_t a = 0x7000;
  prior_log log;
  st.write_step(a, 1, log.fn());
  for (strand_id s = 0; s < 256; ++s) st.read_step(a, s + 2);
  st.write_step(a, 1, log.fn());
  const std::size_t after_first_purge = st.bytes_reserved();
  for (int round = 0; round < 50; ++round) {
    for (strand_id s = 0; s < 256; ++s) st.read_step(a, s + 2);
    st.write_step(a, 1, log.fn());
    EXPECT_TRUE(st.peek(a).readers.empty());
  }
  EXPECT_LE(st.bytes_reserved(), after_first_purge)
      << "purge cycles must recycle overflow storage, not leak it";
}

TEST(Store, BytesReservedTracksMaterializedPages) {
  store st({.page_bits = 8});
  EXPECT_EQ(st.bytes_reserved(), 0u);
  st.read_step(0x1000, 1);
  const std::size_t one = st.bytes_reserved();
  EXPECT_GT(one, 0u);
  st.read_step(0x100000, 1);
  EXPECT_GT(st.bytes_reserved(), one);
}

TEST(Store, BytesReservedCountsReaderOverflow) {
  // Readers past the inline slots live on the heap; the footprint the
  // memory budgets read must include them.
  store st({.page_bits = 8});
  st.read_step(0x1000, 1);
  const std::size_t pages_only = st.bytes_reserved();
  for (strand_id s = 2; s <= 3; ++s) st.read_step(0x1000, s);
  EXPECT_EQ(st.bytes_reserved(), pages_only) << "inline readers are free";
  for (strand_id s = 4; s <= 1000; ++s) st.read_step(0x1000, s);
  EXPECT_GE(st.bytes_reserved(), pages_only + 997 * sizeof(strand_id));
}

TEST(StoreConfig, RejectsOutOfRangeConfigs) {
  EXPECT_THROW(store({.page_bits = 3}), store_error);
  EXPECT_THROW(store({.page_bits = 25}), store_error);
  EXPECT_THROW(store({.granule_shift = 13}), store_error);
  EXPECT_THROW(store({.history_depth = 0}), store_error);
  EXPECT_NO_THROW(store({.page_bits = 4}));
  EXPECT_NO_THROW(store({.page_bits = 24}));
}

}  // namespace
}  // namespace frd::shadow
