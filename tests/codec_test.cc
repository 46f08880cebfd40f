// Round-trip and failure-mode tests for the binary codec, including
// property-style sweeps over random payloads.
#include <gtest/gtest.h>

#include "src/base/codec.h"
#include "src/base/rng.h"
#include "src/base/shared_bytes.h"

namespace camelot {
namespace {

TEST(CodecTest, PrimitivesRoundTrip) {
  ByteWriter w;
  w.U8(0xab);
  w.U16(0x1234);
  w.U32(0xdeadbeef);
  w.U64(0x0123456789abcdefULL);
  w.I64(-42);
  w.Str("hello");
  w.Blob({1, 2, 3});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.U8(), 0xab);
  EXPECT_EQ(r.U16(), 0x1234);
  EXPECT_EQ(r.U32(), 0xdeadbeefu);
  EXPECT_EQ(r.U64(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.I64(), -42);
  EXPECT_EQ(r.Str(), "hello");
  EXPECT_EQ(r.Blob(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, IdsRoundTrip) {
  const Tid tid{FamilyId{SiteId{7}, 99}, 3, 1};
  ByteWriter w;
  w.Transaction(tid);
  w.SiteList({SiteId{1}, SiteId{2}, SiteId{3}});

  ByteReader r(w.bytes());
  EXPECT_EQ(r.Transaction(), tid);
  auto sites = r.SiteList();
  ASSERT_EQ(sites.size(), 3u);
  EXPECT_EQ(sites[1], SiteId{2});
  EXPECT_TRUE(r.ok());
}

TEST(CodecTest, OverReadFailsGracefully) {
  ByteWriter w;
  w.U16(5);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.U16(), 5);
  EXPECT_EQ(r.U64(), 0u);  // Over-read: zero value, failed state.
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.Str(), "");  // Subsequent reads stay failed.
}

TEST(CodecTest, CorruptLengthDoesNotExplode) {
  ByteWriter w;
  w.U32(0xffffffffu);  // Claims a 4 GB blob.
  ByteReader r(w.bytes());
  EXPECT_TRUE(r.Blob().empty());
  EXPECT_FALSE(r.ok());

  ByteReader r2(w.bytes());
  EXPECT_TRUE(r2.SiteList().empty());
  EXPECT_FALSE(r2.ok());
}

TEST(CodecTest, EmptyContainersRoundTrip) {
  ByteWriter w;
  w.Str("");
  w.Blob({});
  w.SiteList({});
  ByteReader r(w.bytes());
  EXPECT_EQ(r.Str(), "");
  EXPECT_TRUE(r.Blob().empty());
  EXPECT_TRUE(r.SiteList().empty());
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(CodecTest, Crc32KnownVector) {
  // CRC32C("123456789") = 0xE3069283 (iSCSI test vector).
  const char* s = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(s), 9), 0xE3069283u);
}

TEST(CodecTest, Crc32DetectsBitFlips) {
  Rng rng(3);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes data(64);
    for (auto& b : data) {
      b = static_cast<uint8_t>(rng.Next());
    }
    const uint32_t crc = Crc32(data);
    Bytes mutated = data;
    mutated[rng.NextBounded(mutated.size())] ^= static_cast<uint8_t>(1 + rng.NextBounded(255));
    EXPECT_NE(Crc32(mutated), crc);
  }
}

TEST(CodecTest, LongMessageOutgrowsTheInlineBufferIntact) {
  Bytes blob(1000);
  for (size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<uint8_t>(i * 7);
  }
  ByteWriter w;
  w.U64(0x0102030405060708ull);
  w.Blob(blob);
  w.Str(std::string(300, 'q'));
  w.U8(9);
  const Bytes wire = w.Take();
  EXPECT_EQ(wire.size(), 8u + 4 + 1000 + 4 + 300 + 1);
  EXPECT_EQ(wire.capacity(), wire.size());
  EXPECT_EQ(w.size(), 0u);
  ByteReader r(wire);
  EXPECT_EQ(r.U64(), 0x0102030405060708ull);
  EXPECT_EQ(r.Blob(), blob);
  EXPECT_EQ(r.Str(), std::string(300, 'q'));
  EXPECT_EQ(r.U8(), 9);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

// Property: any sequence of write ops reads back identically.
TEST(CodecTest, RandomizedRoundTripProperty) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<int> ops;
    std::vector<uint64_t> ints;
    std::vector<std::string> strs;
    ByteWriter w;
    const int n = static_cast<int>(rng.NextBounded(20));
    for (int i = 0; i < n; ++i) {
      const int op = static_cast<int>(rng.NextBounded(2));
      ops.push_back(op);
      if (op == 0) {
        const uint64_t v = rng.Next();
        ints.push_back(v);
        w.U64(v);
      } else {
        std::string s(rng.NextBounded(32), 'x');
        for (auto& c : s) {
          c = static_cast<char>('a' + rng.NextBounded(26));
        }
        strs.push_back(s);
        w.Str(s);
      }
    }
    ByteReader r(w.bytes());
    size_t ii = 0;
    size_t si = 0;
    for (int op : ops) {
      if (op == 0) {
        EXPECT_EQ(r.U64(), ints[ii++]);
      } else {
        EXPECT_EQ(r.Str(), strs[si++]);
      }
    }
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.AtEnd());
  }
}

TEST(SharedBytesTest, CopiesShareOneBuffer) {
  SharedBytes a = Bytes{1, 2, 3};
  SharedBytes b = a;
  SharedBytes c = b;
  EXPECT_EQ(a.use_count(), 3u);
  // All three alias the same underlying storage.
  EXPECT_EQ(&a.bytes(), &b.bytes());
  EXPECT_EQ(&b.bytes(), &c.bytes());
  EXPECT_EQ(c.size(), 3u);
  EXPECT_EQ(c[2], 3u);
}

TEST(SharedBytesTest, MoveStealsWithoutTouchingRefcount) {
  SharedBytes a = Bytes{9};
  SharedBytes b = a;
  SharedBytes c = std::move(a);
  EXPECT_EQ(b.use_count(), 2u);
  EXPECT_EQ(c.use_count(), 2u);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): moved-from is empty.
}

TEST(SharedBytesTest, DefaultIsEmptyAndReadable) {
  SharedBytes empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.use_count(), 0u);
  // The Bytes view of a null SharedBytes is a valid empty buffer.
  const Bytes& view = empty;
  EXPECT_TRUE(view.empty());
}

TEST(SharedBytesTest, FeedsByteReaderThroughBytesConversion) {
  ByteWriter w;
  w.U32(0xfeedf00d);
  w.Str("shared");
  const SharedBytes wire = w.Take();
  ByteReader r(wire);  // operator const Bytes&.
  EXPECT_EQ(r.U32(), 0xfeedf00du);
  EXPECT_EQ(r.Str(), "shared");
  EXPECT_TRUE(r.ok());
}

TEST(SharedBytesTest, ReassignmentReleasesOldBuffer) {
  SharedBytes a = Bytes{1};
  SharedBytes b = a;
  EXPECT_EQ(a.use_count(), 2u);
  b = Bytes{2};
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(b.use_count(), 1u);
  EXPECT_EQ(b[0], 2u);
  b = a;
  EXPECT_EQ(a.use_count(), 2u);
}

}  // namespace
}  // namespace camelot
