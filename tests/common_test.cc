// Unit and property tests for the common substrate: Status/Result, hex and
// byte helpers, binary serialization, the deterministic RNG, and timing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/bytes.h"
#include "common/clock.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/status.h"
#include "metric/object.h"

namespace simcloud {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad k");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad k");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad k");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int code = 0; code <= 11; ++code) {
    EXPECT_STRNE(StatusCodeToString(static_cast<StatusCode>(code)), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("missing"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

Status FailingOperation() { return Status::IoError("disk gone"); }

Status UsesReturnNotOk() {
  SIMCLOUD_RETURN_NOT_OK(FailingOperation());
  return Status::OK();
}

TEST(ResultTest, ReturnNotOkPropagates) {
  EXPECT_EQ(UsesReturnNotOk().code(), StatusCode::kIoError);
}

Result<int> ProducesValue() { return 5; }

Result<int> UsesAssignOrReturn() {
  SIMCLOUD_ASSIGN_OR_RETURN(int v, ProducesValue());
  return v * 2;
}

TEST(ResultTest, AssignOrReturnUnwraps) {
  auto r = UsesAssignOrReturn();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 10);
}

// ----------------------------------------------------------------- Bytes

TEST(BytesTest, HexRoundTrip) {
  Bytes data = {0x00, 0x01, 0xab, 0xff};
  EXPECT_EQ(ToHex(data), "0001abff");
  auto back = FromHex("0001abff");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST(BytesTest, HexIsCaseInsensitive) {
  auto r = FromHex("DeadBEEF");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(ToHex(*r), "deadbeef");
}

TEST(BytesTest, HexRejectsOddLength) {
  EXPECT_FALSE(FromHex("abc").ok());
}

TEST(BytesTest, HexRejectsBadDigit) {
  EXPECT_FALSE(FromHex("zz").ok());
}

TEST(BytesTest, ConstantTimeEquals) {
  Bytes a = {1, 2, 3};
  Bytes b = {1, 2, 3};
  Bytes c = {1, 2, 4};
  Bytes d = {1, 2};
  EXPECT_TRUE(ConstantTimeEquals(a, b));
  EXPECT_FALSE(ConstantTimeEquals(a, c));
  EXPECT_FALSE(ConstantTimeEquals(a, d));
  EXPECT_TRUE(ConstantTimeEquals({}, {}));
}

TEST(BytesTest, WipeBytesZeroesTheBufferBeforeFreeing) {
  // clear() keeps the allocation, so the retained data() pointer still
  // addresses the wiped storage: every byte must read back zero — a
  // plain clear() would leave 0xDE.. in memory for the allocator to
  // hand out later.
  Bytes secret = {0xDE, 0xAD, 0xBE, 0xEF, 0x42};
  const uint8_t* storage = secret.data();
  const size_t len = secret.size();
  WipeBytes(&secret);
  EXPECT_TRUE(secret.empty());
  ASSERT_EQ(secret.data(), storage);  // clear() retains the buffer
  for (size_t i = 0; i < len; ++i) {
    EXPECT_EQ(storage[i], 0) << "byte " << i << " survived the wipe";
  }

  WipeBytes(nullptr);  // must be a safe no-op
  Bytes empty;
  WipeBytes(&empty);
  EXPECT_TRUE(empty.empty());
}

// ------------------------------------------------------------- Serialize

TEST(SerializeTest, FixedWidthRoundTrip) {
  BinaryWriter w;
  w.WriteU8(0xAB);
  w.WriteU16(0xBEEF);
  w.WriteU32(0xDEADBEEF);
  w.WriteU64(0x0123456789ABCDEFULL);
  w.WriteI32(-12345);
  w.WriteI64(-9876543210LL);
  w.WriteBool(true);

  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadU8().value(), 0xAB);
  EXPECT_EQ(r.ReadU16().value(), 0xBEEF);
  EXPECT_EQ(r.ReadU32().value(), 0xDEADBEEFu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.ReadI32().value(), -12345);
  EXPECT_EQ(r.ReadI64().value(), -9876543210LL);
  EXPECT_TRUE(r.ReadBool().value());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, VarintBoundaries) {
  const uint64_t values[] = {0,       1,        127,        128,
                             16383,   16384,    UINT32_MAX, (1ULL << 56) - 1,
                             UINT64_MAX};
  BinaryWriter w;
  for (uint64_t v : values) w.WriteVarint(v);
  BinaryReader r(w.buffer());
  for (uint64_t v : values) {
    auto got = r.ReadVarint();
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, v);
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, FloatAndDoubleBitExact) {
  const float floats[] = {0.0f, -0.0f, 1.5f, 3.14159f,
                          std::numeric_limits<float>::max(),
                          std::numeric_limits<float>::denorm_min()};
  BinaryWriter w;
  for (float f : floats) w.WriteFloat(f);
  w.WriteDouble(2.718281828459045);
  BinaryReader r(w.buffer());
  for (float f : floats) {
    EXPECT_EQ(r.ReadFloat().value(), f);
  }
  EXPECT_EQ(r.ReadDouble().value(), 2.718281828459045);
}

TEST(SerializeTest, StringsBytesVectors) {
  BinaryWriter w;
  w.WriteString("hello");
  w.WriteString("");
  w.WriteBytes({9, 8, 7});
  w.WriteFloatVector({1.0f, 2.0f});
  w.WriteU32Vector({3, 1, 4, 1, 5});

  BinaryReader r(w.buffer());
  EXPECT_EQ(r.ReadString().value(), "hello");
  EXPECT_EQ(r.ReadString().value(), "");
  EXPECT_EQ(r.ReadBytes().value(), Bytes({9, 8, 7}));
  EXPECT_EQ(r.ReadFloatVector().value(), std::vector<float>({1.0f, 2.0f}));
  EXPECT_EQ(r.ReadU32Vector().value(), std::vector<uint32_t>({3, 1, 4, 1, 5}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, TruncatedInputIsCorruption) {
  BinaryWriter w;
  w.WriteU64(42);
  for (size_t cut = 0; cut < 8; ++cut) {
    BinaryReader r(w.buffer().data(), cut);
    auto got = r.ReadU64();
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.status().code(), StatusCode::kCorruption);
  }
}

TEST(SerializeTest, TruncatedStringIsCorruption) {
  BinaryWriter w;
  w.WriteString("hello world");
  Bytes buf = w.buffer();
  buf.resize(buf.size() - 3);
  BinaryReader r(buf);
  EXPECT_FALSE(r.ReadString().ok());
}

TEST(SerializeTest, OverlongVarintIsCorruption) {
  Bytes bad(11, 0xFF);  // 11 continuation bytes: > 64 bits
  BinaryReader r(bad);
  EXPECT_FALSE(r.ReadVarint().ok());
}

TEST(SerializeTest, LyingVectorLengthIsCorruption) {
  // A float vector claiming 2^40 elements must fail without allocating.
  BinaryWriter w;
  w.WriteVarint(1ULL << 40);
  BinaryReader r(w.buffer());
  EXPECT_FALSE(r.ReadFloatVector().ok());
}

uint32_t FloatBits(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

float FloatFromBits(uint32_t bits) {
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

TEST(SerializeTest, FloatVectorSpecialValuesBitExact) {
  // Compared as bit patterns: NaN != NaN and -0.0f == 0.0f as floats.
  const std::vector<float> values = {
      FloatFromBits(0x7FC00000u),  // quiet NaN
      FloatFromBits(0x7FA5A5A5u),  // signalling NaN with a payload
      FloatFromBits(0xFFC12345u),  // negative quiet NaN with a payload
      -0.0f,
      0.0f,
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      FloatFromBits(0x007FFFFFu),  // largest denormal
      std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::max(),
      std::numeric_limits<float>::lowest()};
  BinaryWriter w;
  w.WriteFloatVector(values);
  // Wire bytes: varint count, then each float's bits little-endian.
  ASSERT_EQ(w.size(), 1 + 4 * values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    const uint32_t bits = FloatBits(values[i]);
    for (size_t b = 0; b < 4; ++b) {
      EXPECT_EQ(w.buffer()[1 + 4 * i + b], static_cast<uint8_t>(bits >> (8 * b)));
    }
  }
  BinaryReader r(w.buffer());
  auto got = r.ReadFloatVector();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_EQ(got->size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(FloatBits((*got)[i]), FloatBits(values[i])) << "index " << i;
  }
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerializeTest, FloatVectorLengthOverrunIsCorruption) {
  // 11 payload bytes follow each count: two whole floats and a fragment.
  const Bytes payload(11, 0xAB);
  const uint64_t counts[] = {
      3,                    // one byte short
      1ULL << 40,
      (1ULL << 62) + 1,     // n * 4 wraps to 4
      1ULL << 62,           // n * 4 wraps to 0
      UINT64_MAX};
  for (const uint64_t n : counts) {
    BinaryWriter w;
    w.WriteVarint(n);
    w.WriteRaw(payload.data(), payload.size());
    BinaryReader r(w.buffer());
    auto got = r.ReadFloatVector();
    ASSERT_FALSE(got.ok()) << "count " << n;
    EXPECT_EQ(got.status().code(), StatusCode::kCorruption) << "count " << n;
  }
  // Two floats fit, and leave the fragment unread.
  BinaryWriter w;
  w.WriteVarint(2);
  w.WriteRaw(payload.data(), payload.size());
  BinaryReader r(w.buffer());
  auto got = r.ReadFloatVector();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->size(), 2u);
  EXPECT_EQ(r.remaining(), 3u);
}

TEST(SerializeTest, VectorObjectRoundTripAt280d) {
  // The CoPhIR-like descriptor dimension the payload path decodes.
  Rng rng(280);
  std::vector<float> values(280);
  for (auto& v : values) v = static_cast<float>(rng.NextGaussian() * 100.0);
  const metric::VectorObject object(123456789, values);
  BinaryWriter w;
  object.Serialize(&w);
  EXPECT_EQ(w.size(), object.SerializedSize());
  BinaryReader r(w.buffer());
  auto back = metric::VectorObject::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(*back, object);
  EXPECT_TRUE(r.AtEnd());
}

// Property: random write/read sequences round-trip.
class SerializeFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SerializeFuzzTest, RandomRoundTrip) {
  Rng rng(GetParam());
  BinaryWriter w;
  std::vector<uint64_t> varints;
  std::vector<std::string> strings;
  for (int i = 0; i < 100; ++i) {
    varints.push_back(rng.NextU64() >> (rng.NextBounded(64)));
    w.WriteVarint(varints.back());
    std::string s(rng.NextBounded(50), 'x');
    for (auto& c : s) c = static_cast<char>(rng.NextBounded(256));
    strings.push_back(s);
    w.WriteString(s);
  }
  BinaryReader r(w.buffer());
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(r.ReadVarint().value(), varints[i]);
    EXPECT_EQ(r.ReadString().value(), strings[i]);
  }
  EXPECT_TRUE(r.AtEnd());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeFuzzTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBoundedInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMomentsReasonable) {
  Rng rng(11);
  double sum = 0, sum2 = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.NextGaussian();
    sum += g;
    sum2 += g * g;
  }
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.05);
  EXPECT_NEAR(var, 1.0, 0.1);
}

TEST(RngTest, SampleWithoutReplacementIsDistinctAndInRange) {
  Rng rng(13);
  auto sample = rng.SampleWithoutReplacement(100, 30);
  EXPECT_EQ(sample.size(), 30u);
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(std::unique(sample.begin(), sample.end()), sample.end());
  EXPECT_LT(sample.back(), 100u);
}

TEST(RngTest, SampleAllIsPermutation) {
  Rng rng(14);
  auto sample = rng.SampleWithoutReplacement(50, 50);
  std::sort(sample.begin(), sample.end());
  for (size_t i = 0; i < 50; ++i) EXPECT_EQ(sample[i], i);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(15);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

// ----------------------------------------------------------------- Clock

TEST(ClockTest, StopwatchAdvances) {
  Stopwatch watch;
  volatile double x = 0;
  for (int i = 0; i < 10000; ++i) x = x + std::sqrt(static_cast<double>(i));
  EXPECT_GT(watch.ElapsedNanos(), 0);
  EXPECT_GE(watch.ElapsedSeconds(), 0.0);
}

TEST(ClockTest, CostAccumulatorSumsAndMerges) {
  CostAccumulator a;
  a.AddNanos("enc", 1000);
  a.AddNanos("enc", 500);
  a.AddCount("bytes", 10);
  EXPECT_DOUBLE_EQ(a.Seconds("enc"), 1.5e-6);
  EXPECT_EQ(a.Count("bytes"), 10);
  EXPECT_DOUBLE_EQ(a.Seconds("missing"), 0.0);

  CostAccumulator b;
  b.AddNanos("enc", 500);
  b.AddCount("bytes", 5);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Seconds("enc"), 2e-6);
  EXPECT_EQ(a.Count("bytes"), 15);

  a.Clear();
  EXPECT_DOUBLE_EQ(a.Seconds("enc"), 0.0);
}

TEST(ClockTest, ScopedTimerAccumulates) {
  CostAccumulator acc;
  {
    ScopedTimer timer(&acc, "work");
    volatile int x = 0;
    for (int i = 0; i < 1000; ++i) x = x + i;
  }
  EXPECT_GT(acc.durations_nanos().at("work"), 0);
}

}  // namespace
}  // namespace simcloud
