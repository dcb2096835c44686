#include "common/serialize.h"

#include <bit>

namespace simcloud {

void BinaryWriter::WriteVarint(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<uint8_t>(v));
}

void BinaryWriter::WriteString(const std::string& s) {
  WriteVarint(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void BinaryWriter::WriteBytes(const Bytes& b) {
  WriteVarint(b.size());
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void BinaryWriter::WriteRaw(const uint8_t* data, size_t len) {
  buf_.insert(buf_.end(), data, data + len);
}

void BinaryWriter::WriteFloatVector(const std::vector<float>& v) {
  WriteVarint(v.size());
  for (float f : v) WriteFloat(f);
}

void BinaryWriter::WriteU32Vector(const std::vector<uint32_t>& v) {
  WriteVarint(v.size());
  for (uint32_t x : v) WriteVarint(x);
}

Result<uint8_t> BinaryReader::ReadU8() { return ReadLittleEndian<uint8_t>(); }
Result<uint16_t> BinaryReader::ReadU16() { return ReadLittleEndian<uint16_t>(); }
Result<uint32_t> BinaryReader::ReadU32() { return ReadLittleEndian<uint32_t>(); }
Result<uint64_t> BinaryReader::ReadU64() { return ReadLittleEndian<uint64_t>(); }

Result<int32_t> BinaryReader::ReadI32() {
  SIMCLOUD_ASSIGN_OR_RETURN(uint32_t v, ReadU32());
  return static_cast<int32_t>(v);
}

Result<int64_t> BinaryReader::ReadI64() {
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<uint64_t> BinaryReader::ReadVarint() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (shift > 63) return Status::Corruption("varint too long");
    SIMCLOUD_ASSIGN_OR_RETURN(uint8_t byte, ReadU8());
    v |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
  }
  return v;
}

Result<float> BinaryReader::ReadFloat() {
  SIMCLOUD_ASSIGN_OR_RETURN(uint32_t bits, ReadU32());
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

Result<double> BinaryReader::ReadDouble() {
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

Result<bool> BinaryReader::ReadBool() {
  SIMCLOUD_ASSIGN_OR_RETURN(uint8_t b, ReadU8());
  if (b > 1) return Status::Corruption("invalid bool byte");
  return b == 1;
}

Result<std::string> BinaryReader::ReadString() {
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
  SIMCLOUD_RETURN_NOT_OK(Require(n));
  std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
  pos_ += n;
  return s;
}

Result<Bytes> BinaryReader::ReadBytes() {
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
  SIMCLOUD_RETURN_NOT_OK(Require(n));
  Bytes b(data_ + pos_, data_ + pos_ + n);
  pos_ += n;
  return b;
}

Result<std::vector<float>> BinaryReader::ReadFloatVector() {
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
  if (n > remaining() / sizeof(float)) {
    return Status::Corruption("float vector length exceeds remaining input");
  }
  // One bounds check above, then a single pass over the n * 4 bytes.
  std::vector<float> v(n);
  const uint8_t* src = data_ + pos_;
  if constexpr (std::endian::native == std::endian::little) {
    if (n != 0) std::memcpy(v.data(), src, n * sizeof(float));
  } else {
    for (size_t i = 0; i < n; ++i, src += sizeof(float)) {
      const uint32_t bits = static_cast<uint32_t>(src[0]) |
                            static_cast<uint32_t>(src[1]) << 8 |
                            static_cast<uint32_t>(src[2]) << 16 |
                            static_cast<uint32_t>(src[3]) << 24;
      std::memcpy(&v[i], &bits, sizeof(float));
    }
  }
  pos_ += n * sizeof(float);
  return v;
}

Result<std::vector<uint32_t>> BinaryReader::ReadU32Vector() {
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t n, ReadVarint());
  if (n > remaining()) {
    return Status::Corruption("u32 vector length exceeds remaining input");
  }
  std::vector<uint32_t> v;
  v.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    SIMCLOUD_ASSIGN_OR_RETURN(uint64_t x, ReadVarint());
    if (x > UINT32_MAX) return Status::Corruption("u32 vector element overflow");
    v.push_back(static_cast<uint32_t>(x));
  }
  return v;
}

}  // namespace simcloud
