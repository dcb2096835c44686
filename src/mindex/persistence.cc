#include "mindex/persistence.h"

#include <cstdio>

#include "common/serialize.h"

namespace simcloud {
namespace mindex {

namespace {

constexpr uint32_t kSnapshotMagic = 0x4D494458;  // "MIDX"
// Version 2 appends cache_bytes to the options block; version 3 appends
// compaction_trigger; version 4 appends the compaction policy (mode,
// per-segment dead threshold, per-pass byte budget). Older snapshots
// remain loadable (missing fields keep their defaults: no cache, no
// automatic compaction, full-pass mode).
constexpr uint32_t kSnapshotVersion = 4;

void SerializeOptions(const MIndexOptions& options, BinaryWriter* writer) {
  writer->WriteVarint(options.num_pivots);
  writer->WriteVarint(options.bucket_capacity);
  writer->WriteVarint(options.max_level);
  writer->WriteU8(options.storage_kind == StorageKind::kDisk ? 1 : 0);
  writer->WriteString(options.disk_path);
  writer->WriteVarint(options.stored_prefix_length);
  writer->WriteDouble(options.promise_decay);
  writer->WriteVarint(options.cache_bytes);
  writer->WriteDouble(options.compaction_trigger);
  writer->WriteU8(options.compaction_mode == CompactionMode::kPartial ? 1
                                                                      : 0);
  writer->WriteDouble(options.segment_dead_threshold);
  writer->WriteVarint(options.compaction_max_pass_bytes);
}

Result<MIndexOptions> DeserializeOptions(BinaryReader* reader,
                                         uint32_t version) {
  MIndexOptions options;
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t num_pivots, reader->ReadVarint());
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t bucket_capacity, reader->ReadVarint());
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t max_level, reader->ReadVarint());
  SIMCLOUD_ASSIGN_OR_RETURN(uint8_t storage_kind, reader->ReadU8());
  SIMCLOUD_ASSIGN_OR_RETURN(options.disk_path, reader->ReadString());
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t prefix_len, reader->ReadVarint());
  SIMCLOUD_ASSIGN_OR_RETURN(options.promise_decay, reader->ReadDouble());
  if (version >= 2) {
    SIMCLOUD_ASSIGN_OR_RETURN(options.cache_bytes, reader->ReadVarint());
  }
  if (version >= 3) {
    SIMCLOUD_ASSIGN_OR_RETURN(options.compaction_trigger,
                              reader->ReadDouble());
  }
  if (version >= 4) {
    SIMCLOUD_ASSIGN_OR_RETURN(uint8_t mode, reader->ReadU8());
    options.compaction_mode =
        mode == 1 ? CompactionMode::kPartial : CompactionMode::kFull;
    SIMCLOUD_ASSIGN_OR_RETURN(options.segment_dead_threshold,
                              reader->ReadDouble());
    SIMCLOUD_ASSIGN_OR_RETURN(options.compaction_max_pass_bytes,
                              reader->ReadVarint());
  }
  options.num_pivots = num_pivots;
  options.bucket_capacity = bucket_capacity;
  options.max_level = max_level;
  options.storage_kind =
      storage_kind == 1 ? StorageKind::kDisk : StorageKind::kMemory;
  options.stored_prefix_length = prefix_len;
  return options;
}

}  // namespace

Result<Bytes> SerializeIndex(const MIndex& index) {
  BinaryWriter writer;
  writer.WriteU32(kSnapshotMagic);
  writer.WriteU32(kSnapshotVersion);
  SerializeOptions(index.options(), &writer);
  writer.WriteVarint(index.size());
  SIMCLOUD_RETURN_NOT_OK(index.ForEachEntry(
      [&writer](const Entry& entry, const Bytes& payload) -> Status {
        writer.WriteVarint(entry.id);
        writer.WriteU32Vector(entry.permutation);
        writer.WriteFloatVector(entry.pivot_distances);
        writer.WriteBytes(payload);
        return Status::OK();
      }));
  return writer.TakeBuffer();
}

Result<std::unique_ptr<MIndex>> DeserializeIndex(
    const Bytes& snapshot, const std::string& disk_path_override) {
  BinaryReader reader(snapshot);
  SIMCLOUD_ASSIGN_OR_RETURN(uint32_t magic, reader.ReadU32());
  if (magic != kSnapshotMagic) {
    return Status::Corruption("bad index snapshot magic");
  }
  SIMCLOUD_ASSIGN_OR_RETURN(uint32_t version, reader.ReadU32());
  if (version < 1 || version > kSnapshotVersion) {
    return Status::Corruption("unsupported index snapshot version " +
                              std::to_string(version));
  }
  SIMCLOUD_ASSIGN_OR_RETURN(MIndexOptions options,
                            DeserializeOptions(&reader, version));
  if (!disk_path_override.empty()) options.disk_path = disk_path_override;
  SIMCLOUD_ASSIGN_OR_RETURN(std::unique_ptr<MIndex> index,
                            MIndex::Create(options));
  SIMCLOUD_ASSIGN_OR_RETURN(uint64_t count, reader.ReadVarint());
  std::vector<Insertion> items;
  for (uint64_t i = 0; i < count; ++i) {
    Insertion item;
    SIMCLOUD_ASSIGN_OR_RETURN(item.id, reader.ReadVarint());
    SIMCLOUD_ASSIGN_OR_RETURN(item.permutation, reader.ReadU32Vector());
    SIMCLOUD_ASSIGN_OR_RETURN(item.pivot_distances, reader.ReadFloatVector());
    SIMCLOUD_ASSIGN_OR_RETURN(item.payload, reader.ReadBytes());
    items.push_back(std::move(item));
  }
  SIMCLOUD_RETURN_NOT_OK(index->InsertBatch(std::move(items)));
  return index;
}

Status SaveIndex(const MIndex& index, const std::string& path) {
  SIMCLOUD_ASSIGN_OR_RETURN(Bytes snapshot, SerializeIndex(index));
  const std::string tmp_path = path + ".tmp";
  std::FILE* file = std::fopen(tmp_path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IoError("cannot open " + tmp_path + " for writing");
  }
  const size_t written =
      std::fwrite(snapshot.data(), 1, snapshot.size(), file);
  const bool flush_ok = std::fflush(file) == 0;
  std::fclose(file);
  if (written != snapshot.size() || !flush_ok) {
    std::remove(tmp_path.c_str());
    return Status::IoError("short write while saving index snapshot");
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IoError("cannot rename snapshot into place: " + path);
  }
  return Status::OK();
}

Result<std::unique_ptr<MIndex>> LoadIndex(
    const std::string& path, const std::string& disk_path_override) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::IoError("cannot open index snapshot " + path);
  }
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fseek(file, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(file);
    return Status::IoError("cannot stat index snapshot " + path);
  }
  Bytes snapshot(static_cast<size_t>(size));
  const size_t read = std::fread(snapshot.data(), 1, snapshot.size(), file);
  std::fclose(file);
  if (read != snapshot.size()) {
    return Status::IoError("short read on index snapshot " + path);
  }
  return DeserializeIndex(snapshot, disk_path_override);
}

}  // namespace mindex
}  // namespace simcloud
